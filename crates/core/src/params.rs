//! Protocol parameters.
//!
//! The paper names the knobs that trade reliability for message
//! complexity (Sec. V-B): the membership constant `b`, the gossip
//! constant `c` (inside the fanout rule), the link-election weight `g`
//! (`p_sel = g / S`), the supertable spray weight `a` (`p_a = a / z`), the
//! supertable size `z`, and the maintenance threshold `τ`. A network runs
//! one set of them in every group.

use crate::DaError;
use da_membership::FanoutRule;

/// The daMulticast parameters, one set for every group of a network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopicParams {
    /// Membership view constant `b` — topic tables hold `(b+1)·ln(S)` ids.
    pub b: f64,
    /// Intra-group gossip fanout rule (`ln(S)+c` family).
    pub fanout: FanoutRule,
    /// Link-election weight `g`: a process elects itself to forward an
    /// event to its supergroup with probability `p_sel = g / S`.
    pub g: f64,
    /// Supertable spray weight `a`: each supertable entry is sent the event
    /// with probability `p_a = a / z`.
    pub a: f64,
    /// Supertopic table size `z`.
    pub z: usize,
    /// Maintenance threshold `τ`: when at most `τ` supertable entries are
    /// alive, fresh superprocesses are requested (Fig. 6, line 18).
    pub tau: usize,
    /// Rounds between maintenance passes (`KEEP_TABLE_UPDATED` cadence).
    pub maintenance_period: u64,
    /// Rounds a liveness ping may take before the peer counts as failed.
    pub ping_timeout: u64,
}

impl TopicParams {
    /// The paper's simulation parameters (Sec. VII-A): `b = 3`, `c = 5`
    /// (log10 fanout, matching the plotted magnitudes), `g = 5`, `a = 1`,
    /// `z = 3`.
    #[must_use]
    pub fn paper_default() -> Self {
        TopicParams {
            b: 3.0,
            fanout: FanoutRule::Log10PlusC { c: 5.0 },
            g: 5.0,
            a: 1.0,
            z: 3,
            tau: 1,
            maintenance_period: 10,
            ping_timeout: 4,
        }
    }

    /// `p_sel = g / S`, clamped into `[0, 1]` (Sec. V-B).
    #[must_use]
    pub fn p_sel(&self, group_size: usize) -> f64 {
        if group_size == 0 {
            return 0.0;
        }
        (self.g / group_size as f64).clamp(0.0, 1.0)
    }

    /// `p_a = a / z`, clamped into `[0, 1]` (Sec. V-B).
    #[must_use]
    pub fn p_a(&self) -> f64 {
        if self.z == 0 {
            return 0.0;
        }
        (self.a / self.z as f64).clamp(0.0, 1.0)
    }

    /// Validates the parameter ranges required by the paper
    /// (`1 ≤ g`, `1 ≤ a ≤ z`, `0 ≤ τ ≤ z`, `z ≥ 1`, `0 ≤ b`, a fanout
    /// constant `c` that is a number). Every range is written so that NaN
    /// fails it: a NaN `g` would otherwise silently never elect a link.
    ///
    /// # Errors
    ///
    /// Returns [`DaError::InvalidParameter`] describing the violation.
    pub fn validate(&self) -> Result<(), DaError> {
        if self.z == 0 {
            return Err(DaError::InvalidParameter {
                reason: "z (supertable size) must be at least 1".to_owned(),
            });
        }
        if !(1.0..).contains(&self.g) {
            return Err(DaError::InvalidParameter {
                reason: format!("g must be at least 1 (got {})", self.g),
            });
        }
        if !(1.0..=self.z as f64).contains(&self.a) {
            return Err(DaError::InvalidParameter {
                reason: format!("a must satisfy 1 ≤ a ≤ z (got a={}, z={})", self.a, self.z),
            });
        }
        if self.tau > self.z {
            return Err(DaError::InvalidParameter {
                reason: format!(
                    "τ must satisfy 0 ≤ τ ≤ z (got τ={}, z={})",
                    self.tau, self.z
                ),
            });
        }
        if !(0.0..).contains(&self.b) {
            return Err(DaError::InvalidParameter {
                reason: format!("b must be non-negative (got {})", self.b),
            });
        }
        if self.fanout.c().is_some_and(f64::is_nan) {
            return Err(DaError::InvalidParameter {
                reason: "the fanout constant c must be a number (got NaN)".to_owned(),
            });
        }
        Ok(())
    }

    /// Replaces the fanout rule.
    #[must_use]
    pub fn with_fanout(mut self, fanout: FanoutRule) -> Self {
        self.fanout = fanout;
        self
    }

    /// Replaces `g`.
    #[must_use]
    pub fn with_g(mut self, g: f64) -> Self {
        self.g = g;
        self
    }

    /// Replaces `a`.
    #[must_use]
    pub fn with_a(mut self, a: f64) -> Self {
        self.a = a;
        self
    }

    /// Replaces `z`.
    #[must_use]
    pub fn with_z(mut self, z: usize) -> Self {
        self.z = z;
        self
    }
}

impl Default for TopicParams {
    fn default() -> Self {
        TopicParams::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_vii() {
        let p = TopicParams::paper_default();
        assert!((p.b - 3.0).abs() < f64::EPSILON);
        assert!((p.g - 5.0).abs() < f64::EPSILON);
        assert!((p.a - 1.0).abs() < f64::EPSILON);
        assert_eq!(p.z, 3);
        assert_eq!(p.fanout, FanoutRule::Log10PlusC { c: 5.0 });
        assert!(p.validate().is_ok());
    }

    #[test]
    fn probability_p_sel() {
        let p = TopicParams::paper_default();
        assert!((p.p_sel(1000) - 0.005).abs() < 1e-12);
        assert!((p.p_sel(100) - 0.05).abs() < 1e-12);
        // Tiny groups: clamped to 1.
        assert!((p.p_sel(3) - 1.0).abs() < 1e-12);
        assert!(p.p_sel(0).abs() < 1e-12);
    }

    #[test]
    fn probability_p_a() {
        let p = TopicParams::paper_default();
        assert!((p.p_a() - 1.0 / 3.0).abs() < 1e-12);
        let p = p.with_a(3.0);
        assert!((p.p_a() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn validation_catches_bad_ranges() {
        assert!(TopicParams::paper_default().with_z(0).validate().is_err());
        for g in [0.5, f64::NAN] {
            assert!(TopicParams::paper_default().with_g(g).validate().is_err());
        }
        for a in [0.0, 10.0, f64::NAN] {
            assert!(TopicParams::paper_default().with_a(a).validate().is_err());
        }
        let mut p = TopicParams::paper_default();
        p.tau = 99;
        assert!(p.validate().is_err());
        p.tau = 3;
        assert!(p.validate().is_ok(), "τ = z is allowed");
        for b in [-1.0, f64::NAN] {
            let mut p = TopicParams::paper_default();
            p.b = b;
            assert!(p.validate().is_err(), "b = {b}");
        }
        for fanout in [
            FanoutRule::LnPlusC { c: f64::NAN },
            FanoutRule::Log10PlusC { c: f64::NAN },
        ] {
            let p = TopicParams::paper_default().with_fanout(fanout);
            assert!(p.validate().is_err(), "{fanout:?}");
        }
    }
}
