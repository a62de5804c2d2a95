//! What can go wrong in one run.
//!
//! [`FaultConfig`] is plain data: the [`NetworkModel`] (channel,
//! partitions, scripted drops) and the process
//! [`FailureModel`]. A [`RunConfig`](crate::run::RunConfig) embeds one,
//! so the same value configures either substrate, and its setters are
//! the ones that fill it in.

use crate::failure::FailureModel;
use crate::network::NetworkModel;

/// Everything that can go wrong in one run, in one value: the
/// [`NetworkModel`] (channel, partition schedule, scripted drops) and
/// the process [`FailureModel`].
///
/// The default is the absence of faults: a perfect channel, no
/// partitions, no crashes.
///
/// ```
/// use da_core::fault::FaultConfig;
/// use da_core::channel::ChannelConfig;
/// use da_core::failure::FailureModel;
/// use da_core::network::NetworkModel;
///
/// let faults = FaultConfig {
///     network: NetworkModel::uniform(ChannelConfig::paper_default()),
///     failure: FailureModel::Stillborn { alive_fraction: 0.9 },
/// };
/// assert!((faults.network.channel.success_probability - 0.85).abs() < 1e-12);
/// assert!(FaultConfig::default().network.is_perfect());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultConfig {
    /// The network fault model: channel, partitions, scripted drops.
    pub network: NetworkModel,
    /// The process failure model (crashes, churn, per-observer fates).
    pub failure: FailureModel,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_faultless() {
        let faults = FaultConfig::default();
        assert!(faults.network.is_perfect());
        assert_eq!(faults.failure, FailureModel::None);
    }
}
