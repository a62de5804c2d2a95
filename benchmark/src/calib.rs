//! Host normalisation: a benchmark-owned calibration slice timed right
//! before every measured op.
//!
//! On a small shared guest the same work takes 1.0–1.5× as long from
//! one minute to the next (memory-subsystem contention from
//! neighbours; an ALU-only loop barely moves). The slice is a fixed,
//! seed-driven insert/contains/remove churn on a `HashSet<u64>` — the
//! same kind of pointer-chasing, allocation-light work the substrates
//! do — so its time tracks the host's current speed. An op's reported
//! time is `raw / host_factor` with `host_factor = slice_ms /
//! CAL_REF_MS`: what the op would have taken on the quiet host the
//! reference was frozen on.
//!
//! The slice runs on as many threads as the workload has workers, so a
//! two-worker workload is normalised by what two busy cores get. The
//! extra threads are persistent: a thread spawned per slice spends a
//! good part of a 7 ms slice waiting for the scheduler to move it off
//! its parent's core, which doubled the measured factor and its noise.
//!
//! Take exactly one slice per op, directly after the previous op's
//! work. A slice that follows another slice finds its own table still
//! cached and reads ~20% faster; measured over an hour of host phases
//! (raw op times moving by 50–60%), the cache-cold slice tracked all
//! four workloads with an exponent of 0.8–1.2, the warm one needed
//! 1.2–1.6.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

/// The slice's time on the quiet reference host, in milliseconds.
///
/// FROZEN: changing this constant, [`KEY_SPACE`] or [`STEPS`] rescales
/// every timing the benchmark reports and needs a new baseline.
pub const CAL_REF_MS: f64 = 7.0;

/// Keys are drawn from `0..KEY_SPACE`; the set settles near two thirds
/// of it (a ~2 MiB table: it does not sit in L1, and feels the shared
/// cache levels the way the substrates' queues and tables do).
const KEY_SPACE: u64 = 200_000;

/// Set operations per slice.
const STEPS: u32 = 150_000;

/// Fixed-key SipHash: the table layout, and so the slice's work, is the
/// same in every process (std's default `RandomState` is seeded per
/// process).
type Set = HashSet<u64, BuildHasherDefault<DefaultHasher>>;

/// One calibration thread's persistent state.
struct Lane {
    set: Set,
    rng: u64,
}

impl Lane {
    fn new(id: u64) -> Self {
        let mut lane = Lane {
            set: Set::default(),
            rng: 0x9E37_79B9_7F4A_7C15 ^ (id + 1),
        };
        // Untimed slices bring the set to its steady occupancy.
        for _ in 0..3 {
            lane.slice();
        }
        lane
    }

    fn next(&mut self) -> u64 {
        // xorshift64
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// Runs the slice and returns its duration in milliseconds.
    fn slice(&mut self) -> f64 {
        let start = Instant::now();
        let mut hits = 0u64;
        for _ in 0..STEPS {
            let r = self.next();
            let key = (r >> 8) % KEY_SPACE;
            match r & 3 {
                0 => hits += u64::from(self.set.remove(&key)),
                1 => hits += u64::from(self.set.contains(&key)),
                _ => hits += u64::from(self.set.insert(key)),
            }
        }
        black_box(hits);
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// A persistent thread running the slice on request.
struct Helper {
    go: Sender<()>,
    done: Receiver<f64>,
    handle: JoinHandle<()>,
}

/// Times the calibration slice on a fixed number of threads: the
/// calling thread plus `threads - 1` helpers.
pub struct Calibrator {
    local: Lane,
    helpers: Vec<Helper>,
}

impl Calibrator {
    /// A calibrator running the slice on `threads` threads at once.
    pub fn new(threads: usize) -> Self {
        let helpers = (1..threads.max(1) as u64)
            .map(|id| {
                let (go, go_rx) = channel::<()>();
                let (done_tx, done) = channel::<f64>();
                let handle = std::thread::spawn(move || {
                    let mut lane = Lane::new(id);
                    // Ends when the calibrator drops its `go` sender.
                    while go_rx.recv().is_ok() {
                        if done_tx.send(lane.slice()).is_err() {
                            break;
                        }
                    }
                });
                Helper { go, done, handle }
            })
            .collect();
        Calibrator {
            local: Lane::new(0),
            helpers,
        }
    }

    /// Runs one slice per thread concurrently and returns the host
    /// factor: mean slice time over [`CAL_REF_MS`]. Above 1 means the
    /// host is currently slower than the reference.
    pub fn host_factor(&mut self) -> f64 {
        for helper in &self.helpers {
            helper.go.send(()).expect("calibration thread exited");
        }
        let mut total = self.local.slice();
        for helper in &self.helpers {
            total += helper.done.recv().expect("calibration thread exited");
        }
        total / (1 + self.helpers.len()) as f64 / CAL_REF_MS
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        for Helper { go, done, handle } in self.helpers.drain(..) {
            drop(go);
            drop(done);
            // A helper can only fail by panicking inside the slice,
            // which would already have surfaced in `host_factor`.
            let _ = handle.join();
        }
    }
}
