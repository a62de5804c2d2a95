//! Pins a single-worker workload to one CPU for as long as it is
//! measured.
//!
//! The calibration slice runs on the driver thread; a one-worker pool
//! does its work on the worker thread. Left to the scheduler, the two
//! land on different vCPUs from fixture to fixture, and on a shared
//! host the vCPUs are not equally fast at any moment (each has its own
//! neighbours). Measured on `metro_churn`: the raw op time of identical
//! fixtures flipped between ~25 and ~31 ms per fixture while the host
//! factor stayed put, so the normalised time scattered 21–31 ms per
//! fixture; with driver and worker on one CPU it held 24.4–26.1 ms. The
//! driver thread sleeps while the worker works, so sharing a CPU costs
//! the op nothing.
//!
//! Two-worker workloads are left alone: their slice already runs on two
//! threads at once and so samples both vCPUs, as the workers do.
//!
//! std links the C library on Linux, so the two calls are declared here
//! rather than through a crate the image does not have.

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

#[cfg(target_os = "linux")]
fn get() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a valid, writable `cpu_set_t` of the stated size;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    (rc == 0).then_some(set)
}

#[cfg(target_os = "linux")]
fn set(set: &CpuSet) -> bool {
    // SAFETY: `set` is a valid `cpu_set_t` of the stated size; pid 0
    // names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn get() -> Option<CpuSet> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set(_set: &CpuSet) -> bool {
    false
}

/// While alive, the calling thread — and every thread it spawns, which
/// inherits the mask — may run on one CPU only. Dropping it gives the
/// calling thread its previous mask back (threads already spawned keep
/// theirs).
pub struct Pin {
    previous: Option<CpuSet>,
    /// The CPU pinned to, if pinning took effect.
    pub cpu: Option<usize>,
}

impl Pin {
    /// Pins when the workload runs `workers == 1` threads of work;
    /// otherwise, or where the host refuses, does nothing.
    pub fn for_workers(workers: usize) -> Pin {
        let nothing = Pin {
            previous: None,
            cpu: None,
        };
        if workers != 1 {
            return nothing;
        }
        let Some(allowed) = get() else {
            return nothing;
        };
        // The highest CPU this process may use: interrupts and the
        // kernel's housekeeping favour the lowest.
        let Some(cpu) = (0..1024)
            .rev()
            .find(|c| allowed[c / 64] >> (c % 64) & 1 == 1)
        else {
            return nothing;
        };
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        if set(&one) {
            Pin {
                previous: Some(allowed),
                cpu: Some(cpu),
            }
        } else {
            nothing
        }
    }
}

impl Drop for Pin {
    fn drop(&mut self) {
        if let Some(previous) = self.previous.take() {
            set(&previous);
        }
    }
}
