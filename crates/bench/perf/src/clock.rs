//! Reference-normalized host time.
//!
//! The machines this benchmark runs on are shared: neighbours contend
//! for caches and memory bandwidth, and the same code runs up to 1.5×
//! slower for tens of seconds at a time. A run's end-to-end times are
//! therefore measured against a fixed reference workload, run right
//! after each timed interval: the interval's host seconds are scaled by
//! [`REFERENCE_PROBE_S`] over the probe's host seconds. A change to the
//! simulator moves the interval and not the probe, so it shows in full;
//! a slow spell of the machine moves both, and mostly cancels.
//!
//! The probe is the benchmark's own code — sorting and walking 1.6 MB of
//! pseudo-random integers, a memory-bound mix close to the simulator's —
//! and uses nothing from the simulator.

use ewb_core::simcore::SplitMix64;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// The probe's host seconds on the reference machine (2-core container,
/// uncontended): one normalized second is the time in which that
/// machine runs the probe `1 / REFERENCE_PROBE_S` times.
pub const REFERENCE_PROBE_S: f64 = 0.008;

/// Integers the probe sorts and walks.
const PROBE_LEN: u64 = 200_000;

/// Runs the reference workload once; returns its host seconds.
pub fn probe_s() -> f64 {
    let started = Instant::now();
    let mut v: Vec<u64> = (0..PROBE_LEN).map(SplitMix64::mix).collect();
    v.sort_unstable();
    let mut acc = 0u64;
    let mut j = 0usize;
    for _ in 0..PROBE_LEN {
        j = (j + (v[j] as usize & 1023) + 1) % v.len();
        acc = acc.wrapping_add(v[j]);
    }
    black_box(acc);
    started.elapsed().as_secs_f64()
}

/// Probe times of every [`timed`] call so far, for [`run_factor`].
static PROBES: Mutex<Vec<f64>> = Mutex::new(Vec::new());

/// Times `f`; returns its result, its host seconds and its normalized
/// seconds (host seconds scaled by the probe run right after it).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let started = Instant::now();
    let out = f();
    let host_s = started.elapsed().as_secs_f64();
    let probe = probe_s();
    PROBES
        .lock()
        .expect("no probe panics while holding the log")
        .push(probe);
    (out, host_s, host_s * REFERENCE_PROBE_S / probe)
}

/// The factor that turns this run's host seconds into normalized ones:
/// [`REFERENCE_PROBE_S`] over the median probe of every [`timed`] call
/// (1 when there was none). The traced run scales its per-layer times
/// by it, so that they compare with the end-to-end ones.
pub fn run_factor() -> f64 {
    let probes = PROBES
        .lock()
        .expect("no probe panics while holding the log")
        .clone();
    if probes.is_empty() {
        1.0
    } else {
        REFERENCE_PROBE_S / crate::report::median(&probes)
    }
}
