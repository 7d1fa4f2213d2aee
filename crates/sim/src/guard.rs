//! Numeric guardrails for the replication harness.
//!
//! A single NaN from a model propagates through the fluid-queue recursion
//! and silently poisons every CLR estimate downstream — the pooled account
//! merges it into all replications and the run's output is garbage with no
//! indication of where it came from. [`Guard`] checks every value crossing a
//! stage boundary (source → aggregate → queue) and converts the first bad
//! one into a [`SimError::NumericFault`] carrying the replication, frame,
//! seed and pipeline site, so the fault replays deterministically: source
//! j of replication r draws from `root.split(r).split(j)`.

use crate::error::{FaultSite, NumericFault, SimError};
use std::sync::Arc;
use vbr_obs::GuardTripCounters;

/// Per-replication numeric guard: validates frame-rate and queue values,
/// tracking the frame index so faults are reported with full provenance.
#[derive(Debug, Clone)]
pub struct Guard {
    replication: usize,
    seed: u64,
    frame: u64,
    /// Optional trip counters (shared with the run's metrics): every fault
    /// this guard constructs is counted at its pipeline site.
    trips: Option<Arc<GuardTripCounters>>,
}

impl Guard {
    /// Creates a guard for one replication of a run rooted at `seed`.
    pub fn new(replication: usize, seed: u64) -> Self {
        Self {
            replication,
            seed,
            frame: 0,
            trips: None,
        }
    }

    /// Attaches shared trip counters: every fault the guard constructs from
    /// here on increments the counter matching its [`FaultSite`].
    pub fn with_trip_counters(mut self, trips: Arc<GuardTripCounters>) -> Self {
        self.trips = Some(trips);
        self
    }

    /// Current frame index (frames validated so far).
    pub fn frame(&self) -> u64 {
        self.frame
    }

    /// Advances the frame counter by a whole batch of frames.
    pub fn advance_by(&mut self, frames: u64) {
        self.frame += frames;
    }

    fn fault(&self, value: f64, site: FaultSite) -> SimError {
        self.fault_at(0, value, site)
    }

    /// Builds a fault `offset` frames past the guard's current frame — used
    /// by the batch checks, where the guard's counter points at the first
    /// frame of the batch.
    fn fault_at(&self, offset: u64, value: f64, site: FaultSite) -> SimError {
        if let Some(trips) = &self.trips {
            match site {
                FaultSite::Source(_) => trips.source.add(1),
                FaultSite::Aggregate => trips.aggregate.add(1),
                FaultSite::Queue(_) => trips.queue.add(1),
            }
        }
        SimError::NumericFault(NumericFault {
            replication: self.replication,
            frame: self.frame + offset,
            seed: self.seed,
            value,
            site,
        })
    }

    /// Validates one source's output `offset` frames into the current
    /// batch: a frame size is a rate in cells/frame, so it must be finite
    /// and non-negative.
    #[inline]
    pub fn check_source_at(&self, offset: u64, source: usize, value: f64) -> Result<f64, SimError> {
        if value.is_finite() && value >= 0.0 {
            Ok(value)
        } else {
            Err(self.source_fault(offset, source, value))
        }
    }

    /// The fault for `source`'s invalid `value` `offset` frames into the
    /// current batch. The runner scans every source's slice with
    /// [`first_invalid`] and builds only the earliest fault over all of them.
    pub fn source_fault(&self, offset: u64, source: usize, value: f64) -> SimError {
        self.fault_at(offset, value, FaultSite::Source(source))
    }

    /// Validates a batch of per-frame values produced at `site`, attributing
    /// the first bad value to its exact frame (`self.frame() + index`).
    ///
    /// This is the per-batch form of checking every frame as it is made:
    /// the fault carries the same site, value and frame index, only the
    /// scan happens after the whole batch is produced. A clean batch is
    /// recognised by a branch-free scan over 8 lanes; only a faulty one is
    /// walked value by value to find its first fault.
    pub fn check_batch(&self, values: &[f64], site: FaultSite) -> Result<(), SimError> {
        match first_invalid(values) {
            Some(i) => Err(self.fault_at(i as u64, values[i], site)),
            None => Ok(()),
        }
    }

    /// Validates queue state (workload and loss account) after an offer.
    /// The fluid recursion preserves finiteness, so this only fires if the
    /// queue itself is buggy — cheap insurance on the accounting the whole
    /// paper reproduction rests on.
    #[inline]
    pub fn check_queue(&self, buffer_index: usize, queue: &crate::queue::FluidQueue) -> Result<(), SimError> {
        let valid = |v: f64| v.is_finite() && v >= 0.0;
        let w = queue.workload();
        if !valid(w) {
            return Err(self.fault(w, FaultSite::Queue(buffer_index)));
        }
        let acct = queue.account();
        if !valid(acct.offered) {
            return Err(self.fault(acct.offered, FaultSite::Queue(buffer_index)));
        }
        if !valid(acct.lost) {
            return Err(self.fault(acct.lost, FaultSite::Queue(buffer_index)));
        }
        Ok(())
    }
}

/// Index of the first value that is not finite and `>= 0`, if any. A clean
/// slice costs one branch-free lane scan over 8 lanes; only a faulty one
/// is walked value by value.
pub fn first_invalid(values: &[f64]) -> Option<usize> {
    if all_valid(values) {
        return None;
    }
    values.iter().position(|&v| !(v.is_finite() && v >= 0.0))
}

/// Lanes of [`all_valid`]'s scan: enough independent accumulators to keep
/// the scan throughput-bound rather than latency-bound.
const SCAN_LANES: usize = 8;

/// Whether every value is finite and `>= 0`, decided without a branch per
/// value. Each lane keeps the minimum of its values, which is below `0`
/// exactly when some value is negative, and the sum of `v · 0`, which is a
/// zero for a finite `v` and NaN for a NaN or an infinity, and stays NaN
/// once it is. `-0.0` and subnormals pass, as they pass the scalar check.
fn all_valid(values: &[f64]) -> bool {
    let mut min = [0.0f64; SCAN_LANES];
    let mut nonfinite = [0.0f64; SCAN_LANES];
    let mut scan = |chunk: &[f64]| {
        for ((m, z), &v) in min.iter_mut().zip(nonfinite.iter_mut()).zip(chunk) {
            // Compare-select rather than `f64::min`: a NaN is caught by the
            // other accumulator, so its NaN handling is not needed here.
            *m = if v < *m { v } else { *m };
            *z += v * 0.0;
        }
    };
    let chunks = values.chunks_exact(SCAN_LANES);
    let tail = chunks.remainder();
    chunks.for_each(&mut scan);
    scan(tail);
    min.iter().all(|&m| m >= 0.0) && nonfinite.iter().all(|&z| z == 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;
    use vbr_models::FrameProcess;
    use vbr_stats::rng::Xoshiro256PlusPlus;

    /// A process that misbehaves after a configurable number of frames.
    #[derive(Debug, Clone)]
    struct Poisoned {
        after: u64,
        emitted: u64,
        value: f64,
    }

    impl FrameProcess for Poisoned {
        fn next_frame(&mut self, _rng: &mut dyn RngCore) -> f64 {
            self.emitted += 1;
            if self.emitted > self.after {
                self.value
            } else {
                100.0
            }
        }
        fn mean(&self) -> f64 {
            100.0
        }
        fn variance(&self) -> f64 {
            1.0
        }
        fn autocorrelations(&self, max_lag: usize) -> Vec<f64> {
            let mut v = vec![0.0; max_lag + 1];
            v[0] = 1.0;
            v
        }
        fn reset(&mut self, _rng: &mut dyn RngCore) {
            self.emitted = 0;
        }
        fn boxed_clone(&self) -> Box<dyn FrameProcess> {
            Box::new(self.clone())
        }
        fn label(&self) -> String {
            "poisoned".into()
        }
    }

    #[test]
    fn clean_values_pass_through() {
        let g = Guard::new(0, 1);
        assert_eq!(g.check_source_at(0, 0, 5.0).unwrap(), 5.0);
        assert_eq!(g.check_source_at(0, 0, 0.0).unwrap(), 0.0);
    }

    #[test]
    fn nan_inf_negative_all_fault() {
        let g = Guard::new(3, 9);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let err = g.check_source_at(0, 2, bad).unwrap_err();
            match err {
                SimError::NumericFault(f) => {
                    assert_eq!(f.replication, 3);
                    assert_eq!(f.seed, 9);
                    assert_eq!(f.site, FaultSite::Source(2));
                }
                other => panic!("wrong error {other:?}"),
            }
        }
    }

    /// The first bad value of a multi-source batch is pinned to its source
    /// and frame, however many clean draws come before it.
    #[test]
    fn source_check_pins_offending_source_and_frame() {
        let clean = Poisoned {
            after: u64::MAX,
            emitted: 0,
            value: 0.0,
        };
        let poisoned = Poisoned {
            after: 4,
            emitted: 0,
            value: f64::NAN,
        };
        let mut sources: Vec<Box<dyn FrameProcess>> =
            vec![Box::new(clean), Box::new(poisoned)];
        let mut rng = Xoshiro256PlusPlus::from_seed_u64(1);
        let g = Guard::new(0, 42);
        let failure = (0..10u64).find_map(|offset| {
            sources
                .iter_mut()
                .enumerate()
                .find_map(|(i, s)| g.check_source_at(offset, i, s.next_frame(&mut rng)).err())
        });
        match failure.expect("must fault") {
            SimError::NumericFault(f) => {
                assert_eq!(f.site, FaultSite::Source(1));
                assert_eq!(f.frame, 4, "fault on the fifth frame (index 4)");
                assert!(f.value.is_nan());
            }
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn check_batch_attributes_exact_frame() {
        let mut g = Guard::new(1, 7);
        g.advance_by(100);
        let values = [1.0, 2.0, f64::NAN, 3.0];
        match g.check_batch(&values, FaultSite::Aggregate).unwrap_err() {
            SimError::NumericFault(f) => {
                assert_eq!(f.frame, 102, "fault lands on batch base + offset");
                assert_eq!(f.site, FaultSite::Aggregate);
                assert!(f.value.is_nan());
            }
            other => panic!("wrong error {other:?}"),
        }
        assert!(g.check_batch(&[0.0, 1.0], FaultSite::Aggregate).is_ok());
    }

    #[test]
    fn check_source_at_matches_scalar_check() {
        let mut g = Guard::new(2, 11);
        g.advance_by(40);
        assert_eq!(g.check_source_at(3, 5, 9.0).unwrap(), 9.0);
        match g.check_source_at(3, 5, -1.0).unwrap_err() {
            SimError::NumericFault(f) => {
                assert_eq!(f.frame, 43);
                assert_eq!(f.site, FaultSite::Source(5));
                assert_eq!(f.value, -1.0);
            }
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn healthy_queue_passes_check() {
        let mut q = crate::queue::FluidQueue::finite(100.0, 10.0);
        q.offer(150.0);
        let g = Guard::new(0, 1);
        assert!(g.check_queue(0, &q).is_ok());
    }
}
