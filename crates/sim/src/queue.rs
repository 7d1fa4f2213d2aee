//! Frame-level fluid queue and the infinite-buffer survival estimator.

/// Running totals of offered and lost traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LossAccount {
    /// Total cells offered.
    pub offered: f64,
    /// Total cells lost to buffer overflow.
    pub lost: f64,
}

impl LossAccount {
    /// Cell loss rate `lost/offered` (0 when nothing was offered).
    pub fn clr(&self) -> f64 {
        if self.offered > 0.0 {
            self.lost / self.offered
        } else {
            0.0
        }
    }

    /// Merges another account into this one.
    pub fn merge(&mut self, other: &LossAccount) {
        self.offered += other.offered;
        self.lost += other.lost;
    }
}

/// Queues [`FluidQueue::offer_batch_bank`] steps together per frame, as one
/// fused chunk, whenever lanes need an explicit step (an excursion of the
/// reference above their buffers, or a bank of mixed capacities). Chosen by
/// measurement: enough independent recursions to hide the `max`/`min`
/// latency of each one, and the fastest width measured. On a 2-vCPU Intel
/// Xeon (x86-64, default release flags, 4096-frame batches, 2^20 frames)
/// stepping every frame, 4, 8, 16 and 32 lanes took about 47, 40, 30 and
/// 38 ns per frame for 32 buffers, against about 160 ns for one
/// `offer_batch` per queue; for 9 buffers 16 lanes took about 15 ns
/// against 45.
pub const BANK_LANES: usize = 16;

/// Frame-level fluid queue with finite or infinite buffer.
///
/// Per frame: total arrivals `X` (cells) drain against capacity `C`
/// (cells/frame). Under deterministic smoothing the buffer content is
/// piecewise linear within the frame, so the loss of frame `n` is exactly
/// `(W_n + X_n − C − B)⁺` and the end-of-frame workload
/// `W_{n+1} = min{(W_n + X_n − C)⁺, B}` — the paper's recursion.
#[derive(Debug, Clone)]
pub struct FluidQueue {
    capacity: f64,
    /// `None` = infinite buffer (workload unbounded, no loss).
    buffer: Option<f64>,
    workload: f64,
    account: LossAccount,
}

impl FluidQueue {
    /// Creates a finite-buffer queue (`buffer` in cells).
    ///
    /// A `-0.0` buffer is stored as `+0.0`. Both lose the same cells, but
    /// `min(+0.0, -0.0)` may return either sign, so only a `+0.0` bound
    /// keeps every workload a `+0.0` when it is zero; the buffer bank's
    /// reference lane relies on that (see
    /// [`offer_batch_bank`](Self::offer_batch_bank)).
    ///
    /// # Panics
    /// Panics on non-positive capacity or negative buffer.
    pub fn finite(capacity_per_frame: f64, buffer: f64) -> Self {
        assert!(
            capacity_per_frame > 0.0 && capacity_per_frame.is_finite(),
            "invalid capacity {capacity_per_frame}"
        );
        assert!(buffer >= 0.0 && buffer.is_finite(), "invalid buffer {buffer}");
        Self {
            capacity: capacity_per_frame,
            buffer: Some(buffer + 0.0),
            workload: 0.0,
            account: LossAccount::default(),
        }
    }

    /// Creates an infinite-buffer queue (for BOP estimation).
    pub fn infinite(capacity_per_frame: f64) -> Self {
        assert!(
            capacity_per_frame > 0.0 && capacity_per_frame.is_finite(),
            "invalid capacity {capacity_per_frame}"
        );
        Self {
            capacity: capacity_per_frame,
            buffer: None,
            workload: 0.0,
            account: LossAccount::default(),
        }
    }

    /// Offers one frame's worth of aggregate arrivals; returns the cells
    /// lost in this frame (always 0 for an infinite buffer).
    #[inline]
    pub fn offer(&mut self, arrivals: f64) -> f64 {
        debug_assert!(arrivals >= 0.0, "negative arrivals {arrivals}");
        self.account.offered += arrivals;
        let unconstrained = (self.workload + arrivals - self.capacity).max(0.0);
        match self.buffer {
            Some(b) => {
                let lost = (unconstrained - b).max(0.0);
                self.workload = unconstrained.min(b);
                self.account.lost += lost;
                lost
            }
            None => {
                self.workload = unconstrained;
                0.0
            }
        }
    }

    /// Offers a whole batch of per-frame aggregate arrivals.
    ///
    /// Exactly equivalent to calling [`offer`](Self::offer) once per frame
    /// in order (same floating-point operations, same accumulation order,
    /// bit-identical workload and account) — the batch form keeps the
    /// queue's recursion state in registers across the batch instead of
    /// round-tripping through memory and the per-frame buffer `match`.
    pub fn offer_batch(&mut self, arrivals: &[f64]) {
        let cap = self.capacity;
        let mut offered = self.account.offered;
        let mut w = self.workload;
        match self.buffer {
            Some(b) => {
                let mut lost = self.account.lost;
                for &x in arrivals {
                    debug_assert!(x >= 0.0, "negative arrivals {x}");
                    offered += x;
                    let unconstrained = (w + x - cap).max(0.0);
                    lost += (unconstrained - b).max(0.0);
                    w = unconstrained.min(b);
                }
                self.account.lost = lost;
            }
            None => {
                for &x in arrivals {
                    debug_assert!(x >= 0.0, "negative arrivals {x}");
                    offered += x;
                    w = (w + x - cap).max(0.0);
                }
            }
        }
        self.workload = w;
        self.account.offered = offered;
    }

    /// Offers the same batch to every queue of a buffer bank.
    ///
    /// Each queue ends bit-identical to calling
    /// [`offer_batch`](Self::offer_batch) on it alone. The bank runs one
    /// *reference lane* `r ← max(r + x − c, 0)`, the infinite-buffer
    /// recursion at the bank's capacity, started from the largest lane
    /// workload, and steps a queue only while it can differ from it:
    ///
    /// - A queue whose workload equals `r` stays equal to it, with its loss
    ///   unchanged, for as long as `r` stays at or below its buffer: it runs
    ///   the same operations on the same bits, and its loss term is `+0.0`.
    /// - Float rounding is monotone, so every queue stays at or below `r`.
    ///   When `r` returns to `0` every queue is `0` too, equal again.
    ///
    /// So a queue is stepped only through an *excursion* of `r` (from a
    /// frame where `r` rises above the smallest buffer until `r` is `0`
    /// again) whose peak exceeds its buffer, and also through the first
    /// excursion if it entered the call below the reference. Those steps
    /// run [`BANK_LANES`] queues at a time, frame-major: for each frame
    /// every lane of a chunk is advanced before the next frame, so their
    /// independent recursions overlap and vectorise. At a light load the
    /// reference is `0` in almost every frame and the sweep costs little
    /// more than one pass over the batch; at a heavy load it costs one
    /// serial recursion plus stepping every buffer. `offered` is the same
    /// sum in every lane, so it is added once per run of queues that enter
    /// with equal totals, once per call in the runner. A bank of mixed
    /// capacities has no common reference: every queue is stepped.
    ///
    /// Zero workloads are `+0.0` bits on both sides of every comparison:
    /// `max(·, 0.0)` never returns `-0.0` here, and
    /// [`finite`](Self::finite) stores a `-0.0` buffer as `+0.0`.
    pub fn offer_batch_bank(queues: &mut [FluidQueue], arrivals: &[f64]) {
        let Some(first) = queues.first() else {
            return;
        };
        let cap = first.capacity;
        // `offered` does not depend on the buffer: queues that enter with
        // the same total leave with the same total.
        let mut previous: Option<(u64, f64)> = None;
        for q in queues.iter_mut() {
            let start = q.account.offered.to_bits();
            let total = match previous {
                Some((bits, total)) if bits == start => total,
                _ => arrivals.iter().fold(q.account.offered, |o, &x| o + x),
            };
            previous = Some((start, total));
            q.account.offered = total;
        }
        if queues.iter().any(|q| q.capacity != cap) {
            // No common reference: step every queue.
            for chunk in queues.chunks_mut(BANK_LANES) {
                step_lanes(chunk.iter_mut(), arrivals);
            }
            return;
        }

        let floor = queues
            .iter()
            .map(|q| q.bound())
            .fold(f64::INFINITY, f64::min);
        let mut r = queues.iter().map(|q| q.workload).fold(0.0, f64::max);
        // Queues below the reference at entry (a previous call ended inside
        // an excursion) are stepped through the first excursion.
        let mut entry = queues.iter().any(|q| q.workload.to_bits() != r.to_bits());
        let mut n = 0;
        loop {
            if !entry {
                // Every queue equals `r`: advance it alone until it rises
                // above the smallest buffer.
                while n < arrivals.len() {
                    let x = arrivals[n];
                    debug_assert!(x >= 0.0, "negative arrivals {x}");
                    // An empty queue stays `+0.0` under a frame of at most
                    // `c` (`max(x − c, 0.0)`): skip the serial arithmetic.
                    if r == 0.0 && x <= cap {
                        n += 1;
                        continue;
                    }
                    let next = (r + x - cap).max(0.0);
                    if next > floor {
                        break;
                    }
                    r = next;
                    n += 1;
                }
                if n == arrivals.len() {
                    for q in queues.iter_mut() {
                        q.workload = r;
                    }
                    return;
                }
            }
            // An excursion: run `r` until it is 0 again or the batch ends,
            // then step every queue it may have moved.
            let (start, r_start, mut peak) = (n, r, r);
            while n < arrivals.len() {
                let x = arrivals[n];
                debug_assert!(x >= 0.0, "negative arrivals {x}");
                r = (r + x - cap).max(0.0);
                peak = peak.max(r);
                n += 1;
                if r == 0.0 {
                    break;
                }
            }
            // A queue the excursion leaves coupled takes `r` now: at the
            // batch end it is the queue's workload; otherwise the next
            // excursion or the batch end overwrites it.
            let lanes = queues.iter_mut().filter_map(|q| {
                let below = entry && q.workload.to_bits() != r_start.to_bits();
                if below || q.bound() < peak {
                    if !below {
                        // Coupled until this excursion.
                        q.workload = r_start;
                    }
                    Some(q)
                } else {
                    q.workload = r;
                    None
                }
            });
            step_lanes(lanes, &arrivals[start..n]);
            entry = false;
            if n == arrivals.len() {
                return;
            }
        }
    }

    /// Offers a batch and records every post-offer workload in `est` — the
    /// batched form of alternating `offer` / `BopEstimator::observe` per
    /// frame on an infinite-buffer queue (finite buffers work too; the
    /// clamped workload is observed, as the scalar interleave would).
    pub fn offer_batch_observing(&mut self, arrivals: &[f64], est: &mut BopEstimator) {
        let cap = self.capacity;
        let mut offered = self.account.offered;
        let mut w = self.workload;
        match self.buffer {
            Some(b) => {
                let mut lost = self.account.lost;
                for &x in arrivals {
                    debug_assert!(x >= 0.0, "negative arrivals {x}");
                    offered += x;
                    let unconstrained = (w + x - cap).max(0.0);
                    lost += (unconstrained - b).max(0.0);
                    w = unconstrained.min(b);
                    est.observe(w);
                }
                self.account.lost = lost;
            }
            None => {
                for &x in arrivals {
                    debug_assert!(x >= 0.0, "negative arrivals {x}");
                    offered += x;
                    w = (w + x - cap).max(0.0);
                    est.observe(w);
                }
            }
        }
        self.workload = w;
        self.account.offered = offered;
    }

    /// Current start-of-frame workload (cells).
    pub fn workload(&self) -> f64 {
        self.workload
    }

    /// Loss totals so far.
    pub fn account(&self) -> LossAccount {
        self.account
    }

    /// Service capacity (cells/frame).
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Configured buffer (None = infinite).
    pub fn buffer(&self) -> Option<f64> {
        self.buffer
    }

    /// The buffer as the recursion's upper bound (`+∞` when infinite).
    fn bound(&self) -> f64 {
        self.buffer.unwrap_or(f64::INFINITY)
    }

    /// Clears workload and counters (fresh replication).
    pub fn reset(&mut self) {
        self.workload = 0.0;
        self.account = LossAccount::default();
    }

    /// Zeroes the loss counters but keeps the current workload — used at the
    /// warmup/measurement boundary so measurement starts from a warmed-up
    /// queue without counting warmup traffic.
    pub fn clear_accounts(&mut self) {
        self.account = LossAccount::default();
    }
}

/// Steps `lanes` through `arrivals` [`BANK_LANES`] at a time, frame-major:
/// for each frame every lane of a chunk takes one step of
/// [`FluidQueue::offer_batch`]'s recursion before the next frame, so the
/// lanes' independent `w → max → min` chains overlap in the pipeline and
/// vectorise. A short chunk is padded with all-zero scratch lanes (they see
/// `w = min(x, 0) = 0` every frame) that are never written back. An
/// infinite buffer runs with a bound of `+∞`: `min` never binds and the
/// loss term is always `+0.0`. `offered` is left to the caller.
fn step_lanes<'a>(mut lanes: impl Iterator<Item = &'a mut FluidQueue>, arrivals: &[f64]) {
    loop {
        let mut chunk: [Option<&mut FluidQueue>; BANK_LANES] =
            std::array::from_fn(|_| lanes.next());
        if chunk[0].is_none() {
            return;
        }
        let mut cap = [0.0; BANK_LANES];
        let mut bound = [0.0; BANK_LANES];
        let mut w = [0.0; BANK_LANES];
        let mut lost = [0.0; BANK_LANES];
        for (l, q) in chunk.iter().flatten().enumerate() {
            cap[l] = q.capacity;
            bound[l] = q.bound();
            w[l] = q.workload;
            lost[l] = q.account.lost;
        }
        for &x in arrivals {
            debug_assert!(x >= 0.0, "negative arrivals {x}");
            for l in 0..BANK_LANES {
                let unconstrained = (w[l] + x - cap[l]).max(0.0);
                lost[l] += (unconstrained - bound[l]).max(0.0);
                w[l] = unconstrained.min(bound[l]);
            }
        }
        for (l, q) in chunk.iter_mut().flatten().enumerate() {
            q.workload = w[l];
            q.account.lost = lost[l];
        }
    }
}

/// Estimates the workload survival curve `P(W > B)` of an infinite-buffer
/// queue over a fixed grid of thresholds.
///
/// Implementation detail: each observation does one binary search into the
/// sorted threshold grid and bumps a histogram bucket; the survival counts
/// are recovered as suffix sums at read time — O(log T) per frame however
/// many thresholds are tracked.
#[derive(Debug, Clone)]
pub struct BopEstimator {
    thresholds: Vec<f64>,
    /// `bucket[i]` = observations with `thresholds[i-1] < W <= thresholds[i]`
    /// (bucket[0]: W <= thresholds[0]; last bucket: W beyond the top).
    buckets: Vec<u64>,
    total: u64,
}

impl BopEstimator {
    /// Creates the estimator over a strictly increasing threshold grid.
    ///
    /// # Panics
    /// Panics if the grid is empty or not strictly increasing.
    pub fn new(thresholds: Vec<f64>) -> Self {
        assert!(!thresholds.is_empty(), "no thresholds");
        assert!(
            thresholds.windows(2).all(|w| w[0] < w[1]),
            "thresholds must be strictly increasing"
        );
        let n = thresholds.len();
        Self {
            thresholds,
            buckets: vec![0; n + 1],
            total: 0,
        }
    }

    /// Records one workload observation.
    #[inline]
    pub fn observe(&mut self, workload: f64) {
        // First index whose threshold is >= workload: workload exceeds all
        // thresholds before it. An empty queue (anything at or below the
        // first threshold) is bucket 0 without a search; so is NaN, which
        // the search also puts there.
        let idx = if workload <= self.thresholds[0] {
            0
        } else {
            self.thresholds.partition_point(|&t| t < workload)
        };
        self.buckets[idx] += 1;
        self.total += 1;
    }

    /// Reconstructs an estimator from its raw histogram — the checkpoint
    /// codec's inverse of [`buckets`](Self::buckets) /
    /// [`observations`](Self::observations).
    ///
    /// # Panics
    /// Panics if the grid is invalid, `buckets.len() != thresholds.len() + 1`,
    /// or the buckets do not sum to `total`.
    pub fn from_raw(thresholds: Vec<f64>, buckets: Vec<u64>, total: u64) -> Self {
        assert!(!thresholds.is_empty(), "no thresholds");
        assert!(
            thresholds.windows(2).all(|w| w[0] < w[1]),
            "thresholds must be strictly increasing"
        );
        assert_eq!(buckets.len(), thresholds.len() + 1, "bucket count mismatch");
        assert_eq!(buckets.iter().sum::<u64>(), total, "bucket total mismatch");
        Self {
            thresholds,
            buckets,
            total,
        }
    }

    /// The threshold grid.
    pub fn thresholds(&self) -> &[f64] {
        &self.thresholds
    }

    /// The raw histogram (`thresholds.len() + 1` buckets; see the field
    /// docs for the binning convention). Exposed for checkpoint
    /// serialization.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Total observations.
    pub fn observations(&self) -> u64 {
        self.total
    }

    /// Survival estimates `P(W > thresholds[i])` (same order as the grid).
    ///
    /// Note the strict inequality: an observation exactly equal to a
    /// threshold does not count as exceeding it.
    pub fn survival(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.thresholds.len()];
        if self.total == 0 {
            return out;
        }
        // Suffix sums of buckets beyond each threshold index.
        let mut acc = 0u64;
        for i in (0..self.thresholds.len()).rev() {
            acc += self.buckets[i + 1];
            out[i] = acc as f64 / self.total as f64;
        }
        out
    }

    /// Merges another estimator with the identical grid.
    ///
    /// # Panics
    /// Panics if the grids differ.
    pub fn merge(&mut self, other: &BopEstimator) {
        assert_eq!(
            self.thresholds, other.thresholds,
            "threshold grids must match"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_loss_under_capacity() {
        let mut q = FluidQueue::finite(100.0, 50.0);
        for _ in 0..10 {
            assert_eq!(q.offer(90.0), 0.0);
        }
        assert_eq!(q.workload(), 0.0);
        assert_eq!(q.account().clr(), 0.0);
    }

    #[test]
    fn workload_accumulates_and_drains() {
        let mut q = FluidQueue::finite(100.0, 1000.0);
        q.offer(150.0); // W = 50
        assert_eq!(q.workload(), 50.0);
        q.offer(150.0); // W = 100
        assert_eq!(q.workload(), 100.0);
        q.offer(20.0); // W = 20
        assert_eq!(q.workload(), 20.0);
        q.offer(0.0); // W = 0 (clipped at zero)
        assert_eq!(q.workload(), 0.0);
    }

    #[test]
    fn loss_only_beyond_buffer() {
        let mut q = FluidQueue::finite(100.0, 30.0);
        // W + X - C = 60 > B=30: lose 30, W = 30.
        let lost = q.offer(160.0);
        assert_eq!(lost, 30.0);
        assert_eq!(q.workload(), 30.0);
        // Exactly filling the buffer loses nothing.
        let lost2 = q.offer(100.0);
        assert_eq!(lost2, 0.0);
        assert_eq!(q.workload(), 30.0);
        let acct = q.account();
        assert_eq!(acct.offered, 260.0);
        assert_eq!(acct.lost, 30.0);
        assert!((acct.clr() - 30.0 / 260.0).abs() < 1e-12);
    }

    #[test]
    fn zero_buffer_queue_is_bufferless() {
        let mut q = FluidQueue::finite(100.0, 0.0);
        assert_eq!(q.offer(130.0), 30.0);
        assert_eq!(q.workload(), 0.0);
        assert_eq!(q.offer(70.0), 0.0);
    }

    #[test]
    fn infinite_buffer_never_loses() {
        let mut q = FluidQueue::infinite(100.0);
        for _ in 0..100 {
            assert_eq!(q.offer(150.0), 0.0);
        }
        assert_eq!(q.workload(), 100.0 * 50.0);
        assert_eq!(q.account().lost, 0.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut q = FluidQueue::finite(100.0, 10.0);
        q.offer(500.0);
        q.reset();
        assert_eq!(q.workload(), 0.0);
        assert_eq!(q.account(), LossAccount::default());
    }

    #[test]
    fn conservation_offered_equals_served_plus_lost_plus_queued() {
        // Mass balance over an arbitrary arrival pattern.
        let mut q = FluidQueue::finite(100.0, 37.0);
        let arrivals = [0.0, 250.0, 80.0, 130.0, 5.0, 400.0, 0.0, 90.0];
        let mut served = 0.0;
        let mut w_prev = 0.0;
        for &x in &arrivals {
            let lost = q.offer(x);
            // served this frame = inflow - d(workload) - lost
            served += x - (q.workload() - w_prev) - lost;
            w_prev = q.workload();
        }
        let acct = q.account();
        let total: f64 = arrivals.iter().sum();
        assert!((acct.offered - total).abs() < 1e-9);
        assert!(
            (served + acct.lost + q.workload() - total).abs() < 1e-9,
            "mass balance violated"
        );
        // Served can never exceed capacity per frame count.
        assert!(served <= 100.0 * arrivals.len() as f64 + 1e-9);
    }

    #[test]
    fn offer_batch_is_bit_identical_to_scalar_offers() {
        let arrivals = [0.0, 250.0, 80.0, 130.0, 5.0, 400.0, 0.0, 90.0, 99.9];
        for make in [
            || FluidQueue::finite(100.0, 37.0),
            || FluidQueue::finite(100.0, 0.0),
            || FluidQueue::infinite(100.0),
        ] {
            let mut scalar = make();
            let mut batched = make();
            for &x in &arrivals {
                scalar.offer(x);
            }
            // Split across two batches to exercise state carry-over.
            batched.offer_batch(&arrivals[..4]);
            batched.offer_batch(&arrivals[4..]);
            assert_eq!(scalar.workload().to_bits(), batched.workload().to_bits());
            assert_eq!(
                scalar.account().offered.to_bits(),
                batched.account().offered.to_bits()
            );
            assert_eq!(
                scalar.account().lost.to_bits(),
                batched.account().lost.to_bits()
            );
        }
    }

    /// A bank of `n` queues over a grid that starts at a zero buffer and
    /// spans the typical workload, so both losing and idle lanes occur.
    fn bank(n: usize) -> Vec<FluidQueue> {
        (0..n)
            .map(|i| FluidQueue::finite(100.0, 7.0 * i as f64))
            .collect()
    }

    fn assert_same_bits(reference: &[FluidQueue], bank: &[FluidQueue]) {
        assert_eq!(reference.len(), bank.len());
        for (i, (a, b)) in reference.iter().zip(bank).enumerate() {
            assert_eq!(
                a.workload().to_bits(),
                b.workload().to_bits(),
                "workload {i}"
            );
            assert_eq!(
                a.account().offered.to_bits(),
                b.account().offered.to_bits(),
                "offered {i}"
            );
            assert_eq!(
                a.account().lost.to_bits(),
                b.account().lost.to_bits(),
                "lost {i}"
            );
        }
    }

    /// Bursty arrivals around a capacity of 100 with irrational-ish
    /// fractions, so every lane accumulates rounding.
    fn bursty(frames: usize) -> Vec<f64> {
        (0..frames)
            .map(|k| {
                let phase = (k as f64 * 0.731).sin();
                (100.0 + 90.0 * phase + (k % 7) as f64 * 1.37).max(0.0)
            })
            .collect()
    }

    #[test]
    fn offer_batch_bank_matches_per_queue_offer_batch_for_every_bank_size() {
        let arrivals = bursty(997);
        for n in [0, 1, 9, 15, 16, 17, 32, 33] {
            let mut reference = bank(n);
            for q in reference.iter_mut() {
                q.offer_batch(&arrivals);
            }
            let mut fused = bank(n);
            FluidQueue::offer_batch_bank(&mut fused, &arrivals);
            assert_same_bits(&reference, &fused);
            if n > 1 {
                // The grid really exercises loss and a zero buffer.
                assert_eq!(fused[0].buffer(), Some(0.0));
                assert!(fused[0].account().lost > 0.0, "n={n}: no loss at B=0");
            }
        }
    }

    #[test]
    fn offer_batch_bank_carries_state_across_calls_and_ignores_empty_batches() {
        let arrivals = bursty(513);
        let mut reference = bank(17);
        for q in reference.iter_mut() {
            q.offer_batch(&arrivals);
        }
        let mut fused = bank(17);
        FluidQueue::offer_batch_bank(&mut fused, &arrivals[..200]);
        FluidQueue::offer_batch_bank(&mut fused, &[]);
        FluidQueue::offer_batch_bank(&mut fused, &arrivals[200..]);
        assert_same_bits(&reference, &fused);
    }

    #[test]
    fn offer_batch_bank_handles_mixed_capacities_and_infinite_buffers() {
        let arrivals = bursty(300);
        let make = || {
            vec![
                FluidQueue::finite(90.0, 0.0),
                FluidQueue::infinite(100.0),
                FluidQueue::finite(110.0, 25.0),
                FluidQueue::finite(100.0, 0.0),
                FluidQueue::infinite(95.0),
            ]
        };
        let mut reference = make();
        for q in reference.iter_mut() {
            q.offer_batch(&arrivals);
        }
        let mut fused = make();
        FluidQueue::offer_batch_bank(&mut fused, &arrivals);
        assert_same_bits(&reference, &fused);
        assert_eq!(fused[1].account().lost, 0.0);
        assert!(fused[4].workload() > 0.0);
    }

    /// A `-0.0` buffer is stored as `+0.0`, so it loses, offers and leaves
    /// the same bits as a `0.0` buffer, per queue and in the bank. The
    /// arrivals end with loss frames between idle ones, and the bank call
    /// is split around them.
    #[test]
    fn negative_zero_buffer_is_bit_identical_to_zero_buffer() {
        assert_eq!(
            FluidQueue::finite(100.0, -0.0).buffer().map(f64::to_bits),
            Some(0.0f64.to_bits())
        );
        let mut arrivals = bursty(400);
        arrivals.extend([150.0, 10.0, 0.0, 20.0, 130.0]);
        let make = |b: f64| {
            vec![
                FluidQueue::finite(100.0, b),
                FluidQueue::finite(100.0, 7.0),
                FluidQueue::finite(100.0, b),
            ]
        };
        let mut reference = make(0.0);
        for q in reference.iter_mut() {
            q.offer_batch(&arrivals);
        }
        assert!(reference[0].account().lost > 0.0);
        for b in [0.0, -0.0] {
            let mut per_queue = make(b);
            for q in per_queue.iter_mut() {
                q.offer_batch(&arrivals);
            }
            assert_same_bits(&reference, &per_queue);
            let mut fused = make(b);
            let (head, last) = (arrivals.len() - 5, arrivals.len() - 1);
            FluidQueue::offer_batch_bank(&mut fused, &arrivals[..head]);
            assert_eq!(fused[0].workload().to_bits(), 0.0f64.to_bits());
            FluidQueue::offer_batch_bank(&mut fused, &arrivals[head..last]);
            FluidQueue::offer_batch_bank(&mut fused, &arrivals[last..]);
            assert_same_bits(&reference, &fused);
        }
    }

    #[test]
    fn offer_batch_observing_matches_scalar_interleave() {
        let arrivals = [120.0, 30.0, 300.0, 0.0, 150.0, 80.0];
        let grid = vec![10.0, 50.0, 100.0];
        let mut scalar_q = FluidQueue::infinite(100.0);
        let mut scalar_e = BopEstimator::new(grid.clone());
        for &x in &arrivals {
            scalar_q.offer(x);
            scalar_e.observe(scalar_q.workload());
        }
        let mut batch_q = FluidQueue::infinite(100.0);
        let mut batch_e = BopEstimator::new(grid);
        batch_q.offer_batch_observing(&arrivals, &mut batch_e);
        assert_eq!(scalar_q.workload().to_bits(), batch_q.workload().to_bits());
        assert_eq!(scalar_e.buckets(), batch_e.buckets());
        assert_eq!(scalar_e.observations(), batch_e.observations());
    }

    #[test]
    fn bop_estimator_counts_exceedances() {
        let mut e = BopEstimator::new(vec![10.0, 20.0, 30.0]);
        for w in [5.0, 15.0, 25.0, 35.0, 10.0] {
            e.observe(w);
        }
        // Strictly greater: 10.0 observation does not exceed threshold 10.
        let s = e.survival();
        assert!((s[0] - 3.0 / 5.0).abs() < 1e-12, "P(W>10) {s:?}");
        assert!((s[1] - 2.0 / 5.0).abs() < 1e-12);
        assert!((s[2] - 1.0 / 5.0).abs() < 1e-12);
        assert_eq!(e.observations(), 5);
    }

    #[test]
    fn bop_estimator_merge() {
        let mut a = BopEstimator::new(vec![1.0, 2.0]);
        let mut b = BopEstimator::new(vec![1.0, 2.0]);
        a.observe(1.5);
        b.observe(2.5);
        b.observe(0.5);
        a.merge(&b);
        let s = a.survival();
        assert_eq!(a.observations(), 3);
        assert!((s[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((s[1] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn bop_estimator_empty_is_zero() {
        let e = BopEstimator::new(vec![1.0]);
        assert_eq!(e.survival(), vec![0.0]);
    }

    #[test]
    #[should_panic]
    fn bop_estimator_rejects_unsorted() {
        BopEstimator::new(vec![2.0, 1.0]);
    }

    #[test]
    #[should_panic]
    fn queue_rejects_negative_buffer() {
        FluidQueue::finite(10.0, -1.0);
    }
}
