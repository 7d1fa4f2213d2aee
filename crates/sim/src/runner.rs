//! Fault-tolerant parallel replication harness.
//!
//! Reproduces the paper's measurement protocol: independent replications of
//! a multiplexer of N sources (N copies of one model, or a [`SourceMix`]),
//! CLR estimated per buffer size, replication-level Student-t confidence
//! intervals. Engineering choices worth noting:
//!
//! * **Common random numbers across buffer sizes** — every finite-buffer
//!   queue in the sweep consumes the *same* arrival stream within a
//!   replication, so CLR curves over buffer size are smooth and the
//!   between-buffer comparisons have far lower variance than independent
//!   runs (and one model advance feeds the entire sweep).
//! * **Deterministic seeding** — replication r uses the stream
//!   `root.split(r)`; results are bit-reproducible for a given `seed`
//!   regardless of thread count.
//! * **Typed failure** — nothing in this module panics on bad input or bad
//!   model output. Configuration problems, NaN/Inf/negative rates (with the
//!   offending replication, frame and seed), unusable checkpoint files and
//!   exhausted watchdog budgets all surface as [`SimError`].
//! * **Checkpoint/resume** — with a [`CheckpointPolicy`], completed
//!   replications are persisted and a killed run resumes bit-identically
//!   (see the [`checkpoint`] module).
//! * **Watchdog degradation** — with a [`Watchdog`], a run that overruns its
//!   budget returns the replications it finished, with the shortfall
//!   recorded in [`Provenance`] instead of being silently absorbed.

use crate::checkpoint::{self, CheckpointPolicy};
use crate::error::SimError;
use crate::fault;
use crate::guard::Guard;
use crate::queue::{BopEstimator, FluidQueue, LossAccount};
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use vbr_models::FrameProcess;
use vbr_obs::{span, Event, PipelineMetrics, Recorder, RunSummary, StageTable};
use vbr_stats::rng::Xoshiro256PlusPlus;
use vbr_stats::ConfidenceInterval;

/// Frames between watchdog deadline checks inside a replication. Checking
/// wall time every frame would cost a syscall per 40 ms of simulated video;
/// every 1024 frames it is noise while still bounding overrun detection to
/// well under a second of wall time.
const WATCHDOG_CHECK_FRAMES: usize = 1024;

/// Frames advanced per batch through the aggregate-arrivals buffer. Big
/// enough to amortize per-batch work (virtual dispatch, guard scans, queue
/// state loads) to noise, small enough that the buffer stays cache-resident
/// (4096 × 8 B = 32 KiB). Runs with a replication deadline clamp the batch
/// to [`WATCHDOG_CHECK_FRAMES`] to keep the scalar loop's timeout
/// granularity.
const BATCH_FRAMES: usize = 4096;

/// Configuration of one CLR experiment.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of multiplexed homogeneous sources (the paper uses N = 30);
    /// [`run_mix`] replaces it with the mix total.
    pub n_sources: usize,
    /// Per-source bandwidth c (cells/frame); total capacity is `N·c`.
    pub capacity_per_source: f64,
    /// Total buffer sizes B (cells), strictly increasing; CLR is measured
    /// for all of them simultaneously.
    pub buffers_total: Vec<f64>,
    /// Measured frames per replication (post-warmup).
    pub frames_per_replication: usize,
    /// Warm-up frames discarded from the loss accounts (queues keep their
    /// workload so the measured window starts near steady state).
    pub warmup_frames: usize,
    /// Number of independent replications (the paper uses 60).
    pub replications: usize,
    /// Root RNG seed.
    pub seed: u64,
    /// Frame duration in seconds (0.04 in the paper).
    pub ts: f64,
    /// Also track the infinite-buffer workload survival curve over the
    /// `buffers_total` grid (for BOP-vs-asymptotics comparisons, Fig. 10).
    pub track_bop: bool,
}

impl SimConfig {
    /// The paper's canonical setting: N = 30, c = 538 cells/frame,
    /// T_s = 40 ms. Buffer grid, length and replications are caller-chosen.
    pub fn paper_defaults(buffers_total: Vec<f64>, frames: usize, replications: usize) -> Self {
        Self {
            n_sources: 30,
            capacity_per_source: 538.0,
            buffers_total,
            frames_per_replication: frames,
            warmup_frames: frames / 20,
            replications,
            seed: 0x5EED_CAFE,
            ts: 0.04,
            track_bop: false,
        }
    }

    /// Checks every field, reporting the first violation as
    /// [`SimError::InvalidConfig`] instead of panicking — a malformed config
    /// must not take down a fleet runner that manages many experiments.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.n_sources < 1 {
            return Err(SimError::invalid_config("n_sources", "need at least one source"));
        }
        if !(self.capacity_per_source > 0.0 && self.capacity_per_source.is_finite()) {
            return Err(SimError::invalid_config(
                "capacity_per_source",
                format!("invalid capacity {}", self.capacity_per_source),
            ));
        }
        if self.buffers_total.is_empty() {
            return Err(SimError::invalid_config("buffers_total", "no buffer sizes"));
        }
        if let Some(&bad) = self
            .buffers_total
            .iter()
            .find(|b| !(b.is_finite() && **b >= 0.0))
        {
            return Err(SimError::invalid_config(
                "buffers_total",
                format!("invalid buffer size {bad}"),
            ));
        }
        if !self.buffers_total.windows(2).all(|w| w[0] < w[1]) {
            return Err(SimError::invalid_config(
                "buffers_total",
                "buffer grid must be strictly increasing",
            ));
        }
        if self.frames_per_replication == 0 {
            return Err(SimError::invalid_config(
                "frames_per_replication",
                "zero-length replication",
            ));
        }
        if self.warmup_frames >= self.frames_per_replication {
            return Err(SimError::invalid_config(
                "warmup_frames",
                format!(
                    "warmup ({}) must be shorter than the measured window ({})",
                    self.warmup_frames, self.frames_per_replication
                ),
            ));
        }
        if self.replications < 1 {
            return Err(SimError::invalid_config(
                "replications",
                "need at least one replication",
            ));
        }
        if !(self.ts > 0.0 && self.ts.is_finite()) {
            return Err(SimError::invalid_config(
                "ts",
                format!("invalid frame duration {}", self.ts),
            ));
        }
        Ok(())
    }

    /// Total capacity `N·c` (cells/frame).
    pub fn total_capacity(&self) -> f64 {
        self.n_sources as f64 * self.capacity_per_source
    }

    /// Buffer size expressed as maximum queueing delay (msec).
    pub fn buffer_ms(&self, buffer_total: f64) -> f64 {
        buffer_total / self.total_capacity() * self.ts * 1e3
    }
}

/// Wall-clock guardrails for a run. `Default` disables both (no overhead).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Watchdog {
    /// Per-replication frame-progress deadline: a replication still running
    /// after this much wall time is abandoned (counted in
    /// [`Provenance::timed_out`]) and the harness moves on.
    pub replication_deadline: Option<Duration>,
    /// Run-level budget: once exceeded, no *new* replication starts — except
    /// that the run always finishes at least one replication if it can, so
    /// there is a result to degrade to.
    pub run_budget: Option<Duration>,
}

/// Execution options for [`run`] / [`run_mix`].
#[derive(Clone, Default)]
pub struct RunOptions {
    /// Persist completed replications and resume from them.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Wall-clock guardrails.
    pub watchdog: Watchdog,
    /// Worker-thread cap (None = available parallelism). Results are
    /// identical for any thread count; this only bounds resource use — and,
    /// together with `watchdog.run_budget`, controls how many replications a
    /// degraded run completes.
    pub threads: Option<usize>,
    /// Telemetry sink. When set, the run emits [`Event`]s (replication
    /// start/end, checkpoints, guard trips, watchdog actions), streams
    /// pipeline metrics at batch granularity, times the instrumented stages,
    /// and delivers a [`RunSummary`] at run end. Never touches an RNG:
    /// results are bit-identical with or without a recorder.
    pub recorder: Option<Arc<dyn Recorder>>,
    /// Restrict the run to this half-open range of replication indices — a
    /// campaign **shard**. Replication `r` is always seeded `root.split(r)`,
    /// so shards computed in separate processes union bit-identically into
    /// the full run. `None` = all of `0..config.replications`. Provenance
    /// (`requested`) counts the range, not the config total.
    pub replication_range: Option<std::ops::Range<usize>>,
    /// Emit [`Event::Heartbeat`] at most once per this interval per worker
    /// thread while a replication computes, so an external supervisor can
    /// tell a slow replication from a hung one. `None` (default) = no
    /// heartbeats. Requires a recorder to have any effect.
    pub heartbeat: Option<Duration>,
}

impl std::fmt::Debug for RunOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOptions")
            .field("checkpoint", &self.checkpoint)
            .field("watchdog", &self.watchdog)
            .field("threads", &self.threads)
            .field("recorder", &self.recorder.as_ref().map(|_| "Recorder"))
            .field("replication_range", &self.replication_range)
            .field("heartbeat", &self.heartbeat)
            .finish()
    }
}

impl RunOptions {
    /// The replication indices this run computes: the configured shard
    /// range, or all of `0..config.replications`.
    pub(crate) fn range(&self, config: &SimConfig) -> std::ops::Range<usize> {
        self.replication_range
            .clone()
            .unwrap_or(0..config.replications)
    }

    /// Validates the shard range against the config.
    fn validate_range(&self, config: &SimConfig) -> Result<(), SimError> {
        if let Some(r) = &self.replication_range {
            if r.start >= r.end {
                return Err(SimError::invalid_config(
                    "replication_range",
                    format!("empty range {}..{}", r.start, r.end),
                ));
            }
            if r.end > config.replications {
                return Err(SimError::invalid_config(
                    "replication_range",
                    format!(
                        "range {}..{} exceeds config.replications = {}",
                        r.start, r.end, config.replications
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// Per-run observability context: the recorder plus the live metrics and
/// stage-timing accumulators. Built once per run iff a recorder is
/// configured — every instrumentation point in the harness is gated on
/// `Option<&ObsCtx>` being `Some`, so a recorder-less run pays one branch.
struct ObsCtx {
    recorder: Arc<dyn Recorder>,
    metrics: PipelineMetrics,
    stages: Mutex<StageTable>,
    t0: Instant,
}

impl ObsCtx {
    fn new(recorder: Arc<dyn Recorder>) -> Self {
        Self {
            recorder,
            metrics: PipelineMetrics::default(),
            stages: Mutex::new(StageTable::default()),
            t0: Instant::now(),
        }
    }

    fn emit(&self, event: Event) {
        self.recorder.record(&event);
    }

    /// Merges the current thread's drained span table into the run's table.
    fn merge_spans(&self) {
        let table = span::drain();
        if !table.is_empty() {
            self.stages
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .merge(&table);
        }
    }
}

/// How a run's results relate to what was asked for — the `completed /
/// requested` record that keeps a degraded run honest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Provenance {
    /// Replications the configuration asked for.
    pub requested: usize,
    /// Replications whose results are included in the estimates.
    pub completed: usize,
    /// Replications abandoned by the per-replication deadline.
    pub timed_out: usize,
    /// Of the completed, how many were loaded from a checkpoint.
    pub resumed: usize,
    /// True if the run-level budget expired before all replications ran.
    pub budget_exhausted: bool,
}

impl Provenance {
    /// True if the estimates cover fewer replications than requested.
    pub fn is_partial(&self) -> bool {
        self.completed < self.requested
    }
}

/// CLR estimate at one buffer size.
#[derive(Debug, Clone)]
pub struct ClrEstimate {
    /// Total buffer B (cells).
    pub buffer_total: f64,
    /// B as maximum delay (msec).
    pub buffer_ms: f64,
    /// Student-t interval of the per-replication CLRs.
    pub clr: ConfidenceInterval,
    /// Pooled loss account across all replications (the pooled-ratio CLR
    /// `lost/offered` is the preferred point estimate at very low loss).
    pub pooled: LossAccount,
}

/// Full outcome of a CLR experiment.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// One estimate per configured buffer size, in grid order.
    pub per_buffer: Vec<ClrEstimate>,
    /// Infinite-buffer survival curve `P(W > B)` over the buffer grid, if
    /// requested.
    pub bop: Option<Vec<(f64, f64)>>,
    /// Total measured frames across the *completed* replications.
    pub frames_total: u64,
    /// Completed/requested accounting; check [`Provenance::is_partial`]
    /// before treating the estimates as the full protocol.
    pub provenance: Provenance,
}

/// One completed replication. `pub(crate)` so the checkpoint codec can
/// persist and restore it.
#[derive(Debug, Clone)]
pub(crate) struct RepResult {
    pub(crate) accounts: Vec<LossAccount>,
    pub(crate) clrs: Vec<f64>,
    pub(crate) bop: Option<BopEstimator>,
}

impl RepResult {
    /// Rebuilds a result from its persisted accounts (CLRs are re-derived —
    /// `lost/offered` is the same computation the live path ran, so the
    /// round-trip is bit-exact).
    pub(crate) fn from_accounts(accounts: Vec<LossAccount>, bop: Option<BopEstimator>) -> Self {
        let clrs = accounts.iter().map(|a| a.clr()).collect();
        Self {
            accounts,
            clrs,
            bop,
        }
    }
}

/// Why a single replication did not produce a result.
enum RepFailure {
    /// Numeric fault or other fatal error: the whole run must stop.
    Fatal(SimError),
    /// The per-replication deadline expired; degradable.
    TimedOut,
}

/// A source mix: `count` copies of each prototype. A homogeneous run is the
/// one-group mix `(prototype, config.n_sources)`. The runner overrides the
/// config's `n_sources` with the mix total, so `capacity_per_source` scales
/// by that total: the link carries `total() · capacity_per_source`.
pub struct SourceMix<'a> {
    /// (prototype, how many copies) pairs.
    pub groups: Vec<(&'a dyn FrameProcess, usize)>,
}

impl<'a> SourceMix<'a> {
    /// Builds a mix; rejects an empty mix (zero total sources).
    pub fn new(groups: Vec<(&'a dyn FrameProcess, usize)>) -> Result<Self, SimError> {
        if groups.iter().map(|&(_, n)| n).sum::<usize>() == 0 {
            return Err(SimError::invalid_config(
                "mix",
                "mix needs at least one source",
            ));
        }
        Ok(Self { groups })
    }

    /// Total number of sources.
    pub fn total(&self) -> usize {
        self.groups.iter().map(|&(_, n)| n).sum()
    }

    /// Aggregate mean rate (cells/frame).
    pub fn mean(&self) -> f64 {
        self.groups
            .iter()
            .map(|&(p, n)| p.mean() * n as f64)
            .sum()
    }

    /// One owned copy of every prototype, for one worker thread:
    /// `FrameProcess` is `Send` but not `Sync`, so workers cannot share the
    /// borrowed prototypes.
    fn to_owned_groups(&self) -> Vec<(Box<dyn FrameProcess>, usize)> {
        self.groups
            .iter()
            .map(|&(proto, n)| (proto.boxed_clone(), n))
            .collect()
    }
}

/// The sources of one replication: `count` clones of each group's
/// prototype, in group order (which fixes each source's index in fault
/// reports).
fn instantiate(groups: &[(Box<dyn FrameProcess>, usize)]) -> Vec<Box<dyn FrameProcess>> {
    groups
        .iter()
        .flat_map(|(proto, n)| (0..*n).map(|_| proto.boxed_clone()))
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn run_replication_sources(
    mut sources: Vec<Box<dyn FrameProcess>>,
    config: &SimConfig,
    rep: usize,
    root: &Xoshiro256PlusPlus,
    watchdog: &Watchdog,
    heartbeat: Option<Duration>,
    obs: Option<&ObsCtx>,
) -> Result<RepResult, RepFailure> {
    let _rep_span = span!("replication");
    let mut rng = root.split(rep as u64);
    for s in sources.iter_mut() {
        s.reset(&mut rng);
    }

    let total_capacity = config.total_capacity();
    let mut queues: Vec<FluidQueue> = config
        .buffers_total
        .iter()
        .map(|&b| FluidQueue::finite(total_capacity, b))
        .collect();
    let mut infinite = config.track_bop.then(|| {
        (
            FluidQueue::infinite(total_capacity),
            BopEstimator::new(config.buffers_total.clone()),
        )
    });

    let mut guard = Guard::new(rep, config.seed);
    if let Some(o) = obs {
        guard = guard.with_trip_counters(o.metrics.guard_trips.clone());
    }
    let started = watchdog.replication_deadline.map(|d| (Instant::now(), d));
    let total_frames = config.warmup_frames + config.frames_per_replication;

    // Block-oriented hot loop: advance the sources a whole batch of frames
    // into one aggregate-arrivals buffer, offer it to the whole finite-buffer
    // bank in one call (`offer_batch_bank`), scan every queue with the
    // guard, and run the infinite-buffer BOP queue. The bank follows one
    // reference lane (the infinite-buffer recursion) and steps a buffer
    // only while that lane is above it, so at the paper's loads, where the
    // queue is empty in almost every frame, the sweep costs about one
    // serial recursion per frame however many buffers the grid has.
    // Results are bit-identical to the per-frame loop: sources draw from
    // the shared stream in the same order, and every queue ends with the
    // bits its own `offer_batch` would give. The batch form only hoists
    // dispatch, guard checks and queue state off the per-frame path.
    // Heartbeats, like the watchdog, need the loop to come up for air often
    // enough to notice the clock.
    let max_batch = if started.is_some() || (heartbeat.is_some() && obs.is_some()) {
        WATCHDOG_CHECK_FRAMES
    } else {
        BATCH_FRAMES
    };
    let mut last_beat = Instant::now();
    let mut aggregate = vec![0.0; max_batch.min(total_frames.max(1))];
    let mut frame = 0usize;
    while frame < total_frames {
        if frame == config.warmup_frames {
            for q in queues.iter_mut() {
                q.clear_accounts();
            }
        }
        if let Some((t0, deadline)) = started {
            if t0.elapsed() > deadline {
                return Err(RepFailure::TimedOut);
            }
        }
        // A batch never crosses the warmup/measurement boundary, so the
        // account clearing and the BOP warmup gate stay batch-level
        // decisions.
        let end = if frame < config.warmup_frames {
            (frame + max_batch).min(config.warmup_frames)
        } else {
            (frame + max_batch).min(total_frames)
        };
        let batch = &mut aggregate[..end - frame];
        // Batch wall time is only clocked when a recorder is attached — the
        // Instant reads stay off the recorder-less path entirely.
        let batch_t0 = obs.map(|_| Instant::now());
        {
            let _s = span!("generate");
            fill_aggregate_batch(&mut sources, &mut rng, &guard, batch)
                .map_err(RepFailure::Fatal)?;
        }
        {
            let _s = span!("queue.sweep");
            FluidQueue::offer_batch_bank(&mut queues, batch);
            for (i, q) in queues.iter().enumerate() {
                guard.check_queue(i, q).map_err(RepFailure::Fatal)?;
            }
            if let Some((q, est)) = infinite.as_mut() {
                if frame >= config.warmup_frames {
                    q.offer_batch_observing(batch, est);
                } else {
                    q.offer_batch(batch);
                }
            }
        }
        if let Some(o) = obs {
            o.metrics.frames.add(batch.len() as u64);
            o.metrics.batches.add(1);
            for q in queues.iter() {
                o.metrics.queue_depth.record(q.workload());
            }
            if let Some(t0) = batch_t0 {
                o.metrics.batch_ns.record(t0.elapsed().as_nanos() as f64);
            }
        }
        guard.advance_by(batch.len() as u64);
        frame = end;
        if let (Some(interval), Some(o)) = (heartbeat, obs) {
            if last_beat.elapsed() >= interval {
                o.emit(Event::Heartbeat {
                    replication: rep,
                    frame: frame as u64,
                });
                last_beat = Instant::now();
            }
        }
    }

    let accounts: Vec<LossAccount> = queues.iter().map(|q| q.account()).collect();
    Ok(RepResult::from_accounts(
        accounts,
        infinite.map(|(_, est)| est),
    ))
}

/// Advances every source through one batch, validating outputs and writing
/// the per-frame aggregates into `batch`.
///
/// Sources draw from the shared replication stream in the scalar path's
/// exact order — frame-major, then source — because the runner's common
/// random numbers are interleaved across sources; handing each source a
/// whole sub-batch would reorder the draws. Only the single-source case can
/// therefore use [`FrameProcess::fill_frames`] directly: a run of one
/// source, such as a replayed aggregate trace (`TraceProcess`). The paper's
/// own configuration, N = 30 sources per mux, never reaches it — `run`
/// clones the prototype once per source, so Figs 8–10 take the per-frame
/// interleave below, where generation is ~99.9% of replication time
/// (batching it needs per-source RNG substreams, a draw-order change). The
/// multi-source path keeps the per-source validity check inline so a bad
/// value is still attributed to its exact source and frame before any later
/// draw is examined.
fn fill_aggregate_batch(
    sources: &mut [Box<dyn FrameProcess>],
    rng: &mut Xoshiro256PlusPlus,
    guard: &Guard,
    batch: &mut [f64],
) -> Result<(), SimError> {
    use crate::error::FaultSite;

    if let [source] = sources {
        source.fill_frames(batch, rng);
        return guard.check_batch(batch, FaultSite::Source(0));
    }
    for (offset, slot) in batch.iter_mut().enumerate() {
        let mut aggregate = 0.0;
        for (i, s) in sources.iter_mut().enumerate() {
            aggregate += guard.check_source_at(offset as u64, i, s.next_frame(rng))?;
        }
        *slot = aggregate;
    }
    // Summing finite non-negatives can only overflow to +inf; one scan per
    // batch replaces the scalar loop's per-frame aggregate check and
    // reports the same site and frame.
    guard.check_batch(batch, FaultSite::Aggregate)
}

/// Shared mutable state of a run: completed results plus checkpoint
/// bookkeeping (new completions since the last persisted write).
struct RunState {
    completed: BTreeMap<usize, RepResult>,
    unsaved: usize,
}

/// Handles one replication outcome against the shared state; returns an
/// error only for fatal conditions (numeric fault, checkpoint write
/// failure). With a recorder attached, this is where the per-replication
/// events and metrics land: completion (duration, CLR, cell accounting),
/// progress heartbeats, checkpoint saves, watchdog timeouts and guard trips.
#[allow(clippy::too_many_arguments)]
fn absorb(
    state: &Mutex<RunState>,
    options: &RunOptions,
    config: &SimConfig,
    rep: usize,
    outcome: Result<RepResult, RepFailure>,
    timed_out: &AtomicUsize,
    obs: Option<&ObsCtx>,
    rep_elapsed: Duration,
) -> Result<(), SimError> {
    match outcome {
        Ok(result) => {
            if let Some(o) = obs {
                o.metrics.replications_completed.add(1);
                o.metrics
                    .observe_replication_seconds(rep_elapsed.as_secs_f64());
                let a0 = &result.accounts[0];
                o.metrics.cells_offered.add(a0.offered);
                o.metrics.cells_lost_b0.add(a0.lost);
                o.emit(Event::ReplicationEnd {
                    replication: rep,
                    seed: config.seed,
                    frames: (config.warmup_frames + config.frames_per_replication) as u64,
                    duration_ns: rep_elapsed.as_nanos() as u64,
                    clr_b0: a0.clr(),
                });
            }
            let mut state = state.lock().unwrap_or_else(|e| e.into_inner());
            state.completed.insert(rep, result);
            state.unsaved += 1;
            if let Some(o) = obs {
                o.emit(Event::Progress {
                    completed: state.completed.len(),
                    requested: options.range(config).len(),
                });
            }
            if let Some(policy) = &options.checkpoint {
                if state.unsaved >= policy.every.max(1) {
                    let fingerprint = checkpoint::save(policy, config, &state.completed)?;
                    state.unsaved = 0;
                    if let Some(o) = obs {
                        o.metrics.checkpoint_saves.add(1);
                        o.emit(Event::CheckpointSaved {
                            path: policy.path.display().to_string(),
                            replications: state.completed.len(),
                            fingerprint,
                        });
                    }
                }
            }
            Ok(())
        }
        Err(RepFailure::TimedOut) => {
            timed_out.fetch_add(1, Ordering::Relaxed);
            if let Some(o) = obs {
                o.metrics.replications_timed_out.add(1);
                o.emit(Event::WatchdogTimeout {
                    replication: rep,
                    seed: config.seed,
                });
            }
            Ok(())
        }
        Err(RepFailure::Fatal(e)) => {
            if let Some(o) = obs {
                if let SimError::NumericFault(f) = &e {
                    o.emit(Event::GuardTrip {
                        replication: f.replication,
                        frame: f.frame,
                        seed: f.seed,
                        site: f.site.to_string(),
                        value: f.value,
                    });
                }
            }
            Err(e)
        }
    }
}

/// Runs the experiment for `config.n_sources` copies of `prototype`: the
/// one-group [`SourceMix`] through [`run_mix`], with full fault tolerance
/// (validation, numeric guardrails, optional checkpoint/resume and watchdog
/// degradation), fanning replications across threads.
///
/// Deterministic for a fixed `config.seed` independent of thread count; a
/// resumed run is bit-identical to an uninterrupted one.
pub fn run(
    prototype: &dyn FrameProcess,
    config: &SimConfig,
    options: &RunOptions,
) -> Result<SimOutcome, SimError> {
    // Built directly rather than through `SourceMix::new`, so a zero
    // `n_sources` is reported against that field by `SimConfig::validate`.
    let mix = SourceMix {
        groups: vec![(prototype, config.n_sources)],
    };
    run_mix(&mix, config, options)
}

/// Runs a CLR experiment for a mix of sources — e.g. the real CAC situation
/// where DAR-modelled videoconference sources share a link with LRD movie
/// sources — with full fault tolerance, fanning replications across
/// threads. `config.n_sources` is overridden by the mix total, so the link
/// capacity is `mix.total() · config.capacity_per_source`.
///
/// Every replication instantiates the mix afresh and draws from
/// `root.split(r)`, so results are bit-identical for any thread count and
/// across checkpoint resume.
pub fn run_mix(
    mix: &SourceMix<'_>,
    config: &SimConfig,
    options: &RunOptions,
) -> Result<SimOutcome, SimError> {
    let mut config = config.clone();
    config.n_sources = mix.total();
    let config = &config;
    config.validate()?;
    options.validate_range(config)?;
    let range = options.range(config);
    let fault_plan = fault::FaultPlan::from_env();
    let root = Xoshiro256PlusPlus::from_seed_u64(config.seed);
    let obs = options.recorder.clone().map(ObsCtx::new);
    if let Some(o) = &obs {
        // `replications` counts what this process runs: the shard range.
        o.emit(Event::RunStart {
            seed: config.seed,
            replications: range.len(),
            n_sources: config.n_sources,
            frames_per_replication: config.frames_per_replication,
            buffers: config.buffers_total.len(),
        });
    }

    // Resume: load completed replications, degrading through the fallback
    // chain (primary → rotated `.prev` → fresh) if the primary is corrupt.
    let resumed: BTreeMap<usize, RepResult> = match &options.checkpoint {
        Some(policy) => {
            let (results, fallback) = checkpoint::load_with_fallback(&policy.path, config)?;
            if let (Some(o), Some(fb)) = (&obs, &fallback) {
                o.emit(Event::CheckpointFallback {
                    path: policy.path.display().to_string(),
                    error: fb.error.clone(),
                    recovered: fb.recovered,
                });
            }
            results
                .into_iter()
                .filter(|(rep, _)| range.contains(rep))
                .collect()
        }
        _ => BTreeMap::new(),
    };
    let n_resumed = resumed.len();
    if n_resumed > 0 {
        if let (Some(o), Some(policy)) = (&obs, &options.checkpoint) {
            o.emit(Event::CheckpointResumed {
                path: policy.path.display().to_string(),
                replications: n_resumed,
                fingerprint: checkpoint::config_fingerprint(config),
            });
        }
    }
    let remaining: Vec<usize> = range.clone().filter(|r| !resumed.contains_key(r)).collect();

    let state = Mutex::new(RunState {
        completed: resumed,
        unsaved: 0,
    });
    let timed_out = AtomicUsize::new(0);
    let budget_hit = AtomicBool::new(false);
    let fatal: Mutex<Option<SimError>> = Mutex::new(None);
    let stop = AtomicBool::new(false);
    let next = AtomicUsize::new(0);
    let run_start = Instant::now();

    let threads = options
        .threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        })
        .clamp(1, remaining.len().max(1));

    let worker = |groups: Vec<(Box<dyn FrameProcess>, usize)>| {
        // Each worker thread collects its own span timings; the tables merge
        // into the run's table when the worker drains out.
        if obs.is_some() {
            span::install();
        }
        loop {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            // Budget check: never starve the run of its first result — a
            // degraded run must still have something to report.
            if let Some(budget) = options.watchdog.run_budget {
                if run_start.elapsed() > budget {
                    let have_one = {
                        let state = state.lock().unwrap_or_else(|e| e.into_inner());
                        !state.completed.is_empty()
                    };
                    if have_one {
                        budget_hit.store(true, Ordering::Relaxed);
                        break;
                    }
                }
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(&rep) = remaining.get(i) else { break };
            if let Some(o) = &obs {
                o.emit(Event::ReplicationStart {
                    replication: rep,
                    seed: config.seed,
                });
            }
            // Chaos hook: a configured fault (VBR_FAULT) fires here, after
            // the start event is flushed — the supervisor sees exactly which
            // replication the worker died on.
            fault_plan.maybe_trigger(rep, options.checkpoint.as_ref().map(|p| p.path.as_path()));
            let rep_t0 = Instant::now();
            let outcome = run_replication_sources(
                instantiate(&groups),
                config,
                rep,
                &root,
                &options.watchdog,
                options.heartbeat,
                obs.as_ref(),
            );
            if let Err(e) = absorb(
                &state,
                options,
                config,
                rep,
                outcome,
                &timed_out,
                obs.as_ref(),
                rep_t0.elapsed(),
            ) {
                let mut slot = fatal.lock().unwrap_or_else(|p| p.into_inner());
                slot.get_or_insert(e);
                stop.store(true, Ordering::Relaxed);
                break;
            }
        }
        if let Some(o) = &obs {
            o.merge_spans();
        }
    };

    if threads <= 1 || remaining.len() <= 1 {
        worker(mix.to_owned_groups());
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let groups = mix.to_owned_groups();
                scope.spawn(|| worker(groups));
            }
        });
    }

    if let Some(e) = fatal.lock().unwrap_or_else(|p| p.into_inner()).take() {
        return Err(e);
    }

    let state = state.into_inner().unwrap_or_else(|p| p.into_inner());
    finish(config, options, state, &timed_out, &budget_hit, n_resumed, obs)
}

/// Final checkpoint write, degradation accounting and outcome assembly.
/// With a recorder attached, also where the terminal events
/// (`budget_exhausted`, `run_end`) fire and the [`RunSummary`] — metrics
/// snapshot plus merged stage table — is delivered to the sinks.
#[allow(clippy::too_many_arguments)]
fn finish(
    config: &SimConfig,
    options: &RunOptions,
    state: RunState,
    timed_out: &AtomicUsize,
    budget_hit: &AtomicBool,
    resumed: usize,
    obs: Option<ObsCtx>,
) -> Result<SimOutcome, SimError> {
    let timed_out = timed_out.load(Ordering::Relaxed);
    let requested = options.range(config).len();
    if state.completed.is_empty() {
        return Err(SimError::NoCompletedReplications {
            requested,
            timed_out,
            budget: options.watchdog.run_budget,
        });
    }
    if state.unsaved > 0 {
        if let Some(policy) = &options.checkpoint {
            let fingerprint = checkpoint::save(policy, config, &state.completed)?;
            if let Some(o) = &obs {
                o.metrics.checkpoint_saves.add(1);
                o.emit(Event::CheckpointSaved {
                    path: policy.path.display().to_string(),
                    replications: state.completed.len(),
                    fingerprint,
                });
            }
        }
    }
    let provenance = Provenance {
        requested,
        completed: state.completed.len(),
        timed_out,
        resumed,
        budget_exhausted: budget_hit.load(Ordering::Relaxed),
    };
    if let Some(o) = obs {
        let wall = o.t0.elapsed();
        if provenance.budget_exhausted {
            o.emit(Event::BudgetExhausted {
                completed: provenance.completed,
                requested: provenance.requested,
            });
        }
        o.emit(Event::RunEnd {
            requested: provenance.requested,
            completed: provenance.completed,
            timed_out: provenance.timed_out,
            resumed: provenance.resumed,
            budget_exhausted: provenance.budget_exhausted,
            duration_ns: wall.as_nanos() as u64,
        });
        o.metrics
            .cells_per_sec
            .set(o.metrics.cells_offered.get() / wall.as_secs_f64().max(1e-9));
        let stages = o
            .stages
            .into_inner()
            .unwrap_or_else(|e| e.into_inner());
        let summary = RunSummary {
            requested: provenance.requested,
            completed: provenance.completed,
            timed_out: provenance.timed_out,
            resumed: provenance.resumed,
            budget_exhausted: provenance.budget_exhausted,
            wall,
            metrics: o.metrics.snapshot(),
            stages,
        };
        o.recorder.finish(&summary);
    }
    Ok(collect_outcome(config, &state.completed, provenance))
}

/// Runs the experiment, fanning replications across threads.
///
/// Deterministic for a fixed `config.seed` independent of thread count.
/// Equivalent to [`run`] with default [`RunOptions`] (no checkpointing, no
/// watchdog).
pub fn simulate_clr(
    prototype: &dyn FrameProcess,
    config: &SimConfig,
) -> Result<SimOutcome, SimError> {
    run(prototype, config, &RunOptions::default())
}

/// Heterogeneous-mix counterpart of [`simulate_clr`]; see [`run_mix`].
pub fn simulate_clr_mix(mix: &SourceMix<'_>, config: &SimConfig) -> Result<SimOutcome, SimError> {
    run_mix(mix, config, &RunOptions::default())
}

/// Assembles the outcome from a completed replication set. `pub(crate)` so
/// the campaign merge can pool per-shard checkpoint results through the
/// *same* computation a single-process run uses — pooling is a union of
/// per-replication accounts, never an average of per-shard averages, which
/// is what makes the merged CLR bit-identical.
pub(crate) fn collect_outcome(
    config: &SimConfig,
    results: &BTreeMap<usize, RepResult>,
    provenance: Provenance,
) -> SimOutcome {
    debug_assert_eq!(results.len(), provenance.completed);
    let per_buffer = (0..config.buffers_total.len())
        .map(|i| {
            let clr_samples: Vec<f64> = results.values().map(|r| r.clrs[i]).collect();
            let mut pooled = LossAccount::default();
            for r in results.values() {
                pooled.merge(&r.accounts[i]);
            }
            ClrEstimate {
                buffer_total: config.buffers_total[i],
                buffer_ms: config.buffer_ms(config.buffers_total[i]),
                clr: ConfidenceInterval::from_samples(&clr_samples, 0.95),
                pooled,
            }
        })
        .collect();

    let bop = config.track_bop.then(|| {
        let mut merged: Option<BopEstimator> = None;
        for est in results.values().filter_map(|r| r.bop.as_ref()) {
            match merged.as_mut() {
                Some(m) => m.merge(est),
                None => merged = Some(est.clone()),
            }
        }
        match merged {
            Some(merged) => merged
                .thresholds()
                .iter()
                .copied()
                .zip(merged.survival())
                .collect(),
            None => Vec::new(),
        }
    });

    SimOutcome {
        per_buffer,
        bop,
        frames_total: (results.len() * config.frames_per_replication) as u64,
        provenance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;
    use vbr_models::{GaussianAr1, IidProcess, Marginal};

    fn quick_config(buffers: Vec<f64>) -> SimConfig {
        SimConfig {
            n_sources: 30,
            capacity_per_source: 538.0,
            buffers_total: buffers,
            frames_per_replication: 20_000,
            warmup_frames: 500,
            replications: 4,
            seed: 7,
            ts: 0.04,
            track_bop: false,
        }
    }

    #[test]
    fn zero_buffer_clr_matches_gaussian_overshoot() {
        // The paper's anchor: all models share CLR ~ 1.1e-5 at zero buffer.
        let proto = IidProcess::new(Marginal::paper_gaussian());
        let mut cfg = quick_config(vec![0.0]);
        cfg.frames_per_replication = 300_000;
        cfg.replications = 8;
        let out = simulate_clr(&proto, &cfg).expect("valid run");
        let clr = out.per_buffer[0].pooled.clr();
        assert!(
            clr > 4e-6 && clr < 3e-5,
            "zero-buffer CLR {clr:e} should be near 1.1e-5"
        );
        assert!(!out.provenance.is_partial());
    }

    #[test]
    fn clr_decreases_with_buffer() {
        let proto = GaussianAr1::new(500.0, 5000.0_f64.sqrt(), 0.9);
        let out =
            simulate_clr(&proto, &quick_config(vec![0.0, 500.0, 2000.0])).expect("valid run");
        let clrs: Vec<f64> = out.per_buffer.iter().map(|e| e.pooled.clr()).collect();
        assert!(
            clrs[0] >= clrs[1] && clrs[1] >= clrs[2],
            "CLR must fall with buffer: {clrs:?}"
        );
        assert!(clrs[0] > 0.0, "zero buffer must lose something");
    }

    #[test]
    fn deterministic_given_seed() {
        let proto = GaussianAr1::new(500.0, 70.0, 0.8);
        let mut cfg = quick_config(vec![100.0]);
        cfg.frames_per_replication = 5_000;
        let a = simulate_clr(&proto, &cfg).expect("valid run");
        let b = simulate_clr(&proto, &cfg).expect("valid run");
        assert_eq!(
            a.per_buffer[0].pooled,
            b.per_buffer[0].pooled,
            "same seed must reproduce exactly"
        );
    }

    #[test]
    fn thread_cap_does_not_change_results() {
        let proto = GaussianAr1::new(500.0, 70.0, 0.8);
        let mut cfg = quick_config(vec![100.0]);
        cfg.frames_per_replication = 3_000;
        let seq = run(
            &proto,
            &cfg,
            &RunOptions {
                threads: Some(1),
                ..RunOptions::default()
            },
        )
        .expect("sequential");
        let par = run(
            &proto,
            &cfg,
            &RunOptions {
                threads: Some(4),
                ..RunOptions::default()
            },
        )
        .expect("parallel");
        assert_eq!(seq.per_buffer[0].pooled, par.per_buffer[0].pooled);
        assert_eq!(seq.per_buffer[0].clr.mean, par.per_buffer[0].clr.mean);
    }

    #[test]
    fn buffer_ms_conversion() {
        let cfg = quick_config(vec![807.0]);
        // B = 807 cells at 16140 cells/frame and 40 ms frames -> 2 ms.
        assert!((cfg.buffer_ms(807.0) - 2.0).abs() < 1e-9);
        let out = simulate_clr(&GaussianAr1::new(500.0, 70.0, 0.5), &cfg).expect("valid run");
        assert!((out.per_buffer[0].buffer_ms - 2.0).abs() < 1e-9);
    }

    #[test]
    fn bop_tracking_produces_monotone_survival() {
        let proto = GaussianAr1::new(500.0, 70.0, 0.9);
        let mut cfg = quick_config(vec![1.0, 200.0, 800.0, 2000.0]);
        cfg.track_bop = true;
        let out = simulate_clr(&proto, &cfg).expect("valid run");
        let bop = out.bop.expect("tracked");
        assert_eq!(bop.len(), 4);
        for w in bop.windows(2) {
            assert!(w[1].1 <= w[0].1, "survival must decrease: {bop:?}");
        }
        assert!(bop[0].1 > 0.0, "some mass above the smallest threshold");
    }

    #[test]
    fn confidence_interval_shrinks_with_replications() {
        let proto = GaussianAr1::new(500.0, 70.0, 0.9);
        let mut small = quick_config(vec![100.0]);
        small.replications = 3;
        small.frames_per_replication = 5_000;
        let mut large = small.clone();
        large.replications = 12;
        let hw_small = simulate_clr(&proto, &small).expect("valid run").per_buffer[0]
            .clr
            .half_width;
        let hw_large = simulate_clr(&proto, &large).expect("valid run").per_buffer[0]
            .clr
            .half_width;
        assert!(
            hw_large < hw_small,
            "CI should shrink: {hw_large} vs {hw_small}"
        );
    }

    #[test]
    fn rejects_unsorted_buffer_grid() {
        let proto = IidProcess::new(Marginal::paper_gaussian());
        let err = simulate_clr(&proto, &quick_config(vec![10.0, 5.0])).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::InvalidConfig {
                    field: "buffers_total",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn rejects_warmup_swallowing_measurement() {
        let proto = IidProcess::new(Marginal::paper_gaussian());
        let mut cfg = quick_config(vec![10.0]);
        cfg.warmup_frames = cfg.frames_per_replication;
        let err = simulate_clr(&proto, &cfg).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::InvalidConfig {
                    field: "warmup_frames",
                    ..
                }
            ),
            "{err}"
        );
    }

    /// A model that stalls (sleeps) on every frame — drives watchdog tests.
    #[derive(Debug, Clone)]
    struct Molasses;

    impl FrameProcess for Molasses {
        fn next_frame(&mut self, _rng: &mut dyn RngCore) -> f64 {
            std::thread::sleep(Duration::from_millis(2));
            100.0
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
        fn reset(&mut self, _rng: &mut dyn RngCore) {}
        fn boxed_clone(&self) -> Box<dyn FrameProcess> {
            Box::new(Molasses)
        }
        fn label(&self) -> String {
            "molasses".into()
        }
    }

    #[test]
    fn watchdog_budget_degrades_to_partial() {
        let proto = GaussianAr1::new(500.0, 70.0, 0.5);
        let mut cfg = quick_config(vec![100.0]);
        cfg.frames_per_replication = 2_000;
        cfg.replications = 6;
        let out = run(
            &proto,
            &cfg,
            &RunOptions {
                threads: Some(1),
                watchdog: Watchdog {
                    run_budget: Some(Duration::ZERO),
                    ..Watchdog::default()
                },
                ..RunOptions::default()
            },
        )
        .expect("degrades, not errors");
        assert_eq!(out.provenance.completed, 1, "budget 0 still yields one");
        assert_eq!(out.provenance.requested, 6);
        assert!(out.provenance.is_partial());
        assert!(out.provenance.budget_exhausted);
        assert_eq!(out.frames_total, 2_000);
        assert!(out.per_buffer[0].clr.half_width.is_infinite(), "n=1 CI");
    }

    #[test]
    fn watchdog_replication_deadline_abandons_stalled_reps() {
        let mut cfg = quick_config(vec![100.0]);
        cfg.n_sources = 2;
        cfg.frames_per_replication = 200_000;
        cfg.warmup_frames = 0;
        cfg.replications = 2;
        let err = run(
            &Molasses,
            &cfg,
            &RunOptions {
                threads: Some(1),
                watchdog: Watchdog {
                    replication_deadline: Some(Duration::from_millis(1)),
                    ..Watchdog::default()
                },
                ..RunOptions::default()
            },
        )
        .unwrap_err();
        match err {
            SimError::NoCompletedReplications {
                requested,
                timed_out,
                ..
            } => {
                assert_eq!(requested, 2);
                assert_eq!(timed_out, 2);
            }
            other => panic!("wrong error {other}"),
        }
    }

    #[test]
    fn recorder_sees_full_event_stream_and_summary() {
        use vbr_obs::MemoryRecorder;
        let rec = Arc::new(MemoryRecorder::new());
        let proto = GaussianAr1::new(500.0, 70.0, 0.8);
        let mut cfg = quick_config(vec![100.0]);
        cfg.frames_per_replication = 2_000;
        cfg.replications = 3;
        let out = run(
            &proto,
            &cfg,
            &RunOptions {
                recorder: Some(rec.clone()),
                threads: Some(2),
                ..RunOptions::default()
            },
        )
        .expect("valid run");
        assert_eq!(rec.count("run_start"), 1);
        assert_eq!(rec.count("replication_start"), 3);
        assert_eq!(rec.count("replication_end"), 3);
        assert_eq!(rec.count("progress"), 3);
        assert_eq!(rec.count("run_end"), 1);
        assert_eq!(rec.count("guard_trip"), 0);
        let summary = rec.summary().expect("finish delivered");
        assert_eq!(summary.completed, 3);
        assert_eq!(summary.metrics.replications_completed, 3);
        assert_eq!(
            summary.metrics.frames,
            3 * (cfg.warmup_frames + cfg.frames_per_replication) as u64
        );
        assert!(summary.metrics.cells_offered > 0.0);
        assert!(summary.metrics.queue_depth.count > 0);
        assert_eq!(summary.metrics.rep_duration_s.count, 3);
        assert!(summary.stages.get("replication").is_some());
        assert!(summary.stages.get("replication/generate").is_some());
        assert!(summary.stages.get("replication/queue.sweep").is_some());
        assert_eq!(out.provenance.completed, 3);
    }

    #[test]
    fn recorder_sees_watchdog_timeouts() {
        use vbr_obs::MemoryRecorder;
        let rec = Arc::new(MemoryRecorder::new());
        let mut cfg = quick_config(vec![100.0]);
        cfg.n_sources = 2;
        cfg.frames_per_replication = 200_000;
        cfg.warmup_frames = 0;
        cfg.replications = 2;
        let err = run(
            &Molasses,
            &cfg,
            &RunOptions {
                threads: Some(1),
                watchdog: Watchdog {
                    replication_deadline: Some(Duration::from_millis(1)),
                    ..Watchdog::default()
                },
                recorder: Some(rec.clone()),
                ..RunOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, SimError::NoCompletedReplications { .. }));
        assert_eq!(rec.count("watchdog_timeout"), 2);
        assert_eq!(rec.count("replication_end"), 0);
        assert!(rec.summary().is_none(), "no summary on a failed run");
    }

    /// A model that turns NaN after a few frames — drives guard-trip events.
    #[derive(Debug, Clone)]
    struct GoesNan {
        emitted: u64,
    }

    impl FrameProcess for GoesNan {
        fn next_frame(&mut self, _rng: &mut dyn RngCore) -> f64 {
            self.emitted += 1;
            if self.emitted > 10 {
                f64::NAN
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
            "goes-nan".into()
        }
    }

    #[test]
    fn recorder_sees_guard_trip_with_fault_provenance() {
        use vbr_obs::{Event, MemoryRecorder};
        let rec = Arc::new(MemoryRecorder::new());
        let mut cfg = quick_config(vec![100.0]);
        cfg.n_sources = 1;
        cfg.frames_per_replication = 1_000;
        cfg.warmup_frames = 0;
        cfg.replications = 1;
        let err = run(
            &GoesNan { emitted: 0 },
            &cfg,
            &RunOptions {
                threads: Some(1),
                recorder: Some(rec.clone()),
                ..RunOptions::default()
            },
        )
        .unwrap_err();
        let fault = match err {
            SimError::NumericFault(f) => f,
            other => panic!("wrong error {other}"),
        };
        assert_eq!(rec.count("guard_trip"), 1);
        let trip = rec
            .events()
            .into_iter()
            .find(|e| e.kind() == "guard_trip")
            .expect("guard trip recorded");
        match trip {
            Event::GuardTrip {
                replication,
                frame,
                seed,
                site,
                value,
            } => {
                assert_eq!(replication, fault.replication);
                assert_eq!(frame, fault.frame);
                assert_eq!(seed, fault.seed);
                assert_eq!(site, fault.site.to_string());
                assert!(value.is_nan());
            }
            other => panic!("wrong event {other:?}"),
        }
        let summary = rec.summary();
        assert!(summary.is_none(), "fatal run delivers no summary");
    }

    #[test]
    fn recorder_sees_checkpoint_save_and_resume() {
        use vbr_obs::{Event, MemoryRecorder};
        let dir = std::env::temp_dir().join("vbr_runner_obs_ckpt_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("obs.ckpt");
        let _ = std::fs::remove_file(&path);

        let proto = GaussianAr1::new(500.0, 70.0, 0.8);
        let mut cfg = quick_config(vec![100.0]);
        cfg.frames_per_replication = 2_000;
        cfg.replications = 2;

        let first = Arc::new(MemoryRecorder::new());
        let opts = RunOptions {
            checkpoint: Some(CheckpointPolicy::new(&path)),
            threads: Some(1),
            recorder: Some(first.clone()),
            ..RunOptions::default()
        };
        run(&proto, &cfg, &opts).expect("first run");
        assert!(first.count("checkpoint_saved") >= 1);
        let expected_fp = checkpoint::config_fingerprint(&cfg);
        for e in first.events() {
            if let Event::CheckpointSaved { fingerprint, .. } = e {
                assert_eq!(fingerprint, expected_fp);
            }
        }

        let second = Arc::new(MemoryRecorder::new());
        let opts = RunOptions {
            recorder: Some(second.clone()),
            ..opts
        };
        run(&proto, &cfg, &opts).expect("resumed run");
        assert_eq!(second.count("checkpoint_resumed"), 1);
        assert_eq!(second.count("replication_start"), 0, "all resumed");
        let summary = second.summary().expect("summary");
        assert_eq!(summary.resumed, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn recorder_sees_budget_exhaustion() {
        use vbr_obs::MemoryRecorder;
        let rec = Arc::new(MemoryRecorder::new());
        let proto = GaussianAr1::new(500.0, 70.0, 0.5);
        let mut cfg = quick_config(vec![100.0]);
        cfg.frames_per_replication = 2_000;
        cfg.replications = 6;
        let out = run(
            &proto,
            &cfg,
            &RunOptions {
                threads: Some(1),
                watchdog: Watchdog {
                    run_budget: Some(Duration::ZERO),
                    ..Watchdog::default()
                },
                recorder: Some(rec.clone()),
                ..RunOptions::default()
            },
        )
        .expect("degrades, not errors");
        assert!(out.provenance.budget_exhausted);
        assert_eq!(rec.count("budget_exhausted"), 1);
        let summary = rec.summary().expect("summary");
        assert!(summary.budget_exhausted);
        assert!(summary.render().contains("budget_exhausted = true"));
    }

    #[test]
    fn run_mix_records_events_too() {
        use vbr_obs::MemoryRecorder;
        let rec = Arc::new(MemoryRecorder::new());
        let a = GaussianAr1::new(500.0, 70.0, 0.8);
        let b = IidProcess::new(Marginal::paper_gaussian());
        let mix = SourceMix::new(vec![(&a as &dyn FrameProcess, 15), (&b, 15)]).expect("mix");
        let mut cfg = quick_config(vec![100.0]);
        cfg.frames_per_replication = 1_000;
        cfg.replications = 2;
        let out = run_mix(
            &mix,
            &cfg,
            &RunOptions {
                recorder: Some(rec.clone()),
                ..RunOptions::default()
            },
        )
        .expect("mix run");
        assert_eq!(out.provenance.completed, 2);
        assert_eq!(rec.count("replication_end"), 2);
        assert_eq!(rec.count("run_end"), 1);
        let summary = rec.summary().expect("summary");
        assert!(summary.stages.get("replication").is_some());
    }

    #[test]
    fn checkpoint_roundtrip_within_runner() {
        let dir = std::env::temp_dir().join("vbr_runner_ckpt_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("roundtrip.ckpt");
        let _ = std::fs::remove_file(&path);

        let proto = GaussianAr1::new(500.0, 70.0, 0.8);
        let mut cfg = quick_config(vec![100.0, 500.0]);
        cfg.frames_per_replication = 2_000;
        cfg.replications = 3;
        let opts = RunOptions {
            checkpoint: Some(CheckpointPolicy::new(&path)),
            ..RunOptions::default()
        };
        let a = run(&proto, &cfg, &opts).expect("first run");
        assert!(path.exists(), "checkpoint persisted");
        // Second run resumes everything from the checkpoint — no recompute.
        let b = run(&proto, &cfg, &opts).expect("resumed run");
        assert_eq!(b.provenance.resumed, 3);
        for (x, y) in a.per_buffer.iter().zip(&b.per_buffer) {
            assert_eq!(x.pooled, y.pooled);
            assert_eq!(x.clr.mean.to_bits(), y.clr.mean.to_bits());
        }
        let _ = std::fs::remove_file(&path);
    }
}
