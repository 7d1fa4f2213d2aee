//! Run events and the pluggable [`Recorder`] trait.
//!
//! The simulation harness emits one [`Event`] per run-level happening —
//! replication start/end, checkpoint save/resume, guard trip, watchdog
//! action — each carrying the same seed/replication provenance the typed
//! errors carry, so an event stream is enough to replay any incident
//! deterministically. A [`Recorder`] consumes the stream; at run end it
//! additionally receives a [`RunSummary`] with the final metrics snapshot
//! and the per-stage timing table.
//!
//! Events are emitted at replication/checkpoint granularity (tens per run),
//! never per frame or per batch, so a sink may do I/O per event without
//! perturbing the pipeline.

use crate::metrics::MetricsSnapshot;
use crate::span::StageTable;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One run-level happening, with provenance.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Event {
    /// A run began.
    RunStart {
        /// Root RNG seed.
        seed: u64,
        /// Replications requested.
        replications: usize,
        /// Multiplexed sources per replication.
        n_sources: usize,
        /// Measured frames per replication.
        frames_per_replication: usize,
        /// Buffer-grid size (CLR points measured per replication).
        buffers: usize,
    },
    /// A replication started computing (not emitted for resumed ones).
    ReplicationStart {
        /// Replication index.
        replication: usize,
        /// Root seed (`root.split(replication)` reproduces the replication;
        /// its source j draws from `.split(j)` of that stream).
        seed: u64,
    },
    /// A replication finished and entered the estimates.
    ReplicationEnd {
        /// Replication index.
        replication: usize,
        /// Root seed.
        seed: u64,
        /// Frames simulated (warmup included).
        frames: u64,
        /// Wall time, ns.
        duration_ns: u64,
        /// CLR at the smallest configured buffer.
        clr_b0: f64,
    },
    /// Progress heartbeat after each absorbed replication.
    Progress {
        /// Replications completed so far (resumed included).
        completed: usize,
        /// Replications requested.
        requested: usize,
    },
    /// A checkpoint file was written.
    CheckpointSaved {
        /// Checkpoint path.
        path: String,
        /// Completed replications persisted.
        replications: usize,
        /// Config fingerprint stamped into the file.
        fingerprint: u64,
    },
    /// Completed replications were loaded from a checkpoint at run start.
    CheckpointResumed {
        /// Checkpoint path.
        path: String,
        /// Replications loaded.
        replications: usize,
        /// Config fingerprint the file matched.
        fingerprint: u64,
    },
    /// The numeric guard rejected a value (the run stops with the matching
    /// `SimError::NumericFault`).
    GuardTrip {
        /// Replication in which the fault occurred.
        replication: usize,
        /// Frame index within the replication.
        frame: u64,
        /// Root seed.
        seed: u64,
        /// Pipeline site, rendered (`source 3`, `aggregate arrivals`, ...).
        site: String,
        /// The offending value.
        value: f64,
    },
    /// The watchdog abandoned a replication at its deadline.
    WatchdogTimeout {
        /// Replication abandoned.
        replication: usize,
        /// Root seed.
        seed: u64,
    },
    /// The run-level budget expired; no new replications start.
    BudgetExhausted {
        /// Replications completed when the budget hit.
        completed: usize,
        /// Replications requested.
        requested: usize,
    },
    /// Liveness beat emitted mid-replication (at most once per configured
    /// interval per worker thread) so a supervising process can tell a slow
    /// replication from a hung one.
    Heartbeat {
        /// Replication currently executing.
        replication: usize,
        /// Frames completed within that replication (warmup included).
        frame: u64,
    },
    /// A primary checkpoint file was unusable (truncated / corrupt / failed
    /// its checksum) and the run fell back — to the previous atomic version
    /// if one loaded, otherwise to a fresh start.
    CheckpointFallback {
        /// Path of the unusable primary checkpoint.
        path: String,
        /// Why the primary could not be used.
        error: String,
        /// True if the previous atomic version was loaded; false if the run
        /// had to start from scratch.
        recovered: bool,
    },
    /// A supervised campaign began.
    CampaignStart {
        /// Worker shards planned.
        shards: usize,
        /// Total replications across all shards.
        replications: usize,
    },
    /// The supervisor spawned a worker process for a shard.
    WorkerSpawned {
        /// Shard index.
        shard: usize,
        /// Attempt number (1-based).
        attempt: u32,
        /// OS process id of the worker.
        pid: u32,
    },
    /// A worker process exited (or failed to spawn).
    WorkerExited {
        /// Shard index.
        shard: usize,
        /// Attempt number (1-based).
        attempt: u32,
        /// Exit code; `-1` = killed by a signal, `-2` = spawn failed.
        code: i64,
    },
    /// A worker went silent past the heartbeat deadline; the supervisor is
    /// killing it.
    WorkerStalled {
        /// Shard index.
        shard: usize,
        /// Attempt number (1-based).
        attempt: u32,
        /// How long the worker had been silent, ms.
        silent_ms: u64,
    },
    /// The supervisor is restarting a failed worker after backoff; the new
    /// attempt resumes from the shard's checkpoint.
    WorkerRestarted {
        /// Shard index.
        shard: usize,
        /// Attempt number the restart begins (1-based).
        attempt: u32,
        /// Backoff slept before the restart, ms.
        backoff_ms: u64,
    },
    /// A shard finished all of its replications.
    ShardCompleted {
        /// Shard index.
        shard: usize,
        /// Replications the shard completed.
        replications: usize,
        /// Attempts it took.
        attempts: u32,
    },
    /// A shard exhausted its retry budget; whatever its checkpoint holds is
    /// merged as an honestly-labeled partial result.
    ShardQuarantined {
        /// Shard index.
        shard: usize,
        /// Attempts consumed.
        attempts: u32,
        /// Replications recovered from the shard's checkpoint.
        completed: usize,
    },
    /// Terminal campaign provenance. Always the last event of a campaign.
    CampaignEnd {
        /// Shards planned.
        shards: usize,
        /// Shards quarantined.
        quarantined: usize,
        /// Replications requested across all shards.
        requested: usize,
        /// Replications in the merged estimates.
        completed: usize,
        /// Worker restarts across the campaign.
        restarts: usize,
        /// Campaign wall time, ns.
        duration_ns: u64,
    },
    /// Terminal provenance record: how the run's results relate to what was
    /// asked for. Always the last event of a completed run.
    RunEnd {
        /// Replications requested.
        requested: usize,
        /// Replications completed.
        completed: usize,
        /// Replications timed out.
        timed_out: usize,
        /// Replications resumed from checkpoint.
        resumed: usize,
        /// True if the run budget expired early.
        budget_exhausted: bool,
        /// Run wall time, ns.
        duration_ns: u64,
    },
}

impl Event {
    /// Stable snake_case tag for the event kind (the JSONL `type` field).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RunStart { .. } => "run_start",
            Event::ReplicationStart { .. } => "replication_start",
            Event::ReplicationEnd { .. } => "replication_end",
            Event::Progress { .. } => "progress",
            Event::CheckpointSaved { .. } => "checkpoint_saved",
            Event::CheckpointResumed { .. } => "checkpoint_resumed",
            Event::GuardTrip { .. } => "guard_trip",
            Event::WatchdogTimeout { .. } => "watchdog_timeout",
            Event::BudgetExhausted { .. } => "budget_exhausted",
            Event::Heartbeat { .. } => "heartbeat",
            Event::CheckpointFallback { .. } => "checkpoint_fallback",
            Event::CampaignStart { .. } => "campaign_start",
            Event::WorkerSpawned { .. } => "worker_spawned",
            Event::WorkerExited { .. } => "worker_exited",
            Event::WorkerStalled { .. } => "worker_stalled",
            Event::WorkerRestarted { .. } => "worker_restarted",
            Event::ShardCompleted { .. } => "shard_completed",
            Event::ShardQuarantined { .. } => "shard_quarantined",
            Event::CampaignEnd { .. } => "campaign_end",
            Event::RunEnd { .. } => "run_end",
        }
    }
}

/// Everything a sink needs at run end: final provenance, wall time, the
/// metrics snapshot and the per-stage timing table.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Replications requested.
    pub requested: usize,
    /// Replications completed.
    pub completed: usize,
    /// Replications timed out (watchdog deadline).
    pub timed_out: usize,
    /// Replications resumed from checkpoint.
    pub resumed: usize,
    /// True if the run budget expired early.
    pub budget_exhausted: bool,
    /// Run wall time.
    pub wall: Duration,
    /// Final metrics snapshot.
    pub metrics: MetricsSnapshot,
    /// Merged per-stage timing table from all worker threads.
    pub stages: StageTable,
}

impl RunSummary {
    /// Merges another run's summary into this one (for campaign-level
    /// aggregation across worker processes): provenance counters add,
    /// metrics merge count-weighted ([`MetricsSnapshot::merge`]), stage
    /// tables add, wall time takes the max (workers run concurrently), and
    /// `budget_exhausted` ORs.
    pub fn merge(&mut self, other: &RunSummary) {
        self.requested += other.requested;
        self.completed += other.completed;
        self.timed_out += other.timed_out;
        self.resumed += other.resumed;
        self.budget_exhausted |= other.budget_exhausted;
        self.wall = self.wall.max(other.wall);
        self.metrics.merge(&other.metrics);
        self.stages.merge(&other.stages);
    }

    /// Renders the human-readable run summary: provenance (including
    /// `timed_out` and `budget_exhausted`), throughput, and the per-stage
    /// table (stage, calls, total ms, % of run).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("run summary\n");
        out.push_str(&format!(
            "  replications: {}/{} completed ({} resumed, {} timed_out, budget_exhausted = {})\n",
            self.completed, self.requested, self.resumed, self.timed_out, self.budget_exhausted,
        ));
        out.push_str(&format!(
            "  wall time: {:.3} s   frames: {}   cells/sec: {:.3e}\n",
            self.wall.as_secs_f64(),
            self.metrics.frames,
            self.metrics.cells_per_sec,
        ));
        let d = &self.metrics.rep_duration_s;
        if d.count > 0 {
            out.push_str(&format!(
                "  replication seconds: mean {:.3}  p50 {:.3}  p90 {:.3}  p99 {:.3}  max {:.3}\n",
                d.mean(),
                d.estimate(0.5).unwrap_or(f64::NAN),
                d.estimate(0.9).unwrap_or(f64::NAN),
                d.estimate(0.99).unwrap_or(f64::NAN),
                d.max,
            ));
        }
        let trips = self.metrics.guard_trips_source
            + self.metrics.guard_trips_aggregate
            + self.metrics.guard_trips_queue;
        if trips > 0 {
            out.push_str(&format!(
                "  guard trips: {} (source {}, aggregate {}, queue {})\n",
                trips,
                self.metrics.guard_trips_source,
                self.metrics.guard_trips_aggregate,
                self.metrics.guard_trips_queue,
            ));
        }
        if !self.stages.is_empty() {
            out.push('\n');
            out.push_str(&self.stages.render(self.wall));
        }
        out
    }
}

/// A consumer of the run's event stream and final summary.
///
/// Implementations must be `Send + Sync`: the harness's worker threads emit
/// events concurrently. [`finish`](Recorder::finish) is called exactly once,
/// after the last event, on successful runs (a run that dies with a fatal
/// error has flushed every event up to and including the fault).
pub trait Recorder: Send + Sync {
    /// Consumes one event.
    fn record(&self, event: &Event);

    /// Consumes the end-of-run summary (metrics + stage timings). Default:
    /// ignore.
    fn finish(&self, _summary: &RunSummary) {}
}

/// In-memory sink: stores every event and the final summary. The
/// aggregation-friendly sink for tests and programmatic inspection.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    events: Mutex<Vec<Event>>,
    summary: Mutex<Option<RunSummary>>,
}

impl MemoryRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies out the recorded events.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Number of recorded events of the given kind.
    pub fn count(&self, kind: &str) -> usize {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|e| e.kind() == kind)
            .count()
    }

    /// The final summary, if the run finished.
    pub fn summary(&self) -> Option<RunSummary> {
        self.summary.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

impl Recorder for MemoryRecorder {
    fn record(&self, event: &Event) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event.clone());
    }

    fn finish(&self, summary: &RunSummary) {
        *self.summary.lock().unwrap_or_else(|e| e.into_inner()) = Some(summary.clone());
    }
}

/// Fans events out to several sinks in order.
pub struct FanoutRecorder(Vec<Arc<dyn Recorder>>);

impl FanoutRecorder {
    /// Builds a fanout over the given sinks.
    pub fn new(sinks: Vec<Arc<dyn Recorder>>) -> Self {
        Self(sinks)
    }
}

impl Recorder for FanoutRecorder {
    fn record(&self, event: &Event) {
        for s in &self.0 {
            s.record(event);
        }
    }

    fn finish(&self, summary: &RunSummary) {
        for s in &self.0 {
            s.finish(summary);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PipelineMetrics;

    fn dummy_summary() -> RunSummary {
        let metrics = PipelineMetrics::default();
        metrics.frames.add(1000);
        metrics.observe_replication_seconds(0.5);
        let mut stages = StageTable::default();
        stages.add("replication", 400_000_000);
        stages.add("replication/generate", 300_000_000);
        RunSummary {
            requested: 4,
            completed: 3,
            timed_out: 1,
            resumed: 0,
            budget_exhausted: true,
            wall: Duration::from_millis(800),
            metrics: metrics.snapshot(),
            stages,
        }
    }

    #[test]
    fn memory_recorder_stores_events_and_summary() {
        let rec = MemoryRecorder::new();
        rec.record(&Event::ReplicationStart {
            replication: 0,
            seed: 7,
        });
        rec.record(&Event::Progress {
            completed: 1,
            requested: 4,
        });
        rec.finish(&dummy_summary());
        assert_eq!(rec.events().len(), 2);
        assert_eq!(rec.count("replication_start"), 1);
        assert_eq!(rec.count("progress"), 1);
        assert_eq!(rec.count("run_end"), 0);
        assert_eq!(rec.summary().unwrap().completed, 3);
    }

    #[test]
    fn fanout_reaches_every_sink() {
        let a = Arc::new(MemoryRecorder::new());
        let b = Arc::new(MemoryRecorder::new());
        let fan = FanoutRecorder::new(vec![a.clone(), b.clone()]);
        fan.record(&Event::Progress {
            completed: 1,
            requested: 2,
        });
        fan.finish(&dummy_summary());
        assert_eq!(a.events().len(), 1);
        assert_eq!(b.events().len(), 1);
        assert!(a.summary().is_some() && b.summary().is_some());
    }

    #[test]
    fn summary_render_includes_provenance_and_stages() {
        let s = dummy_summary().render();
        assert!(s.contains("3/4 completed"), "{s}");
        assert!(s.contains("timed_out"), "{s}");
        assert!(s.contains("budget_exhausted = true"), "{s}");
        assert!(s.contains("generate"), "{s}");
        assert!(s.contains("% run"), "{s}");
        assert!(s.contains("p99"), "{s}");
    }

    #[test]
    fn event_kinds_are_stable() {
        let kinds = [
            Event::RunStart {
                seed: 0,
                replications: 1,
                n_sources: 1,
                frames_per_replication: 1,
                buffers: 1,
            }
            .kind(),
            Event::RunEnd {
                requested: 1,
                completed: 1,
                timed_out: 0,
                resumed: 0,
                budget_exhausted: false,
                duration_ns: 1,
            }
            .kind(),
            Event::GuardTrip {
                replication: 0,
                frame: 0,
                seed: 0,
                site: "aggregate arrivals".into(),
                value: f64::NAN,
            }
            .kind(),
        ];
        assert_eq!(kinds, ["run_start", "run_end", "guard_trip"]);
    }
}
