//! # vbr-obs
//!
//! Zero-cost-when-disabled observability for the replication pipeline.
//!
//! Long paper-scale runs (60 replications × 5·10⁵ frames per model) were a
//! black box between launch and final report: where wall time went, what the
//! queues did, whether the watchdog degraded anything — invisible. Worse,
//! LRD conclusions are notoriously sensitive to measurement procedure
//! (Clegg's criticisms of LRD packet-traffic modelling), so run internals
//! are a *correctness* tool, not ops polish. This crate makes every run
//! inspectable without perturbing it:
//!
//! * [`mod@span`] — scoped wall-clock timers (`span!("fgn.synthesize")`) with
//!   nesting, aggregated per stage into call-count / total-time tables.
//!   Thread-local, lock-free on the recording path, and literally one
//!   thread-local read + branch when disabled.
//! * [`metrics`] — streaming instruments: atomic counters and gauges,
//!   log-bucketed [`Histogram`]s for values spanning decades (queue
//!   occupancy, batch latency), and [`P2Summary`] quantile sketches built
//!   on `vbr_stats::p2` with cross-thread snapshot merging.
//! * [`recorder`] — the pluggable [`Recorder`] trait over a typed [`Event`]
//!   stream (replication start/end, checkpoint save/resume, guard trip,
//!   watchdog action — each with seed/replication provenance matching the
//!   simulator's typed errors), plus a [`RunSummary`] delivered at run end.
//! * Sinks: [`MemoryRecorder`] (tests, programmatic use),
//!   [`JsonlRecorder`] (one JSON object per event, one write syscall per
//!   line so concurrent tailers see events promptly, with a built-in strict
//!   validator in [`jsonl`] and optional `ts_ms`/`shard` stamps), and
//!   [`PrometheusExporter`] (text exposition written at run end).
//! * The **live observatory** read side: [`tail`] follows `*.events.jsonl`
//!   files incrementally (partial trailing lines, truncation and rotation
//!   all survivable), and [`aggregate`] folds any interleaving of
//!   coordinator + shard streams into a cross-shard campaign model —
//!   per-shard state machines, merged progress, CLR-so-far, P²-quantile
//!   ETAs — with deterministic dashboard / Prometheus / timeline renderers.
//!
//! Nothing here touches an RNG: enabling any recorder leaves simulation
//! results **bit-identical** (the integration tests assert it), and the
//! disabled path is benchmarked to cost < 1% end-to-end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod aggregate;
pub mod jsonl;
pub mod metrics;
pub mod prometheus;
pub mod recorder;
pub mod span;
pub mod tail;

pub use aggregate::{
    render_campaign_prometheus, render_dashboard, CampaignAggregator, CampaignSnapshot,
    ShardPhase, ShardStatus, TimelineEntry,
};
pub use jsonl::{JsonScalar, JsonlRecorder};
pub use tail::{TailPoll, Tailer};
pub use metrics::{
    Counter, FloatCounter, Gauge, GuardTripCounters, Histogram, HistogramSnapshot,
    MetricsSnapshot, P2Snapshot, P2Summary, PipelineMetrics,
};
pub use prometheus::PrometheusExporter;
pub use recorder::{Event, FanoutRecorder, MemoryRecorder, Recorder, RunSummary};
pub use span::{SpanGuard, StageStats, StageTable};

use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Sink that writes the rendered human-readable [`RunSummary`] table to a
/// file at run end.
pub struct SummaryWriter {
    path: PathBuf,
}

impl SummaryWriter {
    /// Write `summary.txt`-style output to `path` when the run finishes.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into() }
    }
}

impl Recorder for SummaryWriter {
    fn record(&self, _event: &Event) {}

    fn finish(&self, summary: &RunSummary) {
        if let Err(e) = std::fs::write(&self.path, summary.render()) {
            eprintln!(
                "[vbr-obs] run summary write to {} failed: {e}",
                self.path.display()
            );
        }
    }
}

/// Convenience constructors for common sink stacks.
pub struct Telemetry;

impl Telemetry {
    /// The standard run-telemetry directory layout, as used by the
    /// `--telemetry <dir>` example flag:
    ///
    /// * `events.jsonl` — the JSONL event stream (written live),
    /// * `metrics.prom` — Prometheus text exposition (written at run end),
    /// * `summary.txt` — human-readable per-stage timing table and
    ///   provenance (written at run end).
    ///
    /// Creates the directory if needed.
    pub fn to_dir(dir: impl AsRef<Path>) -> std::io::Result<Arc<dyn Recorder>> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let jsonl = JsonlRecorder::create(dir.join("events.jsonl"))?;
        Ok(Arc::new(FanoutRecorder::new(vec![
            Arc::new(jsonl),
            Arc::new(PrometheusExporter::new(dir.join("metrics.prom"))),
            Arc::new(SummaryWriter::new(dir.join("summary.txt"))),
        ])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn telemetry_dir_produces_all_three_artifacts() {
        let dir = std::env::temp_dir().join("vbr_obs_telemetry_dir_test");
        let _ = std::fs::remove_dir_all(&dir);
        let rec = Telemetry::to_dir(&dir).expect("create dir sinks");
        rec.record(&Event::Progress {
            completed: 1,
            requested: 2,
        });
        let metrics = PipelineMetrics::default();
        metrics.frames.add(42);
        rec.finish(&RunSummary {
            requested: 2,
            completed: 2,
            timed_out: 0,
            resumed: 0,
            budget_exhausted: false,
            wall: Duration::from_millis(10),
            metrics: metrics.snapshot(),
            stages: StageTable::default(),
        });
        let events = std::fs::read_to_string(dir.join("events.jsonl")).expect("events");
        assert_eq!(jsonl::validate_stream(&events).expect("valid"), 1);
        let prom = std::fs::read_to_string(dir.join("metrics.prom")).expect("prom");
        assert!(prom.contains("vbr_frames_total 42"));
        let summary = std::fs::read_to_string(dir.join("summary.txt")).expect("summary");
        assert!(summary.contains("2/2 completed"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
