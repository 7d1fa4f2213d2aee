//! Cross-shard campaign aggregation: a live model of a supervised campaign
//! built purely from its JSONL event streams.
//!
//! A campaign writes one coordinator stream (`campaign.events.jsonl` —
//! worker lifecycle, quarantine, terminal accounting) and one stream per
//! shard (`shard-N.events.jsonl` — replication lifecycle, progress,
//! heartbeats). [`CampaignAggregator`] ingests lines from any mix of those
//! streams, in any interleaving, and maintains:
//!
//! * a per-shard state machine — planned → running → stalled → restarting →
//!   quarantined / done — driven by lifecycle events *and* heartbeat gaps
//!   (a shard silent past the stall threshold reads as stalled even if no
//!   supervisor verdict arrived yet);
//! * campaign-level accounting: merged completion counts, restart/stall/
//!   checkpoint-fallback totals, mean CLR-so-far over finished
//!   replications, and a P² sketch of replication wall times that yields
//!   an honest ETA;
//! * optionally a [`TimelineEntry`] log for post-mortem reports.
//!
//! Ingestion is **idempotent in effect** for the state it models: counts
//! use max-merge where the stream carries absolute values (progress,
//! completion) so out-of-order or replayed lines cannot run totals
//! backwards. The renderers ([`render_dashboard`],
//! [`render_campaign_prometheus`], [`CampaignAggregator::render_timeline`])
//! are pure functions of ingested state plus an explicit `now_ms`, which is
//! what makes dashboard output reproducible from a recorded fixture stream
//! (the golden-snapshot test relies on it).

use crate::jsonl::{decode_line, Stamped};
use crate::metrics::{P2Snapshot, P2Summary};
use crate::prometheus::{counter, fmt_f64, gauge};
use crate::recorder::Event;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Where a shard is in its lifecycle, as far as the event streams show.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPhase {
    /// Announced by `campaign_start` but no worker activity seen yet.
    Planned,
    /// A worker is making progress (events within the stall threshold).
    Running,
    /// Running, but silent past the stall threshold, or the supervisor
    /// declared the worker hung.
    Stalled,
    /// The supervisor scheduled a retry; the next attempt has not started.
    Restarting,
    /// Retry budget exhausted; checkpointed work still merges.
    Quarantined,
    /// Every assigned replication is checkpointed.
    Done,
}

impl ShardPhase {
    /// Lowercase label used by the dashboard and Prometheus exposition.
    pub fn label(self) -> &'static str {
        match self {
            ShardPhase::Planned => "planned",
            ShardPhase::Running => "running",
            ShardPhase::Stalled => "stalled",
            ShardPhase::Restarting => "restarting",
            ShardPhase::Quarantined => "quarantined",
            ShardPhase::Done => "done",
        }
    }

    /// True for the two terminal phases, which later events never leave.
    pub fn is_terminal(self) -> bool {
        matches!(self, ShardPhase::Quarantined | ShardPhase::Done)
    }
}

/// Aggregated view of one shard.
#[derive(Debug, Clone)]
pub struct ShardStatus {
    /// Shard index.
    pub index: usize,
    /// Lifecycle phase (heartbeat-gap adjusted in [`CampaignAggregator::snapshot`]).
    pub phase: ShardPhase,
    /// Replications assigned to this shard (0 until a `run_start` or
    /// `progress` event reveals it).
    pub requested: usize,
    /// Replications completed so far (max-merged from progress events).
    pub completed: usize,
    /// Replication the worker is currently inside, if known.
    pub current_replication: Option<usize>,
    /// Latest frame reached inside the current replication.
    pub current_frame: u64,
    /// Worker attempts observed (max of `worker_spawned` attempt numbers).
    pub attempts: u32,
    /// Worker restarts the supervisor performed for this shard.
    pub restarts: usize,
    /// Hang detections for this shard.
    pub stalls: usize,
    /// Checkpoint fallbacks this shard's workers reported.
    pub fallbacks: usize,
    /// Timestamp of the first event attributed to this shard.
    pub first_ms: Option<u64>,
    /// Timestamp of the latest event attributed to this shard — the
    /// liveness signal the gap-based stall detection runs on.
    pub last_ms: Option<u64>,
    /// Timestamp of the terminal event (`shard_completed` / `shard_quarantined`).
    pub done_ms: Option<u64>,
}

impl ShardStatus {
    fn new(index: usize) -> Self {
        Self {
            index,
            phase: ShardPhase::Planned,
            requested: 0,
            completed: 0,
            current_replication: None,
            current_frame: 0,
            attempts: 0,
            restarts: 0,
            stalls: 0,
            fallbacks: 0,
            first_ms: None,
            last_ms: None,
            done_ms: None,
        }
    }

    fn advance(&mut self, to: ShardPhase) {
        if !self.phase.is_terminal() {
            self.phase = to;
        }
    }

    fn touch(&mut self, ts: Option<u64>) {
        if let Some(t) = ts {
            self.first_ms = Some(self.first_ms.map_or(t, |f| f.min(t)));
            self.last_ms = Some(self.last_ms.map_or(t, |l| l.max(t)));
        }
    }
}

/// One lifecycle event kept for the post-mortem timeline.
#[derive(Debug, Clone)]
pub struct TimelineEntry {
    /// Stamped wall-clock milliseconds, if the stream carried one.
    pub ts_ms: Option<u64>,
    /// Shard the event concerns, if any.
    pub shard: Option<usize>,
    /// Event kind tag (`worker_stalled`, `shard_completed`, …).
    pub kind: String,
    /// Human-readable detail composed from the event's fields.
    pub detail: String,
}

/// Point-in-time merged view of the whole campaign, produced by
/// [`CampaignAggregator::snapshot`]. Plain data: every renderer is a pure
/// function of one of these.
#[derive(Debug, Clone)]
pub struct CampaignSnapshot {
    /// Per-shard status, ordered by shard index, with gap-based stall
    /// adjustment applied.
    pub shards: Vec<ShardStatus>,
    /// Total replications the campaign was asked for.
    pub requested: usize,
    /// Replications completed across all shards (the coordinator's terminal
    /// count once `campaign_end` arrives, a max-merged sum before that).
    pub completed: usize,
    /// Worker restarts across the campaign.
    pub restarts: usize,
    /// Hang detections across the campaign.
    pub stalls: usize,
    /// Checkpoint fallbacks across the campaign.
    pub fallbacks: usize,
    /// Shards currently quarantined.
    pub quarantined: usize,
    /// Replication wall-time quantile sketch (seconds).
    pub rep_duration_s: P2Snapshot,
    /// Mean buffer-0 CLR over replications finished so far (NaN if none).
    pub clr_b0_mean: f64,
    /// Replications contributing to [`Self::clr_b0_mean`].
    pub clr_b0_count: u64,
    /// Wall seconds from `campaign_start` to `campaign_end` (or to `now_ms`
    /// while live); 0 when the stream carries no timestamps.
    pub elapsed_s: f64,
    /// Estimated seconds to completion: `Some(0)` when done, `None` when no
    /// replication has finished yet (no duration sample to extrapolate).
    pub eta_s: Option<f64>,
    /// True once `campaign_end` has been ingested.
    pub done: bool,
    /// Event lines successfully ingested.
    pub events: u64,
}

/// Incremental cross-shard aggregator over campaign JSONL event lines.
///
/// See the [module docs](self) for the model. Feed it lines from
/// [`Tailer`](crate::tail::Tailer)s (live) or recorded files (post-mortem);
/// shard attribution comes from each line's `shard` field (either native to
/// the event or stamped by
/// [`JsonlRecorder::with_shard`](crate::jsonl::JsonlRecorder::with_shard)) —
/// never from file paths. Un-attributed worker events still feed the
/// campaign-level accumulators.
#[derive(Debug)]
pub struct CampaignAggregator {
    stall_after_ms: u64,
    shards: BTreeMap<usize, ShardStatus>,
    requested: usize,
    rep_durations: P2Summary,
    clr_sum: f64,
    clr_count: u64,
    restarts: usize,
    stalls: usize,
    fallbacks: usize,
    start_ms: Option<u64>,
    end_ms: Option<u64>,
    final_completed: Option<usize>,
    max_ts_ms: Option<u64>,
    events: u64,
    skipped: u64,
    keep_timeline: bool,
    timeline: Vec<TimelineEntry>,
}

impl CampaignAggregator {
    /// New aggregator declaring a running shard stalled after
    /// `stall_after_ms` of event silence (use the supervisor's heartbeat
    /// timeout for consistent verdicts).
    pub fn new(stall_after_ms: u64) -> Self {
        Self {
            stall_after_ms: stall_after_ms.max(1),
            shards: BTreeMap::new(),
            requested: 0,
            rep_durations: P2Summary::default(),
            clr_sum: 0.0,
            clr_count: 0,
            restarts: 0,
            stalls: 0,
            fallbacks: 0,
            start_ms: None,
            end_ms: None,
            final_completed: None,
            max_ts_ms: None,
            events: 0,
            skipped: 0,
            keep_timeline: false,
            timeline: Vec::new(),
        }
    }

    /// Keep a [`TimelineEntry`] log of lifecycle events for post-mortem
    /// rendering (off by default — a live dashboard doesn't need the
    /// unbounded log).
    pub fn with_timeline(mut self) -> Self {
        self.keep_timeline = true;
        self
    }

    /// Lines ingested / lines skipped (not a decodable event line).
    pub fn counts(&self) -> (u64, u64) {
        (self.events, self.skipped)
    }

    /// Latest `ts_ms` stamp seen on any line — the natural `now` for
    /// deterministic post-mortem snapshots.
    pub fn latest_ts_ms(&self) -> Option<u64> {
        self.max_ts_ms
    }

    /// The recorded lifecycle timeline (empty unless
    /// [`with_timeline`](Self::with_timeline) was set).
    pub fn timeline(&self) -> &[TimelineEntry] {
        &self.timeline
    }

    /// Ingests every line of a recorded stream body (skipping blanks and a
    /// partial trailing line, which parses as invalid and is skipped).
    /// Returns the number of lines ingested.
    pub fn ingest_stream(&mut self, body: &str) -> u64 {
        let before = self.events;
        for line in body.lines() {
            if !line.trim().is_empty() {
                self.ingest_line(line);
            }
        }
        self.events - before
    }

    /// Ingests one event line. Returns false (and counts the line as
    /// skipped) if it does not [decode](crate::jsonl::decode_line) to an
    /// [`Event`].
    pub fn ingest_line(&mut self, line: &str) -> bool {
        let Ok(Stamped {
            event,
            ts_ms: ts,
            shard: shard_id,
        }) = decode_line(line)
        else {
            self.skipped += 1;
            return false;
        };
        if let Some(t) = ts {
            self.max_ts_ms = Some(self.max_ts_ms.map_or(t, |m| m.max(t)));
        }

        // Campaign-level accumulators first — they apply whether or not the
        // line is shard-attributed.
        match event {
            Event::CampaignStart {
                shards,
                replications,
            } => {
                self.start_ms = self.start_ms.or(ts);
                self.requested = self.requested.max(replications);
                for i in 0..shards {
                    self.shards.entry(i).or_insert_with(|| ShardStatus::new(i));
                }
            }
            Event::CampaignEnd {
                requested,
                completed,
                ..
            } => {
                self.end_ms = self.end_ms.or(ts).or(self.max_ts_ms);
                self.requested = self.requested.max(requested);
                self.final_completed = Some(completed);
            }
            Event::ReplicationEnd {
                duration_ns,
                clr_b0,
                ..
            } => {
                self.rep_durations.observe(duration_ns as f64 / 1e9);
                if clr_b0.is_finite() {
                    self.clr_sum += clr_b0;
                    self.clr_count += 1;
                }
            }
            Event::WorkerRestarted { .. } => self.restarts += 1,
            Event::WorkerStalled { .. } => self.stalls += 1,
            Event::CheckpointFallback { .. } => self.fallbacks += 1,
            _ => {}
        }

        // Per-shard state machine.
        if let Some(idx) = shard_id {
            let st = self
                .shards
                .entry(idx)
                .or_insert_with(|| ShardStatus::new(idx));
            st.touch(ts);
            match event {
                Event::RunStart { replications, .. } => {
                    st.requested = st.requested.max(replications);
                    st.advance(ShardPhase::Running);
                }
                Event::ReplicationStart { replication, .. } => {
                    st.current_replication = Some(replication);
                    st.current_frame = 0;
                    st.advance(ShardPhase::Running);
                }
                Event::Heartbeat { replication, frame } => {
                    st.current_replication = Some(replication);
                    st.current_frame = st.current_frame.max(frame);
                    st.advance(ShardPhase::Running);
                }
                Event::ReplicationEnd { .. } => {
                    st.advance(ShardPhase::Running);
                }
                Event::Progress {
                    completed,
                    requested,
                } => {
                    st.completed = st.completed.max(completed);
                    st.requested = st.requested.max(requested);
                }
                Event::CheckpointFallback { .. } => st.fallbacks += 1,
                Event::WorkerSpawned { attempt, .. } => {
                    st.attempts = st.attempts.max(attempt);
                    st.advance(ShardPhase::Running);
                }
                Event::WorkerStalled { .. } => {
                    st.stalls += 1;
                    st.advance(ShardPhase::Stalled);
                }
                Event::WorkerRestarted { attempt, .. } => {
                    st.restarts += 1;
                    st.attempts = st.attempts.max(attempt);
                    st.advance(ShardPhase::Restarting);
                }
                Event::ShardCompleted {
                    replications,
                    attempts,
                    ..
                } => {
                    st.completed = st.completed.max(replications);
                    st.requested = st.requested.max(replications);
                    st.attempts = st.attempts.max(attempts);
                    st.done_ms = st.done_ms.or(ts);
                    st.phase = ShardPhase::Done;
                }
                Event::ShardQuarantined {
                    attempts,
                    completed,
                    ..
                } => {
                    st.completed = st.completed.max(completed);
                    st.attempts = st.attempts.max(attempts);
                    st.done_ms = st.done_ms.or(ts);
                    st.phase = ShardPhase::Quarantined;
                }
                Event::RunEnd {
                    requested,
                    completed,
                    ..
                } => {
                    // A worker-stream-only replay still learns completion.
                    st.completed = st.completed.max(completed);
                    st.requested = st.requested.max(requested);
                    if st.completed >= requested && requested > 0 {
                        st.phase = ShardPhase::Done;
                        st.done_ms = st.done_ms.or(ts);
                    }
                }
                _ => {}
            }
        }

        if self.keep_timeline {
            if let Some(detail) = timeline_detail(&event) {
                self.timeline.push(TimelineEntry {
                    ts_ms: ts,
                    shard: shard_id,
                    kind: event.kind().to_string(),
                    detail,
                });
            }
        }
        self.events += 1;
        true
    }

    /// Merged point-in-time view. `now_ms` drives heartbeat-gap stall
    /// detection and live elapsed/ETA; pass
    /// [`latest_ts_ms`](Self::latest_ts_ms) for deterministic post-mortem
    /// snapshots.
    pub fn snapshot(&self, now_ms: u64) -> CampaignSnapshot {
        let mut shards: Vec<ShardStatus> = self.shards.values().cloned().collect();
        for st in &mut shards {
            if st.phase == ShardPhase::Running {
                if let Some(last) = st.last_ms {
                    if now_ms.saturating_sub(last) > self.stall_after_ms {
                        st.phase = ShardPhase::Stalled;
                    }
                }
            }
        }
        let summed: usize = shards.iter().map(|s| s.completed).sum();
        let completed = self.final_completed.unwrap_or(summed);
        let requested = if self.requested > 0 {
            self.requested
        } else {
            shards.iter().map(|s| s.requested).sum()
        };
        let quarantined = shards
            .iter()
            .filter(|s| s.phase == ShardPhase::Quarantined)
            .count();
        let done = self.end_ms.is_some();
        let rep_duration_s = self.rep_durations.snapshot();
        let clr_b0_mean = if self.clr_count > 0 {
            self.clr_sum / self.clr_count as f64
        } else {
            f64::NAN
        };
        let elapsed_s = match (self.start_ms, self.end_ms) {
            (Some(s), Some(e)) => e.saturating_sub(s) as f64 / 1e3,
            (Some(s), None) => now_ms.saturating_sub(s) as f64 / 1e3,
            _ => 0.0,
        };
        let remaining = requested.saturating_sub(completed);
        let eta_s = if done || remaining == 0 {
            Some(0.0)
        } else if rep_duration_s.count == 0 {
            None
        } else {
            let per = rep_duration_s
                .estimate(0.5)
                .filter(|d| d.is_finite() && *d > 0.0)
                .unwrap_or_else(|| rep_duration_s.mean());
            let active = shards
                .iter()
                .filter(|s| !s.phase.is_terminal())
                .count()
                .max(1);
            Some(remaining as f64 * per / active as f64)
        };
        CampaignSnapshot {
            shards,
            requested,
            completed,
            restarts: self.restarts,
            stalls: self.stalls,
            fallbacks: self.fallbacks,
            quarantined,
            rep_duration_s,
            clr_b0_mean,
            clr_b0_count: self.clr_count,
            elapsed_s,
            eta_s,
            done,
            events: self.events,
        }
    }

    /// Renders the recorded lifecycle timeline, one event per line, with
    /// times relative to `campaign_start`. Stable-sorted by timestamp so
    /// interleaved coordinator and shard streams read chronologically.
    pub fn render_timeline(&self) -> String {
        let t0 = self
            .start_ms
            .or_else(|| self.timeline.iter().find_map(|e| e.ts_ms));
        let mut entries: Vec<&TimelineEntry> = self.timeline.iter().collect();
        entries.sort_by_key(|e| e.ts_ms.unwrap_or(0));
        let mut out = String::with_capacity(entries.len() * 64 + 32);
        out.push_str("timeline:\n");
        for e in entries {
            let when = match (e.ts_ms, t0) {
                (Some(t), Some(z)) => format!("t+{:>9.3}s", t.saturating_sub(z) as f64 / 1e3),
                _ => format!("{:>12}", "t+?"),
            };
            let shard = match e.shard {
                Some(s) => format!("shard {s}"),
                None => "campaign".to_string(),
            };
            let _ = writeln!(out, "  {when}  {shard:<10} {:<18} {}", e.kind, e.detail);
        }
        out
    }

    /// Machine-readable post-mortem summary: overall accounting, per-shard
    /// records, and derived statistics, as one JSON object (nested — use a
    /// full JSON parser, not the flat event reader).
    pub fn report_json(&self, now_ms: u64) -> String {
        let snap = self.snapshot(now_ms);
        let mut out = String::with_capacity(1024);
        out.push('{');
        let _ = write!(
            out,
            "\"requested\":{},\"completed\":{},\"partial\":{},\"shards\":{},\"quarantined\":{},\
             \"restarts\":{},\"stalls\":{},\"fallbacks\":{},\"events\":{},\"done\":{},\
             \"wall_s\":{:.3}",
            snap.requested,
            snap.completed,
            snap.completed < snap.requested,
            snap.shards.len(),
            snap.quarantined,
            snap.restarts,
            snap.stalls,
            snap.fallbacks,
            snap.events,
            snap.done,
            snap.elapsed_s,
        );
        let _ = write!(out, ",\"clr_b0_mean\":{}", json_f64(snap.clr_b0_mean));
        let p50 = snap.rep_duration_s.estimate(0.5).unwrap_or(f64::NAN);
        let _ = write!(out, ",\"rep_duration_p50_s\":{}", json_f64(p50));
        let _ = write!(
            out,
            ",\"rep_duration_count\":{}",
            snap.rep_duration_s.count
        );
        out.push_str(",\"shard_reports\":[");
        for (i, s) in snap.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let duration = match (s.first_ms, s.done_ms.or(s.last_ms)) {
                (Some(a), Some(b)) => json_f64(b.saturating_sub(a) as f64 / 1e3),
                _ => "null".to_string(),
            };
            let _ = write!(
                out,
                "{{\"shard\":{},\"phase\":\"{}\",\"requested\":{},\"completed\":{},\
                 \"attempts\":{},\"restarts\":{},\"stalls\":{},\"fallbacks\":{},\
                 \"duration_s\":{duration}}}",
                s.index,
                s.phase.label(),
                s.requested,
                s.completed,
                s.attempts,
                s.restarts,
                s.stalls,
                s.fallbacks,
            );
        }
        out.push_str("],\"timeline_events\":");
        let _ = write!(out, "{}", self.timeline.len());
        out.push('}');
        out
    }
}

/// JSON-safe f64: finite values in scientific notation, non-finite as null.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "null".to_string()
    }
}

/// Composes the human-readable timeline detail for lifecycle events;
/// returns `None` for high-frequency events not kept in the timeline.
fn timeline_detail(event: &Event) -> Option<String> {
    Some(match event {
        Event::CampaignStart {
            shards,
            replications,
        } => format!("{shards} shards, {replications} replications"),
        Event::WorkerSpawned { attempt, pid, .. } => format!("attempt {attempt}, pid {pid}"),
        Event::WorkerExited { attempt, code, .. } => format!("attempt {attempt}, code {code}"),
        Event::WorkerStalled { silent_ms, .. } => format!("silent {silent_ms} ms"),
        Event::WorkerRestarted {
            attempt,
            backoff_ms,
            ..
        } => format!("attempt {attempt} after {backoff_ms} ms backoff"),
        Event::ShardCompleted {
            replications,
            attempts,
            ..
        } => format!("{replications} replications in {attempts} attempt(s)"),
        Event::ShardQuarantined {
            attempts,
            completed,
            ..
        } => format!("{completed} checkpointed after {attempts} attempt(s)"),
        Event::CheckpointFallback {
            error, recovered, ..
        } => format!("recovered={recovered} {error}"),
        Event::CampaignEnd {
            requested,
            completed,
            restarts,
            ..
        } => format!("{completed}/{requested} merged, {restarts} restarts"),
        _ => return None,
    })
}

fn format_eta(snap: &CampaignSnapshot) -> String {
    if snap.done {
        return "done".to_string();
    }
    match snap.eta_s {
        Some(s) if s <= 0.0 => "merging".to_string(),
        Some(s) => format_secs(s),
        None => "?".to_string(),
    }
}

fn format_secs(s: f64) -> String {
    if s < 60.0 {
        format!("{s:.0}s")
    } else if s < 3600.0 {
        format!("{}m{:02}s", (s / 60.0) as u64, (s % 60.0) as u64)
    } else {
        format!("{}h{:02}m", (s / 3600.0) as u64, ((s % 3600.0) / 60.0) as u64)
    }
}

fn phase_color(phase: ShardPhase) -> &'static str {
    match phase {
        ShardPhase::Planned => "\x1b[2m",
        ShardPhase::Running => "\x1b[32m",
        ShardPhase::Stalled => "\x1b[33m",
        ShardPhase::Restarting => "\x1b[35m",
        ShardPhase::Quarantined => "\x1b[31m",
        ShardPhase::Done => "\x1b[36m",
    }
}

/// Renders the terminal dashboard: a campaign header line plus one
/// progress-bar line per shard. `bar_width` is the bar's interior width in
/// characters; `color` adds ANSI phase coloring (off ⇒ pure ASCII, which is
/// what the golden-snapshot test pins). Pure function of the snapshot.
pub fn render_dashboard(snap: &CampaignSnapshot, bar_width: usize, color: bool) -> String {
    let bar_width = bar_width.max(4);
    let mut out = String::with_capacity(256 + snap.shards.len() * 96);
    let clr = if snap.clr_b0_mean.is_finite() {
        format!("{:.3e}", snap.clr_b0_mean)
    } else {
        "n/a".to_string()
    };
    let _ = writeln!(
        out,
        "campaign {}/{} replications | {} shards ({} quarantined) | {} restarts | {} stalls | CLR[b0] {} | ETA {}",
        snap.completed,
        snap.requested,
        snap.shards.len(),
        snap.quarantined,
        snap.restarts,
        snap.stalls,
        clr,
        format_eta(snap),
    );
    for s in &snap.shards {
        let requested = s.requested.max(s.completed);
        let filled = (s.completed * bar_width).checked_div(requested).unwrap_or(0);
        let mut bar = String::with_capacity(bar_width);
        for i in 0..bar_width {
            bar.push(if i < filled { '#' } else { '-' });
        }
        let extra = match s.phase {
            ShardPhase::Running => match s.current_replication {
                Some(r) => format!(" rep {r} @ frame {}", s.current_frame),
                None => String::new(),
            },
            ShardPhase::Stalled => format!(" ({} stall(s))", s.stalls.max(1)),
            ShardPhase::Restarting => format!(" (attempt {}, {} restart(s))", s.attempts, s.restarts),
            ShardPhase::Quarantined => format!(" ({} kept after {} attempt(s))", s.completed, s.attempts),
            ShardPhase::Done => format!(" ({} attempt(s))", s.attempts.max(1)),
            ShardPhase::Planned => String::new(),
        };
        let (c0, c1) = if color {
            (phase_color(s.phase), "\x1b[0m")
        } else {
            ("", "")
        };
        let _ = writeln!(
            out,
            "  shard {:>2} [{bar}] {:>4}/{:<4} {c0}{:<11}{c1}{extra}",
            s.index,
            s.completed,
            requested,
            s.phase.label(),
        );
    }
    out
}

/// Renders the live campaign state as Prometheus text exposition
/// (`vbr_campaign_*` families) — what `campaign_run --serve` returns per
/// scrape. Pure function of the snapshot.
pub fn render_campaign_prometheus(snap: &CampaignSnapshot) -> String {
    let mut out = String::with_capacity(2048);
    gauge(
        &mut out,
        "vbr_campaign_shards",
        "Shards in the campaign plan.",
        snap.shards.len() as f64,
    );
    gauge(
        &mut out,
        "vbr_campaign_replications_requested",
        "Total replications the campaign was asked for.",
        snap.requested as f64,
    );
    gauge(
        &mut out,
        "vbr_campaign_replications_completed",
        "Replications completed across all shards so far.",
        snap.completed as f64,
    );
    counter(
        &mut out,
        "vbr_campaign_restarts_total",
        "Worker restarts performed by the supervisor.",
        snap.restarts,
    );
    counter(
        &mut out,
        "vbr_campaign_stalls_total",
        "Workers killed for heartbeat silence.",
        snap.stalls,
    );
    counter(
        &mut out,
        "vbr_campaign_checkpoint_fallbacks_total",
        "Checkpoint fallbacks workers reported.",
        snap.fallbacks,
    );
    gauge(
        &mut out,
        "vbr_campaign_shards_quarantined",
        "Shards currently quarantined.",
        snap.quarantined as f64,
    );
    gauge(
        &mut out,
        "vbr_campaign_done",
        "1 once the campaign has ended.",
        if snap.done { 1.0 } else { 0.0 },
    );
    gauge(
        &mut out,
        "vbr_campaign_elapsed_seconds",
        "Wall seconds since campaign start.",
        snap.elapsed_s,
    );
    if let Some(eta) = snap.eta_s {
        gauge(
            &mut out,
            "vbr_campaign_eta_seconds",
            "Estimated seconds to completion (P50 replication time extrapolated).",
            eta,
        );
    }
    if snap.clr_b0_mean.is_finite() {
        gauge(
            &mut out,
            "vbr_campaign_clr_b0_mean",
            "Mean buffer-0 CLR over replications finished so far.",
            snap.clr_b0_mean,
        );
    }

    let _ = writeln!(
        out,
        "# HELP vbr_campaign_shard_completed Replications completed per shard.\n\
         # TYPE vbr_campaign_shard_completed gauge"
    );
    for s in &snap.shards {
        let _ = writeln!(
            out,
            "vbr_campaign_shard_completed{{shard=\"{}\"}} {}",
            s.index, s.completed
        );
    }
    let _ = writeln!(
        out,
        "# HELP vbr_campaign_shard_attempts Worker attempts consumed per shard.\n\
         # TYPE vbr_campaign_shard_attempts gauge"
    );
    for s in &snap.shards {
        let _ = writeln!(
            out,
            "vbr_campaign_shard_attempts{{shard=\"{}\"}} {}",
            s.index, s.attempts
        );
    }
    let _ = writeln!(
        out,
        "# HELP vbr_campaign_shard_phase Shard lifecycle phase (1 for the current phase).\n\
         # TYPE vbr_campaign_shard_phase gauge"
    );
    for s in &snap.shards {
        let _ = writeln!(
            out,
            "vbr_campaign_shard_phase{{shard=\"{}\",phase=\"{}\"}} 1",
            s.index,
            s.phase.label()
        );
    }

    let d = &snap.rep_duration_s;
    let _ = writeln!(
        out,
        "# HELP vbr_campaign_replication_duration_seconds Per-replication wall time across shards (P2 estimates).\n\
         # TYPE vbr_campaign_replication_duration_seconds summary"
    );
    if d.count > 0 {
        for (level, est) in d.levels.iter().zip(&d.estimates) {
            let _ = writeln!(
                out,
                "vbr_campaign_replication_duration_seconds{{quantile=\"{level}\"}} {}",
                fmt_f64(*est)
            );
        }
    }
    let _ = writeln!(
        out,
        "vbr_campaign_replication_duration_seconds_sum {}",
        fmt_f64(d.sum)
    );
    let _ = writeln!(
        out,
        "vbr_campaign_replication_duration_seconds_count {}",
        d.count
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl::{event_to_json_stamped, parse_flat_object};

    fn line(ev: &Event, ts: u64, shard: Option<usize>) -> String {
        event_to_json_stamped(ev, Some(ts), shard)
    }

    #[test]
    fn lifecycle_events_drive_the_state_machine() {
        let mut agg = CampaignAggregator::new(5_000);
        agg.ingest_line(&line(
            &Event::CampaignStart {
                shards: 2,
                replications: 8,
            },
            1_000,
            None,
        ));
        let snap = agg.snapshot(1_000);
        assert_eq!(snap.shards.len(), 2);
        assert!(snap.shards.iter().all(|s| s.phase == ShardPhase::Planned));
        assert_eq!(snap.requested, 8);

        agg.ingest_line(&line(
            &Event::WorkerSpawned {
                shard: 0,
                attempt: 1,
                pid: 100,
            },
            1_100,
            None,
        ));
        agg.ingest_line(&line(
            &Event::Heartbeat {
                replication: 0,
                frame: 4096,
            },
            1_200,
            Some(1),
        ));
        let snap = agg.snapshot(1_300);
        assert_eq!(snap.shards[0].phase, ShardPhase::Running);
        assert_eq!(snap.shards[1].phase, ShardPhase::Running);
        assert_eq!(snap.shards[1].current_frame, 4096);

        agg.ingest_line(&line(
            &Event::WorkerStalled {
                shard: 0,
                attempt: 1,
                silent_ms: 6_000,
            },
            8_000,
            None,
        ));
        agg.ingest_line(&line(
            &Event::WorkerRestarted {
                shard: 0,
                attempt: 2,
                backoff_ms: 200,
            },
            8_100,
            None,
        ));
        let snap = agg.snapshot(8_200);
        assert_eq!(snap.shards[0].phase, ShardPhase::Restarting);
        assert_eq!(snap.restarts, 1);
        assert_eq!(snap.stalls, 1);

        agg.ingest_line(&line(
            &Event::ShardCompleted {
                shard: 0,
                replications: 4,
                attempts: 2,
            },
            9_000,
            None,
        ));
        agg.ingest_line(&line(
            &Event::ShardQuarantined {
                shard: 1,
                attempts: 3,
                completed: 2,
            },
            9_500,
            None,
        ));
        let snap = agg.snapshot(9_600);
        assert_eq!(snap.shards[0].phase, ShardPhase::Done);
        assert_eq!(snap.shards[1].phase, ShardPhase::Quarantined);
        assert_eq!(snap.quarantined, 1);
        assert_eq!(snap.completed, 6);

        // Terminal phases are sticky: a late heartbeat cannot resurrect.
        agg.ingest_line(&line(
            &Event::Heartbeat {
                replication: 3,
                frame: 1,
            },
            9_700,
            Some(1),
        ));
        assert_eq!(agg.snapshot(9_800).shards[1].phase, ShardPhase::Quarantined);
    }

    #[test]
    fn heartbeat_gap_reads_as_stalled_without_a_supervisor_verdict() {
        let mut agg = CampaignAggregator::new(2_000);
        agg.ingest_line(&line(
            &Event::Heartbeat {
                replication: 0,
                frame: 100,
            },
            10_000,
            Some(0),
        ));
        assert_eq!(agg.snapshot(11_000).shards[0].phase, ShardPhase::Running);
        assert_eq!(agg.snapshot(13_000).shards[0].phase, ShardPhase::Stalled);
        // Fresh beat recovers it (snapshot is non-destructive).
        agg.ingest_line(&line(
            &Event::Heartbeat {
                replication: 0,
                frame: 200,
            },
            13_500,
            Some(0),
        ));
        assert_eq!(agg.snapshot(13_600).shards[0].phase, ShardPhase::Running);
    }

    #[test]
    fn out_of_order_heartbeats_across_shards_never_run_backwards() {
        let mut agg = CampaignAggregator::new(60_000);
        // Shard 1's events arrive before shard 0's earlier ones; progress
        // within shard 0 arrives newest-first.
        agg.ingest_line(&line(
            &Event::Progress {
                completed: 3,
                requested: 4,
            },
            5_000,
            Some(1),
        ));
        agg.ingest_line(&line(
            &Event::Heartbeat {
                replication: 2,
                frame: 9_000,
            },
            4_000,
            Some(0),
        ));
        agg.ingest_line(&line(
            &Event::Progress {
                completed: 2,
                requested: 4,
            },
            3_000,
            Some(0),
        ));
        agg.ingest_line(&line(
            &Event::Progress {
                completed: 1,
                requested: 4,
            },
            2_000,
            Some(0),
        ));
        let snap = agg.snapshot(5_500);
        assert_eq!(snap.shards[0].completed, 2, "max-merge, not last-write");
        assert_eq!(snap.shards[1].completed, 3);
        assert_eq!(snap.completed, 5);
        assert_eq!(snap.requested, 8);
        // last_ms is the max stamp even though lines arrived out of order.
        assert_eq!(snap.shards[0].last_ms, Some(4_000));
        assert_eq!(agg.latest_ts_ms(), Some(5_000));
    }

    #[test]
    fn eta_extrapolates_from_replication_durations() {
        let mut agg = CampaignAggregator::new(60_000);
        agg.ingest_line(&line(
            &Event::CampaignStart {
                shards: 2,
                replications: 10,
            },
            0,
            None,
        ));
        // No finished replication yet: no ETA.
        assert_eq!(agg.snapshot(100).eta_s, None);
        for r in 0..4usize {
            agg.ingest_line(&line(
                &Event::ReplicationEnd {
                    replication: r,
                    seed: 1,
                    frames: 1_000,
                    duration_ns: 2_000_000_000,
                    clr_b0: 1e-4,
                },
                1_000 * (r as u64 + 1),
                Some(r % 2),
            ));
            agg.ingest_line(&line(
                &Event::Progress {
                    completed: r / 2 + 1,
                    requested: 5,
                },
                1_000 * (r as u64 + 1),
                Some(r % 2),
            ));
        }
        let snap = agg.snapshot(5_000);
        assert_eq!(snap.completed, 4);
        // 6 remaining × 2 s / 2 active shards = 6 s.
        let eta = snap.eta_s.expect("have samples");
        assert!((eta - 6.0).abs() < 1e-9, "eta {eta}");
        assert!((snap.clr_b0_mean - 1e-4).abs() < 1e-12);
        assert_eq!(snap.clr_b0_count, 4);
    }

    #[test]
    fn unattributed_worker_events_still_feed_campaign_accumulators() {
        let mut agg = CampaignAggregator::new(60_000);
        // Pre-stamping recordings: no shard field on worker events.
        agg.ingest_line(
            "{\"type\":\"replication_end\",\"replication\":0,\"seed\":1,\"frames\":10,\
             \"duration_ns\":1000000000,\"clr_b0\":2e-5}",
        );
        let snap = agg.snapshot(0);
        assert_eq!(snap.rep_duration_s.count, 1);
        assert_eq!(snap.clr_b0_count, 1);
        assert!(snap.shards.is_empty(), "no shard invented from thin air");
    }

    #[test]
    fn garbage_lines_are_counted_not_fatal() {
        let mut agg = CampaignAggregator::new(1_000);
        assert!(!agg.ingest_line("{\"par"));
        assert!(!agg.ingest_line("[1,2,3]"));
        assert!(!agg.ingest_line("{\"no_type\":1}"));
        assert!(agg.ingest_line("{\"type\":\"heartbeat\",\"replication\":0,\"frame\":1}"));
        assert_eq!(agg.counts(), (1, 3));
    }

    #[test]
    fn ingest_stream_skips_blank_and_partial_tail() {
        let mut agg = CampaignAggregator::new(1_000);
        let body = "{\"type\":\"campaign_start\",\"shards\":1,\"replications\":2}\n\n\
                    {\"type\":\"heartbeat\",\"replication\":0,\"frame\":5,\"shard\":0}\n\
                    {\"type\":\"hea";
        assert_eq!(agg.ingest_stream(body), 2);
        assert_eq!(agg.counts(), (2, 1));
    }

    #[test]
    fn report_json_is_valid_and_complete() {
        let mut agg = CampaignAggregator::new(5_000).with_timeline();
        agg.ingest_line(&line(
            &Event::CampaignStart {
                shards: 1,
                replications: 2,
            },
            1_000,
            None,
        ));
        agg.ingest_line(&line(
            &Event::WorkerSpawned {
                shard: 0,
                attempt: 1,
                pid: 77,
            },
            1_050,
            None,
        ));
        agg.ingest_line(&line(
            &Event::ShardCompleted {
                shard: 0,
                replications: 2,
                attempts: 1,
            },
            3_000,
            None,
        ));
        agg.ingest_line(&line(
            &Event::CampaignEnd {
                shards: 1,
                quarantined: 0,
                requested: 2,
                completed: 2,
                restarts: 0,
                duration_ns: 2_000_000_000,
            },
            3_100,
            None,
        ));
        let json = agg.report_json(agg.latest_ts_ms().unwrap_or(0));
        // The report is one flat object around an array of flat shard
        // records (one here), so the flat reader checks all of it.
        let (head, rest) = json
            .split_once(",\"shard_reports\":[")
            .expect("has shard reports");
        let (shard, tail) = rest.split_once(']').expect("array closes");
        parse_flat_object(&format!("{head}{tail}")).expect("report is valid JSON");
        parse_flat_object(shard).expect("shard record is valid JSON");
        for needle in [
            "\"requested\":2",
            "\"completed\":2",
            "\"partial\":false",
            "\"done\":true",
            "\"shard_reports\":[{\"shard\":0,\"phase\":\"done\"",
            "\"timeline_events\":4",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        let tl = agg.render_timeline();
        assert!(tl.contains("campaign_start"), "{tl}");
        assert!(tl.contains("shard_completed"), "{tl}");
        assert!(tl.contains("t+    0.000s"), "{tl}");
    }

    #[test]
    fn prometheus_exposition_has_campaign_families() {
        let mut agg = CampaignAggregator::new(5_000);
        agg.ingest_line(&line(
            &Event::CampaignStart {
                shards: 2,
                replications: 4,
            },
            0,
            None,
        ));
        agg.ingest_line(&line(
            &Event::ReplicationEnd {
                replication: 0,
                seed: 1,
                frames: 10,
                duration_ns: 500_000_000,
                clr_b0: 3e-6,
            },
            800,
            Some(0),
        ));
        agg.ingest_line(&line(
            &Event::Progress {
                completed: 1,
                requested: 2,
            },
            900,
            Some(0),
        ));
        let text = render_campaign_prometheus(&agg.snapshot(1_000));
        for family in [
            "vbr_campaign_shards 2e0",
            "vbr_campaign_replications_requested 4e0",
            "vbr_campaign_replications_completed 1e0",
            "vbr_campaign_restarts_total 0",
            "vbr_campaign_shard_completed{shard=\"0\"} 1",
            "vbr_campaign_shard_phase{shard=\"0\",phase=\"running\"} 1",
            "vbr_campaign_shard_phase{shard=\"1\",phase=\"planned\"} 1",
            "vbr_campaign_replication_duration_seconds_count 1",
            "vbr_campaign_eta_seconds",
            "vbr_campaign_clr_b0_mean",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
    }

    #[test]
    fn dashboard_renders_bars_and_phases() {
        let mut agg = CampaignAggregator::new(60_000);
        agg.ingest_line(&line(
            &Event::CampaignStart {
                shards: 2,
                replications: 8,
            },
            0,
            None,
        ));
        agg.ingest_line(&line(
            &Event::Progress {
                completed: 2,
                requested: 4,
            },
            1_000,
            Some(0),
        ));
        agg.ingest_line(&line(
            &Event::ShardCompleted {
                shard: 1,
                replications: 4,
                attempts: 1,
            },
            2_000,
            None,
        ));
        let text = render_dashboard(&agg.snapshot(2_500), 8, false);
        assert!(text.contains("campaign 6/8 replications"), "{text}");
        assert!(text.contains("[####----]"), "{text}");
        assert!(text.contains("[########]"), "{text}");
        assert!(text.contains("done"), "{text}");
        assert!(!text.contains('\x1b'), "no ANSI without color: {text:?}");
        let colored = render_dashboard(&agg.snapshot(2_500), 8, true);
        assert!(colored.contains('\x1b'), "color requested");
    }
}
