//! Supervised multi-process campaign runner.
//!
//! ROADMAP item 5: resolving the paper's CLR ≈ 10⁻⁹ "myths" takes
//! 10k-replication campaigns, and at that scale worker crashes, hangs and
//! corrupt checkpoints are the norm. This module is the coordinator side:
//!
//! * [`plan_shards`] partitions the replication indices into contiguous
//!   shards. Source j of replication `r` always draws from
//!   `root.split(r).split(j)`, so a shard is *defined by its index range
//!   alone* — any process computing range `lo..hi` produces bit-identical
//!   results, which is what makes restart, resume and merge exact.
//! * [`run_campaign`] spawns one worker **process** per shard and supervises
//!   them over their JSONL event streams: any append is a liveness beat
//!   (workers emit [`Event::Heartbeat`] mid-replication, so even a
//!   single-long-replication shard keeps beating); silence past the deadline
//!   means the worker is hung and gets killed; a dead worker whose shard
//!   checkpoint is incomplete is restarted with backoff
//!   ([`RetryPolicy`]) and resumes from that
//!   checkpoint; a shard that keeps failing is **quarantined** — its
//!   checkpointed replications still enter the merge, and the shortfall is
//!   recorded in [`Provenance`], never papered over.
//! * The merge unions every shard's per-replication results and runs the
//!   *same* outcome assembly a single-process run uses
//!   (`runner::collect_outcome`) — pooled CLR is a
//!   union of per-replication accounts, so the campaign result is
//!   bit-identical to one process running all replications.
//!
//! The supervisor never reads a worker's half-written final line (its
//! [`Tailer`] hands back complete lines only) and truncates that partial
//! tail before a restarted worker appends, keeping every shard stream valid
//! JSONL end to end.

use crate::checkpoint::{self, CheckpointPolicy};
use crate::error::SimError;
use crate::retry::RetryPolicy;
use crate::runner::{collect_outcome, Provenance, RepResult, SimConfig, SimOutcome};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vbr_obs::jsonl::decode_line;
use vbr_obs::tail::Tailer;
use vbr_obs::{Event, P2Snapshot, P2Summary, Recorder};

/// One worker's slice of the campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Shard index (0-based).
    pub index: usize,
    /// Replication indices this shard computes (per-replication seeding,
    /// `root.split(r).split(j)` for source j, makes the range the complete
    /// job description).
    pub range: std::ops::Range<usize>,
    /// The shard's checkpoint file (resume + merge source).
    pub checkpoint: PathBuf,
    /// The shard's JSONL event stream (heartbeat channel).
    pub events: PathBuf,
}

/// Partitions `config.replications` into `shards` contiguous ranges with
/// per-shard checkpoint and event files under `dir`. The first
/// `replications % shards` shards get one extra replication.
pub fn plan_shards(config: &SimConfig, shards: usize, dir: &Path) -> Vec<ShardPlan> {
    let shards = shards.clamp(1, config.replications.max(1));
    let per = config.replications / shards;
    let extra = config.replications % shards;
    let mut plans = Vec::with_capacity(shards);
    let mut lo = 0usize;
    for index in 0..shards {
        let len = per + usize::from(index < extra);
        plans.push(ShardPlan {
            index,
            range: lo..lo + len,
            checkpoint: dir.join(format!("shard-{index}.ckpt")),
            events: dir.join(format!("shard-{index}.events.jsonl")),
        });
        lo += len;
    }
    plans
}

/// Supervision knobs for [`run_campaign`].
#[derive(Clone)]
pub struct CampaignOptions {
    /// Worker processes to shard across.
    pub shards: usize,
    /// Working directory for shard checkpoints and event streams (created
    /// if missing).
    pub dir: PathBuf,
    /// Retry/backoff/quarantine policy per shard.
    pub retry: RetryPolicy,
    /// A worker silent (no event-stream append) for longer than this is
    /// declared hung and killed. Workers should emit heartbeats at a small
    /// fraction of this interval.
    pub heartbeat_timeout: Duration,
    /// Longest supervisor sleep between passes. The supervisor wakes
    /// sooner when a running shard's reported progress predicts its exit
    /// (see `next_wait`).
    pub poll_interval: Duration,
    /// Campaign-level telemetry sink (worker lifecycle + terminal events).
    pub recorder: Option<Arc<dyn Recorder>>,
}

impl CampaignOptions {
    /// Defaults tuned for real campaigns: 4 shards, 3 attempts,
    /// 30 s heartbeat deadline, 250 ms poll.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            shards: 4,
            dir: dir.into(),
            retry: RetryPolicy::default(),
            heartbeat_timeout: Duration::from_secs(30),
            poll_interval: Duration::from_millis(250),
            recorder: None,
        }
    }
}

impl std::fmt::Debug for CampaignOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignOptions")
            .field("shards", &self.shards)
            .field("dir", &self.dir)
            .field("retry", &self.retry)
            .field("heartbeat_timeout", &self.heartbeat_timeout)
            .field("poll_interval", &self.poll_interval)
            .field("recorder", &self.recorder.as_ref().map(|_| "Recorder"))
            .finish()
    }
}

/// Per-shard outcome in the campaign report.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard index.
    pub index: usize,
    /// Replication range assigned.
    pub range: std::ops::Range<usize>,
    /// Worker attempts consumed.
    pub attempts: u32,
    /// Replications completed (merged from the shard checkpoint).
    pub completed: usize,
    /// True if the shard exhausted its retry budget.
    pub quarantined: bool,
}

/// Campaign-level accounting alongside the merged [`SimOutcome`].
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-shard attempts/completion/quarantine.
    pub shards: Vec<ShardReport>,
    /// Worker restarts across the campaign.
    pub restarts: usize,
    /// Hang detections (worker killed for silence).
    pub stalls: usize,
    /// Checkpoint fallbacks workers reported (corrupt primary recovered or
    /// reset).
    pub fallbacks: usize,
    /// Replication wall-time quantiles, count-weighted across all workers
    /// (from their `replication_end` events).
    pub rep_duration_s: P2Snapshot,
    /// Campaign wall time.
    pub wall: Duration,
}

impl CampaignReport {
    /// Shards that were quarantined.
    pub fn quarantined(&self) -> usize {
        self.shards.iter().filter(|s| s.quarantined).count()
    }
}

/// Merged result of a supervised campaign.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The merged experiment outcome — bit-identical to a single-process
    /// run over the union of completed replications, with honest
    /// [`Provenance`] when shards were quarantined.
    pub outcome: SimOutcome,
    /// Supervision accounting.
    pub report: CampaignReport,
}

/// Supervisor-side state machine for one shard.
enum ShardState {
    /// Worker running.
    Running { child: Child },
    /// Waiting out a backoff before the next attempt.
    Backoff { until: Instant },
    /// All replications checkpointed.
    Done,
    /// Retry budget exhausted.
    Quarantined,
}

struct ShardCtx {
    plan: ShardPlan,
    state: ShardState,
    attempt: u32,
    /// Incremental reader of the shard's event stream (the heartbeat
    /// channel) — shared with the live observatory tooling in
    /// [`vbr_obs::tail`].
    tail: Tailer,
    last_size: u64,
    last_progress: Instant,
    /// Replications the running attempt has left, from its latest
    /// `progress` event; `None` until it reports one.
    remaining: Option<usize>,
    restarts: usize,
    stalls: usize,
    fallbacks: usize,
}

impl ShardCtx {
    /// Reads the shard's new event lines: any growth of the stream is a
    /// liveness beat, `progress` events say how much of the shard is left,
    /// and `replication_end` and `checkpoint_fallback` events feed the
    /// campaign accumulators.
    fn drain_events(&mut self, rep_durations: &mut P2Summary) {
        let polled = self.tail.poll();
        if polled.size != self.last_size {
            self.last_size = polled.size;
            self.last_progress = Instant::now();
        }
        for line in &polled.lines {
            match decode_line(line).map(|s| s.event) {
                Ok(Event::ReplicationEnd { duration_ns, .. }) => {
                    rep_durations.observe(duration_ns as f64 / 1e9);
                }
                Ok(Event::Progress {
                    completed,
                    requested,
                }) => self.remaining = Some(requested.saturating_sub(completed)),
                Ok(Event::CheckpointFallback { .. }) => self.fallbacks += 1,
                _ => {}
            }
        }
    }
}

/// Runs a supervised multi-process campaign: shards `config.replications`
/// across worker processes, supervises them via heartbeats, restarts or
/// quarantines failures, and merges shard checkpoints into one outcome.
///
/// `spawn` builds the [`Command`] for a worker attempt on a shard — the
/// caller owns the executable contract (see the `campaign_run` binary). The
/// supervisor adds the attempt number in `VBR_WORKER_ATTEMPT` and inherits
/// the environment, so `VBR_FAULT` chaos specs reach the workers.
///
/// Errors only on coordinator-level failures (unusable campaign dir, every
/// shard quarantined with nothing checkpointed, hard-corrupt merge). Worker
/// failures are the *normal case* this function exists to absorb.
pub fn run_campaign(
    config: &SimConfig,
    options: &CampaignOptions,
    spawn: impl Fn(&ShardPlan, u32) -> Command,
) -> Result<CampaignOutcome, SimError> {
    config.validate()?;
    std::fs::create_dir_all(&options.dir).map_err(|e| {
        SimError::io(format!("creating campaign dir {}", options.dir.display()), e)
    })?;
    let plans = plan_shards(config, options.shards, &options.dir);
    let t0 = Instant::now();
    let emit = |event: Event| {
        if let Some(r) = &options.recorder {
            r.record(&event);
        }
    };
    emit(Event::CampaignStart {
        shards: plans.len(),
        replications: config.replications,
    });

    let mut shards: Vec<ShardCtx> = plans
        .into_iter()
        .map(|plan| {
            let tail = Tailer::new(plan.events.clone());
            ShardCtx {
                plan,
                state: ShardState::Backoff { until: t0 },
                attempt: 0,
                tail,
                last_size: 0,
                last_progress: Instant::now(),
                remaining: None,
                restarts: 0,
                stalls: 0,
                fallbacks: 0,
            }
        })
        .collect();

    // Campaign-wide accumulators fed from worker event streams.
    let mut rep_durations = P2Summary::default();

    loop {
        for shard in shards.iter_mut() {
            // Drain this shard's stream first: events inform both liveness
            // and the campaign accumulators regardless of state.
            shard.drain_events(&mut rep_durations);

            match &mut shard.state {
                ShardState::Done | ShardState::Quarantined => continue,
                ShardState::Backoff { until } => {
                    if Instant::now() < *until {
                        continue;
                    }
                    // (Re)start a worker attempt.
                    shard.attempt += 1;
                    // Never let a fresh worker append after a dead one's
                    // half-written line.
                    shard.tail.truncate_partial_tail();
                    shard.last_size = shard
                        .plan
                        .events
                        .metadata()
                        .map(|m| m.len())
                        .unwrap_or(0);
                    let mut cmd = spawn(&shard.plan, shard.attempt);
                    cmd.env(crate::fault::ATTEMPT_ENV, shard.attempt.to_string())
                        .stdout(Stdio::null())
                        .stderr(Stdio::null());
                    match cmd.spawn() {
                        Ok(child) => {
                            emit(Event::WorkerSpawned {
                                shard: shard.plan.index,
                                attempt: shard.attempt,
                                pid: child.id(),
                            });
                            shard.last_progress = Instant::now();
                            // A new attempt has reported nothing yet; a stale
                            // count from a dead one would mispredict its exit.
                            shard.remaining = None;
                            shard.state = ShardState::Running { child };
                        }
                        Err(_) => {
                            emit(Event::WorkerExited {
                                shard: shard.plan.index,
                                attempt: shard.attempt,
                                code: -2,
                            });
                            settle_failure(shard, config, options, &emit);
                        }
                    }
                }
                ShardState::Running { child } => {
                    let code = match child.try_wait() {
                        Ok(Some(status)) => status.code().map(i64::from).unwrap_or(-1),
                        Ok(None) => {
                            // Still running: hang detection on stream
                            // silence.
                            let silent = shard.last_progress.elapsed();
                            if silent <= options.heartbeat_timeout {
                                continue;
                            }
                            shard.stalls += 1;
                            emit(Event::WorkerStalled {
                                shard: shard.plan.index,
                                attempt: shard.attempt,
                                silent_ms: silent.as_millis() as u64,
                            });
                            let _ = child.kill();
                            let _ = child.wait();
                            -1
                        }
                        Err(_) => {
                            // Lost track of the child; treat as an exit.
                            let _ = child.kill();
                            let _ = child.wait();
                            -1
                        }
                    };
                    // The worker's last `replication_end` and
                    // `checkpoint_fallback` lines can land after this
                    // iteration's drain: read them before settling.
                    shard.drain_events(&mut rep_durations);
                    emit(Event::WorkerExited {
                        shard: shard.plan.index,
                        attempt: shard.attempt,
                        code,
                    });
                    settle_exit(shard, config, options, &emit);
                }
            }
        }
        // Checked after this pass's transitions: no sleep once the last
        // shard has settled.
        if shards
            .iter()
            .all(|s| matches!(s.state, ShardState::Done | ShardState::Quarantined))
        {
            break;
        }
        let running_remaining = shards.iter().filter_map(|s| match s.state {
            ShardState::Running { .. } => s.remaining,
            _ => None,
        });
        std::thread::sleep(next_wait(
            options.poll_interval,
            rep_durations.snapshot().estimate(0.5),
            running_remaining,
        ));
    }

    // Merge: union every shard's checkpointed replications, then assemble
    // the outcome through the same path a single-process run uses.
    let mut merged: BTreeMap<usize, RepResult> = BTreeMap::new();
    let mut reports = Vec::with_capacity(shards.len());
    let mut restarts = 0usize;
    let mut stalls = 0usize;
    let mut fallbacks = 0usize;
    for shard in &shards {
        let (results, _fallback) = checkpoint::load_with_fallback(&shard.plan.checkpoint, config)?;
        let completed = results
            .iter()
            .filter(|(rep, _)| shard.plan.range.contains(rep))
            .count();
        merged.extend(
            results
                .into_iter()
                .filter(|(rep, _)| shard.plan.range.contains(rep)),
        );
        restarts += shard.restarts;
        stalls += shard.stalls;
        fallbacks += shard.fallbacks;
        reports.push(ShardReport {
            index: shard.plan.index,
            range: shard.plan.range.clone(),
            attempts: shard.attempt,
            completed,
            quarantined: matches!(shard.state, ShardState::Quarantined),
        });
    }

    let provenance = Provenance {
        requested: config.replications,
        completed: merged.len(),
        timed_out: 0,
        resumed: 0,
        budget_exhausted: false,
    };
    let quarantined = reports.iter().filter(|r| r.quarantined).count();
    emit(Event::CampaignEnd {
        shards: reports.len(),
        quarantined,
        requested: provenance.requested,
        completed: provenance.completed,
        restarts,
        duration_ns: t0.elapsed().as_nanos() as u64,
    });
    if merged.is_empty() {
        return Err(SimError::NoCompletedReplications {
            requested: provenance.requested,
            timed_out: 0,
            budget: None,
        });
    }
    let outcome = collect_outcome(config, &merged, provenance);
    Ok(CampaignOutcome {
        outcome,
        report: CampaignReport {
            shards: reports,
            restarts,
            stalls,
            fallbacks,
            rep_duration_s: rep_durations.snapshot(),
            wall: t0.elapsed(),
        },
    })
}

/// Shortest sleep of the supervisor: its wait once a running shard has no
/// replication left and is only writing its last events and exiting.
const EXIT_POLL: Duration = Duration::from_millis(1);

/// How long the supervisor sleeps before its next pass: until the earliest
/// predicted exit of a running shard, but never longer than `poll`.
///
/// `remaining` holds, per running shard that has reported progress, the
/// replications it has left; `rep_s` is the typical replication time in
/// seconds. A shard's exit is predicted at `remaining × rep_s` from now, and
/// a shard with nothing left is waited on at [`EXIT_POLL`]. Without a report
/// or an estimate the wait is `poll`. A prediction that comes true early
/// costs only another pass; one that comes late is cut off by `poll`.
pub(crate) fn next_wait(
    poll: Duration,
    rep_s: Option<f64>,
    remaining: impl IntoIterator<Item = usize>,
) -> Duration {
    remaining
        .into_iter()
        .filter_map(|left| match left {
            0 => Some(Duration::ZERO),
            _ => Duration::try_from_secs_f64(rep_s? * left as f64).ok(),
        })
        .fold(poll, Duration::min)
        .max(EXIT_POLL)
        .min(poll)
}

/// Post-exit adjudication: complete checkpoint ⇒ done; otherwise a failure
/// headed for retry or quarantine.
fn settle_exit(
    shard: &mut ShardCtx,
    config: &SimConfig,
    options: &CampaignOptions,
    emit: &impl Fn(Event),
) {
    let completed = checkpointed_in_range(&shard.plan, config);
    if completed == shard.plan.range.len() {
        emit(Event::ShardCompleted {
            shard: shard.plan.index,
            replications: completed,
            attempts: shard.attempt,
        });
        shard.state = ShardState::Done;
    } else {
        settle_failure(shard, config, options, emit);
    }
}

/// A worker attempt failed (bad exit, kill, or spawn failure): retry with
/// backoff or quarantine.
fn settle_failure(
    shard: &mut ShardCtx,
    config: &SimConfig,
    options: &CampaignOptions,
    emit: &impl Fn(Event),
) {
    if options.retry.may_retry(shard.attempt) {
        let backoff = options
            .retry
            .backoff(config.seed, shard.plan.index, shard.attempt);
        shard.restarts += 1;
        emit(Event::WorkerRestarted {
            shard: shard.plan.index,
            attempt: shard.attempt + 1,
            backoff_ms: backoff.as_millis() as u64,
        });
        shard.state = ShardState::Backoff {
            until: Instant::now() + backoff,
        };
    } else {
        emit(Event::ShardQuarantined {
            shard: shard.plan.index,
            attempts: shard.attempt,
            completed: checkpointed_in_range(&shard.plan, config),
        });
        shard.state = ShardState::Quarantined;
    }
}

/// How many of the shard's assigned replications its checkpoint holds.
/// Damage degrades to the fallback chain; an unusable checkpoint counts 0.
fn checkpointed_in_range(plan: &ShardPlan, config: &SimConfig) -> usize {
    match checkpoint::load_with_fallback(&plan.checkpoint, config) {
        Ok((results, _)) => results
            .keys()
            .filter(|rep| plan.range.contains(rep))
            .count(),
        Err(_) => 0,
    }
}

/// The standard worker-side [`RunOptions`](crate::runner::RunOptions) for a
/// shard: checkpoint after every replication, heartbeat at `interval`.
/// The caller supplies the recorder (typically a
/// [`vbr_obs::JsonlRecorder::append`] on the shard's events file).
pub fn worker_options(
    plan_checkpoint: impl Into<PathBuf>,
    range: std::ops::Range<usize>,
    heartbeat: Duration,
    recorder: Option<Arc<dyn Recorder>>,
) -> crate::runner::RunOptions {
    crate::runner::RunOptions {
        checkpoint: Some(CheckpointPolicy::new(plan_checkpoint)),
        replication_range: Some(range),
        heartbeat: Some(heartbeat),
        recorder,
        ..crate::runner::RunOptions::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(replications: usize) -> SimConfig {
        SimConfig {
            n_sources: 2,
            capacity_per_source: 120.0,
            buffers_total: vec![0.0, 50.0],
            frames_per_replication: 1_000,
            warmup_frames: 100,
            replications,
            seed: 7,
            ts: 0.04,
            track_bop: false,
        }
    }

    #[test]
    fn shard_planner_partitions_exactly() {
        let dir = PathBuf::from("/tmp/c");
        let plans = plan_shards(&config(10), 4, &dir);
        assert_eq!(plans.len(), 4);
        let ranges: Vec<_> = plans.iter().map(|p| p.range.clone()).collect();
        assert_eq!(ranges, vec![0..3, 3..6, 6..8, 8..10]);
        // Contiguous, disjoint, complete.
        assert_eq!(ranges.iter().map(|r| r.len()).sum::<usize>(), 10);
        for w in plans.windows(2) {
            assert_eq!(w[0].range.end, w[1].range.start);
        }
        // Distinct artifact paths per shard.
        assert_eq!(plans[0].checkpoint, dir.join("shard-0.ckpt"));
        assert_eq!(plans[3].events, dir.join("shard-3.events.jsonl"));
    }

    #[test]
    fn shard_planner_clamps_to_replications() {
        let plans = plan_shards(&config(3), 8, &PathBuf::from("/tmp/c"));
        assert_eq!(plans.len(), 3, "never more shards than replications");
        assert!(plans.iter().all(|p| p.range.len() == 1));
        let plans = plan_shards(&config(3), 0, &PathBuf::from("/tmp/c"));
        assert_eq!(plans.len(), 1, "zero shards clamps to one");
        assert_eq!(plans[0].range, 0..3);
    }

    /// The supervisor's stream reader is now the shared [`Tailer`]; this
    /// pins the supervision-critical contract (complete lines only, partial
    /// tail truncation at a line boundary) at the call site.
    #[test]
    fn supervisor_tailer_consumes_only_complete_lines() {
        let dir = std::env::temp_dir().join("vbr_sim_event_tail_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("t.jsonl");
        std::fs::write(&path, "{\"a\":1}\n{\"b\":2}\n{\"par").expect("write");
        let mut tail = Tailer::new(path.clone());
        let polled = tail.poll();
        assert_eq!(polled.lines, vec!["{\"a\":1}", "{\"b\":2}"]);
        assert_eq!(polled.size, 21);
        assert_eq!(tail.offset(), 16, "partial tail left unconsumed");

        // The partial line completes: consumed on the next poll.
        std::fs::write(&path, "{\"a\":1}\n{\"b\":2}\n{\"part\":3}\n").expect("write");
        assert_eq!(tail.poll().lines, vec!["{\"part\":3}"]);

        // Truncation discards a fresh partial tail at the line boundary.
        std::fs::write(&path, "{\"a\":1}\n{\"b\":2}\n{\"part\":3}\n{\"ha").expect("write");
        assert!(tail.poll().lines.is_empty());
        tail.truncate_partial_tail();
        let body = std::fs::read_to_string(&path).expect("read");
        assert!(body.ends_with("{\"part\":3}\n"), "{body:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn next_wait_stays_between_the_floor_and_the_poll() {
        let poll = Duration::from_millis(250);
        for rep_s in [
            None,
            Some(0.0),
            Some(1e-6),
            Some(0.0075),
            Some(10.0),
            Some(f64::NAN),
        ] {
            for remaining in [vec![], vec![0], vec![1], vec![3, 40], vec![256, 0, 7]] {
                let wait = next_wait(poll, rep_s, remaining.clone());
                assert!(
                    (EXIT_POLL..=poll).contains(&wait),
                    "{wait:?} for {rep_s:?} and {remaining:?}"
                );
            }
        }
        // A poll shorter than the floor is never lengthened.
        let short = Duration::from_micros(200);
        assert_eq!(next_wait(short, Some(0.0075), [0, 2]), short);
    }

    #[test]
    fn next_wait_polls_until_a_running_shard_reports() {
        let poll = Duration::from_millis(250);
        assert_eq!(next_wait(poll, None, []), poll);
        assert_eq!(next_wait(poll, Some(0.0075), []), poll);
        // Reports without a replication time to scale them wait a poll.
        assert_eq!(next_wait(poll, None, [5]), poll);
    }

    #[test]
    fn next_wait_wakes_at_the_earliest_predicted_exit() {
        let poll = Duration::from_millis(250);
        // 256 left at 7.5 ms each is far beyond one poll.
        assert_eq!(next_wait(poll, Some(0.0075), [256]), poll);
        // The earliest of several running shards sets the wake-up.
        let wait = next_wait(poll, Some(0.0075), [40, 4]);
        assert_eq!(wait, Duration::from_secs_f64(0.0075 * 4.0));
        // A shard with nothing left is waited on at the floor, estimate or
        // not.
        assert_eq!(next_wait(poll, Some(0.0075), [12, 0]), EXIT_POLL);
        assert_eq!(next_wait(poll, None, [0]), EXIT_POLL);
    }

    #[test]
    fn worker_options_wire_the_shard_contract() {
        let opts = worker_options(
            "/tmp/s.ckpt",
            3..7,
            Duration::from_millis(200),
            None,
        );
        assert_eq!(opts.replication_range, Some(3..7));
        assert_eq!(opts.heartbeat, Some(Duration::from_millis(200)));
        let policy = opts.checkpoint.expect("checkpoint set");
        assert_eq!(policy.path, PathBuf::from("/tmp/s.ckpt"));
        assert_eq!(policy.every, 1, "checkpoint after every replication");
    }
}
