//! Chaos tests for the supervised campaign runner: kill, hang and corrupt
//! workers mid-shard and prove the supervisor recovers to the *bit-identical*
//! merged result — or, when a shard is unrecoverable, degrades to an honestly
//! labeled partial result.
//!
//! These drive the real `campaign_run` binary (coordinator + worker
//! processes), not an in-process simulation of failure, so the whole stack is
//! exercised: process spawn, JSONL heartbeats, stall detection, checkpoint
//! rotation/fallback, retry/backoff, quarantine, and the merge.

use std::path::{Path, PathBuf};
use std::process::Command;
use vbr_models::GaussianAr1;
use vbr_sim::{run, RunOptions, SimConfig};

const REPLICATIONS: usize = 6;
const FRAMES: usize = 4_000;

/// The exact config the binary's defaults build for `--replications 6
/// --frames 4000` (everything else default) — the in-process reference must
/// match it field for field or the fingerprints (and results) diverge.
fn reference_config() -> SimConfig {
    SimConfig {
        n_sources: 4,
        capacity_per_source: 538.0,
        buffers_total: vec![0.0, 50.0, 200.0],
        frames_per_replication: FRAMES,
        warmup_frames: FRAMES / 20,
        replications: REPLICATIONS,
        seed: 7,
        ts: 0.04,
        track_bop: false,
    }
}

fn campaign_cmd(dir: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_campaign_run"));
    cmd.args([
        "--replications",
        "6",
        "--frames",
        "4000",
        "--shards",
        "3",
        "--threads",
        "1",
        "--worker-heartbeat-ms",
        "100",
        "--heartbeat-timeout-ms",
        "1500",
        "--poll-ms",
        "25",
        "--backoff-base-ms",
        "50",
        "--dir",
    ])
    .arg(dir)
    .env_remove("VBR_FAULT");
    cmd
}

/// Runs the coordinator and returns its one-line JSON summary (stdout).
fn run_campaign(mut cmd: Command) -> String {
    let out = cmd.output().expect("spawn campaign_run");
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert!(
        out.status.success(),
        "campaign failed: status {:?}\nstdout: {stdout}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .rev()
        .find(|l| l.starts_with('{'))
        .expect("summary JSON line")
        .to_string()
}

/// Extracts `"key":[..]` array contents from the flat summary line.
fn json_array<'a>(summary: &'a str, key: &str) -> Vec<&'a str> {
    let tag = format!("\"{key}\":[");
    let start = summary.find(&tag).expect("key present") + tag.len();
    let end = summary[start..].find(']').expect("terminated array") + start;
    summary[start..end]
        .split(',')
        .map(|s| s.trim().trim_matches('"'))
        .filter(|s| !s.is_empty())
        .collect()
}

/// Extracts a scalar `"key":value` from the flat summary line.
fn json_scalar<'a>(summary: &'a str, key: &str) -> &'a str {
    let tag = format!("\"{key}\":");
    let start = summary.find(&tag).expect("key present") + tag.len();
    let rest = &summary[start..];
    let end = rest.find([',', '}']).expect("terminated value");
    rest[..end].trim()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vbr_campaign_chaos_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn event_count(events: &str, kind: &str) -> usize {
    events
        .lines()
        .filter(|l| l.contains(&format!("\"type\":\"{kind}\"")))
        .count()
}

#[test]
fn fault_free_campaign_is_bit_identical_to_in_process_run() {
    let dir = temp_dir("clean");
    let summary = run_campaign(campaign_cmd(&dir));
    assert_eq!(json_scalar(&summary, "completed"), "6");
    assert_eq!(json_scalar(&summary, "partial"), "false");
    assert_eq!(json_scalar(&summary, "restarts"), "0");

    // Reference: the same experiment in one process, no supervisor at all.
    let config = reference_config();
    let outcome = run(
        &GaussianAr1::new(500.0, 70.0, 0.8),
        &config,
        &RunOptions {
            threads: Some(1),
            ..RunOptions::default()
        },
    )
    .expect("reference run");
    let expected: Vec<String> = outcome
        .per_buffer
        .iter()
        .map(|e| format!("{:016x}", e.pooled.clr().to_bits()))
        .collect();
    assert_eq!(
        json_array(&summary, "clr_bits"),
        expected,
        "multi-process campaign must be bit-identical to the direct run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_campaign_recovers_to_bit_identical_result() {
    // Clean baseline.
    let clean_dir = temp_dir("baseline");
    let clean = run_campaign(campaign_cmd(&clean_dir));
    let clean_bits = json_array(&clean, "clr_bits")
        .into_iter()
        .map(str::to_string)
        .collect::<Vec<_>>();

    // One campaign takes all three fault kinds in different shards:
    // shard 0 owns reps 0..2 (crash at 1), shard 1 owns 2..4 (hang at 3),
    // shard 2 owns 4..6 (corrupt checkpoint + crash at 5). Each fires on
    // attempt 1 only, so every shard recovers on retry.
    let chaos_dir = temp_dir("chaos");
    let mut cmd = campaign_cmd(&chaos_dir);
    cmd.env("VBR_FAULT", "crash@1,hang@3,corrupt-checkpoint@5");
    let chaos = run_campaign(cmd);

    assert_eq!(json_scalar(&chaos, "completed"), "6", "{chaos}");
    assert_eq!(json_scalar(&chaos, "partial"), "false", "{chaos}");
    assert_eq!(json_scalar(&chaos, "quarantined"), "0", "{chaos}");
    let restarts: usize = json_scalar(&chaos, "restarts").parse().expect("restarts");
    assert!(restarts >= 3, "three faults need three restarts: {chaos}");
    assert_eq!(
        json_array(&chaos, "clr_bits"),
        clean_bits,
        "recovered campaign must be bit-identical to the fault-free one"
    );

    // The supervisor's own event stream tells the recovery story.
    let events = std::fs::read_to_string(chaos_dir.join("campaign.events.jsonl"))
        .expect("campaign events");
    assert!(event_count(&events, "campaign_start") == 1, "{events}");
    assert!(event_count(&events, "worker_restarted") >= 3, "{events}");
    assert!(
        event_count(&events, "worker_stalled") >= 1,
        "the hang must be detected: {events}"
    );
    assert_eq!(event_count(&events, "shard_completed"), 3, "{events}");
    assert_eq!(event_count(&events, "shard_quarantined"), 0, "{events}");
    assert!(event_count(&events, "campaign_end") == 1, "{events}");

    // The corrupted shard recovered through the checkpoint fallback chain.
    let fallbacks: usize = json_scalar(&chaos, "fallbacks").parse().expect("fallbacks");
    assert!(fallbacks >= 1, "corrupt checkpoint must trigger fallback: {chaos}");

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&chaos_dir);
}

#[test]
fn permanent_failure_quarantines_with_honest_provenance() {
    // Replication 1 (shard 0) crashes on *every* attempt: the shard can
    // never finish. The supervisor must quarantine it after the retry
    // budget, keep its completed replication 0, and label the merged result
    // partial — 5 of 6 — rather than fail or lie.
    let dir = temp_dir("quarantine");
    let mut cmd = campaign_cmd(&dir);
    cmd.env("VBR_FAULT", "crash@1:*");
    let summary = run_campaign(cmd);

    assert_eq!(json_scalar(&summary, "requested"), "6", "{summary}");
    assert_eq!(json_scalar(&summary, "completed"), "5", "{summary}");
    assert_eq!(json_scalar(&summary, "partial"), "true", "{summary}");
    assert_eq!(json_scalar(&summary, "quarantined"), "1", "{summary}");

    let events =
        std::fs::read_to_string(dir.join("campaign.events.jsonl")).expect("campaign events");
    assert_eq!(event_count(&events, "shard_quarantined"), 1, "{events}");
    assert_eq!(event_count(&events, "shard_completed"), 2, "{events}");

    // The unquarantined shards' replications are still bit-identical to the
    // same replications of a direct run — a partial result is a *subset*,
    // not a different experiment.
    let config = reference_config();
    let outcome = run(
        &GaussianAr1::new(500.0, 70.0, 0.8),
        &config,
        &RunOptions {
            threads: Some(1),
            replication_range: Some(2..6),
            ..RunOptions::default()
        },
    )
    .expect("reference shard runs");
    assert_eq!(outcome.provenance.completed, 4);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn supervisor_survives_a_sigkilled_worker() {
    // Not an injected crash: an actual SIGKILL from outside. `hang@1` parks
    // the first attempt at replication 1's start, after replication 0 is
    // checkpointed, so the kill lands at a known point instead of racing the
    // run; the long stall timeout leaves the restart to the kill alone.
    let dir = temp_dir("sigkill");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_campaign_run"));
    cmd.args([
        "--replications",
        "2",
        "--frames",
        "4000",
        "--shards",
        "1",
        "--threads",
        "1",
        "--worker-heartbeat-ms",
        "50",
        "--heartbeat-timeout-ms",
        "30000",
        "--poll-ms",
        "25",
        "--backoff-base-ms",
        "50",
        "--dir",
    ])
    .arg(&dir)
    .env("VBR_FAULT", "hang@1");
    let mut coordinator = cmd
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn coordinator");

    // Wait for the worker to announce replication 1, then SIGKILL it (the
    // coordinator's child running with --worker).
    let events = dir.join("shard-0.events.jsonl");
    let at_rep_1 = || {
        std::fs::read_to_string(&events).is_ok_and(|text| {
            text.lines().any(|line| {
                matches!(
                    vbr_obs::jsonl::decode_line(line).map(|s| s.event),
                    Ok(vbr_obs::Event::ReplicationStart { replication: 1, .. })
                )
            })
        })
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while !at_rep_1() {
        assert!(
            coordinator.try_wait().expect("try_wait").is_none(),
            "campaign ended before the worker reached replication 1"
        );
        assert!(
            std::time::Instant::now() < deadline,
            "worker never reached replication 1"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let coord_pid = coordinator.id().to_string();
    let killed = Command::new("pkill")
        .args(["-9", "-P", &coord_pid, "-f", "campaign_run.*--worker"])
        .status()
        .expect("run pkill");
    assert!(killed.success(), "no worker was killed");

    let out = coordinator.wait_with_output().expect("coordinator output");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "coordinator must survive: {stdout}"
    );
    let summary = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with('{'))
        .expect("summary line")
        .to_string();
    assert_eq!(json_scalar(&summary, "completed"), "2", "{summary}");
    assert_eq!(json_scalar(&summary, "partial"), "false", "{summary}");
    let restarts: usize = json_scalar(&summary, "restarts").parse().expect("restarts");
    assert!(restarts >= 1, "killed worker must be restarted: {summary}");
    assert_eq!(json_scalar(&summary, "stalls"), "0", "the kill, not a stall: {summary}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The supervisor returns at the first poll that sees its last worker exit,
/// not one poll later, and reads that worker's last event lines first. A
/// long poll makes the extra sleep visible: the workers finish well within
/// the first one, so the campaign should take one poll, not two.
#[test]
fn supervisor_returns_once_the_last_shard_settles() {
    let dir = temp_dir("settle");
    let poll = std::time::Duration::from_secs(2);
    let mut options = vbr_sim::CampaignOptions::new(&dir);
    options.shards = 2;
    options.poll_interval = poll;
    let config = reference_config();
    let campaign = vbr_sim::run_campaign(&config, &options, |plan, _attempt| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_campaign_run"));
        cmd.args(["--worker", "--replications", "6", "--frames", "4000", "--threads", "1"])
            .arg("--range")
            .arg(format!("{}:{}", plan.range.start, plan.range.end))
            .arg("--shard")
            .arg(plan.index.to_string())
            .arg("--checkpoint")
            .arg(&plan.checkpoint)
            .arg("--events")
            .arg(&plan.events)
            .env_remove("VBR_FAULT");
        cmd
    })
    .expect("fault-free campaign");
    let report = &campaign.report;
    assert_eq!(campaign.outcome.provenance.completed, REPLICATIONS);
    assert_eq!(report.restarts, 0);
    assert!(
        report.wall < poll.mul_f64(1.75),
        "campaign took {:?} with a {poll:?} poll: it slept past its last shard's exit",
        report.wall
    );
    assert_eq!(
        report.rep_duration_s.count, REPLICATIONS as u64,
        "every worker's replication_end line must be read before the merge"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Compile-time guard: the reference config in this file and the binary's
/// defaults must both fingerprint the same way as a worker sees them. If the
/// binary's defaults drift, the bit-identity tests above fail loudly — this
/// test just localizes the cause.
#[test]
fn reference_config_matches_binary_defaults() {
    let dir = temp_dir("fingerprint");
    std::fs::create_dir_all(&dir).expect("dir");
    let summary = run_campaign(campaign_cmd(&dir));
    assert_eq!(json_scalar(&summary, "requested"), "6");
    let config = reference_config();
    // The shard checkpoints the binary wrote must load under our reference
    // config — fingerprint match is exactly config-field match.
    let verified = vbr_sim::verify_checkpoint(&dir.join("shard-0.ckpt"), &config)
        .expect("binary checkpoint must verify against the reference config");
    assert_eq!(verified, 2, "shard 0 owns replications 0..2");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `campaign_run` rejects argv it does not know before anything runs: the
/// retired `--bench OUT.json`, a misspelt config flag and a value flag that
/// ends argv each exit 2, name the offending token, and leave no campaign
/// dir (and no `--bench` output) behind.
#[test]
fn unknown_flags_exit_2_without_creating_the_campaign_dir() {
    let dir = temp_dir("unknown_flag");
    let bench_out = dir.with_extension("json");
    let _ = std::fs::remove_file(&bench_out);
    let bench_arg = bench_out.to_string_lossy().into_owned();
    for (extra, token) in [
        (vec!["--bench", bench_arg.as_str()], "--bench"),
        (vec!["--hurts", "0.7"], "--hurts"),
        (vec!["--seed"], "--seed"),
    ] {
        let out = campaign_cmd(&dir)
            .args(&extra)
            .output()
            .expect("spawn campaign_run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {stderr}");
        assert!(stderr.contains(token), "{extra:?}: {stderr}");
        assert!(!dir.exists(), "{extra:?} created {}", dir.display());
    }
    assert!(!bench_out.exists(), "--bench wrote {}", bench_out.display());
}
