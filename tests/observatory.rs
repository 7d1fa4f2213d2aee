//! Integration tests for the live campaign observatory: golden-snapshot
//! rendering from a recorded fixture, order-independence of cross-shard
//! aggregation, stamped event streams from real worker processes, the
//! `--report` post-mortem mode, and a live `--serve` Prometheus scrape.
//!
//! The fixture (`tests/fixtures/observatory.events.jsonl`) is a recorded
//! 2-shard campaign in which shard 1 stalls once and is restarted; its
//! renders are committed as `observatory_dashboard.golden`, so any change
//! to the dashboard or timeline format is a reviewed diff, not drift.

use lrd_video::obs::jsonl::parse_flat_object;
use lrd_video::obs::{render_campaign_prometheus, render_dashboard, CampaignAggregator};
use std::io::{Read, Write};
use std::path::Path;
use std::process::Command;

const FIXTURE: &str = include_str!("fixtures/observatory.events.jsonl");
const GOLDEN: &str = include_str!("fixtures/observatory_dashboard.golden");

fn replay_fixture() -> CampaignAggregator {
    let mut agg = CampaignAggregator::new(30_000).with_timeline();
    assert_eq!(agg.ingest_stream(FIXTURE), 37);
    let (events, skipped) = agg.counts();
    assert_eq!((events, skipped), (37, 0), "fixture must aggregate cleanly");
    agg
}

#[test]
fn golden_dashboard_matches_recorded_fixture() {
    let agg = replay_fixture();
    let now = agg.latest_ts_ms().expect("fixture carries ts_ms stamps");
    let rendered = format!(
        "{}{}",
        agg.render_timeline(),
        render_dashboard(&agg.snapshot(now), 30, false)
    );
    assert_eq!(
        rendered, GOLDEN,
        "dashboard/timeline drifted from the committed golden snapshot; \
         if intentional, regenerate via `cargo run --example campaign_observatory`"
    );
}

#[test]
fn aggregation_is_order_independent() {
    let forward = replay_fixture();
    let now = forward.latest_ts_ms().expect("stamps");
    let fwd = forward.snapshot(now);

    // Re-ingest the same stream fully reversed: heartbeats arrive before
    // their replication_start, shard completions before spawns, the
    // campaign_end first. Max-merge aggregation must converge to the same
    // snapshot — this is what makes multi-file tailing safe, since the
    // coordinator and shard streams interleave arbitrarily.
    let mut reversed = CampaignAggregator::new(30_000);
    let lines: Vec<&str> = FIXTURE.lines().rev().collect();
    for line in lines {
        assert!(reversed.ingest_line(line));
    }
    let rev = reversed.snapshot(now);

    assert_eq!(fwd.completed, rev.completed);
    assert_eq!(fwd.requested, rev.requested);
    assert_eq!(fwd.restarts, rev.restarts);
    assert_eq!(fwd.stalls, rev.stalls);
    assert_eq!(fwd.done, rev.done);
    assert_eq!(fwd.clr_b0_count, rev.clr_b0_count);
    for (f, r) in fwd.shards.iter().zip(&rev.shards) {
        assert_eq!(f.phase, r.phase, "shard {} phase", f.index);
        assert_eq!(f.completed, r.completed, "shard {} completed", f.index);
        assert_eq!(f.attempts, r.attempts, "shard {} attempts", f.index);
    }
    assert_eq!(
        render_dashboard(&fwd, 30, false),
        render_dashboard(&rev, 30, false)
    );
}

#[test]
fn fixture_prometheus_exposition_has_campaign_families() {
    let agg = replay_fixture();
    let now = agg.latest_ts_ms().expect("stamps");
    let text = render_campaign_prometheus(&agg.snapshot(now));
    for needle in [
        "vbr_campaign_shards 2e0",
        "vbr_campaign_replications_completed 6e0",
        "vbr_campaign_restarts_total 1",
        "vbr_campaign_stalls_total 1",
        "vbr_campaign_done 1e0",
        "vbr_campaign_shard_attempts{shard=\"1\"} 2",
        "vbr_campaign_shard_phase{shard=\"0\",phase=\"done\"} 1",
        "vbr_campaign_replication_duration_seconds_count 6",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
}

// --- end-to-end tests driving the real campaign_run binary ---------------

fn campaign_cmd(dir: &Path, frames: &str, heartbeat_ms: &str) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_campaign_run"));
    cmd.args([
        "--replications",
        "4",
        "--frames",
        frames,
        "--shards",
        "2",
        "--threads",
        "1",
        "--worker-heartbeat-ms",
        heartbeat_ms,
        "--heartbeat-timeout-ms",
        "30000",
        "--poll-ms",
        "25",
        "--dir",
    ])
    .arg(dir)
    .env_remove("VBR_FAULT");
    cmd
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("vbr_observatory_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn worker_streams_are_stamped_with_ts_and_shard() {
    let dir = temp_dir("stamps");
    // 1 ms heartbeats so even an optimised build, whose replications of
    // 400000 frames finish in ~25 ms, emits several per shard.
    let out = campaign_cmd(&dir, "400000", "1").output().expect("run campaign");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    for shard in 0..2usize {
        let path = dir.join(format!("shard-{shard}.events.jsonl"));
        let body = std::fs::read_to_string(&path).expect("shard stream");
        let mut last_ts = 0u64;
        let mut heartbeats = 0usize;
        for line in body.lines() {
            let fields = parse_flat_object(line).expect("stamped line stays valid JSON");
            let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
            let ts = get("ts_ms")
                .and_then(|v| v.as_u64())
                .unwrap_or_else(|| panic!("missing ts_ms in {line}"));
            assert!(ts >= last_ts, "ts_ms went backwards within one stream");
            last_ts = ts;
            let s = get("shard")
                .and_then(|v| v.as_u64())
                .unwrap_or_else(|| panic!("missing shard in {line}"));
            assert_eq!(s as usize, shard, "stream carries its own shard id");
            if get("type").and_then(|v| v.as_str()) == Some("heartbeat") {
                heartbeats += 1;
            }
        }
        assert!(heartbeats > 0, "shard {shard} recorded no heartbeats");
    }
    // The coordinator stream is stamped too (no shard injection needed —
    // its lifecycle events carry their own `shard` fields).
    let coord = std::fs::read_to_string(dir.join("campaign.events.jsonl")).expect("coord");
    assert!(coord.lines().all(|l| l.contains("\"ts_ms\":")));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_mode_replays_a_finished_campaign() {
    let dir = temp_dir("report");
    let out = campaign_cmd(&dir, "2000", "100").output().expect("run campaign");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let report = Command::new(env!("CARGO_BIN_EXE_campaign_run"))
        .arg("--report")
        .arg(&dir)
        .output()
        .expect("run report");
    assert!(
        report.status.success(),
        "{}",
        String::from_utf8_lossy(&report.stderr)
    );
    let stderr = String::from_utf8_lossy(&report.stderr);
    assert!(stderr.contains("timeline:"), "no timeline in:\n{stderr}");
    assert!(stderr.contains("campaign_start"), "no lifecycle in:\n{stderr}");
    assert!(
        stderr.contains("campaign 4/4 replications"),
        "dashboard header missing in:\n{stderr}"
    );

    // stdout is one machine-readable JSON object.
    let stdout = String::from_utf8_lossy(&report.stdout);
    let json = stdout.trim();
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    for key in [
        "\"requested\":4",
        "\"completed\":4",
        "\"partial\":false",
        "\"done\":true",
        "\"shard_reports\"",
        "\"rep_duration_p50_s\"",
    ] {
        assert!(json.contains(key), "missing `{key}` in:\n{json}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_answers_a_live_scrape() {
    let dir = temp_dir("serve");
    // Port chosen from the test process id to avoid clashing with parallel
    // test runs on shared CI hosts.
    let port = 21000 + (std::process::id() % 20000) as u16;
    let addr = format!("127.0.0.1:{port}");
    // Enough frames that the campaign is still running when the scrape
    // lands, also in an optimised build (the endpoint stays up for the
    // whole run either way).
    let mut child = campaign_cmd(&dir, "10000000", "100")
        .arg("--serve")
        .arg(&addr)
        .spawn()
        .expect("spawn campaign with --serve");

    let mut scrape = String::new();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while std::time::Instant::now() < deadline {
        if let Ok(mut stream) = std::net::TcpStream::connect(&addr) {
            let _ = stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
            let mut buf = String::new();
            // Retry until the tailer has ingested campaign_start (right
            // after startup the aggregate is still empty — shards reads 0).
            if stream.read_to_string(&mut buf).is_ok()
                && buf.contains("vbr_campaign_shards 2e0")
            {
                scrape = buf;
                break;
            }
        }
        if child.try_wait().expect("poll child").is_some() {
            panic!("campaign exited before a scrape succeeded");
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let status = child.wait().expect("wait campaign");
    assert!(status.success(), "campaign failed under --serve");

    assert!(scrape.starts_with("HTTP/1.1 200 OK"), "{scrape}");
    assert!(
        scrape.contains("Content-Type: text/plain; version=0.0.4"),
        "{scrape}"
    );
    for family in [
        "vbr_campaign_shards 2e0",
        "vbr_campaign_replications_requested 4e0",
        "vbr_campaign_shard_phase",
    ] {
        assert!(scrape.contains(family), "missing `{family}` in:\n{scrape}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
