//! Fault-injection suite: every failure mode the runner can hit must come
//! back as a typed [`SimError`] or a degraded-but-honest partial result —
//! never a panic, never silently poisoned estimates.

use lrd_video::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use vbr_sim::error::{CheckpointErrorKind, FaultSite};
use vbr_sim::{verify_checkpoint, Event, MemoryRecorder, CHECKPOINT_VERSION};

/// A model that emits a configurable bad value after `after` clean frames.
#[derive(Debug, Clone)]
struct FaultyModel {
    after: u64,
    emitted: u64,
    bad: f64,
}

impl FaultyModel {
    fn new(after: u64, bad: f64) -> Self {
        Self {
            after,
            emitted: 0,
            bad,
        }
    }
}

impl FrameProcess for FaultyModel {
    fn next_frame(&mut self, _rng: &mut dyn rand::RngCore) -> f64 {
        self.emitted += 1;
        if self.emitted > self.after {
            self.bad
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
        let mut r = vec![0.0; max_lag + 1];
        r[0] = 1.0;
        r
    }
    fn reset(&mut self, _rng: &mut dyn rand::RngCore) {
        self.emitted = 0;
    }
    fn boxed_clone(&self) -> Box<dyn FrameProcess> {
        Box::new(self.clone())
    }
    fn label(&self) -> String {
        "faulty".into()
    }
}

fn small_config() -> SimConfig {
    SimConfig {
        n_sources: 3,
        capacity_per_source: 120.0,
        buffers_total: vec![0.0, 50.0],
        frames_per_replication: 2_000,
        warmup_frames: 100,
        replications: 3,
        seed: 41,
        ts: 0.04,
        track_bop: false,
    }
}

#[test]
fn invalid_configs_come_back_typed() {
    let proto = GaussianAr1::new(100.0, 10.0, 0.5);
    let cases: Vec<(&str, SimConfig)> = vec![
        ("n_sources", {
            let mut c = small_config();
            c.n_sources = 0;
            c
        }),
        ("capacity_per_source", {
            let mut c = small_config();
            c.capacity_per_source = f64::NAN;
            c
        }),
        ("buffers_total", {
            let mut c = small_config();
            c.buffers_total = vec![];
            c
        }),
        ("buffers_total", {
            let mut c = small_config();
            c.buffers_total = vec![10.0, 10.0];
            c
        }),
        ("buffers_total", {
            let mut c = small_config();
            c.buffers_total = vec![-5.0, 10.0];
            c
        }),
        ("frames_per_replication", {
            let mut c = small_config();
            c.frames_per_replication = 0;
            c
        }),
        ("warmup_frames", {
            let mut c = small_config();
            c.warmup_frames = c.frames_per_replication;
            c
        }),
        ("replications", {
            let mut c = small_config();
            c.replications = 0;
            c
        }),
        ("ts", {
            let mut c = small_config();
            c.ts = 0.0;
            c
        }),
    ];
    for (expect_field, cfg) in cases {
        match simulate_clr(&proto, &cfg) {
            Err(SimError::InvalidConfig { field, .. }) => {
                assert_eq!(field, expect_field, "wrong field blamed");
            }
            Err(other) => panic!("expected InvalidConfig({expect_field}), got {other}"),
            Ok(_) => panic!("config with bad {expect_field} must not run"),
        }
    }
}

#[test]
fn nan_emitting_model_is_pinned_to_source_frame_and_seed() {
    let cfg = small_config();
    let proto = FaultyModel::new(500, f64::NAN);
    match simulate_clr(&proto, &cfg) {
        Err(SimError::NumericFault(f)) => {
            assert!(f.value.is_nan());
            assert!(matches!(f.site, FaultSite::Source(_)));
            assert!(f.replication < cfg.replications);
            assert!(f.frame >= 500 / cfg.n_sources as u64, "frame {}", f.frame);
            assert_eq!(f.seed, cfg.seed, "fault must carry the root seed");
        }
        other => panic!("expected NumericFault, got {other:?}"),
    }
}

#[test]
fn negative_rate_model_is_a_numeric_fault_not_a_panic() {
    let cfg = small_config();
    let proto = FaultyModel::new(10, -42.0);
    match simulate_clr(&proto, &cfg) {
        Err(SimError::NumericFault(f)) => {
            assert_eq!(f.value, -42.0);
            assert!(matches!(f.site, FaultSite::Source(_)));
        }
        other => panic!("expected NumericFault, got {other:?}"),
    }
}

#[test]
fn infinite_rate_model_is_a_numeric_fault() {
    let cfg = small_config();
    let proto = FaultyModel::new(0, f64::INFINITY);
    assert!(matches!(
        simulate_clr(&proto, &cfg),
        Err(SimError::NumericFault(_))
    ));
}

#[test]
fn truncated_checkpoint_is_detected_and_falls_back_to_previous_version() {
    let dir = std::env::temp_dir().join("vbr_fault_injection");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("truncated.ckpt");
    let prev = dir.join("truncated.ckpt.prev");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&prev);

    let proto = GaussianAr1::new(100.0, 10.0, 0.5);
    let cfg = small_config();
    let opts = RunOptions {
        checkpoint: Some(CheckpointPolicy::new(&path)),
        ..RunOptions::default()
    };
    let clean = run(&proto, &cfg, &opts).expect("clean run");

    // The v2 format ends with the trailer and its content checksum, and
    // saves rotate the prior version to a `.prev` sibling.
    let body = std::fs::read_to_string(&path).expect("read checkpoint");
    let lines: Vec<&str> = body.lines().collect();
    assert!(lines.last().expect("nonempty").starts_with("checksum "));
    assert!(lines[lines.len() - 2].starts_with("end "));
    assert!(prev.exists(), "saves rotate the previous checkpoint");

    // Simulate a writer that died mid-write: drop the last record, the
    // trailer and the checksum. The damage is detectable as a typed error…
    let cut = lines[..lines.len() - 3].join("\n");
    std::fs::write(&path, cut).expect("write truncated");
    match verify_checkpoint(&path, &cfg) {
        Err(SimError::Checkpoint { kind, path: p }) => {
            assert_eq!(kind, CheckpointErrorKind::Truncated);
            assert_eq!(p, path);
        }
        other => panic!("expected Checkpoint(Truncated), got {other:?}"),
    }

    // …and instead of failing, a run degrades to the rotated previous
    // version, records the fallback, and finishes bit-identically.
    let rec = Arc::new(MemoryRecorder::new());
    let opts = RunOptions {
        checkpoint: Some(CheckpointPolicy::new(&path)),
        recorder: Some(rec.clone()),
        ..RunOptions::default()
    };
    let out = run(&proto, &cfg, &opts).expect("fallback run");
    assert_eq!(rec.count("checkpoint_fallback"), 1);
    assert!(
        rec.events()
            .iter()
            .any(|e| matches!(e, Event::CheckpointFallback { recovered: true, .. })),
        "previous version must have been recovered"
    );
    assert_eq!(out.provenance.completed, cfg.replications);
    for (a, b) in clean.per_buffer.iter().zip(&out.per_buffer) {
        assert_eq!(a.pooled.offered.to_bits(), b.pooled.offered.to_bits());
        assert_eq!(a.pooled.lost.to_bits(), b.pooled.lost.to_bits());
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&prev);
}

#[test]
fn checkpoint_from_different_config_is_rejected() {
    let dir = std::env::temp_dir().join("vbr_fault_injection");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("mismatch.ckpt");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(dir.join("mismatch.ckpt.prev"));

    let proto = GaussianAr1::new(100.0, 10.0, 0.5);
    let cfg = small_config();
    let opts = RunOptions {
        checkpoint: Some(CheckpointPolicy::new(&path)),
        ..RunOptions::default()
    };
    run(&proto, &cfg, &opts).expect("clean run");

    // Same file, different seed: the fingerprint must not match. Silently
    // merging replications from another seed would corrupt the estimates.
    let mut other_cfg = cfg.clone();
    other_cfg.seed ^= 0xFF;
    match run(&proto, &other_cfg, &opts) {
        Err(SimError::Checkpoint {
            kind: CheckpointErrorKind::ConfigMismatch { .. },
            ..
        }) => {}
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
    // But a change in `replications` alone is NOT a mismatch — a checkpoint
    // is a valid prefix of a longer run.
    let mut more_reps = cfg.clone();
    more_reps.replications = 5;
    let out = run(&proto, &more_reps, &opts).expect("prefix resume");
    assert_eq!(out.provenance.resumed, 3);
    assert_eq!(out.provenance.completed, 5);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(dir.join("mismatch.ckpt.prev"));
}

#[test]
fn garbage_checkpoint_is_typed_and_degrades_to_fresh_start() {
    let dir = std::env::temp_dir().join("vbr_fault_injection");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("garbage.ckpt");
    let prev = dir.join("garbage.ckpt.prev");
    let _ = std::fs::remove_file(&prev);
    std::fs::write(&path, "this is not a checkpoint\n").expect("write");

    let proto = GaussianAr1::new(100.0, 10.0, 0.5);
    let cfg = small_config();

    // Typed error on direct inspection…
    match verify_checkpoint(&path, &cfg) {
        Err(SimError::Checkpoint {
            kind: CheckpointErrorKind::BadHeader(_),
            ..
        }) => {}
        other => panic!("expected BadHeader, got {other:?}"),
    }

    // …and with no previous version to fall back to, a run starts fresh
    // (recovered = false) rather than dying on the wreckage.
    let rec = Arc::new(MemoryRecorder::new());
    let opts = RunOptions {
        checkpoint: Some(CheckpointPolicy::new(&path)),
        recorder: Some(rec.clone()),
        ..RunOptions::default()
    };
    let out = run(&proto, &cfg, &opts).expect("fresh-start run");
    assert!(
        rec.events()
            .iter()
            .any(|e| matches!(e, Event::CheckpointFallback { recovered: false, .. })),
        "fallback without a .prev must report recovered = false"
    );
    assert_eq!(out.provenance.resumed, 0);
    assert_eq!(out.provenance.completed, cfg.replications);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&prev);
}

#[test]
fn corrupt_bop_histogram_in_checkpoint_is_a_parse_error_not_a_panic() {
    let dir = std::env::temp_dir().join("vbr_fault_injection");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("bad_bop.ckpt");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(dir.join("bad_bop.ckpt.prev"));

    let proto = GaussianAr1::new(100.0, 10.0, 0.5);
    let mut cfg = small_config();
    cfg.track_bop = true;
    let opts = RunOptions {
        checkpoint: Some(CheckpointPolicy::new(&path)),
        ..RunOptions::default()
    };
    run(&proto, &cfg, &opts).expect("clean run");

    // Flip one bucket count so the histogram no longer sums to its total.
    let body = std::fs::read_to_string(&path).expect("read checkpoint");
    let corrupted: Vec<String> = body
        .lines()
        .map(|l| {
            if let Some(rest) = l.strip_prefix("bop ") {
                let mut tok: Vec<String> = rest.split_whitespace().map(String::from).collect();
                let last = tok.last_mut().expect("bop line has buckets");
                *last = (last.parse::<u64>().expect("bucket") + 1).to_string();
                format!("bop {}", tok.join(" "))
            } else {
                l.to_string()
            }
        })
        .collect();
    std::fs::write(&path, corrupted.join("\n") + "\n").expect("write corrupted");

    // In a v2 file the content checksum catches the flip before any record
    // is even parsed.
    match verify_checkpoint(&path, &cfg) {
        Err(SimError::Checkpoint {
            kind: CheckpointErrorKind::ChecksumMismatch { .. },
            ..
        }) => {}
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }

    // Re-stamp a valid checksum over the damaged body to reach the record
    // parser itself: the inconsistent histogram must be a typed parse error
    // naming the bop line, not a panic.
    let body: String = corrupted
        .iter()
        .filter(|l| !l.starts_with("checksum "))
        .map(|l| format!("{l}\n"))
        .collect();
    let restamped = format!("{body}checksum {:016x}\n", fnv1a(body.as_bytes()));
    std::fs::write(&path, restamped).expect("write re-stamped");
    match verify_checkpoint(&path, &cfg) {
        Err(SimError::Checkpoint {
            kind: CheckpointErrorKind::Parse { message, .. },
            ..
        }) => assert!(message.contains("bop"), "{message}"),
        other => panic!("expected Checkpoint(Parse), got {other:?}"),
    }

    // Either way, a run on the damaged file recovers via fallback instead
    // of erroring out.
    let rec = Arc::new(MemoryRecorder::new());
    let opts = RunOptions {
        checkpoint: Some(CheckpointPolicy::new(&path)),
        recorder: Some(rec.clone()),
        ..RunOptions::default()
    };
    let out = run(&proto, &cfg, &opts).expect("fallback run");
    assert_eq!(rec.count("checkpoint_fallback"), 1);
    assert_eq!(out.provenance.completed, cfg.replications);

    // Older headers are no longer read: v1 (the checksum-less format), v2
    // (Gaussian AR(1) sources drew a fresh polar pair every frame), v3
    // (AR(1) kept its polar spare), v4 (all sources of a replication
    // shared one stream) and v5 (AR(1) carried the frame, not its deviation
    // from the mean); v2 to v5 have the current format.
    let current = std::fs::read_to_string(&path).expect("read rewritten checkpoint");
    for old in [1u32, 2, 3, 4, 5] {
        let body = current.replacen(
            &format!("vbr-sim-checkpoint v{CHECKPOINT_VERSION}"),
            &format!("vbr-sim-checkpoint v{old}"),
            1,
        );
        std::fs::write(&path, body).expect("write old header");
        match verify_checkpoint(&path, &cfg) {
            Err(SimError::Checkpoint {
                kind: CheckpointErrorKind::VersionMismatch { found, expected: 6 },
                ..
            }) => assert_eq!(found, old),
            other => panic!("v{old}: expected VersionMismatch, got {other:?}"),
        }
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(dir.join("bad_bop.ckpt.prev"));
}

#[test]
fn watchdog_budget_yields_partial_result_with_honest_provenance() {
    let proto = GaussianAr1::new(100.0, 10.0, 0.5);
    let mut cfg = small_config();
    cfg.replications = 8;
    let opts = RunOptions {
        threads: Some(1),
        watchdog: Watchdog {
            run_budget: Some(Duration::ZERO),
            ..Watchdog::default()
        },
        ..RunOptions::default()
    };
    let out = run(&proto, &cfg, &opts).expect("degrades, does not error");
    assert_eq!(out.provenance.requested, 8);
    assert_eq!(
        out.provenance.completed, 1,
        "zero budget still completes the first replication"
    );
    assert!(out.provenance.is_partial());
    assert!(out.provenance.budget_exhausted);
    assert_eq!(
        out.frames_total,
        cfg.frames_per_replication as u64,
        "frames_total must reflect completed work only"
    );
    // Estimates exist but are explicitly single-replication.
    assert!(out.per_buffer[0].pooled.offered > 0.0);
}

/// A model whose every frame takes real wall time — lets the
/// per-replication deadline fire deterministically.
#[derive(Debug, Clone)]
struct SlowModel;

impl FrameProcess for SlowModel {
    fn next_frame(&mut self, _rng: &mut dyn rand::RngCore) -> f64 {
        std::thread::sleep(Duration::from_millis(1));
        100.0
    }
    fn mean(&self) -> f64 {
        100.0
    }
    fn variance(&self) -> f64 {
        1.0
    }
    fn autocorrelations(&self, max_lag: usize) -> Vec<f64> {
        let mut r = vec![0.0; max_lag + 1];
        r[0] = 1.0;
        r
    }
    fn reset(&mut self, _rng: &mut dyn rand::RngCore) {}
    fn boxed_clone(&self) -> Box<dyn FrameProcess> {
        Box::new(SlowModel)
    }
    fn label(&self) -> String {
        "slow".into()
    }
}

#[test]
fn all_replications_timing_out_is_a_typed_error_not_a_hang() {
    let mut cfg = small_config();
    cfg.n_sources = 1;
    cfg.warmup_frames = 0;
    cfg.frames_per_replication = 100_000; // ~100 s of sleeps if not cut off
    cfg.replications = 2;
    let opts = RunOptions {
        threads: Some(1),
        watchdog: Watchdog {
            replication_deadline: Some(Duration::from_millis(1)),
            ..Watchdog::default()
        },
        ..RunOptions::default()
    };
    match run(&SlowModel, &cfg, &opts) {
        Err(SimError::NoCompletedReplications {
            requested,
            timed_out,
            ..
        }) => {
            assert_eq!(requested, 2);
            assert_eq!(timed_out, 2);
        }
        other => panic!("expected NoCompletedReplications, got {other:?}"),
    }
}

#[test]
fn empty_source_mix_is_rejected() {
    assert!(matches!(
        SourceMix::new(vec![]),
        Err(SimError::InvalidConfig { field: "mix", .. })
    ));
}

#[test]
fn mix_runner_propagates_numeric_faults() {
    let clean = GaussianAr1::new(100.0, 10.0, 0.5);
    let faulty = FaultyModel::new(200, f64::NAN);
    let mix = SourceMix::new(vec![
        (&clean as &dyn FrameProcess, 2),
        (&faulty as &dyn FrameProcess, 1),
    ])
    .expect("non-empty mix");
    let cfg = small_config();
    match run_mix(&mix, &cfg, &RunOptions::default()) {
        Err(SimError::NumericFault(f)) => {
            assert_eq!(f.site, FaultSite::Source(2), "faulty copy is third");
        }
        other => panic!("expected NumericFault, got {other:?}"),
    }
}

/// A fault is reported where a frame-major scan finds it: at the earliest
/// frame over all sources, and on a tie at the lowest source index, however
/// the runner batches its sources. Here the higher-indexed faulty source
/// goes bad first, inside the first 4096-frame batch and in a later one, and
/// the two also fault on the same frame and in the other order.
#[test]
fn earliest_fault_over_all_sources_is_reported() {
    let clean = GaussianAr1::new(100.0, 10.0, 0.5);
    let mut cfg = small_config();
    cfg.frames_per_replication = 12_000;
    // (frames before the fault, bad value) of sources 1 and 2; source 0 is
    // clean. Expected: (source, frame, value).
    let cases = [
        ((900, f64::NAN), (300, -7.0), (2, 300, -7.0)),
        (
            (5_000, -1.0),
            (4_500, f64::INFINITY),
            (2, 4_500, f64::INFINITY),
        ),
        ((700, -3.0), (700, f64::NAN), (1, 700, -3.0)),
        ((250, -2.0), (8_000, f64::NAN), (1, 250, -2.0)),
    ];
    for ((after1, bad1), (after2, bad2), (source, frame, value)) in cases {
        let first = FaultyModel::new(after1, bad1);
        let second = FaultyModel::new(after2, bad2);
        let mix = SourceMix::new(vec![
            (&clean as &dyn FrameProcess, 1),
            (&first as &dyn FrameProcess, 1),
            (&second as &dyn FrameProcess, 1),
        ])
        .expect("non-empty mix");
        let options = RunOptions {
            threads: Some(1),
            ..RunOptions::default()
        };
        match run_mix(&mix, &cfg, &options) {
            Err(SimError::NumericFault(f)) => {
                let case = format!("faults after {after1} and {after2} frames");
                assert_eq!(f.site, FaultSite::Source(source), "{case}");
                assert_eq!(f.frame, frame, "{case}");
                assert_eq!(f.value.to_bits(), value.to_bits(), "{case}");
                assert_eq!(f.replication, 0, "{case}");
                assert_eq!(f.seed, cfg.seed, "{case}");
            }
            other => panic!("expected NumericFault, got {other:?}"),
        }
    }
}

#[test]
fn model_constructors_reject_bad_parameters_without_panicking() {
    assert!(GaussianAr1::try_new(f64::NAN, 10.0, 0.5).is_err());
    assert!(GaussianAr1::try_new(100.0, -1.0, 0.5).is_err());
    assert!(GaussianAr1::try_new(100.0, 10.0, 1.5).is_err());
    assert!(IidProcess::try_new(Marginal::Gaussian {
        mean: f64::INFINITY,
        sd: 1.0
    })
    .is_err());
    assert!(DarProcess::try_new(DarParams::dar1(1.5, Marginal::paper_gaussian())).is_err());
    let e = DarProcess::try_new(DarParams::dar1(-0.1, Marginal::paper_gaussian())).unwrap_err();
    assert!(e.to_string().contains("rho"), "{e}");
}

/// FNV-1a, the checkpoint's content checksum, for re-stamping an edited file.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}
