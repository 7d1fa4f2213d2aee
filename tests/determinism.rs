//! Reproducibility guarantees: every experiment in the workspace is a pure
//! function of its seed, independent of thread scheduling.

use lrd_video::prelude::*;

#[test]
fn simulation_bitwise_reproducible() {
    let z = paper::build_z(0.9);
    let cfg = SimConfig {
        n_sources: 10,
        capacity_per_source: 538.0,
        buffers_total: vec![0.0, 500.0, 2000.0],
        frames_per_replication: 8_000,
        warmup_frames: 200,
        replications: 5,
        seed: 0xABCD,
        ts: 0.04,
        track_bop: true,
    };
    let a = simulate_clr(&z, &cfg).expect("valid sim config");
    let b = simulate_clr(&z, &cfg).expect("valid sim config");
    for (x, y) in a.per_buffer.iter().zip(&b.per_buffer) {
        assert_eq!(x.pooled, y.pooled, "pooled accounts must match bitwise");
        assert_eq!(x.clr.mean, y.clr.mean);
    }
    assert_eq!(a.bop, b.bop);
}

#[test]
fn different_seeds_differ() {
    let z = paper::build_z(0.9);
    let mut cfg = SimConfig::paper_defaults(vec![100.0], 4_000, 3);
    cfg.n_sources = 5;
    cfg.capacity_per_source = 520.0;
    let a = simulate_clr(&z, &cfg).expect("valid sim config");
    cfg.seed ^= 1;
    let b = simulate_clr(&z, &cfg).expect("valid sim config");
    assert_ne!(
        a.per_buffer[0].pooled.offered,
        b.per_buffer[0].pooled.offered,
        "different seeds must explore different paths"
    );
}

#[test]
fn model_generation_reproducible_through_trait_objects() {
    // boxed_clone + reset with the same stream reproduces paths exactly.
    let models: Vec<Box<dyn FrameProcess>> = vec![
        Box::new(paper::build_z(0.975)),
        Box::new(paper::build_s(0.975, 2)),
        Box::new(paper::build_l()),
        Box::new(paper::build_v(1.5)),
    ];
    for proto in &models {
        let mut a = proto.boxed_clone();
        let mut b = proto.boxed_clone();
        let mut ra = vbr_stats::rng::Xoshiro256PlusPlus::from_seed_u64(5);
        let mut rb = vbr_stats::rng::Xoshiro256PlusPlus::from_seed_u64(5);
        a.reset(&mut ra);
        b.reset(&mut rb);
        for i in 0..200 {
            let xa = a.next_frame(&mut ra);
            let xb = b.next_frame(&mut rb);
            assert_eq!(xa, xb, "{} frame {i}", proto.label());
        }
    }
}

/// The checkpoint/resume contract: a run killed after k replications and
/// resumed from its checkpoint is **bit-identical** to an uninterrupted run —
/// pooled accounts, CI endpoints and BOP curve all match to the last bit.
///
/// The "kill" is simulated faithfully: run the first k replications only
/// (a config with `replications = k` — valid because replication r depends
/// only on `(config, r)` via `root.split(r)`, whose `.split(j)` feeds
/// source j, and the checkpoint fingerprint deliberately excludes the
/// replication count), keep the checkpoint it wrote, then resume with the
/// full config against that file.
#[test]
fn checkpoint_resume_is_bit_identical() {
    let dir = std::env::temp_dir().join("vbr_determinism_ckpt");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("resume.ckpt");
    // Remove the rotated `.prev` too: the loader falls back to it, so a
    // leftover from a previous run would satisfy the whole request from disk
    // and phase 1 below would never write a fresh checkpoint.
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("ckpt.prev"));

    let z = paper::build_z(0.9);
    let mut cfg = SimConfig {
        n_sources: 8,
        capacity_per_source: 538.0,
        buffers_total: vec![0.0, 400.0, 1500.0],
        frames_per_replication: 6_000,
        warmup_frames: 150,
        replications: 6,
        seed: 0xD00D,
        ts: 0.04,
        track_bop: true,
    };

    // Reference: uninterrupted run, no checkpointing at all.
    let uninterrupted = simulate_clr(&z, &cfg).expect("valid sim config");

    // Phase 1: "killed" after 3 of 6 replications.
    let opts = RunOptions {
        checkpoint: Some(CheckpointPolicy::new(&path)),
        ..RunOptions::default()
    };
    cfg.replications = 3;
    run(&z, &cfg, &opts).expect("first half");
    assert!(path.exists(), "checkpoint must have been written");

    // Phase 2: resume with the full request; only reps 3..6 are computed.
    cfg.replications = 6;
    let resumed = run(&z, &cfg, &opts).expect("resumed run");
    assert_eq!(resumed.provenance.resumed, 3, "3 reps loaded from disk");
    assert_eq!(resumed.provenance.completed, 6);
    assert!(!resumed.provenance.is_partial());

    for (a, b) in uninterrupted.per_buffer.iter().zip(&resumed.per_buffer) {
        assert_eq!(
            a.pooled, b.pooled,
            "resumed pooled accounts must match uninterrupted bitwise"
        );
        assert_eq!(a.clr.mean.to_bits(), b.clr.mean.to_bits());
        assert_eq!(a.clr.half_width.to_bits(), b.clr.half_width.to_bits());
    }
    assert_eq!(uninterrupted.bop, resumed.bop, "BOP curves must match");
    assert_eq!(uninterrupted.frames_total, resumed.frames_total);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("ckpt.prev"));
}

/// Asserts two outcomes are bit-identical: pooled accounts, CLR means and
/// the BOP curve.
fn assert_bit_identical(a: &SimOutcome, b: &SimOutcome, what: &str) {
    assert_eq!(a.per_buffer.len(), b.per_buffer.len(), "{what}");
    for (x, y) in a.per_buffer.iter().zip(&b.per_buffer) {
        assert_eq!(x.pooled, y.pooled, "{what}: pooled accounts");
        assert_eq!(x.clr.mean.to_bits(), y.clr.mean.to_bits(), "{what}: CLR mean");
    }
    assert_eq!(a.bop, b.bop, "{what}: BOP curve");
    assert_eq!(a.frames_total, b.frames_total, "{what}: frames");
}

/// There is one replication loop: `run` is the one-group `run_mix`, and a
/// heterogeneous mix gets the same thread-count and resume invariance as a
/// homogeneous run.
#[test]
fn one_runner_path_for_homogeneous_runs_and_mixes() {
    let z = paper::build_z(0.9);
    let s = paper::build_s(0.9, 1);
    let mut cfg = SimConfig {
        n_sources: 6,
        capacity_per_source: 538.0,
        buffers_total: vec![0.0, 300.0, 1200.0],
        frames_per_replication: 5_000,
        warmup_frames: 100,
        replications: 4,
        seed: 0x0DE_1A7,
        ts: 0.04,
        track_bop: true,
    };

    let homogeneous = run(&z, &cfg, &RunOptions::default()).expect("valid run");
    let one_group = SourceMix::new(vec![(&z as &dyn FrameProcess, cfg.n_sources)]).expect("mix");
    let via_mix = run_mix(&one_group, &cfg, &RunOptions::default()).expect("valid mix run");
    assert_bit_identical(&homogeneous, &via_mix, "run vs one-group run_mix");

    let mix = SourceMix::new(vec![
        (&z as &dyn FrameProcess, 4),
        (&s as &dyn FrameProcess, 2),
    ])
    .expect("mix");
    let with_threads = |threads| RunOptions {
        threads: Some(threads),
        ..RunOptions::default()
    };
    let one = run_mix(&mix, &cfg, &with_threads(1)).expect("1 thread");
    let two = run_mix(&mix, &cfg, &with_threads(2)).expect("2 threads");
    assert_bit_identical(&one, &two, "mix at 1 vs 2 threads");
    assert_ne!(
        one.per_buffer[0].pooled, homogeneous.per_buffer[0].pooled,
        "the mix must actually differ from the homogeneous run"
    );

    let dir = std::env::temp_dir().join("vbr_determinism_mix_ckpt");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("mix.ckpt");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("ckpt.prev"));
    let opts = RunOptions {
        checkpoint: Some(CheckpointPolicy::new(&path)),
        ..with_threads(2)
    };
    cfg.replications = 2;
    run_mix(&mix, &cfg, &opts).expect("first half");
    assert!(path.exists(), "checkpoint must have been written");
    cfg.replications = 4;
    let resumed = run_mix(&mix, &cfg, &opts).expect("resumed mix run");
    assert_eq!(resumed.provenance.resumed, 2, "2 reps loaded from disk");
    assert_eq!(resumed.provenance.completed, 4);
    assert_bit_identical(&one, &resumed, "mix uninterrupted vs resumed");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("ckpt.prev"));
}

/// The batched-generation contract from the pipeline PR: `fill_frames` must
/// be **bit-identical** to repeated `next_frame` for every model in the
/// workspace — same values, same RNG draw order. Chunk sizes are chosen to
/// straddle synthesis block boundaries (the MWM refill path), hit
/// the single-frame degenerate case, and exercise large batches.
#[test]
fn fill_frames_bit_identical_to_next_frame_for_every_model() {
    use rand::RngCore;
    use vbr_models::{
        CleggParams, CleggProcess, GaussianAr1, IidProcess, Marginal, MwmParams, MwmProcess,
    };

    let trace = vbr_sim::TraceProcess::new(
        (0..37).map(|i| 400.0 + 10.0 * i as f64).collect(),
        "synthetic-trace",
        8,
    );
    let models: Vec<Box<dyn FrameProcess>> = vec![
        Box::new(paper::build_z(0.975)),
        Box::new(paper::build_v(9.0)),
        Box::new(paper::build_s(0.975, 2)),
        Box::new(paper::build_l()),
        Box::new(GaussianAr1::new(500.0, 70.0, 0.8)),
        Box::new(IidProcess::new(Marginal::Gaussian {
            mean: 500.0,
            sd: 70.0,
        })),
        Box::new(trace),
        Box::new(CleggProcess::new(CleggParams {
            h: 0.8,
            chains: 7,
            mean: 500.0,
            sd: 70.0,
        })),
        // levels 6 → 64-frame synthesis blocks, so the chunk sequence below
        // crosses several cascade refills and ends mid-block.
        Box::new(MwmProcess::new(MwmParams {
            mean: 500.0,
            sd: 70.0,
            h: 0.8,
            levels: 6,
        })),
    ];
    // Uneven chunks: straddle the 64-frame MWM blocks, include 1-frame
    // and empty batches, and end mid-block.
    let chunks = [1usize, 7, 64, 0, 129, 5, 300, 1];
    let total: usize = chunks.iter().sum();
    for proto in &models {
        let mut scalar = proto.boxed_clone();
        let mut batched = proto.boxed_clone();
        let mut rs = vbr_stats::rng::Xoshiro256PlusPlus::from_seed_u64(0x5EED);
        let mut rb = vbr_stats::rng::Xoshiro256PlusPlus::from_seed_u64(0x5EED);
        scalar.reset(&mut rs);
        batched.reset(&mut rb);

        let reference: Vec<f64> = (0..total).map(|_| scalar.next_frame(&mut rs)).collect();
        let mut got = vec![0.0_f64; total];
        let mut off = 0;
        for &c in &chunks {
            batched.fill_frames(&mut got[off..off + c], &mut rb);
            off += c;
        }
        for (i, (a, b)) in reference.iter().zip(&got).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{}: frame {i} differs (scalar {a}, batched {b})",
                proto.label()
            );
        }
        // The RNG stream position must match too: a model that produced the
        // right values while consuming a different number of draws would
        // silently break multi-source interleaving.
        assert_eq!(
            rs.next_u64(),
            rb.next_u64(),
            "{}: RNG stream diverged after fill_frames",
            proto.label()
        );
    }
}

/// The batched runner sweep must be invisible to results: the fig. 8
/// composite models through the full pipeline (multi-source superposition,
/// warmup boundary inside a batch, finite + infinite queues, BOP tracking)
/// give bit-identical output for 1 and 4 worker threads.
#[test]
fn batched_runner_thread_count_invariant_on_fig8_models() {
    for proto in [paper::build_z(0.9), paper::build_v(1.5)] {
        let cfg = SimConfig {
            n_sources: 4,
            capacity_per_source: 538.0,
            buffers_total: vec![0.0, 300.0],
            frames_per_replication: 2_000,
            warmup_frames: 300,
            replications: 2,
            seed: 0xF1C8,
            ts: 0.04,
            track_bop: true,
        };
        let one = run(
            &proto,
            &cfg,
            &RunOptions {
                threads: Some(1),
                ..RunOptions::default()
            },
        )
        .expect("threads=1");
        let four = run(
            &proto,
            &cfg,
            &RunOptions {
                threads: Some(4),
                ..RunOptions::default()
            },
        )
        .expect("threads=4");
        for (a, b) in one.per_buffer.iter().zip(&four.per_buffer) {
            assert_eq!(a.pooled, b.pooled, "{}: pooled accounts", proto.label());
            assert_eq!(a.clr.mean.to_bits(), b.clr.mean.to_bits());
            assert_eq!(a.clr.half_width.to_bits(), b.clr.half_width.to_bits());
        }
        assert_eq!(one.bop, four.bop, "{}: BOP curves", proto.label());
    }
}

/// The runner sweeps its buffer grid as one fused bank, 16 queues per lane
/// chunk with a padded last chunk. The queues are independent, so no lane
/// position or padding lane may leak into a result: on a 33-buffer grid
/// (two full chunks plus a one-lane remainder) every buffer's pooled
/// account must equal, bit for bit, a run of that buffer alone with the
/// same seed — at 1 and 2 worker threads, with BOP tracking on.
#[test]
fn buffer_bank_lane_position_is_invisible_to_results() {
    let proto = paper::build_s(0.975, 3);
    let grid: Vec<f64> = (0..33).map(|i| 40.0 * i as f64).collect();
    let cfg = SimConfig {
        n_sources: 4,
        capacity_per_source: 538.0,
        buffers_total: grid.clone(),
        frames_per_replication: 3_000,
        warmup_frames: 250,
        replications: 2,
        seed: 0xBA4C,
        ts: 0.04,
        track_bop: true,
    };
    for threads in [1, 2] {
        let options = RunOptions {
            threads: Some(threads),
            ..RunOptions::default()
        };
        let bank = run(&proto, &cfg, &options).expect("bank run");
        assert_eq!(bank.per_buffer.len(), grid.len());
        assert!(bank.per_buffer[0].pooled.lost > 0.0, "grid must see loss");
        for (i, &b) in grid.iter().enumerate() {
            let single_cfg = SimConfig {
                buffers_total: vec![b],
                ..cfg.clone()
            };
            let single = run(&proto, &single_cfg, &options).expect("single-buffer run");
            let (x, y) = (&bank.per_buffer[i].pooled, &single.per_buffer[0].pooled);
            assert_eq!(
                x.offered.to_bits(),
                y.offered.to_bits(),
                "threads={threads} buffer {i}: offered"
            );
            assert_eq!(
                x.lost.to_bits(),
                y.lost.to_bits(),
                "threads={threads} buffer {i}: lost"
            );
        }
    }
}

/// What `run_mix` must produce for `groups` under `cfg`, rebuilt without
/// the runner: source j of replication r is a fresh clone (in group order)
/// that resets from and draws every frame with `next_frame` from its own
/// stream `root.split(r).split(j)`; each frame's aggregate is summed in
/// source order; every buffer is swept by its own `FluidQueue::offer_batch`
/// with the accounts cleared at the warm-up boundary; and the
/// infinite-buffer queue takes the warm-up through `offer_batch` and the
/// measured frames through `offer_batch_observing`.
struct Oracle {
    pooled: Vec<vbr_sim::LossAccount>,
    clrs: Vec<Vec<f64>>,
    bop: vbr_sim::BopEstimator,
}

fn per_source_oracle(groups: &[(&dyn FrameProcess, usize)], cfg: &SimConfig) -> Oracle {
    use vbr_sim::{BopEstimator, FluidQueue, LossAccount};
    use vbr_stats::rng::Xoshiro256PlusPlus;

    let n_sources: usize = groups.iter().map(|&(_, n)| n).sum();
    let capacity = n_sources as f64 * cfg.capacity_per_source;
    let grid = &cfg.buffers_total;
    let total = cfg.warmup_frames + cfg.frames_per_replication;
    let root = Xoshiro256PlusPlus::from_seed_u64(cfg.seed);
    let mut oracle = Oracle {
        pooled: vec![LossAccount::default(); grid.len()],
        clrs: vec![Vec::new(); grid.len()],
        bop: BopEstimator::new(grid.clone()),
    };
    for rep in 0..cfg.replications {
        let rep_rng = root.split(rep as u64);
        let mut aggregate = vec![0.0; total];
        let sources = groups
            .iter()
            .flat_map(|&(proto, n)| (0..n).map(move |_| proto.boxed_clone()));
        for (j, mut source) in sources.enumerate() {
            let mut rng = rep_rng.split(j as u64);
            source.reset(&mut rng);
            for a in aggregate.iter_mut() {
                *a += source.next_frame(&mut rng);
            }
        }
        let (warmup, measured) = aggregate.split_at(cfg.warmup_frames);
        let mut infinite = FluidQueue::infinite(capacity);
        infinite.offer_batch(warmup);
        let mut est = BopEstimator::new(grid.clone());
        infinite.offer_batch_observing(measured, &mut est);
        oracle.bop.merge(&est);
        for (i, &b) in grid.iter().enumerate() {
            let mut q = FluidQueue::finite(capacity, b);
            q.offer_batch(warmup);
            q.clear_accounts();
            q.offer_batch(measured);
            oracle.pooled[i].merge(&q.account());
            oracle.clrs[i].push(q.account().clr());
        }
    }
    oracle
}

/// Asserts `out` equals `oracle` bit for bit: every buffer's pooled
/// offered and lost cells, CLR mean and CI half-width, and the BOP curve.
fn assert_matches_oracle(out: &SimOutcome, oracle: &Oracle, run_at: &str) {
    use vbr_stats::ConfidenceInterval;

    assert_eq!(out.per_buffer.len(), oracle.pooled.len(), "{run_at}");
    for (i, b) in out.per_buffer.iter().enumerate() {
        let at = format!("{run_at} buffer {i}");
        let expected = &oracle.pooled[i];
        assert_eq!(b.pooled.offered.to_bits(), expected.offered.to_bits(), "{at}: offered");
        assert_eq!(b.pooled.lost.to_bits(), expected.lost.to_bits(), "{at}: lost");
        let ci = ConfidenceInterval::from_samples(&oracle.clrs[i], 0.95);
        assert_eq!(b.clr.mean.to_bits(), ci.mean.to_bits(), "{at}: CLR mean");
        assert_eq!(b.clr.half_width.to_bits(), ci.half_width.to_bits(), "{at}: CLR CI");
    }
    let survival: Vec<u64> = out
        .bop
        .as_ref()
        .expect("BOP tracked")
        .iter()
        .map(|&(_, p)| p.to_bits())
        .collect();
    let expected: Vec<u64> = oracle.bop.survival().iter().map(|p| p.to_bits()).collect();
    assert_eq!(survival, expected, "{run_at}: BOP");
}

/// The run options every oracle comparison runs under: 1 and 2 threads at
/// the runner's 4096-frame batches, and 2 threads with a replication
/// deadline, which cuts the replication into 1024-frame batches.
fn oracle_run_options() -> Vec<(String, RunOptions)> {
    use std::time::Duration;

    let deadline = Watchdog {
        replication_deadline: Some(Duration::from_secs(3600)),
        ..Watchdog::default()
    };
    [(1, Watchdog::default()), (2, Watchdog::default()), (2, deadline)]
        .into_iter()
        .map(|(threads, watchdog)| {
            let batch = if watchdog == deadline { 1024 } else { 4096 };
            (
                format!("threads={threads} batch={batch}"),
                RunOptions {
                    threads: Some(threads),
                    watchdog,
                    ..RunOptions::default()
                },
            )
        })
        .collect()
}

/// The stream contract: source j of replication r draws its reset and
/// every frame from `root.split(r).split(j)`, so `run` and `run_mix` equal
/// the hand-built [`per_source_oracle`] bit for bit — for N = 30 Gaussian
/// AR(1) sources and for a two-group mix (Z^0.9 then its DAR(1) fit, so
/// source indices run across the group boundary), at 1 and 2 threads and at
/// 4096- and 1024-frame batches. Both loads lose cells at every buffer, so
/// the comparison covers the loss accounts, not only the offered totals.
#[test]
fn runner_is_bit_identical_to_a_per_source_stream_oracle() {
    let ar1 = GaussianAr1::new(500.0, 5000.0_f64.sqrt(), 0.8);
    let z = paper::build_z(0.9);
    let s = paper::build_s(0.9, 1);
    let cfg = SimConfig {
        n_sources: 30,
        capacity_per_source: 520.0,
        buffers_total: vec![0.0, 150.0, 600.0],
        frames_per_replication: 5_000,
        warmup_frames: 300,
        replications: 3,
        seed: 0x5EED_50A1,
        ts: 0.04,
        track_bop: true,
    };
    let ar1_group = [(&ar1 as &dyn FrameProcess, 30)];
    let mix_groups = [(&z as &dyn FrameProcess, 4), (&s as &dyn FrameProcess, 3)];
    for (label, groups) in [("30 x AR(1)", &ar1_group[..]), ("4 x Z^0.9 + 3 x DAR(1)", &mix_groups[..])] {
        let oracle = per_source_oracle(groups, &cfg);
        assert!(
            oracle.pooled.iter().all(|a| a.lost > 0.0),
            "{label}: every buffer must lose"
        );
        let mix = SourceMix::new(groups.to_vec()).expect("non-empty mix");
        for (options_label, options) in oracle_run_options() {
            let out = run_mix(&mix, &cfg, &options).expect("valid run");
            assert_matches_oracle(&out, &oracle, &format!("{label} {options_label}"));
        }
    }
    let out = run(&ar1, &cfg, &RunOptions::default()).expect("valid run");
    assert_matches_oracle(&out, &per_source_oracle(&ar1_group, &cfg), "run of 30 x AR(1)");
}

/// Runner-level oracle for the buffer bank and the BOP estimator: `run` on
/// one replayed trace must equal, bit for bit, [`per_source_oracle`], which
/// sweeps every buffer with its own `offer_batch`, clears the accounts at
/// the warm-up boundary, and feeds the infinite-buffer queue through
/// `offer_batch` in the warm-up and `offer_batch_observing` after it. Light
/// load (c above the mean: the reference lane is mostly 0) and heavy load
/// (c below it: the reference never empties, and every batch starts inside
/// an excursion), over a 33-buffer grid from 0 and one from 10 (frames
/// whose infinite-buffer workload lies in (0, 10] go to the first BOP
/// bucket), at 1 and 2 threads and with a replication deadline, which runs
/// 1024-frame batches, so excursions and the warm-up boundary fall inside
/// and across other batch boundaries.
#[test]
fn runner_bank_and_bop_match_a_per_queue_oracle_at_light_and_heavy_load() {
    use vbr_sim::TraceProcess;
    use vbr_stats::rng::Xoshiro256PlusPlus;

    let mut rng = Xoshiro256PlusPlus::from_seed_u64(0x0AC1E);
    let mut source = GaussianAr1::new(500.0, 70.0, 0.95);
    let mut frames = vec![0.0; 20_000];
    source.fill_frames(&mut frames, &mut rng);
    let trace = TraceProcess::new(frames.iter().map(|x| x.max(0.0)).collect(), "ar1", 8);

    for (start, capacity) in [(0.0, 538.0), (0.0, 476.0), (10.0, 538.0), (10.0, 476.0)] {
        let grid: Vec<f64> = (0..33).map(|i| start + 25.0 * i as f64).collect();
        let cfg = SimConfig {
            n_sources: 1,
            capacity_per_source: capacity,
            buffers_total: grid.clone(),
            frames_per_replication: 30_000,
            warmup_frames: 1_000,
            replications: 3,
            seed: 0x0AC1E,
            ts: 0.04,
            track_bop: true,
        };
        let oracle = per_source_oracle(&[(&trace, 1)], &cfg);
        assert!(
            oracle.pooled[0].lost > 0.0,
            "start={start} c={capacity}: the first buffer must lose"
        );
        if capacity < 500.0 {
            assert!(
                oracle.pooled[32].lost > 0.0,
                "start={start} c={capacity}: heavy load loses at every buffer"
            );
        }
        for (options_label, options) in oracle_run_options() {
            let out = run(&trace, &cfg, &options).expect("trace run");
            assert_matches_oracle(&out, &oracle, &format!("start={start} c={capacity} {options_label}"));
        }
    }
}

/// The two new LRD families ride the same checkpoint/resume contract as the
/// paper models: kill after 2 of 4 replications, resume, and every account is
/// bit-identical to an uninterrupted run. Exercises the Clegg equilibrium
/// re-draw and the MWM cascade refill across the resume boundary.
#[test]
fn checkpoint_resume_is_bit_identical_for_new_lrd_families() {
    let dir = std::env::temp_dir().join("vbr_determinism_ckpt_lrd");
    std::fs::create_dir_all(&dir).expect("temp dir");

    let models: Vec<(&str, Box<dyn FrameProcess>)> = vec![
        ("clegg", Box::new(paper::build_clegg(0.8))),
        ("mwm", Box::new(paper::build_mwm(0.8))),
    ];
    for (tag, proto) in &models {
        let path = dir.join(format!("resume_{tag}.ckpt"));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("ckpt.prev"));
        let mut cfg = SimConfig {
            n_sources: 4,
            capacity_per_source: 538.0,
            buffers_total: vec![0.0, 300.0],
            frames_per_replication: 3_000,
            warmup_frames: 150,
            replications: 4,
            seed: 0xC1E6,
            ts: 0.04,
            track_bop: true,
        };
        let uninterrupted = run(proto.as_ref(), &cfg, &RunOptions::default()).expect("reference");

        let opts = RunOptions {
            checkpoint: Some(CheckpointPolicy::new(&path)),
            ..RunOptions::default()
        };
        cfg.replications = 2;
        run(proto.as_ref(), &cfg, &opts).expect("first half");
        cfg.replications = 4;
        let resumed = run(proto.as_ref(), &cfg, &opts).expect("resumed run");
        assert_eq!(resumed.provenance.resumed, 2, "{tag}: reps from disk");
        assert_eq!(resumed.provenance.completed, 4);

        for (a, b) in uninterrupted.per_buffer.iter().zip(&resumed.per_buffer) {
            assert_eq!(a.pooled, b.pooled, "{tag}: pooled accounts");
            assert_eq!(a.clr.mean.to_bits(), b.clr.mean.to_bits());
            assert_eq!(a.clr.half_width.to_bits(), b.clr.half_width.to_bits());
        }
        assert_eq!(uninterrupted.bop, resumed.bop, "{tag}: BOP curves");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("ckpt.prev"));
    }
}

/// Thread-count invariance for the new families: the Clegg chain state and
/// the MWM block buffer live per-source inside each replication, so the
/// worker-pool schedule must not leak into results.
#[test]
fn batched_runner_thread_count_invariant_on_new_lrd_families() {
    let models: Vec<Box<dyn FrameProcess>> = vec![
        Box::new(paper::build_clegg(0.9)),
        Box::new(paper::build_mwm(0.9)),
    ];
    for proto in &models {
        let cfg = SimConfig {
            n_sources: 4,
            capacity_per_source: 538.0,
            buffers_total: vec![0.0, 300.0],
            frames_per_replication: 2_000,
            warmup_frames: 300,
            replications: 2,
            seed: 0xF1C9,
            ts: 0.04,
            track_bop: true,
        };
        let one = run(
            proto.as_ref(),
            &cfg,
            &RunOptions {
                threads: Some(1),
                ..RunOptions::default()
            },
        )
        .expect("threads=1");
        let four = run(
            proto.as_ref(),
            &cfg,
            &RunOptions {
                threads: Some(4),
                ..RunOptions::default()
            },
        )
        .expect("threads=4");
        for (a, b) in one.per_buffer.iter().zip(&four.per_buffer) {
            assert_eq!(a.pooled, b.pooled, "{}: pooled accounts", proto.label());
            assert_eq!(a.clr.mean.to_bits(), b.clr.mean.to_bits());
            assert_eq!(a.clr.half_width.to_bits(), b.clr.half_width.to_bits());
        }
        assert_eq!(one.bop, four.bop, "{}: BOP curves", proto.label());
    }
}

/// The observability contract: attaching a recorder — even the full
/// `Telemetry::to_dir` sink stack doing live file I/O — must leave every
/// simulation result **bit-identical** to a recorder-less run. The obs layer
/// never touches an RNG; only wall-clock reads and metric writes differ.
/// Exercised across thread counts so span collection on worker threads is
/// covered too.
#[test]
fn recorder_on_or_off_is_bit_identical() {
    use std::sync::Arc;

    let dir = std::env::temp_dir().join("vbr_determinism_telemetry");
    let _ = std::fs::remove_dir_all(&dir);

    let proto = paper::build_z(0.9);
    let cfg = SimConfig {
        n_sources: 6,
        capacity_per_source: 538.0,
        buffers_total: vec![0.0, 400.0, 1500.0],
        frames_per_replication: 4_000,
        warmup_frames: 200,
        replications: 3,
        seed: 0x0B5E,
        ts: 0.04,
        track_bop: true,
    };

    let bare = run(&proto, &cfg, &RunOptions::default()).expect("recorder off");

    for threads in [1, 4] {
        let memory = Arc::new(MemoryRecorder::new());
        let telemetry = Telemetry::to_dir(&dir).expect("telemetry dir");
        let fan = Arc::new(lrd_video::obs::FanoutRecorder::new(vec![
            memory.clone(),
            telemetry,
        ]));
        let observed = run(
            &proto,
            &cfg,
            &RunOptions {
                threads: Some(threads),
                recorder: Some(fan),
                ..RunOptions::default()
            },
        )
        .expect("recorder on");

        for (a, b) in bare.per_buffer.iter().zip(&observed.per_buffer) {
            assert_eq!(
                a.pooled, b.pooled,
                "threads={threads}: pooled accounts must match bitwise"
            );
            assert_eq!(a.clr.mean.to_bits(), b.clr.mean.to_bits());
            assert_eq!(a.clr.half_width.to_bits(), b.clr.half_width.to_bits());
        }
        assert_eq!(bare.bop, observed.bop, "threads={threads}: BOP curves");
        assert_eq!(bare.frames_total, observed.frames_total);

        // The telemetry itself must be coherent: a complete event stream of
        // valid JSON lines and a summary that agrees with the outcome.
        assert_eq!(memory.count("run_start"), 1);
        assert_eq!(memory.count("replication_end"), 3);
        assert_eq!(memory.count("run_end"), 1);
        let summary = memory.summary().expect("summary delivered");
        assert_eq!(summary.completed, 3);
        assert_eq!(summary.metrics.replications_completed, 3);
        let events =
            std::fs::read_to_string(dir.join("events.jsonl")).expect("events.jsonl written");
        let lines = lrd_video::obs::jsonl::validate_stream(&events)
            .expect("every JSONL line must be valid JSON");
        assert_eq!(lines, memory.events().len());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analysis_is_deterministic() {
    let z = paper::build_z(0.975);
    let stats = SourceStats::from_process(&z, 4_096);
    let a = critical_time_scale(&stats, 538.0, 250.0);
    let b = critical_time_scale(&stats, 538.0, 250.0);
    assert_eq!(a, b);
    assert_eq!(
        bahadur_rao_bop(&stats, 538.0, 250.0, 30).to_bits(),
        bahadur_rao_bop(&stats, 538.0, 250.0, 30).to_bits()
    );
}
