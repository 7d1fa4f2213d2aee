//! Criterion performance benches + the ablation measurements DESIGN.md
//! calls out: fluid vs cell-level queue cost, generator throughput per
//! model, CTS search and Yule-Walker fit cost.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use vbr_asymptotics::cts::critical_time_scale_with;
use vbr_asymptotics::{SourceStats, VarianceFunction};
use vbr_core::matching::fit_dar;
use vbr_core::paper;
use vbr_models::{CirculantScratch, FgnGenerator, FrameProcess, Marginal};
use vbr_sim::{CellMultiplexer, FluidQueue};
use vbr_stats::rng::Xoshiro256PlusPlus;

fn generator_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators");
    group.throughput(Throughput::Elements(1));

    let mut rng = Xoshiro256PlusPlus::from_seed_u64(1);

    let mut dar = paper::build_s(0.975, 1);
    group.bench_function("dar1_frame", |b| {
        b.iter(|| dar.next_frame(&mut rng));
    });

    let mut z = paper::build_z(0.975);
    group.bench_function("z_frame(fbndp+dar)", |b| {
        b.iter(|| z.next_frame(&mut rng));
    });

    let mut l = paper::build_l();
    group.bench_function("l_frame(fbndp_m30)", |b| {
        b.iter(|| l.next_frame(&mut rng));
    });
    group.finish();

    let mut group = c.benchmark_group("fgn");
    let gen = FgnGenerator::new(0.9, 1.0, 16_384);
    group.throughput(Throughput::Elements(16_384));
    group.bench_function("davies_harte_block_16k", |b| {
        b.iter(|| gen.generate(&mut rng));
    });
    group.bench_function("davies_harte_block_16k_into", |b| {
        let mut scratch = CirculantScratch::new();
        let mut out = vec![0.0_f64; 16_384];
        b.iter(|| gen.generate_into(&mut rng, &mut scratch, &mut out));
    });
    group.finish();
}

/// Batched vs scalar generation (`fill_frames` vs `next_frame`) for the
/// models the pipeline batches — the per-model half of the ISSUE 3 speedup.
fn batched_generation(c: &mut Criterion) {
    const FRAMES: usize = 4_096;
    let mut rng = Xoshiro256PlusPlus::from_seed_u64(3);
    let mut buf = vec![0.0_f64; FRAMES];

    let mut group = c.benchmark_group("batched_generation");
    group.throughput(Throughput::Elements(FRAMES as u64));

    let mut fgn = vbr_models::FgnProcess::new(500.0, 70.0, 0.9, 1.0, 16_384);
    group.bench_function("fgn_scalar_4k", |b| {
        b.iter(|| (0..FRAMES).map(|_| fgn.next_frame(&mut rng)).sum::<f64>());
    });
    group.bench_function("fgn_batched_4k", |b| {
        b.iter(|| fgn.fill_frames(&mut buf, &mut rng));
    });

    let mut z = paper::build_z(0.975);
    group.bench_function("z_scalar_4k", |b| {
        b.iter(|| (0..FRAMES).map(|_| z.next_frame(&mut rng)).sum::<f64>());
    });
    group.bench_function("z_batched_4k", |b| {
        b.iter(|| z.fill_frames(&mut buf, &mut rng));
    });

    let mut ar = vbr_models::GaussianAr1::new(500.0, 70.0, 0.8);
    group.bench_function("ar1_batched_4k", |b| {
        b.iter(|| ar.fill_frames(&mut buf, &mut rng));
    });
    group.finish();
}

/// A small end-to-end replication through the batched runner hot loop —
/// the whole-pipeline half of the ISSUE 3 speedup, sized for criterion.
fn e2e_replication(c: &mut Criterion) {
    use vbr_sim::{run, RunOptions, SimConfig};
    let proto = vbr_models::FgnProcess::new(500.0, 70.0, 0.9, 1.0, 1 << 14);
    let cfg = SimConfig {
        n_sources: 10,
        capacity_per_source: 538.0,
        buffers_total: vec![0.0, 1000.0, 8000.0],
        frames_per_replication: 20_000,
        warmup_frames: 1_000,
        replications: 1,
        seed: 0xBEEF,
        ts: 0.04,
        track_bop: false,
    };
    let opts = RunOptions {
        threads: Some(1),
        ..RunOptions::default()
    };
    let mut group = c.benchmark_group("e2e");
    group.sample_size(10);
    group.throughput(Throughput::Elements(cfg.frames_per_replication as u64));
    group.bench_function("replication_fgn_n10_20k", |b| {
        b.iter(|| run(&proto, &cfg, &opts).expect("bench run"));
    });
    group.finish();
}

/// Observability overhead on the e2e replication path: the recorder-less
/// run (every instrumentation point compiled in but gated off — the
/// always-on production path, required to be < 1% over the PR 3 baseline)
/// vs the same run with a full in-memory recorder attached.
fn obs_overhead(c: &mut Criterion) {
    use std::sync::Arc;
    use vbr_obs::MemoryRecorder;
    use vbr_sim::{run, RunOptions, SimConfig};
    let proto = vbr_models::FgnProcess::new(500.0, 70.0, 0.9, 1.0, 1 << 14);
    let cfg = SimConfig {
        n_sources: 10,
        capacity_per_source: 538.0,
        buffers_total: vec![0.0, 1000.0, 8000.0],
        frames_per_replication: 20_000,
        warmup_frames: 1_000,
        replications: 1,
        seed: 0xBEEF,
        ts: 0.04,
        track_bop: false,
    };
    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(10);
    group.throughput(Throughput::Elements(cfg.frames_per_replication as u64));
    let disabled = RunOptions {
        threads: Some(1),
        ..RunOptions::default()
    };
    group.bench_function("e2e_recorder_off", |b| {
        b.iter(|| run(&proto, &cfg, &disabled).expect("bench run"));
    });
    group.bench_function("e2e_recorder_memory", |b| {
        b.iter(|| {
            let opts = RunOptions {
                threads: Some(1),
                recorder: Some(Arc::new(MemoryRecorder::new())),
                ..RunOptions::default()
            };
            run(&proto, &cfg, &opts).expect("bench run")
        });
    });
    group.finish();
}

fn queue_ablation(c: &mut Criterion) {
    // DESIGN.md ablation: the fluid frame-level queue vs the slotted
    // cell-level queue on identical arrivals (N = 30, c = 538).
    let mut rng = Xoshiro256PlusPlus::from_seed_u64(2);
    let mut proto = vbr_models::IidProcess::new(Marginal::paper_gaussian());
    let frames: Vec<f64> = (0..2_000)
        .map(|_| (0..30).map(|_| proto.next_frame(&mut rng)).sum::<f64>())
        .collect();
    let per_source: Vec<Vec<f64>> = (0..2_000)
        .map(|_| (0..30).map(|_| proto.next_frame(&mut rng)).collect())
        .collect();

    let mut group = c.benchmark_group("queue_ablation");
    group.throughput(Throughput::Elements(2_000));
    group.bench_function("fluid_2k_frames", |b| {
        b.iter_batched(
            || FluidQueue::finite(30.0 * 538.0, 2_000.0),
            |mut q| {
                for &x in &frames {
                    q.offer(x);
                }
                q.account()
            },
            BatchSize::SmallInput,
        );
    });
    group.bench_function("cell_level_2k_frames", |b| {
        b.iter_batched(
            || CellMultiplexer::new(30 * 538, 2_000),
            |mut q| {
                for row in &per_source {
                    q.offer_frame(row);
                }
                q.lost()
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

/// The runner's buffer sweep: one `offer_batch` per queue (buffer after
/// buffer) against the fused frame-major `offer_batch_bank`, on the same
/// 4096-frame batch of N = 30 aggregate arrivals at c = 538 — Fig 8's
/// 9-buffer grid size and a dense 32-buffer grid.
fn queue_bank(c: &mut Criterion) {
    const FRAMES: usize = 4_096;
    let mut rng = Xoshiro256PlusPlus::from_seed_u64(4);
    let mut proto = vbr_models::IidProcess::new(Marginal::paper_gaussian());
    let arrivals: Vec<f64> = (0..FRAMES)
        .map(|_| (0..30).map(|_| proto.next_frame(&mut rng)).sum::<f64>())
        .collect();

    let mut group = c.benchmark_group("queue_bank");
    group.throughput(Throughput::Elements(FRAMES as u64));
    for n in [9usize, 32] {
        let grid: Vec<FluidQueue> = (0..n)
            .map(|i| FluidQueue::finite(30.0 * 538.0, 2_000.0 * i as f64 / (n - 1) as f64))
            .collect();
        group.bench_function(&format!("per_queue_{n}_buffers"), |b| {
            b.iter_batched(
                || grid.clone(),
                |mut queues| {
                    for q in queues.iter_mut() {
                        q.offer_batch(&arrivals);
                    }
                    queues
                },
                BatchSize::SmallInput,
            );
        });
        group.bench_function(&format!("bank_{n}_buffers"), |b| {
            b.iter_batched(
                || grid.clone(),
                |mut queues| {
                    FluidQueue::offer_batch_bank(&mut queues, &arrivals);
                    queues
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn analysis_cost(c: &mut Criterion) {
    let z = paper::build_z(0.975);
    let stats = SourceStats::from_process(&z, 32_768);

    let mut group = c.benchmark_group("analysis");
    group.bench_function("variance_function_32k", |b| {
        b.iter(|| VarianceFunction::new(&stats));
    });

    let v = VarianceFunction::new(&stats);
    group.bench_function("cts_search", |b| {
        b.iter(|| critical_time_scale_with(&v, stats.mean, 538.0, 300.0));
    });

    let acf = z.autocorrelations(8);
    group.bench_function("dar3_yule_walker_fit", |b| {
        b.iter(|| fit_dar(&acf, 3, Marginal::paper_gaussian()).unwrap());
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = generator_throughput, batched_generation, e2e_replication, obs_overhead, queue_ablation, queue_bank, analysis_cost
}
criterion_main!(benches);
