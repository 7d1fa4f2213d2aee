//! Property-based tests (proptest) on the core invariants across crates.

use proptest::prelude::*;
use vbr_asymptotics::{critical_time_scale, SourceStats, VarianceFunction};
use vbr_models::{DarParams, DarProcess, FrameProcess, Marginal};
use vbr_sim::{BopEstimator, FluidQueue};
use vbr_stats::linalg::{levinson_durbin, solve_dense, solve_toeplitz};
use vbr_stats::rng::Xoshiro256PlusPlus;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fluid queue invariants under arbitrary arrival sequences:
    /// workload stays in [0, B], loss only when work would exceed B, and
    /// mass balance (offered = served + lost + queued) holds exactly.
    #[test]
    fn fluid_queue_invariants(
        capacity in 1.0f64..1000.0,
        buffer in 0.0f64..5000.0,
        arrivals in proptest::collection::vec(0.0f64..3000.0, 1..200),
    ) {
        let mut q = FluidQueue::finite(capacity, buffer);
        let mut served = 0.0;
        let mut w_prev = 0.0;
        for &x in &arrivals {
            let lost = q.offer(x);
            let w = q.workload();
            prop_assert!((0.0..=buffer + 1e-9).contains(&w), "workload {} out of [0,{}]", w, buffer);
            prop_assert!(lost >= 0.0);
            if lost > 0.0 {
                prop_assert!((w - buffer).abs() < 1e-9, "loss only at full buffer");
            }
            served += x - (w - w_prev) - lost;
            w_prev = w;
        }
        let total: f64 = arrivals.iter().sum();
        let acct = q.account();
        prop_assert!((acct.offered - total).abs() < 1e-6 * total.max(1.0));
        prop_assert!((served + acct.lost + q.workload() - total).abs() < 1e-6 * total.max(1.0));
        prop_assert!(served <= capacity * arrivals.len() as f64 + 1e-9);
    }

    /// Monotonicity: a bigger buffer never loses more on the same arrivals.
    #[test]
    fn fluid_queue_loss_monotone_in_buffer(
        capacity in 10.0f64..500.0,
        b1 in 0.0f64..1000.0,
        extra in 0.0f64..1000.0,
        arrivals in proptest::collection::vec(0.0f64..2000.0, 1..150),
    ) {
        let mut small = FluidQueue::finite(capacity, b1);
        let mut large = FluidQueue::finite(capacity, b1 + extra);
        for &x in &arrivals {
            small.offer(x);
            large.offer(x);
        }
        prop_assert!(large.account().lost <= small.account().lost + 1e-9);
    }

    /// The reference-lane buffer bank is bit-identical to one `offer_batch`
    /// per queue, and its BOP lane to `offer_batch_observing` on a
    /// `FluidQueue::infinite`, in every regime that moves lanes off the
    /// reference: a heavy load whose reference never empties; long idle
    /// stretches; integer capacities, arrivals and buffers, so `w + x == c`
    /// and lanes landing exactly on their buffers are common; unsorted grids
    /// of any size (full lane chunks, padded remainders, none); and a batch
    /// split inside an excursion. One burst above capacity plus the largest
    /// buffer makes every queue lose, so the loss accumulators are exercised
    /// on every lane. `BopEstimator::observe` files the reference's
    /// workloads, every threshold, the values between them, zeros, `+∞` and
    /// NaN in the bucket `partition_point` gives.
    #[test]
    fn coupled_bank_and_bop_fast_path_bit_identical_in_every_regime(
        (integer_capacity, capacity_int, capacity_real) in (any::<bool>(), 1u32..50, 1.0f64..500.0),
        lanes in proptest::collection::vec((0u8..6, 0u32..60, 0.0f64..400.0), 0..40),
        heavy in any::<bool>(),
        segments in proptest::collection::vec((0u8..4, 1usize..1500, any::<u64>()), 1..6),
        burst_at in 0usize..5000,
        split_at in 0usize..5000,
    ) {
        use rand::RngCore as _;
        use vbr_sim::BufferBank;
        let capacity = if integer_capacity { f64::from(capacity_int) } else { capacity_real };
        // Half the buffers are integers, one in six reaches 4000.
        let grid: Vec<f64> = lanes
            .iter()
            .map(|&(kind, int, real)| match kind {
                0..=2 => f64::from(int),
                3 | 4 => real,
                _ => 10.0 * real,
            })
            .collect();
        // Uniforms in [0, 1) from a seed, so one strategy value expands
        // into a long segment.
        let uniforms = |seed: u64, len: usize| -> Vec<f64> {
            let mut rng = Xoshiro256PlusPlus::from_seed_u64(seed);
            (0..len).map(|_| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64).collect()
        };
        let mut arrivals = Vec::new();
        for &(kind, len, seed) in &segments {
            arrivals.extend(uniforms(seed, len).into_iter().map(|u| match (heavy, kind) {
                // Mean 1.2 c: once above 0 the reference never empties.
                (true, _) => capacity * (0.9 + 0.6 * u),
                // Idle: the queue drains and stays empty.
                (false, 0) => capacity * 0.5 * u,
                // Integers around c: exact ties with integer grids.
                (false, 1) => (u * 3.0 * capacity).floor(),
                (false, 2) => u * 2.0 * capacity,
                // Rare bursts over a quiet floor.
                _ => if u < 0.02 { capacity * (2.0 + 20.0 * u) } else { capacity * 0.9 * u },
            }));
        }
        // A burst above every buffer, then a split right after it: a call
        // ends inside an excursion.
        let top = grid.iter().copied().fold(0.0, f64::max);
        let at = burst_at % (arrivals.len() + 1);
        arrivals.insert(at, capacity + top + 1.0);
        let mut cuts = [at + 1, split_at % (arrivals.len() + 1)];
        cuts.sort_unstable();

        let mut thresholds = grid.clone();
        thresholds.push(capacity);
        thresholds.sort_by(f64::total_cmp);
        thresholds.dedup();

        let mut queues: Vec<FluidQueue> =
            grid.iter().map(|&b| FluidQueue::finite(capacity, b)).collect();
        for q in queues.iter_mut() {
            q.offer_batch(&arrivals);
        }
        let mut infinite = FluidQueue::infinite(capacity);
        let mut expected = BopEstimator::new(thresholds.clone());
        infinite.offer_batch_observing(&arrivals, &mut expected);
        let mut bank = BufferBank::new(capacity, &grid);
        let mut observed_bank = BufferBank::new(capacity, &grid);
        let mut bop = BopEstimator::new(thresholds.clone());
        for span in [&arrivals[..cuts[0]], &arrivals[cuts[0]..cuts[1]], &arrivals[cuts[1]..]] {
            bank.offer(span, None);
            observed_bank.offer(span, Some(&mut bop));
        }
        for bank in [&bank, &observed_bank] {
            prop_assert_eq!(bank.queues().len(), queues.len());
            for (i, (a, b)) in queues.iter().zip(bank.queues()).enumerate() {
                prop_assert!(b.account().lost > 0.0, "buffer {} saw no loss", i);
                prop_assert_eq!(a.workload().to_bits(), b.workload().to_bits(), "workload {}", i);
                prop_assert_eq!(
                    a.account().offered.to_bits(),
                    b.account().offered.to_bits(),
                    "offered {}",
                    i
                );
                prop_assert_eq!(a.account().lost.to_bits(), b.account().lost.to_bits(), "lost {}", i);
            }
            prop_assert_eq!(infinite.workload().to_bits(), bank.infinite_workload().to_bits());
        }
        prop_assert_eq!(expected.buckets(), bop.buckets());
        prop_assert_eq!(expected.observations(), bop.observations());

        let mut observed: Vec<f64> = thresholds
            .windows(2)
            .map(|t| 0.5 * (t[0] + t[1]))
            .chain(thresholds.iter().copied())
            .chain([0.0, -0.0, f64::INFINITY, f64::NAN, -1.0])
            .collect();
        let mut scalar = FluidQueue::infinite(capacity);
        for &x in &arrivals {
            scalar.offer(x);
            observed.push(scalar.workload());
        }
        let mut est = BopEstimator::new(thresholds.clone());
        let mut counts = vec![0u64; thresholds.len() + 1];
        for &w in &observed {
            est.observe(w);
            counts[thresholds.partition_point(|&t| t < w)] += 1;
        }
        prop_assert_eq!(est.buckets(), &counts[..]);
    }

    /// A `BufferBank` with BOP equals, bit for bit, one `offer_batch` per
    /// finite queue plus a `FluidQueue::infinite` fed by `offer_batch` in
    /// unobserved warm-up calls and by `offer_batch_observing` after them,
    /// with the accounts cleared at that boundary, as the runner does. After
    /// every call the workloads, `offered`, `lost`, the infinite-buffer
    /// workload, the buckets and the observation count all match. Covered:
    /// ρ ≈ 0.93 and ρ ≈ 1.05; grids from 0 and from above 0, where frames
    /// with a workload in (0, floor] must land in the first bucket; an
    /// empty grid; thresholds equal to the grid, starting below the smallest
    /// buffer (frames between excursions observed one by one) or above it;
    /// random splits into calls, one right after a burst above the top
    /// buffer, so an excursion above every buffer spans calls.
    #[test]
    fn buffer_bank_with_bop_bit_identical_to_per_queue_oracle(
        (heavy, floor_zero, threshold_mode) in (any::<bool>(), any::<bool>(), 0u8..3),
        (n_buffers, spacing, first) in (0usize..40, 1.0f64..60.0, 0.5f64..80.0),
        (len, seed, burst_at) in (1usize..6000, any::<u64>(), 0usize..6000),
        (cuts, warmup_calls) in (proptest::collection::vec(0usize..6000, 0..8), 0usize..4),
    ) {
        use rand::RngCore as _;
        use vbr_sim::BufferBank;
        let capacity = 100.0;
        let mean = if heavy { 105.0 } else { 93.0 };
        let base = if floor_zero { 0.0 } else { first };
        let grid: Vec<f64> = (0..n_buffers).map(|i| base + spacing * i as f64).collect();
        let thresholds: Vec<f64> = match (threshold_mode, grid.is_empty()) {
            (_, true) => vec![first],
            (0, false) => grid.clone(),
            (1, false) => std::iter::once(base - 0.5 * spacing).chain(grid.iter().copied()).collect(),
            _ => grid.iter().map(|b| b + 0.5 * spacing).collect(),
        };
        // A Gaussian-like AR(1) around the mean: excursions last many frames.
        let mut rng = Xoshiro256PlusPlus::from_seed_u64(seed);
        let mut a = 0.0;
        let mut arrivals: Vec<f64> = (0..len)
            .map(|_| {
                let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                a = 0.9 * a + 30.0 * (u - 0.5);
                (mean + a).max(0.0)
            })
            .collect();
        let top = grid.last().copied().unwrap_or(0.0);
        let at = burst_at % (len + 1);
        arrivals.insert(at, capacity + top + 50.0);
        let mut points: Vec<usize> = cuts
            .iter()
            .map(|c| c % (arrivals.len() + 1))
            .chain([0, at + 1, arrivals.len()])
            .collect();
        points.sort_unstable();

        let mut queues: Vec<FluidQueue> =
            grid.iter().map(|&b| FluidQueue::finite(capacity, b)).collect();
        let mut infinite = FluidQueue::infinite(capacity);
        let mut expected = BopEstimator::new(thresholds.clone());
        let mut bank = BufferBank::new(capacity, &grid);
        let mut bop = BopEstimator::new(thresholds.clone());
        for (call, span) in points.windows(2).enumerate() {
            let batch = &arrivals[span[0]..span[1]];
            if call == warmup_calls {
                for q in queues.iter_mut() {
                    q.clear_accounts();
                }
                bank.clear_accounts();
            }
            for q in queues.iter_mut() {
                q.offer_batch(batch);
            }
            if call < warmup_calls {
                infinite.offer_batch(batch);
                bank.offer(batch, None);
            } else {
                infinite.offer_batch_observing(batch, &mut expected);
                bank.offer(batch, Some(&mut bop));
            }
            prop_assert_eq!(bank.queues().len(), queues.len());
            for (i, (a, b)) in queues.iter().zip(bank.queues()).enumerate() {
                prop_assert_eq!(a.workload().to_bits(), b.workload().to_bits(), "call {} workload {}", call, i);
                prop_assert_eq!(
                    a.account().offered.to_bits(),
                    b.account().offered.to_bits(),
                    "call {} offered {}",
                    call,
                    i
                );
                prop_assert_eq!(a.account().lost.to_bits(), b.account().lost.to_bits(), "call {} lost {}", call, i);
            }
            prop_assert_eq!(
                infinite.workload().to_bits(),
                bank.infinite_workload().to_bits(),
                "call {} infinite workload",
                call
            );
            prop_assert_eq!(expected.buckets(), bop.buckets(), "call {} buckets", call);
            prop_assert_eq!(expected.observations(), bop.observations(), "call {} observations", call);
        }
    }

    /// `Guard::check_batch`'s lane scan agrees with checking every value on
    /// its own, in order (`check_source_at` per frame), on batches of 0 to
    /// 70 values: shorter than, equal to and longer than the scan's 8
    /// lanes, with remainders. NaNs (payload and sign kept), `±∞`, negative
    /// values and negative subnormals are injected at random positions;
    /// `-0.0`, subnormals and `f64::MAX` pass. Both return the same
    /// `Ok`/`Err`, and a fault carries the same frame, site and value bits.
    #[test]
    fn guard_batch_scan_agrees_with_per_value_checks(
        (len, base, source) in (0usize..=70, 0u64..1_000_000, 0usize..40),
        seed in any::<u64>(),
        faults in proptest::collection::vec((0usize..70, 0u8..6, any::<u64>()), 0..4),
    ) {
        use rand::RngCore as _;
        use vbr_sim::{FaultSite, Guard, SimError};
        let mut rng = Xoshiro256PlusPlus::from_seed_u64(seed);
        let mut values: Vec<f64> = (0..len)
            .map(|_| match rng.next_u64() % 5 {
                0 => 0.0,
                1 => -0.0,
                // Exponent bits 0: a subnormal (or zero).
                2 => f64::from_bits(rng.next_u64() >> 12),
                3 => f64::MAX,
                _ => (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 1e4,
            })
            .collect();
        if len > 0 {
            for &(at, kind, bits) in &faults {
                values[at % len] = match kind {
                    0 => f64::from_bits(
                        0x7ff0_0000_0000_0000 | (bits & 0x800f_ffff_ffff_ffff) | 1,
                    ),
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => -1.0 - (bits >> 11) as f64,
                    4 => -f64::from_bits((bits >> 12) | 1),
                    _ => f64::MIN,
                };
            }
        }
        let mut guard = Guard::new(3, 0x5EED);
        guard.advance_by(base);
        let per_value = values
            .iter()
            .enumerate()
            .find_map(|(i, &v)| guard.check_source_at(i as u64, source, v).err());
        let batch = guard.check_batch(&values, FaultSite::Source(source)).err();
        prop_assert_eq!(per_value.is_none(), faults.is_empty() || len == 0);
        match (per_value, batch) {
            (None, None) => {}
            (Some(SimError::NumericFault(a)), Some(SimError::NumericFault(b))) => {
                prop_assert_eq!(a.frame, b.frame);
                prop_assert_eq!(a.site, b.site);
                prop_assert_eq!(a.value.to_bits(), b.value.to_bits());
                prop_assert_eq!((a.replication, a.seed), (b.replication, b.seed));
            }
            (a, b) => prop_assert!(false, "per value {:?}, batch {:?}", a, b),
        }
    }

    /// DAR(p) ACFs are valid correlation sequences: r(0)=1, |r(k)|<=1, and
    /// the implied Toeplitz matrix is positive semi-definite (checked via
    /// Levinson-Durbin not rejecting).
    #[test]
    fn dar_acf_is_valid_correlation(
        rho in 0.0f64..0.995,
        w1 in 0.01f64..1.0,
        w2 in 0.0f64..1.0,
        w3 in 0.0f64..1.0,
    ) {
        let total = w1 + w2 + w3;
        let probs = vec![w1 / total, w2 / total, w3 / total];
        let acf = DarProcess::acf_from_params(rho, &probs, 64);
        prop_assert!((acf[0] - 1.0).abs() < 1e-12);
        for &r in &acf {
            prop_assert!((-1.0..=1.0 + 1e-12).contains(&r));
        }
        prop_assert!(levinson_durbin(&acf[..16]).is_some(), "ACF must be PSD");
    }

    /// Yule-Walker roundtrip: fit_dar recovers DAR parameters from their own
    /// ACF whenever all weights are bounded away from 0.
    #[test]
    fn dar_fit_roundtrip(
        rho in 0.05f64..0.95,
        w1 in 0.1f64..1.0,
        w2 in 0.1f64..1.0,
    ) {
        let total = w1 + w2;
        let probs = vec![w1 / total, w2 / total];
        let acf = DarProcess::acf_from_params(rho, &probs, 8);
        let fit = vbr_core::matching::fit_dar(&acf, 2, Marginal::paper_gaussian()).unwrap();
        prop_assert!((fit.rho - rho).abs() < 1e-7, "{} vs {rho}", fit.rho);
        prop_assert!((fit.lag_probs[0] - probs[0]).abs() < 1e-7);
    }

    /// Toeplitz solver agrees with dense Gaussian elimination on random
    /// diagonally-dominant symmetric Toeplitz systems.
    #[test]
    fn toeplitz_matches_dense(
        coeffs in proptest::collection::vec(-0.2f64..0.2, 2..7),
        rhs_seed in proptest::collection::vec(-10.0f64..10.0, 7),
    ) {
        let n = coeffs.len() + 1;
        let mut col = vec![1.0];
        col.extend(&coeffs);
        let rhs = rhs_seed[..n].to_vec();
        let mut dense = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                dense[i * n + j] = col[(i as isize - j as isize).unsigned_abs()];
            }
        }
        let xt = solve_toeplitz(&col, &rhs);
        let xd = solve_dense(&dense, &rhs, n);
        prop_assert!(xt.is_some() && xd.is_some());
        for (a, b) in xt.unwrap().iter().zip(xd.unwrap()) {
            prop_assert!((a - b).abs() < 1e-6, "{} vs {}", a, b);
        }
    }

    /// V(m) is positive, increasing, and sub-quadratic for any valid DAR ACF.
    #[test]
    fn variance_function_shape(rho in 0.0f64..0.99) {
        let acf: Vec<f64> = (0..256).map(|k| rho.powi(k)).collect();
        let stats = SourceStats::new(500.0, 5000.0, acf);
        let v = VarianceFunction::new(&stats);
        let mut prev = 0.0;
        for m in 1..=256usize {
            let val = v.v(m);
            prop_assert!(val > prev, "V must increase");
            prop_assert!(val <= 5000.0 * (m * m) as f64 + 1e-6, "V <= sigma^2 m^2");
            prev = val;
        }
    }

    /// CTS is non-decreasing in buffer for arbitrary DAR-style ACFs, and the
    /// rate function is non-decreasing too.
    #[test]
    fn cts_monotone_random_acf(
        rho in 0.0f64..0.99,
        c_gap in 5.0f64..100.0,
        steps in 2usize..8,
    ) {
        let acf: Vec<f64> = (0..2048).map(|k| rho.powi(k)).collect();
        let stats = SourceStats::new(500.0, 5000.0, acf);
        let c = 500.0 + c_gap;
        let mut prev_m = 0usize;
        let mut prev_rate = 0.0;
        for i in 0..steps {
            let b = i as f64 * 40.0;
            let r = critical_time_scale(&stats, c, b);
            prop_assert!(r.m_star >= prev_m, "CTS must not decrease");
            prop_assert!(r.rate >= prev_rate - 1e-12, "I(c,b) must not decrease");
            prev_m = r.m_star;
            prev_rate = r.rate;
        }
    }

    /// DAR marginal invariance: the sample mean of any DAR(1) stays near the
    /// marginal mean regardless of rho (rho only slows mixing).
    #[test]
    fn dar_marginal_invariant_under_rho(rho in 0.0f64..0.95, seed: u64) {
        let mut p = DarProcess::new(DarParams::dar1(
            rho,
            Marginal::Gaussian { mean: 100.0, sd: 10.0 },
        ));
        let mut rng = Xoshiro256PlusPlus::from_seed_u64(seed);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| p.next_frame(&mut rng)).sum::<f64>() / n as f64;
        // Effective sample size shrinks by (1+rho)/(1-rho); bound at 5 sigma.
        let ess = n as f64 * (1.0 - rho) / (1.0 + rho);
        let tol = 5.0 * 10.0 / ess.sqrt();
        prop_assert!((mean - 100.0).abs() < tol, "mean {} (tol {})", mean, tol);
    }
}

// --- extension-module properties -----------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// F-ARIMA ACF is a valid, positive, decreasing correlation sequence
    /// for every d, and Levinson accepts it (PSD check).
    #[test]
    fn farima_acf_validity(d in 0.01f64..0.49) {
        let acf = vbr_models::farima_acf(d, 128);
        prop_assert!((acf[0] - 1.0).abs() < 1e-12);
        for w in acf.windows(2) {
            prop_assert!(w[1] > 0.0 && w[1] < w[0]);
        }
        prop_assert!(levinson_durbin(&acf[..32]).is_some());
    }

    /// MarkovOnOff target solver: mean/variance round-trip over a wide
    /// parameter box, and the ACF is geometric.
    #[test]
    fn markov_onoff_solver_roundtrip(
        mean in 50.0f64..1000.0,
        over in 1.2f64..12.0,
        m in 2usize..40,
    ) {
        use vbr_models::{MarkovOnOff, MarkovOnOffParams};
        let variance = mean * over;
        // Feasibility envelope: Var <= mean + mean^2/M (the frozen-state
        // nu -> 0 limit); stay safely inside it.
        prop_assume!(variance < mean + mean * mean / m as f64 * 0.9);
        let params = MarkovOnOffParams::from_frame_targets(mean, variance, m, 0.04);
        prop_assert!((params.frame_mean() - mean).abs() < 1e-6 * mean);
        prop_assert!((params.frame_variance() - variance).abs() < 1e-3 * variance);
        let model = MarkovOnOff::new(params);
        let r = model.autocorrelations(10);
        let q1 = r[2] / r[1];
        for k in 2..10 {
            // Fast switching can underflow the tail to 0; ratios are only
            // meaningful while the ACF is numerically alive.
            if r[k - 1] < 1e-100 {
                break;
            }
            let q = r[k] / r[k - 1];
            prop_assert!((q - q1).abs() < 1e-6 * q1.max(1e-6), "geometric ratio breaks at {}", k);
        }
    }

    /// Clegg parameter validation: `try_new` accepts exactly the box
    /// H in (0.5, 1), chains >= 1, mean > 0, sd > 0 — and rejects every
    /// perturbation out of it.
    #[test]
    fn clegg_try_new_validation(
        h in 0.501f64..0.999,
        chains in 1usize..64,
        mean in 1.0f64..2000.0,
        sd in 0.5f64..500.0,
    ) {
        use vbr_models::{CleggParams, CleggProcess};
        let good = CleggParams { h, chains, mean, sd };
        prop_assert!(CleggProcess::try_new(good).is_ok());
        for bad in [
            CleggParams { h: 0.5, ..good },
            CleggParams { h: 1.0, ..good },
            CleggParams { h: h - 0.6, ..good },
            CleggParams { chains: 0, ..good },
            CleggParams { mean: 0.0, ..good },
            CleggParams { mean: -mean, ..good },
            CleggParams { sd: 0.0, ..good },
            CleggParams { sd: f64::NAN, ..good },
        ] {
            prop_assert!(CleggProcess::try_new(bad).is_err());
        }
    }

    /// Clegg structural invariants over the whole parameter box: the chain
    /// exponent gamma = 3 - 2H lies in (1, 2); moments are matched exactly;
    /// the ACF is a correlation sequence; and every emitted frame lives on
    /// the binomial-affine lattice inside [mean ± sd·sqrt(M)].
    #[test]
    fn clegg_invariants(
        h in 0.55f64..0.95,
        chains in 1usize..24,
        seed: u64,
    ) {
        use vbr_models::{CleggParams, CleggProcess};
        let (mean, sd) = (500.0, 70.0);
        let mut p = CleggProcess::new(CleggParams { h, chains, mean, sd });
        prop_assert!(p.gamma() > 1.0 && p.gamma() < 2.0);
        prop_assert!((p.mean() - mean).abs() < 1e-9);
        prop_assert!((p.variance() - sd * sd).abs() < 1e-9 * sd * sd);
        let acf = p.autocorrelations(32);
        prop_assert!((acf[0] - 1.0).abs() < 1e-12);
        for &r in &acf {
            prop_assert!((-1.0..=1.0 + 1e-12).contains(&r));
        }
        let mut rng = Xoshiro256PlusPlus::from_seed_u64(seed);
        let half_range = sd * (chains as f64).sqrt();
        for _ in 0..256 {
            let x = p.next_frame(&mut rng);
            prop_assert!(x >= mean - half_range - 1e-9 && x <= mean + half_range + 1e-9);
        }
    }

    /// MWM parameter validation: rejects H out of (0.5, 1), non-positive
    /// moments, and an empty cascade.
    #[test]
    fn mwm_try_new_validation(
        h in 0.501f64..0.999,
        levels in 1usize..14,
        mean in 10.0f64..2000.0,
        cv in 0.05f64..0.5,
    ) {
        use vbr_models::{MwmParams, MwmProcess};
        let sd = cv * mean;
        let good = MwmParams { mean, sd, h, levels };
        prop_assert!(MwmProcess::try_new(good).is_ok());
        for bad in [
            MwmParams { h: 0.5, ..good },
            MwmParams { h: 1.0, ..good },
            MwmParams { levels: 0, ..good },
            MwmParams { mean: 0.0, ..good },
            MwmParams { mean: -mean, ..good },
            MwmParams { sd: 0.0, ..good },
            MwmParams { sd: f64::NAN, ..good },
        ] {
            prop_assert!(MwmProcess::try_new(bad).is_err());
        }
    }

    /// MWM cascade invariants: the solved multiplier-variance schedule lies
    /// in (0, 1) at every level, obeys the octave-pinning recursion
    /// eta_{j+1} = eta_j 2^{2-2H} / (1 + eta_j), reproduces the target
    /// variance exactly, and the synthesized output is non-negative with
    /// exact per-block mass mean·2^J.
    #[test]
    fn mwm_cascade_invariants(
        h in 0.55f64..0.95,
        levels in 1usize..10,
        cv in 0.05f64..0.4,
        seed: u64,
    ) {
        use vbr_models::{MwmParams, MwmProcess};
        let (mean, sd) = (500.0, 500.0 * cv);
        let mut p = MwmProcess::new(MwmParams { mean, sd, h, levels });
        let etas = p.etas().to_vec();
        prop_assert_eq!(etas.len(), levels);
        let ratio = 2.0_f64.powf(2.0 - 2.0 * h);
        for w in etas.windows(2) {
            prop_assert!((w[1] - w[0] * ratio / (1.0 + w[0])).abs() < 1e-9);
        }
        let prod: f64 = etas.iter().map(|e| 1.0 + e).product();
        prop_assert!(etas.iter().all(|&e| e > 0.0 && e < 1.0));
        prop_assert!((mean * mean * (prod - 1.0) - sd * sd).abs() < 1e-6 * sd * sd);
        let mut rng = Xoshiro256PlusPlus::from_seed_u64(seed);
        let block = p.block_len();
        let mut frames = vec![0.0_f64; block];
        p.fill_frames(&mut frames, &mut rng);
        prop_assert!(frames.iter().all(|&x| x >= 0.0));
        let mass: f64 = frames.iter().sum();
        let want = mean * block as f64;
        prop_assert!((mass - want).abs() < 1e-6 * want, "block mass {} vs {}", mass, want);
    }

    /// Trace replay preserves the recorded multiset of frames over one full
    /// cycle, and its reported mean matches the sample mean.
    #[test]
    fn trace_replay_preserves_frames(
        frames in proptest::collection::vec(0.0f64..2000.0, 8..64),
        seed: u64,
    ) {
        use vbr_sim::TraceProcess;
        prop_assume!(frames.iter().any(|&x| (x - frames[0]).abs() > 1e-9));
        let n = frames.len();
        let trace = TraceProcess::new(frames.clone(), "t", 2);
        let mut replay = trace.boxed_clone();
        let mut rng = Xoshiro256PlusPlus::from_seed_u64(seed);
        let mut got: Vec<f64> = (0..n).map(|_| replay.next_frame(&mut rng)).collect();
        let mut want = frames.clone();
        got.sort_by(|a, b| a.total_cmp(b));
        want.sort_by(|a, b| a.total_cmp(b));
        prop_assert_eq!(got, want);
        let sample_mean: f64 = frames.iter().sum::<f64>() / n as f64;
        prop_assert!((trace.mean() - sample_mean).abs() < 1e-9);
    }
}
