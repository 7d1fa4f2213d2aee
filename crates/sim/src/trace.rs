//! Frame-size trace recording and replay.
//!
//! The paper works with synthetic models on purpose, but any downstream user
//! of this library will eventually want to feed a *measured* trace (Star
//! Wars, videoconference captures, …) through the same CTS/BOP/simulation
//! pipeline. `TraceProcess` wraps a recorded frame-size sequence as a
//! [`FrameProcess`]:
//!
//! * analytic statistics are replaced by **sample** statistics (mean,
//!   variance, and the ACF out to a fixed horizon by the blocked FFT
//!   estimator `vbr_stats::sample_acf_fft`) — exactly what the empirical
//!   studies in the debate did;
//! * replay is cyclic with a random rotation per reset, the standard
//!   trace-driven-simulation device for generating "independent"
//!   replications from one trace (documented bias: replications share the
//!   trace's idiosyncrasies);
//! * a simple text codec (one frame size per line, `#` comments) for
//!   interchange with the classic public trace archives.

use crate::error::SimError;
use rand::{Rng, RngCore};
use vbr_models::FrameProcess;
use vbr_stats::sample_acf_fft;

/// A recorded frame-size trace, replayable as a frame process.
#[derive(Debug, Clone)]
pub struct TraceProcess {
    frames: std::sync::Arc<Vec<f64>>,
    label: String,
    mean: f64,
    variance: f64,
    /// Sample ACF at lags `0..=acf_horizon`, computed once in `try_new`.
    acf: std::sync::Arc<Vec<f64>>,
    position: usize,
    initialized: bool,
}

impl TraceProcess {
    /// Wraps a frame-size sequence. `acf_horizon` bounds the lags the trace
    /// can report; they are estimated once, up front, by the blocked FFT
    /// estimator in O(n log K) time for K = `acf_horizon`.
    ///
    /// # Panics
    /// Panics if the trace has fewer than 2 frames, non-finite or negative
    /// entries, zero variance, or `acf_horizon >= len`. Use
    /// [`try_new`](Self::try_new) for a non-panicking variant.
    pub fn new(frames: Vec<f64>, label: impl Into<String>, acf_horizon: usize) -> Self {
        match Self::try_new(frames, label, acf_horizon) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// Validated constructor: rejects traces with fewer than 2 frames,
    /// non-finite or negative entries, zero variance, or an `acf_horizon`
    /// not shorter than the trace.
    pub fn try_new(
        frames: Vec<f64>,
        label: impl Into<String>,
        acf_horizon: usize,
    ) -> Result<Self, SimError> {
        let invalid = |message: String| SimError::InvalidTrace { message };
        if frames.len() < 2 {
            return Err(invalid("trace too short (need at least 2 frames)".into()));
        }
        if acf_horizon >= frames.len() {
            return Err(invalid(format!(
                "acf_horizon {acf_horizon} must be < trace length {}",
                frames.len()
            )));
        }
        // A constant trace must be caught exactly: its mean need not round
        // back to the value, which leaves a variance of ~1e-30 and a
        // spurious ACF instead of zero.
        let first = frames[0];
        let mut constant = true;
        for (i, &x) in frames.iter().enumerate() {
            if !(x.is_finite() && x >= 0.0) {
                return Err(invalid(format!("frame {i} has invalid size {x}")));
            }
            constant &= x == first;
        }
        let n = frames.len() as f64;
        let mean = frames.iter().sum::<f64>() / n;
        let variance = frames.iter().map(|&x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        if constant || variance <= 0.0 {
            return Err(invalid(
                "constant trace has no correlation structure".into(),
            ));
        }
        let acf = sample_acf_fft(&frames, acf_horizon);
        Ok(Self {
            frames: std::sync::Arc::new(frames),
            label: label.into(),
            mean,
            variance,
            acf: std::sync::Arc::new(acf),
            position: 0,
            initialized: false,
        })
    }

    /// Parses the one-number-per-line text format (blank lines and lines
    /// starting with `#` ignored).
    pub fn parse(
        text: &str,
        label: impl Into<String>,
        acf_horizon: usize,
    ) -> Result<Self, SimError> {
        let mut frames = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let value: f64 = line.parse().map_err(|e| SimError::InvalidTrace {
                message: format!("line {}: {e}", lineno + 1),
            })?;
            frames.push(value);
        }
        if frames.len() < 2 {
            return Err(SimError::InvalidTrace {
                message: "trace has fewer than 2 frames".into(),
            });
        }
        let horizon = acf_horizon.min(frames.len() - 1);
        Self::try_new(frames, label, horizon)
    }

    /// Serializes to the text format.
    pub fn serialize(&self) -> String {
        let mut out = String::with_capacity(self.frames.len() * 8);
        out.push_str(&format!("# trace: {} ({} frames)\n", self.label, self.frames.len()));
        for &x in self.frames.iter() {
            out.push_str(&format!("{x}\n"));
        }
        out
    }

    /// Number of recorded frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True if the trace is empty (construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The raw frames.
    pub fn frames(&self) -> &[f64] {
        &self.frames
    }
}

impl FrameProcess for TraceProcess {
    fn next_frame(&mut self, rng: &mut dyn RngCore) -> f64 {
        if !self.initialized {
            self.position = rng.gen_range(0..self.frames.len());
            self.initialized = true;
        }
        let x = self.frames[self.position];
        self.position = (self.position + 1) % self.frames.len();
        x
    }

    fn fill_frames(&mut self, out: &mut [f64], rng: &mut dyn RngCore) {
        if out.is_empty() {
            return;
        }
        if !self.initialized {
            self.position = rng.gen_range(0..self.frames.len());
            self.initialized = true;
        }
        // Cyclic replay as wrapping slice copies instead of a per-frame
        // modulo; same frames, same single rotation draw.
        let n = self.frames.len();
        let mut filled = 0;
        while filled < out.len() {
            let take = (out.len() - filled).min(n - self.position);
            out[filled..filled + take]
                .copy_from_slice(&self.frames[self.position..self.position + take]);
            self.position = (self.position + take) % n;
            filled += take;
        }
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn variance(&self) -> f64 {
        self.variance
    }

    fn autocorrelations(&self, max_lag: usize) -> Vec<f64> {
        assert!(
            max_lag < self.acf.len(),
            "trace ACF horizon is {} lags, asked for {max_lag}; rebuild the \
             TraceProcess with a larger acf_horizon",
            self.acf.len() - 1
        );
        self.acf[..=max_lag].to_vec()
    }

    fn reset(&mut self, rng: &mut dyn RngCore) {
        self.initialized = false;
        let _ = rng;
    }

    fn boxed_clone(&self) -> Box<dyn FrameProcess> {
        Box::new(self.clone())
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbr_stats::rng::Xoshiro256PlusPlus;

    fn synthetic_trace(n: usize) -> Vec<f64> {
        // Deterministic wavy trace with known mean.
        (0..n)
            .map(|i| 500.0 + 50.0 * ((i as f64) * 0.1).sin() + (i % 7) as f64)
            .collect()
    }

    #[test]
    fn stats_match_sample_statistics() {
        let frames = synthetic_trace(1_000);
        let n = frames.len() as f64;
        let mean = frames.iter().sum::<f64>() / n;
        let t = TraceProcess::new(frames, "wavy", 50);
        assert!((t.mean() - mean).abs() < 1e-9);
        assert!(t.variance() > 0.0);
        let acf = t.autocorrelations(10);
        assert!((acf[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn replay_is_cyclic_and_rotated() {
        let t = TraceProcess::new(synthetic_trace(100), "wavy", 10);
        let mut a = t.clone();
        let mut rng = Xoshiro256PlusPlus::from_seed_u64(301);
        let first: Vec<f64> = (0..200).map(|_| a.next_frame(&mut rng)).collect();
        // Cyclic: frame i and i+100 identical.
        for i in 0..100 {
            assert_eq!(first[i], first[i + 100]);
        }
        // Rotation: two resets give (almost surely) different phases.
        let mut b = t.clone();
        let mut c = t.clone();
        let mut r1 = Xoshiro256PlusPlus::from_seed_u64(302);
        let mut r2 = Xoshiro256PlusPlus::from_seed_u64(303);
        let s1: Vec<f64> = (0..5).map(|_| b.next_frame(&mut r1)).collect();
        let s2: Vec<f64> = (0..5).map(|_| c.next_frame(&mut r2)).collect();
        assert_ne!(s1, s2);
    }

    #[test]
    fn text_roundtrip() {
        let t = TraceProcess::new(vec![1.0, 2.5, 3.0, 4.25], "tiny", 2);
        let text = t.serialize();
        let back = TraceProcess::parse(&text, "tiny", 2).unwrap();
        assert_eq!(back.frames(), t.frames());
    }

    #[test]
    fn parse_skips_comments_and_blanks() {
        let text = "# header\n\n500\n 501 \n# trailing\n502\n";
        let t = TraceProcess::parse(text, "x", 1).unwrap();
        assert_eq!(t.frames(), &[500.0, 501.0, 502.0]);
    }

    #[test]
    fn parse_reports_bad_lines() {
        let err = TraceProcess::parse("500\nnot-a-number\n", "x", 1).unwrap_err();
        assert!(
            matches!(err, SimError::InvalidTrace { .. }),
            "wrong variant: {err}"
        );
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn trace_feeds_the_analysis_pipeline() {
        // A recorded DAR path, replayed, should give the same CTS ballpark
        // as the analytic model it came from.
        use vbr_asymptotics::{critical_time_scale, SourceStats};
        let model = vbr_models::DarProcess::new(vbr_models::DarParams::dar1(
            0.9,
            vbr_models::Marginal::paper_gaussian(),
        ));
        let mut m = model.clone();
        let mut rng = Xoshiro256PlusPlus::from_seed_u64(304);
        let frames: Vec<f64> = (0..200_000).map(|_| m.next_frame(&mut rng)).collect();
        let trace = TraceProcess::new(frames, "recorded DAR(1)", 4_096);

        let s_model = SourceStats::from_process(&model, 4_096);
        let s_trace = SourceStats::from_process(&trace, 4_096);
        let cts_model = critical_time_scale(&s_model, 538.0, 200.0);
        let cts_trace = critical_time_scale(&s_trace, 538.0, 200.0);
        let diff = cts_model.m_star.abs_diff(cts_trace.m_star);
        assert!(
            diff <= 3,
            "trace CTS {} vs model CTS {}",
            cts_trace.m_star,
            cts_model.m_star
        );
    }

    #[test]
    fn rejects_constant_traces_whose_mean_does_not_round_back() {
        // Each of these has a floating-point mean that differs from the
        // value, so its computed variance is tiny but positive.
        for frames in [vec![0.1; 3], vec![0.7; 7], vec![0.3; 100_000]] {
            let len = frames.len();
            let err = TraceProcess::try_new(frames, "flat", 1).expect_err("constant trace");
            assert!(err.to_string().contains("constant trace"), "len {len}: {err}");
        }
    }

    #[test]
    #[should_panic]
    fn rejects_negative_frames() {
        TraceProcess::new(vec![5.0, -1.0], "bad", 1);
    }
}
