//! Observability walkthrough: a Fig. 8-style CLR run with live progress,
//! a JSONL event stream, a Prometheus exposition and a human-readable
//! per-stage run summary — the README's "Observability" section, runnable.
//!
//! Run with: `cargo run --release --example telemetry_run -- [options]`
//!
//! Options:
//! * `--telemetry <dir>` — telemetry output directory (default
//!   `paper_output/telemetry`); receives `events.jsonl`, `metrics.prom`
//!   and `summary.txt`.
//! * `--validate` — after the run, re-read `events.jsonl` and check every
//!   line decodes back to an `Event` (the CI smoke job runs with this flag).
//!
//! Scale overrides for quick smoke runs: `VBR_REPS=n` (default 8) and
//! `VBR_FRAMES=n` (default 50 000 frames per replication).

use lrd_video::obs;
use lrd_video::prelude::*;
use std::sync::Arc;

/// Live progress sink: turns the event stream into console lines as the run
/// executes — the same stream the JSONL file receives.
struct ConsoleProgress;

impl Recorder for ConsoleProgress {
    fn record(&self, event: &Event) {
        match event {
            Event::RunStart {
                replications,
                n_sources,
                frames_per_replication,
                ..
            } => println!(
                "  run started: {replications} replications x {frames_per_replication} frames, N = {n_sources}"
            ),
            Event::Progress {
                completed,
                requested,
            } => println!("  [{completed}/{requested}] replications complete"),
            Event::ReplicationEnd {
                replication,
                duration_ns,
                clr_b0,
                ..
            } => println!(
                "    replication {replication}: {:.2} s, clr[B=0] = {clr_b0:.3e}",
                *duration_ns as f64 / 1e9
            ),
            Event::CheckpointSaved { replications, .. } => {
                println!("    checkpoint saved ({replications} replications on disk)")
            }
            Event::WatchdogTimeout { replication, .. } => {
                println!("    watchdog abandoned replication {replication}")
            }
            _ => {}
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut telemetry_dir = String::from("paper_output/telemetry");
    let mut validate = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--telemetry" => {
                telemetry_dir = it
                    .next()
                    .ok_or("--telemetry requires a directory argument")?
                    .clone();
            }
            "--validate" => validate = true,
            other => return Err(format!("unknown option {other}").into()),
        }
    }
    let reps: usize = std::env::var("VBR_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let frames: usize = std::env::var("VBR_FRAMES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50_000);

    // Fig. 8 operating point at reduced scale: model Z (FBNDP + DAR
    // composite, a = 0.9), N = 30 sources, CLR over a buffer-delay sweep.
    let z = paper::build_z(0.9);
    let mut cfg = SimConfig::paper_defaults(
        vec![0.0, 807.0, 1614.0, 3228.0, 6456.0, 12912.0],
        frames,
        reps,
    );
    cfg.track_bop = false;

    // Sink stack: the standard telemetry directory (JSONL + Prometheus +
    // summary) fanned out with a console progress printer.
    let sinks = obs::FanoutRecorder::new(vec![
        Telemetry::to_dir(&telemetry_dir)?,
        Arc::new(ConsoleProgress),
    ]);
    let opts = RunOptions {
        recorder: Some(Arc::new(sinks)),
        ..RunOptions::default()
    };

    println!("telemetry -> {telemetry_dir}/{{events.jsonl, metrics.prom, summary.txt}}");
    let out = run(&z, &cfg, &opts)?;

    println!("\nCLR over the buffer grid ({} replications):", out.provenance.completed);
    for est in &out.per_buffer {
        println!(
            "  B = {:>7.0} cells ({:>5.1} ms)  CLR = {:.3e} +- {:.1e}",
            est.buffer_total,
            est.buffer_ms,
            est.pooled.clr(),
            est.clr.half_width
        );
    }

    let summary_path = std::path::Path::new(&telemetry_dir).join("summary.txt");
    println!("\n--- {} ---", summary_path.display());
    print!("{}", std::fs::read_to_string(&summary_path)?);

    if validate {
        let events_path = std::path::Path::new(&telemetry_dir).join("events.jsonl");
        let body = std::fs::read_to_string(&events_path)?;
        match obs::jsonl::validate_stream(&body) {
            Ok(n) => println!("\nvalidated {n} JSONL event lines in {}", events_path.display()),
            Err((line, msg)) => {
                return Err(format!("events.jsonl line {line} invalid: {msg}").into())
            }
        }
    }
    Ok(())
}
