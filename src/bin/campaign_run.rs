//! Supervised multi-process CLR campaign driver.
//!
//! One binary, three modes:
//!
//! * **coordinator** (default): shards the replications, spawns one worker
//!   process per shard (re-executing itself with `--worker`), supervises
//!   heartbeats, restarts crashed/hung workers with backoff, quarantines
//!   permanent failures, and merges the shard checkpoints into one outcome —
//!   bit-identical to a single-process run. `--watch` adds a live terminal
//!   dashboard and `--serve ADDR` a live Prometheus scrape endpoint; both
//!   are read-only tailers over the same JSONL streams the supervisor
//!   writes, so results stay bit-identical with them on or off.
//! * **worker** (`--worker`): runs one shard's replication range with
//!   checkpoint-after-every-replication and heartbeat events on the shard's
//!   JSONL stream, stamped with `ts_ms` + `shard` for aggregation. Honors
//!   `VBR_FAULT` chaos specs (see `vbr_sim::fault`).
//! * **report** (`--report DIR`): replays a campaign dir's recorded event
//!   files into a post-mortem timeline (stderr) and a machine-readable JSON
//!   summary (stdout).
//!
//! An unknown flag, or a known one without its value, exits with status 2
//! before anything runs.
//!
//! The Gaussian AR(1) source keeps the campaign machinery honest without
//! coupling it to the paper models; the `fig8` campaign recipe in
//! EXPERIMENTS.md drives the paper pipeline through the same supervisor API.

use std::io::{IsTerminal, Read as _, Write as _};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use vbr_models::{
    CleggParams, CleggProcess, FrameProcess, GaussianAr1, MwmParams, MwmProcess,
};
use vbr_sim::campaign::{self, CampaignOptions, CampaignOutcome};
use vbr_sim::obs::aggregate::{render_campaign_prometheus, render_dashboard, CampaignAggregator};
use vbr_sim::obs::tail::Tailer;
use vbr_sim::obs::JsonlRecorder;
use vbr_sim::{run, RetryPolicy, SimConfig};

/// Everything both sides of the fork must agree on. The coordinator forwards
/// these flags verbatim to every worker so the config fingerprint (and hence
/// checkpoint compatibility) is identical across processes.
struct SharedConfig {
    replications: usize,
    frames: usize,
    warmup: Option<usize>,
    sources: usize,
    capacity: f64,
    buffers: Vec<f64>,
    seed: u64,
    mean: f64,
    sd: f64,
    phi: f64,
    model: String,
    hurst: f64,
}

impl Default for SharedConfig {
    fn default() -> Self {
        Self {
            replications: 8,
            frames: 20_000,
            warmup: None,
            sources: 4,
            capacity: 538.0,
            buffers: vec![0.0, 50.0, 200.0],
            seed: 7,
            mean: 500.0,
            sd: 70.0,
            phi: 0.8,
            model: "ar1".into(),
            hurst: 0.9,
        }
    }
}

impl SharedConfig {
    fn sim_config(&self) -> SimConfig {
        SimConfig {
            n_sources: self.sources,
            capacity_per_source: self.capacity,
            buffers_total: self.buffers.clone(),
            frames_per_replication: self.frames,
            warmup_frames: self.warmup.unwrap_or(self.frames / 20),
            replications: self.replications,
            seed: self.seed,
            ts: 0.04,
            track_bop: false,
        }
    }

    /// Builds the source prototype selected by `--model`. All three share
    /// the `--mean/--sd` marginal moments, so switching models changes only
    /// the correlation structure of the campaign's traffic.
    fn prototype(&self) -> Box<dyn FrameProcess> {
        match self.model.as_str() {
            "ar1" => Box::new(GaussianAr1::new(self.mean, self.sd, self.phi)),
            "clegg" => Box::new(CleggProcess::new(CleggParams {
                h: self.hurst,
                chains: 15,
                mean: self.mean,
                sd: self.sd,
            })),
            "mwm" => Box::new(MwmProcess::new(MwmParams {
                mean: self.mean,
                sd: self.sd,
                h: self.hurst,
                levels: 12,
            })),
            other => {
                eprintln!("error: unknown --model {other:?} (expected ar1|clegg|mwm)");
                std::process::exit(2);
            }
        }
    }

    /// The worker argv for these settings (coordinator → worker contract).
    fn forward_args(&self) -> Vec<String> {
        let buffers = self
            .buffers
            .iter()
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let mut args = vec![
            "--replications".into(),
            self.replications.to_string(),
            "--frames".into(),
            self.frames.to_string(),
            "--sources".into(),
            self.sources.to_string(),
            "--capacity".into(),
            self.capacity.to_string(),
            "--buffers".into(),
            buffers,
            "--seed".into(),
            self.seed.to_string(),
            "--mean".into(),
            self.mean.to_string(),
            "--sd".into(),
            self.sd.to_string(),
            "--phi".into(),
            self.phi.to_string(),
            "--model".into(),
            self.model.clone(),
            "--hurst".into(),
            self.hurst.to_string(),
        ];
        if let Some(w) = self.warmup {
            args.push("--warmup".into());
            args.push(w.to_string());
        }
        args
    }
}

struct CoordinatorConfig {
    shared: SharedConfig,
    shards: usize,
    dir: PathBuf,
    heartbeat_timeout: Duration,
    poll: Duration,
    worker_heartbeat: Duration,
    max_attempts: u32,
    backoff_base: Duration,
    threads: Option<usize>,
    watch: bool,
    serve: Option<String>,
}

struct WorkerConfig {
    shared: SharedConfig,
    range: std::ops::Range<usize>,
    shard: Option<usize>,
    checkpoint: PathBuf,
    events: PathBuf,
    worker_heartbeat: Duration,
    threads: Option<usize>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(msg) = check_args(&args) {
        eprintln!("error: {msg} (see --help)");
        std::process::exit(2);
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return;
    }
    let code = if args.iter().any(|a| a == "--worker") {
        worker_main(&args)
    } else if args.iter().any(|a| a == "--report") {
        report_main(&args)
    } else {
        coordinator_main(&args)
    };
    std::process::exit(code);
}

fn print_help() {
    println!(
        "campaign_run — supervised multi-process CLR campaign

USAGE:
  campaign_run [FLAGS]                  run a supervised campaign
  campaign_run --report DIR             post-mortem timeline + JSON summary
  campaign_run --worker [FLAGS]         (internal) run one shard

CONFIG FLAGS (forwarded to workers):
  --replications R   total replications        (default 8)
  --frames F         frames per replication    (default 20000)
  --warmup W         warm-up frames            (default F/20)
  --sources N        multiplexed sources       (default 4)
  --capacity C       per-source cells/frame    (default 538)
  --buffers A,B,..   buffer grid (cells)       (default 0,50,200)
  --seed S           root RNG seed             (default 7)
  --mean M --sd S           source marginal moments   (default 500, 70)
  --model NAME       source family: ar1 (Gaussian AR(1)), clegg
                     (Clegg-Dodson Markov-chain LRD, 15 chains), or mwm
                     (multifractal wavelet cascade, 12 levels)
                                               (default ar1)
  --phi P            AR(1) lag-1 correlation   (default 0.8, ar1 only)
  --hurst H          target Hurst in (0.5,1)   (default 0.9, clegg/mwm only)

COORDINATOR FLAGS:
  --shards N                worker processes          (default 4)
  --dir PATH                campaign working dir      (default target/campaign)
  --heartbeat-timeout-ms T  stall deadline            (default 30000)
  --poll-ms T               supervisor poll           (default 250)
  --worker-heartbeat-ms T   worker beat interval      (default 500)
  --max-attempts K          attempts per shard        (default 3)
  --backoff-base-ms T       first retry backoff       (default 200)
  --threads N               threads per worker        (default auto)

OBSERVATORY FLAGS (read-only; results stay bit-identical on or off):
  --watch                   live terminal dashboard on stderr (per-shard
                            progress bars, restarts/stalls/quarantine,
                            merged CLR-so-far, P2-quantile ETA)
  --serve ADDR              live Prometheus text exposition at
                            http://ADDR/metrics while the campaign runs
  --report DIR              replay DIR's recorded event streams into a
                            post-mortem timeline (stderr) + JSON summary
                            (stdout), then exit

Fault injection: set VBR_FAULT=crash@r[:k]|hang@r[:k]|corrupt-checkpoint@r[:k]
(comma-separated; k = attempt number, `*` = every attempt). Workers inherit
the environment, so exporting VBR_FAULT before a campaign injects chaos."
    );
}

/// Flags that take no value.
const SWITCHES: &[&str] = &["--worker", "--watch", "--help", "-h"];

/// Flags followed by one value: the config flags, the coordinator and
/// observatory flags, and the worker-only flags the coordinator passes on.
const VALUE_FLAGS: &[&str] = &[
    "--replications",
    "--frames",
    "--warmup",
    "--sources",
    "--capacity",
    "--buffers",
    "--seed",
    "--mean",
    "--sd",
    "--model",
    "--phi",
    "--hurst",
    "--shards",
    "--dir",
    "--heartbeat-timeout-ms",
    "--poll-ms",
    "--worker-heartbeat-ms",
    "--max-attempts",
    "--backoff-base-ms",
    "--threads",
    "--serve",
    "--report",
    "--range",
    "--shard",
    "--checkpoint",
    "--events",
];

/// Walks argv once and names the first token that is neither a known flag
/// nor the value of one, or a value flag that ends argv.
fn check_args(args: &[String]) -> Result<(), String> {
    let mut tokens = args.iter();
    while let Some(token) = tokens.next() {
        if VALUE_FLAGS.contains(&token.as_str()) {
            if tokens.next().is_none() {
                return Err(format!("{token} needs a value"));
            }
        } else if !SWITCHES.contains(&token.as_str()) {
            return Err(format!("unknown argument {token:?}"));
        }
    }
    Ok(())
}

/// Pulls `--flag value` from argv, parsed; exits with a message on garbage.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    let idx = args.iter().position(|a| a == name)?;
    let raw = args.get(idx + 1).unwrap_or_else(|| {
        eprintln!("error: {name} needs a value");
        std::process::exit(2);
    });
    match raw.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("error: invalid value {raw:?} for {name}");
            std::process::exit(2);
        }
    }
}

fn parse_shared(args: &[String]) -> SharedConfig {
    let mut c = SharedConfig::default();
    if let Some(v) = flag(args, "--replications") {
        c.replications = v;
    }
    if let Some(v) = flag(args, "--frames") {
        c.frames = v;
    }
    c.warmup = flag(args, "--warmup").or(c.warmup);
    if let Some(v) = flag(args, "--sources") {
        c.sources = v;
    }
    if let Some(v) = flag(args, "--capacity") {
        c.capacity = v;
    }
    if let Some(raw) = flag::<String>(args, "--buffers") {
        c.buffers = raw
            .split(',')
            .map(|s| {
                s.trim().parse().unwrap_or_else(|_| {
                    eprintln!("error: invalid buffer {s:?} in --buffers");
                    std::process::exit(2);
                })
            })
            .collect();
    }
    if let Some(v) = flag(args, "--seed") {
        c.seed = v;
    }
    if let Some(v) = flag(args, "--mean") {
        c.mean = v;
    }
    if let Some(v) = flag(args, "--sd") {
        c.sd = v;
    }
    if let Some(v) = flag(args, "--phi") {
        c.phi = v;
    }
    if let Some(v) = flag::<String>(args, "--model") {
        c.model = v;
    }
    if let Some(v) = flag(args, "--hurst") {
        c.hurst = v;
    }
    // Fail fast on an unknown model or bad Hurst before any worker spawns
    // (prototype() exits with a message on unknown names, the model
    // constructors panic on out-of-range parameters).
    let _ = c.prototype();
    c
}

fn worker_main(args: &[String]) -> i32 {
    let raw_range: String = flag(args, "--range").unwrap_or_else(|| {
        eprintln!("error: --worker needs --range LO:HI");
        std::process::exit(2);
    });
    let Some((lo, hi)) = raw_range
        .split_once(':')
        .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
    else {
        eprintln!("error: invalid --range {raw_range:?} (want LO:HI)");
        return 2;
    };
    let cfg = WorkerConfig {
        shared: parse_shared(args),
        range: lo..hi,
        shard: flag(args, "--shard"),
        checkpoint: flag(args, "--checkpoint").unwrap_or_else(|| {
            eprintln!("error: --worker needs --checkpoint PATH");
            std::process::exit(2);
        }),
        events: flag(args, "--events").unwrap_or_else(|| {
            eprintln!("error: --worker needs --events PATH");
            std::process::exit(2);
        }),
        worker_heartbeat: Duration::from_millis(
            flag(args, "--worker-heartbeat-ms").unwrap_or(500),
        ),
        threads: flag(args, "--threads"),
    };

    // Timestamp + shard stamps make the stream self-describing for live
    // aggregation — shard identity never has to be inferred from the path.
    let mut rec = match JsonlRecorder::append(&cfg.events) {
        Ok(r) => r.with_timestamps(),
        Err(e) => {
            eprintln!("error: cannot open event stream {}: {e}", cfg.events.display());
            return 1;
        }
    };
    if let Some(shard) = cfg.shard {
        rec = rec.with_shard(shard);
    }
    let recorder = Arc::new(rec);
    let mut options = campaign::worker_options(
        cfg.checkpoint.clone(),
        cfg.range.clone(),
        cfg.worker_heartbeat,
        Some(recorder),
    );
    options.threads = cfg.threads;
    match run(&*cfg.shared.prototype(), &cfg.shared.sim_config(), &options) {
        Ok(_) => 0,
        Err(e) => {
            eprintln!("worker error: {e}");
            1
        }
    }
}

fn parse_coordinator(args: &[String]) -> CoordinatorConfig {
    CoordinatorConfig {
        shared: parse_shared(args),
        shards: flag(args, "--shards").unwrap_or(4),
        dir: flag(args, "--dir").unwrap_or_else(|| PathBuf::from("target/campaign")),
        heartbeat_timeout: Duration::from_millis(
            flag(args, "--heartbeat-timeout-ms").unwrap_or(30_000),
        ),
        poll: Duration::from_millis(flag(args, "--poll-ms").unwrap_or(250)),
        worker_heartbeat: Duration::from_millis(
            flag(args, "--worker-heartbeat-ms").unwrap_or(500),
        ),
        max_attempts: flag(args, "--max-attempts").unwrap_or(3),
        backoff_base: Duration::from_millis(flag(args, "--backoff-base-ms").unwrap_or(200)),
        threads: flag(args, "--threads"),
        watch: args.iter().any(|a| a == "--watch"),
        serve: flag(args, "--serve"),
    }
}

fn run_supervised(cfg: &CoordinatorConfig) -> Result<CampaignOutcome, vbr_sim::SimError> {
    let sim_config = cfg.shared.sim_config();
    let exe = std::env::current_exe().map_err(|e| vbr_sim::SimError::io("locating own executable", e))?;
    let campaign_events = cfg.dir.join("campaign.events.jsonl");
    std::fs::create_dir_all(&cfg.dir)
        .map_err(|e| vbr_sim::SimError::io(format!("creating {}", cfg.dir.display()), e))?;
    let recorder = JsonlRecorder::create(&campaign_events)
        .map_err(|e| vbr_sim::SimError::io(format!("creating {}", campaign_events.display()), e))?
        .with_timestamps();
    let options = CampaignOptions {
        shards: cfg.shards,
        dir: cfg.dir.clone(),
        retry: RetryPolicy {
            max_attempts: cfg.max_attempts,
            base: cfg.backoff_base,
            ..RetryPolicy::default()
        },
        heartbeat_timeout: cfg.heartbeat_timeout,
        poll_interval: cfg.poll,
        recorder: Some(Arc::new(recorder)),
    };
    let forward = cfg.shared.forward_args();
    let worker_heartbeat = cfg.worker_heartbeat;
    let threads = cfg.threads;
    let observatory = start_observatory(cfg)?;
    let result = campaign::run_campaign(&sim_config, &options, move |plan, _attempt| {
        let mut cmd = Command::new(&exe);
        cmd.arg("--worker")
            .args(&forward)
            .arg("--range")
            .arg(format!("{}:{}", plan.range.start, plan.range.end))
            .arg("--shard")
            .arg(plan.index.to_string())
            .arg("--checkpoint")
            .arg(&plan.checkpoint)
            .arg("--events")
            .arg(&plan.events)
            .arg("--worker-heartbeat-ms")
            .arg(worker_heartbeat.as_millis().to_string());
        if let Some(t) = threads {
            cmd.arg("--threads").arg(t.to_string());
        }
        cmd
    });
    if let Some(obs) = observatory {
        obs.finish();
    }
    result
}

/// Wall-clock milliseconds since the UNIX epoch — the same clock the
/// recorders stamp events with, so gap-based stall detection compares
/// like with like.
fn unix_now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Background read-only view over the campaign's event streams: a tailing
/// aggregator thread (driving `--watch`) plus an optional scrape endpoint
/// (`--serve`). Never writes to campaign state — results are bit-identical
/// whether or not it runs.
struct Observatory {
    stop: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Observatory {
    /// Signals the threads to do a final drain/render and waits for them.
    fn finish(self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.handles {
            let _ = h.join();
        }
    }
}

fn start_observatory(cfg: &CoordinatorConfig) -> Result<Option<Observatory>, vbr_sim::SimError> {
    if !cfg.watch && cfg.serve.is_none() {
        return Ok(None);
    }
    let agg = Arc::new(Mutex::new(CampaignAggregator::new(
        cfg.heartbeat_timeout.as_millis() as u64,
    )));
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();

    // Same plan the supervisor computes, so the tailers follow exactly the
    // files the workers write — plus the coordinator's own stream.
    let plans = campaign::plan_shards(&cfg.shared.sim_config(), cfg.shards, &cfg.dir);
    let mut tails: Vec<Tailer> = std::iter::once(cfg.dir.join("campaign.events.jsonl"))
        .chain(plans.iter().map(|p| p.events.clone()))
        .map(Tailer::new)
        .collect();
    let watch = cfg.watch;
    {
        let agg = Arc::clone(&agg);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let ansi = std::io::stderr().is_terminal();
            let mut last_plain: Option<Instant> = None;
            let mut cleared = false;
            loop {
                let stopping = stop.load(Ordering::Relaxed);
                let mut fresh = false;
                for t in tails.iter_mut() {
                    let polled = t.poll();
                    if !polled.lines.is_empty() {
                        fresh = true;
                        let mut a = agg.lock().unwrap_or_else(|e| e.into_inner());
                        for line in &polled.lines {
                            a.ingest_line(line);
                        }
                    }
                }
                if watch {
                    let snap = {
                        let a = agg.lock().unwrap_or_else(|e| e.into_inner());
                        a.snapshot(unix_now_ms())
                    };
                    if ansi {
                        if !cleared {
                            eprint!("\x1b[2J");
                            cleared = true;
                        }
                        // Redraw in place: home, frame, clear below.
                        eprint!("\x1b[H{}\x1b[J", render_dashboard(&snap, 30, true));
                    } else if stopping
                        || (fresh
                            && last_plain
                                .is_none_or(|t| t.elapsed() >= Duration::from_secs(2)))
                    {
                        // Not a terminal (CI logs): periodic plain frames.
                        eprint!("{}", render_dashboard(&snap, 30, false));
                        last_plain = Some(Instant::now());
                    }
                }
                if stopping {
                    if watch && ansi {
                        eprintln!();
                    }
                    break;
                }
                std::thread::sleep(Duration::from_millis(200));
            }
        }));
    }

    if let Some(addr) = &cfg.serve {
        let listener = TcpListener::bind(addr)
            .map_err(|e| vbr_sim::SimError::io(format!("binding --serve {addr}"), e))?;
        let _ = listener.set_nonblocking(true);
        eprintln!("serving live campaign metrics on http://{addr}/metrics");
        let agg = Arc::clone(&agg);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || serve_metrics(listener, &agg, &stop)));
    }
    Ok(Some(Observatory { stop, handles }))
}

/// Minimal single-threaded HTTP/1.1 responder for Prometheus scrapes: each
/// accepted connection gets one text-exposition response rendered from the
/// live aggregate, then the connection closes (scrape semantics — no
/// keep-alive needed).
fn serve_metrics(listener: TcpListener, agg: &Mutex<CampaignAggregator>, stop: &AtomicBool) {
    loop {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                let mut buf = [0u8; 1024];
                let n = stream.read(&mut buf).unwrap_or(0);
                let req = String::from_utf8_lossy(&buf[..n]);
                let path = req.split_whitespace().nth(1).unwrap_or("/");
                let (status, body) = if path == "/metrics" || path == "/" {
                    let snap = {
                        let a = agg.lock().unwrap_or_else(|e| e.into_inner());
                        a.snapshot(unix_now_ms())
                    };
                    ("200 OK", render_campaign_prometheus(&snap))
                } else {
                    ("404 Not Found", "not found\n".to_string())
                };
                let _ = write!(
                    stream,
                    "HTTP/1.1 {status}\r\n\
                     Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
                     Content-Length: {}\r\n\
                     Connection: close\r\n\r\n{body}",
                    body.len()
                );
                let _ = stream.flush();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(_) => {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// `--report DIR`: replay recorded event streams into a post-mortem
/// timeline + final dashboard (stderr) and a JSON summary (stdout). Uses
/// the streams' own `ts_ms` stamps as the clock, so output is a pure
/// function of the recorded files.
fn report_main(args: &[String]) -> i32 {
    let Some(dir) = flag::<PathBuf>(args, "--report") else {
        eprintln!("error: --report needs a campaign directory");
        return 2;
    };
    let stall_ms: u64 = flag(args, "--heartbeat-timeout-ms").unwrap_or(30_000);
    let mut agg = CampaignAggregator::new(stall_ms).with_timeline();

    // Coordinator stream first (lifecycle ground truth), then shard streams.
    // Ordering is cosmetic only: aggregation is max-merge idempotent and the
    // timeline sorts by stamp.
    let mut files: Vec<PathBuf> = Vec::new();
    let campaign_events = dir.join("campaign.events.jsonl");
    if campaign_events.is_file() {
        files.push(campaign_events);
    }
    let mut shard_files: Vec<PathBuf> = match std::fs::read_dir(&dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("shard-") && n.ends_with(".events.jsonl"))
            })
            .collect(),
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", dir.display());
            return 1;
        }
    };
    shard_files.sort();
    files.extend(shard_files);
    if files.is_empty() {
        eprintln!("error: no *.events.jsonl files in {}", dir.display());
        return 1;
    }
    for f in &files {
        match std::fs::read_to_string(f) {
            Ok(body) => {
                agg.ingest_stream(&body);
            }
            Err(e) => eprintln!("warning: skipping {}: {e}", f.display()),
        }
    }
    let now = agg.latest_ts_ms().unwrap_or(0);
    eprint!("{}", agg.render_timeline());
    eprint!("{}", render_dashboard(&agg.snapshot(now), 30, false));
    println!("{}", agg.report_json(now));
    0
}

/// One line of machine-readable summary on stdout — what the CI smoke job
/// and the chaos tests parse.
fn print_summary_json(outcome: &CampaignOutcome) {
    let o = &outcome.outcome;
    let r = &outcome.report;
    let mut clrs = String::new();
    let mut bits = String::new();
    for (i, est) in o.per_buffer.iter().enumerate() {
        if i > 0 {
            clrs.push(',');
            bits.push(',');
        }
        clrs.push_str(&format!("{:e}", est.pooled.clr()));
        bits.push_str(&format!("\"{:016x}\"", est.pooled.clr().to_bits()));
    }
    println!(
        "{{\"requested\":{},\"completed\":{},\"partial\":{},\"shards\":{},\"quarantined\":{},\"restarts\":{},\"stalls\":{},\"fallbacks\":{},\"clr\":[{}],\"clr_bits\":[{}],\"wall_s\":{:.3}}}",
        o.provenance.requested,
        o.provenance.completed,
        o.provenance.is_partial(),
        r.shards.len(),
        r.quarantined(),
        r.restarts,
        r.stalls,
        r.fallbacks,
        clrs,
        bits,
        r.wall.as_secs_f64(),
    );
}

fn coordinator_main(args: &[String]) -> i32 {
    let cfg = parse_coordinator(args);
    match run_supervised(&cfg) {
        Ok(outcome) => {
            let r = &outcome.report;
            eprintln!(
                "campaign: {}/{} replications across {} shards ({} quarantined), {} restarts, {} stalls, {:.2}s",
                outcome.outcome.provenance.completed,
                outcome.outcome.provenance.requested,
                r.shards.len(),
                r.quarantined(),
                r.restarts,
                r.stalls,
                r.wall.as_secs_f64()
            );
            for est in &outcome.outcome.per_buffer {
                eprintln!(
                    "  B = {:>8.1} cells ({:>6.2} ms): pooled CLR {:.3e}",
                    est.buffer_total,
                    est.buffer_ms,
                    est.pooled.clr()
                );
            }
            print_summary_json(&outcome);
            0
        }
        Err(e) => {
            eprintln!("campaign error: {e}");
            1
        }
    }
}
