//! JSONL event-stream sink: one JSON object per line, one line per
//! [`Event`], flushed as written so a killed run leaves a readable prefix.
//!
//! The workspace is offline and dependency-free by policy, so the codec is
//! hand-rolled: every event is a flat object of scalars. The schema lives
//! here alone — [`event_to_json`] writes it and [`decode_line`] reads it
//! back into an [`Event`] through the one strict JSON reader,
//! [`parse_flat_object`]. [`validate_stream`] (the telemetry example's
//! `--validate` self-check) holds a stream to the same decoder.

use crate::recorder::{Event, Recorder, RunSummary};
use std::fmt::Write as _;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Incremental builder for one flat JSON object line.
struct JsonLine(String);

impl JsonLine {
    fn new(kind: &str) -> Self {
        let mut s = String::with_capacity(128);
        s.push_str("{\"type\":\"");
        s.push_str(kind);
        s.push('"');
        Self(s)
    }

    fn key(&mut self, name: &str) {
        self.0.push(',');
        self.0.push('"');
        self.0.push_str(name);
        self.0.push_str("\":");
    }

    fn u64(mut self, name: &str, v: u64) -> Self {
        self.key(name);
        let _ = write!(self.0, "{v}");
        self
    }

    fn usize(self, name: &str, v: usize) -> Self {
        self.u64(name, v as u64)
    }

    fn i64(mut self, name: &str, v: i64) -> Self {
        self.key(name);
        let _ = write!(self.0, "{v}");
        self
    }

    fn f64(mut self, name: &str, v: f64) -> Self {
        self.key(name);
        // NaN/inf are not JSON numbers; encode them as strings so the line
        // stays parseable while preserving the information.
        if v.is_finite() {
            let _ = write!(self.0, "{v:e}");
        } else {
            let _ = write!(self.0, "\"{v}\"");
        }
        self
    }

    fn bool(mut self, name: &str, v: bool) -> Self {
        self.key(name);
        self.0.push_str(if v { "true" } else { "false" });
        self
    }

    fn str(mut self, name: &str, v: &str) -> Self {
        self.key(name);
        self.0.push('"');
        for c in v.chars() {
            match c {
                '"' => self.0.push_str("\\\""),
                '\\' => self.0.push_str("\\\\"),
                '\n' => self.0.push_str("\\n"),
                '\r' => self.0.push_str("\\r"),
                '\t' => self.0.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.0, "\\u{:04x}", c as u32);
                }
                c => self.0.push(c),
            }
        }
        self.0.push('"');
        self
    }

    fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

/// Renders one event as a single-line JSON object (no trailing newline).
pub fn event_to_json(event: &Event) -> String {
    match event {
        Event::RunStart {
            seed,
            replications,
            n_sources,
            frames_per_replication,
            buffers,
        } => JsonLine::new(event.kind())
            .u64("seed", *seed)
            .usize("replications", *replications)
            .usize("n_sources", *n_sources)
            .usize("frames_per_replication", *frames_per_replication)
            .usize("buffers", *buffers)
            .finish(),
        Event::ReplicationStart { replication, seed } => JsonLine::new(event.kind())
            .usize("replication", *replication)
            .u64("seed", *seed)
            .finish(),
        Event::ReplicationEnd {
            replication,
            seed,
            frames,
            duration_ns,
            clr_b0,
        } => JsonLine::new(event.kind())
            .usize("replication", *replication)
            .u64("seed", *seed)
            .u64("frames", *frames)
            .u64("duration_ns", *duration_ns)
            .f64("clr_b0", *clr_b0)
            .finish(),
        Event::Progress {
            completed,
            requested,
        } => JsonLine::new(event.kind())
            .usize("completed", *completed)
            .usize("requested", *requested)
            .finish(),
        Event::CheckpointSaved {
            path,
            replications,
            fingerprint,
        } => JsonLine::new(event.kind())
            .str("path", path)
            .usize("replications", *replications)
            .str("fingerprint", &format!("{fingerprint:016x}"))
            .finish(),
        Event::CheckpointResumed {
            path,
            replications,
            fingerprint,
        } => JsonLine::new(event.kind())
            .str("path", path)
            .usize("replications", *replications)
            .str("fingerprint", &format!("{fingerprint:016x}"))
            .finish(),
        Event::GuardTrip {
            replication,
            frame,
            seed,
            site,
            value,
        } => JsonLine::new(event.kind())
            .usize("replication", *replication)
            .u64("frame", *frame)
            .u64("seed", *seed)
            .str("site", site)
            .f64("value", *value)
            .finish(),
        Event::WatchdogTimeout { replication, seed } => JsonLine::new(event.kind())
            .usize("replication", *replication)
            .u64("seed", *seed)
            .finish(),
        Event::BudgetExhausted {
            completed,
            requested,
        } => JsonLine::new(event.kind())
            .usize("completed", *completed)
            .usize("requested", *requested)
            .finish(),
        Event::Heartbeat { replication, frame } => JsonLine::new(event.kind())
            .usize("replication", *replication)
            .u64("frame", *frame)
            .finish(),
        Event::CheckpointFallback {
            path,
            error,
            recovered,
        } => JsonLine::new(event.kind())
            .str("path", path)
            .str("error", error)
            .bool("recovered", *recovered)
            .finish(),
        Event::CampaignStart {
            shards,
            replications,
        } => JsonLine::new(event.kind())
            .usize("shards", *shards)
            .usize("replications", *replications)
            .finish(),
        Event::WorkerSpawned {
            shard,
            attempt,
            pid,
        } => JsonLine::new(event.kind())
            .usize("shard", *shard)
            .u64("attempt", u64::from(*attempt))
            .u64("pid", u64::from(*pid))
            .finish(),
        Event::WorkerExited {
            shard,
            attempt,
            code,
        } => JsonLine::new(event.kind())
            .usize("shard", *shard)
            .u64("attempt", u64::from(*attempt))
            .i64("code", *code)
            .finish(),
        Event::WorkerStalled {
            shard,
            attempt,
            silent_ms,
        } => JsonLine::new(event.kind())
            .usize("shard", *shard)
            .u64("attempt", u64::from(*attempt))
            .u64("silent_ms", *silent_ms)
            .finish(),
        Event::WorkerRestarted {
            shard,
            attempt,
            backoff_ms,
        } => JsonLine::new(event.kind())
            .usize("shard", *shard)
            .u64("attempt", u64::from(*attempt))
            .u64("backoff_ms", *backoff_ms)
            .finish(),
        Event::ShardCompleted {
            shard,
            replications,
            attempts,
        } => JsonLine::new(event.kind())
            .usize("shard", *shard)
            .usize("replications", *replications)
            .u64("attempts", u64::from(*attempts))
            .finish(),
        Event::ShardQuarantined {
            shard,
            attempts,
            completed,
        } => JsonLine::new(event.kind())
            .usize("shard", *shard)
            .u64("attempts", u64::from(*attempts))
            .usize("completed", *completed)
            .finish(),
        Event::CampaignEnd {
            shards,
            quarantined,
            requested,
            completed,
            restarts,
            duration_ns,
        } => JsonLine::new(event.kind())
            .usize("shards", *shards)
            .usize("quarantined", *quarantined)
            .usize("requested", *requested)
            .usize("completed", *completed)
            .usize("restarts", *restarts)
            .u64("duration_ns", *duration_ns)
            .finish(),
        Event::RunEnd {
            requested,
            completed,
            timed_out,
            resumed,
            budget_exhausted,
            duration_ns,
        } => JsonLine::new(event.kind())
            .usize("requested", *requested)
            .usize("completed", *completed)
            .usize("timed_out", *timed_out)
            .usize("resumed", *resumed)
            .bool("budget_exhausted", *budget_exhausted)
            .u64("duration_ns", *duration_ns)
            .finish(),
    }
}

/// Appends optional aggregation stamps to an already-rendered event line:
/// `ts_ms` (wall-clock milliseconds) and `shard` (the writer's shard index,
/// skipped when the event already carries a `shard` field of its own, as the
/// coordinator's worker-lifecycle events do). Tailing aggregators use these
/// so shard identity and event ordering never have to be inferred from file
/// paths or arrival order.
pub fn event_to_json_stamped(event: &Event, ts_ms: Option<u64>, shard: Option<usize>) -> String {
    let mut line = event_to_json(event);
    if ts_ms.is_none() && shard.is_none() {
        return line;
    }
    line.pop(); // the closing '}' — every event line is a flat object
    if let Some(t) = ts_ms {
        let _ = write!(line, ",\"ts_ms\":{t}");
    }
    if let Some(s) = shard {
        if !line.contains("\"shard\":") {
            let _ = write!(line, ",\"shard\":{s}");
        }
    }
    line.push('}');
    line
}

/// JSONL sink: writes one line per event to a file. Each event is written as
/// **one `write` syscall of one whole line** — no userspace buffering — so a
/// concurrent tailer observes heartbeats the moment they are recorded and
/// (on POSIX appends of this size) never sees a torn line. An I/O failure is
/// reported once on stderr and the sink goes quiet — losing telemetry must
/// never lose a multi-hour simulation.
///
/// [`with_timestamps`](Self::with_timestamps) and
/// [`with_shard`](Self::with_shard) opt into the aggregation stamps
/// described at [`event_to_json_stamped`].
pub struct JsonlRecorder {
    path: PathBuf,
    file: Mutex<File>,
    failed: AtomicBool,
    shard: Option<usize>,
    timestamps: bool,
    /// Last stamp handed out, for monotone clamping across clock steps.
    last_ts: AtomicU64,
}

impl JsonlRecorder {
    fn from_file(path: PathBuf, file: File) -> Self {
        Self {
            path,
            file: Mutex::new(file),
            failed: AtomicBool::new(false),
            shard: None,
            timestamps: false,
            last_ts: AtomicU64::new(0),
        }
    }

    /// Creates (truncates) the event file.
    pub fn create(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        let file = File::create(&path)?;
        Ok(Self::from_file(path, file))
    }

    /// Opens the event file for appending (creating it if absent) — the mode
    /// a restarted worker uses so the supervisor's already-consumed prefix of
    /// the stream survives the restart.
    pub fn append(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        let file = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&path)?;
        Ok(Self::from_file(path, file))
    }

    /// Stamps every line with this writer's shard index (unless the event
    /// already carries one), so cross-shard aggregation never infers shard
    /// identity from file paths.
    pub fn with_shard(mut self, shard: usize) -> Self {
        self.shard = Some(shard);
        self
    }

    /// Stamps every line with a monotonic-ish wall-clock `ts_ms`: real time
    /// from the system clock, clamped to never decrease within this writer
    /// even if the clock steps backwards.
    pub fn with_timestamps(mut self) -> Self {
        self.timestamps = true;
        self
    }

    /// Where the events are being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn stamp_now_ms(&self) -> u64 {
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        // fetch_max returns the previous watermark; the stamp is whichever
        // of (now, watermark) is later, so stamps never run backwards.
        let prev = self.last_ts.fetch_max(now, Ordering::Relaxed);
        now.max(prev)
    }

    fn write_line(&self, line: &str) {
        if self.failed.load(Ordering::Relaxed) {
            return;
        }
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        let mut f = self.file.lock().unwrap_or_else(|e| e.into_inner());
        if let Err(e) = f.write_all(buf.as_bytes()) {
            self.failed.store(true, Ordering::Relaxed);
            eprintln!(
                "[vbr-obs] event stream {} failed, telemetry disabled: {e}",
                self.path.display()
            );
        }
    }
}

impl Recorder for JsonlRecorder {
    fn record(&self, event: &Event) {
        let ts = self.timestamps.then(|| self.stamp_now_ms());
        self.write_line(&event_to_json_stamped(event, ts, self.shard));
    }

    fn finish(&self, _summary: &RunSummary) {
        // Every line is already durable in the file — nothing buffered.
    }
}

/// One decoded event line: the [`Event`] and its aggregation stamps.
#[derive(Debug, Clone, PartialEq)]
pub struct Stamped {
    /// The event.
    pub event: Event,
    /// The `ts_ms` stamp, if the line carries one.
    pub ts_ms: Option<u64>,
    /// The `shard` field: the writer's stamp, or for the coordinator's
    /// worker-lifecycle events the event's own `shard`.
    pub shard: Option<usize>,
}

/// Decodes one line written by [`event_to_json_stamped`] back into its
/// [`Event`] and stamps — the read side of the schema [`event_to_json`]
/// writes. Fails on malformed JSON, an unknown `type`, or a field that is
/// missing or of the wrong type; fields the schema does not know are
/// ignored.
pub fn decode_line(line: &str) -> Result<Stamped, String> {
    let f = Fields(parse_flat_object(line)?);
    let event = match f.get("type", JsonScalar::as_str)? {
        "run_start" => Event::RunStart {
            seed: f.u64("seed")?,
            replications: f.usize("replications")?,
            n_sources: f.usize("n_sources")?,
            frames_per_replication: f.usize("frames_per_replication")?,
            buffers: f.usize("buffers")?,
        },
        "replication_start" => Event::ReplicationStart {
            replication: f.usize("replication")?,
            seed: f.u64("seed")?,
        },
        "replication_end" => Event::ReplicationEnd {
            replication: f.usize("replication")?,
            seed: f.u64("seed")?,
            frames: f.u64("frames")?,
            duration_ns: f.u64("duration_ns")?,
            clr_b0: f.f64("clr_b0")?,
        },
        "progress" => Event::Progress {
            completed: f.usize("completed")?,
            requested: f.usize("requested")?,
        },
        "checkpoint_saved" => Event::CheckpointSaved {
            path: f.string("path")?,
            replications: f.usize("replications")?,
            fingerprint: f.fingerprint()?,
        },
        "checkpoint_resumed" => Event::CheckpointResumed {
            path: f.string("path")?,
            replications: f.usize("replications")?,
            fingerprint: f.fingerprint()?,
        },
        "guard_trip" => Event::GuardTrip {
            replication: f.usize("replication")?,
            frame: f.u64("frame")?,
            seed: f.u64("seed")?,
            site: f.string("site")?,
            value: f.f64("value")?,
        },
        "watchdog_timeout" => Event::WatchdogTimeout {
            replication: f.usize("replication")?,
            seed: f.u64("seed")?,
        },
        "budget_exhausted" => Event::BudgetExhausted {
            completed: f.usize("completed")?,
            requested: f.usize("requested")?,
        },
        "heartbeat" => Event::Heartbeat {
            replication: f.usize("replication")?,
            frame: f.u64("frame")?,
        },
        "checkpoint_fallback" => Event::CheckpointFallback {
            path: f.string("path")?,
            error: f.string("error")?,
            recovered: f.get("recovered", JsonScalar::as_bool)?,
        },
        "campaign_start" => Event::CampaignStart {
            shards: f.usize("shards")?,
            replications: f.usize("replications")?,
        },
        "worker_spawned" => Event::WorkerSpawned {
            shard: f.usize("shard")?,
            attempt: f.u32("attempt")?,
            pid: f.u32("pid")?,
        },
        "worker_exited" => Event::WorkerExited {
            shard: f.usize("shard")?,
            attempt: f.u32("attempt")?,
            code: f.get("code", JsonScalar::as_i64)?,
        },
        "worker_stalled" => Event::WorkerStalled {
            shard: f.usize("shard")?,
            attempt: f.u32("attempt")?,
            silent_ms: f.u64("silent_ms")?,
        },
        "worker_restarted" => Event::WorkerRestarted {
            shard: f.usize("shard")?,
            attempt: f.u32("attempt")?,
            backoff_ms: f.u64("backoff_ms")?,
        },
        "shard_completed" => Event::ShardCompleted {
            shard: f.usize("shard")?,
            replications: f.usize("replications")?,
            attempts: f.u32("attempts")?,
        },
        "shard_quarantined" => Event::ShardQuarantined {
            shard: f.usize("shard")?,
            attempts: f.u32("attempts")?,
            completed: f.usize("completed")?,
        },
        "campaign_end" => Event::CampaignEnd {
            shards: f.usize("shards")?,
            quarantined: f.usize("quarantined")?,
            requested: f.usize("requested")?,
            completed: f.usize("completed")?,
            restarts: f.usize("restarts")?,
            duration_ns: f.u64("duration_ns")?,
        },
        "run_end" => Event::RunEnd {
            requested: f.usize("requested")?,
            completed: f.usize("completed")?,
            timed_out: f.usize("timed_out")?,
            resumed: f.usize("resumed")?,
            budget_exhausted: f.get("budget_exhausted", JsonScalar::as_bool)?,
            duration_ns: f.u64("duration_ns")?,
        },
        other => return Err(format!("unknown event type {other:?}")),
    };
    Ok(Stamped {
        event,
        ts_ms: f.opt("ts_ms", JsonScalar::as_u64)?,
        shard: f.opt("shard", as_usize)?,
    })
}

fn as_usize(v: &JsonScalar) -> Option<usize> {
    v.as_u64().and_then(|x| usize::try_from(x).ok())
}

/// Typed field lookup over one parsed line, for [`decode_line`].
struct Fields(Vec<(String, JsonScalar)>);

impl Fields {
    fn opt<'a, T>(
        &'a self,
        key: &str,
        read: impl Fn(&'a JsonScalar) -> Option<T>,
    ) -> Result<Option<T>, String> {
        match self.0.iter().find(|(k, _)| k == key) {
            None => Ok(None),
            Some((_, v)) => read(v)
                .map(Some)
                .ok_or_else(|| format!("field `{key}` has the wrong type: {v:?}")),
        }
    }

    fn get<'a, T>(
        &'a self,
        key: &str,
        read: impl Fn(&'a JsonScalar) -> Option<T>,
    ) -> Result<T, String> {
        self.opt(key, read)?
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        self.get(key, JsonScalar::as_u64)
    }

    fn usize(&self, key: &str) -> Result<usize, String> {
        self.get(key, as_usize)
    }

    fn u32(&self, key: &str) -> Result<u32, String> {
        self.get(key, |v| v.as_u64().and_then(|x| u32::try_from(x).ok()))
    }

    /// A number, or one of the strings [`event_to_json`] writes for NaN/±∞.
    fn f64(&self, key: &str) -> Result<f64, String> {
        self.get(key, |v| match v {
            JsonScalar::String(s) => s.parse::<f64>().ok().filter(|x| !x.is_finite()),
            _ => v.as_f64(),
        })
    }

    fn string(&self, key: &str) -> Result<String, String> {
        self.get(key, |v| v.as_str().map(str::to_owned))
    }

    fn fingerprint(&self) -> Result<u64, String> {
        self.get("fingerprint", |v| {
            v.as_str().and_then(|s| u64::from_str_radix(s, 16).ok())
        })
    }
}

/// Checks a whole JSONL body line by line: every non-blank line must
/// [decode](decode_line) to an [`Event`]. Returns the number of event lines,
/// or the 1-based line number and message of the first line that does not.
pub fn validate_stream(body: &str) -> Result<usize, (usize, String)> {
    let mut n = 0;
    for (i, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        decode_line(line).map_err(|e| (i + 1, e))?;
        n += 1;
    }
    Ok(n)
}

/// One scalar field value of a flat JSONL event object.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonScalar {
    /// A JSON number, kept as its literal text so that integers read back
    /// exactly at any magnitude.
    Number(String),
    /// A string, unescaped.
    String(String),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
}

impl JsonScalar {
    /// The value as an f64, if numeric (the nearest f64 to the literal).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonScalar::Number(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The value as a u64, if the number is an integer literal in range.
    /// Exact over the whole u64 range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonScalar::Number(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The value as an i64, if the number is an integer literal in range.
    /// Exact over the whole i64 range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonScalar::Number(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonScalar::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonScalar::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses one **flat** JSON object line (every emitted event is one) into
/// `(key, scalar)` pairs in source order, in one strict pass: anything but
/// a single object of scalar values, surrounded by optional whitespace, is
/// an error. Nested objects and arrays are rejected — the event schema has
/// none, so hitting one means the line is not an event.
pub fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonScalar)>, String> {
    let mut c = Cursor { text: line, pos: 0 };
    c.skip_ws();
    c.expect(b'{')?;
    let mut out = Vec::new();
    c.skip_ws();
    if c.peek() == Some(b'}') {
        c.pos += 1;
    } else {
        loop {
            c.skip_ws();
            let key = c.string()?;
            c.skip_ws();
            c.expect(b':')?;
            c.skip_ws();
            out.push((key, c.scalar()?));
            c.skip_ws();
            match c.peek() {
                Some(b',') => c.pos += 1,
                Some(b'}') => {
                    c.pos += 1;
                    break;
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", c.pos)),
            }
        }
    }
    c.skip_ws();
    if c.pos != line.len() {
        return Err(format!("trailing bytes at offset {}", c.pos));
    }
    Ok(out)
}

/// Read position within one line, for [`parse_flat_object`].
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl Cursor<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() != Some(byte) {
            return Err(format!(
                "expected {:?} at offset {}",
                byte as char, self.pos
            ));
        }
        self.pos += 1;
        Ok(())
    }

    fn scalar(&mut self) -> Result<JsonScalar, String> {
        match self.peek() {
            Some(b'"') => return self.string().map(JsonScalar::String),
            Some(b'-' | b'0'..=b'9') => return self.number().map(JsonScalar::Number),
            _ => {}
        }
        for (lit, value) in [
            ("true", JsonScalar::Bool(true)),
            ("false", JsonScalar::Bool(false)),
            ("null", JsonScalar::Null),
        ] {
            if self.text[self.pos..].starts_with(lit) {
                self.pos += lit.len();
                return Ok(value);
            }
        }
        Err(format!("unexpected value at offset {}", self.pos))
    }

    /// `-?digits(.digits)?([eE][+-]?digits)?`, returned as its text.
    fn number(&mut self) -> Result<String, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.digits() == 0 {
            return Err(format!("number missing integer digits at offset {start}"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(format!(
                    "number missing fraction digits at offset {}",
                    self.pos
                ));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(format!(
                    "number missing exponent digits at offset {}",
                    self.pos
                ));
            }
        }
        Ok(self.text[start..self.pos].to_owned())
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// Reads and unescapes a string.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Runs of plain text (multi-byte UTF-8 included) copy through.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {}
                Some(_) => {
                    return Err(format!("raw control byte in string at offset {}", self.pos))
                }
            }
            let at = self.pos;
            self.pos += 2;
            out.push(match self.text.as_bytes().get(at + 1) {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    let code = self
                        .text
                        .get(self.pos..self.pos + 4)
                        .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .ok_or_else(|| format!("bad \\u escape at offset {at}"))?;
                    self.pos += 4;
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                _ => return Err(format!("bad escape at offset {at}")),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vbr_stats::rng::SplitMix64;

    /// Arbitrary field values, drawn from the property's seed.
    struct Gen(SplitMix64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0.next()
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[(self.next() % xs.len() as u64) as usize]
        }

        /// Edge values half the time, any u64 otherwise.
        fn u64(&mut self) -> u64 {
            if self.next() & 1 == 0 {
                self.pick(&[0, 1, (1 << 53) + 1, u64::MAX - 1, u64::MAX])
            } else {
                self.next()
            }
        }

        fn usize(&mut self) -> usize {
            self.u64() as usize
        }

        fn u32(&mut self) -> u32 {
            let any = self.next() as u32;
            self.pick(&[0, u32::MAX, any])
        }

        fn i64(&mut self) -> i64 {
            let any = self.next() as i64;
            self.pick(&[i64::MIN, -2, -1, 0, i64::MAX, any])
        }

        /// NaN, ±∞, ±0, subnormals and extremes, or any bit pattern.
        fn f64(&mut self) -> f64 {
            let any = f64::from_bits(self.next());
            self.pick(&[
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                -0.0,
                0.0,
                f64::MIN_POSITIVE / 3.0,
                f64::MAX,
                f64::MIN,
                3.89e-6,
                any,
            ])
        }

        /// Quotes, backslashes, every control character and non-ASCII text.
        fn string(&mut self) -> String {
            let len = self.next() % 12;
            (0..len)
                .map(|_| match self.next() % 4 {
                    0 => char::from((self.next() % 0x20) as u8),
                    1 => self.pick(&['"', '\\', '/', '\u{7f}', 'é', '中', '\u{2028}', '😀']),
                    2 => char::from_u32((self.next() % 0x11_0000) as u32).unwrap_or('\u{fffd}'),
                    _ => (b' ' + (self.next() % 95) as u8) as char,
                })
                .collect()
        }
    }

    /// One event of every variant.
    #[rustfmt::skip]
    fn templates() -> Vec<Event> {
        let path = String::new;
        vec![
            Event::RunStart { seed: 0, replications: 0, n_sources: 0, frames_per_replication: 0, buffers: 0 },
            Event::ReplicationStart { replication: 0, seed: 0 },
            Event::ReplicationEnd { replication: 0, seed: 0, frames: 0, duration_ns: 0, clr_b0: 0.0 },
            Event::Progress { completed: 0, requested: 0 },
            Event::CheckpointSaved { path: path(), replications: 0, fingerprint: 0 },
            Event::CheckpointResumed { path: path(), replications: 0, fingerprint: 0 },
            Event::GuardTrip { replication: 0, frame: 0, seed: 0, site: path(), value: 0.0 },
            Event::WatchdogTimeout { replication: 0, seed: 0 },
            Event::BudgetExhausted { completed: 0, requested: 0 },
            Event::Heartbeat { replication: 0, frame: 0 },
            Event::CheckpointFallback { path: path(), error: path(), recovered: false },
            Event::CampaignStart { shards: 0, replications: 0 },
            Event::WorkerSpawned { shard: 0, attempt: 0, pid: 0 },
            Event::WorkerExited { shard: 0, attempt: 0, code: 0 },
            Event::WorkerStalled { shard: 0, attempt: 0, silent_ms: 0 },
            Event::WorkerRestarted { shard: 0, attempt: 0, backoff_ms: 0 },
            Event::ShardCompleted { shard: 0, replications: 0, attempts: 0 },
            Event::ShardQuarantined { shard: 0, attempts: 0, completed: 0 },
            Event::CampaignEnd { shards: 0, quarantined: 0, requested: 0, completed: 0, restarts: 0, duration_ns: 0 },
            Event::RunEnd { requested: 0, completed: 0, timed_out: 0, resumed: 0, budget_exhausted: false, duration_ns: 0 },
        ]
    }

    /// An event of `like`'s variant with every field drawn from `g`, and the
    /// event's own `shard` field if it has one. The match is exhaustive, so
    /// a new variant does not build until it is generated (and decoded).
    fn arbitrary(like: &Event, g: &mut Gen) -> (Event, Option<usize>) {
        let ev = match like {
            Event::RunStart { .. } => Event::RunStart {
                seed: g.u64(),
                replications: g.usize(),
                n_sources: g.usize(),
                frames_per_replication: g.usize(),
                buffers: g.usize(),
            },
            Event::ReplicationStart { .. } => Event::ReplicationStart {
                replication: g.usize(),
                seed: g.u64(),
            },
            Event::ReplicationEnd { .. } => Event::ReplicationEnd {
                replication: g.usize(),
                seed: g.u64(),
                frames: g.u64(),
                duration_ns: g.u64(),
                clr_b0: g.f64(),
            },
            Event::Progress { .. } => Event::Progress {
                completed: g.usize(),
                requested: g.usize(),
            },
            Event::CheckpointSaved { .. } => Event::CheckpointSaved {
                path: g.string(),
                replications: g.usize(),
                fingerprint: g.u64(),
            },
            Event::CheckpointResumed { .. } => Event::CheckpointResumed {
                path: g.string(),
                replications: g.usize(),
                fingerprint: g.u64(),
            },
            Event::GuardTrip { .. } => Event::GuardTrip {
                replication: g.usize(),
                frame: g.u64(),
                seed: g.u64(),
                site: g.string(),
                value: g.f64(),
            },
            Event::WatchdogTimeout { .. } => Event::WatchdogTimeout {
                replication: g.usize(),
                seed: g.u64(),
            },
            Event::BudgetExhausted { .. } => Event::BudgetExhausted {
                completed: g.usize(),
                requested: g.usize(),
            },
            Event::Heartbeat { .. } => Event::Heartbeat {
                replication: g.usize(),
                frame: g.u64(),
            },
            Event::CheckpointFallback { .. } => Event::CheckpointFallback {
                path: g.string(),
                error: g.string(),
                recovered: g.next() & 1 == 1,
            },
            Event::CampaignStart { .. } => Event::CampaignStart {
                shards: g.usize(),
                replications: g.usize(),
            },
            Event::WorkerSpawned { .. } => Event::WorkerSpawned {
                shard: g.usize(),
                attempt: g.u32(),
                pid: g.u32(),
            },
            Event::WorkerExited { .. } => Event::WorkerExited {
                shard: g.usize(),
                attempt: g.u32(),
                code: g.i64(),
            },
            Event::WorkerStalled { .. } => Event::WorkerStalled {
                shard: g.usize(),
                attempt: g.u32(),
                silent_ms: g.u64(),
            },
            Event::WorkerRestarted { .. } => Event::WorkerRestarted {
                shard: g.usize(),
                attempt: g.u32(),
                backoff_ms: g.u64(),
            },
            Event::ShardCompleted { .. } => Event::ShardCompleted {
                shard: g.usize(),
                replications: g.usize(),
                attempts: g.u32(),
            },
            Event::ShardQuarantined { .. } => Event::ShardQuarantined {
                shard: g.usize(),
                attempts: g.u32(),
                completed: g.usize(),
            },
            Event::CampaignEnd { .. } => Event::CampaignEnd {
                shards: g.usize(),
                quarantined: g.usize(),
                requested: g.usize(),
                completed: g.usize(),
                restarts: g.usize(),
                duration_ns: g.u64(),
            },
            Event::RunEnd { .. } => Event::RunEnd {
                requested: g.usize(),
                completed: g.usize(),
                timed_out: g.usize(),
                resumed: g.usize(),
                budget_exhausted: g.next() & 1 == 1,
                duration_ns: g.u64(),
            },
        };
        let own_shard = match &ev {
            Event::WorkerSpawned { shard, .. }
            | Event::WorkerExited { shard, .. }
            | Event::WorkerStalled { shard, .. }
            | Event::WorkerRestarted { shard, .. }
            | Event::ShardCompleted { shard, .. }
            | Event::ShardQuarantined { shard, .. } => Some(*shard),
            _ => None,
        };
        (ev, own_shard)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The schema round-trips: every variant, arbitrary field values and
        /// every combination of stamps decode back to what was encoded. f64
        /// fields compare by bits, NaN by class: `{:?}` prints the shortest
        /// text that round-trips, with the sign of zero and `NaN` for all NaNs.
        #[test]
        fn every_event_round_trips_through_decode_line(seed: u64) {
            let mut g = Gen(SplitMix64::new(seed));
            let templates = templates();
            let kinds: std::collections::BTreeSet<_> = templates.iter().map(Event::kind).collect();
            prop_assert_eq!(kinds.len(), 20);
            for like in &templates {
                let (ev, own_shard) = arbitrary(like, &mut g);
                for (ts_ms, shard) in [
                    (None, None),
                    (Some(g.u64()), None),
                    (None, Some(g.usize())),
                    (Some(g.u64()), Some(g.usize())),
                ] {
                    let line = event_to_json_stamped(&ev, ts_ms, shard);
                    prop_assert!(!line.contains('\n'), "single line: {}", line);
                    let back = decode_line(&line).unwrap_or_else(|e| panic!("{e}\n{line}"));
                    prop_assert_eq!(format!("{:?}", back.event), format!("{ev:?}"), "{}", line);
                    prop_assert_eq!(back.ts_ms, ts_ms, "{}", line);
                    prop_assert_eq!(back.shard, own_shard.or(shard), "{}", line);
                }
            }
        }
    }

    #[test]
    fn non_finite_floats_encode_as_strings() {
        let line = event_to_json(&Event::GuardTrip {
            replication: 0,
            frame: 0,
            seed: 0,
            site: "aggregate arrivals".into(),
            value: f64::INFINITY,
        });
        assert!(line.contains("\"inf\""), "{line}");
        match decode_line(&line).expect("decodes").event {
            Event::GuardTrip { value, .. } => assert_eq!(value, f64::INFINITY),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn flat_parser_rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "{'a':1}",
            "{\"a\":01e}",
            "{\"a\":1} trailing",
            "{\"a\":\"unterminated}",
            "{\"a\":nul}",
            "{\"a\":1 \"b\":2}",
            "[1,2,3]",
            "{\"a\":{\"b\":1}}",
            "{\"a\":[1]}",
            "{\"a\" 1}",
            "{\"a\":1}}",
            "{\"a\":\"\\x\"}",
            "{\"a\":\"\\u12\"}",
            "{\"a\":\"raw\ttab\"}",
            "{\"a\":-}",
            "{\"a\":1.}",
            "\"just a string\"",
        ] {
            assert!(parse_flat_object(bad).is_err(), "should reject: {bad:?}");
        }
    }

    #[test]
    fn decode_rejects_unknown_types_and_missing_or_mistyped_fields() {
        for bad in [
            "{\"no_type\":1}",
            "{\"type\":\"no_such_event\"}",
            "{\"type\":\"progress\",\"completed\":1}",
            "{\"type\":\"progress\",\"completed\":\"1\",\"requested\":2}",
            "{\"type\":\"progress\",\"completed\":-1,\"requested\":2}",
            "{\"type\":\"progress\",\"completed\":1.5,\"requested\":2}",
            "{\"type\":\"progress\",\"completed\":1,\"requested\":2,\"ts_ms\":\"x\"}",
            "{\"type\":\"worker_spawned\",\"shard\":0,\"attempt\":4294967296,\"pid\":1}",
            "{\"type\":\"replication_end\",\"replication\":0,\"seed\":1,\"frames\":1,\
             \"duration_ns\":1,\"clr_b0\":\"1e-3\"}",
        ] {
            assert!(decode_line(bad).is_err(), "should reject: {bad:?}");
        }
        // Fields the schema does not know are ignored.
        let ok =
            decode_line("{\"type\":\"progress\",\"completed\":1,\"requested\":2,\"note\":null}");
        assert_eq!(
            ok.map(|s| s.event),
            Ok(Event::Progress {
                completed: 1,
                requested: 2
            })
        );
    }

    #[test]
    fn jsonl_recorder_writes_parseable_stream() {
        let dir = std::env::temp_dir().join("vbr_obs_jsonl_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("events.jsonl");
        let rec = JsonlRecorder::create(&path).expect("create");
        rec.record(&Event::ReplicationStart {
            replication: 0,
            seed: 9,
        });
        rec.record(&Event::Progress {
            completed: 1,
            requested: 2,
        });
        let body = std::fs::read_to_string(&path).expect("read back");
        let n = validate_stream(&body).expect("all lines valid");
        assert_eq!(n, 2);
        assert_eq!(body.lines().count(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn validate_stream_pinpoints_bad_line() {
        let ok = event_to_json(&Event::Progress {
            completed: 1,
            requested: 2,
        });
        for bad in [
            "not json",
            "{\"ok\":1}",
            "{\"type\":\"progress\",\"completed\":1}",
        ] {
            let (line, _) = validate_stream(&format!("{ok}\n\n{bad}\n")).unwrap_err();
            assert_eq!(line, 3, "{bad}");
        }
    }

    #[test]
    fn flat_object_parser_reads_scalars() {
        let line = "{\"type\":\"worker_exited\",\"shard\":2,\"attempt\":1,\"code\":-1,\
                    \"note\":\"a \\\"q\\\" \\u00e9\\u4E2d\\/\",\"flag\":true,\"none\":null,\"x\":2.5e-3}";
        let fields = parse_flat_object(line).expect("parses");
        let get = |k: &str| {
            fields
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(
            fields[0],
            ("type".into(), JsonScalar::String("worker_exited".into()))
        );
        assert_eq!(get("shard").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(get("code").and_then(|v| v.as_f64()), Some(-1.0));
        assert_eq!(get("code").and_then(|v| v.as_i64()), Some(-1));
        assert_eq!(get("note"), Some(JsonScalar::String("a \"q\" é中/".into())));
        assert_eq!(get("flag"), Some(JsonScalar::Bool(true)));
        assert_eq!(get("none"), Some(JsonScalar::Null));
        assert_eq!(get("x").and_then(|v| v.as_f64()), Some(2.5e-3));
        // as_u64 rejects negatives and fractions.
        assert_eq!(get("code").and_then(|v| v.as_u64()), None);
        assert_eq!(get("x").and_then(|v| v.as_u64()), None);

        assert_eq!(parse_flat_object("{}").expect("empty ok"), vec![]);
        assert_eq!(
            parse_flat_object(" { \"k\" : true } ")
                .expect("spaced ok")
                .len(),
            1
        );
    }

    /// Integers read back exactly, not through an f64.
    #[test]
    fn integers_read_back_exactly() {
        let seed = (1u64 << 53) + 1;
        let line = event_to_json(&Event::ReplicationStart {
            replication: 0,
            seed,
        });
        let fields = parse_flat_object(&line).expect("flat");
        let read = fields
            .iter()
            .find(|(k, _)| k == "seed")
            .map(|(_, v)| v.as_u64());
        assert_eq!(read, Some(Some(seed)), "{line}");

        let fields = parse_flat_object(&format!("{{\"max\":{},\"min\":{}}}", u64::MAX, i64::MIN))
            .expect("flat");
        assert_eq!(fields[0].1.as_u64(), Some(u64::MAX));
        assert_eq!(fields[1].1.as_i64(), Some(i64::MIN));
        assert_eq!(fields[0].1.as_i64(), None, "out of i64 range");
    }

    #[test]
    fn stamped_lines_carry_ts_and_shard() {
        let dir = std::env::temp_dir().join("vbr_obs_jsonl_stamp_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("events.jsonl");
        let rec = JsonlRecorder::create(&path)
            .expect("create")
            .with_shard(3)
            .with_timestamps();
        rec.record(&Event::Heartbeat {
            replication: 1,
            frame: 4096,
        });
        // An event that already names a shard keeps its own field.
        rec.record(&Event::WorkerSpawned {
            shard: 9,
            attempt: 1,
            pid: 1234,
        });
        let body = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);

        let fields = parse_flat_object(lines[0]).expect("stamped line parses");
        let get = |k: &str| {
            fields
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(get("shard").and_then(|v| v.as_u64()), Some(3));
        assert!(get("ts_ms").and_then(|v| v.as_u64()).is_some(), "{body}");

        let fields = parse_flat_object(lines[1]).expect("parses");
        let shards: Vec<_> = fields.iter().filter(|(k, _)| k == "shard").collect();
        assert_eq!(shards.len(), 1, "no duplicate shard key: {}", lines[1]);
        assert_eq!(shards[0].1.as_u64(), Some(9), "event's own shard wins");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn timestamps_never_decrease_within_a_recorder() {
        let dir = std::env::temp_dir().join("vbr_obs_jsonl_mono_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("events.jsonl");
        let rec = JsonlRecorder::create(&path)
            .expect("create")
            .with_timestamps();
        for i in 0..50 {
            rec.record(&Event::Progress {
                completed: i,
                requested: 50,
            });
        }
        let body = std::fs::read_to_string(&path).expect("read back");
        let mut last = 0u64;
        for line in body.lines() {
            let fields = parse_flat_object(line).expect("parses");
            let ts = fields
                .iter()
                .find(|(k, _)| k == "ts_ms")
                .and_then(|(_, v)| v.as_u64())
                .expect("stamped");
            assert!(ts >= last, "ts_ms went backwards: {ts} < {last}");
            last = ts;
        }
        let _ = std::fs::remove_file(&path);
    }

    /// The satellite contract: events are visible on disk the moment
    /// `record` returns — a concurrent tailer sees each heartbeat promptly,
    /// not on a buffer boundary.
    #[test]
    fn events_are_durable_immediately_after_record() {
        let dir = std::env::temp_dir().join("vbr_obs_jsonl_flush_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("events.jsonl");
        let rec = JsonlRecorder::append(&path).expect("append");
        for i in 1..=3usize {
            rec.record(&Event::Heartbeat {
                replication: i,
                frame: 0,
            });
            // Read back through the filesystem *while the recorder is live*.
            let body = std::fs::read_to_string(&path).expect("read back");
            assert_eq!(body.lines().count(), i, "line {i} not flushed");
            assert!(body.ends_with('\n'), "line {i} incomplete on disk");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn event_to_json_stamped_without_stamps_is_identity() {
        let ev = Event::Progress {
            completed: 1,
            requested: 2,
        };
        assert_eq!(event_to_json_stamped(&ev, None, None), event_to_json(&ev));
        let stamped = event_to_json_stamped(&ev, Some(1700000000123), Some(2));
        assert_eq!(
            decode_line(&stamped),
            Ok(Stamped {
                event: ev,
                ts_ms: Some(1700000000123),
                shard: Some(2)
            })
        );
        assert!(
            stamped.ends_with(",\"ts_ms\":1700000000123,\"shard\":2}"),
            "{stamped}"
        );
    }

    #[test]
    fn append_mode_preserves_existing_lines() {
        let dir = std::env::temp_dir().join("vbr_obs_jsonl_append_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("events.jsonl");
        {
            let rec = JsonlRecorder::create(&path).expect("create");
            rec.record(&Event::Progress {
                completed: 1,
                requested: 2,
            });
        }
        {
            let rec = JsonlRecorder::append(&path).expect("append");
            rec.record(&Event::Progress {
                completed: 2,
                requested: 2,
            });
        }
        let body = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(body.lines().count(), 2, "append kept the first line");
        let _ = std::fs::remove_file(&path);
    }
}
