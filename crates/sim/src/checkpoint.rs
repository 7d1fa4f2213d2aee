//! Deterministic checkpoint/resume for the replication harness.
//!
//! Because source j of replication `r` draws from its own independent
//! stream `root.split(r).split(j)`, a replication's result depends only on
//! `(config, r)` —
//! never on which other replications ran, in what order, or on how many
//! threads. That makes resumption trivially bit-identical: a checkpoint is
//! just the set of completed replication results, and a resumed run computes
//! exactly the missing ones and merges. No RNG state needs saving.
//!
//! The on-disk format is versioned, line-oriented text. All `f64` payloads
//! are stored as their IEEE-754 bit patterns in hex (`to_bits`), so the
//! round-trip is exact — the resumed run's pooled CLR matches an
//! uninterrupted run to the last bit. A trailer line (`end <count>`) makes
//! truncation (the writing process died mid-write) detectable, and a final
//! `checksum` line (FNV-1a over every preceding byte) catches silent
//! content corruption; writes go to a temp file first and are atomically
//! renamed into place so a crash never corrupts an existing good checkpoint.
//!
//! Saves additionally **rotate**: the previous good checkpoint survives as a
//! `.prev` sibling, and `load_with_fallback` degrades a corrupt primary to
//! that previous version (or a fresh start) with a recorded event instead of
//! failing the run — a supervisor restarting a crashed worker must never be
//! stopped by the wreckage the crash left behind.

use crate::error::{CheckpointErrorKind, SimError};
use crate::queue::{BopEstimator, LossAccount};
use crate::runner::{RepResult, SimConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Checkpoint format version. v2 added the trailing `checksum` line; v3
/// kept v2's format but marked results drawn after Gaussian AR(1) sources
/// began keeping their polar spare deviate; v4 keeps v3's format but marks
/// results drawn after Gaussian AR(1) moved to ziggurat innovations; v5
/// keeps v4's format but marks results drawn after every source of a
/// replication got its own stream, `root.split(r).split(j)`; v6 keeps v5's
/// format but marks results drawn after Gaussian AR(1) started carrying its
/// deviation from the mean, which rounds differently. Each bump changed a
/// draw sequence or its arithmetic, so results of different versions are
/// never merged: files of any other version are rejected as a version
/// mismatch.
pub const CHECKPOINT_VERSION: u32 = 6;

const MAGIC: &str = "vbr-sim-checkpoint";

/// FNV-1a offset basis: the hash state before any byte.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a hash from state `h` over `bytes` — the same hash the
/// config fingerprint uses, reused for the whole-file content checksum.
/// Hashing a text in pieces gives the hash of the whole.
fn fnv1a_from(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_BASIS, bytes)
}

/// Path of the rotated previous checkpoint (`<file>.prev` sibling).
pub(crate) fn prev_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".prev");
    path.with_file_name(name)
}

/// When and where the runner persists completed replications.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Checkpoint file path. Written atomically (temp file + rename).
    pub path: PathBuf,
    /// Persist after every `every` newly completed replications (1 = after
    /// each). The final state is always written when the run ends.
    pub every: usize,
}

impl CheckpointPolicy {
    /// Checkpoint to `path` after every completed replication.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            every: 1,
        }
    }
}

/// FNV-1a hash of the canonical byte encoding of every config field that
/// affects simulation output. Two configs with equal fingerprints produce
/// interchangeable replication results.
pub fn config_fingerprint(config: &SimConfig) -> u64 {
    let mut h: u64 = FNV_BASIS;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(&(config.n_sources as u64).to_le_bytes());
    eat(&config.capacity_per_source.to_bits().to_le_bytes());
    eat(&(config.buffers_total.len() as u64).to_le_bytes());
    for &b in &config.buffers_total {
        eat(&b.to_bits().to_le_bytes());
    }
    eat(&(config.frames_per_replication as u64).to_le_bytes());
    eat(&(config.warmup_frames as u64).to_le_bytes());
    eat(&config.seed.to_le_bytes());
    eat(&config.ts.to_bits().to_le_bytes());
    eat(&[u8::from(config.track_bop)]);
    // Note: `replications` is deliberately excluded — a checkpoint from a
    // 60-replication run is a valid prefix for an 80-replication run.
    h
}

fn ckpt_err(path: &Path, kind: CheckpointErrorKind) -> SimError {
    SimError::Checkpoint {
        path: path.to_path_buf(),
        kind,
    }
}

fn parse_err(path: &Path, line: usize, message: impl Into<String>) -> SimError {
    ckpt_err(
        path,
        CheckpointErrorKind::Parse {
            line,
            message: message.into(),
        },
    )
}

/// Writes the four header lines: magic and version, fingerprint, buffer
/// count and BOP flag.
fn render_header(out: &mut String, config: &SimConfig, fingerprint: u64) {
    let _ = writeln!(out, "{MAGIC} v{CHECKPOINT_VERSION}");
    let _ = writeln!(out, "fingerprint {fingerprint:016x}");
    let _ = writeln!(out, "buffers {}", config.buffers_total.len());
    let _ = writeln!(out, "track_bop {}", u8::from(config.track_bop));
}

/// Writes one replication's record: its `rep` line and, with BOP tracking,
/// its `bop` line.
fn render_record(out: &mut String, rep: usize, result: &RepResult) {
    let _ = write!(out, "rep {rep} accounts");
    for a in &result.accounts {
        let _ = write!(out, " {:016x} {:016x}", a.offered.to_bits(), a.lost.to_bits());
    }
    let _ = writeln!(out);
    if let Some(bop) = &result.bop {
        let _ = write!(out, "bop {}", bop.observations());
        for &b in bop.buckets() {
            let _ = write!(out, " {b}");
        }
        let _ = writeln!(out);
    }
}

/// Writes the `end` and `checksum` lines after a body whose FNV-1a state is
/// `hash`: the checksum covers every byte before its own line, so
/// corruption that happens to keep lines parseable (bit flips inside a hex
/// payload) is still caught.
fn render_trailer(out: &mut String, hash: u64, records: usize) {
    let from = out.len();
    let _ = writeln!(out, "end {records}");
    let sum = fnv1a_from(hash, &out.as_bytes()[from..]);
    let _ = writeln!(out, "checksum {sum:016x}");
}

/// Serializes the completed replication set to the checkpoint text format
/// in one pass: the reference the incremental [`CheckpointLog`] must match
/// byte for byte.
#[cfg(test)]
pub(crate) fn render(config: &SimConfig, results: &BTreeMap<usize, RepResult>) -> String {
    let mut out = String::new();
    render_header(&mut out, config, config_fingerprint(config));
    for (&rep, result) in results {
        render_record(&mut out, rep, result);
    }
    let hash = fnv1a(out.as_bytes());
    render_trailer(&mut out, hash, results.len());
    out
}

/// A checkpoint file kept rendered as replications complete, so a save
/// costs one new record and a file write rather than a re-render of the
/// whole completed set.
///
/// `body` holds the header and every record in replication order: the file
/// up to its `end` line. Each record is rendered once, when it is inserted,
/// and the FNV-1a state of the content checksum is kept after every record.
/// A record that lands after all others (the common case) is the only text
/// hashed; one that lands out of order (another thread finished a later
/// replication first) re-hashes from its own position on. [`save`] adds the
/// `end` and `checksum` lines, so the file is byte for byte what a one-pass
/// render of the same set writes.
pub(crate) struct CheckpointLog {
    fingerprint: u64,
    body: String,
    header_len: usize,
    header_hash: u64,
    /// Per record in replication order: replication index, end offset of
    /// the record in `body`, and the hash state after it.
    records: Vec<(usize, usize, u64)>,
}

impl CheckpointLog {
    /// A log holding `results`, typically what a resumed run loaded.
    pub(crate) fn new(config: &SimConfig, results: &BTreeMap<usize, RepResult>) -> Self {
        let fingerprint = config_fingerprint(config);
        let mut body = String::new();
        render_header(&mut body, config, fingerprint);
        let mut log = Self {
            fingerprint,
            header_len: body.len(),
            header_hash: fnv1a(body.as_bytes()),
            body,
            records: Vec::with_capacity(results.len()),
        };
        for (&rep, result) in results {
            log.insert(rep, result);
        }
        log
    }

    /// Renders the record of replication `rep`, which the log must not hold
    /// yet, into its place. Returns the number of body bytes hashed: the new
    /// record's length when it lands after every other.
    pub(crate) fn insert(&mut self, rep: usize, result: &RepResult) -> usize {
        let at = self.records.partition_point(|&(r, _, _)| r < rep);
        debug_assert!(self.records.get(at).is_none_or(|&(r, _, _)| r != rep));
        let (start, mut hash) = match at.checked_sub(1) {
            None => (self.header_len, self.header_hash),
            Some(before) => {
                let (_, end, hash) = self.records[before];
                (end, hash)
            }
        };
        let mut record = String::new();
        render_record(&mut record, rep, result);
        self.body.insert_str(start, &record);
        self.records.insert(at, (rep, start, 0));
        let mut from = start;
        for entry in &mut self.records[at..] {
            entry.1 += record.len();
            hash = fnv1a_from(hash, &self.body.as_bytes()[from..entry.1]);
            entry.2 = hash;
            from = entry.1;
        }
        from - start
    }
}

/// Atomically writes the checkpoint file for the completed set `log` holds.
/// Returns the config fingerprint the file was stamped with, so callers
/// (telemetry events) can report it without recomputing.
pub(crate) fn save(policy: &CheckpointPolicy, log: &mut CheckpointLog) -> Result<u64, SimError> {
    // The trailer goes on the end of the rendered body for the one write
    // and comes off again, so the body is never copied.
    let body_len = log.body.len();
    let hash = log.records.last().map_or(log.header_hash, |&(_, _, h)| h);
    render_trailer(&mut log.body, hash, log.records.len());
    let tmp = policy.path.with_extension("ckpt.tmp");
    let written = std::fs::write(&tmp, &log.body);
    log.body.truncate(body_len);
    written.map_err(|e| SimError::io(format!("writing checkpoint {}", tmp.display()), e))?;
    // Rotate the current good checkpoint to its `.prev` sibling so a later
    // corrupt primary can fall back to it. Absence is fine (first save).
    let prev = prev_path(&policy.path);
    match std::fs::rename(&policy.path, &prev) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            return Err(SimError::io(
                format!("rotating checkpoint to {}", prev.display()),
                e,
            ))
        }
        _ => {}
    }
    std::fs::rename(&tmp, &policy.path).map_err(|e| {
        SimError::io(
            format!("renaming checkpoint into place at {}", policy.path.display()),
            e,
        )
    })?;
    Ok(log.fingerprint)
}

/// Parses a checkpoint body; `path` is used only for error context.
pub(crate) fn parse(
    text: &str,
    path: &Path,
    config: &SimConfig,
) -> Result<BTreeMap<usize, RepResult>, SimError> {
    let n_buffers = config.buffers_total.len();

    // Header: magic + version — peeked first, so a file of another version
    // reads as a version mismatch rather than a checksum failure.
    let header = text
        .lines()
        .next()
        .ok_or_else(|| ckpt_err(path, CheckpointErrorKind::Truncated))?;
    let version = header
        .strip_prefix(MAGIC)
        .map(str::trim)
        .and_then(|v| v.strip_prefix('v'))
        .and_then(|v| v.parse::<u32>().ok())
        .ok_or_else(|| ckpt_err(path, CheckpointErrorKind::BadHeader(header.into())))?;
    if version != CHECKPOINT_VERSION {
        return Err(ckpt_err(
            path,
            CheckpointErrorKind::VersionMismatch {
                found: version,
                expected: CHECKPOINT_VERSION,
            },
        ));
    }

    // The final line is `checksum <hex>` over every preceding byte.
    let (body, found) =
        split_checksum(text).ok_or_else(|| ckpt_err(path, CheckpointErrorKind::Truncated))?;
    let expected = fnv1a(body.as_bytes());
    if found != expected {
        return Err(ckpt_err(
            path,
            CheckpointErrorKind::ChecksumMismatch { found, expected },
        ));
    }

    let mut lines = body.lines().enumerate();
    let _ = lines.next(); // header, parsed above

    // Fixed preamble: fingerprint, buffer count, bop flag.
    let mut expect_field = |name: &'static str| -> Result<(usize, String), SimError> {
        let (i, line) = lines
            .next()
            .ok_or_else(|| ckpt_err(path, CheckpointErrorKind::Truncated))?;
        line.strip_prefix(name)
            .map(|rest| (i + 1, rest.trim().to_string()))
            .ok_or_else(|| parse_err(path, i + 1, format!("expected `{name}`, got {line:?}")))
    };
    let (fp_line, fp) = expect_field("fingerprint")?;
    let found_fp = u64::from_str_radix(&fp, 16)
        .map_err(|e| parse_err(path, fp_line, format!("bad fingerprint: {e}")))?;
    let expected_fp = config_fingerprint(config);
    if found_fp != expected_fp {
        return Err(ckpt_err(
            path,
            CheckpointErrorKind::ConfigMismatch {
                found: found_fp,
                expected: expected_fp,
            },
        ));
    }
    let (bl, buffers) = expect_field("buffers")?;
    let file_buffers: usize = buffers
        .parse()
        .map_err(|e| parse_err(path, bl, format!("bad buffer count: {e}")))?;
    if file_buffers != n_buffers {
        return Err(parse_err(
            path,
            bl,
            format!("buffer count {file_buffers} vs config {n_buffers}"),
        ));
    }
    let (tl, track) = expect_field("track_bop")?;
    let file_bop = match track.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(parse_err(path, tl, format!("bad track_bop {other:?}"))),
    };
    if file_bop != config.track_bop {
        return Err(parse_err(
            path,
            tl,
            format!("track_bop {file_bop} vs config {}", config.track_bop),
        ));
    }

    // Replication records until the trailer.
    let mut results: BTreeMap<usize, RepResult> = BTreeMap::new();
    let mut pending_bop_for: Option<usize> = None;
    let mut saw_end = false;
    for (i, line) in lines {
        let lineno = i + 1;
        if let Some(rest) = line.strip_prefix("end ") {
            let count: usize = rest
                .trim()
                .parse()
                .map_err(|e| parse_err(path, lineno, format!("bad trailer count: {e}")))?;
            if count != results.len() {
                return Err(parse_err(
                    path,
                    lineno,
                    format!("trailer says {count} records, found {}", results.len()),
                ));
            }
            if config.track_bop {
                if let Some(rep) = pending_bop_for {
                    return Err(parse_err(path, lineno, format!("rep {rep} missing bop line")));
                }
            }
            saw_end = true;
            break;
        } else if let Some(rest) = line.strip_prefix("rep ") {
            if let Some(rep) = pending_bop_for {
                return Err(parse_err(path, lineno, format!("rep {rep} missing bop line")));
            }
            let mut tokens = rest.split_whitespace();
            let rep: usize = tokens
                .next()
                .ok_or_else(|| parse_err(path, lineno, "missing rep index"))?
                .parse()
                .map_err(|e| parse_err(path, lineno, format!("bad rep index: {e}")))?;
            match tokens.next() {
                Some("accounts") => {}
                other => {
                    return Err(parse_err(path, lineno, format!("expected `accounts`, got {other:?}")))
                }
            }
            let mut accounts = Vec::with_capacity(n_buffers);
            for b in 0..n_buffers {
                let mut bits = |what: &str| -> Result<f64, SimError> {
                    let tok = tokens.next().ok_or_else(|| {
                        parse_err(path, lineno, format!("buffer {b}: missing {what}"))
                    })?;
                    let raw = u64::from_str_radix(tok, 16).map_err(|e| {
                        parse_err(path, lineno, format!("buffer {b}: bad {what}: {e}"))
                    })?;
                    Ok(f64::from_bits(raw))
                };
                let offered = bits("offered")?;
                let lost = bits("lost")?;
                accounts.push(LossAccount { offered, lost });
            }
            if tokens.next().is_some() {
                return Err(parse_err(path, lineno, "trailing tokens on rep line"));
            }
            if results
                .insert(rep, RepResult::from_accounts(accounts, None))
                .is_some()
            {
                return Err(parse_err(path, lineno, format!("duplicate rep {rep}")));
            }
            if config.track_bop {
                pending_bop_for = Some(rep);
            }
        } else if let Some(rest) = line.strip_prefix("bop ") {
            let rep = pending_bop_for
                .take()
                .ok_or_else(|| parse_err(path, lineno, "bop line without preceding rep"))?;
            let mut tokens = rest.split_whitespace();
            let total: u64 = tokens
                .next()
                .ok_or_else(|| parse_err(path, lineno, "missing bop total"))?
                .parse()
                .map_err(|e| parse_err(path, lineno, format!("bad bop total: {e}")))?;
            let buckets: Vec<u64> = tokens
                .map(|t| {
                    t.parse()
                        .map_err(|e| parse_err(path, lineno, format!("bad bop bucket: {e}")))
                })
                .collect::<Result<_, _>>()?;
            if buckets.len() != n_buffers + 1 {
                return Err(parse_err(
                    path,
                    lineno,
                    format!("bop bucket count {} vs expected {}", buckets.len(), n_buffers + 1),
                ));
            }
            // `from_raw` asserts this invariant; check it here first so a
            // corrupt line is a typed parse error, not a panic.
            let sum: u64 = buckets.iter().sum();
            if sum != total {
                return Err(parse_err(
                    path,
                    lineno,
                    format!("bop buckets sum to {sum}, trailer total says {total}"),
                ));
            }
            let est = BopEstimator::from_raw(config.buffers_total.clone(), buckets, total);
            if let Some(r) = results.get_mut(&rep) {
                r.bop = Some(est);
            }
        } else if line.trim().is_empty() {
            continue;
        } else {
            return Err(parse_err(path, lineno, format!("unrecognized line {line:?}")));
        }
    }
    if !saw_end {
        return Err(ckpt_err(path, CheckpointErrorKind::Truncated));
    }
    Ok(results)
}

/// Splits off the trailing `checksum <hex>` line: returns the body it covers
/// (everything up to and including the newline before it) and the recorded
/// sum. `None` if the file does not end in a well-formed checksum line.
fn split_checksum(text: &str) -> Option<(&str, u64)> {
    let trimmed = text.trim_end();
    let idx = trimmed.rfind('\n')?;
    let hex = trimmed[idx + 1..].strip_prefix("checksum ")?;
    let found = u64::from_str_radix(hex.trim(), 16).ok()?;
    Some((&text[..idx + 1], found))
}

/// Loads and validates a checkpoint against the current config. Returns the
/// completed replication results keyed by replication index.
pub(crate) fn load(
    path: &Path,
    config: &SimConfig,
) -> Result<BTreeMap<usize, RepResult>, SimError> {
    let bytes = std::fs::read(path)
        .map_err(|e| SimError::io(format!("reading checkpoint {}", path.display()), e))?;
    // A flipped byte can take the file out of UTF-8 entirely; that is file
    // damage (fallback-eligible), not an I/O failure (hard error).
    let text = String::from_utf8(bytes).map_err(|e| SimError::Checkpoint {
        path: path.to_path_buf(),
        kind: CheckpointErrorKind::Parse {
            line: 0,
            message: format!("not valid UTF-8: {e}"),
        },
    })?;
    parse(&text, path, config)
}

/// Validates the checkpoint at `path` against `config` and returns how many
/// completed replications it holds. This is the supervisor's integrity probe
/// (is a shard's checkpoint complete?) and the direct way for tests to
/// assert the typed error a damaged file produces.
pub fn verify(path: &Path, config: &SimConfig) -> Result<usize, SimError> {
    load(path, config).map(|results| results.len())
}

/// How a resume degraded when the primary checkpoint was unusable.
#[derive(Debug, Clone)]
pub(crate) struct FallbackInfo {
    /// Rendered error the primary failed with.
    pub error: String,
    /// True if the rotated `.prev` version loaded; false if the run had to
    /// start fresh.
    pub recovered: bool,
}

/// True for damage a crashed writer can inflict (and a fallback can heal);
/// false for errors that mean the *request* is wrong (config/version
/// mismatch) or the filesystem is failing, which must stay fatal.
fn is_corruption(e: &SimError) -> bool {
    matches!(
        e,
        SimError::Checkpoint {
            kind: CheckpointErrorKind::BadHeader(_)
                | CheckpointErrorKind::Truncated
                | CheckpointErrorKind::Parse { .. }
                | CheckpointErrorKind::ChecksumMismatch { .. },
            ..
        }
    )
}

/// Loads the checkpoint at `path`, degrading through the fallback chain on
/// corruption: primary → rotated `.prev` → fresh start. Returns the results
/// plus `Some(FallbackInfo)` when the primary was unusable (so the caller
/// can emit a `CheckpointFallback` event). Config/version mismatches and
/// I/O failures other than absence stay hard errors.
pub(crate) fn load_with_fallback(
    path: &Path,
    config: &SimConfig,
) -> Result<(BTreeMap<usize, RepResult>, Option<FallbackInfo>), SimError> {
    let prev = prev_path(path);
    if !path.exists() {
        // A crash between the two rotation renames can leave only `.prev`;
        // treat it as the checkpoint rather than silently starting over.
        if prev.exists() {
            let results = load(&prev, config)?;
            return Ok((
                results,
                Some(FallbackInfo {
                    error: format!("{} missing (crash during rotation)", path.display()),
                    recovered: true,
                }),
            ));
        }
        return Ok((BTreeMap::new(), None));
    }
    match load(path, config) {
        Ok(results) => Ok((results, None)),
        Err(e) if is_corruption(&e) => {
            let error = e.to_string();
            if prev.exists() {
                if let Ok(results) = load(&prev, config) {
                    return Ok((
                        results,
                        Some(FallbackInfo {
                            error,
                            recovered: true,
                        }),
                    ));
                }
            }
            Ok((
                BTreeMap::new(),
                Some(FallbackInfo {
                    error,
                    recovered: false,
                }),
            ))
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::RngCore;
    use vbr_stats::rng::Xoshiro256PlusPlus;

    fn config(buffers: usize, track_bop: bool) -> SimConfig {
        SimConfig {
            n_sources: 3,
            capacity_per_source: 120.0,
            buffers_total: (0..buffers).map(|b| 50.0 * b as f64).collect(),
            frames_per_replication: 100,
            warmup_frames: 10,
            replications: 64,
            seed: 11,
            ts: 0.04,
            track_bop,
        }
    }

    /// A result with arbitrary account bits and, with BOP tracking, random
    /// bucket counts.
    fn result(config: &SimConfig, rng: &mut Xoshiro256PlusPlus) -> RepResult {
        let accounts = config
            .buffers_total
            .iter()
            .map(|_| LossAccount {
                offered: rng.next_f64() * 1e6,
                lost: rng.next_f64(),
            })
            .collect();
        let bop = config.track_bop.then(|| {
            let buckets: Vec<u64> = (0..=config.buffers_total.len())
                .map(|_| rng.next_u64() % 1000)
                .collect();
            let total = buckets.iter().sum();
            BopEstimator::from_raw(config.buffers_total.clone(), buckets, total)
        });
        RepResult::from_accounts(accounts, bop)
    }

    fn shuffle(reps: &mut [usize], rng: &mut Xoshiro256PlusPlus) {
        for i in (1..reps.len()).rev() {
            reps.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
    }

    /// The bytes `save` writes for `log`.
    fn saved(log: &mut CheckpointLog, path: &Path) -> String {
        save(&CheckpointPolicy::new(path), log).expect("save");
        std::fs::read_to_string(path).expect("read")
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whatever order replications complete in, the log's file is the
        /// one-pass render of the completed set, after every insertion.
        #[test]
        fn log_matches_render_in_any_completion_order(
            seed in 0u64..u64::MAX,
            n in 1usize..40,
            first in 0usize..1000,
            buffers in 1usize..5,
            track_bop in 0u8..2,
        ) {
            let config = config(buffers, track_bop == 1);
            let mut rng = Xoshiro256PlusPlus::from_seed_u64(seed);
            let mut order: Vec<usize> = (first..first + n).collect();
            shuffle(&mut order, &mut rng);
            let dir = temp_dir(&format!("vbr_ckpt_log_prop_{seed:x}"));
            let path = dir.join("p.ckpt");
            let mut log = CheckpointLog::new(&config, &BTreeMap::new());
            let mut completed = BTreeMap::new();
            for rep in order {
                let r = result(&config, &mut rng);
                log.insert(rep, &r);
                completed.insert(rep, r);
                prop_assert_eq!(saved(&mut log, &path), render(&config, &completed));
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn in_order_insert_renders_and_hashes_one_record() {
        for track_bop in [false, true] {
            let config = config(3, track_bop);
            let mut rng = Xoshiro256PlusPlus::from_seed_u64(5);
            let mut log = CheckpointLog::new(&config, &BTreeMap::new());
            for rep in 0..20 {
                let r = result(&config, &mut rng);
                let mut record = String::new();
                render_record(&mut record, rep, &r);
                let before = log.body.len();
                let hashed = log.insert(rep, &r);
                assert_eq!(log.body.len() - before, record.len(), "one record rendered");
                assert_eq!(&log.body[before..], record, "appended at the end");
                assert_eq!(hashed, record.len(), "only the new record hashed");
            }
        }
    }

    /// A log rebuilt from a loaded checkpoint (the resume path), including
    /// one recovered from the rotated `.prev` file, carries on to the same
    /// bytes as a one-pass render.
    #[test]
    fn log_resumed_from_disk_matches_render() {
        let config = config(2, true);
        let mut rng = Xoshiro256PlusPlus::from_seed_u64(9);
        let all: BTreeMap<usize, RepResult> =
            (0..12).map(|r| (r, result(&config, &mut rng))).collect();
        let dir = temp_dir("vbr_ckpt_log_resume");
        let path = dir.join("r.ckpt");
        let finish = |loaded: &BTreeMap<usize, RepResult>, rng: &mut Xoshiro256PlusPlus| {
            let mut log = CheckpointLog::new(&config, loaded);
            let mut rest: Vec<usize> = all
                .keys()
                .copied()
                .filter(|r| !loaded.contains_key(r))
                .collect();
            shuffle(&mut rest, rng);
            for rep in rest {
                log.insert(rep, &all[&rep]);
            }
            saved(&mut log, &dir.join("out.ckpt"))
        };

        // Two saves, so the first survives as `.prev`.
        let mut log = CheckpointLog::new(&config, &BTreeMap::new());
        for rep in [3, 0, 4, 1, 2] {
            log.insert(rep, &all[&rep]);
        }
        saved(&mut log, &path);
        for rep in [7, 5, 6] {
            log.insert(rep, &all[&rep]);
        }
        saved(&mut log, &path);

        let (loaded, fallback) = load_with_fallback(&path, &config).expect("load");
        assert!(fallback.is_none());
        assert_eq!(loaded.len(), 8);
        assert_eq!(finish(&loaded, &mut rng), render(&config, &all));

        // A corrupt primary degrades to the five-record `.prev`.
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::write(&path, &text[..text.len() / 2]).expect("truncate");
        let (loaded, fallback) = load_with_fallback(&path, &config).expect("load");
        assert!(fallback.expect("fell back").recovered);
        assert_eq!(loaded.len(), 5);
        assert_eq!(finish(&loaded, &mut rng), render(&config, &all));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
