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
/// replication got its own stream, `root.split(r).split(j)`. Each bump
/// changed a draw sequence, so results of different versions are never
/// merged: files of any other version are rejected as a version mismatch.
pub const CHECKPOINT_VERSION: u32 = 5;

const MAGIC: &str = "vbr-sim-checkpoint";

/// FNV-1a over a byte slice — the same hash the config fingerprint uses,
/// reused for the whole-file content checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
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
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
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

/// Serializes the completed replication set to the checkpoint text format.
pub(crate) fn render(config: &SimConfig, results: &BTreeMap<usize, RepResult>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{MAGIC} v{CHECKPOINT_VERSION}");
    let _ = writeln!(out, "fingerprint {:016x}", config_fingerprint(config));
    let _ = writeln!(out, "buffers {}", config.buffers_total.len());
    let _ = writeln!(out, "track_bop {}", u8::from(config.track_bop));
    for (&rep, result) in results {
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
    let _ = writeln!(out, "end {}", results.len());
    // Content checksum over every byte above, so corruption that happens to
    // keep lines parseable (bit flips inside a hex payload) is still caught.
    let sum = fnv1a(out.as_bytes());
    let _ = writeln!(out, "checksum {sum:016x}");
    out
}

/// Atomically writes the checkpoint file for the given completed set.
/// Returns the config fingerprint the file was stamped with, so callers
/// (telemetry events) can report it without recomputing.
pub(crate) fn save(
    policy: &CheckpointPolicy,
    config: &SimConfig,
    results: &BTreeMap<usize, RepResult>,
) -> Result<u64, SimError> {
    let body = render(config, results);
    let tmp = policy.path.with_extension("ckpt.tmp");
    std::fs::write(&tmp, body)
        .map_err(|e| SimError::io(format!("writing checkpoint {}", tmp.display()), e))?;
    // Rotate the current good checkpoint to its `.prev` sibling so a later
    // corrupt primary can fall back to it. Absence is fine (first save).
    if policy.path.exists() {
        let prev = prev_path(&policy.path);
        std::fs::rename(&policy.path, &prev).map_err(|e| {
            SimError::io(format!("rotating checkpoint to {}", prev.display()), e)
        })?;
    }
    std::fs::rename(&tmp, &policy.path).map_err(|e| {
        SimError::io(
            format!("renaming checkpoint into place at {}", policy.path.display()),
            e,
        )
    })?;
    Ok(config_fingerprint(config))
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
