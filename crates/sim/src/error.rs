//! Typed errors for the simulation stack.
//!
//! The replication harness runs for hours at paper scale (60 replications ×
//! 500k frames per model); a panic half-way through loses every completed
//! replication. Every failure the harness can encounter is therefore a
//! variant of [`SimError`], with enough context attached (replication index,
//! frame, seed, checkpoint line) to reproduce the fault deterministically.

use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

/// Where in the pipeline a numeric fault was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Output of one source (index into the replication's sources, in group
    /// order; source j draws from `root.split(replication).split(j)`).
    Source(usize),
    /// The aggregate arrival stream after summing all sources.
    Aggregate,
    /// Queue state (workload or loss account) at one buffer-grid index.
    Queue(usize),
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSite::Source(i) => write!(f, "source {i}"),
            FaultSite::Aggregate => write!(f, "aggregate arrivals"),
            FaultSite::Queue(i) => write!(f, "queue at buffer index {i}"),
        }
    }
}

/// A NaN / infinity / negative-rate value caught by the numeric guardrails,
/// pinned to the exact replication, frame and seed that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericFault {
    /// Replication in which the fault occurred.
    pub replication: usize,
    /// Frame index within the replication (warmup frames included).
    pub frame: u64,
    /// Root seed of the run — `root.split(replication)` replays the fault
    /// (source j of it draws from `.split(j)` of that stream).
    pub seed: u64,
    /// The offending value.
    pub value: f64,
    /// Pipeline stage that produced the value.
    pub site: FaultSite,
}

impl fmt::Display for NumericFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid value {} from {} at replication {}, frame {} (root seed {:#x})",
            self.value, self.site, self.replication, self.frame, self.seed
        )
    }
}

/// Why a checkpoint file could not be used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointErrorKind {
    /// File does not start with the expected magic header.
    BadHeader(String),
    /// Unsupported format version.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build writes and reads.
        expected: u32,
    },
    /// Checkpoint was written by a run with a different configuration.
    ConfigMismatch {
        /// Fingerprint recorded in the file.
        found: u64,
        /// Fingerprint of the current configuration.
        expected: u64,
    },
    /// File ends before its own trailer — the writing process died mid-write.
    Truncated,
    /// The content checksum recorded in the file does not match its bytes —
    /// silent corruption that kept every line individually parseable.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        found: u64,
        /// Checksum of the file's actual content.
        expected: u64,
    },
    /// A line failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for CheckpointErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointErrorKind::BadHeader(h) => write!(f, "bad header {h:?}"),
            CheckpointErrorKind::VersionMismatch { found, expected } => {
                write!(f, "format version {found}, this build reads {expected}")
            }
            CheckpointErrorKind::ConfigMismatch { found, expected } => write!(
                f,
                "config fingerprint {found:#x} does not match current config {expected:#x}"
            ),
            CheckpointErrorKind::Truncated => write!(f, "file truncated (missing trailer)"),
            CheckpointErrorKind::ChecksumMismatch { found, expected } => write!(
                f,
                "content checksum {found:#x} does not match file bytes {expected:#x}"
            ),
            CheckpointErrorKind::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
        }
    }
}

/// Everything that can go wrong in the simulation stack.
#[derive(Debug)]
#[non_exhaustive]
pub enum SimError {
    /// A configuration field failed validation.
    InvalidConfig {
        /// Name of the offending field.
        field: &'static str,
        /// Human-readable explanation.
        message: String,
    },
    /// A model or queue emitted NaN / infinity / a negative rate.
    NumericFault(NumericFault),
    /// A checkpoint file exists but cannot be used.
    Checkpoint {
        /// Path of the checkpoint file.
        path: PathBuf,
        /// What is wrong with it.
        kind: CheckpointErrorKind,
    },
    /// An I/O operation (checkpoint read/write, report emission) failed.
    Io {
        /// What the operation was trying to do.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The watchdog budget expired before a single replication completed,
    /// so there is nothing to degrade to.
    NoCompletedReplications {
        /// Replications the run was asked for.
        requested: usize,
        /// Replications abandoned by the per-replication deadline.
        timed_out: usize,
        /// The configured run budget, if one was set.
        budget: Option<Duration>,
    },
    /// A trace (recorded frame sequence) failed validation or parsing.
    InvalidTrace {
        /// Human-readable explanation.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { field, message } => {
                write!(f, "invalid config: {field}: {message}")
            }
            SimError::NumericFault(fault) => write!(f, "numeric fault: {fault}"),
            SimError::Checkpoint { path, kind } => {
                write!(f, "checkpoint {}: {kind}", path.display())
            }
            SimError::Io { context, source } => write!(f, "{context}: {source}"),
            SimError::NoCompletedReplications {
                requested,
                timed_out,
                budget,
            } => {
                write!(
                    f,
                    "no replication completed (requested {requested}, timed out {timed_out}"
                )?;
                if let Some(b) = budget {
                    write!(f, ", run budget {b:?}")?;
                }
                write!(f, ")")
            }
            SimError::InvalidTrace { message } => write!(f, "invalid trace: {message}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl SimError {
    /// Shorthand for an [`SimError::InvalidConfig`].
    pub fn invalid_config(field: &'static str, message: impl Into<String>) -> Self {
        SimError::InvalidConfig {
            field,
            message: message.into(),
        }
    }

    /// Wraps an I/O error with context.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        SimError::Io {
            context: context.into(),
            source,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = SimError::NumericFault(NumericFault {
            replication: 7,
            frame: 123,
            seed: 0xBEEF,
            value: f64::NAN,
            site: FaultSite::Source(3),
        });
        let msg = e.to_string();
        assert!(msg.contains("replication 7"), "{msg}");
        assert!(msg.contains("frame 123"), "{msg}");
        assert!(msg.contains("0xbeef"), "{msg}");
        assert!(msg.contains("source 3"), "{msg}");
    }

    #[test]
    fn checkpoint_kinds_render() {
        for (kind, needle) in [
            (CheckpointErrorKind::Truncated, "truncated"),
            (
                CheckpointErrorKind::VersionMismatch {
                    found: 9,
                    expected: 1,
                },
                "version 9",
            ),
            (
                CheckpointErrorKind::Parse {
                    line: 4,
                    message: "nope".into(),
                },
                "line 4",
            ),
        ] {
            let e = SimError::Checkpoint {
                path: PathBuf::from("/tmp/x.ckpt"),
                kind,
            };
            assert!(e.to_string().contains(needle), "{e}");
        }
    }

    #[test]
    fn error_trait_is_implemented() {
        let e = SimError::io(
            "writing checkpoint",
            std::io::Error::other("disk full"),
        );
        let dyn_err: &dyn std::error::Error = &e;
        assert!(dyn_err.source().is_some());
        assert!(e.to_string().contains("disk full"));
    }
}
