//! Incremental JSONL tailing: the read side of a live event stream.
//!
//! A campaign writes per-shard `*.events.jsonl` files while supervisors,
//! dashboards and scrape endpoints read them concurrently. [`Tailer`]
//! follows one such file by byte offset and only ever hands back
//! **complete, newline-terminated lines** — a partial trailing line (a
//! worker killed mid-write, or a write racing the read) is left in place
//! until more bytes arrive.
//!
//! The tailer also survives the two ways a followed file can go backwards:
//!
//! * **truncation** — a supervisor discarding a dead worker's partial tail
//!   shrinks the file below a consumed prefix boundary;
//! * **rotation** — the file is replaced wholesale (e.g. `create` after a
//!   coordinator restart).
//!
//! Both appear as `size < offset`; the tailer resets to the start of the
//! file and reports the reset so an aggregator can decide whether replayed
//! lines matter (for the idempotent campaign aggregation they do not).

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// Result of one [`Tailer::poll`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailPoll {
    /// Newly consumed complete lines, trimmed, blank lines dropped.
    pub lines: Vec<String>,
    /// Current file size in bytes — any change is a liveness signal even
    /// when no complete line was consumed.
    pub size: u64,
    /// True if the file shrank below the consumed offset (truncation or
    /// rotation); consumption restarted from byte 0 this poll.
    pub reset: bool,
}

/// Follows one JSONL file incrementally, consuming only complete lines.
///
/// The file may not exist yet (a worker that has not started writing): polls
/// return empty until it does. See the [module docs](self) for the
/// truncation/rotation contract.
#[derive(Debug)]
pub struct Tailer {
    path: PathBuf,
    /// Byte offset of the first unconsumed byte (always a line start).
    offset: u64,
}

impl Tailer {
    /// Tails `path` from the beginning.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            offset: 0,
        }
    }

    /// The file being followed.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Byte offset of the first unconsumed byte.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Reads newly appended complete lines, detecting truncation/rotation.
    pub fn poll(&mut self) -> TailPoll {
        let Ok(mut f) = File::open(&self.path) else {
            return TailPoll {
                lines: Vec::new(),
                size: self.offset,
                reset: false,
            };
        };
        let size = f.metadata().map(|m| m.len()).unwrap_or(self.offset);
        let reset = size < self.offset;
        if reset {
            // The file went backwards under us: re-read from the start.
            self.offset = 0;
        }
        if size <= self.offset {
            return TailPoll {
                lines: Vec::new(),
                size,
                reset,
            };
        }
        if f.seek(SeekFrom::Start(self.offset)).is_err() {
            return TailPoll {
                lines: Vec::new(),
                size,
                reset,
            };
        }
        let mut buf = String::new();
        if f.read_to_string(&mut buf).is_err() {
            return TailPoll {
                lines: Vec::new(),
                size,
                reset,
            };
        }
        let mut lines = Vec::new();
        let mut consumed = 0usize;
        for line in buf.split_inclusive('\n') {
            if line.ends_with('\n') {
                let trimmed = line.trim();
                if !trimmed.is_empty() {
                    lines.push(trimmed.to_string());
                }
                consumed += line.len();
            }
        }
        self.offset += consumed as u64;
        TailPoll { lines, size, reset }
    }

    /// Truncates the file to the consumed offset, discarding a partial
    /// trailing line so subsequent appends start at a line boundary. This is
    /// the supervisor-side cleanup between worker attempts.
    pub fn truncate_partial_tail(&self) {
        if let Ok(f) = std::fs::OpenOptions::new().write(true).open(&self.path) {
            let len = f.metadata().map(|m| m.len()).unwrap_or(0);
            if len > self.offset {
                let _ = f.set_len(self.offset);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("vbr_obs_tail_tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    #[test]
    fn missing_file_polls_empty() {
        let mut tail = Tailer::new(temp_path("never-created.jsonl"));
        let polled = tail.poll();
        assert!(polled.lines.is_empty());
        assert!(!polled.reset);
        assert_eq!(tail.offset(), 0);
    }

    #[test]
    fn consumes_only_complete_lines() {
        let path = temp_path("partial.jsonl");
        std::fs::write(&path, "{\"a\":1}\n{\"b\":2}\n{\"par").expect("write");
        let mut tail = Tailer::new(path.clone());
        let polled = tail.poll();
        assert_eq!(polled.lines, vec!["{\"a\":1}", "{\"b\":2}"]);
        assert_eq!(polled.size, 21);
        assert_eq!(tail.offset(), 16, "partial tail left unconsumed");

        // The partial line completes: consumed on the next poll.
        std::fs::write(&path, "{\"a\":1}\n{\"b\":2}\n{\"part\":3}\n").expect("write");
        assert_eq!(tail.poll().lines, vec!["{\"part\":3}"]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncate_discards_partial_tail_at_line_boundary() {
        let path = temp_path("truncate.jsonl");
        std::fs::write(&path, "{\"a\":1}\n{\"ha").expect("write");
        let mut tail = Tailer::new(path.clone());
        assert_eq!(tail.poll().lines, vec!["{\"a\":1}"]);
        tail.truncate_partial_tail();
        let body = std::fs::read_to_string(&path).expect("read");
        assert_eq!(body, "{\"a\":1}\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn survives_truncation_to_empty() {
        let path = temp_path("shrink.jsonl");
        std::fs::write(&path, "{\"a\":1}\n{\"b\":2}\n").expect("write");
        let mut tail = Tailer::new(path.clone());
        assert_eq!(tail.poll().lines.len(), 2);

        // File truncated below the consumed offset: next poll resets.
        std::fs::write(&path, "").expect("truncate");
        let polled = tail.poll();
        assert!(polled.reset);
        assert!(polled.lines.is_empty());
        assert_eq!(tail.offset(), 0);

        // New content after the truncation is read from the start.
        std::fs::write(&path, "{\"c\":3}\n").expect("write");
        let polled = tail.poll();
        assert!(!polled.reset);
        assert_eq!(polled.lines, vec!["{\"c\":3}"]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn survives_rotation_to_shorter_file() {
        let path = temp_path("rotate.jsonl");
        std::fs::write(&path, "{\"old\":1}\n{\"old\":2}\n{\"old\":3}\n").expect("write");
        let mut tail = Tailer::new(path.clone());
        assert_eq!(tail.poll().lines.len(), 3);

        // Replaced wholesale with a shorter stream (coordinator restart):
        // the reset poll re-reads the whole new file.
        std::fs::write(&path, "{\"new\":1}\n").expect("rotate");
        let polled = tail.poll();
        assert!(polled.reset);
        assert_eq!(polled.lines, vec!["{\"new\":1}"]);
        assert_eq!(tail.offset(), 10);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn same_size_rotation_is_transparent_growth() {
        // A same-or-larger replacement cannot be told apart from an append
        // without content hashing; the contract is only that consumption
        // keeps moving forward and stays on line boundaries.
        let path = temp_path("grow.jsonl");
        std::fs::write(&path, "{\"a\":1}\n").expect("write");
        let mut tail = Tailer::new(path.clone());
        assert_eq!(tail.poll().lines.len(), 1);
        std::fs::write(&path, "{\"a\":1}\n{\"b\":2}\n").expect("append");
        let polled = tail.poll();
        assert!(!polled.reset);
        assert_eq!(polled.lines, vec!["{\"b\":2}"]);
        let _ = std::fs::remove_file(&path);
    }
}
