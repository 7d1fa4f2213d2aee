//! Scoped span timers with nesting, aggregated per stage.
//!
//! A span is a scoped wall-clock timer identified by a static name. Spans
//! nest: entering `"generate"` inside `"replication"` accumulates under the
//! path `replication/generate`, so the final table shows where time went
//! *within* each stage, not just totals.
//!
//! Spans record into a **thread-local collector**. When no collector is
//! installed — the default, and the state of every run without a recorder —
//! [`enter`] is a single thread-local read and a branch: no clock is read,
//! nothing allocates, nothing is written. That is what makes it safe to
//! leave `span!` calls in hot paths (the replication batch loop, the MWM
//! synthesis refill) permanently.
//!
//! The collector is per-thread by design: the replication harness fans out
//! over worker threads, each installs a collector with [`install`], and the
//! harness merges the drained [`StageTable`]s at run end. No lock is touched
//! on the recording path.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Aggregated cost of one stage (one span path).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Times the span was entered.
    pub calls: u64,
    /// Total wall time inside the span (inclusive of nested spans), ns.
    pub total_ns: u64,
}

/// Per-stage wall-time and call-count table, keyed by span path
/// (`parent/child` for nested spans).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageTable {
    map: BTreeMap<String, StageStats>,
}

impl StageTable {
    /// Iterates `(path, stats)` in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &StageStats)> {
        self.map.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Stats for one exact span path, if recorded.
    pub fn get(&self, path: &str) -> Option<&StageStats> {
        self.map.get(path)
    }

    /// Number of distinct span paths recorded.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Adds one observation to a path — the collector's recording primitive,
    /// public so tests and custom integrations can build tables directly.
    pub fn add(&mut self, path: &str, elapsed_ns: u64) {
        let e = self.map.entry(path.to_string()).or_default();
        e.calls += 1;
        e.total_ns += elapsed_ns;
    }

    /// Merges another table into this one (summing calls and time per path)
    /// — how the harness combines per-worker-thread collectors.
    pub fn merge(&mut self, other: &StageTable) {
        for (path, stats) in &other.map {
            let e = self.map.entry(path.clone()).or_default();
            e.calls += stats.calls;
            e.total_ns += stats.total_ns;
        }
    }

    /// Renders the human-readable per-stage summary: stage, calls, total ms,
    /// and % of `wall` (the run's wall time; pass the run duration so the
    /// percentages mean "share of the run", not "share of instrumented
    /// time"). Nested paths are indented under their parents.
    pub fn render(&self, wall: Duration) -> String {
        let wall_ns = wall.as_nanos().max(1) as f64;
        let mut out = String::new();
        out.push_str(&format!(
            "{:<40} {:>12} {:>12} {:>8}\n",
            "stage", "calls", "total ms", "% run"
        ));
        for (path, stats) in &self.map {
            let depth = path.matches('/').count();
            let name = path.rsplit('/').next().unwrap_or(path);
            let label = format!("{}{}", "  ".repeat(depth), name);
            out.push_str(&format!(
                "{:<40} {:>12} {:>12.3} {:>7.2}%\n",
                label,
                stats.calls,
                stats.total_ns as f64 / 1e6,
                stats.total_ns as f64 / wall_ns * 100.0,
            ));
        }
        out
    }
}

struct Collector {
    path: Vec<&'static str>,
    key: String,
    table: StageTable,
}

impl Collector {
    fn new() -> Self {
        Self {
            path: Vec::with_capacity(8),
            key: String::with_capacity(64),
            table: StageTable::default(),
        }
    }

    fn current_key(&mut self) -> &str {
        self.key.clear();
        for (i, p) in self.path.iter().enumerate() {
            if i > 0 {
                self.key.push('/');
            }
            self.key.push_str(p);
        }
        &self.key
    }
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Installs a fresh span collector on the current thread. Spans entered
/// afterwards are timed and aggregated until [`drain`] removes it.
pub fn install() {
    COLLECTOR.with(|c| *c.borrow_mut() = Some(Collector::new()));
}

/// Removes the current thread's collector and returns what it aggregated
/// (an empty table if none was installed).
pub fn drain() -> StageTable {
    COLLECTOR
        .with(|c| c.borrow_mut().take())
        .map(|c| c.table)
        .unwrap_or_default()
}

/// True if a collector is installed on this thread (spans are being timed).
pub fn enabled() -> bool {
    COLLECTOR.with(|c| c.borrow().is_some())
}

/// Enters a span. Returns a guard that records the elapsed time on drop.
/// When no collector is installed this is a thread-local read and a branch —
/// the guard holds no clock and the drop is a no-op.
#[must_use = "the span ends when the guard drops; binding to _ drops immediately"]
pub fn enter(name: &'static str) -> SpanGuard {
    let active = COLLECTOR.with(|c| match c.borrow_mut().as_mut() {
        Some(col) => {
            col.path.push(name);
            true
        }
        None => false,
    });
    SpanGuard {
        start: active.then(Instant::now),
    }
}

/// RAII guard returned by [`enter`]; records the span on drop.
#[derive(Debug)]
pub struct SpanGuard {
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(t0) = self.start else { return };
        let elapsed = t0.elapsed().as_nanos() as u64;
        COLLECTOR.with(|c| {
            if let Some(col) = c.borrow_mut().as_mut() {
                let key = col.current_key().to_string();
                col.table.add(&key, elapsed);
                col.path.pop();
            }
        });
    }
}

/// Enters a scoped span timer: `let _s = span!("mwm.synthesize");`.
///
/// Free when no collector is installed on the thread (see [`enter`]).
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        // No collector installed: guard is inert, drain yields empty.
        {
            let _s = enter("outer");
            let _t = enter("inner");
        }
        assert!(!enabled());
        assert!(drain().is_empty());
    }

    #[test]
    fn nested_spans_aggregate_by_path() {
        install();
        for _ in 0..3 {
            let _a = enter("outer");
            {
                let _b = enter("inner");
            }
            {
                let _b = enter("inner");
            }
        }
        let table = drain();
        assert_eq!(table.get("outer").unwrap().calls, 3);
        assert_eq!(table.get("outer/inner").unwrap().calls, 6);
        assert!(table.get("inner").is_none(), "inner only exists nested");
        assert!(!enabled(), "drain uninstalls");
    }

    #[test]
    fn merge_sums_stats() {
        let mut a = StageTable::default();
        a.add("x", 100);
        a.add("x", 50);
        let mut b = StageTable::default();
        b.add("x", 25);
        b.add("y", 10);
        a.merge(&b);
        assert_eq!(a.get("x").unwrap().calls, 3);
        assert_eq!(a.get("x").unwrap().total_ns, 175);
        assert_eq!(a.get("y").unwrap().calls, 1);
    }

    #[test]
    fn render_contains_stage_rows() {
        let mut t = StageTable::default();
        t.add("replication", 2_000_000);
        t.add("replication/generate", 1_000_000);
        let s = t.render(Duration::from_millis(4));
        assert!(s.contains("replication"), "{s}");
        assert!(s.contains("generate"), "{s}");
        assert!(s.contains("50.00%"), "{s}");
        assert!(s.contains("% run"), "{s}");
    }

    #[test]
    fn collectors_are_per_thread() {
        install();
        let handle = std::thread::spawn(|| {
            // The spawning thread's collector is not visible here.
            assert!(!enabled());
            install();
            {
                let _s = enter("worker");
            }
            drain()
        });
        {
            let _s = enter("main");
        }
        let worker = handle.join().expect("worker thread");
        let main = drain();
        assert!(worker.get("worker").is_some());
        assert!(worker.get("main").is_none());
        assert!(main.get("main").is_some());
        assert!(main.get("worker").is_none());
    }
}
