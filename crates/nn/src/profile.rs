//! Op-level tape profiler.
//!
//! When enabled, every [`Graph`](crate::graph::Graph) op records its
//! wall time, an estimated flop count, and the heap allocations it made
//! (buffers the tape's arena could not supply, and the op's own index or
//! part lists) into a process-global accumulator, attributed to the op kind, the pass
//! (forward or backward), and the **graph site** — the node's index on
//! the tape. Define-by-run training rebuilds the same tape every step,
//! so a site aggregates the same logical op across all steps and epochs.
//!
//! The profiler is strictly *observational*: it never touches values,
//! gradients, or RNG streams, so profiled and unprofiled runs produce
//! bit-identical models. When disabled (the default) the per-op cost is
//! one relaxed atomic load, so the tape stays at full speed.
//!
//! Exports:
//! - [`snapshot`] — raw per-site statistics, deterministically ordered;
//! - [`hot_op_table`] — a ranked text table of op kinds by total wall
//!   time (the "where did my training step go" view);
//! - [`collapsed_stacks`] — a flamegraph-ready collapsed-stack file
//!   (`inferno` / `flamegraph.pl` input: one `frame;frame;frame count`
//!   line per site, weighted by microseconds).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
// Wall-clock reads live behind the opt-in profiler flag and only feed
// diagnostics, never model numerics.
use std::time::Instant;

/// Which half of the autodiff pass an op ran in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Tape construction (the op's value computation).
    Forward,
    /// The reverse sweep (the op's gradient computation).
    Backward,
}

impl Phase {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Forward => "forward",
            Phase::Backward => "backward",
        }
    }
}

/// Aggregated statistics for one `(phase, op, site)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct OpStat {
    /// Forward or backward.
    pub phase: Phase,
    /// Op kind, e.g. `MatMul`.
    pub op: &'static str,
    /// Tape index of the node (stable across steps for a fixed model).
    pub site: usize,
    /// Number of times the op ran.
    pub calls: u64,
    /// Total wall time in nanoseconds.
    pub wall_ns: u64,
    /// Estimated floating-point operations (see [`crate::graph`] cost
    /// model).
    pub flops: u64,
    /// Heap allocations the op made: output or gradient buffers the
    /// tape's arena could not supply, and the op's own lists.
    pub allocs: u64,
    /// Total output elements produced (an allocation-volume proxy).
    pub out_elems: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SiteKey {
    phase: Phase,
    op: &'static str,
    site: usize,
}

#[derive(Debug, Default, Clone, Copy)]
struct Accum {
    calls: u64,
    wall_ns: u64,
    flops: u64,
    allocs: u64,
    out_elems: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn table() -> MutexGuard<'static, BTreeMap<SiteKey, Accum>> {
    static TABLE: std::sync::OnceLock<Mutex<BTreeMap<SiteKey, Accum>>> = std::sync::OnceLock::new();
    // Recover from poisoning: a panicking profiled thread must not take
    // the profiler (and every later op) down with it.
    TABLE
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Turns the profiler on (and implicitly starts attributing every op on
/// every thread).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the profiler off. Already-collected statistics are kept until
/// [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Serialises the tests that flip the process-global switch, so one
/// test's [`disable`] cannot land in the middle of another's graph.
#[cfg(test)]
pub(crate) fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A failing test poisons the lock; the `()` it guards cannot be left
    // inconsistent, so later tests carry on.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether ops are currently being attributed.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears all collected statistics.
pub fn reset() {
    table().clear();
}

/// A point-in-time copy of every `(phase, op, site)` cell, in
/// deterministic `(phase, op, site)` order.
pub fn snapshot() -> Vec<OpStat> {
    table()
        .iter()
        .map(|(k, a)| OpStat {
            phase: k.phase,
            op: k.op,
            site: k.site,
            calls: a.calls,
            wall_ns: a.wall_ns,
            flops: a.flops,
            allocs: a.allocs,
            out_elems: a.out_elems,
        })
        .collect()
}

/// RAII-free op timer: captures a start instant only when the profiler
/// is enabled, so the disabled cost is one relaxed atomic load.
#[derive(Debug)]
pub(crate) struct OpTimer(Option<Instant>);

impl OpTimer {
    /// Starts timing if the profiler is on.
    #[inline]
    pub(crate) fn start() -> Self {
        if is_enabled() {
            // envlint: allow(wall-clock) — opt-in profiler timing; reads
            // the clock for diagnostics only, never feeds results.
            OpTimer(Some(Instant::now()))
        } else {
            OpTimer(None)
        }
    }

    /// Whether this timer is live (profiler was on at start).
    #[inline]
    pub(crate) fn armed(&self) -> bool {
        self.0.is_some()
    }

    /// Records the elapsed time against `(phase, op, site)`.
    pub(crate) fn finish(self, phase: Phase, op: &'static str, site: usize, cost: OpCost) {
        let Some(t0) = self.0 else { return };
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let mut tab = table();
        let a = tab.entry(SiteKey { phase, op, site }).or_default();
        a.calls += 1;
        a.wall_ns += wall_ns;
        a.flops += cost.flops;
        a.allocs += cost.allocs;
        a.out_elems += cost.out_elems;
    }
}

/// Cost attached to one op execution: estimated flops, counted
/// allocations, output size.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct OpCost {
    pub(crate) flops: u64,
    pub(crate) allocs: u64,
    pub(crate) out_elems: u64,
}

/// One row of the aggregated (per op kind × phase) view.
#[derive(Debug, Clone)]
pub struct OpKindRow {
    /// Op kind, e.g. `MatMul`.
    pub op: &'static str,
    /// Forward or backward.
    pub phase: Phase,
    /// Total invocations.
    pub calls: u64,
    /// Total wall nanoseconds.
    pub wall_ns: u64,
    /// Total estimated flops.
    pub flops: u64,
    /// Total counted allocations.
    pub allocs: u64,
    /// Number of distinct tape sites this kind appeared at.
    pub sites: usize,
}

/// Aggregates a snapshot by `(op, phase)`, ranked by total wall time
/// (descending; ties broken by name for determinism).
pub fn aggregate_by_kind(stats: &[OpStat]) -> Vec<OpKindRow> {
    let mut by_kind: BTreeMap<(&'static str, Phase), OpKindRow> = BTreeMap::new();
    for s in stats {
        let row = by_kind.entry((s.op, s.phase)).or_insert(OpKindRow {
            op: s.op,
            phase: s.phase,
            calls: 0,
            wall_ns: 0,
            flops: 0,
            allocs: 0,
            sites: 0,
        });
        row.calls += s.calls;
        row.wall_ns += s.wall_ns;
        row.flops += s.flops;
        row.allocs += s.allocs;
        row.sites += 1;
    }
    let mut rows: Vec<OpKindRow> = by_kind.into_values().collect();
    rows.sort_by(|a, b| {
        b.wall_ns
            .cmp(&a.wall_ns)
            .then(a.op.cmp(b.op))
            .then(a.phase.cmp(&b.phase))
    });
    rows
}

/// Renders the ranked hot-op table: the top `limit` `(op, phase)` rows
/// by total wall time, with call counts, mean latency, estimated
/// GFLOP/s, and share of the total profiled time.
pub fn hot_op_table(stats: &[OpStat], limit: usize) -> String {
    let rows = aggregate_by_kind(stats);
    let total_ns: u64 = rows.iter().map(|r| r.wall_ns).sum();
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>8} {:>9} {:>10} {:>9} {:>9} {:>7} {:>6}\n",
        "op (phase)", "calls", "sites", "total ms", "mean us", "GFLOP", "GF/s", "share"
    ));
    for r in rows.iter().take(limit) {
        let ms = r.wall_ns as f64 / 1e6;
        let mean_us = if r.calls > 0 {
            r.wall_ns as f64 / 1e3 / r.calls as f64
        } else {
            0.0
        };
        let gflop = r.flops as f64 / 1e9;
        let gfps = if r.wall_ns > 0 {
            r.flops as f64 / r.wall_ns as f64
        } else {
            0.0
        };
        let share = if total_ns > 0 {
            100.0 * r.wall_ns as f64 / total_ns as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<16} {:>8} {:>9} {:>10.3} {:>9.2} {:>9.3} {:>7.2} {:>5.1}%\n",
            format!("{} ({})", r.op, r.phase.name()),
            r.calls,
            r.sites,
            ms,
            mean_us,
            gflop,
            gfps,
            share
        ));
    }
    out
}

/// Renders the snapshot as a flamegraph-ready collapsed-stack file: one
/// `env2vec;<phase>;<op>;site_<idx> <microseconds>` line per cell.
/// Feed it to `inferno-flamegraph` or `flamegraph.pl` directly.
pub fn collapsed_stacks(stats: &[OpStat]) -> String {
    let mut out = String::new();
    for s in stats {
        let us = s.wall_ns / 1_000;
        if us == 0 {
            continue;
        }
        out.push_str(&format!(
            "env2vec;{};{};site_{} {}\n",
            s.phase.name(),
            s.op,
            s.site,
            us
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global profiler is process-wide state shared with other tests;
    // these tests only assert on cells their own ops created (unique op
    // strings are impossible — ops are 'static — so they run the real
    // tape in graph::tests instead; here we exercise the pure renderers).

    fn stat(op: &'static str, phase: Phase, site: usize, wall_ns: u64, flops: u64) -> OpStat {
        OpStat {
            phase,
            op,
            site,
            calls: 2,
            wall_ns,
            flops,
            allocs: 2,
            out_elems: 8,
        }
    }

    #[test]
    fn aggregate_ranks_by_wall_time() {
        let stats = vec![
            stat("MatMul", Phase::Forward, 3, 5_000, 4_000),
            stat("MatMul", Phase::Forward, 7, 6_000, 4_000),
            stat("Sigmoid", Phase::Forward, 4, 2_000, 100),
            stat("MatMul", Phase::Backward, 3, 20_000, 8_000),
        ];
        let rows = aggregate_by_kind(&stats);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].op, "MatMul");
        assert_eq!(rows[0].phase, Phase::Backward);
        assert_eq!(rows[1].op, "MatMul");
        assert_eq!(rows[1].phase, Phase::Forward);
        assert_eq!(rows[1].calls, 4);
        assert_eq!(rows[1].sites, 2);
        assert_eq!(rows[1].wall_ns, 11_000);
        assert_eq!(rows[2].op, "Sigmoid");
    }

    #[test]
    fn hot_op_table_renders_and_ranks() {
        let stats = vec![
            stat("MatMul", Phase::Forward, 1, 9_000_000, 1_000_000),
            stat("Tanh", Phase::Forward, 2, 1_000_000, 1_000),
        ];
        let t = hot_op_table(&stats, 10);
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines[0].contains("op (phase)"));
        assert!(lines[1].contains("MatMul (forward)"));
        assert!(lines[2].contains("Tanh (forward)"));
        // share column sums to 100.
        assert!(lines[1].contains("90.0%"));
        assert!(lines[2].contains("10.0%"));
    }

    #[test]
    fn collapsed_stacks_are_flamegraph_shaped() {
        let stats = vec![
            stat("MatMul", Phase::Forward, 5, 3_000_000, 0),
            stat("Relu", Phase::Backward, 9, 500, 0), // < 1 us: dropped
        ];
        let c = collapsed_stacks(&stats);
        assert_eq!(c, "env2vec;forward;MatMul;site_5 3000\n");
        for line in c.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("weight separator");
            assert!(stack.starts_with("env2vec;"));
            assert!(count.parse::<u64>().is_ok());
        }
    }

    #[test]
    fn disabled_timer_is_inert() {
        let _profiler = test_lock();
        disable();
        let t = OpTimer::start();
        assert!(!t.armed());
        // Finishing an unarmed timer must not create cells.
        let before = snapshot().len();
        t.finish(Phase::Forward, "MatMul", 0, OpCost::default());
        assert_eq!(snapshot().len(), before);
    }
}
