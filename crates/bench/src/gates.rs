//! The one way a micro-benchmark is judged: [`GATES`], a table of
//! bounds on summary metrics, evaluated by [`evaluate`].
//!
//! Every bound is a ratio (or a count) measured **inside one run** of
//! `bench_check`: lanes paired per cycle in one process, the median over
//! [`crate::paired::REPS`] repetitions. So a bound carries only the
//! fixed same-process [`MARGIN`], and no row compares absolute times
//! against a file recorded on another host. A row marked `curve`
//! additionally holds the metric within [`CURVE_TOLERANCE`] of the
//! checked-in `BENCH_<bench>.json` — a ratio again, and binding only
//! when that file was recorded at the configuration being measured
//! (same configuration). A row with `min_threads` above the
//! host's thread count states a property the host cannot exhibit and is
//! reported as not applicable there; CI runners with four threads
//! enforce it.

use crate::paired::Stat;
use crate::record::BenchRecord;

/// Which side of the bound is a failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// The metric's median may be at most this.
    AtMost(f64),
    /// The metric's median must be at least this.
    AtLeast(f64),
}

/// One gate row.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Benchmark whose record holds the metric.
    pub bench: &'static str,
    /// Summary metric judged.
    pub metric: &'static str,
    /// What the bound protects, for the report line.
    pub what: &'static str,
    /// The enforced bound, margin included.
    pub bound: Bound,
    /// Host threads below which the row is not applicable.
    pub min_threads: usize,
    /// Also hold the metric within [`CURVE_TOLERANCE`] of the checked-in
    /// record, when that was measured at the same configuration.
    pub curve: bool,
}

/// Allowance on every acceptance bar for same-process scatter of the
/// run-level medians: a speedup bar `b` is enforced as `b / MARGIN`, a
/// cost ceiling `c` as `c * MARGIN`.
pub const MARGIN: f64 = 1.10;

/// How far a `curve` metric may fall behind its checked-in value.
pub const CURVE_TOLERANCE: f64 = 0.25;

const fn gate(bench: &'static str, metric: &'static str, what: &'static str, bound: Bound) -> Gate {
    Gate {
        bench,
        metric,
        what,
        bound,
        min_threads: 1,
        curve: false,
    }
}

/// Every gate `bench_check` enforces. The acceptance bars are the ones
/// each subsystem landed with; each row's `what` names the design
/// decision or the paper claim it guards (see also the README).
pub const GATES: &[Gate] = &[
    // A second thread must never cost throughput, and must pay where the
    // host has the threads to pay on.
    gate(
        "threads",
        "speedup_2_threads",
        "engine on every hardware thread: 2-thread throughput / 1 thread, never a loss",
        Bound::AtLeast(0.95),
    ),
    Gate {
        min_threads: 2,
        ..gate(
            "threads",
            "speedup_2_threads",
            "engine on every hardware thread: 2-thread speedup on >= 2 threads",
            Bound::AtLeast(1.2),
        )
    },
    Gate {
        min_threads: 4,
        ..gate(
            "threads",
            "speedup_4_threads",
            "engine on every hardware thread: 4-thread speedup on >= 4 threads",
            Bound::AtLeast(1.5),
        )
    },
    // The 10% acceptance bar plus a 10-point allowance: sub-millisecond
    // cycles at gate scale centre at 1.10–1.15.
    gate(
        "deltas",
        "delta_over_full",
        "delta capture for subscribers: delta emission cycle time / full result lists",
        Bound::AtMost(1.10 + 0.10),
    ),
    Gate {
        curve: true,
        ..gate(
            "server",
            "unified_speedup",
            "one CpmServer (one grid, one ingest) vs three dedicated engines",
            Bound::AtLeast(1.3 / MARGIN),
        )
    },
    gate(
        "regrid",
        "regrids",
        "RegridPolicy::Auto acts: the adaptive lane re-gridded on the drift stream",
        Bound::AtLeast(1.0),
    ),
    gate(
        "regrid",
        "adaptive_speedup",
        "RegridPolicy::Auto vs a fixed Section 4.1 provisioned resolution",
        Bound::AtLeast(1.2 / MARGIN),
    ),
    gate(
        "regrid",
        "regrid_pause_cycles",
        "online re-grid: slowest re-grid cycle / quiet adaptive cycle",
        Bound::AtMost(25.0),
    ),
    gate(
        "recovery",
        "replayed",
        "snapshot + journal durability: journal records replayed by recovery",
        Bound::AtLeast(1.0),
    ),
    gate(
        "recovery",
        "recovery_over_cycle",
        "snapshot + journal durability: full recovery / quiet cycle (restart pause)",
        Bound::AtMost(25.0),
    ),
    gate(
        "cluster",
        "result_changes",
        "cluster vs single node: result changes over the measured cycles (the ratios divide real work)",
        Bound::AtLeast(1.0),
    ),
    gate(
        "cluster",
        "merge_over_single",
        "cluster scale-out: serial coordinator merge slice / single-node cycle at W = 4",
        Bound::AtMost(1.25 * MARGIN),
    ),
    gate(
        "cluster",
        "route_over_single",
        "cluster scale-out: process_cycle routing slice / single-node cycle at W = 4",
        Bound::AtMost(1.25 * MARGIN),
    ),
    Gate {
        min_threads: 4,
        ..gate(
            "cluster",
            "submit_over_process",
            "keeping submit_cycle: its speedup over process_cycle on >= 4 threads",
            Bound::AtLeast(1.15 / MARGIN),
        )
    },
    // The paper's shape, in counts wherever a count exists: exact, so
    // the bar is the claim itself and carries no margin.
    gate(
        "figures",
        "cpm_cells_over_best_baseline",
        "Section 6: CPM cell accesses / the better baseline's, worst point",
        Bound::AtMost(1.0),
    ),
    gate(
        "figures",
        "cpm_objects_over_best_baseline",
        "Section 6: CPM objects processed / the better baseline's, worst point",
        Bound::AtMost(1.0),
    ),
    gate(
        "figures",
        "fig6_1_optimum_steps",
        "Fig. 6.1: axis steps from CPM's fastest granularity to CostModel::optimal_dim",
        Bound::AtMost(1.0),
    ),
    // Section 4.1 counts the cells a circle of radius r = ⌈best_dist / δ⌉
    // cells meets as πr²; it meets up to πr² + 4r + 1, and Table 6.1's
    // δ puts r at 1: (π + 5) / π.
    gate(
        "figures",
        "c_inf_model_factor",
        "Section 4.1: C_inf measured vs predicted on uniform data, worst granularity",
        Bound::AtMost(2.6),
    ),
    gate(
        "figures",
        "o_inf_model_factor",
        "Section 4.1: O_inf measured vs predicted on uniform data, worst granularity",
        Bound::AtMost(2.6),
    ),
    gate(
        "figures",
        "c_sh_model_factor",
        "Section 4.1: C_SH measured vs predicted on uniform data, worst granularity",
        Bound::AtMost(2.6),
    ),
    gate(
        "figures",
        "space_ypk_over_sea",
        "footnote 6: YPK-CNN memory units / SEA-CNN's at the default point",
        Bound::AtMost(1.0),
    ),
    gate(
        "figures",
        "space_sea_over_cpm",
        "footnote 6: SEA-CNN memory units / CPM's at the default point",
        Bound::AtMost(1.0),
    ),
    gate(
        "figures",
        "default_cpm_over_ypk",
        "Section 6: CPM cycle time / YPK-CNN's at the default point (per-cycle pairs)",
        Bound::AtMost(1.0),
    ),
    gate(
        "figures",
        "default_cpm_over_sea",
        "Section 6: CPM cycle time / SEA-CNN's at the default point (per-cycle pairs)",
        Bound::AtMost(1.0),
    ),
];

/// One judged comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The report line.
    pub line: String,
    /// `false` fails `bench_check`.
    pub passed: bool,
}

fn judge(what: &str, stat: Stat, bound: Bound) -> Verdict {
    let (passed, relation, limit) = match bound {
        Bound::AtMost(limit) => (stat.median <= limit, "<=", limit),
        Bound::AtLeast(limit) => (stat.median >= limit, ">=", limit),
    };
    let verdict = if passed { "ok" } else { "FAILED" };
    Verdict {
        line: format!(
            "{what}: {:.3} ± {:.3} MAD, required {relation} {limit:.3} … {verdict}",
            stat.median, stat.mad
        ),
        passed,
    }
}

/// Judge `gate` on `measured` (a record of `gate.bench` from this run)
/// against its bound and, for a `curve` row, against `recorded` (the
/// checked-in record, `None` if unreadable — which fails a curve row).
pub fn evaluate(
    gate: &Gate,
    measured: &BenchRecord,
    recorded: Option<&BenchRecord>,
) -> Vec<Verdict> {
    let threads = measured.machine.threads_available;
    if threads < gate.min_threads {
        let line = format!(
            "{}: needs >= {} threads, host has {threads} — not applicable here",
            gate.what, gate.min_threads
        );
        return vec![Verdict { line, passed: true }];
    }
    let Some(stat) = measured.metric(gate.metric) else {
        let line = format!("{}: metric {} missing from the run", gate.what, gate.metric);
        return vec![Verdict {
            line,
            passed: false,
        }];
    };
    let mut verdicts = vec![judge(gate.what, stat, gate.bound)];
    if gate.curve {
        let what = format!("{} vs BENCH_{}.json", gate.metric, gate.bench);
        verdicts.push(match recorded.map(|r| (r, r.metric(gate.metric))) {
            Some((r, Some(was))) if r.config == measured.config => {
                let bound = match gate.bound {
                    Bound::AtMost(_) => Bound::AtMost(was.median * (1.0 + CURVE_TOLERANCE)),
                    Bound::AtLeast(_) => Bound::AtLeast(was.median / (1.0 + CURVE_TOLERANCE)),
                };
                judge(&what, stat, bound)
            }
            Some((_, Some(_))) => Verdict {
                line: format!("{what}: recorded at another configuration — does not bind"),
                passed: true,
            },
            _ => Verdict {
                line: format!("{what}: checked-in record unreadable or without the metric"),
                passed: false,
            },
        });
    }
    verdicts
}
