//! What the benchmark measures: the four workloads and the metric tables.
//!
//! `BENCHMARK.json` at the repository root is generated from this module
//! (`benchmark manifest`), so the file the driver reads and the names the
//! program emits cannot drift apart; `tests/quick.rs` asserts they agree.

use cpm_suite::gen::SpeedClass;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 28;
/// The seed used while developing; re-check claims on another (e.g. 7).
pub const DEFAULT_SEED: u64 = 2005;

/// Which generator of `cpm-gen` feeds the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// `UniformWorkload`: the Section 4.1 random-displacement model.
    Uniform,
    /// `DriftingHotspotWorkload`: one Gaussian hotspot, breathing population.
    Drift,
}

/// `DriftConfig::ramp_ticks` of `hotspot_drift`; the population wave's
/// period is twice this, and the timed window ends on a whole period.
pub const DRIFT_RAMP_TICKS: usize = 50;
/// `DriftConfig::peak_factor` of `hotspot_drift`.
pub const DRIFT_PEAK_FACTOR: f64 = 3.0;
/// `DriftConfig::sigma` of `hotspot_drift`.
pub const DRIFT_SIGMA: f64 = 0.04;

/// One benchmark workload. Every field is an input property the system's
/// behaviour depends on; `why` records the reason the workload exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub source: Source,
    pub n_objects: usize,
    pub n_queries: usize,
    pub k: usize,
    pub speed: SpeedClass,
    pub f_obj: f64,
    pub f_qry: f64,
    /// Grid cells per axis at start.
    pub dim: u32,
    /// `RegridPolicy::Auto(default)` instead of a fixed grid.
    pub auto_regrid: bool,
    /// 0 = one `CpmServer`; otherwise a `ClusterCoordinator` over this
    /// many in-process workers.
    pub workers: u32,
    /// The timed window ends on a multiple of this many cycles.
    pub period: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper_default",
        why: "Table 6.1 operating point: ~6 objects/cell, every result changes, moving queries recompute; the cycle is mostly core",
        source: Source::Uniform,
        n_objects: 100_000,
        n_queries: 5_000,
        k: 16,
        speed: SpeedClass::Medium,
        f_obj: 0.5,
        f_qry: 0.3,
        dim: 128,
        auto_regrid: false,
        workers: 0,
        period: 1,
    },
    Workload {
        name: "delta_churn",
        why: "one-cell moves under wide static results (k=64): little search, the most delta capture, encode, drain and replica apply",
        source: Source::Uniform,
        n_objects: 100_000,
        n_queries: 2_000,
        k: 64,
        speed: SpeedClass::Slow,
        f_obj: 0.5,
        f_qry: 0.0,
        dim: 128,
        auto_regrid: false,
        workers: 0,
        period: 1,
    },
    Workload {
        name: "hotspot_drift",
        why: "same grid and kernel code in the opposite regime: buckets of tens to hundreds, appear/disappear, index rebuilds mid-run",
        source: Source::Drift,
        n_objects: 30_000,
        n_queries: 2_000,
        k: 16,
        speed: SpeedClass::Medium,
        f_obj: 0.5,
        f_qry: 0.3,
        dim: 64,
        auto_regrid: true,
        workers: 0,
        period: 2 * DRIFT_RAMP_TICKS,
    },
    Workload {
        name: "cluster_w2",
        why: "the paper_default object stream with static queries through a 2-worker cluster: route, merge and framing block the cycle",
        source: Source::Uniform,
        n_objects: 100_000,
        n_queries: 5_000,
        k: 16,
        speed: SpeedClass::Medium,
        f_obj: 0.5,
        // Sticky query ownership refuses a cross-tile query move with
        // `QueryOutOfTile`; static queries keep every cycle valid.
        f_qry: 0.0,
        dim: 128,
        auto_regrid: false,
        workers: 2,
        period: 1,
    },
];

/// Overlap margin (cells) of the `cluster_w2` tiles.
pub const CLUSTER_OVERLAP: u32 = 8;

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The `--quick` smoke scale: populations / 20, grid / 4 per axis
    /// (so cells keep roughly their occupancy), no period alignment.
    pub fn quick(mut self) -> Workload {
        self.n_objects /= 20;
        self.n_queries /= 20;
        self.dim /= 4;
        self.period = 1;
        self
    }
}

/// How many cycles a run executes around its `--seconds` of measuring.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Unmeasured cycles after set-up.
    pub warmup: usize,
    /// Timed cycles run at least this many, however short `--seconds`
    /// is, and counters (bytes, `Metrics`, receipts) cover exactly the
    /// first this many, so they repeat exactly whatever the host speed.
    pub cycles: usize,
    /// 32 sampled queries are checked against the oracle every this many
    /// timed cycles.
    pub sample_every: usize,
    /// Fresh set-ups timed for `setup_s` (the median is reported).
    pub setups: usize,
}

impl Plan {
    pub fn new(quick: bool, trace: bool) -> Plan {
        if quick {
            return Plan {
                warmup: 5,
                cycles: 30,
                sample_every: 10,
                setups: 3,
            };
        }
        // The traced pass runs the twin lanes too and may stop at half.
        Plan {
            warmup: 20,
            cycles: if trace { 120 } else { 240 },
            sample_every: 50,
            setups: 15,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics (tracing off) with the share of the parent's median
/// by which each may worsen before a change counts as a regression.
///
/// The timing bounds are the widest the driver allows, not the issue's
/// 5-10 %: for minutes to an hour at a time a neighbour on the 2-vCPU
/// shared host holds the last-level cache, and the quiet tenth of the
/// cycles (see `run::quiet_tenth`) then still reads about a tenth higher,
/// a sixth on `cluster_w2`; in a quiet hour ten seeds spread by 2-3 %.
/// The issue's `cycle_ms_p50` and `cycle_ms_p95` over all timed cycles move
/// by 20-60 % with the neighbour, so they are per-layer metrics of the
/// traced pass (`trace.cycle_ms_p50/p95`), where no bound hangs on them.
/// README.md has the numbers.
///
/// `failed_share` of the issue is not here: the driver wants metrics that
/// are never 0 and takes failures from the result line's
/// `attempted`/`failed`; the human-readable output still prints it.
pub const END_TO_END: [(MetricDef, f64); 5] = [
    (m("setup_s", "s", "lower"), 0.25),
    (m("cycle_ms_quiet", "ms", "lower"), 0.25),
    (m("updates_per_s", "events/s", "higher"), 0.25),
    (m("sub_bytes_per_cycle", "bytes", "lower"), 0.02),
    (m("peak_rss_mb", "MiB", "lower"), 0.25),
];

/// Per-layer metrics (the `--trace 1` pass); layer = crate.
pub const PER_LAYER: [MetricDef; 61] = [
    m("grid.ingest_ms_p50", "ms", "lower"),
    m("grid.ingest_ms_p95", "ms", "lower"),
    m("grid.ingest_ns_per_update", "ns", "lower"),
    m("grid.kernel_ns_per_obj", "ns", "lower"),
    m("grid.mean_bucket", "count", "lower"),
    m("grid.max_bucket", "count", "lower"),
    m("grid.regrids", "count", "lower"),
    m("grid.regrid_objects_migrated", "count", "lower"),
    m("core.cycle_ms_p50", "ms", "lower"),
    m("core.cycle_ms_p95", "ms", "lower"),
    m("core.maintain_ms_p50", "ms", "lower"),
    m("core.maintain_ms_p95", "ms", "lower"),
    m("core.delta_capture_ms_p50", "ms", "lower"),
    m("core.delta_capture_ms_p95", "ms", "lower"),
    m("core.cell_accesses_per_cycle", "count", "lower"),
    m("core.objects_processed_per_cycle", "count", "lower"),
    m("core.heap_pushes_per_cycle", "count", "lower"),
    m("core.heap_pops_per_cycle", "count", "lower"),
    m("core.computations_per_cycle", "count", "lower"),
    m("core.recomputations_per_cycle", "count", "lower"),
    m("core.merge_resolutions_per_cycle", "count", "higher"),
    m("core.updates_applied_per_cycle", "count", "higher"),
    m("core.changed_per_cycle", "count", "lower"),
    m("core.delta_entries_per_cycle", "count", "lower"),
    m("core.merge_resolution_share", "ratio", "higher"),
    m("core.space_units", "count", "lower"),
    m("core.setup_populate_ms", "ms", "lower"),
    m("core.setup_install_ms", "ms", "lower"),
    m("wire.encode_ms_p50", "ms", "lower"),
    m("wire.encode_ms_p95", "ms", "lower"),
    m("wire.decode_ms_p50", "ms", "lower"),
    m("wire.decode_ms_p95", "ms", "lower"),
    m("wire.frame_ms_p50", "ms", "lower"),
    m("wire.frame_ms_p95", "ms", "lower"),
    m("wire.bytes_per_entry", "bytes", "lower"),
    m("sub.publish_ms_p50", "ms", "lower"),
    m("sub.publish_ms_p95", "ms", "lower"),
    m("sub.drain_ms_p50", "ms", "lower"),
    m("sub.drain_ms_p95", "ms", "lower"),
    m("sub.apply_ms_p50", "ms", "lower"),
    m("sub.apply_ms_p95", "ms", "lower"),
    m("sub.deltas_per_cycle", "count", "lower"),
    m("sub.entries_per_cycle", "count", "lower"),
    m("sub.encodes_per_cycle", "count", "lower"),
    m("sub.lagged", "count", "lower"),
    m("cluster.cycle_ms_p50", "ms", "lower"),
    m("cluster.cycle_ms_p95", "ms", "lower"),
    m("cluster.route_ms_p50", "ms", "lower"),
    m("cluster.route_ms_p95", "ms", "lower"),
    m("cluster.worker_wait_ms_p50", "ms", "lower"),
    m("cluster.worker_wait_ms_p95", "ms", "lower"),
    m("cluster.merge_ms_p50", "ms", "lower"),
    m("cluster.merge_ms_p95", "ms", "lower"),
    m("cluster.over_single", "ratio", "lower"),
    m("gen.generate_s", "s", "lower"),
    m("sim.oracle_check_s", "s", "lower"),
    m("sim.oracle_mismatches", "count", "lower"),
    m("trace.share_sum", "ratio", "higher"),
    m("trace.cycle_ms_quiet", "ms", "lower"),
    m("trace.cycle_ms_p50", "ms", "lower"),
    m("trace.cycle_ms_p95", "ms", "lower"),
];

/// The exact text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (d, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}{comma}\n",
            d.name, d.unit, d.better
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            d.name, d.unit, d.better
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
