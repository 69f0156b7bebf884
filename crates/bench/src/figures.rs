//! The experiments of Section 6 (Figures 6.1–6.6, the footnote-6 space
//! comparison), the Section 4.1 analysis validation (Figure 4.1), and the
//! extension studies. Each function reproduces one figure as a
//! [`Table`] whose rows match the paper's x axis.
//!
//! `scale ∈ (0, 1]` multiplies the population/query counts and the
//! simulation length (`--paper` = 1.0 reproduces Table 6.1 exactly); the
//! *shape* of every series is scale-invariant, which is what
//! EXPERIMENTS.md tracks.

use std::time::Instant;

use cpm_core::{
    AggregateFn, AnnQuery, ConstrainedQuery, CpmServerBuilder, PointQuery, RegridPolicy,
    ShardedCpmEngine, SpecEvent,
};
use cpm_gen::SpeedClass;
use cpm_geom::{Point, QueryId, Rect};
use cpm_grid::ObjectEvent;
use cpm_sim::{run, run_contenders, AlgoKind, RunReport, SimParams, SimulationInput, WorkloadKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::table::Table;

/// Paper parameter sets, scaled.
pub fn base_params(scale: f64) -> SimParams {
    SimParams::scaled(scale)
}

fn contender_columns() -> Vec<String> {
    AlgoKind::CONTENDERS
        .iter()
        .map(|a| a.label().to_string())
        .collect()
}

fn note_params(t: &mut Table, p: &SimParams) {
    t.note(format!(
        "N={}, n={}, k={}, grid={}², f_obj={:.0}%, f_qry={:.0}%, {} timestamps, speeds {}/{}",
        p.n_objects,
        p.n_queries,
        p.k,
        p.grid_dim,
        p.f_obj * 100.0,
        p.f_qry * 100.0,
        p.timestamps,
        p.object_speed.label(),
        p.query_speed.label(),
    ));
}

fn total_ms(r: &RunReport) -> f64 {
    r.processing_time.as_secs_f64() * 1e3
}

/// Figure 6.1: CPU time vs grid granularity (32² … 1024²).
pub fn fig6_1(scale: f64) -> Table {
    fig6_1_dims(scale, &[32, 64, 128, 256, 512, 1024])
}

/// [`fig6_1`] over an explicit set of grid dimensions (tests use a short
/// list: the baselines' ring searches are pathological on near-empty fine
/// grids, which is itself part of the Figure 6.1 story).
pub fn fig6_1_dims(scale: f64, dims: &[u32]) -> Table {
    let params = base_params(scale);
    let mut input = SimulationInput::generate(&params);
    let mut t = Table::new(
        "Figure 6.1 — CPU time vs grid granularity",
        "cells",
        "ms total",
        contender_columns(),
    );
    for &dim in dims {
        input.params.grid_dim = dim;
        let reports = run_contenders(&input);
        t.push_row(format!("{dim}^2"), reports.iter().map(total_ms).collect());
    }
    note_params(&mut t, &params);
    t.note("expected shape: CPM lowest everywhere; 128² a good tradeoff for all methods");
    t
}

/// Figure 6.2a: CPU time vs object population N.
pub fn fig6_2a(scale: f64) -> Table {
    let mut t = Table::new(
        "Figure 6.2a — CPU time vs number of objects",
        "N",
        "ms total",
        contender_columns(),
    );
    for base_n in [10_000usize, 50_000, 100_000, 150_000, 200_000] {
        let mut params = base_params(scale);
        params.n_objects = ((base_n as f64 * scale) as usize).max(100);
        let input = SimulationInput::generate(&params);
        let reports = run_contenders(&input);
        t.push_row(
            format!("{}", params.n_objects),
            reports.iter().map(total_ms).collect(),
        );
    }
    note_params(&mut t, &base_params(scale));
    t.note("expected shape: all linear in N; CPM with by far the smallest slope");
    t
}

/// Figure 6.2b: CPU time vs number of queries n.
pub fn fig6_2b(scale: f64) -> Table {
    let mut t = Table::new(
        "Figure 6.2b — CPU time vs number of queries",
        "n",
        "ms total",
        contender_columns(),
    );
    for base_n in [1_000usize, 2_000, 5_000, 7_000, 10_000] {
        let mut params = base_params(scale);
        params.n_queries = ((base_n as f64 * scale) as usize).max(10);
        let input = SimulationInput::generate(&params);
        let reports = run_contenders(&input);
        t.push_row(
            format!("{}", params.n_queries),
            reports.iter().map(total_ms).collect(),
        );
    }
    note_params(&mut t, &base_params(scale));
    t.note("expected shape: all linear in n; CPM with the smallest slope");
    t
}

/// Figure 6.3a/6.3b: CPU time and cell accesses per query per timestamp
/// vs k. Returns `(time_table, cell_access_table)`.
pub fn fig6_3(scale: f64) -> (Table, Table) {
    let mut time_t = Table::new(
        "Figure 6.3a — CPU time vs k",
        "k",
        "ms total",
        contender_columns(),
    );
    let mut cells_t = Table::new(
        "Figure 6.3b — cell accesses per query per timestamp vs k",
        "k",
        "cells/query/ts",
        contender_columns(),
    );
    for k in [1usize, 4, 16, 64, 256] {
        let mut params = base_params(scale);
        params.k = k;
        let input = SimulationInput::generate(&params);
        let reports = run_contenders(&input);
        time_t.push_row(format!("{k}"), reports.iter().map(total_ms).collect());
        cells_t.push_row(
            format!("{k}"),
            reports
                .iter()
                .map(|r| r.cell_accesses_per_query_per_cycle())
                .collect(),
        );
    }
    note_params(&mut time_t, &base_params(scale));
    cells_t.note("expected shape: CPM < 1 cell/query/ts for small k (log-scale plot in the paper)");
    (time_t, cells_t)
}

/// Figure 6.4a: CPU time vs object speed class.
pub fn fig6_4a(scale: f64) -> Table {
    let mut t = Table::new(
        "Figure 6.4a — CPU time vs object speed",
        "speed",
        "ms total",
        contender_columns(),
    );
    for speed in SpeedClass::ALL {
        let mut params = base_params(scale);
        params.object_speed = speed;
        let input = SimulationInput::generate(&params);
        let reports = run_contenders(&input);
        t.push_row(speed.label(), reports.iter().map(total_ms).collect());
    }
    note_params(&mut t, &base_params(scale));
    t.note("expected shape: CPM practically flat; YPK-CNN and SEA-CNN degrade with speed");
    t
}

/// Figure 6.4b: CPU time vs query speed class.
pub fn fig6_4b(scale: f64) -> Table {
    let mut t = Table::new(
        "Figure 6.4b — CPU time vs query speed",
        "speed",
        "ms total",
        contender_columns(),
    );
    for speed in SpeedClass::ALL {
        let mut params = base_params(scale);
        params.query_speed = speed;
        let input = SimulationInput::generate(&params);
        let reports = run_contenders(&input);
        t.push_row(speed.label(), reports.iter().map(total_ms).collect());
    }
    note_params(&mut t, &base_params(scale));
    t.note("expected shape: CPM and YPK-CNN flat (from-scratch computation); SEA-CNN grows");
    t
}

/// Figure 6.5a: CPU time vs object agility f_obj.
pub fn fig6_5a(scale: f64) -> Table {
    let mut t = Table::new(
        "Figure 6.5a — CPU time vs object agility",
        "f_obj",
        "ms total",
        contender_columns(),
    );
    for pct in [10u32, 20, 30, 40, 50] {
        let mut params = base_params(scale);
        params.f_obj = pct as f64 / 100.0;
        let input = SimulationInput::generate(&params);
        let reports = run_contenders(&input);
        t.push_row(format!("{pct}%"), reports.iter().map(total_ms).collect());
    }
    note_params(&mut t, &base_params(scale));
    t.note("expected shape: CPM linear in f_obj (index update cost)");
    t
}

/// Figure 6.5b: CPU time vs query agility f_qry.
pub fn fig6_5b(scale: f64) -> Table {
    let mut t = Table::new(
        "Figure 6.5b — CPU time vs query agility",
        "f_qry",
        "ms total",
        contender_columns(),
    );
    for pct in [10u32, 20, 30, 40, 50] {
        let mut params = base_params(scale);
        params.f_qry = pct as f64 / 100.0;
        let input = SimulationInput::generate(&params);
        let reports = run_contenders(&input);
        t.push_row(format!("{pct}%"), reports.iter().map(total_ms).collect());
    }
    note_params(&mut t, &base_params(scale));
    t.note("expected shape: CPM grows with f_qry (moving queries recompute); YPK-CNN insensitive");
    t
}

/// Figure 6.6a: NN-computation modules alone — constantly moving queries
/// (every query updates every timestamp), CPM vs YPK-CNN, vs N.
pub fn fig6_6a(scale: f64) -> Table {
    let mut t = Table::new(
        "Figure 6.6a — constantly moving queries (NN computation module)",
        "N",
        "ms total",
        vec!["CPM".into(), "YPK-CNN".into()],
    );
    for base_n in [10_000usize, 50_000, 100_000, 150_000, 200_000] {
        let mut params = base_params(scale);
        params.n_objects = ((base_n as f64 * scale) as usize).max(100);
        params.f_qry = 1.0;
        let input = SimulationInput::generate(&params);
        let cpm = run(AlgoKind::Cpm, &input);
        let ypk = run(AlgoKind::Ypk, &input);
        t.push_row(
            format!("{}", params.n_objects),
            vec![total_ms(&cpm), total_ms(&ypk)],
        );
    }
    t.note("f_qry = 100%: results recomputed from scratch every cycle (SEA-CNN omitted, as in the paper)");
    t.note("expected shape: CPM below YPK-CNN with a growing gap in N");
    t
}

/// Figure 6.6b: pure result maintenance — static queries, vs N.
pub fn fig6_6b(scale: f64) -> Table {
    let mut t = Table::new(
        "Figure 6.6b — static queries (pure maintenance cost)",
        "N",
        "ms total",
        contender_columns(),
    );
    for base_n in [10_000usize, 50_000, 100_000, 150_000, 200_000] {
        let mut params = base_params(scale);
        params.n_objects = ((base_n as f64 * scale) as usize).max(100);
        params.f_qry = 0.0;
        let input = SimulationInput::generate(&params);
        let reports = run_contenders(&input);
        t.push_row(
            format!("{}", params.n_objects),
            reports.iter().map(total_ms).collect(),
        );
    }
    t.note("f_qry = 0%: no NN computations after installation");
    t.note("expected shape: YPK-CNN ≈ SEA-CNN; CPM far below both");
    t
}

/// Footnote 6: space overhead of the three methods at the default
/// parameters (memory units and MBytes at 4 bytes/unit).
pub fn space(scale: f64) -> Table {
    let params = base_params(scale);
    let input = SimulationInput::generate(&params);
    let mut t = Table::new(
        "Space overhead (Section 6, footnote 6)",
        "method",
        "units / MB",
        vec!["memory units".into(), "MBytes".into()],
    );
    for report in run_contenders(&input) {
        t.push_row(
            report.algo,
            vec![report.space_units as f64, report.space_mbytes()],
        );
    }
    note_params(&mut t, &params);
    t.note(
        "expected order: YPK-CNN < SEA-CNN < CPM (paper: 2.854 / 3.074 / 3.314 MB at full scale)",
    );
    t
}

/// Section 4.1 / Figure 4.1 validation: predicted vs measured `best_dist`,
/// `C_inf`, `O_inf`, `C_SH` on the uniform workload, across grid sizes.
pub fn analysis(scale: f64) -> Table {
    let mut t = Table::new(
        "Section 4.1 — analytical model vs measurement (uniform data)",
        "grid",
        "value",
        vec![
            "bd pred".into(),
            "bd meas".into(),
            "C_inf pred".into(),
            "C_inf meas".into(),
            "O_inf pred".into(),
            "O_inf meas".into(),
            "C_SH pred".into(),
            "C_SH meas".into(),
        ],
    );
    for dim in [32u32, 64, 128, 256] {
        let mut params = base_params(scale);
        params.workload = WorkloadKind::Uniform;
        params.grid_dim = dim;
        let input = SimulationInput::generate(&params);
        let model = params.cost_model();

        let mut monitor = ShardedCpmEngine::<PointQuery>::new(dim, 1);
        monitor.populate(input.initial_objects.iter().copied());
        for &(qid, pos, k) in &input.initial_queries {
            monitor
                .install(qid, PointQuery(pos), k)
                .expect("generated ids are fresh");
        }
        for tick in &input.ticks {
            let query_events: Vec<SpecEvent<PointQuery>> =
                tick.query_events.iter().map(|&ev| ev.into()).collect();
            monitor.process_cycle(&tick.object_events, &query_events);
        }

        let mut bd = 0.0f64;
        let mut c_inf = 0.0f64;
        let mut o_inf = 0.0f64;
        let mut c_sh = 0.0f64;
        let mut counted = 0usize;
        for qid in monitor.query_ids() {
            let st = monitor.query_state(qid).expect("installed");
            if !st.best.is_full() {
                continue;
            }
            bd += st.best_dist();
            c_inf += st.influence_len as f64;
            o_inf += st.visit_list[..st.influence_len]
                .iter()
                .map(|&(c, _)| monitor.grid().cell_len(c) as f64)
                .sum::<f64>();
            c_sh += (st.visit_list.len() + st.heap.cell_entries()) as f64;
            counted += 1;
        }
        let denom = counted.max(1) as f64;
        t.push_row(
            format!("{dim}^2"),
            vec![
                model.best_dist(),
                bd / denom,
                model.c_inf(),
                c_inf / denom,
                model.o_inf(),
                o_inf / denom,
                model.c_sh(),
                c_sh / denom,
            ],
        );
    }
    note_params(&mut t, &base_params(scale));
    t.note("Figure 4.1 shape: δ↓ ⇒ C_inf↑, O_inf→k; δ↑ ⇒ few cells, many objects");
    t
}

/// Section 5 extension: continuous ANN monitoring (sum/min/max) vs naive
/// per-cycle re-evaluation over all objects.
pub fn ann(scale: f64) -> Table {
    let params = base_params(scale.min(0.5));
    let input = SimulationInput::generate(&SimParams {
        n_queries: 0,
        ..params
    });
    let n_queries = (params.n_queries / 10).max(5);
    let mut t = Table::new(
        "Section 5 — aggregate-NN monitoring vs naive re-evaluation",
        "aggregate",
        "ms total",
        vec!["CPM-ANN".into(), "re-evaluate".into()],
    );
    for f in [AggregateFn::Sum, AggregateFn::Min, AggregateFn::Max] {
        let mut rng = StdRng::seed_from_u64(params.seed ^ 0xA99);
        let specs: Vec<AnnQuery> = (0..n_queries)
            .map(|_| {
                let m = rng.gen_range(2..=5);
                let c = Point::new(rng.gen(), rng.gen());
                let pts = (0..m)
                    .map(|_| {
                        Point::new(
                            (c.x + rng.gen_range(-0.05..0.05)).clamp(0.0, 0.999),
                            (c.y + rng.gen_range(-0.05..0.05)).clamp(0.0, 0.999),
                        )
                    })
                    .collect();
                AnnQuery::new(pts, f)
            })
            .collect();

        // CPM-ANN.
        let mut monitor = ShardedCpmEngine::new(params.grid_dim, 1);
        monitor.populate(input.initial_objects.iter().copied());
        for (i, q) in specs.iter().enumerate() {
            monitor
                .install(QueryId(i as u32), q.clone(), params.k.min(8))
                .expect("fresh query id");
        }
        let start = Instant::now();
        for tick in &input.ticks {
            monitor.process_cycle(&tick.object_events, &[]);
        }
        let cpm_ms = start.elapsed().as_secs_f64() * 1e3;

        // Naive: recompute every adist from scratch each cycle.
        let mut positions: Vec<Option<Point>> = input
            .initial_objects
            .iter()
            .map(|&(_, p)| Some(p))
            .collect();
        let start = Instant::now();
        let kk = params.k.min(8);
        let mut sink = 0.0f64;
        for tick in &input.ticks {
            for ev in &tick.object_events {
                match *ev {
                    cpm_grid::ObjectEvent::Move { id, to } => {
                        if id.index() >= positions.len() {
                            positions.resize(id.index() + 1, None);
                        }
                        positions[id.index()] = Some(to);
                    }
                    cpm_grid::ObjectEvent::Appear { id, pos } => {
                        if id.index() >= positions.len() {
                            positions.resize(id.index() + 1, None);
                        }
                        positions[id.index()] = Some(pos);
                    }
                    cpm_grid::ObjectEvent::Disappear { id } => positions[id.index()] = None,
                }
            }
            for q in &specs {
                let mut dists: Vec<f64> = positions.iter().flatten().map(|&p| q.adist(p)).collect();
                dists.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                sink += dists.iter().take(kk).sum::<f64>();
            }
        }
        let naive_ms = start.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(sink);

        t.push_row(format!("{f:?}").to_lowercase(), vec![cpm_ms, naive_ms]);
    }
    t.note(format!(
        "{} ANN queries of 2-5 points each over N={} network objects",
        n_queries, params.n_objects
    ));
    t.note("no paper numbers exist for ANN; this quantifies the monitoring win");
    t
}

/// Section 5 extension: constrained-NN monitoring vs naive re-evaluation.
pub fn constrained(scale: f64) -> Table {
    let params = base_params(scale.min(0.5));
    let input = SimulationInput::generate(&SimParams {
        n_queries: 0,
        ..params
    });
    let n_queries = (params.n_queries / 10).max(5);
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0xC0);
    let specs: Vec<ConstrainedQuery> = (0..n_queries)
        .map(|_| {
            let q = Point::new(rng.gen(), rng.gen());
            let w = rng.gen_range(0.1..0.4);
            let lo = Point::new(
                (q.x - w / 2.0).clamp(0.0, 0.9),
                (q.y - w / 2.0).clamp(0.0, 0.9),
            );
            let hi = Point::new((lo.x + w).min(1.0), (lo.y + w).min(1.0));
            ConstrainedQuery::new(q, Rect::new(lo, hi))
        })
        .collect();

    let mut t = Table::new(
        "Section 5 — constrained-NN monitoring vs naive re-evaluation",
        "method",
        "ms total",
        vec!["ms".into()],
    );

    let mut monitor = ShardedCpmEngine::new(params.grid_dim, 1);
    monitor.populate(input.initial_objects.iter().copied());
    for (i, q) in specs.iter().enumerate() {
        monitor
            .install(QueryId(i as u32), q.clone(), params.k.min(8))
            .expect("fresh query id");
    }
    let start = Instant::now();
    for tick in &input.ticks {
        monitor.process_cycle(&tick.object_events, &[]);
    }
    t.push_row("CPM-constrained", vec![start.elapsed().as_secs_f64() * 1e3]);

    let mut positions: Vec<Option<Point>> = input
        .initial_objects
        .iter()
        .map(|&(_, p)| Some(p))
        .collect();
    let start = Instant::now();
    let kk = params.k.min(8);
    let mut sink = 0.0f64;
    for tick in &input.ticks {
        for ev in &tick.object_events {
            match *ev {
                cpm_grid::ObjectEvent::Move { id, to } => {
                    if id.index() >= positions.len() {
                        positions.resize(id.index() + 1, None);
                    }
                    positions[id.index()] = Some(to);
                }
                cpm_grid::ObjectEvent::Appear { id, pos } => {
                    if id.index() >= positions.len() {
                        positions.resize(id.index() + 1, None);
                    }
                    positions[id.index()] = Some(pos);
                }
                cpm_grid::ObjectEvent::Disappear { id } => positions[id.index()] = None,
            }
        }
        for q in &specs {
            let mut dists: Vec<f64> = positions
                .iter()
                .flatten()
                .filter(|&&p| q.region.contains(p))
                .map(|&p| q.q.dist(p))
                .collect();
            dists.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            sink += dists.iter().take(kk).sum::<f64>();
        }
    }
    t.push_row("re-evaluate", vec![start.elapsed().as_secs_f64() * 1e3]);
    std::hint::black_box(sink);

    t.note(format!(
        "{} constrained queries over N={} network objects",
        n_queries, params.n_objects
    ));
    t
}

/// Skew study: CPU time vs grid granularity under Gaussian-hotspot data.
/// The paper points to hierarchical grids for this regime (\[YPK05\]); this
/// charts how far a regular grid carries each algorithm.
pub fn skew(scale: f64) -> Table {
    let mut params = base_params(scale);
    params.workload = WorkloadKind::Skewed { hotspots: 5 };
    let mut input = SimulationInput::generate(&params);
    let mut t = Table::new(
        "Skewed data — CPU time vs grid granularity (5 Gaussian hotspots)",
        "cells",
        "ms total",
        contender_columns(),
    );
    for dim in [32u32, 64, 128, 256, 512] {
        input.params.grid_dim = dim;
        let reports = run_contenders(&input);
        t.push_row(format!("{dim}^2"), reports.iter().map(total_ms).collect());
    }
    note_params(&mut t, &params);
    t.note("skew concentrates ~all objects in a few hundred cells: fine grids stay cheap for CPM");
    t
}

/// Adaptive-resolution study: fixed-δ vs cost-model-driven re-gridding on
/// the drifting-hotspot stream ([`cpm_gen::drift`]), whose population
/// breathes between a base and a peak count so the optimal cell side
/// moves mid-run. Both lanes replay the identical input; the fixed lane
/// stays at the resolution right for the *base* population (what a
/// capacity plan would have provisioned), the adaptive lane follows
/// [`cpm_core::RegridPolicy::auto`].
pub fn drift(scale: f64) -> Table {
    let mut params = base_params(scale);
    // Base population an order of magnitude below the paper default; the
    // stream then breathes up to the full default and back.
    params.n_objects = (params.n_objects / 10).max(200);
    params.n_queries = (params.n_queries / 10).max(20);
    params.workload = WorkloadKind::Drift { peak_factor: 10.0 };
    // Provision the fixed lane for the base population, as a static
    // deployment would.
    let base_model = cpm_core::CostModel {
        n_objects: params.n_objects,
        n_queries: params.n_queries,
        k: params.k,
        delta: 0.0, // ignored by optimal_dim
        f_obj: params.f_obj,
        f_qry: params.f_qry,
        skew: 1.0,
    };
    params.grid_dim = base_model.optimal_dim(16, 1024);
    let input = SimulationInput::generate(&params);

    let mut t = Table::new(
        "Adaptive resolution — fixed δ vs cost-model re-gridding (drifting hotspot)",
        "engine",
        "per run",
        vec![
            "ms/cycle".into(),
            "cell accesses".into(),
            "regrids".into(),
            "final dim".into(),
        ],
    );
    // (ms/cycle, cell accesses, regrids, final dim) of one lane.
    let lane = |policy: RegridPolicy| -> Vec<f64> {
        let mut engine = ShardedCpmEngine::<PointQuery>::new(params.grid_dim, 1);
        engine.set_regrid_policy(policy);
        engine.populate(input.initial_objects.iter().copied());
        for &(qid, pos, k) in &input.initial_queries {
            engine
                .install(qid, PointQuery(pos), k)
                .expect("generated ids are fresh");
        }
        let query_events: Vec<Vec<SpecEvent<PointQuery>>> = input
            .ticks
            .iter()
            .map(|t| t.query_events.iter().map(|&ev| ev.into()).collect())
            .collect();
        let start = Instant::now();
        for (tick, qev) in input.ticks.iter().zip(&query_events) {
            engine.process_cycle(&tick.object_events, qev);
        }
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let metrics = engine.take_metrics();
        vec![
            ms / input.ticks.len().max(1) as f64,
            metrics.cell_accesses as f64,
            metrics.regrids as f64,
            engine.grid().dim() as f64,
        ]
    };
    t.push_row(
        format!("fixed {}²", params.grid_dim),
        lane(RegridPolicy::Manual),
    );
    t.push_row(
        "adaptive",
        lane(RegridPolicy::Auto(cpm_core::AutoRegridConfig {
            check_every: 4,
            cooldown: 8,
            ..cpm_core::AutoRegridConfig::default()
        })),
    );
    note_params(&mut t, &params);
    t.note(format!(
        "population breathes {}→{} and back; results are bit-identical between the lanes \
         (re-grids are observationally invisible)",
        params.n_objects,
        (params.n_objects as f64 * 10.0) as usize
    ));
    t
}

/// Shard-scaling study: CPU time per cycle vs shard count for the sharded
/// parallel engine, with the sequential engine (1 shard) as baseline. The
/// speedup column is machine-dependent — the note records the host's
/// available parallelism, since no speedup can appear beyond it.
pub fn shards(scale: f64, shard_counts: &[usize]) -> Table {
    let params = base_params(scale);
    let input = SimulationInput::generate(&params);
    let mut t = Table::new(
        "Shard scaling — sharded parallel engine vs sequential",
        "shards",
        "per cycle",
        vec![
            "ms/cycle".into(),
            "speedup".into(),
            "p95 ms".into(),
            "p100 ms".into(),
        ],
    );
    let mut baseline_ms = None;
    for &s in shard_counts {
        let r = cpm_sim::run_sharded(&input, s);
        let ms = r.millis_per_cycle();
        let base = *baseline_ms.get_or_insert(ms);
        t.push_row(
            s.to_string(),
            vec![
                ms,
                base / ms,
                r.latency_percentile_ms(0.95),
                r.latency_percentile_ms(1.0),
            ],
        );
    }
    note_params(&mut t, &params);
    t.note(format!(
        "host parallelism: {} thread(s); results are bit-identical across shard counts",
        crate::record::Machine::this_host().threads_available
    ));
    t
}

/// Subscription-layer extension: cycle cost and shipped data volume of
/// delta streaming versus full result lists, across subscription counts
/// (the `cpm-sub` workload; see [`crate::deltas`]).
pub fn deltas(scale: f64) -> Table {
    let base = crate::deltas::Config::default();
    let n_objects = ((base.n_objects as f64 * scale) as usize).max(500);
    let full_subs = ((base.n_subscriptions as f64 * scale) as usize).max(20);
    let mut t = Table::new(
        "Delta streaming — emission cost vs full result lists",
        "subscriptions",
        "per cycle",
        vec![
            "full ms".into(),
            "delta ms".into(),
            "overhead %".into(),
            "full entries".into(),
            "delta entries".into(),
        ],
    );
    for subs in [full_subs / 4, full_subs / 2, full_subs] {
        let cfg = crate::deltas::Config {
            n_objects,
            n_subscriptions: subs.max(5),
            cycles: 5,
            ..crate::deltas::Config::default()
        };
        let run = crate::deltas::measure(&cfg);
        t.push_row(
            cfg.n_subscriptions.to_string(),
            vec![
                run.lane_num("full-list", "ms_quiet"),
                run.lane_num("delta", "ms_quiet"),
                (run.median("delta_over_full") - 1.0) * 100.0,
                run.lane_num("full-list", "entries_shipped") / cfg.cycles as f64,
                run.lane_num("delta", "entries_shipped") / cfg.cycles as f64,
            ],
        );
    }
    t.note(format!(
        "N = {n_objects} objects, k = {}, {}% movers per cycle; entries = result entries \
         shipped to subscribers (deltas ship only the churn)",
        base.k,
        base.move_fraction * 100.0
    ));
    t
}

/// Unified-server extension: per-query-class cost attribution from one
/// **mixed** run (k-NN + range + aggregate + constrained + reverse-NN on
/// a single [`cpm_core::CpmServer`]), via [`cpm_grid::Metrics::by_kind`],
/// plus the unified-vs-split cycle-time comparison of
/// [`crate::server::measure`].
pub fn mixed(scale: f64) -> Table {
    use cpm_grid::QueryKind;

    let base = crate::server::Config::default();
    let cfg = crate::server::Config {
        n_objects: ((base.n_objects as f64 * scale) as usize).max(500),
        knn_queries: ((base.knn_queries as f64 * scale) as usize).max(5),
        range_queries: ((base.range_queries as f64 * scale) as usize).max(5),
        constrained_queries: ((base.constrained_queries as f64 * scale) as usize).max(5),
        cycles: 8,
        ..base
    };

    // Instrumented mixed run: one server hosting every query class.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x3D);
    let mut server = cpm_core::CpmServerBuilder::new(cfg.grid_dim).build();
    let mut positions: Vec<Point> = (0..cfg.n_objects)
        .map(|_| Point::new(rng.gen(), rng.gen()))
        .collect();
    server.populate(
        positions
            .iter()
            .enumerate()
            .map(|(i, &p)| (cpm_geom::ObjectId(i as u32), p)),
    );
    let mut next_id = 0u32;
    let mut fresh = || {
        next_id += 1;
        QueryId(next_id - 1)
    };
    for _ in 0..cfg.knn_queries {
        let _ = server
            .install_knn(fresh(), Point::new(rng.gen(), rng.gen()), cfg.k)
            .expect("fresh id");
    }
    for _ in 0..cfg.range_queries {
        let q = cpm_core::RangeQuery::circle(
            Point::new(rng.gen(), rng.gen()),
            0.03 + rng.gen::<f64>() * 0.05,
        );
        let _ = server.install_range(fresh(), q).expect("fresh id");
    }
    for _ in 0..cfg.constrained_queries {
        let q = Point::new(rng.gen(), rng.gen());
        let w = 0.15;
        let lo = Point::new((q.x - w).max(0.0), (q.y - w).max(0.0));
        let hi = Point::new((lo.x + 2.0 * w).min(1.0), (lo.y + 2.0 * w).min(1.0));
        let _ = server
            .install_constrained(fresh(), ConstrainedQuery::new(q, Rect::new(lo, hi)), cfg.k)
            .expect("fresh id");
    }
    for _ in 0..(cfg.knn_queries / 5).max(2) {
        let pts: Vec<Point> = (0..3).map(|_| Point::new(rng.gen(), rng.gen())).collect();
        let _ = server
            .install_ann(fresh(), AnnQuery::new(pts, AggregateFn::Sum), 2)
            .expect("fresh id");
        let _ = server
            .install_rnn(fresh(), Point::new(rng.gen(), rng.gen()))
            .expect("fresh id");
    }
    server.take_metrics();
    let movers = ((cfg.n_objects as f64 * cfg.move_fraction) as usize).max(1);
    for _ in 0..cfg.cycles {
        let mut events = Vec::with_capacity(movers);
        // The server admits one event per object per batch: an object
        // drawn twice keeps its first move.
        let mut moved = std::collections::HashSet::with_capacity(movers);
        for _ in 0..movers {
            let i = rng.gen_range(0..positions.len());
            if !moved.insert(i) {
                continue;
            }
            let step = 0.02;
            let p = positions[i];
            let to = Point::new(
                (p.x + rng.gen::<f64>() * step - step / 2.0).clamp(0.0, 1.0),
                (p.y + rng.gen::<f64>() * step - step / 2.0).clamp(0.0, 1.0),
            );
            positions[i] = to;
            events.push(cpm_grid::ObjectEvent::Move {
                id: cpm_geom::ObjectId(i as u32),
                to,
            });
        }
        let _ = server
            .process_cycle(&events, &[])
            .expect("well-formed batch");
    }
    let metrics = server.take_metrics();

    let mut t = Table::new(
        "Unified server — mixed workload, work attribution per query class",
        "class",
        "per cycle",
        vec![
            "cells".into(),
            "objects".into(),
            "computations".into(),
            "merges".into(),
        ],
    );
    let cycles = cfg.cycles as f64;
    for kind in QueryKind::ALL {
        let k = metrics.for_kind(kind);
        t.push_row(
            kind.label(),
            vec![
                k.cell_accesses as f64 / cycles,
                k.objects_processed as f64 / cycles,
                (k.computations + k.recomputations) as f64 / cycles,
                k.merge_resolutions as f64 / cycles,
            ],
        );
    }
    t.push_row(
        "total",
        vec![
            metrics.cell_accesses as f64 / cycles,
            metrics.objects_processed as f64 / cycles,
            (metrics.computations + metrics.recomputations) as f64 / cycles,
            metrics.merge_resolutions as f64 / cycles,
        ],
    );

    // The headline comparison: one shared grid vs three dedicated ones.
    let run = crate::server::measure(&crate::server::Config {
        cycles: 6,
        ..cfg.clone()
    });
    t.note(format!(
        "N = {} objects, {}% movers/cycle, {}+{}+{} queries (+ANN/RNN); one ingest pass per cycle",
        cfg.n_objects,
        cfg.move_fraction * 100.0,
        cfg.knn_queries,
        cfg.range_queries,
        cfg.constrained_queries
    ));
    t.note(format!(
        "unified {:.3} ms/cycle vs split-engines {:.3} ms/cycle: {:.2}x speedup \
         (`bench_record server` records the full-scale number)",
        run.lane_num("unified", "ms_quiet"),
        run.lane_num("split", "ms_quiet"),
        run.median("unified_speedup")
    ));
    t
}

/// Future-work extension (Section 7): continuous reverse-NN monitoring
/// via six-region candidates + verification, vs naive re-evaluation.
pub fn rnn(scale: f64) -> Table {
    let params = base_params(scale.min(0.3));
    let input = SimulationInput::generate(&SimParams {
        n_queries: 0,
        ..params
    });
    let n_queries = (params.n_queries / 25).max(4);
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0x4E);
    let query_points: Vec<Point> = (0..n_queries)
        .map(|_| Point::new(rng.gen(), rng.gen()))
        .collect();

    let mut t = Table::new(
        "Section 7 future work — continuous reverse-NN monitoring",
        "method",
        "ms total",
        vec!["ms".into()],
    );

    let mut server = CpmServerBuilder::new(params.grid_dim).build();
    server.populate(input.initial_objects.iter().copied());
    for (i, &q) in query_points.iter().enumerate() {
        let _ = server
            .install_rnn(QueryId(i as u32), q)
            .expect("fresh query id");
    }
    // RNN is composed by the server, which admits one event per object
    // per batch: the generator's same-tick `Disappear` + `Appear` respawn
    // of one id is a jump, i.e. a `Move`.
    let batches: Vec<Vec<ObjectEvent>> = input
        .ticks
        .iter()
        .map(|tick| {
            let mut out: Vec<ObjectEvent> = Vec::with_capacity(tick.object_events.len());
            for &ev in &tick.object_events {
                match (out.last_mut(), ev) {
                    (
                        Some(last @ ObjectEvent::Disappear { .. }),
                        ObjectEvent::Appear { id, pos },
                    ) if last.id() == id => {
                        *last = ObjectEvent::Move { id, to: pos };
                    }
                    _ => out.push(ev),
                }
            }
            out
        })
        .collect();
    let start = Instant::now();
    for batch in &batches {
        server
            .process_cycle(batch, &[])
            .expect("generated batches are well-formed");
    }
    t.push_row("CPM six-region", vec![start.elapsed().as_secs_f64() * 1e3]);

    // Naive: O(N²-flavored) re-evaluation — for each object its global NN
    // distance, then membership per query.
    let mut positions: Vec<Option<Point>> = input
        .initial_objects
        .iter()
        .map(|&(_, p)| Some(p))
        .collect();
    let start = Instant::now();
    let mut sink = 0usize;
    for tick in &input.ticks {
        for ev in &tick.object_events {
            match *ev {
                cpm_grid::ObjectEvent::Move { id, to } => positions[id.index()] = Some(to),
                cpm_grid::ObjectEvent::Appear { id, pos } => {
                    if id.index() >= positions.len() {
                        positions.resize(id.index() + 1, None);
                    }
                    positions[id.index()] = Some(pos);
                }
                cpm_grid::ObjectEvent::Disappear { id } => positions[id.index()] = None,
            }
        }
        let live: Vec<Point> = positions.iter().flatten().copied().collect();
        // Nearest-other-object distance per object (grid-free baseline).
        for q in &query_points {
            for (i, &p) in live.iter().enumerate() {
                let dq = p.dist(*q);
                let dominated = live
                    .iter()
                    .enumerate()
                    .any(|(j, &o)| j != i && p.dist(o) < dq);
                if !dominated {
                    sink += 1;
                }
            }
        }
    }
    t.push_row("re-evaluate", vec![start.elapsed().as_secs_f64() * 1e3]);
    std::hint::black_box(sink);

    t.note(format!(
        "{} RNN queries over N={} network objects",
        n_queries, params.n_objects
    ));
    t.note("candidates via six sector-constrained CPM monitors; verified by circle emptiness");
    t.note("the naive baseline short-circuits domination checks (O(N) amortized per query); the monitoring win grows with n");
    t
}

/// One line of provenance for every ANN query-set update experiment:
/// moving query sets exercise `SpecEvent::Update` end to end.
pub fn ann_moving_sets(scale: f64) -> Table {
    let params = base_params(scale.min(0.3));
    let input = SimulationInput::generate(&SimParams {
        n_queries: 0,
        ..params
    });
    let mut rng = StdRng::seed_from_u64(77);
    let mut pts: Vec<Point> = (0..3).map(|_| Point::new(rng.gen(), rng.gen())).collect();
    let mut monitor = ShardedCpmEngine::new(params.grid_dim, 1);
    monitor.populate(input.initial_objects.iter().copied());
    monitor
        .install(QueryId(0), AnnQuery::new(pts.clone(), AggregateFn::Sum), 4)
        .expect("fresh query id");

    let start = Instant::now();
    for tick in &input.ticks {
        for p in pts.iter_mut() {
            *p = Point::new(
                (p.x + rng.gen_range(-0.02..0.02)).clamp(0.0, 0.999),
                (p.y + rng.gen_range(-0.02..0.02)).clamp(0.0, 0.999),
            );
        }
        monitor.process_cycle(
            &tick.object_events,
            &[SpecEvent::Update {
                id: QueryId(0),
                spec: AnnQuery::new(pts.clone(), AggregateFn::Sum),
            }],
        );
    }
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let mut t = Table::new(
        "ANN with a moving query set (sum)",
        "metric",
        "value",
        vec!["value".into()],
    );
    t.push_row("ms total", vec![ms]);
    t.push_row(
        "cell accesses",
        vec![monitor.metrics().cell_accesses as f64],
    );
    t
}
