//! The paper's evaluation as one recorded, gated [`BenchRecord`]: the
//! experiments of Section 6 (Figures 6.1–6.6b, the footnote-6 space
//! comparison), the Section 4.1 model validation, the skew study and the
//! Section 5 / 7 extension studies are the entries of one table,
//! [`SWEEPS`], run by one loop, [`measure`].
//!
//! Every point generates one [`SimulationInput`] and replays its ticks
//! into the sweep's contenders as rotated [`Paired`] lanes. A row is one
//! lane of one point: its time (quiet-tenth ms per cycle, and the median
//! per-cycle CPM / lane ratio with its MAD) and, from the monitor's own
//! counters, what does not depend on the host — cell accesses and
//! objects processed per query per timestamp, NN computations, result
//! changes, space in the paper's memory units and at its 4 bytes per
//! unit. The shape rows of [`crate::gates::GATES`] read the summary, in
//! counts wherever a count exists.
//!
//! `scale ∈ (0, 1]` multiplies `N`, `n` and the timestamps, and the grid
//! by `√scale` per axis so cells keep Table 6.1's occupancy
//! ([`SimParams::scaled`]); `--paper` = 1.0 is Table 6.1 itself.

use cpm_core::{AggregateFn, AnnQuery, ConstrainedQuery, CpmServerBuilder, PointQuery, SpecEvent};
use cpm_gen::SpeedClass;
use cpm_geom::{Point, QueryId, Rect};
use cpm_grid::QueryEvent;
use cpm_sim::{brute_rnn, AlgoKind, SimParams, SimulationInput, WorkloadKind};

use crate::monitor::{cpm, reevaluate, reevaluate_by, Counters, Monitor};
use crate::paired::{Lane, Paired, Stat, REPS};
use crate::record::{BenchRecord, Fields, Value};

/// Who runs a sweep's points.
#[derive(Debug, Clone, Copy)]
pub enum Contender {
    /// One of the paper's three k-NN monitors over the generated queries.
    Algo(AlgoKind),
    /// A study's lane: its name, and its monitor for axis position `i` —
    /// the generated query positions are the anchors of its queries.
    Study(
        &'static str,
        fn(usize, &SimulationInput) -> Box<dyn Monitor>,
    ),
}

impl Contender {
    /// The lane's name: the `lane` column of its rows.
    pub fn name(&self) -> &'static str {
        match self {
            Contender::Algo(algo) => algo.label(),
            Contender::Study(name, _) => name,
        }
    }

    fn build(&self, i: usize, input: &SimulationInput) -> Box<dyn Monitor> {
        let queries = input.initial_queries.iter();
        match *self {
            Contender::Algo(AlgoKind::Cpm) => cpm(
                input,
                queries.map(|&(id, pos, k)| (id, PointQuery(pos), k)),
                |tick| tick.query_events.iter().map(|&ev| ev.into()).collect(),
            ),
            Contender::Algo(algo) => {
                let mut monitor = algo.build(input.params.grid_dim);
                monitor.populate(&input.initial_objects);
                for &(id, pos, k) in queries {
                    monitor.install_query(id, pos, k);
                }
                Box::new(monitor)
            }
            Contender::Study(_, build) => build(i, input),
        }
    }
}

/// One figure: an axis of [`SimParams`] and who runs its points.
#[derive(Debug, Clone, Copy)]
pub struct Sweep {
    /// The `figure` column of its rows, and what `experiments` accepts.
    pub name: &'static str,
    /// What the figure shows.
    pub title: &'static str,
    /// The axis at `scale`: one `(label, parameters)` per point.
    pub points: fn(f64) -> Vec<(String, SimParams)>,
    /// The lanes of every point, CPM first.
    pub contenders: &'static [Contender],
    /// What the paper says the figure shows — for a study the paper has
    /// no numbers for, what its queries are.
    pub claim: &'static str,
}

/// One point per value of `axis`, each `set` on a copy of `base`.
fn vary<T: Copy>(
    base: SimParams,
    axis: &[T],
    set: impl Fn(&mut SimParams, T) -> String,
) -> Vec<(String, SimParams)> {
    let point = |&value| {
        let mut params = base;
        (set(&mut params, value), params)
    };
    axis.iter().map(point).collect()
}

/// Grid granularity as a multiple of the scaled default (the paper's
/// 32² … 1024² around 128²).
fn granularity(params: &mut SimParams, times: f64) -> String {
    params.grid_dim = ((f64::from(params.grid_dim) * times).round() as u32).max(2);
    format!("{}^2", params.grid_dim)
}

/// `N` as a multiple of the scaled default (10K … 200K around 100K).
fn population(params: &mut SimParams, times: f64) -> String {
    params.n_objects = ((params.n_objects as f64 * times) as usize).max(100);
    params.n_objects.to_string()
}

/// One of the two agilities of Table 6.1, in percent.
fn agility(of: fn(&mut SimParams) -> &mut f64) -> impl Fn(&mut SimParams, u32) -> String {
    move |params, percent| {
        *of(params) = f64::from(percent) / 100.0;
        format!("{percent}%")
    }
}

const GRANULARITIES: [f64; 6] = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0];
const POPULATIONS: [f64; 5] = [0.1, 0.5, 1.0, 1.5, 2.0];
const AGILITIES: [u32; 5] = [10, 20, 30, 40, 50];

/// A study's one point (per label): uniform objects — they only move,
/// so every batch is one the server admits and a position mirror is a
/// plain vector — and `1 / fewer` of the queries, which stay put: their
/// positions are the anchors of the study's own queries.
fn study(scale: f64, fewer: usize, labels: &[&str]) -> Vec<(String, SimParams)> {
    let params = SimParams::scaled(scale);
    let base = SimParams {
        n_queries: (params.n_queries / fewer).max(4),
        k: params.k.min(8),
        f_qry: 0.0,
        workload: WorkloadKind::Uniform,
        ..params
    };
    vary(base, labels, |_, label| label.to_string())
}

const PAPER: &[Contender] = &[
    Contender::Algo(AlgoKind::Cpm),
    Contender::Algo(AlgoKind::Ypk),
    Contender::Algo(AlgoKind::Sea),
];

/// Every figure, in the order [`measure`] runs them.
pub const SWEEPS: &[Sweep] = &[
    Sweep {
        name: "fig6_1",
        title: "Figure 6.1 — CPU time vs grid granularity",
        points: |s| vary(SimParams::scaled(s), &GRANULARITIES, granularity),
        contenders: PAPER,
        claim: "CPM lowest at every granularity; 128² a good trade-off for all methods",
    },
    Sweep {
        name: "fig6_2a",
        title: "Figure 6.2a — CPU time vs number of objects",
        points: |s| vary(SimParams::scaled(s), &POPULATIONS, population),
        contenders: PAPER,
        claim: "all linear in N; CPM with by far the smallest slope",
    },
    Sweep {
        name: "fig6_2b",
        title: "Figure 6.2b — CPU time vs number of queries",
        points: |s| {
            vary(
                SimParams::scaled(s),
                &[0.2, 0.4, 1.0, 1.4, 2.0],
                |p, times| {
                    p.n_queries = ((p.n_queries as f64 * times) as usize).max(1);
                    p.n_queries.to_string()
                },
            )
        },
        contenders: PAPER,
        claim: "all linear in n; CPM with the smallest slope",
    },
    Sweep {
        name: "fig6_3",
        title: "Figure 6.3 — CPU time (a) and cell accesses (b) vs k",
        points: |s| {
            vary(SimParams::scaled(s), &[1, 4, 16, 64, 256], |p, k| {
                p.k = k;
                k.to_string()
            })
        },
        contenders: PAPER,
        claim: "CPM fastest at every k; under 1 cell access per query per timestamp at small k",
    },
    Sweep {
        name: "fig6_4a",
        title: "Figure 6.4a — CPU time vs object speed",
        points: |s| {
            vary(SimParams::scaled(s), &SpeedClass::ALL, |p, speed| {
                p.object_speed = speed;
                speed.label().to_string()
            })
        },
        contenders: PAPER,
        claim: "CPM practically flat; YPK-CNN and SEA-CNN degrade with speed",
    },
    Sweep {
        name: "fig6_4b",
        title: "Figure 6.4b — CPU time vs query speed",
        points: |s| {
            vary(SimParams::scaled(s), &SpeedClass::ALL, |p, speed| {
                p.query_speed = speed;
                speed.label().to_string()
            })
        },
        contenders: PAPER,
        claim: "CPM and YPK-CNN flat (a moved query is computed from scratch); SEA-CNN grows",
    },
    Sweep {
        name: "fig6_5a",
        title: "Figure 6.5a — CPU time vs object agility",
        points: |s| vary(SimParams::scaled(s), &AGILITIES, agility(|p| &mut p.f_obj)),
        contenders: PAPER,
        claim: "CPM linear in f_obj (index update cost) and lowest throughout",
    },
    Sweep {
        name: "fig6_5b",
        title: "Figure 6.5b — CPU time vs query agility",
        points: |s| vary(SimParams::scaled(s), &AGILITIES, agility(|p| &mut p.f_qry)),
        contenders: PAPER,
        claim: "CPM grows with f_qry (moving queries recompute); YPK-CNN insensitive",
    },
    Sweep {
        name: "fig6_6a",
        title: "Figure 6.6a — constantly moving queries (NN computation module)",
        points: |s| {
            let moving = SimParams {
                f_qry: 1.0,
                ..SimParams::scaled(s)
            };
            vary(moving, &POPULATIONS, population)
        },
        // Every result is recomputed every cycle: SEA-CNN omitted, as in
        // the paper.
        contenders: &[
            Contender::Algo(AlgoKind::Cpm),
            Contender::Algo(AlgoKind::Ypk),
        ],
        claim: "CPM below YPK-CNN with a growing gap in N",
    },
    Sweep {
        name: "fig6_6b",
        title: "Figure 6.6b — static queries (pure maintenance cost)",
        points: |s| {
            let still = SimParams {
                f_qry: 0.0,
                ..SimParams::scaled(s)
            };
            vary(still, &POPULATIONS, population)
        },
        contenders: PAPER,
        claim: "YPK-CNN ≈ SEA-CNN; CPM far below both",
    },
    Sweep {
        name: "space",
        title: "Footnote 6 — space overhead at the default parameters",
        points: |s| vary(SimParams::scaled(s), &["default"], |_, x| x.to_string()),
        contenders: PAPER,
        claim: "YPK-CNN < SEA-CNN < CPM (2.854 / 3.074 / 3.314 MB)",
    },
    Sweep {
        name: "analysis",
        title: "Section 4.1 — analytical model vs measurement (uniform data)",
        points: |s| {
            let uniform = SimParams {
                workload: WorkloadKind::Uniform,
                ..SimParams::scaled(s)
            };
            vary(uniform, &GRANULARITIES[..4], granularity)
        },
        contenders: &[Contender::Algo(AlgoKind::Cpm)],
        claim: "Figure 4.1: δ↓ ⇒ C_inf↑ and O_inf→k; δ↑ ⇒ few cells, many objects",
    },
    Sweep {
        name: "skew",
        title: "Skewed data — CPU time vs grid granularity (5 Gaussian hotspots)",
        points: |s| {
            let skewed = SimParams {
                workload: WorkloadKind::Skewed { hotspots: 5 },
                ..SimParams::scaled(s)
            };
            vary(skewed, &GRANULARITIES[..5], granularity)
        },
        contenders: PAPER,
        claim: "not in the paper, which points to hierarchical grids here: how far a \
                regular grid carries each method",
    },
    Sweep {
        name: "ann",
        title: "Section 5 — aggregate-NN monitoring vs re-evaluation",
        points: |s| study(s.min(0.5), 10, &["sum", "min", "max"]),
        contenders: &[
            Contender::Study("CPM-ANN", |f, input| {
                cpm(input, ann_queries(f, input), |_| Vec::new())
            }),
            Contender::Study("re-evaluate", |f, input| {
                reevaluate(input, ann_queries(f, input))
            }),
        ],
        claim: "no paper numbers: per anchor a set of three points within 0.05 of it",
    },
    Sweep {
        name: "ann_moving_sets",
        title: "Section 5 — aggregate-NN (sum) over a moving query set",
        // Three generated queries, each moving every timestamp, are the
        // set's points.
        points: |s| {
            let mut points = study(s.min(0.3), 1, &["3 points"]);
            (points[0].1.n_queries, points[0].1.f_qry) = (3, 1.0);
            points
        },
        contenders: &[Contender::Study("CPM-ANN", |_, input| {
            let mut set: Vec<Point> = input.initial_queries.iter().map(|q| q.1).collect();
            let (id, _, k) = input.initial_queries[0];
            let query = AnnQuery::new(set.clone(), AggregateFn::Sum);
            cpm(input, [(id, query, k)], move |tick| {
                for ev in &tick.query_events {
                    if let QueryEvent::Move { id, to } = *ev {
                        set[id.index()] = to;
                    }
                }
                let spec = AnnQuery::new(set.clone(), AggregateFn::Sum).into();
                vec![SpecEvent::Update { id, spec }]
            })
        })],
        claim: "no paper numbers: `SpecEvent::Update` end to end, every timestamp",
    },
    Sweep {
        name: "constrained",
        title: "Section 5 — constrained-NN monitoring vs re-evaluation",
        points: |s| study(s.min(0.5), 10, &["squares"]),
        contenders: &[
            Contender::Study("CPM-constrained", |_, input| {
                cpm(input, constrained_queries(input), |_| Vec::new())
            }),
            Contender::Study("re-evaluate", |_, input| {
                reevaluate(input, constrained_queries(input))
            }),
        ],
        claim: "no paper numbers: per anchor the square of side 0.25 around it",
    },
    Sweep {
        name: "rnn",
        title: "Section 7 future work — continuous reverse-NN monitoring",
        points: |s| study(s.min(0.3), 25, &["points"]),
        contenders: &[
            Contender::Study("CPM six-region", |_, input| {
                let mut server = CpmServerBuilder::new(input.params.grid_dim).build();
                server
                    .populate(input.initial_objects.iter().copied())
                    .expect("a valid initial population");
                for &(id, pos, _) in &input.initial_queries {
                    let _ = server
                        .install_rnn(id, pos)
                        .expect("generated ids are fresh");
                }
                Box::new(server)
            }),
            // Domination checks short-circuit: O(N) amortized per query,
            // so the monitoring win grows with n.
            Contender::Study("re-evaluate", |_, input| {
                let queries: Vec<Point> = input.initial_queries.iter().map(|q| q.1).collect();
                reevaluate_by(input, move |objects| {
                    queries.iter().map(|&q| brute_rnn(objects, q).len()).sum()
                })
            }),
        ],
        claim: "no paper numbers: six sector-constrained CPM monitors for candidates, \
                verified by circle emptiness",
    },
];

/// Per anchor the set {anchor, anchor ± 0.05 on a diagonal}, under
/// `sum`, `min` or `max` by axis position.
fn ann_queries(f: usize, input: &SimulationInput) -> Vec<(QueryId, AnnQuery, usize)> {
    let f = [AggregateFn::Sum, AggregateFn::Min, AggregateFn::Max][f];
    let query = |&(id, a, k): &(QueryId, Point, usize)| {
        let near = |d: f64| Point::new((a.x + d).clamp(0.0, 0.999), (a.y - d).clamp(0.0, 0.999));
        (id, AnnQuery::new(vec![a, near(0.05), near(-0.05)], f), k)
    };
    input.initial_queries.iter().map(query).collect()
}

/// Per anchor the square of side 0.25 around it, cut to the workspace.
fn constrained_queries(input: &SimulationInput) -> Vec<(QueryId, ConstrainedQuery, usize)> {
    let query = |&(id, q, k): &(QueryId, Point, usize)| {
        let lo = Point::new((q.x - 0.125).max(0.0), (q.y - 0.125).max(0.0));
        let hi = Point::new((q.x + 0.125).min(1.0), (q.y + 0.125).min(1.0));
        (id, ConstrainedQuery::new(q, Rect::new(lo, hi)), k)
    };
    input.initial_queries.iter().map(query).collect()
}

/// Run every sweep — or `only` the one of that name — at `scale`: one
/// row per lane per point. A point several figures share (the default
/// one above all — `space` is nothing else) is run once.
///
/// # Panics
/// If a lane's counters or per-cycle result-change counts differ between
/// two repetitions of a point: counts are exact.
pub fn measure(scale: f64, only: Option<&str>) -> BenchRecord {
    let default = SimParams::scaled(scale);
    let config = crate::fields! {
        "scale" => scale,
        "figures" => only.unwrap_or("all"),
        "n_objects" => default.n_objects,
        "n_queries" => default.n_queries,
        "grid_dim" => default.grid_dim,
        "timestamps" => default.timestamps,
    };
    let mut record = BenchRecord::new("figures", config);
    let mut ran: Vec<(SimParams, Vec<&str>, Vec<Fields>)> = Vec::new();
    for sweep in SWEEPS {
        if only.is_some_and(|name| name != sweep.name) {
            continue;
        }
        let lanes: Vec<&str> = sweep.contenders.iter().map(Contender::name).collect();
        // A study's monitors depend on the axis position too.
        let is_algo = |c: &Contender| matches!(c, Contender::Algo(_));
        let shareable = sweep.contenders.iter().all(is_algo);
        for (i, (x, params)) in (sweep.points)(scale).into_iter().enumerate() {
            let same = |(p, l, _): &&(SimParams, Vec<&str>, Vec<Fields>)| {
                shareable && *p == params && *l == lanes
            };
            let rows = match ran.iter().find(same) {
                Some((_, _, rows)) => rows.clone(),
                None => {
                    let rows = point(sweep.contenders, i, &params);
                    ran.push((params, lanes.clone(), rows.clone()));
                    rows
                }
            };
            for row in rows {
                let mut labelled = crate::fields! { "figure" => sweep.name, "x" => x.as_str() };
                labelled.extend(row);
                record.rows.push(labelled);
            }
        }
    }
    summarize(scale, &mut record);
    record
}

/// Run one point: per lane, the columns of its row after `figure`, `x`.
fn point(contenders: &[Contender], i: usize, params: &SimParams) -> Vec<Fields> {
    let input = SimulationInput::generate(params);
    let mut paired = Paired::default();
    let mut counts: Option<Vec<(Vec<usize>, Counters)>> = None;
    for _ in 0..REPS {
        let mut monitors: Vec<_> = contenders.iter().map(|c| c.build(i, &input)).collect();
        for monitor in &mut monitors {
            // Installation is not a cycle: its work is not counted.
            monitor.counters();
        }
        let mut changed = vec![Vec::new(); monitors.len()];
        let mut steps: Vec<_> = monitors
            .iter_mut()
            .zip(&mut changed)
            .map(|(monitor, changed)| {
                |t: usize| {
                    let (spent, n) = monitor.cycle(&input.ticks[t]);
                    changed.push(n);
                    (spent, n)
                }
            })
            .collect();
        let mut lanes: Vec<Lane<'_, usize>> = contenders
            .iter()
            .zip(&mut steps)
            .map(|(c, step)| (c.name(), step as _))
            .collect();
        // No equality check between lanes: the three methods break
        // distance ties differently, so their change counts may differ.
        paired.repetition(0, input.ticks.len(), false, &mut lanes);
        drop(steps);
        let now: Vec<_> = changed
            .into_iter()
            .zip(&mut monitors)
            .map(|(changed, monitor)| (changed, monitor.counters()))
            .collect();
        match &counts {
            Some(first) => assert_eq!(*first, now, "counts differ between repetitions"),
            None => counts = Some(now),
        }
    }

    let per_query_ts = (params.n_queries * input.ticks.len()).max(1) as f64;
    let lane = |(c, (changed, (metrics, space, model))): (&Contender, (Vec<usize>, Counters))| {
        let quiet = paired.quiet_ms(c.name());
        let mut row = crate::fields! {
            "lane" => c.name(),
            "N" => params.n_objects,
            "n" => params.n_queries,
            "k" => params.k,
            "dim" => params.grid_dim,
            "ms_quiet" => quiet.median,
            "ms_quiet_mad" => quiet.mad,
            "cells" => metrics.cell_accesses as f64 / per_query_ts,
            "objects" => metrics.objects_processed as f64 / per_query_ts,
            "computations" => metrics.computations + metrics.recomputations,
            "changed" => changed.iter().sum::<usize>(),
            "space_units" => space,
            "space_bytes" => space * 4,
        };
        if c.name() != contenders[0].name() {
            let ratio = paired.ratio(contenders[0].name(), c.name());
            row.extend(crate::fields! { "cpm_over" => ratio.median, "cpm_over_mad" => ratio.mad });
        }
        // The Section 4.1 quantities, for the k-NN engine they model.
        if let (Contender::Algo(_), Some([best_dist, c_inf, o_inf, c_sh])) = (c, model) {
            let predicted = params.cost_model();
            row.extend(crate::fields! {
                "best_dist" => best_dist, "best_dist_model" => predicted.best_dist(),
                "c_inf" => c_inf, "c_inf_model" => predicted.c_inf(),
                "o_inf" => o_inf, "o_inf_model" => predicted.o_inf(),
                "c_sh" => c_sh, "c_sh_model" => predicted.c_sh(),
            });
        }
        row
    };
    let counts = counts.expect("REPS > 0");
    contenders.iter().zip(counts).map(lane).collect()
}

/// Numeric column `key` of `row`.
pub fn num(row: &Fields, key: &str) -> Option<f64> {
    row.iter().find_map(|(k, v)| match v {
        Value::Num(x) if k == key => Some(*x),
        _ => None,
    })
}

/// The points of the figures whose name satisfies `is`: per point its
/// rows, CPM's first.
pub fn points_of<'a>(
    record: &'a BenchRecord,
    is: impl Fn(&str) -> bool + 'a,
) -> impl Iterator<Item = &'a [Fields]> {
    let points = record.rows.chunk_by(|a, b| a[..2] == b[..2]);
    points.filter(move |rows| matches!(&rows[0][0].1, Value::Str(figure) if is(figure)))
}

/// The summary the shape gates read, from the rows; a metric whose
/// sweep did not run is absent.
fn summarize(scale: f64, record: &mut BenchRecord) {
    let mut summary: Vec<(String, Stat)> = Vec::new();
    let mut put = |metric: String, stat: Option<Stat>| {
        summary.extend(stat.map(|stat| (metric, stat)));
    };
    // Counts are exact: the worst of them is, too.
    let max = |values: Vec<f64>| values.into_iter().reduce(f64::max).map(Stat::exact);
    let of = |row: &Fields, key: &str| num(row, key).expect("every lane row has the column");

    // CPM's count over the better baseline's, worst Section 6 point.
    for count in ["cells", "objects"] {
        let over_best = |rows: &[Fields]| {
            let best = rows[1..].iter().map(|row| of(row, count)).reduce(f64::min);
            of(&rows[0], count) / best.expect("a baseline ran")
        };
        let worst = max(points_of(record, |f| f.starts_with("fig6_"))
            .map(over_best)
            .collect());
        put(format!("cpm_{count}_over_best_baseline"), worst);
    }

    // Figure 6.1: axis steps between the fastest CPM granularity and
    // the Section 4.1 optimum over the same doubling axis.
    let fig6_1: Vec<&Fields> = points_of(record, |f| f == "fig6_1")
        .map(|rows| &rows[0])
        .collect();
    if let (Some(first), Some(last)) = (fig6_1.first(), fig6_1.last()) {
        let fastest = (0..fig6_1.len())
            .min_by(|&a, &b| of(fig6_1[a], "ms_quiet").total_cmp(&of(fig6_1[b], "ms_quiet")))
            .expect("rows");
        let (lo, hi) = (of(first, "dim") as u32, of(last, "dim") as u32);
        let optimum = SimParams::scaled(scale).cost_model().optimal_dim(lo, hi);
        let steps = (fastest as f64 - f64::from(optimum / lo).log2()).abs();
        put("fig6_1_optimum_steps".into(), Some(Stat::exact(steps)));
    }

    // Section 4.1: measured over predicted, or its inverse if larger,
    // worst granularity.
    for quantity in ["c_inf", "o_inf", "c_sh"] {
        let factor = |rows: &[Fields]| {
            let ratio = of(&rows[0], quantity) / of(&rows[0], &format!("{quantity}_model"));
            ratio.max(1.0 / ratio)
        };
        let worst = max(points_of(record, |f| f == "analysis").map(factor).collect());
        put(format!("{quantity}_model_factor"), worst);
    }

    // The default point: footnote 6's order, and per-cycle time ratios.
    if let Some([cpm, ypk, sea]) = points_of(record, |f| f == "space").next() {
        let units = |numer, denom| Stat::exact(of(numer, "space_units") / of(denom, "space_units"));
        put("space_ypk_over_sea".into(), Some(units(ypk, sea)));
        put("space_sea_over_cpm".into(), Some(units(sea, cpm)));
        for (metric, row) in [("default_cpm_over_ypk", ypk), ("default_cpm_over_sea", sea)] {
            let (median, mad) = (of(row, "cpm_over"), of(row, "cpm_over_mad"));
            put(metric.into(), Some(Stat { median, mad }));
        }
    }
    for (metric, stat) in summary {
        record.put(&metric, stat);
    }
}
