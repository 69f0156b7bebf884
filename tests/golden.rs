//! The golden table: every observable output and every work count of
//! five seeded streams, pinned cycle by cycle in `tests/golden.tsv`.
//!
//! The streams are the four `BENCHMARK.json` workloads scaled down to
//! run in a debug `cargo test` at the same objects per cell, plus a
//! mixed-kind stream whose between-cycles direct calls reach every way a
//! query changes:
//! - `paper_default`: Table 6.1's point, k = 16, moving queries;
//! - `delta_churn`: one-cell moves under static k = 64 queries;
//! - `hotspot_drift`: a drifting, breathing hotspot under the automatic
//!   re-grid policy (at least one re-grid is asserted);
//! - `cluster_w2`: the `paper_default` objects under static queries
//!   through an in-process coordinator over two workers, with one
//!   between-cycles install;
//! - `mixed`: k-NN, range, aggregate-NN, constrained and reverse-NN
//!   queries, with `install_spec`, `update_spec`, `terminate`,
//!   `install_rnn` and `update_rnn` called between cycles.
//!
//! Each runs at seeds 2005 and 7. Per cycle the table holds the CRC-32
//! of the encoded `CycleDeltas`, the changed count and the `Metrics`
//! work counters, flat and — for the mixed stream — per kind. The
//! coordinator keeps no work counters, so the cluster rows hold the
//! first two only.
//!
//! A result column changes only when results change on purpose, a work
//! column only when a change claims that count. Regenerate the table
//! with the one ignored test, never by hand:
//!
//! ```sh
//! cargo test --test golden -- --ignored regenerate
//! ```

use std::fmt::Write as _;
use std::num::NonZeroUsize;

use cpm_suite::cluster::{ClusterConfig, ClusterCoordinator};
use cpm_suite::core::{
    CpmServer, CpmServerBuilder, CycleDeltas, PointQuery, RegridPolicy, SpecEvent,
};
use cpm_suite::gen::{
    DriftConfig, DriftingHotspotWorkload, SpeedClass, TickEvents, UniformWorkload, WorkloadConfig,
};
use cpm_suite::geom::{ObjectId, Point, QueryId};
use cpm_suite::grid::{KindMetrics, Metrics, ObjectEvent, QueryKind};
use cpm_suite::sim::{Anchors, OpStream};
use cpm_suite::wire::{crc32, Encode, Writer};

const TABLE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden.tsv");

const SEEDS: [u64; 2] = [2005, 7];

/// Generated ticks per stream, after the population and install cycles.
const TICKS: usize = 16;

const COLUMNS: [&str; 13] = [
    "stream",
    "seed",
    "cycle",
    "scope",
    "crc",
    "changed",
    "cells",
    "objects",
    "pushes",
    "pops",
    "computations",
    "recomputations",
    "merges",
];

/// Where a stream's rows go: one `all` row per cycle, plus one row per
/// kind when several kinds run.
struct Table {
    text: String,
}

impl Table {
    fn new() -> Self {
        let mut text = String::from(
            "# The golden table of tests/golden.rs. Regenerate with\n\
             #   cargo test --test golden -- --ignored regenerate\n\
             # and never edit by hand.\n",
        );
        text += &COLUMNS.join("\t");
        text.push('\n');
        Table { text }
    }

    fn row(&mut self, key: (&str, u64, usize), scope: &str, head: [String; 2], work: [String; 7]) {
        let (stream, seed, cycle) = key;
        let fields = head.into_iter().chain(work).collect::<Vec<_>>().join("\t");
        writeln!(self.text, "{stream}\t{seed}\t{cycle}\t{scope}\t{fields}").unwrap();
    }

    /// One cycle's rows: `work` is `None` where no counters are kept,
    /// and `by_kind` adds a row per kind.
    fn cycle(
        &mut self,
        key: (&str, u64, usize),
        batch: &CycleDeltas,
        work: Option<(&Metrics, bool)>,
    ) {
        let mut bytes = Writer::new();
        batch.encode(&mut bytes);
        let head = [
            format!("{:08x}", crc32(bytes.as_slice())),
            batch.changed.len().to_string(),
        ];
        let Some((m, by_kind)) = work else {
            return self.row(key, "all", head, std::array::from_fn(|_| "-".into()));
        };
        let flat = KindMetrics {
            cell_accesses: m.cell_accesses,
            objects_processed: m.objects_processed,
            heap_pushes: m.heap_pushes,
            heap_pops: m.heap_pops,
            computations: m.computations,
            recomputations: m.recomputations,
            merge_resolutions: m.merge_resolutions,
        };
        self.row(key, "all", head, counts(&flat));
        for kind in QueryKind::ALL.into_iter().filter(|_| by_kind) {
            let none = || "-".to_string();
            self.row(
                key,
                kind.label(),
                [none(), none()],
                counts(m.for_kind(kind)),
            );
        }
    }
}

fn counts(m: &KindMetrics) -> [String; 7] {
    [
        m.cell_accesses,
        m.objects_processed,
        m.heap_pushes,
        m.heap_pops,
        m.computations,
        m.recomputations,
        m.merge_resolutions,
    ]
    .map(|c| c.to_string())
}

fn config(seed: u64, n_objects: usize, n_queries: usize, k: usize) -> WorkloadConfig {
    WorkloadConfig {
        n_objects,
        n_queries,
        k,
        object_speed: SpeedClass::Medium,
        query_speed: SpeedClass::Medium,
        f_obj: 0.5,
        f_qry: 0.3,
        seed,
    }
}

/// A generator's population, installs and [`TICKS`] ticks as a stream.
fn stream(
    dim: u32,
    objects: Vec<(ObjectId, Point)>,
    queries: Vec<(QueryId, Point, usize)>,
    mut tick: impl FnMut() -> TickEvents,
) -> OpStream {
    let knn = |id, pos: Point, k| SpecEvent::Install {
        id,
        spec: PointQuery(pos).into(),
        k,
    };
    let installs = queries
        .into_iter()
        .map(|(id, p, k)| knn(id, p, k))
        .collect();
    let mut ops = OpStream::new("golden", dim, objects, installs);
    for _ in 0..TICKS {
        let t = tick();
        let events = t.query_events.into_iter().map(SpecEvent::from).collect();
        ops.push(t.object_events, events);
    }
    ops
}

fn uniform(dim: u32, config: WorkloadConfig) -> OpStream {
    let mut w = UniformWorkload::new(config);
    let (objects, queries) = (w.initial_objects().collect(), w.initial_queries().collect());
    stream(dim, objects, queries, || w.tick())
}

/// Replay `ops` into a fresh server, `between(cycle, server)` running
/// before each cycle's reverse-NN placements and events; the mixed
/// stream's rows also break the work down by kind. Returns the re-grids
/// the run made.
fn run_single(
    table: &mut Table,
    name: &str,
    seed: u64,
    ops: &OpStream,
    regrid: RegridPolicy,
    mut between: impl FnMut(usize, &mut CpmServer),
) -> u64 {
    let mut s = CpmServerBuilder::new(ops.grid_dim)
        .threads(NonZeroUsize::new(2).unwrap())
        .deltas(true)
        .regrid(regrid)
        .build();
    let mut batch = CycleDeltas::default();
    let mut regrids = 0;
    for (cycle, c) in ops.cycles.iter().enumerate() {
        between(cycle, &mut s);
        for &(id, pos) in &c.rnn_moves {
            let placed = match s.kind_of(id) {
                Some(_) => s.update_rnn(id, pos),
                None => s.install_rnn(id, pos),
            };
            placed.expect("a valid reverse-NN placement");
        }
        s.process_cycle_with_deltas_into(&c.object_events, &c.spec_events, &mut batch)
            .expect("a valid batch");
        let m = s.take_metrics();
        regrids += m.regrids;
        table.cycle((name, seed, cycle), &batch, Some((&m, name == "mixed")));
    }
    s.check_invariants();
    regrids
}

/// The coordinator's tile overlap, in cells. The benchmark's 8 on 128²
/// is the share of the workspace 1 is on 16², but a k = 16 result spans
/// the same cells at either scale, and at 1 a query's influence leaves
/// its coverage (`CoverageExceeded`).
const OVERLAP: u32 = 2;

fn cluster_w2(table: &mut Table, seed: u64) {
    let mut cfg = config(seed, 1_600, 80, 16);
    cfg.f_qry = 0.0;
    let ops = uniform(16, cfg);
    let config = ClusterConfig::new(ops.grid_dim, 2).overlap(OVERLAP);
    let (mut coord, handles) = ClusterCoordinator::spawn_in_process(config).unwrap();
    for (cycle, c) in ops.cycles.iter().enumerate() {
        if cycle == 4 {
            // One between-cycles install, inside the first worker's strip.
            let spec = PointQuery(Point::new(0.2, 0.5)).into();
            let id = QueryId(500);
            coord
                .install(&[SpecEvent::Install { id, spec, k: 4 }])
                .unwrap();
        }
        let batch = coord
            .process_cycle(&c.object_events, &c.spec_events)
            .unwrap();
        table.cycle(("cluster_w2", seed, cycle), &batch, None);
    }
    coord.shutdown().unwrap();
    for h in handles {
        h.join().unwrap().unwrap();
    }
}

/// The mixed-kind stream, with one of each direct call between cycles.
/// Two piles of co-located objects sit where a batch-installed k-NN
/// query and the directly managed one are placed, so their results are
/// decided by id; the first one's rides the install cycle's deltas.
fn mixed(table: &mut Table, seed: u64) {
    let mut ops = OpStream::mixed(seed, 1_600, TICKS + 2, Anchors::Free);
    let piles = [Point::new(0.31, 0.27), Point::new(0.72, 0.64)];
    let pile = |(i, at): (u32, Point)| {
        (0..6).map(move |j| ObjectEvent::Appear {
            id: ObjectId(100_000 + 10 * i + j),
            pos: at,
        })
    };
    ops.cycles[0]
        .object_events
        .extend((0..).zip(piles).flat_map(pile));
    ops.cycles[1].spec_events.push(SpecEvent::Install {
        id: QueryId(900),
        spec: PointQuery(piles[0]).into(),
        k: 3,
    });
    let (knn, rnn) = (QueryId(800), QueryId(801));
    run_single(
        table,
        "mixed",
        seed,
        &ops,
        RegridPolicy::Manual,
        |cycle, s| match cycle {
            4 => {
                s.install_spec(knn, PointQuery(piles[0]), 3).unwrap();
                s.install_rnn(rnn, Point::new(0.6, 0.4)).unwrap();
            }
            7 => {
                s.update_spec(knn, PointQuery(piles[1])).unwrap();
                s.update_rnn(rnn, Point::new(0.2, 0.8)).unwrap();
            }
            10 => {
                s.terminate(knn).unwrap();
                s.terminate(rnn).unwrap();
            }
            _ => {}
        },
    );
}

fn generate() -> String {
    let mut table = Table::new();
    for seed in SEEDS {
        // 100K objects and 5K queries on 128² (~6 a cell), scaled to
        // 1,600 and 80 on 16².
        let ops = uniform(16, config(seed, 1_600, 80, 16));
        run_single(
            &mut table,
            "paper_default",
            seed,
            &ops,
            RegridPolicy::Manual,
            |_, _| {},
        );

        // 2K static k = 64 queries among 100K slow objects, scaled.
        let mut cfg = config(seed, 1_600, 32, 64);
        (cfg.object_speed, cfg.query_speed, cfg.f_qry) = (SpeedClass::Slow, SpeedClass::Slow, 0.0);
        let ops = uniform(16, cfg);
        run_single(
            &mut table,
            "delta_churn",
            seed,
            &ops,
            RegridPolicy::Manual,
            |_, _| {},
        );

        // 30K objects and 2K queries on 64² (~7 a cell), scaled to 1,875
        // and 125 on 16²; the population breathes once over the run.
        let drift = DriftConfig {
            sigma: 0.04,
            peak_factor: 3.0,
            ramp_ticks: TICKS / 2,
            ..DriftConfig::default()
        };
        let mut w = DriftingHotspotWorkload::new(config(seed, 1_875, 125, 16), drift);
        let (objects, queries) = (w.initial_objects().collect(), w.initial_queries().collect());
        let ops = stream(16, objects, queries, || w.tick());
        let regrids = run_single(
            &mut table,
            "hotspot_drift",
            seed,
            &ops,
            RegridPolicy::auto(),
            |_, _| {},
        );
        assert!(regrids > 0, "hotspot_drift at seed {seed} never re-grids");

        cluster_w2(&mut table, seed);
        mixed(&mut table, seed);
    }
    table.text
}

/// The first difference between two tables, named by stream, seed,
/// cycle, scope and column.
fn first_difference(expected: &str, actual: &str) -> Option<String> {
    let (mut want, mut got) = (expected.lines(), actual.lines());
    loop {
        match (want.next(), got.next()) {
            (None, None) => return None,
            (w, g) if w == g => {}
            (Some(w), Some(g)) => {
                let (w, g): (Vec<_>, Vec<_>) = (w.split('\t').collect(), g.split('\t').collect());
                let key = g.iter().take(4).copied().collect::<Vec<_>>().join(" ");
                let column = (0..COLUMNS.len())
                    .find(|&i| w.get(i) != g.get(i))
                    .unwrap_or(0);
                let (w, g) = (w.get(column), g.get(column));
                return Some(format!(
                    "{key}: column {} reads {}, the table holds {}",
                    COLUMNS[column],
                    g.unwrap_or(&"nothing"),
                    w.unwrap_or(&"nothing")
                ));
            }
            (w, g) => return Some(format!("row count differs: table {w:?}, run {g:?}")),
        }
    }
}

#[test]
fn every_stream_matches_the_golden_table() {
    let expected = std::fs::read_to_string(TABLE)
        .unwrap_or_else(|e| panic!("{TABLE}: {e}; regenerate it (see the module docs)"));
    if let Some(diff) = first_difference(&expected, &generate()) {
        panic!("golden table mismatch at {diff}");
    }
}

#[test]
#[ignore = "rewrites tests/golden.tsv"]
fn regenerate() {
    std::fs::write(TABLE, generate()).unwrap();
}
