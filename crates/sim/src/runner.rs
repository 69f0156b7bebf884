//! The experiment runner: replay a [`SimulationInput`] into a monitor and
//! collect per-run statistics (wall time of the processing cycles plus the
//! hardware-independent counters of [`cpm_grid::Metrics`]).

use std::time::{Duration, Instant};

use cpm_grid::Metrics;

use crate::algo::{AlgoKind, CpmMonitor, KnnMonitorAlgo};
use crate::stream::SimulationInput;

/// Aggregated statistics of one simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Algorithm label.
    pub algo: &'static str,
    /// Wall time spent inside `process_cycle` (excludes workload
    /// generation and result verification).
    pub processing_time: Duration,
    /// Wall time spent installing the initial queries.
    pub install_time: Duration,
    /// Summed work counters over all cycles.
    pub metrics: Metrics,
    /// Number of processed timestamps.
    pub cycles: usize,
    /// Number of installed queries.
    pub n_queries: usize,
    /// Memory units at the end of the run (Section 4.1 accounting).
    pub space_units: usize,
    /// Total result changes reported.
    pub result_changes: usize,
    /// Per-cycle processing times, in the order processed (for latency
    /// percentiles — a production monitor cares about tail cycles, not
    /// just totals).
    pub cycle_times: Vec<Duration>,
}

impl RunReport {
    /// Cell accesses per query per timestamp — the y-axis of Figure 6.3b.
    pub fn cell_accesses_per_query_per_cycle(&self) -> f64 {
        self.metrics.cell_accesses as f64 / (self.n_queries.max(1) * self.cycles.max(1)) as f64
    }

    /// Processing milliseconds per timestamp (the "CPU time" y-axis of the
    /// paper's figures, for this host).
    pub fn millis_per_cycle(&self) -> f64 {
        self.processing_time.as_secs_f64() * 1e3 / self.cycles.max(1) as f64
    }

    /// Memory units converted to megabytes at 4 bytes per unit (the
    /// paper's footnote-6 space comparison).
    pub fn space_mbytes(&self) -> f64 {
        self.space_units as f64 * 4.0 / (1024.0 * 1024.0)
    }

    /// Cycle-latency percentile in milliseconds (`q ∈ [0, 1]`; `q = 0.5`
    /// is the median, `q = 1.0` the slowest cycle).
    pub fn latency_percentile_ms(&self, q: f64) -> f64 {
        if self.cycle_times.is_empty() {
            return 0.0;
        }
        let mut sorted: Vec<Duration> = self.cycle_times.clone();
        sorted.sort_unstable();
        let idx = ((q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round()) as usize;
        sorted[idx].as_secs_f64() * 1e3
    }
}

/// Run `algo` over the pre-generated `input` and report statistics.
pub fn run(algo: AlgoKind, input: &SimulationInput) -> RunReport {
    let mut monitor = algo.build(input.params.grid_dim);
    run_boxed(&mut *monitor, input)
}

/// Run an already-built monitor over `input` (for custom configurations).
pub fn run_boxed(monitor: &mut dyn KnnMonitorAlgo, input: &SimulationInput) -> RunReport {
    monitor.populate(&input.initial_objects);

    let install_start = Instant::now();
    for &(qid, pos, k) in &input.initial_queries {
        monitor.install_query(qid, pos, k);
    }
    let install_time = install_start.elapsed();

    let mut processing_time = Duration::ZERO;
    let mut result_changes = 0usize;
    let mut cycle_times = Vec::with_capacity(input.ticks.len());
    for tick in &input.ticks {
        let start = Instant::now();
        let changed = monitor.process_cycle(&tick.object_events, &tick.query_events);
        let elapsed = start.elapsed();
        processing_time += elapsed;
        cycle_times.push(elapsed);
        result_changes += changed.len();
    }

    RunReport {
        algo: monitor.name(),
        processing_time,
        install_time,
        metrics: monitor.take_metrics(),
        cycles: input.ticks.len(),
        n_queries: input.initial_queries.len(),
        space_units: monitor.space_units(),
        result_changes,
        cycle_times,
    }
}

/// Run CPM with `shards` query shards over `input` (`shards = 1` is the
/// sequential engine — what [`AlgoKind::Cpm`] builds).
pub fn run_sharded(input: &SimulationInput, shards: usize) -> RunReport {
    let mut monitor = CpmMonitor::new(input.params.grid_dim, shards);
    run_boxed(&mut monitor, input)
}

/// Replay `input` into the sequential engine (one shard) and into a
/// sharded engine per entry of `shard_counts`, asserting after every
/// cycle that:
///
/// * each query's reported result is **bit-identical** (same object ids,
///   same distance bits, same order) across all shard counts,
/// * the changed-query sets agree,
/// * the per-cycle [`Metrics`] totals agree (work moved between threads,
///   not skipped or double-counted),
///
/// and, at the end of the run, that the sequential results match the
/// brute-force oracle by distance. Panics on any divergence.
pub fn verify_sharded_determinism(input: &SimulationInput, shard_counts: &[usize]) {
    let mut sequential = CpmMonitor::new(input.params.grid_dim, 1);
    let mut sharded: Vec<CpmMonitor> = shard_counts
        .iter()
        .map(|&s| CpmMonitor::new(input.params.grid_dim, s))
        .collect();

    sequential.populate(&input.initial_objects);
    for m in sharded.iter_mut() {
        m.populate(&input.initial_objects);
    }
    for &(qid, pos, k) in &input.initial_queries {
        sequential.install_query(qid, pos, k);
        for m in sharded.iter_mut() {
            m.install_query(qid, pos, k);
        }
    }

    let mut tracked: Vec<cpm_geom::QueryId> = input
        .initial_queries
        .iter()
        .map(|&(qid, _, _)| qid)
        .collect();
    for (t, tick) in input.ticks.iter().enumerate() {
        for ev in &tick.query_events {
            match *ev {
                cpm_grid::QueryEvent::Install { id, .. } => tracked.push(id),
                cpm_grid::QueryEvent::Terminate { id } => tracked.retain(|&q| q != id),
                cpm_grid::QueryEvent::Move { .. } => {}
            }
        }
        let changed_seq = sequential.process_cycle(&tick.object_events, &tick.query_events);
        let metrics_seq = sequential.take_metrics();
        for (m, &shards) in sharded.iter_mut().zip(shard_counts) {
            let changed = m.process_cycle(&tick.object_events, &tick.query_events);
            assert_eq!(
                changed_seq, changed,
                "changed sets diverged at t={t} with {shards} shards"
            );
            let metrics = m.take_metrics();
            assert_eq!(
                metrics_seq, metrics,
                "metrics totals diverged at t={t} with {shards} shards"
            );
            for &qid in &tracked {
                assert_eq!(
                    sequential.result(qid).expect("sequential tracks query"),
                    m.result(qid)
                        .unwrap_or_else(|| panic!("{shards}-shard engine lost query {qid}")),
                    "results diverged for {qid} at t={t} with {shards} shards"
                );
            }
            m.engine.check_invariants();
        }
    }

    // Anchor the whole family to ground truth: brute-force k-NN over the
    // final object population must agree with the sequential engine.
    for &qid in &tracked {
        let st = sequential
            .engine
            .query_state(qid)
            .expect("tracked query installed");
        let mut truth: Vec<f64> = sequential
            .engine
            .grid()
            .iter_objects()
            .map(|(_, p)| st.spec.0.dist(p))
            .collect();
        truth.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
        truth.truncate(st.k());
        let got: Vec<f64> = st.result().iter().map(|n| n.dist).collect();
        assert_eq!(got.len(), truth.len().min(st.k()), "oracle size for {qid}");
        for (g, e) in got.iter().zip(&truth) {
            assert!((g - e).abs() < 1e-9, "oracle mismatch for {qid}");
        }
    }
}

/// Replay `input` through the delta-streaming subscription layer
/// ([`cpm_sub::KnnSubscriptionHub`]) at every shard count in
/// `shard_counts`, folding each subscription's delta stream into a
/// client-side [`cpm_sub::Replica`], and assert after **every** epoch
/// that:
///
/// * each replica is **bit-identical** (ids, `f64` distance bits, order)
///   to the hub's authoritative snapshot — the delta stream is lossless,
/// * each replica is bit-identical to the brute-force
///   [`crate::OracleMonitor`] result — the reconstructed stream is not
///   just self-consistent but *correct*,
/// * the drained delta streams are bit-identical across shard counts.
///
/// Query events are mapped onto subscription calls (`Install` →
/// subscribe, `Move` → update, `Terminate` → unsubscribe), so moving-query
/// churn exercises the update path. Panics on any divergence.
pub fn verify_delta_replay(input: &SimulationInput, shard_counts: &[usize]) {
    use cpm_geom::QueryId;
    use cpm_sub::{KnnSubscriptionHub, Replica};
    use std::collections::BTreeMap;

    let mut oracle = crate::OracleMonitor::new();
    oracle.populate(&input.initial_objects);

    struct Lane {
        shards: usize,
        hub: KnnSubscriptionHub,
        replicas: BTreeMap<QueryId, Replica>,
    }
    let mut lanes: Vec<Lane> = shard_counts
        .iter()
        .map(|&shards| {
            let mut hub = KnnSubscriptionHub::new(input.params.grid_dim, shards);
            hub.populate(input.initial_objects.iter().copied());
            Lane {
                shards,
                hub,
                replicas: BTreeMap::new(),
            }
        })
        .collect();

    // Epoch 1: the initial subscriptions install (no object events).
    for &(qid, pos, k) in &input.initial_queries {
        oracle.install_query(qid, pos, k);
        for lane in lanes.iter_mut() {
            lane.hub.subscribe_knn(qid, pos, k);
            lane.replicas.insert(qid, Replica::new());
        }
    }
    fold_and_compare(&mut lanes, &oracle, 0);

    for (t, tick) in input.ticks.iter().enumerate() {
        oracle.process_cycle(&tick.object_events, &tick.query_events);
        for lane in lanes.iter_mut() {
            for ev in &tick.query_events {
                match *ev {
                    cpm_grid::QueryEvent::Install { id, pos, k } => {
                        lane.hub.subscribe_knn(id, pos, k);
                        lane.replicas.insert(id, Replica::new());
                    }
                    cpm_grid::QueryEvent::Move { id, to } => lane.hub.move_knn(id, to),
                    cpm_grid::QueryEvent::Terminate { id } => {
                        lane.hub.unsubscribe(id);
                        lane.replicas.remove(&id);
                    }
                }
            }
            lane.hub.push_updates(tick.object_events.iter().copied());
        }
        fold_and_compare(&mut lanes, &oracle, t + 1);
    }

    fn fold_and_compare(lanes: &mut [Lane], oracle: &crate::OracleMonitor, t: usize) {
        let mut reference: Option<Vec<(QueryId, Vec<cpm_core::NeighborDelta>)>> = None;
        for lane in lanes.iter_mut() {
            let shards = lane.shards;
            lane.hub.commit();
            let mut drained = Vec::new();
            for (&qid, replica) in lane.replicas.iter_mut() {
                let deltas = lane.hub.drain(qid);
                assert_eq!(
                    lane.hub.lagged(qid),
                    0,
                    "unbounded mailbox dropped deltas for {qid}"
                );
                for delta in &deltas {
                    replica.apply(delta);
                }
                let (_, snapshot) = lane
                    .hub
                    .snapshot(qid)
                    .unwrap_or_else(|| panic!("{shards}-shard hub lost {qid}"));
                assert_eq!(
                    replica.result(),
                    snapshot,
                    "replay diverged from the hub for {qid} at t={t} with {shards} shards"
                );
                let truth = oracle.result(qid).expect("oracle tracks every query");
                assert_eq!(
                    replica.result(),
                    truth,
                    "replay diverged from the oracle for {qid} at t={t} with {shards} shards"
                );
                drained.push((qid, deltas));
            }
            lane.hub.check_invariants();
            match &reference {
                None => reference = Some(drained),
                Some(first) => assert_eq!(
                    first, &drained,
                    "delta streams diverged at t={t} with {shards} shards"
                ),
            }
        }
    }
}

/// Conformance harness for online re-gridding: replay `input` through
/// re-gridding engines and prove that **a re-grid is observationally
/// invisible** — results, changed lists and delta streams are
/// bit-identical to an engine built at the new δ from scratch.
///
/// Lanes:
///
/// * one delta-capturing [`cpm_core::ShardedCpmEngine`] per entry of
///   `shard_counts`, all re-gridding at the cycle boundaries named in
///   `regrid_at` (`(cycle index, new dim)` — applied before that cycle's
///   events run);
/// * a **reference engine rebuilt from scratch at every re-grid point**:
///   fresh grid at the new δ, populated from the live objects in
///   ascending id order, queries installed in ascending id order at
///   their current positions, epoch-aligned by replaying empty cycles.
///
/// After every cycle the harness asserts that all lanes and the current
/// reference produce bit-identical changed lists, delta batches and
/// per-query results; at the end, lane results are checked against a
/// brute-force oracle by distance. Panics on any divergence.
pub fn verify_regrid(input: &SimulationInput, regrid_at: &[(usize, u32)], shard_counts: &[usize]) {
    use cpm_core::{CycleDeltas, PointQuery, ShardedCpmEngine, SpecEvent};
    use cpm_geom::QueryId;
    use std::collections::BTreeMap;

    let translate = |events: &[cpm_grid::QueryEvent]| -> Vec<SpecEvent<PointQuery>> {
        events.iter().map(|&ev| ev.into()).collect()
    };

    let mut lanes: Vec<ShardedCpmEngine<PointQuery>> = shard_counts
        .iter()
        .map(|&s| {
            let mut e = ShardedCpmEngine::new(input.params.grid_dim, s);
            e.enable_deltas();
            e.populate(input.initial_objects.iter().copied());
            e
        })
        .collect();
    // The live query book (id → position, k), maintained from the event
    // stream so a reference engine can be installed mid-run.
    let mut book: BTreeMap<QueryId, (cpm_geom::Point, usize)> = BTreeMap::new();
    for &(qid, pos, k) in &input.initial_queries {
        book.insert(qid, (pos, k));
        for lane in lanes.iter_mut() {
            lane.install(qid, PointQuery(pos), k).expect("fresh id");
        }
    }
    let mut reference: Option<ShardedCpmEngine<PointQuery>> = None;

    let mut out = CycleDeltas::default();
    let mut ref_out = CycleDeltas::default();
    for (t, tick) in input.ticks.iter().enumerate() {
        if let Some(&(_, dim)) = regrid_at.iter().find(|&&(at, _)| at == t) {
            for lane in lanes.iter_mut() {
                lane.regrid_to(dim).expect("verify dims are in range");
                lane.check_invariants();
            }
            // Build the from-scratch reference at the new δ.
            let mut fresh = ShardedCpmEngine::new(dim, 1);
            fresh.enable_deltas();
            fresh.populate(lanes[0].grid().iter_objects());
            for (&qid, &(pos, k)) in &book {
                fresh.install(qid, PointQuery(pos), k).expect("fresh id");
            }
            while fresh.epoch() < lanes[0].epoch() {
                fresh.process_cycle_with_deltas(&[], &[]);
            }
            reference = Some(fresh);
        }
        for ev in &tick.query_events {
            match *ev {
                cpm_grid::QueryEvent::Install { id, pos, k } => {
                    book.insert(id, (pos, k));
                }
                cpm_grid::QueryEvent::Move { id, to } => {
                    book.get_mut(&id).expect("move of installed query").0 = to;
                }
                cpm_grid::QueryEvent::Terminate { id } => {
                    book.remove(&id);
                }
            }
        }
        let events = translate(&tick.query_events);
        lanes[0].process_cycle_with_deltas_into(&tick.object_events, &events, &mut out);
        for (lane, &shards) in lanes.iter_mut().zip(shard_counts).skip(1) {
            let other = lane.process_cycle_with_deltas(&tick.object_events, &events);
            assert_eq!(
                out, other,
                "cycle outputs diverged at t={t} with {shards} shards"
            );
        }
        if let Some(fresh) = reference.as_mut() {
            fresh.process_cycle_with_deltas_into(&tick.object_events, &events, &mut ref_out);
            assert_eq!(
                out, ref_out,
                "re-gridded engine diverged from the from-scratch reference at t={t}"
            );
            for &qid in book.keys() {
                assert_eq!(
                    lanes[0].result(qid).expect("lane tracks query"),
                    fresh.result(qid).expect("reference tracks query"),
                    "result diverged from the from-scratch reference for {qid} at t={t}"
                );
            }
        }
        for lane in lanes.iter() {
            lane.check_invariants();
        }
    }

    // Anchor to ground truth: brute-force k-NN over the final population.
    for (&qid, &(pos, k)) in &book {
        let st = lanes[0].query_state(qid).expect("tracked query installed");
        assert_eq!(st.k(), k);
        let mut truth: Vec<f64> = lanes[0]
            .grid()
            .iter_objects()
            .map(|(_, p)| pos.dist(p))
            .collect();
        truth.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
        truth.truncate(k);
        let got: Vec<f64> = st.result().iter().map(|n| n.dist).collect();
        assert_eq!(got.len(), truth.len().min(k), "oracle size for {qid}");
        for (g, e) in got.iter().zip(&truth) {
            assert!((g - e).abs() < 1e-9, "oracle mismatch for {qid}");
        }
    }
}

/// Conformance harness for the pluggable spatial-index layer: replay
/// `input` through delta-capturing k-NN engines on **every backend in
/// `backends` × every shard count**, with the re-grid schedule of
/// `regrid_at` and (optionally) a full snapshot → restore round-trip at
/// the `snapshot_at` cycle boundary, asserting after every cycle that
/// changed lists, delta batches and per-query results are bit-identical
/// to a uniform-[`cpm_grid::CellIndex`] reference engine.
///
/// The backend is an implementation detail the paper's algorithm cannot
/// observe: best-first cell ordering, influence lists and result sets
/// depend only on the conceptual `dim × dim` geometry, which every
/// [`cpm_grid::SpatialIndex`] serves identically. The round-trip also
/// proves a snapshot restores onto **its recorded backend** (and that
/// restoring under a different configured backend is refused with
/// [`cpm_core::CpmError::IndexMismatch`]). Panics on any divergence.
pub fn verify_index(
    input: &SimulationInput,
    backends: &[cpm_grid::IndexKind],
    regrid_at: &[(usize, u32)],
    shard_counts: &[usize],
    snapshot_at: Option<usize>,
) {
    use cpm_core::{CycleDeltas, EngineSnapshot, PointQuery, ShardedCpmEngine, SpecEvent};
    use cpm_geom::QueryId;
    use cpm_grid::{DynIndex, GridBuilder, IndexKind, SpatialIndex};
    use std::collections::BTreeMap;

    let translate = |events: &[cpm_grid::QueryEvent]| -> Vec<SpecEvent<PointQuery>> {
        events.iter().map(|&ev| ev.into()).collect()
    };

    struct Lane {
        label: String,
        kind: IndexKind,
        engine: ShardedCpmEngine<PointQuery, DynIndex>,
    }

    let mut reference: ShardedCpmEngine<PointQuery> =
        ShardedCpmEngine::new(input.params.grid_dim, 1);
    reference.enable_deltas();
    reference.populate(input.initial_objects.iter().copied());
    let mut lanes: Vec<Lane> = backends
        .iter()
        .flat_map(|&kind| shard_counts.iter().map(move |&s| (kind, s)))
        .map(|(kind, shards)| {
            let grid = GridBuilder::new(input.params.grid_dim)
                .index(kind)
                .try_build()
                .expect("verify dims satisfy every backend");
            let mut engine = ShardedCpmEngine::with_grid(grid, shards);
            engine.enable_deltas();
            engine.populate(input.initial_objects.iter().copied());
            Lane {
                label: format!("{kind}×{shards}"),
                kind,
                engine,
            }
        })
        .collect();

    let mut book: BTreeMap<QueryId, (cpm_geom::Point, usize)> = BTreeMap::new();
    for &(qid, pos, k) in &input.initial_queries {
        book.insert(qid, (pos, k));
        reference
            .install(qid, PointQuery(pos), k)
            .expect("fresh id");
        for lane in lanes.iter_mut() {
            lane.engine
                .install(qid, PointQuery(pos), k)
                .expect("fresh id");
        }
    }

    let mut out = CycleDeltas::default();
    let mut ref_out = CycleDeltas::default();
    for (t, tick) in input.ticks.iter().enumerate() {
        if let Some(&(_, dim)) = regrid_at.iter().find(|&&(at, _)| at == t) {
            reference.regrid_to(dim).expect("verify dims are in range");
            for lane in lanes.iter_mut() {
                lane.engine
                    .regrid_to(dim)
                    .expect("verify dims satisfy every backend");
                lane.engine.check_invariants();
            }
        }
        if snapshot_at == Some(t) {
            for lane in lanes.iter_mut() {
                let snap = EngineSnapshot::capture(&lane.engine);
                // Restoring under a backend the snapshot was not captured
                // with must be refused up front.
                let other = match lane.kind {
                    IndexKind::Uniform => IndexKind::quadtree(),
                    IndexKind::Quadtree { .. } => IndexKind::Uniform,
                };
                assert!(
                    matches!(
                        snap.restore_expecting(other),
                        Err(cpm_core::CpmError::IndexMismatch { .. })
                    ),
                    "lane {}: cross-backend restore must be refused",
                    lane.label
                );
                lane.engine = snap
                    .restore_expecting(lane.kind)
                    .expect("round-trip restores the recorded backend");
                assert_eq!(
                    lane.engine.grid().index().kind(),
                    lane.kind,
                    "lane {}: restore changed the backend",
                    lane.label
                );
                lane.engine.check_invariants();
            }
        }
        for ev in &tick.query_events {
            match *ev {
                cpm_grid::QueryEvent::Install { id, pos, k } => {
                    book.insert(id, (pos, k));
                }
                cpm_grid::QueryEvent::Move { id, to } => {
                    book.get_mut(&id).expect("move of installed query").0 = to;
                }
                cpm_grid::QueryEvent::Terminate { id } => {
                    book.remove(&id);
                }
            }
        }
        let events = translate(&tick.query_events);
        reference.process_cycle_with_deltas_into(&tick.object_events, &events, &mut ref_out);
        for lane in lanes.iter_mut() {
            lane.engine
                .process_cycle_with_deltas_into(&tick.object_events, &events, &mut out);
            assert_eq!(
                ref_out, out,
                "lane {}: cycle outputs diverged from the uniform reference at t={t}",
                lane.label
            );
            for &qid in book.keys() {
                assert_eq!(
                    reference.result(qid).expect("reference tracks query"),
                    lane.engine.result(qid).expect("lane tracks query"),
                    "lane {}: result diverged for {qid} at t={t}",
                    lane.label
                );
            }
            lane.engine.check_invariants();
        }
    }

    // Anchor to ground truth: brute-force k-NN over the final population.
    for (&qid, &(pos, k)) in &book {
        let st = reference.query_state(qid).expect("tracked query installed");
        assert_eq!(st.k(), k);
        let mut truth: Vec<f64> = reference
            .grid()
            .iter_objects()
            .map(|(_, p)| pos.dist(p))
            .collect();
        truth.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
        truth.truncate(k);
        let got: Vec<f64> = st.result().iter().map(|n| n.dist).collect();
        assert_eq!(got.len(), truth.len().min(k), "oracle size for {qid}");
        for (g, e) in got.iter().zip(&truth) {
            assert!((g - e).abs() < 1e-9, "oracle mismatch for {qid}");
        }
    }
}

/// Run every contender (CPM, YPK-CNN, SEA-CNN) over the same input.
pub fn run_contenders(input: &SimulationInput) -> Vec<RunReport> {
    AlgoKind::CONTENDERS
        .iter()
        .map(|&a| run(a, input))
        .collect()
}

/// Replay `input` into all contenders *and* the oracle, asserting that
/// every query's result distances agree with the ground truth at every
/// timestamp (distance ties may differ in object id). Used by integration
/// tests; panics on divergence.
pub fn verify_against_oracle(input: &SimulationInput) {
    let mut monitors: Vec<Box<dyn KnnMonitorAlgo>> = [
        AlgoKind::Cpm,
        AlgoKind::Ypk,
        AlgoKind::Sea,
        AlgoKind::Oracle,
    ]
    .iter()
    .map(|&a| a.build(input.params.grid_dim))
    .collect();

    for m in monitors.iter_mut() {
        m.populate(&input.initial_objects);
        for &(qid, pos, k) in &input.initial_queries {
            m.install_query(qid, pos, k);
        }
    }

    let (oracle, contenders) = monitors.split_last_mut().expect("non-empty");
    compare_all(&**oracle, contenders, input, 0);

    for (t, tick) in input.ticks.iter().enumerate() {
        for m in contenders.iter_mut() {
            m.process_cycle(&tick.object_events, &tick.query_events);
        }
        oracle.process_cycle(&tick.object_events, &tick.query_events);
        compare_all(&**oracle, contenders, input, t + 1);
    }
}

fn compare_all(
    oracle: &dyn KnnMonitorAlgo,
    contenders: &[Box<dyn KnnMonitorAlgo>],
    input: &SimulationInput,
    timestamp: usize,
) {
    for &(qid, _, _) in &input.initial_queries {
        let truth: Vec<f64> = oracle
            .result(qid)
            .expect("oracle tracks every query")
            .iter()
            .map(|n| n.dist)
            .collect();
        for m in contenders {
            let got: Vec<f64> = m
                .result(qid)
                .unwrap_or_else(|| panic!("{} lost query {qid}", m.name()))
                .iter()
                .map(|n| n.dist)
                .collect();
            assert_eq!(
                got.len(),
                truth.len(),
                "{} result size for {qid} at t={timestamp}",
                m.name()
            );
            for (g, e) in got.iter().zip(&truth) {
                assert!(
                    (g - e).abs() < 1e-9,
                    "{} diverged on {qid} at t={timestamp}: {got:?} vs {truth:?}",
                    m.name()
                );
            }
        }
    }
}

/// Conformance harness for the unified [`cpm_core::CpmServer`]: replay a
/// deterministic mixed-kind workload (k-NN + range + aggregate-NN +
/// constrained + reverse-NN, with moving queries and mid-stream
/// install/terminate) into one server per entry of `shard_counts` and,
/// side by side, into **dedicated single-kind engines** over their own
/// grids, asserting after every cycle that:
///
/// * every non-RNN query's result is **bit-identical** (ids, `f64`
///   distance bits, order) between the server and its kind's dedicated
///   [`cpm_core::ShardedCpmEngine`] — the `AnyQuerySpec` dispatch adds
///   nothing and loses nothing,
/// * server results are identical across all shard counts, and the
///   merged work-counter totals agree,
/// * changed-query lists agree between the server and the union of the
///   dedicated engines (plus RNN re-verification),
/// * the server performed exactly **one** grid ingest pass per cycle
///   (`updates_applied` equals the event count, not kinds × events),
/// * every result matches a brute-force oracle (range results
///   bit-identical via [`crate::brute_force_range`]; k-NN/ANN/constrained
///   by distance; RNN sets exactly).
///
/// Panics on any divergence.
pub fn verify_unified_server(n_objects: u32, cycles: usize, grid_dim: u32, shard_counts: &[usize]) {
    verify_unified_server_with(
        cpm_grid::IndexKind::Uniform,
        n_objects,
        cycles,
        grid_dim,
        shard_counts,
    );
}

/// [`verify_unified_server`] with the servers running on an explicit
/// index backend: the dedicated single-kind engines stay on the default
/// uniform [`cpm_grid::CellIndex`], so passing
/// [`cpm_grid::IndexKind::quadtree`] proves **every** exact query kind —
/// k-NN, range, aggregate-NN, constrained and reverse-NN — bit-identical
/// *across backends*, not merely across shard counts.
pub fn verify_unified_server_with(
    index: cpm_grid::IndexKind,
    n_objects: u32,
    cycles: usize,
    grid_dim: u32,
    shard_counts: &[usize],
) {
    use cpm_core::{
        AggregateFn, AnnQuery, AnyQuerySpec, ConstrainedQuery, CpmServer, CpmServerBuilder,
        PointQuery, RangeQuery, ShardedCpmEngine, SpecEvent,
    };
    use cpm_geom::{ObjectId, Point, QueryId, Rect};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    let mut rng = StdRng::seed_from_u64(0x0CF5);
    let objects: Vec<(ObjectId, Point)> = (0..n_objects)
        .map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen())))
        .collect();

    // Brute-force reverse NN: p ∈ RNN(q) iff no other object is strictly
    // closer to p than q is.
    fn brute_rnn(objects: &[(ObjectId, Point)], q: Point) -> Vec<ObjectId> {
        let mut out: Vec<ObjectId> = objects
            .iter()
            .filter(|&&(id, p)| {
                let dq = p.dist(q);
                !objects.iter().any(|&(o, op)| o != id && p.dist(op) < dq)
            })
            .map(|&(id, _)| id)
            .collect();
        out.sort_unstable();
        out
    }

    let mut servers: Vec<CpmServer> = shard_counts
        .iter()
        .map(|&s| {
            CpmServerBuilder::new(grid_dim)
                .shards(s)
                .index(index)
                .build()
        })
        .collect();
    let mut knn_engine: ShardedCpmEngine<PointQuery> = ShardedCpmEngine::new(grid_dim, 1);
    let mut range_engine: ShardedCpmEngine<RangeQuery> = ShardedCpmEngine::new(grid_dim, 1);
    let mut ann_engine: ShardedCpmEngine<AnnQuery> = ShardedCpmEngine::new(grid_dim, 1);
    let mut con_engine: ShardedCpmEngine<ConstrainedQuery> = ShardedCpmEngine::new(grid_dim, 1);
    for s in servers.iter_mut() {
        s.populate(objects.iter().copied());
    }
    knn_engine.populate(objects.iter().copied());
    range_engine.populate(objects.iter().copied());
    ann_engine.populate(objects.iter().copied());
    con_engine.populate(objects.iter().copied());

    // Initial mixed population. Ids are disjoint across kinds.
    let mut knn_pos = [Point::new(0.3, 0.4), Point::new(0.7, 0.6)];
    let knn_ids = [QueryId(0), QueryId(1)];
    let mut range_specs = [
        RangeQuery::rect(Rect::new(Point::new(0.2, 0.1), Point::new(0.6, 0.5))),
        RangeQuery::circle(Point::new(0.6, 0.7), 0.22),
    ];
    let range_ids = [QueryId(10), QueryId(11)];
    let ann_spec = AnnQuery::new(
        vec![
            Point::new(0.25, 0.75),
            Point::new(0.8, 0.3),
            Point::new(0.5, 0.5),
        ],
        AggregateFn::Sum,
    );
    let ann_id = QueryId(20);
    let con_spec = ConstrainedQuery::new(
        Point::new(0.45, 0.55),
        Rect::new(Point::new(0.3, 0.3), Point::new(0.9, 0.9)),
    );
    let con_id = QueryId(30);
    let mut rnn_pos = Point::new(0.55, 0.45);
    let rnn_id = QueryId(40);

    for s in servers.iter_mut() {
        for (i, &id) in knn_ids.iter().enumerate() {
            let _ = s.install_knn(id, knn_pos[i], 3 + i).expect("fresh id");
        }
        for (i, &id) in range_ids.iter().enumerate() {
            let _ = s.install_range(id, range_specs[i]).expect("fresh id");
        }
        let _ = s
            .install_ann(ann_id, ann_spec.clone(), 2)
            .expect("fresh id");
        let _ = s
            .install_constrained(con_id, con_spec.clone(), 3)
            .expect("fresh id");
        let _ = s.install_rnn(rnn_id, rnn_pos).expect("fresh id");
    }
    for (i, &id) in knn_ids.iter().enumerate() {
        knn_engine
            .install(id, PointQuery(knn_pos[i]), 3 + i)
            .expect("fresh id");
    }
    for (i, &id) in range_ids.iter().enumerate() {
        range_engine
            .install(id, range_specs[i], RangeQuery::UNBOUNDED_K)
            .expect("fresh id");
    }
    ann_engine
        .install(ann_id, ann_spec.clone(), 2)
        .expect("fresh id");
    con_engine
        .install(con_id, con_spec.clone(), 3)
        .expect("fresh id");

    // Mid-stream churn: a k-NN query installed a third of the way in and
    // terminated two thirds of the way in. Skipped for very short runs,
    // where install and terminate would land in the same event batch
    // (one event per id per batch).
    let transient_id = QueryId(5);
    let install_at = cycles / 3;
    let terminate_at = (2 * cycles) / 3;
    let use_transient = install_at < terminate_at;
    let mut transient_live = false;

    let mut live: Vec<u32> = (0..n_objects).collect();
    let mut next_oid = n_objects;

    for cycle in 0..cycles {
        // Object churn: moves plus occasional appear/disappear.
        let mut object_events = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..rng.gen_range(1..12) {
            match rng.gen_range(0..10) {
                0 if live.len() > 8 => {
                    let at = rng.gen_range(0..live.len());
                    let id = live.swap_remove(at);
                    if seen.insert(id) {
                        object_events.push(cpm_grid::ObjectEvent::Disappear { id: ObjectId(id) });
                    } else {
                        live.push(id);
                    }
                }
                1 => {
                    live.push(next_oid);
                    seen.insert(next_oid);
                    object_events.push(cpm_grid::ObjectEvent::Appear {
                        id: ObjectId(next_oid),
                        pos: Point::new(rng.gen(), rng.gen()),
                    });
                    next_oid += 1;
                }
                _ => {
                    let id = live[rng.gen_range(0..live.len())];
                    if seen.insert(id) {
                        object_events.push(cpm_grid::ObjectEvent::Move {
                            id: ObjectId(id),
                            to: Point::new(rng.gen(), rng.gen()),
                        });
                    }
                }
            }
        }

        // Query events, mirrored between the server (unified vocabulary)
        // and the kind's dedicated engine.
        let mut server_events: Vec<SpecEvent<AnyQuerySpec>> = Vec::new();
        let mut knn_events: Vec<SpecEvent<PointQuery>> = Vec::new();
        let mut range_events: Vec<SpecEvent<RangeQuery>> = Vec::new();
        if rng.gen_bool(0.4) {
            // A k-NN subscriber moves.
            let qi = rng.gen_range(0..knn_ids.len());
            knn_pos[qi] = Point::new(rng.gen(), rng.gen());
            server_events.push(SpecEvent::Update {
                id: knn_ids[qi],
                spec: AnyQuerySpec::Knn(PointQuery(knn_pos[qi])),
            });
            knn_events.push(SpecEvent::Update {
                id: knn_ids[qi],
                spec: PointQuery(knn_pos[qi]),
            });
        }
        if rng.gen_bool(0.3) {
            // A range region moves.
            let qi = rng.gen_range(0..range_ids.len());
            range_specs[qi] = RangeQuery::circle(
                Point::new(rng.gen(), rng.gen()),
                0.1 + rng.gen::<f64>() * 0.2,
            );
            server_events.push(SpecEvent::Update {
                id: range_ids[qi],
                spec: AnyQuerySpec::Range(range_specs[qi]),
            });
            range_events.push(SpecEvent::Update {
                id: range_ids[qi],
                spec: range_specs[qi],
            });
        }
        if use_transient && cycle == install_at {
            let pos = Point::new(0.15, 0.85);
            server_events.push(SpecEvent::Install {
                id: transient_id,
                spec: AnyQuerySpec::Knn(PointQuery(pos)),
                k: 2,
            });
            knn_events.push(SpecEvent::Install {
                id: transient_id,
                spec: PointQuery(pos),
                k: 2,
            });
            transient_live = true;
        }
        if use_transient && cycle == terminate_at {
            server_events.push(SpecEvent::Terminate { id: transient_id });
            knn_events.push(SpecEvent::Terminate { id: transient_id });
            transient_live = false;
        }
        // The reverse-NN registration moves occasionally (direct calls —
        // the server owns the six-region composition).
        let move_rnn = rng.gen_bool(0.25);
        if move_rnn {
            rnn_pos = Point::new(rng.gen(), rng.gen());
        }

        for s in servers.iter_mut() {
            s.take_metrics();
            if move_rnn {
                let h = s.rnn_handle(rnn_id).expect("installed");
                let _ = s.update_rnn(h, rnn_pos).expect("installed");
            }
        }
        let changed_first = servers[0]
            .process_cycle(&object_events, &server_events)
            .expect("validated events");
        let metrics_first = servers[0].take_metrics();
        assert_eq!(
            metrics_first.updates_applied,
            object_events.len() as u64,
            "cycle {cycle}: the unified server must ingest the batch exactly once"
        );
        for (s, &shards) in servers.iter_mut().zip(shard_counts).skip(1) {
            let changed = s
                .process_cycle(&object_events, &server_events)
                .expect("validated events");
            assert_eq!(
                changed_first, changed,
                "cycle {cycle}: changed sets diverged at {shards} shards"
            );
            let metrics = s.take_metrics();
            assert_eq!(
                metrics_first, metrics,
                "cycle {cycle}: metrics diverged at {shards} shards"
            );
        }

        let mut dedicated_changed: BTreeSet<QueryId> = BTreeSet::new();
        dedicated_changed.extend(knn_engine.process_cycle(&object_events, &knn_events));
        dedicated_changed.extend(range_engine.process_cycle(&object_events, &range_events));
        dedicated_changed.extend(ann_engine.process_cycle(&object_events, &[]));
        dedicated_changed.extend(con_engine.process_cycle(&object_events, &[]));
        let server_non_rnn: BTreeSet<QueryId> = changed_first
            .iter()
            .copied()
            .filter(|&q| q != rnn_id)
            .collect();
        assert_eq!(
            server_non_rnn, dedicated_changed,
            "cycle {cycle}: changed sets diverged between server and dedicated engines"
        );

        // Bit-identical per-kind results, plus brute-force ground truth.
        let snapshot: Vec<(ObjectId, Point)> = servers[0].grid().iter_objects().collect();
        for s in servers.iter() {
            let mut tracked: Vec<QueryId> = Vec::new();
            tracked.extend(knn_ids);
            if transient_live {
                tracked.push(transient_id);
            }
            for &id in &tracked {
                assert_eq!(
                    s.result(id).expect("server tracks query"),
                    knn_engine.result(id).expect("engine tracks query"),
                    "cycle {cycle}: k-NN {id} diverged from the dedicated engine"
                );
            }
            for &id in &range_ids {
                let got = s.result(id).expect("server tracks query");
                assert_eq!(
                    got,
                    range_engine.result(id).expect("engine tracks query"),
                    "cycle {cycle}: range {id} diverged from the dedicated engine"
                );
                let spec = s
                    .query_state(id)
                    .unwrap()
                    .spec
                    .as_range()
                    .unwrap()
                    .to_owned();
                assert_eq!(
                    got,
                    crate::brute_force_range(snapshot.iter().copied(), &spec).as_slice(),
                    "cycle {cycle}: range {id} diverged from brute force"
                );
            }
            assert_eq!(
                s.result(ann_id).expect("server tracks query"),
                ann_engine.result(ann_id).expect("engine tracks query"),
                "cycle {cycle}: ANN diverged from the dedicated engine"
            );
            assert_eq!(
                s.result(con_id).expect("server tracks query"),
                con_engine.result(con_id).expect("engine tracks query"),
                "cycle {cycle}: constrained diverged from the dedicated engine"
            );
            assert_eq!(
                s.rnn_result(rnn_id).expect("server tracks query"),
                brute_rnn(&snapshot, rnn_pos).as_slice(),
                "cycle {cycle}: RNN diverged from brute force"
            );
            // k-NN ground truth by distance.
            for &id in &tracked {
                let st = s.query_state(id).unwrap();
                let q = st.spec.as_knn().expect("knn query");
                let mut truth: Vec<f64> = snapshot.iter().map(|&(_, p)| q.dist(p)).collect();
                truth.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                truth.truncate(st.k());
                let got: Vec<f64> = st.result().iter().map(|n| n.dist).collect();
                assert_eq!(got.len(), truth.len().min(st.k()));
                for (g, e) in got.iter().zip(&truth) {
                    assert!((g - e).abs() < 1e-9, "cycle {cycle}: k-NN oracle mismatch");
                }
            }
            s.check_invariants();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{SimParams, WorkloadKind};

    fn tiny_params() -> SimParams {
        SimParams {
            n_objects: 250,
            n_queries: 10,
            k: 4,
            timestamps: 12,
            grid_dim: 32,
            workload: WorkloadKind::Network { grid_streets: 8 },
            ..SimParams::default()
        }
    }

    #[test]
    fn all_algorithms_agree_with_the_oracle() {
        verify_against_oracle(&SimulationInput::generate(&tiny_params()));
    }

    #[test]
    fn sharded_runs_are_deterministic() {
        verify_sharded_determinism(&SimulationInput::generate(&tiny_params()), &[2, 3, 4]);
    }

    #[test]
    fn delta_replay_reconstructs_the_oracle() {
        verify_delta_replay(&SimulationInput::generate(&tiny_params()), &[1, 2, 4]);
    }

    #[test]
    fn regrids_are_observationally_invisible() {
        // Two mid-run re-grids (refine, then coarsen) on the drifting
        // workload, checked sequentially and at 4 shards.
        let params = SimParams {
            workload: WorkloadKind::Drift { peak_factor: 4.0 },
            ..tiny_params()
        };
        let input = SimulationInput::generate(&params);
        verify_regrid(&input, &[(3, 64), (8, 16)], &[1, 4]);
    }

    #[test]
    fn sharded_report_matches_sequential_counters() {
        let input = SimulationInput::generate(&tiny_params());
        let seq = run_sharded(&input, 1);
        let par = run_sharded(&input, 4);
        assert_eq!(seq.metrics, par.metrics, "sharding changed the work done");
        assert_eq!(seq.result_changes, par.result_changes);
    }

    #[test]
    fn latency_percentiles_are_monotone() {
        let input = SimulationInput::generate(&tiny_params());
        let r = run(AlgoKind::Cpm, &input);
        assert_eq!(r.cycle_times.len(), r.cycles);
        let p50 = r.latency_percentile_ms(0.5);
        let p95 = r.latency_percentile_ms(0.95);
        let max = r.latency_percentile_ms(1.0);
        assert!(p50 <= p95 && p95 <= max);
        assert!(max > 0.0);
        // The sum of cycle times is the processing time.
        let sum: f64 = r.cycle_times.iter().map(|d| d.as_secs_f64()).sum();
        assert!((sum - r.processing_time.as_secs_f64()).abs() < 1e-9);
    }

    #[test]
    fn reports_carry_sane_statistics() {
        let input = SimulationInput::generate(&tiny_params());
        let reports = run_contenders(&input);
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert_eq!(r.cycles, 12);
            assert_eq!(r.n_queries, 10);
            assert!(r.space_units > 0);
            assert!(r.metrics.updates_applied > 0);
        }
        // CPM must do no more cell accesses than either baseline on the
        // default maintenance-heavy workload.
        let cpm = &reports[0];
        assert!(cpm.metrics.cell_accesses <= reports[1].metrics.cell_accesses);
        assert!(cpm.metrics.cell_accesses <= reports[2].metrics.cell_accesses);
    }
}
