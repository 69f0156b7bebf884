//! Re-grid conformance suite (oracle-backed).
//!
//! Online re-gridding must be **observationally invisible**: k-NN results
//! are δ-independent, so an engine that re-grids mid-stream has to keep
//! reporting bit-identical results, changed lists and delta streams —
//! against a never-re-gridded engine, against an engine built at the new
//! δ from scratch ([`verify_regrid`]), against the brute-force oracle,
//! and across shard counts. The object store must ride through every
//! re-grid untouched.

use std::collections::BTreeMap;

use cpm_suite::core::{AutoRegridConfig, PointQuery, RegridPolicy, ShardedCpmEngine, SpecEvent};
use cpm_suite::geom::{ObjectId, Point, QueryId};
use cpm_suite::grid::ObjectEvent;
use cpm_suite::sim::{verify_regrid, SimParams, SimulationInput, WorkloadKind};
use cpm_suite::sub::KnnSubscriptionHub;
use proptest::prelude::*;

type Engine = ShardedCpmEngine<PointQuery>;

/// Shard counts the re-gridding lanes run at (the satellite spec's
/// `S ∈ {1, 4}`).
const SHARD_COUNTS: [usize; 2] = [1, 4];

/// Per-test case budget, capped by `PROPTEST_CASES` (the CI conformance
/// job's wall-time bound) but never raised by it — each case replays a
/// multi-cycle stream across several engine lanes with oracle checks.
fn case_budget(default_cases: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .map_or(default_cases, |cap: u32| cap.min(default_cases))
}

/// A symbolic step; resolved against the live-object set when applied.
#[derive(Debug, Clone)]
enum Action {
    MoveObject {
        slot: usize,
        x: f64,
        y: f64,
    },
    AppearObject {
        x: f64,
        y: f64,
    },
    DisappearObject {
        slot: usize,
    },
    MoveQuery {
        slot: usize,
        x: f64,
        y: f64,
    },
    /// End the current cycle and re-grid to `dims[slot % dims.len()]`
    /// before the next one.
    Regrid {
        slot: usize,
    },
    /// End the current cycle without a re-grid.
    EndCycle,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        6 => (any::<usize>(), 0.0..1.0f64, 0.0..1.0f64)
            .prop_map(|(slot, x, y)| Action::MoveObject { slot, x, y }),
        1 => (0.0..1.0f64, 0.0..1.0f64).prop_map(|(x, y)| Action::AppearObject { x, y }),
        1 => any::<usize>().prop_map(|slot| Action::DisappearObject { slot }),
        1 => (any::<usize>(), 0.0..1.0f64, 0.0..1.0f64)
            .prop_map(|(slot, x, y)| Action::MoveQuery { slot, x, y }),
        1 => any::<usize>().prop_map(|slot| Action::Regrid { slot }),
        2 => Just(Action::EndCycle),
    ]
}

/// The canonical k-NN answer: ascending `(dist, id)`, truncated to `k` —
/// exactly what `NeighborList` maintains, computed from first principles.
fn oracle_knn(model: &BTreeMap<u32, Point>, q: Point, k: usize) -> Vec<(ObjectId, f64)> {
    let mut all: Vec<(ObjectId, f64)> = model
        .iter()
        .map(|(&id, &p)| (ObjectId(id), q.dist(p)))
        .collect();
    all.sort_by(|a, b| {
        (a.1, a.0)
            .partial_cmp(&(b.1, b.0))
            .expect("finite distances")
    });
    all.truncate(k);
    all
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: case_budget(12), ..ProptestConfig::default()
    })]

    /// The satellite property: `ObjectStore` contents and query results
    /// are invariant under a random sequence of re-grids interleaved with
    /// updates, at S ∈ {1, 4} — checked against a never-re-gridded pinned
    /// engine every cycle and against the brute-force oracle (bitwise,
    /// ids and distance bits) at every cycle end.
    #[test]
    fn regrids_never_change_results(
        actions in proptest::collection::vec(action_strategy(), 10..120),
        n_queries in 2usize..8,
    ) {
        let dims = [8u32, 16, 32, 64, 128];
        let mut pinned = Engine::new(16, 1);
        let mut lanes: Vec<Engine> = SHARD_COUNTS.iter().map(|&s| Engine::new(16, s)).collect();

        // Initial population and queries.
        let mut model: BTreeMap<u32, Point> = BTreeMap::new();
        let mut next_id = 0u32;
        for i in 0..30u32 {
            let p = Point::new((i as f64 * 0.37) % 1.0, (i as f64 * 0.73) % 1.0);
            model.insert(next_id, p);
            next_id += 1;
        }
        let mut queries: Vec<(QueryId, Point, usize)> = (0..n_queries)
            .map(|i| {
                let q = Point::new((i as f64 * 0.31) % 1.0, (i as f64 * 0.57) % 1.0);
                (QueryId(i as u32), q, 1 + i % 4)
            })
            .collect();
        for m in lanes.iter_mut().chain([&mut pinned]) {
            m.populate(model.iter().map(|(&id, &p)| (ObjectId(id), p)));
            for &(qid, q, k) in &queries {
                m.install(qid, PointQuery(q), k).unwrap();
            }
        }

        let mut object_events: Vec<ObjectEvent> = Vec::new();
        let mut query_events: Vec<SpecEvent<PointQuery>> = Vec::new();
        let mut touched: std::collections::HashSet<u32> = std::collections::HashSet::new();
        let mut touched_queries: std::collections::HashSet<u32> = std::collections::HashSet::new();

        fn run_cycle(
            object_events: &mut Vec<ObjectEvent>,
            query_events: &mut Vec<SpecEvent<PointQuery>>,
            regrid_dim: Option<u32>,
            pinned: &mut Engine,
            lanes: &mut [Engine],
            model: &BTreeMap<u32, Point>,
            queries: &[(QueryId, Point, usize)],
        ) -> Result<(), proptest::test_runner::TestCaseError> {
            if let Some(dim) = regrid_dim {
                for lane in lanes.iter_mut() {
                    let migrated = lane.regrid_to(dim).unwrap();
                    // A genuine dim change migrates exactly the live set.
                    prop_assert!(migrated == 0 || migrated == lane.grid().len());
                    lane.check_invariants();
                }
            }
            let changed_pinned = pinned.process_cycle(object_events, query_events);
            for lane in lanes.iter_mut() {
                let changed = lane.process_cycle(object_events, query_events);
                prop_assert_eq!(&changed_pinned, &changed, "changed lists diverged");
                lane.check_invariants();
                // Store invariance: the re-gridded lane's object table is
                // the model, bit for bit.
                let got: Vec<(u32, Point)> =
                    lane.grid().iter_objects().map(|(o, p)| (o.0, p)).collect();
                let want: Vec<(u32, Point)> = model.iter().map(|(&id, &p)| (id, p)).collect();
                prop_assert_eq!(got, want, "object store diverged from the model");
                for &(qid, q, k) in queries {
                    let result = lane.result(qid).expect("installed query");
                    prop_assert_eq!(
                        pinned.result(qid).expect("installed query"),
                        result,
                        "results diverged from the pinned engine for {}", qid
                    );
                    // Oracle, bitwise: same ids, same distance bits.
                    let truth = oracle_knn(model, q, k);
                    prop_assert_eq!(result.len(), truth.len().min(k));
                    for (n, (oid, dist)) in result.iter().zip(&truth) {
                        prop_assert_eq!(n.id, *oid, "oracle id mismatch for {}", qid);
                        prop_assert_eq!(
                            n.dist.to_bits(),
                            dist.to_bits(),
                            "oracle distance bits mismatch for {}", qid
                        );
                    }
                }
            }
            object_events.clear();
            query_events.clear();
            Ok(())
        }

        for action in actions {
            match action {
                Action::MoveObject { slot, x, y } => {
                    let ids: Vec<u32> = model.keys().copied().collect();
                    let id = ids[slot % ids.len()];
                    if touched.insert(id) {
                        let p = Point::new(x, y);
                        model.insert(id, p);
                        object_events.push(ObjectEvent::Move { id: ObjectId(id), to: p });
                    }
                }
                Action::AppearObject { x, y } => {
                    let p = Point::new(x, y);
                    model.insert(next_id, p);
                    touched.insert(next_id);
                    object_events.push(ObjectEvent::Appear { id: ObjectId(next_id), pos: p });
                    next_id += 1;
                }
                Action::DisappearObject { slot } => {
                    if model.len() <= 4 {
                        continue;
                    }
                    let ids: Vec<u32> = model.keys().copied().collect();
                    let id = ids[slot % ids.len()];
                    if touched.insert(id) {
                        model.remove(&id);
                        object_events.push(ObjectEvent::Disappear { id: ObjectId(id) });
                    }
                }
                Action::MoveQuery { slot, x, y } => {
                    let at = slot % queries.len();
                    let qid = queries[at].0;
                    if touched_queries.insert(qid.0) {
                        let to = Point::new(x, y);
                        queries[at].1 = to;
                        query_events.push(SpecEvent::Update { id: qid, spec: PointQuery(to) });
                    }
                }
                Action::Regrid { slot } => {
                    run_cycle(
                        &mut object_events,
                        &mut query_events,
                        Some(dims[slot % dims.len()]),
                        &mut pinned,
                        &mut lanes,
                        &model,
                        &queries,
                    )?;
                    touched.clear();
                    touched_queries.clear();
                }
                Action::EndCycle => {
                    run_cycle(
                        &mut object_events,
                        &mut query_events,
                        None,
                        &mut pinned,
                        &mut lanes,
                        &model,
                        &queries,
                    )?;
                    touched.clear();
                    touched_queries.clear();
                }
            }
        }
        // Flush the trailing partial cycle.
        run_cycle(
            &mut object_events,
            &mut query_events,
            None,
            &mut pinned,
            &mut lanes,
            &model,
            &queries,
        )?;
    }

    #[test]
    fn from_scratch_conformance_on_random_regrid_schedules(
        seed in 0u64..1000,
        at_a in 1usize..5,
        at_b in 5usize..9,
        dim_a in prop_oneof![Just(24u32), Just(64u32), Just(128u32)],
        dim_b in prop_oneof![Just(16u32), Just(48u32), Just(96u32)],
    ) {
        let params = SimParams {
            n_objects: 220,
            n_queries: 10,
            k: 3,
            timestamps: 10,
            grid_dim: 32,
            workload: WorkloadKind::Drift { peak_factor: 5.0 },
            seed,
            ..SimParams::default()
        };
        let input = SimulationInput::generate(&params);
        verify_regrid(&input, &[(at_a, dim_a), (at_b, dim_b)], &SHARD_COUNTS);
    }
}

/// The auto policy on the drifting-hotspot stream: it must actually
/// re-grid, thread its counters through `Metrics`, and stay bit-identical
/// to a fixed-δ engine the whole way.
#[test]
fn auto_policy_adapts_and_stays_bit_identical() {
    let params = SimParams {
        n_objects: 400,
        n_queries: 60,
        k: 4,
        timestamps: 30,
        grid_dim: 16,
        workload: WorkloadKind::Drift { peak_factor: 8.0 },
        seed: 7,
        ..SimParams::default()
    };
    let input = SimulationInput::generate(&params);

    let build = |auto: bool| {
        let mut m = Engine::new(params.grid_dim, 2);
        if auto {
            m.set_regrid_policy(RegridPolicy::Auto(AutoRegridConfig {
                check_every: 3,
                cooldown: 6,
                ..AutoRegridConfig::default()
            }));
            assert!(m.regrid_policy().is_auto());
        }
        m.populate(input.initial_objects.iter().copied());
        for &(qid, pos, k) in &input.initial_queries {
            m.install(qid, PointQuery(pos), k).unwrap();
        }
        m
    };
    let mut fixed = build(false);
    let mut adaptive = build(true);
    let mut dims_seen = std::collections::BTreeSet::new();
    for (t, tick) in input.ticks.iter().enumerate() {
        let query_events: Vec<SpecEvent<PointQuery>> =
            tick.query_events.iter().map(|&ev| ev.into()).collect();
        let a = fixed.process_cycle(&tick.object_events, &query_events);
        let b = adaptive.process_cycle(&tick.object_events, &query_events);
        dims_seen.insert(adaptive.grid().dim());
        assert_eq!(a, b, "changed lists diverged at t={t}");
        for &(qid, _, _) in &input.initial_queries {
            assert_eq!(
                fixed.result(qid).unwrap(),
                adaptive.result(qid).unwrap(),
                "results diverged at t={t} for {qid}"
            );
        }
        adaptive.check_invariants();
    }
    let m = adaptive.metrics();
    assert!(m.regrids >= 1, "8x population swing never re-gridded");
    assert!(m.regrid_objects_migrated > 0);
    assert!(m.regrid_queries_recomputed >= 60);
    // The resolution genuinely moved during the run (the triangle-wave
    // population often brings it back to the provisioned dim by the end —
    // refine on the way up, coarsen on the way down — which is the policy
    // doing its job, so the *final* dim proves nothing).
    assert!(
        dims_seen.len() >= 2,
        "resolution never moved: {dims_seen:?}"
    );
    // The fixed lane's counters must not contain re-grid work.
    let f = fixed.metrics();
    assert_eq!(f.regrids, 0);
    assert_eq!(f.regrid_objects_migrated, 0);
    assert_eq!(f.regrid_queries_recomputed, 0);
}

/// Re-grid cycles must not leak spurious deltas through `cpm-sub`: a hub
/// that re-grids ships the exact delta stream of a hub that never does —
/// and a quiet commit right after a re-grid ships nothing at all.
#[test]
fn regrids_emit_no_spurious_deltas_through_the_hub() {
    let objects: Vec<(ObjectId, Point)> = (0..80u32)
        .map(|i| {
            (
                ObjectId(i),
                Point::new((i as f64 * 0.29) % 1.0, (i as f64 * 0.53) % 1.0),
            )
        })
        .collect();
    let build = || {
        let mut hub = KnnSubscriptionHub::new(32, 2);
        hub.populate(objects.iter().copied());
        for qi in 0..12u32 {
            hub.subscribe_knn(
                QueryId(qi),
                Point::new((qi as f64 * 0.41) % 1.0, 0.5),
                1 + qi as usize % 3,
            );
        }
        hub.commit();
        hub
    };
    let mut plain = build();
    let mut regridding = build();
    // Drain the subscription install deltas on both sides.
    for qi in 0..12u32 {
        assert_eq!(
            plain.drain(QueryId(qi)),
            regridding.drain(QueryId(qi)),
            "install deltas diverged"
        );
    }

    // A quiet commit straddling a re-grid ships zero deltas.
    regridding.regrid_to(128);
    plain.commit();
    regridding.commit();
    for qi in 0..12u32 {
        assert!(
            regridding.drain(QueryId(qi)).is_empty(),
            "re-grid cycle shipped a spurious delta for query {qi}"
        );
        assert!(plain.drain(QueryId(qi)).is_empty());
    }

    // Under churn, the streams stay bit-identical across further regrids.
    for step in 0..12u32 {
        if step == 4 {
            regridding.regrid_to(16);
        }
        if step == 8 {
            regridding.regrid_to(64);
        }
        for mv in 0..6u32 {
            let id = (step * 6 + mv) % 80;
            let to = Point::new(
                ((step as f64 + 1.0) * 0.13 + mv as f64 * 0.07) % 1.0,
                ((step as f64 + 1.0) * 0.11 + mv as f64 * 0.05) % 1.0,
            );
            plain.push_update(ObjectEvent::Move {
                id: ObjectId(id),
                to,
            });
            regridding.push_update(ObjectEvent::Move {
                id: ObjectId(id),
                to,
            });
        }
        plain.commit();
        regridding.commit();
        for qi in 0..12u32 {
            assert_eq!(
                plain.drain(QueryId(qi)),
                regridding.drain(QueryId(qi)),
                "delta streams diverged at step {step} for query {qi}"
            );
        }
        regridding.check_invariants();
    }
    assert_eq!(regridding.grid().dim(), 64);
    assert!(regridding.metrics().regrids >= 3);
}
