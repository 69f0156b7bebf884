//! The qualitative head-to-head scenarios of Section 4.2 (Figures 4.2 and
//! 4.3), encoded as paired counter assertions: the same hand-built
//! situation is replayed into two monitors and the paper's claimed work
//! relation must hold.

use std::num::NonZeroUsize;

use cpm_suite::baselines::{SeaCnnMonitor, YpkCnnMonitor};
use cpm_suite::core::{CpmServer, CpmServerBuilder, PointQuery, SpecEvent};
use cpm_suite::geom::{ObjectId, Point, QueryId};
use cpm_suite::grid::{ObjectEvent, QueryEvent};

/// CPM as the paper describes it: point queries, on one thread.
fn cpm_monitor(dim: u32) -> CpmServer {
    CpmServerBuilder::new(dim)
        .threads(NonZeroUsize::MIN)
        .build()
}

/// Figure 4.3a: the only update is an object moving *inside* the
/// best_dist circle. CPM compares one distance and touches no cells;
/// SEA-CNN re-scans its whole answer region.
#[test]
fn incomer_within_best_dist_fig_4_3a() {
    let objects = [
        (ObjectId(1), Point::new(0.52, 0.55)), // current NN
        (ObjectId(6), Point::new(0.70, 0.50)), // will come closer
        (ObjectId(2), Point::new(0.30, 0.40)),
    ];
    let q = (QueryId(0), Point::new(0.5, 0.5), 1);

    let mut cpm = cpm_monitor(16);
    let mut sea = SeaCnnMonitor::new(16);
    cpm.populate(objects);
    sea.populate(objects);
    let _ = cpm.install_spec(q.0, PointQuery(q.1), q.2).unwrap();
    sea.install_query(q.0, q.1, q.2);
    cpm.take_metrics();
    sea.take_metrics();

    let update = [ObjectEvent::Move {
        id: ObjectId(6),
        to: Point::new(0.51, 0.52), // closer than the current NN
    }];
    let c1 = cpm.process_cycle(&update, &[]).unwrap();
    let c2 = sea.process_cycle(&update, &[]);
    assert_eq!(c1, vec![QueryId(0)]);
    assert_eq!(c2, vec![QueryId(0)]);
    assert_eq!(cpm.result(QueryId(0)).unwrap()[0].id, ObjectId(6));
    assert_eq!(sea.result(QueryId(0)).unwrap()[0].id, ObjectId(6));

    // "CPM directly compares dist(p'6, q) with best_dist and sets p'6 as
    // the result without visiting any cells."
    assert_eq!(cpm.metrics().cell_accesses, 0, "CPM must not search");
    assert_eq!(cpm.metrics().merge_resolutions, 1);
    // SEA-CNN scans the answer region for the same conclusion.
    assert!(
        sea.metrics().cell_accesses > 0,
        "SEA-CNN rescans the region"
    );
}

/// Figure 4.2b / 2.2a: the current NN moves away. CPM resumes its visit
/// list; YPK-CNN and SEA-CNN scan a d_max-sized region whose cost grows
/// with how far the old NN moved.
#[test]
fn outgoing_nn_cost_grows_with_distance_for_baselines_fig_4_2b() {
    // Place a second-best object near q and spectators farther out; the
    // NN then moves progressively farther in two scenarios.
    let objects = [
        (ObjectId(1), Point::new(0.50, 0.53)), // NN
        (ObjectId(2), Point::new(0.46, 0.47)), // next best
        (ObjectId(3), Point::new(0.60, 0.60)),
        (ObjectId(4), Point::new(0.40, 0.65)),
        (ObjectId(5), Point::new(0.70, 0.35)),
    ];
    let run = |dest: Point| {
        let mut cpm = cpm_monitor(32);
        let mut ypk = YpkCnnMonitor::new(32);
        cpm.populate(objects);
        ypk.populate(objects);
        let _ = cpm
            .install_spec(QueryId(0), PointQuery(Point::new(0.5, 0.5)), 1)
            .unwrap();
        ypk.install_query(QueryId(0), Point::new(0.5, 0.5), 1);
        cpm.take_metrics();
        ypk.take_metrics();
        let update = [ObjectEvent::Move {
            id: ObjectId(1),
            to: dest,
        }];
        cpm.process_cycle(&update, &[]).unwrap();
        ypk.process_cycle(&update, &[]);
        assert_eq!(cpm.result(QueryId(0)).unwrap()[0].id, ObjectId(2));
        assert_eq!(ypk.result(QueryId(0)).unwrap()[0].id, ObjectId(2));
        (cpm.metrics().cell_accesses, ypk.metrics().cell_accesses)
    };

    let (cpm_near, ypk_near) = run(Point::new(0.56, 0.56));
    let (cpm_far, ypk_far) = run(Point::new(0.95, 0.95));
    // "The unnecessary computations increase with dist(p'2, q)" — for
    // YPK-CNN. CPM's re-computation is independent of the move distance.
    assert!(
        ypk_far > ypk_near,
        "YPK d_max cost must grow: {ypk_near} -> {ypk_far}"
    );
    assert_eq!(
        cpm_near, cpm_far,
        "CPM re-computation cost is independent of the NN's displacement"
    );
    assert!(cpm_far < ypk_far, "CPM processes fewer cells");
}

/// Figure 4.3b: the query moves. CPM recomputes from scratch at a cost
/// independent of the displacement; SEA-CNN's circle grows with it.
#[test]
fn query_displacement_cost_fig_4_3b() {
    // Deterministic scatter over the whole workspace (low-discrepancy
    // lattice), so a longer query hop sweeps strictly more objects.
    let objects: Vec<(ObjectId, Point)> = (0..60u32)
        .map(|i| {
            (
                ObjectId(i),
                Point::new(
                    (i as f64 * 0.618_033_988_75) % 1.0,
                    (i as f64 * 0.754_877_666_25) % 1.0,
                ),
            )
        })
        .collect();
    let run = |dest: Point| {
        let mut cpm = cpm_monitor(32);
        let mut sea = SeaCnnMonitor::new(32);
        cpm.populate(objects.iter().copied());
        sea.populate(objects.iter().copied());
        let _ = cpm
            .install_spec(QueryId(0), PointQuery(Point::new(0.5, 0.5)), 2)
            .unwrap();
        sea.install_query(QueryId(0), Point::new(0.5, 0.5), 2);
        cpm.take_metrics();
        sea.take_metrics();
        let mv = [QueryEvent::Move {
            id: QueryId(0),
            to: dest,
        }];
        cpm.process_cycle(&[], &mv.map(SpecEvent::from)).unwrap();
        sea.process_cycle(&[], &mv);
        (
            cpm.metrics().objects_processed,
            sea.metrics().objects_processed,
        )
    };
    let (_, sea_near) = run(Point::new(0.52, 0.52));
    let (_, sea_far) = run(Point::new(0.80, 0.78));
    assert!(
        sea_far > sea_near,
        "SEA-CNN's search region grows with query displacement: {sea_near} -> {sea_far}"
    );
}

/// Section 4.2 summary: "the speed of the objects does not affect the
/// running time of CPM since update handling is restricted to the
/// influence regions of the queries" — counter version with a single
/// update of varying length that never touches the influence region.
#[test]
fn far_updates_are_completely_ignored() {
    let objects = [
        (ObjectId(1), Point::new(0.50, 0.52)),
        (ObjectId(2), Point::new(0.48, 0.47)),
        (ObjectId(3), Point::new(0.05, 0.05)), // far away
    ];
    let mut cpm = cpm_monitor(32);
    cpm.populate(objects);
    let _ = cpm
        .install_spec(QueryId(0), PointQuery(Point::new(0.5, 0.5)), 2)
        .unwrap();
    cpm.take_metrics();
    // The far object jumps across the whole workspace, far from q.
    for dest in [Point::new(0.95, 0.05), Point::new(0.05, 0.95)] {
        let changed = cpm
            .process_cycle(
                &[ObjectEvent::Move {
                    id: ObjectId(3),
                    to: dest,
                }],
                &[],
            )
            .unwrap();
        assert!(changed.is_empty());
    }
    let m = cpm.metrics();
    assert_eq!(m.cell_accesses, 0);
    assert_eq!(m.objects_processed, 0);
    assert_eq!(m.merge_resolutions + m.recomputations, 0);
    assert_eq!(m.updates_applied, 2, "index updates still happen");
}
