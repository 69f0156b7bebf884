//! Aggregate-NN monitoring (Section 5): where should a group meet?
//!
//! Four friends walk through the city while the system continuously
//! reports the cafe minimizing (a) the total walking distance (`sum`) and
//! (b) the latest arrival time (`max`), plus the cafe closest to *anyone*
//! (`min`).
//!
//! Run with: `cargo run --release --example meeting_point`

use std::num::NonZeroUsize;

use cpm_suite::core::{AggregateFn, AnnQuery, ShardedCpmEngine, SpecEvent};
use cpm_suite::geom::{ObjectId, Point, QueryId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The engine over aggregate queries.
type AnnMonitor = ShardedCpmEngine<AnnQuery>;

fn main() {
    let mut rng = StdRng::seed_from_u64(42);

    // 120 cafes scattered over the city (the data objects).
    let cafes: Vec<(ObjectId, Point)> = (0..120u32)
        .map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen())))
        .collect();

    // One monitor per aggregate (each owns its grid; cafes are static so
    // the update streams are query-side only).
    let mut monitors = [
        (AggregateFn::Sum, AnnMonitor::new(64, NonZeroUsize::MIN)),
        (AggregateFn::Max, AnnMonitor::new(64, NonZeroUsize::MIN)),
        (AggregateFn::Min, AnnMonitor::new(64, NonZeroUsize::MIN)),
    ];

    // Four friends start in different corners.
    let mut friends = vec![
        Point::new(0.1, 0.1),
        Point::new(0.9, 0.15),
        Point::new(0.85, 0.9),
        Point::new(0.12, 0.82),
    ];

    let qid = QueryId(0);
    for (f, m) in monitors.iter_mut() {
        m.populate(cafes.iter().copied());
        m.install(qid, AnnQuery::new(friends.clone(), *f), 1)
            .expect("fresh query id");
    }

    println!("step | best sum-cafe (total walk) | best max-cafe (latest arrival) | best min-cafe");
    report(0, &monitors, qid);

    // The friends walk towards the center over ten steps, with drift.
    for step in 1..=10 {
        for p in friends.iter_mut() {
            let target = Point::new(0.5, 0.5);
            let jitter_x = rng.gen_range(-0.03..0.03);
            let jitter_y = rng.gen_range(-0.03..0.03);
            *p = Point::new(
                p.x + (target.x - p.x) * 0.2 + jitter_x,
                p.y + (target.y - p.y) * 0.2 + jitter_y,
            );
        }
        for (f, m) in monitors.iter_mut() {
            // The query set moved: a SpecEvent::Update re-anchors the
            // conceptual partitioning around the new MBR.
            m.process_cycle(
                &[],
                &[SpecEvent::Update {
                    id: qid,
                    spec: AnnQuery::new(friends.clone(), *f),
                }],
            );
        }
        report(step, &monitors, qid);
    }

    for (f, m) in &monitors {
        let metrics = m.metrics();
        println!(
            "{:?}: {} cell accesses, {} objects processed over the walk",
            f, metrics.cell_accesses, metrics.objects_processed
        );
    }
}

fn report(step: usize, monitors: &[(AggregateFn, AnnMonitor); 3], qid: QueryId) {
    let cell = |i: usize| {
        let (_, m) = &monitors[i];
        let n = &m.result(qid).unwrap()[0];
        format!("cafe {:>3} ({:.3})", n.id.0, n.dist)
    };
    println!(
        "{step:>4} | {:>24} | {:>28} | {}",
        cell(0),
        cell(1),
        cell(2)
    );
}
