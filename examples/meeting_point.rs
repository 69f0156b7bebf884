//! Aggregate-NN monitoring (Section 5): where should a group meet?
//!
//! Four friends walk through the city while the system continuously
//! reports the cafe minimizing (a) the total walking distance (`sum`) and
//! (b) the latest arrival time (`max`), plus the cafe closest to *anyone*
//! (`min`).
//!
//! Run with: `cargo run --release --example meeting_point`

use std::num::NonZeroUsize;

use cpm_suite::core::{AggregateFn, AnnQuery, CpmServer, CpmServerBuilder, SpecEvent};
use cpm_suite::geom::{ObjectId, Point, QueryId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One query per aggregate, addressed by its position here.
const AGGREGATES: [AggregateFn; 3] = [AggregateFn::Sum, AggregateFn::Max, AggregateFn::Min];

fn main() {
    let mut rng = StdRng::seed_from_u64(42);

    // 120 cafes scattered over the city (the data objects). Cafes are
    // static, so the update streams are query-side only.
    let mut monitor = CpmServerBuilder::new(64).threads(NonZeroUsize::MIN).build();
    monitor.populate((0..120u32).map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen()))));

    // Four friends start in different corners.
    let mut friends = vec![
        Point::new(0.1, 0.1),
        Point::new(0.9, 0.15),
        Point::new(0.85, 0.9),
        Point::new(0.12, 0.82),
    ];

    // One aggregate query per function, all on the one grid.
    for (i, &f) in AGGREGATES.iter().enumerate() {
        let _ = monitor
            .install_spec(QueryId(i as u32), AnnQuery::new(friends.clone(), f), 1)
            .expect("fresh query id");
    }

    println!("step | best sum-cafe (total walk) | best max-cafe (latest arrival) | best min-cafe");
    report(0, &monitor);

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
        // The query set moved: a SpecEvent::Update per aggregate
        // re-anchors the conceptual partitioning around the new MBR.
        let updates: Vec<_> = AGGREGATES
            .iter()
            .enumerate()
            .map(|(i, &f)| SpecEvent::Update {
                id: QueryId(i as u32),
                spec: AnnQuery::new(friends.clone(), f).into(),
            })
            .collect();
        monitor
            .process_cycle(&[], &updates)
            .expect("one update per installed query");
        report(step, &monitor);
    }

    let metrics = monitor.metrics();
    println!(
        "{} cell accesses, {} objects processed over the walk",
        metrics.cell_accesses, metrics.objects_processed
    );
}

fn report(step: usize, monitor: &CpmServer) {
    let cell = |i: u32| {
        let n = &monitor.result(QueryId(i)).unwrap()[0];
        format!("cafe {:>3} ({:.3})", n.id.0, n.dist)
    };
    println!(
        "{step:>4} | {:>24} | {:>28} | {}",
        cell(0),
        cell(1),
        cell(2)
    );
}
