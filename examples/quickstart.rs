//! Quickstart: monitor the 3 nearest vehicles around a point of interest
//! while everything moves.
//!
//! Run with: `cargo run --release --example quickstart`

use std::num::NonZeroUsize;

use cpm_suite::core::{CpmServer, CpmServerBuilder, PointQuery, SpecEvent};
use cpm_suite::geom::{ObjectId, Point, QueryId};
use cpm_suite::grid::ObjectEvent;

fn main() {
    // 1. A one-thread monitor over a 16×16 grid covering the unit-square
    //    city (a coarse grid keeps the book-keeping snapshot below
    //    readable; use 128+ for realistic workloads).
    let mut monitor = CpmServerBuilder::new(16).threads(NonZeroUsize::MIN).build();

    // 2. Initial vehicle positions (a small diagonal convoy plus strays).
    monitor
        .populate((0..10u32).map(|i| {
            let t = i as f64 / 10.0;
            (ObjectId(i), Point::new(0.05 + 0.9 * t, 0.1 + 0.8 * t * t))
        }))
        .expect("a valid initial population");

    // 3. A continuous 3-NN query at the city center.
    let poi = QueryId(0);
    let _ = monitor
        .install_spec(poi, PointQuery(Point::new(0.5, 0.5)), 3)
        .expect("fresh query id");
    println!("initial 3-NN around (0.50, 0.50):");
    print_result(&monitor, poi);

    // 4. Stream a few update cycles: vehicle 9 loops in towards the
    //    center while vehicle 0 leaves the city.
    for step in 1..=5 {
        let t = step as f64 / 5.0;
        let events = [
            ObjectEvent::Move {
                id: ObjectId(9),
                to: Point::new(0.95 - 0.45 * t, 0.9 - 0.42 * t),
            },
            ObjectEvent::Move {
                id: ObjectId(0),
                to: Point::new(0.05, 0.1 + 0.8 * t),
            },
        ];
        let changed = monitor
            .process_cycle(&events, &[])
            .expect("one live event per vehicle");
        println!("\ncycle {step}: {} result change(s)", changed.len());
        print_result(&monitor, poi);
    }

    // 5. The point of interest itself relocates (rush hour moves east).
    monitor
        .process_cycle(
            &[],
            &[SpecEvent::Update {
                id: poi,
                spec: PointQuery(Point::new(0.75, 0.55)).into(),
            }],
        )
        .expect("the query is installed");
    println!("\nafter the query moved to (0.75, 0.55):");
    print_result(&monitor, poi);

    let m = monitor.metrics();
    println!(
        "\nwork done: {} cell accesses, {} objects processed, \
         {} merge resolutions, {} re-computations",
        m.cell_accesses, m.objects_processed, m.merge_resolutions, m.recomputations
    );

    // A look inside: Q = query cell, # = influence region (the only cells
    // whose updates can affect the result), + = visit-list cells beyond
    // it, digits = objects elsewhere.
    println!(
        "\nbook-keeping snapshot:\n{}",
        cpm_suite::sim::viz::render_query(&monitor, poi).unwrap()
    );
}

fn print_result(monitor: &CpmServer, id: QueryId) {
    for (rank, n) in monitor.result(id).unwrap().iter().enumerate() {
        println!("  #{}: {} at distance {:.4}", rank + 1, n.id, n.dist);
    }
}
