//! Constrained-NN monitoring (Section 5 / Figure 5.3): dispatch within a
//! service zone.
//!
//! A delivery hub may only assign couriers that are currently inside its
//! service zone (a rectangle); couriers outside the zone never qualify —
//! even when they are geometrically closer. The monitor keeps the 2
//! nearest *in-zone* couriers exact as everyone moves.
//!
//! Run with: `cargo run --release --example constrained_dispatch`

use std::num::NonZeroUsize;

use cpm_suite::core::{ConstrainedQuery, CpmServer, CpmServerBuilder};
use cpm_suite::geom::{ObjectId, Point, QueryId, Rect};
use cpm_suite::grid::ObjectEvent;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(2024);

    // 80 couriers around the city.
    let mut couriers: Vec<Point> = (0..80).map(|_| Point::new(rng.gen(), rng.gen())).collect();

    let mut monitor = CpmServerBuilder::new(64).threads(NonZeroUsize::MIN).build();
    monitor
        .populate(
            couriers
                .iter()
                .enumerate()
                .map(|(i, &p)| (ObjectId(i as u32), p)),
        )
        .expect("a valid initial population");

    // The hub sits at the zone's south-west gate; the service zone is the
    // north-east district.
    let hub = Point::new(0.55, 0.55);
    let zone = Rect::new(Point::new(0.5, 0.5), Point::new(0.95, 0.95));
    let q = QueryId(0);
    let _ = monitor
        .install_spec(q, ConstrainedQuery::new(hub, zone), 2)
        .expect("fresh query id");

    println!("hub at ({:.2}, {:.2}), zone [0.50,0.95]²", hub.x, hub.y);
    print_assignment(&monitor, q);

    // Couriers drift; some cross the zone boundary each step.
    for step in 1..=8 {
        let mut events = Vec::new();
        for (i, p) in couriers.iter_mut().enumerate() {
            let to = Point::new(
                (p.x + rng.gen_range(-0.06..0.06)).clamp(0.0, 0.999),
                (p.y + rng.gen_range(-0.06..0.06)).clamp(0.0, 0.999),
            );
            *p = to;
            events.push(ObjectEvent::Move {
                id: ObjectId(i as u32),
                to,
            });
        }
        let changed = monitor
            .process_cycle(&events, &[])
            .expect("one move per courier");
        println!("\nstep {step}: {} assignment change(s)", changed.len());
        print_assignment(&monitor, q);
    }

    let m = monitor.metrics();
    println!(
        "\ntotals: {} cell accesses, {} merge resolutions, {} re-computations",
        m.cell_accesses, m.merge_resolutions, m.recomputations
    );
}

fn print_assignment(monitor: &CpmServer, q: QueryId) {
    let result = monitor.result(q).unwrap();
    if result.is_empty() {
        println!("  no couriers inside the service zone!");
        return;
    }
    for (rank, n) in result.iter().enumerate() {
        println!(
            "  assignment #{}: courier {} at distance {:.4} (in-zone)",
            rank + 1,
            n.id.0,
            n.dist
        );
    }
}
