//! The unified `CpmServer` facade: mixed k-NN + range + constrained
//! queries on **one grid with one ingest pass per cycle**.
//!
//! A city dispatch platform serves three continuous-query products at
//! once over the same courier fleet:
//!
//! * a rider app showing the 3 nearest couriers (k-NN),
//! * a geofence alert on the stadium district (range),
//! * a delivery hub that may only assign in-zone couriers (constrained).
//!
//! With the old per-kind API that was three engines, three grids, and
//! three ingest passes over every movement batch; the server hosts all of
//! them on one grid, pays the batch once, and attributes the per-class
//! work in `Metrics::by_kind`.
//!
//! Run with: `cargo run --release --example unified_dispatch`

use cpm_suite::core::{ConstrainedQuery, CpmServerBuilder, PointQuery, RangeQuery};
use cpm_suite::geom::{ObjectId, Point, QueryId, Rect};
use cpm_suite::grid::{ObjectEvent, QueryKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(2026);

    // 120 couriers around the city.
    let mut couriers: Vec<Point> = (0..120).map(|_| Point::new(rng.gen(), rng.gen())).collect();

    let mut server = CpmServerBuilder::new(64).build();
    server
        .populate(
            couriers
                .iter()
                .enumerate()
                .map(|(i, &p)| (ObjectId(i as u32), p)),
        )
        .expect("a valid initial population");

    // One registry, three products, each addressed by its id: one
    // install call takes any query geometry.
    let (rider, stadium, hub) = (QueryId(0), QueryId(1), QueryId(2));
    server
        .install_spec(rider, PointQuery(Point::new(0.32, 0.68)), 3)
        .expect("fresh id");
    let geofence = RangeQuery::circle(Point::new(0.72, 0.30), 0.12);
    server
        .install_spec(stadium, geofence, RangeQuery::UNBOUNDED_K)
        .expect("fresh id");
    let zone = Rect::new(Point::new(0.5, 0.5), Point::new(0.95, 0.95));
    server
        .install_spec(hub, ConstrainedQuery::new(Point::new(0.55, 0.55), zone), 2)
        .expect("fresh id");

    println!(
        "one CpmServer, {} queries, one 64x64 grid",
        server.query_count()
    );

    for step in 1..=6 {
        // One movement batch for the whole city...
        let mut events = Vec::new();
        for (i, p) in couriers.iter_mut().enumerate() {
            let to = Point::new(
                (p.x + rng.gen_range(-0.05..0.05)).clamp(0.0, 0.999),
                (p.y + rng.gen_range(-0.05..0.05)).clamp(0.0, 0.999),
            );
            *p = to;
            events.push(ObjectEvent::Move {
                id: ObjectId(i as u32),
                to,
            });
        }
        // ...ingested exactly once for all three products.
        let changed = server.process_cycle(&events, &[]).expect("valid batch");
        println!("\nstep {step}: {} result change(s)", changed.len());

        let nearest = server.result(rider).expect("installed");
        println!(
            "  rider app: nearest couriers {:?}",
            nearest.iter().map(|n| n.id.0).collect::<Vec<_>>()
        );
        let inside = server.result(stadium).expect("installed");
        println!("  stadium geofence: {} courier(s) inside", inside.len());
        match server.result(hub).expect("installed").first() {
            Some(best) => println!(
                "  hub dispatch: courier {} at {:.3} (in-zone)",
                best.id.0, best.dist
            ),
            None => println!("  hub dispatch: no couriers inside the service zone!"),
        }
    }

    // The single ingest is visible in the metrics: updates_applied counts
    // each movement once, and by_kind attributes the query-side work.
    let m = server.take_metrics();
    println!(
        "\ntotals: {} updates ingested (once each), {} cell accesses",
        m.updates_applied, m.cell_accesses
    );
    for kind in [QueryKind::Knn, QueryKind::Range, QueryKind::Constrained] {
        let k = m.for_kind(kind);
        println!(
            "  {kind:>11}: {:>5} cells scanned, {:>4} merges, {:>3} recomputations",
            k.cell_accesses, k.merge_resolutions, k.recomputations
        );
    }
}
