//! Taxi-fleet dispatch: the workload the paper's introduction motivates.
//!
//! A fleet of taxis moves along a synthetic road network (Brinkhoff-style
//! generator). Dispatch terminals at busy locations continuously monitor
//! their k nearest taxis; terminals themselves relocate now and then (the
//! operator drags the map). CPM keeps every result exact while touching
//! only the updates that matter.
//!
//! Run with: `cargo run --release --example taxi_fleet`

use std::num::NonZeroUsize;

use cpm_suite::core::{AnyQuerySpec, CpmServerBuilder, PointQuery, SpecEvent};
use cpm_suite::gen::{NetworkWorkload, RoadNetwork, SpeedClass, WorkloadConfig};
use cpm_suite::geom::QueryId;

fn main() {
    let config = WorkloadConfig {
        n_objects: 4_000, // taxis
        n_queries: 60,    // dispatch terminals
        k: 5,
        object_speed: SpeedClass::Medium,
        query_speed: SpeedClass::Slow,
        f_obj: 0.6,
        f_qry: 0.1,
        seed: 7,
    };
    let network = RoadNetwork::grid_city(24, 24, 0.25, 0.15, 12, 1234);
    println!(
        "city network: {} intersections, {} street segments",
        network.node_count(),
        network.edge_count()
    );
    let mut workload = NetworkWorkload::new(network, config);

    let mut monitor = CpmServerBuilder::new(128)
        .threads(NonZeroUsize::MIN)
        .build();
    monitor
        .populate(workload.initial_objects())
        .expect("a valid initial population");
    for (qid, pos, k) in workload.initial_queries() {
        let _ = monitor
            .install_spec(qid, PointQuery(pos), k)
            .expect("fresh query id");
    }
    println!(
        "installed {} dispatch terminals monitoring {}-NN over {} taxis\n",
        config.n_queries, config.k, config.n_objects
    );

    let mut total_changes = 0usize;
    for minute in 1..=30 {
        let tick = workload.tick();
        // The generator speaks the paper's k-NN vocabulary; a query move
        // is a geometry update to the server.
        let query_events: Vec<SpecEvent<AnyQuerySpec>> =
            tick.query_events.iter().map(|&ev| ev.into()).collect();
        let changed = monitor
            .process_cycle(&tick.object_events, &query_events)
            .expect("the generator emits one event per taxi and terminal");
        total_changes += changed.len();
        if minute % 10 == 0 {
            let m = monitor.take_metrics();
            println!(
                "minute {minute:>2}: {:>5} taxi updates | {:>4} results changed \
                 | {:>5} cell accesses | {:>4} merges | {:>3} re-computations",
                m.updates_applied,
                changed.len(),
                m.cell_accesses,
                m.merge_resolutions,
                m.recomputations
            );
        }
    }

    // Show one terminal's current picture.
    let sample = QueryId(0);
    let at = monitor.query_state(sample).unwrap().spec.as_knn().unwrap();
    println!(
        "\nterminal {sample} at ({:.3}, {:.3}) — nearest taxis:",
        at.x, at.y
    );
    for (rank, n) in monitor.result(sample).unwrap().iter().enumerate() {
        println!("  #{}: taxi {} at {:.4}", rank + 1, n.id.0, n.dist);
    }
    println!(
        "\n30 minutes simulated; {total_changes} result updates pushed to terminals; \
         book-keeping footprint {} memory units",
        monitor.space_units()
    );
}
