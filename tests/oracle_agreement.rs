//! Cross-crate correctness: CPM, YPK-CNN and SEA-CNN must report exactly
//! the ground-truth k-NN distances at every timestamp, on every workload
//! shape the paper varies (Table 6.1 sweeps, scaled down).

use cpm_suite::gen::{SpeedClass, TickEvents};
use cpm_suite::geom::{ObjectId, Point};
use cpm_suite::grid::ObjectEvent;
use cpm_suite::sim::{verify_against_oracle, SimParams, SimulationInput, WorkloadKind};

fn base() -> SimParams {
    SimParams {
        n_objects: 400,
        n_queries: 15,
        k: 4,
        timestamps: 12,
        grid_dim: 32,
        workload: WorkloadKind::Network { grid_streets: 10 },
        ..SimParams::default()
    }
}

fn check(params: SimParams) {
    verify_against_oracle(&SimulationInput::generate(&params));
}

#[test]
fn default_network_workload() {
    check(base());
}

#[test]
fn uniform_workload() {
    check(SimParams {
        workload: WorkloadKind::Uniform,
        ..base()
    });
}

#[test]
fn skewed_workload() {
    check(SimParams {
        workload: WorkloadKind::Skewed { hotspots: 3 },
        ..base()
    });
    // Extreme pile-up: a single hotspot.
    check(SimParams {
        workload: WorkloadKind::Skewed { hotspots: 1 },
        ..base()
    });
}

#[test]
fn k_sweep() {
    for k in [1, 2, 8, 32] {
        check(SimParams { k, ..base() });
    }
}

#[test]
fn speed_sweep() {
    for speed in SpeedClass::ALL {
        check(SimParams {
            object_speed: speed,
            query_speed: speed,
            ..base()
        });
    }
}

#[test]
fn agility_extremes() {
    check(SimParams {
        f_obj: 1.0,
        f_qry: 1.0,
        ..base()
    });
    check(SimParams {
        f_obj: 0.05,
        f_qry: 0.0,
        ..base()
    });
}

#[test]
fn coarse_and_fine_grids() {
    for grid_dim in [4, 16, 64, 256] {
        check(SimParams { grid_dim, ..base() });
    }
}

#[test]
fn static_queries_moving_objects() {
    check(SimParams {
        f_qry: 0.0,
        f_obj: 0.8,
        ..base()
    });
}

#[test]
fn constantly_moving_queries() {
    check(SimParams {
        f_qry: 1.0,
        query_speed: SpeedClass::Fast,
        ..base()
    });
}

#[test]
fn tiny_population_large_k() {
    // k exceeds the population: all monitors must return partial results.
    let mut input = SimulationInput::generate(&SimParams {
        n_objects: 3,
        n_queries: 5,
        k: 8,
        ..base()
    });
    // Every object is then a member of every result, so one more batch
    // respawns a current result member: `Disappear` then `Appear` of the
    // same id (the generator's Brinkhoff life cycle), applied in order.
    input.ticks.push(TickEvents {
        object_events: vec![
            ObjectEvent::Disappear { id: ObjectId(0) },
            ObjectEvent::Appear {
                id: ObjectId(0),
                pos: Point::new(0.9, 0.1),
            },
        ],
        query_events: Vec::new(),
    });
    verify_against_oracle(&input);
}

#[test]
fn different_seeds() {
    for seed in [1, 99, 0xDEAD] {
        check(SimParams { seed, ..base() });
    }
}
