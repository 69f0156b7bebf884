//! Pre-generated simulation inputs.
//!
//! To compare algorithms fairly, every contender must see the *identical*
//! update stream. [`SimulationInput::generate`] materializes the initial
//! placements and the per-timestamp event batches once; the runner then
//! replays them into each monitor. Workload generation cost (shortest
//! paths etc.) is thus paid once per experiment point and never pollutes
//! the timed sections.

use cpm_gen::{
    DriftConfig, DriftingHotspotWorkload, NetworkWorkload, RoadNetwork, SkewConfig, SkewedWorkload,
    TickEvents, UniformWorkload,
};
use cpm_geom::{ObjectId, Point, QueryId};

use crate::params::{SimParams, WorkloadKind};

/// A fully materialized simulation input.
#[derive(Debug, Clone)]
pub struct SimulationInput {
    /// Parameters this input was generated from.
    pub params: SimParams,
    /// Initial object placements.
    pub initial_objects: Vec<(ObjectId, Point)>,
    /// Initial queries `(id, position, k)`.
    pub initial_queries: Vec<(QueryId, Point, usize)>,
    /// One event batch per timestamp.
    pub ticks: Vec<TickEvents>,
}

impl SimulationInput {
    /// Generate the input stream for `params` (deterministic in
    /// `params.seed`).
    pub fn generate(params: &SimParams) -> Self {
        match params.workload {
            WorkloadKind::Network { grid_streets } => {
                let net = RoadNetwork::grid_city(
                    grid_streets,
                    grid_streets,
                    0.25,
                    0.15,
                    (grid_streets as usize) / 2,
                    params.seed ^ 0x006E_6574_776F_726B,
                );
                let mut w = NetworkWorkload::new(net, params.workload_config());
                let initial_objects = w.initial_objects().collect();
                let initial_queries = w.initial_queries().collect();
                let ticks = (0..params.timestamps).map(|_| w.tick()).collect();
                Self {
                    params: *params,
                    initial_objects,
                    initial_queries,
                    ticks,
                }
            }
            WorkloadKind::Uniform => {
                let mut w = UniformWorkload::new(params.workload_config());
                let initial_objects = w.initial_objects().collect();
                let initial_queries = w.initial_queries().collect();
                let ticks = (0..params.timestamps).map(|_| w.tick()).collect();
                Self {
                    params: *params,
                    initial_objects,
                    initial_queries,
                    ticks,
                }
            }
            WorkloadKind::Skewed { hotspots } => {
                let skew = SkewConfig {
                    hotspots,
                    ..SkewConfig::default()
                };
                let mut w = SkewedWorkload::new(params.workload_config(), skew);
                let initial_objects = w.initial_objects().collect();
                let initial_queries = w.initial_queries().collect();
                let ticks = (0..params.timestamps).map(|_| w.tick()).collect();
                Self {
                    params: *params,
                    initial_objects,
                    initial_queries,
                    ticks,
                }
            }
            WorkloadKind::Drift { peak_factor } => {
                let drift = DriftConfig {
                    peak_factor,
                    // One full breath (base → peak → base) per run.
                    ramp_ticks: (params.timestamps / 2).max(1),
                    ..DriftConfig::default()
                };
                let mut w = DriftingHotspotWorkload::new(params.workload_config(), drift);
                let initial_objects = w.initial_objects().collect();
                let initial_queries = w.initial_queries().collect();
                let ticks = (0..params.timestamps).map(|_| w.tick()).collect();
                Self {
                    params: *params,
                    initial_objects,
                    initial_queries,
                    ticks,
                }
            }
        }
    }

    /// Total number of object events across all ticks.
    pub fn total_object_events(&self) -> usize {
        self.ticks.iter().map(|t| t.object_events.len()).sum()
    }

    /// Total number of query events across all ticks.
    pub fn total_query_events(&self) -> usize {
        self.ticks.iter().map(|t| t.query_events.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: WorkloadKind) -> SimParams {
        SimParams {
            n_objects: 300,
            n_queries: 12,
            k: 4,
            timestamps: 15,
            grid_dim: 32,
            workload,
            ..SimParams::default()
        }
    }

    #[test]
    fn network_input_is_deterministic_and_sized() {
        let p = tiny(WorkloadKind::Network { grid_streets: 8 });
        let a = SimulationInput::generate(&p);
        let b = SimulationInput::generate(&p);
        assert_eq!(a.initial_objects, b.initial_objects);
        assert_eq!(a.ticks.len(), 15);
        assert_eq!(a.total_object_events(), b.total_object_events());
        assert_eq!(a.initial_queries.len(), 12);
        // Expected update volume ≈ N · f_obj · T (a respawn is one move).
        let expect = 300.0 * 0.5 * 15.0;
        let got = a.total_object_events() as f64;
        assert!(got > 0.6 * expect && got < 1.8 * expect, "volume {got}");
    }

    #[test]
    fn uniform_input_has_exact_move_events_only() {
        let p = tiny(WorkloadKind::Uniform);
        let input = SimulationInput::generate(&p);
        for tick in &input.ticks {
            for ev in &tick.object_events {
                assert!(matches!(ev, cpm_grid::ObjectEvent::Move { .. }));
            }
        }
    }
}
