//! Experiment parameters (Table 6.1) and scaling.

use cpm_gen::{SpeedClass, WorkloadConfig};

/// Which workload model drives a simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadKind {
    /// Brinkhoff-style network movement (the paper's setup, on a
    /// synthetic road network in place of the Oldenburg map; see
    /// [`cpm_gen::network`]).
    Network {
        /// Street-grid resolution per axis (`cols = rows`).
        grid_streets: u32,
    },
    /// Uniform random displacement (the Section 4.1 analysis model).
    Uniform,
    /// Gaussian-hotspot skew with drifting centers (the regime the paper
    /// flags for hierarchical grids).
    Skewed {
        /// Number of hotspots.
        hotspots: usize,
    },
    /// A single hotspot whose center moves every tick while the
    /// population breathes between `n_objects` and `n_objects ×
    /// peak_factor` (triangle wave over the run) — the adversary stream
    /// for online re-gridding ([`cpm_gen::drift`]).
    Drift {
        /// Peak population as a multiple of `n_objects`.
        peak_factor: f64,
    },
}

impl Default for WorkloadKind {
    fn default() -> Self {
        WorkloadKind::Network { grid_streets: 32 }
    }
}

/// One experiment point: Table 6.1 parameters plus harness settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimParams {
    /// Object population `N` (paper default 100K).
    pub n_objects: usize,
    /// Number of queries `n` (paper default 5K).
    pub n_queries: usize,
    /// Neighbors per query `k` (paper default 16).
    pub k: usize,
    /// Object speed (paper default medium).
    pub object_speed: SpeedClass,
    /// Query speed (paper default medium).
    pub query_speed: SpeedClass,
    /// Object agility `f_obj` (paper default 50%).
    pub f_obj: f64,
    /// Query agility `f_qry` (paper default 30%).
    pub f_qry: f64,
    /// Grid granularity per axis (paper default 128).
    pub grid_dim: u32,
    /// Simulation length in timestamps (paper: 100).
    pub timestamps: usize,
    /// Workload model.
    pub workload: WorkloadKind,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SimParams {
    /// The paper's defaults (Table 6.1), full scale.
    fn default() -> Self {
        Self {
            n_objects: 100_000,
            n_queries: 5_000,
            k: 16,
            object_speed: SpeedClass::Medium,
            query_speed: SpeedClass::Medium,
            f_obj: 0.5,
            f_qry: 0.3,
            grid_dim: 128,
            timestamps: 100,
            workload: WorkloadKind::default(),
            seed: 2005,
        }
    }
}

impl SimParams {
    /// The paper's default parameters at a reduced scale factor:
    /// `scale ∈ (0, 1]` multiplies `N`, `n` and the timestamp count, and
    /// the grid by `√scale` per axis (at least 8), so cells keep Table
    /// 6.1's ~6 objects — the operating regime every figure's shape
    /// depends on — at laptop-friendly runtimes.
    pub fn scaled(scale: f64) -> Self {
        let base = Self::default();
        assert!(scale > 0.0 && scale <= 1.0, "scale out of range");
        Self {
            n_objects: ((base.n_objects as f64 * scale) as usize).max(100),
            n_queries: ((base.n_queries as f64 * scale) as usize).max(10),
            grid_dim: ((f64::from(base.grid_dim) * scale.sqrt()).round() as u32).max(8),
            timestamps: ((base.timestamps as f64 * scale.max(0.2)) as usize).max(10),
            ..base
        }
    }

    /// Convert into the generator configuration.
    pub fn workload_config(&self) -> WorkloadConfig {
        WorkloadConfig {
            n_objects: self.n_objects,
            n_queries: self.n_queries,
            k: self.k,
            object_speed: self.object_speed,
            query_speed: self.query_speed,
            f_obj: self.f_obj,
            f_qry: self.f_qry,
            seed: self.seed,
        }
    }

    /// Cell side `δ = 1/grid_dim`.
    pub fn delta(&self) -> f64 {
        1.0 / self.grid_dim as f64
    }

    /// The matching analytical model of Section 4.1.
    pub fn cost_model(&self) -> cpm_core::CostModel {
        cpm_core::CostModel {
            n_objects: self.n_objects,
            n_queries: self.n_queries,
            k: self.k,
            delta: self.delta(),
            f_obj: self.f_obj,
            f_qry: self.f_qry,
            skew: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_6_1() {
        let p = SimParams::default();
        assert_eq!(p.n_objects, 100_000);
        assert_eq!(p.n_queries, 5_000);
        assert_eq!(p.k, 16);
        assert_eq!(p.object_speed, SpeedClass::Medium);
        assert_eq!(p.f_obj, 0.5);
        assert_eq!(p.f_qry, 0.3);
        assert_eq!(p.grid_dim, 128);
        assert_eq!(p.timestamps, 100);
    }

    #[test]
    fn scaling_preserves_ratios_and_floors() {
        let p = SimParams::scaled(0.1);
        assert_eq!(p.n_objects, 10_000);
        assert_eq!(p.n_queries, 500);
        assert!(p.timestamps >= 10);
        let tiny = SimParams::scaled(0.0001);
        assert!(tiny.n_objects >= 100);
        assert!(tiny.n_queries >= 10);
        assert!(tiny.grid_dim >= 8);
    }

    #[test]
    fn scaling_keeps_table_6_1_occupancy() {
        let per_cell = |p: SimParams| p.n_objects as f64 / f64::from(p.grid_dim).powi(2);
        let paper = per_cell(SimParams::default());
        assert!((paper - 6.1).abs() < 0.01);
        for scale in [1.0, 0.25, 0.1, 0.01] {
            let got = per_cell(SimParams::scaled(scale));
            assert!(
                got > paper / 2.0 && got < paper * 2.0,
                "scale {scale}: {got} objects per cell"
            );
        }
    }
}
