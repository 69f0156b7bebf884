//! The closed-form cost model of Section 4.1.
//!
//! Under a uniformity assumption (objects and queries uniform in the unit
//! square), the paper derives estimates for the quantities that govern
//! CPM's space and time costs as functions of the cell side `δ`:
//!
//! * `best_dist ≈ √(k / (π·N))` — radius of the circle `Θ_q` expected to
//!   contain exactly `k` objects;
//! * `C_inf ≈ π·⌈best_dist/δ⌉²` — cells in the influence region;
//! * `O_inf = C_inf · N · δ²` — objects in those cells;
//! * `C_SH ≈ 4·⌈best_dist/δ⌉²` — cells held in the visit list + search
//!   heap.
//!
//! From these follow the space budget (`Space_CPM = 3N +
//! n·(15 + 2k + 3·C_SH + C_inf)` memory units) and the per-cycle time model
//! (`Time_CPM = 2·N·f_obj + n·f_qry·(C_SH·log C_SH + O_inf·log k + 2·C_inf)
//! + n·(1−f_qry)·k·log k` abstract operations).
//!
//! The `analysis` experiment (`experiments analysis`) compares these
//! predictions against measured values from live monitors — the Figure
//! 4.1 discussion made quantitative.

/// Parameters of the analytical model (Table 6.1 symbols).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Number of objects `N`.
    pub n_objects: usize,
    /// Number of queries `n`.
    pub n_queries: usize,
    /// Neighbors monitored per query `k`.
    pub k: usize,
    /// Cell side `δ` (grid is `1/δ × 1/δ`).
    pub delta: f64,
    /// Fraction of objects issuing an update per cycle (`f_obj ∈ [0,1]`).
    pub f_obj: f64,
    /// Fraction of queries issuing an update per cycle (`f_qry ∈ [0,1]`).
    pub f_qry: f64,
    /// Occupancy-concentration factor (`skew ≥ 1`): the ratio between the
    /// population of the cells a query actually visits and the uniform
    /// expectation `N·δ²`. `1` is the paper's uniformity assumption
    /// (Section 4.1); the re-grid controller raises it from observed
    /// [`cpm_grid::GridStats`] so a hotspot's true per-cell load — not
    /// just `N` — shapes the predicted cost.
    pub skew: f64,
}

impl CostModel {
    /// Expected `best_dist` for uniform data: the ratio of the area of
    /// `Θ_q` to the workspace equals `k/N`, so `best_dist = √(k/(π·N))`.
    pub fn best_dist(&self) -> f64 {
        (self.k as f64 / (std::f64::consts::PI * self.n_objects as f64)).sqrt()
    }

    /// Influence-circle radius in cells: `⌈best_dist/δ⌉`.
    pub fn radius_cells(&self) -> f64 {
        (self.best_dist() / self.delta).ceil()
    }

    /// `C_inf ≈ π·⌈best_dist/δ⌉²`: cells in the influence region.
    pub fn c_inf(&self) -> f64 {
        std::f64::consts::PI * self.radius_cells().powi(2)
    }

    /// `O_inf = C_inf·N·δ²·skew`: objects in the influence region (each
    /// cell holds `N·δ²` objects on average under uniformity; `skew`
    /// scales that for concentrated populations). Approaches `k` as
    /// `δ → 0`.
    pub fn o_inf(&self) -> f64 {
        self.c_inf() * self.n_objects as f64 * self.delta * self.delta * self.skew
    }

    /// `C_SH ≈ 4·⌈best_dist/δ⌉²`: cells kept in the visit list and search
    /// heap combined (the circumscribed square of `Θ_q`).
    pub fn c_sh(&self) -> f64 {
        4.0 * self.radius_cells().powi(2)
    }

    /// Grid-side space: `Space_G = 3·N + n·C_inf` memory units.
    pub fn space_grid(&self) -> f64 {
        3.0 * self.n_objects as f64 + self.n_queries as f64 * self.c_inf()
    }

    /// Query-table space: `Space_QT = n·(15 + 2k + 3·C_SH)` memory units
    /// (per entry: 3 for id + coordinates, `2k` for the result,
    /// `3·(C_SH + 4)` for visit list + heap incl. four boundary boxes).
    pub fn space_query_table(&self) -> f64 {
        self.n_queries as f64 * (15.0 + 2.0 * self.k as f64 + 3.0 * self.c_sh())
    }

    /// Total space `Space_CPM = Space_G + Space_QT`.
    pub fn space_total(&self) -> f64 {
        self.space_grid() + self.space_query_table()
    }

    /// `Time_mq = C_SH·log C_SH + O_inf·log k + 2·C_inf`: abstract cost of
    /// one NN computation (moving or new query).
    pub fn time_moving_query(&self) -> f64 {
        let c_sh = self.c_sh().max(2.0);
        let logk = (self.k as f64).max(2.0).log2();
        c_sh * c_sh.log2() + self.o_inf() * logk + 2.0 * self.c_inf()
    }

    /// `Time_sq = k·log k`: worst-case result maintenance for a static
    /// query under uniform drift (as many incomers as outgoers).
    pub fn time_static_query(&self) -> f64 {
        let k = self.k as f64;
        k * k.max(2.0).log2()
    }

    /// Per-cycle total:
    /// `Time_CPM = 2·N·f_obj + n·f_qry·Time_mq + n·(1−f_qry)·Time_sq`.
    pub fn time_cycle(&self) -> f64 {
        2.0 * self.n_objects as f64 * self.f_obj
            + self.n_queries as f64 * self.f_qry * self.time_moving_query()
            + self.n_queries as f64 * (1.0 - self.f_qry) * self.time_static_query()
    }

    /// The power-of-two grid resolution in `[min_dim, max_dim]` minimizing
    /// the predicted per-cycle cost [`CostModel::time_cycle`] for this
    /// model's workload (its own `delta` is ignored). Ties break toward
    /// the coarser grid, which is also the cheaper one in space.
    ///
    /// This is the Figure 4.1 discussion made operational: it is what the
    /// adaptive re-grid policy ([`crate::RegridPolicy::Auto`]) evaluates
    /// at cycle boundaries.
    ///
    /// # Panics
    /// Panics unless `1 ≤ min_dim ≤ max_dim ≤ 4096`.
    pub fn optimal_dim(&self, min_dim: u32, max_dim: u32) -> u32 {
        assert!(
            min_dim >= 1 && min_dim <= max_dim && max_dim <= 4096,
            "dim range out of bounds: [{min_dim}, {max_dim}]"
        );
        let mut best = (min_dim, f64::INFINITY);
        let mut dim = min_dim;
        loop {
            let candidate = CostModel {
                delta: 1.0 / dim as f64,
                ..*self
            };
            let cost = candidate.time_cycle();
            if cost < best.1 {
                best = (dim, cost);
            }
            match dim.checked_mul(2) {
                Some(next) if next <= max_dim => dim = next,
                _ => break,
            }
        }
        best.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(delta: f64) -> CostModel {
        CostModel {
            n_objects: 100_000,
            n_queries: 5_000,
            k: 16,
            delta,
            f_obj: 0.5,
            f_qry: 0.3,
            skew: 1.0,
        }
    }

    #[test]
    fn best_dist_contains_k_objects_in_expectation() {
        let m = model(1.0 / 128.0);
        let bd = m.best_dist();
        // Area of the circle × N == k.
        let expected = std::f64::consts::PI * bd * bd * m.n_objects as f64;
        assert!((expected - m.k as f64).abs() < 1e-9);
    }

    #[test]
    fn figure_4_1_shape_small_delta_many_cells_few_objects() {
        // Figure 4.1: small δ → many influence cells, O_inf → k;
        // large δ → few cells, many objects.
        let fine = model(1.0 / 1024.0);
        let coarse = model(1.0 / 32.0);
        assert!(fine.c_inf() > coarse.c_inf());
        assert!(fine.o_inf() < coarse.o_inf());
        // O_inf approaches k from above as δ shrinks.
        assert!(fine.o_inf() >= fine.k as f64);
        assert!(fine.o_inf() < 2.0 * fine.k as f64);
    }

    #[test]
    fn space_is_inverse_quadratic_in_delta() {
        // Halving δ should roughly quadruple the per-query cell costs.
        let a = model(1.0 / 256.0);
        let b = model(1.0 / 512.0);
        let ratio = (b.c_inf() / a.c_inf()).sqrt();
        assert!((ratio - 2.0).abs() < 0.35, "ratio {ratio}");
        assert!(b.space_total() > a.space_total());
    }

    #[test]
    fn time_cycle_splits_match_components() {
        let m = model(1.0 / 128.0);
        let manual = 2.0 * 100_000.0 * 0.5
            + 5_000.0 * 0.3 * m.time_moving_query()
            + 5_000.0 * 0.7 * m.time_static_query();
        assert!((m.time_cycle() - manual).abs() < 1e-6);
    }

    #[test]
    fn optimal_dim_refines_as_the_population_grows() {
        let small = CostModel {
            n_objects: 2_000,
            ..model(1.0)
        };
        let large = CostModel {
            n_objects: 200_000,
            ..model(1.0)
        };
        let d_small = small.optimal_dim(16, 1024);
        let d_large = large.optimal_dim(16, 1024);
        assert!(
            d_large > d_small,
            "optimum must refine: {d_small} vs {d_large}"
        );
        // The optimum is genuinely the argmin over the sweep.
        for dim in [16u32, 32, 64, 128, 256, 512, 1024] {
            let candidate = CostModel {
                delta: 1.0 / dim as f64,
                ..large
            };
            let opt = CostModel {
                delta: 1.0 / d_large as f64,
                ..large
            };
            assert!(
                opt.time_cycle() <= candidate.time_cycle(),
                "beaten by {dim}"
            );
        }
        // A degenerate one-point range returns its only member.
        assert_eq!(large.optimal_dim(64, 64), 64);
    }

    #[test]
    fn skew_inflates_o_inf_and_refines_the_optimum() {
        // N and k are chosen so ⌈best_dist/δ⌉ crosses 1 → 2 → 3 over
        // dims 32 → 64 → 128: the non-doubling step at 128 means a finer
        // grid genuinely sheds influence objects (at a C_SH price), so
        // the argmin is skew-sensitive rather than plateaued.
        let uniform = CostModel {
            n_objects: 8_192,
            n_queries: 512,
            k: 8,
            delta: 1.0 / 64.0,
            f_obj: 0.5,
            f_qry: 0.3,
            skew: 1.0,
        };
        let skewed = CostModel {
            skew: 32.0,
            ..uniform
        };
        assert!((skewed.o_inf() - 32.0 * uniform.o_inf()).abs() < 1e-9);
        assert!(skewed.time_cycle() > uniform.time_cycle());
        // A concentrated population makes coarse cells more expensive to
        // scan, so the argmin moves toward a finer grid.
        let d_u = uniform.optimal_dim(16, 1024);
        let d_s = skewed.optimal_dim(16, 1024);
        assert!(d_s > d_u, "skew must refine: {d_u} vs {d_s}");
    }

    #[test]
    fn cost_grows_with_agility_and_population() {
        let base = model(1.0 / 128.0);
        let mut busier = base;
        busier.f_obj = 0.9;
        assert!(busier.time_cycle() > base.time_cycle());
        let mut bigger = base;
        bigger.n_objects = 200_000;
        assert!(bigger.time_cycle() > base.time_cycle());
    }
}
