//! Online re-gridding policy: when should the engine change its cell side
//! `δ`?
//!
//! The Section 4.1 cost model makes CPM's per-cycle cost an explicit
//! function of `δ` given the observed workload (object count `N`, query
//! count `n`, result size `k`, agilities `f_obj`/`f_qry`) — yet a grid
//! built at a fixed `δ` serves a workload that grows, shrinks or drifts at
//! a stale resolution forever. [`RegridPolicy`] closes that loop:
//!
//! * [`RegridPolicy::Manual`] — never re-grid automatically; the operator
//!   calls `regrid_to` explicitly.
//! * [`RegridPolicy::Auto`] — at cycle boundaries (every `check_every`
//!   cycles, the policy's one setting), plug the *observed* workload into
//!   the [`CostModel`], find the power-of-two resolution in
//!   [`MIN_DIM`]`..=`[`MAX_DIM`] minimizing the predicted per-cycle cost,
//!   and re-grid when the predicted improvement clears the
//!   [`HYSTERESIS`] factor — so an oscillating load sitting near a
//!   cost-curve crossover does not thrash — and a cooldown of
//!   `2 × check_every` cycles has elapsed since the last re-grid.
//!
//! Agilities are not knowable a priori, so the engine feeds every cycle's
//! event-batch sizes into the policy's per-engine controller, which keeps
//! exponential moving averages of `f_obj` and `f_qry`. All controller
//! inputs are functions of the update stream and the engine's own state —
//! never of thread scheduling — so engines make **identical decisions at
//! every thread count**, keeping the server's determinism contract across
//! thread counts.
//!
//! The paper's uniform-data model alone *underestimates* the benefit of
//! refining under skew: cell occupancy near a hotspot is far above
//! `N·δ²`, so a concentration spike that leaves `N` unchanged looks free.
//! The controller therefore also folds the grid's occupancy signals
//! ([`cpm_grid::GridStats`]: hot-cell maximum and occupied-cell count,
//! both counted by the index's per-batch sort) into a **skew EMA**. Only
//! skew beyond [`SKEW_THRESHOLD`] reaches the model — a dead band that
//! keeps mildly non-uniform workloads on the paper-exact uniform
//! prediction — and the hysteresis bar still applies on top, so the
//! policy errs toward staying put, never toward thrashing.

use std::num::NonZeroU64;

use crate::analysis::CostModel;
use cpm_grid::GridStats;

/// Smallest resolution (cells per axis) the auto policy picks.
pub const MIN_DIM: u32 = 16;
/// Largest resolution (cells per axis) the auto policy picks: the
/// paper's largest evaluated granularity.
pub const MAX_DIM: u32 = 1024;
/// The auto policy re-grids only when the predicted cost at the current
/// `δ` is at least this factor above the predicted cost at the candidate.
pub const HYSTERESIS: f64 = 1.2;
/// Observed-skew dead band: the skew EMA is divided by this threshold
/// (floored at 1) before it reaches the cost model, so only concentration
/// beyond it — a real hotspot, not sampling noise — can move the grid.
pub const SKEW_THRESHOLD: f64 = 4.0;

/// [`RegridPolicy::auto`]'s evaluation period, in processing cycles.
const DEFAULT_CHECK_EVERY: NonZeroU64 = NonZeroU64::new(8).unwrap();

/// EMA smoothing for the observed agilities.
const AGILITY_ALPHA: f64 = 0.25;

/// Cap on the instantaneous skew observation: one pathological cycle
/// (e.g. a near-empty grid) cannot swing the EMA arbitrarily.
const SKEW_CLAMP_MAX: f64 = 64.0;

/// Minimum number of cycles between two applied re-grids of an auto
/// policy evaluated every `check_every` cycles.
pub(crate) fn cooldown(check_every: NonZeroU64) -> u64 {
    check_every.get().saturating_mul(2)
}

/// When (if ever) an engine re-grids on its own; see the
/// [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RegridPolicy {
    /// Never re-grid automatically (the default). `regrid_to` remains
    /// available for operator-driven resolution changes.
    #[default]
    Manual,
    /// Cost-model-driven automatic re-gridding.
    Auto {
        /// Evaluate the model every this many processing cycles; at
        /// least twice as many separate two applied re-grids.
        check_every: NonZeroU64,
    },
}

impl RegridPolicy {
    /// The automatic policy, evaluated every 8 cycles.
    pub fn auto() -> Self {
        RegridPolicy::Auto {
            check_every: DEFAULT_CHECK_EVERY,
        }
    }

    /// `true` for [`RegridPolicy::Auto`].
    pub fn is_auto(&self) -> bool {
        matches!(self, RegridPolicy::Auto { .. })
    }
}

/// The per-engine decision state behind a [`RegridPolicy`]: observed
/// agilities plus the evaluation/cooldown clocks. Engines feed it once per
/// cycle and ask for a decision at the cycle boundary; everything it
/// computes is a deterministic function of the stream.
#[derive(Debug, Clone)]
pub(crate) struct RegridController {
    policy: RegridPolicy,
    /// EMA of the observed object agility `f_obj` (updates / N per cycle).
    f_obj: f64,
    /// EMA of the observed query agility `f_qry` (query events / n).
    f_qry: f64,
    /// EMA of the observed occupancy skew (hot-cell population over the
    /// uniform per-cell expectation); `1` = uniform.
    skew: f64,
    /// Whether the EMAs have seen at least one cycle.
    primed: bool,
    last_eval: u64,
    last_regrid: u64,
}

impl RegridController {
    /// A controller with the given policy and no observations yet.
    pub(crate) fn new(policy: RegridPolicy) -> Self {
        Self {
            policy,
            f_obj: 0.0,
            f_qry: 0.0,
            skew: 1.0,
            primed: false,
            last_eval: 0,
            last_regrid: 0,
        }
    }

    /// The active policy.
    pub(crate) fn policy(&self) -> &RegridPolicy {
        &self.policy
    }

    /// Replace the policy, keeping the observed agilities.
    pub(crate) fn set_policy(&mut self, policy: RegridPolicy) {
        self.policy = policy;
    }

    /// The controller's full decision state, for snapshot capture:
    /// `(f_obj EMA, f_qry EMA, skew EMA, primed, last_eval, last_regrid)`.
    pub(crate) fn export_state(&self) -> (f64, f64, f64, bool, u64, u64) {
        (
            self.f_obj,
            self.f_qry,
            self.skew,
            self.primed,
            self.last_eval,
            self.last_regrid,
        )
    }

    /// Overwrite the decision state with a captured snapshot (the inverse
    /// of [`RegridController::export_state`]); the policy is unchanged.
    pub(crate) fn import_state(&mut self, state: (f64, f64, f64, bool, u64, u64)) {
        (
            self.f_obj,
            self.f_qry,
            self.skew,
            self.primed,
            self.last_eval,
            self.last_regrid,
        ) = state;
    }

    /// Fold one cycle's event-batch sizes into the agility EMAs.
    pub(crate) fn observe_cycle(
        &mut self,
        object_events: usize,
        query_events: usize,
        n_objects: usize,
        n_queries: usize,
    ) {
        let f_obj = object_events as f64 / n_objects.max(1) as f64;
        let f_qry = query_events as f64 / n_queries.max(1) as f64;
        if self.primed {
            self.f_obj += AGILITY_ALPHA * (f_obj - self.f_obj);
            self.f_qry += AGILITY_ALPHA * (f_qry - self.f_qry);
        } else {
            self.f_obj = f_obj;
            self.f_qry = f_qry;
            self.primed = true;
        }
    }

    /// Fold one cycle's grid-occupancy snapshot into the skew EMA. The
    /// instantaneous observation is the hot cell's population over the
    /// uniform per-cell expectation `live / total_cells`, clamped to
    /// `[1, 64]` so a near-empty grid cannot swing the average; empty
    /// grids are skipped. The index's sort counts [`GridStats`], so
    /// engines can afford to call this every cycle.
    pub(crate) fn observe_occupancy(&mut self, stats: GridStats) {
        if stats.live_objects == 0 || stats.total_cells == 0 {
            return;
        }
        let uniform_per_cell = stats.live_objects as f64 / stats.total_cells as f64;
        let observed = (stats.hot_cell_max as f64 / uniform_per_cell).clamp(1.0, SKEW_CLAMP_MAX);
        self.skew += AGILITY_ALPHA * (observed - self.skew);
    }

    /// The skew EMA (`1` = uniform occupancy).
    #[cfg(test)]
    fn observed_skew(&self) -> f64 {
        self.skew
    }

    /// The skew factor the cost model actually sees: the EMA divided by
    /// [`SKEW_THRESHOLD`], floored at 1. Manual policies stay on the
    /// uniform model.
    fn effective_skew(&self) -> f64 {
        match self.policy {
            RegridPolicy::Auto { .. } => (self.skew / SKEW_THRESHOLD).max(1.0),
            RegridPolicy::Manual => 1.0,
        }
    }

    /// The cost model for the current observation at cell side
    /// `1/dim` — also what diagnostics and tests inspect.
    pub(crate) fn model(
        &self,
        n_objects: usize,
        n_queries: usize,
        avg_k: usize,
        dim: u32,
    ) -> CostModel {
        CostModel {
            n_objects,
            n_queries,
            k: avg_k.max(1),
            delta: 1.0 / dim as f64,
            // Floors keep the model's δ-sensitive terms alive on quiet
            // streams: a fully static query set still pays recomputations
            // through merge failures, which the pure model prices at zero.
            f_obj: self.f_obj.clamp(0.01, 1.0),
            f_qry: self.f_qry.clamp(0.05, 1.0),
            skew: self.effective_skew(),
        }
    }

    /// Evaluate the policy at a cycle boundary (`epoch` = completed
    /// cycles). Returns the resolution to re-grid to, or `None` to stay
    /// put. Callers apply the returned dimension immediately; the
    /// controller assumes they do (it starts the cooldown clock).
    pub(crate) fn decide(
        &mut self,
        epoch: u64,
        n_objects: usize,
        n_queries: usize,
        avg_k: usize,
        current_dim: u32,
    ) -> Option<u32> {
        let RegridPolicy::Auto { check_every } = self.policy else {
            return None;
        };
        if epoch < self.last_eval.saturating_add(check_every.get()) {
            return None;
        }
        self.last_eval = epoch;
        if n_objects == 0 || n_queries == 0 {
            return None;
        }
        let current = self.model(n_objects, n_queries, avg_k, current_dim);
        let best_dim = current.optimal_dim(MIN_DIM, MAX_DIM);
        if best_dim == current_dim {
            return None;
        }
        let best = CostModel {
            delta: 1.0 / best_dim as f64,
            ..current
        };
        if current.time_cycle() < HYSTERESIS * best.time_cycle() {
            return None;
        }
        if self.last_regrid != 0 && epoch < self.last_regrid.saturating_add(cooldown(check_every)) {
            return None;
        }
        self.last_regrid = epoch;
        Some(best_dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_never_decides() {
        let mut c = RegridController::new(RegridPolicy::Manual);
        c.observe_cycle(500, 10, 1_000, 50);
        assert_eq!(c.decide(100, 1_000, 50, 8, 16), None);
        assert!(!c.policy().is_auto());
    }

    #[test]
    fn auto_moves_toward_the_model_optimum() {
        let mut c = RegridController::new(RegridPolicy::auto());
        // Prime agilities: half the objects and a third of the queries
        // move per cycle (the paper's defaults).
        for _ in 0..4 {
            c.observe_cycle(50_000, 1_500, 100_000, 5_000);
        }
        // A 16² grid is far too coarse for 100K objects; the model must
        // ask for a much finer resolution.
        let dim = c
            .decide(100, 100_000, 5_000, 16, 16)
            .expect("gross mismatch must trigger a re-grid");
        assert!(dim >= 64, "picked {dim}");
        // Immediately after, the cooldown of two evaluation periods blocks
        // another re-grid at the next evaluation point, not at the one
        // after it.
        assert_eq!(c.decide(108, 100_000, 5_000, 16, 16), None);
        assert!(c.decide(116, 100_000, 5_000, 16, 16).is_some());
    }

    #[test]
    fn hysteresis_holds_near_the_crossover() {
        let mut c = RegridController::new(RegridPolicy::auto());
        c.observe_cycle(500, 15, 1_000, 50);
        // Find the model's optimum, then sit one power of two away: the
        // predicted gain is small, so the dead band must hold.
        let opt = c.model(1_000, 50, 8, 64).optimal_dim(MIN_DIM, MAX_DIM);
        let near = if opt > MIN_DIM { opt / 2 } else { opt * 2 };
        let current = c.model(1_000, 50, 8, near);
        let best = c.model(1_000, 50, 8, opt);
        if current.time_cycle() < HYSTERESIS * best.time_cycle() {
            assert_eq!(
                c.decide(100, 1_000, 50, 8, near),
                None,
                "thrashed at {near}"
            );
        }
    }

    #[test]
    fn evaluation_respects_check_every() {
        let mut c = RegridController::new(RegridPolicy::Auto {
            check_every: NonZeroU64::new(10).unwrap(),
        });
        c.observe_cycle(50_000, 1_500, 100_000, 5_000);
        assert_eq!(c.decide(9, 100_000, 5_000, 16, 16), None, "too early");
        assert!(c.decide(10, 100_000, 5_000, 16, 16).is_some());
    }

    #[test]
    fn empty_workloads_never_regrid() {
        let mut c = RegridController::new(RegridPolicy::auto());
        c.observe_cycle(0, 0, 0, 0);
        assert_eq!(c.decide(100, 0, 5, 8, 16), None);
        assert_eq!(c.decide(200, 1_000, 0, 8, 16), None);
    }

    fn stats(total_cells: usize, live_objects: usize, hot_cell_max: usize) -> GridStats {
        GridStats {
            total_cells,
            occupied_cells: total_cells.min(live_objects),
            live_objects,
            hot_cell_max,
        }
    }

    #[test]
    fn mild_skew_stays_inside_the_dead_band() {
        let mut c = RegridController::new(RegridPolicy::auto());
        c.observe_cycle(500, 15, 1_000, 50);
        for _ in 0..32 {
            // Hot cell at 2× the uniform expectation: below
            // SKEW_THRESHOLD, so the model must stay paper-exact.
            c.observe_occupancy(stats(256, 1_024, 8));
        }
        assert!(c.observed_skew() > 1.5, "EMA should track the stream");
        let skew = c.model(1_000, 50, 8, 16).skew;
        assert!((skew - 1.0).abs() < 1e-12, "dead band breached: {skew}");
    }

    #[test]
    fn a_concentration_spike_can_trigger_refinement_alone() {
        // Two controllers, identical agilities and population; only the
        // occupancy stream differs.
        let mut uniform = RegridController::new(RegridPolicy::auto());
        let mut skewed = RegridController::new(RegridPolicy::auto());
        for _ in 0..4 {
            uniform.observe_cycle(4_096, 154, 8_192, 512);
            skewed.observe_cycle(4_096, 154, 8_192, 512);
            // Hot cell at 2× uniform expectation: inside the dead band.
            uniform.observe_occupancy(stats(4_096, 8_192, 4));
            // Everything piled into a handful of cells.
            skewed.observe_occupancy(stats(4_096, 8_192, 2_048));
        }
        let base = uniform.decide(100, 8_192, 512, 8, 64);
        let hot = skewed.decide(100, 8_192, 512, 8, 64);
        assert!(
            skewed.observed_skew() > uniform.observed_skew(),
            "skew EMA must separate the lanes"
        );
        let d_u = base.unwrap_or(64);
        let d_s = hot.unwrap_or(64);
        assert!(d_s > d_u, "hotspot must refine further: {d_u} vs {d_s}");
    }

    #[test]
    fn observe_occupancy_clamps_and_skips_degenerate_grids() {
        let mut c = RegridController::new(RegridPolicy::auto());
        c.observe_occupancy(stats(256, 0, 0)); // empty: skipped
        assert!((c.observed_skew() - 1.0).abs() < 1e-12);
        for _ in 0..200 {
            // 2 objects, one cell holds both: raw ratio would be 128.
            c.observe_occupancy(stats(256, 2, 2));
        }
        assert!(c.observed_skew() <= SKEW_CLAMP_MAX + 1e-9, "clamp failed");
    }

    #[test]
    fn agility_ema_tracks_the_stream() {
        let mut c = RegridController::new(RegridPolicy::auto());
        c.observe_cycle(100, 0, 1_000, 10);
        let m = c.model(1_000, 10, 8, 64);
        assert!((m.f_obj - 0.1).abs() < 1e-12);
        // A jump moves the EMA partway, not all the way.
        c.observe_cycle(1_000, 0, 1_000, 10);
        let m = c.model(1_000, 10, 8, 64);
        assert!(m.f_obj > 0.1 && m.f_obj < 1.0);
    }
}
