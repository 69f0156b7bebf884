//! A drifting-hotspot workload whose population breathes: the adversary
//! for online re-gridding.
//!
//! One Gaussian hotspot carries essentially the whole object population,
//! and its center **moves every tick** along a deterministic Lissajous
//! path — so density sweeps through the grid instead of pinning a few hot
//! cells. On top of the drift, the population follows a triangle wave
//! between a base and a peak count (objects appear around the hotspot on
//! the way up and disappear on the way down), which moves the
//! cost-model-optimal cell side `δ` during the run: a grid frozen at the
//! resolution right for the base population is badly mismatched at the
//! peak. Queries track the hotspot, as real monitoring queries would.
//!
//! Used by the `drift` experiment and by the `regrid` micro-benchmark
//! (fixed-δ vs adaptive), where a realistic stream that *changes its own
//! optimal resolution* is exactly what the re-grid policy needs to prove
//! itself against.

use cpm_geom::{clamp_coord, ObjectId, Point, QueryId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::workload::{TickEvents, WorkloadConfig};

/// Configuration of the drifting-hotspot model.
#[derive(Debug, Clone, Copy)]
pub struct DriftConfig {
    /// Standard deviation of object positions around the hotspot center.
    pub sigma: f64,
    /// How far the center advances along its path per tick (workspace
    /// units; the center moves **every** tick).
    pub center_speed: f64,
    /// Peak population as a multiple of `WorkloadConfig::n_objects`
    /// (which is the base population). Must be ≥ 1.
    pub peak_factor: f64,
    /// Ticks for one base → peak ramp; the population then descends over
    /// the next `ramp_ticks` (a triangle wave with period `2·ramp_ticks`).
    pub ramp_ticks: usize,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            sigma: 0.04,
            center_speed: 0.01,
            peak_factor: 10.0,
            ramp_ticks: 30,
        }
    }
}

/// Sample a standard normal via Box–Muller (rand itself ships no normal
/// distribution and `rand_distr` is outside the approved dependency set).
fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// The drifting-hotspot workload generator.
#[derive(Debug)]
pub struct DriftingHotspotWorkload {
    config: WorkloadConfig,
    drift: DriftConfig,
    rng: StdRng,
    /// Path parameter of the Lissajous center curve.
    path_t: f64,
    center: Point,
    tick: usize,
    /// Position per object id; `None` = off-line.
    positions: Vec<Option<Point>>,
    /// Ids currently live (order arbitrary; swap-removed on disappear).
    live: Vec<u32>,
    /// Recyclable off-line ids.
    free: Vec<u32>,
    queries: Vec<Point>,
}

impl DriftingHotspotWorkload {
    /// Build a drifting-hotspot workload. `config.n_objects` is the
    /// *base* population; the stream breathes up to
    /// `⌈n_objects · peak_factor⌉`.
    pub fn new(config: WorkloadConfig, drift: DriftConfig) -> Self {
        assert!(drift.peak_factor >= 1.0, "peak_factor must be >= 1");
        assert!(drift.ramp_ticks >= 1, "ramp_ticks must be >= 1");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let path_t = rng.gen_range(0.0..std::f64::consts::TAU);
        let center = Self::center_at(path_t);
        let mut w = Self {
            config,
            drift,
            rng,
            path_t,
            center,
            tick: 0,
            positions: Vec::new(),
            live: Vec::new(),
            free: Vec::new(),
            queries: Vec::new(),
        };
        for _ in 0..w.config.n_objects {
            let p = w.sample_near_center();
            let id = w.positions.len() as u32;
            w.positions.push(Some(p));
            w.live.push(id);
        }
        let mut queries = Vec::with_capacity(w.config.n_queries);
        for _ in 0..w.config.n_queries {
            let p = w.sample_near_center();
            queries.push(p);
        }
        w.queries = queries;
        w
    }

    /// The center of the hotspot at path parameter `t`: a Lissajous curve
    /// filling the central 70% of the workspace (incommensurate
    /// frequencies, so the path never settles into a short loop).
    fn center_at(t: f64) -> Point {
        Point::new(
            0.5 + 0.34 * (2.0 * t).sin(),
            0.5 + 0.34 * (3.1 * t + 1.0).sin(),
        )
    }

    fn sample_near_center(&mut self) -> Point {
        Point::new(
            clamp_coord(self.center.x + self.drift.sigma * normal(&mut self.rng)),
            clamp_coord(self.center.y + self.drift.sigma * normal(&mut self.rng)),
        )
    }

    /// The workload configuration.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// Current hotspot center.
    pub fn center(&self) -> Point {
        self.center
    }

    /// Current live population.
    pub fn population(&self) -> usize {
        self.live.len()
    }

    /// The population target for tick `t`: a triangle wave from the base
    /// to the peak over `ramp_ticks`, back down over the next
    /// `ramp_ticks`.
    pub fn target_population(&self, t: usize) -> usize {
        let base = self.config.n_objects as f64;
        let peak = (base * self.drift.peak_factor).ceil();
        let period = 2 * self.drift.ramp_ticks;
        let phase = t % period;
        let frac = if phase <= self.drift.ramp_ticks {
            phase as f64 / self.drift.ramp_ticks as f64
        } else {
            (period - phase) as f64 / self.drift.ramp_ticks as f64
        };
        (base + (peak - base) * frac).round() as usize
    }

    /// Initial object placements.
    pub fn initial_objects(&self) -> impl Iterator<Item = (ObjectId, Point)> + '_ {
        self.positions
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|p| (ObjectId(i as u32), p)))
    }

    /// Initial query placements (install with `config.k`).
    pub fn initial_queries(&self) -> impl Iterator<Item = (QueryId, Point, usize)> + '_ {
        self.queries
            .iter()
            .enumerate()
            .map(|(i, &p)| (QueryId(i as u32), p, self.config.k))
    }

    /// Advance one timestamp: move the center, breathe the population
    /// toward its triangle-wave target, random-walk the survivors around
    /// the (moved) center, and drag a `f_qry` fraction of the queries
    /// after the hotspot. At most one event per object id per tick.
    pub fn tick(&mut self) -> TickEvents {
        let mut out = TickEvents::default();
        self.tick += 1;
        self.path_t += self.drift.center_speed;
        self.center = Self::center_at(self.path_t);

        let mut touched: std::collections::HashSet<u32> = std::collections::HashSet::new();

        // Population breathing first, so a disappearing object is never
        // also moved and an appearing one starts at the new center.
        let target = self.target_population(self.tick);
        while self.live.len() > target {
            let at = self.rng.gen_range(0..self.live.len());
            let id = self.live.swap_remove(at);
            self.positions[id as usize] = None;
            self.free.push(id);
            touched.insert(id);
            out.object_events
                .push(cpm_grid::ObjectEvent::Disappear { id: ObjectId(id) });
        }
        while self.live.len() < target {
            let p = self.sample_near_center();
            let id = self.free.pop().unwrap_or_else(|| {
                self.positions.push(None);
                (self.positions.len() - 1) as u32
            });
            self.positions[id as usize] = Some(p);
            self.live.push(id);
            touched.insert(id);
            out.object_events.push(cpm_grid::ObjectEvent::Appear {
                id: ObjectId(id),
                pos: p,
            });
        }

        // Survivors random-walk with mean reversion toward the moving
        // center, so the cloud follows the hotspot.
        const LAMBDA: f64 = 0.2;
        let step = self.config.object_speed.distance_per_tick();
        for i in 0..self.live.len() {
            let id = self.live[i];
            if touched.contains(&id) || !self.rng.gen_bool(self.config.f_obj) {
                continue;
            }
            let p = self.positions[id as usize].expect("live object");
            let angle = self.rng.gen_range(0.0..std::f64::consts::TAU);
            let to = Point::new(
                clamp_coord(p.x + step * angle.cos() + LAMBDA * (self.center.x - p.x)),
                clamp_coord(p.y + step * angle.sin() + LAMBDA * (self.center.y - p.y)),
            );
            self.positions[id as usize] = Some(to);
            out.object_events.push(cpm_grid::ObjectEvent::Move {
                id: ObjectId(id),
                to,
            });
        }

        // Queries chase the hotspot.
        for i in 0..self.queries.len() {
            if !self.rng.gen_bool(self.config.f_qry) {
                continue;
            }
            let to = self.sample_near_center();
            self.queries[i] = to;
            out.query_events.push(cpm_grid::QueryEvent::Move {
                id: QueryId(i as u32),
                to,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_grid::ObjectEvent;

    fn config() -> WorkloadConfig {
        WorkloadConfig {
            n_objects: 500,
            n_queries: 16,
            k: 4,
            seed: 42,
            ..WorkloadConfig::default()
        }
    }

    fn drift() -> DriftConfig {
        DriftConfig {
            ramp_ticks: 10,
            peak_factor: 4.0,
            ..DriftConfig::default()
        }
    }

    #[test]
    fn center_moves_every_tick() {
        let mut w = DriftingHotspotWorkload::new(config(), drift());
        let mut prev = w.center();
        for _ in 0..20 {
            w.tick();
            let c = w.center();
            assert!(c.dist(prev) > 1e-4, "center stalled at {c:?}");
            assert!((0.0..1.0).contains(&c.x) && (0.0..1.0).contains(&c.y));
            prev = c;
        }
    }

    #[test]
    fn population_follows_the_triangle_wave() {
        let mut w = DriftingHotspotWorkload::new(config(), drift());
        assert_eq!(w.population(), 500);
        for _ in 0..10 {
            w.tick();
        }
        assert_eq!(w.population(), w.target_population(10));
        assert_eq!(w.population(), 2000, "peak at ramp end");
        for _ in 0..10 {
            w.tick();
        }
        assert_eq!(w.population(), 500, "back at base after the descent");
    }

    #[test]
    fn stream_is_deterministic_and_grid_valid() {
        let mut a = DriftingHotspotWorkload::new(config(), drift());
        let mut b = DriftingHotspotWorkload::new(config(), drift());
        // Replaying into a real grid panics on any life-cycle violation
        // (double appear, move/disappear of an off-line id).
        let mut grid = cpm_grid::GridBuilder::new(64).build_uniform();
        let appears: Vec<ObjectEvent> = (a.initial_objects())
            .map(|(id, pos)| ObjectEvent::Appear { id, pos })
            .collect();
        let mut records = Vec::new();
        cpm_grid::apply_events(&mut grid, &appears, &mut records);
        for _ in 0..25 {
            let (ta, tb) = (a.tick(), b.tick());
            assert_eq!(ta.object_events, tb.object_events);
            assert_eq!(ta.query_events, tb.query_events);
            // At most one event per object id per tick.
            let mut ids: Vec<u32> = ta.object_events.iter().map(|e| e.id().0).collect();
            ids.sort_unstable();
            let before = ids.len();
            ids.dedup();
            assert_eq!(ids.len(), before, "duplicate object id in one tick");
            records.clear();
            cpm_grid::apply_events(&mut grid, &ta.object_events, &mut records);
            grid.check_integrity();
            assert_eq!(grid.len(), a.population());
        }
    }

    #[test]
    fn objects_and_queries_track_the_hotspot() {
        let mut w = DriftingHotspotWorkload::new(config(), drift());
        for _ in 0..40 {
            w.tick();
        }
        let c = w.center();
        let sigma = drift().sigma;
        let close = w
            .initial_objects()
            .filter(|&(_, p)| c.dist(p) < 8.0 * sigma)
            .count();
        assert!(
            close as f64 > 0.8 * w.population() as f64,
            "only {close}/{} near the center",
            w.population()
        );
        let queries_close = w.queries.iter().filter(|q| c.dist(**q) < 0.4).count();
        assert!(queries_close * 2 > w.queries.len());
    }
}
