//! Shared, seeded inputs for the micro-benchmarks, so two benchmarks
//! that claim the same stream can never desynchronize: uniform objects
//! under a medium-speed random walk, the server benchmarks' mixed query
//! set, and the drifting-hotspot stream.

use std::num::NonZeroUsize;

use cpm_core::{AnyQuerySpec, ConstrainedQuery, CostModel, PointQuery, RangeQuery, SpecEvent};
use cpm_gen::{DriftConfig, DriftingHotspotWorkload, TickEvents, WorkloadConfig};
use cpm_geom::{clamp_coord, ObjectId, Point, QueryId, Rect};
use cpm_grid::ObjectEvent;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Declare a benchmark `Config`: the struct, its `Default` (the
/// acceptance-scale configuration `bench_record` measures) and
/// `fields()` (the `config` object of its `BenchRecord`), from one list.
macro_rules! bench_config {
    ($(#[$meta:meta])* $name:ident { $($(#[$doc:meta])* $field:ident: $ty:ty = $default:expr,)* }) => {
        $(#[$meta])*
        #[derive(Debug, Clone)]
        pub struct $name {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl Default for $name {
            /// The acceptance-scale configuration `bench_record` measures.
            fn default() -> Self {
                Self { $($field: $default,)* }
            }
        }

        impl $name {
            /// The `config` object of this benchmark's `BenchRecord`.
            pub fn fields(&self) -> $crate::record::Fields {
                $crate::fields! { $(stringify!($field) => self.$field.clone(),)* }
            }
        }
    };
}
pub(crate) use bench_config;

/// A config's thread count as the engines take it.
///
/// # Panics
/// If `n == 0`: a configuration typo, not input.
pub(crate) fn threads(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).expect("a lane runs on at least one thread")
}

/// Per-cycle displacement of the medium speed class: `5 * 2.0 / 250`.
const MEDIUM_STEP: f64 = 0.04;

/// `n` uniform points over the unit square.
fn uniform_points(rng: &mut StdRng, n: usize) -> Vec<Point> {
    (0..n).map(|_| Point::new(rng.gen(), rng.gen())).collect()
}

/// `cycles` batches of `movers` random-walk steps over `positions`
/// (mutated in place so later cycles continue from the moved state):
/// each step displaces a uniformly random object by [`MEDIUM_STEP`] in a
/// uniformly random direction, clamped to the workspace.
fn random_walk_cycles(
    rng: &mut StdRng,
    positions: &mut [Point],
    cycles: usize,
    movers: usize,
) -> Vec<Vec<(ObjectId, Point)>> {
    (0..cycles)
        .map(|_| {
            (0..movers)
                .map(|_| {
                    let i = rng.gen_range(0..positions.len());
                    let angle = rng.gen_range(0.0..std::f64::consts::TAU);
                    let p = positions[i];
                    let to = Point::new(
                        clamp_coord(p.x + MEDIUM_STEP * angle.cos()),
                        clamp_coord(p.y + MEDIUM_STEP * angle.sin()),
                    );
                    positions[i] = to;
                    (ObjectId(i as u32), to)
                })
                .collect()
        })
        .collect()
}

/// Uniform objects and query anchors plus per-cycle move batches.
pub(crate) struct UniformStream {
    pub objects: Vec<(ObjectId, Point)>,
    pub queries: Vec<(QueryId, Point)>,
    pub cycles: Vec<Vec<ObjectEvent>>,
    /// The generator, for benchmark-specific extras drawn after the
    /// shared part.
    pub rng: StdRng,
}

/// `n_objects` uniform objects (ids `0..`), `n_queries` uniform anchors
/// (ids `0..`) and `cycles` batches moving `move_fraction` of the
/// objects. A walk may step one object twice in a cycle; only its final
/// position is kept (what sequential application produces anyway), so
/// the batches also pass `CpmServer`'s one-event-per-id validation.
pub(crate) fn uniform_stream(
    seed: u64,
    n_objects: usize,
    n_queries: usize,
    move_fraction: f64,
    cycles: usize,
) -> UniformStream {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut positions = uniform_points(&mut rng, n_objects);
    let objects = (0..).map(ObjectId).zip(positions.iter().copied()).collect();
    let queries = (0..)
        .map(QueryId)
        .zip(uniform_points(&mut rng, n_queries))
        .collect();
    let movers = ((n_objects as f64 * move_fraction) as usize).max(1);
    let cycles = random_walk_cycles(&mut rng, &mut positions, cycles, movers)
        .into_iter()
        .map(|batch| {
            let mut seen = std::collections::HashSet::new();
            let mut events: Vec<ObjectEvent> = batch
                .into_iter()
                .rev()
                .filter(|(id, _)| seen.insert(*id))
                .map(|(id, to)| ObjectEvent::Move { id, to })
                .collect();
            events.reverse();
            events
        })
        .collect();
    UniformStream {
        objects,
        queries,
        cycles,
        rng,
    }
}

/// Geofence-sized range zones (ids from 1,000,000) and constrained
/// queries over small rectangles (ids from 2,000,000): a few tens of
/// grid cells each, so influence tables stay sparse and the cycle stays
/// ingest-bound — the regime the unified server accelerates.
#[allow(clippy::type_complexity)]
pub(crate) fn mixed_queries(
    rng: &mut StdRng,
    n_range: usize,
    n_constrained: usize,
) -> (Vec<(QueryId, RangeQuery)>, Vec<(QueryId, ConstrainedQuery)>) {
    let ranges = (0..n_range)
        .map(|i| {
            let center = Point::new(rng.gen(), rng.gen());
            let radius = 0.015 + rng.gen::<f64>() * 0.02;
            let id = QueryId(1_000_000 + i as u32);
            (id, RangeQuery::circle(center, radius))
        })
        .collect();
    let constrained = (0..n_constrained)
        .map(|i| {
            let q = Point::new(rng.gen(), rng.gen());
            let w = 0.05 + rng.gen::<f64>() * 0.07;
            let lo = Point::new((q.x - w / 2.0).max(0.0), (q.y - w / 2.0).max(0.0));
            let hi = Point::new((lo.x + w).min(1.0), (lo.y + w).min(1.0));
            let id = QueryId(2_000_000 + i as u32);
            (id, ConstrainedQuery::new(q, Rect::new(lo, hi)))
        })
        .collect();
    (ranges, constrained)
}

bench_config! {
    /// The drifting-hotspot stream ([`cpm_gen::drift`]) of the re-grid
    /// benchmark: the population breathes between
    /// `n_base` and `peak_factor ×` that while one Gaussian hotspot
    /// sweeps the workspace, so the Section 4.1 optimum moves mid-run.
    DriftBench {
        /// Base object population.
        n_base: usize = 10_000,
        /// Peak population as a multiple of `n_base`.
        peak_factor: f64 = 10.0,
        /// Installed k-NN queries (they track the hotspot).
        n_queries: usize = 500,
        /// Neighbors per query.
        k: usize = 16,
        /// Object agility `f_obj`.
        f_obj: f64 = 0.5,
        /// Query agility `f_qry`.
        f_qry: f64 = 0.3,
        /// Measured cycles (the ramp spans half up, half down).
        cycles: usize = 60,
        /// Unmeasured warm-up cycles.
        warmup_cycles: usize = 2,
        /// Maintenance threads per lane.
        threads: usize = 1,
        /// RNG seed.
        seed: u64 = 2005,
    }
}

/// One pre-generated drift run, its query events already in the
/// engine's vocabulary (translated once, outside every timed section).
pub(crate) struct DriftStream {
    pub objects: Vec<(ObjectId, Point)>,
    pub queries: Vec<(QueryId, Point, usize)>,
    pub ticks: Vec<(TickEvents, Vec<SpecEvent<AnyQuerySpec>>)>,
}

impl DriftBench {
    /// The reduced scale `bench_check` runs.
    pub fn gate() -> Self {
        Self {
            n_base: 2_000,
            n_queries: 100,
            cycles: 40,
            ..Self::default()
        }
    }

    /// Peak object population.
    pub fn n_peak(&self) -> usize {
        (self.n_base as f64 * self.peak_factor) as usize
    }

    /// The (power-of-two) resolution a capacity plan provisions for
    /// `n_objects`: [`CostModel::optimal_dim`] of Section 4.1.
    pub fn provisioned_dim(&self, n_objects: usize) -> u32 {
        CostModel {
            n_objects,
            n_queries: self.n_queries,
            k: self.k,
            delta: 0.0, // ignored by optimal_dim
            f_obj: self.f_obj,
            f_qry: self.f_qry,
            skew: 1.0,
        }
        .optimal_dim(16, 1024)
    }

    pub(crate) fn stream(&self) -> DriftStream {
        let total = self.warmup_cycles + self.cycles;
        let mut workload = DriftingHotspotWorkload::new(
            WorkloadConfig {
                n_objects: self.n_base,
                n_queries: self.n_queries,
                k: self.k,
                f_obj: self.f_obj,
                f_qry: self.f_qry,
                seed: self.seed,
                ..WorkloadConfig::default()
            },
            DriftConfig {
                peak_factor: self.peak_factor,
                ramp_ticks: (total / 2).max(1),
                ..DriftConfig::default()
            },
        );
        let objects = workload.initial_objects().collect();
        let queries = workload.initial_queries().collect();
        let ticks = (0..total)
            .map(|_| {
                let tick = workload.tick();
                let spec_events = tick.query_events.iter().map(|&ev| ev.into()).collect();
                (tick, spec_events)
            })
            .collect();
        DriftStream {
            objects,
            queries,
            ticks,
        }
    }
}

/// One cluster-benchmark cycle: object events plus query events.
pub(crate) type ClusterCycle = (Vec<ObjectEvent>, Vec<SpecEvent<AnyQuerySpec>>);

/// The cluster benchmarks' stream: two bootstrap cycles (every object
/// appears, then every k-NN query installs — results must be fillable
/// before any finite coverage can certify them) followed by `cycles`
/// move batches of [`uniform_stream`].
pub(crate) fn cluster_stream(
    seed: u64,
    n_objects: usize,
    n_queries: usize,
    k: usize,
    move_fraction: f64,
    cycles: usize,
) -> Vec<ClusterCycle> {
    let w = uniform_stream(seed, n_objects, n_queries, move_fraction, cycles);
    let appear = |&(id, pos)| ObjectEvent::Appear { id, pos };
    let install = |&(id, p)| SpecEvent::Install {
        id,
        spec: AnyQuerySpec::Knn(PointQuery(p)),
        k,
    };
    let bootstrap = [
        (w.objects.iter().map(appear).collect(), Vec::new()),
        (Vec::new(), w.queries.iter().map(install).collect()),
    ];
    let moves = w.cycles.into_iter().map(|events| (events, Vec::new()));
    bootstrap.into_iter().chain(moves).collect()
}
