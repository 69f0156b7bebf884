//! Scalar-vs-batched engine equivalence: running the full CPM machinery
//! with the vectorized distance kernel must be observationally identical
//! — same result bits, same changed lists, same delta streams — to the
//! scalar per-object path, across thread counts.
//!
//! The scalar lane is reconstructed via a wrapper spec that forwards
//! every [`QuerySpec`] method but deliberately does *not* override
//! `dist_batch`, so it runs the trait's default per-object fallback —
//! exactly the pre-kernel code path. The batched lane is the stock
//! [`PointQuery`], whose `dist_batch` is the kernel.

use std::num::NonZeroUsize;

use cpm_suite::core::{
    CycleDeltas, Direction, Pinwheel, PointQuery, QuerySpec, ShardedCpmEngine, SpecEvent,
};
use cpm_suite::geom::{ObjectId, Point, QueryId};
use cpm_suite::grid::{CellCoord, GridGeom, ObjectEvent};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// [`PointQuery`] with the batched-kernel override masked off: the
/// default `dist_batch` (scalar loop over `dist`) runs instead.
#[derive(Debug, Clone, Copy)]
struct ScalarPoint(PointQuery);

impl QuerySpec for ScalarPoint {
    fn dist(&self, p: Point) -> f64 {
        self.0.dist(p)
    }
    fn base_block(&self, geom: GridGeom) -> (CellCoord, CellCoord) {
        self.0.base_block(geom)
    }
    fn cell_key(&self, geom: GridGeom, cell: CellCoord) -> f64 {
        self.0.cell_key(geom, cell)
    }
    fn strip_key(&self, pw: &Pinwheel, dir: Direction, lvl: u32) -> f64 {
        self.0.strip_key(pw, dir, lvl)
    }
    fn strip_increment(&self, delta: f64) -> f64 {
        self.0.strip_increment(delta)
    }
    // No `dist_batch` override — that is the whole point.
}

fn churn(rng: &mut StdRng, live: &mut Vec<u32>, next: &mut u32) -> Vec<ObjectEvent> {
    let mut events = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for _ in 0..rng.gen_range(0..16) {
        match rng.gen_range(0..8) {
            0 if live.len() > 8 => {
                let id = live.swap_remove(rng.gen_range(0..live.len()));
                if seen.insert(id) {
                    events.push(ObjectEvent::Disappear { id: ObjectId(id) });
                } else {
                    live.push(id);
                }
            }
            1 => {
                live.push(*next);
                seen.insert(*next);
                events.push(ObjectEvent::Appear {
                    id: ObjectId(*next),
                    pos: Point::new(rng.gen(), rng.gen()),
                });
                *next += 1;
            }
            _ if !live.is_empty() => {
                let id = live[rng.gen_range(0..live.len())];
                if seen.insert(id) {
                    events.push(ObjectEvent::Move {
                        id: ObjectId(id),
                        to: Point::new(rng.gen(), rng.gen()),
                    });
                }
            }
            _ => {}
        }
    }
    events
}

const N_OBJ: u32 = 120;
const N_QUERIES: u32 = 8;
const CYCLES: usize = 25;

fn objects(rng: &mut StdRng) -> Vec<(ObjectId, Point)> {
    (0..N_OBJ)
        .map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen())))
        .collect()
}

/// One churn stream through a scalar-lane engine and batched-lane engines
/// at T ∈ {1, 4}: changed lists and delta streams must match the scalar
/// reference exactly, results bit-for-bit.
#[test]
fn batched_kernel_is_observationally_identical_to_scalar() {
    let mut rng = StdRng::seed_from_u64(0xD157);
    let objs = objects(&mut rng);

    let mut scalar: ShardedCpmEngine<ScalarPoint> = ShardedCpmEngine::new(32, NonZeroUsize::MIN);
    scalar.enable_deltas();
    scalar.populate(objs.iter().copied());

    let mut batched = Vec::new();
    for s in [1usize, 4] {
        let mut engine: ShardedCpmEngine<PointQuery> =
            ShardedCpmEngine::new(32, NonZeroUsize::new(s).unwrap());
        engine.enable_deltas();
        engine.populate(objs.iter().copied());
        batched.push((s, engine));
    }

    let mut q_points = Vec::new();
    for qi in 0..N_QUERIES {
        let p = Point::new(rng.gen(), rng.gen());
        let k = 1 + qi as usize % 5;
        scalar
            .install(QueryId(qi), ScalarPoint(PointQuery(p)), k)
            .unwrap();
        for (_, engine) in batched.iter_mut() {
            engine.install(QueryId(qi), PointQuery(p), k).unwrap();
        }
        q_points.push(p);
    }

    let mut live: Vec<u32> = (0..N_OBJ).collect();
    let mut next = N_OBJ;
    for cycle in 0..CYCLES {
        let events = churn(&mut rng, &mut live, &mut next);
        // Moving queries most cycles, as terminate-free Update events.
        let moved: Option<(u32, Point)> = rng.gen_bool(0.6).then(|| {
            (
                rng.gen_range(0..N_QUERIES),
                Point::new(rng.gen(), rng.gen()),
            )
        });
        let scalar_qev: Vec<SpecEvent<ScalarPoint>> = moved
            .iter()
            .map(|&(qi, p)| SpecEvent::Update {
                id: QueryId(qi),
                spec: ScalarPoint(PointQuery(p)),
            })
            .collect();
        let batched_qev: Vec<SpecEvent<PointQuery>> = moved
            .iter()
            .map(|&(qi, p)| SpecEvent::Update {
                id: QueryId(qi),
                spec: PointQuery(p),
            })
            .collect();

        let (mut want, mut got) = (CycleDeltas::default(), CycleDeltas::default());
        scalar.process_cycle_with_deltas_into(&events, &scalar_qev, &mut want);
        for (s, engine) in batched.iter_mut() {
            engine.process_cycle_with_deltas_into(&events, &batched_qev, &mut got);
            assert_eq!(
                got.changed, want.changed,
                "changed lists diverged at cycle {cycle} (S={s})"
            );
            assert_eq!(got, want, "delta streams diverged at cycle {cycle} (S={s})");
            for qi in 0..N_QUERIES {
                let a = scalar.result(QueryId(qi)).unwrap();
                let b = engine.result(QueryId(qi)).unwrap();
                assert_eq!(a.len(), b.len(), "cycle {cycle} q{qi} (S={s})");
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.id, y.id, "cycle {cycle} q{qi} (S={s})");
                    assert_eq!(
                        x.dist.to_bits(),
                        y.dist.to_bits(),
                        "cycle {cycle} q{qi} (S={s}): result bits diverged"
                    );
                }
            }
            engine.check_invariants();
        }
        scalar.check_invariants();
    }
}
