//! The cell-ordered layout is a function of the positions and δ alone.
//!
//! Random batches of appears, moves and disappears — sparse ids, re-used
//! after they go off-line, positions past the workspace edge (stored clamped)
//! and points exactly on cell borders — drive one grid. After every
//! batch it must equal a grid built fresh from its own objects at the
//! same `dim`: every cell's ids (ascending), its run's coordinate
//! columns and the occupancy statistics. Its positions must equal a
//! plain `HashMap` model, and its statistics a brute-force recount.
//! Interleaved re-grids must equal a fresh build at the new `dim` and
//! leave every position untouched.

use std::collections::HashMap;

use cpm_geom::{clamp_coord, ObjectId, Point};
use cpm_grid::{apply_events, CellCoord, CellRun, Grid, GridBuilder, GridStats, ObjectEvent};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Dimensions the property moves between: dim 1, an odd dim whose last
/// row and column the coordinates reach, and growing and shrinking
/// resolutions.
const DIMS: [u32; 5] = [1, 4, 7, 16, 64];

fn build(dim: u32, objects: impl Iterator<Item = (ObjectId, Point)>) -> Grid {
    let mut g = GridBuilder::new(dim).build_uniform();
    let appears: Vec<ObjectEvent> = objects
        .map(|(id, pos)| ObjectEvent::Appear { id, pos })
        .collect();
    apply_events(&mut g, &appears, &mut Vec::new());
    g
}

/// A position of one of four forms: inside the workspace, exactly on a
/// cell border of the current `dim`, past the workspace edge, or on the
/// far edge itself.
fn position(form: u32, x: f64, y: f64, dim: u32) -> Point {
    let border = |t: f64| (t * dim as f64).floor() / dim as f64;
    match form {
        0 => Point::new(x, y),
        1 => Point::new(border(x), border(y)),
        2 => Point::new(3.0 * x - 1.0, 3.0 * y - 1.0),
        _ => Point::new(1.0, border(y)),
    }
}

/// Each object of a run with the bits of its coordinates.
fn bits(run: CellRun<'_>) -> Vec<(ObjectId, u64, u64)> {
    run.iter()
        .map(|(id, p)| (id, p.x.to_bits(), p.y.to_bits()))
        .collect()
}

/// `g` against a fresh build of its own objects at its `dim`, against
/// the position model, and against a brute-force recount.
fn check(g: &Grid, model: &HashMap<u32, Point>) -> Result<(), TestCaseError> {
    g.check_integrity();
    let fresh = build(g.dim(), g.iter_objects());
    let dim = g.dim();
    for row in 0..dim {
        for col in 0..dim {
            let c = CellCoord::new(col, row);
            let (run, want) = (g.cell_run(c), fresh.cell_run(c));
            prop_assert_eq!(g.objects_in(c), fresh.objects_in(c), "cell {}", c);
            prop_assert_eq!(run.ids(), g.objects_in(c));
            prop_assert!(run.ids().windows(2).all(|w| w[0] < w[1]), "cell {}", c);
            prop_assert_eq!(bits(run), bits(want), "cell {}", c);
        }
    }
    prop_assert_eq!(g.stats(), fresh.stats());

    prop_assert_eq!(g.len(), model.len());
    let mut listed: Vec<(ObjectId, Point)> =
        model.iter().map(|(&id, &p)| (ObjectId(id), p)).collect();
    listed.sort_unstable_by_key(|&(id, _)| id);
    prop_assert_eq!(g.iter_objects().collect::<Vec<_>>(), listed);
    let mut per_cell: HashMap<CellCoord, usize> = HashMap::new();
    for (&id, &p) in model {
        prop_assert_eq!(g.position(ObjectId(id)), Some(p), "object {}", id);
        *per_cell.entry(g.cell_of(p)).or_default() += 1;
    }
    let expect = GridStats {
        total_cells: g.geom().total_cells(),
        occupied_cells: per_cell.len(),
        live_objects: model.len(),
        hot_cell_max: per_cell.values().copied().max().unwrap_or(0),
    };
    prop_assert_eq!(g.stats(), expect);
    let occupied: Vec<CellCoord> = g.occupied_cells().collect();
    prop_assert_eq!(occupied.len(), per_cell.len());
    for c in occupied {
        prop_assert_eq!(g.cell_len(c), per_cell[&c], "cell {}", c);
    }
    Ok(())
}

proptest! {
    #[test]
    fn layout_equals_a_fresh_build_after_every_batch(
        batches in proptest::collection::vec(
            (
                proptest::collection::vec(
                    (0u32..40, 0u32..4, 0u32..4, 0.0..1.0f64, 0.0..1.0f64), 0..40),
                0u32..8,
            ),
            1..12),
    ) {
        let mut g = GridBuilder::new(16).build_uniform();
        let mut model: HashMap<u32, Point> = HashMap::new();
        let mut records = Vec::new();
        for (steps, regrid) in batches {
            // One event per step; the model decides which kind fits, and
            // what the event's record must say.
            let mut events = Vec::with_capacity(steps.len());
            let mut expect = Vec::with_capacity(steps.len());
            for (id, op, form, x, y) in steps {
                // Sparse ids: the tables span 40K slots for 40 objects.
                let id = id * 1000;
                let oid = ObjectId(id);
                let pos = position(form, x, y, g.dim());
                let stored = Point::new(clamp_coord(pos.x), clamp_coord(pos.y));
                let old = model.remove(&id);
                let ev = match old {
                    Some(_) if op == 0 => ObjectEvent::Disappear { id: oid },
                    Some(_) => ObjectEvent::Move { id: oid, to: pos },
                    None => ObjectEvent::Appear { id: oid, pos },
                };
                let new = ev.position().map(|_| stored);
                if let Some(p) = new {
                    model.insert(id, p);
                }
                events.push(ev);
                expect.push((oid, old.map(|p| g.cell_of(p)), new.map(|p| g.cell_of(p)), new));
            }
            records.clear();
            let applied = apply_events(&mut g, &events, &mut records);
            prop_assert_eq!(applied, events.len() as u64);
            let got: Vec<_> = records
                .iter()
                .map(|r| (r.id, r.old_cell, r.new_cell, r.new_pos))
                .collect();
            prop_assert_eq!(got, expect);
            check(&g, &model)?;

            if let Some(&dim) = DIMS.get(regrid as usize) {
                let before: Vec<(ObjectId, Point)> = g.iter_objects().collect();
                let migrated = g.regrid(dim);
                prop_assert!(migrated == 0 || migrated == model.len());
                prop_assert_eq!(g.dim(), dim);
                let after: Vec<(ObjectId, Point)> = g.iter_objects().collect();
                prop_assert_eq!(before, after, "store changed across the re-grid");
                check(&g, &model)?;
            }
        }
    }
}
