//! Release-mode regression for the non-NaN ingest guarantee.
//!
//! `TotalF64::new` rejects NaN distance keys only via `debug_assert!`
//! (it sits on the hot path), and the struct-of-arrays position table
//! uses NaN as its off-line sentinel. Both are sound **only because**
//! `ObjectStore::activate` rejects non-finite coordinates with a hard
//! `assert!` that survives `--release`. This suite pins that boundary:
//! CI runs it in release mode explicitly, where a `debug_assert!`-only
//! check would silently admit the NaN.

use cpm_geom::{ObjectId, Point};
use cpm_grid::{apply_events, Grid, GridBuilder, ObjectEvent};

fn apply(g: &mut Grid, events: &[ObjectEvent]) {
    apply_events(g, events, &mut Vec::new());
}

fn appear(id: u32, pos: Point) -> ObjectEvent {
    ObjectEvent::Appear {
        id: ObjectId(id),
        pos,
    }
}

#[test]
#[should_panic(expected = "must be finite")]
fn nan_insert_panics_even_in_release() {
    let mut g = GridBuilder::new(16).build_uniform();
    apply(&mut g, &[appear(0, Point::new(f64::NAN, 0.5))]);
}

#[test]
#[should_panic(expected = "must be finite")]
fn infinite_insert_panics_even_in_release() {
    let mut g = GridBuilder::new(16).build_uniform();
    apply(&mut g, &[appear(0, Point::new(0.5, f64::INFINITY))]);
}

#[test]
#[should_panic(expected = "must be finite")]
fn nan_move_panics_even_in_release() {
    let mut g = GridBuilder::new(16).build_uniform();
    apply(&mut g, &[appear(0, Point::new(0.5, 0.5))]);
    let to = Point::new(f64::NAN, 0.5);
    apply(
        &mut g,
        &[ObjectEvent::Move {
            id: ObjectId(0),
            to,
        }],
    );
}

/// The flip side of the boundary: every *finite* position is accepted,
/// stored clamped, and read back without tripping the sentinel logic.
#[test]
fn finite_extremes_are_accepted_and_live() {
    let mut g = GridBuilder::new(16).build_uniform();
    let extremes = [
        Point::new(0.0, 0.0),
        Point::new(-0.0, 1.0 - 1e-12),
        Point::new(f64::MIN_POSITIVE, 5e-324),
        Point::new(1e300, -1e300), // clamped into the workspace
    ];
    let appears: Vec<ObjectEvent> = (0..).zip(extremes).map(|(i, p)| appear(i, p)).collect();
    apply(&mut g, &appears);
    for i in 0..extremes.len() as u32 {
        let stored = g.position(ObjectId(i)).expect("finite insert is live");
        assert!(stored.is_finite());
    }
    g.check_integrity();
}
