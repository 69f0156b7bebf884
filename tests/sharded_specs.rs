//! Conformance of the non-point query kinds — aggregate-NN, constrained,
//! range, and the reverse-NN composition the server owns: for every thread
//! count the results, changed lists and delta batches must be
//! **bit-identical** to the single-threaded (`T = 1`) reference and correct
//! against brute force, under object churn and moving queries. (Plain
//! k-NN is covered by `tests/thread_determinism.rs`.)
//!
//! Every test here runs the mixed-kind churn stream — all kinds share one
//! server, as deployed — and asserts that its seeds really exercise the
//! kind it is named after.

mod common;

use common::{events_of, specs, thread_lanes};
use cpm_suite::core::{AggregateFn, AnnQuery, AnyQuerySpec};
use cpm_suite::grid::QueryKind;
use cpm_suite::sim::{verify, Anchors, OpStream};

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

/// Run `seeds` of the mixed stream across [`THREAD_COUNTS`] and check the
/// streams carried at least `min_events` install/update events of `kind`.
fn run(
    seeds: std::ops::Range<u64>,
    n_objects: u32,
    kind: QueryKind,
    min_events: usize,
) -> Vec<OpStream> {
    let streams: Vec<OpStream> = seeds
        .map(|seed| OpStream::mixed(seed, n_objects, 22, Anchors::Free))
        .collect();
    for stream in &streams {
        verify(stream, &thread_lanes(&THREAD_COUNTS));
    }
    let events: usize = streams.iter().map(|s| events_of(s, kind)).sum();
    assert!(
        events >= min_events,
        "only {events} {kind:?} events — pick other seeds"
    );
    streams
}

/// ANN on several threads, with moving query point sets spread over the whole
/// workspace — every aggregate function (sum / min / max) and every set
/// size from one point to four must have been in play.
#[test]
fn ann_specs_are_shard_invariant_and_correct() {
    let streams = run(0xA99..0xAA1, 80, QueryKind::Ann, 48);
    let anns: Vec<_> = streams
        .iter()
        .flat_map(specs)
        .filter_map(|spec| match spec {
            AnyQuerySpec::Ann(q) => Some(q),
            _ => None,
        })
        .collect();
    for f in [AggregateFn::Sum, AggregateFn::Min, AggregateFn::Max] {
        let used = anns.iter().filter(|q| q.aggregate() == f).count();
        assert!(used >= 6, "{f:?} exercised only {used} times");
    }
    for n in 1..=4 {
        let sized = anns.iter().any(|q| q.points().len() == n);
        assert!(sized, "no {n}-point aggregate");
    }
    let wide = |q: &&&AnnQuery| q.points().iter().any(|p| p.dist(q.points()[0]) > 0.5);
    assert!(
        anns.iter().filter(wide).count() >= 6,
        "point sets too tight"
    );
}

/// Constrained NN on several threads, with moving query points *and* moving
/// constraint regions drawn independently: the query point is outside its
/// region more often than inside.
#[test]
fn constrained_specs_are_shard_invariant_and_correct() {
    let streams = run(0xC0257..0xC025B, 90, QueryKind::Constrained, 20);
    let (mut inside, mut outside) = (0, 0);
    for spec in streams.iter().flat_map(specs) {
        if let AnyQuerySpec::Constrained(q) = spec {
            *(if q.region.contains(q.q) {
                &mut inside
            } else {
                &mut outside
            }) += 1;
        }
    }
    assert!(
        outside > inside && inside > 0,
        "{outside} outside / {inside} inside"
    );
}

/// Range queries on several threads, with moving circles and rectangles;
/// results are exact membership in canonical order, so the harness's
/// equality against brute force is bitwise.
#[test]
fn range_specs_are_shard_invariant_and_correct() {
    run(0x4A17..0x4A1B, 90, QueryKind::Range, 20);
}

/// Reverse-NN on several threads: the server distributes the six
/// sector-constrained candidate queries per registration across threads,
/// and the verified sets must match both the single-threaded server and brute
/// force, with moving query points.
#[test]
fn rnn_composition_is_shard_invariant_and_correct() {
    let streams = run(0x12E7..0x12EB, 40, QueryKind::Knn, 12);
    let moves: usize = streams
        .iter()
        .flat_map(|s| &s.cycles)
        .map(|c| c.rnn_moves.len())
        .sum();
    assert!(moves >= 20, "only {moves} reverse-NN placements");
}
