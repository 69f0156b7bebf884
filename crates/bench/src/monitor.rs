//! What a lane of a figure is: [`Monitor`], implemented over the three
//! k-NN methods of the paper, CPM under any query geometry, the
//! server's reverse NN and brute-force re-evaluation.

use std::num::NonZeroUsize;
use std::time::Duration;

use cpm_core::{AnyQuerySpec, CpmServer, CpmServerBuilder, QuerySpec, SpecEvent};
use cpm_gen::TickEvents;
use cpm_geom::{ObjectId, Point, QueryId};
use cpm_grid::{Metrics, ObjectEvent};
use cpm_sim::{brute_force, KnnMonitorAlgo, SimulationInput};

use crate::paired::timed;

/// What a monitor's own book-keeping says: the work counters since the
/// last call, the space in memory units (Section 4.1), and — for a CPM
/// lane over one query geometry — the mean `best_dist`, `C_inf`, `O_inf` and `C_SH` over the
/// queries whose result is full.
pub type Counters = (Metrics, usize, Option<[f64; 4]>);

/// One lane of a sweep point: a monitor with its queries installed.
pub trait Monitor {
    /// Process one timestamp: the time charged and the result changes.
    fn cycle(&mut self, tick: &TickEvents) -> (Duration, usize);
    /// Take the counters.
    fn counters(&mut self) -> Counters;
}

impl Monitor for Box<dyn KnnMonitorAlgo> {
    fn cycle(&mut self, tick: &TickEvents) -> (Duration, usize) {
        let run = || self.process_cycle(&tick.object_events, &tick.query_events);
        let (spent, changed) = timed(run);
        (spent, changed.len())
    }

    fn counters(&mut self) -> Counters {
        (self.take_metrics(), self.space_units(), None)
    }
}

/// CPM over one query geometry; `events` lifts a tick's query updates
/// into the server's vocabulary, outside the timed call.
struct Cpm<E> {
    server: CpmServer,
    events: E,
}

impl<E> Monitor for Cpm<E>
where
    E: FnMut(&TickEvents) -> Vec<SpecEvent<AnyQuerySpec>>,
{
    fn cycle(&mut self, tick: &TickEvents) -> (Duration, usize) {
        let events = (self.events)(tick);
        let run = || self.server.process_cycle(&tick.object_events, &events);
        let (spent, changed) = timed(run);
        (
            spent,
            changed.expect("generated batches are well-formed").len(),
        )
    }

    fn counters(&mut self) -> Counters {
        let (mut sums, mut full) = ([0.0; 4], 0.0f64);
        for id in self.server.query_ids() {
            let st = self.server.query_state(id).expect("listed");
            if !st.best.is_full() {
                continue;
            }
            let influence = &st.visit_list[..st.influence_len];
            let cell_len = |&(cell, _)| self.server.grid().cell_len(cell);
            let book_keeping = [
                st.best_dist(),
                influence.len() as f64,
                influence.iter().map(cell_len).sum::<usize>() as f64,
                (st.visit_list.len() + st.heap.cell_entries()) as f64,
            ];
            for (sum, x) in sums.iter_mut().zip(book_keeping) {
                *sum += x;
            }
            full += 1.0;
        }
        let means = sums.map(|sum| sum / full.max(1.0));
        let space = self.server.space_units();
        (self.server.take_metrics(), space, Some(means))
    }
}

/// A one-thread CPM server over `input`'s objects with `queries`
/// installed.
pub(crate) fn cpm<S: Into<AnyQuerySpec>>(
    input: &SimulationInput,
    queries: impl IntoIterator<Item = (QueryId, S, usize)>,
    events: impl FnMut(&TickEvents) -> Vec<SpecEvent<AnyQuerySpec>> + 'static,
) -> Box<dyn Monitor> {
    let mut server = CpmServerBuilder::new(input.params.grid_dim)
        .threads(NonZeroUsize::MIN)
        .build();
    server.populate(input.initial_objects.iter().copied());
    for (id, spec, k) in queries {
        let _ = server
            .install_spec(id, spec, k)
            .expect("generated ids are fresh");
    }
    Box::new(Cpm { server, events })
}

/// The reverse-NN study's lane: RNN is composed by the server.
impl Monitor for CpmServer {
    fn cycle(&mut self, tick: &TickEvents) -> (Duration, usize) {
        let (spent, changed) = timed(|| self.process_cycle(&tick.object_events, &[]));
        (
            spent,
            changed.expect("uniform batches are well-formed").len(),
        )
    }

    fn counters(&mut self) -> Counters {
        (self.take_metrics(), self.space_units(), None)
    }
}

/// The studies' baseline: mirror the positions (a study's objects only
/// move), then re-evaluate every query over all of them with `eval`,
/// which returns the result entries it found.
struct Reevaluate<F> {
    objects: Vec<(ObjectId, Point)>,
    eval: F,
}

impl<F: FnMut(&[(ObjectId, Point)]) -> usize> Monitor for Reevaluate<F> {
    fn cycle(&mut self, tick: &TickEvents) -> (Duration, usize) {
        timed(|| {
            for ev in &tick.object_events {
                let ObjectEvent::Move { id, to } = *ev else {
                    panic!("the uniform workload only moves objects");
                };
                self.objects[id.index()].1 = to;
            }
            (self.eval)(&self.objects)
        })
    }

    fn counters(&mut self) -> Counters {
        (Metrics::default(), 0, None)
    }
}

pub(crate) fn reevaluate_by(
    input: &SimulationInput,
    eval: impl FnMut(&[(ObjectId, Point)]) -> usize + 'static,
) -> Box<dyn Monitor> {
    let objects = input.initial_objects.clone();
    Box::new(Reevaluate { objects, eval })
}

/// Re-evaluation of `queries` by [`brute_force`].
pub(crate) fn reevaluate<S: QuerySpec + 'static>(
    input: &SimulationInput,
    queries: Vec<(QueryId, S, usize)>,
) -> Box<dyn Monitor> {
    reevaluate_by(input, move |objects| {
        let one =
            |(_, q, k): &(QueryId, S, usize)| brute_force(objects.iter().copied(), q, *k).len();
        queries.iter().map(one).sum()
    })
}
