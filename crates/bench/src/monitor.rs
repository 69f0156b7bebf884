//! What a lane of a figure is: [`Monitor`], implemented over the three
//! k-NN methods of the paper, the CPM engine under any query geometry,
//! the server (reverse NN) and brute-force re-evaluation.

use std::num::NonZeroUsize;
use std::time::Duration;

use cpm_core::{CpmServer, QuerySpec, ShardedCpmEngine, SpecEvent};
use cpm_gen::TickEvents;
use cpm_geom::{ObjectId, Point, QueryId};
use cpm_grid::{Metrics, ObjectEvent};
use cpm_sim::{brute_force, KnnMonitorAlgo, SimulationInput};

use crate::paired::timed;

/// What a monitor's own book-keeping says: the work counters since the
/// last call, the space in memory units (Section 4.1), and — for a CPM
/// engine — the mean `best_dist`, `C_inf`, `O_inf` and `C_SH` over the
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

/// The CPM engine over one query geometry; `events` lifts a tick's query
/// updates into the engine's vocabulary, outside the timed call.
struct Engine<S: QuerySpec, E> {
    engine: ShardedCpmEngine<S>,
    events: E,
}

impl<S, E> Monitor for Engine<S, E>
where
    S: QuerySpec + Send + Sync,
    E: FnMut(&TickEvents) -> Vec<SpecEvent<S>>,
{
    fn cycle(&mut self, tick: &TickEvents) -> (Duration, usize) {
        let events = (self.events)(tick);
        let run = || self.engine.process_cycle(&tick.object_events, &events);
        let (spent, changed) = timed(run);
        (spent, changed.len())
    }

    fn counters(&mut self) -> Counters {
        let (mut sums, mut full) = ([0.0; 4], 0.0f64);
        for id in self.engine.query_ids() {
            let st = self.engine.query_state(id).expect("listed");
            if !st.best.is_full() {
                continue;
            }
            let influence = &st.visit_list[..st.influence_len];
            let cell_len = |&(cell, _)| self.engine.grid().cell_len(cell);
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
        let space = self.engine.space_units();
        (self.engine.take_metrics(), space, Some(means))
    }
}

/// A sequential CPM engine over `input`'s objects with `queries`
/// installed.
pub(crate) fn engine<S: QuerySpec + Send + Sync + 'static>(
    input: &SimulationInput,
    queries: impl IntoIterator<Item = (QueryId, S, usize)>,
    events: impl FnMut(&TickEvents) -> Vec<SpecEvent<S>> + 'static,
) -> Box<dyn Monitor> {
    let mut engine = ShardedCpmEngine::new(input.params.grid_dim, NonZeroUsize::MIN);
    engine.populate(input.initial_objects.iter().copied());
    for (id, spec, k) in queries {
        engine
            .install(id, spec, k)
            .expect("generated ids are fresh");
    }
    Box::new(Engine { engine, events })
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
