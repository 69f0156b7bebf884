//! The system under test, assembled from public APIs only: an engine
//! (`CpmServer`, or `ClusterCoordinator` over in-process workers), a
//! `DeltaFanout` with one subscription per query, and one `Replica` per
//! query. [`System::cycle`] is the measured unit.

use cpm_suite::cluster::{
    ChannelTransport, ClusterConfig, ClusterCoordinator, CycleTimings, WorkerHandle,
};
use cpm_suite::core::{
    AnyQuerySpec, CpmError, CpmServer, CpmServerBuilder, CycleDeltas, Neighbor, NeighborDelta,
    RegridPolicy, SpecEvent,
};
use cpm_suite::geom::QueryId;
use cpm_suite::grid::ObjectEvent;
use cpm_suite::sub::{CycleReceipt, DeltaFanout, Replica};

use crate::spec::{Workload, CLUSTER_OVERLAP};
use crate::trace::{Tracer, ROOT};

/// Operations attempted and failed. Every `Err`, typed refusal, lag flag
/// and mismatch lands here instead of in a panic; any failure makes the
/// run incorrect and the command exit non-zero.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the operator.
    pub notes: Vec<String>,
}

impl Ledger {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// The two bootstrap batches every fresh system (and twin) is fed.
#[derive(Debug, Clone)]
pub struct Bootstrap {
    pub appears: Vec<ObjectEvent>,
    pub installs: Vec<SpecEvent<AnyQuerySpec>>,
}

/// Delta entries (adds + removes + reorders) a batch carries.
pub fn delta_entries(batch: &CycleDeltas) -> u64 {
    batch
        .deltas
        .iter()
        .map(|(_, d)| (d.added.len() + d.removed.len() + d.reordered.len()) as u64)
        .sum()
}

/// A single-node server configured as the workload says.
pub fn build_server(w: &Workload, deltas: bool) -> Result<CpmServer, CpmError> {
    let mut b = CpmServerBuilder::new(w.dim).deltas(deltas);
    if w.auto_regrid {
        b = b.regrid(RegridPolicy::auto());
    }
    b.try_build()
}

enum Engine {
    Single(Box<CpmServer>),
    Cluster(Box<ClusterCoordinator<ChannelTransport>>, Vec<WorkerHandle>),
}

pub struct System {
    engine: Engine,
    fanout: DeltaFanout,
    replicas: Vec<Replica>,
    batch: CycleDeltas,
    drained: Vec<Vec<NeighborDelta>>,
    /// Clock readings before, between and after the two bootstrap cycles.
    pub boot_marks: [u64; 3],
}

/// What one cycle reports back to the harness.
#[derive(Debug, Clone, Copy)]
pub struct CycleOut {
    /// The measured unit: batch handed in -> last `Replica::apply` returned.
    pub ns: u64,
    /// `None` when the engine refused the batch or the epoch was out of
    /// order (counted as failed).
    pub receipt: Option<CycleReceipt>,
}

impl System {
    /// Build the engine, subscribe every query, run the two bootstrap
    /// cycles (objects appear, queries install) and hydrate the replicas
    /// from the initial all-additions deltas. This whole call is what
    /// `setup_s` times.
    pub fn build(
        w: &Workload,
        boot: &Bootstrap,
        tracer: &mut Tracer,
        ledger: &mut Ledger,
    ) -> Option<System> {
        let engine = if w.workers == 0 {
            match build_server(w, true) {
                Ok(s) => Engine::Single(Box::new(s)),
                Err(e) => {
                    ledger.check(false, || format!("server build: {e}"));
                    return None;
                }
            }
        } else {
            let cfg = ClusterConfig::new(w.dim, w.workers).overlap(CLUSTER_OVERLAP);
            match ClusterCoordinator::spawn_in_process(cfg) {
                Ok((c, handles)) => Engine::Cluster(Box::new(c), handles),
                Err(e) => {
                    ledger.check(false, || format!("cluster spawn: {e}"));
                    return None;
                }
            }
        };
        let n = boot.installs.len();
        let mut fanout = DeltaFanout::new();
        for q in 0..n {
            fanout.subscribe(QueryId(q as u32));
        }
        let mut sys = System {
            engine,
            fanout,
            replicas: vec![Replica::new(); n],
            batch: CycleDeltas::default(),
            drained: vec![Vec::new(); n],
            boot_marks: [0; 3],
        };
        let t0 = tracer.now();
        sys.cycle(1, &boot.appears, &[], tracer, ledger);
        let t1 = tracer.now();
        sys.cycle(2, &[], &boot.installs, tracer, ledger);
        sys.boot_marks = [t0, t1, tracer.now()];
        Some(sys)
    }

    /// One monitoring cycle, closed loop: engine -> publish -> every
    /// subscription drained -> every delta applied to its replica. The
    /// clock is read at the same four inner boundaries whether tracing is
    /// on or off; spans are stored after the unit's end.
    pub fn cycle(
        &mut self,
        id: u64,
        objects: &[ObjectEvent],
        queries: &[SpecEvent<AnyQuerySpec>],
        tracer: &mut Tracer,
        ledger: &mut Ledger,
    ) -> CycleOut {
        let t0 = tracer.now();
        let (engine_span, outcome, timings) = match &mut self.engine {
            Engine::Single(s) => (
                "core.cycle",
                s.process_cycle_with_deltas_into(objects, queries, &mut self.batch)
                    .map_err(|e| e.to_string()),
                None,
            ),
            Engine::Cluster(c, _) => (
                "cluster.cycle",
                c.process_cycle(objects, queries)
                    .map(|merged| self.batch = merged)
                    .map_err(|e| e.to_string()),
                Some(c.last_cycle_timings()),
            ),
        };
        let t1 = tracer.now();
        let in_order = self.batch.epoch == self.fanout.epoch() + 1;
        let engine_ok = outcome.is_ok();
        ledger.check(engine_ok, || {
            format!("cycle {id}: engine refused: {}", outcome.unwrap_err())
        });
        if engine_ok {
            ledger.check(in_order, || format!("cycle {id}: batch epoch out of order"));
        }
        if !(engine_ok && in_order) {
            return CycleOut {
                ns: t1 - t0,
                receipt: None,
            };
        }
        let receipt = self.fanout.publish(&self.batch);
        let t2 = tracer.now();
        for (q, slot) in self.drained.iter_mut().enumerate() {
            *slot = self.fanout.drain(QueryId(q as u32));
        }
        let t3 = tracer.now();
        let mut stale = 0u64;
        let mut applied = 0u64;
        for (replica, deltas) in self.replicas.iter_mut().zip(&self.drained) {
            for d in deltas {
                // `Replica::apply` panics on a regressing epoch; refuse here.
                if d.epoch > replica.epoch() {
                    replica.apply(d);
                    applied += 1;
                } else {
                    stale += 1;
                }
            }
        }
        let t4 = tracer.now();

        ledger.attempted += applied + stale;
        ledger.failed += stale;
        tracer.record(ROOT, id, None, t0, t4);
        tracer.record(engine_span, id, Some(ROOT), t0, t1);
        tracer.record("sub.publish", id, Some(ROOT), t1, t2);
        tracer.record("sub.drain", id, Some(ROOT), t2, t3);
        tracer.record("sub.apply", id, Some(ROOT), t3, t4);
        if let Some(t) = timings {
            record_cluster_stages(tracer, id, t0, t);
        }
        CycleOut {
            ns: t4 - t0,
            receipt: Some(receipt),
        }
    }

    /// The batch the last cycle produced.
    pub fn batch(&self) -> &CycleDeltas {
        &self.batch
    }

    pub fn replica(&self, q: usize) -> &[Neighbor] {
        self.replicas[q].result()
    }

    /// The single-node server (`None` behind a cluster).
    pub fn server(&self) -> Option<&CpmServer> {
        match &self.engine {
            Engine::Single(s) => Some(s),
            Engine::Cluster(..) => None,
        }
    }

    pub fn server_mut(&mut self) -> Option<&mut CpmServer> {
        match &mut self.engine {
            Engine::Single(s) => Some(s),
            Engine::Cluster(..) => None,
        }
    }

    /// Cumulative full-batch encodes of the fan-out.
    pub fn encodes(&self) -> u64 {
        self.fanout.encodes()
    }

    /// Subscriptions that lost deltas to mailbox overflow.
    pub fn lagged(&self) -> usize {
        (0..self.replicas.len())
            .filter(|&q| self.fanout.lagged(QueryId(q as u32)))
            .count()
    }

    /// Stop every worker thread and wait until each has ended.
    pub fn shutdown(self, ledger: &mut Ledger) {
        if let Engine::Cluster(c, handles) = self.engine {
            let down = c.shutdown();
            ledger.check(down.is_ok(), || format!("cluster shutdown: {down:?}"));
            for h in handles {
                let joined = h.join();
                let ok = matches!(joined, Ok(Ok(())));
                ledger.check(ok, || format!("worker exit: {joined:?}"));
            }
        }
    }
}

/// The coordinator reports route / worker-wait / merge as durations, not
/// instants; lay them end to end from the cycle's start as child spans.
fn record_cluster_stages(tracer: &mut Tracer, id: u64, start: u64, t: CycleTimings) {
    let mut at = start;
    for (name, d) in [
        ("cluster.route", t.route),
        ("cluster.worker_wait", t.worker_wait),
        ("cluster.merge", t.merge),
    ] {
        let end = at + d.as_nanos() as u64;
        tracer.record(name, id, Some("cluster.cycle"), at, end);
        at = end;
    }
}
