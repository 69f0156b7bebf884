//! The common monitor interface the harness drives.
//!
//! CPM, YPK-CNN, SEA-CNN and the brute-force oracle all consume identical
//! update streams; [`KnnMonitorAlgo`] is the uniform surface the runner and
//! the tests use to compare them cycle by cycle.

use std::num::NonZeroUsize;

use cpm_geom::{ObjectId, Point, QueryId};
use cpm_grid::{Metrics, ObjectEvent, QueryEvent};

use cpm_baselines::{SeaCnnMonitor, YpkCnnMonitor};
use cpm_core::{AnyQuerySpec, CpmServer, CpmServerBuilder, Neighbor, PointQuery, SpecEvent};

use crate::oracle::OracleMonitor;

/// Which monitoring algorithm to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgoKind {
    /// Conceptual Partitioning Monitoring (the paper's contribution).
    Cpm,
    /// The YPK-CNN baseline \[YPK05\].
    Ypk,
    /// The SEA-CNN baseline \[XMA05\].
    Sea,
    /// Brute-force per-cycle re-evaluation (ground truth; not a contender).
    Oracle,
}

impl AlgoKind {
    /// The three contenders of the paper's evaluation (no oracle).
    pub const CONTENDERS: [AlgoKind; 3] = [AlgoKind::Cpm, AlgoKind::Ypk, AlgoKind::Sea];

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            AlgoKind::Cpm => "CPM",
            AlgoKind::Ypk => "YPK-CNN",
            AlgoKind::Sea => "SEA-CNN",
            AlgoKind::Oracle => "oracle",
        }
    }

    /// Instantiate a monitor over an empty `dim × dim` grid.
    pub fn build(self, dim: u32) -> Box<dyn KnnMonitorAlgo> {
        match self {
            AlgoKind::Cpm => Box::new(CpmMonitor::new(dim)),
            AlgoKind::Ypk => Box::new(YpkCnnMonitor::new(dim)),
            AlgoKind::Sea => Box::new(SeaCnnMonitor::new(dim)),
            AlgoKind::Oracle => Box::new(OracleMonitor::new()),
        }
    }
}

/// A continuous k-NN monitoring algorithm, as driven by the harness.
pub trait KnnMonitorAlgo {
    /// Algorithm label.
    fn name(&self) -> &'static str;

    /// Bulk-load the initial object population (before any query).
    fn populate(&mut self, objects: &[(ObjectId, Point)]);

    /// Install a query and compute its initial result.
    fn install_query(&mut self, id: QueryId, pos: Point, k: usize);

    /// Process one timestamp worth of updates. Returns queries whose
    /// result changed.
    fn process_cycle(
        &mut self,
        object_events: &[ObjectEvent],
        query_events: &[QueryEvent],
    ) -> Vec<QueryId>;

    /// Current result of a query, ascending by distance.
    fn result(&self, id: QueryId) -> Option<&[Neighbor]>;

    /// Take and reset the work counters.
    fn take_metrics(&mut self) -> Metrics;

    /// Memory footprint in the paper's memory units (Section 4.1).
    fn space_units(&self) -> usize;
}

/// CPM behind the harness vocabulary: a server on one thread (the
/// paper's algorithm) over point queries plus the [`QueryEvent`] →
/// [`SpecEvent`] lift. The harness's streams are well-formed, so a
/// refused call or batch is a bug and panics.
struct CpmMonitor {
    server: CpmServer,
    /// Scratch: the cycle's query events in the server's vocabulary.
    events: Vec<SpecEvent<AnyQuerySpec>>,
}

impl CpmMonitor {
    fn new(dim: u32) -> Self {
        Self {
            server: CpmServerBuilder::new(dim)
                .threads(NonZeroUsize::MIN)
                .build(),
            events: Vec::new(),
        }
    }
}

impl KnnMonitorAlgo for CpmMonitor {
    fn name(&self) -> &'static str {
        AlgoKind::Cpm.label()
    }

    fn populate(&mut self, objects: &[(ObjectId, Point)]) {
        self.server.populate(objects.iter().copied());
    }

    fn install_query(&mut self, id: QueryId, pos: Point, k: usize) {
        self.server
            .install_spec(id, PointQuery(pos), k)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    fn process_cycle(
        &mut self,
        object_events: &[ObjectEvent],
        query_events: &[QueryEvent],
    ) -> Vec<QueryId> {
        self.events.clear();
        self.events
            .extend(query_events.iter().map(|&ev| SpecEvent::from(ev)));
        self.server
            .process_cycle(object_events, &self.events)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    fn result(&self, id: QueryId) -> Option<&[Neighbor]> {
        self.server.result(id)
    }

    fn take_metrics(&mut self) -> Metrics {
        self.server.take_metrics()
    }

    fn space_units(&self) -> usize {
        self.server.space_units()
    }
}

impl KnnMonitorAlgo for YpkCnnMonitor {
    fn name(&self) -> &'static str {
        AlgoKind::Ypk.label()
    }

    fn populate(&mut self, objects: &[(ObjectId, Point)]) {
        YpkCnnMonitor::populate(self, objects.iter().copied());
    }

    fn install_query(&mut self, id: QueryId, pos: Point, k: usize) {
        YpkCnnMonitor::install_query(self, id, pos, k);
    }

    fn process_cycle(
        &mut self,
        object_events: &[ObjectEvent],
        query_events: &[QueryEvent],
    ) -> Vec<QueryId> {
        YpkCnnMonitor::process_cycle(self, object_events, query_events)
    }

    fn result(&self, id: QueryId) -> Option<&[Neighbor]> {
        YpkCnnMonitor::result(self, id)
    }

    fn take_metrics(&mut self) -> Metrics {
        YpkCnnMonitor::take_metrics(self)
    }

    fn space_units(&self) -> usize {
        YpkCnnMonitor::space_units(self)
    }
}

impl KnnMonitorAlgo for SeaCnnMonitor {
    fn name(&self) -> &'static str {
        AlgoKind::Sea.label()
    }

    fn populate(&mut self, objects: &[(ObjectId, Point)]) {
        SeaCnnMonitor::populate(self, objects.iter().copied());
    }

    fn install_query(&mut self, id: QueryId, pos: Point, k: usize) {
        SeaCnnMonitor::install_query(self, id, pos, k);
    }

    fn process_cycle(
        &mut self,
        object_events: &[ObjectEvent],
        query_events: &[QueryEvent],
    ) -> Vec<QueryId> {
        SeaCnnMonitor::process_cycle(self, object_events, query_events)
    }

    fn result(&self, id: QueryId) -> Option<&[Neighbor]> {
        SeaCnnMonitor::result(self, id)
    }

    fn take_metrics(&mut self) -> Metrics {
        SeaCnnMonitor::take_metrics(self)
    }

    fn space_units(&self) -> usize {
        SeaCnnMonitor::space_units(self)
    }
}
