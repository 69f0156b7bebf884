//! Shared by the conformance suites, each of which is a set of streams
//! and lane sets over `cpm_suite::sim::verify`.
#![allow(dead_code)] // every suite uses its own subset

use cpm_suite::core::{AnyQuerySpec, QuerySpec, SpecEvent};
use cpm_suite::grid::{IndexKind, QueryKind};
use cpm_suite::sim::{Deploy, LaneConfig, OpStream, Regrid, SimParams, SimulationInput};

/// Per-test case budget: `PROPTEST_CASES` (the CI conformance job's
/// wall-time bound) can only *cap* these heavyweight properties — each
/// case replays a multi-cycle stream across several lanes with per-epoch
/// oracle checks, so raising the global budget must not multiply them.
pub fn case_budget(default_cases: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .map_or(default_cases, |cap: u32| cap.min(default_cases))
}

/// One single-node lane per shard count: uniform grid, no re-grids.
pub fn shard_lanes(counts: &[usize]) -> Vec<LaneConfig> {
    lanes(
        &[IndexKind::Uniform],
        counts,
        Regrid::Pinned,
        Deploy::Single,
    )
}

pub fn lane(shards: usize, index: IndexKind, regrid: Regrid, deploy: Deploy) -> LaneConfig {
    LaneConfig {
        shards,
        index,
        regrid,
        deploy,
    }
}

/// The cross product `backends × shard counts` at one re-grid behaviour
/// and deployment.
pub fn lanes(
    backends: &[IndexKind],
    shard_counts: &[usize],
    regrid: Regrid,
    deploy: Deploy,
) -> Vec<LaneConfig> {
    let at = |&index| {
        shard_counts
            .iter()
            .map(move |&s| lane(s, index, regrid, deploy))
    };
    backends.iter().flat_map(at).collect()
}

/// A paper workload (network / uniform / skewed / drift k-NN stream) as an
/// op-stream; tick `i` is cycle `i + 2`.
pub fn paper_stream(params: &SimParams) -> OpStream {
    OpStream::from(&SimulationInput::generate(params))
}

/// Every geometry the stream installs or moves a query to.
pub fn specs(stream: &OpStream) -> impl Iterator<Item = &AnyQuerySpec> {
    let events = stream.cycles.iter().flat_map(|c| &c.spec_events);
    events.filter_map(|ev| match ev {
        SpecEvent::Install { spec, .. } | SpecEvent::Update { spec, .. } => Some(spec),
        SpecEvent::Terminate { .. } => None,
    })
}

/// How many install/update events of `kind` the stream carries — the
/// per-kind suites assert their streams really exercise their kind.
pub fn events_of(stream: &OpStream, kind: QueryKind) -> usize {
    specs(stream).filter(|spec| spec.kind() == kind).count()
}
