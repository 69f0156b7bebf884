//! Shared by the conformance suites, each of which is a set of streams
//! and lane sets over `cpm_suite::sim::verify`.
#![allow(dead_code)] // every suite uses its own subset

use std::num::NonZeroUsize;

use cpm_suite::core::{AnyQuerySpec, QuerySpec, SpecEvent};
use cpm_suite::grid::QueryKind;
use cpm_suite::sim::{Deploy, LaneConfig, OpStream, Regrid, SimParams, SimulationInput};
use cpm_suite::wire::{read_frame, write_frame, Reader};

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

/// One single-node lane per thread count, no re-grids.
pub fn thread_lanes(counts: &[usize]) -> Vec<LaneConfig> {
    lanes(counts, Regrid::Pinned, Deploy::Single)
}

pub fn lane(threads: usize, regrid: Regrid, deploy: Deploy) -> LaneConfig {
    LaneConfig {
        threads: NonZeroUsize::new(threads).expect("a lane runs on at least one thread"),
        regrid,
        deploy,
    }
}

/// One lane per thread count at one re-grid behaviour and deployment.
pub fn lanes(thread_counts: &[usize], regrid: Regrid, deploy: Deploy) -> Vec<LaneConfig> {
    let at = |&s| lane(s, regrid, deploy);
    thread_counts.iter().map(at).collect()
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

/// `frame` as a build from before the quadtree index was removed wrote it
/// for a quadtree deployment: the index tag (a `0` at payload offset
/// `tag_at`) replaced by tag `1` and a `u32` split threshold, re-sealed
/// through `write_frame` so only the tag stands between it and a decode.
pub fn quadtree_era_frame(kind: u16, frame: &[u8], tag_at: usize) -> Vec<u8> {
    let payload = read_frame(&mut Reader::new(frame), kind).expect("a well-formed frame");
    assert_eq!(payload[tag_at], 0, "the index tag is always written 0");
    let mut old = payload[..tag_at].to_vec();
    old.push(1);
    old.extend_from_slice(&32u32.to_le_bytes());
    old.extend_from_slice(&payload[tag_at + 1..]);
    let mut sealed = Vec::new();
    write_frame(&mut sealed, kind, &old);
    sealed
}
