//! The experiment runner: replay a [`SimulationInput`] into a monitor and
//! collect per-run statistics (wall time of the processing cycles plus the
//! hardware-independent counters of [`cpm_grid::Metrics`]).

use std::time::{Duration, Instant};

use cpm_grid::Metrics;

use crate::algo::{AlgoKind, KnnMonitorAlgo};
use crate::stream::SimulationInput;

/// Aggregated statistics of one simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Algorithm label.
    pub algo: &'static str,
    /// Wall time spent inside `process_cycle` (excludes workload
    /// generation and result verification).
    pub processing_time: Duration,
    /// Wall time spent installing the initial queries.
    pub install_time: Duration,
    /// Summed work counters over all cycles.
    pub metrics: Metrics,
    /// Number of processed timestamps.
    pub cycles: usize,
    /// Number of installed queries.
    pub n_queries: usize,
    /// Memory units at the end of the run (Section 4.1 accounting).
    pub space_units: usize,
    /// Total result changes reported.
    pub result_changes: usize,
}

impl RunReport {
    /// Cell accesses per query per timestamp — the y-axis of Figure 6.3b.
    pub fn cell_accesses_per_query_per_cycle(&self) -> f64 {
        self.metrics.cell_accesses as f64 / (self.n_queries.max(1) * self.cycles.max(1)) as f64
    }

    /// Memory units converted to megabytes at 4 bytes per unit (the
    /// paper's footnote-6 space comparison).
    pub fn space_mbytes(&self) -> f64 {
        self.space_units as f64 * 4.0 / (1024.0 * 1024.0)
    }
}

/// Run `algo` over the pre-generated `input` and report statistics.
pub fn run(algo: AlgoKind, input: &SimulationInput) -> RunReport {
    let mut monitor = algo.build(input.params.grid_dim);
    run_boxed(&mut *monitor, input)
}

/// Run an already-built monitor over `input` (for custom configurations).
pub fn run_boxed(monitor: &mut dyn KnnMonitorAlgo, input: &SimulationInput) -> RunReport {
    monitor.populate(&input.initial_objects);

    let install_start = Instant::now();
    for &(qid, pos, k) in &input.initial_queries {
        monitor.install_query(qid, pos, k);
    }
    let install_time = install_start.elapsed();

    let mut processing_time = Duration::ZERO;
    let mut result_changes = 0usize;
    for tick in &input.ticks {
        let start = Instant::now();
        let changed = monitor.process_cycle(&tick.object_events, &tick.query_events);
        processing_time += start.elapsed();
        result_changes += changed.len();
    }

    RunReport {
        algo: monitor.name(),
        processing_time,
        install_time,
        metrics: monitor.take_metrics(),
        cycles: input.ticks.len(),
        n_queries: input.initial_queries.len(),
        space_units: monitor.space_units(),
        result_changes,
    }
}

/// Run every contender (CPM, YPK-CNN, SEA-CNN) over the same input.
pub fn run_contenders(input: &SimulationInput) -> Vec<RunReport> {
    AlgoKind::CONTENDERS
        .iter()
        .map(|&a| run(a, input))
        .collect()
}

/// Replay `input` into all contenders *and* the oracle, asserting that
/// every query's result distances agree with the ground truth at every
/// timestamp (distance ties may differ in object id). Used by integration
/// tests; panics on divergence.
pub fn verify_against_oracle(input: &SimulationInput) {
    let mut monitors: Vec<Box<dyn KnnMonitorAlgo>> = [
        AlgoKind::Cpm,
        AlgoKind::Ypk,
        AlgoKind::Sea,
        AlgoKind::Oracle,
    ]
    .iter()
    .map(|&a| a.build(input.params.grid_dim))
    .collect();

    for m in monitors.iter_mut() {
        m.populate(&input.initial_objects);
        for &(qid, pos, k) in &input.initial_queries {
            m.install_query(qid, pos, k);
        }
    }

    let (oracle, contenders) = monitors.split_last_mut().expect("non-empty");
    compare_all(&**oracle, contenders, input, 0);

    for (t, tick) in input.ticks.iter().enumerate() {
        for m in contenders.iter_mut() {
            m.process_cycle(&tick.object_events, &tick.query_events);
        }
        oracle.process_cycle(&tick.object_events, &tick.query_events);
        compare_all(&**oracle, contenders, input, t + 1);
    }
}

fn compare_all(
    oracle: &dyn KnnMonitorAlgo,
    contenders: &[Box<dyn KnnMonitorAlgo>],
    input: &SimulationInput,
    timestamp: usize,
) {
    for &(qid, _, _) in &input.initial_queries {
        let truth = oracle.result(qid).expect("oracle tracks every query");
        for m in contenders {
            let got = m
                .result(qid)
                .unwrap_or_else(|| panic!("{} lost query {qid}", m.name()));
            assert!(
                crate::oracle::same_distances(got, truth),
                "{} diverged on {qid} at t={timestamp}: {got:?} vs {truth:?}",
                m.name()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{SimParams, WorkloadKind};

    fn tiny_params() -> SimParams {
        SimParams {
            n_objects: 250,
            n_queries: 10,
            k: 4,
            timestamps: 12,
            grid_dim: 32,
            workload: WorkloadKind::Network { grid_streets: 8 },
            ..SimParams::default()
        }
    }

    #[test]
    fn all_algorithms_agree_with_the_oracle() {
        verify_against_oracle(&SimulationInput::generate(&tiny_params()));
    }

    #[test]
    fn reports_carry_sane_statistics() {
        let input = SimulationInput::generate(&tiny_params());
        let reports = run_contenders(&input);
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert_eq!(r.cycles, 12);
            assert_eq!(r.n_queries, 10);
            assert!(r.space_units > 0);
            assert!(r.metrics.updates_applied > 0);
        }
        // CPM must do no more cell accesses than either baseline on the
        // default maintenance-heavy workload.
        let cpm = &reports[0];
        assert!(cpm.metrics.cell_accesses <= reports[1].metrics.cell_accesses);
        assert!(cpm.metrics.cell_accesses <= reports[2].metrics.cell_accesses);
    }
}
