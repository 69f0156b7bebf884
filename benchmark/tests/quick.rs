//! The `--quick` smoke scale, end to end through the real binary: every
//! metric `BENCHMARK.json` names is emitted exactly once per workload,
//! nothing fails, counts repeat exactly, and the trace artifact can be
//! summarized on its own.

use std::path::Path;
use std::process::Command;

use cpm_cycle_benchmark::report::RunResult;
use cpm_cycle_benchmark::spec::{manifest, END_TO_END, PER_LAYER, WORKLOADS};

const EXE: &str = env!("CARGO_BIN_EXE_benchmark");

fn quick(workload: &str, trace: bool) -> RunResult {
    let out = Command::new(EXE)
        .args(["--workload", workload, "--seed", "2005", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--quick"])
        .output()
        .expect("the benchmark binary runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload} exited non-zero:\n{text}");
    let last = text.lines().last().expect("a result line");
    RunResult::from_json(last).unwrap_or_else(|| panic!("unparseable result line: {last}"))
}

fn names(r: &RunResult) -> Vec<&str> {
    r.metrics.iter().map(|(n, _, _)| n.as_str()).collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_is_the_generated_manifest_and_within_the_drivers_limits() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        manifest(),
        "regenerate with `benchmark manifest > BENCHMARK.json`"
    );
    assert!(on_disk.len() <= 64 * 1024);
    let defs = END_TO_END.iter().map(|(d, _)| d).chain(PER_LAYER.iter());
    let mut seen = std::collections::BTreeSet::new();
    for d in defs {
        assert!(well_formed(d.name), "{}", d.name);
        assert!(seen.insert(d.name), "{} is used twice", d.name);
        assert!(
            d.unit.len() <= 16
                && d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        );
        assert!(d.better == "lower" || d.better == "higher");
    }
    for w in &WORKLOADS {
        assert!(well_formed(w.name) && seen.insert(w.name));
        assert!(w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'));
    }
    for (d, bound) in &END_TO_END {
        assert!(*bound > 0.0 && *bound <= 0.25, "{}", d.name);
    }
    assert!(END_TO_END
        .iter()
        .any(|(d, _)| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
}

#[test]
fn quick_runs_emit_every_named_metric_once_and_nothing_fails() {
    let e2e: Vec<&str> = END_TO_END.iter().map(|(d, _)| d.name).collect();
    let layers: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    for w in &WORKLOADS {
        let plain = quick(w.name, false);
        assert!(plain.correct && plain.failed == 0 && plain.attempted >= 1);
        assert_eq!(names(&plain), e2e, "{}", w.name);
        for (n, v, _) in &plain.metrics {
            assert!(v.is_finite() && *v > 0.0, "{} {n} = {v}", w.name);
        }

        let traced = quick(w.name, true);
        assert!(traced.correct && traced.failed == 0);
        assert_eq!(names(&traced), layers, "{}", w.name);
        let get = |n: &str| traced.get(n).unwrap_or(f64::NAN);
        assert!((0.95..=1.05).contains(&get("trace.share_sum")));
        assert_eq!(get("sub.encodes_per_cycle"), 1.0);
        assert_eq!(get("sub.lagged"), 0.0);
        assert_eq!(get("sim.oracle_mismatches"), 0.0);
        let clustered = w.workers > 0;
        for (n, v, _) in traced
            .metrics
            .iter()
            .filter(|(n, _, _)| n.starts_with("cluster."))
        {
            assert_eq!(*v > 0.0, clustered, "{} {n} = {v}", w.name);
        }

        // The artifact alone reproduces the per-layer table.
        let file = cpm_cycle_benchmark::out_dir().join(format!("trace-{}.jsonl", w.name));
        let summary = Command::new(EXE)
            .arg("summarize")
            .arg(&file)
            .output()
            .expect("summarize runs");
        let text = String::from_utf8_lossy(&summary.stdout);
        assert!(summary.status.success(), "{text}");
        for span in [
            "cycle",
            "sub.publish",
            "sub.drain",
            "sub.apply",
            "grid.ingest",
            "wire.encode",
        ] {
            assert!(
                text.lines().any(|l| l.starts_with(span)),
                "{span} missing:\n{text}"
            );
        }

        // Same seed, same code: every count repeats exactly.
        let again = quick(w.name, true);
        for ((n, a, unit), (_, b, _)) in traced.metrics.iter().zip(&again.metrics) {
            if unit == "count" || unit == "bytes" {
                assert_eq!(a, b, "{} {n} did not repeat", w.name);
            }
        }
        assert_eq!(
            plain.get("sub_bytes_per_cycle"),
            quick(w.name, false).get("sub_bytes_per_cycle")
        );
    }
}
