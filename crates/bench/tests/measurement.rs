//! The measurement system's own tests: records round-trip, every
//! checked-in record feeds every gate row that names it, and every gate
//! row fails on the wrong side of its bound.

use cpm_bench::gates::{evaluate, Bound, Gate, CURVE_TOLERANCE, GATES};
use cpm_bench::paired::Stat;
use cpm_bench::record::{Fields, Machine, Value};
use cpm_bench::{fields, BenchRecord, BENCHES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_text(rng: &mut StdRng) -> String {
    const ALPHABET: [char; 8] = ['a', 'Z', '_', ' ', '"', '\\', 'δ', '²'];
    let len = rng.gen_range(0..6);
    (0..len).map(|_| ALPHABET[rng.gen_range(0..8)]).collect()
}

fn random_number(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..4) {
        0 => f64::from(rng.gen_range(0..1_000_000u32)),
        1 => -rng.gen::<f64>(),
        2 => rng.gen::<f64>() * 1e12,
        _ => rng.gen::<f64>() * 1e-9,
    }
}

fn random_fields(rng: &mut StdRng) -> Fields {
    let len = rng.gen_range(0..5);
    (0..len)
        .map(|_| {
            let value = match rng.gen_range(0..4) {
                0 => Value::Num(random_number(rng)),
                1 => Value::Bool(rng.gen_range(0..2) == 1),
                2 => Value::Str(random_text(rng)),
                _ => Value::List(
                    (0..rng.gen_range(0..4))
                        .map(|_| random_number(rng))
                        .collect(),
                ),
            };
            (random_text(rng), value)
        })
        .collect()
}

/// `parse(render(r)) == r` for arbitrary records, including the empty
/// ones, quotes and backslashes in every string, and numbers across
/// twenty orders of magnitude.
#[test]
fn records_round_trip_through_render_and_parse() {
    let mut rng = StdRng::seed_from_u64(2005);
    for case in 0..300 {
        let record = BenchRecord {
            bench: random_text(&mut rng),
            config: random_fields(&mut rng),
            machine: Machine {
                threads_available: rng.gen_range(1..256),
                os: random_text(&mut rng),
                arch: random_text(&mut rng),
            },
            rows: (0..rng.gen_range(0..4))
                .map(|_| random_fields(&mut rng))
                .collect(),
            summary: (0..rng.gen_range(0..4))
                .map(|_| {
                    let stat = Stat {
                        median: random_number(&mut rng),
                        mad: random_number(&mut rng),
                    };
                    (random_text(&mut rng), stat)
                })
                .collect(),
        };
        let text = record.render();
        assert_eq!(
            BenchRecord::parse(&text),
            Ok(record),
            "case {case}:\n{text}"
        );
    }
}

#[test]
fn malformed_documents_are_typed_errors() {
    let good = BenchRecord::new("x", fields! { "n" => 1usize }).render();
    assert!(BenchRecord::parse(&good).is_ok());
    for bad in [
        "",
        "[]",
        "{\"bench\": \"x\"}",
        &good.replace("\"rows\"", "\"results\""),
        &good.replace("\"n\": 1", "\"n\": null"),
        &good.replace("\"n\": 1", "\"n\": {\"deep\": 1}"),
        &good.replace("\"n\": 1", "\"n\": [true]"),
        &good.replace("\"n\": 1", "\"n\": 1e999"),
        &good.replace("\"x\"", "\"x"),
        &format!("{good} trailing"),
    ] {
        assert!(BenchRecord::parse(bad).is_err(), "accepted: {bad}");
    }
}

/// Every `BENCH_*.json` at the repository root parses, belongs to a
/// registered benchmark, and holds every metric a gate row names — so a
/// renamed field cannot turn a gate into a silent skip.
#[test]
fn checked_in_records_feed_every_gate_row() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut on_disk: Vec<String> = std::fs::read_dir(root)
        .expect("repository root")
        .map(|entry| entry.expect("dir entry").file_name().into_string().unwrap())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    on_disk.sort();
    let mut registered: Vec<String> = BENCHES
        .iter()
        .map(|b| format!("BENCH_{}.json", b.name))
        .collect();
    registered.sort();
    assert_eq!(on_disk, registered);

    for bench in BENCHES {
        let text = std::fs::read_to_string(bench.path()).expect("checked-in record");
        let record = BenchRecord::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        assert_eq!(record.bench, bench.name);
        assert_eq!(BenchRecord::parse(&record.render()), Ok(record.clone()));
        for gate in GATES.iter().filter(|g| g.bench == bench.name) {
            assert!(
                record.metric(gate.metric).is_some(),
                "BENCH_{}.json lacks gated metric {}",
                bench.name,
                gate.metric
            );
        }
    }
    for gate in GATES {
        assert!(BENCHES.iter().any(|b| b.name == gate.bench), "{gate:?}");
    }
}

/// A synthetic run of `bench` on a host with `threads` threads.
fn synthetic(bench: &str, metric: &str, value: f64, threads: usize) -> BenchRecord {
    let mut record = BenchRecord::new(bench, fields! { "scale" => 1usize });
    record.machine.threads_available = threads;
    record.put(metric, Stat::exact(value));
    record
}

fn passes(gate: &Gate, measured: &BenchRecord, recorded: Option<&BenchRecord>) -> bool {
    evaluate(gate, measured, recorded).iter().all(|v| v.passed)
}

/// Every row of the table, with a value on each side of the bar it
/// enforced at the parent commit (`bar`, `bar with the fixed margin`):
/// 2 threads ≥ 0.95 × 1 thread, ≥ 1.2 on ≥ 2 host threads, and
/// 4 threads ≥ 1.5 on ≥ 4; deltas ≤ 1.10 + 0.10; server ≥ 1.3 / 1.1;
/// regrid re-grids, ≥ 1.2 / 1.1, pause ≤ 25; recovery replays,
/// pause ≤ 25; kernels ≥ 1.0 / 1.1; the cluster did work, its merge and
/// route slices ≤ 1.25 × 1.1 and `submit_cycle` over `process_cycle`
/// ≥ 1.15 / 1.1 on ≥ 4 threads. The `figures` rows are the
/// paper's shape with no margin: CPM's counts and default-point cycle
/// time ≤ the baselines', Fig. 6.1's optimum within one axis step of the
/// model's, the Section 4.1 quantities within (π + 5) / π of it,
/// footnote 6's space order.
#[test]
fn every_gate_row_fails_on_the_wrong_side_of_its_bound() {
    // (bench, metric, min_threads, passing value, failing value)
    let sides = [
        ("threads", "speedup_2_threads", 1, 0.96, 0.94),
        ("threads", "speedup_2_threads", 2, 1.21, 1.19),
        ("threads", "speedup_4_threads", 4, 1.51, 1.49),
        ("deltas", "delta_over_full", 1, 1.19, 1.21),
        ("server", "unified_speedup", 1, 1.19, 1.17),
        ("regrid", "regrids", 1, 1.0, 0.0),
        ("regrid", "adaptive_speedup", 1, 1.10, 1.08),
        ("regrid", "regrid_pause_cycles", 1, 24.9, 25.1),
        ("recovery", "replayed", 1, 1.0, 0.0),
        ("recovery", "recovery_over_cycle", 1, 24.9, 25.1),
        (
            "kernels",
            "speedup_bucket32plus",
            1,
            1.0 / 1.1 + 0.01,
            1.0 / 1.1 - 0.01,
        ),
        ("cluster", "result_changes", 1, 1.0, 0.0),
        ("cluster", "merge_over_single", 1, 1.37, 1.38),
        ("cluster", "route_over_single", 1, 1.37, 1.38),
        ("cluster", "submit_over_process", 4, 1.05, 1.04),
        ("figures", "cpm_cells_over_best_baseline", 1, 1.0, 1.01),
        ("figures", "cpm_objects_over_best_baseline", 1, 1.0, 1.01),
        ("figures", "fig6_1_optimum_steps", 1, 1.0, 2.0),
        ("figures", "c_inf_model_factor", 1, 2.59, 2.61),
        ("figures", "o_inf_model_factor", 1, 2.59, 2.61),
        ("figures", "c_sh_model_factor", 1, 2.59, 2.61),
        ("figures", "space_ypk_over_sea", 1, 0.99, 1.01),
        ("figures", "space_sea_over_cpm", 1, 0.99, 1.01),
        ("figures", "default_cpm_over_ypk", 1, 0.99, 1.01),
        ("figures", "default_cpm_over_sea", 1, 0.99, 1.01),
    ];
    assert_eq!(sides.len(), GATES.len(), "one case per table row");
    for (gate, (bench, metric, min_threads, pass, fail)) in GATES.iter().zip(sides) {
        assert_eq!(
            (gate.bench, gate.metric, gate.min_threads),
            (bench, metric, min_threads)
        );
        // Curve rows get a recorded twin of the passing run, so only the
        // bound decides here.
        let recorded = synthetic(bench, metric, pass, 4);
        let recorded = gate.curve.then_some(&recorded);
        for threads in [1, 2, 4] {
            let applies = threads >= min_threads;
            let (good, bad) = (
                synthetic(bench, metric, pass, threads),
                synthetic(bench, metric, fail, threads),
            );
            assert!(
                passes(gate, &good, recorded),
                "{gate:?} at {pass} on {threads} threads"
            );
            // Below `min_threads` the property cannot show: not judged.
            assert_eq!(
                passes(gate, &bad, recorded),
                !applies,
                "{gate:?} at {fail} on {threads} threads"
            );
            // A run without the metric is a failure, never a skip.
            let renamed = synthetic(bench, "renamed", pass, threads);
            assert_eq!(
                passes(gate, &renamed, recorded),
                !applies,
                "{gate:?} without its metric"
            );
        }
    }
}

#[test]
fn a_curve_binds_only_at_the_recorded_configuration() {
    let curves: Vec<&Gate> = GATES.iter().filter(|g| g.curve).collect();
    let names: Vec<&str> = curves.iter().map(|g| g.bench).collect();
    assert_eq!(names, ["server", "kernels"]);
    for gate in curves {
        let Bound::AtLeast(bar) = gate.bound else {
            panic!("both curves guard speedups");
        };
        let recorded = synthetic(gate.bench, gate.metric, 4.0 * bar, 2);
        let kept = synthetic(
            gate.bench,
            gate.metric,
            4.0 * bar / (1.0 + CURVE_TOLERANCE) + 0.01,
            2,
        );
        let mut crept = synthetic(
            gate.bench,
            gate.metric,
            4.0 * bar / (1.0 + CURVE_TOLERANCE) - 0.01,
            2,
        );
        // Equal configuration: the curve binds although the bar holds.
        assert!(passes(gate, &kept, Some(&recorded)));
        assert!(!passes(gate, &crept, Some(&recorded)));
        // No readable record, or one without the metric: a failure.
        assert!(!passes(gate, &kept, None));
        assert!(!passes(
            gate,
            &kept,
            Some(&synthetic(gate.bench, "renamed", 1.0, 2))
        ));
        // Another configuration (scale): only the bar binds.
        crept.config = fields! { "scale" => 2usize };
        assert!(passes(gate, &crept, Some(&recorded)));
    }
}
