//! The CI benchmark-regression gate, reproducible locally:
//!
//! ```text
//! cargo run --release -p cpm-bench --bin bench_check
//! ```
//!
//! Runs every micro-benchmark at its gate scale and judges it by the
//! rows of [`cpm_bench::gates::GATES`] — that table is the complete list
//! of what is enforced and why. Exits non-zero if any row fails.

use cpm_bench::gates::{evaluate, GATES};
use cpm_bench::{BenchRecord, BENCHES};

fn main() {
    let mut failed = 0;
    for bench in BENCHES {
        let measured = (bench.gate)();
        print!("{measured}");
        let recorded = std::fs::read_to_string(bench.path())
            .ok()
            .and_then(|text| BenchRecord::parse(&text).ok());
        for gate in GATES.iter().filter(|g| g.bench == bench.name) {
            for verdict in evaluate(gate, &measured, recorded.as_ref()) {
                println!("   {}", verdict.line);
                failed += usize::from(!verdict.passed);
            }
        }
        println!();
    }
    if failed > 0 {
        eprintln!("bench_check FAILED: {failed} gate row(s)");
        std::process::exit(1);
    }
    println!("bench_check passed");
}
