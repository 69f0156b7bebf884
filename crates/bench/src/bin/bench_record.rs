//! Re-record checked-in micro-benchmark results at acceptance scale:
//!
//! ```text
//! cargo run --release -p cpm-bench --bin bench_record -- <name>...|all
//! ```
//!
//! Each named benchmark (see [`cpm_bench::BENCHES`]) is measured and its
//! `BENCH_<name>.json` at the repository root overwritten.

use cpm_bench::BENCHES;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = BENCHES.iter().map(|b| b.name).collect();
    let known = |a: &String| a == "all" || names.contains(&a.as_str());
    if args.is_empty() || !args.iter().all(known) {
        eprintln!(
            "usage: bench_record <name>...|all   (names: {})",
            names.join(" ")
        );
        std::process::exit(2);
    }
    let all = args.iter().any(|a| a == "all");
    for bench in BENCHES {
        if all || args.iter().any(|a| a == bench.name) {
            let record = (bench.record)();
            print!("{record}");
            std::fs::write(bench.path(), record.render()).expect("write the record");
            println!("wrote {}\n", bench.path());
        }
    }
}
