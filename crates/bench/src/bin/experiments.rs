//! The experiment driver: prints a fresh record of any figure or
//! benchmark, without writing it.
//!
//! ```text
//! experiments <name>... [--scale X] [--paper]
//!
//! names:
//!   table2_1 table6_1                 the paper's two static tables
//!   fig6_1 … fig6_6b space analysis skew ann ann_moving_sets constrained rnn
//!                                     one row set of `cpm_bench::figures::SWEEPS`
//!   threads deltas server regrid recovery cluster
//!                                     a micro-benchmark of `cpm_bench::BENCHES`,
//!                                     at the scale `bench_check` gates
//!   figures                           every sweep above as one record, with the
//!                                     summary the shape gates read
//!   all                               the two tables and every benchmark
//!
//! options:
//!   --scale X     scale factor in (0, 1] applied to N, n, the timestamps and
//!                 (by its square root) the grid of the figures (default 0.1)
//!   --paper       shorthand for --scale 1.0 (full Table 6.1 scale; hours)
//! ```

use cpm_bench::figures::{self, SWEEPS};
use cpm_bench::{BenchRecord, BENCHES, DEFAULT_SCALE};
use cpm_sim::SimParams;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = DEFAULT_SCALE;
    let mut names: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--paper" => scale = 1.0,
            "--scale" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| die("--scale needs a value"))
                    .parse::<f64>()
                    .unwrap_or_else(|_| die("--scale needs a float in (0, 1]"));
                if !(v > 0.0 && v <= 1.0) {
                    die("--scale out of (0, 1]");
                }
                scale = v;
            }
            "--help" | "-h" => return print_help(),
            name => names.push(name),
        }
    }
    if names.is_empty() {
        return print_help();
    }
    if names.contains(&"all") {
        names = ["table2_1", "table6_1"].into();
        names.extend(BENCHES.iter().map(|b| b.name));
    }

    println!("# CPM reproduction experiments (scale {scale})\n");
    for name in names {
        let start = std::time::Instant::now();
        match name {
            "table2_1" => print_table_2_1(),
            "table6_1" => print_table_6_1(scale),
            _ => match record(name, scale) {
                Some(record) => println!("{record}"),
                None => eprintln!("unknown experiment: {name} (see --help)"),
            },
        }
        eprintln!("[{name} took {:.1}s]\n", start.elapsed().as_secs_f64());
    }
}

/// A fresh record of the figure or benchmark called `name`.
fn record(name: &str, scale: f64) -> Option<BenchRecord> {
    if name == "figures" {
        return Some(figures::measure(scale, None));
    }
    if let Some(sweep) = SWEEPS.iter().find(|s| s.name == name) {
        println!("{} — the paper: {}", sweep.title, sweep.claim);
        return Some(figures::measure(scale, Some(name)));
    }
    let bench = BENCHES.iter().find(|b| b.name == name)?;
    Some((bench.gate)())
}

fn print_table_2_1() {
    println!("## Table 2.1 — properties of monitoring methods\n");
    println!("method    | query | memory | processing  | result");
    println!("----------+-------+--------+-------------+------------");
    println!("Q-index   | range | main   | distributed | exact");
    println!("MQM       | range | main   | distributed | exact");
    println!("Mobieyes  | range | main   | distributed | exact");
    println!("SINA      | range | disk   | centralized | exact");
    println!("DISC      | NN    | main   | centralized | approximate");
    println!("YPK-CNN   | NN    | main   | centralized | exact");
    println!("SEA-CNN   | NN    | disk   | centralized | exact");
    println!("CPM       | NN    | main   | centralized | exact\n");
}

fn print_table_6_1(scale: f64) {
    let p = SimParams::scaled(scale);
    println!("## Table 6.1 — system parameters (this run, scale {scale})\n");
    println!("parameter             | default (run)   | paper range");
    println!("----------------------+-----------------+----------------------");
    println!(
        "object population N   | {:<15} | 10, 50, 100, 150, 200 (K)",
        p.n_objects
    );
    println!(
        "number of queries n   | {:<15} | 1, 2, 5, 7, 10 (K)",
        p.n_queries
    );
    println!("number of NNs k       | {:<15} | 1, 4, 16, 64, 256", p.k);
    println!(
        "object/query speed    | {:<15} | slow, medium, fast",
        p.object_speed.label()
    );
    println!(
        "object agility f_obj  | {:<15} | 10..50 (%)",
        format!("{:.0}%", p.f_obj * 100.0)
    );
    println!(
        "query agility f_qry   | {:<15} | 10..50 (%)",
        format!("{:.0}%", p.f_qry * 100.0)
    );
    println!(
        "grid                  | {:<15} | 32²..1024²",
        format!("{0}x{0}", p.grid_dim)
    );
    println!("timestamps            | {:<15} | 100\n", p.timestamps);
}

fn print_help() {
    let sweeps: Vec<&str> = SWEEPS.iter().map(|s| s.name).collect();
    let benches: Vec<&str> = BENCHES.iter().map(|b| b.name).collect();
    println!(
        "usage: experiments <name>... [--scale X | --paper]\n\
         names: table2_1 table6_1 all\n\
         \u{20}      {}\n\
         \u{20}      {}",
        sweeps.join(" "),
        benches.join(" ")
    );
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}
