//! The experiment driver: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments <name>... [--scale X] [--paper] [--shards LIST]
//!
//! names:
//!   table2_1 table6_1
//!   fig6_1 fig6_2a fig6_2b fig6_3 fig6_4a fig6_4b fig6_5a fig6_5b
//!   fig6_6a fig6_6b
//!   space analysis ann constrained skew drift shards
//!   deltas mixed rnn pipeline
//!   all          (everything above)
//!
//! options:
//!   --scale X     scale factor in (0, 1] applied to N, n and timestamps
//!                 (default 0.1)
//!   --paper       shorthand for --scale 1.0 (full Table 6.1 scale; slow)
//!   --shards LIST comma-separated shard counts for the `shards`
//!                 experiment (default 1,2,4,8)
//! ```

use cpm_bench::{figures, DEFAULT_SCALE};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = DEFAULT_SCALE;
    let mut shards: Vec<usize> = vec![1, 2, 4, 8];
    let mut names: Vec<String> = Vec::new();
    let mut it = args.iter().peekable();
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
            "--shards" => {
                let list = it.next().unwrap_or_else(|| die("--shards needs a value"));
                shards = list
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n >= 1)
                            .unwrap_or_else(|| die("--shards needs positive integers, e.g. 1,2,4"))
                    })
                    .collect();
            }
            "--help" | "-h" => {
                print_help();
                return;
            }
            name => names.push(name.to_string()),
        }
    }
    if names.is_empty() {
        print_help();
        return;
    }
    if names.iter().any(|n| n == "all") {
        names = vec![
            "table2_1",
            "table6_1",
            "fig6_1",
            "fig6_2a",
            "fig6_2b",
            "fig6_3",
            "fig6_4a",
            "fig6_4b",
            "fig6_5a",
            "fig6_5b",
            "fig6_6a",
            "fig6_6b",
            "space",
            "analysis",
            "ann",
            "constrained",
            "skew",
            "drift",
            "shards",
            "deltas",
            "mixed",
            "rnn",
            "pipeline",
        ]
        .into_iter()
        .map(String::from)
        .collect();
    }

    println!("# CPM reproduction experiments (scale {scale})\n");
    for name in &names {
        run_experiment(name, scale, &shards);
    }
}

fn run_experiment(name: &str, scale: f64, shards: &[usize]) {
    let start = std::time::Instant::now();
    match name {
        "table2_1" => print_table_2_1(),
        "table6_1" => print_table_6_1(scale),
        "fig6_1" => figures::fig6_1(scale).print(),
        "fig6_2a" => figures::fig6_2a(scale).print(),
        "fig6_2b" => figures::fig6_2b(scale).print(),
        "fig6_3" | "fig6_3a" | "fig6_3b" => {
            let (a, b) = figures::fig6_3(scale);
            a.print();
            b.print();
        }
        "fig6_4a" => figures::fig6_4a(scale).print(),
        "fig6_4b" => figures::fig6_4b(scale).print(),
        "fig6_5a" => figures::fig6_5a(scale).print(),
        "fig6_5b" => figures::fig6_5b(scale).print(),
        "fig6_6a" => figures::fig6_6a(scale).print(),
        "fig6_6b" => figures::fig6_6b(scale).print(),
        "space" => figures::space(scale).print(),
        "analysis" => figures::analysis(scale).print(),
        "ann" => {
            figures::ann(scale).print();
            figures::ann_moving_sets(scale).print();
        }
        "constrained" => figures::constrained(scale).print(),
        "skew" => figures::skew(scale).print(),
        "drift" => figures::drift(scale).print(),
        "shards" => figures::shards(scale, shards).print(),
        "deltas" => figures::deltas(scale).print(),
        "mixed" => figures::mixed(scale).print(),
        "rnn" => figures::rnn(scale).print(),
        "pipeline" => print_pipeline_stages(),
        other => eprintln!("unknown experiment: {other} (see --help)"),
    }
    eprintln!("[{name} took {:.1}s]\n", start.elapsed().as_secs_f64());
}

/// Per-stage coordinator timings (route / worker wait / merge) for the
/// serial and pipelined cluster cycles at `W = 4`, from the
/// coordinator's own [`CoordinatorMetrics`] instrumentation — the same
/// numbers the `pipeline` gate rows bound. Runs at the gate's reduced
/// scale so it finishes in seconds; `bench_record pipeline` records the
/// acceptance scale.
///
/// [`CoordinatorMetrics`]: cpm_cluster::CoordinatorMetrics
fn print_pipeline_stages() {
    let cfg = cpm_bench::pipeline::Config::gate();
    let run = cpm_bench::pipeline::measure(&cfg);
    println!(
        "## Pipelined coordinator stage timings (N={}, queries={}, {} workers)\n",
        cfg.n_objects, cfg.n_queries, cfg.workers
    );
    println!("lane        | route ms | wait ms  | merge ms | ms/cycle");
    println!("------------+----------+----------+----------+---------");
    for lane in ["serial", "pipelined"] {
        let stage = |stage: &str| run.median(&format!("{lane}_{stage}_ms"));
        println!(
            "{lane:<11} | {:>8.3} | {:>8.3} | {:>8.3} | {:>8.3}",
            stage("route"),
            stage("wait"),
            stage("merge"),
            run.lane_num(lane, "ms_quiet")
        );
    }
    println!(
        "\nsingle-node reference: {:.3} ms/cycle; route/single {:.3}x; \
         pipelined/serial {:.2}x\n",
        run.lane_num("single-node", "ms_quiet"),
        run.median("route_over_single"),
        run.median("pipelined_over_serial")
    );
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
    let p = figures::base_params(scale);
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
        "grid                  | {0}x{0}         | 32²..1024²",
        p.grid_dim
    );
    println!("timestamps            | {:<15} | 100\n", p.timestamps);
}

fn print_help() {
    println!(
        "usage: experiments <name>... [--scale X | --paper] [--shards LIST]\n\
         names: table2_1 table6_1 fig6_1 fig6_2a fig6_2b fig6_3 fig6_4a fig6_4b\n\
         \u{20}      fig6_5a fig6_5b fig6_6a fig6_6b space analysis ann\n\
         \u{20}      constrained skew drift shards deltas mixed rnn pipeline\n\
         \u{20}      all\n\
         --shards LIST  comma-separated shard counts for the `shards`\n\
         \u{20}              experiment (default 1,2,4,8)"
    );
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}
