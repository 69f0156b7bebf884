//! Command line of the monitoring-cycle benchmark.
//!
//! ```text
//! benchmark --workload W --seed S --seconds T --trace 0|1 [--quick]   one workload (the driver's form)
//! benchmark run [--seed S] [--seconds T] [--trace] [--quick]          all four, one process each
//! benchmark aa  [--seed S] [--seconds T] [--quick]                    the untraced set twice, compared
//! benchmark summarize <trace.jsonl>                                   self times and shares from a trace
//! benchmark manifest                                                  the text of BENCHMARK.json
//! ```

use std::process::ExitCode;

use cpm_cycle_benchmark::run::{run_workload, RunArgs};
use cpm_cycle_benchmark::spec::{self, Workload, DEFAULT_SEED, RUN_SECONDS, WORKLOADS};
use cpm_cycle_benchmark::suite::{self, SuiteArgs};
use cpm_cycle_benchmark::trace;

struct Cli {
    command: Option<String>,
    operand: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: None,
        operand: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                cli.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a number >= 0")?
            }
            // `--trace 0|1` (the driver) or a bare `--trace` flag.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => cli.quick = true,
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other if cli.command.is_none() => cli.command = Some(other.to_string()),
            other if cli.operand.is_none() => cli.operand = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    Ok(cli)
}

fn one_workload(cli: &Cli, name: &str) -> ExitCode {
    let Some(workload) = Workload::by_name(name) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {name}; one of {names:?}");
        return ExitCode::from(2);
    };
    let result = run_workload(&RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        quick: cli.quick,
    });
    println!("{}", result.to_json());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn summarize(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match trace::parse_jsonl(&text) {
        Ok(spans) => {
            trace::print_summary(&trace::summarize(&spans), trace::share_sum(&spans));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let suite_args = SuiteArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        quick: cli.quick,
    };
    let ok = match (cli.command.as_deref(), &cli.workload) {
        (None, Some(name)) => return one_workload(&cli, name),
        (Some("run"), None) => suite::run_all(&suite_args),
        (Some("aa"), None) => suite::aa(&suite_args),
        (Some("summarize"), None) => match &cli.operand {
            Some(path) => return summarize(path),
            None => {
                eprintln!("summarize needs a trace file");
                return ExitCode::from(2);
            }
        },
        (Some("manifest"), None) => {
            print!("{}", spec::manifest());
            true
        }
        _ => {
            eprintln!("usage: benchmark --workload W --seed S --seconds T --trace 0|1 [--quick] | run | aa | summarize FILE | manifest");
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
