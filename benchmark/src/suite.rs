//! The multi-workload commands. Each workload runs in a fresh process
//! (this executable, re-executed), so `peak_rss_mb` is per workload and
//! one workload's heap never shapes the next one's timings.

use std::process::{Command, Stdio};

use crate::report::RunResult;
use crate::spec::{Workload, END_TO_END, WORKLOADS};

#[derive(Debug, Clone, Copy)]
pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

/// Run one workload in a child process, echo its output, parse its result
/// line. `None` when the child could not be run or printed no result.
fn run_child(w: &Workload, args: &SuiteArgs, trace: bool) -> Option<RunResult> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().ok()?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    let result = RunResult::from_json(text.lines().last()?)?;
    (out.status.success() == result.correct).then_some(result)
}

/// `run`: every workload untraced; with `--trace` the traced pass too,
/// and from the two the tracing overhead. Returns whether all was correct.
pub fn run_all(args: &SuiteArgs) -> bool {
    let mut ok = true;
    for w in &WORKLOADS {
        let plain = run_child(w, args, false);
        ok &= plain.as_ref().is_some_and(|r| r.correct);
        if !args.trace {
            continue;
        }
        let traced = run_child(w, args, true);
        ok &= traced.as_ref().is_some_and(|r| r.correct);
        let plain_ms = plain.and_then(|r| r.get("cycle_ms_quiet"));
        let traced_ms = traced.and_then(|r| r.get("trace.cycle_ms_quiet"));
        if let (Some(a), Some(b)) = (plain_ms, traced_ms) {
            println!(
                "metric {} trace.overhead_share {:?} ratio (traced cycle_ms_quiet {b:?} ms over untraced {a:?} ms, minus 1)",
                w.name,
                b / a - 1.0
            );
        }
    }
    ok
}

/// `aa`: the untraced set twice, in alternating workload order; the same
/// code must agree with itself within each metric's bound, and the byte
/// count must repeat exactly.
pub fn aa(args: &SuiteArgs) -> bool {
    let forward: Vec<usize> = (0..WORKLOADS.len()).collect();
    let backward: Vec<usize> = forward.iter().rev().copied().collect();
    let mut sets: Vec<Vec<Option<RunResult>>> = Vec::new();
    for order in [forward, backward] {
        let mut set: Vec<Option<RunResult>> = vec![None; WORKLOADS.len()];
        for i in order {
            set[i] = run_child(&WORKLOADS[i], args, false);
        }
        sets.push(set);
    }
    let mut ok = true;
    println!(
        "{:<16} {:<22} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "rel_diff", "bound"
    );
    for (i, w) in WORKLOADS.iter().enumerate() {
        let (Some(a), Some(b)) = (&sets[0][i], &sets[1][i]) else {
            println!("{:<16} a run failed or printed no result", w.name);
            ok = false;
            continue;
        };
        ok &= a.correct && b.correct;
        for (def, bound) in &END_TO_END {
            let (Some(x), Some(y)) = (a.get(def.name), b.get(def.name)) else {
                println!("{:<16} {:<22} missing", w.name, def.name);
                ok = false;
                continue;
            };
            let rel = (x - y).abs() / ((x + y) / 2.0);
            let exact = def.name == "sub_bytes_per_cycle";
            let pass = if exact { x == y } else { rel <= *bound };
            ok &= pass;
            println!(
                "{:<16} {:<22} {:>16.6} {:>16.6} {:>9.5} {:>7}  {}",
                w.name,
                def.name,
                x,
                y,
                rel,
                if exact {
                    "exact".to_string()
                } else {
                    bound.to_string()
                },
                if pass { "ok" } else { "EXCEEDS" }
            );
        }
    }
    ok
}
