//! One workload, one process: generate from the seed, set up (several
//! times, for `setup_s`), warm up, measure for `--seconds`, check, report.

use std::time::{Duration, Instant};

use cpm_suite::core::{AnyQuerySpec, PointQuery, SpecEvent};
use cpm_suite::gen::{
    DriftConfig, DriftingHotspotWorkload, TickEvents, UniformWorkload, WorkloadConfig,
};
use cpm_suite::geom::{ObjectId, Point, QueryId};
use cpm_suite::grid::{Metrics, ObjectEvent, QueryEvent};
use cpm_suite::wire::Encode;

use crate::check::{same_bits, Mirror};
use crate::report::{self, RunResult};
use crate::spec::{
    Plan, Source, Workload, DRIFT_PEAK_FACTOR, DRIFT_RAMP_TICKS, DRIFT_SIGMA, END_TO_END, PER_LAYER,
};
use crate::stats::{median, p50_p95};
use crate::system::{delta_entries, Bootstrap, Ledger, System};
use crate::trace::{self, Tracer};
use crate::twins::Twins;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

/// The seeded event source. The seed goes here and nowhere else; the
/// system sees only the events.
enum Generator {
    Uniform(UniformWorkload),
    Drift(DriftingHotspotWorkload),
}

impl Generator {
    fn new(w: &Workload, seed: u64) -> Generator {
        let config = WorkloadConfig {
            n_objects: w.n_objects,
            n_queries: w.n_queries,
            k: w.k,
            object_speed: w.speed,
            query_speed: w.speed,
            f_obj: w.f_obj,
            f_qry: w.f_qry,
            seed,
        };
        match w.source {
            Source::Uniform => Generator::Uniform(UniformWorkload::new(config)),
            Source::Drift => Generator::Drift(DriftingHotspotWorkload::new(
                config,
                DriftConfig {
                    sigma: DRIFT_SIGMA,
                    peak_factor: DRIFT_PEAK_FACTOR,
                    ramp_ticks: DRIFT_RAMP_TICKS,
                    ..DriftConfig::default()
                },
            )),
        }
    }

    fn initial_objects(&self) -> Vec<(ObjectId, Point)> {
        match self {
            Generator::Uniform(g) => g.initial_objects().collect(),
            Generator::Drift(g) => g.initial_objects().collect(),
        }
    }

    fn initial_queries(&self) -> Vec<(QueryId, Point, usize)> {
        match self {
            Generator::Uniform(g) => g.initial_queries().collect(),
            Generator::Drift(g) => g.initial_queries().collect(),
        }
    }

    fn tick(&mut self) -> TickEvents {
        match self {
            Generator::Uniform(g) => g.tick(),
            Generator::Drift(g) => g.tick(),
        }
    }
}

fn knn(p: Point) -> AnyQuerySpec {
    AnyQuerySpec::Knn(PointQuery(p))
}

/// The generators emit k-NN `QueryEvent`s; the server takes spec events.
fn spec_events(events: &[QueryEvent], out: &mut Vec<SpecEvent<AnyQuerySpec>>) {
    out.clear();
    out.extend(events.iter().map(|ev| match *ev {
        QueryEvent::Install { id, pos, k } => SpecEvent::Install {
            id,
            spec: knn(pos),
            k,
        },
        QueryEvent::Move { id, to } => SpecEvent::Update { id, spec: knn(to) },
        QueryEvent::Terminate { id } => SpecEvent::Terminate { id },
    }));
}

/// `VmHWM` of this process, MiB (0 where `/proc` has none).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sums over the counted window (the first `Plan::cycles` timed
/// cycles): exact-repeat numbers, independent of how fast the host is.
#[derive(Default)]
struct Counted {
    cycles: u64,
    bytes: u64,
    changed: u64,
    entries: u64,
    deltas: u64,
    receipt_entries: u64,
    encodes: u64,
    engine: Metrics,
    space_units: usize,
    /// `VmHWM` when the window closes: after the set-ups, the warm-up and
    /// `Plan::cycles` timed cycles, so a faster host (more cycles in the
    /// same seconds) does not read a different point of the run.
    peak_rss_mb: f64,
}

/// The two timing metrics, over the **quiet tenth** of the timed window.
struct Quiet {
    cycle_ms: f64,
    updates_per_s: f64,
    /// Cycles the two numbers are taken over.
    samples: usize,
}

/// Keep the fastest tenth of the timed cycles; `cycle_ms` is their median,
/// `updates_per_s` their events per summed second.
///
/// On a shared host a neighbour on the last-level cache slows single
/// cycles, never speeds one up: for minutes to an hour at a time the
/// median cycle of `paper_default` reads 20-60 % higher, its fastest tenth
/// about 10 %. The quiet tenth is the closest a run gets to what the
/// program costs when the host leaves it alone: it reads about 4 % below
/// the whole-run median on a quiet host, ignores bursts of seconds, and
/// follows a slow phase of the host about half as far as the median does.
///
/// A periodic workload (`period` > 1) does different work at different
/// positions of its period, so there a cycle competes only with the cycles
/// at the same position of the other periods, and every position keeps
/// its tenth (at least one): the quiet profile of one whole period.
fn quiet_tenth(cycle_ms: &[f64], events: &[u64], period: usize) -> Quiet {
    let period = period.max(1);
    let (mut pool, mut pool_events) = (Vec::new(), 0u64);
    for position in 0..period {
        let mut at: Vec<usize> = (position..cycle_ms.len()).step_by(period).collect();
        at.sort_by(|&a, &b| cycle_ms[a].total_cmp(&cycle_ms[b]));
        at.truncate((at.len() / 10).max(1));
        for c in at {
            pool.push(cycle_ms[c]);
            pool_events += events[c];
        }
    }
    let wall_s = pool.iter().sum::<f64>() / 1e3;
    Quiet {
        samples: pool.len(),
        updates_per_s: pool_events as f64 / wall_s,
        cycle_ms: median(pool),
    }
}

/// Metric values in emission order.
#[derive(Default)]
struct Values(Vec<(String, f64)>);

impl Values {
    fn put(&mut self, name: &str, v: f64) {
        self.0.push((name.to_string(), v));
    }

    /// `<name>_p50` and `<name>_p95` of per-cycle samples.
    fn pair(&mut self, name: &str, xs: Vec<f64>) {
        let (p50, p95) = p50_p95(xs);
        self.put(&format!("{name}_p50"), p50);
        self.put(&format!("{name}_p95"), p95);
    }
}

pub fn run_workload(args: &RunArgs) -> RunResult {
    let w = if args.quick {
        args.workload.quick()
    } else {
        args.workload
    };
    let plan = Plan::new(args.quick, args.trace);
    let seconds = if args.quick { 0.0 } else { args.seconds };
    let mut ledger = Ledger::default();
    let mut tracer = Tracer::new(false);

    // ---- inputs, from the seed ----
    let gen_start = Instant::now();
    let mut generator = Generator::new(&w, args.seed);
    let objects = generator.initial_objects();
    let queries = generator.initial_queries();
    let mut gen_time = gen_start.elapsed();
    let boot = Bootstrap {
        appears: objects
            .iter()
            .map(|&(id, pos)| ObjectEvent::Appear { id, pos })
            .collect(),
        installs: queries
            .iter()
            .map(|&(id, pos, k)| SpecEvent::Install {
                id,
                spec: knn(pos),
                k,
            })
            .collect(),
    };
    let mut mirror = Mirror::new(&objects, &queries);
    let n = queries.len();

    // ---- set-up, several fresh times; the last system is the one run ----
    let mut setup_s = Vec::with_capacity(plan.setups);
    let mut system = None;
    for _ in 0..plan.setups {
        if let Some(old) = system.take() {
            System::shutdown(old, &mut ledger);
        }
        let start = Instant::now();
        system = System::build(&w, &boot, &mut tracer, &mut ledger);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let Some(mut system) = system else {
        return finish(args, &ledger, Vec::new());
    };
    let mut twins = if args.trace {
        Twins::build(&w, &boot, &mut ledger)
    } else {
        None
    };
    tracer.set_on(args.trace);
    let [b0, b1, b2] = system.boot_marks;
    tracer.record("core.setup_populate", 1, None, b0, b1);
    tracer.record("core.setup_install", 2, None, b1, b2);
    tracer.set_on(false);

    // ---- warm-up, then the timed window ----
    let mut qev = Vec::new();
    let mut encoded = Vec::new();
    let mut cycle_ms: Vec<f64> = Vec::new();
    let mut cycle_events: Vec<u64> = Vec::new();
    let mut counted = Counted::default();
    let mut oracle_time = Duration::ZERO;
    let mut oracle_mismatches = 0u64;
    let mut epoch = 2u64;
    let mut timed = 0usize;
    let mut window_start = Instant::now();
    let mut encodes_at_start = 0;
    loop {
        let warming = epoch < 2 + plan.warmup as u64;
        if !warming && timed == 0 {
            // Counters and the clock start with the first timed cycle.
            window_start = Instant::now();
            tracer.set_on(args.trace);
            if let Some(s) = system.server_mut() {
                s.take_metrics();
            }
            if let Some(t) = twins.as_mut() {
                t.take_on_metrics();
            }
            encodes_at_start = system.encodes();
        }
        if !warming
            && timed >= plan.cycles
            && timed.is_multiple_of(w.period)
            && window_start.elapsed().as_secs_f64() >= seconds
        {
            break;
        }

        let g = Instant::now();
        let tick = generator.tick();
        spec_events(&tick.query_events, &mut qev);
        gen_time += g.elapsed();
        mirror.apply(&tick.object_events, &tick.query_events);
        epoch += 1;

        let out = system.cycle(epoch, &tick.object_events, &qev, &mut tracer, &mut ledger);

        // Everything below runs after the measured unit's clock stopped.
        let count = !warming && timed < plan.cycles;
        if let Some(t) = twins.as_mut() {
            let dim = system.server().map(|s| s.grid().dim());
            t.cycle(
                epoch,
                &tick.object_events,
                &qev,
                dim,
                system.batch(),
                count,
                &mut tracer,
                &mut ledger,
            );
        }
        if warming {
            continue;
        }
        cycle_ms.push(out.ns as f64 / 1e6);
        cycle_events.push((tick.object_events.len() + qev.len()) as u64);
        timed += 1;
        // Encoded every timed cycle (so all of them leave the same cache
        // footprint behind), counted inside the window only.
        system.batch().encode_into(&mut encoded);
        if count {
            counted.cycles += 1;
            counted.bytes += encoded.len() as u64;
            counted.changed += system.batch().changed.len() as u64;
            counted.entries += delta_entries(system.batch());
            if let Some(r) = out.receipt {
                counted.deltas += r.deltas as u64;
                counted.receipt_entries += r.entries as u64;
            }
            if timed == plan.cycles {
                counted.peak_rss_mb = peak_rss_mb();
                counted.encodes = system.encodes() - encodes_at_start;
                let server = system.server_mut();
                if let Some(s) = server {
                    counted.engine = s.take_metrics();
                    counted.space_units = s.space_units();
                } else if let Some(t) = twins.as_mut() {
                    counted.engine = t.take_on_metrics().unwrap_or_default();
                    counted.space_units = t.on().map_or(0, |s| s.space_units());
                }
            }
        }
        if timed.is_multiple_of(plan.sample_every) {
            // 32 queries, a different stride of the id space each time.
            let o = Instant::now();
            let first = timed / plan.sample_every;
            let sample = (0..32.min(n)).map(|i| (first + i * n.div_ceil(32)) % n);
            oracle_mismatches += mirror.oracle_check(sample, |q| system.replica(q), &mut ledger);
            oracle_time += o.elapsed();
        }
    }
    tracer.set_on(false);
    let timed_wall: f64 = cycle_ms.iter().sum::<f64>() / 1e3;

    // ---- final checks: every replica against the authoritative result
    // and against the brute-force oracle on the final positions ----
    let o = Instant::now();
    // Behind a cluster with no twin running there is no server to ask;
    // the oracle check below still covers every replica. (A server rebuilt
    // from the final positions would not do: among equidistant objects the
    // k-NN result depends on the path, see `Mirror::exact_knn`.)
    let authority = system
        .server()
        .or_else(|| twins.as_ref().and_then(Twins::on));
    if let Some(server) = authority {
        for q in 0..n {
            let truth = server.result(QueryId(q as u32));
            let same = truth.is_some_and(|t| same_bits(t, system.replica(q)));
            ledger.check(same, || {
                format!("replica {q} differs from the server's result")
            });
        }
    }
    oracle_mismatches += mirror.oracle_check(0..n, |q| system.replica(q), &mut ledger);
    oracle_time += o.elapsed();
    let lagged = system.lagged();
    ledger.attempted += n as u64;
    ledger.failed += lagged as u64;
    System::shutdown(system, &mut ledger);

    // ---- metrics ----
    let quiet = quiet_tenth(&cycle_ms, &cycle_events, w.period);
    let (whole_p50, whole_p95) = p50_p95(cycle_ms.clone());
    let per = |x: u64| x as f64 / counted.cycles.max(1) as f64;
    let mut out = Values::default();
    if !args.trace {
        out.put("setup_s", median(setup_s));
        out.put("cycle_ms_quiet", quiet.cycle_ms);
        out.put("updates_per_s", quiet.updates_per_s);
        out.put("sub_bytes_per_cycle", per(counted.bytes));
        out.put("peak_rss_mb", counted.peak_rss_mb);
    } else {
        let spans = tracer.spans();
        let ms = |name: &str| -> Vec<f64> {
            trace::by_cycle(spans, name)
                .values()
                .map(|&ns| ns as f64 / 1e6)
                .collect()
        };
        // Per-cycle differences of two spans sharing cycle ids.
        let diff_ms = |a: &str, b: &str| -> Vec<f64> {
            let b = trace::by_cycle(spans, b);
            trace::by_cycle(spans, a)
                .iter()
                .filter_map(|(c, &x)| b.get(c).map(|&y| (x as f64 - y as f64) / 1e6))
                .collect()
        };
        let tc = twins.as_ref().map(|t| t.counts).unwrap_or_default();
        let tper = |x: f64| x / tc.cycles.max(1) as f64;
        let e = counted.engine;
        let searches = e.merge_resolutions + e.recomputations + e.computations;
        let core_p50 = p50_p95(ms("core.cycle")).0;
        let cluster_p50 = p50_p95(ms("cluster.cycle")).0;

        out.pair("grid.ingest_ms", ms("grid.ingest"));
        out.put(
            "grid.ingest_ns_per_update",
            tc.ingest_ns as f64 / tc.updates.max(1) as f64,
        );
        out.put(
            "grid.kernel_ns_per_obj",
            tc.kernel_ns as f64 / tc.kernel_objects.max(1) as f64,
        );
        out.put("grid.mean_bucket", tper(tc.mean_bucket_sum));
        out.put("grid.max_bucket", tc.max_bucket as f64);
        out.put("grid.regrids", e.regrids as f64);
        out.put(
            "grid.regrid_objects_migrated",
            e.regrid_objects_migrated as f64,
        );
        out.pair("core.cycle_ms", ms("core.cycle"));
        out.pair("core.maintain_ms", diff_ms("core.cycle", "grid.ingest"));
        out.pair(
            "core.delta_capture_ms",
            diff_ms("core.cycle", "core.twin_cycle"),
        );
        out.put("core.cell_accesses_per_cycle", per(e.cell_accesses));
        out.put("core.objects_processed_per_cycle", per(e.objects_processed));
        out.put("core.heap_pushes_per_cycle", per(e.heap_pushes));
        out.put("core.heap_pops_per_cycle", per(e.heap_pops));
        out.put("core.computations_per_cycle", per(e.computations));
        out.put("core.recomputations_per_cycle", per(e.recomputations));
        out.put("core.merge_resolutions_per_cycle", per(e.merge_resolutions));
        out.put("core.updates_applied_per_cycle", per(e.updates_applied));
        out.put("core.changed_per_cycle", per(counted.changed));
        out.put("core.delta_entries_per_cycle", per(counted.entries));
        out.put(
            "core.merge_resolution_share",
            e.merge_resolutions as f64 / searches.max(1) as f64,
        );
        out.put("core.space_units", counted.space_units as f64);
        out.put("core.setup_populate_ms", (b1 - b0) as f64 / 1e6);
        out.put("core.setup_install_ms", (b2 - b1) as f64 / 1e6);
        out.pair("wire.encode_ms", ms("wire.encode"));
        out.pair("wire.decode_ms", ms("wire.decode"));
        out.pair("wire.frame_ms", ms("wire.frame"));
        out.put(
            "wire.bytes_per_entry",
            tc.wire_bytes as f64 / tc.wire_entries.max(1) as f64,
        );
        out.pair("sub.publish_ms", ms("sub.publish"));
        out.pair("sub.drain_ms", ms("sub.drain"));
        out.pair("sub.apply_ms", ms("sub.apply"));
        out.put("sub.deltas_per_cycle", per(counted.deltas));
        out.put("sub.entries_per_cycle", per(counted.receipt_entries));
        out.put("sub.encodes_per_cycle", per(counted.encodes));
        out.put("sub.lagged", lagged as f64);
        out.pair("cluster.cycle_ms", ms("cluster.cycle"));
        out.pair("cluster.route_ms", ms("cluster.route"));
        out.pair("cluster.worker_wait_ms", ms("cluster.worker_wait"));
        out.pair("cluster.merge_ms", ms("cluster.merge"));
        out.put(
            "cluster.over_single",
            if cluster_p50 > 0.0 && core_p50 > 0.0 {
                cluster_p50 / core_p50
            } else {
                0.0
            },
        );
        out.put("gen.generate_s", gen_time.as_secs_f64());
        out.put("sim.oracle_check_s", oracle_time.as_secs_f64());
        out.put("sim.oracle_mismatches", oracle_mismatches as f64);
        out.put("trace.share_sum", trace::share_sum(spans));
        out.put("trace.cycle_ms_quiet", quiet.cycle_ms);
        out.put("trace.cycle_ms_p50", whole_p50);
        out.put("trace.cycle_ms_p95", whole_p95);

        let path = crate::out_dir().join(format!("trace-{}.jsonl", w.name));
        let written = std::fs::create_dir_all(crate::out_dir())
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| tracer.write_jsonl(std::io::BufWriter::new(f)));
        ledger.check(written.is_ok(), || {
            format!("trace file {path:?}: {written:?}")
        });
        println!("info {} trace_file {}", w.name, path.display());
    }

    println!(
        "info {} seed {} timed_cycles {} counted_cycles {} quiet_cycles {} whole_run_p50_ms {:.3} whole_run_p95_ms {:.3} p95_samples_beyond {} timed_wall_s {:.3} nproc {}",
        w.name,
        args.seed,
        timed,
        counted.cycles,
        quiet.samples,
        whole_p50,
        whole_p95,
        timed - (0.95 * timed as f64).ceil() as usize,
        timed_wall,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    finish(args, &ledger, out.0)
}

/// Attach units, print the human-readable lines and assemble the result.
fn finish(args: &RunArgs, ledger: &Ledger, values: Vec<(String, f64)>) -> RunResult {
    let name = args.workload.name;
    let unit_of = |metric: &str| -> &'static str {
        END_TO_END
            .iter()
            .map(|(d, _)| d)
            .chain(PER_LAYER.iter())
            .find(|d| d.name == metric)
            .map_or("", |d| d.unit)
    };
    let metrics: report::Metrics = values
        .into_iter()
        .map(|(n, v)| {
            let unit = unit_of(&n);
            (n, v, unit.to_string())
        })
        .collect();
    for (n, v, u) in &metrics {
        println!("metric {name} {n} {v:?} {u}");
    }
    let attempted = ledger.attempted.max(1);
    println!(
        "metric {name} failed_share {:?} ratio ({} of {} operations)",
        ledger.failed as f64 / attempted as f64,
        ledger.failed,
        attempted
    );
    for note in &ledger.notes {
        println!("failure {name} {note}");
    }
    RunResult {
        // A run that produced no metrics (set-up failed) is never correct.
        correct: ledger.failed == 0 && !metrics.is_empty(),
        attempted,
        failed: ledger.failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slowed_host_does_not_move_the_quiet_tenth() {
        // 100 cycles of 10 ms, 100 events each; a neighbour slows 85 of them.
        let mut ms = vec![10.0; 100];
        for (c, x) in ms.iter_mut().enumerate() {
            if c % 20 >= 3 {
                *x = 14.0 + (c % 7) as f64;
            }
        }
        let q = quiet_tenth(&ms, &[100; 100], 1);
        assert_eq!(q.samples, 10);
        assert_eq!(q.cycle_ms, 10.0);
        assert_eq!(q.updates_per_s, 100.0 / 0.010);
    }

    #[test]
    fn every_position_of_a_period_keeps_its_quietest_cycle() {
        // Period of two: a cheap position (10 ms) and a dear one (40 ms),
        // five periods, the third one slowed. The dear position must not
        // be selected away, nor the slowed period kept.
        let mut ms = [10.0, 40.0].repeat(5);
        ms[4] = 15.0;
        ms[5] = 60.0;
        let q = quiet_tenth(&ms, &[1; 10], 2);
        assert_eq!(q.samples, 2);
        assert_eq!(q.updates_per_s, 2.0 / 0.050);
    }
}
