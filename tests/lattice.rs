//! The configuration lattice, sampled: threads {1, 2} × re-grid
//! {pinned, scheduled, auto} × deployment {single, durable + crashes,
//! cluster W ∈ {1, 2, 4} × {in-process, TCP} + restart}. The per-feature suites each fix most axes; here every (lane
//! set, seed) pair draws all of them at once, over a mixed-kind stream
//! every deployment can run and, for the lanes with a re-grid axis, a
//! drifting hotspot that makes the policy act. Plus the coordinates no
//! random stream produces: exactly 0.0, 1.0 and the tile seams, and piles
//! of objects at one point, where every result is decided by id.

mod common;

use common::{case_budget, lane, paper_stream};
use cpm_suite::core::{AnyQuerySpec, PointQuery, RangeQuery, SpecEvent};
use cpm_suite::gen::FaultPlan;
use cpm_suite::geom::{clamp_coord, ObjectId, Point, QueryId};
use cpm_suite::grid::ObjectEvent;
use cpm_suite::sim::{
    verify, Anchors, Control, Deploy, LaneConfig, OpStream, Regrid, SimParams, WorkloadKind,
};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// (lane set, seed) pairs; `PROPTEST_CASES` can only lower it.
const PAIRS: u32 = 48;
const CYCLES: usize = 16;

/// Two scheduled re-grids, a snapshot round-trip, and crashes every 3, 5
/// or 7 cycles in the slots `stream` leaves free.
fn with_controls(stream: OpStream, seed: u64) -> OpStream {
    let mut stream = stream
        .control(3, Control::Regrid(32))
        .control(8, Control::SnapshotRoundTrip)
        .control(10, Control::Regrid(8));
    let period = [3, 5, 7][seed as usize % 3];
    for (i, at) in (period + 1..CYCLES).step_by(period).enumerate() {
        if stream.cycles[at].control.is_none() {
            let plan = FaultPlan::from_seed(seed * 31 + i as u64, 1);
            stream = stream.control(at, Control::Crash(plan));
        }
    }
    stream
}

/// A stream every deployment can run (anchors on the ownership strips)
/// that fires every control: a worker restart and an out-of-band install
/// on top of [`with_controls`].
fn stream(seed: u64) -> OpStream {
    let extra = Control::InstallOutOfBand {
        id: QueryId(5000),
        pos: Point::new(0.625, 0.4),
        k: 2,
    };
    let stream = OpStream::mixed(seed, 160, CYCLES, Anchors::Strips)
        .control(5, Control::RestartWorker(seed as usize))
        .control(6, extra);
    with_controls(stream, seed)
}

/// What the single-node and durable lanes run besides: the paper's
/// drifting hotspot, whose 8× population swing is what the auto policy
/// acts on — the mixed stream's population is steady.
fn drift_stream(seed: u64) -> OpStream {
    let params = SimParams {
        n_objects: 200,
        n_queries: 12,
        k: 3,
        timestamps: CYCLES - 2,
        grid_dim: 16,
        workload: WorkloadKind::Drift { peak_factor: 8.0 },
        seed,
        ..SimParams::default()
    };
    with_controls(paper_stream(&params), seed)
}

/// One lane of each deployment class, every axis the class has drawn at
/// random: a durable server performs no scheduled control and cluster
/// workers run on one thread and have no re-grids.
fn lane_set(rng: &mut StdRng) -> [LaneConfig; 3] {
    let cluster = Deploy::Cluster {
        workers: [1, 2, 4][rng.gen_range(0..3)],
        tcp: rng.gen_bool(0.5),
    };
    let mut draw = |deploy, thread_counts: &[usize], regrids: &[Regrid]| {
        lane(
            thread_counts[rng.gen_range(0..thread_counts.len())],
            regrids[rng.gen_range(0..regrids.len())],
            deploy,
        )
    };
    let (pinned, scheduled, auto) = (Regrid::Pinned, Regrid::Scheduled, Regrid::Auto);
    [
        draw(Deploy::Single, &[1, 2], &[pinned, scheduled, auto]),
        draw(Deploy::Durable, &[1, 2], &[pinned, auto]),
        draw(cluster, &[1], &[pinned]),
    ]
}

#[test]
fn sampled_lattice_matches_the_reference() {
    // The two corners no suite has ever run come first, so no budget
    // drops them.
    let tcp = Deploy::Cluster {
        workers: 4,
        tcp: true,
    };
    let durable_auto = lane(2, Regrid::Auto, Deploy::Durable);
    let corners = [durable_auto, lane(1, Regrid::Pinned, tcp)];
    let pairs = case_budget(PAIRS).max(2) as usize;
    let (mut ops, mut scheduled, mut auto) = (0, 0, 0);
    for pair in 0..pairs {
        let seed = 0x1A77_1CE0 + pair as u64;
        let mut lanes = lane_set(&mut StdRng::seed_from_u64(seed)).to_vec();
        lanes.extend(corners.get(pair));
        ops += verify(&stream(seed), &lanes).ops;
        // Lane by lane, so a re-grid count belongs to one axis value.
        let drifting = |lane: &&LaneConfig| !matches!(lane.deploy, Deploy::Cluster { .. });
        for &lane in lanes.iter().filter(drifting) {
            let ran = verify(&drift_stream(seed), &[lane]);
            ops += ran.ops;
            match lane.regrid {
                Regrid::Pinned => assert_eq!(ran.regrids, 0, "{lane:?} re-gridded"),
                Regrid::Scheduled => scheduled += ran.regrids,
                Regrid::Auto => auto += ran.regrids,
            }
            if lane == durable_auto {
                assert!(ran.regrids >= 1, "the policy of {lane:?} never acted");
            }
        }
    }
    println!(
        "lattice: {pairs} (lane set, seed) pairs, {ops} operations, {scheduled} scheduled and \
         {auto} automatic re-grids, no divergence"
    );
}

/// Tile seams of the W = 2 and W = 4 tilings, as exact coordinates.
const SEAMS: [f64; 3] = [0.25, 0.5, 0.75];

/// Objects exactly on the workspace boundary (0.0 and 1.0, corners
/// included) and exactly on the tile seams, at pairwise distinct distances
/// from every query; queries anchored inside each strip, exactly on a
/// seam and exactly on a corner; then objects hop from seam to seam and
/// onto the boundary. The partitioned deployments must agree with the
/// single node on who owns and who sees each of them.
#[test]
fn boundary_and_seam_coordinates_are_exact() {
    let mut objects: Vec<Point> = vec![
        Point::new(0.0, 0.0),
        Point::new(1.0, 0.0),
        Point::new(0.0, 1.0),
        Point::new(1.0, 1.0),
    ];
    for (s, &x) in SEAMS.iter().enumerate() {
        objects.extend((0..6).map(|j| Point::new(x, 0.05 + 0.17 * j as f64 + 0.013 * s as f64)));
    }
    objects.extend((0..24).map(|i| {
        let t = i as f64;
        Point::new((0.031 + t * 0.0417) % 1.0, (0.113 + t * 0.2731) % 1.0)
    }));
    let n = objects.len() as u32;
    let knn = |x, y| AnyQuerySpec::Knn(PointQuery(Point::new(x, y)));
    let specs = [
        knn(0.2, 0.41),
        knn(0.45, 0.33),
        knn(0.7, 0.62),
        knn(0.8, 0.27),
        knn(0.5, 0.5),
        knn(0.0, 0.0),
        knn(1.0, 1.0),
        AnyQuerySpec::Range(RangeQuery::circle(Point::new(0.25, 0.5), 0.25)),
    ];
    let installs = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| SpecEvent::Install {
            id: QueryId(i as u32),
            spec: spec.clone(),
            k: 1 + i % 3,
        });
    let mut stream = OpStream::new(
        "boundary and seam coordinates",
        16,
        (0..n).map(|i| (ObjectId(i), objects[i as usize])),
        installs.collect(),
    );
    for step in 0..12u32 {
        let y = 0.03 + 0.061 * f64::from(step);
        let edge = [0.0, 1.0][step as usize % 2];
        let hop = |i, to| ObjectEvent::Move {
            id: ObjectId((step * 3 + i) % n),
            to,
        };
        let moves = vec![
            hop(0, Point::new(SEAMS[step as usize % 3], y)),
            hop(1, Point::new(edge, 1.0 - y)),
            hop(2, Point::new(y, edge)),
        ];
        stream.push(moves, Vec::new());
    }
    let stream = stream
        .control(7, Control::RestartWorker(1))
        .control(9, Control::Crash(FaultPlan::from_seed(2, 1)));

    let cluster = |workers| Deploy::Cluster {
        workers,
        tcp: false,
    };
    let pinned = Regrid::Pinned;
    verify(
        &stream,
        &[
            lane(2, pinned, Deploy::Single),
            lane(2, pinned, Deploy::Durable),
            lane(1, pinned, cluster(2)),
            lane(1, pinned, cluster(4)),
        ],
    );
}

/// Result size of the tie stream's queries, below every pile's size.
const TIE_K: usize = 3;

/// The tie stream's piles: the four workspace corners and one interior
/// cell corner (at 16², 32² and 8² alike), each at its stored, clamped
/// position, so a query there is at distance 0 from every pile object.
fn pile_sites() -> [Point; 5] {
    let stored = |x: f64, y: f64| Point::new(clamp_coord(x), clamp_coord(y));
    [
        stored(0.0, 0.0),
        stored(1.0, 0.0),
        stored(0.0, 1.0),
        stored(1.0, 1.0),
        stored(0.375, 0.625),
    ]
}

/// Where an object of the tie stream is.
#[derive(Clone, Copy, PartialEq)]
enum Site {
    Pile(usize),
    Elsewhere,
    Gone,
}

/// Piles of at least `2 · TIE_K` objects at distance 0 from a k-NN query
/// each, so every result is the `TIE_K` smallest ids of its pile. Every
/// cycle, one or two of a pile's members leave (moving away or
/// disappearing) while one object with an id below the pile's current
/// k-th and one above it arrive (moving in or re-appearing): a merge that
/// took the higher incomer over an equally distant object that stayed
/// would show. Re-grids, a snapshot round-trip and crashes as in
/// [`with_controls`].
fn tie_stream(seed: u64) -> OpStream {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7135);
    let sites = pile_sites();
    let n = 100u32;
    let elsewhere = |rng: &mut StdRng| Point::new(rng.gen_range(0.1..0.9), rng.gen_range(0.1..0.9));
    let mut at: Vec<Site> = (0..n)
        .map(|i| match i % 3 {
            0 => Site::Elsewhere,
            _ => Site::Pile(i as usize % sites.len()),
        })
        .collect();
    let objects = (0..n).map(|i| match at[i as usize] {
        Site::Pile(p) => (ObjectId(i), sites[p]),
        _ => (ObjectId(i), elsewhere(&mut rng)),
    });
    let installs = sites.iter().enumerate().map(|(i, &p)| SpecEvent::Install {
        id: QueryId(i as u32),
        spec: AnyQuerySpec::Knn(PointQuery(p)),
        k: TIE_K,
    });
    let mut stream = OpStream::new(
        format!("tie_stream({seed})"),
        16,
        objects.collect::<Vec<_>>(),
        installs.collect(),
    );
    for _ in 2..CYCLES {
        let mut events = Vec::new();
        let mut moved = vec![false; n as usize];
        for (p, &pos) in sites.iter().enumerate() {
            let pile: Vec<u32> = (0..n)
                .filter(|&i| at[i as usize] == Site::Pile(p))
                .collect();
            assert!(pile.len() >= 2 * TIE_K, "pile {p} shrank to {}", pile.len());
            let kth = pile[TIE_K - 1];
            let leaving = if pile.len() > 3 * TIE_K { 2 } else { 1 };
            for _ in 0..leaving {
                let members: Vec<u32> = pile[..TIE_K]
                    .iter()
                    .copied()
                    .filter(|&i| !moved[i as usize])
                    .collect();
                let id = members[rng.gen_range(0..members.len())];
                moved[id as usize] = true;
                events.push(if rng.gen_bool(0.3) {
                    at[id as usize] = Site::Gone;
                    ObjectEvent::Disappear { id: ObjectId(id) }
                } else {
                    at[id as usize] = Site::Elsewhere;
                    ObjectEvent::Move {
                        id: ObjectId(id),
                        to: elsewhere(&mut rng),
                    }
                });
            }
            for below in [true, false] {
                let free: Vec<u32> = (0..n)
                    .filter(|&i| !moved[i as usize] && (i < kth) == below)
                    .filter(|&i| !matches!(at[i as usize], Site::Pile(_)))
                    .collect();
                let Some(&id) = free.get(rng.gen_range(0..free.len().max(1))) else {
                    continue;
                };
                moved[id as usize] = true;
                events.push(
                    match std::mem::replace(&mut at[id as usize], Site::Pile(p)) {
                        Site::Gone => ObjectEvent::Appear {
                            id: ObjectId(id),
                            pos,
                        },
                        _ => ObjectEvent::Move {
                            id: ObjectId(id),
                            to: pos,
                        },
                    },
                );
            }
        }
        stream.push(events, Vec::new());
    }
    with_controls(stream, seed)
}

/// Every result of the tie stream is decided by id at distance 0: each
/// deployment must hold the `TIE_K` smallest ids of each pile after every
/// cycle, re-grid, snapshot round-trip and crash — equal to brute force
/// and, at the end, to a server rebuilt from the final positions.
#[test]
fn exact_distance_ties_resolve_by_id_in_every_lane() {
    let cluster = |workers| Deploy::Cluster {
        workers,
        tcp: false,
    };
    let mut lanes = vec![
        lane(1, Regrid::Pinned, cluster(2)),
        lane(1, Regrid::Pinned, cluster(4)),
    ];
    for threads in [1, 2] {
        lanes.push(lane(threads, Regrid::Scheduled, Deploy::Single));
        lanes.push(lane(threads, Regrid::Auto, Deploy::Durable));
    }
    for seed in 0..case_budget(3) as u64 {
        verify(&tie_stream(seed), &lanes);
    }
}
