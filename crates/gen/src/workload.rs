//! The network-based moving-object workload (Brinkhoff-style \[B02\]).
//!
//! Objects appear on a network node, travel the shortest path to a random
//! destination at their speed class, and disappear there (a replacement
//! appears elsewhere, keeping the population at `N`). Queries are objects
//! too, but they "stay in the system throughout the simulation": on
//! arrival they pick a fresh destination. Per timestamp, each object moves
//! with probability `f_obj` (the *object agility*) and each query with
//! probability `f_qry` (Section 6, Table 6.1).

use cpm_geom::{ObjectId, Point, QueryId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::network::{NodeId, RoadNetwork};
use crate::path::{shortest_path, Traveler};
use crate::speed::SpeedClass;

/// Events emitted by one workload timestamp, in the shape the monitors'
/// `process_cycle` expects.
#[derive(Debug, Clone, Default)]
pub struct TickEvents {
    /// Object updates of this timestamp (`U_P`).
    pub object_events: Vec<cpm_grid::ObjectEvent>,
    /// Query updates of this timestamp (`U_q`).
    pub query_events: Vec<cpm_grid::QueryEvent>,
}

/// Configuration of a network workload (defaults = Table 6.1).
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Object population `N`.
    pub n_objects: usize,
    /// Number of continuous queries `n`.
    pub n_queries: usize,
    /// Neighbors per query `k`.
    pub k: usize,
    /// Object speed class.
    pub object_speed: SpeedClass,
    /// Query speed class.
    pub query_speed: SpeedClass,
    /// Object agility `f_obj`: fraction of objects updating per timestamp.
    pub f_obj: f64,
    /// Query agility `f_qry`: fraction of queries updating per timestamp.
    pub f_qry: f64,
    /// RNG seed (workloads are fully deterministic given the seed).
    pub seed: u64,
}

impl Default for WorkloadConfig {
    /// The defaults of Table 6.1: `N = 100K`, `n = 5K`, `k = 16`, medium
    /// speeds, `f_obj = 50%`, `f_qry = 30%`.
    fn default() -> Self {
        Self {
            n_objects: 100_000,
            n_queries: 5_000,
            k: 16,
            object_speed: SpeedClass::Medium,
            query_speed: SpeedClass::Medium,
            f_obj: 0.5,
            f_qry: 0.3,
            seed: 0x5EED,
        }
    }
}

#[derive(Debug, Clone)]
struct MovingEntity {
    traveler: Traveler,
    /// Destination node, kept so a persistent query can re-target from it.
    dest: NodeId,
}

/// The network-based workload generator.
#[derive(Debug)]
pub struct NetworkWorkload {
    net: RoadNetwork,
    config: WorkloadConfig,
    rng: StdRng,
    objects: Vec<MovingEntity>,
    queries: Vec<MovingEntity>,
}

impl NetworkWorkload {
    /// Build a workload over `net` (the network is consumed so the
    /// generator is self-contained and cheap to move across threads).
    pub fn new(net: RoadNetwork, config: WorkloadConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let objects = (0..config.n_objects)
            .map(|_| spawn(&net, &mut rng))
            .collect();
        let queries = (0..config.n_queries)
            .map(|_| spawn(&net, &mut rng))
            .collect();
        Self {
            net,
            config,
            rng,
            objects,
            queries,
        }
    }

    /// The configuration this workload was built with.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// The underlying road network.
    pub fn network(&self) -> &RoadNetwork {
        &self.net
    }

    /// Initial object placements, for `populate()` on the monitors.
    pub fn initial_objects(&self) -> impl Iterator<Item = (ObjectId, Point)> + '_ {
        self.objects
            .iter()
            .enumerate()
            .map(|(i, e)| (ObjectId(i as u32), e.traveler.position()))
    }

    /// Initial query placements (install with `config.k`).
    pub fn initial_queries(&self) -> impl Iterator<Item = (QueryId, Point, usize)> + '_ {
        self.queries
            .iter()
            .enumerate()
            .map(|(i, e)| (QueryId(i as u32), e.traveler.position(), self.config.k))
    }

    /// Advance the simulation by one timestamp and emit the update batch.
    ///
    /// Each object moves with probability `f_obj`; an object reaching its
    /// destination is replaced by one with the same id at a random node,
    /// as in the Brinkhoff life cycle. The respawn is one `Move` event —
    /// the paper's `<id, old, new>` update tuple — since a batch holds
    /// one event per object. Each query moves with probability `f_qry`
    /// and re-targets on arrival instead of disappearing.
    pub fn tick(&mut self) -> TickEvents {
        let mut out = TickEvents::default();
        let step_obj = self.config.object_speed.distance_per_tick();
        let step_qry = self.config.query_speed.distance_per_tick();

        for i in 0..self.objects.len() {
            if !self.rng.gen_bool(self.config.f_obj) {
                continue;
            }
            let id = ObjectId(i as u32);
            if self.objects[i].traveler.advance(step_obj) {
                self.objects[i] = spawn(&self.net, &mut self.rng);
            }
            out.object_events.push(cpm_grid::ObjectEvent::Move {
                id,
                to: self.objects[i].traveler.position(),
            });
        }

        for i in 0..self.queries.len() {
            if !self.rng.gen_bool(self.config.f_qry) {
                continue;
            }
            let id = QueryId(i as u32);
            let arrived = self.queries[i].traveler.advance(step_qry);
            if arrived {
                // Queries persist: re-target from the destination node.
                let from = self.queries[i].dest;
                self.queries[i] = entity_from_node(&self.net, from, &mut self.rng);
            }
            out.query_events.push(cpm_grid::QueryEvent::Move {
                id,
                to: self.queries[i].traveler.position(),
            });
        }
        out
    }
}

/// Spawn an entity at a random node with a shortest path to a random
/// (distinct, where possible) destination.
fn spawn(net: &RoadNetwork, rng: &mut StdRng) -> MovingEntity {
    let from = net.random_node(rng);
    entity_from_node(net, from, rng)
}

fn entity_from_node(net: &RoadNetwork, from: NodeId, rng: &mut StdRng) -> MovingEntity {
    let mut to = net.random_node(rng);
    if net.node_count() > 1 {
        while to == from {
            to = net.random_node(rng);
        }
    }
    let path = shortest_path(net, from, to).expect("network is connected");
    let polyline: Vec<Point> = path.iter().map(|&n| net.position(n)).collect();
    MovingEntity {
        traveler: Traveler::new(polyline),
        dest: to,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_grid::ObjectEvent;

    fn small_config() -> WorkloadConfig {
        WorkloadConfig {
            n_objects: 200,
            n_queries: 20,
            k: 4,
            object_speed: SpeedClass::Medium,
            query_speed: SpeedClass::Medium,
            f_obj: 0.5,
            f_qry: 0.3,
            seed: 99,
        }
    }

    fn small_workload() -> NetworkWorkload {
        let net = RoadNetwork::grid_city(10, 10, 0.2, 0.2, 6, 1);
        NetworkWorkload::new(net, small_config())
    }

    #[test]
    fn initial_population_matches_config() {
        let w = small_workload();
        assert_eq!(w.initial_objects().count(), 200);
        assert_eq!(w.initial_queries().count(), 20);
        for (_, p) in w.initial_objects() {
            assert!(p.is_finite());
        }
    }

    #[test]
    fn event_stream_replays_cleanly_into_a_grid() {
        let mut w = small_workload();
        let mut grid = cpm_grid::GridBuilder::new(64).build_uniform();
        for (oid, p) in w.initial_objects() {
            grid.insert(oid, p);
        }
        for _ in 0..30 {
            let events = w.tick();
            let mut ids: Vec<ObjectId> = events.object_events.iter().map(|e| e.id()).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(
                ids.len(),
                events.object_events.len(),
                "one event per object"
            );
            for ev in &events.object_events {
                match *ev {
                    ObjectEvent::Move { id, to } => {
                        grid.update_position(id, to);
                    }
                    ObjectEvent::Appear { id, pos } => {
                        grid.insert(id, pos);
                    }
                    ObjectEvent::Disappear { id } => {
                        grid.remove(id).expect("live object");
                    }
                }
            }
            assert_eq!(grid.len(), 200, "population is conserved");
        }
    }

    #[test]
    fn agility_controls_update_volume() {
        let mut lazy_cfg = small_config();
        lazy_cfg.f_obj = 0.1;
        lazy_cfg.n_objects = 2000;
        let net = RoadNetwork::grid_city(10, 10, 0.2, 0.2, 6, 1);
        let mut w = NetworkWorkload::new(net, lazy_cfg);
        let mut total = 0usize;
        for _ in 0..20 {
            total += w.tick().object_events.len();
        }
        let avg = total as f64 / 20.0 / 2000.0;
        assert!((avg - 0.1).abs() < 0.03, "measured agility {avg}");
    }

    #[test]
    fn movement_per_tick_is_bounded_by_speed() {
        let mut w = small_workload();
        let step = SpeedClass::Medium.distance_per_tick();
        let nodes: Vec<Point> = (0..w.network().node_count() as NodeId)
            .map(|n| w.network().position(n))
            .collect();
        let mut prev: Vec<Point> = w.initial_objects().map(|(_, p)| p).collect();
        let mut respawns = 0;
        for _ in 0..10 {
            let ev = w.tick();
            for e in &ev.object_events {
                let ObjectEvent::Move { id, to } = *e else {
                    panic!("the network generator only moves objects: {e:?}");
                };
                let d = prev[id.index()].dist(to);
                // Network paths can bend, so displacement ≤ path step —
                // unless the object respawned, which starts at a node.
                if d > step + 1e-9 {
                    assert!(nodes.contains(&to), "object jumped {d}");
                    respawns += 1;
                }
                prev[id.index()] = to;
            }
        }
        assert!(respawns > 0, "the life cycle never respawned");
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = small_workload();
        let mut b = small_workload();
        for _ in 0..5 {
            let (ea, eb) = (a.tick(), b.tick());
            assert_eq!(ea.object_events, eb.object_events);
            assert_eq!(ea.query_events, eb.query_events);
        }
    }

    #[test]
    fn queries_always_report_move_when_selected() {
        let mut cfg = small_config();
        cfg.f_qry = 1.0;
        let net = RoadNetwork::grid_city(10, 10, 0.2, 0.2, 6, 1);
        let mut w = NetworkWorkload::new(net, cfg);
        let ev = w.tick();
        assert_eq!(ev.query_events.len(), 20);
    }
}
