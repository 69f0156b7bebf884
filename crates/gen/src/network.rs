//! Synthetic road networks.
//!
//! The paper's experiments use the Brinkhoff generator \[B02\] on the road
//! map of Oldenburg. That map is not redistributable here, so this module
//! synthesizes networks with the same relevant statistics:
//! bounded-degree planar-ish graphs over the unit square on which
//! objects follow shortest paths, producing locally correlated, skewed
//! update streams.
//!
//! [`RoadNetwork::grid_city`] builds a perturbed Manhattan grid with
//! randomly removed street segments and a sprinkling of diagonal avenues
//! (dense urban core statistics). It guarantees a single connected
//! component (repaired via union-find), so every shortest-path query
//! succeeds.

use cpm_geom::{clamp_coord, Point};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Node identifier within a road network.
pub type NodeId = u32;

/// An undirected road network over the unit square.
#[derive(Debug, Clone)]
pub struct RoadNetwork {
    nodes: Vec<Point>,
    /// Adjacency: for each node, `(neighbor, edge length)`.
    adj: Vec<Vec<(NodeId, f64)>>,
    edge_count: usize,
}

/// Disjoint-set forest used for connectivity repair.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.parent[ra as usize] = rb;
        true
    }
}

impl RoadNetwork {
    fn from_parts(nodes: Vec<Point>, edges: &[(NodeId, NodeId)]) -> Self {
        let mut adj = vec![Vec::new(); nodes.len()];
        let mut edge_count = 0;
        for &(a, b) in edges {
            if a == b {
                continue;
            }
            let w = nodes[a as usize].dist(nodes[b as usize]);
            adj[a as usize].push((b, w));
            adj[b as usize].push((a, w));
            edge_count += 1;
        }
        Self {
            nodes,
            adj,
            edge_count,
        }
    }

    /// A perturbed `cols × rows` street grid: intersections jittered by
    /// `jitter` (as a fraction of the street spacing), each street segment
    /// removed with probability `removal`, plus `diagonals` random diagonal
    /// shortcut edges. Connectivity is repaired afterwards.
    ///
    /// # Panics
    /// Panics if `cols` or `rows` is zero or `removal ∉ [0, 1)`.
    pub fn grid_city(
        cols: u32,
        rows: u32,
        jitter: f64,
        removal: f64,
        diagonals: usize,
        seed: u64,
    ) -> Self {
        assert!(cols > 0 && rows > 0, "degenerate grid");
        assert!((0.0..1.0).contains(&removal), "removal out of range");
        let mut rng = StdRng::seed_from_u64(seed);
        let (sx, sy) = (1.0 / cols as f64, 1.0 / rows as f64);

        let node_at = |c: u32, r: u32| (r * (cols + 1) + c) as NodeId;
        let mut nodes = Vec::with_capacity(((cols + 1) * (rows + 1)) as usize);
        for r in 0..=rows {
            for c in 0..=cols {
                let jx = rng.gen_range(-jitter..=jitter) * sx;
                let jy = rng.gen_range(-jitter..=jitter) * sy;
                nodes.push(Point::new(
                    clamp_coord(c as f64 * sx + jx),
                    clamp_coord(r as f64 * sy + jy),
                ));
            }
        }

        let mut kept = Vec::new();
        let mut removed = Vec::new();
        for r in 0..=rows {
            for c in 0..=cols {
                if c < cols {
                    let e = (node_at(c, r), node_at(c + 1, r));
                    if rng.gen_bool(removal) {
                        removed.push(e);
                    } else {
                        kept.push(e);
                    }
                }
                if r < rows {
                    let e = (node_at(c, r), node_at(c, r + 1));
                    if rng.gen_bool(removal) {
                        removed.push(e);
                    } else {
                        kept.push(e);
                    }
                }
            }
        }
        // Diagonal avenues between random nearby intersections.
        for _ in 0..diagonals {
            let c = rng.gen_range(0..cols);
            let r = rng.gen_range(0..rows);
            kept.push((node_at(c, r), node_at(c + 1, r + 1)));
        }

        // Reconnect: re-add removed street segments that bridge components.
        let mut uf = UnionFind::new(nodes.len());
        for &(a, b) in &kept {
            uf.union(a, b);
        }
        removed.shuffle(&mut rng);
        for &(a, b) in &removed {
            if uf.union(a, b) {
                kept.push((a, b));
            }
        }

        Self::from_parts(nodes, &kept)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Position of node `id`.
    #[inline]
    pub fn position(&self, id: NodeId) -> Point {
        self.nodes[id as usize]
    }

    /// Neighbors of node `id` with edge lengths.
    #[inline]
    pub fn neighbors(&self, id: NodeId) -> &[(NodeId, f64)] {
        &self.adj[id as usize]
    }

    /// A uniformly random node id.
    pub fn random_node<R: Rng>(&self, rng: &mut R) -> NodeId {
        rng.gen_range(0..self.nodes.len() as u32)
    }

    /// `true` if a single connected component spans all nodes.
    pub fn is_connected(&self) -> bool {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![0u32];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &(v, _) in self.neighbors(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_city_is_connected_even_with_heavy_removal() {
        for seed in 0..5 {
            let net = RoadNetwork::grid_city(12, 9, 0.2, 0.35, 10, seed);
            assert_eq!(net.node_count(), 13 * 10);
            assert!(net.is_connected(), "seed {seed}");
            assert!(net.edge_count() >= net.node_count() - 1);
        }
    }

    #[test]
    fn all_nodes_inside_workspace() {
        let net = RoadNetwork::grid_city(8, 8, 0.45, 0.2, 5, 7);
        for i in 0..net.node_count() as u32 {
            let p = net.position(i);
            assert!((0.0..1.0).contains(&p.x) && (0.0..1.0).contains(&p.y));
        }
    }

    #[test]
    fn edges_are_symmetric_with_euclidean_weights() {
        let net = RoadNetwork::grid_city(6, 6, 0.1, 0.1, 3, 3);
        for u in 0..net.node_count() as u32 {
            for &(v, w) in net.neighbors(u) {
                let expect = net.position(u).dist(net.position(v));
                assert!((w - expect).abs() < 1e-12);
                assert!(
                    net.neighbors(v)
                        .iter()
                        .any(|&(b, bw)| b == u && (bw - w).abs() < 1e-12),
                    "missing reverse edge {u}->{v}"
                );
            }
        }
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let a = RoadNetwork::grid_city(10, 10, 0.3, 0.25, 8, 42);
        let b = RoadNetwork::grid_city(10, 10, 0.3, 0.25, 8, 42);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        for i in 0..a.node_count() as u32 {
            assert_eq!(a.position(i), b.position(i));
        }
    }
}
