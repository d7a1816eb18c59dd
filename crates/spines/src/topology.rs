//! Overlay topology descriptions and path computation.
//!
//! Spines daemons form an overlay graph; routing decisions (shortest path,
//! k edge-disjoint paths) are computed over it. The same structure is used
//! statically by the deployment builder and dynamically by daemons from
//! their link-state databases.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// Identifies a daemon in the overlay.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct OverlayId(pub u16);

spire_sim::impl_wire!(struct OverlayId(id));

impl OverlayId {
    /// The reserved destination of a multicast-group message: no daemon has
    /// this id, and the message's `dst_port` names the group.
    pub const GROUP: OverlayId = OverlayId(u16::MAX);
}

impl std::fmt::Display for OverlayId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ov{}", self.0)
    }
}

/// An undirected weighted overlay graph.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Topology {
    /// Adjacency: node -> (neighbor -> weight).
    adjacency: BTreeMap<OverlayId, BTreeMap<OverlayId, u32>>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Topology {
        Topology::default()
    }

    /// Adds a node with no edges (idempotent).
    pub fn add_node(&mut self, node: OverlayId) {
        self.adjacency.entry(node).or_default();
    }

    /// Adds an undirected edge with the given weight.
    pub fn add_edge(&mut self, a: OverlayId, b: OverlayId, weight: u32) {
        assert_ne!(a, b, "self loops are not allowed");
        self.adjacency.entry(a).or_default().insert(b, weight);
        self.adjacency.entry(b).or_default().insert(a, weight);
    }

    /// Removes an undirected edge if present.
    pub fn remove_edge(&mut self, a: OverlayId, b: OverlayId) {
        if let Some(n) = self.adjacency.get_mut(&a) {
            n.remove(&b);
        }
        if let Some(n) = self.adjacency.get_mut(&b) {
            n.remove(&a);
        }
    }

    /// All nodes, sorted.
    pub fn nodes(&self) -> impl Iterator<Item = OverlayId> + '_ {
        self.adjacency.keys().copied()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// All undirected edges (each reported once, `a < b`).
    pub fn edges(&self) -> Vec<(OverlayId, OverlayId, u32)> {
        let mut out = Vec::new();
        for (a, neighbors) in &self.adjacency {
            for (b, w) in neighbors {
                if a < b {
                    out.push((*a, *b, *w));
                }
            }
        }
        out
    }

    /// Neighbors of a node with edge weights.
    pub fn neighbors(&self, node: OverlayId) -> impl Iterator<Item = (OverlayId, u32)> + '_ {
        self.adjacency
            .get(&node)
            .into_iter()
            .flat_map(|m| m.iter().map(|(n, w)| (*n, *w)))
    }

    /// True if the edge exists.
    pub fn has_edge(&self, a: OverlayId, b: OverlayId) -> bool {
        self.adjacency
            .get(&a)
            .map(|m| m.contains_key(&b))
            .unwrap_or(false)
    }

    /// Shortest path from `src` to `dst` (Dijkstra), including both
    /// endpoints; `None` if unreachable.
    pub fn shortest_path(&self, src: OverlayId, dst: OverlayId) -> Option<Vec<OverlayId>> {
        if src == dst {
            return Some(vec![src]);
        }
        let mut dist: BTreeMap<OverlayId, u64> = BTreeMap::new();
        let mut prev: BTreeMap<OverlayId, OverlayId> = BTreeMap::new();
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, OverlayId)>> = BinaryHeap::new();
        dist.insert(src, 0);
        heap.push(std::cmp::Reverse((0, src)));
        while let Some(std::cmp::Reverse((d, node))) = heap.pop() {
            if dist.get(&node).copied().unwrap_or(u64::MAX) < d {
                continue;
            }
            if node == dst {
                break;
            }
            for (next, w) in self.neighbors(node) {
                let nd = d + w as u64;
                if nd < dist.get(&next).copied().unwrap_or(u64::MAX) {
                    dist.insert(next, nd);
                    prev.insert(next, node);
                    heap.push(std::cmp::Reverse((nd, next)));
                }
            }
        }
        if !prev.contains_key(&dst) {
            return None;
        }
        let mut path = vec![dst];
        let mut cur = dst;
        while cur != src {
            cur = prev[&cur];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// The next hop on the shortest path from `src` to `dst`.
    pub fn next_hop(&self, src: OverlayId, dst: OverlayId) -> Option<OverlayId> {
        let path = self.shortest_path(src, dst)?;
        path.get(1).copied()
    }

    /// Up to `k` edge-disjoint paths from `src` to `dst`, greedily removing
    /// the edges of each shortest path found (a standard approximation of a
    /// maximally disjoint dissemination graph).
    pub fn disjoint_paths(&self, src: OverlayId, dst: OverlayId, k: usize) -> Vec<Vec<OverlayId>> {
        let mut scratch = self.clone();
        let mut paths = Vec::new();
        for _ in 0..k {
            let Some(path) = scratch.shortest_path(src, dst) else {
                break;
            };
            for pair in path.windows(2) {
                scratch.remove_edge(pair[0], pair[1]);
            }
            paths.push(path);
        }
        paths
    }

    /// True if every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        let Some(start) = self.nodes().next() else {
            return true;
        };
        let mut seen: BTreeSet<OverlayId> = BTreeSet::new();
        let mut stack = vec![start];
        while let Some(node) = stack.pop() {
            if !seen.insert(node) {
                continue;
            }
            for (next, _) in self.neighbors(node) {
                if !seen.contains(&next) {
                    stack.push(next);
                }
            }
        }
        seen.len() == self.node_count()
    }

    /// Builds a fully connected mesh over `n` nodes with uniform weight.
    pub fn full_mesh(n: u16, weight: u32) -> Topology {
        let mut t = Topology::new();
        for i in 0..n {
            t.add_node(OverlayId(i));
        }
        for i in 0..n {
            for j in (i + 1)..n {
                t.add_edge(OverlayId(i), OverlayId(j), weight);
            }
        }
        t
    }

    /// Builds a ring over `n` nodes.
    pub fn ring(n: u16, weight: u32) -> Topology {
        let mut t = Topology::new();
        for i in 0..n {
            t.add_node(OverlayId(i));
        }
        for i in 0..n {
            t.add_edge(OverlayId(i), OverlayId((i + 1) % n), weight);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ov(n: u16) -> OverlayId {
        OverlayId(n)
    }

    #[test]
    fn shortest_path_simple_line() {
        let mut t = Topology::new();
        t.add_edge(ov(0), ov(1), 1);
        t.add_edge(ov(1), ov(2), 1);
        assert_eq!(
            t.shortest_path(ov(0), ov(2)),
            Some(vec![ov(0), ov(1), ov(2)])
        );
        assert_eq!(t.next_hop(ov(0), ov(2)), Some(ov(1)));
        assert_eq!(t.shortest_path(ov(0), ov(0)), Some(vec![ov(0)]));
    }

    #[test]
    fn shortest_path_prefers_lower_weight() {
        let mut t = Topology::new();
        t.add_edge(ov(0), ov(1), 10);
        t.add_edge(ov(0), ov(2), 1);
        t.add_edge(ov(2), ov(1), 1);
        assert_eq!(
            t.shortest_path(ov(0), ov(1)),
            Some(vec![ov(0), ov(2), ov(1)])
        );
    }

    #[test]
    fn unreachable_is_none() {
        let mut t = Topology::new();
        t.add_node(ov(0));
        t.add_node(ov(1));
        assert_eq!(t.shortest_path(ov(0), ov(1)), None);
        assert!(!t.is_connected());
    }

    #[test]
    fn disjoint_paths_in_mesh() {
        let t = Topology::full_mesh(5, 1);
        let paths = t.disjoint_paths(ov(0), ov(4), 3);
        assert_eq!(paths.len(), 3);
        // Paths must be pairwise edge-disjoint.
        let mut used = std::collections::HashSet::new();
        for p in &paths {
            for w in p.windows(2) {
                let e = if w[0] < w[1] {
                    (w[0], w[1])
                } else {
                    (w[1], w[0])
                };
                assert!(used.insert(e), "edge reused across paths");
            }
        }
    }

    #[test]
    fn disjoint_paths_limited_by_cuts() {
        // A line has exactly one path.
        let mut t = Topology::new();
        t.add_edge(ov(0), ov(1), 1);
        t.add_edge(ov(1), ov(2), 1);
        let paths = t.disjoint_paths(ov(0), ov(2), 3);
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn remove_edge_disconnects() {
        let mut t = Topology::ring(4, 1);
        assert!(t.is_connected());
        t.remove_edge(ov(0), ov(1));
        assert!(t.is_connected()); // ring minus one edge is a line
        t.remove_edge(ov(2), ov(3));
        assert!(!t.is_connected());
    }

    #[test]
    fn edges_reported_once() {
        let t = Topology::full_mesh(4, 2);
        assert_eq!(t.edges().len(), 6);
        assert!(t.has_edge(ov(1), ov(3)));
    }
}
