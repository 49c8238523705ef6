//! Microservice call-graph topologies.
//!
//! [`TopologyGraph`] generalizes the linear tier chain to a directed acyclic
//! call graph: nodes are tiers, and each edge `(from, to, calls)` says a
//! frame at tier `from` makes `calls` sequential calls into tier `to` per
//! visit. The classic chain is the special case where node `m` has exactly
//! one out-edge to node `m + 1` ([`TopologyGraph::chain`]); fan-out shapes
//! (one frame calling several downstream services in order) and cache-skip
//! shapes (a cache hit's route is a copy of the graph whose cached edge
//! carries zero calls, [`TopologyGraph::skipping`]) fall out of the same
//! representation.
//!
//! Nodes are topologically ordered by construction — every edge points from
//! a lower index to a strictly higher one — so a single forward pass
//! computes end-to-end visit ratios and the flow dispatcher never needs
//! cycle detection. A graph is immutable and makes that pass when it is
//! built, so every request sharing a route shares its ratios too.
//!
//! This module is on the request hot path (the flow state machine consults
//! it on every downstream call), so all per-call accessors are allocation
//! free: edges live in one flat vector indexed by a per-node prefix table.

/// One call edge: `calls` sequential invocations of tier `to` per visit of
/// the owning (`from`) tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphEdge {
    /// Callee tier index.
    pub to: u16,
    /// Calls per parent visit. May be zero (a skipped hop, e.g. on a cache
    /// hit) — the dispatcher then never visits `to` through this edge.
    pub calls: u32,
}

/// A DAG of tiers with per-edge call counts, stored as a flat edge list
/// with a per-node prefix index (`first_edge[m]..first_edge[m + 1]` are the
/// out-edges of node `m`, in call order). A graph is never edited after it
/// is built, so its visit ratios are computed once, at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyGraph {
    first_edge: Vec<u32>,
    edges: Vec<GraphEdge>,
    /// End-to-end visit ratios (see [`TopologyGraph::visit_ratios`]).
    ratios: Vec<u64>,
}

impl TopologyGraph {
    /// The graph over `first_edge` and `edges`, with its visit ratios.
    fn with_ratios(first_edge: Vec<u32>, edges: Vec<GraphEdge>) -> Self {
        let mut graph = TopologyGraph {
            first_edge,
            edges,
            ratios: Vec::new(),
        };
        let tiers = graph.tiers();
        // The client visits the root once; every other node is visited
        // through its in-edges, all of which come from lower nodes.
        let mut ratios: Vec<u64> = (0..tiers).map(|m| u64::from(m == 0)).collect();
        for m in 0..tiers {
            let here = ratios[m];
            for e in graph.out_edges(m) {
                let to = usize::from(e.to);
                ratios[to] = ratios[to].saturating_add(here.saturating_mul(u64::from(e.calls)));
            }
        }
        graph.ratios = ratios;
        graph
    }

    /// The chain topology for the given per-hop visit counts (`visits[m]`
    /// calls from tier `m − 1` into tier `m`; `visits[0]` must be 1), built
    /// through [`TopologyGraph::from_edges`].
    ///
    /// # Panics
    ///
    /// Panics if `visits` is empty, `visits[0] != 1`, or a later hop
    /// carries 0 calls (a skipped hop is a route, built with
    /// [`TopologyGraph::skipping`]).
    pub fn chain(visits: &[u32]) -> Self {
        assert!(!visits.is_empty(), "a chain needs at least one tier");
        assert_eq!(visits[0], 1, "the client makes exactly one front-tier call");
        // Node `m - 1` calls node `m`; the last node has no out-edges.
        let edges: Vec<(usize, usize, u32)> =
            (1..visits.len()).map(|m| (m - 1, m, visits[m])).collect();
        Self::from_edges(visits.len(), &edges)
    }

    /// Builds a graph over `tiers` nodes from `(from, to, calls)` edges.
    ///
    /// Node 0 is the entry tier (the client calls it once). Edges must point
    /// forward (`from < to`), every non-root node must be reachable (have at
    /// least one in-edge), and call counts must be at least 1. Edge order
    /// within a parent is preserved: it is the order the frame makes its
    /// downstream calls.
    ///
    /// # Panics
    ///
    /// Panics if `tiers == 0`, an edge is out of range or non-forward, a
    /// call count is 0, or a non-root node has no in-edge.
    pub fn from_edges(tiers: usize, edge_list: &[(usize, usize, u32)]) -> Self {
        assert!(tiers > 0, "a topology needs at least one tier");
        assert!(tiers <= usize::from(u16::MAX), "too many tiers");
        let mut reachable = Vec::with_capacity(tiers);
        reachable.resize(tiers, false);
        reachable[0] = true;
        for &(from, to, calls) in edge_list {
            assert!(
                from < tiers && to < tiers,
                "edge ({from},{to}) out of range"
            );
            assert!(from < to, "edges must point forward: ({from},{to})");
            assert!(
                calls >= 1,
                "edge ({from},{to}) must carry at least one call"
            );
            reachable[to] = true;
        }
        for (m, &ok) in reachable.iter().enumerate() {
            assert!(ok, "tier {m} is unreachable (no in-edge)");
        }
        let mut first_edge = Vec::with_capacity(tiers.saturating_add(1));
        let mut edges = Vec::with_capacity(edge_list.len());
        for m in 0..tiers {
            first_edge.push(edges.len() as u32);
            for &(from, to, calls) in edge_list {
                if from == m {
                    let to = to as u16;
                    edges.push(GraphEdge { to, calls });
                }
            }
        }
        first_edge.push(edges.len() as u32);
        Self::with_ratios(first_edge, edges)
    }

    /// A copy of this graph with the `from → to` edge's calls set to 0: the
    /// route of a request whose cache hit at `from` skips that hop.
    ///
    /// # Panics
    ///
    /// Panics if no such edge exists.
    pub fn skipping(&self, from: usize, to: usize) -> Self {
        let want = to as u16;
        let pos = self
            .out_edges(from)
            .iter()
            .position(|e| e.to == want)
            .unwrap_or_else(|| panic!("edge ({from},{to}) not in the graph"));
        let skipped = self.first_edge[from] as usize + pos;
        let edges = self
            .edges
            .iter()
            .enumerate()
            .map(|(k, &e)| {
                if k == skipped {
                    GraphEdge { calls: 0, ..e }
                } else {
                    e
                }
            })
            .collect();
        Self::with_ratios(Vec::from(self.first_edge.as_slice()), edges)
    }

    /// Number of tiers (nodes).
    pub fn tiers(&self) -> usize {
        self.first_edge.len().saturating_sub(1)
    }

    /// The out-edges of node `m`, in call order.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn out_edges(&self, m: usize) -> &[GraphEdge] {
        let next = m.saturating_add(1);
        let lo = self.first_edge[m] as usize;
        let hi = self.first_edge[next] as usize;
        &self.edges[lo..hi]
    }

    /// Total downstream calls a frame at node `m` makes per visit.
    pub fn total_calls(&self, m: usize) -> u32 {
        let mut total = 0u32;
        for e in self.out_edges(m) {
            total = total.saturating_add(e.calls);
        }
        total
    }

    /// The callee tier of call number `k` (0-based, in call order) made by
    /// a frame at node `m`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not less than [`TopologyGraph::total_calls`]`(m)`.
    pub fn call_target(&self, m: usize, k: u32) -> usize {
        let mut seen = 0u32;
        for e in self.out_edges(m) {
            seen = seen.saturating_add(e.calls);
            if k < seen {
                return usize::from(e.to);
            }
        }
        panic!("call index {k} out of range at tier {m}");
    }

    /// Sum of in-edge call counts of node `m` (1 for the root): the calls
    /// made into `m` per visit of its parent(s) — the graph analogue of the
    /// chain's per-hop `visits[m]`.
    pub fn in_calls(&self, m: usize) -> u32 {
        if m == 0 {
            return 1;
        }
        let want = m as u16;
        let mut total = 0u32;
        for e in &self.edges {
            if e.to == want {
                total = total.saturating_add(e.calls);
            }
        }
        total
    }

    /// True when every node has at most one in-edge (the graph is a tree
    /// rooted at node 0) — the shape for which per-tier exclusive residence
    /// is well defined (a node's time minus its children's).
    pub fn is_tree(&self) -> bool {
        let tiers = self.tiers();
        let mut seen = Vec::with_capacity(tiers);
        seen.resize(tiers, false);
        for e in &self.edges {
            let to = usize::from(e.to);
            if seen[to] {
                return false;
            }
            seen[to] = true;
        }
        true
    }

    /// End-to-end visit ratios: `ratios[m]` is the expected number of times
    /// one client request visits node `m` (root = 1), the DAG analogue of
    /// the chain's cumulative visit product.
    pub fn visit_ratios(&self) -> &[u64] {
        &self.ratios
    }

    /// Invokes `f(from, to, calls)` for every edge, parents in index order.
    pub fn for_each_edge(&self, mut f: impl FnMut(usize, usize, u32)) {
        let tiers = self.tiers();
        for m in 0..tiers {
            for e in self.out_edges(m) {
                f(m, usize::from(e.to), e.calls);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_matches_visit_vector() {
        let g = TopologyGraph::chain(&[1, 1, 2]);
        assert_eq!(g.tiers(), 3);
        assert_eq!(g.total_calls(0), 1);
        assert_eq!(g.total_calls(1), 2);
        assert_eq!(g.total_calls(2), 0);
        assert_eq!(g.call_target(0, 0), 1);
        assert_eq!(g.call_target(1, 0), 2);
        assert_eq!(g.call_target(1, 1), 2);
        assert_eq!(g.in_calls(0), 1);
        assert_eq!(g.in_calls(2), 2);
        assert_eq!(g.visit_ratios(), [1, 1, 2]);
        assert!(g.is_tree());
    }

    #[test]
    fn fan_out_dispatches_in_edge_order() {
        // 0 → 1 (once), then 1 → {2, 2, 3}: two service calls, one DB call.
        let g = TopologyGraph::from_edges(4, &[(0, 1, 1), (1, 2, 2), (1, 3, 1)]);
        assert_eq!(g.total_calls(1), 3);
        assert_eq!(g.call_target(1, 0), 2);
        assert_eq!(g.call_target(1, 1), 2);
        assert_eq!(g.call_target(1, 2), 3);
        assert_eq!(g.visit_ratios(), [1, 1, 2, 1]);
        assert!(g.is_tree());
    }

    #[test]
    fn diamond_is_not_a_tree_but_ratios_accumulate() {
        // 0 → {1, 2}, both → 3.
        let g = TopologyGraph::from_edges(4, &[(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 2)]);
        assert!(!g.is_tree());
        assert_eq!(g.in_calls(3), 3);
        assert_eq!(g.visit_ratios(), [1, 1, 1, 3]);
    }

    #[test]
    fn set_edge_calls_zeroes_a_hop() {
        // A cache hit's route: `skipping` copies the graph with one edge's
        // calls set to 0.
        let g = TopologyGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (1, 3, 2)]);
        let hit = g.skipping(1, 3);
        assert_eq!(hit.total_calls(1), 1);
        assert_eq!(hit.call_target(1, 0), 2);
        assert_eq!(hit.visit_ratios(), [1, 1, 1, 0]);
        assert_eq!(hit.out_edges(1)[1], GraphEdge { to: 3, calls: 0 });
        // The original is untouched.
        assert_eq!(g.visit_ratios(), [1, 1, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "edge (1,2) must carry at least one call")]
    fn chain_rejects_a_zero_call_hop() {
        let _ = TopologyGraph::chain(&[1, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "edge (0,2) not in the graph")]
    fn skipping_a_missing_edge_panics() {
        let _ = TopologyGraph::chain(&[1, 1, 1]).skipping(0, 2);
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn unreachable_node_rejected() {
        let _ = TopologyGraph::from_edges(3, &[(0, 1, 1)]);
    }

    #[test]
    #[should_panic(expected = "point forward")]
    fn backward_edge_rejected() {
        let _ = TopologyGraph::from_edges(2, &[(1, 0, 1), (0, 1, 1)]);
    }

    #[test]
    #[should_panic(expected = "call index")]
    fn call_target_out_of_range_panics() {
        let g = TopologyGraph::chain(&[1, 1]);
        let _ = g.call_target(0, 1);
    }
}
