//! Exact ECMP route resolution by layered bidirectional BFS.
//!
//! [`Topology::ecmp_paths`] enumerates equal-cost shortest paths in a
//! fixed order: a depth-first walk from the source that follows, in
//! adjacency order, every neighbour one hop closer to the destination.
//! The search here produces that exact order without labelling the whole
//! graph:
//!
//! 1. Two breadth-first searches, one from each endpoint, expand the
//!    smaller frontier one whole layer at a time until a new layer
//!    touches the other side's labels. That layer fixes the distance `D`.
//! 2. The shortest-path DAG is marked by walking back from the meeting
//!    layer on each side: a node at source depth `i` lies on a shortest
//!    path iff one of its neighbours at source depth `i + 1` does
//!    (symmetrically on the destination side). Each DAG node carries its
//!    hop index `pos` on every shortest path through it.
//! 3. The depth-first walk follows neighbour `v` of DAG node `u` iff `v`
//!    is on the DAG with `pos(v) == pos(u) + 1`. For such `u` this is
//!    exactly "`dist(v, to) + 1 == dist(u, to)`", the full-graph rule, so
//!    paths, their order, duplicates over parallel links, and the
//!    `limit` cut-off are unchanged.
//!
//! Labels live in a [`RouteScratch`] stamped with a per-search
//! generation, so a caller that keeps one scratch (the simulator does)
//! pays no O(|V|) allocation or clear per search.

use crate::graph::{LinkId, NodeId, Topology};

/// A per-node label: the generation of the search that wrote it in the
/// high 32 bits, the value in the low 32. Zero means never labelled, so
/// label arrays come from zeroed allocations that the OS maps lazily.
type Stamp = u64;

/// The label `labels` holds for `n` in generation `generation`, if any.
fn stamped(labels: &[Stamp], generation: u32, n: NodeId) -> Option<u32> {
    labels
        .get(n.0)
        .filter(|&&s| (s >> 32) as u32 == generation)
        .map(|&s| s as u32)
}

/// Writes `value` as `n`'s label unless it already has one this
/// generation; returns whether it wrote.
fn stamp(labels: &mut [Stamp], generation: u32, n: NodeId, value: u32) -> bool {
    match labels.get_mut(n.0) {
        Some(s) if (*s >> 32) as u32 != generation => {
            *s = u64::from(generation) << 32 | u64::from(value);
            true
        }
        _ => false,
    }
}

/// One side of the bidirectional search.
#[derive(Debug, Clone, Default)]
struct Side {
    /// BFS depth from this side's root, per node.
    depth: Vec<Stamp>,
    /// Nodes labelled so far, in BFS (hence depth) order.
    order: Vec<NodeId>,
    /// `order[frontier..]` is the deepest layer, not yet expanded.
    frontier: usize,
    /// Depth of the frontier layer.
    level: u32,
}

impl Side {
    fn seed(&mut self, root: NodeId, generation: u32) {
        self.order.clear();
        self.frontier = 0;
        self.level = 0;
        if stamp(&mut self.depth, generation, root, 0) {
            self.order.push(root);
        }
    }

    fn frontier_len(&self) -> usize {
        self.order.len().saturating_sub(self.frontier)
    }

    /// Labels the next layer; returns whether it touches `other`'s labels.
    fn expand(&mut self, topo: &Topology, other: &Side, generation: u32) -> bool {
        let layer_end = self.order.len();
        let next = self.level + 1;
        let mut met = false;
        for i in self.frontier..layer_end {
            let Some(&u) = self.order.get(i) else { break };
            for &(v, _) in topo.neighbors(u) {
                if stamp(&mut self.depth, generation, v, next) {
                    self.order.push(v);
                    met |= stamped(&other.depth, generation, v).is_some();
                }
            }
        }
        self.frontier = layer_end;
        self.level = next;
        met
    }
}

/// Reusable working memory for [`Topology::ecmp_paths_with`].
///
/// Every per-node label carries the generation of the search that wrote
/// it, so starting a search is one counter bump: nothing is cleared or
/// reallocated per call. The label arrays grow to the topology's node
/// count on first use, never before.
#[derive(Debug, Clone, Default)]
pub struct RouteScratch {
    generation: u32,
    /// Searches from the source (`[0]`) and from the destination (`[1]`).
    sides: [Side; 2],
    /// Hop index from the source, per node on the shortest-path DAG.
    dag: Vec<Stamp>,
    /// Next adjacency index to try, per node of the DFS path.
    next_edge: Vec<usize>,
    /// Nodes labelled by either side in the last search.
    nodes_labeled: u64,
}

impl RouteScratch {
    /// An empty scratch; it sizes itself on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Nodes labelled by the last search (source and destination sides
    /// counted separately; 0 when no search ran). A deterministic
    /// measure of route-resolution work.
    pub fn nodes_labeled(&self) -> u64 {
        self.nodes_labeled
    }

    /// Starts a search over `n` nodes: bumps the generation, growing the
    /// label arrays if needed and clearing them only on wrap-around
    /// (labels dropped by a regrow are stale anyway).
    fn begin(&mut self, n: usize) {
        let [src, dst] = &mut self.sides;
        for labels in [&mut src.depth, &mut dst.depth, &mut self.dag] {
            if labels.len() < n {
                // Fresh zeroed memory: a search touches only the pages of
                // the nodes it labels.
                *labels = vec![0; n];
            }
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            for labels in [&mut src.depth, &mut dst.depth, &mut self.dag] {
                labels.fill(0);
            }
            self.generation = 1;
        }
    }

    /// Runs the bidirectional search from `from` to `to` (distinct) and
    /// marks the shortest-path DAG; returns whether `to` is reachable.
    fn mark_dag(&mut self, topo: &Topology, from: NodeId, to: NodeId) -> bool {
        self.begin(topo.nodes().len());
        let generation = self.generation;
        let [src, dst] = &mut self.sides;
        src.seed(from, generation);
        dst.seed(to, generation);
        let expanded_src = loop {
            let (s, d) = (src.frontier_len(), dst.frontier_len());
            if s == 0 || d == 0 {
                self.nodes_labeled = (src.order.len() + dst.order.len()) as u64;
                return false;
            }
            let forward = s <= d;
            let met = if forward {
                src.expand(topo, dst, generation)
            } else {
                dst.expand(topo, src, generation)
            };
            if met {
                break forward;
            }
        };
        self.nodes_labeled = (src.order.len() + dst.order.len()) as u64;
        let distance = src.level + dst.level;

        // The meeting layer: nodes labelled by both sides, all at source
        // depth `src.level` and destination depth `dst.level`.
        let (grown, other) = if expanded_src {
            (&*src, &*dst)
        } else {
            (&*dst, &*src)
        };
        for &v in grown.order.get(grown.frontier..).unwrap_or_default() {
            if stamped(&other.depth, generation, v).is_some() {
                stamp(&mut self.dag, generation, v, src.level);
            }
        }
        // Walk back to each root, one layer at a time; the frontier layers
        // hold no DAG node besides the meeting layer, so they are skipped.
        for (side, toward_dst) in [(&*src, true), (&*dst, false)] {
            let inner = side.order.get(..side.frontier).unwrap_or_default();
            for &u in inner.iter().rev() {
                let Some(depth) = stamped(&side.depth, generation, u) else {
                    continue;
                };
                let (pos, want) = if toward_dst {
                    (depth, depth + 1)
                } else {
                    (distance - depth, distance - depth - 1)
                };
                let on_dag = topo
                    .neighbors(u)
                    .iter()
                    .any(|&(v, _)| stamped(&self.dag, generation, v) == Some(want));
                if on_dag {
                    stamp(&mut self.dag, generation, u, pos);
                }
            }
        }
        true
    }

    /// Depth-first enumeration over the marked DAG, in adjacency order,
    /// stopping after `limit` paths.
    fn enumerate(
        &mut self,
        topo: &Topology,
        from: NodeId,
        to: NodeId,
        limit: usize,
    ) -> Vec<Vec<NodeId>> {
        let generation = self.generation;
        let dag = &self.dag;
        let pos = |n: NodeId| stamped(dag, generation, n);
        let mut out = Vec::new();
        let mut path = vec![from];
        self.next_edge.clear();
        self.next_edge.push(0);
        while let (Some(&u), Some(next)) = (path.last(), self.next_edge.last_mut()) {
            let want = pos(u).map(|p| p + 1);
            let step = topo
                .neighbors(u)
                .iter()
                .enumerate()
                .skip(*next)
                .find(|&(_, &(v, _))| want.is_some() && pos(v) == want);
            match step {
                Some((j, &(v, _))) => {
                    *next = j + 1;
                    if v == to {
                        let mut p = Vec::with_capacity(path.len() + 1);
                        p.extend_from_slice(&path);
                        p.push(v);
                        out.push(p);
                        if out.len() >= limit {
                            break;
                        }
                    } else {
                        path.push(v);
                        self.next_edge.push(0);
                    }
                }
                None => {
                    path.pop();
                    self.next_edge.pop();
                }
            }
        }
        out
    }
}

impl Topology {
    /// Enumerates equal-cost shortest paths between two nodes, up to
    /// `limit` paths (ECMP). Paths are node sequences including
    /// endpoints, in depth-first adjacency order from `from`; a pair
    /// joined by parallel links yields one path per link. Unreachable
    /// pairs and unknown nodes give no paths.
    ///
    /// Allocates its label arrays per call; callers resolving many pairs
    /// keep a [`RouteScratch`] and call [`Topology::ecmp_paths_with`].
    pub fn ecmp_paths(&self, from: NodeId, to: NodeId, limit: usize) -> Vec<Vec<NodeId>> {
        self.ecmp_paths_with(&mut RouteScratch::new(), from, to, limit)
    }

    /// [`Topology::ecmp_paths`] with caller-owned working memory: the
    /// same paths in the same order, with no O(|V|) allocation or clear
    /// once `scratch` has grown to this topology.
    pub fn ecmp_paths_with(
        &self,
        scratch: &mut RouteScratch,
        from: NodeId,
        to: NodeId,
        limit: usize,
    ) -> Vec<Vec<NodeId>> {
        scratch.nodes_labeled = 0;
        let n = self.nodes().len();
        if limit == 0 || from.0 >= n || to.0 >= n {
            return Vec::new();
        }
        if from == to {
            return vec![vec![from]];
        }
        if !scratch.mark_dag(self, from, to) {
            return Vec::new();
        }
        scratch.enumerate(self, from, to, limit)
    }

    /// The lowest-id link joining `a` and `b`, if any: the first entry of
    /// `a`'s adjacency whose peer is `b`. Links are appended to both
    /// endpoints' lists in id order, so the lower-degree endpoint is
    /// scanned.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        let (near, far) = if self.neighbors(a).len() <= self.neighbors(b).len() {
            (a, b)
        } else {
            (b, a)
        };
        self.neighbors(near)
            .iter()
            .find(|&&(peer, _)| peer == far)
            .map(|&(_, link)| link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{
        fat_tree_pods, fat_tree_pods_spine, leaf_spine, rail_optimized, three_tier_fat_tree,
    };
    use crate::isp::abilene;
    use npp_units::Gbps;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    const LIMITS: [usize; 5] = [0, 1, 3, 16, 1024];

    /// The full-graph enumerator the bidirectional search replaced, kept
    /// as the differential oracle: a BFS reachability test, BFS distance
    /// labels from `to` over the whole graph, then a recursive DFS along
    /// strictly decreasing labels.
    fn oracle(t: &Topology, from: NodeId, to: NodeId, limit: usize) -> Vec<Vec<NodeId>> {
        if t.distance(from, to).is_none() {
            return Vec::new();
        }
        let mut dist = vec![usize::MAX; t.nodes().len()];
        let mut q = VecDeque::new();
        dist[to.0] = 0;
        q.push_back(to);
        while let Some(u) = q.pop_front() {
            for &(v, _) in t.neighbors(u) {
                if dist[v.0] == usize::MAX {
                    dist[v.0] = dist[u.0] + 1;
                    q.push_back(v);
                }
            }
        }
        let mut out = Vec::new();
        let mut stack = vec![from];
        oracle_dfs(t, from, to, &dist, &mut stack, &mut out, limit);
        out
    }

    fn oracle_dfs(
        t: &Topology,
        u: NodeId,
        to: NodeId,
        dist: &[usize],
        stack: &mut Vec<NodeId>,
        out: &mut Vec<Vec<NodeId>>,
        limit: usize,
    ) {
        if out.len() >= limit {
            return;
        }
        if u == to {
            out.push(stack.clone());
            return;
        }
        for &(v, _) in t.neighbors(u) {
            if dist[v.0] + 1 == dist[u.0] {
                stack.push(v);
                oracle_dfs(t, v, to, dist, stack, out, limit);
                stack.pop();
                if out.len() >= limit {
                    return;
                }
            }
        }
    }

    /// Compares one pair at every limit through a shared scratch.
    fn agrees(
        t: &Topology,
        scratch: &mut RouteScratch,
        from: NodeId,
        to: NodeId,
    ) -> std::result::Result<(), String> {
        for limit in LIMITS {
            let got = t.ecmp_paths_with(scratch, from, to, limit);
            let want = oracle(t, from, to, limit);
            if got != want {
                return Err(format!(
                    "{} -> {} limit {limit}: got {got:?}, oracle {want:?}",
                    from.0, to.0
                ));
            }
        }
        Ok(())
    }

    /// A multigraph of `n` switches over the given endpoint pairs (taken
    /// modulo `n`; self-loops are dropped, repeats become parallel links).
    fn multigraph(n: usize, edges: &[(usize, usize)]) -> Topology {
        let mut t = Topology::new();
        let ids: Vec<NodeId> = (0..n).map(|i| t.add_switch(format!("s{i}"), 0)).collect();
        for &(a, b) in edges {
            let (a, b) = (ids[a % n], ids[b % n]);
            if a != b {
                t.add_link(a, b, Gbps::new(1.0)).unwrap();
            }
        }
        t
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Random multigraphs, parallel links and disconnected parts
        /// included: every ordered pair (`from == to` and unreachable
        /// pairs among them) matches the oracle at every limit.
        #[test]
        fn random_multigraphs_match_the_oracle(
            n in 2usize..20,
            edges in prop::collection::vec((0usize..20, 0usize..20), 0..40),
        ) {
            let t = multigraph(n, &edges);
            let mut scratch = RouteScratch::new();
            for a in 0..n {
                for b in 0..n {
                    agrees(&t, &mut scratch, NodeId(a), NodeId(b))?;
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Sampled node pairs on every fabric builder and the ISP
        /// backbone.
        #[test]
        fn built_fabrics_match_the_oracle(
            picks in prop::collection::vec((0usize..1 << 20, 0usize..1 << 20), 8..9),
        ) {
            let c = Gbps::new(100.0);
            let fabrics = [
                fat_tree_pods_spine(2, 4, 2, c).unwrap(),
                three_tier_fat_tree(8, c).unwrap(),
                fat_tree_pods(3, 4, c).unwrap(),
                leaf_spine(4, 3, 5, c).unwrap(),
                rail_optimized(8, 2, 4, c).unwrap(),
                abilene(c),
            ];
            let mut scratch = RouteScratch::new();
            for t in &fabrics {
                let n = t.nodes().len();
                for &(a, b) in &picks {
                    agrees(t, &mut scratch, NodeId(a % n), NodeId(b % n))?;
                }
            }
        }
    }

    #[test]
    fn generation_wrap_clears_stale_labels() {
        let t = three_tier_fat_tree(4, Gbps::new(1.0)).unwrap();
        let hosts = t.hosts();
        let mut scratch = RouteScratch::new();
        // Leave labels stamped with the first generations, then run
        // searches across the wrap back to those generations.
        for i in 0..6 {
            agrees(&t, &mut scratch, hosts[i], hosts[i + 1]).unwrap();
        }
        scratch.generation = u32::MAX - 2;
        for i in 0..6 {
            let (a, b) = (hosts[i], hosts[hosts.len() - 1 - i]);
            agrees(&t, &mut scratch, a, b).unwrap();
        }
        assert!(scratch.generation < 64, "the generation wrapped");
    }

    #[test]
    fn scratch_reused_across_topologies() {
        let small = leaf_spine(2, 2, 2, Gbps::new(1.0)).unwrap();
        let big = three_tier_fat_tree(8, Gbps::new(1.0)).unwrap();
        let mut scratch = RouteScratch::new();
        for t in [&small, &big, &small] {
            let hosts = t.hosts();
            agrees(t, &mut scratch, hosts[0], hosts[hosts.len() - 1]).unwrap();
        }
    }

    #[test]
    fn unknown_nodes_have_no_paths() {
        let t = leaf_spine(2, 2, 2, Gbps::new(1.0)).unwrap();
        let mut scratch = RouteScratch::new();
        let far = NodeId(t.nodes().len());
        assert!(t
            .ecmp_paths_with(&mut scratch, far, NodeId(0), 4)
            .is_empty());
        assert!(t
            .ecmp_paths_with(&mut scratch, NodeId(0), far, 4)
            .is_empty());
        assert_eq!(scratch.nodes_labeled(), 0);
    }

    #[test]
    fn cross_plane_search_labels_a_small_fraction() {
        let t = fat_tree_pods_spine(15, 16, 4, Gbps::new(400.0)).unwrap();
        let hosts = t.hosts();
        let mut scratch = RouteScratch::new();
        let paths = t.ecmp_paths_with(&mut scratch, hosts[0], hosts[hosts.len() - 1], 16);
        assert_eq!(paths.len(), 16);
        assert!(
            paths.iter().all(|p| p.len() == 9),
            "host-edge-agg-core-spine and back"
        );
        let labeled = scratch.nodes_labeled();
        assert!(
            labeled * 20 < t.nodes().len() as u64,
            "{labeled} of {} nodes labelled",
            t.nodes().len()
        );
    }

    #[test]
    fn link_between_is_the_lowest_id_parallel_link() {
        let mut t = Topology::new();
        let a = t.add_switch("a", 0);
        let b = t.add_switch("b", 0);
        let c = t.add_switch("c", 0);
        let cap = Gbps::new(1.0);
        t.add_link(a, c, cap).unwrap();
        let first = t.add_link(b, a, cap).unwrap();
        t.add_link(a, b, cap).unwrap();
        t.add_link(a, c, cap).unwrap();
        assert_eq!(t.link_between(a, b), Some(first));
        assert_eq!(t.link_between(b, a), Some(first));
        assert_eq!(t.link_between(b, c), None);
        assert_eq!(t.link_between(a, NodeId(9)), None);
    }
}
