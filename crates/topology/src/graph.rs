//! Explicit topology graphs: nodes, links, BFS routing. ECMP enumeration
//! lives in [`crate::route`].
//!
//! The analytic model in [`crate::fattree`] answers "how much hardware";
//! this module answers "which boxes and which wires", which the simulator
//! and the §4 mechanism evaluations need. The representation is a simple
//! undirected multigraph with typed nodes.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

use npp_units::Gbps;

use crate::{Result, TopologyError};

/// Identifier of a node in a [`Topology`] (index into the node table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

/// Identifier of a link in a [`Topology`] (index into the link table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub usize);

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// An endpoint (GPU/NIC in the ML cluster, PoP router client side in
    /// the ISP scenario).
    Host,
    /// A switch at the given tier (0 = edge/ToR, 1 = aggregation,
    /// 2 = core, …).
    Switch {
        /// Tier within the fabric; 0 is closest to hosts.
        tier: u8,
    },
}

impl NodeKind {
    /// Whether the node is a switch.
    pub fn is_switch(self) -> bool {
        matches!(self, NodeKind::Switch { .. })
    }
}

/// A node of the topology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// The node's id (equals its index).
    pub id: NodeId,
    /// Host or switch (+tier).
    pub kind: NodeKind,
    /// Human-readable name ("pod0/edge1", "host42").
    pub name: String,
}

/// An undirected link between two nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// The link's id (equals its index).
    pub id: LinkId,
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Link capacity.
    pub capacity: Gbps,
}

impl Link {
    /// The endpoint opposite to `n`, if `n` is an endpoint of this link.
    pub fn other(&self, n: NodeId) -> Option<NodeId> {
        if n == self.a {
            Some(self.b)
        } else if n == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

/// An undirected multigraph of hosts, switches, and capacitated links.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// adjacency\[node\] = list of (neighbor, link).
    adj: Vec<Vec<(NodeId, LinkId)>>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a host node and returns its id.
    pub fn add_host(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Host, name)
    }

    /// Adds a switch node at the given tier and returns its id.
    pub fn add_switch(&mut self, name: impl Into<String>, tier: u8) -> NodeId {
        self.add_node(NodeKind::Switch { tier }, name)
    }

    fn add_node(&mut self, kind: NodeKind, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            id,
            kind,
            name: name.into(),
        });
        self.adj.push(Vec::new());
        id
    }

    /// Adds an undirected link of the given capacity.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownNode`] if either endpoint does not
    /// exist, and [`TopologyError::Build`] for self-loops.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, capacity: Gbps) -> Result<LinkId> {
        if a.0 >= self.nodes.len() {
            return Err(TopologyError::UnknownNode(a.0));
        }
        if b.0 >= self.nodes.len() {
            return Err(TopologyError::UnknownNode(b.0));
        }
        if a == b {
            return Err(TopologyError::Build(format!("self-loop on node {}", a.0)));
        }
        let id = LinkId(self.links.len());
        self.links.push(Link { id, a, b, capacity });
        self.adj[a.0].push((b, id));
        self.adj[b.0].push((a, id));
        Ok(id)
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Looks up a node.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.0)
    }

    /// Looks up a link.
    pub fn link(&self, id: LinkId) -> Option<&Link> {
        self.links.get(id.0)
    }

    /// Ids of all host nodes.
    pub fn hosts(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Host)
            .map(|n| n.id)
            .collect()
    }

    /// Ids of all switch nodes (any tier).
    pub fn switches(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind.is_switch())
            .map(|n| n.id)
            .collect()
    }

    /// Ids of switches at one tier.
    pub fn switches_at_tier(&self, tier: u8) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Switch { tier })
            .map(|n| n.id)
            .collect()
    }

    /// Links with both endpoints being switches (these carry the optical
    /// transceivers in the paper's power model).
    pub fn inter_switch_links(&self) -> Vec<LinkId> {
        self.links
            .iter()
            .filter(|l| self.nodes[l.a.0].kind.is_switch() && self.nodes[l.b.0].kind.is_switch())
            .map(|l| l.id)
            .collect()
    }

    /// Neighbors of a node as (neighbor, link) pairs, in link-id order
    /// (an unknown node has none).
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, LinkId)] {
        self.adj.get(n.0).map_or(&[], Vec::as_slice)
    }

    /// Degree (number of incident links) of a node.
    pub fn degree(&self, n: NodeId) -> usize {
        self.neighbors(n).len()
    }

    /// BFS shortest path (in hops) from `from` to `to`, inclusive of both
    /// endpoints. Returns `None` if unreachable.
    pub fn shortest_path(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        if from == to {
            return Some(vec![from]);
        }
        let mut prev: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        let mut seen = vec![false; self.nodes.len()];
        let mut q = VecDeque::new();
        seen[from.0] = true;
        q.push_back(from);
        while let Some(u) = q.pop_front() {
            for &(v, _) in &self.adj[u.0] {
                if !seen[v.0] {
                    seen[v.0] = true;
                    prev[v.0] = Some(u);
                    if v == to {
                        let mut path = vec![to];
                        let mut cur = to;
                        while let Some(p) = prev[cur.0] {
                            path.push(p);
                            cur = p;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    q.push_back(v);
                }
            }
        }
        None
    }

    /// Hop distance between two nodes, if connected.
    pub fn distance(&self, from: NodeId, to: NodeId) -> Option<usize> {
        self.shortest_path(from, to).map(|p| p.len() - 1)
    }

    /// Checks that no switch exceeds the given radix and every host has
    /// exactly one link.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::Build`] describing the first violation.
    pub fn validate(&self, radix: usize) -> Result<()> {
        for n in &self.nodes {
            let d = self.degree(n.id);
            match n.kind {
                NodeKind::Switch { .. } if d > radix => {
                    return Err(TopologyError::Build(format!(
                        "switch {} has degree {d} > radix {radix}",
                        n.name
                    )));
                }
                NodeKind::Host if d != 1 => {
                    return Err(TopologyError::Build(format!(
                        "host {} has degree {d}, expected 1",
                        n.name
                    )));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Total capacity of all links.
    pub fn total_capacity(&self) -> Gbps {
        self.links.iter().map(|l| l.capacity).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// host0 - sw0 - sw1 - host1, plus a parallel path sw0 - sw2 - sw1.
    fn diamond() -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let h0 = t.add_host("h0");
        let h1 = t.add_host("h1");
        let s0 = t.add_switch("s0", 0);
        let s1 = t.add_switch("s1", 0);
        let s2 = t.add_switch("s2", 1);
        let s3 = t.add_switch("s3", 1);
        let c = Gbps::new(100.0);
        t.add_link(h0, s0, c).unwrap();
        t.add_link(h1, s1, c).unwrap();
        t.add_link(s0, s2, c).unwrap();
        t.add_link(s2, s1, c).unwrap();
        t.add_link(s0, s3, c).unwrap();
        t.add_link(s3, s1, c).unwrap();
        (t, h0, h1)
    }

    #[test]
    fn build_and_count() {
        let (t, _, _) = diamond();
        assert_eq!(t.nodes().len(), 6);
        assert_eq!(t.links().len(), 6);
        assert_eq!(t.hosts().len(), 2);
        assert_eq!(t.switches().len(), 4);
        assert_eq!(t.switches_at_tier(1).len(), 2);
        assert_eq!(t.inter_switch_links().len(), 4);
        assert_eq!(t.total_capacity(), Gbps::new(600.0));
    }

    #[test]
    fn shortest_path_and_distance() {
        let (t, h0, h1) = diamond();
        let p = t.shortest_path(h0, h1).unwrap();
        assert_eq!(p.len(), 5); // h0, s0, s2|s3, s1, h1
        assert_eq!(p[0], h0);
        assert_eq!(*p.last().unwrap(), h1);
        assert_eq!(t.distance(h0, h1), Some(4));
        assert_eq!(t.distance(h0, h0), Some(0));
    }

    #[test]
    fn ecmp_finds_both_paths() {
        let (t, h0, h1) = diamond();
        let paths = t.ecmp_paths(h0, h1, 10);
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert_eq!(p.len(), 5);
        }
        // The two paths differ in the middle switch.
        assert_ne!(paths[0][2], paths[1][2]);
        // Limit is respected.
        assert_eq!(t.ecmp_paths(h0, h1, 1).len(), 1);
    }

    #[test]
    fn unreachable_nodes() {
        let mut t = Topology::new();
        let a = t.add_host("a");
        let b = t.add_host("b");
        assert_eq!(t.shortest_path(a, b), None);
        assert!(t.ecmp_paths(a, b, 4).is_empty());
    }

    #[test]
    fn link_errors() {
        let mut t = Topology::new();
        let a = t.add_host("a");
        assert!(t.add_link(a, a, Gbps::new(1.0)).is_err());
        assert!(t.add_link(a, NodeId(99), Gbps::new(1.0)).is_err());
        assert!(t.add_link(NodeId(99), a, Gbps::new(1.0)).is_err());
    }

    #[test]
    fn validate_degrees() {
        let (t, _, _) = diamond();
        assert!(t.validate(3).is_ok());
        assert!(t.validate(2).is_err()); // s0 and s1 have degree 3
        let mut t2 = Topology::new();
        let h = t2.add_host("h");
        let s = t2.add_switch("s", 0);
        t2.add_link(h, s, Gbps::new(1.0)).unwrap();
        t2.add_link(h, s, Gbps::new(1.0)).unwrap(); // host with degree 2
        assert!(t2.validate(8).is_err());
    }

    #[test]
    fn link_other_endpoint() {
        let (t, h0, _) = diamond();
        let l = &t.links()[0];
        assert_eq!(l.other(h0), Some(l.b));
        assert_eq!(l.other(l.b), Some(h0));
        assert_eq!(l.other(NodeId(42)), None);
    }
}
