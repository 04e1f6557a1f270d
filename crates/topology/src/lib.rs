//! # npp-topology
//!
//! Data-center and backbone network topology models for the `netpp`
//! workspace.
//!
//! Two complementary views are provided:
//!
//! 1. **Analytic sizing** ([`fattree`]): the paper's §2.4 model — given a
//!    host count and a switch radix, how many switches and inter-switch
//!    links does a fat tree need? Uses the closed-form fat-tree formulas
//!    (`hosts = 2·(k/2)ⁿ`, `switches = (2n−1)·(k/2)ⁿ⁻¹`) and the paper's
//!    "interpolate between stages" rule, realized as a *fractional stage
//!    count*. This model reproduces every cell of the paper's Table 3.
//! 2. **Explicit graphs** ([`graph`], [`builder`]): concrete node/link
//!    topologies (k-ary fat trees, leaf–spine with oversubscription, ISP
//!    backbones) used by the discrete-event simulator and the §4 mechanism
//!    evaluations, with BFS routing, ECMP path enumeration, and
//!    max-flow-based bisection bandwidth ([`bisection`]).
//!
//! [`ocs`] models optical circuit switches for the §4.2 topology
//! reconfiguration proposal, and [`isp`] provides a small backbone topology
//! for the §3.4 ISP discussion.
//!
//! ```
//! use npp_topology::FatTreeModel;
//!
//! // The paper's baseline fabric: 15,360 hosts on 128-port switches.
//! let tree = FatTreeModel::new(128).unwrap();
//! let size = tree.size_for_hosts(15_360.0).unwrap();
//! assert!((size.switches - 396.3).abs() < 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bisection;
pub mod builder;
pub mod fattree;
pub mod graph;
pub mod isp;
pub mod loads;
pub mod ocs;
pub mod route;

pub use fattree::{FatTreeModel, FatTreeSize, InterpMode};
pub use graph::{LinkId, NodeId, NodeKind, Topology};
pub use route::RouteScratch;

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyError {
    /// Switch radix must be an even integer ≥ 2.
    InvalidRadix(usize),
    /// Host count must be positive.
    InvalidHostCount(f64),
    /// A node id did not exist in the topology.
    UnknownNode(usize),
    /// A circuit mapping was not a valid partial permutation.
    InvalidCircuit(String),
    /// A structural invariant was violated while building a topology.
    Build(String),
}

impl core::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TopologyError::InvalidRadix(k) => {
                write!(f, "switch radix {k} must be an even integer >= 2")
            }
            TopologyError::InvalidHostCount(h) => write!(f, "invalid host count {h}"),
            TopologyError::UnknownNode(id) => write!(f, "unknown node id {id}"),
            TopologyError::InvalidCircuit(msg) => write!(f, "invalid circuit mapping: {msg}"),
            TopologyError::Build(msg) => write!(f, "topology build error: {msg}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, TopologyError>;
