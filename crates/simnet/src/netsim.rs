//! Flow-level network simulation with max-min fair sharing.
//!
//! A [`NetSim`] runs bulk flows over an explicit `npp-topology` graph:
//! each flow follows one path, links are full-duplex (capacity per
//! direction), and at every event (flow injection or completion) the
//! rates are recomputed by progressive filling — the classic max-min
//! fair-share fluid model. Between events all rates are constant, so
//! completions are computed exactly rather than time-stepped.
//!
//! This gives the §4 fabric-level experiments a middle ground between
//! the per-packet pipeline simulator (too slow for thousands of links)
//! and the purely analytic phase model (blind to path sharing): it
//! resolves *which links are busy when*, which is what link-level energy
//! mechanisms act on. The unit tests validate it against the analytic
//! collective cost models in `npp-workload`.
//!
//! # The indexed fast path
//!
//! The simulator is built for fabric-scale sweeps, so the event loop is
//! indexed and allocation-free in steady state:
//!
//! - links and flows carry dense `u32` ids; a directed link is
//!   `link_id * 2 + direction`, so per-directed-link state lives in
//!   plain arrays instead of `HashMap<DirLink, f64>`;
//! - flow→link paths are stored in one CSR arena
//!   ([`EngineCore::path_links`] + offsets) filled at injection time
//!   (ECMP resolution is memoised per `(src, dst)` pair, so million-flow
//!   workloads that reuse routes pay one bidirectional search per pair,
//!   not per flow, into labels reused across pairs),
//!   and a link→flow CSR is (re)built by counting sort before the event
//!   loop starts, so the waterfill never scans `path.contains`;
//! - the run loop owns a scratch arena (capacities, crossing counts,
//!   dirty marks, work queues) that is sized once and reused by every
//!   event, so the steady-state loop performs zero heap allocations;
//! - an event only recomputes the rates of the flows it can actually
//!   affect: the dirty set is closed over the flow-sharing graph
//!   (flows sharing a directed link share a bottleneck cascade), and
//!   untouched sharing components keep their — still exact — rates.
//!
//! # The parallel runtime
//!
//! [`NetSim::run_threads`] parallelizes the engine per fluid epoch (see
//! `netsim_par`): a coordinator runs the same event loop as
//! [`NetSim::run`] over the one shared `EngineCore`, but each epoch's
//! rate recompute
//! is decomposed — first by link-sharing component (tracked by the
//! persistent [`crate::comp_index::CompIndex`], with epoch work
//! stealing rebalancing skewed component histograms), then *within* a
//! component by splitting the residual waterfill into independent
//! bottleneck subproblems — and fanned out to scoped worker threads
//! that return rate vectors only. Rates, completion times, and
//! per-link statistics are `to_bits`-identical to the serial engine
//! for any thread count.
//!
//! Correctness is anchored by a naive progressive-filling oracle
//! (`O(flows² · links)`, the pre-optimization algorithm) that runs after
//! every recompute in test/debug builds — in the serial loop *and*
//! inside every parallel shard — and asserts the rate vectors are
//! **bit-identical**. [`crate::netsim_naive::NaiveNetSim`] preserves
//! the full pre-optimization engine for benchmarks and differential
//! tests.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use npp_topology::graph::{LinkId, NodeId, Topology};
use npp_topology::RouteScratch;
use serde::Serialize;

use crate::comp_index::CompIndex;
use crate::{Result, SimError, SimTime};

/// Identifier of a flow within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub usize);

#[derive(Debug, Clone)]
pub(crate) struct Flow {
    pub(crate) bytes_remaining: f64,
    pub(crate) injected: SimTime,
    pub(crate) finished: Option<SimTime>,
    pub(crate) rate_gbps: f64,
    /// Scheduled but not yet released into the fluid system.
    pub(crate) pending: bool,
    /// Released and not yet finished.
    pub(crate) active: bool,
}

/// Statistics for one completed or running flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowStatus {
    /// When the flow was injected.
    pub injected: SimTime,
    /// Completion time, if finished.
    pub finished: Option<SimTime>,
    /// Bytes still to transfer.
    pub bytes_remaining: f64,
    /// Current rate (Gbps).
    pub rate: f64,
}

/// Reusable working memory for the event loop: sized once per run,
/// then reused by every recompute so the steady state allocates nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scratch {
    /// Remaining capacity per directed link (valid only for `touched`).
    cap: Vec<f64>,
    /// Unassigned-flow crossing count per directed link (zero outside a
    /// recompute).
    crossing: Vec<u32>,
    /// Directed links touched by the current recompute set.
    touched: Vec<u32>,
    /// Membership flag: flow is in the current recompute set.
    in_set: Vec<bool>,
    /// Flow already fixed at its bottleneck share this recompute.
    assigned: Vec<bool>,
    /// Directed link already expanded by the dirty-closure walk.
    link_seen: Vec<bool>,
    /// Directed links marked by the closure walk (for mark clearing).
    links_marked: Vec<u32>,
    /// Flow already visited by the dirty-closure walk.
    flow_seen: Vec<bool>,
    /// Flows visited by the closure walk (for mark clearing).
    flows_marked: Vec<u32>,
    /// Closure worklist.
    queue: Vec<u32>,
    /// Active flows whose rates the current event may change.
    set: Vec<u32>,
    /// Flows changed by the last event (released or completed): the
    /// seeds of the next dirty closure.
    pub(crate) seeds: Vec<u32>,
}

/// Per-worker work counters from one parallel run
/// ([`NetSim::run_threads`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct WorkerMetrics {
    /// Link-sharing components owned by this worker.
    pub components: usize,
    /// Flows owned by this worker.
    pub flows: usize,
    /// Dirty-closure + waterfill recomputations performed.
    pub recomputes: u64,
    /// Total bottleneck-fixing iterations across all recomputes.
    pub fixing_iterations: u64,
    /// Largest dirty set (flows re-rated by one event).
    pub dirty_set_max: usize,
    /// Scratch-arena high-water mark: most directed links touched by one
    /// waterfill.
    pub touched_links_max: usize,
}

/// Parallel-run statistics recorded by `netsim_par` on the owning
/// [`NetSim`]; folded into [`EngineMetrics`].
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ParMetrics {
    pub(crate) threads: usize,
    pub(crate) merge_wait_ns: u64,
    pub(crate) steal_events: u64,
    pub(crate) stolen_components: u64,
    pub(crate) subproblems: u64,
    pub(crate) workers: Vec<WorkerMetrics>,
}

/// Work-stealing policy of the parallel runtime (see `netsim_par`):
/// whether idle workers may claim whole components from loaded workers
/// at epoch boundaries. Ownership moves are always a pure function of
/// the epoch's dirty-flow distribution — never of wall-clock timing —
/// so every mode yields bit-identical simulation results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StealMode {
    /// Steal when the deterministic skew trigger fires (default): an
    /// idle worker exists while the most-loaded worker holds at least
    /// two dirty components and enough dirty flows to matter.
    #[default]
    Auto,
    /// Steal whenever an idle worker and a donor with a spare dirty
    /// component exist, regardless of load (tests force migration).
    Always,
    /// Never move ownership after the initial greedy assignment.
    Never,
}

/// Engine-internal counters exposed for benchmarks and `netpp profile`:
/// how much work the indexed fast path actually did.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct EngineMetrics {
    /// Fluid events (rate epochs) processed.
    pub events: u64,
    /// Largest number of simultaneously live flows.
    pub peak_live_flows: usize,
    /// Dirty-closure + waterfill recomputations performed (summed over
    /// workers for parallel runs).
    pub recomputes: u64,
    /// Total bottleneck-fixing iterations across all recomputes.
    pub fixing_iterations: u64,
    /// Largest dirty set (flows re-rated by one event).
    pub dirty_set_max: usize,
    /// Scratch-arena high-water mark: most directed links touched by one
    /// waterfill.
    pub touched_links_max: usize,
    /// Worker threads used by the last run (1 = serial engine).
    pub threads: usize,
    /// Link-sharing components over unfinished flows, from the
    /// persistent component index at the last run preparation or mid-run
    /// rebuild — populated by serial *and* parallel runs, so scaling
    /// rows are comparable against the 1-thread baseline.
    pub components: usize,
    /// Power-of-two histogram of flows per component: bucket `i` counts
    /// components with `2^i ≤ flows < 2^(i+1)` (serial and parallel).
    pub component_flows_hist: Vec<u64>,
    /// From-scratch rebuilds of the persistent component index (the
    /// departure-threshold escape hatch).
    pub index_rebuilds: u64,
    /// Incremental arrival-time union operations absorbed by the
    /// persistent component index.
    pub index_incremental_ops: u64,
    /// Epochs in which the deterministic skew trigger migrated at least
    /// one component between workers (parallel runs only).
    pub steal_events: u64,
    /// Components migrated by epoch work stealing (parallel runs only).
    pub stolen_components: u64,
    /// Independent waterfill subproblems executed by the
    /// within-component splitter (parallel runs only; the serial fixing
    /// loop never splits).
    pub subproblems: u64,
    /// Wall nanoseconds the parallel coordinator spent blocked waiting
    /// for worker replies (volatile profiling data, never simulation
    /// state).
    pub merge_wait_ns: u64,
    /// Per-worker counters for the last parallel run (empty for serial).
    pub workers: Vec<WorkerMetrics>,
    /// Route-cache misses in [`NetSim::inject`]: distinct `(src, dst)`
    /// pairs whose ECMP paths were searched.
    pub route_pairs: u64,
    /// Nodes labelled by those route searches, summed (a deterministic
    /// measure of route-resolution work).
    pub route_nodes_labeled: u64,
}

/// Row `i` of a CSR layout: `data[offsets[i]..offsets[i + 1]]`.
///
/// Well-formed CSR offsets are monotone and end at `data.len()`, so
/// the checked accesses here *state* the invariant instead of guarding
/// against it: a malformed build fails with the named invariant rather
/// than a bare out-of-bounds index. Taking the two slices separately
/// keeps the borrows field-disjoint, so callers can hold `&mut` scratch
/// while walking a row.
#[inline]
pub(crate) fn csr_row<'a, T>(offsets: &[usize], data: &'a [T], i: usize) -> &'a [T] {
    let lo = *offsets.get(i).expect("CSR offsets cover every row");
    let hi = *offsets.get(i + 1).expect("CSR offsets cover every row");
    data.get(lo..hi)
        .expect("CSR offsets are monotone and end at data.len()")
}

/// The per-run engine state shared by the serial event loop and the
/// parallel shards: dense per-flow and per-directed-link arrays, the
/// CSR adjacencies, the scratch arena, and the indexed waterfill.
///
/// A shard (see `netsim_par`) is simply an `EngineCore` holding a
/// subset of the flows (local dense ids, ascending in global id) while
/// keeping **global** directed-link ids — link-disjointness of
/// components means per-link arrays never conflict, and global link ids
/// keep the bottleneck tie-break bit-identical to the serial engine.
#[derive(Debug, Clone)]
pub(crate) struct EngineCore {
    /// Capacity (Gbps) per directed link; both directions of a link
    /// share the link's capacity value.
    pub(crate) link_caps: Vec<f64>,
    pub(crate) flows: Vec<Flow>,
    /// CSR flow→directed-link adjacency: `path_links[path_offsets[i]..
    /// path_offsets[i + 1]]` is flow `i`'s path, filled at injection.
    pub(crate) path_offsets: Vec<usize>,
    pub(crate) path_links: Vec<u32>,
    /// CSR directed-link→flow adjacency, rebuilt (counting sort) when
    /// flows were injected since the last build. Rows list flows in
    /// ascending id order, which the waterfill relies on.
    lf_offsets: Vec<usize>,
    lf_flows: Vec<u32>,
    lf_flows_built: usize,
    /// Released, unfinished flows, ascending by id.
    pub(crate) active: Vec<u32>,
    /// Per-directed-link busy time accumulated, in seconds.
    pub(crate) busy_secs: Vec<f64>,
    /// Per-link bytes carried (both directions).
    pub(crate) carried: Vec<f64>,
    pub(crate) recomputes: u64,
    pub(crate) fixing_iterations: u64,
    pub(crate) dirty_set_max: usize,
    pub(crate) touched_links_max: usize,
    pub(crate) scratch: Scratch,
}

/// Directed-link id of `link` traversed forward (`a → b`) or backward.
fn dirlink(link: LinkId, forward: bool) -> u32 {
    (link.0 * 2 + usize::from(forward)) as u32
}

/// ECMP paths enumerated per `(src, dst)` pair; [`NetSim::inject`]'s
/// `path_choice` picks among them.
const ECMP_WIDTH: usize = 16;

fn no_path(src: NodeId, dst: NodeId) -> SimError {
    SimError::Config(format!("no path from node {} to node {}", src.0, dst.0))
}

/// Resolves the ECMP node paths from `src` to `dst` to directed-link
/// ids. Each hop takes the lowest-id link between its endpoints — the
/// first entry of the near end's adjacency whose peer is the far end —
/// so paths that differ only in a parallel link resolve alike.
fn resolve_dirlinks(
    topo: &Topology,
    paths: &[Vec<NodeId>],
    src: NodeId,
    dst: NodeId,
) -> Result<Vec<Vec<u32>>> {
    if paths.is_empty() {
        return Err(no_path(src, dst));
    }
    // Sized exactly: the route cache keeps these for the simulator's life.
    let mut resolved = Vec::with_capacity(paths.len());
    for nodes in paths {
        let mut dls = Vec::with_capacity(nodes.len().saturating_sub(1));
        for (&a, &b) in nodes.iter().zip(nodes.iter().skip(1)) {
            let link = topo
                .link_between(a, b)
                .and_then(|id| topo.link(id))
                .ok_or_else(|| {
                    SimError::Config(format!(
                        "ECMP hop from node {} to node {} has no link",
                        a.0, b.0
                    ))
                })?;
            dls.push(dirlink(link.id, link.a == a));
        }
        resolved.push(dls);
    }
    Ok(resolved)
}

impl EngineCore {
    /// An empty core over `link_caps` (one capacity per directed link).
    pub(crate) fn new(link_caps: Vec<f64>) -> Self {
        let n_dl = link_caps.len();
        Self {
            link_caps,
            flows: Vec::new(),
            path_offsets: vec![0],
            path_links: Vec::new(),
            lf_offsets: Vec::new(),
            lf_flows: Vec::new(),
            lf_flows_built: 0,
            active: Vec::new(),
            busy_secs: vec![0.0; n_dl],
            carried: vec![0.0; n_dl / 2],
            recomputes: 0,
            fixing_iterations: 0,
            dirty_set_max: 0,
            touched_links_max: 0,
            scratch: Scratch::default(),
        }
    }

    /// Flow `i`'s path as a slice of directed-link ids.
    pub(crate) fn path(&self, i: usize) -> &[u32] {
        csr_row(&self.path_offsets, &self.path_links, i)
    }

    /// Rebuilds the link→flow CSR if flows were injected since the last
    /// build. Counting sort over the flow→link CSR keeps each row in
    /// ascending flow-id order; the buffers are reused across rebuilds.
    pub(crate) fn ensure_link_flow_csr(&mut self) {
        if self.lf_flows_built == self.flows.len() {
            return;
        }
        let n = self.link_caps.len();
        self.lf_offsets.clear();
        self.lf_offsets.resize(n + 1, 0);
        for &dl in &self.path_links {
            self.lf_offsets[dl as usize + 1] += 1;
        }
        for d in 0..n {
            self.lf_offsets[d + 1] += self.lf_offsets[d];
        }
        self.lf_flows.clear();
        self.lf_flows.resize(self.path_links.len(), 0);
        // Per-link write cursors; `scratch.crossing` is idle between
        // recomputes and has exactly the right shape.
        let cursor = &mut self.scratch.crossing;
        cursor.clear();
        cursor.resize(n, 0);
        for i in 0..self.flows.len() {
            for &dl in csr_row(&self.path_offsets, &self.path_links, i) {
                let d = dl as usize;
                self.lf_flows[self.lf_offsets[d] + cursor[d] as usize] = i as u32;
                cursor[d] += 1;
            }
        }
        for c in cursor.iter_mut() {
            *c = 0;
        }
        self.lf_flows_built = self.flows.len();
    }

    /// Sizes the scratch arena for the current flow/link population so
    /// the event loop never grows a buffer mid-run.
    pub(crate) fn ensure_scratch_sized(&mut self) {
        let n_dl = self.link_caps.len();
        let n_fl = self.flows.len();
        let s = &mut self.scratch;
        s.cap.resize(n_dl, 0.0);
        s.crossing.resize(n_dl, 0);
        s.link_seen.resize(n_dl, false);
        s.in_set.resize(n_fl, false);
        s.assigned.resize(n_fl, false);
        s.flow_seen.resize(n_fl, false);
        s.touched.reserve(self.path_links.len());
        s.links_marked.reserve(n_dl);
        s.queue.reserve(n_fl);
        s.set.reserve(n_fl);
        s.seeds.reserve(n_fl);
        s.flows_marked.reserve(n_fl);
        self.active.reserve(n_fl);
    }

    /// Expands the seed flows (released or completed by the last event)
    /// into the set of *active* flows whose rates the event can affect:
    /// the transitive closure over shared directed links. Sharing
    /// components not reached keep their previous — still exact —
    /// max-min rates, because progressive filling decomposes over
    /// link-disjoint components.
    pub(crate) fn dirty_closure(&mut self) {
        let s = &mut self.scratch;
        s.set.clear();
        s.queue.clear();
        for i in 0..s.seeds.len() {
            let f = s.seeds[i];
            if !s.flow_seen[f as usize] {
                s.flow_seen[f as usize] = true;
                s.flows_marked.push(f);
                s.queue.push(f);
            }
        }
        while let Some(f) = s.queue.pop() {
            let fi = f as usize;
            if self.flows[fi].active {
                s.set.push(f);
            }
            for &dl in csr_row(&self.path_offsets, &self.path_links, fi) {
                let d = dl as usize;
                if s.link_seen[d] {
                    continue;
                }
                s.link_seen[d] = true;
                s.links_marked.push(dl);
                for &g in csr_row(&self.lf_offsets, &self.lf_flows, d) {
                    let gi = g as usize;
                    if self.flows[gi].active && !s.flow_seen[gi] {
                        s.flow_seen[gi] = true;
                        s.flows_marked.push(g);
                        s.queue.push(g);
                    }
                }
            }
        }
        for &dl in &s.links_marked {
            s.link_seen[dl as usize] = false;
        }
        s.links_marked.clear();
        for &f in &s.flows_marked {
            s.flow_seen[f as usize] = false;
        }
        s.flows_marked.clear();
        s.seeds.clear();
        let set_len = s.set.len();
        self.dirty_set_max = self.dirty_set_max.max(set_len);
    }

    /// Flows crossing directed link `dl`, ascending by flow id (from
    /// the link→flow CSR; `ensure_link_flow_csr` must have run).
    pub(crate) fn lf_row(&self, dl: u32) -> &[u32] {
        csr_row(&self.lf_offsets, &self.lf_flows, dl as usize)
    }

    /// Per-component variant of [`EngineCore::dirty_closure`] used by
    /// the parallel runtime: expands `seeds` into the active flows of
    /// the component identified by `root` (under `index`), writing the
    /// set into `out`.
    ///
    /// A *live* seed's path lies entirely inside one component, but a
    /// *finished* seed (a retiree freeing capacity) can span several
    /// components when the index was rebuilt after it departed — so
    /// seed links are filtered by component root, while flows reached
    /// through those links need no filter (an active flow's path was
    /// unioned whole, so all its links share the item's root).
    pub(crate) fn component_closure(
        &mut self,
        seeds: &[u32],
        root: u32,
        index: &mut CompIndex,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        let s = &mut self.scratch;
        s.queue.clear();
        for &f in seeds {
            let fi = f as usize;
            if s.flow_seen[fi] {
                continue;
            }
            s.flow_seen[fi] = true;
            s.flows_marked.push(f);
            if self.flows[fi].active {
                out.push(f);
            }
            for &dl in csr_row(&self.path_offsets, &self.path_links, fi) {
                let d = dl as usize;
                if s.link_seen[d] || index.root(dl) != root {
                    continue;
                }
                s.link_seen[d] = true;
                s.links_marked.push(dl);
                for &g in csr_row(&self.lf_offsets, &self.lf_flows, d) {
                    let gi = g as usize;
                    if self.flows[gi].active && !s.flow_seen[gi] {
                        s.flow_seen[gi] = true;
                        s.flows_marked.push(g);
                        s.queue.push(g);
                    }
                }
            }
        }
        while let Some(f) = s.queue.pop() {
            let fi = f as usize;
            out.push(f);
            for &dl in csr_row(&self.path_offsets, &self.path_links, fi) {
                let d = dl as usize;
                if s.link_seen[d] {
                    continue;
                }
                s.link_seen[d] = true;
                s.links_marked.push(dl);
                for &g in csr_row(&self.lf_offsets, &self.lf_flows, d) {
                    let gi = g as usize;
                    if self.flows[gi].active && !s.flow_seen[gi] {
                        s.flow_seen[gi] = true;
                        s.flows_marked.push(g);
                        s.queue.push(g);
                    }
                }
            }
        }
        for &dl in &s.links_marked {
            s.link_seen[dl as usize] = false;
        }
        s.links_marked.clear();
        for &f in &s.flows_marked {
            s.flow_seen[f as usize] = false;
        }
        s.flows_marked.clear();
        self.dirty_set_max = self.dirty_set_max.max(out.len());
    }

    /// Progressive-filling max-min fair allocation over `scratch.set`.
    ///
    /// Indexed waterfill: per-directed-link remaining capacity and
    /// crossing counts live in dense arrays, the bottleneck's flows come
    /// from the link→flow CSR (ascending flow id, matching the naive
    /// algorithm's fixing order bit for bit), and ties on the fair share
    /// break toward the smallest directed-link id — the same choice a
    /// deterministic scan of the naive capacity map makes.
    pub(crate) fn recompute_rates(&mut self) {
        let s = &mut self.scratch;
        debug_assert!(s.touched.is_empty());
        let mut unassigned = 0usize;
        for &f in &s.set {
            let fi = f as usize;
            self.flows[fi].rate_gbps = 0.0;
            s.in_set[fi] = true;
            s.assigned[fi] = false;
            let path = csr_row(&self.path_offsets, &self.path_links, fi);
            if !path.is_empty() {
                unassigned += 1;
            }
            for &dl in path {
                let d = dl as usize;
                if s.crossing[d] == 0 {
                    s.cap[d] = self.link_caps[d];
                    s.touched.push(dl);
                }
                s.crossing[d] += 1;
            }
        }
        let mut fixing_iterations = 0u64;
        while unassigned > 0 {
            fixing_iterations += 1;
            // Bottleneck link: smallest fair share, ties to smallest id.
            let mut best_share = f64::INFINITY;
            let mut best_dl = u32::MAX;
            let mut found = false;
            for &dl in &s.touched {
                let d = dl as usize;
                if s.crossing[d] == 0 {
                    continue;
                }
                let share = s.cap[d] / s.crossing[d] as f64;
                if !found || share < best_share || (share == best_share && dl < best_dl) {
                    found = true;
                    best_share = share;
                    best_dl = dl;
                }
            }
            if !found {
                break;
            }
            // Fix every unassigned flow crossing the bottleneck at the
            // fair share; subtract from the links on their paths.
            let row = csr_row(&self.lf_offsets, &self.lf_flows, best_dl as usize);
            for &f in row {
                let fi = f as usize;
                if !s.in_set[fi] || s.assigned[fi] {
                    continue;
                }
                s.assigned[fi] = true;
                unassigned -= 1;
                self.flows[fi].rate_gbps = best_share;
                for &dl in csr_row(&self.path_offsets, &self.path_links, fi) {
                    let d = dl as usize;
                    s.crossing[d] -= 1;
                    s.cap[d] = (s.cap[d] - best_share).max(0.0);
                }
            }
            debug_assert_eq!(s.crossing[best_dl as usize], 0);
        }
        for &dl in &s.touched {
            s.crossing[dl as usize] = 0;
        }
        let touched_len = s.touched.len();
        s.touched.clear();
        for &f in &s.set {
            s.in_set[f as usize] = false;
        }
        self.recomputes += 1;
        self.fixing_iterations += fixing_iterations;
        self.touched_links_max = self.touched_links_max.max(touched_len);
    }

    /// Full-recompute oracle: reruns the naive `O(flows² · links)`
    /// progressive filling over *all* active flows and asserts every
    /// rate — including those the dirty closure chose not to touch — is
    /// bit-identical to what the indexed engine holds. For a parallel
    /// shard this covers exactly the shard's components, which form a
    /// standalone fluid system by link-disjointness.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn assert_rates_match_naive_oracle(&self) {
        let active: Vec<usize> = self
            .flows
            .iter()
            .enumerate()
            .filter(|(_, f)| f.active)
            .map(|(i, _)| i)
            .collect();
        let mut rates = vec![0.0f64; self.flows.len()];
        let mut unassigned = active.clone();
        let mut cap: BTreeMap<u32, f64> = BTreeMap::new();
        for &i in &active {
            for &dl in self.path(i) {
                cap.entry(dl).or_insert(self.link_caps[dl as usize]);
            }
        }
        loop {
            let mut best: Option<(f64, u32)> = None;
            for (&dl, &c) in &cap {
                let crossing = unassigned
                    .iter()
                    .filter(|&&i| self.path(i).contains(&dl))
                    .count();
                if crossing == 0 {
                    continue;
                }
                let share = c / crossing as f64;
                if best.map(|(s, _)| share < s).unwrap_or(true) {
                    best = Some((share, dl));
                }
            }
            let Some((share, bottleneck)) = best else {
                break;
            };
            let fixed: Vec<usize> = unassigned
                .iter()
                .copied()
                .filter(|&i| self.path(i).contains(&bottleneck))
                .collect();
            for &i in &fixed {
                rates[i] = share;
                for &dl in self.path(i) {
                    if let Some(c) = cap.get_mut(&dl) {
                        *c = (*c - share).max(0.0);
                    }
                }
            }
            cap.remove(&bottleneck);
            unassigned.retain(|i| !fixed.contains(i));
        }
        for &i in &active {
            debug_assert_eq!(
                self.flows[i].rate_gbps.to_bits(),
                rates[i].to_bits(),
                "flow {i}: indexed rate {} diverged from naive oracle {}",
                self.flows[i].rate_gbps,
                rates[i],
            );
        }
    }

    /// Earliest completion time among active flows, given the current
    /// clock. `None` when no active flow has a positive rate.
    pub(crate) fn earliest_completion(&self, now: SimTime) -> Option<SimTime> {
        let mut earliest: Option<SimTime> = None;
        for &i in &self.active {
            let f = &self.flows[i as usize];
            if f.rate_gbps > 0.0 {
                let secs = f.bytes_remaining * 8.0 / (f.rate_gbps * 1e9);
                let t = now.plus_nanos((secs * 1e9).ceil() as u64);
                if earliest.map(|e| t < e).unwrap_or(true) {
                    earliest = Some(t);
                }
            }
        }
        earliest
    }

    /// Integrates flow progress over `[now, next]` in ascending flow-id
    /// order (float accumulation into the link stats must not depend on
    /// injection order), then retires completed flows from the active
    /// list; retirees seed the next dirty closure (their links free
    /// capacity).
    pub(crate) fn integrate(&mut self, now: SimTime, next: SimTime) {
        let dt = next.since(now) as f64 * 1e-9;
        for &i in &self.active {
            let fi = i as usize;
            let rate = self.flows[fi].rate_gbps;
            if rate > 0.0 {
                let moved = rate * 1e9 * dt / 8.0;
                let f = &mut self.flows[fi];
                f.bytes_remaining = (f.bytes_remaining - moved).max(0.0);
                let done = f.bytes_remaining <= 1e-6;
                if done {
                    f.finished = Some(next);
                    f.active = false;
                }
                for &dl in csr_row(&self.path_offsets, &self.path_links, fi) {
                    let d = dl as usize;
                    self.busy_secs[d] += dt;
                    self.carried[d / 2] += moved;
                }
            }
        }
        let (flows, scratch) = (&self.flows, &mut self.scratch);
        self.active.retain(|&i| {
            if flows[i as usize].active {
                true
            } else {
                scratch.seeds.push(i);
                false
            }
        });
    }

    /// Releases a pending flow into the fluid system; it seeds the next
    /// dirty closure. The caller re-sorts `active` once per epoch.
    pub(crate) fn release(&mut self, i: u32) {
        let f = &mut self.flows[i as usize];
        f.pending = false;
        f.active = true;
        self.active.push(i);
        self.scratch.seeds.push(i);
    }
}

/// The flow-level simulator.
#[derive(Debug, Clone)]
pub struct NetSim {
    topo: Topology,
    pub(crate) core: EngineCore,
    /// Pending injections, sorted by time (reverse for pop) once
    /// [`NetSim::prepare_run`] has run; injection only appends and
    /// clears the flag, so a million injections cost one sort.
    pub(crate) pending: Vec<(SimTime, FlowId)>,
    pub(crate) pending_sorted: bool,
    pub(crate) now: SimTime,
    pub(crate) events: u64,
    pub(crate) peak_active: usize,
    /// Memoised ECMP resolution: `(src, dst) → the up-to-16 shortest
    /// paths, already resolved to directed-link ids` in `ecmp_paths`
    /// order. Pure cache: entries are a function of the (immutable)
    /// topology only.
    route_cache: BTreeMap<(usize, usize), Vec<Vec<u32>>>,
    /// Label arrays reused by every route-cache miss (sized on first use).
    route_scratch: RouteScratch,
    /// Route-cache misses: `(src, dst)` pairs searched by `inject`.
    route_pairs: u64,
    /// Nodes labelled by those searches (see [`RouteScratch::nodes_labeled`]).
    route_nodes_labeled: u64,
    /// Statistics of the last parallel run, if any.
    pub(crate) par: Option<ParMetrics>,
    /// Persistent link-sharing component index: unions absorbed on
    /// arrival, departures counted in epoch batches, from-scratch
    /// rebuilds only past the departure threshold.
    pub(crate) index: CompIndex,
    /// Component count over unfinished flows at the last
    /// [`NetSim::prepare_run`] or mid-run index rebuild.
    pub(crate) components: usize,
    /// Flows-per-component power-of-two histogram matching `components`.
    pub(crate) comp_hist: Vec<u64>,
    /// Work-stealing policy for parallel runs.
    pub(crate) steal_mode: StealMode,
    /// Minimum dirty flows in an epoch before the parallel runtime fans
    /// the recompute out to the thread pool; lighter epochs run inline
    /// on the coordinator (still through the subproblem splitter).
    pub(crate) fanout_min: usize,
    /// Samples one in N recompute passes into the `prof.netsim.recompute_ns`
    /// histogram when telemetry recording is active (profiling data only —
    /// wall time never feeds back into simulation state).
    recompute_timer: npp_telemetry::timer::SampleTimer,
}

/// Default [`NetSim::set_parallel_fanout_min`]: below ~4k dirty flows
/// an epoch's waterfill is cheaper than eight thread spawns.
const DEFAULT_FANOUT_MIN: usize = 4096;

impl NetSim {
    /// Creates a simulator over (a clone of) the topology.
    pub fn new(topo: Topology) -> Self {
        let n_links = topo.links().len();
        let mut link_caps = vec![0.0; n_links * 2];
        for l in topo.links() {
            let c = l.capacity.value();
            link_caps[l.id.0 * 2] = c;
            link_caps[l.id.0 * 2 + 1] = c;
        }
        let n_dirlinks = link_caps.len();
        Self {
            topo,
            core: EngineCore::new(link_caps),
            pending: Vec::new(),
            pending_sorted: true,
            now: SimTime::ZERO,
            events: 0,
            peak_active: 0,
            route_cache: BTreeMap::new(),
            route_scratch: RouteScratch::new(),
            route_pairs: 0,
            route_nodes_labeled: 0,
            par: None,
            index: CompIndex::new(n_dirlinks),
            components: 0,
            comp_hist: Vec::new(),
            steal_mode: StealMode::Auto,
            fanout_min: DEFAULT_FANOUT_MIN,
            recompute_timer: npp_telemetry::timer::SampleTimer::every(64),
        }
    }

    /// Sets the work-stealing policy for subsequent parallel runs
    /// (results are bit-identical in every mode; this is a performance
    /// and test knob).
    pub fn set_steal_mode(&mut self, mode: StealMode) {
        self.steal_mode = mode;
    }

    /// Overrides the minimum per-epoch dirty-flow count at which
    /// parallel runs fan work out to the thread pool. Tests lower it to
    /// force fan-out on tiny scenarios; results are bit-identical for
    /// any value.
    pub fn set_parallel_fanout_min(&mut self, min: usize) {
        self.fanout_min = min.max(1);
    }

    /// The simulation clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of fluid events (rate epochs) processed by [`NetSim::run`].
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Largest number of simultaneously live flows seen so far.
    pub fn peak_live_flows(&self) -> usize {
        self.peak_active
    }

    /// Snapshot of the engine's internal work counters.
    pub fn engine_metrics(&self) -> EngineMetrics {
        let par = self.par.clone().unwrap_or_default();
        EngineMetrics {
            events: self.events,
            peak_live_flows: self.peak_active,
            recomputes: self.core.recomputes,
            fixing_iterations: self.core.fixing_iterations,
            dirty_set_max: self.core.dirty_set_max,
            touched_links_max: self.core.touched_links_max,
            threads: if self.par.is_some() { par.threads } else { 1 },
            components: self.components,
            component_flows_hist: self.comp_hist.clone(),
            index_rebuilds: self.index.rebuilds(),
            index_incremental_ops: self.index.incremental_ops(),
            steal_events: par.steal_events,
            stolen_components: par.stolen_components,
            subproblems: par.subproblems,
            merge_wait_ns: par.merge_wait_ns,
            workers: par.workers,
            route_pairs: self.route_pairs,
            route_nodes_labeled: self.route_nodes_labeled,
        }
    }

    /// Number of flows ever injected.
    pub fn flow_count(&self) -> usize {
        self.core.flows.len()
    }

    /// Flows scheduled but not yet released into the fluid system.
    pub fn pending_flow_count(&self) -> usize {
        self.core.flows.iter().filter(|f| f.pending).count()
    }

    /// Flows currently live (released and unfinished).
    pub fn live_flow_count(&self) -> usize {
        self.core.active.len()
    }

    /// Schedules a flow of `bytes` from `src` to `dst` at time `at`,
    /// routed on the `path_choice`-th ECMP shortest path (modulo the
    /// path count — callers can hash flows across paths).
    ///
    /// # Errors
    ///
    /// Rejects flows between unreachable nodes, empty flows, and
    /// injections in the past.
    pub fn inject(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: f64,
        path_choice: usize,
    ) -> Result<FlowId> {
        if at < self.now {
            return Err(SimError::TimeReversal {
                now_ns: self.now.as_nanos(),
                requested_ns: at.as_nanos(),
            });
        }
        if bytes <= 0.0 || !bytes.is_finite() {
            return Err(SimError::Config(format!(
                "flow size {bytes} must be positive"
            )));
        }
        let routes = match self.route_cache.entry((src.0, dst.0)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let paths =
                    self.topo
                        .ecmp_paths_with(&mut self.route_scratch, src, dst, ECMP_WIDTH);
                self.route_pairs += 1;
                self.route_nodes_labeled += self.route_scratch.nodes_labeled();
                e.insert(resolve_dirlinks(&self.topo, &paths, src, dst)?)
            }
        };
        let Some(dls) = path_choice
            .checked_rem(routes.len())
            .and_then(|i| routes.get(i))
        else {
            return Err(no_path(src, dst));
        };
        self.core.path_links.extend_from_slice(dls);
        self.core.path_offsets.push(self.core.path_links.len());
        let id = FlowId(self.core.flows.len());
        self.core.flows.push(Flow {
            bytes_remaining: bytes,
            injected: at,
            finished: None,
            rate_gbps: 0.0,
            pending: true,
            active: false,
        });
        self.pending.push((at, id));
        self.pending_sorted = false;
        Ok(id)
    }

    /// One-time run preparation: sorts the pending queue (deferred from
    /// injection — a stable sort, so simultaneous injections keep
    /// insertion order exactly as the per-inject sorts did), sizes the
    /// CSR + scratch arenas, and brings the persistent component index
    /// up to date.
    pub(crate) fn prepare_run(&mut self) {
        if !self.pending_sorted {
            self.pending.sort_by_key(|x| std::cmp::Reverse(x.0)); // reverse for pop()
            self.pending_sorted = true;
        }
        // Route labels serve injection only: free them before the run's
        // arenas reach their peak (a later inject re-grows them lazily).
        self.route_scratch = RouteScratch::new();
        self.core.ensure_link_flow_csr();
        self.core.ensure_scratch_sized();
        self.refresh_component_index();
    }

    /// Brings the persistent component index up to date — absorbs
    /// arrivals since the watermark, batches departure counts, rebuilds
    /// from live paths past the threshold — then recomputes the
    /// component count and flows-per-component histogram over
    /// *unfinished* flows. Runs for serial and parallel runs alike (so
    /// 1-thread bench rows carry comparable component stats) and again
    /// at mid-run rebuilds; returns the per-component live-flow counts
    /// keyed by component root for the parallel runtime's ownership
    /// assignment.
    pub(crate) fn refresh_component_index(&mut self) -> BTreeMap<u32, u64> {
        let core = &self.core;
        self.index
            .absorb_arrivals(core.flows.len(), |i| core.path(i));
        let finished = core.flows.iter().filter(|f| f.finished.is_some()).count();
        self.index.observe_finished(finished);
        if self.index.should_rebuild() {
            self.index.rebuild(
                core.flows
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| f.finished.is_none())
                    .map(|(i, _)| core.path(i)),
            );
        }
        let mut comp_flows: BTreeMap<u32, u64> = BTreeMap::new();
        for (i, f) in core.flows.iter().enumerate() {
            if f.finished.is_some() {
                continue;
            }
            if let Some(&first) = core.path(i).first() {
                *comp_flows.entry(self.index.root(first)).or_insert(0) += 1;
            }
        }
        self.components = comp_flows.len();
        self.comp_hist.clear();
        for &n in comp_flows.values() {
            let bucket = (63 - n.leading_zeros()) as usize;
            if self.comp_hist.len() <= bucket {
                self.comp_hist.resize(bucket + 1, 0);
            }
            self.comp_hist[bucket] += 1;
        }
        comp_flows
    }

    /// Advances the simulation until all flows complete.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors (none occur after injection in the
    /// current model); returns Ok when the fluid system drains.
    pub fn run(&mut self) -> Result<()> {
        self.prepare_run();
        npp_telemetry::trace_span!(begin "netsim.run", self.now.as_nanos());
        loop {
            if self.core.active.is_empty() && self.pending.is_empty() {
                npp_telemetry::trace_span!(end "netsim.run", self.now.as_nanos());
                self.publish_metrics();
                return Ok(());
            }
            if !self.core.scratch.seeds.is_empty() {
                let sample = self.recompute_timer.maybe_start();
                self.core.dirty_closure();
                self.core.recompute_rates();
                if let Some(stamp) = sample {
                    npp_telemetry::timer::record_sample("prof.netsim.recompute_ns", stamp);
                }
                #[cfg(any(test, debug_assertions))]
                self.core.assert_rates_match_naive_oracle();
            }

            // Earliest of: next injection, earliest completion.
            let next_injection = self.pending.last().map(|&(t, _)| t);
            let earliest_completion = self.core.earliest_completion(self.now);
            let next = match (next_injection, earliest_completion) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => {
                    // Active flows but all at zero rate: deadlock — only
                    // possible with zero-capacity links.
                    return Err(SimError::Config("active flows starved at zero rate".into()));
                }
            };

            // Integrate progress over [now, next], ascending flow id;
            // completions retire into the next closure's seeds.
            self.core.integrate(self.now, next);
            self.now = next;
            // Release injections due now.
            let mut released = false;
            while self
                .pending
                .last()
                .map(|&(t, _)| t <= self.now)
                .unwrap_or(false)
            {
                let (_, FlowId(i)) = self.pending.pop().expect("checked non-empty");
                self.core.release(i as u32);
                released = true;
            }
            if released {
                // Keep the active list ascending: integration order (and
                // thus float accumulation into the link stats) must not
                // depend on injection order.
                self.core.active.sort_unstable();
                self.peak_active = self.peak_active.max(self.core.active.len());
            }
            self.events += 1;
            npp_telemetry::trace_counter!(
                "netsim.live_flows",
                self.now.as_nanos(),
                0,
                self.core.active.len()
            );
        }
    }

    /// Advances the simulation until all flows complete, sharding the
    /// work across up to `threads` worker threads by link-sharing
    /// component (see the `netsim_par` module docs).
    ///
    /// The result — every rate, completion time, per-link statistic, the
    /// event count, and the peak-live-flow count — is `to_bits`-identical
    /// to [`NetSim::run`] for **any** thread count; `threads <= 1` simply
    /// runs the serial engine.
    ///
    /// # Errors
    ///
    /// Same as [`NetSim::run`].
    pub fn run_threads(&mut self, threads: usize) -> Result<()> {
        if threads <= 1 {
            return self.run();
        }
        crate::netsim_par::run_parallel(self, threads)
    }

    /// Publish the engine counters into the telemetry metrics registry
    /// (no-op unless a recording is active).
    pub(crate) fn publish_metrics(&self) {
        if !npp_telemetry::enabled() {
            return;
        }
        use npp_telemetry::metrics as m;
        m::counter_add("netsim.events", self.events);
        m::counter_add("netsim.recomputes", self.core.recomputes);
        m::counter_add("netsim.fixing_iterations", self.core.fixing_iterations);
        m::gauge_max("netsim.peak_live_flows", self.peak_active as f64);
        m::gauge_max("netsim.dirty_set_max", self.core.dirty_set_max as f64);
        m::gauge_max(
            "netsim.touched_links_max",
            self.core.touched_links_max as f64,
        );
        m::counter_add("netsim.index_rebuilds", self.index.rebuilds());
        m::counter_add("netsim.index_incremental_ops", self.index.incremental_ops());
        if let Some(par) = &self.par {
            m::counter_add("netsim.steal_events", par.steal_events);
            m::counter_add("netsim.stolen_components", par.stolen_components);
            m::counter_add("netsim.subproblems", par.subproblems);
        }
    }

    /// Status of a flow.
    pub fn status(&self, id: FlowId) -> Option<FlowStatus> {
        self.core.flows.get(id.0).map(|f| FlowStatus {
            injected: f.injected,
            finished: f.finished,
            bytes_remaining: f.bytes_remaining,
            rate: f.rate_gbps,
        })
    }

    /// Completion time of the last-finishing flow (makespan), if all
    /// finished.
    pub fn makespan(&self) -> Option<SimTime> {
        self.core
            .flows
            .iter()
            .map(|f| f.finished)
            .collect::<Option<Vec<_>>>()?
            .into_iter()
            .max()
    }

    /// Seconds during which a link carried traffic in *either* direction
    /// (union is approximated by the max of the two directions, exact
    /// when both directions are driven by the same collective).
    pub fn link_busy_secs(&self, link: LinkId) -> f64 {
        let fwd = self.core.busy_secs[link.0 * 2 + 1];
        let rev = self.core.busy_secs[link.0 * 2];
        fwd.max(rev)
    }

    /// Bytes carried by a link, summed over both directions.
    pub fn link_bytes(&self, link: LinkId) -> f64 {
        self.core.carried[link.0]
    }

    /// Links that never carried traffic.
    pub fn idle_links(&self) -> Vec<LinkId> {
        self.topo
            .links()
            .iter()
            .map(|l| l.id)
            .filter(|&l| self.link_bytes(l) == 0.0)
            .collect()
    }

    /// FNV-1a digest over the complete observable simulation state:
    /// per-flow injection/finish times, rate and residual-byte bits,
    /// per-directed-link busy seconds, per-link carried bytes, the
    /// clock, the event count, and the peak-live-flow count.
    ///
    /// Two runs are bit-identical iff their digests match — this is the
    /// identity gate `netpp bench-json` and CI use to compare
    /// `--threads N` against the serial engine without serialising the
    /// full state.
    pub fn state_digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(self.core.flows.len() as u64);
        for f in &self.core.flows {
            mix(f.injected.as_nanos());
            mix(f.finished.map(|t| t.as_nanos() + 1).unwrap_or(0));
            mix(f.rate_gbps.to_bits());
            mix(f.bytes_remaining.to_bits());
        }
        for &b in &self.core.busy_secs {
            mix(b.to_bits());
        }
        for &c in &self.core.carried {
            mix(c.to_bits());
        }
        mix(self.now.as_nanos());
        mix(self.events);
        mix(self.peak_active as u64);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npp_topology::builder::{leaf_spine, three_tier_fat_tree};
    use npp_units::Gbps;

    #[test]
    fn single_flow_line_rate() {
        // 2 hosts on one leaf at 100 G: 125 MB moves in 10 ms.
        let topo = leaf_spine(1, 1, 2, Gbps::new(100.0)).unwrap();
        let hosts = topo.hosts();
        let mut sim = NetSim::new(topo);
        let f = sim
            .inject(SimTime::ZERO, hosts[0], hosts[1], 125e6, 0)
            .unwrap();
        sim.run().unwrap();
        let done = sim.status(f).unwrap().finished.unwrap();
        assert_eq!(done, SimTime::from_millis(10));
    }

    #[test]
    fn two_flows_share_a_bottleneck_fairly() {
        // Two hosts on leaf0 both sending to hosts on leaf1 through a
        // single spine uplink: each gets half of the 100 G uplink.
        let topo = leaf_spine(2, 1, 2, Gbps::new(100.0)).unwrap();
        let hosts = topo.hosts();
        let mut sim = NetSim::new(topo);
        let a = sim
            .inject(SimTime::ZERO, hosts[0], hosts[2], 62.5e6, 0)
            .unwrap();
        let b = sim
            .inject(SimTime::ZERO, hosts[1], hosts[3], 62.5e6, 0)
            .unwrap();
        sim.run().unwrap();
        // 62.5 MB at 50 G = 10 ms each.
        for f in [a, b] {
            let done = sim.status(f).unwrap().finished.unwrap();
            assert_eq!(done, SimTime::from_millis(10), "flow {f:?}");
        }
    }

    #[test]
    fn full_duplex_directions_do_not_interfere() {
        let topo = leaf_spine(1, 1, 2, Gbps::new(100.0)).unwrap();
        let hosts = topo.hosts();
        let mut sim = NetSim::new(topo);
        let a = sim
            .inject(SimTime::ZERO, hosts[0], hosts[1], 125e6, 0)
            .unwrap();
        let b = sim
            .inject(SimTime::ZERO, hosts[1], hosts[0], 125e6, 0)
            .unwrap();
        sim.run().unwrap();
        // Opposite directions: both finish at line rate.
        for f in [a, b] {
            assert_eq!(
                sim.status(f).unwrap().finished.unwrap(),
                SimTime::from_millis(10)
            );
        }
    }

    #[test]
    fn late_arrival_steals_half_then_first_finishes() {
        // Flow A starts alone at 100 G; B joins at t=5ms on the same
        // directed path; both run at 50 G afterwards.
        let topo = leaf_spine(1, 1, 2, Gbps::new(100.0)).unwrap();
        let hosts = topo.hosts();
        let mut sim = NetSim::new(topo);
        // A: 125 MB. Alone for 5 ms (62.5 MB done), then 50 G for the
        // remaining 62.5 MB → 10 ms more. Finishes at 15 ms.
        let a = sim
            .inject(SimTime::ZERO, hosts[0], hosts[1], 125e6, 0)
            .unwrap();
        let b = sim
            .inject(SimTime::from_millis(5), hosts[0], hosts[1], 125e6, 0)
            .unwrap();
        sim.run().unwrap();
        assert_eq!(
            sim.status(a).unwrap().finished.unwrap(),
            SimTime::from_millis(15)
        );
        // B: 62.5 MB at 50 G (10 ms) + 62.5 MB at 100 G (5 ms) = ends 20 ms.
        assert_eq!(
            sim.status(b).unwrap().finished.unwrap(),
            SimTime::from_millis(20)
        );
    }

    #[test]
    fn ring_allreduce_matches_analytic_model() {
        // 16-rank ring on a k=4 fat tree (packed onto the 16 hosts):
        // every flow i→i+1 carries 2(n−1)/n·S bytes; the fluid makespan
        // must match the analytic bandwidth-optimal all-reduce time.
        use npp_workload::collectives::{allreduce_time, AllReduceAlgo};
        let speed = Gbps::new(100.0);
        let topo = three_tier_fat_tree(4, speed).unwrap();
        let hosts = topo.hosts();
        let n = 16;
        let shard = npp_units::Bytes::from_mib(64.0);
        let per_rank =
            npp_workload::collectives::allreduce_bytes_per_rank(AllReduceAlgo::Ring, n, shard)
                .unwrap();
        let mut sim = NetSim::new(topo);
        for i in 0..n {
            sim.inject(
                SimTime::ZERO,
                hosts[i],
                hosts[(i + 1) % n],
                per_rank.value(),
                i,
            )
            .unwrap();
        }
        sim.run().unwrap();
        let expected = allreduce_time(AllReduceAlgo::Ring, n, shard, speed).unwrap();
        let got = sim.makespan().unwrap().as_seconds();
        assert!(
            (got.value() - expected.value()).abs() / expected.value() < 0.01,
            "sim {got} vs analytic {expected}"
        );
    }

    #[test]
    fn idle_links_are_reported() {
        let topo = three_tier_fat_tree(4, Gbps::new(100.0)).unwrap();
        let total_links = topo.links().len();
        let hosts = topo.hosts();
        let mut sim = NetSim::new(topo);
        sim.inject(SimTime::ZERO, hosts[0], hosts[1], 1e6, 0)
            .unwrap();
        sim.run().unwrap();
        let idle = sim.idle_links();
        assert!(
            idle.len() > total_links / 2,
            "idle {} of {}",
            idle.len(),
            total_links
        );
    }

    #[test]
    fn busy_time_accounting() {
        let topo = leaf_spine(1, 1, 2, Gbps::new(100.0)).unwrap();
        let hosts = topo.hosts();
        let host_link = topo.neighbors(hosts[0])[0].1;
        let mut sim = NetSim::new(topo);
        sim.inject(SimTime::ZERO, hosts[0], hosts[1], 125e6, 0)
            .unwrap();
        sim.run().unwrap();
        assert!((sim.link_busy_secs(host_link) - 0.01).abs() < 1e-6);
        assert!((sim.link_bytes(host_link) - 125e6).abs() < 1.0);
    }

    #[test]
    fn injection_validation() {
        let topo = leaf_spine(1, 1, 2, Gbps::new(100.0)).unwrap();
        let hosts = topo.hosts();
        let mut sim = NetSim::new(topo.clone());
        assert!(sim
            .inject(SimTime::ZERO, hosts[0], hosts[1], 0.0, 0)
            .is_err());
        assert!(sim
            .inject(SimTime::ZERO, hosts[0], hosts[1], f64::NAN, 0)
            .is_err());
        let mut disconnected = Topology::new();
        let a = disconnected.add_host("a");
        let b = disconnected.add_host("b");
        let mut sim2 = NetSim::new(disconnected);
        assert!(sim2.inject(SimTime::ZERO, a, b, 100.0, 0).is_err());
    }

    /// The per-hop resolution `inject` used before `link_between`: the
    /// first entry of the near node's adjacency whose peer is the far node.
    fn first_match_dirlinks(topo: &Topology, nodes: &[NodeId]) -> Vec<u32> {
        nodes
            .windows(2)
            .map(|hop| {
                let (a, b) = (hop[0], hop[1]);
                let &(_, link) = topo
                    .neighbors(a)
                    .iter()
                    .find(|&&(peer, _)| peer == b)
                    .unwrap();
                dirlink(link, topo.link(link).unwrap().a == a)
            })
            .collect()
    }

    #[test]
    fn parallel_links_resolve_like_the_first_match_scan() {
        let mut topo = Topology::new();
        let h0 = topo.add_host("h0");
        let h1 = topo.add_host("h1");
        let s0 = topo.add_switch("s0", 0);
        let s1 = topo.add_switch("s1", 0);
        let s2 = topo.add_switch("s2", 1);
        let c = Gbps::new(100.0);
        // Parallel links in both orientations, so both the link id and
        // the direction bit are at stake.
        for (a, b) in [
            (h0, s0),
            (s1, s0),
            (s0, s1),
            (s0, s2),
            (s2, s1),
            (s1, h1),
            (h0, s0),
        ] {
            topo.add_link(a, b, c).unwrap();
        }
        let mut sim = NetSim::new(topo.clone());
        let mut flow = 0;
        for (src, dst) in [(h0, h1), (h1, h0), (s2, h0), (h1, s2), (s0, s1)] {
            let paths = topo.ecmp_paths(src, dst, ECMP_WIDTH);
            assert!(!paths.is_empty());
            for choice in 0..2 * paths.len() {
                sim.inject(SimTime::ZERO, src, dst, 1e6, choice).unwrap();
                let want = first_match_dirlinks(&topo, &paths[choice % paths.len()]);
                assert_eq!(sim.core.path(flow), want.as_slice());
                flow += 1;
            }
        }
        let m = sim.engine_metrics();
        assert_eq!(m.route_pairs, 5, "one search per distinct pair");
        assert!(m.route_nodes_labeled > 0);
    }

    #[test]
    fn cross_plane_route_labels_under_five_percent_of_the_fabric() {
        let topo = npp_topology::builder::fat_tree_pods_spine(15, 16, 4, Gbps::new(400.0)).unwrap();
        let n = topo.nodes().len();
        assert_eq!(n, 20_164);
        let hosts = topo.hosts();
        let (src, dst) = (hosts[0], hosts[hosts.len() - 1]);
        let mut sim = NetSim::new(topo);
        for choice in 0..3 {
            sim.inject(SimTime::ZERO, src, dst, 1e6, choice).unwrap();
        }
        let m = sim.engine_metrics();
        assert_eq!(m.route_pairs, 1);
        assert!(
            m.route_nodes_labeled * 20 < n as u64,
            "{} of {n} nodes labelled",
            m.route_nodes_labeled
        );
        let again = {
            let mut sim = NetSim::new(sim.topo.clone());
            sim.inject(SimTime::ZERO, src, dst, 1e6, 0).unwrap();
            sim.engine_metrics()
        };
        assert_eq!(again.route_nodes_labeled, m.route_nodes_labeled);
    }

    #[test]
    fn event_and_peak_counters_track_the_run() {
        let topo = leaf_spine(2, 1, 2, Gbps::new(100.0)).unwrap();
        let hosts = topo.hosts();
        let mut sim = NetSim::new(topo);
        sim.inject(SimTime::ZERO, hosts[0], hosts[2], 62.5e6, 0)
            .unwrap();
        sim.inject(SimTime::from_millis(1), hosts[1], hosts[3], 62.5e6, 0)
            .unwrap();
        sim.run().unwrap();
        // At least: release at 0, release at 1 ms, two completions.
        assert!(sim.events_processed() >= 3);
        assert_eq!(sim.peak_live_flows(), 2);
        assert_eq!(sim.flow_count(), 2);
    }

    #[test]
    fn disjoint_components_keep_exact_rates_across_events() {
        // Two leaf-local pairs on separate leaves never share a link;
        // events in one component must not disturb the other. The
        // debug-assert oracle checks the untouched component's rates
        // stay bit-identical to a full recompute.
        let topo = leaf_spine(2, 1, 4, Gbps::new(100.0)).unwrap();
        let hosts = topo.hosts();
        let mut sim = NetSim::new(topo);
        // Component 1 (leaf 0): long flow.
        let long = sim
            .inject(SimTime::ZERO, hosts[0], hosts[1], 250e6, 0)
            .unwrap();
        // Component 2 (leaf 1): a burst of short flows creating events
        // while the long flow runs.
        for i in 0..8 {
            sim.inject(
                SimTime::from_millis(i),
                hosts[4 + (i as usize % 2)],
                hosts[6 + (i as usize % 2)],
                1e6,
                0,
            )
            .unwrap();
        }
        sim.run().unwrap();
        // The long flow ran at line rate throughout: 250 MB at 100 G.
        assert_eq!(
            sim.status(long).unwrap().finished.unwrap(),
            SimTime::from_millis(20)
        );
    }

    /// Injects the same mixed workload (several components, staggered
    /// arrivals, completion ties) into a fresh sim.
    fn mixed_workload_sim() -> NetSim {
        let topo = leaf_spine(3, 2, 4, Gbps::new(100.0)).unwrap();
        let hosts = topo.hosts();
        let n = hosts.len();
        let mut sim = NetSim::new(topo);
        for i in 0..24usize {
            let src = hosts[i % n];
            let dst = hosts[(i * 5 + 3) % n];
            if src == dst {
                continue;
            }
            let at = SimTime::from_millis((i % 4) as u64);
            let bytes = 1e6 * (1.0 + (i % 3) as f64);
            sim.inject(at, src, dst, bytes, i).unwrap();
        }
        sim
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        let serial = {
            let mut sim = mixed_workload_sim();
            sim.run().unwrap();
            sim
        };
        for threads in [2, 3, 8] {
            let mut sim = mixed_workload_sim();
            sim.run_threads(threads).unwrap();
            assert_eq!(
                sim.state_digest(),
                serial.state_digest(),
                "threads={threads} digest diverged from serial"
            );
            assert_eq!(sim.events_processed(), serial.events_processed());
            assert_eq!(sim.peak_live_flows(), serial.peak_live_flows());
            assert_eq!(sim.makespan(), serial.makespan());
            let m = sim.engine_metrics();
            assert_eq!(m.threads, threads);
            assert!(m.components >= 1);
            assert_eq!(m.workers.len(), threads);
        }
    }

    #[test]
    fn run_threads_one_is_the_serial_engine() {
        let mut a = mixed_workload_sim();
        let mut b = mixed_workload_sim();
        a.run().unwrap();
        b.run_threads(1).unwrap();
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(b.engine_metrics().threads, 1);
        assert!(b.engine_metrics().workers.is_empty());
    }

    #[test]
    fn parallel_run_with_single_component() {
        // All flows share one bottleneck: one component, so every rate
        // recompute lands on one worker (or splits within the
        // component) — and must still match the serial engine.
        let topo = leaf_spine(2, 1, 2, Gbps::new(100.0)).unwrap();
        let hosts = topo.hosts();
        let build = |topo: Topology| {
            let mut sim = NetSim::new(topo);
            sim.inject(SimTime::ZERO, hosts[0], hosts[2], 62.5e6, 0)
                .unwrap();
            sim.inject(SimTime::from_millis(1), hosts[1], hosts[3], 62.5e6, 0)
                .unwrap();
            sim
        };
        let mut serial = build(leaf_spine(2, 1, 2, Gbps::new(100.0)).unwrap());
        serial.run().unwrap();
        let mut par = build(topo);
        par.run_threads(8).unwrap();
        assert_eq!(par.state_digest(), serial.state_digest());
        let m = par.engine_metrics();
        assert_eq!(m.components, 1);
        assert_eq!(m.threads, 8);
    }

    #[test]
    fn state_digest_distinguishes_different_runs() {
        let mut a = mixed_workload_sim();
        a.run().unwrap();
        let topo = leaf_spine(1, 1, 2, Gbps::new(100.0)).unwrap();
        let hosts = topo.hosts();
        let mut b = NetSim::new(topo);
        b.inject(SimTime::ZERO, hosts[0], hosts[1], 125e6, 0)
            .unwrap();
        b.run().unwrap();
        assert_ne!(a.state_digest(), b.state_digest());
    }
}
