//! The fabric workloads: the max-min fluid simulator on a generated
//! flow set.
//!
//! One repetition is what a user of the simulator waits for: build the
//! topology and the simulator (set-up), then inject every flow and run
//! to completion (the timed phase). Repetitions continue until the run's
//! time budget is spent. The reported times are taken on the least
//! contended host the run saw: the fastest set-up, and the fastest time
//! of each piece of the timed phase (every [`INJECT_CHUNK`] injects,
//! then the run), summed.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use npp_simnet::netsim::{FlowId, NetSim};
use npp_simnet::{EngineMetrics, SimTime};
use npp_topology::builder::{fat_tree_pods, fat_tree_pods_spine};
use npp_topology::graph::{NodeId, Topology};
use npp_units::Gbps;

use crate::gen::{self, ChurnShape, Flow, REFERENCE_SEED};
use crate::report::{fastest_pieces, median, min, peak_rss_mb, Outcome};
use crate::trace::Recorder;

/// A fabric workload's fixed shape.
pub struct Fabric {
    pub name: &'static str,
    /// Engine worker threads (1 = serial `NetSim::run`).
    pub threads: usize,
    build: fn() -> Topology,
    flows: fn(u64, usize) -> Vec<Flow>,
    /// `state_digest()` at [`REFERENCE_SEED`], captured from the commit
    /// that added the benchmark.
    reference_digest: u64,
}

/// The 15,360-host spine-joined fat-tree with ~4k flows at t = 0:
/// nearly every flow is a new (src, dst) pair, so route resolution and
/// the wide waterfill dominate.
pub const FABRIC_WIDE: Fabric = Fabric {
    name: "fabric-wide",
    threads: 1,
    build: || fat_tree_pods_spine(15, 16, 4, Gbps::new(400.0)).expect("fabric-wide topology"),
    flows: |seed, hosts| gen::fabric_wide_flows(seed, hosts, 4_096),
    reference_digest: 0xd8ee_cda3_9743_6ba2,
};

/// Shape of the fabric-churn input: 8 k=8 pods, 1,024 hosts.
const CHURN: ChurnShape = ChurnShape {
    planes: 8,
    hosts_per_plane: 128,
    background: 5_000,
    peers: 8,
    waves: 3,
    flights: 4,
};

/// Staggered intra-pod churn with collective waves on disconnected
/// pods, run by the 2-thread parallel runtime: many small dirty
/// closures and a mostly-hitting route cache.
pub const FABRIC_CHURN: Fabric = Fabric {
    name: "fabric-churn",
    threads: 2,
    build: || fat_tree_pods(8, 8, Gbps::new(400.0)).expect("fabric-churn topology"),
    flows: |seed, _| gen::fabric_churn_flows(seed, CHURN),
    reference_digest: 0x95c7_e72b_ea05_2775,
};

/// Flows injected per timed piece of a repetition.
const INJECT_CHUNK: usize = 64;
/// Fewest timed repetitions per run, whatever the budget.
const MIN_REPS: usize = 3;
/// Set-ups measured before each repetition; the fastest over the run
/// is reported.
const SETUP_PER_REP: usize = 10;

struct Rep {
    wall_s: f64,
    /// Host time of each piece of the timed phase, in order: the inject
    /// chunks, then the run.
    pieces: Vec<f64>,
    digest: u64,
    metrics: EngineMetrics,
    failed_flows: u64,
}

fn to_node(hosts: &[NodeId], f: &Flow) -> (SimTime, NodeId, NodeId, f64) {
    (
        SimTime::from_nanos(f.at_ns),
        hosts[f.src],
        hosts[f.dst],
        f.bytes as f64,
    )
}

/// Residual bytes at which the simulator retires a flow as finished;
/// anything left above it is a flow that did not complete.
const COMPLETION_TOLERANCE_BYTES: f64 = 1e-6;

/// Flows that did not finish with zero residual bytes (up to the
/// simulator's completion tolerance).
fn unfinished(sim: &NetSim, flows: usize) -> u64 {
    (0..flows)
        .filter(|&i| {
            sim.status(FlowId(i)).map_or(true, |s| {
                s.finished.is_none() || s.bytes_remaining > COMPLETION_TOLERANCE_BYTES
            })
        })
        .count() as u64
}

impl Fabric {
    /// One set-up: build the topology and the simulator over it.
    fn setup_s(&self) -> f64 {
        let t0 = Instant::now();
        let sim = NetSim::new((self.build)());
        let secs = t0.elapsed().as_secs_f64();
        drop(sim);
        secs
    }

    /// One untraced repetition.
    fn rep(&self, hosts: &[NodeId], flows: &[Flow], threads: usize) -> Rep {
        let mut sim = NetSim::new((self.build)());
        let mut pieces = Vec::new();
        let t0 = Instant::now();
        let mut last = t0;
        let mut lap = |pieces: &mut Vec<f64>| {
            let now = Instant::now();
            pieces.push((now - last).as_secs_f64());
            last = now;
        };
        for chunk in flows.chunks(INJECT_CHUNK) {
            for f in chunk {
                let (at, s, d, b) = to_node(hosts, f);
                sim.inject(at, s, d, b, f.path_choice)
                    .expect("generated flow injects");
            }
            lap(&mut pieces);
        }
        sim.run_threads(threads).expect("simulation drains");
        lap(&mut pieces);
        let wall_s = t0.elapsed().as_secs_f64();
        Rep {
            wall_s,
            pieces,
            digest: sim.state_digest(),
            metrics: sim.engine_metrics(),
            failed_flows: unfinished(&sim, flows.len()),
        }
    }

    /// One repetition with a span around every call into the program.
    fn traced_rep(&self, rec: &mut Recorder, op: u64, hosts: &[NodeId], flows: &[Flow]) -> Rep {
        let topo = rec.span("topology.build", op, |_| (self.build)());
        let mut sim = rec.span("netsim.new", op, |_| NetSim::new(topo));
        let t0 = Instant::now();
        rec.span("rep.timed", op, |rec| {
            rec.span("netsim.inject_all", op, |_| {
                for f in flows {
                    let (at, s, d, b) = to_node(hosts, f);
                    sim.inject(at, s, d, b, f.path_choice)
                        .expect("generated flow injects");
                }
            });
            rec.span("netsim.run", op, |_| sim.run_threads(self.threads))
                .expect("simulation drains");
        });
        let wall_s = t0.elapsed().as_secs_f64();
        Rep {
            wall_s,
            pieces: Vec::new(),
            digest: sim.state_digest(),
            metrics: sim.engine_metrics(),
            failed_flows: unfinished(&sim, flows.len()),
        }
    }

    /// Every flow finished, and the state digest matches `want`. A
    /// wrong digest fails every flow of the repetition.
    fn check_rep(out: &mut Outcome, rep: &Rep, flows: usize, want: u64, what: &str) {
        let mut failed = rep.failed_flows;
        if rep.failed_flows > 0 {
            out.fail(&format!("{} flows left residual bytes", rep.failed_flows));
        }
        if rep.digest != want {
            failed = flows as u64;
            out.fail(&format!(
                "digest {:016x} differs from {what} {want:016x}",
                rep.digest
            ));
        }
        out.failed += failed;
    }

    pub fn run(&self, seed: u64, budget: Duration, traced: bool) -> Outcome {
        let mut out = Outcome {
            correct: true,
            ..Outcome::default()
        };
        let hosts = (self.build)().hosts();
        let flows = (self.flows)(seed, hosts.len());
        out.fact("threads", self.threads);
        out.fact("hosts", hosts.len());
        out.fact("flows", flows.len());

        // Untraced repetitions: the whole budget, or half of it when a
        // traced half follows (the difference is the tracing overhead).
        let untraced_budget = if traced { budget / 2 } else { budget };
        let started = Instant::now();
        let min_reps = if traced { 1 } else { MIN_REPS };
        let mut reps = Vec::new();
        let mut setup = Vec::new();
        while reps.len() < min_reps || started.elapsed() < untraced_budget {
            // Set-up samples interleave with the repetitions, so that
            // both see the same stretch of host time.
            setup.extend((0..SETUP_PER_REP).map(|_| self.setup_s()));
            let rep = self.rep(&hosts, &flows, self.threads);
            let want = reps.first().map_or(rep.digest, |r: &Rep| r.digest);
            Self::check_rep(&mut out, &rep, flows.len(), want, "the first repetition's");
            reps.push(rep);
        }
        // Read before the serial check and the traced half.
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
        let first = &reps[0];
        out.fact("digest", format!("{:016x}", first.digest));
        out.fact("repetitions", reps.len());
        out.fact("setup_samples", format!("{:.5?}", setup));
        out.fact(
            "repetition_wall_s",
            format!("{:.3?}", reps.iter().map(|r| r.wall_s).collect::<Vec<_>>()),
        );
        out.attempted += (flows.len() * reps.len()) as u64;

        // Simulated results are exact: the reference seed's flows must
        // give the digest recorded above, whatever seed this run uses.
        // Outside the timing.
        if seed == REFERENCE_SEED {
            if first.digest != self.reference_digest {
                out.failed += (flows.len() * reps.len()) as u64;
                out.fail(&format!(
                    "digest {:016x} differs from the recorded reference {:016x}",
                    first.digest, self.reference_digest
                ));
            }
        } else {
            let ref_flows = (self.flows)(REFERENCE_SEED, hosts.len());
            let rep = self.rep(&hosts, &ref_flows, self.threads);
            out.attempted += ref_flows.len() as u64;
            let want = self.reference_digest;
            Self::check_rep(
                &mut out,
                &rep,
                ref_flows.len(),
                want,
                "the recorded reference",
            );
        }

        // The parallel runtime must reproduce the serial engine bit for
        // bit; one serial run, outside the timing.
        if self.threads > 1 {
            let serial = self.rep(&hosts, &flows, 1);
            out.fact("serial_wall_s", format!("{:.3}", serial.wall_s));
            out.attempted += flows.len() as u64;
            out.failed += serial.failed_flows;
            if serial.digest != first.digest {
                out.failed += flows.len() as u64 - serial.failed_flows;
                out.fail(&format!(
                    "serial digest {:016x} differs from the {}-thread digest {:016x}",
                    serial.digest, self.threads, first.digest
                ));
            }
        }

        let pieces: Vec<&[f64]> = reps.iter().map(|r| r.pieces.as_slice()).collect();
        let wall_s = fastest_pieces(&pieces);
        out.fact(
            "repetition_median_s",
            median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>()),
        );
        out.metric("setup_s", min(&setup), "s");
        out.metric("wall_s", wall_s, "s");
        out.metric("ops_per_s", flows.len() as f64 / wall_s, "1/s");
        if traced {
            self.trace(&mut out, seed, &hosts, &flows, &reps, budget / 2);
        }
        out
    }

    fn trace(
        &self,
        out: &mut Outcome,
        seed: u64,
        hosts: &[NodeId],
        flows: &[Flow],
        plain: &[Rep],
        budget: Duration,
    ) {
        let mut rec = Recorder::new();
        let started = Instant::now();
        let mut reps: Vec<Rep> = Vec::new();
        while reps.is_empty() || started.elapsed() < budget {
            let rep = self.traced_rep(&mut rec, reps.len() as u64, hosts, flows);
            Self::check_rep(
                out,
                &rep,
                flows.len(),
                plain[0].digest,
                "the untraced digest",
            );
            reps.push(rep);
        }
        out.attempted += (flows.len() * reps.len()) as u64;
        let m = &reps[0].metrics;
        if !same_work(m, &plain[0].metrics) {
            out.fail("engine work counters differ between the traced and untraced runs");
        }

        // Route resolution alone: one ECMP enumeration per distinct pair,
        // the BFS `inject` pays on each route-cache miss.
        let topo = (self.build)();
        let pairs: BTreeSet<(usize, usize)> = flows.iter().map(|f| (f.src, f.dst)).collect();
        for (i, &(s, d)) in pairs.iter().enumerate() {
            let paths = rec.span("topology.ecmp_paths", i as u64, |_| {
                topo.ecmp_paths(hosts[s], hosts[d], 16)
            });
            if paths.is_empty() {
                out.fail("a generated pair has no path");
            }
        }

        // One span of each of these per repetition: report the median.
        let per_rep = |name: &str| -> f64 {
            median(
                &rec.durations_ns(name)
                    .iter()
                    .map(|&ns| ns as f64 / 1e9)
                    .collect::<Vec<_>>(),
            )
        };
        let run_s = per_rep("netsim.run");
        // Fastest against fastest whole repetition: the traced ones are
        // not cut into pieces.
        let traced_wall = min(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        let plain_wall = min(&plain.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        out.fact("traced_wall_s", traced_wall);
        out.fact("traced_repetitions", reps.len());
        out.metric("trace.overhead_s", traced_wall - plain_wall, "s");
        out.metric("topology.build_s", per_rep("topology.build"), "s");
        out.metric("netsim.new_s", per_rep("netsim.new"), "s");
        out.metric("netsim.inject_s", per_rep("netsim.inject_all"), "s");
        out.metric("netsim.route_pairs", pairs.len() as f64, "count");
        out.metric(
            "topology.ecmp_paths_s",
            rec.total_s("topology.ecmp_paths"),
            "s",
        );
        out.metric("netsim.run_s", run_s, "s");
        out.metric(
            "netsim.run_ns_per_fixing_iteration",
            run_s * 1e9 / m.fixing_iterations.max(1) as f64,
            "ns",
        );
        out.metric(
            "netsim.run_ns_per_event",
            run_s * 1e9 / m.events.max(1) as f64,
            "ns",
        );
        out.metric("netsim.events", m.events as f64, "count");
        out.metric("netsim.recomputes", m.recomputes as f64, "count");
        out.metric(
            "netsim.fixing_iterations",
            m.fixing_iterations as f64,
            "count",
        );
        out.metric("netsim.dirty_set_max", m.dirty_set_max as f64, "count");
        out.metric(
            "netsim.touched_links_max",
            m.touched_links_max as f64,
            "count",
        );
        out.metric("netsim.peak_live_flows", m.peak_live_flows as f64, "count");
        out.metric("netsim_par.subproblems", m.subproblems as f64, "count");
        out.metric("netsim_par.steal_events", m.steal_events as f64, "count");
        out.metric(
            "netsim_par.stolen_components",
            m.stolen_components as f64,
            "count",
        );
        out.metric("netsim_par.components", m.components as f64, "count");
        out.metric(
            "netsim_par.index_rebuilds",
            m.index_rebuilds as f64,
            "count",
        );
        out.metric(
            "netsim_par.index_incremental_ops",
            m.index_incremental_ops as f64,
            "count",
        );
        out.metric("netsim_par.worker_imbalance", worker_imbalance(m), "ratio");
        out.metric("netsim_par.merge_wait_ns", m.merge_wait_ns as f64, "ns");
        if let Err(e) =
            rec.write_jsonl(&crate::out_dir().join(format!("trace-{}-seed{seed}.jsonl", self.name)))
        {
            eprintln!("perfbench: could not write the span file: {e}");
        }
    }
}

/// Max ÷ mean fixing iterations over the parallel workers; 0 for a
/// serial run.
fn worker_imbalance(m: &EngineMetrics) -> f64 {
    let its: Vec<f64> = m
        .workers
        .iter()
        .map(|w| w.fixing_iterations as f64)
        .collect();
    let mean = its.iter().sum::<f64>() / its.len().max(1) as f64;
    if mean == 0.0 {
        return 0.0;
    }
    its.iter().copied().fold(0.0, f64::max) / mean
}

/// The engine's exact work counters agree (wall-clock fields aside).
fn same_work(a: &EngineMetrics, b: &EngineMetrics) -> bool {
    let strip = |m: &EngineMetrics| EngineMetrics {
        merge_wait_ns: 0,
        ..m.clone()
    };
    strip(a) == strip(b)
}
