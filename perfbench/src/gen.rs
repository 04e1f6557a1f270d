//! The benchmark's own seeded input generator.
//!
//! Everything here is a pure function of the seed and the fixed
//! workload shapes: no wall clock, no global RNG, and nothing from the
//! program under test. Flows name hosts by index into the topology's
//! host list; requests are JSON bodies formatted here, byte for byte.
//! The program receives only these generated inputs.

use std::collections::BTreeSet;

/// The seed whose outputs the benchmark records; every run checks its
/// outputs against the record as well as its own seed's.
pub const REFERENCE_SEED: u64 = 1;

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted per input stream so that two
    /// streams of one run never share a sequence.
    pub fn new(seed: u64, salt: u64) -> Self {
        Self(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi` (the modulo bias is irrelevant at these
    /// ranges).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform index in `0..n`.
    pub fn index(&mut self, n: usize) -> usize {
        self.range(0, n as u64 - 1) as usize
    }
}

/// One flow to inject: host indices into `Topology::hosts()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flow {
    pub at_ns: u64,
    pub src: usize,
    pub dst: usize,
    pub bytes: u64,
    pub path_choice: usize,
}

/// ECMP selector range: `NetSim` resolves up to 16 shortest paths.
const ECMP_CHOICES: u64 = 16;

/// fabric-wide: `flows` flows at t = 0 with uniform source and
/// destination over all `hosts`, 1–4 MB each, random ECMP choice.
pub fn fabric_wide_flows(seed: u64, hosts: usize, flows: usize) -> Vec<Flow> {
    let mut rng = Rng::new(seed, 1);
    (0..flows)
        .map(|_| {
            let src = rng.index(hosts);
            let dst = (src + 1 + rng.index(hosts - 1)) % hosts;
            Flow {
                at_ns: 0,
                src,
                dst,
                bytes: 1_000_000 * rng.range(1, 4),
                path_choice: rng.range(0, ECMP_CHOICES - 1) as usize,
            }
        })
        .collect()
}

/// Shape of the fabric-churn input.
#[derive(Debug, Clone, Copy)]
pub struct ChurnShape {
    /// Disconnected planes (pods); hosts are numbered plane by plane.
    pub planes: usize,
    pub hosts_per_plane: usize,
    /// Staggered intra-plane background flows.
    pub background: usize,
    /// Ring peers a host sends background flows to (the next `peers`
    /// hosts of its plane), which bounds the distinct routes.
    pub peers: usize,
    /// Synchronized collective waves over every host.
    pub waves: usize,
    /// Flows each host sends per wave.
    pub flights: usize,
}

/// Size of every collective-wave flow. Fixed rather than drawn per
/// wave: a wave moves thousands of flows at once, so one draw per wave
/// would make a seed's whole workload lighter or heavier.
const WAVE_BYTES: u64 = 256 * 1024;

/// fabric-churn: staggered intra-plane background flows (64 KB–4 MB,
/// 1–5 µs apart, each to one of the source's next `peers` ring
/// neighbours) plus `waves` evenly spaced collective waves in which
/// every host sends `flights` flows of [`WAVE_BYTES`] to its next
/// `flights` ring neighbours.
/// Returned in injection order (ascending time; a wave's flows follow
/// the background flows injected at the same instant).
pub fn fabric_churn_flows(seed: u64, shape: ChurnShape) -> Vec<Flow> {
    let mut rng = Rng::new(seed, 2);
    let per = shape.hosts_per_plane;
    let mut background = Vec::with_capacity(shape.background);
    let mut t = 0u64;
    for _ in 0..shape.background {
        t += rng.range(1_000, 5_000);
        let plane = rng.index(shape.planes);
        let src = rng.index(per);
        let dst = (src + 1 + rng.index(shape.peers)) % per;
        background.push(Flow {
            at_ns: t,
            src: plane * per + src,
            dst: plane * per + dst,
            bytes: rng.range(64 * 1024, 4 * 1024 * 1024),
            path_choice: rng.range(0, ECMP_CHOICES - 1) as usize,
        });
    }
    let span = t;
    let mut out =
        Vec::with_capacity(shape.background + shape.waves * shape.planes * per * shape.flights);
    let mut next = background.into_iter().peekable();
    for w in 0..shape.waves {
        let at_ns = span * (w as u64 + 1) / (shape.waves as u64 + 1);
        while let Some(f) = next.next_if(|f| f.at_ns <= at_ns) {
            out.push(f);
        }
        let bytes = WAVE_BYTES;
        for plane in 0..shape.planes {
            for h in 0..per {
                for k in 0..shape.flights {
                    out.push(Flow {
                        at_ns,
                        src: plane * per + h,
                        dst: plane * per + (h + k + 1) % per,
                        bytes,
                        path_choice: rng.range(0, ECMP_CHOICES - 1) as usize,
                    });
                }
            }
        }
    }
    out.extend(next);
    out
}

/// Request class the daemon must report in `X-NPP-Cache`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    Hit,
    Miss,
}

/// One `POST /scenario` of the serve-mix workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub class: Class,
    /// The JSON `ScenarioSpec` body.
    pub body: String,
}

/// The four §4 mechanisms that do real control work.
const MISS_MECHANISMS: [&str; 4] = [
    "RateAdaptGlobal",
    "RateAdaptPerPipeline",
    "ParkReactive",
    "ParkPredictive",
];

/// Every mechanism, for the hot set's comparison-default specs.
const ALL_MECHANISMS: [&str; 5] = [
    "AllOn",
    "RateAdaptGlobal",
    "RateAdaptPerPipeline",
    "ParkReactive",
    "ParkPredictive",
];

/// Per-GPU bandwidths whose switch radix (51.2 T over the port speed)
/// the analytic topology model accepts.
const BANDWIDTHS_GBPS: [u64; 5] = [100, 200, 400, 800, 1600];

fn analytic_body(gpus: u64, bandwidth: u64, np: u64, comm: u64, scaling: &str) -> String {
    format!(
        "{{\"gpus\":{gpus}.0,\"bandwidth_gbps\":{bandwidth}.0,\
         \"network_proportionality\":0.{np:02},\"comm_ratio\":0.{comm:02},\
         \"transceivers_per_link\":2.0,\"scaling\":\"{scaling}\",\
         \"experiment\":\"Analytic\"}}"
    )
}

fn simulation_body(mechanism: &str, horizon_ms: u64, interval_ns: u64, target_pct: u64) -> String {
    format!(
        "{{\"gpus\":15360.0,\"bandwidth_gbps\":400.0,\"network_proportionality\":0.10,\
         \"comm_ratio\":0.10,\"transceivers_per_link\":2.0,\"scaling\":\"FixedWorkload\",\
         \"experiment\":{{\"Simulation\":{{\"mechanism\":\"{mechanism}\",\
         \"horizon_ms\":{horizon_ms},\"control_interval_ns\":{interval_ns},\
         \"target_utilization\":0.{target_pct:02},\"workload\":\"MlPeriodic\"}}}}}}"
    )
}

/// The serve-mix request stream: a pre-warmed hot set and an endless
/// sequence of passes, each `requests` long with exactly `misses` fresh
/// switch-simulation specs. Every pass repeats one per-seed template:
/// the same hits in the same order, and misses at the same positions,
/// each miss slot with its own mechanism, target and control interval.
/// Only the interval moves, by 1 ns per pass, so that every miss is
/// fresh while the pieces of every pass do the same work. The seed
/// picks the hits and the miss positions; the miss slots themselves
/// are the same for every seed (mechanisms in turn, targets and
/// intervals spread evenly), so that no seed draws a costlier set of
/// simulations than another. Pass `k` depends only on the seed and
/// `k`, never on timing.
#[derive(Debug)]
pub struct ServeMix {
    pub hot: Vec<String>,
    template: Vec<Slot>,
    /// Control-interval range of one miss slot, ns: also the most
    /// passes a stream can give.
    slot_span: u64,
    /// Passes drawn so far.
    passes: u64,
}

#[derive(Debug, Clone, Copy)]
enum Slot {
    /// An index into the hot set.
    Hit(usize),
    /// The `ordinal`-th miss slot of the pass.
    Miss {
        mechanism: &'static str,
        target_pct: u64,
        ordinal: u64,
    },
}

/// Horizon of every cache-miss switch simulation, ms. The hot set's
/// simulations use 10 ms, so a miss never names a hot spec.
const MISS_HORIZON_MS: u64 = 3;
/// Control intervals a miss can use: 50–200 µs in whole ns, split
/// evenly among the miss slots of a pass.
const MISS_INTERVAL_MIN_NS: u64 = 50_000;
const MISS_INTERVALS: u64 = 150_000;

impl ServeMix {
    /// 64 distinct analytic specs plus the 5 mechanisms' comparison
    /// defaults (10 ms horizon) form the hot set.
    pub fn new(seed: u64, requests: usize, misses: usize) -> Self {
        let mut rng = Rng::new(seed, 3);
        let mut seen = BTreeSet::new();
        let mut hot = Vec::new();
        while hot.len() < 64 {
            let body = analytic_body(
                1024 * rng.range(1, 32),
                BANDWIDTHS_GBPS[rng.index(BANDWIDTHS_GBPS.len())],
                rng.range(0, 99),
                rng.range(1, 60),
                ["FixedWorkload", "FixedCommRatio"][rng.index(2)],
            );
            if seen.insert(body.clone()) {
                hot.push(body);
            }
        }
        for mechanism in ALL_MECHANISMS {
            hot.push(simulation_body(mechanism, 10, 100_000, 80));
        }
        let mut miss_at = BTreeSet::new();
        while miss_at.len() < misses {
            miss_at.insert(rng.index(requests));
        }
        let mut ordinal = 0;
        let template = (0..requests)
            .map(|i| {
                if miss_at.contains(&i) {
                    ordinal += 1;
                    let o = ordinal - 1;
                    Slot::Miss {
                        mechanism: MISS_MECHANISMS[o as usize % MISS_MECHANISMS.len()],
                        target_pct: 50 + o * 45 / misses as u64,
                        ordinal: o,
                    }
                } else {
                    Slot::Hit(rng.index(hot.len()))
                }
            })
            .collect();
        Self {
            hot,
            template,
            slot_span: MISS_INTERVALS / misses.max(1) as u64,
            passes: 0,
        }
    }

    /// The next pass of the closed-loop request list.
    pub fn next_pass(&mut self) -> Vec<Request> {
        assert!(
            self.passes < self.slot_span,
            "serve-mix used up its {} passes of distinct misses",
            self.slot_span
        );
        let pass = self.passes;
        self.passes += 1;
        self.template
            .iter()
            .map(|slot| match *slot {
                Slot::Hit(i) => Request {
                    class: Class::Hit,
                    body: self.hot[i].clone(),
                },
                Slot::Miss {
                    mechanism,
                    target_pct,
                    ordinal,
                } => Request {
                    class: Class::Miss,
                    body: simulation_body(
                        mechanism,
                        MISS_HORIZON_MS,
                        MISS_INTERVAL_MIN_NS + ordinal * self.slot_span + pass,
                        target_pct,
                    ),
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: ChurnShape = ChurnShape {
        planes: 8,
        hosts_per_plane: 128,
        background: 4_000,
        peers: 8,
        waves: 3,
        flights: 4,
    };

    fn passes(seed: u64, n: usize) -> (Vec<String>, Vec<Vec<Request>>) {
        let mut mix = ServeMix::new(seed, 500, 25);
        let lists = (0..n).map(|_| mix.next_pass()).collect();
        (mix.hot, lists)
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(
            fabric_wide_flows(7, 15_360, 4_096),
            fabric_wide_flows(7, 15_360, 4_096)
        );
        assert_eq!(fabric_churn_flows(7, SHAPE), fabric_churn_flows(7, SHAPE));
        assert_eq!(passes(7, 3), passes(7, 3));
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(
            fabric_wide_flows(1, 15_360, 4_096),
            fabric_wide_flows(2, 15_360, 4_096)
        );
        assert_ne!(fabric_churn_flows(1, SHAPE), fabric_churn_flows(2, SHAPE));
        let (hot1, lists1) = passes(1, 2);
        let (hot2, lists2) = passes(2, 2);
        assert_ne!(hot1, hot2);
        assert_ne!(lists1, lists2);
    }

    #[test]
    fn generator_reads_neither_clock_nor_program() {
        // Inputs must be a function of the seed alone: this module may
        // not name the wall clock, an OS entropy source, or any crate of
        // the program under test.
        let source = include_str!("gen.rs");
        let code = source.split("#[cfg(test)]").next().unwrap_or(source);
        for banned in [
            "Instant",
            "SystemTime",
            "npp_",
            "rand::",
            "getrandom",
            "std::env",
        ] {
            assert!(!code.contains(banned), "generator mentions {banned}");
        }
    }

    #[test]
    fn fabric_flows_are_valid() {
        for f in fabric_wide_flows(3, 15_360, 4_096) {
            assert!(f.src != f.dst && f.src < 15_360 && f.dst < 15_360);
            assert!((1_000_000..=4_000_000).contains(&f.bytes));
        }
        let flows = fabric_churn_flows(3, SHAPE);
        assert_eq!(flows.len(), 4_000 + 3 * 8 * 128 * 4);
        assert!(flows.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        for f in &flows {
            assert!(f.src != f.dst);
            assert_eq!(f.src / 128, f.dst / 128, "flows stay inside one plane");
        }
    }

    #[test]
    fn serve_mix_classes_and_freshness() {
        let (hot, lists) = passes(5, 4);
        assert_eq!(hot.len(), 69);
        let mut misses = BTreeSet::new();
        for list in &lists {
            assert_eq!(list.len(), 500);
            for r in list {
                match r.class {
                    Class::Hit => assert!(hot.contains(&r.body)),
                    Class::Miss => {
                        assert!(!hot.contains(&r.body));
                        assert!(misses.insert(r.body.clone()), "a miss repeats");
                    }
                }
            }
        }
        assert_eq!(misses.len(), 4 * 25);
    }

    #[test]
    fn misses_stay_distinct_past_the_random_spec_space() {
        // 1,000 miss slots share 4 mechanisms and 46 targets; the
        // control interval keeps 30,000 misses distinct all the same.
        let mut mix = ServeMix::new(9, 1_000, 1_000);
        let mut misses = BTreeSet::new();
        for _ in 0..30 {
            for r in mix.next_pass() {
                assert!(misses.insert(r.body), "a miss repeats");
            }
        }
    }

    #[test]
    fn passes_repeat_one_template() {
        let (_, lists) = passes(4, 3);
        for list in &lists[1..] {
            for (a, b) in lists[0].iter().zip(list) {
                assert_eq!(a.class, b.class);
                if a.class == Class::Hit {
                    assert_eq!(a.body, b.body);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "used up")]
    fn a_stream_stops_before_a_miss_repeats() {
        let mut mix = ServeMix::new(9, 1_000, 1_000);
        for _ in 0..=150 {
            mix.next_pass();
        }
    }
}
