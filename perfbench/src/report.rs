//! Metric names, summary statistics, and the result line.

use std::collections::BTreeMap;

use serde::Serialize;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted: flows injected, or requests sent.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Run facts printed beside the metrics (not metrics themselves).
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn fact(&mut self, name: &str, value: impl ToString) {
        self.facts.push((name.to_string(), value.to_string()));
    }

    /// Records a failed output check.
    pub fn fail(&mut self, why: &str) {
        eprintln!("perfbench: check failed: {why}");
        self.correct = false;
    }

    /// Records a failed check that fails one operation.
    pub fn fail_op(&mut self, why: &str) {
        self.failed += 1;
        self.fail(why);
    }
}

/// End-to-end metrics every workload reports (`--trace 0`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run (`--trace 1`). A layer that the
/// workload never calls reports 0: it did no work.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("trace.overhead_s", "s"),
    ("topology.build_s", "s"),
    ("netsim.new_s", "s"),
    ("netsim.inject_s", "s"),
    ("netsim.route_pairs", "count"),
    ("topology.ecmp_paths_s", "s"),
    ("netsim.run_s", "s"),
    ("netsim.run_ns_per_fixing_iteration", "ns"),
    ("netsim.run_ns_per_event", "ns"),
    ("netsim.events", "count"),
    ("netsim.recomputes", "count"),
    ("netsim.fixing_iterations", "count"),
    ("netsim.dirty_set_max", "count"),
    ("netsim.touched_links_max", "count"),
    ("netsim.peak_live_flows", "count"),
    ("netsim_par.subproblems", "count"),
    ("netsim_par.steal_events", "count"),
    ("netsim_par.stolen_components", "count"),
    ("netsim_par.components", "count"),
    ("netsim_par.index_rebuilds", "count"),
    ("netsim_par.index_incremental_ops", "count"),
    ("netsim_par.worker_imbalance", "ratio"),
    ("netsim_par.merge_wait_ns", "ns"),
    ("client.hit_us.p50", "us"),
    ("client.hit_us.p90", "us"),
    ("client.hit_us.p99", "us"),
    ("client.miss_us.p50", "us"),
    ("client.miss_us.p90", "us"),
    ("client.miss_us.p99", "us"),
    ("serve.transport_us", "us"),
    ("http.read_request_us.p50", "us"),
    ("http.read_request_us.p90", "us"),
    ("http.write_response_us.p50", "us"),
    ("http.write_response_us.p90", "us"),
    ("http.n", "count"),
    ("serve.dispatch_hit_us.p50", "us"),
    ("serve.dispatch_hit_us.p90", "us"),
    ("serve.evaluate_hit_us.p50", "us"),
    ("serve.evaluate_hit_us.p90", "us"),
    ("sweep.expand_us.p50", "us"),
    ("sweep.expand_us.p90", "us"),
    ("sweep.cache_get_us.p50", "us"),
    ("sweep.cache_get_us.p90", "us"),
    ("serve.hit.n", "count"),
    ("serve.dispatch_miss_us.p50", "us"),
    ("serve.dispatch_miss_us.p90", "us"),
    ("serve.evaluate_miss_us.p50", "us"),
    ("serve.evaluate_miss_us.p90", "us"),
    ("sweep.run_scenario_us.p50", "us"),
    ("sweep.run_scenario_us.p90", "us"),
    ("sweep.cache_put_us.p50", "us"),
    ("sweep.cache_put_us.p90", "us"),
    ("serve.miss.n", "count"),
    ("sweep.cache_hits", "count"),
    ("sweep.cache_misses", "count"),
    ("sweep.cache_entries", "count"),
];

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs` by the nearest-rank rule; 0 for
/// an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The smallest of `xs`; 0 for an empty sample.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Host time of one repetition on the least contended host a run saw.
/// Every repetition is cut into the same pieces, each doing the same
/// work in every repetition; this sums each piece's fastest time over
/// the repetitions. The host's slow phases, which last from a fraction
/// of a second to minutes, then count only when no repetition ran that
/// piece outside one.
pub fn fastest_pieces<R: AsRef<[f64]>>(reps: &[R]) -> f64 {
    let pieces = reps.first().map_or(0, |r| r.as_ref().len());
    assert!(
        reps.iter().all(|r| r.as_ref().len() == pieces),
        "every repetition has the same pieces"
    );
    (0..pieces)
        .map(|i| min(&reps.iter().map(|r| r.as_ref()[i]).collect::<Vec<_>>()))
        .sum()
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One metric of the result line.
#[derive(Serialize)]
struct Reading {
    value: f64,
    unit: &'static str,
}

/// The result line's document.
#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, Reading>,
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, one entry per name in `names`.
pub fn result_line(outcome: &Outcome, names: &[(&'static str, &'static str)]) -> String {
    let metrics = names
        .iter()
        .map(|&(name, unit)| {
            let value = outcome
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            let value = if value.is_finite() { value } else { 0.0 };
            (name, Reading { value, unit })
        })
        .collect();
    serde_json::to_string(&ResultLine {
        correct: outcome.correct,
        attempted: outcome.attempted,
        failed: outcome.failed.min(outcome.attempted),
        metrics,
    })
    .expect("the result line serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(min(&[4.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    fn fastest_pieces_sums_each_pieces_minimum() {
        let reps = [
            vec![1.0, 5.0, 2.0],
            vec![3.0, 4.0, 2.5],
            vec![2.0, 6.0, 1.0],
        ];
        assert_eq!(fastest_pieces(&reps), 1.0 + 4.0 + 1.0);
        assert_eq!(fastest_pieces::<Vec<f64>>(&[]), 0.0);
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let doc: serde_json::Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn result_line_has_every_named_metric() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("wall_s", 1.25, "s");
        let line = result_line(&o, &[("wall_s", "s"), ("setup_s", "s")]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.0,"unit":"s"},"wall_s":{"value":1.25,"unit":"s"}}}"#
        );
    }
}
