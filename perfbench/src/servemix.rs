//! The serve-mix workload: an in-process `netpp serve` daemon and one
//! client connection in a closed loop of `POST /scenario` requests.
//!
//! Hits come from a pre-warmed hot set (analytic specs and the five
//! mechanisms' comparison defaults); misses are fresh switch
//! simulations that the daemon runs and appends to its cache. One
//! pass is a fixed-length request list; passes repeat until the time
//! budget is spent. The reported pass time is taken on the least
//! contended host the run saw: every pass repeats one template, so
//! each piece of [`PIECE_REQUESTS`] requests does the same work in
//! every pass, and the pieces' fastest times are summed.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use serde::Deserialize;

use npp_serve::api::{self, Action};
use npp_serve::http::{self, Request as HttpRequest};
use npp_serve::{Client, Engine, ServeConfig, ServerHandle};
use npp_sweep::{expand, run_scenario, Metrics, ResultCache, Scenario, ScenarioSpec, SweepSpec};

use crate::gen::{Class, Request, ServeMix, REFERENCE_SEED};
use crate::report::{fastest_pieces, median, min, peak_rss_mb, quantile, Outcome};
use crate::trace::Recorder;

/// Requests per pass.
const REQUESTS_PER_PASS: usize = 2_000;
/// Cache misses per pass (5 %).
const MISSES_PER_PASS: usize = 100;
/// Requests per timed piece of a pass: about one miss.
const PIECE_REQUESTS: usize = 20;
/// Fewest timed passes per run, whatever the budget.
const MIN_PASSES: usize = 3;
/// Daemon shape: two connection workers, one executor job.
const WORKERS: usize = 2;
const JOBS: usize = 1;

/// The `POST /scenario` reply document.
#[derive(Debug, Deserialize)]
struct Reply {
    hash: String,
    seed: u64,
    metrics: Metrics,
}

fn cache_dir(tag: &str) -> PathBuf {
    let dir = crate::out_dir().join(format!("serve-cache-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: PathBuf) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_dir: Some(dir),
        jobs: JOBS,
        threads: 1,
        workers: WORKERS,
        ..ServeConfig::default()
    }
}

fn class_header(class: Class) -> &'static str {
    match class {
        Class::Hit => "hit",
        Class::Miss => "miss",
    }
}

/// Client-side latencies and replies of one or more passes.
#[derive(Default)]
struct Samples {
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
    pass_s: Vec<f64>,
    /// Per pass, the time of each piece of [`PIECE_REQUESTS`] requests.
    pieces: Vec<Vec<f64>>,
    /// Reply body per distinct request body, with its request count.
    replies: BTreeMap<String, (Vec<u8>, u64)>,
}

struct Daemon {
    handle: ServerHandle,
    dir: PathBuf,
}

impl Daemon {
    fn stop(self) {
        self.handle.request_drain();
        self.handle.join();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Set-up: spawn the daemon on a fresh cache directory and pre-warm
/// the hot set through its own front end.
fn start(tag: &str, hot: &[String], out: &mut Outcome) -> (Daemon, f64) {
    let dir = cache_dir(tag);
    let t0 = Instant::now();
    let handle = npp_serve::spawn(config(dir.clone())).expect("daemon starts");
    let mut client = Client::new(handle.addr());
    for body in hot {
        out.attempted += 1;
        match client.post("/scenario", body.as_bytes()) {
            Ok(reply) if reply.status == 200 && reply.header("x-npp-cache") == Some("miss") => {}
            Ok(reply) => out.fail_op(&format!(
                "pre-warm answered {} {:?}: {}",
                reply.status,
                reply.header("x-npp-cache"),
                reply.text().trim()
            )),
            Err(e) => out.fail_op(&format!("pre-warm failed: {e}")),
        }
    }
    (Daemon { handle, dir }, t0.elapsed().as_secs_f64())
}

/// Sends one pass over `client`, closed loop, recording latencies and
/// checking status and cache class of every reply.
fn socket_pass(
    client: &mut Client,
    list: &[Request],
    samples: &mut Samples,
    out: &mut Outcome,
    mut rec: Option<&mut Recorder>,
) {
    let t0 = Instant::now();
    let mut pieces = Vec::with_capacity(list.len() / PIECE_REQUESTS + 1);
    let mut piece_start = t0;
    for (i, req) in list.iter().enumerate() {
        if i % PIECE_REQUESTS == 0 && i > 0 {
            let now = Instant::now();
            pieces.push((now - piece_start).as_secs_f64());
            piece_start = now;
        }
        let t = Instant::now();
        let reply = match rec.as_deref_mut() {
            Some(rec) => rec.span("client.post", i as u64, |_| {
                client.post("/scenario", req.body.as_bytes())
            }),
            None => client.post("/scenario", req.body.as_bytes()),
        };
        let us = t.elapsed().as_secs_f64() * 1e6;
        out.attempted += 1;
        let reply = match reply {
            Ok(reply)
                if reply.status == 200
                    && reply.header("x-npp-cache") == Some(class_header(req.class)) =>
            {
                reply
            }
            Ok(reply) => {
                out.fail_op(&format!(
                    "request {i} answered {} with cache {:?}, expected {}",
                    reply.status,
                    reply.header("x-npp-cache"),
                    class_header(req.class)
                ));
                continue;
            }
            Err(e) => {
                out.fail_op(&format!("request {i} failed: {e}"));
                continue;
            }
        };
        match req.class {
            Class::Hit => samples.hit_us.push(us),
            Class::Miss => samples.miss_us.push(us),
        }
        let entry = samples
            .replies
            .entry(req.body.clone())
            .or_insert_with(|| (reply.body.clone(), 0));
        if entry.0 != reply.body {
            out.fail_op("two replies to one spec differ");
        }
        entry.1 += 1;
    }
    pieces.push(piece_start.elapsed().as_secs_f64());
    samples.pieces.push(pieces);
    samples.pass_s.push(t0.elapsed().as_secs_f64());
}

/// The scenario a `POST /scenario` body names, expanded exactly as the
/// daemon expands it.
fn scenario_of(body: &str) -> Scenario {
    let spec: ScenarioSpec = serde_json::from_str(body).expect("generated spec parses");
    let sweep = SweepSpec {
        name: "scenario".to_string(),
        base: spec,
        axes: Vec::new(),
    };
    expand(&sweep).expect("one-point sweep expands").remove(0)
}

/// Every distinct reply must carry the spec's hash and seed and the
/// metrics `run_scenario` computes locally, bit for bit. Runs after
/// the timed phase, on both cores.
fn verify_replies(samples: &Samples, out: &mut Outcome) {
    let work: Vec<(&String, &(Vec<u8>, u64))> = samples.replies.iter().collect();
    let half = work.len().div_ceil(2);
    let bad: Vec<(u64, String)> = std::thread::scope(|s| {
        let parts: Vec<_> = work
            .chunks(half.max(1))
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .filter_map(|(body, (reply, n))| {
                            check_reply(body, reply).err().map(|e| (*n, e))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|p| p.join().expect("verifier thread"))
            .collect()
    });
    for (n, why) in bad {
        out.failed += n;
        out.fail(&why);
    }
    out.fact("verified_distinct_replies", work.len());
}

fn check_reply(body: &str, reply: &[u8]) -> Result<(), String> {
    let got: Reply =
        serde_json::from_slice(reply).map_err(|e| format!("reply does not parse: {e}"))?;
    let scenario = scenario_of(body);
    let want = run_scenario(&scenario.spec, scenario.seed)
        .map_err(|e| format!("local run failed: {e}"))?;
    if got.hash != scenario.hash || got.seed != scenario.seed {
        return Err(format!(
            "reply hash/seed {}/{} differ from {}/{}",
            got.hash, got.seed, scenario.hash, scenario.seed
        ));
    }
    if !same_bits(&got.metrics, &want) {
        return Err(format!(
            "reply metrics {:?} differ from run_scenario {want:?}",
            got.metrics
        ));
    }
    Ok(())
}

fn metric_bits(m: &Metrics) -> [u64; 7] {
    [
        m.average_power_w,
        m.baseline_power_w,
        m.power_saved_w,
        m.savings,
        m.slowdown,
        m.loss_rate,
        m.p99_latency_ns,
    ]
    .map(f64::to_bits)
}

fn same_bits(a: &Metrics, b: &Metrics) -> bool {
    metric_bits(a) == metric_bits(b)
}

/// FNV-1a over the metric bits of the reference seed's hot set, as
/// `run_scenario` computes them; captured from the commit that added
/// the benchmark.
const HOT_SET_REFERENCE_DIGEST: u64 = 0x7ca4_f7b8_130f_616c;

fn hot_set_digest() -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for body in ServeMix::new(REFERENCE_SEED, 1, 0).hot {
        let scenario = scenario_of(&body);
        let m = run_scenario(&scenario.spec, scenario.seed).expect("hot spec runs");
        for v in metric_bits(&m) {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Simulated results are exact: the reference seed's hot set must give
/// the recorded metrics, whatever seed this run uses. Untimed.
fn check_reference(out: &mut Outcome) {
    let digest = hot_set_digest();
    out.attempted += 1;
    if digest != HOT_SET_REFERENCE_DIGEST {
        out.fail_op(&format!(
            "hot-set digest {digest:016x} differs from the recorded reference {HOT_SET_REFERENCE_DIGEST:016x}"
        ));
    }
}

fn pct(out: &mut Outcome, name: &str, xs: &[f64], with_p99: bool) {
    out.metric(&format!("{name}.p50"), quantile(xs, 0.50), "us");
    out.metric(&format!("{name}.p90"), quantile(xs, 0.90), "us");
    if with_p99 {
        out.metric(&format!("{name}.p99"), quantile(xs, 0.99), "us");
    }
}

fn latency_facts(out: &mut Outcome, samples: &Samples) {
    for (class, xs) in [("hit", &samples.hit_us), ("miss", &samples.miss_us)] {
        out.fact(
            &format!("client_{class}_us"),
            format!(
                "p50 {:.1} p90 {:.1} p99 {:.1} (n = {})",
                quantile(xs, 0.5),
                quantile(xs, 0.9),
                quantile(xs, 0.99),
                xs.len()
            ),
        );
    }
}

pub fn run(seed: u64, budget: Duration, traced: bool) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    // The daemon's own metrics registry stays on, as under `netpp serve`.
    npp_telemetry::metrics::set_standalone(true);
    let mut mix = ServeMix::new(seed, REQUESTS_PER_PASS, MISSES_PER_PASS);
    out.fact("workers", WORKERS);
    out.fact("jobs", JOBS);
    out.fact("client_connections", 1);
    out.fact("hot_set", mix.hot.len());
    out.fact("requests_per_pass", REQUESTS_PER_PASS);
    out.fact("misses_per_pass", MISSES_PER_PASS);

    // Set-up: the serving daemon's start is one sample, and a spare
    // daemon started and stopped before every pass gives the others, so
    // that set-up and passes see the same stretch of host time.
    let (daemon, secs) = start("serve", &mix.hot, &mut out);
    let mut setup = vec![secs];
    let mut client = Client::new(daemon.handle.addr());

    let untraced_budget = if traced { budget / 2 } else { budget };
    let mut samples = Samples::default();
    let mut first_pass = None;
    let started = Instant::now();
    while samples.pass_s.len() < MIN_PASSES || started.elapsed() < untraced_budget {
        let (spare, secs) = start(&format!("spare{}", setup.len()), &mix.hot, &mut out);
        setup.push(secs);
        spare.stop();
        let list = mix.next_pass();
        socket_pass(&mut client, &list, &mut samples, &mut out, None);
        first_pass.get_or_insert(list);
    }
    out.fact("pass_s", format!("{:.3?}", samples.pass_s));
    out.fact("setup_samples", format!("{:.5?}", setup));
    out.fact("pass_median_s", median(&samples.pass_s));
    let wall_s = fastest_pieces(&samples.pieces);
    // Read before the untimed checks, whose threads would add to it.
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.fact("passes", samples.pass_s.len());
    latency_facts(&mut out, &samples);
    out.metric("setup_s", min(&setup), "s");
    out.metric("wall_s", wall_s, "s");
    out.metric("ops_per_s", REQUESTS_PER_PASS as f64 / wall_s, "1/s");

    if traced {
        let mut rec = Recorder::new();
        let mut traced_samples = Samples::default();
        let t0 = Instant::now();
        while traced_samples.pass_s.is_empty() || t0.elapsed() < budget / 4 {
            let list = mix.next_pass();
            socket_pass(
                &mut client,
                &list,
                &mut traced_samples,
                &mut out,
                Some(&mut rec),
            );
        }
        // Fastest against fastest whole pass, both sides alike.
        out.metric(
            "trace.overhead_s",
            min(&traced_samples.pass_s) - min(&samples.pass_s),
            "s",
        );
        pct(&mut out, "client.hit_us", &samples.hit_us, true);
        pct(&mut out, "client.miss_us", &samples.miss_us, true);
        let hit_p50 = quantile(&samples.hit_us, 0.5);
        replay(
            &mut out,
            &mut rec,
            &mix.hot,
            first_pass.as_deref().unwrap_or_default(),
            hit_p50,
        );
        for (body, (reply, n)) in traced_samples.replies {
            let entry = samples
                .replies
                .entry(body)
                .or_insert_with(|| (reply.clone(), 0));
            if entry.0 != reply {
                out.fail_op("two replies to one spec differ");
            }
            entry.1 += n;
        }
        if let Err(e) =
            rec.write_jsonl(&crate::out_dir().join(format!("trace-serve-mix-seed{seed}.jsonl")))
        {
            eprintln!("perfbench: could not write the span file: {e}");
        }
    }
    // Close the connection first: its worker would otherwise sit in a
    // read until the daemon's read timeout.
    drop(client);
    daemon.stop();
    verify_replies(&samples, &mut out);
    check_reference(&mut out);
    out
}

/// Spans, in microseconds, of every span named `name`.
fn span_us(rec: &Recorder, name: &str) -> Vec<f64> {
    rec.durations_ns(name)
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect()
}

/// The traced replay: the first pass's request list, in process and
/// without a socket, against a fresh engine pre-warmed with the hot
/// set, with a span around each call into `http`, `api`, the engine,
/// and the sweep layer.
fn replay(
    out: &mut Outcome,
    rec: &mut Recorder,
    hot: &[String],
    list: &[Request],
    client_hit_p50: f64,
) {
    let dir = cache_dir("replay");
    let side_dir = cache_dir("replay-side");
    let engine = Engine::new(Some(ResultCache::open(&dir).expect("cache opens")), JOBS);
    let uncached = Engine::new(None, JOBS);
    let side = ResultCache::open(&side_dir).expect("cache opens");
    let mut sink = Vec::new();
    for body in hot {
        let req = raw_request(body);
        let parsed = http::read_request(&mut Cursor::new(req), usize::MAX)
            .ok()
            .flatten()
            .expect("request parses");
        let _ = api::dispatch(&parsed, &engine, &mut sink);
    }
    for (i, req) in list.iter().enumerate() {
        let op = i as u64;
        out.attempted += 1;
        let raw = raw_request(&req.body);
        let parsed: HttpRequest = match rec.span("http.read_request", op, |_| {
            http::read_request(&mut Cursor::new(raw), 1 << 20)
        }) {
            Ok(Some(parsed)) => parsed,
            other => {
                out.fail_op(&format!("replayed request {i} did not parse: {other:?}"));
                continue;
            }
        };
        let spec: ScenarioSpec = serde_json::from_str(&req.body).expect("generated spec parses");
        let sweep = SweepSpec {
            name: "scenario".to_string(),
            base: spec,
            axes: Vec::new(),
        };
        let scenarios = rec
            .span("sweep.expand", op, |_| expand(&sweep))
            .expect("one-point sweep expands");
        let scenario = &scenarios[0];
        let mut computed = None;
        let action = match req.class {
            Class::Hit => {
                let cache = engine.cache().expect("engine has a cache");
                rec.span("sweep.cache_get", op, |_| cache.get(&scenario.hash));
                rec.span("serve.evaluate_hit", op, |_| engine.evaluate(&scenarios))
                    .expect("hit evaluates");
                rec.span("serve.dispatch_hit", op, |_| {
                    api::dispatch(&parsed, &engine, &mut sink)
                })
            }
            Class::Miss => {
                let metrics = rec
                    .span("sweep.run_scenario", op, |_| {
                        run_scenario(&scenario.spec, scenario.seed)
                    })
                    .expect("miss runs");
                rec.span("serve.evaluate_miss", op, |_| uncached.evaluate(&scenarios))
                    .expect("miss evaluates");
                rec.span("sweep.cache_put", op, |_| {
                    side.put(&scenario.hash, &metrics)
                })
                .expect("cache put");
                computed = Some(metrics);
                rec.span("serve.dispatch_miss", op, |_| {
                    api::dispatch(&parsed, &engine, &mut sink)
                })
            }
        };
        let Action::Respond(resp) = action else {
            out.fail_op(&format!(
                "replayed request {i} did not answer with a framed response"
            ));
            continue;
        };
        let class = resp
            .extra_headers
            .iter()
            .find(|(n, _)| n == "X-NPP-Cache")
            .map(|(_, v)| v.as_str());
        let reply: Option<Reply> = serde_json::from_slice(&resp.body).ok();
        let answered_right = match (computed, &reply) {
            (Some(want), Some(got)) => same_bits(&got.metrics, &want),
            (None, Some(_)) => true,
            (_, None) => false,
        };
        if resp.status != 200 || class != Some(class_header(req.class)) || !answered_right {
            out.fail_op(&format!(
                "replayed request {i} answered {} with cache {class:?}",
                resp.status
            ));
        }
        sink.clear();
        rec.span("http.write_response", op, |_| {
            http::write_response(&mut sink, &resp)
        })
        .expect("write to memory");
        sink.clear();
    }

    let stats = engine.cache().expect("engine has a cache").stats();
    let dispatch_hit = span_us(rec, "serve.dispatch_hit");
    out.metric(
        "serve.transport_us",
        client_hit_p50 - quantile(&dispatch_hit, 0.5),
        "us",
    );
    out.metric("http.n", list.len() as f64, "count");
    pct(
        out,
        "http.read_request_us",
        &span_us(rec, "http.read_request"),
        false,
    );
    pct(
        out,
        "http.write_response_us",
        &span_us(rec, "http.write_response"),
        false,
    );
    pct(out, "serve.dispatch_hit_us", &dispatch_hit, false);
    pct(
        out,
        "serve.evaluate_hit_us",
        &span_us(rec, "serve.evaluate_hit"),
        false,
    );
    pct(out, "sweep.expand_us", &span_us(rec, "sweep.expand"), false);
    pct(
        out,
        "sweep.cache_get_us",
        &span_us(rec, "sweep.cache_get"),
        false,
    );
    out.metric("serve.hit.n", dispatch_hit.len() as f64, "count");
    let dispatch_miss = span_us(rec, "serve.dispatch_miss");
    pct(out, "serve.dispatch_miss_us", &dispatch_miss, false);
    pct(
        out,
        "serve.evaluate_miss_us",
        &span_us(rec, "serve.evaluate_miss"),
        false,
    );
    pct(
        out,
        "sweep.run_scenario_us",
        &span_us(rec, "sweep.run_scenario"),
        false,
    );
    pct(
        out,
        "sweep.cache_put_us",
        &span_us(rec, "sweep.cache_put"),
        false,
    );
    out.metric("serve.miss.n", dispatch_miss.len() as f64, "count");
    out.metric("sweep.cache_hits", stats.hits as f64, "count");
    out.metric("sweep.cache_misses", stats.misses as f64, "count");
    out.metric("sweep.cache_entries", stats.entries as f64, "count");
    drop(engine);
    drop(side);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&side_dir);
}

/// The bytes the client sends for one `POST /scenario`.
fn raw_request(body: &str) -> Vec<u8> {
    format!(
        "POST /scenario HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}
