//! Micro-benchmarks of the substrate layers: topology math, graph
//! construction and routing, the event scheduler, and the simulated
//! switch data path.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use npp_simnet::switchsim::{PipelineSwitch, SwitchParams};
use npp_simnet::{Scheduler, SimTime};
use npp_topology::bisection::bisection_bandwidth;
use npp_topology::builder::{fat_tree_pods_spine, three_tier_fat_tree};
use npp_topology::{FatTreeModel, RouteScratch};
use npp_units::Gbps;

fn topology_math(c: &mut Criterion) {
    let m = FatTreeModel::new(128).unwrap();
    c.bench_function("substrate/fattree_sizing", |b| {
        b.iter(|| {
            for hosts in [1_000.0, 15_360.0, 100_000.0, 500_000.0] {
                black_box(m.size_for_hosts(black_box(hosts)).unwrap());
            }
        })
    });
}

fn graph_building(c: &mut Criterion) {
    c.bench_function("substrate/build_k8_fat_tree", |b| {
        b.iter(|| black_box(three_tier_fat_tree(8, Gbps::new(400.0)).unwrap()))
    });

    let topo = three_tier_fat_tree(8, Gbps::new(400.0)).unwrap();
    let hosts = topo.hosts();
    c.bench_function("substrate/ecmp_cross_pod", |b| {
        b.iter(|| black_box(topo.ecmp_paths(hosts[0], hosts[127], 64)))
    });

    // Fabric scale: 15 k=16 planes joined by 4 spine switches (20,164
    // nodes), one host pair in different planes. The first case
    // allocates its labels per call; the second reuses one scratch, as
    // the simulator's route cache does on every miss.
    let spine = fat_tree_pods_spine(15, 16, 4, Gbps::new(400.0)).unwrap();
    let spine_hosts = spine.hosts();
    let (src, dst) = (spine_hosts[0], spine_hosts[spine_hosts.len() - 1]);
    c.bench_function("substrate/ecmp_spine_cross_plane", |b| {
        b.iter(|| black_box(spine.ecmp_paths(src, dst, 16)))
    });
    let mut scratch = RouteScratch::new();
    c.bench_function("substrate/ecmp_spine_cross_plane_scratch", |b| {
        b.iter(|| black_box(spine.ecmp_paths_with(&mut scratch, src, dst, 16)))
    });

    let mut g = c.benchmark_group("substrate/maxflow");
    g.sample_size(20);
    g.bench_function("bisection_k8", |b| {
        b.iter(|| black_box(bisection_bandwidth(&topo)))
    });
    g.finish();
}

fn event_scheduler(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate/scheduler");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("schedule_pop_10k", |b| {
        b.iter(|| {
            let mut s: Scheduler<u64> = Scheduler::new();
            for i in 0..10_000u64 {
                // Pseudo-random but deterministic insertion order.
                let t = (i.wrapping_mul(2_654_435_761)) % 1_000_000;
                s.schedule(SimTime::from_nanos(t), i).unwrap();
            }
            while let Some(e) = s.pop() {
                black_box(e);
            }
        })
    });
    g.finish();
}

fn switch_datapath(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate/switch_ingress");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("forward_10k_packets", |b| {
        b.iter(|| {
            let mut sw = PipelineSwitch::new(SwitchParams::paper_51t2(), SimTime::ZERO).unwrap();
            for i in 0..10_000u64 {
                black_box(
                    sw.ingress(SimTime::from_nanos(i * 100), (i % 64) as usize, 1500)
                        .unwrap(),
                );
            }
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    topology_math,
    graph_building,
    event_scheduler,
    switch_datapath
);
criterion_main!(benches);
