//! The paper-shaped claims behind the E-series experiments, pinned as plain
//! tests: each runs a small seeded machine and asserts the direction of the
//! effect (who beats whom), not its exact size.

use bench::{homogeneous_system, workload_streams, LINE};
use cache_array::{CacheConfig, ReplacementKind};
use futurebus::TimingConfig;
use moesi::protocols::{by_name, MoesiPreferred};
use mpsim::hierarchy::{TreeBuilder, TreeSpec};
use mpsim::workload::{DuboisBriggs, SharingModel};
use mpsim::{RefStream, Sequential, SystemBuilder, TimedReport};

/// E3 (§5.2): on live sharing, update beats invalidate in simulated bus time.
#[test]
fn update_beats_invalidate_on_ping_pong() {
    let busy = |protocol: &str| {
        let mut sys = homogeneous_system(protocol, 4, 4096, LINE, TimingConfig::default(), false);
        let mut streams = workload_streams("ping-pong", 4, LINE, 7);
        sys.run(&mut streams, 200);
        sys.bus_stats().busy_ns
    };
    let update = busy("moesi");
    let invalidate = busy("moesi-invalidating");
    assert!(
        update < invalidate,
        "update ({update} ns) must beat invalidate ({invalidate} ns) on ping-pong"
    );
}

/// E4 (§5.2): the Puzak refinement skips some of the updates that
/// always-update applies.
#[test]
fn puzak_refinement_updates_selectively() {
    // A small 2-way cache under private pressure: shared lines often reach
    // LRU before their next use, making blind updates wasted work.
    let updates = |protocol: &str| {
        let mut sys = homogeneous_system(protocol, 4, 1024, LINE, TimingConfig::default(), false);
        let model = SharingModel {
            shared_lines: 8,
            private_lines: 48,
            p_shared: 0.3,
            p_write: 0.4,
            p_rereference: 0.2,
            line_size: LINE as u64,
        };
        let mut streams: Vec<Box<dyn RefStream + Send>> = (0..4)
            .map(|cpu| Box::new(DuboisBriggs::new(cpu, model, 5)) as _)
            .collect();
        sys.run(&mut streams, 300);
        sys.total_stats().updates_received
    };
    let always = updates("moesi");
    let refined = updates("puzak");
    assert!(
        refined < always,
        "the refinement must skip some updates ({refined} vs {always})"
    );
}

/// E5 (§5.2): intervention latency moves the cost of an intervention-based
/// protocol, while Illinois (which pushes to memory) never intervenes.
#[test]
fn intervention_cost_matters_only_to_intervening_protocols() {
    let busy = |protocol: &str, intervention_latency_ns: u64| {
        let timing = TimingConfig {
            intervention_latency_ns,
            ..TimingConfig::default()
        };
        let mut sys = homogeneous_system(protocol, 4, 4096, LINE, timing, false);
        let mut streams = workload_streams("ping-pong", 4, LINE, 3);
        sys.run(&mut streams, 150);
        sys.bus_stats().busy_ns
    };
    assert!(
        busy("moesi-invalidating", 600) > busy("moesi-invalidating", 50),
        "intervention cost must matter"
    );
    assert_eq!(
        busy("illinois", 50),
        busy("illinois", 600),
        "illinois never intervenes"
    );
}

/// E6 (§5.1): larger lines exploit sequential locality but move more bytes.
#[test]
fn larger_lines_hit_more_and_move_more_bytes() {
    let run = |line: usize| {
        let mut sys = homogeneous_system("moesi", 1, 4096, line, TimingConfig::default(), false);
        let mut streams: Vec<Box<dyn RefStream + Send>> =
            vec![Box::new(Sequential::new(0, 4, 4096, 0.2, 9))];
        sys.run(&mut streams, 1_000);
        (sys.total_stats().hit_ratio(), sys.bus_stats().bytes_moved)
    };
    let (hit_small, bytes_small) = run(8);
    let (hit_large, bytes_large) = run(128);
    assert!(
        hit_large > hit_small,
        "larger lines must exploit sequential locality ({hit_large} vs {hit_small})"
    );
    assert!(
        bytes_large > bytes_small,
        "larger lines must move more bytes ({bytes_large} vs {bytes_small})"
    );
}

/// E7 (§6): under cluster-local sharing, a two-level tree's root bus carries
/// far less than one flat bus serving the same caches.
#[test]
fn a_two_level_tree_offloads_the_root_bus() {
    let cfg = CacheConfig::new(2048, LINE, 2, ReplacementKind::Lru);
    let model = SharingModel {
        shared_lines: 8,
        private_lines: 32,
        p_shared: 0.15,
        p_write: 0.3,
        p_rereference: 0.4,
        line_size: LINE as u64,
    };
    let (clusters, per_cluster) = (4, 2);

    let mut b = SystemBuilder::new(LINE);
    for _ in 0..clusters * per_cluster {
        b = b.cache(Box::new(MoesiPreferred::new()), cfg);
    }
    let mut flat = b.build();
    let mut streams: Vec<Box<dyn RefStream + Send>> = (0..clusters * per_cluster)
        .map(|cpu| Box::new(DuboisBriggs::new(cpu / per_cluster, model, 5)) as _)
        .collect();
    flat.run(&mut streams, 200);
    let flat = flat.bus_stats().transactions;

    let mut b = TreeBuilder::new(LINE);
    for _ in 0..clusters {
        let mut leaf = TreeSpec::leaf();
        for _ in 0..per_cluster {
            leaf = leaf.cache(Box::new(MoesiPreferred::new()), cfg);
        }
        b = b.child(leaf);
    }
    let mut tree = b.build();
    let mut streams: Vec<Vec<Box<dyn RefStream + Send>>> = (0..clusters)
        .map(|cluster| {
            (0..per_cluster)
                .map(|_| Box::new(DuboisBriggs::new(cluster, model, 5)) as _)
                .collect()
        })
        .collect();
    tree.run(&mut streams, 200);
    let root = tree.parent_stats().transactions;

    assert!(
        root * 2 < flat,
        "the root bus must carry far less than the flat bus ({root} vs {flat})"
    );
}

/// E10 (§1): without caches the bus saturates at 8 CPUs; copy-back caches
/// multiply aggregate throughput and let it scale with the CPU count.
#[test]
fn caches_prevent_bus_saturation() {
    let run = |kind: &str, cpus: usize| -> TimedReport {
        let cfg = CacheConfig::new(4096, LINE, 2, ReplacementKind::Lru);
        let mut b = SystemBuilder::new(LINE);
        for i in 0..cpus {
            b = match kind {
                "none" => b.uncached(by_name("non-caching", i as u64).unwrap()),
                name => b.cache(by_name(name, i as u64).unwrap(), cfg),
            };
        }
        let mut sys = b.build();
        let model = SharingModel {
            p_shared: 0.1,
            line_size: LINE as u64,
            ..SharingModel::default()
        };
        let mut streams: Vec<Box<dyn RefStream + Send>> = (0..cpus)
            .map(|cpu| Box::new(DuboisBriggs::new(cpu, model, 9)) as _)
            .collect();
        sys.run_timed(&mut streams, 800, 50)
    };
    let none = run("none", 8);
    let moesi = run("moesi", 8);
    assert!(
        none.bus_utilization() > 0.99,
        "cacheless bus must saturate: {none}"
    );
    assert!(
        moesi.refs_per_us() > 3.0 * none.refs_per_us(),
        "copy-back caches must multiply aggregate throughput ({} vs {})",
        moesi.refs_per_us(),
        none.refs_per_us()
    );
    let one = run("moesi", 1);
    let four = run("moesi", 4);
    assert!(
        four.refs_per_us() > 1.2 * one.refs_per_us(),
        "caches must scale: 4 CPUs ({}) vs 1 ({})",
        four.refs_per_us(),
        one.refs_per_us()
    );
}
