//! Shared harness code for the table/figure regeneration binaries, the
//! `moesi-sim bench` sweeps and the shape tests.
//!
//! The experiment index lives in `DESIGN.md`; each experiment id (T1–T7,
//! F1–F4, E1–E11) maps to a function here, a binary under `src/bin/`, or a
//! test under `tests/`.

#![warn(missing_docs)]

pub mod hierarchy;
pub mod sweep;

use cache_array::{CacheConfig, ReplacementKind};
use futurebus::TimingConfig;
use moesi::protocols::by_name;
use moesi::{PolicyTable, TablePolicy};
use mpsim::workload::{
    DuboisBriggs, FalseSharing, Migratory, PingPong, ProducerConsumer, ReadMostly, SharingModel,
};
use mpsim::{RefStream, System, SystemBuilder};

/// The standard line size used across the experiments (bytes).
pub const LINE: usize = 32;

/// The protocols compared in the E2/E3 experiments, in presentation order.
pub const COMPARED_PROTOCOLS: &[&str] = &[
    "moesi",
    "moesi-invalidating",
    "puzak",
    "berkeley",
    "dragon",
    "write-once",
    "illinois",
    "firefly",
    "synapse",
    "write-through",
    "hybrid",
];

/// The named workloads used across the experiments.
pub const WORKLOADS: &[&str] = &[
    "general",
    "ping-pong",
    "read-mostly",
    "migratory",
    "producer-consumer",
    "false-sharing",
];

/// Builds a homogeneous `cpus`-node system of `protocol` caches.
///
/// # Panics
///
/// Panics on an unknown protocol name.
#[must_use]
pub fn homogeneous_system(
    protocol: &str,
    cpus: usize,
    cache_bytes: usize,
    line: usize,
    timing: TimingConfig,
    checking: bool,
) -> System {
    let cfg = CacheConfig::new(cache_bytes, line, 2, ReplacementKind::Lru);
    let mut b = SystemBuilder::new(line).timing(timing).checking(checking);
    for i in 0..cpus {
        b = b.cache(
            by_name(protocol, 1000 + i as u64)
                .unwrap_or_else(|| panic!("unknown protocol {protocol}")),
            cfg,
        );
    }
    b.build()
}

/// A homogeneous machine like [`homogeneous_system`], but every node runs a
/// given [`PolicyTable`] through the generic `TablePolicy` interpreter
/// instead of a shipped protocol looked up by name. This is how the synth
/// subsystem scores candidate tables that exist nowhere in the registry.
#[must_use]
pub fn homogeneous_table_system(
    table: PolicyTable,
    cpus: usize,
    cache_bytes: usize,
    line: usize,
    timing: TimingConfig,
    checking: bool,
) -> System {
    let cfg = CacheConfig::new(cache_bytes, line, 2, ReplacementKind::Lru);
    let mut b = SystemBuilder::new(line).timing(timing).checking(checking);
    for _ in 0..cpus {
        b = b.cache(Box::new(TablePolicy::new(table)), cfg);
    }
    b.build()
}

/// Builds per-CPU reference streams for a named workload.
///
/// # Panics
///
/// Panics on an unknown workload name.
#[must_use]
pub fn workload_streams(
    kind: &str,
    cpus: usize,
    line: usize,
    seed: u64,
) -> Vec<Box<dyn RefStream + Send>> {
    let line = line as u64;
    (0..cpus)
        .map(|cpu| -> Box<dyn RefStream + Send> {
            match kind {
                "ping-pong" => Box::new(PingPong::new(cpu, 0, line)),
                "false-sharing" => Box::new(FalseSharing::new(cpu, 0, line, 3)),
                "read-mostly" => Box::new(ReadMostly::new(cpu, 0, 16, line, 8)),
                "migratory" => Box::new(Migratory::new(cpu, cpus, 8, line)),
                "producer-consumer" => {
                    if cpu == 0 {
                        Box::new(ProducerConsumer::producer(8, line))
                    } else {
                        Box::new(ProducerConsumer::consumer(8, line))
                    }
                }
                "general" => Box::new(DuboisBriggs::new(
                    cpu,
                    SharingModel {
                        line_size: line,
                        ..SharingModel::default()
                    },
                    seed,
                )),
                other => panic!("unknown workload {other}"),
            }
        })
        .collect()
}

/// One row of a protocol-comparison table.
#[derive(Clone, Debug)]
pub struct ComparisonRow {
    /// Protocol name.
    pub protocol: String,
    /// Cache hit ratio over all nodes.
    pub hit_ratio: f64,
    /// Total bus transactions.
    pub bus_transactions: u64,
    /// Total bus-busy time in nanoseconds.
    pub bus_ns: u64,
    /// Invalidations received across all nodes.
    pub invalidations: u64,
    /// Broadcast updates received across all nodes.
    pub updates: u64,
    /// Interventions served.
    pub interventions: u64,
    /// BS aborts.
    pub aborts: u64,
}

/// Runs `protocol` on `workload` and summarises (the E2/E3 measurement).
#[must_use]
pub fn compare_one(protocol: &str, workload: &str, cpus: usize, steps: u64) -> ComparisonRow {
    let mut sys = homogeneous_system(protocol, cpus, 4096, LINE, TimingConfig::default(), true);
    let mut streams = workload_streams(workload, cpus, LINE, 7);
    sys.run(&mut streams, steps);
    sys.verify().expect("consistent");
    let t = sys.total_stats();
    let b = sys.bus_stats();
    ComparisonRow {
        protocol: protocol.to_string(),
        hit_ratio: t.hit_ratio(),
        bus_transactions: b.transactions,
        bus_ns: b.busy_ns,
        invalidations: t.invalidations_received,
        updates: t.updates_received,
        interventions: b.interventions,
        aborts: b.aborts,
    }
}

/// Formats comparison rows as an aligned text table.
#[must_use]
pub fn render_comparison(title: &str, rows: &[ComparisonRow]) -> String {
    let mut out = format!("== {title} ==\n");
    out.push_str(&format!(
        "{:<20} {:>7} {:>9} {:>11} {:>8} {:>8} {:>8} {:>7}\n",
        "protocol", "hit%", "bus txns", "bus us", "inval", "update", "interv", "aborts"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<20} {:>6.1}% {:>9} {:>11.1} {:>8} {:>8} {:>8} {:>7}\n",
            r.protocol,
            r.hit_ratio * 100.0,
            r.bus_transactions,
            r.bus_ns as f64 / 1000.0,
            r.invalidations,
            r.updates,
            r.interventions,
            r.aborts,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_compared_protocol_builds_and_runs() {
        for p in COMPARED_PROTOCOLS {
            let row = compare_one(p, "general", 2, 50);
            assert!(row.bus_transactions > 0, "{p} produced no traffic");
        }
    }

    #[test]
    fn every_workload_builds() {
        for w in WORKLOADS {
            let streams = workload_streams(w, 3, LINE, 1);
            assert_eq!(streams.len(), 3, "{w}");
        }
    }

    #[test]
    fn render_includes_all_rows() {
        let rows = vec![compare_one("moesi", "ping-pong", 2, 20)];
        let text = render_comparison("t", &rows);
        assert!(text.contains("moesi"));
        assert!(text.contains("bus txns"));
    }
}
