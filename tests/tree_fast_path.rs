//! Differential test of the fabric tree's unchecked fast path.
//!
//! Without an oracle, `HierarchicalSystem::run` reads dataless, builds write
//! payloads on the stack and skips every audit. With one, each access goes
//! through `read_at`/`write_at`, returns its bytes and is audited. The
//! simulated work must not differ: after the same streams, and after
//! `make_globally_consistent` on both, every bus's `BusStats`, every
//! `BridgeStats`, every `CpuStats` and the root memory image are identical,
//! and the checked machine passes `verify()`.
//!
//! The grid covers depth 2 and depth 3, all three arbitration disciplines,
//! the snoop filter on and off, and a bridge retired halfway through (its
//! cluster then runs memory-direct). The streams mix shared and private
//! lines at any offset, so some accesses cross into the next line — and a
//! few are longer than the 64-byte stack payload.

use cache_array::{CacheConfig, ReplacementKind};
use futurebus::{BusStats, Discipline};
use moesi::protocols::by_name;
use moesi::rng::SmallRng;
use mpsim::hierarchy::{BridgeStats, HierarchicalSystem, TreeBuilder};
use mpsim::{Access, CpuStats, RefStream};

const LINE: usize = 32;
const SHARED: u64 = 0x1000_0000;
const PRIVATE: u64 = 0x2000_0000;
const STEPS: u64 = 120;

/// Random accesses: half to 12 shared lines, half to 8 lines private to
/// this cache, at any offset, mostly 1–8 bytes long and one in sixteen
/// 60–80 bytes long (two or three lines, past the stack payload).
struct Crossing {
    rng: SmallRng,
    private: u64,
}

impl RefStream for Crossing {
    fn next_access(&mut self) -> Access {
        let rng = &mut self.rng;
        let (base, lines) = if rng.gen_bool(0.5) {
            (SHARED, 12)
        } else {
            (self.private, 8)
        };
        let addr = base + rng.gen_range(0..lines) * LINE as u64 + rng.gen_range(0..LINE as u64);
        let size = if rng.gen_range(0..16u32) == 0 {
            rng.gen_range(60..81usize)
        } else {
            rng.gen_range(1..9usize)
        };
        Access {
            addr,
            size,
            is_write: rng.gen_bool(0.4),
        }
    }
}

fn streams(sys: &HierarchicalSystem, seed: u64) -> Vec<Vec<Box<dyn RefStream + Send>>> {
    (0..sys.leaves())
        .map(|leaf| {
            (0..sys.leaf_fabric(leaf).nodes())
                .map(|cpu| {
                    let id = (leaf * 16 + cpu) as u64;
                    Box::new(Crossing {
                        rng: SmallRng::seed_from_u64(seed ^ (id << 8)),
                        private: PRIVATE + id * 0x1_0000,
                    }) as Box<dyn RefStream + Send>
                })
                .collect()
        })
        .collect()
}

/// Two root clusters, fan-out 2 below them, two caches per leaf; small
/// caches, so victims are written back often.
fn machine(
    depth: usize,
    discipline: Discipline,
    filter: bool,
    checking: bool,
) -> HierarchicalSystem {
    let names = ["moesi", "dragon", "berkeley"];
    let mut sys = TreeBuilder::uniform(LINE, 2, depth, 2, 2, |leaf, cpu| {
        let protocol = by_name(names[(leaf + cpu) % names.len()], 1).expect("shipped protocol");
        let cfg = CacheConfig::new(8 * LINE, LINE, 2, ReplacementKind::Lru);
        (protocol, Some(cfg))
    })
    .checking(checking)
    .build();
    sys.set_discipline(discipline);
    sys.set_snoop_filter(filter);
    sys
}

/// One `run` call's access order and payloads (the write sequence number
/// starts at zero in each call), as one audited `read_at`/`write_at` at a
/// time.
fn drive_checked(
    sys: &mut HierarchicalSystem,
    streams: &mut [Vec<Box<dyn RefStream + Send>>],
    steps: u64,
) {
    let paths = sys.leaf_paths();
    let mut seq: u32 = 0;
    for _ in 0..steps {
        for (path, leaf_streams) in paths.iter().zip(streams.iter_mut()) {
            for (cpu, stream) in leaf_streams.iter_mut().enumerate() {
                let access = stream.next_access();
                if access.is_write {
                    seq = seq.wrapping_add(1);
                    let pattern = seq.to_le_bytes();
                    let bytes: Vec<u8> = (0..access.size).map(|i| pattern[i % 4]).collect();
                    sys.write_at(path, cpu, access.addr, &bytes);
                } else {
                    let _ = sys.read_at(path, cpu, access.addr, access.size);
                }
            }
        }
    }
}

/// Everything the comparison covers.
#[derive(Debug, PartialEq)]
struct Snapshot {
    buses: Vec<BusStats>,
    bridges: Vec<BridgeStats>,
    cpus: Vec<CpuStats>,
    root_memory: Vec<(u64, Box<[u8]>)>,
}

fn snapshot(sys: &HierarchicalSystem) -> Snapshot {
    let mut buses = vec![*sys.parent_stats()];
    let mut bridges = Vec::new();
    for bridge in sys.bridges_preorder() {
        buses.push(*match bridge.segment() {
            Some(seg) => seg.bus().stats(),
            None => bridge.fabric().bus().stats(),
        });
        bridges.push(*bridge.stats());
    }
    let cpus = (0..sys.leaves())
        .flat_map(|leaf| {
            let fabric = sys.leaf_fabric(leaf);
            fabric
                .controllers()
                .iter()
                .map(|c| *c.stats())
                .collect::<Vec<_>>()
        })
        .collect();
    let memory = sys.parent_bus().memory();
    let root_memory = memory
        .line_addrs()
        .into_iter()
        .map(|line| (line, memory.peek_line(line)))
        .collect();
    Snapshot {
        buses,
        bridges,
        cpus,
        root_memory,
    }
}

/// Runs the same streams through an unchecked `run` and a checked
/// `read_at`/`write_at` drive, retiring root cluster 1's bridge halfway
/// when asked, and compares the two machines.
fn compare(depth: usize, discipline: Discipline, filter: bool, retire: bool) {
    let what = format!("depth {depth}, {discipline}, filter {filter}, retire {retire}");
    let seed = 0x5EED ^ depth as u64;
    let mut fast = machine(depth, discipline, filter, false);
    let mut checked = machine(depth, discipline, filter, true);
    let mut fast_streams = streams(&fast, seed);
    let mut checked_streams = streams(&checked, seed);
    let half = STEPS / 2;

    fast.run(&mut fast_streams, half);
    drive_checked(&mut checked, &mut checked_streams, half);
    if retire {
        fast.retire_bridge(1, true);
        checked.retire_bridge(1, true);
    }
    fast.run(&mut fast_streams, STEPS - half);
    drive_checked(&mut checked, &mut checked_streams, STEPS - half);

    fast.make_globally_consistent();
    checked.make_globally_consistent();
    checked.verify().unwrap_or_else(|v| panic!("{what}: {v}"));
    let (fast, checked) = (snapshot(&fast), snapshot(&checked));
    assert!(
        fast.bridges.iter().any(|b| b.degraded_accesses > 0) == retire,
        "{what}: the retired cluster must run memory-direct"
    );
    assert!(
        fast.cpus.iter().any(|c| c.reads > 0 && c.writes > 0),
        "{what}: the streams must both read and write"
    );
    assert_eq!(fast.buses, checked.buses, "{what}: bus stats differ");
    assert_eq!(fast.bridges, checked.bridges, "{what}: bridge stats differ");
    assert_eq!(fast.cpus, checked.cpus, "{what}: cpu stats differ");
    assert!(
        fast.root_memory == checked.root_memory,
        "{what}: root memory images differ"
    );
}

fn grid(depth: usize) {
    for discipline in Discipline::ALL {
        for filter in [true, false] {
            for retire in [false, true] {
                compare(depth, discipline, filter, retire);
            }
        }
    }
}

#[test]
fn depth_two_fast_path_matches_checked_accesses() {
    grid(2);
}

#[test]
fn depth_three_fast_path_matches_checked_accesses() {
    grid(3);
}

#[test]
fn the_streams_cross_lines_and_outgrow_the_stack_payload() {
    let sys = machine(2, Discipline::Priority, true, false);
    let mut streams = streams(&sys, 0x5EED);
    let accesses: Vec<Access> = (0..400).map(|_| streams[0][0].next_access()).collect();
    let crosses = |a: &&Access| a.addr % LINE as u64 + a.size as u64 > LINE as u64;
    assert!(accesses.iter().filter(crosses).count() > 20);
    assert!(accesses.iter().any(|a| a.is_write && a.size > 64));
}
