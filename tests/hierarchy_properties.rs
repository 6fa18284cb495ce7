//! Property-based testing of the §6 hierarchy: random operation sequences
//! across random cluster shapes must preserve the global shared memory
//! image, the hierarchy must be observationally identical to a flat machine,
//! and on deeper fabric trees the bridges' inclusion snoop filters must be
//! invisible to programs while their ledgers conserve every snoop.

use cache_array::{CacheConfig, ReplacementKind};
use moesi::protocols::{Dragon, MoesiInvalidating, MoesiPreferred, WriteThrough};
use moesi::Protocol;
use mpsim::hierarchy::{HierarchicalSystem, HierarchyBuilder, TreeBuilder};
use mpsim::{System, SystemBuilder};
use proptest::prelude::*;

const LINE: usize = 32;

fn cfg() -> CacheConfig {
    CacheConfig::new(512, LINE, 2, ReplacementKind::Lru)
}

fn protocol(i: usize) -> Box<dyn Protocol + Send> {
    match i % 4 {
        0 => Box::new(MoesiPreferred::new()),
        1 => Box::new(MoesiInvalidating::new()),
        2 => Box::new(Dragon::new()),
        _ => Box::new(WriteThrough::new()),
    }
}

/// Builds a hierarchy of `shape[c]` nodes per cluster, protocols cycling.
fn hierarchy(shape: &[usize]) -> HierarchicalSystem {
    let mut b = HierarchyBuilder::new(LINE).checking(true);
    let mut k = 0;
    for &nodes in shape {
        b = b.cluster();
        for _ in 0..nodes {
            b = b.cache(protocol(k), cfg());
            k += 1;
        }
    }
    b.build()
}

/// A depth-3 fabric tree: 2 root subtrees x 2 leaf clusters x 2 caches,
/// protocols cycling, snoop filters on or off.
fn deep(filter: bool) -> HierarchicalSystem {
    let mut k = 0;
    TreeBuilder::uniform(LINE, 2, 3, 2, 2, |_, _| {
        let p = protocol(k);
        k += 1;
        (p, Some(cfg()))
    })
    .snoop_filter(filter)
    .checking(true)
    .build()
}

/// A flat machine with the same nodes in the same order.
fn flat(shape: &[usize]) -> System {
    let mut b = SystemBuilder::new(LINE).checking(true);
    let total: usize = shape.iter().sum();
    for k in 0..total {
        b = b.cache(protocol(k), cfg());
    }
    b.build()
}

#[derive(Clone, Debug)]
struct Op {
    node: usize,
    line: u64,
    offset: u64,
    write: Option<u8>,
}

fn ops_strategy(nodes: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (
            0..nodes,
            0u64..6,
            0u64..7,
            proptest::option::of(any::<u8>()),
        )
            .prop_map(|(node, line, offset, write)| Op {
                node,
                line,
                offset: offset * 4,
                write,
            }),
        1..80,
    )
}

/// Maps a flat node index to (cluster, cpu) under `shape`.
fn locate(shape: &[usize], node: usize) -> (usize, usize) {
    let mut remaining = node;
    for (cluster, &n) in shape.iter().enumerate() {
        if remaining < n {
            return (cluster, remaining);
        }
        remaining -= n;
    }
    unreachable!("node index within total");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn hierarchy_and_flat_machine_observe_identical_values(
        shape_idx in 0usize..3,
        ops in ops_strategy(4),
    ) {
        let shape: &[usize] = match shape_idx {
            0 => &[2, 2],
            1 => &[1, 3],
            _ => &[2, 1, 1],
        };
        let mut hier = hierarchy(shape);
        let mut plain = flat(shape);
        for op in &ops {
            let addr = 0x1000 + op.line * LINE as u64 + op.offset;
            let (cluster, cpu) = locate(shape, op.node);
            match op.write {
                Some(v) => {
                    hier.write(cluster, cpu, addr, &[v; 4]);
                    plain.write(op.node, addr, &[v; 4]);
                }
                None => {
                    let h = hier.read(cluster, cpu, addr, 4);
                    let f = plain.read(op.node, addr, 4);
                    prop_assert_eq!(h, f, "observational divergence at {:#x}", addr);
                }
            }
        }
        prop_assert!(hier.verify().is_ok());
        prop_assert!(plain.verify().is_ok());
    }

    #[test]
    fn deep_tree_snoop_filter_is_invisible_and_inclusion_holds(
        ops in ops_strategy(8),
    ) {
        // Run the same random program on two depth-3 trees that differ only
        // in the snoop filter. The filter may only suppress snoops whose
        // subtree provably holds no copy, so every read must observe the
        // same bytes, and both trees must pass the full inclusion audit
        // (`verify` rejects any copy cached below an Invalid bridge tag).
        let mut filtered = deep(true);
        let mut flooded = deep(false);
        let paths = filtered.leaf_paths();
        for op in &ops {
            let addr = 0x1000 + op.line * LINE as u64 + op.offset;
            let (leaf, cpu) = (op.node / 2, op.node % 2);
            match op.write {
                Some(v) => {
                    filtered.write_at(&paths[leaf], cpu, addr, &[v; 4]);
                    flooded.write_at(&paths[leaf], cpu, addr, &[v; 4]);
                }
                None => {
                    let a = filtered.read_at(&paths[leaf], cpu, addr, 4);
                    let b = flooded.read_at(&paths[leaf], cpu, addr, 4);
                    prop_assert_eq!(a, b, "snoop filter changed a read at {:#x}", addr);
                }
            }
        }
        prop_assert!(filtered.verify().is_ok(), "inclusion violated with filter on");
        prop_assert!(flooded.verify().is_ok(), "inclusion violated with filter off");
    }

    #[test]
    fn deep_tree_filter_ledgers_conserve_every_snoop(
        ops in ops_strategy(8),
        filter in any::<bool>(),
    ) {
        let mut sys = deep(filter);
        let paths = sys.leaf_paths();
        for op in &ops {
            let addr = 0x1000 + op.line * LINE as u64 + op.offset;
            let (leaf, cpu) = (op.node / 2, op.node % 2);
            match op.write {
                Some(v) => sys.write_at(&paths[leaf], cpu, addr, &[v; 4]),
                None => {
                    let _ = sys.read_at(&paths[leaf], cpu, addr, 4);
                }
            }
        }
        for bridge in sys.bridges_preorder() {
            let s = bridge.stats();
            prop_assert_eq!(
                s.forwarded + s.suppressed,
                s.snooped,
                "bridge ledger leaked a snoop"
            );
            if !filter {
                prop_assert_eq!(s.suppressed, 0, "disabled filter must forward everything");
            }
        }
    }

    #[test]
    fn random_ops_with_global_sync_stay_consistent(
        ops in ops_strategy(4),
        sync_every in 5usize..20,
    ) {
        let shape = &[2usize, 2];
        let mut sys = hierarchy(shape);
        for (i, op) in ops.iter().enumerate() {
            let addr = 0x1000 + op.line * LINE as u64 + op.offset;
            let (cluster, cpu) = locate(shape, op.node);
            match op.write {
                Some(v) => sys.write(cluster, cpu, addr, &[v; 4]),
                None => {
                    let _ = sys.read(cluster, cpu, addr, 4);
                }
            }
            if i % sync_every == 0 {
                sys.make_globally_consistent();
            }
        }
        prop_assert!(sys.verify().is_ok());
    }
}

#[test]
fn hierarchy_survives_eviction_pressure() {
    // Tiny caches force evictions inside clusters; write-backs land in the
    // mirror, ownership stays at cluster level, and everything stays golden.
    let shape = &[2usize, 2];
    let mut sys = hierarchy(shape);
    for i in 0..120u32 {
        let (cluster, cpu) = locate(shape, (i % 4) as usize);
        let addr = 0x1000 + u64::from(i % 24) * LINE as u64;
        if i % 3 == 0 {
            sys.write(cluster, cpu, addr, &i.to_le_bytes());
        } else {
            let _ = sys.read(cluster, cpu, addr, 4);
        }
    }
    sys.verify().expect("consistent under eviction pressure");
}
