//! Allocation budget of the bus transaction path: once a machine is warm,
//! write transactions, forwarded broadcasts and address-only transactions
//! allocate nothing. A write borrows its payload all the way down the tree,
//! every bus reuses its reply buffer, and memory lines are updated in place.
//!
//! This binary installs a counting global allocator, so it is its own test
//! target. The count is per thread, so the harness's other test threads do
//! not disturb it.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

use cache_array::{CacheConfig, ReplacementKind};
use futurebus::TransactionRequest;
use moesi::protocols::MoesiPreferred;
use moesi::MasterSignals;
use mpsim::hierarchy::TreeBuilder;
use mpsim::SystemBuilder;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        SystemAlloc.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        SystemAlloc.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        SystemAlloc.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const LINE: usize = 32;

/// The fixed line set every machine is warmed over.
fn lines() -> impl Iterator<Item = u64> {
    (0..8u64).map(|i| 0x1000 + i * LINE as u64)
}

fn cfg() -> CacheConfig {
    CacheConfig::new(4096, LINE, 4, ReplacementKind::Lru)
}

#[test]
fn warm_flat_writes_and_invalidates_allocate_nothing() {
    let mut sys = (0..4)
        .fold(SystemBuilder::new(LINE), |b, _| {
            b.cache(Box::new(MoesiPreferred::new()), cfg())
        })
        .build();
    // Every processor holds every line shared, so each write below is a
    // broadcast write that updates the other three copies.
    let writes = |sys: &mut mpsim::System, round: u8| {
        for (i, line) in lines().enumerate() {
            sys.write((i + usize::from(round)) % 4, line + 4, &[round; 4]);
        }
    };
    for cpu in 0..4 {
        for line in lines() {
            let _ = sys.read(cpu, line, 4);
        }
    }
    writes(&mut sys, 1);
    let transactions = sys.bus_stats().transactions;
    assert_eq!(allocations(|| writes(&mut sys, 2)), 0, "processor writes");
    assert_eq!(sys.bus_stats().transactions - transactions, 8);

    let fabric = sys.fabric_mut();
    let ext = fabric.external_master();
    let payload = [9u8; 8];
    let external_writes: Vec<TransactionRequest> = lines()
        .map(|line| TransactionRequest::write(ext, line, MasterSignals::IM_BC, 8, &payload[..]))
        .collect();
    let invalidates: Vec<TransactionRequest> = lines()
        .map(|line| TransactionRequest::address_only(ext, line, MasterSignals::CA_IM))
        .collect();
    let mut run = |reqs: &[TransactionRequest]| {
        for req in reqs {
            fabric.run_txn(req);
        }
    };
    assert_eq!(allocations(|| run(&external_writes)), 0, "bus writes");
    assert_eq!(allocations(|| run(&invalidates)), 0, "address-only");
}

#[test]
fn warm_tree_broadcasts_allocate_nothing() {
    // Depth 3: 2 root subtrees × 2 leaf clusters × 2 processors.
    let mut sys = TreeBuilder::uniform(LINE, 2, 3, 2, 2, |_, _| {
        (
            Box::new(MoesiPreferred::new()) as Box<dyn moesi::Protocol + Send>,
            Some(cfg()),
        )
    })
    .build();
    let paths = sys.leaf_paths();
    // Every leaf holds every line shared, so each write below broadcasts on
    // every bus level above its leaf, and every other subtree's bridges
    // forward it down to their caches.
    let writes = |sys: &mut mpsim::hierarchy::HierarchicalSystem, round: u8| {
        for (i, line) in lines().enumerate() {
            let path = &paths[(i + usize::from(round)) % paths.len()];
            sys.write_at(path, i % 2, line + 4, &[round; 4]);
        }
    };
    for path in &paths {
        for cpu in 0..2 {
            for line in lines() {
                let _ = sys.read_at(path, cpu, line, 4);
            }
        }
    }
    writes(&mut sys, 1);
    let forwarded: u64 = sys
        .bridges_preorder()
        .iter()
        .map(|b| b.stats().updates_in)
        .sum();
    assert_eq!(allocations(|| writes(&mut sys, 2)), 0, "tree writes");
    let after: u64 = sys
        .bridges_preorder()
        .iter()
        .map(|b| b.stats().updates_in)
        .sum();
    assert!(after > forwarded, "the writes must forward broadcasts");
    assert!(sys.parent_errors().is_empty());
}
