//! Per-layer host costs, timed from outside.
//!
//! The engine, bus, cache array, policy and memory are called from inside
//! the program, so the benchmark cannot span them. Instead it times the same
//! public function on the workload's own operands in isolation and
//! multiplies by the run's operation counts. The policy's call counts are
//! exact — a counting replica of the machine wraps every protocol — and the
//! replica must reproduce the measured cell's digest, so the counts describe
//! the same work.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bench::sweep::CPU_WORK_NS;
use bench::LINE;
use cache_array::CacheArray;
use futurebus::{SparseMemory, TransactionRequest};
use moesi::protocols::by_name;
use moesi::{
    BusEvent, BusReaction, CacheKind, IllegalCell, LineState, LocalAction, LocalCtx, LocalEvent,
    MasterSignals, PolicyTable, Protocol, SnoopCtx,
};
use mpsim::{Access, SystemBuilder};

use crate::cells::{self, CellSpec, Digest, Shape};

/// Repeats `body` until its timed regions add up to `min_ns` (and at least
/// [`MIN_REPS`] times, or until ten times `min_ns` of wall time has gone by)
/// and returns the least mean ns per operation over the repetitions — the
/// same best-of estimate the end-to-end throughput uses, so the isolated
/// costs and the end-to-end cost see the host's noise alike. `body` returns
/// `(operations, ns)` for the region it timed, so per-repetition preparation
/// such as building a fresh machine stays off the clock.
fn time_per_op(min_ns: u64, mut body: impl FnMut() -> (u64, u64)) -> f64 {
    let wall = Instant::now();
    let (mut reps, mut ns, mut best) = (0, 0u64, f64::INFINITY);
    loop {
        let (o, n) = body();
        reps += 1;
        ns += n;
        if o > 0 {
            best = best.min(n as f64 / o as f64);
        }
        let spent = ns >= min_ns || wall.elapsed().as_nanos() as u64 >= 10 * min_ns;
        if spent && reps >= MIN_REPS && best.is_finite() {
            return best;
        }
    }
}

/// Fewest repetitions any isolated cost is the best of.
const MIN_REPS: usize = 5;

/// Times `f`, which returns how many operations it made.
fn clocked(f: impl FnOnce() -> u64) -> (u64, u64) {
    let start = Instant::now();
    let ops = f();
    (ops, start.elapsed().as_nanos() as u64)
}

/// Per-cell isolation budget, per measured function.
const BUDGET_NS: u64 = 4_000_000;

/// Protocol calls a counting replica observed.
#[derive(Clone, Debug, Default)]
pub struct CallCounts {
    local: Arc<AtomicU64>,
    bus: Arc<AtomicU64>,
}

impl CallCounts {
    /// `(on_local calls, on_bus calls)` so far.
    #[must_use]
    pub fn get(&self) -> (u64, u64) {
        (
            self.local.load(Ordering::Relaxed),
            self.bus.load(Ordering::Relaxed),
        )
    }
}

/// A protocol that forwards every call to `inner` and counts the decisions.
struct Counted {
    inner: Box<dyn Protocol + Send>,
    counts: CallCounts,
}

impl Protocol for Counted {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn kind(&self) -> CacheKind {
        self.inner.kind()
    }
    fn requires_bs(&self) -> bool {
        self.inner.requires_bs()
    }
    fn on_local(&mut self, state: LineState, event: LocalEvent, ctx: &LocalCtx) -> LocalAction {
        self.counts.local.fetch_add(1, Ordering::Relaxed);
        self.inner.on_local(state, event, ctx)
    }
    fn on_bus(&mut self, state: LineState, event: BusEvent, ctx: &SnoopCtx) -> BusReaction {
        self.counts.bus.fetch_add(1, Ordering::Relaxed);
        self.inner.on_bus(state, event, ctx)
    }
    fn try_on_local(
        &mut self,
        state: LineState,
        event: LocalEvent,
        ctx: &LocalCtx,
    ) -> Result<LocalAction, IllegalCell> {
        self.counts.local.fetch_add(1, Ordering::Relaxed);
        self.inner.try_on_local(state, event, ctx)
    }
    fn try_on_bus(
        &mut self,
        state: LineState,
        event: BusEvent,
        ctx: &SnoopCtx,
    ) -> Result<BusReaction, IllegalCell> {
        self.counts.bus.fetch_add(1, Ordering::Relaxed);
        self.inner.try_on_bus(state, event, ctx)
    }
    fn policy_table(&self) -> Option<&PolicyTable> {
        self.inner.policy_table()
    }
    fn table_is_exact(&self) -> bool {
        self.inner.table_is_exact()
    }
}

thread_local! {
    static COUNTS: std::cell::RefCell<CallCounts> = std::cell::RefCell::default();
}

fn counted(inner: Box<dyn Protocol + Send>) -> Box<dyn Protocol + Send> {
    let counts = COUNTS.with(|c| c.borrow().clone());
    Box::new(Counted { inner, counts })
}

/// Runs a replica of the cell whose every protocol counts its calls, with
/// the oracle off, and returns its digest and the calls. The caller demands
/// the digest equal the measured cell's.
#[must_use]
pub fn count_decisions(spec: &CellSpec, seed: u64) -> (Digest, CallCounts) {
    let counts = CallCounts::default();
    COUNTS.with(|c| *c.borrow_mut() = counts.clone());
    let digest = match &spec.shape {
        Shape::Flat { cpus, .. } => {
            // `bench::homogeneous_system`'s machine, protocols wrapped.
            let mut b = SystemBuilder::new(LINE)
                .timing(futurebus::TimingConfig::default())
                .checking(false);
            for i in 0..*cpus {
                let p = by_name(&spec.protocol, 1000 + i as u64).expect("shipped protocol");
                b = b.cache(counted(p), spec.cache_config());
            }
            let mut sys = b.build();
            let report = sys.run_timed(
                &mut cells::flat_streams(spec, seed),
                spec.steps,
                CPU_WORK_NS,
            );
            cells::flat_digest(&sys, &report)
        }
        Shape::Tree { .. } => {
            let mut sys = cells::tree_machine(spec, seed, false, counted);
            sys.run(&mut cells::tree_streams(spec, seed), spec.steps);
            cells::tree_digest(&sys, spec.accesses())
        }
    };
    (digest, counts)
}

/// Ns per `Protocol::try_on_local` / `try_on_bus` call, over every
/// legal cell of the protocol's tables.
#[must_use]
pub fn decide_ns(protocol: &str) -> f64 {
    let mut p = by_name(protocol, 1000).expect("shipped protocol");
    let local_ctx = LocalCtx {
        recency_rank: Some(0),
        ways: 2,
        line_addr: Some(0),
    };
    let snoop_ctx = SnoopCtx {
        recency_rank: Some(0),
        ways: 2,
        line_addr: Some(0),
    };
    let mut local = Vec::new();
    let mut bus = Vec::new();
    for state in LineState::ALL {
        for event in LocalEvent::ALL {
            if p.try_on_local(state, event, &local_ctx).is_ok() {
                local.push((state, event));
            }
        }
        if state.is_valid() {
            for event in BusEvent::ALL {
                if p.try_on_bus(state, event, &snoop_ctx).is_ok() {
                    bus.push((state, event));
                }
            }
        }
    }
    time_per_op(BUDGET_NS, || {
        clocked(|| {
            for _ in 0..64 {
                for &(s, e) in &local {
                    black_box(p.try_on_local(black_box(s), e, &local_ctx).ok());
                }
                for &(s, e) in &bus {
                    black_box(p.try_on_bus(black_box(s), e, &snoop_ctx).ok());
                }
            }
            64 * (local.len() + bus.len()) as u64
        })
    })
}

/// The first accesses of each of the cell's streams, freshly generated.
fn operands(spec: &CellSpec, seed: u64, per_cpu: u64) -> Vec<(usize, Access)> {
    let mut streams = cells::flat_streams(spec, seed);
    let mut out = Vec::new();
    for _ in 0..per_cpu.min(spec.steps) {
        for (cpu, s) in streams.iter_mut().enumerate() {
            out.push((cpu, s.next_access()));
        }
    }
    out
}

fn lines_of(ops: &[(usize, Access)]) -> Vec<u64> {
    let mut lines: Vec<u64> = ops
        .iter()
        .map(|(_, a)| a.addr & !(LINE as u64 - 1))
        .collect();
    lines.sort_unstable();
    lines.dedup();
    lines
}

/// Isolated host costs of the layers a flat cell runs through.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlatCosts {
    /// `CacheArray::touch_state` on the cell's addresses.
    pub lookup_ns: f64,
    /// `CacheArray::fill` evicting a victim.
    pub fill_ns: f64,
    /// `Fabric::run_txn`, per kind: read, write, address-only.
    pub txn_ns: [f64; 3],
    /// `SparseMemory::read_line` / `write_line`.
    pub memory_op_ns: f64,
    /// One access through `Fabric::read_dataless` / `write_fast`.
    pub fabric_access_ns: f64,
}

/// Times the cell's layers on its own operands.
#[must_use]
pub fn flat_costs(spec: &CellSpec, seed: u64) -> FlatCosts {
    let ops = operands(spec, seed, 2000);
    let lines = lines_of(&ops);
    let cfg = spec.cache_config();

    // Cache array: warm with the cell's lines, then probe its addresses.
    let mut array: CacheArray<LineState> = CacheArray::new(cfg, 1);
    for &l in &lines {
        let _ = array.fill(l, LineState::Shareable, vec![0; LINE].into_boxed_slice());
    }
    let lookup_ns = time_per_op(BUDGET_NS, || {
        clocked(|| {
            for (_, a) in &ops {
                black_box(array.touch_state(black_box(a.addr)));
            }
            ops.len() as u64
        })
    });
    // Fills of never-resident tags on the cell's sets, so each one evicts.
    let mut round = 1u64;
    let fill_ns = time_per_op(BUDGET_NS, || {
        let data: Vec<Box<[u8]>> = lines
            .iter()
            .map(|_| vec![0; LINE].into_boxed_slice())
            .collect();
        round += 1;
        // The payloads are allocated off the clock: on the bus path the
        // line arrives already boxed.
        clocked(|| {
            for (&l, d) in lines.iter().zip(data) {
                black_box(array.fill(l + (round << 40), LineState::Shareable, d));
            }
            lines.len() as u64
        })
    });

    // One bus transaction per kind, mastered by the external index so the
    // processors' counters stay untouched, on a machine warmed by the run.
    let mut sys = cells::flat_machine(spec, false);
    sys.run_timed(
        &mut cells::flat_streams(spec, seed),
        spec.steps,
        CPU_WORK_NS,
    );
    let fabric = sys.fabric_mut();
    let ext = fabric.external_master();
    let mut txn_ns = [0.0; 3];
    for (kind, slot) in txn_ns.iter_mut().enumerate() {
        let reqs: Vec<TransactionRequest> = lines
            .iter()
            .map(|&l| match kind {
                0 => TransactionRequest::read(ext, l, MasterSignals::NONE),
                1 => TransactionRequest::write(ext, l, MasterSignals::IM, 0, vec![1; 4]),
                _ => TransactionRequest::address_only(ext, l, MasterSignals::CA_IM),
            })
            .collect();
        *slot = time_per_op(BUDGET_NS, || {
            clocked(|| {
                for req in &reqs {
                    black_box(fabric.run_txn(black_box(req)));
                }
                reqs.len() as u64
            })
        });
    }

    let mut memory = SparseMemory::new(LINE);
    let payload = vec![7u8; LINE];
    let memory_op_ns = time_per_op(BUDGET_NS, || {
        clocked(|| {
            for &l in &lines {
                memory.write_line(l, &payload);
                black_box(memory.read_line(black_box(l)));
            }
            2 * lines.len() as u64
        })
    });

    // The fabric's access path on a fresh machine, in round-robin order.
    let all = operands(spec, seed, spec.steps);
    let payload = [0xA5u8; 64];
    let fabric_access_ns = time_per_op(BUDGET_NS, || {
        let mut sys = cells::flat_machine(spec, false);
        let fabric = sys.fabric_mut();
        clocked(|| {
            for &(cpu, a) in &all {
                if a.is_write {
                    fabric.write_fast(cpu, a.addr, &payload[..a.size.min(64)]);
                } else {
                    fabric.read_dataless(cpu, a.addr, a.size);
                }
            }
            all.len() as u64
        })
    });

    FlatCosts {
        lookup_ns,
        fill_ns,
        txn_ns,
        memory_op_ns,
        fabric_access_ns,
    }
}

/// Ns per `HierarchicalSystem::leaf_fabric(leaf)` call, over every leaf.
#[must_use]
pub fn leaf_lookup_ns(sys: &mpsim::hierarchy::HierarchicalSystem) -> f64 {
    let leaves = sys.leaves();
    time_per_op(BUDGET_NS / 4, || {
        clocked(|| {
            for _ in 0..64 {
                for leaf in 0..leaves {
                    black_box(sys.leaf_fabric(black_box(leaf)));
                }
            }
            64 * leaves as u64
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_counting_replica_reproduces_the_cell_and_counts_calls() {
        let mut spec = cells::workload("sweep-coherence").unwrap().cells.remove(0);
        spec.steps = 100;
        let measured = cells::run(&spec, cells::build(&spec, 7), false);
        let (digest, counts) = count_decisions(&spec, 7);
        assert_eq!(digest, measured.digest);
        let (local, bus) = counts.get();
        assert!(local > 0 && bus > 0);
    }

    #[test]
    fn isolated_costs_are_positive() {
        assert!(decide_ns("moesi") > 0.0);
        let mut spec = cells::workload("sweep-local").unwrap().cells.remove(0);
        spec.steps = 50;
        let c = flat_costs(&spec, 7);
        assert!(c.lookup_ns > 0.0 && c.fill_ns > 0.0 && c.memory_op_ns > 0.0);
        assert!(c.txn_ns.iter().all(|&t| t > 0.0));
        assert!(c.fabric_access_ns > 0.0);
    }
}
