//! Differential test of the touched-line audit.
//!
//! After every access, `System` and `HierarchicalSystem` audit only the
//! lines that access touched. Every invariant concerns one line, so if the
//! machine was consistent before the access, that audit must give exactly
//! the verdict of a full sweep. Each test below drives a machine through
//! `try_read`/`try_write` (which return the touched-line verdict) and after
//! every access compares it with `verify()` (the full sweep): same
//! `Result`, same `Violation`, at the same step.
//!
//! Healthy machines must stay `Ok` throughout. Mutated policy tables, a
//! controller that drops dirty victims, and model-checker counterexamples
//! replayed concretely supply the violations, since the interesting case is
//! that both oracles name the same *first* one.

use cache_array::{CacheConfig, ReplacementKind};
use moesi::protocols::{by_name, MoesiPreferred, RandomPolicy, Scripted};
use moesi::rng::SmallRng;
use moesi::{
    BusEvent, BusReaction, CacheKind, LineState, LocalAction, LocalEvent, PolicyTable, Protocol,
    ResultState, TablePolicy,
};
use mpsim::hierarchy::{HierarchicalSystem, TreeBuilder, TreeSpec};
use mpsim::replay::{replay, ReplayOp, Trace};
use mpsim::{System, SystemBuilder, Violation};
use std::panic::{catch_unwind, AssertUnwindSafe};

const LINE: usize = 32;
const BASE: u64 = 0x1000;

type Node = Box<dyn Protocol + Send>;

/// Four lines per cache over a footprint of 16 lines: clean and dirty
/// evictions happen constantly.
fn small_cache() -> CacheConfig {
    CacheConfig::new(4 * LINE, LINE, 2, ReplacementKind::Lru)
}

/// One processor access; `write` carries the byte value written.
struct Access {
    cpu: usize,
    addr: u64,
    len: usize,
    write: Option<u8>,
}

/// A random access to one of 16 lines, at any offset and up to 8 bytes
/// long, so some accesses cross into the next line.
fn random_access(rng: &mut SmallRng, cpus: usize) -> Access {
    let line = rng.gen_range(0u64..16);
    let offset = rng.gen_range(0u64..LINE as u64);
    let write = rng.gen_bool(0.4).then(|| rng.gen_range(1u32..256) as u8);
    Access {
        cpu: rng.gen_range(0..cpus),
        addr: BASE + line * LINE as u64 + offset,
        len: rng.gen_range(1usize..9),
        write,
    }
}

/// How a differential run ended.
#[derive(Debug, PartialEq)]
enum End {
    /// Every access passed both oracles.
    Clean,
    /// Both oracles reported this first violation at the same step.
    Violated(Violation),
    /// A read returned a wrong value. `check_read` runs before either
    /// audit, so both oracles report it alike.
    WrongRead,
    /// The machine broke the bus protocol outright, which the fabric
    /// reports by panicking before either oracle runs.
    Panicked,
}

/// Compares one access's touched-line verdict with the full sweep; `Some`
/// when the run ends here.
fn judge(
    audit: std::thread::Result<Result<(), Violation>>,
    full: impl FnOnce() -> Result<(), Violation>,
    what: &str,
    step: usize,
) -> Option<End> {
    match audit {
        Err(_) => Some(End::Panicked),
        Ok(Err(Violation::ReadMismatch { .. })) => Some(End::WrongRead),
        Ok(audit) => {
            assert_eq!(audit, full(), "{what}: oracles disagree at step {step}");
            audit.err().map(End::Violated)
        }
    }
}

/// Drives `steps` random accesses through a flat machine, comparing the
/// oracles after each.
fn flat_differential(sys: &mut System, rng: &mut SmallRng, steps: usize, what: &str) -> End {
    for step in 0..steps {
        let a = random_access(rng, sys.nodes());
        let audit = catch_unwind(AssertUnwindSafe(|| match a.write {
            Some(v) => sys.try_write(a.cpu, a.addr, &vec![v; a.len]),
            None => sys.try_read(a.cpu, a.addr, a.len).map(drop),
        }));
        if let Some(end) = judge(audit, || sys.verify(), what, step) {
            return end;
        }
    }
    End::Clean
}

/// [`flat_differential`] for a fabric tree, accesses spread over its leaves.
fn tree_differential(
    sys: &mut HierarchicalSystem,
    rng: &mut SmallRng,
    steps: usize,
    what: &str,
) -> End {
    let paths = sys.leaf_paths();
    let cpus = sys.leaf_fabric(0).nodes();
    for step in 0..steps {
        let path = &paths[rng.gen_range(0..paths.len())];
        let a = random_access(rng, cpus);
        let audit = catch_unwind(AssertUnwindSafe(|| match a.write {
            Some(v) => sys.try_write_at(path, a.cpu, a.addr, &vec![v; a.len]),
            None => sys.try_read_at(path, a.cpu, a.addr, a.len).map(drop),
        }));
        if let Some(end) = judge(audit, || sys.verify(), what, step) {
            return end;
        }
    }
    End::Clean
}

/// The single-cell corruptions of the preferred copy-back table that the
/// model checker's mutation sweep makes and the simulator can execute: a
/// read or write hit silently claims Modified, or a bus cell ignores the
/// event. (A miss, push or flush claiming a silent Modified is a
/// precondition failure the fabric refuses outright.)
fn mutant_tables() -> Vec<(String, PolicyTable)> {
    let base = PolicyTable::preferred("mutant", CacheKind::CopyBack);
    let mut out = Vec::new();
    for state in LineState::ALL {
        for event in [LocalEvent::Read, LocalEvent::Write] {
            let mutation = LocalAction::silent(LineState::Modified);
            if state.is_valid() && base.local(state, event).is_some_and(|c| c != mutation) {
                let mut table = base;
                table.set_local_unchecked(state, event, mutation);
                out.push((format!("local ({state}, {event})"), table));
            }
        }
        for event in BusEvent::ALL {
            let mutation = BusReaction::quiet(state);
            if base.bus(state, event).is_some_and(|c| c != mutation) {
                let mut table = base;
                table.set_bus_unchecked(state, event, mutation);
                out.push((format!("bus ({state}, col {})", event.column()), table));
            }
        }
    }
    out
}

fn flat_system(nodes: Vec<Node>) -> System {
    nodes
        .into_iter()
        .fold(SystemBuilder::new(LINE).checking(true), |b, p| {
            if p.kind() == CacheKind::NonCaching {
                b.uncached(p)
            } else {
                b.cache(p, small_cache())
            }
        })
        .build()
}

#[test]
fn every_compared_protocol_agrees_homogeneous_and_mixed() {
    let mut rng = SmallRng::seed_from_u64(0x0AC1E);
    for (i, name) in bench::COMPARED_PROTOCOLS.iter().enumerate() {
        let homogeneous = (0..4).map(|s| by_name(name, s).unwrap()).collect();
        let mut sys = flat_system(homogeneous);
        let end = flat_differential(&mut sys, &mut rng, 400, name);
        assert_eq!(end, End::Clean, "homogeneous {name} must stay consistent");

        // A mix: this protocol beside its neighbours in the list and a
        // random selector over the whole permitted class.
        let mut mixed: Vec<Node> = (0..3)
            .map(|k| {
                let other = bench::COMPARED_PROTOCOLS[(i + k) % bench::COMPARED_PROTOCOLS.len()];
                by_name(other, k as u64).unwrap()
            })
            .collect();
        mixed.push(Box::new(RandomPolicy::new(CacheKind::CopyBack, i as u64)));
        let mut sys = flat_system(mixed);
        // Mixes with the adapted Write-Once may legitimately break the
        // E-matches-memory rule; the oracles must still agree on it.
        let end = flat_differential(&mut sys, &mut rng, 400, &format!("{name} mix"));
        assert!(
            matches!(end, End::Clean | End::Violated(_)),
            "{name} mix: {end:?}"
        );
    }
}

#[test]
fn random_policies_agree_on_long_runs() {
    let mut rng = SmallRng::seed_from_u64(7);
    for seed in 0..6 {
        let nodes = (0..3)
            .map(|k| Box::new(RandomPolicy::new(CacheKind::CopyBack, seed * 8 + k)) as Node)
            .chain([
                by_name("write-through", 0).unwrap(),
                by_name("non-caching", 0).unwrap(),
            ])
            .collect();
        let mut sys = flat_system(nodes);
        let end = flat_differential(&mut sys, &mut rng, 1500, "random class");
        assert_eq!(
            end,
            End::Clean,
            "class members must stay consistent (seed {seed})"
        );
    }
}

#[test]
fn mutated_tables_fail_at_the_same_step_with_the_same_violation() {
    let mut rng = SmallRng::seed_from_u64(0xBAD);
    let mut caught = 0;
    for (cell, table) in mutant_tables() {
        let nodes: Vec<Node> = vec![
            Box::new(TablePolicy::new(table)),
            Box::new(MoesiPreferred::new()),
            Box::new(MoesiPreferred::new()),
        ];
        let mut sys = flat_system(nodes);
        let end = flat_differential(&mut sys, &mut rng, 600, &cell);
        caught += usize::from(matches!(end, End::Violated(_)));
    }
    assert!(caught >= 8, "only {caught} mutants produced a violation");
}

/// A uniform tree of 2-cache leaves, protocols cycling through `names`.
fn tree(depth: usize, fanout: usize, names: &[&str], filter: bool) -> HierarchicalSystem {
    let mut sys = TreeBuilder::uniform(LINE, 2, depth, fanout, 2, |leaf, cpu| {
        let name = names[(leaf * 2 + cpu) % names.len()];
        let protocol = by_name(name, (leaf * 2 + cpu) as u64).unwrap();
        let cfg = (protocol.kind() != CacheKind::NonCaching).then(small_cache);
        (protocol, cfg)
    })
    .checking(true)
    .build();
    sys.set_snoop_filter(filter);
    sys
}

#[test]
fn trees_agree_at_depth_two_and_three_with_and_without_filters() {
    let mixes: [&[&str]; 3] = [
        &["moesi"],
        &["moesi", "dragon", "berkeley", "write-through"],
        &["moesi-invalidating", "puzak", "hybrid", "random"],
    ];
    let mut rng = SmallRng::seed_from_u64(0x7EE);
    for (depth, fanout) in [(2, 1), (3, 2)] {
        for filter in [true, false] {
            for names in mixes {
                let mut sys = tree(depth, fanout, names, filter);
                let what = format!("depth {depth} filter {filter} {names:?}");
                let end = tree_differential(&mut sys, &mut rng, 500, &what);
                assert_eq!(end, End::Clean, "{what} must stay consistent");
            }
        }
    }
}

#[test]
fn mutated_leaves_in_deep_trees_fail_identically() {
    let mut rng = SmallRng::seed_from_u64(0xDEE9);
    let mut caught = 0;
    for (cell, table) in mutant_tables() {
        let mut sys = TreeBuilder::uniform(LINE, 2, 3, 2, 2, |leaf, cpu| {
            let protocol: Node = if leaf == 0 && cpu == 0 {
                Box::new(TablePolicy::new(table))
            } else {
                Box::new(MoesiPreferred::new())
            };
            (protocol, Some(small_cache()))
        })
        .checking(true)
        .build();
        let end = tree_differential(&mut sys, &mut rng, 400, &cell);
        caught += usize::from(matches!(end, End::Violated(_)));
    }
    assert!(caught >= 8, "only {caught} mutants produced a violation");
}

/// A copy-back node whose snooper, holding a Shareable copy, answers an
/// owner's write-back with DI: it "captures" the pushed line, so memory is
/// never updated and the victim's dirty data silently disappears.
fn victim_dropper() -> Node {
    let mut table = PolicyTable::preferred("victim-dropper", CacheKind::CopyBack);
    table.set_bus_unchecked(
        LineState::Shareable,
        BusEvent::UncachedRead,
        BusReaction {
            result: ResultState::Fixed(LineState::Shareable),
            ch: true,
            di: true,
            sl: false,
            busy: None,
        },
    );
    Box::new(TablePolicy::new(table))
}

/// One set, one way: every miss evicts the previous line.
fn one_line_cache() -> CacheConfig {
    CacheConfig::new(LINE, LINE, 1, ReplacementKind::Lru)
}

#[test]
fn a_dropped_dirty_victim_is_flagged_on_the_victim_line() {
    let (dirty, other) = (BASE, BASE + 0x100);
    let mut sys = SystemBuilder::new(LINE)
        .checking(true)
        .cache(Box::new(MoesiPreferred::new()), one_line_cache())
        .cache(victim_dropper(), one_line_cache())
        .build();
    sys.try_write(0, dirty, &[9; 4]).unwrap();
    sys.try_read(1, dirty, 4).unwrap();
    assert_eq!(sys.state_of(0, dirty), LineState::Owned);
    // cpu0's miss on another line evicts its dirty copy; the write-back is
    // swallowed, and only the victim line, never accessed here, is broken.
    let audit = sys.try_read(0, other, 4).map(drop);
    assert_eq!(audit, Err(Violation::StaleMemory { addr: dirty }));
    assert_eq!(audit, sys.verify());
}

#[test]
fn a_dropped_dirty_victim_inside_a_cluster_is_flagged_on_the_victim_line() {
    let (dirty, other) = (BASE, BASE + 0x100);
    let mut sys = TreeBuilder::new(LINE)
        .checking(true)
        .child(
            TreeSpec::leaf()
                .cache(Box::new(MoesiPreferred::new()), one_line_cache())
                .cache(victim_dropper(), one_line_cache()),
        )
        .child(TreeSpec::leaf().cache(Box::new(MoesiPreferred::new()), one_line_cache()))
        .build();
    sys.try_write_at(&[0], 0, dirty, &[9; 4]).unwrap();
    sys.try_read_at(&[0], 1, dirty, 4).unwrap();
    let audit = sys.try_read_at(&[0], 0, other, 4).map(drop);
    assert!(
        matches!(&audit, Err(Violation::StaleCopy { addr, holder, .. })
            if *addr == dirty && holder == "cluster0 (authoritative)"),
        "{audit:?}"
    );
    assert_eq!(audit, sys.verify());
}

/// Replays a model-checker counterexample on a `System` of scripted
/// controllers — the machine `mpsim::replay` builds — checking every step
/// with the touched-line audit and the full sweep. Returns the step and
/// violation that ended it.
fn replay_on_system(trace: &Trace) -> Option<(usize, Violation)> {
    let mut handles = Vec::new();
    let mut builder = SystemBuilder::new(trace.line_size).checking(true);
    for &kind in &trace.modules {
        let (protocol, handle) = Scripted::new(kind);
        handles.push(handle);
        builder = if kind == CacheKind::NonCaching {
            builder.uncached(Box::new(protocol))
        } else {
            let cfg = CacheConfig::new(
                trace.line_size * 16,
                trace.line_size,
                2,
                ReplacementKind::Lru,
            );
            builder.cache(Box::new(protocol), cfg)
        };
    }
    let mut sys = builder.build();
    for (idx, step) in trace.steps.iter().enumerate() {
        for h in &handles {
            h.clear();
        }
        for action in &step.local_choices {
            handles[step.module].push_local(*action);
        }
        for (m, reaction) in &step.snoop_choices {
            handles[*m].push_bus(*reaction);
        }
        let addr = step.line * trace.line_size as u64;
        let audit = match step.op {
            ReplayOp::Read => sys.try_read(step.module, addr, trace.line_size).map(drop),
            ReplayOp::Write(v) => sys.try_write(step.module, addr, &vec![v; trace.line_size]),
            ReplayOp::Pass | ReplayOp::Flush => unreachable!("filtered out"),
        };
        if let Err(v @ Violation::ReadMismatch { .. }) = audit {
            return Some((idx, v));
        }
        assert_eq!(audit, sys.verify(), "oracles disagree at step {idx}");
        if let Err(v) = audit {
            return Some((idx, v));
        }
    }
    None
}

#[test]
fn mutation_counterexamples_replay_to_the_same_first_violation() {
    let shape = verify::Shape::default();
    let mut replayed = 0;
    for (cell, table) in mutant_tables() {
        let Some(cx) = verify::verify_table(table, &shape).counterexample else {
            continue;
        };
        let accesses_only = cx
            .trace
            .steps
            .iter()
            .all(|s| matches!(s.op, ReplayOp::Read | ReplayOp::Write(_)));
        if !accesses_only || !cx.trace.faults.is_empty() {
            continue;
        }
        // The reference: mpsim::replay, which sweeps every line each step.
        let reference = replay(&cx.trace, true).violation;
        assert!(reference.is_some(), "{cell}: replay must reproduce");
        assert_eq!(replay_on_system(&cx.trace), reference, "{cell}");
        replayed += 1;
    }
    assert!(
        replayed >= 5,
        "only {replayed} access-only counterexamples replayed"
    );
}
