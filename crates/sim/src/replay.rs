//! Deterministic schedule replay: re-executing a model-checker counterexample
//! on the real simulator.
//!
//! The exhaustive explorer in `crates/verify` works on an abstract machine.
//! When it finds an invariant violation it emits a [`Trace`]: the exact
//! schedule of processor operations together with the Table 1/2 entry every
//! module chose at every decision point. [`replay`] rebuilds the concrete
//! machine — real [`CacheController`]s on a real `Futurebus` — with every
//! module driven by a [`moesi::protocols::Scripted`] policy fed
//! from the trace, executes the schedule step by step, and audits each step
//! with the [`Checker`]. A genuine counterexample reproduces the violation at
//! the same step, deterministically, every time.

use cache_array::{CacheConfig, ReplacementKind};
use moesi::protocols::{ScriptHandle, Scripted};
use moesi::{BusReaction, CacheKind, LocalAction};

use futurebus::TimingConfig;
use std::fmt;

use crate::checker::{Checker, Violation};
use crate::controller::CacheController;
use crate::fabric::Fabric;

/// One processor operation in a replayed schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayOp {
    /// Read the full line and compare it against the golden image.
    Read,
    /// Write the line to the single byte value carried here (the abstract
    /// model's data domain maps value `v` to a line of `v`-bytes).
    Write(u8),
    /// Push the dirty line to memory, keeping the copy (Table 1 note 3).
    Pass,
    /// Push if dirty, then discard the copy (Table 1 note 4).
    Flush,
}

impl fmt::Display for ReplayOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayOp::Read => f.write_str("Read"),
            ReplayOp::Write(v) => write!(f, "Write({v})"),
            ReplayOp::Pass => f.write_str("Pass"),
            ReplayOp::Flush => f.write_str("Flush"),
        }
    }
}

/// One step of a counterexample schedule: who did what, and which permitted
/// entries every involved module picked.
#[derive(Clone, Debug)]
pub struct TraceStep {
    /// The module issuing the local event.
    pub module: usize,
    /// The line index the event targets (address = `line * line_size`).
    pub line: u64,
    /// The processor operation.
    pub op: ReplayOp,
    /// The master's local-action choices, in consultation order (one entry
    /// normally; several for `Read>Write` sequences).
    pub local_choices: Vec<LocalAction>,
    /// Every snooper's chosen reaction, in bus order: transaction by
    /// transaction (including BS retries), module index ascending within one
    /// address cycle. Only modules with a valid copy are consulted.
    pub snoop_choices: Vec<(usize, BusReaction)>,
}

impl fmt::Display for TraceStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{} line{} {}", self.module, self.line, self.op)?;
        if !self.local_choices.is_empty() {
            let picks: Vec<String> = self.local_choices.iter().map(ToString::to_string).collect();
            write!(f, " via [{}]", picks.join(" then "))?;
        }
        for (m, r) in &self.snoop_choices {
            write!(f, "; cpu{m} snoops {r}")?;
        }
        Ok(())
    }
}

/// A scripted hardware fault: before executing step `step`, arm the bus
/// watchdog so `module` stalls (and is retired) the next time it snoops.
///
/// This pins watchdog recovery behaviour to a deterministic schedule — the
/// replay equivalent of the randomised injection in `futurebus::fault`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayFault {
    /// Index of the step before which the stall is armed.
    pub step: usize,
    /// The module that stops responding.
    pub module: usize,
    /// True when its cache RAM stays readable (dirty lines salvaged); false
    /// for a dead board (dirty lines lost, survivors invalidated).
    pub salvage: bool,
}

impl fmt::Display for ReplayFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cpu{} before step {}",
            if self.salvage { "stall" } else { "kill" },
            self.module,
            self.step
        )
    }
}

/// A complete counterexample: machine shape plus the violating schedule.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Bytes per line in the replayed machine.
    pub line_size: usize,
    /// One cache kind per module, in bus order.
    pub modules: Vec<CacheKind>,
    /// The schedule, shortest-first (the explorer searches breadth-first, so
    /// the trace is minimal in step count).
    pub steps: Vec<TraceStep>,
    /// Scripted stall/kill faults to arm during the replay (empty for pure
    /// consistency counterexamples).
    pub faults: Vec<ReplayFault>,
    /// The violation the explorer observed (display form), for reporting.
    pub expected: String,
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "counterexample over {} modules ({} steps) — expected: {}",
            self.modules.len(),
            self.steps.len(),
            self.expected
        )?;
        for fault in &self.faults {
            writeln!(f, "  fault: {fault}")?;
        }
        for (i, step) in self.steps.iter().enumerate() {
            writeln!(f, "  {i}: {step}")?;
        }
        Ok(())
    }
}

/// The result of replaying a [`Trace`] on the concrete machine.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The violation hit, with the index of the step that triggered it.
    pub violation: Option<(usize, Violation)>,
    /// Steps executed (all of them when no violation fired).
    pub steps_executed: usize,
    /// Times a scripted module was consulted beyond its script (a mismatch
    /// between the abstract and concrete machines; 0 for a faithful replay).
    pub script_underflows: usize,
    /// Modules the bus watchdog retired during the replay, ascending.
    pub retired: Vec<usize>,
}

impl ReplayOutcome {
    /// True when the replay reproduced a violation.
    #[must_use]
    pub fn reproduced(&self) -> bool {
        self.violation.is_some()
    }
}

/// Replays `trace` on a freshly built concrete machine.
///
/// `check_exclusive_clean` mirrors [`Checker::check_exclusive_clean`]; pass
/// `false` when the trace came from an exploration that relaxed invariant 5
/// (mixed systems containing the adapted Write-Once protocol).
#[must_use]
pub fn replay(trace: &Trace, check_exclusive_clean: bool) -> ReplayOutcome {
    let line = trace.line_size;
    let mut handles: Vec<ScriptHandle> = Vec::with_capacity(trace.modules.len());
    let controllers: Vec<CacheController> = trace
        .modules
        .iter()
        .enumerate()
        .map(|(id, &kind)| {
            let (protocol, handle) = Scripted::new(kind);
            handles.push(handle);
            let cfg = (kind != CacheKind::NonCaching).then(|| {
                // Room for 8 lines per way: far more than any explorer config.
                CacheConfig::new(line * 16, line, 2, ReplacementKind::Lru)
            });
            CacheController::new(id, Box::new(protocol), cfg, 1)
        })
        .collect();
    let mut fabric = Fabric::new(line, TimingConfig::default(), controllers);
    let mut checker = Checker::new(line);
    checker.check_exclusive_clean = check_exclusive_clean;

    let mut outcome = ReplayOutcome {
        violation: None,
        steps_executed: 0,
        script_underflows: 0,
        retired: Vec::new(),
    };

    for (idx, step) in trace.steps.iter().enumerate() {
        // Arm any fault scheduled for this step: the named module stalls the
        // next time it would snoop, and the watchdog retires it.
        for fault in &trace.faults {
            if fault.step == idx {
                fabric.bus_mut().stall_module(fault.module, fault.salvage);
            }
        }
        // Load this step's script: the master's local decisions and every
        // snooper's reactions, in the order the bus will consult them.
        for h in &handles {
            h.clear();
        }
        for action in &step.local_choices {
            handles[step.module].push_local(*action);
        }
        for (m, reaction) in &step.snoop_choices {
            handles[*m].push_bus(*reaction);
        }

        let addr = step.line * line as u64;
        let result = match step.op {
            ReplayOp::Read => {
                let got = fabric.read(step.module, addr, line);
                checker.check_read(step.module, addr, &got)
            }
            ReplayOp::Write(v) => {
                let bytes = vec![v; line];
                let ck = &mut checker;
                fabric.write_with(step.module, addr, &bytes, |piece_addr, piece| {
                    ck.record_write(piece_addr, piece);
                });
                Ok(())
            }
            ReplayOp::Pass => {
                fabric.pass(step.module, addr);
                Ok(())
            }
            ReplayOp::Flush => {
                fabric.flush(step.module, addr);
                Ok(())
            }
        };
        outcome.steps_executed = idx + 1;

        let verdict =
            result.and_then(|()| checker.verify(fabric.controllers(), fabric.bus().memory()));
        if let Err(v) = verdict {
            outcome.violation = Some((idx, v));
            break;
        }
    }
    outcome.script_underflows = handles.iter().map(ScriptHandle::underflows).sum();
    outcome.retired = fabric.bus().retired();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use moesi::table;
    use moesi::{BusOp, LineState, LocalEvent, MasterSignals, ResultState};

    fn copyback_pair() -> Vec<CacheKind> {
        vec![CacheKind::CopyBack; 2]
    }

    /// The preferred write-miss choreography: cpu0 RWITM, then cpu1 reads and
    /// the owner intervenes. Entirely legal — replay must be clean.
    #[test]
    fn legal_schedule_replays_without_violation() {
        let rwitm =
            table::permitted_local(LineState::Invalid, LocalEvent::Write, CacheKind::CopyBack)
                .into_iter()
                .find(|a| a.bus_op == BusOp::Read)
                .expect("RWITM entry");
        let read_miss =
            table::preferred_local(LineState::Invalid, LocalEvent::Read, CacheKind::CopyBack)
                .unwrap();
        let owner_reacts =
            table::preferred_bus(LineState::Modified, moesi::BusEvent::CacheRead).unwrap();
        let trace = Trace {
            line_size: 8,
            modules: copyback_pair(),
            steps: vec![
                TraceStep {
                    module: 0,
                    line: 0,
                    op: ReplayOp::Write(3),
                    local_choices: vec![rwitm],
                    snoop_choices: vec![],
                },
                TraceStep {
                    module: 1,
                    line: 0,
                    op: ReplayOp::Read,
                    local_choices: vec![read_miss],
                    snoop_choices: vec![(0, owner_reacts)],
                },
            ],
            faults: Vec::new(),
            expected: "none".into(),
        };
        let out = replay(&trace, true);
        assert!(
            !out.reproduced(),
            "legal schedule flagged: {:?}",
            out.violation
        );
        assert_eq!(out.steps_executed, 2);
        assert_eq!(out.script_underflows, 0);
    }

    /// A hand-corrupted schedule: the snooper *keeps* its S copy through an
    /// invalidating broadcast — the replayer must catch the stale copy.
    #[test]
    fn corrupt_schedule_reproduces_a_violation() {
        let fill =
            table::preferred_local(LineState::Invalid, LocalEvent::Read, CacheKind::CopyBack)
                .unwrap();
        let rwitm = LocalAction::new(
            ResultState::Fixed(LineState::Modified),
            MasterSignals::CA_IM,
            BusOp::Read,
        );
        // Illegal reaction: ignore a read-invalidate while holding S.
        let stubborn = BusReaction::hit(LineState::Shareable);
        let trace = Trace {
            line_size: 8,
            modules: copyback_pair(),
            steps: vec![
                TraceStep {
                    module: 1,
                    line: 0,
                    op: ReplayOp::Read,
                    local_choices: vec![fill],
                    snoop_choices: vec![],
                },
                TraceStep {
                    module: 0,
                    line: 0,
                    op: ReplayOp::Write(5),
                    local_choices: vec![rwitm],
                    snoop_choices: vec![(1, stubborn)],
                },
            ],
            faults: Vec::new(),
            expected: "cpu1 keeps a copy past cpu0's invalidate".into(),
        };
        let out = replay(&trace, true);
        let (step, violation) = out.violation.expect("violation reproduced");
        assert_eq!(step, 1);
        assert!(
            matches!(violation, Violation::ExclusivityViolated { .. }),
            "{violation}"
        );
        // Determinism: run it again, same answer.
        let again = replay(&trace, true);
        assert_eq!(again.violation.map(|(s, _)| s), Some(1));
    }

    /// cpu0 dirties a line, then stalls mid-snoop of cpu1's read. The
    /// watchdog must retire it, salvage the dirty line to memory, and let the
    /// read complete with the correct data — no violation anywhere.
    #[test]
    fn stalled_owner_is_retired_and_its_dirty_line_salvaged() {
        let rwitm =
            table::permitted_local(LineState::Invalid, LocalEvent::Write, CacheKind::CopyBack)
                .into_iter()
                .find(|a| a.bus_op == BusOp::Read)
                .expect("RWITM entry");
        let read_miss =
            table::preferred_local(LineState::Invalid, LocalEvent::Read, CacheKind::CopyBack)
                .unwrap();
        let trace = Trace {
            line_size: 8,
            modules: copyback_pair(),
            steps: vec![
                TraceStep {
                    module: 0,
                    line: 0,
                    op: ReplayOp::Write(3),
                    local_choices: vec![rwitm],
                    snoop_choices: vec![],
                },
                // No snoop choices for cpu0: it is retired before it could
                // react, so its script is never consulted.
                TraceStep {
                    module: 1,
                    line: 0,
                    op: ReplayOp::Read,
                    local_choices: vec![read_miss],
                    snoop_choices: vec![],
                },
            ],
            faults: vec![ReplayFault {
                step: 1,
                module: 0,
                salvage: true,
            }],
            expected: "none — degradation is graceful".into(),
        };
        let out = replay(&trace, true);
        assert!(
            !out.reproduced(),
            "salvaged stall must stay coherent: {:?}",
            out.violation
        );
        assert_eq!(out.retired, vec![0]);
        assert_eq!(out.steps_executed, 2);
        assert_eq!(out.script_underflows, 0);
    }

    /// Same schedule, but the board dies outright: its dirty line is lost and
    /// the loss must surface as a reported violation at the read — never as a
    /// silently wrong value later.
    #[test]
    fn killed_owner_loses_its_line_and_the_loss_is_reported() {
        let rwitm =
            table::permitted_local(LineState::Invalid, LocalEvent::Write, CacheKind::CopyBack)
                .into_iter()
                .find(|a| a.bus_op == BusOp::Read)
                .expect("RWITM entry");
        let read_miss =
            table::preferred_local(LineState::Invalid, LocalEvent::Read, CacheKind::CopyBack)
                .unwrap();
        let trace = Trace {
            line_size: 8,
            modules: copyback_pair(),
            steps: vec![
                TraceStep {
                    module: 0,
                    line: 0,
                    op: ReplayOp::Write(3),
                    local_choices: vec![rwitm],
                    snoop_choices: vec![],
                },
                TraceStep {
                    module: 1,
                    line: 0,
                    op: ReplayOp::Read,
                    local_choices: vec![read_miss],
                    snoop_choices: vec![],
                },
            ],
            faults: vec![ReplayFault {
                step: 1,
                module: 0,
                salvage: false,
            }],
            expected: "the killed owner's data is lost".into(),
        };
        let out = replay(&trace, true);
        let (step, violation) = out.violation.expect("data loss must be reported");
        assert_eq!(step, 1, "detected at the very read that missed the data");
        assert!(
            matches!(violation, Violation::ReadMismatch { cpu: 1, .. }),
            "{violation}"
        );
        assert_eq!(out.retired, vec![0]);
        // Determinism: the loss reproduces identically.
        let again = replay(&trace, true);
        assert_eq!(again.violation.map(|(s, _)| s), Some(1));
    }
}
