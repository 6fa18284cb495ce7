//! Bus arbitration: which requesting master gets the next transaction, and
//! how long it queues for the grant.
//!
//! §2.1 of the paper describes distributed priority arbitration with an
//! optional fairness overlay; the Nikolov & Lerato comparison (PAPERS.md)
//! measures FCFS against priority and round-robin service disciplines on a
//! shared bus. The simulator models both halves:
//!
//! * [`Arbiter::grant`] — the *choice* among simultaneous requesters (used by
//!   the fairness tests and the watchdog's retirement bookkeeping);
//! * [`Arbiter::slots_to_grant`] — the *queueing delay* a master pays before
//!   its grant, in arbitration slots. The pipeline charges
//!   `(slots - 1) * arbitration_ns` to [`Phase::Arbitrate`]
//!   (the first slot is already in the base transaction cost), so the
//!   default single-slot disciplines are byte-identical to the historical
//!   fixed-cost model.
//!
//! [`Phase::Arbitrate`]: crate::Phase::Arbitrate

use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::str::FromStr;

/// An arbitration policy over module indices.
///
/// The Futurebus arbitrates in parallel with the previous transfer; the
/// simulator models the *choice* via [`Arbiter::grant`] and the queueing
/// delay via [`Arbiter::slots_to_grant`], each slot costing the fixed
/// [`arbitration_ns`](crate::TimingConfig::arbitration_ns).
pub trait Arbiter {
    /// Picks the winner among `requesters` (module indices). Returns `None`
    /// when no one is requesting.
    fn grant(&mut self, requesters: &[usize]) -> Option<usize>;

    /// How many arbitration slots `master` waits before winning the bus when
    /// every live module contends: each index below `modules` that the
    /// watchdog has not `retired`, plus `master` itself (an external master
    /// one past the last module, or a retired board, still waits for its own
    /// grant). The arbiters walk that set in place, so a bus transaction
    /// allocates nothing. The default models a purely combinational arbiter:
    /// one slot, regardless of the winner — exactly the historical
    /// fixed-cost behaviour.
    fn slots_to_grant(&mut self, master: usize, modules: usize, retired: &BTreeSet<usize>) -> u32 {
        let _ = (master, modules, retired);
        1
    }
}

/// The contenders of [`Arbiter::slots_to_grant`], ascending.
fn contenders(
    master: usize,
    modules: usize,
    retired: &BTreeSet<usize>,
) -> impl Iterator<Item = usize> + Clone + '_ {
    (0..modules.max(master + 1))
        .filter(move |&i| i == master || (i < modules && !retired.contains(&i)))
}

impl fmt::Debug for dyn Arbiter + Send {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Arbiter")
    }
}

/// Fixed-priority arbitration: the lowest module index always wins.
///
/// Simple and unfair — a greedy low-numbered master can starve the others,
/// which the fairness integration tests demonstrate. The grant itself is
/// combinational (one slot for everyone): the unfairness lives in *who*
/// wins, not in how long the resolution takes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PriorityArbiter;

impl PriorityArbiter {
    /// Creates the arbiter.
    #[must_use]
    pub fn new() -> Self {
        PriorityArbiter
    }
}

impl Arbiter for PriorityArbiter {
    fn grant(&mut self, requesters: &[usize]) -> Option<usize> {
        requesters.iter().copied().min()
    }
}

/// Round-robin arbitration: after a grant, that module becomes the lowest
/// priority, guaranteeing every requester is served eventually.
///
/// The queueing model is the rotating token: the master waits one slot for
/// every contender the token passes over on its way round, so a master that
/// just transacted pays a full rotation while a master next in turn pays one
/// slot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundRobinArbiter {
    last: usize,
}

impl RoundRobinArbiter {
    /// Creates the arbiter; module 0 has initial priority.
    #[must_use]
    pub fn new() -> Self {
        RoundRobinArbiter { last: usize::MAX }
    }

    /// Grants the bus to the smallest requester strictly greater than the
    /// previous winner, wrapping around. `requesters` may come in any order.
    fn grant_among(&mut self, requesters: impl Iterator<Item = usize> + Clone) -> Option<usize> {
        let after = requesters
            .clone()
            .filter(|&r| self.last != usize::MAX && r > self.last)
            .min();
        let winner = after.or_else(|| requesters.min())?;
        self.last = winner;
        Some(winner)
    }
}

impl Arbiter for RoundRobinArbiter {
    fn grant(&mut self, requesters: &[usize]) -> Option<usize> {
        self.grant_among(requesters.iter().copied())
    }

    fn slots_to_grant(&mut self, master: usize, modules: usize, retired: &BTreeSet<usize>) -> u32 {
        // The token serves every contender strictly between the last winner
        // and the master, in circular order, one slot each; then the
        // master's own slot. With no winner yet the token starts before
        // module 0; a master that just won waits a full rotation.
        let between = |c: usize| {
            if self.last == usize::MAX {
                c < master
            } else if master > self.last {
                c > self.last && c < master
            } else {
                c > self.last || c < master
            }
        };
        let ahead = contenders(master, modules, retired)
            .filter(|&c| between(c))
            .count();
        self.last = master;
        ahead as u32 + 1
    }
}

/// First-come-first-served arbitration: requesters queue in arrival order
/// and the head of the queue is served next, regardless of index.
///
/// Arrival is modelled at the granularity the simulator sees: every live
/// module not already queued joins the tail (in index order) when a new
/// transaction arbitrates, and serving the master also serves everyone ahead
/// of it — one slot each — so the master's delay is its queue depth. A
/// membership bitmap beside the queue answers "already queued?" in O(1).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FcfsArbiter {
    queue: VecDeque<usize>,
    queued: Vec<bool>,
}

impl FcfsArbiter {
    /// Creates the arbiter with an empty request queue.
    #[must_use]
    pub fn new() -> Self {
        FcfsArbiter::default()
    }

    fn admit(&mut self, candidates: impl Iterator<Item = usize>) {
        let arrived = self.queue.len();
        for m in candidates {
            if m >= self.queued.len() {
                self.queued.resize(m + 1, false);
            }
            if !self.queued[m] {
                self.queued[m] = true;
                self.queue.push_back(m);
            }
        }
        // Simultaneous arrivals tie-break by index, whatever order the
        // caller listed them in.
        self.queue.make_contiguous()[arrived..].sort_unstable();
    }
}

impl Arbiter for FcfsArbiter {
    fn grant(&mut self, requesters: &[usize]) -> Option<usize> {
        if requesters.is_empty() {
            return None;
        }
        self.admit(requesters.iter().copied());
        // The queued requester closest to the head wins.
        let pos = self.queue.iter().position(|m| requesters.contains(m))?;
        let winner = self.queue.remove(pos)?;
        self.queued[winner] = false;
        Some(winner)
    }

    fn slots_to_grant(&mut self, master: usize, modules: usize, retired: &BTreeSet<usize>) -> u32 {
        // The contenders include the master, so it is queued after this.
        self.admit(contenders(master, modules, retired));
        let pos = self
            .queue
            .iter()
            .position(|&m| m == master)
            .expect("master enqueued above");
        // Everyone ahead of the master is served first, one slot each; then
        // the master's own grant slot.
        for m in self.queue.drain(..=pos) {
            self.queued[m] = false;
        }
        pos as u32 + 1
    }
}

/// The bus service disciplines a segment can run, named after the policies
/// Nikolov & Lerato compare for a shared-bus multiprocessor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Discipline {
    /// Fixed priority by module index ([`PriorityArbiter`]); the historical
    /// default, byte-identical to the fixed-cost arbitration model.
    #[default]
    Priority,
    /// Rotating priority ([`RoundRobinArbiter`]).
    RoundRobin,
    /// Arrival-order queueing ([`FcfsArbiter`]).
    Fcfs,
}

impl Discipline {
    /// Every discipline, in presentation order.
    pub const ALL: [Discipline; 3] = [
        Discipline::Priority,
        Discipline::RoundRobin,
        Discipline::Fcfs,
    ];

    /// A fresh arbiter implementing this discipline.
    #[must_use]
    pub fn arbiter(self) -> Box<dyn Arbiter + Send> {
        match self {
            Discipline::Priority => Box::new(PriorityArbiter::new()),
            Discipline::RoundRobin => Box::new(RoundRobinArbiter::new()),
            Discipline::Fcfs => Box::new(FcfsArbiter::new()),
        }
    }
}

impl fmt::Display for Discipline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Discipline::Priority => "priority",
            Discipline::RoundRobin => "round-robin",
            Discipline::Fcfs => "fcfs",
        })
    }
}

impl FromStr for Discipline {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "priority" => Ok(Discipline::Priority),
            "round-robin" | "rr" => Ok(Discipline::RoundRobin),
            "fcfs" => Ok(Discipline::Fcfs),
            other => Err(format!(
                "unknown discipline `{other}` (expected priority, round-robin or fcfs)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_always_picks_the_lowest() {
        let mut a = PriorityArbiter::new();
        assert_eq!(a.grant(&[3, 1, 2]), Some(1));
        assert_eq!(a.grant(&[3, 1, 2]), Some(1), "no memory, no fairness");
        assert_eq!(a.grant(&[]), None);
    }

    const NONE_RETIRED: &BTreeSet<usize> = &BTreeSet::new();

    #[test]
    fn priority_grants_in_one_slot_for_everyone() {
        let mut a = PriorityArbiter::new();
        for master in 0..4 {
            assert_eq!(a.slots_to_grant(master, 4, NONE_RETIRED), 1);
        }
    }

    #[test]
    fn round_robin_rotates() {
        let mut a = RoundRobinArbiter::new();
        assert_eq!(a.grant(&[0, 1, 2]), Some(0));
        assert_eq!(a.grant(&[0, 1, 2]), Some(1));
        assert_eq!(a.grant(&[0, 1, 2]), Some(2));
        assert_eq!(a.grant(&[0, 1, 2]), Some(0), "wraps around");
        assert_eq!(a.grant(&[]), None);
    }

    #[test]
    fn round_robin_skips_non_requesters() {
        let mut a = RoundRobinArbiter::new();
        assert_eq!(a.grant(&[1]), Some(1));
        assert_eq!(a.grant(&[0, 3]), Some(3), "next after 1 among {{0,3}}");
        assert_eq!(a.grant(&[0, 3]), Some(0));
    }

    #[test]
    fn round_robin_serves_everyone_within_n_rounds() {
        let mut a = RoundRobinArbiter::new();
        let requesters: Vec<usize> = (0..8).collect();
        let mut served = std::collections::HashSet::new();
        for _ in 0..8 {
            served.insert(a.grant(&requesters).unwrap());
        }
        assert_eq!(served.len(), 8);
    }

    #[test]
    fn round_robin_charges_the_token_distance() {
        let mut a = RoundRobinArbiter::new();
        // Token starts before module 0: master 2 waits for 0 and 1.
        assert_eq!(a.slots_to_grant(2, 4, NONE_RETIRED), 3);
        // Token now at 2; master 3 is next in turn.
        assert_eq!(a.slots_to_grant(3, 4, NONE_RETIRED), 1);
        // Wrapping: master 3 again pays a full rotation.
        assert_eq!(a.slots_to_grant(3, 4, NONE_RETIRED), 4);
    }

    #[test]
    fn fcfs_serves_in_arrival_order() {
        let mut a = FcfsArbiter::new();
        // All four arrive together (index order breaks the tie); master 1 is
        // second in line.
        assert_eq!(a.slots_to_grant(1, 4, NONE_RETIRED), 2);
        // 2 and 3 are still queued from the first round; master 0 re-arrives
        // behind them.
        assert_eq!(a.slots_to_grant(0, 4, NONE_RETIRED), 3);
        // Only 1 left queued; 0, 2 and 3 re-arrive behind it in index order,
        // so master 3 sits at the tail of a four-deep queue.
        assert_eq!(a.slots_to_grant(3, 4, NONE_RETIRED), 4);
    }

    #[test]
    fn fcfs_grant_prefers_the_longest_waiter() {
        let mut a = FcfsArbiter::new();
        assert_eq!(a.grant(&[2, 1]), Some(1), "index order on simultaneous");
        assert_eq!(a.grant(&[2, 0]), Some(2), "2 queued before 0 arrived");
        assert_eq!(a.grant(&[]), None);
    }

    #[test]
    fn disciplines_parse_and_render_round_trip() {
        for d in Discipline::ALL {
            assert_eq!(d.to_string().parse::<Discipline>(), Ok(d));
        }
        assert_eq!("rr".parse::<Discipline>(), Ok(Discipline::RoundRobin));
        assert!("lifo".parse::<Discipline>().is_err());
        assert_eq!(Discipline::default(), Discipline::Priority);
    }

    #[test]
    fn every_discipline_builds_a_working_arbiter() {
        for d in Discipline::ALL {
            let mut a = d.arbiter();
            assert_eq!(a.grant(&[0]), Some(0), "{d}");
            assert!(a.slots_to_grant(0, 2, NONE_RETIRED) >= 1, "{d}");
        }
    }
}
