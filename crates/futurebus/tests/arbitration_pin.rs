//! Pins the queueing delays of the round-robin and FCFS arbiters.
//!
//! A seeded series of bus transactions — each with a module count, a set of
//! watchdog-retired modules and a master — is fed to one arbiter of each
//! discipline, and the `slots_to_grant` answers must match the sequences
//! recorded below. The contenders are every module not retired, plus the
//! master, which may be the external index one past the last module, or a
//! retired board. The sequences were recorded when `slots_to_grant` still
//! took the contenders as a list, built from the same series.

use futurebus::{Arbiter, FcfsArbiter, RoundRobinArbiter};
use moesi::rng::SmallRng;
use std::collections::BTreeSet;

/// One arbitration request: `(master, modules, retired)`.
type Request = (usize, usize, BTreeSet<usize>);

const STEPS: usize = 160;

/// `RoundRobinArbiter` on `series(7)`.
const ROUND_ROBIN: [u32; STEPS] = [
    1, 3, 1, 2, 1, 2, 2, 2, 5, 1, 5, 2, 5, 1, 1, 5, 1, 3, 2, 3, 3, 2, 7, 2, 4, 2, 3, 3, 3, 1, 2, 5,
    1, 7, 1, 1, 3, 2, 1, 2, 7, 1, 4, 8, 2, 1, 2, 2, 2, 1, 5, 6, 3, 2, 1, 1, 5, 1, 1, 4, 5, 4, 2, 2,
    1, 3, 2, 3, 3, 7, 4, 4, 3, 3, 5, 2, 2, 5, 2, 1, 3, 2, 3, 1, 2, 2, 7, 1, 1, 2, 2, 1, 1, 3, 5, 1,
    6, 2, 5, 6, 6, 1, 6, 3, 3, 3, 4, 3, 1, 3, 6, 3, 3, 3, 6, 3, 1, 2, 1, 2, 3, 8, 1, 3, 2, 4, 4, 5,
    7, 1, 2, 1, 4, 2, 2, 1, 2, 1, 3, 1, 4, 2, 1, 3, 4, 1, 1, 2, 1, 1, 1, 1, 2, 2, 6, 1, 3, 1, 2, 2,
];

/// `FcfsArbiter` on `series(7)`.
const FCFS: [u32; STEPS] = [
    1, 5, 1, 2, 2, 2, 2, 4, 1, 7, 7, 3, 7, 1, 5, 5, 1, 3, 4, 4, 3, 1, 8, 2, 4, 2, 5, 2, 4, 1, 2, 7,
    1, 3, 6, 1, 4, 2, 2, 2, 8, 1, 5, 7, 3, 1, 2, 2, 5, 2, 3, 5, 2, 2, 1, 3, 7, 1, 2, 6, 7, 4, 5, 5,
    2, 4, 5, 2, 3, 6, 5, 3, 6, 1, 8, 3, 5, 2, 6, 1, 1, 3, 4, 1, 8, 1, 5, 4, 1, 3, 2, 1, 2, 2, 2, 1,
    4, 3, 8, 6, 9, 1, 3, 4, 1, 2, 6, 3, 4, 6, 6, 4, 4, 6, 4, 4, 1, 5, 1, 3, 5, 8, 1, 3, 5, 6, 2, 4,
    8, 2, 2, 1, 8, 5, 2, 3, 3, 4, 3, 1, 4, 4, 2, 2, 5, 2, 4, 4, 7, 1, 1, 1, 3, 2, 2, 6, 4, 2, 4, 2,
];

fn series(seed: u64) -> Vec<Request> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..STEPS)
        .map(|_| {
            let modules = rng.gen_range(1..10usize);
            let retired: BTreeSet<usize> = (0..modules).filter(|_| rng.gen_bool(0.2)).collect();
            let master = rng.gen_range(0..modules + 1);
            (master, modules, retired)
        })
        .collect()
}

fn slots(arbiter: &mut dyn Arbiter, requests: &[Request]) -> Vec<u32> {
    requests
        .iter()
        .map(|(master, modules, retired)| arbiter.slots_to_grant(*master, *modules, retired))
        .collect()
}

#[test]
fn round_robin_slots_are_pinned() {
    assert_eq!(
        slots(&mut RoundRobinArbiter::new(), &series(7)),
        ROUND_ROBIN
    );
}

#[test]
fn fcfs_slots_are_pinned() {
    assert_eq!(slots(&mut FcfsArbiter::new(), &series(7)), FCFS);
}
