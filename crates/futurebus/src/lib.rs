//! # futurebus — a behavioural model of the IEEE P896 Futurebus
//!
//! This crate models the bus substrate of *"A Class of Compatible Cache
//! Consistency Protocols and their Support by the IEEE Futurebus"* (Sweazey &
//! Smith, ISCA 1986), §2:
//!
//! * [`wire`] — open-collector wired-OR lines ("drive low, float high") with
//!   wired-OR glitch accounting;
//! * [`handshake`] — the broadcast address handshake of Figures 1 and 2,
//!   including the 25 ns glitch-filter penalty;
//! * [`Futurebus`] — the transaction engine: broadcast snooping, intervention
//!   (DI) preempting memory, broadcast writes updating memory and SL-connected
//!   third parties, BS abort-push-restart, and nanosecond cost accounting;
//! * [`SparseMemory`] — main memory, the default owner of every line;
//! * [`arbitration`] — pluggable service disciplines (priority, round-robin,
//!   FCFS) with per-slot queueing-delay accounting;
//! * [`fault`] — a deterministic, seeded fault-injection engine (consistency-
//!   line glitches, stalled/killed snoopers, abort storms, soft errors) paired
//!   with the bus watchdog and bounded-retry recovery machinery.
//!
//! The consistency *protocols* live in the `moesi` crate; the cache arrays in
//! `cache-array`; the full multiprocessor simulator in `mpsim`.
//!
//! ## Quick start
//!
//! ```
//! use futurebus::{Futurebus, TimingConfig, TransactionRequest};
//! use moesi::MasterSignals;
//!
//! let mut bus = Futurebus::new(32, TimingConfig::default());
//! bus.memory_mut().write_bytes(0x100, 0, b"hello");
//!
//! let req = TransactionRequest::read(0, 0x100, MasterSignals::CA);
//! let out = bus.execute(&req, &mut []).unwrap();
//! assert_eq!(&out.data.unwrap()[..5], b"hello");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arbitration;
mod bus;
pub mod fault;
pub mod handshake;
mod memory;
mod module;
pub mod observe;
pub mod phases;
mod stats;
mod timing;
pub mod trace;
mod transaction;
pub mod wire;

pub use arbitration::{Arbiter, Discipline, FcfsArbiter, PriorityArbiter, RoundRobinArbiter};
pub use bus::{Futurebus, RetryPolicy};
pub use fault::{FaultConfig, FaultKind, FaultPlan, FaultRecord, InjectedFault};
pub use memory::{LineHasher, SparseMemory};
pub use module::{BusModule, BusObservation, PushWrite, RetireReport};
pub use observe::{
    ChromeTraceWriter, LatencyHistogram, LivenessMonitor, MasterProgress, PhaseHistograms,
    TxnPhases, HISTOGRAM_BUCKETS,
};
pub use phases::Phase;
pub use stats::BusStats;
pub use timing::{DataSourceLatency, Nanos, TimingConfig, BROADCAST_PENALTY_NS};
pub use trace::{BusTrace, TraceKind, TraceRecord};
pub use transaction::{
    BusError, DataSource, LineAddr, TransactionKind, TransactionOutcome, TransactionRequest,
};
