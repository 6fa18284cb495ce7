//! Per-phase latency observability: fixed-bucket histograms and Chrome
//! trace-event export.
//!
//! The paper's §5.2 cost discussion (via Archibald & Baer) argues that the
//! preferred action in each Table 1/2 cell is sensitive to the bus, memory
//! and cache cost ratios. An aggregate `busy_ns` cannot show those ratios;
//! this module attributes every nanosecond the engine charges to the
//! [`Phase`] that burned it, so the 25 ns broadcast penalty (§5.2), the
//! §2.2 settle window and the §3.2.2 abort-backoff tax are each visible as
//! their own distribution.
//!
//! Everything here is zero-dependency and deterministic: histograms use
//! fixed power-of-two buckets with integer percentile extraction (so merged
//! shard results are byte-identical for any worker count), and the Chrome
//! trace-event JSON is assembled with the workspace's one shared
//! hand-rolled writer, [`moesi::json`].

use crate::timing::Nanos;
use crate::trace::TraceKind;
use crate::transaction::LineAddr;
use crate::Phase;
use moesi::json::JsonObject;
use std::collections::BTreeMap;

/// Number of power-of-two latency buckets per histogram. Bucket 0 holds
/// exact zeros; bucket `b >= 1` holds samples in `[2^(b-1), 2^b)`; the last
/// bucket absorbs everything at or above `2^30` ns (~1 s of bus time, far
/// beyond any single transaction).
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A fixed-bucket latency histogram over nanosecond samples.
///
/// Buckets are powers of two, so recording is a `leading_zeros` and merging
/// is bucket-wise addition — order-independent, which is what keeps sharded
/// campaign output identical for any `--jobs` value.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    samples: u64,
    sum_ns: Nanos,
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    fn bucket(ns: Nanos) -> usize {
        if ns == 0 {
            0
        } else {
            ((u64::BITS - ns.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// The inclusive upper bound of bucket `b` (0 for the zero bucket).
    #[must_use]
    pub fn bucket_bound(b: usize) -> Nanos {
        if b == 0 {
            0
        } else {
            (1u64 << b.min(HISTOGRAM_BUCKETS - 1)) - 1
        }
    }

    /// Records one sample.
    pub fn record(&mut self, ns: Nanos) {
        self.counts[Self::bucket(ns)] += 1;
        self.samples += 1;
        self.sum_ns += ns;
    }

    /// Samples recorded.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Sum of all recorded samples in nanoseconds.
    #[must_use]
    pub fn sum_ns(&self) -> Nanos {
        self.sum_ns
    }

    /// The raw bucket counts.
    #[must_use]
    pub fn counts(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.counts
    }

    /// Adds every sample of `other` into `self` (bucket-wise, commutative).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts) {
            *a += b;
        }
        self.samples += other.samples;
        self.sum_ns += other.sum_ns;
    }

    /// The nearest-rank `pct`-th percentile, reported as the inclusive
    /// upper bound of the bucket holding that rank. Pure integer math, so
    /// the result is identical however the histogram was sharded and merged.
    /// Returns 0 for an empty histogram.
    #[must_use]
    pub fn percentile(&self, pct: u64) -> Nanos {
        if self.samples == 0 {
            return 0;
        }
        let rank = (self.samples * pct).div_ceil(100).max(1);
        let mut seen = 0;
        for (b, count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Self::bucket_bound(b);
            }
        }
        Self::bucket_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// The median bucket bound.
    #[must_use]
    pub fn p50(&self) -> Nanos {
        self.percentile(50)
    }

    /// The 99th-percentile bucket bound.
    #[must_use]
    pub fn p99(&self) -> Nanos {
        self.percentile(99)
    }
}

/// One master's progress ledger inside the [`LivenessMonitor`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MasterProgress {
    /// Transactions this master has committed.
    pub commits: u64,
    /// Transactions this master lost to the retry cutoff
    /// ([`BusError::TooManyRetries`](crate::BusError::TooManyRetries)).
    pub failures: u64,
    /// Retry-cutoff failures since the last commit. Reset on commit and on
    /// each fired violation, so repeated starvation keeps firing.
    pub consecutive_failures: u32,
    /// Deadline violations charged to this master.
    pub violations: u64,
}

/// A deadline-based livelock/starvation detector over the Abort/Backoff
/// phase.
///
/// The paper's §3.2.2 abort-push-restart makes forward progress a *protocol
/// obligation*, not a given: a master that keeps losing to BS aborts commits
/// nothing, and with a naive flat retry discipline it can lose forever. The
/// monitor keeps one [`MasterProgress`] ledger per master; a commit proves
/// progress and clears the master's consecutive-failure count, while each
/// retry-cutoff failure raises it. When the count reaches the configured
/// deadline, a **liveness violation** fires — the watchdog's verdict that
/// the master is starved, surfaced in
/// [`BusStats::liveness_violations`](crate::BusStats) and in the fault
/// campaign's oracle. Deliberately deadline-based rather than
/// rate-based: deterministic, seed-stable, and mergeable.
#[derive(Clone, Debug)]
pub struct LivenessMonitor {
    deadline: u32,
    masters: BTreeMap<usize, MasterProgress>,
    violations: u64,
}

impl LivenessMonitor {
    /// A monitor that declares starvation after `deadline` consecutive
    /// retry-cutoff failures by one master with no intervening commit.
    ///
    /// # Panics
    ///
    /// Panics when `deadline` is zero (a zero deadline would fire before any
    /// failure was even possible).
    #[must_use]
    pub fn new(deadline: u32) -> Self {
        assert!(deadline > 0, "liveness deadline must be at least 1");
        LivenessMonitor {
            deadline,
            masters: BTreeMap::new(),
            violations: 0,
        }
    }

    /// The configured deadline (consecutive failures before a violation).
    #[must_use]
    pub fn deadline(&self) -> u32 {
        self.deadline
    }

    /// Records one committed transaction: progress, so the master's
    /// consecutive-failure count resets.
    pub fn record_commit(&mut self, master: usize) {
        let p = self.masters.entry(master).or_default();
        p.commits += 1;
        p.consecutive_failures = 0;
    }

    /// Records one retry-cutoff failure. Returns `true` when this failure
    /// reached the deadline and fired a violation (the count then resets so
    /// continued starvation keeps firing every `deadline` failures).
    pub fn record_failure(&mut self, master: usize) -> bool {
        let deadline = self.deadline;
        let p = self.masters.entry(master).or_default();
        p.failures += 1;
        p.consecutive_failures += 1;
        if p.consecutive_failures >= deadline {
            p.consecutive_failures = 0;
            p.violations += 1;
            self.violations += 1;
            true
        } else {
            false
        }
    }

    /// Total violations fired across all masters.
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// The progress ledger for `master` (zeroed if it never transacted).
    #[must_use]
    pub fn progress(&self, master: usize) -> MasterProgress {
        self.masters.get(&master).copied().unwrap_or_default()
    }

    /// Masters with at least one violation, ascending.
    #[must_use]
    pub fn starved(&self) -> Vec<usize> {
        self.masters
            .iter()
            .filter(|(_, p)| p.violations > 0)
            .map(|(&m, _)| m)
            .collect()
    }
}

/// One latency histogram per pipeline phase: every completed (or errored)
/// transaction contributes one sample per phase — the nanoseconds that
/// phase charged it, zero included, so each phase's sample count equals the
/// transaction count and phase distributions are directly comparable.
///
/// Most transactions leave most phases at zero, so only non-zero charges are
/// recorded; [`PhaseHistograms::phase`] adds the zeros back into bucket 0
/// from the transaction count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseHistograms {
    /// The non-zero samples of each phase.
    nonzero: [LatencyHistogram; Phase::PIPELINE.len()],
    /// Transactions recorded.
    txns: u64,
}

impl PhaseHistograms {
    /// Empty histograms for all six phases.
    #[must_use]
    pub fn new() -> Self {
        PhaseHistograms::default()
    }

    /// Records one transaction's per-phase breakdown (one sample per phase).
    pub fn record_txn(&mut self, phase_ns: &[Nanos; Phase::PIPELINE.len()]) {
        self.txns += 1;
        for (hist, &ns) in self.nonzero.iter_mut().zip(phase_ns) {
            if ns != 0 {
                hist.record(ns);
            }
        }
    }

    /// The histogram for `phase`, one sample per transaction.
    #[must_use]
    pub fn phase(&self, phase: Phase) -> LatencyHistogram {
        let mut hist = self.nonzero[phase as usize];
        let zeros = self.txns - hist.samples;
        hist.counts[0] += zeros;
        hist.samples += zeros;
        hist
    }

    /// Merges another set in (bucket-wise, commutative).
    pub fn merge(&mut self, other: &PhaseHistograms) {
        for (a, b) in self.nonzero.iter_mut().zip(&other.nonzero) {
            a.merge(b);
        }
        self.txns += other.txns;
    }

    /// Per-phase medians, in [`Phase::PIPELINE`] order.
    #[must_use]
    pub fn p50s(&self) -> [Nanos; Phase::PIPELINE.len()] {
        Phase::PIPELINE.map(|p| self.phase(p).p50())
    }

    /// Per-phase 99th percentiles, in [`Phase::PIPELINE`] order.
    #[must_use]
    pub fn p99s(&self) -> [Nanos; Phase::PIPELINE.len()] {
        Phase::PIPELINE.map(|p| self.phase(p).p99())
    }

    /// Per-phase nanosecond totals, in [`Phase::PIPELINE`] order.
    #[must_use]
    pub fn sums(&self) -> [Nanos; Phase::PIPELINE.len()] {
        self.nonzero.map(|h| h.sum_ns())
    }
}

/// One committed transaction's per-phase time breakdown, stamped with its
/// position on the bus-occupancy timeline (`start_ns` = the bus's `busy_ns`
/// when the transaction sealed, minus its own duration). The raw material
/// for the Chrome trace export.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxnPhases {
    /// The mastering module index.
    pub master: usize,
    /// The line address.
    pub addr: LineAddr,
    /// What the transaction was (read/write/invalidate).
    pub kind: TraceKind,
    /// Bus-occupancy timeline position at which the transaction began.
    pub start_ns: Nanos,
    /// Nanoseconds charged by each phase, in [`Phase::PIPELINE`] order.
    pub phase_ns: [Nanos; Phase::PIPELINE.len()],
}

/// A hand-rolled Chrome trace-event JSON writer (the `chrome://tracing` /
/// Perfetto format), in the same no-dependency style as the benchmark
/// sweep's JSON. Timestamps and durations are in nanoseconds;
/// `displayTimeUnit` says so.
#[derive(Debug)]
pub struct ChromeTraceWriter {
    out: String,
    events: u64,
}

impl ChromeTraceWriter {
    /// Starts a trace document.
    #[must_use]
    pub fn new() -> Self {
        ChromeTraceWriter {
            out: String::from("{\n\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [\n"),
            events: 0,
        }
    }

    fn lead_in(&mut self) {
        if self.events > 0 {
            self.out.push_str(",\n");
        }
        self.events += 1;
    }

    /// Appends a complete-duration event (`"ph": "X"`).
    pub fn duration(&mut self, name: &str, cat: &str, tid: usize, ts: Nanos, dur: Nanos) {
        self.lead_in();
        let event = JsonObject::new()
            .string("name", name)
            .string("cat", cat)
            .string("ph", "X")
            .number("pid", 0)
            .number("tid", tid)
            .number("ts", ts)
            .number("dur", dur)
            .finish();
        self.out.push_str("  ");
        self.out.push_str(&event);
    }

    /// Appends a global instant event (`"ph": "i"`).
    pub fn instant(&mut self, name: &str, cat: &str, tid: usize, ts: Nanos) {
        self.lead_in();
        let event = JsonObject::new()
            .string("name", name)
            .string("cat", cat)
            .string("ph", "i")
            .string("s", "g")
            .number("pid", 0)
            .number("tid", tid)
            .number("ts", ts)
            .finish();
        self.out.push_str("  ");
        self.out.push_str(&event);
    }

    /// Events appended so far.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.events
    }

    /// True when no events have been appended.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Closes the document and returns the JSON text.
    #[must_use]
    pub fn finish(mut self) -> String {
        self.out.push_str("\n]\n}\n");
        self.out
    }
}

impl Default for ChromeTraceWriter {
    fn default() -> Self {
        ChromeTraceWriter::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(LatencyHistogram::bucket(0), 0);
        assert_eq!(LatencyHistogram::bucket(1), 1);
        assert_eq!(LatencyHistogram::bucket(2), 2);
        assert_eq!(LatencyHistogram::bucket(3), 2);
        assert_eq!(LatencyHistogram::bucket(4), 3);
        assert_eq!(LatencyHistogram::bucket(1023), 10);
        assert_eq!(LatencyHistogram::bucket(1024), 11);
        assert_eq!(LatencyHistogram::bucket(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(LatencyHistogram::bucket_bound(0), 0);
        assert_eq!(LatencyHistogram::bucket_bound(10), 1023);
    }

    #[test]
    fn percentiles_are_nearest_rank_bucket_bounds() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.p50(), 0, "empty histogram reports zero");
        for ns in [100, 100, 100, 100, 100, 100, 100, 100, 100, 5000] {
            h.record(ns);
        }
        assert_eq!(h.samples(), 10);
        assert_eq!(h.sum_ns(), 5900);
        // 100 lands in bucket 7 ([64, 128)) whose bound is 127; 5000 in
        // bucket 13 ([4096, 8192)) whose bound is 8191.
        assert_eq!(h.p50(), 127);
        assert_eq!(h.p99(), 8191);
        assert_eq!(h.percentile(90), 127);
        assert_eq!(h.percentile(91), 8191);
    }

    #[test]
    fn merge_matches_recording_everything_in_one() {
        let samples_a = [0u64, 50, 450, 450, 1200];
        let samples_b = [25u64, 450, 10_000];
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for ns in samples_a {
            a.record(ns);
            whole.record(ns);
        }
        for ns in samples_b {
            b.record(ns);
            whole.record(ns);
        }
        a.merge(&b);
        assert_eq!(a, whole, "merging shards equals recording sequentially");
    }

    #[test]
    fn phase_histograms_record_one_sample_per_phase() {
        let mut p = PhaseHistograms::new();
        p.record_txn(&[0, 0, 25, 150, 450, 0]);
        p.record_txn(&[10_000, 0, 0, 0, 450, 0]);
        for phase in Phase::PIPELINE {
            assert_eq!(p.phase(phase).samples(), 2, "{phase}");
        }
        assert_eq!(p.sums(), [10_000, 0, 25, 150, 900, 0]);
        assert_eq!(p.phase(Phase::DataTransfer).p50(), 511);
        // The zeros left unrecorded come back in bucket 0: each phase reads
        // exactly as if every sample had been recorded.
        for phase in Phase::PIPELINE {
            let mut direct = LatencyHistogram::new();
            direct.record([0, 0, 25, 150, 450, 0][phase as usize]);
            direct.record([10_000, 0, 0, 0, 450, 0][phase as usize]);
            assert_eq!(p.phase(phase), direct, "{phase}");
        }
    }

    #[test]
    fn chrome_writer_emits_wellformed_json() {
        let mut w = ChromeTraceWriter::new();
        assert!(w.is_empty());
        w.duration("arbitrate", "phase", 1, 0, 50);
        w.duration("data-transfer", "phase", 1, 50, 450);
        w.instant("GLTCH", "fault", 2, 500);
        assert_eq!(w.len(), 3);
        let text = w.finish();
        assert!(text.starts_with("{\n"), "{text}");
        assert!(text.ends_with("\n]\n}\n"), "{text}");
        assert_eq!(text.matches("\"ph\": \"X\"").count(), 2);
        assert_eq!(text.matches("\"ph\": \"i\"").count(), 1);
        assert!(!text.contains(",\n]"), "no trailing comma: {text}");
        assert!(text.contains("\"dur\": 450"), "{text}");
        assert!(text.contains("\"displayTimeUnit\": \"ns\""), "{text}");
    }

    #[test]
    fn empty_chrome_trace_is_still_a_document() {
        let text = ChromeTraceWriter::new().finish();
        assert!(text.contains("\"traceEvents\": [\n\n]"), "{text}");
    }

    #[test]
    fn liveness_violations_fire_at_the_deadline_and_commits_reset_it() {
        let mut mon = LivenessMonitor::new(3);
        assert!(!mon.record_failure(1));
        assert!(!mon.record_failure(1));
        // A commit is progress: the streak resets.
        mon.record_commit(1);
        assert!(!mon.record_failure(1));
        assert!(!mon.record_failure(1));
        assert!(mon.record_failure(1), "third consecutive failure fires");
        assert_eq!(mon.violations(), 1);
        assert_eq!(mon.starved(), vec![1]);
        let p = mon.progress(1);
        assert_eq!(p.commits, 1);
        assert_eq!(p.failures, 5);
        assert_eq!(p.violations, 1);
        assert_eq!(p.consecutive_failures, 0, "reset after firing");
        // Continued starvation keeps firing every `deadline` failures.
        assert!(!mon.record_failure(1));
        assert!(!mon.record_failure(1));
        assert!(mon.record_failure(1));
        assert_eq!(mon.violations(), 2);
    }

    #[test]
    fn liveness_ledgers_are_per_master() {
        let mut mon = LivenessMonitor::new(2);
        assert!(!mon.record_failure(0));
        assert!(!mon.record_failure(1));
        assert!(mon.record_failure(1));
        assert_eq!(mon.starved(), vec![1], "master 0 is one short");
        assert_eq!(mon.progress(7), MasterProgress::default(), "never seen");
    }
}
