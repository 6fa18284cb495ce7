//! Host-side probes and the in-memory span recorder.
//!
//! Everything here measures the machine running the simulator, never the
//! simulated one: wall and on-CPU clocks, peak resident memory, the core
//! count, and the spans the traced run records around the public calls the
//! benchmark makes into the program.

use std::sync::OnceLock;
use std::time::Instant;

/// The process-wide time origin every span is stamped against.
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide origin.
#[must_use]
pub fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

/// On-CPU nanoseconds of the calling thread (first field of
/// `/proc/thread-self/schedstat`), or `None` where the kernel does not
/// expose it.
#[must_use]
pub fn thread_cpu_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Online CPUs as the scheduler reports them (`available_parallelism`),
/// which honours affinity masks and cgroup quotas.
#[must_use]
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Processors the kernel has online (`/sys/devices/system/cpu/online`),
/// ignoring affinity and quotas — what `nproc --all` prints.
#[must_use]
pub fn online_cpus() -> Option<usize> {
    let text = std::fs::read_to_string("/sys/devices/system/cpu/online").ok()?;
    let mut count = 0;
    for range in text.trim().split(',') {
        match range.split_once('-') {
            Some((lo, hi)) => {
                count += hi.parse::<usize>().ok()? - lo.parse::<usize>().ok()? + 1;
            }
            None => {
                range.parse::<usize>().ok()?;
                count += 1;
            }
        }
    }
    Some(count)
}

/// One timed interval around a call the benchmark made into the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The public function the span wraps.
    pub name: &'static str,
    /// Index, within the same cell's span list, of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in ns since the process origin.
    pub start_ns: u64,
    /// End, in ns since the process origin.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in ns.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One cell's span list. Disabled recorders keep nothing, so the untraced
/// run pays only a branch per call.
#[derive(Debug, Default)]
pub struct Recorder {
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder; `enabled` selects the traced run.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            spans: Vec::new(),
        }
    }

    /// Opens a span and returns its index (meaningless when disabled).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        if self.enabled {
            let now = now_ns();
            self.spans.push(Span {
                name,
                parent,
                start_ns: now,
                end_ns: now,
            });
        }
        self.spans.len().wrapping_sub(1)
    }

    /// Closes the span `open` returned.
    pub fn close(&mut self, index: usize) {
        if self.enabled {
            self.spans[index].end_ns = now_ns();
        }
    }

    /// The recorded spans, in opening order.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// First quartile, median and third quartile of a sample, by the algorithm
/// of Python's `statistics.quantiles(values, n=4)` (default "exclusive"
/// method), so the benchmark reports the same spread its acceptance check
/// computes. A one-value sample is its own quartiles.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len() as i64;
    match ld {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let m = ld + 1;
    let at = |i: i64| -> f64 {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(false);
        let s = r.open("x", None);
        r.close(s);
        assert!(r.into_spans().is_empty());
        let mut r = Recorder::new(true);
        let s = r.open("x", None);
        r.close(s);
        let spans = r.into_spans();
        assert_eq!(spans.len(), 1);
        assert!(spans[0].end_ns >= spans[0].start_ns);
    }

    #[test]
    fn host_probes_read_on_linux() {
        assert!(available_parallelism() >= 1);
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
            assert!(thread_cpu_ns().is_some());
        }
    }
}
