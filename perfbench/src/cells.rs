//! The four workloads of the benchmark of record and the cells they run.
//!
//! Every machine and every reference stream comes from the repository's
//! public builders — [`bench::homogeneous_system`],
//! [`bench::workload_streams`], [`TreeBuilder::uniform`] and the
//! [`bench::COMPARED_PROTOCOLS`] / [`HierarchyBenchConfig`] grids — so a
//! cell here is the same machine on the same streams that `moesi-sim bench`
//! runs. A cell's simulated outcome is summarised as a [`Digest`], the line
//! the committed reference pins.

use bench::hierarchy::HierarchyBenchConfig;
use bench::sweep::{SweepConfig, CPU_WORK_NS};
use bench::{homogeneous_system, workload_streams, COMPARED_PROTOCOLS, LINE};
use cache_array::{CacheConfig, ReplacementKind};
use futurebus::{Discipline, Futurebus, PhaseHistograms, TimingConfig};
use moesi::protocols::by_name;
use moesi::Protocol;
use mpsim::hierarchy::{HierarchicalSystem, TreeBuilder};
use mpsim::{RefStream, System, TimedReport};

use crate::host::Recorder;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "sweep-local",
    "sweep-coherence",
    "tree-saturation",
    "oracle-checked",
];

/// The seed the committed reference digests were recorded at (the
/// repository's benchmark seed, `moesi-sim bench --seed 7`).
pub const DEFAULT_SEED: u64 = 7;

/// Per-processor references of the flat 16-CPU oracle cell.
const ORACLE_FLAT_STEPS: u64 = 40;
/// Per-cache references of the 8x4 oracle tree cell.
const ORACLE_TREE_STEPS: u64 = 20;
/// Independent stream draws of each oracle machine. The oracle's cost per
/// access grows with the lines cached, which varies from draw to draw;
/// averaging six draws keeps one seed's luck out of the result (with three,
/// the best case still moved by about 4% from seed to seed).
const ORACLE_DRAWS: u64 = 6;

/// Per-processor reference streams of a flat machine.
pub type Streams = Vec<Box<dyn RefStream + Send>>;

/// Wraps each protocol a builder installs; the identity for the measured
/// machines, a call counter for the traced run's counting replica.
pub type Wrap = fn(Box<dyn Protocol + Send>) -> Box<dyn Protocol + Send>;

/// What kind of machine a cell builds, as plain data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Shape {
    /// A [`bench::homogeneous_system`] driven by `System::run_timed`.
    Flat {
        /// Stream name for [`bench::workload_streams`].
        workload: String,
        /// Processors on the bus.
        cpus: usize,
    },
    /// A [`TreeBuilder::uniform`] fabric tree driven one access at a time.
    Tree {
        /// Arbitration discipline on every bus.
        discipline: Discipline,
        /// Root-level clusters.
        clusters: usize,
        /// Bus levels.
        depth: usize,
        /// Interior fan-out.
        fanout: usize,
        /// Caches per leaf cluster.
        cpus: usize,
    },
}

/// One cell: a protocol on a machine shape for a number of references.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellSpec {
    /// Stable identifier, the key of the reference digest.
    pub id: String,
    /// Protocol every cache runs.
    pub protocol: String,
    /// Machine shape and stream.
    pub shape: Shape,
    /// Per-cache capacity in bytes.
    pub cache_bytes: usize,
    /// References per processor.
    pub steps: u64,
    /// Whether the consistency oracle audits every access.
    pub checking: bool,
    /// Which independent draw of the streams this cell runs (0: the seed
    /// itself, as `moesi-sim bench` uses it).
    pub draw: u64,
}

impl CellSpec {
    /// Total processor accesses the cell issues.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.steps * self.caches() as u64
    }

    /// Caches in the machine.
    #[must_use]
    pub fn caches(&self) -> usize {
        match &self.shape {
            Shape::Flat { cpus, .. } => *cpus,
            Shape::Tree {
                clusters,
                depth,
                fanout,
                cpus,
                ..
            } => clusters * fanout.pow(*depth as u32 - 2) * cpus,
        }
    }

    /// The seed this cell's streams (and tree) are drawn from.
    #[must_use]
    pub fn stream_seed(&self, seed: u64) -> u64 {
        seed.wrapping_add(self.draw.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The cache geometry of every node.
    #[must_use]
    pub fn cache_config(&self) -> CacheConfig {
        CacheConfig::new(self.cache_bytes, LINE, 2, ReplacementKind::Lru)
    }
}

/// A workload: its cells and the worker count its cells run on.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Cells, in reference order.
    pub cells: Vec<CellSpec>,
    /// `mpsim::run_jobs` workers.
    pub workers: usize,
}

fn sweep_cells(workloads: &[&str]) -> Vec<CellSpec> {
    let cfg = SweepConfig::default();
    let mut cells = Vec::new();
    for protocol in COMPARED_PROTOCOLS {
        for w in workloads {
            cells.push(CellSpec {
                id: format!("{protocol}/{w}"),
                protocol: (*protocol).to_string(),
                shape: Shape::Flat {
                    workload: (*w).to_string(),
                    cpus: cfg.cpus,
                },
                cache_bytes: cfg.cache_bytes,
                steps: cfg.steps,
                checking: false,
                draw: 0,
            });
        }
    }
    cells
}

fn tree_cell(
    cfg: &HierarchyBenchConfig,
    protocol: &str,
    (clusters, depth, fanout): (usize, usize, usize),
    discipline: Discipline,
) -> CellSpec {
    CellSpec {
        id: format!(
            "{protocol}/{discipline}/c{clusters}d{depth}f{fanout}x{}",
            cfg.cpus
        ),
        protocol: protocol.to_string(),
        shape: Shape::Tree {
            discipline,
            clusters,
            depth,
            fanout,
            cpus: cfg.cpus,
        },
        cache_bytes: cfg.cache_bytes,
        steps: cfg.steps,
        checking: false,
        draw: 0,
    }
}

/// The committed saturation grid (`bench --hierarchy` defaults), with the
/// fan-out axis collapsed at depth 2 exactly as the study does.
fn tree_grid() -> Vec<CellSpec> {
    let cfg = HierarchyBenchConfig::default();
    let mut cells = Vec::new();
    for protocol in &cfg.protocols {
        for &clusters in &cfg.clusters {
            for &depth in &cfg.depths {
                let fanouts: &[usize] = if depth == 2 { &[1] } else { &cfg.fanouts };
                for &fanout in fanouts {
                    for &discipline in &cfg.disciplines {
                        cells.push(tree_cell(
                            &cfg,
                            protocol,
                            (clusters, depth, fanout),
                            discipline,
                        ));
                    }
                }
            }
        }
    }
    cells
}

fn oracle_cells() -> Vec<CellSpec> {
    let grid = HierarchyBenchConfig::default();
    let mut cells = Vec::new();
    for draw in 0..ORACLE_DRAWS {
        let mut flat = sweep_cells(&["general"]).swap_remove(0);
        flat.id = format!("flat16/moesi/general/draw{draw}");
        flat.shape = Shape::Flat {
            workload: "general".into(),
            cpus: 16,
        };
        flat.steps = ORACLE_FLAT_STEPS;
        let mut tree = tree_cell(&grid, "moesi", (8, 2, 1), Discipline::Priority);
        tree.id = format!("tree8x4/moesi/general/draw{draw}");
        tree.steps = ORACLE_TREE_STEPS;
        for mut cell in [flat, tree] {
            cell.checking = true;
            cell.draw = draw;
            cells.push(cell);
        }
    }
    cells
}

/// The named workload.
///
/// # Errors
///
/// Returns a message naming the known workloads for any other name.
pub fn workload(name: &str) -> Result<Workload, String> {
    let (name, cells, workers) = match name {
        "sweep-local" => (
            WORKLOADS[0],
            sweep_cells(&["general", "read-mostly", "migratory"]),
            1,
        ),
        "sweep-coherence" => (
            WORKLOADS[1],
            sweep_cells(&["ping-pong", "producer-consumer", "false-sharing"]),
            1,
        ),
        "tree-saturation" => (WORKLOADS[2], tree_grid(), mpsim::default_jobs()),
        "oracle-checked" => (WORKLOADS[3], oracle_cells(), 1),
        other => {
            return Err(format!(
                "unknown workload `{other}` (known: {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    Ok(Workload {
        name,
        cells,
        workers,
    })
}

/// A built cell: the machine and its streams, ready to run.
pub enum Machine {
    /// A flat bus and one stream per processor.
    Flat(System, Streams),
    /// A fabric tree and, per leaf cluster, one stream per cache.
    Tree(HierarchicalSystem, Vec<Streams>),
}

/// Builds the fabric tree of a tree cell, each protocol passed through
/// `wrap`. `checking` overrides the spec (the oracle twins).
#[must_use]
pub fn tree_machine(spec: &CellSpec, seed: u64, checking: bool, wrap: Wrap) -> HierarchicalSystem {
    let Shape::Tree {
        discipline,
        clusters,
        depth,
        fanout,
        cpus,
    } = spec.shape
    else {
        panic!("{} is not a tree cell", spec.id);
    };
    let cache_cfg = spec.cache_config();
    let protocol = spec.protocol.as_str();
    TreeBuilder::uniform(LINE, clusters, depth, fanout, cpus, |leaf, cpu| {
        (
            wrap(
                by_name(protocol, 1000 + (leaf * cpus + cpu) as u64)
                    .expect("workload protocols are shipped protocols"),
            ),
            Some(cache_cfg),
        )
    })
    .seed(spec.stream_seed(seed))
    .discipline(discipline)
    .checking(checking)
    .build()
}

/// The cell's reference streams: one `general` (Dubois-&-Briggs) stream per
/// cache for trees, keyed by global cache index exactly as the saturation
/// study keys them, grouped by leaf.
#[must_use]
pub fn tree_streams(spec: &CellSpec, seed: u64) -> Vec<Streams> {
    let Shape::Tree { cpus, .. } = spec.shape else {
        panic!("{} is not a tree cell", spec.id);
    };
    let mut flat =
        workload_streams("general", spec.caches(), LINE, spec.stream_seed(seed)).into_iter();
    (0..spec.caches() / cpus)
        .map(|_| flat.by_ref().take(cpus).collect())
        .collect()
}

/// The flat cell's streams.
#[must_use]
pub fn flat_streams(spec: &CellSpec, seed: u64) -> Streams {
    let Shape::Flat { workload, cpus } = &spec.shape else {
        panic!("{} is not a flat cell", spec.id);
    };
    workload_streams(workload, *cpus, LINE, spec.stream_seed(seed))
}

/// The flat cell's machine, with the oracle as `checking` says.
#[must_use]
pub fn flat_machine(spec: &CellSpec, checking: bool) -> System {
    let Shape::Flat { cpus, .. } = &spec.shape else {
        panic!("{} is not a flat cell", spec.id);
    };
    homogeneous_system(
        &spec.protocol,
        *cpus,
        spec.cache_bytes,
        LINE,
        TimingConfig::default(),
        checking,
    )
}

/// Builds the cell as specified: its machine and fresh streams.
#[must_use]
pub fn build(spec: &CellSpec, seed: u64) -> Machine {
    match spec.shape {
        Shape::Flat { .. } => {
            Machine::Flat(flat_machine(spec, spec.checking), flat_streams(spec, seed))
        }
        Shape::Tree { .. } => Machine::Tree(
            tree_machine(spec, seed, spec.checking, |p| p),
            tree_streams(spec, seed),
        ),
    }
}

/// The simulated counters of one cell — what the reference pins. Phase
/// percentiles are reported alongside but deliberately left out.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    /// Processor accesses completed.
    pub accesses: u64,
    /// Simulated wall time (timed flat runs; 0 for the untimed tree).
    pub wall_ns: u64,
    /// Bus-occupied ns summed over every bus in the machine.
    pub busy_ns: u64,
    /// Ns processors queued for the bus (timed flat runs only).
    pub wait_ns: u64,
    /// Bus transactions summed over every bus.
    pub transactions: u64,
    /// BS aborts summed over every bus.
    pub aborts: u64,
    /// Reads + writes the caches saw.
    pub refs: u64,
    /// Of those, hits (the miss ratio is `1 - hits/refs`).
    pub hits: u64,
    /// Read transactions (the ones that fill a cache).
    pub reads: u64,
    /// Write transactions (including pushes).
    pub writes: u64,
    /// Address-only transactions.
    pub address_only: u64,
    /// Main-memory line reads + writes summed over every bus's memory.
    pub memory_ops: u64,
    /// Bridge ledger: snoops observed, forwarded and suppressed.
    pub snooped: u64,
    /// Snoops admitted past the inclusion filters.
    pub forwarded: u64,
    /// Snoops the inclusion filters suppressed.
    pub suppressed: u64,
}

impl Digest {
    /// The reference line for cell `id`.
    #[must_use]
    pub fn line(&self, id: &str) -> String {
        format!(
            "{id} accesses={} wall_ns={} busy_ns={} wait_ns={} txns={} aborts={} \
             reads={} writes={} address_only={} hits={} refs={} memory_ops={} \
             snooped={} forwarded={} suppressed={}",
            self.accesses,
            self.wall_ns,
            self.busy_ns,
            self.wait_ns,
            self.transactions,
            self.aborts,
            self.reads,
            self.writes,
            self.address_only,
            self.hits,
            self.refs,
            self.memory_ops,
            self.snooped,
            self.forwarded,
            self.suppressed
        )
    }

    fn add_bus(&mut self, bus: &Futurebus) {
        let s = bus.stats();
        self.busy_ns += s.busy_ns;
        self.transactions += s.transactions;
        self.aborts += s.aborts;
        self.reads += s.reads;
        self.writes += s.writes;
        self.address_only += s.address_only;
        self.memory_ops += bus.memory().read_count() + bus.memory().write_count();
    }

    fn add_stats(&mut self, s: &mpsim::CpuStats) {
        self.refs += s.references();
        self.hits += s.hits();
    }
}

/// Every bus of a fabric tree: the root, then each bridge's subtree bus in
/// pre-order.
#[must_use]
pub fn tree_buses(sys: &HierarchicalSystem) -> Vec<&Futurebus> {
    let mut buses = vec![sys.parent_bus()];
    for bridge in sys.bridges_preorder() {
        buses.push(match bridge.segment() {
            Some(seg) => seg.bus(),
            None => bridge.fabric().bus(),
        });
    }
    buses
}

/// The flat cell's digest after a timed run.
#[must_use]
pub fn flat_digest(sys: &System, report: &TimedReport) -> Digest {
    let mut d = Digest {
        accesses: report.total_refs,
        wall_ns: report.wall_ns,
        ..Digest::default()
    };
    d.add_bus(sys.fabric().bus());
    d.add_stats(&sys.total_stats());
    // The timed model's occupancy and queueing are the paper's quantities.
    d.busy_ns = report.bus_busy_ns;
    d.wait_ns = report.bus_wait_ns;
    d
}

/// The tree cell's digest after `steps` rounds.
#[must_use]
pub fn tree_digest(sys: &HierarchicalSystem, accesses: u64) -> Digest {
    let mut d = Digest {
        accesses,
        ..Digest::default()
    };
    for bus in tree_buses(sys) {
        d.add_bus(bus);
    }
    for leaf in 0..sys.leaves() {
        for ctrl in sys.leaf_fabric(leaf).controllers() {
            d.add_stats(ctrl.stats());
        }
    }
    for bridge in sys.bridges_preorder() {
        let s = bridge.stats();
        d.snooped += s.snooped;
        d.forwarded += s.forwarded;
        d.suppressed += s.suppressed;
    }
    d
}

fn render_phases(hist: &PhaseHistograms) -> String {
    format!("p50={:?} p99={:?}", hist.p50s(), hist.p99s())
}

/// What running one cell produced.
#[derive(Debug)]
pub struct Outcome {
    /// The simulated counters.
    pub digest: Digest,
    /// Per-phase p50/p99 (root bus for trees), reported but not digested.
    pub phases: String,
    /// The oracle's verdict at the end of the run.
    pub violation: Option<String>,
    /// Host ns of the run call(s), verification excluded.
    pub run_ns: u64,
    /// `run_ns` split into the pieces timed one by one (see
    /// [`piece_steps`]); the whole run for a cell timed whole.
    pub pieces_ns: Vec<u64>,
    /// On-CPU ns of the whole task (traced runs, where the kernel reports
    /// it).
    pub cpu_ns: Option<u64>,
    /// Spans recorded by a traced run (empty otherwise).
    pub spans: Vec<crate::host::Span>,
}

/// Steps per timed piece of a fabric-tree cell with the oracle on: one
/// round, which costs milliseconds.
const ORACLE_PIECE_STEPS: u64 = 1;
/// Steps per timed piece of any other tree cell: 0.2–1 ms.
const TREE_PIECE_STEPS: u64 = 10;

/// How many steps (one reference of every cache) of a cell are timed as
/// one piece, or `None` for a cell timed whole: the flat cells, whose
/// `System::run_timed` is one call. A tree is run one
/// `HierarchicalSystem::run` call per piece, which simulates exactly what
/// one call over every step does. On a shared host a whole tree cell
/// (15–150 ms) rarely runs without interference, but each piece does at some
/// point in a run: on `oracle-checked`, the sum of the rounds' fastest
/// times taken from a run's slowest half of passes alone came within 1% of
/// the same sum from its fastest half, where the cell's fastest whole run
/// differed by 13% between the halves.
#[must_use]
pub fn piece_steps(spec: &CellSpec) -> Option<u64> {
    match spec.shape {
        Shape::Flat { .. } => None,
        Shape::Tree { .. } if spec.checking => Some(ORACLE_PIECE_STEPS),
        Shape::Tree { .. } => Some(TREE_PIECE_STEPS),
    }
}

/// How many `run` calls an untraced run of the cell makes.
#[must_use]
pub fn run_calls(spec: &CellSpec) -> u64 {
    piece_steps(spec).map_or(1, |k| spec.steps.div_ceil(k))
}

/// Runs one built cell. Untraced, flat cells go through
/// `System::run_timed` and trees through `HierarchicalSystem::run`, one call
/// per piece ([`piece_steps`]); traced, the tree is driven one
/// `read_at`/`write_at` at a time in the order `run` uses, with a span
/// around each call.
#[must_use]
pub fn run(spec: &CellSpec, machine: Machine, traced: bool) -> Outcome {
    let cpu_start = traced.then(crate::host::thread_cpu_ns).flatten();
    let mut rec = Recorder::new(traced);
    let (digest, phases, violation, pieces_ns) = match machine {
        Machine::Flat(mut sys, mut streams) => {
            let span = rec.open("System::run_timed", None);
            let start = std::time::Instant::now();
            let report = sys.run_timed(&mut streams, spec.steps, CPU_WORK_NS);
            let run_ns = start.elapsed().as_nanos() as u64;
            rec.close(span);
            let span = rec.open("System::verify", None);
            let violation = sys.verify().err().map(|v| v.to_string());
            rec.close(span);
            (
                flat_digest(&sys, &report),
                render_phases(&report.phase_hist),
                violation,
                vec![run_ns],
            )
        }
        Machine::Tree(mut sys, mut streams) => {
            let piece = piece_steps(spec);
            let start = std::time::Instant::now();
            let pieces = if traced {
                let rounds = drive_tree(&mut sys, &mut streams, spec.steps, &mut rec);
                piece.map(|k| rounds.chunks(k as usize).map(|c| c.iter().sum()).collect())
            } else if let Some(k) = piece {
                let mut pieces = Vec::new();
                let mut left = spec.steps;
                while left > 0 {
                    let steps = k.min(left);
                    let t = std::time::Instant::now();
                    sys.run(&mut streams, steps);
                    pieces.push(t.elapsed().as_nanos() as u64);
                    left -= steps;
                }
                Some(pieces)
            } else {
                sys.run(&mut streams, spec.steps);
                None
            };
            let run_ns = start.elapsed().as_nanos() as u64;
            let span = rec.open("HierarchicalSystem::verify", None);
            let violation = sys.verify().err().map(|v| v.to_string());
            rec.close(span);
            (
                tree_digest(&sys, spec.accesses()),
                render_phases(sys.parent_bus().phase_histograms()),
                violation,
                pieces.unwrap_or_else(|| vec![run_ns]),
            )
        }
    };
    let cpu_ns = cpu_start.and_then(|a| crate::host::thread_cpu_ns().map(|b| b.saturating_sub(a)));
    Outcome {
        digest,
        phases,
        violation,
        run_ns: pieces_ns.iter().sum(),
        pieces_ns,
        cpu_ns,
        spans: rec.into_spans(),
    }
}

/// `HierarchicalSystem::run`'s loop, issued from outside through the public
/// `read_at`/`write_at` so each access gets its own span: the same access
/// order and the same sequence-number write payloads, hence the same
/// simulated counters. Returns the host ns of each round.
pub fn drive_tree(
    sys: &mut HierarchicalSystem,
    streams: &mut [Streams],
    steps: u64,
    rec: &mut Recorder,
) -> Vec<u64> {
    let paths = sys.leaf_paths();
    let cell = rec.open("HierarchicalSystem::run", None);
    let mut seq: u32 = 0;
    let mut rounds = Vec::with_capacity(steps as usize);
    for _ in 0..steps {
        let round = std::time::Instant::now();
        for (path, leaf_streams) in paths.iter().zip(streams.iter_mut()) {
            for (cpu, stream) in leaf_streams.iter_mut().enumerate() {
                let access = stream.next_access();
                if access.is_write {
                    seq = seq.wrapping_add(1);
                    let pattern = seq.to_le_bytes();
                    let bytes: Vec<u8> = (0..access.size)
                        .map(|i| pattern[i % pattern.len()])
                        .collect();
                    let span = rec.open("HierarchicalSystem::write_at", Some(cell));
                    sys.write_at(path, cpu, access.addr, &bytes);
                    rec.close(span);
                } else {
                    let span = rec.open("HierarchicalSystem::read_at", Some(cell));
                    let _ = sys.read_at(path, cpu, access.addr, access.size);
                    rec.close(span);
                }
            }
        }
        rounds.push(round.elapsed().as_nanos() as u64);
    }
    rec.close(cell);
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_the_documented_shapes() {
        let local = workload("sweep-local").unwrap();
        assert_eq!(local.cells.len(), 33);
        assert_eq!(local.workers, 1);
        let coherence = workload("sweep-coherence").unwrap();
        assert_eq!(coherence.cells.len(), 33);
        let tree = workload("tree-saturation").unwrap();
        assert_eq!(tree.cells.len(), 24);
        assert_eq!(tree.cells.iter().map(CellSpec::caches).max(), Some(64));
        assert!(tree.workers <= crate::host::available_parallelism());
        let oracle = workload("oracle-checked").unwrap();
        assert!(oracle.cells.iter().all(|c| c.checking));
        assert_eq!(oracle.cells[0].caches(), 16);
        assert_eq!(oracle.cells[1].caches(), 32);
        assert_eq!(oracle.cells.len(), 2 * ORACLE_DRAWS as usize);
        assert!(workload("bogus").is_err());
        for w in WORKLOADS {
            let cells = workload(w).unwrap().cells;
            let mut ids: Vec<&str> = cells.iter().map(|c| c.id.as_str()).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), cells.len(), "{w}: cell ids are unique");
        }
    }

    /// The sweeps' cells are `bench::sweep`'s cells: same machine, same
    /// streams, same simulated row.
    #[test]
    fn a_flat_cell_reproduces_the_bench_sweep_row() {
        let mut spec = workload("sweep-coherence").unwrap().cells.remove(1);
        spec.steps = 150;
        let Machine::Flat(mut sys, mut streams) = build(&spec, DEFAULT_SEED) else {
            unreachable!()
        };
        let report = sys.run_timed(&mut streams, spec.steps, CPU_WORK_NS);
        let d = flat_digest(&sys, &report);
        let cfg = SweepConfig {
            steps: spec.steps,
            seed: DEFAULT_SEED,
            jobs: 1,
            ..SweepConfig::default()
        };
        let Shape::Flat { workload: w, .. } = &spec.shape else {
            unreachable!()
        };
        let row = bench::sweep::sweep_one(&cfg, &spec.protocol, w).unwrap();
        assert_eq!(
            (d.accesses, d.wall_ns, d.busy_ns, d.wait_ns),
            (row.accesses, row.wall_ns, row.busy_ns, row.wait_ns)
        );
        assert_eq!(1.0 - d.hits as f64 / d.refs as f64, row.miss_ratio);
    }

    /// The saturation cells are `bench::hierarchy`'s cells, and the traced
    /// driver reproduces `HierarchicalSystem::run` exactly.
    #[test]
    fn a_tree_cell_reproduces_the_saturation_row_traced_or_not() {
        let mut spec = workload("tree-saturation").unwrap().cells.remove(3);
        spec.steps = 20;
        let Shape::Tree {
            discipline,
            clusters,
            depth,
            fanout,
            cpus,
        } = spec.shape
        else {
            unreachable!()
        };
        let cfg = HierarchyBenchConfig {
            protocols: vec![spec.protocol.clone()],
            clusters: vec![clusters],
            depths: vec![depth],
            fanouts: vec![fanout],
            disciplines: vec![discipline],
            cpus,
            steps: spec.steps,
            seed: DEFAULT_SEED,
            jobs: 1,
            ..HierarchyBenchConfig::default()
        };
        let row = bench::hierarchy::hierarchy_sweep(&cfg).unwrap().remove(0);
        let plain = run(&spec, build(&spec, DEFAULT_SEED), false);
        let traced = run(&spec, build(&spec, DEFAULT_SEED), true);
        assert_eq!(plain.digest, traced.digest);
        assert_eq!(plain.digest.accesses, row.accesses);
        assert_eq!(plain.digest.snooped, row.snooped);
        assert_eq!(plain.digest.suppressed, row.suppressed);
        assert_eq!(plain.digest.forwarded, row.forwarded);
        assert!(plain.digest.transactions >= row.root_transactions + row.leaf_transactions);
        assert!(traced
            .spans
            .iter()
            .any(|s| s.name == "HierarchicalSystem::read_at"));
    }

    /// A tree timed in pieces, one `run` call each, simulates exactly what
    /// one `run` call over every step does, traced or not.
    #[test]
    fn a_tree_timed_in_pieces_simulates_what_one_run_call_does() {
        let mut oracle = workload("oracle-checked").unwrap().cells.remove(1);
        oracle.steps = 6;
        let mut saturation = workload("tree-saturation").unwrap().cells.remove(3);
        saturation.steps = 25;
        for (spec, pieces) in [(oracle, 6), (saturation, 3)] {
            assert_eq!(run_calls(&spec), pieces);
            let plain = run(&spec, build(&spec, DEFAULT_SEED), false);
            let traced = run(&spec, build(&spec, DEFAULT_SEED), true);
            assert_eq!(plain.pieces_ns.len(), pieces as usize);
            assert_eq!(traced.pieces_ns.len(), pieces as usize);
            assert_eq!(plain.run_ns, plain.pieces_ns.iter().sum::<u64>());
            assert_eq!(plain.digest, traced.digest);
            assert_eq!(plain.violation, None);

            let Machine::Tree(mut sys, mut streams) = build(&spec, DEFAULT_SEED) else {
                unreachable!()
            };
            sys.run(&mut streams, spec.steps);
            assert_eq!(plain.digest, tree_digest(&sys, spec.accesses()));
        }

        let flat = workload("oracle-checked").unwrap().cells.remove(0);
        assert_eq!(piece_steps(&flat), None);
        assert_eq!(run_calls(&flat), 1);
    }
}
