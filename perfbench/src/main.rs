//! The benchmark of record for the MOESI/Futurebus simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-local --seed 7 --seconds 10 --trace 0
//! ```
//!
//! One run builds the workload's cells (set-up), runs them repeatedly for
//! `--seconds`, checks every cell's simulated counters, and prints as its
//! last stdout line one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). `METRICS.md` says
//! what each metric means and which metric each layer should move.

mod cells;
mod host;
mod layers;
mod reference;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use cells::{CellSpec, Digest, Machine, Outcome, Shape, Workload};
use reference::Reference;

/// Passes always run, however short `--seconds` is: one warm-up plus two
/// timed.
const MIN_PASSES: usize = 3;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = cells::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut bless = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--bless" => bless = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if bless && seed != cells::DEFAULT_SEED {
        return Err(format!("--bless records seed {} only", cells::DEFAULT_SEED));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        bless,
    })
}

/// One set-up plus one run of every cell.
struct Pass {
    setup_ns: u64,
    /// `setup_ns` split into the reference load and each cell's build.
    setup_pieces: Vec<u64>,
    wall_ns: u64,
    outcomes: Vec<Outcome>,
    reference: Option<Reference>,
}

fn pass(w: &Workload, seed: u64, traced: bool, blessing: bool) -> Result<Pass, String> {
    let start = Instant::now();
    let reference = if blessing {
        None
    } else {
        reference::load(w.name, seed)?
    };
    let mut setup_pieces = vec![start.elapsed().as_nanos() as u64];
    let machines: Vec<(usize, Machine)> = w
        .cells
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let build = Instant::now();
            let machine = cells::build(spec, seed);
            setup_pieces.push(build.elapsed().as_nanos() as u64);
            (i, machine)
        })
        .collect();
    let setup_ns = start.elapsed().as_nanos() as u64;
    let start = Instant::now();
    let outcomes = mpsim::run_jobs(machines, w.workers, |(i, machine)| {
        cells::run(&w.cells[i], machine, traced)
    });
    Ok(Pass {
        setup_ns,
        setup_pieces,
        wall_ns: start.elapsed().as_nanos() as u64,
        outcomes,
        reference,
    })
}

fn total_accesses(w: &Workload) -> u64 {
    w.cells.iter().map(CellSpec::accesses).sum()
}

/// What a run keeps of every pass: its host costs.
struct Sample {
    setup_ns: u64,
    wall_ns: u64,
    traced: bool,
    /// Σ task on-CPU ns / (wall × workers); traced passes only.
    busy_frac: Option<f64>,
}

/// Every pass of a run, checked as it lands. Only the first pass's outcomes
/// and each cell's fastest traced outcome are kept, so memory does not grow
/// with the pass count.
struct Runs {
    ids: Vec<String>,
    workers: usize,
    accesses: u64,
    /// Recording a new reference: nothing to check against yet.
    blessing: bool,
    baseline: Option<Vec<Digest>>,
    attempted: u64,
    failures: Vec<String>,
    samples: Vec<Sample>,
    /// Per cell and timed piece of it (`Outcome::pieces_ns`), its fastest
    /// run over the timed passes; untraced at index 0, traced at 1.
    piece_best: [Vec<Vec<u64>>; 2],
    /// Per set-up piece (`Pass::setup_pieces`), its fastest run over the
    /// timed passes.
    setup_best: Vec<u64>,
    first: Vec<Outcome>,
    /// Per cell, the traced outcome of its fastest run: the spans the layer
    /// costs come from, consistent with the best-case pass.
    best_traced: Vec<Option<Outcome>>,
}

impl Runs {
    fn new(w: &Workload, blessing: bool) -> Self {
        Runs {
            ids: w.cells.iter().map(|c| c.id.clone()).collect(),
            workers: w.workers,
            accesses: total_accesses(w),
            blessing,
            baseline: None,
            attempted: 0,
            failures: Vec::new(),
            samples: Vec::new(),
            piece_best: [Vec::new(), Vec::new()],
            setup_best: Vec::new(),
            first: Vec::new(),
            best_traced: Vec::new(),
        }
    }

    /// Runs passes until `seconds` have gone by and at least `min` ran.
    fn run(
        &mut self,
        w: &Workload,
        seed: u64,
        traced: bool,
        seconds: f64,
        min: usize,
    ) -> Result<(), String> {
        let start = Instant::now();
        let mut ran = 0;
        while ran < min || start.elapsed().as_secs_f64() < seconds {
            let p = pass(w, seed, traced, self.blessing)?;
            self.record(p, traced);
            ran += 1;
        }
        Ok(())
    }

    fn record(&mut self, p: Pass, traced: bool) {
        let ids: Vec<&str> = self.ids.iter().map(String::as_str).collect();
        let verdicts = reference::check(
            &ids,
            &p.outcomes,
            p.reference.as_ref(),
            self.baseline.as_deref(),
        );
        self.attempted += verdicts.len() as u64;
        self.failures.extend(verdicts.into_iter().flatten());
        let busy_frac = traced.then(|| {
            let cpu: u64 = p.outcomes.iter().filter_map(|o| o.cpu_ns).sum();
            cpu as f64 / (p.wall_ns as f64 * self.workers as f64)
        });
        self.samples.push(Sample {
            setup_ns: p.setup_ns,
            wall_ns: p.wall_ns,
            traced,
            busy_frac,
        });
        if self.baseline.is_none() {
            // The first pass warms up: it is checked, never timed.
            self.baseline = Some(p.outcomes.iter().map(|o| o.digest).collect());
            self.first = p.outcomes;
            return;
        }
        if self.setup_best.is_empty() {
            self.setup_best.clone_from(&p.setup_pieces);
        }
        for (b, &ns) in self.setup_best.iter_mut().zip(&p.setup_pieces) {
            *b = (*b).min(ns);
        }
        let best = &mut self.piece_best[usize::from(traced)];
        if best.is_empty() {
            *best = p.outcomes.iter().map(|o| o.pieces_ns.clone()).collect();
        }
        for (b, o) in best.iter_mut().zip(&p.outcomes) {
            for (b, &ns) in b.iter_mut().zip(&o.pieces_ns) {
                *b = (*b).min(ns);
            }
        }
        if traced {
            self.best_traced.resize_with(p.outcomes.len(), || None);
            for (b, o) in self.best_traced.iter_mut().zip(p.outcomes) {
                if b.as_ref().is_none_or(|b| o.run_ns < b.run_ns) {
                    *b = Some(o);
                }
            }
        }
    }

    /// The best-case pass: every cell at its fastest run, or for a cell
    /// timed in pieces, every piece at its fastest. Returns the summed
    /// worker-ns and the wall ns of that pass on the workload's workers, as
    /// `run_jobs` claims cells in order (`bench::sweep::critical_path_ns`).
    fn best_case(&self, traced: bool) -> (u64, u64) {
        let best = self.cell_costs(traced);
        (
            best.iter().sum(),
            bench::sweep::critical_path_ns(&best, self.workers),
        )
    }

    /// Per cell, its best-case cost: the sum of its pieces' fastest runs.
    fn cell_costs(&self, traced: bool) -> Vec<u64> {
        self.piece_best[usize::from(traced)]
            .iter()
            .map(|pieces| pieces.iter().sum())
            .collect()
    }

    /// Wall ns of the passes after the first (warm-up) one, traced or not
    /// as asked.
    fn costs(&self, traced: bool) -> Vec<f64> {
        self.samples
            .iter()
            .skip(1)
            .filter(|s| s.traced == traced)
            .map(|s| s.wall_ns as f64)
            .collect()
    }
}

/// An ordered metric list, printed as the result line's `metrics` object.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    host::quartiles(&values.collect::<Vec<_>>()).1
}

/// Sums of the simulated counters over a pass's cells.
fn digest_sum(outcomes: &[Outcome]) -> Digest {
    let mut s = Digest::default();
    for o in outcomes {
        let d = &o.digest;
        s.accesses += d.accesses;
        s.busy_ns += d.busy_ns;
        s.wait_ns += d.wait_ns;
        s.transactions += d.transactions;
        s.aborts += d.aborts;
        s.refs += d.refs;
        s.hits += d.hits;
        s.reads += d.reads;
        s.writes += d.writes;
        s.address_only += d.address_only;
        s.memory_ops += d.memory_ops;
        s.snooped += d.snooped;
        s.suppressed += d.suppressed;
    }
    s
}

fn end_to_end(runs: &Runs) -> Metrics {
    let aps = |wall_ns: f64| runs.accesses as f64 * 1e9 / wall_ns;
    // Whole-pass throughput, for the record: its spread is the host's noise.
    let mut walls: Vec<f64> = runs.costs(false);
    walls.sort_by(f64::total_cmp);
    let (q1, med, q3) = host::quartiles(&walls);
    let tail = walls.len().checked_sub(11).map_or(String::new(), |i| {
        format!(
            ", p{:.0} {:.0}",
            100.0 * (i + 1) as f64 / walls.len() as f64,
            aps(walls[i])
        )
    });
    let (_, best_wall) = runs.best_case(false);
    println!(
        "# accesses_per_s: best case {:.0}; whole passes ({}): fastest {:.0}, median {:.0} \
         (quartiles {:.0}..{:.0}){tail}",
        aps(best_wall as f64),
        walls.len(),
        aps(walls[0]),
        aps(med),
        aps(q3),
        aps(q1)
    );
    // Set-up is timed every pass, piece by piece like the cells: the
    // reference load and each cell's build at its fastest.
    let setups: Vec<f64> = runs
        .samples
        .iter()
        .skip(1)
        .map(|p| p.setup_ns as f64 / 1e9)
        .collect();
    let best_setup = runs.setup_best.iter().sum::<u64>() as f64 / 1e9;
    println!(
        "# setup_s: best case {best_setup:.6}; whole passes: median {:.6}",
        median_of(setups.into_iter())
    );
    let sim = digest_sum(&runs.first);
    let mut m = Metrics::default();
    m.put("accesses_per_s", aps(best_wall as f64), "accesses/s");
    m.put("setup_s", best_setup, "s");
    m.put("peak_rss_mb", host::peak_rss_mib().unwrap_or(0.0), "MiB");
    m.put(
        "sim_bus_ns_per_access",
        sim.busy_ns as f64 / sim.accesses as f64,
        "sim-ns",
    );
    m
}

/// Host ns attributed to the layers, summed over cells.
#[derive(Default)]
struct Attributed {
    engine: f64,
    /// Reported, but not part of the total: its policy, cache and bus parts
    /// are, and the rest of it is what stays unattributed.
    fabric: f64,
    moesi: f64,
    cache: f64,
    bus: f64,
    checker: f64,
    hierarchy: f64,
    leaf_lookup: f64,
}

impl Attributed {
    fn total(&self) -> f64 {
        self.engine
            + self.moesi
            + self.cache
            + self.bus
            + self.checker
            + self.hierarchy
            + self.leaf_lookup
    }
}

/// Sums the per-layer numbers accumulate into across cells.
#[derive(Default)]
struct LayerSums {
    flat_accesses: f64,
    tree_accesses: f64,
    decisions: f64,
    decide_weighted: f64,
    lookups: f64,
    lookup_weighted: f64,
    fills: f64,
    fill_weighted: f64,
    kind_txns: [f64; 3],
    kind_weighted: [f64; 3],
    memory_ops: f64,
    memory_weighted: f64,
    leaf_lookup_ns: Vec<f64>,
    verify_ns: Vec<f64>,
    run_ns: f64,
    attributed: Attributed,
}

fn spans_ns(o: &Outcome, pred: impl Fn(&str) -> bool) -> f64 {
    o.spans
        .iter()
        .filter(|s| pred(s.name))
        .map(|s| s.ns() as f64)
        .sum()
}

/// Times the traced pass's cells layer by layer. `costs` are the cells'
/// traced best-case costs: a cell timed in pieces costs less than its
/// fastest whole run, and its span times are scaled down to match. A
/// counting replica or an unchecked twin that does not reproduce its cell's
/// digest is a failure.
fn attribute(
    w: &Workload,
    seed: u64,
    traced: &[Outcome],
    costs: &[u64],
    failures: &mut Vec<String>,
) -> LayerSums {
    let mut sums = LayerSums::default();
    let mut decide_cache: HashMap<String, f64> = HashMap::new();
    for ((spec, out), &cost) in w.cells.iter().zip(traced).zip(costs) {
        let a = spec.accesses() as f64;
        let d = &out.digest;
        let run_ns = cost as f64;
        let scale = ratio(run_ns, out.run_ns as f64);
        sums.run_ns += run_ns;
        sums.verify_ns.extend(
            out.spans
                .iter()
                .filter(|s| s.name.ends_with("::verify") && spec.checking)
                .map(|s| s.ns() as f64),
        );
        // The oracle's share: the cell minus its unchecked twin, run the
        // same (traced) way, which must simulate exactly the same thing.
        let checker = if spec.checking {
            let mut twin = spec.clone();
            twin.checking = false;
            let t = cells::run(&twin, cells::build(&twin, seed), true);
            if t.digest != *d {
                failures.push(format!("{}: unchecked twin diverged", spec.id));
            }
            run_ns - t.run_ns as f64
        } else {
            0.0
        };
        sums.attributed.checker += checker;
        match spec.shape {
            Shape::Flat { .. } => {
                sums.flat_accesses += a;
                let (replica, counts) = layers::count_decisions(spec, seed);
                if replica != *d {
                    failures.push(format!("{}: counting replica diverged", spec.id));
                }
                let (local, bus) = counts.get();
                let decide = *decide_cache
                    .entry(spec.protocol.clone())
                    .or_insert_with(|| layers::decide_ns(&spec.protocol));
                let c = layers::flat_costs(spec, seed);
                let decisions = (local + bus) as f64;
                sums.decisions += decisions;
                sums.decide_weighted += decide * decisions;
                // One tag probe per reference plus one state read per miss:
                // a lower bound on the array calls an access makes.
                let lookups = (2 * d.refs - d.hits) as f64;
                let fills = d.reads as f64;
                sums.lookups += lookups;
                sums.lookup_weighted += c.lookup_ns * lookups;
                sums.fills += fills;
                sums.fill_weighted += c.fill_ns * fills;
                let kinds = [d.reads, d.writes, d.address_only];
                let mut bus_ns = 0.0;
                for (k, &count) in kinds.iter().enumerate() {
                    let ns = c.txn_ns[k] * count as f64;
                    sums.kind_txns[k] += count as f64;
                    sums.kind_weighted[k] += ns;
                    bus_ns += ns;
                }
                sums.memory_ops += d.memory_ops as f64;
                sums.memory_weighted += c.memory_op_ns * d.memory_ops as f64;
                let fabric = c.fabric_access_ns * a;
                let at = &mut sums.attributed;
                at.fabric += fabric;
                at.engine += run_ns - fabric - checker;
                // Snoop-side decisions run inside `run_txn`, already in bus.
                at.moesi += decide * local as f64;
                at.cache += c.lookup_ns * lookups + c.fill_ns * fills;
                at.bus += bus_ns;
            }
            Shape::Tree { cpus, .. } => {
                sums.tree_accesses += a;
                let access = scale * spans_ns(out, |n| n.ends_with("_at"));
                let leaf_ns =
                    layers::leaf_lookup_ns(&cells::tree_machine(spec, seed, false, |p| p));
                sums.leaf_lookup_ns.push(leaf_ns);
                let leaves = (spec.caches() / cpus) as f64;
                // `HierarchicalSystem::run` resolves each leaf once per
                // round, plus once up front per call.
                let calls = leaves * (spec.steps + cells::run_calls(spec)) as f64;
                let at = &mut sums.attributed;
                at.hierarchy += access - checker;
                at.leaf_lookup += leaf_ns * calls;
            }
        }
    }
    sums
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

fn per_layer(w: &Workload, seed: u64, seconds: f64, runs: &mut Runs) -> Result<Metrics, String> {
    // Untraced passes for the reference cost, then traced ones.
    runs.run(w, seed, false, seconds * 0.45, MIN_PASSES)?;
    runs.run(w, seed, true, seconds * 0.35, 2)?;
    // Worker-ns per access of the best-case passes.
    let untraced = runs.best_case(false).0 as f64 / runs.accesses as f64;
    let traced_cost = runs.best_case(true).0 as f64 / runs.accesses as f64;
    let busy_frac = median_of(runs.samples.iter().filter_map(|s| s.busy_frac));
    let traced: Vec<Outcome> = std::mem::take(&mut runs.best_traced)
        .into_iter()
        .map(|o| o.expect("every cell ran traced"))
        .collect();
    write_spans(w, seed, &traced)?;

    let mut failures = Vec::new();
    let s = attribute(w, seed, &traced, &runs.cell_costs(true), &mut failures);
    runs.failures.extend(failures);

    let sim = digest_sum(&traced);
    let accesses = sim.accesses as f64;
    let flat = s.flat_accesses;
    let tree = s.tree_accesses;
    let at = &s.attributed;
    let mut m = Metrics::default();
    m.put(
        "moesi.decide_ns",
        ratio(s.decide_weighted, s.decisions),
        "ns",
    );
    m.put(
        "moesi.decisions_per_access",
        ratio(s.decisions, flat),
        "count",
    );
    m.put(
        "cache_array.lookup_ns",
        ratio(s.lookup_weighted, s.lookups),
        "ns",
    );
    m.put(
        "cache_array.lookups_per_access",
        ratio(s.lookups, flat),
        "count",
    );
    m.put("cache_array.fill_ns", ratio(s.fill_weighted, s.fills), "ns");
    m.put(
        "cache_array.fills_per_access",
        ratio(s.fills, flat),
        "count",
    );
    m.put(
        "cache_array.miss_ratio",
        1.0 - ratio(sim.hits as f64, sim.refs as f64),
        "fraction",
    );
    let flat_txns: f64 = s.kind_txns.iter().sum();
    m.put(
        "futurebus.txn_ns",
        ratio(s.kind_weighted.iter().sum(), flat_txns),
        "ns",
    );
    m.put(
        "futurebus.txn_read_ns",
        ratio(s.kind_weighted[0], s.kind_txns[0]),
        "ns",
    );
    m.put(
        "futurebus.txn_write_ns",
        ratio(s.kind_weighted[1], s.kind_txns[1]),
        "ns",
    );
    m.put(
        "futurebus.txn_address_only_ns",
        ratio(s.kind_weighted[2], s.kind_txns[2]),
        "ns",
    );
    m.put(
        "futurebus.txns_per_access",
        ratio(sim.transactions as f64, accesses),
        "count",
    );
    m.put(
        "futurebus.abort_frac",
        ratio(sim.aborts as f64, sim.transactions as f64),
        "fraction",
    );
    m.put(
        "futurebus.memory_op_ns",
        ratio(s.memory_weighted, s.memory_ops),
        "ns",
    );
    m.put(
        "futurebus.memory_ops_per_access",
        ratio(sim.memory_ops as f64, accesses),
        "count",
    );
    m.put(
        "futurebus.sim_busy_ns_per_access",
        ratio(sim.busy_ns as f64, accesses),
        "sim-ns",
    );
    m.put(
        "futurebus.sim_wait_ns_per_access",
        ratio(sim.wait_ns as f64, accesses),
        "sim-ns",
    );
    m.put("mpsim.fabric.access_ns", ratio(at.fabric, flat), "ns");
    m.put("mpsim.engine.ns_per_access", ratio(at.engine, flat), "ns");
    m.put("mpsim.hierarchy.access_ns", ratio(at.hierarchy, tree), "ns");
    m.put(
        "mpsim.hierarchy.leaf_lookup_ns",
        mean(&s.leaf_lookup_ns),
        "ns",
    );
    m.put(
        "mpsim.hierarchy.snoops_per_access",
        ratio(sim.snooped as f64, tree),
        "count",
    );
    m.put(
        "mpsim.hierarchy.suppressed_frac",
        ratio(sim.suppressed as f64, sim.snooped as f64),
        "fraction",
    );
    m.put("mpsim.checker.verify_ns", mean(&s.verify_ns), "ns");
    m.put(
        "mpsim.checker.share",
        ratio(at.checker, s.run_ns),
        "fraction",
    );
    m.put("mpsim.campaign.busy_frac", busy_frac, "fraction");
    m.put(
        "unattributed_ns_per_access",
        untraced - at.total() / accesses,
        "ns",
    );
    m.put(
        "trace_overhead_frac",
        traced_cost / untraced - 1.0,
        "fraction",
    );
    eprintln!(
        "# host ns/access (worker-ns): untraced {untraced:.1}, traced {traced_cost:.1}; \
         attributed {:.1} = engine {:.1} + moesi {:.1} + cache {:.1} + bus {:.1} + \
         checker {:.1} + hierarchy {:.1} + leaf lookup {:.1}",
        at.total() / accesses,
        at.engine / accesses,
        at.moesi / accesses,
        at.cache / accesses,
        at.bus / accesses,
        at.checker / accesses,
        at.hierarchy / accesses,
        at.leaf_lookup / accesses,
    );
    Ok(m)
}

/// Where a run leaves its per-cell report and spans.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

fn write_spans(w: &Workload, seed: u64, traced: &[Outcome]) -> Result<(), String> {
    let mut text = format!("# seed {seed}\ncell\tname\tparent\tstart_ns\tend_ns\n");
    for (spec, o) in w.cells.iter().zip(traced) {
        for s in &o.spans {
            let parent = s.parent.map_or(String::from("-"), |i| i.to_string());
            let _ = writeln!(
                text,
                "{}\t{}\t{parent}\t{}\t{}",
                spec.id, s.name, s.start_ns, s.end_ns
            );
        }
    }
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/{}.spans.tsv", w.name);
    std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

fn write_report(w: &Workload, args: &Args, runs: &Runs, host_line: &str) -> Result<(), String> {
    let mut text = format!("{host_line}\n# pass\ttraced\tsetup_ns\twall_ns\n");
    for (i, p) in runs.samples.iter().enumerate() {
        let _ = writeln!(text, "# {i}\t{}\t{}\t{}", p.traced, p.setup_ns, p.wall_ns);
    }
    for (spec, o) in w.cells.iter().zip(&runs.first) {
        let _ = writeln!(
            text,
            "{}\n    {} run_ns={}",
            o.digest.line(&spec.id),
            o.phases,
            o.run_ns
        );
    }
    for f in &runs.failures {
        let _ = writeln!(text, "FAILED {f}");
    }
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let path = format!(
        "{OUT_DIR}/{}-seed{}-trace{}.txt",
        w.name,
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

fn main_inner(args: &Args) -> Result<bool, String> {
    let w = cells::workload(&args.workload)?;
    let parallelism = host::available_parallelism();
    let online = host::online_cpus().unwrap_or(parallelism);
    let host_line = format!(
        "# host: nproc={online} available_parallelism={parallelism} workers={}{}",
        w.workers,
        if w.workers > parallelism {
            " OVERSUBSCRIBED (workers exceed cores)"
        } else {
            ""
        }
    );
    println!("{host_line}");

    let mut runs = Runs::new(&w, args.bless);
    let metrics = if args.trace {
        per_layer(&w, args.seed, args.seconds, &mut runs)?
    } else {
        runs.run(&w, args.seed, false, args.seconds, MIN_PASSES)?;
        end_to_end(&runs)
    };
    if args.bless {
        let ids: Vec<&str> = runs.ids.iter().map(String::as_str).collect();
        let digests: Vec<Digest> = runs.first.iter().map(|o| o.digest).collect();
        reference::bless(w.name, &ids, &digests)?;
        eprintln!("# wrote the {} reference", w.name);
    }
    write_report(&w, args, &runs, &host_line)?;

    let failed = runs.failures.len() as u64;
    for f in runs.failures.iter().take(5) {
        eprintln!("FAILED {f}");
    }
    let correct = failed == 0;
    println!(
        "# {}: {} cells x {} passes, error_rate {} ({failed}/{})",
        w.name,
        w.cells.len(),
        runs.samples.len(),
        ratio(failed as f64, runs.attempted as f64),
        runs.attempted
    );
    for (name, value, unit) in &metrics.0 {
        println!("# {name} = {value} {unit}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        runs.attempted,
        metrics.json()
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--bless]",
                cells::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match main_inner(&args) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let a = parse_args(&argv(
            "--workload sweep-local --seed 3 --seconds 2 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sweep-local", 3, 2.0, true)
        );
        assert!(parse_args(&argv("--seed 3")).is_err());
        assert!(parse_args(&argv("--workload x --trace 2")).is_err());
        assert!(parse_args(&argv("--workload x --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload x --bogus")).is_err());
        assert!(parse_args(&argv("--workload x --seed 8 --bless")).is_err());
    }

    /// The same seed gives byte-identical inputs; the inputs are exactly
    /// what `bench::workload_streams` generates (no second generator).
    #[test]
    fn inputs_are_a_pure_function_of_the_seed_and_come_from_the_public_builders() {
        fn inputs(w: &str, seed: u64) -> String {
            let mut out = String::new();
            for spec in cells::workload(w).unwrap().cells {
                let streams: Vec<cells::Streams> = match spec.shape {
                    Shape::Flat { .. } => vec![cells::flat_streams(&spec, seed)],
                    Shape::Tree { .. } => cells::tree_streams(&spec, seed),
                };
                for mut s in streams.into_iter().flatten() {
                    for _ in 0..50 {
                        let _ = write!(out, "{:?};", s.next_access());
                    }
                }
            }
            out
        }
        for w in cells::WORKLOADS {
            assert_eq!(inputs(w, 11), inputs(w, 11), "{w}");
        }
        assert_ne!(inputs("sweep-local", 11), inputs("sweep-local", 12));
        assert_ne!(inputs("tree-saturation", 11), inputs("tree-saturation", 12));

        // Tree streams are the flat `general` streams of every cache, in
        // global cache order.
        let spec = cells::workload("tree-saturation").unwrap().cells.remove(0);
        let mut public = bench::workload_streams("general", spec.caches(), bench::LINE, 5);
        for (mut a, b) in cells::tree_streams(&spec, 5)
            .into_iter()
            .flatten()
            .zip(public.iter_mut())
        {
            for _ in 0..20 {
                assert_eq!(a.next_access(), b.next_access());
            }
        }
    }

    #[test]
    fn metrics_render_as_one_json_object() {
        let mut m = Metrics::default();
        m.put("a", 1.5, "ms");
        m.put("b", f64::NAN, "s");
        assert_eq!(
            m.json(),
            "{\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0.0, \"unit\": \"s\"}}"
        );
    }
}
