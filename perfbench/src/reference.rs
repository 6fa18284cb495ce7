//! The committed reference digests and the per-cell correctness check.
//!
//! `reference/<workload>.txt` holds one [`Digest::line`] per cell, recorded
//! at [`DEFAULT_SEED`]. At that seed a cell fails when its line differs from
//! the reference; at any other (held-out) seed only the oracle's verdict and
//! run-to-run determinism judge it.

use std::collections::HashMap;

use crate::cells::{Digest, Outcome, DEFAULT_SEED};

/// Directory of the committed reference files.
const DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/reference");

fn path(workload: &str) -> String {
    format!("{DIR}/{workload}.txt")
}

/// Reference lines keyed by cell id.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Reference {
    lines: HashMap<String, String>,
}

impl Reference {
    /// Parses a reference file's text: `#` lines are comments, every other
    /// non-empty line starts with its cell id.
    #[must_use]
    pub fn parse(text: &str) -> Self {
        let lines = text
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                let id = l.split_whitespace().next()?;
                Some((id.to_string(), l.to_string()))
            })
            .collect();
        Reference { lines }
    }

    /// The reference line of cell `id`.
    #[must_use]
    pub fn get(&self, id: &str) -> Option<&str> {
        self.lines.get(id).map(String::as_str)
    }
}

/// Loads the workload's reference when `seed` is the one it was recorded
/// at; `None` at a held-out seed.
///
/// # Errors
///
/// Fails when the default-seed reference file is missing or unreadable.
pub fn load(workload: &str, seed: u64) -> Result<Option<Reference>, String> {
    if seed != DEFAULT_SEED {
        return Ok(None);
    }
    let p = path(workload);
    std::fs::read_to_string(&p)
        .map(|text| Some(Reference::parse(&text)))
        .map_err(|e| format!("cannot read reference {p}: {e}"))
}

/// Writes the reference file for `workload` from one pass's digests.
///
/// # Errors
///
/// Fails when the file cannot be written.
pub fn bless(workload: &str, ids: &[&str], digests: &[Digest]) -> Result<(), String> {
    let mut text = format!(
        "# Simulated counters of every `{workload}` cell at seed {DEFAULT_SEED}.\n\
         # Regenerate with: cargo run --release --manifest-path perfbench/Cargo.toml -- \
         --workload {workload} --seed {DEFAULT_SEED} --seconds 1 --trace 0 --bless\n"
    );
    for (id, d) in ids.iter().zip(digests) {
        text.push_str(&d.line(id));
        text.push('\n');
    }
    std::fs::write(path(workload), text).map_err(|e| format!("cannot write reference: {e}"))
}

/// Judges each cell of one pass. `baseline` is the first pass's digests,
/// which every later pass (and the traced run) must repeat exactly. Returns
/// one `Some(reason)` per failed cell.
#[must_use]
pub fn check(
    ids: &[&str],
    outcomes: &[Outcome],
    reference: Option<&Reference>,
    baseline: Option<&[Digest]>,
) -> Vec<Option<String>> {
    ids.iter()
        .zip(outcomes)
        .enumerate()
        .map(|(i, (id, out))| {
            if let Some(v) = &out.violation {
                return Some(format!("{id}: oracle violation: {v}"));
            }
            if let Some(base) = baseline {
                if base[i] != out.digest {
                    return Some(format!("{id}: not deterministic: {}", out.digest.line(id)));
                }
            }
            let r = reference?;
            let got = out.digest.line(id);
            match r.get(id) {
                Some(want) if want == got => None,
                Some(want) => Some(format!("{id}: digest differs\n  want {want}\n  got  {got}")),
                None => Some(format!("{id}: no reference line")),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells;

    fn one_cell_pass() -> (Vec<&'static str>, Vec<Outcome>) {
        let mut spec = cells::workload("sweep-coherence").unwrap().cells.remove(0);
        spec.steps = 50;
        let out = cells::run(&spec, cells::build(&spec, DEFAULT_SEED), false);
        (vec!["moesi/ping-pong"], vec![out])
    }

    #[test]
    fn a_matching_reference_passes_and_a_perturbed_one_fails() {
        let (ids, outs) = one_cell_pass();
        let good = Reference::parse(&format!("# c\n{}\n", outs[0].digest.line(ids[0])));
        assert_eq!(check(&ids, &outs, Some(&good), None), vec![None]);

        let mut perturbed = outs[0].digest;
        perturbed.busy_ns += 1;
        let bad = Reference::parse(&perturbed.line(ids[0]));
        let verdict = check(&ids, &outs, Some(&bad), None);
        assert!(verdict[0].as_deref().unwrap().contains("digest differs"));

        let missing = Reference::parse("");
        assert!(check(&ids, &outs, Some(&missing), None)[0].is_some());
    }

    #[test]
    fn held_out_seeds_are_judged_by_the_oracle_and_determinism_alone() {
        let (ids, outs) = one_cell_pass();
        assert_eq!(load("sweep-coherence", DEFAULT_SEED + 1), Ok(None));
        assert_eq!(check(&ids, &outs, None, None), vec![None]);
        let mut other = outs[0].digest;
        other.transactions += 1;
        assert!(check(&ids, &outs, None, Some(&[other]))[0].is_some());
    }

    #[test]
    fn every_committed_reference_covers_its_workload() {
        for w in cells::WORKLOADS {
            let r = load(w, DEFAULT_SEED).unwrap().unwrap();
            for c in cells::workload(w).unwrap().cells {
                assert!(r.get(&c.id).is_some(), "{w}: {} missing", c.id);
            }
        }
    }
}
