//! The consistency oracle.
//!
//! The paper's correctness requirement (§1): "all references to a given
//! location, no matter from which processor they originate, should reference
//! the same value; i.e. the contents of the cache memories must be
//! consistent." Because the shared bus serialises transactions, the oracle
//! can maintain a *golden* memory image updated at every processor write and
//! verify, after any access, the structural invariants §3.1 implies:
//!
//! 1. **Unique ownership** — at most one cache holds a line in M or O.
//! 2. **Exclusivity** — a line in M or E in one cache has no other cached
//!    copy anywhere.
//! 3. **Shared image** — every *valid* cached copy equals the golden line
//!    ("the shared memory image ... is the set of all owned data"; S copies
//!    are consistent with the owner, whose data is the image).
//! 4. **Default owner** — when no cache owns a line, main memory holds the
//!    golden data (memory is the default owner).
//! 5. **Exclusive-clean** — an E copy matches main memory ("exclusive data
//!    must match the copy in main memory").
//!
//! Every invariant is a statement about one line, so the oracle can check
//! lines one at a time. [`Checker::verify`] sweeps every line;
//! [`Checker::verify_lines`] checks a chosen set, which is how the machines
//! audit each access: only the lines it touched can have changed.

use cache_array::line_pieces;
use futurebus::{LineHasher, SparseMemory};
use moesi::LineState;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::BuildHasherDefault;

use crate::controller::CacheController;

/// A violation of the shared-memory-image invariants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// More than one cache owns the line.
    MultipleOwners {
        /// The line address.
        addr: u64,
        /// The offending node names.
        owners: Vec<String>,
    },
    /// A cache holds the line exclusively while another copy exists.
    ExclusivityViolated {
        /// The line address.
        addr: u64,
        /// The node claiming exclusivity.
        exclusive_holder: String,
        /// Another node holding a copy.
        other_holder: String,
    },
    /// A valid cached copy differs from the golden image.
    StaleCopy {
        /// The line address.
        addr: u64,
        /// The node holding the stale copy.
        holder: String,
        /// Its state.
        state: LineState,
    },
    /// No cache owns the line but memory differs from the golden image.
    StaleMemory {
        /// The line address.
        addr: u64,
    },
    /// An E-state copy differs from main memory.
    ExclusiveUnmodifiedDiffers {
        /// The line address.
        addr: u64,
        /// The node holding the E copy.
        holder: String,
    },
    /// A bridge's inclusion tag is Invalid while its subtree still caches
    /// the line — the snoop filter would wrongly suppress forwards.
    InclusionHole {
        /// The line address.
        addr: u64,
        /// The bridge whose directory lost the line.
        bridge: String,
    },
    /// A processor read returned the wrong bytes.
    ReadMismatch {
        /// The processor that read.
        cpu: usize,
        /// The byte address.
        addr: u64,
        /// What it got.
        got: Vec<u8>,
        /// What the golden image says.
        expected: Vec<u8>,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::MultipleOwners { addr, owners } => {
                write!(f, "line {addr:#x} owned by multiple caches: {owners:?}")
            }
            Violation::ExclusivityViolated { addr, exclusive_holder, other_holder } => write!(
                f,
                "line {addr:#x}: {exclusive_holder} claims exclusivity but {other_holder} holds a copy"
            ),
            Violation::StaleCopy { addr, holder, state } => {
                write!(f, "line {addr:#x}: {holder} holds a stale {state} copy")
            }
            Violation::StaleMemory { addr } => {
                write!(f, "line {addr:#x}: unowned but memory is stale")
            }
            Violation::ExclusiveUnmodifiedDiffers { addr, holder } => {
                write!(f, "line {addr:#x}: E copy at {holder} differs from memory")
            }
            Violation::InclusionHole { addr, bridge } => write!(
                f,
                "line {addr:#x}: cached below {bridge} but its inclusion tag is invalid"
            ),
            Violation::ReadMismatch { cpu, addr, got, expected } => write!(
                f,
                "cpu{cpu} read {addr:#x}: got {got:?}, expected {expected:?}"
            ),
        }
    }
}

impl std::error::Error for Violation {}

/// The golden-image oracle.
#[derive(Clone, Debug)]
pub struct Checker {
    line_size: usize,
    golden: HashMap<u64, Box<[u8]>, BuildHasherDefault<LineHasher>>,
    /// The golden value of every line never written.
    zero: Box<[u8]>,
    /// Whether invariant 5 (E matches memory) is enforced. It holds for every
    /// class member, but the adapted Write-Once protocol's E state is entered
    /// by a write-through whose memory update can be captured by an owner in
    /// mixed systems; homogeneous systems keep it on.
    pub check_exclusive_clean: bool,
}

impl Checker {
    /// Creates an oracle for lines of `line_size` bytes (all zero initially,
    /// matching [`SparseMemory`]).
    #[must_use]
    pub fn new(line_size: usize) -> Self {
        Checker {
            line_size,
            golden: HashMap::default(),
            zero: vec![0; line_size].into_boxed_slice(),
            check_exclusive_clean: true,
        }
    }

    /// Records a committed processor write (the run loop is the serialisation
    /// point, standing in for the bus plus local cache order).
    pub fn record_write(&mut self, addr: u64, bytes: &[u8]) {
        let line = addr & !(self.line_size as u64 - 1);
        let offset = (addr - line) as usize;
        assert!(
            offset + bytes.len() <= self.line_size,
            "oracle writes must not cross lines"
        );
        let entry = self
            .golden
            .entry(line)
            .or_insert_with(|| vec![0; self.line_size].into_boxed_slice());
        entry[offset..offset + bytes.len()].copy_from_slice(bytes);
    }

    /// The golden image of the line at line-aligned address `line`.
    #[must_use]
    pub fn golden_line(&self, line: u64) -> &[u8] {
        self.golden.get(&line).map_or(&self.zero, |data| data)
    }

    /// The golden bytes at `addr`; the range may span any number of lines.
    #[must_use]
    pub fn golden_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        for (piece, take) in line_pieces(addr, len, self.line_size) {
            let line = piece & !(self.line_size as u64 - 1);
            let offset = (piece - line) as usize;
            out.extend_from_slice(&self.golden_line(line)[offset..offset + take]);
        }
        out
    }

    /// Checks a completed processor read against the golden image.
    ///
    /// # Errors
    ///
    /// Returns [`Violation::ReadMismatch`] when the bytes differ.
    pub fn check_read(&self, cpu: usize, addr: u64, got: &[u8]) -> Result<(), Violation> {
        let expected = self.golden_bytes(addr, got.len());
        if got == expected.as_slice() {
            Ok(())
        } else {
            Err(Violation::ReadMismatch {
                cpu,
                addr,
                got: got.to_vec(),
                expected,
            })
        }
    }

    /// Verifies all structural invariants over the caches and memory: a
    /// full sweep of every line cached anywhere or holding a golden value.
    ///
    /// # Errors
    ///
    /// Returns the first violation found, lines taken in ascending order.
    pub fn verify(
        &self,
        controllers: &[CacheController],
        memory: &SparseMemory,
    ) -> Result<(), Violation> {
        // Collect every line that is cached anywhere or has a golden value.
        let mut lines: BTreeSet<u64> = self.golden.keys().copied().collect();
        for ctrl in controllers {
            if let Some(cache) = ctrl.cache() {
                lines.extend(cache.iter().map(|(addr, _)| addr));
            }
        }
        self.verify_lines(controllers, memory, lines)
    }

    /// Verifies the structural invariants of `lines` only, in the order
    /// given. Every invariant concerns a single line, so when all other
    /// lines are known to hold (they did after the previous access, and
    /// nothing has touched them since), checking the touched lines in
    /// ascending order reports exactly what [`Checker::verify`] would.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn verify_lines(
        &self,
        controllers: &[CacheController],
        memory: &SparseMemory,
        lines: impl IntoIterator<Item = u64>,
    ) -> Result<(), Violation> {
        lines
            .into_iter()
            .try_for_each(|addr| self.verify_line(controllers, memory, addr))
    }

    fn verify_line(
        &self,
        controllers: &[CacheController],
        memory: &SparseMemory,
        addr: u64,
    ) -> Result<(), Violation> {
        let golden = self.golden_line(addr);
        // One pass over the caches; the violations are then reported in the
        // fixed order below, and only a violation pays for names.
        let mut owners = 0;
        let mut holders = 0;
        let mut exclusive = None;
        let mut clean_exclusive = None;
        let mut stale = None;
        for ctrl in controllers {
            let Some(entry) = ctrl.cache().and_then(|c| c.lookup(addr)) else {
                continue;
            };
            let state = entry.state;
            if !state.is_valid() {
                continue;
            }
            holders += 1;
            owners += usize::from(state.is_owned());
            if state.is_exclusive() && exclusive.is_none() {
                exclusive = Some(ctrl);
            }
            if state == LineState::Exclusive && clean_exclusive.is_none() {
                clean_exclusive = Some(ctrl);
            }
            if stale.is_none() && entry.data[..] != golden[..] {
                stale = Some((ctrl, state));
            }
        }

        // 1. Unique ownership.
        if owners > 1 {
            return Err(Violation::MultipleOwners {
                addr,
                owners: controllers
                    .iter()
                    .filter(|c| c.state_of(addr).is_owned())
                    .map(|c| c.name().to_string())
                    .collect(),
            });
        }

        // 2. Exclusivity.
        if let (Some(excl), true) = (exclusive, holders > 1) {
            if let Some(other) = controllers
                .iter()
                .find(|c| c.state_of(addr).is_valid() && c.id() != excl.id())
            {
                return Err(Violation::ExclusivityViolated {
                    addr,
                    exclusive_holder: excl.name().to_string(),
                    other_holder: other.name().to_string(),
                });
            }
        }

        // 3. Every valid copy equals the golden image.
        if let Some((ctrl, state)) = stale {
            return Err(Violation::StaleCopy {
                addr,
                holder: ctrl.name().to_string(),
                state,
            });
        }

        let memory_current = || matches_golden(memory.peek_line_ref(addr), golden);

        // 5. Exclusive-unmodified copies match memory (checked before the
        // default-owner rule so the more specific violation is reported).
        if let Some(ctrl) = clean_exclusive.filter(|_| self.check_exclusive_clean) {
            if !memory_current() {
                return Err(Violation::ExclusiveUnmodifiedDiffers {
                    addr,
                    holder: ctrl.name().to_string(),
                });
            }
        }

        // 4. Memory is the default owner.
        if owners == 0 && !memory_current() {
            return Err(Violation::StaleMemory { addr });
        }
        Ok(())
    }
}

/// Whether a stored line equals `golden`; `None` is a never-written line,
/// which reads as zero.
pub(crate) fn matches_golden(stored: Option<&[u8]>, golden: &[u8]) -> bool {
    match stored {
        Some(data) => data == golden,
        None => golden.iter().all(|&b| b == 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_array::CacheConfig;
    use moesi::protocols::MoesiPreferred;

    fn ctrl(id: usize) -> CacheController {
        CacheController::new(
            id,
            Box::new(MoesiPreferred::new()),
            Some(CacheConfig::new(
                1024,
                16,
                2,
                cache_array::ReplacementKind::Lru,
            )),
            1,
        )
    }

    #[test]
    fn golden_image_starts_zeroed_and_tracks_writes() {
        let mut ck = Checker::new(16);
        assert_eq!(ck.golden_bytes(0x104, 4), vec![0; 4]);
        ck.record_write(0x104, &[1, 2, 3, 4]);
        assert_eq!(ck.golden_bytes(0x104, 4), vec![1, 2, 3, 4]);
        assert_eq!(
            ck.golden_bytes(0x100, 4),
            vec![0; 4],
            "rest of line untouched"
        );
    }

    #[test]
    fn read_checks_catch_wrong_values() {
        let mut ck = Checker::new(16);
        ck.record_write(0x10, &[9]);
        assert!(ck.check_read(0, 0x10, &[9]).is_ok());
        let err = ck.check_read(1, 0x10, &[8]).unwrap_err();
        assert!(matches!(err, Violation::ReadMismatch { cpu: 1, .. }));
        assert!(err.to_string().contains("cpu1"));
    }

    #[test]
    fn detects_multiple_owners() {
        let mut a = ctrl(0);
        let mut b = ctrl(1);
        a.fill(0x100, LineState::Modified, vec![0; 16].into());
        b.fill(0x100, LineState::Owned, vec![0; 16].into());
        let ck = Checker::new(16);
        let mem = SparseMemory::new(16);
        let err = ck.verify(&[a, b], &mem).unwrap_err();
        assert!(matches!(err, Violation::MultipleOwners { .. }));
    }

    #[test]
    fn detects_exclusivity_violation() {
        let mut a = ctrl(0);
        let mut b = ctrl(1);
        // Give the E holder golden (zero) data so the stale-copy check
        // doesn't fire first.
        a.fill(0x100, LineState::Exclusive, vec![0; 16].into());
        b.fill(0x100, LineState::Shareable, vec![0; 16].into());
        let ck = Checker::new(16);
        let mem = SparseMemory::new(16);
        let err = ck.verify(&[a, b], &mem).unwrap_err();
        assert!(matches!(err, Violation::ExclusivityViolated { .. }));
    }

    #[test]
    fn detects_stale_copy_and_stale_memory() {
        let mut a = ctrl(0);
        a.fill(0x100, LineState::Shareable, vec![0; 16].into());
        let mut ck = Checker::new(16);
        ck.record_write(0x100, &[1]);
        let mem = SparseMemory::new(16);
        let err = ck.verify(std::slice::from_ref(&a), &mem).unwrap_err();
        assert!(matches!(err, Violation::StaleCopy { .. }));

        // Now with no cached copy at all: memory must hold the golden data.
        let b = ctrl(1);
        let err = ck.verify(&[b], &mem).unwrap_err();
        assert!(matches!(err, Violation::StaleMemory { addr: 0x100 }));
    }

    #[test]
    fn detects_dirty_exclusive_unmodified() {
        let mut a = ctrl(0);
        let mut ck = Checker::new(16);
        ck.record_write(0x100, &[7]);
        let mut line = vec![0u8; 16];
        line[0] = 7;
        a.fill(0x100, LineState::Exclusive, line.into());
        let mem = SparseMemory::new(16); // memory still zero: E must match it
        let err = ck.verify(std::slice::from_ref(&a), &mem).unwrap_err();
        assert!(matches!(err, Violation::ExclusiveUnmodifiedDiffers { .. }));
    }

    #[test]
    fn consistent_system_passes() {
        let mut a = ctrl(0);
        let mut b = ctrl(1);
        let mut ck = Checker::new(16);
        let mut mem = SparseMemory::new(16);
        ck.record_write(0x100, &[3]);
        let mut line = vec![0u8; 16];
        line[0] = 3;
        // One owner with golden data, one sharer, memory stale — legal.
        a.fill(0x100, LineState::Owned, line.clone().into());
        b.fill(0x100, LineState::Shareable, line.clone().into());
        assert_eq!(ck.verify(&[a, b], &mem), Ok(()));

        // An M holder alone is also legal with stale memory.
        let mut c = ctrl(2);
        c.fill(0x100, LineState::Modified, line.clone().into());
        assert_eq!(ck.verify(std::slice::from_ref(&c), &mem), Ok(()));

        // With memory updated and the line unowned everywhere: also legal.
        mem.write_line(0x100, &line);
        let d = ctrl(3);
        assert_eq!(ck.verify(&[d], &mem), Ok(()));
    }
}
