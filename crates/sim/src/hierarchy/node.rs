//! The fabric tree: segments, bridges, and the recursive bus glue.
//!
//! A [`FabricNode`] is what hangs below a [`Bridge`]: either a leaf segment
//! (a complete single-bus [`Fabric`] of cache controllers) or an interior
//! [`Segment`] whose modules are themselves bridges. The recursion is the
//! paper's own (§6): *a cluster is one big cache*, so a subtree of clusters
//! is — seen from above — still one big cache, and the same Table 1/Table 2
//! machinery applies unchanged at every level.

use futurebus::{
    BusError, BusModule, BusObservation, Futurebus, LineAddr, RetireReport, SparseMemory,
    TimingConfig, TransactionOutcome, TransactionRequest,
};
use moesi::{table, BusEvent, BusReaction, LineState, MasterSignals, ResponseSignals};
use std::collections::HashMap;

use super::{ParentError, ParentTxnKind};
use crate::fabric::Fabric;

/// What a bridge needs from its parent bus before an intra-subtree access
/// may proceed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(super) enum ParentNeed {
    /// Fetch the line (a cluster-level read miss or read-for-modify).
    Fetch {
        signals: MasterSignals,
        for_write: bool,
    },
    /// Broadcast the written bytes (a cluster-level shared write).
    Broadcast { offset: usize, bytes: Vec<u8> },
}

/// Per-bridge counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BridgeStats {
    /// Parent-bus transactions this bridge mastered.
    pub parent_transactions: u64,
    /// Cluster-level line fetches from the parent bus.
    pub fetches: u64,
    /// Cluster-level broadcast writes onto the parent bus.
    pub broadcasts: u64,
    /// Parent-bus reads this cluster supplied by intervention.
    pub supplied: u64,
    /// Invalidations propagated into the cluster from the parent bus.
    pub invalidations_in: u64,
    /// Updates propagated into the cluster from the parent bus.
    pub updates_in: u64,
    /// Dirty lines this bridge owned at the moment the watchdog retired it.
    pub dirty_at_retire: u64,
    /// Of those, lines salvaged onto the parent bus by the watchdog's
    /// synthetic push rounds.
    pub salvaged_lines: u64,
    /// Of those, lines whose only up-to-date copy died with the bridge.
    pub lost_lines: u64,
    /// Memory-direct parent-bus accesses made after the bridge was retired.
    pub degraded_accesses: u64,
    /// Parent-bus transactions snooped (address cycles observed).
    pub snooped: u64,
    /// Snoops whose inclusion tag hit: the subtree holds the line.
    pub filter_hits: u64,
    /// Snoops admitted past the filter into the subtree (every hit, plus —
    /// with the filter disabled — every miss as well).
    pub forwarded: u64,
    /// Snoops the inclusion filter suppressed: the subtree holds no copy, so
    /// nothing below this bridge needed to see the transaction.
    pub suppressed: u64,
}

/// What hangs below a bridge: a leaf cluster or another bus segment.
#[derive(Debug)]
pub enum FabricNode {
    /// A leaf cluster: cache controllers on one bus with a mirror memory.
    Leaf(Fabric),
    /// An interior segment: child bridges on one bus with a mirror memory.
    Interior(Segment),
}

/// One bus level of the fabric tree: a Futurebus whose modules are child
/// [`Bridge`]s. The root segment's memory is true main memory; an interior
/// segment's memory plays the mirror (default-owner) role for its subtree,
/// exactly as a leaf fabric's mirror does for its caches.
#[derive(Debug)]
pub struct Segment {
    pub(super) bus: Futurebus,
    pub(super) children: Vec<Bridge>,
}

impl Segment {
    pub(super) fn new(line_size: usize, timing: TimingConfig, children: Vec<Bridge>) -> Self {
        Segment {
            bus: Futurebus::new(line_size, timing),
            children,
        }
    }

    /// The child bridges on this segment.
    #[must_use]
    pub fn children(&self) -> &[Bridge] {
        &self.children
    }

    /// This segment's bus.
    #[must_use]
    pub fn bus(&self) -> &Futurebus {
        &self.bus
    }

    /// Mutable access to this segment's bus.
    pub fn bus_mut(&mut self) -> &mut Futurebus {
        &mut self.bus
    }

    /// The master index external agents (DMA, forwarded snoops from above)
    /// use on this segment: one past the last child.
    pub(super) fn external_master(&self) -> usize {
        self.children.len()
    }

    /// Executes `req` on this segment's bus with every child snooping.
    pub(super) fn execute_on_children(
        &mut self,
        req: &TransactionRequest,
    ) -> Result<TransactionOutcome, BusError> {
        let mut refs: Vec<&mut dyn BusModule> = self
            .children
            .iter_mut()
            .map(|b| b as &mut dyn BusModule)
            .collect();
        self.bus.execute(req, &mut refs)
    }

    /// Gates an access descending into `child` on the cluster-level
    /// protocol: runs whatever transaction the bridge's Table-1 consultation
    /// demands on this segment's bus. A bus error does not kill the
    /// simulation: the bridge degrades to a memory-direct fallback (the
    /// error is logged with this segment's `depth`, and any inconsistency
    /// the skipped snoops cause is the oracle's to report).
    pub(super) fn ensure(
        &mut self,
        child: usize,
        line: LineAddr,
        write: Option<(usize, &[u8])>,
        depth: usize,
        errors: &mut Vec<ParentError>,
    ) {
        let Some(need) = self.children[child].prepare(line, write) else {
            return;
        };
        let req = match &need {
            ParentNeed::Fetch { signals, .. } => TransactionRequest::read(child, line, *signals),
            ParentNeed::Broadcast { offset, bytes } => TransactionRequest::write(
                child,
                line,
                MasterSignals::CA_IM_BC,
                *offset,
                bytes.clone(),
            ),
        };
        let out = match self.execute_on_children(&req) {
            Ok(out) => out,
            Err(e) => {
                let txn = match &need {
                    ParentNeed::Fetch { .. } => ParentTxnKind::Fetch,
                    ParentNeed::Broadcast { .. } => ParentTxnKind::Broadcast,
                };
                errors.push(ParentError {
                    cluster: child,
                    txn,
                    phase: e.phase(),
                    error: e,
                    depth,
                });
                // Degraded fallback: serve from (or write through to) this
                // segment's memory directly. `ch_seen` is reported true —
                // the conservative answer, since the failed transaction
                // never resolved the wired-OR, and claiming exclusivity on
                // a bus that just faulted would be worse.
                match &need {
                    ParentNeed::Fetch { .. } => TransactionOutcome {
                        data: Some(self.bus.memory().peek_line(line)),
                        responses: ResponseSignals::NONE,
                        ch_seen: true,
                        source: futurebus::DataSource::Memory,
                        duration: 0,
                        aborts: 0,
                    },
                    ParentNeed::Broadcast { offset, bytes } => {
                        self.bus.memory_mut().write_bytes(line, *offset, bytes);
                        TransactionOutcome {
                            data: None,
                            responses: ResponseSignals::NONE,
                            ch_seen: true,
                            source: futurebus::DataSource::Memory,
                            duration: 0,
                            aborts: 0,
                        }
                    }
                }
            }
        };
        self.children[child].commit(line, &need, &out);
    }

    /// Memory-direct degraded read: `child`'s bridge is dead, so the access
    /// goes straight onto this segment's bus as an uncached read (no CA —
    /// Table 2 column 7). A live sibling that owns the line intervenes and
    /// supplies current data; otherwise segment memory answers.
    pub(super) fn degraded_read(
        &mut self,
        child: usize,
        line: LineAddr,
        offset: usize,
        len: usize,
        depth: usize,
        errors: &mut Vec<ParentError>,
    ) -> Vec<u8> {
        self.children[child].stats.degraded_accesses += 1;
        let req = TransactionRequest::read(child, line, MasterSignals::NONE);
        match self.execute_on_children(&req) {
            Ok(out) => {
                let data = out.data.expect("uncached read returns a line");
                data[offset..offset + len].to_vec()
            }
            Err(e) => {
                errors.push(ParentError {
                    cluster: child,
                    txn: ParentTxnKind::DegradedRead,
                    phase: e.phase(),
                    error: e,
                    depth,
                });
                let data = self.bus.memory().peek_line(line);
                data[offset..offset + len].to_vec()
            }
        }
    }

    /// Memory-direct degraded write: an uncached broadcast write (IM,BC) so
    /// live siblings holding the line SL-connect and patch their copies.
    pub(super) fn degraded_write(
        &mut self,
        child: usize,
        line: LineAddr,
        offset: usize,
        bytes: &[u8],
        depth: usize,
        errors: &mut Vec<ParentError>,
    ) {
        self.children[child].stats.degraded_accesses += 1;
        let req =
            TransactionRequest::write(child, line, MasterSignals::IM_BC, offset, bytes.to_vec());
        if let Err(e) = self.execute_on_children(&req) {
            errors.push(ParentError {
                cluster: child,
                txn: ParentTxnKind::DegradedWrite,
                phase: e.phase(),
                error: e,
                depth,
            });
            self.bus.memory_mut().write_bytes(line, offset, bytes);
        }
    }

    /// Reads one line-bounded piece through the tree: descends along `path`,
    /// gating each level on its cluster-level protocol, until a leaf fabric
    /// serves the access.
    ///
    /// # Panics
    ///
    /// Panics when `path` is exhausted before reaching a leaf, or names a
    /// child that does not exist.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn read_piece(
        &mut self,
        path: &[usize],
        cpu: usize,
        piece_addr: u64,
        piece_len: usize,
        line: LineAddr,
        depth: usize,
        errors: &mut Vec<ParentError>,
    ) -> Vec<u8> {
        let child = path[0];
        if self.children[child].degraded() {
            let offset = (piece_addr - line) as usize;
            return self.degraded_read(child, line, offset, piece_len, depth, errors);
        }
        self.ensure(child, line, None, depth, errors);
        match &mut self.children[child].node {
            FabricNode::Leaf(fabric) => fabric.read(cpu, piece_addr, piece_len),
            FabricNode::Interior(seg) => {
                assert!(path.len() > 1, "access path stops at an interior segment");
                seg.read_piece(
                    &path[1..],
                    cpu,
                    piece_addr,
                    piece_len,
                    line,
                    depth + 1,
                    errors,
                )
            }
        }
    }

    /// Writes one line-bounded piece through the tree (see
    /// [`read_piece`](Segment::read_piece)).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn write_piece(
        &mut self,
        path: &[usize],
        cpu: usize,
        piece_addr: u64,
        piece: &[u8],
        line: LineAddr,
        depth: usize,
        errors: &mut Vec<ParentError>,
    ) {
        let child = path[0];
        let offset = (piece_addr - line) as usize;
        if self.children[child].degraded() {
            self.degraded_write(child, line, offset, piece, depth, errors);
            return;
        }
        self.ensure(child, line, Some((offset, piece)), depth, errors);
        match &mut self.children[child].node {
            FabricNode::Leaf(fabric) => {
                fabric.write_with(cpu, piece_addr, piece, |_, _| {});
            }
            FabricNode::Interior(seg) => {
                assert!(path.len() > 1, "access path stops at an interior segment");
                seg.write_piece(&path[1..], cpu, piece_addr, piece, line, depth + 1, errors);
            }
        }
    }

    /// The §6 consistency command at this segment's scale: pushes every
    /// owned line out of every child so this segment's memory holds the
    /// subtree's complete image. Returns lines pushed (top-level lines only;
    /// descendant demotions ride along inside each push).
    pub(super) fn push_owned(&mut self, depth: usize, errors: &mut Vec<ParentError>) -> usize {
        let mut pushed = 0;
        for child in 0..self.children.len() {
            let mut owned: Vec<LineAddr> = self.children[child]
                .directory
                .iter()
                .filter(|(_, s)| s.is_owned())
                .map(|(&line, _)| line)
                .collect();
            owned.sort_unstable(); // HashMap order must not leak into bus traffic
            for line in owned {
                // First bring the child's mirror up to date: the owner chain
                // below passes the line level by level (Table 1, note 3).
                self.children[child].sync_subtree(line);
                // Then the bridge passes the line on this segment's bus: a
                // full-line write-back with CA (the subtree keeps its copy).
                let data = self.children[child].authoritative_line(line);
                let req =
                    TransactionRequest::write(child, line, MasterSignals::CA, 0, data.to_vec());
                let ch_seen = match self.execute_on_children(&req) {
                    Ok(out) => out.ch_seen,
                    Err(e) => {
                        // Degrade instead of dying: the push still reaches
                        // segment memory, which is the whole point of the
                        // consistency command; siblings just miss the snoop.
                        errors.push(ParentError {
                            cluster: child,
                            txn: ParentTxnKind::Push,
                            phase: e.phase(),
                            error: e,
                            depth,
                        });
                        self.bus.memory_mut().write_line(line, &data);
                        true
                    }
                };
                // CH from a sibling means shared copies exist (assumed
                // conservatively when the transaction errored).
                let ext = if ch_seen {
                    LineState::Shareable
                } else {
                    LineState::Exclusive
                };
                self.children[child].set_cluster_state(line, ext);
                pushed += 1;
            }
        }
        pushed
    }
}

/// A bus bridge: one subtree presented to its parent bus as a single MOESI
/// cache master whose "cache" is the whole subtree. The directory doubles as
/// the bridge's *inclusion tag set*: a line absent from it is guaranteed
/// absent from the entire subtree, which is what lets the snoop filter
/// suppress forwarding without losing coherence.
#[derive(Debug)]
pub struct Bridge {
    pub(super) id: usize,
    /// Depth of the bus this bridge attaches to (root bus = 0).
    pub(super) level: usize,
    pub(super) node: FabricNode,
    pub(super) directory: HashMap<LineAddr, LineState>,
    pub(super) pending: Option<(LineAddr, Option<BusReaction>)>,
    pub(super) stats: BridgeStats,
    pub(super) degraded: bool,
    pub(super) filter: bool,
    pub(super) forward_errors: Vec<ParentError>,
}

impl Bridge {
    pub(super) fn new(id: usize, level: usize, node: FabricNode) -> Self {
        Bridge {
            id,
            level,
            node,
            directory: HashMap::new(),
            pending: None,
            stats: BridgeStats::default(),
            degraded: false,
            filter: true,
            forward_errors: Vec::new(),
        }
    }

    /// The child index on the parent bus.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// What hangs below this bridge.
    #[must_use]
    pub fn node(&self) -> &FabricNode {
        &self.node
    }

    /// True when this bridge fronts a leaf cluster of cache controllers.
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        matches!(self.node, FabricNode::Leaf(_))
    }

    /// The interior segment below this bridge, when there is one.
    #[must_use]
    pub fn segment(&self) -> Option<&Segment> {
        match &self.node {
            FabricNode::Interior(seg) => Some(seg),
            FabricNode::Leaf(_) => None,
        }
    }

    /// The cluster fabric (bus, controllers, mirror memory).
    ///
    /// # Panics
    ///
    /// Panics when this bridge fronts an interior segment, not a leaf
    /// cluster.
    #[must_use]
    pub fn fabric(&self) -> &Fabric {
        match &self.node {
            FabricNode::Leaf(fabric) => fabric,
            FabricNode::Interior(_) => panic!("bridge {} fronts an interior segment", self.id),
        }
    }

    /// Mutable access to the cluster fabric, for installing fault plans or
    /// tolerant-mode settings on the cluster bus.
    ///
    /// # Panics
    ///
    /// Panics when this bridge fronts an interior segment.
    pub fn fabric_mut(&mut self) -> &mut Fabric {
        match &mut self.node {
            FabricNode::Leaf(fabric) => fabric,
            FabricNode::Interior(_) => panic!("bridge {} fronts an interior segment", self.id),
        }
    }

    /// True once the watchdog has retired this bridge: the subtree runs in
    /// memory-direct degraded mode (uncached parent-bus accesses).
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Bridge counters.
    #[must_use]
    pub fn stats(&self) -> &BridgeStats {
        &self.stats
    }

    /// Whether the inclusion snoop filter is enabled (it is by default).
    #[must_use]
    pub fn snoop_filter(&self) -> bool {
        self.filter
    }

    /// Enables or disables the inclusion snoop filter. With the filter off
    /// the bridge forwards *every* snooped transaction into its subtree —
    /// the flood a snoop filter exists to prevent — which is only useful for
    /// measuring what the filter saves.
    pub fn set_snoop_filter(&mut self, on: bool) {
        self.filter = on;
    }

    /// The cluster-level MOESI state for a line.
    #[must_use]
    pub fn cluster_state(&self, line: LineAddr) -> LineState {
        self.directory
            .get(&line)
            .copied()
            .unwrap_or(LineState::Invalid)
    }

    pub(super) fn set_cluster_state(&mut self, line: LineAddr, state: LineState) {
        if state == LineState::Invalid {
            self.directory.remove(&line);
        } else {
            self.directory.insert(line, state);
        }
    }

    /// This bridge's mirror memory: the leaf fabric's bus memory, or the
    /// interior segment's bus memory.
    pub(super) fn mirror(&self) -> &SparseMemory {
        match &self.node {
            FabricNode::Leaf(fabric) => fabric.bus().memory(),
            FabricNode::Interior(seg) => seg.bus.memory(),
        }
    }

    pub(super) fn mirror_mut(&mut self) -> &mut SparseMemory {
        match &mut self.node {
            FabricNode::Leaf(fabric) => fabric.bus_mut().memory_mut(),
            FabricNode::Interior(seg) => seg.bus.memory_mut(),
        }
    }

    /// Decides what parent-bus traffic must precede an intra-subtree access,
    /// following Table 1 at cluster granularity.
    pub(super) fn prepare(
        &mut self,
        line: LineAddr,
        write: Option<(usize, &[u8])>,
    ) -> Option<ParentNeed> {
        let ext = self.cluster_state(line);
        match write {
            None => {
                if ext.is_valid() {
                    None
                } else {
                    // Table 1, I/Read: `CH:S/E,CA,R`.
                    Some(ParentNeed::Fetch {
                        signals: MasterSignals::CA,
                        for_write: false,
                    })
                }
            }
            Some((offset, bytes)) => match ext {
                // Table 1, M/Write: silent.
                LineState::Modified => None,
                // Table 1, E/Write: silent upgrade at cluster level.
                LineState::Exclusive => {
                    self.set_cluster_state(line, LineState::Modified);
                    None
                }
                // Table 1, O/S Write (preferred): broadcast the change.
                LineState::Owned | LineState::Shareable => Some(ParentNeed::Broadcast {
                    offset,
                    bytes: bytes.to_vec(),
                }),
                // Table 1, I/Write (preferred): read-for-modify.
                LineState::Invalid => Some(ParentNeed::Fetch {
                    signals: MasterSignals::CA_IM,
                    for_write: true,
                }),
            },
        }
    }

    /// Applies the outcome of the parent transaction [`Bridge::prepare`]
    /// requested.
    pub(super) fn commit(&mut self, line: LineAddr, need: &ParentNeed, out: &TransactionOutcome) {
        self.stats.parent_transactions += 1;
        match need {
            ParentNeed::Fetch { for_write, .. } => {
                self.stats.fetches += 1;
                let data = out.data.as_ref().expect("fetch returns a line");
                // The mirror becomes the subtree's default owner for the line.
                self.mirror_mut().write_line(line, data);
                let ext = if *for_write {
                    LineState::Modified
                } else if out.ch_seen {
                    LineState::Shareable
                } else {
                    LineState::Exclusive
                };
                self.set_cluster_state(line, ext);
            }
            ParentNeed::Broadcast { offset, bytes } => {
                self.stats.broadcasts += 1;
                // Keep the mirror in step with what the siblings saw.
                self.mirror_mut().write_bytes(line, *offset, bytes);
                let ext = if out.ch_seen {
                    LineState::Owned
                } else {
                    LineState::Modified
                };
                self.set_cluster_state(line, ext);
            }
        }
    }

    /// The authoritative subtree data for a line: the owner chain's copy if
    /// one exists (recursing through owning child bridges to the owning
    /// cache), else the mirror.
    pub(super) fn authoritative_line(&self, line: LineAddr) -> Box<[u8]> {
        match self.authoritative_ref(line) {
            Some(data) => data.into(),
            None => vec![0; self.mirror().line_size()].into_boxed_slice(),
        }
    }

    /// [`Bridge::authoritative_line`], borrowed; `None` when the answer is
    /// a mirror line never written (all zero).
    pub(super) fn authoritative_ref(&self, line: LineAddr) -> Option<&[u8]> {
        match &self.node {
            FabricNode::Leaf(fabric) => {
                for ctrl in fabric.controllers() {
                    if ctrl.state_of(line).is_owned() {
                        let entry = ctrl.cache().and_then(|c| c.lookup(line));
                        return Some(&entry.expect("owner is resident").data);
                    }
                }
                fabric.bus().memory().peek_line_ref(line)
            }
            FabricNode::Interior(seg) => {
                for child in &seg.children {
                    if child.cluster_state(line).is_owned() {
                        return child.authoritative_ref(line);
                    }
                }
                seg.bus.memory().peek_line_ref(line)
            }
        }
    }

    /// Whether the subtree holds a valid copy, judged by the evidence the
    /// bridge actually has: cache states at a leaf, child inclusion tags at
    /// an interior segment.
    pub(super) fn any_local_copy(&self, line: LineAddr) -> bool {
        match &self.node {
            FabricNode::Leaf(fabric) => fabric
                .controllers()
                .iter()
                .any(|c| c.state_of(line).is_valid()),
            FabricNode::Interior(seg) => seg
                .children
                .iter()
                .any(|c| c.cluster_state(line).is_valid()),
        }
    }

    /// Ground truth for the inclusion invariant: does any *cache* anywhere
    /// in the subtree hold a valid copy? (Unlike
    /// [`any_local_copy`](Bridge::any_local_copy), this does not trust
    /// intermediate tags.)
    pub(super) fn subtree_holds_valid(&self, line: LineAddr) -> bool {
        match &self.node {
            FabricNode::Leaf(fabric) => fabric
                .controllers()
                .iter()
                .any(|c| c.state_of(line).is_valid()),
            FabricNode::Interior(seg) => seg.children.iter().any(|c| c.subtree_holds_valid(line)),
        }
    }

    /// Whether the subtree contains an owner below this bridge's own tag:
    /// an owning cache at a leaf, an owning child tag at an interior
    /// segment.
    pub(super) fn subtree_owner_below(&self, line: LineAddr) -> bool {
        match &self.node {
            FabricNode::Leaf(fabric) => fabric
                .controllers()
                .iter()
                .any(|c| c.state_of(line).is_owned()),
            FabricNode::Interior(seg) => seg
                .children
                .iter()
                .any(|c| c.cluster_state(line).is_owned()),
        }
    }

    fn push_forward_error(&mut self, txn: ParentTxnKind, error: BusError) {
        self.forward_errors.push(ParentError {
            cluster: self.id,
            txn,
            phase: error.phase(),
            error,
            depth: self.level + 1,
        });
    }

    /// Forwards a snooped read into the subtree, demoting internal copies
    /// exactly as if the read had happened on the internal bus.
    fn forward_read(&mut self, line: LineAddr) {
        match &mut self.node {
            FabricNode::Leaf(fabric) => {
                let _ = fabric.external_read(line, MasterSignals::CA);
            }
            FabricNode::Interior(seg) => {
                let req = TransactionRequest::read(seg.external_master(), line, MasterSignals::CA);
                if let Err(e) = seg.execute_on_children(&req) {
                    self.push_forward_error(ParentTxnKind::Forward, e);
                }
            }
        }
    }

    /// Forwards a snooped invalidation into the subtree.
    fn forward_invalidate(&mut self, line: LineAddr) {
        match &mut self.node {
            FabricNode::Leaf(fabric) => {
                let _ = fabric.external_invalidate(line);
            }
            FabricNode::Interior(seg) => {
                let req = TransactionRequest::address_only(
                    seg.external_master(),
                    line,
                    MasterSignals::CA_IM,
                );
                if let Err(e) = seg.execute_on_children(&req) {
                    self.push_forward_error(ParentTxnKind::Forward, e);
                }
            }
        }
    }

    /// Forwards a snooped broadcast write into the subtree, patching the
    /// mirror and internal copies. On an interior-bus error the payload is
    /// applied to the segment mirror directly so the data is not lost; the
    /// error is logged with the *inner* bus's phase and depth.
    fn forward_broadcast(&mut self, line: LineAddr, offset: usize, bytes: &[u8]) {
        match &mut self.node {
            FabricNode::Leaf(fabric) => {
                let _ = fabric.external_broadcast_write(line, offset, bytes.to_vec());
            }
            FabricNode::Interior(seg) => {
                let req = TransactionRequest::write(
                    seg.external_master(),
                    line,
                    MasterSignals::IM_BC,
                    offset,
                    bytes.to_vec(),
                );
                if let Err(e) = seg.execute_on_children(&req) {
                    seg.bus.memory_mut().write_bytes(line, offset, bytes);
                    self.push_forward_error(ParentTxnKind::Forward, e);
                }
            }
        }
    }

    /// Brings the subtree's mirrors current for `line` before a push: the
    /// owner chain passes the line level by level (Table 1, note 3), so the
    /// data the bridge pushes upward is the latest anywhere below it.
    pub(super) fn sync_subtree(&mut self, line: LineAddr) {
        match &mut self.node {
            FabricNode::Leaf(fabric) => {
                let owner_cpu = (0..fabric.nodes())
                    .find(|&cpu| fabric.controller(cpu).state_of(line).is_owned());
                if let Some(cpu) = owner_cpu {
                    fabric.pass(cpu, line);
                }
            }
            FabricNode::Interior(seg) => {
                let owner = seg
                    .children
                    .iter()
                    .position(|c| c.cluster_state(line).is_owned());
                if let Some(idx) = owner {
                    seg.children[idx].sync_subtree(line);
                    let data = seg.children[idx].authoritative_line(line);
                    let req =
                        TransactionRequest::write(idx, line, MasterSignals::CA, 0, data.to_vec());
                    let ch_seen = match seg.execute_on_children(&req) {
                        Ok(out) => out.ch_seen,
                        Err(e) => {
                            seg.bus.memory_mut().write_line(line, &data);
                            self.forward_errors.push(ParentError {
                                cluster: idx,
                                txn: ParentTxnKind::Push,
                                phase: e.phase(),
                                error: e,
                                depth: self.level + 1,
                            });
                            true
                        }
                    };
                    let ext = if ch_seen {
                        LineState::Shareable
                    } else {
                        LineState::Exclusive
                    };
                    seg.children[idx].set_cluster_state(line, ext);
                }
            }
        }
    }
}

/// Cold-invalidates every cached line in the subtree and drops every
/// descendant directory: a dead bridge can no longer keep its subtree
/// coherent with the outside world.
fn cold_invalidate(node: &mut FabricNode) {
    match node {
        FabricNode::Leaf(fabric) => {
            for cpu in 0..fabric.nodes() {
                let resident: Vec<LineAddr> = fabric
                    .controller(cpu)
                    .cache()
                    .map(|c| c.iter().map(|(a, _)| a).collect())
                    .unwrap_or_default();
                for line in resident {
                    fabric
                        .controller_mut(cpu)
                        .apply_state(line, LineState::Invalid);
                }
            }
        }
        FabricNode::Interior(seg) => {
            for child in &mut seg.children {
                child.directory.clear();
                cold_invalidate(&mut child.node);
            }
        }
    }
}

impl BusModule for Bridge {
    fn snoop(&mut self, req: &TransactionRequest) -> ResponseSignals {
        self.pending = None;
        self.stats.snooped += 1;
        let ext = self.cluster_state(req.addr);
        if ext == LineState::Invalid {
            if self.filter {
                // Inclusion guarantees the subtree holds no copy: nothing
                // below this bridge needs to see the transaction.
                self.stats.suppressed += 1;
                return ResponseSignals::NONE;
            }
            // Filter disabled: forward blindly into the subtree with no
            // response and no state change.
            self.stats.forwarded += 1;
            self.pending = Some((req.addr, None));
            return ResponseSignals::NONE;
        }
        self.stats.filter_hits += 1;
        self.stats.forwarded += 1;
        let event = BusEvent::from_signals(req.signals).expect("legal parent signals");
        // Table 2's error-condition cells ((M, CBW) and (E, CBW)) are
        // unreachable in correct operation but *are* reachable under injected
        // tag corruption. Rather than abort the process, de-escalate to the
        // nearest safe super-state — an owner answers as O, a clean holder as
        // S — which keeps snooping sound until the scrubber repairs the tag.
        let reaction = table::preferred_bus(ext, event)
            .or_else(|| {
                let softened = match ext {
                    LineState::Modified => LineState::Owned,
                    LineState::Exclusive => LineState::Shareable,
                    other => other,
                };
                table::preferred_bus(softened, event)
            })
            .unwrap_or_else(|| {
                panic!(
                    "bridge {}: error-condition parent event ({ext}, {event})",
                    self.id
                )
            });
        self.pending = Some((req.addr, Some(reaction)));
        ResponseSignals {
            ch: reaction.ch,
            di: reaction.di,
            sl: reaction.sl,
            bs: false,
        }
    }

    fn supply_line(&mut self, addr: LineAddr) -> Option<Box<[u8]>> {
        self.stats.supplied += 1;
        Some(self.authoritative_line(addr))
    }

    fn complete(&mut self, req: &TransactionRequest, obs: &BusObservation<'_>) {
        let Some((line, reaction)) = self.pending.take() else {
            return;
        };
        if line != req.addr {
            return;
        }
        let event = BusEvent::from_signals(req.signals).expect("legal parent signals");

        // Propagate the parent event into the subtree.
        match event {
            // Another cluster fetched the line: internal copies lose
            // exclusivity (and internal owners demote), exactly as if the
            // read had happened on the internal bus.
            BusEvent::CacheRead => {
                if self.any_local_copy(line) {
                    self.forward_read(line);
                }
            }
            // Another cluster read-for-modify: every internal copy dies.
            BusEvent::CacheReadInvalidate => {
                if self.any_local_copy(line) {
                    self.stats.invalidations_in += 1;
                    self.forward_invalidate(line);
                }
            }
            // Another cluster broadcast a write: patch the mirror and update
            // (or invalidate) internal copies via an internal broadcast.
            BusEvent::CacheBroadcastWrite => {
                if let Some((offset, bytes)) = obs.write_data {
                    self.stats.updates_in += 1;
                    self.forward_broadcast(line, offset, bytes);
                }
            }
            // An uncached read (a degraded cluster, or parent-bus DMA) does
            // not disturb internal copies: the data came from this subtree's
            // authority (or memory) and nobody gained a cached copy.
            BusEvent::UncachedRead => {}
            // An uncached write from a degraded cluster: patch the mirror and
            // internal copies when the payload was broadcast our way, else
            // fall back to invalidating whatever we hold — the line changed
            // under us and our copies are stale.
            BusEvent::UncachedWrite | BusEvent::UncachedBroadcastWrite => {
                if let Some((offset, bytes)) = obs.write_data {
                    if self.any_local_copy(line) {
                        self.stats.updates_in += 1;
                        self.forward_broadcast(line, offset, bytes);
                    } else {
                        // Keep the mirror in step even with no cached copies.
                        self.mirror_mut().write_bytes(line, offset, bytes);
                    }
                } else if self.any_local_copy(line) {
                    self.stats.invalidations_in += 1;
                    self.forward_invalidate(line);
                }
            }
        }

        // A filtered-off miss forwarded the event but changes no tag: a
        // snooped transaction must never allocate an inclusion entry.
        if let Some(reaction) = reaction {
            let new_ext = reaction.result.resolve(obs.ch_others);
            self.set_cluster_state(line, new_ext);
        }
    }

    fn retire(&mut self, salvage: bool) -> RetireReport {
        let mut dirty: Vec<LineAddr> = self
            .directory
            .iter()
            .filter(|(_, s)| s.is_owned())
            .map(|(&line, _)| line)
            .collect();
        dirty.sort_unstable(); // HashMap order must not leak into bus traffic
        self.stats.dirty_at_retire += dirty.len() as u64;
        let report = if salvage {
            self.stats.salvaged_lines += dirty.len() as u64;
            RetireReport {
                salvaged: dirty
                    .iter()
                    .map(|&line| (line, self.authoritative_line(line)))
                    .collect(),
                lost: Vec::new(),
            }
        } else {
            self.stats.lost_lines += dirty.len() as u64;
            RetireReport {
                salvaged: Vec::new(),
                lost: dirty,
            }
        };
        // The subtree degrades to memory-direct operation: a dead bridge can
        // no longer keep its caches coherent with the outside world, so every
        // internal copy is cold-invalidated and the directories are dropped.
        self.degraded = true;
        self.directory.clear();
        cold_invalidate(&mut self.node);
        report
    }
}
