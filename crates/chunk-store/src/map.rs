//! The hierarchical location map with the embedded Merkle hash tree.
//!
//! The map takes a [`ChunkId`] to the [`Location`] of the chunk's current
//! version in the log. It is a radix tree of fanout `F`: a leaf page holds
//! `F` consecutive ids' locations, an inner page holds the locations of `F`
//! child pages. Because a [`Location`] *contains the SHA-256 digest* of the
//! bytes it points at, parent pages authenticate child pages and leaf
//! entries authenticate chunk data — the hash tree "embedded in the location
//! map" of paper §3.2.1, with no separate Merkle structure to maintain.
//!
//! The tree lives fully in memory (DRM databases are small and cacheable,
//! §1); dirty pages are written out only at checkpoints. Nodes are shared
//! via `Arc`, so a copy-on-write snapshot of the whole database is one
//! `Arc::clone` of the root (§3.2.1: "the location map can be inexpensively
//! snapshot using copy-on-write"), and two snapshots are compared in time
//! proportional to their difference by pruning identical subtrees
//! (`diff_roots`).

use crate::error::{ChunkStoreError, Result};
use crate::ids::{ChunkId, SegmentId};
use crate::layout::{get_location, location_len, put_location, Cursor, Malformed};
use std::sync::{Arc, OnceLock};
use tdb_crypto::Digest;
use tdb_proof::PathNode;

/// Where (and what) a chunk version or map page is in the log.
///
/// `len` is the full on-disk record length including the record header;
/// `hash` is the digest of the record's stored payload bytes (zeros when
/// security is off).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Location {
    /// Segment holding the record.
    pub seg: SegmentId,
    /// Byte offset of the record header within the segment.
    pub off: u32,
    /// Total record length (header + payload).
    pub len: u32,
    /// Digest of the stored payload.
    pub hash: Digest,
}

const LEAF_TAG: u8 = 1;
const INNER_TAG: u8 = 2;

/// A map tree node. `disk` is `Some` iff the node is *clean*: its serialized
/// page is on disk at that location. Any mutation clears `disk` along the
/// whole root-to-leaf path, so a clean node implies a clean subtree.
///
/// `proof` memoizes the node's **canonical proof-tree hash** (the
/// store-independent hashing defined by [`tdb_proof::tree`]). It derives
/// from the leaf chunk digests only — never from page locations — so it is
/// invariant under checkpoints and cleaner relocation, and is invalidated
/// exactly where logical content changes: [`LocationMap::dirty`], through
/// which every `set`/`remove` path node passes.
#[derive(Clone)]
pub(crate) struct Node {
    pub(crate) disk: Option<Location>,
    pub(crate) kind: NodeKind,
    proof: OnceLock<Digest>,
}

#[derive(Clone)]
pub(crate) enum NodeKind {
    Inner(Vec<Option<Arc<Node>>>),
    Leaf(Vec<Option<Location>>),
}

impl Node {
    fn new_leaf(fanout: usize) -> Node {
        Node {
            disk: None,
            kind: NodeKind::Leaf(vec![None; fanout]),
            proof: OnceLock::new(),
        }
    }

    fn new_inner(fanout: usize) -> Node {
        Node {
            disk: None,
            kind: NodeKind::Inner(vec![None; fanout]),
            proof: OnceLock::new(),
        }
    }

    /// Entries of this node as the verifier sees them: `(slot, digest)`
    /// with leaf digests = chunk sealed-record hashes and inner digests =
    /// child proof hashes.
    fn proof_entries(&self) -> Vec<(u32, Digest)> {
        match &self.kind {
            NodeKind::Leaf(slots) => slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.as_ref().map(|l| (i as u32, l.hash)))
                .collect(),
            NodeKind::Inner(children) => children
                .iter()
                .enumerate()
                .filter_map(|(i, c)| c.as_ref().map(|c| (i as u32, c.proof_hash())))
                .collect(),
        }
    }

    /// Canonical proof-tree hash of this subtree (memoized; O(changed)
    /// across commits thanks to structural sharing).
    pub(crate) fn proof_hash(&self) -> Digest {
        *self.proof.get_or_init(|| {
            let entries = self.proof_entries();
            tdb_proof::tree::hash_node(
                matches!(self.kind, NodeKind::Leaf(_)),
                entries.iter().map(|(s, d)| (*s, d)),
            )
        })
    }

    fn as_path_node(&self) -> PathNode {
        PathNode {
            is_leaf: matches!(self.kind, NodeKind::Leaf(_)),
            entries: self.proof_entries(),
        }
    }
}

/// The in-memory location map.
pub struct LocationMap {
    root: Arc<Node>,
    /// Number of levels; 1 means the root is a leaf covering ids `0..F`.
    depth: u32,
    fanout: usize,
    /// Whether serialized pages carry per-entry hashes (security on).
    hashed: bool,
    /// On-disk extents of pages superseded since the last drain (they
    /// become dead space once the next checkpoint lands).
    superseded: Vec<Location>,
}

impl LocationMap {
    /// Fresh empty map. `hashed` selects whether serialized pages carry
    /// the Merkle digests (security on) or bare positions (security off).
    pub fn new(fanout: usize, hashed: bool) -> Self {
        LocationMap {
            root: Arc::new(Node::new_leaf(fanout)),
            depth: 1,
            fanout,
            hashed,
            superseded: Vec::new(),
        }
    }

    /// Map fanout.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Tree depth (levels).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Ids representable without growing: `fanout^depth`.
    fn capacity(&self) -> u128 {
        (self.fanout as u128).pow(self.depth)
    }

    /// Location of the current version of `id`, if any.
    pub fn get(&self, id: ChunkId) -> Option<Location> {
        if id.0 as u128 >= self.capacity() {
            return None;
        }
        let mut node = &self.root;
        let mut level = self.depth;
        loop {
            let slot = self.slot_at(id.0, level);
            match &node.kind {
                NodeKind::Inner(children) => {
                    node = children[slot].as_ref()?;
                    level -= 1;
                }
                NodeKind::Leaf(slots) => return slots[slot],
            }
        }
    }

    /// Digit of `id` selecting the child at `level` (levels count down from
    /// `depth` at the root to 1 at the leaves).
    fn slot_at(&self, id: u64, level: u32) -> usize {
        ((id as u128 / (self.fanout as u128).pow(level - 1)) % self.fanout as u128) as usize
    }

    fn dirty(superseded: &mut Vec<Location>, node: &mut Node) {
        if let Some(loc) = node.disk.take() {
            superseded.push(loc);
        }
        // The logical content of this subtree is about to change (every
        // set/remove dirties its whole path): drop the memoized proof hash
        // unconditionally, whether or not the page was clean.
        node.proof = OnceLock::new();
    }

    /// Grow the tree until `id` is representable.
    fn grow_for(&mut self, id: u64) {
        while (id as u128) >= self.capacity() {
            let mut new_root = Node::new_inner(self.fanout);
            if let NodeKind::Inner(children) = &mut new_root.kind {
                children[0] = Some(self.root.clone());
            }
            self.root = Arc::new(new_root);
            self.depth += 1;
        }
    }

    /// Install `loc` as the current version of `id`, returning the
    /// superseded data location if the id was already mapped.
    pub fn set(&mut self, id: ChunkId, loc: Location) -> Option<Location> {
        self.grow_for(id.0);
        let fanout = self.fanout;
        let depth = self.depth;
        let mut superseded = std::mem::take(&mut self.superseded);

        let mut node = Arc::make_mut(&mut self.root);
        Self::dirty(&mut superseded, node);
        let mut level = depth;
        let old = loop {
            let slot = slot_at(fanout, id.0, level);
            match &mut node.kind {
                NodeKind::Inner(children) => {
                    let child = children[slot].get_or_insert_with(|| {
                        Arc::new(if level - 1 == 1 {
                            Node::new_leaf(fanout)
                        } else {
                            Node::new_inner(fanout)
                        })
                    });
                    let child = Arc::make_mut(child);
                    Self::dirty(&mut superseded, child);
                    node = child;
                    level -= 1;
                }
                NodeKind::Leaf(slots) => {
                    break slots[slot].replace(loc);
                }
            }
        };
        self.superseded = superseded;
        old
    }

    /// Remove the mapping for `id`, returning the superseded data location.
    /// Removing an unmapped id is a no-op returning `None` (and does not
    /// dirty the tree).
    pub fn remove(&mut self, id: ChunkId) -> Option<Location> {
        self.get(id)?;
        let fanout = self.fanout;
        let depth = self.depth;
        let mut superseded = std::mem::take(&mut self.superseded);

        let mut node = Arc::make_mut(&mut self.root);
        Self::dirty(&mut superseded, node);
        let mut level = depth;
        let old = loop {
            let slot = slot_at(fanout, id.0, level);
            match &mut node.kind {
                NodeKind::Inner(children) => {
                    let child = children[slot].as_mut().expect("checked by get");
                    let child = Arc::make_mut(child);
                    Self::dirty(&mut superseded, child);
                    node = child;
                    level -= 1;
                }
                NodeKind::Leaf(slots) => break slots[slot].take(),
            }
        };
        self.superseded = superseded;
        old
    }

    /// Apply a whole commit's worth of updates in one descent: `Some(loc)`
    /// installs a mapping, `None` removes one. Returns the superseded data
    /// location per op, aligned with `ops`. Equivalent to calling
    /// [`set`](Self::set)/[`remove`](Self::remove) per op, but each node on
    /// the union of the root-to-leaf paths is cloned and dirtied **once**
    /// for the batch instead of once per op — upper nodes shared by the
    /// group's ids are deduped.
    ///
    /// Callers pass at most one op per id (the commit path's op map is
    /// keyed by id); a remove is resolved against the pre-batch state.
    pub fn apply_batch(&mut self, ops: &[(ChunkId, Option<Location>)]) -> Vec<Option<Location>> {
        let mut old: Vec<Option<Location>> = vec![None; ops.len()];
        // Resolve no-op removes up front so they don't dirty the tree.
        let mut live: Vec<(usize, ChunkId, Option<Location>)> = Vec::with_capacity(ops.len());
        for (i, (id, op)) in ops.iter().enumerate() {
            match op {
                Some(loc) => live.push((i, *id, Some(*loc))),
                None => {
                    if self.get(*id).is_some() {
                        live.push((i, *id, None));
                    }
                }
            }
        }
        if live.is_empty() {
            return old;
        }
        for (_, id, op) in &live {
            if op.is_some() {
                self.grow_for(id.0);
            }
        }
        // Sorted ids give non-decreasing slots at every level, so each
        // node's ops split into contiguous per-child runs.
        live.sort_by_key(|(_, id, _)| id.0);
        let fanout = self.fanout;
        let depth = self.depth;
        let mut superseded = std::mem::take(&mut self.superseded);
        let root = Arc::make_mut(&mut self.root);
        Self::dirty(&mut superseded, root);
        Self::apply_batch_rec(root, fanout, depth, &live, &mut superseded, &mut old);
        self.superseded = superseded;
        old
    }

    fn apply_batch_rec(
        node: &mut Node,
        fanout: usize,
        level: u32,
        ops: &[(usize, ChunkId, Option<Location>)],
        superseded: &mut Vec<Location>,
        old: &mut [Option<Location>],
    ) {
        match &mut node.kind {
            NodeKind::Leaf(slots) => {
                for (i, id, op) in ops {
                    let slot = slot_at(fanout, id.0, level);
                    old[*i] = match op {
                        Some(loc) => slots[slot].replace(*loc),
                        None => slots[slot].take(),
                    };
                }
            }
            NodeKind::Inner(children) => {
                let mut start = 0;
                while start < ops.len() {
                    let slot = slot_at(fanout, ops[start].1 .0, level);
                    let mut end = start + 1;
                    while end < ops.len() && slot_at(fanout, ops[end].1 .0, level) == slot {
                        end += 1;
                    }
                    let child = children[slot].get_or_insert_with(|| {
                        Arc::new(if level - 1 == 1 {
                            Node::new_leaf(fanout)
                        } else {
                            Node::new_inner(fanout)
                        })
                    });
                    let child = Arc::make_mut(child);
                    Self::dirty(superseded, child);
                    Self::apply_batch_rec(
                        child,
                        fanout,
                        level - 1,
                        &ops[start..end],
                        superseded,
                        old,
                    );
                    start = end;
                }
            }
        }
    }

    /// Take the accumulated superseded page extents.
    pub fn drain_superseded(&mut self) -> Vec<Location> {
        std::mem::take(&mut self.superseded)
    }

    /// Whether any page is dirty (an un-checkpointed change exists).
    pub fn is_dirty(&self) -> bool {
        self.root.disk.is_none()
    }

    /// Visit every live chunk entry.
    pub fn for_each_entry(&self, f: &mut impl FnMut(ChunkId, &Location)) {
        Self::walk_entries(&self.root, self.fanout, self.depth, 0, f);
    }

    fn walk_entries(
        node: &Node,
        fanout: usize,
        level: u32,
        base: u128,
        f: &mut impl FnMut(ChunkId, &Location),
    ) {
        let stride = (fanout as u128).pow(level - 1);
        match &node.kind {
            NodeKind::Inner(children) => {
                for (i, child) in children.iter().enumerate() {
                    if let Some(child) = child {
                        Self::walk_entries(child, fanout, level - 1, base + i as u128 * stride, f);
                    }
                }
            }
            NodeKind::Leaf(slots) => {
                for (i, slot) in slots.iter().enumerate() {
                    if let Some(loc) = slot {
                        f(ChunkId((base + i as u128) as u64), loc);
                    }
                }
            }
        }
    }

    /// Visit the on-disk location of every *clean* page (dirty pages have
    /// no live on-disk copy).
    pub fn for_each_page(&self, f: &mut impl FnMut(&Location)) {
        Self::walk_pages(&self.root, f);
    }

    fn walk_pages(node: &Node, f: &mut impl FnMut(&Location)) {
        if let Some(loc) = &node.disk {
            f(loc);
        }
        if let NodeKind::Inner(children) = &node.kind {
            for child in children.iter().flatten() {
                Self::walk_pages(child, f);
            }
        }
    }

    /// Number of live chunk entries (O(map)).
    pub fn live_count(&self) -> u64 {
        let mut n = 0;
        self.for_each_entry(&mut |_, _| n += 1);
        n
    }

    /// Dirty every clean page stored in one of `segs` (the cleaner calls
    /// this so the next checkpoint relocates those pages off the victim
    /// segments). Returns the number of pages dirtied.
    pub fn dirty_pages_in(&mut self, segs: &std::collections::HashSet<SegmentId>) -> usize {
        let mut superseded = std::mem::take(&mut self.superseded);
        let n = Self::dirty_pages_rec(&mut self.root, segs, &mut superseded);
        self.superseded = superseded;
        n
    }

    fn dirty_pages_rec(
        node: &mut Arc<Node>,
        segs: &std::collections::HashSet<SegmentId>,
        superseded: &mut Vec<Location>,
    ) -> usize {
        // Decide before cloning: does this subtree contain a page in segs?
        fn subtree_touches(node: &Node, segs: &std::collections::HashSet<SegmentId>) -> bool {
            if matches!(&node.disk, Some(loc) if segs.contains(&loc.seg)) {
                return true;
            }
            if let NodeKind::Inner(children) = &node.kind {
                children.iter().flatten().any(|c| subtree_touches(c, segs))
            } else {
                false
            }
        }
        if !subtree_touches(node, segs) {
            return 0;
        }
        let mut count = 0;
        let node = Arc::make_mut(node);
        if matches!(&node.disk, Some(loc) if segs.contains(&loc.seg)) {
            LocationMap::dirty(superseded, node);
            count += 1;
        } else if node.disk.is_some() {
            // An ancestor of a dirtied page must be rewritten too, but its
            // own old page stays live until the checkpoint... no: once any
            // descendant moves, this page's content changes, so it is
            // superseded as well.
            LocationMap::dirty(superseded, node);
        }
        if let NodeKind::Inner(children) = &mut node.kind {
            for child in children.iter_mut().flatten() {
                count += LocationMap::dirty_pages_rec(child, segs, superseded);
            }
        }
        count
    }

    // -- checkpoint ---------------------------------------------------------

    /// Write all dirty pages bottom-up through `writer` (which seals,
    /// appends, and returns the new [`Location`] of the page bytes it is
    /// given). Returns the root page location. After this the whole tree is
    /// clean.
    pub fn checkpoint(
        &mut self,
        writer: &mut dyn FnMut(&[u8]) -> Result<Location>,
    ) -> Result<Location> {
        let fanout = self.fanout;
        let hashed = self.hashed;
        Self::persist(&mut self.root, fanout, hashed, writer)
    }

    fn persist(
        node_arc: &mut Arc<Node>,
        fanout: usize,
        hashed: bool,
        writer: &mut dyn FnMut(&[u8]) -> Result<Location>,
    ) -> Result<Location> {
        if let Some(loc) = node_arc.disk {
            return Ok(loc);
        }
        let node = Arc::make_mut(node_arc);
        let bytes = match &mut node.kind {
            NodeKind::Inner(children) => {
                let mut locs: Vec<(usize, Location)> = Vec::new();
                for (i, child) in children.iter_mut().enumerate() {
                    if let Some(child) = child {
                        locs.push((i, Self::persist(child, fanout, hashed, writer)?));
                    }
                }
                serialize_inner(fanout, hashed, &locs)
            }
            NodeKind::Leaf(slots) => serialize_leaf(fanout, hashed, slots),
        };
        let loc = writer(&bytes)?;
        node.disk = Some(loc);
        Ok(loc)
    }

    // -- load ---------------------------------------------------------------

    /// Rebuild the map from its checkpointed pages. `reader` must fetch the
    /// record payload at a [`Location`], verify its hash, and decrypt it —
    /// so every page is validated against its parent on the way down, which
    /// is exactly the Merkle path check of §3.
    pub fn load(
        root_loc: Location,
        depth: u32,
        fanout: usize,
        hashed: bool,
        reader: &dyn Fn(&Location) -> Result<Vec<u8>>,
    ) -> Result<Self> {
        let root = Self::load_node(&root_loc, depth, fanout, hashed, reader)?;
        Ok(LocationMap {
            root: Arc::new(root),
            depth,
            fanout,
            hashed,
            superseded: Vec::new(),
        })
    }

    fn load_node(
        loc: &Location,
        level: u32,
        fanout: usize,
        hashed: bool,
        reader: &dyn Fn(&Location) -> Result<Vec<u8>>,
    ) -> Result<Node> {
        let bytes = reader(loc)?;
        let page = parse_page(fanout, hashed, &bytes)
            .map_err(|m| ChunkStoreError::TamperDetected(format!("bad map page: {}", m.0)))?;
        let kind = match page {
            ParsedPage::Leaf(slots) => {
                if level != 1 {
                    return Err(ChunkStoreError::TamperDetected(
                        "leaf page at inner level".into(),
                    ));
                }
                NodeKind::Leaf(slots)
            }
            ParsedPage::Inner(child_locs) => {
                if level <= 1 {
                    return Err(ChunkStoreError::TamperDetected(
                        "inner page at leaf level".into(),
                    ));
                }
                let mut children: Vec<Option<Arc<Node>>> = vec![None; fanout];
                for (i, cl) in child_locs {
                    children[i] = Some(Arc::new(Self::load_node(
                        &cl,
                        level - 1,
                        fanout,
                        hashed,
                        reader,
                    )?));
                }
                NodeKind::Inner(children)
            }
        };
        Ok(Node {
            disk: Some(*loc),
            kind,
            proof: OnceLock::new(),
        })
    }

    // -- snapshots ----------------------------------------------------------

    /// Shareable frozen view of the current tree.
    pub(crate) fn freeze(&self) -> (Arc<Node>, u32) {
        (self.root.clone(), self.depth)
    }
}

fn slot_at(fanout: usize, id: u64, level: u32) -> usize {
    ((id as u128 / (fanout as u128).pow(level - 1)) % fanout as u128) as usize
}

// ---------------------------------------------------------------------------
// Page (de)serialization
// ---------------------------------------------------------------------------

fn bitmap_len(fanout: usize) -> usize {
    fanout.div_ceil(8)
}

fn serialize_leaf(fanout: usize, hashed: bool, slots: &[Option<Location>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + bitmap_len(fanout) + slots.len() * location_len(hashed));
    out.push(LEAF_TAG);
    push_bitmap(&mut out, fanout, &mut slots.iter().map(|s| s.is_some()));
    for loc in slots.iter().flatten() {
        put_location(&mut out, loc, hashed);
    }
    out
}

fn serialize_inner(fanout: usize, hashed: bool, children: &[(usize, Location)]) -> Vec<u8> {
    let mut out =
        Vec::with_capacity(1 + bitmap_len(fanout) + children.len() * location_len(hashed));
    out.push(INNER_TAG);
    let mut present = vec![false; fanout];
    for (i, _) in children {
        present[*i] = true;
    }
    push_bitmap(&mut out, fanout, &mut present.iter().copied());
    for (_, loc) in children {
        put_location(&mut out, loc, hashed);
    }
    out
}

fn push_bitmap(out: &mut Vec<u8>, fanout: usize, bits: &mut dyn Iterator<Item = bool>) {
    let mut bytes = vec![0u8; bitmap_len(fanout)];
    for (i, bit) in bits.enumerate() {
        if bit {
            bytes[i / 8] |= 1 << (i % 8);
        }
    }
    out.extend_from_slice(&bytes);
}

enum ParsedPage {
    Leaf(Vec<Option<Location>>),
    Inner(Vec<(usize, Location)>),
}

fn parse_page(
    fanout: usize,
    hashed: bool,
    bytes: &[u8],
) -> std::result::Result<ParsedPage, Malformed> {
    let mut c = Cursor::new(bytes);
    let tag = c.u8()?;
    let bitmap = c.bytes(bitmap_len(fanout))?.to_vec();
    let present: Vec<usize> = (0..fanout)
        .filter(|i| bitmap[i / 8] & (1 << (i % 8)) != 0)
        .collect();
    match tag {
        LEAF_TAG => {
            let mut slots = vec![None; fanout];
            for i in &present {
                slots[*i] = Some(get_location(&mut c, hashed)?);
            }
            c.finish()?;
            Ok(ParsedPage::Leaf(slots))
        }
        INNER_TAG => {
            let mut children = Vec::with_capacity(present.len());
            for i in present {
                children.push((i, get_location(&mut c, hashed)?));
            }
            c.finish()?;
            Ok(ParsedPage::Inner(children))
        }
        other => Err(Malformed(format!("unknown page tag {other}"))),
    }
}

// ---------------------------------------------------------------------------
// Snapshot diffing
// ---------------------------------------------------------------------------

/// Difference between two frozen map roots.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MapDiff {
    /// Ids present in `b` whose location differs from `a` (added or
    /// updated), with their location in `b`.
    pub changed: Vec<(ChunkId, Location)>,
    /// Ids present in `a` but absent from `b`.
    pub removed: Vec<ChunkId>,
}

/// Compare two frozen trees, pruning shared subtrees. Complexity is
/// proportional to the amount of change, which is what makes incremental
/// backups cheap (§3.2.1).
pub(crate) fn diff_roots(
    a: &Arc<Node>,
    depth_a: u32,
    b: &Arc<Node>,
    depth_b: u32,
    fanout: usize,
) -> MapDiff {
    let mut diff = MapDiff::default();
    let depth = depth_a.max(depth_b);
    diff_nodes(
        Some(&wrap_to_depth(a, depth_a, depth, fanout)),
        Some(&wrap_to_depth(b, depth_b, depth, fanout)),
        fanout,
        depth,
        0,
        &mut diff,
    );
    diff
}

/// Pad a shallower tree with single-child inner roots so both trees have
/// equal depth (a grown tree nests its old root at child 0).
fn wrap_to_depth(node: &Arc<Node>, depth: u32, target: u32, fanout: usize) -> Arc<Node> {
    let mut node = node.clone();
    for _ in depth..target {
        let mut wrapper = Node::new_inner(fanout);
        if let NodeKind::Inner(children) = &mut wrapper.kind {
            children[0] = Some(node);
        }
        node = Arc::new(wrapper);
    }
    node
}

fn same_page(a: &Node, b: &Node) -> bool {
    match (&a.disk, &b.disk) {
        (Some(la), Some(lb)) => la == lb,
        _ => false,
    }
}

fn diff_nodes(
    a: Option<&Arc<Node>>,
    b: Option<&Arc<Node>>,
    fanout: usize,
    level: u32,
    base: u128,
    out: &mut MapDiff,
) {
    match (a, b) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            if Arc::ptr_eq(a, b) || same_page(a, b) {
                return;
            }
            match (&a.kind, &b.kind) {
                (NodeKind::Inner(ca), NodeKind::Inner(cb)) => {
                    let stride = (fanout as u128).pow(level - 1);
                    for i in 0..fanout {
                        diff_nodes(
                            ca[i].as_ref(),
                            cb[i].as_ref(),
                            fanout,
                            level - 1,
                            base + i as u128 * stride,
                            out,
                        );
                    }
                }
                (NodeKind::Leaf(sa), NodeKind::Leaf(sb)) => {
                    for i in 0..fanout {
                        let id = ChunkId((base + i as u128) as u64);
                        match (&sa[i], &sb[i]) {
                            (Some(la), Some(lb)) if la == lb => {}
                            (_, Some(lb)) => out.changed.push((id, *lb)),
                            (Some(_), None) => out.removed.push(id),
                            (None, None) => {}
                        }
                    }
                }
                // Structurally impossible for trees of equal depth; treat
                // as full difference of both sides.
                _ => {
                    collect_all(Some(a), fanout, level, base, &mut |id, _| {
                        out.removed.push(id)
                    });
                    collect_all(Some(b), fanout, level, base, &mut |id, loc| {
                        out.changed.push((id, *loc))
                    });
                }
            }
        }
        (Some(a), None) => {
            collect_all(Some(a), fanout, level, base, &mut |id, _| {
                out.removed.push(id)
            });
        }
        (None, Some(b)) => {
            collect_all(Some(b), fanout, level, base, &mut |id, loc| {
                out.changed.push((id, *loc))
            });
        }
    }
}

fn collect_all(
    node: Option<&Arc<Node>>,
    fanout: usize,
    level: u32,
    base: u128,
    f: &mut impl FnMut(ChunkId, &Location),
) {
    let Some(node) = node else { return };
    match &node.kind {
        NodeKind::Inner(children) => {
            let stride = (fanout as u128).pow(level - 1);
            for (i, child) in children.iter().enumerate() {
                collect_all(
                    child.as_ref(),
                    fanout,
                    level - 1,
                    base + i as u128 * stride,
                    f,
                );
            }
        }
        NodeKind::Leaf(slots) => {
            for (i, slot) in slots.iter().enumerate() {
                if let Some(loc) = slot {
                    f(ChunkId((base + i as u128) as u64), loc);
                }
            }
        }
    }
}

/// Extract the proof path for `id` from a frozen root: every node from the
/// root toward `id`'s leaf in root-first order, stopping at the node where
/// the id's slot is empty (non-membership) — or the bare root for an id
/// beyond the tree's capacity. Also returns the leaf [`Location`] when the
/// id is mapped (its `hash` is the sealed-record digest the proof
/// includes).
pub(crate) fn proof_path_in_root(
    root: &Arc<Node>,
    depth: u32,
    fanout: usize,
    id: ChunkId,
) -> (Vec<PathNode>, Option<Location>) {
    if id.0 as u128 >= (fanout as u128).pow(depth) {
        return (vec![root.as_path_node()], None);
    }
    let mut path = Vec::with_capacity(depth as usize);
    let mut node = root;
    let mut level = depth;
    loop {
        path.push(node.as_path_node());
        let slot = slot_at(fanout, id.0, level);
        match &node.kind {
            NodeKind::Inner(children) => match children[slot].as_ref() {
                Some(child) => {
                    node = child;
                    level -= 1;
                }
                None => return (path, None),
            },
            NodeKind::Leaf(slots) => return (path, slots[slot]),
        }
    }
}

/// Read a chunk location from a frozen root (used by snapshot reads).
pub(crate) fn get_in_root(
    root: &Arc<Node>,
    depth: u32,
    fanout: usize,
    id: ChunkId,
) -> Option<Location> {
    if id.0 as u128 >= (fanout as u128).pow(depth) {
        return None;
    }
    let mut node = root;
    let mut level = depth;
    loop {
        let slot = slot_at(fanout, id.0, level);
        match &node.kind {
            NodeKind::Inner(children) => {
                node = children[slot].as_ref()?;
                level -= 1;
            }
            NodeKind::Leaf(slots) => return slots[slot],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn loc(tag: u32) -> Location {
        Location {
            seg: SegmentId(tag),
            off: tag,
            len: 10,
            hash: [tag as u8; 32],
        }
    }

    #[test]
    fn set_get_remove_basic() {
        let mut m = LocationMap::new(4, true);
        assert_eq!(m.get(ChunkId(0)), None);
        assert_eq!(m.set(ChunkId(0), loc(1)), None);
        assert_eq!(m.get(ChunkId(0)), Some(loc(1)));
        assert_eq!(m.set(ChunkId(0), loc(2)), Some(loc(1)));
        assert_eq!(m.remove(ChunkId(0)), Some(loc(2)));
        assert_eq!(m.get(ChunkId(0)), None);
        assert_eq!(m.remove(ChunkId(0)), None);
    }

    #[test]
    fn grows_across_levels() {
        let mut m = LocationMap::new(4, true);
        // id 100 needs depth 4 with fanout 4 (capacity 256).
        m.set(ChunkId(100), loc(7));
        assert!(m.depth() >= 4);
        assert_eq!(m.get(ChunkId(100)), Some(loc(7)));
        // Earlier ids still reachable after growth.
        m.set(ChunkId(0), loc(1));
        m.set(ChunkId(3), loc(2));
        assert_eq!(m.get(ChunkId(0)), Some(loc(1)));
        assert_eq!(m.get(ChunkId(3)), Some(loc(2)));
        assert_eq!(m.get(ChunkId(101)), None);
        assert_eq!(m.live_count(), 3);
    }

    #[test]
    fn for_each_entry_visits_all_in_order() {
        let mut m = LocationMap::new(8, true);
        let ids = [0u64, 5, 7, 8, 63, 64, 100, 511];
        for (i, id) in ids.iter().enumerate() {
            m.set(ChunkId(*id), loc(i as u32));
        }
        let mut seen = Vec::new();
        m.for_each_entry(&mut |id, _| seen.push(id.0));
        assert_eq!(seen, ids.to_vec());
    }

    #[test]
    fn checkpoint_and_load_roundtrip() {
        let mut m = LocationMap::new(4, true);
        for id in [0u64, 1, 5, 17, 300] {
            m.set(ChunkId(id), loc(id as u32));
        }
        assert!(m.is_dirty());

        // Fake "log": pages stored by synthetic location.
        let mut pages: HashMap<u32, Vec<u8>> = HashMap::new();
        let mut next = 1000u32;
        let root_loc = m
            .checkpoint(&mut |bytes| {
                let l = Location {
                    seg: SegmentId(0),
                    off: next,
                    len: bytes.len() as u32,
                    hash: [0; 32],
                };
                pages.insert(next, bytes.to_vec());
                next += 1;
                Ok(l)
            })
            .unwrap();
        assert!(!m.is_dirty());
        let depth = m.depth();

        let pages2 = pages.clone();
        let loaded = LocationMap::load(root_loc, depth, 4, true, &move |l: &Location| {
            Ok(pages2.get(&l.off).unwrap().clone())
        })
        .unwrap();
        for id in [0u64, 1, 5, 17, 300] {
            assert_eq!(loaded.get(ChunkId(id)), Some(loc(id as u32)), "id {id}");
        }
        assert_eq!(loaded.get(ChunkId(2)), None);
        assert!(!loaded.is_dirty());

        // Every clean page is enumerated, including the root.
        let mut page_locs = Vec::new();
        loaded.for_each_page(&mut |l| page_locs.push(*l));
        assert!(page_locs.contains(&root_loc));
        assert_eq!(page_locs.len(), pages.len());
    }

    #[test]
    fn checkpoint_writes_only_dirty_pages() {
        let mut m = LocationMap::new(4, true);
        for id in 0..32u64 {
            m.set(ChunkId(id), loc(id as u32));
        }
        let mut writes = 0;
        m.checkpoint(&mut |bytes| {
            writes += 1;
            Ok(Location {
                seg: SegmentId(0),
                off: writes,
                len: bytes.len() as u32,
                hash: [0; 32],
            })
        })
        .unwrap();
        let full_writes = writes;
        assert!(full_writes > 8); // all leaves + inners

        // One update dirties exactly one root-to-leaf path.
        m.set(ChunkId(0), loc(99));
        let before = m.drain_superseded().len() as u32;
        assert_eq!(before, m.depth()); // every node on the path superseded
        writes = 0;
        m.checkpoint(&mut |bytes| {
            writes += 1;
            Ok(Location {
                seg: SegmentId(1),
                off: writes,
                len: bytes.len() as u32,
                hash: [0; 32],
            })
        })
        .unwrap();
        assert_eq!(writes, m.depth()); // path only
    }

    #[test]
    fn superseded_tracks_old_page_extents() {
        let mut m = LocationMap::new(4, true);
        m.set(ChunkId(0), loc(1));
        assert!(m.drain_superseded().is_empty()); // nothing was ever on disk
        let mut off = 0u32;
        m.checkpoint(&mut |b| {
            off += 1;
            Ok(Location {
                seg: SegmentId(0),
                off,
                len: b.len() as u32,
                hash: [0; 32],
            })
        })
        .unwrap();
        m.set(ChunkId(1), loc(2));
        let superseded = m.drain_superseded();
        assert_eq!(superseded.len() as u32, m.depth());
    }

    #[test]
    fn dirty_pages_in_marks_victims_and_ancestors() {
        let mut m = LocationMap::new(4, true);
        for id in 0..32u64 {
            m.set(ChunkId(id), loc(id as u32));
        }
        let mut seg_alloc = 0u32;
        m.checkpoint(&mut |b| {
            seg_alloc += 1;
            // Spread pages across "segments" 0 and 1 alternately.
            Ok(Location {
                seg: SegmentId(seg_alloc % 2),
                off: seg_alloc,
                len: b.len() as u32,
                hash: [0; 32],
            })
        })
        .unwrap();
        let mut victims = std::collections::HashSet::new();
        victims.insert(SegmentId(0));
        let dirtied = m.dirty_pages_in(&victims);
        assert!(dirtied > 0);
        // After the follow-up checkpoint no page lives in segment 0.
        let mut off = 100u32;
        m.checkpoint(&mut |b| {
            off += 1;
            Ok(Location {
                seg: SegmentId(2),
                off,
                len: b.len() as u32,
                hash: [0; 32],
            })
        })
        .unwrap();
        m.for_each_page(&mut |l| assert_ne!(l.seg, SegmentId(0)));
        // Entries unchanged.
        assert_eq!(m.live_count(), 32);
    }

    #[test]
    fn load_rejects_structurally_bad_pages() {
        let err = LocationMap::load(loc(0), 1, 4, true, &|_l: &Location| Ok(vec![9, 9, 9]))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, ChunkStoreError::TamperDetected(_)));
        // Inner tag at leaf level.
        let inner_bytes = serialize_inner(4, true, &[]);
        let err = LocationMap::load(loc(0), 1, 4, true, &move |_l: &Location| {
            Ok(inner_bytes.clone())
        })
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(err, ChunkStoreError::TamperDetected(_)));
    }

    #[test]
    fn diff_detects_changed_added_removed() {
        let mut m = LocationMap::new(4, true);
        for id in 0..10u64 {
            m.set(ChunkId(id), loc(id as u32));
        }
        let (a_root, a_depth) = m.freeze();
        m.set(ChunkId(3), loc(77)); // change
        m.set(ChunkId(40), loc(78)); // add (grows tree)
        m.remove(ChunkId(7)); // remove
        let (b_root, b_depth) = m.freeze();

        let mut d = diff_roots(&a_root, a_depth, &b_root, b_depth, 4);
        d.changed.sort_by_key(|(id, _)| id.0);
        assert_eq!(
            d.changed,
            vec![(ChunkId(3), loc(77)), (ChunkId(40), loc(78))]
        );
        assert_eq!(d.removed, vec![ChunkId(7)]);
    }

    #[test]
    fn diff_of_identical_roots_is_empty() {
        let mut m = LocationMap::new(4, true);
        for id in 0..20u64 {
            m.set(ChunkId(id), loc(id as u32));
        }
        let (a, da) = m.freeze();
        let (b, db) = m.freeze();
        let d = diff_roots(&a, da, &b, db, 4);
        assert!(d.changed.is_empty() && d.removed.is_empty());
    }

    #[test]
    fn diff_prunes_clean_shared_subtrees() {
        // After a checkpoint, unchanged subtrees have equal disk locations
        // even across deep copies; the diff must not descend into them.
        let mut m = LocationMap::new(4, true);
        for id in 0..64u64 {
            m.set(ChunkId(id), loc(id as u32));
        }
        let mut off = 0u32;
        m.checkpoint(&mut |b| {
            off += 1;
            Ok(Location {
                seg: SegmentId(0),
                off,
                len: b.len() as u32,
                hash: [0; 32],
            })
        })
        .unwrap();
        let (a, da) = m.freeze();
        m.set(ChunkId(0), loc(200));
        let (b, db) = m.freeze();
        let d = diff_roots(&a, da, &b, db, 4);
        assert_eq!(d.changed, vec![(ChunkId(0), loc(200))]);
        assert!(d.removed.is_empty());
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let mut m = LocationMap::new(4, true);
        m.set(ChunkId(1), loc(1));
        let (snap, depth) = m.freeze();
        m.set(ChunkId(1), loc(2));
        m.set(ChunkId(9), loc(3));
        assert_eq!(get_in_root(&snap, depth, 4, ChunkId(1)), Some(loc(1)));
        assert_eq!(get_in_root(&snap, depth, 4, ChunkId(9)), None);
        assert_eq!(m.get(ChunkId(1)), Some(loc(2)));
    }

    #[test]
    fn proof_hash_tracks_content_not_placement() {
        let mut m = LocationMap::new(4, true);
        for id in 0..20u64 {
            m.set(ChunkId(id), loc(id as u32));
        }
        let (root, depth) = m.freeze();
        let before = root.proof_hash();

        // Checkpointing (page placement) must not change the proof hash.
        let mut off = 0u32;
        m.checkpoint(&mut |b| {
            off += 1;
            Ok(Location {
                seg: SegmentId(0),
                off,
                len: b.len() as u32,
                hash: [0; 32],
            })
        })
        .unwrap();
        assert_eq!(m.freeze().0.proof_hash(), before);

        // Relocating pages (what the cleaner does) must not either.
        let mut victims = std::collections::HashSet::new();
        victims.insert(SegmentId(0));
        m.dirty_pages_in(&victims);
        let mut off = 100u32;
        m.checkpoint(&mut |b| {
            off += 1;
            Ok(Location {
                seg: SegmentId(1),
                off,
                len: b.len() as u32,
                hash: [0; 32],
            })
        })
        .unwrap();
        assert_eq!(m.freeze().0.proof_hash(), before);

        // Changing an entry must.
        m.set(ChunkId(3), loc(99));
        let changed = m.freeze().0.proof_hash();
        assert_ne!(changed, before);
        m.remove(ChunkId(3));
        assert_ne!(m.freeze().0.proof_hash(), changed);
        // The frozen snapshot kept its own memo intact.
        assert_eq!(root.proof_hash(), before);
        let _ = depth;
    }

    #[test]
    fn apply_batch_matches_sequential_ops() {
        // Same ops through apply_batch and through per-op set/remove must
        // produce identical maps, identical returned old locations, and
        // identical superseded-extent multisets.
        let ops: Vec<(ChunkId, Option<Location>)> = vec![
            (ChunkId(0), Some(loc(10))),
            (ChunkId(3), None),          // no-op remove (never mapped)
            (ChunkId(5), Some(loc(11))), // overwrite below
            (ChunkId(17), Some(loc(12))),
            (ChunkId(64), Some(loc(13))), // forces growth
            (ChunkId(7), None),           // real remove
        ];
        let mut seq = LocationMap::new(4, true);
        let mut bat = LocationMap::new(4, true);
        for m in [&mut seq, &mut bat] {
            m.set(ChunkId(5), loc(1));
            m.set(ChunkId(7), loc(2));
            let mut off = 0u32;
            m.checkpoint(&mut |b| {
                off += 1;
                Ok(Location {
                    seg: SegmentId(9),
                    off,
                    len: b.len() as u32,
                    hash: [0; 32],
                })
            })
            .unwrap();
        }

        let mut seq_old = Vec::new();
        for (id, op) in &ops {
            seq_old.push(match op {
                Some(l) => seq.set(*id, *l),
                None => seq.remove(*id),
            });
        }
        let bat_old = bat.apply_batch(&ops);
        assert_eq!(bat_old, seq_old);

        for id in 0..70u64 {
            assert_eq!(bat.get(ChunkId(id)), seq.get(ChunkId(id)), "id {id}");
        }
        let key = |l: &Location| (l.seg, l.off, l.len);
        let mut s1: Vec<_> = seq.drain_superseded().iter().map(key).collect();
        let mut s2: Vec<_> = bat.drain_superseded().iter().map(key).collect();
        s1.sort();
        s1.dedup();
        s2.sort();
        s2.dedup();
        assert_eq!(s1, s2, "superseded extents (deduped) must agree");
        assert_eq!(
            bat.freeze().0.proof_hash(),
            seq.freeze().0.proof_hash(),
            "proof roots must agree"
        );
    }

    #[test]
    fn proof_paths_link_and_cover_absence() {
        let mut m = LocationMap::new(4, true);
        for id in [0u64, 5, 17] {
            m.set(ChunkId(id), loc(id as u32));
        }
        let (root, depth) = m.freeze();
        let fanout = 4usize;

        // Present id: full-depth path, root-first, each node's digest at
        // the id's slot equals the next node's hash, leaf carries the
        // chunk's stored hash.
        let (path, found) = proof_path_in_root(&root, depth, fanout, ChunkId(5));
        assert_eq!(path.len(), depth as usize);
        assert_eq!(path[0].hash(), root.proof_hash());
        for i in 0..path.len() - 1 {
            let slot = tdb_proof::tree::slot_at(fanout as u32, 5, depth - 1 - i as u32);
            assert_eq!(path[i].digest_at(slot), Some(&path[i + 1].hash()));
        }
        assert_eq!(found.unwrap().hash, loc(5).hash);
        let leaf_slot = tdb_proof::tree::slot_at(fanout as u32, 5, 0);
        assert_eq!(
            path.last().unwrap().digest_at(leaf_slot),
            Some(&loc(5).hash)
        );

        // Absent id whose leaf exists: path reaches the leaf, slot empty.
        let (path, found) = proof_path_in_root(&root, depth, fanout, ChunkId(6));
        assert!(found.is_none());
        assert_eq!(path.len(), depth as usize);
        let leaf_slot = tdb_proof::tree::slot_at(fanout as u32, 6, 0);
        assert_eq!(path.last().unwrap().digest_at(leaf_slot), None);

        // Absent id in a missing subtree: truncated path.
        let (path, found) = proof_path_in_root(&root, depth, fanout, ChunkId(60));
        assert!(found.is_none());
        assert!(path.len() < depth as usize);

        // Beyond capacity: bare root.
        let (path, found) = proof_path_in_root(&root, depth, fanout, ChunkId(1 << 40));
        assert!(found.is_none());
        assert_eq!(path.len(), 1);
        assert_eq!(path[0].hash(), root.proof_hash());
    }

    #[test]
    fn page_serialization_roundtrips() {
        for hashed in [true, false] {
            let slots = vec![Some(loc(1)), None, Some(loc(3)), None];
            let bytes = serialize_leaf(4, hashed, &slots);
            match parse_page(4, hashed, &bytes).unwrap() {
                ParsedPage::Leaf(parsed) => {
                    for (a, b) in parsed.iter().zip(&slots) {
                        match (a, b) {
                            (Some(a), Some(b)) => {
                                assert_eq!((a.seg, a.off, a.len), (b.seg, b.off, b.len));
                                if hashed {
                                    assert_eq!(a.hash, b.hash);
                                }
                            }
                            (None, None) => {}
                            _ => panic!("presence mismatch"),
                        }
                    }
                }
                _ => panic!("wrong kind"),
            }
            let children = vec![(1usize, loc(5)), (3usize, loc(6))];
            let bytes = serialize_inner(4, hashed, &children);
            match parse_page(4, hashed, &bytes).unwrap() {
                ParsedPage::Inner(parsed) => assert_eq!(parsed.len(), children.len()),
                _ => panic!("wrong kind"),
            }
            // Truncations never panic.
            for cut in 0..bytes.len() {
                assert!(parse_page(4, hashed, &bytes[..cut]).is_err());
            }
        }
    }

    /// Equivalence oracle for the commit path's batched tree maintenance:
    /// a map driven by [`LocationMap::apply_batch`] must be bit-identical —
    /// root digest and every proof path — to one driven by per-op
    /// [`LocationMap::set`]/[`LocationMap::remove`], across random
    /// interleavings of inserts, updates, removes, and cleaner-style
    /// relocations.
    mod batched_equivalence {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(proptest::test_runner::Config {
                cases: 32,
                ..Default::default()
            })]
            #[test]
            fn batched_rehash_matches_incremental_oracle(
                rounds in proptest::collection::vec(
                    proptest::collection::vec((0u64..600u64, 0u8..4u8), 1..24),
                    1..8,
                ),
            ) {
                let mut inc = LocationMap::new(4, true);
                let mut bat = LocationMap::new(4, true);
                // Current mapping (for relocations) and a fresh-tag counter.
                let mut live: HashMap<u64, Location> = HashMap::new();
                let mut tag = 0u32;
                let mut touched: Vec<u64> = Vec::new();
                for round in rounds {
                    // At most one op per id per round — the commit path's
                    // contract (its op map is keyed by id).
                    let mut seen = std::collections::HashSet::new();
                    let mut ops: Vec<(ChunkId, Option<Location>)> = Vec::new();
                    for (id, kind) in round {
                        if !seen.insert(id) {
                            continue;
                        }
                        let op = match (kind, live.get(&id)) {
                            (0, _) => None,
                            // Cleaner-style relocation: new position, same
                            // record hash — must leave the root unchanged.
                            (3, Some(l)) => {
                                tag += 1;
                                Some(Location {
                                    seg: SegmentId(tag),
                                    off: tag,
                                    ..*l
                                })
                            }
                            _ => {
                                tag += 1;
                                Some(loc(tag))
                            }
                        };
                        ops.push((ChunkId(id), op));
                    }
                    let inc_old: Vec<Option<Location>> = ops
                        .iter()
                        .map(|(id, op)| match op {
                            Some(l) => inc.set(*id, *l),
                            None => inc.remove(*id),
                        })
                        .collect();
                    let bat_old = bat.apply_batch(&ops);
                    prop_assert_eq!(&inc_old, &bat_old);
                    for (id, op) in &ops {
                        touched.push(id.0);
                        match op {
                            Some(l) => live.insert(id.0, *l),
                            None => live.remove(&id.0),
                        };
                    }

                    let (inc_root, inc_depth) = inc.freeze();
                    let (bat_root, bat_depth) = bat.freeze();
                    prop_assert_eq!(inc_depth, bat_depth);
                    prop_assert_eq!(inc_root.proof_hash(), bat_root.proof_hash());
                    // Proof paths bit-identical for every id ever touched,
                    // plus absent and beyond-capacity probes.
                    for id in touched.iter().copied().chain([599, 100_000]) {
                        prop_assert_eq!(
                            proof_path_in_root(&inc_root, inc_depth, 4, ChunkId(id)),
                            proof_path_in_root(&bat_root, bat_depth, 4, ChunkId(id)),
                            "proof path diverged for id {}",
                            id
                        );
                    }
                }
            }
        }
    }
}
