//! Copy-on-write database snapshots.
//!
//! A snapshot freezes the location map root (`Arc` clone — O(1)) so the
//! backup store can read a consistent database image while commits continue
//! (paper §3.2.1: "the location map can be inexpensively snapshot using
//! copy-on-write, which is used to implement fast backups"). Comparing two
//! snapshots ([`ChunkStore::diff_snapshots`](crate::ChunkStore::diff_snapshots))
//! prunes subtrees whose pages are identical, "which allows creation of
//! incremental backups".
//!
//! While a snapshot is alive the cleaner refuses to reclaim any segment
//! holding chunk versions or map pages the snapshot references.

use crate::ids::ChunkId;
use crate::map::{self, Location, Node};
use crate::store::Layout;
use std::sync::Arc;

pub use crate::map::MapDiff as SnapshotDiff;

/// Internals shared between the snapshot handle and the store's registry.
pub(crate) struct SnapCore {
    pub(crate) root: Arc<Node>,
    pub(crate) depth: u32,
    pub(crate) fanout: usize,
    /// Commit sequence number the snapshot was taken at.
    pub(crate) seq: u64,
    /// One-way counter value observed when the snapshot was pinned (the
    /// shard's *virtual* counter when the store has several shards). Proof
    /// attestations deferred to [`Proven::prove`](crate::proof::Proven::prove)
    /// are minted over this value, so a proof stays bound to the freshness
    /// the reader actually observed, not to whatever the counter says later.
    pub(crate) counter_value: u64,
}

/// A frozen, consistent view of the whole chunk database: one pinned map
/// root per shard, taken together so no cross-shard transaction is seen
/// half-applied.
///
/// Dropping the snapshot releases its cleaning pins automatically.
pub struct Snapshot {
    pub(crate) layout: Layout,
    pub(crate) parts: Vec<ShardSnapshot>,
    /// Global ids of the cross-shard coordination records registered when
    /// the snapshot was taken: store bookkeeping, not listed.
    pub(crate) bookkeeping: Vec<ChunkId>,
}

impl Snapshot {
    /// Commit sequence this snapshot captured on the shard storing `cid`.
    /// Sequences of different shards are not comparable, so per-chunk
    /// version checks must use this.
    pub fn seq_for(&self, cid: ChunkId) -> u64 {
        self.parts[self.layout.shard_of(cid)].core.seq
    }

    /// Highest captured commit sequence across shards (with one shard,
    /// simply the commit sequence the snapshot captured).
    pub fn commit_seq(&self) -> u64 {
        self.parts.iter().map(|p| p.core.seq).max().unwrap_or(0)
    }

    /// Ids of all chunks in the snapshot, ascending per shard, shard by
    /// shard (the store's own bookkeeping chunks excluded).
    pub fn chunk_ids(&self) -> Vec<ChunkId> {
        let mut ids = Vec::new();
        for (s, part) in self.parts.iter().enumerate() {
            part.for_each_location(&mut |local, _| match self.layout.unroute(s, local) {
                Some(id) if !self.bookkeeping.contains(&id) => ids.push(id),
                _ => {}
            });
        }
        ids
    }
}

/// One shard's pinned map root.
pub(crate) struct ShardSnapshot {
    pub(crate) core: Arc<SnapCore>,
}

impl ShardSnapshot {
    /// Location of a chunk in this snapshot, if present.
    pub(crate) fn location_of(&self, id: ChunkId) -> Option<Location> {
        map::get_in_root(&self.core.root, self.core.depth, self.core.fanout, id)
    }

    /// Visit every chunk in the snapshot in id order.
    pub(crate) fn for_each_location(&self, f: &mut impl FnMut(ChunkId, &Location)) {
        walk(&self.core.root, self.core.fanout, self.core.depth, 0, f);
    }
}

impl SnapCore {
    /// Segments referenced by entries or map pages of this frozen tree.
    pub(crate) fn referenced_segments(&self) -> std::collections::HashSet<crate::ids::SegmentId> {
        let mut segs = std::collections::HashSet::new();
        walk(&self.root, self.fanout, self.depth, 0, &mut |_, loc| {
            segs.insert(loc.seg);
        });
        collect_page_segs(&self.root, &mut segs);
        segs
    }
}

fn walk(
    node: &Arc<Node>,
    fanout: usize,
    level: u32,
    base: u128,
    f: &mut impl FnMut(ChunkId, &Location),
) {
    match &node.kind {
        crate::map::NodeKind::Inner(children) => {
            let stride = (fanout as u128).pow(level - 1);
            for (i, child) in children.iter().enumerate() {
                if let Some(child) = child {
                    walk(child, fanout, level - 1, base + i as u128 * stride, f);
                }
            }
        }
        crate::map::NodeKind::Leaf(slots) => {
            for (i, slot) in slots.iter().enumerate() {
                if let Some(loc) = slot {
                    f(ChunkId((base + i as u128) as u64), loc);
                }
            }
        }
    }
}

fn collect_page_segs(
    node: &Arc<Node>,
    segs: &mut std::collections::HashSet<crate::ids::SegmentId>,
) {
    if let Some(loc) = &node.disk {
        segs.insert(loc.seg);
    }
    if let crate::map::NodeKind::Inner(children) = &node.kind {
        for child in children.iter().flatten() {
            collect_page_segs(child, segs);
        }
    }
}
