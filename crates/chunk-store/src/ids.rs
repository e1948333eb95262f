//! Identifier newtypes for the chunk store.

use std::fmt;

/// The persistent name of a chunk (paper Fig. 2: `ChunkId`).
///
/// Ids are allocated by
/// [`WriteBatch::allocate_chunk_id`](crate::WriteBatch::allocate_chunk_id)
/// and reused after deallocation. The object store exposes the same value as
/// `ObjectId` — TDB stores one object per chunk (§4.2.1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkId(pub u64);

impl ChunkId {
    /// Raw numeric value.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ChunkId({})", self.0)
    }
}

impl fmt::Display for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Index of a log segment file in the untrusted store.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(pub u32);

impl SegmentId {
    /// File name of this segment in the untrusted store.
    pub fn file_name(self) -> String {
        format!("seg.{:06}", self.0)
    }
}

impl fmt::Debug for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SegmentId({})", self.0)
    }
}

impl fmt::Display for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_id_formatting_and_order() {
        let a = ChunkId(1);
        let b = ChunkId(2);
        assert!(a < b);
        assert_eq!(format!("{a}"), "ChunkId(1)");
        assert_eq!(a.as_u64(), 1);
    }

    #[test]
    fn segment_file_names_sort_lexicographically() {
        let names: Vec<String> = (0..1500u32).map(|i| SegmentId(i).file_name()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(SegmentId(7).file_name(), "seg.000007");
    }
}
