//! Read-only collection access over a snapshot (see
//! [`CollectionStore::begin_read`](crate::CollectionStore::begin_read)).
//!
//! A [`ReadCTransaction`] wraps an object-store
//! [`ReadTransaction`]: every lookup and
//! scan runs against the pinned snapshot, takes **no** 2PL locks, and is
//! *stable by construction* — the snapshot is immutable, so iteration over
//! query results cannot observe concurrent commits, index splits, or log
//! cleaning. That is a stronger form of the paper's iterator insensitivity
//! (§5.2.2), obtained structurally instead of via deferred maintenance.

use crate::btree;
use crate::ctxn::IndexCounters;
use crate::dynhash;
use crate::error::{CollectionError, Result};
use crate::key::Key;
use crate::listindex;
use crate::meta::{CollectionObj, DirectoryObj, IndexKind, IndexMeta, DIRECTORY_ROOT};
use crate::ObjectId;
use object_store::{Persistent, ReadTransaction};
use std::ops::Bound;
use std::sync::Arc;

/// A read-only collection-store transaction pinned to a snapshot.
pub struct ReadCTransaction {
    pub(crate) rtxn: ReadTransaction,
    pub(crate) obs: Arc<IndexCounters>,
}

impl ReadCTransaction {
    pub(crate) fn new(rtxn: ReadTransaction, obs: Arc<IndexCounters>) -> Self {
        ReadCTransaction { rtxn, obs }
    }

    /// The chunk-store commit sequence this reader observes.
    pub fn commit_seq(&self) -> u64 {
        self.rtxn.commit_seq()
    }

    /// The wrapped object-store read transaction (for direct typed reads
    /// alongside collection queries).
    pub fn object_reader(&self) -> &ReadTransaction {
        &self.rtxn
    }

    /// Read a named root object id as of the snapshot.
    pub fn root(&self, name: &str) -> Option<ObjectId> {
        self.rtxn.root(name)
    }

    /// Apply `f` to a member object downcast to `T`.
    pub fn read<T: Persistent, R>(&self, oid: ObjectId, f: impl FnOnce(&T) -> R) -> Result<R> {
        self.rtxn.read(oid, f).map_err(CollectionError::from)
    }

    /// Read an object's pickled bytes as of the snapshot (untyped access
    /// for session layers that ship objects over a wire).
    pub fn read_bytes(&self, oid: ObjectId) -> Result<Vec<u8>> {
        self.rtxn
            .with_readonly(oid, object_store::pickle_object)
            .map_err(CollectionError::from)
    }

    /// End the transaction, releasing the snapshot pin (same as dropping).
    pub fn finish(self) {}

    fn directory_id(&self) -> Result<ObjectId> {
        self.rtxn
            .root(DIRECTORY_ROOT)
            .ok_or_else(|| CollectionError::NoSuchCollection("<directory missing>".into()))
    }

    /// Names of all collections as of the snapshot.
    pub fn collection_names(&self) -> Result<Vec<String>> {
        let dir_id = self.directory_id()?;
        let mut names = self.rtxn.read::<DirectoryObj, _>(dir_id, |dir| {
            dir.entries
                .iter()
                .map(|(n, _)| n.clone())
                .collect::<Vec<_>>()
        })?;
        names.sort();
        Ok(names)
    }

    /// Handle to a collection as of the snapshot.
    pub fn read_collection(&self, name: &str) -> Result<ReadCollection<'_>> {
        let dir_id = self.directory_id()?;
        let found = self
            .rtxn
            .read::<DirectoryObj, _>(dir_id, |dir| dir.get(name))?;
        let oid = found.ok_or_else(|| CollectionError::NoSuchCollection(name.to_string()))?;
        Ok(ReadCollection {
            rt: self,
            oid,
            name: name.to_string(),
        })
    }
}

/// A read-only handle to one collection within a [`ReadCTransaction`].
///
/// Queries return materialized results (ids or `(key, id)` entries); member
/// objects are read through [`get`](ReadCollection::get) /
/// [`ReadCTransaction::read`]. There is no iterator-close maintenance step:
/// nothing can be written, and the result set is stable because the whole
/// snapshot is.
pub struct ReadCollection<'t> {
    rt: &'t ReadCTransaction,
    oid: ObjectId,
    name: String,
}

impl ReadCollection<'_> {
    /// Collection name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Object id of the collection object itself.
    pub fn id(&self) -> ObjectId {
        self.oid
    }

    fn metas(&self) -> Result<Vec<IndexMeta>> {
        Ok(self
            .rt
            .rtxn
            .read::<CollectionObj, _>(self.oid, |c| c.indexes.clone())?)
    }

    fn meta_named(&self, index: &str) -> Result<IndexMeta> {
        self.metas()?
            .into_iter()
            .find(|m| m.spec.name == index)
            .ok_or_else(|| CollectionError::NoSuchIndex(index.to_string()))
    }

    /// Names of the indexes on this collection.
    pub fn index_names(&self) -> Result<Vec<String>> {
        Ok(self.metas()?.into_iter().map(|m| m.spec.name).collect())
    }

    /// Number of member objects (counted via the first index).
    pub fn len(&self) -> Result<u64> {
        let metas = self.metas()?;
        let reader = &self.rt.rtxn;
        match metas[0].spec.kind {
            IndexKind::BTree => Ok(btree::count(reader, metas[0].root)?),
            IndexKind::Hash => Ok(dynhash::scan(reader, metas[0].root)?.len() as u64),
            IndexKind::List => Ok(listindex::scan(reader, metas[0].root)?.len() as u64),
        }
    }

    /// Whether the collection has no members.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Every `(key, id)` entry of `index`, in its natural order.
    pub fn scan(&self, index: &str) -> Result<Vec<(Key, ObjectId)>> {
        self.rt.obs.scans.inc();
        let meta = self.meta_named(index)?;
        let reader = &self.rt.rtxn;
        Ok(match meta.spec.kind {
            IndexKind::BTree => btree::scan(reader, meta.root)?,
            IndexKind::Hash => dynhash::scan(reader, meta.root)?,
            IndexKind::List => listindex::scan(reader, meta.root)?,
        })
    }

    /// Ids of members whose `index` key equals `key`.
    pub fn exact(&self, index: &str, key: &Key) -> Result<Vec<ObjectId>> {
        self.rt.obs.lookups.inc();
        let meta = self.meta_named(index)?;
        let reader = &self.rt.rtxn;
        Ok(match meta.spec.kind {
            IndexKind::BTree => btree::lookup(reader, meta.root, key)?,
            IndexKind::Hash => dynhash::lookup(reader, meta.root, key)?,
            IndexKind::List => listindex::lookup(reader, meta.root, key)?,
        })
    }

    /// Range query over an ordered (B-tree) index.
    pub fn range(
        &self,
        index: &str,
        min: Bound<&Key>,
        max: Bound<&Key>,
    ) -> Result<Vec<(Key, ObjectId)>> {
        self.rt.obs.lookups.inc();
        let meta = self.meta_named(index)?;
        match meta.spec.kind {
            IndexKind::BTree => Ok(btree::range(&self.rt.rtxn, meta.root, min, max)?),
            IndexKind::Hash | IndexKind::List => Err(CollectionError::UnsupportedQuery {
                index: index.to_string(),
                what: "range queries",
            }),
        }
    }

    /// Apply `f` to a member object downcast to `T`.
    pub fn get<T: Persistent, R>(&self, oid: ObjectId, f: impl FnOnce(&T) -> R) -> Result<R> {
        self.rt.read(oid, f)
    }

    /// Proof-carrying exact lookup: the ids whose `index` key equals
    /// `key`, together with a keyed (non-)membership proof over the whole
    /// index as of the snapshot. An empty result is **provably** empty —
    /// the proof brackets the miss between the two adjacent committed
    /// keys. Verify with
    /// [`Verifier::verify_keyed`](tdb_proof::Verifier::verify_keyed)
    /// against the store's trust anchor; the verifier returns exactly the
    /// ids in [`ProvenLookup::entries`].
    ///
    /// Works on any index kind: the proof commits the index's full entry
    /// set sorted by [`Key::encode_ordered`], regardless of how the index
    /// organizes lookups internally. Cost is a full index scan at the
    /// snapshot — this is an audit-grade read, not a fast path.
    pub fn exact_proven(&self, index: &str, key: &Key) -> Result<ProvenLookup> {
        let lo = key.encode_ordered();
        let hi = tdb_proof::key_successor(&lo);
        self.proven_lookup(index, lo, Some(hi))
    }

    /// Proof-carrying range query over an ordered (B-tree) index; see
    /// [`exact_proven`](ReadCollection::exact_proven). All [`Bound`]
    /// forms are supported — they map exactly onto the proof's half-open
    /// encoded-key range.
    pub fn range_proven(
        &self,
        index: &str,
        min: Bound<&Key>,
        max: Bound<&Key>,
    ) -> Result<ProvenLookup> {
        let meta = self.meta_named(index)?;
        if !matches!(meta.spec.kind, IndexKind::BTree) {
            return Err(CollectionError::UnsupportedQuery {
                index: index.to_string(),
                what: "range queries",
            });
        }
        let lo = match min {
            Bound::Included(k) => k.encode_ordered(),
            Bound::Excluded(k) => tdb_proof::key_successor(&k.encode_ordered()),
            Bound::Unbounded => Vec::new(),
        };
        let hi = match max {
            Bound::Included(k) => Some(tdb_proof::key_successor(&k.encode_ordered())),
            Bound::Excluded(k) => Some(k.encode_ordered()),
            Bound::Unbounded => None,
        };
        self.proven_lookup(index, lo, hi)
    }

    fn proven_lookup(&self, index: &str, lo: Vec<u8>, hi: Option<Vec<u8>>) -> Result<ProvenLookup> {
        self.rt.obs.lookups.inc();
        let meta = self.meta_named(index)?;
        let reader = &self.rt.rtxn;
        let all: Vec<(Key, ObjectId)> = match meta.spec.kind {
            IndexKind::BTree => btree::scan(reader, meta.root)?,
            IndexKind::Hash => dynhash::scan(reader, meta.root)?,
            IndexKind::List => listindex::scan(reader, meta.root)?,
        };
        let tree = tdb_proof::KeyedTree::build(
            all.iter()
                .map(|(k, id)| tdb_proof::KeyedEntry {
                    key: k.encode_ordered(),
                    id: id.0,
                })
                .collect(),
        );
        let scope = format!("{}/{}", self.name, index);
        let mut proof = tree.prove_range(&scope, &lo, hi.as_deref());
        proof.attestation = reader.keyed_attest(&scope, proof.total, &proof.root)?;
        // The matching entries, in the committed (encoded-key, id) order,
        // so they line up 1:1 with the ids the verifier returns.
        let mut entries: Vec<(Key, ObjectId)> = all
            .into_iter()
            .filter(|(k, _)| {
                let enc = k.encode_ordered();
                enc >= lo && hi.as_ref().is_none_or(|h| &enc < h)
            })
            .collect();
        entries.sort_by(|(ka, ia), (kb, ib)| ka.cmp(kb).then(ia.0.cmp(&ib.0)));
        Ok(ProvenLookup { entries, proof })
    }
}

/// The result of a proof-carrying index lookup
/// ([`ReadCollection::exact_proven`], [`ReadCollection::range_proven`]):
/// the matching entries plus the keyed proof that this is the **complete**
/// answer as of the snapshot — including the non-membership case, where
/// `entries` is empty and the proof brackets the queried range.
pub struct ProvenLookup {
    /// Matching `(key, id)` entries in committed order (sorted by the
    /// order-preserving key encoding, ties by id).
    pub entries: Vec<(Key, ObjectId)>,
    /// The self-contained proof; the snapshot's counter value and commit
    /// sequence are bound inside its attestation.
    pub proof: tdb_proof::KeyedProof,
}
