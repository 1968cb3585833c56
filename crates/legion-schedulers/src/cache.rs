//! Epoch-validated candidate-set cache.
//!
//! Schedulers rebuild the same candidate query on every placement, so
//! at steady state the dominant cost of a placement episode is a full
//! Collection query — linear in Collection size — even when nothing
//! relevant changed between episodes. This module caches the
//! *materialized* candidate set per compiled query text and validates
//! it with [`Collection::epoch`]: a hit costs two atomic loads and a
//! comparison instead of an index probe, a candidate walk, and
//! per-record vault extraction.
//!
//! On epoch advance the cache consumes the Collection's bounded delta
//! log ([`Collection::deltas_since`]) and patches the cached set
//! incrementally. Each logged upsert names the attributes it changed,
//! and the query predicate is re-evaluated only against the records
//! whose change touches what the query reads ([`Query::reads`]) or the
//! vault list a candidate carries; a record whose change it does not
//! read (a reassessed host's load, free memory and object count, under
//! a query on architecture and OS) is only re-pointed, as for a touch.
//! Three situations fall back to a full recompute:
//!
//! * the log reports a [`DeltaBatch::Gap`] (the bounded log already
//!   dropped changes the cache needs),
//! * deltas are off (or the epoch moved without new deltas, e.g. a
//!   derived-attribute function was installed mid-flight),
//! * the batch is larger than the patch budget — a quarter of the
//!   Collection, with a floor of 64 — beyond which patching costs more
//!   than the indexed recompute (threshold measured in EXPERIMENTS.md
//!   E-C10).
//!
//! While derived attributes are installed the cache steps aside and
//! every serve is a plain query: their materialized views depend on
//! injected functions the delta log knows nothing about.
//!
//! Correctness leans on two properties. First, every mutator bumps the
//! generation *while still holding the store's write guard*, so a
//! reader that observes an unchanged generation cannot have missed a
//! completed mutation. Second, deltas are idempotent re-statements of
//! post-change record state (`Upsert` and `Touch` carry the immutable
//! record snapshot the store installed, shared rather than copied), so
//! patching from a conservatively old anchor — the epoch is always read
//! *before* the query or the delta pull — at worst re-applies an op the
//! snapshot already reflects, never corrupts it. An upsert's changed
//! names are relative to the member's previous state, so on replay the
//! last op that changed what the query reads still decides membership,
//! and every later one only re-points the record.
//!
//! A served `Arc<Vec<Candidate>>` is an immutable snapshot. The patch
//! goes through [`Arc::make_mut`]: in place — O(changed · log n), no
//! copy — when no past serve is still held, and onto one copy of the
//! list when a caller still holds the set it was served.
//!
//! Concurrency: lookups share a read lock; a stale entry is refreshed
//! by whichever thread reaches the entry's write lock first while the
//! rest wait and then serve the refreshed set, so threads sharing one
//! context share one cache generation per churn event instead of racing
//! N identical full queries.

use crate::traits::Candidate;
use legion_collection::{parse_query, Collection, CollectionEpoch, DeltaBatch, DeltaOp, Query};
use legion_core::{well_known, AttrMask, LegionError};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Patch only when the delta batch is smaller than this budget;
/// otherwise recompute through the indexed query path. The churn sweep
/// in EXPERIMENTS.md E-C10 puts the patch/recompute crossover between
/// 25% and 50% churn per serve at 10k records, so the budget is a
/// quarter of the collection — with a floor so small collections
/// (where recompute is cheap but patching is cheaper still) always
/// patch.
fn patch_budget(collection_len: usize) -> usize {
    (collection_len / 4).max(64)
}

/// Most query texts kept at once. Constraint text arrives with the
/// placement request, so the map would otherwise grow with every
/// distinct string a caller sends; on overflow the whole map is dropped
/// (entries are `Arc`s, so serves in flight finish on theirs) and the
/// texts still in use refill it at one compile and one compute each.
const MAX_ENTRIES: usize = 256;

/// Monotonic counters describing how the cache has been serving.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CandidateCacheStats {
    /// Serves where the epoch matched: no evaluation work at all.
    pub hits: u64,
    /// Serves that replayed a delta batch over the cached set.
    pub patched: u64,
    /// Full computes: first touch, gap, oversized batch, deltas off.
    pub misses: u64,
    /// The subset of `misses` forced by a delta-log gap.
    pub gap_resyncs: u64,
}

struct CachedSet {
    /// The epoch the set is exact at (read *before* the compute, so
    /// validation errs toward revalidating, never toward staleness).
    epoch: CollectionEpoch,
    candidates: Arc<Vec<Candidate>>,
}

/// Everything kept per query text: the query compiled once, and the
/// set it last produced.
struct CacheEntry {
    query: Arc<Query>,
    state: RwLock<Option<CachedSet>>,
}

/// The per-[`SchedCtx`](crate::SchedCtx) candidate cache; see the
/// module docs for the validation and patching protocol.
pub struct CandidateCache {
    entries: RwLock<HashMap<String, Arc<CacheEntry>>>,
    hits: AtomicU64,
    patched: AtomicU64,
    misses: AtomicU64,
    gap_resyncs: AtomicU64,
}

impl CandidateCache {
    pub(crate) fn new() -> Self {
        CandidateCache {
            entries: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            patched: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            gap_resyncs: AtomicU64::new(0),
        }
    }

    pub(crate) fn stats(&self) -> CandidateCacheStats {
        CandidateCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            patched: self.patched.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            gap_resyncs: self.gap_resyncs.load(Ordering::Relaxed),
        }
    }

    fn entry(&self, text: &str) -> Result<Arc<CacheEntry>, LegionError> {
        if let Some(e) = self.entries.read().get(text) {
            return Ok(Arc::clone(e));
        }
        let fresh =
            Arc::new(CacheEntry { query: Arc::new(parse_query(text)?), state: RwLock::new(None) });
        let mut entries = self.entries.write();
        // Only a new text at the cap flushes the map, not one a racing
        // thread inserted meanwhile.
        if entries.len() >= MAX_ENTRIES && !entries.contains_key(text) {
            entries.clear();
        }
        Ok(Arc::clone(entries.entry(text.to_string()).or_insert(fresh)))
    }

    /// The compiled form of `text`, parsed (and its regexes compiled)
    /// once per distinct text rather than once per placement attempt.
    pub(crate) fn compiled(&self, text: &str) -> Result<Arc<Query>, LegionError> {
        Ok(Arc::clone(&self.entry(text)?.query))
    }

    /// Serves the candidate set for the query `text`. Falls back to a
    /// plain query when derived attributes are installed (materialized
    /// views cannot be patched from the delta log). Every cached serve
    /// is accounted on the
    /// Collection as one query — hit and patched serves via
    /// [`Collection::note_cache_serve`], full recomputes via the query
    /// path itself with a `cache: miss` span attribute — so
    /// ledger↔trace reconciliation stays exact.
    pub(crate) fn serve(
        &self,
        collection: &Collection,
        text: &str,
    ) -> Result<Arc<Vec<Candidate>>, LegionError> {
        let entry = self.entry(text)?;
        let query = &*entry.query;
        if collection.has_derived() {
            return Ok(Arc::new(compute(collection, query, false)));
        }
        let epoch = collection.epoch();
        {
            let state = entry.state.read();
            if let Some(set) = state.as_ref() {
                if set.epoch == epoch {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    collection.note_cache_serve("hit", set.candidates.len(), 0);
                    return Ok(Arc::clone(&set.candidates));
                }
            }
        }

        let mut state = entry.state.write();
        // Another thread may have refreshed while we waited for the
        // write lock; revalidate before doing any work.
        let epoch = collection.epoch();
        if let Some(set) = state.as_mut() {
            if set.epoch == epoch {
                self.hits.fetch_add(1, Ordering::Relaxed);
                collection.note_cache_serve("hit", set.candidates.len(), 0);
                return Ok(Arc::clone(&set.candidates));
            }
            match collection.deltas_since(set.epoch.delta_seq) {
                DeltaBatch::Ops(ops) if ops.len() <= patch_budget(collection.len()) => {
                    let newest = ops.last().map_or(set.epoch.delta_seq, |d| d.seq);
                    let list = Arc::make_mut(&mut set.candidates);
                    let reads = query.reads() | AttrMask::of(well_known::COMPATIBLE_VAULTS);
                    let mut reevaluated = 0u64;
                    for delta in ops {
                        apply_delta(list, query, reads, delta.op, &mut reevaluated);
                    }
                    self.patched.fetch_add(1, Ordering::Relaxed);
                    collection.note_cache_serve("patched", list.len(), reevaluated);
                    set.epoch = CollectionEpoch { generation: epoch.generation, delta_seq: newest };
                    return Ok(Arc::clone(&set.candidates));
                }
                DeltaBatch::Gap { .. } => {
                    self.gap_resyncs.fetch_add(1, Ordering::Relaxed);
                }
                // UpToDate despite an epoch mismatch (deltas off, log
                // enabled after we cached, or a derived function was
                // installed) and oversized batches both fall through to
                // the full recompute below.
                _ => {}
            }
        }

        self.misses.fetch_add(1, Ordering::Relaxed);
        let candidates = Arc::new(compute(collection, query, true));
        *state = Some(CachedSet { epoch, candidates: Arc::clone(&candidates) });
        Ok(candidates)
    }
}

/// Runs the query and materializes candidates — the shared recompute
/// path (`as_miss` labels the trace span when the cache fell through).
fn compute(collection: &Collection, query: &Query, as_miss: bool) -> Vec<Candidate> {
    let records = if as_miss {
        collection.query_parsed_cache_miss(query)
    } else {
        collection.query_parsed(query)
    };
    records.into_iter().map(Candidate::from_record).collect()
}

/// Applies one logged change to a member-sorted candidate list.
///
/// `reads` is what a candidate depends on: the names the query reads
/// ([`Query::reads`]) and the vault list [`Candidate::from_record`]
/// parses. An `Upsert` that changed any of them re-evaluates the
/// predicate against the post-change record it carries and, on a
/// match, builds the candidate around that same shared record. One
/// that changed none of them — a reassessed host's load under a query
/// on architecture and OS — is handled like a `Touch`: the candidate,
/// if the member has one, is re-pointed to the new record and keeps
/// its vault list, since neither the verdict nor the vaults can have
/// moved. `Remove` is a plain delete. All of these are idempotent, and
/// the last op that changed what the query reads still decides
/// membership, which is what makes replaying from a conservative
/// anchor safe.
fn apply_delta(
    list: &mut Vec<Candidate>,
    query: &Query,
    reads: AttrMask,
    op: DeltaOp,
    reevaluated: &mut u64,
) {
    match op {
        DeltaOp::Upsert { record, changed } if changed.intersects(reads) => {
            *reevaluated += 1;
            let pos = list.binary_search_by_key(&record.member, |c| c.host);
            if query.matches(&record.attrs) {
                let cand = Candidate::from_record(record);
                match pos {
                    Ok(i) => list[i] = cand,
                    Err(i) => list.insert(i, cand),
                }
            } else if let Ok(i) = pos {
                list.remove(i);
            }
        }
        DeltaOp::Upsert { record, .. } | DeltaOp::Touch(record) => {
            if let Ok(i) = list.binary_search_by_key(&record.member, |c| c.host) {
                list[i].record = record;
            }
        }
        DeltaOp::Remove { member } => {
            if let Ok(i) = list.binary_search_by_key(&member, |c| c.host) {
                list.remove(i);
            }
        }
    }
}
