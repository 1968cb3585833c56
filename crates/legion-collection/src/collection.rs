//! The Collection service object (Fig. 4).
//!
//! ```text
//! int JoinCollection(LOID joiner);
//! int JoinCollection(LOID joiner, LinkedList<Uval ObjAttribute>);
//! int LeaveCollection(LegionLOID leaver);
//! int QueryCollection(String Query, &CollectionData result);
//! int UpdateCollectionEntry(LOID member, LinkedList<Uval ObjAttribute>);
//! ```
//!
//! Join and update form the *push* model; the
//! [`DataCollectionDaemon`](crate::daemon::DataCollectionDaemon)
//! implements *pull*. Updates are authenticated: joining yields a
//! [`MemberCredential`] (a keyed tag under the collection's secret) that
//! must accompany updates and leaves — "The security facilities of
//! Legion authenticate the caller to be sure that it is allowed to update
//! the data in the Collection" (§3.2).
//!
//! # One store
//!
//! Records and their secondary indexes live in one store behind one
//! lock, so the two can never drift apart and every attribute value is
//! interned once, its id posted once under each distinct trigram. Each
//! member holds a `u32` index slot from join to leave, kept beside its
//! record, and the indexes post slots rather than `Loid`s. Concurrency
//! lives in virtual time on one event queue; the lock only lets callers
//! share the collection through an `Arc`. Every multi-record result is
//! in member order as it is built: the record map walks in member
//! order, every index lookup maps its slots back to members and sorts
//! them once, and every intersection and union of lookups keeps that
//! order, so the store sorts no result after the fact.

use crate::delta::{ChangeLog, DeltaBatch, DeltaOp};
use crate::index::AttributeIndexes;
use crate::inject::DerivedAttribute;
use crate::planner;
use crate::query::{parse_query, Query};
use crate::record::CollectionRecord;
use legion_core::hash::KeyedTag;
use legion_core::{AttrMask, AttrValue, AttributeDb, LegionError, Loid, LoidKind, SimTime, SpanKind};
use legion_fabric::MetricsLedger;
use legion_trace::TraceSink;
use parking_lot::{Mutex, RwLock};
use std::collections::{btree_map, BTreeMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The records plus the secondary indexes over them, under one lock so
/// the two can never drift apart.
///
/// Every write that can change attributes goes through `insert`,
/// `remove` or `mutate_attrs`, and each keeps the indexes in step with
/// one [`AttributeIndexes::reindex`] from the outgoing record's
/// attributes to the incoming one's (none for a new member or a
/// departure). A rewrite therefore costs the attributes that changed,
/// not the attributes the record has. A touch only re-points the
/// snapshot and leaves the indexes alone.
#[derive(Default)]
struct Store {
    /// Member → shared record snapshot and the member's index slot.
    /// Queries clone the `Arc`, not the record, so results share
    /// structure with the store — and so do the change log and the
    /// candidate caches. A stored snapshot is therefore immutable: an
    /// attribute change installs a freshly built record, and only
    /// [`Collection::touch`] edits in place (`Arc::make_mut`, copying
    /// when anyone else holds it).
    records: BTreeMap<Loid, Stored>,
    /// Per-attribute string/trigram/numeric/presence indexes over member
    /// slots, maintained incrementally on every join/update/replace/
    /// leave/evict.
    indexes: AttributeIndexes,
}

/// One member's entry in the store.
struct Stored {
    record: Arc<CollectionRecord>,
    /// The member's slot in the indexes, held from join to leave.
    slot: u32,
}

impl Store {
    /// Installs `record` as its member's snapshot. A member already
    /// present — a daemon's first join of a host another daemon
    /// described — is re-indexed from its outgoing record, so only the
    /// attributes that differ move.
    fn insert(&mut self, record: Arc<CollectionRecord>) {
        match self.records.entry(record.member) {
            btree_map::Entry::Occupied(mut entry) => {
                let stored = entry.get_mut();
                self.indexes.reindex(stored.slot, &stored.record.attrs, &record.attrs);
                stored.record = record;
            }
            btree_map::Entry::Vacant(entry) => {
                let slot = self.indexes.join(record.member, &record.attrs);
                entry.insert(Stored { record, slot });
            }
        }
    }

    fn remove(&mut self, member: Loid) -> Option<Arc<CollectionRecord>> {
        let Stored { record, slot } = self.records.remove(&member)?;
        self.indexes.leave(slot, &record.attrs);
        Some(record)
    }

    /// `member`'s record.
    fn get(&self, member: &Loid) -> Option<&Arc<CollectionRecord>> {
        self.records.get(member).map(|stored| &stored.record)
    }

    /// Every record, in member order.
    fn all(&self) -> impl Iterator<Item = &Arc<CollectionRecord>> {
        self.records.values().map(|stored| &stored.record)
    }

    /// Installs the snapshot that succeeds `member`'s current one —
    /// `next` builds its attributes from the outgoing ones — and
    /// re-indexes only the attributes whose value differs between the
    /// two (`update` and `replace`; a pull of a reassessed host moves
    /// its load, free memory, draining flag and object count). Returns
    /// the installed snapshot and the mask of the names that differ
    /// (for delta logging); holders of the outgoing snapshot keep it
    /// unchanged.
    fn mutate_attrs(
        &mut self,
        member: Loid,
        now: SimTime,
        next: impl FnOnce(&AttributeDb) -> AttributeDb,
    ) -> Result<(Arc<CollectionRecord>, AttrMask), LegionError> {
        let stored = self.records.get_mut(&member).ok_or(LegionError::NoSuchObject(member))?;
        let old = &stored.record;
        let rec = Arc::new(CollectionRecord {
            member,
            attrs: next(&old.attrs),
            joined_at: old.joined_at,
            updated_at: now,
        });
        let changed = self.indexes.reindex(stored.slot, &old.attrs, &rec.attrs);
        stored.record = Arc::clone(&rec);
        Ok((rec, changed))
    }
}

/// A cheap validity handle over the collection's contents: the store
/// generation (bumped on every mutation, including derived-attribute
/// installation) paired with the change log's newest sequence number.
///
/// Two equal epochs mean no mutation completed between the two reads,
/// so any result derived from the collection at the first epoch is
/// still exact at the second — the validation primitive behind the
/// scheduler-side candidate cache. Reading an epoch costs two atomic
/// loads; no store lock is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectionEpoch {
    /// Mutation counter; monotone, bumped under the store's write
    /// guard so it can never run behind a visible store change.
    pub generation: u64,
    /// Newest change-log sequence (0 while deltas are off).
    pub delta_seq: u64,
}

/// Proof of membership returned by `join`, required for updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberCredential {
    /// The member this credential authenticates.
    pub member: Loid,
    /// Keyed tag under the collection secret.
    pub tag: u64,
}

/// The Collection: a queryable repository of resource descriptions.
///
/// ```
/// use legion_collection::Collection;
/// use legion_core::{AttributeDb, Loid, LoidKind, SimTime};
///
/// let c = Collection::new(42);
/// let host = Loid::fresh(LoidKind::Host);
/// let cred = c.join_with(
///     host,
///     AttributeDb::new()
///         .with("host_os_name", "IRIX")
///         .with("host_os_version", "5.3")
///         .with("host_load", 0.2),
///     SimTime::ZERO,
/// );
///
/// // The paper's §3.2 query: IRIX 5.x hosts.
/// let hits = c
///     .query(r#"match($host_os_name, "IRIX") and match("5\..*", $host_os_version)"#)
///     .unwrap();
/// assert_eq!(hits.len(), 1);
///
/// // Push-model refresh requires the membership credential.
/// c.update(&cred, &AttributeDb::new().with("host_load", 0.9), SimTime::from_secs(30))
///     .unwrap();
/// assert!(c.query("$host_load > 0.5").unwrap().len() == 1);
/// ```
pub struct Collection {
    loid: Loid,
    secret: u64,
    store: RwLock<Store>,
    derived: RwLock<Vec<DerivedAttribute>>,
    metrics: RwLock<Option<Arc<MetricsLedger>>>,
    tracer: RwLock<Option<Arc<TraceSink>>>,
    /// Whether the change log is on — checked without the lock so the
    /// common (deltas-off) write path pays one relaxed load.
    deltas_on: AtomicBool,
    /// The bounded change log the candidate caches patch from. Locked
    /// *after* the store's write guard, always in that order.
    changelog: Mutex<Option<ChangeLog>>,
    /// Mutation counter backing [`Self::epoch`]; bumped while the
    /// store's write guard is held.
    generation: AtomicU64,
    /// The change log's newest sequence, copied on every push so
    /// `epoch()` never takes the changelog lock.
    delta_seq_hint: AtomicU64,
}

impl Collection {
    /// An empty collection whose credentials derive from `secret`.
    pub fn new(secret: u64) -> Arc<Self> {
        Arc::new(Collection {
            loid: Loid::fresh(LoidKind::Service),
            secret,
            store: RwLock::new(Store::default()),
            derived: RwLock::new(Vec::new()),
            metrics: RwLock::new(None),
            tracer: RwLock::new(None),
            deltas_on: AtomicBool::new(false),
            changelog: Mutex::new(None),
            generation: AtomicU64::new(0),
            delta_seq_hint: AtomicU64::new(0),
        })
    }

    /// This collection's identifier.
    pub fn loid(&self) -> Loid {
        self.loid
    }

    /// Attaches the fabric metrics ledger.
    pub fn set_metrics(&self, m: Arc<MetricsLedger>) {
        *self.metrics.write() = Some(m);
    }

    /// Attaches the fabric trace sink so query evaluations emit
    /// `collection_query` spans.
    pub fn set_tracer(&self, t: Arc<TraceSink>) {
        *self.tracer.write() = Some(t);
    }

    /// Turns on the incremental change log (capacity = retained
    /// deltas), letting a cache over this collection catch up through
    /// [`Self::deltas_since`] instead of re-running its query. Existing
    /// records are *not* retro-logged: a result computed before this
    /// call is re-computed, not patched.
    pub fn enable_deltas(&self, capacity: usize) {
        *self.changelog.lock() = Some(ChangeLog::new(capacity));
        self.delta_seq_hint.store(0, Ordering::Release);
        self.deltas_on.store(true, Ordering::Release);
    }

    /// The collection's current validity epoch. A cached result tagged
    /// with an epoch is exact for as long as `epoch()` returns an equal
    /// value; on mismatch, [`Self::deltas_since`] tells the holder what
    /// changed (or that it must recompute). Reads two atomics — safe to
    /// call on any hot path.
    pub fn epoch(&self) -> CollectionEpoch {
        CollectionEpoch {
            generation: self.generation.load(Ordering::Acquire),
            delta_seq: self.delta_seq_hint.load(Ordering::Acquire),
        }
    }

    /// Whether derived-attribute functions are installed. Query results
    /// then carry materialized views, so record-level caches must
    /// bypass themselves (the views depend on injected functions the
    /// delta log knows nothing about).
    pub fn has_derived(&self) -> bool {
        !self.derived.read().is_empty()
    }

    /// Bumps the mutation generation. MUST be called while still
    /// holding the store's write guard (or the derived write lock),
    /// so a reader that observes an unchanged generation can never have
    /// missed a completed mutation.
    fn bump_epoch(&self) {
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// The changes after `applied_seq`, for a cache to patch from;
    /// reports a gap when the bounded log has already dropped some of
    /// them.
    pub fn deltas_since(&self, applied_seq: u64) -> DeltaBatch {
        self.changelog.lock().as_ref().map_or(DeltaBatch::UpToDate, |l| l.since(applied_seq))
    }

    /// Appends to the change log if enabled. MUST be called while
    /// holding the store's write guard, so log order is consistent
    /// with store order.
    fn log_delta(&self, op: DeltaOp) {
        if !self.deltas_on.load(Ordering::Acquire) {
            return;
        }
        if let Some(log) = self.changelog.lock().as_mut() {
            let seq = log.push(op);
            self.delta_seq_hint.store(seq, Ordering::Release);
        }
    }

    fn bump(&self, f: impl FnOnce(&MetricsLedger)) {
        if let Some(m) = self.metrics.read().as_ref() {
            f(m);
        }
    }

    fn query_span(&self) -> legion_trace::SpanGuard {
        match self.tracer.read().as_ref() {
            Some(t) => t.span(SpanKind::CollectionQuery),
            None => legion_trace::SpanGuard::disabled(),
        }
    }

    fn credential_for(&self, member: Loid) -> MemberCredential {
        let mut t = KeyedTag::new(self.secret);
        t.write_u64(member.digest());
        MemberCredential { member, tag: t.finish() }
    }

    fn authenticate(&self, cred: &MemberCredential) -> Result<(), LegionError> {
        if *cred == self.credential_for(cred.member) {
            Ok(())
        } else {
            Err(LegionError::AuthFailed)
        }
    }

    /// `JoinCollection(LOID)` — joins with an empty record.
    pub fn join(&self, joiner: Loid, now: SimTime) -> MemberCredential {
        self.join_with(joiner, AttributeDb::new(), now)
    }

    /// `JoinCollection(LOID, attrs)` — joins with initial description.
    pub fn join_with(
        &self,
        joiner: Loid,
        attrs: AttributeDb,
        now: SimTime,
    ) -> MemberCredential {
        let rec = Arc::new(CollectionRecord::new(joiner, attrs, now));
        let mut store = self.store.write();
        store.insert(Arc::clone(&rec));
        self.log_delta(DeltaOp::Upsert { record: rec, changed: AttrMask::ALL });
        self.bump_epoch();
        drop(store);
        self.bump(|m| MetricsLedger::bump(&m.collection_updates));
        self.credential_for(joiner)
    }

    /// `LeaveCollection(LOID)`.
    pub fn leave(&self, cred: &MemberCredential) -> Result<(), LegionError> {
        self.authenticate(cred)?;
        if self.remove_logged(&mut self.store.write(), cred.member) {
            Ok(())
        } else {
            Err(LegionError::NoSuchObject(cred.member))
        }
    }

    /// Removes `member` from `store` (the caller holds its write guard)
    /// and logs the departure; false if it was not a member.
    fn remove_logged(&self, store: &mut Store, member: Loid) -> bool {
        if store.remove(member).is_none() {
            return false;
        }
        self.log_delta(DeltaOp::Remove { member });
        self.bump_epoch();
        true
    }

    /// `UpdateCollectionEntry(LOID, attrs)` — push-model refresh; merges
    /// `attrs` over the existing record.
    pub fn update(
        &self,
        cred: &MemberCredential,
        attrs: &AttributeDb,
        now: SimTime,
    ) -> Result<(), LegionError> {
        self.authenticate(cred)?;
        self.mutate_logged(cred.member, now, |old| {
            let mut merged = old.clone();
            merged.merge_from(attrs);
            merged
        })?;
        self.bump(|m| MetricsLedger::bump(&m.collection_updates));
        Ok(())
    }

    /// Replaces a record's attributes wholesale (pull-daemon refresh).
    ///
    /// The stored snapshot is the new record, whole; the indexes move
    /// only for the attributes whose value differs from the outgoing
    /// record's. A reassessed host re-indexes its load and free memory,
    /// not its name or vault list. A snapshot equal to the stored one is
    /// logged as a [`DeltaOp::Touch`], as [`Self::touch`] would log it,
    /// so a caller need not compare the two first.
    pub fn replace(
        &self,
        cred: &MemberCredential,
        attrs: AttributeDb,
        now: SimTime,
    ) -> Result<(), LegionError> {
        self.authenticate(cred)?;
        self.mutate_logged(cred.member, now, |_| attrs)?;
        self.bump(|m| MetricsLedger::bump(&m.collection_updates));
        Ok(())
    }

    fn mutate_logged(
        &self,
        member: Loid,
        now: SimTime,
        next: impl FnOnce(&AttributeDb) -> AttributeDb,
    ) -> Result<(), LegionError> {
        let mut store = self.store.write();
        let (record, changed) = store.mutate_attrs(member, now, next)?;
        self.log_delta(if changed.is_empty() {
            DeltaOp::Touch(record)
        } else {
            DeltaOp::Upsert { record, changed }
        });
        self.bump_epoch();
        Ok(())
    }

    /// Freshness bump without an attribute change: only `updated_at`
    /// moves and no index is rewritten. The bumped snapshot is logged as a
    /// [`DeltaOp::Touch`], which tells a cache to re-point to it without
    /// re-evaluating. A snapshot anyone else still holds — the log, a
    /// cache, a query result — is immutable, so the bump then lands on
    /// a copy of it.
    pub fn touch(&self, cred: &MemberCredential, now: SimTime) -> Result<(), LegionError> {
        self.authenticate(cred)?;
        let mut store = self.store.write();
        let stored =
            store.records.get_mut(&cred.member).ok_or(LegionError::NoSuchObject(cred.member))?;
        Arc::make_mut(&mut stored.record).updated_at = now;
        self.log_delta(DeltaOp::Touch(Arc::clone(&stored.record)));
        self.bump_epoch();
        drop(store);
        self.bump(|m| MetricsLedger::bump(&m.collection_updates));
        Ok(())
    }

    /// `QueryCollection(String, &result)` — parses and runs a query.
    pub fn query(&self, query: &str) -> Result<Vec<Arc<CollectionRecord>>, LegionError> {
        let q = parse_query(query)?;
        Ok(self.query_parsed(&q))
    }

    /// Runs a pre-compiled query (Schedulers reuse compiled queries).
    ///
    /// The engine first plans the query (see the `planner` module): when
    /// an indexable conjunct exists, the secondary indexes produce a
    /// sorted candidate list, conjuncts intersect by linear merge, and
    /// only surviving candidates are evaluated; otherwise
    /// every record is scanned. When the plan is *exact* (its candidate
    /// set provably equals the satisfying set — e.g. the paper's
    /// anchored-regex conjunction) and no derived attributes are
    /// installed, the residual re-evaluation is skipped entirely and
    /// hits are zero-copy `Arc` clones. Either way results are
    /// identical to [`Self::query_scan`] by construction (and by the
    /// proptest equivalence suite).
    ///
    /// A plan is only executed when its cheap cardinality estimate says
    /// it would narrow evaluation below half the records; the estimate
    /// is capped, and provably-unselective predicates (e.g.
    /// `$host_load >= 0.0`) answer from maintained totals without
    /// walking any index bucket before the engine routes them to the
    /// scan path.
    pub fn query_parsed(&self, query: &Query) -> Vec<Arc<CollectionRecord>> {
        self.query_parsed_inner(query, None)
    }

    /// [`Self::query_parsed`] with the emitted span's `cache` attribute
    /// set to `"miss"` — called by epoch-validated caches layered above
    /// the Collection when they fall through to a full recompute, so
    /// trace consumers can tell amortized serves from real query work.
    pub fn query_parsed_cache_miss(&self, query: &Query) -> Vec<Arc<CollectionRecord>> {
        self.query_parsed_inner(query, Some("miss"))
    }

    fn query_parsed_inner(
        &self,
        query: &Query,
        cache_label: Option<&'static str>,
    ) -> Vec<Arc<CollectionRecord>> {
        self.bump(|m| MetricsLedger::bump(&m.collection_queries));
        let span = self.query_span();
        if let Some(label) = cache_label {
            span.attr("cache", label);
        }
        let derived = self.derived.read();
        let store = self.store.read();
        let total = store.records.len();
        let is_derived = |name: &str| derived.iter().any(|d| d.name() == name);
        let hints_for = |pattern: &str| query.hints_for(pattern);
        let plan = planner::plan(query.expr(), &is_derived, &hints_for)
            .filter(|p| 2 * p.estimate(&store.indexes, total / 2 + 1) < total);
        let exact = plan.as_ref().is_some_and(|p| p.exact) && derived.is_empty();
        span.attr("indexed", plan.is_some());
        span.attr("exact", exact);
        let mut out = Vec::new();
        let mut scanned: u64 = 0;
        match plan {
            Some(plan) => {
                for member in plan.execute(&store.indexes) {
                    if let Some(rec) = store.get(&member) {
                        if exact {
                            out.push(Arc::clone(rec));
                        } else {
                            scanned += 1;
                            if let Some(hit) = eval_record(query, &derived, rec) {
                                out.push(hit);
                            }
                        }
                    }
                }
            }
            None => {
                scanned = total as u64;
                out.extend(store.all().filter_map(|rec| eval_record(query, &derived, rec)));
            }
        }
        self.bump(|m| MetricsLedger::bump_by(&m.collection_records_scanned, scanned));
        span.attr("scanned", scanned as i64);
        span.attr("hits", out.len() as i64);
        span.end_ok();
        out
    }

    /// Accounts for a query answered from a cache layered above the
    /// Collection (`label` is `"hit"` or `"patched"`). The serve still
    /// counts as one `collection_queries` tick and emits one
    /// `CollectionQuery` span — keeping the ledger↔trace reconciliation
    /// exact — but `scanned` reflects only the `reevaluated` changed
    /// records the cache actually re-examined (0 on a pure hit), so the
    /// scan counters stay an honest measure of evaluation work.
    pub fn note_cache_serve(&self, label: &'static str, hits: usize, reevaluated: u64) {
        self.bump(|m| MetricsLedger::bump(&m.collection_queries));
        if reevaluated > 0 {
            self.bump(|m| MetricsLedger::bump_by(&m.collection_records_scanned, reevaluated));
        }
        let span = self.query_span();
        span.attr("cache", label);
        span.attr("scanned", reevaluated as i64);
        span.attr("hits", hits as i64);
        span.end_ok();
    }

    /// Runs a pre-compiled query by scanning every record, ignoring the
    /// indexes. This is the reference implementation the planner must
    /// agree with; it is kept public for the equivalence test suite.
    pub fn query_scan(&self, query: &Query) -> Vec<Arc<CollectionRecord>> {
        self.bump(|m| MetricsLedger::bump(&m.collection_queries));
        let span = self.query_span();
        span.attr("indexed", false);
        let derived = self.derived.read();
        let store = self.store.read();
        let total = store.records.len();
        let out: Vec<_> = store.all().filter_map(|rec| eval_record(query, &derived, rec)).collect();
        self.bump(|m| MetricsLedger::bump_by(&m.collection_records_scanned, total as u64));
        span.attr("scanned", total as i64);
        span.attr("hits", out.len() as i64);
        span.end_ok();
        out
    }

    /// Returns every record (diagnostics; not part of Fig. 4), in
    /// member order.
    pub fn dump(&self) -> Vec<Arc<CollectionRecord>> {
        self.store.read().all().cloned().collect()
    }

    /// Reads one member's record.
    pub fn get(&self, member: Loid) -> Option<Arc<CollectionRecord>> {
        self.store.read().get(&member).cloned()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.store.read().records.len()
    }

    /// Whether the collection has no records.
    pub fn is_empty(&self) -> bool {
        self.store.read().records.is_empty()
    }

    /// Installs a derived-attribute function (function injection, §3.2).
    pub fn install_function(&self, f: DerivedAttribute) {
        let mut derived = self.derived.write();
        derived.push(f);
        // Derived functions change query results without touching any
        // record: epoch-validated caches must notice.
        self.bump_epoch();
    }

    /// Maximum staleness across records at `now`.
    pub fn max_staleness(&self, now: SimTime) -> legion_core::SimDuration {
        self.store
            .read()
            .all()
            .map(|r| r.staleness(now))
            .max()
            .unwrap_or(legion_core::SimDuration::ZERO)
    }

    /// Records refreshed within `ttl` of `now` (in member order), plus
    /// the count of stale records skipped.
    ///
    /// The closed-loop rebalancer plans only on fresh data (TTL-aware
    /// source selection): a record that has stopped refreshing is
    /// evidence of a crash or partition, not of load, and must not
    /// steer migrations. The skipped count is surfaced so sweeps can
    /// report how much of the fleet they were blind to.
    pub fn fresh_records(
        &self,
        now: SimTime,
        ttl: legion_core::SimDuration,
    ) -> (Vec<Arc<CollectionRecord>>, usize) {
        let store = self.store.read();
        let fresh: Vec<_> = store.all().filter(|r| r.staleness(now) <= ttl).cloned().collect();
        let stale = store.records.len() - fresh.len();
        (fresh, stale)
    }

    /// Convenience for members: read an attribute from a record.
    pub fn member_attr(&self, member: Loid, name: &str) -> Option<AttrValue> {
        self.store.read().get(&member).and_then(|r| r.attrs.get(name).cloned())
    }

    /// Evicts every record staler than `ttl` at `now`, returning the
    /// evicted members in member order.
    ///
    /// A crashed host cannot leave the Collection gracefully — it just
    /// falls silent, and without eviction its last description keeps
    /// matching Scheduler queries forever, steering placements at a dead
    /// machine. The TTL should comfortably exceed the pull-daemon sweep
    /// interval so live-but-slow members are not evicted by mistake.
    pub fn evict_stale(
        &self,
        now: SimTime,
        ttl: legion_core::SimDuration,
    ) -> Vec<Loid> {
        let mut store = self.store.write();
        let dead: Vec<Loid> =
            store.all().filter(|r| r.staleness(now) > ttl).map(|r| r.member).collect();
        for &member in &dead {
            self.remove_logged(&mut store, member);
            self.bump(|m| MetricsLedger::bump(&m.collection_evictions));
        }
        dead
    }
}

/// Evaluates one record against the query, extending its view with
/// derived attributes when any are installed.
///
/// Without derived attributes a hit is a zero-copy `Arc` clone of the
/// stored snapshot; with them, the extended view is materialized in a
/// fresh record (the only copy-on-write point on the query path).
fn eval_record(
    query: &Query,
    derived: &[DerivedAttribute],
    rec: &Arc<CollectionRecord>,
) -> Option<Arc<CollectionRecord>> {
    if derived.is_empty() {
        if query.matches(&rec.attrs) {
            Some(Arc::clone(rec))
        } else {
            None
        }
    } else {
        // Function injection: extend the record view with derived
        // attributes before evaluation, and return the extended view so
        // Schedulers can read forecasts too.
        let mut view = rec.attrs.clone();
        for d in derived.iter() {
            if let Some((name, value)) = d.compute(rec.member, &view) {
                view.set(name, value);
            }
        }
        if query.matches(&view) {
            Some(Arc::new(rec.with_attrs(view)))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host_attrs(os: &str, load: f64) -> AttributeDb {
        AttributeDb::new().with("host_os_name", os).with("host_load", load)
    }

    fn l(seq: u64) -> Loid {
        Loid::synthetic(LoidKind::Host, seq)
    }

    #[test]
    fn join_query_roundtrip() {
        let c = Collection::new(42);
        c.join_with(l(1), host_attrs("IRIX", 0.2), SimTime::ZERO);
        c.join_with(l(2), host_attrs("Linux", 0.9), SimTime::ZERO);
        let rs = c.query(r#"match($host_os_name, "IRIX")"#).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].member, l(1));
    }

    #[test]
    fn update_requires_credential() {
        let c = Collection::new(42);
        let cred = c.join_with(l(1), host_attrs("IRIX", 0.2), SimTime::ZERO);
        // Forged credential (wrong tag) is rejected.
        let forged = MemberCredential { member: l(1), tag: cred.tag ^ 1 };
        assert!(matches!(
            c.update(&forged, &host_attrs("IRIX", 0.9), SimTime::ZERO),
            Err(LegionError::AuthFailed)
        ));
        // Genuine credential works and merges.
        c.update(&cred, &AttributeDb::new().with("host_load", 0.9), SimTime::from_secs(5))
            .unwrap();
        let rec = c.get(l(1)).unwrap();
        assert_eq!(rec.attrs.get_f64("host_load"), Some(0.9));
        assert_eq!(rec.attrs.get_str("host_os_name"), Some("IRIX")); // merge kept it
        assert_eq!(rec.updated_at, SimTime::from_secs(5));
    }

    #[test]
    fn credential_does_not_transfer_between_members() {
        let c = Collection::new(42);
        let cred1 = c.join(l(1), SimTime::ZERO);
        c.join(l(2), SimTime::ZERO);
        let cross = MemberCredential { member: l(2), tag: cred1.tag };
        assert!(matches!(
            c.update(&cross, &AttributeDb::new(), SimTime::ZERO),
            Err(LegionError::AuthFailed)
        ));
    }

    #[test]
    fn leave_removes_record() {
        let c = Collection::new(42);
        let cred = c.join(l(1), SimTime::ZERO);
        assert_eq!(c.len(), 1);
        c.leave(&cred).unwrap();
        assert!(c.is_empty());
        assert!(matches!(c.leave(&cred), Err(LegionError::NoSuchObject(_))));
    }

    #[test]
    fn bad_query_is_reported() {
        let c = Collection::new(42);
        assert!(matches!(c.query("$a >"), Err(LegionError::BadQuery(_))));
    }

    #[test]
    fn staleness_tracked() {
        let c = Collection::new(42);
        let cred = c.join(l(1), SimTime::ZERO);
        c.replace(&cred, AttributeDb::new(), SimTime::from_secs(10)).unwrap();
        assert_eq!(
            c.max_staleness(SimTime::from_secs(25)),
            legion_core::SimDuration::from_secs(15)
        );
    }

    #[test]
    fn stale_records_age_out() {
        use legion_core::SimDuration;
        let c = Collection::new(42);
        let cred1 = c.join_with(l(1), host_attrs("IRIX", 0.2), SimTime::ZERO);
        c.join_with(l(2), host_attrs("Linux", 0.5), SimTime::ZERO);
        // Only member 1 keeps reporting.
        c.update(&cred1, &AttributeDb::new().with("host_load", 0.3), SimTime::from_secs(90))
            .unwrap();
        let evicted = c.evict_stale(SimTime::from_secs(120), SimDuration::from_secs(60));
        assert_eq!(evicted, vec![l(2)]);
        assert_eq!(c.len(), 1);
        assert!(c.get(l(1)).is_some());
        // Nothing else is stale: a second sweep is a no-op.
        assert!(c.evict_stale(SimTime::from_secs(120), SimDuration::from_secs(60)).is_empty());
    }

    #[test]
    fn derived_attributes_visible_to_queries() {
        let c = Collection::new(42);
        c.join_with(l(1), host_attrs("IRIX", 0.4), SimTime::ZERO);
        c.install_function(DerivedAttribute::new("host_load_doubled", |_, attrs| {
            attrs.get_f64("host_load").map(|v| AttrValue::Float(v * 2.0))
        }));
        let rs = c.query("$host_load_doubled == 0.8").unwrap();
        assert_eq!(rs.len(), 1);
        // The returned view carries the derived value.
        assert_eq!(rs[0].attrs.get_f64("host_load_doubled"), Some(0.8));
    }

    #[test]
    fn touch_bumps_freshness_without_changing_attrs() {
        let c = Collection::new(42);
        let cred = c.join_with(l(1), host_attrs("IRIX", 0.2), SimTime::ZERO);
        c.touch(&cred, SimTime::from_secs(9)).unwrap();
        let rec = c.get(l(1)).unwrap();
        assert_eq!(rec.updated_at, SimTime::from_secs(9));
        assert_eq!(rec.attrs.get_str("host_os_name"), Some("IRIX"));
        // Indexes still serve the untouched attributes.
        assert_eq!(c.query(r#"$host_os_name == "IRIX""#).unwrap().len(), 1);
        // Touch is authenticated like any other update.
        let forged = MemberCredential { member: l(1), tag: cred.tag ^ 1 };
        assert!(matches!(c.touch(&forged, SimTime::ZERO), Err(LegionError::AuthFailed)));
        // Touching a departed member reports it.
        c.leave(&cred).unwrap();
        assert!(matches!(
            c.touch(&cred, SimTime::from_secs(10)),
            Err(LegionError::NoSuchObject(_))
        ));
    }

    #[test]
    fn delta_log_records_membership_changes() {
        use crate::delta::{DeltaBatch, DeltaOp};
        let c = Collection::new(42);
        c.enable_deltas(16);
        let cred = c.join_with(l(1), host_attrs("IRIX", 0.2), SimTime::ZERO);
        c.touch(&cred, SimTime::from_secs(1)).unwrap();
        c.leave(&cred).unwrap();
        assert_eq!(c.epoch().delta_seq, 3);
        let DeltaBatch::Ops(ops) = c.deltas_since(0) else { panic!("expected ops") };
        assert!(matches!(&ops[0].op, DeltaOp::Upsert { record, changed }
            if record.member == l(1) && *changed == AttrMask::ALL));
        assert!(matches!(&ops[1].op, DeltaOp::Touch(rec) if rec.member == l(1)));
        assert!(matches!(ops[2].op, DeltaOp::Remove { member } if member == l(1)));
        assert_eq!(c.deltas_since(3), DeltaBatch::UpToDate);
    }

    #[test]
    fn an_upsert_names_the_attributes_it_changed() {
        use crate::delta::{DeltaBatch, DeltaOp};
        let c = Collection::new(42);
        c.enable_deltas(16);
        let cred = c.join_with(l(1), host_attrs("IRIX", 0.2), SimTime::ZERO);
        let t = SimTime::from_secs(1);
        c.replace(&cred, host_attrs("IRIX", 0.7), t).unwrap();
        c.update(&cred, &AttributeDb::new().with("site_tag", "a"), t).unwrap();
        c.update(&cred, &AttributeDb::new().with("host_load", 0.7), t).unwrap();
        let DeltaBatch::Ops(ops) = c.deltas_since(1) else { panic!("expected ops") };
        // A write that changed nothing is logged as the touch it is.
        let changed: Vec<Option<AttrMask>> = ops
            .iter()
            .map(|d| match &d.op {
                DeltaOp::Upsert { changed, .. } => Some(*changed),
                DeltaOp::Touch(_) => None,
                op => panic!("expected an upsert or a touch, got {op:?}"),
            })
            .collect();
        let (load, site) = (AttrMask::of("host_load"), AttrMask::of("site_tag"));
        assert_eq!(changed, [Some(load), Some(site), None]);
    }
}
