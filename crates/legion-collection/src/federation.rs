//! Federated Collections — one repository per administrative domain.
//!
//! The paper consistently speaks of Collections in the plural: a Host
//! "will then deposit information into its known Collection(s)" (§3.1).
//! At metacomputing scale a single flat repository cannot work — each
//! administrative domain runs its own Collection, and Schedulers query
//! a *federation* that fans the query out and merges the results.
//!
//! [`FederatedCollection`] implements that pattern: member Collections
//! are registered with a label (usually the domain name); queries
//! compile once and evaluate against every member; results carry their
//! origin so Schedulers can weigh locality.
//!
//! A federated query reuses the compiled [`Query`] — and, through each
//! member's [`Collection::query_parsed`], the index planner — per
//! member: each domain plans the same AST against its own indexes (and
//! its own set of injected derived attributes), so a selective query
//! stays sublinear in every domain it fans out to. Hits are `Arc`
//! snapshots shared with the member Collections, not deep copies.
//!
//! # Push-updated members
//!
//! A remote domain's Collection can be federated *by mirror* instead of
//! by direct reference: [`FederatedCollection::add_push_member`] keeps a
//! local mirror that synchronizes through the source's incremental
//! change log (see [`crate::delta`]) rather than periodic full pulls.
//! Each [`FederatedCollection::push_sync`] ships only the deltas since
//! the mirror's per-link applied sequence number; a link that fell
//! further behind than the source's log capacity detects the sequence
//! gap and full-resyncs from an atomic snapshot. Links whose source
//! domain is partitioned from the mirror's domain (per the attached
//! fabric) are skipped — their mirrored records then age out through
//! the ordinary TTL eviction, exactly like a silent pull target.

use crate::collection::Collection;
use crate::delta::{DeltaBatch, DeltaOp};
use crate::query::{parse_query, Query};
use crate::record::CollectionRecord;
use legion_core::{LegionError, Loid, SimTime};
use legion_fabric::Fabric;
use parking_lot::RwLock;
use std::sync::Arc;

/// A source→mirror delta-replication link.
struct PushLink {
    source: Arc<Collection>,
    mirror: Arc<Collection>,
    /// Newest source delta sequence the mirror has applied.
    applied_seq: u64,
}

/// What one [`FederatedCollection::push_sync`] sweep did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PushSyncReport {
    /// Individual delta operations applied across all links.
    pub applied_ops: usize,
    /// Links that detected a sequence gap and full-resynced.
    pub resyncs: usize,
    /// Links that were already up to date.
    pub up_to_date: usize,
    /// Links skipped because source and mirror domains are partitioned.
    pub skipped_partitioned: usize,
}

/// A queryable federation of per-domain Collections.
pub struct FederatedCollection {
    members: RwLock<Vec<(String, Arc<Collection>)>>,
    push_links: RwLock<Vec<PushLink>>,
    fabric: RwLock<Option<Arc<Fabric>>>,
}

/// A federated query hit: the record plus which member produced it.
#[derive(Debug, Clone)]
pub struct FederatedRecord {
    /// The label of the member Collection (usually a domain name).
    pub origin: String,
    /// The record — a snapshot shared with the owning Collection.
    pub record: Arc<CollectionRecord>,
}

impl FederatedCollection {
    /// An empty federation.
    pub fn new() -> Arc<Self> {
        Arc::new(FederatedCollection::default())
    }

    /// Adds a member Collection under `label`.
    pub fn add_member(&self, label: impl Into<String>, collection: Arc<Collection>) {
        self.members.write().push((label.into(), collection));
    }

    /// Attaches the fabric so push links honor domain partitions: a
    /// link whose source is partitioned from its mirror is skipped by
    /// [`Self::push_sync`] until the partition heals.
    pub fn attach_fabric(&self, fabric: Arc<Fabric>) {
        *self.fabric.write() = Some(fabric);
    }

    /// Federates `source` by local mirror with incremental push
    /// replication. The source must have its change log enabled
    /// ([`Collection::enable_deltas`]); the link starts from a full
    /// atomic snapshot and thereafter applies only deltas on each
    /// [`Self::push_sync`]. Queries against the federation hit the
    /// mirror, never the (possibly remote, possibly partitioned)
    /// source. Returns the mirror so callers can place it in a fabric
    /// domain or run TTL eviction on it.
    pub fn add_push_member(
        &self,
        label: impl Into<String>,
        source: Arc<Collection>,
    ) -> Arc<Collection> {
        let mirror = Collection::new(source.loid().digest());
        let (records, seq) = source.snapshot_with_seq();
        mirror.replace_all(records);
        self.members.write().push((label.into(), Arc::clone(&mirror)));
        self.push_links.write().push(PushLink {
            source,
            mirror: Arc::clone(&mirror),
            applied_seq: seq,
        });
        mirror
    }

    /// Synchronizes every push link: ships and applies the deltas since
    /// each link's applied sequence, full-resyncing any link whose
    /// source log has already dropped deltas it needs (the gap path),
    /// and skipping links across a partition. `UpToDate` links cost one
    /// sequence comparison — no records move when nothing changed.
    pub fn push_sync(&self) -> PushSyncReport {
        let fabric = self.fabric.read().clone();
        let mut report = PushSyncReport::default();
        for link in self.push_links.write().iter_mut() {
            if let Some(f) = fabric.as_ref() {
                let a = f.domain_of(link.source.loid());
                let b = f.domain_of(link.mirror.loid());
                if f.is_partitioned(a, b) {
                    report.skipped_partitioned += 1;
                    continue;
                }
            }
            match link.source.deltas_since(link.applied_seq) {
                DeltaBatch::UpToDate => report.up_to_date += 1,
                DeltaBatch::Ops(ops) => {
                    for delta in ops {
                        match delta.op {
                            DeltaOp::Upsert(rec) => link.mirror.apply_upsert(rec),
                            DeltaOp::Touch(rec) => link.mirror.apply_touch(rec),
                            DeltaOp::Remove { member } => link.mirror.apply_remove(member),
                        }
                        link.applied_seq = delta.seq;
                        report.applied_ops += 1;
                    }
                }
                DeltaBatch::Gap { .. } => {
                    let (records, seq) = link.source.snapshot_with_seq();
                    link.mirror.replace_all(records);
                    link.applied_seq = seq;
                    report.resyncs += 1;
                }
            }
        }
        report
    }

    /// TTL-evicts stale records from every member (mirrors included):
    /// records a partitioned or silent source stopped refreshing age
    /// out of federated query results just as they would from a
    /// directly-pulled Collection. Returns `(label, evicted)` per
    /// member that lost records.
    pub fn evict_stale(
        &self,
        now: SimTime,
        ttl: legion_core::SimDuration,
    ) -> Vec<(String, Vec<Loid>)> {
        let members = self.members.read();
        let mut out = Vec::new();
        for (label, c) in members.iter() {
            let evicted = c.evict_stale(now, ttl);
            if !evicted.is_empty() {
                out.push((label.clone(), evicted));
            }
        }
        out
    }

    /// Number of member Collections.
    pub fn member_count(&self) -> usize {
        self.members.read().len()
    }

    /// Total records across the federation.
    pub fn len(&self) -> usize {
        self.members.read().iter().map(|(_, c)| c.len()).sum()
    }

    /// Whether the federation holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queries every member with a single compiled query; results are in
    /// member order then record order, tagged with their origin.
    pub fn query(&self, query: &str) -> Result<Vec<FederatedRecord>, LegionError> {
        let q = parse_query(query)?;
        Ok(self.query_parsed(&q))
    }

    /// As [`Self::query`] over a pre-compiled query.
    pub fn query_parsed(&self, query: &Query) -> Vec<FederatedRecord> {
        let members = self.members.read();
        let mut out = Vec::new();
        for (label, c) in members.iter() {
            for record in c.query_parsed(query) {
                out.push(FederatedRecord { origin: label.clone(), record });
            }
        }
        out
    }

    /// Queries only the named member (locality-aware Schedulers ask
    /// their own domain first).
    pub fn query_member(
        &self,
        label: &str,
        query: &str,
    ) -> Result<Vec<Arc<CollectionRecord>>, LegionError> {
        let members = self.members.read();
        let (_, c) = members
            .iter()
            .find(|(l, _)| l == label)
            .ok_or_else(|| LegionError::Other(format!("no member collection `{label}`")))?;
        c.query(query)
    }

    /// Finds the member holding a record for `member_loid`.
    pub fn locate(&self, member_loid: Loid) -> Option<String> {
        self.members
            .read()
            .iter()
            .find(|(_, c)| c.get(member_loid).is_some())
            .map(|(l, _)| l.clone())
    }
}

impl Default for FederatedCollection {
    fn default() -> Self {
        FederatedCollection {
            members: RwLock::new(Vec::new()),
            push_links: RwLock::new(Vec::new()),
            fabric: RwLock::new(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_core::{AttributeDb, LoidKind, SimTime};

    fn domain_collection(domain: &str, hosts: u64, base_seq: u64) -> Arc<Collection> {
        let c = Collection::new(base_seq);
        for i in 0..hosts {
            c.join_with(
                Loid::synthetic(LoidKind::Host, base_seq + i),
                AttributeDb::new()
                    .with("host_domain", domain)
                    .with("host_os_name", if i % 2 == 0 { "IRIX" } else { "Linux" })
                    .with("host_load", i as f64 / 10.0),
                SimTime::ZERO,
            );
        }
        c
    }

    fn federation() -> Arc<FederatedCollection> {
        let f = FederatedCollection::new();
        f.add_member("uva.edu", domain_collection("uva.edu", 3, 100));
        f.add_member("sdsc.edu", domain_collection("sdsc.edu", 4, 200));
        f
    }

    #[test]
    fn fans_out_and_tags_origin() {
        let f = federation();
        assert_eq!(f.member_count(), 2);
        assert_eq!(f.len(), 7);
        let hits = f.query(r#"match($host_os_name, "IRIX")"#).unwrap();
        assert_eq!(hits.len(), 2 + 2); // ceil(3/2) + ceil(4/2)
        assert!(hits.iter().any(|h| h.origin == "uva.edu"));
        assert!(hits.iter().any(|h| h.origin == "sdsc.edu"));
    }

    #[test]
    fn member_scoped_query() {
        let f = federation();
        let hits = f.query_member("uva.edu", "$host_load >= 0.0").unwrap();
        assert_eq!(hits.len(), 3);
        assert!(f.query_member("nowhere.org", "true").is_err());
    }

    #[test]
    fn locate_finds_the_owning_member() {
        let f = federation();
        assert_eq!(
            f.locate(Loid::synthetic(LoidKind::Host, 201)).as_deref(),
            Some("sdsc.edu")
        );
        assert_eq!(f.locate(Loid::synthetic(LoidKind::Host, 999)), None);
    }

    #[test]
    fn compiled_query_reused_across_members() {
        let f = federation();
        let q = parse_query("$host_load < 0.15").unwrap();
        let hits = f.query_parsed(&q);
        // loads are i/10: members contribute i ∈ {0, 1} each.
        assert_eq!(hits.len(), 4);
    }

    #[test]
    fn bad_query_reported_once() {
        let f = federation();
        assert!(matches!(f.query("$x >"), Err(LegionError::BadQuery(_))));
    }

    #[test]
    fn push_member_mirrors_incrementally() {
        let source = Collection::new(7);
        source.enable_deltas(64);
        let c1 = source.join_with(
            Loid::synthetic(LoidKind::Host, 1),
            AttributeDb::new().with("host_os_name", "IRIX"),
            SimTime::ZERO,
        );
        let f = FederatedCollection::new();
        let mirror = f.add_push_member("remote.edu", Arc::clone(&source));
        // Initial snapshot already present, link up to date.
        assert_eq!(mirror.dump(), source.dump());
        assert_eq!(f.push_sync(), PushSyncReport { up_to_date: 1, ..Default::default() });
        // Incremental: one update ships one op, not a full pull.
        source
            .update(&c1, &AttributeDb::new().with("host_load", 0.4), SimTime::from_secs(5))
            .unwrap();
        let report = f.push_sync();
        assert_eq!(report.applied_ops, 1);
        assert_eq!(report.resyncs, 0);
        assert_eq!(mirror.dump(), source.dump());
        // Federated queries answer from the mirror.
        assert_eq!(f.query("$host_load > 0.3").unwrap().len(), 1);
    }

    #[test]
    fn push_member_gap_forces_full_resync() {
        let source = Collection::new(7);
        source.enable_deltas(2); // tiny log: easy to overflow
        let f = FederatedCollection::new();
        let mirror = f.add_push_member("remote.edu", Arc::clone(&source));
        // More changes than the log retains → the link is gapped.
        for i in 0..10u64 {
            source.join_with(
                Loid::synthetic(LoidKind::Host, i),
                AttributeDb::new().with("host_load", i as f64),
                SimTime::from_secs(i),
            );
        }
        let report = f.push_sync();
        assert_eq!(report.resyncs, 1);
        assert_eq!(report.applied_ops, 0);
        assert_eq!(mirror.dump(), source.dump());
        // Caught up: the next sweep is a no-op.
        assert_eq!(f.push_sync(), PushSyncReport { up_to_date: 1, ..Default::default() });
    }
}
