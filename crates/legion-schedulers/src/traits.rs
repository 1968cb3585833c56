//! The Scheduler interface and shared candidate discovery.

use crate::cache::{CandidateCache, CandidateCacheStats};
use legion_collection::{Collection, CollectionRecord, Query};
use legion_core::host::well_known;
use legion_core::{ClassReport, ClassRequest, LegionError, Loid, PlacementRequest};
use legion_fabric::Fabric;
use legion_schedule::{Mapping, ScheduleRequest, ScheduleRequestList, VariantSchedule};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use std::str::FromStr;
use std::sync::Arc;

/// What a Scheduler sees: the Collection to query, the fabric for class
/// reports, and a deterministic seed.
pub struct SchedCtx {
    /// The fabric (class lookups, clock, metrics).
    pub fabric: Arc<Fabric>,
    /// The Collection to query for resource descriptions.
    pub collection: Arc<Collection>,
    /// Per query text, the compiled query and its epoch-validated
    /// usable candidate pool (see [`crate::cache`]); shared by every
    /// scheduler and thread holding this context.
    candidates: CandidateCache,
}

impl SchedCtx {
    /// Creates a context with an empty candidate cache.
    pub fn new(fabric: Arc<Fabric>, collection: Arc<Collection>) -> Self {
        SchedCtx { fabric, collection, candidates: CandidateCache::new() }
    }

    /// How the candidate cache has been serving (hits / patched /
    /// misses / gap resyncs).
    pub fn candidate_cache_stats(&self) -> CandidateCacheStats {
        self.candidates.stats()
    }

    /// Compiles `text` once and keeps it beside its candidate pool;
    /// repeated placement attempts reuse the compiled [`Query`] via
    /// [`Collection::query_parsed`].
    pub fn compiled_query(&self, text: &str) -> Result<Arc<Query>, LegionError> {
        self.candidates.compiled(text)
    }

    /// Reads a class's report ("any Scheduler may query the object
    /// classes", §3.3).
    pub fn class_report(&self, class: Loid) -> Result<ClassReport, LegionError> {
        self.fabric
            .lookup_class(class)
            .map(|c| c.report())
            .ok_or(LegionError::NoSuchObject(class))
    }

    /// Fig. 7's first two steps: "query the class for available
    /// implementations; query Collection for Hosts matching available
    /// implementations" — plus an optional extra constraint from the
    /// placement request — served through the epoch-validated candidate
    /// cache. The returned set is shared (an `Arc` clone on a hit, no
    /// per-record work at all), exact at the Collection epoch it was
    /// validated against, and sorted by member like every Collection
    /// query result; policies place on its [`Candidate::usable`] members.
    pub fn shared_candidates_for(
        &self,
        report: &ClassReport,
        extra_constraint: Option<&str>,
    ) -> Result<Arc<Vec<Candidate>>, LegionError> {
        let mut q = String::new();
        if report.implementations.is_empty() {
            return Err(LegionError::NoUsableImplementation { class: report.class });
        }
        q.push('(');
        for (i, imp) in report.implementations.iter().enumerate() {
            if i > 0 {
                q.push_str(" or ");
            }
            q.push_str(&format!(
                r#"($host_arch == "{}" and $host_os_name == "{}")"#,
                imp.arch, imp.os
            ));
        }
        q.push(')');
        if let Some(extra) = extra_constraint {
            q.push_str(" and (");
            q.push_str(extra);
            q.push(')');
        }
        self.candidates.serve(&self.collection, &q)
    }

    /// The discovery step every policy starts from: the class's report,
    /// then the shared candidate set for it under the item's constraint.
    pub fn pool_for(&self, item: &ClassRequest) -> Result<Arc<Vec<Candidate>>, LegionError> {
        let report = self.class_report(item.class)?;
        self.shared_candidates_for(&report, item.constraint.as_deref())
    }
}

/// The hosts of a served set a policy may place `class` on — those that
/// reported a compatible vault — in the set's order. None at all is
/// `NoUsableImplementation`, so callers may index the result unchecked.
pub(crate) fn usable(set: &[Candidate], class: Loid) -> Result<Vec<&Candidate>, LegionError> {
    let pool: Vec<_> = set.iter().filter(|c| c.usable()).collect();
    if pool.is_empty() {
        return Err(LegionError::NoUsableImplementation { class });
    }
    Ok(pool)
}

/// A host candidate extracted from a Collection record.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The host.
    pub host: Loid,
    /// Vaults the host reported compatible.
    pub vaults: Vec<Loid>,
    /// The Collection record snapshot (shared, not deep-copied).
    pub record: Arc<CollectionRecord>,
}

impl Candidate {
    /// Materializes a candidate from its Collection record — "extract
    /// list of compatible vaults from H" (Fig. 7): the vault list
    /// travels inside the record. The query path and the cache's
    /// delta-patch path both build candidates through here, which is
    /// what keeps cached and uncached sets bit-identical.
    pub fn from_record(rec: Arc<CollectionRecord>) -> Self {
        let vaults = rec
            .attrs
            .get(legion_core::host::well_known::COMPATIBLE_VAULTS)
            .and_then(|v| v.as_list())
            .map(|items| {
                items
                    .iter()
                    .filter_map(|v| v.as_str())
                    .filter_map(|s| Loid::from_str(s).ok())
                    .collect()
            })
            .unwrap_or_default();
        Candidate { host: rec.member, vaults, record: rec }
    }

    /// Whether the candidate can actually hold an OPR somewhere.
    pub fn usable(&self) -> bool {
        !self.vaults.is_empty()
    }

    /// The full record attributes (load, domain, price...).
    pub fn attrs(&self) -> &legion_core::AttributeDb {
        &self.record.attrs
    }

    /// The host's reported load; a host that reports none ranks last.
    pub fn load(&self) -> f64 {
        self.attrs().get_f64(well_known::LOAD).unwrap_or(f64::MAX)
    }

    /// The mapping of one `class` instance onto this host and the first
    /// vault it listed; for [`Self::usable`] candidates.
    pub fn mapping(&self, class: Loid) -> Mapping {
        Mapping::new(class, self.host, self.vaults[0])
    }
}

/// Fig. 7's inner step: "pick a Host H at random; extract list of
/// compatible vaults from H; randomly pick a compatible vault V" — two
/// draws, host then vault, over a [`usable`] pool.
pub(crate) fn pick(class: Loid, pool: &[&Candidate], rng: &mut SmallRng) -> Mapping {
    let host = pool.choose(rng).expect("usable pools are non-empty");
    let vault = *host.vaults.choose(rng).expect("usable candidates have vaults");
    Mapping::new(class, host.host, vault)
}

/// The schedule every ranked policy builds; `rank` is the policy,
/// ordering (and possibly thinning) a class's pool best first. The
/// `count` instances go to the top of the ranking, wrapping if `count`
/// exceeds it; the `variants` next hosts down are each position's
/// spares, and variant `v` swaps every position to its `v`-th spare,
/// where it has one.
pub(crate) fn spread_ranked(
    request: &PlacementRequest,
    ctx: &SchedCtx,
    variants: usize,
    rank: impl for<'p> Fn(Vec<&'p Candidate>) -> Vec<&'p Candidate>,
) -> Result<ScheduleRequestList, LegionError> {
    if request.is_empty() {
        return Err(LegionError::MalformedSchedule("empty placement request".into()));
    }
    let mut master = Vec::new();
    let mut spares: Vec<Vec<Mapping>> = Vec::new();
    for item in &request.items {
        let set = ctx.pool_for(item)?;
        let ranked = rank(usable(&set, item.class)?);
        if ranked.is_empty() {
            return Err(LegionError::NoUsableImplementation { class: item.class });
        }
        for i in 0..item.count as usize {
            let pick = ranked[i % ranked.len()];
            master.push(pick.mapping(item.class));
            spares.push(
                (1..=variants)
                    .map(|j| ranked[(i + j) % ranked.len()])
                    .filter(|c| c.host != pick.host)
                    .map(|c| c.mapping(item.class))
                    .collect(),
            );
        }
    }
    let n = master.len();
    let mut sched = ScheduleRequest::master_only(master);
    for v in 0..variants {
        let replacements: Vec<(usize, Mapping)> =
            (0..n).filter_map(|i| spares[i].get(v).map(|m| (i, m.clone()))).collect();
        if !replacements.is_empty() {
            sched = sched.with_variant(VariantSchedule::replacing(n, &replacements));
        }
    }
    Ok(ScheduleRequestList { schedules: vec![sched] })
}

/// A placement policy: computes schedules, never enacts them.
///
/// "It is not our intent to directly develop more than a few
/// widely-applicable Schedulers; we leave that task to experts in the
/// field" (§3.3) — hence a trait with pluggable implementations.
pub trait Scheduler: Send + Sync {
    /// Policy name (experiment tables key on it).
    fn name(&self) -> &'static str;

    /// Computes a schedule request list for `request`.
    fn compute_schedule(
        &self,
        request: &PlacementRequest,
        ctx: &SchedCtx,
    ) -> Result<ScheduleRequestList, LegionError>;
}
