//! The epoch-validated candidate cache: delta-edge behaviour (touch-only
//! and load-only churn, log gaps, deltas never enabled, oversized
//! batches, hosts that lose and regain their vaults) and the
//! bit-identical cached/patched/scanned equivalence property under
//! arbitrary mutation interleavings.

use legion_collection::{parse_query, Collection, MemberCredential};
use legion_core::host::well_known;
use legion_core::{
    AttrValue, AttributeDb, ClassObject, ClassReport, LegionClass, LegionError, Loid, LoidKind,
    ObjectImplementation, PlacementRequest, SimDuration, SimTime,
};
use legion_fabric::{DomainTopology, Fabric};
use legion_schedulers::{Candidate, RoundRobinScheduler, SchedCtx, Scheduler};
use proptest::prelude::*;
use std::sync::Arc;

/// Constraint used by every serve: memory values are multiples of 128,
/// so upserts can flip records across the predicate boundary.
const MEM_CONSTRAINT: &str = "$host_memory_mb >= 256";

/// The query text `shared_candidates_for` builds from `report()` and
/// `MEM_CONSTRAINT`.
const SERVED_QUERY: &str =
    r#"(($host_arch == "mips" and $host_os_name == "IRIX")) and ($host_memory_mb >= 256)"#;

/// A second constraint, on an attribute outside the well-known names,
/// so a change to it reaches the cache under the one bit all such
/// names share. No host carries `site_tag` until a step sets it.
const TAG_CONSTRAINT: &str = r#"$site_tag != "quarantine""#;

/// The query text built from `report()` and `TAG_CONSTRAINT`.
const TAG_QUERY: &str =
    r#"(($host_arch == "mips" and $host_os_name == "IRIX")) and ($site_tag != "quarantine")"#;

fn vault_loid() -> Loid {
    Loid::synthetic(LoidKind::Vault, 1)
}

fn member_loid(i: usize) -> Loid {
    Loid::synthetic(LoidKind::Host, 100 + i as u64)
}

fn host_attrs(memory_mb: i64) -> AttributeDb {
    vaultless_attrs(memory_mb).with(
        well_known::COMPATIBLE_VAULTS,
        AttrValue::List(vec![AttrValue::Str(vault_loid().to_string().into())]),
    )
}

/// A host that answers the query but reports no compatible vault: the
/// cache serves it like any match, and no policy places on it.
fn vaultless_attrs(memory_mb: i64) -> AttributeDb {
    AttributeDb::new()
        .with(well_known::ARCH, "mips")
        .with(well_known::OS_NAME, "IRIX")
        .with(well_known::MEMORY_MB, memory_mb)
}

/// Initial memory for member `i`: 128, 256, 384 or 512 MB — half the
/// bed starts inside the `>= 256` predicate, half outside.
fn initial_memory(i: usize) -> i64 {
    128 + (i as i64 % 4) * 128
}

fn report() -> ClassReport {
    ClassReport {
        class: Loid::synthetic(LoidKind::Class, 1),
        name: "w".to_string(),
        implementations: vec![ObjectImplementation::new("mips", "IRIX")],
        memory_mb: 64,
        cpu_centis: 25,
        comm_bytes_per_cycle: 0,
    }
}

struct Bed {
    collection: Arc<Collection>,
    /// The context whose cached serves are under test.
    cached: SchedCtx,
    /// A second context, serving only `TAG_CONSTRAINT`, so that its
    /// serves leave the counters of `cached` alone.
    tagged: SchedCtx,
    creds: Vec<MemberCredential>,
    fabric: Arc<Fabric>,
}

fn bed(members: usize, delta_capacity: Option<usize>) -> Bed {
    let fabric = Fabric::new(
        DomainTopology::uniform(1, SimDuration::from_micros(10), SimDuration::from_millis(1)),
        7,
    );
    let collection = Collection::new(0xCACE);
    collection.set_metrics(Arc::clone(fabric.metrics()));
    if let Some(cap) = delta_capacity {
        collection.enable_deltas(cap);
    }
    let creds: Vec<MemberCredential> = (0..members)
        .map(|i| {
            collection.join_with(member_loid(i), host_attrs(initial_memory(i)), SimTime::ZERO)
        })
        .collect();
    let cached = SchedCtx::new(Arc::clone(&fabric), Arc::clone(&collection));
    let tagged = SchedCtx::new(Arc::clone(&fabric), Arc::clone(&collection));
    Bed { collection, cached, tagged, creds, fabric }
}

fn serve(ctx: &SchedCtx) -> Arc<Vec<Candidate>> {
    serve_under(ctx, MEM_CONSTRAINT)
}

fn serve_under(ctx: &SchedCtx, constraint: &str) -> Arc<Vec<Candidate>> {
    ctx.shared_candidates_for(&report(), Some(constraint)).expect("query compiles")
}

/// Asserts the cached contexts serve, under each constraint, exactly
/// what a full scan of the Collection computes — same members, same
/// attribute snapshots, same vault lists, same order — and that it is
/// what the Collection's indexed query answers to the same text.
fn assert_serves_match(bed: &Bed) {
    let candidates = |records: Vec<_>| -> Vec<Candidate> {
        records.into_iter().map(Candidate::from_record).collect()
    };
    let texts = [(&bed.cached, MEM_CONSTRAINT, SERVED_QUERY), (&bed.tagged, TAG_CONSTRAINT, TAG_QUERY)];
    for (ctx, constraint, text) in texts {
        let cached = serve_under(ctx, constraint);
        let query = parse_query(text).expect("query compiles");
        let scanned = candidates(bed.collection.query_scan(&query));
        assert_eq!(*cached, scanned, "cached serve of {text} diverged from the full scan");
        let reference = candidates(bed.collection.query(text).expect("query compiles"));
        assert_eq!(*cached, reference, "served set is not the query result for {text}");
    }
}

/// A host's current attributes with `edit` applied, for a step that
/// changes only what it names.
fn edited(bed: &Bed, i: usize, edit: impl FnOnce(&mut AttributeDb)) -> Option<AttributeDb> {
    let mut attrs = bed.collection.get(member_loid(i))?.attrs.clone();
    edit(&mut attrs);
    Some(attrs)
}

#[test]
fn repeat_serves_hit_and_share_the_set() {
    let bed = bed(32, Some(1024));
    let first = serve(&bed.cached);
    let second = serve(&bed.cached);
    assert!(Arc::ptr_eq(&first, &second), "unchanged epoch must serve the same Arc");
    let stats = bed.cached.candidate_cache_stats();
    assert_eq!((stats.misses, stats.hits, stats.patched), (1, 1, 0));
    assert_serves_match(&bed);
}

#[test]
fn touch_only_churn_patches_without_reevaluation() {
    let bed = bed(48, Some(4096));
    serve(&bed.cached); // prime: one full compute
    let t = SimTime::from_secs(5);
    for cred in &bed.creds {
        bed.collection.touch(cred, t).unwrap();
    }

    let before = bed.fabric.metrics().snapshot();
    let set = serve(&bed.cached);
    let delta = bed.fabric.metrics().snapshot().delta(&before);

    let stats = bed.cached.candidate_cache_stats();
    assert_eq!(stats.patched, 1, "touch-only churn must patch, not recompute");
    assert_eq!(stats.misses, 1, "only the priming serve computed");
    // A touch never re-evaluates the predicate: the ledger's scan
    // counter must not move, while the serve still accounts as a query.
    assert_eq!(delta.collection_records_scanned, 0, "no records re-evaluated");
    assert_eq!(delta.collection_queries, 1, "the patched serve is one query");
    // The freshness bump is visible through the patched set.
    assert!(set.iter().all(|c| c.record.updated_at == t), "touch must move updated_at");
    assert_serves_match(&bed);
}

#[test]
fn load_only_churn_patches_without_reevaluation() {
    let bed = bed(48, Some(4096));
    let primed = serve(&bed.cached);
    let t = SimTime::from_secs(5);
    // A pull of a reassessed host: only its load moves, and the served
    // query reads architecture, OS and memory.
    for cred in &bed.creds {
        bed.collection.update(cred, &AttributeDb::new().with(well_known::LOAD, 0.75), t).unwrap();
    }

    let before = bed.fabric.metrics().snapshot();
    let set = serve(&bed.cached);
    let delta = bed.fabric.metrics().snapshot().delta(&before);

    let stats = bed.cached.candidate_cache_stats();
    assert_eq!((stats.misses, stats.patched), (1, 1), "load-only churn must patch");
    assert_eq!(delta.collection_records_scanned, 0, "no records re-evaluated");
    assert_eq!(delta.collection_queries, 1, "the patched serve is one query");
    assert_eq!(set.len(), primed.len());
    for c in set.iter() {
        let stored = bed.collection.get(c.host).expect("served members are stored");
        assert!(Arc::ptr_eq(&c.record, &stored), "{} kept its old snapshot", c.host);
        assert_eq!(c.attrs().get_f64(well_known::LOAD), Some(0.75));
        assert_eq!(c.vaults, [vault_loid()], "the vault list survives the re-point");
    }
    assert_serves_match(&bed);
}

#[test]
fn upsert_churn_tracks_predicate_flips() {
    let bed = bed(32, Some(4096));
    let primed = serve(&bed.cached);
    // Member 1 starts at 256 MB (inside); drop it below the predicate.
    assert!(primed.iter().any(|c| c.host == member_loid(1)));
    let t = SimTime::from_secs(3);
    bed.collection.replace(&bed.creds[1], host_attrs(64), t).unwrap();
    // Member 0 starts at 128 MB (outside); raise it above.
    assert!(!primed.iter().any(|c| c.host == member_loid(0)));
    bed.collection.replace(&bed.creds[0], host_attrs(1024), t).unwrap();
    // Member 2 leaves outright.
    bed.collection.leave(&bed.creds[2]).unwrap();

    let set = serve(&bed.cached);
    let stats = bed.cached.candidate_cache_stats();
    assert_eq!(stats.patched, 1, "three logged ops patch in one serve");
    assert!(!set.iter().any(|c| c.host == member_loid(1)), "downgraded member left the set");
    assert!(set.iter().any(|c| c.host == member_loid(0)), "upgraded member entered the set");
    assert!(!set.iter().any(|c| c.host == member_loid(2)), "departed member left the set");
    assert_serves_match(&bed);
}

/// A copy of a served set that shares nothing with it — not the list,
/// not the records — so it still says what the set held when taken
/// whatever happens to the original afterwards.
fn deep_copy(set: &[Candidate]) -> Vec<Candidate> {
    set.iter()
        .map(|c| Candidate { record: Arc::new((*c.record).clone()), ..c.clone() })
        .collect()
}

#[test]
fn a_held_serve_stays_the_snapshot_it_was() {
    let bed = bed(32, Some(4096));
    let held = serve(&bed.cached);
    let as_taken = deep_copy(&held);
    // Every kind of logged change lands while the set is held: a flip
    // out of the predicate, a flip into it, a touch of a match, a leave.
    let t = SimTime::from_secs(3);
    bed.collection.replace(&bed.creds[1], host_attrs(64), t).unwrap();
    bed.collection.replace(&bed.creds[0], host_attrs(1024), t).unwrap();
    bed.collection.touch(&bed.creds[3], t).unwrap();
    bed.collection.leave(&bed.creds[2]).unwrap();

    let fresh = serve(&bed.cached);
    assert_eq!(bed.cached.candidate_cache_stats().patched, 1, "the churn must patch");
    assert_eq!(*held, as_taken, "a patch wrote through a set a caller still held");
    assert!(!Arc::ptr_eq(&held, &fresh), "a held set cannot also be the patched one");
    assert_ne!(*fresh, as_taken);
    assert_serves_match(&bed);
}

#[test]
fn an_unheld_set_is_patched_where_it_lies() {
    let bed = bed(32, Some(4096));
    let primed = serve(&bed.cached);
    let (list, buffer) = (Arc::as_ptr(&primed), primed.as_ptr());
    drop(primed);
    // One match changes and stays a match, another is only touched.
    let t = SimTime::from_secs(3);
    bed.collection.replace(&bed.creds[1], host_attrs(768), t).unwrap();
    bed.collection.touch(&bed.creds[3], t).unwrap();

    let patched = serve(&bed.cached);
    assert_eq!(bed.cached.candidate_cache_stats().patched, 1);
    assert_eq!(Arc::as_ptr(&patched), list, "an unshared set was copied to be patched");
    assert_eq!(patched.as_ptr(), buffer, "an unshared candidate list was reallocated");
    drop(patched);
    assert_serves_match(&bed);
}

#[test]
fn patched_candidates_share_the_stored_records() {
    let bed = bed(32, Some(4096));
    serve(&bed.cached);
    let assert_shared = |why: &str| {
        let set = serve(&bed.cached);
        assert!(!set.is_empty());
        for c in set.iter() {
            let stored = bed.collection.get(c.host).expect("served members are stored");
            assert!(Arc::ptr_eq(&c.record, &stored), "{why}: {} holds a copy", c.host);
        }
    };
    let t = SimTime::from_secs(3);
    // Upsert path: a new match, and a match that changes in place.
    bed.collection.replace(&bed.creds[0], host_attrs(1024), t).unwrap();
    bed.collection.replace(&bed.creds[1], host_attrs(768), t).unwrap();
    assert_shared("after upserts");
    // Touch path: the store moves every timestamp onto a fresh record.
    for cred in bed.creds.iter().take(12) {
        bed.collection.touch(cred, SimTime::from_secs(4)).unwrap();
    }
    assert_shared("after touches");
    let stats = bed.cached.candidate_cache_stats();
    assert_eq!((stats.misses, stats.patched), (1, 2), "both rounds must have patched");
}

#[test]
fn log_gap_forces_full_recompute() {
    // Capacity 8: churning 24 members overflows the bounded log, so the
    // cache's anchor falls off the front and `deltas_since` reports a
    // gap — the patch path must give up and recompute.
    let bed = bed(24, Some(8));
    serve(&bed.cached);
    let t = SimTime::from_secs(9);
    for cred in &bed.creds {
        bed.collection.touch(cred, t).unwrap();
    }
    serve(&bed.cached);
    let stats = bed.cached.candidate_cache_stats();
    assert_eq!(stats.gap_resyncs, 1, "overflowed log must be detected as a gap");
    assert_eq!(stats.misses, 2, "gap serve recomputes in full");
    assert_eq!(stats.patched, 0);
    assert_serves_match(&bed);
}

#[test]
fn correct_when_deltas_were_never_enabled() {
    // No delta log at all: every epoch advance is a full recompute and
    // results stay exact — the cache degrades, never lies.
    let bed = bed(16, None);
    serve(&bed.cached);
    bed.collection.touch(&bed.creds[3], SimTime::from_secs(2)).unwrap();
    serve(&bed.cached);
    let stats = bed.cached.candidate_cache_stats();
    assert_eq!(stats.misses, 2, "no deltas: epoch advance means recompute");
    assert_eq!((stats.patched, stats.hits, stats.gap_resyncs), (0, 0, 0));
    // A quiet epoch still hits.
    serve(&bed.cached);
    assert_eq!(bed.cached.candidate_cache_stats().hits, 1);
    assert_serves_match(&bed);
}

#[test]
fn oversized_batches_recompute_instead_of_patching() {
    // 80 ops against a 100-record collection exceeds the patch budget
    // (max(len/4, 64) = 64), so the serve recomputes through the index.
    let bed = bed(100, Some(4096));
    serve(&bed.cached);
    for cred in bed.creds.iter().take(80) {
        bed.collection.touch(cred, SimTime::from_secs(4)).unwrap();
    }
    serve(&bed.cached);
    let stats = bed.cached.candidate_cache_stats();
    assert_eq!(stats.misses, 2, "oversized batch must recompute");
    assert_eq!(stats.patched, 0);
    // Small follow-up churn patches again.
    bed.collection.touch(&bed.creds[0], SimTime::from_secs(6)).unwrap();
    serve(&bed.cached);
    assert_eq!(bed.cached.candidate_cache_stats().patched, 1);
    assert_serves_match(&bed);
}

#[test]
fn vaultless_hosts_are_served_but_never_placed_on() {
    let bed = bed(16, Some(1024));
    let class = Arc::new(LegionClass::new("w", vec![ObjectImplementation::new("mips", "IRIX")]));
    let class_loid = class.loid();
    bed.fabric.register_class(class);
    // One round-robin lap over the pool: every host a policy may use.
    let placeable = || -> Vec<Loid> {
        let lap = PlacementRequest::new().class_where(class_loid, 16, MEM_CONSTRAINT);
        let schedule = RoundRobinScheduler::new().compute_schedule(&lap, &bed.cached).unwrap();
        schedule.schedules[0].master.mappings.iter().map(|m| m.host).collect()
    };
    let served = |i: usize| serve(&bed.cached).iter().find(|c| c.host == member_loid(i)).cloned();
    let t = SimTime::from_secs(2);

    // Member 3 has 512 MB — inside the predicate — but reports no
    // vault before the first serve: in the filled set, not placeable.
    bed.collection.replace(&bed.creds[3], vaultless_attrs(512), t).unwrap();
    assert!(!served(3).expect("a vault-less match is still a match").usable());
    assert!(!placeable().contains(&member_loid(3)), "placed on a host with no vault");
    assert_serves_match(&bed);

    // Member 7 (512 MB) is placeable until an upsert strips its vaults,
    // which reaches the cached set through the patch path...
    assert!(placeable().contains(&member_loid(7)));
    bed.collection.replace(&bed.creds[7], vaultless_attrs(512), t).unwrap();
    assert!(!served(7).expect("still matches").usable());
    assert!(!placeable().contains(&member_loid(7)), "stripped host stayed placeable");
    assert_serves_match(&bed);

    // ...and upserts that restore vaults bring both hosts back.
    bed.collection.replace(&bed.creds[7], host_attrs(512), t).unwrap();
    bed.collection.replace(&bed.creds[3], host_attrs(512), t).unwrap();
    let back = placeable();
    assert!(back.contains(&member_loid(7)) && back.contains(&member_loid(3)));
    assert_serves_match(&bed);

    // With every match stripped, the usable pool is empty.
    for i in 0..16 {
        bed.collection.replace(&bed.creds[i], vaultless_attrs(512), t).unwrap();
    }
    let lap = PlacementRequest::new().class_where(class_loid, 1, MEM_CONSTRAINT);
    assert!(matches!(
        RoundRobinScheduler::new().compute_schedule(&lap, &bed.cached),
        Err(LegionError::NoUsableImplementation { .. })
    ));
    assert_eq!(serve(&bed.cached).len(), 16);
    assert_serves_match(&bed);

    let stats = bed.cached.candidate_cache_stats();
    assert_eq!((stats.misses, stats.patched), (1, 3), "strips and restores went through the patch");
}

#[test]
fn distinct_constraint_texts_stay_under_the_map_cap() {
    // Constraint text is caller-supplied through the front door, so the
    // text-keyed map is capped at 256 entries and dropped on overflow.
    let bed = bed(16, Some(1024));
    let serve_at_least = |mb: i64| {
        bed.cached
            .shared_candidates_for(&report(), Some(&format!("$host_memory_mb >= {mb}")))
            .expect("query compiles")
    };
    for mb in 0..10_000 {
        let served: Vec<Loid> = serve_at_least(mb).iter().map(|c| c.host).collect();
        let expected: Vec<Loid> =
            (0..16).filter(|&i| initial_memory(i) >= mb).map(member_loid).collect();
        assert_eq!(served, expected, "wrong pool for {mb} MB");
    }
    // An overflow keeps only the texts inserted after it, so the
    // resident texts are the newest ones: serving newest-first, each
    // resident text is a hit and the first miss ends the resident run.
    let hits = || bed.cached.candidate_cache_stats().hits;
    let resident = (0..10_000)
        .rev()
        .take_while(|&mb| {
            let before = hits();
            serve_at_least(mb);
            hits() > before
        })
        .count();
    assert!((1..=256).contains(&resident), "{resident} texts resident, cap is 256");
}

/// One mutation step of the interleaving property below.
#[derive(Debug, Clone)]
enum Step {
    Touch(usize),
    Upsert(usize, i64),
    /// An upsert that leaves the host matching or not by memory, but
    /// with no vault either way; a later `Upsert` restores the vault.
    StripVaults(usize, i64),
    /// A pull that moves only `host_load`, which no served text reads.
    Reload(usize, u8),
    /// An update that drops the vault list and changes nothing else.
    DropVaults(usize),
    /// An update that sets `site_tag`, which only `TAG_QUERY` reads.
    Tag(usize, u8),
    Leave(usize),
    Rejoin(usize, i64),
    Serve,
    /// Take a serve and keep it, with a deep copy of what it held.
    Hold,
    /// Drop every kept serve, so the next patch may run in place.
    Release,
}

fn step_strategy(members: usize) -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..members).prop_map(Step::Touch),
        (0..members, 0i64..1024).prop_map(|(i, m)| Step::Upsert(i, m)),
        (0..members, 0i64..1024).prop_map(|(i, m)| Step::StripVaults(i, m)),
        (0..members, 0u8..3).prop_map(|(i, l)| Step::Reload(i, l)),
        (0..members).prop_map(Step::DropVaults),
        (0..members, 0u8..3).prop_map(|(i, v)| Step::Tag(i, v)),
        (0..members).prop_map(Step::Leave),
        (0..members, 0i64..1024).prop_map(|(i, m)| Step::Rejoin(i, m)),
        Just(Step::Serve),
        Just(Step::Hold),
        Just(Step::Release),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline correctness property: under any interleaving of
    /// upserts (with and without vaults, and ones that change only
    /// attributes a served text does not read), touches, leaves and
    /// rejoins — across
    /// delta-log capacities (including none, forcing recomputes, and
    /// tiny, forcing gaps) — a cached serve is bit-identical to a full
    /// scan at every observation point, and every serve a
    /// caller still holds is element for element what it was when
    /// taken, whether later patches ran in place or on a copy.
    #[test]
    fn cached_serves_are_bit_identical_to_uncached(
        capacity in (0usize..3).prop_map(|i| [None, Some(4usize), Some(4096)][i]),
        steps in proptest::collection::vec(step_strategy(12), 1..40),
    ) {
        let mut bed = bed(12, capacity);
        assert_serves_match(&bed);
        let mut held: Vec<(Arc<Vec<Candidate>>, Vec<Candidate>)> = Vec::new();
        let mut now = 1u64;
        for step in steps {
            now += 1;
            let t = SimTime::from_secs(now);
            match step {
                Step::Touch(i) => { let _ = bed.collection.touch(&bed.creds[i], t); }
                Step::Upsert(i, m) => {
                    let _ = bed.collection.replace(&bed.creds[i], host_attrs(m), t);
                }
                Step::StripVaults(i, m) => {
                    let _ = bed.collection.replace(&bed.creds[i], vaultless_attrs(m), t);
                }
                Step::Reload(i, load) => {
                    let load = AttrValue::Float(f64::from(load) / 2.0);
                    let reload = AttributeDb::new().with(well_known::LOAD, load);
                    let _ = bed.collection.update(&bed.creds[i], &reload, t);
                }
                Step::DropVaults(i) => {
                    let stripped = edited(&bed, i, |a| {
                        a.remove(well_known::COMPATIBLE_VAULTS);
                    });
                    if let Some(attrs) = stripped {
                        bed.collection.replace(&bed.creds[i], attrs, t).unwrap();
                    }
                }
                Step::Tag(i, v) => {
                    let tag = ["quarantine", "east", "west"][usize::from(v)];
                    let _ = bed.collection.update(
                        &bed.creds[i],
                        &AttributeDb::new().with("site_tag", tag),
                        t,
                    );
                }
                Step::Leave(i) => { let _ = bed.collection.leave(&bed.creds[i]); }
                Step::Rejoin(i, m) => {
                    bed.creds[i] = bed.collection.join_with(member_loid(i), host_attrs(m), t);
                }
                Step::Serve => assert_serves_match(&bed),
                Step::Hold => {
                    let set = serve(&bed.cached);
                    let as_taken = deep_copy(&set);
                    held.push((set, as_taken));
                }
                Step::Release => held.clear(),
            }
            for (set, as_taken) in &held {
                prop_assert_eq!(&**set, as_taken, "a held serve changed by t = {}", now);
            }
        }
        assert_serves_match(&bed);
        for (set, as_taken) in &held {
            prop_assert_eq!(&**set, as_taken);
        }
    }
}
