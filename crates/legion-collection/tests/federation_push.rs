//! Push-delta federation under failure: a mirror that misses deltas
//! must detect the sequence gap and full-resync to a state
//! byte-identical to a fresh pull, and a mirror cut off by a network
//! partition must stop syncing and let its records age out through the
//! ordinary TTL eviction — the same skip semantics the pull daemon
//! applies to partitioned hosts.

use legion_collection::{Collection, FederatedCollection};
use legion_core::{AttributeDb, Loid, LoidKind, SimDuration, SimTime};
use legion_fabric::{DomainId, DomainTopology, Fabric, FaultAction, FaultPlan};
use std::sync::Arc;

fn host(seq: u64) -> Loid {
    Loid::synthetic(LoidKind::Host, seq)
}

fn attrs(os: &str, load: f64) -> AttributeDb {
    AttributeDb::new().with("host_os_name", os).with("host_load", load)
}

/// A mirror that fell further behind than the source's log capacity
/// detects the gap, full-resyncs, and ends byte-identical to a mirror
/// that just did a fresh pull.
#[test]
fn dropped_deltas_force_resync_identical_to_fresh_pull() {
    let source = Collection::new(11);
    source.enable_deltas(4); // retains only the last 4 changes
    let mut creds = Vec::new();
    for i in 0..6u64 {
        creds.push(source.join_with(host(i), attrs("IRIX", i as f64 / 10.0), SimTime::ZERO));
    }

    let f = FederatedCollection::new();
    let mirror = f.add_push_member("remote.edu", Arc::clone(&source));
    assert_eq!(mirror.dump(), source.dump());

    // Ten changes land while the mirror is not syncing: far more than
    // the log retains, so some deltas are gone for good.
    for round in 0..10u64 {
        let i = (round % 6) as usize;
        source
            .update(
                &creds[i],
                &AttributeDb::new().with("host_load", round as f64),
                SimTime::from_secs(round + 1),
            )
            .unwrap();
    }

    let report = f.push_sync();
    assert_eq!(report.resyncs, 1, "gap must trigger a full resync");
    assert_eq!(report.applied_ops, 0, "no lossy partial catch-up");

    // Byte-identical to a fresh pull: a brand-new push member built
    // from the current source state holds exactly the same records
    // (members, attributes, and both timestamps).
    let fresh = FederatedCollection::new();
    let fresh_mirror = fresh.add_push_member("fresh.edu", Arc::clone(&source));
    assert_eq!(mirror.dump(), fresh_mirror.dump());
    assert_eq!(mirror.dump(), source.dump());

    // And the link is caught up: the next sweep moves nothing.
    let report = f.push_sync();
    assert_eq!(report.applied_ops + report.resyncs, 0);
    assert_eq!(report.up_to_date, 1);
}

/// A partition between the source's domain and the mirror's domain
/// stops push syncs (the link is skipped, not errored); the mirrored
/// records then cross the staleness TTL and age out of federated query
/// results. After the partition heals, the next sync reinstates them.
#[test]
fn partitioned_push_member_is_skipped_and_ages_out() {
    let fabric = Fabric::new(
        DomainTopology::uniform(2, SimDuration::from_micros(50), SimDuration::from_millis(20)),
        17,
    );

    let source = Collection::new(11);
    source.enable_deltas(64);
    let cred = source.join_with(host(1), attrs("IRIX", 0.2), SimTime::ZERO);

    let f = FederatedCollection::new();
    f.attach_fabric(Arc::clone(&fabric));
    let mirror = f.add_push_member("far.edu", Arc::clone(&source));

    // The source lives in domain 1, the mirror in domain 0.
    fabric.place(source.loid(), DomainId(1));
    fabric.place(mirror.loid(), DomainId(0));

    // Sever 0 <-> 1 from t=10s until t=100s.
    fabric.install_fault_plan(FaultPlan::new().at(
        SimTime::from_secs(10),
        FaultAction::Partition {
            a: DomainId(0),
            b: DomainId(1),
            heal_at: SimTime::from_secs(100),
        },
    ));
    fabric.tick_all_hosts(SimDuration::from_secs(30)); // now 30s: partition active

    // The source keeps refreshing its member; the mirror can't hear it.
    source
        .update(&cred, &AttributeDb::new().with("host_load", 0.9), SimTime::from_secs(30))
        .unwrap();
    let report = f.push_sync();
    assert_eq!(report.skipped_partitioned, 1);
    assert_eq!(report.applied_ops, 0);
    assert_eq!(
        mirror.get(host(1)).unwrap().updated_at,
        SimTime::ZERO,
        "partitioned mirror must not see the update"
    );

    // The unrefreshed mirrored record crosses the TTL and ages out,
    // exactly like a silent pull target (PR 5 semantics).
    let evicted = f.evict_stale(SimTime::from_secs(60), SimDuration::from_secs(45));
    assert_eq!(evicted, vec![("far.edu".to_string(), vec![host(1)])]);
    assert!(f.query("exists($host_os_name)").unwrap().is_empty());

    // Heal, sync: the member is reinstated with the source's state.
    fabric.tick_all_hosts(SimDuration::from_secs(80)); // now 110s: healed
    let report = f.push_sync();
    assert_eq!(report.skipped_partitioned, 0);
    assert!(report.applied_ops > 0 || report.resyncs > 0);
    assert_eq!(mirror.dump(), source.dump());
    assert_eq!(f.query("$host_load > 0.5").unwrap().len(), 1);
}

/// Replication ships the stored snapshot, not a copy of it: after every
/// kind of sync — the initial snapshot, an Upsert, a Touch, a gap
/// resync — each mirrored record *is* the source's `Arc`.
#[test]
fn mirror_shares_the_sources_snapshots() {
    let source = Collection::new(11);
    source.enable_deltas(4);
    let creds: Vec<_> = (0..3u64)
        .map(|i| source.join_with(host(i), attrs("IRIX", i as f64 / 10.0), SimTime::ZERO))
        .collect();
    let f = FederatedCollection::new();
    let mirror = f.add_push_member("remote.edu", Arc::clone(&source));
    let assert_shared = |why: &str| {
        assert_eq!(mirror.len(), source.len(), "{why}");
        for rec in source.dump() {
            let mirrored = mirror.get(rec.member).expect("mirrored");
            assert!(Arc::ptr_eq(&mirrored, &rec), "{why}: {} was copied", rec.member);
        }
    };
    assert_shared("initial snapshot");

    source.replace(&creds[0], attrs("Linux", 0.7), SimTime::from_secs(1)).unwrap();
    source
        .update(&creds[1], &AttributeDb::new().with("host_load", 0.9), SimTime::from_secs(1))
        .unwrap();
    source.touch(&creds[2], SimTime::from_secs(2)).unwrap();
    assert_eq!(f.push_sync().applied_ops, 3);
    assert_shared("upserts and a touch");
    // The touch moved freshness on the mirror and left its indexes
    // serving the unchanged attributes.
    assert_eq!(mirror.get(host(2)).unwrap().updated_at, SimTime::from_secs(2));
    assert_eq!(mirror.query("$host_load == 0.2").unwrap().len(), 1);

    // Five more changes overflow the four-entry log: gap, full resync.
    for round in 0..5u64 {
        source.touch(&creds[(round % 3) as usize], SimTime::from_secs(3 + round)).unwrap();
    }
    assert_eq!(f.push_sync().resyncs, 1);
    assert_shared("gap resync");
}
