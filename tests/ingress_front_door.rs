//! The front door's contracts, end to end: typed backpressure, the
//! request → approve → confirm grant workflow and its failure edges
//! (expiry releases tokens, approve-after-crash reconciles the ledger),
//! and the chaos soak with ingress enabled replaying byte-identically.
//!
//! Every test holds `Loid::replay_guard()`: the soak rebases the
//! process-wide LOID counter between its two runs, and a neighbour
//! minting LOIDs meanwhile would land in the replayed lane.

use legion::core::{LegionError, Loid};
use legion::ingress::{ClassPolicy, GrantState, IngressError, Rejected};
use legion::prelude::*;
use std::sync::Arc;

/// A small bed with a front door over it. `policy` applies to every
/// class so tests can pick one tenant class and reason about it alone.
fn door_bed(seed: u64, policy: ClassPolicy, saturation_limit: u64) -> (Testbed, Arc<FrontDoor>, Loid) {
    let tb = Testbed::build(TestbedConfig::wide(2, 3, seed));
    let class = tb.register_class("door-app", 20, 48);
    tb.tick(SimDuration::from_secs(1));
    let config = IngressConfig {
        policies: [policy; 3],
        saturation_limit,
        confirm_window: SimDuration::from_secs(30),
        ..IngressConfig::default()
    };
    let scheduler: Arc<dyn Scheduler> = Arc::new(LoadAwareScheduler::new());
    let enactor = Arc::new(Enactor::new(tb.fabric.clone()));
    let door =
        Arc::new(FrontDoor::new(tb.ctx(), scheduler, enactor, tb.vault_loids[0], config));
    (tb, door, class)
}

/// One token, no refill: every admission question reduces to "was the
/// token released?".
fn one_token() -> ClassPolicy {
    ClassPolicy { rate_per_sec: 0.0, burst: 1, queue_capacity: 4 }
}

#[test]
fn admission_rejections_are_typed() {
    let _guard = Loid::replay_guard();
    let (_tb, door, _class) =
        door_bed(11, ClassPolicy { rate_per_sec: 0.5, burst: 2, queue_capacity: 1 }, 64);
    let tenant = door.register_tenant("tenant", PriorityClass::Interactive);

    // First admission takes the single queue slot.
    let permit = door.admit(tenant).expect("bucket full, queue empty");
    // Queue bound hits before the bucket is debited again.
    match door.admit(tenant) {
        Err(Rejected::QueueFull { capacity: 1 }) => {}
        other => panic!("expected QueueFull, got {other:?}"),
    }
    door.conclude(permit, true);
    // Queue free again: the second token admits...
    let permit = door.admit(tenant).expect("one token left");
    door.conclude(permit, true);
    // ...and an empty bucket rejects with the exact accrual wait.
    match door.admit(tenant) {
        Err(Rejected::RateLimited { retry_in }) => {
            assert_eq!(retry_in, SimDuration::from_secs(2), "0.5/s rate accrues in 2s");
        }
        other => panic!("expected RateLimited, got {other:?}"),
    }
    let stats = door.stats(tenant).unwrap();
    assert_eq!((stats.admitted, stats.rejected_queue, stats.rejected_rate), (2, 1, 1));
}

#[test]
fn saturated_enactor_sheds_before_touching_the_bucket() {
    let _guard = Loid::replay_guard();
    // saturation_limit 0 means the door always sees a saturated tier.
    let (tb, door, _class) = door_bed(12, one_token(), 0);
    let tenant = door.register_tenant("tenant", PriorityClass::Production);
    match door.admit(tenant) {
        Err(Rejected::Saturated { in_flight: 0, limit: 0 }) => {}
        other => panic!("expected Saturated, got {other:?}"),
    }
    // Shedding did not cost the tenant its token or a queue slot.
    let stats = door.stats(tenant).unwrap();
    assert_eq!((stats.rejected_saturated, stats.admitted, stats.in_queue()), (1, 0, 0));
    assert_eq!(tb.fabric.metrics().snapshot().ingress_rejected_saturated, 1);
}

#[test]
fn grant_workflow_confirms_within_window() {
    let _guard = Loid::replay_guard();
    let (tb, door, class) = door_bed(13, one_token(), 64);
    let tenant = door.register_tenant("tenant", PriorityClass::Production);
    let (host, vault) = (tb.host_loids[0], tb.vault_loids[1]);

    let id = door
        .request_grant(tenant, class, vault, SimDuration::from_secs(600))
        .expect("token available");
    assert_eq!(door.grant(id).unwrap().state, GrantState::Requested);
    assert!(door.ledger_holds(id), "pending grant is vault-backed");

    door.approve_grant(id, host).expect("host is up");
    assert_eq!(door.grant(id).unwrap().state, GrantState::Approved);
    assert!(door.ledger_holds(id), "approved grant still pending in the ledger");

    let token = door.confirm_grant(id).expect("within the window");
    assert_eq!(token.host, host, "token binds the approved host");
    assert_eq!(door.grant(id).unwrap().state, GrantState::Confirmed);
    assert!(!door.ledger_holds(id), "confirmed grant left the pending ledger");

    let m = tb.fabric.metrics().snapshot();
    assert_eq!((m.grants_requested, m.grants_approved, m.grants_confirmed), (1, 1, 1));
    assert_eq!((m.grants_expired, m.grants_denied), (0, 0));
}

#[test]
fn unconfirmed_grant_expiry_releases_the_admission_token() {
    let _guard = Loid::replay_guard();
    let (tb, door, class) = door_bed(14, one_token(), 64);
    let tenant = door.register_tenant("tenant", PriorityClass::Production);
    let vault = tb.vault_loids[1];

    // The only token goes to a grant that is never approved.
    let id = door
        .request_grant(tenant, class, vault, SimDuration::from_secs(600))
        .expect("token available");
    match door.request_grant(tenant, class, vault, SimDuration::from_secs(600)) {
        Err(IngressError::Rejected(Rejected::RateLimited { .. })) => {}
        other => panic!("bucket should be empty: {other:?}"),
    }

    // The confirm window lapses; the sweep expires the grant.
    tb.tick(SimDuration::from_secs(31));
    assert_eq!(door.expire_due_grants(), 1);
    assert_eq!(door.grant(id).unwrap().state, GrantState::Expired);
    assert!(!door.ledger_holds(id), "expired grant left the ledger");
    assert_eq!(tb.fabric.metrics().snapshot().grants_expired, 1);

    // The token came back: a fresh request succeeds, and late
    // transitions on the dead grant are typed.
    let id2 = door
        .request_grant(tenant, class, vault, SimDuration::from_secs(600))
        .expect("expiry refunded the token");
    assert_ne!(id, id2);
    match door.approve_grant(id, tb.host_loids[0]) {
        Err(IngressError::GrantNotPending(g, GrantState::Expired)) => assert_eq!(g, id),
        other => panic!("expected GrantNotPending(Expired), got {other:?}"),
    }
}

#[test]
fn approve_after_host_crash_reconciles_the_ledger() {
    let _guard = Loid::replay_guard();
    let (tb, door, class) = door_bed(15, one_token(), 64);
    let tenant = door.register_tenant("tenant", PriorityClass::Production);
    let (host, vault) = (tb.host_loids[0], tb.vault_loids[1]);

    let id = door
        .request_grant(tenant, class, vault, SimDuration::from_secs(600))
        .expect("token available");
    assert!(door.ledger_holds(id));

    // The host crashes between request and approval.
    tb.fabric.unregister_host(host).expect("host was registered");
    match door.approve_grant(id, host) {
        Err(IngressError::Placement(LegionError::NoSuchHost(h))) => assert_eq!(h, host),
        other => panic!("expected the typed host failure, got {other:?}"),
    }

    // Reconciled: denied in the record, gone from the ledger, token
    // refunded, and the ledger counter says so.
    assert_eq!(door.grant(id).unwrap().state, GrantState::Denied);
    assert!(!door.ledger_holds(id), "denied grant must leave the pending ledger");
    assert_eq!(tb.fabric.metrics().snapshot().grants_denied, 1);
    door.request_grant(tenant, class, vault, SimDuration::from_secs(600))
        .expect("denial refunded the token");
}

#[test]
fn pinned_seed_ingress_chaos_soak_replays_byte_identically() {
    const SEED: u64 = 0xFA1_7D00;
    let guard = Loid::replay_guard();
    let cfg = IngressSimConfig {
        chaos_crashes: 3,
        crash_down_for: SimDuration::from_secs(180),
        horizon: SimDuration::from_secs(900),
        ..IngressSimConfig::seeded(SEED)
    };

    guard.rebase(1 << 40);
    let a = run_ingress_sim(&cfg).unwrap_or_else(|e| panic!("run A: {e}"));
    guard.rebase(1 << 40);
    let b = run_ingress_sim(&cfg).unwrap_or_else(|e| panic!("run B: {e}"));

    // The soak did real multi-tenant work under real chaos.
    assert!(a.metrics.ingress_admitted > 0, "nothing was admitted");
    assert!(a.metrics.ingress_completed > 0, "nothing completed");
    assert_eq!(
        a.metrics.faults_injected,
        a.fault_counts.total(),
        "every planned fault fired (seed={SEED:#x})"
    );

    // Byte-identical from one seed.
    assert_eq!(a.stats, b.stats, "event schedules diverged (seed={SEED:#x})");
    assert_eq!(a.metrics, b.metrics, "ledger snapshots diverged (seed={SEED:#x})");
    let (ja, jb) = (a.trace_json.as_ref().unwrap(), b.trace_json.as_ref().unwrap());
    assert!(ja == jb, "trace JSON diverged between same-seed runs (seed={SEED:#x})");
    assert!(ja.contains("\"admission\""), "export carries admission spans");
}

#[test]
fn submit_many_preserves_order_and_concludes_every_permit() {
    let _guard = Loid::replay_guard();
    // Tenant A has 4 burst tokens, so its 5th submission is rejected in
    // place; tenant B's 2 ride the same batch. Results must come back
    // in submission order with the rejection holding its slot, and
    // every admitted permit concluded exactly as `submit` would.
    let (_tb, door, class) =
        door_bed(17, ClassPolicy { rate_per_sec: 0.0, burst: 4, queue_capacity: 8 }, 64);
    let a = door.register_tenant("a", PriorityClass::Interactive);
    let b = door.register_tenant("b", PriorityClass::Interactive);

    let mut subs: Vec<(TenantId, PlacementRequest)> =
        (0..5).map(|_| (a, PlacementRequest::new().class(class, 1))).collect();
    subs.extend((0..2).map(|_| (b, PlacementRequest::new().class(class, 1))));

    let results = door.submit_many(&subs, 1);
    assert_eq!(results.len(), 7);
    for (i, r) in results.iter().enumerate() {
        match (i, r) {
            (4, Err(IngressError::Rejected(Rejected::RateLimited { .. }))) => {}
            (4, other) => panic!("slot 4 should be the rate-limited reject, got {other:?}"),
            (_, Ok(report)) => assert_eq!(report.placed.len(), 1, "slot {i}"),
            (_, other) => panic!("slot {i} should place, got {other:?}"),
        }
    }

    // Admission accounting matches the one-at-a-time path: 4 admitted
    // and concluded for A (plus one rate rejection), 2 for B.
    let sa = door.stats(a).unwrap();
    assert_eq!((sa.admitted, sa.completed, sa.rejected_rate, sa.in_queue()), (4, 4, 1, 0));
    let sb = door.stats(b).unwrap();
    assert_eq!((sb.admitted, sb.completed, sb.in_queue()), (2, 2, 0));
}

#[test]
fn submit_many_matches_sequential_submits() {
    let _guard = Loid::replay_guard();
    // The batcher is a throughput optimization, not a semantic change:
    // the same submissions through `submit_many` and through looped
    // `submit` land the same number of placements on identical beds.
    let policy = ClassPolicy { rate_per_sec: 0.0, burst: 8, queue_capacity: 8 };
    let run = |batched: bool| -> usize {
        let (_tb, door, class) = door_bed(23, policy, 64);
        let tenant = door.register_tenant("t", PriorityClass::Production);
        let subs: Vec<(TenantId, PlacementRequest)> =
            (0..6).map(|_| (tenant, PlacementRequest::new().class(class, 1))).collect();
        let results: Vec<_> = if batched {
            door.submit_many(&subs, 1)
        } else {
            subs.iter().map(|(t, r)| door.submit(*t, r)).collect()
        };
        results.iter().filter(|r| r.is_ok()).count()
    };
    assert_eq!(run(true), run(false), "batched and sequential goodput must agree");
}
