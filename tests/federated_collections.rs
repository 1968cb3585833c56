//! Per-domain Collections across a multi-domain bed: one Collection per
//! domain, each fed by a daemon tracking only that domain's hosts ("its
//! known Collection(s)", §3.1). Locality comes from which Collection a
//! query or a SchedCtx is pointed at.

use legion::collection::{Collection, DataCollectionDaemon};
use legion::core::host::well_known;
use legion::prelude::*;
use std::sync::Arc;

fn per_domain_bed() -> (Testbed, Vec<Arc<Collection>>) {
    let tb = Testbed::build(TestbedConfig::wide(3, 3, 314));
    let per_domain: Vec<Arc<Collection>> = (0..3).map(|d| Collection::new(1000 + d)).collect();
    for (d, c) in per_domain.iter().enumerate() {
        let daemon = DataCollectionDaemon::new(Arc::clone(c));
        for h in tb.unix_hosts.iter().skip(d * 3).take(3) {
            daemon.track_host(Arc::clone(h) as Arc<dyn HostObject>);
        }
        daemon.pull_once(tb.fabric.clock().now());
    }
    (tb, per_domain)
}

#[test]
fn locality_scoped_query_sees_only_one_domain() {
    let (tb, per_domain) = per_domain_bed();
    let local = per_domain[1].query("$host_load >= 0.0").unwrap();
    assert_eq!(local.len(), 3);
    for r in &local {
        assert_eq!(tb.fabric.domain_of(r.member), DomainId(1));
        assert_eq!(r.attrs.get_str(well_known::DOMAIN), Some("site1.edu"));
    }
    // A host is held by its own domain's Collection and no other.
    let some_host = tb.unix_hosts[7].loid(); // domain 2
    let owners: Vec<usize> = (0..3).filter(|&d| per_domain[d].get(some_host).is_some()).collect();
    assert_eq!(owners, vec![2]);
}

#[test]
fn scheduler_over_a_single_federation_member() {
    use legion::schedulers::{RandomScheduler, SchedCtx};
    // A locality-aware application schedules strictly within its home
    // domain by pointing its SchedCtx at that domain's Collection.
    let (tb, per_domain) = per_domain_bed();
    let class = tb.register_class("local-app", 25, 64);
    let ctx = SchedCtx::new(Arc::clone(&tb.fabric), Arc::clone(&per_domain[2]));
    let sched = RandomScheduler::new(8)
        .compute_schedule(&PlacementRequest::new().class(class, 3), &ctx)
        .unwrap();
    for m in &sched.schedules[0].master.mappings {
        assert_eq!(tb.fabric.domain_of(m.host), DomainId(2), "placement stayed home");
    }
    // And it enacts.
    let enactor = Enactor::new(tb.fabric.clone());
    assert!(enactor.make_reservations(&sched).reserved());
}
