//! Concurrency: multiple Enactors racing for the same scarce hosts from
//! real threads. The host-side reservation tables are the only
//! serialization point — exactly the paper's "Host acts as an arbiter" —
//! so capacity must never over-commit and co-allocation must stay
//! all-or-nothing under interleaving.

use legion::prelude::*;
use std::sync::Arc;

#[test]
fn racing_enactors_never_oversubscribe() {
    // 4 single-CPU hosts; 8 threads each trying to co-allocate a pair of
    // full-CPU reservations. At most 2 pairs can win.
    let tb = Arc::new(Testbed::build(TestbedConfig::local(4, 77)));
    let class = tb.register_class("racer", 100, 64);
    tb.tick(SimDuration::from_secs(1));

    let barrier = Arc::new(std::sync::Barrier::new(8));
    let wins = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let tb = Arc::clone(&tb);
            let barrier = Arc::clone(&barrier);
            let wins = Arc::clone(&wins);
            std::thread::spawn(move || {
                let enactor = Enactor::new(tb.fabric.clone());
                // Each thread asks for hosts (i, i+1) mod 4 — overlapping
                // pairs to maximize contention.
                let m = |k: usize| {
                    Mapping::new(
                        class,
                        tb.unix_hosts[k % 4].loid(),
                        tb.vault_loids[0],
                    )
                };
                let req = ScheduleRequestList::single(vec![m(i), m(i + 1)]);
                barrier.wait();
                let fb = enactor.make_reservations(&req);
                if fb.reserved() {
                    wins.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    fb
                } else {
                    fb
                }
            })
        })
        .collect();
    let feedbacks: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let won = wins.load(std::sync::atomic::Ordering::SeqCst);
    assert!(won <= 2, "4 CPUs cannot satisfy more than 2 full-CPU pairs, got {won}");
    // Each host granted at most one live full-CPU reservation: verify by
    // checking every winning token is Active and disjoint by host.
    let mut held_hosts = std::collections::BTreeSet::new();
    for fb in feedbacks.iter().filter(|f| f.reserved()) {
        for tok in &fb.reservations {
            assert!(
                held_hosts.insert(tok.host),
                "host {} granted two overlapping full-CPU reservations",
                tok.host
            );
        }
    }
    // Losers left nothing behind: all 4 hosts can still grant afresh
    // after the winners cancel.
    for fb in feedbacks.iter().filter(|f| f.reserved()) {
        let enactor = Enactor::new(tb.fabric.clone());
        enactor.cancel_reservations(fb);
    }
    let enactor = Enactor::new(tb.fabric.clone());
    let all = ScheduleRequestList::single(
        (0..4)
            .map(|k| Mapping::new(class, tb.unix_hosts[k].loid(), tb.vault_loids[0]))
            .collect(),
    );
    assert!(enactor.make_reservations(&all).reserved(), "no leaked capacity");
}

#[test]
fn concurrent_collection_updates_and_queries() {
    // Readers query while writers push; no torn state, every record
    // stays internally consistent.
    let tb = Arc::new(Testbed::build(TestbedConfig::local(8, 79)));
    tb.tick(SimDuration::from_secs(1));

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writers: Vec<_> = (0..2)
        .map(|_| {
            let tb = Arc::clone(&tb);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut n = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    tb.daemon.pull_once(tb.fabric.clock().now());
                    n += 1;
                }
                n
            })
        })
        .collect();
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let tb = Arc::clone(&tb);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let q = legion::collection::parse_query(
                    r#"match($host_os_name, "IRIX") and $host_load >= 0.0"#,
                )
                .unwrap();
                let mut hits = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let rs = tb.collection.query_parsed(&q);
                    // Every record the query returns is complete.
                    for r in &rs {
                        assert!(r.attrs.contains(legion::core::host::well_known::HOST_NAME));
                        assert!(r.attrs.contains("host_compatible_vaults"));
                    }
                    hits += rs.len() as u64;
                }
                hits
            })
        })
        .collect();

    std::thread::sleep(std::time::Duration::from_millis(300));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let pulls: u64 = writers.into_iter().map(|h| h.join().unwrap()).sum();
    let hits: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(pulls > 0 && hits > 0, "both sides made progress: {pulls} pulls, {hits} hits");
    assert_eq!(tb.collection.len(), 8);
}

#[test]
fn concurrent_host_operations_stay_consistent() {
    // Threads hammer one SMP host with reserve/start/kill cycles.
    let tb = Arc::new(Testbed::build(TestbedConfig {
        domains: 1,
        unix_per_domain: 0,
        smp_per_domain: 1,
        ..TestbedConfig::local(0, 81)
    }));
    let class = tb.register_class("hammer", 25, 32);
    let host = Arc::clone(&tb.unix_hosts[0]);
    let vault = host.get_compatible_vaults()[0];

    let handles: Vec<_> = (0..8)
        .map(|_| {
            let tb = Arc::clone(&tb);
            let host = Arc::clone(&host);
            std::thread::spawn(move || {
                let mut cycles = 0u32;
                for _ in 0..50 {
                    let req = ReservationRequest::instantaneous(
                        class,
                        vault,
                        SimDuration::from_secs(60),
                    )
                    .with_demand(25, 32);
                    let Ok(tok) = host.make_reservation(&req, tb.fabric.clock().now())
                    else {
                        continue; // capacity race lost; fine
                    };
                    let started = host
                        .start_object(
                            &tok,
                            &[legion::core::ObjectSpec::new(class)],
                            tb.fabric.clock().now(),
                        )
                        .expect("granted reservation always starts");
                    host.kill_object(started[0]).expect("kill own object");
                    cycles += 1;
                }
                cycles
            })
        })
        .collect();
    let total: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0);
    // Everything cleaned up: no objects, full capacity available again.
    assert!(host.running_objects().is_empty());
    let big = ReservationRequest::instantaneous(class, vault, SimDuration::from_secs(60))
        .with_demand(400, 1024);
    host.make_reservation(&big, tb.fabric.clock().now())
        .expect("full capacity restored");
}
