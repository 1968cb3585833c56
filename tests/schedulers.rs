//! Cross-crate scheduler behaviour through the facade.

use legion::prelude::*;
use legion::schedule::ScheduleOutcome;
use legion::schedulers::{KOfNScheduler, RoundRobinScheduler};

type SchedulerFactory = Box<dyn Fn() -> Box<dyn Scheduler>>;

#[test]
fn every_stock_scheduler_places_on_an_idle_bed() {
    let schedulers: Vec<(&str, SchedulerFactory)> = vec![
        ("random", Box::new(|| Box::new(RandomScheduler::new(5)))),
        ("irs", Box::new(|| Box::new(IrsScheduler::new(5, 4)))),
        ("round-robin", Box::new(|| Box::new(RoundRobinScheduler::new()))),
        ("load-aware", Box::new(|| Box::new(LoadAwareScheduler::new()))),
        ("k-of-n", Box::new(|| Box::new(KOfNScheduler::new()))),
    ];
    for (name, mk) in schedulers {
        let tb = Testbed::build(TestbedConfig::wide(2, 4, 21));
        let class = tb.register_class("w", 25, 64);
        let scheduler = mk();
        let enactor = Enactor::new(tb.fabric.clone());
        let driver = ScheduleDriver::new(std::sync::Arc::from(scheduler), std::sync::Arc::new(enactor));
        let report = driver
            .place(&PlacementRequest::new().class(class, 4), &tb.ctx())
            .unwrap_or_else(|e| panic!("{name} failed: {e}"));
        assert_eq!(report.placed.len(), 4, "{name}");
    }
}

#[test]
fn irs_beats_random_under_heavy_contention() {
    // Statistical comparison over 20 paired trials: IRS (variants +
    // feedback) must succeed at least as often as one-shot Random, and
    // strictly more in aggregate.
    let mut random_wins = 0;
    let mut irs_wins = 0;
    for trial in 0..20u64 {
        let mk = || {
            let tb = Testbed::build(TestbedConfig::local(12, 100 + trial));
            let class = tb.register_class("w", 100, 64);
            // Saturate 9 of 12 hosts.
            for h in &tb.unix_hosts[..9] {
                let vault = h.get_compatible_vaults()[0];
                let req = ReservationRequest::instantaneous(
                    class,
                    vault,
                    SimDuration::from_secs(1 << 20),
                )
                .with_type(ReservationType::REUSABLE_SPACE);
                h.make_reservation(&req, tb.fabric.clock().now()).unwrap();
            }
            tb.tick(SimDuration::from_secs(1));
            (tb, class)
        };

        let (tb, class) = mk();
        let s = RandomScheduler::new(trial);
        let e = Enactor::new(tb.fabric.clone());
        let sched = s
            .compute_schedule(&PlacementRequest::new().class(class, 2), &tb.ctx())
            .unwrap();
        if e.make_reservations(&sched).reserved() {
            random_wins += 1;
        }

        let (tb, class) = mk();
        let s = IrsScheduler::new(trial, 8);
        let e = Enactor::new(tb.fabric.clone());
        let sched = s
            .compute_schedule(&PlacementRequest::new().class(class, 2), &tb.ctx())
            .unwrap();
        if e.make_reservations(&sched).reserved() {
            irs_wins += 1;
        }
    }
    assert!(
        irs_wins > random_wins,
        "IRS ({irs_wins}/20) should beat Random ({random_wins}/20) under contention"
    );
    // Fig. 8 variants are *joint* redraws — variant l re-picks every
    // instance — so each schedule attempt succeeds with ~(3/12)^2 and
    // eight attempts give ~0.4 overall; Random's single master gives
    // ~0.06. Demand the comparative shape, not a fantasy bound.
    assert!(
        irs_wins >= 5,
        "IRS with NSched=8 should win a substantial fraction: {irs_wins}/20"
    );
    assert!(random_wins <= 5, "one-shot Random should rarely survive 75% blocking");
}

#[test]
fn scheduler_constraints_flow_to_collection_queries() {
    let tb = Testbed::build(TestbedConfig {
        domains: 1,
        unix_per_domain: 2,
        smp_per_domain: 2, // SMPs have 4 GB
        ..TestbedConfig::local(0, 23)
    });
    let class = tb.register_class("big", 100, 2048);
    let scheduler = RoundRobinScheduler::new();
    // Only the SMPs satisfy the memory constraint.
    let sched = scheduler
        .compute_schedule(
            &PlacementRequest::new().class_where(class, 2, "$host_memory_mb >= 4096"),
            &tb.ctx(),
        )
        .unwrap();
    let smp_loids: std::collections::BTreeSet<Loid> = tb
        .unix_hosts
        .iter()
        .filter(|h| h.config().ncpus == 4)
        .map(|h| h.loid())
        .collect();
    for m in &sched.schedules[0].master.mappings {
        assert!(smp_loids.contains(&m.host), "constraint must exclude workstations");
    }
}

#[test]
fn feedback_reports_which_schedule_won() {
    let tb = Testbed::build(TestbedConfig::local(3, 25));
    let class = tb.register_class("w", 100, 64);
    // Saturate host 0 so the first master fails.
    let h0 = &tb.unix_hosts[0];
    let vault = h0.get_compatible_vaults()[0];
    let req = ReservationRequest::instantaneous(class, vault, SimDuration::from_secs(1 << 20))
        .with_type(ReservationType::REUSABLE_SPACE);
    h0.make_reservation(&req, tb.fabric.clock().now()).unwrap();

    let m = |i: usize| Mapping::new(class, tb.unix_hosts[i].loid(), tb.vault_loids[0]);
    let request = ScheduleRequestList::default()
        .push(legion::schedule::ScheduleRequest::master_only(vec![m(0)]))
        .push(legion::schedule::ScheduleRequest::master_only(vec![m(1)]));
    let enactor = Enactor::new(tb.fabric.clone());
    let fb = enactor.make_reservations(&request);
    assert_eq!(fb.outcome, ScheduleOutcome::Reserved { schedule: 1, variant: None });
    // The feedback carries the original request, per the paper.
    assert_eq!(fb.request.schedules.len(), 2);
}

/// Renders a schedule list as (class index, host index in bed, vault
/// index in bed) triples — not LOID strings, the global LOID counter
/// moves under parallel tests — one `m…` group per master and one
/// `v<positions>…` group per variant.
fn render_schedule(
    result: &Result<ScheduleRequestList, LegionError>,
    tb: &Testbed,
    classes: &[Loid],
) -> String {
    let sched = match result {
        Ok(s) => s,
        Err(e) => {
            let debug = format!("{e:?}");
            let variant = debug.split(|c: char| !c.is_alphanumeric()).next().unwrap_or("");
            return format!("err:{variant}");
        }
    };
    let index = |set: &[Loid], l: Loid| set.iter().position(|&x| x == l).expect("bed member");
    let triple = |m: &Mapping| {
        format!(
            "{}.{}.{}",
            index(classes, m.class),
            index(&tb.host_loids, m.host),
            index(&tb.vault_loids, m.vault)
        )
    };
    let mut out = String::new();
    for s in &sched.schedules {
        out.push_str("m:");
        out.push_str(&s.master.mappings.iter().map(triple).collect::<Vec<_>>().join(","));
        for v in &s.variants {
            out.push_str(&format!("|v{:?}:", v.replaces.iter_ones().collect::<Vec<_>>()));
            out.push_str(&v.entries.iter().map(triple).collect::<Vec<_>>().join(","));
        }
        out.push(';');
    }
    out
}

#[test]
fn schedules_are_pinned_for_every_policy() {
    use legion::apps::LoadRegime;
    use legion::core::hash::KeyedTag;
    use legion::schedulers::{place_layered, GridSpec, LayeringScheme};

    // One fixed bed: three domains of mixed hosts with heterogeneous
    // loads and prices, so the ranked policies sort on real keys and
    // every host offers three vaults to the random vault draw.
    let bed = || {
        let tb = Testbed::build(TestbedConfig {
            domains: 3,
            unix_per_domain: 4,
            smp_per_domain: 1,
            batch_per_domain: 1,
            load: LoadRegime::Ar1 { mean: 0.8 },
            priced: true,
            seed: 1999,
            ..Default::default()
        });
        for _ in 0..3 {
            tb.tick(SimDuration::from_secs(30));
        }
        let classes = [tb.register_class("pin-a", 25, 64), tb.register_class("pin-b", 25, 64)];
        (tb, classes)
    };

    // Digests recorded at the parent of the one-candidate-pool
    // refactor (commit 0d5f620): the same seed on the same bed must
    // keep producing these schedules, draw for draw.
    const EMPTY: &str = "err:NoUsableImplementation";
    const MALFORMED: &str = "err:MalformedSchedule";
    let pinned: Vec<(Box<dyn Scheduler>, [&str; 3])> = vec![
        (Box::new(RandomScheduler::new(7)), ["d8566ea03fffc260", "6d86497ae91d50c9", EMPTY]),
        (Box::new(IrsScheduler::new(7, 4)), ["c64573d9ee041705", "fa602cb790f5973a", EMPTY]),
        (
            Box::new(IrsScheduler::new(7, 3).per_position()),
            ["0e137cdc30257ed0", "872bc769b08dff81", EMPTY],
        ),
        (Box::new(RoundRobinScheduler::new()), ["9cc025a193f3bfcf", "8a9f50671864bd0d", EMPTY]),
        (Box::new(LoadAwareScheduler::new()), ["bbec880fafb8f5df", "0a20cd9573197097", EMPTY]),
        (Box::new(PriceAwareScheduler::new()), ["14a27209dec6ca2c", "3d7a2a590b7dae18", EMPTY]),
        // k-of-n and the stencil take one class only, and a pool
        // smaller than k — empty included — is k-of-n's own error.
        (Box::new(KOfNScheduler::new().with_n(9)), ["fdd54c3435c9eeae", MALFORMED, MALFORMED]),
        (
            Box::new(StencilScheduler::new(GridSpec::new(2, 3))),
            ["dd936e0f81d2d2bf", MALFORMED, EMPTY],
        ),
    ];
    for (scheduler, expected) in pinned {
        let (tb, classes) = bed();
        let ctx = tb.ctx();
        // The same scheduler and context serve every request, so the
        // RNG stream, the round-robin cursor and the candidate cache
        // carry over from the 1-class to the 2-class request.
        let requests = [
            PlacementRequest::new().class(classes[0], 6),
            PlacementRequest::new().class(classes[0], 2).class_where(
                classes[1],
                4,
                "$host_memory_mb >= 256",
            ),
            // No host has this much memory: the empty-pool error.
            PlacementRequest::new().class_where(classes[0], 6, "$host_memory_mb >= 99999999"),
        ];
        for (request, want) in requests.iter().zip(expected) {
            let got = render_schedule(&scheduler.compute_schedule(request, &ctx), &tb, &classes);
            // Schedules compare by digest, errors by variant name.
            let digest = if got.starts_with("err:") {
                got.clone()
            } else {
                format!("{:016x}", KeyedTag::new(0).write_bytes(got.as_bytes()).finish())
            };
            assert_eq!(digest, want, "{} schedule moved: {got}", scheduler.name());
        }
    }

    // Layering scheme (b) draws inline, without a Scheduler object; its
    // mappings surface as the hosts the instances landed on.
    let (tb, classes) = bed();
    let ctx = tb.ctx();
    let enactor = std::sync::Arc::new(Enactor::new(tb.fabric.clone()));
    let mut got = Vec::new();
    for (class, count, seed) in [(classes[0], 6, 7), (classes[1], 4, 8)] {
        let placed =
            place_layered(LayeringScheme::AppSchedulerOverRm, &ctx, &enactor, class, count, seed)
                .expect("idle bed places");
        let located = tb.fabric.lookup_class(class).expect("registered").instances();
        for instance in placed {
            let host = located.iter().find(|(i, _)| *i == instance).expect("located").1;
            got.push(tb.host_loids.iter().position(|&h| h == host).expect("bed host"));
        }
    }
    assert_eq!(got, [12, 5, 15, 17, 17, 15, 14, 10, 10, 16], "inline layering draws moved");
}
