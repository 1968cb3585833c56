//! The simulation harness, pinned: determinism, scale, and equivalence
//! with the thread path.
//!
//! The discrete-event scheduler's contract (see `docs/simulation.md`):
//!
//! * **Byte-identical replay** — two runs of the full chaos soak from
//!   one seed produce identical `legion-trace/v1` JSON exports and
//!   identical `MetricsLedger` snapshots, byte for byte (with the LOID
//!   allocator rebased through `Loid::replay_guard`).
//! * **Scale without sleeping** — a 1000-episode soak, chaos and all,
//!   completes in seconds of wall clock because every wait (backoff,
//!   wire latency, dwell) is an event.
//! * **Equivalence** — the sim scheduler is a *scheduler*, not a new
//!   semantics: the replay scenario (the reservation fill pass under
//!   loss) and a serial loop over `place` produce the same
//!   outcomes, token serials, and ledger deltas under either substrate.
//!
//! Every test takes the replay guard: LOID sequence numbers are the one
//! process-global that leaks into trace exports, so tests that compare
//! or replay runs must not interleave allocations.

use legion::core::Loid;
use legion::fabric::MetricsSnapshot;
use legion::prelude::*;
use legion::schedule::{ScheduleOutcome, ScheduleRequestList};
use legion::schedulers::DriverReport;
use std::sync::Arc;

const SOAK_SEED: u64 = 0xD15C_5EED;

/// A quick soak for sweeps: small bed, short horizon, full chaos.
fn sweep_config(seed: u64) -> SimSoakConfig {
    SimSoakConfig {
        seed,
        episodes: 48,
        arrival_gap: SimDuration::from_secs(10),
        horizon: SimDuration::from_secs(900),
        chaos_crashes: 4,
        crash_down_for: SimDuration::from_secs(120),
        chaos_partitions: 2,
        partition_lasting: SimDuration::from_secs(60),
        ..SimSoakConfig::seeded(seed)
    }
}

#[test]
fn pinned_seed_chaos_soak_replays_byte_identically() {
    let guard = Loid::replay_guard();
    let cfg = SimSoakConfig::seeded(SOAK_SEED);

    guard.rebase(1 << 40);
    let a = run_chaos_soak(&cfg).unwrap_or_else(|e| panic!("run A: {e}"));
    guard.rebase(1 << 40);
    let b = run_chaos_soak(&cfg).unwrap_or_else(|e| panic!("run B: {e}"));

    // The soak did real work under real chaos.
    assert_eq!(a.submitted, cfg.episodes as u64);
    assert!(
        a.completed * 100 >= a.submitted * 95,
        "only {}/{} episodes completed (seed={SOAK_SEED:#x})",
        a.completed,
        a.submitted
    );
    assert_eq!(
        a.metrics.faults_injected,
        a.fault_counts.total(),
        "every planned fault fired (seed={SOAK_SEED:#x})"
    );
    assert!(a.metrics.enactor_backoffs > 0 || a.recoveries > 0, "chaos never bit");

    // Bit-identical from one seed: same schedule, same trace bytes,
    // same ledger.
    assert_eq!(a.stats, b.stats, "event schedules diverged (seed={SOAK_SEED:#x})");
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.failed, b.failed);
    assert_eq!(a.recoveries, b.recoveries);
    assert_eq!(a.metrics, b.metrics, "ledger snapshots diverged (seed={SOAK_SEED:#x})");
    let (ja, jb) = (a.trace_json.as_ref().unwrap(), b.trace_json.as_ref().unwrap());
    assert!(ja == jb, "trace JSON diverged between same-seed runs (seed={SOAK_SEED:#x})");
    assert!(ja.contains("\"legion-trace/v1\""), "export carries the schema tag");
}

#[test]
fn thousand_episode_soak_runs_in_seconds_without_sleeping() {
    let _guard = Loid::replay_guard();
    let cfg = SimSoakConfig::seeded(SOAK_SEED ^ 0x1000)
        .with_episodes(1000, SimDuration::from_secs(3));
    let wall = std::time::Instant::now();
    let report = run_chaos_soak(&cfg).unwrap_or_else(|e| panic!("{e}"));
    let elapsed = wall.elapsed();

    assert_eq!(report.submitted, 1000);
    assert!(
        report.completed * 100 >= report.submitted * 95,
        "only {}/1000 episodes completed",
        report.completed
    );
    // Wire emulation is ON in this config: under the thread path every
    // metered message would block for real; under the sim scheduler the
    // whole run must stay CPU-bound (bound is generous for debug CI).
    assert!(
        elapsed < std::time::Duration::from_secs(90),
        "1000-episode soak took {elapsed:?} — something slept for real"
    );
    // An hour of virtual time actually elapsed.
    assert!(report.stats.end >= SimTime::from_secs(3600), "horizon reached: {}", report.stats.end);
    eprintln!(
        "sim soak: 1000 episodes, {} events, {:.2}s wall, {} backoffs, {} recoveries",
        report.stats.events,
        elapsed.as_secs_f64(),
        report.metrics.enactor_backoffs,
        report.recoveries
    );
}

#[test]
fn chaos_soak_thirty_two_seed_sweep() {
    let _guard = Loid::replay_guard();
    let wall = std::time::Instant::now();
    let results = seed_sweep(
        (0..32).map(|i| SOAK_SEED.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i)),
        |seed| run_chaos_soak(&sweep_config(seed)),
    );
    assert_eq!(results.len(), 32);
    for (seed, r) in &results {
        assert!(
            r.completed * 100 >= r.submitted * 90,
            "seed {seed:#x}: only {}/{} episodes completed",
            r.completed,
            r.submitted
        );
        assert_eq!(
            r.metrics.faults_injected,
            r.fault_counts.total(),
            "seed {seed:#x}: fault plan did not drain"
        );
    }
    // Different seeds genuinely explore different interleavings.
    let distinct: std::collections::BTreeSet<u64> =
        results.iter().map(|(_, r)| r.stats.events).collect();
    assert!(distinct.len() > 8, "sweep looks degenerate: {distinct:?}");
    eprintln!("32-seed sweep in {:.2}s wall", wall.elapsed().as_secs_f64());
}

#[test]
fn rebalance_sim_converges_like_the_thread_soak() {
    let _guard = Loid::replay_guard();
    let report = run_rebalance_sim(0xBA1A_0C5E, 90).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(report.sweeps.len(), 90, "one report per sweep");
    assert_eq!(report.metrics.rebalance_sweeps, 90);
    let converged_at =
        report.converged_at.expect("never converged after the chaos window");
    assert!(converged_at <= 80, "converged too late: sweep {converged_at}");
    assert!(
        report.sweeps[report.sweeps.len() - 5..].iter().all(|r| r.converged),
        "convergence did not hold through the tail"
    );
    assert_eq!(report.live_objects, 10, "an object was lost or duplicated");
    assert!(report.migrated >= 6, "only {} migrations for a 5+5 skew", report.migrated);
    assert!(report.metrics.monitor_restarts > 0, "watchdog never restarted");
}

#[test]
fn reservation_fanout_under_sim_matches_thread_path_under_loss() {
    // The replay scenario: the fill pass over a lossy link, five
    // attempts, shared loss stream. Running it inside a sim task — where
    // every backoff parks on the event queue instead of advancing the
    // clock inline — must reproduce the thread path outcome-for-outcome:
    // same classification, same token serials, same ledger delta.
    let _guard = Loid::replay_guard();
    let scenario = |tb: &Testbed, class: Loid| -> (ScheduleOutcome, Vec<(usize, u64)>, MetricsSnapshot) {
        // The Enactor itself lives in domain 0; hosts sit in domains 0
        // and 1, so both links must be lossy to exercise every mapping.
        tb.fabric.with_topology(|t| {
            t.set_drop_prob(DomainId(0), DomainId(0), 0.35);
            t.set_drop_prob(DomainId(0), DomainId(1), 0.35);
        });
        let enactor = Enactor::with_config(
            tb.fabric.clone(),
            EnactorConfig { max_attempts: 5, ..Default::default() },
        );
        let mappings: Vec<Mapping> = tb
            .unix_hosts
            .iter()
            .map(|h| Mapping::new(class, h.loid(), h.get_compatible_vaults()[0]))
            .collect();
        let before = tb.fabric.metrics().snapshot();
        let fb = enactor.make_reservations(&ScheduleRequestList::single(mappings));
        let delta = tb.fabric.metrics().snapshot().delta(&before);
        let idx = |l: Loid| tb.unix_hosts.iter().position(|h| h.loid() == l).unwrap();
        let tokens: Vec<(usize, u64)> =
            fb.reservations.iter().map(|t| (idx(t.host), t.serial)).collect();
        (fb.outcome, tokens, delta)
    };

    const SEED: u64 = 0x99A2_7C15;
    // Thread path.
    let threads = {
        let tb = Testbed::build(TestbedConfig::wide(2, 3, SEED));
        let class = tb.register_class("w", 50, 64);
        tb.tick(SimDuration::from_secs(1));
        scenario(&tb, class)
    };
    // Sim path: the same scenario as a single actor task.
    let sim_run = {
        let tb = Testbed::build(TestbedConfig::wide(2, 3, SEED));
        let class = tb.register_class("w", 50, 64);
        tb.tick(SimDuration::from_secs(1));
        let sim = SimHandle::new(Arc::clone(tb.fabric.clock()));
        tb.fabric.attach_sim(sim.clone());
        let result = Arc::new(std::sync::Mutex::new(None));
        let tb = Arc::new(tb);
        {
            let (tb, result) = (Arc::clone(&tb), Arc::clone(&result));
            sim.spawn("pr4-replay", move |_| {
                *result.lock().unwrap() = Some(scenario(&tb, class));
            });
        }
        sim.run().unwrap_or_else(|e| panic!("{e}"));
        tb.fabric.detach_sim();
        let out = result.lock().unwrap().take().unwrap();
        out
    };
    assert_eq!(threads.0, sim_run.0, "outcome classification diverged");
    assert_eq!(threads.1, sim_run.1, "token serials diverged");
    assert_eq!(threads.2, sim_run.2, "ledger deltas diverged");
    assert!(threads.2.messages_dropped > 0, "the lossy link never exercised the stream");
    assert!(threads.2.enactor_backoffs > 0, "the backoff path never engaged");
}

#[test]
fn place_many_under_sim_matches_serial_thread_path() {
    // The concurrency-suite batch scenario: 8 requests, alternating 1 and 2
    // instances. Serial thread path (one `place` after another) versus
    // one sim task per request — the sim runs tasks to completion in
    // spawn order, so the two must place identically, request for request.
    let _guard = Loid::replay_guard();
    const SEED: u64 = 83;
    type Placed = Vec<Result<Vec<(usize, u64)>, String>>;
    let digest = |tb: &Testbed, results: Vec<Result<DriverReport, LegionError>>| -> Placed {
        let idx = |l: Loid| tb.unix_hosts.iter().position(|h| h.loid() == l).unwrap();
        results
            .into_iter()
            .map(|r| {
                r.map(|rep| {
                    rep.feedback
                        .as_ref()
                        .map(|fb| {
                            fb.reservations.iter().map(|t| (idx(t.host), t.serial)).collect()
                        })
                        .unwrap_or_default()
                })
                .map_err(|e| e.to_string())
            })
            .collect()
    };
    let requests = |class: Loid| -> Vec<PlacementRequest> {
        (0..8u32).map(|i| PlacementRequest::new().class(class, 1 + (i % 2))).collect()
    };

    let threads = {
        let tb = Testbed::build(TestbedConfig::wide(2, 4, SEED));
        let class = tb.register_class("batch", 25, 32);
        tb.tick(SimDuration::from_secs(1));
        let scheduler = RandomScheduler::new(7);
        let enactor = Enactor::new(tb.fabric.clone());
        let driver = ScheduleDriver::new(std::sync::Arc::new(scheduler), std::sync::Arc::new(enactor));
        let ctx = tb.ctx();
        let results: Vec<_> = requests(class).iter().map(|r| driver.place(r, &ctx)).collect();
        digest(&tb, results)
    };

    let sim_run = {
        let tb = Testbed::build(TestbedConfig::wide(2, 4, SEED));
        let class = tb.register_class("batch", 25, 32);
        tb.tick(SimDuration::from_secs(1));
        let sim = SimHandle::new(Arc::clone(tb.fabric.clock()));
        tb.fabric.attach_sim(sim.clone());
        let tb = Arc::new(tb);
        let scheduler: Arc<dyn Scheduler> = Arc::new(RandomScheduler::new(7));
        let enactor = Arc::new(Enactor::new(tb.fabric.clone()));
        let ctx = Arc::new(tb.ctx());
        type Slots = Vec<Option<Result<DriverReport, LegionError>>>;
        let slots: Arc<std::sync::Mutex<Slots>> =
            Arc::new(std::sync::Mutex::new((0..8).map(|_| None).collect()));
        for (i, request) in requests(class).into_iter().enumerate() {
            let (scheduler, enactor, ctx, slots) = (
                Arc::clone(&scheduler),
                Arc::clone(&enactor),
                Arc::clone(&ctx),
                Arc::clone(&slots),
            );
            sim.spawn(format!("request-{i}"), move |_| {
                let driver = ScheduleDriver::new(scheduler, enactor);
                slots.lock().unwrap()[i] = Some(driver.place(&request, &ctx));
            });
        }
        sim.run().unwrap_or_else(|e| panic!("{e}"));
        tb.fabric.detach_sim();
        let results: Vec<_> =
            slots.lock().unwrap().drain(..).map(|r| r.expect("every request placed")).collect();
        digest(&tb, results)
    };

    assert_eq!(threads, sim_run, "sim task-per-request diverged from the serial thread path");
    assert!(threads.iter().all(|r| r.is_ok()), "idle bed placements all succeed");
}

#[test]
fn failing_seed_reprints_its_event_schedule() {
    // seed_sweep's replay-on-failure contract: the panic names the seed
    // and carries the schedule tail of the failing run.
    let _guard = Loid::replay_guard();
    let outcome = std::panic::catch_unwind(|| {
        seed_sweep([7u64], |seed| {
            let clock = Arc::new(legion::fabric::VirtualClock::new());
            let sim = SimHandle::new(clock);
            sim.schedule_at(SimTime::from_micros(3), "fuse", |_| {});
            sim.spawn(format!("victim-{seed}"), |h| {
                h.sleep(SimDuration::from_micros(10));
                panic!("scripted fault");
            });
            sim.run().map(|stats| stats.events)
        })
    });
    let payload = outcome.expect_err("sweep must propagate the failure");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .expect("panic carries a message");
    assert!(msg.contains("0x7") || msg.contains("seed 7"), "names the seed: {msg}");
    assert!(msg.contains("scripted fault"), "carries the panic: {msg}");
    assert!(msg.contains("wake:victim-7"), "carries the schedule: {msg}");
    assert!(msg.contains("fuse"), "schedule shows unrelated events too: {msg}");
}
