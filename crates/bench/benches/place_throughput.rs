#![allow(missing_docs)]
//! Parallel enactment throughput: (A) serial vs fan-out co-allocation —
//! one schedule spanning every domain of a wide testbed, reserved by
//! `Enactor::reserve_schedule` with `fanout` 1 vs 8 — (B) serial vs
//! batched bulk placement — 32 placement requests run one-by-one
//! through `ScheduleDriver::place` vs pipelined 8 wide through
//! `place_many` — and (C) steady-state scheduling over a large churning
//! Collection with the epoch-validated candidate cache off vs on.
//!
//! Both parts run under the fabric's wire-latency emulation
//! (`Fabric::set_wire_emulation`): every metered message blocks its
//! calling thread for 1/100th of its simulated latency in real time, so
//! a 40 ms inter-domain reservation round-trip costs 400 µs of genuine
//! wall-clock wait — as it would against a real WAN. That is what the
//! fan-out is for: the serial fill pass pays one RTT per admin domain
//! back-to-back, while the fan-out overlaps them. Both arms pay the
//! same emulated latency, so the comparison is fair, and the speedup is
//! honest wall-clock even on a single-core machine (waiting threads
//! overlap regardless of core count). Hosts also carry preloaded
//! reservation tables (`Testbed::preload_reservations`) so admission
//! does realistic overlap-scan work rather than probing empty tables.
//!
//! Emits `BENCH_place_throughput.json` at the repo root. Run quick (CI
//! smoke): `cargo bench -p legion-bench --bench place_throughput --
//! --quick`.

use legion::collection::MemberCredential;
use legion::core::host::well_known;
use legion::core::LoidKind;
use legion::prelude::*;
use legion::schedulers::{DriverReport, RandomScheduler, Scheduler};
use std::sync::Arc;
use std::time::Instant;

/// Real nanoseconds slept per simulated microsecond of link latency:
/// 1/100 real time, so the testbed's 40 ms inter-domain RTT emulates as
/// a 400 µs thread-blocking wait.
const WIRE_NS_PER_SIM_US: u64 = 10;

/// Median nanoseconds per call of `f`, criterion-shim style: calibrate
/// an iteration batch to ~`target_ms`, then take the median of
/// `samples` batch timings.
fn median_ns(samples: usize, target_ms: f64, mut f: impl FnMut() -> usize) -> f64 {
    let start = Instant::now();
    std::hint::black_box(f());
    let once = start.elapsed().as_secs_f64().max(1e-9);
    let iters = ((target_ms / 1e3 / once).ceil() as u64).clamp(1, 1_000_000);
    for _ in 0..iters.min(100) {
        std::hint::black_box(f());
    }
    let mut timings: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            start.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    timings.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    timings[timings.len() / 2]
}

struct Row {
    part: &'static str,
    label: &'static str,
    serial_ns: f64,
    parallel_ns: f64,
}

/// Part A: one 8-mapping co-allocation (one host per domain) reserved
/// and cancelled per cycle, serial fill pass vs 8-wide fan-out.
fn coalloc(preload: usize, samples: usize, target_ms: f64) -> Row {
    let domains = 8;
    let tb = Testbed::build(TestbedConfig::wide(domains, 4, 4242));
    let class = tb.register_class("co", 1, 1);
    tb.tick(SimDuration::from_secs(1));
    let made = tb.preload_reservations(preload, class);
    assert_eq!(made, domains * 4 * preload, "every filler admitted");

    let hosts = &tb.unix_hosts;
    let vaults = &tb.vault_loids;
    let fabric = &tb.fabric;
    let run = |fanout: usize| {
        let enactor = Enactor::with_config(
            tb.fabric.clone(),
            EnactorConfig { fanout, ..Default::default() },
        );
        let mut cycle = 0usize;
        move || {
            // Rotate through each domain's hosts so cycles spread over
            // the bed instead of hammering one table per domain.
            let off = cycle % 4;
            cycle += 1;
            let mappings: Vec<Mapping> = (0..domains)
                .map(|d| Mapping::new(class, hosts[d * 4 + off].loid(), vaults[d]))
                .collect();
            // The measured operation is the reservation round: emulated
            // wire waits apply to it (in both arms); the cancel that
            // returns capacity for the next cycle is bench bookkeeping
            // and runs with emulation off.
            fabric.set_wire_emulation(WIRE_NS_PER_SIM_US);
            let fb = enactor.make_reservations(&ScheduleRequestList::single(mappings));
            fabric.set_wire_emulation(0);
            assert!(fb.reserved(), "zero-contention co-allocation must reserve");
            enactor.cancel_reservations(&fb)
        }
    };
    let serial_ns = median_ns(samples, target_ms, run(1));
    let parallel_ns = median_ns(samples, target_ms, run(8));
    Row { part: "coalloc", label: "8-domain co-allocation, fanout 1 vs 8", serial_ns, parallel_ns }
}

/// Part B: 32 two-instance placement requests, looped `place` vs
/// `place_many(.., 8)`. Placed objects are killed after each cycle so
/// capacity returns; the consumed reservations die and autocompaction
/// keeps tables near their preloaded size.
fn bulk_place(preload: usize, samples: usize, target_ms: f64) -> Row {
    let tb = Testbed::build(TestbedConfig::wide(4, 8, 777));
    let class = tb.register_class("bulk", 5, 16);
    tb.tick(SimDuration::from_secs(1));
    tb.preload_reservations(preload, class);
    // Placement is reservation-dominated (one wide-area round per
    // mapping); emulate the wire for the whole measured region. The
    // kill_object cleanup is a direct host call and meters no messages.
    tb.fabric.set_wire_emulation(WIRE_NS_PER_SIM_US);

    let scheduler = RandomScheduler::new(99);
    let enactor = Enactor::new(tb.fabric.clone());
    let driver = ScheduleDriver::new(std::sync::Arc::new(scheduler), std::sync::Arc::new(enactor));
    let ctx = tb.ctx();
    let requests: Vec<PlacementRequest> =
        (0..32).map(|_| PlacementRequest::new().class(class, 2)).collect();

    let cleanup = |reports: &[Result<DriverReport, LegionError>]| -> usize {
        let mut placed = 0;
        for r in reports.iter().flatten() {
            for (m, inst) in &r.placed {
                placed += 1;
                if let Some(h) = tb.fabric.lookup_host(m.host) {
                    let _ = h.kill_object(*inst);
                }
            }
        }
        placed
    };

    let serial_ns = median_ns(samples, target_ms, || {
        let reports = driver.place_many(&requests, &ctx, 1);
        cleanup(&reports)
    });
    let parallel_ns = median_ns(samples, target_ms, || {
        let reports = driver.place_many(&requests, &ctx, 8);
        cleanup(&reports)
    });
    Row { part: "place_many", label: "32 placements, looped place vs 8 workers", serial_ns, parallel_ns }
}

/// How many schedules run against each churn event in the steady tier:
/// the amortization window the cache exploits (one patch or recompute,
/// then epoch-validated hits for the rest of the batch).
const SCHEDULES_PER_CHURN: usize = 8;

fn steady_attrs(vault: Loid, memory_mb: i64) -> legion::core::AttributeDb {
    legion::core::AttributeDb::new()
        .with(well_known::ARCH, "mips")
        .with(well_known::OS_NAME, "IRIX")
        .with(well_known::MEMORY_MB, memory_mb)
        .with(
            well_known::COMPATIBLE_VAULTS,
            AttrValue::List(vec![AttrValue::Str(vault.to_string())]),
        )
}

/// Part C: steady-state scheduling over a `records`-strong synthetic
/// Collection with `churn_pct`% of records refreshed (pull-daemon
/// style `replace`) before each batch of [`SCHEDULES_PER_CHURN`]
/// schedules. Serial arm: candidate cache disabled, so every schedule
/// pays the full indexed query plus per-record candidate
/// materialization. Parallel arm: the epoch-validated cache patches
/// once from the delta log and serves the rest of the batch by epoch
/// compare. Schedules only — enactment is parts A/B's subject; this
/// tier isolates the Fig. 7 "query the Collection" step the cache
/// amortizes.
fn cached_steady(
    records: usize,
    churn_pct: usize,
    part: &'static str,
    label: &'static str,
    samples: usize,
    target_ms: f64,
) -> Row {
    let tb = Testbed::build(TestbedConfig::local(4, 31337));
    let class = tb.register_class("steady", 25, 64);
    tb.tick(SimDuration::from_secs(1));

    // The scheduled-over population is synthetic: `records` member
    // descriptions in a dedicated Collection (the testbed only provides
    // the fabric and the registered class).
    let collection = Collection::new(0x57EAD);
    collection.enable_deltas(16_384);
    let vault = tb.vault_loids[0];
    let creds: Vec<MemberCredential> = (0..records)
        .map(|i| {
            collection.join_with(
                Loid::synthetic(LoidKind::Host, 10_000 + i as u64),
                steady_attrs(vault, 256 + (i % 8) as i64 * 64),
                SimTime::ZERO,
            )
        })
        .collect();

    let scheduler = RandomScheduler::new(4242);
    let request = PlacementRequest::new().class(class, 2);
    let churn = (records * churn_pct / 100).max(1);

    let mut tick = 0u64;
    let mut offset = 0usize;
    let mut run = |cache_on: bool| -> f64 {
        let ctx = SchedCtx::new(tb.fabric.clone(), Arc::clone(&collection));
        ctx.set_candidate_cache_enabled(cache_on);
        let ns = median_ns(samples, target_ms, || {
            tick += 1;
            let t = SimTime::from_secs(tick);
            // Refresh a rotating churn window, as the pull daemon would.
            for k in 0..churn {
                let i = (offset + k) % records;
                collection
                    .replace(&creds[i], steady_attrs(vault, 256 + (tick % 8) as i64 * 64), t)
                    .expect("member present");
            }
            offset = (offset + churn) % records;
            let mut mapped = 0usize;
            for _ in 0..SCHEDULES_PER_CHURN {
                let sched = scheduler.compute_schedule(&request, &ctx).expect("schedules");
                mapped += sched.schedules[0].master.len();
            }
            mapped
        });
        if cache_on {
            let stats = ctx.candidate_cache_stats();
            assert!(stats.hits > 0, "steady tier never hit the cache: {stats:?}");
            if churn <= records / 4 {
                assert!(stats.patched > 0, "within-budget churn never patched: {stats:?}");
            }
        }
        ns
    };
    let serial_ns = run(false);
    let parallel_ns = run(true);
    Row { part, label, serial_ns, parallel_ns }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("BENCH_QUICK").is_ok_and(|v| v == "1");
    let (samples, target_ms, preload_a, preload_b) =
        if quick { (5, 5.0, 256, 128) } else { (15, 60.0, 1024, 512) };
    let steady_records = if quick { 2_000 } else { 10_000 };

    let rows = [
        coalloc(preload_a, samples, target_ms),
        bulk_place(preload_b, samples, target_ms),
        cached_steady(
            steady_records,
            5,
            "cached_steady",
            "steady state, 5% churn per 8-schedule batch: uncached query vs candidate cache",
            samples,
            target_ms,
        ),
        cached_steady(
            steady_records,
            50,
            "cached_steady_highchurn",
            "steady state, 50% churn per 8-schedule batch: over patch budget, recompute fallback",
            samples,
            target_ms,
        ),
    ];
    for r in &rows {
        println!(
            "place_throughput/{}: serial {:>12.0} ns, parallel {:>12.0} ns, speedup {:>6.2}x  ({})",
            r.part,
            r.serial_ns,
            r.parallel_ns,
            r.serial_ns / r.parallel_ns,
            r.label,
        );
    }
    let coalloc_speedup = rows[0].serial_ns / rows[0].parallel_ns;
    let place_many_speedup = rows[1].serial_ns / rows[1].parallel_ns;
    let cached_steady_speedup = rows[2].serial_ns / rows[2].parallel_ns;
    assert!(
        cached_steady_speedup >= 3.0,
        "candidate cache steady-state tier must hold >= 3x at {steady_records} records / 5% churn, \
         got {cached_steady_speedup:.2}x"
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"place_throughput\",\n");
    json.push_str("  \"schema_version\": 1,\n");
    json.push_str(&format!("  \"mode\": \"{}\",\n", if quick { "quick" } else { "full" }));
    json.push_str(&format!("  \"samples_per_measurement\": {samples},\n"));
    json.push_str(&format!("  \"preload_reservations_per_host\": [{preload_a}, {preload_b}],\n"));
    json.push_str(&format!(
        "  \"wire_emulation_ns_per_sim_us\": {WIRE_NS_PER_SIM_US},\n"
    ));
    json.push_str(
        "  \"before\": \"serial: fanout 1 fill pass / looped ScheduleDriver::place, emulated WAN waits paid back-to-back\",\n",
    );
    json.push_str(
        "  \"after\": \"parallel: 8-wide reservation fan-out / place_many with 8 workers, same emulated WAN waits overlapped\",\n",
    );
    json.push_str(&format!(
        "  \"headline_coalloc_fanout8_speedup\": {coalloc_speedup:.2},\n"
    ));
    json.push_str(&format!(
        "  \"headline_place_many_32x8_speedup\": {place_many_speedup:.2},\n"
    ));
    json.push_str(&format!("  \"steady_records\": {steady_records},\n"));
    json.push_str(&format!(
        "  \"steady_schedules_per_churn\": {SCHEDULES_PER_CHURN},\n"
    ));
    json.push_str(&format!(
        "  \"headline_cached_place_steady_speedup\": {cached_steady_speedup:.2},\n"
    ));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"part\": \"{}\", \"label\": \"{}\", \"serial_ns_per_cycle\": {:.0}, \"parallel_ns_per_cycle\": {:.0}, \"speedup\": {:.2}}}{}\n",
            r.part,
            r.label,
            r.serial_ns,
            r.parallel_ns,
            r.serial_ns / r.parallel_ns,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_place_throughput.json");
    std::fs::write(out, &json).expect("write BENCH_place_throughput.json");
    println!("wrote {out}");
}
