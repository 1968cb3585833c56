//! The traced run of a placement workload: per-layer metrics only.
//!
//! Four phases on one bed, after the same set-up as the measured run:
//!
//! 1. *counted* — a fixed number of black-box requests, so every ledger
//!    count and ratio repeats exactly for a seed;
//! 2. *layered* — the benchmark walks `submit`'s steps itself and
//!    records a span around every call into a layer, in blocks that
//!    alternate with black-box blocks for the base they are held to;
//! 3. *probes* — direct calls into sub-layer public functions;
//! 4. *program-traced* — black-box requests with the program's own
//!    tracing on, again alternating with untraced blocks.
//!
//! Blocks alternate because a bed drifts while it runs (reservation
//! tables fill with dead entries between compactions, caches settle):
//! two phases run one after the other would differ by the drift alone.

use crate::affinity::{self, Pin};
use crate::bed::{Bed, BedKind};
use crate::measure::RunOutput;
use crate::spans::{NameTotal, Recorder};
use crate::stats::{mean, ratio};
use legion::core::{
    HostObject, Loid, LoidKind, Opr, ReservationRequest, SimDuration, VaultDirectory,
};
use legion::fabric::MetricsSnapshot;
use legion::trace::trace_json;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Requests in the counted phase.
const COUNTED_REQUESTS: u64 = 5_000;
/// Requests per block of the layered phase (black box, then layered).
const LAYERED_BLOCK: u64 = 500;
/// The program-traced phase: blocks of untraced then traced requests;
/// the spans of the last `EXPORT_BLOCKS` traced blocks are exported.
const TRACED_BLOCK: u64 = 1_000;
const TRACED_BLOCKS: u64 = 5;
const EXPORT_BLOCKS: u64 = 2;
/// Full-bed ticks in the recompute probe (each reassesses and pulls
/// every host, which is seconds at 50,000 hosts).
const RECOMPUTE_TICKS: usize = 2;
const BATCH: usize = 64;

/// The stages of `submit`, in order; their span totals should add up to
/// what the black box measures.
const STAGES: [&str; 5] = [
    "ingress.admit",
    "schedulers.compute_schedule",
    "schedule.make_reservations",
    "schedule.enact_schedule",
    "ingress.conclude",
];

/// Mean nanoseconds per call of `op`, timing batches of 32 calls until
/// `budget` is spent.
fn probe_ns(budget: Duration, mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < budget {
        for _ in 0..32 {
            op();
        }
        calls += 32;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// As [`probe_ns`] for an `op` that times part of itself.
fn probe_part_ns(budget: Duration, mut op: impl FnMut() -> Duration) -> f64 {
    let start = Instant::now();
    let mut timed = Duration::ZERO;
    let mut calls = 0u64;
    while start.elapsed() < budget {
        timed += op();
        calls += 1;
    }
    timed.as_nanos() as f64 / calls as f64
}

/// The ledger's counts over `requests` requests, as the ratios the
/// contract names. Exact for a seed when `requests` is a fixed number.
pub fn ledger_ratios(d: &MetricsSnapshot, requests: u64) -> Vec<(&'static str, f64)> {
    vec![
        (
            "collection.records_scanned_per_placement",
            ratio(d.collection_records_scanned, requests),
        ),
        (
            "collection.queries_per_placement",
            ratio(d.collection_queries, requests),
        ),
        (
            "schedule.schedules_attempted_per_reserved",
            ratio(d.schedules_attempted, d.schedules_reserved),
        ),
        (
            "schedule.cancelled_per_granted",
            ratio(d.reservations_cancelled, d.reservations_granted),
        ),
        (
            "schedule.thrash_per_placement",
            ratio(d.reservation_thrash, requests),
        ),
        (
            "schedule.backoffs_per_placement",
            ratio(d.enactor_backoffs, requests),
        ),
        (
            "schedule.messages_per_placement",
            ratio(d.messages, requests),
        ),
        (
            "fabric.sim_latency_us_per_placement",
            ratio(d.sim_latency_us, requests),
        ),
    ]
}

fn per_call(t: NameTotal) -> f64 {
    ratio(t.total_ns, t.count)
}

/// The per-layer metrics that come from the layered run's spans:
/// each stage's mean time per request, and how their sum compares with
/// the mean `submit` the black box saw beside them.
fn span_metrics(
    totals: &BTreeMap<&'static str, NameTotal>,
    requests: f64,
    black_box_ns: f64,
    wall_ns: f64,
) -> Vec<(&'static str, f64)> {
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let stage_ns: Vec<f64> = STAGES
        .iter()
        .map(|s| total(s).total_ns as f64 / requests)
        .collect();
    // In the measured run the delta patch after a churn step lands in
    // the next `submit`, so it belongs in the sum held against it.
    let refresh = total("schedulers.candidate_refresh");
    let refresh_ns = refresh.total_ns as f64 / requests;
    let stages_sum = stage_ns.iter().sum::<f64>() + refresh_ns;
    vec![
        ("ingress.admit_ns", stage_ns[0]),
        ("schedulers.compute_schedule_ns", stage_ns[1]),
        (
            "schedulers.compute_schedule_share",
            stage_ns[1] / stages_sum,
        ),
        ("schedule.make_reservations_ns", stage_ns[2]),
        ("schedule.enact_schedule_ns", stage_ns[3]),
        ("ingress.conclude_ns", stage_ns[4]),
        (
            "hosts.destroy_instance_ns",
            per_call(total("hosts.destroy_instance")),
        ),
        ("schedulers.candidate_refresh_ns", per_call(refresh)),
        (
            "collection.churn_wall_share",
            total("churn").total_ns as f64 / wall_ns,
        ),
        ("layers.sum_over_e2e", stages_sum / black_box_ns),
        (
            "bench.recorder_over_measured",
            (total("submit").total_ns as f64 / requests + refresh_ns) / black_box_ns,
        ),
    ]
}

pub fn layered(
    kind: BedKind,
    seed: u64,
    seconds: f64,
    pin: &Pin,
    spans_out: Option<&str>,
) -> RunOutput {
    let mut bed = Bed::set_up(kind, seed);
    let phase = Duration::from_secs_f64(seconds / 4.0);
    let probe = Duration::from_secs_f64(seconds / 96.0);
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();

    // Phase 1: counted.
    let (ledger0, cache0) = (bed.ledger(), bed.cache_stats());
    for _ in 0..COUNTED_REQUESTS {
        bed.request_black_box();
    }
    let counted = bed.tally;
    let d = bed.ledger().delta(&ledger0);
    let cache1 = bed.cache_stats();
    println!("counted phase: {counted:?}");

    let (hits, patched, misses) = (
        cache1.hits - cache0.hits,
        cache1.patched - cache0.patched,
        cache1.misses - cache0.misses,
    );
    metrics.extend([
        (
            "failed_share",
            ratio(counted.failed + counted.rejected, counted.submitted),
        ),
        (
            "ingress.rejected_share",
            ratio(counted.rejected, counted.submitted),
        ),
        (
            "schedulers.cache_hit_share",
            ratio(hits, hits + patched + misses),
        ),
        ("schedulers.cache_patched", patched as f64),
        ("schedulers.cache_misses", misses as f64),
        (
            "schedulers.cache_gap_resyncs",
            (cache1.gap_resyncs - cache0.gap_resyncs) as f64,
        ),
        (
            "schedulers.generations_per_placement",
            ratio(counted.generations, counted.placed),
        ),
        (
            "schedulers.reservation_rounds_per_placement",
            ratio(counted.reservation_rounds, counted.placed),
        ),
        (
            "collection.updates_per_churn",
            ratio(d.collection_updates, counted.churn_steps),
        ),
    ]);
    metrics.extend(ledger_ratios(&d, counted.submitted));

    // Phase 2: layered, against a black box measured alongside it.
    let mut rec = Recorder::with_capacity(1 << 21);
    let (mut opaque, mut layered_wall) = (Duration::ZERO, Duration::ZERO);
    let mut blocks = 0;
    let start = Instant::now();
    while start.elapsed() < phase * 2 {
        for _ in 0..LAYERED_BLOCK {
            opaque += bed.request_black_box();
        }
        let block = Instant::now();
        for _ in 0..LAYERED_BLOCK {
            bed.request_layered(&mut rec);
        }
        layered_wall += block.elapsed();
        blocks += 1;
    }
    let requests = (blocks * LAYERED_BLOCK) as f64;
    let black_box_ns = opaque.as_nanos() as f64 / requests;
    let wall_ns = layered_wall.as_nanos() as f64;
    let totals = rec.totals();
    println!(
        "layered run: {requests} requests and {} spans, beside {requests} black-box requests of mean {black_box_ns:.0} ns; by span name:",
        rec.len()
    );
    for (name, t) in &totals {
        println!(
            "  {name}: {} spans, {:.0} ns each, self {:.1}% of wall",
            t.count,
            per_call(*t),
            100.0 * t.self_ns as f64 / wall_ns
        );
    }
    metrics.extend(span_metrics(&totals, requests, black_box_ns, wall_ns));
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let regional_pull = total("collection.pull");
    if let Some(path) = spans_out {
        rec.write_tsv(path).expect("write spans");
        println!("wrote {} spans to {path}", rec.len());
    }
    drop(rec);

    // Phase 3: probes.
    let fabric = &bed.tb.fabric;
    let ctx = bed.door.ctx();
    let report = ctx.class_report(bed.class).expect("class registered");
    let host = &bed.tb.unix_hosts[1]; // host 0 is blocked on coalloc_8x125
    let vault_loid = host.get_compatible_vaults()[0];
    let vault = fabric.lookup_vault(vault_loid).expect("vault registered");
    let now = fabric.clock().now();
    let reservation =
        ReservationRequest::instantaneous(bed.class, vault_loid, SimDuration::from_secs(3600))
            .with_demand(report.cpu_centis, report.memory_mb);
    let imp = &report.implementations[0];
    let query = ctx
        .compiled_query(&format!(
            r#"(($host_arch == "{}" and $host_os_name == "{}"))"#,
            imp.arch, imp.os
        ))
        .expect("candidate query parses");
    let scratch_object = Loid::fresh(LoidKind::Instance);

    metrics.extend([
        (
            "schedulers.candidate_serve_hit_ns",
            probe_ns(probe, || {
                black_box(ctx.shared_candidates_for(&report, None).expect("serve"));
            }),
        ),
        (
            "collection.query_ns",
            probe_part_ns(probe, || {
                let start = Instant::now();
                black_box(bed.tb.collection.query_parsed(&query));
                start.elapsed()
            }),
        ),
        (
            "hosts.make_reservation_ns",
            probe_ns(probe, || {
                let token = host
                    .make_reservation(&reservation, now)
                    .expect("free host grants");
                host.cancel_reservation(&token).expect("cancel own token");
            }),
        ),
        (
            "hosts.attributes_ns",
            probe_ns(probe, || {
                black_box(host.attributes());
            }),
        ),
        (
            "hosts.reassess_ns",
            probe_ns(probe, || {
                black_box(host.reassess(now));
            }),
        ),
        (
            "core.create_instance_ns",
            probe_part_ns(probe, || {
                bed.start_and_destroy(host).expect("free host grants")
            }),
        ),
        (
            "vaults.store_delete_opr_ns",
            probe_ns(probe, || {
                vault
                    .store_opr(Opr::new(scratch_object, bed.class, now, Vec::new()))
                    .expect("vault has room");
                vault.delete_opr(scratch_object).expect("delete own OPR");
            }),
        ),
        (
            "fabric.link_ns",
            probe_ns(probe, || {
                black_box(fabric.link(bed.class, host.loid()).expect("lossless link"));
            }),
        ),
        (
            "fabric.registry_ns",
            probe_ns(probe, || {
                black_box(fabric.registry().lookup_host(host.loid()));
            }),
        ),
    ]);

    // First serve after a full tick: every record changed, which is
    // past the cache's patch budget (or, with deltas off, unpatchable),
    // so the candidate set is recomputed from the Collection.
    let misses_before = bed.cache_stats().misses;
    let mut pulls = Vec::new();
    let mut recomputes = Vec::new();
    for _ in 0..RECOMPUTE_TICKS {
        let now = fabric.clock().advance(SimDuration::from_secs(1));
        fabric.reassess_all(now);
        let start = Instant::now();
        let pulled = bed.tb.daemon.pull_once(now);
        pulls.push(start.elapsed().as_nanos() as f64 / pulled as f64);
        let start = Instant::now();
        black_box(ctx.shared_candidates_for(&report, None).expect("serve"));
        recomputes.push(start.elapsed().as_nanos() as f64);
    }
    let recomputed = bed.cache_stats().misses - misses_before;
    let pull_ns_per_host = if regional_pull.count > 0 {
        regional_pull.total_ns as f64 / (regional_pull.count * bed.hosts_per_region() as u64) as f64
    } else {
        mean(&pulls)
    };
    metrics.extend([
        ("schedulers.candidate_recompute_ns", mean(&recomputes)),
        ("collection.pull_ns_per_host", pull_ns_per_host),
    ]);

    // Batches hold what they place until the whole batch is in, so 64
    // eight-instance requests would fill the bed and fail; the batch
    // probes run where a request is one instance.
    if kind.instances() == 1 {
        let w1 = probe_part_ns(probe * 4, || bed.batch_black_box(BATCH, 1)) / BATCH as f64;
        affinity::restrict_to(&pin.all).expect("widen affinity for the 2-worker probe");
        let w2 = probe_part_ns(probe * 4, || bed.batch_black_box(BATCH, 2)) / BATCH as f64;
        affinity::restrict_to(&pin.one).expect("pin again after the 2-worker probe");
        metrics.extend([
            ("ingress.submit_many_b64_w1_ns", w1),
            ("ingress.submit_many_b64_w2_ns", w2),
        ]);
    }

    // Phase 4: the program's own tracing.
    let sink = std::sync::Arc::clone(bed.tb.fabric.tracer());
    let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
    let mut spans = 0;
    for block in 0..TRACED_BLOCKS {
        sink.disable();
        for _ in 0..TRACED_BLOCK {
            untraced += bed.request_black_box();
        }
        if block == TRACED_BLOCKS - EXPORT_BLOCKS {
            spans += sink.spans().len();
            sink.clear();
        }
        sink.enable();
        for _ in 0..TRACED_BLOCK {
            traced += bed.request_black_box();
        }
    }
    sink.disable();
    let exported = sink.spans().len();
    let start = Instant::now();
    black_box(trace_json(&sink));
    let export_ns = start.elapsed().as_nanos() as f64;
    sink.clear();
    let traced_requests = (TRACED_BLOCKS * TRACED_BLOCK) as f64;
    metrics.extend([
        (
            "trace.enabled_over_disabled",
            traced.as_secs_f64() / untraced.as_secs_f64(),
        ),
        (
            "trace.spans_per_placement",
            (spans + exported) as f64 / traced_requests,
        ),
        ("trace.export_ns_per_span", export_ns / exported as f64),
    ]);

    let mut problems = bed.check_outputs();
    if recomputed != RECOMPUTE_TICKS as u64 {
        problems.push(format!(
            "{recomputed} recomputes after {RECOMPUTE_TICKS} full ticks"
        ));
    }
    RunOutput {
        attempted: bed.tally.submitted,
        failed: bed.tally.failed + bed.tally.rejected,
        metrics,
        problems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_means_sum_to_the_black_box() {
        let spans = |count, total_ns| NameTotal {
            count,
            total_ns,
            self_ns: total_ns,
        };
        // 10 requests; one needed a second reservation round.
        let totals = BTreeMap::from([
            ("ingress.admit", spans(10, 1_000)),
            ("schedulers.compute_schedule", spans(10, 25_000)),
            ("schedule.make_reservations", spans(11, 44_000)),
            ("schedule.enact_schedule", spans(10, 29_000)),
            ("ingress.conclude", spans(10, 1_000)),
            ("submit", spans(10, 104_000)),
            ("hosts.destroy_instance", spans(10, 5_000)),
        ]);
        let m: BTreeMap<_, _> = span_metrics(&totals, 10.0, 10_000.0, 200_000.0)
            .into_iter()
            .collect();
        assert_eq!(m["schedule.make_reservations_ns"], 4_400.0);
        assert_eq!(m["schedulers.compute_schedule_share"], 0.25);
        assert_eq!(m["layers.sum_over_e2e"], 1.0);
        assert_eq!(m["bench.recorder_over_measured"], 1.04);
        assert_eq!(m["hosts.destroy_instance_ns"], 500.0);
        assert_eq!(m["schedulers.candidate_refresh_ns"], 0.0);
        assert_eq!(m["collection.churn_wall_share"], 0.0);
    }

    #[test]
    fn a_refresh_timed_on_its_own_counts_towards_the_sum() {
        let spans = |count, total_ns| NameTotal {
            count,
            total_ns,
            self_ns: total_ns,
        };
        let totals = BTreeMap::from([
            ("schedulers.compute_schedule", spans(100, 400_000)),
            ("schedulers.candidate_refresh", spans(2, 600_000)),
            ("submit", spans(100, 400_000)),
            ("churn", spans(2, 1_000_000)),
        ]);
        let m: BTreeMap<_, _> = span_metrics(&totals, 100.0, 10_000.0, 2_000_000.0)
            .into_iter()
            .collect();
        assert_eq!(m["layers.sum_over_e2e"], 1.0);
        assert_eq!(m["schedulers.candidate_refresh_ns"], 300_000.0);
        assert_eq!(m["collection.churn_wall_share"], 0.5);
    }
}
