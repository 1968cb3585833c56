//! E-C10: the candidate-cache churn sweep backing `patch_budget`.

use crate::table::Table;
use legion_collection::Collection;
use legion_core::host::well_known;
use legion_core::{
    AttrValue, AttributeDb, ClassReport, Loid, LoidKind, ObjectImplementation, SimDuration,
    SimTime,
};
use legion_fabric::{DomainTopology, Fabric};
use legion_schedulers::SchedCtx;
use std::sync::Arc;

const RECORDS: usize = 10_000;
/// Churn events (each followed by one cached serve) per sweep point.
const ITERS: u64 = 5;

fn member(i: usize) -> Loid {
    Loid::synthetic(LoidKind::Host, 50_000 + i as u64)
}

/// Memory rotates through 128..576 MB as `tick` advances, so upserts
/// keep flipping records across the `>= 256` predicate boundary.
fn attrs(vault: Loid, i: usize, tick: u64) -> AttributeDb {
    AttributeDb::new()
        .with(well_known::ARCH, "mips")
        .with(well_known::OS_NAME, "IRIX")
        .with(well_known::MEMORY_MB, 128 + ((i as u64 + tick) % 8) as i64 * 64)
        .with(
            well_known::COMPATIBLE_VAULTS,
            AttrValue::List(vec![AttrValue::from(vault.to_string())]),
        )
}

fn report() -> ClassReport {
    ClassReport {
        class: Loid::synthetic(LoidKind::Class, 10),
        name: "steady".to_string(),
        implementations: vec![ObjectImplementation::new("mips", "IRIX")],
        memory_mb: 64,
        cpu_centis: 25,
        comm_bytes_per_cycle: 0,
    }
}

fn serve(ctx: &SchedCtx) {
    ctx.shared_candidates_for(&report(), Some("$host_memory_mb >= 256")).expect("query compiles");
}

/// E-C10: how much evaluation work a cached serve does as per-serve
/// churn grows, versus the full query it replaces. The counters are
/// deterministic (the e2e `churn_10k` workload carries the
/// wall-clock): `patched` serves re-evaluate only the churned records,
/// and the `len/4` patch budget (2 500 here) is where the cache
/// switches to the indexed recompute — between the 25% and 50% rows.
pub fn e_c10_candidate_cache_churn() -> Table {
    let mut t = Table::new(
        "E-C10",
        "Candidate cache churn sweep: 10k records, 1 serve per churn event, patch budget len/4 = 2500",
        &["churn per serve", "cache path", "re-evaluated per serve", "uncached scan per serve", "work vs uncached"],
    );
    for churn_pct in [0usize, 1, 5, 10, 25, 50] {
        let fabric = Fabric::new(
            DomainTopology::uniform(1, SimDuration::from_micros(10), SimDuration::from_millis(1)),
            11,
        );
        let collection = Collection::new(0xC10);
        collection.set_metrics(Arc::clone(fabric.metrics()));
        collection.enable_deltas(16_384);
        let vault = Loid::synthetic(LoidKind::Vault, 10);
        let creds: Vec<_> = (0..RECORDS)
            .map(|i| collection.join_with(member(i), attrs(vault, i, 0), SimTime::ZERO))
            .collect();
        let cached = SchedCtx::new(Arc::clone(&fabric), Arc::clone(&collection));
        let uncached = SchedCtx::new(Arc::clone(&fabric), Arc::clone(&collection));
        uncached.set_candidate_cache_enabled(false);

        serve(&cached); // prime: the one unavoidable full compute
        let churn = RECORDS * churn_pct / 100;
        let mut offset = 0usize;
        let mut reevaluated = 0u64;
        for tick in 1..=ITERS {
            let now = SimTime::from_secs(tick);
            for k in 0..churn {
                let i = (offset + k) % RECORDS;
                collection.replace(&creds[i], attrs(vault, i, tick), now).expect("member");
            }
            offset = (offset + churn) % RECORDS;
            let before = fabric.metrics().snapshot();
            serve(&cached);
            reevaluated += fabric.metrics().snapshot().delta(&before).collection_records_scanned;
        }
        let stats = cached.candidate_cache_stats();
        let path = if stats.hits >= ITERS {
            "hit"
        } else if stats.patched >= ITERS {
            "patched"
        } else {
            "recompute"
        };

        let before = fabric.metrics().snapshot();
        serve(&uncached);
        let scan = fabric.metrics().snapshot().delta(&before).collection_records_scanned;

        let per_serve = reevaluated / ITERS;
        t.row(vec![
            format!("{churn_pct}% ({churn})"),
            path.to_string(),
            per_serve.to_string(),
            scan.to_string(),
            format!("{:.1}%", per_serve as f64 * 100.0 / scan as f64),
        ]);
    }
    t
}
