//! The determinism law, property-tested at the fabric level.
//!
//! For *any* seed and *any* synthetic event load — actor tasks pinned to
//! domains, lossy links, virtual-time sleeps, a fault plan with a
//! partition and a link burst — two runs of the discrete-event scheduler
//! must produce byte-identical `legion-trace/v1` JSON exports, identical
//! `MetricsLedger` snapshots, and the same event schedule. Everything
//! here uses `Loid::synthetic`, so no global state leaks between runs
//! and the law holds without the LOID replay guard.

use legion_core::{
    AttributeDb, LegionError, Loid, LoidKind, Opr, SimDuration, SimTime, SpanKind, StorageStats,
    VaultObject,
};
use legion_fabric::{
    DomainId, DomainTopology, Fabric, FaultAction, FaultPlan, MetricsSnapshot, SimHandle,
    SimRunStats,
};
use proptest::prelude::*;
use std::sync::Arc;

/// A vault that exists only to pin a synthetic LOID to a domain, so
/// `Fabric::link` resolves cross-domain paths without a full host stack.
struct PinnedEndpoint(Loid);

impl VaultObject for PinnedEndpoint {
    fn loid(&self) -> Loid {
        self.0
    }
    fn attributes(&self) -> AttributeDb {
        AttributeDb::new()
    }
    fn store_opr(&self, _opr: Opr) -> Result<(), LegionError> {
        Ok(())
    }
    fn fetch_opr(&self, object: Loid) -> Result<Opr, LegionError> {
        Err(LegionError::NetworkFailure { from: self.0, to: object })
    }
    fn delete_opr(&self, _object: Loid) -> Result<(), LegionError> {
        Ok(())
    }
    fn holds(&self, _object: Loid) -> bool {
        false
    }
    fn compatible_with_host(&self, _host_attrs: &AttributeDb) -> bool {
        true
    }
    fn storage(&self) -> StorageStats {
        StorageStats { capacity_bytes: 0, used_bytes: 0, opr_count: 0 }
    }
}

/// One actor task in the synthetic load: starts at `start_us`, then
/// alternates lossy cross-domain messages with virtual sleeps.
#[derive(Debug, Clone)]
struct TaskPlan {
    start_us: u32,
    hops: Vec<(u8, u8, u32)>,
}

fn task_plan() -> impl Strategy<Value = TaskPlan> {
    (
        0u32..3_000_000,
        proptest::collection::vec((0u8..3, 0u8..3, 0u32..400_000), 1..10),
    )
        .prop_map(|(start_us, hops)| TaskPlan { start_us, hops })
}

/// Runs the synthetic load once and returns everything observable.
fn run_once(seed: u64, load: &[TaskPlan]) -> (String, MetricsSnapshot, SimRunStats, String) {
    let topo = DomainTopology::uniform(
        3,
        SimDuration::from_micros(200),
        SimDuration::from_millis(5),
    );
    let fabric = Fabric::new(topo, seed);
    // Seed-derived loss everywhere, so every hop draws from the shared
    // deterministic stream.
    let p = 0.05 + (seed % 25) as f64 / 100.0;
    fabric.with_topology(|t| {
        for a in 0..3u16 {
            for b in 0..3u16 {
                t.set_drop_prob(DomainId(a), DomainId(b), p);
            }
        }
    });
    let endpoints: Vec<Loid> = (0..3u64)
        .map(|d| {
            let loid = Loid::synthetic(LoidKind::Vault, 900 + d);
            fabric.register_vault(Arc::new(PinnedEndpoint(loid)), DomainId(d as u16));
            loid
        })
        .collect();
    let sink = fabric.enable_tracing();
    let sim = SimHandle::new(Arc::clone(fabric.clock()));
    fabric.attach_sim(sim.clone());
    fabric.set_wire_emulation(true);

    // A fault plan that actually bites: one partition, one link burst,
    // each firing (and healing) as its own scheduled event.
    let plan = FaultPlan::new()
        .at(
            SimTime::from_secs(1),
            FaultAction::Partition {
                a: DomainId(0),
                b: DomainId(1),
                heal_at: SimTime::from_secs(2),
            },
        )
        .at(
            SimTime::from_secs(2),
            FaultAction::DegradeLinks {
                drop_prob: 0.5,
                extra_latency: SimDuration::from_millis(40),
                until: SimTime::from_secs(3),
            },
        );
    for at in plan.firing_times() {
        let fabric = Arc::clone(&fabric);
        sim.schedule_at(at, format!("faults@{at}"), move |h| fabric.fire_due_faults(h.now()));
    }
    fabric.install_fault_plan(plan);

    for (i, task) in load.iter().enumerate() {
        let fabric = Arc::clone(&fabric);
        let sink = Arc::clone(&sink);
        let endpoints = endpoints.clone();
        let task = task.clone();
        sim.schedule_at(
            SimTime::from_micros(task.start_us as u64),
            format!("arrive:{i}"),
            move |h| {
                h.spawn(format!("task-{i}"), move |h| {
                    let episode =
                        sink.begin_episode("prop-task", endpoints[i % endpoints.len()]);
                    episode.attr("task", i as i64);
                    for (hop, (from, to, gap)) in task.hops.iter().enumerate() {
                        let span = sink.span(SpanKind::ReserveAttempt);
                        span.attr("hop", hop as i64);
                        let delivered = fabric
                            .link(
                                endpoints[*from as usize % 3],
                                endpoints[*to as usize % 3],
                            )
                            .is_ok();
                        span.attr("delivered", delivered);
                        drop(span);
                        h.sleep(SimDuration::from_micros(*gap as u64));
                    }
                });
            },
        );
    }

    let stats = sim.run().unwrap_or_else(|e| panic!("{e}"));
    let schedule = sim.format_schedule(usize::MAX);
    fabric.detach_sim();
    (legion_trace::trace_json(&sink), fabric.metrics().snapshot(), stats, schedule)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The determinism law: seed + load fully determine the run.
    #[test]
    fn two_runs_are_byte_identical(
        seed in any::<u64>(),
        load in proptest::collection::vec(task_plan(), 1..12),
    ) {
        let (json_a, metrics_a, stats_a, sched_a) = run_once(seed, &load);
        let (json_b, metrics_b, stats_b, sched_b) = run_once(seed, &load);
        prop_assert_eq!(stats_a, stats_b, "event counts diverged");
        prop_assert_eq!(&sched_a, &sched_b, "event schedules diverged");
        prop_assert_eq!(metrics_a, metrics_b, "ledger snapshots diverged");
        prop_assert!(json_a == json_b, "trace JSON diverged for seed {:#x}", seed);
        prop_assert!(json_a.contains("legion-trace/v1"), "export carries the schema tag");
        // The load was not degenerate: messages were metered and traced.
        prop_assert!(metrics_a.messages > 0);
        prop_assert!(json_a.contains("prop-task"));
    }
}
