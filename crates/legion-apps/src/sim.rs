//! Whole-system simulation scenarios over the discrete-event scheduler.
//!
//! [`crate::Testbed`] plus [`legion_fabric::SimHandle`] gives a
//! simulation harness in the GridSim mould: the full RMI pipeline
//! (Scheduler → Enactor → Hosts, with the Collection daemon, Watchdog
//! and Rebalancer riding along) runs as scheduled events and actor-style
//! tasks, so a chaos soak that takes minutes of ticking under the
//! scoped-thread path executes thousands of concurrent placement
//! episodes in well under a second of wall clock — deterministically.
//!
//! Three ready-made scenarios:
//!
//! * [`run_chaos_soak`] — an open-loop placement stream under host
//!   churn, partitions and link bursts; every arrival is a sim task that
//!   retries with sim-time gaps, dwells, and departs.
//! * [`run_rebalance_sim`] — the skewed-load rebalancing soak as pure
//!   events: pile-up, closed-loop sweeps, chaos, convergence.
//! * [`seed_sweep`] — runs a scenario across many seeds and panics with
//!   the failing seed's event schedule, so `SIM_SEED=<x>` reproduction
//!   is one read of the test log (see `docs/simulation.md`).

use crate::testbed::{Testbed, TestbedConfig};
use legion_core::{
    HostObject, Loid, ObjectSpec, PlacementRequest, ReservationRequest, SimDuration, SimTime,
};
use legion_fabric::{FaultAction, FaultCounts, FaultPlan, MetricsSnapshot, SimError, SimHandle};
use legion_monitor::{RebalanceConfig, Rebalancer, SweepReport, Watchdog};
use legion_schedule::{Enactor, EnactorConfig};
use legion_schedulers::{LoadAwareScheduler, ScheduleDriver, SchedCtx, Scheduler};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shape of a [`run_chaos_soak`] scenario. Everything derives from
/// `seed`; two runs of the same config are byte-identical (see the
/// determinism contract in `legion_fabric::sim`).
#[derive(Debug, Clone)]
pub struct SimSoakConfig {
    /// Master seed.
    pub seed: u64,
    /// Administrative domains in the bed.
    pub domains: usize,
    /// Unix hosts per domain.
    pub hosts_per_domain: usize,
    /// Placement episodes to submit.
    pub episodes: usize,
    /// Virtual time between episode arrivals.
    pub arrival_gap: SimDuration,
    /// Period of the maintenance tick (host reassessment, Collection
    /// pull, Watchdog patrol, stale-record eviction).
    pub tick: SimDuration,
    /// When the recurring maintenance tick stops (episodes keep running
    /// until their own retries drain).
    pub horizon: SimDuration,
    /// Crash/restart churn events in the fault plan.
    pub chaos_crashes: usize,
    /// How long each crashed host stays down.
    pub crash_down_for: SimDuration,
    /// Transient domain partitions in the fault plan.
    pub chaos_partitions: usize,
    /// How long each partition lasts.
    pub partition_lasting: SimDuration,
    /// Retries an episode attempts after a failed placement.
    pub max_retries: usize,
    /// Virtual time an episode waits between retries.
    pub retry_gap: SimDuration,
    /// How long a placed object runs before the episode destroys it.
    pub dwell: SimDuration,
    /// Enable wire emulation: with the sim attached, every metered
    /// message parks its episode for the link latency in *virtual* time
    /// (never a real sleep) — proves the latency-overlap path.
    pub wire_emulation: bool,
    /// Capture a `legion-trace/v1` JSON export in the report.
    pub trace: bool,
}

impl Default for SimSoakConfig {
    fn default() -> Self {
        SimSoakConfig {
            seed: 0x51D0_5EED,
            domains: 3,
            hosts_per_domain: 4,
            episodes: 300,
            arrival_gap: SimDuration::from_secs(8),
            tick: SimDuration::from_secs(30),
            horizon: SimDuration::from_secs(3600),
            chaos_crashes: 6,
            crash_down_for: SimDuration::from_secs(300),
            chaos_partitions: 3,
            partition_lasting: SimDuration::from_secs(60),
            max_retries: 6,
            retry_gap: SimDuration::from_secs(20),
            dwell: SimDuration::from_secs(120),
            wire_emulation: true,
            trace: true,
        }
    }
}

impl SimSoakConfig {
    /// The default scenario at a given seed.
    pub fn seeded(seed: u64) -> Self {
        SimSoakConfig { seed, ..Default::default() }
    }

    /// A bigger bed with `episodes` arrivals packed `gap` apart.
    pub fn with_episodes(mut self, episodes: usize, gap: SimDuration) -> Self {
        self.episodes = episodes;
        self.arrival_gap = gap;
        self
    }
}

/// Outcome of a [`run_chaos_soak`] scenario.
#[derive(Debug, Clone)]
pub struct SimSoakReport {
    /// Episodes submitted.
    pub submitted: u64,
    /// Episodes whose placement eventually succeeded.
    pub completed: u64,
    /// Episodes that exhausted their retries.
    pub failed: u64,
    /// Watchdog restart-from-OPR recoveries over the run.
    pub recoveries: u64,
    /// Planned fault totals (all fired by construction — the plan's
    /// horizon is inside the tick horizon).
    pub fault_counts: FaultCounts,
    /// Final ledger snapshot.
    pub metrics: MetricsSnapshot,
    /// `legion-trace/v1` export, when tracing was requested.
    pub trace_json: Option<String>,
    /// Scheduler statistics for the run.
    pub stats: legion_fabric::SimRunStats,
}

/// Shared per-tick maintenance state for the recurring tick event.
struct Ticker {
    tb: Testbed,
    dog: Watchdog,
    tick: SimDuration,
    horizon: SimTime,
    stale_ttl: SimDuration,
    recoveries: AtomicU64,
}

fn schedule_ticks(sim: &SimHandle, t: Arc<Ticker>, at: SimTime) {
    sim.schedule_at(at, "tick", move |h| {
        let now = h.now();
        t.tb.fabric.reassess_all(now);
        t.tb.daemon.pull_once(now);
        t.recoveries.fetch_add(t.dog.patrol(now).len() as u64, Ordering::Relaxed);
        t.tb.collection.evict_stale(now, t.stale_ttl);
        if now + t.tick <= t.horizon {
            let next = now + t.tick;
            schedule_ticks(h, Arc::clone(&t), next);
        }
    });
}

/// Schedules one [`legion_fabric::Fabric::fire_due_faults`] event at
/// every instant the plan changes state, then installs the plan. Fault
/// injections and partition heals land at their exact virtual times —
/// no tick quantisation.
pub fn schedule_fault_plan(sim: &SimHandle, fabric: &Arc<legion_fabric::Fabric>, plan: FaultPlan) {
    for at in plan.firing_times() {
        let fabric = Arc::clone(fabric);
        sim.schedule_at(at, format!("faults@{at}"), move |h| fabric.fire_due_faults(h.now()));
    }
    fabric.install_fault_plan(plan);
}

/// Runs the full-pipeline chaos soak as a discrete-event simulation and
/// returns its report, or the failing event schedule if anything inside
/// the simulation panicked.
pub fn run_chaos_soak(cfg: &SimSoakConfig) -> Result<SimSoakReport, SimError> {
    let tb = Testbed::build(TestbedConfig::wide(cfg.domains, cfg.hosts_per_domain, cfg.seed));
    let class = tb.register_class("sim-app", 20, 48);
    let sink = cfg.trace.then(|| tb.fabric.enable_tracing());
    let sim = SimHandle::new(Arc::clone(tb.fabric.clock()));
    tb.fabric.attach_sim(sim.clone());
    tb.fabric.set_wire_emulation(cfg.wire_emulation);

    // Chaos plan: churn + partitions, all inside the first 5/6 of the
    // horizon so every event (and heal) fires before the ticks stop.
    let plan_horizon = SimDuration::from_micros(cfg.horizon.as_micros() * 5 / 6);
    let mut plan = FaultPlan::new();
    if cfg.chaos_crashes > 0 {
        plan = plan.merge(FaultPlan::random_churn(
            &tb.fabric.rng(),
            &tb.host_loids,
            plan_horizon,
            cfg.chaos_crashes,
            cfg.crash_down_for,
        ));
    }
    if cfg.chaos_partitions > 0 && cfg.domains >= 2 {
        plan = plan.merge(FaultPlan::random_partitions(
            &tb.fabric.rng(),
            cfg.domains as u16,
            plan_horizon,
            cfg.chaos_partitions,
            cfg.partition_lasting,
        ));
    }
    let fault_counts = plan.counts();
    schedule_fault_plan(&sim, &tb.fabric, plan);

    let scheduler: Arc<dyn Scheduler> = Arc::new(LoadAwareScheduler::new());
    let enactor = Arc::new(Enactor::with_config(
        tb.fabric.clone(),
        EnactorConfig { deadline: Some(SimDuration::from_secs(45)), ..Default::default() },
    ));
    let ctx = Arc::new(SchedCtx::new(Arc::clone(&tb.fabric), Arc::clone(&tb.collection)));
    let class_obj = tb.fabric.lookup_class(class).expect("registered class");

    let completed = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));

    // Episode arrivals: each is a Run event spawning one actor-style
    // task, so an episode holds a pooled carrier thread only while live.
    for i in 0..cfg.episodes {
        let at = SimTime::ZERO + SimDuration::from_micros(cfg.arrival_gap.as_micros() * i as u64);
        let scheduler = Arc::clone(&scheduler);
        let enactor = Arc::clone(&enactor);
        let ctx = Arc::clone(&ctx);
        let class_obj = Arc::clone(&class_obj);
        let fabric = Arc::clone(&tb.fabric);
        let completed = Arc::clone(&completed);
        let failed = Arc::clone(&failed);
        let (max_retries, retry_gap, dwell) = (cfg.max_retries, cfg.retry_gap, cfg.dwell);
        sim.schedule_at(at, format!("arrive:ep-{i}"), move |h| {
            h.spawn(format!("ep-{i}"), move |h| {
                let driver = ScheduleDriver::new(Arc::clone(&scheduler), Arc::clone(&enactor));
                let request = PlacementRequest::new().class(class, 1);
                for attempt in 0..=max_retries {
                    match driver.place(&request, &ctx) {
                        Ok(report) => {
                            completed.fetch_add(1, Ordering::Relaxed);
                            let obj = report.placed[0].1;
                            // Dwell, then depart: the object's slot frees
                            // for later arrivals.
                            h.sleep(dwell);
                            let _ = class_obj.destroy_instance(obj, &*fabric);
                            return;
                        }
                        Err(_) if attempt < max_retries => h.sleep(retry_gap),
                        Err(_) => {}
                    }
                }
                failed.fetch_add(1, Ordering::Relaxed);
            });
        });
    }

    // Maintenance ticks: reassess → pull → patrol → evict, recurring.
    // Partitions last ≤2 probe periods; 4 allowed misses keeps the
    // Watchdog from declaring partitioned (not crashed) hosts dead.
    let ticker = Arc::new(Ticker {
        tb,
        dog: Watchdog::new(Arc::clone(&ctx.fabric), 4),
        tick: cfg.tick,
        horizon: SimTime::ZERO + cfg.horizon,
        stale_ttl: SimDuration::from_secs(150),
        recoveries: AtomicU64::new(0),
    });
    schedule_ticks(&sim, Arc::clone(&ticker), SimTime::ZERO + cfg.tick);

    let stats = sim.run()?;
    ticker.tb.fabric.detach_sim();

    Ok(SimSoakReport {
        submitted: cfg.episodes as u64,
        completed: completed.load(Ordering::Relaxed),
        failed: failed.load(Ordering::Relaxed),
        recoveries: ticker.recoveries.load(Ordering::Relaxed),
        fault_counts,
        metrics: ticker.tb.fabric.metrics().snapshot(),
        trace_json: sink.as_ref().map(|s| legion_trace::trace_json(s)),
        stats,
    })
}

/// Outcome of a [`run_rebalance_sim`] scenario.
#[derive(Debug, Clone)]
pub struct SimRebalanceReport {
    /// First sweep index (after the chaos window) whose report
    /// converged, if any.
    pub converged_at: Option<usize>,
    /// Every sweep's report, in order.
    pub sweeps: Vec<SweepReport>,
    /// Total completed migrations.
    pub migrated: usize,
    /// Live instances of the skewed class at the end.
    pub live_objects: usize,
    /// Final ledger snapshot.
    pub metrics: MetricsSnapshot,
    /// Scheduler statistics for the run.
    pub stats: legion_fabric::SimRunStats,
}

/// The skewed-load rebalancing soak (`tests/rebalance_soak.rs`'s
/// scenario) as pure events: 5+5 objects piled on two hosts, a
/// closed-loop [`Rebalancer`] sweeping every 30s of virtual time while
/// the fault plan crashes the hottest host, churns an idle one, and
/// partitions domain 0 from domain 2.
pub fn run_rebalance_sim(seed: u64, sweeps: usize) -> Result<SimRebalanceReport, SimError> {
    let tb = Testbed::build(TestbedConfig::wide(3, 4, seed));
    let class = tb.register_class("rb-app", 20, 48);
    let sim = SimHandle::new(Arc::clone(tb.fabric.clock()));
    tb.fabric.attach_sim(sim.clone());

    let period = SimDuration::from_secs(30);
    let hot = tb.unix_hosts[0].loid();
    let idle = tb.unix_hosts[7].loid();
    let plan = FaultPlan::new()
        .at(SimTime::from_secs(600), FaultAction::CrashHost(hot))
        .at(SimTime::from_secs(1200), FaultAction::RestartHost(hot))
        .at(SimTime::from_secs(1500), FaultAction::CrashHost(idle))
        .at(SimTime::from_secs(2000), FaultAction::RestartHost(idle))
        .at(
            SimTime::from_secs(1800),
            FaultAction::Partition {
                a: legion_fabric::DomainId(0),
                b: legion_fabric::DomainId(2),
                heal_at: SimTime::from_secs(1890),
            },
        );
    schedule_fault_plan(&sim, &tb.fabric, plan);

    // Setup at t=1s: refresh the Collection, then pile 5+5 objects onto
    // the first two hosts of domain 0 (each pile fills its host's CPU
    // reservation capacity exactly).
    let objects: Arc<Mutex<Vec<Loid>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let tb_fabric = Arc::clone(&tb.fabric);
        let daemon = Arc::clone(&tb.daemon);
        let hosts =
            [Arc::clone(&tb.unix_hosts[0]), Arc::clone(&tb.unix_hosts[1])];
        let objects = Arc::clone(&objects);
        sim.schedule_at(SimTime::from_secs(1), "pile-on", move |h| {
            daemon.pull_once(h.now());
            let mut objs = objects.lock();
            for host in &hosts {
                let vault = legion_core::HostObject::get_compatible_vaults(&**host)[0];
                for _ in 0..5 {
                    let req = ReservationRequest::instantaneous(
                        class,
                        vault,
                        SimDuration::from_secs(1 << 20),
                    )
                    .with_demand(20, 48);
                    let now = h.now();
                    let tok = legion_core::HostObject::make_reservation(&**host, &req, now)
                        .expect("pile-on reservation");
                    let obj = legion_core::HostObject::start_object(
                        &**host,
                        &tok,
                        &[ObjectSpec::new(class)],
                        now,
                    )
                    .expect("pile-on start")[0];
                    tb_fabric
                        .lookup_class(class)
                        .unwrap()
                        .note_instance_location(obj, legion_core::HostObject::loid(&**host));
                    objs.push(obj);
                }
            }
        });
    }

    let config = RebalanceConfig {
        stale_ttl: SimDuration::from_secs(75),
        ..RebalanceConfig::default()
    };
    let rb = Arc::new(Rebalancer::closed_loop(
        tb.fabric.clone(),
        tb.collection.clone(),
        config,
    ));
    let dog = Watchdog::new(tb.fabric.clone(), 4);
    let reports: Arc<Mutex<Vec<SweepReport>>> = Arc::new(Mutex::new(Vec::new()));

    // One sweep event per period: advance host state, refresh records,
    // patrol, sweep — the exact per-tick sequence of the thread-path
    // soak, as events.
    struct SweepState {
        tb: Testbed,
        rb: Arc<Rebalancer>,
        dog: Watchdog,
        reports: Arc<Mutex<Vec<SweepReport>>>,
        period: SimDuration,
        remaining: AtomicU64,
    }
    fn schedule_sweep(sim: &SimHandle, st: Arc<SweepState>, at: SimTime) {
        sim.schedule_at(at, "sweep", move |h| {
            let now = h.now();
            st.tb.fabric.reassess_all(now);
            st.tb.daemon.pull_once(now);
            st.dog.patrol(now);
            st.reports.lock().push(st.rb.sweep(now));
            if st.remaining.fetch_sub(1, Ordering::Relaxed) > 1 {
                let next = now + st.period;
                schedule_sweep(h, Arc::clone(&st), next);
            }
        });
    }
    let state = Arc::new(SweepState {
        tb,
        rb,
        dog,
        reports: Arc::clone(&reports),
        period,
        remaining: AtomicU64::new(sweeps as u64),
    });
    if sweeps > 0 {
        schedule_sweep(&sim, Arc::clone(&state), SimTime::ZERO + period);
    }

    let stats = sim.run()?;
    state.tb.fabric.detach_sim();

    let reports = reports.lock().clone();
    // Convergence only counts after the last fault has healed (2000s
    // restart + 100s slack), same rule as the thread-path soak.
    let converged_at = reports
        .iter()
        .enumerate()
        .position(|(i, r)| r.converged && period.as_micros() * (i as u64 + 1) > 2_100_000_000);
    let migrated = reports.iter().map(|r| r.completed.len()).sum();
    let live_objects =
        state.tb.unix_hosts.iter().map(|h| h.running_objects().len()).sum();
    Ok(SimRebalanceReport {
        converged_at,
        sweeps: reports,
        migrated,
        live_objects,
        metrics: state.tb.fabric.metrics().snapshot(),
        stats,
    })
}

/// One tenant's synthetic arrival process for [`run_ingress_sim`].
#[derive(Debug, Clone, Copy)]
pub enum ArrivalProcess {
    /// Poisson arrivals: exponential inter-arrival gaps with the given
    /// mean (the open-system default).
    Poisson {
        /// Mean gap between arrivals.
        mean_gap: SimDuration,
    },
    /// Heavy-tailed (Pareto) gaps: mostly `min_gap`-spaced bursts with
    /// occasional long silences; smaller `alpha` means heavier tail
    /// (`alpha <= 1` has no finite mean). The bursts are what stress
    /// the token buckets.
    Pareto {
        /// Minimum (and modal) gap between arrivals.
        min_gap: SimDuration,
        /// Tail exponent; 1.5 is a reasonable bursty default.
        alpha: f64,
    },
}

impl ArrivalProcess {
    /// Draws the next inter-arrival gap. Gaps are clamped to
    /// `[1µs, 4096 × scale]` so one extreme Pareto draw cannot silence
    /// a tenant for the whole horizon (or overflow virtual time).
    fn draw_gap(&self, rng: &mut rand::rngs::SmallRng) -> SimDuration {
        use rand::Rng;
        let u: f64 = rng.gen_range(0.0..1.0);
        let (scale_us, gap) = match *self {
            ArrivalProcess::Poisson { mean_gap } => {
                (mean_gap.as_micros(), -(1.0 - u).ln() * mean_gap.as_micros() as f64)
            }
            ArrivalProcess::Pareto { min_gap, alpha } => (
                min_gap.as_micros(),
                min_gap.as_micros() as f64 * (1.0 - u).powf(-1.0 / alpha.max(0.1)),
            ),
        };
        let capped = gap.min(scale_us as f64 * 4096.0).max(1.0);
        SimDuration::from_micros(capped as u64)
    }
}

/// One tenant in an [`IngressSimConfig`].
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Registered name.
    pub name: String,
    /// Priority class (sets its fair-use policy at the door).
    pub class: legion_ingress::PriorityClass,
    /// Arrival process.
    pub arrivals: ArrivalProcess,
}

impl TenantSpec {
    /// A Poisson tenant.
    pub fn poisson(
        name: impl Into<String>,
        class: legion_ingress::PriorityClass,
        mean_gap: SimDuration,
    ) -> Self {
        TenantSpec { name: name.into(), class, arrivals: ArrivalProcess::Poisson { mean_gap } }
    }

    /// A heavy-tailed tenant.
    pub fn pareto(
        name: impl Into<String>,
        class: legion_ingress::PriorityClass,
        min_gap: SimDuration,
        alpha: f64,
    ) -> Self {
        TenantSpec { name: name.into(), class, arrivals: ArrivalProcess::Pareto { min_gap, alpha } }
    }
}

/// Shape of a [`run_ingress_sim`] scenario: an open-loop multi-tenant
/// workload hammering a [`FrontDoor`](legion_ingress::FrontDoor).
/// Everything derives from `seed`.
#[derive(Debug, Clone)]
pub struct IngressSimConfig {
    /// Master seed.
    pub seed: u64,
    /// Administrative domains in the bed.
    pub domains: usize,
    /// Unix hosts per domain.
    pub hosts_per_domain: usize,
    /// The tenant population.
    pub tenants: Vec<TenantSpec>,
    /// Arrivals are generated in `[0, horizon)` of virtual time.
    pub horizon: SimDuration,
    /// Maintenance tick period (reassess, Collection pull, grant
    /// expiry sweep).
    pub tick: SimDuration,
    /// How long a placed object dwells before the tenant departs.
    pub dwell: SimDuration,
    /// Front-door policy.
    pub ingress: legion_ingress::IngressConfig,
    /// Crash/restart churn events (0 = calm).
    pub chaos_crashes: usize,
    /// How long each crashed host stays down.
    pub crash_down_for: SimDuration,
    /// Capture trace JSON (required for per-class latency rollups).
    pub trace: bool,
}

impl Default for IngressSimConfig {
    fn default() -> Self {
        use legion_ingress::PriorityClass::{BestEffort, Interactive, Production};
        IngressSimConfig {
            seed: 0xD004_5EED,
            domains: 2,
            hosts_per_domain: 4,
            tenants: vec![
                TenantSpec::poisson("alice", Interactive, SimDuration::from_secs(2)),
                TenantSpec::poisson("bob", Interactive, SimDuration::from_secs(2)),
                TenantSpec::poisson("carol", Production, SimDuration::from_secs(4)),
                TenantSpec::pareto("dave", Production, SimDuration::from_secs(2), 1.5),
                TenantSpec::pareto("erin", BestEffort, SimDuration::from_secs(1), 1.3),
                TenantSpec::poisson("frank", BestEffort, SimDuration::from_secs(8)),
            ],
            horizon: SimDuration::from_secs(1800),
            tick: SimDuration::from_secs(30),
            dwell: SimDuration::from_secs(90),
            ingress: legion_ingress::IngressConfig::default(),
            chaos_crashes: 0,
            crash_down_for: SimDuration::from_secs(240),
            trace: true,
        }
    }
}

impl IngressSimConfig {
    /// The default scenario at a given seed.
    pub fn seeded(seed: u64) -> Self {
        IngressSimConfig { seed, ..Default::default() }
    }

    /// Scales every tenant's arrival *rate* by `scale` (gaps divide by
    /// it) — the knob an arrival-rate sweep turns. `scale > 1` means
    /// more load.
    pub fn rate_scaled(mut self, scale: f64) -> Self {
        let scale = scale.max(1e-6);
        for t in &mut self.tenants {
            t.arrivals = match t.arrivals {
                ArrivalProcess::Poisson { mean_gap } => ArrivalProcess::Poisson {
                    mean_gap: SimDuration::from_micros(
                        ((mean_gap.as_micros() as f64 / scale) as u64).max(1),
                    ),
                },
                ArrivalProcess::Pareto { min_gap, alpha } => ArrivalProcess::Pareto {
                    min_gap: SimDuration::from_micros(
                        ((min_gap.as_micros() as f64 / scale) as u64).max(1),
                    ),
                    alpha,
                },
            };
        }
        self
    }
}

/// One tenant's outcome in an [`IngressSimReport`].
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// Registered name.
    pub name: String,
    /// Priority class.
    pub class: legion_ingress::PriorityClass,
    /// Admission accounting.
    pub stats: legion_ingress::TenantStats,
}

/// Outcome of a [`run_ingress_sim`] scenario.
#[derive(Debug, Clone)]
pub struct IngressSimReport {
    /// Per-tenant outcomes, in registration order.
    pub tenants: Vec<TenantOutcome>,
    /// Per-class goodput fairness (max/min completed across the
    /// class's tenants; `None` for classes with fewer than 2 tenants).
    pub fairness: Vec<(legion_ingress::PriorityClass, Option<f64>)>,
    /// Planned fault totals.
    pub fault_counts: FaultCounts,
    /// Final ledger snapshot.
    pub metrics: MetricsSnapshot,
    /// `legion-trace/v1` export, when tracing was requested.
    pub trace_json: Option<String>,
    /// Scheduler statistics for the run.
    pub stats: legion_fabric::SimRunStats,
}

/// Runs the multi-tenant front-door scenario as a discrete-event
/// simulation: every tenant is an open-loop arrival stream (Poisson or
/// heavy-tailed, drawn from its own deterministic RNG stream), every
/// arrival a sim task that submits one placement through the
/// [`FrontDoor`](legion_ingress::FrontDoor), dwells on success, and
/// departs. Admission rejections are *typed* and counted per tenant;
/// nothing retries, so the door's fair-use policy is the only thing
/// shaping who gets through.
pub fn run_ingress_sim(cfg: &IngressSimConfig) -> Result<IngressSimReport, SimError> {
    use legion_ingress::{FrontDoor, PriorityClass};

    let tb = Testbed::build(TestbedConfig::wide(cfg.domains, cfg.hosts_per_domain, cfg.seed));
    let class = tb.register_class("svc-app", 20, 48);
    let sink = cfg.trace.then(|| tb.fabric.enable_tracing());
    let sim = SimHandle::new(Arc::clone(tb.fabric.clock()));
    tb.fabric.attach_sim(sim.clone());
    tb.fabric.set_wire_emulation(true);

    let mut plan = FaultPlan::new();
    if cfg.chaos_crashes > 0 {
        let plan_horizon = SimDuration::from_micros(cfg.horizon.as_micros() * 5 / 6);
        plan = plan.merge(FaultPlan::random_churn(
            &tb.fabric.rng(),
            &tb.host_loids,
            plan_horizon,
            cfg.chaos_crashes,
            cfg.crash_down_for,
        ));
    }
    let fault_counts = plan.counts();
    schedule_fault_plan(&sim, &tb.fabric, plan);

    let scheduler: Arc<dyn Scheduler> = Arc::new(LoadAwareScheduler::new());
    let enactor = Arc::new(Enactor::with_config(
        tb.fabric.clone(),
        EnactorConfig { deadline: Some(SimDuration::from_secs(45)), ..Default::default() },
    ));
    let door = Arc::new(FrontDoor::new(
        SchedCtx::new(Arc::clone(&tb.fabric), Arc::clone(&tb.collection)),
        Arc::clone(&scheduler),
        Arc::clone(&enactor),
        tb.vault_loids[0],
        cfg.ingress,
    ));
    let class_obj = tb.fabric.lookup_class(class).expect("registered class");

    // Pre-draw every tenant's arrival times from its own RNG stream:
    // the schedule is a pure function of (seed, tenant index, process),
    // independent of event interleaving.
    let mut specs = Vec::new();
    for (ti, spec) in cfg.tenants.iter().enumerate() {
        let tenant = door.register_tenant(spec.name.clone(), spec.class);
        let mut rng = tb.fabric.rng().stream_indexed("ingress-arrivals", ti as u64);
        let mut at = SimTime::ZERO + spec.arrivals.draw_gap(&mut rng);
        let mut arrivals = Vec::new();
        while at < SimTime::ZERO + cfg.horizon && arrivals.len() < 100_000 {
            arrivals.push(at);
            at += spec.arrivals.draw_gap(&mut rng);
        }
        specs.push((tenant, arrivals));
    }

    for (tenant, arrivals) in &specs {
        let tenant = *tenant;
        for (ai, &at) in arrivals.iter().enumerate() {
            let door = Arc::clone(&door);
            let class_obj = Arc::clone(&class_obj);
            let fabric = Arc::clone(&tb.fabric);
            let dwell = cfg.dwell;
            sim.schedule_at(at, format!("arrive:t{}-{ai}", tenant.index()), move |h| {
                h.spawn(format!("t{}-{ai}", tenant.index()), move |h| {
                    let request = PlacementRequest::new().class(class, 1);
                    if let Ok(report) = door.submit(tenant, &request) {
                        let obj = report.placed[0].1;
                        h.sleep(dwell);
                        let _ = class_obj.destroy_instance(obj, &*fabric);
                    }
                });
            });
        }
    }

    // Maintenance ticks: host reassessment, Collection refresh, and the
    // grant-expiry sweep (front doors in production would run the same
    // loop off a timer).
    struct IngressTicker {
        tb: Testbed,
        door: Arc<legion_ingress::FrontDoor>,
        tick: SimDuration,
        horizon: SimTime,
    }
    fn schedule_ingress_ticks(sim: &SimHandle, t: Arc<IngressTicker>, at: SimTime) {
        sim.schedule_at(at, "tick", move |h| {
            let now = h.now();
            t.tb.fabric.reassess_all(now);
            t.tb.daemon.pull_once(now);
            t.door.expire_due_grants();
            if now + t.tick <= t.horizon {
                let next = now + t.tick;
                schedule_ingress_ticks(h, Arc::clone(&t), next);
            }
        });
    }
    let ticker = Arc::new(IngressTicker {
        tb,
        door: Arc::clone(&door),
        tick: cfg.tick,
        horizon: SimTime::ZERO + cfg.horizon,
    });
    schedule_ingress_ticks(&sim, Arc::clone(&ticker), SimTime::ZERO + cfg.tick);

    let stats = sim.run()?;
    ticker.tb.fabric.detach_sim();

    let tenants = cfg
        .tenants
        .iter()
        .zip(&specs)
        .map(|(spec, (tenant, _))| TenantOutcome {
            name: spec.name.clone(),
            class: spec.class,
            stats: door.stats(*tenant).expect("registered tenant"),
        })
        .collect();
    let fairness = PriorityClass::ALL
        .iter()
        .map(|&c| (c, door.fairness_ratio(c)))
        .collect();

    Ok(IngressSimReport {
        tenants,
        fairness,
        fault_counts,
        metrics: ticker.tb.fabric.metrics().snapshot(),
        trace_json: sink.as_ref().map(|s| legion_trace::trace_json(s)),
        stats,
    })
}

/// Runs `scenario` once per seed. Unlike a plain loop, the sweep does
/// **not** stop at the first failure: every seed runs, and if any
/// failed the panic lists *all* failing seeds (with the first failure's
/// event-schedule tail), so one CI run reports the full failing set
/// instead of revealing them one fix at a time. Returns the per-seed
/// results on success.
pub fn seed_sweep<R>(
    seeds: impl IntoIterator<Item = u64>,
    mut scenario: impl FnMut(u64) -> Result<R, SimError>,
) -> Vec<(u64, R)> {
    let mut ok = Vec::new();
    let mut failures: Vec<(u64, SimError)> = Vec::new();
    for seed in seeds {
        match scenario(seed) {
            Ok(r) => ok.push((seed, r)),
            Err(e) => failures.push((seed, e)),
        }
    }
    if !failures.is_empty() {
        let list =
            failures.iter().map(|(s, _)| format!("{s:#x}")).collect::<Vec<_>>().join(", ");
        let (first_seed, first) = &failures[0];
        panic!(
            "{} of {} seeds failed: [{list}]\nfirst failure (seed {first_seed:#x}): {}\n\
             reproduce with that seed; its event schedule was:\n{}",
            failures.len(),
            failures.len() + ok.len(),
            first.message,
            first.schedule
        );
    }
    ok
}
