//! The four placement workloads: bed construction, one request through
//! the pipeline (black box or layer by layer), recycling, churn, and
//! the end-of-run output checks.

use crate::spans::Recorder;
use legion::apps::{LoadRegime, Testbed, TestbedConfig};
use legion::collection::DataCollectionDaemon;
use legion::core::hash::mix64;
use legion::core::{
    ClassObject, HostObject, LegionError, Loid, Placement, PlacementRequest, ReservationRequest,
    ReservationType, SimDuration, VaultDirectory,
};
use legion::fabric::MetricsSnapshot;
use legion::hosts::StandardHost;
use legion::ingress::{
    ClassPolicy, FrontDoor, IngressConfig, IngressError, PriorityClass, TenantId,
};
use legion::schedule::{Enactor, Mapping};
use legion::schedulers::{
    CandidateCacheStats, DriverLimits, DriverReport, IrsScheduler, RandomScheduler, Scheduler,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Placements the bed absorbs before anything is measured: the
/// candidate cache fills, the compiled-query map fills, allocator
/// arenas reach their working size.
pub const WARM_UP_REQUESTS: u64 = 2_000;

/// Virtual time the benchmark lets pass before each request, so that
/// every tenant's token bucket has refilled by its next turn.
const CLOCK_STEP: SimDuration = SimDuration(1_000);

/// `churn_10k`: placements between two churn steps, regions, and hosts
/// per region.
const CHURN_EVERY: u64 = 50;
const CHURN_REGIONS: usize = 50;

/// `coalloc_8x125`: one host in this many is blocked outright, and every
/// other host's reservation table holds this many live fillers.
const BLOCK_EVERY: usize = 20;
const PRELOAD_PER_HOST: usize = 256;

/// LOIDs come from a process-wide counter and shard the Collection by
/// digest; rebasing the counter before the build makes the bed the same
/// in every process with the same seed, whatever ran before it.
pub const LOID_LANE: u64 = 1 << 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BedKind {
    Place1k,
    Place50k,
    Churn10k,
    Coalloc8x125,
}

impl BedKind {
    pub const ALL: [BedKind; 4] = [
        BedKind::Place1k,
        BedKind::Place50k,
        BedKind::Churn10k,
        BedKind::Coalloc8x125,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            BedKind::Place1k => "place_1k",
            BedKind::Place50k => "place_50k",
            BedKind::Churn10k => "churn_10k",
            BedKind::Coalloc8x125 => "coalloc_8x125",
        }
    }

    fn hosts(self) -> usize {
        match self {
            BedKind::Place1k | BedKind::Coalloc8x125 => 1_000,
            BedKind::Place50k => 50_000,
            BedKind::Churn10k => 10_000,
        }
    }

    /// Instances one request asks for.
    pub fn instances(self) -> u32 {
        if self == BedKind::Coalloc8x125 {
            8
        } else {
            1
        }
    }
}

/// What the benchmark itself observed of the requests it issued.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub submitted: u64,
    pub rejected: u64,
    pub failed: u64,
    pub placed: u64,
    pub generations: u64,
    pub reservation_rounds: u64,
    pub churn_steps: u64,
    /// Successful placements whose instances were not exactly `count`
    /// distinct objects, or that could not be recycled.
    pub malformed: u64,
}

struct Region {
    daemon: Arc<DataCollectionDaemon>,
    hosts: Vec<Arc<StandardHost>>,
}

pub struct Bed {
    pub kind: BedKind,
    pub tb: Testbed,
    pub class: Loid,
    pub class_obj: Arc<dyn ClassObject>,
    pub door: FrontDoor,
    scheduler: Arc<dyn Scheduler>,
    enactor: Arc<Enactor>,
    pub tenants: Vec<TenantId>,
    pub request: PlacementRequest,
    regions: Vec<Region>,
    next_region: usize,
    seed: u64,
    pub tally: Tally,
    /// Ledger and cache counters as they stood when warm-up ended.
    pub ledger_after_warm_up: MetricsSnapshot,
}

impl Bed {
    /// Builds the bed for `kind`, registers class and tenants, and runs
    /// the warm-up. Everything random derives from `seed`.
    pub fn set_up(kind: BedKind, seed: u64) -> Bed {
        Loid::replay_guard().rebase(LOID_LANE);
        let bed_seed = mix64(seed ^ 0xBED);
        let config = match kind {
            BedKind::Place1k | BedKind::Place50k => TestbedConfig::local(kind.hosts(), bed_seed),
            BedKind::Churn10k => TestbedConfig {
                load: LoadRegime::Ar1 { mean: 0.3 },
                ..TestbedConfig::local(kind.hosts(), bed_seed)
            },
            BedKind::Coalloc8x125 => TestbedConfig::wide(8, 125, bed_seed),
        };
        let tb = Testbed::build(config);
        // Co-allocation asks for 60 centi-CPU on one-CPU hosts: two
        // instances of one request cannot share a host, so a repeated
        // pick is a real conflict. Elsewhere a host has room for every
        // object a `submit_many` batch holds at once.
        let class = match kind {
            BedKind::Coalloc8x125 => tb.register_class("e2e", 60, 64),
            _ => tb.register_class("e2e", 1, 1),
        };
        let class_obj = tb
            .fabric
            .lookup_class(class)
            .expect("class just registered");

        let mut regions = Vec::new();
        if kind == BedKind::Churn10k {
            tb.collection.enable_deltas(65_536);
            for hosts in tb.unix_hosts.chunks(kind.hosts() / CHURN_REGIONS) {
                let daemon = DataCollectionDaemon::new(Arc::clone(&tb.collection));
                daemon.attach_fabric(Arc::clone(&tb.fabric));
                for h in hosts {
                    daemon.track_host(Arc::clone(h) as Arc<dyn HostObject>);
                }
                regions.push(Region {
                    daemon,
                    hosts: hosts.to_vec(),
                });
            }
        }
        if kind == BedKind::Coalloc8x125 {
            block_and_preload(&tb, class);
        }

        let sched_seed = mix64(seed ^ 0x5C4ED);
        let scheduler: Arc<dyn Scheduler> = match kind {
            BedKind::Coalloc8x125 => Arc::new(IrsScheduler::new(sched_seed, 4)),
            _ => Arc::new(RandomScheduler::new(sched_seed)),
        };
        let enactor = Arc::new(Enactor::new(Arc::clone(&tb.fabric)));
        // Admission wide open: the workloads measure placement, and
        // assert that nothing was refused. On `coalloc_8x125` about one
        // schedule generation in thirty finds no variant that reserves;
        // with the default three generations one request in 30,000
        // would fail for no fault of the program, so the Fig. 9 loop
        // gets eight.
        let open = ClassPolicy {
            rate_per_sec: 1_000.0,
            burst: 1_000,
            queue_capacity: 64,
        };
        let door = FrontDoor::new(
            tb.ctx(),
            Arc::clone(&scheduler),
            Arc::clone(&enactor),
            tb.vault_loids[0],
            IngressConfig {
                policies: [open; PriorityClass::COUNT],
                limits: DriverLimits {
                    sched_try_limit: 8,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let tenants = [
            ("interactive-a", PriorityClass::Interactive),
            ("production-a", PriorityClass::Production),
            ("besteffort-a", PriorityClass::BestEffort),
            ("besteffort-b", PriorityClass::BestEffort),
        ]
        .map(|(name, class)| door.register_tenant(name, class))
        .to_vec();

        let mut bed = Bed {
            kind,
            class,
            class_obj,
            door,
            scheduler,
            enactor,
            tenants,
            request: PlacementRequest::new().class(class, kind.instances()),
            regions,
            next_region: 0,
            seed,
            tally: Tally::default(),
            ledger_after_warm_up: MetricsSnapshot::default(),
            tb,
        };
        // One churn step per region, so that every regional daemon has
        // joined its hosts and later steps are steady-state refreshes.
        for _ in 0..bed.regions.len() {
            bed.churn_step(None);
        }
        bed.age_hosts();
        for _ in 0..WARM_UP_REQUESTS {
            bed.request_black_box();
        }
        bed.tally = Tally::default();
        bed.ledger_after_warm_up = bed.ledger();
        bed
    }

    /// Starts and destroys one object on every host that will take one.
    /// A host that has never run anything allocates its table and
    /// object-map nodes on first use; with 2,000 warm-up placements on
    /// 50,000 hosts a run would spend its windows meeting such hosts,
    /// and get faster as they ran out. Production hosts have run
    /// objects before.
    fn age_hosts(&self) {
        for h in &self.tb.unix_hosts {
            // Hosts blocked on `coalloc_8x125` refuse, and stay as built.
            self.start_and_destroy(h);
        }
    }

    /// Reserves `host`, starts one object there through the Class and
    /// destroys it again. Returns the wall time of `create_instance`
    /// alone, or `None` if the host refused the reservation.
    pub fn start_and_destroy(&self, host: &StandardHost) -> Option<Duration> {
        let fabric = &self.tb.fabric;
        let vault = host.get_compatible_vaults()[0];
        let report = self.class_obj.report();
        let request =
            ReservationRequest::instantaneous(self.class, vault, SimDuration::from_secs(3600))
                .with_demand(report.cpu_centis, report.memory_mb);
        let token = host.make_reservation(&request, fabric.clock().now()).ok()?;
        let placement = Placement {
            host: host.loid(),
            vault,
            token,
        };
        let start = Instant::now();
        let created = self.class_obj.create_instance(Some(placement), &**fabric);
        let took = start.elapsed();
        let instance = created.expect("reserved host starts the object");
        self.class_obj
            .destroy_instance(instance, &**fabric)
            .expect("destroy own instance");
        Some(took)
    }

    pub fn ledger(&self) -> MetricsSnapshot {
        self.tb.fabric.metrics().snapshot()
    }

    pub fn cache_stats(&self) -> CandidateCacheStats {
        self.door.ctx().candidate_cache_stats()
    }

    /// Advances the virtual clock and picks the next request's tenant.
    fn next_turn(&mut self) -> TenantId {
        self.tb.fabric.clock().advance(CLOCK_STEP);
        let pick = mix64(self.seed ^ self.tally.submitted) as usize % self.tenants.len();
        self.tally.submitted += 1;
        self.tenants[pick]
    }

    /// One request through `FrontDoor::submit`, then recycle and churn.
    /// Returns the wall time of the `submit` call alone.
    pub fn request_black_box(&mut self) -> Duration {
        let tenant = self.next_turn();
        let start = Instant::now();
        let result = self.door.submit(tenant, &self.request);
        let latency = start.elapsed();
        self.settle(result);
        self.after_request(None);
        latency
    }

    /// `n` requests through one `FrontDoor::submit_many` batch over
    /// `workers` threads. Returns the wall time of that call alone.
    pub fn batch_black_box(&mut self, n: usize, workers: usize) -> Duration {
        let batch: Vec<_> = (0..n)
            .map(|_| (self.next_turn(), self.request.clone()))
            .collect();
        let start = Instant::now();
        let results = self.door.submit_many(&batch, workers);
        let latency = start.elapsed();
        for result in results {
            self.settle(result);
        }
        latency
    }

    /// Tallies a black-box outcome and recycles what it placed.
    fn settle(&mut self, result: Result<DriverReport, IngressError>) {
        match result {
            Ok(DriverReport {
                placed,
                generations,
                reservation_rounds,
                ..
            }) => {
                self.tally.generations += generations as u64;
                self.tally.reservation_rounds += reservation_rounds as u64;
                self.recycle(&placed, None);
            }
            Err(IngressError::Rejected(_)) => self.tally.rejected += 1,
            Err(_) => self.tally.failed += 1,
        }
    }

    /// The same request with the benchmark itself walking `submit`'s
    /// steps — admission, the Fig. 9 retry loop over schedule
    /// generation, reservation and enactment, conclusion — and
    /// recording a span around every call into a layer.
    pub fn request_layered(&mut self, rec: &mut Recorder) {
        let tenant = self.next_turn();
        let rid = self.tally.submitted as u32;
        let root = rec.open("request", rid);
        let submit = rec.open("submit", rid);
        let mut placed: Option<Vec<(Mapping, Loid)>> = None;
        match rec.time("ingress.admit", rid, || self.door.admit(tenant)) {
            Err(_) => self.tally.rejected += 1,
            Ok(permit) => {
                let limits = self.door.config().limits;
                'generations: for _ in 0..limits.sched_try_limit {
                    self.tally.generations += 1;
                    let Ok(schedule) = rec.time("schedulers.compute_schedule", rid, || {
                        self.scheduler
                            .compute_schedule(&self.request, self.door.ctx())
                    }) else {
                        continue;
                    };
                    for _ in 0..limits.enact_try_limit {
                        self.tally.reservation_rounds += 1;
                        let feedback = rec.time("schedule.make_reservations", rid, || {
                            self.enactor.make_reservations(&schedule)
                        });
                        if !feedback.reserved() {
                            continue;
                        }
                        if let Ok(created) = rec.time("schedule.enact_schedule", rid, || {
                            self.enactor.enact_schedule(&feedback)
                        }) {
                            placed = Some(created);
                            break 'generations;
                        }
                    }
                }
                rec.time("ingress.conclude", rid, || {
                    self.door.conclude(permit, placed.is_some())
                });
                if placed.is_none() {
                    self.tally.failed += 1;
                }
            }
        }
        rec.close(submit);
        if let Some(placed) = placed {
            self.recycle(&placed, Some((&mut *rec, rid)));
        }
        rec.close(root);
        self.after_request(Some(rec));
    }

    /// Checks a successful placement's shape and returns its objects
    /// through the Class, so host tables, vault OPRs and the class's
    /// instance map do not grow.
    fn recycle(&mut self, placed: &[(Mapping, Loid)], mut rec: Option<(&mut Recorder, u32)>) {
        self.tally.placed += 1;
        let distinct = placed
            .iter()
            .enumerate()
            .all(|(i, (_, a))| placed[..i].iter().all(|(_, b)| a != b));
        if placed.len() != self.kind.instances() as usize || !distinct {
            self.tally.malformed += 1;
        }
        for (_, instance) in placed {
            let destroy = || self.class_obj.destroy_instance(*instance, &*self.tb.fabric);
            let destroyed = match rec.as_mut() {
                Some((rec, rid)) => rec.time("hosts.destroy_instance", *rid, destroy),
                None => destroy(),
            };
            if destroyed.is_err() {
                self.tally.malformed += 1;
            }
        }
    }

    fn after_request(&mut self, rec: Option<&mut Recorder>) {
        if !self.regions.is_empty() && self.tally.submitted.is_multiple_of(CHURN_EVERY) {
            self.churn_step(rec);
        }
    }

    /// One churn step: a second of virtual time passes, the next
    /// region's hosts reassess themselves, and that region's daemon
    /// pulls them into the Collection. In the layered run the benchmark
    /// then asks for the candidate set itself, so that the delta patch
    /// is timed on its own; in the measured run no such call is made
    /// and the patch lands in the next `submit`.
    pub fn churn_step(&mut self, mut rec: Option<&mut Recorder>) {
        self.tally.churn_steps += 1;
        let rid = self.tally.churn_steps as u32;
        let now = self.tb.fabric.clock().advance(SimDuration::from_secs(1));
        let region = &self.regions[self.next_region];
        self.next_region = (self.next_region + 1) % self.regions.len();
        let reassess = || {
            region
                .hosts
                .iter()
                .map(|h| h.reassess(now).len())
                .sum::<usize>()
        };
        let pull = || region.daemon.pull_once(now);
        match rec.as_mut() {
            None => {
                reassess();
                pull();
            }
            Some(rec) => {
                let root = rec.open("churn", rid);
                rec.time("hosts.reassess", rid, reassess);
                rec.time("collection.pull", rid, pull);
                let report = self
                    .door
                    .ctx()
                    .class_report(self.class)
                    .expect("class registered");
                rec.time("schedulers.candidate_refresh", rid, || {
                    self.door
                        .ctx()
                        .shared_candidates_for(&report, None)
                        .map(|c| c.len())
                })
                .expect("candidate query");
                rec.close(root);
            }
        }
    }

    pub fn hosts_per_region(&self) -> usize {
        self.regions.first().map_or(0, |r| r.hosts.len())
    }

    /// Output checks at workload end. Returns what is wrong, if
    /// anything.
    pub fn check_outputs(&self) -> Vec<String> {
        let mut wrong = Vec::new();
        let mut check = |ok: bool, what: String| {
            if !ok {
                wrong.push(what);
            }
        };
        let t = self.tally;
        check(
            t.malformed == 0,
            format!("{} placements malformed or not recyclable", t.malformed),
        );
        check(
            t.rejected == 0,
            format!("{} requests refused with admission wide open", t.rejected),
        );
        check(
            t.submitted == t.placed + t.failed + t.rejected,
            format!(
                "{} submitted != {} placed + {} failed",
                t.submitted, t.placed, t.failed
            ),
        );

        let d = self.ledger().delta(&self.ledger_after_warm_up);
        check(
            d.objects_started == d.objects_killed,
            format!(
                "{} objects started, {} killed",
                d.objects_started, d.objects_killed
            ),
        );
        // Every granted token was either cancelled or consumed by a
        // started object; one that merely expired would break this.
        check(
            d.reservations_granted == d.reservations_cancelled + d.objects_started,
            format!(
                "{} tokens granted != {} cancelled + {} started",
                d.reservations_granted, d.reservations_cancelled, d.objects_started
            ),
        );
        let rejected =
            d.ingress_rejected_rate + d.ingress_rejected_queue + d.ingress_rejected_saturated;
        check(
            rejected == 0,
            format!("ledger counts {rejected} rejections"),
        );
        check(
            d.ingress_admitted == d.ingress_completed + d.ingress_failed,
            format!(
                "{} admitted, {} concluded",
                d.ingress_admitted,
                d.ingress_completed + d.ingress_failed
            ),
        );

        let running: usize = self
            .tb
            .unix_hosts
            .iter()
            .map(|h| h.running_objects().len())
            .sum();
        check(running == 0, format!("{running} objects still running"));
        let oprs: usize = self
            .tb
            .vault_loids
            .iter()
            .filter_map(|&v| self.tb.fabric.lookup_vault(v))
            .map(|v| v.storage().opr_count)
            .sum();
        check(oprs == 0, format!("{oprs} OPRs left in vaults"));
        let live = self.class_obj.instances().len();
        check(live == 0, format!("{live} instances left in the class map"));
        wrong
    }
}

/// `coalloc_8x125`: blocks every [`BLOCK_EVERY`]th host with a
/// whole-machine reservation, then fills the other hosts' tables.
///
/// The order matters: fillers are shareable, so a host that already
/// holds them refuses the exclusive reservation and stays unblocked.
fn block_and_preload(tb: &Testbed, class: Loid) {
    let now = tb.fabric.clock().now();
    let forever = SimDuration::from_secs(10 * 365 * 24 * 3600);
    let mut blocked = 0;
    for h in tb.unix_hosts.iter().step_by(BLOCK_EVERY) {
        let vault = h.get_compatible_vaults()[0];
        let whole_machine = ReservationRequest::instantaneous(class, vault, forever)
            .with_type(ReservationType::REUSABLE_SPACE)
            .starting_at(now);
        h.make_reservation(&whole_machine, now)
            .expect("empty host grants the whole machine");
        blocked += 1;
    }
    let filled = tb.preload_reservations(PRELOAD_PER_HOST, class);
    assert_eq!(
        filled,
        (tb.host_count() - blocked) * PRELOAD_PER_HOST,
        "{blocked} hosts should refuse every filler and the rest accept all"
    );
    // A blocked host must refuse real traffic, too.
    let probe = ReservationRequest::instantaneous(class, tb.vault_loids[0], forever);
    assert!(
        matches!(
            tb.unix_hosts[0].make_reservation(&probe, now),
            Err(LegionError::ReservationDenied { .. })
        ),
        "blocked host granted a reservation"
    );
}
