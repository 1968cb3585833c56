//! Trigger-driven rescheduling and the closed-loop rebalance sweep —
//! the Monitor closing the loop.
//!
//! "If, during execution, a resource decides that the object needs to be
//! migrated, it performs an outcall to a Monitor, which notifies the
//! Scheduler and Enactor that rescheduling should be performed
//! (optional steps 12 and 13)." (§3)
//!
//! Two loops live here. The *event-driven* loop is the simplest useful
//! Scheduler: on a load-threshold outcall it migrates one object off the
//! overloaded host. The *closed* loop ([`Rebalancer::sweep`]) is the
//! system-wide health pass: it reads live load from Collection records
//! (TTL-aware — stale data is counted, not trusted), detects hotspots
//! with hysteresis relative to the population mean (enter/exit ratios,
//! so a host on the boundary never thrashes), plans migrations under a
//! per-sweep budget, executes them through the admission-first
//! [`migrate_object_with`] sequence (walking alternate targets on
//! target-side refusals), and checks convergence of the max/mean load
//! ratio. Every sweep is one traced episode with
//! `detect → plan → migrate → converge` spans.

use crate::migrate::{migrate_object, migrate_object_with, MigrateError, MigrationRecord};
use crate::monitor::Monitor;
use legion_collection::Collection;
use legion_core::host::well_known;
use legion_core::{
    EpisodeId, EventKind, Loid, LoidKind, PlacementContext, SimDuration, SimTime, SpanKind,
    SpanOutcome,
};
use legion_fabric::{Fabric, MetricsLedger};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Closed-loop sweep policy. Thresholds are *ratios to the population
/// mean load*, so the policy is scale-free: a host is a hotspot because
/// it is loaded relative to its peers, not against a magic constant.
#[derive(Debug, Clone)]
pub struct RebalanceConfig {
    /// A host enters the hotspot set when its load reaches
    /// `enter_ratio x mean` (hysteresis upper bound).
    pub enter_ratio: f64,
    /// A hotspot leaves the set when its load falls to
    /// `exit_ratio x mean` (hysteresis lower bound; must be below
    /// `enter_ratio`). Convergence is max load at or below this line.
    pub exit_ratio: f64,
    /// Absolute load below which a host is never a hotspot, however
    /// idle the rest of the population is (guards the ratio against a
    /// near-zero mean).
    pub load_floor: f64,
    /// Migrations planned per sweep, across all hotspots.
    pub budget_per_sweep: usize,
    /// Collection records older than this are not trusted as planning
    /// input (the TTL-aware source selection).
    pub stale_ttl: SimDuration,
    /// Fallback targets tried, in load order, when the planned target
    /// refuses or dies mid-migration.
    pub alternates: usize,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            enter_ratio: 1.6,
            exit_ratio: 1.25,
            load_floor: 0.5,
            budget_per_sweep: 4,
            stale_ttl: SimDuration::from_secs(90),
            alternates: 2,
        }
    }
}

impl RebalanceConfig {
    /// The hysteresis upper bound for a given population mean.
    fn enter_at(&self, mean: f64) -> f64 {
        (self.enter_ratio * mean).max(self.load_floor)
    }

    /// The hysteresis lower bound (and convergence line) for a mean.
    fn exit_at(&self, mean: f64) -> f64 {
        (self.exit_ratio * mean).max(self.load_floor)
    }
}

/// One planned migration: victim, source, primary target, fallbacks.
#[derive(Debug, Clone)]
struct PlannedMigration {
    object: Loid,
    from: Loid,
    to: Loid,
    alternates: Vec<Loid>,
}

/// What one closed-loop sweep saw and did.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The traced episode covering this sweep (None when tracing is
    /// disabled or no collection is attached).
    pub episode: Option<EpisodeId>,
    /// Hosts with fresh, trusted Collection records this sweep.
    pub hosts_seen: usize,
    /// Records skipped as older than the staleness TTL.
    pub stale_records: usize,
    /// The hotspot set after the hysteresis update.
    pub hotspots: Vec<Loid>,
    /// Migrations planned (bounded by the per-sweep budget).
    pub planned: usize,
    /// Migrations that completed (including re-homes).
    pub completed: Vec<MigrationRecord>,
    /// Migrations that failed, with their typed causes.
    pub failed: Vec<(Loid, MigrateError)>,
    /// Maximum live host load at the convergence check.
    pub max_load: f64,
    /// Mean live host load at the convergence check.
    pub mean_load: f64,
    /// Whether max load sits at or below the exit line.
    pub converged: bool,
}

impl SweepReport {
    fn empty() -> Self {
        SweepReport {
            episode: None,
            hosts_seen: 0,
            stale_records: 0,
            hotspots: Vec::new(),
            planned: 0,
            completed: Vec::new(),
            failed: Vec::new(),
            max_load: 0.0,
            mean_load: 0.0,
            converged: true,
        }
    }
}

/// Reacts to monitor events by migrating load away, and (when built
/// with [`Rebalancer::closed_loop`]) runs budgeted, traced rebalance
/// sweeps against Collection data.
pub struct Rebalancer {
    loid: Loid,
    fabric: Arc<Fabric>,
    monitor: Monitor,
    collection: Option<Arc<Collection>>,
    config: RebalanceConfig,
    /// Hotspot membership carried between sweeps (the hysteresis state).
    hot: Mutex<BTreeSet<Loid>>,
    /// Do not migrate onto hosts above this load (event-driven path).
    pub target_load_ceiling: f64,
}

impl Rebalancer {
    /// An event-driven rebalancer owning its monitor.
    pub fn new(fabric: Arc<Fabric>) -> Self {
        Rebalancer {
            loid: Loid::fresh(LoidKind::Service),
            fabric,
            monitor: Monitor::new(),
            collection: None,
            config: RebalanceConfig::default(),
            hot: Mutex::new(BTreeSet::new()),
            target_load_ceiling: 0.75,
        }
    }

    /// A closed-loop rebalancer sweeping `collection` under `config`.
    /// The event-driven API stays available alongside.
    pub fn closed_loop(
        fabric: Arc<Fabric>,
        collection: Arc<Collection>,
        config: RebalanceConfig,
    ) -> Self {
        let mut rb = Rebalancer::new(fabric);
        rb.collection = Some(collection);
        rb.config = config;
        rb
    }

    /// This rebalancer's identifier (the monitor-side endpoint of its
    /// probe and migration traffic).
    pub fn loid(&self) -> Loid {
        self.loid
    }

    /// The sweep policy in force.
    pub fn config(&self) -> &RebalanceConfig {
        &self.config
    }

    /// The embedded monitor (to register watches).
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// Hosts currently in the hotspot set.
    pub fn hotspots(&self) -> Vec<Loid> {
        self.hot.lock().iter().copied().collect()
    }

    /// Watches every currently registered host at `threshold` load.
    pub fn watch_all(&self, threshold: f64) {
        for hl in self.fabric.host_loids() {
            if let Some(host) = self.fabric.lookup_host(hl) {
                self.monitor.watch_load(&host, threshold);
            }
        }
    }

    /// Drains events and performs migrations. Returns the migrations
    /// that completed this round.
    ///
    /// Two event kinds are handled: a `LoadThresholdExceeded` moves one
    /// object off the overloaded host per round (gentle rebalancing),
    /// while a `HostShutdown` drains *every* resident object — the host
    /// is going away.
    pub fn rebalance_once(&self) -> Vec<MigrationRecord> {
        let mut done = Vec::new();
        for event in self.monitor.drain_events() {
            let source = event.source;
            match event.kind {
                EventKind::LoadThresholdExceeded => {
                    let Some(src) = self.fabric.lookup_host(source) else { continue };
                    // Pick a victim: any running object (the first is
                    // fine for the default policy).
                    let Some(victim) = src.running_objects().into_iter().next() else {
                        continue;
                    };
                    let Some(target) = self.pick_target(source) else { continue };
                    if let Ok(rec) = migrate_object(&self.fabric, victim, source, target) {
                        done.push(rec);
                    }
                }
                EventKind::HostShutdown => {
                    let Some(src) = self.fabric.lookup_host(source) else { continue };
                    for victim in src.running_objects() {
                        let Some(target) = self.pick_target(source) else { break };
                        if let Ok(rec) = migrate_object(&self.fabric, victim, source, target)
                        {
                            done.push(rec);
                        }
                    }
                }
                _ => {}
            }
        }
        done
    }

    /// One closed-loop sweep: detect hotspots from fresh Collection
    /// records, plan migrations under the budget, execute them with
    /// alternate-target fallback, then check convergence. Each stage is
    /// a traced span inside one `rebalance` episode.
    ///
    /// Degrades gracefully everywhere: stale records are skipped (and
    /// counted), unreachable sources are left for the next sweep, dead
    /// targets fall through to alternates, and a sweep with nothing to
    /// do is just a detect + converge pair.
    pub fn sweep(&self, now: SimTime) -> SweepReport {
        let Some(collection) = self.collection.clone() else {
            return SweepReport::empty();
        };
        MetricsLedger::bump(&self.fabric.metrics().rebalance_sweeps);
        let tracer = Arc::clone(self.fabric.tracer());
        let episode = tracer.begin_episode("rebalance", self.loid);
        let mut report = SweepReport::empty();
        report.episode = episode.id();

        // --- detect: trusted loads + hysteresis update ---------------
        let detect = tracer.span(SpanKind::RebalanceDetect);
        let mut loads: BTreeMap<Loid, f64> = BTreeMap::new();
        let mut draining: BTreeSet<Loid> = BTreeSet::new();
        let (fresh, stale) = collection.fresh_records(now, self.config.stale_ttl);
        report.stale_records = stale;
        for rec in fresh {
            // Only currently registered hosts are planning input.
            if self.fabric.lookup_host(rec.member).is_none() {
                continue;
            }
            let Some(load) = rec.attrs.get_f64(well_known::LOAD) else { continue };
            if rec.attrs.get_bool(well_known::DRAINING).unwrap_or(false) {
                draining.insert(rec.member);
            }
            loads.insert(rec.member, load);
        }
        report.hosts_seen = loads.len();
        let mean = if loads.is_empty() {
            0.0
        } else {
            loads.values().sum::<f64>() / loads.len() as f64
        };
        let (enter, exit) = (self.config.enter_at(mean), self.config.exit_at(mean));
        {
            let mut hot = self.hot.lock();
            hot.retain(|h| loads.contains_key(h));
            for (&h, &load) in &loads {
                if load >= enter {
                    hot.insert(h);
                } else if load <= exit {
                    hot.remove(&h);
                }
                // Between exit and enter: membership is sticky — the
                // hysteresis band that stops threshold thrashing.
            }
            report.hotspots = hot.iter().copied().collect();
        }
        detect.attr("hosts", loads.len() as i64);
        detect.attr("stale", stale as i64);
        detect.attr("hotspots", report.hotspots.len() as i64);
        detect.attr("mean_load", mean);
        detect.attr("enter_at", enter);
        detect.attr("exit_at", exit);
        detect.end_ok();

        // --- plan: budgeted victim/target selection ------------------
        let plan = tracer.span(SpanKind::RebalancePlan);
        let planned = self.plan_migrations(&loads, &draining, &report.hotspots, mean);
        report.planned = planned.len();
        plan.attr("planned", planned.len() as i64);
        plan.attr("budget", self.config.budget_per_sweep as i64);
        plan.end_with(if planned.len() < report.hotspots.len() && !report.hotspots.is_empty() {
            // Some hotspot got no relief this sweep (unreachable, no
            // victims, or no willing target) — re-planned next sweep.
            SpanOutcome::ResourceUnavailable
        } else {
            SpanOutcome::Ok
        });

        // --- migrate: execute with alternate-target fallback ---------
        for p in planned {
            let span = tracer.span(SpanKind::RebalanceMigrate);
            span.attr("object", p.object.to_string());
            span.attr("from", p.from.to_string());
            span.attr("to", p.to.to_string());
            let mut targets = std::iter::once(p.to).chain(p.alternates.iter().copied());
            let mut attempts = 0i64;
            let outcome = loop {
                let Some(target) = targets.next() else {
                    break None;
                };
                attempts += 1;
                // Later alternates double as re-home candidates should
                // the source die while the object is in flight.
                let rehome: Vec<Loid> =
                    p.alternates.iter().copied().filter(|&a| a != target).collect();
                match migrate_object_with(&self.fabric, p.object, p.from, target, &rehome) {
                    Ok(rec) => break Some(Ok(rec)),
                    Err(e) => {
                        if e.wasted_work() {
                            MetricsLedger::bump(&self.fabric.metrics().rebalance_rollbacks);
                        }
                        if e.target_side() {
                            continue; // next alternate
                        }
                        break Some(Err(e));
                    }
                }
            };
            span.attr("attempts", attempts);
            match outcome {
                Some(Ok(rec)) => {
                    span.attr("landed_on", rec.to.to_string());
                    span.end_ok();
                    report.completed.push(rec);
                }
                Some(Err(e)) => {
                    span.attr("failure", e.to_string());
                    span.end_with(e.span_outcome());
                    report.failed.push((p.object, e));
                }
                None => {
                    // Every target refused; the object stays put.
                    span.end_with(SpanOutcome::ResourceUnavailable);
                }
            }
        }

        // --- converge: post-migration max/mean check -----------------
        let converge = tracer.span(SpanKind::RebalanceConverge);
        let mut live = Vec::new();
        for hl in self.fabric.host_loids() {
            let Some(h) = self.fabric.lookup_host(hl) else { continue };
            if h.is_crashed() {
                continue;
            }
            if let Some(load) = h.attributes().get_f64(well_known::LOAD) {
                live.push(load);
            }
        }
        let (max_load, mean_load) = if live.is_empty() {
            (0.0, 0.0)
        } else {
            (live.iter().cloned().fold(f64::MIN, f64::max), live.iter().sum::<f64>() / live.len() as f64)
        };
        report.max_load = max_load;
        report.mean_load = mean_load;
        report.converged = max_load <= self.config.exit_at(mean_load);
        converge.attr("max_load", max_load);
        converge.attr("mean_load", mean_load);
        converge.attr("converged", report.converged);
        converge.end_with(if report.converged {
            SpanOutcome::Ok
        } else {
            SpanOutcome::ResourceUnavailable
        });

        episode.attr("planned", report.planned as i64);
        episode.attr("completed", report.completed.len() as i64);
        episode.attr("failed", report.failed.len() as i64);
        episode.attr("converged", report.converged);
        episode.end_with(SpanOutcome::Ok);
        report
    }

    /// Victim/target selection under the sweep budget. Works on
    /// *projected* loads so one sweep's plans do not stack onto the
    /// same target, and never plans a migration that would push the
    /// target over the hysteresis entry line.
    fn plan_migrations(
        &self,
        loads: &BTreeMap<Loid, f64>,
        draining: &BTreeSet<Loid>,
        hotspots: &[Loid],
        mean: f64,
    ) -> Vec<PlannedMigration> {
        let mut planned = Vec::new();
        if hotspots.is_empty() || loads.len() < 2 {
            return planned;
        }
        let enter = self.config.enter_at(mean);
        let exit = self.config.exit_at(mean);
        let mut projected = loads.clone();
        let mut budget = self.config.budget_per_sweep;

        // Hottest first.
        let mut order: Vec<Loid> = hotspots.to_vec();
        order.sort_by(|a, b| {
            let (la, lb) = (loads.get(a).unwrap_or(&0.0), loads.get(b).unwrap_or(&0.0));
            lb.partial_cmp(la).unwrap_or(std::cmp::Ordering::Equal)
        });

        for &src in &order {
            if budget == 0 {
                break;
            }
            // A partitioned or otherwise unreachable source cannot be
            // drained this sweep — degrade gracefully, re-plan next.
            if self.fabric.link(self.loid, src).is_err() {
                continue;
            }
            let Some(src_host) = self.fabric.lookup_host(src) else { continue };
            let victims = src_host.running_objects();
            for victim in victims {
                if budget == 0 {
                    break;
                }
                if projected.get(&src).copied().unwrap_or(0.0) <= exit {
                    break; // this hotspot is projected back under the line
                }
                // The victim's demand comes off its vault checkpoint.
                let Some(cost) = self.victim_cost(victim) else { continue };
                // Candidate targets by projected load, coolest first.
                let mut candidates: Vec<(f64, Loid)> = projected
                    .iter()
                    .filter(|&(&h, &load)| {
                        h != src
                            && !draining.contains(&h)
                            && !hotspots.contains(&h)
                            && load + cost < enter
                            && self
                                .fabric
                                .lookup_host(h)
                                .is_some_and(|host| !host.get_compatible_vaults().is_empty())
                    })
                    .map(|(&h, &load)| (load, h))
                    .collect();
                candidates
                    .sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
                let Some(&(tload, target)) = candidates.first() else { continue };
                let alternates: Vec<Loid> = candidates
                    .iter()
                    .skip(1)
                    .take(self.config.alternates)
                    .map(|&(_, h)| h)
                    .collect();
                planned.push(PlannedMigration { object: victim, from: src, to: target, alternates });
                *projected.entry(src).or_insert(0.0) -= cost;
                projected.insert(target, tload + cost);
                budget -= 1;
            }
        }
        planned
    }

    /// The load a victim adds to whichever host runs it, read from its
    /// checkpointed OPR (no need to disturb the running instance).
    fn victim_cost(&self, object: Loid) -> Option<f64> {
        use legion_core::VaultDirectory;
        let vault = self
            .fabric
            .vault_loids()
            .into_iter()
            .find(|&v| self.fabric.lookup_vault(v).is_some_and(|vault| vault.holds(object)))?;
        let opr = self.fabric.lookup_vault(vault)?.fetch_opr(object).ok()?;
        Some(opr.cpu_centis as f64 / 100.0)
    }

    fn pick_target(&self, exclude: Loid) -> Option<Loid> {
        let mut best: Option<(f64, Loid)> = None;
        for hl in self.fabric.host_loids() {
            if hl == exclude {
                continue;
            }
            let Some(h) = self.fabric.lookup_host(hl) else { continue };
            if h.get_compatible_vaults().is_empty() {
                continue;
            }
            let attrs = h.attributes();
            // Never migrate onto a host that is itself draining.
            if attrs.get_bool(well_known::DRAINING).unwrap_or(false) {
                continue;
            }
            let load = attrs.get_f64(well_known::LOAD).unwrap_or(f64::MAX);
            if load > self.target_load_ceiling {
                continue;
            }
            match best {
                Some((b, _)) if b <= load => {}
                _ => best = Some((load, hl)),
            }
        }
        best.map(|(_, h)| h)
    }
}
