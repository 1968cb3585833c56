//! The fabric proper: object registry plus network model.

use crate::clock::VirtualClock;
use crate::domain::{DomainId, DomainTopology};
use crate::faults::{FaultAction, FaultPlan};
use crate::metrics::MetricsLedger;
use crate::rng::DetRng;
use legion_core::{
    ClassObject, HostObject, LegionError, Loid, PlacementContext, SimDuration, SimTime,
    SpanKind, VaultDirectory, VaultObject,
};
use legion_trace::TraceSink;
use parking_lot::{Mutex, RwLock};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The in-process metacomputing fabric.
///
/// Holds every registered object, knows which domain each lives in, and
/// meters all inter-object traffic. Implements [`PlacementContext`] (for
/// Classes) and [`VaultDirectory`] (for Hosts), so core objects stay
/// independent of this crate.
pub struct Fabric {
    clock: Arc<VirtualClock>,
    topology: RwLock<DomainTopology>,
    /// Hosts and locations are copy-on-write `Arc` maps: readers on the
    /// reservation hot path grab one `Arc` clone per *attempt* (a
    /// [`RegistrySnapshot`]) instead of a registry read-lock per
    /// mapping; mutations clone-and-swap, which is cheap because
    /// registration is rare next to lookups.
    hosts: RwLock<Arc<BTreeMap<Loid, Arc<dyn HostObject>>>>,
    vaults: RwLock<BTreeMap<Loid, Arc<dyn VaultObject>>>,
    classes: RwLock<BTreeMap<Loid, Arc<dyn ClassObject>>>,
    /// Domain of every registered object (service objects included).
    locations: RwLock<Arc<BTreeMap<Loid, DomainId>>>,
    metrics: Arc<MetricsLedger>,
    tracer: Arc<TraceSink>,
    rng: DetRng,
    link_rng: Mutex<SmallRng>,
    chaos: Mutex<Option<ChaosState>>,
    /// Wire-latency emulation: sim tasks park for each message's link
    /// latency (off by default) — see [`Fabric::set_wire_emulation`].
    wire_emulation: std::sync::atomic::AtomicBool,
    /// Attached discrete-event scheduler, if any. When present, a sim
    /// task's waits (wire emulation, enactor backoff) are scheduled
    /// events — see [`Fabric::attach_sim`].
    sim: RwLock<Option<crate::sim::SimHandle>>,
}

/// Live state of an installed fault plan: the not-yet-fired events plus
/// the active (healable) network effects, against the topology as it was
/// when the plan was installed.
struct ChaosState {
    pending: Vec<crate::faults::FaultEvent>,
    next: usize,
    base: DomainTopology,
    /// `(a, b, heal_at)` — both directions are cut until `heal_at`.
    partitions: Vec<(DomainId, DomainId, SimTime)>,
    /// `(drop_prob, extra_latency, until)`.
    bursts: Vec<(f64, SimDuration, SimTime)>,
}

impl Fabric {
    /// A fabric with the given topology and master seed.
    pub fn new(topology: DomainTopology, seed: u64) -> Arc<Self> {
        let rng = DetRng::new(seed);
        let link_rng = Mutex::new(rng.stream("fabric-links"));
        let clock = Arc::new(VirtualClock::new());
        let tracer = TraceSink::new();
        let clock_for_trace = Arc::clone(&clock);
        tracer.set_clock(Arc::new(move || clock_for_trace.now()));
        Arc::new(Fabric {
            clock,
            topology: RwLock::new(topology),
            hosts: RwLock::new(Arc::new(BTreeMap::new())),
            vaults: RwLock::new(BTreeMap::new()),
            classes: RwLock::new(BTreeMap::new()),
            locations: RwLock::new(Arc::new(BTreeMap::new())),
            metrics: Arc::new(MetricsLedger::default()),
            tracer,
            rng,
            link_rng,
            chaos: Mutex::new(None),
            wire_emulation: std::sync::atomic::AtomicBool::new(false),
            sim: RwLock::new(None),
        })
    }

    /// A single-domain fabric with microsecond-scale local latency.
    pub fn local(seed: u64) -> Arc<Self> {
        Self::new(DomainTopology::single(SimDuration::from_micros(50)), seed)
    }

    // --- registry ---------------------------------------------------------

    /// Registers a host in `domain`.
    pub fn register_host(&self, host: Arc<dyn HostObject>, domain: DomainId) {
        let loid = host.loid();
        Arc::make_mut(&mut *self.hosts.write()).insert(loid, host);
        Arc::make_mut(&mut *self.locations.write()).insert(loid, domain);
    }

    /// Removes a host from the fabric — a crash or administrative
    /// removal. Subsequent lookups fail with `NoSuchHost`, which every
    /// RMI component must "accommodate ... at any step" (§3.1). Returns
    /// the removed host, if it existed.
    pub fn unregister_host(&self, loid: Loid) -> Option<Arc<dyn HostObject>> {
        Arc::make_mut(&mut *self.locations.write()).remove(&loid);
        Arc::make_mut(&mut *self.hosts.write()).remove(&loid)
    }

    /// Registers a vault in `domain`.
    pub fn register_vault(&self, vault: Arc<dyn VaultObject>, domain: DomainId) {
        let loid = vault.loid();
        self.vaults.write().insert(loid, vault);
        Arc::make_mut(&mut *self.locations.write()).insert(loid, domain);
    }

    /// Removes a vault from the fabric — the OPRs it holds become
    /// unreachable. Returns the removed vault, if it existed.
    pub fn unregister_vault(&self, loid: Loid) -> Option<Arc<dyn VaultObject>> {
        Arc::make_mut(&mut *self.locations.write()).remove(&loid);
        self.vaults.write().remove(&loid)
    }

    /// Registers a class object (classes are placeless; they are charged
    /// domain 0 traffic unless relocated with [`Fabric::place`]).
    pub fn register_class(&self, class: Arc<dyn ClassObject>) {
        let loid = class.loid();
        self.classes.write().insert(loid, class);
        Arc::make_mut(&mut *self.locations.write()).insert(loid, DomainId(0));
    }

    /// Places (or moves) an arbitrary object into a domain — used for
    /// service objects like Schedulers and Collections so their traffic
    /// is charged correctly.
    pub fn place(&self, loid: Loid, domain: DomainId) {
        Arc::make_mut(&mut *self.locations.write()).insert(loid, domain);
    }

    /// Takes a consistent copy-on-write snapshot of the host and
    /// location registries. A co-allocation attempt resolves every
    /// mapping against one snapshot — one `Arc` clone per attempt
    /// instead of a registry read-lock per mapping. Hosts registered or
    /// removed after the snapshot are invisible to it, exactly like a
    /// lookup that raced the change.
    pub fn registry(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            hosts: Arc::clone(&self.hosts.read()),
            locations: Arc::clone(&self.locations.read()),
        }
    }

    /// Looks up a registered class.
    pub fn lookup_class(&self, loid: Loid) -> Option<Arc<dyn ClassObject>> {
        self.classes.read().get(&loid).cloned()
    }

    /// All class LOIDs.
    pub fn class_loids(&self) -> Vec<Loid> {
        self.classes.read().keys().copied().collect()
    }

    /// The domain an object lives in (default domain 0 if unplaced).
    pub fn domain_of(&self, loid: Loid) -> DomainId {
        self.locations.read().get(&loid).copied().unwrap_or(DomainId(0))
    }

    /// Number of registered hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.read().len()
    }

    /// Number of registered vaults.
    pub fn vault_count(&self) -> usize {
        self.vaults.read().len()
    }

    // --- network model ------------------------------------------------------

    /// Meters one message from `from` to `to`.
    ///
    /// Applies the topology's loss probability (an error models a lost or
    /// undeliverable message the caller must handle, §3.1's "failure at
    /// any step"), charges latency to the ledger, and counts the message.
    pub fn link(&self, from: Loid, to: Loid) -> Result<SimDuration, LegionError> {
        let (a, b) = (self.domain_of(from), self.domain_of(to));
        self.link_between(a, b, from, to)
    }

    /// [`Fabric::link`] resolving domains from a [`RegistrySnapshot`]
    /// instead of the fabric's location registry. Loss is drawn from the
    /// same shared stream, so interleaving the two draws one sequence.
    pub fn link_via(
        &self,
        registry: &RegistrySnapshot,
        from: Loid,
        to: Loid,
    ) -> Result<SimDuration, LegionError> {
        let (a, b) = (registry.domain_of(from), registry.domain_of(to));
        self.link_between(a, b, from, to)
    }

    fn link_between(
        &self,
        a: DomainId,
        b: DomainId,
        from: Loid,
        to: Loid,
    ) -> Result<SimDuration, LegionError> {
        let topo = self.topology.read();
        MetricsLedger::bump(&self.metrics.messages);
        let p = topo.drop_prob(a, b);
        // The draw happens only on lossy links, so lossless runs consume
        // nothing from the stream.
        if p > 0.0 && self.link_rng.lock().gen::<f64>() < p {
            MetricsLedger::bump(&self.metrics.messages_dropped);
            return Err(LegionError::NetworkFailure { from, to });
        }
        let lat = topo.latency(a, b);
        drop(topo);
        self.metrics.charge_latency(lat);
        // The clock does not advance for message latency; the active
        // trace span (if any) absorbs it instead, so per-stage latency
        // histograms see where the simulated network time went.
        legion_trace::charge_active(lat);
        if self.wire_emulation.load(std::sync::atomic::Ordering::Relaxed) {
            // The wait is an event: a sim task parks until the wake at
            // `now + lat` fires, so the episode spends the wire latency
            // in virtual time while other tasks run. Non-task callers
            // (control-thread closures) and fabrics with no scheduler
            // attached cannot park and skip the wait; their latency is
            // still charged above.
            if let Some(sim) = self.sim.read().as_ref() {
                if sim.in_task() {
                    sim.sleep(lat);
                }
            }
        }
        Ok(lat)
    }

    /// Turns wire-latency emulation on or off (off by default): with a
    /// scheduler attached ([`Fabric::attach_sim`]), a sim task that sends
    /// a metered message parks for the link latency in virtual time.
    ///
    /// Ledger charges, trace spans and every loss draw are identical
    /// with emulation on or off; only the interleaving of sim tasks
    /// changes. Nothing ever blocks in real time.
    pub fn set_wire_emulation(&self, on: bool) {
        self.wire_emulation.store(on, std::sync::atomic::Ordering::Relaxed);
    }

    /// Mutates the topology (e.g. inject loss mid-experiment).
    pub fn with_topology<R>(&self, f: impl FnOnce(&mut DomainTopology) -> R) -> R {
        f(&mut self.topology.write())
    }

    /// Read-only topology access.
    pub fn topology<R>(&self, f: impl FnOnce(&DomainTopology) -> R) -> R {
        f(&self.topology.read())
    }

    // --- shared services ------------------------------------------------------

    /// The fabric clock.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// The metrics ledger.
    pub fn metrics(&self) -> &Arc<MetricsLedger> {
        &self.metrics
    }

    /// The trace sink. Disabled by default — spans are no-ops until
    /// [`Fabric::enable_tracing`] is called — so untraced experiments
    /// pay one atomic load per instrumentation point.
    pub fn tracer(&self) -> &Arc<TraceSink> {
        &self.tracer
    }

    /// Turns on pipeline tracing and returns the sink.
    pub fn enable_tracing(&self) -> Arc<TraceSink> {
        self.tracer.enable();
        Arc::clone(&self.tracer)
    }

    /// The deterministic RNG factory.
    pub fn rng(&self) -> DetRng {
        self.rng
    }

    // --- discrete-event scheduling --------------------------------------

    /// Attaches a discrete-event scheduler (which must drive this
    /// fabric's clock). While attached, [`Fabric::wait`] parks the
    /// calling sim task instead of advancing the clock directly, and —
    /// with [`Fabric::set_wire_emulation`] on — a sim task's metered
    /// messages park it for their link latency. The thread path is
    /// unaffected for fabrics that never attach — the config switch
    /// is simply whether a harness calls this.
    pub fn attach_sim(&self, sim: crate::sim::SimHandle) {
        *self.sim.write() = Some(sim);
    }

    /// Detaches the scheduler, restoring pure thread-path behaviour.
    pub fn detach_sim(&self) {
        *self.sim.write() = None;
    }

    /// The attached scheduler, if any.
    pub fn sim(&self) -> Option<crate::sim::SimHandle> {
        self.sim.read().clone()
    }

    /// Waits out `d` of simulated time in whichever way the current
    /// execution mode calls for: a sim task parks on a scheduled wake
    /// event (other tasks run meanwhile); everything else advances the
    /// shared clock directly, exactly as the pre-sim backoff path did.
    /// Either way the clock reads `now + d` when this returns, so retry
    /// deadlines and reservation expiry behave identically under both
    /// schedulers.
    pub fn wait(&self, d: SimDuration) {
        let sim = self.sim.read().clone();
        match sim {
            Some(s) if s.in_task() => s.sleep(d),
            _ => {
                self.clock.advance(d);
            }
        }
    }

    /// Drives one reassessment tick on every host, in LOID order,
    /// advancing the clock by `dt` first (and firing any fault-plan
    /// events that have come due). Returns the number of RGE events
    /// raised — crashed hosts contribute none, which is precisely the
    /// "missed report" signal a Monitor watches for.
    pub fn tick_all_hosts(&self, dt: SimDuration) -> usize {
        let now = self.clock.advance(dt);
        self.fire_due_faults(now);
        self.reassess_all(now)
    }

    /// Runs one reassessment pass over every registered host, in LOID
    /// order, without touching the clock or the fault plan — the
    /// tick-as-event form used by the sim harness, where the scheduler
    /// owns time. Returns the number of RGE events raised.
    pub fn reassess_all(&self, now: SimTime) -> usize {
        let hosts: Vec<Arc<dyn HostObject>> = self.hosts.read().values().cloned().collect();
        let mut events = 0;
        for h in hosts {
            events += h.reassess(now).len();
        }
        events
    }

    // --- fault injection --------------------------------------------------

    /// Installs a fault plan; its events fire as [`Fabric::tick_all_hosts`]
    /// advances the clock past them. Replaces any previous plan (active
    /// partitions and bursts from the old plan are healed first).
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        let mut chaos = self.chaos.lock();
        if let Some(old) = chaos.take() {
            *self.topology.write() = old.base.clone();
        }
        *chaos = Some(ChaosState {
            pending: plan.events().to_vec(),
            next: 0,
            base: self.topology.read().clone(),
            partitions: Vec::new(),
            bursts: Vec::new(),
        });
    }

    /// Fires every installed fault event with `at <= now`, heals expired
    /// partitions and bursts, and rebuilds the topology from the base
    /// plus the still-active effects. [`Fabric::tick_all_hosts`] calls
    /// this as it advances the clock; the sim harness instead schedules
    /// it as an event at each of the plan's [`FaultPlan::firing_times`].
    pub fn fire_due_faults(&self, now: SimTime) {
        let mut chaos = self.chaos.lock();
        let Some(state) = chaos.as_mut() else { return };
        let mut network_dirty = false;

        while state.next < state.pending.len() && state.pending[state.next].at <= now {
            let ev = state.pending[state.next].clone();
            state.next += 1;
            MetricsLedger::bump(&self.metrics.faults_injected);
            let span = self.tracer.span(SpanKind::Fault);
            span.attr("due_us", ev.at.as_micros() as i64);
            match ev.action {
                FaultAction::CrashHost(l) => {
                    span.attr("action", "crash_host");
                    span.attr("host", l.to_string());
                    // The host counts its own crash (idempotently); the
                    // fabric only delivers the fault.
                    if let Some(h) = self.hosts.read().get(&l) {
                        h.crash();
                    }
                }
                FaultAction::RestartHost(l) => {
                    span.attr("action", "restart_host");
                    span.attr("host", l.to_string());
                    if let Some(h) = self.hosts.read().get(&l) {
                        h.restart(now);
                    }
                }
                FaultAction::LoseVault(l) => {
                    span.attr("action", "lose_vault");
                    span.attr("vault", l.to_string());
                    if self.unregister_vault(l).is_some() {
                        MetricsLedger::bump(&self.metrics.vaults_lost);
                    }
                }
                FaultAction::Partition { a, b, heal_at } => {
                    span.attr("action", "partition");
                    span.attr("a", a.0 as i64);
                    span.attr("b", b.0 as i64);
                    span.attr("heal_at_us", heal_at.as_micros() as i64);
                    state.partitions.push((a, b, heal_at));
                    MetricsLedger::bump(&self.metrics.partitions_started);
                    network_dirty = true;
                }
                FaultAction::DegradeLinks { drop_prob, extra_latency, until } => {
                    span.attr("action", "degrade_links");
                    span.attr("drop_prob", drop_prob);
                    span.attr("extra_latency_us", extra_latency.as_micros() as i64);
                    span.attr("until_us", until.as_micros() as i64);
                    state.bursts.push((drop_prob, extra_latency, until));
                    MetricsLedger::bump(&self.metrics.link_bursts);
                    network_dirty = true;
                }
            }
            span.end_ok();
        }

        let before = state.partitions.len();
        state.partitions.retain(|&(_, _, heal_at)| heal_at > now);
        let healed = before - state.partitions.len();
        if healed > 0 {
            MetricsLedger::bump_by(&self.metrics.partitions_healed, healed as u64);
            network_dirty = true;
        }
        let burst_count = state.bursts.len();
        state.bursts.retain(|&(_, _, until)| until > now);
        if state.bursts.len() != burst_count {
            network_dirty = true;
        }

        if network_dirty {
            // Recompute from the base so overlapping effects compose and
            // heal cleanly: bursts degrade every inter-domain pair, then
            // partitions sever their pairs outright.
            let mut topo = state.base.clone();
            let n = topo.len() as u16;
            for &(p, extra, _) in &state.bursts {
                for i in 0..n {
                    for j in 0..n {
                        if i != j {
                            let (a, b) = (DomainId(i), DomainId(j));
                            topo.set_drop_prob(a, b, topo.drop_prob(a, b).max(p));
                            topo.set_latency(a, b, topo.latency(a, b) + extra);
                        }
                    }
                }
            }
            for &(a, b, _) in &state.partitions {
                topo.set_drop_prob(a, b, 1.0);
                topo.set_drop_prob(b, a, 1.0);
            }
            *self.topology.write() = topo;
        }
    }

    /// Whether a partition currently severs the two domains.
    pub fn is_partitioned(&self, a: DomainId, b: DomainId) -> bool {
        self.chaos
            .lock()
            .as_ref()
            .is_some_and(|s| {
                s.partitions
                    .iter()
                    .any(|&(x, y, _)| (x == a && y == b) || (x == b && y == a))
            })
    }
}

/// A consistent, lock-free view of the host and location registries,
/// taken once per reservation attempt via [`Fabric::registry`]. Cloning
/// is two `Arc` bumps; lookups never touch a fabric lock.
#[derive(Clone)]
pub struct RegistrySnapshot {
    hosts: Arc<BTreeMap<Loid, Arc<dyn HostObject>>>,
    locations: Arc<BTreeMap<Loid, DomainId>>,
}

impl RegistrySnapshot {
    /// Looks up a host as of the snapshot.
    pub fn lookup_host(&self, loid: Loid) -> Option<Arc<dyn HostObject>> {
        self.hosts.get(&loid).cloned()
    }

    /// The domain an object lived in as of the snapshot (default domain
    /// 0 if unplaced — same rule as [`Fabric::domain_of`]).
    pub fn domain_of(&self, loid: Loid) -> DomainId {
        self.locations.get(&loid).copied().unwrap_or(DomainId(0))
    }

    /// Number of hosts in the snapshot.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }
}

impl std::fmt::Debug for RegistrySnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegistrySnapshot")
            .field("hosts", &self.hosts.len())
            .field("locations", &self.locations.len())
            .finish()
    }
}

impl PlacementContext for Fabric {
    fn lookup_host(&self, loid: Loid) -> Option<Arc<dyn HostObject>> {
        self.hosts.read().get(&loid).cloned()
    }

    fn host_loids(&self) -> Vec<Loid> {
        self.hosts.read().keys().copied().collect()
    }

    fn now(&self) -> SimTime {
        self.clock.now()
    }
}

impl VaultDirectory for Fabric {
    fn lookup_vault(&self, loid: Loid) -> Option<Arc<dyn VaultObject>> {
        self.vaults.read().get(&loid).cloned()
    }

    fn vault_loids(&self) -> Vec<Loid> {
        self.vaults.read().keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_core::LoidKind;

    #[test]
    fn placement_and_domains() {
        let f = Fabric::new(
            DomainTopology::uniform(2, SimDuration::from_micros(10), SimDuration::from_millis(30)),
            1,
        );
        let a = Loid::synthetic(LoidKind::Service, 1);
        let b = Loid::synthetic(LoidKind::Service, 2);
        f.place(a, DomainId(0));
        f.place(b, DomainId(1));
        assert_eq!(f.domain_of(a), DomainId(0));
        assert_eq!(f.domain_of(b), DomainId(1));
        // Unknown objects default to domain 0.
        assert_eq!(f.domain_of(Loid::synthetic(LoidKind::Service, 99)), DomainId(0));
    }

    #[test]
    fn link_charges_latency_and_counts() {
        let f = Fabric::new(
            DomainTopology::uniform(2, SimDuration::from_micros(10), SimDuration::from_millis(30)),
            1,
        );
        let a = Loid::synthetic(LoidKind::Service, 1);
        let b = Loid::synthetic(LoidKind::Service, 2);
        f.place(a, DomainId(0));
        f.place(b, DomainId(1));
        let lat = f.link(a, b).unwrap();
        assert_eq!(lat, SimDuration::from_millis(30));
        let snap = f.metrics().snapshot();
        assert_eq!(snap.messages, 1);
        assert_eq!(snap.sim_latency_us, 30_000);
    }

    #[test]
    fn lossy_links_fail_sometimes() {
        let f = Fabric::new(
            DomainTopology::uniform(2, SimDuration::from_micros(1), SimDuration::from_micros(1)),
            7,
        );
        f.with_topology(|t| t.set_inter_domain_drop_prob(0.5));
        let a = Loid::synthetic(LoidKind::Service, 1);
        let b = Loid::synthetic(LoidKind::Service, 2);
        f.place(a, DomainId(0));
        f.place(b, DomainId(1));
        let mut failures = 0;
        for _ in 0..200 {
            if f.link(a, b).is_err() {
                failures += 1;
            }
        }
        // With p = 0.5, observing fewer than 50 or more than 150 failures
        // in 200 trials is vanishingly unlikely.
        assert!((50..=150).contains(&failures), "failures = {failures}");
        assert_eq!(f.metrics().snapshot().messages_dropped, failures);
    }

    #[test]
    fn intra_domain_is_lossless_by_default() {
        let f = Fabric::local(3);
        let a = Loid::synthetic(LoidKind::Service, 1);
        let b = Loid::synthetic(LoidKind::Service, 2);
        for _ in 0..100 {
            assert!(f.link(a, b).is_ok());
        }
    }

    #[test]
    fn registry_snapshot_is_immutable_view() {
        let f = Fabric::local(3);
        let a = Loid::synthetic(LoidKind::Service, 1);
        f.place(a, DomainId(0));
        let snap = f.registry();
        assert_eq!(snap.host_count(), 0);
        assert_eq!(snap.domain_of(a), DomainId(0));
        // Mutations after the snapshot are invisible to it.
        let b = Loid::synthetic(LoidKind::Service, 2);
        f.place(b, DomainId(0));
        f.place(a, DomainId(0));
        assert_eq!(snap.domain_of(b), DomainId(0), "unknown objects default to domain 0");
        assert!(snap.lookup_host(b).is_none());
        // A fresh snapshot sees the new placements.
        assert_eq!(f.registry().domain_of(a), DomainId(0));
    }

    #[test]
    fn link_via_matches_link() {
        // link_via consumes the same shared stream as link —
        // interleaving the two draws one sequence.
        let f = Fabric::new(
            DomainTopology::uniform(2, SimDuration::from_micros(1), SimDuration::from_micros(1)),
            11,
        );
        f.with_topology(|t| t.set_inter_domain_drop_prob(0.3));
        let a = Loid::synthetic(LoidKind::Service, 1);
        let b = Loid::synthetic(LoidKind::Service, 2);
        f.place(a, DomainId(0));
        f.place(b, DomainId(1));
        let snap = f.registry();
        let mixed: Vec<bool> = (0..50)
            .map(|i| {
                if i % 2 == 0 {
                    f.link(a, b).is_ok()
                } else {
                    f.link_via(&snap, a, b).is_ok()
                }
            })
            .collect();

        let f2 = Fabric::new(
            DomainTopology::uniform(2, SimDuration::from_micros(1), SimDuration::from_micros(1)),
            11,
        );
        f2.with_topology(|t| t.set_inter_domain_drop_prob(0.3));
        f2.place(a, DomainId(0));
        f2.place(b, DomainId(1));
        let pure: Vec<bool> = (0..50).map(|_| f2.link(a, b).is_ok()).collect();
        assert_eq!(mixed, pure);
    }

    #[test]
    fn deterministic_loss_sequence() {
        let run = |seed: u64| -> Vec<bool> {
            let f = Fabric::new(
                DomainTopology::uniform(
                    2,
                    SimDuration::from_micros(1),
                    SimDuration::from_micros(1),
                ),
                seed,
            );
            f.with_topology(|t| t.set_inter_domain_drop_prob(0.3));
            let a = Loid::synthetic(LoidKind::Service, 1);
            let b = Loid::synthetic(LoidKind::Service, 2);
            f.place(a, DomainId(0));
            f.place(b, DomainId(1));
            (0..50).map(|_| f.link(a, b).is_ok()).collect()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}

#[cfg(test)]
mod stat_tests {
    use super::*;
    use legion_core::LoidKind;

    #[test]
    fn loss_frequency_tracks_probability() {
        // Empirical loss rate over many trials stays near the configured
        // probability for several p values (deterministic seed).
        for (p, lo, hi) in [(0.1, 0.05, 0.16), (0.3, 0.24, 0.37), (0.7, 0.62, 0.78)] {
            let f = Fabric::new(
                DomainTopology::uniform(
                    2,
                    SimDuration::from_micros(1),
                    SimDuration::from_micros(1),
                ),
                1234,
            );
            f.with_topology(|t| t.set_inter_domain_drop_prob(p));
            let a = Loid::synthetic(LoidKind::Service, 1);
            let b = Loid::synthetic(LoidKind::Service, 2);
            f.place(a, DomainId(0));
            f.place(b, DomainId(1));
            let n = 2000;
            let drops = (0..n).filter(|_| f.link(a, b).is_err()).count();
            let rate = drops as f64 / n as f64;
            assert!(
                (lo..=hi).contains(&rate),
                "p = {p}: empirical {rate} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn unregistered_host_disappears_from_context() {
        use legion_hosts_shim::*;
        // A minimal host stub so the fabric test stays in-crate.
        let f = Fabric::local(3);
        let h = Arc::new(StubHost::new());
        let loid = legion_core::HostObject::loid(&*h);
        f.register_host(h, DomainId(0));
        assert_eq!(f.host_count(), 1);
        assert!(f.lookup_host(loid).is_some());
        assert!(f.unregister_host(loid).is_some());
        assert!(f.lookup_host(loid).is_none());
        assert!(f.host_loids().is_empty());
        assert!(f.unregister_host(loid).is_none(), "idempotent");
    }

    /// A do-nothing HostObject for registry tests.
    mod legion_hosts_shim {
        use legion_core::*;
        use std::sync::Arc;

        pub struct StubHost {
            loid: Loid,
        }

        impl StubHost {
            pub fn new() -> Self {
                StubHost { loid: Loid::fresh(LoidKind::Host) }
            }
        }

        impl HostObject for StubHost {
            fn loid(&self) -> Loid {
                self.loid
            }
            fn make_reservation(
                &self,
                _: &ReservationRequest,
                _: SimTime,
            ) -> Result<ReservationToken, LegionError> {
                Err(LegionError::Other("stub".into()))
            }
            fn check_reservation(
                &self,
                _: &ReservationToken,
                _: SimTime,
            ) -> Result<ReservationStatus, LegionError> {
                Err(LegionError::InvalidToken)
            }
            fn cancel_reservation(&self, _: &ReservationToken) -> Result<(), LegionError> {
                Err(LegionError::InvalidToken)
            }
            fn start_object(
                &self,
                _: &ReservationToken,
                _: &[ObjectSpec],
                _: SimTime,
            ) -> Result<Vec<Loid>, LegionError> {
                Err(LegionError::Other("stub".into()))
            }
            fn kill_object(&self, o: Loid) -> Result<(), LegionError> {
                Err(LegionError::NoSuchObject(o))
            }
            fn deactivate_object(&self, o: Loid, _: SimTime) -> Result<Opr, LegionError> {
                Err(LegionError::NoSuchObject(o))
            }
            fn reactivate_object(&self, _: &Opr, _: SimTime) -> Result<(), LegionError> {
                Err(LegionError::Other("stub".into()))
            }
            fn running_objects(&self) -> Vec<Loid> {
                Vec::new()
            }
            fn get_compatible_vaults(&self) -> Vec<Loid> {
                Vec::new()
            }
            fn vault_ok(&self, _: Loid) -> bool {
                false
            }
            fn attributes(&self) -> AttributeDb {
                AttributeDb::new()
            }
            fn register_trigger(&self, _: Trigger) -> TriggerId {
                TriggerId(0)
            }
            fn remove_trigger(&self, _: TriggerId) {}
            fn register_outcall(&self, _: Arc<dyn Outcall>) {}
            fn reassess(&self, _: SimTime) -> Vec<Event> {
                Vec::new()
            }
        }
    }
}
