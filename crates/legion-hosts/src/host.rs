//! The standard (Unix / SMP) Host object.
//!
//! "Host Objects encapsulate machine capabilities (e.g., a processor and
//! its associated memory) and are responsible for instantiating objects
//! on the processor. In this way, the Host acts as an arbiter for the
//! machine's capabilities." (§2.1)
//!
//! [`StandardHost`] implements the full Table 1 interface over the
//! host-side [`ReservationTable`], a chain of [`LocalPolicy`]s (site
//! autonomy), a [`BackgroundLoad`] model, and the RGE trigger mechanism.
//! A multiprocessor (SMP) host is a `StandardHost` with `ncpus > 1` —
//! its `start_object()` accepts several [`ObjectSpec`]s per call, "
//! important to support efficient object creation for multiprocessor
//! systems" (§3.1).

use crate::load::BackgroundLoad;
use crate::policy::LocalPolicy;
use crate::restable::{ReservationTable, TableCapacity};
use legion_core::host::well_known;
use legion_core::{
    AttrValue, AttributeDb, Event, EventKind, HostObject, LegionError, Loid, LoidKind, ObjectSpec,
    Opr, ReservationRequest, ReservationStatus, ReservationToken, SimTime, SpanKind, SpanOutcome,
    Trigger, TriggerId, VaultDirectory, Outcall,
};
use legion_fabric::MetricsLedger;
use legion_trace::TraceSink;
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Static description of the machine a host guards.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Host name.
    pub name: String,
    /// Administrative domain.
    pub domain: String,
    /// Architecture (e.g. `"mips"`).
    pub arch: String,
    /// OS name (e.g. `"IRIX"`).
    pub os_name: String,
    /// OS version (e.g. `"5.3"`).
    pub os_version: String,
    /// Processor count.
    pub ncpus: u32,
    /// Physical memory, MB.
    pub memory_mb: u32,
    /// Price per CPU-second, millicents (the paper's "amount charged per
    /// CPU cycle consumed").
    pub price_per_cpu_sec: u64,
    /// Advertised willingness to accept extra jobs, [0, 1].
    pub willingness: f64,
}

impl HostConfig {
    /// A single-CPU Unix workstation.
    pub fn unix(name: impl Into<String>, domain: impl Into<String>) -> Self {
        HostConfig {
            name: name.into(),
            domain: domain.into(),
            arch: "mips".into(),
            os_name: "IRIX".into(),
            os_version: "5.3".into(),
            ncpus: 1,
            memory_mb: 512,
            price_per_cpu_sec: 0,
            willingness: 1.0,
        }
    }

    /// A shared-memory multiprocessor.
    pub fn smp(name: impl Into<String>, domain: impl Into<String>, ncpus: u32) -> Self {
        HostConfig { ncpus, memory_mb: 1024 * ncpus, ..Self::unix(name, domain) }
    }

    /// Builder: override platform (arch, os, version).
    pub fn platform(
        mut self,
        arch: impl Into<String>,
        os: impl Into<String>,
        version: impl Into<String>,
    ) -> Self {
        self.arch = arch.into();
        self.os_name = os.into();
        self.os_version = version.into();
        self
    }

    /// Builder: override memory.
    pub fn with_memory_mb(mut self, mb: u32) -> Self {
        self.memory_mb = mb;
        self
    }

    /// Builder: set the price per CPU-second.
    pub fn priced(mut self, millicents: u64) -> Self {
        self.price_per_cpu_sec = millicents;
        self
    }
}

#[derive(Debug, Clone)]
struct RunningObject {
    class: Loid,
    vault: Loid,
    memory_mb: u32,
    cpu_centis: u32,
    state: Vec<u8>,
    version: u64,
    token_serial: u64,
}

/// The objects running on a host, sorted by LOID. An idle host's table
/// holds no allocation: the removal that empties it frees it.
#[derive(Default)]
struct ObjectTable(Vec<(Loid, RunningObject)>);

impl ObjectTable {
    fn find(&self, object: Loid) -> Result<usize, usize> {
        self.0.binary_search_by_key(&object, |(loid, _)| *loid)
    }

    fn get(&self, object: Loid) -> Option<&RunningObject> {
        self.find(object).ok().map(|i| &self.0[i].1)
    }

    /// Starts tracking `object`, replacing any entry it already had.
    fn insert(&mut self, object: Loid, running: RunningObject) {
        match self.find(object) {
            Ok(i) => self.0[i].1 = running,
            Err(i) => self.0.insert(i, (object, running)),
        }
    }

    fn remove(&mut self, object: Loid) -> Option<RunningObject> {
        let i = self.find(object).ok()?;
        let (_, removed) = self.0.remove(i);
        if self.0.is_empty() {
            self.clear();
        }
        Some(removed)
    }

    fn clear(&mut self) {
        self.0 = Vec::new();
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn loids(&self) -> impl Iterator<Item = Loid> + '_ {
        self.0.iter().map(|(loid, _)| *loid)
    }

    fn values(&self) -> impl Iterator<Item = &RunningObject> {
        self.0.iter().map(|(_, running)| running)
    }
}

/// What a host publishes: its attribute database, and the vault scan
/// its compatible-vault list was built from, so that an unchanged scan
/// leaves the list — and every copy sharing its strings — as it is.
struct Published {
    attrs: AttributeDb,
    vaults: Vec<Loid>,
}

struct TriggerEntry {
    trigger: Trigger,
    last_fired: Option<SimTime>,
}

/// The standard Host object.
pub struct StandardHost {
    loid: Loid,
    config: HostConfig,
    table: Mutex<ReservationTable>,
    running: RwLock<ObjectTable>,
    policies: RwLock<Vec<Arc<dyn LocalPolicy>>>,
    triggers: RwLock<BTreeMap<u64, TriggerEntry>>,
    next_trigger: AtomicU64,
    outcalls: RwLock<Vec<Arc<dyn Outcall>>>,
    vaults: Arc<dyn VaultDirectory>,
    load: Mutex<BackgroundLoad>,
    published: RwLock<Published>,
    metrics: RwLock<Option<Arc<MetricsLedger>>>,
    tracer: RwLock<Option<Arc<TraceSink>>>,
    draining: std::sync::atomic::AtomicBool,
    crashed: std::sync::atomic::AtomicBool,
}

impl StandardHost {
    /// Creates a host guarding the configured machine.
    ///
    /// `seed` derives the reservation-token secret; `vaults` resolves
    /// vault LOIDs (usually the fabric).
    pub fn new(config: HostConfig, vaults: Arc<dyn VaultDirectory>, seed: u64) -> Arc<Self> {
        Self::with_loid(Loid::fresh(LoidKind::Host), config, vaults, seed)
    }

    /// As [`StandardHost::new`] with a caller-chosen LOID.
    pub fn with_loid(
        loid: Loid,
        config: HostConfig,
        vaults: Arc<dyn VaultDirectory>,
        seed: u64,
    ) -> Arc<Self> {
        assert_eq!(loid.kind, LoidKind::Host, "host LOID must have host kind");
        let capacity =
            TableCapacity { cpu_centis: config.ncpus * 100, memory_mb: config.memory_mb };
        let secret = legion_core::hash::mix64(seed ^ loid.digest());
        // The values that never change are built once; every copy of
        // the database — the Collection's record included — shares
        // their strings. `refresh_attrs` fills in the rest.
        let attrs = AttributeDb::new()
            .with(well_known::HOST_NAME, config.name.as_str())
            .with(well_known::DOMAIN, config.domain.as_str())
            .with(well_known::ARCH, config.arch.as_str())
            .with(well_known::OS_NAME, config.os_name.as_str())
            .with(well_known::OS_VERSION, config.os_version.as_str())
            .with(well_known::NCPUS, config.ncpus as i64)
            .with(well_known::MEMORY_MB, config.memory_mb as i64)
            .with(well_known::PRICE_PER_CPU_SEC, config.price_per_cpu_sec as i64)
            .with(well_known::WILLINGNESS, config.willingness)
            .with(well_known::FLAVOR, "unix")
            .with(well_known::COMPATIBLE_VAULTS, AttrValue::List(Vec::new()));
        let host = StandardHost {
            loid,
            table: Mutex::new(ReservationTable::new(loid, secret, capacity)),
            running: RwLock::new(ObjectTable::default()),
            // No policy accepts everything; an empty chain allocates nothing.
            policies: RwLock::new(Vec::new()),
            triggers: RwLock::new(BTreeMap::new()),
            next_trigger: AtomicU64::new(1),
            outcalls: RwLock::new(Vec::new()),
            vaults,
            load: Mutex::new(BackgroundLoad::steady(0.0)),
            published: RwLock::new(Published { attrs, vaults: Vec::new() }),
            metrics: RwLock::new(None),
            tracer: RwLock::new(None),
            draining: std::sync::atomic::AtomicBool::new(false),
            crashed: std::sync::atomic::AtomicBool::new(false),
            config,
        };
        let host = Arc::new(host);
        host.refresh_attrs(SimTime::ZERO);
        host
    }

    /// The machine's configuration.
    pub fn config(&self) -> &HostConfig {
        &self.config
    }

    /// Replaces the policy chain.
    pub fn set_policies(&self, policies: Vec<Arc<dyn LocalPolicy>>) {
        *self.policies.write() = policies;
    }

    /// Appends a policy to the chain.
    pub fn add_policy(&self, policy: Arc<dyn LocalPolicy>) {
        self.policies.write().push(policy);
    }

    /// Sets the background load process.
    pub fn set_background_load(&self, load: BackgroundLoad) {
        *self.load.lock() = load;
    }

    /// Attaches the fabric metrics ledger.
    pub fn set_metrics(&self, m: Arc<MetricsLedger>) {
        *self.metrics.write() = Some(m);
    }

    /// Attaches the fabric trace sink so `start_object` calls emit
    /// `start_object` spans.
    pub fn set_tracer(&self, t: Arc<TraceSink>) {
        *self.tracer.write() = Some(t);
    }

    fn start_span(&self) -> legion_trace::SpanGuard {
        match self.tracer.read().as_ref() {
            Some(t) => t.span(SpanKind::StartObject),
            None => legion_trace::SpanGuard::disabled(),
        }
    }

    /// Begins an administrative shutdown: new reservations are refused
    /// and every reassessment raises a `HostShutdown` event until the
    /// host is empty, so a Monitor can drain the resident objects
    /// ("the host is shutting down and objects must migrate").
    pub fn begin_shutdown(&self) {
        self.draining.store(true, Ordering::Release);
    }

    /// Cancels an administrative shutdown.
    pub fn cancel_shutdown(&self) {
        self.draining.store(false, Ordering::Release);
    }

    /// Whether the host is draining for shutdown.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Fails with `HostDown` while the host is crashed; every RMI entry
    /// point calls this first, so a dead host answers nothing.
    fn ensure_up(&self) -> Result<(), LegionError> {
        if self.crashed.load(Ordering::Acquire) {
            Err(LegionError::HostDown(self.loid))
        } else {
            Ok(())
        }
    }

    fn bump(&self, f: impl FnOnce(&MetricsLedger)) {
        if let Some(m) = self.metrics.read().as_ref() {
            f(m);
        }
    }

    /// Sum of running Legion demand: (cpu-centis, memory MB).
    fn legion_demand(&self) -> (u32, u32) {
        let running = self.running.read();
        let cpu = running.values().map(|r| r.cpu_centis).sum();
        let mem = running.values().map(|r| r.memory_mb).sum();
        (cpu, mem)
    }

    /// Stops tracking `object` and, if nothing else runs under its
    /// reservation, frees that reservation early — both under one write
    /// guard, so the check sees exactly what the removal left.
    fn remove_running(&self, object: Loid) -> Option<RunningObject> {
        let mut running = self.running.write();
        let removed = running.remove(object)?;
        if !running.values().any(|r| r.token_serial == removed.token_serial) {
            self.table.lock().release(removed.token_serial);
        }
        Some(removed)
    }

    /// Re-fills the load-dependent attributes in place.
    fn refresh_attrs(&self, now: SimTime) {
        let bg = self.load.lock().current(now);
        let (cpu, mem) = self.legion_demand();
        let load = bg + cpu as f64 / 100.0;
        let free_mem = self.config.memory_mb.saturating_sub(mem);
        let running_count = self.running.read().len() as i64;
        let vaults = self.compatible_vault_scan();
        let mut published = self.published.write();
        let attrs = &mut published.attrs;
        attrs.set(well_known::FREE_MEMORY_MB, free_mem as i64);
        attrs.set(well_known::LOAD, load);
        attrs.set(well_known::DRAINING, self.is_draining());
        attrs.set(well_known::RUNNING_OBJECTS, running_count);
        if published.vaults != vaults {
            let list = vaults.iter().map(|l| AttrValue::from(l.to_string())).collect();
            published.attrs.set(well_known::COMPATIBLE_VAULTS, AttrValue::List(list));
            published.vaults = vaults;
        }
    }

    /// Scans the vault directory for compatible vaults. Vaults judge by
    /// the host's domain and architecture, which never change.
    fn compatible_vault_scan(&self) -> Vec<Loid> {
        let published = self.published.read();
        self.vaults
            .vault_loids()
            .into_iter()
            .filter(|&v| {
                self.vaults
                    .lookup_vault(v)
                    .is_some_and(|vault| vault.compatible_with_host(&published.attrs))
            })
            .collect()
    }

}

impl HostObject for StandardHost {
    fn loid(&self) -> Loid {
        self.loid
    }

    fn make_reservation(
        &self,
        req: &ReservationRequest,
        now: SimTime,
    ) -> Result<ReservationToken, LegionError> {
        self.ensure_up()?;
        self.bump(|m| MetricsLedger::bump(&m.reservation_requests));

        // 0. A draining host accepts nothing new.
        if self.is_draining() {
            self.bump(|m| MetricsLedger::bump(&m.reservations_denied));
            return Err(LegionError::PolicyRefused {
                host: self.loid,
                policy: "shutdown: host is draining".into(),
            });
        }

        // 1. The vault must be reachable and compatible (§3.1).
        let vault = self
            .vaults
            .lookup_vault(req.vault)
            .ok_or(LegionError::VaultUnreachable { host: self.loid, vault: req.vault })?;
        {
            // Both checks read the attributes under one read guard,
            // which ends before the table is locked.
            let published = self.published.read();
            let attrs = &published.attrs;
            if !vault.compatible_with_host(attrs) {
                self.bump(|m| MetricsLedger::bump(&m.reservations_denied));
                return Err(LegionError::VaultIncompatible { host: self.loid, vault: req.vault });
            }

            // 2. Local placement policy (§3.1 — site autonomy).
            for p in self.policies.read().iter() {
                if let Err(reason) = p.permit(req, attrs, now) {
                    self.bump(|m| MetricsLedger::bump(&m.reservations_denied));
                    return Err(LegionError::PolicyRefused {
                        host: self.loid,
                        policy: format!("{}: {reason}", p.name()),
                    });
                }
            }
        }

        // 3. Sufficient resources (the reservation table's admission).
        match self.table.lock().make(req, now) {
            Ok(tok) => {
                self.bump(|m| MetricsLedger::bump(&m.reservations_granted));
                Ok(tok)
            }
            Err(e) => {
                self.bump(|m| MetricsLedger::bump(&m.reservations_denied));
                Err(e)
            }
        }
    }

    fn check_reservation(
        &self,
        token: &ReservationToken,
        now: SimTime,
    ) -> Result<ReservationStatus, LegionError> {
        self.ensure_up()?;
        self.table.lock().check(token, now)
    }

    fn cancel_reservation(&self, token: &ReservationToken) -> Result<(), LegionError> {
        self.ensure_up()?;
        self.table.lock().cancel(token)?;
        self.bump(|m| MetricsLedger::bump(&m.reservations_cancelled));
        Ok(())
    }

    fn start_object(
        &self,
        token: &ReservationToken,
        specs: &[ObjectSpec],
        now: SimTime,
    ) -> Result<Vec<Loid>, LegionError> {
        let span = self.start_span();
        span.attr("host", self.config.name.as_str());
        span.attr("class", token.class.to_string());
        span.attr("specs", specs.len() as i64);
        let result = (|| -> Result<Vec<Loid>, LegionError> {
        self.ensure_up()?;
        if specs.is_empty() {
            return Err(LegionError::Other("start_object with no specs".into()));
        }
        for s in specs {
            if s.class != token.class {
                return Err(LegionError::MalformedSchedule(format!(
                    "spec class {} does not match reservation class {}",
                    s.class, token.class
                )));
            }
            // A selected implementation must actually run here (§3.3).
            if let Some(imp) = &s.implementation {
                if !imp.runs_on(&self.config.arch, &self.config.os_name) {
                    return Err(LegionError::NoUsableImplementation { class: s.class });
                }
            }
        }
        // Presenting the token is the implicit confirmation (§3.1).
        self.table.lock().consume(token, now)?;

        let per_obj_cpu = (token.cpu_centis / specs.len() as u32).max(1);
        let mut started = Vec::with_capacity(specs.len());
        let vault = self.vaults.lookup_vault(token.vault);
        {
            let mut running = self.running.write();
            for spec in specs {
                let instance = if spec.instance.is_nil() {
                    Loid::fresh(LoidKind::Instance)
                } else {
                    spec.instance
                };
                // Checkpoint at birth (§2.1): seed the vault with an
                // initial OPR so a Monitor can restart the object from
                // passive state if this host fail-stops before its first
                // deactivation. Best-effort — a full vault degrades to
                // the pre-checkpoint (unrecoverable) behaviour.
                let mut version = 0;
                if let Some(v) = &vault {
                    let opr = Opr::new(instance, spec.class, now, spec.initial_state.clone())
                        .with_memory_mb(spec.memory_mb)
                        .with_cpu_centis(per_obj_cpu);
                    if v.store_opr(opr).is_ok() {
                        version = 1;
                    }
                }
                running.insert(
                    instance,
                    RunningObject {
                        class: spec.class,
                        vault: token.vault,
                        memory_mb: spec.memory_mb,
                        cpu_centis: per_obj_cpu,
                        state: spec.initial_state.clone(),
                        version,
                        token_serial: token.serial,
                    },
                );
                started.push(instance);
            }
        }
        self.bump(|m| MetricsLedger::bump_by(&m.objects_started, started.len() as u64));
        self.refresh_attrs(now);
        Ok(started)
        })();
        match &result {
            Ok(started) => {
                span.attr("started", started.len() as i64);
                span.end_ok();
            }
            Err(e) => span.end_with(SpanOutcome::from_error(e)),
        }
        result
    }

    fn kill_object(&self, object: Loid) -> Result<(), LegionError> {
        self.ensure_up()?;
        let removed = self.remove_running(object).ok_or(LegionError::NoSuchObject(object))?;
        // Drop the checkpoint OPR: a killed object must not be
        // resurrected by the Monitor's crash-recovery sweep.
        if let Some(v) = self.vaults.lookup_vault(removed.vault) {
            let _ = v.delete_opr(object);
        }
        self.bump(|m| MetricsLedger::bump(&m.objects_killed));
        Ok(())
    }

    fn deactivate_object(&self, object: Loid, now: SimTime) -> Result<Opr, LegionError> {
        self.ensure_up()?;
        let obj = {
            let running = self.running.read();
            running.get(object).cloned().ok_or(LegionError::NoSuchObject(object))?
        };
        let vault = self
            .vaults
            .lookup_vault(obj.vault)
            .ok_or(LegionError::NoSuchVault(obj.vault))?;
        let mut opr = Opr::new(object, obj.class, now, obj.state.clone())
            .with_memory_mb(obj.memory_mb)
            .with_cpu_centis(obj.cpu_centis);
        opr.version = obj.version + 1;
        vault.store_opr(opr.clone())?;

        // Only remove the object once its state is safely in the vault.
        self.remove_running(object);
        self.bump(|m| MetricsLedger::bump(&m.objects_deactivated));
        self.refresh_attrs(now);
        Ok(opr)
    }

    fn reactivate_object(&self, opr: &Opr, now: SimTime) -> Result<(), LegionError> {
        self.ensure_up()?;
        // Find a compatible vault actually holding the OPR — reactivation
        // is driven by access, the host locates the passive state.
        let vault_loid = self
            .compatible_vault_scan()
            .into_iter()
            .find(|&v| {
                self.vaults.lookup_vault(v).is_some_and(|vault| vault.holds(opr.object))
            })
            .ok_or(LegionError::NoSuchOpr(opr.object))?;

        let (_, mem_in_use) = self.legion_demand();
        if mem_in_use + opr.memory_mb > self.config.memory_mb {
            return Err(LegionError::ReservationDenied {
                host: self.loid,
                reason: "insufficient free memory to reactivate".into(),
            });
        }
        self.running.write().insert(
            opr.object,
            RunningObject {
                class: opr.class,
                vault: vault_loid,
                memory_mb: opr.memory_mb,
                cpu_centis: opr.cpu_centis,
                state: opr.state.to_vec(),
                version: opr.version,
                token_serial: 0,
            },
        );
        self.bump(|m| MetricsLedger::bump(&m.objects_reactivated));
        self.refresh_attrs(now);
        Ok(())
    }

    fn running_objects(&self) -> Vec<Loid> {
        self.running.read().loids().collect()
    }

    fn get_compatible_vaults(&self) -> Vec<Loid> {
        self.compatible_vault_scan()
    }

    fn vault_ok(&self, vault: Loid) -> bool {
        if self.crashed.load(Ordering::Acquire) {
            return false;
        }
        self.vaults
            .lookup_vault(vault)
            .is_some_and(|v| v.compatible_with_host(&self.published.read().attrs))
    }

    fn attributes(&self) -> AttributeDb {
        self.published.read().attrs.clone()
    }

    fn register_trigger(&self, trigger: Trigger) -> TriggerId {
        let id = self.next_trigger.fetch_add(1, Ordering::Relaxed);
        self.triggers.write().insert(id, TriggerEntry { trigger, last_fired: None });
        TriggerId(id)
    }

    fn remove_trigger(&self, id: TriggerId) {
        self.triggers.write().remove(&id.0);
    }

    fn register_outcall(&self, outcall: Arc<dyn Outcall>) {
        self.outcalls.write().push(outcall);
    }

    fn crash(&self) {
        if self.crashed.swap(true, Ordering::AcqRel) {
            return;
        }
        // Volatile state is lost: running objects vanish and every live
        // reservation lapses. OPR checkpoints in the vaults survive —
        // they are the Monitor's recovery material.
        self.running.write().clear();
        self.table.lock().expire_all();
        self.bump(|m| MetricsLedger::bump(&m.host_crashes));
    }

    fn restart(&self, now: SimTime) {
        if !self.crashed.swap(false, Ordering::AcqRel) {
            return;
        }
        // The running map and reservation table were emptied at crash
        // time, so the machine comes back with reclaimed resources;
        // republish fresh attributes so schedulers see it as idle.
        self.refresh_attrs(now);
        self.bump(|m| MetricsLedger::bump(&m.host_restarts));
    }

    fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::Acquire)
    }

    fn probe(&self, _now: SimTime) -> Result<(), LegionError> {
        self.ensure_up()
    }

    fn reassess(&self, now: SimTime) -> Vec<Event> {
        // A crashed host is silent: no load sampling, no trigger
        // evaluation, no outcall notifications. The Monitor perceives
        // the crash only as missed reports.
        if self.crashed.load(Ordering::Acquire) {
            return Vec::new();
        }
        // Advance the background load and expire lapsed reservations.
        self.load.lock().sample(now);
        let expired = self.table.lock().sweep(now);
        self.refresh_attrs(now);
        let attrs = self.attributes();

        let mut events = Vec::new();
        if self.is_draining() && !self.running.read().is_empty() {
            events.push(Event {
                kind: EventKind::HostShutdown,
                source: self.loid,
                at: now,
                detail: attrs.clone(),
            });
        }
        for tok in expired {
            events.push(Event {
                kind: EventKind::ReservationExpired,
                source: self.loid,
                at: now,
                detail: AttributeDb::new().with("reservation_serial", tok.serial as i64),
            });
        }

        // Evaluate triggers against the fresh attribute snapshot.
        {
            let mut triggers = self.triggers.write();
            for entry in triggers.values_mut() {
                let cooled = entry
                    .last_fired
                    .is_none_or(|t| now.since(t) >= entry.trigger.cooldown);
                if cooled && entry.trigger.guard.eval(&attrs) {
                    entry.last_fired = Some(now);
                    events.push(Event {
                        kind: entry.trigger.raises.clone(),
                        source: self.loid,
                        at: now,
                        detail: attrs.clone(),
                    });
                    self.bump(|m| MetricsLedger::bump(&m.trigger_firings));
                }
            }
        }

        if !events.is_empty() {
            let outcalls = self.outcalls.read().clone();
            for e in &events {
                for oc in &outcalls {
                    oc.notify(e);
                }
            }
        }
        events
    }
}
