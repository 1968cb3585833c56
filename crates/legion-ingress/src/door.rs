//! The front door itself: admission, backpressure, placement, grants.

use crate::bucket::TokenBucket;
use crate::grants::{GrantId, GrantRecord, GrantState};
use crate::tenant::{PriorityClass, TenantId, TenantStats};
use legion_core::{
    EpisodeId, LegionError, Loid, LoidKind, Opr, PlacementRequest, ReservationRequest,
    PlacementContext, ReservationToken, SimDuration, SimTime, SpanKind, SpanOutcome,
    VaultDirectory,
};
use legion_fabric::MetricsLedger;
use legion_schedule::Enactor;
use legion_schedulers::{DriverLimits, ScheduleDriver, SchedCtx, Scheduler};
use legion_trace::TraceRollup;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The fair-use envelope of one [`PriorityClass`].
#[derive(Debug, Clone, Copy)]
pub struct ClassPolicy {
    /// Sustained admissions per virtual second per tenant.
    pub rate_per_sec: f64,
    /// Token-bucket burst per tenant.
    pub burst: u32,
    /// Bounded in-flight queue per tenant (admitted, not yet concluded).
    pub queue_capacity: usize,
}

/// Front-door configuration.
#[derive(Debug, Clone, Copy)]
pub struct IngressConfig {
    /// Per-class fair-use policies, indexed by [`PriorityClass::index`].
    pub policies: [ClassPolicy; PriorityClass::COUNT],
    /// Enactor in-flight ceiling: at or above this, new admissions are
    /// shed with [`Rejected::Saturated`].
    pub saturation_limit: u64,
    /// How long a pending grant may sit unapproved, and an approved
    /// grant unconfirmed, before it expires.
    pub confirm_window: SimDuration,
    /// Retry limits handed to the [`ScheduleDriver`].
    pub limits: DriverLimits,
}

impl Default for IngressConfig {
    fn default() -> Self {
        IngressConfig {
            policies: [
                // Interactive: fast sustained rate, fail-fast queues.
                ClassPolicy { rate_per_sec: 2.0, burst: 4, queue_capacity: 4 },
                // Production: steady rate, moderate queues.
                ClassPolicy { rate_per_sec: 1.0, burst: 4, queue_capacity: 8 },
                // Best-effort: slow sustained rate, bursty, deep queues.
                ClassPolicy { rate_per_sec: 0.25, burst: 8, queue_capacity: 16 },
            ],
            saturation_limit: 64,
            confirm_window: SimDuration::from_secs(30),
            limits: DriverLimits::default(),
        }
    }
}

impl IngressConfig {
    /// The policy for `class`.
    pub fn policy(&self, class: PriorityClass) -> ClassPolicy {
        self.policies[class.index()]
    }
}

/// Typed backpressure: why an admission was refused. Callers are
/// expected to back off (the variants say how), not retry hot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The tenant's token bucket is empty; a token accrues in
    /// `retry_in` of virtual time.
    RateLimited {
        /// Wait until the next token accrues.
        retry_in: SimDuration,
    },
    /// The tenant's bounded queue is full (admitted work not yet
    /// concluded occupies all `capacity` slots).
    QueueFull {
        /// The queue bound that was hit.
        capacity: usize,
    },
    /// The Enactor tier is saturated: `in_flight >= limit` reservation
    /// negotiations are already running.
    Saturated {
        /// Negotiations in flight when the request arrived.
        in_flight: u64,
        /// The configured ceiling.
        limit: u64,
    },
}

impl Rejected {
    /// Stable label for trace attributes and metric names.
    pub fn as_str(&self) -> &'static str {
        match self {
            Rejected::RateLimited { .. } => "rate_limited",
            Rejected::QueueFull { .. } => "queue_full",
            Rejected::Saturated { .. } => "saturated",
        }
    }
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::RateLimited { retry_in } => {
                write!(f, "rate limited; retry in {}us", retry_in.as_micros())
            }
            Rejected::QueueFull { capacity } => write!(f, "queue full ({capacity} slots)"),
            Rejected::Saturated { in_flight, limit } => {
                write!(f, "enactor saturated ({in_flight} >= {limit} in flight)")
            }
        }
    }
}

/// What can go wrong at the front door.
#[derive(Debug)]
pub enum IngressError {
    /// Admission refused with typed backpressure.
    Rejected(Rejected),
    /// Admitted, but the placement itself failed.
    Placement(LegionError),
    /// Unknown tenant handle.
    NoSuchTenant(TenantId),
    /// Unknown grant handle.
    NoSuchGrant(GrantId),
    /// A grant transition was attempted out of order (e.g. confirming
    /// a grant that was never approved). Carries the state it was in.
    GrantNotPending(GrantId, GrantState),
    /// The grant's confirm window lapsed before the transition.
    GrantExpired(GrantId),
}

impl std::fmt::Display for IngressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngressError::Rejected(r) => write!(f, "admission rejected: {r}"),
            IngressError::Placement(e) => write!(f, "placement failed: {e}"),
            IngressError::NoSuchTenant(t) => write!(f, "no such tenant {t}"),
            IngressError::NoSuchGrant(g) => write!(f, "no such grant {g}"),
            IngressError::GrantNotPending(g, s) => {
                write!(f, "grant {g} is {s}, not pending")
            }
            IngressError::GrantExpired(g) => write!(f, "grant {g} expired unconfirmed"),
        }
    }
}

impl std::error::Error for IngressError {}

impl From<Rejected> for IngressError {
    fn from(r: Rejected) -> Self {
        IngressError::Rejected(r)
    }
}

/// Proof of admission: one occupied slot in the tenant's bounded
/// queue. Consumed by [`FrontDoor::place`] (which concludes it) or
/// released explicitly with [`FrontDoor::conclude`]. Dropping a permit
/// without concluding leaks its queue slot — the compiler's
/// `must_use` is the guard rail.
#[derive(Debug)]
#[must_use = "a permit occupies a queue slot until placed or concluded"]
pub struct Permit {
    tenant: TenantId,
}

impl Permit {
    /// The admitted tenant.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }
}

struct TenantEntry {
    name: String,
    class: PriorityClass,
    bucket: TokenBucket,
    queue_used: usize,
    stats: TenantStats,
}

struct DoorState {
    tenants: Vec<TenantEntry>,
    /// Placement episode → admitting tenant, for per-tenant rollups.
    episodes: BTreeMap<EpisodeId, TenantId>,
    grants: BTreeMap<GrantId, GrantRecord>,
    next_grant: u64,
}

/// The multi-tenant front door in front of the [`ScheduleDriver`].
///
/// One instance per deployment; owns the scheduler, the Enactor handle
/// and a [`SchedCtx`], so tenants interact purely through
/// [`TenantId`]s and [`PlacementRequest`]s. All decisions read the
/// fabric's virtual clock — under the discrete-event scheduler the
/// door is fully deterministic.
pub struct FrontDoor {
    ctx: SchedCtx,
    enactor: Arc<Enactor>,
    /// The one driver every placement goes through, built at
    /// construction — `place`/`submit`/`submit_many` share it (and
    /// through the shared [`SchedCtx`], the compiled-query and
    /// candidate caches).
    driver: ScheduleDriver,
    /// Vault holding pending-grant ledger records.
    ledger_vault: Loid,
    config: IngressConfig,
    state: Mutex<DoorState>,
}

impl FrontDoor {
    /// Builds a door over an already-wired deployment.
    pub fn new(
        ctx: SchedCtx,
        scheduler: Arc<dyn Scheduler>,
        enactor: Arc<Enactor>,
        ledger_vault: Loid,
        config: IngressConfig,
    ) -> Self {
        let driver = ScheduleDriver::with_limits(scheduler, Arc::clone(&enactor), config.limits);
        FrontDoor {
            ctx,
            enactor,
            driver,
            ledger_vault,
            config,
            state: Mutex::new(DoorState {
                tenants: Vec::new(),
                episodes: BTreeMap::new(),
                grants: BTreeMap::new(),
                next_grant: 1,
            }),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &IngressConfig {
        &self.config
    }

    /// The scheduler context (for callers composing extra queries).
    pub fn ctx(&self) -> &SchedCtx {
        &self.ctx
    }

    fn now(&self) -> SimTime {
        self.ctx.fabric.clock().now()
    }

    fn metrics(&self) -> &MetricsLedger {
        self.ctx.fabric.metrics()
    }

    // --- tenants ----------------------------------------------------------

    /// Registers a tenant under `class`; its token bucket starts full
    /// at the current virtual time.
    pub fn register_tenant(&self, name: impl Into<String>, class: PriorityClass) -> TenantId {
        let now = self.now();
        let policy = self.config.policy(class);
        let mut st = self.state.lock();
        let id = TenantId(st.tenants.len() as u32);
        st.tenants.push(TenantEntry {
            name: name.into(),
            class,
            bucket: TokenBucket::new(policy.rate_per_sec, policy.burst, now),
            queue_used: 0,
            stats: TenantStats::default(),
        });
        id
    }

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.state.lock().tenants.len()
    }

    /// A tenant's priority class.
    pub fn tenant_class(&self, tenant: TenantId) -> Option<PriorityClass> {
        self.state.lock().tenants.get(tenant.index()).map(|t| t.class)
    }

    /// A tenant's registered name.
    pub fn tenant_name(&self, tenant: TenantId) -> Option<String> {
        self.state.lock().tenants.get(tenant.index()).map(|t| t.name.clone())
    }

    /// A tenant's admission accounting so far.
    pub fn stats(&self, tenant: TenantId) -> Option<TenantStats> {
        self.state.lock().tenants.get(tenant.index()).map(|t| t.stats)
    }

    /// Every tenant's `(class, stats)`, in registration order.
    pub fn all_stats(&self) -> Vec<(PriorityClass, TenantStats)> {
        self.state.lock().tenants.iter().map(|t| (t.class, t.stats)).collect()
    }

    // --- admission --------------------------------------------------------

    /// Runs the admission checks for `tenant`: Enactor saturation, the
    /// tenant's token bucket, then its bounded queue — cheapest-shed
    /// first, and the bucket is only debited if the queue has room to
    /// take the admission. Every decision is an [`SpanKind::Admission`]
    /// span and a ledger counter.
    pub fn admit(&self, tenant: TenantId) -> Result<Permit, Rejected> {
        let now = self.now();
        let m = self.metrics();
        MetricsLedger::bump(&m.ingress_submitted);
        let span = self.ctx.fabric.tracer().span(SpanKind::Admission);
        span.attr("tenant", tenant.index() as i64);

        let mut st = self.state.lock();
        let entry = &mut st.tenants[tenant.index()];
        span.attr("class", entry.class.as_str());
        entry.stats.submitted += 1;

        let in_flight = self.enactor.in_flight();
        if in_flight >= self.config.saturation_limit {
            entry.stats.rejected_saturated += 1;
            MetricsLedger::bump(&m.ingress_rejected_saturated);
            span.attr("outcome", "saturated");
            span.end_with(SpanOutcome::ResourceUnavailable);
            return Err(Rejected::Saturated {
                in_flight,
                limit: self.config.saturation_limit,
            });
        }

        let policy = self.config.policy(entry.class);
        if entry.queue_used >= policy.queue_capacity {
            entry.stats.rejected_queue += 1;
            MetricsLedger::bump(&m.ingress_rejected_queue);
            span.attr("outcome", "queue_full");
            span.end_with(SpanOutcome::ResourceUnavailable);
            return Err(Rejected::QueueFull { capacity: policy.queue_capacity });
        }

        if let Err(retry_in) = entry.bucket.try_take(now) {
            entry.stats.rejected_rate += 1;
            MetricsLedger::bump(&m.ingress_rejected_rate);
            span.attr("outcome", "rate_limited");
            span.attr("retry_in_us", retry_in.as_micros() as i64);
            span.end_with(SpanOutcome::ResourceUnavailable);
            return Err(Rejected::RateLimited { retry_in });
        }

        entry.queue_used += 1;
        entry.stats.admitted += 1;
        MetricsLedger::bump(&m.ingress_admitted);
        span.attr("outcome", "admitted");
        span.end_ok();
        Ok(Permit { tenant })
    }

    /// Releases an admitted permit without placing: frees the queue
    /// slot and records the conclusion (`success` feeds the tenant's
    /// goodput count).
    pub fn conclude(&self, permit: Permit, success: bool) {
        let m = self.metrics();
        let mut st = self.state.lock();
        let entry = &mut st.tenants[permit.tenant.index()];
        entry.queue_used = entry.queue_used.saturating_sub(1);
        if success {
            entry.stats.completed += 1;
            MetricsLedger::bump(&m.ingress_completed);
        } else {
            entry.stats.failed += 1;
            MetricsLedger::bump(&m.ingress_failed);
        }
    }

    /// Runs an admitted placement through the [`ScheduleDriver`] and
    /// concludes the permit from the result. The placement's trace
    /// episode is recorded against the tenant, which is what powers
    /// [`FrontDoor::tenant_rollups`].
    pub fn place(
        &self,
        permit: Permit,
        request: &PlacementRequest,
    ) -> Result<legion_schedulers::DriverReport, LegionError> {
        let tenant = permit.tenant;
        let result = self.driver.place(request, &self.ctx);
        if let Ok(report) = &result {
            if let Some(ep) = report.episode {
                self.state.lock().episodes.insert(ep, tenant);
            }
        }
        self.conclude(permit, result.is_ok());
        result
    }

    /// One-shot: admit then place. The common path for open-loop
    /// clients; rejections and placement failures both surface typed.
    pub fn submit(
        &self,
        tenant: TenantId,
        request: &PlacementRequest,
    ) -> Result<legion_schedulers::DriverReport, IngressError> {
        let permit = self.admit(tenant)?;
        self.place(permit, request).map_err(IngressError::Placement)
    }

    /// The coalescing batcher: admits every submission in order, then
    /// runs each admitted one through [`FrontDoor::place`], also in
    /// order. Results come back in submission order — rejections keep
    /// their slot as typed [`IngressError::Rejected`] values, and every
    /// admitted permit is concluded from its placement outcome exactly
    /// as [`FrontDoor::submit`] would.
    ///
    /// Batching is what makes concurrent tenants *share* the candidate
    /// cache instead of racing it: the batch's placements validate
    /// against one Collection epoch, so N same-class requests cost one
    /// query (or one delta patch) plus N−1 cache hits rather than N
    /// full queries.
    ///
    /// `_workers` is ignored: placements run one after another, and
    /// their overlap lives in virtual time. The argument stays only so
    /// existing callers keep compiling.
    pub fn submit_many(
        &self,
        submissions: &[(TenantId, PlacementRequest)],
        _workers: usize,
    ) -> Vec<Result<legion_schedulers::DriverReport, IngressError>> {
        let admitted: Vec<Result<Permit, Rejected>> =
            submissions.iter().map(|(tenant, _)| self.admit(*tenant)).collect();
        admitted
            .into_iter()
            .zip(submissions)
            .map(|(admitted, (_, request))| {
                self.place(admitted?, request).map_err(IngressError::Placement)
            })
            .collect()
    }

    // --- grants -----------------------------------------------------------

    /// Requests a long-lived reservation grant: consumes one admission
    /// token from the tenant's bucket and writes the pending record
    /// into the vault-backed ledger. The grant must be approved and
    /// confirmed within the configured window or it expires (releasing
    /// the token).
    pub fn request_grant(
        &self,
        tenant: TenantId,
        class_loid: Loid,
        exec_vault: Loid,
        duration: SimDuration,
    ) -> Result<GrantId, IngressError> {
        let now = self.now();
        let m = self.metrics();
        let span = self.ctx.fabric.tracer().span(SpanKind::ReservationGrant);
        span.attr("op", "request");
        span.attr("tenant", tenant.index() as i64);
        let mut st = self.state.lock();
        let Some(entry) = st.tenants.get_mut(tenant.index()) else {
            span.end_with(SpanOutcome::Malformed);
            return Err(IngressError::NoSuchTenant(tenant));
        };
        let class = entry.class;
        if let Err(retry_in) = entry.bucket.try_take(now) {
            MetricsLedger::bump(&m.ingress_rejected_rate);
            span.attr("outcome", "rate_limited");
            span.end_with(SpanOutcome::ResourceUnavailable);
            return Err(IngressError::Rejected(Rejected::RateLimited { retry_in }));
        }
        let id = GrantId(st.next_grant);
        st.next_grant += 1;
        let record = GrantRecord {
            id,
            tenant,
            class,
            class_loid,
            vault: exec_vault,
            host: None,
            duration,
            state: GrantState::Requested,
            token: None,
            requested_at: now,
            deadline: now + self.config.confirm_window,
            record: Loid::fresh(LoidKind::Instance),
        };
        // Persist the pending record before exposing the id: the ledger
        // is the recovery source of truth for in-flight grants.
        if let Some(vault) = self.ctx.fabric.lookup_vault(self.ledger_vault) {
            let opr = Opr::new(record.record, class_loid, now, record.encode())
                .with_memory_mb(0)
                .with_cpu_centis(0);
            if let Err(e) = vault.store_opr(opr) {
                // Ledger write failed: undo the admission and refuse.
                st.tenants[tenant.index()].bucket.refund();
                span.end_with(SpanOutcome::from_error(&e));
                return Err(IngressError::Placement(e));
            }
        }
        MetricsLedger::bump(&m.grants_requested);
        st.grants.insert(id, record);
        span.attr("grant", id.0 as i64);
        span.end_ok();
        Ok(id)
    }

    /// Approves a requested grant against `host`: makes the host-side
    /// reservation (confirm window as its timeout) and re-saves the
    /// ledger record. If the host is gone or refuses, the grant is
    /// *reconciled*: ledger record deleted, admission token refunded,
    /// state `Denied` — and the underlying typed [`LegionError`] is
    /// returned so the caller sees exactly what the host said.
    pub fn approve_grant(&self, id: GrantId, host: Loid) -> Result<(), IngressError> {
        let now = self.now();
        let span = self.ctx.fabric.tracer().span(SpanKind::ReservationGrant);
        span.attr("op", "approve");
        span.attr("grant", id.0 as i64);

        // Snapshot what we need, then release the lock across the host
        // call (hosts charge simulated latency and may call back into
        // the fabric).
        let (class_loid, vault, duration, deadline) = {
            let st = self.state.lock();
            let Some(g) = st.grants.get(&id) else {
                span.end_with(SpanOutcome::Malformed);
                return Err(IngressError::NoSuchGrant(id));
            };
            if g.state != GrantState::Requested {
                span.end_with(SpanOutcome::Malformed);
                return Err(IngressError::GrantNotPending(id, g.state));
            }
            (g.class_loid, g.vault, g.duration, g.deadline)
        };
        if now > deadline {
            self.expire_grant(id, &span);
            return Err(IngressError::GrantExpired(id));
        }

        let reservation = self.ctx.fabric.lookup_host(host).map_or(
            Err(LegionError::NoSuchHost(host)),
            |h| {
                let req = ReservationRequest::instantaneous(class_loid, vault, duration);
                let req = ReservationRequest {
                    timeout: Some(self.config.confirm_window),
                    ..req
                };
                h.make_reservation(&req, now)
            },
        );

        let m = self.metrics();
        let mut st = self.state.lock();
        match reservation {
            Ok(token) => {
                let confirm_by = now + self.config.confirm_window;
                let g = st.grants.get_mut(&id).expect("grant present");
                g.state = GrantState::Approved;
                g.host = Some(host);
                g.token = Some(token);
                g.deadline = confirm_by;
                let (record_loid, encoded) = (g.record, g.encode());
                Self::resave_ledger(&self.ctx, self.ledger_vault, record_loid, now, encoded);
                MetricsLedger::bump(&m.grants_approved);
                span.attr("outcome", "approved");
                span.end_ok();
                Ok(())
            }
            Err(e) => {
                // Reconcile: the pending record leaves the ledger, the
                // tenant gets its admission token back.
                let g = st.grants.get_mut(&id).expect("grant present");
                g.state = GrantState::Denied;
                let (tenant, record_loid) = (g.tenant, g.record);
                if let Some(v) = self.ctx.fabric.lookup_vault(self.ledger_vault) {
                    let _ = v.delete_opr(record_loid);
                }
                st.tenants[tenant.index()].bucket.refund();
                MetricsLedger::bump(&m.grants_denied);
                span.attr("outcome", "denied");
                span.end_with(SpanOutcome::from_error(&e));
                Err(IngressError::Placement(e))
            }
        }
    }

    /// Confirms an approved grant, surrendering its
    /// [`ReservationToken`] to the tenant. Confirming after the window
    /// expires the grant instead (token refunded, reservation
    /// cancelled) and returns [`IngressError::GrantExpired`].
    pub fn confirm_grant(&self, id: GrantId) -> Result<ReservationToken, IngressError> {
        let now = self.now();
        let span = self.ctx.fabric.tracer().span(SpanKind::ReservationGrant);
        span.attr("op", "confirm");
        span.attr("grant", id.0 as i64);
        {
            let st = self.state.lock();
            let Some(g) = st.grants.get(&id) else {
                span.end_with(SpanOutcome::Malformed);
                return Err(IngressError::NoSuchGrant(id));
            };
            if g.state != GrantState::Approved {
                span.end_with(SpanOutcome::Malformed);
                return Err(IngressError::GrantNotPending(id, g.state));
            }
            if now > g.deadline {
                drop(st);
                self.expire_grant(id, &span);
                return Err(IngressError::GrantExpired(id));
            }
        }
        let m = self.metrics();
        let mut st = self.state.lock();
        let g = st.grants.get_mut(&id).expect("grant present");
        g.state = GrantState::Confirmed;
        let token = g.token.clone().expect("approved grant has a token");
        let record_loid = g.record;
        // Confirmed grants leave the pending ledger: the token is now
        // the tenant's to present, nothing is left to reconcile.
        if let Some(v) = self.ctx.fabric.lookup_vault(self.ledger_vault) {
            let _ = v.delete_opr(record_loid);
        }
        MetricsLedger::bump(&m.grants_confirmed);
        span.attr("outcome", "confirmed");
        span.end_ok();
        Ok(token)
    }

    /// Expires every pending grant whose deadline passed: cancels the
    /// host reservation (if approved), deletes the ledger record, and
    /// refunds the tenant's admission token. Returns how many expired.
    /// Deployments call this from a periodic sim task.
    pub fn expire_due_grants(&self) -> usize {
        let now = self.now();
        let due: Vec<GrantId> = self
            .state
            .lock()
            .grants
            .values()
            .filter(|g| g.state.is_pending() && now > g.deadline)
            .map(|g| g.id)
            .collect();
        for &id in &due {
            let span = self.ctx.fabric.tracer().span(SpanKind::ReservationGrant);
            span.attr("op", "expire");
            span.attr("grant", id.0 as i64);
            self.expire_grant(id, &span);
            span.end_ok();
        }
        due.len()
    }

    /// A grant's current record.
    pub fn grant(&self, id: GrantId) -> Option<GrantRecord> {
        self.state.lock().grants.get(&id).cloned()
    }

    /// Whether the ledger vault currently holds a pending record for
    /// `id` (reconciliation checks in tests).
    pub fn ledger_holds(&self, id: GrantId) -> bool {
        let Some(record) = self.state.lock().grants.get(&id).map(|g| g.record) else {
            return false;
        };
        self.ctx
            .fabric
            .lookup_vault(self.ledger_vault)
            .is_some_and(|v| v.holds(record))
    }

    fn expire_grant(&self, id: GrantId, span: &legion_trace::SpanGuard) {
        let m = self.metrics();
        let mut st = self.state.lock();
        let Some(g) = st.grants.get_mut(&id) else { return };
        if !g.state.is_pending() {
            return;
        }
        let host_token = match (&g.host, &g.token) {
            (Some(h), Some(t)) => Some((*h, t.clone())),
            _ => None,
        };
        g.state = GrantState::Expired;
        let (tenant, record_loid) = (g.tenant, g.record);
        if let Some(v) = self.ctx.fabric.lookup_vault(self.ledger_vault) {
            let _ = v.delete_opr(record_loid);
        }
        st.tenants[tenant.index()].bucket.refund();
        drop(st);
        // Cancel outside the door lock; a dead host just means there is
        // nothing left to cancel.
        if let Some((host, token)) = host_token {
            if let Some(h) = self.ctx.fabric.lookup_host(host) {
                let _ = h.cancel_reservation(&token);
            }
        }
        MetricsLedger::bump(&m.grants_expired);
        span.attr("outcome", "expired");
    }

    fn resave_ledger(ctx: &SchedCtx, ledger: Loid, record: Loid, now: SimTime, bytes: Vec<u8>) {
        if let Some(v) = ctx.fabric.lookup_vault(ledger) {
            if let Ok(prev) = v.fetch_opr(record) {
                let _ = v.store_opr(prev.resaved(now, bytes));
            }
        }
    }

    // --- rollups and fairness ---------------------------------------------

    /// The tenant a placement episode was admitted for, if any.
    pub fn episode_tenant(&self, episode: EpisodeId) -> Option<TenantId> {
        self.state.lock().episodes.get(&episode).copied()
    }

    /// Per-tenant trace rollups (index = tenant index): each tenant's
    /// placement episodes folded into its own latency histograms, in
    /// one pass over the sink.
    pub fn tenant_rollups(&self) -> Vec<TraceRollup> {
        let st = self.state.lock();
        let episodes = st.episodes.clone();
        let groups = st.tenants.len();
        drop(st);
        self.ctx
            .fabric
            .tracer()
            .rollup_grouped(groups, |ep| episodes.get(&ep).map(|t| t.index()))
    }

    /// Max/min goodput (completed placements) across `class`'s tenants:
    /// `1.0` is perfectly fair, `None` when the class has fewer than
    /// two tenants, `f64::INFINITY` when a tenant was starved to zero.
    pub fn fairness_ratio(&self, class: PriorityClass) -> Option<f64> {
        let st = self.state.lock();
        let completed: Vec<u64> = st
            .tenants
            .iter()
            .filter(|t| t.class == class)
            .map(|t| t.stats.completed)
            .collect();
        if completed.len() < 2 {
            return None;
        }
        let max = *completed.iter().max().expect("nonempty");
        let min = *completed.iter().min().expect("nonempty");
        if min == 0 {
            return Some(if max == 0 { 1.0 } else { f64::INFINITY });
        }
        Some(max as f64 / min as f64)
    }
}

impl std::fmt::Debug for FrontDoor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("FrontDoor")
            .field("tenants", &st.tenants.len())
            .field("grants", &st.grants.len())
            .field("saturation_limit", &self.config.saturation_limit)
            .finish()
    }
}
