//! The Enactor (Fig. 6) — the schedule implementor.
//!
//! ```text
//! &LegionScheduleFeedback make_reservations(&LegionScheduleList);
//! int cancel_reservations(&LegionScheduleRequestList);
//! &LegionScheduleRequestList enact_schedule(&LegionScheduleRequestList);
//! ```
//!
//! "the Enactor negotiates with the resources objects named in the
//! schedule to instantiate the objects. Note that this may require the
//! Enactor to negotiate with several resources from different
//! administrative domains to perform co-allocation." (§3)
//!
//! Variant walking implements the paper's thrash avoidance:
//! "Implementing the variant schedule entails making new reservations
//! for items in the variant schedule and canceling any corresponding
//! reservations from the master schedule. Our default Schedulers and
//! Enactor work together to structure the variant schedules so as to
//! avoid reservation thrashing (the canceling and subsequent remaking of
//! the same reservation). Our data structure includes a bitmap field
//! ... which allows the Enactor to efficiently select the next variant
//! schedule to try." (§3.4)
//!
//! Concretely: reservations for positions whose mapping a variant leaves
//! unchanged are **kept**, not cancelled and remade; the next variant is
//! chosen by bitmap so that it covers the positions that actually
//! failed. The `reservation_thrash` metric counts any remake of a
//! (position, mapping) pair previously cancelled — the quantity
//! experiment E-F5 reports with the bitmap walk enabled vs disabled.

use crate::schedule::{
    FailureClass, Mapping, ScheduleFeedback, ScheduleOutcome, ScheduleRequest,
    ScheduleRequestList,
};
use legion_core::{
    LegionError, Loid, LoidKind, Placement, PlacementContext, ReservationRequest,
    ReservationStatus, ReservationToken, ReservationType, SimDuration, SimTime, SpanKind,
    SpanOutcome,
};
use legion_fabric::{Fabric, MetricsLedger, RegistrySnapshot};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A successfully reserved schedule: the variant index used (`None` for
/// the master), the effective mappings, and the tokens held for them.
type ReservedSchedule = (Option<usize>, Vec<Mapping>, Vec<ReservationToken>);

/// Enactor tuning knobs.
#[derive(Debug, Clone)]
pub struct EnactorConfig {
    /// Reservation duration requested per mapping.
    pub duration: SimDuration,
    /// Reservation type requested.
    pub rtype: ReservationType,
    /// Confirmation timeout for instantaneous reservations.
    pub timeout: SimDuration,
    /// Upper bound on schedules tried per request entry (master counts
    /// as one; each variant as one more).
    pub max_attempts: usize,
    /// Disable the bitmap-guided delta walk (ablation for E-F5): when
    /// false, every variant attempt cancels **all** held reservations
    /// and remakes the full schedule — the naive strategy.
    pub bitmap_walk: bool,
    /// All-or-nothing enactment: on instantiation failure, destroy the
    /// already-started objects and cancel unused reservations.
    pub atomic_enact: bool,
    /// Domain presented to host autonomy policies.
    pub requester_domain: Option<String>,
    /// First retry delay when failures are transient and no variant
    /// remains to switch to. Doubles per retry (capped); the wait
    /// advances the virtual clock.
    pub backoff_base: SimDuration,
    /// Upper bound on a single backoff delay.
    pub backoff_cap: SimDuration,
    /// Total virtual-time budget for one `make_reservations` call,
    /// measured from its start. `None` leaves only `max_attempts` as
    /// the bound. When the budget lapses the request fails with
    /// [`FailureClass::DeadlineExceeded`] instead of burning the
    /// remaining attempts.
    pub deadline: Option<SimDuration>,
}

impl Default for EnactorConfig {
    fn default() -> Self {
        EnactorConfig {
            duration: SimDuration::from_secs(3600),
            rtype: ReservationType::ONE_SHOT_TIME,
            timeout: SimDuration::from_secs(30),
            max_attempts: 32,
            bitmap_walk: true,
            atomic_enact: true,
            requester_domain: None,
            backoff_base: SimDuration::from_millis(500),
            backoff_cap: SimDuration::from_secs(15),
            deadline: None,
        }
    }
}

/// The Enactor service object.
pub struct Enactor {
    loid: Loid,
    fabric: Arc<Fabric>,
    config: EnactorConfig,
    /// Reservation negotiations currently in flight — the saturation
    /// signal the ingress front door sheds load on. Bumped for the
    /// whole of `make_reservations` (backoffs included: a request
    /// parked in a backoff still occupies the Enactor).
    in_flight: std::sync::atomic::AtomicU64,
}

/// Decrements the in-flight gauge on every exit path (including the
/// early returns inside `make_reservations`).
struct InFlightGuard<'a>(&'a std::sync::atomic::AtomicU64);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
    }
}

impl Enactor {
    /// An Enactor with default configuration.
    pub fn new(fabric: Arc<Fabric>) -> Self {
        Self::with_config(fabric, EnactorConfig::default())
    }

    /// An Enactor with explicit configuration.
    pub fn with_config(fabric: Arc<Fabric>, config: EnactorConfig) -> Self {
        Enactor {
            loid: Loid::fresh(LoidKind::Service),
            fabric,
            config,
            in_flight: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// This Enactor's identifier.
    pub fn loid(&self) -> Loid {
        self.loid
    }

    /// Reservation negotiations currently in flight. This is the
    /// Enactor-tier saturation signal: a front door comparing it
    /// against its configured limit can shed load (typed `Saturated`
    /// rejections) instead of letting every tenant's requests pile onto
    /// an Enactor already deep in retry/backoff.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The active configuration.
    pub fn config(&self) -> &EnactorConfig {
        &self.config
    }

    fn metrics(&self) -> &MetricsLedger {
        self.fabric.metrics()
    }

    /// The domain name presented to host autonomy policies: the
    /// configured one, or the Enactor's own domain. Resolved once per
    /// `reserve_schedule` call instead of once per mapping.
    fn requester_domain(&self) -> Option<String> {
        self.config.requester_domain.clone().or_else(|| {
            let dom = self.fabric.domain_of(self.loid);
            self.fabric
                .topology(|t| t.domains().get(dom.0 as usize).map(|d| d.name.clone()))
        })
    }

    /// Builds the reservation request for one mapping. Class demand is
    /// memoized in `demand` (one `report()` per class per schedule
    /// attempt, not per mapping) and the requester domain is passed in
    /// pre-resolved.
    fn request_with(
        &self,
        m: &Mapping,
        demand: &mut HashMap<Loid, (u32, u32)>,
        requester: &Option<String>,
    ) -> ReservationRequest {
        let (cpu, mem) = *demand.entry(m.class).or_insert_with(|| {
            self.fabric
                .lookup_class(m.class)
                .map(|c| {
                    let r = c.report();
                    (r.cpu_centis, r.memory_mb)
                })
                .unwrap_or((100, 64))
        });
        ReservationRequest {
            class: m.class,
            vault: m.vault,
            rtype: self.config.rtype,
            start: None,
            duration: self.config.duration,
            timeout: Some(self.config.timeout),
            cpu_centis: cpu,
            memory_mb: mem,
            requester_domain: requester.clone(),
        }
    }

    /// One reservation attempt against the host named by `m`, resolving
    /// the host and its domain from a per-attempt registry snapshot.
    fn reserve_one(
        &self,
        registry: &RegistrySnapshot,
        m: &Mapping,
        req: &ReservationRequest,
    ) -> Result<ReservationToken, LegionError> {
        self.fabric.link_via(registry, self.loid, m.host)?;
        let host = registry.lookup_host(m.host).ok_or(LegionError::NoSuchHost(m.host))?;
        let now = self.fabric.clock().now();
        host.make_reservation(req, now)
    }

    /// Cancels one held token (best effort; the host may be gone). The
    /// span absorbs the cancel message's simulated latency, so the
    /// enact-stage histograms include the cancel path — previously the
    /// ledger counted cancels without any sim-time reading. Returns
    /// whether the host actually released the token, so callers can
    /// account per token cancelled rather than per call — the quantity
    /// that reconciles against the ledger's `reservations_cancelled`.
    fn cancel_one(&self, token: &ReservationToken) -> bool {
        let span = self.fabric.tracer().span(SpanKind::CancelReservation);
        span.attr("host", token.host.to_string());
        if self.fabric.link(self.loid, token.host).is_err() {
            span.end_with(SpanOutcome::Infrastructure);
            return false;
        }
        let Some(host) = self.fabric.lookup_host(token.host) else {
            span.end_with(SpanOutcome::HostDown);
            return false;
        };
        match host.cancel_reservation(token) {
            Ok(()) => {
                span.end_ok();
                true
            }
            Err(e) => {
                span.end_with(SpanOutcome::from_error(&e));
                false
            }
        }
    }

    /// `make_reservations` (Fig. 6): walk the request list, trying each
    /// master and its variants until one schedule fully reserves.
    pub fn make_reservations(&self, request: &ScheduleRequestList) -> ScheduleFeedback {
        self.in_flight.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let _gauge = InFlightGuard(&self.in_flight);
        let span = self.fabric.tracer().span(SpanKind::MakeReservations);
        span.attr("schedules", request.schedules.len() as i64);
        if let Err(LegionError::MalformedSchedule(why)) = request.validate() {
            span.end_with(SpanOutcome::Malformed);
            return ScheduleFeedback {
                request: request.clone(),
                outcome: ScheduleOutcome::Failed(FailureClass::Malformed(why)),
                reservations: Vec::new(),
                mappings: Vec::new(),
            };
        }

        let deadline = self
            .config
            .deadline
            .map(|budget| self.fabric.clock().now() + budget);
        let mut failure = FailureClass::ResourceUnavailable;
        for (si, sched) in request.schedules.iter().enumerate() {
            match self.reserve_schedule(sched, deadline) {
                Ok((variant, mappings, tokens)) => {
                    MetricsLedger::bump(&self.metrics().schedules_reserved);
                    span.attr("schedule", si as i64);
                    span.attr("variant", variant.map(|v| v as i64).unwrap_or(-1));
                    span.end_ok();
                    return ScheduleFeedback {
                        request: request.clone(),
                        outcome: ScheduleOutcome::Reserved { schedule: si, variant },
                        reservations: tokens,
                        mappings,
                    };
                }
                Err(FailureClass::DeadlineExceeded) => {
                    // The budget is per request, not per schedule — stop.
                    failure = FailureClass::DeadlineExceeded;
                    break;
                }
                Err(fc) => failure = fc,
            }
        }

        span.end_with(failure.span_outcome());
        ScheduleFeedback {
            request: request.clone(),
            outcome: ScheduleOutcome::Failed(failure),
            reservations: Vec::new(),
            mappings: Vec::new(),
        }
    }

    /// Tries a master and its variants; on success returns the
    /// [`ReservedSchedule`] (variant index used, effective mappings and
    /// their tokens); on failure the class of the failure.
    ///
    /// When failures are transient and no untried variant covers the
    /// failed positions, the Enactor waits out a capped exponential
    /// backoff (with deterministic jitter, advancing the virtual clock)
    /// and retries the same mappings — contention and network weather
    /// pass. Failures that are *permanent for their host* (`HostDown`,
    /// `NoSuchHost`) are never retried in place: with no variant left to
    /// move to, the attempt is abandoned immediately instead of burning
    /// `max_attempts` against a dead machine.
    fn reserve_schedule(
        &self,
        sched: &ScheduleRequest,
        deadline: Option<SimTime>,
    ) -> Result<ReservedSchedule, FailureClass> {
        let n = sched.master.len();
        let mut current: Vec<Mapping> = sched.master.mappings.clone();
        let mut held: Vec<Option<ReservationToken>> = vec![None; n];
        // (position, mapping) pairs previously cancelled — for thrash
        // accounting.
        let mut cancelled_before: HashSet<(usize, Mapping)> = HashSet::new();
        let mut tried_variants: Vec<bool> = vec![false; sched.variants.len()];
        let mut attempts = 0usize;
        // `None` = the pure master; `Some(vi)` = variant vi.
        let mut plan: Option<usize> = None;
        let mut backoff = self.config.backoff_base;
        // Jitter stream derived from the fabric seed and the virtual
        // start time: deterministic for a given run, decorrelated
        // between requests.
        let mut jitter_rng = self
            .fabric
            .rng()
            .stream_indexed("enactor-backoff", self.fabric.clock().now().as_micros());
        let mut failure;
        let mut slept = false;
        // Per-call request-building caches: class demand and the
        // requester domain are invariant across attempts, so resolve
        // them once instead of per mapping per attempt.
        let mut demand: HashMap<Loid, (u32, u32)> = HashMap::new();
        let requester = self.requester_domain();

        loop {
            if deadline.is_some_and(|d| self.fabric.clock().now() >= d) {
                failure = FailureClass::DeadlineExceeded;
                break;
            }
            attempts += 1;
            MetricsLedger::bump(&self.metrics().schedules_attempted);
            let attempt_span = self.fabric.tracer().span(SpanKind::ReserveAttempt);
            attempt_span.attr("attempt", attempts as i64);
            attempt_span.attr("variant", plan.map(|v| v as i64).unwrap_or(-1));
            // Positions whose reservation the bitmap walk carried over
            // from the previous attempt — each one is a cancel+remake
            // (thrash) the variant structure avoided.
            attempt_span
                .attr("kept", held.iter().filter(|slot| slot.is_some()).count() as i64);

            // A backoff may have outlived a held token's confirmation
            // timeout — drop any hold that is no longer live so the
            // position is refilled instead of enacted with a dead token.
            if slept {
                slept = false;
                for slot in held.iter_mut() {
                    let live = slot.as_ref().is_some_and(|tok| {
                        self.fabric.link(self.loid, tok.host).is_ok()
                            && self.fabric.lookup_host(tok.host).is_some_and(|h| {
                                matches!(
                                    h.check_reservation(tok, self.fabric.clock().now()),
                                    Ok(ReservationStatus::Pending | ReservationStatus::Active)
                                )
                            })
                    });
                    if slot.is_some() && !live {
                        *slot = None;
                    }
                }
            }

            // Fill every position lacking a token under the current
            // mapping, in position order, resolving every mapping against
            // one registry snapshot; remember which positions fail and
            // why.
            let registry = self.fabric.registry();
            let mut thrash = 0i64;
            let mut failed: Vec<usize> = Vec::new();
            let mut errors: Vec<LegionError> = Vec::new();
            for i in 0..n {
                if held[i].is_some() {
                    continue;
                }
                if cancelled_before.contains(&(i, current[i].clone())) {
                    MetricsLedger::bump(&self.metrics().reservation_thrash);
                    thrash += 1;
                }
                let req = self.request_with(&current[i], &mut demand, &requester);
                match self.reserve_one(&registry, &current[i], &req) {
                    Ok(tok) => held[i] = Some(tok),
                    Err(e) => {
                        failed.push(i);
                        errors.push(e);
                    }
                }
            }
            attempt_span.attr("thrash", thrash);
            attempt_span.attr("failed", failed.len() as i64);

            if failed.is_empty() {
                attempt_span.end_ok();
                let tokens = held.into_iter().map(|t| t.expect("all positions held")).collect();
                return Ok((plan, current, tokens));
            }
            failure = Self::classify_attempt(&errors);
            attempt_span.end_with(failure.span_outcome());

            if attempts >= self.config.max_attempts {
                break;
            }

            // Select the next variant: prefer one covering *all* failed
            // positions, then one covering any, then any untried.
            let next = self.pick_variant(sched, &tried_variants, &failed);
            let Some(vi) = next else {
                // No variant left to switch to. Only network weather
                // (message drops, partitions) is worth waiting out in
                // place: capacity denials won't change within one
                // request's horizon, and dead hosts stay dead —
                // retrying identical mappings there just burns the
                // remaining attempts.
                if !errors.iter().any(|e| matches!(e, LegionError::NetworkFailure { .. })) {
                    break;
                }
                // Wait out a capped, jittered backoff (within the
                // deadline budget) and retry the same mappings.
                let delay = self.jittered(backoff, &mut jitter_rng);
                if deadline.is_some_and(|d| self.fabric.clock().now() + delay >= d) {
                    failure = FailureClass::DeadlineExceeded;
                    break;
                }
                let backoff_span = self.fabric.tracer().span(SpanKind::Backoff);
                backoff_span.attr("delay_us", delay.as_micros() as i64);
                backoff_span.attr("attempt", attempts as i64);
                // Under the discrete-event scheduler this parks the
                // episode's task on a wake event — other episodes run
                // during the backoff; the thread path advances the
                // shared clock directly as before.
                self.fabric.wait(delay);
                backoff_span.end_ok();
                MetricsLedger::bump(&self.metrics().enactor_backoffs);
                backoff = SimDuration::from_micros(
                    (backoff.as_micros() * 2).min(self.config.backoff_cap.as_micros()),
                );
                slept = true;
                continue;
            };
            tried_variants[vi] = true;
            plan = Some(vi);

            let variant = &sched.variants[vi];
            if self.config.bitmap_walk {
                // Delta walk: cancel and remap only replaced positions;
                // failed-but-unreplaced positions keep their (absent)
                // token slot and are retried with the same mapping.
                for pos in variant.replaces.iter_ones() {
                    if let Some(tok) = held[pos].take() {
                        cancelled_before.insert((pos, current[pos].clone()));
                        self.cancel_one(&tok);
                    }
                    if let Some(m) = variant.replacement_for(pos) {
                        current[pos] = m.clone();
                    }
                }
            } else {
                // Naive walk (ablation): drop everything and rebuild the
                // whole schedule under the variant.
                for (pos, slot) in held.iter_mut().enumerate() {
                    if let Some(tok) = slot.take() {
                        cancelled_before.insert((pos, current[pos].clone()));
                        self.cancel_one(&tok);
                    }
                }
                current = sched.resolve(Some(vi));
            }
        }

        // Back out of any partial holds.
        for tok in held.into_iter().flatten() {
            self.cancel_one(&tok);
        }
        Err(failure)
    }

    /// The class reported for one failed fill pass: all-dead-hosts is
    /// `HostDown`; otherwise the first error that is not a dead host
    /// sets the class (resource denials dominate infrastructure noise).
    fn classify_attempt(errors: &[LegionError]) -> FailureClass {
        if !errors.is_empty() && errors.iter().all(|e| e.is_permanent_for_host()) {
            return FailureClass::HostDown;
        }
        errors
            .iter()
            .find(|e| !e.is_permanent_for_host())
            .map(FailureClass::classify)
            .unwrap_or(FailureClass::ResourceUnavailable)
    }

    /// Half-to-full jitter on a backoff delay, from the fabric stream.
    fn jittered(&self, backoff: SimDuration, rng: &mut rand::rngs::SmallRng) -> SimDuration {
        use rand::Rng;
        let us = backoff.as_micros().max(2);
        SimDuration::from_micros(us / 2 + rng.gen_range(0..=us / 2))
    }

    /// Bitmap-guided variant selection.
    fn pick_variant(
        &self,
        sched: &ScheduleRequest,
        tried: &[bool],
        failed: &[usize],
    ) -> Option<usize> {
        let untried = || (0..sched.variants.len()).filter(|&i| !tried[i]);
        // Covers all failed positions?
        if let Some(vi) = untried().find(|&i| {
            failed.iter().all(|&p| {
                p < sched.variants[i].replaces.len() && sched.variants[i].replaces.get(p)
            })
        }) {
            return Some(vi);
        }
        // Covers at least one failed position?
        if let Some(vi) = untried().find(|&i| {
            failed.iter().any(|&p| {
                p < sched.variants[i].replaces.len() && sched.variants[i].replaces.get(p)
            })
        }) {
            return Some(vi);
        }
        untried().next()
    }

    /// `cancel_reservations` (Fig. 6): releases every token in the
    /// feedback. Returns how many tokens the hosts actually released —
    /// the paper's `int` return — counted per token, not per call, so
    /// partial-failure cleanup reconciles exactly against the ledger's
    /// `reservations_cancelled` counter.
    pub fn cancel_reservations(&self, feedback: &ScheduleFeedback) -> usize {
        feedback.reservations.iter().filter(|tok| self.cancel_one(tok)).count()
    }

    /// `enact_schedule` (Fig. 6): instantiates the objects through their
    /// Class objects, using the directed-placement `create_instance`
    /// (§3.4). Returns the instances created, in mapping order.
    pub fn enact_schedule(
        &self,
        feedback: &ScheduleFeedback,
    ) -> Result<Vec<(Mapping, Loid)>, LegionError> {
        let span = self.fabric.tracer().span(SpanKind::EnactSchedule);
        span.attr("mappings", feedback.mappings.len() as i64);
        if !feedback.reserved() {
            span.end_with(SpanOutcome::Error("unreserved feedback".into()));
            return Err(LegionError::Other("enact_schedule on unreserved feedback".into()));
        }
        let mut created: Vec<(Mapping, Loid)> = Vec::with_capacity(feedback.mappings.len());
        for (m, tok) in feedback.mappings.iter().zip(&feedback.reservations) {
            let inst_span = self.fabric.tracer().span(SpanKind::EnactInstantiation);
            inst_span.attr("class", m.class.to_string());
            inst_span.attr("host", m.host.to_string());
            // Count the attempt up front so the counter and the span
            // agree even when the instantiation message is lost.
            MetricsLedger::bump(&self.metrics().enact_instantiations);
            let step = (|| -> Result<Loid, LegionError> {
                self.fabric.link(self.loid, m.class)?;
                let class = self
                    .fabric
                    .lookup_class(m.class)
                    .ok_or(LegionError::NoSuchObject(m.class))?;
                let placement =
                    Placement { host: m.host, vault: m.vault, token: tok.clone() };
                class.create_instance(Some(placement), &*self.fabric)
            })();
            match step {
                Ok(instance) => {
                    inst_span.end_ok();
                    created.push((m.clone(), instance));
                }
                Err(e) => {
                    inst_span.end_with(SpanOutcome::from_error(&e));
                    if self.config.atomic_enact {
                        // Roll back: destroy started instances, release
                        // the unused reservations.
                        for (dm, inst) in &created {
                            if let Some(class) = self.fabric.lookup_class(dm.class) {
                                let _ = class.destroy_instance(*inst, &*self.fabric);
                            }
                        }
                        for tok in
                            &feedback.reservations[created.len().min(feedback.reservations.len())..]
                        {
                            self.cancel_one(tok);
                        }
                    }
                    span.attr("created", created.len() as i64);
                    span.end_with(SpanOutcome::from_error(&e));
                    return Err(e);
                }
            }
        }
        span.attr("created", created.len() as i64);
        span.end_ok();
        Ok(created)
    }
}
