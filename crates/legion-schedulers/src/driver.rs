//! The retry wrapper of Fig. 9, generalized over any Scheduler.
//!
//! ```text
//! IRS_Wrapper(ObjectClass list) {
//!   for i in 1 to SchedTryLimit, do {
//!     sched = IRS_Gen_Placement(ObjectClass List, NSched);
//!     for j in 1 to EnactTryLimit, do {
//!       if (make_reservations(sched) succeeded) {
//!         if (enact_placement(sched) succeeded) { return success; }
//!       }
//!     }
//!   }
//!   return failure;
//! }
//! ```
//!
//! "The Wrapper function has three global variables that limit the
//! number of times it will try to generate schedules, the number of
//! times it will attempt to enact each schedule, and the number of
//! variant schedules generated per call" (§4.2). The third (NSched) is
//! the scheduler's own; the driver carries the first two.

use crate::traits::{SchedCtx, Scheduler};
use legion_core::{EpisodeId, LegionError, Loid, PlacementRequest, SpanKind, SpanOutcome};
use legion_schedule::{Enactor, Mapping, ScheduleFeedback};
use std::sync::Arc;

/// Retry limits for the wrapper loop.
#[derive(Debug, Clone, Copy)]
pub struct DriverLimits {
    /// `SchedTryLimit`: schedule generations attempted.
    pub sched_try_limit: usize,
    /// `EnactTryLimit`: reservation+enactment attempts per schedule.
    pub enact_try_limit: usize,
}

impl Default for DriverLimits {
    fn default() -> Self {
        DriverLimits { sched_try_limit: 3, enact_try_limit: 2 }
    }
}

/// What happened during a driven placement.
#[derive(Debug, Clone)]
pub struct DriverReport {
    /// Instances created (mapping → instance), in mapping order.
    pub placed: Vec<(Mapping, Loid)>,
    /// Schedule generations used.
    pub generations: usize,
    /// Reservation attempts used (across generations).
    pub reservation_rounds: usize,
    /// The final feedback (for inspection).
    pub feedback: Option<ScheduleFeedback>,
    /// The trace episode this placement ran under (`None` when the
    /// fabric's tracer is disabled). Feed it to
    /// `TraceSink::episode_spans` / `rollup_for` to replay the
    /// placement as a span tree.
    pub episode: Option<EpisodeId>,
}

/// Drives a Scheduler against an Enactor with Fig. 9's retry loops.
///
/// The driver *owns* shared handles to its scheduler and Enactor, so a
/// long-lived service (the ingress `FrontDoor` most of all) builds
/// one driver at construction and reuses it across every placement
/// instead of wiring borrows per call.
pub struct ScheduleDriver {
    scheduler: Arc<dyn Scheduler>,
    enactor: Arc<Enactor>,
    limits: DriverLimits,
}

impl ScheduleDriver {
    /// A driver with default limits.
    pub fn new(scheduler: Arc<dyn Scheduler>, enactor: Arc<Enactor>) -> Self {
        Self::with_limits(scheduler, enactor, DriverLimits::default())
    }

    /// A driver with explicit limits.
    pub fn with_limits(
        scheduler: Arc<dyn Scheduler>,
        enactor: Arc<Enactor>,
        limits: DriverLimits,
    ) -> Self {
        ScheduleDriver { scheduler, enactor, limits }
    }

    /// The scheduler this driver runs.
    pub fn scheduler(&self) -> &Arc<dyn Scheduler> {
        &self.scheduler
    }

    /// The Enactor this driver negotiates through.
    pub fn enactor(&self) -> &Arc<Enactor> {
        &self.enactor
    }

    /// Runs the wrapper loop to place `request`.
    ///
    /// One `place` call is one trace *episode*: the episode root span
    /// covers the whole wrapper loop, each `compute_schedule` call gets
    /// a `schedule` span (the Collection queries it issues nest inside),
    /// and the Enactor's reservation/enactment spans follow.
    pub fn place(
        &self,
        request: &PlacementRequest,
        ctx: &SchedCtx,
    ) -> Result<DriverReport, LegionError> {
        let root = request.items.first().map(|i| i.class).unwrap_or(Loid::NIL);
        let episode = ctx.fabric.tracer().begin_episode("place", root);
        episode.attr("scheduler", self.scheduler.name());
        episode.attr("classes", request.items.len() as i64);
        let episode_id = episode.id();
        let mut generations = 0usize;
        let mut reservation_rounds = 0;
        let mut last_err = LegionError::AllSchedulesFailed { attempted: 0 };

        #[allow(clippy::explicit_counter_loop)] // generations outlives the loop for the report
        for _ in 0..self.limits.sched_try_limit {
            generations += 1;
            let sched_span = ctx.fabric.tracer().span(SpanKind::Schedule);
            sched_span.attr("scheduler", self.scheduler.name());
            sched_span.attr("generation", generations as i64);
            let sched = match self.scheduler.compute_schedule(request, ctx) {
                Ok(s) => {
                    sched_span.attr("schedules", s.schedules.len() as i64);
                    sched_span.end_ok();
                    s
                }
                Err(e) => {
                    sched_span.end_with(SpanOutcome::from_error(&e));
                    last_err = e;
                    continue;
                }
            };
            for _ in 0..self.limits.enact_try_limit {
                reservation_rounds += 1;
                let feedback = self.enactor.make_reservations(&sched);
                if !feedback.reserved() {
                    continue;
                }
                match self.enactor.enact_schedule(&feedback) {
                    Ok(placed) => {
                        episode.attr("generations", generations as i64);
                        episode.attr("placed", placed.len() as i64);
                        episode.end_with(SpanOutcome::Ok);
                        return Ok(DriverReport {
                            placed,
                            generations,
                            reservation_rounds,
                            feedback: Some(feedback),
                            episode: episode_id,
                        });
                    }
                    Err(e) => {
                        // Enactment failed after reservation; reservations
                        // were rolled back by the atomic enactor. Retry.
                        last_err = e;
                    }
                }
            }
        }
        episode.attr("generations", generations as i64);
        episode.end_with(SpanOutcome::from_error(&last_err));
        Err(last_err)
    }
}
