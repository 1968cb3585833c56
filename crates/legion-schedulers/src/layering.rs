//! The four resource-management layering schemes of Fig. 2.
//!
//! "(a) the application does it all, negotiating directly with resources
//! and making placement decisions. (b) the application still makes its
//! own placement decision, but uses the provided Resource Management
//! services to negotiate with system resources. (c) an application
//! taking advantage of a combined placement and negotiation module, such
//! as was provided in MESSIAHS. (d) performs each of these functions in
//! a separate module. ... Any of these layerings is possible in Legion;
//! the choice of which to use is up to the individual application
//! writer." (§3, Fig. 2)
//!
//! [`place_layered`] runs the same placement task under each scheme so
//! experiment E-F2 can compare their costs — the paper's claim being
//! that "cost ... scales with capability; the effort required to
//! implement a simple policy is low".

use crate::random::RandomScheduler;
use crate::traits::{usable, SchedCtx, Scheduler};
use legion_core::{
    ClassRequest, LegionError, Loid, Placement, PlacementContext, PlacementRequest,
    ReservationRequest,
};
use legion_schedule::{Enactor, Mapping, ScheduleRequestList};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;

/// Which Fig. 2 layering to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayeringScheme {
    /// (a) Application + Scheduler + RM services fused: the application
    /// negotiates directly with resources and places by itself.
    ApplicationDoesItAll,
    /// (b) Application + Scheduler fused, over RM services: the
    /// application picks placements, the Enactor negotiates.
    AppSchedulerOverRm,
    /// (c) A combined Scheduler + RM-services module (MESSIAHS-style).
    CombinedSchedulerRm,
    /// (d) Application / Scheduler / RM services / resources, each in
    /// its own module — the paper's preferred, most flexible layering.
    FullySeparated,
}

impl LayeringScheme {
    /// All four schemes in Fig. 2 order.
    pub const ALL: [LayeringScheme; 4] = [
        LayeringScheme::ApplicationDoesItAll,
        LayeringScheme::AppSchedulerOverRm,
        LayeringScheme::CombinedSchedulerRm,
        LayeringScheme::FullySeparated,
    ];

    /// Fig. 2 panel label.
    pub fn label(self) -> &'static str {
        match self {
            LayeringScheme::ApplicationDoesItAll => "(a) app does it all",
            LayeringScheme::AppSchedulerOverRm => "(b) app+sched over RM",
            LayeringScheme::CombinedSchedulerRm => "(c) combined sched+RM",
            LayeringScheme::FullySeparated => "(d) fully separated",
        }
    }
}

/// Places `count` instances of `class` under the given layering scheme.
///
/// Returns the created instances. All schemes use random placement so
/// the comparison isolates layering overhead, not policy quality.
pub fn place_layered(
    scheme: LayeringScheme,
    ctx: &SchedCtx,
    enactor: &Arc<Enactor>,
    class: Loid,
    count: u32,
    seed: u64,
) -> Result<Vec<Loid>, LegionError> {
    match scheme {
        LayeringScheme::ApplicationDoesItAll => place_direct(ctx, class, count, seed),
        LayeringScheme::AppSchedulerOverRm => {
            // The "application" computes mappings itself (inline random
            // policy)...
            let mappings = inline_random_mappings(ctx, class, count, seed)?;
            // ...then hands them to the RM services (Enactor) to
            // negotiate and instantiate.
            enact(enactor, ScheduleRequestList::single(mappings))
        }
        LayeringScheme::CombinedSchedulerRm => {
            // One module does both: compute then negotiate, no separate
            // application-visible schedule hand-off.
            let scheduler = RandomScheduler::new(seed);
            let request = PlacementRequest::new().class(class, count);
            let sched = scheduler.compute_schedule(&request, ctx)?;
            enact(enactor, sched)
        }
        LayeringScheme::FullySeparated => {
            // Application → Scheduler → Enactor → resources.
            let scheduler = RandomScheduler::new(seed);
            let request = PlacementRequest::new().class(class, count);
            let driver =
                crate::driver::ScheduleDriver::new(Arc::new(scheduler), Arc::clone(enactor));
            let report = driver.place(&request, ctx)?;
            Ok(report.placed.into_iter().map(|(_, i)| i).collect())
        }
    }
}

/// (a): the application negotiates with hosts directly — no Collection,
/// no Enactor. It walks the fabric's hosts, reserves, and asks the class
/// to instantiate with a directed placement.
fn place_direct(
    ctx: &SchedCtx,
    class: Loid,
    count: u32,
    seed: u64,
) -> Result<Vec<Loid>, LegionError> {
    let fabric = &ctx.fabric;
    let class_obj = fabric.lookup_class(class).ok_or(LegionError::NoSuchObject(class))?;
    let report = class_obj.report();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut hosts = fabric.host_loids();
    hosts.shuffle(&mut rng);

    let mut placed = Vec::new();
    'instances: for _ in 0..count {
        for &hl in &hosts {
            let Some(host) = fabric.lookup_host(hl) else { continue };
            let Some(vault) = host.get_compatible_vaults().into_iter().next() else {
                continue;
            };
            let req = ReservationRequest::instantaneous(
                class,
                vault,
                legion_core::SimDuration::from_secs(3600),
            )
            .with_demand(report.cpu_centis, report.memory_mb);
            fabric.link(class, hl)?;
            let Ok(token) = host.make_reservation(&req, fabric.clock().now()) else {
                continue;
            };
            let placement = Placement { host: hl, vault, token };
            match class_obj.create_instance(Some(placement), &**fabric) {
                Ok(instance) => {
                    placed.push(instance);
                    continue 'instances;
                }
                Err(_) => continue,
            }
        }
        return Err(LegionError::AllSchedulesFailed { attempted: count as usize });
    }
    Ok(placed)
}

/// (b)'s inline placement decision: random host/vault pairs read
/// directly from the Collection, without a Scheduler object.
fn inline_random_mappings(
    ctx: &SchedCtx,
    class: Loid,
    count: u32,
    seed: u64,
) -> Result<Vec<Mapping>, LegionError> {
    let set = ctx.pool_for(&ClassRequest::new(class, count))?;
    let pool = usable(&set, class)?;
    let mut rng = SmallRng::seed_from_u64(seed);
    Ok((0..count)
        .map(|_| pool.choose(&mut rng).expect("usable pools are non-empty").mapping(class))
        .collect())
}

fn enact(enactor: &Enactor, sched: ScheduleRequestList) -> Result<Vec<Loid>, LegionError> {
    let fb = enactor.make_reservations(&sched);
    if !fb.reserved() {
        return Err(LegionError::AllSchedulesFailed { attempted: sched.schedules.len() });
    }
    Ok(enactor.enact_schedule(&fb)?.into_iter().map(|(_, i)| i).collect())
}
