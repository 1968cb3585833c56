//! The Random Scheduling Policy — Fig. 7, faithfully.
//!
//! ```text
//! Generate_Random_Placement(ObjectClass list) {
//!   for each ObjectClass O in the list, do {
//!     query the class for available implementations
//!     query Collection for Hosts matching available implementations
//!     k = the number of instances of this class desired
//!     for i := 1 to k, do {
//!       pick a Host H at random
//!       extract list of compatible vaults from H
//!       randomly pick a compatible vault V
//!       append the target (H, V) to the master schedule
//!     }
//!   }
//!   return the master schedule
//! }
//! ```
//!
//! "There is no consideration of load, speed, memory contention,
//! communication patterns, or other factors ... The goal here is
//! simplicity, not performance." It "only builds one master schedule,
//! and does not take advantage of the variant schedule feature" — this
//! is "the equivalent of the default schedule generator for Legion
//! Classes in releases prior to 1.5".

use crate::traits::{pick, usable, SchedCtx, Scheduler};
use legion_core::{LegionError, PlacementRequest};
use legion_schedule::ScheduleRequestList;
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The Fig. 7 random scheduler.
pub struct RandomScheduler {
    rng: Mutex<SmallRng>,
}

impl RandomScheduler {
    /// A random scheduler with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        RandomScheduler { rng: Mutex::new(SmallRng::seed_from_u64(seed)) }
    }
}

impl Scheduler for RandomScheduler {
    fn name(&self) -> &'static str {
        "random"
    }

    fn compute_schedule(
        &self,
        request: &PlacementRequest,
        ctx: &SchedCtx,
    ) -> Result<ScheduleRequestList, LegionError> {
        if request.is_empty() {
            return Err(LegionError::MalformedSchedule("empty placement request".into()));
        }
        let mut master = Vec::with_capacity(request.total_instances() as usize);
        let mut rng = self.rng.lock();
        for item in &request.items {
            let set = ctx.pool_for(item)?;
            let pool = usable(&set, item.class)?;
            for _ in 0..item.count {
                master.push(pick(item.class, &pool, &mut rng));
            }
        }
        Ok(ScheduleRequestList::single(master))
    }
}
