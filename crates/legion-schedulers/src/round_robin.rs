//! A deterministic round-robin scheduler.
//!
//! Not in the paper's pseudocode, but the simplest possible "drop-in
//! module" demonstrating that third parties can substitute their own
//! Schedulers (§1, §3). Also the natural baseline between Random and
//! Load-aware in the experiments.

use crate::traits::{usable, SchedCtx, Scheduler};
use legion_core::{LegionError, PlacementRequest};
use legion_schedule::ScheduleRequestList;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Cycles instances across candidates in Collection order.
pub struct RoundRobinScheduler {
    cursor: AtomicUsize,
}

impl RoundRobinScheduler {
    /// A fresh round-robin scheduler.
    pub fn new() -> Self {
        RoundRobinScheduler { cursor: AtomicUsize::new(0) }
    }
}

impl Default for RoundRobinScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for RoundRobinScheduler {
    fn name(&self) -> &'static str {
        "round-robin"
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
        for item in &request.items {
            let set = ctx.pool_for(item)?;
            let pool = usable(&set, item.class)?;
            for _ in 0..item.count {
                let i = self.cursor.fetch_add(1, Ordering::Relaxed) % pool.len();
                master.push(pool[i].mapping(item.class));
            }
        }
        Ok(ScheduleRequestList::single(master))
    }
}
