//! "k out of n" scheduling (§3.3, future work — implemented here).
//!
//! "We will also support 'k out of n' scheduling, where the Scheduler
//! specifies an equivalence class of n resources and asks the Enactor to
//! start k instances of the same object on them."
//!
//! The equivalence class is every usable candidate the Collection
//! returns; the master schedule places the k instances on the first k
//! (least-loaded) members, and the remaining `n − k` members become
//! spares expressed as single-position variant schedules — so the
//! Enactor's bitmap walk can slide any failed instance onto a spare
//! without disturbing the others. Experiment E-X3 measures success
//! probability as a function of the spare slack `n − k`.

use crate::traits::{usable, SchedCtx, Scheduler};
use legion_core::{LegionError, PlacementRequest};
use legion_schedule::{Mapping, ScheduleRequest, ScheduleRequestList, VariantSchedule};

/// k-of-n placement over an equivalence class of hosts.
pub struct KOfNScheduler {
    /// Cap on the equivalence class size (`n`); `None` = all candidates.
    pub n_limit: Option<usize>,
    /// Cap on generated variants (each consumes Enactor attempts).
    pub max_variants: usize,
}

impl KOfNScheduler {
    /// A k-of-n scheduler over the whole candidate set.
    pub fn new() -> Self {
        KOfNScheduler { n_limit: None, max_variants: 16 }
    }

    /// Restricts the equivalence class to `n` members.
    pub fn with_n(mut self, n: usize) -> Self {
        self.n_limit = Some(n);
        self
    }
}

impl Default for KOfNScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for KOfNScheduler {
    fn name(&self) -> &'static str {
        "k-of-n"
    }

    fn compute_schedule(
        &self,
        request: &PlacementRequest,
        ctx: &SchedCtx,
    ) -> Result<ScheduleRequestList, LegionError> {
        let [item] = request.items.as_slice() else {
            return Err(LegionError::MalformedSchedule(
                "k-of-n expects exactly one class (k instances of the same object)".into(),
            ));
        };
        let k = item.count as usize;
        if k == 0 {
            return Err(LegionError::MalformedSchedule("k must be positive".into()));
        }
        let set = ctx.pool_for(item)?;
        // A pool smaller than k — empty included — is this policy's own
        // malformed-request error.
        let mut candidates = usable(&set, item.class).unwrap_or_default();
        candidates.truncate(self.n_limit.unwrap_or(usize::MAX));
        if candidates.len() < k {
            return Err(LegionError::MalformedSchedule(format!(
                "equivalence class has {} members, need k = {k}",
                candidates.len()
            )));
        }
        // Least-loaded members take the master slots.
        candidates
            .sort_by(|a, b| a.load().partial_cmp(&b.load()).unwrap_or(std::cmp::Ordering::Equal));

        let master: Vec<Mapping> = candidates[..k].iter().map(|c| c.mapping(item.class)).collect();
        let spares = &candidates[k..];

        let mut sched = ScheduleRequest::master_only(master);
        // Spare j covers master position j mod k — between them the
        // spares cover every position as evenly as possible.
        for (j, spare) in spares.iter().enumerate().take(self.max_variants) {
            let pos = j % k;
            let repl = spare.mapping(item.class);
            sched = sched.with_variant(VariantSchedule::replacing(k, &[(pos, repl)]));
        }
        Ok(ScheduleRequestList { schedules: vec![sched] })
    }
}
