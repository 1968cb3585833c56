//! The Improved Random Scheduler (IRS) — Figs. 8 and 9.
//!
//! "The improvement we focus on is not in the basic algorithm; the IRS
//! still selects a random Host and Vault pair. Rather, we will compute
//! multiple schedules and accommodate negative feedback from the
//! Enactor. ... The improved version generates n random mappings for
//! each object class, and then constructs n schedules out of them. The
//! Scheduler could just as easily build n schedules through calls to the
//! original generator function, but IRS does fewer lookups in the
//! Collection." (§4.2)
//!
//! Fig. 8's schedule construction: the master takes the first mapping of
//! each instance's list; variant `l` (for `l` in `2..=n`) takes the
//! `l`-th component for each instance, keeping only entries "that do not
//! appear in the master list". The retry wrapper of Fig. 9
//! (`SchedTryLimit`, `EnactTryLimit`) lives in
//! [`ScheduleDriver`](crate::driver::ScheduleDriver).

use crate::traits::{pick, usable, SchedCtx, Scheduler};
use legion_core::{LegionError, PlacementRequest};
use legion_schedule::{Mapping, ScheduleRequest, ScheduleRequestList, VariantSchedule};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// How IRS structures its variant schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VariantStyle {
    /// Fig. 8 verbatim: variant `l` re-picks **every** instance's
    /// mapping jointly. Simple, but a variant can discard positions that
    /// already held — the thrash the paper's Enactor cannot remove.
    Joint,
    /// The "more sophisticated Scheduler" of §4.2: one variant per
    /// (instance, alternative) pair, each replacing a single position.
    /// The Enactor's bitmap walk can then fix exactly the failed
    /// positions while keeping every good reservation.
    PerPosition,
}

/// The Figs. 8–9 improved random scheduler.
pub struct IrsScheduler {
    /// `NSched`: mappings generated per instance (master + n−1 variants).
    pub nsched: usize,
    /// Variant structuring (Fig. 8 joint redraw by default).
    pub style: VariantStyle,
    rng: Mutex<SmallRng>,
}

impl IrsScheduler {
    /// An IRS generating `nsched` mappings per instance, with the
    /// paper's joint variant structure.
    pub fn new(seed: u64, nsched: usize) -> Self {
        assert!(nsched >= 1, "NSched must be at least 1");
        IrsScheduler {
            nsched,
            style: VariantStyle::Joint,
            rng: Mutex::new(SmallRng::seed_from_u64(seed)),
        }
    }

    /// Builder: switch to per-position variant structuring.
    pub fn per_position(mut self) -> Self {
        self.style = VariantStyle::PerPosition;
        self
    }
}

impl Scheduler for IrsScheduler {
    fn name(&self) -> &'static str {
        match self.style {
            VariantStyle::Joint => "irs",
            VariantStyle::PerPosition => "irs-per-position",
        }
    }

    fn compute_schedule(
        &self,
        request: &PlacementRequest,
        ctx: &SchedCtx,
    ) -> Result<ScheduleRequestList, LegionError> {
        if request.is_empty() {
            return Err(LegionError::MalformedSchedule("empty placement request".into()));
        }
        let mut rng = self.rng.lock();
        // lists[instance][l] = l-th random mapping for that instance.
        let mut lists: Vec<Vec<Mapping>> = Vec::new();
        for item in &request.items {
            // One Collection lookup per class — the "fewer lookups"
            // advantage over calling the Fig. 7 generator n times.
            let set = ctx.pool_for(item)?;
            let pool = usable(&set, item.class)?;
            for _ in 0..item.count {
                lists.push((0..self.nsched).map(|_| pick(item.class, &pool, &mut rng)).collect());
            }
        }

        // "master sched. = first item from each object inst. list"
        let master: Vec<Mapping> = lists.iter().map(|l| l[0].clone()).collect();
        let n_instances = master.len();

        let mut schedule = ScheduleRequest::master_only(master.clone());
        match self.style {
            // "for l := 2 to n: select the l-th component of the list
            // for each object instance; construct a list of all that do
            // not appear in the master list; append to list of variant
            // schedules"
            VariantStyle::Joint => {
                #[allow(clippy::needless_range_loop)] // l walks parallel per-instance lists
                for l in 1..self.nsched {
                    let replacements: Vec<(usize, Mapping)> = (0..n_instances)
                        .filter_map(|i| {
                            let m = &lists[i][l];
                            if *m == master[i] {
                                None // identical to master: thrash bait
                            } else {
                                Some((i, m.clone()))
                            }
                        })
                        .collect();
                    if !replacements.is_empty() {
                        schedule = schedule.with_variant(VariantSchedule::replacing(
                            n_instances,
                            &replacements,
                        ));
                    }
                }
            }
            // One single-position variant per (instance, alternative):
            // the Enactor can fix any failed position independently.
            VariantStyle::PerPosition => {
                #[allow(clippy::needless_range_loop)] // i pairs master with lists
                for i in 0..n_instances {
                    for l in 1..self.nsched {
                        let m = &lists[i][l];
                        if *m != master[i] {
                            schedule = schedule.with_variant(VariantSchedule::replacing(
                                n_instances,
                                &[(i, m.clone())],
                            ));
                        }
                    }
                }
            }
        }
        Ok(ScheduleRequestList { schedules: vec![schedule] })
    }
}
