//! A cost-minimizing scheduler — the economics the paper gestures at.
//!
//! "the Host could export information such as the amount charged per
//! CPU cycle consumed" (§3.1), and users may "optimize factors such as
//! application throughput, turnaround time, or cost" (§1). This
//! scheduler reads `host_price_per_cpu_sec` from the Collection and
//! places instances on the cheapest hosts whose load stays under a
//! ceiling — the classic budget/turnaround trade experiment E-X7
//! quantifies against the load-aware policy.

use crate::traits::{spread_ranked, Candidate, SchedCtx, Scheduler};
use legion_core::host::well_known;
use legion_core::{LegionError, PlacementRequest};
use legion_schedule::{Mapping, ScheduleRequestList};

/// Cheapest-first placement with a load guard.
pub struct PriceAwareScheduler {
    /// Hosts above this load are excluded no matter how cheap.
    pub max_load: f64,
    /// Variant schedules to emit (next-cheapest spares).
    pub variants: usize,
}

impl PriceAwareScheduler {
    /// A price-aware scheduler excluding hosts loaded above 2.0.
    pub fn new() -> Self {
        PriceAwareScheduler { max_load: 2.0, variants: 2 }
    }

    /// Builder: set the load ceiling.
    pub fn with_max_load(mut self, max_load: f64) -> Self {
        self.max_load = max_load;
        self
    }

    fn price_of(c: &Candidate) -> i64 {
        c.attrs().get_i64(well_known::PRICE_PER_CPU_SEC).unwrap_or(i64::MAX)
    }

    /// Estimated spend for a placement: Σ price(host) per instance
    /// (per CPU-second; callers scale by expected runtime).
    pub fn spend_estimate(ctx: &SchedCtx, mappings: &[Mapping]) -> i64 {
        mappings
            .iter()
            .map(|m| {
                ctx.collection
                    .member_attr(m.host, well_known::PRICE_PER_CPU_SEC)
                    .and_then(|v| v.as_i64())
                    .unwrap_or(0)
            })
            .sum()
    }
}

impl Default for PriceAwareScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for PriceAwareScheduler {
    fn name(&self) -> &'static str {
        "price-aware"
    }

    fn compute_schedule(
        &self,
        request: &PlacementRequest,
        ctx: &SchedCtx,
    ) -> Result<ScheduleRequestList, LegionError> {
        spread_ranked(request, ctx, self.variants, |mut ranked| {
            ranked.retain(|c| c.load() <= self.max_load);
            // Cheapest first; ties broken by load so we don't pile onto
            // one free host.
            ranked.sort_by(|a, b| {
                Self::price_of(a)
                    .cmp(&Self::price_of(b))
                    .then(a.load().partial_cmp(&b.load()).unwrap_or(std::cmp::Ordering::Equal))
            });
            ranked
        })
    }
}
