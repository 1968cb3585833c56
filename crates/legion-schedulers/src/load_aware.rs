//! A load-aware scheduler, optionally forecast-driven.
//!
//! The paper's hosts export "a rich set of information, well beyond the
//! minimal 'architecture, OS, and load average'" (§3.1); this scheduler
//! is the canonical consumer: it sorts candidates by observed load and
//! spreads instances to the least-loaded hosts. With `use_forecast` it
//! prefers the injected `host_load_forecast` attribute (the NWS-style
//! function-injection extension of §3.2) over the instantaneous load —
//! experiment E-X4 measures the difference.

use crate::traits::{spread_ranked, Candidate, SchedCtx, Scheduler};
use legion_core::{LegionError, PlacementRequest};
use legion_schedule::ScheduleRequestList;

/// Least-loaded-first placement.
pub struct LoadAwareScheduler {
    /// Prefer `host_load_forecast` (injected) over `host_load`.
    pub use_forecast: bool,
    /// Number of variant schedules to emit (next-best hosts as spares).
    pub variants: usize,
}

impl LoadAwareScheduler {
    /// A load-aware scheduler on instantaneous load.
    pub fn new() -> Self {
        LoadAwareScheduler { use_forecast: false, variants: 2 }
    }

    /// A load-aware scheduler preferring injected forecasts.
    pub fn forecasting() -> Self {
        LoadAwareScheduler { use_forecast: true, ..Self::new() }
    }

    fn load_of(&self, c: &Candidate) -> f64 {
        if self.use_forecast {
            if let Some(f) = c.attrs().get_f64("host_load_forecast") {
                return f;
            }
        }
        c.load()
    }
}

impl Default for LoadAwareScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for LoadAwareScheduler {
    fn name(&self) -> &'static str {
        if self.use_forecast {
            "load-aware-forecast"
        } else {
            "load-aware"
        }
    }

    fn compute_schedule(
        &self,
        request: &PlacementRequest,
        ctx: &SchedCtx,
    ) -> Result<ScheduleRequestList, LegionError> {
        // Spread the k instances over the k least-loaded hosts, with
        // the next-best hosts as each position's spares.
        spread_ranked(request, ctx, self.variants, |mut ranked| {
            ranked.sort_by(|a, b| {
                self.load_of(a).partial_cmp(&self.load_of(b)).unwrap_or(std::cmp::Ordering::Equal)
            });
            ranked
        })
    }
}
