//! Schedulers for the Legion RMI.
//!
//! "Legion provides simple, generic default Schedulers that offer the
//! classic '90%' solution — they do an adequate job, but can easily be
//! outperformed by Schedulers with specialized algorithms or knowledge
//! of the application." (§3)
//!
//! This crate provides:
//!
//! * [`Scheduler`] — the trait every placement policy implements, plus
//!   the [`SchedCtx`] giving access to the Collection and class reports;
//! * [`RandomScheduler`] — the paper's Fig. 7 pseudocode, faithfully:
//!   query implementations, query the Collection, random host, random
//!   compatible vault, single master schedule;
//! * [`IrsScheduler`] — the Improved Random Scheduler of Figs. 8–9:
//!   `n` random mappings per instance folded into one master plus
//!   `n − 1` variant schedules, with the retry wrapper
//!   (`SchedTryLimit` × `EnactTryLimit`) in [`ScheduleDriver`];
//! * [`RoundRobinScheduler`] and [`LoadAwareScheduler`] — simple
//!   improved policies (load-aware optionally consults the injected
//!   `host_load_forecast` attribute, §3.2's NWS extension);
//! * [`StencilScheduler`] — the §4.3 specialized policy for 2-D
//!   nearest-neighbour MPI applications (the DoD MSRC ocean simulation):
//!   minimizes inter-domain edges in the process grid;
//! * [`PriceAwareScheduler`] — cheapest-first placement over the
//!   exported `host_price_per_cpu_sec` attribute (§3.1's economics);
//! * [`KOfNScheduler`] — the §3.3 "k out of n" future-work feature:
//!   k instances over an equivalence class of n resources, with spares
//!   expressed as variant schedules;
//! * [`layering`] — the four resource-management layering schemes of
//!   Fig. 2, for the E-F2 experiment.

pub mod cache;
pub mod driver;
pub mod irs;
pub mod kofn;
pub mod layering;
pub mod load_aware;
pub mod price_aware;
pub mod random;
pub mod round_robin;
pub mod stencil;
pub mod traits;

pub use cache::CandidateCacheStats;
pub use driver::{DriverLimits, DriverReport, ScheduleDriver};
pub use irs::{IrsScheduler, VariantStyle};
pub use kofn::KOfNScheduler;
pub use layering::{place_layered, LayeringScheme};
pub use load_aware::LoadAwareScheduler;
pub use price_aware::PriceAwareScheduler;
pub use random::RandomScheduler;
pub use round_robin::RoundRobinScheduler;
pub use stencil::{GridSpec, StencilScheduler};
pub use traits::{Candidate, SchedCtx, Scheduler};
