//! The multi-tenant service front door.
//!
//! Legion's hosts are autonomous arbiters of their own resources
//! (paper §2.1) — but the *system* needs one too: without a front door,
//! any caller can drive [`ScheduleDriver::place`] directly and
//! monopolise the Enactor tier. This crate is that front door, an
//! in-process ingress layer in the broker shape Nimrod/G puts one level
//! up from this paper's world:
//!
//! * **Identity** — callers are registered [`TenantId`]s, each in a
//!   [`PriorityClass`] that sets its fair-use envelope.
//! * **Fair-use admission** — per-tenant [`TokenBucket`]s (configurable
//!   sustained rate and burst per priority class) meter how fast each
//!   tenant may start placements; no tenant can starve another however
//!   hard it hammers the door.
//! * **Backpressure** — bounded per-tenant queues and an Enactor
//!   saturation signal turn overload into *typed* [`Rejected`] outcomes
//!   (`RateLimited`, `QueueFull`, `Saturated`) instead of unbounded
//!   queueing, so open-loop clients learn to back off.
//! * **Reservation workflows** — long-lived reservations go through a
//!   request → approve → confirm lifecycle ([`FrontDoor::request_grant`]
//!   and friends): pending grants are held in a vault-backed ledger and
//!   expire (releasing their admission token *and* the host-side
//!   reservation) if the tenant never confirms.
//!
//! Everything is deterministic under the discrete-event scheduler: the
//! buckets read the fabric's virtual clock, admission decisions are
//! pure functions of (config, clock, counters), and the whole door is
//! soak-tested by `legion_apps::sim::run_ingress_sim`'s open-loop
//! tenant arrival processes.
//!
//! [`ScheduleDriver::place`]: legion_schedulers::ScheduleDriver::place

mod bucket;
mod door;
mod grants;
mod tenant;

pub use bucket::TokenBucket;
pub use door::{ClassPolicy, FrontDoor, IngressConfig, IngressError, Permit, Rejected};
pub use grants::{GrantId, GrantRecord, GrantState};
pub use tenant::{PriorityClass, TenantId, TenantStats};
