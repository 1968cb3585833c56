//! # legion-rms — a reproduction of *The Legion Resource Management System*
//!
//! This facade re-exports the whole workspace under one roof, mirroring
//! the architecture of the paper (Chapin, Katramatos, Karpovich,
//! Grimshaw — IPPS '99):
//!
//! | Paper component | Here |
//! |---|---|
//! | Core objects: LOIDs, attributes, reservations, Host/Vault/Class | [`core`] |
//! | The metacomputing substrate (domains, latency, failures, clock) | [`fabric`] |
//! | The Collection + query language + function injection | [`collection`] |
//! | Host objects (Unix, SMP, Batch Queue + 3 queue sims) | [`hosts`] |
//! | Vault objects and OPR storage | [`vaults`] |
//! | Schedules (master/variant + bitmaps) and the Enactor | [`schedule`] |
//! | Schedulers: Random, IRS, round-robin, load-aware, stencil, k-of-n | [`schedulers`] |
//! | The Monitor, triggers and migration | [`monitor`] |
//! | Network Objects (§6 future work, implemented) | [`network`] |
//! | Multi-tenant front door: admission, backpressure, grants | [`ingress`] |
//! | Testbeds, workloads, experiment harness | [`apps`] |
//! | The regex engine behind Collection `match()` | [`regex`] |
//! | Pipeline tracing + latency histograms (observability) | [`trace`] |
//!
//! ## Quickstart
//!
//! ```
//! use legion::apps::{Testbed, TestbedConfig};
//! use legion::core::PlacementRequest;
//! use legion::schedule::Enactor;
//! use legion::schedulers::{RandomScheduler, ScheduleDriver};
//!
//! // A 2-domain metacomputing testbed with 4 hosts per domain.
//! let tb = Testbed::build(TestbedConfig::wide(2, 4, 42));
//! let class = tb.register_class("my-app", 50, 64);
//!
//! // Fig. 3: Scheduler computes, Enactor reserves and instantiates.
//! let scheduler = std::sync::Arc::new(RandomScheduler::new(7));
//! let enactor = std::sync::Arc::new(Enactor::new(tb.fabric.clone()));
//! let driver = ScheduleDriver::new(scheduler, enactor);
//! let report = driver
//!     .place(&PlacementRequest::new().class(class, 4), &tb.ctx())
//!     .expect("placement succeeds on an idle testbed");
//! assert_eq!(report.placed.len(), 4);
//! ```

/// Core object model (re-export of `legion-core`).
pub mod core {
    pub use legion_core::*;
}

/// Simulated metacomputing fabric (re-export of `legion-fabric`).
pub mod fabric {
    pub use legion_fabric::*;
}

/// The Collection service (re-export of `legion-collection`).
pub mod collection {
    pub use legion_collection::*;
}

/// Vault objects (re-export of `legion-vaults`).
pub mod vaults {
    pub use legion_vaults::*;
}

/// Host objects (re-export of `legion-hosts`).
pub mod hosts {
    pub use legion_hosts::*;
}

/// Schedules and the Enactor (re-export of `legion-schedule`).
pub mod schedule {
    pub use legion_schedule::*;
}

/// Schedulers (re-export of `legion-schedulers`).
pub mod schedulers {
    pub use legion_schedulers::*;
}

/// The multi-tenant front door (re-export of `legion-ingress`).
pub mod ingress {
    pub use legion_ingress::*;
}

/// The Monitor and migration (re-export of `legion-monitor`).
pub mod monitor {
    pub use legion_monitor::*;
}

/// Network Objects (re-export of `legion-network`).
pub mod network {
    pub use legion_network::*;
}

/// Testbeds, workloads and experiments (re-export of `legion-apps`).
pub mod apps {
    pub use legion_apps::*;
}

/// The regex engine (re-export of `legion-regex`).
pub mod regex {
    pub use legion_regex::*;
}

/// Pipeline tracing and latency histograms (re-export of `legion-trace`).
pub mod trace {
    pub use legion_trace::*;
}

/// Commonly used items in one import.
pub mod prelude {
    pub use legion_apps::{
        run_chaos_soak, run_ingress_sim, run_rebalance_sim, seed_sweep, IngressSimConfig,
        IngressSimReport, SimRebalanceReport, SimSoakConfig, SimSoakReport, TenantSpec, Testbed,
        TestbedConfig,
    };
    pub use legion_collection::{Collection, DataCollectionDaemon, FederatedCollection};
    pub use legion_core::{
        AttrValue, AttributeDb, ClassObject, HostObject, LegionClass, LegionError, Loid,
        ObjectImplementation, PlacementContext, PlacementRequest, ReservationRequest,
        ReservationType, SimDuration, SimTime, VaultObject,
    };
    pub use legion_fabric::{
        DomainId, DomainTopology, Fabric, FaultAction, FaultCounts, FaultPlan, SimError,
        SimHandle, SimRunStats,
    };
    pub use legion_hosts::{BatchQueueHost, HostConfig, StandardHost};
    pub use legion_ingress::{
        FrontDoor, IngressConfig, IngressError, PriorityClass, Rejected, TenantId,
    };
    pub use legion_monitor::{
        migrate_object, migrate_object_with, MigrateError, MigrateFailure, Monitor,
        RebalanceConfig, Rebalancer, SweepReport, Watchdog,
    };
    pub use legion_schedule::{Enactor, EnactorConfig, Mapping, ScheduleRequestList};
    pub use legion_network::{NetworkBroker, NetworkDirectory, NetworkObject};
    pub use legion_schedulers::{
        IrsScheduler, KOfNScheduler, LoadAwareScheduler, PriceAwareScheduler, RandomScheduler,
        RoundRobinScheduler, SchedCtx, ScheduleDriver, Scheduler, StencilScheduler,
    };
    pub use legion_trace::{
        episode_report, latency_report, trace_json, SpanKind, SpanOutcome, TraceRollup, TraceSink,
    };
    pub use legion_vaults::{StandardVault, VaultConfig};
}
