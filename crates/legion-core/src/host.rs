//! Host object interface — **Table 1** of the paper.
//!
//! | Reservation Management | Process Management | Information Reporting |
//! |---|---|---|
//! | `make_reservation()` | `start_object()` | `get_compatible_vaults()` |
//! | `check_reservation()` | `kill_object()` | `vault_ok()` |
//! | `cancel_reservation()` | `deactivate_object()` | *(attribute database)* |
//!
//! "When asked for a reservation, the Host is responsible for ensuring
//! that the vault is reachable, that sufficient resources are available,
//! and that its local placement policy permits instantiating the object."
//! (§3.1)
//!
//! "The StartObject function can create one or more objects; this is
//! important to support efficient object creation for multiprocessor
//! systems." (§3.1)
//!
//! Object reactivation needs no explicit method — it is initiated by an
//! attempt to access the object — so the interface matches the paper's
//! three groups plus trigger registration (§2.1) and the periodic state
//! reassessment hook (§3.1).

use crate::attrs::AttributeDb;
use crate::error::LegionError;
use crate::loid::Loid;
use crate::opr::Opr;
use crate::request::ObjectImplementation;
use crate::reservation::{ReservationRequest, ReservationToken};
use crate::rge::{Event, Outcall, Trigger, TriggerId};
use crate::time::SimTime;
use std::sync::Arc;

/// Well-known attribute names exported by Host objects.
///
/// The paper's minimum is "architecture, OS, and load average"; Legion
/// hosts export "a rich set of information, well beyond" it — price per
/// cycle, refused domains, willingness by time of day (§3.1).
pub mod well_known {
    /// Operating system name, e.g. `"IRIX"`.
    pub const OS_NAME: &str = "host_os_name";
    /// Operating system version, e.g. `"5.3"`.
    pub const OS_VERSION: &str = "host_os_version";
    /// Architecture, e.g. `"mips"`.
    pub const ARCH: &str = "host_arch";
    /// Current load average, normalized to [0, ncpus].
    pub const LOAD: &str = "host_load";
    /// Number of processors.
    pub const NCPUS: &str = "host_ncpus";
    /// Total physical memory (MB).
    pub const MEMORY_MB: &str = "host_memory_mb";
    /// Currently available memory (MB).
    pub const FREE_MEMORY_MB: &str = "host_free_memory_mb";
    /// Administrative domain name.
    pub const DOMAIN: &str = "host_domain";
    /// Price charged per CPU-second, in millicents.
    pub const PRICE_PER_CPU_SEC: &str = "host_price_per_cpu_sec";
    /// Domains from which instantiation requests are refused (list).
    pub const REFUSED_DOMAINS: &str = "host_refused_domains";
    /// Willingness to accept extra jobs right now, in [0, 1].
    pub const WILLINGNESS: &str = "host_willingness";
    /// Host flavor: `"unix"`, `"smp"` or `"batch"`.
    pub const FLAVOR: &str = "host_flavor";
    /// Batch-queue system behind a batch host (`"condor-sim"`, ...).
    pub const QUEUE_SYSTEM: &str = "host_queue_system";
    /// Number of running Legion objects.
    pub const RUNNING_OBJECTS: &str = "host_running_objects";
    /// Compatible vault LOIDs (list of strings).
    pub const COMPATIBLE_VAULTS: &str = "host_compatible_vaults";
    /// Host name.
    pub const HOST_NAME: &str = "host_name";
    /// Whether the host is draining for an administrative shutdown.
    pub const DRAINING: &str = "host_draining";
    /// The host's own LOID, as text.
    pub const HOST_LOID: &str = "host_loid";
}

/// Status returned by `check_reservation()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReservationStatus {
    /// Granted, waiting for its start time or confirmation.
    Pending,
    /// In its service window (or confirmed and running).
    Active,
    /// Consumed by a one-shot `start_object()`.
    Consumed,
    /// Lapsed — confirmation timeout or window end passed.
    Expired,
    /// Cancelled by the Enactor.
    Cancelled,
}

/// Specification of one object to start under a reservation.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectSpec {
    /// The class of the object (must match the reservation's class).
    pub class: Loid,
    /// Pre-allocated LOID for the instance, or NIL to let the host mint.
    pub instance: Loid,
    /// Initial state to place in the vault as the object's OPR seed.
    pub initial_state: Vec<u8>,
    /// Expected memory footprint (MB), for host accounting.
    pub memory_mb: u32,
    /// The implementation (binary) selected for this instance — "this
    /// mapping process may also select from among the available
    /// implementations" (§3.3). `None` leaves the choice to the host's
    /// platform; `Some` is validated against it.
    pub implementation: Option<ObjectImplementation>,
}

impl ObjectSpec {
    /// A spec with host-minted LOID and empty initial state.
    pub fn new(class: Loid) -> Self {
        ObjectSpec {
            class,
            instance: Loid::NIL,
            initial_state: Vec::new(),
            memory_mb: 64,
            implementation: None,
        }
    }

    /// Builder: select an implementation explicitly.
    pub fn with_implementation(mut self, imp: ObjectImplementation) -> Self {
        self.implementation = Some(imp);
        self
    }
}

/// The Host object interface (Table 1).
pub trait HostObject: Send + Sync {
    /// This host's identifier.
    fn loid(&self) -> Loid;

    // --- Reservation management -----------------------------------------

    /// Grants (or refuses) a reservation.
    ///
    /// The host must verify vault reachability, resource availability and
    /// local placement policy before granting (§3.1).
    fn make_reservation(
        &self,
        req: &ReservationRequest,
        now: SimTime,
    ) -> Result<ReservationToken, LegionError>;

    /// Reports the status of a previously granted reservation.
    fn check_reservation(
        &self,
        token: &ReservationToken,
        now: SimTime,
    ) -> Result<ReservationStatus, LegionError>;

    /// Releases a reservation and its resources.
    fn cancel_reservation(&self, token: &ReservationToken) -> Result<(), LegionError>;

    // --- Process (object) management ------------------------------------

    /// Instantiates one or more objects under a reservation.
    ///
    /// Presenting the token is the implicit confirmation of an
    /// instantaneous reservation (§3.1). One-shot tokens are consumed;
    /// reusable tokens may be presented again.
    fn start_object(
        &self,
        token: &ReservationToken,
        specs: &[ObjectSpec],
        now: SimTime,
    ) -> Result<Vec<Loid>, LegionError>;

    /// Destroys a running object.
    fn kill_object(&self, object: Loid) -> Result<(), LegionError>;

    /// Deactivates a running object: serializes its state to an OPR,
    /// stores it in the object's vault, and returns the OPR (the first
    /// half of a migration).
    fn deactivate_object(&self, object: Loid, now: SimTime) -> Result<Opr, LegionError>;

    /// Reactivates an object from its OPR (the second half of a
    /// migration); the OPR must be fetchable from a compatible vault.
    fn reactivate_object(&self, opr: &Opr, now: SimTime) -> Result<(), LegionError>;

    /// The objects currently running on this host.
    fn running_objects(&self) -> Vec<Loid>;

    // --- Information reporting -------------------------------------------

    /// Vaults this host can use for OPR storage.
    fn get_compatible_vaults(&self) -> Vec<Loid>;

    /// Whether the named vault is reachable and compatible.
    fn vault_ok(&self, vault: Loid) -> bool;

    /// A snapshot of the host's attribute database. "These information
    /// reporting methods ... allow an external agent to retrieve
    /// information describing the Host's state" (§3.1).
    fn attributes(&self) -> AttributeDb;

    // --- Failure model ----------------------------------------------------

    /// Simulated fail-stop crash (§3.4 failure model): volatile state —
    /// running objects and live reservations — is lost, and every
    /// subsequent call fails with [`LegionError::HostDown`] until
    /// [`HostObject::restart`]. Hosts without a failure model ignore it.
    fn crash(&self) {}

    /// Brings a crashed host back up with reclaimed (empty) resources.
    /// Objects that were running are *not* resurrected — recovery is the
    /// Monitor's restart-from-OPR path (§2.1).
    fn restart(&self, _now: SimTime) {}

    /// Whether this host is currently crashed.
    fn is_crashed(&self) -> bool {
        false
    }

    /// Liveness probe ("are you there?"), as a Monitor would issue when a
    /// host misses its RGE reports. A crashed host answers `HostDown`.
    fn probe(&self, _now: SimTime) -> Result<(), LegionError> {
        Ok(())
    }

    // --- Triggers and periodic reassessment ------------------------------

    /// Registers an RGE trigger; returns its identifier.
    fn register_trigger(&self, trigger: Trigger) -> TriggerId;

    /// Removes a trigger.
    fn remove_trigger(&self, id: TriggerId);

    /// Registers a Monitor outcall to be notified when triggers fire.
    fn register_outcall(&self, outcall: Arc<dyn Outcall>);

    /// Periodic local-state reassessment (§3.1): recompute load and
    /// attribute values, expire lapsed reservations, evaluate triggers.
    /// Returns any events raised (they are also delivered to outcalls).
    fn reassess(&self, now: SimTime) -> Vec<Event>;
}
