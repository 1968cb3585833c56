//! Core object model of the Legion resource management system.
//!
//! This crate reproduces the *core objects* of the paper — the types and
//! interfaces "without which the system cannot function" (§2):
//!
//! * [`Loid`] — Legion Object IDentifiers, location-independent names.
//! * [`AttributeDb`] — the extensible attribute database carried by every
//!   Legion object (§3.1), used by Hosts to export state and by the
//!   Collection to store resource descriptions.
//! * [`reservation`] — reservation requests, the four reservation types of
//!   Table 2 (`share` × `reuse`), and non-forgeable reservation tokens.
//! * [`HostObject`] / [`VaultObject`] — the resource-object interfaces
//!   (Table 1): reservation management, object (process) management, and
//!   information reporting for Hosts; OPR storage for Vaults.
//! * [`ClassObject`] and the concrete [`LegionClass`] — classes as *active
//!   managers* of their instances, exporting `create_instance()` with an
//!   optional directed placement (§2.1, §3.4).
//! * [`rge`] — the Reflective Graph & Events trigger mechanism Hosts use
//!   to raise events (e.g. load above threshold) handled by Monitor
//!   outcalls (§2.1, §3.5).
//!
//! Only *interfaces* for Hosts and Vaults live here; implementations are
//! in `legion-hosts` and `legion-vaults`, mirroring the paper's position
//! that "others are free to substitute their own modules".

pub mod attrs;
pub mod class;
pub mod error;
pub mod hash;
pub mod host;
pub mod loid;
pub mod opr;
pub mod request;
pub mod reservation;
pub mod rge;
pub mod time;
pub mod trace;
pub mod vault;

pub use attrs::{AttrMask, AttrValue, AttributeDb};
pub use class::{ClassObject, ClassReport, LegionClass, Placement, PlacementContext};
pub use error::LegionError;
pub use host::{well_known, HostObject, ObjectSpec, ReservationStatus};
pub use loid::{Loid, LoidKind, ReplayGuard};
pub use opr::Opr;
pub use request::{ClassRequest, ObjectImplementation, PlacementRequest};
pub use reservation::{ReservationRequest, ReservationToken, ReservationType, TokenMinter};
pub use rge::{Event, EventKind, Guard, Outcall, Trigger, TriggerId};
pub use time::{SimDuration, SimTime};
pub use trace::{EpisodeId, Span, SpanId, SpanKind, SpanOutcome};
pub use vault::{StorageStats, VaultDirectory, VaultObject};
