//! Span and episode types for pipeline tracing.
//!
//! The paper's evaluation (§6) reasons about the RMI in terms of *where
//! time and messages go* — Collection lookups vs. reservation thrashing
//! vs. enactment retries. These types make one scheduling episode
//! reconstructible as a timed event trace: every pipeline stage opens a
//! [`Span`] scoped to an [`EpisodeId`], carrying start/end [`SimTime`],
//! an [`SpanOutcome`] and key/value attributes. The collecting sink and
//! the latency histograms over span durations live in `legion-trace`;
//! only the vocabulary shared by every instrumented crate lives here.

use crate::attrs::AttrValue;
use crate::loid::Loid;
use crate::time::{SimDuration, SimTime};
use std::fmt;

/// One scheduling episode: a driver-run placement, a watchdog recovery,
/// or any other causally-linked burst of pipeline work.
///
/// Episodes are scoped to a [`Loid`] — the class being placed, or the
/// host being recovered — plus a sink-allocated sequence number, so two
/// placements of the same class remain distinguishable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EpisodeId {
    /// The object the episode is about (class placed, host recovered).
    pub root: Loid,
    /// Sink-allocated sequence number (0 is the ambient episode).
    pub seq: u64,
}

impl EpisodeId {
    /// The ambient episode: spans opened outside any explicit episode.
    pub const AMBIENT: EpisodeId = EpisodeId { root: Loid::NIL, seq: 0 };

    /// Whether this is the ambient episode.
    pub fn is_ambient(&self) -> bool {
        self.seq == 0
    }
}

impl fmt::Display for EpisodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_ambient() {
            write!(f, "ep-ambient")
        } else {
            write!(f, "ep-{}/{}", self.seq, self.root)
        }
    }
}

/// A span identifier, unique within one sink. `SpanId::NONE` (0) means
/// "no span" — used as the parent of episode roots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The absent span (parent of roots).
    pub const NONE: SpanId = SpanId(0);

    /// Whether this id names a real span.
    pub fn is_some(&self) -> bool {
        self.0 != 0
    }
}

/// The pipeline stage a span covers — one per instrumented operation of
/// the Fig. 3 walkthrough plus the failure-handling stages around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// An episode root: one `ScheduleDriver::place` call or one
    /// watchdog recovery sweep.
    Episode,
    /// One `compute_schedule` call on a Scheduler.
    Schedule,
    /// One Collection query evaluation (indexed or scan).
    CollectionQuery,
    /// One `Enactor::make_reservations` call.
    MakeReservations,
    /// One reservation fill pass (master or variant) inside
    /// `make_reservations` — mirrors the `schedules_attempted` counter.
    ReserveAttempt,
    /// One Enactor backoff sleep (the virtual clock advances).
    Backoff,
    /// One reservation cancellation issued by an Enactor.
    CancelReservation,
    /// One `Enactor::enact_schedule` call.
    EnactSchedule,
    /// One per-mapping `create_instance` inside enactment.
    EnactInstantiation,
    /// One `start_object` call on a Host.
    StartObject,
    /// One watchdog restart-from-OPR attempt for a stranded object.
    RestartFromOpr,
    /// One fault-plan event fired by the fabric (zero duration).
    Fault,
    /// One rebalance-sweep hotspot detection pass over Collection
    /// records (hysteresis update included).
    RebalanceDetect,
    /// One rebalance-sweep planning pass (victim/target selection under
    /// the per-sweep budget).
    RebalancePlan,
    /// One attempted object migration inside a rebalance sweep
    /// (alternate-target retries happen within the same span).
    RebalanceMigrate,
    /// One rebalance-sweep convergence check (post-migration max/mean
    /// load ratio against the exit threshold).
    RebalanceConverge,
    /// One front-door admission decision: a tenant's placement request
    /// admitted through its token bucket and queue, or rejected with a
    /// typed backpressure outcome (rate limit, queue full, saturated).
    Admission,
    /// One step of the request→approve→confirm reservation-grant
    /// workflow at the front door (the `op` attribute names the step).
    ReservationGrant,
}

impl SpanKind {
    /// Number of distinct kinds (histogram array size).
    pub const COUNT: usize = 18;

    /// Every kind, in index order.
    pub const ALL: [SpanKind; SpanKind::COUNT] = [
        SpanKind::Episode,
        SpanKind::Schedule,
        SpanKind::CollectionQuery,
        SpanKind::MakeReservations,
        SpanKind::ReserveAttempt,
        SpanKind::Backoff,
        SpanKind::CancelReservation,
        SpanKind::EnactSchedule,
        SpanKind::EnactInstantiation,
        SpanKind::StartObject,
        SpanKind::RestartFromOpr,
        SpanKind::Fault,
        SpanKind::RebalanceDetect,
        SpanKind::RebalancePlan,
        SpanKind::RebalanceMigrate,
        SpanKind::RebalanceConverge,
        SpanKind::Admission,
        SpanKind::ReservationGrant,
    ];

    /// Dense index (for per-kind histogram arrays).
    pub fn index(self) -> usize {
        SpanKind::ALL.iter().position(|&k| k == self).expect("kind in ALL")
    }

    /// Stable snake_case name (trace files, reports, assertions).
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Episode => "episode",
            SpanKind::Schedule => "schedule",
            SpanKind::CollectionQuery => "collection_query",
            SpanKind::MakeReservations => "make_reservations",
            SpanKind::ReserveAttempt => "reserve_attempt",
            SpanKind::Backoff => "backoff",
            SpanKind::CancelReservation => "cancel_reservation",
            SpanKind::EnactSchedule => "enact_schedule",
            SpanKind::EnactInstantiation => "enact_instantiation",
            SpanKind::StartObject => "start_object",
            SpanKind::RestartFromOpr => "restart_from_opr",
            SpanKind::Fault => "fault",
            SpanKind::RebalanceDetect => "rebalance_detect",
            SpanKind::RebalancePlan => "rebalance_plan",
            SpanKind::RebalanceMigrate => "rebalance_migrate",
            SpanKind::RebalanceConverge => "rebalance_converge",
            SpanKind::Admission => "admission",
            SpanKind::ReservationGrant => "reservation_grant",
        }
    }
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How a span ended — the Enactor's `FailureClass` vocabulary plus the
/// generic success/error cases, so trace assertions can match recovery
/// behaviour (a crashed host yields `HostDown` attempts, §3.1).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum SpanOutcome {
    /// The span is still open or was closed without a verdict.
    #[default]
    Unset,
    /// The operation succeeded.
    Ok,
    /// Every relevant host was down or unreachable.
    HostDown,
    /// A deadline budget lapsed.
    DeadlineExceeded,
    /// Resources were denied (capacity, policy, vault).
    ResourceUnavailable,
    /// Infrastructure failure (network, missing objects).
    Infrastructure,
    /// The input was structurally invalid.
    Malformed,
    /// Any other failure, with its message.
    Error(String),
}

impl SpanOutcome {
    /// Whether the span succeeded.
    pub fn is_ok(&self) -> bool {
        matches!(self, SpanOutcome::Ok)
    }

    /// Maps an error onto the outcome taxonomy — the same grouping the
    /// Enactor's `FailureClass::classify` applies, so trace outcomes and
    /// scheduler feedback agree about what went wrong.
    pub fn from_error(e: &crate::error::LegionError) -> SpanOutcome {
        use crate::error::LegionError::*;
        match e {
            HostDown(_) | NoSuchHost(_) => SpanOutcome::HostDown,
            NetworkFailure { .. } | NoSuchObject(_) | NoSuchVault(_) | NoSuchOpr(_)
            | Serialization(_) => SpanOutcome::Infrastructure,
            ReservationDenied { .. }
            | ReservationExpired
            | ReservationConsumed
            | PolicyRefused { .. }
            | VaultUnreachable { .. }
            | VaultIncompatible { .. }
            | VaultFull(_)
            | AllSchedulesFailed { .. } => SpanOutcome::ResourceUnavailable,
            MalformedSchedule(_) | BadQuery(_) => SpanOutcome::Malformed,
            other => SpanOutcome::Error(other.to_string()),
        }
    }

    /// Stable label (trace files, reports).
    pub fn label(&self) -> &str {
        match self {
            SpanOutcome::Unset => "unset",
            SpanOutcome::Ok => "ok",
            SpanOutcome::HostDown => "host_down",
            SpanOutcome::DeadlineExceeded => "deadline_exceeded",
            SpanOutcome::ResourceUnavailable => "resource_unavailable",
            SpanOutcome::Infrastructure => "infrastructure",
            SpanOutcome::Malformed => "malformed",
            SpanOutcome::Error(msg) => msg,
        }
    }
}

impl fmt::Display for SpanOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One closed span: a timed, attributed pipeline operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// This span's identifier.
    pub id: SpanId,
    /// Enclosing span (NONE for episode roots and ambient spans).
    pub parent: SpanId,
    /// The episode this span belongs to.
    pub episode: EpisodeId,
    /// The pipeline stage covered.
    pub kind: SpanKind,
    /// Virtual time the span opened.
    pub start: SimTime,
    /// Virtual time the span closed (never before `start`).
    pub end: SimTime,
    /// Simulated latency charged to this span (network messages sent
    /// while it was the active span). The clock does not advance for
    /// message latency, so charges are tracked separately and included
    /// in [`Span::duration`].
    pub charged: SimDuration,
    /// How the operation ended.
    pub outcome: SpanOutcome,
    /// Key/value attributes (counts, identifiers, decisions).
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl Span {
    /// Total simulated cost: wall span on the virtual clock plus the
    /// charged message latency.
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start) + self.charged
    }

    /// Looks up an attribute by key (last write wins).
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().rev().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Integer attribute convenience.
    pub fn attr_i64(&self, key: &str) -> Option<i64> {
        match self.attr(key) {
            Some(AttrValue::Int(i)) => Some(*i),
            _ => None,
        }
    }

    /// String attribute convenience.
    pub fn attr_str(&self, key: &str) -> Option<&str> {
        self.attr(key).and_then(AttrValue::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loid::LoidKind;

    #[test]
    fn kind_index_roundtrips() {
        for (i, k) in SpanKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        assert_eq!(SpanKind::ALL.len(), SpanKind::COUNT);
    }

    #[test]
    fn duration_includes_charges_and_never_underflows() {
        let s = Span {
            id: SpanId(1),
            parent: SpanId::NONE,
            episode: EpisodeId::AMBIENT,
            kind: SpanKind::CollectionQuery,
            start: SimTime::from_micros(100),
            end: SimTime::from_micros(150),
            charged: SimDuration::from_micros(25),
            outcome: SpanOutcome::Ok,
            attrs: Vec::new(),
        };
        assert_eq!(s.duration(), SimDuration::from_micros(75));
        let backwards = Span { end: SimTime::from_micros(50), ..s };
        assert_eq!(backwards.duration(), SimDuration::from_micros(25), "saturates to charges");
    }

    #[test]
    fn attrs_last_write_wins() {
        let mut s = Span {
            id: SpanId(1),
            parent: SpanId::NONE,
            episode: EpisodeId::AMBIENT,
            kind: SpanKind::Schedule,
            start: SimTime::ZERO,
            end: SimTime::ZERO,
            charged: SimDuration::ZERO,
            outcome: SpanOutcome::Unset,
            attrs: Vec::new(),
        };
        s.attrs.push(("n", AttrValue::Int(1)));
        s.attrs.push(("n", AttrValue::Int(2)));
        assert_eq!(s.attr_i64("n"), Some(2));
        assert_eq!(s.attr_str("n"), None);
    }

    #[test]
    fn episode_display_and_ambient() {
        assert!(EpisodeId::AMBIENT.is_ambient());
        assert_eq!(EpisodeId::AMBIENT.to_string(), "ep-ambient");
        let ep = EpisodeId { root: Loid::synthetic(LoidKind::Class, 3), seq: 7 };
        assert!(!ep.is_ambient());
        assert!(ep.to_string().starts_with("ep-7/1.01."));
    }
}
