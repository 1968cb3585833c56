//! Tenant identity, priority classes and per-tenant accounting.

/// Handle for a registered tenant — an index into the door's
/// registration-ordered tenant table. Stable for the life of the
/// [`FrontDoor`](crate::FrontDoor) that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub(crate) u32);

impl TenantId {
    /// The tenant's position in registration order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// The service class a tenant is admitted under. Each class carries its
/// own fair-use envelope ([`ClassPolicy`](crate::ClassPolicy)): rate,
/// burst and queue depth. Mirrors the paper's workload split — Legion
/// serves both long-lived services and batch work from one pool, and
/// the front door is where that split becomes an admission policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PriorityClass {
    /// Latency-sensitive interactive services: highest sustained rate,
    /// small bursts, shallow queues (fail fast rather than queue).
    Interactive,
    /// Steady production services: moderate rate, moderate queues.
    Production,
    /// Batch / best-effort work: lowest rate, big bursts tolerated,
    /// deepest queues.
    BestEffort,
}

impl PriorityClass {
    /// Number of classes (array-table dimension).
    pub const COUNT: usize = 3;

    /// All classes, in priority order.
    pub const ALL: [PriorityClass; Self::COUNT] = [
        PriorityClass::Interactive,
        PriorityClass::Production,
        PriorityClass::BestEffort,
    ];

    /// Dense index for per-class tables.
    pub fn index(self) -> usize {
        match self {
            PriorityClass::Interactive => 0,
            PriorityClass::Production => 1,
            PriorityClass::BestEffort => 2,
        }
    }

    /// Stable lowercase name (used as the `class` trace attribute, so
    /// changing these changes every exported trace).
    pub fn as_str(self) -> &'static str {
        match self {
            PriorityClass::Interactive => "interactive",
            PriorityClass::Production => "production",
            PriorityClass::BestEffort => "besteffort",
        }
    }
}

impl std::fmt::Display for PriorityClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-tenant admission accounting, kept by the door and snapshotted
/// into sim reports. `admitted == completed + failed + in-queue`, and
/// `submitted == admitted + the three rejection counts`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Requests presented at the door.
    pub submitted: u64,
    /// Requests past the bucket, queue and saturation checks.
    pub admitted: u64,
    /// Rejected: token bucket empty.
    pub rejected_rate: u64,
    /// Rejected: bounded queue full.
    pub rejected_queue: u64,
    /// Rejected: Enactor tier saturated.
    pub rejected_saturated: u64,
    /// Admitted requests whose placement succeeded — the tenant's
    /// goodput numerator for fairness ratios.
    pub completed: u64,
    /// Admitted requests whose placement failed.
    pub failed: u64,
}

impl TenantStats {
    /// Requests admitted but not yet concluded (queue occupancy).
    pub fn in_queue(&self) -> u64 {
        self.admitted
            .saturating_sub(self.completed)
            .saturating_sub(self.failed)
    }

    /// Total typed rejections.
    pub fn rejected(&self) -> u64 {
        self.rejected_rate + self.rejected_queue + self.rejected_saturated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_index_roundtrips() {
        for (i, c) in PriorityClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(!c.as_str().is_empty());
        }
    }

    #[test]
    fn stats_accounting_identities() {
        let s = TenantStats {
            submitted: 10,
            admitted: 6,
            rejected_rate: 2,
            rejected_queue: 1,
            rejected_saturated: 1,
            completed: 4,
            failed: 1,
        };
        assert_eq!(s.rejected(), 4);
        assert_eq!(s.submitted, s.admitted + s.rejected());
        assert_eq!(s.in_queue(), 1);
    }
}
