//! Collection records.

use legion_core::{AttributeDb, Loid, SimTime};

/// One resource's record: its identifier plus attribute snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectionRecord {
    /// The described object (usually a Host or Vault).
    pub member: Loid,
    /// The attribute snapshot.
    pub attrs: AttributeDb,
    /// When the member joined.
    pub joined_at: SimTime,
    /// When the record was last updated (push or pull).
    pub updated_at: SimTime,
}

impl CollectionRecord {
    /// Creates a record at join time.
    pub fn new(member: Loid, attrs: AttributeDb, now: SimTime) -> Self {
        CollectionRecord { member, attrs, joined_at: now, updated_at: now }
    }

    /// Age of the record relative to `now` — the staleness a pull daemon
    /// bounds.
    pub(crate) fn staleness(&self, now: SimTime) -> legion_core::SimDuration {
        now.since(self.updated_at)
    }

    /// A copy of this record carrying `attrs` instead of the stored
    /// snapshot — used when derived attributes extend a query-time view.
    ///
    /// Query results are `Arc<CollectionRecord>` clones of the stored
    /// snapshots; this is the one copy-on-write point where a fresh
    /// record (and attribute database) is actually allocated.
    pub(crate) fn with_attrs(&self, attrs: AttributeDb) -> Self {
        CollectionRecord {
            member: self.member,
            attrs,
            joined_at: self.joined_at,
            updated_at: self.updated_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_core::{LoidKind, SimDuration};

    #[test]
    fn staleness_measures_update_age() {
        let r = CollectionRecord::new(
            Loid::synthetic(LoidKind::Host, 1),
            AttributeDb::new(),
            SimTime::from_secs(10),
        );
        assert_eq!(r.staleness(SimTime::from_secs(25)), SimDuration::from_secs(15));
        assert_eq!(r.staleness(SimTime::from_secs(5)), SimDuration::ZERO);
    }
}
