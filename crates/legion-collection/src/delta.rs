//! The change log: what a Collection's readers patch from.
//!
//! A Collection can opt into keeping a bounded, sequence-numbered log
//! of its membership changes
//! ([`Collection::enable_deltas`](crate::Collection::enable_deltas)). Each
//! [`CollectionEpoch`](crate::CollectionEpoch) carries the log's newest
//! sequence, so a reader holding a result computed at an older epoch —
//! the schedulers' candidate cache — asks only for the operations after
//! that sequence and re-evaluates just the records they name. A reader
//! that has fallen further behind than the log's capacity gets
//! [`DeltaBatch::Gap`] and must recompute from the Collection itself:
//! the log never invents a lossy catch-up.
//!
//! Three operation kinds keep the common case cheap:
//!
//! * [`DeltaOp::Upsert`] — a join, update, or replace; carries the
//!   record snapshot the store itself installed,
//! * [`DeltaOp::Touch`] — a freshness bump with unchanged attributes
//!   (the incremental pull daemon's no-change fast path); carries the
//!   stored snapshot too, and a reader re-points to it without
//!   re-evaluating anything,
//! * [`DeltaOp::Remove`] — a leave or TTL eviction.
//!
//! A logged record is immutable and *shared*: the one
//! `Arc<CollectionRecord>` sits in the store, in the log and in every
//! cache that patched from it, so logging a change copies no
//! attributes. Each op re-states the member's post-change state, which
//! keeps replay from a conservatively old anchor idempotent.

use crate::record::CollectionRecord;
use legion_core::Loid;
use std::collections::VecDeque;
use std::sync::Arc;

/// One logged membership change.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp {
    /// Join/update/replace: the member's post-change record — the very
    /// snapshot the logging store holds, never a copy of it.
    Upsert(Arc<CollectionRecord>),
    /// Freshness bump: the stored snapshot after the bump. Its
    /// attributes equal those of the member's previous logged state;
    /// only `updated_at` moved.
    Touch(Arc<CollectionRecord>),
    /// Leave or eviction.
    Remove {
        /// The departed member.
        member: Loid,
    },
}

/// A sequence-stamped [`DeltaOp`].
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Monotonic sequence number (1-based; 0 means "nothing applied").
    pub seq: u64,
    /// The change.
    pub op: DeltaOp,
}

/// What a reader gets when it asks for changes after its sequence.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaBatch {
    /// Nothing new.
    UpToDate,
    /// The ordered changes to apply.
    Ops(Vec<Delta>),
    /// The log no longer reaches back far enough: deltas were dropped
    /// between the reader's sequence and `oldest_available`. The reader
    /// must recompute.
    Gap {
        /// The oldest sequence still in the log.
        oldest_available: u64,
        /// The newest sequence in the log.
        newest: u64,
    },
}

/// The bounded change log.
#[derive(Debug)]
pub struct ChangeLog {
    log: VecDeque<Delta>,
    capacity: usize,
    next_seq: u64,
}

impl ChangeLog {
    /// An empty log retaining at most `capacity` deltas.
    pub fn new(capacity: usize) -> Self {
        ChangeLog { log: VecDeque::new(), capacity: capacity.max(1), next_seq: 1 }
    }

    /// Appends `op`, evicting the oldest delta when full. Returns the
    /// assigned sequence number.
    pub fn push(&mut self, op: DeltaOp) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.log.len() == self.capacity {
            self.log.pop_front();
        }
        self.log.push_back(Delta { seq, op });
        seq
    }

    /// The newest sequence number assigned (0 when nothing was ever
    /// logged).
    pub fn newest_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// The changes after `applied_seq`, or a gap report when the log
    /// has already dropped some of them.
    pub fn since(&self, applied_seq: u64) -> DeltaBatch {
        if applied_seq >= self.newest_seq() {
            return DeltaBatch::UpToDate;
        }
        match self.log.front() {
            // Log drained but newest_seq says there were changes: every
            // one of them is gone.
            None => DeltaBatch::Gap { oldest_available: self.next_seq, newest: self.newest_seq() },
            Some(front) if front.seq > applied_seq + 1 => {
                DeltaBatch::Gap { oldest_available: front.seq, newest: self.newest_seq() }
            }
            // Sequences are contiguous, so the first wanted delta sits
            // at a known offset: nothing at or before `applied_seq` is
            // visited.
            Some(front) => {
                let skip = (applied_seq + 1 - front.seq) as usize;
                DeltaBatch::Ops(self.log.range(skip..).cloned().collect())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_core::LoidKind;

    fn rm(seq: u64) -> DeltaOp {
        DeltaOp::Remove { member: Loid::synthetic(LoidKind::Host, seq) }
    }

    #[test]
    fn sequences_are_monotonic_and_batches_ordered() {
        let mut log = ChangeLog::new(8);
        assert_eq!(log.newest_seq(), 0);
        assert_eq!(log.since(0), DeltaBatch::UpToDate);
        assert_eq!(log.push(rm(1)), 1);
        assert_eq!(log.push(rm(2)), 2);
        assert_eq!(log.push(rm(3)), 3);
        let DeltaBatch::Ops(ops) = log.since(1) else { panic!("expected ops") };
        assert_eq!(ops.iter().map(|d| d.seq).collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(log.since(3), DeltaBatch::UpToDate);
        assert_eq!(log.since(7), DeltaBatch::UpToDate); // future seq: nothing newer
    }

    #[test]
    fn overflow_reports_a_gap() {
        let mut log = ChangeLog::new(3);
        for i in 1..=5 {
            log.push(rm(i));
        }
        // Log holds 3..=5; a reader at 1 missed seq 2.
        assert_eq!(log.since(1), DeltaBatch::Gap { oldest_available: 3, newest: 5 });
        // A reader at 2 can still catch up: 3 is the next it needs.
        let DeltaBatch::Ops(ops) = log.since(2) else { panic!("expected ops") };
        assert_eq!(ops.len(), 3);
        // A reader at 0 (never synced) is also gapped.
        assert_eq!(log.since(0), DeltaBatch::Gap { oldest_available: 3, newest: 5 });
    }

    /// `since` seeks; it must find what filtering the whole log found.
    #[test]
    fn seeking_since_equals_the_filtering_oracle() {
        for capacity in 1..=8u64 {
            let mut log = ChangeLog::new(capacity as usize);
            for pushed in 0..=20u64 {
                if pushed > 0 {
                    log.push(rm(pushed));
                }
                let oldest = pushed.saturating_sub(capacity) + 1;
                for k in 0..=pushed + 2 {
                    let want = if k >= pushed {
                        DeltaBatch::UpToDate
                    } else if k + 1 < oldest {
                        DeltaBatch::Gap { oldest_available: oldest, newest: pushed }
                    } else {
                        DeltaBatch::Ops(log.log.iter().filter(|d| d.seq > k).cloned().collect())
                    };
                    assert_eq!(log.since(k), want, "cap {capacity}, {pushed} pushed, k {k}");
                    if let DeltaBatch::Ops(ops) = want {
                        assert!(ops.iter().map(|d| d.seq).eq(k + 1..=pushed), "contiguous");
                    }
                }
            }
        }
    }

    #[test]
    fn capacity_is_at_least_one() {
        let mut log = ChangeLog::new(0);
        log.push(rm(1));
        log.push(rm(2));
        assert_eq!(log.since(1), DeltaBatch::Ops(vec![Delta { seq: 2, op: rm(2) }]));
        assert_eq!(log.since(0), DeltaBatch::Gap { oldest_available: 2, newest: 2 });
    }
}
