//! The host-side reservation table.
//!
//! "the standard Unix Host Object maintains a reservation table in the
//! Host Object, because the Unix OS has no notion of reservations.
//! Similarly, most batch processing systems do not understand
//! reservations, and so our basic Batch Queue Host maintains reservations
//! in a fashion similar to the Unix Host Object." (§3.1)
//!
//! The table implements the admission semantics of **Table 2**:
//!
//! * an *unshared* (`share = 0`) reservation "allocates the entire
//!   resource" — it conflicts with any other reservation overlapping its
//!   service window, in either direction;
//! * *shared* (`share = 1`) reservations multiplex the host: the summed
//!   CPU and memory demand of overlapping shared holders must fit the
//!   host's capacity;
//! * a *one-shot* (`reuse = 0`) token is consumed by its first
//!   `start_object()`; a *reusable* (`reuse = 1`) token may be presented
//!   repeatedly while its window lasts;
//! * an instantaneous reservation lapses if not confirmed within its
//!   timeout — "confirmation is implicit when the reservation token is
//!   presented with the StartObject() call" (§3.1).
//!
//! The table keeps what holds resources apart from what is only
//! remembered. A *live* entry (pending, confirmed or consumed) keeps, in
//! 48 bytes, what admission, expiry and confirmation read of its token:
//! serial, window, deadline, demand, type bits and state. A presented
//! token vouches for itself by its keyed tag, so the table keeps no copy
//! of it; its host is the table's own, and its vault and class are read
//! from the token presented. Live entries sit in a serial-ordered list;
//! serials are minted in increasing order, so a grant appends. A *dead*
//! reservation (cancelled, lapsed or released) shrinks to its fate,
//! which is all `check`, `consume` and `cancel` read of it: two bits in
//! a bitmap over the serials minted since the last autocompaction, or,
//! for a token that was live at that compaction, one word in a short
//! sorted list. So what a table remembers is bounded by what it held at
//! its last compaction and has minted since, not by how many
//! reservations it has served. `sweep` walks only the live list, and a
//! watermark — the earliest instant any live entry can lapse — lets a
//! sweep with nothing due return without walking at all.
//!
//! Admission and `held_at` walk no entry. The table keeps what its live
//! entries hold (how many, how many unshared, their CPU and memory) as a
//! running total and per window edge. The entries overlapping a
//! half-open window `[s, e)` are all of them, less those that end by `s`,
//! less those that start at or after `e`; the entries covering an
//! instant `t` are all of them, less those that start after `t`, less
//! those that end by `t`. Each excluded set is one range of edges, so a
//! verdict costs the distinct instants outside the window, not the
//! entries inside it.

use legion_core::{
    LegionError, Loid, ReservationRequest, ReservationStatus, ReservationToken, SimTime,
    TokenMinter,
};
use std::collections::BTreeMap;
use std::ops::{Bound, RangeBounds};

/// Capacity the table admits against.
#[derive(Debug, Clone, Copy)]
pub struct TableCapacity {
    /// Total CPU, in hundredths of a processor (ncpus × 100).
    pub cpu_centis: u32,
    /// Total memory, MB.
    pub memory_mb: u32,
}

/// Lifecycle state of a live entry. Every live entry holds its window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    /// Granted; awaiting confirmation or its start time.
    Pending,
    /// Confirmed by a `start_object()`; reusable tokens stay here.
    Confirmed,
    /// One-shot token consumed.
    Consumed,
}

/// A reservation that holds resources: what the table reads of its
/// token.
#[derive(Debug, Clone, Copy)]
struct Entry {
    serial: u64,
    start: SimTime,
    end: SimTime,
    /// Confirmation deadline of an instantaneous reservation, `NEVER`
    /// for none.
    deadline: SimTime,
    cpu_centis: u32,
    memory_mb: u32,
    state: EntryState,
    share: bool,
    reuse: bool,
}

const _: () = assert!(size_of::<Entry>() == 48);

impl Entry {
    /// The entry of a token just granted.
    fn granted(token: &ReservationToken) -> Entry {
        Entry {
            serial: token.serial,
            start: token.start,
            end: token.end(),
            deadline: token.confirm_by.unwrap_or(NEVER),
            cpu_centis: token.cpu_centis,
            memory_mb: token.memory_mb,
            state: EntryState::Pending,
            share: token.rtype.share,
            reuse: token.rtype.reuse,
        }
    }

    /// The first instant at which a sweep expires this entry: its
    /// confirmation deadline (or window end, if sooner) while it awaits
    /// confirmation, its window end once confirmed or consumed.
    fn lapses_at(&self) -> SimTime {
        match self.state {
            EntryState::Pending => self.deadline.min(self.end),
            _ => self.end,
        }
    }
}

/// The fates of the reservations that hold nothing any more, kept until
/// autocompaction forgets them all.
#[derive(Debug, Default)]
struct Fates {
    /// The serial the table was to mint next when it last compacted: the
    /// first serial the bitmap covers.
    base: u64,
    /// Two bits per serial from `base` on, 32 serials a word: `00` not
    /// dead, `01` lapsed or released, `11` cancelled.
    bits: Vec<u64>,
    /// Serials below `base` (live at the last compaction) that have died
    /// since, as `serial << 1 | cancelled`, in serial order.
    older: Vec<u64>,
    /// Serials that have died since the last compaction.
    count: usize,
}

/// A fate's bits: dead, and dead by cancellation.
const DEAD: u64 = 0b01;
const CANCELLED: u64 = 0b10;

impl Fates {
    /// The bitmap word and shift of a serial at or after `base`, or
    /// `None` for an older serial.
    fn slot(&self, serial: u64) -> Option<(usize, u32)> {
        let i = serial.checked_sub(self.base)?;
        Some(((i / 32) as usize, (i % 32 * 2) as u32))
    }

    /// Records the death of a live serial.
    fn record(&mut self, serial: u64, cancelled: bool) {
        self.count += 1;
        match self.slot(serial) {
            Some((word, shift)) => {
                if word >= self.bits.len() {
                    self.bits.resize(word + 1, 0);
                }
                self.bits[word] |= (DEAD | if cancelled { CANCELLED } else { 0 }) << shift;
            }
            None => {
                let at = self.older.partition_point(|&k| k >> 1 < serial);
                self.older.insert(at, serial << 1 | u64::from(cancelled));
            }
        }
    }

    /// `Some(cancelled)` for a remembered dead serial, `None` otherwise.
    fn fate(&self, serial: u64) -> Option<bool> {
        match self.slot(serial) {
            Some((word, shift)) => {
                let fate = self.bits.get(word)? >> shift;
                (fate & DEAD != 0).then_some(fate & CANCELLED != 0)
            }
            None => {
                let at = self.older.binary_search_by_key(&serial, |&k| k >> 1).ok()?;
                Some(self.older[at] & 1 != 0)
            }
        }
    }

    /// Re-fates a remembered dead serial as cancelled; `false` if it is
    /// not one.
    fn cancel(&mut self, serial: u64) -> bool {
        match self.slot(serial) {
            Some((word, shift)) => match self.bits.get_mut(word) {
                Some(w) if *w >> shift & DEAD != 0 => *w |= CANCELLED << shift,
                _ => return false,
            },
            None => match self.older.binary_search_by_key(&serial, |&k| k >> 1) {
                Ok(at) => self.older[at] |= 1,
                Err(_) => return false,
            },
        }
        true
    }
}

/// The watermark of a table with no live entries, and the deadline of
/// an entry that has none.
const NEVER: SimTime = SimTime(u64::MAX);

/// What a set of live entries holds.
#[derive(Debug, Clone, Copy, Default)]
struct Held {
    count: u32,
    unshared: u32,
    /// CPU-centis and MB demanded, unshared entries included.
    cpu: u64,
    mem: u64,
}

impl Held {
    fn of(e: &Entry) -> Held {
        Held {
            count: 1,
            unshared: u32::from(!e.share),
            cpu: e.cpu_centis.into(),
            mem: e.memory_mb.into(),
        }
    }

    fn plus(self, o: Held) -> Held {
        Held {
            count: self.count + o.count,
            unshared: self.unshared + o.unshared,
            cpu: self.cpu + o.cpu,
            mem: self.mem + o.mem,
        }
    }

    fn minus(self, o: Held) -> Held {
        Held {
            count: self.count - o.count,
            unshared: self.unshared - o.unshared,
            cpu: self.cpu - o.cpu,
            mem: self.mem - o.mem,
        }
    }
}

/// A window edge: the key of the held sums. Every end sorts before every
/// start, so "ends by an instant" and "starts at or after one" are each
/// one range of the map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Edge {
    /// A window's end, and whether the window is empty (start = end).
    End(SimTime, bool),
    Start(SimTime),
}

/// The reservation table: mints, admits, confirms, expires.
#[derive(Debug)]
pub struct ReservationTable {
    host: Loid,
    capacity: TableCapacity,
    minter: TokenMinter,
    /// Entries that hold resources, in serial order. A table with none
    /// holds no allocation.
    live: Vec<Entry>,
    /// What the live entries hold, in total and per window edge: each
    /// live entry counts once at its start and once at its end.
    held: Held,
    edges: BTreeMap<Edge, Held>,
    /// Cancelled, lapsed and released reservations.
    fates: Fates,
    /// One past the newest serial minted.
    next_serial: u64,
    /// No live entry lapses before this instant.
    next_lapse: SimTime,
}

impl ReservationTable {
    /// Creates a table for a host with the given capacity and secret.
    pub fn new(host: Loid, secret: u64, capacity: TableCapacity) -> Self {
        ReservationTable {
            host,
            capacity,
            minter: TokenMinter::new(host, secret),
            live: Vec::new(),
            held: Held::default(),
            edges: BTreeMap::new(),
            fates: Fates::default(),
            next_serial: 0,
            next_lapse: NEVER,
        }
    }

    /// Attempts to admit and mint a reservation.
    pub fn make(
        &mut self,
        req: &ReservationRequest,
        now: SimTime,
    ) -> Result<ReservationToken, LegionError> {
        self.sweep(now);
        self.autocompact();
        let start = req.start.unwrap_or(now);
        let end = start + req.duration;
        let host = self.host;

        // Effective demand: an unshared reservation takes the machine.
        let (cpu, mem) = if req.rtype.share {
            (req.cpu_centis, req.memory_mb)
        } else {
            (self.capacity.cpu_centis, self.capacity.memory_mb)
        };
        if cpu > self.capacity.cpu_centis || mem > self.capacity.memory_mb {
            return Err(LegionError::ReservationDenied {
                host,
                reason: format!(
                    "demand ({cpu} cpu-centis, {mem} MB) exceeds capacity ({}, {})",
                    self.capacity.cpu_centis, self.capacity.memory_mb
                ),
            });
        }

        let overlap = self.overlapping(start, end);
        if overlap.unshared > 0 || (overlap.count > 0 && !req.rtype.share) {
            // Either side unshared ⇒ exclusive conflict.
            return Err(LegionError::ReservationDenied {
                host,
                reason: "window conflicts with an exclusive reservation".into(),
            });
        }
        let (cpu_held, mem_held) = (overlap.cpu, overlap.mem);
        if cpu_held + cpu as u64 > self.capacity.cpu_centis as u64
            || mem_held + mem as u64 > self.capacity.memory_mb as u64
        {
            return Err(LegionError::ReservationDenied {
                host,
                reason: format!(
                    "insufficient shared capacity: {cpu_held}/{} cpu-centis, {mem_held}/{} MB held",
                    self.capacity.cpu_centis, self.capacity.memory_mb
                ),
            });
        }

        // Instantaneous reservations get a confirmation deadline.
        let confirm_by = match (req.start, req.timeout) {
            (None, Some(t)) => Some(now + t),
            _ => None,
        };
        let token = self.minter.mint(req, start, confirm_by);
        self.next_serial = token.serial + 1;
        // The minter's serials only grow, so appending keeps serial order.
        let entry = Entry::granted(&token);
        self.next_lapse = self.next_lapse.min(entry.lapses_at());
        self.live.push(entry);
        self.tally(&entry, Held::plus);
        Ok(token)
    }

    /// Reports a token's status (with lazy expiry).
    pub fn check(
        &mut self,
        token: &ReservationToken,
        now: SimTime,
    ) -> Result<ReservationStatus, LegionError> {
        if !self.minter.verify(token) {
            return Err(LegionError::InvalidToken);
        }
        self.sweep(now);
        let Ok(i) = self.live_index(token.serial) else {
            return match self.fates.fate(token.serial) {
                Some(true) => Ok(ReservationStatus::Cancelled),
                Some(false) => Ok(ReservationStatus::Expired),
                None => Err(LegionError::InvalidToken),
            };
        };
        let e = &self.live[i];
        Ok(match e.state {
            EntryState::Pending => {
                if e.start <= now && now < e.end {
                    ReservationStatus::Active
                } else {
                    ReservationStatus::Pending
                }
            }
            EntryState::Confirmed => ReservationStatus::Active,
            EntryState::Consumed => ReservationStatus::Consumed,
        })
    }

    /// Confirms/consumes a token presented with `start_object()`.
    pub fn consume(
        &mut self,
        token: &ReservationToken,
        now: SimTime,
    ) -> Result<(), LegionError> {
        if !self.minter.verify(token) {
            return Err(LegionError::InvalidToken);
        }
        self.sweep(now);
        let Ok(i) = self.live_index(token.serial) else {
            return Err(match self.fates.fate(token.serial) {
                Some(_) => LegionError::ReservationExpired,
                None => LegionError::InvalidToken,
            });
        };
        let e = &mut self.live[i];
        if e.state == EntryState::Consumed {
            return Err(LegionError::ReservationConsumed);
        }
        if now < e.start {
            // `verify` passed, so the token's host is this table's.
            return Err(LegionError::ReservationDenied {
                host: self.host,
                reason: format!("service window opens at {}", e.start),
            });
        }
        // The sweep above expired every entry whose window is over, so
        // `now` falls inside this one's.
        e.state = if e.reuse { EntryState::Confirmed } else { EntryState::Consumed };
        Ok(())
    }

    /// Cancels a reservation (Enactor backing out of a schedule). A dead
    /// reservation is re-fated as cancelled.
    pub fn cancel(&mut self, token: &ReservationToken) -> Result<(), LegionError> {
        if !self.minter.verify(token) {
            return Err(LegionError::InvalidToken);
        }
        match self.live_index(token.serial) {
            Ok(i) => self.retire(i, true),
            Err(_) if self.fates.cancel(token.serial) => {}
            Err(_) => return Err(LegionError::InvalidToken),
        }
        Ok(())
    }

    /// Releases a reservation early (e.g. its one-shot job finished),
    /// freeing the window for others.
    pub fn release(&mut self, serial: u64) {
        if let Ok(i) = self.live_index(serial) {
            self.retire(i, false);
        }
    }

    /// Expires every live entry at once: the host fail-stopped and its
    /// volatile reservation state is gone. The minter (and thus the
    /// serial counter) survives, so tokens granted after a restart can
    /// never collide with a pre-crash serial — a stale token presented
    /// later fails with `ReservationExpired`, not a false match.
    pub fn expire_all(&mut self) -> usize {
        let live = std::mem::take(&mut self.live);
        let n = live.len();
        for e in &live {
            self.fates.record(e.serial, false);
        }
        self.free_if_idle();
        n
    }

    /// Expires lapsed entries; returns the serials that expired this
    /// sweep, in order. Returns at once while `now` is before the
    /// watermark, and recomputes it otherwise.
    pub fn sweep(&mut self, now: SimTime) -> Vec<u64> {
        if now < self.next_lapse {
            return Vec::new();
        }
        let mut expired = Vec::new();
        let mut next_lapse = NEVER;
        self.live.retain(|e| {
            let lapses_at = e.lapses_at();
            if now < lapses_at {
                next_lapse = next_lapse.min(lapses_at);
                return true;
            }
            expired.push(*e);
            false
        });
        self.next_lapse = next_lapse;
        let idle = self.free_if_idle();
        for e in &expired {
            if !idle {
                self.tally(e, Held::minus);
            }
            self.fates.record(e.serial, false);
        }
        expired.into_iter().map(|e| e.serial).collect()
    }

    /// (cpu-centis, MB) held by reservations whose window covers `now`.
    pub fn held_at(&self, now: SimTime) -> (u32, u32) {
        let later = self.held_in((Bound::Excluded(Edge::Start(now)), Bound::Unbounded));
        let covering = self.held.minus(later).minus(self.held_in(..=Edge::End(now, true)));
        let (cap_cpu, cap_mem) = (self.capacity.cpu_centis, self.capacity.memory_mb);
        if covering.unshared > 0 {
            return (cap_cpu, cap_mem);
        }
        // Admission keeps what covers an instant within capacity, so the
        // narrowing below never truncates.
        (covering.cpu.min(cap_cpu.into()) as u32, covering.mem.min(cap_mem.into()) as u32)
    }

    /// What the live entries overlapping the half-open window
    /// `[start, end)` hold: all of them, less those that end by `start`,
    /// less those that start at or after `end`. An empty entry at an
    /// empty window's instant is in both excluded sets; the first range
    /// stops short of it, so it is taken out once.
    fn overlapping(&self, start: SimTime, end: SimTime) -> Held {
        let ended = self.held_in(..=Edge::End(start, start < end));
        self.held.minus(ended).minus(self.held_in(Edge::Start(end)..))
    }

    /// What the live entries with an edge in `edges` hold.
    fn held_in(&self, edges: impl RangeBounds<Edge>) -> Held {
        self.edges.range(edges).fold(Held::default(), |sum, (_, &h)| sum.plus(h))
    }

    /// Adds (`Held::plus`) or takes away (`Held::minus`) a live entry's
    /// holding to the total and at both of its window's edges. An edge
    /// that no live entry uses any more leaves the map.
    fn tally(&mut self, e: &Entry, op: fn(Held, Held) -> Held) {
        let held = Held::of(e);
        self.held = op(self.held, held);
        for edge in [Edge::Start(e.start), Edge::End(e.end, e.start == e.end)] {
            let at = self.edges.entry(edge).or_default();
            *at = op(*at, held);
            if at.count == 0 {
                self.edges.remove(&edge);
            }
        }
    }

    /// Number of live (holding) entries.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Entries the table still knows of, live or dead (diagnostics).
    pub fn total_granted(&self) -> usize {
        self.live.len() + self.fates.count
    }

    /// Forgets every dead reservation once the dead outnumber the live
    /// four to one (above a floor of 64 entries), so a table's memory
    /// stays proportional to what it holds. Both fate buffers are freed
    /// and the bitmap restarts at the next serial to be minted; a token
    /// live now that dies later is remembered in the short list. Checks
    /// against a forgotten token thereafter report `InvalidToken`.
    fn autocompact(&mut self) {
        const MIN_ENTRIES: usize = 64;
        let total = self.total_granted();
        if total >= MIN_ENTRIES && total > 4 * self.live.len().max(1) {
            self.fates = Fates { base: self.next_serial, ..Fates::default() };
        }
    }

    /// Finds a live serial by galloping back from the newest entry: the
    /// tokens presented are mostly recent grants, whose entries the grant
    /// just wrote, so the search touches few cold lines.
    fn live_index(&self, serial: u64) -> Result<usize, usize> {
        let mut hi = self.live.len();
        let mut step = 1;
        while hi > 0 {
            let lo = hi.saturating_sub(step);
            if self.live[lo].serial <= serial {
                let found = self.live[lo..hi].binary_search_by_key(&serial, |e| e.serial);
                return found.map(|i| lo + i).map_err(|i| lo + i);
            }
            hi = lo;
            step *= 2;
        }
        Err(0)
    }

    /// Moves live entry `i` to the fate store. The watermark stays a
    /// lower bound on what is left, so it needs no update.
    fn retire(&mut self, i: usize, cancelled: bool) {
        let e = self.live.remove(i);
        if !self.free_if_idle() {
            self.tally(&e, Held::minus);
        }
        self.fates.record(e.serial, cancelled);
    }

    /// An emptied live list frees its buffer, holds nothing and has
    /// nothing to lapse. Its held sums are reset rather than counted
    /// down, because an emptied `BTreeMap` keeps its root node. Returns
    /// whether the table is idle.
    fn free_if_idle(&mut self) -> bool {
        let idle = self.live.is_empty();
        if idle {
            self.live = Vec::new();
            self.held = Held::default();
            self.edges = BTreeMap::new();
            self.next_lapse = NEVER;
        }
        idle
    }

    /// Verifies a token without touching state.
    pub fn verify(&self, token: &ReservationToken) -> bool {
        self.minter.verify(token)
    }

    /// The host this table belongs to.
    pub fn host(&self) -> Loid {
        self.host
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_core::{LoidKind, ReservationType, SimDuration};

    fn table(cpu: u32, mem: u32) -> ReservationTable {
        ReservationTable::new(
            Loid::synthetic(LoidKind::Host, 1),
            0xBEEF,
            TableCapacity { cpu_centis: cpu, memory_mb: mem },
        )
    }

    fn req(rtype: ReservationType, cpu: u32, mem: u32) -> ReservationRequest {
        ReservationRequest::instantaneous(
            Loid::synthetic(LoidKind::Class, 1),
            Loid::synthetic(LoidKind::Vault, 1),
            SimDuration::from_secs(100),
        )
        .with_type(rtype)
        .with_demand(cpu, mem)
    }

    #[test]
    fn unshared_is_exclusive() {
        let mut t = table(400, 1024);
        let r = req(ReservationType::REUSABLE_SPACE, 100, 64);
        t.make(&r, SimTime::ZERO).unwrap();
        // Any second overlapping reservation is refused, shared or not.
        assert!(t.make(&req(ReservationType::ONE_SHOT_TIME, 100, 64), SimTime::ZERO).is_err());
        assert!(t.make(&req(ReservationType::ONE_SHOT_SPACE, 100, 64), SimTime::ZERO).is_err());
    }

    #[test]
    fn shared_multiplexes_until_capacity() {
        let mut t = table(400, 1024);
        let r = req(ReservationType::ONE_SHOT_TIME, 150, 256);
        t.make(&r, SimTime::ZERO).unwrap();
        t.make(&r, SimTime::ZERO).unwrap();
        // 300/400 centis held; a 150-centi request no longer fits.
        assert!(t.make(&r, SimTime::ZERO).is_err());
        // But a 100-centi one does.
        t.make(&req(ReservationType::ONE_SHOT_TIME, 100, 256), SimTime::ZERO).unwrap();
    }

    #[test]
    fn memory_is_also_admitted() {
        let mut t = table(400, 256);
        t.make(&req(ReservationType::ONE_SHOT_TIME, 50, 200), SimTime::ZERO).unwrap();
        assert!(t.make(&req(ReservationType::ONE_SHOT_TIME, 50, 100), SimTime::ZERO).is_err());
    }

    #[test]
    fn shared_after_unshared_conflicts() {
        let mut t = table(400, 1024);
        t.make(&req(ReservationType::ONE_SHOT_TIME, 100, 64), SimTime::ZERO).unwrap();
        // An exclusive request must fail while shared holders overlap.
        assert!(t.make(&req(ReservationType::REUSABLE_SPACE, 100, 64), SimTime::ZERO).is_err());
    }

    #[test]
    fn disjoint_windows_coexist() {
        let mut t = table(100, 128);
        let early = req(ReservationType::REUSABLE_SPACE, 100, 128)
            .starting_at(SimTime::from_secs(0));
        let late = req(ReservationType::REUSABLE_SPACE, 100, 128)
            .starting_at(SimTime::from_secs(100));
        t.make(&early, SimTime::ZERO).unwrap();
        t.make(&late, SimTime::ZERO).unwrap();
    }

    #[test]
    fn one_shot_consumed_once() {
        let mut t = table(400, 1024);
        let tok = t.make(&req(ReservationType::ONE_SHOT_TIME, 100, 64), SimTime::ZERO).unwrap();
        t.consume(&tok, SimTime::from_secs(1)).unwrap();
        assert!(matches!(
            t.consume(&tok, SimTime::from_secs(2)),
            Err(LegionError::ReservationConsumed)
        ));
        assert_eq!(
            t.check(&tok, SimTime::from_secs(2)).unwrap(),
            ReservationStatus::Consumed
        );
    }

    #[test]
    fn reusable_consumed_many_times() {
        let mut t = table(400, 1024);
        let tok = t.make(&req(ReservationType::REUSABLE_TIME, 100, 64), SimTime::ZERO).unwrap();
        for s in 1..5 {
            t.consume(&tok, SimTime::from_secs(s)).unwrap();
        }
        assert_eq!(t.check(&tok, SimTime::from_secs(5)).unwrap(), ReservationStatus::Active);
    }

    #[test]
    fn confirmation_timeout_expires() {
        let mut t = table(400, 1024);
        let mut r = req(ReservationType::ONE_SHOT_TIME, 100, 64);
        r.timeout = Some(SimDuration::from_secs(10));
        let tok = t.make(&r, SimTime::ZERO).unwrap();
        assert_eq!(t.check(&tok, SimTime::from_secs(5)).unwrap(), ReservationStatus::Active);
        // Past the timeout without confirmation: expired.
        assert_eq!(t.check(&tok, SimTime::from_secs(11)).unwrap(), ReservationStatus::Expired);
        assert!(matches!(
            t.consume(&tok, SimTime::from_secs(12)),
            Err(LegionError::ReservationExpired)
        ));
    }

    #[test]
    fn confirmation_within_timeout_sticks() {
        let mut t = table(400, 1024);
        let mut r = req(ReservationType::REUSABLE_TIME, 100, 64);
        r.timeout = Some(SimDuration::from_secs(10));
        let tok = t.make(&r, SimTime::ZERO).unwrap();
        t.consume(&tok, SimTime::from_secs(5)).unwrap();
        // The confirmation deadline no longer applies once confirmed.
        assert_eq!(t.check(&tok, SimTime::from_secs(50)).unwrap(), ReservationStatus::Active);
    }

    #[test]
    fn future_reservation_cannot_start_early() {
        let mut t = table(400, 1024);
        let r = req(ReservationType::REUSABLE_SPACE, 100, 64).starting_at(SimTime::from_secs(100));
        let tok = t.make(&r, SimTime::ZERO).unwrap();
        assert!(t.consume(&tok, SimTime::from_secs(50)).is_err());
        t.consume(&tok, SimTime::from_secs(100)).unwrap();
    }

    #[test]
    fn window_end_expires() {
        let mut t = table(400, 1024);
        let tok = t.make(&req(ReservationType::REUSABLE_TIME, 100, 64), SimTime::ZERO).unwrap();
        t.consume(&tok, SimTime::from_secs(1)).unwrap();
        assert!(matches!(
            t.consume(&tok, SimTime::from_secs(101)),
            Err(LegionError::ReservationExpired)
        ));
    }

    #[test]
    fn cancel_frees_capacity() {
        let mut t = table(100, 128);
        let tok = t.make(&req(ReservationType::REUSABLE_SPACE, 100, 128), SimTime::ZERO).unwrap();
        assert!(t.make(&req(ReservationType::ONE_SHOT_TIME, 50, 64), SimTime::ZERO).is_err());
        t.cancel(&tok).unwrap();
        t.make(&req(ReservationType::ONE_SHOT_TIME, 50, 64), SimTime::ZERO).unwrap();
    }

    #[test]
    fn forged_tokens_rejected_everywhere() {
        let mut t = table(400, 1024);
        let tok = t.make(&req(ReservationType::ONE_SHOT_TIME, 100, 64), SimTime::ZERO).unwrap();
        let mut forged = tok.clone();
        forged.cpu_centis = 1; // try to shrink the footprint
        assert!(matches!(t.check(&forged, SimTime::ZERO), Err(LegionError::InvalidToken)));
        assert!(matches!(t.consume(&forged, SimTime::ZERO), Err(LegionError::InvalidToken)));
        assert!(matches!(t.cancel(&forged), Err(LegionError::InvalidToken)));
        // The genuine token still works.
        t.consume(&tok, SimTime::ZERO).unwrap();
    }

    #[test]
    fn held_at_accounts_types() {
        let mut t = table(400, 1024);
        t.make(&req(ReservationType::ONE_SHOT_TIME, 150, 100), SimTime::ZERO).unwrap();
        t.make(&req(ReservationType::ONE_SHOT_TIME, 100, 100), SimTime::ZERO).unwrap();
        assert_eq!(t.held_at(SimTime::from_secs(1)), (250, 200));
        // After the windows close, nothing is held.
        t.sweep(SimTime::from_secs(200));
        assert_eq!(t.held_at(SimTime::from_secs(200)), (0, 0));
    }

    #[test]
    fn release_frees_early() {
        let mut t = table(100, 128);
        let tok = t.make(&req(ReservationType::REUSABLE_SPACE, 100, 128), SimTime::ZERO).unwrap();
        t.consume(&tok, SimTime::ZERO).unwrap();
        t.release(tok.serial);
        t.make(&req(ReservationType::ONE_SHOT_TIME, 50, 64), SimTime::from_secs(1)).unwrap();
    }

    #[test]
    fn confirmed_token_lapses_at_window_end_not_deadline() {
        let mut t = table(400, 1024);
        let mut r = req(ReservationType::ONE_SHOT_TIME, 100, 64);
        r.timeout = Some(SimDuration::from_secs(10));
        let tok = t.make(&r, SimTime::ZERO).unwrap();
        t.consume(&tok, SimTime::from_secs(5)).unwrap();
        // Past the confirmation deadline, but consumed: still held.
        assert!(t.sweep(SimTime::from_secs(20)).is_empty());
        assert_eq!(t.held_at(SimTime::from_secs(50)), (100, 64));
        // Past the window end: expired, and nothing held any more.
        assert_eq!(t.sweep(SimTime::from_secs(101)), vec![tok.serial]);
        assert_eq!(t.held_at(SimTime::from_secs(50)), (0, 0));
    }

    /// The admission verdict of a walk over `live`, with the table's
    /// refusal texts, for a request whose demand fits the machine.
    fn scan_verdict(
        live: &[ReservationToken],
        share: bool,
        (cpu, mem): (u32, u32),
        (start, end): (SimTime, SimTime),
    ) -> Result<(), String> {
        let (mut cpu_held, mut mem_held) = (0, 0);
        for tok in live.iter().filter(|tok| tok.start < end && start < tok.end()) {
            if !tok.rtype.share || !share {
                return Err("window conflicts with an exclusive reservation".into());
            }
            cpu_held += tok.cpu_centis;
            mem_held += tok.memory_mb;
        }
        if cpu_held + cpu > 400 || mem_held + mem > 1024 {
            return Err(format!(
                "insufficient shared capacity: {cpu_held}/400 cpu-centis, {mem_held}/1024 MB held"
            ));
        }
        Ok(())
    }

    /// What a walk over `live` finds held at `now`.
    fn scan_held_at(live: &[ReservationToken], now: SimTime) -> (u32, u32) {
        let covering: Vec<_> = live.iter().filter(|tok| tok.covers(now)).collect();
        if covering.iter().any(|tok| !tok.rtype.share) {
            return (400, 1024);
        }
        let cpu = covering.iter().map(|tok| tok.cpu_centis).sum();
        (cpu, covering.iter().map(|tok| tok.memory_mb).sum())
    }

    #[test]
    fn zero_length_windows_are_not_double_counted() {
        // An empty window [t, t) overlaps a window only when t lies
        // strictly inside it, and an empty request at t is in both of
        // the excluded sets of an empty entry at t. Windows here meet at
        // 100 s and 150 s, beside empty ones at those very instants.
        let mut t = table(400, 1024);
        let mut live: Vec<ReservationToken> = Vec::new();
        let requests = [
            (true, 50, 50),
            (true, 100, 50),
            (true, 100, 0),
            (false, 100, 0),
            (true, 100, 0),
            (false, 100, 0),
            (true, 80, 40),
            (true, 125, 0),
            (false, 150, 0),
            (true, 150, 0),
            (false, 150, 10),
            (true, 99, 2),
            (true, 0, 200),
            (false, 100, 0),
            (true, 140, 0),
            (true, 140, 0),
            (true, 130, 20),
        ];
        for (share, start, len) in requests {
            let mut r = req(ReservationType { share, reuse: false }, 150, 300)
                .starting_at(SimTime::from_secs(start));
            r.duration = SimDuration::from_secs(len);
            let demand = if share { (150, 300) } else { (400, 1024) };
            let window = (r.start.unwrap(), r.start.unwrap() + r.duration);
            let expected = scan_verdict(&live, share, demand, window);
            let got = t.make(&r, SimTime::ZERO);
            match &got {
                Ok(tok) => live.push(tok.clone()),
                Err(LegionError::ReservationDenied { reason, .. }) => {
                    assert_eq!(expected.as_ref().err(), Some(reason), "{share} [{start}, +{len})");
                }
                Err(e) => panic!("unexpected {e}"),
            }
            assert_eq!(got.is_ok(), expected.is_ok(), "{share} [{start}, +{len})");
            for probe in [0, 50, 99, 100, 101, 125, 140, 149, 150, 151, 160, 200] {
                let at = SimTime::from_secs(probe);
                assert_eq!(t.held_at(at), scan_held_at(&live, at), "held at {probe} s");
            }
        }
        // Every empty unshared request was admitted: nothing lay strictly
        // around its instant, and the empty entries beside it do not count.
        assert_eq!(live.iter().filter(|tok| !tok.rtype.share && tok.duration.0 == 0).count(), 4);
        assert_eq!(t.live_count(), live.len());
    }

    #[test]
    fn dead_serials_keep_their_fate() {
        let mut t = table(400, 1024);
        let r = req(ReservationType::ONE_SHOT_TIME, 10, 10);
        let early = t.make(&r, SimTime::ZERO).unwrap(); // window ends at 100 s
        let late = t.make(&r.clone().starting_at(SimTime::from_secs(200)), SimTime::ZERO).unwrap();
        t.cancel(&early).unwrap();
        assert_eq!(t.check(&early, SimTime::ZERO).unwrap(), ReservationStatus::Cancelled);
        t.release(late.serial);
        assert_eq!(t.check(&late, SimTime::ZERO).unwrap(), ReservationStatus::Expired);
        assert!(matches!(
            t.consume(&late, SimTime::from_secs(250)),
            Err(LegionError::ReservationExpired)
        ));
        // Cancelling a dead reservation re-fates it.
        t.cancel(&late).unwrap();
        assert_eq!(t.check(&late, SimTime::ZERO).unwrap(), ReservationStatus::Cancelled);

        // Dead entries far outnumbering the live ones are forgotten.
        for _ in 0..64 {
            let tok = t.make(&r, SimTime::ZERO).unwrap();
            t.release(tok.serial);
        }
        assert!(matches!(t.check(&late, SimTime::ZERO), Err(LegionError::InvalidToken)));
        assert_eq!(t.live_count(), 0);
    }

    /// Grants and releases short reservations until a grant compacts the
    /// table.
    fn churn_until_compacted(t: &mut ReservationTable, r: &ReservationRequest) {
        loop {
            let before = t.total_granted();
            let tok = t.make(r, SimTime::ZERO).unwrap();
            let compacted = t.total_granted() <= before;
            t.release(tok.serial);
            if compacted {
                return;
            }
        }
    }

    #[test]
    fn tokens_live_across_compactions_keep_their_fate() {
        let mut t = table(400, 1024);
        let r = req(ReservationType::ONE_SHOT_TIME, 10, 10);
        let held: Vec<_> = (0..3).map(|_| t.make(&r, SimTime::ZERO).unwrap()).collect();
        for _ in 0..2 {
            churn_until_compacted(&mut t, &r);
            for tok in &held {
                assert_eq!(t.check(tok, SimTime::ZERO).unwrap(), ReservationStatus::Active);
            }
        }
        // Minted before both compactions, so below the bitmap's base: they
        // die into the list of older serials.
        t.cancel(&held[0]).unwrap();
        t.release(held[1].serial);
        assert_eq!(t.expire_all(), 1);
        use ReservationStatus::{Cancelled, Expired};
        for (tok, fate) in held.iter().zip([Cancelled, Expired, Expired]) {
            assert_eq!(t.check(tok, SimTime::ZERO).unwrap(), fate);
            assert!(matches!(t.consume(tok, SimTime::ZERO), Err(LegionError::ReservationExpired)));
        }
        // Cancelling an older dead serial re-fates it too.
        t.cancel(&held[1]).unwrap();
        assert_eq!(t.check(&held[1], SimTime::ZERO).unwrap(), ReservationStatus::Cancelled);

        churn_until_compacted(&mut t, &r);
        for tok in &held {
            assert!(matches!(t.check(tok, SimTime::ZERO), Err(LegionError::InvalidToken)));
            assert!(matches!(t.consume(tok, SimTime::ZERO), Err(LegionError::InvalidToken)));
            assert!(matches!(t.cancel(tok), Err(LegionError::InvalidToken)));
        }
        assert_eq!(t.live_count(), 0);
    }
}
