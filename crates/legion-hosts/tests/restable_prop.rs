//! Model-based property tests for the reservation table.
//!
//! The table is the host's capacity ledger; its core invariant is that
//! the resources held by live reservations never exceed the machine
//! (Table 2 semantics). We drive it with random operation sequences and
//! check invariants after every step.

use legion_core::{
    LegionError, Loid, LoidKind, ReservationRequest, ReservationStatus, ReservationToken,
    ReservationType, SimDuration, SimTime, TokenMinter,
};
use legion_hosts::{ReservationTable, TableCapacity};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    /// Request (share, reuse, cpu, mem, start_slot, dur_slots).
    Make { share: bool, reuse: bool, cpu: u32, mem: u32, start: u64, dur: u64 },
    /// Consume the i-th granted token (mod #granted).
    Consume(usize),
    /// Cancel the i-th granted token.
    Cancel(usize),
    /// Advance time by one slot and sweep.
    Tick,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<bool>(), any::<bool>(), 1u32..200, 1u32..600, 0u64..6, 1u64..4).prop_map(
            |(share, reuse, cpu, mem, start, dur)| Op::Make {
                share,
                reuse,
                cpu,
                mem,
                start,
                dur
            }
        ),
        (0usize..16).prop_map(Op::Consume),
        (0usize..16).prop_map(Op::Cancel),
        Just(Op::Tick),
    ]
}

const CAP_CPU: u32 = 400;
const CAP_MEM: u32 = 1024;
const SLOT: u64 = 100; // seconds per time slot

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After any operation sequence, resources held at any probed time
    /// never exceed capacity, and exclusive windows are never shared.
    #[test]
    fn held_never_exceeds_capacity(ops in proptest::collection::vec(arb_op(), 1..60)) {
        let host = Loid::synthetic(LoidKind::Host, 1);
        let mut table = ReservationTable::new(
            host,
            7,
            TableCapacity { cpu_centis: CAP_CPU, memory_mb: CAP_MEM },
        );
        let mut now = SimTime::ZERO;
        let mut granted: Vec<ReservationToken> = Vec::new();

        for op in ops {
            match op {
                Op::Make { share, reuse, cpu, mem, start, dur } => {
                    let req = ReservationRequest::instantaneous(
                        Loid::synthetic(LoidKind::Class, 1),
                        Loid::synthetic(LoidKind::Vault, 1),
                        SimDuration::from_secs(dur * SLOT),
                    )
                    .with_type(ReservationType { share, reuse })
                    .with_demand(cpu, mem)
                    .starting_at(now + SimDuration::from_secs(start * SLOT));
                    match table.make(&req, now) {
                        Ok(tok) => granted.push(tok),
                        Err(LegionError::ReservationDenied { .. }) => {}
                        Err(e) => prop_assert!(false, "unexpected error {e}"),
                    }
                }
                Op::Consume(i) if !granted.is_empty() => {
                    let tok = granted[i % granted.len()].clone();
                    // Any outcome is legal; state machine errors are typed.
                    match table.consume(&tok, now) {
                        Ok(())
                        | Err(LegionError::ReservationConsumed)
                        | Err(LegionError::ReservationExpired)
                        | Err(LegionError::ReservationDenied { .. }) => {}
                        Err(e) => prop_assert!(false, "unexpected consume error {e}"),
                    }
                }
                Op::Cancel(i) if !granted.is_empty() => {
                    let tok = granted[i % granted.len()].clone();
                    table.cancel(&tok).expect("genuine tokens always cancellable");
                }
                Op::Consume(_) | Op::Cancel(_) => {}
                Op::Tick => {
                    now += SimDuration::from_secs(SLOT);
                    table.sweep(now);
                }
            }

            // Invariant: capacity respected at a spread of probe times.
            for probe in 0..10u64 {
                let t = SimTime::from_secs(probe * SLOT);
                let (cpu, mem) = table.held_at(t);
                prop_assert!(cpu <= CAP_CPU, "cpu {cpu} over capacity at {t}");
                prop_assert!(mem <= CAP_MEM, "mem {mem} over capacity at {t}");
            }
        }
    }

    /// A granted token always verifies; a token from another table never
    /// does.
    #[test]
    fn token_provenance(seed_a in any::<u64>(), seed_b in any::<u64>()) {
        prop_assume!(seed_a != seed_b);
        let host = Loid::synthetic(LoidKind::Host, 1);
        let cap = TableCapacity { cpu_centis: 100, memory_mb: 100 };
        let mut a = ReservationTable::new(host, seed_a, cap);
        let b = ReservationTable::new(host, seed_b, cap);
        let req = ReservationRequest::instantaneous(
            Loid::synthetic(LoidKind::Class, 1),
            Loid::synthetic(LoidKind::Vault, 1),
            SimDuration::from_secs(10),
        )
        .with_demand(10, 10);
        let tok = a.make(&req, SimTime::ZERO).unwrap();
        prop_assert!(a.verify(&tok));
        prop_assert!(!b.verify(&tok));
    }

    /// Disjoint exclusive windows all admit; overlapping ones admit at
    /// most one per window.
    #[test]
    fn exclusive_windows_partition(slots in proptest::collection::vec(0u64..8, 1..12)) {
        let host = Loid::synthetic(LoidKind::Host, 1);
        let mut table = ReservationTable::new(
            host,
            3,
            TableCapacity { cpu_centis: 100, memory_mb: 100 },
        );
        let mut per_slot = std::collections::BTreeMap::new();
        for &s in &slots {
            let req = ReservationRequest::instantaneous(
                Loid::synthetic(LoidKind::Class, 1),
                Loid::synthetic(LoidKind::Vault, 1),
                SimDuration::from_secs(SLOT),
            )
            .with_type(ReservationType::REUSABLE_SPACE)
            .starting_at(SimTime::from_secs(s * SLOT));
            let granted = table.make(&req, SimTime::ZERO).is_ok();
            let count = per_slot.entry(s).or_insert(0u32);
            if granted {
                *count += 1;
            }
            prop_assert!(*count <= 1, "slot {s} admitted {count} exclusives");
        }
        // Every slot admitted exactly one.
        for (s, c) in per_slot {
            prop_assert_eq!(c, 1, "slot {} should have exactly one holder", s);
        }
    }

    /// The table answers every call exactly as the reference table
    /// does: same tokens, statuses, errors, expiries and holdings, and
    /// the same number of entries remembered.
    #[test]
    fn agrees_with_reference_table(steps in proptest::collection::vec(arb_step(), 1..600)) {
        agree_with_reference(steps)?;
    }
}

proptest! {
    // Each case makes 200 or more grants before its random steps, and the
    // reference walks all of them at every probe.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The same agreement under a wider generator: each run first grants
    /// 200 or more long zero-demand shared windows, then mixes empty
    /// windows, zero demand and demand near capacity, so refusals that
    /// print the held sums are common.
    #[test]
    fn agrees_with_reference_table_on_wide_windows(
        fillers in proptest::collection::vec(arb_filler(), 200..260),
        steps in proptest::collection::vec(arb_wide_step(), 1..300),
    ) {
        agree_with_reference(fillers.into_iter().chain(steps).collect())?;
    }
}

/// Drives the table and the reference table with `steps` and requires
/// the same answer to every call: same tokens, statuses, errors, expiries
/// and holdings, and the same number of entries remembered.
fn agree_with_reference(steps: Vec<Step>) -> Result<(), TestCaseError> {
    let host = Loid::synthetic(LoidKind::Host, 1);
    let cap = TableCapacity { cpu_centis: CAP_CPU, memory_mb: CAP_MEM };
    let mut table = ReservationTable::new(host, 11, cap);
    let mut reference = ReferenceTable::new(host, 11, cap);
    let mut now = SimTime::ZERO;
    let mut granted: Vec<ReservationToken> = Vec::new();
    // The i-th most recent grant (mod #granted).
    let pick = |granted: &[ReservationToken], i: usize| {
        granted[granted.len() - 1 - i % granted.len()].clone()
    };

    for step in steps {
        match step {
            Step::Fill { count, dur } => {
                // Long zero-demand shared windows, granted at once as the
                // testbed preloads them: every later lookup, retire and
                // sweep runs over hundreds of live entries.
                let req = ReservationRequest::instantaneous(
                    Loid::synthetic(LoidKind::Class, 1),
                    Loid::synthetic(LoidKind::Vault, 1),
                    SimDuration::from_secs(dur * TICK),
                )
                .with_demand(0, 0)
                .starting_at(now);
                for _ in 0..count {
                    let got = table.make(&req, now);
                    prop_assert_eq!(&got, &reference.make(&req, now), "fill at {}", now);
                    granted.extend(got);
                }
            }
            Step::Make { share, reuse, cpu, mem, start, dur, timeout } => {
                let mut req = ReservationRequest::instantaneous(
                    Loid::synthetic(LoidKind::Class, 1),
                    Loid::synthetic(LoidKind::Vault, 1),
                    SimDuration::from_secs(dur * TICK),
                )
                .with_type(ReservationType { share, reuse })
                .with_demand(cpu, mem);
                req.timeout = (timeout > 0).then(|| SimDuration::from_secs(timeout * TICK));
                if start > 0 {
                    req = req.starting_at(now + SimDuration::from_secs(start * TICK));
                }
                let got = table.make(&req, now);
                prop_assert_eq!(&got, &reference.make(&req, now), "make at {}", now);
                granted.extend(got);
            }
            Step::Consume(i) if !granted.is_empty() => {
                let tok = pick(&granted, i);
                prop_assert_eq!(table.consume(&tok, now), reference.consume(&tok, now));
            }
            Step::Cancel(i) if !granted.is_empty() => {
                let tok = pick(&granted, i);
                prop_assert_eq!(table.cancel(&tok), reference.cancel(&tok));
            }
            Step::Check(i) if !granted.is_empty() => {
                let tok = pick(&granted, i);
                prop_assert_eq!(table.check(&tok, now), reference.check(&tok, now));
            }
            Step::Release(i) if !granted.is_empty() => {
                let serial = pick(&granted, i).serial;
                table.release(serial);
                reference.release(serial);
            }
            Step::Consume(_) | Step::Cancel(_) | Step::Check(_) | Step::Release(_) => {}
            Step::ExpireAll => prop_assert_eq!(table.expire_all(), reference.expire_all()),
            Step::Sweep => {
                let expired: Vec<u64> = reference.sweep(now).iter().map(|t| t.serial).collect();
                prop_assert_eq!(table.sweep(now), expired);
            }
            Step::Advance(secs) => now += SimDuration::from_secs(secs),
        }

        prop_assert_eq!(table.live_count(), reference.live_count(), "live at {}", now);
        prop_assert_eq!(table.total_granted(), reference.total_granted(), "total at {}", now);
        let first_probe = SimTime(now.0.saturating_sub(2 * TICK * 1_000_000));
        for k in 0..12u64 {
            let t = first_probe + SimDuration::from_secs(k * TICK);
            prop_assert_eq!(table.held_at(t), reference.held_at(t), "held at {}", t);
        }
    }
    Ok(())
}

/// Seconds per unit of window and deadline in [`Step`].
const TICK: u64 = 10;

#[derive(Debug, Clone)]
enum Step {
    /// Request a reservation; `start`/`timeout` of 0 mean "now"/"none",
    /// so instantaneous tokens with short deadlines are common.
    Make { share: bool, reuse: bool, cpu: u32, mem: u32, start: u64, dur: u64, timeout: u64 },
    /// Present the i-th most recent grant (mod #granted) to one call.
    Consume(usize),
    Cancel(usize),
    Check(usize),
    Release(usize),
    ExpireAll,
    Sweep,
    /// Advance the clock by this many seconds.
    Advance(u64),
    /// Grant `count` zero-demand shared reservations of `dur` ticks at
    /// once.
    Fill { count: usize, dur: u64 },
}

fn arb_step() -> impl Strategy<Value = Step> {
    let make = (
        // Mostly shared, so grants are not all refused by one exclusive.
        (0u8..4).prop_map(|n| n > 0),
        any::<bool>(),
        1u32..40,
        1u32..100,
        0u64..4,
        1u64..12,
        0u64..4,
    )
        .prop_map(|(share, reuse, cpu, mem, start, dur, timeout)| Step::Make {
            share,
            reuse,
            cpu,
            mem,
            start,
            dur,
            timeout,
        });
    prop_oneof![
        make.clone(),
        make.clone(),
        make.clone(),
        make,
        (0usize..64).prop_map(Step::Consume),
        (0usize..64).prop_map(Step::Consume),
        (0usize..64).prop_map(Step::Cancel),
        (0usize..64).prop_map(Step::Check),
        (0usize..64).prop_map(Step::Release),
        (1u64..25).prop_map(Step::Advance),
        (1u64..25).prop_map(Step::Advance),
        // Crashes and fills are rare, so dead entries pile up past the
        // autocompaction threshold. A fill's windows are long beside the
        // clock's advances, but some lapse within a run, so one sweep
        // (a step's own, or the one each call makes first) expires
        // hundreds.
        (0u8..32, 64usize..301, 10u64..200).prop_map(|(n, count, dur)| match n {
            0 | 1 => Step::ExpireAll,
            2 => Step::Fill { count, dur },
            _ => Step::Sweep,
        }),
    ]
}

/// A long zero-demand shared window, the kind a busy host carries by
/// the hundred: it never refuses another shared request.
fn arb_filler() -> impl Strategy<Value = Step> {
    (any::<bool>(), 0u64..3, 1_000u64..2_000).prop_map(|(reuse, start, dur)| Step::Make {
        share: true,
        reuse,
        cpu: 0,
        mem: 0,
        start,
        dur,
        timeout: 0,
    })
}

/// `arb_step` with requests that may be empty (`dur = 0`), ask for
/// nothing, or ask for most of the machine.
fn arb_wide_step() -> impl Strategy<Value = Step> {
    let make = (
        (0u8..4).prop_map(|n| n > 0),
        any::<bool>(),
        prop_oneof![Just(0u32), 1u32..CAP_CPU, (CAP_CPU * 3 / 4)..CAP_CPU + 1],
        prop_oneof![Just(0u32), 1u32..CAP_MEM, (CAP_MEM * 3 / 4)..CAP_MEM + 1],
        0u64..4,
        0u64..12,
        0u64..4,
    )
        .prop_map(|(share, reuse, cpu, mem, start, dur, timeout)| Step::Make {
            share,
            reuse,
            cpu,
            mem,
            start,
            dur,
            timeout,
        });
    prop_oneof![make.clone(), make, arb_step()]
}

/// The reservation table as one map of every remembered token and its
/// state, kept as the reference the table's answers are checked
/// against. Same admission, sweep and autocompaction rules.
struct ReferenceTable {
    host: Loid,
    capacity: TableCapacity,
    minter: TokenMinter,
    entries: BTreeMap<u64, (ReservationToken, RefState)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RefState {
    Pending,
    Confirmed,
    Consumed,
    Cancelled,
    Expired,
}

impl RefState {
    fn holds(self) -> bool {
        matches!(self, RefState::Pending | RefState::Confirmed | RefState::Consumed)
    }
}

impl ReferenceTable {
    fn new(host: Loid, secret: u64, capacity: TableCapacity) -> Self {
        let minter = TokenMinter::new(host, secret);
        ReferenceTable { host, capacity, minter, entries: BTreeMap::new() }
    }

    fn make(
        &mut self,
        req: &ReservationRequest,
        now: SimTime,
    ) -> Result<ReservationToken, LegionError> {
        self.sweep(now);
        if self.entries.len() >= 64 && self.entries.len() > 4 * self.live_count().max(1) {
            self.entries.retain(|_, (_, s)| s.holds());
        }
        let start = req.start.unwrap_or(now);
        let end = start + req.duration;
        let (cpu, mem) = if req.rtype.share {
            (req.cpu_centis, req.memory_mb)
        } else {
            (self.capacity.cpu_centis, self.capacity.memory_mb)
        };
        let deny = |reason: String| Err(LegionError::ReservationDenied { host: self.host, reason });
        if cpu > self.capacity.cpu_centis || mem > self.capacity.memory_mb {
            return deny(format!(
                "demand ({cpu} cpu-centis, {mem} MB) exceeds capacity ({}, {})",
                self.capacity.cpu_centis, self.capacity.memory_mb
            ));
        }
        let (mut cpu_held, mut mem_held) = (0u64, 0u64);
        for (t, s) in self.entries.values() {
            if s.holds() && t.start < end && start < t.end() {
                if !t.rtype.share || !req.rtype.share {
                    return deny("window conflicts with an exclusive reservation".into());
                }
                cpu_held += t.cpu_centis as u64;
                mem_held += t.memory_mb as u64;
            }
        }
        if cpu_held + cpu as u64 > self.capacity.cpu_centis as u64
            || mem_held + mem as u64 > self.capacity.memory_mb as u64
        {
            return deny(format!(
                "insufficient shared capacity: {cpu_held}/{} cpu-centis, {mem_held}/{} MB held",
                self.capacity.cpu_centis, self.capacity.memory_mb
            ));
        }
        let confirm_by = match (req.start, req.timeout) {
            (None, Some(t)) => Some(now + t),
            _ => None,
        };
        let token = self.minter.mint(req, start, confirm_by);
        self.entries.insert(token.serial, (token.clone(), RefState::Pending));
        Ok(token)
    }

    fn check(
        &mut self,
        token: &ReservationToken,
        now: SimTime,
    ) -> Result<ReservationStatus, LegionError> {
        if !self.minter.verify(token) {
            return Err(LegionError::InvalidToken);
        }
        self.sweep(now);
        let (t, s) = self.entries.get(&token.serial).ok_or(LegionError::InvalidToken)?;
        Ok(match s {
            RefState::Pending if t.covers(now) => ReservationStatus::Active,
            RefState::Pending => ReservationStatus::Pending,
            RefState::Confirmed => ReservationStatus::Active,
            RefState::Consumed => ReservationStatus::Consumed,
            RefState::Cancelled => ReservationStatus::Cancelled,
            RefState::Expired => ReservationStatus::Expired,
        })
    }

    fn consume(&mut self, token: &ReservationToken, now: SimTime) -> Result<(), LegionError> {
        if !self.minter.verify(token) {
            return Err(LegionError::InvalidToken);
        }
        self.sweep(now);
        let (t, s) = self.entries.get_mut(&token.serial).ok_or(LegionError::InvalidToken)?;
        match s {
            RefState::Consumed => return Err(LegionError::ReservationConsumed),
            RefState::Cancelled | RefState::Expired => return Err(LegionError::ReservationExpired),
            RefState::Pending | RefState::Confirmed => {}
        }
        if now < t.start {
            return Err(LegionError::ReservationDenied {
                host: t.host,
                reason: format!("service window opens at {}", t.start),
            });
        }
        if now >= t.end() {
            *s = RefState::Expired;
            return Err(LegionError::ReservationExpired);
        }
        *s = if t.rtype.reuse { RefState::Confirmed } else { RefState::Consumed };
        Ok(())
    }

    fn cancel(&mut self, token: &ReservationToken) -> Result<(), LegionError> {
        if !self.minter.verify(token) {
            return Err(LegionError::InvalidToken);
        }
        let (_, s) = self.entries.get_mut(&token.serial).ok_or(LegionError::InvalidToken)?;
        *s = RefState::Cancelled;
        Ok(())
    }

    fn release(&mut self, serial: u64) {
        if let Some((_, s)) = self.entries.get_mut(&serial) {
            if s.holds() {
                *s = RefState::Expired;
            }
        }
    }

    fn expire_all(&mut self) -> usize {
        let mut n = 0;
        for (_, s) in self.entries.values_mut().filter(|(_, s)| s.holds()) {
            *s = RefState::Expired;
            n += 1;
        }
        n
    }

    fn sweep(&mut self, now: SimTime) -> Vec<ReservationToken> {
        let mut expired = Vec::new();
        for (t, s) in self.entries.values_mut() {
            let lapsed_confirmation =
                *s == RefState::Pending && t.confirm_by.is_some_and(|d| now >= d);
            if lapsed_confirmation || (s.holds() && now >= t.end()) {
                *s = RefState::Expired;
                expired.push(t.clone());
            }
        }
        expired
    }

    fn held_at(&self, now: SimTime) -> (u32, u32) {
        let (mut cpu, mut mem) = (0u32, 0u32);
        for (t, _) in self.entries.values().filter(|(t, s)| s.holds() && t.covers(now)) {
            if t.rtype.share {
                cpu += t.cpu_centis;
                mem += t.memory_mb;
            } else {
                cpu = self.capacity.cpu_centis;
                mem = self.capacity.memory_mb;
            }
        }
        (cpu.min(self.capacity.cpu_centis), mem.min(self.capacity.memory_mb))
    }

    fn live_count(&self) -> usize {
        self.entries.values().filter(|(_, s)| s.holds()).count()
    }

    fn total_granted(&self) -> usize {
        self.entries.len()
    }
}
