//! Property-based tests on core data structures.

use legion_core::{
    AttrValue, AttributeDb, Loid, LoidKind, ReservationRequest, ReservationType, SimDuration,
    SimTime, TokenMinter,
};
use proptest::prelude::*;
use std::cmp::Ordering;

fn arb_kind() -> impl Strategy<Value = LoidKind> {
    prop_oneof![
        Just(LoidKind::Class),
        Just(LoidKind::Host),
        Just(LoidKind::Vault),
        Just(LoidKind::Instance),
        Just(LoidKind::Service),
    ]
}

fn arb_loid() -> impl Strategy<Value = Loid> {
    (arb_kind(), 1u64..u64::MAX, any::<u64>())
        .prop_map(|(kind, seq, nonce)| Loid { kind, seq, nonce })
}

fn arb_scalar() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        any::<i64>().prop_map(AttrValue::Int),
        (-1e12f64..1e12).prop_map(AttrValue::Float),
        "[a-zA-Z0-9_.]{0,12}".prop_map(AttrValue::from),
        any::<bool>().prop_map(AttrValue::Bool),
    ]
}

proptest! {
    /// Display → parse is the identity on LOIDs.
    #[test]
    fn loid_display_parse_roundtrip(l in arb_loid()) {
        let parsed: Loid = l.to_string().parse().unwrap();
        prop_assert_eq!(parsed, l);
    }

    /// Digests are stable and kind-sensitive.
    #[test]
    fn loid_digest_stable(l in arb_loid()) {
        prop_assert_eq!(l.digest(), l.digest());
    }

    /// Semantic comparison is reflexive-equal for every scalar except
    /// non-finite floats (which we never construct).
    #[test]
    fn attr_cmp_reflexive(v in arb_scalar()) {
        prop_assert_eq!(v.semantic_cmp(&v), Some(Ordering::Equal));
    }

    /// Semantic comparison is antisymmetric: cmp(a,b) reverses cmp(b,a).
    #[test]
    fn attr_cmp_antisymmetric(a in arb_scalar(), b in arb_scalar()) {
        match (a.semantic_cmp(&b), b.semantic_cmp(&a)) {
            (Some(x), Some(y)) => prop_assert_eq!(x, y.reverse()),
            (None, None) => {}
            (x, y) => prop_assert!(false, "asymmetric comparability: {:?} vs {:?}", x, y),
        }
    }

    /// Int/Float coercion agrees with direct float comparison.
    #[test]
    fn attr_cmp_numeric_coercion(i in -1_000_000i64..1_000_000, f in -1e6f64..1e6) {
        let got = AttrValue::Int(i).semantic_cmp(&AttrValue::Float(f));
        prop_assert_eq!(got, (i as f64).partial_cmp(&f));
    }

    /// merge_from is idempotent and right-biased.
    #[test]
    fn attrdb_merge_right_biased(
        keys in proptest::collection::vec("[a-c]{1}", 0..6),
        vals in proptest::collection::vec(any::<i64>(), 0..6),
    ) {
        let mut left = AttributeDb::new().with("x", 1i64);
        let mut right = AttributeDb::new();
        for (k, v) in keys.iter().zip(&vals) {
            right.set(k.clone(), *v);
        }
        left.merge_from(&right);
        let once = left.clone();
        left.merge_from(&right);
        prop_assert_eq!(&left, &once, "idempotent");
        for (k, _) in right.iter() {
            prop_assert_eq!(left.get(k), right.get(k), "right side wins");
        }
    }

    /// Any single-field mutation of a reservation token invalidates it.
    #[test]
    fn token_tamper_always_detected(
        secret in any::<u64>(),
        which in 0usize..8,
        delta in 1u64..1000,
    ) {
        let host = Loid::synthetic(LoidKind::Host, 1);
        let vault = Loid::synthetic(LoidKind::Vault, 2);
        let class = Loid::synthetic(LoidKind::Class, 3);
        let mut minter = TokenMinter::new(host, secret);
        let req = ReservationRequest::instantaneous(class, vault, SimDuration::from_secs(60));
        let tok = minter.mint(&req, SimTime::ZERO, Some(SimTime::from_secs(30)));
        prop_assert!(minter.verify(&tok));

        let mut forged = tok.clone();
        match which {
            0 => forged.serial = forged.serial.wrapping_add(delta),
            1 => forged.vault = Loid::synthetic(LoidKind::Vault, 2 + delta),
            2 => forged.class = Loid::synthetic(LoidKind::Class, 3 + delta),
            3 => forged.start += SimDuration::from_micros(delta),
            4 => forged.duration += SimDuration::from_micros(delta),
            5 => forged.cpu_centis = forged.cpu_centis.wrapping_add(delta as u32),
            6 => forged.memory_mb = forged.memory_mb.wrapping_add(delta as u32),
            _ => {
                forged.rtype = ReservationType {
                    share: !forged.rtype.share,
                    reuse: forged.rtype.reuse,
                }
            }
        }
        prop_assert!(!minter.verify(&forged), "mutation {which} must invalidate the tag");
    }

    /// Time arithmetic: (t + d) - t == d and ordering is consistent.
    #[test]
    fn time_arithmetic(t in 0u64..1u64 << 40, d in 0u64..1u64 << 30) {
        let t = SimTime(t);
        let d = SimDuration(d);
        prop_assert_eq!((t + d) - t, d);
        prop_assert!(t + d >= t);
        prop_assert_eq!(t.since(t + d), SimDuration::ZERO);
    }

    /// Reservation window cover matches interval semantics.
    #[test]
    fn token_window_cover(start in 0u64..1u64 << 30, dur in 1u64..1u64 << 20, probe in 0u64..1u64 << 31) {
        let host = Loid::synthetic(LoidKind::Host, 1);
        let mut minter = TokenMinter::new(host, 9);
        let req = ReservationRequest::instantaneous(
            Loid::synthetic(LoidKind::Class, 1),
            Loid::synthetic(LoidKind::Vault, 1),
            SimDuration(dur),
        )
        .starting_at(SimTime(start));
        let tok = minter.mint(&req, SimTime(start), None);
        let inside = probe >= start && probe < start + dur;
        prop_assert_eq!(tok.covers(SimTime(probe)), inside);
    }
}
