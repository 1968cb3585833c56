//! Legion Object IDentifiers.
//!
//! Every Legion object has a location-independent name. A [`Loid`] here
//! carries the kind of object it names (class, host, vault, instance or
//! service object), a sequence number drawn from a global allocator, and
//! a random disambiguator so identifiers from different testbeds do not
//! collide.

use crate::hash::mix64;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// The kind of object a [`Loid`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum LoidKind {
    /// A class object (e.g. `LegionClass`, `HostClass`, a user class).
    Class,
    /// A Host object — guardian of a machine's capabilities.
    Host,
    /// A Vault object — persistent storage for OPRs.
    Vault,
    /// An instance of a user class (a running object).
    Instance,
    /// A service object (Collection, Enactor, Scheduler, Monitor...).
    Service,
}

impl LoidKind {
    fn code(self) -> &'static str {
        match self {
            LoidKind::Class => "01",
            LoidKind::Host => "02",
            LoidKind::Vault => "03",
            LoidKind::Instance => "04",
            LoidKind::Service => "05",
        }
    }
}

/// A Legion Object IDentifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Loid {
    /// What kind of object this names.
    pub kind: LoidKind,
    /// Monotonic sequence number (unique within a process).
    pub seq: u64,
    /// Random disambiguator.
    pub nonce: u64,
}

static NEXT_SEQ: AtomicU64 = AtomicU64::new(1);

/// Serialises replay-sensitive test runs against each other.
///
/// [`Loid::fresh`] draws from a process-wide counter — the one piece of
/// global state that leaks into trace exports (LOID strings appear in
/// episode roots and span attributes). Tests that compare two runs
/// byte-for-byte must hold a [`ReplayGuard`] so concurrent tests cannot
/// interleave allocations, and must [`ReplayGuard::rebase`] the counter
/// to the same lane before each run.
static REPLAY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Exclusive license to manipulate the global LOID sequence counter.
///
/// Obtained from [`Loid::replay_guard`]; test harness use only. While a
/// guard is held, no other thread holding (or waiting for) a guard can
/// allocate interleaved sequence numbers.
pub struct ReplayGuard {
    _lock: std::sync::MutexGuard<'static, ()>,
}

impl ReplayGuard {
    /// Moves the global sequence counter to `base`, so a replayed run
    /// allocates the same LOIDs as its reference run.
    ///
    /// Pick a lane far above anything organic (e.g. `1 << 40`) so the
    /// rebase cannot collide with identifiers allocated by other tests
    /// before the guard was taken.
    pub fn rebase(&self, base: u64) {
        NEXT_SEQ.store(base, Ordering::SeqCst);
    }

    /// The next sequence number the allocator will hand out.
    pub fn next_seq(&self) -> u64 {
        NEXT_SEQ.load(Ordering::SeqCst)
    }
}

impl Loid {
    /// Allocates a fresh identifier of the given kind.
    ///
    /// Sequence numbers come from a process-wide counter; the nonce is a
    /// mix of the sequence number so identifiers are deterministic within
    /// a run but structurally unguessable across runs of the real system.
    pub fn fresh(kind: LoidKind) -> Self {
        let seq = NEXT_SEQ.fetch_add(1, Ordering::Relaxed);
        Loid { kind, seq, nonce: mix64(seq ^ 0x4C45_4749_4F4E_0001) }
    }

    /// Builds a deterministic identifier, for testbed construction.
    pub fn synthetic(kind: LoidKind, seq: u64) -> Self {
        Loid { kind, seq, nonce: mix64(seq) }
    }

    /// Takes the process-wide replay lock (test harness only).
    ///
    /// Byte-identical replay tests rebase the global sequence counter
    /// through the returned guard; holding it keeps unrelated tests from
    /// interleaving allocations into the replayed lane. See
    /// [`ReplayGuard`].
    pub fn replay_guard() -> ReplayGuard {
        ReplayGuard {
            _lock: REPLAY_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner()),
        }
    }

    /// The nil identifier (names nothing).
    pub const NIL: Loid = Loid { kind: LoidKind::Service, seq: 0, nonce: 0 };

    /// Whether this is the nil identifier.
    pub fn is_nil(&self) -> bool {
        self.seq == 0 && self.nonce == 0
    }

    /// A stable 64-bit digest of the identifier (for keyed tags).
    pub fn digest(&self) -> u64 {
        mix64(self.seq ^ self.nonce.rotate_left(23) ^ (self.kind as u64) << 56)
    }
}

impl fmt::Display for Loid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Rendered in the dotted style of Legion LOIDs: 1.<type>.<seq>.<nonce>
        write!(f, "1.{}.{:x}.{:016x}", self.kind.code(), self.seq, self.nonce)
    }
}

impl std::str::FromStr for Loid {
    type Err = String;

    /// Parses the dotted rendering produced by `Display`, so identifiers
    /// can round-trip through attribute databases and Collection records.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split('.');
        let (Some(one), Some(code), Some(seq), Some(nonce), None) =
            (parts.next(), parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(format!("malformed LOID `{s}`"));
        };
        if one != "1" {
            return Err(format!("unsupported LOID version in `{s}`"));
        }
        let kind = match code {
            "01" => LoidKind::Class,
            "02" => LoidKind::Host,
            "03" => LoidKind::Vault,
            "04" => LoidKind::Instance,
            "05" => LoidKind::Service,
            other => return Err(format!("unknown LOID kind `{other}`")),
        };
        let seq = u64::from_str_radix(seq, 16).map_err(|e| format!("bad seq: {e}"))?;
        let nonce = u64::from_str_radix(nonce, 16).map_err(|e| format!("bad nonce: {e}"))?;
        Ok(Loid { kind, seq, nonce })
    }
}

impl fmt::Debug for Loid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn fresh_ids_are_unique() {
        let ids: HashSet<Loid> = (0..1000).map(|_| Loid::fresh(LoidKind::Instance)).collect();
        assert_eq!(ids.len(), 1000);
    }

    #[test]
    fn synthetic_is_deterministic() {
        assert_eq!(Loid::synthetic(LoidKind::Host, 7), Loid::synthetic(LoidKind::Host, 7));
        assert_ne!(Loid::synthetic(LoidKind::Host, 7), Loid::synthetic(LoidKind::Host, 8));
    }

    #[test]
    fn nil_detects() {
        assert!(Loid::NIL.is_nil());
        assert!(!Loid::fresh(LoidKind::Class).is_nil());
    }

    #[test]
    fn malformed_text_keeps_its_error() {
        let parse = |s: &str| s.parse::<Loid>().unwrap_err();
        assert_eq!(parse("1.02.ff"), "malformed LOID `1.02.ff`");
        assert_eq!(parse("1.02.ff.0.0"), "malformed LOID `1.02.ff.0.0`");
        assert_eq!(parse("2.02.ff.0"), "unsupported LOID version in `2.02.ff.0`");
        assert_eq!(parse("1.09.ff.0"), "unknown LOID kind `09`");
        assert_eq!(parse("1.02.fg.0"), "bad seq: invalid digit found in string");
        assert_eq!(parse("1.02.ff."), "bad nonce: cannot parse integer from empty string");
        let l = Loid::synthetic(LoidKind::Vault, 42);
        assert_eq!(l.to_string().parse::<Loid>(), Ok(l));
    }

    #[test]
    fn display_format_is_dotted() {
        let l = Loid::synthetic(LoidKind::Host, 255);
        let s = l.to_string();
        assert!(s.starts_with("1.02.ff."), "{s}");
    }

    #[test]
    fn display_parse_roundtrip() {
        for kind in [
            LoidKind::Class,
            LoidKind::Host,
            LoidKind::Vault,
            LoidKind::Instance,
            LoidKind::Service,
        ] {
            let l = Loid::fresh(kind);
            let parsed: Loid = l.to_string().parse().unwrap();
            assert_eq!(parsed, l);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<Loid>().is_err());
        assert!("2.02.1.1".parse::<Loid>().is_err());
        assert!("1.99.1.1".parse::<Loid>().is_err());
        assert!("1.02.zz.1".parse::<Loid>().is_err());
        assert!("1.02.1".parse::<Loid>().is_err());
    }

    #[test]
    fn digest_differs_by_kind() {
        let a = Loid { kind: LoidKind::Host, seq: 1, nonce: 2 };
        let b = Loid { kind: LoidKind::Vault, seq: 1, nonce: 2 };
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn serde_roundtrip() {
        let l = Loid::fresh(LoidKind::Vault);
        let json = serde_json_like(&l);
        assert!(json.contains("Vault"));
    }

    // Tiny stand-in so we don't need serde_json: the derives are what we
    // care about; format details are checked with the debug representation.
    fn serde_json_like(l: &Loid) -> String {
        format!("{:?} {:?}", l.kind, l)
    }
}
