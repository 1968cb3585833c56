//! The Legion Collection — the RMI's information database.
//!
//! "The Collection acts as a repository for information describing the
//! state of the resources comprising the system. Each record is stored as
//! a set of Legion object attributes." (§3.2, Fig. 4)
//!
//! * [`Collection`] implements the Fig. 4 interface — `JoinCollection`
//!   (with optional initial attributes), `LeaveCollection`,
//!   `UpdateCollectionEntry` (the push model) and `QueryCollection` —
//!   with keyed-credential authentication of updaters ("The security
//!   facilities of Legion authenticate the caller").
//! * [`parse_query`] and [`Query`] implement the query grammar of the
//!   MESSIAHS work the paper cites: field matching, semantic
//!   comparisons, boolean combinations, and `match(regex, $attr)` over
//!   the in-repo regex engine.
//! * [`DataCollectionDaemon`] is the paper's "intermediate agent ...
//!   which pulls data from Hosts and pushes it into Collections"
//!   (§3.1 footnote). It feeds every Collection registered with it, so
//!   one Collection per administrative domain realizes the paper's
//!   plural "known Collection(s)".
//! * Queries run on an indexed engine: secondary per-attribute indexes
//!   (string, sorted trigram postings, numeric, presence) kept current
//!   on every membership change, and a planner that extracts indexable
//!   conjuncts (string equality, numeric ranges, `exists()`, and regex
//!   `match()` via prefix, trigram, and leading-char-class narrowing)
//!   so selective queries intersect sorted candidate lists instead of
//!   touching every record. Plans that are provably *exact* skip
//!   residual re-evaluation entirely; inexact plans re-evaluate the
//!   complete query per candidate, so results are always identical to
//!   [`Collection::query_scan`]. Records and indexes share one store
//!   under one lock, and every result comes out in member order.
//! * An opt-in bounded change log ([`Collection::enable_deltas`]) of
//!   sequence-numbered [`DeltaOp`]s lets a reader of the Collection —
//!   the schedulers' candidate cache — patch a result it already holds
//!   from [`Collection::deltas_since`]; a [`DeltaBatch::Gap`] tells it
//!   to recompute instead.
//! * [`DerivedAttribute`] and [`LoadForecaster`] implement the planned
//!   *function injection* extension — "the ability for users to install
//!   code to dynamically compute new description information" —
//!   including a Network-Weather-Service-style load forecaster.

mod collection;
mod daemon;
mod delta;
mod index;
mod inject;
mod planner;
mod query;
mod record;

pub use collection::{Collection, CollectionEpoch, MemberCredential};
pub use daemon::DataCollectionDaemon;
pub use delta::{DeltaBatch, DeltaOp};
pub use inject::{DerivedAttribute, LoadForecaster};
pub use query::{parse_query, Query};
pub use record::CollectionRecord;
