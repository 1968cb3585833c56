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
//! * [`query`] implements the query grammar of the MESSIAHS work the
//!   paper cites: field matching, semantic comparisons, boolean
//!   combinations, and `match(regex, $attr)` over the in-repo regex
//!   engine.
//! * [`DataCollectionDaemon`] is the paper's "intermediate agent ...
//!   which pulls data from Hosts and pushes it into Collections"
//!   (§3.1 footnote).
//! * [`FederatedCollection`] realizes the paper's plural "known
//!   Collection(s)": one Collection per administrative domain with
//!   fan-out queries tagged by origin.
//! * [`index`] and [`planner`] form the indexed query engine: secondary
//!   per-attribute indexes (string, trigram, numeric, presence)
//!   maintained incrementally on every membership change, and a planner
//!   that extracts indexable conjuncts (string equality, numeric
//!   ranges, `exists()`, and regex `match()` via prefix, trigram, and
//!   leading-char-class narrowing) so selective queries intersect
//!   sorted candidate lists instead of touching every record. Plans
//!   that are provably *exact* skip residual re-evaluation entirely;
//!   inexact plans re-evaluate the complete query per candidate, so
//!   results are always identical to the naive scan. Records and
//!   indexes share one store under one lock, and every result comes
//!   out in member order (see [`collection`]).
//! * [`delta`] is the push-federation substrate: an opt-in bounded
//!   change log of sequence-numbered upsert/touch/remove deltas that
//!   mirrors apply incrementally, with gap detection forcing a full
//!   resync when a mirror falls behind the log's capacity.
//! * [`inject`] implements the planned *function injection* extension —
//!   "the ability for users to install code to dynamically compute new
//!   description information" — including a Network-Weather-Service-style
//!   load forecaster.

pub mod collection;
pub mod daemon;
pub mod delta;
pub mod federation;
pub mod index;
pub mod inject;
pub mod planner;
pub mod query;
pub mod record;

pub use collection::{Collection, CollectionEpoch, MemberCredential};
pub use daemon::DataCollectionDaemon;
pub use delta::{ChangeLog, Delta, DeltaBatch, DeltaOp};
pub use federation::{FederatedCollection, FederatedRecord, PushSyncReport};
pub use index::AttributeIndexes;
pub use inject::{DerivedAttribute, LoadForecaster};
pub use planner::{IndexPredicate, Plan, PlanNode};
pub use query::{parse_query, Query};
pub use record::CollectionRecord;
