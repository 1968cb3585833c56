//! The Data Collection Daemon — the pull model.
//!
//! "We are implementing an intermediate agent, the Data Collection
//! Daemon, which pulls data from Hosts and pushes it into Collections."
//! (§3.1, footnote) — Collections, plural: "If a push model is being
//! used, it will then deposit information into its known Collection(s)."
//! The daemon therefore fans each host snapshot out to every registered
//! target Collection.
//!
//! Each `pull_once` sweep reads every registered host's attribute
//! database and refreshes its record in every target, optionally
//! feeding a [`LoadForecaster`] so forecast injection stays current.
//! The sweep interval bounds record staleness — experiment E-F4
//! measures the push-vs-pull freshness trade-off.
//!
//! Sweeps are *incremental* without the daemon comparing anything: a
//! host's snapshot shares its Info part (name, OS, vault list) with the
//! record it was last pulled into, so [`Collection::replace`] re-indexes
//! only the four State values, and a snapshot in which none of them
//! moved is logged as a [`Touch`](crate::DeltaOp::Touch) — a freshness
//! bump that a candidate cache applies without re-evaluating. An idle
//! fleet therefore costs each sweep O(hosts) reference-count bumps and
//! four-slot compares, not O(hosts × attrs) copying, hashing or index
//! churn.

use crate::collection::{Collection, MemberCredential};
use crate::inject::LoadForecaster;
use legion_core::host::well_known;
use legion_core::{HostObject, Loid, LoidKind, SimTime};
use legion_fabric::Fabric;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

struct Target {
    collection: Arc<Collection>,
    /// Per-member credential tag.
    credentials: BTreeMap<Loid, u64>,
}

/// Pulls host state into one or more Collections on demand.
pub struct DataCollectionDaemon {
    /// This daemon's endpoint of pull traffic (domain 0 unless the
    /// fabric places it elsewhere).
    loid: Loid,
    targets: RwLock<Vec<Target>>,
    hosts: RwLock<Vec<Arc<dyn HostObject>>>,
    forecaster: RwLock<Option<Arc<LoadForecaster>>>,
    fabric: RwLock<Option<Arc<Fabric>>>,
    pulls: RwLock<u64>,
}

impl DataCollectionDaemon {
    /// A daemon feeding `collection`.
    pub fn new(collection: Arc<Collection>) -> Arc<Self> {
        let d = Arc::new(DataCollectionDaemon {
            loid: Loid::fresh(LoidKind::Service),
            targets: RwLock::new(Vec::new()),
            hosts: RwLock::new(Vec::new()),
            forecaster: RwLock::new(None),
            fabric: RwLock::new(None),
            pulls: RwLock::new(0),
        });
        d.add_collection(collection);
        d
    }

    /// Attaches the fabric so sweeps respect its partition state: a
    /// host the daemon cannot reach answers no pulls, exactly like a
    /// crashed one, and its records age toward the staleness TTL.
    pub fn attach_fabric(&self, fabric: Arc<Fabric>) {
        *self.fabric.write() = Some(fabric);
    }

    /// Registers an additional target Collection; subsequent sweeps push
    /// into it too.
    pub fn add_collection(&self, collection: Arc<Collection>) {
        self.targets
            .write()
            .push(Target { collection, credentials: BTreeMap::new() });
    }

    /// Registers a host to be swept.
    pub fn track_host(&self, host: Arc<dyn HostObject>) {
        self.hosts.write().push(host);
    }

    /// Attaches a forecaster fed with every pulled load sample.
    pub fn feed_forecaster(&self, f: Arc<LoadForecaster>) {
        *self.forecaster.write() = Some(f);
    }

    /// Number of sweeps performed.
    pub fn pull_count(&self) -> u64 {
        *self.pulls.read()
    }

    /// Sweeps all tracked hosts once: read attributes, push the snapshot
    /// to every target Collection (joining on first contact). Returns
    /// the number of (host, collection) records refreshed.
    pub fn pull_once(&self, now: SimTime) -> usize {
        let hosts: Vec<Arc<dyn HostObject>> = self.hosts.read().clone();
        let mut refreshed = 0;
        for host in hosts {
            // A crashed host answers no pulls: its records simply stop
            // refreshing and age out via `Collection::evict_stale`.
            if host.is_crashed() {
                continue;
            }
            let loid = host.loid();
            // A partitioned host is unreachable exactly like a crashed
            // one: the pull silently fails and the record stops
            // refreshing, so planners see staleness instead of a
            // confidently wrong load figure.
            if let Some(f) = self.fabric.read().as_ref() {
                if f.is_partitioned(f.domain_of(self.loid), f.domain_of(loid)) {
                    continue;
                }
            }
            let attrs = host.attributes();
            if let Some(f) = self.forecaster.read().as_ref() {
                if let Some(load) = attrs.get_f64(well_known::LOAD) {
                    f.observe(loid, load);
                }
            }
            for t in self.targets.write().iter_mut() {
                // Replace wholesale: the pull model snapshots state. The
                // copy shares the host's Info part, so it allocates
                // nothing.
                let outcome = match t.credentials.get(&loid) {
                    Some(&tag) => t.collection.replace(
                        &MemberCredential { member: loid, tag },
                        attrs.clone(),
                        now,
                    ),
                    None => Err(legion_core::LegionError::NoSuchObject(loid)),
                };
                match outcome {
                    Ok(()) => refreshed += 1,
                    // First contact, or TTL-evicted while unreachable:
                    // (re-)join.
                    Err(legion_core::LegionError::NoSuchObject(_)) => {
                        let cred = t.collection.join_with(loid, attrs.clone(), now);
                        t.credentials.insert(loid, cred.tag);
                        refreshed += 1;
                    }
                    Err(_) => {}
                }
            }
        }
        *self.pulls.write() += 1;
        refreshed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_core::{VaultDirectory, VaultObject};
    use legion_hosts::{HostConfig, StandardHost};

    #[derive(Default)]
    struct EmptyDir;

    impl VaultDirectory for EmptyDir {
        fn lookup_vault(&self, _: Loid) -> Option<Arc<dyn VaultObject>> {
            None
        }

        fn vault_loids(&self) -> Vec<Loid> {
            Vec::new()
        }
    }

    #[test]
    fn pull_joins_then_replaces() {
        let c = Collection::new(7);
        let d = DataCollectionDaemon::new(Arc::clone(&c));
        let h = StandardHost::new(HostConfig::unix("h0", "uva.edu"), Arc::new(EmptyDir), 1);
        d.track_host(h.clone());

        assert_eq!(d.pull_once(SimTime::ZERO), 1);
        assert_eq!(c.len(), 1);
        let rec = c.get(h.loid()).unwrap();
        assert_eq!(rec.attrs.get_str(well_known::HOST_NAME), Some("h0"));

        // Second pull replaces, bumping updated_at.
        h.reassess(SimTime::from_secs(5));
        assert_eq!(d.pull_once(SimTime::from_secs(5)), 1);
        let rec = c.get(h.loid()).unwrap();
        assert_eq!(rec.updated_at, SimTime::from_secs(5));
        assert_eq!(d.pull_count(), 2);
    }

    #[test]
    fn forecaster_gets_fed() {
        let c = Collection::new(7);
        let d = DataCollectionDaemon::new(Arc::clone(&c));
        let h = StandardHost::new(HostConfig::unix("h0", "uva.edu"), Arc::new(EmptyDir), 1);
        d.track_host(h.clone());
        let f = LoadForecaster::new(4);
        d.feed_forecaster(Arc::clone(&f));
        d.pull_once(SimTime::ZERO);
        assert!(f.forecast(h.loid()).is_some());
    }

    #[test]
    fn multiple_collections_all_receive_snapshots() {
        // "deposit information into its known Collection(s)" — plural.
        let primary = Collection::new(1);
        let secondary = Collection::new(2);
        let d = DataCollectionDaemon::new(Arc::clone(&primary));
        d.add_collection(Arc::clone(&secondary));

        let h = StandardHost::new(HostConfig::unix("h0", "uva.edu"), Arc::new(EmptyDir), 1);
        d.track_host(h.clone());
        assert_eq!(d.pull_once(SimTime::ZERO), 2, "one record per target");
        assert_eq!(primary.len(), 1);
        assert_eq!(secondary.len(), 1);

        // Updates reach both with independent credentials.
        h.reassess(SimTime::from_secs(9));
        d.pull_once(SimTime::from_secs(9));
        assert_eq!(primary.get(h.loid()).unwrap().updated_at, SimTime::from_secs(9));
        assert_eq!(secondary.get(h.loid()).unwrap().updated_at, SimTime::from_secs(9));
    }

    #[test]
    fn crashed_hosts_are_skipped_and_age_out() {
        use legion_core::SimDuration;
        let c = Collection::new(7);
        let d = DataCollectionDaemon::new(Arc::clone(&c));
        let h0 = StandardHost::new(HostConfig::unix("h0", "uva.edu"), Arc::new(EmptyDir), 1);
        let h1 = StandardHost::new(HostConfig::unix("h1", "uva.edu"), Arc::new(EmptyDir), 2);
        d.track_host(h0.clone());
        d.track_host(h1.clone());
        assert_eq!(d.pull_once(SimTime::ZERO), 2);

        // h1 crashes: subsequent sweeps refresh only h0.
        h1.crash();
        assert_eq!(d.pull_once(SimTime::from_secs(30)), 1);
        assert_eq!(c.get(h1.loid()).unwrap().updated_at, SimTime::ZERO);

        // The stale record ages out; the (still refreshing) live host's
        // stays.
        assert_eq!(d.pull_once(SimTime::from_secs(60)), 1);
        let evicted = c.evict_stale(SimTime::from_secs(90), SimDuration::from_secs(45));
        assert_eq!(evicted, vec![h1.loid()]);
        assert!(c.get(h0.loid()).is_some());

        // After restart the next sweep re-joins the host.
        h1.restart(SimTime::from_secs(120));
        assert_eq!(d.pull_once(SimTime::from_secs(120)), 2);
        assert!(c.get(h1.loid()).is_some());
    }

    #[test]
    fn unchanged_hosts_are_touched_not_replaced() {
        use crate::delta::{DeltaBatch, DeltaOp};
        let c = Collection::new(7);
        c.enable_deltas(64);
        let d = DataCollectionDaemon::new(Arc::clone(&c));
        let h = StandardHost::new(HostConfig::unix("h0", "uva.edu"), Arc::new(EmptyDir), 1);
        d.track_host(h.clone());

        assert_eq!(d.pull_once(SimTime::ZERO), 1); // join → Upsert
        assert_eq!(d.pull_once(SimTime::from_secs(5)), 1); // no change → Touch
        // Background load shifts: the next snapshot's State differs.
        h.set_background_load(legion_hosts::BackgroundLoad::steady(0.7));
        h.reassess(SimTime::from_secs(10));
        assert_eq!(d.pull_once(SimTime::from_secs(10)), 1); // change → Upsert

        let DeltaBatch::Ops(ops) = c.deltas_since(0) else { panic!("expected ops") };
        let kinds: Vec<_> = ops
            .iter()
            .map(|d| match d.op {
                DeltaOp::Upsert { .. } => "upsert",
                DeltaOp::Touch { .. } => "touch",
                DeltaOp::Remove { .. } => "remove",
            })
            .collect();
        assert_eq!(kinds, vec!["upsert", "touch", "upsert"]);
        // The touch still bumped freshness at the time.
        assert_eq!(c.get(h.loid()).unwrap().updated_at, SimTime::from_secs(10));
    }

    #[test]
    fn late_added_collection_joins_on_next_sweep() {
        let primary = Collection::new(1);
        let d = DataCollectionDaemon::new(Arc::clone(&primary));
        let h = StandardHost::new(HostConfig::unix("h0", "uva.edu"), Arc::new(EmptyDir), 1);
        d.track_host(h.clone());
        d.pull_once(SimTime::ZERO);

        let late = Collection::new(3);
        d.add_collection(Arc::clone(&late));
        assert!(late.is_empty());
        d.pull_once(SimTime::from_secs(1));
        assert_eq!(late.len(), 1);
    }
}
