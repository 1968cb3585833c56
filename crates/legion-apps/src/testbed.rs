//! Reproducible testbed construction.
//!
//! A [`Testbed`] is the simulated stand-in for the paper's wide-area
//! deployment: `domains` administrative domains, each with a mix of
//! Unix workstations, SMPs and batch-queue machines, one open vault per
//! domain, and a Collection populated by a Data Collection Daemon.

use legion_collection::{Collection, DataCollectionDaemon, LoadForecaster};
use legion_core::{
    ClassObject, HostObject, LegionClass, Loid, ObjectImplementation, SimDuration,
};
use legion_fabric::{DomainId, DomainTopology, Fabric};
use legion_hosts::{
    BackgroundLoad, BatchQueueHost, FairShareQueue, FcfsQueue, HostConfig, PriorityQueue,
    StandardHost,
};
use legion_schedulers::SchedCtx;
use legion_vaults::{StandardVault, VaultConfig};
use std::sync::Arc;

/// Background-load regimes for testbed hosts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadRegime {
    /// All hosts idle.
    Idle,
    /// Every host runs an AR(1) background load; per-host long-run
    /// means are spread deterministically in `[0.2, 1.8] x mean`, so the
    /// population is heterogeneous (as real shared workstations are, and
    /// as the NWS experiment needs).
    Ar1 {
        /// Population mean load.
        mean: f64,
    },
}

/// Testbed shape.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Number of administrative domains.
    pub domains: usize,
    /// Unix workstations per domain.
    pub unix_per_domain: usize,
    /// SMP machines per domain (4-way).
    pub smp_per_domain: usize,
    /// Batch-queue machines per domain (8-slot; queue disciplines cycle
    /// fcfs → priority → fair-share).
    pub batch_per_domain: usize,
    /// Intra-domain one-way latency.
    pub intra_latency: SimDuration,
    /// Inter-domain one-way latency.
    pub inter_latency: SimDuration,
    /// Background load regime.
    pub load: LoadRegime,
    /// When true, hosts charge heterogeneous prices: host i's
    /// `host_price_per_cpu_sec` is spread deterministically over
    /// 1..=100 millicents (otherwise everything is free).
    pub priced: bool,
    /// Master seed (everything derives from it).
    pub seed: u64,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            domains: 2,
            unix_per_domain: 4,
            smp_per_domain: 0,
            batch_per_domain: 0,
            intra_latency: SimDuration::from_micros(100),
            inter_latency: SimDuration::from_millis(40),
            load: LoadRegime::Idle,
            priced: false,
            seed: 42,
        }
    }
}

impl TestbedConfig {
    /// A single-domain bed of `n` Unix hosts.
    pub fn local(n: usize, seed: u64) -> Self {
        TestbedConfig { domains: 1, unix_per_domain: n, seed, ..Default::default() }
    }

    /// A `d`-domain bed of `n` Unix hosts each.
    pub fn wide(d: usize, n: usize, seed: u64) -> Self {
        TestbedConfig { domains: d, unix_per_domain: n, seed, ..Default::default() }
    }
}

/// A built testbed.
pub struct Testbed {
    /// The fabric.
    pub fabric: Arc<Fabric>,
    /// The Collection (already populated).
    pub collection: Arc<Collection>,
    /// The pull daemon feeding the Collection.
    pub daemon: Arc<DataCollectionDaemon>,
    /// The NWS-style forecaster fed by the daemon.
    pub forecaster: Arc<LoadForecaster>,
    /// Typed handles to the standard hosts (policy attachment etc.).
    pub unix_hosts: Vec<Arc<StandardHost>>,
    /// Typed handles to the batch hosts.
    pub batch_hosts: Vec<Arc<BatchQueueHost>>,
    /// All host LOIDs in registration order.
    pub host_loids: Vec<Loid>,
    /// One vault LOID per domain.
    pub vault_loids: Vec<Loid>,
    config: TestbedConfig,
}

impl Testbed {
    /// Builds the testbed described by `config`.
    pub fn build(config: TestbedConfig) -> Self {
        let fabric = Fabric::new(
            DomainTopology::uniform(config.domains, config.intra_latency, config.inter_latency),
            config.seed,
        );
        for d in 0..config.domains {
            fabric.with_topology(|t| t.set_name(DomainId(d as u16), format!("site{d}.edu")));
        }

        let mut unix_hosts = Vec::new();
        let mut batch_hosts = Vec::new();
        let mut host_loids = Vec::new();
        let mut vault_loids = Vec::new();
        let mut host_seq = 0u64;

        for d in 0..config.domains {
            let domain = format!("site{d}.edu");
            let vault = Arc::new(StandardVault::new(VaultConfig {
                name: format!("vault-{d}"),
                domain: domain.clone(),
                ..Default::default()
            }));
            vault_loids.push(legion_core::VaultObject::loid(&*vault));
            fabric.register_vault(vault, DomainId(d as u16));

            let mut add_standard = |cfg: HostConfig, fabric: &Arc<Fabric>| -> Arc<StandardHost> {
                host_seq += 1;
                let cfg = if config.priced {
                    let p = 1 + legion_core::hash::mix64(config.seed ^ (host_seq << 24)) % 100;
                    cfg.priced(p)
                } else {
                    cfg
                };
                let h = StandardHost::new(cfg, fabric.clone(), config.seed ^ (host_seq << 8));
                h.set_metrics(Arc::clone(fabric.metrics()));
                h.set_tracer(Arc::clone(fabric.tracer()));
                if let LoadRegime::Ar1 { mean } = config.load {
                    // Deterministic per-host mean in [0.2, 1.8] x mean.
                    let u = 0.2
                        + 1.6 * (legion_core::hash::mix64(config.seed ^ host_seq) % 1000) as f64
                            / 999.0;
                    // Moderate persistence with visible innovations, so
                    // one-step mean reversion is forecastable (E-X4).
                    h.set_background_load(BackgroundLoad::ar1(
                        mean * u,
                        0.7,
                        0.35,
                        4.0,
                        config.seed ^ (host_seq << 16),
                    ));
                }
                h
            };

            for i in 0..config.unix_per_domain {
                let h = add_standard(
                    HostConfig::unix(format!("u{d}-{i}"), domain.clone()),
                    &fabric,
                );
                host_loids.push(h.loid());
                fabric.register_host(Arc::clone(&h) as Arc<dyn HostObject>, DomainId(d as u16));
                unix_hosts.push(h);
            }
            for i in 0..config.smp_per_domain {
                let h = add_standard(
                    HostConfig::smp(format!("smp{d}-{i}"), domain.clone(), 4),
                    &fabric,
                );
                host_loids.push(h.loid());
                fabric.register_host(Arc::clone(&h) as Arc<dyn HostObject>, DomainId(d as u16));
                unix_hosts.push(h);
            }
            for i in 0..config.batch_per_domain {
                let inner = add_standard(
                    HostConfig::smp(format!("bq{d}-{i}"), domain.clone(), 8),
                    &fabric,
                );
                let queue: Box<dyn legion_hosts::QueueSim> = match i % 3 {
                    0 => Box::new(FcfsQueue::new(8)),
                    1 => Box::new(PriorityQueue::new(8)),
                    _ => Box::new(FairShareQueue::new(8)),
                };
                let bq = BatchQueueHost::new(inner, queue);
                host_loids.push(bq.loid());
                fabric
                    .register_host(Arc::clone(&bq) as Arc<dyn HostObject>, DomainId(d as u16));
                batch_hosts.push(bq);
            }
        }

        // Populate the Collection via the pull daemon, with forecasting.
        let collection = Collection::new(config.seed ^ 0x5EED);
        collection.set_metrics(Arc::clone(fabric.metrics()));
        collection.set_tracer(Arc::clone(fabric.tracer()));
        let daemon = DataCollectionDaemon::new(Arc::clone(&collection));
        daemon.attach_fabric(Arc::clone(&fabric));
        let forecaster = LoadForecaster::new(48);
        daemon.feed_forecaster(Arc::clone(&forecaster));
        for h in &unix_hosts {
            daemon.track_host(Arc::clone(h) as Arc<dyn HostObject>);
        }
        for h in &batch_hosts {
            daemon.track_host(Arc::clone(h) as Arc<dyn HostObject>);
        }
        daemon.pull_once(fabric.clock().now());

        Testbed {
            fabric,
            collection,
            daemon,
            forecaster,
            unix_hosts,
            batch_hosts,
            host_loids,
            vault_loids,
            config,
        }
    }

    /// The configuration the bed was built from.
    pub fn config(&self) -> &TestbedConfig {
        &self.config
    }

    /// Registers a worker class runnable on every testbed host.
    ///
    /// `cpu_centis`/`memory_mb` set the per-instance demand.
    pub fn register_class(
        &self,
        name: &str,
        cpu_centis: u32,
        memory_mb: u32,
    ) -> Loid {
        let class = Arc::new(
            LegionClass::new(name, vec![ObjectImplementation::new("mips", "IRIX")])
                .with_demand(cpu_centis, memory_mb),
        );
        let loid = class.loid();
        self.fabric.register_class(class);
        loid
    }

    /// A scheduler context over this bed.
    pub fn ctx(&self) -> SchedCtx {
        SchedCtx::new(Arc::clone(&self.fabric), Arc::clone(&self.collection))
    }

    /// Advances virtual time by `dt`, reassesses every host, and
    /// refreshes the Collection via the daemon.
    pub fn tick(&self, dt: SimDuration) -> usize {
        let events = self.fabric.tick_all_hosts(dt);
        self.daemon.pull_once(self.fabric.clock().now());
        events
    }

    /// Total hosts.
    pub fn host_count(&self) -> usize {
        self.host_loids.len()
    }

    /// Preloads every standard host's reservation table with `per_host`
    /// long-lived, shareable, zero-demand reservations for `class`.
    ///
    /// A table's sweeps, lookups and memory grow with its live entries,
    /// so production-scale hosts carry production-scale tables; the e2e
    /// benchmark calls this so per-reservation cost reflects that regime
    /// instead of empty-table best cases. The fillers are shareable (`ONE_SHOT_TIME`) and ask
    /// for nothing, so they never deny capacity to real traffic, and
    /// they carry an explicit start time, so they never lapse into
    /// confirmation timeouts and die. Returns the number made.
    pub fn preload_reservations(&self, per_host: usize, class: Loid) -> usize {
        let now = self.fabric.clock().now();
        // Outlives any experiment horizon, so sweeps keep every filler.
        let duration = SimDuration::from_secs(10 * 365 * 24 * 3600);
        let mut made = 0;
        for h in &self.unix_hosts {
            let vault = legion_core::HostObject::get_compatible_vaults(&**h)
                .first()
                .copied()
                .unwrap_or(Loid::NIL);
            for _ in 0..per_host {
                let req = legion_core::ReservationRequest::instantaneous(class, vault, duration)
                    .with_demand(0, 0)
                    .starting_at(now);
                if legion_core::HostObject::make_reservation(&**h, &req, now).is_ok() {
                    made += 1;
                }
            }
        }
        made
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_mixed_bed() {
        let tb = Testbed::build(TestbedConfig {
            domains: 2,
            unix_per_domain: 3,
            smp_per_domain: 1,
            batch_per_domain: 3,
            ..Default::default()
        });
        assert_eq!(tb.host_count(), 2 * (3 + 1 + 3));
        assert_eq!(tb.fabric.host_count(), 14);
        assert_eq!(tb.fabric.vault_count(), 2);
        assert_eq!(tb.collection.len(), 14, "daemon populated every host");
        // The three batch disciplines all appear.
        let names: std::collections::BTreeSet<String> = tb
            .collection
            .dump()
            .into_iter()
            .filter_map(|r| {
                r.attrs
                    .get_str(legion_core::host::well_known::QUEUE_SYSTEM)
                    .map(|s| s.to_string())
            })
            .collect();
        assert_eq!(names.len(), 3);
    }

    #[test]
    fn tick_refreshes_collection() {
        let tb = Testbed::build(TestbedConfig::local(4, 9));
        let t0 = tb.collection.dump()[0].updated_at;
        tb.tick(SimDuration::from_secs(30));
        let t1 = tb.collection.dump()[0].updated_at;
        assert!(t1 > t0);
        assert_eq!(tb.daemon.pull_count(), 2);
    }

    #[test]
    fn ar1_regime_varies_loads() {
        let tb = Testbed::build(TestbedConfig {
            load: LoadRegime::Ar1 { mean: 0.5 },
            ..TestbedConfig::local(8, 11)
        });
        for _ in 0..5 {
            tb.tick(SimDuration::from_secs(30));
        }
        let loads: Vec<f64> = tb
            .collection
            .dump()
            .iter()
            .filter_map(|r| r.attrs.get_f64(legion_core::host::well_known::LOAD))
            .collect();
        assert_eq!(loads.len(), 8);
        let distinct = loads.iter().filter(|&&l| (l - loads[0]).abs() > 1e-9).count();
        assert!(distinct >= 4, "independent AR(1) streams should differ: {loads:?}");
    }

    #[test]
    fn preload_fills_tables_without_denying_capacity() {
        let tb = Testbed::build(TestbedConfig::local(2, 17));
        let class = tb.register_class("w", 50, 64);
        assert_eq!(tb.preload_reservations(100, class), 200);
        // Zero-demand shareable fillers must not consume capacity: a
        // real reservation still admits on a preloaded host.
        let now = tb.fabric.clock().now();
        let vault = tb.vault_loids[0];
        let req = legion_core::ReservationRequest::instantaneous(
            class,
            vault,
            SimDuration::from_secs(60),
        );
        let h = &tb.unix_hosts[0];
        assert!(legion_core::HostObject::make_reservation(&**h, &req, now).is_ok());
    }

    #[test]
    fn registered_class_visible_to_ctx() {
        let tb = Testbed::build(TestbedConfig::local(2, 13));
        let class = tb.register_class("w", 50, 64);
        let ctx = tb.ctx();
        let report = ctx.class_report(class).unwrap();
        assert_eq!(report.cpu_centis, 50);
        let cands = ctx.shared_candidates_for(&report, None).unwrap();
        assert_eq!(cands.len(), 2);
        assert!(cands.iter().all(|c| c.usable()));
    }
}
