//! The fair-use laws of the front door, property-tested end to end
//! through the discrete-event simulator.
//!
//! For *any* seed, *any* heavy-tailed tenant population, and *any*
//! overdrive factor (how far past its token rate each tenant pushes):
//!
//! * **Allotment** — no tenant's admitted count ever exceeds its
//!   token-bucket allotment (`burst + rate × horizon`), no matter how
//!   bursty its arrival process is.
//! * **Fairness** — two equal-class tenants, both driven well past
//!   their shared bucket rate, finish with goodput (completed
//!   placements) within a configured ratio of each other: the buckets,
//!   not arrival luck, decide who gets through.
//! * **Replay** — the whole multi-tenant run is byte-identical from one
//!   seed: same trace JSON, same ledger, same event schedule (with the
//!   LOID allocator rebased through `Loid::replay_guard`).

use legion_apps::{run_ingress_sim, IngressSimConfig, IngressSimReport, TenantSpec};
use legion_core::{Loid, SimDuration};
use legion_ingress::{ClassPolicy, IngressConfig, PriorityClass, TokenBucket};
use proptest::prelude::*;

fn horizon() -> SimDuration {
    SimDuration::from_secs(600)
}

/// Tight policies so allotments stay small enough for a fast sim: an
/// Interactive token every 12.5s, a Production token every 20s.
fn tight_ingress() -> IngressConfig {
    IngressConfig {
        policies: [
            ClassPolicy { rate_per_sec: 0.08, burst: 3, queue_capacity: 4 },
            ClassPolicy { rate_per_sec: 0.05, burst: 4, queue_capacity: 8 },
            ClassPolicy { rate_per_sec: 0.04, burst: 6, queue_capacity: 8 },
        ],
        ..IngressConfig::default()
    }
}

/// A random multi-tenant scenario: one equal-class Poisson pair driven
/// `overdrive`× past its bucket rate, plus 1–3 heavy-tailed tenants.
fn scenario(
    seed: u64,
    overdrive: f64,
    pareto: &[(u8, f64)],
) -> IngressSimConfig {
    let cfg = tight_ingress();
    let pair_rate = cfg.policy(PriorityClass::Interactive).rate_per_sec;
    let mean_gap = SimDuration::from_micros((1e6 / (pair_rate * overdrive)) as u64);
    let mut tenants = vec![
        TenantSpec::poisson("pair-a", PriorityClass::Interactive, mean_gap),
        TenantSpec::poisson("pair-b", PriorityClass::Interactive, mean_gap),
    ];
    for (i, &(class_pick, alpha)) in pareto.iter().enumerate() {
        let class = if class_pick % 2 == 0 {
            PriorityClass::Production
        } else {
            PriorityClass::BestEffort
        };
        let min_rate = cfg.policy(class).rate_per_sec;
        // Heavy-tailed bursts arriving (on average) well past the rate.
        let min_gap = SimDuration::from_micros((1e6 / (min_rate * 8.0)) as u64);
        tenants.push(TenantSpec::pareto(format!("burst-{i}"), class, min_gap, alpha));
    }
    IngressSimConfig {
        seed,
        domains: 2,
        hosts_per_domain: 3,
        tenants,
        horizon: horizon(),
        tick: SimDuration::from_secs(30),
        dwell: SimDuration::from_secs(30),
        ingress: cfg,
        trace: true,
        ..IngressSimConfig::default()
    }
}

fn run_guarded(cfg: &IngressSimConfig) -> IngressSimReport {
    let guard = Loid::replay_guard();
    guard.rebase(1 << 40);
    run_ingress_sim(cfg).unwrap_or_else(|e| panic!("{e}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The three fair-use laws, from random seeds and populations.
    #[test]
    fn admission_respects_allotment_fairness_and_replay(
        seed in any::<u64>(),
        overdrive in 2.0f64..4.0,
        pareto in proptest::collection::vec((any::<u8>(), 1.1f64..2.5), 1..4),
    ) {
        let cfg = scenario(seed, overdrive, &pareto);
        let a = run_guarded(&cfg);
        let b = run_guarded(&cfg);

        // Replay: one seed fully determines the run.
        prop_assert_eq!(a.stats, b.stats, "event schedules diverged (seed={:#x})", seed);
        prop_assert_eq!(a.metrics, b.metrics, "ledger snapshots diverged (seed={:#x})", seed);
        prop_assert!(
            a.trace_json == b.trace_json,
            "trace JSON diverged between same-seed runs (seed={:#x})", seed
        );

        // Allotment: no tenant out-admits its bucket, however bursty.
        for t in &a.tenants {
            let policy = cfg.ingress.policy(t.class);
            let cap = TokenBucket::allotment(policy.rate_per_sec, policy.burst, horizon());
            prop_assert!(
                t.stats.admitted <= cap,
                "{} ({:?}) admitted {} > allotment {} (seed={:#x})",
                t.name, t.class, t.stats.admitted, cap, seed
            );
            prop_assert_eq!(
                t.stats.submitted,
                t.stats.admitted + t.stats.rejected(),
                "admission accounting leaked for {} (seed={:#x})", t.name.clone(), seed
            );
        }

        // The load was not degenerate: the overdriven pair actually hit
        // the fair-use machinery.
        let pair: Vec<_> =
            a.tenants.iter().filter(|t| t.class == PriorityClass::Interactive).collect();
        prop_assert_eq!(pair.len(), 2);
        prop_assert!(
            pair.iter().all(|t| t.stats.rejected() > 0),
            "overdrive never tripped the bucket (seed={:#x})", seed
        );
        prop_assert!(
            pair.iter().all(|t| t.stats.completed > 0),
            "a pair tenant was starved outright (seed={:#x})", seed
        );

        // Fairness: the buckets cap both tenants at the same sustained
        // rate, so goodput lands within the configured bound even though
        // their Poisson streams differ.
        let (hi, lo) = (
            pair.iter().map(|t| t.stats.completed).max().unwrap(),
            pair.iter().map(|t| t.stats.completed).min().unwrap(),
        );
        let ratio = hi as f64 / lo as f64;
        prop_assert!(
            ratio <= 1.5,
            "equal-class goodput ratio {ratio:.3} ({hi} vs {lo}) exceeds 1.5 (seed={:#x})",
            seed
        );
        let reported = a
            .fairness
            .iter()
            .find(|(c, _)| *c == PriorityClass::Interactive)
            .and_then(|(_, r)| *r)
            .expect("two interactive tenants registered");
        prop_assert!(
            (reported - ratio).abs() < 1e-9,
            "door-reported fairness {reported} disagrees with stats {ratio} (seed={:#x})",
            seed
        );
    }
}

/// The arrival-rate sweep knob (`IngressSimConfig::rate_scaled`): the
/// same population at 4× its rate presents more requests, yet no
/// tenant out-admits its allotment.
#[test]
fn rate_sweep_raises_load_but_not_admissions_past_allotment() {
    let cfg = scenario(0xAD_0115, 2.0, &[(0, 1.5), (1, 2.0)]);
    let [base, fast] = [1.0, 4.0].map(|k| run_guarded(&cfg.clone().rate_scaled(k)));
    let submitted = |r: &IngressSimReport| r.tenants.iter().map(|t| t.stats.submitted).sum::<u64>();
    assert!(
        submitted(&fast) > submitted(&base),
        "4x rate submitted {} <= 1x {}",
        submitted(&fast),
        submitted(&base)
    );
    for t in &fast.tenants {
        let policy = cfg.ingress.policy(t.class);
        let cap = TokenBucket::allotment(policy.rate_per_sec, policy.burst, horizon());
        assert!(t.stats.admitted <= cap, "{} admitted {} > allotment {cap}", t.name, t.stats.admitted);
        assert_eq!(t.stats.submitted, t.stats.admitted + t.stats.rejected());
    }
}
