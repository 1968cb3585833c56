//! The Collection on a live testbed: the paper's query, push/pull,
//! authentication, and function injection end to end.

use legion::prelude::*;
use legion::collection::LoadForecaster;
use legion::core::host::well_known;

#[test]
fn paper_example_query_against_live_hosts() {
    // Build a bed whose hosts run IRIX 5.3 (the testbed default) and add
    // one host on a different platform by hand.
    let tb = Testbed::build(TestbedConfig::local(3, 30));
    let linux = StandardHost::new(
        HostConfig::unix("lx0", "site0.edu").platform("x86", "Linux", "2.0.36"),
        tb.fabric.clone(),
        77,
    );
    tb.fabric
        .register_host(linux.clone() as std::sync::Arc<dyn HostObject>, DomainId(0));
    tb.daemon.track_host(linux as std::sync::Arc<dyn HostObject>);
    tb.tick(SimDuration::from_secs(1));

    // The query from §3.2, adapted to version matching.
    let rs = tb
        .collection
        .query(r#"match($host_os_name, "IRIX") and match("5\..*", $host_os_version)"#)
        .unwrap();
    assert_eq!(rs.len(), 3, "only the IRIX 5.x hosts match");

    let rs = tb.collection.query(r#"match($host_os_name, "Linux")"#).unwrap();
    assert_eq!(rs.len(), 1);
}

#[test]
fn rich_attributes_are_queryable() {
    // §3.1: hosts export "a rich set of information, well beyond the
    // minimal architecture, OS, and load average".
    let tb = Testbed::build(TestbedConfig::wide(2, 2, 31));
    let rec = &tb.collection.dump()[0];
    for attr in [
        well_known::HOST_NAME,
        "host_domain",
        "host_arch",
        "host_os_name",
        "host_os_version",
        "host_ncpus",
        "host_memory_mb",
        "host_free_memory_mb",
        "host_load",
        "host_price_per_cpu_sec",
        "host_willingness",
        "host_flavor",
        "host_running_objects",
        "host_compatible_vaults",
    ] {
        assert!(rec.attrs.contains(attr), "missing {attr}");
    }
    // Compatible vaults round-trip as parseable LOIDs.
    let vaults = rec.attrs.get("host_compatible_vaults").unwrap().as_list().unwrap();
    assert!(!vaults.is_empty());
    for v in vaults {
        let s = v.as_str().unwrap();
        let parsed: Loid = s.parse().unwrap();
        assert!(tb.vault_loids.contains(&parsed));
    }

    // Domain-targeted query.
    let rs = tb.collection.query(r#"$host_domain == "site1.edu""#).unwrap();
    assert_eq!(rs.len(), 2);
}

#[test]
fn push_and_pull_coexist() {
    let tb = Testbed::build(TestbedConfig::local(2, 32));
    // A service object joins with initial data (push model, Fig. 4).
    let svc = Loid::fresh(legion::core::LoidKind::Service);
    let cred = tb.collection.join_with(
        svc,
        AttributeDb::new().with("service_kind", "enactor").with("version", 2i64),
        tb.fabric.clock().now(),
    );
    assert_eq!(tb.collection.len(), 3);

    // It pushes an update; the daemon's pulls don't disturb it.
    tb.collection
        .update(&cred, &AttributeDb::new().with("version", 3i64), tb.fabric.clock().now())
        .unwrap();
    tb.tick(SimDuration::from_secs(30));
    let rec = tb.collection.get(svc).unwrap();
    assert_eq!(rec.attrs.get_i64("version"), Some(3));
    assert_eq!(rec.attrs.get_str("service_kind"), Some("enactor"));

    // Unauthenticated update attempts fail.
    let forged = legion::collection::MemberCredential { member: svc, tag: 0 };
    assert!(matches!(
        tb.collection.update(&forged, &AttributeDb::new(), tb.fabric.clock().now()),
        Err(LegionError::AuthFailed)
    ));
}

#[test]
fn forecast_injection_visible_in_queries() {
    let tb = Testbed::build(TestbedConfig {
        load: legion::apps::LoadRegime::Ar1 { mean: 0.5 },
        ..TestbedConfig::local(4, 33)
    });
    tb.collection.install_function(tb.forecaster.as_derived_attribute());
    for _ in 0..6 {
        tb.tick(SimDuration::from_secs(30));
    }
    // Forecasts exist for every host and are queryable like any attr.
    let rs = tb.collection.query("exists($host_load_forecast)").unwrap();
    assert_eq!(rs.len(), 4);
    let rs = tb.collection.query("$host_load_forecast >= 0.0").unwrap();
    assert_eq!(rs.len(), 4);
}

#[test]
fn forecaster_tracks_independent_hosts() {
    let f = LoadForecaster::new(8);
    let a = Loid::fresh(legion::core::LoidKind::Host);
    let b = Loid::fresh(legion::core::LoidKind::Host);
    for i in 0..8 {
        f.observe(a, 0.2 + 0.01 * i as f64);
        f.observe(b, 1.5);
    }
    let fa = f.forecast(a).unwrap();
    let fb = f.forecast(b).unwrap();
    assert!(fa < 0.6, "host a is lightly loaded: {fa}");
    assert!((fb - 1.5).abs() < 1e-6, "host b is steady at 1.5: {fb}");
}

#[test]
fn queries_are_safe_against_malicious_patterns() {
    // The NFA engine is linear-time: a classic catastrophic pattern over
    // a long attribute must return promptly (and not match).
    let tb = Testbed::build(TestbedConfig::local(1, 34));
    let svc = Loid::fresh(legion::core::LoidKind::Service);
    tb.collection.join_with(
        svc,
        AttributeDb::new().with("blob", "a".repeat(4000)),
        tb.fabric.clock().now(),
    );
    let start = std::time::Instant::now();
    let rs = tb.collection.query(r#"match("(a*)*b", $blob)"#).unwrap();
    assert!(rs.is_empty());
    assert!(
        start.elapsed() < std::time::Duration::from_secs(5),
        "no exponential blow-up"
    );
}
