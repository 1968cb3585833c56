//! Trace-based assertions over the Fig. 3 pipeline.
//!
//! The `legion-trace` sink watches the same walkthrough the
//! `rmi_pipeline` test drives, but from the observability side: every
//! placement is one *episode* whose span tree must match the paper's
//! schedule → reserve → enact → start sequence exactly, nest correctly,
//! and reconcile with the `MetricsLedger` counters the fabric already
//! keeps (two independent measurement paths, one truth).

use legion::fabric::reconcile::{reconcile_trace, reconciliation_report};
use legion::prelude::*;
use legion::schedulers::Scheduler;
use legion::trace::Span;

/// Places `n` objects of `class` and returns the episode's spans.
fn traced_place(
    tb: &Testbed,
    scheduler: std::sync::Arc<dyn Scheduler>,
    class: Loid,
    n: u32,
) -> Vec<Span> {
    let enactor = std::sync::Arc::new(Enactor::new(tb.fabric.clone()));
    let driver = ScheduleDriver::new(scheduler, enactor);
    let report = driver
        .place(&PlacementRequest::new().class(class, n), &tb.ctx())
        .expect("placement succeeds on an idle bed");
    let ep = report.episode.expect("tracing is enabled, so the report names its episode");
    tb.fabric.tracer().episode_spans(ep)
}

#[test]
fn random_placement_emits_exact_span_sequence() {
    let tb = Testbed::build(TestbedConfig::local(4, 21));
    let class = tb.register_class("seq", 25, 64);
    let sink = tb.fabric.enable_tracing();
    sink.clear();

    let spans = traced_place(&tb, std::sync::Arc::new(RandomScheduler::new(3)), class, 2);
    let kinds: Vec<SpanKind> = spans.iter().map(|s| s.kind).collect();
    assert_eq!(
        kinds,
        vec![
            SpanKind::Episode,          // one ScheduleDriver::place call
            SpanKind::Schedule,         // compute_schedule, generation 1
            SpanKind::CollectionQuery,  // its single candidate query
            SpanKind::MakeReservations, // Enactor front half
            SpanKind::ReserveAttempt,   // master fill pass, first try
            SpanKind::EnactSchedule,    // Enactor back half
            SpanKind::EnactInstantiation,
            SpanKind::StartObject, // host-side start, nested in its instantiation
            SpanKind::EnactInstantiation,
            SpanKind::StartObject,
        ],
        "healthy 2-object placement must follow the Fig. 3 walkthrough"
    );

    // Everything ended Ok and nothing is still open.
    assert!(spans.iter().all(|s| s.outcome == SpanOutcome::Ok), "{spans:#?}");
    assert_eq!(sink.open_spans(), 0);
}

#[test]
fn spans_nest_inside_their_episode() {
    let tb = Testbed::build(TestbedConfig::local(4, 22));
    let class = tb.register_class("nest", 25, 64);
    let sink = tb.fabric.enable_tracing();
    sink.clear();

    let spans = traced_place(&tb, std::sync::Arc::new(RandomScheduler::new(5)), class, 2);
    let by_kind = |k: SpanKind| spans.iter().filter(move |s| s.kind == k);
    let root = by_kind(SpanKind::Episode).next().expect("episode root span");
    assert!(!root.parent.is_some(), "episode roots have no parent");

    // Every span belongs to the same episode and points at a parent
    // that (a) exists in the episode and (b) opened before it did.
    for s in &spans {
        assert_eq!(s.episode, root.episode, "span leaked across episodes: {s:?}");
        assert!(s.end >= s.start, "negative duration: {s:?}");
        if s.kind == SpanKind::Episode {
            continue;
        }
        let parent = spans
            .iter()
            .find(|p| p.id == s.parent)
            .unwrap_or_else(|| panic!("orphaned span {s:?}"));
        assert!(parent.id < s.id, "parent must open before child: {s:?}");
    }

    // The stage-level containment the paper's figure implies.
    let parent_kind = |s: &Span| spans.iter().find(|p| p.id == s.parent).map(|p| p.kind);
    for q in by_kind(SpanKind::CollectionQuery) {
        assert_eq!(parent_kind(q), Some(SpanKind::Schedule), "{q:?}");
    }
    for a in by_kind(SpanKind::ReserveAttempt) {
        assert_eq!(parent_kind(a), Some(SpanKind::MakeReservations), "{a:?}");
    }
    for i in by_kind(SpanKind::EnactInstantiation) {
        assert_eq!(parent_kind(i), Some(SpanKind::EnactSchedule), "{i:?}");
    }
    for o in by_kind(SpanKind::StartObject) {
        assert_eq!(parent_kind(o), Some(SpanKind::EnactInstantiation), "{o:?}");
    }
    for top in [SpanKind::Schedule, SpanKind::MakeReservations, SpanKind::EnactSchedule] {
        for s in by_kind(top) {
            assert_eq!(parent_kind(s), Some(SpanKind::Episode), "{s:?}");
        }
    }
}

#[test]
fn irs_variants_need_fewer_collection_queries_than_repeated_random() {
    // §4.2: IRS "generates multiple variant schedules per invocation"
    // from one Collection snapshot, where re-running the random
    // scheduler pays one Collection query per schedule produced.
    const NSCHED: usize = 4;
    let tb = Testbed::build(TestbedConfig::wide(2, 4, 23));
    let class = tb.register_class("irs", 25, 64);
    let ctx = tb.ctx();
    let sink = tb.fabric.enable_tracing();
    let request = PlacementRequest::new().class(class, 3);

    sink.clear();
    let irs = IrsScheduler::new(7, NSCHED);
    let sched = irs.compute_schedule(&request, &ctx).unwrap();
    assert!(
        !sched.schedules[0].variants.is_empty(),
        "IRS produced master + variants from one snapshot"
    );
    let irs_queries = sink.rollup().count(SpanKind::CollectionQuery);
    assert_eq!(
        cache_labels(&sink.spans()),
        vec![Some("miss".to_string())],
        "IRS's one query is the context's first serve: a cache miss"
    );

    sink.clear();
    let random = RandomScheduler::new(7);
    for _ in 0..NSCHED {
        random.compute_schedule(&request, &ctx).unwrap();
    }
    let random_queries = sink.rollup().count(SpanKind::CollectionQuery);
    assert_eq!(
        cache_labels(&sink.spans()),
        vec![Some("hit".to_string()); NSCHED],
        "every random rerun serves from the candidate set the IRS miss materialized"
    );

    assert!(
        irs_queries < random_queries,
        "IRS should amortize the Collection query across its variants: \
         irs={irs_queries} random={random_queries}"
    );
    assert_eq!(irs_queries, 1, "one query per class per IRS invocation");
    assert_eq!(random_queries, NSCHED as u64, "one query per random schedule");
}

/// The `cache` attribute of every CollectionQuery span, in span order.
fn cache_labels(spans: &[Span]) -> Vec<Option<String>> {
    spans
        .iter()
        .filter(|s| s.kind == SpanKind::CollectionQuery)
        .map(|s| {
            s.attrs
                .iter()
                .find(|(k, _)| *k == "cache")
                .and_then(|(_, v)| v.as_str().map(str::to_string))
        })
        .collect()
}

#[test]
fn candidate_cache_serves_are_attributed_on_query_spans() {
    // One context, repeated placements: the span stream must narrate
    // the cache's behaviour — miss on first touch, hits while the
    // Collection is quiet, a patched serve after delta-logged churn,
    // and a ledger that still reconciles (every serve is one query).
    let tb = Testbed::build(TestbedConfig::local(4, 31));
    let class = tb.register_class("cache", 25, 64);
    let ctx = tb.ctx();
    ctx.collection.enable_deltas(1024);
    let sink = tb.fabric.enable_tracing();
    sink.clear();
    let before = tb.fabric.metrics().snapshot();

    let enactor = std::sync::Arc::new(Enactor::new(tb.fabric.clone()));
    let driver = ScheduleDriver::new(std::sync::Arc::new(RandomScheduler::new(3)), enactor);
    for _ in 0..3 {
        driver.place(&PlacementRequest::new().class(class, 1), &ctx).unwrap();
    }
    assert_eq!(
        cache_labels(&sink.spans()),
        vec![Some("miss".into()), Some("hit".into()), Some("hit".into())],
        "quiet Collection: one materializing miss, then epoch-validated hits"
    );

    // A tick refreshes every host record through the pull daemon; the
    // churn lands in the delta log, so the next serve patches.
    tb.tick(SimDuration::from_secs(1));
    driver.place(&PlacementRequest::new().class(class, 1), &ctx).unwrap();
    let labels = cache_labels(&sink.spans());
    assert_eq!(labels.last().unwrap().as_deref(), Some("patched"), "churn patches: {labels:?}");

    let stats = ctx.candidate_cache_stats();
    assert_eq!((stats.misses, stats.hits, stats.patched), (1, 2, 1));
    // Cached serves are still accounted queries: the ledger agrees with
    // the span stream, serve for serve.
    let delta = tb.fabric.metrics().snapshot().delta(&before);
    assert_eq!(delta.collection_queries, 4, "four serves, four accounted queries");
    let mismatches = reconcile_trace(&sink.rollup(), &delta);
    assert!(mismatches.is_empty(), "trace and ledger diverged: {mismatches:?}");
}

#[test]
fn trace_rollup_reconciles_with_the_metrics_ledger() {
    let tb = Testbed::build(TestbedConfig::wide(2, 3, 24));
    let class_a = tb.register_class("rec-a", 25, 64);
    let class_b = tb.register_class("rec-b", 40, 96);
    let sink = tb.fabric.enable_tracing();
    sink.clear();
    let before = tb.fabric.metrics().snapshot();

    let enactor = std::sync::Arc::new(Enactor::new(tb.fabric.clone()));
    let random: std::sync::Arc<dyn Scheduler> = std::sync::Arc::new(RandomScheduler::new(11));
    let irs: std::sync::Arc<dyn Scheduler> = std::sync::Arc::new(IrsScheduler::new(13, 3));
    for (scheduler, class, n) in [
        (std::sync::Arc::clone(&random), class_a, 2),
        (std::sync::Arc::clone(&irs), class_b, 3),
        (std::sync::Arc::clone(&random), class_b, 1),
    ] {
        ScheduleDriver::new(scheduler, std::sync::Arc::clone(&enactor))
            .place(&PlacementRequest::new().class(class, n), &tb.ctx())
            .unwrap();
    }

    let delta = tb.fabric.metrics().snapshot().delta(&before);
    let rollup = sink.rollup();
    let mismatches = reconcile_trace(&rollup, &delta);
    assert!(
        mismatches.is_empty(),
        "trace and ledger disagree:\n{}",
        reconciliation_report(&rollup, &delta)
    );
    // And the reconciliation actually covered real traffic.
    assert_eq!(rollup.ok_count(SpanKind::Episode), 3, "one Ok episode per placement");
    assert!(rollup.objects_started >= 6);
    assert!(delta.objects_started >= 6);
}

#[test]
fn latency_histograms_count_every_span_and_cost_is_visible() {
    let tb = Testbed::build(TestbedConfig::wide(2, 2, 25));
    let class = tb.register_class("hist", 25, 64);
    let sink = tb.fabric.enable_tracing();
    sink.clear();

    let spans = traced_place(&tb, std::sync::Arc::new(RandomScheduler::new(9)), class, 2);
    for kind in SpanKind::ALL {
        let expected = spans.iter().filter(|s| s.kind == kind).count() as u64;
        assert_eq!(
            sink.histogram(kind).count(),
            expected,
            "histogram[{kind:?}] must count exactly the closed spans"
        );
    }
    // The bed spans two domains, so message latency was charged to the
    // spans that sent the messages (the virtual clock itself does not
    // advance for messaging), and the rollup aggregates the same total.
    let charged: u64 = spans.iter().map(|s| s.charged.as_micros()).sum();
    assert!(charged > 0, "inter-domain traffic must charge span latency");
    assert_eq!(sink.rollup().charged_us, charged);
}

#[test]
fn concurrent_placements_keep_episodes_separate() {
    // The context stack is thread-local: four threads placing at once
    // must produce four clean, fully-closed episodes with no span
    // parented across threads, and the rollup must still reconcile.
    let tb = std::sync::Arc::new(Testbed::build(TestbedConfig::wide(2, 4, 26)));
    let class = tb.register_class("conc", 10, 16);
    let sink = tb.fabric.enable_tracing();
    sink.clear();
    let before = tb.fabric.metrics().snapshot();

    let episodes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let tb = std::sync::Arc::clone(&tb);
                scope.spawn(move || {
                    let enactor = Enactor::new(tb.fabric.clone());
                    let scheduler = RandomScheduler::new(100 + i);
                    let driver = ScheduleDriver::new(std::sync::Arc::new(scheduler), std::sync::Arc::new(enactor));
                    let report = driver
                        .place(&PlacementRequest::new().class(class, 1), &tb.ctx())
                        .expect("concurrent placement succeeds");
                    report.episode.unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(sink.open_spans(), 0, "every span closed despite interleaving");
    for &ep in &episodes {
        let spans = tb.fabric.tracer().episode_spans(ep);
        assert!(!spans.is_empty());
        for s in &spans {
            assert_eq!(s.episode, ep);
            // Parents stay inside the episode — the thread-local stack
            // never parented a span to another thread's work.
            if s.parent.is_some() {
                assert!(spans.iter().any(|p| p.id == s.parent), "cross-thread parent: {s:?}");
            }
        }
        let rollup = tb.fabric.tracer().rollup_for(ep);
        assert_eq!(rollup.ok_count(SpanKind::Episode), 1);
    }

    let delta = tb.fabric.metrics().snapshot().delta(&before);
    let rollup = sink.rollup();
    assert!(
        reconcile_trace(&rollup, &delta).is_empty(),
        "concurrent trace must still reconcile:\n{}",
        reconciliation_report(&rollup, &delta)
    );
}

#[test]
fn reserve_messages_charge_the_attempt_span() {
    use legion::fabric::reconcile::{reconcile_trace, reconciliation_report};

    // A co-allocation spanning four domains: each reservation message
    // is charged to the one ReserveAttempt span, so the attempt's
    // charged time is exactly one intra- plus three inter-domain hops.
    let tb = Testbed::build(TestbedConfig::wide(4, 2, 30));
    let class = tb.register_class("fanchg", 10, 16);
    tb.tick(SimDuration::from_secs(1));
    let sink = tb.fabric.enable_tracing();
    sink.clear();
    let before = tb.fabric.metrics().snapshot();

    let enactor = Enactor::new(tb.fabric.clone());
    // One host per domain: unix_hosts is domain-major, two per domain.
    let mappings: Vec<Mapping> = (0..4)
        .map(|d| {
            let host = &tb.unix_hosts[d * 2];
            Mapping::new(class, host.loid(), host.get_compatible_vaults()[0])
        })
        .collect();
    let fb = enactor.make_reservations(&ScheduleRequestList::single(mappings));
    assert!(fb.reserved());

    let spans = sink.spans();
    let attempt = spans
        .iter()
        .find(|s| s.kind == SpanKind::ReserveAttempt)
        .expect("one attempt span");
    let expected_us = 100 + 3 * 40_000; // intra hop + three inter hops
    assert_eq!(
        attempt.charged.as_micros(),
        expected_us,
        "every reservation message must charge the attempt span"
    );
    assert_eq!(sink.open_spans(), 0, "every span closed");

    // And the charging kept the books straight.
    let delta = tb.fabric.metrics().snapshot().delta(&before);
    let rollup = sink.rollup();
    assert!(
        reconcile_trace(&rollup, &delta).is_empty(),
        "the co-allocation trace must reconcile:\n{}",
        reconciliation_report(&rollup, &delta)
    );
}

#[test]
fn disabled_tracer_records_nothing_and_reports_no_episode() {
    let tb = Testbed::build(TestbedConfig::local(3, 27));
    let class = tb.register_class("off", 25, 64);
    // Tracing is off by default: the pipeline runs clean and unobserved.
    let enactor = Enactor::new(tb.fabric.clone());
    let scheduler = RandomScheduler::new(1);
    let driver = ScheduleDriver::new(std::sync::Arc::new(scheduler), std::sync::Arc::new(enactor));
    let report =
        driver.place(&PlacementRequest::new().class(class, 2), &tb.ctx()).unwrap();
    assert_eq!(report.placed.len(), 2);
    assert!(report.episode.is_none(), "disabled tracer mints no episodes");
    assert!(tb.fabric.tracer().spans().is_empty());
    assert_eq!(tb.fabric.tracer().rollup().total(), 0);
}
