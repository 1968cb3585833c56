//! Quickstart: the Fig. 3 pipeline end to end.
//!
//! Builds a two-domain metacomputing testbed, registers an application
//! class, computes a schedule with the stock Random scheduler (Fig. 7),
//! lets the Enactor obtain reservations and instantiate the objects,
//! and prints what happened at each step.
//!
//! Run with: `cargo run --example quickstart`

use legion::prelude::*;

fn main() {
    // Step 0: a metacomputing fabric — 2 administrative domains, 4 Unix
    // hosts each, one vault per domain, a Collection populated by the
    // Data Collection Daemon (step 1 of Fig. 3).
    let tb = Testbed::build(TestbedConfig::wide(2, 4, 42));
    println!(
        "testbed: {} hosts across {} domains, Collection holds {} records",
        tb.host_count(),
        tb.config().domains,
        tb.collection.len()
    );

    // An application class: instances need a quarter CPU and 64 MB.
    let class = tb.register_class("hello-legion", 25, 64);
    println!("registered class {class}");

    // Steps 2-3: the Scheduler queries the Collection for hosts that can
    // run the class's implementations.
    let ctx = tb.ctx();
    let report = ctx.class_report(class).expect("class is registered");
    let candidates = ctx.shared_candidates_for(&report, None).expect("query succeeds");
    println!("collection query found {} candidate hosts", candidates.len());

    // Turn on pipeline tracing so the placement below is captured as a
    // span tree (one episode per ScheduleDriver::place call).
    let sink = tb.fabric.enable_tracing();

    // Compute the schedule (Fig. 7 random policy) and drive it through
    // the Enactor (steps 4-11) with the Fig. 9 retry wrapper.
    let scheduler = RandomScheduler::new(7);
    let enactor = Enactor::new(tb.fabric.clone());
    let driver = ScheduleDriver::new(std::sync::Arc::new(scheduler), std::sync::Arc::new(enactor));
    let request = PlacementRequest::new().class(class, 6);
    let outcome = driver.place(&request, &ctx).expect("placement succeeds");

    println!("\nplaced {} instances:", outcome.placed.len());
    for (mapping, instance) in &outcome.placed {
        println!("  instance {instance} on host {} (vault {})", mapping.host, mapping.vault);
    }
    println!(
        "\ngenerations: {}, reservation rounds: {}",
        outcome.generations, outcome.reservation_rounds
    );

    let m = tb.fabric.metrics().snapshot();
    println!(
        "fabric cost: {} messages, {} reservation calls ({} granted), {} collection queries",
        m.messages, m.reservation_requests, m.reservations_granted, m.collection_queries
    );

    // The same placement, replayed from the trace: the episode's span
    // tree and the per-stage latency histograms.
    let episode = outcome.episode.expect("tracing was enabled");
    println!("\n--- traced episode ---\n{}", legion::trace::episode_report(&sink, episode));
    println!("{}", legion::trace::latency_report(&sink));

    // Export the full trace as JSON ("legion-trace/v1") for tooling;
    // CI smoke-validates this file against the schema.
    let json = legion::trace::trace_json(&sink);
    let path = std::env::var("LEGION_TRACE_OUT")
        .unwrap_or_else(|_| "target/quickstart-trace.json".into());
    match std::fs::write(&path, &json) {
        Ok(()) => println!("trace exported to {path} ({} bytes)", json.len()),
        Err(e) => println!("trace export to {path} failed: {e}"),
    }
}
