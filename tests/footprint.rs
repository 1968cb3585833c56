//! Bytes and allocations per host, counted exactly.
//!
//! A counting global allocator measures the live heap before and after
//! each phase of a bed's life on 2,000 Unix hosts: building the bed
//! (hosts plus the Collection pull that describes them), the first
//! candidate serve, one start + destroy pass over every host (what the
//! end-to-end benchmark does before it measures anything), and one
//! reassessment of every host with a changed load pulled back into the
//! Collection (what each of the benchmark's churn steps does), and what
//! a record superseded by such a refresh retains while a change log
//! still holds it (the churn benchmark logs 65,536 deltas). Further
//! start + destroy passes, to 64 and then 256 per host, show that what a
//! host retains does not grow with the placements it has served. Last,
//! every host is given the 256 long reservations each host of the
//! co-allocation benchmark holds. The figures are a property of the data
//! layout, not of the machine, so they repeat exactly from run to run and
//! the guard below can be tight.
//!
//! Run `cargo test --release --test footprint -- --nocapture` to print
//! the phase table.

#![allow(unsafe_code)]

use legion::apps::{Testbed, TestbedConfig};
use legion::collection::{Collection, DataCollectionDaemon};
use legion::core::{
    HostObject, Loid, LoidKind, Placement, ReservationRequest, SimDuration, SimTime,
};
use legion::hosts::BackgroundLoad;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::Arc;

/// The `System` allocator, counting live bytes and allocation calls.
struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// statistics and never affect what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's guarantees.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's guarantees.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded with the caller's guarantees.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE_BYTES.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const HOSTS: usize = 2_000;

/// Live bytes and allocation calls at one instant.
#[derive(Clone, Copy)]
struct Mark {
    live: isize,
    allocations: usize,
}

impl Mark {
    fn now() -> Mark {
        Mark {
            live: LIVE_BYTES.load(Ordering::Relaxed),
            allocations: ALLOCATIONS.load(Ordering::Relaxed),
        }
    }

    /// (live bytes gained, allocation calls made) per host since `self`.
    fn per_host(self) -> (isize, usize) {
        let now = Mark::now();
        (
            (now.live - self.live) / HOSTS as isize,
            (now.allocations - self.allocations) / HOSTS,
        )
    }
}

#[test]
fn bytes_per_host_stay_within_budget() {
    let start = Mark::now();
    let tb = Testbed::build(TestbedConfig::local(HOSTS, 7));
    let (built, built_allocs) = start.per_host();

    // The Collection's share of the build: the same pull into a second,
    // empty Collection, dropped again afterwards.
    let pull = {
        let start = Mark::now();
        let daemon = DataCollectionDaemon::new(Collection::new(1));
        for h in &tb.unix_hosts {
            daemon.track_host(Arc::clone(h) as Arc<dyn HostObject>);
        }
        daemon.pull_once(SimTime::ZERO);
        let pull = start.per_host();
        drop(daemon);
        pull
    };

    let class = tb.register_class("footprint", 1, 1);
    let ctx = tb.ctx();
    let report = ctx.class_report(class).expect("class registered");
    let start = Mark::now();
    let served = ctx
        .shared_candidates_for(&report, None)
        .expect("candidate query");
    assert_eq!(served.len(), HOSTS);
    drop(served);
    let (serve, serve_allocs) = start.per_host();

    // One start + destroy per host, as the benchmark's set-up does.
    let class_obj = tb.fabric.lookup_class(class).expect("class registered");
    let now = tb.fabric.clock().now();
    let pass = || {
        for host in &tb.unix_hosts {
            let vault = host.get_compatible_vaults()[0];
            let request =
                ReservationRequest::instantaneous(class, vault, SimDuration::from_secs(3600))
                    .with_demand(report.cpu_centis, report.memory_mb);
            let token = host
                .make_reservation(&request, now)
                .expect("idle host grants");
            let placement = Placement {
                host: host.loid(),
                vault,
                token,
            };
            let instance = class_obj
                .create_instance(Some(placement), &*tb.fabric)
                .expect("reserved host starts");
            class_obj
                .destroy_instance(instance, &*tb.fabric)
                .expect("destroy own instance");
        }
    };
    let start = Mark::now();
    pass();
    let (aged, aged_allocs) = start.per_host();

    // More passes, to 64 and then 256 per host. Bytes are retained since
    // before the first pass; allocations are per pass.
    let mut served = 1;
    let mut serve_to = |passes: usize| {
        while served < passes {
            pass();
            served += 1;
        }
        let (bytes, allocs) = start.per_host();
        (bytes, allocs / passes)
    };
    let (aged_64, aged_64_allocs) = serve_to(64);
    let (aged_256, aged_256_allocs) = serve_to(256);

    // Every host's load moves and it reassesses, then the bed's daemon
    // pulls them all: one `replace` of a changed record per host, which
    // is what the benchmark's churn steps do.
    for host in &tb.unix_hosts {
        host.set_background_load(BackgroundLoad::steady(0.5));
    }
    let later = tb.fabric.clock().advance(SimDuration::from_secs(1));
    let start = Mark::now();
    for host in &tb.unix_hosts {
        host.reassess(later);
    }
    assert_eq!(tb.daemon.pull_once(later), HOSTS);
    let (repulled, repulled_allocs) = start.per_host();

    // A record the store has moved past lives on in the change log for
    // as long as the log keeps its delta. A logging Collection takes
    // every host in, and each host then reassesses with a changed load
    // and is pulled again, so the log holds one superseded and one
    // current record per host. Dropping the log frees the superseded
    // records and the log's slots; dropping a log of as many slots, all
    // of them holding current records, frees the slots alone. The
    // difference is what one superseded, logged record retains.
    let logged = {
        let collection = Collection::new(2);
        collection.enable_deltas(2 * HOSTS);
        let daemon = DataCollectionDaemon::new(Arc::clone(&collection));
        for h in &tb.unix_hosts {
            daemon.track_host(Arc::clone(h) as Arc<dyn HostObject>);
        }
        daemon.pull_once(later);
        for host in &tb.unix_hosts {
            host.set_background_load(BackgroundLoad::steady(0.25));
        }
        let latest = tb.fabric.clock().advance(SimDuration::from_secs(1));
        for host in &tb.unix_hosts {
            host.reassess(latest);
        }
        assert_eq!(daemon.pull_once(latest), HOSTS);
        let drop_log = || {
            let before = Mark::now();
            collection.enable_deltas(2 * HOSTS);
            before.live - Mark::now().live
        };
        let records_and_slots = drop_log();
        for _ in 0..2 * HOSTS {
            collection.join(Loid::fresh(LoidKind::Host), latest);
        }
        (records_and_slots - drop_log()) / HOSTS as isize
    };

    // Last, so that no row above moves: every host holds 256 long
    // zero-demand reservations, as the co-allocation benchmark's hosts do.
    let start = Mark::now();
    assert_eq!(tb.preload_reservations(256, class), 256 * HOSTS);
    let (held, held_allocs) = start.per_host();

    println!("phase                     bytes/host  allocations/host");
    println!("bed build (hosts + pull)  {built:>10}  {built_allocs:>16}");
    println!("  of which the pull       {:>10}  {:>16}", pull.0, pull.1);
    println!("first candidate serve     {serve:>10}  {serve_allocs:>16}");
    println!("start + destroy pass      {aged:>10}  {aged_allocs:>16}");
    println!("  after 64 passes         {aged_64:>10}  {aged_64_allocs:>16}");
    println!("  after 256 passes        {aged_256:>10}  {aged_256_allocs:>16}");
    println!("reassess + pull           {repulled:>10}  {repulled_allocs:>16}");
    println!("logged refresh (deltas on){logged:>10}");
    println!("256 held reservations     {held:>10}  {held_allocs:>16}");

    // With one `BTreeMap<String, AttrValue>` per copy of a host's
    // attributes, an object map that keeps its emptied node, and three
    // owned copies of every distinct indexed string, this table read:
    //
    //   bed build (hosts + pull)        9933               167
    //     of which the pull             6569                92
    //   first candidate serve            152                 2
    //   start + destroy pass            3024               135
    //
    // With one compact attribute record per host and an object table
    // freed when idle, but a reservation table that kept every token,
    // live or dead, whole in a `BTreeMap`:
    //
    //   bed build (hosts + pull)        4884                44
    //     of which the pull             2941                17
    //   first candidate serve            152                 2
    //   start + destroy pass            1688                15
    //
    // With a reservation table that keeps only live tokens whole, but a
    // Collection that re-indexed every attribute of a changed record —
    // the host's name and LOID text, their trigram postings, its vault
    // list — on every pull:
    //
    //   bed build (hosts + pull)        4916                44
    //     of which the pull             2941                17
    //   first candidate serve            152                 2
    //   start + destroy pass              96                16
    //   reassess + pull                  739                21
    //
    // With a Collection that re-indexes only what moved, but admission
    // that walked every live token and a reserve that copied the host's
    // attributes to check them:
    //
    //   bed build (hosts + pull)        4853                44
    //     of which the pull             2878                17
    //   first candidate serve            152                 2
    //   start + destroy pass              96                16
    //   reassess + pull                  744                 6
    //
    // With admission from held sums, but a reservation table that kept
    // each dead token as a 24-byte record in a vector whose buffer, grown
    // to 64 slots, outlived every compaction:
    //
    //   bed build (hosts + pull)        4901                44
    //     of which the pull             2878                17
    //   first candidate serve            152                 2
    //   start + destroy pass              96                15
    //     after 64 passes               1536                14
    //     after 256 passes              1536                14
    //   reassess + pull                  744                 6
    //
    // With dead tokens kept in two bits each, but a Collection split into
    // eight locked shards, each interning the attribute values it held
    // and their trigram postings:
    //
    //   bed build (hosts + pull)        4949                44
    //     of which the pull             2878                17
    //   first candidate serve            152                 2
    //   start + destroy pass              32                15
    //     after 64 passes                 32                14
    //     after 256 passes                32                14
    //   reassess + pull                  744                 6
    //
    // With one store, but hosts that published their LOID text as an
    // attribute, and a `BTreeSet` of value ids for every trigram:
    //
    //   bed build (hosts + pull)        4445                39
    //     of which the pull             2374                13
    //   first candidate serve            152                 2
    //   start + destroy pass              32                15
    //   reassess + pull                  744                 6
    //
    // With no LOID attribute and trigram postings as sorted id vectors,
    // but spans that formatted LOID text even when tracing was off, and
    // a reservation table that kept each live token whole (144 bytes,
    // three LOIDs and the tag):
    //
    //   bed build (hosts + pull)        3778                30
    //     of which the pull             1754                 7
    //   first candidate serve            152                 2
    //   start + destroy pass              32                15
    //     after 64 passes                 32                14
    //     after 256 passes                32                14
    //   reassess + pull                  704                 6
    //   256 held reservations          37288                 9
    //
    // With live tokens in 48 bytes, but a host description copied whole
    // — all 15 attributes, name and vault list included — into every
    // snapshot a pull took, every record the Collection stored and so
    // every record its change log kept:
    //
    //   bed build (hosts + pull)        3778                30
    //     of which the pull             1754                 7
    //   first candidate serve            152                 1
    //   start + destroy pass              32                12
    //     after 64 passes                 32                11
    //     after 256 passes                32                11
    //   reassess + pull                  704                 6
    //   logged refresh (deltas on)       704
    //   256 held reservations          12712                 9
    // The host and the Collection's record share one Info part.
    assert!(built <= 3_400, "{built} B per host after the build");
    // One store interns each attribute value once, and posts its id once
    // under each distinct trigram, in a sorted id vector.
    assert!(pull.0 <= 1_400, "{} B per host in the pull", pull.0);
    assert!(pull.1 <= 5, "{} allocations per host in the pull", pull.1);
    assert!(
        aged <= 64,
        "{aged} B per host retained by a start + destroy pass"
    );
    // What a host retains follows what it holds, not what it has served.
    assert!(
        (aged_64 - aged_256).abs() <= 16,
        "{aged_64} B per host after 64 passes, {aged_256} B after 256"
    );
    assert!(
        aged_64.max(aged_256) <= aged + 32,
        "{aged_64} / {aged_256} B per host after 64 / 256 passes, {aged} B after one"
    );
    // Span attributes are formatted only when a span records, and an
    // instance's copy of its host's attributes allocates nothing.
    assert!(
        aged_allocs <= 10,
        "{aged_allocs} allocations per start + destroy"
    );
    // A refresh copies no Info, and re-indexes only the State values
    // that moved: 160 B and 2 allocations today.
    assert!(repulled <= 320, "{repulled} B per host per reassess + pull");
    assert!(
        repulled_allocs <= 3,
        "{repulled_allocs} allocations per reassess + pull"
    );
    // A superseded record shares its Info part with its successor.
    assert!(logged <= 256, "{logged} B per superseded, logged record");
    // A live entry keeps 48 bytes of its token: 256 of them in a 12 KiB
    // list, beside the window edges' map.
    assert!(
        held <= 12_800,
        "{held} B per host for 256 held reservations"
    );
}
