//! The measured run: black box, tracing off, end-to-end metrics only.

use crate::bed::{Bed, BedKind};
use crate::runner::run_self;
use crate::spec::WINDOWS;
use crate::stats::{median, peak_rss_mb, percentile};
use std::time::Instant;

/// Set-ups per measured run. Set-up time is one sample per set-up, so a
/// run sets up this many times and reports the median.
pub const SET_UPS: usize = 3;

/// What one run hands back to `main`, which prints it.
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Output checks that did not hold; empty means correct.
    pub problems: Vec<String>,
}

pub struct Window {
    pub requests: u64,
    pub secs: f64,
    pub latencies_us: Vec<f64>,
}

/// Runs `request` back to back through [`WINDOWS`] windows of
/// `window_secs` each. `request` returns how many requests it completed
/// and their latency in microseconds per request. Window `k` ends at the
/// first request boundary past `k * window_secs` from the start, so the
/// windows together overrun `--seconds` by at most one request, and a
/// window's rate counts everything between two `submit` calls:
/// recycling, churn, the benchmark's own bookkeeping.
pub fn run_windows(window_secs: f64, mut request: impl FnMut() -> (u64, f64)) -> Vec<Window> {
    let mut windows = Vec::with_capacity(WINDOWS);
    let start = Instant::now();
    let mut opened = 0.0;
    for k in 1..=WINDOWS {
        let mut w = Window {
            requests: 0,
            secs: 0.0,
            latencies_us: Vec::with_capacity(1 << 20),
        };
        loop {
            let (n, latency_us) = request();
            w.requests += n;
            w.latencies_us.push(latency_us);
            let now = start.elapsed().as_secs_f64();
            if now >= k as f64 * window_secs {
                w.secs = now - opened;
                opened = now;
                break;
            }
        }
        windows.push(w);
    }
    windows
}

/// Rate and latency metrics: each the median over the windows.
pub fn window_metrics(windows: &mut [Window]) -> Vec<(&'static str, f64)> {
    let mut rates = Vec::new();
    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    for (i, w) in windows.iter_mut().enumerate() {
        w.latencies_us.sort_by(f64::total_cmp);
        let rate = w.requests as f64 / w.secs;
        let p50 = percentile(&w.latencies_us, 0.50);
        let p99 = percentile(&w.latencies_us, 0.99);
        println!(
            "window {}: {} requests in {:.3} s = {rate:.1}/s; p50 {p50:.3} us, p99 {p99:.3} us ({} latency samples)",
            i + 1,
            w.requests,
            w.secs,
            w.latencies_us.len()
        );
        rates.push(rate);
        p50s.push(p50);
        p99s.push(p99);
    }
    vec![
        ("placements_per_s", median(&mut rates)),
        ("place_p50_us", median(&mut p50s)),
        ("place_p99_us", median(&mut p99s)),
    ]
}

/// `peak_rss_mb` and `setup_s`, common to every workload.
pub fn process_metrics(set_ups: &mut [f64]) -> Vec<(&'static str, f64)> {
    println!("set-up times: {set_ups:.3?} s");
    vec![
        (
            "peak_rss_mb",
            peak_rss_mb().expect("VmHWM in /proc/self/status"),
        ),
        ("setup_s", median(set_ups)),
    ]
}

/// The flag that makes a run set its bed up, print the seconds that
/// took, and exit.
pub const SET_UP_ONLY: &str = "--set-up-only";

/// Sets `kind`'s bed up in a child process and returns the seconds it
/// took there.
///
/// Set-up time is one sample per build, and a build in a heap that has
/// held and dropped a bed already is not the build a user waits for:
/// the allocator hands the next bed the fragments of the last, and a
/// second 50,000-host set-up in one process takes two to three times
/// the first. So the extra samples come from fresh processes.
fn set_up_in_child(kind: BedKind, seed: u64) -> f64 {
    let seed = seed.to_string();
    let stdout =
        run_self(&["--workload", kind.name(), "--seed", &seed, SET_UP_ONLY]).expect("set-up child");
    let last = stdout
        .lines()
        .last()
        .expect("set-up child printed its time");
    last.parse().expect("set-up child's last line is seconds")
}

/// The child's side of [`set_up_in_child`].
pub fn set_up_only(kind: BedKind, seed: u64) -> ! {
    let start = Instant::now();
    let bed = Bed::set_up(kind, seed);
    println!("{}", start.elapsed().as_secs_f64());
    // Exit without tearing the bed down; nobody waits for that.
    std::mem::forget(bed);
    std::process::exit(0)
}

pub fn measured(kind: BedKind, seed: u64, seconds: f64) -> RunOutput {
    let mut set_ups: Vec<f64> = (1..SET_UPS).map(|_| set_up_in_child(kind, seed)).collect();
    let start = Instant::now();
    let mut bed = Bed::set_up(kind, seed);
    set_ups.push(start.elapsed().as_secs_f64());

    let mut windows = run_windows(seconds / WINDOWS as f64, || {
        (1, bed.request_black_box().as_secs_f64() * 1e6)
    });
    let mut metrics = window_metrics(&mut windows);
    metrics.extend(process_metrics(&mut set_ups));

    let cache = bed.cache_stats();
    let ledger = bed.ledger().delta(&bed.ledger_after_warm_up);
    println!(
        "measured run: {:?}; cache {cache:?}; {} collection updates, {} churn steps",
        bed.tally, ledger.collection_updates, bed.tally.churn_steps
    );
    RunOutput {
        attempted: bed.tally.submitted,
        failed: bed.tally.failed + bed.tally.rejected,
        metrics,
        problems: bed.check_outputs(),
    }
}
