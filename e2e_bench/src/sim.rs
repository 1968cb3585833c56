//! `sim_soak_5k`: the chaos soak on the discrete-event substrate.
//!
//! One request is one soak repetition of [`EPISODES`] episodes; episodes
//! interleave in virtual time, so the only wall-clock latency there is
//! to report is a repetition's wall time per episode. Every repetition
//! builds its own 3x4 bed inside `run_chaos_soak` and must come back
//! with the same completions, failures and event count.

use crate::bed::LOID_LANE;
use crate::layers::ledger_ratios;
use crate::measure::{process_metrics, run_windows, window_metrics, RunOutput, SET_UPS};
use crate::spec::WINDOWS;
use crate::stats::{mean, ratio};
use legion::apps::{run_chaos_soak, SimSoakConfig, SimSoakReport};
use legion::core::{Loid, ReplayGuard, SimDuration};
use std::time::Instant;

const EPISODES: usize = 5_000;
const ARRIVAL_GAP_SECS: u64 = 3;

fn config(seed: u64, trace: bool) -> SimSoakConfig {
    let mut cfg = SimSoakConfig::seeded(seed)
        .with_episodes(EPISODES, SimDuration::from_secs(ARRIVAL_GAP_SECS));
    // Maintenance ticks (and the fault plan inside them) must cover
    // every arrival plus the last episode's retries and dwell.
    cfg.horizon = SimDuration::from_secs(EPISODES as u64 * ARRIVAL_GAP_SECS + 600);
    cfg.trace = trace;
    cfg
}

/// Repeats the soak and checks each repetition against the first.
struct Soak {
    seed: u64,
    /// Every repetition allocates the same LOIDs (see `LOID_LANE`).
    lane: ReplayGuard,
    first: Option<SimSoakReport>,
    repetitions: u64,
    problems: Vec<String>,
}

impl Soak {
    fn new(seed: u64) -> Soak {
        Soak {
            seed,
            lane: Loid::replay_guard(),
            first: None,
            repetitions: 0,
            problems: Vec::new(),
        }
    }

    /// One repetition; returns its wall time in seconds.
    fn repeat(&mut self, trace: bool) -> f64 {
        self.lane.rebase(LOID_LANE);
        let start = Instant::now();
        let report = run_chaos_soak(&config(self.seed, trace)).expect("soak ran to quiescence");
        let secs = start.elapsed().as_secs_f64();
        self.repetitions += 1;
        if report.submitted != report.completed + report.failed {
            self.problems.push(format!(
                "{} episodes submitted, {} completed + {} failed",
                report.submitted, report.completed, report.failed
            ));
        }
        match &self.first {
            None => self.first = Some(report),
            Some(first) => {
                let same = report.completed == first.completed
                    && report.failed == first.failed
                    && report.stats == first.stats
                    && report.metrics == first.metrics;
                if !same {
                    self.problems.push(format!(
                        "repetition {} differs from the first",
                        self.repetitions
                    ));
                }
            }
        }
        secs
    }

    fn first(&self) -> &SimSoakReport {
        self.first.as_ref().expect("at least one repetition ran")
    }
}

pub fn measured(seed: u64, seconds: f64) -> RunOutput {
    let mut soak = Soak::new(seed);
    // Set-up is one discarded repetition: thread stacks, allocator
    // arenas and page cache reach their working state.
    let mut set_ups: Vec<f64> = (0..SET_UPS).map(|_| soak.repeat(false)).collect();
    let discarded = soak.repetitions;

    let mut windows = run_windows(seconds / WINDOWS as f64, || {
        (EPISODES as u64, soak.repeat(false) * 1e6 / EPISODES as f64)
    });
    let mut metrics = window_metrics(&mut windows);
    metrics.extend(process_metrics(&mut set_ups));

    let measured = soak.repetitions - discarded;
    let first = soak.first();
    println!(
        "{measured} measured repetitions, each {} completed + {} failed, {:?}",
        first.completed, first.failed, first.stats
    );
    RunOutput {
        attempted: measured * first.submitted,
        failed: measured * first.failed,
        metrics,
        problems: soak.problems,
    }
}

/// The traced run: simulator counters, ledger ratios per episode, and
/// what the program's own tracing costs a repetition.
pub fn layered(seed: u64, seconds: f64) -> RunOutput {
    let mut soak = Soak::new(seed);
    soak.repeat(false);
    let start = Instant::now();
    let mut off = Vec::new();
    while off.len() < 2 || start.elapsed().as_secs_f64() < seconds / 2.0 {
        off.push(soak.repeat(false));
    }
    let on = [soak.repeat(true), soak.repeat(true)];
    let (off_secs, on_secs) = (mean(&off), mean(&on));
    println!(
        "{} repetitions untraced, mean {off_secs:.4} s; 2 with program tracing and export, mean {on_secs:.4} s",
        off.len()
    );

    let first = soak.first();
    let episodes = first.submitted;
    let mut metrics = ledger_ratios(&first.metrics, episodes);
    metrics.extend([
        ("failed_share", ratio(first.failed, episodes)),
        ("sim.events_per_s", first.stats.events as f64 / off_secs),
        (
            "sim.events_per_episode",
            ratio(first.stats.events, episodes),
        ),
        ("sim.tasks_spawned", first.stats.tasks as f64),
        ("sim.trace_on_over_off", on_secs / off_secs),
    ]);
    RunOutput {
        attempted: soak.repetitions * episodes,
        failed: soak.repetitions * first.failed,
        metrics,
        problems: soak.problems,
    }
}
