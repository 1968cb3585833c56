//! `--all` and `--repeat`: one child process per run, so that peak
//! memory is per workload and one workload's heap cannot shape the
//! next one's.

use crate::result::RunResult;
use crate::spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::{Command, Stdio};

/// Runs this executable with `args` and returns what it printed; an
/// error if it could not start or did not exit with success.
pub fn run_self(args: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {args:?}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if out.status.success() {
        Ok(stdout)
    } else {
        print!("{stdout}");
        Err(format!("child {args:?}: {}", out.status))
    }
}

/// Runs one workload in a child and returns its result. The child pins
/// itself and exits without a result if it cannot, which surfaces here
/// as an error: an unpinned number is never reported.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let (seed, seconds) = (seed.to_string(), seconds.to_string());
    let trace = if trace { "1" } else { "0" };
    let stdout = run_self(&[
        "--workload",
        workload,
        "--seed",
        &seed,
        "--seconds",
        &seconds,
        "--trace",
        trace,
    ])?;
    for line in stdout.lines() {
        println!("    {line}");
    }
    stdout
        .lines()
        .last()
        .and_then(RunResult::from_line)
        .ok_or(format!("{workload}: child printed no result line"))
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

fn header(seed: u64, seconds: f64) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "commit {}, seed {seed}, {seconds} s per run in {} windows, nproc {nproc}, every run pinned to one CPU",
        commit(),
        crate::spec::WINDOWS
    );
}

/// One measured and one traced run of every workload.
pub fn all(seed: u64, seconds: f64) -> Result<bool, String> {
    header(seed, seconds);
    let mut correct = true;
    for w in &WORKLOADS {
        for trace in [false, true] {
            println!("== {} (trace {}) ==", w.name, u8::from(trace));
            let r = child(w.name, seed, seconds, trace)?;
            if !r.correct {
                println!(
                    "!! {} (trace {}): output checks failed",
                    w.name,
                    u8::from(trace)
                );
                correct = false;
            }
        }
    }
    Ok(correct)
}

/// By how much `other` is worse than `first`, as a share of `first`;
/// negative when it is better.
fn worse_by(first: f64, other: f64, better: Better) -> f64 {
    if first == other {
        return 0.0;
    }
    match better {
        Better::Lower => (other - first) / first.abs(),
        Better::Higher => (first - other) / first.abs(),
    }
}

/// Runs `sets` full sets and holds each later one against the first, by
/// the rule a change is held to: no end-to-end metric worse by more
/// than its bound, and exact counts exactly the same.
pub fn repeat(sets: usize, seed: u64, seconds: f64) -> Result<bool, String> {
    if sets < 2 {
        return Err("--repeat: at least 2 sets".into());
    }
    header(seed, seconds);
    let mut measured = Vec::new();
    let mut traced = Vec::new();
    let mut ok = true;
    for set in 0..sets {
        for w in &WORKLOADS {
            println!("== set {}: {} ==", set + 1, w.name);
            measured.push(child(w.name, seed, seconds, false)?);
            traced.push(child(w.name, seed, seconds, true)?);
        }
    }
    ok &= measured.iter().chain(&traced).all(|r| r.correct);

    println!("\nworkload metric first other worse_by bound verdict");
    for (wi, w) in WORKLOADS.iter().enumerate() {
        let at = |set: usize| set * WORKLOADS.len() + wi;
        let (first, first_traced) = (&measured[at(0)], &traced[at(0)]);
        for set in 1..sets {
            let (other, other_traced) = (&measured[at(set)], &traced[at(set)]);
            for m in &END_TO_END {
                let (a, b) = (
                    first.value(m.name).unwrap_or(0.0),
                    other.value(m.name).unwrap_or(0.0),
                );
                let worse = worse_by(a, b, m.better);
                let within = worse <= m.bound;
                ok &= within;
                println!(
                    "{} {} {a} {b} {worse:+.4} {} {}",
                    w.name,
                    m.name,
                    m.bound,
                    if within { "within" } else { "WORSE" }
                );
            }
            for m in PER_LAYER.iter().filter(|m| m.exact) {
                let (a, b) = (first_traced.value(m.name), other_traced.value(m.name));
                if a != b {
                    ok = false;
                    println!("{} {} {a:?} {b:?} exact count DIFFERS", w.name, m.name);
                }
            }
        }
    }
    println!(
        "{}",
        if ok {
            "all sets agree"
        } else {
            "SETS DISAGREE"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metric_s_direction() {
        assert_eq!(worse_by(100.0, 110.0, Better::Lower), 0.10);
        assert_eq!(worse_by(100.0, 110.0, Better::Higher), -0.10);
        assert_eq!(worse_by(100.0, 90.0, Better::Higher), 0.10);
        assert_eq!(worse_by(0.0, 0.0, Better::Lower), 0.0);
    }
}
