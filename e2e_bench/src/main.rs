//! The repo's end-to-end benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, as BENCHMARK.json's driver calls it
//! e2e --all [--seed <n>] [--seconds <s>]                         every workload, measured and traced
//! e2e --repeat 2 [--seed <n>] [--seconds <s>]                    two full sets, the second held against the first
//! e2e --print-benchmark-json                                     the text of BENCHMARK.json
//! ```

mod affinity;
mod bed;
mod layers;
mod measure;
mod result;
mod runner;
mod sim;
mod spans;
mod spec;
mod stats;

use bed::BedKind;
use measure::RunOutput;
use result::RunResult;
use std::process::ExitCode;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{name}: cannot read `{v}`")),
    }
}

/// One run of one workload; prints the result line the driver reads.
fn run_one(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    args: &[String],
) -> Result<(), String> {
    let kind = BedKind::ALL.into_iter().find(|k| k.name() == workload);
    if kind.is_none() && workload != "sim_soak_5k" {
        return Err(format!("unknown workload `{workload}`"));
    }
    // Pin before anything is built, and report nothing if that fails.
    let pin = affinity::pin_to_first()?;
    println!(
        "workload {workload}, seed {seed}, {seconds} s, trace {}; pinned to CPU {} of {} allowed",
        u8::from(trace),
        pin.cpu,
        affinity::count(&pin.all)
    );
    if let (Some(kind), true) = (kind, args.iter().any(|a| a == measure::SET_UP_ONLY)) {
        measure::set_up_only(kind, seed);
    }
    let spans_out = flag(args, "--spans-out");
    let out = match (kind, trace) {
        (Some(kind), false) => measure::measured(kind, seed, seconds),
        (Some(kind), true) => layers::layered(kind, seed, seconds, &pin, spans_out.as_deref()),
        (None, false) => sim::measured(seed, seconds),
        (None, true) => sim::layered(seed, seconds),
    };
    print_result(&out, trace)
}

/// Prints every metric by name and unit, then the JSON result line.
fn print_result(out: &RunOutput, trace: bool) -> Result<(), String> {
    let value = |name: &str| {
        out.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    };
    let named: Vec<(&str, &str, f64)> = if trace {
        // A per-layer metric the workload has nothing to say about is 0.
        spec::PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, value(m.name).unwrap_or(0.0)))
            .collect()
    } else {
        spec::END_TO_END
            .iter()
            .map(|m| {
                Ok((
                    m.name,
                    m.unit,
                    value(m.name).ok_or(format!("{} not measured", m.name))?,
                ))
            })
            .collect::<Result<_, String>>()?
    };
    for problem in &out.problems {
        eprintln!("WRONG OUTPUT: {problem}");
    }
    for (name, unit, v) in &named {
        if !v.is_finite() {
            return Err(format!("{name} is {v}"));
        }
        println!("{name} = {v} {unit}");
    }
    let result = RunResult {
        correct: out.problems.is_empty(),
        attempted: out.attempted,
        failed: out.failed,
        metrics: named
            .iter()
            .map(|(n, u, v)| (n.to_string(), *v, u.to_string()))
            .collect(),
    };
    println!("{}", result.to_line());
    Ok(())
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed: u64 = parsed(&args, "--seed", 1)?;
    let seconds: f64 = parsed(&args, "--seconds", spec::RUN_SECONDS as f64)?;
    if !(1.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds {seconds}: between 1 and 60"));
    }
    if args.iter().any(|a| a == "--print-benchmark-json") {
        print!("{}", spec::benchmark_json());
        Ok(true)
    } else if let Some(workload) = flag(&args, "--workload") {
        let trace = match parsed(&args, "--trace", 0u8)? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace {other}: 0 or 1")),
        };
        run_one(&workload, seed, seconds, trace, &args)?;
        Ok(true)
    } else if args.iter().any(|a| a == "--all") {
        runner::all(seed, seconds)
    } else if let Some(sets) = flag(&args, "--repeat") {
        let sets = sets
            .parse()
            .map_err(|_| format!("--repeat: cannot read `{sets}`"))?;
        runner::repeat(sets, seed, seconds)
    } else {
        Err("usage: e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> | --all | --repeat 2 | --print-benchmark-json".into())
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("e2e: {why}");
            ExitCode::from(2)
        }
    }
}
