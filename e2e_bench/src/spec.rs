//! The benchmark's contract: workloads, metrics, bounds. `BENCHMARK.json`
//! at the repo root is rendered from these tables (a unit test keeps the
//! two identical), and later issues refer to workloads and metrics by
//! the names given here.

/// The directory, relative to the repo root, that holds the benchmark.
pub const DIR: &str = "e2e_bench";

/// How long one run measures, in seconds, and the back-to-back windows
/// it is cut into. Every rate and percentile is the median over the
/// windows: the box this runs on slows down for seconds at a time, and
/// a burst that spoils a few one-second windows leaves the median alone
/// where it would spoil one of three four-second windows outright.
pub const RUN_SECONDS: u64 = 12;
pub const WINDOWS: usize = 12;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "place_1k",
        why: "1,000 hosts, cache always hits: reserve + enact + host start are ~75% of a placement, \
              so Enactor/Host/Fabric/ingress work shows here and candidate-set work should not",
    },
    Workload {
        name: "place_50k",
        why: "same traffic on 50,000 hosts: a cache hit still re-filters every candidate, so \
              compute_schedule is ~80% of a placement; setup_s exposes the super-linear bed build",
    },
    Workload {
        name: "churn_10k",
        why: "writes beside reads: every 50 placements one region of 200 hosts is reassessed and \
              pulled, so 1 placement in 50 pays a delta patch (p99) while the rest are plain hits (p50)",
    },
    Workload {
        name: "coalloc_8x125",
        why: "the paper's mechanism: 8-instance co-allocation over 8 domains, IRS variants, 5% of hosts \
              blocked, 256-entry reservation tables; variant walk and backout set the p99",
    },
    Workload {
        name: "sim_soak_5k",
        why: "the same pipeline on the discrete-event substrate (thread-per-task baton sim, chaos, \
              wire waits as events): the only workload an event-core rewrite can move",
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The bounds are what the build box allows, not what one would wish:
/// it slows down by 10-20% for minutes at a time, and ten runs of one
/// commit have spread (quartile distance over median) by up to 0.25 on
/// the timing metrics in such a spell. A bound below the spread would
/// reject unchanged code.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "placements_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "place_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "place_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Counted by the program over a fixed number of requests (or one
    /// soak repetition), so two runs of one seed must agree exactly.
    pub exact: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

/// Reported, not gated. A metric that does not apply to a workload
/// (simulator metrics on a placement bed, span timings on the
/// simulator) reads 0 there.
pub const PER_LAYER: [PerLayer; 48] = [
    exact("failed_share", "share"),
    lower("ingress.admit_ns", "ns"),
    lower("ingress.conclude_ns", "ns"),
    exact("ingress.rejected_share", "share"),
    lower("ingress.submit_many_b64_w1_ns", "ns"),
    lower("ingress.submit_many_b64_w2_ns", "ns"),
    lower("schedulers.compute_schedule_ns", "ns"),
    lower("schedulers.compute_schedule_share", "share"),
    lower("schedulers.candidate_serve_hit_ns", "ns"),
    lower("schedulers.candidate_refresh_ns", "ns"),
    lower("schedulers.candidate_recompute_ns", "ns"),
    PerLayer {
        better: Better::Higher,
        ..exact("schedulers.cache_hit_share", "share")
    },
    exact("schedulers.cache_patched", "count"),
    exact("schedulers.cache_misses", "count"),
    exact("schedulers.cache_gap_resyncs", "count"),
    exact("schedulers.generations_per_placement", "count"),
    exact("schedulers.reservation_rounds_per_placement", "count"),
    lower("collection.pull_ns_per_host", "ns"),
    exact("collection.updates_per_churn", "count"),
    lower("collection.query_ns", "ns"),
    exact("collection.records_scanned_per_placement", "count"),
    exact("collection.queries_per_placement", "count"),
    lower("collection.churn_wall_share", "share"),
    lower("schedule.make_reservations_ns", "ns"),
    lower("schedule.enact_schedule_ns", "ns"),
    exact("schedule.schedules_attempted_per_reserved", "count"),
    exact("schedule.cancelled_per_granted", "count"),
    exact("schedule.thrash_per_placement", "count"),
    exact("schedule.backoffs_per_placement", "count"),
    exact("schedule.messages_per_placement", "count"),
    lower("hosts.make_reservation_ns", "ns"),
    lower("hosts.attributes_ns", "ns"),
    lower("hosts.reassess_ns", "ns"),
    lower("hosts.destroy_instance_ns", "ns"),
    lower("core.create_instance_ns", "ns"),
    lower("vaults.store_delete_opr_ns", "ns"),
    lower("fabric.link_ns", "ns"),
    lower("fabric.registry_ns", "ns"),
    exact("fabric.sim_latency_us_per_placement", "us"),
    lower("trace.enabled_over_disabled", "ratio"),
    lower("trace.spans_per_placement", "count"),
    lower("trace.export_ns_per_span", "ns"),
    higher("sim.events_per_s", "1/s"),
    exact("sim.events_per_episode", "count"),
    exact("sim.tasks_spawned", "count"),
    lower("sim.trace_on_over_off", "ratio"),
    lower("layers.sum_over_e2e", "ratio"),
    lower("bench.recorder_over_measured", "ratio"),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"{DIR}/Cargo.toml\", \"--bin\", \"e2e\", \"--\"],\n  \"paths\": [\"{DIR}\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_repo_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `e2e --print-benchmark-json`"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for n in names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200,
                "{}: why is {} characters",
                w.name,
                w.why.len()
            );
            assert!(
                !w.why.contains(['"', '\\', '\n']),
                "{}: why needs JSON escaping",
                w.name
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
