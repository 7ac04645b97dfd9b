//! Every workload and metric the benchmark reports, with the layer each
//! metric belongs to and the end-to-end metric it is expected to move.
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! below keeps the two in step.

/// One named workload.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "churn-window",
        why: "NP chunker on a churning catalog under a 20k sliding window: Global EMD and window upkeep do nearly all the work",
    },
    WorkloadSpec {
        name: "deep-drift",
        why: "the paper's deep path (BiLSTM-CNN-CRF + phrase embedder) on a drifting finite stream: local inference dominates, finalize rescans all",
    },
    WorkloadSpec {
        name: "operated-burst",
        why: "trained CRF on a bursty stream run as operators do: supervisor, checkpoints every 8 batches, metrics, tracing and sentinel on",
    },
];

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Who measured a value: the harness around the layer's calls, or the
/// program about itself (`PhaseTimings`), which the harness only relays.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Source {
    Harness,
    Program,
}

impl Source {
    pub fn as_str(self) -> &'static str {
        match self {
            Source::Harness => "harness",
            Source::Program => "program",
        }
    }
}

/// One reported metric.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// Module of the program the metric describes.
    pub layer: &'static str,
    /// For an end-to-end metric, what it measures; for a layer metric,
    /// the end-to-end metric(s) and workload(s) a change there should move.
    pub note: &'static str,
    pub source: Source,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    note: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        layer: "end-to-end",
        note,
        source: Source::Harness,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    note: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        layer,
        note,
        source: Source::Harness,
    }
}

const fn program(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    note: &'static str,
) -> MetricSpec {
    MetricSpec {
        source: Source::Program,
        ..self::layer(name, unit, layer, note)
    }
}

const fn phase(name: &'static str, unit: &'static str) -> MetricSpec {
    program(
        name,
        unit,
        "emd-core::obs::PhaseTimings",
        "none: the program's phase totals overlap, so they explain wall time but do not add up to it",
    )
}

/// Printed with `--trace 0`: what a user of the pipeline sees.
pub const END_TO_END: &[MetricSpec] = &[
    e2e(
        "setup_s",
        "s",
        Better::Lower,
        0.25,
        "stream generation plus model construction or training",
    ),
    e2e(
        "throughput_sps",
        "1/s",
        Better::Higher,
        0.25,
        "sentences per second over the whole stream, finalize included",
    ),
    e2e(
        "batch_p50_ms",
        "ms",
        Better::Lower,
        0.25,
        "median per-batch service time",
    ),
    e2e(
        "batch_p95_ms",
        "ms",
        Better::Lower,
        0.25,
        "95th-percentile per-batch service time",
    ),
    e2e(
        "peak_rss_mb",
        "MB",
        Better::Lower,
        0.2,
        "peak resident set of the benchmark process",
    ),
    e2e(
        "mention_f1",
        "ratio",
        Better::Higher,
        0.05,
        "mention-level F1 of the emitted spans against the generator's gold",
    ),
    e2e(
        "delivered_frac",
        "ratio",
        Better::Higher,
        0.01,
        "sentences emitted over sentences offered (1 - quarantined/shed/dead-lettered share)",
    ),
];

/// Printed with `--trace 1`: the layers, measured from outside.
pub const PER_LAYER: &[MetricSpec] = &[
    layer(
        "local.busy_s",
        "s",
        "emd-local",
        "throughput_sps, batch_p50_ms on deep-drift",
    ),
    layer(
        "local.share",
        "ratio",
        "emd-local",
        "throughput_sps on deep-drift; ~0.11 on churn-window",
    ),
    layer(
        "local.us_per_sentence",
        "us",
        "emd-local",
        "batch_p50_ms on deep-drift",
    ),
    layer(
        "local.calls",
        "count",
        "emd-local",
        "throughput_sps on deep-drift",
    ),
    layer(
        "globalizer.batch_self_s",
        "s",
        "emd-core::globalizer",
        "throughput_sps, batch_p95_ms on churn-window",
    ),
    layer(
        "globalizer.batch_self_share",
        "ratio",
        "emd-core::globalizer",
        "throughput_sps on churn-window",
    ),
    layer(
        "globalizer.finalize_s",
        "s",
        "emd-core::globalizer",
        "throughput_sps on deep-drift (through finalize)",
    ),
    layer(
        "globalizer.rescanned_per_sentence",
        "ratio",
        "emd-core::globalizer",
        "throughput_sps on deep-drift (through finalize)",
    ),
    layer(
        "globalizer.promoted",
        "count",
        "emd-core::globalizer",
        "throughput_sps on deep-drift (through finalize)",
    ),
    layer(
        "globalizer.candidates",
        "count",
        "emd-core::globalizer",
        "throughput_sps on churn-window",
    ),
    layer(
        "globalizer.entities",
        "count",
        "emd-core::globalizer",
        "mention_f1 on every workload",
    ),
    layer(
        "state.live",
        "count",
        "emd-core::tweetbase",
        "peak_rss_mb on churn-window, operated-burst",
    ),
    layer(
        "state.evicted",
        "count",
        "emd-core::tweetbase",
        "throughput_sps on churn-window",
    ),
    layer(
        "state.dirty_at_close",
        "count",
        "emd-core::globalizer",
        "throughput_sps on churn-window, deep-drift (through finalize)",
    ),
    layer(
        "state.resident_mb",
        "MB",
        "emd-core::tweetbase",
        "peak_rss_mb on churn-window, operated-burst",
    ),
    layer(
        "state.resident_walk_ms",
        "ms",
        "emd-core::tweetbase",
        "throughput_sps on operated-burst (metrics walk it per batch)",
    ),
    layer(
        "state.clone_ms",
        "ms",
        "emd-core::globalizer",
        "throughput_sps, batch_p50_ms on operated-burst",
    ),
    layer(
        "pool.ns_per_candidate",
        "ns",
        "emd-core::candidatebase",
        "throughput_sps on churn-window",
    ),
    layer(
        "classify.ns_per_candidate",
        "ns",
        "emd-core::classifier",
        "throughput_sps on churn-window",
    ),
    layer(
        "phrase.ns_per_mention",
        "ns",
        "emd-core::phrase_embedder",
        "throughput_sps on deep-drift (deep-drift only)",
    ),
    layer(
        "supervisor.run_self_s",
        "s",
        "emd-core::supervisor",
        "throughput_sps, batch_p50_ms on operated-burst only",
    ),
    layer(
        "supervisor.clone_share",
        "ratio",
        "emd-core::supervisor",
        "throughput_sps on operated-burst only",
    ),
    layer(
        "supervisor.checkpoints",
        "count",
        "emd-core::supervisor",
        "batch_p95_ms on operated-burst",
    ),
    layer(
        "supervisor.retried",
        "count",
        "emd-core::supervisor",
        "batch_p95_ms on operated-burst",
    ),
    layer(
        "supervisor.dead_lettered",
        "count",
        "emd-core::supervisor",
        "delivered_frac on operated-burst",
    ),
    layer(
        "checkpoint.mb",
        "MB",
        "emd-resilience::checkpoint",
        "batch_p95_ms on operated-burst",
    ),
    layer(
        "checkpoint.save_ms",
        "ms",
        "emd-resilience::checkpoint",
        "batch_p95_ms on operated-burst",
    ),
    program(
        "checkpoint.write_share",
        "ratio",
        "emd-resilience::checkpoint",
        "throughput_sps, batch_p95_ms on operated-burst",
    ),
    layer(
        "checkpoint.load_kb",
        "KB",
        "emd-resilience::checkpoint",
        "none: restart time is outside the end-to-end set",
    ),
    layer(
        "checkpoint.load_ms",
        "ms",
        "emd-resilience::checkpoint",
        "none: restart time is outside the end-to-end set",
    ),
    layer(
        "checkpoint.load_exponent",
        "ratio",
        "emd-resilience::checkpoint",
        "none: restart time is outside the end-to-end set",
    ),
    layer(
        "trace.events_per_sentence",
        "count",
        "emd-trace",
        "throughput_sps on operated-burst; 0 elsewhere",
    ),
    layer(
        "trace.dropped",
        "count",
        "emd-trace",
        "none: must stay 0 on operated-burst",
    ),
    layer(
        "obs.render_ms",
        "ms",
        "emd-obs",
        "throughput_sps on operated-burst; 0 elsewhere",
    ),
    layer(
        "sentinel.transitions",
        "count",
        "emd-sentinel",
        "throughput_sps on operated-burst; 0 elsewhere",
    ),
    layer(
        "bench.wall_s",
        "s",
        "bench",
        "base of every share: median untraced pass wall time",
    ),
    layer(
        "bench.trace_overhead_pct",
        "%",
        "bench",
        "none: cost of the harness's own spans",
    ),
    layer(
        "bench.unattributed_share",
        "ratio",
        "bench",
        "none: wall time outside every layer span",
    ),
    phase("phase.local_infer_s", "s"),
    phase("phase.ingest_s", "s"),
    phase("phase.scan_s", "s"),
    phase("phase.pool_s", "s"),
    phase("phase.classify_s", "s"),
    phase("phase.promotion_s", "s"),
    phase("phase.emit_s", "s"),
    phase("phase.finalize_s", "s"),
    phase("phase.evict_s", "s"),
    phase("phase.sum_over_wall", "ratio"),
];

/// Print every workload and metric with its layer, its source, and what
/// it should move: the parts of the spec `BENCHMARK.json` has no room for.
pub fn print_list() {
    for w in WORKLOADS {
        println!("workload {}: {}", w.name, w.why);
    }
    for (mode, list) in [("--trace 0", END_TO_END), ("--trace 1", PER_LAYER)] {
        println!();
        println!("{mode}:");
        for m in list {
            let (bound, note) = match m.bound {
                Some(b) => (format!(", bound {b}"), m.note.to_string()),
                None => (String::new(), format!("moves {}", m.note)),
            };
            println!(
                "  {} [{}] {} is better{bound}; layer {}; measured by the {}; {note}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.layer,
                m.source.as_str(),
            );
        }
    }
}

/// The spec for `name` among `list`.
pub fn find<'a>(list: &'a [MetricSpec], name: &str) -> Option<&'a MetricSpec> {
    list.iter().find(|m| m.name == name)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Deserialize)]
    pub(crate) struct Benchmark {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<Workload>,
        pub(crate) end_to_end: Vec<EndToEnd>,
        pub(crate) per_layer: Vec<PerLayer>,
    }

    #[derive(Deserialize)]
    struct Workload {
        name: String,
        why: String,
    }

    #[derive(Deserialize)]
    pub(crate) struct EndToEnd {
        pub(crate) name: String,
        unit: String,
        better: String,
        bound: f64,
    }

    #[derive(Deserialize)]
    pub(crate) struct PerLayer {
        pub(crate) name: String,
        unit: String,
        better: String,
    }

    pub(crate) fn benchmark_json() -> Benchmark {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_lists_exactly_the_workloads() {
        let b = benchmark_json();
        assert_eq!(b.workloads.len(), WORKLOADS.len());
        for (j, s) in b.workloads.iter().zip(WORKLOADS) {
            assert_eq!(j.name, s.name);
            assert_eq!(j.why, s.why);
        }
        assert_eq!(b.paths, ["perfbench"]);
        assert!(b.command.iter().any(|a| a == "perfbench/Cargo.toml"));
        assert!((1..=60).contains(&b.run_seconds));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_end_to_end_metrics() {
        let b = benchmark_json();
        let names: Vec<&str> = b.end_to_end.iter().map(|m| m.name.as_str()).collect();
        let ours: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, ours);
        for j in &b.end_to_end {
            let s = find(END_TO_END, &j.name).unwrap();
            assert_eq!(j.unit, s.unit, "{}", j.name);
            assert_eq!(j.better, s.better.as_str(), "{}", j.name);
            assert_eq!(Some(j.bound), s.bound, "{}", j.name);
            assert!(j.bound > 0.0 && j.bound <= 0.25, "{}", j.name);
        }
        let setup = find(END_TO_END, "setup_s").unwrap();
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn benchmark_json_lists_exactly_the_per_layer_metrics() {
        let b = benchmark_json();
        let names: Vec<&str> = b.per_layer.iter().map(|m| m.name.as_str()).collect();
        let ours: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, ours);
        for j in &b.per_layer {
            let s = find(PER_LAYER, &j.name).unwrap();
            assert_eq!(j.unit, s.unit, "{}", j.name);
            assert_eq!(j.better, s.better.as_str(), "{}", j.name);
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all = END_TO_END.iter().chain(PER_LAYER);
        let mut seen = std::collections::HashSet::new();
        for m in all {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(m.unit.len() <= 16);
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200, "{}", w.name);
        }
    }
}
