//! Seeded benchmark of the EMD Globalizer stream pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload churn-window --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One caller drives the pipeline closed-loop: the next batch goes in
//! when the previous `process_batch` (or the supervisor) returns. A run
//! sets the workload up, then repeats whole-stream passes until
//! `--seconds` have passed. `--trace 0` prints the end-to-end metrics,
//! measured with no harness spans; `--trace 1` alternates untraced and
//! traced passes and prints the per-layer metrics (see `spec.rs`). Both
//! check the output: every pass must emit the same digest, and the last
//! line on stdout is one JSON object with the verdict and the metrics.
//! The exit code is nonzero when a check fails.

mod replay;
mod spans;
mod spec;
mod stats;
mod workloads;

use emd_text::token::{AnnotatedSentence, Dataset, DatasetKind};
use spans::Span;
use spec::{MetricSpec, END_TO_END, PER_LAYER};
use stats::{median, min_samples_for, percentile, self_time, union_len};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Pass, Shape, Stream, Workload};

/// Set-ups per timed run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// The tail percentile reported for batch service time.
const TAIL_P: f64 = 0.95;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 30;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--list" {
            spec::print_list();
            std::process::exit(0);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
    })
}

/// Verdict and figures of one run.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    problems: Vec<String>,
    /// Output digest of each stream's first pass.
    digests: BTreeMap<usize, u64>,
    passes: usize,
}

impl Outcome {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Check one pass's output against its stream and earlier passes
    /// over the same stream.
    fn check_pass(&mut self, stream: &Stream, pass: &Pass) {
        let out = &pass.output;
        self.passes += 1;
        self.attempted += stream.sentences.len() as u64;
        self.failed += out.quarantined.len() as u64;
        let d = stats::digest(&out.per_sentence);
        let first = *self.digests.entry(pass.stream).or_insert(d);
        if first != d {
            self.problems.push(format!(
                "pass {} over stream {} has digest {d:016x}, its first pass had {first:016x}",
                self.passes, pass.stream
            ));
        }
        // A windowed pipeline emits only the sentences still in its window:
        // a suffix of the stream, quarantined sentences left out.
        let dropped: HashSet<_> = out.quarantined.iter().map(|q| q.sid).collect();
        let expected: Vec<_> = stream
            .sentences
            .iter()
            .map(|s| s.id)
            .filter(|id| !dropped.contains(id))
            .collect();
        let emitted: Vec<_> = out.per_sentence.iter().map(|(id, _)| *id).collect();
        if emitted.is_empty() || !expected.ends_with(&emitted) {
            self.problems.push(format!(
                "pass {} emitted sentences other than a suffix of the stream minus quarantine",
                self.passes
            ));
        }
        if let Some(op) = &pass.operated {
            if op.trace_dropped != 0 {
                self.problems
                    .push(format!("trace ring dropped {} events", op.trace_dropped));
            }
            if op.checkpoint_failures != 0 {
                self.problems.push(format!(
                    "{} checkpoint writes failed",
                    op.checkpoint_failures
                ));
            }
        }
    }

    /// The metrics of `specs`, in spec order; a missing, extra or
    /// non-finite metric is a problem.
    fn take_metrics(&mut self, specs: &'static [MetricSpec]) -> Vec<(&'static MetricSpec, f64)> {
        for name in self.metrics.keys() {
            if spec::find(specs, name).is_none() {
                self.problems
                    .push(format!("metric {name} is not in the spec"));
            }
        }
        let mut out = Vec::new();
        for m in specs {
            match self.metrics.get(m.name) {
                Some(v) if v.is_finite() => out.push((m, *v)),
                Some(v) => {
                    self.problems.push(format!("metric {} is {v}", m.name));
                    out.push((m, 0.0));
                }
                None => {
                    self.problems
                        .push(format!("metric {} was not measured", m.name));
                    out.push((m, 0.0));
                }
            }
        }
        out
    }
}

/// Mention-level F1 of the sentences a pass emitted, against their gold.
fn mention_f1(stream: &Stream, pass: &Pass) -> f64 {
    let gold: HashMap<_, _> = stream
        .sentences
        .iter()
        .zip(&stream.gold)
        .map(|(s, g)| (s.id, (s, g)))
        .collect();
    let sentences = pass
        .output
        .per_sentence
        .iter()
        .map(|(id, _)| {
            let (sentence, gold) = gold[id];
            AnnotatedSentence {
                sentence: sentence.clone(),
                gold: gold.clone(),
            }
        })
        .collect();
    let emitted = Dataset {
        name: String::new(),
        kind: DatasetKind::Streaming,
        n_topics: 0,
        sentences,
    };
    let preds: Vec<_> = pass
        .output
        .per_sentence
        .iter()
        .map(|(_, s)| s.clone())
        .collect();
    emd_eval::metrics::mention_prf(&emitted, &preds).f1
}

/// Peak resident set of this process, from the kernel's high-water mark.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `--trace 0`: set up several times, then time untraced passes.
fn timed_run(args: &Args, shape: Shape, out_dir: &Path) -> std::io::Result<Outcome> {
    let wl = args.workload;
    let mut o = Outcome::default();
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        drop(setup.take());
        let t = Instant::now();
        setup = Some(wl.setup(args.seed, shape));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (setup, first) = setup.expect("at least one set-up");
    let mut next = Some(first);

    // Every stream once, the first twice (so a repeat is checked), and on
    // until the time is up and the tail percentile has its samples.
    let streams = shape.streams as usize;
    let need_batches = min_samples_for(TAIL_P);
    // Throughput over all passes together: the machine's speed shifts
    // between runs of passes, and a median over passes jumps between
    // those speeds where a total moves smoothly with them.
    let (mut wall_ns, mut batches) = (0, Vec::new());
    let mut f1 = BTreeMap::new();
    let t0 = Instant::now();
    while o.passes <= streams || batches.len() < need_batches || t0.elapsed() < args.seconds {
        let k = o.passes % streams;
        let stream = next.take().unwrap_or_else(|| setup.stream(k));
        let p = workloads::pass(&setup, &stream, wl, shape, false, out_dir)?;
        o.check_pass(&stream, &p);
        f1.entry(k).or_insert_with(|| mention_f1(&stream, &p));
        wall_ns += p.wall_ns;
        batches.extend(p.batch_ns.iter().map(|&b| ms(b)));
    }
    let f1 = f1.values().sum::<f64>() / f1.len() as f64;
    if f1 <= 0.0 {
        o.problems.push(format!("mention F1 is {f1}"));
    }
    o.set("setup_s", median(&setup_s));
    o.set(
        "throughput_sps",
        (o.passes * shape.sentences) as f64 / secs(wall_ns),
    );
    if let Some(p50) = percentile(&batches, 0.5) {
        o.set("batch_p50_ms", p50);
    }
    if let Some(p95) = percentile(&batches, TAIL_P) {
        o.set("batch_p95_ms", p95);
    }
    if let Some(rss) = peak_rss_mb() {
        o.set("peak_rss_mb", rss);
    }
    o.set("mention_f1", f1);
    o.set("delivered_frac", 1.0 - o.failed as f64 / o.attempted as f64);
    eprintln!(
        "{}: {} passes over {streams} streams, {} batch samples, {} sentences per pass",
        wl.name(),
        o.passes,
        batches.len(),
        shape.sentences
    );
    Ok(o)
}

/// Layer figures of one traced pass, keyed by metric name.
fn traced_layers(wl: Workload, pass: &Pass) -> BTreeMap<&'static str, f64> {
    let calls: Vec<(u64, u64)> = pass
        .spans
        .iter()
        .filter(|s| s.name == "local.process")
        .map(Span::interval)
        .collect();
    let busy: u64 = calls.iter().map(|(s, e)| e - s).sum();
    let wall = pass.wall_ns as f64;
    let mut m = BTreeMap::new();
    m.insert("local.busy_s", secs(busy));
    m.insert("local.share", busy as f64 / wall);
    m.insert("local.calls", calls.len() as f64);
    m.insert(
        "local.us_per_sentence",
        busy as f64 / 1e3 / calls.len().max(1) as f64,
    );
    let top: Vec<&Span> = pass
        .spans
        .iter()
        .filter(|s| s.name != "local.process")
        .collect();
    let covered = union_len(&top.iter().map(|s| s.interval()).collect::<Vec<_>>());
    m.insert("bench.unattributed_share", 1.0 - covered as f64 / wall);
    let mut batch_self = 0;
    for s in top.iter().filter(|s| s.name == "globalizer.process_batch") {
        // Calls are recorded in order and never straddle a batch.
        let lo = calls.partition_point(|c| c.0 < s.start);
        let hi = calls.partition_point(|c| c.0 < s.end);
        batch_self += self_time(s.interval(), &calls[lo..hi]);
    }
    m.insert("globalizer.batch_self_s", secs(batch_self));
    m.insert("globalizer.batch_self_share", batch_self as f64 / wall);
    let run_self = top
        .iter()
        .filter(|s| s.name == "supervisor.run")
        .map(|s| self_time(s.interval(), &calls))
        .sum();
    m.insert("supervisor.run_self_s", secs(run_self));
    let finalize = match wl {
        Workload::OperatedBurst => pass.finalize_ns,
        _ => top
            .iter()
            .filter(|s| s.name == "globalizer.finalize")
            .map(|s| s.end - s.start)
            .sum(),
    };
    m.insert("globalizer.finalize_s", secs(finalize));
    m.insert("bench.traced_wall_s", secs(pass.wall_ns));
    m
}

/// `--trace 1`: alternate untraced and traced passes, then replay single
/// layers on the closing state.
fn traced_run(args: &Args, shape: Shape, out_dir: &Path) -> std::io::Result<Outcome> {
    let wl = args.workload;
    let mut o = Outcome::default();
    let (setup, mut stream) = wl.setup(args.seed, shape);
    let n = shape.sentences as f64;

    let mut untraced: Vec<Pass> = Vec::new();
    let mut layers: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut last_spans = Vec::new();
    let mut last_plain = None;
    // Untraced and traced passes alternate over the same stream, so each
    // pair's digests must agree.
    let t0 = Instant::now();
    while layers.len() < untraced.len() || layers.is_empty() || t0.elapsed() < args.seconds {
        let traced = untraced.len() > layers.len();
        let k = layers.len() % shape.streams as usize;
        if stream.index != k {
            stream = setup.stream(k);
        }
        let mut p = workloads::pass(&setup, &stream, wl, shape, traced, out_dir)?;
        o.check_pass(&stream, &p);
        if traced {
            layers.push(traced_layers(wl, &p));
            last_spans = std::mem::take(&mut p.spans);
        }
        if let Some(state) = p.state.take() {
            last_plain = Some((state, p.dirty_at_close));
        }
        if !traced {
            untraced.push(p);
        }
    }
    // Per-layer figures: the median over traced passes.
    for key in layers[0].keys() {
        let xs: Vec<f64> = layers.iter().map(|l| l[key]).collect();
        o.set(key, median(&xs));
    }
    let traced_wall = o.metrics.remove("bench.traced_wall_s").unwrap_or(0.0);
    let walls: Vec<f64> = untraced.iter().map(|p| secs(p.wall_ns)).collect();
    let wall = median(&walls);
    o.set("bench.wall_s", wall);
    o.set(
        "bench.trace_overhead_pct",
        (traced_wall / wall - 1.0) * 100.0,
    );

    // Program-reported phase totals, from the untraced passes. A phase
    // the program no longer reports reads 0 rather than failing the run.
    let pairs: Vec<Vec<(&str, u64)>> = untraced
        .iter()
        .map(|p| p.output.phase_timings.as_pairs())
        .collect();
    for m in PER_LAYER {
        let Some(phase) = m
            .name
            .strip_prefix("phase.")
            .and_then(|n| n.strip_suffix("_s"))
        else {
            continue;
        };
        let field = format!("{phase}_ns");
        let xs: Vec<f64> = pairs
            .iter()
            .map(|pp| {
                pp.iter()
                    .find(|(f, _)| *f == field)
                    .map_or(0.0, |(_, v)| secs(*v))
            })
            .collect();
        o.set(m.name, median(&xs));
    }
    let ratios: Vec<f64> = untraced
        .iter()
        .zip(&pairs)
        .map(|(p, pp)| pp.iter().map(|(_, v)| *v as f64).sum::<f64>() / p.wall_ns as f64)
        .collect();
    o.set("phase.sum_over_wall", median(&ratios));

    let last = untraced.last().expect("at least one untraced pass");
    let out = &last.output;
    o.set(
        "globalizer.rescanned_per_sentence",
        out.n_rescanned as f64 / n,
    );
    o.set("globalizer.promoted", out.n_promoted as f64);
    o.set("globalizer.candidates", out.n_candidates as f64);
    o.set("globalizer.entities", out.n_entities as f64);

    // The closing state: kept by the plain loops; the supervisor keeps its
    // own, so the operated workload replays the stream through a plain
    // loop, which must emit the same output.
    let (mut state, dirty) = match last_plain {
        Some(s) => s,
        None => {
            let mut p = workloads::plain_pass(&setup, &stream, wl, shape, false);
            o.check_pass(&stream, &p);
            (
                p.state.take().expect("plain passes keep their state"),
                p.dirty_at_close,
            )
        }
    };
    o.set("state.live", state.tweetbase.len() as f64);
    o.set("state.evicted", state.n_evicted() as f64);
    o.set("state.dirty_at_close", dirty as f64);
    o.set("state.resident_mb", state.resident_bytes() as f64 / 1e6);
    let costs = replay::state_costs(&setup, wl, &state);
    o.set("state.resident_walk_ms", costs.resident_walk_ms);
    o.set("state.clone_ms", costs.clone_ms);
    o.set("pool.ns_per_candidate", costs.pool_ns);
    o.set("classify.ns_per_candidate", costs.classify_ns);
    o.set("phrase.ns_per_mention", costs.phrase_ns);

    let op = last.operated.clone().unwrap_or_default();
    let n_batches = shape.sentences.div_ceil(shape.batch) as f64;
    let operated = wl == Workload::OperatedBurst;
    let clone_share = if operated {
        costs.clone_ms * n_batches / (wall * 1e3)
    } else {
        0.0
    };
    o.set("supervisor.clone_share", clone_share);
    o.set("supervisor.checkpoints", op.checkpoints as f64);
    o.set("supervisor.retried", op.retried as f64);
    o.set("supervisor.dead_lettered", op.dead_lettered as f64);
    o.set("checkpoint.mb", op.checkpoint_bytes as f64 / 1e6);
    o.set("trace.events_per_sentence", op.trace_events as f64 / n);
    o.set("trace.dropped", op.trace_dropped as f64);
    o.set("obs.render_ms", op.render_ms);
    o.set(
        "checkpoint.write_share",
        secs(op.checkpoint_write_ns) / wall,
    );
    o.set("sentinel.transitions", op.sentinel_transitions as f64);
    if operated {
        // What the supervisor writes: the compacted state.
        state.compact();
        let ck = replay::checkpoint_costs(&setup, &stream, wl, &state, out_dir)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        o.set("checkpoint.save_ms", ck.save_ms);
        o.set("checkpoint.load_kb", ck.load_kb);
        o.set("checkpoint.load_ms", ck.load_ms);
        o.set("checkpoint.load_exponent", ck.load_exponent);
    } else {
        for k in [
            "checkpoint.save_ms",
            "checkpoint.load_kb",
            "checkpoint.load_ms",
            "checkpoint.load_exponent",
        ] {
            o.set(k, 0.0);
        }
    }

    let path = out_dir.join(format!("{}-seed{}.spans.jsonl", wl.name(), args.seed));
    spans::write_jsonl(&path, &last_spans)?;
    eprintln!(
        "{}: {} untraced + {} traced passes; spans of the last traced pass in {}",
        wl.name(),
        untraced.len(),
        layers.len(),
        path.display()
    );
    Ok(o)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <n> --trace <0|1>  |  --list",
                spec::WORKLOADS
                    .iter()
                    .map(|w| w.name)
                    .collect::<Vec<_>>()
                    .join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let shape = args.workload.shape();
    let run = std::fs::create_dir_all(&out_dir).and_then(|()| {
        if args.trace {
            traced_run(&args, shape, &out_dir)
        } else {
            timed_run(&args, shape, &out_dir)
        }
    });
    let mut o = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let specs = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = o.take_metrics(specs);
    let digests: Vec<String> = o.digests.values().map(|d| format!("{d:016x}")).collect();
    println!(
        "digest workload={} seed={} streams={} fnv1a64={} passes={}",
        args.workload.name(),
        args.seed,
        shape.streams,
        digests.join(","),
        o.passes
    );
    for p in &o.problems {
        println!("check failed: {p}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let correct = o.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `wl` on a tiny stream in one mode and return the metric names
    /// the command would print, failing on any check or missing metric.
    fn printed_names(wl: Workload, trace: bool) -> Vec<&'static str> {
        let args = Args {
            workload: wl,
            seed: 7,
            seconds: Duration::ZERO,
            trace,
        };
        let shape = Shape {
            sentences: 600,
            batch: 64,
            streams: 2,
        };
        let out_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}-{trace}", wl.name()));
        std::fs::create_dir_all(&out_dir).unwrap();
        let mut o = if trace {
            traced_run(&args, shape, &out_dir)
        } else {
            timed_run(&args, shape, &out_dir)
        }
        .unwrap();
        let specs = if trace { PER_LAYER } else { END_TO_END };
        let names = o.take_metrics(specs).iter().map(|(m, _)| m.name).collect();
        assert!(o.problems.is_empty(), "{:?}", o.problems);
        std::fs::remove_dir_all(&out_dir).unwrap();
        names
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let b = spec::tests::benchmark_json();
        let e2e: Vec<&str> = b.end_to_end.iter().map(|m| m.name.as_str()).collect();
        let layers: Vec<&str> = b.per_layer.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(printed_names(Workload::ChurnWindow, false), e2e);
        assert_eq!(printed_names(Workload::ChurnWindow, true), layers);
        assert_eq!(printed_names(Workload::OperatedBurst, true), layers);
    }
}
