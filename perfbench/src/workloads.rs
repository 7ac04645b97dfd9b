//! The three workloads: how each is set up from a seed, and one pass of
//! each through the pipeline, driven closed-loop from a single caller.

use crate::spans::{since, Span, TimedLocal};
use emd_core::config::WindowConfig;
use emd_core::globalizer::GlobalizerState;
use emd_core::local::LocalEmd;
use emd_core::{
    EntityClassifier, Globalizer, GlobalizerConfig, GlobalizerOutput, PhraseEmbedder,
    StreamSupervisor, SupervisorConfig,
};
use emd_local::aguilar::{Aguilar, AguilarConfig};
use emd_nn::param::Net;
use emd_synth::datasets::generic_training_corpus;
use emd_synth::entities::{World, WorldConfig};
use emd_synth::longhorizon::{gen_burst_stream, gen_churn_stream, gen_drift_stream};
use emd_synth::noise::NoiseConfig;
use emd_text::token::{Sentence, Span as TokenSpan};
use std::path::Path;
use std::time::Instant;

/// Seed of everything that is not the stream: the entity world and every
/// trained model. Only the stream generators see the workload seed.
const MODEL_SEED: u64 = emd_bench::SEED;

/// Trace ring size for the operated workload: holds a whole batch's (and
/// the finalize pass's) events between supervisor drains.
const TRACE_RING: usize = 1 << 17;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    ChurnWindow,
    DeepDrift,
    OperatedBurst,
}

/// Stream length and batch size of one pass, and how many streams a run
/// draws from its seed. Passes cycle through the streams, so a run's
/// figures average over several inputs rather than one stream's quirks.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub sentences: usize,
    pub batch: usize,
    pub streams: u64,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "churn-window" => Some(Workload::ChurnWindow),
            "deep-drift" => Some(Workload::DeepDrift),
            "operated-burst" => Some(Workload::OperatedBurst),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ChurnWindow => "churn-window",
            Workload::DeepDrift => "deep-drift",
            Workload::OperatedBurst => "operated-burst",
        }
    }

    /// The shape a benchmark run uses.
    pub fn shape(self) -> Shape {
        match self {
            Workload::ChurnWindow => Shape {
                sentences: 60_000,
                batch: 512,
                streams: 3,
            },
            Workload::DeepDrift => Shape {
                sentences: 10_000,
                batch: 64,
                streams: 3,
            },
            Workload::OperatedBurst => Shape {
                sentences: 8_000,
                batch: 128,
                streams: 3,
            },
        }
    }

    pub fn config(self) -> GlobalizerConfig {
        let window = match self {
            Workload::DeepDrift => WindowConfig::default(),
            Workload::ChurnWindow | Workload::OperatedBurst => WindowConfig::sliding(20_000),
        };
        GlobalizerConfig {
            window,
            ..Default::default()
        }
    }

    /// Build (or train) the models and generate the first stream: what a
    /// user pays before the first batch goes in.
    pub fn setup(self, seed: u64, shape: Shape) -> (Setup, Stream) {
        let world = World::generate(&WorldConfig {
            seed: MODEL_SEED,
            ..Default::default()
        });
        let (local, phrase, classifier): (Box<dyn LocalEmd>, _, _) = match self {
            Workload::ChurnWindow => {
                let (local, clf) = emd_bench::chunker_variant();
                (Box::new(local), None, clf)
            }
            Workload::DeepDrift => {
                let (gen_world, generic) = generic_training_corpus(MODEL_SEED, 0.25);
                let (mut local, _) =
                    Aguilar::train(&generic, gen_world.gazetteer, &AguilarConfig::default());
                local.set_gazetteer(world.gazetteer.clone());
                let dim = local.embedding_dim().expect("Aguilar is a deep system");
                let phrase = PhraseEmbedder::new(dim, 32, MODEL_SEED);
                let clf = accept_all(phrase.out_dim() + 1);
                (Box::new(local), Some(phrase), clf)
            }
            Workload::OperatedBurst => {
                let (local, clf) = emd_bench::trained_crf_variant();
                (Box::new(local), None, clf)
            }
        };
        let setup = Setup {
            wl: self,
            seed,
            shape,
            world,
            local,
            phrase,
            classifier,
        };
        let first = setup.stream(0);
        (setup, first)
    }
}

/// A classifier that accepts every candidate: isolates the Global EMD
/// layers from classifier quality.
fn accept_all(in_dim: usize) -> EntityClassifier {
    let mut clf = EntityClassifier::new(in_dim, MODEL_SEED);
    clf.params_mut()
        .into_iter()
        .last()
        .expect("classifier has an output bias")
        .value
        .data[0] = 10.0;
    clf
}

/// One generated stream: the sentences the pipeline is fed, and the
/// generator's gold spans for each.
pub struct Stream {
    /// Position among the run's streams.
    pub index: usize,
    pub sentences: Vec<Sentence>,
    pub gold: Vec<Vec<TokenSpan>>,
}

/// A workload's models, and what it needs to generate its streams.
pub struct Setup {
    wl: Workload,
    seed: u64,
    shape: Shape,
    world: World,
    local: Box<dyn LocalEmd>,
    phrase: Option<PhraseEmbedder>,
    classifier: EntityClassifier,
}

impl Setup {
    /// Stream `k` of the run, generated from seed `seed * streams + k`.
    /// Streams are generated when a pass needs them, so only one is held
    /// in memory at a time.
    pub fn stream(&self, k: usize) -> Stream {
        let seed = self.seed * self.shape.streams + k as u64;
        let (world, n, noise) = (&self.world, self.shape.sentences, NoiseConfig::default());
        let dataset = match self.wl {
            Workload::ChurnWindow => gen_churn_stream(world, n, 5_000, "churn", &noise, seed),
            Workload::DeepDrift => gen_drift_stream(world, n, 2_500, "drift", &noise, seed),
            Workload::OperatedBurst => {
                gen_burst_stream(world, n, 2_000, 400, "burst", &noise, seed)
            }
        };
        let (sentences, gold) = dataset
            .sentences
            .into_iter()
            .map(|a| (a.sentence, a.gold))
            .unzip();
        Stream {
            index: k,
            sentences,
            gold,
        }
    }

    pub fn local(&self) -> &dyn LocalEmd {
        self.local.as_ref()
    }

    pub fn phrase(&self) -> Option<&PhraseEmbedder> {
        self.phrase.as_ref()
    }

    pub fn classifier(&self) -> &EntityClassifier {
        &self.classifier
    }
}

/// What the operated workload's supervisor and instrumentation report.
#[derive(Clone, Debug, Default)]
pub struct Operated {
    pub checkpoints: usize,
    pub checkpoint_failures: usize,
    pub retried: usize,
    pub dead_lettered: usize,
    pub checkpoint_bytes: u64,
    pub trace_events: usize,
    pub trace_dropped: u64,
    pub sentinel_transitions: usize,
    pub render_ms: f64,
    /// Checkpoint write time the program's own histogram recorded.
    pub checkpoint_write_ns: u64,
}

/// One pass over a whole stream.
pub struct Pass {
    /// Index of the stream in [`Setup::streams`].
    pub stream: usize,
    pub wall_ns: u64,
    /// Per-batch service times.
    pub batch_ns: Vec<u64>,
    /// Last batch handed back to results in hand.
    pub finalize_ns: u64,
    pub output: GlobalizerOutput,
    /// Records still awaiting a rescan when the stream closed (plain
    /// loops only; the supervisor keeps its state to itself).
    pub dirty_at_close: usize,
    /// The closing state (plain loops only).
    pub state: Option<GlobalizerState>,
    /// Layer spans, when traced.
    pub spans: Vec<Span>,
    pub operated: Option<Operated>,
}

/// One pass of a plain `process_batch` loop plus `finalize`. With
/// `traced`, the local system is wrapped to time every call and each
/// `process_batch`/`finalize` call is kept as a span.
pub fn plain_pass(
    setup: &Setup,
    stream: &Stream,
    wl: Workload,
    shape: Shape,
    traced: bool,
) -> Pass {
    let epoch = Instant::now();
    let sents = &stream.sentences;
    let timed = traced.then(|| TimedLocal::new(setup.local(), sents, shape.batch, epoch, true));
    let local: &dyn LocalEmd = match &timed {
        Some(t) => t,
        None => setup.local(),
    };
    let g = Globalizer::new(local, setup.phrase(), setup.classifier(), wl.config());
    let mut state = g.new_state();
    let mut spans = Vec::new();
    let mut batch_ns = Vec::with_capacity(sents.len().div_ceil(shape.batch));
    let t_start = since(epoch);
    for chunk in sents.chunks(shape.batch) {
        let s = since(epoch);
        g.process_batch(&mut state, chunk);
        let e = since(epoch);
        batch_ns.push(e - s);
        if traced {
            spans.push(Span {
                name: "globalizer.process_batch",
                start: s,
                end: e,
            });
        }
    }
    let dirty_at_close = state.n_dirty();
    let s = since(epoch);
    let output = g.finalize(&mut state);
    let e = since(epoch);
    if let Some(t) = &timed {
        spans.push(Span {
            name: "globalizer.finalize",
            start: s,
            end: e,
        });
        spans.extend(t.calls());
    }
    Pass {
        stream: stream.index,
        wall_ns: e - t_start,
        batch_ns,
        finalize_ns: e - s,
        output,
        dirty_at_close,
        state: Some(state),
        spans,
        operated: None,
    }
}

/// One supervised pass as operators run it: `StreamSupervisor::run` with
/// checkpoints every 8 batches into a fresh directory under `out_dir`,
/// a detached metrics scope, a trace sink, and the default sentinel.
/// The batch loop is inside `run`, so batch boundaries come from the
/// local wrapper: a batch's service time is the gap between the first
/// local calls of consecutive batches.
pub fn operated_pass(
    setup: &Setup,
    stream: &Stream,
    wl: Workload,
    shape: Shape,
    traced: bool,
    out_dir: &Path,
) -> std::io::Result<Pass> {
    let dir = out_dir.join(format!("ckpt-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    let ckpt = dir.join("state.ckpt");
    let sents = &stream.sentences;
    let epoch = Instant::now();
    let timed = TimedLocal::new(setup.local(), sents, shape.batch, epoch, traced);
    let scope = emd_obs::Scope::detached(&[("workload", wl.name())]);
    let sink = emd_trace::TraceSink::with_capacity(TRACE_RING);
    let mut g = Globalizer::new(&timed, setup.phrase(), setup.classifier(), wl.config());
    g.set_scope(&scope);
    g.set_trace(sink.clone());
    g.set_sentinel(emd_sentinel::Sentinel::with_defaults());
    let sup = StreamSupervisor::new(
        &g,
        SupervisorConfig {
            checkpoint_path: Some(ckpt.clone()),
            checkpoint_every: 8,
            batch_size: shape.batch,
            ..Default::default()
        },
    );
    emd_obs::set_enabled(true);
    emd_trace::set_enabled(true);
    let s = since(epoch);
    let report = sup.run(sents);
    let e = since(epoch);
    emd_trace::set_enabled(false);
    emd_obs::set_enabled(false);

    let starts = timed.batch_starts();
    let batch_ns = starts.windows(2).map(|w| w[1] - w[0]).collect();
    let render_ms = crate::replay::median_ms(3, || scope.snapshot().to_prometheus().len());
    let checkpoint_write_ns = scope
        .snapshot()
        .histograms
        .iter()
        .find(|h| h.name == "emd_resilience_checkpoint_write_ns")
        .map_or(0, |h| h.sum);
    let operated = Operated {
        checkpoints: report.checkpoints_written,
        checkpoint_failures: report.checkpoint_write_failures,
        retried: report.batches_retried,
        dead_lettered: report.batches_dead_lettered,
        checkpoint_bytes: std::fs::metadata(&ckpt)?.len(),
        trace_events: report.trace_events.len(),
        trace_dropped: sink.dropped_total(),
        sentinel_transitions: report.health.as_ref().map_or(0, |h| h.transitions.len()),
        render_ms,
        checkpoint_write_ns,
    };
    std::fs::remove_dir_all(&dir)?;
    let mut spans = Vec::new();
    if traced {
        spans.push(Span {
            name: "supervisor.run",
            start: s,
            end: e,
        });
        spans.extend(timed.calls());
    }
    Ok(Pass {
        stream: stream.index,
        wall_ns: e - s,
        batch_ns,
        finalize_ns: e - timed.last_end(),
        output: report.output,
        dirty_at_close: 0,
        state: None,
        spans,
        operated: Some(operated),
    })
}

/// One pass over `stream` of whichever loop the workload uses.
pub fn pass(
    setup: &Setup,
    stream: &Stream,
    wl: Workload,
    shape: Shape,
    traced: bool,
    out_dir: &Path,
) -> std::io::Result<Pass> {
    match wl {
        Workload::OperatedBurst => operated_pass(setup, stream, wl, shape, traced, out_dir),
        Workload::ChurnWindow | Workload::DeepDrift => {
            Ok(plain_pass(setup, stream, wl, shape, traced))
        }
    }
}

/// The state a plain loop leaves after `sentences` (a prefix of the
/// stream) and finalize: for replays on workloads whose pass keeps its
/// state inside the supervisor.
pub fn plain_state(
    setup: &Setup,
    wl: Workload,
    sentences: &[Sentence],
    batch: usize,
) -> GlobalizerState {
    let g = Globalizer::new(
        setup.local(),
        setup.phrase(),
        setup.classifier(),
        wl.config(),
    );
    let mut state = g.new_state();
    for chunk in sentences.chunks(batch) {
        g.process_batch(&mut state, chunk);
    }
    g.finalize(&mut state);
    state
}
