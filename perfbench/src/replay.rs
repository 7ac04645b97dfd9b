//! Timed replays of single layers on a finished state: calls the pipeline
//! makes many times per run, repeated here in isolation so their unit
//! cost can be read without instrumenting the program.

use crate::stats::{loglog_slope, median};
use crate::workloads::{plain_state, Setup, Stream, Workload};
use emd_core::globalizer::GlobalizerState;
use emd_core::EntityClassifier;
use emd_resilience::checkpoint;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Least time spent on one per-item replay, so the per-item figure is
/// not a single clock tick.
const MIN_REPLAY: Duration = Duration::from_millis(20);

/// Median wall time of `reps` calls of `f`, in milliseconds.
pub fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Nanoseconds per item of `f`, which handles `items` items per call;
/// repeated until [`MIN_REPLAY`] has passed. 0 when there are no items.
fn ns_per_item(items: usize, mut f: impl FnMut()) -> f64 {
    if items == 0 {
        return 0.0;
    }
    let t = Instant::now();
    let mut reps = 0u32;
    while reps == 0 || t.elapsed() < MIN_REPLAY {
        f();
        reps += 1;
    }
    t.elapsed().as_nanos() as f64 / (f64::from(reps) * items as f64)
}

/// Unit costs of the state-holding layers on `state`.
pub struct StateCosts {
    pub resident_walk_ms: f64,
    pub clone_ms: f64,
    pub pool_ns: f64,
    pub classify_ns: f64,
    pub phrase_ns: f64,
}

pub fn state_costs(setup: &Setup, wl: Workload, state: &GlobalizerState) -> StateCosts {
    let cfg = wl.config();
    let resident_walk_ms = median_ms(5, || state.resident_bytes());
    let clone_ms = median_ms(3, || state.clone());

    let cands: Vec<_> = state.candidates.iter().collect();
    let mut buf = Vec::new();
    let pool_ns = ns_per_item(cands.len(), || {
        for c in &cands {
            c.pooled_embedding_into(cfg.pooling, &mut buf);
            black_box(&buf);
        }
    });

    let features: Vec<Vec<f32>> = cands
        .iter()
        .map(|c| EntityClassifier::features(&c.pooled_embedding(cfg.pooling), c.token_len()))
        .collect();
    let clf = setup.classifier();
    let classify_ns = ns_per_item(features.len(), || {
        for f in &features {
            black_box(clf.predict(f));
        }
    });

    let phrase_ns = setup.phrase().map_or(0.0, |pe| {
        let tb = &state.tweetbase;
        let mentions: Vec<_> = tb
            .iter_indexed()
            .filter_map(|(i, rec)| tb.embedding_view(i).map(|v| (v, &rec.global_mentions)))
            .flat_map(|(v, spans)| spans.iter().map(move |s| (v, *s)))
            .collect();
        ns_per_item(mentions.len(), || {
            for (v, s) in &mentions {
                black_box(pe.embed_span_view(*v, s));
            }
        })
    });

    StateCosts {
        resident_walk_ms,
        clone_ms,
        pool_ns,
        classify_ns,
        phrase_ns,
    }
}

/// Checkpoint costs: one save of `state`, and loads of two small states
/// (stream prefixes), whose log-log slope shows how load time grows with
/// checkpoint size.
pub struct CheckpointCosts {
    pub save_ms: f64,
    pub load_kb: f64,
    pub load_ms: f64,
    pub load_exponent: f64,
}

/// Stream prefixes (sentences) whose states make the load ladder: small,
/// because load time grows far faster than size.
const LOAD_LADDER: [usize; 2] = [24, 48];

pub fn checkpoint_costs(
    setup: &Setup,
    stream: &Stream,
    wl: Workload,
    state: &GlobalizerState,
    out_dir: &Path,
) -> Result<CheckpointCosts, checkpoint::CheckpointError> {
    let path = out_dir.join(format!("replay-{}.ckpt", std::process::id()));
    checkpoint::save(&path, 0, state)?;
    let save_ms = median_ms(3, || checkpoint::save(&path, 0, state));

    let mut rungs = Vec::new();
    for n in LOAD_LADDER {
        let small = plain_state(setup, wl, &stream.sentences[..n], n);
        checkpoint::save(&path, 0, &small)?;
        checkpoint::load::<GlobalizerState>(&path)?;
        let kb = std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64 / 1e3);
        let ms = median_ms(3, || checkpoint::load::<GlobalizerState>(&path));
        rungs.push((kb, ms));
    }
    let _ = std::fs::remove_file(&path);
    let (a, b) = (rungs[0], rungs[1]);
    Ok(CheckpointCosts {
        save_ms,
        load_kb: b.0,
        load_ms: b.1,
        load_exponent: loglog_slope(a, b),
    })
}
