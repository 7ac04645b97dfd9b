//! Chaos suite: deterministic fault injection at every phase boundary.
//!
//! This binary is built with the `failpoints` feature of `emd-resilience`
//! active (root dev-dependency), so the `failpoint::fire` sites inside
//! `emd-core` are live. The fail-point registry and the metrics flag are
//! both process-global, so every test here serialises on [`CHAOS_LOCK`]
//! and disarms all sites on entry and on drop.
//!
//! What is verified:
//!
//! * A *transient* fault (fires once, retry succeeds) in any phase —
//!   local inference, ingest, scan, classify, closing rescan, and each
//!   parallel shard — leaves the output **bit-identical** to the
//!   fault-free run with an empty quarantine (chaos proptest).
//! * A *persistent* fault turns into quarantine, not an abort: the run
//!   completes and emits exactly the fault-free output minus the
//!   quarantined sentences.
//! * Persistent phrase-embedding / classification faults degrade the
//!   affected candidates to LocalOnly emission instead of quarantining.
//! * Checkpoint round-trip: saving the pipeline state at a random split
//!   point, restoring it, and continuing produces bit-identical outputs
//!   and pooled embeddings (with metrics recording toggled either way).
//! * The supervisor retries batch-level faults transparently and
//!   dead-letters a batch that exhausts its budget.

use emd_globalizer::core::config::WindowConfig;
use emd_globalizer::core::globalizer::GlobalizerState;
use emd_globalizer::core::local::{LexiconEmd, LocalEmd, LocalEmdOutput};
use emd_globalizer::core::supervisor::{StreamSupervisor, SupervisorConfig};
use emd_globalizer::core::{EntityClassifier, Globalizer, GlobalizerConfig, GlobalizerOutput};
use emd_globalizer::nn::param::Net;
use emd_globalizer::resilience::checkpoint;
use emd_globalizer::resilience::failpoint::{self, Schedule};
use emd_globalizer::resilience::quarantine::PipelinePhase;
use emd_globalizer::text::token::{Sentence, SentenceId, Span};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Serialises every test in this binary: the fail-point registry and the
/// metrics flag are process-global. Disarms everything on entry and drop.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

struct ChaosGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        failpoint::disarm_all();
        emd_globalizer::obs::set_enabled(false);
    }
}

fn chaos_lock() -> ChaosGuard {
    let g = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    failpoint::disarm_all();
    emd_globalizer::obs::set_enabled(false);
    ChaosGuard(g)
}

fn accept_all(dim: usize) -> EntityClassifier {
    let mut c = EntityClassifier::new(dim, 0);
    let params = c.params_mut();
    let last = params.into_iter().last().unwrap();
    last.value.data[0] = 100.0;
    c
}

const WORDS: [&str; 12] = [
    "italy", "covid", "beshear", "moross", "lumsa", "zutav", "report", "cases", "the", "news",
    "visit", "again",
];

/// Deterministic synthetic stream from word-index messages (same
/// generator as the property suite, so coverage is comparable).
fn stream_from(msgs: &[Vec<usize>]) -> Vec<Sentence> {
    msgs.iter()
        .enumerate()
        .map(|(i, words)| {
            let toks = words.iter().enumerate().map(|(j, &w)| {
                let mut t = WORDS[w].to_string();
                if (i + j) % 3 == 0 {
                    t[..1].make_ascii_uppercase();
                }
                t
            });
            Sentence::from_tokens(SentenceId::new(i as u64, 0), toks)
        })
        .collect()
}

fn lexicon() -> LexiconEmd {
    LexiconEmd::new(["italy", "covid", "beshear", "moross", "lumsa", "zutav"])
}

/// Run the full pipeline (optionally with parallel local inference) and
/// return the output.
fn run_pipeline(
    g: &Globalizer<'_>,
    stream: &[Sentence],
    batch: usize,
    threads: usize,
) -> GlobalizerOutput {
    let mut state = g.new_state();
    for chunk in stream.chunks(batch.max(1)) {
        if threads > 1 {
            g.process_batch_parallel(&mut state, chunk, threads);
        } else {
            g.process_batch(&mut state, chunk);
        }
    }
    g.finalize_with_threads(&mut state, threads)
}

fn assert_same_output(a: &GlobalizerOutput, b: &GlobalizerOutput) {
    assert_eq!(a.per_sentence, b.per_sentence);
    assert_eq!(a.n_candidates, b.n_candidates);
    assert_eq!(a.n_entities, b.n_entities);
    assert_eq!(a.n_promoted, b.n_promoted);
}

/// Every fail-point site a transient fault can hit. The three `_shard`
/// sites only fire on the parallel paths; firing them in a sequential run
/// is a harmless no-op (nothing calls them), which the proptest's
/// thread-count axis covers both ways.
const SITES: [&str; 8] = [
    "local_inference",
    "ingest",
    "scan",
    "classify",
    "finalize_rescan",
    "local_shard",
    "scan_shard",
    "classify_shard",
];

proptest! {
    /// Chaos: a fault injected once at ANY phase boundary is absorbed by
    /// the retry/shard-recovery machinery — the output is bit-identical
    /// to the fault-free run and nothing is quarantined.
    #[test]
    fn transient_fault_at_any_phase_is_invisible(
        msgs in proptest::collection::vec(proptest::collection::vec(0usize..12, 1..8), 1..16),
        batch in 1usize..6,
        threads in 1usize..4,
        site in 0usize..8,
        after in 0u64..5,
    ) {
        let _l = chaos_lock();
        let local = lexicon();
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let stream = stream_from(&msgs);
        let clean = run_pipeline(&g, &stream, batch, threads);
        prop_assert!(clean.quarantined.is_empty());
        let faulted = {
            let _fp = failpoint::arm(SITES[site], Schedule::AfterN(after));
            run_pipeline(&g, &stream, batch, threads)
        };
        prop_assert_eq!(&faulted.per_sentence, &clean.per_sentence);
        prop_assert_eq!(faulted.n_candidates, clean.n_candidates);
        prop_assert_eq!(faulted.n_entities, clean.n_entities);
        prop_assert_eq!(faulted.n_promoted, clean.n_promoted);
        prop_assert!(faulted.quarantined.is_empty(), "transient fault must not quarantine");
        prop_assert_eq!(faulted.n_degraded, 0);
    }

    /// Checkpoint round-trip: snapshot the state at a random split point,
    /// restore it from disk, continue both the original and the restored
    /// state over the suffix — outputs, discovery order, and pooled
    /// embeddings are bit-identical. Metrics recording is toggled on for
    /// half the cases to prove the snapshot path is observation-clean.
    /// Unbounded or with a small sliding window, so a cut can land on an
    /// uncompacted state with tombstone slots; the posting lists rebuilt
    /// on load must equal the live ones for every interned symbol.
    #[test]
    fn checkpoint_round_trip_is_bit_identical(
        msgs in proptest::collection::vec(proptest::collection::vec(0usize..12, 1..8), 2..16),
        batch in 1usize..5,
        split in 0usize..100,
        seed in 0u64..4,
        window in 0usize..5,
    ) {
        let _l = chaos_lock();
        emd_globalizer::obs::set_enabled(seed % 2 == 1);
        let local = lexicon();
        // A freshly initialised classifier scores around the γ band,
        // exercising interim freezing across the checkpoint boundary.
        let clf = EntityClassifier::new(7, seed);
        let config = GlobalizerConfig {
            window: WindowConfig::sliding(window),
            ..Default::default()
        };
        let g = Globalizer::new(&local, None, &clf, config);
        let stream = stream_from(&msgs);
        let cut = (split % stream.len()).max(1).min(stream.len());
        let mut live = g.new_state();
        for chunk in stream[..cut].chunks(batch) {
            g.process_batch(&mut live, chunk);
        }
        let path = std::env::temp_dir().join(format!(
            "emd_chaos_ckpt_{}_{}", std::process::id(), std::thread::current().name().map(|n| n.len()).unwrap_or(0)
        ));
        checkpoint::save(&path, cut as u64, &live).unwrap();
        let (seq, mut restored): (u64, GlobalizerState) = checkpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(seq, cut as u64);
        for sym in 0..live.tweetbase.interner().len() as u32 {
            prop_assert_eq!(
                live.tweetbase.indices_with_sym(sym),
                restored.tweetbase.indices_with_sym(sym)
            );
        }
        for chunk in stream[cut..].chunks(batch) {
            g.process_batch(&mut live, chunk);
            g.process_batch(&mut restored, chunk);
        }
        let out_live = g.finalize(&mut live);
        let out_restored = g.finalize(&mut restored);
        prop_assert_eq!(&out_live.per_sentence, &out_restored.per_sentence);
        prop_assert_eq!(out_live.n_candidates, out_restored.n_candidates);
        prop_assert_eq!(out_live.n_entities, out_restored.n_entities);
        prop_assert_eq!(out_live.n_promoted, out_restored.n_promoted);
        prop_assert_eq!(live.candidates.len(), restored.candidates.len());
        for (a, b) in live.candidates.iter().zip(restored.candidates.iter()) {
            prop_assert_eq!(&a.key, &b.key, "discovery order diverged");
            prop_assert_eq!(a.global_embedding(), b.global_embedding());
            prop_assert_eq!(&a.mentions, &b.mentions);
            prop_assert!(a.label == b.label, "label diverged for {}", a.key);
        }
    }
}

#[test]
fn persistent_local_fault_quarantines_everything_but_completes() {
    let _l = chaos_lock();
    let local = lexicon();
    let clf = accept_all(7);
    let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    let stream = stream_from(&[vec![0, 6], vec![1, 7], vec![8, 0]]);
    let _fp = failpoint::arm("local_inference", Schedule::EveryK(1));
    let out = run_pipeline(&g, &stream, 2, 1);
    assert_eq!(
        out.quarantined.len(),
        3,
        "every sentence exhausts its budget"
    );
    for (entry, s) in out.quarantined.iter().zip(stream.iter()) {
        assert_eq!(entry.sid, s.id);
        assert_eq!(entry.phase, PipelinePhase::LocalInference);
        assert!(entry.reason.contains("local_inference"), "{}", entry.reason);
    }
    assert!(
        out.per_sentence.is_empty(),
        "quarantined sentences are not emitted"
    );
    assert_eq!(out.n_candidates, 0);
}

#[test]
fn crash_after_n_quarantines_exactly_one_sentence() {
    let _l = chaos_lock();
    let local = lexicon();
    let clf = accept_all(7);
    // Zero retry budget: the single injected fault is terminal for the
    // sentence it lands on, and only that one.
    let cfg = GlobalizerConfig {
        poison_retries: 0,
        ..Default::default()
    };
    let g = Globalizer::new(&local, None, &clf, cfg);
    let stream = stream_from(&[vec![0, 6], vec![1, 7], vec![0, 8], vec![1, 9]]);
    let clean = run_pipeline(&g, &stream, 2, 1);
    let faulted = {
        let _fp = failpoint::arm("local_inference", Schedule::AfterN(2));
        run_pipeline(&g, &stream, 2, 1)
    };
    assert_eq!(faulted.quarantined.len(), 1);
    let lost = faulted.quarantined[0].sid;
    assert_eq!(lost, stream[2].id, "AfterN(2) kills the third sentence");
    let expected: Vec<(SentenceId, Vec<Span>)> = clean
        .per_sentence
        .iter()
        .filter(|(sid, _)| *sid != lost)
        .cloned()
        .collect();
    assert_eq!(
        faulted.per_sentence, expected,
        "output == clean minus quarantined"
    );
}

#[test]
fn persistent_scan_fault_quarantines_scanned_records() {
    let _l = chaos_lock();
    let local = lexicon();
    let clf = accept_all(7);
    let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    let stream = stream_from(&[vec![0, 6], vec![1, 7]]);
    let _fp = failpoint::arm("scan", Schedule::EveryK(1));
    let out = run_pipeline(&g, &stream, 2, 1);
    assert_eq!(out.quarantined.len(), 2);
    for entry in &out.quarantined {
        assert_eq!(entry.phase, PipelinePhase::Scan);
    }
    assert!(out.per_sentence.is_empty());
}

/// A deep-ish test double whose *local* detections deliberately miss
/// repeat mentions: it tags lexicon words only in the first sentence it
/// sees them in, so the global rescan genuinely adds mentions — which
/// makes degraded (LocalOnly) fallback observably different from healthy
/// output.
struct FirstSightEmd {
    inner: LexiconEmd,
    seen: Mutex<std::collections::HashSet<String>>,
}

impl FirstSightEmd {
    fn new() -> FirstSightEmd {
        FirstSightEmd {
            inner: lexicon(),
            seen: Mutex::new(std::collections::HashSet::new()),
        }
    }
}

impl LocalEmd for FirstSightEmd {
    fn name(&self) -> &str {
        "FirstSightEmd"
    }
    fn embedding_dim(&self) -> Option<usize> {
        None
    }
    fn process(&self, sentence: &Sentence) -> LocalEmdOutput {
        let mut out = self.inner.process(sentence);
        let mut seen = self.seen.lock().unwrap_or_else(|p| p.into_inner());
        out.spans.retain(|sp| {
            let surface = sentence.tokens[sp.start].text.to_lowercase();
            seen.insert(surface)
        });
        out
    }
}

#[test]
fn persistent_classify_fault_degrades_to_local_only() {
    let _l = chaos_lock();
    let clf = accept_all(7);
    // "italy" appears in three sentences; FirstSightEmd only tags the
    // first, the global rescan recovers the rest.
    let msgs = vec![vec![0, 6], vec![7, 0], vec![0, 8]];
    let healthy = {
        let local = FirstSightEmd::new();
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        run_pipeline(&g, &stream_from(&msgs), 1, 1)
    };
    let total_healthy: usize = healthy.per_sentence.iter().map(|(_, v)| v.len()).sum();
    assert_eq!(
        total_healthy, 3,
        "global phase recovers the missed mentions"
    );
    let degraded = {
        let local = FirstSightEmd::new();
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let _fp = failpoint::arm("classify", Schedule::EveryK(1));
        run_pipeline(&g, &stream_from(&msgs), 1, 1)
    };
    assert!(
        degraded.quarantined.is_empty(),
        "degradation is not quarantine"
    );
    assert_eq!(degraded.n_degraded, 1, "the one candidate is degraded");
    let total_degraded: usize = degraded.per_sentence.iter().map(|(_, v)| v.len()).sum();
    assert_eq!(
        total_degraded, 1,
        "LocalOnly fallback emits only the local system's own detection"
    );
}

#[test]
fn persistent_phrase_embedding_fault_degrades_not_quarantines() {
    let _l = chaos_lock();
    let clf = accept_all(7);
    let msgs = vec![vec![0, 6], vec![7, 0]];
    let local = FirstSightEmd::new();
    let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    let _fp = failpoint::arm("phrase_embed", Schedule::EveryK(1));
    let out = run_pipeline(&g, &stream_from(&msgs), 1, 1);
    assert!(out.quarantined.is_empty());
    assert_eq!(out.n_degraded, 1);
    let total: usize = out.per_sentence.iter().map(|(_, v)| v.len()).sum();
    assert_eq!(total, 1, "only the locally-detected mention survives");
}

#[test]
fn supervisor_retries_batch_level_fault_transparently() {
    let _l = chaos_lock();
    let local = lexicon();
    let clf = accept_all(7);
    let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    let stream = stream_from(&[vec![0, 6], vec![1, 7], vec![0, 8], vec![1, 9]]);
    let clean = g.run(&stream, 2).0;
    let sup = StreamSupervisor::new(
        &g,
        SupervisorConfig {
            checkpoint_path: None,
            batch_size: 2,
            batch_retries: 1,
            ..Default::default()
        },
    );
    let _fp = failpoint::arm("supervisor_batch", Schedule::Once);
    let report = sup.run(&stream);
    assert_eq!(report.batches_retried, 1);
    assert_eq!(report.batches_dead_lettered, 0);
    assert_same_output(&report.output, &clean);
    assert!(report.output.quarantined.is_empty());
}

#[test]
fn supervisor_dead_letters_batch_after_budget() {
    let _l = chaos_lock();
    let local = lexicon();
    let clf = accept_all(7);
    let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    let stream = stream_from(&[vec![0, 6], vec![1, 7], vec![0, 8], vec![1, 9]]);
    let clean = g.run(&stream, 2).0;
    let sup = StreamSupervisor::new(
        &g,
        SupervisorConfig {
            checkpoint_path: None,
            batch_size: 2,
            batch_retries: 0,
            ..Default::default()
        },
    );
    // Fires on the first batch only; zero retries → the whole first batch
    // is dead-lettered, the second proceeds normally.
    let _fp = failpoint::arm("supervisor_batch", Schedule::Once);
    let report = sup.run(&stream);
    assert_eq!(report.batches_dead_lettered, 1);
    assert_eq!(report.output.quarantined.len(), 2);
    for (entry, s) in report.output.quarantined.iter().zip(stream.iter()) {
        assert_eq!(entry.sid, s.id);
        assert_eq!(entry.phase, PipelinePhase::Supervisor);
    }
    let lost: Vec<SentenceId> = stream[..2].iter().map(|s| s.id).collect();
    let expected: Vec<(SentenceId, Vec<Span>)> = clean
        .per_sentence
        .iter()
        .filter(|(sid, _)| !lost.contains(sid))
        .cloned()
        .collect();
    assert_eq!(report.output.per_sentence, expected);
}

#[test]
fn supervisor_crash_recovery_with_faults_still_matches_clean_run() {
    let _l = chaos_lock();
    let local = lexicon();
    let clf = accept_all(7);
    let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    let msgs: Vec<Vec<usize>> = (0..12).map(|i| vec![i % 12, (i + 5) % 12]).collect();
    let stream = stream_from(&msgs);
    let clean = g.run(&stream, 3).0;
    let path = std::env::temp_dir().join(format!("emd_chaos_recovery_{}", std::process::id()));
    std::fs::remove_file(&path).ok();
    let cfg = SupervisorConfig {
        checkpoint_path: Some(path.clone()),
        checkpoint_every: 1,
        batch_size: 3,
        batch_retries: 2,
        ..Default::default()
    };
    let sup = StreamSupervisor::new(&g, cfg);
    // "Crash" mid-stream: process a prefix under injected faults, then
    // restart over the whole stream with faults still firing.
    {
        let _fp = failpoint::arm("local_inference", Schedule::AfterN(3));
        let _ = sup.run(&stream[..6]);
    }
    let report = {
        let _fp = failpoint::arm("scan", Schedule::AfterN(2));
        sup.run(&stream)
    };
    std::fs::remove_file(&path).ok();
    assert!(report.resumed_from_checkpoint);
    assert_eq!(report.batches_skipped, 2);
    assert_same_output(&report.output, &clean);
    assert!(
        report.output.quarantined.is_empty(),
        "all faults were transient"
    );
}
