//! Counters and trace agree: on a windowed, promoting stream with one
//! quarantined sentence, each pipeline counter that mirrors a decision
//! equals the number of trace events recording it, at 1 and at 4
//! finalize threads, and settle rescans nest under `evict` in the flame
//! view.

use emd_globalizer::core::config::WindowConfig;
use emd_globalizer::core::local::{LexiconEmd, LocalEmd, LocalEmdOutput};
use emd_globalizer::core::{EntityClassifier, Globalizer, GlobalizerConfig};
use emd_globalizer::obs::Scope;
use emd_globalizer::resilience::validate::MAX_TOKEN_BYTES;
use emd_globalizer::sentinel::Sentinel;
use emd_globalizer::text::token::{Sentence, SentenceId};
use emd_globalizer::trace::{flame, TraceEventKind as K, TraceSink};

/// Detects lexicon words only when capitalized, so the lower-case
/// "zutav" stored first is dirtied by the later "Zutav" — and settled by
/// a rescan when the window evicts it.
struct Capitalized(LexiconEmd);

impl LocalEmd for Capitalized {
    fn name(&self) -> &str {
        "Capitalized"
    }

    fn embedding_dim(&self) -> Option<usize> {
        None
    }

    fn process(&self, s: &Sentence) -> LocalEmdOutput {
        let mut out = self.0.process(s);
        out.spans
            .retain(|sp| s.tokens[sp.start].text.starts_with(char::is_uppercase));
        out
    }
}

/// The counter a decision feeds, and the kind of trace event recording
/// that decision.
const AGREEMENT: [(&str, K); 8] = [
    ("emd_trie_inserts_total", K::TrieInsert),
    ("emd_pipeline_local_spans_total", K::LocalDetect),
    ("emd_scan_mentions_total", K::ScanMention),
    ("emd_classify_candidates_total", K::Verdict),
    ("emd_resilience_quarantined_total", K::SentenceQuarantined),
    ("emd_window_evicted_records_total", K::SentenceEvicted),
    ("emd_window_pruned_candidates_total", K::CandidatePruned),
    ("emd_finalize_promotions_total", K::Promotion),
];

#[test]
fn counters_equal_trace_event_counts() {
    let big = "x".repeat(MAX_TOKEN_BYTES + 1);
    // "Moross Lumsa" is only detected in fragments and gets promoted;
    // one sentence is quarantined at ingest (oversized token); the one-off
    // "Kirov" and "Ostra" leave the window and are pruned.
    let msgs: [&[&str]; 11] = [
        &["we", "saw", "zutav", "today"],
        &["Moross", "Lumsa", "speaks"],
        &["Kirov", "visits", "Ostra"],
        &["Zutav", "arrives"],
        &["Moross", "Lumsa", "again"],
        &["news", "from", big.as_str()],
        &["Moross", "Lumsa", "rallies"],
        &["calm", "day"],
        &["Moross", "Lumsa", "returns"],
        &["quiet", "evening"],
        &["Moross", "Lumsa", "wins"],
    ];
    let stream: Vec<Sentence> = (0..)
        .zip(msgs)
        .map(|(i, words)| Sentence::from_tokens(SentenceId::new(i, 0), words.iter().copied()))
        .collect();
    let local = Capitalized(LexiconEmd::new([
        "moross", "lumsa", "zutav", "kirov", "ostra",
    ]));
    // A fresh classifier scores in the γ band, so nothing is frozen as an
    // entity mid-stream and cold candidates stay prunable.
    let clf = EntityClassifier::new(7, 3);
    emd_globalizer::obs::set_enabled(true);
    emd_globalizer::trace::set_enabled(true);
    let mut runs = Vec::new();
    for threads in [1, 4] {
        let window = WindowConfig::sliding(3);
        let mut g = Globalizer::new(
            &local,
            None,
            &clf,
            GlobalizerConfig {
                window,
                ..Default::default()
            },
        );
        let scope = Scope::detached(&[]);
        g.set_scope(&scope);
        let sink = TraceSink::with_capacity(1 << 16);
        g.set_trace(sink.clone());
        g.set_sentinel(Sentinel::with_defaults());
        let mut state = g.new_state();
        for batch in stream.chunks(2) {
            g.process_batch(&mut state, batch);
        }
        let out = g.finalize_with_threads(&mut state, threads);
        assert_eq!((out.quarantined.len(), out.n_promoted), (1, 1));
        assert_eq!(sink.dropped_total(), 0);
        let events = sink.drain();
        let snap = scope.snapshot();
        let counter = |name: &str| snap.counter(name).unwrap_or_else(|| panic!("no {name}"));
        let of = |kind: K| events.iter().filter(move |e| e.kind == kind);
        for (name, kind) in AGREEMENT {
            let traced = of(kind).count() as u64;
            assert!(traced > 0, "{name}: the stream must exercise it");
            assert_eq!(counter(name), traced, "{name}, {threads} finalize threads");
        }
        let pooled = of(K::ScanMention)
            .filter(|e| e.pooled == Some(true))
            .count();
        assert_eq!(counter("emd_pool_embeddings_total"), pooled as u64);
        let batch_sizes: u64 = of(K::BatchStart).filter_map(|e| e.count).sum();
        assert_eq!(counter("emd_pipeline_sentences_total"), batch_sizes);
        let stacks = flame::to_collapsed_stacks(&events);
        assert!(
            stacks.lines().any(|l| l.starts_with("emd;evict;scan ")),
            "no settle scan under evict:\n{stacks}"
        );
        runs.push(snap.counters);
    }
    assert_eq!(runs[0], runs[1], "thread count changes no counter");
    emd_globalizer::trace::set_enabled(false);
}
