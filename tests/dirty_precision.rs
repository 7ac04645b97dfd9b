//! Phrase-precise dirty marking under multi-token candidates.
//!
//! Registering a candidate dirties only the stored sentences that spell
//! its whole phrase. These properties drive that marking with a local
//! system emitting multi-token spans from phrases that share first and
//! last tokens (`new york`, `new jersey`, `york new`, `new york city`,
//! ...), in mixed casing, so late discoveries land on earlier sentences
//! holding the phrase, a sibling phrase, or only some of its tokens:
//!
//! * **Incremental ≡ full rescan** — the dirty-set finalize is
//!   bit-identical to the brute-force rescan of every live record:
//!   outputs, candidate discovery order, pooled embeddings, mentions and
//!   labels, for any batch schedule and worker-thread count.
//! * **Windowed ≡ unbounded** — a sliding-window run emits exactly the
//!   unbounded run's output restricted to the window, so the settle
//!   rescan before eviction misses nothing either.

use emd_globalizer::core::config::{Ablation, WindowConfig};
use emd_globalizer::core::local::{LocalEmd, LocalEmdOutput};
use emd_globalizer::core::{EntityClassifier, Globalizer, GlobalizerConfig};
use emd_globalizer::nn::param::Net;
use emd_globalizer::text::token::{Sentence, SentenceId, Span};
use proptest::prelude::*;

const WORDS: [&str; 8] = [
    "new", "york", "jersey", "city", "north", "the", "in", "visit",
];

/// Phrases over `WORDS`, longest first so detection is greedy-longest.
/// They share first tokens (`new ...`), last tokens (`... york`), and
/// appear reversed (`york new`); `city` also stands alone.
const PHRASES: [&[&str]; 6] = [
    &["new", "york", "city"],
    &["new", "york"],
    &["new", "jersey"],
    &["north", "york"],
    &["york", "new"],
    &["city"],
];

/// Detects a phrase only where its first token is capitalised, so a
/// lower-case occurrence stays undetected locally and must be recovered
/// by a rescan once a capitalised one registers the candidate.
#[derive(Debug)]
struct PhraseEmd;

impl LocalEmd for PhraseEmd {
    fn name(&self) -> &str {
        "phrase-list"
    }

    fn embedding_dim(&self) -> Option<usize> {
        None
    }

    fn process(&self, sentence: &Sentence) -> LocalEmdOutput {
        let toks: Vec<&str> = sentence.texts().collect();
        let mut spans = Vec::new();
        let mut i = 0;
        while i < toks.len() {
            let capitalised = toks[i].starts_with(|c: char| c.is_ascii_uppercase());
            let hit = PHRASES.iter().find(|p| {
                toks[i..].len() >= p.len()
                    && p.iter()
                        .zip(&toks[i..])
                        .all(|(w, t)| t.eq_ignore_ascii_case(w))
            });
            match hit {
                Some(p) if capitalised => {
                    spans.push(Span::new(i, i + p.len()));
                    i += p.len();
                }
                _ => i += 1,
            }
        }
        LocalEmdOutput {
            spans,
            token_embeddings: None,
        }
    }
}

/// Sentences from `(word, casing)` pairs: 0 lower, 1 Title, 2 UPPER.
fn stream_from(msgs: &[Vec<(usize, u8)>]) -> Vec<Sentence> {
    msgs.iter()
        .enumerate()
        .map(|(i, words)| {
            let toks = words.iter().map(|&(w, case)| match case {
                0 => WORDS[w].to_string(),
                1 => {
                    let mut t = WORDS[w].to_string();
                    t[..1].make_ascii_uppercase();
                    t
                }
                _ => WORDS[w].to_ascii_uppercase(),
            });
            Sentence::from_tokens(SentenceId::new(i as u64, 0), toks)
        })
        .collect()
}

/// A classifier biased hard enough to accept everything.
fn accept_all() -> EntityClassifier {
    let mut clf = EntityClassifier::new(7, 0);
    clf.params_mut().into_iter().last().unwrap().value.data[0] = 100.0;
    clf
}

fn msgs_strat() -> impl Strategy<Value = Vec<Vec<(usize, u8)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0usize..WORDS.len(), 0u8..3), 1..9),
        1..24,
    )
}

proptest! {
    /// The incremental dirty-set finalize is bit-identical to the
    /// brute-force full rescan, in both global ablations, with a fresh
    /// classifier whose scores straddle the γ band.
    #[test]
    fn incremental_finalize_matches_full_rescan_on_phrases(
        msgs in msgs_strat(),
        batch in 1usize..7,
        threads in 1usize..5,
        seed in 0u64..4,
    ) {
        let local = PhraseEmd;
        let clf = EntityClassifier::new(7, seed);
        let stream = stream_from(&msgs);
        for ablation in [Ablation::MentionExtraction, Ablation::Full] {
            let g = Globalizer::new(&local, None, &clf, GlobalizerConfig {
                ablation,
                promotion_support: 2,
                ..Default::default()
            });
            let mut s_inc = g.new_state();
            for chunk in stream.chunks(batch) {
                g.process_batch(&mut s_inc, chunk);
            }
            let mut s_full = s_inc.clone();
            let inc = g.finalize_with_threads(&mut s_inc, threads);
            let full = g.finalize_full_rescan(&mut s_full);
            prop_assert_eq!(&inc.per_sentence, &full.per_sentence);
            prop_assert_eq!(inc.n_candidates, full.n_candidates);
            prop_assert_eq!(inc.n_entities, full.n_entities);
            prop_assert_eq!(inc.n_promoted, full.n_promoted);
            prop_assert!(inc.n_rescanned <= full.n_rescanned);
            prop_assert_eq!(s_inc.candidates.len(), s_full.candidates.len());
            for (a, b) in s_inc.candidates.iter().zip(s_full.candidates.iter()) {
                prop_assert_eq!(&a.key, &b.key, "discovery order diverged");
                prop_assert_eq!(a.global_embedding(), b.global_embedding());
                prop_assert_eq!(&a.mentions, &b.mentions);
                prop_assert!(a.label == b.label, "label diverged for {}", a.key);
            }
        }
    }

    /// A sliding-window run emits the unbounded run's output restricted
    /// to the window. Promotion is off, as in the single-token windowed
    /// property: promotion evidence may leave the window by design.
    #[test]
    fn windowed_matches_unbounded_on_phrases(
        msgs in msgs_strat(),
        batch in 1usize..7,
        window in 1usize..9,
        threads in 1usize..4,
    ) {
        let local = PhraseEmd;
        let clf = accept_all();
        let stream = stream_from(&msgs);
        let run = |cfg: GlobalizerConfig, full_rescan: bool| {
            let g = Globalizer::new(&local, None, &clf, cfg);
            let mut s = g.new_state();
            for chunk in stream.chunks(batch) {
                g.process_batch(&mut s, chunk);
            }
            if full_rescan {
                g.finalize_full_rescan(&mut s)
            } else {
                g.finalize_with_threads(&mut s, threads)
            }
        };
        let unbounded_cfg = GlobalizerConfig {
            promotion_support: 0,
            ..Default::default()
        };
        let unbounded = run(unbounded_cfg.clone(), false);
        let windowed = run(GlobalizerConfig {
            window: WindowConfig::sliding(window),
            ..unbounded_cfg.clone()
        }, false);
        prop_assert!(windowed.quarantined.is_empty());
        let n_live = windowed.per_sentence.len();
        prop_assert_eq!(n_live, stream.len().min(window));
        let tail = unbounded.per_sentence.len() - n_live;
        prop_assert_eq!(
            &windowed.per_sentence[..],
            &unbounded.per_sentence[tail..],
            "in-window mentions must be bit-identical to the unbounded run"
        );
        // Both runs above mark dirty the same way, so a record both fail
        // to mark would go unseen; the brute-force rescan marks nothing.
        let reference = run(unbounded_cfg, true);
        prop_assert_eq!(
            &windowed.per_sentence[..],
            &reference.per_sentence[tail..],
            "in-window mentions must match a full rescan of every record"
        );
    }
}
