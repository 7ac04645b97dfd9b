//! Checkpoints carry contents, not indexes.
//!
//! * Two supervised runs of one windowed, promoting stream with a
//!   quarantined sentence write byte-identical checkpoint files: nothing
//!   hash-ordered and no wall-clock measurement reaches the payload.
//! * A payload whose checksum is valid but whose contents no store can
//!   hold — a token without an interned symbol, an embedding slot outside
//!   the arena, two live slots with one sentence id, a pooled embedding
//!   that does not fit the candidate dimension — loads as
//!   `CheckpointError::Corrupt`, and a supervised restore walks past it
//!   to the previous generation.

use emd_globalizer::core::config::WindowConfig;
use emd_globalizer::core::globalizer::GlobalizerState;
use emd_globalizer::core::local::LexiconEmd;
use emd_globalizer::core::supervisor::{RunReport, StreamSupervisor, SupervisorConfig};
use emd_globalizer::core::{EntityClassifier, Globalizer, GlobalizerConfig};
use emd_globalizer::resilience::checkpoint::{self, CheckpointError, FORMAT_VERSION};
use emd_globalizer::resilience::deadletter;
use emd_globalizer::resilience::validate::MAX_TOKEN_BYTES;
use emd_globalizer::text::token::{Sentence, SentenceId};
use std::path::{Path, PathBuf};

/// "Moross Lumsa" is only ever detected in fragments and gets promoted at
/// finalize; one sentence is quarantined at ingest (oversized token); the
/// window of four evicts, and one-off candidates are pruned.
fn stream() -> Vec<Sentence> {
    let big = "x".repeat(MAX_TOKEN_BYTES + 1);
    let msgs: Vec<Vec<&str>> = vec![
        vec!["we", "saw", "Zutav", "today"],
        vec!["Moross", "Lumsa", "speaks"],
        vec!["Kirov", "visits", "Ostra"],
        vec!["Zutav", "arrives", "in", "Italy"],
        vec!["Moross", "Lumsa", "again"],
        vec!["news", "from", big.as_str()],
        vec!["Moross", "Lumsa", "rallies", "in", "Italy"],
        vec!["calm", "day"],
        vec!["Moross", "Lumsa", "returns"],
        vec!["quiet", "evening", "in", "Italy"],
        vec!["Moross", "Lumsa", "wins"],
        vec!["Zutav", "and", "Italy", "agree"],
    ];
    msgs.into_iter()
        .enumerate()
        .map(|(i, words)| Sentence::from_tokens(SentenceId::new(i as u64, 0), words))
        .collect()
}

fn local() -> LexiconEmd {
    LexiconEmd::new(["moross", "lumsa", "zutav", "kirov", "ostra", "italy"])
}

fn globalizer<'a>(local: &'a LexiconEmd, clf: &'a EntityClassifier) -> Globalizer<'a> {
    Globalizer::new(
        local,
        None,
        clf,
        GlobalizerConfig {
            window: WindowConfig::sliding(4),
            ..Default::default()
        },
    )
}

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "emd_ckpt_contents_{}_{tag}.ckpt",
        std::process::id()
    ))
}

fn supervise(g: &Globalizer<'_>, path: &Path, stream: &[Sentence]) -> RunReport {
    StreamSupervisor::new(
        g,
        SupervisorConfig {
            checkpoint_path: Some(path.to_path_buf()),
            checkpoint_every: 2,
            checkpoint_generations: 2,
            batch_size: 2,
            ..Default::default()
        },
    )
    .run(stream)
}

fn remove(path: &Path) {
    for k in 0..2 {
        let _ = std::fs::remove_file(checkpoint::generation_path(path, k));
    }
    let _ = std::fs::remove_file(deadletter::deadletter_path(path));
}

#[test]
fn supervised_checkpoints_are_byte_identical_across_runs() {
    let (local, clf) = (local(), EntityClassifier::new(7, 3));
    let g = globalizer(&local, &clf);
    let s = stream();
    let mut files = Vec::new();
    for run in 0..2 {
        let path = temp(&format!("det{run}"));
        let report = supervise(&g, &path, &s);
        assert!(!report.resumed_from_checkpoint);
        assert_eq!(report.output.quarantined.len(), 1);
        assert_eq!(report.output.n_promoted, 1);
        let (_, state): (u64, GlobalizerState) = checkpoint::load(&path).unwrap();
        assert!(state.n_evicted() > 0, "the window evicted");
        files.push([0, 1].map(|k| std::fs::read(checkpoint::generation_path(&path, k)).unwrap()));
        remove(&path);
    }
    assert!(
        files[0] == files[1],
        "two runs of one stream wrote different checkpoint bytes"
    );
    // No derived index and no timing reaches the payload.
    let payload = String::from_utf8(files[0][0].clone()).unwrap();
    for field in [
        "index",
        "postings",
        "live",
        "emb_dead",
        "tok_syms",
        "seen",
        "nodes",
        "free",
        "n_candidates",
        "timings",
    ] {
        assert!(!payload.contains(&format!("\"{field}\":")), "{field}");
    }
}

/// Rewrite the payload of a valid checkpoint with `craft` and re-seal it
/// with a matching checksum, so only the decoder can object.
fn reseal(path: &Path, craft: impl FnOnce(&str) -> String) {
    let content = std::fs::read_to_string(path).unwrap();
    let (header, payload) = content.split_once('\n').unwrap();
    let seq = header.split(' ').nth(2).unwrap();
    let payload = craft(payload.trim_end_matches('\n'));
    let crc = checkpoint::fnv1a64(payload.as_bytes());
    std::fs::write(
        path,
        format!("EMDCKPT v{FORMAT_VERSION} {seq} crc={crc:016x}\n{payload}\n"),
    )
    .unwrap();
}

/// Apply `f` to the part of the payload holding the sentence slots only.
fn in_slots(payload: &str, f: impl FnOnce(&str) -> String) -> String {
    let start = payload.find("\"slots\":").unwrap();
    let end = payload.find("\"interner\":").unwrap();
    format!(
        "{}{}{}",
        &payload[..start],
        f(&payload[start..end]),
        &payload[end..]
    )
}

/// Give the second live slot the first slot's sentence id.
fn duplicate_first_id(slots: &str) -> String {
    const KEY: &str = "\"id\":{\"tweet_id\":";
    let at: Vec<usize> = slots
        .match_indices(KEY)
        .map(|(i, _)| i + KEY.len())
        .collect();
    let digits = |i: usize| {
        let n = slots[i..].find(|c: char| !c.is_ascii_digit()).unwrap();
        i..i + n
    };
    let (first, second) = (digits(at[0]), digits(at[1]));
    assert_ne!(slots[first.clone()], slots[second.clone()]);
    format!(
        "{}{}{}",
        &slots[..second.start],
        &slots[first],
        &slots[second.end..]
    )
}

type Craft = fn(&str) -> String;

/// Each crafted payload, with the words its rejection names.
const CRAFTS: [(&str, Craft, &str); 4] = [
    (
        "token without a symbol",
        |p| in_slots(p, |s| s.replacen("\"text\":\"", "\"text\":\"qzqz", 1)),
        "has no interned symbol",
    ),
    (
        "embedding slot outside the arena",
        |p| {
            in_slots(p, |s| {
                s.replacen(
                    "\"emb\":null",
                    "\"emb\":{\"off\":0,\"rows\":2,\"cols\":3}",
                    1,
                )
            })
        },
        "outside the arena",
    ),
    (
        "two live slots with one sentence id",
        |p| in_slots(p, duplicate_first_id),
        "two live slots hold sentence",
    ),
    (
        "pooled embedding that does not fit dim",
        |p| p.replacen("\"emb_sum\":[", "\"emb_sum\":[0.5,", 1),
        "do not fit dim",
    ),
];

#[test]
fn crafted_payloads_load_as_corrupt_and_restore_walks_past_them() {
    let (local, clf) = (local(), EntityClassifier::new(7, 3));
    let g = globalizer(&local, &clf);
    let s = stream();
    let (plain, _) = g.run(&s, 2);
    for (what, craft, reason) in CRAFTS {
        let path = temp(&format!("craft{}", what.len()));
        // Interrupted run: generations hold batches 4 (live) and 2 (.1).
        let _ = supervise(&g, &path, &s[..8]);
        reseal(&path, craft);
        match checkpoint::load::<GlobalizerState>(&path) {
            Err(CheckpointError::Corrupt(e)) => assert!(e.contains(reason), "{what}: {e}"),
            other => panic!(
                "{what}: expected Corrupt, got {:?}",
                other.map(|(seq, _)| seq)
            ),
        }
        let report = supervise(&g, &path, &s);
        assert!(report.resumed_from_checkpoint, "{what}");
        assert_eq!(report.checkpoint_generation, 1, "{what}");
        assert_eq!(report.checkpoint_fallbacks, 1, "{what}");
        let why = report.checkpoint_discard_reason.unwrap();
        assert!(
            why.contains("corrupt") && why.contains(reason),
            "{what}: {why}"
        );
        assert_eq!(report.batches_skipped, 2, "{what}: resumed from seq 2");
        assert_eq!(
            report.output.per_sentence, plain.per_sentence,
            "{what}: the fallback restart stays bit-identical"
        );
        remove(&path);
    }
}
