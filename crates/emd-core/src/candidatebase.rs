//! CandidateBase: per-candidate records with incrementally pooled global
//! embeddings.
//!
//! A candidate is keyed by its lower-cased space-joined token string. Every
//! mention found in the stream contributes its *local candidate embedding*
//! to a running sum; the **global candidate embedding** is the mean over
//! all contributions — "a consensus representation over all contextual
//! possibilities in which a candidate appears in the stream" (§V-C). The
//! pooling is incremental, so new mentions arriving in later batches simply
//! extend the pool.

use crate::classifier::CandidateLabel;
use emd_text::token::{SentenceId, Span};
use serde::value::Value;
use serde::{DeError, Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// A single located mention of a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MentionRef {
    /// Sentence the mention occurs in.
    pub sid: SentenceId,
    /// Token span inside that sentence.
    pub span: Span,
    /// Whether the Local EMD system itself found this mention (as opposed
    /// to the global rescan recovering it).
    pub locally_detected: bool,
}

/// Per-candidate record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CandidateRecord {
    /// Lower-cased space-joined key.
    pub key: String,
    /// Lower-cased tokens of the candidate (the key split on spaces; not
    /// serialized, rebuilt on load).
    #[serde(skip)]
    pub tokens: Vec<String>,
    /// All located mentions, in discovery order.
    pub mentions: Vec<MentionRef>,
    /// `(sentence, span)` pairs already in `mentions`, for O(1) dedup when
    /// overlapping rescans revisit a sentence. Not serialized: rebuilt
    /// from `mentions` on load.
    #[serde(skip)]
    seen: HashSet<(SentenceId, Span)>,
    /// Mentions whose sentences left the sliding window: the refs are
    /// released but the count is folded into [`CandidateRecord::frequency`]
    /// so every frequency-based decision stays cumulative.
    evicted_mentions: usize,
    /// How many of the evicted mentions were locally detected (keeps the
    /// trust-local emission ratio cumulative too).
    evicted_locally_detected: usize,
    /// Whether [`CandidateRecord::add_embedding`] retains the individual
    /// per-mention embeddings (needed for max pooling and training
    /// harvests; released in windowed mean-pooling mode, where only the
    /// running sum is consulted).
    store_local: bool,
    /// Running sum of local candidate embeddings.
    emb_sum: Vec<f32>,
    /// Number of pooled embeddings.
    emb_count: usize,
    /// The individual per-mention local embeddings, flattened row-major
    /// (`n × dim`, one contiguous block instead of a heap allocation per
    /// mention — iterate with [`CandidateRecord::local_rows`]). Kept so
    /// training can expose the classifier to the single-mention regime,
    /// and for pooled variants in ablations.
    local_flat: Vec<f32>,
    /// Classifier outcome (updated as the stream progresses).
    pub label: CandidateLabel,
    /// Last classifier probability, if scored.
    pub score: Option<f32>,
    /// Degraded-mode flag: the phrase embedder or classifier failed
    /// persistently for this candidate, so its classifier verdict is
    /// unreliable. Emission falls back to trusting only the Local EMD
    /// system's own detections for this candidate (LocalOnly behaviour).
    pub degraded: bool,
}

impl CandidateRecord {
    fn new(key: String, dim: usize, store_local: bool) -> CandidateRecord {
        let mut r = CandidateRecord {
            key,
            tokens: Vec::new(),
            mentions: Vec::new(),
            seen: HashSet::new(),
            evicted_mentions: 0,
            evicted_locally_detected: 0,
            store_local,
            emb_sum: vec![0.0; dim],
            emb_count: 0,
            local_flat: Vec::new(),
            label: CandidateLabel::Pending,
            score: None,
            degraded: false,
        };
        r.reindex();
        r
    }

    /// Rebuild the record's indexes from its contents: `tokens` from
    /// `key`, `seen` from `mentions`. Construction and checkpoint load
    /// both run it.
    fn reindex(&mut self) {
        self.tokens = self.key.split(' ').map(str::to_string).collect();
        self.seen = self.mentions.iter().map(|m| (m.sid, m.span)).collect();
    }

    /// Record a mention unless an identical `(sentence, span)` pair is
    /// already present. Returns `true` when the mention was new. This is
    /// the dedup gate the rescan relies on: a sentence revisited because
    /// two new candidates both touch it must not double-count mentions.
    pub fn try_add_mention(&mut self, mref: MentionRef) -> bool {
        if self.seen.insert((mref.sid, mref.span)) {
            self.mentions.push(mref);
            true
        } else {
            false
        }
    }

    /// Pool one local embedding into the global embedding.
    pub fn add_embedding(&mut self, local: &[f32]) {
        assert_eq!(local.len(), self.emb_sum.len(), "embedding dim mismatch");
        emd_simd::add_assign(&mut self.emb_sum, local);
        self.emb_count += 1;
        if self.store_local {
            self.local_flat.extend_from_slice(local);
        }
    }

    /// The retained per-mention local embeddings as `dim`-wide rows, in
    /// pooling order (empty in windowed mean-pooling mode).
    pub fn local_rows(&self) -> impl ExactSizeIterator<Item = &[f32]> {
        self.local_flat.chunks_exact(self.emb_sum.len().max(1))
    }

    /// The pooled global candidate embedding (mean), or zeros if no
    /// embeddings were contributed yet.
    pub fn global_embedding(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.emb_sum.len()];
        self.global_embedding_into(&mut out);
        out
    }

    /// [`CandidateRecord::global_embedding`] into a caller-owned buffer
    /// (resized to `dim`) — the allocation-free classification hot path.
    pub fn global_embedding_into(&self, out: &mut Vec<f32>) {
        out.resize(self.emb_sum.len(), 0.0);
        if self.emb_count == 0 {
            out.copy_from_slice(&self.emb_sum);
            return;
        }
        // Division (not reciprocal-multiply): the historical op sequence
        // of this path, preserved for bit-identity.
        emd_simd::div_into(out, &self.emb_sum, self.emb_count as f32);
    }

    /// Global embedding under an explicit pooling mode (ablation support).
    pub fn pooled_embedding(&self, pooling: crate::config::Pooling) -> Vec<f32> {
        let mut out = Vec::new();
        self.pooled_embedding_into(pooling, &mut out);
        out
    }

    /// [`CandidateRecord::pooled_embedding`] into a caller-owned buffer.
    pub fn pooled_embedding_into(&self, pooling: crate::config::Pooling, out: &mut Vec<f32>) {
        match pooling {
            crate::config::Pooling::Mean => self.global_embedding_into(out),
            crate::config::Pooling::Max => {
                let mut rows = self.local_rows();
                match rows.next() {
                    None => {
                        out.clear();
                        out.resize(self.emb_sum.len(), 0.0);
                    }
                    Some(first) => {
                        out.clear();
                        out.extend_from_slice(first);
                        for emb in rows {
                            emd_simd::max_assign(out, emb);
                        }
                    }
                }
            }
        }
    }

    /// Number of pooled embeddings (= mentions with embeddings).
    pub fn n_pooled(&self) -> usize {
        self.emb_count
    }

    /// Mention frequency — cumulative over the whole stream, including
    /// mentions whose sentences have since been evicted from the window.
    pub fn frequency(&self) -> usize {
        self.mentions.len() + self.evicted_mentions
    }

    /// How many of the candidate's mentions (cumulative, including
    /// evicted ones) the Local EMD system found itself. Feeds the
    /// trust-local emission fallback for degraded candidates.
    pub fn locally_detected_frequency(&self) -> usize {
        self.mentions.iter().filter(|m| m.locally_detected).count() + self.evicted_locally_detected
    }

    /// Release the per-mention bookkeeping of every mention whose sentence
    /// fails `is_live`: drop its [`MentionRef`]s and dedup entries while
    /// folding the counts into the cumulative totals. The pooled embedding
    /// sum is untouched — evicted mentions keep contributing to the global
    /// consensus embedding (§V-C); only their O(mentions) bookkeeping is
    /// reclaimed. Returns the number of refs released.
    pub fn release_dead<F: FnMut(SentenceId) -> bool>(&mut self, mut is_live: F) -> usize {
        let mut dropped = 0usize;
        let mut dropped_local = 0usize;
        self.mentions.retain(|m| {
            if is_live(m.sid) {
                true
            } else {
                dropped += 1;
                if m.locally_detected {
                    dropped_local += 1;
                }
                false
            }
        });
        if dropped == 0 {
            return 0;
        }
        self.evicted_mentions += dropped;
        self.evicted_locally_detected += dropped_local;
        self.seen.retain(|&(sid, _)| is_live(sid));
        if self.mentions.capacity() > 2 * self.mentions.len() + 4 {
            self.mentions.shrink_to_fit();
        }
        self.seen.shrink_to_fit();
        dropped
    }

    /// Number of tokens in the candidate (the paper's `+1` length feature).
    pub fn token_len(&self) -> usize {
        self.tokens.len()
    }
}

/// The stream-wide candidate store.
///
/// A checkpoint carries the records (without their `seen` and `tokens`),
/// the dimension and the store-local flag; load rebuilds the rest.
#[derive(Debug, Clone, Serialize)]
pub struct CandidateBase {
    records: Vec<CandidateRecord>,
    dim: usize,
    store_local: bool,
    /// Key → position in `records`, rebuilt by [`CandidateBase::reindex`].
    #[serde(skip)]
    index: HashMap<String, usize>,
}

impl CandidateBase {
    /// New store for embeddings of dimension `dim`.
    pub fn new(dim: usize) -> CandidateBase {
        CandidateBase {
            records: Vec::new(),
            index: HashMap::new(),
            dim,
            store_local: true,
        }
    }

    /// Control whether new records retain individual per-mention
    /// embeddings (on by default). Windowed mean-pooling pipelines turn
    /// this off: only the running sum is ever consulted there, and the
    /// per-mention list would grow with stream length, not window size.
    pub fn set_store_local(&mut self, on: bool) {
        self.store_local = on;
    }

    /// Release per-mention bookkeeping for every mention whose sentence
    /// fails `is_live`, across all records (see
    /// [`CandidateRecord::release_dead`]). Returns total refs released.
    pub fn release_dead<F: FnMut(SentenceId) -> bool>(&mut self, mut is_live: F) -> usize {
        self.records
            .iter_mut()
            .map(|r| r.release_dead(&mut is_live))
            .sum()
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Get-or-create a record for the (already lower-cased) key.
    pub fn entry(&mut self, key: &str) -> &mut CandidateRecord {
        let i = match self.index.get(key) {
            Some(&i) => i,
            None => {
                let i = self.records.len();
                self.index.insert(key.to_string(), i);
                self.records.push(CandidateRecord::new(
                    key.to_string(),
                    self.dim,
                    self.store_local,
                ));
                i
            }
        };
        &mut self.records[i]
    }

    /// Lookup by key.
    pub fn get(&self, key: &str) -> Option<&CandidateRecord> {
        self.index.get(key).map(|&i| &self.records[i])
    }

    /// Mutable lookup by key.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut CandidateRecord> {
        let i = *self.index.get(key)?;
        Some(&mut self.records[i])
    }

    /// All records in discovery order.
    pub fn iter(&self) -> impl Iterator<Item = &CandidateRecord> {
        self.records.iter()
    }

    /// Mutable iteration.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut CandidateRecord> {
        self.records.iter_mut()
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drop every record failing `keep`, preserving discovery order of the
    /// survivors and rebuilding the key index. Returns the pruned records
    /// (the caller traces them and removes their CTrie paths). A candidate
    /// pruned here and re-seen later is simply rediscovered as a fresh
    /// record — the paper's Figure 7 argument: a low-frequency candidate
    /// whose mentions have all left the window no longer contributes to
    /// global-embedding quality, so its pool can be rebuilt from scratch.
    pub fn prune_retain<F: FnMut(&CandidateRecord) -> bool>(
        &mut self,
        mut keep: F,
    ) -> Vec<CandidateRecord> {
        // Pruning fires every window enforcement, but on most batches
        // nothing is prunable — scan for the first casualty before
        // committing to the record sweep, so the common case is one
        // predicate pass with no moves, no allocation, and no index
        // rebuild. `keep` runs exactly once per record in discovery
        // order either way.
        let first_pruned = match self.records.iter().position(|r| !keep(r)) {
            None => return Vec::new(),
            Some(i) => i,
        };
        let mut pruned = Vec::new();
        let tail: Vec<CandidateRecord> = self.records.drain(first_pruned..).collect();
        for (j, r) in tail.into_iter().enumerate() {
            // `position` already judged the first tail record prunable.
            if j > 0 && keep(&r) {
                self.records.push(r);
            } else {
                pruned.push(r);
            }
        }
        self.reindex()
            .expect("surviving keys were unique before the prune");
        pruned
    }

    /// Rebuild the key index from the records. Pruning and checkpoint
    /// load both end here. Rejects a key held by two records.
    fn reindex(&mut self) -> Result<(), DeError> {
        self.index.clear();
        for (i, r) in self.records.iter().enumerate() {
            if self.index.insert(r.key.clone(), i).is_some() {
                return Err(DeError::msg(format!(
                    "two candidates share key {:?}",
                    r.key
                )));
            }
        }
        Ok(())
    }

    /// Estimated resident heap bytes: keys, mention lists, dedup sets, and
    /// the pooled + per-mention embeddings (the dominant term for deep
    /// local systems). An estimate for gauges, not allocator-exact.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut total = self.records.capacity() * size_of::<CandidateRecord>();
        for r in &self.records {
            total += r.key.len();
            total += r
                .tokens
                .iter()
                .map(|t| t.len() + size_of::<String>())
                .sum::<usize>();
            total += r.mentions.capacity() * size_of::<MentionRef>();
            total += r.seen.len() * size_of::<(SentenceId, Span)>();
            total += r.emb_sum.capacity() * size_of::<f32>();
            total += r.local_flat.capacity() * size_of::<f32>();
        }
        for key in self.index.keys() {
            total += key.len() + size_of::<usize>();
        }
        total
    }
}

// Load decodes the records, rebuilds each record's indexes and the key
// index, and rejects embedding buffers that do not fit `dim` (the pooling
// kernels would panic on them later).
impl Deserialize for CandidateBase {
    fn from_value(v: &Value) -> Result<CandidateBase, DeError> {
        let mut cb = CandidateBase {
            records: v.field("records")?,
            dim: v.field("dim")?,
            store_local: v.field("store_local")?,
            index: HashMap::new(),
        };
        for r in &mut cb.records {
            let (sum, flat) = (r.emb_sum.len(), r.local_flat.len());
            if sum != cb.dim || flat % cb.dim.max(1) != 0 {
                let dim = cb.dim;
                return Err(DeError::msg(format!(
                    "candidate {:?}: embedding lengths {sum} and {flat} do not fit dim {dim}",
                    r.key
                )));
            }
            r.reindex();
        }
        cb.reindex()?;
        Ok(cb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_creates_once() {
        let mut cb = CandidateBase::new(3);
        cb.entry("andy beshear");
        cb.entry("andy beshear");
        cb.entry("italy");
        assert_eq!(cb.len(), 2);
        assert_eq!(cb.get("andy beshear").unwrap().token_len(), 2);
    }

    #[test]
    fn incremental_pooling_is_mean() {
        let mut cb = CandidateBase::new(2);
        let r = cb.entry("covid");
        r.add_embedding(&[1.0, 0.0]);
        r.add_embedding(&[0.0, 1.0]);
        r.add_embedding(&[2.0, 2.0]);
        assert_eq!(r.global_embedding(), vec![1.0, 1.0]);
        assert_eq!(r.n_pooled(), 3);
    }

    #[test]
    fn max_pooling() {
        use crate::config::Pooling;
        let mut cb = CandidateBase::new(2);
        let r = cb.entry("covid");
        r.add_embedding(&[1.0, 0.0]);
        r.add_embedding(&[0.0, 2.0]);
        assert_eq!(r.pooled_embedding(Pooling::Max), vec![1.0, 2.0]);
        assert_eq!(r.pooled_embedding(Pooling::Mean), vec![0.5, 1.0]);
    }

    #[test]
    fn empty_pool_is_zeros() {
        let mut cb = CandidateBase::new(4);
        let r = cb.entry("x");
        assert_eq!(r.global_embedding(), vec![0.0; 4]);
    }

    #[test]
    fn mentions_tracked() {
        let mut cb = CandidateBase::new(1);
        let r = cb.entry("italy");
        r.mentions.push(MentionRef {
            sid: SentenceId::new(1, 0),
            span: Span::new(0, 1),
            locally_detected: true,
        });
        r.mentions.push(MentionRef {
            sid: SentenceId::new(2, 0),
            span: Span::new(3, 4),
            locally_detected: false,
        });
        assert_eq!(r.frequency(), 2);
        assert_eq!(r.mentions.iter().filter(|m| m.locally_detected).count(), 1);
    }

    #[test]
    fn try_add_mention_dedups() {
        let mut cb = CandidateBase::new(1);
        let r = cb.entry("italy");
        let a = MentionRef {
            sid: SentenceId::new(1, 0),
            span: Span::new(0, 1),
            locally_detected: true,
        };
        let b = MentionRef {
            span: Span::new(3, 4),
            ..a
        };
        assert!(r.try_add_mention(a));
        assert!(r.try_add_mention(b));
        // Same (sid, span) again — even with a different provenance flag —
        // is a duplicate.
        assert!(!r.try_add_mention(MentionRef {
            locally_detected: false,
            ..a
        }));
        assert_eq!(r.frequency(), 2);
    }

    #[test]
    #[should_panic(expected = "embedding dim mismatch")]
    fn wrong_dim_panics() {
        let mut cb = CandidateBase::new(3);
        cb.entry("x").add_embedding(&[1.0]);
    }

    #[test]
    fn prune_retain_preserves_order_and_rebuilds_index() {
        let mut cb = CandidateBase::new(1);
        for key in ["a", "b", "c", "d"] {
            cb.entry(key);
        }
        let pruned = cb.prune_retain(|r| r.key != "b" && r.key != "d");
        assert_eq!(
            pruned.iter().map(|r| r.key.as_str()).collect::<Vec<_>>(),
            vec!["b", "d"]
        );
        assert_eq!(
            cb.iter().map(|r| r.key.as_str()).collect::<Vec<_>>(),
            vec!["a", "c"]
        );
        assert_eq!(cb.len(), 2);
        assert!(cb.get("b").is_none());
        // The rebuilt index must point at the right survivors.
        cb.get_mut("c").unwrap().mentions.push(MentionRef {
            sid: SentenceId::new(9, 0),
            span: Span::new(0, 1),
            locally_detected: false,
        });
        assert_eq!(cb.get("c").unwrap().frequency(), 1);
        assert_eq!(cb.get("a").unwrap().frequency(), 0);
        // A pruned key re-enters as a fresh record at the tail.
        cb.entry("b");
        assert_eq!(cb.len(), 3);
        assert_eq!(cb.get("b").unwrap().frequency(), 0);
    }

    #[test]
    fn prune_retain_all_kept_is_noop() {
        let mut cb = CandidateBase::new(1);
        cb.entry("a");
        cb.entry("b");
        let pruned = cb.prune_retain(|_| true);
        assert!(pruned.is_empty());
        assert_eq!(cb.len(), 2);
        assert_eq!(cb.get("a").unwrap().key, "a");
    }

    #[test]
    fn release_dead_folds_counts_and_keeps_frequency_cumulative() {
        let mut cb = CandidateBase::new(1);
        let r = cb.entry("italy");
        for i in 0..6u64 {
            assert!(r.try_add_mention(MentionRef {
                sid: SentenceId::new(i, 0),
                span: Span::new(0, 1),
                locally_detected: i % 2 == 0,
            }));
        }
        assert_eq!(r.frequency(), 6);
        assert_eq!(r.locally_detected_frequency(), 3);
        // Sentences 0..4 leave the window.
        let released = cb.release_dead(|sid| sid.tweet_id >= 4);
        assert_eq!(released, 4);
        let r = cb.get("italy").unwrap();
        assert_eq!(r.mentions.len(), 2, "only live refs remain");
        assert_eq!(r.frequency(), 6, "frequency stays cumulative");
        assert_eq!(r.locally_detected_frequency(), 3);
        // The dedup gate forgets released (sid, span) pairs: a re-used
        // sentence id would re-count, which is why quarantine permanence
        // (not this set) guards against id re-delivery.
        let r = cb.get_mut("italy").unwrap();
        assert!(r.try_add_mention(MentionRef {
            sid: SentenceId::new(0, 0),
            span: Span::new(0, 1),
            locally_detected: false,
        }));
        assert_eq!(r.frequency(), 7);
    }

    #[test]
    fn release_dead_with_all_live_is_noop() {
        let mut cb = CandidateBase::new(1);
        let r = cb.entry("covid");
        r.try_add_mention(MentionRef {
            sid: SentenceId::new(0, 0),
            span: Span::new(0, 1),
            locally_detected: true,
        });
        assert_eq!(cb.release_dead(|_| true), 0);
        assert_eq!(cb.get("covid").unwrap().mentions.len(), 1);
    }

    #[test]
    fn store_local_off_skips_per_mention_embeddings() {
        let mut cb = CandidateBase::new(2);
        cb.set_store_local(false);
        let r = cb.entry("covid");
        r.add_embedding(&[1.0, 0.0]);
        r.add_embedding(&[0.0, 1.0]);
        // The pooled mean is unaffected; only the per-mention list is
        // elided.
        assert_eq!(r.global_embedding(), vec![0.5, 0.5]);
        assert_eq!(r.n_pooled(), 2);
        assert_eq!(r.local_rows().len(), 0);
    }

    #[test]
    fn round_trip_rebuilds_keys_tokens_and_dedup() {
        let mut cb = CandidateBase::new(2);
        cb.entry("italy").add_embedding(&[1.0, 2.0]);
        let m = MentionRef {
            sid: SentenceId::new(1, 0),
            span: Span::new(0, 2),
            locally_detected: true,
        };
        assert!(cb.entry("andy beshear").try_add_mention(m));
        let mut back = CandidateBase::from_value(&cb.to_value()).unwrap();
        let r = back.get_mut("andy beshear").unwrap();
        assert_eq!(r.tokens, ["andy", "beshear"]);
        assert!(!r.try_add_mention(m), "dedup set rebuilt from mentions");
        assert_eq!(back.get("italy").unwrap().global_embedding(), [1.0, 2.0]);
        let mut bad = cb.clone();
        bad.dim = 3;
        assert!(CandidateBase::from_value(&bad.to_value()).is_err());
    }

    #[test]
    fn resident_bytes_shrinks_on_prune() {
        let mut cb = CandidateBase::new(8);
        for i in 0..16 {
            let key = format!("candidate number {i}");
            let r = cb.entry(&key);
            r.add_embedding(&[0.5; 8]);
        }
        let before = cb.resident_bytes();
        cb.prune_retain(|r| r.key.ends_with('1'));
        assert!(
            cb.resident_bytes() < before,
            "pruning must shrink resident bytes"
        );
    }
}
