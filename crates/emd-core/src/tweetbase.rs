//! TweetBase: per-sentence records maintained across the pipeline.
//!
//! Indexed by `(tweet id, sentence id)` pairs, a record stores the sentence
//! itself, the token embeddings produced at Local EMD (deep systems only),
//! the spans the local system detected, and the mention list that Global
//! EMD updates as the sentences pass through the second phase.
//!
//! ## SoA layout
//!
//! The store is the owner of the pipeline's shared token [`Interner`]. At
//! insert every token is case-folded and interned once into
//! [`TweetRecord::tok_syms`]; the occurrence scan, the inverted index, and
//! the CTrie walk all operate on those `u32` symbols — the per-scan
//! `to_lowercase()` string churn of the original layout is gone. The
//! inverted index itself is a symbol-indexed `Vec<Vec<usize>>` instead of
//! a `HashMap<String, _>`, and token-embedding matrices live in one flat
//! `f32` arena (`emb_arena`) with per-record row offsets instead of a heap
//! allocation per sentence.
//!
//! Records *outside* the store are always self-contained: `insert` drains
//! an incoming record's `token_embeddings` matrix into the arena, and
//! `evict` copies the rows back out into the returned record — so callers
//! that hold evicted records (quarantine, replay) never see arena offsets
//! that a later [`TweetBase::compact`] would invalidate.
//!
//! ## Bounded-memory storage
//!
//! For 24/7 streams the store supports *eviction*: a record can be removed
//! from its slot (the slot becomes a tombstone) while stream-order indices
//! of the remaining records stay stable — the globalizer's dirty set,
//! quarantine set, and the token posting lists all hold slot indices, and
//! none of them need rewriting when a cold record is dropped. Eviction
//! removes the record's posting-list entries and frees the sentence and
//! span storage; its arena rows become dead bytes that
//! [`TweetBase::compact`] reclaims when it squeezes out the tombstones
//! (returning an old→new index remap for the caller's index-keyed sets) so
//! checkpoints and restarts stay O(live window), not O(stream).

use emd_nn::matrix::Matrix;
use emd_text::intern::{Interner, Sym};
use emd_text::token::{Sentence, SentenceId, Span};
use serde::value::Value;
use serde::{DeError, Deserialize, Serialize};
use std::collections::HashMap;

/// Where a record's token-embedding rows live inside the store's arena.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct EmbSlot {
    /// Flat offset of row 0 in `emb_arena`.
    off: usize,
    /// Number of rows (= sentence tokens for deep local systems).
    rows: usize,
    /// Embedding dimensionality.
    cols: usize,
}

/// Borrowed view of one record's token-embedding rows in the arena.
#[derive(Debug, Clone, Copy)]
pub struct EmbView<'a> {
    /// The record's `rows * cols` floats, row-major.
    pub data: &'a [f32],
    /// Number of token rows.
    pub rows: usize,
    /// Embedding dimensionality.
    pub cols: usize,
}

impl<'a> EmbView<'a> {
    /// Row `r` as a contiguous slice.
    #[inline]
    pub fn row(&self, r: usize) -> &'a [f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }
}

/// One sentence's record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TweetRecord {
    /// The sentence.
    pub sentence: Sentence,
    /// Entity-aware token embeddings `[T, d]` from Local EMD (deep only).
    /// Carried by records *outside* the store; drained into the arena at
    /// insert (stored records answer through [`TweetBase::embedding_view`])
    /// and re-materialized by [`TweetBase::evict`].
    pub token_embeddings: Option<Matrix>,
    /// Spans the Local EMD system itself proposed.
    pub local_spans: Vec<Span>,
    /// All candidate mentions found by the global rescan (superset of the
    /// verified `local_spans`, aligned to CTrie candidates).
    pub global_mentions: Vec<Span>,
    /// Case-folded interned symbol per token, filled at insert (and by
    /// [`TweetBase::reindex`]; not serialized). The scan walks these
    /// against the CTrie's symbol edges allocation-free.
    #[serde(skip)]
    pub tok_syms: Vec<Sym>,
    /// Arena placement of the token embeddings while stored.
    emb: Option<EmbSlot>,
}

impl TweetRecord {
    /// A fresh (not-yet-inserted) record. `tok_syms` is populated by
    /// [`TweetBase::insert`].
    pub fn new(
        sentence: Sentence,
        token_embeddings: Option<Matrix>,
        local_spans: Vec<Span>,
    ) -> TweetRecord {
        TweetRecord {
            sentence,
            token_embeddings,
            local_spans,
            global_mentions: Vec::new(),
            tok_syms: Vec::new(),
            emb: None,
        }
    }
}

/// The stream-wide sentence store.
///
/// Besides the id → record map, the store maintains an inverted index from
/// interned token symbol to the (stream-ordered) record indices of
/// sentences containing that token. Global EMD uses it to find which
/// sentences a newly discovered candidate could possibly match — a
/// candidate insertion only changes a sentence's extraction if the
/// sentence spells the candidate's whole phrase, so it intersects the
/// posting lists of the phrase's tokens and checks each survivor's
/// [`TweetRecord::tok_syms`] for the run — and the close-of-stream rescan
/// touches only those sentences instead of the whole stream.
///
/// Posting-list invariant: every list holds strictly ascending indices of
/// **live** records whose sentence contains the token. Replacement and
/// eviction both maintain this by removing the outgoing record's postings;
/// there are no stale or duplicated entries.
///
/// A checkpoint carries the store's contents only — the slots, the
/// interner, the embedding arena and the eviction count. Everything else
/// is an index over those and is rebuilt by [`TweetBase::reindex`], which
/// compaction and checkpoint load both run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct TweetBase {
    /// Stream-ordered record slots; `None` marks an evicted record.
    slots: Vec<Option<TweetRecord>>,
    /// The pipeline-wide token interner (symbols shared with the CTrie).
    interner: Interner,
    /// Flat row-major token-embedding storage for all live records.
    emb_arena: Vec<f32>,
    /// Cumulative count of evictions over the lifetime of the store
    /// (survives compaction; drives the evicted-records gauge).
    evicted_total: u64,
    /// Sentence id → slot index, live records only.
    #[serde(skip)]
    index: HashMap<SentenceId, usize>,
    /// Symbol → strictly ascending live slot indices. Indexed by `Sym`;
    /// symbols never seen in a sentence simply have an empty list.
    #[serde(skip)]
    postings: Vec<PostingList>,
    /// Arena floats belonging to evicted/replaced records (reclaimed by
    /// [`TweetBase::compact`]).
    #[serde(skip)]
    emb_dead: usize,
    /// Number of live (non-tombstone) slots.
    #[serde(skip)]
    live: usize,
    /// Reusable scratch for posting-list updates (sorted/deduped symbols
    /// of one sentence) — keeps add/remove allocation-free in steady
    /// state.
    #[serde(skip)]
    scratch_syms: Vec<Sym>,
}

/// One symbol's posting list: strictly ascending live slot indices
/// behind an amortised head offset. Window eviction runs oldest-first,
/// so removals overwhelmingly hit the logical front — and popping the
/// front of a plain `Vec` memmoves the whole tail, which at window
/// scale was the dominant eviction cost. Here a front removal just
/// advances `head` in O(1); the dead prefix is physically reclaimed
/// once it outgrows the live part, keeping memory O(live).
#[derive(Debug, Clone, Default)]
struct PostingList {
    items: Vec<usize>,
    head: usize,
}

impl PostingList {
    /// The live entries, strictly ascending.
    #[inline]
    fn as_slice(&self) -> &[usize] {
        &self.items[self.head..]
    }

    /// Insert `i`, keeping the list strictly ascending and deduplicated.
    fn insert(&mut self, i: usize) {
        match self.as_slice().binary_search(&i) {
            Ok(_) => {}
            Err(pos) => self.items.insert(self.head + pos, i),
        }
    }

    /// Remove `i` if present. Front removals advance the head; the dead
    /// prefix is drained once it exceeds the live half.
    fn remove(&mut self, i: usize) {
        if let Ok(pos) = self.as_slice().binary_search(&i) {
            if pos == 0 {
                self.head += 1;
                if self.head * 2 > self.items.len() {
                    self.items.drain(..self.head);
                    self.head = 0;
                }
            } else {
                self.items.remove(self.head + pos);
            }
        }
    }

    /// No live entries left?
    fn is_empty(&self) -> bool {
        self.head == self.items.len()
    }

    /// Drop all entries, keeping the allocation for reuse.
    fn clear(&mut self) {
        self.items.clear();
        self.head = 0;
    }

    /// Drop all entries and release the heap block (a token whose last
    /// sentence left the window should not pin memory).
    fn release(&mut self) {
        *self = PostingList::default();
    }

    /// Physical capacity in entries, for memory accounting.
    fn capacity(&self) -> usize {
        self.items.capacity()
    }
}

impl TweetBase {
    /// Empty TweetBase.
    pub fn new() -> TweetBase {
        TweetBase::default()
    }

    /// The shared token interner.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Mutable access to the shared interner (trie registration interns
    /// candidate tokens through this).
    pub fn interner_mut(&mut self) -> &mut Interner {
        &mut self.interner
    }

    /// Insert a record at the end of the stream order, interning its
    /// tokens and moving its embedding matrix into the arena. Replaces any
    /// previous record with the same id (streams should not repeat ids);
    /// the replaced record's posting-list entries are removed before the
    /// new sentence is indexed, so postings never go stale or unsorted.
    pub fn insert(&mut self, mut record: TweetRecord) -> usize {
        record.tok_syms.clear();
        for t in &record.sentence.tokens {
            record.tok_syms.push(self.interner.intern_folded(&t.text));
        }
        record.emb = record.token_embeddings.take().map(|m| {
            let off = self.emb_arena.len();
            self.emb_arena.extend_from_slice(&m.data);
            EmbSlot {
                off,
                rows: m.rows,
                cols: m.cols,
            }
        });
        let id = record.sentence.id;
        let i = if let Some(&i) = self.index.get(&id) {
            // Replacement: drop the old sentence's postings first. Pushing
            // the new tokens directly would re-append index `i` *after*
            // any later records' indices (the old tail-only dedup produced
            // unsorted, duplicated lists like `[0, 1, 0]`).
            if let Some(old) = self.slots[i].take() {
                self.remove_record_postings(i, &old);
            }
            self.slots[i] = Some(record);
            i
        } else {
            let i = self.slots.len();
            self.index.insert(id, i);
            self.slots.push(Some(record));
            self.live += 1;
            i
        };
        self.add_postings(i);
        i
    }

    /// Index every distinct symbol of slot `i`'s sentence, keeping each
    /// posting list strictly ascending. Uses the reusable scratch buffer —
    /// no per-call allocation once warm.
    fn add_postings(&mut self, i: usize) {
        let mut keys = std::mem::take(&mut self.scratch_syms);
        keys.clear();
        keys.extend_from_slice(
            &self.slots[i]
                .as_ref()
                .expect("add_postings on tombstone")
                .tok_syms,
        );
        keys.sort_unstable();
        keys.dedup();
        for &sym in &keys {
            let s = sym as usize;
            if self.postings.len() <= s {
                self.postings.resize_with(s + 1, PostingList::default);
            }
            self.postings[s].insert(i);
        }
        self.scratch_syms = keys;
    }

    /// Remove slot `i`'s entries from the posting lists of `record`'s
    /// symbols, releasing the heap block of lists that become empty (a
    /// token whose last sentence left the window should not pin memory),
    /// and marking the record's arena rows dead.
    fn remove_record_postings(&mut self, i: usize, record: &TweetRecord) {
        let mut keys = std::mem::take(&mut self.scratch_syms);
        keys.clear();
        keys.extend_from_slice(&record.tok_syms);
        keys.sort_unstable();
        keys.dedup();
        for &sym in &keys {
            if let Some(postings) = self.postings.get_mut(sym as usize) {
                postings.remove(i);
                if postings.is_empty() {
                    postings.release();
                }
            }
        }
        self.scratch_syms = keys;
        if let Some(slot) = record.emb {
            self.emb_dead += slot.rows * slot.cols;
        }
    }

    /// Ascending live-record indices of sentences containing the (already
    /// lower-cased) token. Strictly ascending, deduplicated, and free of
    /// replaced or evicted records.
    pub fn indices_with_token(&self, token_lower: &str) -> &[usize] {
        self.interner
            .lookup_folded(token_lower)
            .map(|sym| self.indices_with_sym(sym))
            .unwrap_or(&[])
    }

    /// [`TweetBase::indices_with_token`] by interned symbol — the
    /// allocation-free hot-path form.
    #[inline]
    pub fn indices_with_sym(&self, sym: Sym) -> &[usize] {
        self.postings
            .get(sym as usize)
            .map(PostingList::as_slice)
            .unwrap_or(&[])
    }

    /// Token-embedding rows of the record in slot `i`, if it is live and
    /// its local system produced embeddings.
    pub fn embedding_view(&self, i: usize) -> Option<EmbView<'_>> {
        let slot = self.slots.get(i)?.as_ref()?.emb?;
        Some(EmbView {
            data: &self.emb_arena[slot.off..slot.off + slot.rows * slot.cols],
            rows: slot.rows,
            cols: slot.cols,
        })
    }

    /// Record by stream-order index. Panics if the slot was evicted —
    /// internal callers only reach live indices (via postings, the dirty
    /// set, or [`TweetBase::iter_indexed`]).
    pub fn get_by_index(&self, i: usize) -> &TweetRecord {
        self.slots[i].as_ref().expect("record was evicted")
    }

    /// Mutable record by stream-order index (same liveness contract as
    /// [`TweetBase::get_by_index`]).
    pub fn get_mut_by_index(&mut self, i: usize) -> &mut TweetRecord {
        self.slots[i].as_mut().expect("record was evicted")
    }

    /// Record by stream-order index, `None` for tombstones.
    pub fn record_at(&self, i: usize) -> Option<&TweetRecord> {
        self.slots.get(i).and_then(Option::as_ref)
    }

    /// True when slot `i` holds a live record.
    pub fn is_live(&self, i: usize) -> bool {
        self.slots.get(i).map(Option::is_some).unwrap_or(false)
    }

    /// Stream-order index for a sentence id (live records only).
    pub fn index_of(&self, id: SentenceId) -> Option<usize> {
        self.index.get(&id).copied()
    }

    /// Lookup by sentence id.
    pub fn get(&self, id: SentenceId) -> Option<&TweetRecord> {
        self.index.get(&id).and_then(|&i| self.slots[i].as_ref())
    }

    /// Mutable lookup by sentence id.
    pub fn get_mut(&mut self, id: SentenceId) -> Option<&mut TweetRecord> {
        let i = *self.index.get(&id)?;
        self.slots[i].as_mut()
    }

    /// Live records in stream order.
    pub fn iter(&self) -> impl Iterator<Item = &TweetRecord> {
        self.slots.iter().flatten()
    }

    /// Live `(slot index, record)` pairs in stream order. Use this instead
    /// of `iter().enumerate()` when positions must align with the dirty /
    /// quarantine sets (enumeration over live records skips tombstones, so
    /// its ordinals are *not* slot indices).
    pub fn iter_indexed(&self) -> impl Iterator<Item = (usize, &TweetRecord)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|r| (i, r)))
    }

    /// Mutable iteration over live records in stream order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut TweetRecord> {
        self.slots.iter_mut().flatten()
    }

    /// Number of live sentences stored.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live sentences are stored.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slot count, including tombstones (the stream-order index
    /// space; `len() <= n_slots()`).
    pub fn n_slots(&self) -> usize {
        self.slots.len()
    }

    /// Cumulative evictions over the lifetime of the store.
    pub fn evicted_total(&self) -> u64 {
        self.evicted_total
    }

    /// First live slot index at or after `from`, scanning in stream order.
    pub fn first_live_from(&self, from: usize) -> Option<usize> {
        (from..self.slots.len()).find(|&i| self.slots[i].is_some())
    }

    /// Evict the record in slot `i`: remove its posting-list entries and
    /// its id mapping, free the record's storage and leave a tombstone so
    /// other slots keep their indices. The returned record is
    /// self-contained — its embedding rows are copied back out of the
    /// arena — so holding it across a later [`TweetBase::compact`] is
    /// safe. Returns `None` if the slot was already a tombstone.
    pub fn evict(&mut self, i: usize) -> Option<TweetRecord> {
        let mut record = self.slots.get_mut(i)?.take()?;
        self.remove_record_postings(i, &record);
        self.index.remove(&record.sentence.id);
        self.live -= 1;
        self.evicted_total += 1;
        if let Some(slot) = record.emb.take() {
            record.token_embeddings = Some(Matrix {
                rows: slot.rows,
                cols: slot.cols,
                data: self.emb_arena[slot.off..slot.off + slot.rows * slot.cols].to_vec(),
            });
        }
        Some(record)
    }

    /// Squeeze out tombstone slots so the stored vector is dense again,
    /// rebuilding the embedding arena with only live rows (reclaiming the
    /// dead floats of evicted and replaced records). Returns the old→new
    /// slot-index remap (`None` for evicted slots) so callers can rebase
    /// any index-keyed side structures; returns `None` when there was
    /// nothing to compact.
    pub fn compact(&mut self) -> Option<Vec<Option<usize>>> {
        if self.live == self.slots.len() && self.emb_dead == 0 {
            return None;
        }
        let mut remap: Vec<Option<usize>> = Vec::with_capacity(self.slots.len());
        let mut next = 0usize;
        for slot in &self.slots {
            if slot.is_some() {
                remap.push(Some(next));
                next += 1;
            } else {
                remap.push(None);
            }
        }
        let old = std::mem::take(&mut self.slots);
        self.slots = old.into_iter().flatten().map(Some).collect();
        // Rewrite the arena with live rows only, in slot order. Bit-for-bit
        // copies: compaction must not perturb any downstream f32 result.
        let live_floats = self.emb_arena.len().saturating_sub(self.emb_dead);
        let mut arena = Vec::with_capacity(live_floats);
        for slot in self.slots.iter_mut().flatten() {
            if let Some(e) = &mut slot.emb {
                let off = arena.len();
                arena.extend_from_slice(&self.emb_arena[e.off..e.off + e.rows * e.cols]);
                e.off = off;
            }
        }
        self.emb_arena = arena;
        self.reindex()
            .expect("a loaded or inserted store reindexes");
        Some(remap)
    }

    /// Rebuild every index over the contents — the id index, the posting
    /// lists, each record's `tok_syms`, `live` and `emb_dead` — from the
    /// slots, the interner and the arena. Compaction and checkpoint load
    /// both end here, so no index is ever decoded from bytes. Rejects
    /// contents no store can hold: a token without an interned symbol, an
    /// embedding slot outside the arena, two live slots with one sentence
    /// id, or embedding slots claiming more floats than the arena has.
    fn reindex(&mut self) -> Result<(), DeError> {
        let bad = |m: String| Err(DeError::msg(m));
        self.index.clear();
        for p in &mut self.postings {
            p.clear();
        }
        self.live = 0;
        let mut live_floats = 0usize;
        for i in 0..self.slots.len() {
            let Some(r) = self.slots[i].as_mut() else {
                continue;
            };
            r.tok_syms.clear();
            for t in &r.sentence.tokens {
                match self.interner.lookup_folded(&t.text) {
                    Some(sym) => r.tok_syms.push(sym),
                    None => return bad(format!("token {:?} has no interned symbol", t.text)),
                }
            }
            if let Some(e) = r.emb {
                let floats = e.rows.saturating_mul(e.cols);
                if e.off.saturating_add(floats) > self.emb_arena.len() {
                    return bad(format!("embedding slot {e:?} lies outside the arena"));
                }
                live_floats += floats;
            }
            if self.index.insert(r.sentence.id, i).is_some() {
                return bad(format!("two live slots hold sentence {:?}", r.sentence.id));
            }
            self.live += 1;
            self.add_postings(i);
        }
        match self.emb_arena.len().checked_sub(live_floats) {
            Some(dead) => self.emb_dead = dead,
            None => return bad("embedding slots claim more floats than the arena".into()),
        }
        Ok(())
    }

    /// Estimated resident heap bytes of the store: sentences, the
    /// token-embedding arena (the dominant term for deep local systems,
    /// including not-yet-compacted dead rows), span lists, symbol lists,
    /// and both indexes. An estimate for gauges and eviction budgeting,
    /// not an allocator-exact measurement.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut total = self.slots.capacity() * size_of::<Option<TweetRecord>>();
        for r in self.slots.iter().flatten() {
            for t in &r.sentence.tokens {
                total += size_of::<emd_text::token::Token>() + t.text.len();
            }
            total += r.tok_syms.capacity() * size_of::<Sym>();
            total += (r.local_spans.len() + r.global_mentions.len()) * size_of::<Span>();
        }
        total += self.emb_arena.capacity() * size_of::<f32>();
        total += self.postings.capacity() * size_of::<PostingList>();
        for postings in &self.postings {
            total += postings.capacity() * size_of::<usize>();
        }
        total += self.interner.resident_bytes();
        total += self.index.len() * (size_of::<SentenceId>() + size_of::<usize>());
        total
    }
}

// Load decodes the contents and rebuilds the indexes from them.
impl Deserialize for TweetBase {
    fn from_value(v: &Value) -> Result<TweetBase, DeError> {
        let mut tb = TweetBase {
            slots: v.field("slots")?,
            interner: v.field("interner")?,
            emb_arena: v.field("emb_arena")?,
            evicted_total: v.field("evicted_total")?,
            ..TweetBase::default()
        };
        tb.reindex()?;
        Ok(tb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(tweet: u64) -> TweetRecord {
        TweetRecord::new(
            Sentence::from_tokens(SentenceId::new(tweet, 0), ["a", "b"]),
            None,
            vec![],
        )
    }

    fn rec_with(tweet: u64, tokens: &[&str]) -> TweetRecord {
        TweetRecord::new(
            Sentence::from_tokens(SentenceId::new(tweet, 0), tokens.iter().copied()),
            None,
            vec![],
        )
    }

    fn rec_with_emb(tweet: u64, tokens: &[&str], dim: usize) -> TweetRecord {
        let rows = tokens.len();
        let data: Vec<f32> = (0..rows * dim)
            .map(|i| tweet as f32 * 100.0 + i as f32)
            .collect();
        TweetRecord::new(
            Sentence::from_tokens(SentenceId::new(tweet, 0), tokens.iter().copied()),
            Some(Matrix {
                rows,
                cols: dim,
                data,
            }),
            vec![],
        )
    }

    /// Every posting list must be strictly ascending, deduplicated, and
    /// point at a live record actually containing the token.
    fn assert_postings_consistent(tb: &TweetBase) {
        for (sym, postings) in tb.postings.iter().enumerate() {
            let token = tb.interner.resolve(sym as Sym);
            let postings = postings.as_slice();
            assert!(
                postings.windows(2).all(|w| w[0] < w[1]),
                "postings for {token:?} not strictly ascending: {postings:?}"
            );
            for &i in postings {
                let r = tb
                    .record_at(i)
                    .unwrap_or_else(|| panic!("posting for {token:?} points at tombstone {i}"));
                assert!(
                    r.sentence.texts().any(|t| t.to_lowercase() == *token),
                    "stale posting: record {i} does not contain {token:?}"
                );
            }
        }
    }

    #[test]
    fn insert_and_lookup() {
        let mut tb = TweetBase::new();
        tb.insert(rec(1));
        tb.insert(rec(2));
        assert_eq!(tb.len(), 2);
        assert!(tb.get(SentenceId::new(1, 0)).is_some());
        assert!(tb.get(SentenceId::new(3, 0)).is_none());
    }

    #[test]
    fn insert_interns_folded_token_symbols() {
        let mut tb = TweetBase::new();
        let i = tb.insert(rec_with(1, &["Italy", "reports", "ITALY"]));
        let r = tb.get_by_index(i);
        assert_eq!(r.tok_syms.len(), 3);
        assert_eq!(r.tok_syms[0], r.tok_syms[2], "case variants share a sym");
        assert_eq!(tb.interner().resolve(r.tok_syms[0]), "italy");
    }

    #[test]
    fn duplicate_id_replaces() {
        let mut tb = TweetBase::new();
        tb.insert(rec(1));
        let mut r = rec(1);
        r.local_spans.push(Span::new(0, 1));
        tb.insert(r);
        assert_eq!(tb.len(), 1);
        assert_eq!(tb.get(SentenceId::new(1, 0)).unwrap().local_spans.len(), 1);
    }

    #[test]
    fn stream_order_preserved() {
        let mut tb = TweetBase::new();
        for t in [5u64, 2, 9] {
            tb.insert(rec(t));
        }
        let ids: Vec<u64> = tb.iter().map(|r| r.sentence.id.tweet_id).collect();
        assert_eq!(ids, vec![5, 2, 9]);
    }

    #[test]
    fn token_index_finds_sentences() {
        let mut tb = TweetBase::new();
        tb.insert(rec_with(1, &["Italy", "report"]));
        tb.insert(rec_with(2, &["italy", "italy", "again"]));
        // Case-folded, deduped per record, ascending order.
        assert_eq!(tb.indices_with_token("italy"), &[0, 1]);
        assert_eq!(tb.indices_with_token("report"), &[0]);
        assert_eq!(tb.indices_with_token("missing"), &[] as &[usize]);
        let sym = tb.interner().lookup_folded("ITALY").unwrap();
        assert_eq!(tb.indices_with_sym(sym), &[0, 1]);
        assert_postings_consistent(&tb);
    }

    #[test]
    fn token_index_survives_replacement() {
        let mut tb = TweetBase::new();
        tb.insert(rec_with(1, &["old", "text"]));
        tb.insert(rec_with(1, &["new", "text"]));
        // The new tokens are indexed; the replaced sentence's postings are
        // removed outright — no stale entries remain.
        assert_eq!(tb.indices_with_token("new"), &[0]);
        assert_eq!(tb.indices_with_token("text"), &[0]);
        assert_eq!(tb.indices_with_token("old"), &[] as &[usize]);
        assert_eq!(tb.len(), 1);
        assert_postings_consistent(&tb);
    }

    /// Regression for the replacement-path posting corruption: replacing a
    /// *non-final* record whose tokens also appear in later records used to
    /// re-push its index after theirs (`[0, 1, 0]`) because the tail-only
    /// dedup never saw the earlier entry. Postings must stay strictly
    /// ascending, deduplicated, and stale-free.
    #[test]
    fn replacing_non_final_record_keeps_postings_sorted() {
        let mut tb = TweetBase::new();
        tb.insert(rec_with(1, &["shared", "alpha"]));
        tb.insert(rec_with(2, &["shared", "beta"]));
        // Replace record 0 with a sentence still containing "shared".
        tb.insert(rec_with(1, &["shared", "gamma"]));
        assert_eq!(
            tb.indices_with_token("shared"),
            &[0, 1],
            "replacement must not duplicate or unsort postings"
        );
        assert_eq!(tb.indices_with_token("alpha"), &[] as &[usize]);
        assert_eq!(tb.indices_with_token("gamma"), &[0]);
        assert_postings_consistent(&tb);
        // Replace again with entirely fresh tokens: the shared posting for
        // record 0 must disappear.
        tb.insert(rec_with(1, &["delta"]));
        assert_eq!(tb.indices_with_token("shared"), &[1]);
        assert_postings_consistent(&tb);
    }

    #[test]
    fn by_index_accessors() {
        let mut tb = TweetBase::new();
        tb.insert(rec(7));
        assert_eq!(tb.index_of(SentenceId::new(7, 0)), Some(0));
        assert_eq!(tb.get_by_index(0).sentence.id.tweet_id, 7);
        tb.get_mut_by_index(0).global_mentions.push(Span::new(0, 1));
        assert_eq!(tb.get_by_index(0).global_mentions.len(), 1);
    }

    #[test]
    fn mutable_update() {
        let mut tb = TweetBase::new();
        tb.insert(rec(1));
        tb.get_mut(SentenceId::new(1, 0))
            .unwrap()
            .global_mentions
            .push(Span::new(0, 2));
        assert_eq!(
            tb.get(SentenceId::new(1, 0)).unwrap().global_mentions.len(),
            1
        );
    }

    #[test]
    fn embeddings_live_in_arena_and_round_trip_through_evict() {
        let mut tb = TweetBase::new();
        let i1 = tb.insert(rec_with_emb(1, &["a", "b"], 3));
        let i2 = tb.insert(rec_with_emb(2, &["c"], 3));
        // Stored records hold no inline matrix; the view serves the rows.
        assert!(tb.get_by_index(i1).token_embeddings.is_none());
        let v = tb.embedding_view(i1).expect("record has embeddings");
        assert_eq!((v.rows, v.cols), (2, 3));
        assert_eq!(v.row(1), &[103.0, 104.0, 105.0]);
        let v2 = tb.embedding_view(i2).unwrap();
        assert_eq!(v2.row(0), &[200.0, 201.0, 202.0]);
        // No-embedding records answer None.
        let i3 = tb.insert(rec_with(3, &["d"]));
        assert!(tb.embedding_view(i3).is_none());
        // Evict re-materializes a self-contained matrix, bit-for-bit.
        let out = tb.evict(i1).unwrap();
        let m = out.token_embeddings.expect("copied back out");
        assert_eq!((m.rows, m.cols), (2, 3));
        assert_eq!(m.data, vec![100.0, 101.0, 102.0, 103.0, 104.0, 105.0]);
        assert!(tb.embedding_view(i1).is_none());
        // Survivor's view is untouched by the eviction...
        assert_eq!(
            tb.embedding_view(i2).unwrap().row(0),
            &[200.0, 201.0, 202.0]
        );
        // ...and by compaction, which reclaims the dead rows.
        let before = tb.emb_arena.len();
        tb.compact().expect("had tombstones");
        assert!(tb.emb_arena.len() < before, "dead rows reclaimed");
        assert_eq!(tb.emb_dead, 0);
        let i2_new = tb.index_of(SentenceId::new(2, 0)).unwrap();
        assert_eq!(
            tb.embedding_view(i2_new).unwrap().row(0),
            &[200.0, 201.0, 202.0]
        );
    }

    #[test]
    fn evict_frees_record_and_postings() {
        let mut tb = TweetBase::new();
        tb.insert(rec_with(1, &["cold", "shared"]));
        tb.insert(rec_with(2, &["hot", "shared"]));
        let evicted = tb.evict(0).expect("slot 0 live");
        assert_eq!(evicted.sentence.id, SentenceId::new(1, 0));
        assert_eq!(tb.len(), 1);
        assert_eq!(tb.n_slots(), 2, "indices stay stable after eviction");
        assert_eq!(tb.evicted_total(), 1);
        assert!(!tb.is_live(0));
        assert!(tb.record_at(0).is_none());
        assert!(tb.get(SentenceId::new(1, 0)).is_none());
        assert_eq!(tb.indices_with_token("cold"), &[] as &[usize]);
        assert_eq!(tb.indices_with_token("shared"), &[1]);
        // Double eviction is a no-op.
        assert!(tb.evict(0).is_none());
        assert_eq!(tb.evicted_total(), 1);
        assert_postings_consistent(&tb);
    }

    #[test]
    fn eviction_preserves_live_iteration_and_indices() {
        let mut tb = TweetBase::new();
        for t in 0..5u64 {
            tb.insert(rec_with(t, &["tok"]));
        }
        tb.evict(1);
        tb.evict(3);
        let live: Vec<(usize, u64)> = tb
            .iter_indexed()
            .map(|(i, r)| (i, r.sentence.id.tweet_id))
            .collect();
        assert_eq!(live, vec![(0, 0), (2, 2), (4, 4)]);
        assert_eq!(tb.indices_with_token("tok"), &[0, 2, 4]);
        assert_eq!(tb.first_live_from(0), Some(0));
        assert_eq!(tb.first_live_from(1), Some(2));
        assert_eq!(tb.first_live_from(3), Some(4));
        assert_eq!(tb.first_live_from(5), None);
    }

    #[test]
    fn reinserting_an_evicted_id_appends_fresh() {
        let mut tb = TweetBase::new();
        tb.insert(rec_with(1, &["one"]));
        tb.insert(rec_with(2, &["two"]));
        tb.evict(0);
        let i = tb.insert(rec_with(1, &["one", "again"]));
        assert_eq!(i, 2, "an evicted id re-enters at the stream tail");
        assert_eq!(tb.indices_with_token("one"), &[2]);
        assert_postings_consistent(&tb);
    }

    #[test]
    fn compact_squeezes_tombstones_with_remap() {
        let mut tb = TweetBase::new();
        for t in 0..6u64 {
            tb.insert(rec_with(t, &["tok", &format!("w{t}")]));
        }
        tb.evict(0);
        tb.evict(2);
        tb.evict(3);
        let remap = tb.compact().expect("had tombstones");
        assert_eq!(remap, vec![None, Some(0), None, None, Some(1), Some(2)]);
        assert_eq!(tb.n_slots(), 3);
        assert_eq!(tb.len(), 3);
        assert_eq!(
            tb.evicted_total(),
            3,
            "cumulative count survives compaction"
        );
        let ids: Vec<u64> = tb.iter().map(|r| r.sentence.id.tweet_id).collect();
        assert_eq!(ids, vec![1, 4, 5]);
        assert_eq!(tb.indices_with_token("tok"), &[0, 1, 2]);
        assert_eq!(tb.index_of(SentenceId::new(4, 0)), Some(1));
        assert_postings_consistent(&tb);
        // Dense store: nothing to compact.
        assert!(tb.compact().is_none());
    }

    /// Load rebuilds what the checkpoint leaves out — id index, posting
    /// lists, token symbols, live and dead counts — equal to the live
    /// store's, tombstones and dead arena rows included.
    #[test]
    fn round_trip_rebuilds_every_index() {
        let mut tb = TweetBase::new();
        tb.insert(rec_with_emb(1, &["Italy", "cases"], 2));
        tb.insert(rec_with(2, &["italy", "news"]));
        tb.insert(rec_with_emb(3, &["more", "cases"], 2));
        tb.insert(rec_with(2, &["news", "again"]));
        tb.evict(0);
        let back = TweetBase::from_value(&tb.to_value()).unwrap();
        assert_eq!((back.len(), back.n_slots()), (tb.len(), tb.n_slots()));
        assert_eq!((back.live, back.emb_dead), (tb.live, tb.emb_dead));
        assert!(back.emb_dead > 0, "the evicted record's rows are dead");
        for sym in 0..tb.interner().len() as Sym {
            assert_eq!(back.indices_with_sym(sym), tb.indices_with_sym(sym));
        }
        for (i, r) in tb.iter_indexed() {
            assert_eq!(back.index_of(r.sentence.id), Some(i));
            assert_eq!(back.get_by_index(i).tok_syms, r.tok_syms);
            let view = |t: &TweetBase| t.embedding_view(i).map(|v| v.data.to_vec());
            assert_eq!(view(&back), view(&tb));
        }
        assert_postings_consistent(&back);
    }

    #[test]
    fn resident_bytes_shrinks_on_eviction() {
        let mut tb = TweetBase::new();
        for t in 0..8u64 {
            tb.insert(rec_with(
                t,
                &["some", "reasonably", "long", "sentence", "tokens"],
            ));
        }
        let before = tb.resident_bytes();
        for i in 0..6 {
            tb.evict(i);
        }
        let after = tb.resident_bytes();
        assert!(
            after < before,
            "eviction must shrink resident bytes: {before} -> {after}"
        );
    }
}
