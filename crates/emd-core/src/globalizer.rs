//! The EMD Globalizer pipeline: Local EMD → Global EMD orchestration.
//!
//! Execution follows Figure 2/3 of the paper. The pipeline is incremental:
//! a stream is consumed in batches via [`Globalizer::process_batch`]; seed
//! candidates accumulate in the CTrie, candidate pools grow as mentions
//! arrive, and [`Globalizer::finalize`] performs the closing rescan (old
//! sentences may contain mentions of candidates discovered later), resolves
//! the ambiguous γ band, and emits the final mention outputs.
//!
//! The closing rescan is *incremental*: the state tracks which stored
//! sentences could possibly be affected by candidates registered after
//! their last scan (via the [`TweetBase`] token inverted index — a new
//! candidate can only change sentences that spell its whole phrase as a
//! contiguous token run), and [`Globalizer::finalize`] rescans only
//! those. The brute-force
//! [`Globalizer::finalize_full_rescan`] runs the same closing pass with
//! one difference — each round rescans every live record — and is the
//! reference that record selection is tested bit-identical against.
//!
//! ## Failure model
//!
//! Every per-item unit of work (one sentence's local inference or ingest
//! staging, one record's rescan, one candidate's classification) is pure
//! with respect to pipeline state and runs inside a panic-isolation
//! boundary with a bounded retry budget
//! ([`GlobalizerConfig::poison_retries`]). State mutation happens only in
//! the sequential *apply* steps, which are infallible, so a caught panic
//! never leaves partial state behind. Items that exhaust their budget are
//! **quarantined** (sentences — diverted to the dead-letter buffer on
//! [`GlobalizerOutput::quarantined`]) or marked **degraded** (candidates —
//! emission falls back to the local system's own detections). Worker
//! shards are joined *unconditionally*; a panicked shard's work is re-run
//! on the caller thread, so one poisoned shard never aborts the batch or
//! leaks live threads. Fail points ([`emd_resilience::failpoint`]) at each
//! phase boundary drive the chaos test suite; they compile to nothing
//! without the `failpoints` feature.

use crate::candidatebase::{CandidateBase, CandidateRecord, MentionRef};
use crate::classifier::{CandidateLabel, EntityClassifier};
use crate::config::{Ablation, GlobalizerConfig};
use crate::ctrie::CTrie;
use crate::dirtyset::DirtySet;
use crate::local::LocalEmd;
use crate::mention::extract_mentions_into;
use crate::obs::{PhaseTimings, PipelineMetrics};
use crate::phrase_embedder::PhraseEmbedder;
use crate::tweetbase::{TweetBase, TweetRecord};
use emd_guard::{BreakerConfig, BreakerState, BreakerTransition, CircuitBreaker};
use emd_obs::Timer;
use emd_resilience::quarantine::{PipelinePhase, QuarantineEntry};
use emd_resilience::{failpoint, isolate, validate};
use emd_sentinel::{AlertKind, BatchObservation, HealthReport, HealthState, Sentinel};
use emd_text::casing::{syntactic_class, SyntacticClass};
use emd_text::intern::Sym;
use emd_text::token::{Sentence, SentenceId, Span};
use emd_trace::{
    TraceAblation, TraceBreaker, TraceEvent, TraceEventKind, TraceHealth, TraceLabel, TracePhase,
    TraceSink,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Mutex;
use std::time::Instant;

/// First position at or after `from` in the ascending `list` whose
/// entry is `>= target`: doubling steps from `from`, then a binary search
/// of the last step. Successive calls with ascending targets walk the list
/// once, touching O(log gap) entries per call.
fn gallop(list: &[usize], from: usize, target: usize) -> usize {
    let (mut lo, mut hi, mut step) = (from, from, 1);
    while hi < list.len() && list[hi] < target {
        lo = hi + 1;
        hi += step;
        step *= 2;
    }
    let hi = hi.min(list.len());
    lo + list[lo..hi].partition_point(|&x| x < target)
}

/// Elapsed nanoseconds since `t0`, saturating into a `u64`.
#[inline]
fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Map a resilience phase onto the trace vocabulary (the trace crate is
/// dependency-free, so it cannot name `PipelinePhase` itself).
fn trace_phase(phase: PipelinePhase) -> TracePhase {
    match phase {
        PipelinePhase::LocalInference => TracePhase::LocalInfer,
        PipelinePhase::Ingest => TracePhase::Ingest,
        PipelinePhase::Scan => TracePhase::Scan,
        PipelinePhase::Classify => TracePhase::Classify,
        PipelinePhase::FinalizeRescan => TracePhase::FinalizeRescan,
        PipelinePhase::Supervisor => TracePhase::Supervisor,
        // Admission sheds happen before any pipeline phase runs; they are
        // attributed to the supervisor frame in the trace.
        PipelinePhase::Admission => TracePhase::Supervisor,
    }
}

/// Map a breaker state onto the trace vocabulary (the trace crate is
/// dependency-free, so it cannot name `BreakerState` itself).
fn trace_breaker(b: BreakerState) -> TraceBreaker {
    match b {
        BreakerState::Closed => TraceBreaker::Closed,
        BreakerState::Open => TraceBreaker::Open,
        BreakerState::HalfOpen => TraceBreaker::HalfOpen,
    }
}

fn trace_label(label: CandidateLabel) -> TraceLabel {
    match label {
        CandidateLabel::Pending => TraceLabel::Pending,
        CandidateLabel::Entity => TraceLabel::Entity,
        CandidateLabel::NonEntity => TraceLabel::NonEntity,
        CandidateLabel::Ambiguous => TraceLabel::Ambiguous,
    }
}

/// Map a sentinel health state onto the trace vocabulary (the trace
/// crate is dependency-free, so it cannot name `HealthState` itself).
fn trace_health(h: HealthState) -> TraceHealth {
    match h {
        HealthState::Healthy => TraceHealth::Healthy,
        HealthState::Degraded => TraceHealth::Degraded,
        HealthState::Critical => TraceHealth::Critical,
    }
}

fn trace_ablation(a: Ablation) -> TraceAblation {
    match a {
        Ablation::LocalOnly => TraceAblation::LocalOnly,
        Ablation::MentionExtraction => TraceAblation::MentionExtraction,
        Ablation::Full => TraceAblation::Full,
    }
}

/// `(tweet id, sentence index)` causal ID of a sentence.
fn tsid(sid: SentenceId) -> (u64, u32) {
    (sid.tweet_id, sid.sent_id)
}

/// `[start, end)` causal ID of a span.
fn tspan(sp: &Span) -> (u32, u32) {
    (sp.start as u32, sp.end as u32)
}

/// A record's adjacent candidate pairs (lower-cased surfaces, in order):
/// its promotion evidence. Extraction emits non-overlapping spans in
/// ascending order, so consecutive mentions are the only adjacency
/// candidates.
fn adjacent_pairs(rec: &TweetRecord) -> impl Iterator<Item = (String, String)> + '_ {
    rec.global_mentions
        .windows(2)
        .filter(|w| w[0].end == w[1].start)
        .map(|w| {
            (
                w[0].surface_lower(&rec.sentence),
                w[1].surface_lower(&rec.sentence),
            )
        })
}

/// Which stored records the closing rescan revisits in each promotion
/// round.
#[derive(Clone, Copy)]
enum Rescan {
    /// The dirty set: only records a candidate registered since their
    /// last scan could have changed.
    Dirty,
    /// Every live, non-quarantined record — the brute-force oracle.
    All,
}

/// Adjacent-pair promotion evidence preserved from an evicted record: the
/// two candidate surfaces (lower-cased) and how many times they occurred
/// adjacent in sentences that have since been evicted. Folded into
/// [`Globalizer::finalize`]'s promotion search so bounding memory does not
/// silently erase multi-token-entity evidence. Kept as a vector (first
/// frozen first — evictions run oldest-first, so this is stream order of
/// first adjacency among evicted records) rather than a map, both for
/// deterministic iteration and because the checkpoint format is JSON.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrozenAdjacency {
    /// Left candidate key (lower-cased, space-joined).
    pub first: String,
    /// Right candidate key.
    pub second: String,
    /// Adjacency occurrences in evicted sentences.
    pub count: u64,
}

/// Accumulated pipeline state across batches. Serializable: the
/// `StreamSupervisor` checkpoints it between batches so an interrupted
/// run can resume from the last completed batch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GlobalizerState {
    /// Per-sentence records.
    pub tweetbase: TweetBase,
    /// Seed candidate index.
    pub ctrie: CTrie,
    /// Per-candidate records with pooled global embeddings.
    pub candidates: CandidateBase,
    /// Stream-order indices of records whose stored `global_mentions` may
    /// be stale: never scanned yet, or a candidate whose whole phrase they
    /// contain was registered after their last scan. Iterated in
    /// ascending (stream) order so rescans replay in stream order,
    /// keeping outputs bit-identical to a full sequential rescan. A
    /// bitset: insert, membership and ascending iteration are a word
    /// index and a mask, and it checkpoints to a sorted index list.
    dirty: DirtySet,
    /// Cumulative per-phase wall-clock spent on this state by this
    /// process only, surfaced via [`GlobalizerOutput::phase_timings`].
    /// Inclusive: a phase's total contains the phases it opens (finalize
    /// holds its rescans, settle rescans sit inside evict). Each phase
    /// call reads one clock pair ([`Globalizer::open`]), which also feeds
    /// the phase's histogram and trace span. A measurement, not state:
    /// not checkpointed, so a restored state starts from zero.
    #[serde(skip)]
    timings: PhaseTimings,
    /// Dead-letter log: sentences the pipeline gave up on, in
    /// deterministic stream/discovery order.
    pub quarantined: Vec<QuarantineEntry>,
    /// Stream-order indices of records quarantined *after* ingestion (a
    /// persistently failing rescan). They stay in the TweetBase so indices
    /// remain stable, but are excluded from dirtying, scans, promotion
    /// evidence, and emission.
    quarantined_idx: BTreeSet<usize>,
    /// Every sentence ID ever quarantined. Eviction frees a quarantined
    /// record's slot, but its ID stays here so a replayed copy of the
    /// sentence is never silently re-admitted — quarantine decisions are
    /// permanent for the lifetime of the state. Ordered, so checkpoints
    /// write it in one order.
    quarantined_ids: BTreeSet<SentenceId>,
    /// Promotion evidence frozen out of evicted records (empty while
    /// windowing is disabled).
    frozen_adjacency: Vec<FrozenAdjacency>,
    /// Transient pair → ledger-position index over `frozen_adjacency`, so
    /// folding an evicted record is a hash probe instead of a linear scan
    /// of the whole ledger. Excluded from checkpoints (it is derivable)
    /// and lazily rebuilt whenever it is out of sync with the ledger,
    /// e.g. right after a checkpoint restore.
    #[serde(skip)]
    frozen_index: HashMap<(String, String), usize>,
    /// Slot index the next eviction sweep starts from. Evictions walk the
    /// slot vector oldest-first and never revisit freed slots, so this
    /// cursor makes each sweep O(batch), not O(history). Rebased by
    /// [`GlobalizerState::compact`].
    evict_cursor: usize,
    /// What the current `process_batch*`, `finalize*` or `index_stream`
    /// call has counted so far. Not checkpointed: a supervisor attempt
    /// that panics drops its clone of the state, counts included.
    #[serde(skip)]
    tally: Tally,
    /// 1-based batch counter, advanced on every `process_batch` call
    /// (unconditionally, so traced and untraced runs stay aligned) and
    /// stamped into `BatchStart` trace events.
    pub(crate) batch_seq: u64,
    /// Trace sequence number at the last committed batch boundary. The
    /// supervisor checkpoints it so a restored run continues the
    /// interrupted run's event numbering instead of reusing it.
    pub(crate) trace_seq: u64,
}

impl GlobalizerState {
    /// Number of records currently awaiting a rescan (the dirty-set
    /// depth). Observable live, e.g. between batches.
    pub fn n_dirty(&self) -> usize {
        self.dirty.len()
    }

    /// Number of sentences quarantined so far.
    pub fn n_quarantined(&self) -> usize {
        self.quarantined.len()
    }

    /// Records evicted from the sentence store so far (0 unless windowing
    /// is enabled).
    pub fn n_evicted(&self) -> u64 {
        self.tweetbase.evicted_total()
    }

    /// Estimated resident bytes of the two big stores (sentence records +
    /// candidate pools). The quantity the `emd_window_resident_bytes`
    /// gauge reports.
    pub fn resident_bytes(&self) -> usize {
        self.tweetbase.resident_bytes() + self.candidates.resident_bytes()
    }

    /// Squeeze tombstone slots out of the sentence store, rebasing every
    /// index-keyed side structure (dirty set, post-ingest quarantine set,
    /// eviction cursor) onto the new dense indexing. Evicted slots in the
    /// quarantine set are dropped (their IDs remain in the permanent
    /// ID-level set). Returns the number of slots reclaimed.
    ///
    /// Called automatically by window enforcement once tombstones outnumber
    /// live records, and by the `StreamSupervisor` before checkpoint writes
    /// so checkpoint size — and restart cost — stays O(window).
    pub fn compact(&mut self) -> usize {
        let Some(remap) = self.tweetbase.compact() else {
            return 0;
        };
        let dropped = remap.iter().filter(|m| m.is_none()).count();
        self.dirty = self
            .dirty
            .iter()
            .filter_map(|i| remap.get(i).copied().flatten())
            .collect();
        self.quarantined_idx = self
            .quarantined_idx
            .iter()
            .filter_map(|&i| remap.get(i).copied().flatten())
            .collect();
        // The cursor moves to "number of live slots before the old cursor":
        // everything before it was either retained (now at a smaller index)
        // or reclaimed.
        self.evict_cursor = remap
            .iter()
            .take(self.evict_cursor.min(remap.len()))
            .filter(|m| m.is_some())
            .count();
        // Candidate-side sweep: mention refs pointing at sentences no
        // longer in the window are released (counts folded into the
        // cumulative frequencies). Piggybacking on compaction keeps the
        // stray-ref population O(window) at O(1) amortised cost.
        let live: HashSet<SentenceId> = self
            .tweetbase
            .iter_indexed()
            .map(|(_, rec)| rec.sentence.id)
            .collect();
        self.candidates.release_dead(|sid| live.contains(&sid));
        dropped
    }
}

/// Final (or interim) outputs of the framework. Serializable (the
/// experiment binaries persist it, timings included, to `results/` JSON).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GlobalizerOutput {
    /// Predicted mentions per sentence, in stream order.
    pub per_sentence: Vec<(SentenceId, Vec<Span>)>,
    /// Number of seed candidates discovered.
    pub n_candidates: usize,
    /// Number of candidates accepted as entities.
    pub n_entities: usize,
    /// Candidates created by adjacent-pair promotion at stream close.
    pub n_promoted: usize,
    /// Sentence scans performed by the closing rescan (for the incremental
    /// path this is usually far below the stream length).
    pub n_rescanned: usize,
    /// Cumulative per-phase wall-clock breakdown for the run that produced
    /// this output. Wall-clock only — never part of output equality
    /// comparisons (instrumented and uninstrumented runs are bit-identical
    /// in every other field).
    pub phase_timings: PhaseTimings,
    /// Dead-letter buffer: sentences the pipeline gave up on (poison
    /// input or persistent per-item faults). These sentences do not
    /// appear in `per_sentence`; operators drain this buffer for
    /// inspection or replay.
    pub quarantined: Vec<QuarantineEntry>,
    /// Candidates whose phrase embedding or classification failed
    /// persistently; their emission fell back to the local system's own
    /// detections (degraded LocalOnly behaviour).
    pub n_degraded: usize,
}

impl GlobalizerOutput {
    /// Flatten to a map for evaluation.
    pub fn as_map(&self) -> std::collections::HashMap<SentenceId, Vec<Span>> {
        self.per_sentence.iter().cloned().collect()
    }

    /// Provenance for one candidate key (lower-cased, space-joined): the
    /// full decision chain assembled from `events` — detection, pooling,
    /// verdicts, degradation, promotion — with the `emitted` flag taken
    /// from this output's ground truth (a traced mention of the candidate
    /// appears among the final spans) rather than inferred from the trace.
    /// The chain is empty when the candidate never appears in the trace
    /// (unknown key, or tracing was disabled during the run).
    pub fn explain(&self, candidate: &str, events: &[TraceEvent]) -> emd_trace::Explanation {
        let mut ex = emd_trace::explain::explain_from_trace(events, candidate);
        let map = self.as_map();
        ex.emitted = ex.chain.iter().any(|e| {
            e.kind == TraceEventKind::ScanMention
                && match (e.sid, e.span) {
                    (Some((tweet_id, sent_id)), Some(span)) => map
                        .get(&SentenceId::new(tweet_id, sent_id))
                        .is_some_and(|spans| spans.iter().any(|sp| tspan(sp) == span)),
                    _ => false,
                }
        });
        ex
    }
}

/// One staged rescan result, computed read-only (a rescan worker runs the
/// staging off-thread; the sequential apply step replays it).
struct StagedScan {
    /// Re-extracted mentions for the record.
    mentions: Vec<Span>,
    /// `(candidate key, mention, local embedding)` triples to pool.
    staged: Vec<(String, MentionRef, Vec<f32>)>,
    /// Candidate keys whose embedding computation panicked or produced
    /// non-finite values; a zero vector was pooled in its place and the
    /// apply step marks the candidate degraded.
    degraded_keys: Vec<String>,
}

/// What one `process_batch*`, `finalize*` or `index_stream` call counts
/// in its sequential apply sections, in plain integers on the state. Reset
/// when the call starts and committed once when it ends
/// ([`Globalizer::commit`]): into the pipeline counters, and into the
/// sentinel when one is attached.
#[derive(Debug, Clone, Default)]
struct Tally {
    /// The sentinel's counts; the pipeline counters that mirror them
    /// (sentences, local spans, trie inserts, scan mentions, pooled,
    /// scored, quarantined, evicted, pruned, promotions) are added from
    /// here too.
    obs: BatchObservation,
    /// Records newly dirtied by `mark_dirty`.
    dirty_marks: u64,
    /// Posting entries `mark_dirty` walked.
    dirty_visits: u64,
    /// Records handed to `scan_records`.
    scan_records: u64,
    /// Record scans by the closing rescan.
    rescan_sentences: u64,
    /// Closing rescan + promotion rounds.
    promotion_rounds: u64,
    /// Window-enforcement compactions that reclaimed slots.
    compactions: u64,
    /// The innermost phase whose clock is open: the parent of the next
    /// phase span.
    open: Option<TracePhase>,
}

/// One phase call's clock, from [`Globalizer::open`] to
/// [`Globalizer::close`].
struct PhaseClock {
    phase: TracePhase,
    /// The phase open around this one: the span's parent, and the open
    /// phase again once this one closes.
    parent: Option<TracePhase>,
    /// Trace seq at open (metrics and tracing both on), tagged onto the
    /// histogram sample so a latency bucket links to the phase's first
    /// trace event.
    exemplar: Option<u64>,
    t0: Instant,
}

/// Live monitoring attachment: the quality sentinel, behind a `Mutex`
/// because it is fed from `&self` methods. A lock poisoned by a panicked
/// batch attempt is recovered (the sentinel only changes when a call
/// commits).
struct MonitorCell {
    sentinel: Sentinel,
    /// Sentences shed by the admission gate since the last batch started;
    /// folded into the next batch's observation (shed batches never run
    /// `start_batch` themselves).
    pending_shed: u64,
}

/// Overload-guard attachment: one circuit breaker per guarded phase, on
/// the batch-tick clock. Behind a `Mutex` for the same reason as
/// [`MonitorCell`] — breaker reads/records fire from `&self` phase
/// methods, each in a sequential section, so the lock is uncontended.
/// A breaker that is **Open** makes its phase take the degraded path
/// immediately: exactly the end state a persistent failure would have
/// produced, with zero retry burn (see DESIGN.md § "Degradation ladder").
struct GuardCell {
    /// Guards candidate classification; Open degrades unfrozen candidates
    /// to the LocalOnly emission fallback.
    classify: CircuitBreaker,
    /// Guards phrase embedding inside the scan; Open pools zero vectors
    /// and marks candidates degraded.
    pool: CircuitBreaker,
    /// Guards the closing rescan; Open quarantines the records instead of
    /// rescanning them.
    rescan: CircuitBreaker,
    /// Every transition taken, in order, for `RunReport` surfacing.
    transitions: Vec<(TracePhase, BreakerTransition)>,
}

impl GuardCell {
    fn breaker_mut(&mut self, phase: TracePhase) -> &mut CircuitBreaker {
        match phase {
            TracePhase::Classify => &mut self.classify,
            TracePhase::Pool => &mut self.pool,
            TracePhase::FinalizeRescan => &mut self.rescan,
            _ => unreachable!("no breaker guards {}", phase.name()),
        }
    }

    fn open_count(&self) -> u64 {
        [&self.classify, &self.pool, &self.rescan]
            .iter()
            .filter(|b| b.state() == BreakerState::Open)
            .count() as u64
    }
}

/// The three guarded phases, in reporting order.
const GUARDED_PHASES: [TracePhase; 3] = [
    TracePhase::Classify,
    TracePhase::Pool,
    TracePhase::FinalizeRescan,
];

/// The framework: a Local EMD plug-in, the Global EMD components, and the
/// configuration.
pub struct Globalizer<'a> {
    local: &'a dyn LocalEmd,
    /// Required iff the local system is deep.
    phrase: Option<&'a PhraseEmbedder>,
    classifier: &'a EntityClassifier,
    /// Pipeline configuration.
    pub config: GlobalizerConfig,
    /// Metric handles every phase records into. Defaults to the
    /// process-wide registry; see [`Globalizer::set_metrics`].
    metrics: PipelineMetrics,
    /// Trace sink decision events are pushed into when
    /// `emd_trace::enabled()`. Defaults to the process-wide ring; see
    /// [`Globalizer::set_trace`].
    trace: TraceSink,
    /// Attached quality sentinel, if any ([`Globalizer::set_sentinel`]).
    /// `None` (the default) means no observations and no clock reads on
    /// the sentinel's behalf.
    monitor: Option<Mutex<MonitorCell>>,
    /// Attached overload guard, if any ([`Globalizer::set_guard`]).
    /// `None` (the default) means every phase always runs — unguarded
    /// and guarded no-fault runs are bit-identical.
    guard: Option<Mutex<GuardCell>>,
}

impl<'a> Globalizer<'a> {
    /// Assemble a framework instance. Panics if a deep local system is given
    /// without a phrase embedder, or a non-deep one with an embedder of the
    /// wrong input dimension.
    pub fn new(
        local: &'a dyn LocalEmd,
        phrase: Option<&'a PhraseEmbedder>,
        classifier: &'a EntityClassifier,
        config: GlobalizerConfig,
    ) -> Globalizer<'a> {
        if let Some(d) = local.embedding_dim() {
            let pe = phrase.expect("deep Local EMD requires a PhraseEmbedder");
            assert_eq!(
                pe.in_dim(),
                d,
                "PhraseEmbedder input dim must match the local system"
            );
        }
        Globalizer {
            local,
            phrase,
            classifier,
            config,
            metrics: PipelineMetrics::global(),
            trace: emd_trace::global().clone(),
            monitor: None,
            guard: None,
        }
    }

    /// The metric handles this instance records into.
    pub fn metrics(&self) -> &PipelineMetrics {
        &self.metrics
    }

    /// Point the instrumentation at a private registry's handles instead
    /// of the process-wide default (isolated tests, side-by-side runs).
    pub fn set_metrics(&mut self, metrics: PipelineMetrics) {
        self.metrics = metrics;
    }

    /// Point the instrumentation at a per-stream [`emd_obs::Scope`]: every
    /// pipeline, guard, and sentinel metric this instance records lands in
    /// the scope's registry, so an [`emd_obs::ScopeSet`] roll-up renders
    /// this stream as its own labeled series next to the process
    /// aggregate. Purely an observability rebinding — pipeline behavior
    /// and outputs are unchanged.
    pub fn set_scope(&mut self, scope: &emd_obs::Scope) {
        self.metrics = PipelineMetrics::from_scope(scope);
    }

    /// The trace sink this instance pushes decision events into.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Point trace emission at a private sink instead of the process-wide
    /// ring (isolated tests, per-run trace capture).
    pub fn set_trace(&mut self, trace: TraceSink) {
        self.trace = trace;
    }

    /// Attach a quality sentinel: every processed batch (and the closing
    /// finalize pass) folds one [`BatchObservation`] into it, drift
    /// detections become `DriftDetected` trace events, health changes
    /// become `HealthTransition` events, and the `emd_sentinel_*`
    /// metrics mirror the verdict. Monitoring is strictly passive — the
    /// sentinel never touches pipeline state, so monitored and
    /// unmonitored runs produce bit-identical outputs (proptest-enforced
    /// in `tests/sentinel_monitoring.rs`).
    pub fn set_sentinel(&mut self, sentinel: Sentinel) {
        self.monitor = Some(Mutex::new(MonitorCell {
            sentinel,
            pending_shed: 0,
        }));
    }

    /// Attach the overload guard: one circuit breaker per guarded phase
    /// (classification, embedding pooling, finalize rescan), all under
    /// the same config, ticking on the batch clock. An Open breaker makes
    /// its phase take the degraded path immediately — the end state a
    /// persistent failure would have produced, without burning retry
    /// budgets — and an attached sentinel going Critical force-opens all
    /// three. In a fault-free run no breaker ever trips, so guarded and
    /// unguarded outputs are bit-identical (proptest-enforced in
    /// `tests/guard_runtime.rs`). Panics on an invalid config; use
    /// [`BreakerConfig::validate`] to pre-check.
    pub fn set_guard(&mut self, cfg: BreakerConfig) {
        if let Err(e) = cfg.validate() {
            panic!("invalid breaker config: {e}");
        }
        self.guard = Some(Mutex::new(GuardCell {
            classify: CircuitBreaker::new(cfg.clone()),
            pool: CircuitBreaker::new(cfg.clone()),
            rescan: CircuitBreaker::new(cfg),
            transitions: Vec::new(),
        }));
    }

    /// Lock the guard cell, recovering from poisoning (breaker state is
    /// always internally consistent — transitions are atomic under the
    /// lock).
    fn guard_lock(g: &Mutex<GuardCell>) -> std::sync::MutexGuard<'_, GuardCell> {
        g.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// True when the given guarded phase should run its real work; false
    /// (breaker Open) routes it down the degraded path. Unguarded
    /// instances always run everything.
    fn guard_allows(&self, phase: TracePhase) -> bool {
        match &self.guard {
            Some(g) => Self::guard_lock(g).breaker_mut(phase).allows(),
            None => true,
        }
    }

    /// Record one guarded pass's outcome against its breaker. `ok` is
    /// false when the pass saw at least one persistent failure. Emits any
    /// resulting transition.
    fn guard_record(&self, phase: TracePhase, ok: bool, reason: &str) {
        self.guard_step(&[phase], |b| {
            if ok {
                b.record_success()
            } else {
                b.record_failure(reason)
            }
        });
    }

    /// Advance every breaker's batch clock by one tick, emitting
    /// Open → HalfOpen transitions whose cooldowns are served.
    fn guard_tick(&self) {
        self.guard_step(&GUARDED_PHASES, CircuitBreaker::tick);
    }

    /// Trip every breaker Open regardless of failure counts — the
    /// sentinel-Critical escalation hook.
    fn guard_force_open_all(&self, reason: &str) {
        self.guard_step(&GUARDED_PHASES, |b| b.force_open(reason));
    }

    /// Apply `step` to the breakers guarding `phases` under one lock, log
    /// every transition it takes, refresh the open-breaker gauge, and
    /// count and trace the transitions once the lock is released.
    fn guard_step(
        &self,
        phases: &[TracePhase],
        step: impl Fn(&mut CircuitBreaker) -> Option<BreakerTransition>,
    ) {
        let Some(g) = &self.guard else { return };
        let fired: Vec<(TracePhase, BreakerTransition)> = {
            let mut cell = Self::guard_lock(g);
            let fired: Vec<_> = phases
                .iter()
                .filter_map(|&p| step(cell.breaker_mut(p)).map(|t| (p, t)))
                .collect();
            if !fired.is_empty() {
                cell.transitions.extend(fired.iter().cloned());
                self.metrics
                    .guard_breaker_open
                    .set(cell.open_count() as f64);
            }
            fired
        };
        for (phase, t) in fired {
            self.metrics.guard_breaker_transitions_total.inc();
            self.trace_event(|| TraceEvent {
                batch: Some(t.tick),
                phase: Some(phase),
                breaker: Some(trace_breaker(t.to)),
                reason: Some(t.reason),
                ..TraceEvent::of(TraceEventKind::BreakerTransition)
            });
        }
    }

    /// Every breaker transition taken so far, in order, as
    /// `(guarded phase, transition)` pairs. Empty when unguarded.
    pub fn guard_transitions(&self) -> Vec<(TracePhase, BreakerTransition)> {
        self.guard
            .as_ref()
            .map(|g| Self::guard_lock(g).transitions.clone())
            .unwrap_or_default()
    }

    /// Current breaker state per guarded phase, or `None` when unguarded.
    pub fn breaker_states(&self) -> Option<Vec<(TracePhase, BreakerState)>> {
        self.guard.as_ref().map(|g| {
            let mut cell = Self::guard_lock(g);
            GUARDED_PHASES
                .iter()
                .map(|&p| (p, cell.breaker_mut(p).state()))
                .collect()
        })
    }

    /// Record `sentences` shed by the admission gate; folded into the
    /// next batch's sentinel observation (the ShedRate series). No-op
    /// without a sentinel.
    pub fn note_shed(&self, sentences: u64) {
        if let Some(m) = &self.monitor {
            Self::mon_lock(m).pending_shed += sentences;
        }
    }

    /// The degraded LocalOnly answer for a batch that will never enter
    /// the pipeline (the `ShedToLocalOnly` admission policy): per-sentence
    /// local spans, panic-isolated exactly like the real local phase, with
    /// persistent failures yielding empty span lists. Touches no pipeline
    /// state.
    pub fn local_only_spans(&self, sentences: &[Sentence]) -> Vec<(SentenceId, Vec<Span>)> {
        sentences
            .iter()
            .map(|s| {
                let spans = match self.local_attempt(s) {
                    Ok(out) => out.spans,
                    Err(_) => Vec::new(),
                };
                (s.id, spans)
            })
            .collect()
    }

    /// Whether a sentinel is attached.
    pub fn monitored(&self) -> bool {
        self.monitor.is_some()
    }

    /// Current health state from the attached sentinel, if any.
    pub fn sentinel_health(&self) -> Option<HealthState> {
        self.monitor
            .as_ref()
            .map(|m| Self::mon_lock(m).sentinel.health())
    }

    /// End-of-run health summary from the attached sentinel, if any.
    pub fn sentinel_report(&self) -> Option<HealthReport> {
        self.monitor
            .as_ref()
            .map(|m| Self::mon_lock(m).sentinel.report())
    }

    /// Windowed-series export from the attached sentinel, if any, as an
    /// `emd-obs` snapshot riding the existing Prometheus/JSON exporters.
    pub fn sentinel_snapshot(&self) -> Option<emd_obs::Snapshot> {
        self.monitor
            .as_ref()
            .map(|m| Self::mon_lock(m).sentinel.snapshot())
    }

    /// Lock the monitor cell, recovering from poisoning.
    fn mon_lock(m: &Mutex<MonitorCell>) -> std::sync::MutexGuard<'_, MonitorCell> {
        m.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Commit the call's tally: add it to the pipeline counters, then —
    /// with a sentinel attached — fold it into the sentinel as one
    /// observation, mirror the verdict into the `emd_sentinel_*` metrics,
    /// and emit `DriftDetected` / `SloBurn` / `HealthTransition` trace
    /// events. `closing` marks the finalize-time observation, which the
    /// sentinel normalizes by the resident window size rather than a batch
    /// size; `t0` is the call's start, read only on the sentinel's behalf.
    /// Reads pipeline state but never writes it — monitoring stays
    /// passive.
    fn commit(&self, state: &mut GlobalizerState, t0: Option<Instant>, closing: bool) {
        let t = std::mem::take(&mut state.tally);
        let m = &self.metrics;
        m.sentences_total.add(t.obs.sentences);
        m.local_spans_total.add(t.obs.local_spans);
        m.trie_inserts_total.add(t.obs.trie_inserts);
        m.scan_mentions_total.add(t.obs.scan_mentions);
        m.pool_embeddings_total.add(t.obs.pooled);
        m.classify_candidates_total.add(t.obs.scored);
        m.quarantined_total.add(t.obs.quarantined);
        m.evicted_records_total.add(t.obs.evicted);
        m.pruned_candidates_total.add(t.obs.pruned);
        m.finalize_promotions_total.add(t.obs.promoted);
        m.dirty_marks_total.add(t.dirty_marks);
        m.dirty_postings_visited_total.add(t.dirty_visits);
        m.scan_records_total.add(t.scan_records);
        m.finalize_rescan_sentences_total.add(t.rescan_sentences);
        m.finalize_promotion_rounds_total.add(t.promotion_rounds);
        m.compactions_total.add(t.compactions);
        let Some(mon) = &self.monitor else { return };
        let mut counts = t.obs;
        counts.batch = state.batch_seq;
        if closing {
            counts.sentences = state.tweetbase.len().max(1) as u64;
        }
        if let Some(t0) = t0 {
            counts.latency_ns = elapsed_ns(t0);
        }
        let observed = {
            let mut cell = Self::mon_lock(mon);
            let observed = cell.sentinel.observe(&counts);
            m.sentinel_health.set(cell.sentinel.health().level() as f64);
            observed
        };
        m.sentinel_alerts_total.add(observed.alerts.len() as u64);
        for a in &observed.alerts {
            if a.kind != AlertKind::Drift {
                continue;
            }
            m.sentinel_drift_total.inc();
            self.trace_event(|| TraceEvent {
                batch: Some(a.batch),
                series: Some(a.series.name().to_string()),
                score: Some(a.value as f32),
                reason: Some(a.detail.clone()),
                ..TraceEvent::of(TraceEventKind::DriftDetected)
            });
        }
        // One SloBurn event per firing (slo, batch) pair — the trace
        // carries the whole burn interval, so `replay_slo` reconstructs
        // exactly when each objective was on fire and how hard.
        m.sentinel_slo_burn_total
            .add(observed.slo_burns.len() as u64);
        for b in &observed.slo_burns {
            self.trace_event(|| TraceEvent {
                batch: Some(b.batch),
                series: Some(b.name.clone()),
                score: Some(b.burn_fast as f32),
                reason: Some(format!(
                    "burn_slow={:.2} threshold={}",
                    b.burn_slow, b.threshold
                )),
                ..TraceEvent::of(TraceEventKind::SloBurn)
            });
        }
        if let Some(t) = &observed.transition {
            m.sentinel_transitions_total.inc();
            self.trace_event(|| TraceEvent {
                batch: Some(t.batch),
                health: Some(trace_health(t.to)),
                reason: Some(t.reason.clone()),
                ..TraceEvent::of(TraceEventKind::HealthTransition)
            });
            // Sense → act: a Critical stream force-opens every breaker,
            // so the next batches take the cheap degraded paths while the
            // storm passes (cooldown + probes decide when to re-engage).
            if t.to == HealthState::Critical {
                self.guard_force_open_all(&format!("sentinel critical: {}", t.reason));
            }
        }
    }

    /// Emit one trace event: the pipeline's only way into the sink. `event`
    /// is built only while tracing is on, so the disabled path allocates
    /// nothing; the push keeps the `emd_trace_*` meta-counters in step.
    /// Returns the event's seq, or `None` when tracing is off or the ring
    /// dropped it.
    pub(crate) fn trace_event(&self, event: impl FnOnce() -> TraceEvent) -> Option<u64> {
        if !emd_trace::enabled() {
            return None;
        }
        let seq = self.trace.push(event());
        match seq {
            Some(_) => self.metrics.trace_events_total.inc(),
            None => self.metrics.trace_dropped_events_total.inc(),
        }
        seq
    }

    /// Open `phase`'s clock: the one clock read for the call. The phase
    /// open around it becomes the span's parent.
    fn open(&self, state: &mut GlobalizerState, phase: TracePhase) -> PhaseClock {
        PhaseClock {
            phase,
            parent: state.tally.open.replace(phase),
            exemplar: (emd_obs::enabled() && emd_trace::enabled()).then(|| self.trace.next_seq()),
            t0: Instant::now(),
        }
    }

    /// Close a phase clock and feed its one measurement to every sink the
    /// phase has: its `PhaseTimings` field and `PhaseSpan` (all but trie
    /// registration), and its histogram (all but promotion and emit).
    fn close(&self, state: &mut GlobalizerState, clock: PhaseClock) {
        let ns = elapsed_ns(clock.t0);
        state.tally.open = clock.parent;
        let (t, m) = (&mut state.timings, &self.metrics);
        let (total, hist) = match clock.phase {
            TracePhase::LocalInfer => (Some(&mut t.local_infer_ns), Some(&m.local_infer_ns)),
            TracePhase::Ingest => (Some(&mut t.ingest_ns), Some(&m.ingest_ns)),
            TracePhase::TrieRegister => (None, Some(&m.trie_register_ns)),
            TracePhase::Scan | TracePhase::FinalizeRescan => {
                (Some(&mut t.scan_ns), Some(&m.scan_ns))
            }
            TracePhase::Pool => (Some(&mut t.pool_ns), Some(&m.pool_ns)),
            TracePhase::Classify => (Some(&mut t.classify_ns), Some(&m.classify_ns)),
            TracePhase::Promotion => (Some(&mut t.promotion_ns), None),
            TracePhase::Emit => (Some(&mut t.emit_ns), None),
            TracePhase::Finalize => (Some(&mut t.finalize_ns), Some(&m.finalize_ns)),
            TracePhase::Evict => (Some(&mut t.evict_ns), Some(&m.evict_ns)),
            TracePhase::Supervisor => (None, None),
        };
        if let Some(h) = hist {
            h.record_with_exemplar(ns, clock.exemplar);
        }
        if let Some(total) = total {
            *total += ns;
            self.trace_event(|| TraceEvent {
                phase: Some(clock.phase),
                parent: clock.parent,
                dur_ns: Some(ns),
                system: (clock.phase == TracePhase::LocalInfer)
                    .then(|| self.local.name().to_string()),
                ..TraceEvent::of(TraceEventKind::PhaseSpan)
            });
        }
    }

    /// Dimensionality of candidate embeddings: the phrase-embedder output
    /// for deep systems, the 6-dim syntactic space otherwise.
    pub fn candidate_dim(&self) -> usize {
        match self.phrase {
            Some(pe) if self.local.is_deep() => pe.out_dim(),
            _ => SyntacticClass::COUNT,
        }
    }

    /// Fresh pipeline state.
    pub fn new_state(&self) -> GlobalizerState {
        let mut candidates = CandidateBase::new(self.candidate_dim());
        // Windowed mean pooling never reads the per-mention embedding
        // list (only the running sum), so skip storing it — it is the one
        // candidate-side structure that grows with stream length instead
        // of window size. Max pooling still needs the list and therefore
        // stays unbounded (documented in DESIGN.md).
        if self.config.window.enabled() && self.config.pooling == crate::config::Pooling::Mean {
            candidates.set_store_local(false);
        }
        GlobalizerState {
            tweetbase: TweetBase::new(),
            ctrie: CTrie::new(),
            candidates,
            dirty: DirtySet::new(),
            timings: PhaseTimings::default(),
            quarantined: Vec::new(),
            quarantined_idx: BTreeSet::new(),
            quarantined_ids: BTreeSet::new(),
            frozen_adjacency: Vec::new(),
            frozen_index: HashMap::new(),
            evict_cursor: 0,
            tally: Tally::default(),
            batch_seq: 0,
            trace_seq: 0,
        }
    }

    /// Run one unit of work panic-isolated with the retry budget
    /// ([`GlobalizerConfig::poison_retries`] retries), counting (and
    /// tracing) its panicking attempts.
    fn retried<T>(&self, f: impl FnMut() -> T) -> Result<T, String> {
        let r = isolate::retry_catch(self.config.poison_retries + 1, f);
        let failed = r.failed_attempts;
        if failed > 0 {
            self.metrics.item_retries_total.add(failed as u64);
            self.trace_event(|| TraceEvent {
                count: Some(failed as u64),
                ..TraceEvent::of(TraceEventKind::ItemRetry)
            });
        }
        r.result
    }

    /// Divert a sentence to the dead-letter log. When tracing is on, the
    /// `SentenceQuarantined` event's sequence number is linked back into
    /// the dead-letter entry, so an operator holding the entry can pull
    /// the sentence's full event history out of the trace.
    fn quarantine_sentence(
        &self,
        state: &mut GlobalizerState,
        sid: SentenceId,
        phase: PipelinePhase,
        reason: String,
    ) {
        state.tally.obs.quarantined += 1;
        let trace_event = self.trace_event(|| TraceEvent {
            sid: Some(tsid(sid)),
            phase: Some(trace_phase(phase)),
            reason: Some(reason.clone()),
            ..TraceEvent::of(TraceEventKind::SentenceQuarantined)
        });
        state.quarantined_ids.insert(sid);
        state.quarantined.push(QuarantineEntry {
            sid,
            phase,
            reason,
            trace_event,
        });
    }

    /// Compute the local candidate embedding for the mention at `span` of
    /// the record in slot `idx` — phrase-embedding the token rows straight
    /// out of the store's flat arena for deep systems, the 6-dim syntactic
    /// one-hot otherwise.
    fn local_embedding(&self, tweetbase: &TweetBase, idx: usize, span: &Span) -> Vec<f32> {
        match (tweetbase.embedding_view(idx), self.phrase) {
            (Some(te), Some(pe)) => pe.embed_span_view(te, span),
            _ => {
                let record = tweetbase.get_by_index(idx);
                syntactic_class(&record.sentence, span).one_hot().to_vec()
            }
        }
    }

    /// One sentence's local inference, panic-isolated with the retry
    /// budget. Pure (no pipeline state touched), so a caught panic leaves
    /// nothing behind, and a shard re-run on the caller thread behaves
    /// exactly like the first attempt.
    fn local_attempt(&self, sentence: &Sentence) -> Result<crate::local::LocalEmdOutput, String> {
        self.retried(|| {
            failpoint::fire("local_inference");
            self.local.process(sentence)
        })
    }

    /// **Local EMD phase** for one batch: run the plug-in per sentence on
    /// up to `n_threads` shards (inference is `&self`), then register seed
    /// candidates and store TweetBase records sequentially in stream
    /// order, so results do not depend on the thread count.
    fn local_phase(&self, state: &mut GlobalizerState, batch: &[Sentence], n_threads: usize) {
        let clock = self.open(state, TracePhase::LocalInfer);
        let outputs = self.fan_out(
            batch,
            n_threads,
            TracePhase::LocalInfer,
            "local_shard",
            |part| part.iter().map(|s| self.local_attempt(s)).collect(),
        );
        self.close(state, clock);
        self.ingest_local_outputs(state, batch, outputs);
    }

    /// Run `work` over `items` split into at most `n_threads` contiguous
    /// shards and return its results in input order.
    ///
    /// A single shard runs inline on the caller thread. Otherwise each
    /// shard runs on a scoped thread behind the `shard_fp` fail point, and
    /// every shard is joined before any failure is acted on — a panicked
    /// shard must not leak the surviving worker threads. A panicked
    /// shard's items are then re-run on the caller thread, in order (and
    /// the retry counted and traced as a `ShardRetry` of `phase`), so one
    /// poisoned shard degrades to sequential work instead of aborting the
    /// batch.
    fn fan_out<T: Sync, R: Send>(
        &self,
        items: &[T],
        n_threads: usize,
        phase: TracePhase,
        shard_fp: &str,
        work: impl Fn(&[T]) -> Vec<R> + Sync,
    ) -> Vec<R> {
        let n_threads = n_threads.max(1).min(items.len());
        if n_threads <= 1 {
            return work(items);
        }
        let chunks: Vec<&[T]> = items.chunks(items.len().div_ceil(n_threads)).collect();
        let work = &work;
        let shard_results: Vec<Option<Vec<R>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|&part| {
                    scope.spawn(move || {
                        failpoint::fire(shard_fp);
                        work(part)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().ok()).collect()
        });
        let mut results = Vec::with_capacity(items.len());
        for (&part, slot) in chunks.iter().zip(shard_results) {
            match slot {
                Some(v) => results.extend(v),
                None => {
                    self.metrics.shard_retries_total.inc();
                    self.trace_event(|| TraceEvent {
                        phase: Some(phase),
                        ..TraceEvent::of(TraceEventKind::ShardRetry)
                    });
                    results.extend(work(part));
                }
            }
        }
        results
    }

    /// Validation + span sanitation for one sentence's local output,
    /// panic-isolated with the retry budget. Pure: the TweetBase / CTrie
    /// are untouched, so failures here quarantine cleanly.
    fn stage_ingest(
        &self,
        sentence: &Sentence,
        out: crate::local::LocalEmdOutput,
    ) -> Result<crate::local::LocalEmdOutput, String> {
        // The fallible, retried closure only *borrows* the output; the
        // output itself is moved exactly once, after validation succeeds.
        let staged = self.retried(|| {
            failpoint::fire("ingest");
            validate::validate_sentence(sentence)?;
            if let Some(te) = &out.token_embeddings {
                if te.rows != sentence.len() {
                    return Err(format!(
                        "token embeddings have {} rows for {} tokens",
                        te.rows,
                        sentence.len()
                    ));
                }
                if !validate::all_finite(&te.data) {
                    return Err("non-finite token embedding values".to_string());
                }
            }
            Ok(validate::sanitize_spans(out.spans.clone(), sentence.len()))
        });
        let spans = staged.and_then(|inner| inner)?;
        let mut out = out;
        out.spans = spans;
        Ok(out)
    }

    /// Register local outputs: store TweetBase records, seed the CTrie,
    /// mark possibly-affected sentences dirty.
    ///
    /// Local outputs are validated once here — a misbehaving local system
    /// can emit empty, overlapping, or out-of-bounds spans, oversized
    /// tokens, or non-finite embeddings, and letting them in would leak
    /// into `LocalOnly` outputs, inflate `locally_detected` counts, or
    /// poison candidate pools. Sentences whose local inference failed (or
    /// whose output fails validation) are quarantined and never enter the
    /// TweetBase. Records are stored for the *whole batch* before any
    /// candidate registration, so a candidate discovered at sentence `i`
    /// correctly dirties a later sentence of the same batch.
    fn ingest_local_outputs(
        &self,
        state: &mut GlobalizerState,
        batch: &[Sentence],
        outputs: Vec<Result<crate::local::LocalEmdOutput, String>>,
    ) {
        let clock = self.open(state, TracePhase::Ingest);
        // Stage (fallible, isolated, read-only) per sentence.
        let staged: Vec<Result<crate::local::LocalEmdOutput, (PipelinePhase, String)>> = batch
            .iter()
            .zip(outputs)
            .map(|(sentence, out)| match out {
                Err(reason) => Err((PipelinePhase::LocalInference, reason)),
                Ok(out) => self
                    .stage_ingest(sentence, out)
                    .map_err(|reason| (PipelinePhase::Ingest, reason)),
            })
            .collect();
        // Apply (infallible): store records, register candidates, dirty.
        let mut kept: Vec<Option<Vec<Span>>> = Vec::with_capacity(batch.len());
        for (sentence, st) in batch.iter().zip(staged) {
            match st {
                Err((phase, reason)) => {
                    self.quarantine_sentence(state, sentence.id, phase, reason);
                    kept.push(None);
                }
                Ok(out) => {
                    // Quarantine is permanent at the ID level: a replayed
                    // copy of a quarantined sentence must not re-enter the
                    // pipeline — not even after eviction freed the
                    // original record's slot.
                    if state.quarantined_ids.contains(&sentence.id) {
                        self.quarantine_sentence(
                            state,
                            sentence.id,
                            PipelinePhase::Ingest,
                            "sentence id was previously quarantined".to_string(),
                        );
                        kept.push(None);
                        continue;
                    }
                    state.tally.obs.local_spans += out.spans.len() as u64;
                    let idx = state.tweetbase.insert(TweetRecord::new(
                        sentence.clone(),
                        out.token_embeddings,
                        out.spans.clone(),
                    ));
                    state.dirty.insert(idx);
                    self.trace_event(|| TraceEvent {
                        sid: Some(tsid(sentence.id)),
                        count: Some(out.spans.len() as u64),
                        ..TraceEvent::of(TraceEventKind::SentenceAdmitted)
                    });
                    for sp in &out.spans {
                        self.trace_event(|| TraceEvent {
                            sid: Some(tsid(sentence.id)),
                            span: Some(tspan(sp)),
                            system: Some(self.local.name().to_string()),
                            ..TraceEvent::of(TraceEventKind::LocalDetect)
                        });
                    }
                    kept.push(Some(out.spans));
                }
            }
        }
        let trie = self.open(state, TracePhase::TrieRegister);
        for (sentence, spans) in batch.iter().zip(&kept) {
            let Some(spans) = spans else { continue };
            for sp in spans {
                if sp.len() <= self.config.max_candidate_len {
                    let toks: Vec<&str> = (sp.start..sp.end)
                        .map(|i| sentence.tokens[i].text.as_str())
                        .collect();
                    if state.ctrie.insert(state.tweetbase.interner_mut(), &toks) {
                        state.tally.obs.trie_inserts += 1;
                        self.trace_event(|| TraceEvent {
                            sid: Some(tsid(sentence.id)),
                            span: Some(tspan(sp)),
                            candidate: Some(toks.join(" ").to_lowercase()),
                            phase: Some(TracePhase::TrieRegister),
                            ..TraceEvent::of(TraceEventKind::TrieInsert)
                        });
                        Self::mark_dirty(state, &toks);
                    }
                }
            }
        }
        self.close(state, trie);
        self.close(state, clock);
    }

    /// Mark every stored sentence that contains the newly registered
    /// candidate `phrase` as a contiguous run of tokens (any casing) as
    /// needing a rescan. This is exact: greedy longest-match extraction
    /// can only end differently at an anchor where the sentence's symbols
    /// spell the new trie path in full, so a record without the phrase
    /// extracts the same mentions as before.
    ///
    /// Walks the shortest posting list among the phrase's symbols. An
    /// entry must also appear in every other symbol's list (a forward
    /// gallop over the sorted lists, so most entries are rejected without
    /// touching their record), and only then is its `tok_syms` checked for
    /// the run; a one-token phrase needs no run check, since posting
    /// membership already proves it. Records already dirty or quarantined
    /// are skipped. A token unknown to the interner occurs in no stored
    /// sentence, so there is nothing to dirty. Tallies the records newly
    /// dirtied and the entries of the walked list.
    fn mark_dirty<S: AsRef<str>>(state: &mut GlobalizerState, phrase: &[S]) {
        let tweetbase = &state.tweetbase;
        let Some(syms) = phrase
            .iter()
            .map(|t| tweetbase.interner().lookup_folded(t.as_ref()))
            .collect::<Option<Vec<Sym>>>()
        else {
            return;
        };
        let mut distinct = syms.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let mut lists: Vec<&[usize]> = distinct
            .iter()
            .map(|&sym| tweetbase.indices_with_sym(sym))
            .collect();
        lists.sort_by_key(|list| list.len());
        let Some((walk, rest)) = lists.split_first() else {
            return;
        };
        let mut cursors = vec![0usize; rest.len()];
        'visit: for &i in *walk {
            if state.dirty.contains(i) || state.quarantined_idx.contains(&i) {
                continue;
            }
            for (list, cur) in rest.iter().zip(&mut cursors) {
                *cur = gallop(list, *cur, i);
                if list.get(*cur) != Some(&i) {
                    continue 'visit;
                }
            }
            if syms.len() > 1
                && !tweetbase
                    .get_by_index(i)
                    .tok_syms
                    .windows(syms.len())
                    .any(|run| run == syms.as_slice())
            {
                continue;
            }
            state.dirty.insert(i);
            state.tally.dirty_marks += 1;
        }
        state.tally.dirty_visits += walk.len() as u64;
    }

    /// Mention extraction + embedding staging for one record (read-only; a
    /// rescan worker runs this off-thread). `phase_fp` is the fail-point
    /// name for the calling phase (batch scan vs finalize rescan).
    ///
    /// The phrase-embedder call is individually isolated: if it panics or
    /// produces non-finite values for a mention, a zero vector is pooled
    /// in its place and the candidate is flagged degraded instead of the
    /// whole record being quarantined.
    fn stage_scan(
        &self,
        tweetbase: &TweetBase,
        ctrie: &CTrie,
        idx: usize,
        phase_fp: &str,
        embed_allowed: bool,
    ) -> StagedScan {
        failpoint::fire(phase_fp);
        let record = tweetbase.get_by_index(idx);
        // Symbol-level trie walk over the record's pre-interned folded
        // tokens: no case folding, no string hashing, no per-token
        // allocation — the vector below becomes the record's stored
        // mention list.
        let mut mentions = Vec::new();
        extract_mentions_into(
            ctrie,
            &record.tok_syms,
            self.config.max_candidate_len,
            &mut mentions,
        );
        let mut degraded_keys = Vec::new();
        let staged = mentions
            .iter()
            .map(|sp| {
                let key = sp.surface_lower(&record.sentence);
                // Pool breaker Open: skip the embedder outright; zero
                // vector + degraded is exactly the persistent-failure end
                // state, minus the retry burn.
                let emb = embed_allowed
                    .then(|| {
                        isolate::catch(|| {
                            failpoint::fire("phrase_embed");
                            self.local_embedding(tweetbase, idx, sp)
                        })
                    })
                    .and_then(Result::ok)
                    .filter(|emb| validate::all_finite(emb))
                    .unwrap_or_else(|| {
                        degraded_keys.push(key.clone());
                        vec![0.0; self.candidate_dim()]
                    });
                let locally_detected = record.local_spans.iter().any(|l| l == sp);
                (
                    key,
                    MentionRef {
                        sid: record.sentence.id,
                        span: *sp,
                        locally_detected,
                    },
                    emb,
                )
            })
            .collect();
        StagedScan {
            mentions,
            staged,
            degraded_keys,
        }
    }

    /// **Mention extraction + embedding pooling** over the given record
    /// indices. New mentions (not yet in the CandidateBase) contribute
    /// their local embeddings to the candidate pool; scanned records are
    /// cleared from the dirty set.
    ///
    /// Extraction and embedding are read-only, so the indices are staged
    /// on up to `n_threads` shards ([`Globalizer::fan_out`]); the *apply*
    /// step replays the staged results sequentially in the order given
    /// (callers pass ascending stream order), which keeps pool-append
    /// order — and with it every f32 sum and the candidate discovery
    /// order — bit-identical for every thread count.
    ///
    /// A record whose staging exhausts the retry budget is quarantined —
    /// its stale `global_mentions` are dropped so it can no longer feed
    /// promotions or emission.
    fn scan_records(
        &self,
        state: &mut GlobalizerState,
        indices: &[usize],
        n_threads: usize,
        phase: PipelinePhase,
    ) {
        if indices.is_empty() {
            return;
        }
        // Rescan breaker Open: the records take the persistent-failure
        // path — quarantined with their stale mentions dropped — without
        // staging anything.
        if phase == PipelinePhase::FinalizeRescan && !self.guard_allows(TracePhase::FinalizeRescan)
        {
            for &idx in indices {
                let sid = state.tweetbase.get_by_index(idx).sentence.id;
                self.quarantine_sentence(state, sid, phase, "rescan breaker open".to_string());
                state.quarantined_idx.insert(idx);
                state.dirty.remove(idx);
                state.tweetbase.get_mut_by_index(idx).global_mentions = Vec::new();
            }
            return;
        }
        let embed_allowed = self.guard_allows(TracePhase::Pool);
        let phase_fp = match phase {
            PipelinePhase::FinalizeRescan => "finalize_rescan",
            _ => "scan",
        };
        let tphase = trace_phase(phase);
        state.tally.scan_records += indices.len() as u64;
        let clock = self.open(state, tphase);
        let results: Vec<(usize, Result<StagedScan, String>)> = {
            let tweetbase = &state.tweetbase;
            let ctrie = &state.ctrie;
            self.fan_out(indices, n_threads, tphase, "scan_shard", |part| {
                let _shard = Timer::start(&self.metrics.scan_shard_ns);
                let stage = |i| self.stage_scan(tweetbase, ctrie, i, phase_fp, embed_allowed);
                part.iter()
                    .map(|&i| (i, self.retried(|| stage(i))))
                    .collect()
            })
        };
        self.close(state, clock);
        let clock = self.open(state, TracePhase::Pool);
        let (degraded0, quarantined0) = (state.tally.obs.degraded, state.tally.obs.quarantined);
        for (idx, outcome) in results {
            match outcome {
                Ok(st) => {
                    state.tally.obs.scan_mentions += st.mentions.len() as u64;
                    state.tally.obs.degraded += st.degraded_keys.len() as u64;
                    self.trace_event(|| TraceEvent {
                        sid: Some(tsid(state.tweetbase.get_by_index(idx).sentence.id)),
                        count: Some(st.mentions.len() as u64),
                        phase: Some(tphase),
                        ..TraceEvent::of(TraceEventKind::ScanRecord)
                    });
                    state.tweetbase.get_mut_by_index(idx).global_mentions = st.mentions;
                    state.dirty.remove(idx);
                    for (key, mref, emb) in st.staged {
                        let rec = state.candidates.entry(&key);
                        let pooled = rec.try_add_mention(mref);
                        if pooled {
                            rec.add_embedding(&emb);
                            state.tally.obs.pooled += 1;
                        }
                        self.trace_event(|| TraceEvent {
                            sid: Some(tsid(mref.sid)),
                            span: Some(tspan(&mref.span)),
                            candidate: Some(key),
                            pooled: Some(pooled),
                            local_hit: Some(mref.locally_detected),
                            phase: Some(tphase),
                            ..TraceEvent::of(TraceEventKind::ScanMention)
                        });
                    }
                    for key in st.degraded_keys {
                        state.candidates.entry(&key).degraded = true;
                        self.trace_event(|| TraceEvent {
                            candidate: Some(key),
                            phase: Some(tphase),
                            reason: Some("phrase embedding failed; zero vector pooled".to_string()),
                            ..TraceEvent::of(TraceEventKind::CandidateDegraded)
                        });
                    }
                }
                Err(reason) => {
                    let sid = state.tweetbase.get_by_index(idx).sentence.id;
                    self.quarantine_sentence(state, sid, phase, reason);
                    state.quarantined_idx.insert(idx);
                    state.dirty.remove(idx);
                    // Drop stale evidence: a quarantined record's old
                    // mentions must not feed promotions or emission.
                    state.tweetbase.get_mut_by_index(idx).global_mentions = Vec::new();
                }
            }
        }
        self.guard_record(
            TracePhase::Pool,
            state.tally.obs.degraded == degraded0,
            "phrase embedding failed persistently",
        );
        if phase == PipelinePhase::FinalizeRescan {
            self.guard_record(
                TracePhase::FinalizeRescan,
                state.tally.obs.quarantined == quarantined0,
                "record rescan failed persistently",
            );
        }
        self.close(state, clock);
    }

    /// Score candidates. Confident verdicts (α/β) freeze; ambiguous ones
    /// are re-scored on later calls with their (sharper) updated pools.
    ///
    /// At end of stream (`resolve_ambiguous`), candidates still in the γ
    /// band get their final verdict: accept when the score clears
    /// `final_threshold`, otherwise fall back to the Local EMD system's own
    /// judgment — if the local system itself detected at least half of the
    /// candidate's mentions, the global evidence is too weak to overrule it
    /// (the paper: "it is rare that an entity found by Local EMD is missed
    /// at the global step").
    /// Scoring is per-candidate and read-only, so the unfrozen candidates
    /// are scored on up to `n_threads` shards ([`Globalizer::fan_out`]);
    /// labels and scores are then applied sequentially in discovery order
    /// (label decisions never depend on other candidates, but the
    /// sequential apply keeps the state evolution independent of the
    /// thread count).
    fn classify_candidates(
        &self,
        state: &mut GlobalizerState,
        resolve_ambiguous: bool,
        n_threads: usize,
    ) {
        let clock = self.open(state, TracePhase::Classify);
        // Breaker Open: skip scoring outright and give every unfrozen
        // candidate the end state a persistent classifier failure would
        // have produced — degraded, emission falling back to the local
        // system's detections — with zero retry burn. (An Open breaker
        // ignores the outcome recorded against it below.)
        let allowed = self.guard_allows(TracePhase::Classify);
        // Scoring is pure, so it runs panic-isolated with the retry
        // budget; a candidate whose scoring fails persistently keeps its
        // previous label and is marked degraded (emission then falls back
        // to the local system's own detections for it).
        let score_one = |rec: &CandidateRecord| -> Result<f32, String> {
            if !allowed {
                return Err("classify breaker open".to_string());
            }
            self.retried(|| {
                failpoint::fire("classify");
                let feats = EntityClassifier::features(
                    &rec.pooled_embedding(self.config.pooling),
                    rec.token_len(),
                );
                self.classifier.predict(&feats)
            })
        };
        // Phase 1 (parallelizable): score every unfrozen candidate.
        let scores: Vec<Option<Result<f32, String>>> = {
            let pending: Vec<Option<&CandidateRecord>> = state
                .candidates
                .iter()
                .map(|rec| match rec.label {
                    CandidateLabel::Entity | CandidateLabel::NonEntity => None,
                    _ => Some(rec),
                })
                .collect();
            self.fan_out(
                &pending,
                n_threads,
                TracePhase::Classify,
                "classify_shard",
                |part| part.iter().map(|o| o.map(&score_one)).collect(),
            )
        };
        // Phase 2 (sequential): apply labels in discovery order.
        let tally = &mut state.tally.obs;
        let degraded0 = tally.degraded;
        for (rec, p) in state.candidates.iter_mut().zip(scores) {
            let Some(p) = p else { continue };
            let p = match p {
                Ok(p) => p,
                Err(reason) => {
                    rec.degraded = true;
                    tally.degraded += 1;
                    self.trace_event(|| TraceEvent {
                        candidate: Some(rec.key.clone()),
                        phase: Some(TracePhase::Classify),
                        reason: Some(reason),
                        ..TraceEvent::of(TraceEventKind::CandidateDegraded)
                    });
                    continue;
                }
            };
            tally.scored += 1;
            rec.score = Some(p);
            rec.label = EntityClassifier::classify(p, &self.config);
            if resolve_ambiguous && rec.label == CandidateLabel::Ambiguous {
                // Cumulative ratios (evicted mentions included), so the
                // verdict matches the unbounded run's.
                let locally = rec.locally_detected_frequency();
                let trust_local =
                    self.config.trust_local_fallback && 2 * locally >= rec.frequency().max(1);
                rec.label = if p >= self.config.final_threshold || trust_local {
                    CandidateLabel::Entity
                } else {
                    CandidateLabel::NonEntity
                };
            }
            tally.score_sum += p as f64;
            match rec.label {
                CandidateLabel::Entity => tally.accepted += 1,
                CandidateLabel::NonEntity => tally.rejected += 1,
                _ => tally.ambiguous += 1,
            }
            self.trace_event(|| TraceEvent {
                candidate: Some(rec.key.clone()),
                score: Some(p),
                label: Some(trace_label(rec.label)),
                final_verdict: Some(resolve_ambiguous),
                phase: Some(TracePhase::Classify),
                ..TraceEvent::of(TraceEventKind::Verdict)
            });
        }
        self.guard_record(
            TracePhase::Classify,
            tally.degraded == degraded0,
            "candidate scoring failed persistently",
        );
        self.close(state, clock);
    }

    /// Consume one batch of the stream: Local EMD, candidate registration,
    /// mention extraction over the batch, pooling, and an interim
    /// classification pass (γ candidates stay pending).
    pub fn process_batch(&self, state: &mut GlobalizerState, batch: &[Sentence]) {
        self.process_batch_parallel(state, batch, 1)
    }

    /// [`Globalizer::process_batch`] with Local EMD inference sharded
    /// across `n_threads` scoped threads. Outputs do not depend on the
    /// thread count (ingestion stays in stream order).
    pub fn process_batch_parallel(
        &self,
        state: &mut GlobalizerState,
        batch: &[Sentence],
        n_threads: usize,
    ) {
        // Clock read only on the sentinel's behalf; unmonitored runs pay
        // nothing here.
        let t0 = self.monitor.is_some().then(Instant::now);
        self.start_batch(state, batch);
        self.local_phase(state, batch, n_threads);
        self.global_stage(state, batch);
        self.enforce_window(state);
        self.commit(state, t0, false);
    }

    /// Advance the batch counter (always — traced and untraced runs must
    /// agree on batch IDs), start the batch's tally, and delimit the batch
    /// in the trace.
    fn start_batch(&self, state: &mut GlobalizerState, batch: &[Sentence]) {
        state.batch_seq += 1;
        // Sheds recorded since the last batch ride along (shed batches
        // never start a tally of their own).
        let shed = self
            .monitor
            .as_ref()
            .map_or(0, |m| std::mem::take(&mut Self::mon_lock(m).pending_shed));
        state.tally = Tally {
            obs: BatchObservation {
                sentences: batch.len() as u64,
                shed,
                ..BatchObservation::default()
            },
            ..Tally::default()
        };
        self.guard_tick();
        self.trace_event(|| TraceEvent {
            batch: Some(state.batch_seq),
            count: Some(batch.len() as u64),
            ..TraceEvent::of(TraceEventKind::BatchStart)
        });
    }

    fn global_stage(&self, state: &mut GlobalizerState, batch: &[Sentence]) {
        if self.config.ablation == Ablation::LocalOnly {
            return;
        }
        // Sentences quarantined at local/ingest never entered the
        // TweetBase, so `index_of` filters them out here; records
        // quarantined by an earlier scan are excluded explicitly.
        let indices: Vec<usize> = batch
            .iter()
            .filter_map(|s| state.tweetbase.index_of(s.id))
            .filter(|i| !state.quarantined_idx.contains(i))
            .collect();
        self.scan_records(state, &indices, 1, PipelinePhase::Scan);
        if self.config.ablation == Ablation::Full {
            self.classify_candidates(state, false, 1);
        }
    }

    /// **Window enforcement** (end of every batch, no-op unless
    /// [`crate::config::WindowConfig::enabled`]): evict the oldest live
    /// records beyond the window — settling still-dirty ones with one last
    /// rescan first, and freezing their adjacency evidence for the
    /// promotion search — then prune cold candidates whose every mention
    /// has been evicted (removing their CTrie paths), and compact the slot
    /// vector once tombstones outnumber live records. Candidate pools are
    /// never rolled back: an evicted mention's contribution to pooled
    /// global embeddings, frequencies, and frozen verdicts is exactly the
    /// "global context" the paper accumulates — only the *text* is freed.
    fn enforce_window(&self, state: &mut GlobalizerState) {
        let w = self.config.window;
        if !w.enabled() {
            return;
        }
        let clock = self.open(state, TracePhase::Evict);
        if state.tweetbase.len() > w.max_sentences {
            let excess = state.tweetbase.len() - w.max_sentences;
            // Victims: the oldest live slots, ascending (= stream order).
            let mut victims = Vec::with_capacity(excess);
            let mut cursor = state.evict_cursor;
            while victims.len() < excess {
                match state.tweetbase.first_live_from(cursor) {
                    Some(i) => {
                        victims.push(i);
                        cursor = i + 1;
                    }
                    None => break,
                }
            }
            state.evict_cursor = cursor;
            // Settle: a victim still in the dirty set may be missing
            // mentions of candidates registered after its last scan; give
            // it the rescan finalize would have, while its text is still
            // here. (Pointless for LocalOnly — no global structures.)
            if w.settle_before_evict && self.config.ablation != Ablation::LocalOnly {
                let settle: Vec<usize> = victims
                    .iter()
                    .copied()
                    .filter(|i| state.dirty.contains(*i))
                    .collect();
                self.scan_records(state, &settle, 1, PipelinePhase::Scan);
            }
            for &i in &victims {
                state.dirty.remove(i);
                // `quarantined_idx` keeps the index: the slot is never
                // reused for a live record, and compaction drops it.
                if let Some(rec) = state.tweetbase.evict(i) {
                    self.freeze_adjacency(state, &rec);
                    state.tally.obs.evicted += 1;
                    self.trace_event(|| TraceEvent {
                        sid: Some(tsid(rec.sentence.id)),
                        count: Some(rec.global_mentions.len() as u64),
                        phase: Some(TracePhase::Evict),
                        ..TraceEvent::of(TraceEventKind::SentenceEvicted)
                    });
                }
            }
            self.prune_candidates(state, w.prune_max_frequency);
            // Amortized O(1): compacting costs O(live + tombstones) and
            // only runs once tombstones outnumber live records.
            if state.tweetbase.n_slots() - state.tweetbase.len() > state.tweetbase.len() {
                let dropped = state.compact();
                if dropped > 0 {
                    state.tally.compactions += 1;
                    self.trace_event(|| TraceEvent {
                        count: Some(dropped as u64),
                        phase: Some(TracePhase::Evict),
                        ..TraceEvent::of(TraceEventKind::StateCompacted)
                    });
                }
            }
        }
        self.close(state, clock);
        self.metrics.window_depth.set(state.tweetbase.len() as f64);
        if emd_obs::enabled() {
            // The byte estimate walks both stores: skip it for
            // uninstrumented runs, and keep it out of the evict clock.
            self.metrics
                .resident_bytes
                .set(state.resident_bytes() as f64);
        }
    }

    /// Fold an evicted record's adjacent-pair occurrences into the frozen
    /// ledger (see [`FrozenAdjacency`]). Quarantined records hold no
    /// `global_mentions`, so they contribute nothing.
    fn freeze_adjacency(&self, state: &mut GlobalizerState, rec: &TweetRecord) {
        if self.config.promotion_support == 0 {
            return;
        }
        // The index is transient (checkpoints carry only the ledger):
        // rebuild it whenever it is out of sync, e.g. on the first
        // eviction after a restore.
        if state.frozen_index.len() != state.frozen_adjacency.len() {
            state.frozen_index = state
                .frozen_adjacency
                .iter()
                .enumerate()
                .map(|(i, e)| ((e.first.clone(), e.second.clone()), i))
                .collect();
        }
        for key in adjacent_pairs(rec) {
            if let Some(&i) = state.frozen_index.get(&key) {
                state.frozen_adjacency[i].count += 1;
            } else {
                state
                    .frozen_index
                    .insert(key.clone(), state.frozen_adjacency.len());
                state.frozen_adjacency.push(FrozenAdjacency {
                    first: key.0,
                    second: key.1,
                    count: 1,
                });
            }
        }
    }

    /// Frequency-decay candidate pruning: drop candidates — and their
    /// CTrie paths — that can no longer matter. A candidate is prunable
    /// only when no live record contains its first token (so neither a
    /// pending rescan nor emission can involve it), it holds no Entity
    /// verdict, and its mention frequency is at most `max_freq`. At the
    /// default thresholds (`prune_max_frequency: 2 < promotion_support:
    /// 3`) a fragment with enough adjacency evidence to promote is never
    /// pruned.
    fn prune_candidates(&self, state: &mut GlobalizerState, max_freq: usize) {
        if max_freq == 0 {
            return;
        }
        let tweetbase = &state.tweetbase;
        let pruned = state.candidates.prune_retain(|rec| {
            rec.label == CandidateLabel::Entity
                || rec.frequency() > max_freq
                || rec
                    .tokens
                    .first()
                    .is_some_and(|t| !tweetbase.indices_with_token(t).is_empty())
        });
        if pruned.is_empty() {
            return;
        }
        state.tally.obs.pruned += pruned.len() as u64;
        for rec in &pruned {
            state.ctrie.remove(state.tweetbase.interner(), &rec.tokens);
            self.trace_event(|| TraceEvent {
                candidate: Some(rec.key.clone()),
                count: Some(rec.frequency() as u64),
                phase: Some(TracePhase::Evict),
                ..TraceEvent::of(TraceEventKind::CandidatePruned)
            });
        }
    }

    /// Adjacent-pair candidate promotion (stream close): two candidates
    /// extracted adjacent to each other often enough are evidence of one
    /// fragmented multi-token entity the local system never detects in
    /// full, so their concatenation becomes a candidate of its own.
    ///
    /// Computed purely from the stored (up-to-date) `global_mentions`, in
    /// stream order, so the promotion set is independent of batch schedule
    /// and rescan strategy. Returns candidate token vectors in
    /// first-adjacency stream order.
    fn find_promotions(&self, state: &GlobalizerState) -> Vec<Vec<String>> {
        let support = self.config.promotion_support;
        if support == 0 {
            return Vec::new();
        }
        let mut order: Vec<(String, String)> = Vec::new();
        let mut adjacency: HashMap<(String, String), usize> = HashMap::new();
        let mut count = |pair: (String, String), k: usize| {
            let n = adjacency.entry(pair.clone()).or_insert(0);
            if *n == 0 {
                order.push(pair);
            }
            *n += k;
        };
        // Evidence frozen from evicted records is counted first: evictions
        // run oldest-first, so the ledger precedes every live record in
        // stream order and first-adjacency ordering is preserved. Empty
        // unless windowing is enabled.
        for e in &state.frozen_adjacency {
            count((e.first.clone(), e.second.clone()), e.count as usize);
        }
        for pair in state.tweetbase.iter().flat_map(adjacent_pairs) {
            count(pair, 1);
        }
        let mut promotions = Vec::new();
        for pair in order {
            let adj = adjacency[&pair];
            if adj < support {
                continue;
            }
            let (Some(a), Some(b)) = (state.candidates.get(&pair.0), state.candidates.get(&pair.1))
            else {
                continue;
            };
            // The adjacency must dominate the rarer fragment: incidental
            // co-occurrence of two frequent independent entities stays out.
            if 2 * adj < a.frequency().min(b.frequency()) {
                continue;
            }
            let mut tokens = a.tokens.clone();
            tokens.extend(b.tokens.iter().cloned());
            if tokens.len() > self.config.max_candidate_len
                || state.ctrie.contains(state.tweetbase.interner(), &tokens)
            {
                continue;
            }
            promotions.push(tokens);
        }
        promotions
    }

    /// Closing rescan + promotion fixpoint: each round rescans the records
    /// `rescan` selects, then registers the adjacent-pair promotions found.
    /// Returns `(record scans, promotions)`; a record rescanned in two
    /// rounds counts twice there, but once in the coverage gauge.
    fn close_stream(
        &self,
        state: &mut GlobalizerState,
        n_threads: usize,
        rescan: Rescan,
    ) -> (usize, usize) {
        if self.config.ablation == Ablation::LocalOnly {
            return (0, 0);
        }
        let mut n_rescanned = 0;
        let mut n_promoted = 0;
        let mut rescanned = DirtySet::new();
        self.metrics.dirty_depth.set(state.dirty.len() as f64);
        loop {
            state.tally.promotion_rounds += 1;
            let round: Vec<usize> = match rescan {
                Rescan::Dirty => state.dirty.take_sorted(),
                Rescan::All => {
                    state.dirty.clear();
                    state
                        .tweetbase
                        .iter_indexed()
                        .map(|(i, _)| i)
                        .filter(|i| !state.quarantined_idx.contains(i))
                        .collect()
                }
            };
            n_rescanned += round.len();
            for &i in &round {
                rescanned.insert(i);
            }
            self.scan_records(state, &round, n_threads, PipelinePhase::FinalizeRescan);
            let clock = self.open(state, TracePhase::Promotion);
            let promotions = self.find_promotions(state);
            self.close(state, clock);
            if promotions.is_empty() {
                break;
            }
            for tokens in promotions {
                if state.ctrie.insert(state.tweetbase.interner_mut(), &tokens) {
                    n_promoted += 1;
                    self.trace_event(|| TraceEvent {
                        candidate: Some(tokens.join(" ")),
                        phase: Some(TracePhase::Promotion),
                        ..TraceEvent::of(TraceEventKind::Promotion)
                    });
                    Self::mark_dirty(state, &tokens);
                }
            }
        }
        state.tally.rescan_sentences += n_rescanned as u64;
        state.tally.obs.promoted += n_promoted as u64;
        self.metrics
            .rescan_coverage
            .set(rescanned.len() as f64 / state.tweetbase.len().max(1) as f64);
        (n_rescanned, n_promoted)
    }

    fn emit(
        &self,
        state: &GlobalizerState,
        n_rescanned: usize,
        n_promoted: usize,
    ) -> GlobalizerOutput {
        self.trace_event(|| TraceEvent {
            ablation: Some(trace_ablation(self.config.ablation)),
            count: Some(state.tweetbase.len() as u64),
            ..TraceEvent::of(TraceEventKind::EmitStart)
        });
        let mut per_sentence = Vec::with_capacity(state.tweetbase.len());
        for (idx, rec) in state.tweetbase.iter_indexed() {
            if state.quarantined_idx.contains(&idx) {
                continue;
            }
            let spans = match self.config.ablation {
                Ablation::LocalOnly => rec.local_spans.clone(),
                Ablation::MentionExtraction => rec.global_mentions.clone(),
                Ablation::Full => rec
                    .global_mentions
                    .iter()
                    .filter(|sp| {
                        let key = sp.surface_lower(&rec.sentence);
                        state
                            .candidates
                            .get(&key)
                            .map(|c| {
                                if c.degraded {
                                    // Degraded fallback: the classifier
                                    // verdict is unreliable, so only spans
                                    // the local system itself proposed
                                    // survive (LocalOnly behaviour for
                                    // this candidate).
                                    rec.local_spans.contains(*sp)
                                } else {
                                    c.label == CandidateLabel::Entity
                                }
                            })
                            .unwrap_or(false)
                    })
                    .copied()
                    .collect(),
            };
            per_sentence.push((rec.sentence.id, spans));
        }
        let n_entities = state
            .candidates
            .iter()
            .filter(|c| c.label == CandidateLabel::Entity)
            .count();
        let n_degraded = state.candidates.iter().filter(|c| c.degraded).count();
        self.metrics.degraded_candidates.set(n_degraded as f64);
        GlobalizerOutput {
            per_sentence,
            n_candidates: state.candidates.len(),
            n_entities,
            n_promoted,
            n_rescanned,
            phase_timings: state.timings.clone(),
            quarantined: state.quarantined.clone(),
            n_degraded,
        }
    }

    /// Close the stream: rescan the stored sentences whose extraction could
    /// have changed since their last scan (recovering mentions of
    /// late-discovered candidates in early sentences), run adjacent-pair
    /// promotion to a fixpoint, resolve the γ band, and emit final outputs.
    ///
    /// Rescan and classification shard across all available cores; outputs
    /// are bit-identical to [`Globalizer::finalize_full_rescan`] regardless
    /// of thread count or batch schedule.
    pub fn finalize(&self, state: &mut GlobalizerState) -> GlobalizerOutput {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.finalize_with_threads(state, threads)
    }

    /// [`Globalizer::finalize`] with an explicit worker-thread count.
    pub fn finalize_with_threads(
        &self,
        state: &mut GlobalizerState,
        n_threads: usize,
    ) -> GlobalizerOutput {
        self.finalize_rescanning(state, n_threads, Rescan::Dirty)
    }

    /// Brute-force reference for [`Globalizer::finalize`]: the same closing
    /// pass, but every promotion round rescans *every* live stored sentence
    /// instead of only the possibly-affected ones. Kept as the oracle the
    /// incremental selection is tested bit-identical against, and as the
    /// baseline for the `rescan` benchmark.
    pub fn finalize_full_rescan(&self, state: &mut GlobalizerState) -> GlobalizerOutput {
        self.finalize_rescanning(state, 1, Rescan::All)
    }

    /// The closing pass behind both finalize entry points: rescan and
    /// promotion to a fixpoint, γ resolution, emission, and the closing
    /// sentinel observation.
    fn finalize_rescanning(
        &self,
        state: &mut GlobalizerState,
        n_threads: usize,
        rescan: Rescan,
    ) -> GlobalizerOutput {
        let t0 = self.monitor.is_some().then(Instant::now);
        state.tally = Tally::default();
        let clock = self.open(state, TracePhase::Finalize);
        // The closing pass counts as one breaker tick: a served cooldown
        // lets finalize probe a phase that was Open at the last batch.
        self.guard_tick();
        let (n_rescanned, n_promoted) = self.close_stream(state, n_threads, rescan);
        if self.config.ablation == Ablation::Full {
            self.classify_candidates(state, true, n_threads);
        }
        let emit = self.open(state, TracePhase::Emit);
        let mut out = self.emit(state, n_rescanned, n_promoted);
        self.close(state, emit);
        self.close(state, clock);
        out.phase_timings = state.timings.clone();
        self.commit(state, t0, true);
        out
    }

    /// Convenience: run the whole pipeline over a fixed set of sentences in
    /// `batch_size`-message batches and return the final outputs along with
    /// the closing state (for error analysis).
    pub fn run(
        &self,
        sentences: &[Sentence],
        batch_size: usize,
    ) -> (GlobalizerOutput, GlobalizerState) {
        let mut state = self.new_state();
        for chunk in sentences.chunks(batch_size.max(1)) {
            self.process_batch(&mut state, chunk);
        }
        let out = self.finalize(&mut state);
        (out, state)
    }
}

/// Build pipeline state *without* classification — used to harvest
/// classifier training data (the classifier does not exist yet at that
/// point). Runs the local phase and the global rescan/pooling only.
pub fn index_stream(
    local: &dyn LocalEmd,
    phrase: Option<&PhraseEmbedder>,
    config: &GlobalizerConfig,
    sentences: &[Sentence],
) -> GlobalizerState {
    // A throwaway classifier satisfies the constructor; it is never called
    // because we stop before the classification stage.
    let dim = match phrase {
        Some(pe) if local.is_deep() => pe.out_dim(),
        _ => SyntacticClass::COUNT,
    };
    let dummy = EntityClassifier::new(dim + 1, 0);
    let g = Globalizer::new(
        local,
        phrase,
        &dummy,
        GlobalizerConfig {
            ablation: Ablation::MentionExtraction,
            ..config.clone()
        },
    );
    let mut state = g.new_state();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    g.process_batch_parallel(&mut state, sentences, threads);
    // Closing rescan (candidates discovered late may have mentions in
    // earlier sentences) + promotion, shared with `finalize`, minus the
    // classification stage.
    state.tally = Tally::default();
    g.close_stream(&mut state, threads, Rescan::Dirty);
    g.commit(&mut state, None, true);
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::LexiconEmd;
    use emd_text::token::SentenceId;

    fn sents(msgs: &[&[&str]]) -> Vec<Sentence> {
        msgs.iter()
            .enumerate()
            .map(|(i, words)| {
                Sentence::from_tokens(SentenceId::new(i as u64, 0), words.iter().copied())
            })
            .collect()
    }

    /// A classifier trained to accept everything (bias trick), so tests can
    /// isolate the mention-extraction behaviour.
    fn accept_all(dim: usize) -> EntityClassifier {
        let mut c = EntityClassifier::new(dim, 0);
        use emd_nn::param::Net;
        let params = c.params_mut();
        let last = params.into_iter().last().unwrap();
        last.value.data[0] = 100.0;
        c
    }

    fn reject_all(dim: usize) -> EntityClassifier {
        let mut c = EntityClassifier::new(dim, 0);
        use emd_nn::param::Net;
        let params = c.params_mut();
        let last = params.into_iter().last().unwrap();
        last.value.data[0] = -100.0;
        c
    }

    #[test]
    fn recovers_missed_case_variants() {
        // Local EMD knows "Coronavirus" only in proper case... simulate by a
        // lexicon that misses nothing, but the point is the rescan: use a
        // lexicon EMD that only fires on exact "Coronavirus" casing.
        #[derive(Debug)]
        struct CaseSensitiveEmd;
        impl LocalEmd for CaseSensitiveEmd {
            fn name(&self) -> &str {
                "case-sensitive"
            }
            fn embedding_dim(&self) -> Option<usize> {
                None
            }
            fn process(&self, s: &Sentence) -> crate::local::LocalEmdOutput {
                let spans = s
                    .texts()
                    .enumerate()
                    .filter(|(_, t)| *t == "Coronavirus")
                    .map(|(i, _)| Span::new(i, i + 1))
                    .collect();
                crate::local::LocalEmdOutput {
                    spans,
                    token_embeddings: None,
                }
            }
        }
        let local = CaseSensitiveEmd;
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let stream = sents(&[
            &["Coronavirus", "spreads", "fast"],
            &["CORONAVIRUS", "cases", "rise"],
            &["the", "coronavirus", "is", "here"],
        ]);
        let (out, _) = g.run(&stream, 10);
        // Local found only tweet 0's mention; global recovers all three.
        let total: usize = out.per_sentence.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, 3);
        assert_eq!(out.n_candidates, 1);
        assert_eq!(out.n_entities, 1);
    }

    #[test]
    fn classifier_filters_false_positives() {
        let local = LexiconEmd::new(["italy", "the"]); // "the" = false positive
        let clf = reject_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let stream = sents(&[&["the", "Italy", "report"]]);
        let (out, state) = g.run(&stream, 10);
        assert_eq!(out.n_candidates, 2);
        assert_eq!(
            out.n_entities, 0,
            "reject-all classifier must drop every candidate"
        );
        let total: usize = out.per_sentence.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, 0);
        // Candidates carry scores after finalize.
        for c in state.candidates.iter() {
            assert!(c.score.is_some());
            assert_eq!(c.label, CandidateLabel::NonEntity);
        }
    }

    #[test]
    fn ablation_local_only_passes_through() {
        let local = LexiconEmd::new(["italy"]);
        let clf = accept_all(7);
        let cfg = GlobalizerConfig {
            ablation: Ablation::LocalOnly,
            ..Default::default()
        };
        let g = Globalizer::new(&local, None, &clf, cfg);
        let stream = sents(&[&["Italy", "and", "ITALY"], &["nothing", "here"]]);
        let (out, _) = g.run(&stream, 10);
        // Lexicon matches case-insensitively, so 2 mentions from sentence 0.
        assert_eq!(out.per_sentence[0].1.len(), 2);
        assert_eq!(
            out.n_candidates, 0,
            "no global structures in LocalOnly mode"
        );
    }

    #[test]
    fn ablation_mention_extraction_skips_classifier() {
        #[derive(Debug)]
        struct FirstOnlyEmd;
        impl LocalEmd for FirstOnlyEmd {
            fn name(&self) -> &str {
                "first-only"
            }
            fn embedding_dim(&self) -> Option<usize> {
                None
            }
            fn process(&self, s: &Sentence) -> crate::local::LocalEmdOutput {
                // Detects "Italy" only in the first sentence it appears in
                // proper case.
                let spans = s
                    .texts()
                    .enumerate()
                    .filter(|(_, t)| *t == "Italy")
                    .map(|(i, _)| Span::new(i, i + 1))
                    .collect();
                crate::local::LocalEmdOutput {
                    spans,
                    token_embeddings: None,
                }
            }
        }
        let local = FirstOnlyEmd;
        let clf = reject_all(7); // would reject if consulted
        let cfg = GlobalizerConfig {
            ablation: Ablation::MentionExtraction,
            ..Default::default()
        };
        let g = Globalizer::new(&local, None, &clf, cfg);
        let stream = sents(&[&["Italy", "rises"], &["italy", "again"]]);
        let (out, _) = g.run(&stream, 10);
        let total: usize = out.per_sentence.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(
            total, 2,
            "mention extraction emits all candidate mentions unfiltered"
        );
    }

    #[test]
    fn parallel_batch_matches_sequential() {
        let local = LexiconEmd::new(["italy", "covid"]);
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let stream: Vec<Sentence> = (0..40)
            .map(|i| {
                Sentence::from_tokens(SentenceId::new(i, 0), ["Italy", "fights", "covid", "again"])
            })
            .collect();
        let mut s1 = g.new_state();
        g.process_batch(&mut s1, &stream);
        let out1 = g.finalize(&mut s1);
        let mut s2 = g.new_state();
        g.process_batch_parallel(&mut s2, &stream, 4);
        let out2 = g.finalize(&mut s2);
        assert_eq!(out1.per_sentence, out2.per_sentence);
    }

    /// Thread count is invisible to observability: in a fault-free run the
    /// trace (wall-clock durations aside) and every pipeline counter are
    /// the same for the batch step at 1, 2 and 4 threads and for finalize
    /// at 1 and 4 threads.
    #[test]
    fn thread_count_leaves_trace_and_counters_unchanged() {
        let local = LexiconEmd::new(["italy", "covid", "beshear", "moross"]);
        // A fresh classifier scores in the γ band, so candidates stay
        // pending until finalize.
        let clf = EntityClassifier::new(7, 3);
        let words = ["Italy", "covid", "beshear", "reports", "Moross", "news"];
        let stream: Vec<Sentence> = (0..24usize)
            .map(|i| {
                let toks = [words[i % 6], words[(i + 1) % 6], words[(i * 5 + 2) % 6]];
                Sentence::from_tokens(SentenceId::new(i as u64, 0), toks)
            })
            .collect();
        // Process-global switches; outputs are bit-identical either way.
        emd_obs::set_enabled(true);
        emd_trace::set_enabled(true);
        let run = |batch_threads: usize, finalize_threads: usize| {
            let mut g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
            let reg = emd_obs::Registry::new();
            g.set_metrics(PipelineMetrics::from_registry(&reg));
            let sink = TraceSink::with_capacity(1 << 16);
            g.set_trace(sink.clone());
            let mut state = g.new_state();
            for chunk in stream.chunks(8) {
                if batch_threads == 1 {
                    g.process_batch(&mut state, chunk);
                } else {
                    g.process_batch_parallel(&mut state, chunk, batch_threads);
                }
            }
            let out = g.finalize_with_threads(&mut state, finalize_threads);
            assert!(out.quarantined.is_empty());
            let events: Vec<TraceEvent> = sink
                .drain()
                .into_iter()
                .map(|ev| TraceEvent { dur_ns: None, ..ev })
                .collect();
            (events, g.metrics().snapshot().counters)
        };
        let base = run(1, 1);
        // Finalize leaves records and candidates for more than one shard.
        let count = |f: fn(&TraceEvent) -> bool| base.0.iter().filter(|e| f(e)).count();
        let rescanned = |e: &TraceEvent| {
            e.kind == TraceEventKind::ScanRecord && e.phase == Some(TracePhase::FinalizeRescan)
        };
        assert!(count(rescanned) >= 4);
        assert!(count(|e| e.final_verdict == Some(true)) >= 4);
        for (b, f) in [(2, 1), (4, 1), (1, 4)] {
            assert_eq!(run(b, f), base, "batch step {b} threads, finalize {f}");
        }
        emd_trace::set_enabled(false);
    }

    #[test]
    fn incremental_batches_match_single_batch() {
        let local = LexiconEmd::new(["italy", "beshear", "covid"]);
        let clf = accept_all(7);
        let stream = sents(&[
            &["Italy", "reports", "cases"],
            &["covid", "in", "italy"],
            &["Beshear", "on", "Covid"],
            &["beshear", "speaks"],
        ]);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let (out_single, _) = g.run(&stream, 100);
        let (out_batched, _) = g.run(&stream, 1);
        let a: Vec<_> = out_single
            .per_sentence
            .iter()
            .map(|(_, v)| v.clone())
            .collect();
        let b: Vec<_> = out_batched
            .per_sentence
            .iter()
            .map(|(_, v)| v.clone())
            .collect();
        assert_eq!(a, b, "batching must not change final outputs");
    }

    #[test]
    fn late_candidate_found_in_early_sentence() {
        // "Beshear" is only detected locally in the LAST sentence; the
        // finalize rescan must recover its mention in the first sentence.
        #[derive(Debug)]
        struct LastOnly;
        impl LocalEmd for LastOnly {
            fn name(&self) -> &str {
                "last-only"
            }
            fn embedding_dim(&self) -> Option<usize> {
                None
            }
            fn process(&self, s: &Sentence) -> crate::local::LocalEmdOutput {
                let spans = if s.id.tweet_id == 2 {
                    s.texts()
                        .enumerate()
                        .filter(|(_, t)| t.eq_ignore_ascii_case("beshear"))
                        .map(|(i, _)| Span::new(i, i + 1))
                        .collect()
                } else {
                    vec![]
                };
                crate::local::LocalEmdOutput {
                    spans,
                    token_embeddings: None,
                }
            }
        }
        let local = LastOnly;
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let stream = sents(&[
            &["beshear", "speaks", "today"],
            &["no", "entities", "here"],
            &["Beshear", "again"],
        ]);
        let mut state = g.new_state();
        // One batch per sentence: candidate appears only at batch 3.
        for s in &stream {
            g.process_batch(&mut state, std::slice::from_ref(s));
        }
        let out = g.finalize(&mut state);
        assert_eq!(
            out.per_sentence[0].1.len(),
            1,
            "early mention recovered at finalize"
        );
        assert_eq!(out.per_sentence[2].1.len(), 1);
    }

    #[test]
    fn index_stream_builds_candidates_without_classification() {
        let local = LexiconEmd::new(["italy"]);
        let stream = sents(&[&["Italy", "x"], &["italy", "y"]]);
        let state = index_stream(&local, None, &GlobalizerConfig::default(), &stream);
        assert_eq!(state.candidates.len(), 1);
        let rec = state.candidates.get("italy").unwrap();
        assert_eq!(rec.frequency(), 2);
        assert_eq!(rec.label, CandidateLabel::Pending);
        assert_eq!(rec.n_pooled(), 2);
    }

    #[test]
    fn partial_extraction_corrected_end_to_end() {
        // Local EMD finds the full "Andy Beshear" in tweet 0 but only
        // "Andy" in tweet 1; global output must have the full span in both.
        #[derive(Debug)]
        struct PartialEmd;
        impl LocalEmd for PartialEmd {
            fn name(&self) -> &str {
                "partial"
            }
            fn embedding_dim(&self) -> Option<usize> {
                None
            }
            fn process(&self, s: &Sentence) -> crate::local::LocalEmdOutput {
                let spans = if s.id.tweet_id == 0 {
                    vec![Span::new(0, 2)]
                } else {
                    vec![Span::new(1, 2)] // just "Andy"
                };
                crate::local::LocalEmdOutput {
                    spans,
                    token_embeddings: None,
                }
            }
        }
        let local = PartialEmd;
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let stream = sents(&[
            &["Andy", "Beshear", "talks"],
            &["gov", "Andy", "Beshear", "walks"],
        ]);
        let (out, _) = g.run(&stream, 10);
        assert!(
            out.per_sentence[1].1.contains(&Span::new(1, 3)),
            "full mention recovered"
        );
    }

    #[test]
    fn incremental_finalize_matches_full_rescan() {
        // Same ingested state, closed two ways: the incremental dirty-set
        // rescan (parallel) and the brute-force everything rescan must be
        // bit-identical — outputs, candidate set, and entity verdicts.
        let local = LexiconEmd::new(["italy", "beshear", "covid"]);
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let stream = sents(&[
            &["Italy", "reports", "covid", "cases"],
            &["nothing", "to", "see"],
            &["Beshear", "on", "Covid", "in", "italy"],
            &["beshear", "speaks", "again"],
        ]);
        let mut s1 = g.new_state();
        for s in &stream {
            g.process_batch(&mut s1, std::slice::from_ref(s));
        }
        let mut s2 = s1.clone();
        let inc = g.finalize_with_threads(&mut s1, 4);
        let full = g.finalize_full_rescan(&mut s2);
        assert_eq!(inc.per_sentence, full.per_sentence);
        assert_eq!(inc.n_candidates, full.n_candidates);
        assert_eq!(inc.n_entities, full.n_entities);
        assert_eq!(inc.n_promoted, full.n_promoted);
        let keys1: Vec<&str> = s1.candidates.iter().map(|c| c.key.as_str()).collect();
        let keys2: Vec<&str> = s2.candidates.iter().map(|c| c.key.as_str()).collect();
        assert_eq!(keys1, keys2, "candidate discovery order must match");
        for (a, b) in s1.candidates.iter().zip(s2.candidates.iter()) {
            assert_eq!(
                a.global_embedding(),
                b.global_embedding(),
                "pooled sums must match"
            );
            assert_eq!(a.mentions, b.mentions);
        }
    }

    #[test]
    fn finalize_rescans_only_affected_sentences() {
        // Candidate discovered in the last batch: only the earlier sentences
        // containing it are rescanned at close, not the stream.
        let local = LexiconEmd::new(["beshear"]);
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let stream = sents(&[
            &["beshear", "speaks", "today"],
            &["no", "entities", "here"],
            &["still", "nothing"],
            &["Beshear", "again"],
        ]);
        let mut state = g.new_state();
        for s in &stream {
            g.process_batch(&mut state, std::slice::from_ref(s));
        }
        let out = g.finalize(&mut state);
        // Sentence 0 was dirtied by the batch-3 trie insert... no — the
        // candidate "beshear" is registered at batch 0 already (local
        // detects it there), so every sentence is scanned within its own
        // batch and nothing is left dirty at close.
        assert_eq!(
            out.n_rescanned, 0,
            "no sentence can be affected by later candidates"
        );
        let total: usize = out.per_sentence.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn finalize_rescan_count_is_incremental() {
        // "beshear" only becomes a candidate at the last batch; of the three
        // earlier sentences exactly one contains the token and only that one
        // is rescanned at close.
        #[derive(Debug)]
        struct LastOnly;
        impl LocalEmd for LastOnly {
            fn name(&self) -> &str {
                "last-only"
            }
            fn embedding_dim(&self) -> Option<usize> {
                None
            }
            fn process(&self, s: &Sentence) -> crate::local::LocalEmdOutput {
                let spans = if s.id.tweet_id == 3 {
                    vec![Span::new(0, 1)]
                } else {
                    vec![]
                };
                crate::local::LocalEmdOutput {
                    spans,
                    token_embeddings: None,
                }
            }
        }
        let local = LastOnly;
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let stream = sents(&[
            &["beshear", "speaks", "today"],
            &["no", "entities", "here"],
            &["still", "nothing"],
            &["Beshear", "again"],
        ]);
        let mut state = g.new_state();
        for s in &stream {
            g.process_batch(&mut state, std::slice::from_ref(s));
        }
        let out = g.finalize(&mut state);
        assert_eq!(
            out.n_rescanned, 1,
            "only the one affected early sentence is rescanned"
        );
        assert_eq!(out.per_sentence[0].1.len(), 1, "early mention recovered");
        assert_eq!(out.per_sentence[3].1.len(), 1);
    }

    #[test]
    fn gallop_finds_the_first_entry_not_below_target() {
        let list = [2, 3, 5, 8, 13, 21, 34];
        for from in 0..=list.len() {
            for target in 0..40 {
                let want = from + list[from..].partition_point(|&x| x < target);
                assert_eq!(
                    gallop(&list, from, target),
                    want,
                    "from {from} target {target}"
                );
            }
        }
    }

    #[test]
    fn late_phrase_dirties_only_records_spelling_it() {
        // "new york" first becomes a candidate in the last batch. Of the
        // earlier records only those spelling the whole phrase, in order
        // and in any casing, may be rescanned at close: sharing its first
        // token, its last token, or both in the wrong order is not enough.
        #[derive(Debug)]
        struct LastOnly;
        impl LocalEmd for LastOnly {
            fn name(&self) -> &str {
                "last-only"
            }
            fn embedding_dim(&self) -> Option<usize> {
                None
            }
            fn process(&self, s: &Sentence) -> crate::local::LocalEmdOutput {
                let spans = if s.id.tweet_id == 5 {
                    vec![Span::new(1, 3)]
                } else {
                    vec![]
                };
                crate::local::LocalEmdOutput {
                    spans,
                    token_embeddings: None,
                }
            }
        }
        let local = LastOnly;
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let stream = sents(&[
            &["I", "love", "New", "York"],
            &["new", "jersey", "is", "near"],
            &["york", "new", "order"],
            &["something", "new"],
            &["NEW", "YORK", "rocks"],
            &["in", "New", "York", "again"],
        ]);
        let mut state = g.new_state();
        for s in &stream {
            g.process_batch(&mut state, std::slice::from_ref(s));
        }
        let dirty: Vec<usize> = state.dirty.iter().collect();
        assert_eq!(dirty, vec![0, 4], "only records 0 and 4 await a rescan");
        let out = g.finalize(&mut state);
        assert_eq!(out.n_rescanned, 2, "records 0 and 4 only");
        let spans: Vec<&[Span]> = out.per_sentence.iter().map(|(_, v)| &v[..]).collect();
        assert_eq!(
            spans,
            vec![
                &[Span::new(2, 4)][..],
                &[],
                &[],
                &[],
                &[Span::new(0, 2)],
                &[Span::new(1, 3)],
            ]
        );
    }

    #[test]
    fn adjacent_fragments_promoted_to_full_candidate() {
        // The local system only ever detects the fragments "moross" and
        // "lumsa", never the bigram. With enough adjacency support the
        // promotion pass must recover the full two-token mention.
        let local = LexiconEmd::new(["moross", "lumsa"]);
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let stream = sents(&[
            &["Moross", "Lumsa", "quarantined"],
            &["cases", "at", "Moross", "Lumsa", "rise"],
            &["Moross", "Lumsa", "closed"],
        ]);
        let (out, state) = g.run(&stream, 10);
        assert_eq!(out.n_promoted, 1);
        assert!(state
            .ctrie
            .contains(state.tweetbase.interner(), &["moross", "lumsa"]));
        assert_eq!(out.per_sentence[0].1, vec![Span::new(0, 2)]);
        assert_eq!(out.per_sentence[1].1, vec![Span::new(2, 4)]);
        assert_eq!(out.per_sentence[2].1, vec![Span::new(0, 2)]);
        // The promoted candidate pooled one embedding per recovered mention.
        let promoted = state.candidates.get("moross lumsa").unwrap();
        assert_eq!(promoted.frequency(), 3);
        assert_eq!(promoted.n_pooled(), 3);
    }

    /// The coverage gauge counts each rescanned record once. The oracle
    /// rescans all three records in each of its two rounds (one
    /// promotion): six scans, full coverage.
    #[test]
    fn rescan_coverage_counts_distinct_records() {
        let local = LexiconEmd::new(["moross", "lumsa"]);
        let clf = accept_all(7);
        let stream = sents(&[
            &["Moross", "Lumsa", "quarantined"],
            &["cases", "at", "Moross", "Lumsa", "rise"],
            &["Moross", "Lumsa", "closed"],
        ]);
        emd_obs::set_enabled(true);
        let coverage = |oracle: bool| {
            let mut g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
            let reg = emd_obs::Registry::new();
            g.set_metrics(PipelineMetrics::from_registry(&reg));
            let mut state = g.new_state();
            g.process_batch(&mut state, &stream);
            let out = if oracle {
                g.finalize_full_rescan(&mut state)
            } else {
                g.finalize(&mut state)
            };
            assert_eq!(out.n_promoted, 1);
            (out.n_rescanned, g.metrics().rescan_coverage.get())
        };
        assert_eq!(coverage(true), (6, 1.0));
        let (_, incremental) = coverage(false);
        assert!(incremental > 0.0 && incremental <= 1.0, "{incremental}");
    }

    #[test]
    fn rare_adjacency_not_promoted() {
        // One incidental adjacency is far below the default support of 3:
        // the fragments stay separate candidates.
        let local = LexiconEmd::new(["italy", "canada"]);
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let stream = sents(&[
            &["Italy", "Canada", "trade"],
            &["Italy", "alone"],
            &["Canada", "alone"],
        ]);
        let (out, state) = g.run(&stream, 10);
        assert_eq!(out.n_promoted, 0);
        assert!(!state
            .ctrie
            .contains(state.tweetbase.interner(), &["italy", "canada"]));
        assert_eq!(
            out.per_sentence[0].1,
            vec![Span::new(0, 1), Span::new(1, 2)]
        );
    }

    #[test]
    fn promotion_disabled_by_zero_support() {
        let local = LexiconEmd::new(["moross", "lumsa"]);
        let clf = accept_all(7);
        let cfg = GlobalizerConfig {
            promotion_support: 0,
            ..Default::default()
        };
        let g = Globalizer::new(&local, None, &clf, cfg);
        let stream = sents(&[
            &["Moross", "Lumsa", "quarantined"],
            &["Moross", "Lumsa", "rises"],
            &["Moross", "Lumsa", "closed"],
        ]);
        let (out, _) = g.run(&stream, 10);
        assert_eq!(out.n_promoted, 0);
        assert_eq!(
            out.per_sentence[0].1,
            vec![Span::new(0, 1), Span::new(1, 2)]
        );
    }

    #[test]
    fn out_of_bounds_local_spans_dropped_at_ingestion() {
        // A misbehaving local system emits spans past the end of the
        // sentence and empty spans. They must be dropped once at ingestion:
        // not panic the rescan, not appear in LocalOnly outputs, not count
        // as locally-detected evidence.
        #[derive(Debug)]
        struct Misbehaving;
        impl LocalEmd for Misbehaving {
            fn name(&self) -> &str {
                "misbehaving"
            }
            fn embedding_dim(&self) -> Option<usize> {
                None
            }
            fn process(&self, s: &Sentence) -> crate::local::LocalEmdOutput {
                // Struct literals: `Span::new` debug-asserts non-emptiness,
                // and the point here is smuggling invalid spans past the
                // local system boundary.
                crate::local::LocalEmdOutput {
                    spans: vec![
                        Span { start: 0, end: 1 }, // valid
                        Span {
                            start: 1,
                            end: s.len() + 3,
                        }, // out of bounds
                        Span { start: 2, end: 2 }, // empty
                        Span {
                            start: s.len(),
                            end: s.len() + 1,
                        }, // fully past the end
                    ],
                    token_embeddings: None,
                }
            }
        }
        let local = Misbehaving;
        let clf = accept_all(7);
        for ablation in [
            Ablation::LocalOnly,
            Ablation::MentionExtraction,
            Ablation::Full,
        ] {
            let cfg = GlobalizerConfig {
                ablation,
                ..Default::default()
            };
            let g = Globalizer::new(&local, None, &clf, cfg);
            let stream = sents(&[&["Italy", "reports", "cases"]]);
            let (out, state) = g.run(&stream, 10);
            assert_eq!(
                out.per_sentence[0].1,
                vec![Span::new(0, 1)],
                "only the valid span survives under {ablation:?}"
            );
            if ablation != Ablation::LocalOnly {
                let rec = state.candidates.get("italy").unwrap();
                assert!(rec.mentions.iter().all(|m| m.locally_detected));
            }
        }
    }

    /// A local system that panics (injected-fault payload, so the quiet
    /// hook suppresses the backtrace) on selected tweet ids, from the
    /// `fail_on_attempt`-th attempt per sentence onward (1-based; 1 =
    /// always fails).
    #[derive(Debug)]
    struct PanickyEmd {
        fail_tweet: u64,
        fail_until_attempt: usize,
        calls: std::sync::Mutex<std::collections::HashMap<u64, usize>>,
    }

    impl PanickyEmd {
        fn new(fail_tweet: u64, fail_until_attempt: usize) -> PanickyEmd {
            emd_resilience::failpoint::install_quiet_hook();
            PanickyEmd {
                fail_tweet,
                fail_until_attempt,
                calls: std::sync::Mutex::new(std::collections::HashMap::new()),
            }
        }
    }

    impl LocalEmd for PanickyEmd {
        fn name(&self) -> &str {
            "panicky"
        }
        fn embedding_dim(&self) -> Option<usize> {
            None
        }
        fn process(&self, s: &Sentence) -> crate::local::LocalEmdOutput {
            if s.id.tweet_id == self.fail_tweet {
                let should_fail = {
                    // Recover the lock if a previous attempt's panic
                    // poisoned it — the counter itself is never torn.
                    let mut calls = self
                        .calls
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    let n = calls.entry(s.id.tweet_id).or_insert(0);
                    *n += 1;
                    *n <= self.fail_until_attempt
                };
                if should_fail {
                    emd_resilience::failpoint::panic_injected("test_local");
                }
            }
            let spans = s
                .texts()
                .enumerate()
                .filter(|(_, t)| t.eq_ignore_ascii_case("italy"))
                .map(|(i, _)| Span::new(i, i + 1))
                .collect();
            crate::local::LocalEmdOutput {
                spans,
                token_embeddings: None,
            }
        }
    }

    #[test]
    fn persistently_panicking_sentence_is_quarantined() {
        // Tweet 1's local inference panics on every attempt: the sentence
        // must land in the dead-letter buffer, the rest of the stream must
        // come through untouched.
        let local = PanickyEmd::new(1, usize::MAX);
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let stream = sents(&[
            &["Italy", "reports", "cases"],
            &["italy", "poisoned", "message"],
            &["ITALY", "again"],
        ]);
        let (out, state) = g.run(&stream, 10);
        let sids: Vec<u64> = out.per_sentence.iter().map(|(s, _)| s.tweet_id).collect();
        assert_eq!(sids, vec![0, 2], "quarantined sentence not emitted");
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(out.quarantined[0].sid, SentenceId::new(1, 0));
        assert_eq!(
            out.quarantined[0].phase,
            emd_resilience::PipelinePhase::LocalInference
        );
        assert_eq!(state.n_quarantined(), 1);
        // The surviving sentences still go through the full pipeline.
        assert_eq!(out.per_sentence[0].1, vec![Span::new(0, 1)]);
        assert_eq!(out.per_sentence[1].1, vec![Span::new(0, 1)]);
    }

    #[test]
    fn transient_panic_is_retried_not_quarantined() {
        // Tweet 1 fails exactly once; the default budget of one retry
        // recovers it, so the output is identical to a fault-free run.
        let local = PanickyEmd::new(1, 1);
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let stream = sents(&[&["Italy", "one"], &["italy", "two"], &["ITALY", "three"]]);
        let (out, _) = g.run(&stream, 10);
        assert!(out.quarantined.is_empty());
        assert_eq!(out.per_sentence.len(), 3);
        for (_, spans) in &out.per_sentence {
            assert_eq!(spans, &vec![Span::new(0, 1)]);
        }
    }

    #[test]
    fn zero_retry_budget_quarantines_on_first_panic() {
        let local = PanickyEmd::new(1, 1);
        let clf = accept_all(7);
        let cfg = GlobalizerConfig {
            poison_retries: 0,
            ..Default::default()
        };
        let g = Globalizer::new(&local, None, &clf, cfg);
        let stream = sents(&[&["Italy", "one"], &["italy", "two"]]);
        let (out, _) = g.run(&stream, 10);
        assert_eq!(out.quarantined.len(), 1, "no retry with a zero budget");
    }

    #[test]
    fn parallel_local_phase_quarantines_identically() {
        // The same poison sentence, processed on the sequential and the
        // sharded local phase: outputs and quarantine logs must match.
        let clf = accept_all(7);
        let stream = sents(&[
            &["Italy", "a"],
            &["italy", "b"],
            &["ITALY", "c"],
            &["italy", "d"],
        ]);
        let run = |threads: Option<usize>| {
            let local = PanickyEmd::new(2, usize::MAX);
            let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
            let mut state = g.new_state();
            match threads {
                None => g.process_batch(&mut state, &stream),
                Some(t) => g.process_batch_parallel(&mut state, &stream, t),
            }
            g.finalize(&mut state)
        };
        let seq = run(None);
        let par = run(Some(3));
        assert_eq!(seq.per_sentence, par.per_sentence);
        assert_eq!(seq.quarantined, par.quarantined);
        assert_eq!(seq.quarantined.len(), 1);
    }

    #[test]
    fn oversized_token_quarantined_at_ingest() {
        let local = LexiconEmd::new(["italy"]);
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let big = "x".repeat(emd_resilience::validate::MAX_TOKEN_BYTES + 1);
        let stream = vec![
            Sentence::from_tokens(SentenceId::new(0, 0), ["Italy", "fine"]),
            Sentence::from_tokens(SentenceId::new(1, 0), ["Italy", big.as_str()]),
        ];
        let (out, _) = g.run(&stream, 10);
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(out.quarantined[0].sid, SentenceId::new(1, 0));
        assert_eq!(
            out.quarantined[0].phase,
            emd_resilience::PipelinePhase::Ingest
        );
        assert_eq!(out.per_sentence.len(), 1);
    }

    #[test]
    fn degraded_candidate_falls_back_to_local_detections() {
        // "Coronavirus" is detected locally only in proper case; the
        // global rescan recovers the ALL-CAPS mention. When the candidate
        // is degraded (its classifier verdict unreliable), emission must
        // fall back to the locally detected span only.
        #[derive(Debug)]
        struct CaseSensitiveEmd;
        impl LocalEmd for CaseSensitiveEmd {
            fn name(&self) -> &str {
                "case-sensitive"
            }
            fn embedding_dim(&self) -> Option<usize> {
                None
            }
            fn process(&self, s: &Sentence) -> crate::local::LocalEmdOutput {
                let spans = s
                    .texts()
                    .enumerate()
                    .filter(|(_, t)| *t == "Coronavirus")
                    .map(|(i, _)| Span::new(i, i + 1))
                    .collect();
                crate::local::LocalEmdOutput {
                    spans,
                    token_embeddings: None,
                }
            }
        }
        let local = CaseSensitiveEmd;
        let clf = accept_all(7);
        let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let stream = sents(&[&["Coronavirus", "spreads"], &["CORONAVIRUS", "rises"]]);
        let (mut state, out) = {
            let mut state = g.new_state();
            g.process_batch(&mut state, &stream);
            let out = g.finalize(&mut state);
            (state, out)
        };
        // Healthy run: both mentions emitted.
        let total: usize = out.per_sentence.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, 2);
        assert_eq!(out.n_degraded, 0);
        // Degrade the candidate and re-emit: only the local detection
        // survives.
        state.candidates.get_mut("coronavirus").unwrap().degraded = true;
        let out = g.emit(&state, 0, 0);
        assert_eq!(out.n_degraded, 1);
        assert_eq!(out.per_sentence[0].1, vec![Span::new(0, 1)]);
        assert_eq!(out.per_sentence[1].1, Vec::<Span>::new());
    }

    #[test]
    fn windowed_run_evicts_and_stays_bounded() {
        let local = LexiconEmd::new(["italy"]);
        let clf = accept_all(7);
        let cfg = GlobalizerConfig {
            window: crate::config::WindowConfig::sliding(4),
            ..Default::default()
        };
        let mut g = Globalizer::new(&local, None, &clf, cfg);
        // Recording is process-global and off by default; flip it on (and
        // leave it on — the pipeline is bit-identical either way) so the
        // private registry actually sees the window counters.
        emd_obs::set_enabled(true);
        let reg = emd_obs::Registry::new();
        g.set_metrics(PipelineMetrics::from_registry(&reg));
        let msgs: Vec<Vec<&str>> = (0..12).map(|_| vec!["Italy", "reports"]).collect();
        let msgs: Vec<&[&str]> = msgs.iter().map(|v| v.as_slice()).collect();
        let stream = sents(&msgs);
        let mut state = g.new_state();
        for chunk in stream.chunks(2) {
            g.process_batch(&mut state, chunk);
            assert!(
                state.tweetbase.len() <= 4,
                "window ceiling must hold after every batch"
            );
        }
        assert_eq!(state.n_evicted(), 8);
        let out = g.finalize(&mut state);
        // The final output covers the live window; evicted sentences were
        // already fully scanned (their pool contributions persist).
        assert_eq!(out.per_sentence.len(), 4);
        let sids: Vec<u64> = out.per_sentence.iter().map(|(s, _)| s.tweet_id).collect();
        assert_eq!(sids, vec![8, 9, 10, 11]);
        for (_, spans) in &out.per_sentence {
            assert_eq!(spans, &vec![Span::new(0, 1)]);
        }
        // Pooled evidence from evicted mentions is retained.
        assert_eq!(state.candidates.get("italy").unwrap().frequency(), 12);
        let snap = g.metrics().snapshot();
        assert_eq!(snap.counter("emd_window_evicted_records_total"), Some(8));
        assert_eq!(snap.gauge("emd_window_depth"), Some(4.0));
    }

    #[test]
    fn oversized_window_matches_unbounded_run() {
        let local = LexiconEmd::new(["italy", "virus"]);
        let clf = accept_all(7);
        let stream = sents(&[
            &["Italy", "reports", "virus"],
            &["the", "virus", "spreads"],
            &["ITALY", "closes"],
        ]);
        let unbounded = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
        let windowed = Globalizer::new(
            &local,
            None,
            &clf,
            GlobalizerConfig {
                window: crate::config::WindowConfig::sliding(1000),
                ..Default::default()
            },
        );
        let (a, _) = unbounded.run(&stream, 1);
        let (b, _) = windowed.run(&stream, 1);
        assert_eq!(a.per_sentence, b.per_sentence);
        assert_eq!(a.n_candidates, b.n_candidates);
        assert_eq!(a.n_entities, b.n_entities);
    }

    #[test]
    fn frozen_adjacency_preserves_promotion_across_eviction() {
        // "Moross Lumsa" is only ever detected in fragments. Most of the
        // supporting sentences are evicted before finalize; the frozen
        // ledger must keep the adjacency evidence alive so the promotion
        // still fires.
        let local = LexiconEmd::new(["moross", "lumsa"]);
        let clf = accept_all(7);
        let cfg = GlobalizerConfig {
            window: crate::config::WindowConfig::sliding(2),
            ..Default::default()
        };
        let g = Globalizer::new(&local, None, &clf, cfg);
        let msgs: Vec<Vec<&str>> = (0..6).map(|_| vec!["Moross", "Lumsa", "speaks"]).collect();
        let msgs: Vec<&[&str]> = msgs.iter().map(|v| v.as_slice()).collect();
        let stream = sents(&msgs);
        let mut state = g.new_state();
        for chunk in stream.chunks(2) {
            g.process_batch(&mut state, chunk);
        }
        assert_eq!(state.n_evicted(), 4);
        assert!(
            !state.frozen_adjacency.is_empty(),
            "evicted adjacency evidence must be frozen"
        );
        let out = g.finalize(&mut state);
        assert_eq!(out.n_promoted, 1, "promotion survives eviction");
        // Live sentences re-emit the merged mention.
        for (_, spans) in &out.per_sentence {
            assert_eq!(spans, &vec![Span::new(0, 2)]);
        }
    }

    #[test]
    fn eviction_never_resurrects_a_quarantined_sentence() {
        let local = LexiconEmd::new(["italy"]);
        let clf = accept_all(7);
        let cfg = GlobalizerConfig {
            window: crate::config::WindowConfig::sliding(2),
            ..Default::default()
        };
        let g = Globalizer::new(&local, None, &clf, cfg);
        let big = "x".repeat(emd_resilience::validate::MAX_TOKEN_BYTES + 1);
        let poison = Sentence::from_tokens(SentenceId::new(1, 0), ["Italy", big.as_str()]);
        let mut stream = vec![
            Sentence::from_tokens(SentenceId::new(0, 0), ["Italy", "fine"]),
            poison,
        ];
        for i in 2..6u64 {
            stream.push(Sentence::from_tokens(
                SentenceId::new(i, 0),
                ["Italy", "again"],
            ));
        }
        // A clean-looking replay of the quarantined id, long after every
        // record from its era has been evicted.
        stream.push(Sentence::from_tokens(
            SentenceId::new(1, 0),
            ["Italy", "replayed"],
        ));
        let mut state = g.new_state();
        for chunk in stream.chunks(2) {
            g.process_batch(&mut state, chunk);
        }
        let out = g.finalize(&mut state);
        assert!(
            out.per_sentence.iter().all(|(s, _)| s.tweet_id != 1),
            "a quarantined sentence id must never re-enter the output"
        );
        assert_eq!(out.quarantined.len(), 2);
        assert!(out.quarantined[1].reason.contains("previously quarantined"));
    }

    #[test]
    fn long_windowed_run_compacts_and_prunes() {
        let local = LexiconEmd::new(["italy", "oddity"]);
        // Reject-all: an Entity verdict pins a candidate forever, so use
        // the classifier that leaves everything non-entity to expose the
        // frequency-decay pruning path.
        let clf = reject_all(7);
        let cfg = GlobalizerConfig {
            window: crate::config::WindowConfig::sliding(2),
            ..Default::default()
        };
        let mut g = Globalizer::new(&local, None, &clf, cfg);
        emd_obs::set_enabled(true);
        let reg = emd_obs::Registry::new();
        g.set_metrics(PipelineMetrics::from_registry(&reg));
        // "Oddity" appears once at the very start (frequency 1); every
        // later sentence mentions only "Italy". Once the oddity sentence
        // is evicted the candidate is cold and must be pruned, CTrie path
        // included.
        let mut stream = vec![Sentence::from_tokens(
            SentenceId::new(0, 0),
            ["Oddity", "here"],
        )];
        for i in 1..20u64 {
            stream.push(Sentence::from_tokens(
                SentenceId::new(i, 0),
                ["Italy", "reports"],
            ));
        }
        let mut state = g.new_state();
        for chunk in stream.chunks(2) {
            g.process_batch(&mut state, chunk);
        }
        assert!(
            state.candidates.get("oddity").is_none(),
            "cold candidate pruned"
        );
        assert!(
            state.candidates.get("italy").is_some(),
            "hot candidate kept"
        );
        assert!(
            !state
                .ctrie
                .contains(state.tweetbase.interner(), &["oddity"]),
            "CTrie path removed"
        );
        assert!(state.ctrie.contains(state.tweetbase.interner(), &["italy"]));
        // Tombstones never exceed the live count by more than one batch.
        assert!(
            state.tweetbase.n_slots() <= 2 * state.tweetbase.len() + 2,
            "compaction keeps the slot vector dense (slots={}, live={})",
            state.tweetbase.n_slots(),
            state.tweetbase.len()
        );
        let snap = g.metrics().snapshot();
        assert!(snap.counter("emd_window_compactions_total").unwrap() > 0);
        assert!(snap.counter("emd_window_pruned_candidates_total").unwrap() > 0);
        let out = g.finalize(&mut state);
        assert_eq!(out.per_sentence.len(), 2);
    }
}
