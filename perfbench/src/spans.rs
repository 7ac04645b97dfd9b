//! Spans recorded from outside the program: a `LocalEmd` wrapper that
//! times every call into the local layer, and a span log for the calls
//! the harness makes itself (`process_batch`, `finalize`, the supervisor's
//! `run`). Everything stays in memory until the run ends.

use emd_core::local::{LocalEmd, LocalEmdOutput};
use emd_text::token::{Sentence, SentenceId};
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span, in nanoseconds since the pass started.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn interval(&self) -> (u64, u64) {
        (self.start, self.end)
    }
}

/// Nanoseconds since `epoch`.
pub fn since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Wraps a local system and times calls into it.
///
/// Two recording levels: `per_call` keeps a span for every `process`
/// call (the traced run); otherwise only the start of the first call of
/// each batch and the end of the stream's last call are kept, which is
/// what per-batch latency needs when the batch loop runs inside the
/// supervisor, out of the harness's sight.
pub struct TimedLocal<'a> {
    inner: &'a dyn LocalEmd,
    epoch: Instant,
    per_call: bool,
    /// First sentence id of every batch, in stream order.
    batch_firsts: Vec<SentenceId>,
    next_first: AtomicUsize,
    last_id: Option<SentenceId>,
    first_starts: Mutex<Vec<u64>>,
    last_end: AtomicU64,
    calls: Mutex<Vec<Span>>,
}

impl<'a> TimedLocal<'a> {
    pub fn new(
        inner: &'a dyn LocalEmd,
        stream: &[Sentence],
        batch: usize,
        epoch: Instant,
        per_call: bool,
    ) -> TimedLocal<'a> {
        TimedLocal {
            inner,
            epoch,
            per_call,
            batch_firsts: stream.chunks(batch).map(|c| c[0].id).collect(),
            next_first: AtomicUsize::new(0),
            last_id: stream.last().map(|s| s.id),
            first_starts: Mutex::new(Vec::new()),
            last_end: AtomicU64::new(0),
            calls: Mutex::new(Vec::new()),
        }
    }

    /// Start times of the first local call of each batch.
    pub fn batch_starts(&self) -> Vec<u64> {
        self.first_starts.lock().expect("span log poisoned").clone()
    }

    /// End of the call on the stream's last sentence.
    pub fn last_end(&self) -> u64 {
        self.last_end.load(Ordering::Relaxed)
    }

    /// Every call span (empty unless `per_call`).
    pub fn calls(&self) -> Vec<Span> {
        self.calls.lock().expect("span log poisoned").clone()
    }
}

impl LocalEmd for TimedLocal<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn embedding_dim(&self) -> Option<usize> {
        self.inner.embedding_dim()
    }

    fn process(&self, sentence: &Sentence) -> LocalEmdOutput {
        let k = self.next_first.load(Ordering::Relaxed);
        let first = self.batch_firsts.get(k) == Some(&sentence.id);
        let start = (first || self.per_call).then(|| since(self.epoch));
        if let (true, Some(t)) = (first, start) {
            self.next_first.store(k + 1, Ordering::Relaxed);
            self.first_starts.lock().expect("span log poisoned").push(t);
        }
        let out = self.inner.process(sentence);
        let last = self.last_id == Some(sentence.id);
        if self.per_call || last {
            let end = since(self.epoch);
            if last {
                self.last_end.store(end, Ordering::Relaxed);
            }
            if let Some(start) = start.filter(|_| self.per_call) {
                self.calls.lock().expect("span log poisoned").push(Span {
                    name: "local.process",
                    start,
                    end,
                });
            }
        }
        out
    }
}

/// Write spans as JSON lines: id, parent id (the innermost earlier span
/// whose interval contains it), name, start and end in nanoseconds.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // Parents first: earlier start, and the longer span on a tie.
    order.sort_by_key(|&i| (spans[i].start, std::cmp::Reverse(spans[i].end)));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut open: Vec<(usize, u64)> = Vec::new();
    for (id, &i) in order.iter().enumerate() {
        let s = spans[i];
        while open
            .last()
            .is_some_and(|&(_, end)| end < s.end || end <= s.start)
        {
            open.pop();
        }
        let parent = open
            .last()
            .map_or("null".to_string(), |(p, _)| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.start, s.end
        )?;
        open.push((id, s.end));
    }
    out.flush()
}
