//! Timing and tracing around the public layer calls.
//!
//! Every layer call a flow makes goes through [`Recorder::time`] or
//! [`Recorder::call`], which always adds the call's wall time to its
//! layer's busy time (the end-to-end rates need it) and, in a traced
//! repetition, also keeps a span in memory. Spans are written out once,
//! when the benchmark ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval: a repetition, or a layer call inside one.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Span {
    /// Layer (or `rep` for the repetition itself).
    pub name: String,
    /// Seconds since the recorder started.
    pub start_s: f64,
    /// Seconds since the recorder started.
    pub end_s: f64,
    /// Index of the enclosing span in the span list.
    pub parent: Option<u64>,
    /// Repetition index (0 is the untimed warm-up).
    pub rep: u64,
}

/// What one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct RepRecord {
    /// Whether spans were kept for this repetition.
    pub traced: bool,
    /// Wall time of the whole repetition.
    pub wall_s: f64,
    /// Busy time per layer.
    pub busy: BTreeMap<&'static str, f64>,
    /// Self time per layer (and `rep`), from the spans; traced only.
    pub self_s: BTreeMap<String, f64>,
    /// Deterministic counts: a change in any of them between two
    /// repetitions of one seed is a behaviour change, not noise.
    pub counts: BTreeMap<&'static str, f64>,
    /// Operations attempted: layer calls, injection runs, sweep grid
    /// points and tally comparisons.
    pub attempted: u64,
    /// Operations that failed (see README "failed operations").
    pub failed: u64,
    /// Output checks that did not hold, one line each.
    pub problems: Vec<String>,
}

/// Collects busy times, counts, and (when tracing) spans.
pub struct Recorder {
    origin: Instant,
    rep: u64,
    rep_start: Instant,
    rep_span: Option<usize>,
    /// Every span kept so far, in start order.
    pub spans: Vec<Span>,
    /// The repetition being recorded.
    pub cur: RepRecord,
}

impl Recorder {
    pub fn new() -> Self {
        let now = Instant::now();
        Recorder {
            origin: now,
            rep: 0,
            rep_start: now,
            rep_span: None,
            spans: Vec::new(),
            cur: RepRecord::default(),
        }
    }

    fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Start repetition `rep`, keeping spans if `traced`.
    pub fn begin_rep(&mut self, rep: u64, traced: bool) {
        self.rep = rep;
        self.cur = RepRecord {
            traced,
            ..RepRecord::default()
        };
        self.rep_span = traced.then(|| {
            self.spans.push(Span {
                name: "rep".to_string(),
                start_s: self.now_s(),
                end_s: 0.0,
                parent: None,
                rep,
            });
            self.spans.len() - 1
        });
        self.rep_start = Instant::now();
    }

    /// Close the repetition and return what it measured.
    pub fn end_rep(&mut self) -> RepRecord {
        self.cur.wall_s = self.rep_start.elapsed().as_secs_f64();
        if let Some(i) = self.rep_span.take() {
            self.spans[i].end_s = self.now_s();
            self.cur.self_s = self_times(&self.spans, self.rep);
        }
        std::mem::take(&mut self.cur)
    }

    /// Time one infallible layer call.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start_s = self.now_s();
        let t = Instant::now();
        let out = f();
        *self.cur.busy.entry(layer).or_default() += t.elapsed().as_secs_f64();
        self.cur.attempted += 1;
        if let Some(parent) = self.rep_span {
            self.spans.push(Span {
                name: layer.to_string(),
                start_s,
                end_s: self.now_s(),
                parent: Some(parent as u64),
                rep: self.rep,
            });
        }
        out
    }

    /// Time one fallible layer call; a typed error counts as a failed
    /// operation and is passed on.
    pub fn call<T, E: std::fmt::Display>(
        &mut self,
        layer: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, String> {
        self.time(layer, f).map_err(|e| {
            self.cur.failed += 1;
            format!("{layer}: {e}")
        })
    }

    /// Add `n` to a deterministic count.
    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.cur.counts.entry(name).or_default() += n;
    }

    /// Set a deterministic count.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.cur.counts.insert(name, v);
    }

    /// Record an output check; a failed check is a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.cur.attempted += 1;
        if !ok {
            self.cur.failed += 1;
            self.cur.problems.push(what());
        }
    }
}

/// Self time of every span of repetition `rep`, summed per name: a
/// span's duration minus the part of it that its children cover.
fn self_times(spans: &[Span], rep: u64) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (i, span) in spans.iter().enumerate().filter(|(_, s)| s.rep == rep) {
        let mut children: Vec<(f64, f64)> = spans
            .iter()
            .filter(|c| c.rep == rep && c.parent == Some(i as u64))
            .map(|c| (c.start_s, c.end_s))
            .collect();
        children.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = span.start_s;
        for (s, e) in children {
            let (s, e) = (s.max(reach), e.min(span.end_s));
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        *out.entry(span.name.clone()).or_default() += (span.end_s - span.start_s) - covered;
    }
    out
}
