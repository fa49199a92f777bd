//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions: name, start, end, parent span and op id.
//! Counters come from an isolated [`CounterScope`] around the call, so
//! they are exact per call. Nothing is written until the run ends.

use rtise::obs::json::Value;
use rtise::obs::CounterScope;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times in microseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified span name, e.g. `select.edf`.
    pub name: &'static str,
    /// Start, µs.
    pub start_us: f64,
    /// End, µs.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub op: u64,
}

impl Span {
    fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Per-layer roll-up of one span name.
#[derive(Debug, Clone, Default)]
pub struct LayerStat {
    /// Spans recorded.
    pub calls: u64,
    /// Summed duration, µs.
    pub total_us: f64,
    /// Summed duration minus time covered by child spans, µs.
    pub self_us: f64,
}

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counters: BTreeMap<(&'static str, String), u64>,
}

impl Tracer {
    /// An empty recorder whose clock starts at `epoch`.
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            enabled: true,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// A recorder that records nothing: the untraced code path.
    #[must_use]
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new(Instant::now())
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) {
        if !self.enabled {
            return;
        }
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.stack.pop().expect("end without begin");
        self.spans[idx].end_us = self.now_us();
    }

    /// Records a span measured elsewhere, starting at `start` and lasting
    /// `dur_s` seconds; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        start: Instant,
        dur_s: f64,
        parent: Option<usize>,
    ) -> usize {
        let start_us = start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us + dur_s * 1e6,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Records `f` as one span (or just runs it when disabled).
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, op);
        let out = f();
        self.end();
        out
    }

    /// Records `f` as one span and charges the counters it records,
    /// read through an isolated scope, to that span name.
    pub fn counted<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        self.charge(name, |t| t.time(name, op, f))
    }

    /// Runs `f` and charges the counters it records, read through an
    /// isolated scope, to span name `name`; records no span itself.
    pub fn charge<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let scope = CounterScope::new();
        let out = {
            let _iso = rtise::obs::registry::isolate();
            let _guard = scope.enter();
            f(self)
        };
        for (k, v) in scope.counters() {
            *self.counters.entry((name, k)).or_insert(0) += v;
        }
        out
    }

    /// Index of the innermost open span, for [`Tracer::record`].
    #[must_use]
    pub fn current(&self) -> Option<usize> {
        self.stack.last().copied()
    }

    /// Adds `value` to counter `key` of span name `span`, for counts the
    /// benchmark derives from a call's output.
    pub fn add(&mut self, span: &'static str, key: &str, value: u64) {
        if self.enabled {
            *self.counters.entry((span, key.to_string())).or_insert(0) += value;
        }
    }

    /// Appends another recorder's spans and counters (clocks must share
    /// an epoch).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
    }

    /// Per span, the summed duration of its child spans, µs.
    fn child_us(&self) -> Vec<f64> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.dur_us();
            }
        }
        child_us
    }

    /// Per-name roll-up with self time.
    #[must_use]
    pub fn layers(&self) -> BTreeMap<&'static str, LayerStat> {
        let child_us = self.child_us();
        let mut out: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_us) {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.total_us += s.dur_us();
            e.self_us += s.dur_us() - child;
        }
        out
    }

    /// Mean duration per `name` span, in µs (0 when never recorded).
    #[must_use]
    pub fn mean_us(&self, name: &str) -> f64 {
        self.layers()
            .get(name)
            .map_or(0.0, |l| l.total_us / l.calls as f64)
    }

    /// Counter `key` summed over `span` spans, and that span count.
    #[must_use]
    pub fn counter(&self, span: &'static str, key: &str) -> (u64, u64) {
        let total = self
            .counters
            .get(&(span, key.to_string()))
            .copied()
            .unwrap_or(0);
        let calls = self.layers().get(span).map_or(0, |l| l.calls);
        (total, calls)
    }

    /// Share of the wall time of `root` spans covered by their child
    /// spans, in percent.
    #[must_use]
    pub fn coverage_pct(&self, root: &str) -> f64 {
        let (mut under, mut total) = (0.0, 0.0);
        for (s, c) in self.spans.iter().zip(self.child_us()) {
            if s.name == root {
                under += c;
                total += s.dur_us();
            }
        }
        if total > 0.0 {
            100.0 * under / total
        } else {
            0.0
        }
    }

    /// The whole recording: spans, per-layer roll-up and counters.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::obj(vec![
                    ("name", s.name.into()),
                    ("start_us", Value::Num(s.start_us)),
                    ("end_us", Value::Num(s.end_us)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| (p as u64).into()),
                    ),
                    ("op", s.op.into()),
                ])
            })
            .collect();
        let layers = self
            .layers()
            .into_iter()
            .map(|(name, l)| {
                Value::obj(vec![
                    ("name", name.into()),
                    ("calls", l.calls.into()),
                    ("total_us", Value::Num(l.total_us)),
                    ("self_us", Value::Num(l.self_us)),
                ])
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|((span, key), v)| {
                Value::obj(vec![
                    ("span", (*span).into()),
                    ("counter", key.as_str().into()),
                    ("total", (*v).into()),
                ])
            })
            .collect();
        Value::obj(vec![
            ("spans", Value::Arr(spans)),
            ("layers", Value::Arr(layers)),
            ("counters", Value::Arr(counters)),
        ])
    }
}
