//! The traced mode: timing wrappers over three public seams of the program
//! (`Executor`, `TraceEvaluator`, `ShardClient`) plus explicit spans around
//! the benchmark's own calls into each crate.
//!
//! Every traced call opens a span on a thread-local stack.  A span's self
//! time is its duration minus the time of the spans it encloses, so stacked
//! layers (fleet → shard client → service) each report only their own work.
//! A span costs time of its own: part of it (one clock read) falls inside
//! its measured interval, the rest (stack push and pop, layer lookup,
//! totals) outside it, in its parent's.  Both parts are measured once, when
//! tracing is first switched on; the inside part is taken off every span's
//! duration, the outside part off the parent's self time, and for spans
//! with a parent both are kept apart as the tracer's bookkeeping time.
//! Per-layer totals are kept for every span; low-frequency spans (one op, one
//! publish, one compile) are also kept individually, in memory, and written
//! out as JSON lines when the run ends.  High-frequency spans (one per
//! executor call or shard attempt) only feed the totals, so tracing memory
//! stays bounded however long the run.
//!
//! The wrappers forward every trait method to the wrapped value, including
//! `fork` and the `try_*` paths, so a traced run computes exactly what the
//! untraced run computes.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use dla_core::blas::Call;
use dla_core::machine::{ExecError, Executor, Locality, MachineConfig, Measurement};
use dla_core::mat::stats::Summary;
use dla_core::model::Result as ModelResult;
use dla_core::predict::TracePrediction;
use dla_core::predict::{ShardCall, ShardClient, ShardError, ShardReply, TraceEvaluator};

/// Per-layer accumulated time and call count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub request: u64,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub self_ns: u64,
}

/// A span's own cost: inside its measured interval, and outside it, in its
/// parent's.
#[derive(Debug, Clone, Copy, Default)]
struct SpanCost {
    inside_ns: u64,
    outside_ns: u64,
}

struct Open {
    start: Instant,
    child_ns: u64,
    keep: bool,
    recorded: Option<usize>,
}

struct Tracer {
    enabled: bool,
    epoch: Instant,
    request: u64,
    stack: Vec<Open>,
    spans: Vec<Span>,
    /// Per-layer totals, looked up by the layer name's address first: a
    /// handful of layers, hit on every span, so no map.
    totals: Vec<(&'static str, Totals)>,
    counts: BTreeMap<&'static str, u64>,
    /// What a span costs of its own, indexed by `keep`; `None` until
    /// measured.
    span_cost: Option<[SpanCost; 2]>,
    /// The span costs taken off durations and parents' self times.
    bookkeeping_ns: u64,
}

impl Tracer {
    fn layer_index(&mut self, layer: &'static str) -> usize {
        let found = self
            .totals
            .iter()
            .position(|(name, _)| std::ptr::eq(*name, layer))
            .or_else(|| self.totals.iter().position(|(name, _)| *name == layer));
        found.unwrap_or_else(|| {
            self.totals.push((layer, Totals::default()));
            self.totals.len() - 1
        })
    }
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        enabled: false,
        epoch: Instant::now(),
        request: 0,
        stack: Vec::new(),
        spans: Vec::new(),
        totals: Vec::new(),
        counts: BTreeMap::new(),
        span_cost: None,
        bookkeeping_ns: 0,
    });
}

/// Turns span recording on or off for this thread.  The first time it is
/// switched on, the spans' own cost is measured.
pub fn set_enabled(enabled: bool) {
    let measured = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.enabled = enabled;
        t.span_cost.is_some()
    });
    if enabled && !measured {
        let cost = measure_span_cost();
        TRACER.with(|t| t.borrow_mut().span_cost = Some(cost));
    }
}

/// The cost of an empty span, for totalled and for kept spans: per trial, a
/// parent opens many empty children; the children's mean duration is the
/// inside part, the parent's self time per child the outside part.  Each
/// part is the median over trials.  The trial spans are removed afterwards.
fn measure_span_cost() -> [SpanCost; 2] {
    const CHILDREN: u64 = 2000;
    const TRIALS: usize = 9;
    const PARENT: &str = "trace.calibrate";
    const CHILD: &str = "trace.calibrate.child";
    let (spans, layers) = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.span_cost = Some([SpanCost::default(); 2]);
        (t.spans.len(), t.totals.len())
    });
    let mut cost = [SpanCost::default(); 2];
    for keep in [false, true] {
        let (mut inside, mut outside) = (Vec::new(), Vec::new());
        for _ in 0..TRIALS {
            let (parent, child) = (layer_totals(PARENT), layer_totals(CHILD));
            span(PARENT, false, || {
                for _ in 0..CHILDREN {
                    span(CHILD, keep, || std::hint::black_box(()));
                }
            });
            inside.push((layer_totals(CHILD).total_ns - child.total_ns) / CHILDREN);
            outside.push((layer_totals(PARENT).self_ns - parent.self_ns) / CHILDREN);
        }
        inside.sort_unstable();
        outside.sort_unstable();
        cost[keep as usize] = SpanCost {
            inside_ns: inside[TRIALS / 2],
            outside_ns: outside[TRIALS / 2],
        };
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.spans.truncate(spans);
        t.totals.truncate(layers);
    });
    cost
}

fn layer_totals(layer: &str) -> Totals {
    TRACER.with(|t| {
        let t = t.borrow();
        t.totals
            .iter()
            .find(|(name, _)| *name == layer)
            .map_or(Totals::default(), |(_, totals)| *totals)
    })
}

/// Tags the spans that follow with a request id.
pub fn set_request(request: u64) {
    TRACER.with(|t| t.borrow_mut().request = request);
}

/// Adds `n` to a named counter (while tracing is on).
pub fn count(name: &'static str, n: u64) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.enabled {
            *t.counts.entry(name).or_default() += n;
        }
    });
}

/// Runs `f` inside a span of `layer`.  `keep` records the span itself, not
/// only its layer's totals.
pub fn span<R>(layer: &'static str, keep: bool, f: impl FnOnce() -> R) -> R {
    span_by(keep, f, |_| layer)
}

/// Runs `f` inside a span whose layer is picked from `f`'s result, so one
/// call site can split its time by outcome.
pub fn span_by<R>(keep: bool, f: impl FnOnce() -> R, layer: impl FnOnce(&R) -> &'static str) -> R {
    let enabled = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.enabled {
            return false;
        }
        let recorded = keep.then(|| {
            let id = t.spans.len();
            let parent = t.stack.iter().rev().find_map(|o| o.recorded);
            let request = t.request;
            t.spans.push(Span {
                id,
                parent,
                request,
                layer: "",
                start_ns: 0,
                end_ns: 0,
                self_ns: 0,
            });
            id
        });
        t.stack.push(Open {
            start: Instant::now(),
            child_ns: 0,
            keep,
            recorded,
        });
        true
    });
    if !enabled {
        return f();
    }
    let r = f();
    let end = Instant::now();
    let layer = layer(&r);
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let open = t.stack.pop().expect("span stack is balanced");
        let measured = end.duration_since(open.start).as_nanos() as u64;
        let cost = t
            .span_cost
            .map_or(SpanCost::default(), |c| c[open.keep as usize]);
        let dur = measured.saturating_sub(cost.inside_ns);
        let self_ns = dur.saturating_sub(open.child_ns);
        if let Some(parent) = t.stack.last_mut() {
            parent.child_ns += measured + cost.outside_ns;
            t.bookkeeping_ns += measured - dur + cost.outside_ns;
        }
        let index = t.layer_index(layer);
        let totals = &mut t.totals[index].1;
        totals.calls += 1;
        totals.total_ns += dur;
        totals.self_ns += self_ns;
        if let Some(id) = open.recorded {
            let start_ns = open.start.duration_since(t.epoch).as_nanos() as u64;
            let span = &mut t.spans[id];
            span.start_ns = start_ns;
            span.layer = layer;
            span.end_ns = start_ns + dur;
            span.self_ns = self_ns;
        }
    });
    r
}

/// A snapshot of the per-layer totals and counters.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub totals: BTreeMap<&'static str, Totals>,
    pub counts: BTreeMap<&'static str, u64>,
    /// The own cost of spans with a parent, taken off their durations and
    /// their parents' self times: with it, a parent's self time plus its
    /// children's totals make its total.
    pub bookkeeping_ns: u64,
}

impl Snapshot {
    pub fn layer(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

pub fn snapshot() -> Snapshot {
    TRACER.with(|t| {
        let t = t.borrow();
        Snapshot {
            totals: t.totals.iter().copied().collect(),
            counts: t.counts.clone(),
            bookkeeping_ns: t.bookkeeping_ns,
        }
    })
}

/// Writes the recorded spans as JSON lines and returns how many were written.
pub fn write_spans(path: &std::path::Path) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let n = TRACER.with(|t| -> std::io::Result<usize> {
        let t = t.borrow();
        for s in &t.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id, parent, s.request, s.layer, s.start_ns, s.end_ns, s.self_ns
            )?;
        }
        Ok(t.spans.len())
    })?;
    out.flush()?;
    Ok(n)
}

/// Executor seam: times every execution and counts the measurements taken.
pub struct TimedExecutor<E>(pub E);

const EXECUTE: &str = "machine.execute";
const MEASUREMENTS: &str = "machine.measurements";

impl<E: Executor> Executor for TimedExecutor<E> {
    fn machine(&self) -> &MachineConfig {
        self.0.machine()
    }

    fn execute(&mut self, call: &Call, locality: Locality) -> Measurement {
        count(MEASUREMENTS, 1);
        span(EXECUTE, false, || self.0.execute(call, locality))
    }

    fn execute_ticks(&mut self, call: &Call, locality: Locality, n: usize, out: &mut Vec<f64>) {
        count(MEASUREMENTS, n as u64);
        span(EXECUTE, false, || {
            self.0.execute_ticks(call, locality, n, out)
        })
    }

    fn try_execute(&mut self, call: &Call, locality: Locality) -> Result<Measurement, ExecError> {
        count(MEASUREMENTS, 1);
        span(EXECUTE, false, || self.0.try_execute(call, locality))
    }

    fn try_execute_ticks(
        &mut self,
        call: &Call,
        locality: Locality,
        n: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), ExecError> {
        count(MEASUREMENTS, n as u64);
        span(EXECUTE, false, || {
            self.0.try_execute_ticks(call, locality, n, out)
        })
    }

    fn fork(&self, stream: u64) -> Self {
        TimedExecutor(self.0.fork(stream))
    }
}

/// Trace-evaluator seam: times trace predictions under a layer name.
pub struct TimedEvaluator<'a, E> {
    pub inner: &'a E,
    pub layer: &'static str,
}

impl<E: TraceEvaluator> TraceEvaluator for TimedEvaluator<'_, E> {
    fn machine(&self) -> &MachineConfig {
        self.inner.machine()
    }

    fn predict_call(&self, call: &Call) -> ModelResult<Summary> {
        span(self.layer, false, || self.inner.predict_call(call))
    }

    fn predict_trace(&self, trace: &[Call]) -> ModelResult<TracePrediction> {
        span(self.layer, true, || self.inner.predict_trace(trace))
    }

    fn predict_traces(&self, traces: &[&[Call]]) -> ModelResult<Vec<TracePrediction>> {
        span(self.layer, true, || self.inner.predict_traces(traces))
    }
}

/// Shard-client seam: times every shard attempt.
pub struct TimedShard<C> {
    pub inner: C,
    pub layer: &'static str,
}

impl<C: ShardClient> ShardClient for TimedShard<C> {
    fn predict(&self, call: &ShardCall<'_>) -> Result<ShardReply, ShardError> {
        span(self.layer, false, || self.inner.predict(call))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_totals_add_up() {
        set_enabled(true);
        span("outer", true, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            span("inner", false, || {
                std::thread::sleep(std::time::Duration::from_millis(3))
            });
        });
        set_enabled(false);
        let s = snapshot();
        let outer = s.layer("outer");
        let inner = s.layer("inner");
        assert_eq!(outer.calls, 1);
        assert_eq!(
            outer.self_ns + inner.total_ns + s.bookkeeping_ns,
            outer.total_ns
        );
        assert!(inner.self_ns >= 3_000_000);
        // The measured spans are gone again.
        assert_eq!(s.layer("trace.calibrate").calls, 0);
        assert_eq!(s.layer("trace.calibrate.child").calls, 0);
        // Disabled tracing records nothing.
        span("ignored", true, || ());
        assert_eq!(snapshot().layer("ignored").calls, 0);
    }

    #[test]
    fn span_by_files_the_span_under_the_layer_its_result_picks() {
        set_enabled(true);
        for x in [1, 2, 3] {
            span_by(true, || x, |x| if x % 2 == 1 { "odd" } else { "even" });
        }
        set_enabled(false);
        let s = snapshot();
        assert_eq!(s.layer("odd").calls, 2);
        assert_eq!(s.layer("even").calls, 1);
        let layers: Vec<_> = TRACER.with(|t| t.borrow().spans.iter().map(|s| s.layer).collect());
        assert_eq!(layers, ["odd", "even", "odd"]);
    }

    #[test]
    fn a_spans_own_cost_comes_off_its_duration_and_its_parents_self_time() {
        set_enabled(true);
        let measured = TRACER
            .with(|t| t.borrow().span_cost)
            .expect("measured on enabling");
        for cost in measured {
            assert!(cost.inside_ns + cost.outside_ns > 0);
            assert!(cost.inside_ns + cost.outside_ns < 100_000, "{cost:?}");
        }
        let cost = SpanCost {
            inside_ns: 1_000,
            outside_ns: 2_000,
        };
        TRACER.with(|t| t.borrow_mut().span_cost = Some([cost; 2]));
        span("parent", false, || {
            std::thread::sleep(std::time::Duration::from_millis(1));
            for _ in 0..3 {
                span("child", false, || {
                    std::thread::sleep(std::time::Duration::from_millis(1))
                });
            }
        });
        set_enabled(false);
        let s = snapshot();
        let (parent, child) = (s.layer("parent"), s.layer("child"));
        assert_eq!(s.bookkeeping_ns, 3 * 3_000);
        assert_eq!(
            parent.self_ns + child.total_ns + s.bookkeeping_ns,
            parent.total_ns
        );
        assert!(child.total_ns >= 3_000_000 - 3 * 1_000);
    }
}
