//! The traced run's span recorder.
//!
//! Spans are kept in memory as (name, start, end, parent, op id) plus
//! the references the call processed, and written to one JSON file when
//! the run ends. Recording is off unless [`set_enabled`] turned it on: an
//! untraced run takes no clock readings and allocates nothing here.

use crate::provenance::Provenance;
use placesim_obs::json::JsonWriter;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// One finished span. Times are seconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// The harness operation the span belongs to.
    pub op: u64,
    /// References the call processed (0 when not meaningful).
    pub refs: u64,
    /// Free-form qualifier, e.g. `p16/wi` for a simulation.
    pub label: String,
}

impl SpanRec {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn spans() -> MutexGuard<'static, Vec<SpanRec>> {
    SPANS
        .lock()
        .expect("a thread panicked while recording a span")
}

fn now() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Turns recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

/// A span being recorded; it ends when dropped.
#[must_use = "a span ends when it is dropped"]
pub struct Span {
    idx: Option<usize>,
    refs: u64,
    label: String,
}

/// Opens a span named `layer.call` for operation `op`. Nested spans on
/// the same thread record this one as their parent.
pub fn span(name: &'static str, op: u64) -> Span {
    if !enabled() {
        return Span {
            idx: None,
            refs: 0,
            label: String::new(),
        };
    }
    let parent = OPEN.with(|open| open.borrow().last().copied());
    let start = now();
    let idx = {
        let mut all = spans();
        all.push(SpanRec {
            name,
            start,
            end: start,
            parent,
            op,
            refs: 0,
            label: String::new(),
        });
        all.len() - 1
    };
    OPEN.with(|open| open.borrow_mut().push(idx));
    Span {
        idx: Some(idx),
        refs: 0,
        label: String::new(),
    }
}

impl Span {
    /// Records how many references the spanned call processed.
    pub fn set_refs(&mut self, refs: u64) {
        self.refs = refs;
    }

    /// Attaches a qualifier such as the processor count.
    pub fn set_label(&mut self, label: String) {
        if self.idx.is_some() {
            self.label = label;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(idx) = self.idx else { return };
        let end = now();
        OPEN.with(|open| open.borrow_mut().retain(|&i| i != idx));
        // Never panic in drop: a poisoned recorder just loses the span.
        if let Ok(mut all) = SPANS.lock() {
            let rec = &mut all[idx];
            rec.end = end;
            rec.refs = self.refs;
            rec.label = std::mem::take(&mut self.label);
        }
    }
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<SpanRec> {
    std::mem::take(&mut *spans())
}

/// A copy of every span recorded so far.
pub fn snapshot() -> Vec<SpanRec> {
    spans().clone()
}

/// Seconds, references and count over the spans named `name`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub secs: f64,
    pub refs: u64,
    pub count: u64,
}

pub fn totals<'a>(spans: impl IntoIterator<Item = &'a SpanRec>, name: &str) -> Totals {
    let mut t = Totals::default();
    for s in spans.into_iter().filter(|s| s.name == name) {
        t.secs += s.secs();
        t.refs += s.refs;
        t.count += 1;
    }
    t
}

/// Each layer's self time: its spans' durations minus the time their
/// child spans cover. Children run on their parent's thread, one after
/// another, so the covered time is the sum of their durations.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, f64> {
    let mut child_secs = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_secs[p] += s.secs();
        }
    }
    let mut layers = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_secs) {
        *layers.entry(s.layer()).or_insert(0.0) += s.secs() - children;
    }
    layers
}

/// Writes the spans, per-layer self times and tracing overhead as one
/// JSON document.
pub fn to_json(workload: &str, spans: &[SpanRec], overhead_s: f64, prov: &Provenance) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "placebench-spans-v1");
    w.field_str("workload", workload);
    w.key("provenance");
    prov.write_json(&mut w);
    w.field_f64("tracing_overhead_s", overhead_s);
    w.key("layer_self_s");
    w.begin_object();
    for (layer, secs) in self_times(spans) {
        w.field_f64(layer, secs);
    }
    w.end_object();
    w.key("spans");
    w.begin_array();
    for s in spans {
        w.begin_object();
        w.field_str("name", s.name);
        w.field_f64("start_s", s.start);
        w.field_f64("end_s", s.end);
        w.key("parent");
        match s.parent {
            Some(p) => w.value_u64(p as u64),
            None => w.value_null(),
        }
        w.field_str("workload", workload);
        w.field_u64("op", s.op);
        w.field_u64("refs", s.refs);
        w.field_str("label", &s.label);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start,
            end,
            parent,
            op: 0,
            refs: 0,
            label: String::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            rec("core.prepare", 0.0, 10.0, None),
            rec("workloads.generate", 1.0, 4.0, Some(0)),
            rec("analysis.profile", 4.0, 9.0, Some(0)),
            rec("machine.simulate", 10.0, 12.0, None),
        ];
        let layers = self_times(&spans);
        assert_eq!(layers["core"], 2.0);
        assert_eq!(layers["workloads"], 3.0);
        assert_eq!(layers["analysis"], 5.0);
        assert_eq!(layers["machine"], 2.0);
    }
}
