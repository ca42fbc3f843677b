//! The benchmark's own spans: one per public call into a layer.
//!
//! Each span has a name, the repository module it enters, start and end
//! (nanoseconds since the run began), its parent span, and the run id.
//! Spans live in memory and are written out when the run ends. A module's
//! self time is the sum over its spans of each span's duration minus the
//! part of that interval its child spans cover.

use serde::Value;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// The repository module a span's call enters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Module {
    /// `gpm_graph`: generators, partitioning, set kernels.
    Graph,
    /// `gpm_pattern`: plan compiler and reference interpreter.
    Pattern,
    /// `gpm_cluster`: the edge-list fetch fabric.
    Cluster,
    /// `khuzdul`: the mining engine.
    Core,
    /// `gpm_obs`: report and span export.
    Obs,
    /// The benchmark's own bookkeeping.
    Bench,
}

impl Module {
    /// Every module, in report order.
    pub const ALL: [Module; 6] =
        [Module::Graph, Module::Pattern, Module::Cluster, Module::Core, Module::Obs, Module::Bench];

    /// The per-layer metric holding this module's self time.
    pub fn self_metric(self) -> &'static str {
        match self {
            Module::Graph => "graph.self_s",
            Module::Pattern => "pattern.self_s",
            Module::Cluster => "cluster.self_s",
            Module::Core => "core.self_s",
            Module::Obs => "obs.self_s",
            Module::Bench => "bench.self_s",
        }
    }

    /// Lower-case name, as used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Module::Graph => "graph",
            Module::Pattern => "pattern",
            Module::Cluster => "cluster",
            Module::Core => "core",
            Module::Obs => "obs",
            Module::Bench => "bench",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id, unique within the run (ids start at 1).
    pub id: u64,
    /// Id of the span that caused this one.
    pub parent: Option<u64>,
    /// What was called.
    pub name: &'static str,
    /// The module the call entered.
    pub module: Module,
    /// Start, nanoseconds since the run began.
    pub start_ns: u64,
    /// End, nanoseconds since the run began.
    pub end_ns: u64,
}

/// In-memory span recorder for one run. A disabled tracer records
/// nothing, so the measured (untraced) runs pay one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span; `f` receives the span's id to parent its
    /// own child spans. The span is recorded when `f` returns, so children
    /// are listed before their parent.
    pub fn span<T>(
        &self,
        parent: Option<u64>,
        name: &'static str,
        module: Module,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        // Reserve the id up front so children can point at it.
        let id = {
            let mut spans = self.spans.lock().expect("span list poisoned by a panicking recorder");
            let id = spans.len() as u64 + 1;
            spans.push(Span { id, parent, name, module, start_ns: 0, end_ns: 0 });
            id
        };
        let start = Instant::now();
        let out = f(Some(id));
        let end = Instant::now();
        let mut spans = self.spans.lock().expect("span list poisoned by a panicking recorder");
        let s = &mut spans[id as usize - 1];
        s.start_ns = self.ns(start);
        s.end_ns = self.ns(end);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned by a panicking recorder").clone()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur_end) = (0u64, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(cur_end), e.min(hi));
        if e > s {
            total += e - s;
            cur_end = e;
        }
    }
    total
}

/// Self time per module, in seconds: each span's duration minus the union
/// of its children's intervals, summed by module.
pub fn self_times(spans: &[Span]) -> BTreeMap<Module, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<Module, f64> = Module::ALL.iter().map(|&m| (m, 0.0)).collect();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let kids = children.remove(&s.id).unwrap_or_default();
        let own = dur - covered(kids, s.start_ns, s.end_ns).min(dur);
        *out.get_mut(&s.module).expect("every module present") += own as f64 * 1e-9;
    }
    out
}

/// The spans as a JSON array for the trace file.
pub fn spans_json(spans: &[Span], run_id: u64) -> Value {
    Value::Seq(
        spans
            .iter()
            .map(|s| {
                Value::Map(vec![
                    ("id".into(), Value::UInt(s.id)),
                    ("parent".into(), s.parent.map_or(Value::Null, Value::UInt)),
                    ("run".into(), Value::UInt(run_id)),
                    ("name".into(), Value::Str(s.name.into())),
                    ("module".into(), Value::Str(s.module.name().into())),
                    ("start_ns".into(), Value::UInt(s.start_ns)),
                    ("end_ns".into(), Value::UInt(s.end_ns)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, module: Module, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "t", module, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, Module::Bench, 0, 100),
            // Two overlapping children cover [10, 50]; a third [60, 70].
            span(2, Some(1), Module::Core, 10, 40),
            span(3, Some(1), Module::Core, 30, 50),
            span(4, Some(1), Module::Graph, 60, 70),
            // A grandchild inside span 2.
            span(5, Some(2), Module::Cluster, 15, 20),
        ];
        let t = self_times(&spans);
        let ns = |m: Module| (t[&m] * 1e9).round() as u64;
        assert_eq!(ns(Module::Bench), 50);
        assert_eq!(ns(Module::Core), 25 + 20);
        assert_eq!(ns(Module::Graph), 10);
        assert_eq!(ns(Module::Cluster), 5);
        assert_eq!(ns(Module::Obs), 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span(None, "x", Module::Core, |id| id), None);
        assert!(t.spans().is_empty());
        let on = Tracer::new(true);
        let child = on.span(None, "outer", Module::Bench, |id| {
            on.span(id, "inner", Module::Core, |_| ());
            id
        });
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, child);
    }
}
