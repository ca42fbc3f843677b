//! What every workload shares: run arguments, the correctness tally, the
//! metric table, set-up, and process memory.

use crate::span::{Module, Tracer};
use crate::stats::{mean, median};
use crate::workload::{Fingerprint, Workload, MACHINES};
use gpm_graph::partition::PartitionedGraph;
use gpm_graph::Graph;
use gpm_obs::RunReport;
use khuzdul::{Engine, RunStats};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics (`--trace 0`), with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("mine_s", "s"),
    ("net_bytes", "B"),
    ("peak_rss_mb", "MB"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("served_qps", "1/s"),
    ("slo_frac", "frac"),
];

/// Per-layer metrics (`--trace 1`), with their units.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("graph.gen_s", "s"),
    ("graph.partition_s", "s"),
    ("graph.intersect_ns_per_elem", "ns"),
    ("pattern.compile_us", "us"),
    ("pattern.interp_s", "s"),
    ("cluster.fetch_rtt_us.p50", "us"),
    ("cluster.fetch_rtt_us.p95", "us"),
    ("cluster.fetch_requests", "count"),
    ("cluster.coalesced", "count"),
    ("cluster.retries", "count"),
    ("cluster.ctrl_sent", "count"),
    ("cluster.ctrl_retried", "count"),
    ("core.compute_s", "s"),
    ("core.network_wait_s", "s"),
    ("core.scheduler_s", "s"),
    ("core.busy_imbalance", "ratio"),
    ("core.cache_hit_rate", "frac"),
    ("core.peak_embeddings", "count"),
    ("core.roots_stolen", "count"),
    ("obs.trace_overhead_frac", "frac"),
    ("obs.spans_dropped", "count"),
    ("graph.self_s", "s"),
    ("pattern.self_s", "s"),
    ("cluster.self_s", "s"),
    ("core.self_s", "s"),
    ("obs.self_s", "s"),
    ("bench.self_s", "s"),
];

/// One run's command-line arguments.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// The traced run (per-layer metrics) instead of the measured one.
    pub trace: bool,
    /// Added to every reference count; non-zero only to prove the
    /// correctness gate trips.
    pub reference_offset: u64,
}

/// Operations attempted and failed, with the first few failures spelled
/// out. A failure is a wrong count or an engine error.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation whose answer was `got`; it fails unless that
    /// is `Ok(want)`.
    pub fn check<E: std::fmt::Display>(&mut self, what: &str, got: Result<u64, E>, want: u64) {
        self.attempted += 1;
        let failure = match got {
            Ok(n) if n == want => return,
            Ok(n) => format!("{what}: counted {n}, reference {want}"),
            Err(e) => format!("{what}: {e}"),
        };
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(failure);
        }
    }
}

/// Metric values by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets `name`, which must be in one of the metric tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|&(n, _)| n == name),
            "metric {name} is not in the metric table"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, value);
    }

    /// `(name, unit, value)` for every metric of `table`, in table order.
    ///
    /// # Panics
    ///
    /// Panics if a runner forgot one: every run reports its whole table.
    pub fn rows(
        &self,
        table: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, &'static str, f64)> {
        table
            .iter()
            .map(|&(name, unit)| {
                let v = self.0.get(name).unwrap_or_else(|| panic!("run did not measure {name}"));
                (name, unit, *v)
            })
            .collect()
    }
}

/// Everything one run produced.
#[derive(Debug)]
pub struct RunResult {
    /// The run's inputs.
    pub fingerprint: Fingerprint,
    /// Measured values.
    pub metrics: Metrics,
    /// Correctness tally.
    pub tally: Tally,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
    /// The traced engine's report sections (`Null` when untraced).
    pub engine_report: Value,
}

/// Fewest set-ups per run; set-up metrics report the median.
const SETUP_MIN_REPS: usize = 5;
/// Set-ups repeat until they have taken this long, so a set-up of a few
/// milliseconds still yields a steady median.
const SETUP_MIN_SECONDS: f64 = 0.5;
/// Most set-ups per run.
const SETUP_MAX_REPS: usize = 50;

/// The resident objects of one set-up, and set-up timings.
pub struct Setup {
    /// The generated graph (kept for the reference count and probes).
    pub graph: Graph,
    /// A handle on the partitioned graph the engine was built from.
    pub pg: PartitionedGraph,
    /// The engine.
    pub engine: Engine,
    /// Median set-up seconds (gen + partition + engine).
    pub setup_s: f64,
    /// Median generation seconds.
    pub gen_s: f64,
    /// Median partitioning seconds.
    pub partition_s: f64,
}

/// Sets the workload up at least [`SETUP_MIN_REPS`] times and for at
/// least [`SETUP_MIN_SECONDS`], keeping the last set-up.
pub fn set_up(args: &RunArgs, tracer: &Tracer, parent: Option<u64>) -> Setup {
    let (mut total, mut gens, mut parts) = (Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<(Graph, PartitionedGraph, Engine)> = None;
    let start = Instant::now();
    while total.len() < SETUP_MIN_REPS
        || (start.elapsed().as_secs_f64() < SETUP_MIN_SECONDS && total.len() < SETUP_MAX_REPS)
    {
        // Tear the previous set-up down first so two never coexist.
        if let Some((_, _, engine)) = last.take() {
            engine.shutdown();
        }
        let t0 = Instant::now();
        let graph = tracer
            .span(parent, "gen", Module::Graph, |_| args.workload.generator(args.seed).build());
        let t1 = Instant::now();
        let pg = tracer.span(parent, "partition", Module::Graph, |_| {
            PartitionedGraph::new(&graph, MACHINES, 1)
        });
        let t2 = Instant::now();
        let engine = tracer.span(parent, "engine_start", Module::Core, |_| {
            Engine::new(pg.clone(), args.workload.engine_config(false))
        });
        total.push(t0.elapsed().as_secs_f64());
        gens.push((t1 - t0).as_secs_f64());
        parts.push((t2 - t1).as_secs_f64());
        last = Some((graph, pg, engine));
    }
    let (graph, pg, engine) = last.expect("at least one set-up");
    Setup {
        graph,
        pg,
        engine,
        setup_s: median(&total),
        gen_s: median(&gens),
        partition_s: median(&parts),
    }
}

/// Per-run statistics of the engine layers, as the per-layer metrics
/// define them: time sums over parts, the busiest part over the mean
/// part, and traffic of the run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerSample {
    /// Sum over parts of compute seconds.
    pub compute_s: f64,
    /// Sum over parts of seconds blocked on remote data.
    pub network_wait_s: f64,
    /// Sum over parts of scheduler seconds.
    pub scheduler_s: f64,
    /// Busiest part's busy time over the mean part's.
    pub busy_imbalance: f64,
    /// Peak live embeddings of the fullest part.
    pub peak_embeddings: f64,
    /// Roots taken from other parts.
    pub roots_stolen: f64,
    /// Cache hits.
    pub cache_hits: f64,
    /// Cache misses.
    pub cache_misses: f64,
    /// Fetch requests.
    pub fetch_requests: f64,
    /// Duplicate vertex requests coalesced.
    pub coalesced: f64,
    /// Fetch retries.
    pub retries: f64,
    /// Control messages sent.
    pub ctrl_sent: f64,
    /// Control messages re-sent.
    pub ctrl_retried: f64,
}

impl LayerSample {
    /// The layer statistics of one run.
    pub fn of(stats: &RunStats) -> LayerSample {
        let busy: Vec<f64> = stats
            .per_part
            .iter()
            .map(|p| (p.compute + p.network + p.scheduler + p.cache).as_secs_f64())
            .collect();
        let mean_busy = mean(&busy);
        let sum = |f: fn(&khuzdul::PartStats) -> f64| stats.per_part.iter().map(f).sum::<f64>();
        LayerSample {
            compute_s: sum(|p| p.compute.as_secs_f64()),
            network_wait_s: sum(|p| p.network.as_secs_f64()),
            scheduler_s: sum(|p| p.scheduler.as_secs_f64()),
            busy_imbalance: if mean_busy > 0.0 {
                busy.iter().copied().fold(0.0, f64::max) / mean_busy
            } else {
                1.0
            },
            peak_embeddings: stats
                .per_part
                .iter()
                .map(|p| p.peak_embeddings as f64)
                .fold(0.0, f64::max),
            roots_stolen: sum(|p| p.roots_stolen as f64),
            cache_hits: stats.traffic.cache_hits as f64,
            cache_misses: stats.traffic.cache_misses as f64,
            fetch_requests: stats.traffic.requests as f64,
            coalesced: stats.traffic.coalesced as f64,
            retries: stats.traffic.retries as f64,
            ctrl_sent: stats.control.sent as f64,
            ctrl_retried: stats.control.retried as f64,
        }
    }
}

/// Sets the engine-layer metrics from per-count samples: the median of
/// each field, except that the peak is the maximum and the hit rate is
/// pooled over all lookups.
pub fn set_layer_metrics(m: &mut Metrics, samples: &[LayerSample]) {
    let field = |f: fn(&LayerSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    m.set("core.compute_s", field(|s| s.compute_s));
    m.set("core.network_wait_s", field(|s| s.network_wait_s));
    m.set("core.scheduler_s", field(|s| s.scheduler_s));
    m.set("core.busy_imbalance", field(|s| s.busy_imbalance));
    m.set("core.roots_stolen", field(|s| s.roots_stolen));
    m.set("core.peak_embeddings", samples.iter().map(|s| s.peak_embeddings).fold(0.0, f64::max));
    let hits: f64 = samples.iter().map(|s| s.cache_hits).sum();
    let lookups: f64 = hits + samples.iter().map(|s| s.cache_misses).sum::<f64>();
    m.set("core.cache_hit_rate", if lookups > 0.0 { hits / lookups } else { 0.0 });
    m.set("cluster.fetch_requests", field(|s| s.fetch_requests));
    m.set("cluster.coalesced", field(|s| s.coalesced));
    m.set("cluster.retries", field(|s| s.retries));
    m.set("cluster.ctrl_sent", field(|s| s.ctrl_sent));
    m.set("cluster.ctrl_retried", field(|s| s.ctrl_retried));
}

/// The sections of an engine report the trace document keeps: the time
/// breakdown, the critical path and the span accounting.
///
/// The traced engine keeps the library's default span ring, so a long
/// count overwrites its oldest spans, and `spans_dropped` is what the
/// ring lost. The critical path is then computed from the spans that
/// survived, the last few percent of the count; `critical_path_truncated`
/// says so in the document itself.
pub fn report_sections(r: &RunReport) -> Value {
    Value::Map(vec![
        ("breakdown".into(), r.breakdown.to_value()),
        ("critical_path".into(), r.critical_path.to_value()),
        ("critical_path_truncated".into(), Value::Bool(r.spans.dropped > 0)),
        ("spans".into(), r.spans.to_value()),
    ])
}

/// The process's peak resident set (`VmHWM`) in MiB, 0 where the kernel
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
