//! The mining workloads: repeated `Engine::count` of one pattern.

use crate::harness::{
    report_sections, set_layer_metrics, set_up, LayerSample, Metrics, RunArgs, RunResult, Tally,
};
use crate::probes;
use crate::span::{Module, Tracer};
use crate::stats::{beyond, median, percentile, ratio, tail, MIN_BEYOND};
use crate::workload::Fingerprint;
use gpm_pattern::interp;
use gpm_pattern::plan::{MatchingPlan, PlanOptions};
use khuzdul::{Engine, RunStats};
use serde::Value;
use std::time::Instant;

/// One timed count.
struct Count {
    latency_s: f64,
    stats: RunStats,
    spans_dropped: u64,
}

/// One checked warm-up count, then counts from cold caches until
/// `budget_s` has passed (at least one attempt). Failed counts are
/// tallied and left out of the result.
fn timed_counts(
    engine: &Engine,
    plan: &MatchingPlan,
    reference: u64,
    budget_s: f64,
    tracer: &Tracer,
    parent: Option<u64>,
    tally: &mut Tally,
) -> Vec<Count> {
    let warm = tracer.span(parent, "count", Module::Core, |_| engine.try_count(plan));
    tally.check("warm-up count", warm.map(|s| s.count), reference);
    let traced = engine.recorder().is_enabled();
    let start = Instant::now();
    let mut out = Vec::new();
    let mut attempts = 0;
    while attempts == 0 || start.elapsed().as_secs_f64() < budget_s {
        attempts += 1;
        // Every repetition fetches the same data: no list survives from
        // the previous count.
        assert!(engine.reset_caches(), "no query is in flight between counts");
        if traced {
            engine.recorder().reset_spans();
        }
        let t = Instant::now();
        let run = tracer.span(parent, "count", Module::Core, |_| engine.try_count(plan));
        let latency_s = t.elapsed().as_secs_f64();
        match run {
            Ok(stats) => {
                tally.check::<String>("count", Ok(stats.count), reference);
                let spans_dropped = engine.recorder().spans_dropped();
                out.push(Count { latency_s, stats, spans_dropped });
            }
            Err(e) => tally.check("count", Err(e), reference),
        }
    }
    out
}

/// Runs a mining workload.
pub fn run(args: &RunArgs, tracer: &Tracer) -> RunResult {
    let w = args.workload;
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    let mut report = Value::Null;
    let fingerprint = tracer.span(None, "run", Module::Bench, |root| {
        let setup = tracer.span(root, "setup", Module::Bench, |id| set_up(args, tracer, id));
        let pattern = w.pattern();
        let opts = PlanOptions::automine();
        let plan = tracer.span(root, "compile", Module::Pattern, |_| {
            MatchingPlan::compile(&pattern, &opts).expect("benchmark patterns compile")
        });
        // The reference count is outside every timed region.
        let t = Instant::now();
        let reference = tracer.span(root, "reference_count", Module::Pattern, |_| {
            interp::count_embeddings(&setup.graph, &plan)
        }) + args.reference_offset;
        let interp_s = t.elapsed().as_secs_f64();

        let budget = if args.trace { args.seconds / 2.0 } else { args.seconds };
        let counts =
            timed_counts(&setup.engine, &plan, reference, budget, tracer, root, &mut tally);
        let latencies: Vec<f64> = counts.iter().map(|c| c.latency_s).collect();
        let mine_s = median(&latencies);
        let listed: Vec<String> = latencies.iter().map(|l| format!("{l:.3}")).collect();
        notes.push(format!(
            "mine_s is the median of {} counts taking {} s",
            counts.len(),
            listed.join(" ")
        ));

        if args.trace {
            // Same counts on an engine with its span recorder on.
            let traced = tracer.span(root, "engine_start", Module::Core, |_| {
                Engine::new(setup.pg.clone(), w.engine_config(true))
            });
            let traced_counts =
                timed_counts(&traced, &plan, reference, budget, tracer, root, &mut tally);
            let traced_s = median(&traced_counts.iter().map(|c| c.latency_s).collect::<Vec<_>>());
            m.set("obs.trace_overhead_frac", ratio(traced_s, mine_s) - 1.0);
            m.set(
                "obs.spans_dropped",
                traced_counts.iter().map(|c| c.spans_dropped as f64).fold(0.0, f64::max),
            );
            if let Some(last) = traced_counts.last() {
                report = tracer.span(root, "report", Module::Obs, |_| {
                    report_sections(&traced.report(&last.stats, "khuzdul"))
                });
            }
            traced.shutdown();

            let samples: Vec<LayerSample> =
                counts.iter().map(|c| LayerSample::of(&c.stats)).collect();
            set_layer_metrics(&mut m, &samples);
            m.set("graph.gen_s", setup.gen_s);
            m.set("graph.partition_s", setup.partition_s);
            m.set("pattern.interp_s", interp_s);
            let g = &setup.graph;
            let ns = tracer.span(root, "intersect_probe", Module::Graph, |_| {
                probes::intersect_ns_per_elem(g, args.seed)
            });
            m.set("graph.intersect_ns_per_elem", ns);
            let us = tracer.span(root, "compile_probe", Module::Pattern, |_| {
                probes::compile_us(&[(pattern.clone(), opts.clone())])
            });
            m.set("pattern.compile_us", us);
            let (p50, p95) = tracer.span(root, "fetch_probe", Module::Cluster, |_| {
                probes::fetch_rtt_us(&setup.pg, args.seed)
            });
            m.set("cluster.fetch_rtt_us.p50", p50);
            m.set("cluster.fetch_rtt_us.p95", p95);
        } else {
            let wall: f64 = latencies.iter().sum();
            let limit = w.slo_limit().as_secs_f64();
            m.set("setup_s", setup.setup_s);
            m.set("mine_s", mine_s);
            m.set(
                "net_bytes",
                median(
                    &counts
                        .iter()
                        .map(|c| c.stats.traffic.network_bytes as f64)
                        .collect::<Vec<_>>(),
                ),
            );
            // A query is one count from a single closed-loop caller, so
            // query_p50_ms is mine_s in milliseconds and served_qps is one
            // over the mean count latency.
            m.set("query_p50_ms", mine_s * 1e3);
            m.set("query_p95_ms", percentile(&latencies, 95.0).unwrap_or(0.0) * 1e3);
            m.set("served_qps", ratio(counts.len() as f64, wall));
            let met = latencies.iter().filter(|&&l| l <= limit).count();
            m.set("slo_frac", ratio(met as f64, latencies.len() as f64));
            let tail = match tail(&latencies) {
                Some((p, v)) => format!("p{p} = {:.3} ms", v * 1e3),
                None => "none".into(),
            };
            notes.push(format!(
                "query_p95_ms is the nearest-rank p95 of {} counts, {} beyond it; highest \
                 percentile with {MIN_BEYOND} beyond: {tail}; slo_frac limit {limit} s",
                counts.len(),
                beyond(counts.len(), 95.0)
            ));
        }
        let fp = Fingerprint::of(w, args.seed, &setup.graph);
        setup.engine.shutdown();
        fp
    });
    RunResult { fingerprint, metrics: m, tally, notes, engine_report: report }
}
