//! Live telemetry plane integration: a real workload scraped over HTTP
//! while it runs. Per-query completion fractions must be monotone and
//! land at 1.0, and the final `/metrics` exposition must parse and
//! reconcile **exactly** — sample for sample — with the schema-v4
//! `RunReport` the service writes.

use gpm_obs::COUNTER_TABLE;
use gpm_obs::{parse_json, sample_value, validate_exposition};
use khuzdul::{
    ControlConfig, ControlMode, Counter, Engine, EngineConfig, FaultPlan, MiningService,
    RetryPolicy, ServiceConfig, StatusConfig, StatusServer, StealConfig,
};
use khuzdul_repro::graph::gen;
use khuzdul_repro::graph::partition::PartitionedGraph;
use khuzdul_repro::pattern::plan::PlanOptions;
use khuzdul_repro::pattern::{oracle, Pattern};
use serde::Value;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect status server");
    write!(s, "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read response");
    out.split_once("\r\n\r\n").expect("header/body split").1.to_string()
}

fn field<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    let Value::Map(fields) = v else { return None };
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn num(v: &Value, key: &str) -> f64 {
    match field(v, key) {
        Some(Value::UInt(u)) => *u as f64,
        Some(Value::Int(i)) => *i as f64,
        Some(Value::Float(f)) => *f,
        _ => panic!("missing numeric field '{key}' in {v:?}"),
    }
}

/// Scrapes `/status` while a mixed workload runs, asserting every
/// in-flight query's completion fraction is monotone non-decreasing and
/// within [0, 1]; then reconciles the final `/metrics` scrape against
/// the service's own `RunReport`, exactly.
#[test]
fn scraped_progress_is_monotone_and_metrics_reconcile_with_the_report() {
    let g = gen::barabasi_albert(500, 6, 23);
    let patterns = vec![
        Pattern::triangle(),
        Pattern::clique(4),
        Pattern::path(4),
        Pattern::cycle(4),
        Pattern::triangle(), // memoized duplicate
    ];
    let engine = Arc::new(Engine::new(PartitionedGraph::new(&g, 3, 1), EngineConfig::default()));
    let svc = Arc::new(MiningService::start(
        Arc::clone(&engine),
        ServiceConfig {
            max_concurrent: 2,
            slow_query: Some(Duration::ZERO),
            ..ServiceConfig::default()
        },
    ));
    let server = StatusServer::start(
        Arc::clone(&svc),
        StatusConfig { tick: Duration::from_millis(20), ..StatusConfig::default() },
    )
    .expect("bind status server");
    let addr = server.local_addr();
    assert!(engine.progress_enabled(), "status server enables progress tracking");

    let handles: Vec<_> =
        patterns.iter().map(|p| svc.submit(p, &PlanOptions::automine()).unwrap()).collect();
    // Scrape concurrently with the workload until every handle resolves.
    let done = AtomicBool::new(false);
    let fractions: HashMap<u64, Vec<f64>> = std::thread::scope(|s| {
        let scraper = s.spawn(|| {
            let mut seen: HashMap<u64, Vec<f64>> = HashMap::new();
            while !done.load(Ordering::SeqCst) {
                let body = http_get(addr, "/status");
                let doc = parse_json(&body).expect("valid /status JSON");
                let Some(Value::Seq(active)) = field(&doc, "active_queries") else {
                    panic!("status lacks active_queries: {body}");
                };
                for q in active {
                    let qid = num(q, "query_id") as u64;
                    let f = num(q, "fraction");
                    assert!((0.0..=1.0).contains(&f), "fraction out of range: {f}");
                    assert!(
                        num(q, "completed") <= num(q, "claimed") + num(q, "recovered"),
                        "completions cannot outrun claims"
                    );
                    seen.entry(qid).or_default().push(f);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            seen
        });
        for h in &handles {
            h.wait().expect("workload query succeeds");
        }
        done.store(true, Ordering::SeqCst);
        scraper.join().expect("scraper thread")
    });
    for (qid, fs) in &fractions {
        assert!(
            fs.windows(2).all(|w| w[0] <= w[1]),
            "query {qid}: fraction regressed mid-run: {fs:?}"
        );
    }

    let outcomes = svc.drain();
    let report = svc.report("khuzdul-service");
    gpm_obs::validate_report(&report.to_json()).expect("schema v4 report");
    // Progress landed at 1.0: every enumerated (non-memoized) query
    // retired at least its whole root multiset. The root total equals
    // the graph's vertex count (1-D hash partition of all vertices).
    for q in &report.queries {
        if !q.memoized {
            assert_eq!(q.roots_total, g.vertex_count() as u64, "q{}", q.query_id);
            assert!(
                q.roots_completed >= q.roots_total,
                "q{} did not land at 1.0: {}/{}",
                q.query_id,
                q.roots_completed,
                q.roots_total
            );
        }
    }
    // Counts are still exact under scraping.
    for (o, p) in outcomes.iter().zip(&patterns) {
        let got = o.result.as_ref().expect("success").count;
        assert_eq!(got, oracle::count_subgraphs(&g, p, false), "{p}");
    }

    // Final scrape: well-formed exposition, and exact reconciliation
    // with the aggregate and per-query report sections.
    let metrics = http_get(addr, "/metrics");
    validate_exposition(&metrics).expect("well-formed Prometheus exposition");
    let sample =
        |name: &str| sample_value(&metrics, name, None).unwrap_or_else(|| panic!("{name}"));
    assert_eq!(sample("gpm_embeddings_total"), report.count as f64);
    for row in &COUNTER_TABLE {
        if let Some((name, _)) = row.prom {
            assert_eq!(sample(name), report.counters[row.counter] as f64, "{name}");
        }
    }
    assert_eq!(sample("gpm_reexecuted_roots_total"), report.failures.reexecuted_roots as f64);
    assert_eq!(sample("gpm_parts_failed_total"), report.failures.parts_failed as f64);
    assert_eq!(sample("gpm_queries_completed_total"), report.queries.len() as f64);
    for q in &report.queries {
        let label = format!("query_id=\"{}\"", q.query_id);
        assert_eq!(
            sample_value(&metrics, "gpm_query_embeddings_total", Some(&label)),
            Some(q.count as f64),
            "per-query count must reconcile for q{}",
            q.query_id
        );
    }
    // Memo counters agree between the scrape and the report sections.
    let (entries, hits, evictions) = svc.memo_stats();
    assert_eq!(sample("gpm_memo_entries"), entries as f64);
    assert_eq!(sample("gpm_memo_hits_total"), hits as f64);
    assert_eq!(sample("gpm_memo_evictions_total"), evictions as f64);
    assert_eq!(hits, 1, "the duplicate triangle hit the memo");
    let last = report.queries.last().expect("five queries");
    assert!(last.memoized);
    let enumerated = &report.queries[0];
    assert_eq!(enumerated.memo_evictions, 0, "capacity 256 never evicts here");
    assert!(enumerated.memo_entries >= 1);

    // The slow-query log caught everything (threshold zero) and the
    // status document agrees with the outcome count.
    let status = http_get(addr, "/status");
    let doc = parse_json(&status).expect("valid /status JSON");
    assert_eq!(num(&doc, "completed"), outcomes.len() as f64);
    let Some(Value::Seq(slow)) = field(&doc, "slow_queries") else { panic!("no slow_queries") };
    assert!(!slow.is_empty(), "zero threshold logs every completion as slow");
    let Some(Value::Seq(recent)) = field(&doc, "recent_completions") else {
        panic!("no recent_completions")
    };
    // The ring records executed queries; memoized duplicates spent no
    // engine time and never pass through an executor.
    assert_eq!(recent.len(), outcomes.iter().filter(|o| !o.memoized).count());
}

/// The `/status` rollup's cumulative counters, name for value, from the
/// first sample taken wholly after `completed` queries finished (the
/// sample that first shows the count read the cluster totals just
/// before it, so wait for the next one).
fn status_totals_after(addr: SocketAddr, completed: u64) -> HashMap<String, u64> {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let mut done_at: Option<u64> = None;
    while std::time::Instant::now() < deadline {
        let doc = parse_json(&http_get(addr, "/status")).expect("valid /status JSON");
        let rollup = field(&doc, "rollup").expect("status has a rollup");
        let (Some(Value::Seq(names)), Some(Value::Seq(values)), Some(Value::Seq(windows))) =
            (field(rollup, "counter_names"), field(rollup, "cumulative"), field(rollup, "windows"))
        else {
            panic!("malformed rollup: {rollup:?}")
        };
        let totals: HashMap<String, u64> = names
            .iter()
            .zip(values)
            .map(|(n, v)| match (n, v) {
                (Value::Str(n), Value::UInt(v)) => (n.clone(), *v),
                _ => panic!("rollup entry {n:?} = {v:?}"),
            })
            .collect();
        // The window ring is bounded, so tell samples apart by time.
        let last_t = windows.last().map_or(0, |w| num(w, "t_ns") as u64);
        match done_at {
            Some(t) if last_t > t => return totals,
            None if totals["queries_completed"] == completed => done_at = Some(last_t),
            _ => {}
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("the rollup never sampled {completed} completed queries");
}

/// Every counter-table row with a report key reconciles four ways on a
/// seeded two-query service run over the message control plane under
/// dropped replies: the aggregate report value, the bare `/metrics`
/// sample, the sum of the per-query sections, and the `/status`
/// rollup's cumulative cluster counter.
#[test]
fn every_reported_counter_reconciles_across_report_metrics_and_status() {
    let g = gen::barabasi_albert(300, 5, 41);
    let engine = Arc::new(Engine::new(
        PartitionedGraph::new(&g, 3, 1),
        EngineConfig {
            steal: StealConfig { enabled: true, batch: 8, ..StealConfig::default() },
            control: ControlConfig {
                mode: ControlMode::Msg,
                retry: RetryPolicy {
                    max_attempts: 10,
                    timeout: Duration::from_millis(50),
                    backoff: Duration::from_micros(500),
                },
                fault: Some(FaultPlan { seed: 7, ..FaultPlan::drops(0.2) }),
            },
            ..EngineConfig::default()
        },
    ));
    let svc = Arc::new(MiningService::start(Arc::clone(&engine), ServiceConfig::default()));
    let server = StatusServer::start(
        Arc::clone(&svc),
        StatusConfig { tick: Duration::from_millis(10), ..StatusConfig::default() },
    )
    .expect("bind status server");
    for p in [Pattern::triangle(), Pattern::cycle(4)] {
        let run = svc.submit(&p, &PlanOptions::automine()).unwrap().wait().expect("query succeeds");
        assert_eq!(run.count, oracle::count_subgraphs(&g, &p, false), "{p}");
    }
    let report = svc.report("khuzdul-service");
    let metrics = http_get(server.local_addr(), "/metrics");
    let status = status_totals_after(server.local_addr(), 2);
    assert!(report.counters[Counter::CtrlSent] > 0, "the run must coordinate via messages");
    assert!(report.counters[Counter::FetchRequests] > 0, "the run must fetch");
    let mut reported = 0;
    for row in &COUNTER_TABLE {
        let Some((section, key)) = row.report else { continue };
        let what = format!("{}.{key}", section.key());
        let total = report.counters[row.counter];
        let per_query: u64 = report.queries.iter().map(|q| q.counters[row.counter]).sum();
        assert_eq!(per_query, total, "{what}: per-query sections");
        let (name, _) = row.prom.expect("reported rows are exported");
        assert_eq!(sample_value(&metrics, name, None), Some(total as f64), "{what}: {name}");
        let status_name = row.status.expect("reported rows are rolled up");
        assert_eq!(status[status_name], total, "{what}: /status {status_name}");
        reported += 1;
    }
    assert_eq!(reported, 12);
}

/// The memo LRU: a capacity-capped service evicts the least-recently
/// used entry, counts the evictions, and still answers every query
/// exactly.
#[test]
fn memo_lru_evicts_at_capacity_and_counts_it() {
    let g = gen::barabasi_albert(200, 4, 9);
    let engine = Arc::new(Engine::new(PartitionedGraph::new(&g, 2, 1), EngineConfig::default()));
    let svc = Arc::new(MiningService::start(
        Arc::clone(&engine),
        ServiceConfig { max_concurrent: 2, memo_capacity: 2, ..ServiceConfig::default() },
    ));
    let opts = PlanOptions::automine();
    let patterns = [Pattern::triangle(), Pattern::path(3), Pattern::cycle(4), Pattern::triangle()];
    for p in &patterns {
        svc.submit(p, &opts).unwrap().wait().unwrap();
    }
    let (entries, hits, evictions) = svc.memo_stats();
    assert_eq!(entries, 2, "capacity bounds the memo");
    assert!(evictions >= 1, "inserting past capacity evicted");
    // The triangle was evicted by cycle:4 (LRU), so its resubmission
    // re-enumerated rather than hitting the memo.
    assert_eq!(hits, 0, "LRU evicted the triangle before its duplicate arrived");
    let outcomes = svc.drain();
    for (o, p) in outcomes.iter().zip(&patterns) {
        assert_eq!(o.result.as_ref().unwrap().count, oracle::count_subgraphs(&g, p, false), "{p}");
    }
    // Eviction counters surface in the per-query report sections.
    let report = svc.report("khuzdul-service");
    let last = report.queries.last().unwrap();
    assert!(last.memo_evictions >= 1);
    assert!(last.memo_entries <= 2);
}
