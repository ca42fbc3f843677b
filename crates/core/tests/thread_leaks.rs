//! Thread-leak regression, alone in its own test binary: it counts the
//! process's live threads, so a test running beside it in the same
//! process (any engine start or stop) would make the count race.

use gpm_graph::gen;
use gpm_graph::partition::PartitionedGraph;
use gpm_pattern::plan::{MatchingPlan, PlanOptions};
use gpm_pattern::Pattern;
use khuzdul::{Engine, EngineConfig, FabricConfig, FaultPlan, RetryPolicy};
use std::time::Duration;

/// Live threads of this process, per /proc (Linux-only, like CI).
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line present")
}

#[test]
fn dropped_engines_leak_no_threads() {
    let g = gen::erdos_renyi(100, 400, 3);
    let plan = MatchingPlan::compile(&Pattern::triangle(), &PlanOptions::automine()).unwrap();
    let engine_for = |cfg: EngineConfig| Engine::new(PartitionedGraph::new(&g, 2, 1), cfg);
    // Warm-up engine so any lazy process-wide state is in place.
    engine_for(EngineConfig::default()).count(&plan);
    let baseline = thread_count();
    for i in 0..5 {
        // Odd iterations error the query first (retries exhausted)
        // and never call `shutdown()` — the old leak scenario.
        if i % 2 == 1 {
            let engine = engine_for(EngineConfig {
                fabric: FabricConfig {
                    retry: RetryPolicy {
                        max_attempts: 2,
                        timeout: Duration::from_millis(5),
                        backoff: Duration::from_micros(100),
                    },
                    fault: Some(FaultPlan::drops(1.0)),
                    ..FabricConfig::default()
                },
                ..EngineConfig::default()
            });
            assert!(engine.try_count(&plan).is_err());
            drop(engine);
        } else {
            let engine = engine_for(EngineConfig::default());
            engine.count(&plan);
            drop(engine);
        }
    }
    let after = thread_count();
    assert!(after <= baseline, "dropped engines leaked threads: {baseline} before, {after} after");
}
