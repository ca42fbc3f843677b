//! Run statistics: counts, timing breakdown, and counters.

use gpm_obs::{Counter, CounterValues, FailureSection};
use std::time::Duration;

/// Per-part timing and output of one run.
#[derive(Debug, Clone, Default)]
pub struct PartStats {
    /// Embeddings produced (or visited) by this part.
    pub count: u64,
    /// Wall time spent extending embeddings (the paper's "compute").
    pub compute: Duration,
    /// Wall time blocked waiting for remote data (the paper's "network").
    pub network: Duration,
    /// Wall time in resolve-phase bookkeeping: bucketing, horizontal
    /// table, cache queries, chunk management (the paper's "scheduler").
    pub scheduler: Duration,
    /// Wall time maintaining a general software cache (task↔data map
    /// updates, reference GC). Zero for Khuzdul, whose static cache has no
    /// such bookkeeping; reported by the G-thinker baseline (Figure 15).
    pub cache: Duration,
    /// Peak number of live extendable embeddings across all levels of
    /// this part — the §4.2 memory bound: at most
    /// `chunk_capacity × (depth - 1)` regardless of graph size.
    pub peak_embeddings: usize,
    /// Roots this part obtained from other parts through the steal
    /// ledger (cursor steals and spill claims). Zero with stealing off.
    pub roots_stolen: u64,
    /// Roots this part donated to the steal ledger's spill for starving
    /// parts. Zero with stealing off.
    pub roots_donated: u64,
}

/// Fractional runtime breakdown (Figure 15).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Breakdown {
    /// Fraction of accounted time spent computing extensions.
    pub compute: f64,
    /// Fraction blocked on communication.
    pub network: f64,
    /// Fraction in scheduling/bookkeeping.
    pub scheduler: f64,
    /// Fraction in cache maintenance (reported separately only by the
    /// G-thinker baseline; folded into `scheduler` for Khuzdul).
    pub cache: f64,
}

/// The traffic counters of one run as named fields, filled from
/// [`RunStats::counters`] (which also holds every other counter).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficSummary {
    /// Bytes that crossed machine boundaries.
    pub network_bytes: u64,
    /// Fetch requests issued.
    pub requests: u64,
    /// Software-cache hits during the run.
    pub cache_hits: u64,
    /// Software-cache misses during the run.
    pub cache_misses: u64,
    /// Duplicate vertex requests elided by same-round coalescing.
    pub coalesced: u64,
    /// Fetches re-submitted by the fabric's retry machinery (non-zero
    /// only under fault injection).
    pub retries: u64,
}

impl From<&CounterValues> for TrafficSummary {
    fn from(c: &CounterValues) -> Self {
        TrafficSummary {
            network_bytes: c[Counter::NetworkBytes],
            requests: c[Counter::FetchRequests],
            cache_hits: c[Counter::CacheHits],
            cache_misses: c[Counter::CacheMisses],
            coalesced: c[Counter::Coalesced],
            retries: c[Counter::Retries],
        }
    }
}

impl TrafficSummary {
    /// Cache hit rate in `[0, 1]`, or `None` without lookups.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }
}

impl PartStats {
    /// Folds another pass's stats into this one (used when the recovery
    /// pass adds re-execution work to a survivor's main-pass stats).
    pub(crate) fn merge(&mut self, other: &PartStats) {
        self.count += other.count;
        self.compute += other.compute;
        self.network += other.network;
        self.scheduler += other.scheduler;
        self.cache += other.cache;
        self.peak_embeddings = self.peak_embeddings.max(other.peak_embeddings);
        self.roots_stolen += other.roots_stolen;
        self.roots_donated += other.roots_donated;
    }
}

/// The control-plane counters of one run as named fields, filled from
/// [`RunStats::counters`]. Non-zero only when the run coordinated steals
/// and claims through the message-based ledger (`ControlMode::Msg`); the
/// shared-memory carrier exchanges no messages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlSummary {
    /// Control requests sent, including retransmissions.
    pub sent: u64,
    /// Control requests re-sent after a timeout or injected fault.
    pub retried: u64,
}

impl From<&CounterValues> for ControlSummary {
    fn from(c: &CounterValues) -> Self {
        ControlSummary { sent: c[Counter::CtrlSent], retried: c[Counter::CtrlRetried] }
    }
}

/// The result of one engine run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Total embeddings counted (or visited).
    pub count: u64,
    /// End-to-end wall time.
    pub elapsed: Duration,
    /// Per-part detail.
    pub per_part: Vec<PartStats>,
    /// Every counter of the run (deltas over the run window), indexed by
    /// [`Counter`].
    pub counters: CounterValues,
    /// The traffic rows of `counters` as named fields.
    pub traffic: TrafficSummary,
    /// Fail-stop failure accounting (all-zero for a fault-free run).
    pub failures: FailureSection,
    /// The control-plane rows of `counters` as named fields.
    pub control: ControlSummary,
}

impl RunStats {
    /// A run's stats, with the named-field views filled from `counters`.
    pub fn new(
        count: u64,
        elapsed: Duration,
        per_part: Vec<PartStats>,
        counters: CounterValues,
        failures: FailureSection,
    ) -> RunStats {
        RunStats {
            count,
            elapsed,
            per_part,
            counters,
            traffic: (&counters).into(),
            failures,
            control: (&counters).into(),
        }
    }

    /// The simulated cluster makespan: the busiest part's accounted time
    /// (compute + network + scheduler + cache).
    ///
    /// On a host with fewer physical cores than simulated machines the
    /// wall-clock `elapsed` of a run measures core contention, not the
    /// cluster; the makespan of per-part busy times is the standard
    /// work-span estimate of what an actual cluster would take. Most
    /// accurate when the engine ran with
    /// `EngineConfig::sequential_parts = true`, which removes the
    /// contention from the per-part timers themselves.
    pub fn simulated_makespan(&self) -> Duration {
        self.per_part
            .iter()
            .map(|p| p.compute + p.network + p.scheduler + p.cache)
            .max()
            .unwrap_or(self.elapsed)
    }

    /// Converts this run into a [`gpm_obs::RunReport`] skeleton: count,
    /// elapsed time, counters, failures, breakdown fractions, and
    /// per-part detail.
    /// Recorder-owned sections (histograms, gauge series, span
    /// accounting) stay empty; `Engine::report` fills them via
    /// `gpm_obs::Recorder::augment_report`.
    pub fn to_report(&self, system: &str) -> gpm_obs::RunReport {
        let b = self.breakdown();
        gpm_obs::RunReport {
            schema_version: gpm_obs::REPORT_SCHEMA_VERSION,
            system: system.to_string(),
            count: self.count,
            elapsed_ns: self.elapsed.as_nanos() as u64,
            counters: self.counters,
            breakdown: gpm_obs::BreakdownFractions {
                compute: b.compute,
                network: b.network,
                scheduler: b.scheduler,
                cache: b.cache,
            },
            per_part: self
                .per_part
                .iter()
                .enumerate()
                .map(|(i, p)| gpm_obs::PartReport {
                    part: i as u64,
                    count: p.count,
                    compute_ns: p.compute.as_nanos() as u64,
                    network_ns: p.network.as_nanos() as u64,
                    scheduler_ns: p.scheduler.as_nanos() as u64,
                    cache_ns: p.cache.as_nanos() as u64,
                    peak_embeddings: p.peak_embeddings as u64,
                    roots_stolen: p.roots_stolen,
                    roots_donated: p.roots_donated,
                })
                .collect(),
            histograms: Vec::new(),
            series: Vec::new(),
            spans: gpm_obs::SpanStats::default(),
            critical_path: gpm_obs::CriticalPathSection::default(),
            failures: self.failures,
            rebalance: gpm_obs::RebalanceSection::default(),
            queries: Vec::new(),
            incidents: Vec::new(),
        }
    }

    /// Aggregated fractional breakdown over all parts.
    pub fn breakdown(&self) -> Breakdown {
        let sum = |f: fn(&PartStats) -> Duration| -> f64 {
            self.per_part.iter().map(|p| f(p).as_secs_f64()).sum()
        };
        let compute = sum(|p| p.compute);
        let network = sum(|p| p.network);
        let scheduler = sum(|p| p.scheduler);
        let cache = sum(|p| p.cache);
        let total = compute + network + scheduler + cache;
        if total == 0.0 {
            return Breakdown { compute: 0.0, network: 0.0, scheduler: 0.0, cache: 0.0 };
        }
        Breakdown {
            compute: compute / total,
            network: network / total,
            scheduler: scheduler / total,
            cache: cache / total,
        }
    }
}

impl std::fmt::Display for RunStats {
    /// One-line human summary: count, wall time, traffic, breakdown.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = self.breakdown();
        write!(
            f,
            "{} embeddings in {:.3?} ({} net bytes / {} fetches; {:.0}% compute, \
             {:.0}% network, {:.0}% scheduler)",
            self.count,
            self.elapsed,
            self.traffic.network_bytes,
            self.traffic.requests,
            b.compute * 100.0,
            b.network * 100.0,
            b.scheduler * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_summary_mentions_everything() {
        let stats = RunStats {
            count: 42,
            elapsed: Duration::from_millis(5),
            per_part: vec![PartStats {
                compute: Duration::from_millis(4),
                network: Duration::from_millis(1),
                ..PartStats::default()
            }],
            traffic: TrafficSummary { network_bytes: 1000, requests: 3, ..Default::default() },
            ..Default::default()
        };
        let s = stats.to_string();
        assert!(s.contains("42 embeddings"));
        assert!(s.contains("1000 net bytes"));
        assert!(s.contains("compute"));
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let stats = RunStats {
            count: 1,
            elapsed: Duration::from_secs(1),
            per_part: vec![
                PartStats {
                    count: 1,
                    compute: Duration::from_millis(600),
                    network: Duration::from_millis(300),
                    scheduler: Duration::from_millis(100),
                    ..PartStats::default()
                },
                PartStats {
                    count: 0,
                    compute: Duration::from_millis(400),
                    network: Duration::from_millis(500),
                    scheduler: Duration::from_millis(100),
                    ..PartStats::default()
                },
            ],
            ..Default::default()
        };
        let b = stats.breakdown();
        assert!((b.compute + b.network + b.scheduler + b.cache - 1.0).abs() < 1e-9);
        assert!((b.compute - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_breakdown_is_zero() {
        let b = RunStats::default().breakdown();
        assert_eq!(b.compute, 0.0);
        assert_eq!(b.network, 0.0);
    }

    #[test]
    fn report_and_views_carry_the_run_counters() {
        let mut counters = CounterValues::default();
        for (i, c) in gpm_obs::COUNTER_TABLE.iter().enumerate() {
            counters[c.counter] = 10 + i as u64;
        }
        counters[Counter::CtrlRetried] = 3;
        let per_part = vec![PartStats {
            count: 9,
            compute: Duration::from_millis(1),
            network: Duration::from_micros(500),
            scheduler: Duration::from_micros(500),
            peak_embeddings: 11,
            ..PartStats::default()
        }];
        let failures = FailureSection { parts_failed: 1, reexecuted_roots: 6 };
        let stats = RunStats::new(9, Duration::from_millis(2), per_part, counters, failures);
        assert_eq!(stats.traffic.requests, counters[Counter::FetchRequests]);
        assert_eq!(stats.traffic.coalesced, counters[Counter::Coalesced]);
        assert_eq!(stats.control.retried, 3);
        let r = stats.to_report("khuzdul");
        assert_eq!(r.system, "khuzdul");
        assert_eq!(r.count, stats.count);
        assert_eq!(r.elapsed_ns, 2_000_000);
        assert_eq!(r.counters, counters);
        assert_eq!(r.failures, failures);
        let b = stats.breakdown();
        assert_eq!(r.breakdown.compute, b.compute);
        assert_eq!(r.per_part.len(), 1);
        assert_eq!(r.per_part[0].peak_embeddings, 11);
        gpm_obs::validate_report(&r.to_json()).expect("converted report must validate");
    }

    #[test]
    fn empty_run_report_has_zero_fractions() {
        // The Breakdown zero-total guard must survive the report path:
        // a run with no accounted time serializes finite zero fractions,
        // never NaN (which the JSON shim would render as null).
        let r = RunStats::default().to_report("khuzdul");
        assert_eq!(r.breakdown.compute, 0.0);
        assert_eq!(r.breakdown.network, 0.0);
        assert_eq!(r.breakdown.scheduler, 0.0);
        assert_eq!(r.breakdown.cache, 0.0);
        let json = r.to_json();
        assert!(!json.contains("null"), "zero-time breakdown must stay finite: {json}");
        gpm_obs::validate_report(&json).expect("empty-run report must validate");
    }

    #[test]
    fn hit_rate() {
        let t = TrafficSummary { cache_hits: 3, cache_misses: 1, ..Default::default() };
        assert!((t.cache_hit_rate().unwrap() - 0.75).abs() < 1e-9);
        assert_eq!(TrafficSummary::default().cache_hit_rate(), None);
    }
}
