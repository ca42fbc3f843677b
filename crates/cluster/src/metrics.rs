//! Per-part and per-query traffic counters.
//!
//! Every message layer in the workspace reports into these counters, which
//! back the paper's network-traffic tables (Table 6, Figure 12, Figure 16,
//! Figure 17) and the utilization plot (Figure 19). Which counters exist,
//! and where each is recorded, is [`gpm_obs::COUNTER_TABLE`].

use gpm_obs::{Counter, CounterValues, Scope};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Classification of a transfer by topology distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Between sockets of the same machine (NUMA interconnect).
    CrossSocket,
    /// Between machines (the actual network).
    CrossMachine,
}

impl TrafficClass {
    /// The byte counter a transfer of this class adds to.
    pub fn counter(self) -> Counter {
        match self {
            TrafficClass::CrossSocket => Counter::NumaBytes,
            TrafficClass::CrossMachine => Counter::NetworkBytes,
        }
    }
}

/// One relaxed atomic per [`Counter`]: a part's or a query's counters.
#[derive(Debug, Default)]
pub struct Counters([AtomicU64; Counter::N]);

impl Counters {
    /// Adds `n` to `c`.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        self.0[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// The current value of `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.0[c as usize].load(Ordering::Relaxed)
    }

    /// Every counter, each a relaxed load: not one atomic cut, but each
    /// value is exact and monotone.
    pub fn snapshot(&self) -> CounterValues {
        CounterValues::new(std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed)))
    }
}

/// Counters of one part, plus its in-flight window gauge. All methods are
/// thread-safe.
#[derive(Debug, Default)]
pub struct PartMetrics {
    /// Events this part recorded.
    pub counters: Counters,
    inflight: AtomicU64,
    inflight_peak: AtomicU64,
}

impl PartMetrics {
    /// Records a request entering this part's in-flight window.
    pub fn record_inflight_start(&self) {
        let now = self.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        self.inflight_peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Records a request retiring from this part's in-flight window.
    ///
    /// Saturating: a completion racing a shutdown drain must not wrap the
    /// gauge to `u64::MAX` (that would report a permanently-full window).
    /// Debug builds assert on the mismatch so the race is still caught in
    /// tests.
    pub fn record_inflight_end(&self) {
        let prev = self
            .inflight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(1)))
            .expect("fetch_update closure always returns Some");
        debug_assert!(prev > 0, "inflight gauge underflow: end without matching start");
    }

    /// Requests currently occupying this part's in-flight window.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Deepest the in-flight window ever got on this part.
    pub fn peak_inflight(&self) -> u64 {
        self.inflight_peak.load(Ordering::Relaxed)
    }
}

/// Where a part's events for one query are recorded: the part's counters
/// and the query's.
///
/// Part counters answer "what did this part do"; query counters answer
/// "what did this *query* cost", summed over every part that worked on
/// it. Recording each event into both lets a resident engine interleaving
/// several queries on one worker pool report per-tenant traffic exactly —
/// no before/after snapshot deltas, which would misattribute a concurrent
/// neighbour's bytes.
#[derive(Debug, Clone)]
pub struct CounterHandle {
    part: Arc<PartMetrics>,
    query: Arc<Counters>,
}

impl CounterHandle {
    /// Adds `n` to `c` on the part, and on the query when the counter's
    /// table row is query-scoped. With a constant `c` this inlines to one
    /// or two relaxed adds.
    #[inline]
    pub fn emit(&self, c: Counter, n: u64) {
        self.part.counters.add(c, n);
        if c.row().scope == Scope::PartQuery {
            self.query.add(c, n);
        }
    }

    /// Records a completed fetch of `req` request and `resp` response
    /// bytes that crossed a boundary of class `class`.
    pub fn record_fetch(&self, class: TrafficClass, req: u64, resp: u64) {
        self.emit(Counter::FetchRequests, 1);
        self.emit(Counter::BytesSent, req);
        self.emit(Counter::BytesReceived, resp);
        self.emit(class.counter(), req + resp);
    }

    /// The part's metrics.
    pub fn part(&self) -> &Arc<PartMetrics> {
        &self.part
    }
}

/// Aggregated metrics for all parts of a cluster.
#[derive(Debug, Clone)]
pub struct ClusterMetrics {
    parts: Vec<Arc<PartMetrics>>,
    /// Parts promoted to the fail-stop dead state by the fabric.
    parts_failed: Arc<AtomicU64>,
    /// Per-query counter registry, keyed by engine-assigned query id.
    queries: Arc<parking_lot::Mutex<HashMap<u64, Arc<Counters>>>>,
    sockets_per_machine: usize,
}

impl ClusterMetrics {
    /// Fresh counters for `parts` parts.
    pub fn new(parts: usize, sockets_per_machine: usize) -> Self {
        ClusterMetrics {
            parts: (0..parts).map(|_| Arc::new(PartMetrics::default())).collect(),
            parts_failed: Arc::new(AtomicU64::new(0)),
            queries: Arc::new(parking_lot::Mutex::new(HashMap::new())),
            sockets_per_machine,
        }
    }

    /// Counters of one query, created on first use. The registry is
    /// shared by clones, so a fabric client and the engine resolve the
    /// same counters for the same id. Query id 0 is the conventional
    /// "unattributed" bucket used by legacy single-query paths.
    pub fn query(&self, query_id: u64) -> Arc<Counters> {
        Arc::clone(self.queries.lock().entry(query_id).or_default())
    }

    /// The handle that records `part`'s events for `query_id`.
    ///
    /// # Panics
    ///
    /// Panics if `part` is out of range.
    pub fn handle(&self, part: usize, query_id: u64) -> CounterHandle {
        CounterHandle { part: Arc::clone(&self.parts[part]), query: self.query(query_id) }
    }

    /// Drops one query's counters from the registry (a resident service
    /// calls this after folding them into the query's report, so the
    /// registry doesn't grow without bound).
    pub fn retire_query(&self, query_id: u64) {
        self.queries.lock().remove(&query_id);
    }

    /// Records that a part was promoted to the fail-stop dead state.
    pub fn record_part_failed(&self) {
        self.parts_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of parts promoted to the fail-stop dead state.
    pub fn parts_failed(&self) -> u64 {
        self.parts_failed.load(Ordering::Relaxed)
    }

    /// Number of parts tracked.
    pub fn part_count(&self) -> usize {
        self.parts.len()
    }

    /// Sockets per machine (for traffic classification).
    pub fn sockets_per_machine(&self) -> usize {
        self.sockets_per_machine
    }

    /// Metrics of one part.
    ///
    /// # Panics
    ///
    /// Panics if `part` is out of range.
    pub fn part(&self, part: usize) -> &Arc<PartMetrics> {
        &self.parts[part]
    }

    /// Classifies a transfer between two parts.
    pub fn classify(&self, from: usize, to: usize) -> TrafficClass {
        if from / self.sockets_per_machine == to / self.sockets_per_machine {
            TrafficClass::CrossSocket
        } else {
            TrafficClass::CrossMachine
        }
    }

    /// Every counter summed over all parts; `[Counter::NetworkBytes]` is
    /// the paper's "network traffic" metric.
    pub fn totals(&self) -> CounterValues {
        let mut totals = CounterValues::default();
        for p in &self.parts {
            totals += &p.counters.snapshot();
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_recording_and_aggregation() {
        let m = ClusterMetrics::new(4, 2);
        m.handle(0, 0).record_fetch(TrafficClass::CrossMachine, 100, 900);
        m.handle(1, 0).record_fetch(TrafficClass::CrossSocket, 50, 450);
        assert_eq!(m.part(0).counters.get(Counter::BytesSent), 100);
        assert_eq!(m.part(0).counters.get(Counter::BytesReceived), 900);
        let t = m.totals();
        assert_eq!(t[Counter::NetworkBytes], 1000);
        assert_eq!(t[Counter::NumaBytes], 500);
        assert_eq!(t[Counter::FetchRequests], 2);
    }

    #[test]
    fn classification_by_machine() {
        let m = ClusterMetrics::new(4, 2);
        assert_eq!(m.classify(0, 1), TrafficClass::CrossSocket);
        assert_eq!(m.classify(0, 2), TrafficClass::CrossMachine);
        assert_eq!(m.classify(3, 2), TrafficClass::CrossSocket);
        let m1 = ClusterMetrics::new(4, 1);
        assert_eq!(m1.classify(0, 1), TrafficClass::CrossMachine);
    }

    #[test]
    fn inflight_gauge_tracks_depth_and_peak() {
        let m = ClusterMetrics::new(2, 1);
        m.part(0).record_inflight_start();
        m.part(0).record_inflight_start();
        assert_eq!(m.part(0).inflight(), 2);
        m.part(0).record_inflight_end();
        assert_eq!(m.part(0).inflight(), 1);
        assert_eq!(m.part(0).peak_inflight(), 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "inflight gauge underflow")]
    fn unmatched_inflight_end_asserts_in_debug() {
        let m = PartMetrics::default();
        m.record_inflight_end();
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn unmatched_inflight_end_saturates_in_release() {
        let m = PartMetrics::default();
        m.record_inflight_end();
        assert_eq!(m.inflight(), 0, "gauge must saturate at zero, not wrap");
        m.record_inflight_start();
        assert_eq!(m.inflight(), 1);
    }

    #[test]
    fn parts_failed_is_shared_by_clones() {
        let m = ClusterMetrics::new(3, 1);
        assert_eq!(m.parts_failed(), 0);
        m.record_part_failed();
        assert_eq!(m.parts_failed(), 1);
        assert_eq!(m.clone().parts_failed(), 1);
    }

    #[test]
    fn emit_follows_each_counters_scope() {
        let m = ClusterMetrics::new(2, 1);
        let h = m.handle(1, 7);
        h.emit(Counter::Retries, 2);
        h.emit(Counter::ServedBytes, 64);
        h.record_fetch(TrafficClass::CrossMachine, 10, 90);
        let (part, query) = (m.part(1).counters.snapshot(), m.query(7).snapshot());
        assert_eq!((part[Counter::Retries], query[Counter::Retries]), (2, 2));
        assert_eq!((part[Counter::NetworkBytes], query[Counter::NetworkBytes]), (100, 100));
        // Part-only rows never reach the query's counters.
        assert_eq!((part[Counter::ServedBytes], query[Counter::ServedBytes]), (64, 0));
        assert_eq!((part[Counter::BytesSent], query[Counter::BytesSent]), (10, 0));
        assert_eq!(m.totals(), part, "part 0 recorded nothing");
    }

    #[test]
    fn query_counters_are_shared_and_retire() {
        let m = ClusterMetrics::new(2, 1);
        m.handle(0, 7).emit(Counter::CacheHits, 1);
        // A clone resolves the same counters for the same id.
        assert_eq!(m.clone().query(7).get(Counter::CacheHits), 1);
        // Distinct ids get distinct counters.
        assert_eq!(m.query(8).get(Counter::CacheHits), 0);
        // Retiring drops the counters; re-resolving starts fresh.
        m.retire_query(7);
        assert_eq!(m.query(7).get(Counter::CacheHits), 0);
    }
}
