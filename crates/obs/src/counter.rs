//! The counter table: one row per fabric and control-plane counter.
//!
//! The paper's traffic results (Table 6, Figures 12, 16, 17 and 19) come
//! from these counters. Each row of [`COUNTER_TABLE`] says where its
//! counter is recorded (its [`Scope`]) and what every sink calls it: the
//! `/status` rollup and incident bundles, the run report's sections, and
//! the Prometheus exposition. The sinks iterate the table, so none of
//! them names a counter of its own.
//!
//! Adding a counter takes a [`Counter`] variant, its row at the same
//! index, and one `emit` where the event happens.

use std::ops::{AddAssign, Index, IndexMut};

/// A fabric or control-plane counter; indexes [`COUNTER_TABLE`],
/// [`CounterValues`] and the cluster's atomic counter arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Remote edge-list fetches completed.
    FetchRequests,
    /// Lookups answered by the static cache.
    CacheHits,
    /// Lookups that went to the fabric because the cache missed.
    CacheMisses,
    /// Vertices deduplicated out of a request before it hit the wire.
    Coalesced,
    /// Fetch attempts beyond the first (timeout or fault recovery).
    Retries,
    /// Request plus response bytes of fetches between machines.
    NetworkBytes,
    /// Request plus response bytes of fetches between sockets of one
    /// machine.
    NumaBytes,
    /// Fetches completed against a replica holder of a dead part.
    ReroutedRequests,
    /// Request plus response bytes of those rerouted fetches.
    ReroutedBytes,
    /// Control-plane message attempts, retries included.
    CtrlSent,
    /// Control-plane attempts beyond the first.
    CtrlRetried,
    /// Control-plane replies dropped by fault injection.
    CtrlDropped,
    /// Requests a part served for other parts.
    ServedRequests,
    /// Response bytes a part served for other parts.
    ServedBytes,
    /// Rerouted fetches a part served from its copy of a dead part's
    /// slice.
    ReroutedServedRequests,
    /// Request plus response bytes of the rerouted fetches a part served.
    ReroutedServedBytes,
    /// Request bytes a part sent.
    BytesSent,
    /// Response bytes a part received.
    BytesReceived,
}

/// Where a counter is recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Only on the part it happened on.
    Part,
    /// On the part and on the query it happened for, so a query's report
    /// section holds exactly its own events even with other queries
    /// running beside it.
    PartQuery,
}

/// A counter section of the run report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// `traffic`: fetches, cache and bytes.
    Traffic,
    /// `failures`: failover traffic.
    Failures,
    /// `control`: control-plane messages.
    Control,
}

impl Section {
    /// The section's key in the report.
    pub fn key(self) -> &'static str {
        match self {
            Section::Traffic => "traffic",
            Section::Failures => "failures",
            Section::Control => "control",
        }
    }

    /// `(counter, key)` of every table row reported in this section, in
    /// table order.
    pub fn rows(self) -> impl Iterator<Item = (Counter, &'static str)> {
        COUNTER_TABLE.iter().filter_map(move |r| match r.report {
            Some((s, key)) if s == self => Some((r.counter, key)),
            _ => None,
        })
    }
}

/// One row of [`COUNTER_TABLE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterRow {
    /// The counter this row describes.
    pub counter: Counter,
    /// Where it is recorded.
    pub scope: Scope,
    /// Its name in the `/status` rollup and in incident bundles.
    pub status: Option<&'static str>,
    /// Its report section and key.
    pub report: Option<(Section, &'static str)>,
    /// Its Prometheus family name and HELP text.
    pub prom: Option<(&'static str, &'static str)>,
    /// The part-scoped counter whose per-part values the Prometheus
    /// family also exposes, one `holder`-labelled sample per part that
    /// served any.
    pub holder_split: Option<Counter>,
}

impl CounterRow {
    /// A part+query counter, reported, exported and rolled up.
    const fn query(
        counter: Counter,
        status: &'static str,
        report: (Section, &'static str),
        prom: (&'static str, &'static str),
    ) -> CounterRow {
        CounterRow {
            counter,
            scope: Scope::PartQuery,
            status: Some(status),
            report: Some(report),
            prom: Some(prom),
            holder_split: None,
        }
    }

    /// A part-only counter.
    const fn part(counter: Counter, status: Option<&'static str>) -> CounterRow {
        CounterRow {
            counter,
            scope: Scope::Part,
            status,
            report: None,
            prom: None,
            holder_split: None,
        }
    }

    const fn split_by_holder(mut self, split: Counter) -> CounterRow {
        self.holder_split = Some(split);
        self
    }
}

/// Every counter, in [`Counter`] order: the single source of the names
/// and scopes the recorders and every sink use.
pub const COUNTER_TABLE: [CounterRow; Counter::N] = {
    use Counter::*;
    use Section::*;
    [
        CounterRow::query(
            FetchRequests,
            "fetch_requests",
            (Traffic, "fetch_requests"),
            ("gpm_fetch_requests_total", "Remote edge-list fetch requests of completed queries"),
        ),
        CounterRow::query(
            CacheHits,
            "cache_hits",
            (Traffic, "cache_hits"),
            ("gpm_cache_hits_total", "Edge-list cache hits of completed queries"),
        ),
        CounterRow::query(
            CacheMisses,
            "cache_misses",
            (Traffic, "cache_misses"),
            ("gpm_cache_misses_total", "Edge-list cache misses of completed queries"),
        ),
        CounterRow::query(
            Coalesced,
            "coalesced_requests",
            (Traffic, "coalesced_requests"),
            (
                "gpm_coalesced_requests_total",
                "Fetches coalesced into an identical in-flight request",
            ),
        ),
        CounterRow::query(
            Retries,
            "retries",
            (Traffic, "retries"),
            ("gpm_retries_total", "Fetch retries of completed queries"),
        ),
        CounterRow::query(
            NetworkBytes,
            "network_bytes",
            (Traffic, "network_bytes"),
            ("gpm_network_bytes_total", "Cross-machine bytes of completed queries"),
        ),
        CounterRow::query(
            NumaBytes,
            "numa_bytes",
            (Traffic, "numa_bytes"),
            ("gpm_numa_bytes_total", "Cross-socket bytes of completed queries"),
        ),
        // Summing a rerouted family across its label sets double-counts:
        // the bare sample is the total, the `holder` samples its split.
        CounterRow::query(
            ReroutedRequests,
            "rerouted_requests",
            (Failures, "rerouted_requests"),
            (
                "gpm_rerouted_requests_total",
                "Fetches rerouted to a replica after a part death \
                 (holder label: the split per serving replica)",
            ),
        )
        .split_by_holder(ReroutedServedRequests),
        CounterRow::query(
            ReroutedBytes,
            "rerouted_bytes",
            (Failures, "rerouted_bytes"),
            (
                "gpm_rerouted_bytes_total",
                "Bytes served by replicas after a part death \
                 (holder label: the split per serving replica)",
            ),
        )
        .split_by_holder(ReroutedServedBytes),
        CounterRow::query(
            CtrlSent,
            "ctrl_sent",
            (Control, "sent"),
            (
                "gpm_ctrl_sent_total",
                "Control-plane messages sent by completed queries, retries included",
            ),
        ),
        CounterRow::query(
            CtrlRetried,
            "ctrl_retried",
            (Control, "retried"),
            ("gpm_ctrl_retried_total", "Control-plane message retries of completed queries"),
        ),
        CounterRow::query(
            CtrlDropped,
            "ctrl_dropped",
            (Control, "dropped"),
            ("gpm_ctrl_dropped_total", "Control-plane messages dropped by fault injection"),
        ),
        CounterRow::part(ServedRequests, Some("served_requests")),
        CounterRow::part(ServedBytes, Some("served_bytes")),
        CounterRow::part(ReroutedServedRequests, None),
        CounterRow::part(ReroutedServedBytes, None),
        CounterRow::part(BytesSent, None),
        CounterRow::part(BytesReceived, None),
    ]
};

impl Counter {
    /// Number of counters.
    pub const N: usize = Counter::BytesReceived as usize + 1;

    /// This counter's table row.
    #[inline]
    pub fn row(self) -> &'static CounterRow {
        &COUNTER_TABLE[self as usize]
    }

    /// This counter's key in its report section.
    ///
    /// # Panics
    ///
    /// Panics for a part-only counter, which the report does not carry.
    pub fn report_key(self) -> &'static str {
        self.row().report.expect("a reported counter").1
    }
}

/// One value per [`Counter`]: a snapshot of a counter array, a run's
/// totals, or a sum over runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterValues([u64; Counter::N]);

impl CounterValues {
    /// Values in [`Counter`] order.
    pub fn new(values: [u64; Counter::N]) -> Self {
        CounterValues(values)
    }

    /// `(key, value)` of every row reported in `section`, in table order.
    pub fn section(&self, section: Section) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        section.rows().map(|(c, key)| (key, self[c]))
    }

    /// `(name, value)` of every row with a `/status` name, in table order.
    pub fn status(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        COUNTER_TABLE.iter().filter_map(|r| r.status.map(|name| (name, self[r.counter])))
    }
}

impl Index<Counter> for CounterValues {
    type Output = u64;

    fn index(&self, c: Counter) -> &u64 {
        &self.0[c as usize]
    }
}

impl IndexMut<Counter> for CounterValues {
    fn index_mut(&mut self, c: Counter) -> &mut u64 {
        &mut self.0[c as usize]
    }
}

impl AddAssign<&CounterValues> for CounterValues {
    fn add_assign(&mut self, other: &CounterValues) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn table_rows_sit_at_their_own_index() {
        for (i, row) in COUNTER_TABLE.iter().enumerate() {
            assert_eq!(row.counter as usize, i, "{:?}", row.counter);
            assert_eq!(row.counter.row(), row);
        }
    }

    #[test]
    fn report_keys_prometheus_names_and_status_names_are_each_unique() {
        let mut report = HashSet::new();
        let mut prom = HashSet::new();
        let mut status = HashSet::new();
        for row in &COUNTER_TABLE {
            if let Some((section, key)) = row.report {
                assert!(report.insert(format!("{}.{key}", section.key())), "{key}");
            }
            if let Some((name, _)) = row.prom {
                assert!(prom.insert(name), "{name}");
            }
            if let Some(name) = row.status {
                assert!(status.insert(name), "{name}");
            }
        }
        assert_eq!(report.len(), 12);
        assert_eq!(status.len(), 14);
    }

    #[test]
    fn reported_rows_are_query_attributed_and_exported() {
        // Per-query report sections sum to the aggregate only for
        // counters every query records; `/metrics` must carry each.
        for row in &COUNTER_TABLE {
            assert_eq!(row.report.is_some(), row.scope == Scope::PartQuery, "{:?}", row.counter);
            assert_eq!(row.prom.is_some(), row.report.is_some(), "{:?}", row.counter);
            if let Some(split) = row.holder_split {
                assert_eq!(split.row().scope, Scope::Part);
            }
        }
    }

    #[test]
    fn values_index_sum_and_list_sections_in_table_order() {
        let mut a = CounterValues::default();
        a[Counter::Retries] = 2;
        a[Counter::CtrlSent] = 5;
        let mut b = CounterValues::default();
        b[Counter::Retries] = 1;
        b[Counter::ServedBytes] = 64;
        a += &b;
        assert_eq!(a[Counter::Retries], 3);
        let traffic: Vec<_> = a.section(Section::Traffic).collect();
        assert_eq!(traffic.len(), 7);
        assert_eq!(traffic[0], ("fetch_requests", 0));
        assert_eq!(traffic[4], ("retries", 3));
        let control: Vec<_> = a.section(Section::Control).collect();
        assert_eq!(control, [("sent", 5), ("retried", 0), ("dropped", 0)]);
        assert!(a.status().any(|(n, v)| n == "served_bytes" && v == 64));
        assert_eq!(Counter::CtrlRetried.report_key(), "retried");
    }
}
