//! The cross-part work-coordination protocol: the [`Ledger`] state
//! machine (root claims, steals, donations, batch retirements,
//! starvation signals, quiescence, and lost-root reconstruction) and
//! the message layer that serves it as typed control messages.
//!
//! The ledger is carrier-agnostic. The engine's shared-memory carrier
//! locks one behind a mutex; the message carrier here puts one inside a
//! run-scoped responder thread, [`ControlLedgerService`], which no client
//! part shares memory with. That is the property that lets this carrier
//! stretch over a real multi-process transport later.
//!
//! Where the data plane ([`crate::transport`]/[`crate::fabric`]) moves
//! edge lists, the message layer moves *scheduling state*. The shapes
//! mirror the data plane deliberately: non-blocking submission over
//! crossbeam channels, per-attempt sequence numbers feeding the same
//! deterministic [`FaultPlan`] decision space, timeout/retry with
//! exponential backoff, and per-message spans. One thing is new: control
//! operations **mutate** the ledger, so the protocol must be exactly-once
//! where data fetches only needed at-least-once. Every request carries a
//! `req_id` stable across retries, and the responder keeps a one-deep
//! reply cache per sender: a retry of an operation whose reply was lost
//! in the network is answered from the cache instead of being applied
//! twice. One-deep is sound because each client part issues control
//! operations strictly sequentially.

use crate::fabric::{FetchError, RetryPolicy};
use crate::metrics::{ClusterMetrics, CounterHandle};
use crate::transport::{
    CtrlClaimSource, CtrlOp, CtrlPayload, CtrlReply, CtrlRequest, Fault, FaultPlan,
};
use crate::PartId;
use crossbeam::channel::{unbounded, RecvTimeoutError, Sender};
use gpm_graph::VertexId;
use gpm_obs::{Counter, Metric, Recorder, SpanKind};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Configuration of one control-ledger responder.
#[derive(Debug, Clone)]
pub struct ControlLedgerConfig {
    /// Whether idle parts may claim the spill or steal victim ranges.
    pub stealing: bool,
    /// Upper bound on roots per spill claim or steal.
    pub batch: usize,
    /// `Some(sockets_per_machine)` enables NUMA-aware victim ordering:
    /// thieves prefer same-machine victims before crossing the network.
    pub numa: Option<usize>,
    /// Timeout/retry policy of every control client.
    pub retry: RetryPolicy,
    /// Optional deterministic fault plan applied to control messages
    /// (the fractions partition the same per-`(part, seq)` draw as the
    /// data plane; scheduled crashes are ignored here — they belong to
    /// the data transport).
    pub fault: Option<FaultPlan>,
    /// Query id stamped on control spans and per-query counters.
    pub query: u64,
}

impl Default for ControlLedgerConfig {
    fn default() -> Self {
        ControlLedgerConfig {
            stealing: false,
            batch: 256,
            numa: None,
            retry: RetryPolicy::default(),
            fault: None,
            query: 0,
        }
    }
}

enum ServiceMsg {
    Op { req: CtrlRequest, reply_to: Sender<CtrlReply> },
    Shutdown,
}

/// The run-scoped control responder: one thread owning the run's
/// [`Ledger`], serving [`CtrlRequest`]s from every part's
/// [`ControlClient`]. Dropping the service shuts the thread down and
/// joins it.
#[derive(Debug)]
pub struct ControlLedgerService {
    tx: Sender<ServiceMsg>,
    handle: parking_lot::Mutex<Option<JoinHandle<()>>>,
    seq: Arc<AtomicU64>,
    cfg: ControlLedgerConfig,
    metrics: ClusterMetrics,
    obs: Arc<Recorder>,
}

/// The cross-part work-coordination state machine: root claims, steals,
/// donations, batch retirements, starvation flags, quiescence, and
/// lost-root reconstruction after fail-stop crashes.
///
/// This is the **only** implementation of the protocol. It is
/// single-threaded; each control carrier serializes access to it in its
/// own way. The shared-memory carrier wraps one in a mutex, and the
/// message carrier's responder thread owns one outright and applies
/// [`CtrlRequest`]s to it in arrival order. Both therefore make the same
/// decisions for the same operation sequence, which is what keeps counts
/// bit-identical across carriers.
///
/// Every root list is a per-part range with a cursor. A normal pass
/// gives each part its owned roots; a recovery pass gives each survivor
/// its placed share of the lost roots (dead parts get empty lists).
#[derive(Debug)]
pub struct Ledger {
    /// Per-part root lists.
    roots: Vec<Vec<VertexId>>,
    /// Next unclaimed index into each part's `roots`.
    cursor: Vec<usize>,
    /// Donated level-0 root ranges, claimable by any part.
    spill: Vec<VertexId>,
    /// Per-part multiset of every root the part has claimed (own, spill,
    /// or stolen). Together with `donate_log` this reconstructs exactly
    /// which roots a fail-stop part took to its grave.
    claim_log: Vec<Vec<VertexId>>,
    /// Per-part multiset of every root the part donated to the spill.
    donate_log: Vec<Vec<VertexId>>,
    /// Claimed-but-not-retired batches.
    outstanding: u64,
    /// Which parts are currently flagged starving.
    starving: Vec<bool>,
    stealing: bool,
    batch: usize,
    /// `Some(sockets_per_machine)` enables NUMA-aware victim ordering.
    numa: Option<usize>,
}

/// A point-in-time snapshot of a ledger for incident bundles.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LedgerStateSummary {
    /// Carrier name (`"shared"` or `"msg"`; empty straight from
    /// [`Ledger::summary`], which does not know its carrier).
    pub carrier: &'static str,
    /// Whether the fields below were actually observed (`false` means a
    /// degraded summary: the carrier cannot inspect its state cheaply).
    pub available: bool,
    /// Whether no claimed batch was outstanding.
    pub quiescent: bool,
    /// Parts currently idle-and-polling.
    pub starving: u64,
    /// Donated roots sitting unclaimed in the spill.
    pub spill_len: u64,
    /// Unclaimed roots left on each part's range, indexed by part.
    pub per_part_remaining: Vec<u64>,
    /// The poison of a message carrier that lost a fire-and-forget
    /// operation, if any.
    pub poisoned: Option<String>,
}

impl Ledger {
    /// A ledger over `roots` (one claimable root list per part). With
    /// `stealing` off a part only ever claims its own list. `batch`
    /// bounds every spill claim and steal; `numa` is
    /// `Some(sockets_per_machine)` to prefer same-machine victims.
    pub fn new(
        roots: Vec<Vec<VertexId>>,
        stealing: bool,
        batch: usize,
        numa: Option<usize>,
    ) -> Ledger {
        let n = roots.len();
        Ledger {
            roots,
            cursor: vec![0; n],
            spill: Vec::new(),
            claim_log: vec![Vec::new(); n],
            donate_log: vec![Vec::new(); n],
            outstanding: 0,
            starving: vec![false; n],
            stealing,
            batch: batch.max(1),
            numa: numa.map(|spm| spm.max(1)),
        }
    }

    /// Whether idle parts may claim the spill or steal victim ranges.
    pub fn stealing(&self) -> bool {
        self.stealing
    }

    /// Unclaimed roots left on `part`'s range.
    fn remaining(&self, part: usize) -> usize {
        self.roots[part].len() - self.cursor[part]
    }

    fn claim_range(&mut self, part: usize, n: usize) -> Option<Vec<VertexId>> {
        if n == 0 || self.remaining(part) == 0 {
            return None;
        }
        let start = self.cursor[part];
        let end = (start + n).min(self.roots[part].len());
        self.cursor[part] = end;
        Some(self.roots[part][start..end].to_vec())
    }

    /// Whether `p` sits on the same simulated machine as `me`; always
    /// `false` with NUMA ordering off.
    fn same_machine(&self, me: usize, p: usize) -> bool {
        self.numa.is_some_and(|spm| p / spm == me / spm)
    }

    /// Claims the next root batch for `me`: its own range first (up to
    /// `own_batch` roots), then, with stealing on, the spill's tail, then
    /// the most-loaded victim's range. Under NUMA ordering the
    /// most-loaded part of `me`'s own machine beats any cross-machine
    /// part: stolen roots resolve their edge lists over the fabric, so a
    /// local victim keeps that traffic off the network (paper §5.4).
    /// Each returned batch is outstanding until [`Ledger::batch_done`].
    pub fn claim(
        &mut self,
        me: usize,
        own_batch: usize,
    ) -> Option<(CtrlClaimSource, Vec<VertexId>)> {
        if let Some(roots) = self.claim_range(me, own_batch) {
            return Some(self.book_claim(me, CtrlClaimSource::Own, roots));
        }
        if !self.stealing {
            return None;
        }
        if !self.spill.is_empty() {
            let take = self.batch.min(self.spill.len());
            let roots = self.spill.split_off(self.spill.len() - take);
            return Some(self.book_claim(me, CtrlClaimSource::Spill, roots));
        }
        let victim = (0..self.roots.len())
            .filter(|&p| p != me && self.remaining(p) > 0)
            .max_by_key(|&p| (self.same_machine(me, p), self.remaining(p)))?;
        let roots = self.claim_range(victim, self.batch)?;
        Some(self.book_claim(me, CtrlClaimSource::Stolen(victim), roots))
    }

    fn book_claim(
        &mut self,
        me: usize,
        source: CtrlClaimSource,
        roots: Vec<VertexId>,
    ) -> (CtrlClaimSource, Vec<VertexId>) {
        self.outstanding += 1;
        self.claim_log[me].extend_from_slice(&roots);
        (source, roots)
    }

    /// Retires one claimed batch (its embeddings are fully processed).
    pub fn batch_done(&mut self) {
        self.outstanding = self.outstanding.saturating_sub(1);
    }

    /// Adds never-started level-0 roots from `donor` to the spill. The
    /// donor's batch stays outstanding until it retires it, and
    /// [`Ledger::finished`] checks the spill, so no donated root can be
    /// dropped.
    pub fn donate(&mut self, donor: usize, roots: &[VertexId]) {
        self.donate_log[donor].extend_from_slice(roots);
        self.spill.extend_from_slice(roots);
    }

    /// Flags `me` as idle-and-polling (or no longer so).
    pub fn set_starving(&mut self, me: usize, on: bool) {
        self.starving[me] = on;
    }

    /// Number of parts currently flagged starving.
    pub fn starving(&self) -> usize {
        self.starving.iter().filter(|&&s| s).count()
    }

    /// Global termination: no outstanding batch, every range exhausted,
    /// and the spill empty.
    pub fn finished(&self) -> bool {
        self.outstanding == 0
            && (0..self.roots.len()).all(|p| self.remaining(p) == 0)
            && self.spill.is_empty()
    }

    /// Reconstructs the exact multiset of roots whose results died with
    /// the `dead` parts, once no part is claiming anymore:
    ///
    /// * every root a dead part claimed (its partial results are
    ///   discarded wholesale), **minus** what it donated back, because a
    ///   donated root's fate belongs to whoever claimed it next;
    /// * the unclaimed tail of each dead part's range, which this drains;
    /// * whatever is left in the spill: donated by anyone, claimed by no
    ///   one (survivors may stop claiming once a failure aborts the run).
    ///
    /// Re-executing exactly this multiset on the survivors reproduces the
    /// fault-free counts bit for bit.
    pub fn lost_roots(&mut self, dead: &[usize]) -> Vec<VertexId> {
        let mut lost = Vec::new();
        for &d in dead {
            let mut donated: HashMap<VertexId, usize> = HashMap::new();
            for &r in &self.donate_log[d] {
                *donated.entry(r).or_insert(0) += 1;
            }
            for &r in &self.claim_log[d] {
                match donated.get_mut(&r) {
                    Some(n) if *n > 0 => *n -= 1,
                    _ => lost.push(r),
                }
            }
            if let Some(mut tail) = self.claim_range(d, self.remaining(d)) {
                lost.append(&mut tail);
            }
        }
        lost.append(&mut self.spill);
        lost
    }

    /// The ledger's observable state, with `carrier` left empty for the
    /// carrier to fill in.
    pub fn summary(&self) -> LedgerStateSummary {
        LedgerStateSummary {
            carrier: "",
            available: true,
            quiescent: self.outstanding == 0,
            starving: self.starving() as u64,
            spill_len: self.spill.len() as u64,
            per_part_remaining: (0..self.roots.len()).map(|p| self.remaining(p) as u64).collect(),
            poisoned: None,
        }
    }

    /// Applies one control message from part `from`.
    fn apply(&mut self, from: PartId, op: &CtrlOp) -> CtrlPayload {
        match op {
            CtrlOp::Claim { own_batch } => match self.claim(from, *own_batch) {
                Some((source, roots)) => CtrlPayload::Claimed { source, roots },
                None => CtrlPayload::NoWork,
            },
            CtrlOp::BatchDone => {
                self.batch_done();
                CtrlPayload::Ack
            }
            CtrlOp::Donate { roots } => {
                self.donate(from, roots);
                CtrlPayload::Ack
            }
            CtrlOp::Starving { on } => {
                self.set_starving(from, *on);
                CtrlPayload::Ack
            }
            CtrlOp::Poll => {
                CtrlPayload::Status { finished: self.finished(), starving: self.starving() }
            }
            CtrlOp::CloseDead { dead } => CtrlPayload::Lost { roots: self.lost_roots(dead) },
        }
    }
}

impl ControlLedgerService {
    /// Starts the responder thread over a [`Ledger`] of `roots` (one
    /// claimable root list per part) configured by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the fault plan fails [`FaultPlan::validate`].
    pub fn start(
        roots: Vec<Vec<VertexId>>,
        cfg: ControlLedgerConfig,
        metrics: &ClusterMetrics,
        obs: Arc<Recorder>,
    ) -> ControlLedgerService {
        if let Some(plan) = &cfg.fault {
            plan.validate();
        }
        // One-deep reply cache per sender part: `(req_id, reply)` of the
        // last operation applied for that part, replayed on a duplicate
        // `req_id` so retries are exactly-once.
        let mut last_reply: Vec<Option<(u64, CtrlReply)>> = vec![None; roots.len()];
        let mut ledger = Ledger::new(roots, cfg.stealing, cfg.batch, cfg.numa);
        let (tx, rx) = unbounded::<ServiceMsg>();
        let handle = std::thread::Builder::new()
            .name(format!("khuzdul-ctrl-{}", cfg.query))
            .spawn(move || {
                while let Ok(ServiceMsg::Op { req, reply_to }) = rx.recv() {
                    if let Some((id, cached)) = &last_reply[req.from] {
                        if *id == req.req_id {
                            // A retry of an already-applied operation:
                            // replay the cached reply, apply nothing.
                            let _ = reply_to.send(cached.clone());
                            continue;
                        }
                    }
                    let payload = ledger.apply(req.from, &req.op);
                    let reply = CtrlReply { req_id: req.req_id, payload };
                    last_reply[req.from] = Some((req.req_id, reply.clone()));
                    let _ = reply_to.send(reply);
                }
            })
            .expect("spawn control responder thread");
        ControlLedgerService {
            tx,
            handle: parking_lot::Mutex::new(Some(handle)),
            seq: Arc::new(AtomicU64::new(0)),
            cfg,
            metrics: metrics.clone(),
            obs,
        }
    }

    /// A client through which `part` issues control operations.
    pub fn client(&self, part: PartId) -> ControlClient {
        ControlClient {
            tx: self.tx.clone(),
            part,
            query: self.cfg.query,
            seq: Arc::clone(&self.seq),
            retry: self.cfg.retry,
            fault: self.cfg.fault.clone(),
            counters: self.metrics.handle(part, self.cfg.query),
            obs: Arc::clone(&self.obs),
        }
    }
}

impl Drop for ControlLedgerService {
    fn drop(&mut self) {
        let _ = self.tx.send(ServiceMsg::Shutdown);
        if let Some(h) = self.handle.lock().take() {
            let _ = h.join();
        }
    }
}

/// One part's handle to the control responder: blocking call semantics
/// over the non-blocking channel, with the data fabric's timeout/retry
/// discipline (fresh `seq` per attempt, exponential backoff capped at
/// sixteen doublings, [`FetchError::Timeout`] on exhaustion).
#[derive(Debug, Clone)]
pub struct ControlClient {
    tx: Sender<ServiceMsg>,
    part: PartId,
    query: u64,
    seq: Arc<AtomicU64>,
    retry: RetryPolicy,
    fault: Option<FaultPlan>,
    counters: CounterHandle,
    obs: Arc<Recorder>,
}

impl ControlClient {
    /// The part this client issues operations for.
    pub fn part(&self) -> PartId {
        self.part
    }

    /// Issues `op` and blocks for its reply, retrying with backoff on
    /// timeouts and injected faults.
    ///
    /// # Errors
    ///
    /// [`FetchError::Timeout`] after `retry.max_attempts` lost attempts,
    /// [`FetchError::Shutdown`] if the responder is gone.
    pub fn call(&self, op: CtrlOp) -> Result<CtrlPayload, FetchError> {
        let req_id = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let t0 = self.obs.now_ns();
        let code = op.code();
        let is_claim = matches!(op, CtrlOp::Claim { .. });
        let (reply_tx, reply_rx) = unbounded::<CtrlReply>();
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
            let req =
                CtrlRequest { seq, req_id, query: self.query, from: self.part, op: op.clone() };
            self.counters.emit(Counter::CtrlSent, 1);
            let fate = self.fault.as_ref().map_or(Fault::None, |p| p.decide(self.part, seq));
            match fate {
                Fault::None => self.send(req, reply_tx.clone())?,
                Fault::Drop => {
                    // The responder still applies the operation — the
                    // reply is lost in the network. The retry below is
                    // answered from the responder's dedup cache.
                    self.counters.emit(Counter::CtrlDropped, 1);
                    self.fault_instant(1, req_id);
                    let (black_hole, _) = unbounded::<CtrlReply>();
                    self.send(req, black_hole)?;
                }
                Fault::Error => {
                    // A transient wire error: the responder never sees
                    // the request; the client observes an injected
                    // failure immediately and retries.
                    self.fault_instant(2, req_id);
                    let _ = reply_tx.send(CtrlReply { req_id, payload: CtrlPayload::Injected });
                }
                Fault::Delay => {
                    self.fault_instant(3, req_id);
                    let (tx, rx) = unbounded::<CtrlReply>();
                    let delay = self.fault.as_ref().expect("delay fate implies a plan").delay;
                    let forward = reply_tx.clone();
                    std::thread::spawn(move || {
                        if let Ok(reply) = rx.recv() {
                            std::thread::sleep(delay);
                            let _ = forward.send(reply);
                        }
                    });
                    self.send(req, tx)?;
                }
            }
            match reply_rx.recv_timeout(self.retry.timeout) {
                Ok(reply) if reply.payload != CtrlPayload::Injected => {
                    self.obs.record_span_for(
                        self.query,
                        SpanKind::CtrlMsg,
                        self.part as u32,
                        t0,
                        code,
                        req_id,
                    );
                    if is_claim {
                        self.obs.observe(Metric::CtrlRttNs, self.obs.now_ns().saturating_sub(t0));
                    }
                    return Ok(reply.payload);
                }
                Ok(_injected) => {}
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return Err(FetchError::Shutdown),
            }
            if attempts >= self.retry.max_attempts.max(1) {
                return Err(FetchError::Timeout { target: self.part, attempts });
            }
            self.counters.emit(Counter::CtrlRetried, 1);
            let rt0 = self.obs.now_ns();
            std::thread::sleep(self.retry.backoff * (1u32 << (attempts - 1).min(16)));
            self.obs.record_span_for(
                self.query,
                SpanKind::CtrlRetry,
                self.part as u32,
                rt0,
                attempts as u64,
                req_id,
            );
        }
    }

    fn send(&self, req: CtrlRequest, reply_to: Sender<CtrlReply>) -> Result<(), FetchError> {
        self.tx.send(ServiceMsg::Op { req, reply_to }).map_err(|_| FetchError::Shutdown)
    }

    fn fault_instant(&self, kind: u64, req_id: u64) {
        self.obs.record_instant_for(self.query, SpanKind::Fault, self.part as u32, kind, req_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn service(
        roots: Vec<Vec<VertexId>>,
        stealing: bool,
        batch: usize,
        fault: Option<FaultPlan>,
    ) -> ControlLedgerService {
        let n = roots.len();
        let cfg = ControlLedgerConfig {
            stealing,
            batch,
            retry: RetryPolicy {
                max_attempts: 10,
                timeout: Duration::from_millis(50),
                backoff: Duration::from_micros(200),
            },
            fault,
            ..ControlLedgerConfig::default()
        };
        ControlLedgerService::start(roots, cfg, &ClusterMetrics::new(n, 1), Recorder::disabled())
    }

    fn claimed(p: CtrlPayload) -> (CtrlClaimSource, Vec<VertexId>) {
        match p {
            CtrlPayload::Claimed { source, roots } => (source, roots),
            other => panic!("expected a claim, got {other:?}"),
        }
    }

    /// Four parts with 10, 6, 9 and 3 roots; part `p`'s roots are
    /// `100 * p + i`, so every root names its owner.
    fn ledger(stealing: bool, batch: usize, numa: Option<usize>) -> Ledger {
        let roots = [10, 6, 9, 3]
            .iter()
            .enumerate()
            .map(|(p, &n)| (0..n).map(|i| 100 * p as VertexId + i).collect())
            .collect();
        Ledger::new(roots, stealing, batch, numa)
    }

    #[test]
    fn own_claims_walk_the_range_and_quiesce() {
        let mut l = ledger(false, 8, None);
        let mut seen = Vec::new();
        while let Some((src, roots)) = l.claim(0, 4) {
            assert_eq!(src, CtrlClaimSource::Own);
            assert!(roots.len() <= 4);
            seen.extend(roots);
            assert!(!l.finished(), "a claimed batch is outstanding");
            l.batch_done();
        }
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(l.remaining(0), 0);
        // Stealing off: other parts' roots and the spill are out of reach.
        l.donate(1, &[7]);
        assert_eq!(l.claim(0, 4), None);
        assert!(l.remaining(1) > 0);
        assert!(!l.finished());
    }

    #[test]
    fn claims_take_own_then_spill_then_the_most_loaded_victim() {
        let mut l = ledger(true, 2, None);
        assert_eq!(l.claim(3, 8), Some((CtrlClaimSource::Own, vec![300, 301, 302])));
        l.donate(3, &[301, 302]);
        // Own range exhausted: the spill's tail, bounded by `batch`...
        l.donate(1, &[105]);
        assert_eq!(l.claim(3, 8), Some((CtrlClaimSource::Spill, vec![302, 105])));
        assert_eq!(l.claim(3, 8), Some((CtrlClaimSource::Spill, vec![301])));
        // ...then the most-loaded victim (part 0: 10 left), also bounded.
        assert_eq!(l.claim(3, 8), Some((CtrlClaimSource::Stolen(0), vec![0, 1])));
        // A zero own batch skips straight to stealing.
        assert_eq!(l.claim(1, 0), Some((CtrlClaimSource::Stolen(2), vec![200, 201])));
        while l.claim(3, 8).is_some() {}
        assert!((0..4).all(|p| l.remaining(p) == 0));
        assert_eq!(l.claim(0, 8), None);
        assert!(!l.finished(), "outstanding batches block termination");
        while !l.summary().quiescent {
            l.batch_done();
        }
        assert!(l.finished());
    }

    #[test]
    fn numa_victim_ordering_prefers_same_machine_parts() {
        // Two machines with two sockets each: parts {0, 1} share machine
        // 0 and parts {2, 3} share machine 1. Part 1 (6 roots) is lighter
        // than part 2 (9 roots) but on the thief's machine.
        let mut flat = ledger(true, 4, None);
        flat.claim(0, usize::MAX);
        assert_eq!(flat.claim(0, 0).map(|c| c.0), Some(CtrlClaimSource::Stolen(2)));
        let mut numa = ledger(true, 4, Some(2));
        numa.claim(0, usize::MAX);
        assert_eq!(numa.claim(0, 0).map(|c| c.0), Some(CtrlClaimSource::Stolen(1)));
        // Once the local machine is drained, it crosses to the most
        // loaded remote part.
        while numa.remaining(1) > 0 {
            numa.claim(1, 16);
        }
        assert_eq!(numa.claim(0, 0).map(|c| c.0), Some(CtrlClaimSource::Stolen(2)));
    }

    #[test]
    fn donated_roots_block_termination_until_claimed() {
        let mut l = ledger(true, 8, None);
        for p in 0..4 {
            while l.claim(p, usize::MAX).is_some() {
                l.batch_done();
            }
        }
        assert!(l.finished());
        l.donate(0, &[1, 2, 3]);
        assert!(!l.finished());
        let (src, roots) = l.claim(2, 1).expect("the spill is claimable by anyone");
        assert_eq!((src, roots.len()), (CtrlClaimSource::Spill, 3));
        assert!(!l.finished(), "the outstanding batch blocks termination");
        l.batch_done();
        assert!(l.finished());
    }

    #[test]
    fn lost_roots_reconstruct_the_dead_parts_exact_work() {
        let mut l = ledger(true, 8, None);
        // Part 1 claims two batches, donates part of the first back, and
        // then dies. Part 0 adopts the donation (it survives, so those
        // roots are its problem, not the recovery pass's).
        let (_, first) = l.claim(1, 2).expect("first batch");
        l.claim(1, 2).expect("second batch");
        l.donate(1, &first);
        let (src, adopted) = l.claim(0, 0).expect("spill claim");
        assert_eq!((src, adopted.clone()), (CtrlClaimSource::Spill, first));
        let mut lost = l.lost_roots(&[1]);
        // Lost = claimed (4) − donated (2) + the unclaimed tail (2), which
        // is drained: no root is both lost and still claimable.
        assert_eq!(lost.len(), 4);
        assert_eq!(l.remaining(1), 0);
        // The adoption and the lost set cover part 1's roots exactly once.
        lost.extend(adopted);
        lost.sort_unstable();
        assert_eq!(lost, (100..106).collect::<Vec<_>>());
    }

    #[test]
    fn unclaimed_donations_are_lost_roots_even_from_survivors() {
        let mut l = ledger(true, 8, None);
        let (_, mine) = l.claim(0, 4).expect("own roots");
        l.donate(0, &mine[..3]);
        // Nobody claims the donation before the run aborts: the roots
        // must surface as lost even though part 0 survived.
        let lost = l.lost_roots(&[2]);
        assert_eq!(lost[lost.len() - 3..], mine[..3]);
        assert_eq!(lost.len(), 9 + 3, "part 2's tail plus the orphaned spill");
        assert_eq!(l.summary().spill_len, 0);
    }

    #[test]
    fn recovery_shares_claim_as_own_and_steal_the_rest() {
        // A recovery pass: survivors get placed shares, the dead part 3
        // gets nothing, and stealing is on.
        let mut l =
            Ledger::new(vec![vec![10, 11, 12], Vec::new(), vec![20], Vec::new()], true, 8, None);
        assert_eq!(l.claim(0, 8), Some((CtrlClaimSource::Own, vec![10, 11, 12])));
        assert_eq!(l.claim(1, 8), Some((CtrlClaimSource::Stolen(2), vec![20])));
        assert_eq!(l.claim(3, 8), None);
        l.batch_done();
        assert!(!l.finished());
        l.batch_done();
        assert!(l.finished());
    }

    #[test]
    fn starving_flags_and_the_summary_track_the_state() {
        let mut l = ledger(true, 8, None);
        l.set_starving(1, true);
        l.set_starving(1, true);
        l.set_starving(2, true);
        assert_eq!(l.starving(), 2, "a flag counts its part once");
        l.set_starving(1, false);
        l.claim(0, 4);
        l.donate(0, &[1, 2]);
        assert_eq!(
            l.summary(),
            LedgerStateSummary {
                carrier: "",
                available: true,
                quiescent: false,
                starving: 1,
                spill_len: 2,
                per_part_remaining: vec![6, 6, 9, 3],
                poisoned: None,
            }
        );
    }

    #[test]
    fn dropped_replies_are_replayed_not_reapplied() {
        // Every message from part 0 is dropped on its first attempt
        // (seq parity makes drops deterministic per attempt is not
        // guaranteed, so drop *everything* and rely on dedup: with
        // drop_fraction 1.0 every attempt loses its reply and the call
        // must exhaust retries — instead use 0.5 and many attempts).
        let plan = FaultPlan { drop_fraction: 0.5, ..FaultPlan::default() };
        let svc = service(vec![vec![1, 2, 3, 4]], false, 2, Some(plan));
        let c0 = svc.client(0);
        // Each claim is applied exactly once despite lost replies: four
        // owned roots at own_batch 2 yield exactly two claims.
        let (_, first) = claimed(c0.call(CtrlOp::Claim { own_batch: 2 }).unwrap());
        let (_, second) = claimed(c0.call(CtrlOp::Claim { own_batch: 2 }).unwrap());
        assert_eq!((first, second), (vec![1, 2], vec![3, 4]));
        assert_eq!(c0.call(CtrlOp::Claim { own_batch: 2 }).unwrap(), CtrlPayload::NoWork);
        c0.call(CtrlOp::BatchDone).unwrap();
        c0.call(CtrlOp::BatchDone).unwrap();
        assert_eq!(
            c0.call(CtrlOp::Poll).unwrap(),
            CtrlPayload::Status { finished: true, starving: 0 }
        );
    }

    #[test]
    fn injected_errors_retry_and_converge() {
        let plan = FaultPlan { error_fraction: 0.5, ..FaultPlan::default() };
        let svc = service(vec![vec![7]], false, 2, Some(plan));
        let c0 = svc.client(0);
        let (_, roots) = claimed(c0.call(CtrlOp::Claim { own_batch: 2 }).unwrap());
        assert_eq!(roots, vec![7]);
    }

    #[test]
    fn exhausted_retries_fail_typed() {
        let plan = FaultPlan { drop_fraction: 1.0, ..FaultPlan::default() };
        let cfg = ControlLedgerConfig {
            retry: RetryPolicy {
                max_attempts: 3,
                timeout: Duration::from_millis(5),
                backoff: Duration::from_micros(100),
            },
            fault: Some(plan),
            ..ControlLedgerConfig::default()
        };
        let svc = ControlLedgerService::start(
            vec![vec![1]],
            cfg,
            &ClusterMetrics::new(1, 1),
            Recorder::disabled(),
        );
        let c0 = svc.client(0);
        assert_eq!(
            c0.call(CtrlOp::Claim { own_batch: 1 }),
            Err(FetchError::Timeout { target: 0, attempts: 3 })
        );
    }

    #[test]
    fn control_counters_account_sends_drops_and_retries() {
        let plan = FaultPlan { drop_fraction: 0.5, ..FaultPlan::default() };
        let n = 1;
        let metrics = ClusterMetrics::new(n, 1);
        let cfg = ControlLedgerConfig {
            retry: RetryPolicy {
                max_attempts: 10,
                timeout: Duration::from_millis(30),
                backoff: Duration::from_micros(200),
            },
            fault: Some(plan),
            ..ControlLedgerConfig::default()
        };
        let svc =
            ControlLedgerService::start(vec![vec![1, 2]], cfg, &metrics, Recorder::disabled());
        let c0 = svc.client(0);
        for _ in 0..8 {
            let _ = c0.call(CtrlOp::Poll).unwrap();
        }
        let part = metrics.part(0).counters.snapshot();
        let (sent, retried) = (part[Counter::CtrlSent], part[Counter::CtrlRetried]);
        assert!(sent >= 8, "every call sends at least once, got {sent}");
        assert_eq!(sent, 8 + retried, "each retry is one extra send");
        assert!(part[Counter::CtrlDropped] <= sent);
        // Query counters see the same events.
        assert_eq!(metrics.query(0).snapshot(), part);
    }
}
