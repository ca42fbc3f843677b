//! The message-based carrier of the [`ControlPlane`] trait.
//!
//! [`MsgLedger`] keeps **no shared coordination state**: every claim,
//! steal, donation, retirement, starvation signal, quiescence vote, and
//! recovery-log query is a typed [`gpm_cluster::CtrlOp`] sent through a
//! per-part [`gpm_cluster::ControlClient`] to the run's single
//! [`gpm_cluster::ControlLedgerService`] responder thread, with the data
//! fabric's retry/backoff discipline and deterministic fault injection.
//! The responder runs the same [`gpm_cluster::Ledger`] state machine the
//! shared-memory carrier ([`crate::scheduler::SharedLedger`]) locks in
//! place, so the two carriers are interchangeable per run and produce
//! bit-identical counts; `EngineConfig::control` picks between them.

use crate::incident::{ledger_json, CaptureSections, IncidentManager, Trigger, TriggerKind};
use crate::scheduler::ControlPlane;
use gpm_cluster::{
    ClusterMetrics, ControlClient, ControlLedgerConfig, ControlLedgerService, CtrlClaimSource,
    CtrlOp, CtrlPayload, FaultPlan, FetchError, LedgerStateSummary, RetryPolicy,
};
use gpm_graph::VertexId;
use gpm_obs::Recorder;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// Which carrier runs the cross-part work-coordination protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ControlMode {
    /// The ledger behind a mutex in shared memory (the default).
    #[default]
    Shared,
    /// Typed control messages over the cluster's channel layer, with
    /// retry/backoff and fault injection — the carrier that can stretch
    /// over a real multi-process transport.
    Msg,
}

/// Control-plane selection and, for the message carrier, its wire knobs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ControlConfig {
    /// Which carrier coordinates cross-part work.
    pub mode: ControlMode,
    /// Timeout/retry policy of control messages (message carrier only).
    pub retry: RetryPolicy,
    /// Optional deterministic fault plan applied to control messages —
    /// *not* to data fetches, which have their own plan in
    /// `EngineConfig::fault` (message carrier only).
    pub fault: Option<FaultPlan>,
}

/// The message-based [`ControlPlane`]: per-part clients in front of one
/// run-scoped responder thread owning all coordination state.
///
/// The fire-and-forget trait operations (`batch_done`, `donate`,
/// `set_starving`) cannot surface wire errors through their signatures;
/// losing one would corrupt the protocol (a never-retired batch wedges
/// quiescence), so a failure **poisons** the ledger and the next fallible
/// call (`claim`, `finished`, `lost_roots`) reports it — the run fails
/// typed instead of hanging or miscounting.
pub(crate) struct MsgLedger {
    /// Owns the responder thread; dropped (and joined) with the ledger.
    _service: ControlLedgerService,
    clients: Vec<ControlClient>,
    stealing: bool,
    poisoned: Mutex<Option<FetchError>>,
    /// Query this ledger coordinates, stamped into poison incidents.
    query: u64,
    /// Incident sink; the first poison captures a `control_poison`
    /// bundle here before the run fails typed.
    incidents: Option<Arc<IncidentManager>>,
}

impl MsgLedger {
    /// Starts a responder over a [`gpm_cluster::Ledger`] of `roots`
    /// (one claimable root list per part) configured by `cfg`, and one
    /// client per part.
    pub(crate) fn start(
        roots: Vec<Vec<VertexId>>,
        cfg: ControlLedgerConfig,
        metrics: &ClusterMetrics,
        obs: Arc<Recorder>,
        incidents: Option<Arc<IncidentManager>>,
    ) -> MsgLedger {
        let n = roots.len();
        let (stealing, query) = (cfg.stealing, cfg.query);
        let service = ControlLedgerService::start(roots, cfg, metrics, obs);
        let clients = (0..n).map(|p| service.client(p)).collect();
        MsgLedger {
            _service: service,
            clients,
            stealing,
            poisoned: Mutex::new(None),
            query,
            incidents,
        }
    }

    /// Records the first wire failure of a fire-and-forget operation and
    /// captures a `control_poison` incident bundle for it — the moment
    /// the protocol degrades, not when the next fallible call notices.
    fn poison(&self, e: FetchError) {
        {
            let mut guard = self.poisoned.lock();
            if guard.is_some() {
                return;
            }
            *guard = Some(e.clone());
        }
        if let Some(m) = &self.incidents {
            m.capture(
                Trigger {
                    kind: TriggerKind::ControlPoison,
                    query_id: self.query,
                    part: None,
                    value: 0,
                    detail: format!("control-plane poisoned by a fire-and-forget failure: {e:?}"),
                },
                CaptureSections {
                    progress: Vec::new(),
                    counters: None,
                    ledger: Some(ledger_json(&ControlPlane::state_summary(self))),
                },
            );
        }
    }

    fn check_poison(&self) -> Result<(), FetchError> {
        match self.poisoned.lock().clone() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl ControlPlane for MsgLedger {
    fn stealing(&self) -> bool {
        self.stealing
    }

    fn claim(
        &self,
        me: usize,
        own_batch: usize,
    ) -> Result<Option<(CtrlClaimSource, Vec<VertexId>)>, FetchError> {
        self.check_poison()?;
        match self.clients[me].call(CtrlOp::Claim { own_batch })? {
            CtrlPayload::Claimed { source, roots } => Ok(Some((source, roots))),
            CtrlPayload::NoWork => Ok(None),
            other => {
                debug_assert!(false, "claim answered with {other:?}");
                Err(FetchError::Shutdown)
            }
        }
    }

    fn batch_done(&self, me: usize) {
        if let Err(e) = self.clients[me].call(CtrlOp::BatchDone) {
            self.poison(e);
        }
    }

    fn donate(&self, donor: usize, roots: Vec<VertexId>) {
        if roots.is_empty() {
            return;
        }
        if let Err(e) = self.clients[donor].call(CtrlOp::Donate { roots }) {
            self.poison(e);
        }
    }

    fn set_starving(&self, me: usize, on: bool) {
        if let Err(e) = self.clients[me].call(CtrlOp::Starving { on }) {
            self.poison(e);
        }
    }

    fn starving(&self, me: usize) -> usize {
        match self.clients[me].call(CtrlOp::Poll) {
            Ok(CtrlPayload::Status { starving, .. }) => starving,
            Ok(_) => 0,
            Err(e) => {
                self.poison(e);
                0
            }
        }
    }

    fn finished(&self, me: usize) -> Result<bool, FetchError> {
        self.check_poison()?;
        match self.clients[me].call(CtrlOp::Poll)? {
            CtrlPayload::Status { finished, .. } => Ok(finished),
            other => {
                debug_assert!(false, "poll answered with {other:?}");
                Err(FetchError::Shutdown)
            }
        }
    }

    fn wait_for_work(&self, _me: usize) {
        // No condvar spans the wire; a short timed park matches the
        // shared ledger's 1 ms idle slice and keeps the poll loop from
        // hammering the responder.
        std::thread::sleep(Duration::from_millis(1));
    }

    fn lost_roots(&self, dead: &[usize]) -> Result<Vec<VertexId>, FetchError> {
        self.check_poison()?;
        match self.clients[0].call(CtrlOp::CloseDead { dead: dead.to_vec() })? {
            CtrlPayload::Lost { roots } => Ok(roots),
            other => {
                debug_assert!(false, "close-dead answered with {other:?}");
                Err(FetchError::Shutdown)
            }
        }
    }

    /// Deliberately wire-free: incident capture runs exactly when the
    /// wire is suspect (poison, stall), so this reports only what the
    /// client side knows — carrier, availability, and the poison cause —
    /// rather than risking a retry storm mid-bundle.
    fn state_summary(&self) -> LedgerStateSummary {
        let poisoned = self.poisoned.lock().as_ref().map(|e| format!("{e:?}"));
        LedgerStateSummary {
            carrier: "msg",
            available: poisoned.is_none(),
            quiescent: false,
            starving: 0,
            spill_len: 0,
            per_part_remaining: Vec::new(),
            poisoned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::SharedLedger;
    use gpm_cluster::Ledger;

    /// One step of a seeded op script. Arguments that depend on earlier
    /// replies (which roots to donate, whether a batch is held) are
    /// derived by [`drive`] from the replies themselves, so carriers that
    /// agree stay in lockstep and carriers that diverge show it in the
    /// outcome log.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Claim { me: usize, own_batch: usize },
        Donate { me: usize },
        BatchDone { me: usize },
        Starving { me: usize, on: bool },
        Finished { me: usize },
    }

    #[derive(Debug, PartialEq)]
    enum Outcome {
        Claim(Option<(CtrlClaimSource, Vec<VertexId>)>),
        Starving(usize),
        Finished(bool),
        Lost(Vec<VertexId>),
    }

    const PARTS: usize = 4;

    fn script(seed: u64, len: usize) -> Vec<Step> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n) as usize
        };
        (0..len)
            .map(|_| {
                let me = next(PARTS as u64);
                match next(10) {
                    0..=3 => Step::Claim { me, own_batch: [0, 1, 3, 8, 64][next(5)] },
                    4 => Step::Donate { me },
                    5 | 6 => Step::BatchDone { me },
                    7 | 8 => Step::Starving { me, on: next(2) == 0 },
                    _ => Step::Finished { me },
                }
            })
            .collect()
    }

    /// Runs `steps` through `ledger`, then reconstructs the lost roots of
    /// the `dead` parts, logging every reply.
    fn drive(ledger: &dyn ControlPlane, steps: &[Step], dead: &[usize]) -> Vec<Outcome> {
        let mut held: Vec<Vec<Vec<VertexId>>> = vec![Vec::new(); PARTS];
        let mut log = Vec::new();
        for &step in steps {
            match step {
                Step::Claim { me, own_batch } => {
                    let claim = ledger.claim(me, own_batch).unwrap();
                    if let Some((_, roots)) = &claim {
                        held[me].push(roots.clone());
                    }
                    log.push(Outcome::Claim(claim));
                }
                Step::Donate { me } => {
                    if let Some(batch) = held[me].last_mut() {
                        let tail = batch.split_off(batch.len() / 2);
                        ledger.donate(me, tail);
                    }
                }
                Step::BatchDone { me } => {
                    if held[me].pop().is_some() {
                        ledger.batch_done(me);
                    }
                }
                Step::Starving { me, on } => {
                    ledger.set_starving(me, on);
                    log.push(Outcome::Starving(ledger.starving(me)));
                }
                Step::Finished { me } => log.push(Outcome::Finished(ledger.finished(me).unwrap())),
            }
        }
        log.push(Outcome::Lost(ledger.lost_roots(dead).unwrap()));
        log.push(Outcome::Finished(ledger.finished(0).unwrap()));
        log
    }

    #[test]
    fn shared_and_msg_carriers_run_the_same_state_machine() {
        let roots: Vec<Vec<VertexId>> = [20, 0, 13, 5]
            .iter()
            .enumerate()
            .map(|(p, &n)| (0..n).map(|i| 100 * p as VertexId + i).collect())
            .collect();
        let msg = |stealing: bool, fault: Option<FaultPlan>| {
            let cfg = ControlLedgerConfig {
                stealing,
                batch: 3,
                numa: Some(2),
                retry: RetryPolicy {
                    max_attempts: 40,
                    timeout: Duration::from_millis(5),
                    backoff: Duration::from_micros(50),
                },
                fault,
                query: 0,
            };
            MsgLedger::start(
                roots.clone(),
                cfg,
                &ClusterMetrics::new(PARTS, 1),
                Recorder::disabled(),
                None,
            )
        };
        for seed in 0..6u64 {
            let stealing = seed % 3 != 0;
            let steps = script(seed, 120);
            let dead = [vec![1], vec![2], vec![0, 3]][seed as usize % 3].clone();
            let shared = SharedLedger::new(Ledger::new(roots.clone(), stealing, 3, Some(2)));
            let expect = drive(&shared, &steps, &dead);
            assert!(expect.iter().any(|o| matches!(o, Outcome::Claim(Some(_)))));
            assert_eq!(drive(&msg(stealing, None), &steps, &dead), expect, "seed {seed}");
            // Exactly-once replay: lost replies are answered from the
            // responder's cache, so drops change no reply.
            let drops = msg(stealing, Some(FaultPlan::drops(0.25)));
            assert_eq!(drive(&drops, &steps, &dead), expect, "seed {seed} under drops");
        }
    }

    #[test]
    fn first_poison_captures_a_control_poison_bundle() {
        use crate::incident::IncidentConfig;
        use gpm_obs::FlightRecorder;
        let dir = std::env::temp_dir().join(format!("khuzdul-ctrl-poison-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = IncidentConfig { dir: Some(dir.clone()), ..IncidentConfig::default() };
        let incidents = IncidentManager::new(&cfg, FlightRecorder::new(64), "t".to_string());
        let cfg = ControlLedgerConfig {
            stealing: true,
            batch: 4,
            retry: RetryPolicy {
                max_attempts: 2,
                timeout: Duration::from_millis(5),
                backoff: Duration::from_millis(1),
            },
            fault: Some(FaultPlan::drops(1.0)),
            query: 3,
            ..ControlLedgerConfig::default()
        };
        let ledger = MsgLedger::start(
            vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]],
            cfg,
            &ClusterMetrics::new(2, 1),
            Recorder::disabled(),
            Some(Arc::clone(&incidents)),
        );
        // Fire-and-forget ops fail on the all-drops wire and poison the
        // ledger; only the FIRST failure captures a bundle.
        ledger.batch_done(0);
        ledger.set_starving(0, true);
        let captured = incidents.incidents();
        assert_eq!(captured.len(), 1, "exactly one bundle per poisoning");
        assert_eq!(captured[0].trigger, "control_poison");
        assert_eq!(captured[0].query_id, 3);
        let json = std::fs::read_to_string(&captured[0].path).unwrap();
        crate::incident::validate_bundle(&json).expect("poison bundle validates");
        assert!(json.contains("\"msg\""), "bundle names the msg carrier");
        assert!(
            json.contains("\"available\": false") || json.contains("\"available\":false"),
            "poisoned ledger reports unavailable"
        );
        assert!(ledger.claim(0, 4).is_err(), "poison surfaces on the next fallible call");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
