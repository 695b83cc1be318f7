//! Server-side request evaluation: one [`ServeState`] owns everything a
//! connection worker needs to answer a decoded [`Request`].
//!
//! Index-domain verbs (`range_sum` / `range_avg` / `point` /
//! `range_count`) are answered against the fleet-global gathered snapshot
//! ([`FleetHandle::snapshot_global`]), so their staleness contract is the
//! fleet's: the snapshot reflects every record whose ingest call returned
//! before the query began, and generation caching means repeated queries
//! between ingests are free. Value-domain verbs (`quantile` /
//! `selectivity`) are answered from serve-side sketches (a
//! [`GkSummary`] and an [`MrlSummary`]) fed by this state's own ingest
//! helpers — the positional histogram cannot answer them, and the paper's
//! quantile substrates can.
//!
//! Every failure becomes a structured [`WireError`]; nothing a request
//! can carry reaches a panic. The three load-bearing guards:
//!
//! * [`Query::validate`](streamhist_core::Query::validate) runs against
//!   the snapshot's domain before any evaluation (inverted and
//!   out-of-domain ranges are data, not bugs);
//! * quantile/selectivity arguments are checked (finite, `phi` in
//!   `[0, 1]`, non-empty sketch) before touching the sketches, whose
//!   trait methods are allowed to panic on misuse;
//! * every scalar answer is checked finite before encoding, because the
//!   wire codec rejects non-finite `f64`s by design.

use crate::protocol::{ErrorCode, QuantileMethod, Request, Response, WireError, EVENTS_PAGE_MAX};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use streamhist_core::StreamhistError;
use streamhist_obs::{EventKind, FlightRecorder, LatencyRecorder, MetricsRegistry};
use streamhist_quantile::{GkSummary, MrlSummary, QuantileSummary};
use streamhist_stream::{
    Coverage, FleetHandle, ShardHealth, ShardState, SnapshotPolicy, SupervisorHandle,
};

/// Default GK rank-error bound for the serve-side sketch.
pub const DEFAULT_GK_EPS: f64 = 0.01;
/// Default MRL buffer width (must be even and `>= 2`).
pub const DEFAULT_MRL_K: usize = 64;
/// Liveness-ping deadline used when a `health` request arrives on a
/// server with no supervisor attached.
const HEALTH_PING_TIMEOUT: Duration = Duration::from_millis(100);

/// Shared server state: the fleet seam, the value-domain sketches, and
/// the per-verb telemetry. Cheap to clone
/// (everything inside is shared).
#[derive(Clone)]
pub struct ServeState {
    fleet: FleetHandle,
    gk: Arc<Mutex<GkSummary>>,
    mrl: Arc<Mutex<MrlSummary>>,
    registry: Arc<MetricsRegistry>,
    /// How histogram verbs gather the fleet-global snapshot. `Strict`
    /// (the default) errors on any dead shard; `Degraded` answers from
    /// the live subset and reports the coverage honestly.
    policy: SnapshotPolicy,
    /// The supervisor's view, when one is running — the `health` verb
    /// answers from its state machine instead of synthesizing pings.
    supervisor: Option<SupervisorHandle>,
    /// The fleet's flight recorder: the `events` verb reads it, and the
    /// serve layer lands slow-query timelines and shed-load events in it.
    recorder: Arc<FlightRecorder>,
    /// Counter behind server-assigned trace ids for requests that arrive
    /// without one (see the protocol module docs).
    next_trace: Arc<AtomicU64>,
}

impl ServeState {
    /// Builds a state over `fleet` with default sketch parameters,
    /// registering its metrics in `registry`.
    #[must_use]
    pub fn new(fleet: FleetHandle, registry: Arc<MetricsRegistry>) -> Self {
        Self::with_sketches(fleet, registry, DEFAULT_GK_EPS, DEFAULT_MRL_K)
    }

    /// Builds a state with explicit sketch parameters.
    ///
    /// # Panics
    ///
    /// As [`GkSummary::new`] / [`MrlSummary::new`]: `eps` must be in
    /// `(0, 1)` and `k` even and `>= 2`. These are operator
    /// configuration, not wire input, so the constructor contract is the
    /// sketches' own.
    #[must_use]
    pub fn with_sketches(
        fleet: FleetHandle,
        registry: Arc<MetricsRegistry>,
        eps: f64,
        k: usize,
    ) -> Self {
        let recorder = fleet.recorder();
        Self {
            fleet,
            gk: Arc::new(Mutex::new(GkSummary::new(eps))),
            mrl: Arc::new(Mutex::new(MrlSummary::new(k))),
            registry,
            policy: SnapshotPolicy::Strict,
            supervisor: None,
            recorder,
            next_trace: Arc::new(AtomicU64::new(1)),
        }
    }

    /// Sets the gather policy for histogram verbs. With
    /// [`SnapshotPolicy::Degraded`], a dead or quarantined shard no
    /// longer fails the query: the answer comes from the live subset and
    /// every scalar response carries the resulting [`Coverage`].
    #[must_use]
    pub fn with_policy(mut self, policy: SnapshotPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attaches a supervisor's handle so the `health` verb reports its
    /// live state machine (instead of synthesizing from one-off pings).
    #[must_use]
    pub fn with_supervisor(mut self, supervisor: SupervisorHandle) -> Self {
        self.supervisor = Some(supervisor);
        self
    }

    /// The gather policy histogram verbs run under.
    #[must_use]
    pub fn policy(&self) -> SnapshotPolicy {
        self.policy
    }

    /// The fleet handle (for admin paths outside the wire, e.g. the CLI
    /// host's own ingest loop).
    #[must_use]
    pub fn fleet(&self) -> &FleetHandle {
        &self.fleet
    }

    /// The metrics registry this state reports into.
    #[must_use]
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The fleet's flight recorder (shared with the supervisor and the
    /// durability uploader; also behind the `events` verb).
    #[must_use]
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// A fresh server-assigned trace id, for requests that arrive without
    /// one. Never 0, so a log line can print 0 for "untraced".
    #[must_use]
    pub fn new_trace(&self) -> u64 {
        self.next_trace.fetch_add(1, Ordering::Relaxed)
    }

    /// Ingests one keyed record into the fleet *and* the value-domain
    /// sketches, keeping the two query surfaces in sync.
    ///
    /// # Errors
    ///
    /// [`StreamhistError::NonFiniteValue`] for NaN/inf (nothing is
    /// mutated); [`StreamhistError::CapacityExhausted`] if the routed
    /// shard's worker has died (the fleet error, re-described).
    pub fn ingest(&self, key: u64, v: f64) -> Result<(), StreamhistError> {
        if !v.is_finite() {
            return Err(StreamhistError::NonFiniteValue { value: v });
        }
        self.fleet
            .push(key, v)
            .map_err(|_| StreamhistError::InvalidParameter {
                param: "shard",
                message: "routed shard's worker has died; respawn it",
            })?;
        self.gk
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(v);
        self.mrl
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(v);
        Ok(())
    }

    /// Scatter-ingests a slab: the fleet sees it via
    /// [`FleetHandle::push_batch_scatter`], the sketches see every value.
    /// Non-finite values are rejected up front, all-or-nothing.
    ///
    /// # Errors
    ///
    /// As [`ServeState::ingest`].
    pub fn ingest_scatter(&self, values: &[f64]) -> Result<(), StreamhistError> {
        if let Some(&bad) = values.iter().find(|v| !v.is_finite()) {
            return Err(StreamhistError::NonFiniteValue { value: bad });
        }
        self.fleet
            .push_batch_scatter(values)
            .map_err(|_| StreamhistError::InvalidParameter {
                param: "shard",
                message: "a shard worker has died; respawn it",
            })?;
        let mut gk = self.gk.lock().unwrap_or_else(PoisonError::into_inner);
        let mut mrl = self.mrl.lock().unwrap_or_else(PoisonError::into_inner);
        for &v in values {
            gk.push(v);
            mrl.push(v);
        }
        Ok(())
    }

    /// Answers one request, recording the per-verb counter and latency.
    /// This is the connection workers' entry point.
    ///
    /// # Errors
    ///
    /// A structured [`WireError`] for the client; never panics on any
    /// decodable request.
    pub fn answer(&self, req: &Request) -> Result<Response, WireError> {
        let verb = req.verb_name();
        self.registry
            .counter_with(
                "streamhist_serve_requests_total",
                "Requests received, by verb.",
                &[("verb", verb)],
            )
            .inc();
        let start = Instant::now();
        let result = self.answer_inner(req);
        self.verb_latency(verb).record(start.elapsed());
        if let Err(e) = &result {
            self.registry
                .counter_with(
                    "streamhist_serve_errors_total",
                    "Error frames sent, by error code.",
                    &[("code", e.code.name())],
                )
                .inc();
        }
        result
    }

    /// The per-verb latency recorder (exposed so the load-test bench can
    /// read server-side p50/p99 after a run).
    #[must_use]
    pub fn verb_latency(&self, verb: &str) -> Arc<LatencyRecorder> {
        self.registry.latency_with(
            "streamhist_serve_request_latency_ns",
            "Request handling latency, by verb.",
            &[("verb", verb)],
        )
    }

    /// The per-phase latency recorder (decode / answer / encode), fed by
    /// the connection loop's span timeline.
    #[must_use]
    pub fn phase_latency(&self, phase: &str) -> Arc<LatencyRecorder> {
        self.registry.latency_with(
            "streamhist_serve_phase_latency_ns",
            "Request handling latency, by phase (decode/answer/encode).",
            &[("phase", phase)],
        )
    }

    fn answer_inner(&self, req: &Request) -> Result<Response, WireError> {
        if let Some(query) = req.as_query() {
            let (hist, _stats, coverage) =
                self.fleet.snapshot_global_with(self.policy).map_err(|e| {
                    let detail = match self.policy {
                        SnapshotPolicy::Strict => {
                            format!("shard {} worker has died; respawn it", e.shard)
                        }
                        SnapshotPolicy::Degraded { min_coverage } => format!(
                            "shard {} is down and live coverage is below the {min_coverage} floor",
                            e.shard
                        ),
                    };
                    WireError::new(ErrorCode::ShardDead, detail)
                })?;
            query
                .validate(hist.domain_len())
                .map_err(|e| WireError::new(ErrorCode::InvalidQuery, e.to_string()))?;
            let value = query
                .try_estimate(&*hist)
                .map_err(|e| WireError::new(ErrorCode::InvalidQuery, e.to_string()))?;
            return self.scalar(req, value, coverage);
        }
        match *req {
            Request::Quantile { method, phi } => {
                if !phi.is_finite() || !(0.0..=1.0).contains(&phi) {
                    return Err(WireError::new(
                        ErrorCode::InvalidQuery,
                        "quantile phi must be finite and in [0, 1]",
                    ));
                }
                let value = match method {
                    QuantileMethod::Gk => {
                        let gk = self.gk.lock().unwrap_or_else(PoisonError::into_inner);
                        if gk.count() == 0 {
                            return Err(self.empty_sketch());
                        }
                        gk.quantile(phi)
                    }
                    QuantileMethod::Mrl => {
                        let mrl = self.mrl.lock().unwrap_or_else(PoisonError::into_inner);
                        if mrl.count() == 0 {
                            return Err(self.empty_sketch());
                        }
                        mrl.quantile(phi)
                    }
                };
                self.scalar(req, value, self.sketch_coverage())
            }
            Request::Selectivity { lo, hi } => {
                if !lo.is_finite() || !hi.is_finite() {
                    return Err(WireError::new(
                        ErrorCode::InvalidQuery,
                        "selectivity bounds must be finite",
                    ));
                }
                if lo > hi {
                    return Err(WireError::new(
                        ErrorCode::InvalidQuery,
                        "inverted selectivity range (lo > hi)",
                    ));
                }
                let gk = self.gk.lock().unwrap_or_else(PoisonError::into_inner);
                let n = gk.count();
                if n == 0 {
                    return Err(self.empty_sketch());
                }
                // Fraction of ingested values v with lo < v <= hi,
                // estimated from GK ranks; clamped because each rank
                // carries eps*n error independently.
                let below_hi = gk.rank(hi) as f64;
                let below_lo = gk.rank(lo) as f64;
                #[allow(clippy::cast_precision_loss)]
                let value = ((below_hi - below_lo) / n as f64).clamp(0.0, 1.0);
                drop(gk);
                self.scalar(req, value, self.sketch_coverage())
            }
            Request::ShardStats { shard } => {
                let metrics = self
                    .fleet
                    .metrics(shard)
                    .map_err(|e| WireError::new(ErrorCode::InvalidQuery, e.to_string()))?;
                Ok(Response::ShardStats {
                    shard,
                    shards: self.fleet.shards(),
                    metrics,
                })
            }
            Request::RespawnShard { shard } => {
                let report = self
                    .fleet
                    .respawn_shard(shard)
                    .map_err(|e| WireError::new(ErrorCode::InvalidQuery, e.to_string()))?;
                // Manual (admin-verb) respawns are recorded here; the
                // supervisor records its own restarts, and the fleet's
                // respawn primitive itself stays silent so neither path
                // double-counts.
                self.recorder.record(EventKind::ShardRestarted {
                    shard,
                    restored_len: report.restored_len,
                    lost: report.lost_since_checkpoint,
                });
                Ok(Response::Respawned {
                    restored_len: report.restored_len,
                    lost_since_checkpoint: report.lost_since_checkpoint,
                })
            }
            Request::CheckpointAll => {
                let bytes = self
                    .fleet
                    .checkpoint()
                    .map_err(|e| WireError::new(ErrorCode::Internal, e.to_string()))?;
                Ok(Response::Checkpointed { bytes })
            }
            Request::WalStatus => Ok(Response::WalStatus(self.fleet.wal_status())),
            Request::Health => Ok(self.health()),
            Request::Events { from } => Ok(Response::Events {
                recorded: self.recorder.recorded(),
                events: self.recorder.events_from(from, EVENTS_PAGE_MAX),
            }),
            // as_query() handled these above.
            Request::RangeSum { .. }
            | Request::RangeAvg { .. }
            | Request::Point { .. }
            | Request::RangeCount { .. } => unreachable!("histogram verbs handled via as_query"),
        }
    }

    /// Answers the `health` verb. With a supervisor attached the entries
    /// are its live state machine; without one the server synthesizes
    /// Live/Dead from one-off liveness pings (no failure history —
    /// `consecutive_failures` is 0 and `restarts` comes from each shard's
    /// respawn counter).
    fn health(&self) -> Response {
        if let Some(sup) = &self.supervisor {
            return Response::Health {
                supervised: true,
                shards: sup.health(),
            };
        }
        let shards = (0..self.fleet.shards())
            .map(|shard| {
                let alive = self.fleet.ping(shard, HEALTH_PING_TIMEOUT).unwrap_or(false);
                ShardHealth {
                    shard,
                    state: if alive {
                        ShardState::Live
                    } else {
                        ShardState::Dead
                    },
                    consecutive_failures: 0,
                    restarts: self.fleet.metrics(shard).map_or(0, |m| m.respawns),
                }
            })
            .collect();
        Response::Health {
            supervised: false,
            shards,
        }
    }

    /// Coverage for a sketch-backed answer: the serve-side sketches are
    /// process-local and fed synchronously by `ingest`, so they never
    /// degrade with the fleet — every value they were fed is represented.
    fn sketch_coverage(&self) -> Coverage {
        let shards = self.fleet.shards();
        let n = self
            .gk
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .count() as u64;
        Coverage {
            shards_included: shards,
            shards_total: shards,
            records_represented: n,
            records_total: n,
        }
    }

    fn empty_sketch(&self) -> WireError {
        WireError::new(
            ErrorCode::InvalidQuery,
            "no values ingested yet; the sketch is empty",
        )
    }

    /// Wraps a scalar answer, refusing to put a non-finite value on the
    /// wire (the codec would reject it at encode time anyway — this turns
    /// that into a structured error instead of a malformed frame).
    fn scalar(&self, req: &Request, value: f64, coverage: Coverage) -> Result<Response, WireError> {
        if !value.is_finite() {
            return Err(WireError::new(
                ErrorCode::Internal,
                format!("{} produced a non-finite answer", req.verb_name()),
            ));
        }
        Ok(Response::Scalar {
            verb: req.wire_verb(),
            value,
            coverage,
        })
    }
}

impl std::fmt::Debug for ServeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeState")
            .field("fleet", &self.fleet)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamhist_stream::ShardedFixedWindow;

    fn state_with_data(n: u64) -> ServeState {
        let fleet = FleetHandle::new(ShardedFixedWindow::new(2, 64, 8, 0.1));
        let state = ServeState::new(fleet, Arc::new(MetricsRegistry::new()));
        for i in 0..n {
            state.ingest(i, (i % 10) as f64).unwrap();
        }
        // Barrier: make sure the workers have drained before querying.
        let _ = state.fleet().snapshot_global();
        state
    }

    #[test]
    fn histogram_verbs_match_snapshot_answers() {
        let state = state_with_data(100);
        let (hist, _) = state.fleet().snapshot_global().unwrap();
        let wire = match state
            .answer(&Request::RangeSum { start: 0, end: 9 })
            .unwrap()
        {
            Response::Scalar {
                value,
                verb,
                coverage,
            } => {
                assert_eq!(verb, Request::RangeSum { start: 0, end: 9 }.wire_verb());
                assert!(coverage.is_complete(), "healthy strict fleet: {coverage}");
                assert_eq!(coverage.shards_total, 2);
                assert_eq!(coverage.records_total, 100);
                value
            }
            other => panic!("unexpected {other:?}"),
        };
        let direct = streamhist_core::Query::RangeSum { start: 0, end: 9 }
            .try_estimate(&*hist)
            .unwrap();
        assert!(
            (wire - direct).abs() == 0.0,
            "wire answer must be bit-identical to the in-process answer"
        );
    }

    #[test]
    fn malformed_queries_become_invalid_query_errors() {
        let state = state_with_data(50);
        for req in [
            Request::RangeSum { start: 9, end: 3 },
            Request::Point { idx: usize::MAX },
            Request::RangeAvg {
                start: 0,
                end: usize::MAX,
            },
            Request::Quantile {
                method: QuantileMethod::Gk,
                phi: 1.5,
            },
            Request::Quantile {
                method: QuantileMethod::Mrl,
                phi: f64::NAN,
            },
            Request::Selectivity { lo: 5.0, hi: 1.0 },
            Request::Selectivity {
                lo: f64::NEG_INFINITY,
                hi: 0.0,
            },
            Request::ShardStats { shard: 99 },
            Request::RespawnShard { shard: 99 },
        ] {
            let err = state.answer(&req).expect_err(req.verb_name());
            assert_eq!(err.code, ErrorCode::InvalidQuery, "{req:?} -> {err}");
        }
    }

    #[test]
    fn empty_sketches_reject_value_domain_queries() {
        let fleet = FleetHandle::new(ShardedFixedWindow::new(1, 16, 2, 0.5));
        let state = ServeState::new(fleet, Arc::new(MetricsRegistry::new()));
        for req in [
            Request::Quantile {
                method: QuantileMethod::Gk,
                phi: 0.5,
            },
            Request::Selectivity { lo: 0.0, hi: 1.0 },
        ] {
            let err = state.answer(&req).unwrap_err();
            assert_eq!(err.code, ErrorCode::InvalidQuery);
        }
    }

    #[test]
    fn quantile_and_selectivity_track_the_ingested_distribution() {
        let state = state_with_data(1000);
        let median = match state
            .answer(&Request::Quantile {
                method: QuantileMethod::Gk,
                phi: 0.5,
            })
            .unwrap()
        {
            Response::Scalar { value, .. } => value,
            other => panic!("unexpected {other:?}"),
        };
        assert!((0.0..=9.0).contains(&median), "median {median}");
        let sel = match state
            .answer(&Request::Selectivity { lo: -0.5, hi: 4.0 })
            .unwrap()
        {
            Response::Scalar { value, .. } => value,
            other => panic!("unexpected {other:?}"),
        };
        // Values 0..=4 of 0..=9, uniformly: about half.
        assert!((0.3..=0.7).contains(&sel), "selectivity {sel}");
    }

    #[test]
    fn admin_verbs_roundtrip_through_state() {
        let state = state_with_data(64);
        match state.answer(&Request::ShardStats { shard: 0 }).unwrap() {
            Response::ShardStats { shard, shards, .. } => {
                assert_eq!(shard, 0);
                assert_eq!(shards, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        let before = state.fleet().metrics_all();
        match state.answer(&Request::CheckpointAll).unwrap() {
            Response::Checkpointed { bytes } => {
                assert!(bytes > 0);
                let after = state.fleet().metrics_all();
                for (b, a) in before.iter().zip(&after) {
                    assert_eq!(a.checkpoints_taken, b.checkpoints_taken + 1);
                }
                let taken: u64 = before
                    .iter()
                    .zip(&after)
                    .map(|(b, a)| a.checkpoint_bytes - b.checkpoint_bytes)
                    .sum();
                assert_eq!(bytes, taken, "the reply is the frame bytes taken");
            }
            other => panic!("unexpected {other:?}"),
        }
        match state.answer(&Request::RespawnShard { shard: 1 }).unwrap() {
            Response::Respawned { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        match state.answer(&Request::WalStatus).unwrap() {
            Response::WalStatus(status) => {
                assert!(!status.enabled, "test fleet has no durability pipeline");
                assert_eq!(status.segments_written, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unsupervised_health_synthesizes_live_and_dead_from_pings() {
        let state = state_with_data(32);
        state.fleet().inject_worker_panic(1).unwrap().unwrap();
        // Barrier: a failed ping proves the worker exited.
        assert!(!state
            .fleet()
            .ping(1, std::time::Duration::from_secs(5))
            .unwrap());
        match state.answer(&Request::Health).unwrap() {
            Response::Health { supervised, shards } => {
                assert!(!supervised, "no supervisor attached");
                assert_eq!(shards.len(), 2);
                assert_eq!(shards[0].state, ShardState::Live);
                assert_eq!(shards[1].state, ShardState::Dead);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn degraded_policy_answers_over_a_dead_shard_with_honest_coverage() {
        let fleet = FleetHandle::new(ShardedFixedWindow::new(2, 64, 8, 0.1));
        let strict = ServeState::new(fleet, Arc::new(MetricsRegistry::new()));
        let degraded = strict
            .clone()
            .with_policy(SnapshotPolicy::Degraded { min_coverage: 0.25 });
        for i in 0..100u64 {
            strict.ingest(i, (i % 10) as f64).unwrap();
        }
        let _ = strict.fleet().snapshot_global();
        strict.fleet().inject_worker_panic(1).unwrap().unwrap();
        assert!(!strict
            .fleet()
            .ping(1, std::time::Duration::from_secs(5))
            .unwrap());
        // Advance the live shard so the cached healthy snapshot is stale
        // and the query is forced into a real gather. The per-shard
        // snapshot is a queue barrier: the push is queued asynchronously,
        // and without the barrier the strict gather below can run before
        // the worker bumps its accepted counter, see a fresh-looking
        // cache, and serve the stale healthy snapshot.
        strict.fleet().push(0, 1.0).unwrap();
        strict.fleet().snapshot_shard(0).unwrap().unwrap();

        let err = strict
            .answer(&Request::RangeSum { start: 0, end: 0 })
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::ShardDead, "strict policy must fail");

        // 0..=usize::MAX-1 is out of domain for the shrunken snapshot too,
        // so query something the live shard can answer.
        match degraded
            .answer(&Request::RangeSum { start: 0, end: 0 })
            .unwrap()
        {
            Response::Scalar { coverage, .. } => {
                assert_eq!(coverage.shards_included, 1);
                assert_eq!(coverage.shards_total, 2);
                assert_eq!(coverage.records_total, 101);
                assert!(
                    coverage.records_represented < 101,
                    "dead shard's records must not be claimed: {coverage}"
                );
                assert!(!coverage.is_complete());
            }
            other => panic!("unexpected {other:?}"),
        }

        // A floor above what the live shard holds turns the degraded
        // answer back into a structured error.
        let floored = strict
            .clone()
            .with_policy(SnapshotPolicy::Degraded { min_coverage: 0.99 });
        let err = floored
            .answer(&Request::RangeSum { start: 0, end: 0 })
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::ShardDead);
    }

    #[test]
    fn sketch_verbs_report_complete_coverage() {
        let state = state_with_data(50);
        match state
            .answer(&Request::Quantile {
                method: QuantileMethod::Gk,
                phi: 0.5,
            })
            .unwrap()
        {
            Response::Scalar { coverage, .. } => {
                assert!(coverage.is_complete());
                assert_eq!(coverage.records_total, 50);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn events_verb_pages_the_recorder_and_respawn_is_recorded() {
        let state = state_with_data(16);
        match state.answer(&Request::Events { from: 0 }).unwrap() {
            Response::Events { recorded, events } => {
                assert_eq!(recorded, 0, "fresh fleet has no events");
                assert!(events.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        state.answer(&Request::RespawnShard { shard: 0 }).unwrap();
        match state.answer(&Request::Events { from: 0 }).unwrap() {
            Response::Events { recorded, events } => {
                assert_eq!(recorded, 1);
                assert_eq!(events.len(), 1);
                assert!(
                    matches!(events[0].kind, EventKind::ShardRestarted { shard: 0, .. }),
                    "{events:?}"
                );
                // Paging past the end is empty but `recorded` still tells
                // the client where the stream stands.
                let next = events[0].seq + 1;
                match state.answer(&Request::Events { from: next }).unwrap() {
                    Response::Events { recorded, events } => {
                        assert_eq!(recorded, 1);
                        assert!(events.is_empty());
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ingest_rejects_non_finite_before_mutating() {
        let state = state_with_data(0);
        assert!(state.ingest(1, f64::NAN).is_err());
        assert!(state.ingest_scatter(&[1.0, f64::INFINITY]).is_err());
        assert!(matches!(
            state
                .answer(&Request::Quantile {
                    method: QuantileMethod::Gk,
                    phi: 0.5
                })
                .unwrap_err()
                .code,
            ErrorCode::InvalidQuery
        ));
    }
}
