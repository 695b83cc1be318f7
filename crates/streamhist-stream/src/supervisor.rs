//! Self-healing for a sharded fleet: health probing, automatic respawn,
//! and quarantine.
//!
//! A [`ShardedFixedWindow`](crate::ShardedFixedWindow) already *tolerates*
//! a dead shard — every operation addressed to it fails fast with a
//! [`ShardError`](crate::ShardError) — but until this module, *repair* was
//! manual: someone had to notice and call `respawn_shard`. The
//! [`Supervisor`] closes that loop. It probes each shard with a liveness
//! ping ([`ShardedFixedWindow::ping`](crate::ShardedFixedWindow::ping)
//! piggybacks on the shard queues, so a positive answer proves the worker
//! is draining, not merely scheduled), and drives each shard through a
//! small state machine:
//!
//! ```text
//!              ping ok                 ping fails
//!    ┌──────────────────────┐   ┌─────────────────────┐
//!    ▼                      │   ▼                     │
//! [Live] ──ping fails──▶ [Dead] ──respawn──▶ [Recovering] ──ping ok──▶ [Live]
//!                           │ N consecutive               (failures reset
//!                           │ fast failures                after the shard
//!                           ▼                              outlives the
//!                     [Quarantined] ──backoff elapsed──▶ [Recovering]
//! ```
//!
//! Respawns go through the store-backed recovery path
//! ([`FleetHandle::respawn_shard`] under the fleet's write lock) and are
//! **rate-limited** by a token bucket: a crash loop cannot turn the
//! supervisor into a `respawn_shard` busy-loop that starves producers of
//! the lock. A shard that keeps dying within
//! [`flap_window`](SupervisorOptions::flap_window) of its restart is
//! **quarantined** after
//! [`quarantine_after`](SupervisorOptions::quarantine_after) consecutive
//! failures: the supervisor stops restarting it until
//! [`quarantine_backoff`](SupervisorOptions::quarantine_backoff) elapses,
//! then grants one probation restart. While a shard sits in quarantine the
//! fleet keeps serving *degraded* global snapshots
//! ([`SnapshotPolicy::Degraded`](crate::SnapshotPolicy)) whose
//! [`Coverage`](crate::Coverage) report says exactly what is missing.
//!
//! Everything the background thread does is also available synchronously:
//! [`Supervisor::probe_once`] runs one full probe pass and returns the
//! transitions it made, which is how the chaos tests drive the state
//! machine deterministically (no thread, no timing races).

use crate::serve::FleetHandle;
use crate::sharded::RecoveryReport;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use streamhist_core::StreamhistError;
use streamhist_obs::{Counter, EventKind, FlightRecorder, Gauge, MetricsRegistry};

/// Where a shard sits in the supervisor's state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// The worker answered its last probe.
    Live,
    /// The worker is gone and a restart has not happened yet (detected
    /// this pass, or deferred because the token bucket is empty).
    Dead,
    /// Restarted; not yet re-probed alive.
    Recovering,
    /// Too many consecutive fast failures; restarts are suspended until
    /// the quarantine backoff elapses.
    Quarantined,
}

impl ShardState {
    /// Stable small-integer encoding (wire and metrics): Live=0, Dead=1,
    /// Recovering=2, Quarantined=3.
    #[must_use]
    pub fn as_u8(self) -> u8 {
        match self {
            Self::Live => 0,
            Self::Dead => 1,
            Self::Recovering => 2,
            Self::Quarantined => 3,
        }
    }

    /// Inverse of [`as_u8`](Self::as_u8).
    #[must_use]
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(Self::Live),
            1 => Some(Self::Dead),
            2 => Some(Self::Recovering),
            3 => Some(Self::Quarantined),
            _ => None,
        }
    }

    /// Lowercase human name (CLI and exposition).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Live => "live",
            Self::Dead => "dead",
            Self::Recovering => "recovering",
            Self::Quarantined => "quarantined",
        }
    }
}

impl fmt::Display for ShardState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Tuning for a [`Supervisor`]. The defaults suit a serving fleet probed
/// every 25ms; chaos tests override almost everything (e.g. a zero
/// `quarantine_backoff` for deterministic probation).
#[derive(Debug, Clone, Copy)]
pub struct SupervisorOptions {
    /// How often the background thread runs a probe pass (manual
    /// [`probe_once`](Supervisor::probe_once) callers ignore it).
    /// Validated ≥ 1ms.
    pub probe_interval: Duration,
    /// How long a probed worker gets to answer its ping before it reads
    /// as dead. Must be nonzero.
    pub ping_timeout: Duration,
    /// Token-bucket capacity: how many restarts may happen back-to-back
    /// before the supervisor has to wait for refills. Validated ≥ 1.
    pub restart_burst: u32,
    /// One restart token refills per this much elapsed time. A zero
    /// refill period means an always-full bucket (no rate limit).
    pub restart_refill: Duration,
    /// Consecutive fast failures before a shard is quarantined.
    /// Validated ≥ 1.
    pub quarantine_after: u32,
    /// How long a quarantined shard waits before its probation restart.
    /// Zero means probation on the very next probe pass.
    pub quarantine_backoff: Duration,
    /// A death within this much time of the shard's last restart counts
    /// as a *consecutive* failure; surviving a probe past it resets the
    /// count. Zero disables flap tracking entirely (every successful
    /// probe resets the count, so quarantine never triggers) — useful
    /// when a harness kills shards on purpose, as
    /// `threaded_supervisor_heals_without_manual_intervention` does.
    pub flap_window: Duration,
}

impl Default for SupervisorOptions {
    fn default() -> Self {
        Self {
            probe_interval: Duration::from_millis(25),
            ping_timeout: Duration::from_millis(100),
            restart_burst: 4,
            restart_refill: Duration::from_millis(250),
            quarantine_after: 5,
            quarantine_backoff: Duration::from_secs(2),
            flap_window: Duration::from_secs(1),
        }
    }
}

impl SupervisorOptions {
    fn validate(&self) -> Result<(), StreamhistError> {
        if self.probe_interval < Duration::from_millis(1) {
            return Err(StreamhistError::InvalidParameter {
                param: "probe_interval",
                message: "supervisor probe interval must be at least 1ms",
            });
        }
        if self.ping_timeout.is_zero() {
            return Err(StreamhistError::InvalidParameter {
                param: "ping_timeout",
                message: "supervisor ping timeout must be nonzero",
            });
        }
        if self.restart_burst == 0 {
            return Err(StreamhistError::InvalidParameter {
                param: "restart_burst",
                message: "restart token bucket needs capacity for at least one restart",
            });
        }
        if self.quarantine_after == 0 {
            return Err(StreamhistError::InvalidParameter {
                param: "quarantine_after",
                message: "quarantine threshold must be at least one failure",
            });
        }
        Ok(())
    }
}

/// One shard's supervisor-visible health, as reported by
/// [`Supervisor::health`] and the serve layer's `health` verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHealth {
    /// Shard index.
    pub shard: usize,
    /// Current state-machine position.
    pub state: ShardState,
    /// Consecutive fast failures counted toward quarantine.
    pub consecutive_failures: u64,
    /// Restarts this supervisor has performed on the shard.
    pub restarts: u64,
}

/// A state transition made by one probe pass — returned by
/// [`Supervisor::probe_once`] so tests can assert the exact sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisorEvent {
    /// A live/recovering shard failed its probe.
    Died {
        /// Shard index.
        shard: usize,
    },
    /// A dead shard was respawned through store-backed recovery.
    Restarted {
        /// Shard index.
        shard: usize,
        /// The recovery path's own report.
        report: RecoveryReport,
    },
    /// A dead shard's restart was deferred: the token bucket is empty.
    RestartDeferred {
        /// Shard index.
        shard: usize,
    },
    /// A shard crossed the consecutive-failure threshold.
    Quarantined {
        /// Shard index.
        shard: usize,
    },
    /// A quarantined shard's backoff elapsed and it got its probation
    /// restart.
    Probation {
        /// Shard index.
        shard: usize,
        /// The recovery path's own report — probation restarts lose
        /// records exactly like ordinary restarts, and the chaos sweeps
        /// account for both.
        report: RecoveryReport,
    },
    /// A recovering shard answered a probe and is live again.
    Recovered {
        /// Shard index.
        shard: usize,
    },
}

/// Supervisor counters, `streamhist_supervisor_*{fleet}` when registered.
#[derive(Default)]
struct SupervisorMetricsInner {
    probes: Counter,
    deaths: Counter,
    restarts: Counter,
    restarts_deferred: Counter,
    quarantines: Counter,
    probations: Counter,
    records_lost: Counter,
    shards_live: Gauge,
    shards_quarantined: Gauge,
}

impl SupervisorMetricsInner {
    fn registered(registry: &MetricsRegistry, fleet: &str) -> Self {
        let labels = &[("fleet", fleet)];
        let counter = |name: &str, help: &str| {
            registry.counter_with(&format!("streamhist_supervisor_{name}"), help, labels)
        };
        Self {
            probes: counter("probes_total", "Liveness probes sent to shard workers."),
            deaths: counter("deaths_total", "Probe passes that found a worker dead."),
            restarts: counter(
                "restarts_total",
                "Automatic respawns performed (probation restarts included).",
            ),
            restarts_deferred: counter(
                "restarts_deferred_total",
                "Restarts postponed because the token bucket was empty.",
            ),
            quarantines: counter(
                "quarantines_total",
                "Shards quarantined after consecutive fast failures.",
            ),
            probations: counter(
                "probations_total",
                "Quarantine exits: probation restarts after the backoff elapsed.",
            ),
            records_lost: counter(
                "records_lost_total",
                "Accepted records reported lost by supervisor-driven recoveries.",
            ),
            shards_live: registry.gauge_with(
                "streamhist_supervisor_shards_live",
                "Shards currently in the Live state.",
                labels,
            ),
            shards_quarantined: registry.gauge_with(
                "streamhist_supervisor_shards_quarantined",
                "Shards currently in the Quarantined state.",
                labels,
            ),
        }
    }
}

/// Point-in-time copy of the supervisor's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorMetrics {
    /// Liveness probes sent.
    pub probes: u64,
    /// Probe passes that found a worker dead.
    pub deaths: u64,
    /// Automatic respawns performed (probations included).
    pub restarts: u64,
    /// Restarts postponed by the empty token bucket.
    pub restarts_deferred: u64,
    /// Quarantine entries.
    pub quarantines: u64,
    /// Quarantine exits (probation restarts).
    pub probations: u64,
    /// Accepted records reported lost by supervisor-driven recoveries.
    pub records_lost: u64,
}

/// Per-shard mutable control state (behind the control mutex).
struct ShardControl {
    state: ShardState,
    consecutive_failures: u64,
    restarts: u64,
    last_restart: Option<Instant>,
    quarantined_at: Option<Instant>,
}

struct ControlState {
    /// Restart tokens currently available (fractional while refilling).
    tokens: f64,
    last_refill: Instant,
    shards: Vec<ShardControl>,
}

struct SupervisorInner {
    fleet: FleetHandle,
    options: SupervisorOptions,
    control: Mutex<ControlState>,
    stop: AtomicBool,
    metrics: SupervisorMetricsInner,
    /// The fleet's flight recorder, cloned at attach time: every state
    /// transition a probe pass makes is recorded exactly once, at the
    /// pass's single exit — the chaos suite reconstructs whole sweeps
    /// from this timeline alone.
    recorder: Arc<FlightRecorder>,
}

impl SupervisorInner {
    fn control(&self) -> std::sync::MutexGuard<'_, ControlState> {
        self.control.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Refills the token bucket for the time elapsed since the last
    /// refill, capped at the burst capacity.
    fn refill_tokens(&self, control: &mut ControlState) {
        let burst = f64::from(self.options.restart_burst);
        if self.options.restart_refill.is_zero() {
            control.tokens = burst;
            return;
        }
        let elapsed = control.last_refill.elapsed();
        control.last_refill = Instant::now();
        control.tokens = (control.tokens
            + elapsed.as_secs_f64() / self.options.restart_refill.as_secs_f64())
        .min(burst);
    }

    /// Restarts `shard` through the fleet's store-backed recovery path,
    /// spending one token (the caller has checked one is available).
    fn restart(&self, control: &mut ControlState, shard: usize) -> Option<RecoveryReport> {
        control.tokens -= 1.0;
        // The shard index came from our own iteration bounds, so the only
        // error `respawn_shard` can return (out of range) cannot happen.
        let report = self.fleet.respawn_shard(shard).ok()?;
        let c = &mut control.shards[shard];
        c.restarts += 1;
        c.last_restart = Some(Instant::now());
        c.quarantined_at = None;
        c.state = ShardState::Recovering;
        self.metrics.restarts.inc();
        self.metrics
            .records_lost
            .inc_by(report.lost_since_checkpoint);
        Some(report)
    }

    /// One full probe pass over every shard. See
    /// [`Supervisor::probe_once`].
    fn probe_once(&self) -> Vec<SupervisorEvent> {
        let mut events = Vec::new();
        let shards = self.fleet.shards();
        let mut control = self.control();
        self.refill_tokens(&mut control);
        for shard in 0..shards {
            match control.shards[shard].state {
                ShardState::Live | ShardState::Recovering => {
                    self.metrics.probes.inc();
                    // `ping` takes the fleet's read lock only; the index
                    // came from our own bounds, so the validation error
                    // cannot happen.
                    let alive = self
                        .fleet
                        .ping(shard, self.options.ping_timeout)
                        .unwrap_or(false);
                    let c = &mut control.shards[shard];
                    if alive {
                        if c.state == ShardState::Recovering {
                            c.state = ShardState::Live;
                            events.push(SupervisorEvent::Recovered { shard });
                        }
                        let outlived_flap = self.options.flap_window.is_zero()
                            || c.last_restart
                                .is_none_or(|t| t.elapsed() >= self.options.flap_window);
                        if outlived_flap {
                            c.consecutive_failures = 0;
                        }
                    } else {
                        self.metrics.deaths.inc();
                        c.state = ShardState::Dead;
                        c.consecutive_failures += 1;
                        events.push(SupervisorEvent::Died { shard });
                        // Fall through to the Dead arm's restart decision
                        // in this same pass, so MTTR is one probe cycle,
                        // not two.
                        events.extend(self.decide_dead(&mut control, shard));
                    }
                }
                ShardState::Dead => {
                    events.extend(self.decide_dead(&mut control, shard));
                }
                ShardState::Quarantined => {
                    let elapsed = control.shards[shard]
                        .quarantined_at
                        .is_none_or(|t| t.elapsed() >= self.options.quarantine_backoff);
                    if elapsed && control.tokens >= 1.0 {
                        if let Some(report) = self.restart(&mut control, shard) {
                            self.metrics.probations.inc();
                            events.push(SupervisorEvent::Probation { shard, report });
                        }
                    }
                }
            }
        }
        let (live, quarantined) =
            control
                .shards
                .iter()
                .fold((0i64, 0i64), |(l, q), c| match c.state {
                    ShardState::Live => (l + 1, q),
                    ShardState::Quarantined => (l, q + 1),
                    _ => (l, q),
                });
        self.metrics.shards_live.set(live);
        self.metrics.shards_quarantined.set(quarantined);
        // Flight-record every transition at the pass's single exit — one
        // recorder event per SupervisorEvent, in the order the pass made
        // them, so the chaos suite can replay a whole sweep from the ring.
        for event in &events {
            self.recorder.record(match *event {
                SupervisorEvent::Died { shard } => EventKind::ShardDied { shard },
                SupervisorEvent::Restarted { shard, report } => EventKind::ShardRestarted {
                    shard,
                    restored_len: report.restored_len,
                    lost: report.lost_since_checkpoint,
                },
                SupervisorEvent::RestartDeferred { shard } => EventKind::RestartDeferred { shard },
                SupervisorEvent::Quarantined { shard } => EventKind::ShardQuarantined { shard },
                SupervisorEvent::Probation { shard, .. } => EventKind::ShardProbation { shard },
                SupervisorEvent::Recovered { shard } => EventKind::ShardRecovered { shard },
            });
        }
        events
    }

    /// The restart-or-quarantine decision for a shard in the Dead state.
    fn decide_dead(&self, control: &mut ControlState, shard: usize) -> Vec<SupervisorEvent> {
        let c = &mut control.shards[shard];
        if c.consecutive_failures >= u64::from(self.options.quarantine_after) {
            c.state = ShardState::Quarantined;
            c.quarantined_at = Some(Instant::now());
            self.metrics.quarantines.inc();
            return vec![SupervisorEvent::Quarantined { shard }];
        }
        if control.tokens >= 1.0 {
            match self.restart(control, shard) {
                Some(report) => vec![SupervisorEvent::Restarted { shard, report }],
                None => Vec::new(),
            }
        } else {
            self.metrics.restarts_deferred.inc();
            vec![SupervisorEvent::RestartDeferred { shard }]
        }
    }

    fn health(&self) -> Vec<ShardHealth> {
        self.control()
            .shards
            .iter()
            .enumerate()
            .map(|(shard, c)| ShardHealth {
                shard,
                state: c.state,
                consecutive_failures: c.consecutive_failures,
                restarts: c.restarts,
            })
            .collect()
    }

    fn metrics(&self) -> SupervisorMetrics {
        SupervisorMetrics {
            probes: self.metrics.probes.get(),
            deaths: self.metrics.deaths.get(),
            restarts: self.metrics.restarts.get(),
            restarts_deferred: self.metrics.restarts_deferred.get(),
            quarantines: self.metrics.quarantines.get(),
            probations: self.metrics.probations.get(),
            records_lost: self.metrics.records_lost.get(),
        }
    }
}

/// A cloneable, read-only view of a running supervisor, for the serve
/// layer's `health` verb (the [`Supervisor`] itself owns the probe thread
/// and is not `Clone`).
#[derive(Clone)]
pub struct SupervisorHandle {
    inner: Arc<SupervisorInner>,
}

impl SupervisorHandle {
    /// Per-shard health, in shard order.
    #[must_use]
    pub fn health(&self) -> Vec<ShardHealth> {
        self.inner.health()
    }

    /// Point-in-time supervisor counters.
    #[must_use]
    pub fn metrics(&self) -> SupervisorMetrics {
        self.inner.metrics()
    }
}

impl fmt::Debug for SupervisorHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SupervisorHandle")
            .field("shards", &self.inner.fleet.shards())
            .finish()
    }
}

/// The fleet supervisor. See the [module docs](self) for the state
/// machine and rate-limiting model.
///
/// Two modes share one implementation:
///
/// * [`start`](Self::start) spawns the background probe thread —
///   production mode; dropping the supervisor (or calling
///   [`shutdown`](Self::shutdown)) stops and joins it.
/// * [`attach`](Self::attach) creates the supervisor without a thread;
///   the caller drives it with [`probe_once`](Self::probe_once) — the
///   deterministic mode the chaos tests use.
pub struct Supervisor {
    inner: Arc<SupervisorInner>,
    thread: Option<JoinHandle<()>>,
}

impl Supervisor {
    /// Creates a supervisor over `fleet` without spawning the probe
    /// thread; drive it manually with [`probe_once`](Self::probe_once).
    ///
    /// # Errors
    ///
    /// [`StreamhistError::InvalidParameter`] for out-of-range options.
    pub fn attach(fleet: FleetHandle, options: SupervisorOptions) -> Result<Self, StreamhistError> {
        Self::build(fleet, options, None)
    }

    /// [`attach`](Self::attach), registering
    /// `streamhist_supervisor_*{fleet}` series into `registry`.
    ///
    /// # Errors
    ///
    /// [`StreamhistError::InvalidParameter`] for out-of-range options.
    pub fn attach_with_metrics(
        fleet: FleetHandle,
        options: SupervisorOptions,
        registry: &MetricsRegistry,
        fleet_label: &str,
    ) -> Result<Self, StreamhistError> {
        Self::build(fleet, options, Some((registry, fleet_label)))
    }

    fn build(
        fleet: FleetHandle,
        options: SupervisorOptions,
        registry: Option<(&MetricsRegistry, &str)>,
    ) -> Result<Self, StreamhistError> {
        options.validate()?;
        let shards = (0..fleet.shards())
            .map(|_| ShardControl {
                state: ShardState::Live,
                consecutive_failures: 0,
                restarts: 0,
                last_restart: None,
                quarantined_at: None,
            })
            .collect();
        let metrics = match registry {
            Some((reg, label)) => SupervisorMetricsInner::registered(reg, label),
            None => SupervisorMetricsInner::default(),
        };
        let recorder = fleet.recorder();
        Ok(Self {
            inner: Arc::new(SupervisorInner {
                fleet,
                recorder,
                options,
                control: Mutex::new(ControlState {
                    tokens: f64::from(options.restart_burst),
                    last_refill: Instant::now(),
                    shards,
                }),
                stop: AtomicBool::new(false),
                metrics,
            }),
            thread: None,
        })
    }

    /// [`attach`](Self::attach) plus the background probe thread: one
    /// probe pass every [`probe_interval`](SupervisorOptions::probe_interval)
    /// until shutdown.
    ///
    /// # Errors
    ///
    /// [`StreamhistError::InvalidParameter`] for out-of-range options; an
    /// [`io::Error`](std::io::Error)-shaped spawn failure surfaces as a
    /// panic (thread spawn only fails on resource exhaustion).
    pub fn start(fleet: FleetHandle, options: SupervisorOptions) -> Result<Self, StreamhistError> {
        let mut this = Self::attach(fleet, options)?;
        this.spawn_probe_thread();
        Ok(this)
    }

    /// [`start`](Self::start) with registered metrics.
    ///
    /// # Errors
    ///
    /// [`StreamhistError::InvalidParameter`] for out-of-range options.
    pub fn start_with_metrics(
        fleet: FleetHandle,
        options: SupervisorOptions,
        registry: &MetricsRegistry,
        fleet_label: &str,
    ) -> Result<Self, StreamhistError> {
        let mut this = Self::attach_with_metrics(fleet, options, registry, fleet_label)?;
        this.spawn_probe_thread();
        Ok(this)
    }

    fn spawn_probe_thread(&mut self) {
        let inner = Arc::clone(&self.inner);
        let handle = std::thread::Builder::new()
            .name("streamhist-supervisor".to_string())
            .spawn(move || {
                while !inner.stop.load(Ordering::Relaxed) {
                    let _ = inner.probe_once();
                    std::thread::sleep(inner.options.probe_interval);
                }
            })
            .expect("spawning the supervisor probe thread");
        self.thread = Some(handle);
    }

    /// Runs one synchronous probe pass over every shard and returns the
    /// transitions it made (empty when all is well). Safe to call
    /// concurrently with a running probe thread — passes serialize on the
    /// control mutex.
    pub fn probe_once(&self) -> Vec<SupervisorEvent> {
        self.inner.probe_once()
    }

    /// Per-shard health, in shard order.
    #[must_use]
    pub fn health(&self) -> Vec<ShardHealth> {
        self.inner.health()
    }

    /// Point-in-time supervisor counters.
    #[must_use]
    pub fn metrics(&self) -> SupervisorMetrics {
        self.inner.metrics()
    }

    /// A cloneable view for the serve layer.
    #[must_use]
    pub fn handle(&self) -> SupervisorHandle {
        SupervisorHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// The supervised fleet handle.
    #[must_use]
    pub fn fleet(&self) -> &FleetHandle {
        &self.inner.fleet
    }

    /// Stops and joins the probe thread (no-op in manual mode). Dropping
    /// the supervisor does the same.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Supervisor")
            .field("shards", &self.inner.fleet.shards())
            .field("threaded", &self.thread.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::{ShardedFixedWindow, SnapshotPolicy};

    /// Deterministic manual-mode options: unlimited restart rate, huge
    /// flap window (every death is consecutive), instant probation.
    fn chaos_options() -> SupervisorOptions {
        SupervisorOptions {
            restart_burst: 1_000,
            restart_refill: Duration::ZERO,
            quarantine_after: 3,
            quarantine_backoff: Duration::ZERO,
            flap_window: Duration::from_secs(3600),
            ..SupervisorOptions::default()
        }
    }

    fn fleet(shards: usize) -> FleetHandle {
        FleetHandle::new(ShardedFixedWindow::new(shards, 32, 2, 0.5))
    }

    #[test]
    fn options_are_validated() {
        let f = fleet(1);
        for bad in [
            SupervisorOptions {
                probe_interval: Duration::ZERO,
                ..SupervisorOptions::default()
            },
            SupervisorOptions {
                ping_timeout: Duration::ZERO,
                ..SupervisorOptions::default()
            },
            SupervisorOptions {
                restart_burst: 0,
                ..SupervisorOptions::default()
            },
            SupervisorOptions {
                quarantine_after: 0,
                ..SupervisorOptions::default()
            },
        ] {
            assert!(matches!(
                Supervisor::attach(f.clone(), bad),
                Err(StreamhistError::InvalidParameter { .. })
            ));
        }
    }

    #[test]
    fn healthy_fleet_probes_clean() {
        let f = fleet(3);
        let sup = Supervisor::attach(f, chaos_options()).unwrap();
        assert!(sup.probe_once().is_empty());
        assert!(sup.health().iter().all(|h| h.state == ShardState::Live));
        assert_eq!(sup.metrics().probes, 3);
        assert_eq!(sup.metrics().deaths, 0);
    }

    #[test]
    fn a_killed_shard_is_detected_restarted_and_recovers() {
        let f = fleet(2);
        for i in 0..40u64 {
            f.push(i, (i % 5) as f64).unwrap();
        }
        let sup = Supervisor::attach(f.clone(), chaos_options()).unwrap();
        f.inject_worker_panic(1).unwrap().unwrap();
        // Barrier on shard 0 only; shard 1's death lands when its worker
        // dequeues the panic, which the ping round-trip forces.
        let events = sup.probe_once();
        assert!(
            events.contains(&SupervisorEvent::Died { shard: 1 }),
            "{events:?}"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, SupervisorEvent::Restarted { shard: 1, .. })),
            "{events:?}"
        );
        assert_eq!(sup.health()[1].state, ShardState::Recovering);
        let events = sup.probe_once();
        assert!(
            events.contains(&SupervisorEvent::Recovered { shard: 1 }),
            "{events:?}"
        );
        assert_eq!(sup.health()[1].state, ShardState::Live);
        // Service is restored: the global snapshot works again.
        assert!(f.snapshot_global().is_ok());
    }

    #[test]
    fn flapping_shard_is_quarantined_then_released_on_probation() {
        let f = fleet(2);
        let opts = chaos_options();
        let sup = Supervisor::attach(f.clone(), opts).unwrap();
        // Kill the shard as fast as the supervisor restarts it. Each
        // cycle: inject, probe (death + restart). After quarantine_after
        // deaths the next decision is quarantine instead of restart.
        for _ in 0..2 {
            f.inject_worker_panic(0).unwrap().unwrap();
            let events = sup.probe_once();
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e, SupervisorEvent::Restarted { shard: 0, .. })),
                "{events:?}"
            );
        }
        f.inject_worker_panic(0).unwrap().unwrap();
        let events = sup.probe_once();
        assert!(
            events.contains(&SupervisorEvent::Quarantined { shard: 0 }),
            "{events:?}"
        );
        assert_eq!(sup.health()[0].state, ShardState::Quarantined);
        assert_eq!(sup.metrics().quarantines, 1);
        // Degraded snapshots keep serving around the quarantined shard.
        for i in 0..30u64 {
            let _ = f.push(i, 1.0);
        }
        // Probation: backoff is zero, so the next pass restarts it.
        let events = sup.probe_once();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, SupervisorEvent::Probation { shard: 0, .. })),
            "{events:?}"
        );
        assert_eq!(sup.health()[0].state, ShardState::Recovering);
        let events = sup.probe_once();
        assert!(
            events.contains(&SupervisorEvent::Recovered { shard: 0 }),
            "{events:?}"
        );
    }

    #[test]
    fn empty_token_bucket_defers_restarts() {
        let f = fleet(1);
        let opts = SupervisorOptions {
            restart_burst: 1,
            // One token an hour: after the first restart the bucket stays
            // empty for the rest of the test.
            restart_refill: Duration::from_secs(3600),
            quarantine_after: 100,
            flap_window: Duration::ZERO,
            ..SupervisorOptions::default()
        };
        let sup = Supervisor::attach(f.clone(), opts).unwrap();
        f.inject_worker_panic(0).unwrap().unwrap();
        let events = sup.probe_once();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, SupervisorEvent::Restarted { shard: 0, .. })),
            "{events:?}"
        );
        let _ = sup.probe_once(); // Recovering -> Live
        f.inject_worker_panic(0).unwrap().unwrap();
        let events = sup.probe_once();
        assert!(
            events.contains(&SupervisorEvent::RestartDeferred { shard: 0 }),
            "{events:?}"
        );
        assert_eq!(sup.health()[0].state, ShardState::Dead);
        assert!(sup.metrics().restarts_deferred >= 1);
    }

    #[test]
    fn threaded_supervisor_heals_without_manual_intervention() {
        let f = fleet(2);
        for i in 0..40u64 {
            f.push(i, (i % 5) as f64).unwrap();
        }
        let opts = SupervisorOptions {
            probe_interval: Duration::from_millis(5),
            flap_window: Duration::ZERO,
            ..SupervisorOptions::default()
        };
        let sup = Supervisor::start(f.clone(), opts).unwrap();
        // Kill to serving takes milliseconds; the 2 s ceiling is loose on
        // purpose, so only a stuck probe thread or a respawn deadlock
        // trips it on a loaded machine.
        let killed_at = Instant::now();
        f.inject_worker_panic(0).unwrap().unwrap();
        loop {
            if f.snapshot_global().is_ok() && sup.health()[0].state == ShardState::Live {
                break;
            }
            assert!(
                killed_at.elapsed() < Duration::from_secs(2),
                "supervisor failed to heal within 2s of the kill"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(sup.metrics().restarts >= 1);
        sup.shutdown();
    }

    #[test]
    fn degraded_snapshot_of_a_quarantined_fleet_reports_exact_coverage() {
        let fleet = ShardedFixedWindow::new(2, 32, 2, 0.5);
        for s in 0..2usize {
            fleet
                .push_batch(s, (0..20).map(|i| f64::from(i % 4)).collect())
                .unwrap();
        }
        // Barriers so the accepted counters are exact.
        fleet.snapshot(0).unwrap();
        fleet.snapshot(1).unwrap();
        let f = FleetHandle::new(fleet);
        f.inject_worker_panic(1).unwrap().unwrap();
        // The failed ping doubles as the barrier that lets the injected
        // panic land before the degraded gather runs.
        assert!(!f.ping(1, Duration::from_millis(200)).unwrap());
        let (_, _, coverage) = f
            .snapshot_global_with(SnapshotPolicy::Degraded { min_coverage: 0.0 })
            .unwrap();
        assert_eq!(coverage.shards_included, 1);
        assert_eq!(coverage.shards_total, 2);
        assert_eq!(coverage.records_represented, 20);
        assert_eq!(coverage.records_total, 40);
        assert!((coverage.fraction() - 0.5).abs() < 1e-12);
        // Strict still refuses.
        assert!(f.snapshot_global().is_err());
        // And a min_coverage above the actual fraction refuses too.
        assert!(f
            .snapshot_global_with(SnapshotPolicy::Degraded { min_coverage: 0.75 })
            .is_err());
    }
}
