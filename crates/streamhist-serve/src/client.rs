//! A blocking reference client for the wire protocol.
//!
//! [`ServeClient`] owns one connection and issues one request at a time —
//! the protocol is strictly request/response, so pipelining is a
//! non-goal. Per-verb convenience methods cover the whole protocol; the
//! generic [`call`](ServeClient::call) takes any [`Request`].
//!
//! Server-sent error frames surface as [`ClientError::Server`] — they are
//! *answers*, distinct from transport failures ([`ClientError::Io`]) and
//! from frames that fail local validation ([`ClientError::Protocol`]).

use crate::protocol::{
    read_packet, write_packet, ErrorCode, Packet, QuantileMethod, Request, Response, WireError,
};
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};
use streamhist_core::checkpoint::tag;
use streamhist_core::StreamhistError;
use streamhist_obs::Event;
use streamhist_stream::{Coverage, ShardHealth, ShardMetrics};

/// Ceiling on one retry backoff step, before jitter.
const RETRY_BACKOFF_CAP: Duration = Duration::from_millis(250);

/// Deterministic jitter fraction in `[0, 0.5)` — splitmix64 finalizer
/// over `(seed, attempt)`, the same construction the durability layer's
/// store retries use, so retry timing is reproducible in tests.
fn jitter_fraction(seed: u64, attempt: u32) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(attempt));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    #[allow(clippy::cast_precision_loss)]
    let f = (z >> 11) as f64 / (1u64 << 53) as f64;
    f * 0.5
}

/// A total-deadline retry policy for [`ServeClient::call`].
///
/// Retries apply only to errors that cannot have mutated server state —
/// transport failures and [`ErrorCode::Overloaded`] shed frames — and
/// only to idempotent read verbs (queries, `shard_stats`, `wal_status`,
/// `health`). Admin mutations (`respawn_shard`, `checkpoint_all`) are
/// never retried: a lost reply leaves their effect unknown, and replaying
/// them is the caller's decision. Backoff is capped exponential with
/// deterministic jitter seeded from `seed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryBudget {
    /// Total wall-clock budget across all attempts, measured from the
    /// first send. When the next backoff would cross it, the last error
    /// is returned instead.
    pub deadline: Duration,
    /// First backoff step (doubled per attempt, capped at 250ms).
    pub backoff_start: Duration,
    /// Jitter seed — fix it for reproducible retry timing.
    pub seed: u64,
}

impl Default for RetryBudget {
    fn default() -> Self {
        Self {
            deadline: Duration::from_secs(2),
            backoff_start: Duration::from_millis(5),
            seed: 0,
        }
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, peer hung up).
    Io(io::Error),
    /// The server answered with a structured error frame.
    Server(WireError),
    /// The server's bytes failed frame validation on our side.
    Protocol(StreamhistError),
    /// The server answered with a response of the wrong shape for the
    /// request (e.g. shard stats to a scalar query).
    UnexpectedResponse(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "transport error: {e}"),
            Self::Server(e) => write!(f, "server error: {e}"),
            Self::Protocol(e) => write!(f, "protocol error: {e}"),
            Self::UnexpectedResponse(what) => {
                write!(f, "unexpected response shape: wanted {what}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// One connection to a [`QueryServer`](crate::QueryServer).
#[derive(Debug)]
pub struct ServeClient {
    stream: TcpStream,
    peer: SocketAddr,
    timeout: Duration,
    budget: Option<RetryBudget>,
    retries: u64,
    /// Trace id attached to every outgoing request (see the protocol
    /// module docs); `None` sends untraced requests and lets the server
    /// assign ids.
    trace: Option<u64>,
    /// Trace id on the most recent decoded reply (echoed by the server,
    /// whether the call succeeded or returned a server error frame).
    last_trace: Option<u64>,
}

impl ServeClient {
    /// Connects with a 5-second default I/O deadline.
    ///
    /// # Errors
    ///
    /// The connect/configure error.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::connect_with_timeout(addr, Duration::from_secs(5))
    }

    /// Connects with an explicit per-operation read/write deadline.
    ///
    /// # Errors
    ///
    /// The connect/configure error.
    pub fn connect_with_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let peer = stream.peer_addr()?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            peer,
            timeout,
            budget: None,
            retries: 0,
            trace: None,
            last_trace: None,
        })
    }

    /// Sets (or clears) the trace id attached to every subsequent
    /// request. The server echoes it byte-identically on the reply;
    /// retries of one call re-send the same id.
    pub fn set_trace(&mut self, trace: Option<u64>) {
        self.trace = trace;
    }

    /// The trace id echoed on the most recent decoded reply: the one this
    /// client sent, or the server-assigned id if the request went out
    /// untraced. `None` until a reply arrives (or when talking to a
    /// pre-trace server).
    #[must_use]
    pub fn last_trace(&self) -> Option<u64> {
        self.last_trace
    }

    /// Enables a [`RetryBudget`]: idempotent read verbs issued through
    /// [`call`](Self::call) (and the per-verb helpers) are retried on
    /// transport errors and `Overloaded` shed frames, reconnecting as
    /// needed, until the budget's deadline.
    #[must_use]
    pub fn with_retry_budget(mut self, budget: RetryBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Retries performed so far over this client's lifetime (a retry is
    /// any re-send after a retryable failure; the first attempt of a call
    /// is not a retry).
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Whether a lost or shed `req` can be safely re-sent: every query
    /// and status verb is a pure read. `respawn_shard` and
    /// `checkpoint_all` mutate the fleet and are excluded.
    fn idempotent(req: &Request) -> bool {
        !matches!(req, Request::RespawnShard { .. } | Request::CheckpointAll)
    }

    /// `true` for failures that justify a retry: the transport broke
    /// (nothing reached the server, or its reply was lost — safe for an
    /// idempotent read) or the server explicitly shed the request.
    fn retryable(result: &Result<Response, ClientError>) -> bool {
        match result {
            Err(ClientError::Io(_)) => true,
            Err(ClientError::Server(e)) => e.code == ErrorCode::Overloaded,
            _ => false,
        }
    }

    /// Re-dials the peer (the server closes connections it sheds, so a
    /// retry usually needs a fresh socket). On failure the old stream is
    /// kept; the next attempt surfaces its I/O error and the deadline
    /// still bounds the call.
    fn reconnect(&mut self) {
        if let Ok(fresh) = TcpStream::connect(self.peer) {
            if fresh.set_read_timeout(Some(self.timeout)).is_ok()
                && fresh.set_write_timeout(Some(self.timeout)).is_ok()
                && fresh.set_nodelay(true).is_ok()
            {
                self.stream = fresh;
            }
        }
    }

    /// Issues one request and reads its reply. With a
    /// [`RetryBudget`](Self::with_retry_budget) attached and an
    /// idempotent `req`, transport failures and `Overloaded` sheds are
    /// retried (with capped, jittered backoff) until the budget deadline.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        // Encode once: retries re-send the identical frame, so the trace
        // id ties every attempt of a call together in the server's log.
        let frame = req.encode_traced(self.trace);
        let Some(budget) = self.budget else {
            return self.call_raw_frame(&frame);
        };
        if !Self::idempotent(req) {
            return self.call_raw_frame(&frame);
        }
        let start = Instant::now();
        let mut attempt: u32 = 0;
        loop {
            let result = self.call_raw_frame(&frame);
            if !Self::retryable(&result) {
                return result;
            }
            let step = budget
                .backoff_start
                .saturating_mul(1u32 << attempt.min(10))
                .min(RETRY_BACKOFF_CAP);
            let sleep = step.mul_f64(1.0 + jitter_fraction(budget.seed, attempt));
            if start.elapsed() + sleep >= budget.deadline {
                return result;
            }
            std::thread::sleep(sleep);
            self.retries += 1;
            attempt += 1;
            self.reconnect();
        }
    }

    /// Sends an already-encoded (possibly deliberately corrupt) frame
    /// and reads the reply — the fuzz harness's entry point. A server
    /// error frame comes back as `Err(ClientError::Server(_))`, exactly
    /// like [`call`](Self::call).
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn call_raw_frame(&mut self, frame: &[u8]) -> Result<Response, ClientError> {
        write_packet(&mut self.stream, frame)?;
        let reply = match read_packet(&mut self.stream)? {
            Packet::Frame(reply) => reply,
            Packet::Closed => {
                return Err(ClientError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection before replying",
                )))
            }
            Packet::Http(_) | Packet::BadLength(_) => {
                return Err(ClientError::Protocol(StreamhistError::CorruptCheckpoint {
                    reason: "server reply is not a framed packet",
                }))
            }
        };
        // The third frame byte is the type tag; dispatch on it.
        match reply.get(2).copied() {
            Some(tag::SERVE_RESPONSE) => {
                let (resp, trace) =
                    Response::decode_traced(&reply).map_err(ClientError::Protocol)?;
                self.last_trace = trace;
                Ok(resp)
            }
            Some(tag::SERVE_ERROR) => {
                let (err, trace) =
                    WireError::decode_traced(&reply).map_err(ClientError::Protocol)?;
                self.last_trace = trace;
                Err(ClientError::Server(err))
            }
            _ => Err(ClientError::Protocol(StreamhistError::CorruptCheckpoint {
                reason: "reply frame has an unknown type tag",
            })),
        }
    }

    fn scalar(&mut self, req: &Request) -> Result<f64, ClientError> {
        self.call_scalar(req).map(|(value, _)| value)
    }

    /// Issues any scalar query verb and returns `(value, coverage)` — the
    /// coverage report says how much of the fleet's accepted data the
    /// answer stands on (always complete against a strict-policy server).
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn call_scalar(&mut self, req: &Request) -> Result<(f64, Coverage), ClientError> {
        match self.call(req)? {
            Response::Scalar {
                value, coverage, ..
            } => Ok((value, coverage)),
            _ => Err(ClientError::UnexpectedResponse("a scalar")),
        }
    }

    /// Estimated sum over the inclusive index range `[start, end]`.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn range_sum(&mut self, start: usize, end: usize) -> Result<f64, ClientError> {
        self.scalar(&Request::RangeSum { start, end })
    }

    /// Estimated average over the inclusive index range `[start, end]`.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn range_avg(&mut self, start: usize, end: usize) -> Result<f64, ClientError> {
        self.scalar(&Request::RangeAvg { start, end })
    }

    /// Estimated value at index `idx`.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn point(&mut self, idx: usize) -> Result<f64, ClientError> {
        self.scalar(&Request::Point { idx })
    }

    /// Number of positions in the inclusive index range `[start, end]`.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn range_count(&mut self, start: usize, end: usize) -> Result<f64, ClientError> {
        self.scalar(&Request::RangeCount { start, end })
    }

    /// The `phi`-quantile of the ingested value distribution.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn quantile(&mut self, method: QuantileMethod, phi: f64) -> Result<f64, ClientError> {
        self.scalar(&Request::Quantile { method, phi })
    }

    /// Estimated fraction of ingested values `v` with `lo < v <= hi`.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn selectivity(&mut self, lo: f64, hi: f64) -> Result<f64, ClientError> {
        self.scalar(&Request::Selectivity { lo, hi })
    }

    /// One shard's counters, plus the fleet's shard count.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn shard_stats(&mut self, shard: usize) -> Result<(usize, ShardMetrics), ClientError> {
        match self.call(&Request::ShardStats { shard })? {
            Response::ShardStats {
                shards, metrics, ..
            } => Ok((shards, metrics)),
            _ => Err(ClientError::UnexpectedResponse("shard stats")),
        }
    }

    /// Respawns one shard's worker; returns
    /// `(restored_len, lost_since_checkpoint)`.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn respawn_shard(&mut self, shard: usize) -> Result<(u64, u64), ClientError> {
        match self.call(&Request::RespawnShard { shard })? {
            Response::Respawned {
                restored_len,
                lost_since_checkpoint,
            } => Ok((restored_len, lost_since_checkpoint)),
            _ => Err(ClientError::UnexpectedResponse("a respawn report")),
        }
    }

    /// Refreshes every shard's recovery point server-side; returns the
    /// total size of the checkpoint frames taken, in bytes.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn checkpoint_all(&mut self) -> Result<u64, ClientError> {
        match self.call(&Request::CheckpointAll)? {
            Response::Checkpointed { bytes } => Ok(bytes),
            _ => Err(ClientError::UnexpectedResponse("a checkpoint report")),
        }
    }

    /// The fleet's durability (WAL / checkpoint-store) status.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn wal_status(&mut self) -> Result<streamhist_stream::WalStatus, ClientError> {
        match self.call(&Request::WalStatus)? {
            Response::WalStatus(status) => Ok(status),
            _ => Err(ClientError::UnexpectedResponse("a wal-status report")),
        }
    }

    /// Per-shard supervisor health; the flag is `true` when a supervisor
    /// is attached server-side (entries are its live state machine rather
    /// than synthesized pings).
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn health(&mut self) -> Result<(bool, Vec<ShardHealth>), ClientError> {
        match self.call(&Request::Health)? {
            Response::Health { supervised, shards } => Ok((supervised, shards)),
            _ => Err(ClientError::UnexpectedResponse("a health report")),
        }
    }

    /// One page of flight-recorder events with sequence number `>= from`;
    /// returns `(recorded, events)` where `recorded` is the server's
    /// total-ever count. Page by passing the last event's `seq + 1`.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn events(&mut self, from: u64) -> Result<(u64, Vec<Event>), ClientError> {
        match self.call(&Request::Events { from })? {
            Response::Events { recorded, events } => Ok((recorded, events)),
            _ => Err(ClientError::UnexpectedResponse("an events page")),
        }
    }

    /// Every event the server's recorder still retains from `from`
    /// onward, paging until exhausted; returns `(recorded, events)`.
    ///
    /// The drain is a *snapshot*: paging stops at the recorder's sequence
    /// watermark observed on the first page, so events recorded while the
    /// drain itself runs are left for the next call. Without the cutoff a
    /// server that records its own request handling (e.g. a zero
    /// slow-query threshold logging every `events` page) would feed the
    /// pager one fresh event per page, forever.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn events_all(&mut self, from: u64) -> Result<(u64, Vec<Event>), ClientError> {
        let (watermark, mut page) = self.events(from)?;
        let mut all = Vec::new();
        loop {
            let Some(last) = page.last() else {
                return Ok((watermark, all));
            };
            // The cursor advances past the page's raw tail before the
            // watermark filter, so it grows strictly every round.
            let next = last.seq + 1;
            all.extend(page.into_iter().filter(|e| e.seq < watermark));
            if next >= watermark {
                return Ok((watermark, all));
            }
            page = self.events(next)?.1;
        }
    }
}
