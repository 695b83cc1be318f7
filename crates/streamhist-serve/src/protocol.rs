//! The wire protocol: framed request/response verbs over the checkpoint
//! codec.
//!
//! Every message is one checkpoint-style frame (magic `0x43`, version,
//! type tag, payload, CRC-32 — see `streamhist_core::checkpoint`) carried
//! on the socket behind a `u32`-little-endian length prefix:
//!
//! ```text
//! len     u32-le   frame length (7 ..= MAX_FRAME bytes)
//! frame   len B    one FrameWriter-built frame:
//!   magic   u8     0x43
//!   version u8     1
//!   tag     u8     SERVE_REQUEST (32) | SERVE_RESPONSE (33) | SERVE_ERROR (34)
//!   payload ...    verb byte + verb-specific fields
//!   crc32   u32-le over every preceding frame byte
//! ```
//!
//! The length prefix delimits messages, so a frame whose *contents* fail
//! validation (bit flip, truncated payload, unknown verb) costs exactly
//! one error frame in reply — the connection stays usable, because the
//! next length prefix is still in a known place. Only a malformed length
//! itself (0, shorter than a minimal frame, or past [`MAX_FRAME`])
//! desynchronizes the stream; the server answers with a final error frame
//! and closes.
//!
//! Reusing the checkpoint envelope means the wire inherits the corruption
//! guarantees the recovery suite already fuzzes: CRC-32 catches every
//! single-bit flip, counts are bounded against the remaining payload, and
//! trailing bytes are rejected.
//!
//! ## Trace ids
//!
//! Every frame kind (request, response, error) may carry an optional
//! **trace id**: a varint appended after the verb payload, inside the
//! CRC. Presence is signalled by position — a frame whose payload has
//! bytes left after the verb fields carries a trace. A client that sends
//! one gets the same id echoed byte-identically on the reply (success or
//! error); a client that sends none gets a server-assigned id echoed
//! back, so every request can be correlated with the server's slow-query
//! log. Pre-trace peers interoperate unchanged: they emit no trailing
//! varint (decoded as "no trace") and ignore one on receipt
//! ([`Request::decode`]/[`Response::decode`] discard it).

use std::fmt;
use std::io::{self, Read, Write};
use streamhist_core::checkpoint::{tag, FrameReader, FrameWriter};
use streamhist_core::{Query, StreamhistError};
use streamhist_obs::{Event, EventKind};
use streamhist_stream::{Coverage, ShardHealth, ShardMetrics, ShardState};

/// Hard bound on one frame, excluding the length prefix. Requests are
/// tens of bytes and responses hundreds; the bound exists so a malicious
/// length prefix cannot make the server allocate without limit.
pub const MAX_FRAME: usize = 64 * 1024;

/// Smallest possible frame: 3-byte header + 4-byte CRC.
pub const MIN_FRAME: usize = 7;

/// Which quantile substrate answers a [`Request::Quantile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantileMethod {
    /// Greenwald–Khanna summary (rank error `<= eps * n`).
    Gk,
    /// Munro–Paterson / MRL multi-level buffer summary.
    Mrl,
}

impl QuantileMethod {
    fn to_wire(self) -> u8 {
        match self {
            Self::Gk => 0,
            Self::Mrl => 1,
        }
    }

    fn from_wire(b: u8) -> Option<Self> {
        match b {
            0 => Some(Self::Gk),
            1 => Some(Self::Mrl),
            _ => None,
        }
    }
}

/// Request verb bytes (the first payload byte of a request frame).
mod verb {
    pub const RANGE_SUM: u8 = 1;
    pub const RANGE_AVG: u8 = 2;
    pub const POINT: u8 = 3;
    pub const RANGE_COUNT: u8 = 4;
    pub const QUANTILE: u8 = 5;
    pub const SELECTIVITY: u8 = 6;
    pub const SHARD_STATS: u8 = 16;
    pub const RESPAWN_SHARD: u8 = 17;
    pub const CHECKPOINT_ALL: u8 = 18;
    pub const WAL_STATUS: u8 = 19;
    pub const HEALTH: u8 = 20;
    pub const EVENTS: u8 = 21;
}

/// Most events one [`Response::Events`] page carries. Bounds the response
/// frame well under [`MAX_FRAME`]; clients page by sequence number.
pub const EVENTS_PAGE_MAX: usize = 128;

/// Appends the optional trailing trace-id varint (see the module docs).
fn put_trace(w: &mut FrameWriter, trace: Option<u64>) {
    if let Some(t) = trace {
        w.put_varint(t);
    }
}

/// Reads the optional trailing trace-id varint: present iff payload bytes
/// remain after the verb fields.
fn get_trace(r: &mut FrameReader<'_>) -> Result<Option<u64>, StreamhistError> {
    if r.remaining() > 0 {
        Ok(Some(r.get_varint()?))
    } else {
        Ok(None)
    }
}

/// One client request. Index-domain queries (`RangeSum`/`RangeAvg`/
/// `Point`/`RangeCount`) are answered against the fleet-global gathered
/// snapshot; `Quantile` and `Selectivity` against the serve-side
/// value-domain sketches; the remaining verbs are fleet administration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Request {
    /// Sum of window values over inclusive `[start, end]`.
    RangeSum {
        /// Range start (inclusive).
        start: usize,
        /// Range end (inclusive).
        end: usize,
    },
    /// Average of window values over inclusive `[start, end]`.
    RangeAvg {
        /// Range start (inclusive).
        start: usize,
        /// Range end (inclusive).
        end: usize,
    },
    /// The window value at one index.
    Point {
        /// Queried index.
        idx: usize,
    },
    /// Number of window positions in `[start, end]`.
    RangeCount {
        /// Range start (inclusive).
        start: usize,
        /// Range end (inclusive).
        end: usize,
    },
    /// The `phi`-quantile of every value ingested through the serve
    /// state, from the chosen sketch.
    Quantile {
        /// Which sketch answers.
        method: QuantileMethod,
        /// Quantile in `[0, 1]`.
        phi: f64,
    },
    /// Fraction of ingested values `v` with `lo < v <= hi` (GK-backed).
    Selectivity {
        /// Lower bound (exclusive).
        lo: f64,
        /// Upper bound (inclusive).
        hi: f64,
    },
    /// Admin: one shard's counters.
    ShardStats {
        /// Shard index.
        shard: usize,
    },
    /// Admin: respawn one shard's worker (recovering a dead shard).
    RespawnShard {
        /// Shard index.
        shard: usize,
    },
    /// Admin: refresh every shard's recovery point in place (its
    /// in-memory slot, and its store on a durable fleet).
    CheckpointAll,
    /// Admin: the fleet's durability (WAL / checkpoint-store) status.
    WalStatus,
    /// Admin: per-shard supervisor health (state machine position,
    /// consecutive failures, restarts).
    Health,
    /// Admin: a page of flight-recorder events with sequence number
    /// `>= from` (at most [`EVENTS_PAGE_MAX`] per reply; page by passing
    /// the last seq seen plus one).
    Events {
        /// First sequence number wanted (inclusive).
        from: u64,
    },
}

impl Request {
    /// Stable lowercase verb name, used as the metrics label and by the
    /// CLI client.
    #[must_use]
    pub fn verb_name(&self) -> &'static str {
        match self {
            Self::RangeSum { .. } => "range_sum",
            Self::RangeAvg { .. } => "range_avg",
            Self::Point { .. } => "point",
            Self::RangeCount { .. } => "range_count",
            Self::Quantile { .. } => "quantile",
            Self::Selectivity { .. } => "selectivity",
            Self::ShardStats { .. } => "shard_stats",
            Self::RespawnShard { .. } => "respawn_shard",
            Self::CheckpointAll => "checkpoint_all",
            Self::WalStatus => "wal_status",
            Self::Health => "health",
            Self::Events { .. } => "events",
        }
    }

    /// The verb byte this request encodes with (echoed back in scalar
    /// responses).
    #[must_use]
    pub fn wire_verb(&self) -> u8 {
        match self {
            Self::RangeSum { .. } => verb::RANGE_SUM,
            Self::RangeAvg { .. } => verb::RANGE_AVG,
            Self::Point { .. } => verb::POINT,
            Self::RangeCount { .. } => verb::RANGE_COUNT,
            Self::Quantile { .. } => verb::QUANTILE,
            Self::Selectivity { .. } => verb::SELECTIVITY,
            Self::ShardStats { .. } => verb::SHARD_STATS,
            Self::RespawnShard { .. } => verb::RESPAWN_SHARD,
            Self::CheckpointAll => verb::CHECKPOINT_ALL,
            Self::WalStatus => verb::WAL_STATUS,
            Self::Health => verb::HEALTH,
            Self::Events { .. } => verb::EVENTS,
        }
    }

    /// The index-domain [`Query`] a histogram verb evaluates, if this is
    /// one.
    #[must_use]
    pub fn as_query(&self) -> Option<Query> {
        match *self {
            Self::RangeSum { start, end } => Some(Query::RangeSum { start, end }),
            Self::RangeAvg { start, end } => Some(Query::RangeAvg { start, end }),
            Self::Point { idx } => Some(Query::Point { idx }),
            Self::RangeCount { start, end } => Some(Query::RangeCount { start, end }),
            _ => None,
        }
    }

    /// Serializes the request into one self-validating frame (no trace
    /// id; see [`encode_traced`](Self::encode_traced)).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        self.encode_traced(None)
    }

    /// Serializes the request with an optional trailing trace id.
    #[must_use]
    pub fn encode_traced(&self, trace: Option<u64>) -> Vec<u8> {
        let mut w = FrameWriter::new(tag::SERVE_REQUEST);
        match *self {
            Self::RangeSum { start, end } => {
                w.put_u8(verb::RANGE_SUM);
                w.put_usize(start);
                w.put_usize(end);
            }
            Self::RangeAvg { start, end } => {
                w.put_u8(verb::RANGE_AVG);
                w.put_usize(start);
                w.put_usize(end);
            }
            Self::Point { idx } => {
                w.put_u8(verb::POINT);
                w.put_usize(idx);
            }
            Self::RangeCount { start, end } => {
                w.put_u8(verb::RANGE_COUNT);
                w.put_usize(start);
                w.put_usize(end);
            }
            Self::Quantile { method, phi } => {
                w.put_u8(verb::QUANTILE);
                w.put_u8(method.to_wire());
                w.put_f64(phi);
            }
            Self::Selectivity { lo, hi } => {
                w.put_u8(verb::SELECTIVITY);
                w.put_f64(lo);
                w.put_f64(hi);
            }
            Self::ShardStats { shard } => {
                w.put_u8(verb::SHARD_STATS);
                w.put_usize(shard);
            }
            Self::RespawnShard { shard } => {
                w.put_u8(verb::RESPAWN_SHARD);
                w.put_usize(shard);
            }
            Self::CheckpointAll => {
                w.put_u8(verb::CHECKPOINT_ALL);
            }
            Self::WalStatus => {
                w.put_u8(verb::WAL_STATUS);
            }
            Self::Health => {
                w.put_u8(verb::HEALTH);
            }
            Self::Events { from } => {
                w.put_u8(verb::EVENTS);
                w.put_varint(from);
            }
        }
        put_trace(&mut w, trace);
        w.finish()
    }

    /// Decodes a request frame, mapping every failure to the error frame
    /// the server should answer with: envelope/payload corruption to
    /// [`ErrorCode::MalformedFrame`], an unknown verb or quantile method
    /// to [`ErrorCode::Unsupported`].
    ///
    /// # Errors
    ///
    /// [`WireError`] describing the rejection; never panics on arbitrary
    /// input.
    pub fn decode(frame: &[u8]) -> Result<Self, WireError> {
        Self::decode_traced(frame).map(|(req, _)| req)
    }

    /// Decodes a request frame together with its optional trailing trace
    /// id (`None` for pre-trace peers).
    ///
    /// # Errors
    ///
    /// Same contract as [`decode`](Self::decode).
    pub fn decode_traced(frame: &[u8]) -> Result<(Self, Option<u64>), WireError> {
        let malformed = |e: StreamhistError| WireError {
            code: ErrorCode::MalformedFrame,
            detail: e.to_string(),
        };
        let mut r = FrameReader::open(frame, tag::SERVE_REQUEST).map_err(malformed)?;
        let verb_byte = r.get_u8().map_err(malformed)?;
        let req = match verb_byte {
            verb::RANGE_SUM => Self::RangeSum {
                start: r.get_usize().map_err(malformed)?,
                end: r.get_usize().map_err(malformed)?,
            },
            verb::RANGE_AVG => Self::RangeAvg {
                start: r.get_usize().map_err(malformed)?,
                end: r.get_usize().map_err(malformed)?,
            },
            verb::POINT => Self::Point {
                idx: r.get_usize().map_err(malformed)?,
            },
            verb::RANGE_COUNT => Self::RangeCount {
                start: r.get_usize().map_err(malformed)?,
                end: r.get_usize().map_err(malformed)?,
            },
            verb::QUANTILE => {
                let method_byte = r.get_u8().map_err(malformed)?;
                let method = QuantileMethod::from_wire(method_byte).ok_or_else(|| WireError {
                    code: ErrorCode::Unsupported,
                    detail: format!("unknown quantile method {method_byte}"),
                })?;
                Self::Quantile {
                    method,
                    phi: r.get_f64().map_err(malformed)?,
                }
            }
            verb::SELECTIVITY => Self::Selectivity {
                lo: r.get_f64().map_err(malformed)?,
                hi: r.get_f64().map_err(malformed)?,
            },
            verb::SHARD_STATS => Self::ShardStats {
                shard: r.get_usize().map_err(malformed)?,
            },
            verb::RESPAWN_SHARD => Self::RespawnShard {
                shard: r.get_usize().map_err(malformed)?,
            },
            verb::CHECKPOINT_ALL => Self::CheckpointAll,
            verb::WAL_STATUS => Self::WalStatus,
            verb::HEALTH => Self::Health,
            verb::EVENTS => Self::Events {
                from: r.get_varint().map_err(malformed)?,
            },
            other => {
                return Err(WireError {
                    code: ErrorCode::Unsupported,
                    detail: format!("unknown request verb {other}"),
                })
            }
        };
        let trace = get_trace(&mut r).map_err(malformed)?;
        r.finish().map_err(malformed)?;
        Ok((req, trace))
    }
}

/// One successful reply. The first payload byte echoes the request verb,
/// so a response frame is self-describing.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The answer to any scalar query verb (`range_sum`, `range_avg`,
    /// `point`, `range_count`, `quantile`, `selectivity`).
    Scalar {
        /// Echo of the request's verb byte.
        verb: u8,
        /// The (finite) answer.
        value: f64,
        /// How much of the fleet's accepted data the answer stands on. A
        /// strict-policy server always reports complete coverage; a
        /// degraded-policy server may answer from a partial gather, and
        /// this field is how it admits it (DESIGN.md invariant 16).
        coverage: Coverage,
    },
    /// Reply to [`Request::ShardStats`].
    ShardStats {
        /// The queried shard.
        shard: usize,
        /// Total shards in the fleet (so clients can iterate).
        shards: usize,
        /// The shard's counters.
        metrics: ShardMetrics,
    },
    /// Reply to [`Request::RespawnShard`].
    Respawned {
        /// `total_pushed()` of the summary the replacement started from.
        restored_len: u64,
        /// Accepted records lost since the restored checkpoint.
        lost_since_checkpoint: u64,
    },
    /// Reply to [`Request::CheckpointAll`].
    Checkpointed {
        /// Total size of the checkpoint frames taken, in bytes.
        bytes: u64,
    },
    /// Reply to [`Request::WalStatus`].
    WalStatus(streamhist_stream::WalStatus),
    /// Reply to [`Request::Health`].
    Health {
        /// `true` when a supervisor is attached and the entries are its
        /// live state machine; `false` when the server synthesized them
        /// from one-off liveness pings.
        supervised: bool,
        /// One entry per shard, in shard order.
        shards: Vec<ShardHealth>,
    },
    /// Reply to [`Request::Events`]: one page of flight-recorder events
    /// in ascending sequence order.
    Events {
        /// Total events ever recorded (the recorder's next seq) — lets a
        /// client tell "no events in range" from "recorder wrapped past
        /// you".
        recorded: u64,
        /// The page, oldest first (at most [`EVENTS_PAGE_MAX`]).
        events: Vec<Event>,
    },
}

/// Wire bytes for [`EventKind`] variants inside an event frame.
mod ekind {
    pub const SHARD_DIED: u8 = 1;
    pub const SHARD_RESTARTED: u8 = 2;
    pub const RESTART_DEFERRED: u8 = 3;
    pub const SHARD_QUARANTINED: u8 = 4;
    pub const SHARD_PROBATION: u8 = 5;
    pub const SHARD_RECOVERED: u8 = 6;
    pub const CHECKPOINT_UPLOADED: u8 = 7;
    pub const UPLOAD_RETRIED: u8 = 8;
    pub const OVERLOADED: u8 = 9;
    pub const SLOW_QUERY: u8 = 10;
    pub const SNAPSHOT_DEGRADED: u8 = 11;
}

/// Longest `SlowQuery` verb string carried on the wire; longer names are
/// truncated at encode so an event can never blow the page budget.
const EVENT_VERB_MAX: usize = 64;

/// Encodes one event as a self-validating `tag::EVENT` frame (nested
/// inside a [`Response::Events`] page as a length-prefixed blob).
#[must_use]
pub fn encode_event(event: &Event) -> Vec<u8> {
    let mut w = FrameWriter::new(tag::EVENT);
    w.put_varint(event.seq);
    w.put_varint(event.at_ms);
    match &event.kind {
        EventKind::ShardDied { shard } => {
            w.put_u8(ekind::SHARD_DIED);
            w.put_usize(*shard);
        }
        EventKind::ShardRestarted {
            shard,
            restored_len,
            lost,
        } => {
            w.put_u8(ekind::SHARD_RESTARTED);
            w.put_usize(*shard);
            w.put_varint(*restored_len);
            w.put_varint(*lost);
        }
        EventKind::RestartDeferred { shard } => {
            w.put_u8(ekind::RESTART_DEFERRED);
            w.put_usize(*shard);
        }
        EventKind::ShardQuarantined { shard } => {
            w.put_u8(ekind::SHARD_QUARANTINED);
            w.put_usize(*shard);
        }
        EventKind::ShardProbation { shard } => {
            w.put_u8(ekind::SHARD_PROBATION);
            w.put_usize(*shard);
        }
        EventKind::ShardRecovered { shard } => {
            w.put_u8(ekind::SHARD_RECOVERED);
            w.put_usize(*shard);
        }
        EventKind::CheckpointUploaded {
            shard,
            upload_seq,
            bytes,
        } => {
            w.put_u8(ekind::CHECKPOINT_UPLOADED);
            w.put_usize(*shard);
            w.put_varint(*upload_seq);
            w.put_varint(*bytes);
        }
        EventKind::UploadRetried { shard, attempt } => {
            w.put_u8(ekind::UPLOAD_RETRIED);
            w.put_usize(*shard);
            w.put_varint(u64::from(*attempt));
        }
        EventKind::Overloaded { shard, dropped } => {
            w.put_u8(ekind::OVERLOADED);
            match shard {
                Some(s) => {
                    w.put_u8(1);
                    w.put_usize(*s);
                }
                None => w.put_u8(0),
            }
            w.put_varint(*dropped);
        }
        EventKind::SlowQuery {
            verb,
            trace,
            decode_us,
            answer_us,
            encode_us,
            total_us,
        } => {
            w.put_u8(ekind::SLOW_QUERY);
            let mut name = verb.as_str();
            if name.len() > EVENT_VERB_MAX {
                let mut cut = EVENT_VERB_MAX;
                while !name.is_char_boundary(cut) {
                    cut -= 1;
                }
                name = &name[..cut];
            }
            w.put_bytes(name.as_bytes());
            match trace {
                Some(t) => {
                    w.put_u8(1);
                    w.put_varint(*t);
                }
                None => w.put_u8(0),
            }
            w.put_varint(*decode_us);
            w.put_varint(*answer_us);
            w.put_varint(*encode_us);
            w.put_varint(*total_us);
        }
        EventKind::SnapshotDegraded {
            shards_included,
            shards_total,
        } => {
            w.put_u8(ekind::SNAPSHOT_DEGRADED);
            w.put_usize(*shards_included);
            w.put_usize(*shards_total);
        }
    }
    w.finish()
}

/// Decodes one `tag::EVENT` frame.
///
/// # Errors
///
/// [`StreamhistError`] if the frame fails envelope or payload validation
/// or carries an unknown event kind.
pub fn decode_event(frame: &[u8]) -> Result<Event, StreamhistError> {
    let mut r = FrameReader::open(frame, tag::EVENT)?;
    let seq = r.get_varint()?;
    let at_ms = r.get_varint()?;
    let kind_byte = r.get_u8()?;
    let kind = match kind_byte {
        ekind::SHARD_DIED => EventKind::ShardDied {
            shard: r.get_usize()?,
        },
        ekind::SHARD_RESTARTED => EventKind::ShardRestarted {
            shard: r.get_usize()?,
            restored_len: r.get_varint()?,
            lost: r.get_varint()?,
        },
        ekind::RESTART_DEFERRED => EventKind::RestartDeferred {
            shard: r.get_usize()?,
        },
        ekind::SHARD_QUARANTINED => EventKind::ShardQuarantined {
            shard: r.get_usize()?,
        },
        ekind::SHARD_PROBATION => EventKind::ShardProbation {
            shard: r.get_usize()?,
        },
        ekind::SHARD_RECOVERED => EventKind::ShardRecovered {
            shard: r.get_usize()?,
        },
        ekind::CHECKPOINT_UPLOADED => EventKind::CheckpointUploaded {
            shard: r.get_usize()?,
            upload_seq: r.get_varint()?,
            bytes: r.get_varint()?,
        },
        ekind::UPLOAD_RETRIED => EventKind::UploadRetried {
            shard: r.get_usize()?,
            attempt: u32::try_from(r.get_varint()?).map_err(|_| {
                StreamhistError::CorruptCheckpoint {
                    reason: "upload-retried attempt exceeds u32",
                }
            })?,
        },
        ekind::OVERLOADED => {
            let flag = r.get_u8()?;
            let shard = match flag {
                0 => None,
                1 => Some(r.get_usize()?),
                _ => {
                    return Err(StreamhistError::CorruptCheckpoint {
                        reason: "overloaded shard flag out of range",
                    })
                }
            };
            EventKind::Overloaded {
                shard,
                dropped: r.get_varint()?,
            }
        }
        ekind::SLOW_QUERY => {
            let verb = String::from_utf8_lossy(r.get_bytes()?).into_owned();
            let flag = r.get_u8()?;
            let trace = match flag {
                0 => None,
                1 => Some(r.get_varint()?),
                _ => {
                    return Err(StreamhistError::CorruptCheckpoint {
                        reason: "slow-query trace flag out of range",
                    })
                }
            };
            EventKind::SlowQuery {
                verb,
                trace,
                decode_us: r.get_varint()?,
                answer_us: r.get_varint()?,
                encode_us: r.get_varint()?,
                total_us: r.get_varint()?,
            }
        }
        ekind::SNAPSHOT_DEGRADED => EventKind::SnapshotDegraded {
            shards_included: r.get_usize()?,
            shards_total: r.get_usize()?,
        },
        _ => {
            return Err(StreamhistError::CorruptCheckpoint {
                reason: "unknown event kind",
            })
        }
    };
    r.finish()?;
    Ok(Event { seq, at_ms, kind })
}

impl Response {
    /// Serializes the response into one self-validating frame (no trace
    /// id; see [`encode_traced`](Self::encode_traced)).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        self.encode_traced(None)
    }

    /// Serializes the response with an optional trailing trace id.
    #[must_use]
    pub fn encode_traced(&self, trace: Option<u64>) -> Vec<u8> {
        let mut w = FrameWriter::new(tag::SERVE_RESPONSE);
        match self {
            Self::Scalar {
                verb,
                value,
                coverage,
            } => {
                w.put_u8(*verb);
                w.put_f64(*value);
                w.put_usize(coverage.shards_included);
                w.put_usize(coverage.shards_total);
                w.put_varint(coverage.records_represented);
                w.put_varint(coverage.records_total);
            }
            Self::ShardStats {
                shard,
                shards,
                metrics,
            } => {
                w.put_u8(verb::SHARD_STATS);
                w.put_usize(*shard);
                w.put_usize(*shards);
                w.put_varint(metrics.pushes_accepted);
                w.put_varint(metrics.values_rejected);
                w.put_varint(metrics.records_dropped);
                w.put_varint(metrics.snapshots_served);
                w.put_varint(metrics.respawns);
                w.put_varint(metrics.checkpoints_taken);
                w.put_varint(metrics.checkpoint_bytes);
                w.put_varint(metrics.restores);
                w.put_usize(metrics.queue_depth);
            }
            Self::Respawned {
                restored_len,
                lost_since_checkpoint,
            } => {
                w.put_u8(verb::RESPAWN_SHARD);
                w.put_varint(*restored_len);
                w.put_varint(*lost_since_checkpoint);
            }
            Self::Checkpointed { bytes } => {
                w.put_u8(verb::CHECKPOINT_ALL);
                w.put_varint(*bytes);
            }
            Self::WalStatus(s) => {
                w.put_u8(verb::WAL_STATUS);
                w.put_u8(u8::from(s.enabled));
                w.put_varint(s.wal_sync);
                w.put_varint(s.checkpoint_interval);
                w.put_varint(s.segments_written);
                w.put_varint(s.segment_bytes);
                w.put_varint(s.frames_written);
                w.put_varint(s.frame_bytes);
                w.put_varint(s.bytes_ingested);
                w.put_varint(s.bytes_written);
                w.put_f64(s.amplification);
                w.put_varint(s.retries);
                w.put_varint(s.failures);
                w.put_varint(s.segments_dropped);
                w.put_varint(s.queue_depth);
            }
            Self::Health { supervised, shards } => {
                w.put_u8(verb::HEALTH);
                w.put_u8(u8::from(*supervised));
                w.put_usize(shards.len());
                for h in shards {
                    w.put_usize(h.shard);
                    w.put_u8(h.state.as_u8());
                    w.put_varint(h.consecutive_failures);
                    w.put_varint(h.restarts);
                }
            }
            Self::Events { recorded, events } => {
                w.put_u8(verb::EVENTS);
                w.put_varint(*recorded);
                let page = &events[..events.len().min(EVENTS_PAGE_MAX)];
                w.put_usize(page.len());
                for e in page {
                    w.put_bytes(&encode_event(e));
                }
            }
        }
        put_trace(&mut w, trace);
        w.finish()
    }

    /// Decodes a response frame, discarding any trailing trace id (see
    /// [`decode_traced`](Self::decode_traced)).
    ///
    /// # Errors
    ///
    /// [`StreamhistError`] if the frame fails envelope or payload
    /// validation.
    pub fn decode(frame: &[u8]) -> Result<Self, StreamhistError> {
        Self::decode_traced(frame).map(|(resp, _)| resp)
    }

    /// Decodes a response frame together with its optional trailing
    /// trace id (`None` for pre-trace peers).
    ///
    /// # Errors
    ///
    /// [`StreamhistError`] if the frame fails envelope or payload
    /// validation.
    pub fn decode_traced(frame: &[u8]) -> Result<(Self, Option<u64>), StreamhistError> {
        let mut r = FrameReader::open(frame, tag::SERVE_RESPONSE)?;
        let verb_byte = r.get_u8()?;
        let resp = match verb_byte {
            verb::SHARD_STATS => Self::ShardStats {
                shard: r.get_usize()?,
                shards: r.get_usize()?,
                metrics: ShardMetrics {
                    pushes_accepted: r.get_varint()?,
                    values_rejected: r.get_varint()?,
                    records_dropped: r.get_varint()?,
                    snapshots_served: r.get_varint()?,
                    respawns: r.get_varint()?,
                    checkpoints_taken: r.get_varint()?,
                    checkpoint_bytes: r.get_varint()?,
                    restores: r.get_varint()?,
                    queue_depth: r.get_usize()?,
                },
            },
            verb::RESPAWN_SHARD => Self::Respawned {
                restored_len: r.get_varint()?,
                lost_since_checkpoint: r.get_varint()?,
            },
            verb::CHECKPOINT_ALL => Self::Checkpointed {
                bytes: r.get_varint()?,
            },
            verb::WAL_STATUS => {
                let enabled_byte = r.get_u8()?;
                if enabled_byte > 1 {
                    return Err(StreamhistError::CorruptCheckpoint {
                        reason: "wal-status enabled byte out of range",
                    });
                }
                Self::WalStatus(streamhist_stream::WalStatus {
                    enabled: enabled_byte == 1,
                    wal_sync: r.get_varint()?,
                    checkpoint_interval: r.get_varint()?,
                    segments_written: r.get_varint()?,
                    segment_bytes: r.get_varint()?,
                    frames_written: r.get_varint()?,
                    frame_bytes: r.get_varint()?,
                    bytes_ingested: r.get_varint()?,
                    bytes_written: r.get_varint()?,
                    amplification: r.get_f64()?,
                    retries: r.get_varint()?,
                    failures: r.get_varint()?,
                    segments_dropped: r.get_varint()?,
                    queue_depth: r.get_varint()?,
                })
            }
            verb::HEALTH => {
                let supervised_byte = r.get_u8()?;
                if supervised_byte > 1 {
                    return Err(StreamhistError::CorruptCheckpoint {
                        reason: "health supervised byte out of range",
                    });
                }
                // shard(>=1) + state(1) + two varints(>=1 each) = 4 bytes
                // minimum per entry.
                let n = r.get_count(4)?;
                let mut shards = Vec::with_capacity(n);
                for _ in 0..n {
                    let shard = r.get_usize()?;
                    let state_byte = r.get_u8()?;
                    let state = ShardState::from_u8(state_byte).ok_or(
                        StreamhistError::CorruptCheckpoint {
                            reason: "unknown shard health state",
                        },
                    )?;
                    shards.push(ShardHealth {
                        shard,
                        state,
                        consecutive_failures: r.get_varint()?,
                        restarts: r.get_varint()?,
                    });
                }
                Self::Health {
                    supervised: supervised_byte == 1,
                    shards,
                }
            }
            verb::EVENTS => {
                let recorded = r.get_varint()?;
                // Each entry is a length-prefixed nested frame: at least
                // a 1-byte length plus MIN_FRAME bytes of frame.
                let n = r.get_count(1 + MIN_FRAME)?;
                if n > EVENTS_PAGE_MAX {
                    return Err(StreamhistError::CorruptCheckpoint {
                        reason: "events page exceeds the page bound",
                    });
                }
                let mut events = Vec::with_capacity(n);
                for _ in 0..n {
                    events.push(decode_event(r.get_bytes()?)?);
                }
                Self::Events { recorded, events }
            }
            v if (verb::RANGE_SUM..=verb::SELECTIVITY).contains(&v) => {
                let value = r.get_f64()?;
                let coverage = Coverage {
                    shards_included: r.get_usize()?,
                    shards_total: r.get_usize()?,
                    records_represented: r.get_varint()?,
                    records_total: r.get_varint()?,
                };
                if coverage.shards_included > coverage.shards_total
                    || coverage.records_represented > coverage.records_total
                {
                    return Err(StreamhistError::CorruptCheckpoint {
                        reason: "coverage claims more than the fleet total",
                    });
                }
                Self::Scalar {
                    verb: v,
                    value,
                    coverage,
                }
            }
            _ => {
                return Err(StreamhistError::CorruptCheckpoint {
                    reason: "unknown response verb",
                })
            }
        };
        let trace = get_trace(&mut r)?;
        r.finish()?;
        Ok((resp, trace))
    }
}

/// Machine-readable category of a structured error frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request frame failed envelope or payload validation
    /// (truncated, bit-flipped, trailing bytes, bad tag).
    MalformedFrame,
    /// The request decoded but its arguments are invalid for the current
    /// state (inverted range, out-of-domain index, bad quantile, bad
    /// shard index, empty sketch).
    InvalidQuery,
    /// The addressed shard's worker has died (respawn it).
    ShardDead,
    /// Unknown verb or quantile method (speak a newer protocol?).
    Unsupported,
    /// The server failed internally (I/O on a checkpoint, a non-finite
    /// answer) — the request was well-formed.
    Internal,
    /// The server's worker pool and backlog are saturated; retry later.
    Overloaded,
}

impl ErrorCode {
    fn to_wire(self) -> u8 {
        match self {
            Self::MalformedFrame => 1,
            Self::InvalidQuery => 2,
            Self::ShardDead => 3,
            Self::Unsupported => 4,
            Self::Internal => 5,
            Self::Overloaded => 6,
        }
    }

    fn from_wire(b: u8) -> Option<Self> {
        match b {
            1 => Some(Self::MalformedFrame),
            2 => Some(Self::InvalidQuery),
            3 => Some(Self::ShardDead),
            4 => Some(Self::Unsupported),
            5 => Some(Self::Internal),
            6 => Some(Self::Overloaded),
            _ => None,
        }
    }

    /// Stable lowercase name (the error-metrics label).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::MalformedFrame => "malformed_frame",
            Self::InvalidQuery => "invalid_query",
            Self::ShardDead => "shard_dead",
            Self::Unsupported => "unsupported",
            Self::Internal => "internal",
            Self::Overloaded => "overloaded",
        }
    }
}

/// A structured error reply: category code plus a human-readable detail
/// string. The server sends one of these for every request it cannot
/// answer — a malformed or invalid request never drops the connection and
/// never panics the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Machine-readable category.
    pub code: ErrorCode,
    /// Human-readable explanation (bounded; truncated at encode time).
    pub detail: String,
}

impl WireError {
    /// Convenience constructor.
    #[must_use]
    pub fn new(code: ErrorCode, detail: impl Into<String>) -> Self {
        Self {
            code,
            detail: detail.into(),
        }
    }

    /// Serializes the error into one self-validating frame. The detail
    /// string is truncated to 512 bytes (on a character boundary) so an
    /// error path can never build an oversized frame.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        self.encode_traced(None)
    }

    /// Serializes the error with an optional trailing trace id — error
    /// replies echo the request's trace just like successes do.
    #[must_use]
    pub fn encode_traced(&self, trace: Option<u64>) -> Vec<u8> {
        let mut w = FrameWriter::new(tag::SERVE_ERROR);
        w.put_u8(self.code.to_wire());
        let mut detail = self.detail.as_str();
        if detail.len() > 512 {
            let mut cut = 512;
            while !detail.is_char_boundary(cut) {
                cut -= 1;
            }
            detail = &detail[..cut];
        }
        w.put_bytes(detail.as_bytes());
        put_trace(&mut w, trace);
        w.finish()
    }

    /// Decodes an error frame, discarding any trailing trace id.
    ///
    /// # Errors
    ///
    /// [`StreamhistError`] if the frame fails validation or carries an
    /// unknown error code.
    pub fn decode(frame: &[u8]) -> Result<Self, StreamhistError> {
        Self::decode_traced(frame).map(|(e, _)| e)
    }

    /// Decodes an error frame together with its optional trailing trace
    /// id.
    ///
    /// # Errors
    ///
    /// [`StreamhistError`] if the frame fails validation or carries an
    /// unknown error code.
    pub fn decode_traced(frame: &[u8]) -> Result<(Self, Option<u64>), StreamhistError> {
        let mut r = FrameReader::open(frame, tag::SERVE_ERROR)?;
        let code_byte = r.get_u8()?;
        let code = ErrorCode::from_wire(code_byte).ok_or(StreamhistError::CorruptCheckpoint {
            reason: "unknown error code",
        })?;
        let detail = String::from_utf8_lossy(r.get_bytes()?).into_owned();
        let trace = get_trace(&mut r)?;
        r.finish()?;
        Ok((Self { code, detail }, trace))
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code.name(), self.detail)
    }
}

impl std::error::Error for WireError {}

/// What [`read_packet`] found on the socket.
#[derive(Debug)]
pub enum Packet {
    /// One complete frame (length already validated; contents not yet).
    Frame(Vec<u8>),
    /// The peer speaks HTTP (`GET `/`POST`/`HEAD`/`PUT `): a human with
    /// `curl` found the binary port. The four sniffed bytes are returned
    /// so the caller can answer with a readable HTTP error.
    Http([u8; 4]),
    /// The length prefix is outside `[MIN_FRAME, MAX_FRAME]` — the stream
    /// is desynchronized beyond recovery.
    BadLength(u32),
    /// Clean EOF before any byte of a next message.
    Closed,
}

/// Writes one already-encoded frame with its length prefix.
///
/// # Errors
///
/// Propagates the underlying write error.
pub fn write_packet<W: Write>(w: &mut W, frame: &[u8]) -> io::Result<()> {
    debug_assert!(frame.len() <= MAX_FRAME, "oversized frame built locally");
    let len = u32::try_from(frame.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds u32"))?;
    // One write for prefix + frame: two small writes would emit two TCP
    // segments, and Nagle holding the second until the peer's delayed ACK
    // adds ~40ms to every round trip.
    let mut packet = Vec::with_capacity(4 + frame.len());
    packet.extend_from_slice(&len.to_le_bytes());
    packet.extend_from_slice(frame);
    w.write_all(&packet)?;
    w.flush()
}

/// Reads one length-prefixed frame (or detects EOF / HTTP / a bogus
/// length). Never allocates more than [`MAX_FRAME`] bytes.
///
/// # Errors
///
/// Propagates underlying read errors, including timeouts on a stalled
/// peer — a half-sent frame cannot hang the caller forever as long as the
/// stream has a read deadline.
pub fn read_packet<R: Read>(r: &mut R) -> io::Result<Packet> {
    let mut prefix = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        let n = r.read(&mut prefix[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(Packet::Closed);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "EOF inside frame length prefix",
            ));
        }
        filled += n;
    }
    if matches!(&prefix, b"GET " | b"POST" | b"HEAD" | b"PUT ") {
        return Ok(Packet::Http(prefix));
    }
    let len = u32::from_le_bytes(prefix);
    if (len as usize) < MIN_FRAME || len as usize > MAX_FRAME {
        return Ok(Packet::BadLength(len));
    }
    let mut frame = vec![0u8; len as usize];
    r.read_exact(&mut frame)?;
    Ok(Packet::Frame(frame))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_requests() -> Vec<Request> {
        vec![
            Request::RangeSum { start: 3, end: 90 },
            Request::RangeAvg { start: 0, end: 0 },
            Request::Point { idx: 17 },
            Request::RangeCount {
                start: 5,
                end: usize::MAX,
            },
            Request::Quantile {
                method: QuantileMethod::Gk,
                phi: 0.99,
            },
            Request::Quantile {
                method: QuantileMethod::Mrl,
                phi: 0.5,
            },
            Request::Selectivity { lo: -1.5, hi: 2.5 },
            Request::ShardStats { shard: 2 },
            Request::RespawnShard { shard: 0 },
            Request::CheckpointAll,
            Request::WalStatus,
            Request::Health,
            Request::Events { from: 0 },
            Request::Events { from: u64::MAX },
        ]
    }

    fn all_event_kinds() -> Vec<EventKind> {
        vec![
            EventKind::ShardDied { shard: 3 },
            EventKind::ShardRestarted {
                shard: 1,
                restored_len: 500,
                lost: 12,
            },
            EventKind::RestartDeferred { shard: 0 },
            EventKind::ShardQuarantined { shard: 7 },
            EventKind::ShardProbation { shard: 7 },
            EventKind::ShardRecovered { shard: 7 },
            EventKind::CheckpointUploaded {
                shard: 2,
                upload_seq: 64,
                bytes: 4096,
            },
            EventKind::UploadRetried {
                shard: 2,
                attempt: 3,
            },
            EventKind::Overloaded {
                shard: Some(1),
                dropped: 256,
            },
            EventKind::Overloaded {
                shard: None,
                dropped: 9,
            },
            EventKind::SlowQuery {
                verb: "range_sum".to_string(),
                trace: Some(0xDEAD_BEEF),
                decode_us: 12,
                answer_us: 90_000,
                encode_us: 8,
                total_us: 90_020,
            },
            EventKind::SlowQuery {
                verb: "quantile".to_string(),
                trace: None,
                decode_us: 0,
                answer_us: 1,
                encode_us: 0,
                total_us: 1,
            },
            EventKind::SnapshotDegraded {
                shards_included: 3,
                shards_total: 4,
            },
        ]
    }

    fn full_coverage() -> Coverage {
        Coverage {
            shards_included: 4,
            shards_total: 4,
            records_represented: 1000,
            records_total: 1000,
        }
    }

    #[test]
    fn requests_roundtrip() {
        for req in all_requests() {
            let frame = req.encode();
            assert_eq!(Request::decode(&frame), Ok(req), "{req:?}");
        }
    }

    #[test]
    fn responses_roundtrip() {
        let metrics = ShardMetrics {
            pushes_accepted: 10,
            values_rejected: 2,
            records_dropped: 1,
            snapshots_served: 4,
            respawns: 1,
            checkpoints_taken: 3,
            checkpoint_bytes: 900,
            restores: 1,
            queue_depth: 7,
        };
        for resp in [
            Response::Scalar {
                verb: 1,
                value: 42.5,
                coverage: full_coverage(),
            },
            Response::Scalar {
                verb: 4,
                value: 7.0,
                coverage: Coverage {
                    shards_included: 3,
                    shards_total: 4,
                    records_represented: 750,
                    records_total: 1000,
                },
            },
            Response::ShardStats {
                shard: 2,
                shards: 4,
                metrics,
            },
            Response::Respawned {
                restored_len: 128,
                lost_since_checkpoint: 3,
            },
            Response::Checkpointed { bytes: 4096 },
            Response::WalStatus(streamhist_stream::WalStatus::default()),
            Response::WalStatus(streamhist_stream::WalStatus {
                enabled: true,
                wal_sync: 64,
                checkpoint_interval: 1024,
                segments_written: 11,
                segment_bytes: 6000,
                frames_written: 2,
                frame_bytes: 900,
                bytes_ingested: 5632,
                bytes_written: 6900,
                amplification: 1.225,
                retries: 3,
                failures: 1,
                segments_dropped: 2,
                queue_depth: 4,
            }),
            Response::Health {
                supervised: false,
                shards: Vec::new(),
            },
            Response::Health {
                supervised: true,
                shards: vec![
                    ShardHealth {
                        shard: 0,
                        state: ShardState::Live,
                        consecutive_failures: 0,
                        restarts: 2,
                    },
                    ShardHealth {
                        shard: 1,
                        state: ShardState::Quarantined,
                        consecutive_failures: 5,
                        restarts: 9,
                    },
                    ShardHealth {
                        shard: 2,
                        state: ShardState::Recovering,
                        consecutive_failures: 1,
                        restarts: 1,
                    },
                ],
            },
        ] {
            let frame = resp.encode();
            assert_eq!(Response::decode(&frame).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn trace_ids_roundtrip_byte_identically_on_every_frame_kind() {
        for trace in [None, Some(0u64), Some(1), Some(u64::MAX)] {
            for req in all_requests() {
                let frame = req.encode_traced(trace);
                assert_eq!(Request::decode_traced(&frame), Ok((req, trace)), "{req:?}");
                // Untraced decode still accepts the frame (discards trace).
                assert_eq!(Request::decode(&frame), Ok(req));
            }
            let resp = Response::Scalar {
                verb: 1,
                value: 2.5,
                coverage: full_coverage(),
            };
            let frame = resp.encode_traced(trace);
            assert_eq!(Response::decode_traced(&frame).unwrap(), (resp, trace));
            let err = WireError::new(ErrorCode::InvalidQuery, "nope");
            let frame = err.encode_traced(trace);
            assert_eq!(WireError::decode_traced(&frame).unwrap(), (err, trace));
        }
    }

    #[test]
    fn pre_trace_frames_decode_as_trace_absent() {
        // encode() emits no trailing varint — exactly what an old peer
        // sends — and decode_traced must see "no trace".
        let frame = Request::Health.encode();
        assert_eq!(Request::decode_traced(&frame), Ok((Request::Health, None)));
    }

    #[test]
    fn events_roundtrip_every_kind() {
        let events: Vec<Event> = all_event_kinds()
            .into_iter()
            .enumerate()
            .map(|(i, kind)| Event {
                seq: i as u64,
                at_ms: i as u64 * 10,
                kind,
            })
            .collect();
        for e in &events {
            let frame = encode_event(e);
            assert_eq!(&decode_event(&frame).unwrap(), e, "{e:?}");
        }
        let resp = Response::Events {
            recorded: 99,
            events,
        };
        let frame = resp.encode_traced(Some(7));
        assert_eq!(Response::decode_traced(&frame).unwrap(), (resp, Some(7)));
    }

    #[test]
    fn events_page_is_capped_at_encode_and_validated_at_decode() {
        let many: Vec<Event> = (0..EVENTS_PAGE_MAX as u64 + 50)
            .map(|seq| Event {
                seq,
                at_ms: seq,
                kind: EventKind::ShardDied { shard: 0 },
            })
            .collect();
        let frame = Response::Events {
            recorded: many.len() as u64,
            events: many,
        }
        .encode();
        assert!(frame.len() <= MAX_FRAME, "page must fit one frame");
        match Response::decode(&frame).unwrap() {
            Response::Events { events, .. } => assert_eq!(events.len(), EVENTS_PAGE_MAX),
            other => panic!("expected events, got {other:?}"),
        }
    }

    #[test]
    fn event_bit_flips_and_truncations_are_rejected() {
        let frame = encode_event(&Event {
            seq: 5,
            at_ms: 17,
            kind: EventKind::SlowQuery {
                verb: "point".to_string(),
                trace: Some(3),
                decode_us: 1,
                answer_us: 2,
                encode_us: 3,
                total_us: 6,
            },
        });
        for byte in 0..frame.len() {
            let mut flipped = frame.clone();
            flipped[byte] ^= 1;
            assert!(decode_event(&flipped).is_err(), "flip at {byte}");
        }
        for cut in 0..frame.len() {
            assert!(decode_event(&frame[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn slow_query_verb_is_truncated_on_the_wire() {
        let e = Event {
            seq: 0,
            at_ms: 0,
            kind: EventKind::SlowQuery {
                verb: "v".repeat(500),
                trace: None,
                decode_us: 0,
                answer_us: 0,
                encode_us: 0,
                total_us: 0,
            },
        };
        let decoded = decode_event(&encode_event(&e)).unwrap();
        match decoded.kind {
            EventKind::SlowQuery { verb, .. } => assert_eq!(verb.len(), 64),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn overclaiming_coverage_is_rejected() {
        // shards_included > shards_total and records_represented >
        // records_total are both impossible claims; decode rejects each.
        for (inc, tot, rep, all) in [(5usize, 4usize, 10u64, 10u64), (4, 4, 11, 10)] {
            let mut w = FrameWriter::new(tag::SERVE_RESPONSE);
            w.put_u8(verb::RANGE_SUM);
            w.put_f64(1.0);
            w.put_usize(inc);
            w.put_usize(tot);
            w.put_varint(rep);
            w.put_varint(all);
            let frame = w.finish();
            assert!(Response::decode(&frame).is_err(), "{inc}/{tot} {rep}/{all}");
        }
    }

    #[test]
    fn health_state_and_supervised_bytes_are_validated() {
        let mut w = FrameWriter::new(tag::SERVE_RESPONSE);
        w.put_u8(verb::HEALTH);
        w.put_u8(2); // not a bool
        w.put_usize(0);
        assert!(Response::decode(&w.finish()).is_err());

        let mut w = FrameWriter::new(tag::SERVE_RESPONSE);
        w.put_u8(verb::HEALTH);
        w.put_u8(1);
        w.put_usize(1);
        w.put_usize(0);
        w.put_u8(9); // not a ShardState
        w.put_varint(0);
        w.put_varint(0);
        assert!(Response::decode(&w.finish()).is_err());
    }

    #[test]
    fn wal_status_enabled_byte_is_validated() {
        let mut w = FrameWriter::new(tag::SERVE_RESPONSE);
        w.put_u8(verb::WAL_STATUS);
        w.put_u8(7); // not a bool
        let frame = w.finish();
        assert!(Response::decode(&frame).is_err());
    }

    #[test]
    fn errors_roundtrip_and_truncate_detail() {
        let e = WireError::new(ErrorCode::InvalidQuery, "inverted range");
        assert_eq!(WireError::decode(&e.encode()).unwrap(), e);
        let long = WireError::new(ErrorCode::Internal, "x".repeat(5000));
        let decoded = WireError::decode(&long.encode()).unwrap();
        assert_eq!(decoded.detail.len(), 512);
        assert!(long.encode().len() < 600);
    }

    #[test]
    fn every_bit_flip_of_a_request_is_rejected_cleanly() {
        let frame = Request::RangeSum { start: 1, end: 9 }.encode();
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut flipped = frame.clone();
                flipped[byte] ^= 1 << bit;
                let err = Request::decode(&flipped).expect_err("flip must fail CRC");
                assert_eq!(err.code, ErrorCode::MalformedFrame);
            }
        }
    }

    #[test]
    fn every_truncation_of_a_request_is_rejected_cleanly() {
        let frame = Request::Quantile {
            method: QuantileMethod::Gk,
            phi: 0.5,
        }
        .encode();
        for cut in 0..frame.len() {
            assert!(Request::decode(&frame[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn unknown_verb_is_unsupported_not_malformed() {
        let mut w = FrameWriter::new(tag::SERVE_REQUEST);
        w.put_u8(200);
        let frame = w.finish();
        let err = Request::decode(&frame).expect_err("unknown verb");
        assert_eq!(err.code, ErrorCode::Unsupported);
    }

    #[test]
    fn wrong_tag_is_malformed() {
        let frame = Response::Scalar {
            verb: 1,
            value: 1.0,
            coverage: full_coverage(),
        }
        .encode();
        let err = Request::decode(&frame).expect_err("response is not a request");
        assert_eq!(err.code, ErrorCode::MalformedFrame);
    }

    #[test]
    fn packets_roundtrip_and_validate_lengths() {
        let frame = Request::CheckpointAll.encode();
        let mut wire = Vec::new();
        write_packet(&mut wire, &frame).unwrap();
        let mut cursor = io::Cursor::new(&wire);
        match read_packet(&mut cursor).unwrap() {
            Packet::Frame(f) => assert_eq!(f, frame),
            other => panic!("expected frame, got {other:?}"),
        }
        assert!(matches!(
            read_packet(&mut io::Cursor::new(&wire[..wire.len() - 1])),
            Ok(Packet::Frame(_)) | Err(_)
        ));
        // Zero / huge lengths are flagged, not allocated.
        let mut zero = io::Cursor::new(vec![0u8, 0, 0, 0]);
        assert!(matches!(
            read_packet(&mut zero).unwrap(),
            Packet::BadLength(0)
        ));
        let mut huge = io::Cursor::new(u32::MAX.to_le_bytes().to_vec());
        assert!(matches!(
            read_packet(&mut huge).unwrap(),
            Packet::BadLength(u32::MAX)
        ));
        // HTTP methods are sniffed.
        let mut http = io::Cursor::new(b"GET /metrics HTTP/1.1\r\n\r\n".to_vec());
        assert!(matches!(read_packet(&mut http).unwrap(), Packet::Http(_)));
        // Clean EOF.
        let mut empty = io::Cursor::new(Vec::new());
        assert!(matches!(read_packet(&mut empty).unwrap(), Packet::Closed));
    }
}
