//! A bounded in-memory flight recorder: the fleet's black box.
//!
//! [`FlightRecorder`] is a fixed-capacity ring of typed, monotonically
//! sequenced [`Event`]s. Writers never block each other on a shared lock:
//! each event claims a unique sequence number with one atomic `fetch_add`,
//! then writes into the slot `seq % capacity` under that slot's own
//! mutex. Two writers contend only when they land on the *same* slot —
//! i.e. when the ring has wrapped a full capacity between them — and a
//! slower writer holding an older sequence number never clobbers a newer
//! event (the slot compares sequence numbers before overwriting). The
//! result is the classic flight-recorder contract:
//!
//! * every recorded event gets a unique, strictly increasing `seq`;
//! * at most `capacity` events are retained — the newest ones;
//! * [`events_from`](FlightRecorder::events_from) returns what is
//!   retained in sequence order, paged by sequence number.
//!
//! Timestamps are coarse (milliseconds since the recorder was created):
//! events are for reconstructing *what happened in what order*, and the
//! sequence number — not the clock — is the order witness. The recorder
//! also feeds a [`RateFamily`], so the
//! events-per-second rate over sliding windows is available at O(1) words
//! per window (see [`crate::sliding`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use crate::sliding::RateFamily;

/// Default ring capacity: enough to reconstruct a chaos sweep's worth of
/// supervisor transitions plus slow-query timelines without measurable
/// memory cost.
pub const DEFAULT_CAPACITY: usize = 1024;

/// One recorded event: a unique sequence number, a coarse timestamp
/// (milliseconds since the recorder's creation), and the typed payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Unique, strictly increasing per recorder; the order witness.
    pub seq: u64,
    /// Milliseconds since the recorder was created (coarse, monotonic).
    pub at_ms: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The typed event payloads a recorder understands — one variant per
/// noteworthy transition in the supervisor, durability, overload, and
/// serve layers.
///
/// Deliberately *exhaustive*: the serve layer carries these on the wire,
/// and a new variant must fail its codec's `match` at compile time rather
/// than silently fall through a wildcard and vanish from the timeline.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A supervisor probe found a shard's worker dead.
    ShardDied {
        /// The shard whose worker died.
        shard: usize,
    },
    /// A shard's worker was restarted from its newest checkpoint.
    ShardRestarted {
        /// The restarted shard.
        shard: usize,
        /// Records restored from the checkpoint (and WAL replay).
        restored_len: u64,
        /// Records lost since the last durable point.
        lost: u64,
    },
    /// A restart was deferred because the supervisor's token bucket was
    /// empty (restart-storm protection).
    RestartDeferred {
        /// The shard left dead for now.
        shard: usize,
    },
    /// A flapping shard crossed the failure threshold and was quarantined.
    ShardQuarantined {
        /// The quarantined shard.
        shard: usize,
    },
    /// A quarantined shard was given a probationary restart.
    ShardProbation {
        /// The shard on probation.
        shard: usize,
    },
    /// A recovering shard answered a probe and is Live again.
    ShardRecovered {
        /// The recovered shard.
        shard: usize,
    },
    /// The durability uploader persisted a checkpoint frame.
    CheckpointUploaded {
        /// The shard the frame belongs to.
        shard: usize,
        /// The frame's sequence number (records covered).
        upload_seq: u64,
        /// Encoded frame size in bytes.
        bytes: u64,
    },
    /// A store call failed and the uploader retried it.
    UploadRetried {
        /// The shard whose upload was retried.
        shard: usize,
        /// 1-based retry attempt number.
        attempt: u32,
    },
    /// Load was shed: a full shard queue dropped records
    /// (`shard: Some(_)`) or the serve accept pool shed a connection
    /// (`shard: None`).
    Overloaded {
        /// The overloaded shard, or `None` for the serve accept pool.
        shard: Option<usize>,
        /// Cumulative records (or connections) dropped at emission time.
        dropped: u64,
    },
    /// A served request exceeded the slow-query threshold; the full phase
    /// timeline is attached.
    SlowQuery {
        /// The request's verb name.
        verb: String,
        /// The request's trace id, if one was carried or assigned.
        trace: Option<u64>,
        /// Microseconds spent decoding the request frame.
        decode_us: u64,
        /// Microseconds spent answering (snapshot/gather + evaluation).
        answer_us: u64,
        /// Microseconds spent encoding and writing the reply.
        encode_us: u64,
        /// End-to-end microseconds for the request.
        total_us: u64,
    },
    /// A global snapshot was served from a partial fleet (degraded mode).
    SnapshotDegraded {
        /// Shards whose windows the snapshot represents.
        shards_included: usize,
        /// Total shards in the fleet.
        shards_total: usize,
    },
}

impl EventKind {
    /// A stable, short name for the event type (used by renderings and by
    /// the wire codec's tests).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::ShardDied { .. } => "shard_died",
            EventKind::ShardRestarted { .. } => "shard_restarted",
            EventKind::RestartDeferred { .. } => "restart_deferred",
            EventKind::ShardQuarantined { .. } => "shard_quarantined",
            EventKind::ShardProbation { .. } => "shard_probation",
            EventKind::ShardRecovered { .. } => "shard_recovered",
            EventKind::CheckpointUploaded { .. } => "checkpoint_uploaded",
            EventKind::UploadRetried { .. } => "upload_retried",
            EventKind::Overloaded { .. } => "overloaded",
            EventKind::SlowQuery { .. } => "slow_query",
            EventKind::SnapshotDegraded { .. } => "snapshot_degraded",
        }
    }
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{} +{}ms {}", self.seq, self.at_ms, self.kind.name())?;
        match &self.kind {
            EventKind::ShardDied { shard }
            | EventKind::RestartDeferred { shard }
            | EventKind::ShardQuarantined { shard }
            | EventKind::ShardProbation { shard }
            | EventKind::ShardRecovered { shard } => write!(f, " shard={shard}"),
            EventKind::ShardRestarted {
                shard,
                restored_len,
                lost,
            } => write!(f, " shard={shard} restored={restored_len} lost={lost}"),
            EventKind::CheckpointUploaded {
                shard,
                upload_seq,
                bytes,
            } => write!(f, " shard={shard} seq={upload_seq} bytes={bytes}"),
            EventKind::UploadRetried { shard, attempt } => {
                write!(f, " shard={shard} attempt={attempt}")
            }
            EventKind::Overloaded { shard, dropped } => match shard {
                Some(s) => write!(f, " shard={s} dropped={dropped}"),
                None => write!(f, " pool=serve-accept dropped={dropped}"),
            },
            EventKind::SlowQuery {
                verb,
                trace,
                decode_us,
                answer_us,
                encode_us,
                total_us,
            } => {
                write!(f, " verb={verb}")?;
                if let Some(t) = trace {
                    write!(f, " trace={t}")?;
                }
                write!(
                    f,
                    " decode={decode_us}us answer={answer_us}us \
                     encode={encode_us}us total={total_us}us"
                )
            }
            EventKind::SnapshotDegraded {
                shards_included,
                shards_total,
            } => write!(f, " included={shards_included}/{shards_total}"),
        }
    }
}

/// The bounded event ring. See the [module docs](self).
#[derive(Debug)]
pub struct FlightRecorder {
    /// The next sequence number to hand out; also the count of events
    /// ever recorded.
    seq: AtomicU64,
    slots: Vec<Mutex<Option<Event>>>,
    epoch: Instant,
    rates: RateFamily,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder retaining the newest `capacity` events (clamped to at
    /// least 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            seq: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            epoch: Instant::now(),
            rates: RateFamily::standard(),
        }
    }

    /// The ring's capacity: the maximum number of events retained.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The number of events ever recorded (also the next `seq`). Events
    /// older than the newest `capacity()` have been overwritten.
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Milliseconds since this recorder was created — the clock every
    /// event's `at_ms` is relative to.
    #[must_use]
    pub fn now_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Records one event, returning its sequence number.
    ///
    /// Lock-free with respect to other writers except when two writers
    /// land on the same slot (the ring wrapped a full capacity between
    /// them); even then the slot lock is held only for the write, and an
    /// older event never overwrites a newer one.
    pub fn record(&self, kind: EventKind) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let at_ms = self.now_ms();
        self.rates.observe(at_ms);
        let idx = usize::try_from(seq % self.slots.len() as u64).expect("index < capacity");
        let mut slot = self.slots[idx]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // A racing writer that wrapped past us may already have written a
        // *newer* event here; keep the newest.
        if slot.as_ref().is_none_or(|e| e.seq < seq) {
            *slot = Some(Event { seq, at_ms, kind });
        }
        seq
    }

    /// Retained events with `seq >= from`, in ascending sequence order,
    /// at most `max` of them. Page by passing the last returned event's
    /// `seq + 1` as the next `from`.
    #[must_use]
    pub fn events_from(&self, from: u64, max: usize) -> Vec<Event> {
        let mut out: Vec<Event> = self
            .slots
            .iter()
            .filter_map(|s| {
                s.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone()
                    .filter(|e| e.seq >= from)
            })
            .collect();
        out.sort_by_key(|e| e.seq);
        out.truncate(max);
        out
    }

    /// Every retained event, in sequence order.
    #[must_use]
    pub fn all_events(&self) -> Vec<Event> {
        self.events_from(0, self.slots.len())
    }

    /// Events-per-second over the standard sliding windows (1s / 10s /
    /// 60s), as `(window_seconds, rate)` pairs. See [`crate::sliding`]
    /// for the estimator's error bound.
    #[must_use]
    pub fn rates(&self) -> Vec<(u64, f64)> {
        self.rates.rates(self.now_ms())
    }

    /// Renders the retained tail (from `from`) as one event per line —
    /// the `/events` endpoint's body.
    #[must_use]
    pub fn render_text(&self, from: u64) -> String {
        let events = self.events_from(from, self.slots.len());
        let mut out = String::new();
        out.push_str(&format!(
            "# flight recorder: {} recorded, {} retained (capacity {})\n",
            self.recorded(),
            events.len(),
            self.capacity(),
        ));
        for (secs, rate) in self.rates() {
            out.push_str(&format!("# events_per_sec_{secs}s {rate:.3}\n"));
        }
        for e in &events {
            out.push_str(&format!("{e}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seqs_are_unique_and_dense_and_ring_is_bounded() {
        let rec = FlightRecorder::with_capacity(8);
        for i in 0..20usize {
            let seq = rec.record(EventKind::ShardDied { shard: i });
            assert_eq!(seq, i as u64, "seq is the claim order");
        }
        assert_eq!(rec.recorded(), 20);
        let events = rec.all_events();
        assert_eq!(events.len(), 8, "capacity bounds retention");
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(
            seqs,
            (12..20).collect::<Vec<u64>>(),
            "newest retained, ordered"
        );
    }

    #[test]
    fn paging_by_sequence_number() {
        let rec = FlightRecorder::with_capacity(16);
        for i in 0..10usize {
            rec.record(EventKind::ShardRecovered { shard: i });
        }
        let page1 = rec.events_from(0, 4);
        assert_eq!(page1.len(), 4);
        assert_eq!(page1[0].seq, 0);
        let next = page1.last().unwrap().seq + 1;
        let page2 = rec.events_from(next, 100);
        assert_eq!(page2.len(), 6);
        assert_eq!(page2[0].seq, 4);
        assert!(rec.events_from(10, 100).is_empty(), "past the end");
    }

    #[test]
    fn display_is_one_line_per_event() {
        let rec = FlightRecorder::with_capacity(4);
        rec.record(EventKind::SlowQuery {
            verb: "range_sum".into(),
            trace: Some(7),
            decode_us: 1,
            answer_us: 2,
            encode_us: 3,
            total_us: 6,
        });
        rec.record(EventKind::Overloaded {
            shard: None,
            dropped: 2,
        });
        let text = rec.render_text(0);
        assert!(text.contains("slow_query verb=range_sum trace=7"), "{text}");
        assert!(text.contains("pool=serve-accept dropped=2"), "{text}");
        assert!(text.contains("events_per_sec_1s"), "{text}");
    }

    #[test]
    fn concurrent_writers_never_lose_or_duplicate_seqs() {
        let rec = Arc::new(FlightRecorder::with_capacity(64));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let rec = Arc::clone(&rec);
                std::thread::spawn(move || {
                    for i in 0..250usize {
                        rec.record(EventKind::ShardDied {
                            shard: t * 1000 + i,
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(rec.recorded(), 1000);
        let events = rec.all_events();
        assert_eq!(events.len(), 64);
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        let sorted = seqs.clone();
        seqs.dedup();
        assert_eq!(seqs.len(), 64, "no duplicated seqs");
        assert_eq!(seqs, sorted, "drain is seq-ordered");
        // Every retained seq is from the final `capacity` window modulo
        // slot races: a retained event is never older than
        // recorded - 2*capacity (a racing writer can at worst leave the
        // previous lap's event in its slot).
        assert!(seqs.iter().all(|&s| s >= 1000 - 128));
    }

    use std::sync::Arc;
}
