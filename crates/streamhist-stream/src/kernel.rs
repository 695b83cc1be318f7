//! The shared streaming-DP kernel.
//!
//! Every streaming algorithm in this crate approximates the same dynamic
//! program — `HERROR[c, k]`, the minimum SSE of representing the prefix
//! `[0, c]` with at most `k` buckets — evaluated sparsely over per-level
//! interval queues with `(1+δ)` error growth (paper §4.2.1). Historically
//! the agglomerative (§4.3) and fixed-window (§4.5) implementations each
//! carried their own copy of the minimization and queue maintenance; this
//! module is the single implementation both build on, generic over a
//! [`PrefixProvider`] (absolute running totals for the whole-stream
//! algorithm, rebased `SUM'`/`SQSUM'` stores for the window algorithms).
//!
//! Two driving modes, each with one minimization loop:
//!
//! * **online** ([`Kernel::push_point`], [`Kernel::herror_eval`]) — the
//!   agglomerative recurrence: each arriving point evaluates every level
//!   at the newest index only, seeding the minimization with the
//!   level-`(k−1)` value ("fewer buckets are always admissible"), then
//!   extends-or-starts the tail interval of each queue. Queues persist
//!   across pushes as arrays of [`Interval`]s, and every improving
//!   candidate allocates its chain node eagerly: the arena's `peak` and
//!   `compactions` counters are part of the checkpoint encoding, and the
//!   golden checkpoint corpus (`tests/compat`) pins them byte for byte.
//! * **batch** ([`Kernel::build`]) — the fixed-window `CreateList`
//!   procedure: queues are rebuilt per materialization by binary search
//!   over the monotone `HERROR[·, k]`, and the minimization additionally
//!   considers the single-bucket candidate and the clipped candidate of
//!   the interval straddling the query position. Most evaluations are
//!   binary-search probes whose chains would be thrown away, so the batch
//!   minimization returns a [`Pick`] — which candidate won — and the chain
//!   is built once per kept endpoint (and once for the top solution).
//!   Finished levels are stored structure-of-arrays with a per-index
//!   table of the first endpoint at or past each position, so the
//!   straddling interval is an O(1) lookup and the candidate scan runs
//!   over contiguous slices.
//!
//! Boundary chains live in a [`CutArena`] — flat, index-linked, `Send` —
//! and the online mode reclaims dropped chains generationally via
//! [`CutArena::compact`]. All work is accounted in [`KernelStats`].

use crate::arena::{CutArena, CutId};
use std::sync::{Arc, Mutex, PoisonError};
use streamhist_core::checkpoint::{FrameReader, FrameWriter};
use streamhist_core::{BatchOutcome, Histogram, PrefixProvider, StreamhistError};

/// Compaction is considered once the arena holds at least this many nodes
/// (below that, garbage is cheaper than collecting it).
const COMPACT_MIN_NODES: usize = 1024;

/// An interval endpoint retained in a queue: the point's index, the DP
/// cumulative sums through it (paper: "store the values SUM[j] and
/// SQSUM[j]"; captured in the provider's DP frame so endpoint-vs-query
/// differences are exact), its approximate `HERROR` at this queue's level,
/// and the boundary chain realizing that error.
#[derive(Debug, Clone)]
pub(crate) struct Endpoint {
    pub idx: usize,
    pub sum: f64,
    pub sqsum: f64,
    pub herror: f64,
    pub chain: CutId,
}

/// One queue interval `[a_ℓ, b_ℓ]`: the `HERROR` at its start (the `(1+δ)`
/// growth anchor) and the full endpoint record at its (advancing) end.
#[derive(Debug, Clone)]
pub(crate) struct Interval {
    pub start_herror: f64,
    pub end: Endpoint,
}

/// Diagnostics for one kernel — cumulative since creation for the online
/// mode, per-materialization for the batch mode.
///
/// The `Default` value is the all-zero record, which is the identity for
/// [`absorb`](Self::absorb)-based fleet aggregation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelStats {
    /// Interval count per level queue (`B−1` entries); the paper bounds
    /// each by `O(δ⁻¹ log n)` with "hidden constant about 3".
    pub queue_sizes: Vec<usize>,
    /// Number of `HERROR[c, k]` evaluations performed.
    pub herror_evals: usize,
    /// Number of binary searches performed (one per interval created;
    /// always 0 in the online mode, which never searches).
    pub binary_searches: usize,
    /// The current (approximate) `HERROR[n, B]` of the summary.
    pub herror: f64,
    /// Boundary-chain nodes currently held by the arena: live chains plus
    /// garbage not yet collected in the online mode; in the batch mode,
    /// which builds chains only for kept endpoints, about one node per
    /// interval plus the top solution's (at most two per interval when
    /// the straddling candidate won).
    pub arena_nodes: usize,
    /// Largest arena occupancy ever reached.
    pub arena_peak: usize,
    /// Number of arena compactions performed.
    pub compactions: usize,
    /// Number of prefix-sum anchor rebases performed by the backing store.
    pub rebases: usize,
}

impl KernelStats {
    /// Folds another kernel's stats into this one, for fleet-level
    /// reporting across shards (the sharded serving layer and the
    /// `sharded_scaling` bench aggregate per-shard stats this way).
    ///
    /// Work counters (`herror_evals`, `binary_searches`, `compactions`,
    /// `rebases`) and `arena_nodes` add; `queue_sizes` add elementwise
    /// (levels the shorter record lacks count as 0); `herror` adds (the
    /// shards partition the key space, so total SSE across the fleet is
    /// the sum of per-shard SSEs); `arena_peak` takes the maximum (it is a
    /// high-water mark, not a flow).
    pub fn absorb(&mut self, other: &KernelStats) {
        if self.queue_sizes.len() < other.queue_sizes.len() {
            self.queue_sizes.resize(other.queue_sizes.len(), 0);
        }
        for (mine, theirs) in self.queue_sizes.iter_mut().zip(&other.queue_sizes) {
            *mine += theirs;
        }
        self.herror_evals += other.herror_evals;
        self.binary_searches += other.binary_searches;
        self.herror += other.herror;
        self.arena_nodes += other.arena_nodes;
        self.arena_peak = self.arena_peak.max(other.arena_peak);
        self.compactions += other.compactions;
        self.rebases += other.rebases;
    }
}

/// One materialized build keyed by the generation that produced it.
#[derive(Debug, Clone)]
struct CachedBuild {
    generation: u64,
    hist: Arc<Histogram>,
    stats: KernelStats,
}

/// Generation-counted snapshot cache: `histogram()` between mutations
/// returns a cheap [`Arc`] clone of the last build instead of re-running
/// the DP / re-extracting buckets.
///
/// Each summary keeps a monotone `generation` counter bumped on **every**
/// mutation (push, slab, eviction, reset); a cached build is served only
/// while the counter still matches the one it was built under, so staleness
/// is impossible by construction. The slot lives behind a [`Mutex`] (not a
/// `RefCell`) so summaries stay `Send`/`Sync`-compatible; the lock is
/// uncontended in practice because queries and mutations already require
/// `&self`/`&mut self` on the owning summary.
#[derive(Debug, Default)]
pub(crate) struct SnapshotCache {
    slot: Mutex<Option<CachedBuild>>,
}

impl Clone for SnapshotCache {
    fn clone(&self) -> Self {
        let slot = self
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        Self {
            slot: Mutex::new(slot),
        }
    }
}

impl SnapshotCache {
    /// Returns the cached build for `generation`, or runs `build`, caches
    /// its result under `generation`, and returns it.
    pub fn get_or_build(
        &self,
        generation: u64,
        build: impl FnOnce() -> (Histogram, KernelStats),
    ) -> (Arc<Histogram>, KernelStats) {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(c) = slot.as_ref() {
            if c.generation == generation {
                return (Arc::clone(&c.hist), c.stats.clone());
            }
        }
        let (h, stats) = build();
        let hist = Arc::new(h);
        *slot = Some(CachedBuild {
            generation,
            hist: Arc::clone(&hist),
            stats: stats.clone(),
        });
        (hist, stats)
    }

    /// Returns the cached build only if it was produced under
    /// `generation`, without building anything on a miss. The sharded
    /// gather path uses this to skip the cross-shard snapshot barrier
    /// entirely when nothing has changed since the last global build.
    pub fn try_get(&self, generation: u64) -> Option<(Arc<Histogram>, KernelStats)> {
        let slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        slot.as_ref()
            .filter(|c| c.generation == generation)
            .map(|c| (Arc::clone(&c.hist), c.stats.clone()))
    }

    /// Drops any cached build (used by `reset`, whose generation bump
    /// already suffices — clearing additionally releases the memory).
    pub fn clear(&self) {
        *self.slot.lock().unwrap_or_else(PoisonError::into_inner) = None;
    }
}

/// Whole-stream running totals: the [`PrefixProvider`] of the online mode.
///
/// The agglomerative recurrence only ever evaluates the DP at the newest
/// index, so absolute `SUM[j]`/`SQSUM[j]` need not be stored per index —
/// three scalars suffice. Consequently this provider answers queries **only
/// at the newest index** (`len() − 1`); the online kernel never asks for
/// any other.
#[derive(Debug, Clone, Default)]
pub(crate) struct StreamTotals {
    count: usize,
    sum: f64,
    sqsum: f64,
}

impl StreamTotals {
    pub fn push(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.sqsum += v * v;
    }

    /// Serializes the running totals into an open checkpoint frame.
    pub fn encode_state(&self, w: &mut FrameWriter) {
        w.put_usize(self.count);
        w.put_f64(self.sum);
        w.put_f64(self.sqsum);
    }

    /// Reads running totals back out of a checkpoint frame.
    pub fn decode_state(r: &mut FrameReader<'_>) -> Result<Self, StreamhistError> {
        let count = r.get_usize()?;
        let sum = r.get_f64()?;
        let sqsum = r.get_f64()?;
        if sqsum < 0.0 {
            return Err(StreamhistError::CorruptCheckpoint {
                reason: "negative sum of squares",
            });
        }
        Ok(Self { count, sum, sqsum })
    }
}

impl PrefixProvider for StreamTotals {
    fn len(&self) -> usize {
        self.count
    }

    fn dp_sums(&self, idx: usize) -> (f64, f64) {
        debug_assert_eq!(
            idx + 1,
            self.count,
            "StreamTotals only serves the newest index"
        );
        (self.sum, self.sqsum)
    }

    fn chain_sum(&self, idx: usize) -> f64 {
        debug_assert_eq!(
            idx + 1,
            self.count,
            "StreamTotals only serves the newest index"
        );
        self.sum
    }

    fn head_sqerror(&self, idx: usize) -> f64 {
        debug_assert_eq!(
            idx + 1,
            self.count,
            "StreamTotals only serves the newest index"
        );
        (self.sqsum - self.sum * self.sum / self.count as f64).max(0.0)
    }
}

/// Interval queues + chain arena + work counters: the state of one online
/// streaming DP (the batch mode's per-build state is [`BatchBuild`]).
#[derive(Debug, Clone)]
pub(crate) struct Kernel {
    b: usize,
    delta: f64,
    pub arena: CutArena,
    /// `queues[k-1]` is the interval queue for level `k` (`k = 1 ..= b−1`),
    /// preallocated and persistent.
    queues: Vec<Vec<Interval>>,
    /// `(HERROR[j, B], chain)` at the most recent evaluation point `j`.
    pub top: Option<(f64, CutId)>,
    evals: usize,
    searches: usize,
    /// Arena occupancy right after the last compaction (the generational
    /// baseline: collect again once the arena has doubled).
    last_live: usize,
}

impl Kernel {
    /// An online-mode kernel: `b−1` persistent (initially empty) queues.
    pub fn new_online(b: usize, delta: f64) -> Self {
        Self {
            b,
            delta,
            arena: CutArena::new(),
            queues: (1..b).map(|_| Vec::new()).collect(),
            top: None,
            evals: 0,
            searches: 0,
            last_live: 0,
        }
    }

    /// The bucket budget `B` this kernel was configured with.
    pub fn b(&self) -> usize {
        self.b
    }

    /// The interval growth factor `δ` this kernel was configured with.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Current interval-queue lengths per level (`B−1` entries).
    pub fn queue_sizes(&self) -> Vec<usize> {
        self.queues.iter().map(Vec::len).collect()
    }

    /// Snapshot of the work counters; `rebases` is supplied by the caller
    /// (the backing store owns that counter).
    pub fn stats(&self, rebases: usize) -> KernelStats {
        KernelStats {
            queue_sizes: self.queue_sizes(),
            herror_evals: self.evals,
            binary_searches: self.searches,
            herror: self.top.as_ref().map_or(0.0, |(h, _)| *h),
            arena_nodes: self.arena.len(),
            arena_peak: self.arena.peak(),
            compactions: self.arena.compactions(),
            rebases,
        }
    }

    /// Online `HERROR[c, k]` at the newest index `c`: the minimum SSE of
    /// representing `[0, c]` with at most `k` buckets, together with a
    /// boundary chain whose realized SSE never exceeds the returned value.
    ///
    /// Candidates, in evaluation order:
    /// 1. the seed `init`, the level-`(k−1)` value (fewer buckets are
    ///    always admissible under at-most-B semantics);
    /// 2. every level-`k−1` endpoint `e` (all precede `c`; `k ≥ 2`), costed as
    ///    `HERROR[e, k−1] + SQERROR[e+1, c]`, scanned nearest-first:
    ///    `SQERROR[e+1, c]` is non-increasing in `e.idx`, so once it alone
    ///    reaches the best value so far, every farther candidate is
    ///    provably no better and the scan stops without affecting the
    ///    computed minimum. Each improvement extends its chain at once.
    pub fn herror_eval<P: PrefixProvider>(
        &mut self,
        p: &P,
        c: usize,
        k: usize,
        init: (f64, CutId),
    ) -> (f64, CutId) {
        let Self {
            queues,
            arena,
            evals,
            ..
        } = self;
        *evals += 1;
        let (mut best, mut best_chain) = init;
        let sum0c = p.chain_sum(c);
        let (s_c, q_c) = p.dp_sums(c);
        let queue = &queues[k - 2];
        // Every endpoint of a well-formed queue precedes c; the partition
        // point also keeps a restored queue from reaching past it.
        let pp = queue.partition_point(|iv| iv.end.idx < c);
        for iv in queue[..pp].iter().rev() {
            let e = &iv.end;
            let len = (c - e.idx) as f64;
            let s = s_c - e.sum;
            let q = q_c - e.sqsum;
            let sq = (q - s * s / len).max(0.0);
            if sq >= best {
                break;
            }
            let val = e.herror + sq;
            if val < best {
                best = val;
                best_chain = arena.extend(e.chain, c, sum0c);
            }
        }
        (best, best_chain)
    }

    /// Online mode: consumes the newest point of `p` (index `len − 1`),
    /// re-evaluating every level there and extending-or-starting each
    /// queue's tail interval (paper Fig. 3 lines 7-10). Cost `O(B · q)`.
    pub fn push_point<P: PrefixProvider>(&mut self, p: &P) {
        // Phase tracing (`obs` feature): one relaxed load when no tracer
        // is installed; timing + eval-delta accounting when one is.
        #[cfg(feature = "obs")]
        let trace = crate::telemetry::active_kernel_tracer()
            .map(|t| (t, self.evals, std::time::Instant::now()));

        let c = p.len() - 1;
        self.maybe_compact();

        // HERROR[c, k] and its realizing chain, for k = 1 ..= b.
        let mut herrs: Vec<(f64, CutId)> = Vec::with_capacity(self.b);
        let h1 = p.head_sqerror(c);
        herrs.push((h1, self.arena.root(c, p.chain_sum(c))));
        for k in 2..=self.b {
            let hk = self.herror_eval(p, c, k, herrs[k - 2]);
            herrs.push(hk);
        }

        // Update the queues: start a new interval when the error has grown
        // past the (1+δ) anchor, else advance the last interval's endpoint.
        let (s_c, q_c) = p.dp_sums(c);
        for k in 1..self.b {
            let (h, chain) = herrs[k - 1];
            let ep = Endpoint {
                idx: c,
                sum: s_c,
                sqsum: q_c,
                herror: h,
                chain,
            };
            let queue = &mut self.queues[k - 1];
            match queue.last_mut() {
                Some(last) if h <= (1.0 + self.delta) * last.start_herror => last.end = ep,
                _ => queue.push(Interval {
                    start_herror: h,
                    end: ep,
                }),
            }
        }

        self.top = Some(herrs[self.b - 1]);

        #[cfg(feature = "obs")]
        if let Some((t, evals0, start)) = trace {
            t.pushes.inc();
            t.evals.inc_by((self.evals - evals0) as u64);
            t.push_seconds.record(start.elapsed());
        }
    }

    /// Online mode, slab-driven: absorbs a batch of values into `totals`
    /// and the queues with partial-acceptance semantics (non-finite values
    /// are rejected and counted, the rest ingested in order).
    ///
    /// The online recurrence must still evaluate every level at every new
    /// index — skipping points would change the queues and break the
    /// bit-identity with per-point pushes — so the win here is the hoisted
    /// per-value validation/dispatch, not a deferred rebuild. (The deferred
    /// `CreateList`-at-query-time rebuild is the *batch* driving mode,
    /// [`Kernel::build`], which the window summaries already use; their
    /// slab fast path lives in the prefix stores.)
    pub fn push_slab(&mut self, totals: &mut StreamTotals, values: &[f64]) -> BatchOutcome {
        let mut out = BatchOutcome::default();
        for &v in values {
            if v.is_finite() {
                totals.push(v);
                self.push_point(totals);
                out.accepted += 1;
            } else {
                out.rejected += 1;
            }
        }
        out
    }

    /// Materializes the chain of the current best solution (empty-domain
    /// histogram before any point was pushed).
    pub fn materialize_top(&self) -> Histogram {
        match &self.top {
            None => Histogram::new(0, Vec::new()).expect("empty domain is always valid"),
            Some((_, chain)) => self.arena.materialize(*chain),
        }
    }

    /// Collects arena garbage once the arena has doubled since the last
    /// collection (and is past [`COMPACT_MIN_NODES`]). Replaced endpoints
    /// and superseded `top` chains are the garbage; roots are every queue
    /// endpoint's chain plus `top`.
    fn maybe_compact(&mut self) {
        if self.arena.len() < COMPACT_MIN_NODES.max(2 * self.last_live) {
            return;
        }
        self.compact_now();
    }

    /// Collects arena garbage immediately, remapping every retained handle.
    pub fn compact_now(&mut self) {
        #[cfg(feature = "obs")]
        if let Some(t) = crate::telemetry::active_kernel_tracer() {
            t.compactions.inc();
        }
        let mut roots: Vec<CutId> = self
            .queues
            .iter()
            .flat_map(|q| q.iter().map(|iv| iv.end.chain))
            .collect();
        if let Some((_, chain)) = self.top {
            roots.push(chain);
        }
        let remap = self.arena.compact(&roots);
        for queue in &mut self.queues {
            for iv in queue {
                iv.end.chain = remap.remap(iv.end.chain);
            }
        }
        if let Some((_, chain)) = &mut self.top {
            *chain = remap.remap(*chain);
        }
        self.last_live = self.arena.len();
    }

    /// Serializes the full online-DP state into an open checkpoint frame.
    ///
    /// The kernel is cloned and compacted first so the node table holds
    /// exactly the live chain set in topological order — the restored
    /// arena is garbage-free, which changes *occupancy statistics* but not
    /// a single DP value: every queue endpoint's `herror`/`sum`/`sqsum`
    /// and every chain's boundary indices round-trip bit-exactly, so the
    /// restored kernel's histograms and all future pushes are
    /// bit-identical to the original's. The original's `peak`/
    /// `compactions` counters are carried through for stat continuity.
    pub fn encode_state(&self, w: &mut FrameWriter) {
        let mut live = self.clone();
        live.compact_now();
        w.put_usize(self.b);
        w.put_f64(self.delta);
        w.put_usize(self.evals);
        w.put_usize(self.searches);
        w.put_usize(self.arena.peak());
        w.put_usize(self.arena.compactions());
        let nodes = live.arena.export_nodes();
        w.put_usize(nodes.len());
        for (end, sum_through, prev) in nodes {
            w.put_usize(end);
            w.put_f64(sum_through);
            // NONE maps to 0 so live links stay compact varints.
            w.put_varint(if prev == u32::MAX {
                0
            } else {
                u64::from(prev) + 1
            });
        }
        w.put_usize(live.queues.len());
        for queue in &live.queues {
            w.put_usize(queue.len());
            for iv in queue {
                w.put_f64(iv.start_herror);
                w.put_usize(iv.end.idx);
                w.put_f64(iv.end.sum);
                w.put_f64(iv.end.sqsum);
                w.put_f64(iv.end.herror);
                w.put_varint(u64::from(iv.end.chain.raw()));
            }
        }
        match live.top {
            None => w.put_u8(0),
            Some((h, chain)) => {
                w.put_u8(1);
                w.put_f64(h);
                w.put_varint(u64::from(chain.raw()));
            }
        }
    }

    /// Rebuilds an online-mode kernel from a checkpoint frame, validating
    /// every structural invariant the DP relies on (queue count matches
    /// `b`, endpoint indices strictly increase per queue, every chain
    /// handle addresses a node, errors are non-negative).
    ///
    /// # Errors
    ///
    /// [`StreamhistError::CorruptCheckpoint`] on any violated invariant.
    pub fn decode_state(r: &mut FrameReader<'_>) -> Result<Self, StreamhistError> {
        let corrupt = |reason| StreamhistError::CorruptCheckpoint { reason };
        let b = r.get_usize()?;
        if b == 0 {
            return Err(corrupt("kernel bucket budget must be positive"));
        }
        let delta = r.get_f64()?;
        if delta <= 0.0 {
            return Err(corrupt("kernel delta must be positive"));
        }
        let evals = r.get_usize()?;
        let searches = r.get_usize()?;
        let peak = r.get_usize()?;
        let compactions = r.get_usize()?;
        let node_count = r.get_count(3)?;
        let mut nodes = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            let end = r.get_usize()?;
            let sum_through = r.get_f64()?;
            let prev = match r.get_varint()? {
                0 => u32::MAX,
                p => u32::try_from(p - 1).map_err(|_| corrupt("arena link exceeds u32 range"))?,
            };
            nodes.push((end, sum_through, prev));
        }
        let arena = CutArena::from_checkpoint_parts(nodes, peak, compactions)?;
        let chain_of = |raw: u64| -> Result<CutId, StreamhistError> {
            if raw >= arena.len() as u64 {
                return Err(corrupt("chain handle addresses no arena node"));
            }
            #[allow(clippy::cast_possible_truncation)]
            Ok(CutId::from_raw(raw as u32))
        };
        let queue_count = r.get_count(1)?;
        if queue_count != b - 1 {
            return Err(corrupt("queue count does not match bucket budget"));
        }
        let mut queues = Vec::with_capacity(queue_count);
        for _ in 0..queue_count {
            // An interval's minimum encoding is 34 bytes: four f64s plus
            // two varints of at least one byte each (idx and chain are
            // both small for early positions). 35 falsely rejected valid
            // frames with dense queues (tiny eps => interval per point).
            let len = r.get_count(34)?;
            let mut queue: Vec<Interval> = Vec::with_capacity(len);
            for _ in 0..len {
                let start_herror = r.get_f64()?;
                let idx = r.get_usize()?;
                let sum = r.get_f64()?;
                let sqsum = r.get_f64()?;
                let herror = r.get_f64()?;
                let chain = chain_of(r.get_varint()?)?;
                if start_herror < 0.0 || herror < 0.0 {
                    return Err(corrupt("negative DP error"));
                }
                if let Some(last) = queue.last() {
                    if idx <= last.end.idx {
                        return Err(corrupt("queue endpoints must strictly increase"));
                    }
                }
                queue.push(Interval {
                    start_herror,
                    end: Endpoint {
                        idx,
                        sum,
                        sqsum,
                        herror,
                        chain,
                    },
                });
            }
            queues.push(queue);
        }
        let top = match r.get_u8()? {
            0 => None,
            1 => {
                let h = r.get_f64()?;
                if h < 0.0 {
                    return Err(corrupt("negative DP error"));
                }
                Some((h, chain_of(r.get_varint()?)?))
            }
            _ => return Err(corrupt("invalid top-presence byte")),
        };
        let last_live = arena.len();
        Ok(Self {
            b,
            delta,
            arena,
            queues,
            top,
            evals,
            searches,
            last_live,
        })
    }

    /// Batch mode: the full `CreateList` construction against a window-sum
    /// provider — interval lists bottom-up for each level `k = 1 .. B−1`,
    /// then the level-`B` minimization at the window end produces the
    /// histogram. Shared by the count-based and time-based window types.
    pub fn build<P: PrefixProvider>(p: &P, b: usize, delta: f64) -> (Histogram, KernelStats) {
        #[cfg(feature = "obs")]
        let trace =
            crate::telemetry::active_kernel_tracer().map(|t| (t, std::time::Instant::now()));

        let m = p.len();
        let mut build = BatchBuild {
            p,
            delta,
            arena: CutArena::new(),
            levels: Vec::with_capacity(b.saturating_sub(1)),
            evals: 0,
            searches: 0,
        };
        let top = (m > 0).then(|| {
            for k in 1..b {
                let level = build.create_list(k, m);
                build.levels.push(level);
            }
            build.evals += 1;
            let lower = build.levels.last();
            let (h, pick) = batch_min(p, lower, m - 1);
            (h, realize(&mut build.arena, p, lower, m - 1, pick))
        });

        // A fresh build starts its work counters at zero, so the totals
        // here are exactly this build's work.
        #[cfg(feature = "obs")]
        if let Some((t, start)) = trace {
            t.builds.inc();
            t.evals.inc_by(build.evals as u64);
            t.build_seconds.record(start.elapsed());
        }

        let hist = match top {
            None => Histogram::new(0, Vec::new()).expect("empty domain is always valid"),
            Some((_, chain)) => build.arena.materialize(chain),
        };
        let stats = KernelStats {
            queue_sizes: build.levels.iter().map(|l| l.idx.len()).collect(),
            herror_evals: build.evals,
            binary_searches: build.searches,
            herror: top.map_or(0.0, |(h, _)| h),
            arena_nodes: build.arena.len(),
            arena_peak: build.arena.peak(),
            compactions: build.arena.compactions(),
            rebases: p.rebases(),
        };
        (hist, stats)
    }
}

/// The candidate that won a batch minimization: which chain to build for
/// `HERROR[c, k]` if the value is kept (see [`realize`]). Positions index
/// the level-`(k−1)` queue.
#[derive(Debug, Clone, Copy)]
enum Pick {
    /// The single bucket `[0, c]`.
    Head,
    /// The endpoint straddling `c`, its chain clipped below `c−1`, plus the
    /// bucket `{c}`.
    Straddle(usize),
    /// The endpoint's chain plus the bucket `[idx+1, c]`.
    Split(usize),
}

/// One finished batch level queue, structure-of-arrays: entry `j` is the
/// endpoint of the level's `j`-th interval — its index, DP cumulative
/// sums, approximate `HERROR` and realized boundary chain. The intervals
/// tile `[0, m)`, so `first[c]` (the first endpoint at or past `c`) is
/// defined for every position and names the interval straddling `c`.
/// Nothing reads an interval's start error once its search is done, so
/// the level does not keep it.
#[derive(Debug, Default)]
struct BatchLevel {
    idx: Vec<usize>,
    sum: Vec<f64>,
    sqsum: Vec<f64>,
    herror: Vec<f64>,
    chain: Vec<CutId>,
    first: Vec<usize>,
}

/// The state of one batch build: the provider, the finished levels, the
/// chain arena and the work counters.
struct BatchBuild<'p, P> {
    p: &'p P,
    delta: f64,
    arena: CutArena,
    /// `levels[k-1]` is the finished queue of level `k`.
    levels: Vec<BatchLevel>,
    evals: usize,
    searches: usize,
}

impl<P: PrefixProvider> BatchBuild<'_, P> {
    /// `CreateList[0, m−1, k]` (paper Fig. 5), iteratively: cover `[0, m)`
    /// with maximal intervals inside which `HERROR[·, k]` stays within a
    /// `(1+δ)` factor of its value at the interval start, locating each
    /// endpoint by binary search over the monotone `HERROR[·, k]`. Probes
    /// only minimize; the chain is built once, for the endpoint kept.
    fn create_list(&mut self, k: usize, m: usize) -> BatchLevel {
        // Probe count is accumulated locally and flushed once per call so
        // tracing adds no atomics inside the search loop.
        #[cfg(feature = "obs")]
        let mut probes: u64 = 0;
        let p = self.p;
        let lower = k.checked_sub(2).map(|l| &self.levels[l]);
        let mut level = BatchLevel::default();
        let mut a = 0usize;
        while a < m {
            self.evals += 1;
            let (t, pick_a) = batch_min(p, lower, a);
            let threshold = (1.0 + self.delta) * t;
            // Binary search for the maximal c in [a, m-1] with
            // HERROR[c, k] <= threshold. HERROR[a, k] = t qualifies, so the
            // loop invariant "lo qualifies" holds from the start.
            self.searches += 1;
            let mut lo = a;
            let mut hi = m - 1;
            let mut lo_val = (t, pick_a);
            while lo < hi {
                #[cfg(feature = "obs")]
                {
                    probes += 1;
                }
                let mid = lo + (hi - lo).div_ceil(2);
                self.evals += 1;
                let hv = batch_min(p, lower, mid);
                if hv.0 <= threshold {
                    lo = mid;
                    lo_val = hv;
                } else {
                    hi = mid - 1;
                }
            }
            let (s, q) = p.dp_sums(lo);
            level.idx.push(lo);
            level.sum.push(s);
            level.sqsum.push(q);
            level.herror.push(lo_val.0);
            level
                .chain
                .push(realize(&mut self.arena, p, lower, lo, lo_val.1));
            a = lo + 1;
        }
        level.first.reserve_exact(m);
        for (j, &end) in level.idx.iter().enumerate() {
            level.first.resize(end + 1, j);
        }
        #[cfg(feature = "obs")]
        if let Some(t) = crate::telemetry::active_kernel_tracer() {
            t.probes.inc_by(probes);
            t.intervals.inc_by(level.idx.len() as u64);
        }
        level
    }
}

/// Batch `HERROR[c, k]` (window-relative, 0-based `c`) over the finished
/// level-`(k−1)` queue `lower` (`None` for `k = 1`): the minimum SSE of
/// representing `[0, c]` with at most `k` buckets, and the [`Pick`] whose
/// chain realizes it (its realized SSE never exceeds the value).
///
/// Candidates, in evaluation order:
/// 1. the single bucket `[0, c]` (the `i = −1` split);
/// 2. for the interval *straddling* `c` (the first endpoint at or past
///    `c`), the split `i = c−1`: its true `HERROR[c−1, k−1]` is not
///    stored, but the queue invariant bounds it by the interval's endpoint
///    error, and the final bucket `{c}` costs 0 — so the endpoint error
///    itself is a sound upper-bound candidate. Its chain is the endpoint
///    chain clipped below `c−1` (clipping a bucket to a sub-range cannot
///    increase its SSE, so chain soundness is preserved). Without this
///    candidate the approximation guarantee breaks whenever the true split
///    falls inside a straddling interval, because candidates 3 stop one
///    full interval short of `c`;
/// 3. every endpoint `e` with `e.idx < c`, costed as
///    `HERROR[e, k−1] + SQERROR[e+1, c]`, scanned nearest-first:
///    `SQERROR[e+1, c]` is non-increasing in `e.idx`, so once it alone
///    reaches the best value so far, every farther candidate is provably
///    no better and the scan stops without affecting the computed minimum.
///    Ties keep the nearer candidate (strict `<`).
fn batch_min<P: PrefixProvider>(p: &P, lower: Option<&BatchLevel>, c: usize) -> (f64, Pick) {
    let mut best = p.head_sqerror(c);
    let Some(lv) = lower else {
        return (best, Pick::Head);
    };
    let pp = lv.first[c];
    let mut pick = Pick::Head;
    // Straddling interval (needs c >= 1; for c == 0 the single-bucket
    // candidate is the whole search space).
    if c >= 1 && lv.herror[pp] < best {
        best = lv.herror[pp];
        pick = Pick::Straddle(pp);
    }
    let (s_c, q_c) = p.dp_sums(c);
    let mut split = usize::MAX;
    let candidates = lv.idx[..pp]
        .iter()
        .zip(&lv.sum[..pp])
        .zip(&lv.sqsum[..pp])
        .zip(&lv.herror[..pp])
        .enumerate()
        .rev();
    for (j, (((&idx, &sum), &sqsum), &herror)) in candidates {
        let len = (c - idx) as f64;
        let s = s_c - sum;
        let q = q_c - sqsum;
        let sq = (q - s * s / len).max(0.0);
        if sq >= best {
            break;
        }
        let val = herror + sq;
        let better = val < best;
        best = if better { val } else { best };
        split = if better { j } else { split };
    }
    if split != usize::MAX {
        pick = Pick::Split(split);
    }
    (best, pick)
}

/// Builds the boundary chain of `pick` for position `c` against the
/// level it was picked from, with the same arena calls an eager
/// minimization would have made for the winning candidate.
fn realize<P: PrefixProvider>(
    arena: &mut CutArena,
    p: &P,
    lower: Option<&BatchLevel>,
    c: usize,
    pick: Pick,
) -> CutId {
    let sum0c = p.chain_sum(c);
    let chain = |j: usize| lower.expect("only level k >= 2 picks an endpoint").chain[j];
    match pick {
        Pick::Head => arena.root(c, sum0c),
        Pick::Split(j) => arena.extend(chain(j), c, sum0c),
        Pick::Straddle(j) => {
            let sum_prev = p.chain_sum(c - 1);
            let clipped = match arena.truncate_below(chain(j), c - 1) {
                Some(t) => arena.extend(t, c - 1, sum_prev),
                None => arena.root(c - 1, sum_prev),
            };
            arena.extend(clipped, c, sum0c)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn online_over(data: &[f64], b: usize, delta: f64) -> (Kernel, StreamTotals) {
        let mut kernel = Kernel::new_online(b, delta);
        let mut totals = StreamTotals::default();
        for &v in data {
            totals.push(v);
            kernel.push_point(&totals);
        }
        (kernel, totals)
    }

    #[test]
    fn online_and_batch_agree_on_piecewise_constant_data() {
        // Both modes must represent a 3-regime sequence exactly with B=3.
        let data = [5.0, 5.0, 5.0, 9.0, 9.0, 9.0, 9.0, 2.0, 2.0, 2.0];
        let (kernel, _) = online_over(&data, 3, 0.05);
        let online = kernel.materialize_top();
        let p = streamhist_core::PrefixSums::new(&data);
        let (batch, stats) = Kernel::build(&p, 3, 0.05);
        assert_eq!(online.bucket_ends(), vec![2, 6, 9]);
        assert_eq!(batch.bucket_ends(), vec![2, 6, 9]);
        assert_eq!(stats.herror, 0.0);
    }

    #[test]
    fn batch_over_prefix_sums_matches_single_bucket_mean() {
        let p = streamhist_core::PrefixSums::new(&[1.0, 2.0, 3.0, 4.0]);
        let (h, stats) = Kernel::build(&p, 1, 0.1);
        assert_eq!(h.num_buckets(), 1);
        assert!((h.buckets()[0].height - 2.5).abs() < 1e-12);
        assert!((stats.herror - 5.0).abs() < 1e-9);
        assert_eq!(stats.queue_sizes, Vec::<usize>::new());
    }

    #[test]
    fn empty_batch_build() {
        let p = streamhist_core::PrefixSums::new(&[]);
        let (h, stats) = Kernel::build(&p, 4, 0.1);
        assert_eq!(h.domain_len(), 0);
        assert_eq!(stats.herror_evals, 0);
        assert_eq!(stats.herror, 0.0);
    }

    #[test]
    fn online_stats_track_work_and_arena() {
        let data: Vec<f64> = (0..500).map(|i| ((i * 13 + 7) % 31) as f64).collect();
        let (kernel, _) = online_over(&data, 4, 0.1);
        let stats = kernel.stats(0);
        assert_eq!(stats.queue_sizes.len(), 3);
        // One eval per level k >= 2 per push.
        assert_eq!(stats.herror_evals, data.len() * 3);
        assert_eq!(stats.binary_searches, 0);
        assert!(stats.arena_nodes > 0);
        assert!(stats.arena_peak >= stats.arena_nodes);
    }

    #[test]
    fn compaction_keeps_live_set_bounded_and_histogram_intact() {
        // Data with steadily growing error keeps replacing queue tails,
        // generating garbage; after a forced collection the live set must
        // be within the O(B · Σ queue_sizes) chain bound and the current
        // solution must be unchanged.
        let data: Vec<f64> = (0..3000).map(|i| ((i * 29 + 11) % 97) as f64).collect();
        let b = 5;
        let mut kernel = Kernel::new_online(b, 0.05);
        let mut totals = StreamTotals::default();
        for &v in &data {
            totals.push(v);
            kernel.push_point(&totals);
        }
        let before = kernel.materialize_top();
        let before_sse = kernel.top.expect("nonempty").0;
        kernel.compact_now();
        let total_endpoints: usize = kernel.queue_sizes().iter().sum();
        assert!(
            kernel.arena.len() <= b * (total_endpoints + 1),
            "live {} > bound {}",
            kernel.arena.len(),
            b * (total_endpoints + 1)
        );
        assert_eq!(kernel.materialize_top(), before);
        assert_eq!(kernel.top.expect("nonempty").0, before_sse);
    }

    #[test]
    fn stats_absorb_aggregates_fleet_totals() {
        let data: Vec<f64> = (0..200).map(|i| ((i * 13 + 7) % 31) as f64).collect();
        let (a, _) = online_over(&data[..100], 4, 0.1);
        let (b, _) = online_over(&data[100..], 3, 0.1);
        let (sa, sb) = (a.stats(2), b.stats(5));
        let mut fleet = KernelStats::default();
        fleet.absorb(&sa);
        fleet.absorb(&sb);
        assert_eq!(fleet.herror_evals, sa.herror_evals + sb.herror_evals);
        assert_eq!(fleet.rebases, 7);
        assert!((fleet.herror - (sa.herror + sb.herror)).abs() < 1e-12);
        assert_eq!(fleet.arena_peak, sa.arena_peak.max(sb.arena_peak));
        // Elementwise queue totals, padded to the deeper record (B=4 has 3
        // levels, B=3 has 2).
        assert_eq!(fleet.queue_sizes.len(), 3);
        assert_eq!(fleet.queue_sizes[0], sa.queue_sizes[0] + sb.queue_sizes[0]);
        assert_eq!(fleet.queue_sizes[2], sa.queue_sizes[2]);
    }

    #[test]
    fn online_push_slab_matches_per_point_and_counts_rejects() {
        let data: Vec<f64> = (0..400).map(|i| ((i * 13 + 7) % 31) as f64).collect();
        let (per_point, _) = online_over(&data, 4, 0.1);
        let mut kernel = Kernel::new_online(4, 0.1);
        let mut totals = StreamTotals::default();
        let mut outcome = BatchOutcome::default();
        for chunk in data.chunks(37) {
            outcome.absorb(kernel.push_slab(&mut totals, chunk));
        }
        assert_eq!(outcome.accepted, data.len());
        assert_eq!(outcome.rejected, 0);
        assert_eq!(kernel.materialize_top(), per_point.materialize_top());
        assert_eq!(kernel.stats(0), per_point.stats(0));

        // NaN-laced slab: rejected values leave totals and queues untouched.
        let dirty: Vec<f64> = vec![1.0, f64::NAN, 2.0, f64::INFINITY];
        let mut a = Kernel::new_online(3, 0.1);
        let mut ta = StreamTotals::default();
        let got = a.push_slab(&mut ta, &dirty);
        assert_eq!(got.accepted, 2);
        assert_eq!(got.rejected, 2);
        let mut b = Kernel::new_online(3, 0.1);
        let mut tb = StreamTotals::default();
        b.push_slab(&mut tb, &[1.0, 2.0]);
        assert_eq!(a.materialize_top(), b.materialize_top());
    }

    #[test]
    fn snapshot_cache_serves_same_arc_until_generation_changes() {
        let cache = SnapshotCache::default();
        let p = streamhist_core::PrefixSums::new(&[1.0, 2.0, 3.0, 4.0]);
        let mut builds = 0usize;
        let (h1, s1) = cache.get_or_build(7, || {
            builds += 1;
            Kernel::build(&p, 2, 0.1)
        });
        let (h2, s2) = cache.get_or_build(7, || {
            builds += 1;
            Kernel::build(&p, 2, 0.1)
        });
        assert_eq!(builds, 1, "second query must be served from the cache");
        assert!(Arc::ptr_eq(&h1, &h2));
        assert_eq!(s1, s2);
        let (h3, _) = cache.get_or_build(8, || {
            builds += 1;
            Kernel::build(&p, 2, 0.1)
        });
        assert_eq!(builds, 2, "a new generation must rebuild");
        assert!(!Arc::ptr_eq(&h1, &h3));
        assert_eq!(*h1, *h3);
        cache.clear();
        let _ = cache.get_or_build(8, || {
            builds += 1;
            Kernel::build(&p, 2, 0.1)
        });
        assert_eq!(builds, 3, "clear drops the cached build");
    }

    #[test]
    fn generational_compaction_fires_on_long_streams() {
        let data: Vec<f64> = (0..20_000).map(|i| ((i * 17 + 5) % 83) as f64).collect();
        let (kernel, _) = online_over(&data, 4, 0.1);
        let stats = kernel.stats(0);
        assert!(stats.compactions > 0, "no compaction on a 20k-point stream");
        // The generational policy keeps occupancy within a constant factor
        // of the live set, far below the total allocation count.
        assert!(stats.arena_nodes < stats.arena_peak.max(2 * COMPACT_MIN_NODES) * 4);
    }
}
