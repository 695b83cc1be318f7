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
//!   procedure: queues are rebuilt per materialization by a galloping
//!   search (doubling probes from the interval start, then bisection
//!   inside the bracket) over the monotone `HERROR[·, k]`, bisecting the
//!   whole remaining window only below a rounding floor where the
//!   approximate `HERROR` is noise; the minimization additionally
//!   considers the single-bucket candidate and the clipped candidate of
//!   the interval straddling the query position. A build is warm in two
//!   ways: each search's last failing probe is the next interval's start
//!   value, so it is not evaluated again, and each search first probes
//!   the endpoint the previous build of the same summary predicts (an
//!   [`EndpointHint`] kept beside that build in the [`SnapshotCache`]).
//!   Neither changes which endpoint a search finds. Most evaluations are
//!   search probes whose chains would be thrown away, so the batch
//!   minimization returns a [`Pick`] — which candidate won — and the chain
//!   is built once per kept endpoint (and once for the top solution).
//!   Finished levels are stored structure-of-arrays with a per-index
//!   table of the first endpoint at or past each position, so the
//!   straddling interval is an O(1) lookup and the candidate scan runs
//!   over contiguous slices. The scan breaks on a lower envelope of the
//!   level being built: each level-`k` interval's start value bounds
//!   `HERROR[·, k]` over the interval, so a candidate's split cost plus
//!   the bound at its endpoint is a floor under it and every farther
//!   candidate ([`Envelope`]); the online mode breaks on the split cost
//!   alone.
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

/// Relative rounding floor of the batch endpoint search, as a fraction of
/// the window end's DP-frame cumulative sum of squares `q(m−1)`.
///
/// The candidate costs `q_c − e.sqsum − s²/len` cancel terms of that
/// magnitude, so an approximate `HERROR[·, k]` a few ulps of `q(m−1)`
/// from zero is rounding noise and need not be monotone — and a galloping
/// search over a non-monotone predicate can stop at a different endpoint
/// than a bisection of the whole range. A search whose threshold is at or
/// below `GALLOP_NOISE_FLOOR · q(m−1)` therefore bisects all of
/// `[a, m−1]`, exactly as the paper's `CreateList` does; every other
/// search gallops. Divergences from the full bisection vanish from a
/// floor of `1e-13` up, so `1e-9` leaves four orders of magnitude of
/// headroom, at 0.05% of the evaluations galloping saves (DESIGN §3.3).
const GALLOP_NOISE_FLOOR: f64 = 1e-9;

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
/// In the batch mode every field except `herror_evals` is a function of
/// the window alone (its values and the prefix store's rebase history):
/// two builds of the same window agree on them bit for bit, whatever was
/// built before. `herror_evals` is the work a build did given the build
/// before it, so a summary that was built one push ago reports fewer
/// evaluations than a restored or freshly merged one over the same
/// window. A seed adds at most one probe per search and can only narrow
/// the bracket the search gallops and bisects, so checks that compare builds
/// across histories hold the seeded side to `herror_evals ≤
/// cold.herror_evals + cold.binary_searches` and every other field to
/// equality.
///
/// The `Default` value is the all-zero record, which is the identity for
/// [`absorb`](Self::absorb)-based fleet aggregation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelStats {
    /// Interval count per level queue (`B−1` entries); the paper bounds
    /// each by `O(δ⁻¹ log n)` with "hidden constant about 3".
    pub queue_sizes: Vec<usize>,
    /// Number of `HERROR[c, k]` evaluations performed. A batch build
    /// evaluates one start per level, the search probes and the final
    /// minimization: every other interval start is the previous search's
    /// last failing probe, carried over. The probe count depends on the
    /// endpoints the previous build of the same summary predicted, so
    /// this is the one field that depends on build history.
    pub herror_evals: usize,
    /// Number of endpoint searches performed — one per interval created,
    /// each a galloping search (seeded by the previous build's endpoint
    /// when one applies) then bisection; always 0 in the online mode,
    /// which never searches.
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
    /// The build's interval endpoints, which seed the next build's
    /// searches (empty for builds that are not batch kernel builds).
    ends: EndpointHint,
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
///
/// The slot also keeps the cached build's interval endpoints, which
/// [`get_or_build_window`](Self::get_or_build_window) hands to the next
/// build as its search hint. The hint lives only here: it is never
/// checkpointed, and [`clear`](Self::clear) (reset), restore and merge
/// start without one.
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
        self.get_or_build_seeded(generation, |_| {
            let (h, stats) = build();
            (h, stats, EndpointHint::default())
        })
    }

    /// The window summaries' build: returns the cached build for
    /// `generation`, or runs [`Kernel::build`] over `p` — whose first
    /// point is absolute stream position `origin` — seeded with the
    /// cached build's endpoints, and caches the result with its own.
    pub fn get_or_build_window<P: PrefixProvider>(
        &self,
        generation: u64,
        p: &P,
        origin: u64,
        b: usize,
        delta: f64,
    ) -> (Arc<Histogram>, KernelStats) {
        self.get_or_build_seeded(generation, |prev| Kernel::build(p, b, delta, origin, prev))
    }

    fn get_or_build_seeded(
        &self,
        generation: u64,
        build: impl FnOnce(&EndpointHint) -> (Histogram, KernelStats, EndpointHint),
    ) -> (Arc<Histogram>, KernelStats) {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(c) = slot.as_ref() {
            if c.generation == generation {
                return (Arc::clone(&c.hist), c.stats.clone());
            }
        }
        let prev = slot.take().map(|c| c.ends).unwrap_or_default();
        let (h, stats, ends) = build(&prev);
        let hist = Arc::new(h);
        *slot = Some(CachedBuild {
            generation,
            hist: Arc::clone(&hist),
            stats: stats.clone(),
            ends,
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

    /// Drops any cached build and its endpoints (used by `reset`, whose
    /// generation bump already suffices — clearing additionally releases
    /// the memory and keeps the old stream's endpoints from seeding the
    /// new one's searches).
    pub fn clear(&self) {
        *self.slot.lock().unwrap_or_else(PoisonError::into_inner) = None;
    }
}

/// A finished batch build's interval endpoints, kept to seed the next
/// build's endpoint searches.
///
/// Positions are window-relative together with the window's `origin`, the
/// absolute stream position of its first point, so a later build over a
/// slid window can map them into its own frame: endpoint `e` predicts
/// position `e + origin − later origin`. The default value predicts
/// nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct EndpointHint {
    origin: u64,
    /// `levels[k-1]`: level `k`'s endpoints, ascending.
    levels: Vec<Vec<usize>>,
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
        // Phase tracing: one thread-local read when no tracer is
        // installed; timing + eval-delta accounting when one is.
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
    ///
    /// `origin` is the absolute stream position of `p`'s first point and
    /// `hint` the previous build's endpoints (empty for a cold build);
    /// the hint only orders the search probes, so the histogram and every
    /// stat but `herror_evals` are the same whatever it holds. Returns
    /// this build's endpoints as the next build's hint.
    pub fn build<P: PrefixProvider>(
        p: &P,
        b: usize,
        delta: f64,
        origin: u64,
        hint: &EndpointHint,
    ) -> (Histogram, KernelStats, EndpointHint) {
        Self::build_with(p, b, delta, origin, hint, GALLOP_NOISE_FLOOR, true)
    }

    /// [`build`](Self::build) with the galloping search's relative
    /// rounding floor and the candidate scan's lower-envelope break as
    /// parameters. Only the differential tests pass anything but
    /// [`GALLOP_NOISE_FLOOR`] and `true`: a floor of `+∞` bisects every
    /// search over the whole `[a, m−1]`, ignores the hint and leaves every
    /// envelope bound at 0, and `envelope = false` scans with the plain
    /// `SQERROR ≥ best` break alone.
    fn build_with<P: PrefixProvider>(
        p: &P,
        b: usize,
        delta: f64,
        origin: u64,
        hint: &EndpointHint,
        floor: f64,
        envelope: bool,
    ) -> (Histogram, KernelStats, EndpointHint) {
        let trace =
            crate::telemetry::active_kernel_tracer().map(|t| (t, std::time::Instant::now()));

        let m = p.len();
        // A hint from a later origin than this window's cannot come from
        // an earlier build of the same stream; it predicts nothing.
        let (hint, shift) = match origin
            .checked_sub(hint.origin)
            .and_then(|d| usize::try_from(d).ok())
        {
            Some(shift) => (hint.levels.as_slice(), shift),
            None => (&[][..], 0),
        };
        let mut build = BatchBuild {
            p,
            delta,
            noise_floor: m.checked_sub(1).map_or(0.0, |end| floor * p.dp_sums(end).1),
            hint,
            shift,
            envelope,
            env: Envelope::default(),
            arena: CutArena::new(),
            levels: Vec::with_capacity(b.saturating_sub(1)),
            evals: 0,
            searches: 0,
            probes: 0,
            candidates: 0,
        };
        let top = (m > 0).then(|| {
            for k in 1..b {
                let level = build.create_list(k, m);
                build.levels.push(level);
            }
            // Level B has no intervals, so its minimization breaks on
            // SQERROR alone.
            build
                .env
                .reset(build.levels.last().map_or(0, |l| l.idx.len()));
            let (h, pick) = build.eval(b, m - 1);
            let lower = build.levels.last();
            (h, realize(&mut build.arena, p, lower, m - 1, pick))
        });

        // A fresh build starts its work counters at zero, so the totals
        // here are exactly this build's work. Every search creates one
        // interval.
        if let Some((t, start)) = trace {
            t.builds.inc();
            t.evals.inc_by(build.evals as u64);
            t.probes.inc_by(build.probes);
            t.candidates.inc_by(build.candidates);
            t.intervals.inc_by(build.searches as u64);
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
        let ends = EndpointHint {
            origin,
            levels: build.levels.into_iter().map(|l| l.idx).collect(),
        };
        (hist, stats, ends)
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
/// Only the next level's build reads an interval's start error, through
/// its [`Envelope`], so the finished level does not keep it.
#[derive(Debug, Default)]
struct BatchLevel {
    idx: Vec<usize>,
    sum: Vec<f64>,
    sqsum: Vec<f64>,
    herror: Vec<f64>,
    chain: Vec<CutId>,
    first: Vec<usize>,
}

/// The state of one batch build: the provider, the previous build's
/// endpoints, the finished levels, the chain arena and the work counters.
struct BatchBuild<'p, P> {
    p: &'p P,
    delta: f64,
    /// Searches whose threshold is at or below this absolute SSE bisect
    /// the whole `[a, m−1]` instead of galloping (see
    /// [`GALLOP_NOISE_FLOOR`]); `NaN` (an infinite floor times a zero
    /// window) also bisects.
    noise_floor: f64,
    /// `hint[k-1]`: the previous build's level-`k` endpoints, ascending,
    /// in that build's window frame; endpoint `e` predicts position
    /// `e − shift` of this window.
    hint: &'p [Vec<usize>],
    shift: usize,
    /// Whether interval starts enter the [`Envelope`] (`false` only in the
    /// differential tests).
    envelope: bool,
    /// Lower bounds for the candidate scan of the level being built.
    env: Envelope,
    arena: CutArena,
    /// `levels[k-1]` is the finished queue of level `k`.
    levels: Vec<BatchLevel>,
    evals: usize,
    searches: usize,
    /// Endpoint-search probes (the predicted endpoint, galloping and
    /// bisection), kept for the tracer: `evals` also counts each level's
    /// first interval start and the final minimization.
    probes: u64,
    /// Split candidates scanned over all evaluations, kept for the tracer.
    candidates: u64,
}

/// The lower envelope of `HERROR[·, k]` for the level-`k` build under
/// way, as the candidate scan of [`batch_min`] reads it: a bound on
/// `HERROR[idx, k]` for every level-`(k−1)` endpoint `idx` the scan may
/// reach. `HERROR[·, k]` is monotone above the rounding floor, so every
/// position of a level-`k` interval is bounded by the interval's start
/// value; starts at or below the floor bound nothing and count as 0.
#[derive(Debug, Default)]
struct Envelope {
    /// `lb[j]`: the bound of lower endpoint `j`, filled once its level-`k`
    /// interval is finished; 0 until then (and for the level-`B`
    /// minimization, which has no intervals).
    lb: Vec<f64>,
    /// Start of the running interval: lower endpoints at or past it are
    /// bounded by `t`, its (floored) start value.
    from: usize,
    t: f64,
}

impl Envelope {
    /// All-zero bounds over a lower queue of `len` endpoints.
    fn reset(&mut self, len: usize) {
        self.lb.clear();
        self.lb.resize(len, 0.0);
        self.from = 0;
        self.t = 0.0;
    }
}

/// An endpoint search's bracket: `lo` qualifies (its value and pick in
/// `lo_val`), the endpoint is at most `hi`, and `fail` holds the value and
/// pick at `hi + 1` once a probe has failed.
struct Bracket {
    lo: usize,
    hi: usize,
    lo_val: (f64, Pick),
    fail: Option<(f64, Pick)>,
}

impl<P: PrefixProvider> BatchBuild<'_, P> {
    /// `CreateList[0, m−1, k]` (paper Fig. 5), iteratively: cover `[0, m)`
    /// with maximal intervals inside which `HERROR[·, k]` stays within a
    /// `(1+δ)` factor of its value at the interval start. Each endpoint is
    /// located by a galloping search — probes at `s+1, s+3, s+7, …` from
    /// a base `s` until one exceeds the threshold, then bisection inside
    /// that bracket — which finds the same endpoint as bisecting all of
    /// `[a, m−1]` because `HERROR[·, k]` is monotone, in `O(log len)`
    /// probes instead of `O(log m)`. The base is the interval start `a`,
    /// unless the previous build predicts an endpoint `g` past `a`: the
    /// search probes `g` first and gallops from it if it qualifies, or
    /// from `a` below it if not. Below the rounding floor the approximate
    /// `HERROR` is not monotone, so those searches ignore the prediction
    /// and bisect the whole range.
    ///
    /// A search that stops short of `m−1` has failed at its endpoint plus
    /// one (each failing probe lowers `hi` to below itself, and the search
    /// ends at `lo = hi`), and that is the next interval's start: its
    /// value is carried over instead of evaluated again. Probes only
    /// minimize; the chain is built once, for the endpoint kept.
    ///
    /// Each interval's start value also bounds `HERROR[·, k]` over the
    /// interval, so it enters the [`Envelope`] the level's minimizations
    /// break on: once the running interval, and once its lower endpoints
    /// are behind the next start, in their column.
    fn create_list(&mut self, k: usize, m: usize) -> BatchLevel {
        let p = self.p;
        let mut hint = self.hint.get(k - 1).map_or(&[][..], Vec::as_slice);
        let mut level = BatchLevel::default();
        self.env.reset(self.lower(k).map_or(0, |l| l.idx.len()));
        let mut filled = 0;
        let mut a = 0usize;
        let mut carried = None;
        while a < m {
            if k >= 2 {
                // The lower endpoints of the interval that ended at a − 1.
                let to = self.levels[k - 2].first[a];
                let t = self.env.t;
                self.env.lb[filled..to].fill(t);
                filled = to;
            }
            self.env.from = a;
            let (t, pick_a) = carried.take().unwrap_or_else(|| self.eval(k, a));
            self.env.t = if self.envelope && t > self.noise_floor {
                t
            } else {
                0.0
            };
            let threshold = (1.0 + self.delta) * t;
            // Search for the maximal c in [a, m-1] with HERROR[c, k] <=
            // threshold. HERROR[a, k] = t qualifies, so the bracket
            // invariant holds from the start.
            self.searches += 1;
            let mut s = Bracket {
                lo: a,
                hi: m - 1,
                lo_val: (t, pick_a),
                fail: None,
            };
            if threshold > self.noise_floor {
                // The previous build's first endpoint at or past a.
                hint = &hint[hint.partition_point(|&e| e < a.saturating_add(self.shift))..];
                if let Some(g) = hint.first().map(|&e| e - self.shift) {
                    if a < g && g < m {
                        self.probe(k, &mut s, g, threshold);
                    }
                }
                // Gallop from lo: the first failing probe bounds the
                // answer.
                let base = s.lo;
                let mut span = 1;
                while s.lo < s.hi {
                    let c = (base + span).min(s.hi);
                    if !self.probe(k, &mut s, c, threshold) {
                        break;
                    }
                    span = 2 * span + 1;
                }
            }
            while s.lo < s.hi {
                let mid = s.lo + (s.hi - s.lo).div_ceil(2);
                self.probe(k, &mut s, mid, threshold);
            }
            let lo = s.lo;
            let (s_lo, q_lo) = p.dp_sums(lo);
            level.idx.push(lo);
            level.sum.push(s_lo);
            level.sqsum.push(q_lo);
            level.herror.push(s.lo_val.0);
            let lower = k.checked_sub(2).map(|l| &self.levels[l]);
            level
                .chain
                .push(realize(&mut self.arena, p, lower, lo, s.lo_val.1));
            debug_assert_eq!(s.fail.is_some(), lo + 1 < m, "failing probe at lo + 1");
            carried = s.fail;
            a = lo + 1;
        }
        level.first.reserve_exact(m);
        for (j, &end) in level.idx.iter().enumerate() {
            level.first.resize(end + 1, j);
        }
        level
    }

    /// The finished level-`(k−1)` queue that level `k` minimizes over.
    fn lower(&self, k: usize) -> Option<&BatchLevel> {
        k.checked_sub(2).map(|l| &self.levels[l])
    }

    /// Evaluates `HERROR[c, k]` against the current envelope.
    fn eval(&mut self, k: usize, c: usize) -> (f64, Pick) {
        self.evals += 1;
        let (h, pick, scanned) = batch_min(self.p, self.lower(k), &self.env, c);
        self.candidates += scanned as u64;
        (h, pick)
    }

    /// Evaluates `HERROR[c, k]` for a search probe at `c` (`lo < c ≤ hi`)
    /// and narrows `s` by it; returns whether `c` qualified.
    fn probe(&mut self, k: usize, s: &mut Bracket, c: usize, threshold: f64) -> bool {
        self.probes += 1;
        let hv = self.eval(k, c);
        if hv.0 <= threshold {
            s.lo = c;
            s.lo_val = hv;
            true
        } else {
            s.hi = c - 1;
            s.fail = Some(hv);
            false
        }
    }
}

/// Batch `HERROR[c, k]` (window-relative, 0-based `c`) over the finished
/// level-`(k−1)` queue `lower` (`None` for `k = 1`): the minimum SSE of
/// representing `[0, c]` with at most `k` buckets, the [`Pick`] whose
/// chain realizes it (its realized SSE never exceeds the value), and the
/// number of split candidates scanned (the one the break stops at
/// included).
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
///    `HERROR[e, k−1] + SQERROR[e+1, c]`, scanned nearest-first until
///    `lb + SQERROR[e+1, c]` reaches the best value so far, where `lb` is
///    the envelope's bound on `HERROR[e.idx, k]`. Neither `e` nor any
///    farther candidate can then improve: `HERROR[e, k−1]` is itself a
///    candidate of `HERROR[e.idx, k]` (the straddling one), so it is at
///    least `lb`; and a farther `e'` costs at least `HERROR[e.idx, k] +
///    SQERROR[e+1, c]`, because splitting its last bucket at `e.idx`
///    cannot raise the SSE. The check precedes costing `e`, so the
///    candidate that triggers it is skipped too. With `lb = 0` this is
///    the plain break on `SQERROR` alone (`SQERROR[e+1, c]` is
///    non-increasing in `e.idx`). Ties keep the nearer candidate (strict
///    `<`).
fn batch_min<P: PrefixProvider>(
    p: &P,
    lower: Option<&BatchLevel>,
    env: &Envelope,
    c: usize,
) -> (f64, Pick, usize) {
    let mut best = p.head_sqerror(c);
    let Some(lv) = lower else {
        return (best, Pick::Head, 0);
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
    let (from, t) = (env.from, env.t);
    let mut split = usize::MAX;
    let mut stop = 0;
    let candidates = lv.idx[..pp]
        .iter()
        .zip(&lv.sum[..pp])
        .zip(&lv.sqsum[..pp])
        .zip(&lv.herror[..pp])
        .zip(&env.lb[..pp])
        .enumerate()
        .rev();
    for (j, ((((&idx, &sum), &sqsum), &herror), &lb)) in candidates {
        let len = (c - idx) as f64;
        let s = s_c - sum;
        let q = q_c - sqsum;
        let sq = (q - s * s / len).max(0.0);
        let lb = if idx >= from { t } else { lb };
        if sq + lb >= best {
            stop = j;
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
    (best, pick, pp - stop)
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
    use crate::{FixedWindowHistogram, TimeWindowHistogram};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use streamhist_core::checkpoint::Checkpoint;
    use streamhist_core::{MergeableSummary, SlidingPrefixSums};
    use streamhist_data::{collect, utilization_trace, Ar1, BurstyOnOff, Diurnal, LevelShift};

    /// A cold batch build: no previous build seeds its searches.
    fn cold<P: PrefixProvider>(p: &P, b: usize, delta: f64) -> (Histogram, KernelStats) {
        let (h, stats, _) = Kernel::build(p, b, delta, 0, &EndpointHint::default());
        (h, stats)
    }

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
        let (batch, stats) = cold(&p, 3, 0.05);
        assert_eq!(online.bucket_ends(), vec![2, 6, 9]);
        assert_eq!(batch.bucket_ends(), vec![2, 6, 9]);
        assert_eq!(stats.herror, 0.0);
    }

    #[test]
    fn batch_over_prefix_sums_matches_single_bucket_mean() {
        let p = streamhist_core::PrefixSums::new(&[1.0, 2.0, 3.0, 4.0]);
        let (h, stats) = cold(&p, 1, 0.1);
        assert_eq!(h.num_buckets(), 1);
        assert!((h.buckets()[0].height - 2.5).abs() < 1e-12);
        assert!((stats.herror - 5.0).abs() < 1e-9);
        assert_eq!(stats.queue_sizes, Vec::<usize>::new());
    }

    #[test]
    fn empty_batch_build() {
        let p = streamhist_core::PrefixSums::new(&[]);
        let (h, stats) = cold(&p, 4, 0.1);
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
            cold(&p, 2, 0.1)
        });
        let (h2, s2) = cache.get_or_build(7, || {
            builds += 1;
            cold(&p, 2, 0.1)
        });
        assert_eq!(builds, 1, "second query must be served from the cache");
        assert!(Arc::ptr_eq(&h1, &h2));
        assert_eq!(s1, s2);
        let (h3, _) = cache.get_or_build(8, || {
            builds += 1;
            cold(&p, 2, 0.1)
        });
        assert_eq!(builds, 2, "a new generation must rebuild");
        assert!(!Arc::ptr_eq(&h1, &h3));
        assert_eq!(*h1, *h3);
        cache.clear();
        let _ = cache.get_or_build(8, || {
            builds += 1;
            cold(&p, 2, 0.1)
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

    /// The differential shapes `(window, B, ε)`: both golden window sizes,
    /// the benchmark shape, and the deep `B = 50, ε = 0.01` queues.
    const DIFF_SHAPES: [(usize, usize, f64); 4] = [
        (128, 8, 0.1),
        (128, 50, 0.01),
        (512, 8, 0.1),
        (512, 16, 0.05),
    ];

    /// Pushes between compared builds: the per-arrival loop, two short
    /// slides, and one that moves most endpoints.
    const STRIDES: [usize; 4] = [1, 3, 7, 17];

    /// Stream length of a differential sweep at `stride`: in optimized
    /// test builds, two windows of slides past the first full window, so
    /// every stride compares slides `window..=3·window` (stride 1 all of
    /// them); in unoptimized ones, where a full-range bisection build of
    /// the deep shapes costs tens of milliseconds, 6 compared builds per
    /// stride, 24 per stream and shape.
    fn sweep_len(window: usize, stride: usize) -> usize {
        if cfg!(debug_assertions) {
            window + stride * 5
        } else {
            3 * window
        }
    }

    /// Everything a build outputs but its evaluation count, as bits: ends
    /// and heights, `HERROR`, queue sizes and search count.
    fn outputs(h: &Histogram, s: &KernelStats) -> (Vec<(usize, u64)>, u64, Vec<usize>, usize) {
        let buckets = h
            .buckets()
            .iter()
            .map(|bk| (bk.end, bk.height.to_bits()))
            .collect();
        (
            buckets,
            s.herror.to_bits(),
            s.queue_sizes.clone(),
            s.binary_searches,
        )
    }

    /// A random sorted hint for a `b`-bucket build of an `m`-point window
    /// at `origin`: each level predicts a random set of positions, some
    /// of them past the window end.
    fn garbage_hint(rng: &mut StdRng, b: usize, m: usize, origin: u64) -> EndpointHint {
        let levels = (1..b)
            .map(|_| {
                let n = rng.gen_range(0..=m);
                let mut ends: Vec<usize> =
                    (0..n).map(|_| rng.gen_range(0..m + m / 4 + 1)).collect();
                ends.sort_unstable();
                ends.dedup();
                ends
            })
            .collect();
        EndpointHint { origin, levels }
    }

    /// Total evaluations of a differential sweep's cold, seeded and
    /// full-bisection builds.
    #[derive(Debug, Default)]
    struct Sweep {
        cold: usize,
        seeded: usize,
        bisect: usize,
    }

    /// Slides a fixed window of `window` points over `data` and, every
    /// `stride` pushes once the window is full, builds it four ways: cold;
    /// seeded with the previous compared build's endpoints; seeded with a
    /// random sorted garbage hint; and with an infinite floor, under which
    /// every search bisects all of `[a, m−1]` as the paper's `CreateList`
    /// does. Asserts the four are bit-identical in ends, heights,
    /// `HERROR`, queue sizes and search counts, and that neither seeded
    /// build does more than `herror_evals + binary_searches` of the cold
    /// one.
    fn gallop_matches_full_bisection(
        name: &str,
        data: &[f64],
        (window, b, eps): (usize, usize, f64),
        stride: usize,
    ) -> Sweep {
        let delta = eps / (2.0 * b as f64);
        let mut p = SlidingPrefixSums::new(window);
        let mut rng = StdRng::seed_from_u64(stride as u64);
        let mut prev = EndpointHint::default();
        let mut sweep = Sweep::default();
        for (i, &v) in data.iter().enumerate() {
            p.push(v);
            let pushed = i + 1;
            if pushed < window || (pushed - window) % stride != 0 {
                continue;
            }
            let ctx = format!("{name} at {window}/{b}/{eps}, stride {stride}, push {i}");
            let origin = (pushed - p.len()) as u64;
            let none = EndpointHint::default();
            let garbage = garbage_hint(&mut rng, b, p.len(), origin);
            let (hc, sc, _) = Kernel::build(&p, b, delta, origin, &none);
            let (hs, ss, ends) = Kernel::build(&p, b, delta, origin, &prev);
            let (hg, sg, _) = Kernel::build(&p, b, delta, origin, &garbage);
            let (hb, sb, _) = Kernel::build_with(&p, b, delta, origin, &prev, f64::INFINITY, true);
            let want = outputs(&hc, &sc);
            for (way, h, s) in [
                ("seeded", &hs, &ss),
                ("garbage-seeded", &hg, &sg),
                ("full-bisection", &hb, &sb),
            ] {
                assert_eq!(outputs(h, s), want, "{ctx}: {way} build differs");
            }
            for (way, s) in [("seeded", &ss), ("garbage-seeded", &sg)] {
                assert!(
                    s.herror_evals <= sc.herror_evals + sc.binary_searches,
                    "{ctx}: {way} build did {} evals, cold {} with {} searches",
                    s.herror_evals,
                    sc.herror_evals,
                    sc.binary_searches
                );
            }
            sweep.cold += sc.herror_evals;
            sweep.seeded += ss.herror_evals;
            sweep.bisect += sb.herror_evals;
            prev = ends;
        }
        sweep
    }

    /// The four golden streams, `len` points each. The two level-shaped
    /// ones (`bursty_seed9`, `level_shift_seed3`) have windows of few
    /// constant runs, where deep levels' `HERROR` falls below the
    /// rounding floor.
    fn golden_streams(len: usize) -> [(&'static str, Vec<f64>); 4] {
        [
            ("utilization_trace_seed7", utilization_trace(len, 7)),
            ("ar1_seed42", collect(Ar1::new(42, 0.9, 100.0, 25.0), len)),
            (
                "bursty_seed9",
                collect(BurstyOnOff::new(9, 0.01, 0.08, 500.0, 1.4), len),
            ),
            (
                "level_shift_seed3",
                collect(LevelShift::new(3, 0.01, 200.0), len),
            ),
        ]
    }

    /// The benchmark's stationary input: a diurnal baseline plus an AR(1)
    /// fluctuation, integerized.
    fn diurnal_ar1(len: usize) -> Vec<f64> {
        let diurnal = collect(Diurnal::new(401, 2000.0, 800.0, 4096, 50.0), len);
        let ar1 = collect(Ar1::new(402, 0.95, 0.0, 120.0), len);
        diurnal
            .iter()
            .zip(&ar1)
            .map(|(d, a)| (d + a).round().max(0.0))
            .collect()
    }

    /// The golden streams.
    #[test]
    fn galloping_matches_full_bisection_on_golden_streams() {
        for shape in DIFF_SHAPES {
            for stride in STRIDES {
                for (name, data) in &golden_streams(sweep_len(shape.0, stride)) {
                    gallop_matches_full_bisection(name, data, shape, stride);
                }
            }
        }
    }

    /// The benchmark's stationary input. There the cold build must do
    /// strictly less work than the full bisection, and the per-arrival
    /// seeded one strictly less than the cold one, which is the point of
    /// each.
    #[test]
    fn galloping_matches_full_bisection_on_diurnal_ar1_with_fewer_evals() {
        for shape in DIFF_SHAPES {
            for stride in STRIDES {
                let data = diurnal_ar1(sweep_len(shape.0, stride));
                let sweep = gallop_matches_full_bisection("diurnal_ar1", &data, shape, stride);
                assert!(
                    sweep.cold < sweep.bisect,
                    "{shape:?} stride {stride}: {sweep:?}"
                );
                if stride == 1 {
                    assert!(
                        sweep.seeded < sweep.cold,
                        "{shape:?} stride {stride}: {sweep:?}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random windows, including the ones where the approximate
        /// `HERROR[·, k]` is rounding noise: streams of at most `B`
        /// constant runs (so every window is represented exactly and
        /// `OPT_B ≈ 0`) under relative noise down to a few ulps.
        #[test]
        fn galloping_matches_full_bisection_on_random_windows(
            shape in prop::sample::select(DIFF_SHAPES.to_vec()),
            stride in prop::sample::select(STRIDES.to_vec()),
            runs in prop::collection::vec((1usize..200, 0i64..2000), 1..20),
            slides in 0usize..64,
            noise in prop::sample::select(vec![0.0f64, 1e-15, 1e-13, 1e-9, 1e-3, 1.0, 50.0]),
            jitter in prop::collection::vec(-1.0f64..1.0, 64),
        ) {
            let (window, b, _) = shape;
            // Half the cases keep at most B runs: piecewise-constant windows.
            let runs = if runs.len() % 2 == 0 { &runs[..runs.len().min(b)] } else { &runs[..] };
            let mut data = Vec::new();
            for &(len, level) in runs {
                data.resize(data.len() + len, level as f64);
            }
            // No longer than the fixed sweeps' streams.
            let len = (window + slides).min(sweep_len(window, stride));
            while data.len() < len {
                data.extend_from_within(..data.len().min(len - data.len()));
            }
            data.truncate(len);
            for (i, v) in data.iter_mut().enumerate() {
                *v += noise * jitter[i % jitter.len()] * v.abs().max(1.0);
            }
            gallop_matches_full_bisection("random", &data, shape, stride);
            envelope_matches_plain_break("random", &data, shape, stride);
        }
    }

    /// The lower-envelope sweep's shapes: the golden window, the benchmark
    /// shape and a deeper one. The deviation-2 shape `(2048, 16, 0.01)`
    /// has a test of its own.
    const ENVELOPE_SHAPES: [(usize, usize, f64); 3] =
        [(128, 8, 0.1), (512, 8, 0.1), (512, 16, 0.05)];

    /// Pushes between compared builds of the envelope sweep.
    const ENVELOPE_STRIDES: [usize; 3] = [1, 7, 17];

    /// Stream length of an envelope sweep at `stride`: one window of
    /// slides past the first full window in optimized test builds, 6
    /// compared builds in unoptimized ones.
    fn envelope_sweep_len(window: usize, stride: usize) -> usize {
        if cfg!(debug_assertions) {
            window + stride * 5
        } else {
            2 * window
        }
    }

    /// Slides a fixed window of `window` points over `data` and, every
    /// `stride` pushes once the window is full, builds it cold and seeded
    /// with the previous seeded build's endpoints, each with and without
    /// the lower-envelope break. Asserts that the envelope changes no
    /// output — ends and heights (bits) and every [`KernelStats`] field,
    /// `herror_evals` included — and that it never scans more candidates
    /// than the plain break. Returns the candidates scanned with and
    /// without it, counted by a [`KernelTracer`](crate::telemetry::KernelTracer)
    /// on this thread.
    fn envelope_matches_plain_break(
        name: &str,
        data: &[f64],
        (window, b, eps): (usize, usize, f64),
        stride: usize,
    ) -> [u64; 2] {
        use crate::telemetry::{set_thread_kernel_tracer, KernelTracer};
        let tracer = Arc::new(KernelTracer::new(&streamhist_obs::MetricsRegistry::new()));
        set_thread_kernel_tracer(Some(Arc::clone(&tracer)));
        let delta = eps / (2.0 * b as f64);
        let mut p = SlidingPrefixSums::new(window);
        let none = EndpointHint::default();
        let mut prev = EndpointHint::default();
        let mut scanned = [0, 0];
        for (i, &v) in data.iter().enumerate() {
            p.push(v);
            let pushed = i + 1;
            if pushed < window || (pushed - window) % stride != 0 {
                continue;
            }
            let origin = (pushed - p.len()) as u64;
            let mut next = EndpointHint::default();
            for (way, hint) in [("cold", &none), ("seeded", &prev)] {
                let ctx = format!("{name} at {window}/{b}/{eps}, stride {stride}, push {i}, {way}");
                let [(h, s, ends, n), (h0, s0, _, n0)] = [true, false].map(|envelope| {
                    let before = tracer.candidates.get();
                    let (h, s, ends) = Kernel::build_with(
                        &p,
                        b,
                        delta,
                        origin,
                        hint,
                        GALLOP_NOISE_FLOOR,
                        envelope,
                    );
                    (h, s, ends, tracer.candidates.get() - before)
                });
                assert_eq!(outputs(&h, &s), outputs(&h0, &s0), "{ctx}: outputs");
                assert_eq!(s, s0, "{ctx}: stats");
                assert!(
                    n <= n0,
                    "{ctx}: {n} candidates with the envelope, {n0} without"
                );
                scanned[0] += n;
                scanned[1] += n0;
                next = ends;
            }
            prev = next;
        }
        set_thread_kernel_tracer(None);
        scanned
    }

    /// Runs [`envelope_matches_plain_break`] at every envelope stride over
    /// the golden streams and the benchmark's input, each `len(stride)`
    /// points long. On the latter the envelope must scan strictly fewer
    /// candidates, which is its point.
    fn envelope_sweep(shape: (usize, usize, f64), len: impl Fn(usize) -> usize) {
        for stride in ENVELOPE_STRIDES {
            let len = len(stride);
            for (name, data) in &golden_streams(len) {
                envelope_matches_plain_break(name, data, shape, stride);
            }
            let [with, without] =
                envelope_matches_plain_break("diurnal_ar1", &diurnal_ar1(len), shape, stride);
            assert!(
                with < without,
                "{shape:?} stride {stride}: {with} vs {without}"
            );
        }
    }

    #[test]
    fn envelope_break_matches_plain_break() {
        for shape in ENVELOPE_SHAPES {
            envelope_sweep(shape, |stride| envelope_sweep_len(shape.0, stride));
        }
    }

    /// The deviation-2 shape, where the scan is longest: 8 compared
    /// builds per stream and stride, in optimized test builds only
    /// (unoptimized builds of this shape are too slow for the default
    /// test run).
    #[test]
    fn envelope_break_matches_plain_break_at_2048_16() {
        if cfg!(debug_assertions) {
            return;
        }
        envelope_sweep((2048, 16, 0.01), |stride| 2048 + 7 * stride);
    }

    /// What a window summary's build must agree on with a cold build of
    /// the same state: everything, bit for bit, except `herror_evals`,
    /// which may exceed the cold count by at most one per search. Returns
    /// both evaluation counts.
    fn assert_matches_cold(
        ctx: &str,
        got: (Arc<Histogram>, KernelStats),
        cold: (Arc<Histogram>, KernelStats),
    ) -> [usize; 2] {
        assert_eq!(
            outputs(&got.0, &got.1),
            outputs(&cold.0, &cold.1),
            "{ctx}: outputs"
        );
        assert_eq!(
            KernelStats {
                herror_evals: 0,
                ..got.1.clone()
            },
            KernelStats {
                herror_evals: 0,
                ..cold.1.clone()
            },
            "{ctx}: stats"
        );
        assert!(
            got.1.herror_evals <= cold.1.herror_evals + cold.1.binary_searches,
            "{ctx}: {} evals, cold {}",
            got.1.herror_evals,
            cold.1.herror_evals
        );
        [got.1.herror_evals, cold.1.herror_evals]
    }

    /// Every way a summary's state is replaced or copied leaves its builds
    /// equal to a cold build of the same state (a restored copy starts
    /// without a hint): reset, clone, restore and merge for the fixed
    /// window, evictions for the time window. Building after every push,
    /// each summary must also do less work than the cold builds, which
    /// it cannot with a wrong window origin.
    #[test]
    fn seeded_builds_survive_every_summary_lifecycle_step() {
        let data = utilization_trace(600, 11);
        let (b, eps) = (6, 0.1);
        let mut evals = [0, 0];
        let mut check = |ctx: &str, fw: &FixedWindowHistogram| {
            let fresh = FixedWindowHistogram::restore(&fw.encode_checkpoint()).expect("own frame");
            let [seeded, cold] =
                assert_matches_cold(ctx, fw.histogram_with_stats(), fresh.histogram_with_stats());
            evals[0] += seeded;
            evals[1] += cold;
        };
        let mut fw = FixedWindowHistogram::new(128, b, eps);
        for (i, &v) in data[..300].iter().enumerate() {
            fw.push(v);
            check(&format!("push {i}"), &fw);
        }
        let mut copy = fw.clone();
        for (i, &v) in data[300..340].iter().enumerate() {
            fw.push(v);
            copy.push(v + 1.0);
            check(&format!("original after clone, push {i}"), &fw);
            check(&format!("clone, push {i}"), &copy);
        }
        let mut restored =
            FixedWindowHistogram::restore(&fw.encode_checkpoint()).expect("own frame");
        for (i, &v) in data[340..380].iter().enumerate() {
            restored.push(v);
            check(&format!("restored, push {i}"), &restored);
        }
        restored.merge_from(&copy).expect("same configuration");
        check("merged", &restored);
        for (i, &v) in data[380..420].iter().enumerate() {
            restored.push(v);
            check(&format!("merged, push {i}"), &restored);
        }
        fw.reset();
        for (i, &v) in data[420..].iter().enumerate() {
            fw.push(v);
            check(&format!("reset, push {i}"), &fw);
        }
        assert!(
            evals[0] < evals[1],
            "fixed window: seeded vs cold {evals:?}"
        );

        // Three points per tick and a 7-tick gap every 50 points, so one
        // push can evict a single point or a whole burst.
        let mut evals = [0, 0];
        let mut tw = TimeWindowHistogram::new(40, b, eps);
        for (i, &v) in data.iter().enumerate() {
            tw.push_at((i / 3 + 7 * (i / 50)) as u64, v);
            let fresh = TimeWindowHistogram::restore(&tw.encode_checkpoint()).expect("own frame");
            let [seeded, cold] = assert_matches_cold(
                &format!("time window, push {i}"),
                tw.histogram_with_stats(),
                fresh.histogram_with_stats(),
            );
            evals[0] += seeded;
            evals[1] += cold;
        }
        assert!(evals[0] < evals[1], "time window: seeded vs cold {evals:?}");
    }
}
