//! Bridge between the streaming summaries and the `streamhist-obs`
//! metrics registry.
//!
//! Three layers, with three different costs:
//!
//! 1. **Shard counters** (always compiled). The sharded layer's
//!    [`ShardMetrics`](crate::ShardMetrics) counters are
//!    [`streamhist_obs::Counter`]/[`streamhist_obs::Gauge`] cells. When a
//!    fleet is built with
//!    [`registry`](crate::ShardedFixedWindowBuilder::registry), those
//!    cells are *registered* — the registry and the `ShardMetrics` view
//!    read the **same atomics**, so the exposition reconciles with the
//!    per-shard metrics exactly, by construction (one source of truth, no
//!    double counting). Without a registry the cells are private and the
//!    behavior (and cost: one relaxed atomic op) is unchanged.
//! 2. **Kernel stats publication** ([`publish_kernel_stats`], always
//!    compiled). [`KernelStats`] is a point-in-time *view* (cumulative
//!    for online summaries, per-materialization for batch builds), so it
//!    publishes as **gauges** — republishing the same snapshot twice must
//!    not double anything, which counter semantics would.
//! 3. **Phase tracing** (run-time opt-in). Span-style hooks inside the
//!    kernel and the sharded data plane: build/push duration, `HERROR`
//!    evaluation and binary-search probe counts, `CreateList` interval
//!    production, rebase and arena-compaction events, queue-wait time,
//!    checkpoint encode / restore duration, scatter and gather latency.
//!    The hooks are live only once a [`KernelTracer`] is installed — on a
//!    thread via [`set_thread_kernel_tracer`], or on a fleet's workers via
//!    [`ShardedFixedWindowBuilder::kernel_tracer`](crate::ShardedFixedWindowBuilder::kernel_tracer),
//!    which also arms the fleet's latency spans when a registry is
//!    attached. Untraced code pays one thread-local read and a branch per
//!    kernel build or single-value push.

use std::cell::RefCell;
use std::sync::Arc;

use streamhist_obs::{Counter, LatencyRecorder, MetricsRegistry};

use crate::kernel::KernelStats;

/// Metric name prefix shared by everything this crate registers.
const PREFIX: &str = "streamhist";

/// Publishes a [`KernelStats`] snapshot into `registry` as gauges, under
/// `labels` (e.g. `&[("fleet", "f0"), ("shard", "3")]`, or empty for a
/// single unsharded summary).
///
/// Gauges, deliberately: a stats record is a point-in-time view — the
/// online summaries report store-lifetime cumulative work and the window
/// summaries report per-materialization work — so the registry must
/// *overwrite* on republish. Event-counting (monotone `_total` series)
/// is the tracing layer's job, where each event is observed exactly once
/// at its source.
pub fn publish_kernel_stats(
    registry: &MetricsRegistry,
    labels: &[(&str, &str)],
    stats: &KernelStats,
) {
    let clamp = |v: usize| i64::try_from(v).unwrap_or(i64::MAX);
    registry
        .gauge_with(
            &format!("{PREFIX}_kernel_queue_intervals"),
            "Total interval-queue entries across all levels (paper bound O((B/delta) log n)).",
            labels,
        )
        .set(clamp(stats.queue_sizes.iter().sum()));
    registry
        .gauge_with(
            &format!("{PREFIX}_kernel_herror_evals"),
            "HERROR evaluations in the reported stats window (cumulative online, per-build batch).",
            labels,
        )
        .set(clamp(stats.herror_evals));
    registry
        .gauge_with(
            &format!("{PREFIX}_kernel_binary_searches"),
            "CreateList endpoint searches (gallop, then bisect) in the reported stats window (one per interval created).",
            labels,
        )
        .set(clamp(stats.binary_searches));
    registry
        .float_gauge_with(
            &format!("{PREFIX}_kernel_herror"),
            "Current approximate HERROR[n, B] (the SSE the histogram approximately achieves).",
            labels,
        )
        .set(stats.herror);
    registry
        .gauge_with(
            &format!("{PREFIX}_kernel_arena_nodes"),
            "Boundary-chain arena occupancy (live chains plus uncollected garbage).",
            labels,
        )
        .set(clamp(stats.arena_nodes));
    registry
        .gauge_with(
            &format!("{PREFIX}_kernel_arena_peak"),
            "High-water mark of arena occupancy.",
            labels,
        )
        .set(clamp(stats.arena_peak));
    registry
        .gauge_with(
            &format!("{PREFIX}_kernel_compactions"),
            "Arena compactions in the reported stats window.",
            labels,
        )
        .set(clamp(stats.compactions));
    registry
        .gauge_with(
            &format!("{PREFIX}_kernel_rebases"),
            "Prefix-sum anchor rebases in the reported stats window.",
            labels,
        )
        .set(clamp(stats.rebases));
}

/// Registered handles for the kernel's phase-tracing hooks.
#[derive(Debug, Clone)]
pub struct KernelTracer {
    /// Batch materializations (`CreateList` rebuild + final minimization).
    pub builds: Counter,
    /// Wall-clock of each batch materialization.
    pub build_seconds: Arc<LatencyRecorder>,
    /// Online per-point DP steps.
    pub pushes: Counter,
    /// Wall-clock of each online DP step.
    pub push_seconds: Arc<LatencyRecorder>,
    /// `HERROR[c, k]` evaluations.
    pub evals: Counter,
    /// Endpoint-search probe evaluations inside `CreateList`: the
    /// predicted endpoint, galloping and bisection. A non-empty build
    /// evaluates exactly `B` positions besides its probes (each level's
    /// first interval start and the final minimization), so this is
    /// nearly all of `evals`.
    pub probes: Counter,
    /// Split candidates the batch minimization scanned, over all its
    /// `HERROR[c, k]` evaluations: Theorem 1's innermost unit, so
    /// `candidates / evals` is the mean scan length per evaluation. A scan
    /// stops at the first candidate its lower-envelope break rules out,
    /// and that candidate is counted.
    pub candidates: Counter,
    /// Intervals produced by `CreateList` (queue entries).
    pub intervals: Counter,
    /// Arena compaction events.
    pub compactions: Counter,
    /// Prefix-store rebase events.
    pub rebases: Counter,
}

impl KernelTracer {
    /// Registers a tracer's metric families into `registry` and
    /// returns the handles. Two tracers built against the same
    /// registry share the same cells (registration is idempotent per
    /// family), so this is cheap to call per fleet. Install the
    /// result with
    /// [`kernel_tracer`](crate::ShardedFixedWindowBuilder::kernel_tracer)
    /// on a fleet builder (worker threads pick it up automatically) or
    /// [`set_thread_kernel_tracer`] on threads that push into
    /// summaries directly.
    #[must_use]
    pub fn new(registry: &MetricsRegistry) -> Self {
        Self {
            builds: registry.counter(
                &format!("{PREFIX}_kernel_builds_total"),
                "Batch histogram materializations (CreateList rebuilds).",
            ),
            build_seconds: registry.latency(
                &format!("{PREFIX}_kernel_build_seconds"),
                "Batch materialization latency (GK-backed summary).",
            ),
            pushes: registry.counter(
                &format!("{PREFIX}_kernel_pushes_total"),
                "Online per-point DP steps.",
            ),
            push_seconds: registry.latency(
                &format!("{PREFIX}_kernel_push_seconds"),
                "Online per-point DP step latency (GK-backed summary).",
            ),
            evals: registry.counter(
                &format!("{PREFIX}_kernel_herror_evals_total"),
                "HERROR[c, k] evaluations.",
            ),
            probes: registry.counter(
                &format!("{PREFIX}_kernel_search_probes_total"),
                "Endpoint-search probe evaluations inside CreateList (predicted endpoint, galloping, bisection).",
            ),
            candidates: registry.counter(
                &format!("{PREFIX}_kernel_candidates_total"),
                "Split candidates scanned by batch HERROR[c, k] evaluations (per eval: divide by herror_evals_total).",
            ),
            intervals: registry.counter(
                &format!("{PREFIX}_kernel_intervals_total"),
                "Intervals produced by CreateList.",
            ),
            compactions: registry.counter(
                &format!("{PREFIX}_kernel_compactions_total"),
                "Arena compaction events.",
            ),
            rebases: registry.counter(
                &format!("{PREFIX}_kernel_rebases_total"),
                "Prefix-sum anchor rebase events.",
            ),
        }
    }
}

/// Per-fleet latency recorders for the sharded data plane, registered
/// when a fleet is built with both a registry and a kernel tracer (see
/// `ShardedFixedWindowBuilder::kernel_tracer`): the tracer is the one
/// opt-in for every span, so an untraced fleet records none of them.
/// Fleet-level rather than per-shard to keep series cardinality low; the
/// `fleet` label keeps concurrent fleets apart.
#[derive(Debug)]
pub(crate) struct FleetTiming {
    /// Time a command spends in a shard's bounded queue before the
    /// worker dequeues it.
    pub queue_wait: Arc<LatencyRecorder>,
    /// Duration of one checkpoint frame encode on a worker thread.
    pub checkpoint_encode: Arc<LatencyRecorder>,
    /// Duration of one checkpoint frame decode during respawn/restore.
    pub restore: Arc<LatencyRecorder>,
    /// Wall-clock of one `push_batch_scatter` dispatch loop.
    pub scatter: Arc<LatencyRecorder>,
    /// Wall-clock of one `snapshot_global` gather: the cross-shard
    /// snapshot barrier plus every histogram merge stage. Cache hits
    /// are not recorded (nothing is gathered).
    pub merge: Arc<LatencyRecorder>,
}

impl FleetTiming {
    pub(crate) fn register(registry: &MetricsRegistry, fleet: &str) -> Self {
        let labels = &[("fleet", fleet)];
        Self {
            queue_wait: registry.latency_with(
                &format!("{PREFIX}_shard_queue_wait_seconds"),
                "Time commands spend in a shard's bounded queue before the worker dequeues them.",
                labels,
            ),
            checkpoint_encode: registry.latency_with(
                &format!("{PREFIX}_shard_checkpoint_encode_seconds"),
                "Checkpoint frame encode duration on the worker thread.",
                labels,
            ),
            restore: registry.latency_with(
                &format!("{PREFIX}_shard_restore_seconds"),
                "Checkpoint frame decode duration during respawn/restore.",
                labels,
            ),
            scatter: registry.latency_with(
                &format!("{PREFIX}_shard_scatter_seconds"),
                "push_batch_scatter dispatch-loop latency (all chunks enqueued).",
                labels,
            ),
            merge: registry.latency_with(
                &format!("{PREFIX}_fleet_merge_seconds"),
                "snapshot_global gather latency (shard snapshots plus merge stages).",
                labels,
            ),
        }
    }
}

thread_local! {
    /// The thread-scoped tracer the kernel hooks report to. The kernel is
    /// constructed deep inside summaries that have no registry parameter,
    /// so the hooks resolve their tracer out of band; thread scoping means
    /// two fleets in one process can report to different registries.
    static THREAD_TRACER: RefCell<Option<Arc<KernelTracer>>> = const { RefCell::new(None) };
}

/// Installs (or clears, with `None`) the calling thread's kernel
/// tracer. Kernel hooks on this thread report to it from now on. Fleet
/// worker threads call this themselves when the fleet is built with
/// [`kernel_tracer`](crate::ShardedFixedWindowBuilder::kernel_tracer);
/// call it directly only on threads that push into summaries without
/// going through a fleet.
pub fn set_thread_kernel_tracer(tracer: Option<Arc<KernelTracer>>) {
    THREAD_TRACER.with(|t| *t.borrow_mut() = tracer);
}

/// The tracer the kernel hooks should report to right now: the
/// calling thread's, if one is installed. This is the hooks' only
/// entry point.
#[inline(always)]
pub(crate) fn active_kernel_tracer() -> Option<Arc<KernelTracer>> {
    THREAD_TRACER.with(|t| t.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_stats_publish_as_gauges_and_overwrite() {
        let registry = MetricsRegistry::new();
        let stats = KernelStats {
            queue_sizes: vec![3, 4],
            herror_evals: 100,
            binary_searches: 9,
            herror: 2.5,
            arena_nodes: 40,
            arena_peak: 50,
            compactions: 1,
            rebases: 2,
        };
        publish_kernel_stats(&registry, &[("shard", "0")], &stats);
        // Republishing the identical snapshot must not double anything.
        publish_kernel_stats(&registry, &[("shard", "0")], &stats);
        let text = registry.text_exposition();
        let samples = streamhist_obs::parse_exposition(&text).expect("valid exposition");
        let get = |name: &str| {
            samples
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("{name} missing from exposition"))
                .value
        };
        assert_eq!(get("streamhist_kernel_queue_intervals"), 7.0);
        assert_eq!(get("streamhist_kernel_herror_evals"), 100.0);
        assert_eq!(get("streamhist_kernel_binary_searches"), 9.0);
        assert_eq!(get("streamhist_kernel_herror"), 2.5);
        assert_eq!(get("streamhist_kernel_arena_peak"), 50.0);
        assert_eq!(get("streamhist_kernel_rebases"), 2.0);
    }

    #[test]
    fn thread_tracer_takes_precedence_and_is_clearable() {
        let registry = MetricsRegistry::new();
        let tracer = Arc::new(KernelTracer::new(&registry));
        // Run on a fresh thread so another test's thread-local state (or
        // this one's) cannot leak across.
        std::thread::spawn(move || {
            set_thread_kernel_tracer(Some(Arc::clone(&tracer)));
            let active = active_kernel_tracer().expect("thread tracer installed");
            active.pushes.inc();
            assert_eq!(tracer.pushes.get(), 1, "hooks must hit the thread tracer");
            set_thread_kernel_tracer(None);
            assert!(
                active_kernel_tracer().is_none(),
                "a cleared thread has no tracer at all"
            );
            assert_eq!(tracer.pushes.get(), 1, "cleared tracer must not be hit");
        })
        .join()
        .expect("tracer thread panicked");
    }

    /// The bucket budget of [`window_rounds`]' summary.
    const B: usize = 4;

    /// `rounds` push + `histogram_with_stats` rounds over a fixed stream,
    /// on a fresh thread with `tracer` installed (or none).
    fn window_rounds(
        tracer: Option<Arc<KernelTracer>>,
        rounds: usize,
    ) -> Vec<(Arc<streamhist_core::Histogram>, KernelStats)> {
        std::thread::spawn(move || {
            set_thread_kernel_tracer(tracer);
            let mut fw = crate::FixedWindowHistogram::new(64, B, 0.1);
            (0..rounds)
                .map(|i| {
                    fw.push(((i * 37) % 101) as f64 + (i as f64 * 0.3).sin());
                    fw.histogram_with_stats()
                })
                .collect()
        })
        .join()
        .expect("window thread panicked")
    }

    #[test]
    fn kernel_tracer_reconciles_with_kernel_stats_and_changes_nothing() {
        const N: usize = 300;
        let registry = MetricsRegistry::new();
        let tracer = Arc::new(KernelTracer::new(&registry));
        let traced = window_rounds(Some(Arc::clone(&tracer)), N);
        // Debug prints shortest round-trip floats, so equal strings mean
        // bit-identical histograms and stats.
        assert_eq!(
            format!("{traced:?}"),
            format!("{:?}", window_rounds(None, N)),
            "tracing changed an output"
        );

        let (mut evals, mut searches, mut queued, mut probes) = (0, 0, 0, 0);
        let mut available = 0;
        for (_, stats) in &traced {
            evals += stats.herror_evals;
            searches += stats.binary_searches;
            queued += stats.queue_sizes.iter().sum::<usize>();
            // Every build here is non-empty: its evaluations are the
            // search probes, the first interval start of each of the
            // B − 1 levels (every later start is a carried probe) and
            // the final minimization.
            probes += stats.herror_evals - B;
            // Each evaluation scans at most its whole lower queue, and
            // every lower queue is one of the build's level queues.
            available += stats.herror_evals * stats.queue_sizes.iter().max().copied().unwrap_or(0);
        }
        let rebases = traced[N - 1].1.rebases;
        assert!(rebases > 0, "the stream must cross a rebase");
        assert_eq!(tracer.builds.get(), N as u64);
        assert_eq!(tracer.evals.get(), evals as u64);
        assert_eq!(tracer.intervals.get(), searches as u64);
        assert_eq!(searches, queued);
        assert_eq!(tracer.probes.get(), probes as u64);
        let candidates = tracer.candidates.get();
        assert!(
            0 < candidates && candidates <= available as u64,
            "{candidates} candidates scanned, {available} available"
        );
        assert_eq!(tracer.rebases.get(), rebases as u64);
        assert_eq!(
            tracer.pushes.get(),
            0,
            "a window build is not an online push"
        );
    }

    /// Samples recorded in latency family `family` under `{fleet = fleet}`.
    fn latency_samples(registry: &MetricsRegistry, family: &str, fleet: &str) -> u64 {
        registry
            .gather()
            .iter()
            .filter(|f| f.name == family)
            .flat_map(|f| &f.series)
            .filter(|s| s.labels.iter().any(|(k, v)| k == "fleet" && v == fleet))
            .map(|s| match &s.value {
                streamhist_obs::SampleValue::Summary(l) => l.count,
                _ => 0,
            })
            .sum()
    }

    #[test]
    fn fleet_timing_is_armed_by_the_tracer_not_the_registry() {
        let registry = Arc::new(MetricsRegistry::new());
        let tracer = Arc::new(KernelTracer::new(&registry));
        let values: Vec<f64> = (0..4096).map(|i| (i % 97) as f64).collect();
        for fleet in ["untraced", "traced"] {
            let mut builder = crate::ShardedFixedWindow::builder(2, 64, 4, 0.1)
                .registry(Arc::clone(&registry))
                .fleet_label(fleet);
            if fleet == "traced" {
                builder = builder.kernel_tracer(Arc::clone(&tracer));
            }
            let sw = builder.build().expect("valid config");
            sw.push_batch_scatter(&values).expect("lossless push");
            sw.snapshot_global().expect("fleet alive");
            for r in sw.join() {
                r.expect("worker alive");
            }
        }
        for family in [
            "streamhist_shard_queue_wait_seconds",
            "streamhist_shard_scatter_seconds",
            "streamhist_fleet_merge_seconds",
        ] {
            assert_eq!(
                latency_samples(&registry, family, "untraced"),
                0,
                "{family}"
            );
            assert!(
                latency_samples(&registry, family, "traced") >= 1,
                "{family}"
            );
        }
    }
}
