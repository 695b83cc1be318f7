//! Serve-facing seam over a sharded fleet: shared, `&self` access to the
//! snapshot and admin surface.
//!
//! [`ShardedFixedWindow`] deliberately puts its mutating admin operations
//! (`respawn_shard`, `load_from_store`) behind `&mut self` so they can never
//! race producers. A network front-end, though, is many threads by
//! construction: connection workers answering queries concurrently with
//! ingest, plus the occasional admin request. [`FleetHandle`] packages the
//! canonical locking discipline (the same `RwLock` pattern the stress
//! tests use) behind a cloneable handle:
//!
//! * queries and ingestion take the **read** lock — unbounded concurrency,
//!   exactly as cheap as calling the fleet directly (the fleet's own
//!   channels do the synchronization);
//! * `respawn_shard` / `load_from_store` take the **write** lock — admin
//!   operations serialize against everything, which is what the fleet's
//!   `&mut self` contract demands.
//!
//! Shard indices arriving from outside the process are *data*, not
//! addressing bugs, so every shard-indexed method here validates the index
//! and returns [`StreamhistError::InvalidParameter`] instead of panicking —
//! the front-end turns that into an error frame.

use crate::fixed_window::FixedWindowHistogram;
use crate::kernel::KernelStats;
use crate::sharded::{
    Coverage, MergeMetrics, RecoveryReport, ShardError, ShardMetrics, ShardedFixedWindow,
    SnapshotPolicy,
};
use std::io;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;
use streamhist_core::{Histogram, StreamhistError};
use streamhist_obs::FlightRecorder;

/// A cloneable, thread-safe handle to a sharded fleet, exposing the
/// query/snapshot surface under a read lock and the admin surface under a
/// write lock. See the [module docs](self).
///
/// # Example
///
/// ```
/// use streamhist_stream::{FleetHandle, ShardedFixedWindow};
///
/// let fleet = ShardedFixedWindow::new(2, 64, 4, 0.1);
/// let handle = FleetHandle::new(fleet);
/// let ingest = handle.clone();
/// for i in 0..100u64 {
///     ingest.push(i, (i % 7) as f64).unwrap();
/// }
/// let (hist, _stats) = handle.snapshot_global().unwrap();
/// assert!(hist.num_buckets() <= 4);
/// ```
#[derive(Clone)]
pub struct FleetHandle {
    fleet: Arc<RwLock<ShardedFixedWindow>>,
}

impl FleetHandle {
    /// Wraps a fleet. The handle (and its clones) become the fleet's only
    /// access path.
    #[must_use]
    pub fn new(fleet: ShardedFixedWindow) -> Self {
        Self {
            fleet: Arc::new(RwLock::new(fleet)),
        }
    }

    /// Read access for queries and ingestion. A poisoned lock is recovered
    /// rather than propagated: the fleet's own state is never left
    /// half-mutated by a panicking *reader*, and the serving path must not
    /// turn one panicked worker thread into a fleet-wide outage.
    fn read(&self) -> RwLockReadGuard<'_, ShardedFixedWindow> {
        self.fleet.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, ShardedFixedWindow> {
        self.fleet.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn check_shard(&self, shard: usize) -> Result<(), StreamhistError> {
        if shard >= self.shards() {
            return Err(StreamhistError::InvalidParameter {
                param: "shard",
                message: "shard index out of range for this fleet",
            });
        }
        Ok(())
    }

    /// Number of shards in the fleet.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.read().shards()
    }

    /// The fleet's shared [`FlightRecorder`]
    /// (see [`ShardedFixedWindow::recorder`]) — clone of the `Arc`, so the
    /// caller can read (or co-write) the event timeline without holding
    /// the fleet lock.
    #[must_use]
    pub fn recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(self.read().recorder())
    }

    /// Routes one record to its key's shard
    /// (see [`ShardedFixedWindow::push`]).
    ///
    /// # Errors
    ///
    /// [`ShardError`] if the target worker has died.
    pub fn push(&self, key: u64, v: f64) -> Result<(), ShardError> {
        self.read().push(key, v)
    }

    /// Addresses one record to an explicit shard
    /// (see [`ShardedFixedWindow::push_to`]) — chaos harnesses and tests
    /// use this to aim traffic at a shard whose health they control.
    ///
    /// # Errors
    ///
    /// Outer [`StreamhistError::InvalidParameter`] for an out-of-range
    /// index; inner [`ShardError`] when the addressed worker has died.
    pub fn push_to(&self, shard: usize, v: f64) -> Result<Result<(), ShardError>, StreamhistError> {
        self.check_shard(shard)?;
        Ok(self.read().push_to(shard, v))
    }

    /// Scatters a slab across all shards
    /// (see [`ShardedFixedWindow::push_batch_scatter`]).
    ///
    /// # Errors
    ///
    /// The first [`ShardError`] hit; healthy shards still receive their
    /// chunks.
    pub fn push_batch_scatter(&self, values: &[f64]) -> Result<(), ShardError> {
        self.read().push_batch_scatter(values)
    }

    /// Fleet-global gathered snapshot
    /// (see [`ShardedFixedWindow::snapshot_global`]): one `B`-bucket
    /// histogram over the concatenated shard windows, generation-cached.
    ///
    /// # Errors
    ///
    /// The first [`ShardError`] if any worker has died.
    pub fn snapshot_global(&self) -> Result<(Arc<Histogram>, KernelStats), ShardError> {
        self.read().snapshot_global()
    }

    /// Fleet-global snapshot under an explicit dead-shard policy, with an
    /// exact [`Coverage`] report
    /// (see [`ShardedFixedWindow::snapshot_global_with`]).
    ///
    /// # Errors
    ///
    /// Strict: the first [`ShardError`]. Degraded: the first excluded
    /// shard's error when coverage falls below the policy's floor.
    pub fn snapshot_global_with(
        &self,
        policy: SnapshotPolicy,
    ) -> Result<(Arc<Histogram>, KernelStats, Coverage), ShardError> {
        self.read().snapshot_global_with(policy)
    }

    /// Liveness probe for one shard (see [`ShardedFixedWindow::ping`]):
    /// `true` iff the worker answered within `timeout`.
    ///
    /// # Errors
    ///
    /// [`StreamhistError::InvalidParameter`] for an out-of-range index.
    pub fn ping(&self, shard: usize, timeout: Duration) -> Result<bool, StreamhistError> {
        self.check_shard(shard)?;
        Ok(self.read().ping(shard, timeout))
    }

    /// One shard's materialized histogram (a per-shard barrier, see
    /// [`ShardedFixedWindow::snapshot`]).
    ///
    /// # Errors
    ///
    /// Outer [`StreamhistError::InvalidParameter`] for an out-of-range
    /// index; inner [`ShardError`] when the addressed worker has died.
    /// Neither is a panic — both layers are data when the index came off
    /// the wire.
    pub fn snapshot_shard(
        &self,
        shard: usize,
    ) -> Result<Result<(Arc<Histogram>, KernelStats), ShardError>, StreamhistError> {
        self.check_shard(shard)?;
        Ok(self.read().snapshot(shard))
    }

    /// Point-in-time counters for one shard, validated.
    ///
    /// # Errors
    ///
    /// [`StreamhistError::InvalidParameter`] for an out-of-range index.
    pub fn metrics(&self, shard: usize) -> Result<ShardMetrics, StreamhistError> {
        self.check_shard(shard)?;
        Ok(self.read().metrics(shard))
    }

    /// Metrics for every shard, in shard order.
    #[must_use]
    pub fn metrics_all(&self) -> Vec<ShardMetrics> {
        self.read().metrics_all()
    }

    /// The fleet's gather/merge counters.
    #[must_use]
    pub fn merge_metrics(&self) -> MergeMetrics {
        self.read().merge_metrics()
    }

    /// Respawns one shard's worker under the write lock
    /// (see [`ShardedFixedWindow::respawn_shard`]): queries and ingestion
    /// drain first, then the swap happens with the fleet quiescent.
    ///
    /// # Errors
    ///
    /// [`StreamhistError::InvalidParameter`] for an out-of-range index.
    pub fn respawn_shard(&self, shard: usize) -> Result<RecoveryReport, StreamhistError> {
        self.check_shard(shard)?;
        Ok(self.write().respawn_shard(shard))
    }

    /// Refreshes every shard's recovery point
    /// (see [`ShardedFixedWindow::checkpoint`]); returns the frame bytes.
    ///
    /// # Errors
    ///
    /// The underlying [`io::Error`] (which wraps a [`ShardError`] when a
    /// worker has died).
    pub fn checkpoint(&self) -> io::Result<u64> {
        self.read().checkpoint()
    }

    /// Saves every shard's summary straight into a durable store
    /// (see [`ShardedFixedWindow::save_to_store`]).
    ///
    /// # Errors
    ///
    /// [`io::Error`] as [`ShardedFixedWindow::save_to_store`].
    pub fn save_to_store(&self, store: &dyn streamhist_core::CheckpointStore) -> io::Result<u64> {
        self.read().save_to_store(store)
    }

    /// Rebuilds every shard from a durable store under the write lock
    /// (see [`ShardedFixedWindow::load_from_store`]); all-or-nothing.
    ///
    /// # Errors
    ///
    /// [`io::Error`] as [`ShardedFixedWindow::load_from_store`].
    pub fn load_from_store(&self, store: &dyn streamhist_core::CheckpointStore) -> io::Result<()> {
        self.write().load_from_store(store)
    }

    /// The fleet's durability status
    /// (see [`ShardedFixedWindow::wal_status`]).
    #[must_use]
    pub fn wal_status(&self) -> crate::durability::WalStatus {
        self.read().wal_status()
    }

    /// Fault injection passthrough for resilience tests
    /// (see [`ShardedFixedWindow::inject_worker_panic`]).
    ///
    /// # Errors
    ///
    /// [`StreamhistError::InvalidParameter`] for an out-of-range index;
    /// `Ok(Err(ShardError))` if the worker was already dead.
    pub fn inject_worker_panic(
        &self,
        shard: usize,
    ) -> Result<Result<(), ShardError>, StreamhistError> {
        self.check_shard(shard)?;
        Ok(self.read().inject_worker_panic(shard))
    }

    /// Shuts the fleet down and returns the shard summaries, if this is
    /// the last handle; otherwise returns `Err(self)` unchanged.
    ///
    /// # Errors
    ///
    /// `Err(self)` when other clones are still alive.
    #[allow(clippy::missing_errors_doc)]
    pub fn try_join(self) -> Result<Vec<Result<FixedWindowHistogram, ShardError>>, Self> {
        match Arc::try_unwrap(self.fleet) {
            Ok(lock) => Ok(lock
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .join()),
            Err(fleet) => Err(Self { fleet }),
        }
    }
}

impl std::fmt::Debug for FleetHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetHandle")
            .field("shards", &self.shards())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_range_shard_is_an_error_not_a_panic() {
        let handle = FleetHandle::new(ShardedFixedWindow::new(2, 16, 2, 0.5));
        assert!(matches!(
            handle.metrics(2),
            Err(StreamhistError::InvalidParameter { param: "shard", .. })
        ));
        assert!(handle.respawn_shard(99).is_err());
        assert!(handle.snapshot_shard(7).is_err());
        assert!(handle.inject_worker_panic(5).is_err());
        assert!(handle.metrics(1).is_ok());
    }

    #[test]
    fn concurrent_ingest_respawn_and_snapshot() {
        let handle = FleetHandle::new(ShardedFixedWindow::new(2, 32, 4, 0.2));
        let pushers: Vec<_> = (0..3)
            .map(|t| {
                let h = handle.clone();
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        // A respawn can momentarily kill a shard mid-push;
                        // the error is the documented contract, not a bug.
                        let _ = h.push(i.wrapping_mul(t + 1), (i % 11) as f64);
                    }
                })
            })
            .collect();
        for _ in 0..4 {
            let _ = handle.respawn_shard(0).unwrap();
            let _ = handle.snapshot_global();
        }
        for p in pushers {
            p.join().unwrap();
        }
        let (hist, _) = handle.snapshot_global().unwrap();
        assert!(hist.domain_len() <= 64, "two 32-capacity windows");
        let joined = handle.try_join().expect("last handle");
        assert_eq!(joined.len(), 2);
    }

    #[test]
    fn checkpoint_roundtrip_through_handle() {
        let handle = FleetHandle::new(ShardedFixedWindow::new(2, 16, 2, 0.5));
        for i in 0..50u64 {
            handle.push(i, (i % 5) as f64).unwrap();
        }
        let (before, _) = handle.snapshot_global().unwrap();
        let store = streamhist_core::MemStore::new();
        assert!(handle.save_to_store(&store).unwrap() > 0);
        handle.push_batch_scatter(&[99.0; 8]).unwrap();
        handle.load_from_store(&store).unwrap();
        let (after, _) = handle.snapshot_global().unwrap();
        assert_eq!(before, after, "a load rewinds to the save");
    }
}
