//! Versioned snapshot cache behind
//! [`ShardedRuntime::merged`](crate::ShardedRuntime::merged).
//!
//! The paper's at-all-times query model (and Huang–Tai–Yi's continuous
//! tracking argument, arXiv 1412.1763) means `merged()` runs *while* the
//! stream is still being ingested, often far more frequently than shard
//! state actually changes between queries. Every shard worker bumps a
//! **dirty-epoch** counter (its applied batch count) after each
//! `update_batch`; a shard whose epoch matches the version stamped on its
//! cached clone has not changed since the previous query, so it is not
//! cloned again. Each query then takes one of two paths:
//!
//! * **Hit:** with zero dirty shards — the common case for repeated
//!   at-all-times polling — the query costs one clone of the cached
//!   merged result: O(sketch bytes), independent of the shard count.
//! * **Re-merge:** otherwise the fresh clones of the dirty shards replace
//!   their stale entries, and every cached clone is merged into the
//!   prototype in shard order. Merging is exact for the linear sketches
//!   (integer counters), so the result is bit-identical to sequential
//!   sketching (see `tests/runtime_properties.rs`).
//!
//! The cache never talks to workers itself: the runtime fetches fresh
//! clones for dirty shards (via the control queue) and hands them in via
//! `SnapshotCache::refresh`, so this module is pure bookkeeping and
//! stays trivially safe code.

use sss_core::Summary;
use std::any::Any;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Counters describing how the cache served queries so far — exposed as
/// [`ShardedRuntime::cache_stats`](crate::ShardedRuntime::cache_stats)
/// and recorded by the `queries_under_ingest` bench series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cached merged result alone (zero dirty
    /// shards): one clone, no merge work.
    pub hits: u64,
    /// Queries that re-merged every cached shard clone (first query, or
    /// any shard was dirty).
    pub full_rebuilds: u64,
    /// Total fresh shard clones fetched across all rebuilds — the clone
    /// work actually paid, to compare against `queries × shards`.
    pub shards_refreshed: u64,
}

impl CacheStats {
    /// Total queries served through the cache.
    pub fn queries(&self) -> u64 {
        self.hits + self.full_rebuilds
    }
}

/// Per-shard cached state: the version (dirty-epoch) at which `clone`
/// was taken.
struct ShardEntry<E> {
    version: u64,
    clone: E,
}

/// The snapshot cache. One per runtime, guarded by the runtime's query
/// mutex (queries may come from several
/// [`QueryHandle`](crate::QueryHandle)s concurrently).
pub(crate) struct SnapshotCache<E> {
    /// Last fetched clone per shard; `None` until first queried.
    shards: Vec<Option<ShardEntry<E>>>,
    /// The merged result as of the versions recorded in `shards`.
    merged: Option<E>,
    stats: CacheStats,
}

impl<E: Summary> SnapshotCache<E> {
    pub(crate) fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards).map(|_| None).collect(),
            merged: None,
            stats: CacheStats::default(),
        }
    }

    /// The stamped version of `shard`'s cached clone, or `None` if the
    /// shard has never been fetched. The runtime compares this with the
    /// worker's live dirty epoch to decide whether the shard needs a
    /// fresh clone.
    pub(crate) fn shard_version(&self, shard: usize) -> Option<u64> {
        self.shards[shard].as_ref().map(|e| e.version)
    }

    /// Serve a query given fresh clones for exactly the dirty shards.
    ///
    /// `fresh` holds `(shard, version, clone)` for every shard whose live
    /// epoch differed from [`shard_version`](Self::shard_version);
    /// `prototype` is the merge identity a rebuild starts from (cloned
    /// only then). Returns a clone of the (now current) merged estimator.
    pub(crate) fn refresh(
        &mut self,
        prototype: &E,
        fresh: Vec<(usize, u64, E)>,
    ) -> sss_core::Result<E> {
        if fresh.is_empty() {
            if let Some(merged) = &self.merged {
                self.stats.hits += 1;
                return Ok(merged.clone());
            }
        }
        self.stats.full_rebuilds += 1;
        self.stats.shards_refreshed += fresh.len() as u64;
        for (shard, version, clone) in fresh {
            self.shards[shard] = Some(ShardEntry { version, clone });
        }
        // A failed merge leaves no cached result behind, so the next query
        // rebuilds instead of hitting a merge that predates `fresh`.
        self.merged = None;
        let mut merged = prototype.clone();
        for entry in self.shards.iter().flatten() {
            merged.merge_from(&entry.clone)?;
        }
        self.merged = Some(merged.clone());
        Ok(merged)
    }

    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// One published slim snapshot: the merged summary's slim projection,
/// stamped with the accepted-batch total it reflects.
///
/// The projection is behind an [`Arc`], so N readers in the process share
/// one copy: distributing a refresh costs a pointer bump, with no clone,
/// encode or decode. Its type is erased because the hub lives in every
/// runtime, while a slim type exists only for summaries implementing
/// [`SlimQuery`](sss_core::SlimQuery); each runtime only ever publishes
/// its own summary's `Slim`.
#[derive(Clone)]
pub(crate) struct ReplicaFrame {
    /// Sum of every shard's accepted-batch counter when the frame was
    /// projected — the staleness yardstick readers compare against.
    pub(crate) version: u64,
    /// Tuples applied across all shards at projection time — the
    /// denominator of the staleness variance plug-in.
    pub(crate) applied: u64,
    /// The shared slim projection.
    pub(crate) slim: Arc<dyn Any + Send + Sync>,
}

/// The slim-replica exchange point between the (single) refresher that
/// projects the merged fat state and the N readers serving `*_estimate()`
/// queries — the second stage of the two-stage read path (DESIGN.md §4k).
///
/// Slim states deliberately cannot merge (`(a+b)² ≠ a² + b²`), so deltas
/// are *whole frames*: a refresh merges fat state through the
/// [`SnapshotCache`], projects once, and publishes the projection; every
/// reader whose local version lags adopts the shared `Arc`.
/// The `refreshing` mutex makes the expensive projection single-flight —
/// concurrent stale readers elect one refresher and the rest pick up the
/// frame it publishes.
pub(crate) struct ReplicaHub {
    frame: Mutex<Option<ReplicaFrame>>,
    /// Held for the duration of a fat merge + projection; see above.
    refreshing: Mutex<()>,
}

impl ReplicaHub {
    pub(crate) fn new() -> Self {
        Self {
            frame: Mutex::new(None),
            refreshing: Mutex::new(()),
        }
    }

    /// The latest published frame, if any. Lock-poisoning on either mutex
    /// is survivable: frames are immutable once published, so a poisoned
    /// guard still reads a consistent frame.
    pub(crate) fn frame(&self) -> Option<ReplicaFrame> {
        self.frame
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Publish a frame, keeping whichever reflects more accepted batches
    /// (two racing refreshers can finish out of order).
    pub(crate) fn publish(&self, frame: ReplicaFrame) {
        let mut slot = self.frame.lock().unwrap_or_else(PoisonError::into_inner);
        if !slot.as_ref().is_some_and(|f| f.version > frame.version) {
            *slot = Some(frame);
        }
    }

    /// Serialize refreshers; the guard's lifetime brackets the fat merge.
    pub(crate) fn begin_refresh(&self) -> MutexGuard<'_, ()> {
        self.refreshing
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sss_core::sketch::{JoinSchema, JoinSketch};

    fn shard_sketch(schema: &JoinSchema, keys: &[u64]) -> JoinSketch {
        let mut s = schema.sketch();
        s.update_batch(keys);
        s
    }

    /// The self-join value's bits: the bit-identity every sharded path pins.
    fn f2_bits(s: &JoinSketch) -> u64 {
        s.raw_self_join_estimate().value.to_bits()
    }

    /// Both cache paths (re-merge, hit) produce results bit-identical to
    /// a from-scratch merge of the same shard states.
    #[test]
    fn all_three_paths_match_a_fresh_merge() {
        let mut rng = StdRng::seed_from_u64(11);
        let schema = JoinSchema::fagms(2, 128, &mut rng);
        let proto = schema.sketch();
        let mut cache = SnapshotCache::new(3);

        let s0 = shard_sketch(&schema, &[1, 2, 3]);
        let s1 = shard_sketch(&schema, &[40, 50]);
        let s2 = shard_sketch(&schema, &[600]);

        // First query: full rebuild.
        let m1 = cache
            .refresh(
                &proto,
                vec![(0, 1, s0.clone()), (1, 1, s1.clone()), (2, 1, s2.clone())],
            )
            .unwrap();
        let mut expect = proto.clone();
        for s in [&s0, &s1, &s2] {
            expect.merge_from(s).unwrap();
        }
        assert_eq!(f2_bits(&m1), f2_bits(&expect));
        assert_eq!(cache.stats().full_rebuilds, 1);

        // No dirt: cache hit, bit-identical to the previous answer.
        let m2 = cache.refresh(&proto, vec![]).unwrap();
        assert_eq!(f2_bits(&m2), f2_bits(&m1));
        assert_eq!(cache.stats().hits, 1);

        // Shard 1 advances: only that shard is cloned, then all re-merge.
        let s1b = shard_sketch(&schema, &[40, 50, 60, 70]);
        let m3 = cache.refresh(&proto, vec![(1, 2, s1b.clone())]).unwrap();
        let mut expect3 = proto.clone();
        for s in [&s0, &s1b, &s2] {
            expect3.merge_from(s).unwrap();
        }
        assert_eq!(f2_bits(&m3), f2_bits(&expect3));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                full_rebuilds: 2,
                shards_refreshed: 4,
            }
        );
        assert_eq!(cache.shard_version(0), Some(1));
        assert_eq!(cache.shard_version(1), Some(2));
    }

    /// The replica hub: publish is monotone in the version, frames are
    /// shared (not copied), and racing refreshers single-flight through
    /// `begin_refresh`.
    #[test]
    fn replica_hub_publishes_monotonically() {
        let hub = ReplicaHub::new();
        assert!(hub.frame().is_none());
        hub.publish(ReplicaFrame {
            version: 5,
            applied: 100,
            slim: Arc::new(vec![1u8, 2, 3]),
        });
        // An older frame from a slow racer does not regress the slot.
        hub.publish(ReplicaFrame {
            version: 3,
            applied: 60,
            slim: Arc::new(vec![9u8]),
        });
        let f = hub.frame().unwrap();
        assert_eq!(f.version, 5);
        assert_eq!(f.applied, 100);
        assert_eq!(f.slim.downcast_ref::<Vec<u8>>(), Some(&vec![1, 2, 3]));
        // Two readers share one projection.
        let g = hub.frame().unwrap();
        assert!(Arc::ptr_eq(&f.slim, &g.slim));
        // The refresh guard is just a mutex — hold and release.
        drop(hub.begin_refresh());
        let _second = hub.begin_refresh();
    }

    /// Many rounds of random dirtying: the cached re-merge never drifts
    /// from a from-scratch merge, bit for bit.
    #[test]
    fn incremental_never_drifts_from_scratch() {
        let mut rng = StdRng::seed_from_u64(12);
        let schema = JoinSchema::agms(32, &mut rng);
        let proto = schema.sketch();
        const SHARDS: usize = 4;
        let mut cache = SnapshotCache::new(SHARDS);
        let mut live: Vec<Vec<u64>> = vec![Vec::new(); SHARDS];
        let mut versions = [0u64; SHARDS];

        let mut state = 99u64;
        let mut rand = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for round in 0..60 {
            // Dirty a random subset of shards.
            let mut fresh = Vec::new();
            for shard in 0..SHARDS {
                if rand() % 3 == 0 || round == 0 {
                    live[shard].push(rand());
                    versions[shard] += 1;
                    fresh.push((shard, versions[shard], shard_sketch(&schema, &live[shard])));
                }
            }
            let merged = cache.refresh(&proto, fresh).unwrap();
            let mut expect = proto.clone();
            for keys in &live {
                expect.merge_from(&shard_sketch(&schema, keys)).unwrap();
            }
            assert_eq!(f2_bits(&merged), f2_bits(&expect), "round {round}");
        }
        assert!(cache.stats().hits > 0, "some rounds dirtied nothing");
        assert!(cache.stats().full_rebuilds > 1);
    }
}
