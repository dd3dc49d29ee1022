//! Property-based tests of the sharded runtime: for every shard count,
//! queue depth, partition policy and batch interleaving, the merged
//! sketch must be bit-identical to feeding the same stream through one
//! sequential sketch. This is the linearity argument of the runtime
//! (counter adds commute) checked end to end through the public facade.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sketch_sampled_streams::core::sketch::{JoinSchema, JoinSketch};
use sketch_sampled_streams::stream::{EngineBuilder, Partition, RuntimeConfig, ShardedRuntime};

fn stream() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), 1..400)
}

fn partition() -> impl Strategy<Value = Partition> {
    any::<bool>().prop_map(|hash| {
        if hash {
            Partition::Hash
        } else {
            Partition::RoundRobin
        }
    })
}

fn sequential(schema: &JoinSchema, keys: &[u64]) -> JoinSketch {
    let mut s = schema.sketch();
    s.update_batch(keys);
    s
}

/// The self-join value's bits: the bit-identity every sharded path pins.
fn f2_bits(s: &JoinSketch) -> u64 {
    s.raw_self_join_estimate().value.to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary chunking × shard count × queue depth × partition: the
    /// merged result never depends on how the stream was cut up or routed.
    #[test]
    fn sharded_merge_is_bit_identical_to_sequential(
        keys in stream(),
        shards in 1usize..8,
        queue_depth in 1usize..16,
        chunk in 1usize..97,
        partition in partition(),
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = JoinSchema::fagms(2, 64, &mut rng);
        let expect = sequential(&schema, &keys);

        let config = RuntimeConfig { shards, queue_depth, partition };
        let mut rt = ShardedRuntime::new(config, &schema.sketch()).unwrap();
        for chunk in keys.chunks(chunk) {
            rt.push(chunk).unwrap();
        }
        let merged = rt.into_merged().unwrap();
        prop_assert_eq!(f2_bits(&merged), f2_bits(&expect));
    }

    /// Interleaved pushes and at-all-times queries: after every chunk the
    /// incremental snapshot cache (partial retract+merge rebuilds, cache
    /// hits on repeats) must answer bit-identically to a sequential
    /// sketch of everything pushed so far — the exactness of the old full
    /// snapshot barrier, preserved by the delta path.
    #[test]
    fn interleaved_queries_match_sequential_prefixes(
        keys in stream(),
        shards in 1usize..6,
        queue_depth in 1usize..8,
        chunk in 1usize..97,
        partition in partition(),
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = JoinSchema::fagms(1, 64, &mut rng);
        let config = RuntimeConfig { shards, queue_depth, partition };
        let mut rt = ShardedRuntime::new(config, &schema.sketch()).unwrap();
        let mut pushed = 0usize;
        for chunk in keys.chunks(chunk) {
            rt.push(chunk).unwrap();
            pushed += chunk.len();
            let mid = rt.merged().unwrap();
            prop_assert_eq!(f2_bits(&mid), f2_bits(&sequential(&schema, &keys[..pushed])));
            // A repeated query with no intervening ingest is a cache hit
            // and still bit-identical.
            let again = rt.merged().unwrap();
            prop_assert_eq!(f2_bits(&again), f2_bits(&mid));
        }
        let stats = rt.cache_stats();
        prop_assert!(stats.hits >= (keys.len() / chunk) as u64);
        let fin = rt.into_merged().unwrap();
        prop_assert_eq!(f2_bits(&fin), f2_bits(&sequential(&schema, &keys)));
    }

    /// The same property through the engine: transforms + sharded runtime
    /// (no shedding) reproduce a sequential sketch of the post-transform
    /// stream exactly, and a mid-stream snapshot covers every tuple
    /// pushed before it.
    #[test]
    fn engine_snapshot_and_final_merge_are_exact(
        keys in stream(),
        shards in 1usize..6,
        chunk in 1usize..97,
        seed: u64,
    ) {
        fn drop_odd(k: u64) -> bool {
            k % 2 == 0
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = JoinSchema::fagms(1, 32, &mut rng);

        let mut engine = EngineBuilder::new()
            .filter("even", drop_odd)
            .shards(shards)
            .schema(&schema)
            .build()
            .unwrap();
        let half = keys.len() / 2;
        for chunk in keys[..half].chunks(chunk) {
            engine.push_batch(chunk, 1.0).unwrap();
        }
        let mid = engine.merged().unwrap();
        let transformed: Vec<u64> = keys.iter().copied().filter(|&k| drop_odd(k)).collect();
        let split = keys[..half].iter().filter(|&&k| drop_odd(k)).count();
        prop_assert_eq!(f2_bits(&mid), f2_bits(&sequential(&schema, &transformed[..split])));

        for chunk in keys[half..].chunks(chunk) {
            engine.push_batch(chunk, 1.0).unwrap();
        }
        let fin = engine.into_merged().unwrap();
        prop_assert_eq!(f2_bits(&fin), f2_bits(&sequential(&schema, &transformed)));
    }
}
