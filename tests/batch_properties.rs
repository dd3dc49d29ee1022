//! Property-based tests of the batched update kernels: `update_batch` /
//! `update_batch_counts` must be bit-identical to the sequential per-key
//! path for every sketch backend and ξ family combination, the batched
//! top-k, KLL and `MultiSummary` ingestion must leave serialized state
//! byte-identical to their per-key loops, and the skip-sampled
//! `feed_batch` must reproduce `observe` exactly.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sketch_sampled_streams::core::sketch::JoinSchema;
use sketch_sampled_streams::core::{MultiSpec, Sampled, Summary};
use sketch_sampled_streams::sketch::{
    AgmsSchema, CountMinSchema, CountSketchTopK, FagmsSchema, HeavyHitters, KllSketch, Sketch,
};
use sketch_sampled_streams::xi::{BucketFamily, Cw2, Cw2Bucket, Cw4, Eh3, SignFamily, Tabulation};

fn stream() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), 1..400)
}

/// Signed multiplicities, including negatives (turnstile deletions) and
/// zeros, paired with arbitrary keys.
fn counted_stream() -> impl Strategy<Value = Vec<(u64, i64)>> {
    prop::collection::vec((any::<u64>(), -50i64..50), 1..400)
}

/// Feed `keys` through the scalar path into one sketch and through
/// `update_batch` (split into two arbitrary chunks) into another; the
/// counters must agree exactly.
fn check_unit_batch<S: Sketch>(scalar: &mut S, batched: &mut S, keys: &[u64], split: usize) {
    for &k in keys {
        scalar.update(k, 1);
    }
    let split = split.min(keys.len());
    batched.update_batch(&keys[..split]);
    batched.update_batch(&keys[split..]);
}

fn check_counted_batch<S: Sketch>(
    scalar: &mut S,
    batched: &mut S,
    items: &[(u64, i64)],
    split: usize,
) {
    for &(k, c) in items {
        scalar.update(k, c);
    }
    let split = split.min(items.len());
    batched.update_batch_counts(&items[..split]);
    batched.update_batch_counts(&items[split..]);
}

/// Keys over a small domain mixed with arbitrary ones, so a top-k stream
/// re-offers candidates, admits newcomers and evicts; up to 2000 keys
/// crosses several hash chunks.
fn topk_stream() -> impl Strategy<Value = Vec<u64>> {
    let key = any::<u64>().prop_map(|x| if x % 4 == 0 { x } else { x % 200 });
    prop::collection::vec(key, 0..2000)
}

/// Feed `keys` through `batched` in the chunks `cuts` marks off.
fn offer_in_chunks<H: HeavyHitters>(batched: &mut H, keys: &[u64], cuts: &[usize]) {
    let mut rest = keys;
    for &cut in cuts {
        let (head, tail) = rest.split_at(cut.min(rest.len()));
        batched.offer_batch(head);
        rest = tail;
    }
    batched.offer_batch(rest);
}

/// Serialized snapshot of a top-k summary (`serde_json` at the concrete
/// family types).
type Snapshot<S, B> = fn(&CountSketchTopK<S, B>) -> String;

/// Serialized bytes and the `raw_top_k` answer, to the bit, must agree.
fn assert_same_topk<S: SignFamily, B: BucketFamily>(
    snapshot: Snapshot<S, B>,
    scalar: &CountSketchTopK<S, B>,
    batched: &CountSketchTopK<S, B>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(snapshot(scalar), snapshot(batched));
    let (want, got) = (scalar.raw_top_k(64), batched.raw_top_k(64));
    prop_assert_eq!(want.len(), got.len());
    for ((wk, wv), (gk, gv)) in want.iter().zip(&got) {
        prop_assert_eq!(wk, gk);
        prop_assert_eq!(wv.to_bits(), gv.to_bits());
    }
    Ok(())
}

/// `offer_batch` over arbitrary chunkings against per-key `offer(k, 1)`,
/// then both merged with a second summary and fed `tail`: state must stay
/// byte-identical through the merge and after it.
fn check_topk_batch<S: SignFamily, B: BucketFamily>(
    schema: &FagmsSchema<S, B>,
    snapshot: Snapshot<S, B>,
    capacity: usize,
    keys: &[u64],
    cuts: &[usize],
    tail: &[u64],
) -> Result<(), TestCaseError> {
    let mut scalar = CountSketchTopK::new(schema, capacity).unwrap();
    let mut batched = CountSketchTopK::new(schema, capacity).unwrap();
    for &k in keys {
        scalar.offer(k, 1);
    }
    offer_in_chunks(&mut batched, keys, cuts);
    assert_same_topk(snapshot, &scalar, &batched)?;

    let mut other = CountSketchTopK::new(schema, capacity).unwrap();
    other.offer_batch(tail);
    scalar.merge(&other).unwrap();
    batched.merge(&other).unwrap();
    for &k in tail {
        scalar.offer(k, 1);
    }
    batched.offer_batch(tail);
    assert_same_topk(snapshot, &scalar, &batched)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Count-Sketch top-k: `offer_batch` (chunks hashed once on the `xi`
    /// kernels, then admitted in order) is byte-identical to per-key
    /// `offer`, for the polynomial rows (`signed_slots`) and the generic
    /// fallback (EH3 sign), at capacities small enough to evict.
    #[test]
    fn topk_offer_batch_matches_scalar(
        keys in topk_stream(),
        tail in prop::collection::vec(0u64..300, 0..600),
        cuts in prop::collection::vec(0usize..700, 0..4),
        capacity in 1usize..=64,
        depth in 1usize..=7,
        width in 1usize..300,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = FagmsSchema::<Cw4, Cw2Bucket>::new(depth, width, &mut rng);
        let snapshot: Snapshot<Cw4, Cw2Bucket> = |t| serde_json::to_string(t).unwrap();
        check_topk_batch(&schema, snapshot, capacity, &keys, &cuts, &tail)?;
        let schema = FagmsSchema::<Eh3, Cw2Bucket>::new(depth, width, &mut rng);
        let snapshot: Snapshot<Eh3, Cw2Bucket> = |t| serde_json::to_string(t).unwrap();
        check_topk_batch(&schema, snapshot, capacity, &keys, &cuts, &tail)?;
    }

    /// KLL: run-appending `insert_batch` compresses exactly where the
    /// per-key loop does, so levels and coin state match byte for byte,
    /// also after a merge.
    #[test]
    fn kll_insert_batch_matches_scalar(
        values in prop::collection::vec(any::<u64>(), 0..3000),
        tail in prop::collection::vec(0u64..1000, 0..1500),
        cuts in prop::collection::vec(0usize..1000, 0..4),
        big_k: bool,
        seed: u64,
    ) {
        let k = if big_k { 200 } else { 8 };
        let mut scalar = KllSketch::with_seed(k, seed).unwrap();
        let mut batched = KllSketch::with_seed(k, seed).unwrap();
        for &v in &values {
            scalar.insert(v);
        }
        let mut rest = &values[..];
        for &cut in &cuts {
            let (head, tail) = rest.split_at(cut.min(rest.len()));
            batched.insert_batch(head);
            rest = tail;
        }
        batched.insert_batch(rest);
        prop_assert_eq!(
            serde_json::to_string(&scalar).unwrap(),
            serde_json::to_string(&batched).unwrap()
        );

        let mut other = KllSketch::with_seed(k, seed ^ 1).unwrap();
        other.insert_batch(&tail);
        scalar.merge(&other).unwrap();
        batched.merge(&other).unwrap();
        for &v in &tail {
            scalar.insert(v);
        }
        batched.insert_batch(&tail);
        prop_assert_eq!(
            serde_json::to_string(&scalar).unwrap(),
            serde_json::to_string(&batched).unwrap()
        );
    }

    /// `MultiSummary::update_batch` fans one batch into all four
    /// summaries; its snapshot is byte-identical to per-key `update(k, 1)`.
    #[test]
    fn multi_summary_update_batch_matches_scalar(
        keys in topk_stream(),
        split in 0usize..2000,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let join = JoinSchema::fagms(2, 64, &mut rng);
        let topk = FagmsSchema::new(5, 128, &mut rng);
        let spec = MultiSpec::new(join, &mut rng).top_k(topk, 16).quantile_k(8);
        let mut scalar = spec.summary().unwrap();
        let mut batched = spec.summary().unwrap();
        for &k in &keys {
            scalar.update(k, 1);
        }
        let split = split.min(keys.len());
        batched.update_batch(&keys[..split]);
        batched.update_batch(&keys[split..]);
        prop_assert_eq!(
            serde_json::to_string(&scalar).unwrap(),
            serde_json::to_string(&batched).unwrap()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// AGMS: the family-major `sign_sum` kernel is bit-identical to the
    /// per-key loop for both a polynomial (CW4) and a non-polynomial
    /// (EH3) sign family.
    #[test]
    fn agms_update_batch_matches_scalar(keys in stream(), split in 0usize..400, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);

        let schema = AgmsSchema::<Cw4>::new(16, &mut rng);
        let (mut scalar, mut batched) = (schema.sketch(), schema.sketch());
        check_unit_batch(&mut scalar, &mut batched, &keys, split);
        prop_assert_eq!(scalar.raw_counters(), batched.raw_counters());

        let schema = AgmsSchema::<Eh3>::new(16, &mut rng);
        let (mut scalar, mut batched) = (schema.sketch(), schema.sketch());
        check_unit_batch(&mut scalar, &mut batched, &keys, split);
        prop_assert_eq!(scalar.raw_counters(), batched.raw_counters());
    }

    /// AGMS with signed counts: `sign_dot` handles negative and zero
    /// multiplicities exactly.
    #[test]
    fn agms_update_batch_counts_matches_scalar(items in counted_stream(), split in 0usize..400, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = AgmsSchema::<Cw2>::new(16, &mut rng);
        let (mut scalar, mut batched) = (schema.sketch(), schema.sketch());
        check_counted_batch(&mut scalar, &mut batched, &items, split);
        prop_assert_eq!(scalar.raw_counters(), batched.raw_counters());
    }

    /// F-AGMS: the fused `signed_scatter` row kernel (CW sign + CW bucket)
    /// and the buffered fallback (non-polynomial sign) are both
    /// bit-identical to the scalar path.
    #[test]
    fn fagms_update_batch_matches_scalar(keys in stream(), split in 0usize..400, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);

        // Polynomial sign × polynomial bucket → fused scatter kernel.
        let schema = FagmsSchema::<Cw4, Cw2Bucket>::new(3, 64, &mut rng);
        let (mut scalar, mut batched) = (schema.sketch(), schema.sketch());
        check_unit_batch(&mut scalar, &mut batched, &keys, split);
        for r in 0..schema.depth() {
            prop_assert_eq!(scalar.row(r), batched.row(r));
        }

        // Pairwise polynomial sign: a different coefficient degree.
        let schema = FagmsSchema::<Cw2, Cw2Bucket>::new(3, 64, &mut rng);
        let (mut scalar, mut batched) = (schema.sketch(), schema.sketch());
        check_unit_batch(&mut scalar, &mut batched, &keys, split);
        for r in 0..schema.depth() {
            prop_assert_eq!(scalar.row(r), batched.row(r));
        }

        // Non-polynomial sign family → generic buffered fallback.
        let schema = FagmsSchema::<Eh3, Cw2Bucket>::new(3, 64, &mut rng);
        let (mut scalar, mut batched) = (schema.sketch(), schema.sketch());
        check_unit_batch(&mut scalar, &mut batched, &keys, split);
        for r in 0..schema.depth() {
            prop_assert_eq!(scalar.row(r), batched.row(r));
        }
    }

    /// F-AGMS with signed counts through the fused counts kernel.
    #[test]
    fn fagms_update_batch_counts_matches_scalar(items in counted_stream(), split in 0usize..400, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = FagmsSchema::<Cw4, Cw2Bucket>::new(4, 32, &mut rng);
        let (mut scalar, mut batched) = (schema.sketch(), schema.sketch());
        check_counted_batch(&mut scalar, &mut batched, &items, split);
        for r in 0..schema.depth() {
            prop_assert_eq!(scalar.row(r), batched.row(r));
        }
    }

    /// Count-Min: the `bucket_scatter` kernel (CW bucket) and the
    /// buffered fallback (tabulation bucket) match the scalar path,
    /// including negative counts.
    #[test]
    fn countmin_update_batch_matches_scalar(
        keys in stream(),
        items in counted_stream(),
        split in 0usize..400,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);

        let schema = CountMinSchema::<Cw2Bucket>::new(3, 64, &mut rng);
        let (mut scalar, mut batched) = (schema.sketch(), schema.sketch());
        check_unit_batch(&mut scalar, &mut batched, &keys, split);
        for r in 0..schema.depth() {
            prop_assert_eq!(scalar.row(r), batched.row(r));
        }

        let schema = CountMinSchema::<Cw2Bucket>::new(3, 64, &mut rng);
        let (mut scalar, mut batched) = (schema.sketch(), schema.sketch());
        check_counted_batch(&mut scalar, &mut batched, &items, split);
        for r in 0..schema.depth() {
            prop_assert_eq!(scalar.row(r), batched.row(r));
        }

        // Non-polynomial bucket family → generic buffered fallback.
        let schema = CountMinSchema::<Tabulation>::new(3, 64, &mut rng);
        let (mut scalar, mut batched) = (schema.sketch(), schema.sketch());
        check_unit_batch(&mut scalar, &mut batched, &keys, split);
        for r in 0..schema.depth() {
            prop_assert_eq!(scalar.row(r), batched.row(r));
        }
    }

    /// Skip-sampled batching: `feed_batch` over arbitrary chunkings of the
    /// stream keeps the same sample, the same counters and therefore the
    /// same estimator value as per-tuple `observe` with an identically
    /// seeded sketcher.
    #[test]
    fn feed_batch_matches_observe(keys in stream(), chunk in 1usize..97, p in 0.01f64..1.0, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = JoinSchema::fagms(2, 32, &mut rng);

        let mut rng_a = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut rng_b = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut scalar = Sampled::new(schema.sketch(), p, &mut rng_a).unwrap();
        let mut batched = Sampled::new(schema.sketch(), p, &mut rng_b).unwrap();

        let mut kept = 0u64;
        for &k in &keys {
            kept += scalar.observe(k) as u64;
        }
        let mut kept_batched = 0u64;
        for chunk in keys.chunks(chunk) {
            kept_batched += batched.feed_batch(chunk);
        }

        prop_assert_eq!(kept, kept_batched);
        prop_assert_eq!(scalar.seen(), batched.seen());
        prop_assert_eq!(scalar.kept(), batched.kept());
        prop_assert_eq!(scalar.self_join_estimate(), batched.self_join_estimate());
    }
}
