//! Wire round-trip properties of the `Portable` surface: for every
//! summary, shipping a snapshot through `encode` → `decode` →
//! `merge_encoded` is **bit-identical** to merging the live values in
//! memory — the property the multi-process aggregation path
//! (`sss save` | `sss merge-snapshots`) and the slim replica exchange
//! rest on. Plus the typed failure modes: mismatched configuration
//! fingerprints refuse to merge, foreign kinds refuse to decode.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sketch_sampled_streams::core::sketch::{JoinSchema, JoinSketch};
use sketch_sampled_streams::core::{
    wire, DistinctQuery, Error, JoinQuery, MultiSpec, MultiSummary, Portable, QuantileQuery,
    Summary, TopKQuery,
};
use sketch_sampled_streams::sketch::{
    CountSketchTopK, FagmsSchema, HyperLogLog, KllSketch, MisraGries,
};

fn stream() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0..5_000u64, 0..300)
}

/// The round-trip harness: build two summaries from `seed_a`/`seed_b`
/// streams, merge once in memory and once through the wire (`a` is
/// itself round-tripped first, `b` arrives as bytes), and require the
/// two results to re-encode to the *same bytes* — state equality, which
/// implies every query answer is bit-identical.
fn assert_wire_merge_matches_memory<S, F>(make: F, a: &[u64], b: &[u64])
where
    S: Summary + Portable,
    F: Fn() -> S,
{
    let mut sa = make();
    sa.update_batch(a);
    let mut sb = make();
    sb.update_batch(b);

    let mut in_memory = sa.clone();
    in_memory.merge_from(&sb).unwrap();

    let mut through_wire = S::decode(&sa.encode().unwrap()).unwrap();
    through_wire.merge_encoded(&sb.encode().unwrap()).unwrap();

    assert_eq!(
        in_memory.encode().unwrap(),
        through_wire.encode().unwrap(),
        "wire merge diverged from in-memory merge for {}",
        S::KIND
    );
}

proptest! {
    /// The F-AGMS and AGMS join sketches: linear counters, so the merge
    /// is addition and the round-trip must preserve every counter bit.
    #[test]
    fn join_sketch_wire_merge_is_bit_identical(a in stream(), b in stream()) {
        let mut rng = StdRng::seed_from_u64(401);
        let fagms = JoinSchema::fagms(3, 128, &mut rng);
        assert_wire_merge_matches_memory(|| fagms.sketch(), &a, &b);
        let agms = JoinSchema::agms(64, &mut rng);
        assert_wire_merge_matches_memory(|| agms.sketch(), &a, &b);
    }

    /// Misra–Gries: the deterministic decrement merge must commute with
    /// the wire exactly, candidate set and counts included.
    #[test]
    fn misra_gries_wire_merge_is_bit_identical(a in stream(), b in stream()) {
        assert_wire_merge_matches_memory(|| MisraGries::new(16).unwrap(), &a, &b);
    }

    /// Count-Sketch top-k: both the sketch matrix and the candidate heap
    /// travel; merge re-ranks candidates against the merged matrix.
    #[test]
    fn count_sketch_topk_wire_merge_is_bit_identical(a in stream(), b in stream()) {
        let mut rng = StdRng::seed_from_u64(402);
        let schema: FagmsSchema = FagmsSchema::new(3, 128, &mut rng);
        assert_wire_merge_matches_memory(
            || CountSketchTopK::new(&schema, 16).unwrap(),
            &a,
            &b,
        );
    }

    /// HyperLogLog: register-wise max, bit-exact through the wire.
    #[test]
    fn hll_wire_merge_is_bit_identical(a in stream(), b in stream()) {
        assert_wire_merge_matches_memory(|| HyperLogLog::with_seed(10, 0xBEEF).unwrap(), &a, &b);
    }

    /// KLL: the compactor coin is *carried state* (a seeded SplitMix64
    /// inside the summary), so as long as decode restores it, the lossy
    /// merge compaction makes identical coin flips on both paths.
    #[test]
    fn kll_wire_merge_is_bit_identical(a in stream(), b in stream()) {
        assert_wire_merge_matches_memory(|| KllSketch::with_seed(64, 0xC0FFEE).unwrap(), &a, &b);
    }

    /// The composite `MultiSummary`: all four constituent summaries must
    /// round-trip and merge bit-identically *together*.
    #[test]
    fn multi_summary_wire_merge_is_bit_identical(a in stream(), b in stream()) {
        let mut rng = StdRng::seed_from_u64(403);
        let spec = MultiSpec::new(JoinSchema::fagms(3, 128, &mut rng), &mut rng);
        assert_wire_merge_matches_memory(|| spec.summary().unwrap(), &a, &b);
    }
}

/// Empty summaries round-trip too: an empty snapshot is a valid merge
/// identity, not a corner case — `sss merge-snapshots` may well receive
/// one from a process that saw no tuples.
#[test]
fn empty_summaries_round_trip_and_merge_as_identity() {
    let mut rng = StdRng::seed_from_u64(404);
    let schema = JoinSchema::fagms(3, 128, &mut rng);

    let empty = schema.sketch();
    let decoded = JoinSketch::decode(&empty.encode().unwrap()).unwrap();
    assert_eq!(
        decoded.self_join_estimate().value.to_bits(),
        empty.self_join_estimate().value.to_bits()
    );

    // empty ⊔ loaded == loaded, through the wire.
    let mut loaded = schema.sketch();
    loaded.update_batch(&[1, 2, 3, 3, 3]);
    let mut merged = JoinSketch::decode(&empty.encode().unwrap()).unwrap();
    merged.merge_encoded(&loaded.encode().unwrap()).unwrap();
    assert_eq!(
        merged.encode().unwrap(),
        loaded.encode().unwrap(),
        "merging into the empty identity must reproduce the loaded state"
    );
}

/// A single update survives the round-trip for every query family.
#[test]
fn single_update_round_trips_every_family() {
    let mut rng = StdRng::seed_from_u64(405);
    let spec = MultiSpec::new(JoinSchema::fagms(3, 128, &mut rng), &mut rng);
    let mut multi = spec.summary().unwrap();
    multi.update(42, 1);
    let back = MultiSummary::decode(&multi.encode().unwrap()).unwrap();
    assert_eq!(
        back.self_join_estimate().value.to_bits(),
        multi.self_join_estimate().value.to_bits()
    );
    assert_eq!(back.distinct().to_bits(), multi.distinct().to_bits());
    assert_eq!(back.frequency(42).to_bits(), multi.frequency(42).to_bits());
    assert_eq!(
        back.quantile(0.5).unwrap().to_bits(),
        multi.quantile(0.5).unwrap().to_bits()
    );
}

/// Mismatched configurations refuse to merge with the *typed* error —
/// the fingerprint check happens on the envelope head, before any body
/// decode work.
#[test]
fn mismatched_fingerprints_refuse_with_typed_errors() {
    let mut rng = StdRng::seed_from_u64(406);
    let schema_a = JoinSchema::fagms(3, 128, &mut rng);
    let schema_b = JoinSchema::fagms(3, 256, &mut rng); // different width
    let mut a = schema_a.sketch();
    a.update_batch(&[1, 2, 3]);
    let b = schema_b.sketch();

    let err = a.merge_encoded(&b.encode().unwrap()).unwrap_err();
    assert!(
        matches!(err, Error::FingerprintMismatch { expected, found }
            if expected != found),
        "want FingerprintMismatch, got {err:?}"
    );

    // A foreign *kind* fails even earlier, at decode.
    let hll = HyperLogLog::with_seed(10, 1).unwrap();
    let err = JoinSketch::decode(&hll.encode().unwrap()).unwrap_err();
    assert!(
        matches!(err, Error::WireMismatch { .. }),
        "want WireMismatch, got {err:?}"
    );

    // And the head really is peekable without a body decode.
    let head = wire::peek(&a.encode().unwrap()).unwrap();
    assert_eq!(head.kind, JoinSketch::KIND);
    assert_eq!(head.format, JoinSketch::FORMAT);
    assert_eq!(head.fingerprint, Portable::fingerprint(&a));
}
