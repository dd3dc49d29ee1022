//! Property tests for the [`Estimate`] query path: every public join
//! query must report an `Estimate` whose **value is bit-identical** to an
//! independent expression of the estimator (the backend's lane combiner,
//! the paper's Bernoulli correction, the engine's `A·A + O·O + 2·A·O`
//! decomposition), whose intervals are centered on that value, and whose
//! Chebyshev interval is never tighter than the CLT interval at the same
//! confidence level.
//!
//! [`Estimate`]: sketch_sampled_streams::core::Estimate

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sketch_sampled_streams::core::sketch::JoinSchema;
use sketch_sampled_streams::core::{bernoulli_self_join, EpochShedder, JoinQuery, Sampled};
use sketch_sampled_streams::sketch::estimate::{mean, median};
use sketch_sampled_streams::sketch::{
    AgmsSchema, CountMinSchema, CountMinSketch, Estimate, FagmsSchema,
};
use sketch_sampled_streams::stream::{parallel_shed, EngineBuilder, RuntimeConfig, ShardedRuntime};

/// Shared coherence checks: finite-value intervals centered on the point
/// estimate, Chebyshev at least as wide as CLT.
fn assert_coherent(e: &Estimate) {
    assert!(e.value.is_finite());
    for level in [0.5, 0.9, 0.99] {
        let cheb = e.chebyshev(level).unwrap();
        let clt = e.clt(level).unwrap();
        assert!(cheb.contains(e.value));
        assert!(clt.contains(e.value));
        assert!(
            cheb.half_width() >= clt.half_width(),
            "chebyshev {} < clt {} at level {level}",
            cheb.half_width(),
            clt.half_width()
        );
    }
}

/// Count-Min's combiner: the minimum of the per-row inner products.
fn min_row_product(a: &CountMinSketch, b: &CountMinSketch) -> f64 {
    (0..a.schema().depth())
        .map(|r| {
            a.row(r)
                .iter()
                .zip(b.row(r))
                .map(|(&s, &t)| s as f64 * t as f64)
                .sum::<f64>()
        })
        .fold(f64::INFINITY, f64::min)
}

/// A small but non-degenerate key stream: `len` keys over `domain` values.
fn keys(len: usize, domain: u64) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0..domain, 1..len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sketch estimates carry their lane combiner's value bit for bit:
    /// AGMS mean, F-AGMS median, Count-Min minimum.
    #[test]
    fn sketch_estimates_are_bit_identical(
        seed in 0u64..1000,
        depth in 1usize..4,
        f in keys(400, 64),
        g in keys(400, 64),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let agms: AgmsSchema = AgmsSchema::new(16, &mut rng);
        let fagms: FagmsSchema = FagmsSchema::new(depth, 32, &mut rng);
        let cm: CountMinSchema = CountMinSchema::new(3, 32, &mut rng);

        let (mut af, mut ag) = (agms.sketch(), agms.sketch());
        let (mut ff, mut fg) = (fagms.sketch(), fagms.sketch());
        let (mut cf, mut cg) = (cm.sketch(), cm.sketch());
        for &k in &f {
            sketch_sampled_streams::sketch::Sketch::update(&mut af, k, 1);
            sketch_sampled_streams::sketch::Sketch::update(&mut ff, k, 1);
            sketch_sampled_streams::sketch::Sketch::update(&mut cf, k, 1);
        }
        for &k in &g {
            sketch_sampled_streams::sketch::Sketch::update(&mut ag, k, 1);
            sketch_sampled_streams::sketch::Sketch::update(&mut fg, k, 1);
            sketch_sampled_streams::sketch::Sketch::update(&mut cg, k, 1);
        }

        let bits = |e: Estimate| e.value.to_bits();
        prop_assert_eq!(bits(af.self_join_estimate()), mean(&af.self_join_basics()).to_bits());
        prop_assert_eq!(bits(ff.self_join_estimate()), median(&ff.self_join_rows()).to_bits());
        prop_assert_eq!(bits(cf.self_join_estimate()), min_row_product(&cf, &cf).to_bits());
        prop_assert_eq!(
            bits(af.size_of_join_estimate(&ag).unwrap()),
            mean(&af.size_of_join_basics(&ag).unwrap()).to_bits()
        );
        prop_assert_eq!(
            bits(ff.size_of_join_estimate(&fg).unwrap()),
            median(&ff.size_of_join_rows(&fg).unwrap()).to_bits()
        );
        prop_assert_eq!(
            bits(cf.size_of_join_estimate(&cg).unwrap()),
            min_row_product(&cf, &cg).to_bits()
        );
        // One F-AGMS row has no spread: the variance is the analytic
        // fallback `(F₂(f)·F₂(g) + v²)/width`, built from the rows.
        if depth == 1 {
            let e = ff.size_of_join_estimate(&fg).unwrap();
            let f2 = median(&ff.self_join_rows()) * median(&fg.self_join_rows());
            prop_assert_eq!(e.variance.to_bits(), ((f2 + e.value * e.value) / 32.0).to_bits());
        }

        // Trait methods agree with the lane combiners too.
        prop_assert_eq!(
            bits(JoinQuery::self_join_estimate(&af)),
            mean(&af.self_join_basics()).to_bits()
        );
        prop_assert_eq!(
            bits(JoinQuery::self_join_estimate(&cf)),
            min_row_product(&cf, &cf).to_bits()
        );

        assert_coherent(&af.self_join_estimate());
        assert_coherent(&ff.self_join_estimate());
        assert_coherent(&af.size_of_join_estimate(&ag).unwrap());
    }

    /// Shedding drivers: `Sampled` join sketches carry the paper's
    /// Bernoulli corrections of the raw sketch value bit for bit, and
    /// `EpochShedder` (with rate changes mid-stream) reports its cached
    /// scalar values.
    #[test]
    fn shedder_estimates_are_bit_identical(
        seed in 0u64..1000,
        stream in keys(600, 50),
        p in 0.2f64..1.0,
        fagms in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = if fagms {
            JoinSchema::fagms(2, 64, &mut rng)
        } else {
            JoinSchema::agms(24, &mut rng)
        };

        let mut shed = Sampled::new(schema.sketch(), p, &mut rng).unwrap();
        let mut other = Sampled::new(schema.sketch(), 1.0, &mut rng).unwrap();
        for &k in &stream {
            shed.observe(k);
            other.observe(k);
        }
        let raw = shed.summary().raw_self_join_estimate();
        let e = shed.self_join_estimate();
        prop_assert_eq!(e.value.to_bits(), bernoulli_self_join(raw.value, p, shed.kept()).to_bits());
        assert_coherent(&e);
        let raw = shed.summary().raw_size_of_join_estimate(other.summary()).unwrap();
        let ej = shed.size_of_join_estimate(&other).unwrap();
        prop_assert_eq!(ej.value.to_bits(), (raw.value / (p * other.probability())).to_bits());
        assert_coherent(&ej);

        // Epoch shedder with a mid-stream rate change.
        let mut epochs = EpochShedder::new(&schema, p, &mut rng).unwrap();
        let mut epochs2 = EpochShedder::new(&schema, 1.0, &mut rng).unwrap();
        let half = stream.len() / 2;
        epochs.feed_batch(&stream[..half]);
        epochs.set_probability((p * 0.7).max(0.05), &mut rng).unwrap();
        epochs.feed_batch(&stream[half..]);
        epochs2.feed_batch(&stream);
        let ee = epochs.self_join_estimate().unwrap();
        prop_assert_eq!(ee.value.to_bits(), epochs.self_join().unwrap().to_bits());
        assert_coherent(&ee);
        let ej = epochs.size_of_join_estimate(&epochs2).unwrap();
        prop_assert_eq!(ej.value.to_bits(), epochs.size_of_join(&epochs2).unwrap().to_bits());
        assert_coherent(&ej);
        let es = epochs
            .size_of_join_sketch_estimate(other.summary(), 1.0)
            .unwrap();
        prop_assert_eq!(
            es.value.to_bits(),
            epochs.size_of_join_sketch(other.summary(), 1.0).unwrap().to_bits()
        );
    }

    /// The stream layer: the sharded runtime and an engine without
    /// shedding match the sequential sketch, an engine with a shedding leg
    /// matches the `A·A + O·O + 2·A·O` sum of its parts, and
    /// `parallel_shed` matches the Bernoulli correction.
    #[test]
    fn stream_layer_estimates_are_bit_identical(
        seed in 0u64..1000,
        stream in keys(800, 80),
        shards in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = JoinSchema::fagms(2, 128, &mut rng);

        // Sharded runtime: estimate answered on the combined sketch.
        let config = RuntimeConfig { shards, ..Default::default() };
        let mut rt = ShardedRuntime::new(config, &schema.sketch()).unwrap();
        let mut rt2 = ShardedRuntime::new(config, &schema.sketch()).unwrap();
        for chunk in stream.chunks(97) {
            rt.push(chunk).unwrap();
            rt2.push(chunk).unwrap();
        }
        let mut seq = schema.sketch();
        seq.update_batch(&stream);
        let seq_f2 = seq.raw_self_join_estimate().value;
        let e = rt.self_join_estimate().unwrap();
        prop_assert_eq!(e.value.to_bits(), seq_f2.to_bits());
        assert_coherent(&e);
        let ej = rt.size_of_join_estimate(&rt2).unwrap();
        prop_assert_eq!(ej.value.to_bits(), seq_f2.to_bits());

        // Engine without shedding: the sequential sketch's value.
        let mut engine = EngineBuilder::new()
            .shards(shards)
            .schema(&schema)
            .build()
            .unwrap();
        engine.push_batch(&stream, 1.0).unwrap();
        let e = engine.self_join_estimate().unwrap();
        prop_assert_eq!(e.value.to_bits(), seq_f2.to_bits());

        // Engine with a saturated shedding leg.
        let mut overloaded = EngineBuilder::new()
            .shards(1)
            .queue_depth(1)
            .seed(seed)
            .schema(&schema)
            .shedding(Default::default())
            .build()
            .unwrap();
        for chunk in stream.chunks(61) {
            overloaded.push_batch(chunk, 1e-6).unwrap();
        }
        // A = the merged runtime sketch, O = the shedder's overflow.
        let a = overloaded.merged().unwrap();
        let o = overloaded.shedder().unwrap();
        let parts = a.raw_self_join_estimate().value
            + o.self_join().unwrap()
            + 2.0 * o.size_of_join_sketch(&a, 1.0).unwrap();
        let e = overloaded.self_join_estimate().unwrap();
        prop_assert_eq!(e.value.to_bits(), parts.to_bits());
        assert_coherent(&e);
        let parts = a.raw_size_of_join_estimate(&seq).unwrap().value
            + o.size_of_join_sketch(&seq, 1.0).unwrap();
        let ej = overloaded.size_of_join_estimate(&engine).unwrap();
        prop_assert_eq!(ej.value.to_bits(), parts.to_bits());

        // One-shot parallel shedding.
        let r = parallel_shed(&schema, &stream, 0.5, shards, &mut rng).unwrap();
        let raw = r.summary().raw_self_join_estimate().value;
        prop_assert_eq!(
            r.self_join_estimate().value.to_bits(),
            bernoulli_self_join(raw, 0.5, r.kept()).to_bits()
        );
    }
}
