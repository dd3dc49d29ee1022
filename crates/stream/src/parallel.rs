//! Parallel sketching over partitioned streams.
//!
//! Sketch linearity means a stream can be partitioned arbitrarily, each
//! partition sketched on its own core, and the partial sketches merged —
//! the result is *bit-identical* to sequential sketching (the paper's §VI-C
//! remark that "on the modern multi-core processors, sketching can be done
//! essentially for free"). Bernoulli shedding composes the same way: each
//! tuple of the union is still kept independently with probability `p`.
//!
//! One-shot helpers over the persistent [`ShardedRuntime`]:
//! `parallel_sketch`, `parallel_sketch_with` and `parallel_shed`.

use crate::error::Result as StreamResult;
use crate::runtime::{Partition, RuntimeConfig, ShardedRuntime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sss_core::sketch::{JoinSchema, JoinSketch};
use sss_core::{JoinQuery, Result, Sampled, Summary};

/// Sketch `stream` with `threads` workers and merge the partial sketches.
///
/// The partitioning is by contiguous chunks; any partitioning yields the
/// same result by linearity. One-shot front end to the persistent
/// [`ShardedRuntime`] — spawn, scatter, merge, join.
///
/// ```
/// use rand::SeedableRng;
/// use sss_core::sketch::JoinSchema;
/// use sss_stream::parallel_sketch;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let schema = JoinSchema::fagms(1, 512, &mut rng);
/// let stream: Vec<u64> = (0..10_000).map(|i| i % 100).collect();
/// let merged = parallel_sketch(&schema, &stream, 4).unwrap();
/// // Bit-identical to the sequential sketch of the same stream.
/// let mut seq = schema.sketch();
/// for &k in &stream { seq.update(k, 1); }
/// assert_eq!(merged.raw_self_join_estimate(), seq.raw_self_join_estimate());
/// ```
pub fn parallel_sketch(
    schema: &JoinSchema,
    stream: &[u64],
    threads: usize,
) -> StreamResult<JoinSketch> {
    parallel_sketch_with(&schema.sketch(), stream, threads)
}

/// [`parallel_sketch`] for any [`JoinQuery`]: sketch `stream` across
/// `threads` shard workers cloned from `prototype` and merge the shards.
pub fn parallel_sketch_with<E: Summary + JoinQuery>(
    prototype: &E,
    stream: &[u64],
    threads: usize,
) -> StreamResult<E> {
    // An empty stream has nothing to partition: return the zero estimator
    // without spawning workers.
    if stream.is_empty() {
        return Ok(prototype.clone());
    }
    // Never more workers than tuples — a short stream yields fewer, busier
    // partitions rather than empty spawns.
    let threads = threads.clamp(1, stream.len());
    let chunk = stream.len().div_ceil(threads);
    let config = RuntimeConfig {
        shards: threads,
        // One chunk per shard: depth 1 suffices and bounds the copies.
        queue_depth: 1,
        partition: Partition::RoundRobin,
    };
    let mut rt = ShardedRuntime::new(config, prototype)?;
    for part in stream.chunks(chunk) {
        rt.push(part)?;
    }
    rt.into_merged()
}

/// Shed-and-sketch `stream` in parallel with `threads` shard workers, each
/// a [`Sampled`] join sketch with an independently seeded sampler, and merge
/// them into one `Sampled<JoinSketch>` over the whole stream.
///
/// The worker seeds are drawn from `seed_rng` up front, one per worker, so
/// the result is reproducible and bit-identical to shedding each
/// contiguous chunk sequentially with the same seeds and merging (the
/// merge is integer-exact).
///
/// # Errors
///
/// An estimator error if `p ∉ (0, 1]`;
/// [`StreamError::ShardDisconnected`](crate::StreamError::ShardDisconnected)
/// if a worker died.
pub fn parallel_shed<R: Rng>(
    schema: &JoinSchema,
    stream: &[u64],
    p: f64,
    threads: usize,
    seed_rng: &mut R,
) -> StreamResult<Sampled<JoinSketch>> {
    let threads = threads.clamp(1, stream.len().max(1));
    let chunk = stream.len().div_ceil(threads).max(1);
    let prototypes = (0..threads)
        .map(|_| {
            let mut rng = StdRng::seed_from_u64(seed_rng.random());
            Sampled::new(schema.sketch(), p, &mut rng)
        })
        .collect::<Result<Vec<_>>>()?;
    let config = RuntimeConfig {
        shards: threads,
        queue_depth: 1,
        partition: Partition::RoundRobin,
    };
    let mut rt = ShardedRuntime::new_per_shard(config, prototypes)?;
    for part in stream.chunks(chunk) {
        rt.push(part)?;
    }
    rt.into_merged()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn stream() -> Vec<u64> {
        (0..200_000u64).map(|i| (i * 2654435761) % 5000).collect()
    }

    /// Parallel sketching is bit-identical to sequential (linearity).
    #[test]
    fn parallel_equals_sequential() {
        let mut rng = StdRng::seed_from_u64(1);
        let schema = JoinSchema::fagms(2, 512, &mut rng);
        let s = stream();
        let mut sequential = schema.sketch();
        for &k in &s {
            sequential.update(k, 1);
        }
        for threads in [1usize, 2, 4, 7] {
            let parallel = parallel_sketch(&schema, &s, threads).unwrap();
            assert_eq!(
                parallel.raw_self_join_estimate(),
                sequential.raw_self_join_estimate(),
                "threads = {threads}"
            );
        }
    }

    /// The generic front end drives a typed estimator (not the erased
    /// enum) to the same bit-identical merge.
    #[test]
    fn parallel_sketch_with_any_estimator() {
        let mut rng = StdRng::seed_from_u64(30);
        let schema: sss_sketch::AgmsSchema = sss_sketch::AgmsSchema::new(64, &mut rng);
        let s = stream();
        let mut seq = schema.sketch();
        sss_sketch::Sketch::update_batch(&mut seq, &s);
        let par = parallel_sketch_with(&schema.sketch(), &s, 4).unwrap();
        assert_eq!(
            par.self_join_estimate().value.to_bits(),
            seq.self_join_estimate().value.to_bits()
        );
    }

    #[test]
    fn degenerate_inputs() {
        let mut rng = StdRng::seed_from_u64(2);
        let schema = JoinSchema::agms(4, &mut rng);
        let empty = parallel_sketch(&schema, &[], 8).unwrap();
        assert_eq!(empty.raw_self_join_estimate().value, 0.0);
        let single = parallel_sketch(&schema, &[42], 8).unwrap();
        assert_eq!(single.raw_self_join_estimate().value, 1.0);
    }

    /// Empty streams return the zero sketch without spawning workers, for
    /// any thread count (including the degenerate 0).
    #[test]
    fn empty_stream_yields_zero_sketch() {
        let mut rng = StdRng::seed_from_u64(20);
        let schema = JoinSchema::fagms(2, 64, &mut rng);
        for threads in [0usize, 1, 8] {
            let sk = parallel_sketch(&schema, &[], threads).unwrap();
            assert_eq!(
                sk.raw_self_join_estimate().value,
                0.0,
                "threads = {threads}"
            );
        }
        // Shedding over an empty stream: zero kept, estimate zero, and the
        // probability is still validated.
        let r = parallel_shed(&schema, &[], 0.5, 4, &mut rng).unwrap();
        assert_eq!(r.kept(), 0);
        assert_eq!(r.self_join_estimate().value, 0.0);
        assert!(parallel_shed(&schema, &[], 0.0, 4, &mut rng).is_err());
    }

    /// More workers than tuples: the worker count clamps to the stream
    /// length and the result stays bit-identical to sequential.
    #[test]
    fn more_threads_than_tuples() {
        let mut rng = StdRng::seed_from_u64(21);
        let schema = JoinSchema::fagms(2, 64, &mut rng);
        let short: Vec<u64> = (0..5u64).collect();
        let mut sequential = schema.sketch();
        for &k in &short {
            sequential.update(k, 1);
        }
        for threads in [6usize, 64] {
            let parallel = parallel_sketch(&schema, &short, threads).unwrap();
            assert_eq!(
                parallel.raw_self_join_estimate(),
                sequential.raw_self_join_estimate(),
                "threads = {threads}"
            );
        }
        let r = parallel_shed(&schema, &short, 1.0, 64, &mut rng).unwrap();
        assert_eq!(r.kept(), short.len() as u64, "p = 1 keeps everything");
    }

    /// Parallel shedding gives an unbiased estimate with ≈p·n kept tuples.
    #[test]
    fn parallel_shed_estimates_the_stream() {
        let mut rng = StdRng::seed_from_u64(3);
        let schema = JoinSchema::fagms(1, 4096, &mut rng);
        let s = stream(); // 5000 keys × 40 copies → F₂ = 8·10⁶
        let r = parallel_shed(&schema, &s, 0.2, 4, &mut rng).unwrap();
        let frac = r.kept() as f64 / s.len() as f64;
        assert!((frac - 0.2).abs() < 0.01, "kept fraction {frac}");
        let truth = 5000.0 * 40.0 * 40.0;
        let est = r.self_join_estimate().value;
        assert!(
            (est - truth).abs() / truth < 0.1,
            "est = {est}, truth = {truth}"
        );
    }

    /// `parallel_shed` is bit-identical to shedding each contiguous chunk
    /// sequentially with the same per-worker seeds and merging.
    #[test]
    fn parallel_shed_equals_sequential_per_chunk_sampling() {
        let mut rng = StdRng::seed_from_u64(6);
        let schema = JoinSchema::fagms(3, 512, &mut rng);
        let s = stream();
        for (threads, p) in [(1usize, 0.5), (3, 0.2), (4, 1.0), (7, 0.05)] {
            let mut seed_a = StdRng::seed_from_u64(40 + threads as u64);
            let mut seed_b = seed_a.clone();
            let par = parallel_shed(&schema, &s, p, threads, &mut seed_a).unwrap();
            let chunk = s.len().div_ceil(threads);
            let mut seq: Option<Sampled<JoinSketch>> = None;
            for part in s.chunks(chunk) {
                let mut worker = StdRng::seed_from_u64(seed_b.random());
                let mut shed = Sampled::new(schema.sketch(), p, &mut worker).unwrap();
                shed.feed_batch(part);
                match &mut seq {
                    None => seq = Some(shed),
                    Some(acc) => acc.merge_from(&shed).unwrap(),
                }
            }
            let seq = seq.unwrap();
            assert_eq!(par.kept(), seq.kept(), "threads = {threads}");
            assert_eq!(par.seen(), s.len() as u64);
            let (a, b) = (par.self_join_estimate(), seq.self_join_estimate());
            assert_eq!(a.value.to_bits(), b.value.to_bits());
            assert_eq!(a.variance.to_bits(), b.variance.to_bits());
        }
    }

    #[test]
    fn parallel_shed_rejects_bad_p() {
        let mut rng = StdRng::seed_from_u64(4);
        let schema = JoinSchema::agms(4, &mut rng);
        assert!(parallel_shed(&schema, &[1, 2, 3], 0.0, 2, &mut rng).is_err());
    }
}
