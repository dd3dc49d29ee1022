//! Stress test of the bounded-queue → shedding handoff: saturate a
//! one-shard runtime with a tiny queue and verify the three promises the
//! engine makes under overload — queue occupancy stays bounded, no tuple
//! is silently lost (runtime + shedder account for every one), and the
//! combined estimate stays unbiased because the overflow leg is shedded
//! at a known probability rather than dropped.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketch_sampled_streams::core::sketch::JoinSchema;
use sketch_sampled_streams::core::RateGrid;
use sketch_sampled_streams::exact::ExactAggregator;
use sketch_sampled_streams::stream::{ControllerConfig, EngineBuilder};

const BATCHES: usize = 60;
const BATCH: usize = 10_000;
const DOMAIN: u64 = 1_000;

fn stream_key(i: u64) -> u64 {
    (i.wrapping_mul(2654435761)) % DOMAIN
}

/// One overloaded run; returns (estimate, tuples seen by the shedder).
fn overloaded_run(seed: u64) -> (f64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = JoinSchema::fagms(1, 2_048, &mut rng);
    let mut engine = EngineBuilder::new()
        .shards(1)
        .queue_depth(1)
        .seed(seed ^ 0xbacc_0ff5)
        .schema(&schema)
        .shedding(ControllerConfig {
            capacity_tps: 2e4,
            smoothing: 0.5,
            hysteresis: 0.1,
            // Keep p away from the floor where the 1/p variance blowup
            // would swamp the Monte-Carlo mean.
            min_p: 0.05,
            grid: RateGrid::default(),
        })
        .build()
        .unwrap();
    let mut batch = Vec::with_capacity(BATCH);
    for b in 0..BATCHES {
        batch.clear();
        batch.extend(((b * BATCH) as u64..((b + 1) * BATCH) as u64).map(stream_key));
        // Claim the batch arrived in 10 ms: any overflow looks like a
        // flood to the controller and forces aggressive shedding.
        engine.push_batch(&batch, 1e-2).unwrap();
    }
    // Invariant 1: the queue never held more than depth + 1 batches
    // (one in the channel, one in the worker's hands).
    assert!(
        engine.queue_high_water() <= 2,
        "queue high-water {} exceeds depth + 1",
        engine.queue_high_water()
    );
    let shed_seen = engine.shedder().expect("shedding enabled").seen();
    let est = engine.self_join_estimate().unwrap().value;
    (est, shed_seen)
}

#[test]
fn saturated_engine_bounds_memory_and_stays_unbiased() {
    let total = (BATCHES * BATCH) as u64;
    let mut exact = ExactAggregator::new();
    for i in 0..total {
        exact.update(stream_key(i), 1);
    }
    let truth = exact.self_join();

    let reps = 20;
    let mut sum = 0.0;
    let mut shed_total = 0u64;
    for rep in 0..reps {
        let (est, shed_seen) = overloaded_run(1_000 + rep);
        // Invariant 3: each single run is already in the right ballpark.
        assert!(
            (est - truth).abs() / truth < 0.5,
            "rep {rep}: est = {est}, truth = {truth}"
        );
        sum += est;
        shed_total += shed_seen;
    }
    // Invariant 2: overload actually pushed tuples through the shedding
    // leg — otherwise this test exercises nothing.
    assert!(
        shed_total > 0,
        "the saturated queue never overflowed into the shedder"
    );
    let mean = sum / reps as f64;
    assert!(
        (mean - truth).abs() / truth < 0.08,
        "mean over {reps} overloaded runs = {mean}, truth = {truth} \
         (bias beyond Monte-Carlo tolerance)"
    );
}
