//! The sharded streaming engine end to end: builder API, live queries,
//! and the bounded-queue → shedding handoff under overload.
//!
//! Act 1 runs a comfortable stream through a 4-shard engine and queries
//! the merged estimate *while ingest continues* — the merge is exact by
//! sketch linearity, so the live estimate is the same one a sequential
//! sketch would give. Act 2 rebuilds the engine with a depth-1 queue and
//! floods it: overflow batches are not dropped but Bernoulli-shedded at
//! a controller-chosen rate, and the combined estimate (shard sketches +
//! shedded overflow + cross term) stays unbiased.
//!
//! ```text
//! cargo run --release --example sharded_runtime
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketch_sampled_streams::core::sketch::JoinSchema;
use sketch_sampled_streams::core::RateGrid;
use sketch_sampled_streams::datagen::ZipfGenerator;
use sketch_sampled_streams::exact::ExactAggregator;
use sketch_sampled_streams::stream::{ControllerConfig, EngineBuilder};

fn keep_small(k: u64) -> bool {
    k < 8_000
}

fn main() {
    let mut rng = StdRng::seed_from_u64(21);
    let schema = JoinSchema::fagms(1, 5_000, &mut rng);
    let gen = ZipfGenerator::new(10_000, 0.7);

    // --- Act 1: plenty of headroom, live queries. -----------------------
    let mut engine = EngineBuilder::new()
        .filter("small", keep_small)
        .shards(4)
        .queue_depth(64)
        .schema(&schema)
        .build()
        .expect("schema is set, config is sane");
    let mut exact = ExactAggregator::new();
    println!("-- 4 shards, queue depth 64 (lossless backpressure) --");
    for round in 1..=5 {
        for _ in 0..10 {
            let batch = gen.relation(20_000, &mut rng);
            engine.push_batch(&batch, 1.0).expect("no shard died");
            for &k in batch.iter().filter(|&&k| keep_small(k)) {
                exact.update(k, 1);
            }
        }
        // Live query: snapshots queue behind accepted batches, so this
        // covers every tuple pushed so far without stopping ingest.
        let est = engine.self_join_estimate().expect("no shard died").value;
        let truth = exact.self_join();
        println!(
            "round {round}: live F2 = {est:.3e}  exact = {truth:.3e}  \
             rel_err = {:+.2}%",
            100.0 * (est - truth) / truth
        );
    }

    // --- Act 2: depth-1 queue, flooded; overflow goes to the shedder. ---
    let mut engine = EngineBuilder::new()
        .filter("small", keep_small)
        .shards(1)
        .queue_depth(1)
        .schema(&schema)
        .shedding(ControllerConfig {
            capacity_tps: 5e4,
            smoothing: 0.5,
            hysteresis: 0.1,
            min_p: 0.05,
            grid: RateGrid::default(),
        })
        .build()
        .expect("schema is set, config is sane");
    let mut exact = ExactAggregator::new();
    println!("-- 1 shard, queue depth 1, flooded (overflow is shedded) --");
    for _ in 0..60 {
        let batch = gen.relation(20_000, &mut rng);
        // Claim each batch arrived in 10 ms — a flood.
        engine.push_batch(&batch, 1e-2).expect("no shard died");
        for &k in batch.iter().filter(|&&k| keep_small(k)) {
            exact.update(k, 1);
        }
    }
    let shedder = engine.shedder().expect("shedding leg is enabled");
    println!(
        "overflow: {} tuples seen by the shedder, {} kept (p now {:.3})",
        shedder.seen(),
        shedder.kept(),
        engine.controller().expect("controller").probability()
    );
    println!(
        "queue high-water: {} batch(es) — never exceeds depth + 1",
        engine.queue_high_water()
    );
    let est = engine.self_join_estimate().expect("no shard died").value;
    let truth = exact.self_join();
    println!(
        "combined F2 = {est:.3e}  exact = {truth:.3e}  rel_err = {:+.2}%",
        100.0 * (est - truth) / truth
    );
}
