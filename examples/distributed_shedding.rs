//! Distributed load shedding: one schema, many workers, one estimate.
//!
//! Demonstrates the two composition properties production deployments rely
//! on:
//!
//! 1. **Serde persistence** — the coordinator serializes the sketch schema
//!    once; workers (separate processes in real life, simulated here)
//!    deserialize it, shed-and-sketch their partition, and return their
//!    serialized sketches.
//! 2. **Linearity + Bernoulli composition** — merged worker sketches are
//!    exactly the sketch of a p-sample of the union stream, so the usual
//!    Proposition 14 scaling applies once at the coordinator.
//!
//! Also shows the in-process shortcut (`sss_stream::parallel_shed`) that
//! does the same thing on the sharded runtime's local worker threads.
//!
//! ```text
//! cargo run --release --example distributed_shedding
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketch_sampled_streams::core::sketch::{JoinSchema, JoinSketch};
use sketch_sampled_streams::core::Sampled;
use sketch_sampled_streams::datagen::ZipfGenerator;
use sketch_sampled_streams::exact::ExactAggregator;
use sketch_sampled_streams::stream::parallel_shed;
use std::time::Instant;

fn main() {
    let mut rng = StdRng::seed_from_u64(77);
    let p = 0.1;
    let workers = 4;
    let per_worker = 500_000;

    // The logical stream, partitioned across workers.
    let gen = ZipfGenerator::new(50_000, 0.9);
    let partitions: Vec<Vec<u64>> = (0..workers)
        .map(|_| gen.relation(per_worker, &mut rng))
        .collect();
    let mut exact = ExactAggregator::new();
    for part in &partitions {
        for &k in part {
            exact.update(k, 1);
        }
    }
    let truth = exact.self_join();
    println!(
        "stream: {} tuples across {workers} workers; true F₂ = {truth:.4e}\n",
        workers * per_worker
    );

    // --- The wire protocol: coordinator → workers → coordinator ---------
    let schema = JoinSchema::fagms(1, 5000, &mut rng);
    let schema_wire = serde_json::to_string(&schema).expect("schema serializes");
    println!("schema payload: {} bytes of JSON", schema_wire.len());

    let mut returned: Vec<(String, u64)> = Vec::new();
    for (w, part) in partitions.iter().enumerate() {
        // Each "worker" restores the schema and sheds its partition.
        let worker_schema: JoinSchema =
            serde_json::from_str(&schema_wire).expect("schema deserializes");
        let mut shed =
            Sampled::new(worker_schema.sketch(), p, &mut rng).expect("valid probability");
        for &k in part {
            shed.observe(k);
        }
        let payload = serde_json::to_string(shed.summary()).expect("sketch serializes");
        println!(
            "worker {w}: kept {} tuples, sketch payload {} bytes",
            shed.kept(),
            payload.len()
        );
        returned.push((payload, shed.kept()));
    }

    // Coordinator: merge, then scale once for the union.
    let mut merged: JoinSketch = serde_json::from_str(&returned[0].0).expect("sketch deserializes");
    let mut kept_total = returned[0].1;
    for (payload, kept) in &returned[1..] {
        let part: JoinSketch = serde_json::from_str(payload).expect("sketch deserializes");
        merged.merge(&part).expect("same schema");
        kept_total += kept;
    }
    let est =
        merged.raw_self_join_estimate().value / (p * p) - (1.0 - p) / (p * p) * kept_total as f64;
    println!(
        "\ncoordinator estimate: {est:.4e}  (rel. error {:.2}%)",
        100.0 * (est - truth).abs() / truth
    );

    // --- The in-process shortcut ----------------------------------------
    let flat: Vec<u64> = partitions.concat();
    let start = Instant::now();
    let r = parallel_shed(&schema, &flat, p, workers, &mut rng).expect("valid probability");
    let mtps = flat.len() as f64 / start.elapsed().as_secs_f64() / 1e6;
    println!(
        "parallel_shed (threads): {:.4e}  (rel. error {:.2}%, {mtps:.1} Mt/s)",
        r.self_join_estimate().value,
        100.0 * (r.self_join_estimate().value - truth).abs() / truth,
    );
}
