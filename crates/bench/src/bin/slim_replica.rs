//! Acceptance measurement for the two-stage slim-query read path:
//! repeated `self_join_estimate()` under sustained ingest, slim read
//! replicas versus the fat snapshot-clone baseline.
//!
//! Three series, recorded in BENCH_slim_replica.json:
//!
//! * **queries_under_ingest** — an ingest thread pushes batches through a
//!   [`sss_stream::ShardedRuntime`] non-stop while N query threads hammer
//!   `self_join_estimate()`. The *fat* baseline answers through
//!   `QueryHandle::merged()` (per-query dirty-shard clone + merge, the
//!   pre-replica path); the *slim* series answers from
//!   [`sss_stream::ReadReplica`]s with a staleness budget, where at most
//!   one reader per version pays the fat merge + slim projection and
//!   everyone else shares that projection by `Arc`.
//! * **bytes_per_replica** — `encode()`d size of the fat sketch versus
//!   its slim projection at several sketch geometries: what a replica
//!   in another process would be sent.
//! * **accuracy_monte_carlo** — independently seeded sketches of the
//!   same stream: the slim projection's answer is asserted bit-identical
//!   to the fat sketch's at projection time, and both are scored against
//!   the exact self-join, so "equal measured accuracy" is a checked
//!   property, not an assumption.
//!
//! ```text
//! cargo run --release -p sss-bench --bin slim_replica \
//!     [--tuples=2000000] [--batch=4096] [--shards=4] [--threads=4] \
//!     [--depth=3] [--width=1024] [--domain=10000] [--duration-ms=2000] \
//!     [--max-pending=64] [--mc-runs=20] [--seed=12]
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sss_bench::{arg, banner};
use sss_core::sketch::{JoinSchema, JoinSketch};
use sss_core::{JoinQuery, Portable, SlimQuery};
use sss_stream::{Partition, QueryHandle, RuntimeConfig, ShardedRuntime};

fn stream(tuples: usize, domain: u64) -> Vec<u64> {
    (0..tuples as u64)
        .map(|i| (i * 2654435761) % domain)
        .collect()
}

fn exact_self_join(keys: &[u64]) -> f64 {
    let mut freq: HashMap<u64, u64> = HashMap::new();
    for &k in keys {
        *freq.entry(k).or_insert(0) += 1;
    }
    freq.values().map(|&f| (f as f64) * (f as f64)).sum()
}

enum ReadPath {
    /// Per-query fat snapshot: `merged()` clone + merge of dirty shards.
    Fat,
    /// Slim replica with the given accepted-batch staleness budget.
    Slim { max_pending: u64 },
}

/// One query thread's loop: answer as many `self_join_estimate()`s as
/// possible until the deadline, return the count.
fn query_loop(handle: QueryHandle<JoinSketch>, path: &ReadPath, deadline: Instant) -> u64 {
    let mut queries = 0u64;
    match path {
        ReadPath::Fat => {
            while Instant::now() < deadline {
                let est = handle.self_join_estimate().expect("fat query");
                std::hint::black_box(est.value);
                queries += 1;
            }
        }
        ReadPath::Slim { max_pending } => {
            let mut replica = handle.read_replica(*max_pending).expect("open replica");
            while Instant::now() < deadline {
                let est = replica.self_join_estimate().expect("slim query");
                std::hint::black_box(est.value);
                queries += 1;
            }
        }
    }
    queries
}

/// Run one read path for `duration` under sustained ingest; returns
/// (total queries, queries/s, ingest tuples/s sustained meanwhile).
fn queries_under_ingest(
    path: &ReadPath,
    shards: usize,
    threads: usize,
    keys: &[u64],
    batch: usize,
    duration: Duration,
    seed: u64,
) -> (u64, f64, f64) {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    let schema = JoinSchema::fagms(arg("depth", 3), arg("width", 1_024), &mut rng);
    let config = RuntimeConfig {
        shards,
        queue_depth: 8,
        partition: Partition::RoundRobin,
    };
    let mut rt = ShardedRuntime::new(config, &schema.sketch()).expect("valid config");
    // Warm start: one full pass so queries measure steady state, not an
    // empty sketch.
    for chunk in keys.chunks(batch) {
        rt.push(chunk).expect("no shard died");
    }
    let handle = rt.query_handle();
    let stop = Arc::new(AtomicBool::new(false));
    let ingest = {
        let stop = Arc::clone(&stop);
        let keys = keys.to_vec();
        std::thread::spawn(move || {
            let started = Instant::now();
            let mut pushed = 0u64;
            'outer: loop {
                for chunk in keys.chunks(batch) {
                    if stop.load(Ordering::Relaxed) {
                        break 'outer;
                    }
                    rt.push(chunk).expect("no shard died");
                    pushed += chunk.len() as u64;
                }
            }
            let tps = pushed as f64 / started.elapsed().as_secs_f64();
            drop(rt);
            tps
        })
    };
    let deadline = Instant::now() + duration;
    let workers: Vec<_> = (0..threads)
        .map(|_| {
            let h = handle.clone();
            let p = match path {
                ReadPath::Fat => ReadPath::Fat,
                ReadPath::Slim { max_pending } => ReadPath::Slim {
                    max_pending: *max_pending,
                },
            };
            std::thread::spawn(move || query_loop(h, &p, deadline))
        })
        .collect();
    let total: u64 = workers
        .into_iter()
        .map(|w| w.join().expect("query thread"))
        .sum();
    stop.store(true, Ordering::Relaxed);
    let ingest_tps = ingest.join().expect("ingest thread");
    (total, total as f64 / duration.as_secs_f64(), ingest_tps)
}

fn main() {
    let tuples: usize = arg("tuples", 2_000_000);
    let batch: usize = arg("batch", 4_096);
    let shards: usize = arg("shards", 4);
    let threads: usize = arg("threads", 4);
    let depth: usize = arg("depth", 3);
    let width: usize = arg("width", 1_024);
    let domain: u64 = arg("domain", 10_000);
    let duration_ms: u64 = arg("duration-ms", 2_000);
    let max_pending: u64 = arg("max-pending", 64);
    let mc_runs: u64 = arg("mc-runs", 20);
    let seed: u64 = arg("seed", 12);
    banner(
        "slim_replica",
        "slim read replicas vs fat snapshot clones under sustained ingest",
        &[
            ("tuples", tuples.to_string()),
            ("batch", batch.to_string()),
            ("shards", shards.to_string()),
            ("threads", threads.to_string()),
            ("depth", depth.to_string()),
            ("width", width.to_string()),
            ("domain", domain.to_string()),
            ("duration-ms", duration_ms.to_string()),
            ("max-pending", max_pending.to_string()),
            ("mc-runs", mc_runs.to_string()),
            ("seed", seed.to_string()),
            (
                "host_parallelism",
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
                    .to_string(),
            ),
        ],
    );
    let keys = stream(tuples, domain);
    let duration = Duration::from_millis(duration_ms);

    // --- queries/s under ingest ---
    println!("read_path,queries,queries_per_sec,ingest_tuples_per_sec");
    let (fat_q, fat_qps, fat_tps) = queries_under_ingest(
        &ReadPath::Fat,
        shards,
        threads,
        &keys,
        batch,
        duration,
        seed,
    );
    println!("fat,{fat_q},{fat_qps:.0},{fat_tps:.0}");
    let (slim_q, slim_qps, slim_tps) = queries_under_ingest(
        &ReadPath::Slim { max_pending },
        shards,
        threads,
        &keys,
        batch,
        duration,
        seed,
    );
    println!("slim,{slim_q},{slim_qps:.0},{slim_tps:.0}");
    println!("slim_vs_fat_queries_speedup,{:.2}", slim_qps / fat_qps);

    // --- bytes per replica ---
    println!("geometry,fat_bytes,slim_bytes,slim_fraction");
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    for (d, w) in [(3usize, 1_024usize), (5, 2_048), (7, 4_096)] {
        let schema = JoinSchema::fagms(d, w, &mut rng);
        let mut fat = schema.sketch();
        fat.update_batch(&keys[..keys.len().min(200_000)]);
        let fat_bytes = fat.encode().expect("encode fat").len();
        let slim_bytes = fat.slim().encode().expect("encode slim").len();
        println!(
            "fagms_{d}x{w},{fat_bytes},{slim_bytes},{:.4}",
            slim_bytes as f64 / fat_bytes as f64
        );
    }

    // --- Monte-Carlo accuracy: slim == fat at projection time, both
    //     scored against the exact answer ---
    let mc_keys = &keys[..keys.len().min(200_000)];
    let truth = exact_self_join(mc_keys);
    let mut fat_errs = Vec::new();
    for r in 0..mc_runs {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1_000 + r);
        let schema = JoinSchema::fagms(depth, width, &mut rng);
        let mut fat = schema.sketch();
        fat.update_batch(mc_keys);
        let fat_est = fat.self_join_estimate();
        let slim_est = fat.slim().self_join_estimate();
        assert_eq!(
            slim_est.value.to_bits(),
            fat_est.value.to_bits(),
            "slim projection must be bit-identical at projection time"
        );
        assert_eq!(slim_est.variance.to_bits(), fat_est.variance.to_bits());
        fat_errs.push((fat_est.value - truth).abs() / truth);
    }
    let mean = fat_errs.iter().sum::<f64>() / fat_errs.len() as f64;
    let max = fat_errs.iter().cloned().fold(0.0f64, f64::max);
    println!("accuracy_mc,runs={mc_runs},slim_bit_identical_to_fat=true");
    println!("accuracy_mc,mean_rel_error={mean:.5},max_rel_error={max:.5}");
}
