//! Acceptance measurement for the one-pass multi-summary engine: one
//! `Sampled<MultiSummary>` pass through the sharded runtime vs four
//! separate single-summary passes (join / top-k / distinct / quantiles),
//! on a Bernoulli-sampled Zipf stream.
//!
//! The issue's gate: at the sampled rates (`p = 0.05`, `p = 0.1`) the
//! one-pass engine must ingest at **at least 2×** the effective
//! tuples/sec of running the four passes back to back — the whole point
//! of the composite is that the stream is consumed (and skip-sampled)
//! once instead of four times. At `p = 1` every tuple pays full sketch
//! work in both arrangements, so the ratio is reported but not gated.
//! The process exits nonzero if a gated row misses the floor.
//!
//! **Each pass consumes the stream from its source.** A data stream
//! cannot be rewound — that is the premise of the whole paper — so the
//! four-pass alternative must re-acquire every tuple from the source,
//! paying the source's per-tuple cost again. Here the source is the Zipf
//! generator itself, re-seeded identically per pass (every pass sees the
//! exact same tuple sequence); materializing the 2M-tuple stream into a
//! buffer first would smuggle in exactly the unbounded-memory assumption
//! streams forbid. The exact ground truth is computed from one buffered
//! replay outside the timed region.
//!
//! Accuracy is reported for *both* arrangements at every rate so the
//! speed-up is visibly not bought with estimation quality: F₂ and F₀
//! relative error, exact-top-k recall, and the absolute rank deviation of
//! the reported median and p99.
//!
//! ```text
//! cargo run --release -p sss-bench --bin multi_summary \
//!     [--tuples=2000000] [--domain=100000] [--skew=1.2] [--k=50] \
//!     [--shards=2] [--seed=11] [--reps=6]
//! ```
//!
//! Prints CSV
//! (`mode,p,tuples_per_sec,f2_rel_err,f0_rel_err,topk_recall,median_rank_err,p99_rank_err`).

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_bench::{arg, banner};
use sss_core::sketch::JoinSchema;
use sss_core::{MultiSpec, Sampled, Summary};
use sss_datagen::ZipfGenerator;
use sss_sketch::FagmsSchema;
use sss_stream::{RuntimeConfig, ShardedRuntime};

/// Batch size for runtime ingestion — the "~512-tuple batches" of the
/// acceptance criterion.
const BATCH: usize = 512;

/// Join sketch geometry (depth 3, the library/CLI default — enough rows
/// for a robust median; power-of-two width keeps the bucket dispatch on
/// the magic-number path).
const DEPTH: usize = 3;
const WIDTH: usize = 4096;

/// Count-Sketch top-k geometry. Depth 3 like the join sketch; the wider
/// rows (vs the heavy_hitters bin's 5×2048) buy back the admission
/// accuracy a shallower median costs, at no per-tuple price — update
/// cost scales with depth, width only with memory.
const TOPK_DEPTH: usize = 3;
const TOPK_WIDTH: usize = 4096;

/// Exact stream statistics the estimates are scored against.
struct Exact {
    f2: f64,
    f0: f64,
    top: HashSet<u64>,
    sorted: Vec<u64>,
}

impl Exact {
    fn compute(stream: &[u64], k: usize) -> Self {
        let mut counts: HashMap<u64, i64> = HashMap::new();
        for &key in stream {
            *counts.entry(key).or_insert(0) += 1;
        }
        let f2 = counts.values().map(|&c| (c as f64) * (c as f64)).sum();
        let f0 = counts.len() as f64;
        let mut all: Vec<(u64, i64)> = counts.into_iter().collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        let mut sorted = stream.to_vec();
        sorted.sort_unstable();
        Self {
            f2,
            f0,
            top: all.into_iter().map(|(key, _)| key).collect(),
            sorted,
        }
    }

    /// Normalized exact rank of `value` (fraction of tuples strictly
    /// below it).
    fn rank(&self, value: f64) -> f64 {
        let below = self.sorted.partition_point(|&x| (x as f64) < value);
        below as f64 / self.sorted.len() as f64
    }
}

/// Per-shard prototypes with decorrelated skip RNGs — cloning one
/// prototype across shards would replay identical skip sequences and
/// bias the cross-shard estimates.
fn protos<S: Summary>(proto: &Sampled<S>, shards: usize, rng: &mut StdRng) -> Vec<Sampled<S>> {
    (0..shards)
        .map(|_| {
            let mut p = proto.clone();
            p.reseed(rng).expect("reseed");
            p
        })
        .collect()
}

/// One full pass: stream `tuples` Zipf samples from a freshly re-seeded
/// source (same `stream_seed` ⇒ same tuple sequence every pass) through a
/// sharded runtime in `BATCH`-sized chunks; returns the merged summary
/// plus wall-clock seconds (source through final merge).
///
/// Callers repeat whole *protocols* (the one-pass run, or the four passes
/// back to back) and keep each protocol's minimum wall time — the standard
/// noise filter for sub-second timings (scheduler interference only ever
/// adds time), applied symmetrically to both arrangements.
fn run_pass<E: Summary>(
    prototypes: &[E],
    gen: &ZipfGenerator,
    stream_seed: u64,
    tuples: usize,
    shards: usize,
) -> (E, f64) {
    let config = RuntimeConfig {
        shards,
        ..Default::default()
    };
    let mut rt = ShardedRuntime::new_per_shard(config, prototypes.to_vec()).expect("runtime");
    let mut source = StdRng::seed_from_u64(stream_seed);
    let mut buf = Vec::with_capacity(BATCH);
    let start = Instant::now();
    let mut remaining = tuples;
    while remaining > 0 {
        let n = remaining.min(BATCH);
        buf.clear();
        buf.extend((0..n).map(|_| gen.sample(&mut source)));
        rt.push(&buf).expect("push");
        remaining -= n;
    }
    let merged = rt.into_merged().expect("merge");
    (merged, start.elapsed().as_secs_f64())
}

struct Row {
    mode: &'static str,
    p: f64,
    tuples_per_sec: f64,
    f2_rel_err: f64,
    f0_rel_err: f64,
    topk_recall: f64,
    median_rank_err: f64,
    p99_rank_err: f64,
}

#[allow(clippy::too_many_arguments)]
fn score(
    mode: &'static str,
    p: f64,
    secs: f64,
    tuples: usize,
    exact: &Exact,
    f2: f64,
    f0: f64,
    top: &[(u64, sss_core::Estimate)],
    median: f64,
    p99: f64,
) -> Row {
    let hits = top
        .iter()
        .filter(|(key, _)| exact.top.contains(key))
        .count();
    Row {
        mode,
        p,
        tuples_per_sec: tuples as f64 / secs,
        f2_rel_err: (f2 - exact.f2).abs() / exact.f2,
        f0_rel_err: (f0 - exact.f0).abs() / exact.f0,
        topk_recall: hits as f64 / exact.top.len().max(1) as f64,
        median_rank_err: (exact.rank(median) - 0.5).abs(),
        p99_rank_err: (exact.rank(p99) - 0.99).abs(),
    }
}

fn main() {
    let tuples: usize = arg("tuples", 2_000_000);
    let domain: usize = arg("domain", 100_000);
    let skew: f64 = arg("skew", 1.2);
    let k: usize = arg("k", 50);
    // Two shards by default: the per-shard summary working set (join rows
    // + top-k sketch + candidates) is a few hundred KB, and on small hosts
    // more shards just thrash whatever cache level they share. Both
    // arrangements use the same count, so the comparison is unaffected.
    let shards: usize = arg("shards", 2);
    let seed: u64 = arg("seed", 11);
    let reps: usize = arg("reps", 6);
    banner(
        "multi_summary",
        "one-pass Sampled<MultiSummary> vs four single-summary passes (acceptance: >= 2x tuples/s at p < 1)",
        &[
            ("tuples", tuples.to_string()),
            ("domain", domain.to_string()),
            ("skew", skew.to_string()),
            ("k", k.to_string()),
            ("shards", shards.to_string()),
            ("batch", BATCH.to_string()),
            ("join", format!("fagms {DEPTH}x{WIDTH}")),
            ("topk", format!("fagms {TOPK_DEPTH}x{TOPK_WIDTH}, {} candidates", 4 * k)),
            ("reps", reps.to_string()),
            ("seed", seed.to_string()),
        ],
    );

    let mut rng = StdRng::seed_from_u64(seed);
    let gen = ZipfGenerator::new(domain, skew);
    // The passes stream from `stream_seed`; ground truth replays it into
    // a buffer once, outside any timed region.
    let stream_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let stream = gen.relation(tuples, &mut StdRng::seed_from_u64(stream_seed));
    let exact = Exact::compute(&stream, k);
    drop(stream);

    println!(
        "mode,p,tuples_per_sec,f2_rel_err,f0_rel_err,topk_recall,median_rank_err,p99_rank_err"
    );
    let mut failed = false;
    for p in [0.05, 0.1, 1.0] {
        let join_schema = JoinSchema::fagms(DEPTH, WIDTH, &mut rng);
        let topk_schema: FagmsSchema = FagmsSchema::new(TOPK_DEPTH, TOPK_WIDTH, &mut rng);
        let spec = MultiSpec::new(join_schema.clone(), &mut rng).top_k(topk_schema.clone(), 4 * k);

        let one_proto = spec.sampled(p, &mut rng).expect("spec");
        let one_protos = protos(&one_proto, shards, &mut rng);
        // Four passes: each query family consumes the (re-seeded, hence
        // identical) stream separately, with the *same* geometries — only
        // the number of source consumptions differs.
        let join_proto = Sampled::new(join_schema.sketch(), p, &mut rng).expect("join");
        let join_protos = protos(&join_proto, shards, &mut rng);
        let topk_proto = Sampled::count_sketch(&topk_schema, 4 * k, p, &mut rng).expect("topk");
        let topk_protos = protos(&topk_proto, shards, &mut rng);
        let hll_proto = Sampled::hyperloglog(12, p, &mut rng).expect("hll");
        let hll_protos = protos(&hll_proto, shards, &mut rng);
        let kll_proto = Sampled::kll(200, p, &mut rng).expect("kll");
        let kll_protos = protos(&kll_proto, shards, &mut rng);

        // A rep runs BOTH protocols back to back — the one-pass composite
        // run, then the whole four-pass sequence — and each protocol's
        // fastest rep counts. Interleaving pairs the measurements in time:
        // sustained background load (a single-core host shares the CPU
        // with everything) degrades the two arrangements in the same reps
        // instead of landing entirely on whichever block ran during the
        // disturbance, so the *ratio* is far more stable than with
        // block-at-a-time timing. The minimum is the standard noise filter
        // for sub-second timings (interference only ever adds time),
        // applied symmetrically to both protocols.
        let mut one_secs = f64::INFINITY;
        let mut four_secs = f64::INFINITY;
        let mut one = None;
        let mut four = None;
        for _ in 0..reps {
            let (merged, secs) = run_pass(&one_protos, &gen, stream_seed, tuples, shards);
            one_secs = one_secs.min(secs);
            // Identical seeds per rep ⇒ identical merged summaries.
            one = Some(merged);

            let (join, t_join) = run_pass(&join_protos, &gen, stream_seed, tuples, shards);
            let (topk, t_topk) = run_pass(&topk_protos, &gen, stream_seed, tuples, shards);
            let (hll, t_hll) = run_pass(&hll_protos, &gen, stream_seed, tuples, shards);
            let (kll, t_kll) = run_pass(&kll_protos, &gen, stream_seed, tuples, shards);
            four_secs = four_secs.min(t_join + t_topk + t_hll + t_kll);
            four = Some((join, topk, hll, kll));
        }
        let one = one.expect("at least one rep");
        let (join, topk, hll, kll) = four.expect("at least one rep");

        let rows = [
            score(
                "one_pass",
                p,
                one_secs,
                tuples,
                &exact,
                one.self_join_estimate().value,
                one.distinct(),
                &one.top_k(k),
                one.quantile(0.5).expect("median"),
                one.quantile(0.99).expect("p99"),
            ),
            score(
                "four_passes",
                p,
                four_secs,
                tuples,
                &exact,
                join.self_join_estimate().value,
                hll.distinct(),
                &topk.top_k(k),
                kll.quantile(0.5).expect("median"),
                kll.quantile(0.99).expect("p99"),
            ),
        ];
        for r in &rows {
            println!(
                "{},{},{:.0},{:.4},{:.4},{:.4},{:.4},{:.4}",
                r.mode,
                r.p,
                r.tuples_per_sec,
                r.f2_rel_err,
                r.f0_rel_err,
                r.topk_recall,
                r.median_rank_err,
                r.p99_rank_err
            );
        }

        let speedup = four_secs / one_secs;
        if p < 1.0 && speedup < 2.0 {
            eprintln!("FAIL p={p}: one-pass speedup {speedup:.2}x < 2x over four passes");
            failed = true;
        } else {
            eprintln!("# p={p}: one-pass {speedup:.2}x the four-pass throughput");
        }
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!("# one-pass at or above the 2x acceptance floor at every sampled rate");
}
