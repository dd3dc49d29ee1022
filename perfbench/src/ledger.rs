//! The per-layer ledger of a traced run: micro-benchmarks of each layer
//! on the workload's own batches, and an in-process runtime probe that
//! also walks the read path. Every measurement is a span, so the span
//! file and the metrics agree.
//!
//! Layers are timed in interleaved repetitions (every layer once per
//! repetition) and reported as medians, so drift on the host spreads
//! over all layers alike.

use crate::inputs::{Stream, BATCH};
use crate::stats::{median, percentile, residual, sorted};
use crate::trace::SpanId;
use crate::workloads::{push, runtime_config, spec};
use crate::{fatal, Ctx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sss_core::{Portable, SlimMultiSummary, SlimQuery, Summary};
use sss_net::protocol::{decode_batch_into, write_batch, FrameReader};
use sss_stream::ShardedRuntime;
use sss_xi::kernels::{bucket_batch, sign_batch};
use sss_xi::{BucketFamily, Cw2Bucket, Cw4, Dispatch, SignFamily};
use std::hint::black_box;
use std::time::Instant;

/// Run `f` inside a span named `name` under `root`.
fn timed<T>(ctx: &mut Ctx, name: &'static str, root: SpanId, f: impl FnOnce() -> T) -> T {
    let span = ctx.tracer.enter(name, root);
    let out = black_box(f());
    ctx.tracer.exit(span);
    out
}

fn feed<S: Summary>(summary: &mut S, stream: &Stream, batches: u64) {
    for i in 0..batches {
        summary.update_batch(stream.batch(i));
    }
}

/// The sampled-front-end rates timed per repetition, with their metrics.
const SAMPLED: [(f64, &str, &str); 3] = [
    (1.0, "core.sampled.p1", "core.sampled.p1.update_ns"),
    (0.1, "core.sampled.p0_1", "core.sampled.p0_1.update_ns"),
    (0.01, "core.sampled.p0_01", "core.sampled.p0_01.update_ns"),
];

/// Micro-benchmarks: xi kernels, each summary's `update_batch`, the
/// composite and its residual, the sampled front end at three rates, the
/// wire codec and a shard merge — all per tuple of the workload's batches.
pub fn micro(ctx: &mut Ctx, stream: &Stream) {
    let batches = ctx.scale.ledger_batches;
    let tuples = (batches as usize * BATCH) as f64;
    let spec = spec(ctx.seed);
    let proto = spec
        .summary()
        .unwrap_or_else(|e| fatal(&format!("summary geometry: {e}")));
    let d = Dispatch::get();
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x1ed6_e500);
    let cw4 = Cw4::from_coeffs([rng.random(), rng.random(), rng.random(), rng.random()]);
    let sign_coeffs = SignFamily::poly_coeffs(&cw4)
        .expect("CW4 is polynomial")
        .to_vec();
    let cw2 = Cw2Bucket::from_coeffs(rng.random(), rng.random());
    let bucket_coeffs = BucketFamily::poly_coeffs(&cw2)
        .expect("CW2 is polynomial")
        .to_vec();
    let (mut signs, mut buckets) = (vec![0i64; BATCH], vec![0usize; BATCH]);
    // Two shard-sized halves of the input for the merge timing, and the
    // input pre-encoded as BATCH frames for the decode timing.
    let (mut half_a, mut half_b) = (proto.clone(), proto.clone());
    let mut frames = Vec::new();
    for i in 0..batches {
        let half = if i % 2 == 0 { &mut half_a } else { &mut half_b };
        half.update_batch(stream.batch(i));
        write_batch(&mut frames, stream.batch(i));
    }
    let mut kept_frac = f64::NAN;

    let mark = ctx.tracer.spans().len();
    for _ in 0..ctx.scale.ledger_reps {
        let root = ctx.tracer.enter("ledger.micro", None);
        timed(ctx, "xi.cw4_sign", root, || {
            for i in 0..batches {
                sign_batch(d, &sign_coeffs, stream.batch(i), &mut signs);
            }
        });
        timed(ctx, "xi.cw2_bucket", root, || {
            for i in 0..batches {
                bucket_batch(d, &bucket_coeffs, 5000, stream.batch(i), &mut buckets);
            }
        });
        let mut join = proto.join().clone();
        timed(ctx, "sketch.fagms.update_batch", root, || {
            feed(&mut join, stream, batches)
        });
        let mut topk = proto.topk().clone();
        timed(ctx, "sketch.topk.update_batch", root, || {
            feed(&mut topk, stream, batches)
        });
        let mut hll = proto.hll().clone();
        timed(ctx, "sketch.hll.update_batch", root, || {
            feed(&mut hll, stream, batches)
        });
        let mut kll = proto.kll().clone();
        timed(ctx, "sketch.kll.update_batch", root, || {
            feed(&mut kll, stream, batches)
        });
        let mut multi = proto.clone();
        timed(ctx, "core.multi.update_batch", root, || {
            feed(&mut multi, stream, batches)
        });
        black_box((&join, &topk, &hll, &kll, &multi));
        for (p, span, _) in SAMPLED {
            let mut sampled = spec
                .sampled(p, &mut rng)
                .unwrap_or_else(|e| fatal(&format!("sampled front end: {e}")));
            timed(ctx, span, root, || feed(&mut sampled, stream, batches));
            if p == 0.1 {
                kept_frac = sampled.kept() as f64 / sampled.seen() as f64;
            }
            black_box(&sampled);
        }
        let mut out = Vec::with_capacity(frames.len());
        timed(ctx, "net.protocol.write_batch", root, || {
            for i in 0..batches {
                write_batch(&mut out, stream.batch(i));
            }
        });
        ctx.checks.record(out == frames, || {
            "write_batch is not deterministic".to_string()
        });
        let mut reader = FrameReader::new();
        reader.extend(&frames);
        let mut keys = Vec::with_capacity(BATCH);
        let decoded = timed(ctx, "net.protocol.decode_batch", root, || {
            let mut n = 0u64;
            while let Ok(Some((_, payload))) = reader.next_frame() {
                keys.clear();
                n +=
                    u64::from(decode_batch_into(payload, &mut keys).is_ok() && keys.len() == BATCH);
            }
            n
        });
        ctx.checks.record(decoded == batches, || {
            format!("decoded {decoded} of {batches} frames")
        });
        let mut merged = half_a.clone();
        let r = timed(ctx, "core.multi.merge", root, || merged.merge_from(&half_b));
        ctx.checks.record(r.is_ok(), || format!("merge: {r:?}"));
        ctx.tracer.exit(root);
    }

    let per_tuple = |ctx: &Ctx, span: &str| median(&ctx.tracer.durations_ns(span, mark)) / tuples;
    let layers = [
        ("xi.cw4_sign_ns", "xi.cw4_sign"),
        ("xi.cw2_bucket_ns", "xi.cw2_bucket"),
        ("sketch.fagms.update_ns", "sketch.fagms.update_batch"),
        ("sketch.topk.update_ns", "sketch.topk.update_batch"),
        ("sketch.hll.update_ns", "sketch.hll.update_batch"),
        ("sketch.kll.update_ns", "sketch.kll.update_batch"),
        ("core.multi.update_ns", "core.multi.update_batch"),
        ("net.protocol.write_batch_ns", "net.protocol.write_batch"),
        ("net.protocol.decode_batch_ns", "net.protocol.decode_batch"),
    ];
    for (metric, span) in layers {
        let v = per_tuple(ctx, span);
        ctx.metric(metric, v);
    }
    for (_, span, metric) in SAMPLED {
        let v = per_tuple(ctx, span);
        ctx.metric(metric, v);
    }
    let m = &ctx.metrics;
    let parts = [
        "sketch.fagms.update_ns",
        "sketch.topk.update_ns",
        "sketch.hll.update_ns",
        "sketch.kll.update_ns",
    ]
    .map(|k| m[k]);
    let multi_residual = residual(m["core.multi.update_ns"], &parts);
    let (p1, p0_1) = (
        m["core.sampled.p1.update_ns"],
        m["core.sampled.p0_1.update_ns"],
    );
    ctx.metric("core.multi.residual_ns", multi_residual);
    ctx.metric("core.sampled.kept_frac", kept_frac);
    ctx.metric("core.sampled.speedup_p1_over_p0_1", p1 / p0_1);
    ctx.note(format!(
        "paper row: p=0.1 update {p0_1:.2} ns/tuple vs p=1 base {p1:.2} ns/tuple = {:.2}x",
        p1 / p0_1
    ));
    let merge_us = median(&ctx.tracer.durations_ns("core.multi.merge", mark)) / 1e3;
    ctx.metric("core.multi.merge_us", merge_us);
}

/// What a runtime ingest pass cost, and the runtime's own counters.
pub struct RuntimeCost {
    pub ns_per_tuple: f64,
    push_p99_us: f64,
    high_water: f64,
    skew: f64,
    alloc_growth: f64,
}

impl RuntimeCost {
    /// `push_ns` are the pass's push span durations; `alloc_base` the pool
    /// allocation count after warm-up.
    pub fn of<E: Summary>(
        rt: &ShardedRuntime<E>,
        ns_per_tuple: f64,
        push_ns: &[f64],
        alloc_base: u64,
    ) -> Self {
        let pushes_us = sorted(push_ns.iter().map(|ns| ns / 1e3).collect());
        let shard: Vec<f64> = (0..rt.shards())
            .map(|s| rt.shard_tuples_ingested(s) as f64)
            .collect();
        let mean = shard.iter().sum::<f64>() / shard.len() as f64;
        Self {
            ns_per_tuple,
            push_p99_us: percentile(&pushes_us, 0.99)
                .or(pushes_us.last().copied())
                .unwrap_or(f64::NAN),
            high_water: rt.queue_high_water() as f64,
            skew: shard.iter().copied().fold(0.0, f64::max) / mean,
            alloc_growth: (rt.pool_stats().allocations - alloc_base) as f64,
        }
    }

    pub fn record(&self, ctx: &mut Ctx) {
        ctx.metric("stream.runtime.push_ns", self.ns_per_tuple);
        ctx.metric("stream.runtime.push_p99_us", self.push_p99_us);
        ctx.metric("stream.runtime.queue_high_water", self.high_water);
        ctx.metric("stream.runtime.shard_skew", self.skew);
        ctx.metric("stream.runtime.pool_alloc_growth", self.alloc_growth);
        ctx.note(format!(
            "runtime pool growth past warm-up: {} buffers (reported, not gated: zero growth does not hold on 2 cores)",
            self.alloc_growth
        ));
    }
}

/// The p = 1 `ShardedRuntime<MultiSummary>` the server runs, driven in
/// process on the same batches: its per-tuple cost is the base of the
/// wire residual. Then the in-process read path: one batch, a fresh
/// `merged()`, a repeated (cached) one, slim projection, encode, decode.
pub fn runtime_probe(ctx: &mut Ctx, stream: &Stream) -> RuntimeCost {
    let proto = spec(ctx.seed)
        .summary()
        .unwrap_or_else(|e| fatal(&format!("summary geometry: {e}")));
    let mut rt = ShardedRuntime::new(runtime_config(), &proto)
        .unwrap_or_else(|e| fatal(&format!("runtime: {e}")));
    let mut sent = 0;
    let mut ok = true;
    for _ in 0..ctx.scale.warm_batches {
        ok = ok && push(ctx, &mut rt, stream, &mut sent, None);
    }
    ok = ok
        && ctx.checks.record(rt.merged().is_ok(), || {
            "warm-up merged() failed".to_string()
        });
    let alloc_base = rt.pool_stats().allocations;

    let mark = ctx.tracer.spans().len();
    let first = sent;
    let t0 = Instant::now();
    for _ in 0..ctx.scale.preload_batches {
        ok = ok && push(ctx, &mut rt, stream, &mut sent, None);
    }
    let span = ctx.tracer.enter("stream.snapshot.merged", None);
    let quiesced = rt.merged().is_ok();
    ctx.tracer.exit(span);
    ctx.checks
        .record(quiesced, || "merged() failed".to_string());
    let ns_per_tuple = t0.elapsed().as_secs_f64() * 1e9 / ((sent - first) as usize * BATCH) as f64;
    let pushes = ctx.tracer.durations_ns("stream.runtime.push", mark);
    let cost = RuntimeCost::of(&rt, ns_per_tuple, &pushes, alloc_base);

    let mark = ctx.tracer.spans().len();
    let before = rt.cache_stats();
    let mut sizes = None;
    for _ in 0..ctx.scale.probe_queries {
        ok = ok && push(ctx, &mut rt, stream, &mut sent, None);
        let root = ctx.tracer.enter("ledger.read_path", None);
        let fresh = timed(ctx, "stream.snapshot.merged", root, || rt.merged());
        let cached = timed(ctx, "stream.snapshot.merged_cached", root, || rt.merged());
        ctx.checks.record(fresh.is_ok() && cached.is_ok(), || {
            "read-path merged() failed".to_string()
        });
        if let Ok(m) = fresh {
            let slim = timed(ctx, "core.slim.project", root, || m.slim());
            let bytes = timed(ctx, "core.slim.encode", root, || slim.encode());
            let decoded = bytes.as_ref().map(|b| {
                timed(ctx, "core.slim.decode", root, || {
                    SlimMultiSummary::decode(b)
                })
            });
            let round_trip = matches!(&decoded, Ok(Ok(_)));
            ctx.checks
                .record(round_trip, || "slim encode/decode failed".to_string());
            if let (Ok(b), Ok(fat)) = (&bytes, m.encode()) {
                sizes = Some((b.len() as f64, fat.len() as f64));
            }
        }
        ctx.tracer.exit(root);
    }
    let after = rt.cache_stats();
    let us = |ctx: &Ctx, span: &str| median(&ctx.tracer.durations_ns(span, mark)) / 1e3;
    for (metric, span) in [
        ("stream.snapshot.merged_us", "stream.snapshot.merged"),
        ("core.slim.project_us", "core.slim.project"),
        ("core.slim.encode_us", "core.slim.encode"),
        ("core.slim.decode_us", "core.slim.decode"),
    ] {
        let v = us(ctx, span);
        ctx.metric(metric, v);
    }
    let (slim_bytes, fat_bytes) = sizes.unwrap_or((f64::NAN, f64::NAN));
    ctx.metric("core.slim.bytes", slim_bytes);
    ctx.metric("core.portable.fat_bytes", fat_bytes);
    ctx.metric(
        "stream.snapshot.full_rebuilds",
        (after.full_rebuilds - before.full_rebuilds) as f64,
    );
    ctx.metric(
        "stream.snapshot.cache_hits",
        (after.hits - before.hits) as f64,
    );
    drop(rt);
    cost
}
