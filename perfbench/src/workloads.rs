//! The three workloads. Each builds its inputs from the seed, sets up
//! several times (`setup_s` is the median), warms up untimed, runs its
//! timed loop for `--seconds`, then checks the final merged summary
//! against the exact answer computed from the same inputs.

use crate::inputs::{Stream, BATCH};
use crate::json::Json;
use crate::ledger::{self, RuntimeCost};
use crate::stats::{highest_supported, median, percentile, sorted};
use crate::trace::SpanId;
use crate::{fatal, Ctx};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_core::sketch::JoinSchema;
use sss_core::{
    DistinctQuery, Estimate, JoinQuery, MultiSpec, MultiSummary, QuantileQuery, Sampled, Summary,
    TopKQuery,
};
use sss_exact::ExactAggregator;
use sss_net::{IngestClient, QueryClient, RunningServer, ServerConfig};
use sss_stream::{Partition, RuntimeConfig, ShardedRuntime};
use std::time::Instant;

pub const SHARDS: usize = 2;
pub const QUEUE_DEPTH: usize = 64;
/// Share of each `wire_ingest` / `sampled_inproc` window spent on fresh
/// queries after its ingest phase.
const QUERY_SHARE: f64 = 0.25;
const UNIFORM_DOMAIN: u64 = 10_000;
const ZIPF_DOMAIN: usize = 1_000_000;
const ZIPF_SKEW: f64 = 1.2;
/// Inclusion probability of `sampled_inproc`, the paper's ~10% sample.
const SAMPLED_P: f64 = 0.1;
/// Confidence level of the final self-join coverage check.
const COVER_LEVEL: f64 = 0.99;
/// Batches between resident-set samples in the ingest loops.
const RSS_EVERY: u64 = 4096;

/// `net_ingest`'s geometry: F-AGMS 3×5000 join sketch plus the default
/// top-k 5×2048/256, HLL p=12 and KLL k=200.
pub fn spec(seed: u64) -> MultiSpec {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_5bec);
    MultiSpec::new(JoinSchema::fagms(3, 5000, &mut rng), &mut rng)
}

pub fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        shards: SHARDS,
        queue_depth: QUEUE_DEPTH,
        partition: Partition::RoundRobin,
    }
}

/// A query-plane request and the span that times it.
pub struct Query {
    pub cmd: &'static str,
    pub line: &'static str,
    pub span: &'static str,
}

/// The read workload cycles through these, one fresh query per cycle.
pub const QUERIES: [Query; 4] = [
    Query {
        cmd: "self_join",
        line: r#"{"cmd":"self_join","confidence":0.95}"#,
        span: "net.query.self_join",
    },
    Query {
        cmd: "topk",
        line: r#"{"cmd":"topk","k":10}"#,
        span: "net.query.topk",
    },
    Query {
        cmd: "distinct",
        line: r#"{"cmd":"distinct"}"#,
        span: "net.query.distinct",
    },
    Query {
        cmd: "quantile",
        line: r#"{"cmd":"quantile","q":0.5}"#,
        span: "net.query.quantile",
    },
];

/// A reply counts only if it is valid JSON with `"ok":true`, echoes the
/// command and carries the fields that command promises.
pub fn check_reply(q: &Query, line: &str) -> Result<(), String> {
    let v = Json::parse(line)?;
    if !v.is_ok() || v.get("cmd") != Some(&Json::Str(q.cmd.to_string())) {
        return Err(format!("not an ok {} reply: {line}", q.cmd));
    }
    let complete = match q.cmd {
        "self_join" => v.num("value").is_some() && v.num("half_width_chebyshev").is_some(),
        "topk" => v.array("top").is_some_and(|top| {
            !top.is_empty()
                && top
                    .iter()
                    .all(|e| e.num("key").is_some() && e.num("value").is_some())
        }),
        _ => v.num("value").is_some(),
    };
    if complete {
        Ok(())
    } else {
        Err(format!("incomplete {} reply: {line}", q.cmd))
    }
}

/// One window of a timed loop.
pub struct Window {
    pub traced: bool,
    /// Tuples made queryable, and the seconds that took.
    pub tuples: f64,
    pub secs: f64,
    /// Fresh-query latencies in microseconds.
    pub latencies: Vec<f64>,
    /// Share of the host's CPU time the hypervisor took away.
    pub steal: f64,
}

/// End-to-end metrics from the untraced windows: the median window's
/// ingest rate and the pooled query latencies. A traced run also reports
/// how much slower its traced windows ingested.
fn record_windows(ctx: &mut Ctx, windows: &[Window]) {
    let rates = |traced: bool| -> Vec<f64> {
        windows
            .iter()
            .filter(|w| w.traced == traced)
            .map(|w| w.tuples / w.secs)
            .collect()
    };
    let untraced = median(&rates(false));
    ctx.metric("ingest_mtps", untraced / 1e6);
    if ctx.traced {
        ctx.metric(
            "trace.overhead_pct",
            (untraced / median(&rates(true)) - 1.0) * 100.0,
        );
    }
    let steal: Vec<f64> = windows.iter().map(|w| w.steal * 100.0).collect();
    ctx.note(format!("host CPU steal per window (%): {steal:.1?}"));
    let latencies = windows
        .iter()
        .filter(|w| !w.traced)
        .flat_map(|w| w.latencies.iter().copied())
        .collect();
    record_queries(ctx, latencies);
}

/// Fresh-query latencies to `query_p50_us`, the bounded end-to-end
/// latency, plus `query_p90_us` and `query_p99_us`: CPU steal on a shared
/// 2-core host moves the tail by more than any regression bound, so the
/// tail is reported without one.
fn record_queries(ctx: &mut Ctx, latencies_us: Vec<f64>) {
    let n = latencies_us.len();
    let all = sorted(latencies_us);
    for (name, q) in [
        ("query_p50_us", 0.5),
        ("query_p90_us", 0.9),
        ("query_p99_us", 0.99),
    ] {
        let v = percentile(&all, q);
        ctx.checks
            .record(v.is_some(), || format!("{name}: {n} samples are too few"));
        ctx.metric(name, v.unwrap_or(f64::NAN));
    }
    let (p90, p99) = (ctx.metrics["query_p90_us"], ctx.metrics["query_p99_us"]);
    let top = match highest_supported(&all) {
        Some((q, v)) if q > 0.99 => format!(", p{} = {v:.1} us", q * 100.0),
        _ => String::new(),
    };
    ctx.note(format!(
        "queries: n={n}; p90 = {p90:.1} us, p99 = {p99:.1} us{top}"
    ));
}

/// A served instance under test plus the generator's two connections.
pub struct Wire {
    srv: RunningServer,
    ingest: IngestClient,
    query: QueryClient,
    /// Batches sent and accepted so far.
    pub sent: u64,
    /// Queries sent so far.
    pub queries: usize,
    pub reply_bytes: Vec<f64>,
}

impl Wire {
    /// Spec to a server that is bound, with both connections handshaken.
    /// The replica answers at all times (`max_pending = 0`): every query
    /// reflects every batch accepted before it.
    pub fn start(seed: u64) -> sss_net::Result<Wire> {
        let srv = RunningServer::start(
            ServerConfig {
                runtime: runtime_config(),
                max_pending: 0,
                ..ServerConfig::default()
            },
            &spec(seed),
        )?;
        let ingest = IngestClient::connect(srv.ingest_addr())?;
        let query = QueryClient::connect(srv.query_addr())?;
        Ok(Wire {
            srv,
            ingest,
            query,
            sent: 0,
            queries: 0,
            reply_bytes: Vec::new(),
        })
    }

    pub fn send(&mut self, ctx: &mut Ctx, stream: &Stream, parent: SpanId) -> bool {
        let span = ctx.tracer.enter("net.client.send_batch", parent);
        let r = self.ingest.send_batch(stream.batch(self.sent));
        ctx.tracer.exit(span);
        self.sent += u64::from(r.is_ok());
        ctx.checks
            .record(r.is_ok(), || format!("send_batch: {:?}", r.err()))
    }

    pub fn sync(&mut self, ctx: &mut Ctx, parent: SpanId) -> bool {
        let span = ctx.tracer.enter("net.client.sync", parent);
        let r = self.ingest.sync();
        ctx.tracer.exit(span);
        ctx.checks
            .record(r.is_ok(), || format!("sync: {:?}", r.err()))
    }

    /// One query; returns its latency when the reply checks out.
    pub fn query(&mut self, ctx: &mut Ctx, q: &Query, parent: SpanId) -> Option<f64> {
        let span = ctx.tracer.enter(q.span, parent);
        let t = Instant::now();
        let r = self.query.request(q.line);
        self.queries += 1;
        let us = t.elapsed().as_secs_f64() * 1e6;
        ctx.tracer.exit(span);
        let span = ctx.tracer.enter("bench.check_reply", parent);
        let verdict = r.map_err(|e| e.to_string()).and_then(|line| {
            self.reply_bytes.push(line.len() as f64);
            check_reply(q, &line)
        });
        ctx.tracer.exit(span);
        ctx.checks
            .record(verdict.is_ok(), || {
                format!("{}: {:?}", q.cmd, verdict.err())
            })
            .then_some(us)
    }

    pub fn stats(&mut self, ctx: &mut Ctx) -> Option<Json> {
        let r = self
            .query
            .stats_line()
            .map_err(|e| e.to_string())
            .and_then(|l| Json::parse(&l));
        ctx.checks
            .record(r.is_ok(), || format!("stats: {:?}", r.as_ref().err()));
        r.ok()
    }

    /// Close both connections and drain the server to its merged summary.
    pub fn shutdown(self, ctx: &mut Ctx) -> Option<MultiSummary> {
        drop(self.ingest);
        drop(self.query);
        let r = self.srv.shutdown_and_wait();
        ctx.checks
            .record(r.is_ok(), || format!("shutdown: {:?}", r.as_ref().err()));
        r.ok()
    }
}

/// Set up `setup_reps` servers one after another, keep the last.
fn setup_wire(ctx: &mut Ctx) -> Wire {
    let mut times = Vec::new();
    let mut kept: Option<Wire> = None;
    for _ in 0..ctx.scale.setup_reps {
        if let Some(previous) = kept.take() {
            previous.shutdown(ctx);
        }
        let t = Instant::now();
        let wire = Wire::start(ctx.seed).unwrap_or_else(|e| fatal(&format!("server set-up: {e}")));
        times.push(t.elapsed().as_secs_f64());
        kept = Some(wire);
    }
    ctx.metric("setup_s", median(&times));
    kept.expect("setup_reps is at least one")
}

/// The `stats` verb's counters; protocol errors are a failed check.
fn record_server(ctx: &mut Ctx, stats: Option<&Json>, pool_base: Option<f64>) {
    let get = |k: &str| stats.and_then(|s| s.num(k));
    let errors = get("protocol_errors");
    ctx.checks.record(errors == Some(0.0), || {
        format!("server protocol errors: {errors:?}")
    });
    ctx.metric("net.server.batches", get("batches").unwrap_or(f64::NAN));
    ctx.metric("net.server.protocol_errors", errors.unwrap_or(f64::NAN));
    let growth = get("pool_allocations")
        .zip(pool_base)
        .map_or(f64::NAN, |(end, base)| end - base);
    ctx.metric("net.server.pool_alloc_growth", growth);
    ctx.note(format!("server pool growth past warm-up: {growth} buffers (reported, not gated: zero growth does not hold on 2 cores)"));
}

/// Per-layer metrics of the wire client and the query plane, from the
/// spans recorded since `mark`.
fn record_wire_layers(ctx: &mut Ctx, mark: usize, wire: &Wire) {
    let us = |v: Vec<f64>| v.into_iter().map(|ns| ns / 1e3).collect::<Vec<_>>();
    let sends = sorted(us(ctx.tracer.durations_ns("net.client.send_batch", mark)));
    let p99 = percentile(&sends, 0.99)
        .or(sends.last().copied())
        .unwrap_or(f64::NAN);
    ctx.metric("net.client.send_batch_p99_us", p99);
    let syncs = us(ctx.tracer.durations_ns("net.client.sync", mark));
    ctx.metric("net.client.sync_rtt_us", median(&syncs));
    for (q, name) in QUERIES.iter().zip([
        "net.query.self_join_us",
        "net.query.topk_us",
        "net.query.distinct_us",
        "net.query.quantile_us",
    ]) {
        let v = us(ctx.tracer.durations_ns(q.span, mark));
        ctx.metric(name, median(&v));
    }
    ctx.metric("net.query.reply_bytes", median(&wire.reply_bytes));
}

/// What the final merged summary answers.
struct Answers {
    f2: Estimate,
    top: Vec<u64>,
    f0: f64,
    q50: Option<f64>,
}

impl Answers {
    fn of_multi(m: &MultiSummary) -> Self {
        Self {
            f2: JoinQuery::self_join_estimate(m),
            top: TopKQuery::top_k(m, 10)
                .into_iter()
                .map(|(k, _)| k)
                .collect(),
            f0: DistinctQuery::distinct(m),
            q50: QuantileQuery::quantile(m, 0.5).ok(),
        }
    }

    fn of_sampled(m: &Sampled<MultiSummary>) -> Self {
        Self {
            f2: m.self_join_estimate(),
            top: m.top_k(10).into_iter().map(|(k, _)| k).collect(),
            f0: m.distinct(),
            q50: m.quantile(0.5).ok(),
        }
    }

    /// The coverage check plus the accuracy columns against `exact`.
    fn check(&self, ctx: &mut Ctx, exact: &ExactAggregator) {
        let truth = exact.self_join();
        let half = self.f2.chebyshev(COVER_LEVEL).map(|ci| ci.half_width());
        let covered = half
            .as_ref()
            .is_ok_and(|h| (self.f2.value - truth).abs() <= *h);
        ctx.checks.record(covered, || {
            format!(
                "self-join {} ± {half:?} does not cover exact {truth}",
                self.f2.value
            )
        });
        let f2_err = (self.f2.value - truth).abs() / truth;
        let exact_top: Vec<u64> = exact.top_k(10).into_iter().map(|(k, _)| k).collect();
        let recall = exact_top.iter().filter(|k| self.top.contains(k)).count() as f64
            / exact_top.len() as f64;
        let distinct = exact.distinct() as f64;
        let f0_err = (self.f0 - distinct).abs() / distinct;
        ctx.checks
            .record(self.q50.is_some(), || "median query failed".to_string());
        let q50_err = self
            .q50
            .map_or(f64::NAN, |v| rank_error(exact, v as u64, 0.5));
        ctx.metric("result.f2_rel_err", f2_err);
        ctx.metric("result.topk_recall", recall);
        ctx.metric("result.f0_rel_err", f0_err);
        ctx.metric("result.q50_rank_err", q50_err);
        ctx.note(format!(
            "accuracy: f2_rel_err={f2_err:.5} topk_recall={recall} f0_rel_err={f0_err:.5} q50_rank_err={q50_err:.5}"
        ));
    }
}

/// Distance from `q` to the exact rank interval of `value`.
fn rank_error(exact: &ExactAggregator, value: u64, q: f64) -> f64 {
    let n = exact.total() as f64;
    let below: i64 = exact
        .iter()
        .filter(|&(k, _)| k < value)
        .map(|(_, c)| c)
        .sum();
    let lo = below as f64 / n;
    let hi = (below + exact.get(value)) as f64 / n;
    (lo - q).max(q - hi).max(0.0)
}

/// Fresh-query cycles until `until`, and at least `min` of them: write
/// one batch, `SYNC`, then one query, cycling the kinds. At
/// `max_pending = 0` each query re-merges the shards, so it reads its own
/// write. Returns the latencies of the answered queries and the seconds
/// each cycle took.
fn wire_cycles(
    ctx: &mut Ctx,
    wire: &mut Wire,
    stream: &Stream,
    until: Instant,
    min: usize,
    ok: &mut bool,
) -> (Vec<f64>, Vec<f64>) {
    let mut latencies = Vec::new();
    let mut cycles = Vec::new();
    while *ok && (Instant::now() < until || cycles.len() < min) {
        let t = Instant::now();
        let root = ctx.tracer.enter("ryw.cycle", None);
        *ok = wire.send(ctx, stream, root) && wire.sync(ctx, root);
        if *ok {
            let q = &QUERIES[wire.queries % QUERIES.len()];
            latencies.extend(wire.query(ctx, q, root));
        }
        ctx.tracer.exit(root);
        cycles.push(t.elapsed().as_secs_f64());
    }
    (latencies, cycles)
}

/// Warm-up batches and a `SYNC`, untimed; returns the server's pool
/// allocation count afterwards.
fn warm_wire(
    ctx: &mut Ctx,
    wire: &mut Wire,
    stream: &Stream,
    batches: u64,
    ok: &mut bool,
) -> Option<f64> {
    for _ in 0..batches {
        *ok = *ok && wire.send(ctx, stream, None);
    }
    *ok = *ok && wire.sync(ctx, None);
    wire.stats(ctx).and_then(|s| s.num("pool_allocations"))
}

/// Server counters, shutdown and the final checks shared by the wire
/// workloads.
fn finish_wire(
    ctx: &mut Ctx,
    mut wire: Wire,
    stream: &Stream,
    pool_base: Option<f64>,
    mark: usize,
) {
    let stats = wire.stats(ctx);
    record_server(ctx, stats.as_ref(), pool_base);
    if ctx.traced {
        record_wire_layers(ctx, mark, &wire);
    }
    let sent = wire.sent;
    let merged = wire.shutdown(ctx);
    record_rss(ctx);
    if let Some(m) = &merged {
        Answers::of_multi(m).check(ctx, &stream.exact(sent));
    }
}

/// Peak resident growth so far: a per-layer metric, and a note in
/// untraced runs (see `perfbench/README.md` on why it has no bound).
fn record_rss(ctx: &mut Ctx) {
    let mb = ctx.rss.growth_mb();
    ctx.metric("mem.rss_growth_mb", mb);
    ctx.note(format!("peak resident growth: {mb:.1} MB"));
}

/// `wire_ingest`: one connection streams uniform 512-key batches closed
/// loop (TCP back-pressure); each window ends with `SYNC` and a short
/// phase of fresh queries, so ingest is timed with no query traffic.
pub fn wire_ingest(ctx: &mut Ctx) {
    let stream = Stream::uniform(ctx.seed, ctx.scale.block_keys, UNIFORM_DOMAIN);
    ctx.rss.baseline();
    let mut wire = setup_wire(ctx);
    let mut ok = true;
    let pool_base = warm_wire(ctx, &mut wire, &stream, ctx.scale.warm_batches, &mut ok);
    ctx.rss.sample();

    let mark = ctx.tracer.spans().len();
    let min = ctx.min_queries_per_window();
    let mut windows = Vec::new();
    for (len, traced) in ctx.windows() {
        ctx.tracer.set_enabled(traced);
        let first = wire.sent;
        let steal = crate::Steal::start();
        let t0 = Instant::now();
        while ok && t0.elapsed() < len.mul_f64(1.0 - QUERY_SHARE) {
            ok = wire.send(ctx, &stream, None);
            if wire.sent.is_multiple_of(RSS_EVERY) {
                ctx.rss.sample();
            }
        }
        // Queryable means a query reflects them: SYNC, then one query,
        // which waits for the shards to apply what the rings still hold.
        ok = ok && wire.sync(ctx, None) && wire.query(ctx, &QUERIES[0], None).is_some();
        let secs = t0.elapsed().as_secs_f64();
        let tuples = ((wire.sent - first) as usize * BATCH) as f64;
        let (latencies, _) = wire_cycles(ctx, &mut wire, &stream, t0 + len, min, &mut ok);
        windows.push(Window {
            traced,
            tuples,
            secs,
            latencies,
            steal: steal.share(),
        });
    }
    ctx.tracer.set_enabled(ctx.traced);
    record_windows(ctx, &windows);
    ctx.note(format!("tuples sent: {}", wire.sent as usize * BATCH));
    finish_wire(ctx, wire, &stream, pool_base, mark);

    if ctx.traced {
        ledger::micro(ctx, &stream);
        let runtime = ledger::runtime_probe(ctx, &stream);
        runtime.record(ctx);
        let wire_ns = 1e3 / ctx.metrics["ingest_mtps"];
        ctx.metric("net.wire_residual_ns", wire_ns - runtime.ns_per_tuple);
    }
}

/// Preload `preload` batches, timed until they are queryable (at
/// `max_pending = 0` the first query quiesces the shards); returns the
/// preload's cost per tuple, the base of the wire residual.
fn preload_wire(
    ctx: &mut Ctx,
    wire: &mut Wire,
    stream: &Stream,
    preload: u64,
    ok: &mut bool,
) -> f64 {
    let t0 = Instant::now();
    for _ in 0..preload {
        *ok = *ok && wire.send(ctx, stream, None);
    }
    *ok = *ok && wire.sync(ctx, None) && wire.query(ctx, &QUERIES[0], None).is_some();
    t0.elapsed().as_secs_f64() * 1e9 / (preload as usize * BATCH) as f64
}

/// `read_your_writes`: an at-all-times server preloaded with Zipf keys,
/// then closed write + `SYNC` + fresh-query cycles for the whole run.
pub fn read_your_writes(ctx: &mut Ctx) {
    let stream = Stream::zipf(ctx.seed, ctx.scale.block_keys, ZIPF_DOMAIN, ZIPF_SKEW);
    ctx.rss.baseline();
    let mut wire = setup_wire(ctx);
    let mut ok = true;
    let mark = ctx.tracer.spans().len();
    let preload_ns = preload_wire(ctx, &mut wire, &stream, ctx.scale.preload_batches, &mut ok);
    let pool_base = wire.stats(ctx).and_then(|s| s.num("pool_allocations"));
    ctx.rss.sample();

    let min = ctx.min_queries_per_window();
    let mut windows = Vec::new();
    let mut untraced_cycles = Vec::new();
    for (len, traced) in ctx.windows() {
        ctx.tracer.set_enabled(traced);
        let steal = crate::Steal::start();
        let t0 = Instant::now();
        let (latencies, cycles) = wire_cycles(ctx, &mut wire, &stream, t0 + len, min, &mut ok);
        ctx.rss.sample();
        if !traced {
            untraced_cycles.extend_from_slice(&cycles);
        }
        windows.push(Window {
            traced,
            tuples: (cycles.len() * BATCH) as f64,
            secs: t0.elapsed().as_secs_f64(),
            latencies,
            steal: steal.share(),
        });
    }
    ctx.tracer.set_enabled(ctx.traced);
    record_windows(ctx, &windows);
    // A closed loop of one client: the typical cycle sets the rate. Its
    // median keeps host CPU steal, which stretches a few cycles, out of
    // the result (the window means move twice as far under steal).
    let cycles_per_s = 1.0 / median(&untraced_cycles);
    ctx.metric("ingest_mtps", cycles_per_s * BATCH as f64 / 1e6);
    let mean_rate = untraced_cycles.len() as f64 / untraced_cycles.iter().sum::<f64>();
    ctx.note(format!(
        "rw_ops_per_s: {cycles_per_s} write+sync+query cycles per second at the median cycle, {mean_rate} on average"
    ));
    finish_wire(ctx, wire, &stream, pool_base, mark);

    if ctx.traced {
        ledger::micro(ctx, &stream);
        let runtime = ledger::runtime_probe(ctx, &stream);
        runtime.record(ctx);
        ctx.metric("net.wire_residual_ns", preload_ns - runtime.ns_per_tuple);
    }
}

/// Spec to a spawned `Sampled<MultiSummary>` runtime with one reseeded
/// prototype per shard, so the shards sample independently.
fn start_sampled(seed: u64) -> Result<ShardedRuntime<Sampled<MultiSummary>>, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5a3b_1ed0);
    let proto = spec(seed)
        .sampled(SAMPLED_P, &mut rng)
        .map_err(|e| e.to_string())?;
    let mut protos = Vec::with_capacity(SHARDS);
    for _ in 0..SHARDS {
        let mut shard = proto.clone();
        shard.reseed(&mut rng).map_err(|e| e.to_string())?;
        protos.push(shard);
    }
    ShardedRuntime::new_per_shard(runtime_config(), protos).map_err(|e| e.to_string())
}

/// Answer one in-process query kind; `true` when the answer is usable.
fn answer_sampled(m: &Sampled<MultiSummary>, cmd: &str) -> bool {
    match cmd {
        "self_join" => m.self_join_estimate().chebyshev(0.95).is_ok(),
        "topk" => !m.top_k(10).is_empty(),
        "distinct" => m.distinct().is_finite(),
        _ => m.quantile(0.5).is_ok(),
    }
}

/// Push the next batch of the replay; a root span when `parent` is `None`.
pub fn push<E: Summary>(
    ctx: &mut Ctx,
    rt: &mut ShardedRuntime<E>,
    stream: &Stream,
    sent: &mut u64,
    parent: SpanId,
) -> bool {
    let span = ctx.tracer.enter("stream.runtime.push", parent);
    let r = rt.push(stream.batch(*sent));
    ctx.tracer.exit(span);
    *sent += u64::from(r.is_ok());
    ctx.checks
        .record(r.is_ok(), || format!("push: {:?}", r.err()))
}

/// `sampled_inproc`: the paper's path in process — one producer pushes
/// replayed Zipf batches into a p = 0.1 `Sampled<MultiSummary>` runtime;
/// each window's ingest ends with a quiesced `merged()`, then fresh
/// at-all-times queries (one batch, `merged()`, a corrected answer).
pub fn sampled_inproc(ctx: &mut Ctx) {
    let stream = Stream::zipf(ctx.seed, ctx.scale.block_keys, ZIPF_DOMAIN, ZIPF_SKEW);
    ctx.rss.baseline();
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..ctx.scale.setup_reps {
        drop(kept.take());
        let t = Instant::now();
        let rt = start_sampled(ctx.seed).unwrap_or_else(|e| fatal(&format!("runtime set-up: {e}")));
        times.push(t.elapsed().as_secs_f64());
        kept = Some(rt);
    }
    ctx.metric("setup_s", median(&times));
    let mut rt = kept.expect("setup_reps is at least one");

    let mut sent = 0u64;
    let mut ok = true;
    for _ in 0..ctx.scale.warm_batches {
        ok = ok && push(ctx, &mut rt, &stream, &mut sent, None);
    }
    ok = ok
        && ctx.checks.record(rt.merged().is_ok(), || {
            "warm-up merged() failed".to_string()
        });
    let alloc_base = rt.pool_stats().allocations;
    ctx.rss.sample();

    let mark = ctx.tracer.spans().len();
    let min = ctx.min_queries_per_window();
    let mut windows = Vec::new();
    let mut queries = 0usize;
    for (len, traced) in ctx.windows() {
        ctx.tracer.set_enabled(traced);
        let first = sent;
        let steal = crate::Steal::start();
        let t0 = Instant::now();
        while ok && t0.elapsed() < len.mul_f64(1.0 - QUERY_SHARE) {
            ok = push(ctx, &mut rt, &stream, &mut sent, None);
            if sent.is_multiple_of(RSS_EVERY) {
                ctx.rss.sample();
            }
        }
        let span = ctx.tracer.enter("stream.snapshot.merged", None);
        let quiesced = rt.merged().is_ok();
        ctx.tracer.exit(span);
        ok = ok
            && ctx
                .checks
                .record(quiesced, || "merged() failed".to_string());
        let secs = t0.elapsed().as_secs_f64();
        let tuples = ((sent - first) as usize * BATCH) as f64;

        let mut latencies = Vec::new();
        let mut cycles = 0;
        while ok && (t0.elapsed() < len || cycles < min) {
            let q = &QUERIES[queries % QUERIES.len()];
            let root = ctx.tracer.enter("inproc.cycle", None);
            ok = push(ctx, &mut rt, &stream, &mut sent, root);
            let span = ctx.tracer.enter(q.span, root);
            let t = Instant::now();
            let answered = rt.merged().is_ok_and(|m| answer_sampled(&m, q.cmd));
            let us = t.elapsed().as_secs_f64() * 1e6;
            ctx.tracer.exit(span);
            ctx.tracer.exit(root);
            if ctx
                .checks
                .record(answered, || format!("in-process {} query failed", q.cmd))
            {
                latencies.push(us);
            }
            queries += 1;
            cycles += 1;
        }
        windows.push(Window {
            traced,
            tuples,
            secs,
            latencies,
            steal: steal.share(),
        });
    }
    ctx.tracer.set_enabled(ctx.traced);
    record_windows(ctx, &windows);
    ctx.note(format!("tuples offered: {}", sent as usize * BATCH));
    let pushes = ctx.tracer.durations_ns("stream.runtime.push", mark);
    let loop_cost = RuntimeCost::of(&rt, 1e3 / ctx.metrics["ingest_mtps"], &pushes, alloc_base);
    record_rss(ctx);
    let merged = rt.into_merged();
    ctx.checks.record(merged.is_ok(), || {
        format!("into_merged: {:?}", merged.as_ref().err())
    });
    if let Ok(m) = &merged {
        Answers::of_sampled(m).check(ctx, &stream.exact(sent));
    }

    if ctx.traced {
        loop_cost.record(ctx);
        ledger::micro(ctx, &stream);
        // The layers this workload bypasses are measured by probes on the
        // same inputs: the p = 1 in-process runtime (read path included)
        // and a short read-your-writes session over the wire.
        let runtime = ledger::runtime_probe(ctx, &stream);
        let mut wire =
            Wire::start(ctx.seed).unwrap_or_else(|e| fatal(&format!("probe server: {e}")));
        let mark = ctx.tracer.spans().len();
        let preload_ns = preload_wire(ctx, &mut wire, &stream, ctx.scale.preload_batches, &mut ok);
        let pool_base = wire.stats(ctx).and_then(|s| s.num("pool_allocations"));
        wire_cycles(
            ctx,
            &mut wire,
            &stream,
            Instant::now(),
            ctx.scale.probe_cycles,
            &mut ok,
        );
        let stats = wire.stats(ctx);
        record_server(ctx, stats.as_ref(), pool_base);
        record_wire_layers(ctx, mark, &wire);
        ctx.metric("net.wire_residual_ns", preload_ns - runtime.ns_per_tuple);
        wire.shutdown(ctx);
    }
}
