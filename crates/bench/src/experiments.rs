//! The experiment sweeps behind the figure binaries, as testable library
//! functions.
//!
//! Each function reproduces one experimental *procedure* of the paper's
//! Section VII; the `fig*` binaries only parse flags and print CSV. Keeping
//! the logic here means the smoke tests in this module — not the binaries —
//! are what pin the procedures.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_core::sketch::{JoinSchema, JoinSketch};
use sss_core::{
    EpochShedder, Estimate, IidStreamSketcher, JoinQuery, RateGrid, ReferenceEpochShedder, Sampled,
    ScanSketcher, Summary,
};
use sss_datagen::{DiscreteAlias, TpchGenerator, ZipfGenerator};
use sss_moments::FrequencyVector;
use sss_sampling::without_replacement::PrefixScan;
use sss_stream::Throughput;
use sss_stream::{ControllerConfig, Partition, RateController, RuntimeConfig, ShardedRuntime};
use std::time::{Duration, Instant};

/// Common workload parameters of the Bernoulli (Figures 3–4) sweeps.
#[derive(Debug, Clone)]
pub struct BernoulliSweep {
    /// Tuples per relation.
    pub tuples: usize,
    /// Key domain size.
    pub domain: usize,
    /// F-AGMS buckets.
    pub buckets: usize,
    /// Repetitions per cell.
    pub reps: usize,
    /// Sampling probabilities to test (1.0 = full stream).
    pub probabilities: Vec<f64>,
    /// Zipf skews to sweep.
    pub skews: Vec<f64>,
    /// RNG seed.
    pub seed: u64,
}

/// One cell of a skew × probability error grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Zipf skew of the workload.
    pub skew: f64,
    /// Sampling probability.
    pub p: f64,
    /// Mean absolute relative error over the repetitions.
    pub error: f64,
}

/// Figure 3 procedure: size-of-join error between two independently drawn
/// Zipf relations, sketched over Bernoulli samples.
pub fn bernoulli_sj_sweep(cfg: &BernoulliSweep) -> Vec<SweepPoint> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut out = Vec::new();
    for &skew in &cfg.skews {
        let gen = ZipfGenerator::new(cfg.domain, skew);
        let mut errors = vec![0.0; cfg.probabilities.len()];
        for _ in 0..cfg.reps {
            let f_stream = gen.relation(cfg.tuples, &mut rng);
            let g_stream = gen.relation(cfg.tuples, &mut rng);
            let truth = FrequencyVector::from_keys(f_stream.iter().copied(), cfg.domain).dot(
                &FrequencyVector::from_keys(g_stream.iter().copied(), cfg.domain),
            );
            let schema = JoinSchema::fagms(1, cfg.buckets, &mut rng);
            for (pi, &p) in cfg.probabilities.iter().enumerate() {
                let mut fs = Sampled::new(schema.sketch(), p, &mut rng).expect("valid probability");
                let mut gs = Sampled::new(schema.sketch(), p, &mut rng).expect("valid probability");
                for &k in &f_stream {
                    fs.observe(k);
                }
                for &k in &g_stream {
                    gs.observe(k);
                }
                let est = fs.size_of_join_estimate(&gs).expect("shared schema").value;
                errors[pi] += ((est - truth) / truth).abs();
            }
        }
        for (pi, &p) in cfg.probabilities.iter().enumerate() {
            out.push(SweepPoint {
                skew,
                p,
                error: errors[pi] / cfg.reps as f64,
            });
        }
    }
    out
}

/// Figure 4 procedure: self-join size error of one Zipf relation, sketched
/// over Bernoulli samples.
pub fn bernoulli_sjs_sweep(cfg: &BernoulliSweep) -> Vec<SweepPoint> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut out = Vec::new();
    for &skew in &cfg.skews {
        let gen = ZipfGenerator::new(cfg.domain, skew);
        let mut errors = vec![0.0; cfg.probabilities.len()];
        for _ in 0..cfg.reps {
            let stream = gen.relation(cfg.tuples, &mut rng);
            let truth = FrequencyVector::from_keys(stream.iter().copied(), cfg.domain).self_join();
            let schema = JoinSchema::fagms(1, cfg.buckets, &mut rng);
            for (pi, &p) in cfg.probabilities.iter().enumerate() {
                let mut s = Sampled::new(schema.sketch(), p, &mut rng).expect("valid probability");
                for &k in &stream {
                    s.observe(k);
                }
                errors[pi] += ((s.self_join_estimate().value - truth) / truth).abs();
            }
        }
        for (pi, &p) in cfg.probabilities.iter().enumerate() {
            out.push(SweepPoint {
                skew,
                p,
                error: errors[pi] / cfg.reps as f64,
            });
        }
    }
    out
}

/// Parameters of the with-replacement (Figures 5–6) sweeps.
#[derive(Debug, Clone)]
pub struct WrSweep {
    /// Population size each generative model represents.
    pub population: u64,
    /// Key domain size.
    pub domain: usize,
    /// F-AGMS buckets.
    pub buckets: usize,
    /// Repetitions per fraction.
    pub reps: usize,
    /// Zipf skew of the populations.
    pub skew: f64,
    /// Sample-size fractions of the population to test.
    pub fractions: Vec<f64>,
    /// RNG seed.
    pub seed: u64,
}

/// Figure 5 procedure: size-of-join error vs WR sample fraction, two
/// i.i.d. streams from the same Zipf law.
pub fn wr_sj_sweep(cfg: &WrSweep) -> Vec<(f64, f64)> {
    let weights = ZipfGenerator::new(cfg.domain, cfg.skew).expected_frequencies(cfg.population);
    let freqs = FrequencyVector::from_counts(weights.clone());
    let truth = freqs.dot(&freqs);
    let model = DiscreteAlias::new(&weights);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    cfg.fractions
        .iter()
        .map(|&frac| {
            let m = ((frac * cfg.population as f64) as u64).max(2);
            let mut err = 0.0;
            for _ in 0..cfg.reps {
                let schema = JoinSchema::fagms(1, cfg.buckets, &mut rng);
                let mut fs =
                    IidStreamSketcher::new(&schema, cfg.population).expect("population > 0");
                let mut gs =
                    IidStreamSketcher::new(&schema, cfg.population).expect("population > 0");
                for _ in 0..m {
                    fs.observe(model.sample(&mut rng));
                    gs.observe(model.sample(&mut rng));
                }
                let est = fs.size_of_join(&gs).expect("non-empty samples");
                err += ((est - truth) / truth).abs();
            }
            (frac, err / cfg.reps as f64)
        })
        .collect()
}

/// Figure 6 procedure: self-join error vs WR sample fraction.
pub fn wr_sjs_sweep(cfg: &WrSweep) -> Vec<(f64, f64)> {
    let weights = ZipfGenerator::new(cfg.domain, cfg.skew).expected_frequencies(cfg.population);
    let truth = FrequencyVector::from_counts(weights.clone()).self_join();
    let model = DiscreteAlias::new(&weights);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    cfg.fractions
        .iter()
        .map(|&frac| {
            let m = ((frac * cfg.population as f64) as u64).max(2);
            let mut err = 0.0;
            for _ in 0..cfg.reps {
                let schema = JoinSchema::fagms(1, cfg.buckets, &mut rng);
                let mut s =
                    IidStreamSketcher::new(&schema, cfg.population).expect("population > 0");
                for _ in 0..m {
                    s.observe(model.sample(&mut rng));
                }
                err += ((s.self_join().expect("m >= 2") - truth) / truth).abs();
            }
            (frac, err / cfg.reps as f64)
        })
        .collect()
}

/// Parameters of the without-replacement / TPC-H (Figures 7–8) sweeps.
#[derive(Debug, Clone)]
pub struct WorSweep {
    /// Mini-dbgen scale factor.
    pub scale: f64,
    /// F-AGMS buckets.
    pub buckets: usize,
    /// Repetitions (fresh scan order + schema each).
    pub reps: usize,
    /// Scan rates to snapshot at (ascending, each in (0, 1]).
    pub rates: Vec<f64>,
    /// RNG seed.
    pub seed: u64,
}

/// Figure 7 procedure: `lineitem ⋈ orders` error vs WOR scan rate.
pub fn wor_join_sweep(cfg: &WorSweep) -> Vec<(f64, f64)> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let tables = TpchGenerator::new(cfg.scale).generate(&mut rng);
    let truth = tables.join_size();
    let mut sums = vec![0.0; cfg.rates.len()];
    for _ in 0..cfg.reps {
        let schema = JoinSchema::fagms(1, cfg.buckets, &mut rng);
        let l_scan = PrefixScan::new(tables.lineitem.clone(), &mut rng);
        let o_scan = PrefixScan::new(tables.orders.clone(), &mut rng);
        let mut l = ScanSketcher::new(&schema, l_scan.len() as u64).expect("non-empty");
        let mut o = ScanSketcher::new(&schema, o_scan.len() as u64).expect("non-empty");
        let mut li = 0usize;
        let mut oi = 0usize;
        for (ri, &rate) in cfg.rates.iter().enumerate() {
            let lt = ((rate * l_scan.len() as f64) as usize).min(l_scan.len());
            let ot = ((rate * o_scan.len() as f64) as usize).min(o_scan.len());
            while li < lt {
                l.observe(l_scan.tuples()[li]).expect("within population");
                li += 1;
            }
            while oi < ot {
                o.observe(o_scan.tuples()[oi]).expect("within population");
                oi += 1;
            }
            let est = l.size_of_join(&o).expect("non-empty scans");
            sums[ri] += ((est - truth) / truth).abs();
        }
    }
    cfg.rates
        .iter()
        .zip(sums)
        .map(|(&r, s)| (r, s / cfg.reps as f64))
        .collect()
}

/// Figure 8 procedure: `F₂(lineitem.l_orderkey)` error vs WOR scan rate.
pub fn wor_sjs_sweep(cfg: &WorSweep) -> Vec<(f64, f64)> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let tables = TpchGenerator::new(cfg.scale).generate(&mut rng);
    let truth = tables.lineitem_self_join();
    let mut sums = vec![0.0; cfg.rates.len()];
    for _ in 0..cfg.reps {
        let schema = JoinSchema::fagms(1, cfg.buckets, &mut rng);
        let scan = PrefixScan::new(tables.lineitem.clone(), &mut rng);
        let mut s = ScanSketcher::new(&schema, scan.len() as u64).expect("non-empty");
        let mut idx = 0usize;
        for (ri, &rate) in cfg.rates.iter().enumerate() {
            let target = ((rate * scan.len() as f64) as usize).min(scan.len());
            while idx < target {
                s.observe(scan.tuples()[idx]).expect("within population");
                idx += 1;
            }
            sums[ri] += ((s.self_join().expect("enough tuples") - truth) / truth).abs();
        }
    }
    cfg.rates
        .iter()
        .zip(sums)
        .map(|(&r, s)| (r, s / cfg.reps as f64))
        .collect()
}

/// Drive a quantized [`RateController`] with a thrashing two-band load for
/// `changes` batches, applying each emitted rate to both the compacted
/// [`EpochShedder`] and the uncompacted [`ReferenceEpochShedder`] (one
/// epoch per change) and feeding `batch_len` tuples per change. The two
/// shedders are identically seeded, so they hold the same sample — only
/// their epoch bookkeeping differs. Returns the shedders plus the
/// controller's `distinct_rate_bound()`.
///
/// Shared by the `epoch_query` Criterion bench and the `epoch_monitor`
/// acceptance binary so both measure the same workload.
pub fn epoch_churn(
    schema: &JoinSchema,
    changes: usize,
    batch_len: usize,
    seed: u64,
) -> (EpochShedder, ReferenceEpochShedder, usize) {
    let mut controller = RateController::new(ControllerConfig {
        capacity_tps: 1e4,
        smoothing: 0.5,
        hysteresis: 0.1,
        min_p: 1e-3,
        grid: RateGrid::default(),
    });
    let bound = controller.distinct_rate_bound();
    let mut seed_a = StdRng::seed_from_u64(seed);
    let mut seed_b = StdRng::seed_from_u64(seed);
    let mut compact = EpochShedder::new(schema, 1.0, &mut seed_a).expect("valid p");
    let mut reference = ReferenceEpochShedder::new(schema, 1.0, &mut seed_b).expect("valid p");
    for i in 0..changes {
        // Two drifting bands 100× apart: the smoothed rate swings past the
        // hysteresis dead-band on every batch, so p changes each time.
        let rate = if i % 2 == 0 {
            10_000 * (1 + (i % 13) as u64)
        } else {
            1_000_000 * (1 + (i % 7) as u64)
        };
        let p = controller.observe_batch(rate, 1.0);
        compact.set_probability(p, &mut seed_a).expect("valid p");
        reference.set_probability(p, &mut seed_b).expect("valid p");
        let batch: Vec<u64> = (0..batch_len as u64)
            .map(|j| (j * 13 + i as u64) % 1000)
            .collect();
        compact.feed_batch(&batch);
        reference.feed_batch(&batch);
    }
    (compact, reference, bound)
}

/// A [`JoinQuery`] that models a *latency-bound* sink: every batch
/// pays a fixed pause (a downstream commit, a synchronous write, a remote
/// round-trip) before the in-memory sketch update.
///
/// The sharded-runtime speedup story has two regimes. When the sink is
/// CPU-bound, shards only help with as many cores as the host exposes.
/// When the sink is latency-bound, the pauses of different shard workers
/// overlap in wall-clock time — `thread::sleep` yields the core — so the
/// runtime scales with the shard count even on a single core. This
/// wrapper makes the second regime measurable with a controlled,
/// reproducible latency.
#[derive(Debug, Clone)]
pub struct PacedSketch {
    inner: JoinSketch,
    pause: Duration,
}

impl PacedSketch {
    /// A paced sketch over `schema` paying `pause` per batch.
    pub fn new(schema: &JoinSchema, pause: Duration) -> Self {
        Self {
            inner: schema.sketch(),
            pause,
        }
    }
}

impl Summary for PacedSketch {
    fn update(&mut self, key: u64, count: i64) {
        self.inner.update(key, count);
    }

    fn update_batch(&mut self, keys: &[u64]) {
        // The simulated commit latency — paid per batch, like a real
        // downstream acknowledgement would be.
        std::thread::sleep(self.pause);
        self.inner.update_batch(keys);
    }

    fn merge_from(&mut self, other: &Self) -> sss_core::Result<()> {
        self.inner.merge(&other.inner)
    }
}

impl JoinQuery for PacedSketch {
    fn self_join_estimate(&self) -> Estimate {
        self.inner.raw_self_join_estimate()
    }

    fn size_of_join_estimate(&self, other: &Self) -> sss_core::Result<Estimate> {
        self.inner.raw_size_of_join_estimate(&other.inner)
    }
}

/// Parameters of the sharded-runtime scaling experiment.
#[derive(Debug, Clone)]
pub struct ShardedScalingConfig {
    /// Total tuples pushed through the runtime per measurement.
    pub tuples: usize,
    /// Key domain size.
    pub domain: usize,
    /// F-AGMS buckets of the shard sketches.
    pub buckets: usize,
    /// Tuples per pushed batch.
    pub batch: usize,
    /// Bounded per-shard queue depth, in batches.
    pub queue_depth: usize,
    /// Shard counts to measure (the first is the speedup baseline).
    pub shard_counts: Vec<usize>,
    /// Simulated per-batch sink latency of the `latency_bound` series, µs.
    pub pause_us: u64,
    /// RNG seed.
    pub seed: u64,
}

/// One measured cell of the scaling experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingPoint {
    /// `"cpu_bound"` (plain sketch sink) or `"latency_bound"`
    /// ([`PacedSketch`] sink).
    pub workload: &'static str,
    /// Shard workers used.
    pub shards: usize,
    /// End-to-end ingest rate (push + final merge).
    pub tuples_per_sec: f64,
    /// Speedup over the series' first shard count.
    pub speedup: f64,
    /// The runtime's own merged throughput gauge
    /// ([`ShardedRuntime::tuples_per_sec`]), read after the last push.
    /// Unlike `tuples_per_sec` it excludes the final merge but includes
    /// pool spawn, and counts only tuples the workers had *applied* at the
    /// moment of reading (the last queue's worth may still be draining).
    pub gauge_tuples_per_sec: f64,
    /// Highest enqueued-or-in-flight count on any shard
    /// ([`ShardedRuntime::queue_high_water`]) — the memory bound actually
    /// touched during the run.
    pub queue_high_water: usize,
}

/// Instantaneous runtime-gauge readings taken right before the final
/// merge (see [`ScalingPoint::gauge_tuples_per_sec`] for the semantics).
struct RuntimeGauges {
    tuples_per_sec: f64,
    queue_high_water: usize,
}

/// Push `stream` through a fresh sharded runtime and merge at the end,
/// returning the merged estimator, the wall-clock measurement, and the
/// runtime's own gauges as of just before the merge.
fn sharded_run<E: Summary + JoinQuery>(
    prototype: &E,
    config: RuntimeConfig,
    stream: &[u64],
    batch: usize,
) -> (E, Throughput, RuntimeGauges) {
    let mut rt = ShardedRuntime::new(config, prototype).expect("valid runtime config");
    let handle = rt.query_handle();
    let mut merged = None;
    let mut gauges = None;
    let t = Throughput::measure(stream.len() as u64, || {
        for chunk in stream.chunks(batch) {
            rt.push(chunk).expect("no shard died");
        }
        merged = Some(rt.into_merged().expect("merge after shutdown"));
        // Read the gauges through the handle *after* the merge: the
        // snapshot floor quiesces every shard, so `tuples_ingested`
        // covers the whole stream. Reading before the merge raced the
        // workers — coalesced applies can still be in flight when the
        // producer finishes pushing.
        gauges = Some(RuntimeGauges {
            tuples_per_sec: handle.tuples_per_sec(),
            queue_high_water: handle.queue_high_water(),
        });
    });
    (
        merged.expect("measured closure ran"),
        t,
        gauges.expect("measured closure ran"),
    )
}

/// The sharded-runtime scaling experiment behind `BENCH_sharded_runtime`:
/// ingest the same stream at each shard count, for a CPU-bound sink and a
/// latency-bound ([`PacedSketch`]) sink, verifying along the way that
/// every merged result is **bit-identical** to the sequential sketch.
///
/// CPU-bound scaling is capped by the host's cores; latency-bound scaling
/// is not (sleeps overlap), which is what a sink with downstream I/O
/// latency looks like. Both series are reported so the numbers stay
/// honest on any host.
pub fn sharded_scaling(cfg: &ShardedScalingConfig) -> Vec<ScalingPoint> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let schema = JoinSchema::fagms(1, cfg.buckets, &mut rng);
    let stream: Vec<u64> = (0..cfg.tuples as u64)
        .map(|i| (i.wrapping_mul(2654435761)) % cfg.domain as u64)
        .collect();
    let mut sequential = schema.sketch();
    sequential.update_batch(&stream);
    let expect = sequential.raw_self_join_estimate().value.to_bits();
    let pause = Duration::from_micros(cfg.pause_us);
    let mut out = Vec::new();
    for workload in ["cpu_bound", "latency_bound"] {
        let mut baseline: Option<f64> = None;
        for &shards in &cfg.shard_counts {
            let config = RuntimeConfig {
                shards,
                queue_depth: cfg.queue_depth,
                partition: Partition::RoundRobin,
            };
            let (estimate_bits, t, gauges) = if workload == "cpu_bound" {
                let (merged, t, g) = sharded_run(&schema.sketch(), config, &stream, cfg.batch);
                (merged.raw_self_join_estimate().value.to_bits(), t, g)
            } else {
                let proto = PacedSketch::new(&schema, pause);
                let (merged, t, g) = sharded_run(&proto, config, &stream, cfg.batch);
                (merged.self_join_estimate().value.to_bits(), t, g)
            };
            assert_eq!(
                estimate_bits, expect,
                "{workload}/{shards} shards must reproduce the sequential sketch bit for bit"
            );
            let tps = t.tuples_per_sec();
            let base = *baseline.get_or_insert(tps);
            out.push(ScalingPoint {
                workload,
                shards,
                tuples_per_sec: tps,
                speedup: tps / base,
                gauge_tuples_per_sec: gauges.tuples_per_sec,
                queue_high_water: gauges.queue_high_water,
            });
        }
    }
    out
}

/// Parameters of the queries-under-ingest experiment: at-all-times
/// `merged()` polling interleaved with a full-rate ingest.
#[derive(Debug, Clone)]
pub struct QueriesUnderIngestConfig {
    /// Total tuples pushed through the runtime per mode.
    pub tuples: usize,
    /// Key domain size.
    pub domain: usize,
    /// F-AGMS buckets of the shard sketches.
    pub buckets: usize,
    /// Tuples per pushed batch.
    pub batch: usize,
    /// Bounded per-shard queue depth, in batches.
    pub queue_depth: usize,
    /// Shard workers.
    pub shards: usize,
    /// Ingest pause points at which query bursts run.
    pub checkpoints: usize,
    /// `merged()` calls per burst — the at-all-times poller asking faster
    /// than data arrives, so all but the first call in a burst repeat an
    /// unchanged state.
    pub queries_per_burst: usize,
    /// RNG seed.
    pub seed: u64,
}

/// One measured mode of the queries-under-ingest experiment.
///
/// First and repeated queries are reported separately because they
/// measure different things: the *first* query of a burst must quiesce
/// the ingest backlog (every queued batch is applied before the snapshot
/// floor is reached — a cost both modes pay identically, set by the ring
/// depth and the sketch, not the query path), while *repeated* queries
/// measure the query mechanism itself — the cached mode serves them from
/// the snapshot cache without touching a worker, the full barrier
/// re-clones every shard through a parked-worker round trip each time.
#[derive(Debug, Clone, PartialEq)]
pub struct QueriesPoint {
    /// `"cached"` ([`ShardedRuntime::merged`], the snapshot cache) or
    /// `"full_barrier"` ([`ShardedRuntime::merged_uncached`], the
    /// pre-cache behaviour: every shard cloned per query).
    pub mode: &'static str,
    /// Total queries issued across all bursts.
    pub queries: u64,
    /// Mean cost of the first query of each burst, µs (dominated by the
    /// backlog quiesce; mode-independent).
    pub first_query_us: f64,
    /// Mean cost of the repeated queries of each burst, µs — the
    /// steady-state cost of asking again when little or nothing changed.
    pub repeat_query_us: f64,
    /// Mean over all queries, µs.
    pub mean_query_us: f64,
    /// Wall-clock spent inside queries, seconds.
    pub total_query_secs: f64,
    /// End-to-end ingest rate with the query load riding along.
    pub ingest_tuples_per_sec: f64,
    /// Cache hits (zero-dirty queries) — 0 for the full-barrier mode.
    pub cache_hits: u64,
    /// Shard clones actually paid, against `queries × shards` for the
    /// full barrier.
    pub shards_refreshed: u64,
}

/// The queries-under-ingest experiment behind the
/// `queries_under_ingest` series of `BENCH_sharded_runtime.json`:
/// interleave bursts of at-all-times `merged()` queries with a full-rate
/// ingest, once through the snapshot cache and once through
/// the pre-cache full barrier, asserting every answer bit-identical to
/// the sequential sketch of the prefix pushed so far.
///
/// Within a burst the stream does not advance, so the cached mode pays
/// one re-merge (cloning only the dirty shards) and then pure cache hits,
/// while the full barrier re-clones every shard on every call — the continuous-tracking
/// workload (Huang–Tai–Yi) where per-query recomputation loses.
pub fn queries_under_ingest(cfg: &QueriesUnderIngestConfig) -> Vec<QueriesPoint> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let schema = JoinSchema::fagms(1, cfg.buckets, &mut rng);
    let stream: Vec<u64> = (0..cfg.tuples as u64)
        .map(|i| (i.wrapping_mul(2654435761)) % cfg.domain as u64)
        .collect();
    let config = RuntimeConfig {
        shards: cfg.shards,
        queue_depth: cfg.queue_depth,
        partition: Partition::RoundRobin,
    };
    let batches = stream.len().div_ceil(cfg.batch);
    let burst_every = (batches / cfg.checkpoints.max(1)).max(1);
    let mut out = Vec::new();
    for mode in ["cached", "full_barrier"] {
        let mut rt = ShardedRuntime::new(config, &schema.sketch()).expect("valid runtime config");
        // The running sequential sketch each burst is checked against.
        let mut sequential = schema.sketch();
        let mut first_time = Duration::ZERO;
        let mut repeat_time = Duration::ZERO;
        let mut firsts = 0u64;
        let mut repeats = 0u64;
        let t = Throughput::measure(stream.len() as u64, || {
            for (i, chunk) in stream.chunks(cfg.batch).enumerate() {
                rt.push(chunk).expect("no shard died");
                sequential.update_batch(chunk);
                if (i + 1) % burst_every != 0 {
                    continue;
                }
                let expect = sequential.raw_self_join_estimate().value.to_bits();
                for q in 0..cfg.queries_per_burst {
                    let start = Instant::now();
                    let merged = if mode == "cached" {
                        rt.merged()
                    } else {
                        rt.merged_uncached()
                    }
                    .expect("query answered");
                    let elapsed = start.elapsed();
                    if q == 0 {
                        first_time += elapsed;
                        firsts += 1;
                    } else {
                        repeat_time += elapsed;
                        repeats += 1;
                    }
                    assert_eq!(
                        merged.raw_self_join_estimate().value.to_bits(),
                        expect,
                        "{mode}: at-all-times answer must equal the pushed prefix"
                    );
                }
            }
        });
        let stats = rt.cache_stats();
        drop(rt);
        let queries = firsts + repeats;
        let total = first_time + repeat_time;
        out.push(QueriesPoint {
            mode,
            queries,
            first_query_us: first_time.as_secs_f64() * 1e6 / firsts.max(1) as f64,
            repeat_query_us: repeat_time.as_secs_f64() * 1e6 / repeats.max(1) as f64,
            mean_query_us: total.as_secs_f64() * 1e6 / queries.max(1) as f64,
            total_query_secs: total.as_secs_f64(),
            ingest_tuples_per_sec: t.tuples_per_sec(),
            cache_hits: stats.hits,
            shards_refreshed: stats.shards_refreshed,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bernoulli_sweeps_have_the_papers_shape() {
        let cfg = BernoulliSweep {
            tuples: 60_000,
            domain: 5_000,
            buckets: 2_000,
            reps: 4,
            probabilities: vec![0.01, 0.1, 1.0],
            skews: vec![0.0, 1.0],
            seed: 1,
        };
        for points in [bernoulli_sj_sweep(&cfg), bernoulli_sjs_sweep(&cfg)] {
            assert_eq!(points.len(), 6);
            assert!(points
                .iter()
                .all(|pt| pt.error.is_finite() && pt.error >= 0.0));
            // At skew 0, a 10% sample is close to the full stream while a
            // 1% sample is clearly worse.
            let get = |skew: f64, p: f64| {
                points
                    .iter()
                    .find(|pt| pt.skew == skew && pt.p == p)
                    .expect("cell exists")
                    .error
            };
            assert!(
                get(0.0, 0.01) > get(0.0, 1.0),
                "1% should trail the full stream"
            );
            assert!(
                get(0.0, 0.1) < 3.0 * get(0.0, 1.0) + 0.05,
                "10% should be near the full stream"
            );
        }
    }

    #[test]
    fn wr_sweeps_stabilize_with_fraction() {
        let cfg = WrSweep {
            population: 50_000,
            domain: 4_000,
            buckets: 2_000,
            reps: 4,
            skew: 1.0,
            fractions: vec![0.002, 0.1, 0.5],
            seed: 2,
        };
        for series in [wr_sj_sweep(&cfg), wr_sjs_sweep(&cfg)] {
            assert_eq!(series.len(), 3);
            let (tiny, big) = (series[0].1, series[2].1);
            assert!(tiny > big, "error must shrink with the sample: {series:?}");
        }
    }

    #[test]
    fn epoch_churn_thrashes_the_reference_but_not_the_compacted() {
        let mut rng = StdRng::seed_from_u64(9);
        let schema = JoinSchema::agms(4, &mut rng);
        let (compact, reference, bound) = epoch_churn(&schema, 120, 50, 10);
        assert!(
            reference.epoch_count() > 100,
            "the workload must change rates nearly every batch, got {}",
            reference.epoch_count()
        );
        assert!(compact.epoch_count() <= bound);
        assert_eq!(compact.kept(), reference.kept(), "identical samples");
        assert_eq!(
            compact.self_join().expect("query"),
            compact.self_join_uncached().expect("query"),
        );
    }

    /// The scaling procedure itself asserts bit-identity at every cell;
    /// here we additionally pin the output shape and that the
    /// latency-bound series actually benefits from shards even when the
    /// host has a single core (sleep overlap, not parallel compute).
    #[test]
    fn sharded_scaling_is_exact_and_latency_series_scales() {
        let cfg = ShardedScalingConfig {
            tuples: 60_000,
            domain: 2_000,
            buckets: 512,
            batch: 2_000,
            queue_depth: 4,
            shard_counts: vec![1, 4],
            pause_us: 2_000,
            seed: 11,
        };
        let points = sharded_scaling(&cfg);
        assert_eq!(points.len(), 4);
        for pt in &points {
            assert!(pt.tuples_per_sec > 0.0 && pt.speedup > 0.0, "{pt:?}");
            assert!(pt.gauge_tuples_per_sec > 0.0, "{pt:?}");
            assert!(
                pt.queue_high_water >= 1 && pt.queue_high_water <= cfg.queue_depth + 1,
                "{pt:?}"
            );
        }
        let latency_4 = points
            .iter()
            .find(|pt| pt.workload == "latency_bound" && pt.shards == 4)
            .expect("cell exists");
        assert!(
            latency_4.speedup > 1.5,
            "4-shard latency-bound speedup only {:.2}x",
            latency_4.speedup
        );
    }

    /// The queries-under-ingest procedure asserts bit-identity of every
    /// burst answer internally; here we pin the accounting: the cached
    /// mode turns the repeated calls of each burst into cache hits and
    /// refreshes far fewer shard clones than the full barrier pays.
    #[test]
    fn queries_under_ingest_cached_mode_mostly_hits() {
        let cfg = QueriesUnderIngestConfig {
            tuples: 40_000,
            domain: 2_000,
            buckets: 256,
            batch: 1_000,
            queue_depth: 4,
            shards: 4,
            checkpoints: 5,
            queries_per_burst: 8,
            seed: 17,
        };
        let points = queries_under_ingest(&cfg);
        assert_eq!(points.len(), 2);
        let cached = &points[0];
        let barrier = &points[1];
        assert_eq!(cached.mode, "cached");
        assert_eq!(barrier.mode, "full_barrier");
        assert_eq!(cached.queries, barrier.queries);
        assert!(cached.queries >= 40);
        // Each burst pays at most one dirty refresh; the remaining
        // queries_per_burst - 1 calls repeat an unchanged state.
        assert!(
            cached.cache_hits >= cached.queries - cached.queries / cfg.queries_per_burst as u64 - 1,
            "{cached:?}"
        );
        assert_eq!(barrier.cache_hits, 0, "{barrier:?}");
        assert!(
            cached.shards_refreshed < cached.queries,
            "cached mode must clone fewer shards than it has queries: {cached:?}"
        );
        assert!(cached.mean_query_us > 0.0 && barrier.mean_query_us > 0.0);
        // The mechanism under test: repeated queries served from cache
        // never touch a worker, while the barrier round-trips all of
        // them. (The exact ratio is the recorded benchmark; here we only
        // pin the direction so the smoke test stays robust on any host.)
        assert!(
            cached.repeat_query_us < barrier.repeat_query_us,
            "cached repeats {:.2}us vs barrier {:.2}us",
            cached.repeat_query_us,
            barrier.repeat_query_us
        );
    }

    #[test]
    fn wor_sweeps_converge_along_the_scan() {
        let cfg = WorSweep {
            scale: 0.002,
            buckets: 2_000,
            reps: 4,
            rates: vec![0.02, 0.5, 1.0],
            seed: 3,
        };
        for series in [wor_join_sweep(&cfg), wor_sjs_sweep(&cfg)] {
            assert_eq!(series.len(), 3);
            assert!(
                series[0].1 > series[2].1,
                "early-scan error must exceed full-scan error: {series:?}"
            );
        }
    }
}
