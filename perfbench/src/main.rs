//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <wire_ingest|read_your_writes|sampled_inproc|all> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` records spans around every layer call, runs the per-layer
//! ledger, writes the spans to `perfbench/out/` and prints the per-layer
//! metrics. Either way a run's report ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`; `--workload all` runs
//! the three workloads in turn, one report each. `--smoke`
//! runs every workload, untraced and traced, at reduced scale and exits
//! non-zero if any check fails. See `perfbench/README.md`.

mod inputs;
mod json;
mod ledger;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::time::Duration;
use trace::Tracer;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 3] = [
    ("ingest_mtps", "Mtuple/s"),
    ("query_p50_us", "us"),
    ("setup_s", "s"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("host.available_parallelism", "count"),
    ("query_p90_us", "us"),
    ("query_p99_us", "us"),
    ("mem.rss_growth_mb", "MB"),
    ("xi.cw4_sign_ns", "ns"),
    ("xi.cw2_bucket_ns", "ns"),
    ("sketch.fagms.update_ns", "ns"),
    ("sketch.topk.update_ns", "ns"),
    ("sketch.hll.update_ns", "ns"),
    ("sketch.kll.update_ns", "ns"),
    ("core.multi.update_ns", "ns"),
    ("core.multi.residual_ns", "ns"),
    ("core.sampled.p1.update_ns", "ns"),
    ("core.sampled.p0_1.update_ns", "ns"),
    ("core.sampled.p0_01.update_ns", "ns"),
    ("core.sampled.kept_frac", "ratio"),
    ("core.sampled.speedup_p1_over_p0_1", "x"),
    ("stream.runtime.push_ns", "ns"),
    ("stream.runtime.push_p99_us", "us"),
    ("stream.runtime.queue_high_water", "count"),
    ("stream.runtime.shard_skew", "ratio"),
    ("stream.runtime.pool_alloc_growth", "count"),
    ("net.protocol.write_batch_ns", "ns"),
    ("net.protocol.decode_batch_ns", "ns"),
    ("net.client.send_batch_p99_us", "us"),
    ("net.client.sync_rtt_us", "us"),
    ("net.wire_residual_ns", "ns"),
    ("core.multi.merge_us", "us"),
    ("core.slim.project_us", "us"),
    ("core.slim.encode_us", "us"),
    ("core.slim.decode_us", "us"),
    ("core.slim.bytes", "bytes"),
    ("core.portable.fat_bytes", "bytes"),
    ("stream.snapshot.merged_us", "us"),
    ("stream.snapshot.full_rebuilds", "count"),
    ("stream.snapshot.cache_hits", "count"),
    ("net.query.self_join_us", "us"),
    ("net.query.topk_us", "us"),
    ("net.query.distinct_us", "us"),
    ("net.query.quantile_us", "us"),
    ("net.query.reply_bytes", "bytes"),
    ("net.server.batches", "count"),
    ("net.server.protocol_errors", "count"),
    ("net.server.pool_alloc_growth", "count"),
    ("result.f2_rel_err", "ratio"),
    ("result.topk_recall", "ratio"),
    ("result.f0_rel_err", "ratio"),
    ("result.q50_rank_err", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Windows per timed loop.
pub const WINDOWS: u32 = 10;

/// Fewest fresh queries a run makes, so its p99 keeps ten samples beyond it.
pub const MIN_QUERIES: usize = 1000;

pub const WORKLOADS: [&str; 3] = ["wire_ingest", "read_your_writes", "sampled_inproc"];

/// Sizes of everything a run does besides its timed loop.
pub struct Scale {
    /// Keys in the replayed input block.
    pub block_keys: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Untimed batches before the timed loop.
    pub warm_batches: u64,
    /// Batches preloaded into a read-your-writes server, and pushed by the
    /// in-process runtime probe: the two sides of the wire residual.
    pub preload_batches: u64,
    /// Ledger micro-benchmark batches and repetitions.
    pub ledger_batches: u64,
    pub ledger_reps: usize,
    /// Read-path queries of the in-process runtime probe.
    pub probe_queries: usize,
    /// Read-your-writes cycles in the wire probe of a traced in-process run.
    pub probe_cycles: usize,
}

impl Scale {
    fn full() -> Self {
        Self {
            block_keys: 1 << 21,
            setup_reps: 31,
            warm_batches: 2048,
            preload_batches: 4096,
            ledger_batches: 512,
            ledger_reps: 5,
            probe_queries: 200,
            probe_cycles: 400,
        }
    }

    fn smoke() -> Self {
        Self {
            block_keys: 1 << 16,
            setup_reps: 3,
            warm_batches: 64,
            preload_batches: 128,
            ledger_batches: 32,
            ledger_reps: 2,
            probe_queries: 20,
            probe_cycles: 40,
        }
    }
}

/// Operations attempted and failed; a failure is counted, not fatal.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Count one operation; returns `ok`.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("check failed: {}", what());
            }
        }
        ok
    }
}

/// Peak resident-set growth, sampled from `/proc/self/status`.
#[derive(Default)]
pub struct Rss {
    base_kb: u64,
    peak_kb: u64,
}

impl Rss {
    fn now_kb() -> u64 {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("VmRSS:"))
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            })
            .unwrap_or(0)
    }

    pub fn baseline(&mut self) {
        self.base_kb = Self::now_kb();
        self.peak_kb = self.base_kb;
    }

    pub fn sample(&mut self) {
        self.peak_kb = self.peak_kb.max(Self::now_kb());
    }

    pub fn growth_mb(&mut self) -> f64 {
        self.sample();
        (self.peak_kb - self.base_kb) as f64 / 1024.0
    }
}

/// CPU time the hypervisor gave to other guests, from `/proc/stat`.
pub struct Steal {
    steal: u64,
    total: u64,
}

impl Steal {
    pub fn start() -> Self {
        let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks: Vec<u64> = line
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|t| t.parse().ok())
            .collect();
        Self {
            steal: ticks.get(7).copied().unwrap_or(0),
            total: ticks.iter().take(8).sum(),
        }
    }

    /// Stolen share of the CPU time since `start`.
    pub fn share(&self) -> f64 {
        let now = Self::start();
        (now.steal - self.steal) as f64 / (now.total - self.total).max(1) as f64
    }
}

/// One run's state: arguments, checks, tracer and the metrics gathered.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub scale: Scale,
    pub tracer: Tracer,
    pub checks: Checks,
    pub rss: Rss,
    pub metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Ctx {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The timed loop's windows `(length, traced)`. A traced run
    /// alternates untraced and traced windows, so it can report its own
    /// overhead; its end-to-end figures come from the untraced ones.
    pub fn windows(&self) -> Vec<(Duration, bool)> {
        let len = Duration::from_secs_f64(self.seconds) / WINDOWS;
        (0..WINDOWS)
            .map(|i| (len, self.traced && i % 2 == 1))
            .collect()
    }

    /// Fewest fresh queries per window, so the untraced windows together
    /// hold [`MIN_QUERIES`].
    pub fn min_queries_per_window(&self) -> usize {
        let untraced = self.windows().iter().filter(|(_, traced)| !traced).count();
        MIN_QUERIES.div_ceil(untraced)
    }
}

pub fn fatal(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(1);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_value<T: std::str::FromStr>(name: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| fatal(&format!("bad value {value:?} for {name}")))
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let (name, value) = match flag.split_once('=') {
            Some((n, v)) => (n.to_string(), v.to_string()),
            None => (
                flag.clone(),
                it.next()
                    .unwrap_or_else(|| fatal(&format!("{flag} needs a value"))),
            ),
        };
        match name.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = parse_value(&name, &value),
            "--seconds" => args.seconds = parse_value(&name, &value),
            "--trace" => args.trace = parse_value::<u8>(&name, &value) == 1,
            _ => fatal(&format!("unknown argument {name}")),
        }
    }
    if !args.smoke && args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        fatal(&format!("--workload must be `all` or one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        fatal("--seconds must be in (0, 60]");
    }
    args
}

/// Host and build facts recorded with every result.
fn facts(workload: &str, seed: u64, traced: bool) -> Vec<(&'static str, String)> {
    vec![
        ("workload", workload.to_string()),
        ("seed", seed.to_string()),
        ("trace", u8::from(traced).to_string()),
        ("available_parallelism", parallelism().to_string()),
        ("dispatch", sss_xi::Dispatch::get().label().to_string()),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("profile", env!("PERFBENCH_PROFILE").to_string()),
    ]
}

pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run one workload and print its report; returns whether it was correct.
fn run(workload: &str, seed: u64, seconds: f64, traced: bool, scale: Scale) -> bool {
    let mut ctx = Ctx {
        seed,
        seconds,
        traced,
        scale,
        tracer: Tracer::new(traced),
        checks: Checks::default(),
        rss: Rss::default(),
        metrics: BTreeMap::new(),
        notes: Vec::new(),
    };
    let facts = facts(workload, seed, traced);
    for (k, v) in &facts {
        println!("# {k}: {v}");
    }
    match workload {
        "wire_ingest" => workloads::wire_ingest(&mut ctx),
        "read_your_writes" => workloads::read_your_writes(&mut ctx),
        _ => workloads::sampled_inproc(&mut ctx),
    }
    if traced {
        ctx.metric("host.available_parallelism", parallelism() as f64);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{workload}-seed{seed}.spans.jsonl"));
        let written =
            std::fs::create_dir_all(&dir).and_then(|_| ctx.tracer.write_jsonl(&path, &facts));
        if let Err(e) = written {
            fatal(&format!("writing {}: {e}", path.display()));
        }
        ctx.note(format!(
            "spans: {} written to {}",
            ctx.tracer.spans().len(),
            path.display()
        ));
    }
    for line in &ctx.notes {
        println!("# {line}");
    }
    let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in catalogue {
        let value = *ctx
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload} did not measure {name}"));
        ctx.checks
            .record(value.is_finite(), || format!("{name} is not finite"));
        let value = if value.is_finite() { value } else { 0.0 };
        println!("# {name} = {value} {unit}");
        fields.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json::quote(name),
            json::quote(unit)
        ));
    }
    let correct = ctx.checks.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        ctx.checks.attempted,
        ctx.checks.failed,
        fields.join(",")
    );
    correct
}

fn main() {
    let args = parse_args();
    if args.smoke {
        let mut all = true;
        for workload in WORKLOADS {
            for traced in [false, true] {
                all &= run(workload, args.seed, 1.0, traced, Scale::smoke());
            }
        }
        if !all {
            fatal("smoke run failed a check");
        }
        return;
    }
    for workload in WORKLOADS
        .into_iter()
        .filter(|w| args.workload == "all" || args.workload == *w)
    {
        run(workload, args.seed, args.seconds, args.trace, Scale::full());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;

    /// `BENCHMARK.json` names exactly the metrics this binary prints, with
    /// the same units.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let bench = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            bench
                .array(key)
                .expect("metric list")
                .iter()
                .map(|m| match (m.get("name"), m.get("unit")) {
                    (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
                    _ => panic!("metric without name or unit"),
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let names: Vec<String> = bench
            .array("workloads")
            .expect("workloads")
            .iter()
            .map(|w| match w.get("name") {
                Some(Json::Str(n)) => n.clone(),
                _ => panic!("workload without name"),
            })
            .collect();
        assert_eq!(names, WORKLOADS);
    }
}
