//! The load-shedding comparison pipeline: full-stream sketching vs
//! sketching a Bernoulli sample.
//!
//! This is the apparatus behind the paper's speed-up claims (§I, §VII-E):
//! run the *same* stream through (a) a sketch that ingests every tuple and
//! (b) a [`Sampled`] join sketch that ingests a p-sample via geometric
//! skips, then compare wall-clock cost and estimate quality.

use crate::throughput::Throughput;
use rand::Rng;
use sss_core::sketch::JoinSchema;
use sss_core::{Result, Sampled};

/// Results of one comparison run.
#[derive(Debug, Clone)]
pub struct ShedderReport {
    /// Shedding probability used.
    pub p: f64,
    /// Throughput of the full-stream sketch.
    pub full: Throughput,
    /// Throughput of the shedded sketch.
    pub shedded: Throughput,
    /// Tuples the shedded pipeline actually sketched.
    pub kept: u64,
    /// Self-join estimate from the full sketch.
    pub full_estimate: f64,
    /// Self-join estimate from the shedded sketch (bias-corrected).
    pub shedded_estimate: f64,
}

impl ShedderReport {
    /// Wall-clock speed-up of shedding over full sketching.
    pub fn speedup(&self) -> f64 {
        self.shedded.speedup_over(&self.full)
    }

    /// Relative disagreement of the two estimates.
    pub fn estimate_gap(&self) -> f64 {
        if self.full_estimate == 0.0 {
            return f64::INFINITY;
        }
        ((self.shedded_estimate - self.full_estimate) / self.full_estimate).abs()
    }
}

/// Pairs a full sketch and a shedded sketch over one schema.
#[derive(Debug)]
pub struct ShedderComparison {
    schema: JoinSchema,
}

impl ShedderComparison {
    /// Use the given schema for both pipelines.
    pub fn new(schema: JoinSchema) -> Self {
        Self { schema }
    }

    /// Run `stream` through both pipelines and report.
    pub fn run<R: Rng>(&self, stream: &[u64], p: f64, rng: &mut R) -> Result<ShedderReport> {
        let mut full_sketch = self.schema.sketch();
        let full = Throughput::measure(stream.len() as u64, || {
            for &k in stream {
                full_sketch.update(k, 1);
            }
        });
        let mut shed = Sampled::new(self.schema.sketch(), p, rng)?;
        let shedded = Throughput::measure(stream.len() as u64, || {
            for &k in stream {
                shed.observe(k);
            }
        });
        Ok(ShedderReport {
            p,
            full,
            shedded,
            kept: shed.kept(),
            full_estimate: full_sketch.raw_self_join_estimate().value,
            shedded_estimate: shed.self_join_estimate().value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn stream() -> Vec<u64> {
        (0..400_000u64).map(|i| i % 2000).collect()
    }

    #[test]
    fn report_compares_the_same_truth() {
        let mut rng = StdRng::seed_from_u64(21);
        let cmp = ShedderComparison::new(JoinSchema::fagms(1, 5000, &mut rng));
        let report = cmp.run(&stream(), 0.1, &mut rng).unwrap();
        // 2000 keys × 200 copies → F₂ = 8·10⁷.
        let truth = 2000.0 * 200.0 * 200.0;
        assert!((report.full_estimate - truth).abs() / truth < 0.05);
        assert!((report.shedded_estimate - truth).abs() / truth < 0.10);
        assert!(report.estimate_gap() < 0.15);
        // Roughly 10% of the stream was kept.
        let frac = report.kept as f64 / 400_000.0;
        assert!((frac - 0.1).abs() < 0.01, "kept fraction {frac}");
    }

    #[test]
    fn aggressive_shedding_processes_fewer_tuples() {
        let mut rng = StdRng::seed_from_u64(22);
        let cmp = ShedderComparison::new(JoinSchema::fagms(1, 2000, &mut rng));
        let r1 = cmp.run(&stream(), 0.5, &mut rng).unwrap();
        let r001 = cmp.run(&stream(), 0.01, &mut rng).unwrap();
        assert!(r001.kept < r1.kept / 10);
    }

    #[test]
    fn shedding_is_faster_for_expensive_sketches() {
        // AGMS with many counters makes the per-update cost dominant, so
        // the 1/p work reduction must show up as wall-clock speed-up.
        let mut rng = StdRng::seed_from_u64(23);
        let cmp = ShedderComparison::new(JoinSchema::agms(64, &mut rng));
        let small: Vec<u64> = (0..40_000u64).map(|i| i % 500).collect();
        let report = cmp.run(&small, 0.05, &mut rng).unwrap();
        assert!(
            report.speedup() > 3.0,
            "expected a clear speed-up, got {:.2}×",
            report.speedup()
        );
    }

    #[test]
    fn invalid_probability_propagates() {
        let mut rng = StdRng::seed_from_u64(24);
        let cmp = ShedderComparison::new(JoinSchema::agms(4, &mut rng));
        assert!(cmp.run(&[1, 2, 3], 0.0, &mut rng).is_err());
    }
}
