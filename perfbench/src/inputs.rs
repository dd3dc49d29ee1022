//! Workload inputs: a pre-generated key block, replayed as 512-key
//! batches, and the exact frequencies of whatever prefix of the replay
//! was sent.
//!
//! Generating the block up front keeps the generator's per-batch work to
//! handing out a slice, so the measured time is the system's, and the
//! same seed always gives the same inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sss_datagen::ZipfGenerator;
use sss_exact::ExactAggregator;

/// Keys per batch, as in `net_ingest`.
pub const BATCH: usize = 512;

/// A key block replayed cyclically in [`BATCH`]-key batches.
pub struct Stream {
    block: Vec<u64>,
}

impl Stream {
    /// `keys` uniform keys over `0..domain`.
    pub fn uniform(seed: u64, keys: usize, domain: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut block = Vec::with_capacity(whole_batches(keys));
        block.extend((0..whole_batches(keys)).map(|_| rng.random_range(0..domain)));
        Self { block }
    }

    /// `keys` Zipf(`skew`) keys over `0..domain`.
    pub fn zipf(seed: u64, keys: usize, domain: usize, skew: f64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let zipf = ZipfGenerator::new(domain, skew);
        let mut block = Vec::with_capacity(whole_batches(keys));
        block.extend((0..whole_batches(keys)).map(|_| zipf.sample(&mut rng)));
        Self { block }
    }

    pub fn batches_per_block(&self) -> u64 {
        (self.block.len() / BATCH) as u64
    }

    /// The `index`-th batch of the replay.
    pub fn batch(&self, index: u64) -> &[u64] {
        let start = (index % self.batches_per_block()) as usize * BATCH;
        &self.block[start..start + BATCH]
    }

    /// Exact frequencies of the first `batches` batches of the replay.
    pub fn exact(&self, batches: u64) -> ExactAggregator {
        let per_block = self.batches_per_block();
        let (cycles, rest) = (batches / per_block, (batches % per_block) as usize);
        let mut exact = ExactAggregator::new();
        if cycles > 0 {
            for (key, count) in ExactAggregator::from_keys(self.block.iter().copied()).iter() {
                exact.update(key, count * cycles as i64);
            }
        }
        for &key in &self.block[..rest * BATCH] {
            exact.update(key, 1);
        }
        exact
    }
}

fn whole_batches(keys: usize) -> usize {
    (keys / BATCH).max(1) * BATCH
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_cycles_and_exact_counts_what_was_sent() {
        let s = Stream::uniform(7, 3 * BATCH + 5, 100);
        assert_eq!(s.batches_per_block(), 3);
        assert_eq!(s.batch(4), s.batch(1));
        let sent = 7;
        let mut direct = ExactAggregator::new();
        for i in 0..sent {
            for &k in s.batch(i) {
                direct.update(k, 1);
            }
        }
        let replayed = s.exact(sent);
        assert_eq!(replayed.total(), direct.total());
        assert_eq!(replayed.self_join(), direct.self_join());
        assert_eq!(replayed.top_k(5), direct.top_k(5));
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(
            Stream::zipf(3, 4096, 1000, 1.2).block,
            Stream::zipf(3, 4096, 1000, 1.2).block
        );
        assert_ne!(
            Stream::zipf(3, 4096, 1000, 1.2).block,
            Stream::zipf(4, 4096, 1000, 1.2).block
        );
    }
}
