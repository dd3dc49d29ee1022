//! Sliding-window sketching via panes.
//!
//! A plain sketch summarizes the stream *since the beginning*; stream
//! monitoring usually wants "the last W tuples". Because sketches are
//! linear, the standard paned-window construction applies directly: split
//! the window into `P` panes, keep one sub-sketch per pane in a ring, and
//! answer queries by merging the live panes. Pane sizes cycle through
//! `⌈W/P⌉` and `⌊W/P⌋` so that any `P` consecutive panes cover *exactly*
//! `W` tuples (no silent window shrinkage when `P ∤ W`), and a full pane
//! is evicted as soon as keeping it would push the covered suffix past
//! `W`. The answer therefore covers the last `W′` tuples with
//! `W − ⌈W/P⌉ < W′ ≤ W` — a granularity (not accuracy) error of at most
//! one pane, traded against `P×` sketch memory.
//!
//! Composes with everything else in the workspace: the panes can sit
//! behind a Bernoulli shedder (scale the final estimate as usual), and the
//! merged window sketch supports joins against any sketch of the same
//! schema — e.g. "join of the last minute of F against the last minute of
//! G".

use sss_core::sketch::{JoinSchema, JoinSketch};
use sss_core::Result;
use std::collections::VecDeque;

/// A count-based sliding-window sketch; see the module docs.
#[derive(Debug, Clone)]
pub struct PanedWindowSketch {
    schema: JoinSchema,
    /// Completed panes with their tuple counts, oldest first; at most
    /// `panes` entries.
    ring: VecDeque<(JoinSketch, u64)>,
    /// Tuples across the completed panes in `ring`.
    full_count: u64,
    current: JoinSketch,
    current_count: u64,
    window: u64,
    panes: usize,
    /// Which pane of the size schedule `current` is filling; pane `i`
    /// (mod `panes`) targets `⌊W/P⌋ + 1` tuples for `i < W mod P`, else
    /// `⌊W/P⌋`, so every `panes` consecutive panes sum to exactly `window`.
    next_pane: usize,
}

impl PanedWindowSketch {
    /// A window of `window` tuples split into `panes` panes.
    ///
    /// # Panics
    ///
    /// Panics unless `panes ≥ 1` and `window ≥ panes` (each pane must hold
    /// at least one tuple).
    pub fn new(schema: &JoinSchema, window: u64, panes: usize) -> Self {
        assert!(panes >= 1, "need at least one pane");
        assert!(
            window >= panes as u64,
            "window must hold at least one tuple per pane"
        );
        Self {
            schema: schema.clone(),
            ring: VecDeque::with_capacity(panes),
            full_count: 0,
            current: schema.sketch(),
            current_count: 0,
            window,
            panes,
            next_pane: 0,
        }
    }

    /// Tuples the pane at schedule position `idx` must hold.
    fn pane_target(&self, idx: usize) -> u64 {
        let base = self.window / self.panes as u64;
        let remainder = self.window % self.panes as u64;
        base + u64::from((idx as u64) < remainder)
    }

    /// Ingest the next stream tuple.
    pub fn update(&mut self, key: u64) {
        // Evict before admitting: completed panes plus the growing current
        // pane never cover more than `window` tuples.
        while self.full_count + self.current_count + 1 > self.window {
            let (_, count) = self
                .ring
                .pop_front()
                .expect("overflow implies a completed pane to evict");
            self.full_count -= count;
        }
        self.current.update(key, 1);
        self.current_count += 1;
        if self.current_count == self.pane_target(self.next_pane) {
            let full = std::mem::replace(&mut self.current, self.schema.sketch());
            self.ring.push_back((full, self.current_count));
            self.full_count += self.current_count;
            self.current_count = 0;
            self.next_pane = (self.next_pane + 1) % self.panes;
        }
    }

    /// Tuples currently covered by the window: always `≤ window`, and
    /// within one pane of it (`> window − ⌈window/panes⌉`) once the stream
    /// has warmed up.
    pub fn covered(&self) -> u64 {
        self.full_count + self.current_count
    }

    /// The merged sketch of the covered suffix.
    pub fn window_sketch(&self) -> Result<JoinSketch> {
        let mut merged = self.current.clone();
        for (pane, _) in &self.ring {
            merged.merge(pane)?;
        }
        Ok(merged)
    }

    /// Self-join size estimate of the covered suffix.
    pub fn self_join(&self) -> Result<f64> {
        Ok(self.window_sketch()?.raw_self_join_estimate().value)
    }

    /// Size-of-join estimate between this window and another (same
    /// schema).
    pub fn size_of_join(&self, other: &PanedWindowSketch) -> Result<f64> {
        let a = self.window_sketch()?;
        let b = other.window_sketch()?;
        Ok(a.raw_size_of_join_estimate(&b)?.value)
    }

    /// The memory footprint in panes (completed panes plus the current
    /// one) — bounded by `panes + 1` regardless of stream length.
    pub fn pane_count(&self) -> usize {
        self.ring.len() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn exact_f2(keys: &[u64]) -> f64 {
        let mut m: HashMap<u64, u64> = HashMap::new();
        for &k in keys {
            *m.entry(k).or_insert(0) += 1;
        }
        m.values().map(|&c| (c * c) as f64).sum()
    }

    #[test]
    fn window_tracks_the_suffix_not_the_stream() {
        let mut rng = StdRng::seed_from_u64(1);
        let schema = JoinSchema::fagms(1, 4096, &mut rng);
        let mut w = PanedWindowSketch::new(&schema, 10_000, 10);
        // Phase 1: keys 0..100; phase 2 (much longer): keys 1000..1100.
        let mut stream: Vec<u64> = (0..30_000u64).map(|i| i % 100).collect();
        stream.extend((0..30_000u64).map(|i| 1000 + i % 100));
        for &k in &stream {
            w.update(k);
        }
        // The window covers only phase-2 tuples now.
        let covered = w.covered() as usize;
        assert!(covered <= 10_000 && covered > 9_000, "covered = {covered}");
        let truth = exact_f2(&stream[stream.len() - covered..]);
        let est = w.self_join().unwrap();
        assert!(
            (est - truth).abs() / truth < 0.1,
            "est = {est}, truth = {truth}"
        );
        // And it no longer sees phase 1: a full-stream sketch would be ~4×.
        let full_truth = exact_f2(&stream);
        assert!(est < full_truth / 2.0);
    }

    /// The documented coverage bound, exactly: never more than `window`,
    /// and never a full pane behind once warmed up.
    #[test]
    fn memory_is_bounded() {
        let mut rng = StdRng::seed_from_u64(2);
        let schema = JoinSchema::agms(4, &mut rng);
        let mut w = PanedWindowSketch::new(&schema, 100, 4);
        for k in 0..100_000u64 {
            w.update(k);
            assert!(w.pane_count() <= 5, "pane count exceeded at tuple {k}");
            assert!(
                w.covered() <= 100,
                "covered {} > window at {k}",
                w.covered()
            );
            if k >= 100 {
                assert!(
                    w.covered() > 100 - 25,
                    "covered {} fell a full pane behind at {k}",
                    w.covered()
                );
            }
        }
    }

    /// A window that panes don't divide evenly must still cover the full
    /// `window` tuples, not silently `panes · ⌊window/panes⌋`.
    #[test]
    fn uneven_panes_cover_the_whole_window() {
        let mut rng = StdRng::seed_from_u64(6);
        let schema = JoinSchema::agms(4, &mut rng);
        // 10 / 3 truncates to 3 per pane; the schedule must hand the
        // remainder out so coverage still reaches 10.
        let mut w = PanedWindowSketch::new(&schema, 10, 3);
        for k in 0..10u64 {
            w.update(k);
        }
        assert_eq!(w.covered(), 10, "warm window must cover exactly `window`");
        for k in 10..10_000u64 {
            w.update(k);
            let covered = w.covered();
            assert!(covered <= 10, "covered {covered} > window at {k}");
            // One (largest) pane of slack: 10 − ⌈10/3⌉ = 6.
            assert!(covered > 6, "covered {covered} ≤ bound at {k}");
        }
    }

    #[test]
    fn warmup_covers_everything() {
        let mut rng = StdRng::seed_from_u64(3);
        let schema = JoinSchema::fagms(1, 1024, &mut rng);
        let mut w = PanedWindowSketch::new(&schema, 1_000, 10);
        let stream: Vec<u64> = (0..500u64).map(|i| i % 20).collect();
        for &k in &stream {
            w.update(k);
        }
        // Stream shorter than the window: nothing expired.
        assert_eq!(w.covered(), 500);
        let est = w.self_join().unwrap();
        let truth = exact_f2(&stream);
        assert!(
            (est - truth).abs() / truth < 0.15,
            "est = {est}, truth = {truth}"
        );
    }

    #[test]
    fn windowed_join_between_streams() {
        let mut rng = StdRng::seed_from_u64(4);
        let schema = JoinSchema::fagms(1, 4096, &mut rng);
        let mut wf = PanedWindowSketch::new(&schema, 5_000, 5);
        let mut wg = PanedWindowSketch::new(&schema, 5_000, 5);
        // Old epochs disjoint; recent epochs overlap on keys 0..50.
        for i in 0..20_000u64 {
            wf.update(10_000 + i % 50);
            wg.update(20_000 + i % 50);
        }
        for i in 0..5_000u64 {
            wf.update(i % 50);
            wg.update(i % 50);
        }
        // Recent windows: both hold keys 0..50 ×(covered/50).
        let est = wf.size_of_join(&wg).unwrap();
        let cf = wf.covered() as f64 / 50.0;
        let cg = wg.covered() as f64 / 50.0;
        let truth = 50.0 * cf * cg;
        assert!(
            (est - truth).abs() / truth < 0.15,
            "est = {est}, truth = {truth}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one tuple per pane")]
    fn degenerate_window_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        let schema = JoinSchema::agms(2, &mut rng);
        let _ = PanedWindowSketch::new(&schema, 3, 10);
    }
}
