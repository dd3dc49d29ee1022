//! Change detection over sliding windows: "did the traffic mix shift in
//! the last minute?"
//!
//! Two composable pieces from this workspace:
//!
//! * [`PanedWindowSketch`] keeps a bounded-memory sketch of the most
//!   recent W tuples;
//! * `Sketch::subtract` turns two window sketches into a sketch of their
//!   frequency *difference*, whose self-join estimate is the squared L2
//!   distance — the standard sketch-based change statistic.
//!
//! The demo streams steady traffic, snapshots the window, injects an
//! anomaly (a hot key burst), and watches the L2 distance between the
//! current window and the snapshot jump.
//!
//! ```text
//! cargo run --release --example change_detection
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketch_sampled_streams::core::sketch::JoinSchema;
use sketch_sampled_streams::datagen::ZipfGenerator;
use sketch_sampled_streams::stream::PanedWindowSketch;

fn main() {
    let mut rng = StdRng::seed_from_u64(31);
    let schema = JoinSchema::fagms(3, 4096, &mut rng);
    let window = 50_000u64;
    let mut win = PanedWindowSketch::new(&schema, window, 10);
    let steady = ZipfGenerator::new(10_000, 1.0);

    // Warm up with steady traffic and take a baseline snapshot.
    for _ in 0..2 * window {
        win.update(steady.sample(&mut rng));
    }
    let baseline = win.window_sketch().unwrap();
    let baseline_f2 = baseline.raw_self_join_estimate().value;
    println!("baseline window F₂ ≈ {baseline_f2:.3e}");
    println!(
        "\n{:>10} {:>14} {:>16}",
        "phase", "window F₂", "L2² vs baseline"
    );

    let report = |label: &str, win: &PanedWindowSketch| {
        let mut diff = win.window_sketch().unwrap();
        diff.subtract(&baseline).unwrap();
        println!(
            "{:>10} {:>14.3e} {:>16.3e}",
            label,
            win.window_sketch().unwrap().raw_self_join_estimate().value,
            diff.raw_self_join_estimate().value
        );
    };

    // Phase 1: more steady traffic — distance stays small.
    for _ in 0..window {
        win.update(steady.sample(&mut rng));
    }
    report("steady", &win);

    // Phase 2: anomaly — 20% of traffic becomes a single hot key.
    for i in 0..window {
        let k = if i % 5 == 0 {
            424_242
        } else {
            steady.sample(&mut rng)
        };
        win.update(k);
    }
    report("anomaly", &win);

    // Phase 3: anomaly clears; the window forgets it.
    for _ in 0..window {
        win.update(steady.sample(&mut rng));
    }
    report("recovered", &win);

    println!(
        "\nReading: the L2² statistic sits near sketch noise under steady\n\
         traffic, jumps by orders of magnitude when 20% of the window mass\n\
         moves to one key, and returns once the window slides past the\n\
         anomaly — all in {} counters of memory.",
        4096 * 3 * 11
    );
}
