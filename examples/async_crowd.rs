//! The async batched-oracle loop against a simulated slow crowd
//! (paper §4.3: annotator latency dwarfs engine compute).
//!
//! Runs the same discovery task at batch sizes 1 (the synchronous
//! reference), 4 and 8, against an oracle that takes
//! 50 ms per answer, and prints the wall-clock, pipelining depth and
//! §4.3 crowd cost of each.
//!
//! ```sh
//! cargo run --release --example async_crowd
//! ```

use darwin::core::batch::SimulatedLatency;
use darwin::datasets::directions;
use darwin::prelude::*;
use std::time::Duration;

fn main() {
    let data = directions::generate(4000, 42);
    let index = IndexSet::build(
        &data.corpus,
        &IndexConfig {
            max_phrase_len: 5,
            min_count: 2,
            ..Default::default()
        },
    );
    let latency = Duration::from_millis(50);

    for (label, policy) in [
        ("batch 1 (sequential)", BatchPolicy::Fixed(1)),
        ("batch 4", BatchPolicy::Fixed(4)),
        ("batch 8", BatchPolicy::Fixed(8)),
    ] {
        let cfg = DarwinConfig {
            budget: 24,
            n_candidates: 3000,
            batch: policy,
            ..Default::default()
        };
        let darwin = Darwin::new(&data.corpus, &index, cfg);
        let seed = Heuristic::phrase(&data.corpus, data.seed_rules[0]).unwrap();
        let mut oracle = SimulatedLatency::new(GroundTruthOracle::new(&data.labels, 0.8), latency);
        let out = darwin.run_async(Seed::Rule(seed), &mut oracle);
        println!(
            "{label:<22} {:>6.2} s wall  {:>2} waves  peak {:>2} in flight  recall {:.2}  cost ${:.2}",
            out.report.wall_ns as f64 / 1e9,
            out.report.waves,
            out.report.peak_in_flight,
            coverage(&out.run.positives, &data.labels),
            out.report.cost.dollars(),
        );
    }
    println!("\n50 ms × 24 answers = 1.2 s of pure annotator latency; batching overlaps it.");
}
