//! Parallel rule discovery with a crowd of annotators (paper §1, §4.3).
//!
//! Three annotators answer different, coverage-diverse questions each
//! round (`run_async` in waves of three over an `AnnotatorPool`); a second
//! run uses a majority-vote crowd oracle with the paper's
//! 2¢-per-evaluation cost model.
//!
//! ```sh
//! cargo run --release --example parallel_annotators
//! ```

use darwin::core::{AnnotatorPool, MajorityOracle};
use darwin::datasets::directions;
use darwin::prelude::*;

fn main() {
    let data = directions::generate(6000, 42);
    let index = IndexSet::build(
        &data.corpus,
        &IndexConfig {
            max_phrase_len: 5,
            min_count: 2,
            ..Default::default()
        },
    );
    let cfg = DarwinConfig {
        budget: 30,
        n_candidates: 3000,
        batch: BatchPolicy::Fixed(3), // one question per annotator per round
        ..Default::default()
    };
    let darwin = Darwin::new(&data.corpus, &index, cfg);
    let seed = Heuristic::phrase(&data.corpus, data.seed_rules[0]).unwrap();

    // --- three annotators answering in parallel -------------------------
    let mut annotators = AnnotatorPool::new(vec![
        GroundTruthOracle::new(&data.labels, 0.8),
        GroundTruthOracle::new(&data.labels, 0.8),
        GroundTruthOracle::new(&data.labels, 0.8),
    ]);
    let out = darwin.run_async(Seed::Rule(seed.clone()), &mut annotators);
    let per_annotator: Vec<usize> = annotators
        .annotators()
        .iter()
        .map(|a| a.queries())
        .collect();
    println!(
        "parallel (3 annotators × {} rounds): {} questions {:?}, {} retrains, {} accepted, recall {:.2}",
        out.report.waves,
        out.run.questions(),
        per_annotator,
        out.report.retrains,
        out.run.accepted.len(),
        coverage(&out.run.positives, &data.labels)
    );
    // Wall-clock accounting: rounds of concurrent annotation at the
    // paper's 23 s per answer — a third of the one-at-a-time human time.
    println!(
        "  ≈ {} s of wall-clock annotation time at 23 s/answer",
        out.report.waves * 23
    );

    // --- crowd oracle: majority of three noisy workers ------------------
    let w1 = Box::new(SampledAnnotatorOracle::new(&data.labels, 5, 1));
    let w2 = Box::new(SampledAnnotatorOracle::new(&data.labels, 5, 2));
    let w3 = Box::new(SampledAnnotatorOracle::new(&data.labels, 5, 3));
    let mut crowd = MajorityOracle::new(vec![w1, w2, w3]);
    let run2 = darwin.run(Seed::Rule(seed), &mut crowd);
    println!(
        "crowd majority (3 × k=5 workers): {} questions, recall {:.2}, cost ${:.2}",
        run2.questions(),
        coverage(&run2.positives, &data.labels),
        crowd.cost_cents() as f64 / 100.0
    );
}
