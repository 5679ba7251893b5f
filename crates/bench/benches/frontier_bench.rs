//! Per-YES hierarchy-regeneration cost: the full best-first walk from the
//! index root vs. the incremental candidate frontier (`FrontierPool`), on
//! 5k- and 20k-sentence corpora.
//!
//! The protocol replays the adaptive loop's growth pattern: starting from a
//! seed rule's coverage, each simulated YES accepts the best candidate that
//! still adds new positives and regenerates the pool — exactly the
//! regeneration the engine performs per YES answer. The full path re-walks
//! from the root each step; the pooled path journals the YES's new ids and
//! regenerates from its memoized frontier (the timed span includes the
//! dirty-delta application — that *is* the per-YES cost). Outputs are
//! asserted byte-identical at every step; the bench is meaningless
//! otherwise.
//!
//! Besides the criterion report, running this bench rewrites
//! `BENCH_frontier.json` at the repo root (see BENCHES.md for the schema).

use criterion::{criterion_group, criterion_main, Criterion};
use darwin_core::candidates::{generate_scored, Candidate};
use darwin_core::FrontierPool;
use darwin_datasets::directions;
use darwin_grammar::Heuristic;
use darwin_index::{IdSet, IndexConfig, IndexSet};
use std::time::Instant;

const K: usize = 2000;
const YES_STEPS: usize = 12;
/// Whole-sequence replays per corpus; each step reports its median across
/// replays (a pooled regeneration mutates the pool, so per-step repeats
/// inside one replay would not measure the dirty-delta application).
const REPLAYS: usize = 5;

struct Fixture {
    corpus: darwin_text::Corpus,
    index: IndexSet,
    /// `P` before each YES step, and the ids that step adds.
    p_before: Vec<IdSet>,
    new_ids: Vec<Vec<u32>>,
    n: usize,
    max_count: usize,
}

fn fixture(n: usize) -> Fixture {
    let d = directions::generate(n, 42);
    let index = IndexSet::build(
        &d.corpus,
        &IndexConfig {
            max_phrase_len: 4,
            min_count: 2,
            ..Default::default()
        },
    );
    let seed = Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap();
    let mut p = IdSet::from_ids(&seed.coverage(&d.corpus), n);
    let max_count = n / 2;

    // Pre-compute the YES sequence, mirroring Algorithm 1's oracle: per
    // step, the best-ranked candidate that still adds positives *and*
    // clears the 0.8-precision bar against the ground-truth labels is
    // accepted and its coverage joins P. (Gating on precision keeps the
    // per-YES dirty batches at the sizes a real run produces — a
    // hypothetical oracle that said YES to the broadest rules would flood
    // in a quarter of the corpus per question, which no precision-bounded
    // annotator does.)
    let precise = |c: &Candidate| {
        let cov = index.coverage(c.rule);
        let pos = cov.iter().filter(|&&id| d.labels[id as usize]).count();
        pos as f64 / cov.len() as f64 >= 0.8
    };
    let mut p_before = Vec::with_capacity(YES_STEPS);
    let mut new_ids = Vec::with_capacity(YES_STEPS);
    for _ in 0..YES_STEPS {
        p_before.push(p.clone());
        let cands = generate_scored(&index, &p, K, max_count);
        let accepted = cands
            .iter()
            .find(|c| c.count > c.overlap && precise(c))
            .expect("growth sequence exhausted the corpus early");
        let fresh: Vec<u32> = index
            .coverage(accepted.rule)
            .iter()
            .copied()
            .filter(|&id| !p.contains(id))
            .collect();
        p.extend_from_slice(&fresh);
        new_ids.push(fresh);
    }
    Fixture {
        corpus: d.corpus,
        index,
        p_before,
        new_ids,
        n,
        max_count,
    }
}

fn assert_same(a: &[Candidate], b: &[Candidate], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: candidate counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(
            (x.rule, x.overlap, x.count),
            (y.rule, y.overlap, y.count),
            "{label}: pooled and full walks diverged"
        );
    }
}

fn time_ns<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let t = Instant::now();
    let r = criterion::black_box(f());
    (t.elapsed().as_nanos() as u64, r)
}

/// One YES step's timings: the full walk, and the incremental path split
/// into its two phases (dirty-delta flush + memoized replay).
#[derive(Clone, Copy, Default)]
struct StepTimes {
    full_ns: u64,
    delta_ns: u64,
    replay_ns: u64,
}

/// Per-step regeneration medians for one corpus, across `REPLAYS` replays
/// of the whole sequence.
fn measure(f: &Fixture) -> Vec<StepTimes> {
    let mut samples: Vec<Vec<StepTimes>> = vec![Vec::new(); YES_STEPS];
    for _ in 0..REPLAYS {
        let mut pool = FrontierPool::new();
        // Prime on the seed-only positives — the engine builds its first
        // hierarchy before any question is asked, so per-YES costs start
        // from a warm pool, exactly as in a run.
        let primed = pool.generate_scored(&f.corpus, &f.index, &f.p_before[0], K, f.max_count);
        assert_same(
            &primed,
            &generate_scored(&f.index, &f.p_before[0], K, f.max_count),
            "priming",
        );
        for (step, samples) in samples.iter_mut().enumerate() {
            // P after this YES = p_before[step] + new_ids[step].
            let mut p = f.p_before[step].clone();
            p.extend_from_slice(&f.new_ids[step]);

            let (full_ns, reference) = time_ns(|| generate_scored(&f.index, &p, K, f.max_count));
            pool.note_positives(&f.new_ids[step]);
            let (delta_ns, ()) = time_ns(|| pool.sync(&f.corpus, &f.index, &p));
            let (replay_ns, pooled) =
                time_ns(|| pool.generate_scored(&f.corpus, &f.index, &p, K, f.max_count));
            assert_same(&pooled, &reference, &format!("step {step}"));
            samples.push(StepTimes {
                full_ns,
                delta_ns,
                replay_ns,
            });
        }
        assert_eq!(pool.stats().full_rebuilds, 0, "per-YES deltas sufficed");
    }
    let median = |mut v: Vec<u64>| {
        v.sort_unstable();
        v[v.len() / 2]
    };
    samples
        .into_iter()
        .map(|s| StepTimes {
            full_ns: median(s.iter().map(|t| t.full_ns).collect()),
            delta_ns: median(s.iter().map(|t| t.delta_ns).collect()),
            replay_ns: median(s.iter().map(|t| t.replay_ns).collect()),
        })
        .collect()
}

fn bench_frontier(c: &mut Criterion) {
    let host_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut blocks = Vec::new();
    for n in [5_000usize, 20_000] {
        let f = fixture(n);
        println!(
            "frontier_bench fixture: {} sentences, {} YES steps, k = {K}",
            f.n, YES_STEPS
        );

        // Criterion entries on the final (largest-P) step, for the report.
        let last = YES_STEPS - 1;
        let mut p_last = f.p_before[last].clone();
        p_last.extend_from_slice(&f.new_ids[last]);
        let mut g = c.benchmark_group(format!("frontier_regen_{n}"));
        g.sample_size(10);
        g.bench_function("full_walk", |b| {
            b.iter(|| generate_scored(&f.index, &p_last, K, f.max_count))
        });
        g.bench_function("incremental", |b| {
            // Warm pool, no dirty ids: the steady-state replay cost.
            let mut pool = FrontierPool::new();
            pool.generate_scored(&f.corpus, &f.index, &p_last, K, f.max_count);
            b.iter(|| pool.generate_scored(&f.corpus, &f.index, &p_last, K, f.max_count))
        });
        g.finish();

        let per_step = measure(&f);
        let median = |mut v: Vec<u64>| {
            v.sort_unstable();
            v[v.len() / 2]
        };
        let full_med = median(per_step.iter().map(|t| t.full_ns).collect());
        let incr_med = median(per_step.iter().map(|t| t.delta_ns + t.replay_ns).collect());
        let speedup = full_med as f64 / incr_med as f64;
        println!(
            "n={n}: full regen median {full_med} ns, incremental {incr_med} ns ({speedup:.1}x)"
        );
        let rows: Vec<String> = per_step
            .iter()
            .enumerate()
            .map(|(s, t)| {
                format!(
                    "        {{\"yes_step\": {}, \"new_positive_ids\": {}, \"full_regen_ns\": {}, \"incremental_regen_ns\": {}, \"delta_flush_ns\": {}, \"replay_ns\": {}}}",
                    s + 1,
                    f.new_ids[s].len(),
                    t.full_ns,
                    t.delta_ns + t.replay_ns,
                    t.delta_ns,
                    t.replay_ns
                )
            })
            .collect();
        blocks.push(format!(
            "    {{\n      \"corpus_sentences\": {n},\n      \"k_candidates\": {K},\n      \"yes_steps\": {YES_STEPS},\n      \"full_regen_median_ns\": {full_med},\n      \"incremental_regen_median_ns\": {incr_med},\n      \"speedup\": {speedup:.2},\n      \"per_yes\": [\n{}\n      ]\n    }}",
            rows.join(",\n")
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"frontier_regen\",\n  \"host_threads\": {host_threads},\n  \"outputs_bit_identical_full_vs_incremental\": true,\n  \"corpora\": [\n{}\n  ]\n}}\n",
        blocks.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_frontier.json");
    std::fs::write(path, &json).expect("write BENCH_frontier.json");
    println!("frontier_bench: recorded BENCH_frontier.json");
}

criterion_group!(benches, bench_frontier);
criterion_main!(benches);
