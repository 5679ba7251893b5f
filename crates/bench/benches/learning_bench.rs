//! Criterion benches: classifiers, benefit scoring and the label model.

use criterion::{criterion_group, criterion_main, Criterion};
use darwin_classifier::{ClassifierKind, TextClassifier};
use darwin_core::benefit::benefit;
use darwin_datasets::{directions, Dataset};
use darwin_index::IdSet;
use darwin_labelmodel::{GenerativeConfig, GenerativeModel, LfMatrix};
use darwin_text::embed::EmbedConfig;
use darwin_text::Embeddings;

/// The first `n_pos` positive and `n_neg` negative ids of `d`.
fn training_ids(d: &Dataset, n_pos: usize, n_neg: usize) -> (Vec<u32>, Vec<u32>) {
    let ids = |label: bool, n: usize| -> Vec<u32> {
        (0..d.len() as u32)
            .filter(|&i| d.labels[i as usize] == label)
            .take(n)
            .collect()
    };
    (ids(true, n_pos), ids(false, n_neg))
}

/// Time `fit` on a training set that changes by one negative every
/// iteration: a warm classifier skips a refit on the set it already holds,
/// so repeating one `(pos, neg)` would time that `return`, not a fit.
fn bench_fit(
    b: &mut criterion::Bencher,
    clf: &mut dyn TextClassifier,
    d: &Dataset,
    emb: &Embeddings,
    (pos, neg): &(Vec<u32>, Vec<u32>),
) {
    let mut sets = [neg[..neg.len() - 1].to_vec(), neg[1..].to_vec()];
    b.iter(|| {
        sets.swap(0, 1);
        clf.fit(&d.corpus, emb, pos, &sets[0])
    });
}

fn bench_classifiers(c: &mut Criterion) {
    let d = directions::generate(3000, 42);
    let emb = Embeddings::train(&d.corpus, &EmbedConfig::default());
    let small = training_ids(&d, 100, 301);

    let mut g = c.benchmark_group("classifier");
    g.sample_size(10);
    g.bench_function("logreg_fit_400", |b| {
        let mut clf = ClassifierKind::logreg().build(&emb, 1);
        bench_fit(b, clf.as_mut(), &d, &emb, &small);
    });
    g.bench_function("cnn_fit_400_4epochs", |b| {
        let mut clf = ClassifierKind::cnn_with_epochs(4).build(&emb, 1);
        bench_fit(b, clf.as_mut(), &d, &emb, &small);
    });

    // The session-shaped pair asks for 580 + 1740 rows, the size of the
    // late fits of `session_bench`'s `directions_logreg`; this 3 000-sentence
    // corpus holds only 114 positives, so it fits 114 + 1740. The cold row
    // is the full-width dense loop, the same-run reference for the
    // active-set one.
    let late = training_ids(&d, 580, 1741);
    let mut warm = ClassifierKind::logreg().build(&emb, 1);
    let mut cold = ClassifierKind::logreg()
        .with_warm_start(false)
        .build(&emb, 1);
    let all: Vec<u32> = (0..d.len() as u32).collect();
    let (mut pw, mut pc) = (Vec::new(), Vec::new());
    warm.fit(&d.corpus, &emb, &late.0, &late.1);
    cold.fit(&d.corpus, &emb, &late.0, &late.1);
    warm.predict_batch(&d.corpus, &emb, &all, &mut pw);
    cold.predict_batch(&d.corpus, &emb, &all, &mut pc);
    assert!(
        pw.iter().zip(&pc).all(|(a, b)| a.to_bits() == b.to_bits()),
        "active-set and dense fits must score bit-identically"
    );
    g.bench_function("logreg_fit_2320", |b| {
        bench_fit(b, warm.as_mut(), &d, &emb, &late);
    });
    g.bench_function("logreg_fit_2320_cold", |b| {
        bench_fit(b, cold.as_mut(), &d, &emb, &late);
    });

    // The stream-shaped fit: 2 700 positives + 8 140 negatives, the size
    // of the final fit of `session_bench`'s `stream_ingest`. Over 10 840
    // rows a rarely used word's bucket goes long between touches, and its
    // Adam lanes decay toward subnormal values there (ARCHITECTURE.md
    // "Subnormal operands in the optimizer"), so this row slows if the
    // optimizer's wide path stops avoiding their microcode assists.
    let big = directions::generate(75_000, 42);
    let big_emb = Embeddings::train(&big.corpus, &EmbedConfig::default());
    let stream = training_ids(&big, 2_700, 8_141);
    assert_eq!((stream.0.len(), stream.1.len()), (2_700, 8_141));
    g.bench_function("logreg_fit_10840", |b| {
        let mut clf = ClassifierKind::logreg().build(&big_emb, 1);
        bench_fit(b, clf.as_mut(), &big, &big_emb, &stream);
    });

    let mut trained = ClassifierKind::logreg().build(&emb, 1);
    trained.fit(&d.corpus, &emb, &small.0, &small.1);
    // One all-ids call, the shape of a full refresh at `threads: 1`.
    g.bench_function("logreg_predict_all_3k", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            trained.predict_batch(&d.corpus, &emb, &all, &mut out)
        });
    });
    g.finish();

    let mut g2 = c.benchmark_group("embeddings");
    g2.sample_size(10);
    g2.bench_function("train_3k_corpus", |b| {
        b.iter(|| Embeddings::train(&d.corpus, &EmbedConfig::default()));
    });
    g2.finish();
}

fn bench_benefit(c: &mut Criterion) {
    let n = 100_000u32;
    let postings: Vec<u32> = (0..n).step_by(7).collect();
    let p = IdSet::from_ids(&(0..n).step_by(13).collect::<Vec<_>>(), n as usize);
    let scores = vec![0.3f32; n as usize];
    c.bench_function("benefit_14k_postings", |b| {
        b.iter(|| benefit(&postings, &p, &scores));
    });
}

fn bench_labelmodel(c: &mut Criterion) {
    let coverages: Vec<Vec<u32>> = (0..20)
        .map(|j| (0..1000u32).filter(|i| (i + j) % 7 == 0).collect())
        .collect();
    let refs: Vec<&[u32]> = coverages.iter().map(|v| v.as_slice()).collect();
    let m = LfMatrix::from_coverages(1000, &refs);
    c.bench_function("generative_em_1000x20", |b| {
        b.iter(|| GenerativeModel::fit(&m, &GenerativeConfig::default()));
    });
}

criterion_group!(benches, bench_classifiers, bench_benefit, bench_labelmodel);
criterion_main!(benches);
