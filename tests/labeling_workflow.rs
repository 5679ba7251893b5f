//! Integration tests for the weak-supervision tail of the pipeline:
//! discovered rules → label model → classifier, plus the baselines'
//! end-to-end contracts.

use darwin::baselines::{ActiveLearning, KeywordSampling};
use darwin::datasets::{musicians, tweets};
use darwin::labelmodel::{majority_vote, GenerativeConfig, GenerativeModel, LfMatrix, Vote};
use darwin::prelude::*;
use darwin_testkit::indexed;

#[test]
fn rules_to_labelmodel_to_classifier() {
    let data = musicians::generate(3000, 9);
    let index = indexed(&data.corpus, 5);
    let cfg = DarwinConfig {
        budget: 30,
        n_candidates: 2500,
        ..Default::default()
    };
    let darwin = Darwin::new(&data.corpus, &index, cfg);
    let seed = Heuristic::phrase(&data.corpus, "composer").unwrap();
    let mut oracle = GroundTruthOracle::new(&data.labels, 0.8);
    let run = darwin.run(Seed::Rule(seed), &mut oracle);
    assert!(run.accepted.len() >= 2);

    // Build the LF matrix from accepted rules and de-noise. Darwin's
    // accepted rules are positive-only labeling functions, so the class
    // prior must be fixed — a free prior lets EM collapse to the
    // "everything is negative" optimum (see `GenerativeConfig::fix_prior`).
    let coverages: Vec<Vec<u32>> = run
        .accepted
        .iter()
        .map(|h| h.coverage(&data.corpus))
        .collect();
    let refs: Vec<&[u32]> = coverages.iter().map(|c| c.as_slice()).collect();
    let matrix = LfMatrix::from_coverages(data.len(), &refs);
    let model = GenerativeModel::fit(
        &matrix,
        &GenerativeConfig {
            fix_prior: true,
            ..Default::default()
        },
    );

    // De-noised positives remain mostly correct.
    let denoised: Vec<u32> = model
        .posteriors()
        .iter()
        .enumerate()
        .filter(|(_, &p)| p >= 0.5)
        .map(|(i, _)| i as u32)
        .collect();
    assert!(!denoised.is_empty());
    let precision = denoised
        .iter()
        .filter(|&&i| data.labels[i as usize])
        .count() as f64
        / denoised.len() as f64;
    assert!(precision >= 0.7, "precision {precision}");

    // Majority vote agrees with the model on clear cases (every rule is a
    // positive voter, so vote=1 wherever any rule fires).
    let mv = majority_vote(&matrix, 0.1);
    for (i, &v) in mv.iter().enumerate() {
        if v == 1.0 {
            assert!(matrix.row(i).any(|x| x == Vote::Positive));
        }
    }

    // Train the downstream classifier on de-noised labels.
    let emb = darwin::text::Embeddings::train(&data.corpus, &Default::default());
    let mut clf = darwin::classifier::ClassifierKind::logreg().build(&emb, 1);
    let negs: Vec<u32> = (0..data.len() as u32)
        .filter(|id| denoised.binary_search(id).is_err())
        .step_by(7)
        .collect();
    clf.fit(&data.corpus, &emb, &denoised, &negs);
    let all: Vec<u32> = (0..data.len() as u32).collect();
    let mut scores = Vec::new();
    clf.predict_batch(&data.corpus, &emb, &all, &mut scores);
    let f1 = f1_score(&scores, &data.labels, 0.5);
    assert!(f1 > 0.5, "downstream F1 {f1}");
}

#[test]
fn active_learning_and_keyword_sampling_contracts() {
    let data = tweets::generate(1200, 4);
    let emb = darwin::text::Embeddings::train(&data.corpus, &Default::default());

    let seed: Vec<u32> = data.seed_sample(20, 1);
    let al = ActiveLearning::default().run(&data.corpus, &emb, &seed, &data.labels, 30);
    assert_eq!(al.labeled.len(), seed.len() + 30);
    assert!(al.f1_curve.xs.iter().all(|&x| x <= 30));

    let ks = KeywordSampling::default().run(&data.corpus, &emb, &data.keywords, &data.labels, 30);
    assert!(ks.pool_size > 0);
    assert!(ks.labeled.len() <= 30);
    // Labeled instances all contain a keyword.
    let keys: Vec<_> = data
        .keywords
        .iter()
        .filter_map(|k| data.corpus.vocab().get(k))
        .collect();
    for &id in &ks.labeled {
        assert!(data
            .corpus
            .sentence(id)
            .tokens()
            .iter()
            .any(|t| keys.contains(t)));
    }
}

#[test]
fn tweets_other_intents_also_work() {
    use darwin::datasets::tweets::{generate_intent, Intent};
    for intent in [Intent::Travel, Intent::Career] {
        let data = generate_intent(1500, intent, 8);
        let index = indexed(&data.corpus, 4);
        let cfg = DarwinConfig {
            budget: 25,
            n_candidates: 2000,
            ..Default::default()
        };
        let darwin = Darwin::new(&data.corpus, &index, cfg);
        let seed = Heuristic::phrase(&data.corpus, data.seed_rules[0]).unwrap();
        let mut oracle = GroundTruthOracle::new(&data.labels, 0.8);
        let run = darwin.run(Seed::Rule(seed), &mut oracle);
        let recall = coverage(&run.positives, &data.labels);
        assert!(recall > 0.4, "{intent:?} recall {recall}");
    }
}
