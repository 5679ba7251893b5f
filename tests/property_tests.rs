//! Property-based tests over the core data structures and the invariants
//! ARCHITECTURE.md argues in its exactness and equivalence sections, plus
//! the incremental benefit engine's delta-maintenance contract.

use darwin::core::benefit::benefit;
use darwin::core::{inproc_shard_connector, BenefitStore, Fanout, ShardedBenefitStore};
use darwin::grammar::{Heuristic, PhraseElem, PhrasePattern, TreePattern};
use darwin::index::{IdSet, IndexConfig, IndexSet, PhraseIndex, RuleRef, ShardMap, TreeIndex};
use darwin::text::depparse::parse;
use darwin::text::pos::Tagger;
use darwin::text::tokenize::tokenize;
use darwin::text::{Columns, Corpus, PosTag, Sym, Vocab};
use darwin_testkit::strategies::{corpus_texts as corpus_strategy, sentence, word};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..Default::default() })]

    /// Index postings must exactly equal brute-force coverage for every
    /// indexed rule, and child coverage must be a subset of the parent's.
    #[test]
    fn index_postings_equal_bruteforce(texts in corpus_strategy()) {
        let corpus = Corpus::from_texts(texts.iter());
        let index = IndexSet::build(&corpus, &IndexConfig::small());
        for rule in index.all_rules().take(400) {
            let h = index.heuristic(rule);
            let brute = h.coverage(&corpus);
            prop_assert_eq!(index.coverage(rule), &brute[..],
                "rule {}", h.display(corpus.vocab()));
            for parent in index.parents(rule) {
                let pc = index.coverage(parent);
                for s in index.coverage(rule) {
                    prop_assert!(
                        parent == darwin::index::RuleRef::Root || pc.contains(s),
                        "parent coverage must contain child coverage"
                    );
                }
            }
        }
    }

    /// Every phrase the sketch enumerates matches its source sentence.
    #[test]
    fn sketch_patterns_match_source(texts in corpus_strategy()) {
        let corpus = Corpus::from_texts(texts.iter());
        for s in corpus.sentences() {
            for gram in darwin::index::sketch::phrase_sketch(s, 4) {
                let p = PhrasePattern::from_tokens(gram);
                prop_assert!(p.matches(s));
            }
            for pat in darwin::index::sketch::tree_sketch(s, &Default::default()) {
                prop_assert!(pat.matches(s), "{}", pat.display(corpus.vocab()));
            }
        }
    }

    /// Phrase parse/display round-trips.
    #[test]
    fn phrase_roundtrip(texts in corpus_strategy(), pattern in prop::collection::vec(word(), 1..5)) {
        let corpus = Corpus::from_texts(texts.iter());
        // Only use words that are in the vocabulary.
        let usable: Vec<&String> = pattern.iter()
            .filter(|w| corpus.vocab().get(w).is_some())
            .collect();
        if usable.is_empty() {
            return Ok(());
        }
        let text = usable.iter().map(|s| s.as_str()).collect::<Vec<_>>().join(" ");
        let p = PhrasePattern::parse(corpus.vocab(), &text).unwrap();
        prop_assert_eq!(p.display(corpus.vocab()), text);
    }

    /// The dependency parse is always a tree: one root, all nodes reach it.
    #[test]
    fn parse_is_always_a_tree(text in sentence()) {
        let corpus = Corpus::from_texts([text]);
        let s = corpus.sentence(0);
        let roots = s.heads().iter().enumerate().filter(|(i, &h)| *i == h as usize).count();
        prop_assert_eq!(roots, 1);
        for start in 0..s.len() {
            let mut cur = start;
            for _ in 0..=s.len() {
                let h = s.heads()[cur] as usize;
                if h == cur { break; }
                cur = h;
            }
            prop_assert_eq!(s.heads()[cur] as usize, cur);
        }
    }

    /// IdSet agrees with a reference HashSet implementation.
    #[test]
    fn idset_matches_reference(ops in prop::collection::vec((0u32..500, prop::bool::ANY), 0..200)) {
        let mut ours = IdSet::with_universe(500);
        let mut reference = std::collections::HashSet::new();
        for (id, insert) in ops {
            if insert {
                prop_assert_eq!(ours.insert(id), reference.insert(id));
            } else {
                prop_assert_eq!(ours.contains(id), reference.contains(&id));
            }
        }
        prop_assert_eq!(ours.len(), reference.len());
        let mut sorted: Vec<u32> = reference.into_iter().collect();
        sorted.sort_unstable();
        prop_assert_eq!(ours.iter().collect::<Vec<_>>(), sorted);
    }

    /// The incremental engine's contract: after ANY random interleaving of
    /// `P` insertions and score retrains (full-epoch rebuilds and
    /// incremental patch journals alike), every tracked rule's aggregate
    /// equals a from-scratch `benefit()` recomputation, bit for bit.
    #[test]
    fn benefit_aggregates_equal_scratch_recomputation(
        texts in corpus_strategy(),
        // Each op: (sentence selector, score in centi-units, kind selector).
        ops in prop::collection::vec((0u32..1000, 0u32..100, 0u32..10), 1..60),
    ) {
        let corpus = Corpus::from_texts(texts.iter());
        let index = IndexSet::build(&corpus, &IndexConfig::small());
        let n = corpus.len();
        let mut p = IdSet::with_universe(n);
        let mut scores: Vec<f32> = (0..n).map(|i| (i as f32 * 0.193).fract()).collect();

        let rules: Vec<RuleRef> = index.all_rules().collect();
        let mut store = BenefitStore::new();
        store.track(rules.iter().copied(), &index, &p, &scores, 1);

        for (raw_id, centi, kind) in ops {
            let id = raw_id % n as u32;
            match kind {
                // Grow P by one new id (no-op when already positive).
                0..=4 => {
                    if !p.contains(id) {
                        store.on_positives_added(&[id], &corpus, &index, &scores);
                        p.insert(id);
                    }
                }
                // Incremental re-score of one sentence (a one-entry
                // ScoreCache change journal).
                5..=8 => {
                    let new = centi as f32 / 100.0;
                    let old = scores[id as usize];
                    store.on_scores_changed(&[(id, old, new)], &p, &corpus, &index);
                    scores[id as usize] = new;
                }
                // Full retrain epoch: every score moves, store rebuilds.
                _ => {
                    for (i, s) in scores.iter_mut().enumerate() {
                        *s = (*s + 0.31 + i as f32 * 0.017).fract();
                    }
                    store.rebuild(&index, &p, &scores, 1);
                }
            }
        }

        for &r in &rules {
            prop_assert_eq!(
                store.benefit_of(r).unwrap(),
                benefit(index.coverage(r), &p, &scores),
                "rule {} drifted", index.heuristic(r).display(corpus.vocab())
            );
        }
    }

    /// The sharded coordinator's contract: after ANY random interleaving
    /// of deltas, the fragments of ANY number of InProc shard workers,
    /// merged, equal the global from-scratch benefit, bit for bit.
    #[test]
    fn sharded_aggregates_equal_scratch_recomputation(
        texts in corpus_strategy(),
        shards in prop::sample::select(vec![2usize, 3, 4, 7]),
        ops in prop::collection::vec((0u32..1000, 0u32..100, 0u32..10), 1..60),
    ) {
        let corpus = Corpus::from_texts(texts.iter());
        let index = IndexSet::build(&corpus, &IndexConfig::small());
        let n = corpus.len();
        let mut p = IdSet::with_universe(n);
        let mut scores: Vec<f32> = (0..n).map(|i| (i as f32 * 0.193).fract()).collect();

        let rules: Vec<RuleRef> = index.all_rules().collect();
        let mut store = ShardedBenefitStore::connect_remote(
            ShardMap::new(n, shards),
            &corpus,
            index.config(),
            &p,
            &scores,
            std::sync::Arc::from(inproc_shard_connector()),
            Fanout::Concurrent,
        )
        .unwrap();
        store.track(&rules, &index, &p, &scores, 2).unwrap();

        for (raw_id, centi, kind) in ops {
            let id = raw_id % n as u32;
            match kind {
                0..=4 => {
                    if !p.contains(id) {
                        store.on_positives_added(&[id], &corpus, &index, &scores).unwrap();
                        p.insert(id);
                    }
                }
                5..=8 => {
                    let new = centi as f32 / 100.0;
                    let old = scores[id as usize];
                    store.on_scores_changed(&[(id, old, new)], &p, &corpus, &index).unwrap();
                    scores[id as usize] = new;
                }
                _ => {
                    for (i, s) in scores.iter_mut().enumerate() {
                        *s = (*s + 0.31 + i as f32 * 0.017).fract();
                    }
                    store.rebuild(&index, &p, &scores, 2).unwrap();
                }
            }
        }

        for &r in &rules {
            prop_assert_eq!(
                store.benefit_of(r).unwrap(),
                benefit(index.coverage(r), &p, &scores),
                "S={}: rule {} drifted", shards, index.heuristic(r).display(corpus.vocab())
            );
        }
        prop_assert!(store.audit_remote().unwrap(), "S={}: mirrors drifted", shards);
        store.shutdown().unwrap();
    }

    /// Gap-pattern matching is monotone: adding a Star never removes matches.
    #[test]
    fn star_insertion_is_monotone(texts in corpus_strategy(), pattern in prop::collection::vec(word(), 1..4)) {
        let corpus = Corpus::from_texts(texts.iter());
        let syms: Vec<Sym> = pattern.iter().filter_map(|w| corpus.vocab().get(w)).collect();
        if syms.len() < 2 {
            return Ok(());
        }
        let tight = PhrasePattern::from_tokens(syms.clone());
        let mut elems: Vec<PhraseElem> = Vec::new();
        for (i, &s) in syms.iter().enumerate() {
            if i > 0 {
                elems.push(PhraseElem::Star);
            }
            elems.push(PhraseElem::Tok(s));
        }
        let loose = PhrasePattern { elems };
        for s in corpus.sentences() {
            if tight.matches(s) {
                prop_assert!(loose.matches(s), "loosening must preserve matches");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..Default::default() })]

    /// Shard determinism over full runs: every (shards, threads) cell of
    /// the S ∈ {1, 2, 4, 7} × T ∈ {1, 4} matrix (S > 1 over InProc shard
    /// workers) replays the exact same question trace and lands on the
    /// exact same final positive set and scores — sharding and threading
    /// are execution details, never observable in the output.
    #[test]
    fn shard_thread_matrix_is_trace_deterministic(
        n in 200usize..320,
        dataset_seed in 0u64..1000,
    ) {
        use darwin::core::{Darwin, DarwinConfig, GroundTruthOracle, RunResult, Seed};
        use darwin::text::embed::EmbedConfig;
        use darwin::text::Embeddings;

        let (d, index) = darwin_testkit::directions_fixture(n, dataset_seed);
        let emb = Embeddings::train(
            &d.corpus,
            &EmbedConfig {
                seed: 42,
                ..Default::default()
            },
        );

        let mut reference: Option<(RunResult, String)> = None;
        for shards in [1usize, 2, 4, 7] {
            for threads in [1usize, 4] {
                let cfg = DarwinConfig {
                    budget: 6,
                    n_candidates: 400,
                    shards,
                    threads,
                    ..DarwinConfig::fast()
                };
                let darwin = darwin_testkit::inproc_shards(Darwin::with_embeddings(
                    &d.corpus,
                    &index,
                    cfg,
                    emb.clone(),
                ));
                let seed = Seed::Rule(Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap());
                let mut oracle = GroundTruthOracle::new(&d.labels, 0.8);
                let run = darwin.run(seed, &mut oracle);
                match &reference {
                    None => reference = Some((run, format!("S={shards} T={threads}"))),
                    Some((r, ref_label)) => {
                        let label = format!("S={shards} T={threads} vs {ref_label}");
                        prop_assert_eq!(run.trace.len(), r.trace.len(), "{}: question count", &label);
                        for (x, y) in run.trace.iter().zip(&r.trace) {
                            prop_assert_eq!(&x.rule, &y.rule, "{}: q{} rule", &label, x.question);
                            prop_assert_eq!(x.answer, y.answer, "{}: q{} answer", &label, x.question);
                            prop_assert_eq!(
                                &x.new_positive_ids, &y.new_positive_ids,
                                "{}: q{} new positives", &label, x.question
                            );
                        }
                        prop_assert_eq!(&run.positives, &r.positives, "{}: final P", &label);
                        prop_assert_eq!(&run.scores, &r.scores, "{}: final scores", &label);
                    }
                }
            }
        }
    }
}

/// Non-proptest invariants that complete the list.
#[test]
fn tree_term_generalization_is_sound() {
    let corpus = Corpus::from_texts(["the storm caused the fire", "lightning caused damage"]);
    let index = IndexSet::build(&corpus, &IndexConfig::small());
    let tree = index.tree_index().expect("tree enabled");
    // Any Term(tok)→Term(POS) edge must be coverage-monotone.
    for id in tree.pat_ids() {
        if let TreePattern::Term(darwin::grammar::TreeTerm::Tok(_)) = tree.pattern(id) {
            for &parent in tree.parents(id) {
                if let TreePattern::Term(darwin::grammar::TreeTerm::Pos(tag)) = tree.pattern(parent)
                {
                    assert!(PosTag::ALL.contains(&tag));
                    let pc = tree.postings(parent);
                    for s in tree.postings(id) {
                        assert!(pc.contains(s));
                    }
                }
            }
        }
    }
}

#[test]
fn heuristic_display_is_reparseable_for_index_rules() {
    let corpus = Corpus::from_texts([
        "what is the best way to get to the airport",
        "is there a shuttle to the hotel",
        "the storm caused the fire downtown",
    ]);
    let index = IndexSet::build(&corpus, &IndexConfig::small());
    for rule in index.all_rules().take(500) {
        let h = index.heuristic(rule);
        let text = h.display(corpus.vocab());
        let reparsed = match &h {
            Heuristic::Phrase(_) => Heuristic::phrase(&corpus, &text),
            Heuristic::Tree(_) => Heuristic::tree(&corpus, &text),
        };
        assert_eq!(reparsed.unwrap(), h, "{text}");
    }
}

/// Scan-based reference for [`Sentence::children`]: the head-array filter
/// scan the corpus-resident CSR adjacency replaced.
fn scan_children(heads: &[u16], i: usize) -> Vec<usize> {
    heads
        .iter()
        .enumerate()
        .filter(|(c, &h)| h as usize == i && *c != i)
        .map(|(c, _)| c)
        .collect()
}

/// Scan-based reference for [`Sentence::descendants`]: the stack walk over
/// `scan_children`, exactly the pre-CSR implementation.
fn scan_descendants(heads: &[u16], i: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut stack = scan_children(heads, i);
    while let Some(x) = stack.pop() {
        out.push(x);
        stack.extend(scan_children(heads, x));
    }
    out
}

/// One sentence with these heads (tokens `0..n`), pushed onto its own
/// columns; read it back with `get(0)`.
fn sentence_with_heads(heads: &[u16]) -> Columns {
    let n = heads.len();
    let tokens: Vec<Sym> = (0..n as u32).map(Sym).collect();
    let mut cols = Columns::new();
    cols.push(&tokens, &vec![PosTag::Noun; n], heads);
    cols
}

/// Fully arbitrary head arrays: self-loops, multiple roots, even cycles —
/// adjacency is a per-node property, so no shape restriction is needed.
fn arbitrary_heads() -> impl Strategy<Value = Vec<u16>> {
    prop::collection::vec(0u16..u16::MAX, 0..24).prop_map(|v| {
        let n = v.len() as u16;
        v.into_iter().map(|r| r % n.max(1)).collect()
    })
}

/// Forest-shaped head arrays (`heads[i] <= i`, roots self-looped): the
/// acyclic family both the old scan walk and the CSR walk terminate on.
fn forest_heads() -> impl Strategy<Value = Vec<u16>> {
    prop::collection::vec(0u16..u16::MAX, 0..24).prop_map(|v| {
        v.into_iter()
            .enumerate()
            .map(|(i, r)| (r as usize % (i + 1)) as u16)
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..Default::default() })]

    /// The corpus-resident CSR adjacency must reproduce the head-array
    /// filter scan exactly — same children, same ascending order — on
    /// arbitrary head arrays (empty sentences, forests, self-loops,
    /// cycles), and `root()` must still find the first self-loop.
    #[test]
    fn csr_children_equal_filter_scan(heads in arbitrary_heads()) {
        let cols = sentence_with_heads(&heads);
        let s = cols.get(0);
        for i in 0..heads.len() {
            prop_assert_eq!(
                s.children(i).collect::<Vec<_>>(),
                scan_children(&heads, i),
                "children of {} under {:?}", i, &heads
            );
        }
        let scan_root = heads.iter().enumerate().find(|(i, &h)| *i == h as usize).map(|(i, _)| i);
        prop_assert_eq!(s.root(), scan_root);
    }

    /// The CSR stack walk behind `descendants` must visit the same nodes in
    /// the same order as the scan-based walk it replaced, on every
    /// forest-shaped head array.
    #[test]
    fn csr_descendants_equal_scan_walk(heads in forest_heads()) {
        let cols = sentence_with_heads(&heads);
        let s = cols.get(0);
        for i in 0..heads.len() {
            prop_assert_eq!(
                s.descendants(i),
                scan_descendants(&heads, i),
                "descendants of {} under {:?}", i, &heads
            );
        }
    }

    /// `append_with_threads` interns pre-enumerated per-sentence key lists;
    /// the result must be indistinguishable from the serial per-sentence
    /// append — rule numbering, coverage and hierarchy — for any split.
    #[test]
    fn threaded_append_equals_serial(texts in corpus_strategy()) {
        if texts.len() < 2 {
            return Ok(());
        }
        let split = texts.len() / 2;
        let base = Corpus::from_texts(texts[..split].iter());
        let mut serial = IndexSet::build(&base, &IndexConfig::small());
        let mut threaded = IndexSet::build(&base, &IndexConfig::small());
        let mut corpus = base;
        corpus.append_texts(texts[split..].iter(), 1);
        serial.append(&corpus).unwrap();
        threaded.append_with_threads(&corpus, 4).unwrap();
        let serial_rules: Vec<RuleRef> = serial.all_rules().collect();
        let threaded_rules: Vec<RuleRef> = threaded.all_rules().collect();
        prop_assert_eq!(&serial_rules, &threaded_rules, "rule numbering diverged");
        for &r in &serial_rules {
            prop_assert_eq!(serial.coverage(r), threaded.coverage(r), "coverage of {:?}", r);
            prop_assert_eq!(serial.parents(r), threaded.parents(r), "parents of {:?}", r);
            prop_assert_eq!(serial.children(r), threaded.children(r), "children of {:?}", r);
        }
    }
}

/// Everything a consumer can observe of an index's rules: the rule
/// sequence, each rule's heuristic, coverage, dense id and hierarchy edges
/// (covering rules are compared through [`rows`]).
fn assert_same_index(a: &IndexSet, b: &IndexSet, label: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.sentences(), b.sentences(), "{}: sentences", label);
    let rules: Vec<RuleRef> = a.all_rules().collect();
    prop_assert_eq!(
        &rules,
        &b.all_rules().collect::<Vec<_>>(),
        "{}: rule sequence",
        label
    );
    prop_assert_eq!(
        a.children(RuleRef::Root),
        b.children(RuleRef::Root),
        "{}: root children",
        label
    );
    for &r in &rules {
        prop_assert_eq!(
            a.heuristic(r),
            b.heuristic(r),
            "{}: heuristic of {:?}",
            label,
            r
        );
        prop_assert_eq!(
            a.coverage(r),
            b.coverage(r),
            "{}: coverage of {:?}",
            label,
            r
        );
        prop_assert_eq!(
            a.dense_id(r),
            b.dense_id(r),
            "{}: dense id of {:?}",
            label,
            r
        );
        prop_assert_eq!(a.parents(r), b.parents(r), "{}: parents of {:?}", label, r);
        prop_assert_eq!(
            a.children(r),
            b.children(r),
            "{}: children of {:?}",
            label,
            r
        );
    }
    Ok(())
}

/// A corpus against the per-sentence analyzer — `tokenize`, `Vocab::intern`,
/// `Tagger::tag` and `depparse::parse`, one text at a time — an oracle
/// that shares no resolve or numbering code with
/// `Corpus::append_texts`: vocabulary order and frequencies, tokens, tags
/// and heads.
fn assert_matches_analyzer(
    corpus: &Corpus,
    texts: &[String],
    label: &str,
) -> Result<(), TestCaseError> {
    let mut vocab = Vocab::new();
    prop_assert_eq!(corpus.len(), texts.len(), "{}: corpus length", label);
    for (s, text) in corpus.sentences().zip(texts) {
        let words = tokenize(text);
        let tokens: Vec<Sym> = words.iter().map(|w| vocab.intern(w)).collect();
        let tags = Tagger::tag(&words);
        prop_assert_eq!(s.tokens(), &tokens, "{}: tokens of {}", label, s.id());
        prop_assert_eq!(s.heads(), &parse(&tags), "{}: heads of {}", label, s.id());
        prop_assert_eq!(s.tags(), &tags, "{}: tags of {}", label, s.id());
    }
    assert_same_vocab(corpus.vocab(), &vocab, label)
}

/// Same words in the same order, at the same frequencies.
fn assert_same_vocab(got: &Vocab, want: &Vocab, label: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{}: vocab size", label);
    for (sym, word) in want.iter() {
        prop_assert_eq!(got.resolve(sym), word, "{}: vocab order", label);
        prop_assert_eq!(got.freq(sym), want.freq(sym), "{}: freq of {}", label, word);
    }
    Ok(())
}

/// An index against the per-sentence `PhraseIndex::build` (pruned to the
/// recipe's `min_count`) and `TreeIndex::build` — an oracle that shares no
/// resolve or apply code with `IndexSet`'s growth: numbering, postings,
/// trie parents and children order, pattern hierarchy and roots.
fn assert_matches_reference(
    index: &IndexSet,
    corpus: &Corpus,
    cfg: &IndexConfig,
    label: &str,
) -> Result<(), TestCaseError> {
    let mut trie = PhraseIndex::build(corpus, cfg.max_phrase_len);
    trie.prune(cfg.min_count);
    let got = index.phrase_index();
    prop_assert_eq!(got.len(), trie.len(), "{}: trie nodes", label);
    for n in 0..trie.len() as u32 {
        prop_assert_eq!(got.phrase(n), trie.phrase(n), "{}: phrase of {}", label, n);
        prop_assert_eq!(
            got.postings(n),
            trie.postings(n),
            "{}: postings of {}",
            label,
            n
        );
        prop_assert_eq!(got.parent(n), trie.parent(n), "{}: parent of {}", label, n);
        prop_assert_eq!(
            got.children(n).collect::<Vec<_>>(),
            trie.children(n).collect::<Vec<_>>(),
            "{}: children of {}",
            label,
            n
        );
    }
    let tree = TreeIndex::build(corpus, &cfg.tree);
    let got = index.tree_index().expect("tree index enabled");
    prop_assert_eq!(got.len(), tree.len(), "{}: patterns", label);
    prop_assert_eq!(got.roots(), tree.roots(), "{}: roots", label);
    for p in tree.pat_ids() {
        prop_assert_eq!(got.key(p), tree.key(p), "{}: key of {}", label, p);
        prop_assert_eq!(
            got.postings(p),
            tree.postings(p),
            "{}: postings of {}",
            label,
            p
        );
        prop_assert_eq!(
            got.parents(p),
            tree.parents(p),
            "{}: parents of {}",
            label,
            p
        );
        prop_assert_eq!(
            got.children(p),
            tree.children(p),
            "{}: children of {}",
            label,
            p
        );
    }
    Ok(())
}

/// Every indexed sentence's covering rules, recomputed by the index.
fn rows(corpus: &Corpus, index: &IndexSet) -> Vec<Vec<RuleRef>> {
    corpus
        .sentences()
        .take(index.sentences())
        .map(|s| {
            let mut row = Vec::new();
            index.covering_rules(s, &mut row);
            row
        })
        .collect()
}

/// Every sentence's covering rules by brute force: `all_rules()` filtered
/// to those whose forward postings hold the sentence, built as one
/// transpose of the postings (rules arrive in `all_rules` order).
fn brute_rows(index: &IndexSet) -> Vec<Vec<RuleRef>> {
    let mut rows = vec![Vec::new(); index.sentences()];
    for r in index.all_rules() {
        for &s in index.coverage(r) {
            rows[s as usize].push(r);
        }
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: if cfg!(debug_assertions) { 24 } else { 400 },
        ..Default::default()
    })]

    /// Construction is growth from empty, so *how* a corpus arrived cannot
    /// show: any split into batches (empty ones and a split at 0 included)
    /// at any thread count yields the corpus `from_texts` makes and the
    /// index `IndexSet::build` makes at one thread — vocabulary order and
    /// frequencies, analyses, rule numbering, hierarchy and covering rules
    /// alike; and a pruned build numbers its rules the same at every
    /// thread count. Covering rules also equal brute force over the
    /// forward postings, pruned build included. Every side of that runs
    /// the same growth routines, so the one-thread corpus is also held to
    /// the per-sentence analyzer, and both one-thread builds to the
    /// per-sentence `add_sentence` reference.
    /// Case 0 spans several of index growth's blocks (4 096 sentences per
    /// worker) at one and two threads, so a later block resolves against
    /// what an earlier one interned, and
    /// every eighth case is past every fan-out threshold (256 sentences
    /// for index growth, 1024 for corpus analysis; 2048 was the
    /// chunk-local trie build's).
    #[test]
    fn ingest_is_invariant_under_batch_split_and_threads(
        pool in prop::collection::vec(sentence(), 8300..8500),
        small in 0usize..48,
        cuts in prop::collection::vec(0usize..10_000, 0..6),
    ) {
        static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = match CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed) {
            0 => pool.len(),
            case if case % 8 == 4 => 2048 + 8 * small,
            _ => small,
        };
        let texts = &pool[..n];
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (n + 1)).collect();
        cuts.sort_unstable();
        cuts.push(n);

        let recipe = |min_count, threads| IndexConfig { min_count, threads, ..IndexConfig::small() };
        let whole = Corpus::from_texts(texts);
        assert_matches_analyzer(&whole, texts, &format!("n={n}"))?;
        let scratch = IndexSet::build(&whole, &recipe(1, 1));
        let pruned = IndexSet::build(&whole, &recipe(2, 1));
        assert_matches_reference(&scratch, &whole, &recipe(1, 1), &format!("n={n}"))?;
        assert_matches_reference(&pruned, &whole, &recipe(2, 1), &format!("pruned n={n}"))?;
        let scratch_rows = rows(&whole, &scratch);
        prop_assert_eq!(&scratch_rows, &brute_rows(&scratch), "n={}: covering rules", n);
        let pruned_rows = rows(&whole, &pruned);
        prop_assert_eq!(&pruned_rows, &brute_rows(&pruned), "n={}: pruned covering rules", n);

        let mut thread_counts = vec![1, 2, 4];
        if !thread_counts.contains(&darwin_testkit::test_threads()) {
            thread_counts.push(darwin_testkit::test_threads());
        }
        for threads in thread_counts {
            let label = format!("n={n} cuts={cuts:?} threads={threads}");
            let mut grown = Corpus::new();
            grown.append_texts(&texts[..cuts[0]], threads);
            let mut index = IndexSet::build(&grown, &recipe(1, threads));
            for w in cuts.windows(2) {
                prop_assert_eq!(grown.append_texts(&texts[w[0]..w[1]], threads), w[1] - w[0]);
                let delta = index.append_with_threads(&grown, threads).unwrap();
                prop_assert_eq!(delta.sentences, w[1] - w[0]);
            }

            prop_assert_eq!(grown.len(), whole.len(), "{}: corpus length", &label);
            assert_same_vocab(grown.vocab(), whole.vocab(), &label)?;
            for (g, w) in grown.sentences().zip(whole.sentences()) {
                prop_assert_eq!(g.id(), w.id(), "{}: sentence id", &label);
                prop_assert_eq!(g.tokens(), w.tokens(), "{}: tokens of {}", &label, w.id());
                prop_assert_eq!(g.tags(), w.tags(), "{}: tags of {}", &label, w.id());
                prop_assert_eq!(g.heads(), w.heads(), "{}: heads of {}", &label, w.id());
            }
            assert_same_index(&scratch, &index, &label)?;
            prop_assert_eq!(&rows(&grown, &index), &scratch_rows, "{}: covering rules", &label);
            let pruned_at = IndexSet::build(&whole, &recipe(2, threads));
            assert_same_index(&pruned, &pruned_at, &format!("pruned {label}"))?;
            prop_assert_eq!(&rows(&whole, &pruned_at), &pruned_rows, "pruned {}: covering rules", &label);
        }
    }
}
