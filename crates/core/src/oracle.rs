//! Oracle abstractions (paper Definition 4, §4.5 "Performance of human
//! annotators").
//!
//! An oracle answers YES/NO: "is this heuristic adequately precise at
//! capturing positive instances?". Experiments synthesize answers from
//! ground truth; the sampled-annotator oracle reproduces the error pattern
//! observed with Figure-eight crowd workers (judging from 5 sampled
//! matches, occasionally fooled when the sample looks cleaner than the
//! full coverage set).
//!
//! Two calling conventions share the same answer semantics:
//!
//! * [`Oracle`] is the synchronous form — `ask` blocks until the verdict
//!   is known. Annotators, crowds ([`MajorityOracle`]) and the test
//!   doubles are written against it.
//! * [`AsyncOracle`] is the submit/poll split the question loop
//!   ([`crate::batch`]) drives: questions go out tagged with a
//!   [`QuestionId`], answers come back later — possibly out of order —
//!   from `poll`. [`Immediate`] adapts one synchronous oracle to the
//!   async surface (answers available at the next poll), which is also
//!   the reference configuration for the loop's equivalence guarantee;
//!   [`AnnotatorPool`] adapts `k` of them, one question each per wave
//!   (paper §1: "asking different annotators to evaluate different
//!   rules").

use darwin_grammar::Heuristic;
use darwin_text::Corpus;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Duration;

/// The YES/NO feedback source Darwin queries.
pub trait Oracle {
    /// Is `rule` adequately precise? `coverage` is `C_r` over the corpus.
    fn ask(&mut self, corpus: &Corpus, rule: &Heuristic, coverage: &[u32]) -> bool;

    /// Number of questions asked so far.
    fn queries(&self) -> usize;
}

impl<O: Oracle + ?Sized> Oracle for &mut O {
    fn ask(&mut self, corpus: &Corpus, rule: &Heuristic, coverage: &[u32]) -> bool {
        (**self).ask(corpus, rule, coverage)
    }

    fn queries(&self) -> usize {
        (**self).queries()
    }
}

impl<O: Oracle + ?Sized> Oracle for Box<O> {
    fn ask(&mut self, corpus: &Corpus, rule: &Heuristic, coverage: &[u32]) -> bool {
        (**self).ask(corpus, rule, coverage)
    }

    fn queries(&self) -> usize {
        (**self).queries()
    }
}

/// Identifies one submitted question for the lifetime of an async run.
/// Ids are assigned by the driver in submission order, so sorting arrived
/// answers by id recovers the canonical (submission) order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QuestionId(pub u64);

/// The asynchronous feedback source the batched loop drives: questions are
/// *submitted* and answers *polled*, decoupling selection from answering so
/// several questions can be in flight at once (paper §4.3's crowd setting,
/// where annotator latency dwarfs engine compute).
///
/// Contract:
///
/// * every submitted [`QuestionId`] is eventually delivered by exactly one
///   `poll` call, in any order;
/// * `poll` may block briefly while answers are outstanding (a simulated
///   or remote oracle waiting on its next arrival), but must not block
///   when nothing is in flight;
/// * answers depend only on the submitted `(rule, coverage)`, exactly as
///   [`Oracle::ask`] (Definition 4: the verdict is a function of `C_r`).
pub trait AsyncOracle {
    /// Dispatch a question. The answer arrives from a later [`poll`].
    ///
    /// [`poll`]: AsyncOracle::poll
    fn submit(&mut self, qid: QuestionId, corpus: &Corpus, rule: &Heuristic, coverage: &[u32]);

    /// Answers that have arrived since the last poll (possibly empty,
    /// possibly out of submission order).
    fn poll(&mut self) -> Vec<(QuestionId, bool)>;

    /// [`poll`], but the oracle may *block* up to `timeout` waiting for
    /// the first answer when questions are in flight — what the wave
    /// driver calls, so oracles that can wait efficiently (a channel, a
    /// socket, a remote worker) do so instead of being spin-polled. The
    /// default simply polls: correct for every oracle, efficient for the
    /// ones whose answers are ready at submit ([`Immediate`]) or scripted
    /// in poll cycles ([`crate::ScriptedArrival`]).
    ///
    /// Like [`poll`], must not block when nothing is in flight.
    ///
    /// [`poll`]: AsyncOracle::poll
    fn poll_deadline(&mut self, timeout: Duration) -> Vec<(QuestionId, bool)> {
        let _ = timeout;
        self.poll()
    }

    /// Whether this oracle can still deliver answers. A wire-backed
    /// oracle whose worker died reports `false`; the wave driver then
    /// abandons the in-flight questions immediately instead of waiting
    /// out the idle limit. Defaults to `true` (local oracles never die).
    fn healthy(&self) -> bool {
        true
    }

    /// Questions submitted so far.
    fn queries(&self) -> usize;
}

/// Blanket adapter: any synchronous [`Oracle`] as an [`AsyncOracle`] whose
/// answers are available at the next poll — zero latency, nothing ever in
/// flight across a poll boundary. Driving the batch loop with batch size 1
/// through this adapter replays the synchronous loop byte for byte (the
/// batch layer's equivalence tests pin this).
pub struct Immediate<O> {
    inner: O,
    ready: Vec<(QuestionId, bool)>,
}

impl<O: Oracle> Immediate<O> {
    /// Wrap a synchronous oracle.
    pub fn new(inner: O) -> Immediate<O> {
        Immediate {
            inner,
            ready: Vec::new(),
        }
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Unwrap, discarding any undelivered answers.
    pub fn into_inner(self) -> O {
        self.inner
    }
}

impl<O: Oracle> AsyncOracle for Immediate<O> {
    fn submit(&mut self, qid: QuestionId, corpus: &Corpus, rule: &Heuristic, coverage: &[u32]) {
        let answer = self.inner.ask(corpus, rule, coverage);
        self.ready.push((qid, answer));
    }

    fn poll(&mut self) -> Vec<(QuestionId, bool)> {
        std::mem::take(&mut self.ready)
    }

    fn poll_deadline(&mut self, _timeout: Duration) -> Vec<(QuestionId, bool)> {
        // Answers are ready the moment they are submitted — never wait.
        self.poll()
    }

    fn queries(&self) -> usize {
        self.inner.queries()
    }
}

/// `k` synchronous annotators working in parallel (paper §1: Darwin
/// "supports parallel discovery of rules by asking different annotators
/// to evaluate different rules"): submitted questions are dealt
/// round-robin, one annotator per question, and every answer is available
/// at the next poll. Driven at [`crate::BatchPolicy::Fixed`]`(k)` each
/// wave is one round — every annotator reviews one of `k`
/// coverage-diverse rules, then the classifier retrains once.
///
/// An empty pool can never answer: it reports [`AsyncOracle::healthy`]
/// `false`, so the driver abandons the first wave at once and returns the
/// (empty) partial run with `report.abandoned > 0` instead of panicking.
pub struct AnnotatorPool<O> {
    annotators: Vec<O>,
    dealt: usize,
    ready: Vec<(QuestionId, bool)>,
}

impl<O: Oracle> AnnotatorPool<O> {
    /// A pool over `annotators`, dealt to in the given order.
    pub fn new(annotators: Vec<O>) -> AnnotatorPool<O> {
        AnnotatorPool {
            annotators,
            dealt: 0,
            ready: Vec::new(),
        }
    }

    /// The pooled annotators (e.g. to read each one's question count).
    pub fn annotators(&self) -> &[O] {
        &self.annotators
    }
}

impl<O: Oracle> AsyncOracle for AnnotatorPool<O> {
    fn submit(&mut self, qid: QuestionId, corpus: &Corpus, rule: &Heuristic, coverage: &[u32]) {
        let k = self.annotators.len();
        if k == 0 {
            return; // nobody to ask; `healthy` tells the driver
        }
        let answer = self.annotators[self.dealt % k].ask(corpus, rule, coverage);
        self.dealt += 1;
        self.ready.push((qid, answer));
    }

    fn poll(&mut self) -> Vec<(QuestionId, bool)> {
        std::mem::take(&mut self.ready)
    }

    fn healthy(&self) -> bool {
        !self.annotators.is_empty()
    }

    fn queries(&self) -> usize {
        self.dealt
    }
}

/// Majority vote over several independent annotators (§4.3's cost model:
/// "the oracle considers a majority vote by querying three crowd
/// members"). One [`Oracle::ask`] call fans the same question out to
/// every member and counts one logical query (the paper prices it as
/// `members × 2¢`).
pub struct MajorityOracle<'a> {
    members: Vec<Box<dyn Oracle + 'a>>,
    queries: usize,
}

impl<'a> MajorityOracle<'a> {
    /// Combine `members` (at least one) by majority vote.
    pub fn new(members: Vec<Box<dyn Oracle + 'a>>) -> Self {
        assert!(
            !members.is_empty(),
            "majority oracle needs at least one member"
        );
        MajorityOracle {
            members,
            queries: 0,
        }
    }

    /// Cost in cents under the paper's crowdsourcing model (2¢ per member
    /// evaluation).
    pub fn cost_cents(&self) -> usize {
        self.queries * self.members.len() * 2
    }
}

impl Oracle for MajorityOracle<'_> {
    fn ask(&mut self, corpus: &Corpus, rule: &Heuristic, coverage: &[u32]) -> bool {
        self.queries += 1;
        let mut yes = 0;
        for m in self.members.iter_mut() {
            if m.ask(corpus, rule, coverage) {
                yes += 1;
            }
        }
        2 * yes > self.members.len()
    }

    fn queries(&self) -> usize {
        self.queries
    }
}

/// A perfect annotator: YES iff the precision of the full coverage set
/// meets the threshold. The paper observes users label a heuristic precise
/// only when precision ≥ 0.8, and simulates oracles the same way (§4.1
/// "we respond YES to heuristic h if at least 80% of its coverage set
/// consist of positive instances").
pub struct GroundTruthOracle<'a> {
    labels: &'a [bool],
    threshold: f64,
    queries: usize,
}

impl<'a> GroundTruthOracle<'a> {
    /// An oracle that accepts rules whose coverage precision over
    /// `labels` is at least `threshold` (the paper uses 0.8).
    pub fn new(labels: &'a [bool], threshold: f64) -> Self {
        GroundTruthOracle {
            labels,
            threshold,
            queries: 0,
        }
    }

    /// Precision of an id set under the ground truth.
    pub fn precision(&self, coverage: &[u32]) -> f64 {
        if coverage.is_empty() {
            return 0.0;
        }
        let pos = coverage
            .iter()
            .filter(|&&i| self.labels[i as usize])
            .count();
        pos as f64 / coverage.len() as f64
    }
}

impl Oracle for GroundTruthOracle<'_> {
    fn ask(&mut self, _corpus: &Corpus, _rule: &Heuristic, coverage: &[u32]) -> bool {
        self.queries += 1;
        !coverage.is_empty() && self.precision(coverage) >= self.threshold
    }

    fn queries(&self) -> usize {
        self.queries
    }
}

/// A human-like annotator: inspects `k` randomly sampled matching
/// sentences (the paper's query UI shows 5, Figure 2) and answers YES iff
/// at least `ceil(ACCEPT_RATIO·k)` of them are positive. Errors
/// concentrate on rules whose small sample happens to look better (or
/// worse) than the full coverage set; presenting more samples lowers the
/// error rate (paper §4.5).
pub struct SampledAnnotatorOracle<'a> {
    labels: &'a [bool],
    k: usize,
    rng: StdRng,
    queries: usize,
}

/// The share of a [`SampledAnnotatorOracle`]'s sample that must be
/// positive for a YES: the empirical precision bar users apply.
const ACCEPT_RATIO: f64 = 0.8;

impl<'a> SampledAnnotatorOracle<'a> {
    /// An annotator that inspects `k` sampled covered sentences per
    /// question (deterministic per `seed`).
    pub fn new(labels: &'a [bool], k: usize, seed: u64) -> Self {
        SampledAnnotatorOracle {
            labels,
            k,
            rng: StdRng::seed_from_u64(seed),
            queries: 0,
        }
    }
}

impl Oracle for SampledAnnotatorOracle<'_> {
    fn ask(&mut self, _corpus: &Corpus, _rule: &Heuristic, coverage: &[u32]) -> bool {
        self.queries += 1;
        if coverage.is_empty() {
            return false;
        }
        let k = self.k.min(coverage.len());
        let sample: Vec<u32> = coverage
            .choose_multiple(&mut self.rng, k)
            .copied()
            .collect();
        let pos = sample.iter().filter(|&&i| self.labels[i as usize]).count();
        let needed = (ACCEPT_RATIO * k as f64).ceil() as usize;
        pos >= needed.max(1)
    }

    fn queries(&self) -> usize {
        self.queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Corpus {
        Corpus::from_texts(["a b", "c d", "e f", "g h", "i j"])
    }

    fn dummy_rule(c: &Corpus) -> Heuristic {
        Heuristic::phrase(c, "a").unwrap()
    }

    #[test]
    fn ground_truth_applies_threshold() {
        let c = corpus();
        let labels = vec![true, true, true, true, false];
        let mut o = GroundTruthOracle::new(&labels, 0.8);
        let r = dummy_rule(&c);
        assert!(o.ask(&c, &r, &[0, 1, 2, 3, 4])); // 4/5 = 0.8
        assert!(!o.ask(&c, &r, &[2, 3, 4])); // 2/3 < 0.8
        assert!(!o.ask(&c, &r, &[])); // empty coverage is never precise
        assert_eq!(o.queries(), 3);
    }

    #[test]
    fn annotator_is_perfect_on_clean_rules() {
        let c = corpus();
        let labels = vec![true, true, true, false, false];
        let mut o = SampledAnnotatorOracle::new(&labels, 5, 1);
        let r = dummy_rule(&c);
        assert!(o.ask(&c, &r, &[0, 1, 2])); // all positive
        assert!(!o.ask(&c, &r, &[3, 4])); // all negative
    }

    #[test]
    fn annotator_errs_sometimes_on_borderline_rules() {
        // Precision 0.6 coverage: with k=5 and 0.8 bar, the annotator
        // sometimes says YES (sample of 4+/5 positives) and often NO.
        let labels: Vec<bool> = (0..100).map(|i| i % 5 < 3).collect();
        let coverage: Vec<u32> = (0..100).collect();
        let c = corpus();
        let r = dummy_rule(&c);
        let mut yes = 0;
        for seed in 0..200 {
            let mut o = SampledAnnotatorOracle::new(&labels, 5, seed);
            if o.ask(&c, &r, &coverage) {
                yes += 1;
            }
        }
        assert!(yes > 5, "some false YES expected, got {yes}");
        assert!(yes < 150, "mostly NO expected, got {yes}");
    }

    #[test]
    fn immediate_adapter_preserves_answers_and_count() {
        let c = corpus();
        let labels = vec![true, true, true, true, false];
        let r = dummy_rule(&c);
        let mut sync = GroundTruthOracle::new(&labels, 0.8);
        let expect = [
            sync.ask(&c, &r, &[0, 1, 2, 3, 4]),
            sync.ask(&c, &r, &[2, 3, 4]),
        ];

        let mut a = Immediate::new(GroundTruthOracle::new(&labels, 0.8));
        a.submit(QuestionId(0), &c, &r, &[0, 1, 2, 3, 4]);
        a.submit(QuestionId(1), &c, &r, &[2, 3, 4]);
        let got = a.poll();
        assert_eq!(
            got,
            vec![(QuestionId(0), expect[0]), (QuestionId(1), expect[1])]
        );
        assert!(a.poll().is_empty(), "answers deliver exactly once");
        assert_eq!(a.queries(), 2);
    }

    #[test]
    fn oracle_impls_for_references_and_boxes() {
        let c = corpus();
        let labels = vec![true, true, true, true, false];
        let r = dummy_rule(&c);
        let mut gt = GroundTruthOracle::new(&labels, 0.8);
        let by_ref: &mut dyn Oracle = &mut gt;
        let mut wrapped = Immediate::new(by_ref);
        wrapped.submit(QuestionId(7), &c, &r, &[0, 1, 2, 3]);
        assert_eq!(wrapped.poll(), vec![(QuestionId(7), true)]);

        let mut boxed: Box<dyn Oracle> = Box::new(GroundTruthOracle::new(&labels, 0.8));
        assert!(boxed.ask(&c, &r, &[0, 1, 2, 3]));
        assert_eq!(boxed.queries(), 1);
    }

    #[test]
    fn annotator_pool_deals_round_robin_and_delivers_once() {
        let c = corpus();
        let labels = vec![true, true, true, true, false];
        let r = dummy_rule(&c);
        let mut a = GroundTruthOracle::new(&labels, 0.8);
        let mut b = GroundTruthOracle::new(&labels, 0.8);
        let members: Vec<&mut dyn Oracle> = vec![&mut a, &mut b];
        let mut pool = AnnotatorPool::new(members);
        assert!(pool.healthy());
        pool.submit(QuestionId(0), &c, &r, &[0, 1, 2, 3]);
        pool.submit(QuestionId(1), &c, &r, &[3, 4]);
        pool.submit(QuestionId(2), &c, &r, &[0, 1]);
        assert_eq!(
            pool.poll(),
            vec![
                (QuestionId(0), true),
                (QuestionId(1), false),
                (QuestionId(2), true)
            ]
        );
        assert!(pool.poll().is_empty(), "answers deliver exactly once");
        assert_eq!(pool.queries(), 3);
        let asked: Vec<usize> = pool.annotators().iter().map(|o| o.queries()).collect();
        assert_eq!(asked, [2, 1], "q0 and q2 to the first, q1 to the second");
    }

    #[test]
    fn majority_oracle_outvotes_one_bad_member() {
        let c = Corpus::from_texts([
            "a shuttle to the airport",
            "the shuttle leaves hourly",
            "a shuttle runs tonight",
            "the pool opens at nine",
            "order the pizza",
            "the wifi code",
        ]);
        let labels = vec![true, true, true, false, false, false];
        // Two reliable members and one error-prone k=2 annotator.
        let m1 = Box::new(GroundTruthOracle::new(&labels, 0.8));
        let m2 = Box::new(GroundTruthOracle::new(&labels, 0.8));
        let m3 = Box::new(SampledAnnotatorOracle::new(&labels, 2, 5));
        let mut crowd = MajorityOracle::new(vec![m1, m2, m3]);
        let rule = Heuristic::phrase(&c, "shuttle").unwrap();
        let cov = rule.coverage(&c);
        assert!(
            crowd.ask(&c, &rule, &cov),
            "precise rule accepted by majority"
        );
        let junk = Heuristic::phrase(&c, "the").unwrap();
        let jcov = junk.coverage(&c);
        assert!(!crowd.ask(&c, &junk, &jcov));
        assert_eq!(crowd.queries(), 2);
        assert_eq!(
            crowd.cost_cents(),
            2 * 3 * 2,
            "paper cost model: 2¢ × 3 members"
        );
    }

    #[test]
    fn more_samples_lower_error_rate() {
        let labels: Vec<bool> = (0..1000).map(|i| i % 5 < 3).collect(); // precision 0.6
        let coverage: Vec<u32> = (0..1000).collect();
        let c = corpus();
        let r = dummy_rule(&c);
        let err_rate = |k: usize| {
            let mut yes = 0;
            for seed in 0..300 {
                let mut o = SampledAnnotatorOracle::new(&labels, k, seed);
                if o.ask(&c, &r, &coverage) {
                    yes += 1;
                }
            }
            yes as f64 / 300.0
        };
        assert!(
            err_rate(25) < err_rate(5),
            "k=25 {} vs k=5 {}",
            err_rate(25),
            err_rate(5)
        );
    }
}
