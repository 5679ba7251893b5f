//! The question loop: waves of oracle questions, applied at barriers
//! (paper Algorithm 1, and §4.3's crowd setting).
//!
//! The paper's interactive loop assumes an oracle whose latency dwarfs the
//! engine's compute — a human annotator takes seconds per question, a
//! crowd round-trip minutes, while selection takes microseconds. So the
//! one loop this crate runs ([`Session`]) is a pipelined one, and the
//! one-question-at-a-time loop is its wave size 1:
//!
//! 1. **Waves.** The driver fills a *wave* of up to `k` in-flight
//!    questions ([`crate::DarwinConfig::batch`] is
//!    [`BatchPolicy::Fixed`]`(k)`, the paper's rounds of a fixed size):
//!    the first pick comes from the configured traversal strategy —
//!    exactly the synchronous selection — and every further pick from
//!    [`Engine::select_refill_batch`] (maximum gated benefit, skipping
//!    rules that mostly duplicate a question already in flight).
//! 2. **Out-of-order application.** Answers come back from
//!    [`AsyncOracle::poll`] in any order and are applied as they arrive
//!    through [`Engine::resolve`] → [`Engine::record`] — the YES-journal /
//!    benefit-delta / frontier machinery, which is order-independent by
//!    construction (`P` grows as a union; fixed-point sums commute).
//! 3. **Barrier.** When the wave drains, the strategy observes all its
//!    answers in submission order, and the classifier retrains once if
//!    any YES arrived — one update per round, which is what makes the
//!    latency win of `k` concurrent annotators real.
//!
//! Every run entry is an adapter over that loop: [`Darwin::run`] and
//! [`Darwin::run_with`] pin the wave size to 1 over [`crate::Immediate`];
//! [`Darwin::run_async`] drives to completion at the configured wave size
//! (`k` annotators in rounds is `Fixed(k)` over a
//! [`crate::AnnotatorPool`]); [`Darwin::snapshot`] / [`Darwin::resume`]
//! stop at and restart from a barrier; [`Session::append`] grows the
//! corpus of a session that owns it at a barrier, and
//! [`crate::stream::StreamSession`] drives one such session.
//!
//! **The equivalence guarantee** (tested by `tests/batch_async.rs`): with
//! `BatchPolicy::Fixed(1)` and the [`crate::Immediate`] adapter the driver
//! replays the sequential reference — Algorithm 1 as a plain loop of
//! [`Engine::select`], ask, [`Engine::record`], feedback and retrain,
//! which the test harness runs with every structure audited — byte for
//! byte, at every shard and thread count; and for any fixed batch
//! size, the *final* positive set, accepted rules and scores are
//! invariant under the answer-arrival schedule — only per-wave trace
//! ordering can differ.
//!
//! ```
//! use darwin_core::batch::BatchPolicy;
//! use darwin_core::{Darwin, DarwinConfig, GroundTruthOracle, Immediate, Seed};
//! use darwin_grammar::Heuristic;
//! use darwin_index::{IndexConfig, IndexSet};
//! use darwin_text::Corpus;
//!
//! let corpus = Corpus::from_texts([
//!     "what is the best way to get to the airport",
//!     "is there a shuttle to get to the airport",
//!     "is uber the fastest way to get to the airport",
//!     "what is the best way to order food",
//!     "would uber eats be the fastest way to order",
//!     "what is the best way to check in",
//! ]);
//! let labels = vec![true, true, true, false, false, false];
//! let index = IndexSet::build(&corpus, &IndexConfig::small());
//! let cfg = DarwinConfig {
//!     budget: 5,
//!     batch: BatchPolicy::Fixed(2), // up to two questions in flight
//!     ..DarwinConfig::fast()
//! };
//! let seed = Seed::Rule(Heuristic::phrase(&corpus, "to the airport").unwrap());
//! // Any synchronous oracle rides the loop via the adapter.
//! let mut oracle = Immediate::new(GroundTruthOracle::new(&labels, 0.8));
//! let out = Darwin::new(&corpus, &index, cfg).run_async(Seed::clone(&seed), &mut oracle);
//! assert!(!out.run.accepted.is_empty());
//! assert!(out.report.peak_in_flight <= 2);
//! assert_eq!(out.report.cost.questions, out.run.questions());
//! ```

use crate::engine::Engine;
use crate::oracle::{AsyncOracle, Oracle, QuestionId};
use crate::pipeline::{Darwin, Held, RunResult, Seed};
use crate::snapshot::{SessionCounters, Snapshot, SnapshotError};
use crate::traversal::Strategy;
use darwin_grammar::Heuristic;
use darwin_index::{AppendError, RuleRef};
use darwin_text::Corpus;
use std::time::{Duration, Instant};

/// How the async driver sizes each wave of in-flight questions
/// ([`crate::DarwinConfig::batch`]). The paper asks in rounds of a fixed
/// size, and so does the driver: every wave holds up to `k` questions.
#[derive(Clone, Debug, PartialEq)]
pub enum BatchPolicy {
    /// Keep up to `k` questions in flight per wave. `Fixed(1)` is the
    /// one-question-at-a-time loop ([`Darwin::run`] pins it); `Fixed(0)`
    /// runs as `Fixed(1)`.
    Fixed(usize),
}

impl Default for BatchPolicy {
    fn default() -> BatchPolicy {
        BatchPolicy::Fixed(1)
    }
}

impl BatchPolicy {
    /// The policy's cap on in-flight questions: the size of every wave.
    pub fn max_in_flight(&self) -> usize {
        let BatchPolicy::Fixed(k) = *self;
        k.max(1)
    }
}

/// The paper's §4.3 crowdsourcing cost model: every question fans out to
/// `members` crowd workers (majority vote), each judgment priced at
/// `cents_per_judgment` — "the oracle considers a majority vote by
/// querying three crowd members", 2¢ per evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Crowd members consulted per question (the paper votes 3).
    pub members: usize,
    /// Price of one member's judgment, in cents (the paper pays 2¢).
    pub cents_per_judgment: usize,
}

impl CostModel {
    /// The paper's configuration: 3-member majority at 2¢ a judgment —
    /// 6¢ per oracle question.
    pub fn paper() -> CostModel {
        CostModel {
            members: 3,
            cents_per_judgment: 2,
        }
    }

    /// A single trusted annotator at 2¢ a question.
    pub fn single() -> CostModel {
        CostModel {
            members: 1,
            cents_per_judgment: 2,
        }
    }

    /// Price `questions` oracle questions under this model.
    pub fn report(&self, questions: usize) -> CrowdCost {
        let judgments = questions * self.members;
        CrowdCost {
            questions,
            judgments,
            cents: judgments * self.cents_per_judgment,
        }
    }
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel::paper()
    }
}

/// What a run cost under a [`CostModel`] (§4.3 accounting).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrowdCost {
    /// Logical oracle questions asked.
    pub questions: usize,
    /// Paid member judgments (`questions × members`).
    pub judgments: usize,
    /// Total price in cents.
    pub cents: usize,
}

impl CrowdCost {
    /// Total price in dollars.
    pub fn dollars(&self) -> f64 {
        self.cents as f64 / 100.0
    }
}

/// Wrap a synchronous oracle behind a fixed simulated answer latency:
/// answers become available `latency` after submission. `poll` sleeps
/// until the earliest outstanding answer is due when none is ready yet —
/// the wall-clock model `batch_bench` measures latency hiding against.
pub struct SimulatedLatency<O> {
    inner: O,
    latency: Duration,
    in_flight: Vec<(QuestionId, bool, Instant)>,
}

impl<O: Oracle> SimulatedLatency<O> {
    /// Answers from `inner`, delivered `latency` after submission.
    pub fn new(inner: O, latency: Duration) -> SimulatedLatency<O> {
        SimulatedLatency {
            inner,
            latency,
            in_flight: Vec::new(),
        }
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }
}

impl<O: Oracle> AsyncOracle for SimulatedLatency<O> {
    fn submit(&mut self, qid: QuestionId, corpus: &Corpus, rule: &Heuristic, coverage: &[u32]) {
        let answer = self.inner.ask(corpus, rule, coverage);
        self.in_flight
            .push((qid, answer, Instant::now() + self.latency));
    }

    fn poll(&mut self) -> Vec<(QuestionId, bool)> {
        if self.in_flight.is_empty() {
            return Vec::new();
        }
        let now = Instant::now();
        let earliest = self.in_flight.iter().map(|&(_, _, due)| due).min().unwrap();
        if earliest > now {
            std::thread::sleep(earliest - now);
        }
        let now = Instant::now();
        let mut ready = Vec::new();
        self.in_flight.retain(|&(qid, answer, due)| {
            if due <= now {
                ready.push((qid, answer));
                false
            } else {
                true
            }
        });
        ready
    }

    fn poll_deadline(&mut self, timeout: Duration) -> Vec<(QuestionId, bool)> {
        // Honor the driver's deadline: wait for the earliest due answer,
        // but never past the deadline (the simulated analogue of a
        // timed channel receive).
        if self.in_flight.is_empty() {
            return Vec::new();
        }
        let now = Instant::now();
        let earliest = self.in_flight.iter().map(|&(_, _, due)| due).min().unwrap();
        if earliest > now + timeout {
            std::thread::sleep(timeout);
            return Vec::new();
        }
        self.poll()
    }

    fn queries(&self) -> usize {
        self.inner.queries()
    }
}

/// Wrap a synchronous oracle behind a *scripted* arrival schedule: the
/// `i`-th submission is withheld for `holds[i % holds.len()]` poll cycles,
/// so tests can force any out-of-order delivery (including adversarial
/// ones — first question answered last, interleaved waves) without
/// touching the clock. An empty script behaves like [`crate::Immediate`].
pub struct ScriptedArrival<O> {
    inner: O,
    holds: Vec<usize>,
    submissions: usize,
    in_flight: Vec<(QuestionId, bool, usize)>,
}

impl<O: Oracle> ScriptedArrival<O> {
    /// Answers from `inner`, submission `i` held for
    /// `holds[i % holds.len()]` polls.
    pub fn new(inner: O, holds: Vec<usize>) -> ScriptedArrival<O> {
        ScriptedArrival {
            inner,
            holds,
            submissions: 0,
            in_flight: Vec::new(),
        }
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }
}

impl<O: Oracle> AsyncOracle for ScriptedArrival<O> {
    fn submit(&mut self, qid: QuestionId, corpus: &Corpus, rule: &Heuristic, coverage: &[u32]) {
        let answer = self.inner.ask(corpus, rule, coverage);
        let hold = match self.holds.is_empty() {
            true => 0,
            false => self.holds[self.submissions % self.holds.len()],
        };
        self.submissions += 1;
        self.in_flight.push((qid, answer, hold));
    }

    fn poll(&mut self) -> Vec<(QuestionId, bool)> {
        let mut ready = Vec::new();
        self.in_flight.retain_mut(|entry| {
            if entry.2 == 0 {
                ready.push((entry.0, entry.1));
                false
            } else {
                entry.2 -= 1;
                true
            }
        });
        ready
    }

    fn queries(&self) -> usize {
        self.inner.queries()
    }
}

/// Instrumentation of one async run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AsyncReport {
    /// Waves driven (fill → drain → barrier cycles).
    pub waves: usize,
    /// Questions submitted. All are answered unless the oracle went
    /// silent (`abandoned`).
    pub submitted: usize,
    /// Most questions simultaneously in flight.
    pub peak_in_flight: usize,
    /// Classifier retrain barriers (waves containing at least one YES).
    pub retrains: usize,
    /// Questions the driver gave up waiting for: the oracle delivered
    /// nothing for [`IDLE_LIMIT`](crate::batch) with these in flight, so
    /// the run ended early, *keeping* every answer already applied
    /// instead of discarding the paid work. `0` on a healthy run.
    pub abandoned: usize,
    /// Wall-clock spent driving the run, nanoseconds — summed over every
    /// [`Session::drive`] segment in this process (time between segments,
    /// such as a corpus append, is not the loop's). A run resumed from
    /// snapshot bytes counts from the resuming process.
    pub wall_ns: u128,
    /// §4.3 crowd-cost accounting for the questions asked, priced with
    /// [`CostModel::paper`]; any other pricing is
    /// `model.report(run.questions())` at the call site.
    pub cost: CrowdCost,
}

/// A [`RunResult`] plus the async driver's instrumentation.
pub struct AsyncRunResult {
    /// The run output — the same shape [`Darwin::run`] returns.
    pub run: RunResult,
    /// Pipelining and cost instrumentation.
    pub report: AsyncReport,
}

/// Give up on a wave if the oracle delivers nothing for this long
/// (wall-clock) — a scripted oracle whose schedule never releases, a
/// remote one that died. Generous enough for human-latency oracles
/// (minutes per answer). The driver does not panic: it abandons the
/// in-flight questions and returns the partial run, so every answer
/// already paid for survives (see [`AsyncReport::abandoned`]).
const IDLE_LIMIT: Duration = Duration::from_secs(15 * 60);

/// Empty polls tolerated at full speed before the driver starts sleeping
/// between polls. Covers poll-cycle-scripted oracles ([`ScriptedArrival`]
/// holds) without slowing them, while a non-blocking slow oracle costs
/// ~1 ms per further poll instead of a busy spin.
const SPIN_FREE_POLLS: usize = 64;

/// How long the driver lets the oracle block per poll
/// ([`AsyncOracle::poll_deadline`]). Oracles that can wait — a channel, a
/// socket, a wire worker — sleep inside this window instead of being
/// spin-polled; oracles that cannot (the default `poll_deadline` just
/// polls) fall back to the driver's own backoff above.
const POLL_DEADLINE: Duration = Duration::from_millis(10);

/// What [`Darwin::snapshot`] produced: either the run completed (budget
/// exhausted, nothing left to ask, or the oracle went silent), or it was
/// suspended at the requested wave barrier and the complete run state is
/// in the returned [`Snapshot`] — feed it to
/// [`Darwin::resume`](crate::pipeline::Darwin::resume) to continue.
// One value of this enum exists per driven session; the size gap between
// the variants costs nothing worth boxing the result for.
#[allow(clippy::large_enum_variant)]
pub enum SessionOutcome {
    /// The run drove to completion; no snapshot was taken.
    Finished(AsyncRunResult),
    /// The run was suspended at a wave barrier.
    Suspended(Box<Snapshot>),
}

/// What a session has done so far that the engine does not itself record.
/// `counters` is the part a [`Snapshot`] carries across processes;
/// `wall_ns`, `abandoned` and `finished` live only as long as the process
/// (a snapshot is only ever taken of a run that is not over).
#[derive(Clone, Copy, Default)]
struct Progress {
    counters: SessionCounters,
    abandoned: usize,
    wall_ns: u128,
    finished: bool,
}

/// The question loop — the only code in this crate that asks an oracle on
/// behalf of a run; the module docs have the wave protocol and the run
/// entries that adapt it. Use it directly to hop a run from barrier to
/// barrier: [`Session::resume`], [`Session::drive`] to a later barrier,
/// [`Session::snapshot`] again.
pub struct Session<'a> {
    pub(crate) engine: Engine<'a>,
    strategy: Box<dyn Strategy>,
    policy: BatchPolicy,
    progress: Progress,
}

impl<'a> Session<'a> {
    /// A fresh run from `seed`, selecting with the configured traversal
    /// strategy and batching by [`crate::DarwinConfig::batch`]. The system
    /// is lent (`&darwin`) or handed over (`darwin`); only a session that
    /// owns its system, corpus and index included, can
    /// [`Session::append`].
    pub fn new(darwin: impl Into<Held<'a, Darwin<'a>>>, seed: Seed) -> Session<'a> {
        let engine = Engine::new(darwin, seed);
        let cfg = engine.darwin().config();
        let strategy = crate::pipeline::default_strategy(cfg, engine.seed_refs());
        let policy = cfg.batch.clone();
        Session::with_strategy(engine, strategy, policy)
    }

    /// A fresh run over `engine` selecting with `strategy` in waves sized
    /// by `policy`.
    pub(crate) fn with_strategy(
        engine: Engine<'a>,
        strategy: Box<dyn Strategy>,
        policy: BatchPolicy,
    ) -> Session<'a> {
        Session {
            engine,
            strategy,
            policy,
            progress: Progress::default(),
        }
    }

    /// Rebuild a suspended run from serialized snapshot bytes. The
    /// snapshot is validated (frame checksum, version window,
    /// config/corpus fingerprints, rule-handle bounds) before any state is
    /// rebuilt; question ids and the wave/submit/retrain counts continue
    /// where the suspended run stopped. [`AsyncReport::wall_ns`] counts
    /// from the resuming process — wall-clock is not part of a snapshot.
    /// Lent or owned, like [`Session::new`].
    pub fn resume(
        darwin: impl Into<Held<'a, Darwin<'a>>>,
        bytes: &[u8],
    ) -> Result<Session<'a>, SnapshotError> {
        let darwin = darwin.into();
        let snap = Snapshot::from_bytes(bytes)?;
        snap.validate_against(&darwin)?;
        let engine = Engine::resume(darwin, &snap)?;
        let cfg = engine.darwin().config();
        let mut strategy = crate::pipeline::default_strategy(cfg, engine.seed_refs());
        strategy.import_state(&snap.strategy);
        let policy = cfg.batch.clone();
        let mut session = Session::with_strategy(engine, strategy, policy);
        session.progress.counters = snap.counters;
        Ok(session)
    }

    /// Append `texts` to the corpus the session owns, grow the index and
    /// the embeddings with it, and reconcile every id-dimensioned structure
    /// in the same call ([`crate::stream`] lists what grows); returns the
    /// number of sentences appended. Legal at any barrier
    /// [`Session::drive`] stopped at, and before the first drive. After the
    /// run is over only the data grows: the finished run's output stays as
    /// it ended.
    ///
    /// Refused before anything changes when the session does not own its
    /// system, corpus and index ([`AppendError::Lent`]), when the index is
    /// pruned (`min_count > 1` renumbers rules on growth), and when the
    /// index does not cover the corpus exactly.
    ///
    /// **Resuming a grown session.** A [`Snapshot`] fingerprints the grown
    /// corpus but does not record the corpus prefix the embeddings were
    /// trained on, so a grown session resumes exactly only over the grown
    /// corpus, its index and the base-trained embeddings grown to its
    /// vocabulary ([`Darwin::with_embeddings`]). Resumed through
    /// [`Darwin::new`] — it trains embeddings over the grown corpus — or
    /// with a remote classifier, whose worker trains its embeddings over the
    /// corpus it is sent, the run silently diverges from the uninterrupted
    /// one.
    pub fn append<I, S>(&mut self, texts: I) -> Result<usize, AppendError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let texts: Vec<String> = texts.into_iter().map(|t| t.as_ref().to_string()).collect();
        match self.progress.finished {
            true => self.engine.grow(&texts).map(|_| texts.len()),
            false => self.engine.append(&texts),
        }
    }

    /// Cumulative wave barriers crossed.
    pub(crate) fn waves(&self) -> u64 {
        self.progress.counters.waves
    }

    /// Whether [`Session::drive`] has run the session to its end.
    pub(crate) fn finished(&self) -> bool {
        self.progress.finished
    }

    /// Drive waves until the run is over (`true`: budget exhausted,
    /// nothing left to ask, or the oracle went silent) or, with
    /// `until_waves = Some(w)`, until the first wave barrier where the
    /// *cumulative* wave count reaches `w` (`false`). A barrier is the
    /// only stopping point — pending set drained, feedback applied,
    /// retrain done — which is what makes [`Session::snapshot`] and a
    /// corpus append there trace-exact. A finished session stays finished.
    pub fn drive(&mut self, oracle: &mut dyn AsyncOracle, until_waves: Option<u64>) -> bool {
        if self.progress.finished {
            return true;
        }
        let started = Instant::now();
        self.progress.finished = self.drive_waves(oracle, until_waves);
        self.progress.wall_ns += started.elapsed().as_nanos();
        self.progress.finished
    }

    fn submit(&mut self, oracle: &mut dyn AsyncOracle, rule: RuleRef) {
        let qid = QuestionId(self.progress.counters.submitted);
        self.progress.counters.submitted += 1;
        self.engine.begin_question(qid, rule);
        let darwin = self.engine.darwin();
        let index = darwin.index();
        let h = index.heuristic(rule);
        oracle.submit(qid, darwin.corpus(), &h, index.coverage(rule));
    }

    fn drive_waves(&mut self, oracle: &mut dyn AsyncOracle, until_waves: Option<u64>) -> bool {
        let budget = self.engine.darwin().config().budget as u64;
        let k = self.policy.max_in_flight() as u64;

        loop {
            // ---- fill a wave ----
            // First pick through the traversal strategy (the synchronous
            // selection), refills through the diverse in-flight ranking —
            // ranked once for the whole wave. The wave's membership is fixed
            // before any of its answers are applied, which is what makes the
            // final state invariant under arrival order.
            if self.progress.counters.submitted < budget {
                if let Some(rule) = self.engine.select(&mut *self.strategy) {
                    self.submit(oracle, rule);
                    let want = (k - 1).min(budget - self.progress.counters.submitted) as usize;
                    for rule in self.engine.select_refill_batch(want) {
                        self.submit(oracle, rule);
                    }
                }
            }
            let in_flight = self.engine.pending_len();
            if in_flight == 0 {
                return true; // budget exhausted or nothing left to ask
            }
            let counters = &mut self.progress.counters;
            counters.waves += 1;
            counters.peak = counters.peak.max(in_flight as u64);

            // ---- drain it: answers apply in arrival order ----
            let mut resolved: Vec<(QuestionId, RuleRef, bool)> = Vec::new();
            let mut grew = false;
            let mut idle_polls = 0usize;
            let mut idle_since: Option<Instant> = None;
            while self.engine.pending_len() > 0 {
                let mut arrived = oracle.poll_deadline(POLL_DEADLINE);
                if arrived.is_empty() {
                    // A dead oracle (wire worker gone, empty annotator
                    // pool) can never deliver: abandon immediately instead
                    // of waiting out the idle limit. A non-blocking oracle
                    // with slow answers: back off instead of spinning;
                    // after a long wall-clock silence abandon the wave and
                    // keep the partial run.
                    let since = *idle_since.get_or_insert_with(Instant::now);
                    if !oracle.healthy() || since.elapsed() >= IDLE_LIMIT {
                        self.progress.abandoned = self.engine.abandon_pending();
                        break;
                    }
                    idle_polls += 1;
                    if idle_polls > SPIN_FREE_POLLS {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    continue;
                }
                idle_polls = 0;
                idle_since = None;
                // Canonical order within one delivery batch; deliveries
                // themselves arrive however the oracle pleases.
                arrived.sort_unstable_by_key(|&(qid, _)| qid);
                for (qid, answer) in arrived {
                    // An unknown or already-resolved id is a misbehaving
                    // oracle (a wire worker fabricating or re-delivering
                    // answers): `resolve` is a no-op for it, so state cannot
                    // corrupt — drop the answer instead of panicking, in
                    // line with the wire layer's no-panic discipline.
                    let Some(rule) = self.engine.resolve(qid, answer) else {
                        continue;
                    };
                    grew |= answer;
                    resolved.push((qid, rule, answer));
                }
            }

            // ---- barrier: strategies observe the wave in submission order,
            // the classifier retrains once if P grew ----
            resolved.sort_unstable_by_key(|&(qid, _, _)| qid);
            for &(_, rule, answer) in &resolved {
                let ctx = self.engine.ctx();
                self.strategy.feedback(rule, answer, &ctx);
            }
            if grew {
                self.engine.retrain_and_sync();
                self.engine.regen_hierarchy();
                self.progress.counters.retrains += 1;
            }
            if self.progress.abandoned > 0 {
                return true; // the oracle went silent: keep the partial run
            }
            if until_waves.is_some_and(|stop| self.progress.counters.waves >= stop) {
                return false;
            }
        }
    }

    /// Serialize the run at the barrier [`Session::drive`] stopped at.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::capture(
            self.engine.darwin(),
            &self.engine,
            self.strategy.as_ref(),
            self.progress.counters,
        )
    }

    /// Consume the session into the run output and its instrumentation.
    pub fn finish(self) -> AsyncRunResult {
        let Progress {
            counters,
            abandoned,
            wall_ns,
            finished: _,
        } = self.progress;
        let run = self.engine.finish();
        let report = AsyncReport {
            waves: counters.waves as usize,
            submitted: counters.submitted as usize,
            peak_in_flight: counters.peak as usize,
            retrains: counters.retrains as usize,
            abandoned,
            wall_ns,
            cost: CostModel::paper().report(run.questions()),
        };
        AsyncRunResult { run, report }
    }
}

/// Hold every delta-maintained structure of `engine` to its from-scratch
/// function at a barrier: the local store against recomputation, remote
/// mirrors against their workers, each candidate's benefit against
/// [`crate::benefit::benefit`], and the hierarchy against the full
/// candidate walk. The in-crate twin of the test harness's stepped-loop
/// audit, which this crate's own tests cannot depend on.
#[cfg(test)]
pub(crate) fn audit(engine: &mut Engine<'_>, label: &str) {
    assert!(engine.store_is_consistent(), "{label}: local store drifted");
    assert_eq!(
        engine.audit_remote_store(),
        Ok(true),
        "{label}: remote mirrors drifted"
    );
    let ctx = engine.ctx();
    for &r in ctx.hierarchy.rules() {
        let scratch = crate::benefit::benefit(ctx.index.coverage(r), ctx.p, ctx.scores);
        assert_eq!(ctx.benefit(r), scratch, "{label}: benefit of {r:?}");
    }
    let darwin = engine.darwin();
    let cfg = darwin.config();
    let max_count = (cfg.max_coverage_frac * darwin.corpus().len() as f64).ceil() as usize;
    let (scratch, _) =
        crate::candidates::generate_hierarchy_scored(ctx.index, ctx.p, cfg.n_candidates, max_count);
    assert_eq!(ctx.hierarchy.rules(), scratch.rules(), "{label}: hierarchy");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::GroundTruthOracle;

    fn corpus() -> (Corpus, Vec<bool>) {
        let c = Corpus::from_texts([
            "the shuttle to the airport leaves hourly",
            "is there a shuttle to the airport tonight",
            "a bus to the airport runs daily",
            "order pizza to the room please",
            "the pool opens at nine daily",
        ]);
        (c, vec![true, true, true, false, false])
    }

    /// Waves of three, driven one barrier at a time: at every barrier the
    /// engine's benefit store, remote mirrors and hierarchy equal their
    /// from-scratch functions, locally and over two shard workers — and
    /// the two deployments ask the same questions.
    #[test]
    fn wave_barriers_audit_exact() {
        let mut texts = Vec::new();
        let mut labels = Vec::new();
        for i in 0..12 {
            texts.push(format!("is there a shuttle to the airport at {i}"));
            texts.push(format!("order a pizza with {i} toppings to the room"));
            texts.push(format!("the bus to the pool leaves at {i}"));
            labels.extend([true, false, i % 3 == 0]);
        }
        let c = Corpus::from_texts(texts.iter());
        let index = darwin_index::IndexSet::build(&c, &darwin_index::IndexConfig::small());
        let cfg = crate::DarwinConfig {
            budget: 12,
            n_candidates: 400,
            shards: 2,
            batch: BatchPolicy::Fixed(3),
            ..crate::DarwinConfig::fast()
        };
        let run = |remote: bool| {
            let mut darwin = Darwin::new(&c, &index, cfg.clone());
            if remote {
                darwin = darwin.with_remote_shards(crate::remote::inproc_shard_connector());
            }
            let mut session = Session::new(&darwin, Seed::Positives(vec![0, 3]));
            let mut oracle = crate::Immediate::new(GroundTruthOracle::new(&labels, 0.8));
            audit(&mut session.engine, &format!("remote={remote}: start"));
            let mut wave = 1;
            while !session.drive(&mut oracle, Some(wave)) {
                audit(
                    &mut session.engine,
                    &format!("remote={remote}: barrier {wave}"),
                );
                wave += 1;
            }
            assert!(wave > 2, "remote={remote}: run ended after {wave} waves");
            session.finish().run
        };
        let (local, remote) = (run(false), run(true));
        assert!(!local.accepted.is_empty(), "no YES: nothing was folded");
        assert!(remote.wire_error.is_none(), "{:?}", remote.wire_error);
        assert_eq!(local.trace, remote.trace);
        assert_eq!(local.scores, remote.scores);
    }

    #[test]
    fn cost_model_matches_paper_pricing() {
        let m = CostModel::paper();
        let c = m.report(10);
        assert_eq!(c.questions, 10);
        assert_eq!(c.judgments, 30);
        assert_eq!(c.cents, 60, "10 questions × 3 members × 2¢");
        assert!((c.dollars() - 0.60).abs() < 1e-9);
        assert_eq!(CostModel::single().report(10).cents, 20);
    }

    #[test]
    fn scripted_arrival_reorders_answers() {
        let (c, labels) = corpus();
        let r = Heuristic::phrase(&c, "shuttle").unwrap();
        // First submission held 2 polls, second released immediately.
        let mut o = ScriptedArrival::new(GroundTruthOracle::new(&labels, 0.8), vec![2, 0]);
        o.submit(QuestionId(0), &c, &r, &[0, 1]);
        o.submit(QuestionId(1), &c, &r, &[3, 4]);
        assert_eq!(o.poll(), vec![(QuestionId(1), false)], "q1 lands first");
        assert_eq!(o.poll(), vec![]);
        assert_eq!(o.poll(), vec![(QuestionId(0), true)], "q0 lands last");
        assert_eq!(o.queries(), 2);
    }

    #[test]
    fn simulated_latency_delivers_after_the_deadline() {
        let (c, labels) = corpus();
        let r = Heuristic::phrase(&c, "shuttle").unwrap();
        let mut o = SimulatedLatency::new(
            GroundTruthOracle::new(&labels, 0.8),
            Duration::from_millis(5),
        );
        assert!(o.poll().is_empty(), "no blocking when nothing in flight");
        let t = Instant::now();
        o.submit(QuestionId(0), &c, &r, &[0, 1]);
        let got = o.poll();
        assert!(t.elapsed() >= Duration::from_millis(5));
        assert_eq!(got, vec![(QuestionId(0), true)]);
    }
}
