//! Forwarding wrappers that observe a session at its boundaries and never
//! perturb it: every call is passed through unchanged and only clock
//! readings and counters are kept. The oracle wrappers are the measuring
//! instrument of the end-to-end metrics (they are always on); the
//! transport wrapper is part of the traced run only.

use crate::procfs;
use darwin_core::{AsyncOracle, Oracle, QuestionId, RunResult};
use darwin_grammar::Heuristic;
use darwin_text::Corpus;
use darwin_wire::{Transport, WireError};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One call through an oracle wrapper.
#[derive(Clone, Debug)]
pub enum OracleCall {
    /// `Oracle::ask`: question handed out at `start`, answered at `end`.
    Ask {
        start: Instant,
        end: Instant,
        answer: bool,
    },
    /// `AsyncOracle::submit`: question handed out at `start`.
    Submit { start: Instant, end: Instant },
    /// `AsyncOracle::poll`/`poll_deadline` and what it delivered.
    Poll {
        start: Instant,
        end: Instant,
        answers: Vec<bool>,
    },
}

impl OracleCall {
    /// When the call was made and when it returned.
    pub fn interval(&self) -> (Instant, Instant) {
        match self {
            OracleCall::Ask { start, end, .. }
            | OracleCall::Submit { start, end }
            | OracleCall::Poll { start, end, .. } => (*start, *end),
        }
    }

    /// Span name of the call in the traced run.
    pub fn span_name(&self) -> &'static str {
        match self {
            OracleCall::Ask { .. } => "core.oracle.ask",
            OracleCall::Submit { .. } => "core.oracle.submit",
            OracleCall::Poll { .. } => "core.oracle.poll",
        }
    }
}

/// Everything the oracle wrappers record.
#[derive(Default)]
pub struct OracleLog {
    pub calls: Vec<OracleCall>,
    /// Process CPU seconds when the first question was handed out.
    pub cpu_at_first_call: f64,
}

impl OracleLog {
    fn note_first_call(&mut self) {
        if self.calls.is_empty() {
            self.cpu_at_first_call = procfs::cpu_s();
        }
    }

    /// When the first question was handed to the oracle: the end of
    /// set-up and the start of the session.
    pub fn first_call(&self) -> Option<Instant> {
        self.calls.first().map(|c| c.interval().0)
    }

    /// Seconds spent inside the oracle (asking, submitting, polling).
    pub fn wait_s(&self) -> f64 {
        self.calls
            .iter()
            .map(|c| {
                let (start, end) = c.interval();
                (end - start).as_secs_f64()
            })
            .sum()
    }

    /// The calls grouped into rounds: one `ask`, or one wave of submits
    /// with the polls that drained it.
    pub fn rounds(&self) -> Vec<Round> {
        let mut rounds: Vec<Round> = Vec::new();
        let mut filling = false;
        for call in &self.calls {
            match call {
                OracleCall::Ask { start, end, answer } => rounds.push(Round {
                    first_handout: *start,
                    last_handout: *start,
                    last_answer: *end,
                    questions: 1,
                    answered: 1,
                    yes: *answer,
                }),
                OracleCall::Submit { start, .. } => {
                    if filling {
                        let r = rounds.last_mut().expect("a wave is open");
                        r.last_handout = *start;
                        r.questions += 1;
                    } else {
                        filling = true;
                        rounds.push(Round {
                            first_handout: *start,
                            last_handout: *start,
                            last_answer: *start,
                            questions: 1,
                            answered: 0,
                            yes: false,
                        });
                    }
                }
                OracleCall::Poll { end, answers, .. } => {
                    filling = false;
                    if let Some(r) = rounds.last_mut() {
                        if !answers.is_empty() {
                            r.last_answer = *end;
                            r.answered += answers.len();
                            r.yes |= answers.iter().any(|&a| a);
                        }
                    }
                }
            }
        }
        rounds
    }
}

/// One question (sequential loop) or one wave (async loop), as the
/// annotator sees it.
#[derive(Clone, Copy, Debug)]
pub struct Round {
    pub first_handout: Instant,
    pub last_handout: Instant,
    /// When the round's last answer was back in the loop's hands.
    pub last_answer: Instant,
    pub questions: usize,
    pub answered: usize,
    /// Whether any answer of the round was a YES (the round ends in a
    /// retrain barrier).
    pub yes: bool,
}

/// Annotator-visible waits between rounds, in milliseconds: from the last
/// answer of a round to the first question of the next, split by whether
/// the round contained a YES. The last round has no next question and
/// yields no sample.
pub fn waits_ms(rounds: &[Round]) -> (Vec<f64>, Vec<f64>) {
    let (mut after_yes, mut after_no) = (Vec::new(), Vec::new());
    for pair in rounds.windows(2) {
        let wait = pair[1]
            .first_handout
            .saturating_duration_since(pair[0].last_answer)
            .as_secs_f64()
            * 1e3;
        if pair[0].yes {
            after_yes.push(wait);
        } else {
            after_no.push(wait);
        }
    }
    (after_yes, after_no)
}

/// [`Oracle`] wrapper stamping each `ask`.
pub struct TimedOracle<O> {
    inner: O,
    pub log: OracleLog,
}

impl<O: Oracle> TimedOracle<O> {
    pub fn new(inner: O) -> TimedOracle<O> {
        TimedOracle {
            inner,
            log: OracleLog::default(),
        }
    }
}

impl<O: Oracle> Oracle for TimedOracle<O> {
    fn ask(&mut self, corpus: &Corpus, rule: &Heuristic, coverage: &[u32]) -> bool {
        self.log.note_first_call();
        let start = Instant::now();
        let answer = self.inner.ask(corpus, rule, coverage);
        let end = Instant::now();
        self.log.calls.push(OracleCall::Ask { start, end, answer });
        answer
    }

    fn queries(&self) -> usize {
        self.inner.queries()
    }
}

/// [`AsyncOracle`] wrapper stamping each `submit`, `poll` and
/// `poll_deadline`.
pub struct TimedAsyncOracle<O> {
    inner: O,
    pub log: OracleLog,
}

impl<O: AsyncOracle> TimedAsyncOracle<O> {
    pub fn new(inner: O) -> TimedAsyncOracle<O> {
        TimedAsyncOracle {
            inner,
            log: OracleLog::default(),
        }
    }

    fn polled(&mut self, start: Instant, got: &[(QuestionId, bool)]) {
        let end = Instant::now();
        self.log.calls.push(OracleCall::Poll {
            start,
            end,
            answers: got.iter().map(|&(_, a)| a).collect(),
        });
    }
}

impl<O: AsyncOracle> AsyncOracle for TimedAsyncOracle<O> {
    fn submit(&mut self, qid: QuestionId, corpus: &Corpus, rule: &Heuristic, coverage: &[u32]) {
        self.log.note_first_call();
        let start = Instant::now();
        self.inner.submit(qid, corpus, rule, coverage);
        let end = Instant::now();
        self.log.calls.push(OracleCall::Submit { start, end });
    }

    fn poll(&mut self) -> Vec<(QuestionId, bool)> {
        let start = Instant::now();
        let got = self.inner.poll();
        self.polled(start, &got);
        got
    }

    fn poll_deadline(&mut self, timeout: Duration) -> Vec<(QuestionId, bool)> {
        let start = Instant::now();
        let got = self.inner.poll_deadline(timeout);
        self.polled(start, &got);
        got
    }

    fn healthy(&self) -> bool {
        self.inner.healthy()
    }

    fn queries(&self) -> usize {
        self.inner.queries()
    }
}

/// Counters shared by every [`TimedTransport`] of one session.
#[derive(Default)]
pub struct WireStats {
    /// Connector calls; more than the shard count means reconnects.
    pub connects: u64,
    pub sends: u64,
    /// Frames received, each the reply closing one request.
    pub round_trips: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    /// Time blocked in `recv_timeout`, nanoseconds.
    pub recv_wait_ns: u64,
    /// First send of a request → its reply received, microseconds.
    pub rtts_us: Vec<f64>,
}

pub type SharedWireStats = Arc<Mutex<WireStats>>;

/// [`Transport`] wrapper counting frames and bytes and timing the waits
/// for replies.
pub struct TimedTransport {
    inner: Box<dyn Transport>,
    stats: SharedWireStats,
    request_sent: Option<Instant>,
}

impl TimedTransport {
    pub fn new(inner: Box<dyn Transport>, stats: SharedWireStats) -> TimedTransport {
        TimedTransport {
            inner,
            stats,
            request_sent: None,
        }
    }

    fn stats(&self) -> std::sync::MutexGuard<'_, WireStats> {
        self.stats
            .lock()
            .expect("a transport thread panicked while counting")
    }
}

impl Transport for TimedTransport {
    fn send(&mut self, payload: &[u8]) -> Result<(), WireError> {
        self.request_sent.get_or_insert_with(Instant::now);
        {
            let mut s = self.stats();
            s.sends += 1;
            s.bytes_sent += payload.len() as u64;
        }
        self.inner.send(payload)
    }

    fn flush(&mut self) -> Result<(), WireError> {
        self.inner.flush()
    }

    fn recv_timeout(&mut self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>, WireError> {
        let start = Instant::now();
        let got = self.inner.recv_timeout(timeout);
        let end = Instant::now();
        let reply_len = match &got {
            Ok(Some(frame)) => Some(frame.len() as u64),
            _ => None,
        };
        let sent = match reply_len {
            Some(_) => self.request_sent.take(),
            None => None,
        };
        let mut s = self.stats();
        s.recv_wait_ns += (end - start).as_nanos() as u64;
        if let Some(len) = reply_len {
            s.round_trips += 1;
            s.bytes_received += len;
            if let Some(sent) = sent {
                s.rtts_us.push((end - sent).as_secs_f64() * 1e6);
            }
        }
        drop(s);
        got
    }
}

/// FNV-1a, so the digest does not depend on the standard library's
/// randomly keyed default hasher.
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of everything a run decided: the question sequence with its
/// answers and positive-set growth, the final positives, the accepted and
/// rejected rules, and the final scores bit for bit. Two runs with equal
/// digests asked the same questions and ended in the same state.
pub fn trace_digest(run: &RunResult) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for step in &run.trace {
        step.question.hash(&mut h);
        step.rule.hash(&mut h);
        step.answer.hash(&mut h);
        step.new_positive_ids.hash(&mut h);
        step.p_size.hash(&mut h);
    }
    run.positives.hash(&mut h);
    run.accepted.hash(&mut h);
    run.rejected.hash(&mut h);
    for s in &run.scores {
        s.to_bits().hash(&mut h);
    }
    run.wire_error.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use darwin_core::{
        BatchPolicy, Darwin, DarwinConfig, GroundTruthOracle, Immediate, Seed, TraceStep,
    };
    use darwin_index::{IndexConfig, IndexSet};

    fn fixture() -> (Corpus, Vec<bool>) {
        let mut texts = Vec::new();
        let mut labels = Vec::new();
        for i in 0..12 {
            texts.push(format!("is there a shuttle to the airport at {i}"));
            labels.push(true);
            texts.push(format!("is there a bus to the airport at {i}"));
            labels.push(true);
            texts.push(format!("order a pizza with {i} toppings to the room"));
            labels.push(false);
            texts.push(format!("the pool opens at {i} for guests"));
            labels.push(false);
            texts.push(format!("the wifi code for room {i} is posted"));
            labels.push(false);
        }
        (Corpus::from_texts(texts.iter()), labels)
    }

    /// The wrappers observe and never perturb: a wrapped and an unwrapped
    /// run of the same small session produce the same trace digest, on
    /// the sequential and on the async loop.
    #[test]
    fn wrapped_and_unwrapped_runs_share_a_digest() {
        let (corpus, labels) = fixture();
        let index = IndexSet::build(&corpus, &IndexConfig::small());
        let cfg = DarwinConfig {
            batch: BatchPolicy::Fixed(3),
            ..DarwinConfig::fast().with_budget(12)
        };
        let darwin = Darwin::new(&corpus, &index, cfg);
        let seed = || Seed::Rule(Heuristic::phrase(&corpus, "shuttle to the airport").unwrap());

        let plain = darwin.run(seed(), &mut GroundTruthOracle::new(&labels, 0.8));
        let mut timed = TimedOracle::new(GroundTruthOracle::new(&labels, 0.8));
        let wrapped = darwin.run(seed(), &mut timed);
        assert_eq!(trace_digest(&plain), trace_digest(&wrapped));
        assert_eq!(timed.log.calls.len(), wrapped.questions());
        assert_eq!(timed.log.rounds().len(), wrapped.questions());

        let mut plain_async = Immediate::new(GroundTruthOracle::new(&labels, 0.8));
        let plain = darwin.run_async(seed(), &mut plain_async);
        let mut timed = TimedAsyncOracle::new(Immediate::new(GroundTruthOracle::new(&labels, 0.8)));
        let wrapped = darwin.run_async(seed(), &mut timed);
        assert_eq!(trace_digest(&plain.run), trace_digest(&wrapped.run));
        let rounds = timed.log.rounds();
        assert_eq!(rounds.len(), wrapped.report.waves);
        assert_eq!(
            rounds.iter().map(|r| r.questions).sum::<usize>(),
            wrapped.report.submitted
        );
        assert!(rounds.iter().all(|r| r.answered == r.questions));
        assert_eq!(
            rounds.iter().filter(|r| r.yes).count(),
            wrapped.report.retrains
        );
    }

    #[test]
    fn digest_is_repeatable_and_sees_every_field() {
        let (corpus, _) = fixture();
        let rule = Heuristic::phrase(&corpus, "to the airport").unwrap();
        let base = || RunResult {
            accepted: vec![rule.clone()],
            rejected: Vec::new(),
            positives: vec![0, 1, 5],
            trace: vec![TraceStep {
                question: 1,
                rule: rule.clone(),
                answer: true,
                new_positive_ids: vec![5],
                p_size: 3,
            }],
            scores: vec![0.25, 0.5, 0.75],
            wire_error: None,
        };
        let digest = trace_digest(&base());
        assert_eq!(digest, trace_digest(&base()));

        let mut flipped_answer = base();
        flipped_answer.trace[0].answer = false;
        let mut moved_score = base();
        moved_score.scores[1] = f32::from_bits(0.5f32.to_bits() + 1);
        let mut extra_positive = base();
        extra_positive.positives.push(7);
        let mut wire_abort = base();
        wire_abort.wire_error = Some("disconnected".into());
        for other in [flipped_answer, moved_score, extra_positive, wire_abort] {
            assert_ne!(digest, trace_digest(&other));
        }
    }

    #[test]
    fn waits_split_on_the_round_before() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let round = |handout: u64, answer: u64, yes: bool| Round {
            first_handout: at(handout),
            last_handout: at(handout),
            last_answer: at(answer),
            questions: 1,
            answered: 1,
            yes,
        };
        let rounds = [round(0, 1, true), round(31, 32, false), round(34, 35, true)];
        let (after_yes, after_no) = waits_ms(&rounds);
        assert_eq!(after_yes.len(), 1, "the last round has no next question");
        assert!((after_yes[0] - 30.0).abs() < 1e-9);
        assert!((after_no[0] - 2.0).abs() < 1e-9);
    }
}
