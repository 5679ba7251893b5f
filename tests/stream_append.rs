//! Property tests for the append-equivalence contract: a
//! [`StreamSession`] that appends at arbitrary wave barriers under an
//! arbitrary deployment (shards × threads × transport × fanout) is
//! bit-identical — trace, positives, accepted/rejected, scores — to the
//! local S=1, t=1 session driven through the *same* schedule, and after
//! every append its grown index equals [`IndexSet::build`] on the grown
//! corpus. Edge schedules (empty appends, append before the first wave,
//! appends after completion) fall out of the generator rather than being
//! pinned one by one. The engine-side structures (benefit store, remote
//! mirrors, hierarchy) are audited against their from-scratch functions
//! at every append and wave barrier by `darwin_core::stream`'s own tests.

use darwin::core::{
    BatchPolicy, DarwinConfig, Fanout, GroundTruthOracle, Immediate, RunResult, Seed, StreamSession,
};
use darwin::index::{IndexConfig, IndexSet, RuleRef};
use darwin::text::Corpus;
use darwin_testkit::{shard_connector, TransportKind};
use proptest::prelude::*;
use std::path::PathBuf;

fn worker_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_darwin-worker"))
}

/// The base corpus every schedule starts from (transport-intent fixture:
/// shuttle questions positive, pizza/pool noise negative).
fn base_texts() -> (Vec<String>, Vec<bool>) {
    let mut texts = Vec::new();
    let mut labels = Vec::new();
    for i in 0..10 {
        texts.push(format!("is there a shuttle to the airport at {i}"));
        labels.push(true);
        texts.push(format!("order a pizza with {i} toppings to the room"));
        labels.push(false);
        texts.push(format!("the pool opens at {i} for guests"));
        labels.push(false);
    }
    (texts, labels)
}

/// Deterministic append batch for round `round`: alternating new positives
/// (a family the base corpus only hints at) and new negatives, both with
/// fresh vocabulary so the embedding zero-pad path is always exercised.
/// `size` 0 is a legal, deliberately generated empty append.
fn batch_texts(round: usize, size: usize, labels: &mut Vec<bool>) -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..size {
        if i % 2 == 0 {
            out.push(format!("is there a bus to the airport at {round}x{i}"));
            labels.push(true);
        } else {
            out.push(format!("the gym closes at {round}x{i} tonight"));
            labels.push(false);
        }
    }
    out
}

/// One sampled deployment: shard count, thread count, transport (`None` =
/// the local store, which has one shard) and fanout.
#[derive(Clone, Debug)]
struct Deployment {
    shards: usize,
    threads: usize,
    transport: Option<TransportKind>,
    fanout: Fanout,
}

/// One sampled append schedule: a batch appended before the first wave
/// (possibly empty), then (barrier gap, batch size) steps.
#[derive(Clone, Debug)]
struct Schedule {
    pre: usize,
    steps: Vec<(u64, usize)>,
}

fn deployment() -> impl Strategy<Value = Deployment> {
    (
        1usize..4,
        1usize..3,
        prop::sample::select(vec![
            None,
            Some(TransportKind::InProc),
            Some(TransportKind::Proc),
            Some(TransportKind::Tcp),
        ]),
        prop::bool::ANY,
    )
        .prop_map(|(shards, threads, transport, concurrent)| Deployment {
            shards: if transport.is_some() { shards } else { 1 },
            threads,
            transport,
            fanout: if concurrent {
                Fanout::Concurrent
            } else {
                Fanout::Sequential
            },
        })
}

fn schedule() -> impl Strategy<Value = Schedule> {
    (0usize..4, prop::collection::vec((1u64..4, 0usize..6), 0..3))
        .prop_map(|(pre, steps)| Schedule { pre, steps })
}

fn cfg(d: &Deployment) -> DarwinConfig {
    DarwinConfig {
        budget: 6,
        n_candidates: 400,
        shards: d.shards,
        threads: d.threads,
        batch: BatchPolicy::Fixed(3),
        fanout: d.fanout,
        ..DarwinConfig::fast()
    }
}

/// Everything a session can observe of an index's rules: the rule
/// sequence, each rule's heuristic and coverage.
fn assert_index_is_build(session: &StreamSession, label: &str) {
    let (index, corpus) = (session.index(), session.corpus());
    let built = IndexSet::build(corpus, index.config());
    assert_eq!(index.sentences(), built.sentences(), "{label}: sentences");
    let rules: Vec<RuleRef> = index.all_rules().collect();
    assert_eq!(
        rules,
        built.all_rules().collect::<Vec<_>>(),
        "{label}: rule sequence"
    );
    for &r in &rules {
        assert_eq!(index.heuristic(r), built.heuristic(r), "{label}: {r:?}");
        assert_eq!(index.coverage(r), built.coverage(r), "{label}: {r:?}");
    }
}

/// Drive `sched` under `d` and return the finished run, holding the index
/// to a fresh build after every append. Labels are a pure function of the
/// schedule, so the reference and the candidate see the same oracle.
fn run_schedule(sched: &Schedule, d: &Deployment) -> RunResult {
    let (base, mut labels) = base_texts();
    let pre_batch = batch_texts(0, sched.pre, &mut labels);
    let step_batches: Vec<Vec<String>> = sched
        .steps
        .iter()
        .enumerate()
        .map(|(i, &(_, size))| batch_texts(i + 1, size, &mut labels))
        .collect();

    let corpus = Corpus::from_texts(base.iter());
    let index = IndexSet::build(
        &corpus,
        &IndexConfig {
            max_phrase_len: 4,
            min_count: 1,
            ..Default::default()
        },
    );
    let mut session = StreamSession::new(corpus, index, cfg(d), Seed::Positives(vec![0, 3]));
    if let Some(kind) = d.transport {
        session = session.with_remote_shards(shard_connector(kind, Some(worker_exe())));
    }
    let mut oracle = Immediate::new(GroundTruthOracle::new(&labels, 0.8));
    session.append(pre_batch.iter()).unwrap();
    assert_index_is_build(&session, "append before the first wave");
    let mut barrier = 0u64;
    for (&(gap, _), batch) in sched.steps.iter().zip(&step_batches) {
        barrier += gap;
        // Appending after completion is legal (it grows the corpus for a
        // later session); the equivalence of the *finished* run is what
        // the contract pins, so keep applying the schedule either way.
        session.drive(&mut oracle, Some(barrier));
        session.append(batch.iter()).unwrap();
        assert_index_is_build(&session, &format!("append at barrier {barrier}"));
    }
    session.drive(&mut oracle, None);
    session.into_result().expect("run completes").run
}

fn assert_same_run(a: &RunResult, b: &RunResult, label: &str) {
    assert_eq!(a.trace, b.trace, "{label}: trace");
    assert_eq!(a.positives, b.positives, "{label}: positives");
    assert_eq!(a.accepted, b.accepted, "{label}: accepted");
    assert_eq!(a.rejected, b.rejected, "{label}: rejected");
    assert_eq!(a.scores, b.scores, "{label}: scores");
    assert_eq!(a.wire_error, b.wire_error, "{label}: wire error");
}

proptest! {
    // Each case is two full interactive sessions (one possibly over
    // process/TCP workers), so the case count is deliberately small —
    // the pinned matrix in `darwin_core::stream` covers the named
    // corners every time.
    #![proptest_config(ProptestConfig { cases: 6, ..Default::default() })]

    /// Appends under any sampled deployment replay the local
    /// single-shard session bit for bit, for any sampled append schedule.
    #[test]
    fn append_schedule_equivalence(sched in schedule(), d in deployment()) {
        let reference = run_schedule(
            &sched,
            &Deployment { shards: 1, threads: 1, transport: None, fanout: Fanout::Sequential },
        );
        let got = run_schedule(&sched, &d);
        let label = format!("schedule {sched:?} under {d:?}");
        assert_same_run(&got, &reference, &label);
    }
}
