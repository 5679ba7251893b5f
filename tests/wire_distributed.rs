//! The wire boundary's defining contract: **any transport replays the
//! in-process trace byte for byte.**
//!
//! A distributed deployment — shard partitions in workers (threads over
//! channels, or real child processes over stdio pipes) and the oracle in
//! another worker — is an *execution detail*, exactly like shard and
//! thread counts before it: benefit fragments are integers on the wire,
//! scores cross bit-exactly, and the worker rebuilds an identical index
//! from the same texts, so selection asks the same question sequence.
//!
//! The matrix pinned here (acceptance criterion of the wire PR, extended
//! by the fan-out PR): transport {InProc, Proc, Tcp} × S ∈ {1,2,4} ×
//! threads ∈ {1,4} × batch ∈ {1,8} × fanout {Sequential, Concurrent} —
//! batch 1 against the synchronous local trace, larger batches against
//! the local async run of the same batch size.
//!
//! Fault injection rides the same suite: a dying shard worker poisons the
//! coordinator and aborts the run *cleanly* (`RunResult::wire_error`, no
//! panic, no partial merge), and a dead oracle worker abandons the wave
//! like PR 4's silent-oracle path.
//!
//! `DARWIN_TEST_TRANSPORT` (CI runs `inproc` and `proc`) selects the
//! deployment the env-pinned cell runs with, mirroring
//! `DARWIN_TEST_THREADS`/`DARWIN_TEST_BATCH`.

use darwin::prelude::*;
use darwin_core::AsyncRunResult;
use darwin_testkit::{
    assert_equivalent, directions_fixture, shard_connector, step_reference_with, test_batch,
    test_threads, test_transport, wire_oracle, Fault, FlakyTransport, TransportKind,
};
use darwin_wire::{InProc, Transport, WireError};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const N: usize = 600;
const DSEED: u64 = 42;

fn worker_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_darwin-worker"))
}

/// The recipe `directions_fixture` builds its index with — the workers
/// must rebuild the identical index, so this must match
/// `darwin_testkit::indexed(corpus, 4)`.
fn index_cfg() -> IndexConfig {
    IndexConfig {
        max_phrase_len: 4,
        min_count: 2,
        ..Default::default()
    }
}

fn cfg(_n: usize, shards: usize, threads: usize, batch: usize) -> DarwinConfig {
    // budget/candidates sized so the ground-truth oracle accepts several
    // rules — every YES drives positive-delta, journal and rebuild
    // messages across the wire, which is the machinery under test.
    DarwinConfig {
        budget: 15,
        n_candidates: 1200,
        shards,
        threads,
        batch: BatchPolicy::Fixed(batch),
        ..DarwinConfig::fast()
    }
}

/// The purely local reference run at the same batch size.
fn run_local(n: usize, shards: usize, threads: usize, batch: usize) -> AsyncRunResult {
    let (d, index) = directions_fixture(n, DSEED);
    let darwin = Darwin::new(&d.corpus, &index, cfg(n, shards, threads, batch));
    let seed = Seed::Rule(Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap());
    let mut oracle = Immediate::new(GroundTruthOracle::new(&d.labels, 0.8));
    darwin.run_async(seed, &mut oracle)
}

/// The distributed run: shard workers + an oracle worker over `kind`.
fn run_distributed(
    n: usize,
    kind: TransportKind,
    shards: usize,
    threads: usize,
    batch: usize,
    fanout: Fanout,
) -> AsyncRunResult {
    let (d, index) = directions_fixture(n, DSEED);
    let darwin = Darwin::new(
        &d.corpus,
        &index,
        cfg(n, shards, threads, batch).with_fanout(fanout),
    )
    .with_remote_shards(shard_connector(kind, Some(worker_exe())));
    let seed = Seed::Rule(Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap());
    let labels: &'static [bool] = Box::leak(d.labels.clone().into_boxed_slice());
    let exe = worker_exe();
    let args = vec!["--directions".to_string(), n.to_string(), DSEED.to_string()];
    let mut oracle = wire_oracle(
        kind,
        &d.corpus,
        GroundTruthOracle::new(labels, 0.8),
        Some((&exe, &args)),
    )
    .expect("oracle worker connects");
    let out = darwin.run_async(seed, &mut oracle);
    assert!(
        out.run.wire_error.is_none(),
        "healthy deployment must not report a wire error: {:?}",
        out.run.wire_error
    );
    out
}

/// Batch 1: every transport × shard count replays the *synchronous*
/// local trace byte for byte, at the env-configured thread count, with
/// the concurrent fan-out that is the default.
#[test]
fn wire_batch1_replays_synchronous_trace() {
    let threads = test_threads();
    let reference = run_local(N, 1, threads, 1);
    assert!(reference.run.questions() > 5, "reference asked nothing");
    for kind in [
        TransportKind::InProc,
        TransportKind::Proc,
        TransportKind::Tcp,
    ] {
        for shards in [1usize, 2, 4] {
            let done = run_distributed(N, kind, shards, threads, 1, Fanout::Concurrent);
            assert_equivalent(
                &reference.run,
                &done.run,
                &format!("{kind:?} S={shards} T={threads} batch=1"),
            );
        }
    }
}

/// The fan-out knob is a pure latency knob: sequential round trips and
/// the overlapped broadcast replay the identical trace at S = 4.
#[test]
fn sequential_fanout_replays_concurrent_trace() {
    let reference = run_local(N, 1, 1, 1);
    for fanout in [Fanout::Sequential, Fanout::Concurrent] {
        let done = run_distributed(N, TransportKind::InProc, 4, 1, 1, fanout);
        assert_equivalent(&reference.run, &done.run, &format!("{fanout:?} S=4"));
    }
}

/// Batch 8: the wire deployment replays the local *async* run of the same
/// batch size exactly (same wave fills, same arrivals-at-next-poll
/// schedule on both sides).
#[test]
fn wire_batch8_replays_local_async_run() {
    let threads = test_threads();
    let reference = run_local(N, 1, threads, 8);
    for kind in [
        TransportKind::InProc,
        TransportKind::Proc,
        TransportKind::Tcp,
    ] {
        let done = run_distributed(N, kind, 2, threads, 8, Fanout::Concurrent);
        assert_equivalent(
            &reference.run,
            &done.run,
            &format!("{kind:?} S=2 T={threads} batch=8"),
        );
    }
}

/// The env-pinned cell of the CI matrix: DARWIN_TEST_TRANSPORT ×
/// DARWIN_TEST_THREADS × DARWIN_TEST_BATCH, S = 2.
#[test]
fn wire_env_cell_matches_local() {
    let (kind, threads, batch) = (test_transport(), test_threads(), test_batch());
    let reference = run_local(N, 1, threads, batch);
    let done = run_distributed(N, kind, 2, threads, batch, Fanout::Concurrent);
    assert_equivalent(
        &reference.run,
        &done.run,
        &format!("env cell {kind:?} T={threads} B={batch}"),
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..Default::default() })]

    /// The full acceptance matrix, sampled: transport × S ∈ {1,2,4} ×
    /// threads ∈ {1,4} × batch ∈ {1,8} × fanout reproduces the
    /// in-process S=1 run of the same batch size (which batch_async.rs
    /// pins to the synchronous trace at batch 1).
    #[test]
    fn wire_matrix_replays_inprocess_trace(
        kind in prop::sample::select(vec![
            TransportKind::InProc,
            TransportKind::Proc,
            TransportKind::Tcp,
        ]),
        shards in prop::sample::select(vec![1usize, 2, 4]),
        threads in prop::sample::select(vec![1usize, 4]),
        batch in prop::sample::select(vec![1usize, 8]),
        sequential in prop::bool::ANY,
    ) {
        let fanout = if sequential { Fanout::Sequential } else { Fanout::Concurrent };
        let reference = run_local(300, 1, threads, batch);
        let done = run_distributed(300, kind, shards, threads, batch, fanout);
        assert_equivalent(
            &reference.run,
            &done.run,
            &format!("{kind:?} S={shards} T={threads} B={batch} {fanout:?}"),
        );
    }
}

/// A healthy distributed engine keeps its fragment mirrors *exact*: the
/// audited stepped loop fetches every fragment back from the workers
/// after each record and retrain and compares.
#[test]
fn remote_mirrors_audit_exact_after_stepping() {
    let (d, index) = directions_fixture(N, DSEED);
    let c = DarwinConfig {
        budget: 6,
        ..cfg(N, 3, 1, 1)
    };
    let darwin = Darwin::new(&d.corpus, &index, c)
        .with_remote_shards(shard_connector(TransportKind::InProc, None));
    let seed = Seed::Rule(Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap());
    let mut oracle = GroundTruthOracle::new(&d.labels, 0.8);
    let run = step_reference_with(&darwin, seed, &mut oracle, |_| {
        Box::new(darwin_core::traversal::UniversalSearch::new())
    });
    assert!(run.wire_error.is_none(), "{:?}", run.wire_error);
    assert_eq!(run.questions(), 6, "every step must be audited");
}

/// `IndexConfig::threads` is a deployment axis like any other: the
/// coordinator builds its index at 4 threads over a corpus past every
/// fan-out threshold, the shard workers rebuild theirs at 1, and both
/// sides must mean the same rule by the same `RuleRef` — every tracked
/// rule's merged remote benefit equals the local store's, the mirrors
/// audit exact, and the distributed run replays the local trace.
#[test]
fn threaded_coordinator_index_numbers_rules_like_its_workers() {
    let d = darwin::datasets::directions::generate(2500, 7);
    let recipe = IndexConfig {
        max_phrase_len: 4,
        min_count: 1,
        threads: 4,
        ..Default::default()
    };
    let index = IndexSet::build(&d.corpus, &recipe);
    let seed = || Seed::Rule(Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap());
    let run_cfg = DarwinConfig {
        budget: 6,
        ..cfg(d.len(), 2, 1, 1)
    };
    let local = Darwin::new(&d.corpus, &index, run_cfg.clone());
    let remote = Darwin::new(&d.corpus, &index, run_cfg)
        .with_remote_shards(shard_connector(TransportKind::InProc, None));

    let (le, mut re) = (local.engine(seed()), remote.engine(seed()));
    assert!(re.wire_error().is_none(), "{:?}", re.wire_error());
    let tracked = le.hierarchy().rules().to_vec();
    assert_eq!(tracked, re.hierarchy().rules());
    assert!(tracked.len() > 100, "hierarchy too small to tell");
    for &r in &tracked {
        assert_eq!(le.benefit_sum(r), re.benefit_sum(r), "{r:?} benefit");
    }
    assert!(re.audit_remote_store().unwrap(), "mirror drifted");
    drop((le, re));

    let mut oracle = GroundTruthOracle::new(&d.labels, 0.8);
    let reference = local.run(seed(), &mut oracle);
    let mut oracle = GroundTruthOracle::new(&d.labels, 0.8);
    let done = remote.run(seed(), &mut oracle);
    assert!(done.wire_error.is_none(), "{:?}", done.wire_error);
    assert!(reference.questions() > 3, "reference asked nothing");
    assert_equivalent(&reference, &done, "index threads=4 vs workers at 1");
}

/// A shard worker that dies mid-run *and cannot be restarted*: the run
/// aborts *cleanly* — the reconnect attempt fails, the error surfaces in
/// `RunResult::wire_error`, the applied prefix stays coherent, and
/// nothing panics. (When restart succeeds, the run recovers instead —
/// see `flaky_shard_worker_reconnects_and_replays`.)
#[test]
fn dying_shard_worker_aborts_cleanly() {
    let (d, index) = directions_fixture(N, DSEED);
    // Let the handshake, init and first hierarchy tracking through
    // (hello, init, retain, track_scored — 4 sends), then the transport
    // to shard 0 starts dropping everything: the first YES's store
    // update is the first casualty. Re-dials are refused, so
    // reconnect-and-replay cannot save the run.
    let dials = Arc::new(AtomicUsize::new(0));
    let dials_in = dials.clone();
    let connect: Box<darwin_core::ShardConnector> = Box::new(move |s, _range| {
        if s == 0 && dials_in.fetch_add(1, Ordering::SeqCst) > 0 {
            return Err(WireError::Disconnected);
        }
        let (client, mut server) = InProc::pair();
        std::thread::spawn(move || {
            let _ = darwin_core::serve_shard(&mut server);
        });
        let t: Box<dyn Transport> = if s == 0 {
            Box::new(FlakyTransport::after(Box::new(client), Fault::Drop, 4))
        } else {
            Box::new(client)
        };
        Ok(t)
    });
    let darwin = Darwin::new(&d.corpus, &index, cfg(N, 2, 1, 1)).with_remote_shards(connect);
    let seed = Seed::Rule(Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap());
    let mut oracle = GroundTruthOracle::new(&d.labels, 0.8);
    let run = darwin.run(seed, &mut oracle);
    let err = run
        .wire_error
        .as_deref()
        .expect("wire failure must surface");
    assert!(!err.is_empty());
    assert!(
        dials.load(Ordering::SeqCst) > 1,
        "the coordinator must have attempted a restart before giving up"
    );
    // The prefix is coherent: every trace step's P growth is consistent.
    let mut prev = run.p_size_after(0);
    for step in &run.trace {
        assert!(step.p_size >= prev);
        prev = step.p_size;
    }
}

/// A shard worker that keeps dying but *can* be restarted: the
/// coordinator re-dials, re-initializes the fresh worker from its
/// confirmed mirrors, replays the interrupted request, and the run
/// completes with no wire error — byte-identical to the healthy trace.
#[test]
fn flaky_shard_worker_reconnects_and_replays() {
    let (d, index) = directions_fixture(N, DSEED);
    let reference = {
        let darwin = Darwin::new(&d.corpus, &index, cfg(N, 2, 1, 1));
        let seed = Seed::Rule(Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap());
        let mut oracle = GroundTruthOracle::new(&d.labels, 0.8);
        darwin.run(seed, &mut oracle)
    };
    // Every incarnation of shard 0's worker survives only 6 sends past
    // the dial (enough for the hello + re-init + replay cycle, plus a
    // little progress) before its transport starts dropping frames — a
    // worker that crashes over and over but is always restartable.
    let dials = Arc::new(AtomicUsize::new(0));
    let dials_in = dials.clone();
    let connect: Box<darwin_core::ShardConnector> = Box::new(move |s, _range| {
        let (client, mut server) = InProc::pair();
        std::thread::spawn(move || {
            let _ = darwin_core::serve_shard(&mut server);
        });
        let t: Box<dyn Transport> = if s == 0 {
            dials_in.fetch_add(1, Ordering::SeqCst);
            Box::new(FlakyTransport::after(Box::new(client), Fault::Drop, 6))
        } else {
            Box::new(client)
        };
        Ok(t)
    });
    let darwin = Darwin::new(&d.corpus, &index, cfg(N, 2, 1, 1)).with_remote_shards(connect);
    let seed = Seed::Rule(Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap());
    let mut oracle = GroundTruthOracle::new(&d.labels, 0.8);
    let run = darwin.run(seed, &mut oracle);
    assert!(
        run.wire_error.is_none(),
        "reconnect-and-replay must absorb the failures: {:?}",
        run.wire_error
    );
    assert!(
        dials.load(Ordering::SeqCst) > 1,
        "shard 0 must actually have been restarted"
    );
    assert_equivalent(&reference, &run, "flaky-but-restartable shard 0");
}

/// Frame corruption (torn writes) is caught before it can poison state:
/// the coordinator's first exchange over a truncating transport fails
/// with a clean codec/protocol error — connect refuses, no store exists,
/// nothing panics.
#[test]
fn truncating_transport_refuses_cleanly() {
    let (d, index) = directions_fixture(200, DSEED);
    let connect: Box<darwin_core::ShardConnector> = Box::new(|_s, _range| {
        let (client, mut server) = InProc::pair();
        std::thread::spawn(move || {
            let _ = darwin_core::serve_shard(&mut server);
        });
        Ok(
            Box::new(FlakyTransport::always(Box::new(client), Fault::Truncate))
                as Box<dyn Transport>,
        )
    });
    let darwin = Darwin::new(&d.corpus, &index, cfg(200, 2, 1, 1)).with_remote_shards(connect);
    let seed = Seed::Rule(Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap());
    let mut oracle = GroundTruthOracle::new(&d.labels, 0.8);
    let run = darwin.run(seed, &mut oracle);
    assert!(run.wire_error.is_some(), "truncation must surface");
    assert!(
        run.trace.is_empty(),
        "no questions may be asked without a benefit store"
    );
}

/// A dead oracle worker abandons the wave like PR 4's silent-oracle
/// path: the driver notices the oracle is unhealthy, keeps every answer
/// already applied, and returns the partial run promptly.
#[test]
fn dead_oracle_worker_abandons_the_wave() {
    let (d, index) = directions_fixture(N, DSEED);
    let darwin = Darwin::new(&d.corpus, &index, cfg(N, 1, 1, 4));
    let seed = Seed::Rule(Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap());
    let labels: &'static [bool] = Box::leak(d.labels.clone().into_boxed_slice());
    // Build the oracle over a transport that survives the handshake
    // (2 sends: Hello + first Submit) and then drops everything.
    let corpus = d.corpus.clone();
    let (client, mut server) = InProc::pair();
    std::thread::spawn(move || {
        let mut gt = GroundTruthOracle::new(labels, 0.8);
        let _ = darwin_core::serve_oracle(&mut server, &corpus, &mut gt);
    });
    let flaky = FlakyTransport::after(Box::new(client), Fault::Drop, 2);
    let mut oracle = darwin_core::WireOracle::connect(Box::new(flaky)).unwrap();
    let out = darwin.run_async(seed, &mut oracle);
    assert!(out.report.abandoned > 0, "wave must be abandoned");
    assert!(oracle.last_error().is_some());
    assert_eq!(
        out.report.submitted,
        out.run.questions() + out.report.abandoned,
        "abandoned questions are spent but unanswered"
    );
}

/// The duplicated-frame fault: a retransmitted reply desynchronizes the
/// strict request/response protocol, which the coordinator detects as a
/// clean protocol error — never a silently-partial merge.
#[test]
fn duplicated_frames_surface_as_protocol_error() {
    let (d, _index) = directions_fixture(200, DSEED);
    let (client, mut server) = InProc::pair();
    std::thread::spawn(move || {
        let _ = darwin_core::serve_shard(&mut server);
    });
    // Duplicate every outgoing frame: the worker answers each copy, so
    // the client reads stale replies from then on.
    let flaky = FlakyTransport::after(Box::new(client), Fault::Duplicate, 2);
    let p = darwin_index::IdSet::from_ids(&[0], d.corpus.len());
    let scores = vec![0.5f32; d.corpus.len()];
    let mut remote = darwin_core::RemoteShard::connect(
        Box::new(flaky),
        &d.corpus,
        &index_cfg(),
        0,
        d.corpus.len() as u32,
        &p,
        &scores,
    )
    .expect("handshake + init survive the grace window");
    // The duplicated request is answered twice by the worker. The first
    // reply matches this exchange's sequence number and is applied...
    remote
        .on_positives_added(&[1])
        .expect("first reply matches its sequence");
    // ...but the duplicate's reply is still queued, and the *next*
    // exchange reads it: the sequence check refuses the stale frame as a
    // clean protocol error instead of folding it into the wrong request.
    let err = remote.on_positives_added(&[2]).unwrap_err();
    assert!(
        matches!(err, WireError::Protocol(_) | WireError::Remote(_)),
        "desync must be a protocol-shaped error, got {err:?}"
    );
}
