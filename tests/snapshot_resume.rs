//! The durable-session contract: **suspend at any wave barrier, resume
//! from bytes alone, and the completed trace is byte-identical to the
//! uninterrupted reference** — across transport {InProc, Proc, Tcp} ×
//! S ∈ {1,2,4} × threads × batch × fanout, *including* resuming under a
//! different deployment than the one that suspended.
//!
//! A snapshot captures exactly the run state a wave barrier cannot
//! re-derive (P, trace, scores, RNG, strategy, frontier memo) and
//! nothing the deployment owns: resume re-attaches workers by replaying
//! `ShardInit`/`Track` through the resuming `Darwin`'s connectors — the
//! same reconnect-and-replay machinery a mid-run worker death exercises,
//! which is why the two compose (`worker_death_after_snapshot_recovers`).
//!
//! Corruption is the other half of durability: `snapshot_mutants` proves
//! every structurally damaged image is rejected with a clean error —
//! decode never panics, never allocates unboundedly — and the proptest
//! suite pins `encode(decode(encode(x))) == encode(x)` for every
//! snapshot constituent, NaN payloads and empty images included.
//!
//! CI matrix: `DARWIN_TEST_CRASH_AT` picks a single kill barrier (unset
//! = every barrier), composed with `DARWIN_TEST_TRANSPORT` /
//! `DARWIN_TEST_THREADS` / `DARWIN_TEST_BATCH` through `TestEnv`.

use darwin::prelude::*;
use darwin_core::snapshot::{config_fingerprint, SessionCounters, Snapshot, SnapshotError};
use darwin_core::{AsyncOracle, Session, SessionOutcome, StrategyState, TraceStep};
use darwin_index::RuleRef;
use darwin_testkit::{
    assert_resumed_equivalent, directions_fixture, shard_connector, snapshot_mutants, CrashPlan,
    Fault, FlakyTransport, TestEnv, TransportKind,
};
use darwin_wire::{Decode, Encode, InProc, Transport, WireError};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const N: usize = 500;
const DSEED: u64 = 42;

fn worker_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_darwin-worker"))
}

fn cfg(shards: usize, threads: usize, batch: usize) -> DarwinConfig {
    DarwinConfig {
        budget: 12,
        n_candidates: 1200,
        shards,
        threads,
        batch: BatchPolicy::Fixed(batch),
        ..DarwinConfig::fast()
    }
}

/// The snapshot matrix's standard fixture: a directions corpus, its
/// index, the seed rule, and ground-truth labels.
fn fixture() -> (darwin_datasets::Dataset, IndexSet) {
    directions_fixture(N, DSEED)
}

fn seed_of(d: &darwin_datasets::Dataset) -> Seed {
    Seed::Rule(Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap())
}

// ---- the crash-recovery invariant ---------------------------------------

/// Kill-at-every-barrier, local S=1: the exhaustive fault injector drives
/// the reference, then for each wave barrier suspends there, drops
/// everything but the bytes, resumes, and requires byte-identical
/// completion (`DARWIN_TEST_CRASH_AT` narrows to one barrier in CI cells).
#[test]
fn crash_at_every_barrier_resumes_byte_identical() {
    let env = TestEnv::from_env();
    let (d, index) = fixture();
    let darwin = Darwin::new(&d.corpus, &index, env.apply(cfg(1, 1, 3)));
    let seed = seed_of(&d);
    let mut make = || {
        Box::new(Immediate::new(GroundTruthOracle::new(&d.labels, 0.8)))
            as Box<dyn AsyncOracle + '_>
    };
    let plan = CrashPlan::exhaustive(&darwin, &darwin, &seed, &mut make, env.crash_at);
    assert!(
        plan.reference_waves >= 3,
        "fixture too small to exercise barriers: {} waves",
        plan.reference_waves
    );
    if env.crash_at.is_none() {
        assert!(plan.barriers >= 2, "only {} barriers killed", plan.barriers);
    }
}

/// Resume under a *different* deployment: suspend on S=2 remote workers
/// with 1 thread, resume on S=4 remote workers with 4 threads and the
/// opposite fan-out. Shards, threads and fanout are perf knobs outside
/// the config fingerprint, so the resumed run must replay the suspended
/// run's future exactly.
#[test]
fn resume_under_different_shards_threads_fanout() {
    let (d, index) = fixture();
    let seed = seed_of(&d);
    let mut make = || {
        Box::new(Immediate::new(GroundTruthOracle::new(&d.labels, 0.8)))
            as Box<dyn AsyncOracle + '_>
    };
    let suspend_on = Darwin::new(
        &d.corpus,
        &index,
        cfg(2, 1, 3).with_fanout(Fanout::Sequential),
    )
    .with_remote_shards(shard_connector(TransportKind::InProc, None));
    let resume_on = Darwin::new(
        &d.corpus,
        &index,
        cfg(4, 4, 3).with_fanout(Fanout::Concurrent),
    )
    .with_remote_shards(shard_connector(TransportKind::InProc, None));
    let plan = CrashPlan::exhaustive(&suspend_on, &resume_on, &seed, &mut make, None);
    assert!(plan.barriers >= 2, "only {} barriers killed", plan.barriers);
}

/// The index's build parallelism is one more deployment knob outside
/// the fingerprints: suspend over an index built at `threads: 1`, resume
/// over one built at `threads: 4` (a corpus past every fan-out
/// threshold, unpruned so every first-seen node keeps its number) — the
/// resume is accepted and replays the same P, scores and trace.
#[test]
fn resume_over_an_index_built_at_another_thread_count() {
    let d = darwin_datasets::directions::generate(2500, DSEED);
    let built_at = |threads| {
        let recipe = IndexConfig {
            max_phrase_len: 4,
            min_count: 1,
            threads,
            ..Default::default()
        };
        IndexSet::build(&d.corpus, &recipe)
    };
    let (serial, threaded) = (built_at(1), built_at(4));
    let seed = seed_of(&d);
    let mut make = || {
        Box::new(Immediate::new(GroundTruthOracle::new(&d.labels, 0.8)))
            as Box<dyn AsyncOracle + '_>
    };
    let suspend_on = Darwin::new(&d.corpus, &serial, cfg(1, 1, 3));
    let resume_on = Darwin::new(&d.corpus, &threaded, cfg(1, 1, 3));
    let plan = CrashPlan::exhaustive(&suspend_on, &resume_on, &seed, &mut make, Some(2));
    assert_eq!(plan.barriers, 1, "barrier 2 was never reached");
}

/// The transport matrix cell: suspend on one transport, resume on
/// another (rotating InProc → Proc → Tcp → InProc), at S ∈ {1,2,4} — a
/// session hops between genuinely different processes and sockets. One
/// barrier per cell keeps the child-process matrix affordable; the
/// exhaustive plan above covers every barrier in-process.
#[test]
fn snapshot_hops_across_transports_and_shard_counts() {
    let (d, index) = fixture();
    let seed = seed_of(&d);
    let reference = {
        let darwin = Darwin::new(&d.corpus, &index, cfg(1, 1, 3));
        let mut oracle = Immediate::new(GroundTruthOracle::new(&d.labels, 0.8));
        darwin.run_async(seed.clone(), &mut oracle)
    };
    let rotations = [
        (TransportKind::InProc, TransportKind::Proc),
        (TransportKind::Proc, TransportKind::Tcp),
        (TransportKind::Tcp, TransportKind::InProc),
    ];
    for (i, &(from, to)) in rotations.iter().enumerate() {
        let shards = [1usize, 2, 4][i];
        let suspend_on = Darwin::new(&d.corpus, &index, cfg(shards, 1, 3))
            .with_remote_shards(shard_connector(from, Some(worker_exe())));
        let mut oracle = Immediate::new(GroundTruthOracle::new(&d.labels, 0.8));
        let bytes = match suspend_on.snapshot(seed.clone(), &mut oracle, 2) {
            SessionOutcome::Suspended(snap) => snap.to_bytes(),
            SessionOutcome::Finished(_) => panic!("run finished before barrier 2"),
        };
        drop(suspend_on); // the suspending deployment dies with its workers
        let resume_on = Darwin::new(&d.corpus, &index, cfg(shards, 1, 3))
            .with_remote_shards(shard_connector(to, Some(worker_exe())));
        let mut oracle = Immediate::new(GroundTruthOracle::new(&d.labels, 0.8));
        let resumed = resume_on
            .resume(&bytes, &mut oracle)
            .unwrap_or_else(|e| panic!("{from:?}→{to:?} S={shards}: {e}"));
        assert!(
            resumed.run.wire_error.is_none(),
            "{:?}",
            resumed.run.wire_error
        );
        assert_resumed_equivalent(&reference, &resumed, &format!("{from:?}→{to:?} S={shards}"));
    }
}

/// A run can hop barrier by barrier: suspend at wave 1, resume-and-
/// suspend again at wave 3, resume to completion — three processes'
/// worth of lifetime, one byte-identical trace.
#[test]
fn chained_suspends_compose() {
    let (d, index) = fixture();
    let seed = seed_of(&d);
    let darwin = Darwin::new(&d.corpus, &index, cfg(1, 1, 3));
    let mut oracle = Immediate::new(GroundTruthOracle::new(&d.labels, 0.8));
    let reference = darwin.run_async(seed.clone(), &mut oracle);

    let mut oracle = Immediate::new(GroundTruthOracle::new(&d.labels, 0.8));
    let first = match darwin.snapshot(seed, &mut oracle, 1) {
        SessionOutcome::Suspended(snap) => snap.to_bytes(),
        SessionOutcome::Finished(_) => panic!("finished before barrier 1"),
    };
    let mut oracle = Immediate::new(GroundTruthOracle::new(&d.labels, 0.8));
    let second = {
        let mut session = Session::resume(&darwin, &first).unwrap();
        let finished = session.drive(&mut oracle, Some(3));
        assert!(!finished, "finished before barrier 3");
        let snap = session.snapshot();
        assert_eq!(snap.counters.waves, 3, "cumulative wave count");
        snap.to_bytes()
    };
    let mut oracle = Immediate::new(GroundTruthOracle::new(&d.labels, 0.8));
    let done = darwin.resume(&second, &mut oracle).unwrap();
    assert_resumed_equivalent(&reference, &done, "two-hop chain");
}

// ---- composition with worker death --------------------------------------

/// Satellite of the reconnect-and-replay machinery: the deployment that
/// *resumes* has a shard worker that keeps dying (but is restartable) —
/// the snapshot re-attach and the mid-run re-dials stack, and the
/// recovered trace is still bit-identical to the never-interrupted,
/// never-flaky reference.
#[test]
fn worker_death_after_snapshot_recovers() {
    let (d, index) = fixture();
    let seed = seed_of(&d);
    let reference = {
        let darwin = Darwin::new(&d.corpus, &index, cfg(1, 1, 3));
        let mut oracle = Immediate::new(GroundTruthOracle::new(&d.labels, 0.8));
        darwin.run_async(seed.clone(), &mut oracle)
    };
    let suspend_on = Darwin::new(&d.corpus, &index, cfg(2, 1, 3))
        .with_remote_shards(shard_connector(TransportKind::InProc, None));
    let mut oracle = Immediate::new(GroundTruthOracle::new(&d.labels, 0.8));
    let bytes = match suspend_on.snapshot(seed, &mut oracle, 1) {
        SessionOutcome::Suspended(snap) => snap.to_bytes(),
        SessionOutcome::Finished(_) => panic!("finished before barrier 1"),
    };
    drop(suspend_on);
    // Every incarnation of shard 0's worker in the *resuming* deployment
    // survives its re-init (hello, init, retain, track — 4 sends) plus
    // exactly one request, then its transport drops everything: the
    // worker dies over and over, each death one request further in, and
    // is re-dialed and replayed into every time.
    let dials = Arc::new(AtomicUsize::new(0));
    let dials_in = dials.clone();
    let connect: Box<darwin_core::ShardConnector> = Box::new(move |s, _range| {
        let (client, mut server) = InProc::pair();
        std::thread::spawn(move || {
            let _ = darwin_core::serve_shard(&mut server);
        });
        let t: Box<dyn Transport> = if s == 0 {
            dials_in.fetch_add(1, Ordering::SeqCst);
            Box::new(FlakyTransport::after(Box::new(client), Fault::Drop, 5))
        } else {
            Box::new(client)
        };
        Ok(t)
    });
    let resume_on = Darwin::new(&d.corpus, &index, cfg(2, 1, 3)).with_remote_shards(connect);
    let mut oracle = Immediate::new(GroundTruthOracle::new(&d.labels, 0.8));
    let resumed = resume_on.resume(&bytes, &mut oracle).unwrap();
    assert!(
        resumed.run.wire_error.is_none(),
        "reconnect-and-replay must absorb the deaths: {:?}",
        resumed.run.wire_error
    );
    assert!(
        dials.load(Ordering::SeqCst) > 1,
        "shard 0 must actually have died and been re-dialed"
    );
    assert_resumed_equivalent(&reference, &resumed, "flaky resume deployment");
}

/// A client transport the test holds a second handle on, so the
/// coordinator dropping its handle is no hang-up.
struct Kept(Arc<Mutex<InProc>>);

impl Transport for Kept {
    fn send(&mut self, payload: &[u8]) -> Result<(), WireError> {
        self.0.lock().unwrap().send(payload)
    }

    fn recv_timeout(&mut self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>, WireError> {
        self.0.lock().unwrap().recv_timeout(timeout)
    }
}

/// Suspending shuts the run's shard workers down: when `snapshot`
/// returns, every worker has been told to stop and has released its
/// state, so a resume does not build its workers beside them. The test
/// keeps each coordinator channel open, so a worker that was only hung
/// up on would still be waiting for its next request.
#[test]
fn suspending_shuts_its_shard_workers_down() {
    let (d, index) = fixture();
    let workers = Arc::new(Mutex::new(Vec::new()));
    let workers_in = workers.clone();
    let connect: Box<darwin_core::ShardConnector> = Box::new(move |_s, _range| {
        let (client, mut server) = InProc::pair();
        let worker = std::thread::spawn(move || {
            let _ = darwin_core::serve_shard(&mut server);
        });
        let client = Arc::new(Mutex::new(client));
        workers_in.lock().unwrap().push((client.clone(), worker));
        Ok(Box::new(Kept(client)) as Box<dyn Transport>)
    });
    let darwin = Darwin::new(&d.corpus, &index, cfg(2, 1, 3)).with_remote_shards(connect);
    let mut oracle = Immediate::new(GroundTruthOracle::new(&d.labels, 0.8));
    let outcome = darwin.snapshot(seed_of(&d), &mut oracle, 1);
    assert!(matches!(outcome, SessionOutcome::Suspended(_)));
    let workers = std::mem::take(&mut *workers.lock().unwrap());
    assert_eq!(workers.len(), 2, "one dial per shard");
    for (_client, worker) in workers {
        // The worker acknowledged, then returns: allow it that moment.
        let t = Instant::now();
        while !worker.is_finished() && t.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(worker.is_finished(), "a shard worker outlived suspension");
        worker.join().unwrap();
    }
}

// ---- rejection: corruption, mismatch, versioning ------------------------

/// A real snapshot survives the frame, and every structurally damaged
/// mutant of it is refused with a clean error — never a panic. Mutants
/// behind a recomputed checksum (pure codec trial) must also never panic.
#[test]
fn corrupted_snapshots_are_rejected_cleanly() {
    let (d, index) = fixture();
    let darwin = Darwin::new(&d.corpus, &index, cfg(1, 1, 3));
    let mut oracle = Immediate::new(GroundTruthOracle::new(&d.labels, 0.8));
    let bytes = match darwin.snapshot(seed_of(&d), &mut oracle, 2) {
        SessionOutcome::Suspended(snap) => snap.to_bytes(),
        SessionOutcome::Finished(_) => panic!("finished before barrier 2"),
    };
    assert!(Snapshot::from_bytes(&bytes).is_ok(), "the original decodes");
    let mut rejected = 0usize;
    for mutant in snapshot_mutants(&bytes, 7) {
        match Snapshot::from_bytes(&mutant.bytes) {
            Err(_) => rejected += 1,
            Ok(_) => assert!(
                !mutant.must_reject,
                "structural damage decoded successfully: {}",
                mutant.what
            ),
        }
    }
    assert!(rejected > 150, "only {rejected} mutants rejected");
}

/// Resuming against the wrong deployment is a clean mismatch: a
/// different semantic config (seed) and a different corpus are both
/// refused by fingerprint before any state is rebuilt.
#[test]
fn mismatched_deployment_is_refused() {
    let (d, index) = fixture();
    let darwin = Darwin::new(&d.corpus, &index, cfg(1, 1, 3));
    let mut oracle = Immediate::new(GroundTruthOracle::new(&d.labels, 0.8));
    let bytes = match darwin.snapshot(seed_of(&d), &mut oracle, 1) {
        SessionOutcome::Suspended(snap) => snap.to_bytes(),
        SessionOutcome::Finished(_) => panic!("finished before barrier 1"),
    };

    let other_cfg = Darwin::new(&d.corpus, &index, cfg(1, 1, 3).with_seed(DSEED + 1));
    let mut oracle = Immediate::new(GroundTruthOracle::new(&d.labels, 0.8));
    match other_cfg.resume(&bytes, &mut oracle) {
        Err(SnapshotError::Mismatch(m)) => assert!(m.contains("config"), "{m}"),
        Err(e) => panic!("config drift must be a Mismatch, got {e:?}"),
        Ok(_) => panic!("config drift must be refused"),
    }

    let (d2, index2) = directions_fixture(N + 50, DSEED);
    let other_corpus = Darwin::new(&d2.corpus, &index2, cfg(1, 1, 3));
    let mut oracle = Immediate::new(GroundTruthOracle::new(&d2.labels, 0.8));
    assert!(
        matches!(
            other_corpus.resume(&bytes, &mut oracle),
            Err(SnapshotError::Mismatch(_))
        ),
        "corpus drift must be a Mismatch"
    );
}

/// The snapshot version window: a frame stamped with a future version is
/// refused as `BadVersion`, not misdecoded.
#[test]
fn future_snapshot_version_is_refused() {
    let frame = darwin_wire::snapshot_frame(&[0u8; 16]);
    let mut future = frame.clone();
    future[2] = darwin_wire::SNAPSHOT_VERSION + 1;
    match Snapshot::from_bytes(&future) {
        Err(SnapshotError::Wire(WireError::BadVersion { got, .. })) => {
            assert_eq!(got, darwin_wire::SNAPSHOT_VERSION + 1)
        }
        other => panic!("future version must be BadVersion, got {other:?}"),
    }
}

/// Perf knobs are outside the config fingerprint; semantic knobs are in.
/// `warm_start` is buffer reuse (bit-identical weights), so it is out;
/// `incremental_scoring` is the §4.5 selective refresh, which leaves
/// scores stale and changes the trace, so it is in.
#[test]
fn fingerprint_partitions_the_config() {
    let base = cfg(2, 1, 3);
    let fp = config_fingerprint(&base);
    assert_eq!(fp, config_fingerprint(&base.clone().with_shards(4)));
    assert_eq!(fp, config_fingerprint(&base.clone().with_threads(8)));
    assert_eq!(
        fp,
        config_fingerprint(&base.clone().with_fanout(Fanout::Sequential))
    );
    assert_eq!(
        fp,
        config_fingerprint(&base.clone().with_warm_start(!base.warm_start))
    );
    assert_ne!(
        fp,
        config_fingerprint(&DarwinConfig {
            incremental_scoring: !base.incremental_scoring,
            ..base.clone()
        })
    );
    assert_ne!(
        fp,
        config_fingerprint(&base.clone().with_batch(BatchPolicy::Fixed(4)))
    );
    assert_ne!(fp, config_fingerprint(&base.with_seed(DSEED + 1)));
}

/// Pinned fingerprint values: `Fixed(k)` encodes as tag 0 then `k`, the
/// encoding snapshots on disk carry. A change to either value refuses to
/// resume every snapshot written before it.
#[test]
fn fixed_policy_fingerprints_are_pinned() {
    assert_eq!(
        config_fingerprint(&DarwinConfig::default()),
        2033033934523853459
    );
    assert_eq!(
        config_fingerprint(&DarwinConfig::fast().with_batch(BatchPolicy::Fixed(4))),
        7710588680273220156
    );
}

// ---- proptest: canonical round-trips for every constituent --------------

fn arb_ruleref() -> impl Strategy<Value = RuleRef> {
    prop_oneof![
        Just(RuleRef::Root),
        (0u32..50_000).prop_map(RuleRef::Phrase),
        (0u32..50_000).prop_map(RuleRef::Tree),
    ]
}

fn arb_heuristic() -> impl Strategy<Value = Heuristic> {
    prop::collection::vec(0u32..10_000, 1..5).prop_map(|syms| {
        Heuristic::Phrase(darwin_grammar::PhrasePattern::from_tokens(
            syms.into_iter().map(darwin_text::Sym),
        ))
    })
}

fn arb_trace_step() -> impl Strategy<Value = TraceStep> {
    (
        0usize..10_000,
        arb_heuristic(),
        any::<bool>(),
        prop::collection::vec(any::<u32>(), 0..8),
        0usize..100_000,
    )
        .prop_map(
            |(question, rule, answer, new_positive_ids, p_size)| TraceStep {
                question,
                rule,
                answer,
                new_positive_ids,
                p_size,
            },
        )
}

/// `f32` bit patterns including NaN payloads, infinities and zeros.
fn arb_bits_f32() -> impl Strategy<Value = f32> {
    any::<u32>().prop_map(f32::from_bits)
}

fn roundtrip_canonical<T: Encode + Decode>(x: &T) {
    let bytes = x.to_bytes();
    let back = T::from_bytes(&bytes).expect("own encoding must decode");
    assert_eq!(back.to_bytes(), bytes, "re-encoding must be canonical");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..Default::default() })]

    #[test]
    fn trace_steps_roundtrip(step in arb_trace_step()) {
        roundtrip_canonical(&step);
    }

    #[test]
    fn strategy_state_roundtrips(
        local in prop::collection::vec(arb_ruleref(), 0..16),
        universal_mode in any::<bool>(),
        attempts in any::<u64>(),
    ) {
        roundtrip_canonical(&StrategyState { local, universal_mode, attempts });
    }

    #[test]
    fn session_counters_roundtrip(
        submitted in any::<u64>(), waves in any::<u64>(),
        retrains in any::<u64>(), peak in any::<u64>(),
    ) {
        roundtrip_canonical(&SessionCounters { submitted, waves, retrains, peak });
    }

    #[test]
    fn frontier_images_roundtrip(
        nodes in prop::collection::vec(any::<(u32, u32, u32)>(), 0..32),
        kids in prop::collection::vec(any::<u32>(), 0..64),
        pending in prop::collection::vec(any::<u32>(), 0..16),
        synced_p in any::<u64>(),
        reflected in prop::collection::vec(any::<u32>(), 0..16),
        universe in any::<u32>(),
        generations in any::<u64>(),
    ) {
        let img = darwin_core::FrontierImage {
            nodes, kids, pending, synced_p, reflected, universe,
            stats: darwin_core::FrontierStats { generations, ..Default::default() },
        };
        roundtrip_canonical(&img);
    }

    /// Whole snapshots — NaN-payload scores, arbitrary pending sets and
    /// optional frontiers included — survive the full frame round trip
    /// canonically.
    #[test]
    fn snapshots_roundtrip_with_nan_scores(
        n in 0u32..64,
        scores in prop::collection::vec(arb_bits_f32(), 0..64),
        p in prop::collection::vec(any::<u32>(), 0..16),
        queried in prop::collection::vec(arb_ruleref(), 0..16),
        trace in prop::collection::vec(arb_trace_step(), 0..6),
        pending in prop::collection::vec((any::<u64>(), arb_ruleref()), 0..8),
        rng in any::<[u64; 4]>(),
        with_frontier in any::<bool>(),
        waves in any::<u64>(),
    ) {
        let snap = Snapshot {
            config_fp: 1,
            corpus_fp: 2,
            n,
            p,
            queried,
            accepted: Vec::new(),
            rejected: Vec::new(),
            trace,
            asked: Vec::new(),
            asked_coverages: vec![3, 5],
            seed_refs: vec![RuleRef::Root],
            pending,
            rng,
            cache: darwin_classifier::ScoreImage {
                scores,
                round: 2,
                threshold: 0.3,
                full_every: 3,
                incremental: true,
                refreshed_last_round: 1,
                epoch: 4,
                last_was_full: false,
                changes: vec![(0, 0.5, f32::NAN)],
            },
            frontier: with_frontier.then(darwin_core::FrontierImage::default),
            strategy: StrategyState::default(),
            counters: SessionCounters { submitted: 0, waves, retrains: 0, peak: 0 },
        };
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.to_bytes(), bytes);
    }
}

/// The empty-everything edge: a snapshot of a run over an empty corpus
/// with an empty pool round-trips and validates its own shape.
#[test]
fn empty_corpus_empty_pool_snapshot_roundtrips() {
    let snap = Snapshot {
        config_fp: 0,
        corpus_fp: 0,
        n: 0,
        p: Vec::new(),
        queried: Vec::new(),
        accepted: Vec::new(),
        rejected: Vec::new(),
        trace: Vec::new(),
        asked: Vec::new(),
        asked_coverages: Vec::new(),
        seed_refs: Vec::new(),
        pending: Vec::new(),
        rng: [0; 4],
        cache: darwin_classifier::ScoreImage::default(),
        frontier: Some(darwin_core::FrontierImage::default()),
        strategy: StrategyState::default(),
        counters: SessionCounters::default(),
    };
    let bytes = snap.to_bytes();
    let back = Snapshot::from_bytes(&bytes).unwrap();
    assert_eq!(back, snap);
    assert_eq!(back.to_bytes(), bytes);
}
