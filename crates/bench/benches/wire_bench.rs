//! The wire boundary's overhead, measured: codec throughput
//! (encode/decode of the hot messages), round-trip cost of shard
//! operations over `InProc` and `Proc` transports vs the direct
//! in-memory call, and the CNN `predict_batch` win over per-id `predict`
//! (one scratch and one window-activation table per call).
//!
//! Every remote row is asserted to produce fragments identical to the
//! in-memory store before any timing is reported — a wire layer that
//! changed results would make the numbers meaningless.
//!
//! Besides the criterion report, running this bench rewrites
//! `BENCH_wire.json` at the repo root (see BENCHES.md for the schema).
//!
//! The bench binary doubles as its own `Proc` worker: when
//! `DARWIN_WIRE_BENCH_WORKER=shard` is set it serves the shard protocol
//! over stdio and exits, so the parent can spawn real child processes
//! without depending on another artifact's build location.

use criterion::Criterion;
use darwin_classifier::ClassifierKind;
use darwin_core::candidates::generate_hierarchy;
use darwin_core::{serve_shard, RemoteShard, ShardedBenefitStore};
use darwin_datasets::directions;
use darwin_grammar::Heuristic;
use darwin_index::{IdSet, IndexConfig, IndexSet, RuleRef};
use darwin_text::embed::EmbedConfig;
use darwin_text::{Corpus, Embeddings};
use darwin_wire::{Decode, Encode, InProc, ProcTransport, Request, StdioTransport};
use std::time::Instant;

const N: usize = 20_000;

fn median_ns(reps: usize, mut f: impl FnMut()) -> u128 {
    let mut times: Vec<u128> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

struct Fixture {
    corpus: Corpus,
    index: IndexSet,
    index_cfg: IndexConfig,
    p: IdSet,
    scores: Vec<f32>,
    rules: Vec<RuleRef>,
}

fn fixture() -> Fixture {
    let d = directions::generate(N, 42);
    let index_cfg = IndexConfig {
        max_phrase_len: 4,
        min_count: 2,
        ..Default::default()
    };
    let index = IndexSet::build(&d.corpus, &index_cfg);
    let seed = Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap();
    let p = IdSet::from_ids(&seed.coverage(&d.corpus), d.corpus.len());
    let scores: Vec<f32> = (0..N)
        .map(|i| (i as f32 * 0.137).fract() * 0.6 + 0.2)
        .collect();
    let hierarchy = generate_hierarchy(&index, &p, 2_000, N / 2);
    let rules = hierarchy.rules().to_vec();
    Fixture {
        corpus: d.corpus,
        index,
        index_cfg,
        p,
        scores,
        rules,
    }
}

/// A representative incremental score journal: every 16th sentence moves.
fn journal(f: &Fixture) -> Vec<(u32, f32, f32)> {
    (0..N as u32)
        .step_by(16)
        .map(|id| {
            let old = f.scores[id as usize];
            (id, old, (old + 0.11).fract())
        })
        .collect()
}

/// Drive one journal patch + fragment read against a remote shard and
/// return the merged sum (so the work can't be optimized away).
fn remote_once(remote: &mut RemoteShard, j: &[(u32, f32, f32)], probe: RuleRef) -> i64 {
    remote.on_scores_changed(j).expect("wire patch");
    remote.agg(probe).map(|a| a.sum_q).unwrap_or(0)
}

fn main() {
    // Child mode: serve the shard protocol over stdio and exit.
    if std::env::var("DARWIN_WIRE_BENCH_WORKER").as_deref() == Ok("shard") {
        let mut t = StdioTransport::new();
        serve_shard(&mut t).expect("bench shard worker");
        return;
    }

    let f = fixture();
    let mut c = Criterion::default();
    let j = journal(&f);
    let probe = f.rules[f.rules.len() / 2];

    // ---- codec: the hot messages ----
    let msg = Request::ScoresChanged { changes: j.clone() };
    let bytes = msg.to_bytes();
    let encode_ns = median_ns(200, || {
        let b = msg.to_bytes();
        assert!(!b.is_empty());
    });
    let decode_ns = median_ns(200, || {
        let m = Request::from_bytes(&bytes).unwrap();
        assert!(matches!(m, Request::ScoresChanged { .. }));
    });
    c.bench_function("wire/encode_journal", |b| {
        b.iter(|| msg.to_bytes());
    });
    c.bench_function("wire/decode_journal", |b| {
        b.iter(|| Request::from_bytes(&bytes).unwrap());
    });
    println!(
        "codec: {} journal entries, {} bytes, encode {encode_ns} ns, decode {decode_ns} ns",
        j.len(),
        bytes.len()
    );

    // ---- in-memory reference: journal patch on a local store ----
    let mut local = ShardedBenefitStore::local();
    local.track(&f.rules, &f.index, &f.p, &f.scores, 1).unwrap();
    let local_ns = {
        let (p, corpus, index) = (&f.p, &f.corpus, &f.index);
        median_ns(20, || {
            local.on_scores_changed(&j, p, corpus, index).unwrap();
        })
    };
    let local_sum = local.agg(probe).map(|a| a.sum_q).unwrap_or(0);

    // ---- InProc round trip (worker thread, full codec path) ----
    let spawn_inproc = || {
        let (client, mut server) = InProc::pair();
        std::thread::spawn(move || {
            let _ = serve_shard(&mut server);
        });
        RemoteShard::connect(
            Box::new(client),
            &f.corpus,
            &f.index_cfg,
            0,
            N as u32,
            &f.p,
            &f.scores,
        )
        .expect("inproc shard connects")
    };
    let mut inproc = spawn_inproc();
    inproc.track(&f.rules).unwrap();
    let inproc_ns = median_ns(20, || {
        remote_once(&mut inproc, &j, probe);
    });
    assert_eq!(
        inproc.agg(probe).map(|a| a.sum_q).unwrap_or(1),
        local_sum,
        "inproc fragments must match the in-memory store"
    );

    // ---- Proc round trip (real child process over stdio pipes) ----
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = std::process::Command::new(&exe);
    cmd.env("DARWIN_WIRE_BENCH_WORKER", "shard");
    let proc_ns = match ProcTransport::spawn(&mut cmd) {
        Err(e) => {
            println!("proc transport unavailable ({e}); recording null");
            None
        }
        Ok(t) => {
            let mut remote = RemoteShard::connect(
                Box::new(t),
                &f.corpus,
                &f.index_cfg,
                0,
                N as u32,
                &f.p,
                &f.scores,
            )
            .expect("proc shard connects");
            remote.track(&f.rules).unwrap();
            let ns = median_ns(20, || {
                remote_once(&mut remote, &j, probe);
            });
            assert_eq!(
                remote.agg(probe).map(|a| a.sum_q).unwrap_or(1),
                local_sum,
                "proc fragments must match the in-memory store"
            );
            Some(ns)
        }
    };
    println!(
        "journal patch round trip: local {local_ns} ns, inproc {inproc_ns} ns, proc {} ns",
        proc_ns
            .map(|n| n.to_string())
            .unwrap_or_else(|| "null".into())
    );

    // ---- predict column: CNN scratch hoisting ----
    let emb = Embeddings::train(
        &f.corpus,
        &EmbedConfig {
            dim: 16,
            seed: 42,
            ..Default::default()
        },
    );
    let mut cnn = ClassifierKind::cnn_with_epochs(2).build(&emb, 42);
    let pos: Vec<u32> = f.p.iter().collect();
    let neg: Vec<u32> = (0..N as u32)
        .filter(|id| !f.p.contains(*id))
        .step_by(29)
        .take(pos.len() * 3)
        .collect();
    cnn.fit(&f.corpus, &emb, &pos, &neg);
    let ids: Vec<u32> = (0..512u32).collect();
    let per_id_ns = median_ns(10, || {
        let mut acc = 0.0f32;
        for &id in &ids {
            acc += cnn.predict(&f.corpus, &emb, id);
        }
        assert!(acc.is_finite());
    });
    let batched_ns = median_ns(10, || {
        let mut out = Vec::with_capacity(ids.len());
        cnn.predict_batch(&f.corpus, &emb, &ids, &mut out);
        assert_eq!(out.len(), ids.len());
    });
    // Bit-identity of the batch path (the contract the cache leans on).
    let mut batch_out = Vec::new();
    cnn.predict_batch(&f.corpus, &emb, &ids, &mut batch_out);
    for (&id, &b) in ids.iter().zip(&batch_out) {
        assert_eq!(cnn.predict(&f.corpus, &emb, id), b);
    }
    let speedup = per_id_ns as f64 / batched_ns.max(1) as f64;
    println!("cnn predict 512 ids: per-id {per_id_ns} ns, batched {batched_ns} ns ({speedup:.2}x)");

    let json = format!(
        "{{\n  \"bench\": \"wire_boundary_20k\",\n  \"corpus_sentences\": {N},\n  \"tracked_rules\": {},\n  \"codec\": {{\"journal_entries\": {}, \"message_bytes\": {}, \"encode_ns\": {encode_ns}, \"decode_ns\": {decode_ns}}},\n  \"journal_patch_roundtrip\": {{\"local_ns\": {local_ns}, \"inproc_ns\": {inproc_ns}, \"proc_ns\": {}}},\n  \"predict_512\": {{\"cnn_per_id_ns\": {per_id_ns}, \"cnn_batched_ns\": {batched_ns}, \"speedup\": {speedup:.2}}},\n  \"remote_fragments_identical_to_local\": true\n}}\n",
        f.rules.len(),
        j.len(),
        bytes.len(),
        proc_ns.map(|n| n.to_string()).unwrap_or_else(|| "null".into()),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wire.json");
    std::fs::write(path, &json).expect("write BENCH_wire.json");
    println!("wire_bench: recorded BENCH_wire.json");
}
