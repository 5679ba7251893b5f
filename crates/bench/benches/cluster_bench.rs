//! The concurrent fan-out's payoff, measured: journal-patch broadcast
//! latency as the shard count grows, sequential vs concurrent fan-out,
//! over in-process channels, child-process pipes and loopback TCP —
//! plus the encode-once amortization the broadcast leans on.
//!
//! The headline claim (acceptance criterion of the fan-out PR): at
//! S = 4 the *concurrent* broadcast costs about one round trip, not
//! four — its latency stays within a small factor of the single-shard
//! round trip while the sequential broadcast grows linearly.
//!
//! Every configuration is asserted to produce fragments identical to
//! the in-memory store before its timing is reported, and each fleet's
//! mirrors are audited against worker ground truth at the end.
//!
//! Besides the console report, running this bench rewrites
//! `BENCH_cluster.json` at the repo root (see BENCHES.md for the
//! schema).
//!
//! The bench binary doubles as its own worker: with
//! `DARWIN_CLUSTER_BENCH_WORKER=shard` it serves the shard protocol over
//! stdio (`Proc` rows) or, when `DARWIN_CLUSTER_BENCH_DIAL=<addr>` is
//! also set, over a TCP connection it dials itself (`Tcp` rows).

use darwin_core::candidates::generate_hierarchy;
use darwin_core::{serve_shard, Fanout, ShardConnector, ShardedBenefitStore};
use darwin_datasets::directions;
use darwin_grammar::Heuristic;
use darwin_index::{IdSet, IndexConfig, IndexSet, RuleRef, ShardMap};
use darwin_text::Corpus;
use darwin_wire::{Encode, InProc, ProcTransport, StdioTransport, Transport, WireError};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 20_000;
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const REPS: usize = 20;

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

/// Loopback RTT is tens of microseconds, so on one machine the journal
/// patch is dominated by worker processing and every fan-out looks the
/// same. This wrapper injects a one-way request latency on the *worker*
/// side (each worker's delay elapses on its own thread, concurrently —
/// exactly how switch latency behaves), making the dispatch discipline
/// visible: sequential pays the delay per shard, concurrent once.
struct SimulatedRtt<T> {
    inner: T,
    one_way: Duration,
}

impl<T: Transport> Transport for SimulatedRtt<T> {
    fn send(&mut self, payload: &[u8]) -> Result<(), WireError> {
        self.inner.send(payload)
    }
    fn recv_timeout(&mut self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>, WireError> {
        let frame = self.inner.recv_timeout(timeout)?;
        if frame.is_some() {
            std::thread::sleep(self.one_way);
        }
        Ok(frame)
    }
}

/// The injected one-way latency for the `inproc_sim_rtt` rows.
const SIM_RTT_ONE_WAY: Duration = Duration::from_micros(500);

/// A connector deploying one worker per shard for a transport row.
fn connector(kind: &'static str) -> Arc<ShardConnector> {
    let exe = std::env::current_exe().expect("own path");
    Arc::new(move |_s, _range| match kind {
        "inproc" => {
            let (client, mut server) = InProc::pair();
            std::thread::spawn(move || {
                let _ = serve_shard(&mut server);
            });
            Ok(Box::new(client) as Box<dyn Transport>)
        }
        "inproc_sim_rtt" => {
            let (client, server) = InProc::pair();
            std::thread::spawn(move || {
                let mut t = SimulatedRtt {
                    inner: server,
                    one_way: SIM_RTT_ONE_WAY,
                };
                let _ = serve_shard(&mut t);
            });
            Ok(Box::new(client) as Box<dyn Transport>)
        }
        "proc" => {
            let mut cmd = std::process::Command::new(&exe);
            cmd.env("DARWIN_CLUSTER_BENCH_WORKER", "shard");
            let t = ProcTransport::spawn(&mut cmd)?;
            Ok(Box::new(t) as Box<dyn Transport>)
        }
        "tcp" => {
            let listener = darwin_wire::Listener::bind("127.0.0.1:0")?;
            let addr = listener.local_addr()?;
            let mut child = std::process::Command::new(&exe)
                .env("DARWIN_CLUSTER_BENCH_WORKER", "shard")
                .env("DARWIN_CLUSTER_BENCH_DIAL", addr.to_string())
                .spawn()?;
            let t = listener.accept();
            if t.is_err() {
                let _ = child.kill();
            }
            std::thread::spawn(move || {
                let _ = child.wait();
            });
            Ok(Box::new(t?) as Box<dyn Transport>)
        }
        other => unreachable!("unknown transport row {other}"),
    })
}

fn main() {
    // Child mode: serve the shard protocol and exit.
    if std::env::var("DARWIN_CLUSTER_BENCH_WORKER").as_deref() == Ok("shard") {
        match std::env::var("DARWIN_CLUSTER_BENCH_DIAL") {
            Ok(addr) => {
                let mut t = darwin_wire::dial(addr.as_str()).expect("dial coordinator");
                serve_shard(&mut t).expect("bench tcp shard worker");
            }
            Err(_) => {
                let mut t = StdioTransport::new();
                serve_shard(&mut t).expect("bench shard worker");
            }
        }
        return;
    }

    let f = fixture();
    let j = journal(&f);
    let probe = f.rules[f.rules.len() / 2];

    // ---- encode-once amortization ----
    // Per-shard journal runs are disjoint, so a broadcast encodes every
    // entry exactly once: the cost below is paid once per broadcast
    // regardless of S.
    let encode_once_ns = median_ns(200, || {
        let mut entries = Vec::with_capacity(j.len() * 12);
        for c in &j {
            c.encode(&mut entries);
        }
        assert!(!entries.is_empty());
    });
    println!(
        "encode-once: {} journal entries in {encode_once_ns} ns per broadcast (any S)",
        j.len()
    );

    // ---- in-memory reference ----
    let mut local = ShardedBenefitStore::local();
    local.track(&f.rules, &f.index, &f.p, &f.scores, 1).unwrap();
    let local_ns = {
        let (p, index) = (&f.p, &f.index);
        median_ns(REPS, || {
            local.on_scores_changed(&j, p, index).unwrap();
        })
    };
    let local_sum = local.agg(probe).map(|a| a.sum_q).unwrap_or(0);
    println!("local reference patch: {local_ns} ns");

    // ---- the fan-out matrix ----
    // One worker fleet per (transport, S); both fan-out modes measured on
    // the same fleet so their numbers differ only by driving discipline.
    let mut rows = Vec::new();
    for kind in ["inproc", "proc", "tcp", "inproc_sim_rtt"] {
        let connect = connector(kind);
        for shards in SHARD_COUNTS {
            let mut store = match ShardedBenefitStore::connect_remote(
                ShardMap::new(N, shards),
                &f.corpus,
                &f.index_cfg,
                &f.p,
                &f.scores,
                connect.clone(),
                Fanout::Sequential,
            ) {
                Ok(s) => s,
                Err(e) => {
                    println!("{kind} S={shards}: unavailable ({e}); skipping row");
                    continue;
                }
            };
            store.track(&f.rules, &f.index, &f.p, &f.scores, 1).unwrap();
            let mut per_mode = Vec::new();
            for fanout in [Fanout::Sequential, Fanout::Concurrent] {
                store.set_fanout(fanout);
                let ns = {
                    let (p, index) = (&f.p, &f.index);
                    median_ns(REPS, || {
                        store.on_scores_changed(&j, p, index).unwrap();
                    })
                };
                per_mode.push(ns);
            }
            // Exactness before the numbers mean anything: the remote
            // fleet applied 1 + 2·REPS patches, the local store 1 + REPS;
            // re-sync the local side and compare the merged fragment.
            let (p, index) = (&f.p, &f.index);
            for _ in 0..REPS {
                local.on_scores_changed(&j, p, index).unwrap();
            }
            let local_sum_now = local.agg(probe).map(|a| a.sum_q).unwrap_or(0);
            assert_eq!(
                store.agg(probe).map(|a| a.sum_q).unwrap_or(1),
                local_sum_now,
                "{kind} S={shards}: remote fragments must match the in-memory store"
            );
            assert!(
                store.audit_remote().unwrap(),
                "{kind} S={shards}: mirror drifted"
            );
            store.shutdown().unwrap();
            let (seq_ns, conc_ns) = (per_mode[0], per_mode[1]);
            println!(
                "{kind} S={shards}: sequential {seq_ns} ns, concurrent {conc_ns} ns ({:.2}x)",
                seq_ns as f64 / conc_ns.max(1) as f64
            );
            rows.push((kind, shards, seq_ns, conc_ns));
        }
    }
    // `local` kept pace with every remote fleet above; keep the baseline
    // sum for the record.
    let _ = local_sum;

    // ---- the headline ratios at S = 4 ----
    let find = |kind: &str, s: usize| {
        rows.iter()
            .find(|(k, sh, _, _)| *k == kind && *sh == s)
            .copied()
    };
    let mut summary = Vec::new();
    for kind in ["inproc", "proc", "tcp", "inproc_sim_rtt"] {
        if let (Some((_, _, _, conc1)), Some((_, _, seq4, conc4))) = (find(kind, 1), find(kind, 4))
        {
            let vs_single = conc4 as f64 / conc1.max(1) as f64;
            let speedup = seq4 as f64 / conc4.max(1) as f64;
            println!(
                "{kind}: S=4 concurrent = {vs_single:.2}x the single-shard round trip, \
                 {speedup:.2}x faster than sequential"
            );
            summary.push((kind, vs_single, speedup));
        }
    }

    // ---- BENCH_cluster.json ----
    let row_json: Vec<String> = rows
        .iter()
        .map(|(kind, s, seq, conc)| {
            format!(
                "    {{\"transport\": \"{kind}\", \"shards\": {s}, \"sequential_ns\": {seq}, \"concurrent_ns\": {conc}}}"
            )
        })
        .collect();
    let summary_json: Vec<String> = summary
        .iter()
        .map(|(kind, vs_single, speedup)| {
            format!(
                "    {{\"transport\": \"{kind}\", \"concurrent_s4_vs_single_shard\": {vs_single:.2}, \"fanout_speedup_s4\": {speedup:.2}}}"
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"cluster_fanout_20k\",\n  \"corpus_sentences\": {N},\n  \"tracked_rules\": {},\n  \"journal_entries\": {},\n  \"encode_once_ns\": {encode_once_ns},\n  \"local_patch_ns\": {local_ns},\n  \"journal_patch_broadcast\": [\n{}\n  ],\n  \"s4_summary\": [\n{}\n  ],\n  \"remote_fragments_identical_to_local\": true\n}}\n",
        f.rules.len(),
        j.len(),
        row_json.join(",\n"),
        summary_json.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cluster.json");
    std::fs::write(path, &json).expect("write BENCH_cluster.json");
    println!("cluster_bench: recorded BENCH_cluster.json");
}
