//! A real multi-process Darwin session: coordinator + 2 shard workers +
//! 1 oracle worker, spawned as child processes over stdio pipes.
//!
//! The coordinator runs the same interactive discovery task twice —
//! once fully in-process, once with the benefit partitions living in
//! shard worker *processes* and the oracle in a third — and asserts the
//! distributed run reproduces the local positives and scores exactly.
//! That is the wire boundary's defining contract: a deployment is an
//! execution detail, never a behavioral one.
//!
//! ```sh
//! cargo run --release --example distributed
//! ```
//!
//! (The binary re-executes itself in worker mode for the children, so no
//! separate worker binary is needed; the shipped `darwin-worker` binary
//! serves the same roles for external deployments.)

use darwin::core::{serve_oracle, serve_shard, ShardConnector, WireOracle};
use darwin::prelude::*;
use darwin::wire::{ProcTransport, StreamTransport, Transport};
use darwin_datasets::directions;
use std::process::Command;
use std::time::Instant;

const N: usize = 1200;
const SEED: u64 = 42;
const SHARDS: usize = 2;

fn main() {
    // Child processes re-enter main with a worker role argument.
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("worker-shard") => {
            let mut t = StreamTransport::new(std::io::stdin(), std::io::stdout());
            serve_shard(&mut t).expect("shard worker failed");
            return;
        }
        Some("worker-oracle") => {
            let data = directions::generate(N, SEED);
            let mut oracle = GroundTruthOracle::new(&data.labels, 0.8);
            let mut t = StreamTransport::new(std::io::stdin(), std::io::stdout());
            serve_oracle(&mut t, &data.corpus, &mut oracle).expect("oracle worker failed");
            return;
        }
        _ => {}
    }

    // ---- coordinator ----
    let data = directions::generate(N, SEED);
    let index_cfg = IndexConfig {
        max_phrase_len: 4,
        min_count: 2,
        ..Default::default()
    };
    let index = IndexSet::build(&data.corpus, &index_cfg);
    let cfg = DarwinConfig {
        budget: 20,
        n_candidates: 2000,
        shards: SHARDS,
        batch: BatchPolicy::Fixed(2),
        ..DarwinConfig::fast()
    };
    let seed_rule = Heuristic::phrase(&data.corpus, data.seed_rules[0]).unwrap();

    // Local reference: everything in this process.
    let t0 = Instant::now();
    let local = {
        let darwin = Darwin::new(&data.corpus, &index, cfg.clone());
        let mut oracle = Immediate::new(GroundTruthOracle::new(&data.labels, 0.8));
        darwin.run_async(Seed::Rule(seed_rule.clone()), &mut oracle)
    };
    let local_wall = t0.elapsed();

    // Distributed: 2 shard worker processes + 1 oracle worker process.
    let exe = std::env::current_exe().expect("own path");
    let connect: Box<ShardConnector> = {
        let exe = exe.clone();
        Box::new(move |s, range| {
            eprintln!("[coordinator] spawning shard worker {s} for ids {range:?}");
            let t = ProcTransport::spawn(Command::new(&exe).arg("worker-shard"))?;
            Ok(Box::new(t) as Box<dyn Transport>)
        })
    };
    let t1 = Instant::now();
    let distributed = {
        let darwin = Darwin::new(&data.corpus, &index, cfg).with_remote_shards(connect);
        let oracle_t = ProcTransport::spawn(Command::new(&exe).arg("worker-oracle"))
            .expect("spawn oracle worker");
        let mut oracle = WireOracle::connect(Box::new(oracle_t)).expect("oracle handshake");
        darwin.run_async(Seed::Rule(seed_rule), &mut oracle)
    };
    let dist_wall = t1.elapsed();

    // ---- the contract ----
    assert!(
        distributed.run.wire_error.is_none(),
        "distributed run failed: {:?}",
        distributed.run.wire_error
    );
    assert_eq!(
        local.run.positives, distributed.run.positives,
        "distributed P must equal the local P exactly"
    );
    assert_eq!(
        local.run.scores, distributed.run.scores,
        "distributed scores must be bit-identical to local"
    );
    assert_eq!(local.run.questions(), distributed.run.questions());

    let recall = coverage(&distributed.run.positives, &data.labels);
    println!(
        "local run:        {:>6.2?}  ({} questions)",
        local_wall,
        local.run.questions()
    );
    println!(
        "distributed run:  {:>6.2?}  ({SHARDS} shard workers + 1 oracle worker, {} waves)",
        dist_wall, distributed.report.waves
    );
    println!(
        "accepted {} rules, |P| = {}, recall {recall:.2} — identical P and bit-identical scores across deployments",
        distributed.run.accepted.len(),
        distributed.run.positives.len(),
    );
}
