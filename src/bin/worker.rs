//! `darwin-worker` — an out-of-process Darwin worker.
//!
//! Speaks the [`darwin_wire`] protocol over stdio (stdout carries nothing
//! but frames; diagnostics go to stderr), or — with `--dial <addr>` —
//! over a TCP connection to a listening coordinator, opened with a
//! registration frame declaring the worker's role. One process serves one
//! role:
//!
//! ```text
//! darwin-worker shard [--dial <addr> [--span <lo> <hi>]]
//!     A benefit-shard worker: initialized entirely over the wire
//!     (corpus, index recipe, span, state), then answers
//!     track/delta/rebuild requests with fragment deltas. `--span`
//!     advertises a partition preference in the registration frame (a
//!     restarted worker reclaiming its old span).
//!
//! darwin-worker oracle --directions <n> <seed> [--threshold <t>] [--dial <addr>]
//!     A ground-truth oracle worker over the deterministic `directions`
//!     dataset (both sides regenerate the identical fixture from
//!     <n, seed>), answering submitted questions at precision ≥ t
//!     (default 0.8).
//!
//! darwin-worker classifier [--dial <addr>]
//!     A remote benefit classifier: initialized over the wire
//!     (corpus, embedding seed, model recipe), then serves
//!     fit / predict_batch.
//!
//! darwin-worker session --directions <n> <seed> [--threshold <t>]
//!         [--budget <b>] [--batch <k>]
//!         [--suspend-after <w> --snapshot <file>] [--resume <file>]
//!     A whole coordinator session over the deterministic `directions`
//!     fixture — the durable-session entry point. Uninterrupted, it
//!     prints a deterministic digest of the completed run. With
//!     `--suspend-after`, it suspends at that wave barrier and writes
//!     the snapshot to <file>; a later process resumes it with
//!     `--resume <file>` and prints the digest of the completed run,
//!     which must equal the uninterrupted one bit for bit.
//! ```
//!
//! This binary is what `examples/distributed.rs`, `examples/cluster.rs`,
//! the `Proc`/`Tcp` rows of the test matrix and the CI distributed job
//! spawn.

use darwin_core::{
    serve_classifier, serve_oracle, serve_shard, AsyncRunResult, BatchPolicy, Darwin, DarwinConfig,
    GroundTruthOracle, Immediate, Seed, SessionOutcome,
};
use darwin_grammar::Heuristic;
use darwin_index::{IndexConfig, IndexSet};
use darwin_wire::{register, Encode, Registration, StreamTransport, Transport, WorkerRole};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("session") {
        return match session_main(&args[1..]) {
            Ok(code) => code,
            Err(msg) => {
                eprintln!("darwin-worker (session): {msg}");
                usage()
            }
        };
    }
    let NetOptions {
        dial: dial_addr,
        span,
    } = match net_options(&mut args) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("darwin-worker: {msg}");
            return usage();
        }
    };
    let role = args.first().map(String::as_str).unwrap_or("").to_string();
    let worker_role = match role.as_str() {
        "shard" => WorkerRole::Shard,
        "oracle" => WorkerRole::Oracle,
        "classifier" => WorkerRole::Classifier,
        _ => return usage(),
    };
    let mut transport: Box<dyn Transport> = match &dial_addr {
        None => Box::new(StreamTransport::new(std::io::stdin(), std::io::stdout())),
        Some(addr) => {
            let mut t = match darwin_wire::dial(addr.as_str()) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("darwin-worker ({role}): dial {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let reg = Registration {
                role: worker_role,
                span,
            };
            if let Err(e) = register(&mut t, &reg) {
                eprintln!("darwin-worker ({role}): register with {addr}: {e}");
                return ExitCode::FAILURE;
            }
            Box::new(t)
        }
    };
    let served = match worker_role {
        WorkerRole::Shard => serve_shard(transport.as_mut()),
        WorkerRole::Classifier => serve_classifier(transport.as_mut()),
        WorkerRole::Oracle => match oracle_config(&args[1..]) {
            Ok((n, seed, threshold)) => {
                let data = darwin_datasets::directions::generate(n, seed);
                let mut oracle = GroundTruthOracle::new(&data.labels, threshold);
                serve_oracle(transport.as_mut(), &data.corpus, &mut oracle)
            }
            Err(msg) => {
                eprintln!("darwin-worker: {msg}");
                return usage();
            }
        },
    };
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("darwin-worker ({role}): {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--dial <addr>` and `--span <lo> <hi>`, stripped out of the
/// argument list by [`net_options`].
struct NetOptions {
    dial: Option<String>,
    span: Option<(u32, u32)>,
}

/// Strip `--dial <addr>` and `--span <lo> <hi>` from the argument list
/// (they may appear anywhere after the role) and return them.
fn net_options(args: &mut Vec<String>) -> Result<NetOptions, String> {
    let mut dial = None;
    let mut span = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--dial" => {
                if i + 1 >= args.len() {
                    return Err("--dial needs <addr>".into());
                }
                dial = Some(args.remove(i + 1));
                args.remove(i);
            }
            "--span" => {
                if i + 2 >= args.len() {
                    return Err("--span needs <lo> <hi>".into());
                }
                let lo = args[i + 1].parse().map_err(|_| "--span needs integers")?;
                let hi = args[i + 2].parse().map_err(|_| "--span needs integers")?;
                span = Some((lo, hi));
                args.drain(i..i + 3);
            }
            _ => i += 1,
        }
    }
    if span.is_some() && dial.is_none() {
        return Err("--span only makes sense with --dial".into());
    }
    Ok(NetOptions { dial, span })
}

/// Parse `oracle --directions <n> <seed> [--threshold <t>]`.
fn oracle_config(args: &[String]) -> Result<(usize, u64, f64), String> {
    let mut n = None;
    let mut seed = None;
    let mut threshold = 0.8f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--directions" => {
                n = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--directions needs <n> <seed>")?,
                );
                seed = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--directions needs <n> <seed>")?,
                );
            }
            "--threshold" => {
                threshold = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--threshold needs a number")?;
            }
            other => return Err(format!("unknown oracle option {other}")),
        }
    }
    match (n, seed) {
        (Some(n), Some(seed)) => Ok((n, seed, threshold)),
        _ => Err("oracle needs --directions <n> <seed>".into()),
    }
}

/// Configuration of a `session` run, parsed by [`session_config`].
struct SessionConfig {
    n: usize,
    seed: u64,
    threshold: f64,
    budget: usize,
    batch: usize,
    suspend_after: Option<u64>,
    snapshot_path: Option<String>,
    resume_path: Option<String>,
}

/// Parse `session --directions <n> <seed> [--threshold <t>] [--budget <b>]
/// [--batch <k>] [--suspend-after <w> --snapshot <file>] [--resume <file>]`.
fn session_config(args: &[String]) -> Result<SessionConfig, String> {
    let mut cfg = SessionConfig {
        n: 0,
        seed: 0,
        threshold: 0.8,
        budget: 12,
        batch: 3,
        suspend_after: None,
        snapshot_path: None,
        resume_path: None,
    };
    let mut directions = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |what: &str| {
            it.next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("{what} needs a number"))
        };
        match a.as_str() {
            "--directions" => {
                cfg.n = num("--directions")? as usize;
                cfg.seed = num("--directions")?;
                directions = true;
            }
            "--threshold" => {
                cfg.threshold = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--threshold needs a number")?;
            }
            "--budget" => cfg.budget = num("--budget")? as usize,
            "--batch" => cfg.batch = num("--batch")? as usize,
            "--suspend-after" => cfg.suspend_after = Some(num("--suspend-after")?),
            "--snapshot" => {
                cfg.snapshot_path = Some(it.next().ok_or("--snapshot needs <file>")?.clone());
            }
            "--resume" => {
                cfg.resume_path = Some(it.next().ok_or("--resume needs <file>")?.clone());
            }
            other => return Err(format!("unknown session option {other}")),
        }
    }
    if !directions {
        return Err("session needs --directions <n> <seed>".into());
    }
    if cfg.suspend_after.is_some() != cfg.snapshot_path.is_some() {
        return Err("--suspend-after and --snapshot go together".into());
    }
    if cfg.resume_path.is_some() && cfg.suspend_after.is_some() {
        return Err("--resume and --suspend-after are exclusive".into());
    }
    Ok(cfg)
}

/// FNV-1a 64 digest over the run's replay surface: the encoded trace,
/// the final positive set and the final score bits. Two runs print the
/// same digest iff they are byte-identical where determinism is owed.
fn session_digest(result: &AsyncRunResult) -> u64 {
    let mut bytes = Vec::new();
    result.run.trace.encode(&mut bytes);
    result.run.positives.encode(&mut bytes);
    for s in &result.run.scores {
        bytes.extend_from_slice(&s.to_bits().to_le_bytes());
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Drive (or resume) a whole coordinator session over the `directions`
/// fixture. See the module docs for the command shape; prints
/// `digest=<hex> questions=<q> positives=<p>` on completion, or
/// `suspended=<wave> bytes=<len>` after writing a snapshot.
fn session_main(args: &[String]) -> Result<ExitCode, String> {
    let sc = session_config(args)?;
    let data = darwin_datasets::directions::generate(sc.n, sc.seed);
    let index = IndexSet::build(
        &data.corpus,
        &IndexConfig {
            max_phrase_len: 4,
            min_count: 2,
            ..Default::default()
        },
    );
    let cfg = DarwinConfig {
        budget: sc.budget,
        n_candidates: 1200,
        batch: BatchPolicy::Fixed(sc.batch),
        ..DarwinConfig::fast()
    };
    let darwin = Darwin::new(&data.corpus, &index, cfg);
    let mut oracle = Immediate::new(GroundTruthOracle::new(&data.labels, sc.threshold));

    let done = if let Some(path) = &sc.resume_path {
        let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
        darwin
            .resume(&bytes, &mut oracle)
            .map_err(|e| format!("resume from {path}: {e}"))?
    } else {
        let seed = Seed::Rule(
            Heuristic::phrase(&data.corpus, data.seed_rules[0])
                .map_err(|e| format!("seed rule: {e}"))?,
        );
        match sc.suspend_after {
            None => darwin.run_async(seed, &mut oracle),
            Some(w) => match darwin.snapshot(seed, &mut oracle, w) {
                SessionOutcome::Suspended(snap) => {
                    let path = sc.snapshot_path.as_deref().expect("validated above");
                    let bytes = snap.to_bytes();
                    std::fs::write(path, &bytes).map_err(|e| format!("write {path}: {e}"))?;
                    println!("suspended={} bytes={}", snap.counters.waves, bytes.len());
                    return Ok(ExitCode::SUCCESS);
                }
                SessionOutcome::Finished(done) => done,
            },
        }
    };
    println!(
        "digest={:016x} questions={} positives={}",
        session_digest(&done),
        done.report.submitted,
        done.run.positives.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: darwin-worker shard [--dial <addr> [--span <lo> <hi>]]\n       darwin-worker oracle --directions <n> <seed> [--threshold <t>] [--dial <addr>]\n       darwin-worker classifier [--dial <addr>]\n       darwin-worker session --directions <n> <seed> [--threshold <t>] [--budget <b>] [--batch <k>] [--suspend-after <w> --snapshot <file>] [--resume <file>]"
    );
    ExitCode::FAILURE
}
