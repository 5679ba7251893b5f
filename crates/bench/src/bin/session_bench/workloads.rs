//! The four workloads and the code that drives one repetition of each
//! through a production entry point.
//!
//! A repetition is one whole labeling session, raw texts in, `RunResult`
//! out, through `Darwin::run`, `StreamSession` or
//! `Darwin::snapshot` + `Darwin::resume`. The only bench-owned code on its
//! path is the oracle wrapper that stamps when questions are handed out
//! and answered. With a [`Probe`] switched on the same calls are wrapped in
//! spans; what the spans add up to is computed in [`crate::layers`].

use crate::loadgen::{Inputs, Source};
use crate::procfs;
use crate::spans::Probe;
use crate::timed::{OracleLog, SharedWireStats, TimedAsyncOracle, TimedOracle, TimedTransport};
use darwin_core::traversal::{HybridSearch, LocalSearch, UniversalSearch};
use darwin_core::{
    serve_shard, AsyncOracle, AsyncReport, BatchPolicy, Darwin, DarwinConfig, Fanout,
    FrontierStats, GroundTruthOracle, Immediate, Oracle, RunResult, Seed, SessionOutcome,
    ShardConnector, SimulatedLatency, Strategy, StreamSession, TraversalKind,
};
use darwin_grammar::Heuristic;
use darwin_index::{IndexConfig, IndexSet, RuleRef};
use darwin_text::Corpus;
use darwin_wire::net::{dial, Listener};
use darwin_wire::Transport;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Precision the ground-truth oracle demands of a rule (the paper's 0.8).
pub const ORACLE_PRECISION: f64 = 0.8;

/// Which production entry point a workload drives.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Entry {
    /// `Darwin::run` against a zero-latency oracle.
    Run,
    /// `StreamSession`: drive one wave, append, drive one wave, append,
    /// drive to completion.
    Stream {
        /// Appends made at each of the two barriers.
        appends_per_barrier: usize,
    },
    /// `Darwin::snapshot` → `Snapshot::to_bytes` → `Darwin::resume` with
    /// remote shards over loopback TCP and a slow oracle.
    Crowd {
        /// Simulated annotator latency per answer.
        oracle_latency: Duration,
        /// Wave barrier at which the session hops through a snapshot.
        snapshot_wave: u64,
    },
}

pub struct Spec {
    pub name: &'static str,
    pub source: Source,
    /// Sentences generated (for `Entry::Stream`: base plus every append).
    pub sentences: usize,
    /// Sentences the session starts with.
    pub base_sentences: usize,
    pub index: IndexConfig,
    pub cfg: DarwinConfig,
    pub entry: Entry,
    /// Fewest repetitions a run makes however short `--seconds` is.
    pub min_reps: usize,
    /// Percentile reported as `wait_after_yes_tail_ms`, pinned from the
    /// pooled sample count this workload yields (see `stats::tail_percentile`).
    pub tail_pct: f64,
    /// `recall_at_budget` below this fails the run.
    pub recall_floor: f64,
}

impl Spec {
    pub fn append_batches(&self) -> usize {
        match self.entry {
            Entry::Stream {
                appends_per_barrier,
            } => 2 * appends_per_barrier,
            _ => 0,
        }
    }

    /// Texts of append batch `b` (the tail after the base is cut into
    /// equal batches).
    pub fn batch<'a>(&self, inputs: &'a Inputs, b: usize) -> &'a [String] {
        let per = (self.sentences - self.base_sentences) / self.append_batches();
        let lo = self.base_sentences + b * per;
        &inputs.texts[lo..lo + per]
    }

    /// Threads the workload needs the host to really have.
    pub fn host_threads_needed(&self) -> usize {
        match self.entry {
            // The coordinator and its two shard workers: the workers
            // compute while the coordinator blocks, so two cores keep
            // everyone busy.
            Entry::Crowd { .. } => 2,
            _ => self.cfg.threads,
        }
    }
}

/// The paper-size workloads, or their 2k-sentence smoke versions.
pub fn specs(quick: bool) -> Vec<Spec> {
    let size = |full: usize| if quick { 2_000 } else { full };
    // The smoke preset also asks fewer questions, so an unoptimised test
    // build gets through all four workloads in half a minute.
    let budget = |full: usize| if quick { full.min(6) } else { full };
    // Six questions find little; the smoke floor only catches a session
    // that found nothing.
    let floor = |full: f64| if quick { 0.05 } else { full };
    // Tree-enabled, nothing pruned: the only index shape appends can grow
    // in place (the same recipe `stream_bench` uses).
    let stream_index = IndexConfig {
        max_phrase_len: 4,
        min_count: 1,
        ..Default::default()
    };
    let stream_base = size(340_000) / 17;
    let stream_total = stream_base * 17;
    vec![
        Spec {
            name: "directions_logreg",
            source: Source::Directions,
            sentences: size(15_300),
            base_sentences: size(15_300),
            index: IndexConfig::default(),
            cfg: DarwinConfig {
                budget: budget(100),
                ..DarwinConfig::default()
            },
            entry: Entry::Run,
            min_reps: 3,
            tail_pct: 85.0,
            recall_floor: floor(0.95),
        },
        Spec {
            name: "professions_cnn",
            source: Source::ProfessionsStreamed,
            sentences: size(100_000),
            base_sentences: size(100_000),
            index: IndexConfig::default(),
            cfg: DarwinConfig {
                budget: budget(30),
                threads: 2,
                ..DarwinConfig::paper()
            },
            entry: Entry::Run,
            min_reps: 3,
            tail_pct: 85.0,
            recall_floor: floor(0.8),
        },
        Spec {
            name: "stream_ingest",
            source: Source::Directions,
            sentences: stream_total,
            base_sentences: stream_base,
            index: stream_index,
            cfg: DarwinConfig {
                budget: budget(8),
                batch: BatchPolicy::Fixed(4),
                threads: 2,
                ..DarwinConfig::default()
            },
            entry: Entry::Stream {
                appends_per_barrier: 8,
            },
            min_reps: 3,
            tail_pct: 50.0,
            recall_floor: floor(0.15),
        },
        Spec {
            name: "crowd_tcp",
            source: Source::Directions,
            sentences: size(15_300),
            base_sentences: size(15_300),
            index: IndexConfig::default(),
            cfg: DarwinConfig {
                budget: budget(100),
                batch: BatchPolicy::Fixed(4),
                shards: 2,
                fanout: Fanout::Concurrent,
                ..DarwinConfig::default()
            },
            entry: Entry::Crowd {
                oracle_latency: Duration::from_millis(10),
                snapshot_wave: if quick { 1 } else { 12 },
            },
            // Six waves of a session end in a retrain; eight sessions (under
            // the default 20 s) pool the 48 waits a p75 tail needs.
            min_reps: 8,
            tail_pct: 75.0,
            recall_floor: floor(0.95),
        },
    ]
}

/// The seed the session starts from: the dataset's first seed rule that
/// parses against this corpus and covers at least two sentences, otherwise
/// its first two positive sentences (Algorithm 1 accepts either).
pub fn seed_for(corpus: &Corpus, inputs: &Inputs) -> Seed {
    for text in &inputs.seed_rules {
        if let Ok(rule) = Heuristic::phrase(corpus, text) {
            if rule.coverage(corpus).len() >= 2 {
                return Seed::Rule(rule);
            }
        }
    }
    let positives = (0..corpus.len() as u32)
        .filter(|&id| inputs.labels[id as usize])
        .take(2)
        .collect();
    Seed::Positives(positives)
}

/// One repetition: a whole session and what was observed at its edges.
pub struct Rep {
    /// Raw texts → first question handed to the oracle.
    pub setup_s: f64,
    /// First question handed out → run call returned.
    pub wall_s: f64,
    /// Process CPU (user + system, all threads) over the same interval.
    pub cpu_s: f64,
    pub session_start: Instant,
    pub session_end: Instant,
    pub log: OracleLog,
    pub run: RunResult,
    /// `Some` for the entry points that report waves.
    pub report: Option<AsyncReport>,
    /// Every `StreamSession::append` the session made, in order.
    pub appends: Vec<AppendObs>,
    pub final_corpus_len: usize,
    /// The serialized snapshot the session hopped through (`Entry::Crowd`).
    pub snapshot: Vec<u8>,
    /// Read only by the traced run (zero / `None` otherwise).
    pub observed: Observed,
}

/// One `StreamSession::append` as the session saw it.
#[derive(Clone, Copy, Debug)]
pub struct AppendObs {
    /// How long the call blocked the session.
    pub stall: Duration,
    pub sentences: usize,
    /// Questions handed out before it (places it on the replay timeline).
    pub asked_before: usize,
}

/// What only the traced repetition can see.
#[derive(Default)]
pub struct Observed {
    /// Resident set before analysis, after it, and after the index build.
    pub rss_mb: [f64; 3],
    pub index_rules: usize,
    /// Frontier counters and pool size when the stepped loop ended.
    pub frontier: Option<FrontierStats>,
    pub hierarchy_rules: usize,
}

/// Shard workers serving over loopback TCP, and the connector dialling
/// them. Each connector call binds an ephemeral port, starts a thread
/// that accepts one connection and serves the shard protocol on it, and
/// dials that port. A worker ends when its coordinator hangs up; `join`
/// waits for every one of them.
pub struct TcpShards {
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl TcpShards {
    pub fn new() -> TcpShards {
        TcpShards {
            workers: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A connector for `Darwin::with_remote_shards`. With `stats` every
    /// transport it hands out is wrapped in a [`TimedTransport`].
    pub fn connector(&self, stats: Option<SharedWireStats>) -> Box<ShardConnector> {
        let workers = Arc::clone(&self.workers);
        Box::new(move |_shard, _range| {
            let listener = Listener::bind("127.0.0.1:0")?;
            let addr = listener.local_addr()?;
            let worker = std::thread::spawn(move || {
                if let Ok(mut transport) = listener.accept() {
                    // A hang-up is how a healthy session ends.
                    let _ = serve_shard(&mut transport);
                }
            });
            workers
                .lock()
                .expect("a connector call panicked while registering its worker")
                .push(worker);
            let transport: Box<dyn Transport> = Box::new(dial(addr)?);
            Ok(match &stats {
                Some(stats) => {
                    stats
                        .lock()
                        .expect("a transport thread panicked while counting")
                        .connects += 1;
                    Box::new(TimedTransport::new(transport, Arc::clone(stats)))
                }
                None => transport,
            })
        })
    }

    /// Wait for every worker started so far to end. Call once the
    /// `Darwin` holding the connector (and every engine it built) is gone.
    pub fn join(self) {
        let workers = std::mem::take(
            &mut *self
                .workers
                .lock()
                .expect("a connector call panicked while registering its worker"),
        );
        for worker in workers {
            worker.join().expect("a shard worker panicked");
        }
    }
}

/// The set-up every entry point shares: analyse the base texts and build
/// the index, charging each to its layer when tracing.
fn analyse_and_index(
    spec: &Spec,
    inputs: &Inputs,
    probe: &mut Probe,
    observed: &mut Observed,
) -> (Corpus, IndexSet) {
    observed.rss_mb[0] = probe.rss_mb();
    let corpus = probe.span("text.analyze", || {
        Corpus::from_texts(inputs.texts[..spec.base_sentences].iter())
    });
    observed.rss_mb[1] = probe.rss_mb();
    let index = probe.span("index.build", || IndexSet::build(&corpus, &spec.index));
    observed.rss_mb[2] = probe.rss_mb();
    observed.index_rules = index.rules();
    (corpus, index)
}

/// Turn the instants around a run call that started set-up at `t0` into a
/// [`Rep`].
fn finish_rep(t0: Instant, log: OracleLog, run: RunResult, final_corpus_len: usize) -> Rep {
    let session_end = Instant::now();
    let cpu_end = procfs::cpu_s();
    // A session that asked nothing has no session interval; its repetition
    // fails the question-count check downstream.
    let session_start = log.first_call().unwrap_or(session_end);
    Rep {
        setup_s: (session_start - t0).as_secs_f64(),
        wall_s: (session_end - session_start).as_secs_f64(),
        cpu_s: cpu_end - log.cpu_at_first_call,
        session_start,
        session_end,
        log,
        run,
        report: None,
        appends: Vec::new(),
        final_corpus_len,
        snapshot: Vec::new(),
        observed: Observed::default(),
    }
}

/// Drive one repetition of `spec`. With `probe` on, the same calls are
/// wrapped in spans, `Entry::Run` is stepped through a bench-owned copy of
/// `Engine::step` instead of `Darwin::run`, and `wire` (if given) counts
/// the shard transports' traffic.
pub fn run_rep(
    spec: &Spec,
    inputs: &Inputs,
    probe: &mut Probe,
    wire: Option<SharedWireStats>,
) -> Rep {
    match spec.entry {
        Entry::Run => run_sequential(spec, inputs, probe),
        Entry::Stream {
            appends_per_barrier,
        } => run_stream(spec, inputs, appends_per_barrier, probe),
        Entry::Crowd {
            oracle_latency,
            snapshot_wave,
        } => {
            let shards = TcpShards::new();
            let rep = run_crowd(
                spec,
                inputs,
                oracle_latency,
                snapshot_wave,
                shards.connector(wire),
                probe,
            );
            shards.join();
            rep
        }
    }
}

/// The traversal strategy `cfg` configures — what `Darwin::run` selects
/// with (its constructor for it is crate-private).
pub fn strategy_for(cfg: &DarwinConfig, seeds: &[RuleRef]) -> Box<dyn Strategy> {
    match cfg.traversal {
        TraversalKind::Local => Box::new(LocalSearch::new(seeds.to_vec())),
        TraversalKind::Universal => Box::new(UniversalSearch::new()),
        TraversalKind::Hybrid => Box::new(HybridSearch::new(seeds.to_vec(), cfg.tau)),
    }
}

fn run_sequential(spec: &Spec, inputs: &Inputs, probe: &mut Probe) -> Rep {
    let t0 = Instant::now();
    let mut observed = Observed::default();
    let (corpus, index) = analyse_and_index(spec, inputs, probe, &mut observed);
    let darwin = probe.span("text.embed_train", || {
        Darwin::new(&corpus, &index, spec.cfg.clone())
    });
    let seed = seed_for(&corpus, inputs);
    let mut oracle = TimedOracle::new(GroundTruthOracle::new(&inputs.labels, ORACLE_PRECISION));
    let run = if probe.is_on() {
        // `Engine::step`, one span per public call it makes. The digest
        // check against the untraced repetitions proves this copy has not
        // drifted from the production loop.
        let mut engine = probe.span("core.engine.new", || darwin.engine(seed));
        let mut strategy = strategy_for(&spec.cfg, engine.seed_refs());
        for _ in 0..spec.cfg.budget {
            let picked = probe.span("core.engine.select", || engine.select(&mut *strategy));
            let Some(rule) = picked else {
                break;
            };
            let heuristic = index.heuristic(rule);
            let coverage = index.coverage(rule);
            let answer = probe.span("core.oracle.ask", || {
                oracle.ask(&corpus, &heuristic, coverage)
            });
            probe.span("core.engine.record", || engine.record(rule, answer));
            probe.span("core.traversal.feedback", || {
                let ctx = engine.ctx();
                strategy.feedback(rule, answer, &ctx);
            });
            if answer {
                probe.span("core.engine.retrain_and_sync", || engine.retrain_and_sync());
                probe.span("core.engine.regen_hierarchy", || engine.regen_hierarchy());
            }
        }
        observed.frontier = engine.frontier().map(|pool| pool.stats());
        observed.hierarchy_rules = engine.hierarchy().len();
        probe.span("core.engine.finish", || engine.finish())
    } else {
        darwin.run(seed, &mut oracle)
    };
    let mut rep = finish_rep(t0, oracle.log, run, corpus.len());
    rep.observed = observed;
    rep
}

fn run_stream(spec: &Spec, inputs: &Inputs, appends_per_barrier: usize, probe: &mut Probe) -> Rep {
    let t0 = Instant::now();
    let mut observed = Observed::default();
    let (corpus, index) = analyse_and_index(spec, inputs, probe, &mut observed);
    let seed = seed_for(&corpus, inputs);
    let mut session = probe.span("text.embed_train", || {
        StreamSession::new(corpus, index, spec.cfg.clone(), seed)
    });
    let mut oracle = TimedAsyncOracle::new(Immediate::new(GroundTruthOracle::new(
        &inputs.labels,
        ORACLE_PRECISION,
    )));
    let mut appends = Vec::new();
    for barrier in 0..2 {
        probe.span("core.stream.drive", || {
            session.drive(&mut oracle, Some(barrier as u64 + 1))
        });
        for b in 0..appends_per_barrier {
            let batch = spec.batch(inputs, barrier * appends_per_barrier + b);
            let t = Instant::now();
            let sentences = probe.span("core.stream.append", || {
                session
                    .append(batch)
                    .expect("a min_count 1 index grows in place")
            });
            appends.push(AppendObs {
                stall: t.elapsed(),
                sentences,
                asked_before: oracle.queries(),
            });
        }
    }
    probe.span("core.stream.drive", || session.drive(&mut oracle, None));
    let final_len = session.corpus().len();
    let result = session
        .into_result()
        .expect("driving without a wave limit finishes the run");
    let mut rep = finish_rep(t0, oracle.log, result.run, final_len);
    rep.report = Some(result.report);
    rep.appends = appends;
    rep.observed = observed;
    rep
}

fn run_crowd(
    spec: &Spec,
    inputs: &Inputs,
    oracle_latency: Duration,
    snapshot_wave: u64,
    connect: Box<ShardConnector>,
    probe: &mut Probe,
) -> Rep {
    let t0 = Instant::now();
    let mut observed = Observed::default();
    let (corpus, index) = analyse_and_index(spec, inputs, probe, &mut observed);
    let darwin = probe
        .span("text.embed_train", || {
            Darwin::new(&corpus, &index, spec.cfg.clone())
        })
        .with_remote_shards(connect);
    let seed = seed_for(&corpus, inputs);
    let mut oracle = TimedAsyncOracle::new(SimulatedLatency::new(
        GroundTruthOracle::new(&inputs.labels, ORACLE_PRECISION),
        oracle_latency,
    ));
    let mut snapshot = Vec::new();
    let first_leg = probe.span("core.snapshot.drive_to_barrier", || {
        darwin.snapshot(seed, &mut oracle, snapshot_wave)
    });
    let result = match first_leg {
        // A session too short to reach the hop (the smoke preset can be).
        SessionOutcome::Finished(result) => result,
        SessionOutcome::Suspended(image) => {
            snapshot = probe.span("core.snapshot.to_bytes", || image.to_bytes());
            drop(image);
            probe.span("core.snapshot.resume_and_drive", || {
                darwin
                    .resume(&snapshot, &mut oracle)
                    .expect("a snapshot this process just took resumes")
            })
        }
    };
    let mut rep = finish_rep(t0, oracle.log, result.run, corpus.len());
    rep.report = Some(result.report);
    rep.snapshot = snapshot;
    rep.observed = observed;
    rep
}

/// The local reference `crowd_tcp` must agree with: one shard, in process,
/// zero-latency oracle, no snapshot hop. Final positives and scores are
/// invariant under shards, transport, arrival order and suspend/resume, so
/// they must equal the deployed run's bit for bit.
pub fn crowd_reference(spec: &Spec, inputs: &Inputs) -> RunResult {
    let corpus = Corpus::from_texts(inputs.texts[..spec.base_sentences].iter());
    let index = IndexSet::build(&corpus, &spec.index);
    let cfg = DarwinConfig {
        shards: 1,
        ..spec.cfg.clone()
    };
    let darwin = Darwin::new(&corpus, &index, cfg);
    let seed = seed_for(&corpus, inputs);
    let mut oracle = Immediate::new(GroundTruthOracle::new(&inputs.labels, ORACLE_PRECISION));
    darwin.run_async(seed, &mut oracle).run
}
