//! `session_bench` — the end-to-end labeling-session benchmark.
//!
//! One process measures one workload: it makes the inputs, drives whole
//! sessions (seed → budget exhausted) through a production entry point with
//! tracing off, checks that every session decided the same thing, and
//! prints every end-to-end metric as `name value unit`. With `--trace` it
//! instead drives one traced session and prints the per-layer metrics.
//! The last line of standard output is the result as one JSON object.
//! README.md beside this file defines every name printed here.

mod layers;
mod loadgen;
mod procfs;
mod replay;
mod spans;
mod stats;
mod timed;
mod workloads;

use layers::{MetricDef, TraceInputs, APPEND_STALL, END_TO_END, PER_LAYER};
use spans::Probe;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use timed::{trace_digest, waits_ms, WireStats};
use workloads::{Entry, Rep, Spec};

/// Generator seed of every workload's corpus. A labeling session is
/// chaotic in its inputs — re-drawing the corpus moves the number of YES
/// answers, and with it session time, by ±40 % (README, "Why the corpus is
/// pinned") — so `--seed` is recorded and never re-draws the corpus.
const CORPUS_SEED: u64 = 42;

/// Seconds of measured sessions per run when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage: session_bench (--workload <name> | --all | --check) \
[--seed <u64>] [--seconds <n>] [--trace [0|1]] [--quick]";

#[derive(Clone, Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    all: bool,
    check: bool,
    quick: bool,
    trace: bool,
    seed: u64,
    seconds: f64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        check: false,
        quick: false,
        trace: false,
        seed: CORPUS_SEED,
        seconds: DEFAULT_SECONDS,
    };
    let mut it = argv.iter().peekable();
    let value = |flag: &str, v: Option<&String>| {
        v.cloned()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => args.workload = Some(value(arg, it.next())?),
            "--seed" => {
                args.seed = value(arg, it.next())?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value(arg, it.next())?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    args.trace = false;
                }
                Some("1") => {
                    it.next();
                    args.trace = true;
                }
                _ => args.trace = true,
            },
            "--all" => args.all = true,
            "--check" => args.check = true,
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    let modes = [args.workload.is_some(), args.all, args.check];
    if modes.iter().filter(|&&m| m).count() != 1 {
        return Err(format!("pick exactly one mode\n{USAGE}"));
    }
    Ok(args)
}

/// What one run of one workload produced.
#[derive(Default)]
struct Outcome {
    /// `(name, value, unit)` in declaration order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Informational `name value unit` lines that are not contract metrics.
    notes: Vec<(String, f64, &'static str)>,
    attempted: usize,
    failed: usize,
    /// Correctness checks that failed (empty = correct).
    failures: Vec<String>,
    /// Timing self-checks outside their band: reported, never fatal — a
    /// noisy host must not turn into a wrong verdict on the program.
    warnings: Vec<String>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        out.push_str("}}");
        out
    }

    fn print(&self) {
        for (name, value, unit) in &self.notes {
            println!("{name} {value} {unit}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name} {value} {unit}");
        }
        println!("ops_attempted {} count", self.attempted);
        println!("ops_failed {} count", self.failed);
        for w in &self.warnings {
            println!("WARN {w}");
        }
        for f in &self.failures {
            println!("FAIL {f}");
        }
        println!("{}", self.json());
    }
}

/// A finite float as JSON (Rust's shortest round-trip form is valid JSON).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Quality of the final positive set against the ground truth of the
/// corpus the session ended with.
fn quality(rep: &Rep, inputs: &loadgen::Inputs) -> (f64, f64) {
    let truth = inputs.truth_count(rep.final_corpus_len);
    let hits = rep
        .run
        .positives
        .iter()
        .filter(|&&id| inputs.labels[id as usize])
        .count();
    let recall = hits as f64 / truth.max(1) as f64;
    let precision = hits as f64 / rep.run.positives.len().max(1) as f64;
    (recall, precision)
}

/// Checks every repetition must pass on its own; returns what failed.
fn check_rep(spec: &Spec, inputs: &loadgen::Inputs, rep: &Rep, which: &str) -> Vec<String> {
    let mut failures = Vec::new();
    if let Some(e) = &rep.run.wire_error {
        failures.push(format!("{which}: run ended with wire_error: {e}"));
    }
    if rep.run.questions() == 0 {
        failures.push(format!("{which}: the session asked no question"));
    }
    if let Some(report) = &rep.report {
        if report.abandoned != 0 {
            failures.push(format!("{which}: {} questions abandoned", report.abandoned));
        }
    }
    let appended: usize = rep.appends.iter().map(|a| a.sentences).sum();
    if rep.final_corpus_len != spec.base_sentences + appended
        || (spec.append_batches() > 0 && rep.final_corpus_len != spec.sentences)
    {
        failures.push(format!(
            "{which}: corpus ended at {} sentences, expected base {} + appended {appended}",
            rep.final_corpus_len, spec.base_sentences
        ));
    }
    let (recall, _) = quality(rep, inputs);
    if recall < spec.recall_floor {
        failures.push(format!(
            "{which}: recall_at_budget {recall:.4} below the floor {}",
            spec.recall_floor
        ));
    }
    failures
}

/// Operations of a repetition: one per budgeted question, abandoned ones
/// included.
fn ops(rep: &Rep) -> (usize, usize) {
    let abandoned = rep.report.map_or(0, |r| r.abandoned);
    (rep.run.questions() + abandoned, abandoned)
}

struct Session<'a> {
    spec: &'a Spec,
    inputs: loadgen::Inputs,
    loadgen_s: f64,
    quick: bool,
}

impl<'a> Session<'a> {
    fn prepare(spec: &'a Spec, args: &Args) -> Session<'a> {
        let t = Instant::now();
        let inputs = loadgen::generate(spec.source, spec.sentences, CORPUS_SEED);
        Session {
            spec,
            inputs,
            loadgen_s: t.elapsed().as_secs_f64(),
            quick: args.quick,
        }
    }

    /// Untraced repetitions until `seconds` of sessions are measured (at
    /// least `min_reps`; exactly one under `--quick`).
    fn measure(&self, seconds: f64, min_reps: usize) -> Vec<Rep> {
        let mut reps = Vec::new();
        let mut measured = 0.0;
        loop {
            let rep = workloads::run_rep(self.spec, &self.inputs, &mut Probe::off(), None);
            measured += rep.setup_s + rep.wall_s;
            reps.push(rep);
            if self.quick || (reps.len() >= min_reps && measured >= seconds) {
                return reps;
            }
        }
    }

    /// Lines every run prints ahead of its metrics.
    fn notes(&self, reps: usize) -> Vec<(String, f64, &'static str)> {
        vec![
            ("bench.repetitions".into(), reps as f64, "count"),
            (
                "bench.sentences".into(),
                self.spec.sentences as f64,
                "count",
            ),
            ("bench.corpus_seed".into(), CORPUS_SEED as f64, "count"),
        ]
    }
}

/// Tally operations and per-repetition failures over `reps`; repetitions
/// whose digest differs from the first one's fail as a whole.
fn tally(session: &Session<'_>, reps: &[Rep], out: &mut Outcome) {
    let digest = trace_digest(&reps[0].run);
    for (i, rep) in reps.iter().enumerate() {
        let which = format!("repetition {}", i + 1);
        let mut failures = check_rep(session.spec, &session.inputs, rep, &which);
        if trace_digest(&rep.run) != digest {
            failures.push(format!("{which}: trace digest differs from repetition 1's"));
        }
        let (attempted, abandoned) = ops(rep);
        out.attempted += attempted;
        out.failed += if failures.is_empty() {
            abandoned
        } else {
            attempted
        };
        out.failures.extend(failures);
    }
}

/// The end-to-end run: tracing off, every [`END_TO_END`] metric.
fn run_end_to_end(spec: &Spec, args: &Args) -> Outcome {
    let session = Session::prepare(spec, args);
    let reps = session.measure(args.seconds, spec.min_reps);
    let mut out = Outcome::default();
    tally(&session, &reps, &mut out);

    if let Entry::Crowd { .. } = spec.entry {
        let reference = workloads::crowd_reference(spec, &session.inputs);
        if reference.positives != reps[0].run.positives || reference.scores != reps[0].run.scores {
            out.failures
                .push("positives or scores differ from the local one-shard reference run".into());
            out.failed = out.attempted;
        }
    }

    let column = |f: fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let mut after_yes = Vec::new();
    for rep in &reps {
        after_yes.extend(waits_ms(&rep.log.rounds()).0);
    }
    let after_yes = stats::sorted(after_yes);
    let (recall, precision) = quality(&reps[0], &session.inputs);
    let values: BTreeMap<&str, f64> = [
        ("setup_s", stats::median(&column(|r| r.setup_s))),
        ("session_wall_s", stats::median(&column(|r| r.wall_s))),
        ("session_cpu_s", stats::median(&column(|r| r.cpu_s))),
        ("wait_after_yes_p50_ms", stats::percentile(&after_yes, 50.0)),
        (
            "wait_after_yes_tail_ms",
            stats::percentile(&after_yes, spec.tail_pct),
        ),
        ("recall_at_budget", recall),
        ("precision_of_positives", precision),
        ("peak_rss_mb", procfs::peak_rss_mb()),
    ]
    .into_iter()
    .collect();
    out.metrics = END_TO_END
        .iter()
        .map(|d| (d.name, values[d.name], d.unit))
        .collect();

    out.notes = session.notes(reps.len());
    // The traced run reports these two as per-layer metrics.
    out.notes.extend([
        ("bench.loadgen_s".to_string(), session.loadgen_s, "s"),
        (
            "bench.host_threads".to_string(),
            host_threads() as f64,
            "count",
        ),
    ]);
    for (i, rep) in reps.iter().enumerate() {
        out.notes
            .push((format!("repetition_{}_wall_s", i + 1), rep.wall_s, "s"));
    }
    out.notes.extend([
        (
            "wait_after_yes_samples".to_string(),
            after_yes.len() as f64,
            "count",
        ),
        (
            "wait_after_yes_tail_percentile".to_string(),
            spec.tail_pct,
            "%",
        ),
        (
            "wait_after_yes_samples_beyond_tail".to_string(),
            stats::samples_beyond(after_yes.len(), spec.tail_pct) as f64,
            "count",
        ),
        (
            "trace_digest_low32".to_string(),
            (trace_digest(&reps[0].run) & 0xffff_ffff) as f64,
            "count",
        ),
    ]);
    if spec.append_batches() > 0 {
        out.notes.push((
            APPEND_STALL.name.to_string(),
            stats::median(&column(layers::append_stall_p50_ms)),
            APPEND_STALL.unit,
        ));
    }
    if !args.quick && stats::tail_percentile(after_yes.len()) < spec.tail_pct {
        out.warnings.push(format!(
            "{} pooled waits support p{} at most, the pinned tail is p{}",
            after_yes.len(),
            stats::tail_percentile(after_yes.len()),
            spec.tail_pct
        ));
    }
    out
}

/// The traced run: one traced session, its shadow replays, every
/// [`PER_LAYER`] metric, and (full-size runs) the spans written to
/// `target/session_bench/<workload>.trace.json`.
fn run_traced(spec: &Spec, args: &Args) -> Outcome {
    let session = Session::prepare(spec, args);
    // The reference the traced session is held against: same process,
    // tracing off.
    let reference = session.measure(0.0, 2);
    let mut out = Outcome::default();
    tally(&session, &reference, &mut out);

    let wire = Arc::new(Mutex::new(WireStats::default()));
    let mut probe = Probe::on();
    let rep = workloads::run_rep(spec, &session.inputs, &mut probe, Some(Arc::clone(&wire)));
    let mut tracer = probe.into_tracer().expect("the probe was switched on");

    let mut failures = check_rep(spec, &session.inputs, &rep, "traced session");
    if trace_digest(&rep.run) != trace_digest(&reference[0].run) {
        failures.push("traced session: trace digest differs from the untraced run's".into());
    }
    let (attempted, abandoned) = ops(&rep);
    out.attempted += attempted;
    out.failed += if failures.is_empty() {
        abandoned
    } else {
        attempted
    };
    out.failures.extend(failures);

    // The production loops call the oracle themselves: hang the wrapper's
    // stamps under the run call that made them. (The stepped loop spans
    // its own `ask` calls.)
    if spec.entry != Entry::Run {
        for call in &rep.log.calls {
            let (start, end) = call.interval();
            tracer.add_nested(call.span_name(), start, end);
        }
    }
    let replayed = replay::replay(spec, &session.inputs, &rep, &mut tracer);
    let snapshot_capture_ms =
        replay::replay_snapshot_capture(spec, &session.inputs, &rep, &mut tracer);

    let wire = wire
        .lock()
        .expect("a transport thread panicked while counting");
    let untraced_wall_s = stats::median(&reference.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let values = layers::per_layer(
        spec,
        &rep,
        &TraceInputs {
            tracer: &tracer,
            wire: &wire,
            replayed: &replayed,
            snapshot_capture_ms,
            loadgen_s: session.loadgen_s,
            host_threads: host_threads(),
            untraced_wall_s,
        },
    );
    out.metrics = PER_LAYER
        .iter()
        .map(|d| (d.name, values[d.name], d.unit))
        .collect();
    out.notes = session.notes(reference.len() + 1);

    // Deterministic self-checks are correctness; timing bands are advice.
    // (A smoke session lasts milliseconds, so the loop's own bookkeeping
    // between spans is a visible share of it: no closure floor there.)
    if !args.quick && values["bench.closure_frac"] < 0.95 {
        out.failures.push(format!(
            "bench.closure_frac {:.4} < 0.95: session time no span accounts for",
            values["bench.closure_frac"]
        ));
    }
    if !replayed.scores_match {
        out.failures
            .push("classifier replay ended with scores other than the session's".into());
    }
    if !args.quick {
        if values["bench.trace_overhead_frac"] > 0.05 {
            out.warnings.push(format!(
                "bench.trace_overhead_frac {:.4} > 0.05",
                values["bench.trace_overhead_frac"]
            ));
        }
        // Only the stepped loop brackets exactly the calls that fit.
        let ratio = values["bench.classifier_replay_ratio"];
        if spec.entry == Entry::Run && !(0.8..=1.2).contains(&ratio) {
            out.warnings.push(format!(
                "bench.classifier_replay_ratio {ratio:.4} outside 0.8–1.2"
            ));
        }
    }

    // A smoke run (the unit test, whose working directory is the crate's)
    // leaves no file behind.
    if args.quick {
        return out;
    }
    let dir = std::path::Path::new("target").join("session_bench");
    let path = dir.join(format!("{}.trace.json", spec.name));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json())) {
        Ok(()) => out.notes.push((
            format!("trace_spans:{}", path.display()),
            tracer.spans().len() as f64,
            "count",
        )),
        Err(e) => out
            .warnings
            .push(format!("could not write {}: {e}", path.display())),
    }
    out
}

fn run_workload(spec: &Spec, args: &Args) -> Result<Outcome, String> {
    let needed = spec.host_threads_needed();
    if !args.quick && host_threads() < needed {
        return Err(format!(
            "{} needs {needed} hardware threads to mean anything and this host has {}; \
             refusing to record flat numbers",
            spec.name,
            host_threads()
        ));
    }
    Ok(if args.trace {
        run_traced(spec, args)
    } else {
        run_end_to_end(spec, args)
    })
}

/// The `name value unit` lines of a child run, by name.
fn parse_metric_lines(stdout: &str) -> BTreeMap<String, f64> {
    stdout
        .lines()
        .filter_map(|line| {
            let mut parts = line.split_ascii_whitespace();
            let (name, value, _unit) = (parts.next()?, parts.next()?, parts.next()?);
            if parts.next().is_some() {
                return None;
            }
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Run one workload in a process of its own (so peak RSS and allocator
/// state are its alone), echo its output, and return its metric lines.
fn run_child(name: &str, args: &Args, trace: bool) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start the {name} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return Err(format!("{name} exited with {}", output.status));
    }
    Ok(parse_metric_lines(&stdout))
}

/// `--all`: every workload, untraced then traced, each in its own process.
fn run_all(args: &Args) -> Result<(), String> {
    let mut failed = Vec::new();
    for spec in workloads::specs(args.quick) {
        for trace in [false, true] {
            println!("== {} (trace {}) ==", spec.name, u8::from(trace));
            if let Err(e) = run_child(spec.name, args, trace) {
                failed.push(e);
            }
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(failed.join("; "))
    }
}

/// Whether an A/A pair of an end-to-end metric agrees: counts and quality
/// must repeat exactly, timings within the metric's bound.
fn pair_agrees(def: &MetricDef, a: f64, b: f64) -> bool {
    match def.unit {
        "fraction" | "count" => a == b,
        _ => (a - b).abs() <= def.bound * a.min(b),
    }
}

/// `--check`: every workload twice at the same seed; per end-to-end metric
/// both values, their relative difference and the bound.
fn run_check(args: &Args) -> Result<(), String> {
    let mut disagreements = Vec::new();
    for spec in workloads::specs(args.quick) {
        println!("== {} A ==", spec.name);
        let a = run_child(spec.name, args, false)?;
        println!("== {} B ==", spec.name);
        let b = run_child(spec.name, args, false)?;
        println!("== {} A/A ==", spec.name);
        println!("metric A B rel_diff bound verdict");
        // Only a workload that appends reports the ninth metric.
        let stall = (spec.append_batches() > 0).then_some(&APPEND_STALL);
        for def in END_TO_END.iter().chain(stall) {
            let (va, vb) = (a[def.name], b[def.name]);
            let rel = if va.min(vb) > 0.0 {
                (va - vb).abs() / va.min(vb)
            } else {
                0.0
            };
            // `peak_rss_mb` carries no timing bound under `--quick` either,
            // but it is a plain reading and stays within its bound.
            let ok = (args.quick && def.unit != "fraction") || pair_agrees(def, va, vb);
            println!(
                "{} {va} {vb} {rel:.4} {} {}",
                def.name,
                def.bound,
                if ok { "ok" } else { "DISAGREES" }
            );
            if !ok {
                disagreements.push(format!("{}:{}", spec.name, def.name));
            }
        }
        // The repetition count follows the clock, so operations are held
        // to agree per repetition.
        let per_rep = |m: &BTreeMap<String, f64>| m["ops_attempted"] / m["bench.repetitions"];
        let counts = [
            ("ops_per_repetition", per_rep(&a), per_rep(&b)),
            ("ops_failed", a["ops_failed"], b["ops_failed"]),
            (
                "trace_digest_low32",
                a["trace_digest_low32"],
                b["trace_digest_low32"],
            ),
        ];
        for (count, va, vb) in counts {
            if va != vb {
                println!("{count} {va} {vb} DISAGREES");
                disagreements.push(format!("{}:{count}", spec.name));
            }
        }
    }
    if disagreements.is_empty() {
        println!("A/A check passed");
        Ok(())
    } else {
        Err(format!("A/A disagreement on {}", disagreements.join(", ")))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.all {
        run_all(&args)
    } else if args.check {
        run_check(&args)
    } else {
        let name = args.workload.as_deref().expect("one mode is always set");
        match workloads::specs(args.quick)
            .into_iter()
            .find(|s| s.name == name)
        {
            None => Err(format!("no workload called {name}")),
            Some(spec) => run_workload(&spec, &args).and_then(|outcome| {
                println!(
                    "NOTE --seed {} is recorded only: every run labels the corpus of generator seed {CORPUS_SEED}",
                    args.seed
                );
                outcome.print();
                if outcome.correct() {
                    Ok(())
                } else {
                    Err(format!("{name}: {}", outcome.failures.join("; ")))
                }
            }),
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("session_bench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse_args(&argv(
            "--workload crowd_tcp --seed 7 --seconds 20 --trace 0",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("crowd_tcp"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, false));
        let a = parse_args(&argv("--workload crowd_tcp --trace 1")).unwrap();
        assert!(a.trace);
        let a = parse_args(&argv("--workload crowd_tcp --trace --quick")).unwrap();
        assert!(a.trace && a.quick);
        assert!(parse_args(&argv("--workload x --all")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload x --bogus")).is_err());
    }

    /// `BENCHMARK.json` lists exactly the workloads and metrics this
    /// program reports, in its order, with its units, bounds and run length.
    /// The contract has no key for a workload's recall floor and pinned tail
    /// percentile, so each `why` ends with them.
    #[test]
    fn benchmark_json_matches_the_tables_reported_from() {
        let file = include_str!("../../../../../BENCHMARK.json");
        let mut expected = Vec::new();
        for spec in workloads::specs(false) {
            expected.push((
                spec.name,
                format!(
                    "(recall floor {}, tail p{})\"}}",
                    spec.recall_floor, spec.tail_pct
                ),
            ));
        }
        for d in END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25);
            expected.push((d.name, format!("\"bound\": {}}}", d.bound)));
        }
        for d in PER_LAYER {
            expected.push((d.name, "}".into()));
        }
        let listed: Vec<&str> = file
            .lines()
            .map(|l| l.trim().trim_end_matches(','))
            .filter(|l| l.starts_with("{\"name\""))
            .collect();
        assert_eq!(listed.len(), expected.len());
        for (line, (name, end)) in listed.iter().zip(&expected) {
            assert!(
                line.starts_with(&format!("{{\"name\": \"{name}\", ")) && line.ends_with(end),
                "{line} is not {name} … {end}"
            );
        }
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let unit = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
            assert!(file.contains(&unit), "{unit}");
        }
        assert!(file.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS},")));
    }

    #[test]
    fn child_output_round_trips_through_the_line_parser() {
        let out = Outcome {
            metrics: vec![
                ("setup_s", 0.25, "s"),
                ("recall_at_budget", 1.0, "fraction"),
            ],
            attempted: 300,
            ..Outcome::default()
        };
        let lines = "bench.host_threads 2 count\nsetup_s 0.25 s\nWARN a b c d\n\
                     ops_attempted 300 count\n{\"correct\": true}\n";
        let parsed = parse_metric_lines(lines);
        assert_eq!(parsed["setup_s"], 0.25);
        assert_eq!(parsed["ops_attempted"], 300.0);
        assert!(!parsed.contains_key("WARN"));
        assert_eq!(
            out.json(),
            "{\"correct\": true, \"attempted\": 300, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"recall_at_budget\": {\"value\": 1, \"unit\": \"fraction\"}}}"
        );
    }

    #[test]
    fn aa_pairs_hold_counts_exact_and_timings_to_their_bound() {
        let wall = &END_TO_END[1];
        assert_eq!(wall.name, "session_wall_s");
        assert!(pair_agrees(wall, 10.0, 10.0 * (1.0 + wall.bound) - 0.01));
        assert!(!pair_agrees(wall, 10.0, 10.0 * (1.0 + wall.bound) + 0.01));
        let recall = END_TO_END
            .iter()
            .find(|d| d.name == "recall_at_budget")
            .unwrap();
        assert!(pair_agrees(recall, 0.978, 0.978));
        assert!(!pair_agrees(recall, 0.978, 0.979));
    }

    /// The smoke preset: every workload path, untraced and traced, on 2k
    /// sentences with one repetition — all correctness checks on, no
    /// timing bounds.
    #[test]
    fn quick_preset_runs_every_workload_correctly() {
        let args = |trace| Args {
            quick: true,
            trace,
            ..parse_args(&argv("--all")).unwrap()
        };
        for spec in workloads::specs(true) {
            let e2e = run_workload(&spec, &args(false)).unwrap();
            assert!(e2e.correct(), "{}: {:?}", spec.name, e2e.failures);
            assert_eq!(e2e.metrics.len(), END_TO_END.len());
            assert!(e2e.attempted >= 1 && e2e.failed == 0);
            for (name, value, _) in &e2e.metrics {
                // A 2k-sentence session can run out of YES rounds that are
                // followed by another question, and can finish inside one
                // 10 ms CPU tick; everything else is positive.
                let may_be_zero = name.starts_with("wait_after_yes") || *name == "session_cpu_s";
                assert!(
                    *value > 0.0 || (may_be_zero && *value == 0.0),
                    "{}: {name} reads {value}",
                    spec.name
                );
            }

            let traced = run_workload(&spec, &args(true)).unwrap();
            assert!(traced.correct(), "{}: {:?}", spec.name, traced.failures);
            assert_eq!(traced.metrics.len(), PER_LAYER.len());
            let value = |n: &str| traced.metrics.iter().find(|m| m.0 == n).unwrap().1;
            assert!(value("classifier.fit_count") >= 1.0);
            assert_eq!(value("bench.classifier_replay_exact"), 1.0);
            assert!(value("bench.closure_frac") > 0.5);
            match spec.entry {
                Entry::Run => assert!(value("core.engine.select_count") >= 1.0),
                Entry::Stream { .. } => {
                    assert_eq!(value("core.stream.append_count"), 16.0);
                    assert!(value("index.append_s") > 0.0);
                }
                Entry::Crowd { .. } => {
                    assert!(value("wire.round_trips") >= 1.0);
                    assert!(value("core.shard.connects") >= 2.0);
                }
            }
        }
    }
}
