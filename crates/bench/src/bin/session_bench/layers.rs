//! The benchmark's metric names, and how the per-layer numbers are read
//! off the traced repetition.
//!
//! Every per-layer value is a timing or count taken around a public call
//! (a span), read from a public accessor, or counted by a forwarding
//! wrapper. A layer a workload does not exercise reads 0.

use crate::replay::Replayed;
use crate::spans::Tracer;
use crate::stats::{percentile, sorted};
use crate::timed::{waits_ms, WireStats};
use crate::workloads::{Entry, Rep, Spec};
use std::collections::BTreeMap;

/// One metric of `BENCHMARK.json`, which also says which way is better.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median an end-to-end metric may worsen by.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef { name, unit, bound }
}

const fn layer(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        bound: 0.0,
    }
}

/// What a user of the system sees. Every workload reports every one.
///
/// A bound is per metric, so it has to hold on the metric's noisiest
/// workload, and the driver accepts it only if the quartile spread of ten
/// runs of unchanged code stays inside it (it asks for a third of it). The
/// README's "Noise" tables give that spread for every workload × metric;
/// the worst of each timing over three sweeps is 28 % `setup_s`, 15 %
/// `session_wall_s`, 14 % `session_cpu_s`, 20 % `wait_after_yes_p50_ms`,
/// 17 % `wait_after_yes_tail_ms` — a host whose speed drifts by 20 % over
/// minutes, which no run length averages out. Hence 0.25, the most the
/// contract allows, on the timings, and the issue's 0.10 on memory
/// (spread under 1 %).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", 0.25),
    e2e("session_wall_s", "s", 0.25),
    e2e("session_cpu_s", "s", 0.25),
    e2e("wait_after_yes_p50_ms", "ms", 0.25),
    e2e("wait_after_yes_tail_ms", "ms", 0.25),
    e2e("recall_at_budget", "fraction", 0.01),
    e2e("precision_of_positives", "fraction", 0.01),
    e2e("peak_rss_mb", "MB", 0.1),
];

/// The issue's ninth end-to-end metric. Only `stream_ingest` appends, and
/// the contract wants every listed metric from every workload and never 0,
/// so `BENCHMARK.json` cannot list it: the untraced `stream_ingest` run
/// prints it and `--check` holds it to this bound. (The traced run reports
/// it as `core.stream.append_stall_p50_ms`.)
pub const APPEND_STALL: MetricDef = e2e("append_stall_p50_ms", "ms", 0.25);

/// Single-layer numbers from the traced run, grouped by the repo's modules.
pub const PER_LAYER: &[MetricDef] = &[
    layer("text.analyze_s", "s"),
    layer("text.analyze_sentences_per_s", "1/s"),
    layer("text.embed_train_s", "s"),
    layer("text.append_s", "s"),
    layer("text.rss_delta_mb", "MB"),
    layer("index.build_s", "s"),
    layer("index.build_sentences_per_s", "1/s"),
    layer("index.rules", "count"),
    layer("index.append_s", "s"),
    layer("index.append_sentences_per_s", "1/s"),
    layer("index.rss_delta_mb", "MB"),
    layer("classifier.fit_s", "s"),
    layer("classifier.fit_count", "count"),
    layer("classifier.fit_examples", "count"),
    layer("classifier.fit_p50_ms", "ms"),
    layer("classifier.refresh_s", "s"),
    layer("classifier.refresh_full_count", "count"),
    layer("classifier.refresh_journal_count", "count"),
    layer("classifier.refresh_full_p50_ms", "ms"),
    layer("classifier.refresh_rescored_frac", "fraction"),
    layer("core.engine.new_s", "s"),
    layer("core.engine.select_s", "s"),
    layer("core.engine.select_count", "count"),
    layer("core.engine.select_p50_us", "us"),
    layer("core.engine.record_s", "s"),
    layer("core.engine.yes_count", "count"),
    layer("core.engine.new_positives", "count"),
    layer("core.engine.retrain_and_sync_s", "s"),
    layer("core.engine.retrain_p50_ms", "ms"),
    layer("core.engine.regen_hierarchy_s", "s"),
    layer("core.engine.regen_p50_ms", "ms"),
    layer("core.engine.hierarchy_rules", "count"),
    layer("core.traversal.feedback_s", "s"),
    layer("core.frontier.generations", "count"),
    layer("core.frontier.full_rebuilds", "count"),
    layer("core.frontier.deltas_by_postings", "count"),
    layer("core.frontier.deltas_by_intersection", "count"),
    layer("core.frontier.fresh_nodes", "count"),
    layer("core.oracle.wait_s", "s"),
    layer("core.oracle.questions", "count"),
    layer("core.oracle.gap_after_no_p50_us", "us"),
    layer("core.batch.waves", "count"),
    layer("core.batch.retrains", "count"),
    layer("core.batch.peak_in_flight", "count"),
    layer("core.batch.abandoned", "count"),
    layer("core.batch.fill_s", "s"),
    layer("core.batch.barrier_s", "s"),
    layer("core.shard.connects", "count"),
    layer("wire.round_trips", "count"),
    layer("wire.bytes_sent", "count"),
    layer("wire.bytes_received", "count"),
    layer("wire.recv_wait_s", "s"),
    layer("wire.rtt_p50_us", "us"),
    layer("core.snapshot.capture_ms", "ms"),
    layer("core.snapshot.bytes", "count"),
    layer("core.snapshot.resume_ms", "ms"),
    layer("core.stream.drive_s", "s"),
    layer("core.stream.append_s", "s"),
    layer("core.stream.append_count", "count"),
    layer("core.stream.appended_sentences", "count"),
    layer("core.stream.append_sentences_per_s", "1/s"),
    layer("core.stream.append_stall_p50_ms", "ms"),
    layer("core.stream.reconcile_s", "s"),
    layer("core.stream.append_cost_last_over_first", "ratio"),
    layer("bench.loadgen_s", "s"),
    layer("bench.host_threads", "count"),
    layer("bench.session_wall_traced_s", "s"),
    layer("bench.closure_frac", "fraction"),
    layer("bench.trace_overhead_frac", "fraction"),
    layer("bench.classifier_replay_ratio", "ratio"),
    layer("bench.classifier_replay_exact", "count"),
];

/// Spans around the production run calls of the async entry points; the
/// oracle wrapper's calls are attached under them.
pub const RUN_CALL_SPANS: &[&str] = &[
    "core.stream.drive",
    "core.snapshot.drive_to_barrier",
    "core.snapshot.resume_and_drive",
];

/// What the traced run hands to [`per_layer`] besides the repetition.
pub struct TraceInputs<'a> {
    pub tracer: &'a Tracer,
    pub wire: &'a WireStats,
    pub replayed: &'a Replayed,
    /// `Snapshot::capture` timed on an engine resumed from the session's
    /// own snapshot, milliseconds (0 when the session made no hop).
    pub snapshot_capture_ms: f64,
    pub loadgen_s: f64,
    pub host_threads: usize,
    /// Median session wall of the untraced repetitions of the same process.
    pub untraced_wall_s: f64,
}

/// `numerator / denominator`, reading 0 where the denominator is not
/// positive (a rate over no time, a share of nothing).
fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

fn p50(samples: Vec<f64>) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// Every [`PER_LAYER`] metric of the traced repetition `rep`.
pub fn per_layer(spec: &Spec, rep: &Rep, t: &TraceInputs<'_>) -> BTreeMap<&'static str, f64> {
    let tr = t.tracer;
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();
    let mut set = |name: &'static str, value: f64| {
        let slot = m.get_mut(name).expect("metric is declared in PER_LAYER");
        // An empty f64 sum is -0.0; adding 0.0 prints it as plain 0.
        *slot = value + 0.0;
    };
    let base = spec.base_sentences as f64;

    // darwin-text, darwin-index
    let analyze_s = tr.total_s("text.analyze");
    let build_s = tr.total_s("index.build");
    set("text.analyze_s", analyze_s);
    set("text.analyze_sentences_per_s", ratio(base, analyze_s));
    set("text.embed_train_s", tr.total_s("text.embed_train"));
    set("text.append_s", tr.total_s("text.append"));
    set(
        "text.rss_delta_mb",
        rep.observed.rss_mb[1] - rep.observed.rss_mb[0],
    );
    set("index.build_s", build_s);
    set("index.build_sentences_per_s", ratio(base, build_s));
    set("index.rules", rep.observed.index_rules as f64);
    let appended: usize = rep.appends.iter().map(|a| a.sentences).sum();
    let index_append_s = tr.total_s("index.append");
    set("index.append_s", index_append_s);
    set(
        "index.append_sentences_per_s",
        ratio(appended as f64, index_append_s),
    );
    set(
        "index.rss_delta_mb",
        rep.observed.rss_mb[2] - rep.observed.rss_mb[1],
    );

    // darwin-classifier (shadow replay)
    let fit_s = tr.total_s("classifier.fit");
    let refresh_s = tr.total_s("classifier.refresh");
    set("classifier.fit_s", fit_s);
    set("classifier.fit_count", tr.count("classifier.fit") as f64);
    set("classifier.fit_examples", t.replayed.fit_examples as f64);
    set(
        "classifier.fit_p50_ms",
        p50(tr.durations_ms("classifier.fit")),
    );
    set("classifier.refresh_s", refresh_s);
    set(
        "classifier.refresh_full_count",
        t.replayed.full_refresh_ms.len() as f64,
    );
    set(
        "classifier.refresh_journal_count",
        t.replayed.refresh_journal as f64,
    );
    set(
        "classifier.refresh_full_p50_ms",
        p50(t.replayed.full_refresh_ms.clone()),
    );
    set(
        "classifier.refresh_rescored_frac",
        ratio(
            t.replayed.rescored as f64,
            t.replayed.refresh_universe as f64,
        ),
    );

    // core.engine / core.traversal
    let rounds = rep.log.rounds();
    let (after_yes, after_no) = waits_ms(&rounds);
    let yes_steps = rep.run.trace.iter().filter(|s| s.answer).count();
    let new_positives: usize = rep.run.trace.iter().map(|s| s.new_positive_ids.len()).sum();
    set("core.engine.yes_count", yes_steps as f64);
    set("core.engine.new_positives", new_positives as f64);
    match spec.entry {
        Entry::Run => {
            set("core.engine.new_s", tr.total_s("core.engine.new"));
            set("core.engine.select_s", tr.total_s("core.engine.select"));
            set(
                "core.engine.select_count",
                tr.count("core.engine.select") as f64,
            );
            set(
                "core.engine.select_p50_us",
                p50(tr.durations_ms("core.engine.select")) * 1e3,
            );
            set("core.engine.record_s", tr.total_s("core.engine.record"));
            set(
                "core.engine.retrain_and_sync_s",
                tr.total_s("core.engine.retrain_and_sync"),
            );
            set(
                "core.engine.retrain_p50_ms",
                p50(tr.durations_ms("core.engine.retrain_and_sync")),
            );
            set(
                "core.engine.regen_hierarchy_s",
                tr.total_s("core.engine.regen_hierarchy"),
            );
            set(
                "core.engine.regen_p50_ms",
                p50(tr.durations_ms("core.engine.regen_hierarchy")),
            );
            set(
                "core.traversal.feedback_s",
                tr.total_s("core.traversal.feedback"),
            );
        }
        // The production loop owns the engine: all that is visible from
        // outside is the stretch from the run call to the first question,
        // which is engine construction (remote `ShardInit` included) plus
        // the first select.
        Entry::Stream { .. } | Entry::Crowd { .. } => {
            let run_call = tr
                .spans()
                .iter()
                .find(|s| RUN_CALL_SPANS.contains(&s.name))
                .map_or(0, |s| s.start_ns);
            let first_question = tr.ns(rep.session_start);
            set(
                "core.engine.new_s",
                first_question.saturating_sub(run_call) as f64 / 1e9,
            );
        }
    }
    set(
        "core.engine.hierarchy_rules",
        rep.observed.hierarchy_rules as f64,
    );
    if let Some(f) = rep.observed.frontier {
        set("core.frontier.generations", f.generations as f64);
        set("core.frontier.full_rebuilds", f.full_rebuilds as f64);
        set(
            "core.frontier.deltas_by_postings",
            f.deltas_by_postings as f64,
        );
        set(
            "core.frontier.deltas_by_intersection",
            f.deltas_by_intersection as f64,
        );
        set("core.frontier.fresh_nodes", f.fresh_nodes as f64);
    }

    // core.oracle, core.batch
    set("core.oracle.wait_s", rep.log.wait_s());
    set("core.oracle.questions", rep.run.questions() as f64);
    set(
        "core.oracle.gap_after_no_p50_us",
        p50(after_no.clone()) * 1e3,
    );
    if let Some(report) = &rep.report {
        set("core.batch.waves", report.waves as f64);
        set("core.batch.retrains", report.retrains as f64);
        set("core.batch.peak_in_flight", report.peak_in_flight as f64);
        set("core.batch.abandoned", report.abandoned as f64);
        let fill_s: f64 = rounds
            .iter()
            .map(|r| (r.last_handout - r.first_handout).as_secs_f64())
            .sum();
        set("core.batch.fill_s", fill_s);
        let barrier_ms: f64 = after_yes.iter().chain(&after_no).sum();
        set("core.batch.barrier_s", barrier_ms / 1e3);
    }

    // core.shard + darwin-wire
    set("core.shard.connects", t.wire.connects as f64);
    set("wire.round_trips", t.wire.round_trips as f64);
    set("wire.bytes_sent", t.wire.bytes_sent as f64);
    set("wire.bytes_received", t.wire.bytes_received as f64);
    set("wire.recv_wait_s", t.wire.recv_wait_ns as f64 / 1e9);
    set("wire.rtt_p50_us", p50(t.wire.rtts_us.clone()));

    // core.snapshot
    set("core.snapshot.capture_ms", t.snapshot_capture_ms);
    set("core.snapshot.bytes", rep.snapshot.len() as f64);
    if let Some(resume) = tr
        .spans()
        .iter()
        .find(|s| s.name == "core.snapshot.resume_and_drive")
    {
        // `resume` call → the first question it hands out: decode,
        // validate, rebuild the engine, re-attach the workers, select.
        let first_after = rounds
            .iter()
            .map(|r| tr.ns(r.first_handout))
            .find(|&at| at >= resume.start_ns)
            .unwrap_or(resume.end_ns);
        set(
            "core.snapshot.resume_ms",
            (first_after - resume.start_ns) as f64 / 1e6,
        );
    }

    // core.stream
    let append_s = tr.total_s("core.stream.append");
    set("core.stream.drive_s", tr.total_s("core.stream.drive"));
    set("core.stream.append_s", append_s);
    set("core.stream.append_count", rep.appends.len() as f64);
    set("core.stream.appended_sentences", appended as f64);
    set(
        "core.stream.append_sentences_per_s",
        ratio(appended as f64, append_s),
    );
    set("core.stream.append_stall_p50_ms", append_stall_p50_ms(rep));
    if !rep.appends.is_empty() {
        set(
            "core.stream.reconcile_s",
            append_s - tr.total_s("text.append") - index_append_s,
        );
        let per_sentence =
            |a: &crate::workloads::AppendObs| a.stall.as_secs_f64() / a.sentences.max(1) as f64;
        let (first, last) = (&rep.appends[0], &rep.appends[rep.appends.len() - 1]);
        set(
            "core.stream.append_cost_last_over_first",
            ratio(per_sentence(last), per_sentence(first)),
        );
    }

    // bench self-checks
    set("bench.loadgen_s", t.loadgen_s);
    set("bench.host_threads", t.host_threads as f64);
    set("bench.session_wall_traced_s", rep.wall_s);
    set(
        "bench.closure_frac",
        tr.closure_frac(rep.session_start, rep.session_end),
    );
    set(
        "bench.trace_overhead_frac",
        ratio(rep.wall_s, t.untraced_wall_s) - 1.0,
    );
    // What the replay timed ÷ the session time the fits happened in. The
    // stepped loop sees the calls that fit (`Engine::new`'s first fit and
    // every `retrain_and_sync`), so there the ratio should sit near 1. From
    // outside the production loops only the run calls' self time is
    // visible — oracle calls and wire waits taken out — and that also
    // holds selection, regeneration, `ShardInit` and the resume, so there
    // the ratio reads as the classifier's share of the coordinator's work.
    let barrier_s = match spec.entry {
        Entry::Run => tr.total_s("core.engine.retrain_and_sync") + tr.total_s("core.engine.new"),
        _ => {
            let run_calls: f64 = tr
                .spans()
                .iter()
                .enumerate()
                .filter(|(_, s)| RUN_CALL_SPANS.contains(&s.name))
                .map(|(id, _)| tr.self_time_ns(id) as f64 / 1e9)
                .sum();
            run_calls - t.wire.recv_wait_ns as f64 / 1e9
        }
    };
    set(
        "bench.classifier_replay_ratio",
        ratio(fit_s + refresh_s, barrier_s),
    );
    set(
        "bench.classifier_replay_exact",
        f64::from(u8::from(t.replayed.scores_match)),
    );
    m
}

/// Median time one `StreamSession::append` blocked the session, ms.
pub fn append_stall_p50_ms(rep: &Rep) -> f64 {
    p50(rep
        .appends
        .iter()
        .map(|a| a.stall.as_secs_f64() * 1e3)
        .collect())
}
