//! Pipeline configuration.

use crate::batch::BatchPolicy;
use darwin_classifier::ClassifierKind;

/// Which hierarchy-traversal strategy selects the next question
/// (paper §3.3–3.6).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraversalKind {
    /// Algorithm 3 — explore the neighborhood of accepted rules.
    Local,
    /// Algorithm 4 — pick the globally most beneficial candidate.
    Universal,
    /// Algorithm 5 — toggle between the two after `tau` failures.
    Hybrid,
}

impl TraversalKind {
    /// Display name used in experiment reports and figures.
    pub fn name(self) -> &'static str {
        match self {
            TraversalKind::Local => "Darwin(LS)",
            TraversalKind::Universal => "Darwin(US)",
            TraversalKind::Hybrid => "Darwin(HS)",
        }
    }
}

/// How requests to remote shard workers are driven. Replies fold in fixed
/// shard order under both settings, so the knob never changes a run's
/// output — only how many round-trip latencies a broadcast costs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Fanout {
    /// One blocking round trip per shard, in shard order: `S` shards
    /// cost `S` round trips. The reference wire trace.
    Sequential,
    /// Issue every shard's request first, then join the replies in the
    /// same fixed shard order: the `S` round trips overlap into roughly
    /// one. Byte-identical traces to `Sequential` — the requests, the
    /// replies and the fold order are all unchanged.
    #[default]
    Concurrent,
}

/// All knobs of the Darwin pipeline, with paper defaults.
#[derive(Clone, Debug)]
pub struct DarwinConfig {
    /// Oracle query budget `b`.
    pub budget: usize,
    /// Candidate pool size `k` per hierarchy generation (paper: 10K,
    /// Figure 13 sweeps {5K, 10K, 20K}).
    pub n_candidates: usize,
    /// Traversal strategy (paper recommendation: Hybrid).
    pub traversal: TraversalKind,
    /// HybridSearch switch parameter τ (paper default: 5; Figure 12a
    /// sweeps {3,5,7,9}).
    pub tau: usize,
    /// Benefit classifier. The paper trains the Kim CNN; logistic
    /// regression is the fast ablation and the default here so that broad
    /// experiment sweeps stay cheap — pass `ClassifierKind::cnn()` for the
    /// paper configuration.
    pub classifier: ClassifierKind,
    /// UniversalSearch prunes candidates whose benefit-per-instance is
    /// below this (Algorithm 4 line 8; paper: 0.5).
    pub benefit_threshold: f64,
    /// How many presumed negatives to sample per positive when training.
    pub neg_per_pos: usize,
    /// Floor on the sampled negative count.
    pub min_negatives: usize,
    /// Use the §4.5 selective re-scoring optimization: between full passes
    /// (every third retrain), a retrain re-scores only the sentences whose
    /// previous score reached the cache threshold, and the rest keep their
    /// stale scores. This is *semantic*, not a pure perf knob: flipping it
    /// asks a different question sequence and ends with different scores.
    /// That is why [`crate::snapshot::config_fingerprint`] keeps it and the
    /// efficiency experiment (`darwin_bench::experiments::efficiency`)
    /// compares the two settings.
    pub incremental_scoring: bool,
    /// Warm-start classifier retraining: keep the per-sentence feature
    /// arenas and optimizer allocations alive across the pipeline's
    /// retrain epochs, and skip refits whose training set is unchanged.
    /// Pure buffer reuse — trained weights (and therefore traces) are
    /// bit-identical to cold starts; `false` keeps the from-scratch
    /// reference path alive for the equivalence proof.
    pub warm_start: bool,
    /// Worker threads — the one local parallelism axis: score refreshes
    /// and benefit-aggregate tracking/rebuilds split their work into this
    /// many contiguous chunks (1 = sequential).
    pub threads: usize,
    /// Remote shard workers ([`crate::Darwin::with_remote_shards`]):
    /// sentence ids are partitioned into this many contiguous ranges, each
    /// with its benefit-aggregate fragments in one worker; selection merges
    /// the per-shard fragments exactly (fixed-point sums), so every shard
    /// count selects the identical question sequence. A local run keeps one
    /// full-span store and ignores this, as it ignores `fanout`.
    pub shards: usize,
    /// How the question loop sizes its waves of in-flight oracle
    /// questions under the async entry points
    /// ([`crate::Darwin::run_async`], `snapshot`/`resume`,
    /// [`crate::StreamSession`]): every wave holds up to `k` questions
    /// (see [`BatchPolicy`]).
    /// `Fixed(1)` — the default — asks one question at a time;
    /// [`crate::Darwin::run`] and `run_with` always do, whatever this
    /// says.
    pub batch: BatchPolicy,
    /// How remote-shard broadcasts are driven (see [`Fanout`]); ignored
    /// by purely local runs.
    pub fanout: Fanout,
    /// Candidates covering more than this fraction of the corpus are never
    /// generated: on the paper's imbalanced tasks (1–12% positive) such
    /// rules cannot clear the 0.8-precision bar, and asking them wastes
    /// oracle budget (part of the §3.2.1 diversity constraints).
    pub max_coverage_frac: f64,
    /// RNG seed (negative sampling, tie-breaking).
    pub seed: u64,
}

impl Default for DarwinConfig {
    fn default() -> Self {
        DarwinConfig {
            budget: 100,
            n_candidates: 10_000,
            traversal: TraversalKind::Hybrid,
            tau: 5,
            classifier: ClassifierKind::logreg(),
            benefit_threshold: 0.5,
            neg_per_pos: 3,
            min_negatives: 50,
            incremental_scoring: true,
            warm_start: true,
            threads: 1,
            shards: 1,
            batch: BatchPolicy::Fixed(1),
            fanout: Fanout::default(),
            max_coverage_frac: 0.4,
            seed: 42,
        }
    }
}

impl DarwinConfig {
    /// Small-scale configuration for tests and doc examples.
    pub fn fast() -> DarwinConfig {
        DarwinConfig {
            budget: 20,
            n_candidates: 500,
            ..Default::default()
        }
    }

    /// The paper's configuration: Kim CNN benefit classifier, 10K
    /// candidates, HybridSearch.
    pub fn paper() -> DarwinConfig {
        DarwinConfig {
            classifier: ClassifierKind::cnn(),
            ..Default::default()
        }
    }

    /// Replace the traversal strategy.
    pub fn with_traversal(mut self, t: TraversalKind) -> Self {
        self.traversal = t;
        self
    }

    /// Replace the oracle query budget.
    pub fn with_budget(mut self, b: usize) -> Self {
        self.budget = b;
        self
    }

    /// Replace the RNG seed.
    pub fn with_seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Replace the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Replace the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Toggle warm-start classifier retraining.
    pub fn with_warm_start(mut self, on: bool) -> Self {
        self.warm_start = on;
        self
    }

    /// Replace the async wave-sizing policy.
    pub fn with_batch(mut self, policy: BatchPolicy) -> Self {
        self.batch = policy;
        self
    }

    /// Replace the remote-shard fan-out discipline.
    pub fn with_fanout(mut self, fanout: Fanout) -> Self {
        self.fanout = fanout;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DarwinConfig::default();
        assert_eq!(c.n_candidates, 10_000);
        assert_eq!(c.tau, 5);
        assert_eq!(c.benefit_threshold, 0.5);
        assert_eq!(c.traversal, TraversalKind::Hybrid);
    }

    #[test]
    fn builder_helpers() {
        let c = DarwinConfig::fast()
            .with_traversal(TraversalKind::Local)
            .with_budget(7)
            .with_seed(9);
        assert_eq!(c.traversal, TraversalKind::Local);
        assert_eq!(c.budget, 7);
        assert_eq!(c.seed, 9);
    }

    #[test]
    fn batch_default_is_sequential() {
        assert_eq!(DarwinConfig::default().batch, BatchPolicy::Fixed(1));
        let c = DarwinConfig::fast().with_batch(BatchPolicy::Fixed(16));
        assert_eq!(c.batch.max_in_flight(), 16);
        assert_eq!(BatchPolicy::Fixed(0).max_in_flight(), 1);
    }

    #[test]
    fn traversal_names() {
        assert_eq!(TraversalKind::Hybrid.name(), "Darwin(HS)");
        assert_eq!(TraversalKind::Local.name(), "Darwin(LS)");
        assert_eq!(TraversalKind::Universal.name(), "Darwin(US)");
    }
}
