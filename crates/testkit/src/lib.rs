//! Shared test harness for the Darwin integration suites.
//!
//! Every integration file used to carry its own copy of the same corpus
//! builders, index configurations, oracle doubles and trace-comparison
//! assertions; this crate is the one home for all of them:
//!
//! * [`corpora`] — deterministic corpus/index fixtures, from the
//!   6-sentence transport corpus up to sized `directions` datasets;
//! * [`oracles`] — test doubles: [`ScriptedOracle`] (canned answers) and
//!   [`NoisyOracle`] (ground truth with seeded answer flips);
//! * [`trace`] — the stepped sequential reference run
//!   ([`step_reference`]), which audits every delta-maintained structure
//!   against its from-scratch function as it goes, and trace-capture
//!   assertions: byte-for-byte run equivalence, final-state equality,
//!   candidate-pool equality;
//! * [`strategies`] — proptest generators for random corpora;
//! * [`transports`] — wire-boundary doubles: the fault-injecting
//!   [`FlakyTransport`] and worker-deployment helpers for distributed
//!   suites;
//! * [`crash`] — the [`CrashPlan`] crash-recovery fault injector and the
//!   snapshot corruption fuzzer for the durable-session suites;
//! * [`TestEnv`] — the CI matrix (`DARWIN_TEST_TRANSPORT`,
//!   `DARWIN_TEST_THREADS`, `DARWIN_TEST_BATCH`, `DARWIN_TEST_CRASH_AT`)
//!   parsed once, composed into suite configurations — suites never
//!   re-parse env vars themselves.
//!
//! This is a dev-dependency only: nothing here ships in the library.

#![warn(missing_docs)]

pub mod corpora;
pub mod crash;
pub mod oracles;
pub mod strategies;
pub mod trace;
pub mod transports;

pub use corpora::{directions_fixture, indexed, tiny_transport, transport};
pub use crash::{assert_resumed_equivalent, snapshot_mutants, CrashPlan, Mutant};
pub use oracles::{NoisyOracle, ScriptedOracle};
pub use trace::{
    assert_equivalent, assert_same_final, assert_same_pool, step_reference, step_reference_with,
};
pub use transports::{
    inproc_shards, shard_connector, test_transport, wire_oracle, worker_bin, Fault, FlakyTransport,
    TransportKind,
};

use darwin_core::{BatchPolicy, DarwinConfig};

/// The CI matrix configuration, parsed from the environment exactly once
/// and composed into suite configs — the single home for every
/// `DARWIN_TEST_*` axis, so adding an axis (as `DARWIN_TEST_CRASH_AT`
/// did) touches this struct instead of every suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TestEnv {
    /// How distributed suites deploy workers (`DARWIN_TEST_TRANSPORT`:
    /// `inproc` default, `proc`, `tcp`).
    pub transport: TransportKind,
    /// Worker-thread count (`DARWIN_TEST_THREADS`, default 1; the matrix
    /// runs 1 and 4). Trace determinism across thread counts is part of
    /// the engine contract.
    pub threads: usize,
    /// Async wave size (`DARWIN_TEST_BATCH`, default 1; the matrix runs
    /// 1 and 8). Size 1 is the synchronous reference.
    pub batch: usize,
    /// Restrict crash-recovery suites to killing at this one wave
    /// barrier (`DARWIN_TEST_CRASH_AT`; unset = every barrier). Feeds
    /// [`CrashPlan::exhaustive`].
    pub crash_at: Option<u64>,
}

impl TestEnv {
    /// Parse the matrix from the environment.
    pub fn from_env() -> TestEnv {
        TestEnv {
            transport: transports::test_transport(),
            threads: env_usize("DARWIN_TEST_THREADS", 1),
            batch: env_usize("DARWIN_TEST_BATCH", 1),
            crash_at: std::env::var("DARWIN_TEST_CRASH_AT")
                .ok()
                .and_then(|s| s.parse().ok())
                .filter(|&w| w > 0),
        }
    }

    /// Compose the matrix's execution axes onto `cfg`: thread count and a
    /// fixed wave size. (The transport and crash axes configure the
    /// deployment and the crash plan, not the `DarwinConfig`.)
    pub fn apply(&self, cfg: DarwinConfig) -> DarwinConfig {
        cfg.with_threads(self.threads)
            .with_batch(BatchPolicy::Fixed(self.batch))
    }
}

/// Worker-thread count for suite runs — [`TestEnv::from_env`]'s `threads`
/// axis, kept as a helper for suites that need only this knob.
pub fn test_threads() -> usize {
    TestEnv::from_env().threads
}

/// Async wave size for suite runs — [`TestEnv::from_env`]'s `batch` axis,
/// kept as a helper for suites that need only this knob.
pub fn test_batch() -> usize {
    TestEnv::from_env().batch
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_helpers_default_to_one() {
        // The suite may run under the CI matrix; only pin the fallback.
        assert!(super::env_usize("DARWIN_TESTKIT_UNSET_VAR", 1) == 1);
        assert!(super::test_threads() >= 1);
        assert!(super::test_batch() >= 1);
    }

    #[test]
    fn test_env_is_one_parse_of_the_matrix() {
        let env = TestEnv::from_env();
        assert_eq!(env.threads, test_threads());
        assert_eq!(env.batch, test_batch());
        assert_eq!(env.transport, test_transport());
        let cfg = env.apply(DarwinConfig::fast());
        assert_eq!(cfg.threads, env.threads);
        assert_eq!(cfg.batch, BatchPolicy::Fixed(env.batch));
    }
}
