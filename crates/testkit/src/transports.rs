//! Transport test doubles and distributed-run helpers.
//!
//! * [`FlakyTransport`] — a deterministic fault injector wrapping any
//!   transport: it drops, duplicates or truncates outgoing frames on a
//!   seeded schedule, so suites can prove that every wire failure
//!   surfaces as a clean `WireError` (never a panic, never a silently
//!   partial merge).
//! * [`TransportKind`] / [`test_transport`] — the CI matrix axis
//!   (`DARWIN_TEST_TRANSPORT={inproc,proc,tcp}`) choosing how distributed
//!   suites deploy their workers: in-process worker threads over channel
//!   transports, real child processes over stdio pipes, or child
//!   processes dialing back over loopback TCP sockets.
//! * [`shard_connector`] / [`wire_oracle`] — build a worker deployment of
//!   the selected kind for `Darwin::with_remote_shards` and
//!   `Darwin::run_async`; [`inproc_shards`] deploys a config's shard count
//!   as InProc workers.

use darwin_core::{serve_oracle, Darwin, Oracle, ShardConnector, WireOracle};
use darwin_text::Corpus;
use darwin_wire::{InProc, ProcTransport, Transport, WireError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

/// Which fault a [`FlakyTransport`] injects on a send it decides to harm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The frame never leaves (a lost datagram / dead pipe write).
    Drop,
    /// The frame is delivered twice (a retransmit bug).
    Duplicate,
    /// Only a prefix of the payload is delivered (a torn write after
    /// reassembly — the codec's bounds checks catch it at decode, so the
    /// receiver sees a clean `Corrupt`/`Truncated` error, never garbage).
    Truncate,
}

/// A deterministic fault-injecting wrapper around any [`Transport`].
///
/// Every `send` consults a seeded RNG: with probability `rate` the
/// configured [`Fault`] is injected, otherwise the frame passes through
/// untouched. Receives always pass through — faults on the return path
/// are equivalent to faults on a later send for request/response
/// protocols, and keeping one injection point makes schedules easy to
/// reason about.
pub struct FlakyTransport {
    inner: Box<dyn Transport>,
    fault: Fault,
    /// Injection probability per send, in permille.
    permille: u32,
    /// Sends left unharmed before the schedule starts (lets a handshake
    /// or a conversation prefix succeed, then the fault hits).
    grace: usize,
    rng: StdRng,
    injected: usize,
}

impl FlakyTransport {
    /// Wrap `inner`, injecting `fault` on roughly `rate` (0.0–1.0) of
    /// sends, deterministically from `seed`.
    pub fn new(inner: Box<dyn Transport>, fault: Fault, rate: f64, seed: u64) -> FlakyTransport {
        FlakyTransport {
            inner,
            fault,
            permille: (rate.clamp(0.0, 1.0) * 1000.0) as u32,
            grace: 0,
            rng: StdRng::seed_from_u64(seed),
            injected: 0,
        }
    }

    /// A wrapper that harms the very first send (the fastest way to prove
    /// an operation surfaces its failure).
    pub fn always(inner: Box<dyn Transport>, fault: Fault) -> FlakyTransport {
        FlakyTransport::new(inner, fault, 1.0, 0)
    }

    /// A wrapper that lets the first `healthy_sends` through untouched,
    /// then harms every later send — a worker that dies mid-conversation.
    pub fn after(inner: Box<dyn Transport>, fault: Fault, healthy_sends: usize) -> FlakyTransport {
        let mut t = FlakyTransport::new(inner, fault, 1.0, 0);
        t.grace = healthy_sends;
        t
    }

    /// Faults injected so far.
    pub fn injected(&self) -> usize {
        self.injected
    }
}

impl Transport for FlakyTransport {
    fn send(&mut self, payload: &[u8]) -> Result<(), WireError> {
        if self.grace > 0 {
            self.grace -= 1;
            return self.inner.send(payload);
        }
        let roll: u32 = self.rng.gen_range(0..1000);
        if roll >= self.permille {
            return self.inner.send(payload);
        }
        self.injected += 1;
        match self.fault {
            Fault::Drop => Ok(()), // swallowed: the peer never sees it
            Fault::Duplicate => {
                self.inner.send(payload)?;
                self.inner.send(payload)
            }
            Fault::Truncate => self.inner.send(&payload[..payload.len() / 2]),
        }
    }

    fn recv_timeout(&mut self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>, WireError> {
        // Cap blocking receives: a dropped request means the reply never
        // comes, and a test harness should get a clean timeout-shaped
        // disconnect rather than hang.
        let capped = Some(timeout.unwrap_or(Duration::from_millis(500)));
        match self.inner.recv_timeout(capped)? {
            Some(f) => Ok(Some(f)),
            None => match timeout {
                // The *caller* asked for a timeout: report it.
                Some(_) => Ok(None),
                // The caller would have blocked forever on a frame we
                // dropped: surface the loss as a disconnect.
                None => Err(WireError::Disconnected),
            },
        }
    }
}

/// How distributed suites deploy workers (`DARWIN_TEST_TRANSPORT`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// Worker threads over [`InProc`] channels.
    InProc,
    /// Child processes over stdio pipes (needs a worker binary).
    Proc,
    /// Child processes dialing back over loopback TCP sockets (needs a
    /// worker binary supporting `--dial`).
    Tcp,
}

/// The transport axis of the CI matrix: `DARWIN_TEST_TRANSPORT` is
/// `inproc` (default), `proc` or `tcp`. Like `DARWIN_TEST_THREADS`,
/// suites run every configuration through this knob — trace equivalence
/// across transports is part of the wire boundary's contract.
pub fn test_transport() -> TransportKind {
    match std::env::var("DARWIN_TEST_TRANSPORT").as_deref() {
        Ok("proc") => TransportKind::Proc,
        Ok("tcp") => TransportKind::Tcp,
        _ => TransportKind::InProc,
    }
}

/// Spawn `worker_exe <role args> --dial <ephemeral loopback port>` and
/// accept its connection: a one-worker TCP deployment. The child is
/// reaped by a detached thread once its socket closes.
fn tcp_worker(exe: &PathBuf, args: &[String]) -> Result<Box<dyn Transport>, WireError> {
    let listener = darwin_wire::Listener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let mut child = Command::new(exe)
        .args(args)
        .arg("--dial")
        .arg(addr.to_string())
        .spawn()
        .map_err(WireError::from)?;
    let accepted = listener.accept().and_then(|mut t| {
        darwin_wire::accept_registration(&mut t).map(|_| Box::new(t) as Box<dyn Transport>)
    });
    if accepted.is_err() {
        let _ = child.kill();
    }
    std::thread::spawn(move || {
        let _ = child.wait();
    });
    accepted
}

/// Resolve the worker binary for [`TransportKind::Proc`] deployments:
/// explicit override via `DARWIN_WORKER_BIN`, else the root package's
/// `darwin-worker` binary next to the running test executable. Suites in
/// the root package can also pass `env!("CARGO_BIN_EXE_darwin-worker")`
/// to [`shard_connector`] directly.
pub fn worker_bin() -> Option<PathBuf> {
    if let Ok(p) = std::env::var("DARWIN_WORKER_BIN") {
        return Some(PathBuf::from(p));
    }
    // target/debug/deps/<test> -> target/debug/darwin-worker
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?.parent()?;
    let cand = dir.join("darwin-worker");
    cand.exists().then_some(cand)
}

/// A [`ShardConnector`] deploying one worker per shard of the given kind:
/// `InProc` spawns a serve-loop thread per shard; `Proc` spawns
/// `worker_exe shard` as a child process per shard; `Tcp` spawns the same
/// child dialing back over a loopback socket.
pub fn shard_connector(kind: TransportKind, worker_exe: Option<PathBuf>) -> Box<ShardConnector> {
    match kind {
        TransportKind::InProc => darwin_core::inproc_shard_connector(),
        TransportKind::Proc => {
            let exe = worker_exe
                .or_else(worker_bin)
                .expect("proc transport needs a worker binary (DARWIN_WORKER_BIN)");
            Box::new(move |_s, _range| {
                let t = ProcTransport::spawn(Command::new(&exe).arg("shard"))?;
                Ok(Box::new(t) as Box<dyn Transport>)
            })
        }
        TransportKind::Tcp => {
            let exe = worker_exe
                .or_else(worker_bin)
                .expect("tcp transport needs a worker binary (DARWIN_WORKER_BIN)");
            Box::new(move |_s, range| {
                let args = vec![
                    "shard".to_string(),
                    "--span".to_string(),
                    range.start.to_string(),
                    range.end.to_string(),
                ];
                tcp_worker(&exe, &args)
            })
        }
    }
}

/// `darwin` with its configured shard count deployed as InProc shard
/// workers, one per shard — or unchanged at one shard. A local run keeps
/// one full-span store whatever `DarwinConfig::shards` says, so the S axis
/// of an equivalence suite exists only over workers.
pub fn inproc_shards(darwin: Darwin<'_>) -> Darwin<'_> {
    if darwin.config().shards > 1 {
        darwin.with_remote_shards(darwin_core::inproc_shard_connector())
    } else {
        darwin
    }
}

/// A connected [`WireOracle`] whose worker answers from `oracle` over
/// `corpus`: a worker thread for `InProc`, or `worker_exe oracle
/// --directions n seed` (which rebuilds the same deterministic fixture)
/// for `Proc`/`Tcp`.
pub fn wire_oracle<O>(
    kind: TransportKind,
    corpus: &Corpus,
    oracle: O,
    proc_args: Option<(&PathBuf, &[String])>,
) -> Result<WireOracle, WireError>
where
    O: Oracle + Send + 'static,
{
    match kind {
        TransportKind::InProc => {
            let corpus = corpus.clone();
            let (client, mut server) = InProc::pair();
            std::thread::spawn(move || {
                let mut oracle = oracle;
                let _ = serve_oracle(&mut server, &corpus, &mut oracle);
            });
            WireOracle::connect(Box::new(client))
        }
        TransportKind::Proc => {
            let (exe, args) = proc_args.expect("proc oracle needs (worker_exe, args)");
            let t = ProcTransport::spawn(Command::new(exe).arg("oracle").args(args))?;
            WireOracle::connect(Box::new(t))
        }
        TransportKind::Tcp => {
            let (exe, args) = proc_args.expect("tcp oracle needs (worker_exe, args)");
            let mut full = vec!["oracle".to_string()];
            full.extend(args.iter().cloned());
            WireOracle::connect(tcp_worker(exe, &full)?)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flaky_drop_surfaces_as_disconnect_not_hang() {
        let (client, mut server) = InProc::pair();
        let mut flaky = FlakyTransport::always(Box::new(client), Fault::Drop);
        flaky.send(b"lost").unwrap(); // swallowed
        assert_eq!(flaky.injected(), 1);
        assert_eq!(
            server
                .recv_timeout(Some(Duration::from_millis(10)))
                .unwrap(),
            None,
            "dropped frame must never arrive"
        );
        // The reply that will never come: a clean disconnect, not a hang.
        assert_eq!(flaky.recv(), Err(WireError::Disconnected));
    }

    #[test]
    fn flaky_truncate_fails_decode_cleanly() {
        use darwin_wire::{Decode, Encode, Request};
        let (client, mut server) = InProc::pair();
        let mut flaky = FlakyTransport::always(Box::new(client), Fault::Truncate);
        let msg = Request::PredictBatch {
            ids: vec![1, 2, 3, 4, 5, 6, 7, 8],
        };
        flaky.send(&msg.to_bytes()).unwrap();
        // The torn payload still frames (transports reassemble), but the
        // message inside no longer decodes — a clean codec error.
        let payload = server.recv().unwrap();
        let err = Request::from_bytes(&payload).unwrap_err();
        assert!(
            matches!(err, WireError::Truncated { .. } | WireError::Corrupt(_)),
            "truncation must fail decode cleanly, got {err:?}"
        );
    }

    #[test]
    fn flaky_duplicate_delivers_twice() {
        let (client, mut server) = InProc::pair();
        let mut flaky = FlakyTransport::always(Box::new(client), Fault::Duplicate);
        flaky.send(b"twice").unwrap();
        assert_eq!(server.recv().unwrap(), b"twice");
        assert_eq!(server.recv().unwrap(), b"twice");
    }

    #[test]
    fn flaky_rate_is_deterministic_per_seed() {
        let count = |seed| {
            let (client, _server) = InProc::pair();
            let mut flaky = FlakyTransport::new(Box::new(client), Fault::Drop, 0.5, seed);
            for _ in 0..100 {
                let _ = flaky.send(b"x");
            }
            flaky.injected()
        };
        assert_eq!(count(7), count(7), "same seed, same schedule");
        assert!(count(7) > 10 && count(7) < 90, "rate roughly honored");
    }

    #[test]
    fn transport_axis_defaults_to_inproc() {
        if std::env::var("DARWIN_TEST_TRANSPORT").is_err() {
            assert_eq!(test_transport(), TransportKind::InProc);
        }
    }
}
