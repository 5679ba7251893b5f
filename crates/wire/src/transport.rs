//! Byte transports the protocol runs over.
//!
//! A [`Transport`] moves whole frames between a coordinator and one
//! worker. Two backends ship:
//!
//! * [`InProc`] — a pair of in-process channels. The worker is a thread.
//!   Frames still pass through the real encoder, framer and checksum, so
//!   tests and CI exercise the full codec path with zero process-spawn
//!   cost.
//! * [`ProcTransport`] — a spawned child process spoken to over its
//!   stdin/stdout pipes. A reader thread owns the child's stdout so
//!   receives can honor timeouts; the child is killed when the transport
//!   drops. The child side is a [`StreamTransport`] over its own
//!   `io::stdin()` / `io::stdout()` (stdout must carry nothing but frames;
//!   log to stderr).
//!
//! Both implement the same trait, and the engine's equivalence guarantee
//! quantifies over it: any transport replays the in-process trace byte
//! for byte.

use crate::error::WireError;
use crate::frame;
use std::io::{BufWriter, Read, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::time::Duration;

/// Write-buffer capacity for byte-stream transports. Sized to hold a
/// typical request burst (sequence tag + message) in one syscall while
/// staying far below the frame cap — oversized frames fall through
/// [`BufWriter`]'s large-write path untouched.
pub const WRITE_BUF_BYTES: usize = 64 << 10;

/// A reliable, ordered frame channel to one peer.
pub trait Transport: Send {
    /// Send one message payload (framed by the transport). Byte-stream
    /// backends may buffer; callers mark request/response boundaries with
    /// [`Transport::flush`].
    fn send(&mut self, payload: &[u8]) -> Result<(), WireError>;

    /// Push any buffered frames to the peer. Called at request/response
    /// boundaries (after a request is sent, after a response is sent) —
    /// never per frame, so multi-frame bursts coalesce into one write.
    /// Message-passing backends have nothing to buffer; the default is a
    /// no-op.
    fn flush(&mut self) -> Result<(), WireError> {
        Ok(())
    }

    /// Receive the next payload, waiting at most `timeout` (`None` =
    /// block until a frame or disconnect). `Ok(None)` means the timeout
    /// elapsed with nothing arriving.
    fn recv_timeout(&mut self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>, WireError>;

    /// Receive the next payload, blocking until it arrives.
    fn recv(&mut self) -> Result<Vec<u8>, WireError> {
        match self.recv_timeout(None)? {
            Some(p) => Ok(p),
            None => Err(WireError::Disconnected),
        }
    }
}

/// In-process channel transport (the worker is a thread).
pub struct InProc {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

impl InProc {
    /// A connected pair: what one end sends, the other receives.
    pub fn pair() -> (InProc, InProc) {
        let (atx, brx) = mpsc::channel();
        let (btx, arx) = mpsc::channel();
        (InProc { tx: atx, rx: arx }, InProc { tx: btx, rx: brx })
    }
}

impl Transport for InProc {
    fn send(&mut self, payload: &[u8]) -> Result<(), WireError> {
        self.tx
            .send(frame::frame(payload))
            .map_err(|_| WireError::Disconnected)
    }

    fn recv_timeout(&mut self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>, WireError> {
        let framed = match timeout {
            None => self.rx.recv().map_err(|_| WireError::Disconnected)?,
            Some(d) => match self.rx.recv_timeout(d) {
                Ok(f) => f,
                Err(RecvTimeoutError::Timeout) => return Ok(None),
                Err(RecvTimeoutError::Disconnected) => return Err(WireError::Disconnected),
            },
        };
        frame::parse_frame(&framed).map(Some)
    }
}

/// Parent side of a spawned worker process: frames go down the child's
/// stdin, replies come back up its stdout (via a reader thread, so
/// timeouts work on every platform). The child's stderr is inherited —
/// worker panics stay visible.
pub struct ProcTransport {
    child: Child,
    stdin: BufWriter<ChildStdin>,
    frames: Receiver<Result<Vec<u8>, WireError>>,
}

impl ProcTransport {
    /// Spawn `cmd` (stdin/stdout piped) and connect to it.
    pub fn spawn(cmd: &mut Command) -> Result<ProcTransport, WireError> {
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| WireError::Io(format!("spawn failed: {e}")))?;
        let stdin = child
            .stdin
            .take()
            .ok_or_else(|| WireError::Io("worker stdin was not piped".into()))?;
        let mut stdout = child
            .stdout
            .take()
            .ok_or_else(|| WireError::Io("worker stdout was not piped".into()))?;
        let (tx, frames): (SyncSender<_>, _) = mpsc::sync_channel(64);
        std::thread::spawn(move || loop {
            match frame::read_frame(&mut stdout) {
                Ok(payload) => {
                    if tx.send(Ok(payload)).is_err() {
                        break; // parent side dropped
                    }
                }
                Err(WireError::Disconnected) => break, // orderly EOF
                Err(e) => {
                    let _ = tx.send(Err(e));
                    break;
                }
            }
        });
        Ok(ProcTransport {
            child,
            stdin: BufWriter::with_capacity(WRITE_BUF_BYTES, stdin),
            frames,
        })
    }
}

impl Transport for ProcTransport {
    fn send(&mut self, payload: &[u8]) -> Result<(), WireError> {
        frame::write_frame(&mut self.stdin, payload)
    }

    fn flush(&mut self) -> Result<(), WireError> {
        self.stdin.flush()?;
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>, WireError> {
        match timeout {
            None => match self.frames.recv() {
                Ok(f) => f.map(Some),
                Err(_) => Err(WireError::Disconnected),
            },
            Some(d) => match self.frames.recv_timeout(d) {
                Ok(f) => f.map(Some),
                Err(RecvTimeoutError::Timeout) => Ok(None),
                Err(RecvTimeoutError::Disconnected) => Err(WireError::Disconnected),
            },
        }
    }
}

impl Drop for ProcTransport {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A transport whose pipe already closed — every operation reports
/// [`WireError::Disconnected`]. Fault-injection tests use it to model a
/// worker that died before (or mid-) conversation.
pub struct DeadTransport;

impl Transport for DeadTransport {
    fn send(&mut self, _payload: &[u8]) -> Result<(), WireError> {
        Err(WireError::Disconnected)
    }

    fn recv_timeout(&mut self, _timeout: Option<Duration>) -> Result<Option<Vec<u8>>, WireError> {
        Err(WireError::Disconnected)
    }
}

/// Generic byte-stream transport over any `Read + Write` pair — the
/// child side of a [`ProcTransport`] (`io::stdin()` / `io::stdout()`) and
/// the building block for socket-backed deployments (a `TcpStream` clone
/// pair slots straight in, see [`crate::net`]). Blocking; timeouts fall back
/// to blocking reads, so wrap sockets with their own read timeouts where
/// needed. Writes are buffered ([`WRITE_BUF_BYTES`]) and pushed to the
/// peer by [`Transport::flush`] at request/response boundaries.
pub struct StreamTransport<R, W: Write> {
    r: R,
    w: BufWriter<W>,
}

impl<R: Read + Send, W: Write + Send> StreamTransport<R, W> {
    /// A transport reading frames from `r` and writing frames to `w`.
    pub fn new(r: R, w: W) -> StreamTransport<R, W> {
        StreamTransport {
            r,
            w: BufWriter::with_capacity(WRITE_BUF_BYTES, w),
        }
    }
}

impl<R: Read + Send, W: Write + Send> Transport for StreamTransport<R, W> {
    fn send(&mut self, payload: &[u8]) -> Result<(), WireError> {
        frame::write_frame(&mut self.w, payload)
    }

    fn flush(&mut self) -> Result<(), WireError> {
        self.w.flush()?;
        Ok(())
    }

    fn recv_timeout(&mut self, _timeout: Option<Duration>) -> Result<Option<Vec<u8>>, WireError> {
        frame::read_frame(&mut self.r).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inproc_pair_roundtrips_frames() {
        let (mut a, mut b) = InProc::pair();
        a.send(b"ping").unwrap();
        assert_eq!(b.recv().unwrap(), b"ping");
        b.send(b"pong").unwrap();
        assert_eq!(a.recv().unwrap(), b"pong");
    }

    #[test]
    fn inproc_timeout_and_disconnect() {
        let (mut a, b) = InProc::pair();
        assert_eq!(
            a.recv_timeout(Some(Duration::from_millis(1))).unwrap(),
            None
        );
        drop(b);
        assert_eq!(a.recv(), Err(WireError::Disconnected));
        assert_eq!(a.send(b"x"), Err(WireError::Disconnected));
    }

    #[test]
    fn inproc_preserves_order() {
        let (mut a, mut b) = InProc::pair();
        for i in 0..10u8 {
            a.send(&[i]).unwrap();
        }
        for i in 0..10u8 {
            assert_eq!(b.recv().unwrap(), vec![i]);
        }
    }

    #[test]
    fn dead_transport_reports_disconnected() {
        let mut t = DeadTransport;
        assert_eq!(t.send(b"x"), Err(WireError::Disconnected));
        assert_eq!(t.recv(), Err(WireError::Disconnected));
    }

    #[test]
    fn stream_transport_over_buffers() {
        // Write into a Vec, then read the same bytes back.
        let mut wire = Vec::new();
        {
            let mut t = StreamTransport::new(std::io::empty(), &mut wire);
            t.send(b"hello").unwrap();
            t.send(b"world").unwrap();
            t.flush().unwrap();
        }
        let mut t = StreamTransport::new(&wire[..], std::io::sink());
        assert_eq!(t.recv().unwrap(), b"hello");
        assert_eq!(t.recv().unwrap(), b"world");
        assert_eq!(t.recv(), Err(WireError::Disconnected));
    }

    #[test]
    fn proc_transport_spawns_and_kills() {
        // `cat` echoes our frames back verbatim.
        let mut t = match ProcTransport::spawn(&mut Command::new("cat")) {
            Ok(t) => t,
            Err(_) => return, // no `cat` on this host; skip
        };
        t.send(b"through the pipe").unwrap();
        t.flush().unwrap();
        assert_eq!(t.recv().unwrap(), b"through the pipe");
        assert_eq!(
            t.recv_timeout(Some(Duration::from_millis(5))).unwrap(),
            None
        );
        drop(t); // must kill the child, not hang
    }

    /// A writer that counts how many times the transport reaches the
    /// underlying sink — the observable cost model for syscalls.
    struct CountingWriter {
        writes: std::sync::Arc<std::sync::atomic::AtomicUsize>,
        sink: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.sink.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The flush discipline, pinned: N buffered frames reach the sink as
    /// exactly one write when `flush` marks the boundary — never one
    /// write per frame.
    #[test]
    fn frames_buffer_until_flush_boundary() {
        let writes = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let w = CountingWriter {
            writes: writes.clone(),
            sink: Vec::new(),
        };
        let mut t = StreamTransport::new(std::io::empty(), w);
        for i in 0..5u8 {
            t.send(&[i; 100]).unwrap();
        }
        assert_eq!(
            writes.load(std::sync::atomic::Ordering::SeqCst),
            0,
            "frames must buffer until the boundary"
        );
        t.flush().unwrap();
        assert_eq!(
            writes.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "one boundary, one write"
        );
    }
}
