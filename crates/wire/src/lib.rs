//! The Darwin wire protocol: a serialization and transport boundary
//! between the question-loop coordinator and its workers.
//!
//! Everything the sharded engine, the async oracle loop and the remote
//! classifier exchange is expressible as a handful of messages
//! ([`Request`]/[`Response`]): corpus shipments, benefit-fragment deltas,
//! score-journal runs, oracle questions and answers, and `predict_batch`
//! calls. This crate defines:
//!
//! * the hand-rolled binary codec ([`codec`]) — little-endian,
//!   length-prefixed, `f32`s bit-exact, decoding bounds-checked and
//!   panic-free;
//! * the frame format and version-negotiation rule ([`frame`]) —
//!   magic + version + length + payload + FNV-1a checksum;
//! * the message vocabulary ([`msg`]) with strict request/response
//!   discipline;
//! * the [`Transport`] trait with two shipped backends ([`transport`]):
//!   [`InProc`] channels (worker threads — tests, CI) and
//!   [`ProcTransport`] (spawned child processes over stdio pipes, whose
//!   side is a [`StreamTransport`] over their stdin/stdout).
//!
//! The layer above (`darwin-core`) builds the actual workers and clients:
//! `RemoteShard` partitions, `WireOracle`, `WireClassifier`, and the
//! `serve_*` loops. The defining invariant lives up there too: any
//! transport × shard count × thread count × batch size replays the
//! in-process single-shard trace byte for byte — this crate's job is to
//! make that possible (bit-exact codec) and safe (every failure a clean
//! [`WireError`]).

#![warn(missing_docs)]

pub mod codec;
pub mod error;
pub mod frame;
pub mod msg;
pub mod net;
pub mod transport;

pub use codec::{Decode, Encode, Reader};
pub use error::WireError;
pub use frame::{
    parse_snapshot_frame, snapshot_frame, MAX_FRAME_LEN, MAX_SNAPSHOT_LEN, MIN_SNAPSHOT_VERSION,
    MIN_SUPPORTED_VERSION, PROTOCOL_VERSION, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use msg::{
    recv_request, send_response, CorpusSlice, Request, Response, ScoredRule, Session, WireAgg,
    WireClassifierKind,
};
pub use net::{
    accept_registration, dial, register, Listener, Registration, TcpTransport, WorkerRegistry,
    WorkerRole,
};
pub use transport::{DeadTransport, InProc, ProcTransport, StreamTransport, Transport};
