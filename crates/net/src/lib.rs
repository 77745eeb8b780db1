//! A real networked deployment of the elastic cache.
//!
//! The simulation crates reproduce the paper's *figures*; this crate shows
//! the system is also a working distributed cache. Each cache node is a
//! TCP server owning a B+-tree index ([`server::CacheServer`]); a
//! coordinator ([`coordinator::LiveCoordinator`]) places keys with the same
//! consistent-hash ring, runs GBA splits by sweeping key ranges *over the
//! wire*, and contracts idle nodes — the full paper protocol, executed
//! against real sockets instead of the virtual clock.
//!
//! The wire format ([`protocol`]) is a length-prefixed binary protocol
//! (`bytes`-based): `GET`/`PUT` for the data path, `GET_MANY`/`PUT_MANY`/
//! `EVICT_MANY` for fills, migration and eviction, `KEYS` to re-read what
//! a node the coordinator is unsure of holds (with `GET_MANY` and
//! `STATS`), `STATS` for a node's used bytes, record count and capacity
//! (the cluster's totals) and `OBS_DUMP` for observability. A node has no
//! stop op: whoever started it stops it ([`server::CacheServer::stop`]).
//!
//! Threading model: one event-driven reactor pool per process
//! ([`reactor`]) serves every node in it. A node is a listener registered
//! with the pool; the reactor that owns the listener accepts, enforces the
//! connection bound, and hands admitted sockets round-robin to the pool's
//! reactors, which sweep their owned connections with nonblocking reads,
//! execute every pipelined frame against the connection's hash-striped
//! [`ecc_core::ShardedNode`], and flush all responses in one gathered
//! write per sweep; a reactor with nothing to do blocks in `poll(2)` on
//! its sockets and listeners, so an idle node costs no CPU and a request
//! into it costs one kernel wakeup. There is one client transport,
//! [`client::PipelinedConn`], which pipelines requests to amortize
//! syscalls across those in flight; [`client::RemoteNode`], the
//! coordinator's typed client, is that transport at depth one. Unix only
//! (`poll`, `UnixStream` wakers).
//!
//! # Example
//!
//! ```
//! use ecc_net::coordinator::LiveCoordinator;
//!
//! // A live elastic cache: grows onto new (local) cache servers on demand.
//! let mut coord = LiveCoordinator::start(1 << 16, 64 * 1024).unwrap();
//! coord.put(7, b"derived result".to_vec()).unwrap();
//! assert_eq!(coord.get(7).unwrap().as_deref(), Some(&b"derived result"[..]));
//! coord.shutdown().unwrap();
//! ```

#![deny(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::dbg_macro,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::let_underscore_must_use
)]
#![warn(missing_docs)]

#[cfg(not(unix))]
compile_error!("ecc-net needs poll(2) and Unix socket pairs: Unix targets only");

pub mod client;
pub mod coordinator;
pub mod protocol;
pub mod reactor;
pub mod server;
mod sys;
