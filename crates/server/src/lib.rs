//! **templar-server**: the network serving plane.
//!
//! `templar-service` ends at an in-process boundary: [`TenantRegistry`]
//! serves decoded requests and [`RegistryClient`] drives it through the
//! wire *encoding* but never an actual wire.  This crate puts real sockets
//! in front of that boundary, hand-rolled on the platform's own syscalls
//! (the workspace builds without crates.io):
//!
//! * `poller` *(internal)* — readiness over raw fds: `epoll` on Linux, a
//!   portable `poll` fallback elsewhere (and under
//!   [`ServerConfig::force_poll`], so the fallback stays exercised),
//! * [`server::TemplarServer`] — one reactor thread owning every socket
//!   (accept loop + per-connection state machines), a worker pool
//!   executing requests against the registry, completions flowing back
//!   through a wake pipe; connections multiplex and pipeline, responses
//!   complete out of order under their correlation ids,
//! * per-connection codec negotiation — a `TPLR` hello selects the
//!   length-prefixed binary codec or JSON; first bytes that are not the
//!   magic fall back to a bare JSON-lines session, so `nc` keeps working,
//! * layered admission control — accept-time connection cap, server-wide
//!   in-flight cap, the registry's per-tenant quota, and per-connection
//!   pipeline backpressure; every shed is a typed
//!   [`ApiError::Backpressure`](templar_api::ApiError::Backpressure)
//!   *before* work is queued, counted in the tenant's metrics and visible
//!   in the Prometheus exposition,
//! * [`client::TcpClient`] — the blocking socket client mirroring
//!   `RegistryClient`, with `send`/`recv` primitives for pipelining.
//!
//! [`TenantRegistry`]: templar_service::TenantRegistry
//! [`RegistryClient`]: templar_service::RegistryClient
//! [`ServerConfig::force_poll`]: server::ServerConfig

// The serving plane must never panic on a hostile peer or a failing disk:
// production code paths return typed errors instead of unwrapping.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
mod conn;
mod poller;
pub mod server;

pub use client::{is_retryable, retry_with_deadline, ClientError, TcpClient};
pub use server::{ServerConfig, ServerStatsSnapshot, TemplarServer};
