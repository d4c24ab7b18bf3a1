//! Analysis as a service: the `dragon serve` daemon and its client.
//!
//! - [`proto`] — the line-delimited JSON-RPC wire protocol (`analyze`,
//!   `reanalyze`, `lint`, `query-rgn`, `stats`, `health`, `shutdown`);
//! - [`server`] — the fault-tolerant daemon: sharded warm sessions,
//!   per-request deadlines and memory budgets, bounded frame reads,
//!   admission control (queue depth, connection cap, per-project circuit
//!   breakers), panic containment, a self-healing supervisor that replaces
//!   wedged workers, graceful drain, and crash recovery on startup;
//! - [`supervisor`] — the heartbeat/circuit-breaker state machine behind
//!   the server's self-healing;
//! - [`metrics`] — the observability plane and the daemon's only counter
//!   registry: request-scoped trace ids, sharded per-op outcome counters
//!   and log-linear latency histograms, the ring-buffer request log,
//!   slow-trace capture, and the sampling profiler (served by `stats`,
//!   `metrics`, `query-log`, and `profile` ops);
//! - [`client`] — one-shot calls with timeout, retry, and exponential
//!   backoff with deterministic jitter.
//!
//! See DESIGN.md "Serving & overload behavior", "Resource limits &
//! self-healing", and "Observability" for the full semantics.

pub mod client;
pub mod metrics;
pub mod proto;
pub mod server;
pub mod supervisor;

pub use client::{call, ClientOptions};
pub use server::{run, ServeOptions};
