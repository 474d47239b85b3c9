//! `vida-trace` — observability for the ViDa engine: per-query span
//! tracing, an always-on atomic metrics registry, and consumers that turn
//! both into human- and machine-readable output.
//!
//! The crate is zero-dependency by design (the whole workspace builds
//! offline) and splits into three layers:
//!
//! * [`span`] — a per-track span recorder. Each worker records into its own
//!   [`QueryTrace`] buffer (no locks, no atomics on the hot path); the
//!   coordinator absorbs worker buffers at merge points, so tracing never
//!   serializes the morsel-driven execution path. Stage names are the
//!   static taxonomy in [`stage`].
//! * [`metrics`] — a process-wide [`MetricsRegistry`] of relaxed atomic
//!   counters and log2-bucket histograms: cache hits/misses/evictions and
//!   replica bytes, worker busy-vs-idle time and morsel-claim balance, and
//!   total kernel invocations. Cheap enough to stay on unconditionally.
//! * consumers — [`QueryTrace::explain_analyze`] renders the stage tree
//!   with wall time, tuples, and morsels; [`chrome`] exports Chrome
//!   trace-event JSON loadable in Perfetto / `chrome://tracing`, one track
//!   per worker. The Chrome export and every stats document write
//!   through [`json`], the workspace's one JSON writer.
//!
//! Per-query tracing is opt-in (the engine gates it behind
//! `JitOptions::trace`); when disabled every hook is an `Option` check and
//! the cost is indistinguishable from baseline.

pub mod chrome;
pub mod json;
pub mod metrics;
pub mod span;

pub use chrome::chrome_trace_json;
pub use metrics::{global_metrics, Counter, Histogram, MetricsRegistry, MetricsSnapshot};
pub use span::{stage, QueryTrace, Span, StageTotals};
