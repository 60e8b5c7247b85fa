//! ts-front: the online serving tier (the "request" half of the
//! north star), built deterministic-first.
//!
//! The training side of this workspace scores *tables*; production
//! serving scores *requests* — single rows arriving on their own clock,
//! where economics are dominated by batching and tail latency rather than
//! kernel speed. This crate closes that gap as a fully simulated,
//! property-tested pipeline:
//!
//! - [`ArrivalPlan`] — seeded open-loop request streams (Poisson and
//!   bursty ON/OFF), pure functions of `(plan, seed)` in the `FaultPlan`
//!   mould.
//! - [`FrontServer`] — a discrete-event loop over `ts_netsim::SimClock`
//!   that micro-batches requests under a latency budget (flush on
//!   deadline-or-full, adaptive target from the p95 of the ts-obs
//!   request-latency [`LatencyFeed`]), sheds load with structured
//!   rejects, and scores every batch with the real compiled engine —
//!   model outputs are bitwise real, only *time* is virtual.
//! - [`ModelRegistry`] — epoch-versioned compiled artifacts with
//!   zero-downtime hot swap, atomically flipped between batches; every
//!   [`Response`] carries the epoch that scored it.
//! - [`FrontStats`] / per-request `SpanKind::Request` spans — the same
//!   observability planes as the training tier.
//! - [`FrontReport`] — the deterministic run log: byte-identical across
//!   same-seed runs (`log_bytes`), with exact p50/p99/p999 latency and
//!   sustained-QPS reductions for `BENCH_serve.json`.
//!
//! See `docs/SERVING.md` ("Request tier") for the policies and the
//! latency-invariant proof sketch, and `crates/front/tests/` for the
//! differential and property suites that pin them down.
//!
//! [`LatencyFeed`]: ts_obs::LatencyFeed

mod arrival;
mod registry;
mod server;
mod stats;

pub use arrival::{Arrival, ArrivalPlan};
pub use registry::ModelRegistry;
pub use server::{
    FrontConfig, FrontReport, FrontServer, LatencyQuantiles, RejectReason, Response, Score,
    ServiceModel, Shed, SwapRecord,
};
pub use stats::FrontStats;
