//! The deterministic front server: micro-batching, admission control and
//! hot swap as one discrete-event loop over a virtual [`SimClock`].
//!
//! # Execution model
//!
//! The server is a single-threaded discrete-event simulation. Three event
//! kinds exist — request arrival, deadline flush, batch completion — and
//! the loop always processes the globally earliest one (completions before
//! flushes before arrivals on ties), advancing the shared virtual clock
//! with [`SimClock::advance_to`]. Model *outputs* are real — every batch
//! is scored by the compiled engine, which is bitwise deterministic — while
//! *service time* is virtual, charged from a [`ServiceModel`]
//! (`overhead + per_row · rows` on a single serial executor). The result:
//! same seed, same config ⇒ byte-identical response logs, replayable from
//! a one-line `TS_SEED` recipe like every other suite in the workspace.
//!
//! # Batching policy (flush on deadline-or-full)
//!
//! Admitted requests join a FIFO forming queue. A batch is *cut* when the
//! queue reaches the current target size (full trigger) or when the oldest
//! queued request has waited `latency_budget` (deadline trigger) —
//! whichever comes first, so a lone straggler still flushes on time. With
//! `adaptive_batch`, the target floats between `min_batch` and `max_batch`
//! on the rolling request-latency p95 from the ts-obs [`LatencyFeed`]:
//! near-budget tails grow the target (amortise per-batch overhead — under
//! load, throughput is the only way out), comfortable tails shrink it back
//! toward fresher, smaller batches.
//!
//! # Admission control
//!
//! Admission enforces the latency invariant *by construction*: a request
//! `r` arriving at `t` is admitted only if the bounded queue has room and
//! the pessimistic drain of everything already admitted — executor busy,
//! then the queue cut into worst-case batches of exactly `target` rows,
//! batch `j` starting no earlier than its oldest member's deadline:
//! `F ← max(F, admit(j·target) + budget) + service(target)` — finishes
//! ahead of `r`'s own batch by `t + budget`. Real execution only
//! dominates that schedule (flushes trigger no later than the modelled
//! deadlines, carry at least as many rows, and amortise more overhead),
//! and every flush that can cover `r` triggers by `t + budget` (deadlines
//! key off requests admitted no later than `r`), so `r`'s batch starts by
//! `t + budget` and completes by `t + budget + service(r's batch)`. Sheds
//! are structured rejects ([`Shed`]) with a retry-after hint, never silent
//! drops.
//!
//! # Hot swap
//!
//! The engine artifact is read from the [`ModelRegistry`] exactly once per
//! cut, so a swap lands atomically *between* batches: every response is
//! tagged with the epoch that scored it, epochs are monotone across the
//! response log, and a torn batch (half old model, half new) cannot be
//! expressed. Swaps are scheduled at virtual times with a supplier
//! closure, so a background trainer can hand over a freshly compiled
//! forest without the serving loop ever blocking virtual time.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use ts_datatable::{DataTable, Task};
use ts_netsim::SimClock;
use ts_obs::{Event, ObsConfig, Recorder, SpanKind};
use ts_serve::{CompiledModel, Rows};

use crate::arrival::Arrival;
use crate::registry::ModelRegistry;
use crate::stats::FrontStats;

/// Virtual cost of one engine dispatch: `batch_overhead_ns` of fixed
/// per-batch work (queue hop, block setup) plus `per_row_ns` per row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceModel {
    /// Fixed per-batch overhead, ns.
    pub batch_overhead_ns: u64,
    /// Marginal per-row cost, ns.
    pub per_row_ns: u64,
}

impl ServiceModel {
    /// Service time of a `rows`-row batch.
    pub fn service_ns(&self, rows: usize) -> u64 {
        self.batch_overhead_ns + self.per_row_ns * rows as u64
    }
}

impl Default for ServiceModel {
    fn default() -> Self {
        // ~20µs dispatch overhead + 5µs/row: the shape (not the absolute
        // scale) is what matters — overhead ≫ 0 makes batching worthwhile.
        ServiceModel {
            batch_overhead_ns: 20_000,
            per_row_ns: 5_000,
        }
    }
}

/// Front-server knobs. All times are virtual.
#[derive(Debug, Clone)]
pub struct FrontConfig {
    /// End-to-end latency budget per admitted request; also the maximum
    /// time a request may sit in the forming queue (deadline trigger).
    pub latency_budget: Duration,
    /// Smallest adaptive batch target (and the floor used by nothing
    /// else — admission is per-request pessimistic and ignores it).
    pub min_batch: usize,
    /// Largest batch ever cut.
    pub max_batch: usize,
    /// Bound on the forming queue; arrivals beyond it shed `QueueFull`.
    pub queue_cap: usize,
    /// Float the batch target on the request-latency p95 feed.
    pub adaptive_batch: bool,
    /// Virtual engine cost model.
    pub service: ServiceModel,
}

impl Default for FrontConfig {
    fn default() -> Self {
        FrontConfig {
            latency_budget: Duration::from_millis(2),
            min_batch: 1,
            max_batch: 64,
            queue_cap: 256,
            adaptive_batch: true,
            service: ServiceModel::default(),
        }
    }
}

/// The model output for one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Score {
    /// Classification label.
    Label(u32),
    /// Regression value.
    Value(f64),
}

/// A completed request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Response {
    /// Request id.
    pub id: u64,
    /// Issuing connection.
    pub conn: u32,
    /// Scored row of the request table.
    pub row: u32,
    /// The registry epoch whose model produced `score`.
    pub epoch: u32,
    /// Virtual admission time.
    pub admit_ns: u64,
    /// Virtual batch-cut time (the request left the forming queue).
    pub dispatch_ns: u64,
    /// Virtual completion time.
    pub done_ns: u64,
    /// Sequence number of the batch that served this request.
    pub batch: u32,
    /// Rows in that batch.
    pub batch_rows: u32,
    /// The model output.
    pub score: Score,
}

/// Why a request was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded forming queue was full.
    QueueFull,
    /// The latency budget could not be met (pessimistic chain overflow).
    Backpressure,
}

/// A structured shed response — the request was *answered*, not dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shed {
    /// Request id.
    pub id: u64,
    /// Issuing connection.
    pub conn: u32,
    /// Virtual arrival time.
    pub at_ns: u64,
    /// Why.
    pub reason: RejectReason,
    /// Forming-queue depth observed at rejection.
    pub queue_depth: u32,
    /// Hint: virtual ns until admission is likely to succeed.
    pub retry_after_ns: u64,
}

/// One applied hot swap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapRecord {
    /// Virtual time the flip was applied (a batch-cut boundary).
    pub at_ns: u64,
    /// The epoch that became active.
    pub epoch: u32,
}

/// Exact latency order statistics over all responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyQuantiles {
    /// Median, ns.
    pub p50_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
    /// 99.9th percentile, ns.
    pub p999_ns: u64,
}

/// Everything one run produced, in deterministic order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FrontReport {
    /// Responses in batch-cut order (FIFO, so also completion order).
    pub responses: Vec<Response>,
    /// Structured sheds in arrival order.
    pub sheds: Vec<Shed>,
    /// Applied hot swaps in order.
    pub swaps: Vec<SwapRecord>,
    /// Batches dispatched.
    pub batches: u64,
    /// Batches cut by the deadline trigger.
    pub deadline_flushes: u64,
    /// Batches cut by the size trigger.
    pub full_flushes: u64,
}

impl FrontReport {
    /// Exact p50/p99/p999 of admission→completion latency. `None` when no
    /// request completed.
    pub fn latency_quantiles(&self) -> Option<LatencyQuantiles> {
        if self.responses.is_empty() {
            return None;
        }
        let mut lat: Vec<u64> = self
            .responses
            .iter()
            .map(|r| r.done_ns - r.admit_ns)
            .collect();
        lat.sort_unstable();
        let at = |q: f64| {
            let idx = ((q * (lat.len() - 1) as f64).round() as usize).min(lat.len() - 1);
            lat[idx]
        };
        Some(LatencyQuantiles {
            p50_ns: at(0.50),
            p99_ns: at(0.99),
            p999_ns: at(0.999),
        })
    }

    /// Completed requests per virtual second, first admission → last
    /// completion. 0.0 when fewer than one nanosecond elapsed.
    pub fn sustained_qps(&self) -> f64 {
        let (Some(first), Some(last)) = (
            self.responses.iter().map(|r| r.admit_ns).min(),
            self.responses.iter().map(|r| r.done_ns).max(),
        ) else {
            return 0.0;
        };
        if last <= first {
            return 0.0;
        }
        self.responses.len() as f64 / ((last - first) as f64 / 1e9)
    }

    /// Canonical little-endian serialization of the full response/shed/
    /// swap log. Two runs are replay-identical iff these bytes match —
    /// this is what the same-seed property compares, so *every*
    /// user-visible field is included (scores as raw f64 bits).
    pub fn log_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(self.responses.len() * 64);
        b.extend((self.responses.len() as u64).to_le_bytes());
        for r in &self.responses {
            b.extend(r.id.to_le_bytes());
            b.extend(r.conn.to_le_bytes());
            b.extend(r.row.to_le_bytes());
            b.extend(r.epoch.to_le_bytes());
            b.extend(r.admit_ns.to_le_bytes());
            b.extend(r.dispatch_ns.to_le_bytes());
            b.extend(r.done_ns.to_le_bytes());
            b.extend(r.batch.to_le_bytes());
            b.extend(r.batch_rows.to_le_bytes());
            match r.score {
                Score::Label(l) => {
                    b.push(0);
                    b.extend((l as u64).to_le_bytes());
                }
                Score::Value(v) => {
                    b.push(1);
                    b.extend(v.to_bits().to_le_bytes());
                }
            }
        }
        b.extend((self.sheds.len() as u64).to_le_bytes());
        for s in &self.sheds {
            b.extend(s.id.to_le_bytes());
            b.extend(s.conn.to_le_bytes());
            b.extend(s.at_ns.to_le_bytes());
            b.push(match s.reason {
                RejectReason::QueueFull => 0,
                RejectReason::Backpressure => 1,
            });
            b.extend(s.queue_depth.to_le_bytes());
            b.extend(s.retry_after_ns.to_le_bytes());
        }
        b.extend((self.swaps.len() as u64).to_le_bytes());
        for w in &self.swaps {
            b.extend(w.at_ns.to_le_bytes());
            b.extend(w.epoch.to_le_bytes());
        }
        b
    }
}

/// A scheduled hot swap: at virtual time `at_ns`, `supply` is invoked (it
/// may join a background training thread) and the result published.
struct SwapEntry {
    at_ns: u64,
    supply: Box<dyn FnOnce() -> CompiledModel + Send>,
}

/// An admitted request waiting in the forming queue.
#[derive(Debug, Clone, Copy)]
struct Pending {
    id: u64,
    conn: u32,
    row: u32,
    admit_ns: u64,
}

/// A cut batch in virtual service; closed out at `done_ns`.
#[derive(Debug)]
struct Flight {
    done_ns: u64,
    /// `(span id, admit_ns)` per member, for SpanClose + latency feed.
    members: Vec<(u64, u64)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trigger {
    Full,
    Deadline,
}

/// The simulated serving front. One server supports exactly one
/// [`run`](FrontServer::run) — build a fresh one per experiment so clocks,
/// spans and metrics always start from zero (replay-grade determinism).
pub struct FrontServer {
    cfg: FrontConfig,
    registry: Arc<ModelRegistry>,
    table: Arc<DataTable>,
    clock: SimClock,
    stats: Arc<FrontStats>,
    recorder: Option<Arc<Recorder>>,
    swaps: Vec<SwapEntry>,
}

impl FrontServer {
    /// A server scoring rows of `table` with the active model of
    /// `registry`, on a fresh virtual clock at 0.
    pub fn new(cfg: FrontConfig, registry: Arc<ModelRegistry>, table: Arc<DataTable>) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be >= 1");
        assert!(
            (1..=cfg.max_batch).contains(&cfg.min_batch),
            "need 1 <= min_batch <= max_batch"
        );
        assert!(cfg.queue_cap >= 1, "queue_cap must be >= 1");
        assert!(
            cfg.latency_budget > Duration::ZERO,
            "latency budget must be positive"
        );
        FrontServer {
            cfg,
            registry,
            table,
            clock: SimClock::virtual_at(0),
            stats: Arc::new(FrontStats::new()),
            recorder: None,
            swaps: Vec::new(),
        }
    }

    /// The server's virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The server's metrics.
    pub fn stats(&self) -> Arc<FrontStats> {
        Arc::clone(&self.stats)
    }

    /// The model registry (for out-of-band publishes).
    pub fn registry(&self) -> Arc<ModelRegistry> {
        Arc::clone(&self.registry)
    }

    /// Attaches a ts-obs recorder on the server's virtual clock and
    /// returns it: every request becomes a `SpanKind::Request` span
    /// (open = admission, active = batch cut, close = completion).
    pub fn attach_recorder(&mut self) -> Arc<Recorder> {
        let src = self
            .clock
            .time_source()
            .expect("front clock is always virtual");
        let rec = Arc::new(Recorder::with_time_source(1, &ObsConfig::enabled(), src));
        self.recorder = Some(Arc::clone(&rec));
        rec
    }

    /// Schedules a hot swap: at virtual time `at`, `supply` is invoked
    /// (typically joining a background training thread) and its model
    /// published at the next batch boundary. Wall-clock blocking inside
    /// `supply` does not advance virtual time, so responses stay
    /// deterministic no matter how slow the background trainer is.
    pub fn schedule_swap(
        &mut self,
        at: Duration,
        supply: impl FnOnce() -> CompiledModel + Send + 'static,
    ) {
        self.swaps.push(SwapEntry {
            // Saturate: a time past u64::MAX ns (~584 years) never comes.
            at_ns: u64::try_from(at.as_nanos()).unwrap_or(u64::MAX),
            supply: Box::new(supply),
        });
    }

    /// Runs the full stream to completion (every admitted request is
    /// answered; the forming queue drains through deadline flushes) and
    /// returns the deterministic report.
    ///
    /// # Panics
    /// Panics if `arrivals` is not sorted by `at_ns` or a request row is
    /// out of range for the request table.
    pub fn run(&mut self, arrivals: &[Arrival]) -> FrontReport {
        assert!(
            arrivals.windows(2).all(|w| w[0].at_ns <= w[1].at_ns),
            "arrivals must be time-sorted"
        );
        let n_rows = self.table.n_rows() as u32;
        assert!(
            arrivals.iter().all(|a| a.row < n_rows),
            "request row out of table range"
        );
        let mut swaps = std::mem::take(&mut self.swaps);
        swaps.sort_by_key(|s| s.at_ns);

        let mut st = RunState {
            cfg: self.cfg.clone(),
            // Saturated like every sum built from it: a budget past
            // u64::MAX ns is one that no deadline reaches.
            budget: u64::try_from(self.cfg.latency_budget.as_nanos()).unwrap_or(u64::MAX),
            registry: Arc::clone(&self.registry),
            table: Arc::clone(&self.table),
            stats: Arc::clone(&self.stats),
            recorder: self.recorder.clone(),
            swaps: swaps.into(),
            queue: VecDeque::new(),
            in_flight: VecDeque::new(),
            rows: Vec::new(),
            spare_members: Vec::new(),
            busy_until: 0,
            target: self.cfg.max_batch,
            batch_seq: 0,
            // Every arrival ends as at most one response: reserving them
            // once spares the log its doubling copies and the moment both
            // copies are live.
            report: FrontReport {
                responses: Vec::with_capacity(arrivals.len()),
                ..FrontReport::default()
            },
        };

        let mut i = 0usize;
        loop {
            // The three event sources; tie order: completion, then
            // deadline flush, then arrival — a flush at t never includes a
            // request arriving at the same instant.
            let deadline = (st.queue.front()).map(|p| p.admit_ns.saturating_add(st.budget));
            let candidates = [
                (st.in_flight.front().map(|f| f.done_ns), 0u8),
                (deadline, 1),
                (arrivals.get(i).map(|a| a.at_ns), 2),
            ];
            let Some((now, pri)) = candidates
                .iter()
                .filter_map(|&(t, p)| t.map(|t| (t, p)))
                .min()
            else {
                break;
            };
            self.clock.advance_to(now);
            match pri {
                0 => st.on_completion(now),
                1 => {
                    st.cut(now, Trigger::Deadline);
                    st.cut_while_full(now);
                }
                _ => {
                    st.on_arrival(now, &arrivals[i]);
                    i += 1;
                }
            }
        }
        st.report
    }
}

/// All mutable per-run state, so the cut path can be shared between the
/// full trigger, the deadline trigger and post-completion cascades.
struct RunState {
    cfg: FrontConfig,
    budget: u64,
    registry: Arc<ModelRegistry>,
    table: Arc<DataTable>,
    stats: Arc<FrontStats>,
    recorder: Option<Arc<Recorder>>,
    /// Scheduled swaps not yet applied, earliest first.
    swaps: VecDeque<SwapEntry>,
    queue: VecDeque<Pending>,
    in_flight: VecDeque<Flight>,
    /// Scratch for the row ids of the batch being cut, reused across cuts.
    rows: Vec<u32>,
    /// Emptied [`Flight::members`] buffers of completed batches, handed to
    /// the next cuts so a steady stream allocates none.
    spare_members: Vec<Vec<(u64, u64)>>,
    busy_until: u64,
    target: usize,
    batch_seq: u32,
    report: FrontReport,
}

impl RunState {
    fn record(&self, ev: Event) {
        if let Some(rec) = &self.recorder {
            rec.record(0, ev);
        }
    }

    fn on_arrival(&mut self, now: u64, a: &Arrival) {
        self.stats.requests.inc();
        if self.queue.len() >= self.cfg.queue_cap {
            // Next guaranteed drain of the forming queue: the oldest
            // request's deadline flush.
            let drain = (self.queue.front()).map(|p| p.admit_ns.saturating_add(self.budget));
            self.shed(
                a,
                RejectReason::QueueFull,
                drain.map_or(0, |d| d.saturating_sub(now)),
            );
            return;
        }
        // Pessimistic completion chain of everything already admitted:
        // executor busy, then the queue drained in worst-case batches of
        // exactly `target` rows, each cut no earlier than its oldest
        // member's deadline. Real flushes only dominate this schedule —
        // they take at least `target` members when that many are queued
        // (the target never shrinks under a non-empty queue, see
        // `resize_target`), trigger no later than the modelled deadline,
        // and amortise more overhead when larger. If even the pessimistic
        // chain ahead of `a`'s own batch finishes inside the budget, the
        // latency invariant holds for `a`.
        let b = self.target;
        let batch_service = self.cfg.service.service_ns(b);
        let mut chain = self.busy_until.max(now);
        for j in 0..self.queue.len() / b {
            let deadline = self.queue[j * b].admit_ns.saturating_add(self.budget);
            chain = chain.max(deadline).saturating_add(batch_service);
        }
        let limit = now.saturating_add(self.budget);
        if chain > limit {
            self.shed(a, RejectReason::Backpressure, chain - limit);
            return;
        }
        self.stats.admitted.inc();
        self.queue.push_back(Pending {
            id: a.id,
            conn: a.conn,
            row: a.row,
            admit_ns: now,
        });
        self.stats.queue_depth.observe(self.queue.len() as u64);
        let span = a.id + 1; // 0 is "no span"
        self.record(Event::SpanOpen {
            trace: span,
            span,
            parent: 0,
            kind: SpanKind::Request,
            subject: a.id,
        });
        self.cut_while_full(now);
    }

    fn shed(&mut self, a: &Arrival, reason: RejectReason, retry_after_ns: u64) {
        match reason {
            RejectReason::QueueFull => self.stats.shed_queue_full.inc(),
            RejectReason::Backpressure => self.stats.shed_backpressure.inc(),
        }
        self.report.sheds.push(Shed {
            id: a.id,
            conn: a.conn,
            at_ns: a.at_ns,
            reason,
            queue_depth: self.queue.len() as u32,
            retry_after_ns,
        });
    }

    /// Cuts full batches while the forming queue is at/over target.
    fn cut_while_full(&mut self, now: u64) {
        while self.queue.len() >= self.target {
            self.cut(now, Trigger::Full);
        }
    }

    /// Cuts one batch of up to `target` oldest requests at virtual `now`.
    fn cut(&mut self, now: u64, trigger: Trigger) {
        // Apply every swap scheduled at or before this boundary — the only
        // place the active model can change, hence per-batch atomicity.
        while self.swaps.front().is_some_and(|s| s.at_ns <= now) {
            let entry = self.swaps.pop_front().expect("front was just seen");
            let epoch = self.registry.publish((entry.supply)());
            self.stats.swaps.inc();
            self.report.swaps.push(SwapRecord { at_ns: now, epoch });
        }

        let k = self.queue.len().min(self.target);
        debug_assert!(k > 0, "cut on an empty queue");
        self.rows.clear();
        self.rows.extend(self.queue.iter().take(k).map(|p| p.row));

        // One atomic registry read per batch; `model` is held for the
        // whole score, so a concurrent publish cannot tear it.
        // The batch is scored where its rows lie: the engine images the
        // listed rows straight from the request table.
        let (epoch, model) = self.registry.active();
        let rows = Rows::Ids(&self.rows);
        let scores: Vec<Score> = match self.table.schema().task {
            Task::Classification { .. } => model
                .predict_labels_rows(&self.table, rows)
                .into_iter()
                .map(Score::Label)
                .collect(),
            Task::Regression => model
                .predict_values_rows(&self.table, rows)
                .into_iter()
                .map(Score::Value)
                .collect(),
        };

        let start = now.max(self.busy_until);
        let done = start.saturating_add(self.cfg.service.service_ns(k));
        self.busy_until = done;
        let batch = self.batch_seq;
        self.batch_seq += 1;

        self.stats.batches.inc();
        self.stats.batch_rows.observe(k as u64);
        self.report.batches += 1;
        match trigger {
            Trigger::Full => {
                self.stats.full_flushes.inc();
                self.report.full_flushes += 1;
            }
            Trigger::Deadline => {
                self.stats.deadline_flushes.inc();
                self.report.deadline_flushes += 1;
            }
        }

        let mut members = self.spare_members.pop().unwrap_or_default();
        debug_assert_eq!(scores.len(), k);
        for score in scores {
            let p = self.queue.pop_front().expect("k <= queue length");
            let span = p.id + 1;
            self.record(Event::SpanActive { span, node: 0 });
            members.push((span, p.admit_ns));
            self.report.responses.push(Response {
                id: p.id,
                conn: p.conn,
                row: p.row,
                epoch,
                admit_ns: p.admit_ns,
                dispatch_ns: now,
                done_ns: done,
                batch,
                batch_rows: k as u32,
                score,
            });
        }
        self.in_flight.push_back(Flight {
            done_ns: done,
            members,
        });
    }

    fn on_completion(&mut self, now: u64) {
        let mut flight = self.in_flight.pop_front().expect("completion event");
        debug_assert_eq!(flight.done_ns, now);
        for (span, admit_ns) in flight.members.drain(..) {
            let latency = now - admit_ns;
            self.stats.latency_us.observe(latency / 1_000);
            self.stats.feed.record_request(latency);
            self.record(Event::SpanClose { span });
        }
        self.spare_members.push(flight.members);
        if self.cfg.adaptive_batch {
            self.resize_target();
        }
    }

    /// Floats the batch target on the rolling request-latency p95: tails
    /// within 25% of the budget double it (amortise overhead — under
    /// pressure, throughput is the lever), tails under a quarter of the
    /// budget halve it (freshness is cheap). Shrinking is deferred until
    /// the forming queue is empty: every queued request was admitted
    /// against a pessimistic drain in `target`-sized batches, and a
    /// mid-queue shrink could fragment that drain into more per-batch
    /// overheads than admission accounted for, voiding the latency
    /// invariant. Growth is always safe — bigger batches only amortise.
    fn resize_target(&mut self) {
        let p95 = self.stats.feed.request().p95_ns;
        if p95.saturating_mul(4) > self.budget.saturating_mul(3) {
            self.target = (self.target * 2).min(self.cfg.max_batch);
        } else if p95.saturating_mul(4) < self.budget && self.queue.is_empty() {
            self.target = (self.target / 2).max(self.cfg.min_batch);
        }
    }
}
