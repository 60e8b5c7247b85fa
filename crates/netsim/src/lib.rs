//! In-process cluster simulation.
//!
//! The paper evaluates TreeServer on a 15-machine cluster with 1 GigE
//! links. This crate substitutes an in-process simulation (see DESIGN.md §2):
//! every "machine" is a set of real OS threads, machines exchange typed
//! messages over [`tschan`] channels, and every send is
//!
//! 1. **accounted** — payload bytes are charged to the sender's Send counter
//!    and the receiver's Recv counter (giving the paper's per-machine
//!    Send/Recv workload and Mbps figures), and
//! 2. **paced** — an optional [`NetModel`] sleeps the sending thread for
//!    `latency + bytes / bandwidth`, which serialises a machine's outbound
//!    traffic exactly like a shared NIC does. This is what recreates the
//!    master-outbound bottleneck of §V and the send-throughput saturation of
//!    Table VI at laptop scale.
//!
//! The paper's two channel types ("Task Comm." master↔workers and "Data
//! Comm." worker↔worker, Fig. 6) map to two [`Fabric`] instances sharing one
//! [`NetStats`].
//!
//! [`NetStats`] also aggregates per-machine *busy time* reported by compute
//! threads, from which the experiments derive the paper's "average CPU rate"
//! (e.g. 837% = 8.37 cores busy).

mod fault;

pub use fault::{FaultDecision, FaultPlan, SimClock};

use fault::FaultState;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tschan::sync::Mutex;
use tschan::{unbounded, Receiver, RecvError, Sender};

/// Identifies a machine in the simulated cluster. The engine uses `0` for
/// the master and `1..=w` for workers.
pub type NodeId = usize;

/// A message with a known payload size, so the fabric can account and pace it.
pub trait WireSized {
    /// Approximate serialized size in bytes.
    fn wire_bytes(&self) -> usize;

    /// The causal span context the message carries, if any. The reliable
    /// fabric reads it to attribute retransmissions and duplicate drops to
    /// the originating span; defaults to [`TraceCtx::NONE`] for payloads
    /// outside any trace (heartbeats, raw test messages).
    fn trace_ctx(&self) -> ts_obs::TraceCtx {
        ts_obs::TraceCtx::NONE
    }
}

/// The link model applied to every non-local send.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetModel {
    /// Link bandwidth in bytes/second; `None` disables the bandwidth sleep.
    pub bandwidth_bytes_per_sec: Option<f64>,
    /// Fixed per-message latency.
    pub latency: Duration,
}

impl NetModel {
    /// No pacing at all: accounting only. Unit tests use this.
    pub fn instant() -> NetModel {
        NetModel {
            bandwidth_bytes_per_sec: None,
            latency: Duration::ZERO,
        }
    }

    /// The paper's testbed link: 1 GigE (~125 MB/s) with a small fixed
    /// per-message latency.
    pub fn gige() -> NetModel {
        NetModel {
            bandwidth_bytes_per_sec: Some(125_000_000.0),
            latency: Duration::from_micros(200),
        }
    }

    /// A deliberately slow link for tests that need visible contention.
    pub fn slow(bytes_per_sec: f64, latency: Duration) -> NetModel {
        NetModel {
            bandwidth_bytes_per_sec: Some(bytes_per_sec),
            latency,
        }
    }

    /// The transmission delay this model assigns to a payload.
    pub fn delay_for(&self, bytes: usize) -> Duration {
        let bw = match self.bandwidth_bytes_per_sec {
            Some(b) if b > 0.0 && b.is_finite() => Duration::from_secs_f64(bytes as f64 / b),
            _ => Duration::ZERO,
        };
        self.latency + bw
    }
}

/// Per-machine counters, shared across fabrics.
#[derive(Debug)]
struct NodeCounters {
    sent_bytes: AtomicU64,
    recv_bytes: AtomicU64,
    sent_msgs: AtomicU64,
    recv_msgs: AtomicU64,
    busy_ns: AtomicU64,
    mem_current: AtomicU64,
    mem_peak: AtomicU64,
}

impl NodeCounters {
    fn new() -> Self {
        NodeCounters {
            sent_bytes: AtomicU64::new(0),
            recv_bytes: AtomicU64::new(0),
            sent_msgs: AtomicU64::new(0),
            recv_msgs: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            mem_current: AtomicU64::new(0),
            mem_peak: AtomicU64::new(0),
        }
    }
}

/// A point-in-time snapshot of one machine's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, tsjson::Serialize)]
pub struct NodeSnapshot {
    /// Total payload bytes sent.
    pub sent_bytes: u64,
    /// Total payload bytes received.
    pub recv_bytes: u64,
    /// Messages sent.
    pub sent_msgs: u64,
    /// Messages received.
    pub recv_msgs: u64,
    /// Nanoseconds of compute-thread busy time.
    pub busy_ns: u64,
    /// Peak tracked task memory in bytes.
    pub mem_peak: u64,
}

impl std::fmt::Display for NodeSnapshot {
    /// Paper units: megabytes for traffic and memory, seconds for busy time.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sent {:>9.2} MB ({:>6} msgs)  recv {:>9.2} MB ({:>6} msgs)  busy {:>7.2} s  peak mem {:>8.2} MB",
            self.sent_bytes as f64 / 1e6,
            self.sent_msgs,
            self.recv_bytes as f64 / 1e6,
            self.recv_msgs,
            self.busy_ns as f64 / 1e9,
            self.mem_peak as f64 / 1e6,
        )
    }
}

/// Cluster-wide statistics: communication counters, compute busy time and
/// task-memory watermarks per machine.
#[derive(Debug)]
pub struct NetStats {
    nodes: Vec<NodeCounters>,
    started: Instant,
    /// The attached event recorder, set once by whoever launches the
    /// cluster. Living on `NetStats` lets every engine thread reach it
    /// without new constructor parameters: they all already share the stats.
    #[cfg(feature = "obs")]
    recorder: std::sync::OnceLock<Arc<ts_obs::Recorder>>,
}

impl NetStats {
    /// Creates statistics for `n` machines.
    pub fn new(n: usize) -> Arc<NetStats> {
        Arc::new(NetStats {
            nodes: (0..n).map(|_| NodeCounters::new()).collect(),
            started: Instant::now(),
            #[cfg(feature = "obs")]
            recorder: std::sync::OnceLock::new(),
        })
    }

    /// Attaches an event recorder. Later calls are ignored (first one wins).
    #[cfg(feature = "obs")]
    pub fn set_recorder(&self, rec: Arc<ts_obs::Recorder>) {
        let _ = self.recorder.set(rec);
    }

    /// The attached event recorder, if any.
    #[cfg(feature = "obs")]
    pub fn recorder(&self) -> Option<&Arc<ts_obs::Recorder>> {
        self.recorder.get()
    }

    /// Number of machines tracked.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Records a message of `bytes` from `from` to `to`.
    pub fn record_send(&self, from: NodeId, to: NodeId, bytes: usize) {
        self.nodes[from]
            .sent_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.nodes[from].sent_msgs.fetch_add(1, Ordering::Relaxed);
        self.nodes[to]
            .recv_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.nodes[to].recv_msgs.fetch_add(1, Ordering::Relaxed);
        #[cfg(feature = "obs")]
        if let Some(rec) = self.recorder.get() {
            rec.on_net_send(from as u32, to as u32, bytes as u64);
        }
    }

    /// Adds compute busy time for a machine.
    pub fn add_busy(&self, node: NodeId, d: Duration) {
        self.nodes[node]
            .busy_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Tracks a task-memory allocation (subtree data, delegate `Ix` sets ...)
    /// and updates the peak watermark.
    pub fn mem_alloc(&self, node: NodeId, bytes: usize) {
        let cur = self.nodes[node]
            .mem_current
            .fetch_add(bytes as u64, Ordering::Relaxed)
            + bytes as u64;
        self.nodes[node].mem_peak.fetch_max(cur, Ordering::Relaxed);
    }

    /// Releases tracked task memory.
    pub fn mem_free(&self, node: NodeId, bytes: usize) {
        self.nodes[node]
            .mem_current
            .fetch_sub(bytes as u64, Ordering::Relaxed);
    }

    /// Snapshot of one machine's counters.
    pub fn snapshot(&self, node: NodeId) -> NodeSnapshot {
        let c = &self.nodes[node];
        NodeSnapshot {
            sent_bytes: c.sent_bytes.load(Ordering::Relaxed),
            recv_bytes: c.recv_bytes.load(Ordering::Relaxed),
            sent_msgs: c.sent_msgs.load(Ordering::Relaxed),
            recv_msgs: c.recv_msgs.load(Ordering::Relaxed),
            busy_ns: c.busy_ns.load(Ordering::Relaxed),
            mem_peak: c.mem_peak.load(Ordering::Relaxed),
        }
    }

    /// Snapshots for every machine.
    pub fn snapshot_all(&self) -> Vec<NodeSnapshot> {
        (0..self.nodes.len()).map(|i| self.snapshot(i)).collect()
    }

    /// Wall-clock time since the stats were created.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Average busy CPU percentage of a machine over `elapsed` (can exceed
    /// 100 when several compute threads run — the paper reports e.g. 837%).
    pub fn cpu_percent(&self, node: NodeId, elapsed: Duration) -> f64 {
        let busy = self.nodes[node].busy_ns.load(Ordering::Relaxed) as f64;
        if elapsed.is_zero() {
            return 0.0;
        }
        100.0 * busy / elapsed.as_nanos() as f64
    }

    /// Average send throughput of a machine over `elapsed`, in Mbit/s — the
    /// quantity Table VI reports as "Send".
    pub fn send_mbps(&self, node: NodeId, elapsed: Duration) -> f64 {
        let bytes = self.nodes[node].sent_bytes.load(Ordering::Relaxed) as f64;
        if elapsed.is_zero() {
            return 0.0;
        }
        bytes * 8.0 / 1e6 / elapsed.as_secs_f64()
    }
}

/// A guard that reports its lifetime as busy time on drop. Compute threads
/// wrap each task execution in one of these.
pub struct BusyGuard<'a> {
    stats: &'a NetStats,
    node: NodeId,
    start: Instant,
}

impl<'a> BusyGuard<'a> {
    /// Starts a busy interval for `node`.
    pub fn start(stats: &'a NetStats, node: NodeId) -> Self {
        BusyGuard {
            stats,
            node,
            start: Instant::now(),
        }
    }
}

impl Drop for BusyGuard<'_> {
    fn drop(&mut self) {
        self.stats.add_busy(self.node, self.start.elapsed());
    }
}

/// Tuning of the reliable fabric's retransmission machinery. All timers
/// read the fabric's [`SimClock`], so a seeded run's retries replay
/// deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryConfig {
    /// Initial retransmission timeout: how long an unacknowledged frame
    /// waits before its first retry.
    pub rto: Duration,
    /// Cap on the exponential backoff (`rto * 2^attempt`, saturated here).
    pub max_rto: Duration,
    /// Scan granularity of the [`RetryDriver`] thread.
    pub tick: Duration,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            rto: Duration::from_millis(10),
            max_rto: Duration::from_millis(160),
            tick: Duration::from_millis(1),
        }
    }
}

impl RetryConfig {
    /// The backoff before retransmission `attempt` (1-based).
    fn backoff(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(16);
        self.rto
            .saturating_mul(1u32 << shift)
            .min(self.max_rto.max(self.rto))
    }
}

/// The frame a fabric channel actually carries.
#[derive(Debug, Clone)]
enum Packet<M> {
    /// A frame outside the reliable protocol: local sends, every send on a
    /// fabric without message faults, and explicitly unreliable sends such
    /// as heartbeats (see [`Fabric::send_unreliable`]).
    Raw(M),
    /// Reliable frame `seq` on the `(from, to)` edge; retransmitted until
    /// acknowledged, delivered to the application exactly once in order.
    Data { from: NodeId, seq: u64, payload: M },
    /// Acknowledges the reliable frame `seq` that the machine receiving
    /// this packet sent to `from` earlier.
    Ack { from: NodeId, seq: u64 },
}

/// Reliable-protocol overhead: an 8-byte sequence header on data frames and
/// a fixed-size ack control frame.
const SEQ_HDR_BYTES: usize = 8;
const ACK_BYTES: usize = 16;

impl<M: WireSized> WireSized for Packet<M> {
    fn wire_bytes(&self) -> usize {
        match self {
            Packet::Raw(m) => m.wire_bytes(),
            Packet::Data { payload, .. } => payload.wire_bytes() + SEQ_HDR_BYTES,
            Packet::Ack { .. } => ACK_BYTES,
        }
    }
}

/// One reliable frame awaiting acknowledgement.
struct InFlight<M> {
    msg: M,
    attempt: u32,
    due_ns: u64,
}

/// Shared state of a reliable fabric: per-edge sequence counters plus the
/// table of unacknowledged frames the [`RetryDriver`] retransmits from.
struct ReliableState<M> {
    n: usize,
    next_seq: Vec<AtomicU64>,
    inflight: Mutex<HashMap<(NodeId, NodeId, u64), InFlight<M>>>,
    cfg: RetryConfig,
}

impl<M> ReliableState<M> {
    fn new(n: usize, cfg: RetryConfig) -> ReliableState<M> {
        ReliableState {
            n,
            next_seq: (0..n * n).map(|_| AtomicU64::new(0)).collect(),
            inflight: Mutex::new(HashMap::new()),
            cfg,
        }
    }

    /// Takes the next reliable sequence number of the `(from, to)` edge.
    /// Distinct from [`FaultState`]'s counters, which number *physical*
    /// transmissions: a retransmitted frame keeps its reliable `seq` but
    /// gets a fresh fault decision.
    fn take_seq(&self, from: NodeId, to: NodeId) -> u64 {
        self.next_seq[from * self.n + to].fetch_add(1, Ordering::Relaxed)
    }
}

/// Handle to the background thread that retransmits unacknowledged frames
/// of one reliable fabric. Stops (and joins) on [`RetryDriver::stop`] or
/// drop.
pub struct RetryDriver {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl RetryDriver {
    /// Signals the driver thread and waits for it to exit. In-flight frames
    /// are no longer retransmitted afterwards.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for RetryDriver {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One typed message plane connecting all machines (the engine instantiates
/// one for task communication and one for data communication, per Fig. 6).
///
/// Cloneable; all clones share channels, stats and the link model.
pub struct Fabric<M> {
    senders: Vec<Sender<Packet<M>>>,
    model: NetModel,
    stats: Arc<NetStats>,
    clock: SimClock,
    faults: Option<Arc<FaultState>>,
    reliable: Option<Arc<ReliableState<M>>>,
    /// Per-sender outbound-delay multipliers from the fault plan's
    /// heterogeneity script (all 1.0 without one). Kept outside
    /// [`FaultState`] so link heterogeneity applies even when the plan has
    /// no message faults (and hence no fault state).
    bw_scale: Arc<Vec<f64>>,
}

impl<M> Clone for Fabric<M> {
    fn clone(&self) -> Self {
        Fabric {
            senders: self.senders.clone(),
            model: self.model,
            stats: Arc::clone(&self.stats),
            clock: self.clock.clone(),
            faults: self.faults.clone(),
            reliable: self.reliable.clone(),
            bw_scale: Arc::clone(&self.bw_scale),
        }
    }
}

/// Error returned when the destination machine has shut down (its receiver
/// was dropped). The engine treats this as a crashed worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected {
    /// The unreachable machine.
    pub to: NodeId,
}

impl std::fmt::Display for Disconnected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "machine {} is disconnected", self.to)
    }
}

impl std::error::Error for Disconnected {}

impl<M: WireSized + Clone> Fabric<M> {
    /// Creates a fabric over `n` machines sharing `stats`; returns the
    /// cloneable handle plus one receiver per machine.
    pub fn new(
        n: usize,
        model: NetModel,
        stats: Arc<NetStats>,
    ) -> (Fabric<M>, Vec<FabricReceiver<M>>) {
        Self::new_faulty(n, model, stats, None, SimClock::wall())
    }

    /// [`Fabric::new`] plus a fault plan and a time base. Passing
    /// `plan: None` and a wall clock is exactly `new`. The fabric is **raw**:
    /// injected drops really lose messages (no retries) — fabric-level
    /// tests use this; the engine wants [`Fabric::new_reliable`].
    pub fn new_faulty(
        n: usize,
        model: NetModel,
        stats: Arc<NetStats>,
        plan: Option<FaultPlan>,
        clock: SimClock,
    ) -> (Fabric<M>, Vec<FabricReceiver<M>>) {
        Self::build(n, model, stats, plan, clock, None)
    }

    /// A fabric that tolerates its own fault plan: when `plan` enables any
    /// message fault, every remote [`Fabric::send`] becomes a
    /// sequence-numbered frame that is acknowledged by the receiver,
    /// retransmitted with exponential backoff until acked, deduplicated and
    /// reordered back into per-edge FIFO order on delivery. The returned
    /// [`RetryDriver`] (present exactly when the plan has message faults)
    /// owns the retransmission thread and must be kept alive for the
    /// fabric's lifetime.
    ///
    /// Without message faults this is exactly [`Fabric::new_faulty`]: plain
    /// frames, no acks, no overhead.
    pub fn new_reliable(
        n: usize,
        model: NetModel,
        stats: Arc<NetStats>,
        plan: Option<FaultPlan>,
        clock: SimClock,
        retry: RetryConfig,
    ) -> (Fabric<M>, Vec<FabricReceiver<M>>, Option<RetryDriver>)
    where
        M: Send + 'static,
    {
        let reliable = plan.as_ref().is_some_and(|p| p.affects_messages());
        let (fabric, receivers) =
            Self::build(n, model, stats, plan, clock, reliable.then_some(retry));
        let driver = reliable.then(|| fabric.spawn_retry_driver());
        (fabric, receivers, driver)
    }

    fn build(
        n: usize,
        model: NetModel,
        stats: Arc<NetStats>,
        plan: Option<FaultPlan>,
        clock: SimClock,
        retry: Option<RetryConfig>,
    ) -> (Fabric<M>, Vec<FabricReceiver<M>>) {
        assert_eq!(stats.n_nodes(), n, "stats sized for a different cluster");
        let mut senders = Vec::with_capacity(n);
        let mut raw_rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (s, r) = unbounded();
            senders.push(s);
            raw_rxs.push(r);
        }
        let bw_scale = Arc::new(
            (0..n)
                .map(|m| plan.as_ref().map_or(1.0, |p| p.bandwidth_scale(m)))
                .collect::<Vec<f64>>(),
        );
        let faults = plan
            .filter(|p| p.affects_messages())
            .map(|p| Arc::new(FaultState::new(p, n)));
        let reliable = retry.map(|cfg| Arc::new(ReliableState::new(n, cfg)));
        let fabric = Fabric {
            senders,
            model,
            stats,
            clock,
            faults,
            reliable,
            bw_scale,
        };
        let receivers = raw_rxs
            .into_iter()
            .enumerate()
            .map(|(node, rx)| FabricReceiver::new(node, n, rx, fabric.clone()))
            .collect();
        (fabric, receivers)
    }

    /// Sends `msg` from `from` to `to`.
    ///
    /// Local sends (`from == to`) are free: no accounting, no pacing —
    /// mirroring the paper's "skipping communication when the requested data
    /// is local". Remote sends charge the counters and sleep the calling
    /// thread per the link model; with a fault plan attached they may also
    /// be dropped, delayed or duplicated (decided purely from the plan's
    /// seed and the message's per-edge sequence number). On a reliable
    /// fabric the frame is additionally tracked until the receiver
    /// acknowledges it, so an injected drop only costs a retransmission.
    pub fn send(&self, from: NodeId, to: NodeId, msg: M) -> Result<(), Disconnected> {
        if from == to {
            return self.push(to, Packet::Raw(msg));
        }
        match &self.reliable {
            Some(rel) => {
                let seq = rel.take_seq(from, to);
                rel.inflight.lock().insert(
                    (from, to, seq),
                    InFlight {
                        msg: msg.clone(),
                        attempt: 0,
                        due_ns: self.clock.now_ns() + rel.cfg.rto.as_nanos() as u64,
                    },
                );
                let sent = self.transmit(
                    from,
                    to,
                    Packet::Data {
                        from,
                        seq,
                        payload: msg,
                    },
                    true,
                );
                if sent.is_err() {
                    rel.inflight.lock().remove(&(from, to, seq));
                }
                sent
            }
            None => self.transmit(from, to, Packet::Raw(msg), true),
        }
    }

    /// Sends outside the reliable protocol: the message is accounted, paced
    /// and fault-decided like any other, but never acked or retransmitted,
    /// and bypasses the receiver's ordering buffer. This is what heartbeats
    /// want — a lost heartbeat must stay lost (retrying a dead worker's
    /// backlog would defeat the detector), and a heartbeat must not wait
    /// behind buffered out-of-order data frames.
    pub fn send_unreliable(&self, from: NodeId, to: NodeId, msg: M) -> Result<(), Disconnected> {
        if from == to {
            return self.push(to, Packet::Raw(msg));
        }
        self.transmit(from, to, Packet::Raw(msg), true)
    }

    /// Acks are control frames: fault-droppable (the sender then simply
    /// retransmits and gets re-acked) and byte-accounted, but not paced —
    /// pacing models payload serialisation, and charging a 16-byte ack the
    /// full per-message latency would stall the engine's receive threads.
    fn send_ack(&self, from: NodeId, to: NodeId, seq: u64) {
        let _ = self.transmit(from, to, Packet::Ack { from, seq }, false);
    }

    /// One physical transmission attempt: fault decision, accounting,
    /// optional pacing, channel push.
    fn transmit(
        &self,
        from: NodeId,
        to: NodeId,
        pkt: Packet<M>,
        pace: bool,
    ) -> Result<(), Disconnected> {
        let mut copies = 1;
        if let Some(faults) = &self.faults {
            let seq = faults.next_seq(from, to);
            match faults.plan.decide(from, to, seq) {
                FaultDecision::Deliver => {}
                FaultDecision::Drop => {
                    #[cfg(feature = "obs")]
                    if let Some(rec) = self.stats.recorder() {
                        rec.record(
                            from as u32,
                            ts_obs::Event::MessageDropped {
                                from: from as u32,
                                to: to as u32,
                                seq,
                            },
                        );
                    }
                    // The message is lost in transit: the sender still
                    // paid for it, the receiver never sees it.
                    self.stats.record_send(from, to, pkt.wire_bytes());
                    return Ok(());
                }
                FaultDecision::Delay(extra) => {
                    #[cfg(feature = "obs")]
                    if let Some(rec) = self.stats.recorder() {
                        rec.record(
                            from as u32,
                            ts_obs::Event::MessageDelayed {
                                from: from as u32,
                                to: to as u32,
                                seq,
                                delay_ns: extra.as_nanos() as u64,
                            },
                        );
                    }
                    self.clock.sleep(extra);
                }
                FaultDecision::Duplicate => copies = 2,
            }
        }
        let bytes = pkt.wire_bytes();
        for copy in 0..copies {
            self.stats.record_send(from, to, bytes);
            if pace {
                let mut delay = self.model.delay_for(bytes);
                // Link heterogeneity: a machine with a scripted bandwidth
                // scale serialises its outbound traffic that much slower
                // (or faster) than the uniform link model.
                let scale = self.bw_scale.get(from).copied().unwrap_or(1.0);
                if scale != 1.0 {
                    delay = delay.mul_f64(scale);
                }
                if !delay.is_zero() {
                    self.clock.sleep(delay);
                }
            }
            let frame = if copy + 1 < copies {
                pkt.clone()
            } else {
                // Last copy moves the original; `break` keeps the borrow
                // checker happy about using `pkt` after this.
                return self.push(to, pkt);
            };
            self.push(to, frame)?;
        }
        Ok(())
    }

    fn push(&self, to: NodeId, pkt: Packet<M>) -> Result<(), Disconnected> {
        self.senders[to].send(pkt).map_err(|_| Disconnected { to })
    }

    /// Spawns the thread that retransmits overdue in-flight frames.
    fn spawn_retry_driver(&self) -> RetryDriver
    where
        M: Send + 'static,
    {
        let fabric = self.clone();
        let tick = self
            .reliable
            .as_ref()
            .expect("retry driver needs a reliable fabric")
            .cfg
            .tick;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("fabric-retry".into())
            .spawn(move || {
                while !stop_flag.load(Ordering::Relaxed) {
                    std::thread::sleep(tick);
                    fabric.retransmit_due();
                }
            })
            .expect("spawn fabric-retry");
        RetryDriver {
            stop,
            handle: Some(handle),
        }
    }

    /// Retransmits every in-flight frame whose timer expired, bumping its
    /// attempt count and pushing its next deadline out exponentially.
    fn retransmit_due(&self) {
        let Some(rel) = &self.reliable else { return };
        let now = self.clock.now_ns();
        let mut due = Vec::new();
        {
            let mut table = rel.inflight.lock();
            for (&(from, to, seq), entry) in table.iter_mut() {
                if entry.due_ns <= now {
                    entry.attempt += 1;
                    entry.due_ns = now + rel.cfg.backoff(entry.attempt).as_nanos() as u64;
                    due.push((from, to, seq, entry.msg.clone(), entry.attempt));
                }
            }
        }
        // HashMap iteration order is run-dependent; emit in edge/seq order
        // so a seeded replay sees the same retransmission sequence.
        due.sort_by_key(|&(from, to, seq, _, _)| (from, to, seq));
        for (from, to, seq, msg, attempt) in due {
            #[cfg(feature = "obs")]
            if let Some(rec) = self.stats.recorder() {
                rec.record(
                    from as u32,
                    ts_obs::Event::RetrySent {
                        from: from as u32,
                        to: to as u32,
                        seq,
                        attempt,
                        // A retransmission stays attributed to the span of
                        // the payload it re-carries.
                        span: msg.trace_ctx().span.0,
                    },
                );
            }
            #[cfg(not(feature = "obs"))]
            let _ = attempt;
            let frame = Packet::Data {
                from,
                seq,
                payload: msg,
            };
            if self.transmit(from, to, frame, true).is_err() {
                // The destination shut down; nothing will ever ack this.
                rel.inflight.lock().remove(&(from, to, seq));
            }
        }
    }

    /// Number of reliable frames currently awaiting acknowledgement
    /// (0 on a raw fabric).
    pub fn inflight_frames(&self) -> usize {
        self.reliable
            .as_ref()
            .map_or(0, |rel| rel.inflight.lock().len())
    }

    /// The fabric's time base.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The attached fault plan, if any message faults are enabled.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_deref().map(|f| &f.plan)
    }

    /// The shared statistics.
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }

    /// The link model.
    pub fn model(&self) -> NetModel {
        self.model
    }
}

/// Per-sender reassembly state of one receiving machine.
struct EdgeRecv<M> {
    /// The next reliable sequence number to release to the application.
    next_expected: u64,
    /// Frames that arrived ahead of `next_expected` (retransmission races,
    /// injected reorderings), held until the gap fills.
    pending: BTreeMap<u64, M>,
}

struct RecvState<M> {
    /// Messages ready for the application, in delivery order.
    ready: VecDeque<M>,
    /// Reassembly state per sending machine.
    edges: Vec<EdgeRecv<M>>,
}

/// The receiving end of one machine's fabric channel.
///
/// On a raw fabric this is a thin pass-through. On a reliable fabric it
/// acknowledges every data frame (including re-received ones — the previous
/// ack may itself have been dropped), discards duplicates, and buffers
/// out-of-order frames so the application observes each edge's messages
/// exactly once, in send order.
pub struct FabricReceiver<M> {
    node: NodeId,
    rx: Receiver<Packet<M>>,
    fabric: Fabric<M>,
    state: Mutex<RecvState<M>>,
}

impl<M: WireSized + Clone> FabricReceiver<M> {
    fn new(node: NodeId, n: usize, rx: Receiver<Packet<M>>, fabric: Fabric<M>) -> Self {
        FabricReceiver {
            node,
            rx,
            fabric,
            state: Mutex::new(RecvState {
                ready: VecDeque::new(),
                edges: (0..n)
                    .map(|_| EdgeRecv {
                        next_expected: 0,
                        pending: BTreeMap::new(),
                    })
                    .collect(),
            }),
        }
    }

    /// The machine this receiver belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Takes the next application message, blocking while none is ready.
    pub fn recv(&self) -> Result<M, RecvError> {
        loop {
            if let Some(m) = self.state.lock().ready.pop_front() {
                return Ok(m);
            }
            let pkt = self.rx.recv()?;
            self.process(pkt);
        }
    }

    /// [`FabricReceiver::recv`] that gives up after `timeout` (wall time):
    /// `Ok(None)` when no application message became ready that long.
    /// Frames that produce none — acks, duplicates, out-of-order data —
    /// are processed and the wait goes on to the same deadline.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<M>, RecvError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(m) = self.state.lock().ready.pop_front() {
                return Ok(Some(m));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(left)? {
                Some(pkt) => self.process(pkt),
                None => return Ok(None),
            }
        }
    }

    /// Takes the next application message if one can be produced without
    /// blocking.
    pub fn try_recv(&self) -> Option<M> {
        loop {
            if let Some(m) = self.state.lock().ready.pop_front() {
                return Some(m);
            }
            let pkt = self.rx.try_iter().next()?;
            self.process(pkt);
        }
    }

    /// Drains currently-deliverable messages without blocking.
    pub fn try_iter(&self) -> impl Iterator<Item = M> + '_ {
        std::iter::from_fn(move || self.try_recv())
    }

    fn process(&self, pkt: Packet<M>) {
        match pkt {
            Packet::Raw(m) => self.state.lock().ready.push_back(m),
            Packet::Data { from, seq, payload } => {
                // Ack unconditionally: for a re-received frame the original
                // ack may have been lost in transit.
                self.fabric.send_ack(self.node, from, seq);
                let mut st = self.state.lock();
                let RecvState { ready, edges } = &mut *st;
                let edge = &mut edges[from];
                if seq < edge.next_expected {
                    self.note_duplicate(from, seq, payload.trace_ctx().span.0);
                } else if seq == edge.next_expected {
                    edge.next_expected += 1;
                    ready.push_back(payload);
                    while let Some(next) = edge.pending.remove(&edge.next_expected) {
                        edge.next_expected += 1;
                        ready.push_back(next);
                    }
                } else if let Some(old) = edge.pending.insert(seq, payload) {
                    // Same (from, seq) => same frame => same span.
                    self.note_duplicate(from, seq, old.trace_ctx().span.0);
                }
            }
            Packet::Ack { from, seq } => {
                if let Some(rel) = &self.fabric.reliable {
                    rel.inflight.lock().remove(&(self.node, from, seq));
                }
            }
        }
    }

    #[cfg_attr(not(feature = "obs"), allow(unused_variables))]
    fn note_duplicate(&self, from: NodeId, seq: u64, span: u64) {
        #[cfg(feature = "obs")]
        if let Some(rec) = self.fabric.stats.recorder() {
            rec.record(
                self.node as u32,
                ts_obs::Event::DupDropped {
                    node: self.node as u32,
                    from: from as u32,
                    seq,
                    span,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Msg(Vec<u8>);

    impl WireSized for Msg {
        fn wire_bytes(&self) -> usize {
            self.0.len()
        }
    }

    fn setup(n: usize, model: NetModel) -> (Fabric<Msg>, Vec<FabricReceiver<Msg>>, Arc<NetStats>) {
        let stats = NetStats::new(n);
        let (f, r) = Fabric::new(n, model, Arc::clone(&stats));
        (f, r, stats)
    }

    #[test]
    fn send_delivers_and_accounts() {
        let (f, r, stats) = setup(3, NetModel::instant());
        f.send(0, 2, Msg(vec![0; 100])).unwrap();
        assert_eq!(r[2].recv().unwrap(), Msg(vec![0; 100]));
        let s0 = stats.snapshot(0);
        let s2 = stats.snapshot(2);
        assert_eq!(s0.sent_bytes, 100);
        assert_eq!(s0.sent_msgs, 1);
        assert_eq!(s2.recv_bytes, 100);
        assert_eq!(s2.recv_msgs, 1);
        assert_eq!(stats.snapshot(1), NodeSnapshot::default());
    }

    #[test]
    fn local_send_is_free() {
        let (f, r, stats) = setup(2, NetModel::gige());
        let t = Instant::now();
        f.send(1, 1, Msg(vec![0; 1_000_000])).unwrap();
        assert!(
            t.elapsed() < Duration::from_millis(50),
            "local send must not pace"
        );
        assert_eq!(stats.snapshot(1).sent_bytes, 0);
        assert_eq!(r[1].recv().unwrap().0.len(), 1_000_000);
    }

    #[test]
    fn bandwidth_model_paces_sender() {
        // 1 MB at 10 MB/s => >= 100 ms.
        let model = NetModel::slow(10_000_000.0, Duration::ZERO);
        let (f, _r, _stats) = setup(2, model);
        let t = Instant::now();
        f.send(0, 1, Msg(vec![0; 1_000_000])).unwrap();
        assert!(
            t.elapsed() >= Duration::from_millis(95),
            "took {:?}",
            t.elapsed()
        );
    }

    #[test]
    fn bandwidth_scale_slows_one_senders_link() {
        // 100 KB at 10 MB/s is 10 ms; node 0's link is scripted 4x slower.
        let model = NetModel::slow(10_000_000.0, Duration::ZERO);
        let stats = NetStats::new(2);
        let plan = FaultPlan::new(1).with_bandwidth_scale(0, 4.0);
        let clock = SimClock::virtual_at(0);
        let (f, _r) = Fabric::<Msg>::new_faulty(2, model, stats, Some(plan), clock.clone());
        f.send(0, 1, Msg(vec![0; 100_000])).unwrap();
        let scaled = clock.now_ns();
        assert!(
            (35_000_000..=45_000_000).contains(&scaled),
            "4x-scaled 10 ms transfer took {scaled} ns"
        );
        f.send(1, 0, Msg(vec![0; 100_000])).unwrap();
        let unscaled = clock.now_ns() - scaled;
        assert!(
            (8_000_000..=12_000_000).contains(&unscaled),
            "unscripted sender keeps the uniform link, took {unscaled} ns"
        );
    }

    #[test]
    fn latency_applies_per_message() {
        let model = NetModel::slow(f64::INFINITY, Duration::from_millis(10));
        let (f, _r, _stats) = setup(2, model);
        let t = Instant::now();
        for _ in 0..3 {
            f.send(0, 1, Msg(vec![0; 1])).unwrap();
        }
        assert!(t.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn disconnected_receiver_reports_error() {
        let (f, r, _stats) = setup(2, NetModel::instant());
        drop(r.into_iter().nth(1));
        let err = f.send(0, 1, Msg(vec![1])).unwrap_err();
        assert_eq!(err, Disconnected { to: 1 });
    }

    #[test]
    fn busy_guard_accumulates() {
        let stats = NetStats::new(1);
        {
            let _g = BusyGuard::start(&stats, 0);
            std::thread::sleep(Duration::from_millis(20));
        }
        let busy = stats.snapshot(0).busy_ns;
        assert!(busy >= 15_000_000, "busy {busy} ns");
        let pct = stats.cpu_percent(0, Duration::from_millis(40));
        assert!(pct > 25.0, "cpu% {pct}");
    }

    #[test]
    fn memory_watermark_tracks_peak() {
        let stats = NetStats::new(1);
        stats.mem_alloc(0, 100);
        stats.mem_alloc(0, 200);
        stats.mem_free(0, 100);
        stats.mem_alloc(0, 50);
        let snap = stats.snapshot(0);
        assert_eq!(snap.mem_peak, 300);
    }

    #[test]
    fn send_mbps_is_computed_from_bytes() {
        let (f, _r, stats) = setup(2, NetModel::instant());
        f.send(0, 1, Msg(vec![0; 1_000_000])).unwrap();
        let mbps = stats.send_mbps(0, Duration::from_secs(1));
        assert!((mbps - 8.0).abs() < 1e-9, "1 MB/s = 8 Mbps, got {mbps}");
    }

    #[test]
    fn record_send_charges_both_endpoints_symmetrically() {
        let stats = NetStats::new(3);
        stats.record_send(0, 2, 100);
        stats.record_send(0, 2, 50);
        stats.record_send(2, 0, 25);
        let s0 = stats.snapshot(0);
        let s2 = stats.snapshot(2);
        assert_eq!(s0.sent_bytes, 150);
        assert_eq!(s0.sent_msgs, 2);
        assert_eq!(s0.recv_bytes, 25);
        assert_eq!(s0.recv_msgs, 1);
        assert_eq!(s2.recv_bytes, s0.sent_bytes);
        assert_eq!(s2.recv_msgs, s0.sent_msgs);
        assert_eq!(s2.sent_bytes, s0.recv_bytes);
        assert_eq!(stats.snapshot(1), NodeSnapshot::default());
    }

    #[test]
    fn mem_peak_is_a_true_watermark() {
        let stats = NetStats::new(1);
        stats.mem_alloc(0, 1000);
        stats.mem_free(0, 1000);
        // Re-allocating less than the old peak must not move it.
        stats.mem_alloc(0, 10);
        assert_eq!(stats.snapshot(0).mem_peak, 1000);
        // Exceeding it must.
        stats.mem_alloc(0, 2000);
        assert_eq!(stats.snapshot(0).mem_peak, 2010);
    }

    #[test]
    fn rates_at_zero_elapsed_are_zero_not_nan() {
        let stats = NetStats::new(1);
        stats.add_busy(0, Duration::from_secs(1));
        stats.record_send(0, 0, 0); // self-accounting is allowed directly
        let cpu = stats.cpu_percent(0, Duration::ZERO);
        let mbps = stats.send_mbps(0, Duration::ZERO);
        assert_eq!(cpu, 0.0, "cpu_percent at zero elapsed must be 0, got {cpu}");
        assert_eq!(mbps, 0.0, "send_mbps at zero elapsed must be 0, got {mbps}");
        assert!(cpu.is_finite() && mbps.is_finite());
    }

    #[test]
    fn node_snapshot_display_uses_paper_units() {
        let snap = NodeSnapshot {
            sent_bytes: 2_500_000,
            recv_bytes: 1_000_000,
            sent_msgs: 10,
            recv_msgs: 4,
            busy_ns: 1_500_000_000,
            mem_peak: 3_000_000,
        };
        let s = snap.to_string();
        assert!(s.contains("2.50 MB"), "{s}");
        assert!(s.contains("1.50 s"), "{s}");
        assert!(s.contains("3.00 MB"), "{s}");
    }

    #[test]
    fn concurrent_sends_from_many_threads() {
        let (f, r, stats) = setup(4, NetModel::instant());
        let mut handles = Vec::new();
        for from in 0..4usize {
            let f = f.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    f.send(from, (from + 1) % 4, Msg(vec![0; i])).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total_recv: usize = (0..4).map(|i| r[i].try_iter().count()).sum();
        assert_eq!(total_recv, 400);
        let sent: u64 = (0..4).map(|i| stats.snapshot(i).sent_msgs).sum();
        assert_eq!(sent, 400);
    }

    #[test]
    fn delay_for_combines_latency_and_bandwidth() {
        let m = NetModel::slow(1000.0, Duration::from_millis(5));
        let d = m.delay_for(1000);
        assert_eq!(d, Duration::from_millis(1005));
        assert_eq!(NetModel::instant().delay_for(1 << 30), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "stats sized")]
    fn mismatched_stats_size_panics() {
        let stats = NetStats::new(2);
        let _ = Fabric::<Msg>::new(3, NetModel::instant(), stats);
    }

    /// A reliable fabric setup with a fast retry clock for tests.
    fn reliable(
        n: usize,
        plan: FaultPlan,
    ) -> (
        Fabric<Msg>,
        Vec<FabricReceiver<Msg>>,
        Option<RetryDriver>,
        Arc<NetStats>,
    ) {
        let stats = NetStats::new(n);
        let retry = RetryConfig {
            rto: Duration::from_millis(2),
            max_rto: Duration::from_millis(20),
            tick: Duration::from_millis(1),
        };
        let (f, r, d) = Fabric::new_reliable(
            n,
            NetModel::instant(),
            Arc::clone(&stats),
            Some(plan),
            SimClock::wall(),
            retry,
        );
        (f, r, d, stats)
    }

    /// Drains `want` messages from `rx`, waiting out retransmission gaps.
    fn drain(rx: &FabricReceiver<Msg>, want: usize) -> Vec<Msg> {
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut got = Vec::new();
        while got.len() < want {
            match rx.try_recv() {
                Some(m) => got.push(m),
                None => {
                    assert!(Instant::now() < deadline, "only {} of {want}", got.len());
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
        got
    }

    #[test]
    fn reliable_fabric_recovers_dropped_messages_in_order() {
        let plan = FaultPlan::new(0xD0D0).with_message_drops(0.3);
        let (f, r, driver, _stats) = reliable(2, plan);
        let n = 200;
        for i in 0..n {
            f.send(0, 1, Msg(vec![i as u8])).unwrap();
        }
        let got = drain(&r[1], n);
        let expect: Vec<Msg> = (0..n).map(|i| Msg(vec![i as u8])).collect();
        assert_eq!(got, expect, "every message exactly once, in send order");
        // Acks flow back to node 0's receiver, and node 1 must keep
        // re-acking retransmits whose acks were dropped; once both sides
        // are serviced, the in-flight table drains and retransmission stops.
        let deadline = Instant::now() + Duration::from_secs(20);
        while f.inflight_frames() > 0 {
            let _ = r[0].try_recv();
            let _ = r[1].try_recv();
            assert!(
                Instant::now() < deadline,
                "{} frames stuck",
                f.inflight_frames()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        driver.unwrap().stop();
        assert!(r[1].try_recv().is_none(), "no stray deliveries");
    }

    #[test]
    fn reliable_fabric_dedups_duplicates() {
        let plan = FaultPlan::new(0xDDDD).with_message_duplicates(0.5);
        let (f, r, driver, stats) = reliable(2, plan);
        let n = 100;
        for i in 0..n {
            f.send(0, 1, Msg(vec![i as u8; 2])).unwrap();
        }
        let got = drain(&r[1], n);
        assert_eq!(got.len(), n);
        assert!(got.iter().enumerate().all(|(i, m)| m.0[0] as usize == i));
        assert!(r[1].try_recv().is_none(), "duplicates must not surface");
        // Duplicates were really transmitted: more sends accounted than
        // logical messages (n data frames + dups; acks land on node 1).
        assert!(stats.snapshot(0).sent_msgs > n as u64);
        driver.unwrap().stop();
    }

    #[test]
    fn recv_timeout_reorders_late_frames_and_sleeps_through_acks() {
        // Drive the reliable receiver by hand. The plan only switches the
        // protocol on (every frame "delayed" by zero); the test pushes the
        // frames in the order it wants them seen.
        let plan = FaultPlan::new(5).with_message_delays(1.0, Duration::ZERO);
        let (f, r, _driver, _stats) = reliable(2, plan);
        let data = |seq: u64| Packet::Data {
            from: 0,
            seq,
            payload: Msg(vec![seq as u8]),
        };
        // Frame 1 overtakes frame 0, which lands 20 ms into the wait: both
        // come out, in send order.
        f.push(1, data(1)).unwrap();
        let late = {
            let f = f.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                f.push(1, data(0)).unwrap();
            })
        };
        let long = Duration::from_secs(10);
        assert_eq!(r[1].recv_timeout(long), Ok(Some(Msg(vec![0]))));
        assert_eq!(r[1].recv_timeout(long), Ok(Some(Msg(vec![1]))));
        late.join().unwrap();
        // An ack wakes the channel but is no application message: the wait
        // runs to its deadline.
        f.push(1, Packet::Ack { from: 0, seq: 9 }).unwrap();
        let start = Instant::now();
        assert_eq!(r[1].recv_timeout(Duration::from_millis(30)), Ok(None));
        assert!(start.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn fault_free_reliable_request_is_a_raw_fabric() {
        // No message faults => new_reliable degrades to the raw fast path:
        // no driver thread, no acks, no per-frame overhead.
        let stats = NetStats::new(2);
        let (f, r, driver) = Fabric::<Msg>::new_reliable(
            2,
            NetModel::instant(),
            Arc::clone(&stats),
            Some(FaultPlan::new(7).with_crash_at_delegation(1)),
            SimClock::wall(),
            RetryConfig::default(),
        );
        assert!(driver.is_none());
        f.send(0, 1, Msg(vec![0; 64])).unwrap();
        assert_eq!(r[1].recv().unwrap().0.len(), 64);
        assert_eq!(stats.snapshot(0).sent_bytes, 64, "no seq header added");
        assert_eq!(f.inflight_frames(), 0);
    }

    /// A plan on a lossy edge `0 → 1` whose first transmission is dropped
    /// and whose second gets through.
    fn first_frame_lost() -> FaultPlan {
        (0..)
            .map(|seed| FaultPlan::new(seed).with_message_drops(0.5))
            .find(|p| {
                p.decide(0, 1, 0) == FaultDecision::Drop
                    && p.decide(0, 1, 1) == FaultDecision::Deliver
            })
            .expect("some seed drops the first frame only")
    }

    #[test]
    fn a_frame_sent_after_a_lost_one_reaches_a_live_receiver_in_order() {
        // The shape of a fence after a lost frame: the second frame arrives
        // first and waits in the reorder buffer until the first one's
        // retransmission fills the gap.
        let (f, r, driver, _stats) = reliable(2, first_frame_lost());
        f.send(0, 1, Msg(vec![0])).unwrap();
        f.send(0, 1, Msg(vec![1])).unwrap();
        assert_eq!(drain(&r[1], 2), [Msg(vec![0]), Msg(vec![1])]);
        driver.unwrap().stop();
    }

    #[test]
    fn a_frame_to_a_dropped_receiver_leaves_the_inflight_table() {
        // The first transmission is lost, so `send` cannot see that the
        // receiver is gone; the first retransmission that is not lost fails
        // to push, and the frame leaves the table for good.
        let (f, r, driver, _stats) = reliable(2, first_frame_lost());
        drop(r.into_iter().nth(1));
        f.send(0, 1, Msg(vec![0])).unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        while f.inflight_frames() > 0 {
            assert!(Instant::now() < deadline, "the frame is retried forever");
            std::thread::sleep(Duration::from_millis(1));
        }
        driver.unwrap().stop();
    }

    #[test]
    fn unreliable_sends_bypass_the_protocol() {
        let plan = FaultPlan::new(11).with_message_drops(1.0);
        let (f, r, driver, _stats) = reliable(2, plan);
        // A heartbeat-style send on an all-drop plan is simply gone: no
        // in-flight entry, no retransmission.
        f.send_unreliable(0, 1, Msg(vec![9])).unwrap();
        assert_eq!(f.inflight_frames(), 0);
        std::thread::sleep(Duration::from_millis(10));
        assert!(r[1].try_recv().is_none());
        driver.unwrap().stop();
    }

    #[test]
    fn retry_backoff_is_exponential_and_capped() {
        let cfg = RetryConfig {
            rto: Duration::from_millis(10),
            max_rto: Duration::from_millis(160),
            tick: Duration::from_millis(1),
        };
        assert_eq!(cfg.backoff(1), Duration::from_millis(10));
        assert_eq!(cfg.backoff(2), Duration::from_millis(20));
        assert_eq!(cfg.backoff(5), Duration::from_millis(160));
        assert_eq!(cfg.backoff(40), Duration::from_millis(160), "saturates");
    }
}
