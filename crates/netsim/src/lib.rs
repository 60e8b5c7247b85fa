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
//! A [`FaultPlan`] can drop, delay or duplicate transmissions, but every
//! such fault is timing and bytes at the sender, never a lost, doubled or
//! reordered message at the receiver: a dropped copy is charged and sent
//! again after a fixed retransmission timeout, a duplicate is charged and
//! paced twice and delivered once, a delay is slept (see [`Fabric::send`]).
//! The paper's cluster talks over TCP, so its handlers never see a message
//! fault either; its fault tolerance is column replicas and task
//! revocation.
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tschan::{unbounded, Receiver, RecvError, Sender};

/// Identifies a machine in the simulated cluster. The engine uses `0` for
/// the master and `1..=w` for workers.
pub type NodeId = usize;

/// A message with a known payload size, so the fabric can account and pace it.
pub trait WireSized {
    /// Approximate serialized size in bytes.
    fn wire_bytes(&self) -> usize;

    /// The causal span context the message carries, if any. The fabric
    /// reads it to attribute retransmissions and duplicates to the
    /// originating span; defaults to
    /// [`TraceCtx::NONE`](ts_obs::TraceCtx::NONE) for payloads outside any
    /// trace (control frames, raw test messages).
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
    recorder: std::sync::OnceLock<Arc<ts_obs::Recorder>>,
}

impl NetStats {
    /// Creates statistics for `n` machines.
    pub fn new(n: usize) -> Arc<NetStats> {
        Arc::new(NetStats {
            nodes: (0..n).map(|_| NodeCounters::new()).collect(),
            started: Instant::now(),
            recorder: std::sync::OnceLock::new(),
        })
    }

    /// Attaches an event recorder. Later calls are ignored (first one wins).
    pub fn set_recorder(&self, rec: Arc<ts_obs::Recorder>) {
        let _ = self.recorder.set(rec);
    }

    /// The attached event recorder, if any.
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

/// How long a sender waits before it sends a lost frame again. Constant: a
/// simulated link has no congestion to back off from.
const RTO: Duration = Duration::from_millis(10);

/// One typed message plane connecting all machines (the engine instantiates
/// one for task communication and one for data communication, per Fig. 6).
///
/// Cloneable; all clones share channels, stats and the link model.
pub struct Fabric<M> {
    senders: Vec<Sender<M>>,
    model: NetModel,
    stats: Arc<NetStats>,
    clock: SimClock,
    faults: Option<Arc<FaultState>>,
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

impl<M: WireSized> Fabric<M> {
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
    /// `plan: None` and a wall clock is exactly `new`. The plan's message
    /// faults cost time and bytes at the sender only (see [`Fabric::send`]).
    pub fn new_faulty(
        n: usize,
        model: NetModel,
        stats: Arc<NetStats>,
        plan: Option<FaultPlan>,
        clock: SimClock,
    ) -> (Fabric<M>, Vec<FabricReceiver<M>>) {
        assert_eq!(stats.n_nodes(), n, "stats sized for a different cluster");
        let (senders, receivers) = (0..n)
            .map(|node| {
                let (s, rx) = unbounded();
                (s, FabricReceiver { node, rx })
            })
            .unzip();
        let bw_scale = Arc::new(
            (0..n)
                .map(|m| plan.as_ref().map_or(1.0, |p| p.bandwidth_scale(m)))
                .collect::<Vec<f64>>(),
        );
        let faults = plan
            .filter(|p| p.affects_messages())
            .map(|p| Arc::new(FaultState::new(p, n)));
        let fabric = Fabric {
            senders,
            model,
            stats,
            clock,
            faults,
            bw_scale,
        };
        (fabric, receivers)
    }

    /// Sends `msg` from `from` to `to` and delivers it exactly once.
    ///
    /// Local sends (`from == to`) are free: no accounting, no pacing —
    /// mirroring the paper's "skipping communication when the requested data
    /// is local". Remote sends charge the counters and sleep the calling
    /// thread per the link model. With a fault plan attached, each physical
    /// transmission is dropped, delayed or duplicated as the plan decides
    /// from its seed and the transmission's per-edge sequence number, and
    /// every fault is paid for by the sender alone: a lost copy is charged,
    /// the sender waits one retransmission timeout (10 ms) and transmits
    /// again; a delay is slept; a duplicate is charged and paced twice but
    /// pushed once. Because the sender waits, each edge stays FIFO.
    pub fn send(&self, from: NodeId, to: NodeId, msg: M) -> Result<(), Disconnected> {
        if from == to {
            return self.push(to, msg);
        }
        let copies = self.copies_on_the_wire(from, to, &msg);
        let bytes = msg.wire_bytes();
        for _ in 0..copies {
            self.stats.record_send(from, to, bytes);
            let mut delay = self.model.delay_for(bytes);
            // Link heterogeneity: a machine with a scripted bandwidth
            // scale serialises its outbound traffic that much slower
            // (or faster) than the uniform link model.
            let scale = self.bw_scale[from];
            if scale != 1.0 {
                delay = delay.mul_f64(scale);
            }
            if !delay.is_zero() {
                self.clock.sleep(delay);
            }
        }
        self.push(to, msg)
    }

    /// Asks the fault plan about each physical transmission of `msg` until
    /// one is not lost, and returns how many copies of it go on the wire:
    /// 2 for a duplicate, 1 otherwise. Each lost copy is charged here and
    /// costs the sender one `RTO`.
    fn copies_on_the_wire(&self, from: NodeId, to: NodeId, msg: &M) -> usize {
        let Some(faults) = &self.faults else {
            return 1;
        };
        let mut attempt = 0;
        loop {
            let seq = faults.next_seq(from, to);
            let (f, t) = (from as u32, to as u32);
            match faults.plan.decide(from, to, seq) {
                FaultDecision::Deliver => return 1,
                FaultDecision::Drop => {
                    self.record(from, || ts_obs::Event::MessageDropped {
                        from: f,
                        to: t,
                        seq,
                    });
                    self.stats.record_send(from, to, msg.wire_bytes());
                    self.clock.sleep(RTO);
                    attempt += 1;
                    self.record(from, || ts_obs::Event::RetrySent {
                        from: f,
                        to: t,
                        seq,
                        attempt,
                        span: msg.trace_ctx().span.0,
                    });
                }
                FaultDecision::Delay(extra) => {
                    self.record(from, || ts_obs::Event::MessageDelayed {
                        from: f,
                        to: t,
                        seq,
                        delay_ns: extra.as_nanos() as u64,
                    });
                    self.clock.sleep(extra);
                    return 1;
                }
                FaultDecision::Duplicate => {
                    self.record(to, || ts_obs::Event::DupDropped {
                        node: t,
                        from: f,
                        seq,
                        span: msg.trace_ctx().span.0,
                    });
                    return 2;
                }
            }
        }
    }

    /// Records a fault event on `node`'s track when a recorder is attached.
    fn record(&self, node: NodeId, event: impl FnOnce() -> ts_obs::Event) {
        if let Some(rec) = self.stats.recorder() {
            rec.record(node as u32, event());
        }
    }

    fn push(&self, to: NodeId, msg: M) -> Result<(), Disconnected> {
        self.senders[to].send(msg).map_err(|_| Disconnected { to })
    }

    /// The fabric's time base.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The shared statistics.
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }
}

/// The receiving end of one machine's fabric channel: every message sent to
/// the machine, once, in the order the senders pushed them.
pub struct FabricReceiver<M> {
    node: NodeId,
    rx: Receiver<M>,
}

impl<M> FabricReceiver<M> {
    /// The machine this receiver belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Takes the next message, blocking while none is queued.
    pub fn recv(&self) -> Result<M, RecvError> {
        self.rx.recv()
    }

    /// [`FabricReceiver::recv`] that gives up after `timeout` (wall time):
    /// `Ok(None)` when no message arrived that long.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<M>, RecvError> {
        self.rx.recv_timeout(timeout)
    }

    /// Takes the next message if one is queued.
    pub fn try_recv(&self) -> Option<M> {
        self.rx.try_iter().next()
    }

    /// Drains the queued messages without blocking.
    pub fn try_iter(&self) -> impl Iterator<Item = M> + '_ {
        self.rx.try_iter()
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

    /// A fabric over `n` machines running `plan` on a virtual clock.
    fn faulty(
        n: usize,
        model: NetModel,
        plan: FaultPlan,
    ) -> (
        Fabric<Msg>,
        Vec<FabricReceiver<Msg>>,
        Arc<NetStats>,
        SimClock,
    ) {
        let stats = NetStats::new(n);
        let clock = SimClock::virtual_at(0);
        let (f, r) = Fabric::new_faulty(n, model, Arc::clone(&stats), Some(plan), clock.clone());
        (f, r, stats, clock)
    }

    /// A plan on a lossy edge `0 → 1` whose first `k` transmissions are
    /// dropped and whose next two get through.
    fn first_frames_lost(k: u64) -> FaultPlan {
        (0..)
            .map(|seed| FaultPlan::new(seed).with_message_drops(0.5))
            .find(|p| {
                (0..k).all(|seq| p.decide(0, 1, seq) == FaultDecision::Drop)
                    && (k..k + 2).all(|seq| p.decide(0, 1, seq) == FaultDecision::Deliver)
            })
            .expect("some seed drops exactly the first frames")
    }

    fn rto_ns(k: u64) -> u64 {
        k * RTO.as_nanos() as u64
    }

    #[test]
    fn reliable_fabric_recovers_dropped_messages_in_order() {
        let plan = FaultPlan::new(0xD0D0).with_message_drops(0.3);
        let (f, r, stats, clock) = faulty(2, NetModel::instant(), plan.clone());
        let n = 200;
        for i in 0..n {
            f.send(0, 1, Msg(vec![i as u8])).unwrap();
        }
        let got: Vec<Msg> = r[1].try_iter().collect();
        let expect: Vec<Msg> = (0..n).map(|i| Msg(vec![i as u8])).collect();
        assert_eq!(got, expect, "every message exactly once, in send order");
        // Every physical transmission is charged: the delivered copies plus
        // each lost one, and each lost one cost its sender one RTO.
        let sent = stats.snapshot(0).sent_msgs;
        let lost = (0..sent)
            .filter(|&seq| plan.decide(0, 1, seq) == FaultDecision::Drop)
            .count() as u64;
        assert!(lost > 20, "a 30 % plan loses frames, lost {lost}");
        assert_eq!(sent, n + lost);
        assert_eq!(stats.snapshot(0).sent_bytes, n + lost);
        assert_eq!(clock.now_ns(), rto_ns(lost));
    }

    #[test]
    fn reliable_fabric_dedups_duplicates() {
        // 1 B at 1 kB/s: each copy on the wire costs its sender 1 ms.
        let model = NetModel::slow(1_000.0, Duration::ZERO);
        let plan = FaultPlan::new(1).with_message_duplicates(1.0);
        let (f, r, stats, clock) = faulty(2, model, plan);
        f.send(0, 1, Msg(vec![7])).unwrap();
        assert_eq!(r[1].try_iter().collect::<Vec<_>>(), [Msg(vec![7])]);
        let (s0, s1) = (stats.snapshot(0), stats.snapshot(1));
        assert_eq!((s0.sent_msgs, s0.sent_bytes), (2, 2), "both copies charged");
        assert_eq!((s1.recv_msgs, s1.recv_bytes), (2, 2));
        assert_eq!(clock.now_ns(), 2_000_000, "both copies paced");
    }

    #[test]
    fn a_frame_sent_after_a_lost_one_reaches_a_live_receiver_in_order() {
        // The shape of a fence after a lost frame: the sender waits out one
        // RTO and sends the first frame again before it sends the second.
        let (f, r, stats, clock) = faulty(2, NetModel::instant(), first_frames_lost(1));
        f.send(0, 1, Msg(vec![0])).unwrap();
        assert_eq!(clock.now_ns(), rto_ns(1), "a lost frame costs one RTO");
        f.send(0, 1, Msg(vec![1])).unwrap();
        assert_eq!(clock.now_ns(), rto_ns(1), "a delivered frame costs none");
        assert_eq!(
            r[1].try_iter().collect::<Vec<_>>(),
            [Msg(vec![0]), Msg(vec![1])]
        );
        assert_eq!(stats.snapshot(0).sent_msgs, 3);
    }

    #[test]
    fn every_retransmission_waits_one_rto() {
        // No backoff: three losses in a row cost three RTOs, not 1 + 2 + 4.
        let (f, r, stats, clock) = faulty(2, NetModel::instant(), first_frames_lost(3));
        f.send(0, 1, Msg(vec![5])).unwrap();
        assert_eq!(clock.now_ns(), rto_ns(3));
        assert_eq!(stats.snapshot(0).sent_msgs, 4);
        assert_eq!(r[1].try_iter().collect::<Vec<_>>(), [Msg(vec![5])]);
    }

    #[test]
    fn a_lost_frame_to_a_dropped_receiver_is_disconnected() {
        // The first transmission is lost, so only the retransmission finds
        // that the receiver is gone.
        let (f, r, stats, clock) = faulty(2, NetModel::instant(), first_frames_lost(1));
        drop(r.into_iter().nth(1));
        assert_eq!(f.send(0, 1, Msg(vec![0])), Err(Disconnected { to: 1 }));
        assert_eq!(clock.now_ns(), rto_ns(1));
        assert_eq!(stats.snapshot(0).sent_msgs, 2);
    }

    #[test]
    fn a_plan_without_message_faults_adds_nothing_to_a_send() {
        let plan = FaultPlan::new(7).with_crash_at_delegation(1);
        let (f, r, stats, clock) = faulty(2, NetModel::instant(), plan);
        f.send(0, 1, Msg(vec![0; 64])).unwrap();
        assert_eq!(r[1].recv().unwrap().0.len(), 64);
        assert_eq!(stats.snapshot(0).sent_bytes, 64);
        assert_eq!(clock.now_ns(), 0);
    }

    #[test]
    fn a_traced_retransmission_and_a_duplicate_keep_their_span() {
        #[derive(Debug)]
        struct Traced(u64);
        impl WireSized for Traced {
            fn wire_bytes(&self) -> usize {
                8
            }
            fn trace_ctx(&self) -> ts_obs::TraceCtx {
                ts_obs::TraceCtx::new(1, ts_obs::SpanId(self.0))
            }
        }
        use ts_obs::Event;
        // Transmission 0 is lost, 1 is its retransmission, 2 is duplicated.
        let plan = (0..)
            .map(|seed| {
                FaultPlan::new(seed)
                    .with_message_drops(0.3)
                    .with_message_duplicates(0.5)
            })
            .find(|p| {
                p.decide(0, 1, 0) == FaultDecision::Drop
                    && p.decide(0, 1, 1) == FaultDecision::Deliver
                    && p.decide(0, 1, 2) == FaultDecision::Duplicate
            })
            .expect("some seed has the shape");
        let stats = NetStats::new(2);
        let clock = SimClock::virtual_at(0);
        let rec = Arc::new(ts_obs::Recorder::with_time_source(
            2,
            &ts_obs::ObsConfig::enabled(),
            clock.time_source().expect("virtual"),
        ));
        stats.set_recorder(Arc::clone(&rec));
        let (f, r) = Fabric::new_faulty(2, NetModel::instant(), stats, Some(plan), clock);
        f.send(0, 1, Traced(5)).unwrap();
        f.send(0, 1, Traced(6)).unwrap();
        let spans: Vec<u64> = r[1].try_iter().map(|m| m.0).collect();
        assert_eq!(spans, [5, 6]);
        let faults: Vec<(u64, Event)> = rec
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e.event,
                    Event::MessageDropped { .. }
                        | Event::RetrySent { .. }
                        | Event::DupDropped { .. }
                )
            })
            .map(|e| (e.ts_ns, e.event))
            .collect();
        let rto = rto_ns(1);
        let (from, to) = (0, 1);
        let want = [
            (0, Event::MessageDropped { from, to, seq: 0 }),
            (
                rto,
                Event::RetrySent {
                    from,
                    to,
                    seq: 0,
                    attempt: 1,
                    span: 5,
                },
            ),
            (
                rto,
                Event::DupDropped {
                    node: to,
                    from,
                    seq: 2,
                    span: 6,
                },
            ),
        ];
        assert_eq!(faults.len(), want.len(), "{faults:?}");
        for w in want {
            assert!(faults.contains(&w), "{w:?} missing from {faults:?}");
        }
    }
}
