//! Deterministic simulation time and seeded fault injection.
//!
//! Everything here derives from a single `u64` seed: which messages are
//! dropped, how long delayed messages wait, and which worker crashes at
//! which point of training. A fault decision is a **pure function** of
//! `(seed, from, to, per-edge sequence number)` — no RNG state is shared
//! between edges or threads — so a failure observed once can be replayed
//! exactly by re-running with the same seed (see `docs/TESTING.md`).
//!
//! [`SimClock`] abstracts the time base. The default wall clock keeps the
//! engine's real pacing behaviour; the virtual clock makes time a plain
//! counter the sender advances, so a single-threaded run produces
//! byte-identical observability timelines run after run.

use crate::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// SimClock
// ---------------------------------------------------------------------

/// The simulation's time base: real time, or a virtual nanosecond counter.
///
/// Cloning shares the underlying source, so every fabric clone and the
/// observability recorder read the same timeline.
#[derive(Debug, Clone)]
pub struct SimClock {
    inner: ClockInner,
}

#[derive(Debug, Clone)]
enum ClockInner {
    Wall { started: Instant },
    Virtual { now_ns: Arc<AtomicU64> },
}

impl Default for SimClock {
    fn default() -> Self {
        SimClock::wall()
    }
}

impl SimClock {
    /// Real monotonic time; `sleep` really sleeps. The engine default.
    pub fn wall() -> SimClock {
        SimClock {
            inner: ClockInner::Wall {
                started: Instant::now(),
            },
        }
    }

    /// Virtual time starting at `ns`; `sleep` advances the counter instead
    /// of blocking. With a single sending thread this makes every timestamp
    /// of a run a deterministic function of the message sequence.
    pub fn virtual_at(ns: u64) -> SimClock {
        SimClock {
            inner: ClockInner::Virtual {
                now_ns: Arc::new(AtomicU64::new(ns)),
            },
        }
    }

    /// Whether this is a virtual clock.
    pub fn is_virtual(&self) -> bool {
        matches!(self.inner, ClockInner::Virtual { .. })
    }

    /// Nanoseconds since the clock's origin.
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            ClockInner::Wall { started } => started.elapsed().as_nanos() as u64,
            ClockInner::Virtual { now_ns } => now_ns.load(Ordering::Relaxed),
        }
    }

    /// Advances a virtual clock by `d`; no-op on a wall clock (real time
    /// advances itself).
    pub fn advance(&self, d: Duration) {
        if let ClockInner::Virtual { now_ns } = &self.inner {
            now_ns.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Advances a virtual clock forward to absolute time `ns` — a no-op if
    /// the clock already reads at or past `ns` (virtual time never runs
    /// backwards) or on a wall clock. This is the primitive a
    /// discrete-event loop uses to jump to its next event timestamp
    /// (ts-front's request loop) without accumulating drift from repeated
    /// relative `advance` deltas.
    pub fn advance_to(&self, ns: u64) {
        if let ClockInner::Virtual { now_ns } = &self.inner {
            now_ns.fetch_max(ns, Ordering::Relaxed);
        }
    }

    /// Sleeps the calling thread (wall) or advances the counter (virtual).
    pub fn sleep(&self, d: Duration) {
        match &self.inner {
            ClockInner::Wall { .. } => std::thread::sleep(d),
            ClockInner::Virtual { now_ns } => {
                now_ns.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
            }
        }
    }

    /// The shared counter of a virtual clock, for wiring into an
    /// observability recorder as its time source. `None` for wall clocks.
    pub fn time_source(&self) -> Option<Arc<AtomicU64>> {
        match &self.inner {
            ClockInner::Wall { .. } => None,
            ClockInner::Virtual { now_ns } => Some(Arc::clone(now_ns)),
        }
    }
}

// ---------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------

/// What the plan says to do with one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver normally.
    Deliver,
    /// Lose this transmission in transit. The sender is charged for it,
    /// waits one retransmission timeout and transmits again (a fresh
    /// decision), so every send is delivered in the end.
    Drop,
    /// Deliver after an extra delay, slept by the sender, so per-edge FIFO
    /// order is preserved.
    Delay(Duration),
    /// Put the message on the wire twice: the sender is charged and paced
    /// for both copies, the receiver sees one.
    Duplicate,
}

/// A seeded fault-injection plan.
///
/// Message faults (drops, delays, duplicates) are decided edge-locally:
/// each `(from, to)` channel numbers its transmissions `0, 1, 2, ...` (a
/// retransmission takes the next number) and the decision for transmission
/// `seq` is `decide(seed, from, to, seq)` — with one sending thread per
/// edge, deterministic no matter how threads interleave. Worker crashes are keyed on the global
/// subtree-delegation count, which the (single-threaded) master dispatch
/// loop advances, so the crash point is equally reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    drop_prob: f64,
    delay_prob: f64,
    dup_prob: f64,
    max_delay: Duration,
    crash_at_delegation: Option<u64>,
    /// Scripted membership: `n` fresh workers join `at_ns` into the run.
    /// Stored as plain nanoseconds (not `Instant`) so the plan stays a pure
    /// value — clonable, comparable, replayable off any [`SimClock`].
    join: Option<(u64, usize)>,
    /// Scripted spot preemption: `(at_ns, victim, grace_ns)` — the victim
    /// is told to drain at `at_ns` and must be gone `grace_ns` later.
    /// Distinct from [`with_crash_at_delegation`](Self::with_crash_at_delegation):
    /// a preemption is *announced*, a crash is silent.
    preempt: Option<(u64, NodeId, u64)>,
    /// Per-machine link heterogeneity: `(machine, factor)` multiplies the
    /// machine's outbound transmission delay (2.0 = half-bandwidth NIC).
    bandwidth_scales: Vec<(NodeId, f64)>,
}

/// SplitMix64: the mixing function behind every fault decision.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `d` in nanoseconds, saturating: a scripted time past `u64::MAX` ns
/// (about 584 years) means never, not a wrapped few seconds.
fn saturating_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A unit float in `[0, 1)` from the top 53 bits of a hash.
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    /// A plan with the given seed and no faults enabled.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_prob: 0.0,
            delay_prob: 0.0,
            dup_prob: 0.0,
            max_delay: Duration::ZERO,
            crash_at_delegation: None,
            join: None,
            preempt: None,
            bandwidth_scales: Vec::new(),
        }
    }

    /// The seed every decision derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Drops each remote transmission independently with probability
    /// `prob`. A dropped send is retransmitted, so `prob` must stay below 1:
    /// a link that drops everything is a partition, on which a send never
    /// returns.
    pub fn with_message_drops(mut self, prob: f64) -> FaultPlan {
        assert!(
            (0.0..1.0).contains(&prob),
            "drop probability must be in [0, 1): a certain drop is a partition"
        );
        self.drop_prob = prob;
        self
    }

    /// Delays each remote message independently with probability `prob`, by
    /// a seed-derived duration in `[0, max)`.
    pub fn with_message_delays(mut self, prob: f64, max: Duration) -> FaultPlan {
        assert!((0.0..=1.0).contains(&prob), "probability out of range");
        self.delay_prob = prob;
        self.max_delay = max;
        self
    }

    /// Duplicates each remote message independently with probability `prob`
    /// (both copies are delivered back-to-back). Decided from the same pure
    /// `(seed, edge, seq)` derivation as drops and delays, via an
    /// independent hash chain so enabling duplicates never changes which
    /// messages an existing seed drops or delays.
    pub fn with_message_duplicates(mut self, prob: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&prob), "probability out of range");
        self.dup_prob = prob;
        self
    }

    /// Crashes the worker that receives the `n`-th subtree-task delegation
    /// (1-based, counted cluster-wide), right after the plan message is
    /// sent — i.e. mid-subtree-task.
    pub fn with_crash_at_delegation(mut self, n: u64) -> FaultPlan {
        assert!(n >= 1, "delegations are counted from 1");
        self.crash_at_delegation = Some(n);
        self
    }

    /// Like [`with_crash_at_delegation`](Self::with_crash_at_delegation),
    /// with `n` derived from the seed in `1..=max_delegation`.
    pub fn with_seeded_crash(self, max_delegation: u64) -> FaultPlan {
        assert!(max_delegation >= 1, "need a non-empty delegation range");
        let n = 1 + mix(self.seed ^ 0x000C_4A57) % max_delegation;
        self.with_crash_at_delegation(n)
    }

    /// The global delegation count at which a worker crash fires, if any.
    pub fn crash_at_delegation(&self) -> Option<u64> {
        self.crash_at_delegation
    }

    /// Scripts `n` workers joining the cluster `at` into the run. Membership
    /// events are plain scheduled times read off the fabric's [`SimClock`],
    /// so a seeded run replays them at the identical (virtual) instant.
    pub fn with_worker_join(mut self, at: Duration, n: usize) -> FaultPlan {
        assert!(n >= 1, "a join must add at least one worker");
        self.join = Some((saturating_ns(at), n));
        self
    }

    /// Scripts a spot preemption: `victim` is told to drain `at` into the
    /// run and is granted `grace` to finish in-flight work, hand its columns
    /// off and say `Goodbye` — after which the engine escalates to the
    /// silent-crash recovery path. Distinct from a crash: the kill is
    /// *announced*, so no work need be lost.
    pub fn with_preemption(mut self, at: Duration, victim: NodeId, grace: Duration) -> FaultPlan {
        self.preempt = Some((saturating_ns(at), victim, saturating_ns(grace)));
        self
    }

    /// Scales `machine`'s outbound transmission delay by `factor` (2.0 = a
    /// half-bandwidth NIC). Later calls for the same machine override.
    pub fn with_bandwidth_scale(mut self, machine: NodeId, factor: f64) -> FaultPlan {
        assert!(
            factor.is_finite() && factor > 0.0,
            "bandwidth scale must be positive"
        );
        self.bandwidth_scales.retain(|&(m, _)| m != machine);
        self.bandwidth_scales.push((machine, factor));
        self
    }

    /// The scripted membership join `(at_ns, n_workers)`, if any.
    pub fn worker_join(&self) -> Option<(u64, usize)> {
        self.join
    }

    /// The scripted preemption `(at_ns, victim, grace_ns)`, if any.
    pub fn preemption(&self) -> Option<(u64, NodeId, u64)> {
        self.preempt
    }

    /// `machine`'s outbound-delay multiplier (1.0 when unset).
    pub fn bandwidth_scale(&self, machine: NodeId) -> f64 {
        self.bandwidth_scales
            .iter()
            .find(|&&(m, _)| m == machine)
            .map_or(1.0, |&(_, f)| f)
    }

    /// The fate of message `seq` on the `(from, to)` edge. Pure: same plan,
    /// same arguments, same answer.
    pub fn decide(&self, from: NodeId, to: NodeId, seq: u64) -> FaultDecision {
        if self.drop_prob == 0.0 && self.delay_prob == 0.0 && self.dup_prob == 0.0 {
            return FaultDecision::Deliver;
        }
        let edge = ((from as u64) << 32) | to as u64;
        let h = mix(self.seed ^ mix(edge ^ mix(seq)));
        if unit_f64(h) < self.drop_prob {
            return FaultDecision::Drop;
        }
        let h2 = mix(h);
        if unit_f64(h2) < self.delay_prob {
            let frac = unit_f64(mix(h2));
            let ns = (self.max_delay.as_nanos() as f64 * frac) as u64;
            return FaultDecision::Delay(Duration::from_nanos(ns));
        }
        // Independent chain: `mix(h2)` is consumed by the delay fraction
        // above, so duplicates branch off a salted rehash instead — adding a
        // dup probability leaves an existing seed's drops/delays untouched.
        if unit_f64(mix(h2 ^ 0x00D1_CA7E)) < self.dup_prob {
            return FaultDecision::Duplicate;
        }
        FaultDecision::Deliver
    }

    /// Whether any message fault (drop, delay, or duplicate) is enabled.
    pub fn affects_messages(&self) -> bool {
        self.drop_prob > 0.0 || self.delay_prob > 0.0 || self.dup_prob > 0.0
    }
}

/// Shared per-fabric fault state: the plan plus one message counter per
/// directed edge.
#[derive(Debug)]
pub(crate) struct FaultState {
    pub(crate) plan: FaultPlan,
    n: usize,
    seq: Vec<AtomicU64>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, n: usize) -> FaultState {
        FaultState {
            plan,
            n,
            seq: (0..n * n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Takes the next sequence number of the `(from, to)` edge.
    pub(crate) fn next_seq(&self, from: NodeId, to: NodeId) -> u64 {
        self.seq[from * self.n + to].fetch_add(1, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_advances_and_virtual_is_manual() {
        let wall = SimClock::wall();
        assert!(!wall.is_virtual());
        let a = wall.now_ns();
        std::thread::sleep(Duration::from_millis(2));
        assert!(wall.now_ns() > a);
        wall.advance(Duration::from_secs(100)); // no-op
        assert!(wall.now_ns() < 90_000_000_000);

        let v = SimClock::virtual_at(5);
        assert!(v.is_virtual());
        assert_eq!(v.now_ns(), 5);
        v.sleep(Duration::from_nanos(10));
        v.advance(Duration::from_nanos(1));
        assert_eq!(v.now_ns(), 16);
        let shared = v.clone();
        shared.advance(Duration::from_nanos(4));
        assert_eq!(v.now_ns(), 20, "clones share the counter");
        assert!(v.time_source().is_some() && wall.time_source().is_none());
    }

    #[test]
    fn decisions_are_pure_functions_of_seed_edge_seq() {
        let p = FaultPlan::new(42)
            .with_message_drops(0.3)
            .with_message_delays(0.3, Duration::from_millis(10));
        for from in 0..4 {
            for to in 0..4 {
                for seq in 0..64 {
                    assert_eq!(p.decide(from, to, seq), p.decide(from, to, seq));
                }
            }
        }
        // A different seed gives a different decision sequence.
        let q = FaultPlan::new(43)
            .with_message_drops(0.3)
            .with_message_delays(0.3, Duration::from_millis(10));
        let a: Vec<_> = (0..256).map(|s| p.decide(0, 1, s)).collect();
        let b: Vec<_> = (0..256).map(|s| q.decide(0, 1, s)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn probabilities_are_roughly_honoured() {
        let p = FaultPlan::new(7).with_message_drops(0.25);
        let drops = (0..10_000)
            .filter(|&s| p.decide(1, 2, s) == FaultDecision::Drop)
            .count();
        assert!(
            (2_000..3_000).contains(&drops),
            "{drops} drops out of 10000"
        );
        let d = FaultPlan::new(7).with_message_delays(1.0, Duration::from_millis(8));
        for s in 0..1_000 {
            match d.decide(1, 2, s) {
                FaultDecision::Delay(dur) => assert!(dur < Duration::from_millis(8)),
                other => panic!("expected delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn duplicates_are_seeded_and_leave_drops_and_delays_untouched() {
        let base = FaultPlan::new(7)
            .with_message_drops(0.2)
            .with_message_delays(0.2, Duration::from_millis(5));
        let dup = base.clone().with_message_duplicates(0.3);
        assert!(dup.affects_messages());
        let mut dups = 0;
        for seq in 0..10_000 {
            let a = base.decide(1, 2, seq);
            let b = dup.decide(1, 2, seq);
            match (a, b) {
                (FaultDecision::Deliver, FaultDecision::Duplicate) => dups += 1,
                // Every drop/delay decision of the base plan must survive
                // the added duplicate probability bit-identically.
                _ => assert_eq!(a, b, "seq {seq}"),
            }
        }
        // ~30% of the ~64% delivered messages duplicate: expect ~1920.
        assert!((1_500..2_400).contains(&dups), "{dups} duplicates");
        // Pure function: replays identically.
        let a: Vec<_> = (0..512).map(|s| dup.decide(0, 3, s)).collect();
        let b: Vec<_> = (0..512).map(|s| dup.decide(0, 3, s)).collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "a certain drop is a partition")]
    fn a_drop_probability_of_one_is_refused() {
        let _ = FaultPlan::new(1).with_message_drops(1.0);
    }

    #[test]
    fn dup_only_plan_affects_messages() {
        let p = FaultPlan::new(1).with_message_duplicates(1.0);
        assert!(p.affects_messages());
        assert_eq!(p.decide(0, 1, 0), FaultDecision::Duplicate);
    }

    #[test]
    fn advance_to_is_monotone_and_wall_noop() {
        let v = SimClock::virtual_at(100);
        v.advance_to(1_000);
        assert_eq!(v.now_ns(), 1_000);
        // Never backwards: a stale target leaves the clock untouched.
        v.advance_to(500);
        assert_eq!(v.now_ns(), 1_000);
        v.advance_to(1_000);
        assert_eq!(v.now_ns(), 1_000);
        // Wall clocks ignore it entirely.
        let w = SimClock::wall();
        w.advance_to(u64::MAX);
        assert!(w.now_ns() < 1_000_000_000);
    }

    #[test]
    fn disabled_plan_always_delivers() {
        let p = FaultPlan::new(9);
        assert!(!p.affects_messages());
        assert!((0..1000).all(|s| p.decide(0, 1, s) == FaultDecision::Deliver));
    }

    #[test]
    fn seeded_crash_is_in_range_and_deterministic() {
        for seed in 0..50u64 {
            let p = FaultPlan::new(seed).with_seeded_crash(6);
            let n = p.crash_at_delegation().unwrap();
            assert!((1..=6).contains(&n));
            assert_eq!(
                FaultPlan::new(seed)
                    .with_seeded_crash(6)
                    .crash_at_delegation(),
                Some(n)
            );
        }
    }

    #[test]
    fn membership_events_are_pure_plan_data() {
        let p = FaultPlan::new(3)
            .with_worker_join(Duration::from_millis(50), 2)
            .with_preemption(Duration::from_millis(80), 3, Duration::from_millis(200))
            .with_bandwidth_scale(1, 0.5);
        assert!(!p.affects_messages(), "membership alone needs no retries");
        assert_eq!(p.worker_join(), Some((50_000_000, 2)));
        assert_eq!(p.preemption(), Some((80_000_000, 3, 200_000_000)));
        assert_eq!(p.bandwidth_scale(1), 0.5);
        assert_eq!(p.bandwidth_scale(2), 1.0);
        // Pure value semantics: a clone replays the identical script, and
        // adding membership events never perturbs message-fault decisions.
        assert_eq!(p, p.clone());
        let base = FaultPlan::new(3).with_message_drops(0.3);
        let scripted = base
            .clone()
            .with_worker_join(Duration::from_millis(1), 1)
            .with_preemption(Duration::from_millis(2), 1, Duration::ZERO);
        for seq in 0..512 {
            assert_eq!(base.decide(0, 1, seq), scripted.decide(0, 1, seq));
        }
        // Re-scaling a machine overrides rather than accumulates.
        let q = p.with_bandwidth_scale(1, 3.0);
        assert_eq!(q.bandwidth_scale(1), 3.0);
    }

    #[test]
    fn scripted_times_past_the_end_of_time_saturate() {
        // `Duration::from_millis(18_446_744_074_000)` in nanoseconds is
        // 2^64 + 290 448 384: truncated, it would fire 0.29 s into the run.
        let never = Duration::from_millis(18_446_744_074_000);
        let p = FaultPlan::new(1)
            .with_worker_join(never, 1)
            .with_preemption(never, 2, never);
        assert_eq!(p.worker_join(), Some((u64::MAX, 1)));
        assert_eq!(p.preemption(), Some((u64::MAX, 2, u64::MAX)));
    }

    #[test]
    fn fault_state_sequences_edges_independently() {
        let st = FaultState::new(FaultPlan::new(1), 3);
        assert_eq!(st.next_seq(0, 1), 0);
        assert_eq!(st.next_seq(0, 1), 1);
        assert_eq!(st.next_seq(1, 0), 0, "reverse edge counts separately");
        assert_eq!(st.next_seq(0, 2), 0);
    }
}
