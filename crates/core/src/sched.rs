//! ts-sched: the master's plan queue.
//!
//! [`PlanQueue`] is the paper's plan buffer `Bplan` (§III, Fig. 4/5) kept
//! as one deque per worker — keyed by each plan's *parent worker*, the
//! machine already holding the task's row set `Ix` (the §VI cost model's
//! affinity) — plus a global deque for root plans. Inside every deque the
//! hybrid BFS/DFS rule is the paper's: small tasks (`|Dx| <= τ_dfs`) go to
//! the head, big ones to the tail, and pops take the head.
//!
//! Dispatch is throttled to a per-worker in-flight window, so the queue
//! holds a master-side backlog: up to `cap` plans per worker are in flight
//! (their column/`Ix` fetches overlapping the compers' current compute)
//! while the rest wait where the scheduler can still re-route them. An
//! idle worker (it sent a `StealRequest` frame) is served its own deque
//! first, then the global deque, and otherwise **steals from the tail** of
//! the most-loaded peer's deque — tails hold the big breadth-first tasks,
//! so small depth-first tasks stay with the worker whose delegate already
//! holds their `Ix` (the steal-order heuristic that preserves §VI
//! affinity). Victim choice breaks deque-length ties by the §VI `COMP`
//! load column.
//!
//! The queue is a plain struct the master owns: nothing waits on it, so
//! nothing is signalled. Whatever makes a plan dispatchable — a push, a
//! completion, a steal request, a membership change — happens inside a
//! master step, or in a `Cluster` call that posts the master a frame and
//! so starts one, and every step closes with a `pump` that pops until
//! nothing more can go out (`docs/SCHEDULING.md`, "Liveness").
//!
//! Changing *when* and *where* a plan is dispatched never changes the
//! trained model: all task randomness derives from the scheduling-invariant
//! root path (`mix_seed(tree_seed, path)`) and result folding is a total
//! order — `core/tests/sched_equiv.rs` locks this down against the local
//! trainer and against fingerprints pinned from the single-deque scheduler
//! this queue replaced. The thresholds `τ_D` and `τ_dfs` are static
//! configuration, as in the paper (§III), so the τ_D boundary — where
//! extra-trees resampling differs between column- and subtree-tasks — is
//! fixed by the config too, and an extra-trees forest depends only on its
//! seed and config.

use crate::assign::{LoadMatrix, COMP};
use std::collections::{BTreeMap, VecDeque};
use ts_netsim::NodeId;

/// A steal performed by the scheduler: `thief` asked, `victim`'s deque
/// gave up its tail plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealInfo {
    /// The worker whose deque lost the plan.
    pub victim: NodeId,
    /// The idle worker whose request triggered the steal.
    pub thief: NodeId,
}

/// Consecutive idle ticks (the master heard nothing for a whole tick) that
/// found plans queued before the failsafe force-pops past the in-flight cap.
/// Normal operation never gets here — every result arrival frees capacity
/// in the step that dispatches against it — but a lost completion must
/// degrade to unthrottled dispatch, not a hang.
const STALL_STRIKES: u32 = 32;

/// The master's plan queue (see the module docs).
///
/// Generic over the plan payload so scheduler policy is unit-testable
/// without dragging in the master's private plan descriptor.
pub struct PlanQueue<T> {
    /// Per-worker in-flight cap.
    cap: u64,
    /// The live worker roster (capacity checks for global plans, and who
    /// may post hunger; set by the master at launch and on every
    /// membership change). Empty = unknown = no gating.
    workers: Vec<NodeId>,
    /// Root plans, and plans reclaimed from a retired worker.
    global: VecDeque<T>,
    /// Per-worker affinity deques.
    deques: BTreeMap<NodeId, VecDeque<T>>,
    /// Plans dispatched and not yet completed, per worker.
    outstanding: BTreeMap<NodeId, u64>,
    /// Workers whose `StealRequest` is pending, in arrival order.
    hungry: VecDeque<NodeId>,
    /// Total queued plans across all deques.
    len: usize,
    /// Consecutive idle ticks that found plans queued.
    stalls: u32,
}

impl<T> PlanQueue<T> {
    /// An empty queue that keeps at most `cap >= 1` plans in flight per
    /// worker.
    pub fn new(cap: usize) -> PlanQueue<T> {
        assert!(cap >= 1, "the in-flight cap must be positive");
        PlanQueue {
            cap: cap as u64,
            workers: Vec::new(),
            global: VecDeque::new(),
            deques: BTreeMap::new(),
            outstanding: BTreeMap::new(),
            hungry: VecDeque::new(),
            len: 0,
            stalls: 0,
        }
    }

    /// Plans dispatched to `w` and not yet completed.
    pub fn outstanding_of(&self, w: NodeId) -> u64 {
        self.outstanding.get(&w).copied().unwrap_or(0)
    }

    /// Sets the live worker roster. Called at launch, when a worker joins
    /// and after crash recovery shrinks the cluster.
    pub fn set_workers(&mut self, workers: &[NodeId]) {
        self.workers = workers.to_vec();
    }

    /// Queues a plan. `affinity` is the plan's parent worker (`None` for
    /// roots); `dfs` is the hybrid rule's verdict (`|Dx| <= τ_dfs` → head).
    /// Returns the total queue length after the push, for the `BplanPush`
    /// observability event.
    pub fn push(&mut self, item: T, affinity: Option<NodeId>, dfs: bool) -> usize {
        let q = match affinity {
            Some(w) => self.deques.entry(w).or_default(),
            None => &mut self.global,
        };
        if dfs {
            q.push_front(item);
        } else {
            q.push_back(item);
        }
        self.len += 1;
        self.stalls = 0;
        self.len
    }

    /// Records a worker's `StealRequest`: its compers ran dry, so the next
    /// pop serves it first (stealing if its own deque is empty). Duplicate
    /// pending requests collapse. A request from outside the roster — a
    /// worker declared dead that is in fact still running, or one already
    /// retired by a drain — is dropped: it will never be assigned the plan
    /// a steal on its behalf would take off a live worker's deque.
    pub fn mark_hungry(&mut self, worker: NodeId) {
        let on_roster = self.workers.is_empty() || self.workers.contains(&worker);
        if on_roster && !self.hungry.contains(&worker) {
            self.hungry.push_back(worker);
        }
    }

    /// Charges one in-flight plan to each involved worker at dispatch.
    pub fn note_dispatched(&mut self, workers: &[NodeId]) {
        for &w in workers {
            *self.outstanding.entry(w).or_insert(0) += 1;
        }
    }

    /// Releases one in-flight charge when a worker's result arrives
    /// (saturating: recovery resets charges that results may still chase).
    pub fn note_completed(&mut self, worker: NodeId) {
        if let Some(o) = self.outstanding.get_mut(&worker) {
            *o = o.saturating_sub(1);
        }
        self.stalls = 0;
    }

    /// The master heard nothing for a whole tick. With plans still queued
    /// that is a strike (the pump before it left them undispatchable);
    /// `STALL_STRIKES` in a row make the next pop ignore the cap.
    pub fn note_idle_tick(&mut self) {
        if self.len > 0 {
            self.stalls += 1;
        }
    }

    /// Whether any queued plan (global or affinity) matches `pred`. Used by
    /// the drain state machine to hold a leaver's departure while queued
    /// plans still reference it as their `Ix` parent.
    pub fn any_match(&self, pred: impl Fn(&T) -> bool) -> bool {
        self.global
            .iter()
            .chain(self.deques.values().flatten())
            .any(pred)
    }

    /// Takes `worker` out of scheduling (graceful drain, `ts-elastic`) and
    /// installs the shrunken roster `live`. The leaver's queued plans move,
    /// in order, to the tail of the global deque — their affinity points at
    /// a machine that is leaving — and its in-flight accounting and any
    /// pending steal request are forgotten: nothing more will be dispatched
    /// to it or served on its behalf.
    pub fn retire_worker(&mut self, worker: NodeId, live: &[NodeId]) {
        if let Some(q) = self.deques.remove(&worker) {
            self.global.extend(q);
        }
        self.outstanding.remove(&worker);
        self.hungry.retain(|&w| w != worker);
        self.workers = live.to_vec();
        self.stalls = 0;
    }

    /// Drops every queued plan and resets in-flight accounting and pending
    /// steal requests (fault recovery revoked all in-flight work).
    pub fn clear(&mut self) {
        self.global.clear();
        self.deques.clear();
        self.outstanding.clear();
        self.hungry.clear();
        self.len = 0;
        self.stalls = 0;
    }

    /// Total queued plans.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no plan is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pops the next assignable plan, or `None` when nothing can go out
    /// right now. `load` is the master's §VI workload matrix; only its
    /// `COMP` column is read, and only when a steal has to break a
    /// deque-length tie.
    pub fn try_next(&mut self, load: &LoadMatrix) -> Option<(T, Option<StealInfo>)> {
        // The failsafe ignores the in-flight cap, for this one pop.
        let popped = self.pop(load, self.stalls >= STALL_STRIKES);
        if popped.is_some() {
            self.len -= 1;
            self.stalls = 0;
        }
        popped
    }

    /// The scheduling policy. `force` ignores the in-flight cap (failsafe).
    fn pop(&mut self, load: &LoadMatrix, force: bool) -> Option<(T, Option<StealInfo>)> {
        // 1. The oldest pending steal request (one pop per call): own
        // deque, then the global deque, then steal from the most-loaded
        // peer's tail.
        if let Some(h) = self.hungry.pop_front() {
            if let Some(item) = self.deques.get_mut(&h).and_then(VecDeque::pop_front) {
                return Some((item, None));
            }
            if let Some(item) = self.global.pop_front() {
                return Some((item, None));
            }
            let victim = self
                .deques
                .iter()
                .filter(|&(&w, q)| w != h && !q.is_empty())
                // Longest deque; ties go to the §VI-heavier worker, then
                // the smaller id (deterministic under equal load).
                .max_by(|&(&a, qa), &(&b, qb)| {
                    qa.len()
                        .cmp(&qb.len())
                        .then_with(|| load.get(a, COMP).cmp(&load.get(b, COMP)))
                        .then(b.cmp(&a))
                })
                .map(|(&w, _)| w);
            match victim {
                Some(v) => {
                    let item = self
                        .deques
                        .get_mut(&v)
                        .and_then(VecDeque::pop_back)
                        .expect("victim deque checked non-empty");
                    return Some((
                        item,
                        Some(StealInfo {
                            victim: v,
                            thief: h,
                        }),
                    ));
                }
                None => {
                    // Nothing queued anywhere: keep the request pending so
                    // the next push serves this worker first.
                    self.hungry.push_front(h);
                }
            }
        }
        // 2. Affinity dispatch under the in-flight cap: the least-loaded
        // worker with queued plans and spare capacity.
        let candidate = self
            .deques
            .iter()
            .filter(|&(&w, q)| !q.is_empty() && (force || self.outstanding_of(w) < self.cap))
            .min_by_key(|&(&w, _)| (self.outstanding_of(w), w))
            .map(|(&w, _)| w);
        if let Some(w) = candidate {
            let item = self
                .deques
                .get_mut(&w)
                .and_then(VecDeque::pop_front)
                .expect("candidate deque checked non-empty");
            return Some((item, None));
        }
        // 3. Root/global plans, as long as someone has spare capacity (the
        // assignment itself picks the workers).
        let spare = force
            || self.workers.is_empty()
            || (self.workers.iter()).any(|&w| self.outstanding_of(w) < self.cap);
        let item = if spare { self.global.pop_front() } else { None };
        item.map(|item| (item, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pop against an all-idle cluster (no `COMP` load to break ties).
    fn pop(q: &mut PlanQueue<u64>) -> Option<(u64, Option<StealInfo>)> {
        q.try_next(&LoadMatrix::new(4))
    }

    // ------------------------------------------------------------------
    // PlanQueue.
    // ------------------------------------------------------------------

    #[test]
    fn hybrid_rule_orders_an_affinity_deque_like_the_global_one() {
        for affinity in [None, Some(1)] {
            let mut q: PlanQueue<u64> = PlanQueue::new(8);
            q.push(1, affinity, false); // big -> tail
            q.push(2, affinity, false); // big -> tail (after 1)
            q.push(3, affinity, true); // small -> head
            q.push(4, affinity, true); // small -> head (before 3)
            let order: Vec<u64> = std::iter::from_fn(|| pop(&mut q)).map(|(t, _)| t).collect();
            assert_eq!(order, vec![4, 3, 1, 2], "affinity {affinity:?}");
        }
    }

    #[test]
    fn affinity_pop_prefers_least_loaded_worker() {
        let mut q: PlanQueue<u64> = PlanQueue::new(4);
        q.push(10, Some(1), false);
        q.push(20, Some(2), false);
        q.note_dispatched(&[1]); // worker 1 now has 1 in flight
                                 // Worker 2 is idle-est, so its deque pops first.
        assert_eq!(pop(&mut q).map(|(t, _)| t), Some(20));
        assert_eq!(pop(&mut q).map(|(t, _)| t), Some(10));
    }

    #[test]
    fn capacity_throttles_until_completion() {
        let mut q: PlanQueue<u64> = PlanQueue::new(2);
        q.push(1, Some(1), false);
        q.note_dispatched(&[1]);
        q.note_dispatched(&[1]); // worker 1 at cap
        assert!(pop(&mut q).is_none(), "worker 1 is at capacity");
        assert_eq!(q.len(), 1, "plan stays queued");
        q.note_completed(1);
        assert_eq!(pop(&mut q).map(|(t, _)| t), Some(1));
    }

    #[test]
    fn hungry_worker_steals_from_longest_tail() {
        let mut q: PlanQueue<u64> = PlanQueue::new(8);
        // Worker 1's deque: head [11, 12, 13] tail — 13 is the BFS tail.
        q.push(11, Some(1), false);
        q.push(12, Some(1), false);
        q.push(13, Some(1), false);
        q.push(21, Some(2), false);
        q.mark_hungry(3);
        let (t, steal) = pop(&mut q).expect("plan available");
        assert_eq!(t, 13, "steals the tail of the longest deque");
        assert_eq!(
            steal,
            Some(StealInfo {
                victim: 1,
                thief: 3
            })
        );
        // Hunger is consumed: the next pop is a normal affinity pop.
        let (_, steal) = pop(&mut q).expect("plan available");
        assert!(steal.is_none());
    }

    #[test]
    fn hungry_worker_drains_own_deque_before_stealing() {
        let mut q: PlanQueue<u64> = PlanQueue::new(8);
        q.push(11, Some(1), false);
        q.push(31, Some(3), false);
        q.mark_hungry(3);
        let (t, steal) = pop(&mut q).expect("plan available");
        assert_eq!(t, 31, "own deque first");
        assert!(steal.is_none(), "serving your own deque is not a steal");
    }

    #[test]
    fn steal_victim_ties_break_by_comp_load() {
        let mut q: PlanQueue<u64> = PlanQueue::new(8);
        q.push(11, Some(1), false);
        q.push(21, Some(2), false);
        q.mark_hungry(3);
        // Equal deque lengths; worker 2 carries more §VI COMP load.
        let mut load = LoadMatrix::new(4);
        load.add(1, COMP, 5);
        load.add(2, COMP, 50);
        let (t, steal) = q.try_next(&load).expect("plan available");
        assert_eq!(t, 21);
        assert_eq!(
            steal,
            Some(StealInfo {
                victim: 2,
                thief: 3
            })
        );
    }

    #[test]
    fn unserved_hunger_survives_until_work_arrives() {
        let mut q: PlanQueue<u64> = PlanQueue::new(8);
        q.mark_hungry(2);
        assert!(pop(&mut q).is_none());
        // Work for worker 1 arrives; the pending request from worker 2
        // grabs it (steal) before worker 1's ordinary affinity pop.
        q.push(11, Some(1), false);
        let (t, steal) = pop(&mut q).expect("plan available");
        assert_eq!(t, 11);
        assert_eq!(
            steal,
            Some(StealInfo {
                victim: 1,
                thief: 2
            })
        );
    }

    #[test]
    fn drain_worker_reclaims_queued_plans() {
        let mut q: PlanQueue<u64> = PlanQueue::new(1);
        q.set_workers(&[1, 2]);
        q.push(11, Some(1), false);
        q.push(12, Some(1), false);
        q.push(21, Some(2), false);
        q.note_dispatched(&[1]); // at cap: would block worker 1 forever
        q.mark_hungry(1);
        q.retire_worker(1, &[2]);
        assert_eq!(q.len(), 3, "the leaver's plans stay queued");
        // The retired worker's hunger and accounting are gone: the next pop
        // is worker 2's ordinary affinity pop, not a steal for worker 1 ...
        let (t, steal) = pop(&mut q).expect("plan available");
        assert_eq!(t, 21);
        assert!(steal.is_none());
        // ... and the reclaimed plans follow from the global tail, in order.
        assert_eq!(pop(&mut q), Some((11, None)));
        assert_eq!(pop(&mut q), Some((12, None)));
        // Retiring an unknown worker is a harmless no-op.
        q.retire_worker(9, &[2]);
        assert!(q.is_empty());
    }

    #[test]
    fn hunger_from_outside_the_roster_is_dropped() {
        let mut q: PlanQueue<u64> = PlanQueue::new(8);
        q.set_workers(&[1, 2]);
        // Worker 3 was declared dead (or already left by drain) but is
        // still running and posts a request: it must steal nothing.
        q.mark_hungry(3);
        q.push(11, Some(1), false);
        assert_eq!(pop(&mut q), Some((11, None)));
        // A roster worker's request still survives an empty queue.
        q.mark_hungry(2);
        assert!(pop(&mut q).is_none());
        q.push(12, Some(1), false);
        let thief_2 = Some(StealInfo {
            victim: 1,
            thief: 2,
        });
        assert_eq!(pop(&mut q), Some((12, thief_2)));
        // A request posted while on the roster is forgotten on retirement.
        q.mark_hungry(2);
        q.retire_worker(2, &[1]);
        q.push(13, Some(1), false);
        assert_eq!(pop(&mut q), Some((13, None)));
    }

    #[test]
    fn clear_resets_queues_hunger_and_accounting() {
        let mut q: PlanQueue<u64> = PlanQueue::new(1);
        q.push(1, Some(1), false);
        q.push(2, None, false);
        q.note_dispatched(&[1]);
        q.mark_hungry(2);
        q.clear();
        assert!(q.is_empty());
        // Capacity was reset too: worker 1 can be dispatched to again, and
        // worker 2's request is forgotten — a plain pop, not a steal.
        q.push(3, Some(1), false);
        assert_eq!(pop(&mut q), Some((3, None)));
    }

    #[test]
    fn global_plans_flow_when_capacity_exists() {
        let mut q: PlanQueue<u64> = PlanQueue::new(1);
        q.set_workers(&[1, 2]);
        q.push(1, None, false);
        q.push(2, None, false);
        assert_eq!(pop(&mut q).map(|(t, _)| t), Some(1));
        q.note_dispatched(&[1]);
        q.note_dispatched(&[2]);
        assert!(pop(&mut q).is_none(), "every worker at capacity");
        q.note_completed(2);
        assert_eq!(pop(&mut q).map(|(t, _)| t), Some(2));
    }

    #[test]
    fn stall_failsafe_force_pops_past_the_cap() {
        let mut q: PlanQueue<u64> = PlanQueue::new(1);
        q.push(5, Some(1), false);
        q.note_dispatched(&[1]); // capacity never freed (lost completion)
        for _ in 1..STALL_STRIKES {
            q.note_idle_tick();
            assert!(pop(&mut q).is_none(), "still throttled");
        }
        q.note_idle_tick();
        assert_eq!(pop(&mut q), Some((5, None)), "failsafe must dispatch");
    }
}
