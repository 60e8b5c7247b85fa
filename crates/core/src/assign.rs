//! Worker assignment for tasks — the paper's §VI cost model.
//!
//! The master tracks per-worker Computation / Send / Receive workloads in
//! the matrix `M_work` and assigns each new plan greedily:
//!
//! - **Subtree-task**: the key worker is the one with minimum Comp (the task
//!   is CPU-bound), charged `|Ix| · |C| · log|Ix|`. Each candidate column is
//!   then assigned to one of its replica holders, chosen to minimise the
//!   maximum of the four affected Send/Recv cells, with the `Ix` transfer
//!   from the parent worker counted only on a holder's first column.
//! - **Column-task**: each column goes to the holder minimising
//!   `max(Recv_j, Send_parent)` after the update, charged `|Ix|` Comp.
//!
//! Local data incurs no communication charge ("TreeServer properly skips
//! adding communication workloads whenever the requested data is local").
//! All charges are remembered per task and deducted when its result arrives.

use crate::recovery::{AttrId, RecoveryError};
use std::collections::HashMap;
use ts_netsim::NodeId;

/// Column index into a workload row: computation.
pub const COMP: usize = 0;
/// Column index: bytes/rows to send.
pub const SEND: usize = 1;
/// Column index: bytes/rows to receive.
pub const RECV: usize = 2;

/// The master's workload matrix `M_work` (one row per machine; the master's
/// own row is unused).
#[derive(Debug, Clone)]
pub struct LoadMatrix {
    rows: Vec<[u64; 3]>,
}

impl LoadMatrix {
    /// Creates a matrix for `n_nodes` machines (master + workers).
    pub fn new(n_nodes: usize) -> LoadMatrix {
        LoadMatrix {
            rows: vec![[0; 3]; n_nodes],
        }
    }

    /// Current value of one cell.
    pub fn get(&self, node: NodeId, dim: usize) -> u64 {
        self.rows[node][dim]
    }

    /// Adds workload to a cell.
    pub fn add(&mut self, node: NodeId, dim: usize, amount: u64) {
        self.rows[node][dim] += amount;
    }

    /// Deducts previously-charged workload (saturating: fault recovery may
    /// clear charges that were already partially deducted).
    pub fn sub(&mut self, node: NodeId, dim: usize, amount: u64) {
        self.rows[node][dim] = self.rows[node][dim].saturating_sub(amount);
    }

    /// Applies a charge set produced by an assignment.
    pub fn apply(&mut self, charges: &[(NodeId, [u64; 3])]) {
        for &(node, ref c) in charges {
            for (d, &amount) in c.iter().enumerate() {
                self.rows[node][d] += amount;
            }
        }
    }

    /// Deducts a charge set (task completed or revoked).
    pub fn deduct(&mut self, charges: &[(NodeId, [u64; 3])]) {
        for &(node, ref c) in charges {
            for (d, &amount) in c.iter().enumerate() {
                self.sub(node, d, amount);
            }
        }
    }

    /// Resets every cell (fault recovery after revoking all in-flight work).
    pub fn clear(&mut self) {
        for r in &mut self.rows {
            *r = [0; 3];
        }
    }
}

/// Which workers hold each column (attr id → replica holders, each a worker
/// `NodeId`). Built at load time; updated on worker crash.
#[derive(Debug, Clone)]
pub struct ColumnMap {
    holders: Vec<Vec<NodeId>>,
}

impl ColumnMap {
    /// Distributes `n_attrs` columns over workers `1..=n_workers` round-robin
    /// with `replication` copies each (replica `r` of column `a` goes to
    /// worker `1 + (a + r) % n_workers`).
    pub fn round_robin(n_attrs: usize, n_workers: usize, replication: usize) -> ColumnMap {
        assert!(replication >= 1 && replication <= n_workers);
        let holders = (0..n_attrs)
            .map(|a| (0..replication).map(|r| 1 + (a + r) % n_workers).collect())
            .collect();
        ColumnMap { holders }
    }

    /// The replica holders of a column.
    pub fn holders(&self, attr: usize) -> &[NodeId] {
        &self.holders[attr]
    }

    /// All columns a given worker holds.
    pub fn columns_of(&self, worker: NodeId) -> Vec<usize> {
        (0..self.holders.len())
            .filter(|&a| self.holders[a].contains(&worker))
            .collect()
    }

    /// Number of columns.
    pub fn n_attrs(&self) -> usize {
        self.holders.len()
    }

    /// Removes a crashed worker from every replica list; returns the columns
    /// that lost a replica.
    ///
    /// If the worker held the *last* replica of some column the map is left
    /// untouched and `RecoveryError::ColumnLost` names the first such column
    /// — the data is unrecoverable and the caller should fail the job
    /// cleanly rather than continue with a hole in the schema.
    pub fn remove_worker(&mut self, worker: NodeId) -> Result<Vec<AttrId>, RecoveryError> {
        // Check before mutating so a doomed cluster still has an intact map
        // to report from.
        for (a, h) in self.holders.iter().enumerate() {
            if h == &[worker] {
                return Err(RecoveryError::ColumnLost {
                    attr: a,
                    dead: worker,
                });
            }
        }
        let mut lost = Vec::new();
        for (a, h) in self.holders.iter_mut().enumerate() {
            let before = h.len();
            h.retain(|&w| w != worker);
            if h.len() < before {
                lost.push(a);
            }
        }
        Ok(lost)
    }

    /// Removes one worker from one column's replica list, but only if
    /// another holder remains (graceful drain: the leaver stops being a
    /// holder attr-by-attr as each handoff completes, and must never leave
    /// a column unservable). Returns whether the worker was removed.
    pub fn drop_holder(&mut self, attr: usize, worker: NodeId) -> bool {
        let h = &mut self.holders[attr];
        if h.len() >= 2 && h.contains(&worker) {
            h.retain(|&w| w != worker);
            true
        } else {
            false
        }
    }

    /// Adds a worker as a holder of a column (re-replication).
    pub fn add_holder(&mut self, attr: usize, worker: NodeId) {
        if !self.holders[attr].contains(&worker) {
            self.holders[attr].push(worker);
        }
    }

    /// Plans the incremental migration that folds a joining `worker` into
    /// the map: returns `(attr, source holder)` pairs to copy onto the
    /// joiner. The plan moves the fewest bytes that both restore the
    /// replication factor and give the joiner a useful share of columns
    /// (all columns are the same byte size, so fewest bytes = fewest
    /// columns):
    ///
    /// 1. every under-replicated column gains the joiner as a replica,
    ///    single-holder columns first (the same priority `remove_worker`
    ///    uses — those are one crash away from `ColumnLost`);
    /// 2. the joiner is topped up to its fair share (`n_attrs ·
    ///    replication / n_workers_after`) with columns taken from the
    ///    richest holders, so future tasks can actually land on it.
    ///
    /// The map is **not** mutated: the joiner becomes a holder only when
    /// its `ReplicateDone` arrives (via [`ColumnMap::add_holder`]), so
    /// column tasks never target data still in flight. This is deliberately
    /// asymmetric with `remove_worker`, which must mutate eagerly because
    /// a crashed holder is gone whether or not recovery succeeds.
    pub fn add_worker(&self, worker: NodeId, replication: usize) -> Vec<(AttrId, NodeId)> {
        let mut plan: Vec<(AttrId, NodeId)> = Vec::new();
        let mut planned = vec![false; self.holders.len()];
        // Per-holder column counts, counting planned copies as the joiner's.
        let mut held: HashMap<NodeId, usize> = HashMap::new();
        for h in &self.holders {
            for &w in h {
                *held.entry(w).or_insert(0) += 1;
            }
        }

        // Phase 1: restore replication, single-holder columns first.
        let mut deficits: Vec<usize> = (0..self.holders.len())
            .filter(|&a| self.holders[a].len() < replication && !self.holders[a].contains(&worker))
            .collect();
        deficits.sort_unstable_by_key(|&a| (self.holders[a].len(), a));
        for a in deficits {
            // Source: the least-loaded current holder (ties to the lowest
            // worker id) so the copy traffic spreads.
            let &src = self.holders[a]
                .iter()
                .min_by_key(|&&w| (held.get(&w).copied().unwrap_or(0), w))
                .expect("a held column");
            plan.push((a, src));
            planned[a] = true;
        }

        // Phase 2: top the joiner up to its fair share, pulling columns off
        // the richest holders.
        let n_workers_after = held.keys().filter(|&&w| w != worker).count() + 1;
        let total: usize = self.holders.iter().map(|h| h.len()).sum();
        let fair = (total + plan.len()) / n_workers_after;
        let mut joiner_holds = self.columns_of(worker).len() + plan.len();
        while joiner_holds < fair {
            // The candidate column: held by the currently richest holder,
            // not yet planned and not already on the joiner; ties break to
            // the lowest attr for determinism.
            let pick = (0..self.holders.len())
                .filter(|&a| !planned[a] && !self.holders[a].contains(&worker))
                .filter_map(|a| {
                    self.holders[a]
                        .iter()
                        .map(|&w| (held.get(&w).copied().unwrap_or(0), w))
                        .max_by_key(|&(load, w)| (load, std::cmp::Reverse(w)))
                        .map(|(load, w)| (load, a, w))
                })
                .max_by_key(|&(load, a, _)| (load, std::cmp::Reverse(a)));
            let Some((_, a, src)) = pick else { break };
            plan.push((a, src));
            planned[a] = true;
            joiner_holds += 1;
        }

        plan.sort_unstable();
        plan
    }
}

/// Result of assigning a subtree-task.
#[derive(Debug, Clone)]
pub struct SubtreeAssignment {
    /// The worker that collects `Dx` and builds `∆x`.
    pub key_worker: NodeId,
    /// Per candidate column, the holder the key worker will ask (sorted by
    /// attribute id for deterministic dataset layout).
    pub col_sources: Vec<(usize, NodeId)>,
    /// Workload charges applied to `M_work` (deduct on completion).
    pub charges: Vec<(NodeId, [u64; 3])>,
    /// Distinct workers that will request `Ix` from the parent worker.
    pub ix_requesters: Vec<NodeId>,
}

/// Result of assigning a column-task.
#[derive(Debug, Clone)]
pub struct ColumnAssignment {
    /// Per-worker column shards (each worker holds all its assigned columns).
    pub shards: Vec<(NodeId, Vec<usize>)>,
    /// Workload charges applied to `M_work`.
    pub charges: Vec<(NodeId, [u64; 3])>,
    /// Distinct workers that will request `Ix` (= the shard workers).
    pub ix_requesters: Vec<NodeId>,
}

struct ChargeSet {
    map: HashMap<NodeId, [u64; 3]>,
}

impl ChargeSet {
    fn new() -> ChargeSet {
        ChargeSet {
            map: HashMap::new(),
        }
    }

    fn add(&mut self, m: &mut LoadMatrix, node: NodeId, dim: usize, amount: u64) {
        m.add(node, dim, amount);
        self.map.entry(node).or_insert([0; 3])[dim] += amount;
    }

    fn into_vec(self) -> Vec<(NodeId, [u64; 3])> {
        let mut v: Vec<_> = self.map.into_iter().collect();
        v.sort_unstable_by_key(|&(n, _)| n);
        v
    }
}

/// `|Ix| · |C| · log2|Ix|` — the paper's subtree compute estimate.
fn subtree_comp_cost(n_rows: u64, n_cols: usize) -> u64 {
    let log = 64 - n_rows.max(2).leading_zeros() as u64; // ~ceil(log2)
    n_rows * n_cols as u64 * log
}

/// Assigns a subtree-task (paper §VI, "Assignment of a Subtree-Task").
///
/// `parent_worker` is `None` for root tasks (no `Ix` transfer happens).
pub fn assign_subtree(
    m: &mut LoadMatrix,
    colmap: &ColumnMap,
    workers: &[NodeId],
    candidates: &[usize],
    n_rows: u64,
    parent_worker: Option<NodeId>,
) -> SubtreeAssignment {
    assert!(!workers.is_empty());
    let mut charges = ChargeSet::new();

    // Key worker: minimum current computation workload.
    let key = *workers
        .iter()
        .min_by_key(|&&w| (m.get(w, COMP), w))
        .expect("nonempty worker list");
    charges.add(m, key, COMP, subtree_comp_cost(n_rows, candidates.len()));

    // The key worker itself fetches Ix (for the Y values).
    let mut requesters: Vec<NodeId> = Vec::new();
    if let Some(pa) = parent_worker {
        requesters.push(key);
        charges.add(m, key, RECV, n_rows);
        if pa != key {
            charges.add(m, pa, SEND, n_rows);
        }
    }

    let mut col_sources = Vec::with_capacity(candidates.len());
    let mut cands = candidates.to_vec();
    cands.sort_unstable();
    for &attr in &cands {
        let holders = colmap.holders(attr);
        debug_assert!(!holders.is_empty(), "column {attr} has no holder");
        // Pick the holder minimising the max of the four §VI updates.
        let mut best: Option<(u64, NodeId)> = None;
        for &j in holders {
            // Updates (1)+(2) — the Ix transfer — apply only on a remote
            // holder's first assigned column (it requests Ix exactly once).
            let is_first = parent_worker.is_some() && !requesters.contains(&j);
            let score = if j == key {
                // Column local to the key worker: no transfers at all beyond
                // the Ix request already counted for the key.
                let vals = [
                    m.get(j, RECV),
                    parent_worker.map_or(0, |pa| m.get(pa, SEND)),
                    m.get(j, SEND),
                    m.get(key, RECV),
                ];
                *vals.iter().max().expect("4 values")
            } else {
                let ix_in = if is_first { n_rows } else { 0 };
                let vals = [
                    m.get(j, RECV) + ix_in,
                    parent_worker.map_or(0, |pa| m.get(pa, SEND) + ix_in),
                    m.get(j, SEND) + n_rows,
                    m.get(key, RECV) + n_rows,
                ];
                *vals.iter().max().expect("4 values")
            };
            if best.is_none_or(|(bs, bj)| score < bs || (score == bs && j < bj)) {
                best = Some((score, j));
            }
        }
        let (_, j) = best.expect("at least one holder");
        // Apply the chosen updates.
        if j != key {
            if let Some(pa) = parent_worker {
                if !requesters.contains(&j) {
                    charges.add(m, j, RECV, n_rows);
                    if pa != j {
                        charges.add(m, pa, SEND, n_rows);
                    }
                    requesters.push(j);
                }
            }
            charges.add(m, j, SEND, n_rows);
            charges.add(m, key, RECV, n_rows);
        }
        col_sources.push((attr, j));
    }

    requesters.sort_unstable();
    requesters.dedup();
    SubtreeAssignment {
        key_worker: key,
        col_sources,
        charges: charges.into_vec(),
        ix_requesters: requesters,
    }
}

/// Assigns a column-task (paper §VI, "Assignment of a Column-Task").
pub fn assign_column_task(
    m: &mut LoadMatrix,
    colmap: &ColumnMap,
    candidates: &[usize],
    n_rows: u64,
    parent_worker: Option<NodeId>,
) -> ColumnAssignment {
    let mut charges = ChargeSet::new();
    let mut shards: HashMap<NodeId, Vec<usize>> = HashMap::new();
    let mut cands = candidates.to_vec();
    cands.sort_unstable();
    for &attr in &cands {
        let holders = colmap.holders(attr);
        // Primary key: the paper's max(Recv_j, Send_pa) network rule.
        // Secondary key: scan compute, which breaks the tie that would
        // otherwise pile every column onto the first chosen worker (its Ix
        // transfer is only counted once, so its network score never grows).
        let mut best: Option<((u64, u64), NodeId)> = None;
        for &j in holders {
            let is_first = !shards.contains_key(&j);
            let net = match parent_worker {
                Some(pa) => {
                    let ix_in = if is_first { n_rows } else { 0 };
                    let recv_j = m.get(j, RECV) + ix_in;
                    let send_pa = m.get(pa, SEND) + if is_first && pa != j { n_rows } else { 0 };
                    recv_j.max(send_pa)
                }
                // Root task: no Ix transfer.
                None => 0,
            };
            let score = (net, m.get(j, COMP) + n_rows);
            if best.is_none_or(|(bs, bj)| score < bs || (score == bs && j < bj)) {
                best = Some((score, j));
            }
        }
        let (_, j) = best.expect("at least one holder");
        let is_first = !shards.contains_key(&j);
        if is_first {
            if let Some(pa) = parent_worker {
                charges.add(m, j, RECV, n_rows);
                if pa != j {
                    charges.add(m, pa, SEND, n_rows);
                }
            }
        }
        // One-pass scan cost per column.
        charges.add(m, j, COMP, n_rows);
        shards.entry(j).or_default().push(attr);
    }
    let mut shards: Vec<(NodeId, Vec<usize>)> = shards.into_iter().collect();
    shards.sort_unstable_by_key(|&(w, _)| w);
    let ix_requesters: Vec<NodeId> = if parent_worker.is_some() {
        shards.iter().map(|&(w, _)| w).collect()
    } else {
        Vec::new()
    };
    ColumnAssignment {
        shards,
        charges: charges.into_vec(),
        ix_requesters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workers(n: usize) -> Vec<NodeId> {
        (1..=n).collect()
    }

    #[test]
    fn round_robin_replication() {
        let cm = ColumnMap::round_robin(5, 3, 2);
        assert_eq!(cm.holders(0), &[1, 2]);
        assert_eq!(cm.holders(2), &[3, 1]);
        assert_eq!(cm.columns_of(1), vec![0, 2, 3]);
        assert_eq!(cm.n_attrs(), 5);
    }

    #[test]
    fn key_worker_is_min_comp() {
        let mut m = LoadMatrix::new(4);
        m.add(1, COMP, 100);
        m.add(2, COMP, 10);
        m.add(3, COMP, 50);
        let cm = ColumnMap::round_robin(4, 3, 2);
        let a = assign_subtree(&mut m, &cm, &workers(3), &[0, 1], 1000, Some(1));
        assert_eq!(a.key_worker, 2);
        // Comp charge was applied to the key worker.
        assert!(m.get(2, COMP) > 10);
    }

    #[test]
    fn subtree_charges_deduct_to_zero() {
        let mut m = LoadMatrix::new(4);
        let cm = ColumnMap::round_robin(6, 3, 2);
        let a = assign_subtree(&mut m, &cm, &workers(3), &[0, 1, 2, 3], 500, Some(2));
        m.deduct(&a.charges);
        for w in 1..=3 {
            for d in 0..3 {
                assert_eq!(m.get(w, d), 0, "worker {w} dim {d}");
            }
        }
    }

    #[test]
    fn subtree_requesters_cover_key_and_holders() {
        let mut m = LoadMatrix::new(4);
        let cm = ColumnMap::round_robin(6, 3, 1);
        let a = assign_subtree(&mut m, &cm, &workers(3), &[0, 1, 2], 100, Some(1));
        // Key worker always requests; every distinct remote holder too.
        assert!(a.ix_requesters.contains(&a.key_worker));
        for &(_, h) in &a.col_sources {
            if h != a.key_worker {
                assert!(a.ix_requesters.contains(&h), "holder {h} must request Ix");
            }
        }
        // Requester list is sorted and deduplicated.
        assert!(a.ix_requesters.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn root_subtree_has_no_requesters() {
        let mut m = LoadMatrix::new(4);
        let cm = ColumnMap::round_robin(6, 3, 2);
        let a = assign_subtree(&mut m, &cm, &workers(3), &[0, 1, 2], 100, None);
        assert!(a.ix_requesters.is_empty());
        // No Recv charge for Ix on the key worker either.
        let key_charge = a
            .charges
            .iter()
            .find(|&&(w, _)| w == a.key_worker)
            .unwrap()
            .1;
        assert_eq!(key_charge[RECV] % 100, 0, "only column transfers counted");
    }

    #[test]
    fn column_sources_are_sorted_and_held() {
        let mut m = LoadMatrix::new(5);
        let cm = ColumnMap::round_robin(8, 4, 2);
        let a = assign_subtree(&mut m, &cm, &workers(4), &[5, 1, 3], 100, Some(2));
        let attrs: Vec<usize> = a.col_sources.iter().map(|&(a, _)| a).collect();
        assert_eq!(attrs, vec![1, 3, 5]);
        for &(attr, h) in &a.col_sources {
            assert!(cm.holders(attr).contains(&h));
        }
    }

    #[test]
    fn column_task_shards_cover_all_candidates() {
        let mut m = LoadMatrix::new(4);
        let cm = ColumnMap::round_robin(10, 3, 2);
        let a = assign_column_task(&mut m, &cm, &[0, 1, 2, 3, 4], 200, Some(1));
        let mut covered: Vec<usize> = a.shards.iter().flat_map(|(_, c)| c.clone()).collect();
        covered.sort_unstable();
        assert_eq!(covered, vec![0, 1, 2, 3, 4]);
        for (w, cols) in &a.shards {
            for c in cols {
                assert!(cm.holders(*c).contains(w), "worker {w} must hold col {c}");
            }
        }
        assert_eq!(a.ix_requesters.len(), a.shards.len());
    }

    #[test]
    fn column_task_balances_receive_load() {
        // With every column on both workers, the greedy rule should spread
        // columns rather than pile them on one worker.
        let mut m = LoadMatrix::new(3);
        let cm = ColumnMap::round_robin(8, 2, 2);
        let a = assign_column_task(&mut m, &cm, &(0..8).collect::<Vec<_>>(), 100, Some(1));
        assert_eq!(a.shards.len(), 2, "both workers should get a shard");
        let sizes: Vec<usize> = a.shards.iter().map(|(_, c)| c.len()).collect();
        assert!(sizes.iter().all(|&s| s >= 2), "shards {sizes:?} too skewed");
    }

    #[test]
    fn column_task_deducts_to_zero() {
        let mut m = LoadMatrix::new(4);
        let cm = ColumnMap::round_robin(5, 3, 2);
        let a = assign_column_task(&mut m, &cm, &[0, 1, 2], 50, Some(3));
        m.deduct(&a.charges);
        for w in 1..=3 {
            for d in 0..3 {
                assert_eq!(m.get(w, d), 0);
            }
        }
    }

    #[test]
    fn remove_worker_keeps_replicas() {
        let mut cm = ColumnMap::round_robin(4, 3, 2);
        let lost = cm.remove_worker(2).expect("replicas survive with k = 2");
        assert!(!lost.is_empty());
        for a in 0..4 {
            assert!(!cm.holders(a).is_empty());
            assert!(!cm.holders(a).contains(&2));
        }
        cm.add_holder(0, 3);
        assert!(cm.holders(0).contains(&3));
    }

    #[test]
    fn removing_last_replica_errors() {
        let mut cm = ColumnMap::round_robin(2, 2, 1);
        // Worker 1 is column 0's only holder: removal must fail cleanly and
        // leave the map untouched for the failure report.
        let err = cm.remove_worker(1).unwrap_err();
        assert_eq!(err, RecoveryError::ColumnLost { attr: 0, dead: 1 });
        assert_eq!(cm.holders(0), &[1]);
        assert_eq!(cm.holders(1), &[2]);
    }

    #[test]
    fn add_worker_restores_replication_single_holder_first() {
        // Start from a crash: drop worker 2 so some columns are down a
        // replica, then plan a join.
        let mut cm = ColumnMap::round_robin(6, 3, 2);
        cm.remove_worker(2).expect("replicas survive");
        let plan = cm.add_worker(4, 2);
        // Every under-replicated column must be in the plan, sourced from a
        // current holder.
        for a in 0..6 {
            if cm.holders(a).len() < 2 {
                let entry = plan.iter().find(|&&(pa, _)| pa == a);
                let &(_, src) = entry.expect("deficit column {a} planned");
                assert!(cm.holders(a).contains(&src));
            }
        }
        // The map itself is untouched until ReplicateDone lands.
        assert!(cm.columns_of(4).is_empty());
        // Deterministic: planning twice gives the same answer.
        assert_eq!(plan, cm.add_worker(4, 2));
    }

    #[test]
    fn add_worker_tops_up_to_fair_share() {
        // Fully-replicated map: no deficits, so the plan is pure top-up.
        let cm = ColumnMap::round_robin(8, 2, 2);
        let plan = cm.add_worker(3, 2);
        // 16 replica instances over 3 workers → fair share ≥ 5 columns, and
        // no column is planned twice.
        assert!(plan.len() >= 5, "plan {plan:?} leaves the joiner starved");
        let mut attrs: Vec<usize> = plan.iter().map(|&(a, _)| a).collect();
        attrs.sort_unstable();
        attrs.dedup();
        assert_eq!(attrs.len(), plan.len(), "no duplicate columns");
        for &(a, src) in &plan {
            assert!(cm.holders(a).contains(&src), "source must hold {a}");
            assert!(!cm.holders(a).contains(&3));
        }
    }

    #[test]
    fn add_worker_noop_when_joiner_already_at_share() {
        let mut cm = ColumnMap::round_robin(3, 3, 1);
        // Give the joiner everything first: nothing left to plan.
        for a in 0..3 {
            cm.add_holder(a, 4);
        }
        assert!(cm.add_worker(4, 1).is_empty());
    }

    #[test]
    fn load_matrix_saturating_sub() {
        let mut m = LoadMatrix::new(2);
        m.add(1, SEND, 5);
        m.sub(1, SEND, 10);
        assert_eq!(m.get(1, SEND), 0);
        m.add(1, COMP, 3);
        m.clear();
        assert_eq!(m.get(1, COMP), 0);
    }
}
