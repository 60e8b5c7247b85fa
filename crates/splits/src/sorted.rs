//! The sorted-column split engine (docs/PERF.md).
//!
//! The textbook exact path gathers a column over the node's rows and
//! re-sorts it for every node: `O(|Dx| log |Dx|)` per node *per candidate
//! column*, with fresh allocations throughout. This module pays the sort
//! once — the [`SortedColumn`] index built at column-load time — and gives
//! each node its presorted `(value, label)` sequence in `O(|Dx|)`:
//!
//! - a **column-task** sees one node of a resident column at a time, so
//!   [`best_split_at`] selects the node **by rank**: it sets bit
//!   `rank[r]` for each of the node's rows in a pooled bitmap over the
//!   positions of the presorted order, prefix-popcounts the bitmap's
//!   `n / 64` words, and scatters each row's `(value, label)` to the number
//!   of set bits below its own — its place in the node's sorted sequence.
//!   `O(|Ix| + n / 64)`, sequential reads of `rank`, values and labels,
//!   nothing per row outside the node. The prefix and place counts use the
//!   CPU's `popcnt` where it has one, chosen at run time: the workspace
//!   targets baseline x86-64, where `count_ones` is a SWAR sequence. At the
//!   root the rank *is* the place, and nothing is counted;
//! - a trainer that grows a **whole subtree** keeps a [`NodeOrders`] — the
//!   orders, derived by inverting the ranks, in which every open node owns a
//!   contiguous segment, stable-partitioned at each split — and
//!   [`best_split_in`] reads the node's own segment: `O(rows)` per column
//!   per tree level;
//! - the reference [`crate::exact::best_numeric_split`] gathers the node
//!   and sorts it.
//!
//! All three are sources of one kernel (`numeric_split`), which runs the
//! one boundary scan (`crate::exact::scan_boundaries`) over the pooled
//! buffer. The buffers, the bitmap and its prefix counts (`n / 8 + n / 16`
//! bytes per thread for the longest column seen) come from a thread-local
//! scratch arena, so the steady-state hot path allocates nothing but the
//! split it returns.
//!
//! A categorical column needs no value order: one pass (`visit_rows`) counts
//! the node's rows into a slot per category and the selectors of
//! [`crate::exact`] read the slots. Class labels go into the arena's flat
//! histogram — `hist[code * n_classes + y] += 1`, missing rows in the
//! reserved trailing slot, one `u64` buffer whatever the domain — which the
//! histogram engine ([`crate::hist`]) fills with a binned column's bins the
//! same way; regression targets into a `RegAgg` per category.
//!
//! # Determinism contract
//!
//! - Node row sets are always **ascending** (they start as `0..n` and every
//!   partition preserves input order), so a stable sort of the gathered node
//!   by value is a sort by `(value, row)` — the order of the index. The
//!   node's rows taken in rank order, its partitioned segment and the sorted
//!   gather are therefore the *same* sequence of values and labels, hence
//!   bit-identical incremental gains. A stable partition of the presorted
//!   order by child membership keeps that order on both sides.
//! - Class totals are **handed down**, not counted: [`best_split_at`] and
//!   [`best_split_in`] take the node's [`NodeStats`], the scan of a numeric
//!   column starts from those class counts less the counts of the node's rows
//!   missing from the column, and keeps the left counts of its best boundary
//!   as it goes. Counts are integers: the totals of a node are the same
//!   number whoever counted them and in whatever order, so a node's rows are
//!   counted once — by the root of a subtree, by a column-task once for all
//!   its columns — and every node below inherits the counts of the split
//!   that made it.
//! - Class-label children are read off the scan: the counts on each side of
//!   the winning boundary plus the node's missing rows. They equal a recount
//!   of the child's rows in any order, for the same reason.
//! - Regression totals are **not** handed down. The node's `impurity * n` a
//!   variance scan starts from is the sum of the column's *present* targets
//!   in *value* order, and every gain of the scan carries that order in its
//!   last bits; the node's statistics are sums over *all* its rows in *row*
//!   order. Deriving one from the other (`total - missing`) is exact for
//!   integers and one rounding off for floats, and the models are compared
//!   by their bytes — so the regression arm keeps its pass over the scan
//!   buffer and ignores the statistics it is handed.
//! - Regression children are accumulated over the node's rows in ascending
//!   row order (`route_children`), the order in which a subtree trainer sums
//!   a child it continues from, so floating-point sums — and the predictions
//!   of children that become leaves — agree to the last ULP. The pass is
//!   made once per node, by [`SplitCandidate::finish`] on the column that
//!   won the node's fold.
//!
//! Which source a caller uses affects cost only, never the model.
//!
//! # Observability
//!
//! Relaxed global counters record how many numeric kernels ran and how often
//! the scratch arena was reused ([`kernel_counters`]); the cluster folds them
//! into the obs metrics registry as `split_kernel_*` / `split_pool_*`.

use crate::condition::SplitTest;
use crate::exact::{
    best_breiman_prefix, best_one_vs_rest, scan_boundaries, scan_class, split_from_children,
    split_from_slots, ColumnSplit, SplitCandidate,
};
use crate::impurity::{
    ClassCounts, Impurity, LabelAgg, LabelView, NodeStats, RegAgg, VarianceScan,
};
use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::thread::LocalKey;
use ts_datatable::{AttrType, Column, SortedColumn, Value, ValuesBuf, MISSING_CAT, MISSING_RANK};

// ---------------------------------------------------------------------------
// Kernel/pool counters
// ---------------------------------------------------------------------------

static NUMERIC_SORTED_SCANS: AtomicU64 = AtomicU64::new(0);
static POOL_HITS: AtomicU64 = AtomicU64::new(0);
static POOL_MISSES: AtomicU64 = AtomicU64::new(0);

fn pool_hit() {
    POOL_HITS.fetch_add(1, Relaxed);
}

fn pool_miss() {
    POOL_MISSES.fetch_add(1, Relaxed);
}

/// Snapshot of the process-wide kernel-path and scratch-pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Numeric kernels answered from a presorted sequence: a column-task's
    /// rank selection or a node's own [`NodeOrders`] segment.
    pub numeric_sorted_scans: u64,
    // The engine has no gather+sort arm any more, so this reads 0. Kept
    // because `ledger/` reports it as `splits.gather_scans` and may not
    // change in a PR that claims a gain; the follow-up `benchmark` PR that
    // retires that row drops the field.
    #[doc(hidden)]
    pub numeric_gather_scans: u64,
    /// Scratch-arena borrows served from an adequately-sized pooled buffer.
    pub pool_hits: u64,
    /// Scratch-arena borrows that had to (re)allocate.
    pub pool_misses: u64,
}

/// Reads the process-wide kernel counters (relaxed; monotonic).
pub fn kernel_counters() -> KernelCounters {
    KernelCounters {
        numeric_sorted_scans: NUMERIC_SORTED_SCANS.load(Relaxed),
        numeric_gather_scans: 0,
        pool_hits: POOL_HITS.load(Relaxed),
        pool_misses: POOL_MISSES.load(Relaxed),
    }
}

// ---------------------------------------------------------------------------
// RowBitmap
// ---------------------------------------------------------------------------

/// A dense row-membership bitmap over global row ids.
///
/// [`NodeOrders::split`] marks the rows going left with one and tests every
/// row of the node's segments against it in `O(1)`. A bitmap is reused
/// across nodes: `insert_all` the rows, use it, then `remove_all` the same
/// rows (cheaper than re-zeroing the whole map for small nodes).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowBitmap {
    words: Vec<u64>,
}

impl RowBitmap {
    /// An empty bitmap with no capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// An all-zero bitmap sized for `n` rows.
    pub fn with_rows(n: usize) -> Self {
        RowBitmap {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Number of row ids the current allocation can hold.
    pub fn capacity_rows(&self) -> usize {
        self.words.len() * 64
    }

    /// Grows (never shrinks) to hold `n` rows, preserving set bits.
    pub fn ensure_rows(&mut self, n: usize) {
        let words = n.div_ceil(64);
        if self.words.len() < words {
            self.words.resize(words, 0);
        }
    }

    /// Whether `row` is set.
    #[inline]
    pub fn contains(&self, row: u32) -> bool {
        (self.words[(row >> 6) as usize] >> (row & 63)) & 1 != 0
    }

    /// Sets `row`.
    #[inline]
    pub fn insert(&mut self, row: u32) {
        self.words[(row >> 6) as usize] |= 1u64 << (row & 63);
    }

    /// Clears `row`.
    #[inline]
    pub fn remove(&mut self, row: u32) {
        self.words[(row >> 6) as usize] &= !(1u64 << (row & 63));
    }

    /// Sets every row id in `rows`.
    pub fn insert_all(&mut self, rows: &[u32]) {
        for &r in rows {
            self.insert(r);
        }
    }

    /// Clears every row id in `rows`.
    pub fn remove_all(&mut self, rows: &[u32]) {
        for &r in rows {
            self.remove(r);
        }
    }

    /// Clears all rows (O(capacity); prefer `remove_all` for small nodes).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }
}

// ---------------------------------------------------------------------------
// NodeRows
// ---------------------------------------------------------------------------

/// A node's row set, by reference: either every row of the column store or
/// an explicit ascending subset (the engine's analogue of `RowSet`).
#[derive(Debug, Clone, Copy)]
pub enum NodeRows<'a> {
    /// All rows `0..n`.
    All(usize),
    /// An ascending subset of row ids.
    Subset(&'a [u32]),
}

impl<'a> NodeRows<'a> {
    /// Number of rows in the node.
    pub fn len(&self) -> usize {
        match self {
            NodeRows::All(n) => *n,
            NodeRows::Subset(s) => s.len(),
        }
    }

    /// Whether the node has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates the row ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + 'a {
        let (n, slice): (u32, &'a [u32]) = match *self {
            NodeRows::All(n) => (n as u32, &[]),
            NodeRows::Subset(s) => (0, s),
        };
        (0..n).chain(slice.iter().copied())
    }

    /// Label statistics of the node, accumulated in ascending row order —
    /// the count a node's creator makes once and hands to the engine.
    pub fn stats(&self, labels: LabelView<'_>) -> NodeStats {
        match *self {
            NodeRows::All(n) => {
                debug_assert_eq!(n, labels.len(), "All(n) must span the whole column");
                NodeStats::from_view(labels)
            }
            NodeRows::Subset(rows) => {
                NodeStats::from_view_positions(labels, rows.iter().map(|&r| r as usize))
            }
        }
    }
}

fn debug_assert_ascending(node: &NodeRows<'_>) {
    if cfg!(debug_assertions) {
        if let NodeRows::Subset(rows) = node {
            debug_assert!(
                rows.windows(2).all(|w| w[0] < w[1]),
                "node row sets must be strictly ascending for the sorted engine"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Thread-local scratch arena
// ---------------------------------------------------------------------------

thread_local! {
    static PRESENT_CLASS: Cell<Vec<(f64, u32)>> = const { Cell::new(Vec::new()) };
    static PRESENT_REAL: Cell<Vec<(f64, f64)>> = const { Cell::new(Vec::new()) };
    static RANK_BITS: Cell<RankBits> =
        const { Cell::new(RankBits { words: Vec::new(), before: Vec::new() }) };
    static CLASS_PAIR: Cell<Vec<ClassCounts>> = const { Cell::new(Vec::new()) };
    static CLASS_HIST: Cell<Vec<u64>> = const { Cell::new(Vec::new()) };
    static CAT_REG: Cell<Vec<RegAgg>> = const { Cell::new(Vec::new()) };
    static SEEN: Cell<Vec<bool>> = const { Cell::new(Vec::new()) };
    static MASK: Cell<RowBitmap> = const { Cell::new(RowBitmap { words: Vec::new() }) };
}

/// A label type with a pooled `(value, label)` scan buffer on every thread.
pub(crate) trait ScanLabel: Copy + Default + 'static {
    /// This thread's buffer for the label type.
    fn pool() -> &'static LocalKey<Cell<Vec<(f64, Self)>>>;
}

impl ScanLabel for u32 {
    fn pool() -> &'static LocalKey<Cell<Vec<(f64, u32)>>> {
        &PRESENT_CLASS
    }
}

impl ScanLabel for f64 {
    fn pool() -> &'static LocalKey<Cell<Vec<(f64, f64)>>> {
        &PRESENT_REAL
    }
}

/// Borrows `len` slots of the pooled `(value, label)` scan buffer. Their
/// contents are whatever the previous borrower left — every source writes
/// each slot it reports before the scan reads it — so a reused buffer is
/// not cleared. The buffer is taken out of the cell for the duration of
/// `f`, so nested borrows degrade to a pool miss instead of panicking.
fn with_present<L: ScanLabel, R>(len: usize, f: impl FnOnce(&mut [(f64, L)]) -> R) -> R {
    L::pool().with(|cell| {
        let mut buf = cell.take();
        if buf.len() >= len {
            pool_hit();
        } else {
            pool_miss();
            buf.resize(len, (0.0, L::default()));
        }
        let r = f(&mut buf[..len]);
        cell.set(buf);
        r
    })
}

/// Scratch of the rank selection: one bit per position of a column's
/// presorted order and, per 64-bit word, the number of bits set before it.
/// `words` is all-zero between borrows.
#[derive(Default)]
struct RankBits {
    words: Vec<u64>,
    before: Vec<u32>,
}

/// Borrows this thread's rank bitmap, zeroed, and its prefix counts
/// (unspecified contents), both sized for `n_positions`.
fn with_rank_bits<R>(n_positions: usize, f: impl FnOnce(&mut [u64], &mut [u32]) -> R) -> R {
    RANK_BITS.with(|cell| {
        let mut bits = cell.take();
        let n_words = n_positions.div_ceil(64);
        if bits.words.len() >= n_words {
            pool_hit();
        } else {
            pool_miss();
            bits.words.resize(n_words, 0);
            bits.before.resize(n_words, 0);
        }
        let r = f(&mut bits.words[..n_words], &mut bits.before[..n_words]);
        bits.words[..n_words].fill(0);
        cell.set(bits);
        r
    })
}

/// Borrows the pooled `(left, right)` class-count pair for a `k`-class scan,
/// reset to empty.
pub(crate) fn with_class_pair<R>(
    k: u32,
    f: impl FnOnce(&mut ClassCounts, &mut ClassCounts) -> R,
) -> R {
    CLASS_PAIR.with(|cell| {
        let mut pair = cell.take();
        if pair.len() == 2 && pair[0].n_classes() == k as usize {
            pool_hit();
            pair[0].reset();
            pair[1].reset();
        } else {
            pool_miss();
            pair = vec![ClassCounts::new(k); 2];
        }
        let (left, rest) = pair.split_first_mut().expect("pair has two elements");
        let r = f(left, &mut rest[0]);
        cell.set(pair);
        r
    })
}

/// Borrows this thread's flat class histogram, zeroed: `n_slots` slots of
/// `n_classes` counters each, slot-major, so a row counts as
/// `hist[slot * n_classes + y] += 1` — one buffer whatever the slots are
/// (a binned column's bins, a categorical column's codes) and however many.
pub(crate) fn with_class_hist<R>(
    n_slots: usize,
    n_classes: u32,
    f: impl FnOnce(&mut [u64]) -> R,
) -> R {
    CLASS_HIST.with(|cell| {
        let mut buf = cell.take();
        let len = n_slots * n_classes as usize;
        if buf.len() >= len {
            pool_hit();
        } else {
            pool_miss();
            buf.resize(len, 0);
        }
        buf[..len].fill(0);
        let r = f(&mut buf[..len]);
        cell.set(buf);
        r
    })
}

/// Borrows the pooled per-category regression aggregates (`per_value`,
/// length `n_values`) plus a `total` aggregate, all reset to empty.
pub(crate) fn with_cat_reg<R>(n_values: u32, f: impl FnOnce(&mut [RegAgg], &mut RegAgg) -> R) -> R {
    CAT_REG.with(|cell| {
        let mut buf = cell.take();
        let want = n_values as usize + 1;
        if buf.capacity() >= want {
            pool_hit();
        } else {
            pool_miss();
        }
        buf.clear();
        buf.resize(want, RegAgg::default());
        let (total, per_value) = buf.split_last_mut().expect("buffer is non-empty");
        let r = f(per_value, total);
        cell.set(buf);
        r
    })
}

/// Borrows the pooled category-seen mask, cleared and sized to `min_len`.
pub(crate) fn with_seen<R>(min_len: usize, f: impl FnOnce(&mut Vec<bool>) -> R) -> R {
    SEEN.with(|cell| {
        let mut buf = cell.take();
        buf.clear();
        if buf.capacity() >= min_len {
            pool_hit();
        } else {
            pool_miss();
        }
        buf.resize(min_len, false);
        let r = f(&mut buf);
        cell.set(buf);
        r
    })
}

/// Borrows this thread's pooled node-membership bitmap with the given rows
/// set, running `f` against it and clearing the rows again afterwards.
// No kernel reads a node mask any more (see `best_numeric_split_at`). Kept
// because `ledger/`'s kernel probe wraps its node scan in it and may not
// change in a PR that claims a gain; the follow-up `benchmark` PR that drops
// the probe's mask argument deletes this, `MASK` and the argument.
#[doc(hidden)]
pub fn with_node_mask<R>(n_rows: usize, rows: &[u32], f: impl FnOnce(&RowBitmap) -> R) -> R {
    MASK.with(|cell| {
        let mut bm = cell.take();
        if bm.capacity_rows() >= n_rows {
            pool_hit();
        } else {
            pool_miss();
        }
        bm.ensure_rows(n_rows);
        bm.insert_all(rows);
        let r = f(&bm);
        bm.remove_all(rows);
        cell.set(bm);
        r
    })
}

// ---------------------------------------------------------------------------
// Numeric kernel
// ---------------------------------------------------------------------------

/// Where a node's present rows of a numeric column, in `(value, row)` order,
/// come from. All three yield the same sequence (module docs), so the choice
/// is the caller's data structure, not a tuning knob.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Sequence<'a> {
    /// The column's resident index: select the node's rows by rank.
    Rank(&'a SortedColumn),
    /// The node's own [`NodeOrders`] segment of the column.
    Segment(&'a [u32]),
    /// Neither: gather the node's present rows and sort them (the reference).
    GatherSort,
}

impl Sequence<'_> {
    /// Writes the sequence's `(value, label)` pairs to the front of
    /// `present` (at least `node.len()` slots) and returns their number.
    fn fill<L: Copy>(
        self,
        values: &[f64],
        node: NodeRows<'_>,
        ys: &[L],
        present: &mut [(f64, L)],
    ) -> usize {
        match self {
            Sequence::Rank(index) => select_by_rank(values, index, node, ys, present),
            Sequence::Segment(segment) => {
                for (slot, &r) in present[..segment.len()].iter_mut().zip(segment) {
                    *slot = (values[r as usize], ys[r as usize]);
                }
                segment.len()
            }
            Sequence::GatherSort => {
                let mut n = 0;
                for r in node.iter() {
                    let v = values[r as usize];
                    if !v.is_nan() {
                        present[n] = (v, ys[r as usize]);
                        n += 1;
                    }
                }
                // Stable, over rows gathered in ascending order: `(value, row)`.
                present[..n].sort_by(|a, b| a.0.total_cmp(&b.0));
                n
            }
        }
    }
}

/// Rank selection: scatters the `(value, label)` of each of the node's
/// present rows to its place in the node's sorted sequence.
///
/// At the root that place is the row's rank. For a subset it is the number
/// of the node's rows ranked below it: set bit `rank[r]` for every row, count
/// the set bits before each 64-bit word once, and a row's place is its word's
/// count plus the set bits below its own in that word. The bitmap spans the
/// column's presorted order, so the cost is `O(|node| + n / 64)`.
fn select_by_rank<L: Copy>(
    values: &[f64],
    index: &SortedColumn,
    node: NodeRows<'_>,
    ys: &[L],
    present: &mut [(f64, L)],
) -> usize {
    let rank = index.numeric_rank();
    let n_positions = index.numeric_present();
    assert_eq!(rank.len(), values.len(), "index/values length mismatch");
    match node {
        NodeRows::All(n) => {
            debug_assert_eq!(n, values.len(), "All(n) must span the whole column");
            let present = &mut present[..n_positions];
            for ((&place, &v), &y) in rank.iter().zip(values).zip(ys) {
                if place != MISSING_RANK {
                    present[place as usize] = (v, y);
                }
            }
            n_positions
        }
        NodeRows::Subset(rows) => with_rank_bits(n_positions, |words, before| {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("popcnt") {
                // SAFETY: this CPU has `popcnt`, checked just above.
                return unsafe {
                    place_by_rank_popcnt(rank, rows, values, ys, words, before, present)
                };
            }
            place_by_rank(rank, rows, values, ys, words, before, present)
        }),
    }
}

/// The subset arm of [`select_by_rank`] over the borrowed bitmap (`words`,
/// zeroed) and prefix counts: mark, prefix-count, scatter. One popcount per
/// word and one per node row, so the instruction behind `count_ones`
/// matters ([`place_by_rank_popcnt`]).
#[inline(always)]
fn place_by_rank<L: Copy>(
    rank: &[u32],
    rows: &[u32],
    values: &[f64],
    ys: &[L],
    words: &mut [u64],
    before: &mut [u32],
    present: &mut [(f64, L)],
) -> usize {
    for &r in rows {
        let p = rank[r as usize];
        if p != MISSING_RANK {
            words[(p >> 6) as usize] |= 1 << (p & 63);
        }
    }
    let mut n_present = 0;
    for (word, before) in words.iter().zip(before.iter_mut()) {
        *before = n_present;
        n_present += word.count_ones();
    }
    let present = &mut present[..n_present as usize];
    for &r in rows {
        let p = rank[r as usize];
        if p != MISSING_RANK {
            let w = (p >> 6) as usize;
            let below = words[w] & ((1 << (p & 63)) - 1);
            let place = before[w] + below.count_ones();
            present[place as usize] = (values[r as usize], ys[r as usize]);
        }
    }
    n_present as usize
}

/// [`place_by_rank`] compiled with the `popcnt` instruction. The workspace
/// targets baseline x86-64, where `count_ones` is a dozen-instruction SWAR
/// sequence; [`select_by_rank`] calls this instead when the CPU has one.
///
/// # Safety
/// The CPU must support `popcnt`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn place_by_rank_popcnt<L: Copy>(
    rank: &[u32],
    rows: &[u32],
    values: &[f64],
    ys: &[L],
    words: &mut [u64],
    before: &mut [u32],
    present: &mut [(f64, L)],
) -> usize {
    place_by_rank(rank, rows, values, ys, words, before, present)
}

/// The exact numeric kernel: the best `Ai <= v` split of a column over a
/// node's rows, reading the node's sorted sequence from `sequence`.
///
/// `values` and `labels` span the full column store; `stats` are the node's
/// label statistics. Missing rows take no part in the scan and join the
/// larger child afterwards. Class labels are not counted here: the scan
/// starts from the node's totals less its missing rows' (integers, so
/// order-free), and the children come with the candidate. Regression sums its
/// present targets in value order — the order is part of the bits of every
/// gain — and its children wait for the candidate's `finish`.
pub(crate) fn numeric_split(
    sequence: Sequence<'_>,
    values: &[f64],
    node: NodeRows<'_>,
    stats: &NodeStats,
    labels: LabelView<'_>,
    imp: Impurity,
) -> Option<SplitCandidate> {
    assert_eq!(values.len(), labels.len(), "values/labels length mismatch");
    debug_assert_ascending(&node);
    debug_assert_eq!(stats.n(), node.len() as u64, "statistics of another node");
    if !matches!(sequence, Sequence::GatherSort) {
        NUMERIC_SORTED_SCANS.fetch_add(1, Relaxed);
    }
    match labels {
        LabelView::Class(ys, k) => with_present(node.len(), |present| {
            let NodeStats::Class(totals) = stats else {
                panic!("class labels scanned with regression statistics");
            };
            let n_present = sequence.fill(values, node, ys, present);
            if n_present < 2 {
                return None;
            }
            let present = &present[..n_present];
            let missing = missing_class_counts(node, n_present, ys, k, |i| values[i].is_nan());
            let (gain, thr, left, right) = if missing.total() == 0 {
                scan_class(present, totals, imp)?
            } else {
                scan_class(present, &totals.minus(&missing), imp)?
            };
            let test = SplitTest::NumericLe(thr);
            Some(split_from_children(test, gain, left, right, &missing).into())
        }),
        LabelView::Real(ys) => with_present(node.len(), |present| {
            let n_present = sequence.fill(values, node, ys, present);
            let present = &present[..n_present];
            let mut targets = RegAgg::default();
            present.iter().for_each(|&(_, y)| targets.add(y));
            let (node_w, scan) = (targets.weighted_impurity(), VarianceScan::new(targets));
            let (gain, thr, boundary) = scan_boundaries(present, node_w, scan)?;
            let missing_left = boundary + 1 >= n_present - (boundary + 1);
            let test = SplitTest::NumericLe(thr);
            Some(SplitCandidate::unrouted(test, gain, missing_left))
        }),
    }
}

/// Exact best `Ai <= v` split of a full numeric column over a node's rows,
/// selecting the node from the column's presorted `index` by rank — the
/// column-task kernel, finished. `O(|node| + n / 64)` whatever the node's
/// share of the column.
///
/// `values` and `labels` span the full column store; `index` is the
/// column's [`SortedColumn`].
// `_mask` is not read: rank selection needs no row-membership mask. The
// parameter stays because `ledger/`'s kernel probe passes one and may not
// change in a PR that claims a gain; the follow-up `benchmark` PR drops it
// together with `with_node_mask`.
pub fn best_numeric_split_at(
    values: &[f64],
    index: &SortedColumn,
    node: NodeRows<'_>,
    _mask: Option<&RowBitmap>,
    labels: LabelView<'_>,
    imp: Impurity,
) -> Option<ColumnSplit> {
    let col = ColumnRef::Numeric { values, index };
    let stats = node.stats(labels);
    Some(best_split_at(col, node, &stats, labels, imp)?.finish(col, node, labels))
}

/// Class counts of the node's rows whose value `is_missing` — the rows a
/// class-label kernel adds to the children it read off its own counts. A
/// node with `n_present` present rows and no others is not walked.
fn missing_class_counts(
    node: NodeRows<'_>,
    n_present: usize,
    ys: &[u32],
    n_classes: u32,
    is_missing: impl Fn(usize) -> bool,
) -> ClassCounts {
    let mut missing = ClassCounts::new(n_classes);
    if n_present < node.len() {
        node.iter()
            .filter(|&r| is_missing(r as usize))
            .for_each(|r| missing.add(ys[r as usize]));
    }
    missing
}

/// Builds both children's label statistics in a single pass over the
/// node's rows **in ascending row order**, routing each row with `route`
/// (`None` = missing, goes to the `missing_left` side).
///
/// Row-order accumulation matters for floating-point targets: the subtree
/// trainer computes a child node's statistics by scanning the child's rows
/// in order, and the engine must produce bit-identical predictions for
/// children that become leaves. Summing in any other order (e.g. the sorted
/// scan order) differs in the last ULP. Class-label kernels that hold the
/// children's counts already do not need the pass. Dispatched per node shape
/// so the whole-column case runs on a plain range instead of a chained
/// iterator (measurably cheaper on 100k-row columns).
pub(crate) fn route_children<A: LabelAgg>(
    node: NodeRows<'_>,
    ys: &[A::Label],
    empty: A,
    missing_left: bool,
    route: impl Fn(usize) -> Option<bool>,
) -> (NodeStats, NodeStats) {
    // Indexed by `goes_left`, not branched on it: the routing outcome of a
    // balanced split is a coin flip, and a mispredicted branch per row costs
    // more than the add it guards.
    let mut children = [empty.clone(), empty]; // [right, left]
    let mut put = |i: usize| {
        let goes_left = route(i).unwrap_or(missing_left);
        children[usize::from(goes_left)].add(ys[i]);
    };
    match node {
        NodeRows::All(n) => (0..n).for_each(&mut put),
        NodeRows::Subset(rows) => rows.iter().for_each(|&r| put(r as usize)),
    }
    let [right, left] = children;
    (left.into(), right.into())
}

// ---------------------------------------------------------------------------
// Categorical kernels
// ---------------------------------------------------------------------------

/// Scan core 3's row loop, and the histogram engine's — visits a node's rows
/// in ascending order, handing `put` each row's slot id (its category code,
/// its bin id) and label, for `put` to count into its histogram.
pub(crate) fn visit_rows<I: Copy, L: Copy>(
    ids: &[I],
    node: NodeRows<'_>,
    ys: &[L],
    mut put: impl FnMut(I, L),
) {
    assert_eq!(ids.len(), ys.len(), "column/labels length mismatch");
    debug_assert_ascending(&node);
    match node {
        // Whole column: zip the parallel slices directly — the generic row
        // iterator costs a bounds check and a chain dispatch per row.
        NodeRows::All(n) => {
            debug_assert_eq!(n, ids.len(), "All(n) must span the whole column");
            ids.iter().zip(ys).for_each(|(&id, &y)| put(id, y));
        }
        NodeRows::Subset(rows) => rows
            .iter()
            .for_each(|&r| put(ids[r as usize], ys[r as usize])),
    }
}

/// Exact one-vs-rest categorical split (Appendix B, Case 3) of a full column
/// over a node's rows: one pass counts the rows into the pooled flat
/// histogram, a slot per category and the reserved trailing one for missing
/// rows, and the children are the winning category's slot, the rest of the
/// total and the missing slot — integers, so no second pass over the rows.
pub fn best_cat_split_classification_at(
    codes: &[u32],
    n_values: u32,
    node: NodeRows<'_>,
    ys: &[u32],
    n_classes: u32,
    imp: Impurity,
) -> Option<ColumnSplit> {
    if node.len() < 2 {
        return None;
    }
    with_class_hist(n_values as usize + 1, n_classes, |hist| {
        let k = n_classes as usize;
        // `MISSING_CAT` is `u32::MAX`: `min` sends it to the trailing slot.
        visit_rows(codes, node, ys, |code, y| {
            hist[code.min(n_values) as usize * k + y as usize] += 1;
        });
        let (per_value, missing) = hist.split_at(n_values as usize * k);
        with_class_pair(n_classes, |total, _| {
            let slots = per_value.chunks_exact(k);
            slots.clone().for_each(|slot| total.merge_slot(slot));
            if total.total() < 2 {
                return None;
            }
            let (gain, code) = best_one_vs_rest(slots.clone(), total, imp)?;
            let test = SplitTest::CatIn(vec![code]);
            let winner = slots.skip(code as usize).take(1);
            Some(split_from_slots(test, gain, winner, &*total, missing))
        })
    })
}

/// Exact Breiman categorical regression split (Appendix B, Case 2) of a full
/// column over a node's rows. The children's float sums are accumulated in
/// ascending row order (`route_children`).
pub fn best_cat_split_regression_at(
    codes: &[u32],
    n_values: u32,
    node: NodeRows<'_>,
    ys: &[f64],
) -> Option<ColumnSplit> {
    let (col, labels) = (
        ColumnRef::Categorical { codes, n_values },
        LabelView::Real(ys),
    );
    let best = best_cat_split_at(codes, n_values, node, labels, Impurity::Variance)?;
    Some(best.finish(col, node, labels))
}

/// Distinct category codes of a full column restricted to a node's rows —
/// the sorted-engine counterpart of [`crate::exact::distinct_categories`]
/// (same sorted-ascending output), using the pooled seen-mask instead of
/// gather + sort + dedup.
pub fn distinct_categories_at(codes: &[u32], node: NodeRows<'_>, n_values: u32) -> Vec<u32> {
    with_seen(n_values as usize, |seen| {
        for r in node.iter() {
            let c = codes[r as usize];
            if c != MISSING_CAT {
                seen[c as usize] = true;
            }
        }
        seen.iter()
            .enumerate()
            .filter(|&(_, &s)| s)
            .map(|(c, _)| c as u32)
            .collect()
    })
}

// ---------------------------------------------------------------------------
// Node-partitioned presorted order
// ---------------------------------------------------------------------------

/// One node's segment bounds in a [`NodeOrders`], one range per column.
/// Lengths differ between columns: a segment holds the node's *present*
/// rows of its column only.
pub type Segments = Vec<Range<usize>>;

/// A private, node-partitioned set of a dataset's presorted orders — how a
/// trainer that grows a whole (sub)tree locally hands every node its sorted
/// sequence without filtering or sorting anything per node.
///
/// Per numeric column it holds the column's presorted order of present rows
/// (nothing for categorical columns), derived from the index by inverting
/// [`SortedColumn::numeric_rank`] — the index keeps no order of its own — in
/// which every open node owns a contiguous segment: the root owns the whole
/// order, and [`NodeOrders::split`] stable-partitions a node's segment into
/// its children's. A stable partition keeps the `(value, row)` order inside
/// each side, so a segment is exactly the sequence the rank selection of
/// [`best_numeric_split_at`] and a sort of the gathered node would produce
/// for that node — the sort is paid once per column, then `O(|node|)` per
/// column per split. Segments of different nodes are disjoint, so the nodes may be
/// grown in any order (pre-order recursion, level by level).
#[derive(Debug, Clone)]
pub struct NodeOrders {
    /// Per column, the partitioned order (empty for categorical columns).
    orders: Vec<Vec<u32>>,
    /// The splitting node's rows that go left, set for the span of a split.
    side: RowBitmap,
    /// Parking space for a segment's right-going rows, shared by all columns.
    scratch: Vec<u32>,
}

impl NodeOrders {
    /// The numeric orders of a dataset's `indexes` (one per column, over
    /// `n_rows` rows): each row goes to the position its rank names.
    pub fn new<'a>(indexes: impl IntoIterator<Item = &'a SortedColumn>, n_rows: usize) -> Self {
        let orders: Vec<Vec<u32>> = indexes
            .into_iter()
            .map(|index| match index {
                SortedColumn::Numeric { rank, present } => {
                    let mut order = vec![0; *present];
                    for (row, &place) in (0..).zip(rank) {
                        if place != MISSING_RANK {
                            order[place as usize] = row;
                        }
                    }
                    order
                }
                SortedColumn::Categorical { .. } => Vec::new(),
            })
            .collect();
        let longest = orders.iter().map(Vec::len).max().unwrap_or(0);
        NodeOrders {
            orders,
            side: RowBitmap::with_rows(n_rows),
            scratch: vec![0; longest],
        }
    }

    /// The root node's segments: every column's whole order.
    pub fn root(&self) -> Segments {
        self.orders.iter().map(|o| 0..o.len()).collect()
    }

    /// The presorted present rows of column `col` for the node owning `segs`.
    pub fn segment(&self, col: usize, segs: &[Range<usize>]) -> &[u32] {
        &self.orders[col][segs[col].clone()]
    }

    /// Splits the node owning `segs` into its children: every column's
    /// segment is stable-partitioned so the rows in `left_rows` come first,
    /// both sides keeping their relative order. Returns the `(left, right)`
    /// children's segments. Rows of the node missing from `left_rows` go
    /// right; rows of other nodes are not touched.
    pub fn split(&mut self, segs: &[Range<usize>], left_rows: &[u32]) -> (Segments, Segments) {
        assert_eq!(segs.len(), self.orders.len(), "one segment per column");
        self.side.insert_all(left_rows);
        let (mut left, mut right) = (
            Vec::with_capacity(segs.len()),
            Vec::with_capacity(segs.len()),
        );
        for (order, seg) in self.orders.iter_mut().zip(segs) {
            let n_left = stable_partition(&mut order[seg.clone()], &self.side, &mut self.scratch);
            let mid = seg.start + n_left;
            left.push(seg.start..mid);
            right.push(mid..seg.end);
        }
        self.side.remove_all(left_rows);
        (left, right)
    }
}

/// Moves the rows of `seg` that are in `left` to its front, preserving the
/// relative order of both groups; returns how many went left. Every row is
/// written to both destinations and only the cursors depend on its side —
/// the side of a row under a good split is a coin flip, and a mispredicted
/// branch per row costs more than the spare store.
fn stable_partition(seg: &mut [u32], left: &RowBitmap, scratch: &mut [u32]) -> usize {
    let scratch = &mut scratch[..seg.len()];
    let (mut n_left, mut n_right) = (0, 0);
    for i in 0..seg.len() {
        let row = seg[i];
        let goes_left = usize::from(left.contains(row));
        seg[n_left] = row;
        scratch[n_right] = row;
        n_left += goes_left;
        n_right += 1 - goes_left;
    }
    seg[n_left..].copy_from_slice(&scratch[..n_right]);
    n_left
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// A borrowed full column plus its presorted index, ready for the engine.
#[derive(Debug, Clone, Copy)]
pub enum ColumnRef<'a> {
    /// Numeric values with their presorted index.
    Numeric {
        /// Full column values.
        values: &'a [f64],
        /// The column's presorted [`SortedColumn`] index.
        index: &'a SortedColumn,
    },
    /// Categorical codes with the attribute's domain size.
    Categorical {
        /// Full column codes.
        codes: &'a [u32],
        /// Domain size of the attribute.
        n_values: u32,
    },
}

/// A numeric cell as a [`Value`]: NaN is the missing value.
pub(crate) fn numeric_value(x: f64) -> Value {
    if x.is_nan() {
        Value::Missing
    } else {
        Value::Num(x)
    }
}

impl<'a> ColumnRef<'a> {
    /// The value of `row`.
    pub(crate) fn value(&self, row: usize) -> Value {
        match *self {
            ColumnRef::Numeric { values, .. } => numeric_value(values[row]),
            ColumnRef::Categorical { codes, .. } => match codes[row] {
                MISSING_CAT => Value::Missing,
                code => Value::Cat(code),
            },
        }
    }

    /// Pairs a stored [`Column`] with its index (worker column store).
    pub fn of_column(col: &'a Column, index: &'a SortedColumn, ty: AttrType) -> Self {
        match (col, ty) {
            (Column::Numeric(v), AttrType::Numeric) => ColumnRef::Numeric { values: v, index },
            (Column::Categorical(c), AttrType::Categorical { n_values }) => {
                ColumnRef::Categorical { codes: c, n_values }
            }
            _ => panic!("column kind does not match attribute type"),
        }
    }

    /// Pairs a full gathered buffer with its index (`LocalDataset` columns).
    pub fn of_buf(buf: &'a ValuesBuf, index: &'a SortedColumn, ty: AttrType) -> Self {
        match (buf, ty) {
            (ValuesBuf::Numeric(v), AttrType::Numeric) => ColumnRef::Numeric { values: v, index },
            (ValuesBuf::Categorical(c), AttrType::Categorical { n_values }) => {
                ColumnRef::Categorical { codes: c, n_values }
            }
            _ => panic!("column buffer kind does not match attribute type"),
        }
    }
}

/// Sorted-engine counterpart of [`crate::exact::best_split_for_column`]:
/// finds the same split without gathering, given the full column, its
/// presorted index and the node's row set, which it selects from the index
/// by rank. The entry point of the distributed column-tasks, which see one
/// node of a resident column at a time; trainers that grow a whole subtree
/// use [`best_split_in`]. `stats` are the node's label statistics
/// ([`NodeRows::stats`]), counted once per node by the caller, whatever the
/// number of its columns. The caller folds its columns' candidates with
/// [`SplitCandidate::challenger_wins`] and finishes the winner.
pub fn best_split_at(
    col: ColumnRef<'_>,
    node: NodeRows<'_>,
    stats: &NodeStats,
    labels: LabelView<'_>,
    imp: Impurity,
) -> Option<SplitCandidate> {
    match col {
        ColumnRef::Numeric { values, index } => {
            numeric_split(Sequence::Rank(index), values, node, stats, labels, imp)
        }
        ColumnRef::Categorical { codes, n_values } => {
            best_cat_split_at(codes, n_values, node, labels, imp)
        }
    }
}

/// [`best_split_at`] for a node that owns its presorted sequence: `segment`
/// is the node's [`NodeOrders::segment`] of this column — its present rows
/// in `(value, row)` order, so no bitmap, no sort and no pass over rows
/// outside the node — and is ignored for categorical columns, which need no
/// value order. The entry point of the subtree trainer, which hands each
/// node the statistics its parent's split came with, and of the Yggdrasil
/// baseline; same kernel over the same sequence, hence the same bytes as
/// [`best_split_at`].
pub fn best_split_in(
    col: ColumnRef<'_>,
    segment: &[u32],
    node: NodeRows<'_>,
    stats: &NodeStats,
    labels: LabelView<'_>,
    imp: Impurity,
) -> Option<SplitCandidate> {
    match col {
        ColumnRef::Numeric { values, .. } => {
            numeric_split(Sequence::Segment(segment), values, node, stats, labels, imp)
        }
        ColumnRef::Categorical { codes, n_values } => {
            best_cat_split_at(codes, n_values, node, labels, imp)
        }
    }
}

/// The categorical kernels: one-vs-rest for class labels, Breiman's prefix
/// for regression. Already histogram-shaped — a slot per category — so the
/// histogram engine ([`crate::hist`]) calls them as they are.
pub(crate) fn best_cat_split_at(
    codes: &[u32],
    n_values: u32,
    node: NodeRows<'_>,
    labels: LabelView<'_>,
    imp: Impurity,
) -> Option<SplitCandidate> {
    match labels {
        LabelView::Class(ys, k) => {
            best_cat_split_classification_at(codes, n_values, node, ys, k, imp).map(Into::into)
        }
        LabelView::Real(ys) => with_cat_reg(n_values, |per_value, total| {
            visit_rows(codes, node, ys, |code, y| {
                if code != MISSING_CAT {
                    per_value[code as usize].add(y);
                    total.add(y);
                }
            });
            if total.n < 2 {
                return None;
            }
            let (gain, left_set, n_left) = best_breiman_prefix(per_value, total)?;
            let missing_left = n_left >= total.n - n_left;
            let test = SplitTest::CatIn(left_set);
            Some(SplitCandidate::unrouted(test, gain, missing_left))
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{
        best_cat_split_classification, best_cat_split_regression, best_numeric_split,
        distinct_categories,
    };

    #[test]
    fn bitmap_insert_contains_remove() {
        let mut bm = RowBitmap::with_rows(130);
        assert_eq!(bm.capacity_rows(), 192);
        bm.insert_all(&[0, 63, 64, 129]);
        assert!(bm.contains(0) && bm.contains(63) && bm.contains(64) && bm.contains(129));
        assert!(!bm.contains(1) && !bm.contains(128));
        bm.remove_all(&[63, 129]);
        assert!(!bm.contains(63) && !bm.contains(129));
        assert!(bm.contains(0) && bm.contains(64));
        bm.clear();
        assert!(!bm.contains(0) && !bm.contains(64));
    }

    #[test]
    fn bitmap_ensure_rows_preserves_bits() {
        let mut bm = RowBitmap::new();
        bm.ensure_rows(10);
        bm.insert(5);
        bm.ensure_rows(1000);
        assert!(bm.contains(5));
        assert!(!bm.contains(999));
    }

    #[test]
    fn node_rows_iter_and_len() {
        let all: Vec<u32> = NodeRows::All(4).iter().collect();
        assert_eq!(all, vec![0, 1, 2, 3]);
        let rows = [2u32, 5, 9];
        let sub: Vec<u32> = NodeRows::Subset(&rows).iter().collect();
        assert_eq!(sub, rows);
        assert_eq!(NodeRows::All(4).len(), 4);
        assert_eq!(NodeRows::Subset(&rows).len(), 3);
        assert!(NodeRows::Subset(&[]).is_empty());
    }

    #[test]
    fn sorted_full_node_matches_legacy_numeric() {
        let values = [3.0, 1.0, f64::NAN, 2.0, 2.0, 10.0, -4.0];
        let ys = [0u32, 1, 0, 1, 0, 1, 0];
        let labels = LabelView::Class(&ys, 2);
        let legacy = best_numeric_split(&values, labels, Impurity::Gini);
        let index = SortedColumn::from_numeric(&values);
        let node = NodeRows::All(values.len());
        let engine = best_numeric_split_at(&values, &index, node, None, labels, Impurity::Gini);
        assert_eq!(engine, legacy);
    }

    #[test]
    fn sorted_subset_matches_legacy_on_gathered() {
        let values = [3.0, 1.0, f64::NAN, 2.0, 2.0, 10.0, -4.0, 5.5];
        let ys = [10.0, 20.0, 5.0, 20.0, 30.0, 1.0, 2.0, 8.0];
        let rows = [0u32, 1, 3, 4, 6, 7];
        let gathered: Vec<f64> = rows.iter().map(|&r| values[r as usize]).collect();
        let ys_g: Vec<f64> = rows.iter().map(|&r| ys[r as usize]).collect();
        let legacy = best_numeric_split(&gathered, LabelView::Real(&ys_g), Impurity::Variance);

        let index = SortedColumn::from_numeric(&values);
        let engine = best_numeric_split_at(
            &values,
            &index,
            NodeRows::Subset(&rows),
            None,
            LabelView::Real(&ys),
            Impurity::Variance,
        )
        .unwrap();
        let legacy = legacy.unwrap();
        assert_eq!(engine.test, legacy.test);
        assert_eq!(engine.gain.to_bits(), legacy.gain.to_bits());
        assert_eq!(engine.missing_left, legacy.missing_left);
        assert_eq!(engine.left, legacy.left);
        assert_eq!(engine.right, legacy.right);
    }

    /// The population counts the subset arm of rank selection can run on
    /// here: the portable body (`false`) and, where the CPU has `popcnt`,
    /// the build that uses it (`true`).
    fn popcount_paths() -> Vec<bool> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("popcnt") {
            return vec![false, true];
        }
        vec![false]
    }

    /// The subset arm through one population count, in the pooled bitmap as
    /// `select_by_rank` runs it: the sequence it writes for `rows`, labelled
    /// by row id.
    fn place_subset(values: &[f64], rows: &[u32], hardware: bool) -> Vec<(f64, u32)> {
        let index = SortedColumn::from_numeric(values);
        let rank = index.numeric_rank();
        let ys: Vec<u32> = (0..values.len() as u32).collect();
        let mut present = vec![(0.0, 0u32); rows.len()];
        let n = with_rank_bits(index.numeric_present(), |words, before| {
            #[cfg(target_arch = "x86_64")]
            if hardware {
                assert!(std::arch::is_x86_feature_detected!("popcnt"));
                // SAFETY: this CPU has `popcnt`, asserted just above.
                return unsafe {
                    place_by_rank_popcnt(rank, rows, values, &ys, words, before, &mut present)
                };
            }
            assert!(!hardware);
            place_by_rank(rank, rows, values, &ys, words, before, &mut present)
        });
        present.truncate(n);
        present
    }

    #[test]
    fn rank_selection_writes_the_nodes_sorted_sequence() {
        // Every 19th row is missing; eleven distinct values, so ties are
        // ordered by row; the label of a row is its id, so the sequence shows
        // which row landed where.
        let column = |n: usize| -> Vec<f64> {
            (0..n)
                .map(|r| match r % 19 {
                    7 => f64::NAN,
                    _ => ((r * 37) % 11) as f64,
                })
                .collect()
        };
        let expect = |values: &[f64], rows: &[u32]| -> Vec<(f64, u32)> {
            let mut pairs: Vec<(f64, u32)> = (rows.iter())
                .filter(|&&r| !values[r as usize].is_nan())
                .map(|&r| (values[r as usize], r))
                .collect();
            pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
            pairs
        };
        // 189 present rows: three bitmap words, the last one partly used.
        let n = 200usize;
        let values = column(n);
        let ys: Vec<u32> = (0..n as u32).collect();
        let index = SortedColumn::from_numeric(&values);
        let all: Vec<u32> = (0..n as u32).collect();
        let mut present = vec![(0.0, 0u32); n];
        let got = select_by_rank(&values, &index, NodeRows::All(n), &ys, &mut present);
        assert_eq!(got, 189);
        assert_eq!(present[..got], expect(&values, &all)[..]);
        // 18 947 present rows of 20 000 span 297 words; every 97th row leaves
        // most of them empty, and one in 19 of its rows is missing.
        let sparse = column(20_000);
        let cases = [
            (&values, (0..n as u32).step_by(3).collect::<Vec<u32>>()),
            (&values, vec![n as u32 - 1]),
            (&values, vec![0, 63, 64, 65, 127, 128, n as u32 - 1]),
            (&values, vec![7, 26]),
            (&values, vec![]),
            (&sparse, (0..20_000).step_by(97).collect()),
        ];
        for (values, rows) in cases {
            let want = expect(values, &rows);
            let index = SortedColumn::from_numeric(values);
            let ys: Vec<u32> = (0..values.len() as u32).collect();
            let mut present = vec![(0.0, 0u32); rows.len()];
            let got = select_by_rank(values, &index, NodeRows::Subset(&rows), &ys, &mut present);
            assert_eq!(present[..got], want[..], "rows {rows:?}");
            for hardware in popcount_paths() {
                assert_eq!(
                    place_subset(values, &rows, hardware),
                    want,
                    "popcnt {hardware}, rows {rows:?}"
                );
                // The pooled bitmap comes back zeroed for the next borrower.
                with_rank_bits(values.len(), |words, _| {
                    assert!(words.iter().all(|&w| w == 0))
                });
            }
        }
    }

    #[test]
    fn cat_kernels_match_legacy_on_subset() {
        let codes = [0u32, 2, 1, MISSING_CAT, 2, 0, 1, 2];
        let rows = [1u32, 2, 3, 4, 5, 7];
        let gathered: Vec<u32> = rows.iter().map(|&r| codes[r as usize]).collect();

        let ys_c = [0u32, 1, 0, 1, 1, 0, 0, 1];
        let ys_c_g: Vec<u32> = rows.iter().map(|&r| ys_c[r as usize]).collect();
        let legacy = best_cat_split_classification(&gathered, 3, &ys_c_g, 2, Impurity::Gini);
        let engine = best_cat_split_classification_at(
            &codes,
            3,
            NodeRows::Subset(&rows),
            &ys_c,
            2,
            Impurity::Gini,
        );
        assert_eq!(engine, legacy);

        let ys_r = [1.0, 9.0, 2.0, 8.0, 9.5, 1.5, 2.5, 9.2];
        let ys_r_g: Vec<f64> = rows.iter().map(|&r| ys_r[r as usize]).collect();
        let legacy = best_cat_split_regression(&gathered, 3, &ys_r_g);
        let engine = best_cat_split_regression_at(&codes, 3, NodeRows::Subset(&rows), &ys_r);
        assert_eq!(engine, legacy);
    }

    #[test]
    fn distinct_categories_at_matches_legacy() {
        let codes = [3u32, 1, MISSING_CAT, 0, 3, 2];
        let rows = [0u32, 2, 4, 5];
        let gathered: Vec<u32> = rows.iter().map(|&r| codes[r as usize]).collect();
        assert_eq!(
            distinct_categories_at(&codes, NodeRows::Subset(&rows), 4),
            distinct_categories(&gathered)
        );
        assert_eq!(
            distinct_categories_at(&codes, NodeRows::All(codes.len()), 4),
            distinct_categories(&codes)
        );
    }

    #[test]
    fn with_node_mask_sets_and_clears() {
        let rows = [1u32, 65];
        with_node_mask(100, &rows, |m| {
            assert!(m.contains(1) && m.contains(65));
            assert!(!m.contains(0));
        });
        // The pooled mask must come back empty for the next borrower.
        with_node_mask(100, &[], |m| {
            assert!(!m.contains(1) && !m.contains(65));
        });
    }

    #[test]
    fn one_engine_call_ticks_the_sorted_counter_once_and_the_gather_one_never() {
        let values = [1.0, 2.0, 3.0, 4.0];
        let ys = [0u32, 0, 1, 1];
        let labels = LabelView::Class(&ys, 2);
        let index = SortedColumn::from_numeric(&values);
        // Other tests tick the process-wide counters concurrently, so a
        // call's own contribution is the smallest increase seen around one.
        let ticks_per_call = |call: &dyn Fn()| {
            (0..200)
                .map(|_| {
                    let before = kernel_counters();
                    call();
                    let after = kernel_counters();
                    assert_eq!(after.numeric_gather_scans, 0);
                    assert!(
                        after.pool_hits + after.pool_misses > before.pool_hits + before.pool_misses
                    );
                    after.numeric_sorted_scans - before.numeric_sorted_scans
                })
                .min()
        };
        let node = NodeRows::Subset(&[0, 2, 3]);
        let engine = || {
            best_numeric_split_at(&values, &index, node, None, labels, Impurity::Gini);
        };
        assert_eq!(ticks_per_call(&engine), Some(1));
        // The reference kernel is not the engine: it ticks neither.
        let reference = || {
            best_numeric_split(&values, labels, Impurity::Gini);
        };
        assert_eq!(ticks_per_call(&reference), Some(0));
    }

    #[test]
    fn scratch_pool_reuses_buffers() {
        // Same-shaped consecutive borrows on one thread: second is a hit.
        let before = kernel_counters();
        with_cat_reg(8, |pv, _| assert_eq!(pv.len(), 8));
        with_cat_reg(8, |pv, _| assert_eq!(pv.len(), 8));
        let after = kernel_counters();
        assert!(after.pool_hits > before.pool_hits);
    }

    #[test]
    fn empty_and_degenerate_nodes() {
        let values = [1.0, 2.0];
        let ys = [0u32, 1];
        let labels = LabelView::Class(&ys, 2);
        let index = SortedColumn::from_numeric(&values);
        let none = NodeRows::Subset(&[]);
        assert_eq!(
            best_numeric_split_at(&values, &index, none, None, labels, Impurity::Gini),
            None
        );
        // All-missing column: empty order, nothing to split.
        let nan = [f64::NAN, f64::NAN];
        let idx2 = SortedColumn::from_numeric(&nan);
        assert_eq!(
            best_numeric_split_at(&nan, &idx2, NodeRows::All(2), None, labels, Impurity::Gini),
            None
        );
    }

    /// Two numeric columns (the second with rows 1 and 4 missing) and a
    /// categorical one over six rows.
    fn small_orders() -> (Vec<SortedColumn>, NodeOrders) {
        let indexes = vec![
            SortedColumn::from_numeric(&[5.0, 1.0, 3.0, 1.0, 4.0, 2.0]),
            SortedColumn::from_numeric(&[0.5, f64::NAN, 0.1, 0.9, f64::NAN, 0.1]),
            SortedColumn::from_categorical(&[0, 1, 0, 2, 1, 0]),
        ];
        let orders = NodeOrders::new(&indexes, 6);
        (indexes, orders)
    }

    #[test]
    fn root_segments_are_the_presorted_orders() {
        let (_, orders) = small_orders();
        let root = orders.root();
        assert_eq!(orders.segment(0, &root), [1, 3, 5, 2, 4, 0]);
        assert_eq!(orders.segment(1, &root), [2, 5, 0, 3]);
        assert!(orders.segment(2, &root).is_empty());
    }

    #[test]
    fn split_is_stable_on_both_sides_and_counts_present_rows_per_column() {
        let (_, mut orders) = small_orders();
        let root = orders.root();
        let (left, right) = orders.split(&root, &[0, 3, 4]);
        // Both sides keep the (value, row) order they had in the parent.
        assert_eq!(orders.segment(0, &left), [3, 4, 0]);
        assert_eq!(orders.segment(0, &right), [1, 5, 2]);
        // Rows 1 and 4 are missing from column 1: its segments are shorter,
        // and not the same length on the two sides.
        assert_eq!(orders.segment(1, &left), [0, 3]);
        assert_eq!(orders.segment(1, &right), [2, 5]);
        assert_eq!((left[0].len(), left[1].len(), left[2].len()), (3, 2, 0));
        assert_eq!((right[0].len(), right[1].len()), (3, 2));

        // Splitting a child leaves its sibling's segments alone.
        let (ll, lr) = orders.split(&left, &[4]);
        assert_eq!(orders.segment(0, &ll), [4]);
        assert_eq!(orders.segment(0, &lr), [3, 0]);
        assert!(orders.segment(1, &ll).is_empty());
        assert_eq!(orders.segment(1, &lr), [0, 3]);
        assert_eq!(orders.segment(0, &right), [1, 5, 2]);
        assert_eq!(orders.segment(1, &right), [2, 5]);
    }

    #[test]
    fn split_with_an_empty_side_or_a_single_row() {
        let (_, mut orders) = small_orders();
        let root = orders.root();
        let (left, right) = orders.split(&root, &[]);
        assert!(left.iter().all(|seg| seg.is_empty()));
        assert_eq!(right, root);
        assert_eq!(orders.segment(0, &right), [1, 3, 5, 2, 4, 0]);
        let (left, right) = orders.split(&root, &[0, 1, 2, 3, 4, 5]);
        assert_eq!(left, root);
        assert!(right.iter().all(|seg| seg.is_empty()));
        assert_eq!(orders.segment(1, &left), [2, 5, 0, 3]);

        // A one-row node, reached by two splits, splits into itself + nothing.
        let (_, rest) = orders.split(&root, &[0, 1, 2, 3, 4]);
        assert_eq!(orders.segment(0, &rest), [5]);
        let (l, r) = orders.split(&rest, &[5]);
        assert_eq!(orders.segment(0, &l), [5]);
        assert_eq!(orders.segment(1, &l), [5]);
        assert!(orders.segment(0, &r).is_empty());
        // The side flags are cleared after every split.
        let (l, _) = orders.split(&root, &[]);
        assert!(l.iter().all(|seg| seg.is_empty()));
    }

    #[test]
    fn segment_kernel_matches_rank_selection_and_the_gathered_reference() {
        let values = [3.0, 1.0, f64::NAN, 2.0, 2.0, 10.0, -4.0, 5.5];
        let ys = [10.0, 20.0, 5.0, 20.0, 30.0, 1.0, 2.0, 8.0];
        let labels = LabelView::Real(&ys);
        let index = SortedColumn::from_numeric(&values);
        let col = ColumnRef::Numeric {
            values: &values,
            index: &index,
        };
        let mut orders = NodeOrders::new([&index], values.len());
        let rows = [0u32, 1, 3, 4, 6, 7];
        let node = NodeRows::Subset(&rows);
        let (node_segs, _) = orders.split(&orders.root(), &rows);
        let before = kernel_counters();
        let segment = orders.segment(0, &node_segs);
        let stats = node.stats(labels);
        let in_segment = best_split_in(col, segment, node, &stats, labels, Impurity::Variance);
        assert!(kernel_counters().numeric_sorted_scans > before.numeric_sorted_scans);
        assert!(in_segment.is_some());
        let at = best_split_at(col, node, &stats, labels, Impurity::Variance);
        assert_eq!(in_segment, at);
        let gathered = numeric_split(
            Sequence::GatherSort,
            &values,
            node,
            &stats,
            labels,
            Impurity::Variance,
        );
        assert_eq!(in_segment, gathered);
        let finished = in_segment.map(|c| c.finish(col, node, labels));
        let kernel = best_numeric_split_at(&values, &index, node, None, labels, Impurity::Variance);
        assert_eq!(finished, kernel);
    }

    /// A regression node folds its columns' candidates and routes its rows
    /// for the winner alone: no candidate carries children, the loser is
    /// dropped as it came, and the winner finishes into the split its kernel
    /// returns on its own.
    #[test]
    fn regression_children_are_routed_for_the_folds_winner_only() {
        let ys = [1.0, 1.5, 9.0, 9.5, 1.2, 9.1];
        let labels = LabelView::Real(&ys);
        let values = [0.0, 1.0, 5.0, 6.0, f64::NAN, 7.0];
        let index = SortedColumn::from_numeric(&values);
        let codes = [0u32, 1, 0, 1, 2, MISSING_CAT];
        let cols = [
            ColumnRef::Categorical {
                codes: &codes,
                n_values: 3,
            },
            ColumnRef::Numeric {
                values: &values,
                index: &index,
            },
        ];
        for rows in [vec![0u32, 1, 2, 3, 4, 5], vec![0, 2, 3, 4, 5]] {
            let node = match rows.len() {
                6 => NodeRows::All(6),
                _ => NodeRows::Subset(&rows),
            };
            let mut best: Option<(usize, SplitCandidate)> = None;
            for (attr, &col) in cols.iter().enumerate() {
                let candidate =
                    best_split_at(col, node, &node.stats(labels), labels, Impurity::Variance)
                        .unwrap();
                assert!(candidate.unrouted, "column {attr} routed the node");
                if best.as_ref().is_none_or(|(battr, b)| {
                    SplitCandidate::challenger_wins(&candidate, attr, b, *battr)
                }) {
                    best = Some((attr, candidate));
                }
            }
            let (attr, winner) = best.unwrap();
            assert_eq!(attr, 1, "the numeric column separates the targets");
            let split = winner.finish(cols[attr], node, labels);
            let kernel =
                best_numeric_split_at(&values, &index, node, None, labels, Impurity::Variance);
            assert_eq!(Some(&split), kernel.as_ref());
            assert_eq!(split.n_left() + split.n_right(), rows.len() as u64);
            // Class labels: the children come with the candidate.
            let classes = [0u32, 0, 1, 1, 0, 1];
            let by_class = LabelView::Class(&classes, 2);
            for &col in &cols {
                let stats = node.stats(by_class);
                let candidate = best_split_at(col, node, &stats, by_class, Impurity::Gini).unwrap();
                assert!(!candidate.unrouted);
            }
        }
    }
}
