//! Flat, structure-of-arrays compilation of a [`DecisionTreeModel`] and the
//! batched evaluator over it.
//!
//! `Tree::predict_with` walks pointer-chasing `Node` enums one row at a
//! time: every step loads a ~200-byte `Node` (nested `Option`s, `Vec`s,
//! `SplitInfo`), constructs a [`Value`](ts_datatable::Value) through a
//! closure, and branches on enum tags. That is fine for accuracy checks and
//! hopeless for serving. [`CompiledTree`] flattens the arena once into a
//! serving layout:
//!
//! - nodes renumbered **breadth-first** so each level is contiguous and
//!   siblings are adjacent (`right = left + 1` — the right-child pointer
//!   disappears and descent is an add: `left + (outcome)`);
//! - the hot per-node fields packed into one 32-byte, 32-byte-aligned
//!   record `{feature, left, mask, thr, seen}` that is the **same
//!   computation for every node kind** — `next = left + ((w & mask) > thr)`
//!   — so a traversal step never branches on what kind of node it is at
//!   (see [`HotNode`]);
//! - all categorical sets concatenated in one pool, and all node payloads
//!   (labels, PMF rows, means) in contiguous buffers indexed by node id.
//!
//! Tables are scored in row blocks ([`DEFAULT_BLOCK_ROWS`]); within a
//! block each row's walk runs entirely in registers. A
//! [`CompiledEnsemble`] holds a model's compiled members and its rule —
//! one tree, a bagged forest, a boosted sum — and its one block loop is
//! where every batched prediction runs: the model types' whole-table
//! methods, GBT training's margin update, and `ts-serve`.
//!
//! The compiled path is **bit-for-bit identical** to the reference
//! traversal (`crates/serve/tests/compiled_equiv.rs` enforces this): the
//! Appendix-D stopping rules — depth cap, missing value, unseen categorical
//! code — stop a row at the node the reference stops it at, and every
//! consumer that aggregates over trees (forest PMF averaging, GBT margin
//! accumulation) folds per-row results in the same tree order with the
//! same arithmetic expressions as the reference implementation.

use crate::forest::{argmax, uniform_pmf};
use crate::model::{DecisionTreeModel, Prediction};
use std::collections::BTreeSet;
use ts_datatable::{Column, DataTable, Task, MISSING_CAT};
use ts_splits::SplitTest;

/// Sentinel for "no seen-set recorded" in [`CompiledTree::seen_range`].
const NO_SEEN: u32 = u32::MAX;

/// Default row-block size ([`ServeOptions::default`]): big enough to
/// amortise per-block setup, small enough that the block's
/// [`BlockImage`] stays L2-resident while the walk re-reads it
/// `levels × trees` times (2048 rows × 8 B per cell: 160 KiB at 10
/// columns, 480 KiB at the ledger table's 30).
pub const DEFAULT_BLOCK_ROWS: usize = 2048;

/// Rows walked in lockstep by the uncapped traversal. One row's walk is a
/// serial chain of dependent loads; this many independent chains keep the
/// pipeline fed. Raising it further mostly adds register pressure.
const INTERLEAVE: usize = 16;

/// The 32 bytes of tree data a traversal step reads — one record, one
/// computation, whatever the node is. With `w` the row's [`BlockImage`]
/// cell at `feature`:
///
/// ```text
/// stop  =  w & seen == 0
/// next  =  left + ((w & mask) > thr)
/// ```
///
/// | node        | `mask`      | `thr`            | `seen`             | `left`     |
/// |-------------|-------------|------------------|--------------------|------------|
/// | numeric     | `!0`        | [`sort_key`] ≥ 1 | `!0`               | left child |
/// | categorical | `!left_set` | `0`              | seen-set (or `!0`) | left child |
/// | leaf        | `0`         | `!0`             | `!0`               | itself     |
///
/// A numeric cell is its threshold-ordered key, so `(w & !0) > thr` is
/// `x > threshold`; a categorical cell is the one-hot bit of its code, so
/// `(w & !left_set) > 0` is "code not in the left-set"; a leaf's masked
/// cell is `0`, never above `!0`, so it stays where it is. The image
/// encodes every missing value as `0` (and every categorical code the
/// one-hot cell cannot express), which no mask intersects: one
/// never-taken test covers a missing value of either kind and a code
/// unseen in training.
///
/// The node's kind is not stored; it follows from the operands
/// ([`HotNode::kind`]) and only the stop path, the depth-capped walk and
/// the tests ask for it. `align(32)` keeps a record inside one cache line.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(32))]
struct HotNode {
    /// Column whose cell the step reads. A leaf carries its **parent's**
    /// feature: a row that reached the leaf got past the parent, so that
    /// cell is one it has already read and (pool-path rows aside) not a
    /// missing one — a finished row never trips the stop test on some
    /// unrelated column's missing value.
    feature: u32,
    /// Left-child node id; the right child is always `left + 1`. Leaves
    /// store their **own** id, turning the leaf step into a self-loop.
    left: u32,
    mask: u64,
    thr: u64,
    seen: u64,
}

/// What a node is, recovered from its [`HotNode`] operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Leaf,
    Num,
    Cat,
}

impl HotNode {
    /// `thr == 0` is the categorical mark: [`numeric_thr`] is never below
    /// 1 and a leaf's is `!0`.
    #[inline(always)]
    fn is_cat(&self) -> bool {
        self.thr == 0
    }

    /// The kind of the node with id `id` (children come after their
    /// parent, so only a leaf points at itself).
    fn kind(&self, id: u32) -> Kind {
        if self.left == id {
            Kind::Leaf
        } else if self.is_cat() {
            Kind::Cat
        } else {
            Kind::Num
        }
    }
}

/// Maps an `f64` bit pattern to a `u64` whose **unsigned** order matches
/// IEEE `<` on the underlying doubles (NaNs excluded): non-negative values
/// get the sign bit set, negative values are bitwise inverted. Comparing
/// keys lets the traversal step run entirely on the integer ALUs — no
/// float compares, whose two-`ucomisd` NaN dance bottlenecks one port.
///
/// `x > thr ⟺ sort_key(x) > sort_key(thr)` for every non-NaN `x` provided
/// `thr` is not `-0.0` (the one pair IEEE treats as equal but the keys
/// order); `compile` normalises `-0.0` thresholds to `+0.0`, which is
/// decision-preserving since `x > -0.0 ⟺ x > +0.0` for all `x`.
///
/// No non-NaN pattern maps to `0` (only the all-ones NaN does): the keys
/// of `-∞ … +∞` span `0x000F_FFFF_FFFF_FFFF ..= 0xFFF0_0000_0000_0000`,
/// which leaves `0` free to mean "missing" in the image.
#[inline(always)]
const fn sort_key(bits: u64) -> u64 {
    bits ^ ((((bits as i64) >> 63) as u64) | 1 << 63)
}

/// The image cell of a numeric value: its [`sort_key`], or `0` for a NaN
/// of either sign — without a data branch.
#[inline(always)]
const fn numeric_cell(x: f64) -> u64 {
    let b = x.to_bits();
    let nan = (b & !(1 << 63) > f64::INFINITY.to_bits()) as u64;
    sort_key(b) & nan.wrapping_sub(1)
}

/// The image cell of a categorical code: its one-hot bit, or `0` for a
/// code the 64-bit cell cannot express — ≥ 64, [`MISSING_CAT`] included
/// (a real code < 64 never encodes to zero).
#[inline(always)]
const fn categorical_cell(code: u32) -> u64 {
    1u64.wrapping_shl(code) & ((code < 64) as u64).wrapping_neg()
}

/// The `thr` operand of `x <= v`: `v`'s key, with a `-0.0` threshold
/// normalised to `+0.0` (`v + 0.0`; see [`sort_key`]). `x <= NaN` holds
/// for no `x`, so a NaN threshold becomes the key below every cell's —
/// which also keeps `thr == 0` exclusive to categorical nodes.
fn numeric_thr(v: f64) -> u64 {
    if v.is_nan() {
        1
    } else {
        sort_key((v + 0.0).to_bits())
    }
}

/// The rows a call scores, in output order.
#[derive(Debug, Clone, Copy)]
pub enum Rows<'a> {
    /// The contiguous rows `[first, first + len)`.
    Span {
        /// First row.
        first: usize,
        /// Number of rows.
        len: usize,
    },
    /// The listed rows, in list order; repeats are scored once each.
    Ids(&'a [u32]),
}

impl<'a> Rows<'a> {
    /// Every row of `table`.
    pub fn all(table: &DataTable) -> Rows<'static> {
        Rows::Span {
            first: 0,
            len: table.n_rows(),
        }
    }

    /// Number of rows scored.
    pub fn len(&self) -> usize {
        match *self {
            Rows::Span { len, .. } => len,
            Rows::Ids(ids) => ids.len(),
        }
    }

    /// True when no row is scored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `len` rows from position `at` on.
    pub fn slice(&self, at: usize, len: usize) -> Rows<'a> {
        match *self {
            Rows::Span { first, len: all } => {
                assert!(at + len <= all);
                Rows::Span {
                    first: first + at,
                    len,
                }
            }
            Rows::Ids(ids) => Rows::Ids(&ids[at..at + len]),
        }
    }

    /// The table row at position `i`.
    fn row(&self, i: usize) -> usize {
        match *self {
            Rows::Span { first, .. } => first + i,
            Rows::Ids(ids) => ids[i] as usize,
        }
    }
}

/// A [`DataTable`] prepared for traversal: borrowed raw column slices plus
/// a per-column kind vector. Traversal reads cells through a
/// [`BlockImage`] — a **unified** row-major `u64` image of one row block —
/// built via [`TableView::image`] / [`BlockImage::fill`].
pub struct TableView<'a> {
    cols: Vec<ColView<'a>>,
    /// Per column: 1 if categorical, 0 if numeric.
    col_cat: Vec<u32>,
    n_rows: usize,
}

/// One borrowed column.
pub enum ColView<'a> {
    /// Raw numeric values (`NaN` = missing).
    Num(&'a [f64]),
    /// Raw categorical codes ([`MISSING_CAT`] = missing).
    Cat(&'a [u32]),
}

impl<'a> TableView<'a> {
    /// Borrows every column of `table`.
    pub fn of(table: &'a DataTable) -> TableView<'a> {
        let n_rows = table.n_rows();
        let cols: Vec<ColView<'a>> = table
            .columns()
            .iter()
            .map(|c| match c {
                Column::Numeric(v) => ColView::Num(v),
                Column::Categorical(v) => ColView::Cat(v),
            })
            .collect();
        let col_cat: Vec<u32> = cols
            .iter()
            .map(|c| match c {
                ColView::Num(_) => 0,
                ColView::Cat(_) => 1,
            })
            .collect();
        TableView {
            cols,
            col_cat,
            n_rows,
        }
    }

    /// An empty [`BlockImage`] over this view; [`BlockImage::fill`] it
    /// with a row block before traversing.
    pub fn image<'v>(&'v self) -> BlockImage<'v, 'a> {
        BlockImage {
            view: self,
            rows: Rows::Span { first: 0, len: 0 },
            cells: Vec::new(),
        }
    }
}

/// The unified `u64` image of one row block of a [`TableView`], row-major:
/// [`numeric_cell`]s and [`categorical_cell`]s, `0` wherever the value is
/// missing. It lets the traversal step load any column with one untyped
/// 8-byte read instead of dispatching on the column kind.
///
/// Imaging **per block** rather than per table keeps the walk's working
/// set cache-resident: the block's cells are written hot just before the
/// walk reads them `levels × trees` times, instead of a whole-table image
/// streaming through and out of cache before its first use. The buffer is
/// reused across [`Self::fill`] calls, so a block loop performs one
/// allocation total.
pub struct BlockImage<'v, 'a> {
    view: &'v TableView<'a>,
    rows: Rows<'v>,
    cells: Vec<u64>,
}

impl<'v, 'a> BlockImage<'v, 'a> {
    /// Rebuilds this image over `rows` of its view — a span, or a request
    /// batch's scattered row ids imaged straight from the table they lie
    /// in. One pass: the cell transform runs once per cell here instead of
    /// `levels × trees` times in the walk.
    pub fn fill(&mut self, rows: Rows<'v>) {
        let n_cols = self.view.cols.len();
        let len = rows.len();
        // (Listed rows are checked where they are gathered.)
        if let Rows::Span { first, len } = rows {
            assert!(first + len <= self.view.n_rows);
        }
        self.rows = rows;
        self.cells.clear();
        self.cells.reserve(n_cols * len);
        // Column-outer fill within L1-sized row tiles: each inner loop is
        // monomorphic and branch-free (no per-cell kind dispatch), reading
        // its source column in row order; writing through
        // `spare_capacity_mut` skips a `vec![0; ..]` memset. The tile
        // bounds how often a destination cache line is revisited — the
        // column passes of one tile all hit the same ~32 KB of image, so
        // each line is written back once instead of once per column.
        let spare = &mut self.cells.spare_capacity_mut()[..n_cols * len];
        let tile = (4096 / n_cols.max(1)).max(64);
        for (t, chunk) in spare.chunks_mut(tile * n_cols.max(1)).enumerate() {
            let tile_rows = rows.slice(t * tile, chunk.len() / n_cols.max(1));
            for (ci, col) in self.view.cols.iter().enumerate() {
                let dst = chunk[ci..].iter_mut().step_by(n_cols.max(1));
                match (col, tile_rows) {
                    (ColView::Num(v), Rows::Span { first, len }) => {
                        write_cells(dst, v[first..first + len].iter().copied(), numeric_cell)
                    }
                    (ColView::Num(v), Rows::Ids(ids)) => {
                        write_cells(dst, ids.iter().map(|&r| v[r as usize]), numeric_cell)
                    }
                    (ColView::Cat(v), Rows::Span { first, len }) => {
                        write_cells(dst, v[first..first + len].iter().copied(), categorical_cell)
                    }
                    (ColView::Cat(v), Rows::Ids(ids)) => {
                        write_cells(dst, ids.iter().map(|&r| v[r as usize]), categorical_cell)
                    }
                }
            }
        }
        // SAFETY: the loops above initialised all `n_cols * len` cells:
        // every index `r * n_cols + ci` is covered exactly once.
        unsafe { self.cells.set_len(n_cols * len) };
    }

    /// Number of imaged rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the imaged block is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// One column pass of one tile of [`BlockImage::fill`]: `cell` of each
/// source value into the column's strided destination cells.
#[inline(always)]
fn write_cells<'d, T>(
    dst: impl Iterator<Item = &'d mut std::mem::MaybeUninit<u64>>,
    src: impl Iterator<Item = T>,
    cell: impl Fn(T) -> u64,
) {
    for (d, x) in dst.zip(src) {
        d.write(cell(x));
    }
}

/// Per-node prediction payloads, stored contiguously across all nodes
/// (internal nodes carry predictions too — traversal can stop anywhere).
#[derive(Debug, Clone)]
pub enum Payload {
    /// Classification: majority label per node plus one `k`-wide PMF row
    /// per node in `pmf` (node-major).
    Class {
        /// Number of classes (PMF width).
        k: usize,
        /// Majority label per node.
        labels: Vec<u32>,
        /// `n_nodes * k` PMF entries, node-major.
        pmf: Vec<f32>,
    },
    /// Regression: mean target per node.
    Real(Vec<f64>),
}

/// A tree flattened into the breadth-first serving layout. Node ids are
/// compiled ids (BFS order, root = 0), not arena indices.
#[derive(Debug, Clone)]
pub struct CompiledTree {
    hot: Vec<HotNode>,
    /// Node depth, read only on the capped traversal path.
    depth: Vec<u32>,
    /// `[start, end)` into `pool` for a categorical node's left-set.
    set_range: Vec<(u32, u32)>,
    /// `[start, end)` into `pool` for a categorical node's seen-set, or
    /// `(NO_SEEN, NO_SEEN)` when the node recorded none.
    seen_range: Vec<(u32, u32)>,
    /// All categorical sets, concatenated (each slice stays sorted).
    pool: Vec<u32>,
    /// Depth of the deepest reachable node = number of traversal steps
    /// that suffice for any row (the interleaved walk runs exactly this
    /// many level iterations).
    max_node_depth: u32,
    /// The feature signature: the sorted, de-duplicated `(feature id,
    /// is-categorical)` pairs of the split nodes (a leaf reads its
    /// parent's column, so it adds none). The fast path's precondition is
    /// a statement about exactly these pairs, so a call checks them — not
    /// the nodes — against the table ([`Self::schema_consistent`]).
    signature: Vec<(u32, u32)>,
    payload: Payload,
    task: Task,
}

impl CompiledTree {
    /// Flattens `model` into the compiled layout.
    ///
    /// # Panics
    /// Panics if a node's prediction kind does not match the model's task
    /// (such a model would also panic in the reference traversal).
    pub fn compile(model: &DecisionTreeModel) -> CompiledTree {
        // Breadth-first renumbering; pushing both children together makes
        // every sibling pair adjacent (right = left + 1).
        let mut order: Vec<usize> = Vec::with_capacity(model.nodes.len());
        order.push(0);
        let mut head = 0;
        while head < order.len() {
            if let Some((_, l, r)) = &model.nodes[order[head]].split {
                order.push(*l);
                order.push(*r);
            }
            head += 1;
        }
        let mut new_of = vec![u32::MAX; model.nodes.len()];
        for (new, &arena) in order.iter().enumerate() {
            new_of[arena] = new as u32;
        }

        let n = order.len();
        let mut t = CompiledTree {
            hot: Vec::with_capacity(n),
            depth: Vec::with_capacity(n),
            set_range: vec![(0, 0); n],
            seen_range: vec![(NO_SEEN, NO_SEEN); n],
            pool: Vec::new(),
            max_node_depth: 0,
            signature: Vec::new(),
            payload: match model.task {
                Task::Classification { n_classes } => Payload::Class {
                    k: n_classes as usize,
                    labels: Vec::with_capacity(n),
                    pmf: Vec::with_capacity(n * n_classes as usize),
                },
                Task::Regression => Payload::Real(Vec::with_capacity(n)),
            },
            task: model.task,
        };
        let mut signature = BTreeSet::new();
        // Feature of each node's parent (BFS order: set before it is
        // read); the root has none and, as a leaf, is never stepped.
        let mut parent_feature = vec![0u32; n];
        for (new, &arena) in order.iter().enumerate() {
            let node = &model.nodes[arena];
            t.depth.push(node.depth);
            t.max_node_depth = t.max_node_depth.max(node.depth);
            t.hot.push(match &node.split {
                None => HotNode {
                    feature: parent_feature[new],
                    left: new as u32,
                    mask: 0,
                    thr: u64::MAX,
                    seen: u64::MAX,
                },
                Some((info, l, _)) => {
                    let feature = info.attr as u32;
                    let left = new_of[*l];
                    parent_feature[left as usize] = feature;
                    parent_feature[left as usize + 1] = feature;
                    signature
                        .insert((feature, u32::from(matches!(info.test, SplitTest::CatIn(_)))));
                    match &info.test {
                        SplitTest::NumericLe(v) => HotNode {
                            feature,
                            left,
                            mask: u64::MAX,
                            thr: numeric_thr(*v),
                            seen: u64::MAX,
                        },
                        SplitTest::CatIn(set) => {
                            t.set_range[new] = push_pool(&mut t.pool, set);
                            if let Some(seen) = &info.seen {
                                t.seen_range[new] = push_pool(&mut t.pool, seen);
                            }
                            // The operands hold the `< 64` part of each
                            // set; the step only consults them for row
                            // codes the one-hot cell can express (< 64),
                            // so they are exact whatever the sets hold —
                            // codes ≥ 64 image to zero and are resolved
                            // against the pool.
                            HotNode {
                                feature,
                                left,
                                mask: !bits_lo(set),
                                thr: 0,
                                seen: info.seen.as_deref().map_or(u64::MAX, bits_lo),
                            }
                        }
                    }
                }
            });
            match (&mut t.payload, &node.prediction) {
                (Payload::Class { k, labels, pmf }, Prediction::Class { label, pmf: p }) => {
                    labels.push(*label);
                    // Pad/truncate to exactly k entries: the reference
                    // accumulation zips against a k-wide accumulator, so
                    // entries past k are never read and short PMFs act as
                    // zeros (trained PMFs are always exactly k wide).
                    pmf.extend((0..*k).map(|c| p.get(c).copied().unwrap_or(0.0)));
                }
                (Payload::Real(values), Prediction::Real(v)) => values.push(*v),
                _ => panic!("node prediction kind does not match the tree's task"),
            }
        }
        t.signature = signature.into_iter().collect();
        t
    }

    /// Number of nodes reachable from the root.
    pub fn n_nodes(&self) -> usize {
        self.hot.len()
    }

    /// The task the source model was trained for.
    pub fn task(&self) -> Task {
        self.task
    }

    /// The majority label of every node (classification payloads).
    pub fn labels(&self) -> &[u32] {
        match &self.payload {
            Payload::Class { labels, .. } => labels,
            Payload::Real(_) => panic!("labels of a regression tree"),
        }
    }

    /// The PMF width `k` and every node's PMF row, node-major: node `n`'s
    /// row is `pmf[n * k..(n + 1) * k]` (classification payloads).
    pub fn pmf_rows(&self) -> (usize, &[f32]) {
        match &self.payload {
            Payload::Class { k, pmf, .. } => (*k, pmf),
            Payload::Real(_) => panic!("PMFs of a regression tree"),
        }
    }

    /// The mean target of every node (regression payloads).
    pub fn values(&self) -> &[f64] {
        match &self.payload {
            Payload::Real(values) => values,
            Payload::Class { .. } => panic!("values of a classification tree"),
        }
    }

    /// Scores the imaged row block of `img` (see [`BlockImage::fill`]),
    /// writing each row's **terminal node id** (where Appendix-D traversal
    /// stops: a leaf, the depth cap, a missing value, or an unseen
    /// categorical code) into `out` (`out.len() == img.len()`).
    ///
    /// The uncapped case (`max_depth == u32::MAX`, the serving default)
    /// walks [`INTERLEAVE`] rows in lockstep: a single row's walk is
    /// latency-bound — each step's node load depends on the previous one —
    /// so interleaving independent rows lets the chains pipeline. Every
    /// stop state is an idempotent self-loop ([`Self::step`]), so the
    /// lockstep loop runs a fixed `max_node_depth` iterations with no
    /// divergence bookkeeping: rows that stopped early just re-observe
    /// their stop condition.
    ///
    /// The fast path requires every split's feature id to resolve to a
    /// column of the split's kind; that is checked once per call against
    /// the tree's feature signature ([`Self::schema_consistent`]), so the
    /// check costs O(distinct features), not O(nodes) — a call's cost
    /// follows the rows it scores, not the size of the model. A mismatched
    /// table falls back to the per-row lazy walk, which panics only when a
    /// row actually reaches the offending node — the reference traversal's
    /// exact behaviour.
    pub fn terminal_nodes_into(&self, img: &BlockImage<'_, '_>, max_depth: u32, out: &mut [u32]) {
        assert_eq!(out.len(), img.len());
        if max_depth != u32::MAX || !self.schema_consistent(img.view) {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = self.walk_row_capped(img.view, img.rows.row(i), max_depth);
            }
            return;
        }
        let levels = self.max_node_depth;
        let unified = &img.cells[..];
        let n_cols = img.view.col_cat.len();
        let mut chunks = out.chunks_exact_mut(INTERLEAVE);
        let mut row = 0usize; // block-local
        for chunk in &mut chunks {
            // The lanes are named locals, not an array: an indexed `n[j]`
            // loop compiles to a stack-resident array walked by a genuine
            // inner loop (store/reload per step plus loop control), which
            // measures ~2x slower than keeping each lane's node id in a
            // register.
            let b0 = row * n_cols;
            let (b1, b2, b3) = (b0 + n_cols, b0 + 2 * n_cols, b0 + 3 * n_cols);
            let (b4, b5, b6, b7) = (
                b0 + 4 * n_cols,
                b0 + 5 * n_cols,
                b0 + 6 * n_cols,
                b0 + 7 * n_cols,
            );
            let (b8, b9, b10, b11) = (
                b0 + 8 * n_cols,
                b0 + 9 * n_cols,
                b0 + 10 * n_cols,
                b0 + 11 * n_cols,
            );
            let (b12, b13, b14, b15) = (
                b0 + 12 * n_cols,
                b0 + 13 * n_cols,
                b0 + 14 * n_cols,
                b0 + 15 * n_cols,
            );
            let (mut n0, mut n1, mut n2, mut n3) = (0u32, 0u32, 0u32, 0u32);
            let (mut n4, mut n5, mut n6, mut n7) = (0u32, 0u32, 0u32, 0u32);
            let (mut n8, mut n9, mut n10, mut n11) = (0u32, 0u32, 0u32, 0u32);
            let (mut n12, mut n13, mut n14, mut n15) = (0u32, 0u32, 0u32, 0u32);
            for _ in 0..levels {
                let (p0, p1, p2, p3) = (n0, n1, n2, n3);
                let (p4, p5, p6, p7) = (n4, n5, n6, n7);
                let (p8, p9, p10, p11) = (n8, n9, n10, n11);
                let (p12, p13, p14, p15) = (n12, n13, n14, n15);
                n0 = self.step(img, unified, b0, n0);
                n1 = self.step(img, unified, b1, n1);
                n2 = self.step(img, unified, b2, n2);
                n3 = self.step(img, unified, b3, n3);
                n4 = self.step(img, unified, b4, n4);
                n5 = self.step(img, unified, b5, n5);
                n6 = self.step(img, unified, b6, n6);
                n7 = self.step(img, unified, b7, n7);
                n8 = self.step(img, unified, b8, n8);
                n9 = self.step(img, unified, b9, n9);
                n10 = self.step(img, unified, b10, n10);
                n11 = self.step(img, unified, b11, n11);
                n12 = self.step(img, unified, b12, n12);
                n13 = self.step(img, unified, b13, n13);
                n14 = self.step(img, unified, b14, n14);
                n15 = self.step(img, unified, b15, n15);
                // Every stop state self-loops, so "no lane moved" means
                // all rows of the chunk are done; leaves cluster well
                // above `max_node_depth`, so this usually fires several
                // levels early. (One well-predicted branch per level:
                // not-taken until the final iteration.)
                let moved = (n0 ^ p0)
                    | (n1 ^ p1)
                    | (n2 ^ p2)
                    | (n3 ^ p3)
                    | (n4 ^ p4)
                    | (n5 ^ p5)
                    | (n6 ^ p6)
                    | (n7 ^ p7)
                    | (n8 ^ p8)
                    | (n9 ^ p9)
                    | (n10 ^ p10)
                    | (n11 ^ p11)
                    | (n12 ^ p12)
                    | (n13 ^ p13)
                    | (n14 ^ p14)
                    | (n15 ^ p15);
                if moved == 0 {
                    break;
                }
            }
            chunk.copy_from_slice(&[
                n0, n1, n2, n3, n4, n5, n6, n7, n8, n9, n10, n11, n12, n13, n14, n15,
            ]);
            row += INTERLEAVE;
        }
        for slot in chunks.into_remainder() {
            let mut n = 0u32;
            for _ in 0..levels {
                n = self.step(img, unified, row * n_cols, n);
            }
            *slot = n;
            row += 1;
        }
    }

    /// True when every split node's feature id resolves to a column of the
    /// split's kind in this view — the precondition for [`Self::step`]'s
    /// unchecked column loads. `compile` recorded each split's `(feature
    /// id, kind)` in the signature, so checking the signature's pairs is
    /// checking every split; a leaf reads its parent's column, which is
    /// one of them (the kind of cell it finds there is immaterial: its
    /// mask is empty). A lone root leaf reads nothing at all — the walk
    /// runs `max_node_depth = 0` steps — so it fits every table.
    fn schema_consistent(&self, view: &TableView<'_>) -> bool {
        self.signature
            .iter()
            .all(|&(feat, cat)| view.col_cat.get(feat as usize) == Some(&cat))
    }

    /// The predicate [`Self::schema_consistent`] stands for, evaluated the
    /// long way over every node: the oracle the signature is tested
    /// against.
    #[cfg(test)]
    fn every_split_consistent(&self, view: &TableView<'_>) -> bool {
        self.hot.iter().enumerate().all(|(id, h)| {
            let feat = h.feature as usize;
            match h.kind(id as u32) {
                Kind::Leaf => true,
                Kind::Num => feat < view.col_cat.len() && view.col_cat[feat] == 0,
                Kind::Cat => feat < view.col_cat.len() && view.col_cat[feat] == 1,
            }
        })
    }

    /// One uncapped traversal step at node `n` for the row whose unified
    /// cells start at `base`: returns the child to descend into, or `n`
    /// itself when traversal stops there — leaf, missing value, or unseen
    /// categorical code. Stopped states are **idempotent**: re-running the
    /// step re-derives the same stop, so callers may apply it any number
    /// of extra times.
    ///
    /// The step is the same instructions at every node ([`HotNode`]): one
    /// 32-byte record, one untyped cell load, two ANDs, a compare, an add
    /// — no branch on the node's kind, no float ops. Its one branch is the
    /// stop test, never taken on clean data. The stop returns `n`
    /// **inline**: a stopped row re-takes this path at every remaining
    /// level, and as a call it would spill the sixteen lanes each time.
    /// Only a zero cell at a categorical split — a missing value or a code
    /// ≥ 64, which the image cannot tell apart — leaves for the outlined
    /// pool path.
    ///
    /// # Safety (of the internal unchecked indexing)
    /// - `n` is always a valid node id: it starts at 0 and every
    ///   transition returns either `n` itself or a child id baked in by
    ///   `compile`, all `< n_nodes`.
    /// - cell loads are in bounds: the caller verified
    ///   [`Self::schema_consistent`] (every split's feature id `< n_cols`,
    ///   every stepped leaf carrying a split's) and `base = row * n_cols`
    ///   for a block-local `row < img.len()`, with `unified` holding
    ///   `img.len() * n_cols` cells.
    #[inline(always)]
    fn step(&self, img: &BlockImage<'_, '_>, unified: &[u64], base: usize, n: u32) -> u32 {
        // SAFETY: `n < n_nodes`: it starts at 0 and every step returns `n`
        // or a child id `compile` baked in.
        let h = unsafe { self.hot.get_unchecked(n as usize) };
        // SAFETY: `base + feature < unified.len()`: the caller checked
        // `schema_consistent` (`feature < n_cols`), and `base` is a block
        // row's first cell.
        let w = unsafe { *unified.get_unchecked(base + h.feature as usize) };
        if w & h.seen == 0 {
            if w == 0 && h.is_cat() {
                return self.cat_pool_step(img, base, n);
            }
            return n; // missing value, or a code unseen in training
        }
        h.left + u32::from(w & h.mask > h.thr)
    }

    /// The categorical step for a cell the image encodes as zero — a
    /// missing value or a code ≥ 64 — resolved against the pool in the
    /// reference order: missing, then unseen, then set membership.
    /// Re-reads the true code from the source column (the image dropped
    /// it).
    #[cold]
    fn cat_pool_step(&self, img: &BlockImage<'_, '_>, base: usize, n: u32) -> u32 {
        let row = img.rows.row(base / img.view.cols.len());
        let ColView::Cat(v) = &img.view.cols[self.hot[n as usize].feature as usize] else {
            unreachable!("schema_consistent checked: categorical split, categorical column");
        };
        let c = v[row];
        if c == MISSING_CAT {
            return n; // missing value: stop here
        }
        self.cat_child(n, c).unwrap_or(n) // unseen in training: stop here
    }

    /// One row's walk under an Appendix-D depth cap. The cap is tested
    /// after the leaf check, and a missing value before the column's kind,
    /// exactly like the reference traversal.
    fn walk_row_capped(&self, view: &TableView<'_>, row: usize, max_depth: u32) -> u32 {
        let mut n = 0u32;
        loop {
            let h = self.hot[n as usize];
            let kind = h.kind(n);
            if kind == Kind::Leaf || self.depth[n as usize] >= max_depth {
                return n;
            }
            match &view.cols[h.feature as usize] {
                ColView::Num(v) => {
                    let w = numeric_cell(v[row]);
                    if w == 0 {
                        return n;
                    }
                    if kind != Kind::Num {
                        panic!("categorical split applied to numeric value");
                    }
                    n = h.left + u32::from(w > h.thr);
                }
                ColView::Cat(v) => {
                    let c = v[row];
                    if c == MISSING_CAT {
                        return n;
                    }
                    if kind != Kind::Cat {
                        panic!("numeric split applied to categorical value");
                    }
                    match self.cat_child(n, c) {
                        Some(next) => n = next,
                        None => return n,
                    }
                }
            }
        }
    }

    /// Resolves a categorical step at `node` for code `c`: `None` when the
    /// code was unseen during training (stop), otherwise the child id.
    #[inline]
    fn cat_child(&self, node: u32, c: u32) -> Option<u32> {
        let (s0, s1) = self.seen_range[node as usize];
        if s0 != NO_SEEN
            && self.pool[s0 as usize..s1 as usize]
                .binary_search(&c)
                .is_err()
        {
            return None;
        }
        let (a, b) = self.set_range[node as usize];
        let in_set = self.pool[a as usize..b as usize].binary_search(&c).is_ok();
        Some(self.hot[node as usize].left + u32::from(!in_set))
    }
}

/// Serving knobs. The defaults score single-threaded in
/// [`DEFAULT_BLOCK_ROWS`]-row blocks with no depth cap.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Rows per evaluation block. Each block's terminal-node ids should
    /// stay cache-resident; 1024–8192 is a good range.
    pub block_rows: usize,
    /// `tspar` thread count for the block fan-out; `0` = machine
    /// parallelism, `1` = sequential.
    pub threads: usize,
    /// Appendix-D depth cap applied during traversal (`u32::MAX` = none).
    pub max_depth: u32,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            block_rows: DEFAULT_BLOCK_ROWS,
            threads: 1,
            max_depth: u32::MAX,
        }
    }
}

impl ServeOptions {
    /// Builder: block size.
    pub fn with_block_rows(mut self, block_rows: usize) -> Self {
        self.block_rows = block_rows;
        self
    }

    /// Builder: thread count (0 = machine parallelism).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builder: depth cap.
    pub fn with_max_depth(mut self, max_depth: u32) -> Self {
        self.max_depth = max_depth;
        self
    }
}

/// How the members of a [`CompiledEnsemble`] combine into a prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Combine {
    /// One tree: its terminal node's payload is the prediction.
    Single,
    /// Bagged forest (§VII): the mean of the members' PMFs or values.
    Bagged,
    /// Boosted additive model: `base + η · Σ tree(x)`.
    Additive { base: f64, eta: f64 },
}

/// Compiled member trees and the rule that combines them: one tree, a
/// bagged forest, or a boosted sum. Every batched prediction runs through
/// its one block loop (`fold_blocks`); per row, trees fold in
/// tree order with the reference's arithmetic expressions, so the outputs
/// are the reference's bit for bit.
#[derive(Debug, Clone)]
pub struct CompiledEnsemble {
    trees: Vec<CompiledTree>,
    combine: Combine,
    task: Task,
}

impl CompiledEnsemble {
    fn new(trees: &[DecisionTreeModel], combine: Combine, task: Task) -> CompiledEnsemble {
        CompiledEnsemble {
            trees: trees.iter().map(CompiledTree::compile).collect(),
            combine,
            task,
        }
    }

    /// One tree.
    pub fn single(model: &DecisionTreeModel) -> CompiledEnsemble {
        Self::new(std::slice::from_ref(model), Combine::Single, model.task)
    }

    /// A bagged forest of `trees` over `task`.
    pub fn bagged(trees: &[DecisionTreeModel], task: Task) -> CompiledEnsemble {
        Self::new(trees, Combine::Bagged, task)
    }

    /// A boosted sum `base + η · Σ tree(x)` of regression `trees`.
    pub fn additive(trees: &[DecisionTreeModel], base: f64, eta: f64) -> CompiledEnsemble {
        Self::new(trees, Combine::Additive { base, eta }, Task::Regression)
    }

    /// The task of the member trees.
    pub fn task(&self) -> Task {
        self.task
    }

    /// The compiled members, in tree order.
    pub fn trees(&self) -> &[CompiledTree] {
        &self.trees
    }

    /// PMF width; panics on regression ensembles.
    fn n_classes(&self) -> usize {
        self.task
            .n_classes()
            .expect("PMF prediction requires a classification model") as usize
    }

    /// Class labels of `rows` of `table`: a tree's terminal labels, or the
    /// argmax of a forest's averaged PMF (ties toward the smaller class).
    /// A boosted sum's label depends on its loss, which it does not know.
    pub fn labels(&self, table: &DataTable, rows: Rows<'_>, opts: &ServeOptions) -> Vec<u32> {
        match self.combine {
            Combine::Single => self.write_payload(table, rows, opts, 1, self.trees[0].labels()),
            Combine::Bagged => {
                let k = self.n_classes();
                self.pmf(table, rows, opts)
                    .chunks(k.max(1))
                    .map(argmax)
                    .collect()
            }
            Combine::Additive { .. } => panic!("labels of a boosted model follow its loss"),
        }
    }

    /// Class PMFs of `rows` of `table`, row-major: a tree's terminal PMF,
    /// or the mean of a forest's — the uniform prior for a forest of no
    /// trees.
    pub fn pmf(&self, table: &DataTable, rows: Rows<'_>, opts: &ServeOptions) -> Vec<f32> {
        match self.combine {
            Combine::Single => {
                let (k, pmf) = self.trees[0].pmf_rows();
                self.write_payload(table, rows, opts, k, pmf)
            }
            Combine::Bagged => {
                let k = self.n_classes();
                if self.trees.is_empty() {
                    return uniform_pmf(k).repeat(rows.len());
                }
                let mut acc = vec![0.0; rows.len() * k];
                self.fold_blocks(table, rows, opts, &mut acc, |tree| {
                    let (k, pmf) = tree.pmf_rows();
                    move |nodes, acc| add_pmf_rows(k, pmf, nodes, acc)
                });
                let inv = 1.0 / self.trees.len() as f32;
                for a in &mut acc {
                    *a *= inv;
                }
                acc
            }
            Combine::Additive { .. } => panic!("PMFs from a boosted model"),
        }
    }

    /// Values of `rows` of `table`: a tree's terminal mean, the mean of a
    /// forest's (`0.0` for a forest of no trees), or a boosted sum's margin.
    pub fn values(&self, table: &DataTable, rows: Rows<'_>, opts: &ServeOptions) -> Vec<f64> {
        match self.combine {
            Combine::Single => self.write_payload(table, rows, opts, 1, self.trees[0].values()),
            Combine::Bagged if self.trees.is_empty() => vec![0.0; rows.len()],
            Combine::Bagged => {
                // `-0.0` is the additive identity (`-0.0 + v` is `v` bit
                // for bit, `0.0 + -0.0` is not); the reference's `sum`
                // starts from it too.
                let mut acc = vec![-0.0; rows.len()];
                self.fold_blocks(table, rows, opts, &mut acc, |tree| {
                    let values = tree.values();
                    move |nodes, acc| {
                        for (a, &node) in acc.iter_mut().zip(nodes) {
                            *a += values[node as usize];
                        }
                    }
                });
                let n_trees = self.trees.len() as f64;
                for a in &mut acc {
                    *a /= n_trees;
                }
                acc
            }
            Combine::Additive { base, .. } => {
                let mut margins = vec![base; rows.len()];
                self.add_margins(table, rows, opts, &mut margins);
                margins
            }
        }
    }

    /// Adds `η · Σ tree(x)` of a boosted sum to the running `margins` of
    /// `rows` of `table`, in place: [`Self::values`] is this from `base`,
    /// and GBT training folds each round's tree in with it.
    pub fn add_margins(
        &self,
        table: &DataTable,
        rows: Rows<'_>,
        opts: &ServeOptions,
        margins: &mut [f64],
    ) {
        let Combine::Additive { eta, .. } = self.combine else {
            panic!("margins are only defined for boosted models");
        };
        self.fold_blocks(table, rows, opts, margins, |tree| {
            let values = tree.values();
            move |nodes, acc| {
                for (a, &node) in acc.iter_mut().zip(nodes) {
                    *a += eta * values[node as usize];
                }
            }
        });
    }

    /// The single-tree rule: each row's `k` entries are its terminal
    /// node's row of `payload` — written, not added (`0.0 + v` is not `v`
    /// for `-0.0`).
    fn write_payload<T: Copy + Default + Send + Sync>(
        &self,
        table: &DataTable,
        rows: Rows<'_>,
        opts: &ServeOptions,
        k: usize,
        payload: &[T],
    ) -> Vec<T> {
        let mut out = vec![T::default(); rows.len() * k];
        self.fold_blocks(table, rows, opts, &mut out, |_| {
            move |nodes: &[u32], out: &mut [T]| {
                for (dst, &n) in out.chunks_exact_mut(k).zip(nodes) {
                    dst.copy_from_slice(&payload[n as usize * k..][..k]);
                }
            }
        });
        out
    }

    /// The one block loop, over the `rows` of `table` a call scores, into
    /// `acc`: `acc.len() / rows.len()` entries per row, in `rows`' order.
    /// Row blocks fan out over `tspar`; each worker owns a contiguous span
    /// of whole blocks of `acc` and reuses one [`BlockImage`] and one node
    /// buffer across them, both sized by the rows it scores (a block is
    /// never wider than the call): nothing a call allocates or touches
    /// grows with `block_rows`, with the model, or with the table the rows
    /// are picked from. For each block the image is filled once, then
    /// every member tree walks it and folds its terminal node ids into the
    /// block's slice, in tree order — the reference fold order. `fold_of`
    /// is called once per tree per block and returns that tree's fold, so
    /// whatever the fold reads of the tree (its payload slice, its width)
    /// is resolved there, not once per row.
    fn fold_blocks<'t, A, F>(
        &'t self,
        table: &DataTable,
        rows: Rows<'_>,
        opts: &ServeOptions,
        acc: &mut [A],
        fold_of: impl Fn(&'t CompiledTree) -> F + Sync,
    ) where
        A: Send,
        F: FnMut(&[u32], &mut [A]),
    {
        if acc.is_empty() {
            return;
        }
        let width = acc.len() / rows.len();
        assert_eq!(acc.len(), rows.len() * width, "accumulator width");
        let view = TableView::of(table);
        // Never wider than the call: a one-row call sets up one row.
        let block = opts.block_rows.clamp(1, rows.len());
        let n_blocks = rows.len().div_ceil(block);
        // The worker count is resolved here, once, and handed to `tspar`
        // resolved: `threads: 0` asks the OS (`available_parallelism`
        // reads cgroup files, ≈ 11 µs), and only a call with more than
        // one block has any use for the answer.
        let threads = match opts.threads {
            _ if n_blocks == 1 => 1,
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            t => t,
        }
        .min(n_blocks);
        let span = n_blocks.div_ceil(threads) * block;
        let mut spans: Vec<&mut [A]> = acc.chunks_mut(span * width).collect();
        tspar::par_for_each_mut(&mut spans, threads, |s, chunk| {
            let mut nodes = vec![0u32; block];
            let mut img = view.image();
            let mut first = s * span;
            for blk in chunk.chunks_mut(block * width) {
                let len = blk.len() / width;
                img.fill(rows.slice(first, len));
                for tree in &self.trees {
                    tree.terminal_nodes_into(&img, opts.max_depth, &mut nodes[..len]);
                    fold_of(tree)(&nodes[..len], blk);
                }
                first += len;
            }
        });
    }
}

/// `acc[i*k + c] += pmf[nodes[i]*k + c]`: one tree's PMF rows folded into
/// a block's `k`-wide row-major accumulator, in class order.
pub fn add_pmf_rows(k: usize, pmf: &[f32], nodes: &[u32], acc: &mut [f32]) {
    debug_assert_eq!(acc.len(), nodes.len() * k);
    // The trip count as a constant lets the common widths unroll.
    match k {
        2 => add_pmf_rows_k::<2>(pmf, nodes, acc),
        3 => add_pmf_rows_k::<3>(pmf, nodes, acc),
        _ => {
            for (dst, &node) in acc.chunks_exact_mut(k.max(1)).zip(nodes) {
                let src = &pmf[node as usize * k..(node as usize + 1) * k];
                for (a, b) in dst.iter_mut().zip(src) {
                    *a += b;
                }
            }
        }
    }
}

fn add_pmf_rows_k<const K: usize>(pmf: &[f32], nodes: &[u32], acc: &mut [f32]) {
    for (dst, &node) in acc.chunks_exact_mut(K).zip(nodes) {
        let src = &pmf[node as usize * K..(node as usize + 1) * K];
        for c in 0..K {
            dst[c] += src[c];
        }
    }
}

/// Appends a sorted set to the pool, returning its `[start, end)` range.
fn push_pool(pool: &mut Vec<u32>, set: &[u32]) -> (u32, u32) {
    let start = pool.len() as u32;
    pool.extend_from_slice(set);
    (start, pool.len() as u32)
}

/// The codes `< 64` of a set as a 64-bit mask (higher codes are dropped —
/// they are pool-resolved, never mask-tested).
fn bits_lo(set: &[u32]) -> u64 {
    set.iter()
        .filter(|&&c| c < 64)
        .fold(0u64, |m, &c| m | (1 << c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Node, SplitInfo};
    use crate::trainer::{train_tree, TrainParams};
    use ts_datatable::synth::{generate, SynthSpec};
    use ts_datatable::{AttrMeta, Labels, Schema, Value};
    use tscheck::prelude::*;

    impl CompiledTree {
        fn label_of(&self, node: u32) -> u32 {
            self.labels()[node as usize]
        }

        fn pmf_of(&self, node: u32) -> &[f32] {
            let (k, pmf) = self.pmf_rows();
            &pmf[node as usize * k..(node as usize + 1) * k]
        }
    }

    fn mixed_tree() -> DecisionTreeModel {
        let nodes = vec![
            Node {
                split: Some((
                    SplitInfo {
                        attr: 0,
                        test: SplitTest::NumericLe(40.0),
                        gain: 1.0,
                        missing_left: true,
                        seen: None,
                    },
                    1,
                    2,
                )),
                prediction: Prediction::Class {
                    label: 0,
                    pmf: vec![0.7, 0.3],
                },
                n_rows: 10,
                depth: 0,
            },
            Node::leaf(
                Prediction::Class {
                    label: 1,
                    pmf: vec![0.2, 0.8],
                },
                5,
                1,
            ),
            Node {
                split: Some((
                    SplitInfo {
                        attr: 1,
                        test: SplitTest::cat_in(vec![2, 3, 4]),
                        gain: 0.5,
                        missing_left: false,
                        seen: Some(vec![1, 2, 3, 4]),
                    },
                    3,
                    4,
                )),
                prediction: Prediction::Class {
                    label: 0,
                    pmf: vec![0.9, 0.1],
                },
                n_rows: 5,
                depth: 1,
            },
            Node::leaf(
                Prediction::Class {
                    label: 0,
                    pmf: vec![1.0, 0.0],
                },
                3,
                2,
            ),
            Node::leaf(
                Prediction::Class {
                    label: 1,
                    pmf: vec![0.0, 1.0],
                },
                2,
                2,
            ),
        ];
        DecisionTreeModel::new(nodes, Task::Classification { n_classes: 2 })
    }

    fn table() -> DataTable {
        DataTable::new(
            Schema::new(
                vec![AttrMeta::numeric("age"), AttrMeta::categorical("edu", 6)],
                Task::Classification { n_classes: 2 },
            ),
            vec![
                // Rows: descend-left, descend-right-left-set, unseen code,
                // missing numeric, missing categorical, exact threshold.
                Column::Numeric(vec![30.0, 50.0, 50.0, f64::NAN, 50.0, 40.0]),
                Column::Categorical(vec![2, 1, 0, 2, MISSING_CAT, 3]),
            ],
            Labels::Class(vec![0; 6]),
        )
    }

    #[test]
    fn compiled_matches_reference_on_every_stop_rule() {
        let model = mixed_tree();
        let compiled = CompiledTree::compile(&model);
        let t = table();
        let view = TableView::of(&t);
        let mut img = view.image();
        img.fill(Rows::all(&t));
        for cap in [0, 1, 2, u32::MAX] {
            let mut nodes = vec![0u32; t.n_rows()];
            compiled.terminal_nodes_into(&img, cap, &mut nodes);
            for (row, &node) in nodes.iter().enumerate() {
                let reference = model.predict_row(&t, row, cap);
                assert_eq!(
                    compiled.label_of(node),
                    reference.label(),
                    "row {row} cap {cap}"
                );
                assert_eq!(compiled.pmf_of(node), reference.pmf());
            }
        }
    }

    #[test]
    fn siblings_are_adjacent_after_bfs_renumbering() {
        let compiled = CompiledTree::compile(&mixed_tree());
        assert_eq!(compiled.n_nodes(), 5);
        for (id, h) in compiled.hot.iter().enumerate() {
            if h.kind(id as u32) == Kind::Leaf {
                // Leaves self-loop: an empty mask never exceeds `thr`,
                // and left = self.
                assert_eq!(h.left as usize, id);
                assert_eq!((h.mask, h.thr), (0, u64::MAX));
            } else {
                // Children ids were allocated as a pair.
                assert!(h.left as usize + 1 < compiled.n_nodes());
                assert!(h.left as usize > id, "children come after the parent");
            }
        }
    }

    /// A categorical root whose left-set is the single code 70 over a
    /// numeric chain three levels deep on its right: the left child is a
    /// leaf at depth 1 that only the pool path can reach, and a row parked
    /// there sits through two more levels of the walk.
    fn big_code_tree() -> DecisionTreeModel {
        let leaf = |label: u32, depth| {
            let mut pmf = vec![0.0; 2];
            pmf[label as usize] = 1.0;
            Node::leaf(Prediction::Class { label, pmf }, 1, depth)
        };
        let split = |attr, test, left: usize, depth| Node {
            split: Some((
                SplitInfo {
                    attr,
                    test,
                    gain: 1.0,
                    missing_left: true,
                    seen: None,
                },
                left,
                left + 1,
            )),
            ..leaf(0, depth)
        };
        DecisionTreeModel::new(
            vec![
                split(0, SplitTest::cat_in(vec![70]), 1, 0),
                leaf(1, 1),
                split(1, SplitTest::NumericLe(0.0), 3, 1),
                leaf(0, 2),
                split(1, SplitTest::NumericLe(1.0), 5, 2),
                leaf(1, 3),
                leaf(0, 3),
            ],
            Task::Classification { n_classes: 2 },
        )
    }

    #[test]
    fn leaf_reached_through_the_pool_path_stays_put() {
        let model = big_code_tree();
        let compiled = CompiledTree::compile(&model);
        assert_eq!(compiled.max_node_depth, 3);
        // The leaf reads its parent's column, where these rows' cells
        // image to zero: the stop test fires at every remaining level and
        // must leave the row where it is — not send it back to the pool.
        assert_eq!(compiled.hot[1].feature, 0);
        assert_eq!(compiled.hot[1].kind(1), Kind::Leaf);

        // 35 rows: two lockstep chunks and a remainder. Every third row
        // holds code 70 (→ the depth-1 leaf, id 1), every third code 65
        // (≥ 64 but not in the left-set → the numeric chain), the rest a
        // missing cell (→ stops at the root).
        let n = 35;
        let codes: Vec<u32> = (0..n).map(|r| [70, 65, MISSING_CAT][r % 3]).collect();
        let xs: Vec<f64> = (0..n).map(|r| (r % 5) as f64 - 1.5).collect();
        let t = DataTable::new(
            Schema::new(
                vec![AttrMeta::categorical("c", 96), AttrMeta::numeric("x")],
                model.task,
            ),
            vec![Column::Categorical(codes.clone()), Column::Numeric(xs)],
            Labels::Class(vec![0; n]),
        );
        let view = TableView::of(&t);
        let mut img = view.image();
        // The whole table, and a scattered list: the pool path re-reads
        // the code from the source column through the list's ids.
        let ids: Vec<u32> = (0..n as u32).rev().chain([0, 0, 33]).collect();
        for rows in [Rows::all(&t), Rows::Ids(&ids)] {
            img.fill(rows);
            let mut nodes = vec![u32::MAX; rows.len()];
            compiled.terminal_nodes_into(&img, u32::MAX, &mut nodes);
            for (i, &node) in nodes.iter().enumerate() {
                let r = rows.row(i);
                match codes[r] {
                    70 => assert_eq!(node, 1, "row {r} parks at the pool-reached leaf"),
                    65 => assert!(node >= 3, "row {r} went down the numeric chain"),
                    _ => assert_eq!(node, 0, "row {r} stops at the root"),
                }
                let reference = model.predict_row(&t, r, u32::MAX);
                assert_eq!(compiled.pmf_of(node), reference.pmf(), "row {r}");
            }
        }
    }

    /// The image's "missing" cell is `0`: a key no number maps to, the
    /// cell of a NaN of either sign.
    #[test]
    fn zero_is_no_numbers_key_and_every_nans_cell() {
        for x in [
            0.0,
            -0.0,
            f64::from_bits(1), // smallest subnormals
            -f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_ne!(sort_key(x.to_bits()), 0, "{x:e}");
            assert_eq!(numeric_cell(x), sort_key(x.to_bits()), "{x:e}");
            assert!(numeric_thr(x) >= 1, "{x:e}");
        }
        assert!(numeric_cell(f64::NEG_INFINITY) > numeric_thr(f64::NAN));
        for bits in [
            f64::NAN.to_bits(),
            f64::NAN.to_bits() | 1 << 63,
            0x7FF0_0000_0000_0001, // signalling, smallest payload
            0xFFF0_0000_0000_0001,
            u64::MAX, // the one pattern whose key is 0
            u64::MAX >> 1,
        ] {
            assert!(f64::from_bits(bits).is_nan());
            assert_eq!(numeric_cell(f64::from_bits(bits)), 0, "{bits:#x}");
        }
        for code in [0, 1, 63] {
            assert_eq!(categorical_cell(code), 1 << code);
        }
        for code in [64, 65, 70, 127, 128, MISSING_CAT - 1, MISSING_CAT] {
            assert_eq!(categorical_cell(code), 0, "{code}");
        }
    }

    /// A single tree's labels for every row of `t`, through the shared
    /// block loop.
    fn labels_of(model: &DecisionTreeModel, t: &DataTable) -> Vec<u32> {
        CompiledEnsemble::single(model).labels(t, Rows::all(t), &ServeOptions::default())
    }

    #[test]
    fn batch_labels_match_reference_loop() {
        let model = mixed_tree();
        let t = table();
        let reference: Vec<u32> = (0..t.n_rows())
            .map(|r| model.predict_row(&t, r, u32::MAX).label())
            .collect();
        assert_eq!(labels_of(&model, &t), reference);
    }

    #[test]
    fn empty_table_scores_to_empty() {
        let t = DataTable::new(
            Schema::new(
                vec![AttrMeta::numeric("age"), AttrMeta::categorical("edu", 6)],
                Task::Classification { n_classes: 2 },
            ),
            vec![Column::Numeric(vec![]), Column::Categorical(vec![])],
            Labels::Class(vec![]),
        );
        assert_eq!(labels_of(&mixed_tree(), &t), Vec::<u32>::new());
    }

    /// `mixed_tree`'s columns swapped, so attr 0 (numeric split) is
    /// categorical and attr 1 (categorical split) numeric.
    fn swapped_table(edu: Vec<u32>, age: Vec<f64>) -> DataTable {
        let n = edu.len();
        DataTable::new(
            Schema::new(
                vec![AttrMeta::categorical("edu", 6), AttrMeta::numeric("age")],
                Task::Classification { n_classes: 2 },
            ),
            vec![Column::Categorical(edu), Column::Numeric(age)],
            Labels::Class(vec![0; n]),
        )
    }

    #[test]
    #[should_panic(expected = "numeric split applied to categorical value")]
    fn type_mismatch_panics_like_reference() {
        labels_of(&mixed_tree(), &swapped_table(vec![2], vec![30.0]));
    }

    /// A missing cell stops the row at the node that reads it whatever
    /// the column's kind, as in the reference: the kind is only looked at
    /// for a value that is there.
    #[test]
    fn missing_value_stops_before_the_kind_check() {
        let model = mixed_tree();
        let t = swapped_table(vec![MISSING_CAT], vec![f64::NAN]);
        assert_eq!(labels_of(&model, &t), model.predict_labels_reference(&t));
    }

    #[test]
    fn value_enum_still_matches_column_reads() {
        // Sanity: TableView reads agree with DataTable::value semantics.
        let t = table();
        let view = TableView::of(&t);
        match &view.cols[0] {
            ColView::Num(v) => {
                assert!(v[3].is_nan());
                assert_eq!(t.value(3, 0), Value::Missing);
            }
            ColView::Cat(_) => panic!("attr 0 is numeric"),
        }
    }

    /// A one-row table whose column `i` is categorical iff bit `i` of
    /// `cat_bits` is set: the verdict depends on a table's column kinds
    /// and on nothing else.
    fn table_of_kinds(n_cols: usize, cat_bits: u32) -> DataTable {
        let is_cat = |i: usize| cat_bits >> i & 1 == 1;
        DataTable::new(
            Schema::new(
                (0..n_cols)
                    .map(|i| {
                        if is_cat(i) {
                            AttrMeta::categorical(format!("c{i}"), 2)
                        } else {
                            AttrMeta::numeric(format!("x{i}"))
                        }
                    })
                    .collect(),
                Task::Regression,
            ),
            (0..n_cols)
                .map(|i| {
                    if is_cat(i) {
                        Column::Categorical(vec![0])
                    } else {
                        Column::Numeric(vec![0.0])
                    }
                })
                .collect(),
            Labels::Real(vec![0.0]),
        )
    }

    /// Both verdicts of `tree` on every table shape of up to `max_cols`
    /// columns; returns how many shapes were consistent.
    fn assert_signature_matches_oracle(tree: &CompiledTree, max_cols: usize) -> usize {
        let mut consistent = 0;
        for n_cols in 0..=max_cols {
            for cat_bits in 0..1u32 << n_cols {
                let t = table_of_kinds(n_cols, cat_bits);
                let view = TableView::of(&t);
                let verdict = tree.schema_consistent(&view);
                assert_eq!(
                    verdict,
                    tree.every_split_consistent(&view),
                    "{n_cols} columns, categorical mask {cat_bits:#b}, signature {:?}",
                    tree.signature
                );
                consistent += usize::from(verdict);
            }
        }
        consistent
    }

    #[test]
    fn signature_lists_each_split_feature_once() {
        let tree = CompiledTree::compile(&mixed_tree());
        assert_eq!(tree.signature, vec![(0, 0), (1, 1)]);
        // Consistent exactly with [num, cat] and [num, cat, anything].
        assert_eq!(assert_signature_matches_oracle(&tree, 3), 3);

        // A feature split on as both kinds fits no table at all, and a
        // lone leaf fits every table — the empty one included.
        let mut model = mixed_tree();
        model.nodes[2].split.as_mut().unwrap().0.attr = 0;
        let both = CompiledTree::compile(&model);
        assert_eq!(both.signature, vec![(0, 0), (0, 1)]);
        assert_eq!(assert_signature_matches_oracle(&both, 3), 0);
        let leaf = CompiledTree::compile(&DecisionTreeModel::new(
            vec![Node::leaf(Prediction::Real(1.0), 1, 0)],
            Task::Regression,
        ));
        assert_eq!(leaf.signature, vec![]);
        assert_eq!(assert_signature_matches_oracle(&leaf, 3), 1 + 2 + 4 + 8);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]

        /// Over arbitrary bit patterns: a non-NaN's cell is its key and
        /// never `0`; a NaN's cell is `0`; and keys order as the numbers
        /// do, so `cell > thr` is `x > threshold`.
        #[test]
        fn numeric_cells_are_nonzero_keys_in_ieee_order(a in any::<u64>(), b in any::<u64>()) {
            let (x, y) = (f64::from_bits(a), f64::from_bits(b));
            prop_assert_eq!(numeric_cell(x) == 0, x.is_nan());
            if !x.is_nan() {
                prop_assert_eq!(numeric_cell(x), sort_key(a));
                // `!(x <= y)`, spelt out: a NaN threshold sends every row right.
                prop_assert_eq!(numeric_cell(x) > numeric_thr(y), x > y || y.is_nan());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// The signature verdict is the every-node verdict, for each member
        /// tree of random forests (classification) and boosted ensembles
        /// (regression), on every table whose columns are the training
        /// schema's permuted, dropped, re-typed or extended: all
        /// `2^0 + … + 2^(m+1)` kind vectors of up to `m + 1` columns.
        #[test]
        fn signature_verdict_equals_the_every_node_verdict(
            (seed, numeric, categorical) in (0u64..5_000, 1usize..4, 0usize..3),
            boosted in any::<bool>(),
        ) {
            let task = if boosted {
                Task::Regression
            } else {
                Task::Classification { n_classes: 3 }
            };
            let train = generate(&SynthSpec {
                rows: 300,
                numeric,
                categorical,
                cat_cardinality: 4,
                task,
                missing_rate: 0.05,
                noise: 0.1,
                concept_depth: 4,
                seed,
                ..Default::default()
            });
            let m = train.n_attrs();
            for i in 0..4usize {
                // Members see different column subsets, as bagged trees do.
                let candidates: Vec<usize> = (0..m).filter(|a| (a + i) % 3 != 0 || m == 1).collect();
                let model = train_tree(
                    &train,
                    &candidates,
                    &TrainParams { dmax: 5, ..TrainParams::for_task(task) },
                    seed ^ i as u64,
                );
                let tree = CompiledTree::compile(&model);
                prop_assert!(tree.signature.windows(2).all(|w| w[0] < w[1]), "sorted, no duplicates");
                prop_assert!(tree.signature.len() <= candidates.len());
                // The training schema itself is among the shapes.
                prop_assert!(assert_signature_matches_oracle(&tree, m + 1) >= 1);
            }
        }
    }
}
