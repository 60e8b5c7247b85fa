//! Where a launch allocates its column indexes.
//!
//! `Cluster::launch` presorts (and, in histogram mode, bins) the table's
//! columns on one loader thread per core, but every buffer whose size grows
//! with the row count is allocated on the launching thread and only filled
//! by the loaders. A block allocated on a short-lived thread stays in that
//! thread's allocator arena after the cluster is gone, which a process that
//! trains and then serves pays for in peak RSS. A counting global allocator
//! watches the launch for blocks of `n_rows` bytes or more allocated by any
//! other thread.
//!
//! On a one-core host the build runs on the launching thread alone and the
//! check holds trivially.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use treeserver::{Cluster, ClusterConfig, Splitter};
use ts_datatable::synth::{generate, SynthSpec};
use ts_datatable::Task;

struct Counting;

#[global_allocator]
static ALLOC: Counting = Counting;

/// Blocks of at least this many bytes are watched; 0 watches none.
static WATCH: AtomicUsize = AtomicUsize::new(0);
/// Watched blocks allocated off the launching thread, and the largest.
static ELSEWHERE: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static LAUNCHING: Cell<bool> = const { Cell::new(false) };
}

fn note(size: usize) {
    let watch = WATCH.load(Ordering::Relaxed);
    // A thread being torn down has no flag left: it is not the launcher.
    if watch > 0 && size >= watch && !LAUNCHING.try_with(Cell::get).unwrap_or(false) {
        ELSEWHERE.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; `note` allocates nothing (its
// thread-local is `const`-initialised and its counters are atomics).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees for `layout` are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout` (every block
        // of this allocator is `System`'s), as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as in `dealloc`, and the caller's guarantees for
        // `new_size` are `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Launches a cluster over `table` with the watch on, and returns how many
/// row-sized blocks other threads allocated meanwhile, and the largest.
fn launch_watched(cfg: ClusterConfig, table: &ts_datatable::DataTable) -> (usize, usize) {
    ELSEWHERE.store(0, Ordering::Relaxed);
    LARGEST.store(0, Ordering::Relaxed);
    LAUNCHING.with(|l| l.set(true));
    WATCH.store(table.n_rows(), Ordering::Relaxed);
    let cluster = Cluster::launch(cfg, table);
    WATCH.store(0, Ordering::Relaxed);
    LAUNCHING.with(|l| l.set(false));
    cluster.shutdown();
    (
        ELSEWHERE.load(Ordering::Relaxed),
        LARGEST.load(Ordering::Relaxed),
    )
}

#[test]
fn no_thread_but_the_launching_one_allocates_a_row_sized_block() {
    let table = generate(&SynthSpec {
        rows: 50_000,
        numeric: 8,
        categorical: 2,
        cat_cardinality: 6,
        task: Task::Classification { n_classes: 3 },
        missing_rate: 0.05,
        seed: 3,
        ..Default::default()
    });
    for splitter in [
        Splitter::Exact,
        Splitter::Histogram {
            bins: 64,
            vote_k: 2,
        },
    ] {
        let cfg = ClusterConfig {
            n_workers: 4,
            replication: 2,
            splitter,
            ..ClusterConfig::default()
        };
        let (blocks, largest) = launch_watched(cfg, &table);
        assert_eq!(
            blocks,
            0,
            "{splitter:?}: other threads allocated {blocks} blocks of {} bytes or more \
             during the launch, the largest {largest} bytes",
            table.n_rows()
        );
    }
}
