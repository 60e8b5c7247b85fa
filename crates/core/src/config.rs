//! Cluster and system configuration.

use std::time::Duration;
use ts_netsim::NetModel;

/// Split-finding strategy of the distributed engine (`docs/HISTOGRAM.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Splitter {
    /// Exact sorted-scan kernels: every shard returns its full best split
    /// and the master folds the winner. Paper-exact; the accuracy oracle.
    Exact,
    /// Quantized histogram path: columns are pre-binned at load into at
    /// most `bins` equi-depth bins, shards score candidates on per-bin
    /// aggregates and nominate only their `vote_k` best `(attr, gain)`
    /// summaries; the master elects a winner by PV-Tree-style voting and
    /// fetches the one full split it needs.
    Histogram {
        /// Maximum bins per numeric column (including the implicit
        /// overflow bin); 2..=65535.
        bins: usize,
        /// Candidate summaries each shard nominates per task (>= 1).
        vote_k: usize,
    },
}

impl Splitter {
    /// The histogram bin budget, when the histogram path is selected.
    pub fn hist_bins(&self) -> Option<usize> {
        match *self {
            Splitter::Exact => None,
            Splitter::Histogram { bins, .. } => Some(bins),
        }
    }
}

/// Configuration of a TreeServer cluster.
///
/// Defaults follow the paper's tuned system parameters (§III):
/// `τ_D = 10,000`, `τ_dfs = 80,000`, `n_pool = 200`, column replication
/// `k = 2`, and the experimental setup of §VIII (10 compers per worker).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of worker machines (the paper uses up to 15; master is extra).
    pub n_workers: usize,
    /// Computing threads (*compers*) per worker.
    pub compers_per_worker: usize,
    /// Column replication factor `k` (each column lives on `k` workers).
    pub replication: usize,
    /// Subtree-task threshold `τ_D`: tasks with `|Dx| <= τ_D` build the
    /// whole subtree on one worker.
    pub tau_d: u64,
    /// Depth-first threshold `τ_dfs`: tasks with `|Dx| <= τ_dfs` go to the
    /// head of `Bplan` (depth-first), larger ones to the tail (breadth-first).
    pub tau_dfs: u64,
    /// Maximum number of trees under construction at any time (`n_pool`).
    pub n_pool: usize,
    /// The simulated link model.
    pub net: NetModel,
    /// Directory the master flushes completed trees into (one JSON file per
    /// tree, written the moment the tree's last task result arrives — the
    /// paper's "a tree is flushed to disk by the master as soon as it
    /// receives the results from the tree's last task"). `None` disables
    /// flushing.
    pub model_dir: Option<std::path::PathBuf>,
    /// Modeled compute cost in nanoseconds per work unit (0 = off).
    ///
    /// A work unit is one row-attribute touch (`|Ix| * |C'|` for a
    /// column-task shard, `|Ix| * |C| * log|Ix|` for a subtree build — the
    /// same units as the §VI cost model). Compers sleep `units * ns` around
    /// the real computation. On hosts with fewer cores than the simulated
    /// cluster (this repo's benches run on a single core), the sleeps stand
    /// in for compute: they overlap across threads exactly as real compute
    /// overlaps across real cores, so scalability shapes survive the
    /// substitution (DESIGN.md §2).
    pub work_ns_per_unit: u64,
    /// Seeded fault injection (see `docs/TESTING.md`). `None` runs a
    /// fault-free cluster. Message drops, delays and duplicates cost their
    /// sender time and bytes but never reach a handler (see
    /// `ts_netsim::Fabric::send`), so training still terminates with the
    /// fault-free model. A `with_crash_at_delegation` trigger makes the
    /// master silence a key worker right after the n-th subtree delegation
    /// cluster-wide; a timer then declares the silent worker dead and runs
    /// recovery.
    pub faults: Option<ts_netsim::FaultPlan>,
    /// The master's idle tick is half of this (clamped to 1–50 ms), and an
    /// injected crash is declared `heartbeat_interval ×
    /// heartbeat_miss_threshold` after the delegation that injected it.
    /// No worker sends heartbeats: a worker thread that panics announces
    /// its machine lost itself.
    pub heartbeat_interval: Duration,
    /// How many `heartbeat_interval`s an injected crash stays silent
    /// before the master declares it (default 25: 500 ms).
    pub heartbeat_miss_threshold: u32,
    /// Observability: task-lifecycle tracing and metrics (see
    /// `docs/OBSERVABILITY.md`). Off by default; `Cluster::launch` builds a
    /// recorder when `obs.enabled` is set.
    pub obs: ts_obs::ObsConfig,
    /// Per-worker compute-speed heterogeneity: multiplier applied to
    /// `work_ns_per_unit` for each worker (index 0 = worker 1). `> 1.0`
    /// slows a worker down — the skewed-load scenario the scheduler's
    /// stealing rebalances (`docs/SCHEDULING.md`). Empty = homogeneous.
    pub work_scale: Vec<f64>,
    /// Split-finding strategy: exact sorted-scan kernels (the seed
    /// behaviour and accuracy oracle) or the quantized histogram path with
    /// top-k column voting (`docs/HISTOGRAM.md`). Subtree tasks and
    /// extra-trees sampling always use the exact kernels regardless.
    pub splitter: Splitter,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            n_workers: 4,
            compers_per_worker: 2,
            replication: 2,
            tau_d: 10_000,
            tau_dfs: 80_000,
            n_pool: 200,
            net: NetModel::instant(),
            model_dir: None,
            work_ns_per_unit: 0,
            faults: None,
            heartbeat_interval: Duration::from_millis(20),
            heartbeat_miss_threshold: 25,
            obs: ts_obs::ObsConfig::default(),
            work_scale: Vec::new(),
            splitter: Splitter::Exact,
        }
    }
}

impl ClusterConfig {
    /// The paper's full testbed shape: 15 workers × 10 compers, 1 GigE.
    pub fn paper_testbed() -> ClusterConfig {
        ClusterConfig {
            n_workers: 15,
            compers_per_worker: 10,
            net: NetModel::gige(),
            ..Default::default()
        }
    }

    /// Validates invariants; called by `Cluster::launch`.
    pub fn validate(&self) {
        assert!(self.n_workers >= 1, "need at least one worker");
        assert!(self.compers_per_worker >= 1, "need at least one comper");
        assert!(
            (1..=self.n_workers).contains(&self.replication),
            "replication must be in 1..=n_workers"
        );
        assert!(self.n_pool >= 1, "n_pool must be at least 1");
        assert!(self.tau_d >= 1, "tau_d must be at least 1");
        assert!(
            self.heartbeat_miss_threshold >= 1,
            "heartbeat_miss_threshold must be at least 1"
        );
        assert!(
            !self.heartbeat_interval.is_zero(),
            "heartbeat_interval must be positive"
        );
        assert!(
            self.work_scale.is_empty() || self.work_scale.len() == self.n_workers,
            "work_scale must name every worker (or be empty)"
        );
        assert!(
            self.work_scale.iter().all(|&s| s > 0.0 && s.is_finite()),
            "work_scale factors must be positive and finite"
        );
        if let Splitter::Histogram { bins, vote_k } = self.splitter {
            assert!(
                (2..=65535).contains(&bins),
                "hist bins must be in 2..=65535"
            );
            assert!(vote_k >= 1, "vote_k must be at least 1");
        }
        // Joiners start empty and are topped up by migration, so the
        // replication bound stays against the *initial* worker count.
    }

    /// Total worker slots the fabric must provision: the initial roster
    /// plus one spare slot per worker the fault plan's join admits.
    pub fn total_worker_slots(&self) -> usize {
        let joiners = self.faults.as_ref().and_then(|p| p.worker_join());
        self.n_workers + joiners.map_or(0, |(_, n)| n)
    }

    /// `work_ns_per_unit` for one worker, after heterogeneity scaling
    /// (`worker` is the 1-based fabric node id).
    pub fn worker_work_ns(&self, worker: usize) -> u64 {
        let scale = self
            .work_scale
            .get(worker.saturating_sub(1))
            .copied()
            .unwrap_or(1.0);
        (self.work_ns_per_unit as f64 * scale).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_thresholds() {
        let c = ClusterConfig::default();
        assert_eq!(c.tau_d, 10_000);
        assert_eq!(c.tau_dfs, 80_000);
        assert_eq!(c.n_pool, 200);
        assert_eq!(c.replication, 2);
        // An injected crash is declared ~500 ms after it by default.
        assert!(c.heartbeat_interval * c.heartbeat_miss_threshold >= Duration::from_millis(400));
        assert!(c.work_scale.is_empty());
        c.validate();
    }

    #[test]
    #[should_panic(expected = "heartbeat_miss_threshold")]
    fn zero_miss_threshold_panics() {
        ClusterConfig {
            heartbeat_miss_threshold: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    fn paper_testbed_shape() {
        let c = ClusterConfig::paper_testbed();
        assert_eq!(c.n_workers, 15);
        assert_eq!(c.compers_per_worker, 10);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "replication")]
    fn replication_above_workers_panics() {
        ClusterConfig {
            n_workers: 2,
            replication: 3,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    fn splitter_defaults_to_exact_and_hist_bounds_validate() {
        let c = ClusterConfig::default();
        assert_eq!(c.splitter, Splitter::Exact, "exact is the seed behaviour");
        assert_eq!(c.splitter.hist_bins(), None);
        let h = ClusterConfig {
            splitter: Splitter::Histogram {
                bins: 64,
                vote_k: 2,
            },
            ..Default::default()
        };
        h.validate();
        assert_eq!(h.splitter.hist_bins(), Some(64));
    }

    #[test]
    #[should_panic(expected = "hist bins")]
    fn single_hist_bin_panics() {
        ClusterConfig {
            splitter: Splitter::Histogram { bins: 1, vote_k: 2 },
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "vote_k")]
    fn zero_vote_k_panics() {
        ClusterConfig {
            splitter: Splitter::Histogram {
                bins: 64,
                vote_k: 0,
            },
            ..Default::default()
        }
        .validate();
    }

    #[test]
    fn work_scale_scales_per_worker() {
        let c = ClusterConfig {
            work_ns_per_unit: 100,
            work_scale: vec![4.0, 1.0, 1.0, 1.0],
            ..Default::default()
        };
        c.validate();
        assert_eq!(c.worker_work_ns(1), 400, "worker 1 is 4x slower");
        assert_eq!(c.worker_work_ns(2), 100);
        assert_eq!(c.worker_work_ns(4), 100);
    }

    #[test]
    #[should_panic(expected = "work_scale")]
    fn short_work_scale_panics() {
        ClusterConfig {
            n_workers: 4,
            work_scale: vec![1.0, 2.0],
            ..Default::default()
        }
        .validate();
    }
}
