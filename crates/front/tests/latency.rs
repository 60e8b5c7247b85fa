//! Latency-invariant acceptance: under the virtual clock, no admitted
//! request ever completes later than
//! `admission_time + latency_budget + service(its own batch)` — the bound
//! admission control enforces by construction (see the proof sketch in
//! `crates/front/src/server.rs` and docs/SERVING.md). Also pins the
//! deadline-flush path on a lone straggler — the classic "last request of
//! a burst waits forever" bug.

use std::sync::Arc;
use std::time::Duration;

use ts_datatable::synth::{generate, SynthSpec};
use ts_datatable::{DataTable, Task};
use ts_front::{Arrival, ArrivalPlan, FrontConfig, FrontServer, ModelRegistry, ServiceModel};
use ts_serve::CompiledModel;
use ts_tree::{train_tree, TrainParams};

fn base_seed() -> u64 {
    match std::env::var("TS_SEED") {
        Ok(s) => s
            .strip_prefix("0x")
            .map(|h| u64::from_str_radix(h, 16).expect("hex TS_SEED"))
            .unwrap_or_else(|| s.parse().expect("decimal TS_SEED")),
        Err(_) => 0x1A7E_0BEE,
    }
}

fn table(seed: u64) -> Arc<DataTable> {
    Arc::new(generate(&SynthSpec {
        rows: 64,
        numeric: 4,
        categorical: 0,
        task: Task::Classification { n_classes: 2 },
        noise: 0.1,
        concept_depth: 3,
        seed,
        ..Default::default()
    }))
}

fn registry(t: &DataTable, seed: u64) -> Arc<ModelRegistry> {
    let attrs: Vec<usize> = (0..t.n_attrs()).collect();
    let params = TrainParams {
        dmax: 4,
        ..TrainParams::for_task(t.schema().task)
    };
    let tree = train_tree(t, &attrs, &params, seed);
    Arc::new(ModelRegistry::new(CompiledModel::from_tree(&tree)))
}

/// Every admitted request meets the bound, across load levels, budgets
/// and both adaptive modes — including overloaded configs where admission
/// control is actively shedding.
#[test]
fn admitted_completion_never_exceeds_budget_plus_batch_service() {
    let seed = base_seed();
    let t = table(seed);
    let service = ServiceModel {
        batch_overhead_ns: 25_000,
        per_row_ns: 8_000,
    };
    for (qps, budget_us, adaptive) in [
        (20_000.0, 800, true),    // light load: deadline flushes dominate
        (120_000.0, 800, true),   // overload: sheds + full flushes
        (120_000.0, 800, false),  // same, fixed batch target
        (300_000.0, 2_500, true), // heavy burst pressure, wider budget
    ] {
        let cfg = FrontConfig {
            latency_budget: Duration::from_micros(budget_us),
            max_batch: 16,
            queue_cap: 64,
            adaptive_batch: adaptive,
            service,
            ..FrontConfig::default()
        };
        let budget_ns = cfg.latency_budget.as_nanos() as u64;
        let mut server = FrontServer::new(cfg, registry(&t, seed), Arc::clone(&t));
        let arrivals =
            ArrivalPlan::Poisson { qps }.generate(2_000, t.n_rows() as u32, 4, seed ^ budget_us);
        let report = server.run(&arrivals);
        assert!(!report.responses.is_empty());
        for r in &report.responses {
            let bound = r.admit_ns + budget_ns + service.service_ns(r.batch_rows as usize);
            assert!(
                r.done_ns <= bound,
                "request {} done at {} > bound {} (admit {}, batch_rows {}, \
                 qps {qps}, budget {budget_us}us, adaptive {adaptive}, seed {seed})",
                r.id,
                r.done_ns,
                bound,
                r.admit_ns,
                r.batch_rows,
            );
        }
    }
}

/// A lone straggler must be flushed by the deadline trigger, exactly at
/// `admit + budget`, in a batch of one — it can never wait for a batch
/// that will not fill.
#[test]
fn lone_straggler_fires_the_deadline_flush() {
    let seed = base_seed() ^ 0x57A6;
    let t = table(seed);
    let service = ServiceModel {
        batch_overhead_ns: 25_000,
        per_row_ns: 8_000,
    };
    let cfg = FrontConfig {
        latency_budget: Duration::from_micros(500),
        max_batch: 16,
        adaptive_batch: false,
        service,
        ..FrontConfig::default()
    };
    let mut server = FrontServer::new(cfg, registry(&t, seed), Arc::clone(&t));
    let lone = [Arrival {
        id: 0,
        conn: 0,
        at_ns: 1_000,
        row: 3,
    }];
    let report = server.run(&lone);
    assert_eq!(report.responses.len(), 1);
    assert_eq!(report.deadline_flushes, 1, "flush must be deadline-driven");
    assert_eq!(report.full_flushes, 0);
    let r = &report.responses[0];
    assert_eq!(
        r.dispatch_ns,
        1_000 + 500_000,
        "cut exactly at the deadline"
    );
    assert_eq!(r.batch_rows, 1);
    assert_eq!(r.done_ns, r.dispatch_ns + service.service_ns(1));
}

/// The burst variant: a 15-request burst (one short of the 16-row target)
/// followed by silence still flushes at the *first* request's deadline,
/// carrying the whole burst.
#[test]
fn underfull_burst_flushes_at_the_oldest_deadline() {
    let seed = base_seed() ^ 0xB025;
    let t = table(seed);
    let cfg = FrontConfig {
        latency_budget: Duration::from_micros(500),
        max_batch: 16,
        adaptive_batch: false,
        ..FrontConfig::default()
    };
    let mut server = FrontServer::new(cfg, registry(&t, seed), Arc::clone(&t));
    let burst: Vec<Arrival> = (0..15)
        .map(|i| Arrival {
            id: i,
            conn: i as u32 % 3,
            at_ns: 2_000 + i * 100, // all well inside one budget window
            row: (i % 64) as u32,
        })
        .collect();
    let report = server.run(&burst);
    assert_eq!(report.responses.len(), 15);
    assert_eq!(report.batches, 1, "one batch carries the whole burst");
    assert_eq!(report.deadline_flushes, 1);
    for r in &report.responses {
        assert_eq!(r.batch_rows, 15);
        assert_eq!(
            r.dispatch_ns,
            2_000 + 500_000,
            "flush keys off the oldest request's admission"
        );
    }
}

/// A budget past `u64::MAX` ns (`serve --latency-budget-us
/// 18446744073709551615`) is a deadline that never comes, not one that
/// wraps around to the past: up to commit 1a63857 it wrapped, and every
/// request was shed as backpressure.
#[test]
fn a_saturated_budget_sheds_nothing_the_default_budget_admits() {
    let seed = base_seed() ^ 0x5A7;
    let t = table(seed);
    let arrivals =
        ArrivalPlan::Poisson { qps: 100_000.0 }.generate(2_000, t.n_rows() as u32, 4, seed);
    let run = |latency_budget: Duration| {
        let cfg = FrontConfig {
            latency_budget,
            ..FrontConfig::default()
        };
        FrontServer::new(cfg, registry(&t, seed), Arc::clone(&t)).run(&arrivals)
    };
    let admitted: std::collections::HashSet<u64> = run(FrontConfig::default().latency_budget)
        .responses
        .iter()
        .map(|r| r.id)
        .collect();
    assert!(!admitted.is_empty());
    for budget in [Duration::from_micros(u64::MAX), Duration::MAX] {
        let report = run(budget);
        assert_eq!(report.responses.len() + report.sheds.len(), arrivals.len());
        for shed in &report.sheds {
            assert!(
                !admitted.contains(&shed.id),
                "request {} shed under a {budget:?} budget: {shed:?}",
                shed.id
            );
        }
    }
}

/// A swap scheduled past `u64::MAX` ns never fires; up to commit 1a63857
/// its time wrapped to a small one and the swap fired on the first batch.
#[test]
fn a_swap_past_the_clock_range_never_fires() {
    let seed = base_seed() ^ 0x5A4;
    let t = table(seed);
    let arrivals = ArrivalPlan::Poisson { qps: 50_000.0 }.generate(500, t.n_rows() as u32, 4, seed);
    let mut server = FrontServer::new(FrontConfig::default(), registry(&t, seed), Arc::clone(&t));
    for at in [
        Duration::from_nanos(u64::MAX) + Duration::from_micros(1),
        Duration::MAX,
    ] {
        let attrs: Vec<usize> = (0..t.n_attrs()).collect();
        let tree = train_tree(&t, &attrs, &TrainParams::for_task(t.schema().task), seed);
        server.schedule_swap(at, move || CompiledModel::from_tree(&tree));
    }
    let report = server.run(&arrivals);
    assert_eq!(report.responses.len() + report.sheds.len(), arrivals.len());
    assert!(report.swaps.is_empty(), "{:?}", report.swaps);
}
