//! Seeded open-loop arrival plans.
//!
//! A plan is a pure function of `(plan, seed)` — the same pair always
//! produces the same request stream, byte for byte, in the `FaultPlan`
//! style: all randomness flows through one seeded [`tsrand::StdRng`] and
//! virtual timestamps are derived arithmetic, never wall-clock reads.
//! *Open loop* means arrival times are drawn independently of how the
//! server is keeping up, which is what exposes real queueing behaviour
//! (a closed loop would throttle itself and hide overload).

use std::time::Duration;
use tsrand::{Rng, SeedableRng, StdRng};

/// Phases a bursty plan crosses without an arrival before it stops drawing
/// phase by phase: from the next ON phase on, the time to the next arrival
/// is drawn against the integrated rate of whole ON/OFF cycles
/// ([`next_by_cycles`]), so the work per arrival does not grow as the rates
/// shrink. A stream with arrivals in every few phases never gets there.
const EMPTY_PHASES: u32 = 8;

/// How requests arrive over virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalPlan {
    /// Memoryless Poisson arrivals at a constant mean rate: exponential
    /// inter-arrival gaps `-ln(1-u)/qps`.
    Poisson {
        /// Mean arrival rate, requests per (virtual) second. Must be > 0.
        qps: f64,
    },
    /// ON/OFF-modulated Poisson (bursty): the rate alternates between
    /// `on_qps` for `on` and `off_qps` for `off`. Phase switches use the
    /// memorylessness of the exponential — a gap that would cross a
    /// boundary is truncated there and redrawn at the new rate, which is
    /// distributionally exact for a modulated Poisson process. After a run
    /// of empty phases the next arrival is drawn over whole cycles at once,
    /// exact too; times past `u64::MAX` ns saturate, as Poisson's do.
    Bursty {
        /// Rate during the ON phase (requests/s). Must be > 0.
        on_qps: f64,
        /// Rate during the OFF phase (requests/s); 0 silences the phase.
        off_qps: f64,
        /// ON-phase length.
        on: Duration,
        /// OFF-phase length.
        off: Duration,
    },
}

impl ArrivalPlan {
    /// A stable lowercase name, used in bench/CI matrix labels.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalPlan::Poisson { .. } => "poisson",
            ArrivalPlan::Bursty { .. } => "bursty",
        }
    }

    /// Generates the first `n` arrivals of this plan under `seed`.
    ///
    /// Each request is pinned to a uniformly-drawn row of the request
    /// table (`0..n_rows`) and to connection `id % n_conns` — connections
    /// model distinct clients, so per-connection response ordering is
    /// meaningful (see the epoch-monotonicity property).
    ///
    /// # Panics
    /// Panics if the plan can never emit (`qps <= 0`), or if `n_rows` or
    /// `n_conns` is 0.
    pub fn generate(&self, n: usize, n_rows: u32, n_conns: u32, seed: u64) -> Vec<Arrival> {
        assert!(n_rows > 0, "arrival rows must come from a non-empty table");
        assert!(n_conns > 0, "need at least one connection");
        let rate_ok = match self {
            ArrivalPlan::Poisson { qps } => *qps > 0.0,
            ArrivalPlan::Bursty { on_qps, .. } => *on_qps > 0.0,
        };
        assert!(rate_ok, "arrival plan needs a positive ON rate");

        let mut rng = StdRng::seed_from_u64(seed ^ 0xF507_A881_05EE_D001);
        let mut out = Vec::with_capacity(n);
        let mut t = 0.0f64; // virtual ns
        let (mut qps, mut phase_on) = match self {
            ArrivalPlan::Poisson { qps } => (*qps, true),
            ArrivalPlan::Bursty { on_qps, .. } => (*on_qps, true),
        };
        let mut phase_end = match self {
            ArrivalPlan::Poisson { .. } => f64::INFINITY,
            ArrivalPlan::Bursty { on, .. } => on.as_nanos() as f64,
        };
        let mut empty = 0; // phases crossed since the last arrival
        while out.len() < n {
            let u: f64 = rng.gen();
            let mut gap = if qps > 0.0 {
                -(1.0 - u).ln() / qps * 1e9
            } else {
                f64::INFINITY
            };
            if t + gap >= phase_end {
                if let ArrivalPlan::Bursty {
                    on_qps,
                    off_qps,
                    on,
                    off,
                } = self
                {
                    t = phase_end;
                    phase_on = !phase_on;
                    qps = if phase_on { *on_qps } else { *off_qps };
                    phase_end = t + if phase_on { on } else { off }.as_nanos() as f64;
                    empty += 1;
                    if !phase_on || empty < EMPTY_PHASES {
                        continue; // redraw the gap at the new rate
                    }
                    // `t` starts an ON phase: jump to the next arrival and
                    // into the phase it falls in.
                    let (on_ns, off_ns) = (on.as_nanos() as f64, off.as_nanos() as f64);
                    let (start, at) =
                        next_by_cycles(rng.gen(), t, *on_qps, *off_qps, on_ns, off_ns);
                    phase_on = at - start < on_ns;
                    qps = if phase_on { *on_qps } else { *off_qps };
                    phase_end = start + if phase_on { on_ns } else { on_ns + off_ns };
                    t = at;
                    gap = 0.0;
                }
            }
            empty = 0;
            t += gap;
            let id = out.len() as u64;
            out.push(Arrival {
                id,
                conn: (id % n_conns as u64) as u32,
                at_ns: t as u64,
                row: rng.gen_range(0..n_rows),
            });
        }
        out
    }
}

/// The next arrival of a bursty plan from `start`, the start (ns) of an ON
/// phase, drawn with `u` against the integrated rate: the arrival is where
/// the cumulative rate since `start` reaches `-ln(1-u)`. Each whole cycle
/// spends `on_qps·on + off_qps·off` of it; what is left is spent inside
/// the ON, then the OFF phase of the cycle it runs out in. Returns that
/// cycle's start and the arrival time, both infinite where they overflow
/// (or where no cycle has any rate). Exact in distribution, like the phase
/// by phase draw, and constant work whatever the rates.
fn next_by_cycles(
    u: f64,
    start: f64,
    on_qps: f64,
    off_qps: f64,
    on_ns: f64,
    off_ns: f64,
) -> (f64, f64) {
    let (on_mass, off_mass) = (on_qps * on_ns / 1e9, off_qps * off_ns / 1e9);
    let cycle_mass = on_mass + off_mass;
    if cycle_mass.is_nan() || cycle_mass <= 0.0 {
        return (f64::INFINITY, f64::INFINITY);
    }
    let mass = -(1.0 - u).ln();
    let cycles = (mass / cycle_mass).floor();
    let left = mass - cycles * cycle_mass;
    let into = if left < on_mass || off_qps <= 0.0 {
        left / on_qps * 1e9
    } else {
        on_ns + (left - on_mass) / off_qps * 1e9
    };
    // Rounding may leave `left` a hair outside the cycle's mass.
    let into = into.max(0.0).min(on_ns + off_ns);
    let start = start + cycles * (on_ns + off_ns);
    if start.is_finite() {
        (start, start + into)
    } else {
        (f64::INFINITY, f64::INFINITY)
    }
}

/// One request of the open-loop stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Stream-unique request id (also the arrival index).
    pub id: u64,
    /// The issuing connection (`id % n_conns`).
    pub conn: u32,
    /// Virtual arrival time.
    pub at_ns: u64,
    /// The row of the request table this request asks to score.
    pub row: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_is_identical_and_seeds_differ() {
        let p = ArrivalPlan::Poisson { qps: 50_000.0 };
        let a = p.generate(200, 64, 8, 7);
        let b = p.generate(200, 64, 8, 7);
        assert_eq!(a, b);
        let c = p.generate(200, 64, 8, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_times_are_monotone_and_rate_roughly_holds() {
        let p = ArrivalPlan::Poisson { qps: 100_000.0 };
        let arr = p.generate(10_000, 16, 4, 42);
        assert!(arr.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert!(arr.iter().enumerate().all(|(i, a)| a.id == i as u64));
        // 10k arrivals at 100k qps ≈ 0.1 virtual seconds.
        let span_s = arr.last().unwrap().at_ns as f64 / 1e9;
        assert!((0.08..0.12).contains(&span_s), "span {span_s}");
    }

    #[test]
    fn bursty_concentrates_arrivals_in_on_phases() {
        let p = ArrivalPlan::Bursty {
            on_qps: 200_000.0,
            off_qps: 2_000.0,
            on: Duration::from_millis(1),
            off: Duration::from_millis(4),
        };
        let arr = p.generate(5_000, 16, 4, 9);
        assert!(arr.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        // Period 5ms, ON is the first 1ms of each period.
        let in_on = arr
            .iter()
            .filter(|a| a.at_ns % 5_000_000 < 1_000_000)
            .count();
        assert!(
            in_on as f64 > 0.9 * arr.len() as f64,
            "only {in_on}/{} arrivals in ON phases",
            arr.len()
        );
    }

    /// Runs `generate` on a thread and fails if it takes longer than ten
    /// seconds (or panics).
    fn generated_in_time(plan: ArrivalPlan, n: usize) -> Vec<Arrival> {
        let (tx, rx) = std::sync::mpsc::channel();
        let generator = std::thread::spawn(move || tx.send(plan.generate(n, 16, 4, 3)));
        let arrivals = rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("{plan:?} did not generate {n} arrivals in 10 s"));
        let sent = generator.join().expect("the generator returned");
        sent.expect("the receiver is alive");
        arrivals
    }

    fn bursty_at(qps: f64) -> ArrivalPlan {
        ArrivalPlan::Bursty {
            on_qps: qps,
            off_qps: qps,
            on: Duration::from_millis(1),
            off: Duration::from_millis(2),
        }
    }

    #[test]
    fn bursty_at_a_vanishing_rate_saturates_like_poisson() {
        let arr = generated_in_time(bursty_at(1e-300), 10);
        assert_eq!(arr.len(), 10);
        assert!(arr.iter().all(|a| a.at_ns == u64::MAX), "{arr:?}");
        let poisson = ArrivalPlan::Poisson { qps: 1e-300 }.generate(10, 16, 4, 3);
        assert!(poisson.iter().all(|a| a.at_ns == u64::MAX));
    }

    #[test]
    fn bursty_at_a_tiny_rate_returns_in_order() {
        let arr = generated_in_time(bursty_at(1e-6), 10);
        assert_eq!(arr.len(), 10);
        assert!(arr.windows(2).all(|w| w[0].at_ns <= w[1].at_ns), "{arr:?}");
        assert!(arr.iter().enumerate().all(|(i, a)| a.id == i as u64));
        // 10 arrivals at 1e-6 qps: about 1e7 virtual seconds, 1e16 ns.
        let last = arr.last().unwrap().at_ns;
        assert!((1e14..1e18).contains(&(last as f64)), "last at {last} ns");
    }

    #[test]
    fn cycle_draws_keep_the_bursty_rate() {
        // Nearly every phase is empty at these rates, so nearly every
        // arrival is drawn over whole cycles. A cycle (1 ms ON at 1 qps,
        // 2 ms OFF at 0.5 qps) expects 0.002 arrivals: the mean gap is
        // 3 ms / 0.002 = 1.5 s, and half the arrivals fall in ON phases.
        let plan = ArrivalPlan::Bursty {
            on_qps: 1.0,
            off_qps: 0.5,
            on: Duration::from_millis(1),
            off: Duration::from_millis(2),
        };
        let arr = generated_in_time(plan, 20_000);
        assert!(arr.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        let mean_gap_s = arr.last().unwrap().at_ns as f64 / 1e9 / arr.len() as f64;
        assert!((1.4..1.6).contains(&mean_gap_s), "mean gap {mean_gap_s} s");
        let in_on = arr
            .iter()
            .filter(|a| a.at_ns % 3_000_000 < 1_000_000)
            .count();
        let share = in_on as f64 / arr.len() as f64;
        assert!((0.47..0.53).contains(&share), "ON share {share}");
    }

    #[test]
    fn rows_and_conns_stay_in_range() {
        let p = ArrivalPlan::Poisson { qps: 10_000.0 };
        let arr = p.generate(1_000, 7, 3, 1);
        assert!(arr.iter().all(|a| a.row < 7 && a.conn < 3));
        assert!(arr.iter().any(|a| a.conn == 2));
    }
}
