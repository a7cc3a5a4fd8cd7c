//! Shared machinery: run configuration, the closed loop, set-up timing,
//! input generation, metric tables and the solver-layer tally.

use std::time::{Duration, Instant};

use hslb_minlp::SolveStats;

use crate::metrics::Metrics;
use crate::stats;
use crate::tracing::Attribution;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// What a workload hands back to `main`.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Human-readable lines for standard error (sample counts, tails,
    /// first failures).
    pub notes: Vec<String>,
}

/// Latencies and completion rates of one closed-loop phase.
#[derive(Debug, Default)]
pub struct Phase {
    pub latencies_ms: Vec<f64>,
    /// Completed ops ÷ wall time, per cycle (single caller) or for the
    /// whole phase (several callers).
    pub rates: Vec<f64>,
}

impl Phase {
    /// Median of the per-cycle rates, so a burst of interference from
    /// outside the benchmark moves it less than it moves the plain mean.
    pub fn throughput(&self) -> f64 {
        stats::median(&self.rates)
    }

    pub fn p50(&self) -> f64 {
        stats::median(&self.latencies_ms)
    }
}

/// One caller, one op at a time: runs whole cycles over `0..cycle`, each
/// in an order shuffled from `seed`, until `seconds` have passed, so every
/// input appears equally often. `op(i)` runs input `i` and returns the
/// latency it measured, in milliseconds, leaving any bookkeeping after the
/// op outside that figure.
pub fn closed_loop(
    seconds: f64,
    cycle: usize,
    seed: u64,
    mut op: impl FnMut(usize) -> f64,
) -> Phase {
    let mut rng = InputRng::new(seed, 0x0D3E);
    let mut order: Vec<usize> = (0..cycle).collect();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut phase = Phase::default();
    while start.elapsed() < budget {
        for k in (1..cycle).rev() {
            order.swap(k, rng.int(0, k as u64) as usize);
        }
        let t0 = Instant::now();
        for &i in &order {
            phase.latencies_ms.push(op(i));
        }
        phase
            .rates
            .push(cycle as f64 / t0.elapsed().as_secs_f64().max(f64::MIN_POSITIVE));
    }
    phase
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Runs `build` [`SETUP_REPS`] times and returns the last result with the
/// median build time in seconds. Earlier results are dropped outside the
/// timed region.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        let built = build();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    (
        last.expect("at least one set-up repetition"),
        stats::median(&times),
    )
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The benchmark's own input generator (SplitMix64), independent of the
/// program's RNG so that program changes never change the inputs.
#[derive(Debug, Clone)]
pub struct InputRng(u64);

impl InputRng {
    pub fn new(seed: u64, stream: u64) -> InputRng {
        let mut r = InputRng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `lo..=hi`.
    pub fn int(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer that did no work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Solver work of one side (serial or parallel solves).
#[derive(Debug, Default, Clone, Copy)]
pub struct Side {
    pub ops: u64,
    pub stats: SolveStats,
    pub attr: Attribution,
    pub solve: Duration,
}

/// Solver work across the traced cycles, split by serial and parallel solves.
#[derive(Debug, Default)]
pub struct SolverTally {
    pub serial: Side,
    pub parallel: Side,
}

impl SolverTally {
    pub fn record(
        &mut self,
        parallel: bool,
        stats: &SolveStats,
        attr: &Attribution,
        solve: Duration,
    ) {
        let side = if parallel {
            &mut self.parallel
        } else {
            &mut self.serial
        };
        side.ops += 1;
        side.stats.merge(stats);
        side.attr.add(attr);
        side.solve += solve;
    }

    /// Fills `lsq.lm_steps` and the `minlp.*`, `nlp.*`, `lp.*` and
    /// `linalg.*` metrics (all but `minlp.parallel_over_serial`, which comes
    /// from untraced timings).
    pub fn fill(&self, m: &mut Metrics) {
        let (s, p) = (&self.serial, &self.parallel);
        let ops = (s.ops + p.ops) as f64;
        let mut all = s.stats;
        all.merge(&p.stats);
        let mut attr = s.attr;
        attr.add(&p.attr);
        let per_op = |v: u64| ratio(v as f64, ops);
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let us = |d: Duration| d.as_secs_f64() * 1e6;

        m.set("lsq.lm_steps", per_op(all.lm_steps));
        m.set("minlp.solve_ms", ratio(ms(s.solve + p.solve), ops));
        m.set("minlp.tree_ms", ratio(ms(attr.tree), ops));
        m.set("minlp.nodes_opened", per_op(all.nodes_opened));
        m.set(
            "minlp.prune_ratio",
            ratio(
                (all.pruned_by_bound + all.pruned_infeasible) as f64,
                all.nodes_opened as f64,
            ),
        );
        m.set(
            "minlp.warm_start_hit_ratio",
            ratio(
                all.warm_start_hits as f64,
                (all.lp_solves + all.nlp_solves) as f64,
            ),
        );
        m.set("minlp.oa_cuts", per_op(all.oa_cuts));
        m.set(
            "minlp.speculative_nodes",
            ratio(
                p.attr.node_opened as f64 - p.stats.nodes_opened as f64,
                p.ops as f64,
            ),
        );

        let share = ratio(s.attr.barrier_mu as f64, s.stats.newton_iters as f64);
        m.set("nlp.busy_ms", ratio(ms(attr.nlp), ops));
        m.set(
            "nlp.us_per_newton",
            ratio(us(s.attr.nlp), s.stats.newton_iters as f64),
        );
        m.set("nlp.newton_iters", per_op(all.newton_iters));
        m.set(
            "nlp.line_search_backtracks",
            per_op(all.line_search_backtracks),
        );
        m.set("nlp.mpc_iter_share", share);
        m.set(
            "nlp.speculative_newton",
            ratio(
                p.attr.barrier_mu as f64 - share * p.stats.newton_iters as f64,
                p.ops as f64,
            ),
        );

        m.set("lp.busy_ms", ratio(ms(attr.lp), ops));
        m.set(
            "lp.us_per_pivot",
            ratio(us(s.attr.lp), s.stats.simplex_pivots as f64),
        );
        m.set("lp.simplex_pivots", per_op(all.simplex_pivots));
        m.set("lp.dual_pivots", per_op(all.dual_pivots));
        m.set("linalg.factorizations", per_op(all.factorizations));
        m.set("linalg.factor_updates", per_op(all.factor_updates));
        m.set("linalg.fill_nnz", per_op(all.fill_nnz));
    }
}

/// Standard notes for a latency sample: count, p50, p90, p95, and the
/// highest percentile with at least ten samples above it.
pub fn latency_note(label: &str, latencies_ms: &[f64]) -> String {
    let sorted = stats::sorted(latencies_ms);
    let p = |q: f64| stats::percentile(&sorted, q).unwrap_or(0.0);
    let tail = match stats::tail(&sorted) {
        Some(t) => format!("p{} {:.3} ms ({} of {} above)", t.p, t.value, t.above, t.n),
        None => "no percentile leaves 10 samples above".to_string(),
    };
    format!(
        "{label}: n={} p50 {:.3} p90 {:.3} p95 {:.3} ms, tail {tail}",
        sorted.len(),
        p(50.0),
        p(90.0),
        p(95.0)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_rng_is_seeded_and_stream_separated() {
        let a: Vec<u64> = (0..4).map(|_| InputRng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]), "same seed, same value");
        let mut x = InputRng::new(7, 1);
        let mut y = InputRng::new(7, 2);
        assert_ne!(x.next_u64(), y.next_u64());
        let mut r = InputRng::new(3, 0);
        for _ in 0..1000 {
            let v = r.range(2.0, 5.0);
            assert!((2.0..5.0).contains(&v));
            let k = r.int(2, 8);
            assert!((2..=8).contains(&k));
        }
    }

    #[test]
    fn closed_loop_runs_whole_cycles() {
        let mut seen = Vec::new();
        let phase = closed_loop(0.0, 3, 1, |i| {
            seen.push(i);
            1.0
        });
        assert!(seen.is_empty(), "zero budget runs nothing");
        assert!(phase.latencies_ms.is_empty());
        // A cycle of five 1 ms ops overruns a 1 ms budget: exactly one cycle.
        let phase = closed_loop(1e-3, 5, 1, |i| {
            seen.push(i);
            std::thread::sleep(Duration::from_millis(1));
            1.0
        });
        assert_eq!(phase.latencies_ms.len(), 5);
        assert_eq!(phase.rates.len(), 1);
        assert!(phase.throughput() > 0.0);
        let mut cycle = seen.clone();
        cycle.sort_unstable();
        assert_eq!(cycle, vec![0, 1, 2, 3, 4], "one whole cycle");
        let mut again = Vec::new();
        closed_loop(1e-3, 5, 1, |i| {
            again.push(i);
            std::thread::sleep(Duration::from_millis(1));
            1.0
        });
        assert_eq!(again, seen, "the order is a function of the seed");
    }

    #[test]
    fn timed_setup_keeps_the_last_build() {
        let mut n = 0;
        let (last, secs) = timed_setup(|| {
            n += 1;
            n
        });
        assert_eq!((last, n), (SETUP_REPS, SETUP_REPS));
        assert!(secs >= 0.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().expect("linux /proc") > 0.0);
    }
}
