//! The single-caller runner shared by `cesm_pipeline`, `fmo_flat` and
//! `e7_tree`: priming, the closed loop with its untraced and traced cycles,
//! answer verdicts and metric assembly.

use std::thread;
use std::time::Instant;

use hslb_minlp::{MinlpOptions, SolveStats};

use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::runner::{
    closed_loop, latency_note, ms_since, peak_rss_mb, ratio, Config, Phase, Report, SolverTally,
};
use crate::stats;
use crate::tracing::{attribute, Spans, StampSink};

/// The solver call inside one op.
#[derive(Debug, Clone, Copy)]
pub struct Solve {
    pub stats: SolveStats,
    /// Start and end of the `solve_model_with` span (traced cycles only).
    pub span: Option<(Instant, Instant)>,
    pub parallel: bool,
}

/// An op: runs one input with the given solver options, charging spans.
pub type OpResult<O> = Result<(O, Solve), String>;

/// The answer check of one op: the makespan gap against the reference and,
/// where the workload executes the allocation, the relative error of the
/// predicted against the executed time.
pub type Check = Result<(f64, Option<f64>), String>;

/// The untraced or the traced cycles of a closed loop, and everything they
/// recorded.
pub struct PhaseOut {
    pub phase: Phase,
    /// Input index and answer check per op, in op order.
    pub records: Vec<(usize, Check)>,
    pub spans: Spans,
    pub tally: SolverTally,
}

impl PhaseOut {
    fn new(traced: bool) -> PhaseOut {
        PhaseOut {
            phase: Phase::default(),
            records: Vec::new(),
            spans: Spans::new(traced),
            tally: SolverTally::default(),
        }
    }
}

/// The phases of one run: the untraced cycles and, in a traced run, the
/// traced ones.
pub struct Runs {
    pub untraced: PhaseOut,
    pub traced: Option<PhaseOut>,
}

/// Priming, the last step of set-up: one untimed op per input, so lazy
/// state and caches settle before the timed phases.
pub fn prime<I, O>(inputs: &[I], op: impl Fn(&I, &MinlpOptions, &mut Spans) -> OpResult<O>) {
    for input in inputs {
        let _ = op(input, &MinlpOptions::default(), &mut Spans::new(false));
    }
}

/// One closed loop over `inputs` for the whole run. In a traced run every
/// second cycle is traced, so a drift of the host's speed hits the
/// untraced and the traced cycles alike. `check` judges each op's answer.
pub fn run_phases<I, O>(
    cfg: &Config,
    inputs: &[I],
    op: impl Fn(&I, &MinlpOptions, &mut Spans) -> OpResult<O>,
    mut check: impl FnMut(usize, &O) -> Check,
) -> Runs {
    let plain = MinlpOptions::default();
    let mut traced_opts = MinlpOptions::default();
    let sink = cfg.trace.then(|| {
        let (sink, trace) = StampSink::install();
        traced_opts.trace = trace;
        sink
    });
    let mut sides = [PhaseOut::new(false), PhaseOut::new(true)];
    let caller = thread::current().id();
    let cycle = inputs.len();
    let traced_cycle = |k: usize| cfg.trace && k % 2 == 1;
    let mut done = 0;
    let phase = closed_loop(cfg.seconds, cycle, cfg.seed, |i| {
        let traced = traced_cycle(done / cycle);
        done += 1;
        let side = &mut sides[usize::from(traced)];
        let opts = if traced { &traced_opts } else { &plain };
        let t0 = Instant::now();
        let out = op(&inputs[i], opts, &mut side.spans);
        let latency = ms_since(t0);
        if let (true, Some(sink)) = (traced, &sink) {
            let stamps = sink.drain();
            if let Ok((
                _,
                Solve {
                    stats,
                    span: Some((s0, s1)),
                    parallel,
                },
            )) = &out
            {
                let attr = attribute(&stamps, caller, *s0, *s1);
                side.tally.record(*parallel, stats, &attr, *s1 - *s0);
            }
        }
        // Checked at once, so memory does not grow with the op count.
        side.records.push((i, out.and_then(|(o, _)| check(i, &o))));
        latency
    });
    // Whole cycles only, so cycle `k` holds ops `k * cycle..(k + 1) * cycle`.
    for (k, (rate, latencies)) in phase
        .rates
        .iter()
        .zip(phase.latencies_ms.chunks(cycle))
        .enumerate()
    {
        let side = &mut sides[usize::from(traced_cycle(k))].phase;
        side.rates.push(*rate);
        side.latencies_ms.extend_from_slice(latencies);
    }
    let [untraced, traced] = sides;
    Runs {
        untraced,
        traced: cfg.trace.then_some(traced),
    }
}

/// Answer checks over a run.
#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    /// Makespan gaps of the ops that passed.
    pub gaps: Vec<f64>,
    /// Predicted-vs-executed errors of the ops that report them.
    pub errs: Vec<f64>,
    pub notes: Vec<String>,
}

impl Verdict {
    /// Records one op: `Ok((gap, predict_err))` or the failure reason.
    pub fn judge(&mut self, label: &str, result: &Check) {
        self.attempted += 1;
        match result {
            Ok((gap, err)) => {
                self.gaps.push(*gap);
                self.errs.extend(*err);
            }
            Err(e) => {
                self.failed += 1;
                if self.notes.len() < 5 {
                    self.notes.push(format!("FAILED {label}: {e}"));
                }
            }
        }
    }
}

/// Mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// Throughput, p50, p95, set-up time and peak RSS of an untraced phase.
pub fn end_to_end(phase: &Phase, setup_s: f64) -> Result<Metrics, String> {
    let sorted = stats::sorted(&phase.latencies_ms);
    let mut m = Metrics::new(&END_TO_END);
    m.set("throughput_per_s", phase.throughput());
    m.set(
        "latency_p50_ms",
        stats::percentile(&sorted, 50.0).ok_or("no ops completed")?,
    );
    m.set(
        "latency_p95_ms",
        stats::percentile(&sorted, 95.0).ok_or("no ops completed")?,
    );
    m.set("setup_s", setup_s);
    m.set("peak_rss_mb", peak_rss_mb()?);
    Ok(m)
}

/// Assembles the report: end-to-end metrics for an untraced run; for a
/// traced run the per-layer metrics common to the single-caller workloads
/// plus whatever `layers` adds from the traced cycles. `labels` names the
/// inputs.
pub fn report(
    name: &str,
    labels: &[String],
    runs: &Runs,
    setup_s: f64,
    layers: impl FnOnce(&mut Metrics, &PhaseOut),
) -> Result<Report, String> {
    let mut notes = vec![
        format!("{name}: set-up median {setup_s:.6} s"),
        latency_note("untraced", &runs.untraced.phase.latencies_ms),
    ];
    for (i, label) in labels.iter().enumerate() {
        let lat: Vec<f64> = runs
            .untraced
            .records
            .iter()
            .zip(&runs.untraced.phase.latencies_ms)
            .filter(|((k, _), _)| *k == i)
            .map(|(_, &l)| l)
            .collect();
        notes.push(latency_note(&format!("  input {i} {label}"), &lat));
    }
    let mut verdict = Verdict::default();
    for (i, check) in runs
        .untraced
        .records
        .iter()
        .chain(runs.traced.iter().flat_map(|t| t.records.iter()))
    {
        verdict.judge(&format!("{name} {}", labels[*i]), check);
    }
    let metrics = match &runs.traced {
        None => end_to_end(&runs.untraced.phase, setup_s)?,
        Some(traced) => {
            notes.push(latency_note("traced", &traced.phase.latencies_ms));
            let mut m = Metrics::new(&PER_LAYER);
            m.set("makespan_gap_pct", 100.0 * mean(&verdict.gaps));
            m.set("predict_err_pct", 100.0 * mean(&verdict.errs));
            m.set(
                "failed_frac",
                ratio(verdict.failed as f64, verdict.attempted as f64),
            );
            traced.tally.fill(&mut m);
            m.set(
                "trace.overhead_pct",
                100.0 * (traced.phase.p50() / runs.untraced.phase.p50() - 1.0),
            );
            layers(&mut m, traced);
            m
        }
    };
    notes.push(format!(
        "{name}: {} ops checked, {} failed, mean makespan gap {:e}",
        verdict.attempted,
        verdict.failed,
        mean(&verdict.gaps)
    ));
    notes.extend(verdict.notes);
    Ok(Report {
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics,
        notes,
    })
}

/// Mean per traced op of the span `name`, in ms.
pub fn span_ms(traced: &PhaseOut, name: &str) -> f64 {
    ratio(traced.spans.total_ms(name), traced.records.len() as f64)
}
