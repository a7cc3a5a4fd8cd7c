//! `cesm_pipeline`: the paper's own evaluation, one full HSLB run per op.
//!
//! Each op is the four-step `run_hslb` path called step by step so each
//! step can carry a span: `gather` → `fit_all` → `build_layout_model`
//! (hybrid layout) → `solve_model_with` (outer approximation) → `execute`.
//! Inputs are the six Table III scenarios plus 1° at 40,960 nodes, each
//! gathered with a fixed set of simulator seeds, and two 1°@2,048 inputs
//! whose fitted specs take the slow OA path (the benchmark's corpus:
//! per-seed solve cost varies by up to 50x, so drawing these from the
//! workload seed would make the mix, not the program, set the figures).
//! The workload seed drives the noise of the executed run and the op
//! order. The reference is the exact hybrid-layout optimum on the fitted
//! spec, cross-checked against `layout1_oracle` where that oracle applies.

use hslb::{
    build_layout_model, fit_all, gather, layout_predicted_times, solve_model_with, CesmAllocation,
    CesmModelSpec, ComponentSpec, Layout, SolverBackend, Workload,
};
use hslb_cesm_sim::{CesmSimulator, Scenario};
use hslb_minlp::{MinlpOptions, MinlpStatus};

use crate::check;
use crate::reference;
use crate::runner::{timed_setup, Config, InputRng, Report};
use crate::single::{prime, report, run_phases, span_ms, OpResult, Solve};
use crate::tracing::Spans;

/// Benchmark points per component in the Gather step.
const SAMPLES: usize = 5;
/// Gather-step simulator seeds per scenario; the cycle is scenarios × seeds.
const CORPUS_SEEDS: [u64; 4] = [1, 2, 3, 4];
/// Gather-step simulator seeds whose 1°@2,048 fitted specs take the slow
/// OA path: about 60 ms against about 2 ms for the seeds above. About a
/// tenth of seeds do this at 1°@2,048; the corpus keeps two, so the case is
/// measured and makes up more than 5% of the ops: `latency_p95_ms` then
/// falls inside it instead of on the thin tail of the fast ops.
const SLOW_OA_SEEDS: [u64; 2] = [11, 44];

struct Input {
    /// Benchmarks the components.
    gather: CesmSimulator,
    corpus_seed: u64,
    /// Executes the allocation (workload seed).
    exec: CesmSimulator,
    counts: [Vec<u64>; 4],
}

struct Solved {
    spec: CesmModelSpec,
    alloc: CesmAllocation,
    status: MinlpStatus,
    predicted: f64,
    executed: f64,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario::one_degree(128),
        Scenario::one_degree(2048),
        Scenario::eighth_degree(8192),
        Scenario::eighth_degree(32_768),
        Scenario::eighth_degree_unconstrained(8192),
        Scenario::eighth_degree_unconstrained(32_768),
        Scenario::one_degree(40_960),
    ]
}

fn build_inputs(seed: u64) -> Vec<Input> {
    let mut rng = InputRng::new(seed, 0xCE5);
    let scenarios = scenarios();
    let corpus = CORPUS_SEEDS
        .iter()
        .flat_map(|&seed| scenarios.iter().map(move |s| (s.clone(), seed)))
        .chain(SLOW_OA_SEEDS.map(|seed| (Scenario::one_degree(2048), seed)));
    corpus
        .map(|(scenario, corpus_seed)| Input {
            counts: scenario.benchmark_counts(SAMPLES),
            gather: CesmSimulator::new(scenario.clone(), corpus_seed),
            corpus_seed,
            exec: CesmSimulator::new(scenario, rng.next_u64()),
        })
        .collect()
}

/// One pipeline run. The simulators are cloned fresh, so an input always
/// sees the same noise draws and yields the same fitted spec.
fn op(input: &Input, opts: &MinlpOptions, spans: &mut Spans) -> OpResult<Solved> {
    let mut sim = input.gather.clone();
    let data = spans.time("gather", || gather(&mut sim, &input.counts));
    let fits = spans
        .time("fit", || fit_all(&data))
        .map_err(|e| format!("fit failed: {e}"))?;
    let names = ["ice", "lnd", "atm", "ocn"];
    let comp = |c: usize| ComponentSpec {
        name: names[c].to_string(),
        model: fits[c].model,
        allowed: sim.allowed(c),
    };
    let spec = CesmModelSpec {
        ice: comp(0),
        lnd: comp(1),
        atm: comp(2),
        ocn: comp(3),
        total_nodes: sim.total_nodes() as i64,
        tsync: None,
    };
    let model = spans.time("build", || build_layout_model(&spec, Layout::Hybrid));
    let sol = spans.time("solve", || {
        solve_model_with(&model.problem, SolverBackend::OuterApproximation, opts)
    });
    let mut stats = sol.stats;
    stats.lm_steps += fits.iter().map(|f| f.lm_steps as u64).sum::<u64>();
    let solve = Solve {
        stats,
        span: spans.last(),
        parallel: false,
    };
    if sol.x.is_empty() {
        return Err(format!("no allocation (status {:?})", sol.status));
    }
    let alloc = model.allocation(&sol);
    let predicted = layout_predicted_times(&spec, Layout::Hybrid, &alloc).total;
    let executed = spans.time("execute", || {
        input.exec.clone().execute(Layout::Hybrid, &alloc).total
    });
    let solved = Solved {
        spec,
        alloc,
        status: sol.status,
        predicted,
        executed,
    };
    Ok((solved, solve))
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let (inputs, setup_s) = timed_setup(|| {
        let inputs = build_inputs(cfg.seed);
        prime(&inputs, op);
        inputs
    });
    let opts = MinlpOptions::default();
    // Inputs are deterministic, so one reference per input serves every op.
    let mut references: Vec<Option<Result<f64, String>>> = vec![None; inputs.len()];
    let runs = run_phases(cfg, &inputs, op, |i, s: &Solved| {
        if s.status != MinlpStatus::Optimal {
            return Err(format!("status {:?}", s.status));
        }
        let reference = references[i]
            .get_or_insert_with(|| reference::hybrid(&s.spec, &opts))
            .clone()?;
        let tol = check::tolerance(&opts, reference);
        let gap = check::hybrid(&s.spec, &s.alloc, reference, tol)?;
        Ok((gap, Some((s.predicted - s.executed).abs() / s.executed)))
    });
    let labels: Vec<String> = inputs
        .iter()
        .map(|i| {
            let scenario = &i.gather.scenario;
            format!(
                "{:?}@{} seed {}",
                scenario.resolution, scenario.total_nodes, i.corpus_seed
            )
        })
        .collect();
    report("cesm_pipeline", &labels, &runs, setup_s, |m, traced| {
        m.set("perfmodel.fit_ms", span_ms(traced, "fit"));
        m.set("cesm_sim.gather_ms", span_ms(traced, "gather"));
        m.set("cesm_sim.execute_ms", span_ms(traced, "execute"));
        m.set("core.build_ms", span_ms(traced, "build"));
    })
}
