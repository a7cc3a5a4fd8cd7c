//! `e7_tree`: NLP-based branch and bound at the §III-E scale.
//!
//! Each op is one `solve_model_with` call on a true-spec layout-1 model
//! (1° and ⅛° scenarios up to 40,960 nodes). Ops alternate `NlpBnb` with
//! `ParallelBnb` at two threads on the same instance, so serial and
//! parallel cost are measured on identical trees. The instances are fixed
//! (tree size swings 2x when the node budget moves by 0.3%); the workload
//! seed sets the op order. The reference is the exact hybrid-layout
//! optimum, cross-checked against `layout1_oracle`. The fit and LP layers
//! do no work here.

use std::time::Instant;

use hslb::{
    build_layout_model, solve_model_with, CesmModelSpec, ComponentSpec, Layout, LayoutModel,
    SolverBackend,
};
use hslb_cesm_sim::truth::NAMES;
use hslb_cesm_sim::Scenario;
use hslb_minlp::{MinlpOptions, MinlpStatus};

use crate::check;
use crate::reference;
use crate::runner::{ratio, timed_setup, Config, Report};
use crate::single::{mean, prime, report, run_phases, OpResult, PhaseOut, Solve};
use crate::tracing::Spans;

/// Threads of the parallel backend.
const PARALLEL_THREADS: usize = 2;

struct Instance {
    label: String,
    spec: CesmModelSpec,
    model: LayoutModel,
}

struct Built {
    instances: Vec<Instance>,
    build_ms: f64,
}

/// Spec from the calibrated component surfaces (no fitting noise).
fn true_spec(scenario: &Scenario) -> CesmModelSpec {
    let comp = |c: usize| ComponentSpec {
        name: NAMES[c].to_string(),
        model: scenario.truth.models[c],
        allowed: scenario.allowed(c),
    };
    CesmModelSpec {
        ice: comp(0),
        lnd: comp(1),
        atm: comp(2),
        ocn: comp(3),
        total_nodes: scenario.total_nodes as i64,
        tsync: None,
    }
}

/// The instances: 1° and ⅛° layout-1 models at the §III-E scale. Two
/// large 1° trees carry most of the time and set the tail; two small trees
/// fill the fast end. The median of the op mix falls between the serial
/// and parallel solves of 1°@1,024, whose tree is small enough that the
/// two cost the same, so the median does not jump between backends.
fn scenarios() -> [(&'static str, Scenario); 5] {
    [
        ("1deg", Scenario::one_degree(40_960)),
        ("1deg", Scenario::one_degree(8192)),
        ("1deg", Scenario::one_degree(1024)),
        ("1deg", Scenario::one_degree(512)),
        ("8th", Scenario::eighth_degree(40_960)),
    ]
}

fn build() -> Built {
    let scenarios = scenarios();
    let mut build_ms = 0.0;
    let instances = scenarios
        .iter()
        .map(|(tag, scenario)| {
            let spec = true_spec(scenario);
            let t0 = Instant::now();
            let model = build_layout_model(&spec, Layout::Hybrid);
            build_ms += t0.elapsed().as_secs_f64() * 1e3;
            Instance {
                label: format!("{tag}@{}", scenario.total_nodes),
                spec,
                model,
            }
        })
        .collect::<Vec<_>>();
    Built {
        build_ms: build_ms / instances.len() as f64,
        instances,
    }
}

struct Input {
    instance: usize,
    parallel: bool,
}

fn inputs(built: &Built) -> Vec<Input> {
    (0..built.instances.len())
        .flat_map(|instance| [false, true].map(|parallel| Input { instance, parallel }))
        .collect()
}

struct Solved {
    alloc: hslb::CesmAllocation,
    status: MinlpStatus,
}

fn op(built: &Built, input: &Input, opts: &MinlpOptions, spans: &mut Spans) -> OpResult<Solved> {
    let model = &built.instances[input.instance].model;
    let (backend, opts) = if input.parallel {
        let opts = MinlpOptions {
            threads: PARALLEL_THREADS,
            ..opts.clone()
        };
        (SolverBackend::ParallelBnb, opts)
    } else {
        (SolverBackend::NlpBnb, opts.clone())
    };
    let sol = spans.time("solve", || solve_model_with(&model.problem, backend, &opts));
    let solve = Solve {
        stats: sol.stats,
        span: spans.last(),
        parallel: input.parallel,
    };
    if sol.x.is_empty() {
        return Err(format!("no allocation (status {:?})", sol.status));
    }
    let solved = Solved {
        alloc: model.allocation(&sol),
        status: sol.status,
    };
    Ok((solved, solve))
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let (built, setup_s) = timed_setup(|| {
        let built = build();
        prime(&inputs(&built), |i, o, s| op(&built, i, o, s));
        built
    });
    let inputs = inputs(&built);
    let opts = MinlpOptions::default();
    let references: Vec<Result<f64, String>> = built
        .instances
        .iter()
        .map(|inst| reference::hybrid(&inst.spec, &opts))
        .collect();
    let runs = run_phases(
        cfg,
        &inputs,
        |i, o, s| op(&built, i, o, s),
        |i, s: &Solved| {
            if s.status != MinlpStatus::Optimal {
                return Err(format!("status {:?}", s.status));
            }
            let instance = inputs[i].instance;
            let reference = references[instance].clone()?;
            let tol = check::tolerance(&opts, reference);
            let gap = check::hybrid(&built.instances[instance].spec, &s.alloc, reference, tol)?;
            Ok((gap, None))
        },
    );

    // Mean latency per op of each backend: whole cycles, so both backends
    // cover the same instances equally often.
    let backend_ms = |out: &PhaseOut, parallel: bool| {
        let lat: Vec<f64> = out
            .records
            .iter()
            .zip(&out.phase.latencies_ms)
            .filter(|((i, _), _)| inputs[*i].parallel == parallel)
            .map(|(_, &l)| l)
            .collect();
        mean(&lat)
    };
    // Parallel over serial wall time, from the untraced cycles.
    let (serial_ms, parallel_ms) = (
        backend_ms(&runs.untraced, false),
        backend_ms(&runs.untraced, true),
    );
    let labels: Vec<String> = inputs
        .iter()
        .map(|i| {
            let backend = if i.parallel { "parallel" } else { "serial" };
            format!("{} {backend}", built.instances[i.instance].label)
        })
        .collect();
    let mut rep = report("e7_tree", &labels, &runs, setup_s, |m, _| {
        m.set("core.build_ms", built.build_ms);
        m.set("minlp.parallel_over_serial", ratio(parallel_ms, serial_ms));
    })?;
    rep.notes.push(format!(
        "e7_tree: parallel/serial wall {:.3}",
        ratio(parallel_ms, serial_ms)
    ));
    if let Some(traced) = &runs.traced {
        let overhead = |parallel| {
            let untraced = backend_ms(&runs.untraced, parallel);
            100.0 * (backend_ms(traced, parallel) / untraced - 1.0)
        };
        rep.notes.push(format!(
            "e7_tree: trace overhead on mean op time, serial {:.2}%, parallel {:.2}%",
            overhead(false),
            overhead(true)
        ));
    }
    Ok(rep)
}
