//! `fmo_flat`: the title paper's path, as `hslb-cli flat` takes it.
//!
//! Each op is `generate_cluster` → `FmoSimulator::hslb_spec` (gather and
//! class-based fit) → `build_flat_model` → `solve_model_with` (outer
//! approximation) → `execute_static`, on 32, 64 and 128 fragments at
//! heterogeneity 0.5, 0.7 and 0.9 with 8 nodes per fragment (nine inputs:
//! an odd cycle keeps the median inside one input's latency class instead
//! of on the gap between two). Clusters and the
//! benchmark noise come from a fixed set of seeds (the benchmark's corpus;
//! per-cluster solve cost varies by up to 20x), while the workload seed
//! drives the noise of the executed run and the op order. The reference is
//! `solve_minmax_waterfill` on the same fitted spec.

use hslb::{build_flat_model, solve_minmax_waterfill, solve_model_with, FlatSpec, SolverBackend};
use hslb_fmo_sim::{generate_cluster, FmoSimulator, GroupAssignment};
use hslb_minlp::{MinlpOptions, MinlpStatus};

use crate::check;
use crate::runner::{timed_setup, Config, InputRng, Report};
use crate::single::{prime, report, run_phases, span_ms, OpResult, Solve};
use crate::tracing::Spans;

/// Benchmark points per fragment class in `hslb_spec`.
const SAMPLES: usize = 5;
const NODES_PER_FRAGMENT: u64 = 8;
const FRAGMENTS: [usize; 3] = [32, 64, 128];
const HETEROGENEITY: [f64; 3] = [0.5, 0.7, 0.9];
/// Cluster seeds per (fragments, heterogeneity) cell.
const CORPUS_SEEDS: [u64; 1] = [1];

struct Input {
    fragments: usize,
    heterogeneity: f64,
    /// Cluster and benchmark-noise seed (corpus).
    cluster_seed: u64,
    /// Executed-run noise seed (workload seed).
    exec_seed: u64,
}

struct Solved {
    spec: FlatSpec,
    nodes: Vec<u64>,
    status: MinlpStatus,
    predicted: f64,
    executed: f64,
}

fn build_inputs(seed: u64) -> Vec<Input> {
    let mut rng = InputRng::new(seed, 0xF40);
    let mut inputs = Vec::new();
    for cluster_seed in CORPUS_SEEDS {
        for fragments in FRAGMENTS {
            for heterogeneity in HETEROGENEITY {
                inputs.push(Input {
                    fragments,
                    heterogeneity,
                    cluster_seed,
                    exec_seed: rng.next_u64(),
                });
            }
        }
    }
    inputs
}

fn op(input: &Input, opts: &MinlpOptions, spans: &mut Spans) -> OpResult<Solved> {
    let cluster = spans.time("cluster", || {
        generate_cluster(input.fragments, input.heterogeneity, input.cluster_seed)
    });
    let total = input.fragments as u64 * NODES_PER_FRAGMENT;
    let mut sim = FmoSimulator::new(cluster.clone(), total, input.cluster_seed);
    let spec = spans.time("spec", || sim.hslb_spec(SAMPLES));
    let model = spans.time("build", || build_flat_model(&spec));
    let sol = spans.time("solve", || {
        solve_model_with(&model.problem, SolverBackend::OuterApproximation, opts)
    });
    let solve = Solve {
        stats: sol.stats,
        span: spans.last(),
        parallel: false,
    };
    if sol.x.is_empty() {
        return Err(format!("no allocation (status {:?})", sol.status));
    }
    let alloc = model.allocation(&spec, &sol);
    let assignment = GroupAssignment {
        nodes: alloc.nodes.clone(),
    };
    let run = spans.time("execute", || {
        FmoSimulator::new(cluster, total, input.exec_seed).execute_static(&assignment)
    });
    let solved = Solved {
        predicted: alloc.makespan(),
        executed: run.monomer_time,
        nodes: alloc.nodes,
        status: sol.status,
        spec,
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
    let mut references: Vec<Option<Option<f64>>> = vec![None; inputs.len()];
    let runs = run_phases(cfg, &inputs, op, |i, s: &Solved| {
        if s.status != MinlpStatus::Optimal {
            return Err(format!("status {:?}", s.status));
        }
        let reference = references[i]
            .get_or_insert_with(|| solve_minmax_waterfill(&s.spec).map(|a| a.makespan()))
            .ok_or("solve_minmax_waterfill declined the fitted spec")?;
        let tol = check::tolerance(&opts, reference);
        let gap = check::flat(&s.spec, &s.nodes, reference, tol)?;
        Ok((gap, Some((s.predicted - s.executed).abs() / s.executed)))
    });
    let labels: Vec<String> = inputs
        .iter()
        .map(|i| format!("{}x{}", i.fragments, i.heterogeneity))
        .collect();
    report("fmo_flat", &labels, &runs, setup_s, |m, traced| {
        // `hslb_spec` is the gather-and-fit step of the FMO path.
        m.set("fmo_sim.spec_ms", span_ms(traced, "spec"));
        m.set("fmo_sim.execute_ms", span_ms(traced, "execute"));
        m.set("core.build_ms", span_ms(traced, "build"));
    })
}
