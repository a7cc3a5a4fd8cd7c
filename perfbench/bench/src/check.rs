//! Answer checks against each workload's exact reference.
//!
//! Every check recomputes the makespan of the returned allocation from the
//! spec's own performance models, verifies the allocation is admissible,
//! and compares with the reference makespan. The gap
//! `predicted / reference - 1` must lie within the solver's optimality
//! tolerance in both directions: above it the solver missed the optimum,
//! below it the allocation beats the "exact" reference, so one of the two
//! is wrong.

use hslb::{AllowedNodes, CesmAllocation, CesmModelSpec, ComponentSpec, FlatSpec};
use hslb_minlp::MinlpOptions;

/// The tolerance the solver promises: `rel_gap` relative plus `abs_gap`
/// absolute, expressed relative to `reference`.
pub fn tolerance(opts: &MinlpOptions, reference: f64) -> f64 {
    opts.rel_gap + opts.abs_gap / reference.abs().max(f64::MIN_POSITIVE)
}

fn admissible(c: &ComponentSpec, n: u64) -> bool {
    let Ok(n) = i64::try_from(n) else {
        return false;
    };
    match &c.allowed {
        AllowedNodes::Range { min, max } => (*min..=*max).contains(&n),
        AllowedNodes::Set(values) => values.contains(&n),
    }
}

fn time(c: &ComponentSpec, n: u64) -> f64 {
    c.model.eval(n as f64)
}

/// The gap `predicted / reference - 1`: `Ok` when within `tol` either way,
/// `Err` with the reason when not.
fn judge(predicted: f64, reference: f64, tol: f64) -> Result<f64, String> {
    if !(predicted.is_finite() && reference.is_finite() && reference > 0.0) {
        return Err(format!(
            "non-finite makespan: predicted {predicted}, reference {reference}"
        ));
    }
    let gap = predicted / reference - 1.0;
    if gap.abs() > tol {
        return Err(format!(
            "makespan {predicted} vs reference {reference}: gap {gap:e} beyond {tol:e}"
        ));
    }
    Ok(gap)
}

/// Checks a flat min-max allocation (`nodes` aligned with
/// `spec.components`) against the reference makespan. Returns the gap.
pub fn flat(spec: &FlatSpec, nodes: &[u64], reference: f64, tol: f64) -> Result<f64, String> {
    if nodes.len() != spec.components.len() {
        return Err(format!(
            "{} node counts for {} components",
            nodes.len(),
            spec.components.len()
        ));
    }
    for (c, &n) in spec.components.iter().zip(nodes) {
        if !admissible(c, n) {
            return Err(format!("{}: {n} nodes is not admissible", c.name));
        }
    }
    let used: u64 = nodes.iter().sum();
    if i64::try_from(used).map_or(true, |u| u > spec.total_nodes) {
        return Err(format!("{used} nodes used of {}", spec.total_nodes));
    }
    let predicted = spec
        .components
        .iter()
        .zip(nodes)
        .map(|(c, &n)| time(c, n))
        .fold(0.0f64, f64::max);
    judge(predicted, reference, tol)
}

/// Checks a layout-1 (hybrid) CESM allocation against the reference
/// makespan: `max(max(T_ice, T_lnd) + T_atm, T_ocn)` with ice and land
/// sharing the atmosphere's nodes. Returns the gap.
pub fn hybrid(
    spec: &CesmModelSpec,
    alloc: &CesmAllocation,
    reference: f64,
    tol: f64,
) -> Result<f64, String> {
    for (c, n) in [
        (&spec.ice, alloc.ice),
        (&spec.lnd, alloc.lnd),
        (&spec.atm, alloc.atm),
        (&spec.ocn, alloc.ocn),
    ] {
        if !admissible(c, n) {
            return Err(format!("{}: {n} nodes is not admissible", c.name));
        }
    }
    if alloc.ice + alloc.lnd > alloc.atm {
        return Err(format!(
            "ice {} + lnd {} exceed atm {}",
            alloc.ice, alloc.lnd, alloc.atm
        ));
    }
    let used = alloc.atm + alloc.ocn;
    if i64::try_from(used).map_or(true, |u| u > spec.total_nodes) {
        return Err(format!("{used} nodes used of {}", spec.total_nodes));
    }
    let predicted = (time(&spec.ice, alloc.ice).max(time(&spec.lnd, alloc.lnd))
        + time(&spec.atm, alloc.atm))
    .max(time(&spec.ocn, alloc.ocn));
    judge(predicted, reference, tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hslb::{layout1_oracle, solve_minmax_waterfill, Objective};
    use hslb_perfmodel::PerfModel;

    fn flat_spec() -> FlatSpec {
        FlatSpec {
            components: vec![
                ComponentSpec::new("big", PerfModel::amdahl(300.0, 0.0), 1, 12),
                ComponentSpec::new("small", PerfModel::amdahl(100.0, 0.0), 1, 12),
            ],
            total_nodes: 12,
            objective: Objective::MinMax,
        }
    }

    #[test]
    fn flat_check_accepts_the_optimum_and_rejects_a_perturbed_allocation() {
        let spec = flat_spec();
        let reference = solve_minmax_waterfill(&spec).expect("monotone spec");
        let tol = tolerance(&MinlpOptions::default(), reference.makespan());
        assert_eq!(reference.nodes, vec![9, 3]);
        let gap = flat(&spec, &reference.nodes, reference.makespan(), tol).expect("optimum");
        assert!(gap.abs() <= tol);
        // One node moved off the bottleneck: a worse makespan must fail.
        assert!(flat(&spec, &[8, 4], reference.makespan(), tol).is_err());
        // Beating the reference is a failure too (one side is wrong).
        assert!(flat(&spec, &[9, 3], reference.makespan() * 1.01, tol).is_err());
        // Inadmissible or over-budget allocations fail before any gap.
        assert!(flat(&spec, &[10, 3], reference.makespan(), tol).is_err());
        assert!(flat(&spec, &[0, 12], reference.makespan(), tol).is_err());
        assert!(flat(&spec, &[9], reference.makespan(), tol).is_err());
    }

    fn cesm_spec(total: i64) -> CesmModelSpec {
        CesmModelSpec {
            ice: ComponentSpec::new("ice", PerfModel::amdahl(7774.0, 11.8), 1, total),
            lnd: ComponentSpec::new("lnd", PerfModel::amdahl(1495.0, 1.5), 1, total),
            atm: ComponentSpec::new("atm", PerfModel::amdahl(27180.0, 44.0), 1, total),
            ocn: ComponentSpec::with_set(
                "ocn",
                PerfModel::amdahl(7754.0, 41.8),
                (1..=total / 2).map(|k| 2 * k),
            ),
            total_nodes: total,
            tsync: None,
        }
    }

    #[test]
    fn hybrid_check_accepts_the_optimum_and_rejects_a_perturbed_allocation() {
        let spec = cesm_spec(128);
        let (alloc, reference) = layout1_oracle(&spec).expect("feasible");
        let tol = tolerance(&MinlpOptions::default(), reference);
        assert!(hybrid(&spec, &alloc, reference, tol).is_ok());
        // Two atmosphere nodes handed to the ocean: still feasible, worse.
        let perturbed = CesmAllocation {
            atm: alloc.atm - 2,
            ocn: alloc.ocn + 2,
            lnd: alloc.lnd - 2,
            ..alloc
        };
        assert!(hybrid(&spec, &perturbed, reference, tol).is_err());
        // Structural violations.
        let overfull = CesmAllocation {
            ice: alloc.atm,
            ..alloc
        };
        assert!(hybrid(&spec, &overfull, reference, tol).is_err());
        let odd_ocean = CesmAllocation {
            ocn: alloc.ocn - 1,
            ..alloc
        };
        assert!(hybrid(&spec, &odd_ocean, reference, tol).is_err());
    }

    #[test]
    fn tolerance_adds_the_absolute_gap() {
        let opts = MinlpOptions::default();
        assert!(tolerance(&opts, 1.0) > opts.rel_gap);
        assert!(tolerance(&opts, 1e9) - opts.rel_gap < 1e-12);
    }
}
