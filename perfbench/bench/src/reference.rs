//! The benchmark's own exact reference for the hybrid layout (1).
//!
//! `hslb::layout1_oracle` needs every component time to decrease on its
//! domain, and declines fitted specs whose `b·n` term turns upward before
//! the machine size (several ⅛° Table III fits do). This reference needs no
//! shape assumption. For a fixed atmosphere count `na`:
//!
//! * ice and land share `na` nodes: with prefix minima `I(k)` and `L(k)`
//!   (the best time with at most `k` admissible nodes), the best split is
//!   `min_k max(I(k), L(na - k))`, the minimum of a non-increasing and a
//!   non-decreasing sequence, found at their crossing by bisection;
//! * the ocean takes the best time with at most `N - na` nodes.
//!
//! Enumerating every admissible `na` is then exact, in
//! `O(N + |A| log N)` model evaluations.

use hslb::{layout1_oracle, CesmModelSpec, ComponentSpec};
use hslb_minlp::MinlpOptions;

use crate::check;

/// The reference makespan of `spec` for the answer checks: the exact
/// optimum, cross-checked against `layout1_oracle` wherever that oracle
/// accepts the spec.
pub fn hybrid(spec: &CesmModelSpec, opts: &MinlpOptions) -> Result<f64, String> {
    let exact = hybrid_makespan(spec).ok_or("no admissible allocation exists")?;
    if let Some((_, oracle)) = layout1_oracle(spec) {
        if (oracle / exact - 1.0).abs() > check::tolerance(opts, exact) {
            return Err(format!(
                "references disagree: exact {exact}, layout1_oracle {oracle}"
            ));
        }
    }
    Ok(exact)
}

/// `best[k]`: the least time of `c` on at most `k` admissible nodes
/// (infinite when none fits), for `k` in `0..=n`.
fn prefix_minima(c: &ComponentSpec, n: i64) -> Vec<f64> {
    let mut best = Vec::with_capacity(usize::try_from(n + 1).unwrap_or(0));
    let mut running = f64::INFINITY;
    for k in 0..=n {
        if k >= 1 && c.allowed.contains(k) {
            running = running.min(c.model.eval(k as f64));
        }
        best.push(running);
    }
    best
}

/// Exact optimal makespan of the hybrid layout
/// `max(max(T_ice, T_lnd) + T_atm, T_ocn)` subject to
/// `n_ice + n_lnd <= n_atm` and `n_atm + n_ocn <= N`; `None` when no
/// admissible allocation exists.
pub fn hybrid_makespan(spec: &CesmModelSpec) -> Option<f64> {
    let n = spec.total_nodes;
    if n < 1 {
        return None;
    }
    let ice = prefix_minima(&spec.ice, n);
    let lnd = prefix_minima(&spec.lnd, n);
    let ocn = prefix_minima(&spec.ocn, n);
    let at = |v: &[f64], k: i64| usize::try_from(k).ok().and_then(|k| v.get(k).copied());
    let mut best = f64::INFINITY;
    for na in (1..=n).filter(|&k| spec.atm.allowed.contains(k)) {
        let split = |k: i64| -> f64 {
            match (at(&ice, k), at(&lnd, na - k)) {
                (Some(i), Some(l)) => i.max(l),
                _ => f64::INFINITY,
            }
        };
        // First k in 0..=na with I(k) <= L(na - k); the predicate is
        // monotone and holds at k = na, where L(0) is infinite.
        let (mut lo, mut hi) = (0, na);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let (i, l) = (at(&ice, mid), at(&lnd, na - mid));
            if i.zip(l).is_some_and(|(i, l)| i <= l) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let pair = if lo > 0 {
            split(lo).min(split(lo - 1))
        } else {
            split(lo)
        };
        let ocean = at(&ocn, n - na).unwrap_or(f64::INFINITY);
        let total = (pair + spec.atm.model.eval(na as f64)).max(ocean);
        best = best.min(total);
    }
    best.is_finite().then_some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::InputRng;
    use hslb_perfmodel::PerfModel;

    fn brute_force(spec: &CesmModelSpec) -> Option<f64> {
        let n = spec.total_nodes;
        let ok = |c: &ComponentSpec, k: i64| k >= 1 && c.allowed.contains(k);
        let t = |c: &ComponentSpec, k: i64| c.model.eval(k as f64);
        let mut best = f64::INFINITY;
        for na in (1..=n).filter(|&k| ok(&spec.atm, k)) {
            for no in (1..=n - na).filter(|&k| ok(&spec.ocn, k)) {
                for ni in (1..=na).filter(|&k| ok(&spec.ice, k)) {
                    for nl in (1..=na - ni).filter(|&k| ok(&spec.lnd, k)) {
                        let total = (t(&spec.ice, ni).max(t(&spec.lnd, nl)) + t(&spec.atm, na))
                            .max(t(&spec.ocn, no));
                        best = best.min(total);
                    }
                }
            }
        }
        best.is_finite().then_some(best)
    }

    /// A random component: an arbitrary admissible set when `set`, else a
    /// range up to the machine size.
    fn component(
        rng: &mut InputRng,
        name: &str,
        n: i64,
        monotone: bool,
        set: bool,
    ) -> ComponentSpec {
        let b = if monotone { 0.0 } else { rng.range(0.0, 3.0) };
        let model = PerfModel::new(
            rng.range(10.0, 500.0),
            b,
            rng.range(0.5, 1.2),
            rng.range(0.0, 5.0),
        );
        if !set {
            ComponentSpec::new(name, model, rng.int(1, 3) as i64, n)
        } else {
            let values: Vec<i64> = (1..=n).filter(|_| rng.range(0.0, 1.0) < 0.4).collect();
            let values = if values.is_empty() { vec![1] } else { values };
            ComponentSpec::with_set(name, model, values)
        }
    }

    /// Ice and land get admissible sets only when `sets_everywhere`:
    /// `layout1_oracle` splits the atmosphere's nodes between them over
    /// their hulls, which is exact for the machine-wide ranges every CESM
    /// scenario gives them.
    fn random_spec(seed: u64, monotone: bool, sets_everywhere: bool) -> CesmModelSpec {
        let mut rng = InputRng::new(seed, 0x0AC1E);
        let n = rng.int(4, 22) as i64;
        let set = |rng: &mut InputRng, allowed: bool| allowed && rng.range(0.0, 1.0) < 0.5;
        let (ice_set, lnd_set) = (
            set(&mut rng, sets_everywhere),
            set(&mut rng, sets_everywhere),
        );
        let (atm_set, ocn_set) = (set(&mut rng, true), set(&mut rng, true));
        CesmModelSpec {
            ice: component(&mut rng, "ice", n, monotone, ice_set),
            lnd: component(&mut rng, "lnd", n, monotone, lnd_set),
            atm: component(&mut rng, "atm", n, monotone, atm_set),
            ocn: component(&mut rng, "ocn", n, monotone, ocn_set),
            total_nodes: n,
            tsync: None,
        }
    }

    #[test]
    fn matches_brute_force_on_shapeless_models() {
        let mut feasible = 0;
        for seed in 0..300 {
            let spec = random_spec(seed, false, true);
            let (fast, slow) = (hybrid_makespan(&spec), brute_force(&spec));
            match (fast, slow) {
                (Some(f), Some(s)) => {
                    feasible += 1;
                    assert!((f - s).abs() <= 1e-12 * s.abs(), "seed {seed}: {f} vs {s}");
                }
                (None, None) => {}
                other => panic!("seed {seed}: feasibility differs {other:?}"),
            }
        }
        assert!(feasible > 100, "too few feasible cases: {feasible}");
    }

    #[test]
    fn agrees_with_layout1_oracle_on_monotone_models() {
        let mut compared = 0;
        for seed in 0..300 {
            let spec = random_spec(seed, true, false);
            if let Some((_, oracle)) = layout1_oracle(&spec) {
                compared += 1;
                let own = hybrid_makespan(&spec).expect("the oracle found an allocation");
                assert!(
                    (own - oracle).abs() <= 1e-12 * oracle,
                    "seed {seed}: {own} vs {oracle}"
                );
            }
        }
        assert!(compared > 50, "too few comparisons: {compared}");
    }

    #[test]
    fn no_allocation_on_a_machine_too_small() {
        let mut spec = random_spec(1, true, false);
        spec.ocn = ComponentSpec::with_set("ocn", PerfModel::amdahl(10.0, 1.0), [64]);
        spec.total_nodes = 16;
        assert_eq!(hybrid_makespan(&spec), None);
    }
}
