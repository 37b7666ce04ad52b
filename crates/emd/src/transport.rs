//! The transportation problem: EMD as minimum-cost mass transport.
//!
//! [`TransportProblem`] is the general supplies/demands/cost formulation;
//! [`solve_emd`] is the convenience wrapper the rest of the workspace uses
//! (equal-length mass vectors plus a [`GroundDistance`]), and
//! [`emd_cost_in`] its cost-only hot path.
//!
//! Every solve runs one pipeline: compact both sides onto their
//! non-empty supports inside a [`SolveScratch`], materialise the flat
//! row-major compacted cost view, and route the mass on the
//! transport-specialised `bipartite` kernel. [`emd_cost_in`] reuses a
//! caller-owned scratch, which makes a stream of same-sized solves
//! allocation-free and enables the round-1 warm start between
//! consecutive pairs that share a support set; [`solve_emd`] and
//! [`TransportProblem::solve`] spin up a fresh one. Both paths produce
//! bit-identical results. The transportation simplex in
//! [`crate::simplex`] is the independent oracle the tests check this
//! pipeline against.

use std::mem;

use crate::arena::SolveScratch;
use crate::ground::GroundDistance;
use crate::{EmdError, MASS_EPS};

/// A transportation-problem instance: move `supplies` to `demands` at
/// minimum total cost, where moving one unit from supply `i` to demand `j`
/// costs `cost[i][j]`.
#[derive(Debug, Clone)]
pub struct TransportProblem {
    /// Supply at each source.
    pub supplies: Vec<f64>,
    /// Demand at each sink.
    pub demands: Vec<f64>,
    /// Dense cost matrix, `supplies.len()` × `demands.len()`.
    pub costs: Vec<Vec<f64>>,
}

/// An optimal transport plan.
#[derive(Debug, Clone, PartialEq)]
pub struct TransportSolution {
    /// Total transport cost (the EMD when inputs are unit-mass).
    pub cost: f64,
    /// Non-zero flows as `(supply index, demand index, amount)`.
    pub flows: Vec<(usize, usize, f64)>,
}

impl TransportProblem {
    /// Validate shapes, signs and mass balance.
    ///
    /// # Errors
    ///
    /// The usual [`EmdError`] validation variants.
    pub fn validate(&self) -> Result<(), EmdError> {
        crate::validate_masses(&self.supplies)?;
        crate::validate_masses(&self.demands)?;
        if self.supplies.is_empty() || self.demands.is_empty() {
            return Err(EmdError::Empty);
        }
        if self.costs.len() != self.supplies.len() {
            return Err(EmdError::LengthMismatch {
                left: self.costs.len(),
                right: self.supplies.len(),
            });
        }
        for row in &self.costs {
            if row.len() != self.demands.len() {
                return Err(EmdError::LengthMismatch {
                    left: row.len(),
                    right: self.demands.len(),
                });
            }
            for (j, &c) in row.iter().enumerate() {
                if !c.is_finite() {
                    return Err(EmdError::NonFinite { index: j, value: c });
                }
                if c < 0.0 {
                    return Err(EmdError::Negative { index: j, value: c });
                }
            }
        }
        let (ts, td) = (crate::total(&self.supplies), crate::total(&self.demands));
        if (ts - td).abs() > MASS_EPS * ts.max(td).max(1.0) {
            return Err(EmdError::MassMismatch {
                left: ts,
                right: td,
            });
        }
        Ok(())
    }

    /// Solve to optimality: zero-mass rows and columns are compacted
    /// away and the rest is routed on the transport kernel.
    ///
    /// # Errors
    ///
    /// Validation failures, or [`EmdError::SolverStalled`] on internal
    /// failure (never on valid input).
    pub fn solve(&self) -> Result<TransportSolution, EmdError> {
        self.validate()?;
        let mut scratch = SolveScratch::new();
        // `validate` already walked every cost and balanced the full
        // instance; an all-zero instance compacts to nothing and routes
        // zero flow at zero cost.
        let warm = compact(&mut scratch, &self.supplies, &self.demands, |i, j| {
            self.costs[i][j]
        });
        let cost = kernel_solve(&mut scratch, warm)?;
        Ok(TransportSolution {
            cost,
            flows: plan(&scratch),
        })
    }
}

/// Compact `a`/`b` onto their non-empty supports inside `scratch` and
/// materialise the flat row-major compacted cost view from `cost`
/// (indexed by original positions). Either support may come out empty;
/// callers decide whether that is an error. Returns whether the instance
/// matches the previous solve's supports and costs exactly (the
/// warm-start precondition).
fn compact(
    scratch: &mut SolveScratch,
    a: &[f64],
    b: &[f64],
    cost: impl Fn(usize, usize) -> f64,
) -> bool {
    scratch.note_use();
    let had_warm = scratch.warm_valid;
    scratch.warm_valid = false;
    // Retire the previous instance into the warm-start comparands; the
    // swapped-out buffers become this solve's scratch space.
    mem::swap(&mut scratch.srcs, &mut scratch.prev_srcs);
    mem::swap(&mut scratch.dsts, &mut scratch.prev_dsts);
    mem::swap(&mut scratch.costs, &mut scratch.prev_costs);
    // Restrict to non-empty bins to keep instances small: typical score
    // histograms are sparse for small partitions.
    scratch.srcs.clear();
    scratch.supplies.clear();
    for (i, &x) in a.iter().enumerate() {
        if x > MASS_EPS {
            scratch.srcs.push(i);
            scratch.supplies.push(x);
        }
    }
    scratch.dsts.clear();
    scratch.demands.clear();
    for (j, &x) in b.iter().enumerate() {
        if x > MASS_EPS {
            scratch.dsts.push(j);
            scratch.demands.push(x);
        }
    }
    let SolveScratch {
        srcs, dsts, costs, ..
    } = &mut *scratch;
    costs.clear();
    costs.reserve(srcs.len() * dsts.len());
    for &i in srcs.iter() {
        for &j in dsts.iter() {
            costs.push(cost(i, j));
        }
    }
    had_warm
        && scratch.srcs == scratch.prev_srcs
        && scratch.dsts == scratch.prev_dsts
        && scratch.costs == scratch.prev_costs
}

/// [`compact`] `a`/`b` under `ground` and validate — mirroring
/// [`TransportProblem::validate`] on the compacted instance, except that
/// the O(m·n) cost walk is skipped for grounds that guarantee their costs
/// up front ([`GroundDistance::prevalidated`]). Returns the warm-start
/// flag from [`compact`].
fn prepare_compacted<G: GroundDistance + ?Sized>(
    scratch: &mut SolveScratch,
    a: &[f64],
    b: &[f64],
    ground: &G,
) -> Result<bool, EmdError> {
    if a.len() != b.len() {
        return Err(EmdError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    if a.len() != ground.size() {
        return Err(EmdError::LengthMismatch {
            left: a.len(),
            right: ground.size(),
        });
    }
    let warm = compact(scratch, a, b, |i, j| ground.cost(i, j));
    if scratch.srcs.is_empty() || scratch.dsts.is_empty() {
        crate::validate_masses(a)?;
        crate::validate_masses(b)?;
        return Err(EmdError::ZeroMass);
    }
    crate::validate_masses(&scratch.supplies)?;
    crate::validate_masses(&scratch.demands)?;
    if !ground.prevalidated() {
        let n = scratch.dsts.len();
        for (k, &c) in scratch.costs.iter().enumerate() {
            if !c.is_finite() {
                return Err(EmdError::NonFinite {
                    index: k % n,
                    value: c,
                });
            }
            if c < 0.0 {
                return Err(EmdError::Negative {
                    index: k % n,
                    value: c,
                });
            }
        }
    }
    let (ts, td) = (
        crate::total(&scratch.supplies),
        crate::total(&scratch.demands),
    );
    if (ts - td).abs() > MASS_EPS * ts.max(td).max(1.0) {
        return Err(EmdError::MassMismatch {
            left: ts,
            right: td,
        });
    }
    Ok(warm)
}

/// Route the compacted instance in `scratch` on the transport kernel,
/// replaying the previous round-1 Dijkstra when `warm` holds. Leaves the
/// kernel's flow matrix populated so [`plan`] can read it back.
fn kernel_solve(scratch: &mut SolveScratch, warm: bool) -> Result<f64, EmdError> {
    let cost = {
        let SolveScratch {
            bip,
            supplies,
            demands,
            costs,
            stats,
            ..
        } = scratch;
        if warm {
            stats.warm_starts += 1;
        }
        let mut want = 0.0;
        for &s in supplies.iter() {
            want += s;
        }
        let r = bip.solve(supplies, demands, costs, want, warm)?;
        if (r.flow - want).abs() > 1e-6 * want.max(1.0) {
            return Err(EmdError::SolverStalled {
                solver: "bipartite-flow (unbalanced)",
            });
        }
        r.cost
    };
    // The kernel's round-1 cache now describes this instance, whose
    // supports and costs will be swapped into `prev_*` at the next
    // compaction.
    scratch.warm_valid = true;
    Ok(cost)
}

/// The last solve's non-zero flows, mapped back to original indices.
fn plan(scratch: &SolveScratch) -> Vec<(usize, usize, f64)> {
    let mut flows = Vec::new();
    for (si, &i) in scratch.srcs.iter().enumerate() {
        for (dj, &j) in scratch.dsts.iter().enumerate() {
            let f = scratch.bip.flow_at(si, dj);
            if f > MASS_EPS {
                flows.push((i, j, f));
            }
        }
    }
    flows
}

/// The cost-only hot path: the EMD between two equal-length mass vectors
/// under `ground`, on a caller-owned workspace. Zero heap traffic once
/// the scratch has reached its steady-state size; bit-identical to
/// [`solve_emd`]'s cost.
///
/// # Errors
///
/// Validation failures as in [`TransportProblem::validate`].
pub fn emd_cost_in<G: GroundDistance + ?Sized>(
    scratch: &mut SolveScratch,
    a: &[f64],
    b: &[f64],
    ground: &G,
) -> Result<f64, EmdError> {
    let warm = prepare_compacted(scratch, a, b, ground)?;
    kernel_solve(scratch, warm)
}

/// Solve the EMD between two equal-length mass vectors under `ground`.
///
/// Both vectors must already carry (numerically) equal total mass; the
/// top-level [`crate::emd_between`] handles normalisation.
///
/// # Errors
///
/// Validation failures as in [`TransportProblem::validate`].
pub fn solve_emd<G: GroundDistance>(
    a: &[f64],
    b: &[f64],
    ground: &G,
) -> Result<TransportSolution, EmdError> {
    solve_emd_on(&mut SolveScratch::new(), a, b, ground)
}

/// [`solve_emd`] on a given workspace.
fn solve_emd_on<G: GroundDistance>(
    scratch: &mut SolveScratch,
    a: &[f64],
    b: &[f64],
    ground: &G,
) -> Result<TransportSolution, EmdError> {
    let warm = prepare_compacted(scratch, a, b, ground)?;
    let cost = kernel_solve(scratch, warm)?;
    Ok(TransportSolution {
        cost,
        flows: plan(scratch),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::GridL1;
    use crate::simplex;

    fn grid(n: usize) -> GridL1 {
        GridL1::new(0.0, 1.0, n).unwrap()
    }

    /// The transportation-simplex oracle on the dense, uncompacted
    /// instance.
    fn oracle(a: &[f64], b: &[f64], g: &impl GroundDistance) -> f64 {
        let costs: Vec<Vec<f64>> = (0..a.len())
            .map(|i| (0..b.len()).map(|j| g.cost(i, j)).collect())
            .collect();
        simplex::solve(a, b, &costs).unwrap().cost
    }

    #[test]
    fn both_solvers_agree_on_simple_instance() {
        let a = [0.5, 0.5, 0.0, 0.0];
        let b = [0.0, 0.0, 0.25, 0.75];
        let g = grid(4);
        let f = solve_emd(&a, &b, &g).unwrap().cost;
        let s = oracle(&a, &b, &g);
        assert!((f - s).abs() < 1e-9, "kernel={f} simplex={s}");
    }

    #[test]
    fn flows_conserve_mass() {
        let a = [0.3, 0.3, 0.4, 0.0];
        let b = [0.0, 0.1, 0.2, 0.7];
        let g = grid(4);
        let sol = solve_emd(&a, &b, &g).unwrap();
        let mut out = [0.0; 4];
        let mut inn = [0.0; 4];
        for (i, j, f) in &sol.flows {
            out[*i] += f;
            inn[*j] += f;
        }
        for i in 0..4 {
            assert!((out[i] - a[i]).abs() < 1e-9, "supply {i}");
            assert!((inn[i] - b[i]).abs() < 1e-9, "demand {i}");
        }
    }

    #[test]
    fn matches_closed_form_1d() {
        let a = [0.1, 0.2, 0.3, 0.4];
        let b = [0.4, 0.3, 0.2, 0.1];
        let g = grid(4);
        let exact = crate::d1::emd_1d_grid(&a, &b, 0.0, 1.0).unwrap();
        let kernel = solve_emd(&a, &b, &g).unwrap().cost;
        assert!((kernel - exact).abs() < 1e-9, "kernel={kernel}");
        let s = oracle(&a, &b, &g);
        assert!((s - exact).abs() < 1e-9, "simplex={s}");
    }

    #[test]
    fn unbalanced_problem_rejected() {
        let p = TransportProblem {
            supplies: vec![1.0],
            demands: vec![2.0],
            costs: vec![vec![1.0]],
        };
        assert!(matches!(p.solve(), Err(EmdError::MassMismatch { .. })));
    }

    #[test]
    fn ragged_cost_matrix_rejected() {
        let p = TransportProblem {
            supplies: vec![1.0, 1.0],
            demands: vec![2.0],
            costs: vec![vec![1.0], vec![]],
        };
        assert!(matches!(p.solve(), Err(EmdError::LengthMismatch { .. })));
    }

    #[test]
    fn zero_mass_rejected() {
        let g = grid(2);
        assert!(matches!(
            solve_emd(&[0.0, 0.0], &[1.0, 0.0], &g),
            Err(EmdError::ZeroMass)
        ));
    }

    #[test]
    fn identical_histograms_cost_zero() {
        let a = [0.25, 0.25, 0.25, 0.25];
        let g = grid(4);
        assert!(solve_emd(&a, &a, &g).unwrap().cost.abs() < 1e-9);
        assert!(oracle(&a, &a, &g).abs() < 1e-9);
    }

    #[test]
    fn general_transport_instance() {
        let cases = [
            // Classic 2x3 instance solvable by hand.
            // supplies: [20, 30]; demands: [10, 25, 15]
            // costs: [[2, 4, 6], [5, 1, 3]]
            // Optimal: x11=10, x13=10, x22=25, x23=5 -> 20+60+25+15 = 120.
            TransportProblem {
                supplies: vec![20.0, 30.0],
                demands: vec![10.0, 25.0, 15.0],
                costs: vec![vec![2.0, 4.0, 6.0], vec![5.0, 1.0, 3.0]],
            },
            // Rectangular with a zero-mass row and column: both are
            // compacted away before the kernel runs.
            TransportProblem {
                supplies: vec![20.0, 0.0, 30.0],
                demands: vec![10.0, 0.0, 25.0, 15.0],
                costs: vec![
                    vec![2.0, 0.5, 4.0, 6.0],
                    vec![0.0, 0.0, 0.0, 0.0],
                    vec![5.0, 0.5, 1.0, 3.0],
                ],
            },
            // Zero mass at both ends of each side, 4x2.
            TransportProblem {
                supplies: vec![0.0, 0.3, 0.7, 0.0],
                demands: vec![0.6, 0.4],
                costs: vec![
                    vec![0.0, 0.0],
                    vec![1.0, 3.0],
                    vec![2.0, 0.5],
                    vec![9.0, 9.0],
                ],
            },
            // One non-empty cell among zero rows and columns.
            TransportProblem {
                supplies: vec![0.0, 1.0, 0.0],
                demands: vec![0.0, 0.0, 1.0],
                costs: vec![vec![1.0; 3], vec![4.0, 5.0, 0.25], vec![7.0; 3]],
            },
            // All-zero: nothing survives compaction; zero flow, zero cost.
            TransportProblem {
                supplies: vec![0.0, 0.0],
                demands: vec![0.0],
                costs: vec![vec![1.0], vec![2.0]],
            },
        ];
        for (k, p) in cases.iter().enumerate() {
            let sol = p.solve().unwrap();
            let s = simplex::solve(&p.supplies, &p.demands, &p.costs).unwrap();
            assert!(
                (sol.cost - s.cost).abs() < 1e-9,
                "case {k}: kernel={} simplex={}",
                sol.cost,
                s.cost
            );
            // The plan only touches non-empty rows and columns and
            // reproduces every marginal.
            let mut out = vec![0.0; p.supplies.len()];
            let mut inn = vec![0.0; p.demands.len()];
            for &(i, j, f) in &sol.flows {
                out[i] += f;
                inn[j] += f;
            }
            for (i, &x) in p.supplies.iter().enumerate() {
                assert!((out[i] - x).abs() < 1e-9, "case {k}: supply {i}");
            }
            for (j, &x) in p.demands.iter().enumerate() {
                assert!((inn[j] - x).abs() < 1e-9, "case {k}: demand {j}");
            }
        }
        assert!((cases[0].solve().unwrap().cost - 120.0).abs() < 1e-6);
    }

    #[test]
    fn reused_scratch_plans_are_bit_identical_to_fresh() {
        // Sparse pairs, some sharing supports (warm replays), solved on
        // one long-lived scratch: cost bits and the whole plan must match
        // a fresh-scratch solve.
        let pairs: [([f64; 6], [f64; 6]); 5] = [
            (
                [0.5, 0.0, 0.5, 0.0, 0.0, 0.0],
                [0.0, 0.25, 0.0, 0.0, 0.75, 0.0],
            ),
            (
                [0.2, 0.0, 0.8, 0.0, 0.0, 0.0],
                [0.0, 0.6, 0.0, 0.0, 0.4, 0.0],
            ),
            (
                [0.2, 0.0, 0.8, 0.0, 0.0, 0.0],
                [0.0, 0.6, 0.0, 0.0, 0.4, 0.0],
            ),
            (
                [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
                [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            ),
            (
                [0.1, 0.2, 0.3, 0.1, 0.2, 0.1],
                [0.3, 0.1, 0.1, 0.2, 0.1, 0.2],
            ),
        ];
        let g = grid(6);
        let mut scratch = SolveScratch::new();
        for (a, b) in &pairs {
            let fresh = solve_emd(a, b, &g).unwrap();
            let reused = solve_emd_on(&mut scratch, a, b, &g).unwrap();
            assert_eq!(fresh.cost.to_bits(), reused.cost.to_bits());
            assert_eq!(fresh.flows, reused.flows);
        }
        assert_eq!(scratch.stats().warm_starts, 2);
    }
}
