//! Transportation simplex (north-west-corner start + MODI pivoting).
//!
//! An entirely independent exact solver for the transportation problem:
//! the differential-testing oracle the tests and benches check the
//! production transport kernel against. No production path calls it.
//!
//! The implementation follows the classical tableau method:
//!
//! 1. Build a basic feasible solution with the north-west-corner rule,
//!    keeping exactly `m + n - 1` basis cells (degenerate cells carry zero
//!    flow).
//! 2. Compute dual potentials `u`, `v` from the basis spanning tree.
//! 3. Find the non-basic cell with the most negative reduced cost; if none
//!    exists the plan is optimal.
//! 4. Pivot around the unique cycle the entering cell closes in the basis
//!    tree, remove the leaving cell, repeat.
//!
//! All working storage lives in `SimplexScratch`: the basis, the
//! `in_basis` membership bitmap (maintained incrementally across pivots
//! instead of being rebuilt every iteration), one shared basis-tree
//! adjacency (built once per MODI iteration and used by both the
//! potential solve and the cycle search), and the DFS/BFS scratch.

use crate::{EmdError, TransportSolution, MASS_EPS};

/// Reduced costs above `-OPT_EPS` are considered non-improving.
const OPT_EPS: f64 = 1e-10;

/// Working storage for the transportation simplex.
#[derive(Debug, Clone, Default)]
struct SimplexScratch {
    /// Basis cells `(i, j, flow)` — exactly `m + n - 1` entries.
    basis: Vec<(usize, usize, f64)>,
    /// Working copies of supplies/demands for the north-west corner.
    s: Vec<f64>,
    d: Vec<f64>,
    /// Dual potentials.
    u: Vec<f64>,
    v: Vec<f64>,
    /// `m * n` basis-membership bitmap, maintained across pivots.
    in_basis: Vec<bool>,
    /// Basis-tree adjacency over bipartite nodes (rows `0..m`, columns
    /// `m..m + n`); entries are `(next node, basis index)`. Built once
    /// per MODI iteration, shared by the potential DFS and the cycle
    /// BFS.
    adj: Vec<Vec<(usize, usize)>>,
    /// Live adjacency row count (rows beyond it are left clean).
    adj_live: usize,
    seen: Vec<bool>,
    stack: Vec<usize>,
    /// BFS predecessors `(prev node, basis index)`; `usize::MAX` = unset.
    prev: Vec<(usize, usize)>,
    queue: std::collections::VecDeque<usize>,
    path: Vec<usize>,
}

impl SimplexScratch {
    /// Clear and rebuild the shared basis-tree adjacency from the
    /// current basis.
    fn rebuild_adj(&mut self, m: usize, n: usize) {
        let nodes = m + n;
        let dirty = self.adj_live.min(self.adj.len());
        for row in self.adj.iter_mut().take(dirty) {
            row.clear();
        }
        if self.adj.len() < nodes {
            self.adj.resize_with(nodes, Vec::new);
        }
        self.adj_live = nodes;
        for (bi, &(i, j, _)) in self.basis.iter().enumerate() {
            self.adj[i].push((m + j, bi));
            self.adj[m + j].push((i, bi));
        }
    }
}

/// Solve a balanced transportation problem to optimality.
///
/// `supplies` and `demands` must be non-negative with equal totals, and
/// `costs` must be `supplies.len()` × `demands.len()`; the caller
/// validates this (see [`crate::TransportProblem::validate`]).
///
/// # Errors
///
/// [`EmdError::SolverStalled`] if pivoting exceeds its iteration budget
/// (cycling); does not occur on validated inputs in practice.
pub fn solve(
    supplies: &[f64],
    demands: &[f64],
    costs: &[Vec<f64>],
) -> Result<TransportSolution, EmdError> {
    let mut scratch = SimplexScratch::default();
    let cost = optimise(&mut scratch, supplies, demands, &|i, j| costs[i][j])?;
    let flows: Vec<_> = scratch
        .basis
        .iter()
        .copied()
        .filter(|&(_, _, f)| f > MASS_EPS)
        .collect();
    Ok(TransportSolution { cost, flows })
}

/// Run NW-corner + MODI to optimality, leaving the optimal basis in
/// `scratch.basis`, and return the optimal cost.
fn optimise(
    scratch: &mut SimplexScratch,
    supplies: &[f64],
    demands: &[f64],
    cost: &impl Fn(usize, usize) -> f64,
) -> Result<f64, EmdError> {
    let m = supplies.len();
    let n = demands.len();
    debug_assert!(m > 0 && n > 0);

    // --- Phase 1: north-west-corner basic feasible solution. ---
    scratch.basis.clear();
    scratch.basis.reserve(m + n - 1);
    {
        let s = &mut scratch.s;
        let d = &mut scratch.d;
        s.clear();
        s.extend_from_slice(supplies);
        d.clear();
        d.extend_from_slice(demands);
        let (mut i, mut j) = (0usize, 0usize);
        loop {
            let q = s[i].min(d[j]);
            scratch.basis.push((i, j, q));
            s[i] -= q;
            d[j] -= q;
            if i == m - 1 && j == n - 1 {
                break;
            }
            // Advance exactly one index per step so the basis stays a tree
            // with m + n - 1 cells even under degeneracy (q exhausts both).
            if s[i] <= MASS_EPS && i < m - 1 {
                i += 1;
            } else {
                j += 1;
            }
        }
    }
    debug_assert_eq!(scratch.basis.len(), m + n - 1);

    // Basis membership, maintained incrementally across pivots instead of
    // being rebuilt from the basis every iteration.
    scratch.in_basis.clear();
    scratch.in_basis.resize(m * n, false);
    for &(i, j, _) in &scratch.basis {
        scratch.in_basis[i * n + j] = true;
    }

    // --- Phase 2: MODI iterations. ---
    let max_iters = 64 * (m + n) * (m + n) + 256;
    for _ in 0..max_iters {
        // One adjacency build serves both the potential solve and the
        // cycle search this iteration.
        scratch.rebuild_adj(m, n);
        potentials(scratch, m, n, cost)?;

        // Entering cell: most negative reduced cost among non-basic cells.
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..m {
            for j in 0..n {
                if scratch.in_basis[i * n + j] {
                    continue;
                }
                let rc = cost(i, j) - scratch.u[i] - scratch.v[j];
                if rc < -OPT_EPS && best.is_none_or(|(_, _, b)| rc < b) {
                    best = Some((i, j, rc));
                }
            }
        }
        let Some((ei, ej, _)) = best else {
            // Optimal.
            return Ok(scratch.basis.iter().map(|&(i, j, f)| f * cost(i, j)).sum());
        };

        // The entering cell (ei, ej) closes a unique cycle in the basis
        // tree: entering cell, then the tree path from column ej back to
        // row ei. Flow alternates +theta on the entering cell, -theta on
        // the first path cell, +theta on the next, ...
        if !tree_path(scratch, m, n, ei, ej) {
            return Err(EmdError::SolverStalled {
                solver: "transportation simplex (no cycle)",
            });
        }
        let mut theta = f64::INFINITY;
        let mut leave_pos = usize::MAX;
        for (k, &bi) in scratch.path.iter().enumerate() {
            if k % 2 == 0 && scratch.basis[bi].2 < theta {
                theta = scratch.basis[bi].2;
                leave_pos = bi;
            }
        }
        debug_assert!(leave_pos != usize::MAX);
        for (k, &bi) in scratch.path.iter().enumerate() {
            if k % 2 == 0 {
                scratch.basis[bi].2 -= theta;
            } else {
                scratch.basis[bi].2 += theta;
            }
        }
        let (li, lj, _) = scratch.basis[leave_pos];
        scratch.in_basis[li * n + lj] = false;
        scratch.in_basis[ei * n + ej] = true;
        scratch.basis[leave_pos] = (ei, ej, theta);
    }
    Err(EmdError::SolverStalled {
        solver: "transportation simplex",
    })
}

/// Solve `u[i] + v[j] = c[i][j]` over the basis spanning tree (using the
/// prebuilt `scratch.adj`), `u[0] = 0`.
fn potentials(
    scratch: &mut SimplexScratch,
    m: usize,
    n: usize,
    cost: &impl Fn(usize, usize) -> f64,
) -> Result<(), EmdError> {
    scratch.u.clear();
    scratch.u.resize(m, 0.0);
    scratch.v.clear();
    scratch.v.resize(n, 0.0);
    scratch.seen.clear();
    scratch.seen.resize(m + n, false);
    scratch.seen[0] = true;
    scratch.stack.clear();
    scratch.stack.push(0);
    let mut visited = 1usize;
    while let Some(node) = scratch.stack.pop() {
        for idx in 0..scratch.adj[node].len() {
            let (next, bi) = scratch.adj[node][idx];
            if scratch.seen[next] {
                continue;
            }
            scratch.seen[next] = true;
            visited += 1;
            let (i, j, _) = scratch.basis[bi];
            if next >= m {
                scratch.v[j] = cost(i, j) - scratch.u[i];
            } else {
                scratch.u[i] = cost(i, j) - scratch.v[j];
            }
            scratch.stack.push(next);
        }
    }
    if visited != m + n {
        // Basis does not span all nodes — broken invariant.
        return Err(EmdError::SolverStalled {
            solver: "transportation simplex (basis not a tree)",
        });
    }
    Ok(())
}

/// Tree path (as basis-cell indices, left in `scratch.path`) from column
/// node `ej` back to row node `ei`, ordered starting at the cell that
/// shares column `ej` with the entering cell. Along the cycle
/// entering(+) → path[0](−) → path[1](+) → …, parity alternates exactly
/// in returned order. Returns `false` when no path exists.
fn tree_path(scratch: &mut SimplexScratch, m: usize, n: usize, ei: usize, ej: usize) -> bool {
    const UNSET: (usize, usize) = (usize::MAX, usize::MAX);
    let start = ei;
    let goal = m + ej;
    scratch.prev.clear();
    scratch.prev.resize(m + n, UNSET);
    scratch.seen.clear();
    scratch.seen.resize(m + n, false);
    scratch.seen[start] = true;
    scratch.queue.clear();
    scratch.queue.push_back(start);
    while let Some(node) = scratch.queue.pop_front() {
        if node == goal {
            break;
        }
        for idx in 0..scratch.adj[node].len() {
            let (next, bi) = scratch.adj[node][idx];
            if !scratch.seen[next] {
                scratch.seen[next] = true;
                scratch.prev[next] = (node, bi);
                scratch.queue.push_back(next);
            }
        }
    }
    if !scratch.seen[goal] {
        return false;
    }
    scratch.path.clear();
    let mut node = goal;
    while node != start {
        let (p, bi) = scratch.prev[node];
        debug_assert!(p != usize::MAX, "path exists");
        scratch.path.push(bi);
        node = p;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_one_by_one() {
        let sol = solve(&[1.0], &[1.0], &[vec![3.0]]).unwrap();
        assert!((sol.cost - 3.0).abs() < 1e-12);
        assert_eq!(sol.flows, vec![(0, 0, 1.0)]);
    }

    #[test]
    fn two_by_two_crossing() {
        // Cheapest is the anti-diagonal; NW corner starts on the diagonal,
        // so at least one pivot is required.
        let costs = vec![vec![10.0, 1.0], vec![1.0, 10.0]];
        let sol = solve(&[1.0, 1.0], &[1.0, 1.0], &costs).unwrap();
        assert!((sol.cost - 2.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_supplies() {
        // Supply exactly matches the first demand; NW corner degenerates.
        let costs = vec![vec![1.0, 2.0], vec![3.0, 1.0]];
        let sol = solve(&[1.0, 1.0], &[1.0, 1.0], &costs).unwrap();
        assert!((sol.cost - 2.0).abs() < 1e-9);
    }

    #[test]
    fn textbook_instance() {
        let sol = solve(
            &[20.0, 30.0],
            &[10.0, 25.0, 15.0],
            &[vec![2.0, 4.0, 6.0], vec![5.0, 1.0, 3.0]],
        )
        .unwrap();
        assert!((sol.cost - 120.0).abs() < 1e-6);
    }

    #[test]
    fn flows_form_valid_plan() {
        let supplies = [5.0, 3.0, 2.0];
        let demands = [4.0, 4.0, 2.0];
        let costs = vec![
            vec![1.0, 5.0, 9.0],
            vec![4.0, 2.0, 7.0],
            vec![8.0, 3.0, 1.0],
        ];
        let sol = solve(&supplies, &demands, &costs).unwrap();
        let mut out = [0.0; 3];
        let mut inn = [0.0; 3];
        for &(i, j, f) in &sol.flows {
            assert!(f > 0.0);
            out[i] += f;
            inn[j] += f;
        }
        for k in 0..3 {
            assert!((out[k] - supplies[k]).abs() < 1e-9);
            assert!((inn[k] - demands[k]).abs() < 1e-9);
        }
    }

    #[test]
    fn uniform_costs_any_plan_is_optimal() {
        let costs = vec![vec![2.0; 3]; 3];
        let sol = solve(&[1.0, 1.0, 1.0], &[1.0, 1.0, 1.0], &costs).unwrap();
        assert!((sol.cost - 6.0).abs() < 1e-9);
    }
}
