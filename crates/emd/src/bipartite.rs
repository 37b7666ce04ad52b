//! Transport-specialised successive-shortest-paths kernel.
//!
//! Compacted EMD instances all share one topology: a source feeding `m`
//! supply nodes, a complete `m × n` interior, and `n` demand nodes
//! draining into a sink. [`BipartiteFlow`] exploits that instead of
//! building a general residual graph: there is no edge list and no
//! adjacency — residual supplies, residual demands and the interior flow
//! matrix live in flat arrays, and each Dijkstra relaxation is plain
//! index arithmetic over the row-major cost slice. The interior is
//! treated as uncapacitated, the classical transportation formulation:
//! conservation already bounds `f[i][j]` by `min(supply_i, demand_j)`,
//! so explicit interior capacities could never cut off an improving
//! path.
//!
//! Two further specialisations over textbook successive shortest paths:
//!
//! * **Early-exit Dijkstra.** The search stops the moment the sink
//!   settles; potentials then advance by `min(dist[v], dist[sink])`
//!   rather than `dist[v]`. The clamp is the standard argument that
//!   keeps every residual reduced cost non-negative without settling
//!   the rest of the graph: settled nodes satisfy the relaxation
//!   inequality outright, and every unsettled node's clamped value is
//!   exactly `dist[sink]`, which cannot decrease below a settled
//!   neighbour's contribution.
//! * **Round-1 record/replay.** The first Dijkstra round is a pure
//!   function of `(m, n, costs)` — capacities only enter as "positive",
//!   which all compacted supplies and demands are — so consecutive
//!   solves over the same support set replay it bit-for-bit. The replay
//!   is deliberately restricted to round 1: later rounds depend on the
//!   residual capacities, and seeding *final* duals from a previous
//!   solve would shift Dijkstra's float keys per node, changing
//!   tie-breaks on degenerate instances and breaking the bit-identity
//!   contract the audit pipeline guarantees. The cache lives on the
//!   kernel itself; validity tracking (support and cost equality) stays
//!   with the caller.
//!
//! Determinism: the next node to settle is chosen by a linear scan with
//! lowest-index tie-breaking, and all state is re-derived from the
//! instance on every solve, so a given instance solves bit-identically
//! regardless of scratch history, warm start, or thread placement.

use crate::EmdError;

/// Capacities below this are treated as saturated (floating-point slack).
const CAP_EPS: f64 = 1e-12;

/// Result of a [`BipartiteFlow::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FlowResult {
    /// Total flow actually routed from source to sink.
    pub(crate) flow: f64,
    /// Total cost of that flow.
    pub(crate) cost: f64,
}

/// Reusable kernel state. All buffers grow to the working-set size and
/// are retained; a long-lived kernel solves a stream of same-sized
/// instances without allocating.
#[derive(Debug, Clone, Default)]
pub(crate) struct BipartiteFlow {
    /// Residual supplies (length `m`).
    sup: Vec<f64>,
    /// Residual demands (length `n`).
    dem: Vec<f64>,
    /// Interior flow, row-major `m × n`.
    flow: Vec<f64>,
    /// Johnson potentials for all `m + n + 2` nodes.
    pot: Vec<f64>,
    dist: Vec<f64>,
    /// Predecessor *node* on the shortest-path tree (`u32::MAX` = none);
    /// the edge between two nodes is implied by their classes.
    prev: Vec<u32>,
    visited: Vec<bool>,
    /// Cached round-1 `dist`/`prev` for warm replay.
    r1_dist: Vec<f64>,
    r1_prev: Vec<u32>,
    /// Demand count of the instance currently held in `flow`.
    n: usize,
}

impl BipartiteFlow {
    /// Flow routed from compacted supply `si` to compacted demand `dj`
    /// by the last solve.
    pub(crate) fn flow_at(&self, si: usize, dj: usize) -> f64 {
        self.flow[si * self.n + dj]
    }

    /// Total element capacity of every buffer (allocation probe).
    pub(crate) fn footprint(&self) -> usize {
        self.sup.capacity()
            + self.dem.capacity()
            + self.flow.capacity()
            + self.pot.capacity()
            + self.dist.capacity()
            + self.prev.capacity()
            + self.visited.capacity()
            + self.r1_dist.capacity()
            + self.r1_prev.capacity()
    }

    /// Route `want` (= total supply) units at minimum cost. `costs` is
    /// the row-major `m × n` ground view; `replay` asserts the caller
    /// verified this instance's supports and costs equal the previous
    /// solve's, making the cached round-1 Dijkstra valid.
    ///
    /// # Errors
    ///
    /// [`EmdError::SolverStalled`] if an internal invariant breaks (e.g.
    /// non-finite input); valid inputs never trigger it.
    pub(crate) fn solve(
        &mut self,
        supplies: &[f64],
        demands: &[f64],
        costs: &[f64],
        want: f64,
        replay: bool,
    ) -> Result<FlowResult, EmdError> {
        let (m, n) = (supplies.len(), demands.len());
        debug_assert_eq!(costs.len(), m * n);
        let nodes = m + n + 2;
        self.n = n;
        self.sup.clear();
        self.sup.extend_from_slice(supplies);
        self.dem.clear();
        self.dem.extend_from_slice(demands);
        self.flow.clear();
        self.flow.resize(m * n, 0.0);
        self.pot.clear();
        self.pot.resize(nodes, 0.0);

        let mut flow = 0.0;
        let mut cost = 0.0;
        // Each augmentation saturates a supply, a demand, or zeroes an
        // interior flow cell; add slack for float re-saturation.
        let max_rounds = 4 * (m * n + m + n) + 16;
        let mut rounds = 0;
        let sink = nodes - 1;
        while want - flow > CAP_EPS {
            rounds += 1;
            if rounds > max_rounds {
                return Err(EmdError::SolverStalled {
                    solver: "bipartite-flow",
                });
            }
            if rounds == 1 && replay {
                debug_assert_eq!(self.r1_dist.len(), nodes, "stale round-1 cache");
                self.dist.clear();
                self.dist.extend_from_slice(&self.r1_dist);
                self.prev.clear();
                self.prev.extend_from_slice(&self.r1_prev);
            } else {
                self.dijkstra(m, n, costs);
                if rounds == 1 {
                    self.r1_dist.clear();
                    self.r1_dist.extend_from_slice(&self.dist);
                    self.r1_prev.clear();
                    self.r1_prev.extend_from_slice(&self.prev);
                }
            }
            let d_sink = self.dist[sink];
            if !d_sink.is_finite() {
                break; // no augmenting path left
            }
            // Advance potentials by the clamped distances. Nodes the
            // early exit left unrelaxed (still at infinity) clamp to
            // `d_sink` like every other unsettled node — a settled node
            // cannot have a residual edge into an unrelaxed one (it
            // would have relaxed it), so every residual reduced cost
            // stays non-negative.
            for v in 0..nodes {
                self.pot[v] += self.dist[v].min(d_sink);
            }
            // Bottleneck along the path (interior forward edges are
            // uncapacitated and never bind).
            let mut push = want - flow;
            let mut v = sink;
            while v != 0 {
                let u = self.prev[v] as usize;
                if u == 0 {
                    push = push.min(self.sup[v - 1]);
                } else if v == sink {
                    push = push.min(self.dem[u - 1 - m]);
                } else if u > m {
                    // Demand u backing up into supply v.
                    push = push.min(self.flow[(v - 1) * n + (u - 1 - m)]);
                }
                v = u;
            }
            if push <= CAP_EPS {
                break;
            }
            // Apply.
            let mut v = sink;
            while v != 0 {
                let u = self.prev[v] as usize;
                if u == 0 {
                    self.sup[v - 1] -= push;
                } else if v == sink {
                    self.dem[u - 1 - m] -= push;
                } else if u <= m {
                    let cell = (u - 1) * n + (v - 1 - m);
                    self.flow[cell] += push;
                    cost += push * costs[cell];
                } else {
                    let cell = (v - 1) * n + (u - 1 - m);
                    self.flow[cell] -= push;
                    cost -= push * costs[cell];
                }
                v = u;
            }
            flow += push;
        }
        Ok(FlowResult { flow, cost })
    }

    /// One Dijkstra pass over reduced costs, stopping once the sink
    /// settles. Node ids: `0` source, `1..=m` supplies, `m+1..=m+n`
    /// demands, `m+n+1` sink.
    fn dijkstra(&mut self, m: usize, n: usize, costs: &[f64]) {
        let nodes = m + n + 2;
        let sink = nodes - 1;
        let BipartiteFlow {
            sup,
            dem,
            flow,
            pot,
            dist,
            prev,
            visited,
            ..
        } = self;
        dist.clear();
        dist.resize(nodes, f64::INFINITY);
        prev.clear();
        prev.resize(nodes, u32::MAX);
        visited.clear();
        visited.resize(nodes, false);
        dist[0] = 0.0;
        loop {
            // Next settled node: linear scan, lowest index wins ties.
            let mut u = usize::MAX;
            let mut best = f64::INFINITY;
            for (v, &d) in dist.iter().enumerate() {
                if !visited[v] && d < best {
                    best = d;
                    u = v;
                }
            }
            if u == usize::MAX || u == sink {
                break;
            }
            visited[u] = true;
            let d = best;
            let pu = pot[u];
            if u == 0 {
                // Source → unsaturated supplies, cost 0.
                for i in 0..m {
                    if sup[i] > CAP_EPS {
                        let nd = d + (pu - pot[1 + i]).max(0.0);
                        if nd + CAP_EPS < dist[1 + i] {
                            dist[1 + i] = nd;
                            prev[1 + i] = 0;
                        }
                    }
                }
            } else if u <= m {
                // Supply → every demand: one dense row sweep.
                let i = u - 1;
                let row = &costs[i * n..(i + 1) * n];
                for (j, &c) in row.iter().enumerate() {
                    let v = 1 + m + j;
                    let nd = d + (c + pu - pot[v]).max(0.0);
                    if nd + CAP_EPS < dist[v] {
                        dist[v] = nd;
                        prev[v] = u as u32;
                    }
                }
            } else {
                let j = u - 1 - m;
                // Demand → sink while demand remains, cost 0.
                if dem[j] > CAP_EPS {
                    let nd = d + (pu - pot[sink]).max(0.0);
                    if nd + CAP_EPS < dist[sink] {
                        dist[sink] = nd;
                        prev[sink] = u as u32;
                    }
                }
                // Demand backing up into supplies it currently draws from.
                for i in 0..m {
                    let cell = i * n + j;
                    if flow[cell] > CAP_EPS {
                        let v = 1 + i;
                        let nd = d + (pu - pot[v] - costs[cell]).max(0.0);
                        if nd + CAP_EPS < dist[v] {
                            dist[v] = nd;
                            prev[v] = u as u32;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(sup: &[f64], dem: &[f64], costs: &[f64]) -> FlowResult {
        let want: f64 = sup.iter().sum();
        BipartiteFlow::default()
            .solve(sup, dem, costs, want, false)
            .unwrap()
    }

    #[test]
    fn single_cell() {
        let r = solve(&[1.0], &[1.0], &[0.25]);
        assert!((r.flow - 1.0).abs() < 1e-12);
        assert!((r.cost - 0.25).abs() < 1e-12);
    }

    #[test]
    fn prefers_cheap_assignment() {
        // Two unit supplies, two unit demands; the identity assignment
        // costs 0 + 0, the crossed one 1 + 1.
        let r = solve(&[1.0, 1.0], &[1.0, 1.0], &[0.0, 1.0, 1.0, 0.0]);
        assert!((r.flow - 2.0).abs() < 1e-12);
        assert!(r.cost.abs() < 1e-12);
    }

    #[test]
    fn reroutes_through_residual_edges() {
        // Greedy round 1 sends supply 0 to demand 0 (cost 0), but the
        // optimum needs it on demand 1 so supply 1 (which can only serve
        // demand 0 cheaply) is not forced onto cost 10.
        let r = solve(&[1.0, 1.0], &[1.0, 1.0], &[0.0, 1.0, 2.0, 10.0]);
        assert!((r.flow - 2.0).abs() < 1e-12);
        assert!((r.cost - 3.0).abs() < 1e-12);
    }

    #[test]
    fn round1_replay_is_bit_identical() {
        let sup = [0.4, 0.6];
        let dem = [0.7, 0.3];
        let costs = [1.0, 2.0, 2.0, 1.0];
        let mut k = BipartiteFlow::default();
        let cold = k.solve(&sup, &dem, &costs, 1.0, false).unwrap();
        let warm = k.solve(&sup, &dem, &costs, 1.0, true).unwrap();
        assert_eq!(cold.cost.to_bits(), warm.cost.to_bits());
        assert_eq!(cold.flow.to_bits(), warm.flow.to_bits());
    }

    #[test]
    fn flows_satisfy_marginals() {
        let sup = [0.2, 0.3, 0.5];
        let dem = [0.6, 0.4];
        let costs = [1.0, 4.0, 2.0, 0.5, 3.0, 3.0];
        let want: f64 = sup.iter().sum();
        let mut k = BipartiteFlow::default();
        let r = k.solve(&sup, &dem, &costs, want, false).unwrap();
        assert!((r.flow - want).abs() < 1e-9);
        for (i, &s) in sup.iter().enumerate() {
            let row: f64 = (0..dem.len()).map(|j| k.flow_at(i, j)).sum();
            assert!((row - s).abs() < 1e-9, "supply {i} not exhausted");
        }
        for (j, &d) in dem.iter().enumerate() {
            let col: f64 = (0..sup.len()).map(|i| k.flow_at(i, j)).sum();
            assert!((col - d).abs() < 1e-9, "demand {j} not met");
        }
    }
}
