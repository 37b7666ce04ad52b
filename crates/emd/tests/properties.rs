//! Property-based tests: the exact solver agrees with the closed form
//! and the transportation-simplex oracle, and EMD is a metric on
//! normalised histograms.

use fairjob_emd::bounds::{
    cdf_l1_grid, cdf_l1_positions, projection_lower, tv_lower, tv_upper, PrefixCdf,
};
use fairjob_emd::signature::{diameter, emd_hat, emd_signatures, Signature};
use fairjob_emd::{
    emd_1d_grid, emd_1d_samples, emd_between, emd_cost_in, normalise, simplex, solve_emd,
    EmdConfig, GridL1, GroundDistance, PositionsL1, SolveScratch, TransportProblem,
};
use proptest::prelude::*;

/// Dense `n × n` cost matrix of a ground distance.
fn dense(g: &impl GroundDistance) -> Vec<Vec<f64>> {
    (0..g.size())
        .map(|i| (0..g.size()).map(|j| g.cost(i, j)).collect())
        .collect()
}

/// Strategy: a mass vector of length `n` with at least one positive entry.
fn masses(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..10.0, n)
        .prop_filter("non-zero total", |v| v.iter().sum::<f64>() > 1e-6)
}

/// Strategy: a sparse mass vector — each bin is either exactly empty or
/// substantial, so support compaction and degenerate (zero-mass-row)
/// handling both get exercised, including single-bin instances.
fn sparse_masses(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((0.0f64..1.0, 0.5f64..10.0), n)
        .prop_map(|v| {
            v.into_iter()
                .map(|(gate, x)| if gate < 0.6 { 0.0 } else { x })
                .collect::<Vec<f64>>()
        })
        .prop_filter("non-zero total", |v| v.iter().sum::<f64>() > 1e-6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn closed_form_matches_flow_solver(a in masses(8), b in masses(8)) {
        let exact = emd_1d_grid(&a, &b, 0.0, 1.0).unwrap();
        let g = GridL1::new(0.0, 1.0, 8).unwrap();
        let flow = solve_emd(&normalise(&a).unwrap(), &normalise(&b).unwrap(), &g)
            .unwrap()
            .cost;
        prop_assert!((exact - flow).abs() < 1e-7, "closed={exact} flow={flow}");
    }

    #[test]
    fn closed_form_matches_simplex_solver(a in masses(6), b in masses(6)) {
        let exact = emd_1d_grid(&a, &b, 0.0, 1.0).unwrap();
        let g = GridL1::new(0.0, 1.0, 6).unwrap();
        let simplex = simplex::solve(&normalise(&a).unwrap(), &normalise(&b).unwrap(), &dense(&g))
            .unwrap()
            .cost;
        prop_assert!((exact - simplex).abs() < 1e-7, "closed={exact} simplex={simplex}");
    }

    #[test]
    fn flow_and_simplex_agree_on_arbitrary_metric_grounds(
        a in masses(5),
        b in masses(5),
        pos in prop::collection::vec(0.0f64..100.0, 5),
    ) {
        // |xi - xj| for arbitrary positions is a metric ground distance.
        let m: Vec<Vec<f64>> = (0..5)
            .map(|i| (0..5).map(|j| (pos[i] - pos[j]).abs()).collect())
            .collect();
        let flow = emd_between(&a, &b, &EmdConfig::matrix(m.clone())).unwrap();
        let simplex = simplex::solve(&normalise(&a).unwrap(), &normalise(&b).unwrap(), &m)
            .unwrap()
            .cost;
        prop_assert!((flow - simplex).abs() < 1e-7, "flow={flow} simplex={simplex}");
    }

    #[test]
    fn emd_is_nonnegative_and_bounded(a in masses(10), b in masses(10)) {
        let d = emd_1d_grid(&a, &b, 0.0, 1.0).unwrap();
        prop_assert!(d >= 0.0);
        // Max possible distance: span between extreme bin centres.
        prop_assert!(d <= 0.9 + 1e-12);
    }

    #[test]
    fn emd_symmetry(a in masses(10), b in masses(10)) {
        let d1 = emd_1d_grid(&a, &b, 0.0, 1.0).unwrap();
        let d2 = emd_1d_grid(&b, &a, 0.0, 1.0).unwrap();
        prop_assert!((d1 - d2).abs() < 1e-12);
    }

    #[test]
    fn emd_identity(a in masses(10)) {
        let d = emd_1d_grid(&a, &a, 0.0, 1.0).unwrap();
        prop_assert!(d.abs() < 1e-12);
    }

    #[test]
    fn emd_triangle_inequality(a in masses(8), b in masses(8), c in masses(8)) {
        let dab = emd_1d_grid(&a, &b, 0.0, 1.0).unwrap();
        let dbc = emd_1d_grid(&b, &c, 0.0, 1.0).unwrap();
        let dac = emd_1d_grid(&a, &c, 0.0, 1.0).unwrap();
        prop_assert!(dac <= dab + dbc + 1e-9, "d(a,c)={dac} > d(a,b)+d(b,c)={}", dab + dbc);
    }

    #[test]
    fn scale_invariance_of_normalised_emd(a in masses(6), b in masses(6), k in 0.1f64..50.0) {
        let d1 = emd_1d_grid(&a, &b, 0.0, 1.0).unwrap();
        let scaled: Vec<f64> = a.iter().map(|x| x * k).collect();
        let d2 = emd_1d_grid(&scaled, &b, 0.0, 1.0).unwrap();
        prop_assert!((d1 - d2).abs() < 1e-9);
    }

    #[test]
    fn sample_emd_matches_fine_histogram_emd(
        xs in prop::collection::vec(0.0f64..1.0, 1..40),
        ys in prop::collection::vec(0.0f64..1.0, 1..40),
    ) {
        // Binning error is bounded by one bin width per side.
        let exact = emd_1d_samples(&xs, &ys).unwrap();
        let bins = 1000usize;
        let mut ha = vec![0.0; bins];
        let mut hb = vec![0.0; bins];
        for &x in &xs { ha[((x * bins as f64) as usize).min(bins - 1)] += 1.0; }
        for &y in &ys { hb[((y * bins as f64) as usize).min(bins - 1)] += 1.0; }
        let approx = emd_1d_grid(&ha, &hb, 0.0, 1.0).unwrap();
        prop_assert!((exact - approx).abs() < 2.0 / bins as f64 + 1e-9,
            "exact={exact} approx={approx}");
    }

    #[test]
    fn normalise_produces_unit_mass(a in masses(12)) {
        let n = normalise(&a).unwrap();
        let t: f64 = n.iter().sum();
        prop_assert!((t - 1.0).abs() < 1e-9);
    }

    #[test]
    fn signature_emd_properties(
        pa in prop::collection::vec((0.0f64..1.0, 0.1f64..5.0), 1..6),
        pb in prop::collection::vec((0.0f64..1.0, 0.1f64..5.0), 1..6),
    ) {
        let a = Signature::new(pa.iter().map(|p| p.0).collect(), pa.iter().map(|p| p.1).collect())
            .unwrap();
        let b = Signature::new(pb.iter().map(|p| p.0).collect(), pb.iter().map(|p| p.1).collect())
            .unwrap();
        // Partial-matching EMD: symmetric, non-negative, zero on self.
        let dab = emd_signatures(&a, &b).unwrap();
        let dba = emd_signatures(&b, &a).unwrap();
        prop_assert!(dab >= -1e-12);
        prop_assert!((dab - dba).abs() < 1e-8);
        prop_assert!(emd_signatures(&a, &a).unwrap().abs() < 1e-9);
        // EMD-hat with penalty >= diameter dominates the matched cost
        // and is symmetric.
        let pen = diameter(&a, &b).max(1.0);
        let hab = emd_hat(&a, &b, pen).unwrap();
        let hba = emd_hat(&b, &a, pen).unwrap();
        prop_assert!((hab - hba).abs() < 1e-8);
        prop_assert!(hab + 1e-9 >= dab * a.total().min(b.total()) / a.total().max(b.total()).max(1.0) * 0.0);
    }

    #[test]
    fn emd_hat_triangle_inequality(
        pa in prop::collection::vec((0.0f64..1.0, 0.1f64..5.0), 1..5),
        pb in prop::collection::vec((0.0f64..1.0, 0.1f64..5.0), 1..5),
        pc in prop::collection::vec((0.0f64..1.0, 0.1f64..5.0), 1..5),
    ) {
        let mk = |pts: &[(f64, f64)]| {
            Signature::new(pts.iter().map(|p| p.0).collect(), pts.iter().map(|p| p.1).collect())
                .unwrap()
        };
        let (a, b, c) = (mk(&pa), mk(&pb), mk(&pc));
        // Positions live in [0,1], so penalty 1.0 >= the diameter.
        let ab = emd_hat(&a, &b, 1.0).unwrap();
        let bc = emd_hat(&b, &c, 1.0).unwrap();
        let ac = emd_hat(&a, &c, 1.0).unwrap();
        prop_assert!(ac <= ab + bc + 1e-8, "triangle violated: {ac} > {ab} + {bc}");
    }

    #[test]
    fn cdf_closed_form_is_bit_identical_on_grids(a in masses(10), b in masses(10)) {
        let pa = PrefixCdf::build(&a).unwrap();
        let pb = PrefixCdf::build(&b).unwrap();
        let exact = emd_1d_grid(&a, &b, 0.0, 1.0).unwrap();
        let cached = cdf_l1_grid(&pa, &pb, 0.0, 1.0).unwrap();
        prop_assert_eq!(exact.to_bits(), cached.to_bits(),
            "exact={} cached={}", exact, cached);
    }

    #[test]
    fn cdf_closed_form_matches_positions_solver(
        a in masses(8),
        b in masses(8),
        gaps in prop::collection::vec(0.0f64..5.0, 8),
    ) {
        // Arbitrary sorted positions built from non-negative gaps.
        let mut pos = Vec::with_capacity(8);
        let mut x = 0.0;
        for g in gaps { x += g; pos.push(x); }
        let pa = PrefixCdf::build(&a).unwrap();
        let pb = PrefixCdf::build(&b).unwrap();
        let exact = fairjob_emd::emd_1d_positions(&a, &b, &pos).unwrap();
        let cached = cdf_l1_positions(&pa, &pb, &pos).unwrap();
        prop_assert_eq!(exact.to_bits(), cached.to_bits(),
            "exact={} cached={}", exact, cached);
        prop_assert!((exact - cached).abs() <= 1e-12);
    }

    #[test]
    fn bounds_sandwich_exact_emd_on_line_grounds(a in masses(9), b in masses(9)) {
        // 9 bins over [0,1]: centres lo + (i + 0.5)/9.
        let centres: Vec<f64> = (0..9).map(|i| (i as f64 + 0.5) / 9.0).collect();
        let pa = PrefixCdf::build(&a).unwrap();
        let pb = PrefixCdf::build(&b).unwrap();
        let exact = emd_1d_grid(&a, &b, 0.0, 1.0).unwrap();
        let lower = projection_lower(&pa, &pb, &centres).unwrap()
            .max(tv_lower(&pa, &pb, 1.0 / 9.0).unwrap());
        let upper = tv_upper(&pa, &pb, centres[8] - centres[0]).unwrap();
        prop_assert!(lower <= exact + 1e-12, "lower {lower} > exact {exact}");
        prop_assert!(exact <= upper + 1e-12, "exact {exact} > upper {upper}");
    }

    #[test]
    fn bounds_sandwich_exact_emd_on_all_grounds(
        a in masses(6),
        b in masses(6),
        t in 0.05f64..1.0,
    ) {
        // The TV sandwich must hold for every ground-distance family the
        // solvers support: plain grid L1, thresholded grid, and a dense
        // matrix ground (here |i - j|^1.5, a metric on indices).
        let pa = PrefixCdf::build(&a).unwrap();
        let pb = PrefixCdf::build(&b).unwrap();
        let width = 1.0 / 6.0;

        let plain = emd_between(&a, &b, &EmdConfig::grid_l1(0.0, 1.0)).unwrap();
        let span = 5.0 * width;
        prop_assert!(tv_lower(&pa, &pb, width).unwrap() <= plain + 1e-9);
        prop_assert!(plain <= tv_upper(&pa, &pb, span).unwrap() + 1e-9);

        let thresh = emd_between(&a, &b, &EmdConfig::thresholded_grid(0.0, 1.0, t)).unwrap();
        prop_assert!(tv_lower(&pa, &pb, width.min(t)).unwrap() <= thresh + 1e-9);
        prop_assert!(thresh <= tv_upper(&pa, &pb, span.min(t)).unwrap() + 1e-9);

        let m: Vec<Vec<f64>> = (0..6)
            .map(|i| (0..6).map(|j| ((i as f64) - (j as f64)).abs().powf(1.5)).collect())
            .collect();
        let matrix = emd_between(&a, &b, &EmdConfig::matrix(m)).unwrap();
        let d_max = 5.0f64.powf(1.5);
        prop_assert!(tv_lower(&pa, &pb, 1.0).unwrap() <= matrix + 1e-9);
        prop_assert!(matrix <= tv_upper(&pa, &pb, d_max).unwrap() + 1e-9);
    }

    #[test]
    fn flow_and_simplex_agree_on_sparse_degenerate_instances(
        a in sparse_masses(7),
        b in sparse_masses(7),
        pos_idx in prop::collection::vec(0usize..4, 7),
    ) {
        // Positions drawn from only four distinct values: duplicates give
        // zero-cost edges and massively degenerate optimal plans, the
        // worst case for solver agreement.
        let levels = [0.0, 0.25, 0.5, 1.0];
        let pos: Vec<f64> = pos_idx.iter().map(|&i| levels[i]).collect();
        let g = PositionsL1::new(pos);
        let na = normalise(&a).unwrap();
        let nb = normalise(&b).unwrap();
        let f = solve_emd(&na, &nb, &g).unwrap();
        let s = simplex::solve(&na, &nb, &dense(&g)).unwrap();
        prop_assert!((f.cost - s.cost).abs() < 1e-9, "flow={} simplex={}", f.cost, s.cost);
    }

    #[test]
    fn compacted_solve_matches_uncompacted_problem(
        a in sparse_masses(6),
        b in sparse_masses(6),
        c in sparse_masses(4),
    ) {
        // solve_emd and TransportProblem::solve both compact onto the
        // non-empty supports; the simplex oracle keeps the zero-mass
        // rows/columns. The optimum must not depend on which formulation
        // ran.
        let na = normalise(&a).unwrap();
        let nb = normalise(&b).unwrap();
        let g = GridL1::new(0.0, 1.0, 6).unwrap();
        let p = TransportProblem {
            supplies: na.clone(),
            demands: nb.clone(),
            costs: dense(&g),
        };
        let compacted = solve_emd(&na, &nb, &g).unwrap();
        let full = p.solve().unwrap();
        let oracle = simplex::solve(&p.supplies, &p.demands, &p.costs).unwrap();
        prop_assert!(
            (compacted.cost - full.cost).abs() < 1e-9,
            "compacted={} full={}", compacted.cost, full.cost
        );
        prop_assert!(
            (full.cost - oracle.cost).abs() < 1e-9,
            "full={} simplex={}", full.cost, oracle.cost
        );

        // Rectangular 6×4 with zero-mass rows and columns.
        let nc = normalise(&c).unwrap();
        let rect = TransportProblem {
            supplies: na.clone(),
            demands: nc.clone(),
            costs: (0..6)
                .map(|i| (0..4).map(|j| (i as f64 / 5.0 - j as f64 / 3.0).abs()).collect())
                .collect(),
        };
        let kernel = rect.solve().unwrap();
        let oracle = simplex::solve(&rect.supplies, &rect.demands, &rect.costs).unwrap();
        prop_assert!(
            (kernel.cost - oracle.cost).abs() < 1e-9,
            "rectangular: kernel={} simplex={}", kernel.cost, oracle.cost
        );

        // Unequal-mass signatures on the raw (unnormalised) weights: the
        // heavier side's surplus goes to a zero-cost virtual point.
        let sa = Signature::new((0..6).map(|i| i as f64 / 5.0).collect(), a.clone()).unwrap();
        let sc = Signature::new((0..4).map(|j| j as f64 / 3.0).collect(), c.clone()).unwrap();
        let (ta, tc) = (sa.total(), sc.total());
        let mut supplies = a.clone();
        let mut demands = c.clone();
        let mut costs = rect.costs.clone();
        if ta > tc + 1e-9 {
            demands.push(ta - tc);
            for row in &mut costs {
                row.push(0.0);
            }
        } else if tc > ta + 1e-9 {
            supplies.push(tc - ta);
            costs.push(vec![0.0; demands.len()]);
        }
        let oracle = simplex::solve(&supplies, &demands, &costs).unwrap().cost;
        let partial = emd_signatures(&sa, &sc).unwrap() * ta.min(tc);
        let hat = emd_hat(&sa, &sc, 0.0).unwrap();
        prop_assert!((partial - oracle).abs() < 1e-9, "signature: kernel={partial} simplex={oracle}");
        prop_assert!((hat - oracle).abs() < 1e-9, "emd-hat: kernel={hat} simplex={oracle}");
    }

    #[test]
    fn arena_scratch_is_bit_identical_to_legacy_path(
        pairs in prop::collection::vec((sparse_masses(6), sparse_masses(6)), 1..5),
    ) {
        // One long-lived scratch across pairs must reproduce the
        // fresh-scratch path bit for bit (the transport unit tests pin
        // the plans too).
        let g = GridL1::new(0.0, 1.0, 6).unwrap();
        let mut scratch = SolveScratch::new();
        for (a, b) in &pairs {
            let na = normalise(a).unwrap();
            let nb = normalise(b).unwrap();
            let fresh = solve_emd(&na, &nb, &g).unwrap();
            let reused = emd_cost_in(&mut scratch, &na, &nb, &g).unwrap();
            prop_assert_eq!(fresh.cost.to_bits(), reused.to_bits(),
                "fresh={} reused={}", fresh.cost, reused);
        }
    }

    #[test]
    fn warm_replay_is_bit_identical_to_cold(
        mask in prop::collection::vec(0.0f64..1.0, 6)
            .prop_map(|v| v.into_iter().map(|g| g < 0.5).collect::<Vec<bool>>()),
        vals in prop::collection::vec(prop::collection::vec(0.5f64..10.0, 6), 2..6),
    ) {
        // Every histogram shares one support pattern, so each solve after
        // the first replays the previous round-1 Dijkstra — and must
        // still match a cold solve bit for bit.
        prop_assume!(mask.iter().any(|&m| m));
        let g = GridL1::new(0.0, 1.0, 6).unwrap();
        let hists: Vec<Vec<f64>> = vals
            .iter()
            .map(|v| {
                let raw: Vec<f64> = v
                    .iter()
                    .zip(&mask)
                    .map(|(&x, &m)| if m { x } else { 0.0 })
                    .collect();
                normalise(&raw).unwrap()
            })
            .collect();
        let mut warm = SolveScratch::new();
        warm.begin_chunk();
        for w in hists.windows(2) {
            let hot = emd_cost_in(&mut warm, &w[0], &w[1], &g).unwrap();
            let cold = emd_cost_in(&mut SolveScratch::new(), &w[0], &w[1], &g).unwrap();
            prop_assert_eq!(hot.to_bits(), cold.to_bits(), "hot={} cold={}", hot, cold);
        }
        // Solves 2..k share supports and costs with their predecessor.
        prop_assert_eq!(warm.stats().warm_starts as usize, hists.len() - 2);
        prop_assert_eq!(warm.stats().scratch_reuses as usize, hists.len() - 2);
    }

    #[test]
    fn thresholded_emd_never_exceeds_plain_emd(a in masses(8), b in masses(8), t in 0.01f64..1.0) {
        let plain = emd_between(&a, &b, &EmdConfig::grid_l1(0.0, 1.0)).unwrap();
        let thresh = emd_between(&a, &b, &EmdConfig::thresholded_grid(0.0, 1.0, t)).unwrap();
        prop_assert!(thresh <= plain + 1e-9, "thresholded {thresh} > plain {plain}");
        prop_assert!(thresh <= t + 1e-9, "thresholded EMD exceeds the threshold");
    }
}
