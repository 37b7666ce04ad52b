//! Two-dimensional score histograms and their EMD.
//!
//! Workers are often ranked by *several* functions at once (one per task
//! type). Auditing each function separately can miss joint effects — a
//! group may be mid-range on both axes separately but systematically
//! pushed into the "bad at both" corner jointly. A 2-D histogram over a
//! pair of scores plus the general EMD solver (L1 ground distance over
//! the grid) extends the paper's measure to that joint view; the
//! `joint_audit` example exercises it.

use crate::bins::BinSpec;
use crate::distance::DistanceError;
use fairjob_emd::GroundDistance;

/// A dense 2-D histogram over the product of two [`BinSpec`] grids.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram2d {
    x_spec: BinSpec,
    y_spec: BinSpec,
    /// Row-major counts: `counts[iy * nx + ix]`.
    counts: Vec<f64>,
    total: f64,
}

impl Histogram2d {
    /// An empty 2-D histogram over the two bin layouts.
    pub fn empty(x_spec: BinSpec, y_spec: BinSpec) -> Self {
        let n = x_spec.len() * y_spec.len();
        Histogram2d {
            x_spec,
            y_spec,
            counts: vec![0.0; n],
            total: 0.0,
        }
    }

    /// Bin a sequence of `(x, y)` points (weight 1 each; non-finite
    /// points skipped).
    pub fn from_points(
        x_spec: BinSpec,
        y_spec: BinSpec,
        points: impl IntoIterator<Item = (f64, f64)>,
    ) -> Self {
        let mut h = Histogram2d::empty(x_spec, y_spec);
        for (x, y) in points {
            h.add(x, y);
        }
        h
    }

    /// Add one point. Non-finite coordinates are ignored.
    pub fn add(&mut self, x: f64, y: f64) {
        if !x.is_finite() || !y.is_finite() {
            return;
        }
        let ix = self.x_spec.bin_index(x);
        let iy = self.y_spec.bin_index(y);
        self.counts[iy * self.x_spec.len() + ix] += 1.0;
        self.total += 1.0;
    }

    /// Add one point by precomputed cell indices, skipping the per-point
    /// float binning of [`Histogram2d::add`] (the joint audit bins both
    /// score vectors once at context build).
    ///
    /// # Panics
    ///
    /// When `ix` or `iy` is outside the grid — a programming error at
    /// the caller's binning step.
    pub fn add_cell(&mut self, ix: usize, iy: usize) {
        assert!(
            ix < self.x_spec.len() && iy < self.y_spec.len(),
            "cell ({ix}, {iy}) outside {}x{} grid",
            self.x_spec.len(),
            self.y_spec.len()
        );
        self.counts[iy * self.x_spec.len() + ix] += 1.0;
        self.total += 1.0;
    }

    /// Total mass.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// True when no mass has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total <= 0.0
    }

    /// The grid dimensions `(nx, ny)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.x_spec.len(), self.y_spec.len())
    }

    /// Count in cell `(ix, iy)`.
    pub fn count(&self, ix: usize, iy: usize) -> f64 {
        self.counts[iy * self.x_spec.len() + ix]
    }

    /// Marginal histogram over the x axis.
    pub fn marginal_x(&self) -> crate::Histogram {
        let nx = self.x_spec.len();
        let mut counts = vec![0.0; nx];
        for (i, &c) in self.counts.iter().enumerate() {
            counts[i % nx] += c;
        }
        crate::Histogram::from_counts(self.x_spec.clone(), counts)
    }

    /// Marginal histogram over the y axis.
    pub fn marginal_y(&self) -> crate::Histogram {
        let nx = self.x_spec.len();
        let ny = self.y_spec.len();
        let mut counts = vec![0.0; ny];
        for (i, &c) in self.counts.iter().enumerate() {
            counts[i / nx] += c;
        }
        crate::Histogram::from_counts(self.y_spec.clone(), counts)
    }
}

/// L1 (cityblock) ground distance between cells of a 2-D grid, measured
/// between cell centres in score units on each axis.
#[derive(Debug, Clone)]
pub struct GridL1_2d {
    x_centres: Vec<f64>,
    y_centres: Vec<f64>,
}

impl GridL1_2d {
    /// Ground distance for histograms over the given bin layouts.
    pub fn new(x_spec: &BinSpec, y_spec: &BinSpec) -> Self {
        GridL1_2d {
            x_centres: x_spec.centres(),
            y_centres: y_spec.centres(),
        }
    }
}

impl GroundDistance for GridL1_2d {
    fn size(&self) -> usize {
        self.x_centres.len() * self.y_centres.len()
    }

    fn cost(&self, i: usize, j: usize) -> f64 {
        let nx = self.x_centres.len();
        let (ix, iy) = (i % nx, i / nx);
        let (jx, jy) = (j % nx, j / nx);
        (self.x_centres[ix] - self.x_centres[jx]).abs()
            + (self.y_centres[iy] - self.y_centres[jy]).abs()
    }
}

/// EMD between two 2-D histograms under the cityblock ground distance,
/// solved exactly with min-cost flow on the non-empty cells.
///
/// # Errors
///
/// [`DistanceError::SpecMismatch`] for different grids,
/// [`DistanceError::EmptyHistogram`] when either side is empty, and
/// solver failures as [`DistanceError::Emd`].
pub fn emd_2d(a: &Histogram2d, b: &Histogram2d) -> Result<f64, DistanceError> {
    if a.x_spec != b.x_spec || a.y_spec != b.y_spec {
        return Err(DistanceError::SpecMismatch);
    }
    if a.is_empty() || b.is_empty() {
        return Err(DistanceError::EmptyHistogram);
    }
    let fa: Vec<f64> = a.counts.iter().map(|c| c / a.total).collect();
    let fb: Vec<f64> = b.counts.iter().map(|c| c / b.total).collect();
    let ground = GridL1_2d::new(&a.x_spec, &a.y_spec);
    Ok(fairjob_emd::transport::solve_emd(&fa, &fb, &ground)?.cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{Emd1d, HistogramDistance};

    fn spec(n: usize) -> BinSpec {
        BinSpec::equal_width(0.0, 1.0, n).unwrap()
    }

    #[test]
    fn binning_and_totals() {
        let h = Histogram2d::from_points(
            spec(4),
            spec(4),
            [(0.1, 0.1), (0.9, 0.9), (0.9, 0.1), (f64::NAN, 0.5)],
        );
        assert_eq!(h.total(), 3.0);
        assert_eq!(h.count(0, 0), 1.0);
        assert_eq!(h.count(3, 3), 1.0);
        assert_eq!(h.count(3, 0), 1.0);
        assert_eq!(h.dims(), (4, 4));
    }

    #[test]
    fn add_cell_matches_add() {
        let points = [(0.1, 0.1), (0.9, 0.9), (0.9, 0.1), (0.4, 0.7)];
        let direct = Histogram2d::from_points(spec(4), spec(4), points.iter().copied());
        let (xs, ys) = (spec(4), spec(4));
        let mut indexed = Histogram2d::empty(xs.clone(), ys.clone());
        for &(x, y) in &points {
            indexed.add_cell(xs.bin_index(x), ys.bin_index(y));
        }
        assert_eq!(indexed, direct);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn add_cell_rejects_out_of_grid() {
        let mut h = Histogram2d::empty(spec(4), spec(2));
        h.add_cell(4, 0);
    }

    #[test]
    fn marginals_match_direct_1d_histograms() {
        let points: Vec<(f64, f64)> = (0..50)
            .map(|i| (i as f64 / 50.0, (i as f64 * 7.0 % 50.0) / 50.0))
            .collect();
        let h2 = Histogram2d::from_points(spec(10), spec(10), points.iter().copied());
        let hx = crate::Histogram::from_values(spec(10), points.iter().map(|p| p.0));
        let hy = crate::Histogram::from_values(spec(10), points.iter().map(|p| p.1));
        assert_eq!(h2.marginal_x(), hx);
        assert_eq!(h2.marginal_y(), hy);
    }

    #[test]
    fn emd_2d_identity_and_symmetry() {
        let a = Histogram2d::from_points(spec(5), spec(5), [(0.1, 0.3), (0.7, 0.9)]);
        let b = Histogram2d::from_points(spec(5), spec(5), [(0.5, 0.5)]);
        assert!(emd_2d(&a, &a).unwrap().abs() < 1e-9);
        let d1 = emd_2d(&a, &b).unwrap();
        let d2 = emd_2d(&b, &a).unwrap();
        assert!((d1 - d2).abs() < 1e-9);
        assert!(d1 > 0.0);
    }

    #[test]
    fn corner_to_corner_costs_both_axes() {
        // All mass moves from (0.1,0.1) to (0.9,0.9) on a 5x5 grid:
        // centres 0.1 and 0.9 -> cityblock distance 0.8 + 0.8.
        let a = Histogram2d::from_points(spec(5), spec(5), [(0.1, 0.1)]);
        let b = Histogram2d::from_points(spec(5), spec(5), [(0.9, 0.9)]);
        let d = emd_2d(&a, &b).unwrap();
        assert!((d - 1.6).abs() < 1e-9, "{d}");
    }

    #[test]
    fn pure_x_shift_matches_1d_emd() {
        // Mass differs only along x; 2-D EMD equals the marginal 1-D EMD.
        let a = Histogram2d::from_points(spec(8), spec(8), [(0.1, 0.5), (0.2, 0.5)]);
        let b = Histogram2d::from_points(spec(8), spec(8), [(0.8, 0.5), (0.9, 0.5)]);
        let d2 = emd_2d(&a, &b).unwrap();
        let d1 = Emd1d.distance(&a.marginal_x(), &b.marginal_x()).unwrap();
        assert!((d2 - d1).abs() < 1e-9, "2d {d2} vs marginal {d1}");
    }

    #[test]
    fn joint_structure_invisible_to_marginals() {
        // Anti-diagonal vs diagonal mass: identical marginals, positive
        // joint EMD — the case motivating the joint audit.
        let diag = Histogram2d::from_points(spec(4), spec(4), [(0.1, 0.1), (0.9, 0.9)]);
        let anti = Histogram2d::from_points(spec(4), spec(4), [(0.1, 0.9), (0.9, 0.1)]);
        let dx = Emd1d
            .distance(&diag.marginal_x(), &anti.marginal_x())
            .unwrap();
        let dy = Emd1d
            .distance(&diag.marginal_y(), &anti.marginal_y())
            .unwrap();
        assert!(dx.abs() < 1e-12 && dy.abs() < 1e-12, "marginals identical");
        let joint = emd_2d(&diag, &anti).unwrap();
        assert!(joint > 0.7, "joint EMD sees the structure: {joint}");
    }

    #[test]
    fn mismatched_grids_rejected() {
        let a = Histogram2d::from_points(spec(4), spec(4), [(0.5, 0.5)]);
        let b = Histogram2d::from_points(spec(5), spec(4), [(0.5, 0.5)]);
        assert!(matches!(emd_2d(&a, &b), Err(DistanceError::SpecMismatch)));
        let e = Histogram2d::empty(spec(4), spec(4));
        assert!(matches!(emd_2d(&a, &e), Err(DistanceError::EmptyHistogram)));
    }
}
