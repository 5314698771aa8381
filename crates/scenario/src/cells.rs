//! A bucket-grid index over a point deployment: the neighbor hint
//! behind every lazy point deployment (see `crate::topology`).
//!
//! The bounding box is cut into `cols × rows` cells, at most `2n` of
//! them, shaped after the box so cells come out roughly square; an axis
//! of zero extent (a line) collapses to one row or column. Node ids are
//! counting-sorted into the cells, row-major, in CSR form: cell `c`
//! holds `ids[starts[c]..starts[c + 1]]`, ascending. A disk query walks
//! the cell rows the disk meets and takes each row's meeting columns as
//! one contiguous slice, so deployments whose ids run row-major with
//! the cells (lines, grids) come out ascending, and others (rings,
//! random and clustered points) cost the backend one sort of the
//! window. The cells are uniform over the box, so a window holds
//! `O(k)` ids when points spread over it; under strong clustering a
//! cell holds many points and a small disk pays for its whole cell.

use decay_spaces::Point;

/// The CSR bucket grid. Built once per backend build in `O(n)`.
pub(crate) struct CellIndex {
    /// The bounding box's lower corner.
    origin: Point,
    /// Cells per unit length along x and y (0 on a collapsed axis).
    scale: (f64, f64),
    cols: usize,
    /// Per cell row, the smallest and largest y among its points
    /// (`(∞, −∞)` when empty): a query clips the row's columns by the
    /// row's actual distance from the center, not by its band.
    row_y: Vec<(f64, f64)>,
    starts: Vec<usize>,
    ids: Vec<usize>,
}

/// The cell along one axis holding coordinate offset `offset`. Monotone
/// in `offset`, which is what makes a query's cell range sound: a
/// coordinate inside `[c - r, c + r]` lands between the cells of the
/// two ends, rounding included. Negative offsets saturate to cell 0.
fn axis(offset: f64, scale: f64, cells: usize) -> usize {
    ((offset * scale) as usize).min(cells - 1)
}

impl CellIndex {
    pub(crate) fn new(points: &[Point]) -> Self {
        let n = points.len();
        let (mut lo, mut hi) = (
            (f64::INFINITY, f64::INFINITY),
            (f64::NEG_INFINITY, f64::NEG_INFINITY),
        );
        for &(x, y) in points {
            lo = (lo.0.min(x), lo.1.min(y));
            hi = (hi.0.max(x), hi.1.max(y));
        }
        let (w, h) = (hi.0 - lo.0, hi.1 - lo.1);
        // About `n` cells of the box's aspect, at most `n` per axis:
        // `cols · ⌈n / cols⌉ ≤ n + cols ≤ 2n`.
        let cols = if w <= 0.0 {
            1
        } else if h <= 0.0 {
            n
        } else {
            (n as f64 * w / h).sqrt().round() as usize
        }
        .clamp(1, n.max(1));
        let rows = if h > 0.0 { n.div_ceil(cols) } else { 1 };
        let scale = |cells: usize, extent: f64| {
            if extent > 0.0 {
                cells as f64 / extent
            } else {
                0.0
            }
        };
        let mut index = CellIndex {
            origin: lo,
            scale: (scale(cols, w), scale(rows, h)),
            cols,
            row_y: vec![(f64::INFINITY, f64::NEG_INFINITY); rows],
            starts: vec![0; cols * rows + 1],
            ids: vec![0; n],
        };
        let cells: Vec<usize> = points
            .iter()
            .map(|&(x, y)| {
                let row = axis(y - lo.1, index.scale.1, rows);
                let span = &mut index.row_y[row];
                *span = (span.0.min(y), span.1.max(y));
                row * cols + axis(x - lo.0, index.scale.0, cols)
            })
            .collect();
        for &c in &cells {
            index.starts[c + 1] += 1;
        }
        for c in 0..cols * rows {
            index.starts[c + 1] += index.starts[c];
        }
        let mut fill = index.starts.clone();
        for (i, &c) in cells.iter().enumerate() {
            index.ids[fill[c]] = i;
            fill[c] += 1;
        }
        index
    }

    /// Number of cells.
    #[cfg(test)]
    pub(crate) fn cells(&self) -> usize {
        self.starts.len() - 1
    }

    /// Every id whose point lies within Euclidean distance `r` of
    /// `center`, plus nearby ones from the same cells; no id twice.
    /// Ascending when the ids run row-major with the cells.
    pub(crate) fn disk(&self, center: Point, r: f64) -> Vec<usize> {
        if r.is_nan() || r <= 0.0 {
            return Vec::new();
        }
        if r == f64::INFINITY {
            return (0..self.ids.len()).collect();
        }
        let rows = self.row_y.len();
        let (ox, oy) = self.origin;
        let (sx, sy) = self.scale;
        let mut out = Vec::new();
        for row in axis(center.1 - r - oy, sy, rows)..=axis(center.1 + r - oy, sy, rows) {
            let (y_lo, y_hi) = self.row_y[row];
            // Scaled by `r`, so squares neither underflow nor overflow;
            // an empty row's gap is infinite.
            let t = (y_lo - center.1).max(center.1 - y_hi).max(0.0) / r;
            if t > 1.0 {
                continue;
            }
            let half = r * (1.0 - t * t).sqrt();
            let first = row * self.cols + axis(center.0 - half - ox, sx, self.cols);
            let last = row * self.cols + axis(center.0 + half - ox, sx, self.cols);
            out.extend_from_slice(&self.ids[self.starts[first]..self.starts[last + 1]]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute(points: &[Point], center: Point, r: f64) -> Vec<usize> {
        (0..points.len())
            .filter(|&i| {
                let (dx, dy) = (points[i].0 - center.0, points[i].1 - center.1);
                dx * dx + dy * dy <= r * r
            })
            .collect()
    }

    #[test]
    fn lines_and_grids_come_out_ascending() {
        let line: Vec<Point> = (0..40).map(|i| (i as f64 * 0.3, 0.0)).collect();
        let grid: Vec<Point> = (0..144)
            .map(|i| ((i % 12) as f64 * 1.7, (i / 12) as f64 * 1.7))
            .collect();
        for points in [line, grid] {
            let index = CellIndex::new(&points);
            for (i, &p) in points.iter().enumerate() {
                for r in [0.5, 2.0, 7.5, 100.0] {
                    let got = index.disk(p, r);
                    assert!(got.is_sorted_by(|a, b| a < b), "node {i}, r {r}");
                    let want = brute(&points, p, r);
                    assert!(want.iter().all(|j| got.contains(j)), "node {i}, r {r}");
                }
            }
        }
    }

    #[test]
    fn degenerate_boxes_and_radii() {
        // One point, coincident points, a vertical line.
        for points in [
            vec![(3.0, 4.0)],
            vec![(1.0, 1.0); 5],
            (0..9).map(|i| (2.0, i as f64)).collect::<Vec<_>>(),
        ] {
            let index = CellIndex::new(&points);
            assert!(index.cells() <= 2 * points.len());
            for &p in &points {
                assert_eq!(index.disk(p, 0.0), Vec::<usize>::new());
                assert_eq!(index.disk(p, f64::NAN), Vec::<usize>::new());
                let all: Vec<usize> = (0..points.len()).collect();
                assert_eq!(index.disk(p, f64::INFINITY), all);
                let mut wide = index.disk(p, 1e300);
                wide.sort_unstable();
                assert_eq!(wide, all);
            }
        }
        let empty = CellIndex::new(&[]);
        assert_eq!(empty.cells(), 1);
        assert!(empty.disk((0.0, 0.0), 5.0).is_empty());
    }
}
