//! E05 — Annotation storage: per-cell scheme (Figure 3) vs compact
//! rectangles (Figure 5).
//!
//! The paper: *"instead of storing the annotations at the cell level, we
//! may store some of the annotations at coarser granularities [...] an
//! annotation over any group of contiguous cells can be represented by a
//! single annotation record"* — and notes A2/B3 are repeated 6 and 5
//! times under the naive scheme.
//!
//! Sweeps annotation granularity and reports attachment records, bytes,
//! and cell-lookup latency for both schemes, plus the R-tree-vs-scan
//! lookup ablation inside the rectangle scheme.

use std::time::Instant;

use bdbms_core::annotation::AnnotationSet;
use rand::Rng;

use crate::report::{ms, ratio, Report};
use crate::workloads::rng;

const ROWS: u64 = 5000;
const COLS: usize = 4;

enum Workload {
    /// One annotation per column (provenance-style).
    Columns,
    /// One annotation per 10th row (curation notes).
    Rows,
    /// Single-cell annotations, scattered.
    Cells,
    /// Block annotations: 50-row × 2-column rectangles.
    Blocks,
}

fn populate(set: &mut AnnotationSet, w: &Workload) {
    let mut rng = rng();
    match w {
        Workload::Columns => {
            let all_rows: Vec<u64> = (0..ROWS).collect();
            for c in 0..COLS {
                set.add(&all_rows, &[c]);
            }
        }
        Workload::Rows => {
            let all_cols: Vec<usize> = (0..COLS).collect();
            for row in (0..ROWS).step_by(10) {
                set.add(&[row], &all_cols);
            }
        }
        Workload::Cells => {
            for _ in 0..(ROWS / 10) {
                let row = rng.gen_range(0..ROWS);
                let col = rng.gen_range(0..COLS);
                set.add(&[row], &[col]);
            }
        }
        Workload::Blocks => {
            for _ in 0..(ROWS / 100) {
                let start = rng.gen_range(0..ROWS - 50);
                let rows: Vec<u64> = (start..start + 50).collect();
                let c0 = rng.gen_range(0..COLS - 1);
                set.add(&rows, &[c0, c0 + 1]);
            }
        }
    }
}

fn probe_cells(set: &AnnotationSet, probes: &[(u64, usize)]) -> (usize, std::time::Duration) {
    let t0 = Instant::now();
    let mut hits = 0;
    for &(row, col) in probes {
        hits += set.for_cell(row, col).len();
    }
    (hits, t0.elapsed())
}

/// E05 report.
pub fn run() -> Report {
    let mut r = Report::new(
        "e05",
        "annotation attachment storage: cell scheme (Fig 3) vs rectangles (Fig 5)",
        "compact multi-granularity storage avoids repeating one annotation per \
         covered cell",
    );
    r.headers(&[
        "workload",
        "scheme",
        "attach records",
        "bytes",
        "bytes ratio",
        "probe hits",
        "probe ms",
    ]);
    let mut rng = rng();
    let probes: Vec<(u64, usize)> = (0..2000)
        .map(|_| (rng.gen_range(0..ROWS), rng.gen_range(0..COLS)))
        .collect();
    for (name, w) in [
        ("column-level", Workload::Columns),
        ("row-level", Workload::Rows),
        ("cell-level", Workload::Cells),
        ("block-level", Workload::Blocks),
    ] {
        let mut cell = AnnotationSet::new("a", true);
        populate(&mut cell, &w);
        let mut rect = AnnotationSet::new("a", false);
        populate(&mut rect, &w);
        let (cell_hits, cell_t) = probe_cells(&cell, &probes);
        let (rect_hits, rect_t) = probe_cells(&rect, &probes);
        assert_eq!(cell_hits, rect_hits, "schemes agree on lookups");
        let cb = cell.attachment_bytes();
        let rb = rect.attachment_bytes();
        r.row(vec![
            name.into(),
            "cell (Fig 3)".into(),
            cell.attachment_records().to_string(),
            cb.to_string(),
            "1.0x".into(),
            cell_hits.to_string(),
            ms(cell_t),
        ]);
        r.row(vec![
            name.into(),
            "rect (Fig 5)".into(),
            rect.attachment_records().to_string(),
            rb.to_string(),
            ratio(cb as f64, rb as f64),
            rect_hits.to_string(),
            ms(rect_t),
        ]);
        // ablation: rectangle lookups via R-tree vs linear scan
        if let Some(rs) = rect.rect_scheme() {
            let t0 = Instant::now();
            let mut scan_hits = 0;
            for &(row, col) in &probes {
                scan_hits += rs.for_cell_scan(row, col).len();
            }
            let scan_t = t0.elapsed();
            assert_eq!(scan_hits, rect_hits);
            r.row(vec![
                name.into(),
                "rect, scan ablation".into(),
                rect.attachment_records().to_string(),
                "-".into(),
                "-".into(),
                scan_hits.to_string(),
                ms(scan_t),
            ]);
        }
    }
    r.note(
        "coarse granularities (column/row/block) compress dramatically under \
         rectangles; single-cell annotations are the break-even case",
    );
    r
}
