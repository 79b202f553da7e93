//! Outdated-cell bitmaps (Figure 10 of the paper).
//!
//! §5 of the paper: *"We propose to associate a bitmap with each table in
//! the database. A cell in the bitmap is set to 1 if the corresponding cell
//! in the data table is outdated [...] To reduce the storage overhead of
//! the maintained bitmaps, data compression techniques such as
//! Run-Length-Encoding can be used to effectively compress the bitmaps."*
//!
//! [`CellBitmap`] is the plain dense bitmap; [`RleBitmap`] is its
//! run-length-encoded form.  Experiment **E10** sweeps the fraction and
//! clustering of outdated cells and compares the two representations'
//! storage, reproducing the paper's compression argument.

/// Dense 2-D bitmap over `(row, column)` cells, packed into 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellBitmap {
    rows: usize,
    cols: usize,
    words: Vec<u64>,
}

impl CellBitmap {
    /// All-zero bitmap for `rows × cols` cells.
    pub fn new(rows: usize, cols: usize) -> Self {
        let bits = rows * cols;
        CellBitmap {
            rows,
            cols,
            words: vec![0; bits.div_ceil(64)],
        }
    }

    /// Number of rows tracked.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns tracked.
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    fn index(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.rows && col < self.cols);
        row * self.cols + col
    }

    /// Mark `(row, col)` outdated.
    pub fn set(&mut self, row: usize, col: usize) {
        let i = self.index(row, col);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Clear `(row, col)` (cell re-validated — §5 "Validating outdated data").
    pub fn clear(&mut self, row: usize, col: usize) {
        let i = self.index(row, col);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Is `(row, col)` marked outdated?
    pub fn get(&self, row: usize, col: usize) -> bool {
        self.bit(self.index(row, col))
    }

    /// The `i`-th bit in row-major order.
    #[inline]
    fn bit(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Grow the bitmap to cover `rows` rows (new rows start clean).  The
    /// layout is row-major, so every existing bit keeps its position and
    /// growth is an in-place resize (amortized O(1) per appended row).
    pub fn grow_rows(&mut self, rows: usize) {
        if rows > self.rows {
            self.words.resize((rows * self.cols).div_ceil(64), 0);
            self.rows = rows;
        }
    }

    /// Shrink the bitmap to its first `rows` rows (transaction rollback
    /// undoing growth); bits past the cut are dropped, so the result
    /// equals a bitmap grown to `rows` with the same surviving bits.
    pub fn truncate_rows(&mut self, rows: usize) {
        if rows < self.rows {
            let bits = rows * self.cols;
            self.words.truncate(bits.div_ceil(64));
            let tail = bits % 64;
            if let Some(last) = self.words.last_mut().filter(|_| tail > 0) {
                *last &= (1 << tail) - 1;
            }
            self.rows = rows;
        }
    }

    /// Count of set (outdated) cells.
    pub fn count_set(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate all set cells as `(row, col)` in row-major order, visiting
    /// set bits only: zero words are skipped whole.
    pub fn iter_set(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let cols = self.cols;
        self.words.iter().enumerate().flat_map(move |(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some((i / cols, i % cols))
            })
        })
    }

    /// Bytes used by the dense representation (payload only).
    pub fn storage_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Compress into run-length form over *column-major* bit order.
    ///
    /// Outdating often strikes whole columns (the closure of a procedure —
    /// §5 — invalidates a column per affected table), which row-major runs
    /// fragment into one run per row.  Column-major order turns a column
    /// stripe into a single run.  [`RleBitmap::get`] and
    /// [`RleBitmap::to_dense`] honour the stored order.
    pub fn to_rle_column_major(&self) -> RleBitmap {
        // the i-th bit in column-major enumeration
        let rows = self.rows.max(1);
        self.to_runs(true, |i| self.bit((i % rows) * self.cols + i / rows))
    }

    /// Compress into run-length form (row-major bit order).
    pub fn to_rle(&self) -> RleBitmap {
        self.to_runs(false, |i| self.bit(i))
    }

    /// Run-length encode the bits `bit_at(0..rows * cols)`.
    fn to_runs(&self, column_major: bool, bit_at: impl Fn(usize) -> bool) -> RleBitmap {
        let total = self.rows * self.cols;
        let mut runs = Vec::new();
        let mut i = 0usize;
        while i < total {
            let bit = bit_at(i);
            let start = i;
            while i < total && bit_at(i) == bit {
                i += 1;
            }
            runs.push(Run {
                bit,
                len: (i - start) as u32,
            });
        }
        RleBitmap {
            rows: self.rows,
            cols: self.cols,
            runs,
            column_major,
        }
    }
}

/// One run of identical bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// The repeated bit value.
    pub bit: bool,
    /// Number of repeats (always ≥ 1 in a well-formed bitmap).
    pub len: u32,
}

/// Run-length-encoded bitmap, the compressed form the paper proposes for
/// outdated-cell tracking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RleBitmap {
    rows: usize,
    cols: usize,
    runs: Vec<Run>,
    /// Bit enumeration order of `runs`.
    column_major: bool,
}

impl RleBitmap {
    /// Number of rows covered.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns covered.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The runs, in row-major bit order.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Query a cell by walking the runs (O(#runs)).
    pub fn get(&self, row: usize, col: usize) -> bool {
        let target = if self.column_major {
            (col * self.rows + row) as u64
        } else {
            (row * self.cols + col) as u64
        };
        let mut pos = 0u64;
        for r in &self.runs {
            let end = pos + r.len as u64;
            if target < end {
                return r.bit;
            }
            pos = end;
        }
        false
    }

    /// Decompress back to the dense bitmap.
    pub fn to_dense(&self) -> CellBitmap {
        let mut bm = CellBitmap::new(self.rows, self.cols);
        let mut i = 0usize;
        for r in &self.runs {
            if r.bit {
                for k in i..i + r.len as usize {
                    let j = if self.column_major {
                        let col = k / self.rows.max(1);
                        let row = k % self.rows.max(1);
                        row * self.cols + col
                    } else {
                        k
                    };
                    bm.words[j / 64] |= 1 << (j % 64);
                }
            }
            i += r.len as usize;
        }
        bm
    }

    /// Bytes used by the run-length representation: 5 bytes per run
    /// (1 tag + 4 length), matching a simple on-disk layout.
    pub fn storage_bytes(&self) -> usize {
        self.runs.len() * 5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn set_get_clear() {
        let mut bm = CellBitmap::new(3, 4);
        assert!(!bm.get(1, 2));
        bm.set(1, 2);
        assert!(bm.get(1, 2));
        assert_eq!(bm.count_set(), 1);
        bm.clear(1, 2);
        assert!(!bm.get(1, 2));
        assert_eq!(bm.count_set(), 0);
    }

    #[test]
    fn figure10_protein_bitmap() {
        // Figure 10: Protein table, 4 columns (PName, GID, PSeq, PFun),
        // 3 rows; PFunction of rows 0 and 1 (mraW, ftsI) marked outdated.
        let mut bm = CellBitmap::new(3, 4);
        bm.set(0, 3);
        bm.set(1, 3);
        assert_eq!(bm.count_set(), 2);
        let set: Vec<_> = bm.iter_set().collect();
        assert_eq!(set, vec![(0, 3), (1, 3)]);
        // PSequence column (auto-recomputed by procedure P) stays clean.
        assert!(!bm.get(0, 2));
    }

    #[test]
    fn rle_roundtrip() {
        let mut bm = CellBitmap::new(10, 10);
        for r in 3..7 {
            for c in 0..10 {
                bm.set(r, c);
            }
        }
        let rle = bm.to_rle();
        assert_eq!(rle.to_dense(), bm);
        // One clean run, one dirty run, one clean run.
        assert_eq!(rle.runs().len(), 3);
        assert!(rle.get(4, 5));
        assert!(!rle.get(0, 0));
        assert!(!rle.get(9, 9));
    }

    #[test]
    fn rle_compresses_clustered_bitmaps() {
        // A mostly-clean table: RLE must be far smaller than dense.
        let mut bm = CellBitmap::new(1000, 8);
        for c in 0..8 {
            bm.set(500, c);
        }
        let rle = bm.to_rle();
        assert!(rle.storage_bytes() < bm.storage_bytes() / 10);
    }

    #[test]
    fn rle_expands_on_alternating_bits() {
        // Worst case for RLE: checkerboard. Dense wins; the experiment in
        // E10 shows exactly this crossover.
        let mut bm = CellBitmap::new(64, 2);
        for r in 0..64 {
            bm.set(r, r % 2);
        }
        let rle = bm.to_rle();
        assert!(rle.storage_bytes() > bm.storage_bytes());
        assert_eq!(rle.to_dense(), bm);
    }

    #[test]
    fn grow_rows_preserves_bits() {
        let mut bm = CellBitmap::new(2, 3);
        bm.set(1, 2);
        bm.grow_rows(5);
        assert_eq!(bm.rows(), 5);
        assert!(bm.get(1, 2));
        assert!(!bm.get(4, 2));
        // shrinking is a no-op
        bm.grow_rows(2);
        assert_eq!(bm.rows(), 5);
    }

    #[test]
    fn truncate_rows_undoes_growth() {
        // 5 columns: the cut lands mid-word
        let mut bm = CellBitmap::new(3, 5);
        bm.set(1, 4);
        let before = bm.clone();
        bm.grow_rows(40);
        bm.set(2, 0);
        bm.set(3, 1);
        bm.set(39, 4);
        bm.truncate_rows(3);
        let mut expect = before;
        expect.set(2, 0);
        assert_eq!(bm, expect, "dropped bits must not survive the cut");
        // regrowing starts clean
        bm.grow_rows(4);
        assert!(!bm.get(3, 1));
        // growing past the current size is not truncation
        bm.truncate_rows(10);
        assert_eq!(bm.rows(), 4);
    }

    #[test]
    fn growing_one_row_at_a_time_matches_a_fresh_bitmap() {
        // 5 columns: most row counts end in a partial last word
        let cols = 5;
        let mut grown = CellBitmap::new(0, cols);
        let mut sets = Vec::new();
        for r in 0..10_000 {
            grown.grow_rows(r + 1);
            if r % 13 == 0 {
                let c = r % cols;
                grown.set(r, c);
                sets.push((r, c));
            }
            if (r + 1) % 1_000 == 0 {
                let mut fresh = CellBitmap::new(r + 1, cols);
                for &(sr, sc) in &sets {
                    fresh.set(sr, sc);
                }
                assert_eq!(grown, fresh, "after {} rows", r + 1);
                assert_eq!(grown.iter_set().collect::<Vec<_>>(), sets);
            }
        }
        assert_ne!((10_000 * cols) % 64, 0, "the last word is partial");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn iter_set_matches_the_cell_by_cell_walk(
            rows in 0usize..200,
            cols in 1usize..9,
            cells in prop::collection::vec((0usize..200, 0usize..9), 0..300),
        ) {
            let mut bm = CellBitmap::new(rows, cols);
            for (r, c) in cells {
                if r < rows && c < cols {
                    bm.set(r, c);
                }
            }
            let mut walk = Vec::new();
            for r in 0..rows {
                for c in 0..cols {
                    if bm.get(r, c) {
                        walk.push((r, c));
                    }
                }
            }
            prop_assert_eq!(bm.iter_set().collect::<Vec<_>>(), walk);
        }
    }

    #[test]
    fn column_major_rle_compresses_column_stripes() {
        let mut bm = CellBitmap::new(1000, 8);
        for r in 0..1000 {
            bm.set(r, 3); // one full column outdated
        }
        let row_major = bm.to_rle();
        let col_major = bm.to_rle_column_major();
        assert_eq!(col_major.to_dense(), bm);
        assert_eq!(col_major.runs().len(), 3, "stripe = one dirty run");
        assert!(col_major.storage_bytes() * 100 < row_major.storage_bytes());
        for r in [0usize, 500, 999] {
            for c in 0..8 {
                assert_eq!(col_major.get(r, c), bm.get(r, c));
            }
        }
    }

    #[test]
    fn empty_bitmap_rle() {
        let bm = CellBitmap::new(0, 4);
        let rle = bm.to_rle();
        assert!(rle.runs().is_empty());
        assert_eq!(rle.to_dense(), bm);
    }
}
