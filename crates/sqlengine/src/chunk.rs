//! Columnar data representation: typed value arrays with null bitmaps and
//! the [`DataChunk`] batches that tables are stored as and that flow between
//! columnar operators.
//!
//! A [`crate::storage::Table`] is a list of shared [`DataChunk`]s, and the
//! columnar executor ([`crate::plan::PlanMode::Columnar`]) moves chunks of
//! up to [`BATCH_SIZE`] rows, each column stored as a [`ColumnArray`]. A
//! column whose non-null cells all share one storage class is stored as a
//! typed vector (`Vec<i64>`, `Vec<f64>`, or `Vec<String>`) plus a
//! [`NullBitmap`]; a column mixing storage classes (legal here, as in
//! SQLite) degrades to a `Mixed` array of plain [`Value`]s. Integers and
//! reals are deliberately *not* merged into one float array:
//! `Value::render` distinguishes `2` from `2.0`, so the storage class of
//! every cell must survive batching.
//!
//! Columns are built by appending ([`ColumnArray::push`]): an empty column
//! ([`ColumnArray::default`]) or one holding only NULLs takes the class of
//! the first non-null value pushed (backfilling null placeholders), and the
//! first value of another class degrades it to `Mixed` for good — so
//! construction never needs the column type up front, and a column's class
//! depends only on the sequence of values pushed.
//!
//! [`SelChunk`] pairs a shared chunk with an optional *selection vector*:
//! filters mark surviving rows instead of gathering a copy, conjunctive
//! predicates refine the same selection in place, and the survivors are
//! physically compacted only at pipeline boundaries (join build/probe,
//! grouping, output) or when selectivity drops below
//! 1/[`SELECTION_COMPACT_DENOM`].

use std::sync::Arc;

use crate::value::{CellRef, Truth, Value};

/// Maximum number of rows carried by one [`DataChunk`].
pub const BATCH_SIZE: usize = 1024;

/// Lazy-compaction threshold for [`SelChunk`]: once fewer than one in this
/// many physical rows remain live, evaluating batch kernels over the whole
/// chunk wastes more work than one gather saves, so the selection is
/// compacted eagerly instead of waiting for the next pipeline boundary.
pub const SELECTION_COMPACT_DENOM: usize = 8;

/// A packed validity bitmap: bit `i` set means row `i` is NULL.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NullBitmap {
    bits: Vec<u64>,
    len: usize,
    nulls: usize,
}

impl NullBitmap {
    /// An all-valid bitmap of the given length.
    pub fn new_valid(len: usize) -> Self {
        NullBitmap { bits: vec![0; len.div_ceil(64)], len, nulls: 0 }
    }

    /// A bitmap of `len` rows from its packed words (bit `i` set: row `i`
    /// is NULL). Bits past `len` must be clear.
    pub(crate) fn from_words(bits: Vec<u64>, len: usize) -> Self {
        debug_assert_eq!(bits.len(), len.div_ceil(64));
        let nulls = bits.iter().map(|w| w.count_ones() as usize).sum();
        NullBitmap { bits, len, nulls }
    }

    /// Appends one validity flag.
    pub fn push(&mut self, is_null: bool) {
        let (word, bit) = (self.len / 64, self.len % 64);
        if word == self.bits.len() {
            self.bits.push(0);
        }
        if is_null {
            self.bits[word] |= 1u64 << bit;
            self.nulls += 1;
        }
        self.len += 1;
    }

    /// True when row `i` is NULL.
    pub fn is_null(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.bits[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no rows are covered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        self.nulls
    }

    /// True when at least one row is NULL.
    pub fn any_null(&self) -> bool {
        self.nulls > 0
    }

    /// Appends all flags from `other`.
    pub fn extend(&mut self, other: &NullBitmap) {
        for i in 0..other.len {
            self.push(other.is_null(i));
        }
    }
}

/// One column of a [`DataChunk`]: a typed vector with a null bitmap, or a
/// `Mixed` escape hatch for columns spanning storage classes.
///
/// Typed variants keep a placeholder (`0`, `0.0`, `""`) in the value vector
/// at NULL positions; the bitmap is authoritative.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnArray {
    /// All non-null cells are `Value::Integer`.
    Int { values: Vec<i64>, nulls: NullBitmap },
    /// All non-null cells are `Value::Real`.
    Real { values: Vec<f64>, nulls: NullBitmap },
    /// All non-null cells are `Value::Text`.
    Text { values: Vec<String>, nulls: NullBitmap },
    /// Cells span storage classes; stored as plain values (NULLs included).
    Mixed { values: Vec<Value> },
}

/// An empty column. It stays `Int` while it holds only NULLs, which read
/// the same in every class, and takes the class of the first non-null value
/// pushed.
impl Default for ColumnArray {
    fn default() -> Self {
        ColumnArray::Int { values: Vec::new(), nulls: NullBitmap::default() }
    }
}

impl ColumnArray {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnArray::Int { nulls, .. }
            | ColumnArray::Real { nulls, .. }
            | ColumnArray::Text { nulls, .. } => nulls.len(),
            ColumnArray::Mixed { values } => values.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when row `i` is NULL.
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            ColumnArray::Int { nulls, .. }
            | ColumnArray::Real { nulls, .. }
            | ColumnArray::Text { nulls, .. } => nulls.is_null(i),
            ColumnArray::Mixed { values } => values[i].is_null(),
        }
    }

    /// The cell at row `i`, borrowed.
    #[inline]
    pub(crate) fn cell(&self, i: usize) -> CellRef<'_> {
        match self {
            ColumnArray::Int { values, nulls } => {
                if nulls.is_null(i) {
                    CellRef::Null
                } else {
                    CellRef::Int(values[i])
                }
            }
            ColumnArray::Real { values, nulls } => {
                if nulls.is_null(i) {
                    CellRef::Null
                } else {
                    CellRef::Real(values[i])
                }
            }
            ColumnArray::Text { values, nulls } => {
                if nulls.is_null(i) {
                    CellRef::Null
                } else {
                    CellRef::Text(&values[i])
                }
            }
            ColumnArray::Mixed { values } => CellRef::from(&values[i]),
        }
    }

    /// The cell at row `i` as an owned [`Value`].
    pub fn value_at(&self, i: usize) -> Value {
        self.cell(i).to_value()
    }

    /// Moves the cell at row `i` out of the column, leaving a NULL-class
    /// placeholder behind. The caller must not read row `i` again; used by
    /// projection assembly to avoid a clone per text cell.
    pub fn take_at(&mut self, i: usize) -> Value {
        match self {
            ColumnArray::Int { values, nulls } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Integer(values[i])
                }
            }
            ColumnArray::Real { values, nulls } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Real(values[i])
                }
            }
            ColumnArray::Text { values, nulls } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Text(std::mem::take(&mut values[i]))
                }
            }
            ColumnArray::Mixed { values } => std::mem::replace(&mut values[i], Value::Null),
        }
    }

    /// SQL truthiness of the cell at row `i` (see [`Value::to_truth`]).
    pub fn truth_at(&self, i: usize) -> Truth {
        self.cell(i).truth()
    }

    /// Builds a column from a slice of values.
    pub fn from_values(vals: &[Value]) -> ColumnArray {
        let mut col = ColumnArray::default();
        for v in vals {
            col.push(v.clone());
        }
        col
    }

    /// Appends a NULL cell.
    pub fn push_null(&mut self) {
        match self {
            ColumnArray::Int { values, nulls } => {
                values.push(0);
                nulls.push(true);
            }
            ColumnArray::Real { values, nulls } => {
                values.push(0.0);
                nulls.push(true);
            }
            ColumnArray::Text { values, nulls } => {
                values.push(String::new());
                nulls.push(true);
            }
            ColumnArray::Mixed { values } => values.push(Value::Null),
        }
    }

    /// Appends one value, taking its class or degrading to `Mixed` as the
    /// module docs describe. A text value is moved in, not copied.
    pub fn push(&mut self, v: Value) {
        match (&mut *self, v) {
            (col, Value::Null) => col.push_null(),
            (ColumnArray::Int { values, nulls }, Value::Integer(x)) => {
                values.push(x);
                nulls.push(false);
            }
            (ColumnArray::Real { values, nulls }, Value::Real(x)) => {
                values.push(x);
                nulls.push(false);
            }
            (ColumnArray::Text { values, nulls }, Value::Text(s)) => {
                values.push(s);
                nulls.push(false);
            }
            (ColumnArray::Mixed { values }, v) => values.push(v),
            (col, v) => {
                col.reclass(CellRef::from(&v));
                col.push(v);
            }
        }
    }

    /// Appends row `i` of `col`, as [`ColumnArray::push`] of its value
    /// would.
    pub fn push_from(&mut self, col: &ColumnArray, i: usize) {
        match (&mut *self, col.cell(i)) {
            (ColumnArray::Text { values, nulls }, CellRef::Text(s)) => {
                values.push(s.to_owned());
                nulls.push(false);
            }
            (_, cell) => self.push(cell.to_value()),
        }
    }

    /// Appends every row of `col`; same-class typed appends are bulk copies.
    pub fn extend_from(&mut self, col: &ColumnArray) {
        match (&mut *self, col) {
            (ColumnArray::Int { values, nulls }, ColumnArray::Int { values: v, nulls: n }) => {
                values.extend_from_slice(v);
                nulls.extend(n);
            }
            (ColumnArray::Real { values, nulls }, ColumnArray::Real { values: v, nulls: n }) => {
                values.extend_from_slice(v);
                nulls.extend(n);
            }
            (ColumnArray::Text { values, nulls }, ColumnArray::Text { values: v, nulls: n }) => {
                values.extend_from_slice(v);
                nulls.extend(n);
            }
            _ => (0..col.len()).for_each(|i| self.push_from(col, i)),
        }
    }

    /// Makes room for `cell`, a non-null cell of another storage class: a
    /// column holding only NULLs takes the cell's class, any other degrades
    /// to `Mixed`.
    fn reclass(&mut self, cell: CellRef<'_>) {
        let n = self.len();
        *self = match std::mem::take(self) {
            ColumnArray::Int { nulls, .. }
            | ColumnArray::Real { nulls, .. }
            | ColumnArray::Text { nulls, .. }
                if nulls.null_count() == n =>
            {
                match cell {
                    CellRef::Int(_) => ColumnArray::Int { values: vec![0; n], nulls },
                    CellRef::Real(_) => ColumnArray::Real { values: vec![0.0; n], nulls },
                    CellRef::Text(_) => ColumnArray::Text { values: vec![String::new(); n], nulls },
                    CellRef::Null => unreachable!("a NULL fits every column"),
                }
            }
            mut col => ColumnArray::Mixed { values: (0..n).map(|i| col.take_at(i)).collect() },
        };
    }

    /// A new column containing the rows of `self` selected by `idx`, in
    /// `idx` order (indices may repeat).
    pub fn gather(&self, idx: &[usize]) -> ColumnArray {
        match self {
            ColumnArray::Int { values, nulls } => {
                let mut out_nulls = NullBitmap::default();
                let out: Vec<i64> = idx
                    .iter()
                    .map(|&i| {
                        out_nulls.push(nulls.is_null(i));
                        values[i]
                    })
                    .collect();
                ColumnArray::Int { values: out, nulls: out_nulls }
            }
            ColumnArray::Real { values, nulls } => {
                let mut out_nulls = NullBitmap::default();
                let out: Vec<f64> = idx
                    .iter()
                    .map(|&i| {
                        out_nulls.push(nulls.is_null(i));
                        values[i]
                    })
                    .collect();
                ColumnArray::Real { values: out, nulls: out_nulls }
            }
            ColumnArray::Text { values, nulls } => {
                let mut out_nulls = NullBitmap::default();
                let out: Vec<String> = idx
                    .iter()
                    .map(|&i| {
                        out_nulls.push(nulls.is_null(i));
                        values[i].clone()
                    })
                    .collect();
                ColumnArray::Text { values: out, nulls: out_nulls }
            }
            ColumnArray::Mixed { values } => {
                ColumnArray::Mixed { values: idx.iter().map(|&i| values[i].clone()).collect() }
            }
        }
    }
}

/// A batch of rows in columnar layout. `rows` is explicit so zero-width
/// chunks (a FROM-less `SELECT`'s single conceptual row) still carry a row
/// count.
#[derive(Debug, Clone)]
pub struct DataChunk {
    pub columns: Vec<ColumnArray>,
    rows: usize,
}

impl DataChunk {
    /// A chunk with the given columns; all columns must share `rows` length.
    pub fn new(columns: Vec<ColumnArray>, rows: usize) -> Self {
        debug_assert!(columns.iter().all(|c| c.len() == rows));
        DataChunk { columns, rows }
    }

    /// A zero-column chunk of `rows` rows (FROM-less SELECT).
    pub fn unit(rows: usize) -> Self {
        DataChunk { columns: Vec::new(), rows }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// True when the chunk has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Builds a chunk from row-oriented data; `width` disambiguates the
    /// zero-row case.
    pub fn from_rows(width: usize, rows: &[Vec<Value>]) -> DataChunk {
        let mut chunk = DataChunk { columns: vec![ColumnArray::default(); width], rows: 0 };
        for row in rows {
            chunk.push_row(row.iter().cloned());
        }
        chunk
    }

    /// Appends one row, its values moved into the columns in order.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = Value>) {
        let mut width = 0;
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push(v);
            width += 1;
        }
        debug_assert_eq!(width, self.width());
        self.rows += 1;
    }

    /// Appends row `i` of `src`, a chunk of the same width, cell by cell.
    pub fn push_row_from(&mut self, src: &DataChunk, i: usize) {
        debug_assert_eq!(src.width(), self.width());
        for (col, from) in self.columns.iter_mut().zip(&src.columns) {
            col.push_from(from, i);
        }
        self.rows += 1;
    }

    /// Materializes row `i` as owned values.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value_at(i)).collect()
    }

    /// Materializes row `i` into `buf`, reusing its allocation.
    pub fn read_row_into(&self, i: usize, buf: &mut Vec<Value>) {
        buf.clear();
        buf.extend(self.columns.iter().map(|c| c.value_at(i)));
    }

    /// A new chunk containing the selected rows, in `idx` order.
    pub fn gather(&self, idx: &[usize]) -> DataChunk {
        DataChunk { columns: self.columns.iter().map(|c| c.gather(idx)).collect(), rows: idx.len() }
    }

    /// Concatenates chunks of identical width into one chunk. Columns whose
    /// storage classes disagree across chunks degrade to `Mixed`.
    pub fn concat(width: usize, chunks: &[DataChunk]) -> DataChunk {
        let mut out = DataChunk::from_rows(width, &[]);
        for chunk in chunks {
            debug_assert_eq!(chunk.width(), width);
            for (col, from) in out.columns.iter_mut().zip(&chunk.columns) {
                col.extend_from(from);
            }
            out.rows += chunk.rows;
        }
        out
    }
}

/// A shared [`DataChunk`] plus an optional selection vector: the unit of
/// data flow between columnar operators.
///
/// `sel == None` means every physical row is live (the common case — scans
/// and keep-everything filters never allocate a selection). `sel == Some`
/// holds the live physical row indices in ascending order. Batch kernels
/// stay selection-unaware: they evaluate every *physical* row (dead-row
/// evaluation is safe because every kernel's errors are value-independent),
/// and consumers read only the live ones. Filters [`refine`](Self::refine)
/// the selection in place — a conjunction of predicates fuses into one
/// selection without materializing intermediate chunks — and
/// [`compact`](Self::compact) gathers the survivors only at pipeline
/// boundaries, or early when fewer than one in [`SELECTION_COMPACT_DENOM`]
/// rows survive ([`should_compact`](Self::should_compact)).
#[derive(Debug, Clone)]
pub struct SelChunk {
    chunk: Arc<DataChunk>,
    sel: Option<Vec<u32>>,
}

impl SelChunk {
    /// Wraps a chunk with every row live.
    pub fn all(chunk: Arc<DataChunk>) -> SelChunk {
        SelChunk { chunk, sel: None }
    }

    /// The underlying physical chunk (dead rows included).
    pub fn chunk(&self) -> &DataChunk {
        &self.chunk
    }

    /// The underlying chunk, `Arc`-shared.
    pub fn shared(&self) -> &Arc<DataChunk> {
        &self.chunk
    }

    /// The selection vector, or `None` when every physical row is live.
    pub fn selection(&self) -> Option<&[u32]> {
        self.sel.as_deref()
    }

    /// Number of live rows.
    pub fn live_rows(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.chunk.rows(),
        }
    }

    /// True when no selection vector is attached (all physical rows live).
    pub fn is_all_live(&self) -> bool {
        self.sel.is_none()
    }

    /// The physical row index of the `k`-th live row.
    pub fn live(&self, k: usize) -> usize {
        match &self.sel {
            Some(s) => s[k] as usize,
            None => k,
        }
    }

    /// Iterates the live physical row indices in ascending order.
    pub fn live_iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.live_rows()).map(|k| self.live(k))
    }

    /// Replaces the selection with `sel` (ascending physical row indices, a
    /// subset of the currently live rows).
    pub fn set_selection(&mut self, sel: Vec<u32>) {
        debug_assert!(sel.windows(2).all(|w| w[0] < w[1]), "selection must be ascending");
        debug_assert!(sel.last().is_none_or(|&i| (i as usize) < self.chunk.rows()));
        self.sel = Some(sel);
    }

    /// Refines the selection in place, keeping the live rows for which
    /// `keep(physical_index)` is true — the fused-filter path: a second
    /// predicate narrows the same selection instead of gathering a copy.
    pub fn refine(&mut self, mut keep: impl FnMut(usize) -> bool) {
        match &mut self.sel {
            Some(s) => s.retain(|&i| keep(i as usize)),
            None => {
                let kept: Vec<u32> =
                    (0..self.chunk.rows() as u32).filter(|&i| keep(i as usize)).collect();
                // A predicate that kept everything leaves the chunk untouched
                // (no selection allocated on the output side either).
                if kept.len() < self.chunk.rows() {
                    self.sel = Some(kept);
                }
            }
        }
    }

    /// True when selectivity has dropped below the lazy-compaction
    /// threshold: fewer than one in [`SELECTION_COMPACT_DENOM`] physical
    /// rows live (and a selection is actually attached).
    pub fn should_compact(&self) -> bool {
        match &self.sel {
            Some(s) => s.len() * SELECTION_COMPACT_DENOM < self.chunk.rows(),
            None => false,
        }
    }

    /// Gathers the live rows into a dense chunk. A fully-live chunk is
    /// returned as the same `Arc`, untouched.
    pub fn compact(&self) -> Arc<DataChunk> {
        match &self.sel {
            None => Arc::clone(&self.chunk),
            Some(s) => {
                let idx: Vec<usize> = s.iter().map(|&i| i as usize).collect();
                Arc::new(self.chunk.gather(&idx))
            }
        }
    }

    /// Compacts in place: the chunk becomes dense and the selection drops.
    pub fn compact_in_place(&mut self) {
        if self.sel.is_some() {
            self.chunk = self.compact();
            self.sel = None;
        }
    }
}

/// Splits row-oriented data into [`BATCH_SIZE`]-row chunks.
pub fn chunk_rows(width: usize, rows: &[Vec<Value>]) -> Vec<DataChunk> {
    rows.chunks(BATCH_SIZE).map(|slice| DataChunk::from_rows(width, slice)).collect()
}

/// Flattens chunks back into row-oriented data.
pub fn chunks_to_rows(chunks: &[DataChunk]) -> Vec<Vec<Value>> {
    let total: usize = chunks.iter().map(|c| c.rows()).sum();
    let mut out = Vec::with_capacity(total);
    for chunk in chunks {
        for i in 0..chunk.rows() {
            out.push(chunk.row(i));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pushes `vals` one by one onto an empty column and checks that every
    /// cell reads back with its storage class, and that `push_from` copies
    /// the column into the same class.
    fn roundtrip(vals: &[Value]) -> ColumnArray {
        let mut col = ColumnArray::default();
        for v in vals {
            col.push(v.clone());
        }
        assert_eq!(col.len(), vals.len());
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(col.is_null(i), v.is_null(), "null flag at {i}");
            let got = col.value_at(i);
            // Exact storage-class identity, not just grouping equality.
            assert_eq!(std::mem::discriminant(&got), std::mem::discriminant(v), "class at {i}");
            assert!(got.grouping_eq(v), "value at {i}: {got:?} vs {v:?}");
            assert_eq!(col.truth_at(i), v.to_truth(), "truth at {i}");
        }
        let mut copy = ColumnArray::default();
        for i in 0..col.len() {
            copy.push_from(&col, i);
        }
        assert_eq!(std::mem::discriminant(&copy), std::mem::discriminant(&col));
        col
    }

    #[test]
    fn builder_specializes_and_roundtrips_each_class() {
        assert!(matches!(roundtrip(&[1.into(), (-5).into(), 0.into()]), ColumnArray::Int { .. }));
        let reals = [Value::Real(1.5), Value::Real(-0.0), Value::Real(f64::NAN)];
        assert!(matches!(roundtrip(&reals), ColumnArray::Real { .. }));
        let texts = [Value::text("a"), Value::text(""), Value::text("0")];
        assert!(matches!(roundtrip(&texts), ColumnArray::Text { .. }));
    }

    #[test]
    fn builder_backfills_leading_nulls() {
        let col = roundtrip(&[Value::Null, Value::Null, Value::Integer(7), Value::Null]);
        assert!(matches!(col, ColumnArray::Int { .. }));
    }

    #[test]
    fn builder_degrades_to_mixed_on_class_conflict() {
        // Int then Real must NOT merge: render distinguishes 2 from 2.0.
        let col = roundtrip(&[Value::Integer(2), Value::Real(2.0), Value::Null, Value::text("2")]);
        assert!(matches!(col, ColumnArray::Mixed { .. }));
        // Text then number degrades too, leading nulls preserved.
        let col = roundtrip(&[Value::Null, Value::text("x"), Value::Integer(1)]);
        assert!(matches!(col, ColumnArray::Mixed { .. }));
        roundtrip(&[Value::Real(0.5), Value::text("y")]);
    }

    #[test]
    fn a_column_of_nulls_takes_the_class_of_its_first_value() {
        // An empty column is Int, and so is one of NULLs only; neither
        // conflicts with the first non-null value.
        let col = roundtrip(&[Value::Null, Value::Null, Value::text("a")]);
        assert!(matches!(col, ColumnArray::Text { .. }), "{col:?}");
        let mut col = ColumnArray::default();
        col.push_null();
        col.push(Value::Real(0.5));
        assert!(matches!(col, ColumnArray::Real { .. }), "{col:?}");
        // A gathered column of NULLs holds no class either.
        let mut nulls = ColumnArray::from_values(&[Value::text("a"), Value::Null]).gather(&[1]);
        nulls.push(Value::Integer(3));
        assert!(matches!(nulls, ColumnArray::Int { .. }), "{nulls:?}");
        assert!(nulls.is_null(0));
    }

    #[test]
    fn all_null_column_reads_back_null() {
        for n in [0usize, 1, 3] {
            let vals = vec![Value::Null; n];
            let col = ColumnArray::from_values(&vals);
            assert_eq!(col.len(), n);
            for i in 0..n {
                assert!(col.is_null(i));
                assert!(col.value_at(i).is_null());
            }
        }
    }

    #[test]
    fn null_bitmap_word_boundaries() {
        // Cross the 64-bit word boundary with an alternating pattern.
        let mut bm = NullBitmap::default();
        for i in 0..130 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 130);
        for i in 0..130 {
            assert_eq!(bm.is_null(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(bm.null_count(), (0..130).filter(|i| i % 3 == 0).count());
        let mut ext = NullBitmap::new_valid(63);
        ext.extend(&bm);
        assert_eq!(ext.len(), 63 + 130);
        assert!(!ext.is_null(62));
        for i in 0..130 {
            assert_eq!(ext.is_null(63 + i), i % 3 == 0, "extended bit {i}");
        }
    }

    #[test]
    fn chunking_handles_boundary_sizes() {
        // 0, 1, BATCH-1, BATCH, BATCH+1 rows must chunk and flatten
        // losslessly — off-by-one slicing bugs can't hide.
        for n in [0usize, 1, BATCH_SIZE - 1, BATCH_SIZE, BATCH_SIZE + 1] {
            let rows: Vec<Vec<Value>> = (0..n)
                .map(|i| {
                    vec![
                        Value::Integer(i as i64),
                        if i % 7 == 0 { Value::Null } else { Value::text(format!("s{i}")) },
                    ]
                })
                .collect();
            let chunks = chunk_rows(2, &rows);
            let expected_chunks = n.div_ceil(BATCH_SIZE);
            assert_eq!(chunks.len(), expected_chunks, "n={n}");
            assert!(chunks.iter().all(|c| c.rows() <= BATCH_SIZE && !c.is_empty()));
            let back = chunks_to_rows(&chunks);
            assert_eq!(back, rows, "n={n}");
        }
    }

    #[test]
    fn zero_width_chunks_preserve_row_count() {
        let rows: Vec<Vec<Value>> = vec![vec![]];
        let chunks = chunk_rows(0, &rows);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].rows(), 1);
        assert_eq!(chunks[0].width(), 0);
        assert_eq!(chunks_to_rows(&chunks), rows);
        assert_eq!(DataChunk::unit(1).rows(), 1);
    }

    #[test]
    fn gather_repeats_and_reorders() {
        let col = ColumnArray::from_values(&[Value::Integer(10), Value::Null, Value::Integer(30)]);
        let g = col.gather(&[2, 2, 0, 1]);
        assert_eq!(g.value_at(0), Value::Integer(30));
        assert_eq!(g.value_at(1), Value::Integer(30));
        assert_eq!(g.value_at(2), Value::Integer(10));
        assert!(g.is_null(3));

        let chunk = DataChunk::from_rows(
            2,
            &[vec![Value::Integer(1), Value::text("a")], vec![Value::Integer(2), Value::text("b")]],
        );
        let picked = chunk.gather(&[1, 0, 1]);
        assert_eq!(picked.rows(), 3);
        assert_eq!(picked.row(0), vec![Value::Integer(2), Value::text("b")]);
        assert_eq!(picked.row(2), vec![Value::Integer(2), Value::text("b")]);
    }

    #[test]
    fn concat_merges_same_class_and_degrades_on_conflict() {
        let a = DataChunk::from_rows(1, &[vec![Value::Integer(1)], vec![Value::Null]]);
        let b = DataChunk::from_rows(1, &[vec![Value::Integer(3)]]);
        let merged = DataChunk::concat(1, &[a.clone(), b]);
        assert_eq!(merged.rows(), 3);
        assert!(matches!(merged.columns[0], ColumnArray::Int { .. }));
        assert_eq!(merged.row(2), vec![Value::Integer(3)]);

        // An all-NULL chunk is Int; concatenated with a Text chunk the
        // column takes the Text class, as `from_rows` of the rows would.
        let nulls = DataChunk::from_rows(1, &[vec![Value::Null]]);
        let texts = DataChunk::from_rows(1, &[vec![Value::text("t")]]);
        let merged = DataChunk::concat(1, &[nulls, texts]);
        assert!(matches!(merged.columns[0], ColumnArray::Text { .. }));
        assert!(merged.columns[0].is_null(0));
        assert_eq!(merged.columns[0].value_at(1), Value::text("t"));
        let ints = DataChunk::from_rows(1, &[vec![Value::Integer(1)]]);
        let texts = DataChunk::from_rows(1, &[vec![Value::text("t")]]);
        assert!(matches!(
            DataChunk::concat(1, &[ints, texts]).columns[0],
            ColumnArray::Mixed { .. }
        ));

        let empty = DataChunk::concat(2, &[]);
        assert_eq!(empty.rows(), 0);
        assert_eq!(empty.width(), 2);
    }

    #[test]
    fn take_at_moves_text_out_without_clone_semantics_change() {
        let mut col = ColumnArray::from_values(&[Value::text("abc"), Value::Null]);
        assert_eq!(col.take_at(0), Value::text("abc"));
        assert!(col.take_at(1).is_null());
        let mut mixed = ColumnArray::from_values(&[Value::Integer(1), Value::text("z")]);
        assert!(matches!(mixed, ColumnArray::Mixed { .. }));
        assert_eq!(mixed.take_at(1), Value::text("z"));
    }

    fn sel_fixture(n: usize) -> SelChunk {
        let rows: Vec<Vec<Value>> = (0..n).map(|i| vec![Value::Integer(i as i64)]).collect();
        SelChunk::all(Arc::new(DataChunk::from_rows(1, &rows)))
    }

    #[test]
    fn selection_starts_all_live_and_refines_in_place() {
        let mut sc = sel_fixture(10);
        assert!(sc.is_all_live());
        assert_eq!(sc.live_rows(), 10);
        assert_eq!(sc.live_iter().collect::<Vec<_>>(), (0..10).collect::<Vec<_>>());

        // A keep-everything refinement must not allocate a selection.
        sc.refine(|_| true);
        assert!(sc.is_all_live());

        // First predicate: keep even rows.
        sc.refine(|i| i % 2 == 0);
        assert_eq!(sc.live_iter().collect::<Vec<_>>(), vec![0, 2, 4, 6, 8]);
        // Conjunctive refinement narrows the *same* selection (fused filter).
        sc.refine(|i| i >= 4);
        assert_eq!(sc.live_iter().collect::<Vec<_>>(), vec![4, 6, 8]);
        assert_eq!(sc.live(1), 6);
        assert_eq!(sc.chunk().rows(), 10, "no physical copy happened");
    }

    #[test]
    fn selection_compact_gathers_live_rows_only() {
        let mut sc = sel_fixture(6);
        sc.refine(|i| i == 1 || i == 4);
        let dense = sc.compact();
        assert_eq!(dense.rows(), 2);
        assert_eq!(dense.row(0), vec![Value::Integer(1)]);
        assert_eq!(dense.row(1), vec![Value::Integer(4)]);
        sc.compact_in_place();
        assert!(sc.is_all_live());
        assert_eq!(sc.live_rows(), 2);
        assert_eq!(sc.chunk().row(1), vec![Value::Integer(4)]);

        // Fully-live compaction is the identity Arc, not a copy.
        let full = sel_fixture(3);
        assert!(Arc::ptr_eq(&full.compact(), full.shared()));
    }

    #[test]
    fn selection_empty_and_threshold() {
        let mut sc = sel_fixture(32);
        assert!(!sc.should_compact());
        sc.refine(|i| i < 8);
        // 8/32 live = exactly 1/4 — above the 1/8 threshold.
        assert!(!sc.should_compact());
        sc.refine(|i| i < 3);
        // 3/32 < 1/8: compaction pays for itself now.
        assert!(sc.should_compact());
        sc.refine(|_| false);
        assert_eq!(sc.live_rows(), 0);
        assert_eq!(sc.live_iter().count(), 0);
        assert_eq!(sc.compact().rows(), 0);
    }

    #[test]
    fn set_selection_replaces_live_set() {
        let mut sc = sel_fixture(5);
        sc.set_selection(vec![0, 3]);
        assert_eq!(sc.live_iter().collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(sc.live_rows(), 2);
    }

    #[test]
    fn read_row_into_reuses_buffer() {
        let chunk = DataChunk::from_rows(
            2,
            &[vec![Value::Integer(1), Value::Null], vec![Value::Integer(2), Value::text("x")]],
        );
        let mut buf = Vec::new();
        chunk.read_row_into(0, &mut buf);
        assert_eq!(buf, vec![Value::Integer(1), Value::Null]);
        chunk.read_row_into(1, &mut buf);
        assert_eq!(buf, vec![Value::Integer(2), Value::text("x")]);
    }
}
