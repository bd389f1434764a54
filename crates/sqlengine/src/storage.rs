//! Table storage: in-memory tables, each stored as a list of shared
//! columnar [`DataChunk`]s, and the databases that snapshot them, plus the
//! hash indexes the physical planner uses for primary-key point lookups and
//! hash joins.
//!
//! A table's chunks are its only copy of the data. Scans hand them out by
//! reference, writes copy or rebuild just the chunks they touch, and a
//! database clone shares every table — so a snapshot costs pointer copies
//! and a commit copies one table's chunk list and PK index. Row-shaped
//! access ([`Table::row`], [`Table::rows`]) reads out of the chunks.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::chunk::{DataChunk, BATCH_SIZE};
use crate::error::{SqlError, SqlResult};
use crate::schema::{DataType, DatabaseSchema, TableSchema};
use crate::value::{CellRef, Value};

/// Row positions returned by a hash probe.
///
/// The common probe resolves to a single pre-sorted bucket inside the map,
/// which is returned by reference; only probes that have to merge several
/// stores (numeric text, NaN corner cases) allocate. Dereferences to
/// `&[usize]`, ascending.
#[derive(Debug, Clone)]
pub enum ProbeHits<'a> {
    /// A borrowed bucket, already in ascending row order.
    Borrowed(&'a [usize]),
    /// A merged result owned by the probe.
    Owned(Vec<usize>),
}

impl Deref for ProbeHits<'_> {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        match self {
            ProbeHits::Borrowed(s) => s,
            ProbeHits::Owned(v) => v,
        }
    }
}

impl ProbeHits<'_> {
    /// The matching row positions, ascending.
    pub fn as_slice(&self) -> &[usize] {
        self
    }
}

/// A single row of values, positionally aligned with the table schema.
pub type Row = Vec<Value>;

/// A multimap from SQL values to row positions whose probe semantics match
/// [`Value::sql_cmp`] equality exactly.
///
/// `sql_cmp` equality is not an equivalence relation — `2 = '2'` and
/// `2 = '2.0'` but `'2' <> '2.0'` — so a single hash key cannot represent
/// it. The map therefore keeps layered stores:
///
/// * finite numbers, hashed by normalized `f64` bits (`-0.0` folded into
///   `0.0`);
/// * text, hashed byte-exact;
/// * a side list of text entries that parse as numbers, scanned linearly
///   when probing with a number (empty for typical corpora, so probes stay
///   O(1));
/// * NaN corner-case lists: under `sql_cmp`'s `partial_cmp` fallback a NaN
///   compares *equal* to every number, so NaN-keyed rows join every numeric
///   probe and a NaN probe joins every numeric row.
///
/// `NULL` keys are never stored and never match — SQL three-valued logic
/// makes `NULL = NULL` unknown, which a join treats as false.
#[derive(Debug, Clone, Default)]
pub struct EqKeyMap {
    /// Finite `Integer`/`Real` rows by normalized bit pattern.
    num: HashMap<u64, Vec<usize>>,
    /// Every `Integer`/`Real` row (including NaN), for NaN probes.
    all_num_rows: Vec<usize>,
    /// `Real` rows whose value is NaN.
    nan_num_rows: Vec<usize>,
    /// Text rows by exact content.
    text: HashMap<String, Vec<usize>>,
    /// Text rows whose content parses as a finite number.
    numeric_texts: Vec<(f64, usize)>,
    /// Text rows whose content parses as NaN.
    nan_text_rows: Vec<usize>,
    len: usize,
}

/// Normalizes a float for key hashing: `-0.0` and `0.0` compare equal under
/// `sql_cmp`, so they must share a bucket.
fn num_key_bits(x: f64) -> u64 {
    if x == 0.0 {
        0.0f64.to_bits()
    } else {
        x.to_bits()
    }
}

/// Inserts `row` into an ascending position list, preserving order. Appends
/// in O(1) when `row` is past the current tail (the scan-order bulk-load
/// case); mid-list insertions (incremental UPDATE maintenance) binary-search
/// for the slot.
fn push_sorted(rows: &mut Vec<usize>, row: usize) {
    match rows.last() {
        Some(&last) if last >= row => {
            let i = rows.partition_point(|&r| r < row);
            rows.insert(i, row);
        }
        _ => rows.push(row),
    }
}

/// Removes one occurrence of `row` from an ascending position list.
fn drop_sorted(rows: &mut Vec<usize>, row: usize) {
    if let Ok(i) = rows.binary_search(&row) {
        rows.remove(i);
    }
}

/// Rewrites an ascending position list through a compaction map (`None`
/// drops the entry). Compaction maps are monotonic, so ascending order is
/// preserved.
fn remap_sorted(rows: &mut Vec<usize>, old_to_new: &[Option<usize>]) {
    let mut keep = 0;
    for i in 0..rows.len() {
        if let Some(new) = old_to_new[rows[i]] {
            rows[keep] = new;
            keep += 1;
        }
    }
    rows.truncate(keep);
}

impl EqKeyMap {
    /// Records `row` under key `v`. `NULL` keys are dropped (they can never
    /// match). Rows may be inserted at any position; every internal list is
    /// kept in ascending row order so probes preserve scan order.
    pub fn insert(&mut self, v: &Value, row: usize) {
        match v {
            Value::Null => return,
            Value::Integer(i) => {
                push_sorted(self.num.entry(num_key_bits(*i as f64)).or_default(), row);
                push_sorted(&mut self.all_num_rows, row);
            }
            Value::Real(r) => {
                if r.is_nan() {
                    push_sorted(&mut self.nan_num_rows, row);
                } else {
                    push_sorted(self.num.entry(num_key_bits(*r)).or_default(), row);
                }
                push_sorted(&mut self.all_num_rows, row);
            }
            Value::Text(s) => {
                push_sorted(self.text.entry(s.clone()).or_default(), row);
                match s.parse::<f64>() {
                    Ok(x) if x.is_nan() => push_sorted(&mut self.nan_text_rows, row),
                    Ok(x) => {
                        let i = self.numeric_texts.partition_point(|&(_, r)| r < row);
                        self.numeric_texts.insert(i, (x, row));
                    }
                    Err(_) => {}
                }
            }
        }
        self.len += 1;
    }

    /// Removes the entry recorded for `(v, row)` — the exact inverse of
    /// [`EqKeyMap::insert`] with the same arguments. `NULL` keys were never
    /// stored, so removing one is a no-op. The incremental UPDATE path uses
    /// remove + insert to move a row between buckets without rebuilding the
    /// map.
    pub fn remove(&mut self, v: &Value, row: usize) {
        match v {
            Value::Null => return,
            Value::Integer(i) => {
                let key = num_key_bits(*i as f64);
                if let Some(b) = self.num.get_mut(&key) {
                    drop_sorted(b, row);
                    if b.is_empty() {
                        self.num.remove(&key);
                    }
                }
                drop_sorted(&mut self.all_num_rows, row);
            }
            Value::Real(r) => {
                if r.is_nan() {
                    drop_sorted(&mut self.nan_num_rows, row);
                } else {
                    let key = num_key_bits(*r);
                    if let Some(b) = self.num.get_mut(&key) {
                        drop_sorted(b, row);
                        if b.is_empty() {
                            self.num.remove(&key);
                        }
                    }
                }
                drop_sorted(&mut self.all_num_rows, row);
            }
            Value::Text(s) => {
                if let Some(b) = self.text.get_mut(s) {
                    drop_sorted(b, row);
                    if b.is_empty() {
                        self.text.remove(s);
                    }
                }
                match s.parse::<f64>() {
                    Ok(x) if x.is_nan() => drop_sorted(&mut self.nan_text_rows, row),
                    Ok(_) => {
                        if let Some(i) = self.numeric_texts.iter().position(|&(_, r)| r == row) {
                            self.numeric_texts.remove(i);
                        }
                    }
                    Err(_) => {}
                }
            }
        }
        self.len -= 1;
    }

    /// Rewrites every stored row position through a monotonic compaction map
    /// (`old_to_new[old] = Some(new)` keeps a row at its shifted position,
    /// `None` drops it) — the incremental DELETE maintenance path. One O(n)
    /// pass over the stored entries; no key is rehashed and no text is
    /// recloned, which is what makes this cheaper than rebuilding.
    pub fn remap(&mut self, old_to_new: &[Option<usize>]) {
        for b in self.num.values_mut() {
            remap_sorted(b, old_to_new);
        }
        self.num.retain(|_, b| !b.is_empty());
        remap_sorted(&mut self.all_num_rows, old_to_new);
        remap_sorted(&mut self.nan_num_rows, old_to_new);
        for b in self.text.values_mut() {
            remap_sorted(b, old_to_new);
        }
        self.text.retain(|_, b| !b.is_empty());
        self.numeric_texts.retain_mut(|e| match old_to_new[e.1] {
            Some(new) => {
                e.1 = new;
                true
            }
            None => false,
        });
        remap_sorted(&mut self.nan_text_rows, old_to_new);
        // Every non-NULL entry lives in exactly one of the numeric or text
        // stores, so the surviving count is recomputable from those two.
        self.len = self.all_num_rows.len() + self.text.values().map(Vec::len).sum::<usize>();
    }

    /// Number of (non-NULL) entries stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row positions whose key is `sql_cmp`-equal to `v`, in ascending order
    /// (matching the emission order of a plain scan). A `NULL` probe matches
    /// nothing.
    ///
    /// When a single internal bucket answers the probe — the overwhelmingly
    /// common case, since numeric text and NaN keys are rare — the bucket is
    /// borrowed rather than copied; see [`ProbeHits`].
    pub fn probe(&self, v: &Value) -> ProbeHits<'_> {
        const EMPTY: &[usize] = &[];
        fn bucket(rows: Option<&Vec<usize>>) -> &[usize] {
            rows.map_or(EMPTY, Vec::as_slice)
        }
        match v {
            Value::Null => ProbeHits::Borrowed(EMPTY),
            Value::Integer(_) | Value::Real(_) => {
                let x = v.as_f64().expect("numeric value");
                if x.is_nan() {
                    // NaN compares equal to every number and numeric text.
                    let mut out = self.all_num_rows.clone();
                    out.extend(self.numeric_texts.iter().map(|(_, r)| *r));
                    out.extend_from_slice(&self.nan_text_rows);
                    out.sort_unstable();
                    ProbeHits::Owned(out)
                } else if self.numeric_texts.is_empty()
                    && self.nan_num_rows.is_empty()
                    && self.nan_text_rows.is_empty()
                {
                    ProbeHits::Borrowed(bucket(self.num.get(&num_key_bits(x))))
                } else {
                    let mut out: Vec<usize> = Vec::new();
                    out.extend_from_slice(bucket(self.num.get(&num_key_bits(x))));
                    out.extend(
                        self.numeric_texts.iter().filter(|(tx, _)| *tx == x).map(|(_, r)| *r),
                    );
                    out.extend_from_slice(&self.nan_num_rows);
                    out.extend_from_slice(&self.nan_text_rows);
                    out.sort_unstable();
                    ProbeHits::Owned(out)
                }
            }
            Value::Text(s) => {
                // Numeric-looking text compares numerically against numbers
                // (but byte-exact against other text).
                match s.parse::<f64>() {
                    Err(_) => ProbeHits::Borrowed(bucket(self.text.get(s))),
                    Ok(x) if x.is_nan() => {
                        let mut out: Vec<usize> = Vec::new();
                        out.extend_from_slice(bucket(self.text.get(s)));
                        out.extend_from_slice(&self.all_num_rows);
                        out.sort_unstable();
                        ProbeHits::Owned(out)
                    }
                    Ok(x) => {
                        let texts = bucket(self.text.get(s));
                        let nums = bucket(self.num.get(&num_key_bits(x)));
                        match (texts.is_empty(), nums.is_empty(), self.nan_num_rows.is_empty()) {
                            (true, true, true) => ProbeHits::Borrowed(EMPTY),
                            (false, true, true) => ProbeHits::Borrowed(texts),
                            (true, false, true) => ProbeHits::Borrowed(nums),
                            _ => {
                                let mut out: Vec<usize> = Vec::new();
                                out.extend_from_slice(texts);
                                out.extend_from_slice(nums);
                                out.extend_from_slice(&self.nan_num_rows);
                                out.sort_unstable();
                                ProbeHits::Owned(out)
                            }
                        }
                    }
                }
            }
        }
    }
}

/// A grouping key [`GroupKeyMap`] can probe with: a row of owned values, or
/// a row of cells borrowed from batch columns.
trait GroupKey {
    /// Number of components.
    fn width(&self) -> usize;
    /// Component `i`, borrowed.
    fn cell(&self, i: usize) -> CellRef<'_>;
    /// The key as owned values, for storing a new group.
    fn to_values(&self) -> Vec<Value>;
}

impl GroupKey for [Value] {
    fn width(&self) -> usize {
        self.len()
    }
    fn cell(&self, i: usize) -> CellRef<'_> {
        CellRef::from(&self[i])
    }
    fn to_values(&self) -> Vec<Value> {
        self.to_vec()
    }
}

impl GroupKey for [CellRef<'_>] {
    fn width(&self) -> usize {
        self.len()
    }
    fn cell(&self, i: usize) -> CellRef<'_> {
        self[i]
    }
    fn to_values(&self) -> Vec<Value> {
        self.iter().map(|c| c.to_value()).collect()
    }
}

/// Hashes a grouping key component-wise into a normalized `u64`, or `None`
/// when the key cannot be hashed (a NaN component: under `total_cmp`'s
/// `partial_cmp` fallback NaN compares equal to *every* number, which breaks
/// the equivalence relation hashing requires).
///
/// Unlike `sql_cmp` equality (which [`EqKeyMap`] serves), the grouping
/// equality used by `GROUP BY`/`DISTINCT` — [`Value::grouping_eq`], i.e.
/// [`Value::total_cmp`]` == Equal` — *is* an equivalence relation for every
/// non-NaN value: NULL groups with NULL, integers and reals compare
/// numerically (`-0.0` folded into `0.0`, so `2` groups with `2.0`), text
/// compares byte-exact, and ranks never cross. Components are hashed
/// directly off the borrowed cells — no per-probe allocation; grouping-equal
/// keys hash identically, and collisions between different keys are resolved
/// by the bucket's candidate list.
fn group_key_hash<K: GroupKey + ?Sized>(key: &K) -> Option<u64> {
    use std::hash::Hash;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for k in 0..key.width() {
        match key.cell(k) {
            CellRef::Null => h.write_u8(0),
            CellRef::Int(i) => {
                h.write_u8(1);
                h.write_u64(num_key_bits(i as f64));
            }
            CellRef::Real(r) if r.is_nan() => return None,
            CellRef::Real(r) => {
                h.write_u8(1);
                h.write_u64(num_key_bits(r));
            }
            CellRef::Text(s) => {
                h.write_u8(2);
                s.hash(&mut h);
            }
        }
    }
    Some(h.finish())
}

/// True when a stored key and a probe key are component-wise
/// [`Value::grouping_eq`].
fn group_keys_eq<K: GroupKey + ?Sized>(stored: &[Value], key: &K) -> bool {
    stored.len() == key.width()
        && stored.iter().enumerate().all(|(i, v)| CellRef::from(v).total_cmp(key.cell(i)).is_eq())
}

/// A [`Hasher`] for keys that are already 64-bit hashes: it passes the
/// value through instead of hashing it a second time.
#[derive(Debug, Clone, Copy, Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("PreHashed only hashes u64 keys")
    }
    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }
}

/// A map from multi-column grouping keys to dense group ids, with the exact
/// first-match semantics of the legacy linear scan
/// (`keys.iter().position(|k| k.grouping_eq-all(key))`) but O(1) per probe.
///
/// Keys are hashed component-wise into buckets of candidate group ids,
/// confirmed by a component-wise `grouping_eq` check — probing is
/// allocation-free, whether the key is a row of values or a row of cells
/// borrowed from batch columns (`GroupKeyMap::get_or_insert_cells`); only
/// a new group's key is copied. NaN components cannot be hashed (NaN groups
/// with every number under `total_cmp`), so NaN-containing keys live on a
/// linear side list and NaN probes fall back to a scan in group order —
/// empty for real corpora, so the hash path stays O(1). When a probe matches
/// both a hashed group and a NaN side group, the *earliest-inserted* group
/// wins, which is precisely what the linear reference returns.
#[derive(Debug, Clone, Default)]
pub struct GroupKeyMap {
    /// Key hash to candidate group ids (insertion order; almost always one).
    /// The keys are already hashes, so the map uses them as they are.
    exact: HashMap<u64, Vec<usize>, BuildHasherDefault<PreHashed>>,
    /// Ids of groups whose key contains a NaN, in insertion order.
    fuzzy: Vec<usize>,
    /// Every group's key, by id (also the NaN-probe fallback scan list).
    keys: Vec<Vec<Value>>,
}

impl GroupKeyMap {
    /// Number of distinct groups.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no group has been inserted.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Every group's key, indexed by group id (insertion order).
    pub fn keys(&self) -> &[Vec<Value>] {
        &self.keys
    }

    /// Every group's key, indexed by group id, by value.
    pub fn into_keys(self) -> Vec<Vec<Value>> {
        self.keys
    }

    /// Read-only probe: the id of the group `key` belongs to, or `None` when
    /// no grouping-equal key has been inserted. Takes `&self`, so any number
    /// of threads may probe one frozen map concurrently (e.g. shared
    /// snapshots in `seed-serve`); construction-time mutation stays confined
    /// to [`GroupKeyMap::get_or_insert`]. Semantics match the mutating probe
    /// exactly, including the NaN side paths.
    pub fn lookup(&self, key: &[Value]) -> Option<usize> {
        self.lookup_key(key)
    }

    fn lookup_key<K: GroupKey + ?Sized>(&self, key: &K) -> Option<usize> {
        match group_key_hash(key) {
            Some(hash) => {
                let exact_hit = self.exact.get(&hash).and_then(|bucket| {
                    bucket.iter().copied().find(|&g| group_keys_eq(&self.keys[g], key))
                });
                // A NaN-keyed group inserted earlier can also claim this key
                // (its NaN components group with any number); the earliest
                // matching group in insertion order wins.
                let fuzzy_hit =
                    self.fuzzy.iter().copied().find(|&g| group_keys_eq(&self.keys[g], key));
                match (exact_hit, fuzzy_hit) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, None) => a,
                    (None, b) => b,
                }
            }
            None => {
                // NaN in the probe key: it can group with any numeric key, so
                // scan all groups in insertion order (the reference order).
                (0..self.keys.len()).find(|&g| group_keys_eq(&self.keys[g], key))
            }
        }
    }

    /// True when a grouping-equal key has been inserted.
    pub fn contains(&self, key: &[Value]) -> bool {
        self.lookup(key).is_some()
    }

    /// Returns the id of the group `key` belongs to, inserting a new group
    /// when no existing key is grouping-equal. The flag is `true` when the
    /// group was newly created. Ids are dense and assigned in first-seen
    /// order, matching the legacy linear scan exactly.
    pub fn get_or_insert(&mut self, key: &[Value]) -> (usize, bool) {
        self.get_or_insert_key(key)
    }

    /// [`GroupKeyMap::get_or_insert`] over cells borrowed from batch
    /// columns: same hash, same `grouping_eq`, same NaN side list, so the
    /// two probes may be mixed on one map. A key already present clones
    /// nothing.
    pub(crate) fn get_or_insert_cells(&mut self, key: &[CellRef<'_>]) -> (usize, bool) {
        self.get_or_insert_key(key)
    }

    fn get_or_insert_key<K: GroupKey + ?Sized>(&mut self, key: &K) -> (usize, bool) {
        if let Some(g) = self.lookup_key(key) {
            return (g, false);
        }
        let id = self.keys.len();
        match group_key_hash(key) {
            Some(hash) => self.exact.entry(hash).or_default().push(id),
            None => self.fuzzy.push(id),
        }
        self.keys.push(key.to_values());
        (id, true)
    }

    /// Convenience for DISTINCT-style dedup: true when `key` had not been
    /// seen before (and records it).
    pub fn insert_if_new(&mut self, key: &[Value]) -> bool {
        self.get_or_insert(key).1
    }
}

/// Distinct values per text column that a [`ValueSample`] holds.
pub const VALUE_SAMPLE_SIZE: usize = 64;

/// One sampled text-column value, rendered and lowercased once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampledValue {
    /// The cell as [`Value::render`] prints it.
    pub text: String,
    /// `text` lowercased with `str::to_lowercase`.
    pub lower: String,
    /// Length of `lower` in chars.
    pub lower_chars: usize,
}

/// The sampled values of one text column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnSample {
    /// Position of the column in the table schema.
    pub column: usize,
    /// The column's first [`VALUE_SAMPLE_SIZE`] distinct non-NULL values, in
    /// first-seen order.
    pub values: Vec<SampledValue>,
}

/// A table's value sample ([`Table::value_sample`]): one [`ColumnSample`]
/// per `Text` column, in schema order. Value retrieval scores question
/// words against it instead of rescanning the rows for every question.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ValueSample {
    columns: Vec<ColumnSample>,
}

impl ValueSample {
    fn build(table: &Table) -> Self {
        let columns = table
            .schema
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.data_type == DataType::Text)
            .map(|(column, _)| ColumnSample {
                column,
                values: table
                    .distinct_cells(column, VALUE_SAMPLE_SIZE)
                    .into_iter()
                    .map(|v| {
                        let text = v.render();
                        let lower = text.to_lowercase();
                        let lower_chars = lower.chars().count();
                        SampledValue { text, lower, lower_chars }
                    })
                    .collect(),
            })
            .collect();
        ValueSample { columns }
    }

    /// The sampled text columns, in schema order.
    pub fn columns(&self) -> &[ColumnSample] {
        &self.columns
    }
}

/// An in-memory table: schema, rows stored as shared columnar chunks, and
/// (when the schema declares a single-column primary key) a hash index over
/// that key, maintained incrementally on every mutation.
#[derive(Debug, Clone)]
pub struct Table {
    pub schema: TableSchema,
    /// The rows in insertion order, [`BATCH_SIZE`] per chunk except the
    /// last, which is never empty: row `p` is row `p % BATCH_SIZE` of chunk
    /// `p / BATCH_SIZE`. Every columnar scan hands these out by reference.
    /// Cloning a table (a database snapshot) shares them; a mutation copies
    /// a shared chunk before changing it ([`Arc::make_mut`]) or replaces it,
    /// so a chunk a snapshot holds never changes. Private so every mutation
    /// flows through [`Table::insert_many`], [`Table::update_rows`] or
    /// [`Table::delete_rows`], which keep the PK index in step.
    chunks: Vec<Arc<DataChunk>>,
    pk_col: Option<usize>,
    pk_index: EqKeyMap,
    /// The table state's version: drawn from one process-wide counter by
    /// [`Table::new`] and by every mutation, and kept by a clone. So a
    /// (table name, generation) pair names one table state within the
    /// process, even across databases and corpora that share table names;
    /// version-keyed caches key entries by it.
    generation: u64,
    /// Lazily built row view ([`Table::rows`]). Clones share it; every
    /// mutation drops it.
    rows: OnceLock<Arc<Vec<Row>>>,
    /// Lazily built value sample ([`Table::value_sample`]). Clones share it;
    /// every mutation drops it.
    value_sample: OnceLock<Arc<ValueSample>>,
}

/// The next table generation: one counter for the whole process, so no
/// two table states share a generation. `fetch_add` alone makes each value
/// unique, and the value publishes no other data, so `Relaxed` suffices.
fn next_generation() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Table {
    pub fn new(schema: TableSchema) -> Self {
        let pk_cols: Vec<usize> = schema
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.primary_key)
            .map(|(i, _)| i)
            .collect();
        // Only single-column keys are indexed; composite keys fall back to scans.
        let pk_col = if pk_cols.len() == 1 { Some(pk_cols[0]) } else { None };
        Table {
            schema,
            chunks: Vec::new(),
            pk_col,
            pk_index: EqKeyMap::default(),
            generation: next_generation(),
            rows: OnceLock::new(),
            value_sample: OnceLock::new(),
        }
    }

    /// Appends a row; see [`Table::insert_many`].
    pub fn insert(&mut self, row: Row) -> SqlResult<()> {
        self.insert_many(vec![row])
    }

    /// Appends rows, all or nothing. Before anything changes, every row's
    /// arity is checked and every primary key is probed against the stored
    /// keys and the keys before it in `rows`: a key `sql_cmp`-equal to one
    /// of those is rejected. NULL keys are not indexed and never collide.
    /// Rows go into the last chunk until it is full, then into a new one.
    /// Takes a new generation once per (non-empty) call.
    pub fn insert_many(&mut self, rows: Vec<Row>) -> SqlResult<()> {
        if rows.is_empty() {
            return Ok(());
        }
        for row in &rows {
            self.check_arity("insert into", row)?;
        }
        if let Some(pk) = self.pk_col {
            self.check_keys(pk, rows.iter().map(|r| &r[pk]), &[])?;
        }
        for row in rows {
            if let Some(pk) = self.pk_col {
                self.pk_index.insert(&row[pk], self.len());
            }
            self.append(|chunk| chunk.push_row(row));
        }
        self.touch();
        Ok(())
    }

    /// Replaces whole rows in place: `changes` maps row positions (strictly
    /// ascending, in range) to their new contents (each arity-checked).
    /// Before anything changes, the new primary keys are checked against the
    /// table as it will be: a key `sql_cmp`-equal to one a row keeps, or two
    /// updated rows meeting on one key, is rejected, while a row keeping its
    /// own key or keys swapped among the updated rows are fine. Positions
    /// are unchanged, so PK maintenance is a per-row remove + insert, and
    /// only the chunks holding changed rows are rebuilt. Takes a new
    /// generation once per (non-empty) call.
    pub fn update_rows(&mut self, changes: Vec<(usize, Row)>) -> SqlResult<()> {
        if changes.is_empty() {
            return Ok(());
        }
        self.check_positions("update", changes.iter().map(|(p, _)| *p))?;
        for (_, row) in &changes {
            self.check_arity("update of", row)?;
        }
        if let Some(pk) = self.pk_col {
            let updated: Vec<usize> = changes.iter().map(|(p, _)| *p).collect();
            self.check_keys(pk, changes.iter().map(|(_, r)| &r[pk]), &updated)?;
            for (pos, row) in &changes {
                let old = self.chunks[pos / BATCH_SIZE].columns[pk].value_at(pos % BATCH_SIZE);
                self.pk_index.remove(&old, *pos);
                self.pk_index.insert(&row[pk], *pos);
            }
        }
        let mut changes = changes.into_iter().peekable();
        while let Some(&(first, _)) = changes.peek() {
            let c = first / BATCH_SIZE;
            let old = &self.chunks[c];
            let mut rebuilt = DataChunk::from_rows(old.width(), &[]);
            for i in 0..old.rows() {
                match changes.next_if(|(p, _)| *p == c * BATCH_SIZE + i) {
                    Some((_, row)) => rebuilt.push_row(row),
                    None => rebuilt.push_row_from(old, i),
                }
            }
            self.chunks[c] = Arc::new(rebuilt);
        }
        self.touch();
        Ok(())
    }

    /// Deletes the rows at `positions` (strictly ascending, in range). The
    /// PK index is remapped through the compaction in one pass — no key is
    /// rehashed — and the chunks are re-sliced from the one holding the
    /// first deleted row; the chunks before it are kept as they are. Takes
    /// a new generation once per (non-empty) call.
    pub fn delete_rows(&mut self, positions: &[usize]) -> SqlResult<()> {
        if positions.is_empty() {
            return Ok(());
        }
        self.check_positions("delete", positions.iter().copied())?;
        let mut doomed = positions.iter().copied().peekable();
        let mut kept = 0usize;
        let old_to_new: Vec<Option<usize>> = (0..self.len())
            .map(|old| {
                if doomed.next_if_eq(&old).is_some() {
                    return None;
                }
                kept += 1;
                Some(kept - 1)
            })
            .collect();
        self.pk_index.remap(&old_to_new);
        let tail = self.chunks.split_off(positions[0] / BATCH_SIZE);
        let mut old = self.len();
        for chunk in &tail {
            for i in 0..chunk.rows() {
                if old_to_new[old].is_some() {
                    self.append(|into| into.push_row_from(chunk, i));
                }
                old += 1;
            }
        }
        self.touch();
        Ok(())
    }

    /// Appends one row to the last chunk, or to a new chunk when the last
    /// is full; `push` writes the row. A chunk a snapshot shares is copied
    /// first.
    fn append(&mut self, push: impl FnOnce(&mut DataChunk)) {
        if self.chunks.last().is_none_or(|c| c.rows() == BATCH_SIZE) {
            self.chunks.push(Arc::new(DataChunk::from_rows(self.schema.columns.len(), &[])));
        }
        push(Arc::make_mut(self.chunks.last_mut().expect("a chunk was just ensured")));
    }

    /// The last step of every mutation: a new generation, and the views
    /// built from the old contents dropped.
    fn touch(&mut self) {
        self.generation = next_generation();
        self.rows.take();
        self.value_sample.take();
    }

    fn check_arity(&self, op: &str, row: &Row) -> SqlResult<()> {
        if row.len() == self.schema.columns.len() {
            return Ok(());
        }
        Err(SqlError::Schema(format!(
            "{op} {} expected {} values, got {}",
            self.schema.name,
            self.schema.columns.len(),
            row.len()
        )))
    }

    /// Rejects positions that are not strictly ascending or not below
    /// [`Table::len`].
    fn check_positions(&self, op: &str, positions: impl Iterator<Item = usize>) -> SqlResult<()> {
        let mut prev: Option<usize> = None;
        for p in positions {
            if prev.is_some_and(|q| q >= p) {
                return Err(SqlError::Schema(format!(
                    "{op} positions for {} must be strictly ascending",
                    self.schema.name
                )));
            }
            if p >= self.len() {
                return Err(SqlError::Schema(format!(
                    "{op} position {p} out of range for {} ({} rows)",
                    self.schema.name,
                    self.len()
                )));
            }
            prev = Some(p);
        }
        Ok(())
    }

    /// The key check of every write: each new key in `keys`, written over
    /// the rows at `replaced` (ascending), is probed against the rows that
    /// keep their keys and against the new keys before it, which is what
    /// re-inserting the written table row by row would find.
    fn check_keys<'k>(
        &self,
        pk: usize,
        keys: impl ExactSizeIterator<Item = &'k Value>,
        replaced: &[usize],
    ) -> SqlResult<()> {
        let last = keys.len().saturating_sub(1);
        let mut new_keys = EqKeyMap::default();
        for (i, key) in keys.enumerate() {
            let hits_kept_row =
                self.pk_index.probe(key).iter().any(|p| replaced.binary_search(p).is_err());
            if hits_kept_row || !new_keys.probe(key).is_empty() {
                return Err(self.pk_collision(pk, key));
            }
            // No key comes after the last one, so it need not be recorded.
            if i < last {
                new_keys.insert(key, i);
            }
        }
        Ok(())
    }

    fn pk_collision(&self, pk: usize, key: &Value) -> SqlError {
        SqlError::Schema(format!(
            "PRIMARY KEY constraint failed: {}.{} = {}",
            self.schema.name,
            self.schema.columns[pk].name,
            key.render()
        ))
    }

    /// The table's value sample: for each `Text` column, what
    /// `distinct_values(column, VALUE_SAMPLE_SIZE)` returns, each value
    /// rendered and lowercased. Built on first use and shared by every clone
    /// of this table state, so all snapshots in which the table is untouched
    /// share one; a mutation drops it, and the next call rebuilds it.
    pub fn value_sample(&self) -> &Arc<ValueSample> {
        self.value_sample.get_or_init(|| Arc::new(ValueSample::build(self)))
    }

    /// The table state's version, unique within the process: every
    /// mutation takes a new one, and a clone keeps it. Exposed so tests
    /// can pin the snapshot-invalidation contract.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The table's storage: [`BATCH_SIZE`]-row [`DataChunk`]s (the last may
    /// be shorter) in insertion order, `Arc`-shared with every snapshot of
    /// this table state, so a scan hands them out without copying.
    pub fn columnar_chunks(&self) -> &[Arc<DataChunk>] {
        &self.chunks
    }

    /// Row `p`, read out of its chunk. Panics when `p` is not below
    /// [`Table::len`].
    pub fn row(&self, p: usize) -> Row {
        self.chunks[p / BATCH_SIZE].row(p % BATCH_SIZE)
    }

    /// Every row, in insertion order. Built from the chunks on the first
    /// call for each table state — every cell is copied — and shared by
    /// clones until a mutation drops it, so engine code reads
    /// [`Table::columnar_chunks`] or [`Table::row`] instead.
    pub fn rows(&self) -> &[Row] {
        self.rows.get_or_init(|| {
            Arc::new(self.chunks.iter().flat_map(|c| (0..c.rows()).map(|i| c.row(i))).collect())
        })
    }

    /// Position of the single-column primary key, if the schema declares one.
    pub fn primary_key_column(&self) -> Option<usize> {
        self.pk_col
    }

    /// Row positions whose primary key is `sql_cmp`-equal to `v`, ascending.
    ///
    /// `None` when the table has no single-column primary key to index —
    /// callers fall back to a full scan.
    pub fn pk_lookup(&self, v: &Value) -> Option<ProbeHits<'_>> {
        self.pk_col?;
        Some(self.pk_index.probe(v))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.chunks.last().map_or(0, |last| (self.chunks.len() - 1) * BATCH_SIZE + last.rows())
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Distinct values of a column, in first-seen order, capped at `limit`.
    pub fn distinct_values(&self, column: &str, limit: usize) -> SqlResult<Vec<Value>> {
        let idx = self
            .schema
            .column_index(column)
            .ok_or_else(|| SqlError::UnknownColumn(format!("{}.{}", self.schema.name, column)))?;
        Ok(self.distinct_cells(idx, limit))
    }

    /// The distinct non-NULL cells of column `idx`, in first-seen order,
    /// capped at `limit`.
    fn distinct_cells(&self, idx: usize, limit: usize) -> Vec<Value> {
        let mut seen = GroupKeyMap::default();
        'scan: for chunk in &self.chunks {
            let col = &chunk.columns[idx];
            for i in 0..chunk.rows() {
                let cell = col.cell(i);
                if matches!(cell, CellRef::Null) {
                    continue;
                }
                if seen.get_or_insert_cells(&[cell]).1 && seen.len() >= limit {
                    break 'scan;
                }
            }
        }
        seen.into_keys().into_iter().flatten().collect()
    }
}

/// The key a table is stored under: its name lowercased. A name with no
/// ASCII uppercase letter is its own key, so a lookup by it allocates
/// nothing.
fn table_key(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// An in-memory database: a named collection of tables plus the schema-level
/// metadata (foreign keys, descriptions).
///
/// Tables are held behind [`Arc`], which makes `Database::clone` a
/// *snapshot* operation: the schema and the table map are copied, but every
/// table's chunks and indexes are shared. A commit clones the database,
/// mutates only the touched tables through `Database::write_table`
/// (copy-on-write), and publishes the clone — readers holding the original
/// see nothing change.
#[derive(Debug, Clone)]
pub struct Database {
    schema: DatabaseSchema,
    tables: BTreeMap<String, Arc<Table>>,
    /// Snapshot epoch: bumped once per committed mutation batch by the
    /// commit path ([`Database::bump_version`]). Orthogonal to per-table
    /// generations — caches that want per-table invalidation key by
    /// [`Table::generation`] instead.
    version: u64,
}

impl Database {
    /// Creates an empty database with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Database { schema: DatabaseSchema::new(name), tables: BTreeMap::new(), version: 0 }
    }

    /// Creates a database from a pre-built schema, with empty tables.
    pub fn from_schema(schema: DatabaseSchema) -> Self {
        let mut tables = BTreeMap::new();
        for t in &schema.tables {
            tables.insert(table_key(&t.name).into_owned(), Arc::new(Table::new(t.clone())));
        }
        Database { schema, tables, version: 0 }
    }

    /// The database name.
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// The full schema (tables, columns, foreign keys, descriptions).
    pub fn schema(&self) -> &DatabaseSchema {
        &self.schema
    }

    /// The snapshot epoch: how many commits produced this state. Stays 0 for
    /// databases mutated directly (bulk loads); the commit path bumps it.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Advances the snapshot epoch by one, returning the new value. Called
    /// by the commit path when publishing a new snapshot.
    pub fn bump_version(&mut self) -> u64 {
        self.version += 1;
        self.version
    }

    /// A stable fingerprint of the current versions (generations) of the
    /// named tables: equal fingerprints witness that every listed table is
    /// at the same version in both snapshots. Version-keyed caches use this
    /// as the data-dependency component of their keys, so entries keep
    /// hitting across snapshots that did not touch a statement's tables and
    /// miss as soon as one did. Unknown tables hash as a sentinel (a later
    /// `CREATE TABLE` changes the fingerprint).
    pub fn dependency_fingerprint<S: AsRef<str>>(
        &self,
        tables: impl IntoIterator<Item = S>,
    ) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for name in tables {
            let name = name.as_ref();
            name.hash(&mut h);
            match self.table(name) {
                Ok(t) => t.generation().hash(&mut h),
                Err(_) => u64::MAX.hash(&mut h),
            }
        }
        h.finish()
    }

    /// Registers a new (empty) table.
    pub fn create_table(&mut self, schema: TableSchema) -> SqlResult<()> {
        self.schema.add_table(schema.clone())?;
        self.tables.insert(table_key(&schema.name).into_owned(), Arc::new(Table::new(schema)));
        Ok(())
    }

    /// Adds a foreign-key edge to the schema.
    pub fn add_foreign_key(&mut self, fk: crate::schema::ForeignKey) {
        self.schema.add_foreign_key(fk);
    }

    /// Immutable access to a table by case-insensitive name.
    pub fn table(&self, name: &str) -> SqlResult<&Table> {
        self.table_arc(name).map(|t| t.as_ref())
    }

    /// The shared handle of a table by case-insensitive name. `Arc::ptr_eq`
    /// on two snapshots' handles witnesses whether the table was
    /// copy-on-write-cloned between them — the COW-granularity contract the
    /// snapshot proptests pin.
    pub fn table_arc(&self, name: &str) -> SqlResult<&Arc<Table>> {
        self.tables
            .get(table_key(name).as_ref())
            .ok_or_else(|| SqlError::UnknownTable(name.to_string()))
    }

    /// Runs `write`, an all-or-nothing mutation such as
    /// [`Table::insert_many`], on a table by case-insensitive name. A table
    /// only this database holds is written in place. A table shared with
    /// other snapshots is the copy-on-write point: `write` runs on a copy
    /// (its chunks still shared, see [`Table`]), which replaces the shared
    /// handle only when `write` succeeds, so a failed write leaves the
    /// database as it was, handles included.
    pub(crate) fn write_table(
        &mut self,
        name: &str,
        write: impl FnOnce(&mut Table) -> SqlResult<()>,
    ) -> SqlResult<()> {
        let slot = self
            .tables
            .get_mut(table_key(name).as_ref())
            .ok_or_else(|| SqlError::UnknownTable(name.to_string()))?;
        match Arc::get_mut(slot) {
            Some(table) => write(table),
            None => {
                let mut copy = Table::clone(slot);
                write(&mut copy)?;
                *slot = Arc::new(copy);
                Ok(())
            }
        }
    }

    /// Inserts a row into a table.
    pub fn insert(&mut self, table: &str, row: Row) -> SqlResult<()> {
        self.write_table(table, |t| t.insert(row))
    }

    /// Inserts many rows into a table, all or nothing
    /// ([`Table::insert_many`]).
    pub fn insert_many(&mut self, table: &str, rows: Vec<Row>) -> SqlResult<()> {
        self.write_table(table, |t| t.insert_many(rows))
    }

    /// Names of every table.
    pub fn table_names(&self) -> Vec<String> {
        self.schema.tables.iter().map(|t| t.name.clone()).collect()
    }

    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, DataType};

    fn client_table() -> TableSchema {
        TableSchema::new(
            "client",
            vec![
                ColumnDef::new("client_id", DataType::Integer).primary_key(),
                ColumnDef::new("gender", DataType::Text),
                ColumnDef::new("birth_date", DataType::Date),
            ],
        )
    }

    #[test]
    fn insert_validates_arity() {
        let mut db = Database::new("financial");
        db.create_table(client_table()).unwrap();
        db.insert("client", vec![1.into(), "F".into(), "1970-01-01".into()]).unwrap();
        let err = db.insert("client", vec![2.into(), "M".into()]).unwrap_err();
        assert!(matches!(err, SqlError::Schema(_)));
        assert_eq!(db.table("client").unwrap().len(), 1);
    }

    #[test]
    fn an_append_copies_a_chunk_a_reader_shares_and_the_readers_chunk_is_unchanged() {
        let mut t = Table::new(client_table());
        let created = t.generation();
        t.insert(vec![1.into(), "F".into(), Value::Null]).unwrap();
        let first = t.generation();
        assert!(first > created, "an insert takes a new generation");
        // A reader (a scan, another snapshot) holds the last chunk.
        let reader = Arc::clone(&t.columnar_chunks()[0]);
        t.insert(vec![2.into(), "M".into(), Value::Null]).unwrap();
        assert!(t.generation() > first, "every insert takes a new generation");
        let after = Arc::clone(&t.columnar_chunks()[0]);
        assert_eq!(after.rows(), 2, "the table sees the new row");
        assert!(!Arc::ptr_eq(&reader, &after), "the shared chunk was copied, not changed");
        assert_eq!(reader.rows(), 1);
        assert_eq!(reader.row(0), vec![1.into(), "F".into(), Value::Null]);
        // With no reader left, the next append writes the chunk in place.
        drop((reader, after));
        let unshared = Arc::as_ptr(&t.columnar_chunks()[0]);
        t.insert(vec![3.into(), "F".into(), Value::Null]).unwrap();
        assert_eq!(Arc::as_ptr(&t.columnar_chunks()[0]), unshared);
        assert_eq!(t.row(2), vec![3.into(), "F".into(), Value::Null]);
    }

    #[test]
    fn value_sample_holds_distinct_values_and_every_mutation_drops_it() {
        let mut t = Table::new(TableSchema::new(
            "branch",
            vec![
                ColumnDef::new("id", DataType::Integer).primary_key(),
                ColumnDef::new("city", DataType::Text),
                ColumnDef::new("opened", DataType::Date),
                ColumnDef::new("note", DataType::Text),
            ],
        ));
        let cities = ["Písek", "JESENÍK", "Písek", "İzmir"];
        for (i, city) in cities.iter().enumerate() {
            let note = if i == 1 { Value::Integer(7) } else { Value::Null };
            t.insert(vec![(i as i64).into(), (*city).into(), "2020-01-01".into(), note]).unwrap();
        }
        let sample = t.value_sample().clone();
        let columns: Vec<usize> = sample.columns().iter().map(|c| c.column).collect();
        assert_eq!(columns, vec![1, 3], "one sample per text column, in schema order");
        for c in sample.columns() {
            let name = &t.schema.columns[c.column].name;
            let expected: Vec<String> = t
                .distinct_values(name, VALUE_SAMPLE_SIZE)
                .unwrap()
                .iter()
                .map(Value::render)
                .collect();
            let texts: Vec<&String> = c.values.iter().map(|v| &v.text).collect();
            assert_eq!(texts, expected.iter().collect::<Vec<_>>());
            for v in &c.values {
                assert_eq!(v.lower, v.text.to_lowercase());
                assert_eq!(v.lower_chars, v.lower.chars().count());
            }
        }
        assert_eq!(sample.columns()[0].values[2].lower_chars, 6, "'İ' lowercases to two chars");

        let clone = t.clone();
        assert!(Arc::ptr_eq(clone.value_sample(), &sample), "clones share the built sample");
        let mutations: [fn(&mut Table); 3] = [
            |t| t.insert(vec![9.into(), "Brno".into(), Value::Null, Value::Null]).unwrap(),
            |t| {
                t.update_rows(vec![(0, vec![0.into(), "Kolín".into(), Value::Null, Value::Null])])
                    .unwrap()
            },
            |t| t.delete_rows(&[1]).unwrap(),
        ];
        for mutate in mutations {
            let mut copy = clone.clone();
            mutate(&mut copy);
            assert!(!Arc::ptr_eq(copy.value_sample(), &sample), "a mutation drops the sample");
            assert_eq!(**copy.value_sample(), ValueSample::build(&copy));
        }
    }

    #[test]
    fn unknown_table_errors() {
        let db = Database::new("x");
        assert!(matches!(db.table("nope"), Err(SqlError::UnknownTable(_))));
    }

    #[test]
    fn table_names_resolve_case_insensitively() {
        let mut db = Database::new("financial");
        db.create_table(client_table()).unwrap();
        db.create_table(TableSchema::new("Loan", vec![ColumnDef::new("id", DataType::Integer)]))
            .unwrap();
        for (table, names) in
            [("client", ["client", "CLIENT", "Client"]), ("Loan", ["loan", "LOAN", "Loan"])]
        {
            let stored = db.table_arc(table).unwrap();
            for name in names {
                assert!(Arc::ptr_eq(db.table_arc(name).unwrap(), stored), "{name}");
                assert!(std::ptr::eq(db.table(name).unwrap(), stored.as_ref()), "{name}");
            }
        }
        db.insert("LOAN", vec![1.into()]).unwrap();
        assert_eq!(db.table("loan").unwrap().len(), 1);
        for name in ["clients", "CLIENTS", "lo an", ""] {
            assert_eq!(db.table(name).unwrap_err(), SqlError::UnknownTable(name.to_string()));
            assert!(matches!(db.table_arc(name), Err(SqlError::UnknownTable(_))), "{name}");
            assert!(matches!(db.insert(name, vec![1.into()]), Err(SqlError::UnknownTable(_))));
        }
    }

    #[test]
    fn distinct_values_skip_nulls_and_duplicates() {
        let mut db = Database::new("financial");
        db.create_table(client_table()).unwrap();
        for (i, g) in ["F", "M", "F", "M", "F"].iter().enumerate() {
            db.insert("client", vec![(i as i64).into(), (*g).into(), Value::Null]).unwrap();
        }
        db.insert("client", vec![99.into(), Value::Null, Value::Null]).unwrap();
        let vals = db.table("client").unwrap().distinct_values("gender", 10).unwrap();
        assert_eq!(vals, vec![Value::text("F"), Value::text("M")]);
    }

    #[test]
    fn distinct_values_respects_limit() {
        let mut db = Database::new("d");
        db.create_table(client_table()).unwrap();
        for i in 0..50 {
            db.insert("client", vec![i.into(), format!("g{i}").into(), Value::Null]).unwrap();
        }
        let vals = db.table("client").unwrap().distinct_values("gender", 5).unwrap();
        assert_eq!(vals.len(), 5);
    }

    #[test]
    fn from_schema_builds_all_tables() {
        let mut schema = DatabaseSchema::new("db");
        schema.add_table(client_table()).unwrap();
        let db = Database::from_schema(schema);
        assert!(db.table("client").unwrap().is_empty());
        assert_eq!(db.table_names(), vec!["client".to_string()]);
    }

    #[test]
    fn eq_key_map_null_keys_never_match() {
        let mut m = EqKeyMap::default();
        m.insert(&Value::Null, 0);
        m.insert(&Value::Integer(1), 1);
        assert_eq!(m.len(), 1, "NULL keys are not stored");
        assert!(m.probe(&Value::Null).is_empty(), "NULL probes match nothing, not even NULL");
        assert_eq!(m.probe(&Value::Integer(1)).as_slice(), &[1]);
    }

    #[test]
    fn eq_key_map_integer_real_cross_match() {
        let mut m = EqKeyMap::default();
        m.insert(&Value::Integer(2), 0);
        m.insert(&Value::Real(2.0), 1);
        m.insert(&Value::Real(-0.0), 2);
        assert_eq!(m.probe(&Value::Integer(2)).as_slice(), &[0, 1]);
        assert_eq!(m.probe(&Value::Real(2.0)).as_slice(), &[0, 1]);
        // -0.0 and 0.0 compare equal under sql_cmp, so they share a bucket.
        assert_eq!(m.probe(&Value::Integer(0)).as_slice(), &[2]);
        assert_eq!(m.probe(&Value::Real(0.0)).as_slice(), &[2]);
        // No numeric text and no NaNs stored: probes borrow the bucket.
        assert!(matches!(m.probe(&Value::Integer(2)), ProbeHits::Borrowed(_)));
    }

    #[test]
    fn eq_key_map_numeric_text_matches_sql_cmp() {
        let mut m = EqKeyMap::default();
        m.insert(&Value::text("2"), 0);
        m.insert(&Value::text("2.0"), 1);
        m.insert(&Value::Integer(2), 2);
        m.insert(&Value::text("abc"), 3);
        // Numbers compare numerically against numeric-looking text...
        assert_eq!(m.probe(&Value::Integer(2)).as_slice(), &[0, 1, 2]);
        // ...but text compares byte-exact against text: '2' matches the
        // stored '2' and the number, never '2.0'.
        assert_eq!(m.probe(&Value::text("2")).as_slice(), &[0, 2]);
        assert_eq!(m.probe(&Value::text("2.0")).as_slice(), &[1, 2]);
        // Non-numeric text only matches exactly, borrowing its bucket.
        assert_eq!(m.probe(&Value::text("abc")).as_slice(), &[3]);
        assert!(matches!(m.probe(&Value::text("abc")), ProbeHits::Borrowed(_)));
        assert!(m.probe(&Value::text("ab")).is_empty());
    }

    #[test]
    fn eq_key_map_probe_order_is_ascending() {
        let mut m = EqKeyMap::default();
        for i in 0..5 {
            m.insert(&Value::Integer(7), i);
        }
        m.insert(&Value::text("7"), 5);
        assert_eq!(m.probe(&Value::Integer(7)).as_slice(), &[0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn pk_lookup_uses_index() {
        let mut db = Database::new("d");
        db.create_table(client_table()).unwrap();
        for i in 0..10i64 {
            db.insert("client", vec![i.into(), "F".into(), Value::Null]).unwrap();
        }
        let t = db.table("client").unwrap();
        assert_eq!(t.primary_key_column(), Some(0));
        assert_eq!(t.pk_lookup(&Value::Integer(7)).unwrap().as_slice(), &[7]);
        assert!(t.pk_lookup(&Value::Integer(99)).unwrap().is_empty());
        assert!(t.pk_lookup(&Value::Null).unwrap().is_empty());
    }

    #[test]
    fn group_key_map_first_seen_ids_and_cross_type_numbers() {
        let mut m = GroupKeyMap::default();
        assert_eq!(m.get_or_insert(&[Value::Integer(2), Value::text("a")]), (0, true));
        // 2.0 groups with 2; -0.0 with 0; NULL with NULL.
        assert_eq!(m.get_or_insert(&[Value::Real(2.0), Value::text("a")]), (0, false));
        assert_eq!(m.get_or_insert(&[Value::Null, Value::Null]), (1, true));
        assert_eq!(m.get_or_insert(&[Value::Null, Value::Null]), (1, false));
        assert_eq!(m.get_or_insert(&[Value::Real(-0.0), Value::text("a")]), (2, true));
        assert_eq!(m.get_or_insert(&[Value::Integer(0), Value::text("a")]), (2, false));
        // Text is byte-exact: '2' never groups with 2.
        assert_eq!(m.get_or_insert(&[Value::text("2"), Value::text("a")]), (3, true));
        assert_eq!(m.len(), 4);
        assert_eq!(m.keys()[0], vec![Value::Integer(2), Value::text("a")]);
    }

    #[test]
    fn group_key_map_nan_matches_the_linear_reference() {
        // Under total_cmp NaN compares equal to every number, so a NaN key
        // must join the earliest numeric group — in either insertion order.
        let mut m = GroupKeyMap::default();
        assert_eq!(m.get_or_insert(&[Value::Real(5.0)]), (0, true));
        assert_eq!(m.get_or_insert(&[Value::Real(f64::NAN)]), (0, false));

        let mut m = GroupKeyMap::default();
        assert_eq!(m.get_or_insert(&[Value::Real(f64::NAN)]), (0, true));
        assert_eq!(m.get_or_insert(&[Value::Real(5.0)]), (0, false));
        assert_eq!(m.get_or_insert(&[Value::text("x")]), (1, true));
        assert_eq!(m.get_or_insert(&[Value::Null]), (2, true));
    }

    #[test]
    fn group_key_map_cell_probes_match_value_probes() {
        // Borrowed-cell probes and owned-value probes share the hash, the
        // grouping equality and the NaN side list, so they may be mixed on
        // one map and assign the ids a value-only map assigns.
        let keys = [
            vec![Value::Integer(2), Value::text("a")],
            vec![Value::Real(2.0), Value::text("a")],
            vec![Value::Null, Value::Null],
            vec![Value::Real(f64::NAN), Value::text("a")],
            vec![Value::Real(-0.0), Value::text("b")],
            vec![Value::Integer(0), Value::text("b")],
            vec![Value::text("2"), Value::text("a")],
            vec![Value::Real(7.5), Value::text("a")],
        ];
        let mut by_value = GroupKeyMap::default();
        let mut mixed = GroupKeyMap::default();
        for (i, key) in keys.iter().enumerate() {
            let want = by_value.get_or_insert(key);
            let got = if i % 2 == 0 {
                let cells: Vec<CellRef<'_>> = key.iter().map(CellRef::from).collect();
                mixed.get_or_insert_cells(&cells)
            } else {
                mixed.get_or_insert(key)
            };
            assert_eq!(got, want, "{key:?}");
        }
        assert_eq!(mixed.keys(), by_value.keys());
        assert_eq!(mixed.into_keys(), by_value.keys().to_vec());
    }

    #[test]
    fn group_key_map_shared_lookup_matches_mutating_probe() {
        let mut m = GroupKeyMap::default();
        m.get_or_insert(&[Value::Integer(2), Value::text("a")]);
        m.get_or_insert(&[Value::Null]);
        m.get_or_insert(&[Value::Real(f64::NAN)]);
        // &self probes agree with the construction-time ids, including the
        // cross-type and NaN side paths.
        assert_eq!(m.lookup(&[Value::Real(2.0), Value::text("a")]), Some(0));
        assert_eq!(m.lookup(&[Value::Null]), Some(1));
        assert_eq!(m.lookup(&[Value::Real(7.5)]), Some(2), "NaN group claims every number");
        assert_eq!(m.lookup(&[Value::text("missing")]), None);
        assert!(m.contains(&[Value::Integer(2), Value::text("a")]));
        // A frozen map can be probed from many threads at once.
        let shared = std::sync::Arc::new(m);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = std::sync::Arc::clone(&shared);
                std::thread::spawn(move || m.lookup(&[Value::Integer(2), Value::text("a")]))
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), Some(0));
        }
    }

    #[test]
    fn pk_lookup_absent_without_single_pk() {
        let mut db = Database::new("d");
        db.create_table(TableSchema::new(
            "t",
            vec![ColumnDef::new("a", DataType::Integer), ColumnDef::new("b", DataType::Text)],
        ))
        .unwrap();
        db.insert("t", vec![1.into(), "x".into()]).unwrap();
        let t = db.table("t").unwrap();
        assert_eq!(t.primary_key_column(), None);
        assert!(t.pk_lookup(&Value::Integer(1)).is_none());
    }

    #[test]
    fn insert_rejects_sql_equal_primary_keys_and_changes_nothing() {
        let mut t = Table::new(client_table());
        t.insert(vec![1.into(), "F".into(), Value::Null]).unwrap();
        let generation = t.generation();
        // `sql_cmp` equality: 1, 1.0 and '1' all collide with key 1.
        for key in [Value::Integer(1), Value::Real(1.0), Value::text("1")] {
            let err = t.insert(vec![key.clone(), "M".into(), Value::Null]).unwrap_err();
            assert!(matches!(err, SqlError::Schema(_)), "{key:?}: {err}");
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.generation(), generation, "a rejected insert is no mutation");
        // NULL keys are not indexed, so they never collide.
        t.insert(vec![Value::Null, "M".into(), Value::Null]).unwrap();
        t.insert(vec![Value::Null, "F".into(), Value::Null]).unwrap();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn update_rejects_key_collisions_but_allows_kept_and_swapped_keys() {
        let mut t = Table::new(client_table());
        for id in 1..=3i64 {
            t.insert(vec![id.into(), "F".into(), Value::Null]).unwrap();
        }
        let row = |id: i64| vec![id.into(), "M".into(), Value::Null];
        let generation = t.generation();
        // Onto the key of a row the update leaves in place.
        assert!(t.update_rows(vec![(1, row(1))]).is_err());
        // Two updated rows onto one new key.
        assert!(t.update_rows(vec![(0, row(7)), (1, row(7))]).is_err());
        assert_eq!(t.generation(), generation, "a rejected update is no mutation");
        assert!(t.rows().iter().all(|r| r[1] == Value::text("F")));
        // Keeping its own key, and swapping keys among updated rows, is fine.
        t.update_rows(vec![(2, row(3))]).unwrap();
        let kept = t.generation();
        assert!(kept > generation, "an update takes a new generation");
        t.update_rows(vec![(0, row(2)), (1, row(1))]).unwrap();
        assert!(t.generation() > kept, "so does the next one");
        let keys: Vec<&Value> = t.rows().iter().map(|r| &r[0]).collect();
        assert_eq!(keys, [&Value::Integer(2), &Value::Integer(1), &Value::Integer(3)]);
        assert_eq!(t.pk_lookup(&Value::Integer(2)).unwrap().as_slice(), &[0]);
        assert_eq!(t.pk_lookup(&Value::Integer(1)).unwrap().as_slice(), &[1]);
    }
}
