//! Tables: row storage, primary/secondary/ordered indexes, the cost-based
//! query planner, predicate scans, and aggregates.
//!
//! Every read goes through a planning pass ([`Table::plan`]) that scores
//! *all* applicable access paths with the cost model ([`crate::cost`]) fed
//! by incrementally maintained index statistics ([`crate::stats`]), then
//! executes the cheapest one. Planned paths are equivalence-gated: the
//! full predicate is re-applied to candidates (unless the plan provably
//! consumes it), so a plan changes how rows are *found*, never which rows
//! come back or in what order.
//!
//! A table keeps one copy of each row, column by column: one dense vector a
//! column, typed by the column's declared type — an integer of the narrowest
//! width (`i8` to `i64`) that holds every value the column has been written
//! since it was built or compacted, the bits of an `f64`, a byte or a string
//! pointer a cell — beside bitmaps for NULLs and for the `Int`s a float
//! column holds. A cell holds a scalar [`Token`], NULL being `Token::Unit`,
//! and decodes to exactly the token written into it.
//! Its indexes hold row positions only and decode the indexed columns to
//! hash and compare (see [`confluence_core::postable`]); an ordered index
//! keeps each partition's positions sorted by the range column, which it
//! too reads out of the rows.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Bound;
use std::sync::Arc;

use confluence_core::error::{Error, Result};
use confluence_core::postable::{KeyHasher, PosTable};
use confluence_core::token::Token;

use crate::cost;
use crate::expr::{CmpOp, Expr, ReadCell};
use crate::plan::{IndexRef, Plan, PlanNode};
use crate::schema::{Schema, ValueType};
use crate::stats::{IndexStats, IndexStatsView, TableStats};

/// A bitmap that costs nothing until a bit is set: a bit past its end is
/// clear.
#[derive(Debug, Default)]
struct Bits(Vec<u64>);

impl Bits {
    fn get(&self, i: usize) -> bool {
        self.0.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    fn set(&mut self, i: usize, on: bool) {
        let (word, bit) = (i / 64, 1 << (i % 64));
        if on && word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        if let Some(w) = self.0.get_mut(word) {
            *w = if on { *w | bit } else { *w & !bit };
        }
    }
}

/// One column's cells in a dense vector typed by the column's declared type.
/// An `Int` column starts at `i8` and widens, when a value does not fit, to
/// the narrowest of `i16`, `i32` and `i64` that holds every value written.
#[derive(Debug)]
enum Cells {
    I8(Vec<i8>),
    I16(Vec<i16>),
    I32(Vec<i32>),
    I64(Vec<i64>),
    /// `f64` bits, or an `i64`'s where `ints` is set: an `Int` written into
    /// a float column comes back an `Int`, past 2^53 too.
    Float { bits: Vec<u64>, ints: Bits },
    Bool(Vec<bool>),
    Str(Vec<Option<Arc<String>>>),
}

/// Append `v` to `c` if it is an integer that fits its width, or else a
/// blank cell, and say which.
fn push_fit<T: TryFrom<i64> + Default>(c: &mut Vec<T>, v: &Token) -> bool {
    let n = if let &Token::Int(i) = v { T::try_from(i).ok() } else { None };
    let fits = n.is_some();
    c.push(n.unwrap_or_default());
    fits
}

/// Write `i` at `pos` of `c` if it fits its width, and say whether it did.
fn put_fit<T: TryFrom<i64>>(c: &mut [T], pos: usize, i: i64) -> bool {
    T::try_from(i).map(|n| c[pos] = n).is_ok()
}

/// The cells of `c`, each converted to the wider `U`.
fn widened<T: Copy, U: From<T>>(c: &[T]) -> Vec<U> {
    c.iter().map(|&n| U::from(n)).collect()
}

/// A column: its cells and which of them are NULL.
#[derive(Debug)]
struct Column {
    cells: Cells,
    nulls: Bits,
}

impl Column {
    fn new(ty: ValueType) -> Column {
        let cells = match ty {
            ValueType::Int => Cells::I8(Vec::new()),
            ValueType::Float => Cells::Float { bits: Vec::new(), ints: Bits::default() },
            ValueType::Bool => Cells::Bool(Vec::new()),
            ValueType::Str => Cells::Str(Vec::new()),
        };
        Column { cells, nulls: Bits::default() }
    }

    fn get(&self, pos: usize) -> Token {
        if self.nulls.get(pos) {
            return Token::Unit;
        }
        match &self.cells {
            Cells::I8(v) => Token::Int(v[pos].into()),
            Cells::I16(v) => Token::Int(v[pos].into()),
            Cells::I32(v) => Token::Int(v[pos].into()),
            Cells::I64(v) => Token::Int(v[pos]),
            Cells::Float { bits, ints } if ints.get(pos) => Token::Int(bits[pos] as i64),
            Cells::Float { bits, .. } => Token::Float(f64::from_bits(bits[pos])),
            Cells::Bool(v) => Token::Bool(v[pos]),
            Cells::Str(v) => v[pos].clone().map_or(Token::Unit, Token::Str),
        }
    }

    /// Write `v`, a value of the column's type or NULL, at `pos`.
    fn set(&mut self, pos: usize, v: &Token) {
        self.nulls.set(pos, v.is_unit());
        match (&mut self.cells, v) {
            (Cells::I8(c), &Token::Int(i)) => if !put_fit(c, pos, i) { self.widen(pos, i) },
            (Cells::I16(c), &Token::Int(i)) => if !put_fit(c, pos, i) { self.widen(pos, i) },
            (Cells::I32(c), &Token::Int(i)) => if !put_fit(c, pos, i) { self.widen(pos, i) },
            (Cells::I64(c), &Token::Int(i)) => c[pos] = i,
            (Cells::Float { bits, ints }, Token::Int(i)) => {
                bits[pos] = *i as u64;
                ints.set(pos, true);
            }
            (Cells::Float { bits, ints }, Token::Float(f)) => {
                bits[pos] = f.to_bits();
                ints.set(pos, false);
            }
            (Cells::Bool(c), Token::Bool(b)) => c[pos] = *b,
            (Cells::Str(c), Token::Str(s)) => c[pos] = Some(s.clone()),
            (Cells::Str(c), Token::Unit) => c[pos] = None,
            (_, Token::Unit) => {}
            (_, v) => unreachable!("the schema admits no {v} here"),
        }
    }

    /// Convert the integer cells straight to the narrowest width that holds
    /// `i` as well, then write `i` at `pos`. A column widens at most three
    /// times between compactions, so this stays off the write path.
    #[cold]
    #[inline(never)]
    fn widen(&mut self, pos: usize, i: i64) {
        let (to16, to32) = (i16::try_from(i).is_ok(), i32::try_from(i).is_ok());
        self.cells = match &self.cells {
            Cells::I8(c) if to16 => Cells::I16(widened(c)),
            Cells::I8(c) if to32 => Cells::I32(widened(c)),
            Cells::I16(c) if to32 => Cells::I32(widened(c)),
            Cells::I8(c) => Cells::I64(widened(c)),
            Cells::I16(c) => Cells::I64(widened(c)),
            Cells::I32(c) => Cells::I64(widened(c)),
            _ => unreachable!("only a narrow integer column widens"),
        };
        self.set(pos, &Token::Int(i));
    }

    /// Append `v`, a value of the column's type or NULL, as cell `pos`.
    fn push(&mut self, pos: usize, v: &Token) {
        match (&mut self.cells, v) {
            (Cells::I8(c), _) => if push_fit(c, v) { return },
            (Cells::I16(c), _) => if push_fit(c, v) { return },
            (Cells::I32(c), _) => if push_fit(c, v) { return },
            (Cells::I64(c), _) => if push_fit(c, v) { return },
            (Cells::Float { bits, .. }, Token::Float(f)) => return bits.push(f.to_bits()),
            (Cells::Bool(c), Token::Bool(b)) => return c.push(*b),
            (Cells::Str(c), Token::Str(s)) => return c.push(Some(s.clone())),
            // NULL, an `Int` in a float column, which a bit marks too, or
            // one too wide for its integer column: a blank cell (`push_fit`
            // leaves one) for `set` to fill, widening the column.
            (Cells::Float { bits, .. }, _) => bits.push(0),
            (Cells::Bool(c), _) => c.push(false),
            (Cells::Str(c), _) => c.push(None),
        }
        self.set(pos, v);
    }
}

/// Row storage: a column per schema column, a slot per row, and which slots
/// are dead. A deleted row keeps its slot until compaction, so positions —
/// storage order — never shift under an index.
#[derive(Debug)]
struct Rows {
    columns: Vec<Column>,
    slots: usize,
    dead: Bits,
}

impl Rows {
    fn new(schema: &Schema) -> Rows {
        let columns = schema.columns().iter().map(|c| Column::new(c.ty)).collect();
        Rows { columns, slots: 0, dead: Bits::default() }
    }

    /// The value the row at `pos` holds in column `col`, exactly as written:
    /// every read of a cell but [`Rows::cmp`]'s of two integers decodes here.
    fn cell(&self, pos: usize, col: usize) -> Token {
        self.columns[col].get(pos)
    }

    /// How the values rows `a` and `b` hold in column `col` compare, by
    /// [`Token`]'s order; two integers are compared at the column's width,
    /// without decoding.
    fn cmp(&self, a: usize, b: usize, col: usize) -> Ordering {
        let c = &self.columns[col];
        match &c.cells {
            _ if c.nulls.get(a) || c.nulls.get(b) => c.get(a).cmp(&c.get(b)),
            Cells::I8(v) => v[a].cmp(&v[b]),
            Cells::I16(v) => v[a].cmp(&v[b]),
            Cells::I32(v) => v[a].cmp(&v[b]),
            Cells::I64(v) => v[a].cmp(&v[b]),
            _ => c.get(a).cmp(&c.get(b)),
        }
    }

    /// Swap `v` with what column `col` of the row at `pos` holds.
    fn swap(&mut self, pos: usize, col: usize, v: &mut Token) {
        let old = self.cell(pos, col);
        self.columns[col].set(pos, v);
        *v = old;
    }

    /// Append a validated row.
    fn push(&mut self, row: &[Token]) {
        let pos = self.slots;
        self.columns.iter_mut().zip(row).for_each(|(c, v)| c.push(pos, v));
        self.slots += 1;
    }

    /// Mark the row at `pos` dead and drop the strings it holds; nothing
    /// reads a dead row's cells.
    fn kill(&mut self, pos: usize) {
        self.dead.set(pos, true);
        for c in &mut self.columns {
            if let Cells::Str(strings) = &mut c.cells {
                strings[pos] = None;
            }
        }
    }

    /// Live positions, ascending.
    fn positions(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.slots).filter(|&pos| !self.dead.get(pos))
    }
}

/// A row: one value per schema column, in column order.
pub type Row = Vec<Token>;

/// A live row, read where the table stores it: [`RowRef::cell`] decodes one
/// column, exactly as written.
#[derive(Clone, Copy)]
pub struct RowRef<'t> {
    rows: &'t Rows,
    pos: usize,
}

impl<'t> RowRef<'t> {
    /// The value in column `col` (panics past the schema's last column).
    pub fn cell(&self, col: usize) -> Token {
        self.rows.cell(self.pos, col)
    }

    /// The values in column order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Token> + 't {
        let RowRef { rows, pos } = *self;
        (0..rows.columns.len()).map(move |col| rows.cell(pos, col))
    }

    /// The row as an owned [`Row`].
    pub fn to_vec(&self) -> Row {
        self.iter().collect()
    }
}

impl ReadCell for RowRef<'_> {
    fn cell(&self, col: usize) -> Token {
        RowRef::cell(self, col)
    }
}

impl fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A key: the values of some columns, in order, as often as asked.
trait Key: Iterator<Item = Token> + Clone {}
impl<I: Iterator<Item = Token> + Clone> Key for I {}

/// The values the row at `pos` holds in `cols`, in that order.
fn cells<'a>(rows: &'a Rows, pos: usize, cols: &'a [usize]) -> impl Key + 'a {
    cols.iter().map(move |&c| rows.cell(pos, c))
}

/// The values of `row` in `cols`, in that order.
fn picked<'a>(row: &'a [Token], cols: &'a [usize]) -> impl Key + 'a {
    cols.iter().map(|&c| row[c].clone())
}

/// Hash of a key, value by value: a probe key and the indexed columns of a
/// row that carries it hash alike (and `Int 3` like `Float 3.0`).
fn hash_key(key: impl Key) -> u64 {
    let mut hasher = KeyHasher::new();
    key.for_each(|v| v.hash(&mut hasher));
    hasher.finish()
}

/// Buckets of positions partitioned by the value of `cols`: a position
/// table of bucket ids, each keyed by `cols` of its bucket's first row,
/// over a slab of buckets.
#[derive(Debug, Default)]
struct Partitions {
    cols: Vec<usize>,
    dir: PosTable,
    slab: Vec<Vec<u32>>,
    free: Vec<u32>,
}

impl Partitions {
    /// The bucket whose first row `is_key` accepts, among those `hash` lists.
    fn find(&self, hash: u64, is_key: impl Fn(usize) -> bool) -> Option<usize> {
        // Listed buckets hold rows.
        let found = self.dir.find(hash, |id| is_key(self.slab[id as usize][0] as usize));
        found.map(|id| id as usize)
    }

    /// The hash of the key the row at `pos` holds, and the bucket of that
    /// key when it has one.
    fn locate(&self, rows: &Rows, pos: u32) -> (u64, Option<usize>) {
        let pos = pos as usize;
        let hash = hash_key(cells(rows, pos, &self.cols));
        let same = |first| self.cols.iter().all(|&c| rows.cmp(first, pos, c).is_eq());
        (hash, self.find(hash, same))
    }

    /// The bucket of the rows whose `cols` equal `key` (empty when none do).
    fn get(&self, rows: &Rows, key: &[Token]) -> &[u32] {
        let key = key.iter().cloned();
        let is_key = |first| cells(rows, first, &self.cols).eq(key.clone());
        self.find(hash_key(key.clone()), is_key).map_or(&[], |id| &self.slab[id])
    }

    /// The bucket `pos` belongs in, created (empty — the caller fills it
    /// before the next probe) when the row's key is new.
    fn entry(&mut self, rows: &Rows, pos: u32) -> &mut Vec<u32> {
        let (hash, found) = self.locate(rows, pos);
        let id = found.unwrap_or_else(|| {
            let id = self.free.pop().map_or(self.slab.len(), |id| id as usize);
            if id == self.slab.len() {
                self.slab.push(Vec::new());
            }
            self.dir.insert(hash, id as u32);
            id
        });
        &mut self.slab[id]
    }

    /// Let `f` take `pos` out of its bucket; a bucket that empties leaves
    /// the directory and gives its memory back.
    fn shrink(&mut self, rows: &Rows, pos: u32, f: impl FnOnce(&mut Vec<u32>)) {
        let (hash, Some(id)) = self.locate(rows, pos) else {
            return;
        };
        f(&mut self.slab[id]);
        if self.slab[id].is_empty() {
            self.dir.remove(hash, id as u32);
            self.slab[id] = Vec::new();
            self.free.push(id as u32);
        }
    }

    /// No buckets, over the same columns.
    fn empty_like(&self) -> Partitions {
        Partitions { cols: self.cols.clone(), ..Partitions::default() }
    }

    fn buckets(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.slab.iter().filter(|b| !b.is_empty()).map(Vec::as_slice)
    }
}

/// A secondary (non-unique) hash index over a column subset.
#[derive(Debug)]
struct SecondaryIndex {
    label: Arc<str>,
    /// Positions per key, ascending (storage order).
    parts: Partitions,
    stats: IndexStats,
}

impl SecondaryIndex {
    /// Does the index read column `col`?
    fn reads(&self, col: usize) -> bool {
        self.parts.cols.contains(&col)
    }

    fn insert(&mut self, rows: &Rows, pos: u32) {
        let bucket = self.parts.entry(rows, pos);
        self.stats.on_insert(bucket.is_empty());
        // New rows take the highest position, so this is nearly always a
        // push; an upsert that moves a row between keys lands mid-bucket.
        bucket.insert(bucket.partition_point(|&p| p < pos), pos);
    }

    fn remove(&mut self, rows: &Rows, pos: u32) {
        let stats = &mut self.stats;
        self.parts.shrink(rows, pos, |bucket| {
            if let Ok(at) = bucket.binary_search(&pos) {
                bucket.remove(at);
                stats.on_remove(bucket.is_empty());
            }
        });
    }
}

/// An ordered composite index: hash on the equality columns, and in each
/// partition the positions sorted by the range column — serving
/// `eq AND eq AND range_col BETWEEN lo AND hi` queries (the Linear Road
/// LAV lookup shape) with two binary searches.
#[derive(Debug)]
struct OrderedIndex {
    range_col: usize,
    label: Arc<str>,
    /// One position list per value of the equality columns, sorted as
    /// [`sorts`] says, so a value's rows sit together in storage order.
    parts: Partitions,
    /// `entries` plus distinct `(eq-key, range-key)` pairs; the partition
    /// count is the directory's length.
    stats: IndexStats,
}

/// Where row `p` sorts against row `pos` in an ordered partition over
/// column `col`: by the value each holds there, then by position.
fn sorts(rows: &Rows, col: usize, p: u32, pos: u32) -> Ordering {
    rows.cmp(p as usize, pos as usize, col).then(p.cmp(&pos))
}

/// Does an entry beside slot `at` of a sorted partition hold the value row
/// `pos` holds? A value's entries are contiguous, so these two are the only
/// ones that can.
fn run_touches(rows: &Rows, col: usize, part: &[u32], at: usize, pos: u32) -> bool {
    let same = |p: u32| rows.cmp(p as usize, pos as usize, col).is_eq();
    let holds = |i: usize| part.get(i).is_some_and(|&p| same(p));
    at.checked_sub(1).is_some_and(holds) || holds(at)
}

impl OrderedIndex {
    /// Expected rows in one equality-key partition.
    fn partition_avg(&self) -> f64 {
        match self.parts.dir.len() {
            0 => 0.0,
            n => self.stats.entries as f64 / n as f64,
        }
    }

    /// Does the index read column `col`?
    fn reads(&self, col: usize) -> bool {
        col == self.range_col || self.parts.cols.contains(&col)
    }

    fn insert(&mut self, rows: &Rows, pos: u32) {
        let col = self.range_col;
        let before = |p: u32| sorts(rows, col, p, pos).is_lt();
        let part = self.parts.entry(rows, pos);
        // Minutes and times arrive ascending, so this is nearly always a
        // push, and the last row alone says so.
        let at = match part.last() {
            Some(&last) if before(last) => part.len(),
            _ => part.partition_point(|&p| before(p)),
        };
        self.stats.on_insert(!run_touches(rows, col, part, at, pos));
        part.insert(at, pos);
    }

    fn remove(&mut self, rows: &Rows, pos: u32) {
        let col = self.range_col;
        let stats = &mut self.stats;
        self.parts.shrink(rows, pos, |part| {
            if let Ok(at) = part.binary_search_by(|&p| sorts(rows, col, p, pos)) {
                part.remove(at);
                stats.on_remove(!run_touches(rows, col, part, at, pos));
            }
        });
    }

    /// The entries of the `eq_key` partition within value bounds, in
    /// `(value, position)` order. NULL never satisfies a range conjunct, but
    /// NULL range values sort below every bound — they are skipped whenever
    /// a bound exists. Inverted bounds (`t >= 10 AND t <= 5`) select nothing.
    fn scan(&self, rows: &Rows, eq_key: &[Token], lo: &Bound<Token>, hi: &Bound<Token>) -> &[u32] {
        let part = self.parts.get(rows, eq_key);
        let until = |below: &dyn Fn(&Token) -> bool| {
            part.partition_point(|&p| below(&rows.cell(p as usize, self.range_col)))
        };
        let bounded = !matches!((lo, hi), (Bound::Unbounded, Bound::Unbounded));
        let nulls = if bounded { until(&Token::is_unit) } else { 0 };
        let start = match lo {
            Bound::Included(v) => until(&|x| x < v),
            Bound::Excluded(v) => until(&|x| x <= v),
            Bound::Unbounded => 0,
        };
        let end = match hi {
            Bound::Included(v) => until(&|x| x <= v),
            Bound::Excluded(v) => until(&|x| x < v),
            Bound::Unbounded => part.len(),
        };
        &part[start.max(nulls).min(end)..end]
    }
}

/// Aggregate functions.
#[derive(Debug, Clone)]
pub enum Agg {
    /// `COUNT(*)`
    Count,
    /// `SUM(col)`
    Sum(String),
    /// `AVG(col)`
    Avg(String),
    /// `MIN(col)`
    Min(String),
    /// `MAX(col)`
    Max(String),
}

/// A streaming aggregate accumulator shared by every aggregate executor,
/// so the plain, covering-index and hashed paths produce bit-identical
/// results (float sums are order-sensitive; everything feeds rows in
/// storage order).
enum Acc {
    Count(i64),
    Sum { col: usize, sum: f64, n: usize },
    Avg { col: usize, sum: f64, n: usize },
    /// `MIN(col)`, or `MAX(col)` when `max`.
    Extreme { col: usize, best: Option<Token>, max: bool },
}

impl Acc {
    fn new(schema: &Schema, agg: &Agg) -> Result<Acc> {
        Ok(match agg {
            Agg::Count => Acc::Count(0),
            Agg::Sum(c) => Acc::Sum { col: schema.column_index(c)?, sum: 0.0, n: 0 },
            Agg::Avg(c) => Acc::Avg { col: schema.column_index(c)?, sum: 0.0, n: 0 },
            Agg::Min(c) => Acc::Extreme { col: schema.column_index(c)?, best: None, max: false },
            Agg::Max(c) => Acc::Extreme { col: schema.column_index(c)?, best: None, max: true },
        })
    }

    fn all(schema: &Schema, aggs: &[Agg]) -> Result<Vec<Acc>> {
        aggs.iter().map(|a| Acc::new(schema, a)).collect()
    }

    fn push(&mut self, row: RowRef) -> Result<()> {
        match self {
            Acc::Count(n) => *n += 1,
            Acc::Sum { col, sum, n } | Acc::Avg { col, sum, n } => {
                let v = row.cell(*col);
                if !v.is_unit() {
                    *sum += v.as_float()?;
                    *n += 1;
                }
            }
            // Ties: `Iterator::min` keeps the first equal minimum and
            // `Iterator::max` the last equal maximum — mirrored here so
            // streamed results match the materialized path bit-for-bit.
            Acc::Extreme { col, best, max } => {
                let v = row.cell(*col);
                let replace = match best {
                    None => true,
                    Some(b) if *max => v >= *b,
                    Some(b) => v < *b,
                };
                if replace && !v.is_unit() {
                    *best = Some(v);
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Token {
        match self {
            Acc::Count(n) => Token::Int(n),
            Acc::Sum { sum, n, .. } => {
                if n == 0 {
                    Token::Unit
                } else {
                    Token::Float(sum)
                }
            }
            Acc::Avg { sum, n, .. } => {
                if n == 0 {
                    Token::Unit
                } else {
                    Token::Float(sum / n as f64)
                }
            }
            Acc::Extreme { best, .. } => best.unwrap_or(Token::Unit),
        }
    }
}

/// An index access path expected to visit `est` rows, scored.
fn probe(node: PlanNode, est: f64) -> Plan {
    Plan { node, est_rows: est, cost: cost::index_probe(est) }
}

/// Cheapest candidate, first-enumerated winning ties (a deterministic
/// tie-break: primary key, then secondary and ordered indexes in
/// declaration order, full scan).
fn pick(cands: Vec<Plan>) -> Option<Plan> {
    cands.into_iter().reduce(|best, c| if c.cost < best.cost { c } else { best })
}

/// An in-memory table with hash indexes.
#[derive(Debug)]
pub struct Table {
    schema: Schema,
    rows: Rows,
    live: usize,
    /// Unique index over the primary key, if declared: row positions.
    pk: PosTable,
    pk_label: Arc<str>,
    secondary: Vec<SecondaryIndex>,
    ordered: Vec<OrderedIndex>,
}

impl Table {
    /// An empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        let pk_names: Vec<&str> = schema.primary_key().iter().map(|&c| schema.name(c)).collect();
        Table {
            pk_label: format!("pk({})", pk_names.join(",")).into(),
            rows: Rows::new(&schema),
            schema,
            live: 0,
            pk: PosTable::default(),
            secondary: Vec::new(),
            ordered: Vec::new(),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn partitions(&self, columns: &[&str]) -> Result<Partitions> {
        let cols = columns.iter().map(|c| self.schema.column_index(c)).collect::<Result<_>>()?;
        Ok(Partitions { cols, ..Partitions::default() })
    }

    /// Create a secondary hash index over the named columns. Existing rows
    /// are indexed immediately.
    pub fn create_index(&mut self, columns: &[&str]) -> Result<()> {
        let mut idx = SecondaryIndex {
            label: format!("secondary({})", columns.join(",")).into(),
            parts: self.partitions(columns)?,
            stats: IndexStats::default(),
        };
        self.rows.positions().for_each(|pos| idx.insert(&self.rows, pos as u32));
        // A table has a handful of indexes: no spare capacity for more.
        self.secondary.reserve_exact(1);
        self.secondary.push(idx);
        Ok(())
    }

    /// Create an ordered composite index: hash-partitioned on `eq_columns`,
    /// each partition sorted by `range_column`, answering
    /// `eq… AND range_column BETWEEN lo AND hi` with a range scan.
    /// Existing rows are indexed immediately.
    pub fn create_ordered_index(&mut self, eq_columns: &[&str], range_column: &str) -> Result<()> {
        let mut idx = OrderedIndex {
            range_col: self.schema.column_index(range_column)?,
            label: format!("ordered({}→{range_column})", eq_columns.join(",")).into(),
            parts: self.partitions(eq_columns)?,
            stats: IndexStats::default(),
        };
        self.rows.positions().for_each(|pos| idx.insert(&self.rows, pos as u32));
        self.ordered.reserve_exact(1);
        self.ordered.push(idx);
        Ok(())
    }

    /// Position of the row with this primary key, which hashes to `hash`.
    fn pk_find(&self, hash: u64, key: impl Key) -> Option<usize> {
        let cols = self.schema.primary_key();
        let found = self.pk.find(hash, |pos| cells(&self.rows, pos as usize, cols).eq(key.clone()));
        found.map(|pos| pos as usize)
    }

    /// Position of the row with this primary key.
    fn pk_get(&self, key: &[Token]) -> Option<usize> {
        let key = key.iter().cloned();
        self.pk_find(hash_key(key.clone()), key)
    }

    /// Hash of `row`'s primary key, and the position of the row with it.
    fn pk_of(&self, row: &[Token]) -> (u64, Option<usize>) {
        let key = picked(row, self.schema.primary_key());
        let hash = hash_key(key.clone());
        (hash, self.pk_find(hash, key))
    }

    /// Store a validated row whose primary key, hashing to `pk_hash`, is not
    /// taken, and index it.
    fn append(&mut self, row: &[Token], pk_hash: u64) -> Result<()> {
        let Table { schema, rows, pk, secondary, ordered, .. } = self;
        let pos = u32::try_from(rows.slots)
            .ok()
            .filter(|&pos| pos < u32::MAX)
            .ok_or_else(|| Error::Store("table full: positions are 32-bit".into()))?;
        rows.push(row);
        if !schema.primary_key().is_empty() {
            pk.insert(pk_hash, pos);
        }
        secondary.iter_mut().for_each(|idx| idx.insert(rows, pos));
        ordered.iter_mut().for_each(|idx| idx.insert(rows, pos));
        self.live += 1;
        Ok(())
    }

    /// Delete the row at `pos`: out of the primary-key index and of every
    /// index (its cells are what finds the entries), then out of storage.
    fn remove_row(&mut self, pos: usize) {
        let Table { schema, rows, pk, secondary, ordered, .. } = self;
        let at = pos as u32;
        pk.remove(hash_key(cells(rows, pos, schema.primary_key())), at);
        secondary.iter_mut().for_each(|idx| idx.remove(rows, at));
        ordered.iter_mut().for_each(|idx| idx.remove(rows, at));
        rows.kill(pos);
        self.live -= 1;
    }

    /// Write `vals` (validated, primary-key cells equal to the ones they
    /// replace) into columns `cols` of the row at `pos`, in place; `vals`
    /// gets the old cells back. An index none of whose cells change is not
    /// touched.
    fn assign(&mut self, pos: usize, cols: impl Iterator<Item = usize> + Clone, vals: &mut [Token]) {
        let Table { rows, secondary, ordered, .. } = self;
        let at = pos as u32;
        // Does the write change a cell `reads` picks? Asked again once the
        // cells and `vals` are swapped, it answers the same.
        let moves = |rows: &Rows, vals: &[Token], reads: &dyn Fn(usize) -> bool| {
            cols.clone().zip(vals).any(|(c, v)| reads(c) && rows.cell(pos, c) != *v)
        };
        for i in secondary.iter_mut().filter(|i| moves(rows, vals, &|c| i.reads(c))) {
            i.remove(rows, at);
        }
        for i in ordered.iter_mut().filter(|i| moves(rows, vals, &|c| i.reads(c))) {
            i.remove(rows, at);
        }
        for (c, v) in cols.clone().zip(vals.iter_mut()) {
            rows.swap(pos, c, v);
        }
        for i in secondary.iter_mut().filter(|i| moves(rows, vals, &|c| i.reads(c))) {
            i.insert(rows, at);
        }
        for i in ordered.iter_mut().filter(|i| moves(rows, vals, &|c| i.reads(c))) {
            i.insert(rows, at);
        }
    }

    /// Insert a row; rejects primary-key duplicates.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        self.schema.validate(&row)?;
        let (hash, found) = self.pk_of(&row);
        if found.is_some() {
            return Err(Error::Store(format!(
                "primary key violation: {:?} already present",
                self.schema.key_of(&row)
            )));
        }
        self.append(&row, hash)
    }

    /// Insert or replace by primary key. Returns `true` if an existing row
    /// was replaced. Requires a primary key.
    pub fn upsert(&mut self, mut row: Row) -> Result<bool> {
        self.schema.validate(&row)?;
        if self.schema.primary_key().is_empty() {
            return Err(Error::Store("upsert requires a primary key".into()));
        }
        let (hash, found) = self.pk_of(&row);
        match found {
            Some(pos) => self.assign(pos, 0..row.len(), &mut row),
            None => self.append(&row, hash)?,
        }
        Ok(found.is_some())
    }

    /// A table with this one's schema and index definitions and no rows.
    pub(crate) fn empty_like(&self) -> Table {
        let stats = IndexStats::default();
        let secondary = self.secondary.iter().map(|i| {
            SecondaryIndex { label: i.label.clone(), parts: i.parts.empty_like(), stats }
        });
        let ordered = self.ordered.iter().map(|i| {
            OrderedIndex { label: i.label.clone(), parts: i.parts.empty_like(), stats, ..*i }
        });
        let (secondary, ordered) = (secondary.collect(), ordered.collect());
        Table { secondary, ordered, ..Table::new(self.schema.clone()) }
    }

    /// Remove every row, keeping the schema and the index *definitions*
    /// (their contents are emptied).
    pub fn clear(&mut self) {
        *self = self.empty_like();
    }

    /// Point lookup by primary key.
    pub fn get(&self, key: &[Token]) -> Option<RowRef<'_>> {
        self.pk_get(key).map(|pos| self.row_at(pos))
    }

    /// Live-row and per-index statistics, as maintained by the mutation
    /// path (never recomputed by scanning).
    pub fn stats(&self) -> TableStats {
        let secondary = self.secondary.iter().map(|i| (&i.label, i.stats, i.stats.distinct_keys));
        let ordered = self.ordered.iter().map(|i| (&i.label, i.stats, i.parts.dir.len()));
        let indexes = secondary.chain(ordered).map(|(label, stats, partitions)| IndexStatsView {
            label: label.to_string(),
            stats,
            partitions,
        });
        TableStats { rows: self.live, indexes: indexes.collect() }
    }

    /// Probe key over `cols` if the equality bindings cover them all.
    fn bind_key(&self, binds: &[(String, Token)], cols: &[usize]) -> Option<Vec<Token>> {
        let bound = |name| binds.iter().find(|(n, _)| n == name).map(|(_, v)| v.clone());
        cols.iter().map(|&c| bound(self.schema.name(c))).collect()
    }

    /// Every index path applicable to a conjunctive predicate, scored.
    fn conjunctive_candidates(&self, pred: &Expr) -> Vec<Plan> {
        let binds = pred.equality_bindings();
        let mut out = Vec::new();
        let pk = self.schema.primary_key();
        if let Some(key) = self.bind_key(&binds, pk).filter(|_| !pk.is_empty()) {
            let (index, label) = (IndexRef::PrimaryKey, self.pk_label.clone());
            out.push(probe(PlanNode::IndexEq { index, label, key }, 1.0));
        }
        for (i, idx) in self.secondary.iter().enumerate() {
            if let Some(key) = self.bind_key(&binds, &idx.parts.cols) {
                let (index, label) = (IndexRef::Secondary(i), idx.label.clone());
                out.push(probe(PlanNode::IndexEq { index, label, key }, idx.stats.avg_bucket()));
            }
        }
        let ranges = pred.range_constraints();
        for (i, idx) in self.ordered.iter().enumerate() {
            let Some(eq_key) = self.bind_key(&binds, &idx.parts.cols) else {
                continue;
            };
            let range_name = self.schema.name(idx.range_col);
            // Equality on the range column pins both bounds; a range
            // constraint scans part of the partition; no constraint scans
            // the whole partition.
            let (lo, hi, est) = if let Some((_, v)) = binds.iter().find(|(n, _)| n == range_name) {
                (
                    Bound::Included(v.clone()),
                    Bound::Included(v.clone()),
                    idx.stats.avg_bucket(),
                )
            } else if let Some(r) = ranges.iter().find(|r| r.column == range_name) {
                let bounded =
                    !matches!(r.lo, Bound::Unbounded) && !matches!(r.hi, Bound::Unbounded);
                let sel = if bounded {
                    cost::BOUNDED_RANGE_SELECTIVITY
                } else {
                    cost::HALF_RANGE_SELECTIVITY
                };
                (r.lo.clone(), r.hi.clone(), idx.partition_avg() * sel)
            } else {
                (Bound::Unbounded, Bound::Unbounded, idx.partition_avg())
            };
            let label = idx.label.clone();
            out.push(probe(PlanNode::IndexRange { index: i, label, eq_key, lo, hi }, est));
        }
        out
    }

    /// Plan the cheapest access path for a predicate, read as a
    /// conjunction: equalities and ranges at its top level pick the index,
    /// everything else (`OR`, `IN`, `NOT`, arithmetic) is residual. Every
    /// path is a candidate-superset of the true match set (the executors
    /// re-apply the predicate unless the path consumed it), so planning
    /// affects cost only, never results.
    pub fn plan(&self, pred: Option<&Expr>) -> Plan {
        let scan = Plan {
            node: PlanNode::FullScan { rows: self.live },
            est_rows: self.live as f64,
            cost: cost::full_scan(self.live),
        };
        let Some(p) = pred else {
            return scan;
        };
        let mut cands = self.conjunctive_candidates(p);
        cands.push(scan);
        pick(cands).expect("full scan is always a candidate")
    }

    /// Candidate positions of a plan node, ascending — storage order,
    /// exactly what the scan path visits.
    fn access_positions(&self, node: &PlanNode) -> Vec<usize> {
        match node {
            PlanNode::IndexEq { index: IndexRef::PrimaryKey, key, .. } => {
                self.pk_get(key).into_iter().collect()
            }
            PlanNode::IndexEq { index: IndexRef::Secondary(i), key, .. } => {
                let bucket = self.secondary[*i].parts.get(&self.rows, key);
                bucket.iter().map(|&pos| pos as usize).collect()
            }
            PlanNode::IndexRange { index, eq_key, lo, hi, .. } => {
                let entries = self.ordered[*index].scan(&self.rows, eq_key, lo, hi);
                let mut out: Vec<usize> = entries.iter().map(|&pos| pos as usize).collect();
                out.sort_unstable();
                out
            }
            // A scan (`plan` yields nothing else; a grouping node has its
            // executor in `group_by`).
            _ => self.rows.positions().collect(),
        }
    }

    /// Does the plan node provably re-check everything the predicate
    /// asserts? When true, the executors skip per-row predicate evaluation
    /// (the LAV query, on every toll calculation).
    fn residual_free(&self, pred: Option<&Expr>, node: &PlanNode) -> bool {
        fn eq_parts(e: &Expr) -> Option<(&str, &Token, CmpOp)> {
            let Expr::Cmp(a, op, b) = e else { return None };
            match (a.as_ref(), b.as_ref()) {
                (Expr::Col(c), Expr::Lit(v)) => Some((c, v, *op)),
                (Expr::Lit(v), Expr::Col(c)) => Some((
                    c,
                    v,
                    match op {
                        CmpOp::Lt => CmpOp::Gt,
                        CmpOp::Le => CmpOp::Ge,
                        CmpOp::Gt => CmpOp::Lt,
                        CmpOp::Ge => CmpOp::Le,
                        other => *other,
                    },
                )),
                _ => None,
            }
        }
        let consumed_by_eq = |e: &Expr, cols: &[usize], key: &[Token]| {
            let Some((c, v, CmpOp::Eq)) = eq_parts(e) else { return false };
            let binds = |(&col, kv): (&usize, &Token)| self.schema.name(col) == c && kv == v;
            !v.is_unit() && cols.iter().zip(key).any(binds)
        };
        fn consumed_by_range(
            e: &Expr,
            range_name: &str,
            lo: &Bound<Token>,
            hi: &Bound<Token>,
        ) -> bool {
            let Some((c, v, op)) = eq_parts(e) else { return false };
            if c != range_name || v.is_unit() {
                return false;
            }
            match op {
                // An equality on the range column is consumed when it pins
                // both bounds.
                CmpOp::Eq => {
                    matches!(lo, Bound::Included(b) if b == v)
                        && matches!(hi, Bound::Included(b) if b == v)
                }
                CmpOp::Ge => match lo {
                    Bound::Included(b) | Bound::Excluded(b) => b >= v,
                    Bound::Unbounded => false,
                },
                CmpOp::Gt => match lo {
                    Bound::Excluded(b) => b >= v,
                    Bound::Included(b) => b > v,
                    Bound::Unbounded => false,
                },
                CmpOp::Le => match hi {
                    Bound::Included(b) | Bound::Excluded(b) => b <= v,
                    Bound::Unbounded => false,
                },
                CmpOp::Lt => match hi {
                    Bound::Excluded(b) => b <= v,
                    Bound::Included(b) => b < v,
                    Bound::Unbounded => false,
                },
                CmpOp::Ne => false,
            }
        }
        let Some(p) = pred else { return true };
        match node {
            PlanNode::IndexEq { index, key, .. } => {
                let cols = match index {
                    IndexRef::PrimaryKey => self.schema.primary_key(),
                    IndexRef::Secondary(i) => &self.secondary[*i].parts.cols,
                    IndexRef::Ordered(_) => return false,
                };
                p.all_conjuncts(&mut |c| consumed_by_eq(c, cols, key))
            }
            PlanNode::IndexRange { index, eq_key, lo, hi, .. } => {
                let idx = &self.ordered[*index];
                p.all_conjuncts(&mut |c| {
                    consumed_by_eq(c, &idx.parts.cols, eq_key)
                        || consumed_by_range(c, self.schema.name(idx.range_col), lo, hi)
                })
            }
            _ => false,
        }
    }

    /// The predicate to re-check on the candidates of `node`: none when
    /// the plan consumed it.
    fn residual<'p>(&self, pred: Option<&'p Expr>, node: &PlanNode) -> Option<&'p Expr> {
        pred.filter(|_| !self.residual_free(pred, node))
    }

    /// Matching row positions, ascending: plan, probe, re-filter.
    pub(crate) fn filtered_positions(&self, pred: Option<&Expr>) -> Result<Vec<usize>> {
        let plan = self.plan(pred);
        let mut positions = self.access_positions(&plan.node);
        if let Some(p) = self.residual(pred, &plan.node) {
            let mut kept = 0;
            for i in 0..positions.len() {
                if p.matches(&self.schema, &self.row_at(positions[i]))? {
                    positions[kept] = positions[i];
                    kept += 1;
                }
            }
            positions.truncate(kept);
        }
        Ok(positions)
    }

    /// The live row at a position returned by `filtered_positions`.
    pub(crate) fn row_at(&self, pos: usize) -> RowRef<'_> {
        RowRef { rows: &self.rows, pos }
    }

    /// Rows satisfying the predicate (all rows when `None`), in storage
    /// order.
    pub fn select(&self, pred: Option<&Expr>) -> Result<Vec<Row>> {
        let positions = self.filtered_positions(pred)?;
        Ok(positions.into_iter().map(|p| self.row_at(p).to_vec()).collect())
    }

    /// Delete rows satisfying the predicate; returns how many.
    pub fn delete_where(&mut self, pred: &Expr) -> Result<usize> {
        let positions = self.filtered_positions(Some(pred))?;
        positions.iter().for_each(|&pos| self.remove_row(pos));
        self.maybe_compact();
        Ok(positions.len())
    }

    /// Update rows satisfying the predicate with `(column, value)`
    /// assignments, written in place; returns how many rows changed.
    /// Primary-key columns may not be assigned. The assignments are checked
    /// against the schema before any row is touched: a rejected update
    /// changes nothing.
    pub fn update_where(&mut self, pred: &Expr, assignments: &[(&str, Token)]) -> Result<usize> {
        let mut cols = Vec::with_capacity(assignments.len());
        for (name, v) in assignments {
            let c = self.schema.column_index(name)?;
            if self.schema.primary_key().contains(&c) {
                return Err(Error::Store("cannot update a primary key column".into()));
            }
            self.schema.columns()[c].check(v)?;
            cols.push(c);
        }
        let positions = self.filtered_positions(Some(pred))?;
        let mut vals = Vec::new();
        for &pos in &positions {
            vals.clear();
            vals.extend(assignments.iter().map(|(_, v)| v.clone()));
            self.assign(pos, cols.iter().copied(), &mut vals);
        }
        Ok(positions.len())
    }

    /// Compute one aggregate over rows satisfying the predicate.
    pub fn aggregate(&self, pred: Option<&Expr>, agg: &Agg) -> Result<Token> {
        let plan = self.plan(pred);
        let residual = self.residual(pred, &plan.node);
        // Stream candidates through the accumulator — no row clones, and
        // no predicate evaluation when the plan already consumed it.
        let mut acc = Acc::new(&self.schema, agg)?;
        for pos in self.access_positions(&plan.node) {
            if let Some(p) = residual {
                if !p.matches(&self.schema, &self.row_at(pos))? {
                    continue;
                }
            }
            acc.push(self.row_at(pos))?;
        }
        Ok(acc.finish())
    }

    /// Plan a grouped aggregation: an index whose key columns are exactly
    /// the grouping columns serves the groups as ready-made partitions.
    /// Applicable only when the filter itself gets no index help (the
    /// grouping index must visit every row anyway).
    pub fn plan_group_by(&self, pred: Option<&Expr>, group_cols: &[&str]) -> Option<Plan> {
        if !matches!(self.plan(pred).node, PlanNode::FullScan { .. }) {
            return None;
        }
        let covers = |names: &[&str]| {
            group_cols.iter().all(|g| names.contains(g))
                && names.iter().all(|n| group_cols.contains(n))
        };
        let grouped = |index, label: &Arc<str>, stats: &IndexStats| Plan {
            node: PlanNode::GroupByIndex {
                index,
                label: label.clone(),
                group_cols: group_cols.iter().map(|s| s.to_string()).collect(),
            },
            est_rows: stats.distinct_keys as f64,
            cost: cost::index_probe(stats.entries as f64),
        };
        let names = |cols: &[usize]| cols.iter().map(|&c| self.schema.name(c)).collect::<Vec<_>>();
        for (i, idx) in self.secondary.iter().enumerate() {
            if covers(&names(&idx.parts.cols)) {
                return Some(grouped(IndexRef::Secondary(i), &idx.label, &idx.stats));
            }
        }
        for (i, idx) in self.ordered.iter().enumerate() {
            let mut names = names(&idx.parts.cols);
            names.push(self.schema.name(idx.range_col));
            if covers(&names) {
                return Some(grouped(IndexRef::Ordered(i), &idx.label, &idx.stats));
            }
        }
        None
    }

    /// Feed one index bucket's rows (storage order) through fresh
    /// accumulators; emits `(first matching position, accumulators)` when
    /// any row matched.
    fn accumulate_group(
        &self,
        pred: Option<&Expr>,
        aggs: &[Agg],
        positions: impl Iterator<Item = u32>,
        out: &mut Vec<(usize, Vec<Acc>)>,
    ) -> Result<()> {
        let mut group: Option<(usize, Vec<Acc>)> = None;
        for pos in positions {
            if let Some(p) = pred {
                if !p.matches(&self.schema, &self.row_at(pos as usize))? {
                    continue;
                }
            }
            let row = self.row_at(pos as usize);
            let (_, accs) = match &mut group {
                Some(group) => group,
                None => group.insert((pos as usize, Acc::all(&self.schema, aggs)?)),
            };
            for acc in accs {
                acc.push(row)?;
            }
        }
        out.extend(group);
        Ok(())
    }

    /// Grouped aggregation: distinct values of `group_cols` (in first-seen
    /// order) with one result per aggregate. Served from a covering index
    /// when one exists — streaming per-partition accumulators without
    /// materializing candidate rows — and from a hash of the filtered scan
    /// otherwise; both paths produce identical output.
    pub fn group_by(
        &self,
        pred: Option<&Expr>,
        group_cols: &[&str],
        aggs: &[Agg],
    ) -> Result<Vec<(Vec<Token>, Vec<Token>)>> {
        let gcols: Vec<usize> =
            group_cols.iter().map(|c| self.schema.column_index(c)).collect::<Result<_>>()?;
        // `(first matching position, accumulators)` per group.
        let mut groups: Vec<(usize, Vec<Acc>)> = Vec::new();
        match self.plan_group_by(pred, group_cols).map(|plan| plan.node) {
            Some(PlanNode::GroupByIndex { index: IndexRef::Secondary(i), .. }) => {
                for bucket in self.secondary[i].parts.buckets() {
                    let rows = bucket.iter().copied();
                    self.accumulate_group(pred, aggs, rows, &mut groups)?;
                }
                groups.sort_by_key(|(first, _)| *first);
            }
            Some(PlanNode::GroupByIndex { index: IndexRef::Ordered(i), .. }) => {
                let col = self.ordered[i].range_col;
                let same = |&a: &u32, &b: &u32| self.rows.cmp(a as usize, b as usize, col).is_eq();
                for part in self.ordered[i].parts.buckets() {
                    for run in part.chunk_by(same) {
                        let rows = run.iter().copied();
                        self.accumulate_group(pred, aggs, rows, &mut groups)?;
                    }
                }
                groups.sort_by_key(|(first, _)| *first);
            }
            _ => {
                // Group ids keyed by the grouping columns of each group's
                // first row; rows arrive, and accumulate, in storage order.
                let mut ids = PosTable::default();
                for pos in self.filtered_positions(pred)? {
                    let key = cells(&self.rows, pos, &gcols);
                    let hash = hash_key(key.clone());
                    let found = ids.find(hash, |g| {
                        cells(&self.rows, groups[g as usize].0, &gcols).eq(key.clone())
                    });
                    let g = match found {
                        Some(g) => g as usize,
                        None => {
                            ids.insert(hash, groups.len() as u32);
                            groups.push((pos, Acc::all(&self.schema, aggs)?));
                            groups.len() - 1
                        }
                    };
                    for acc in &mut groups[g].1 {
                        acc.push(self.row_at(pos))?;
                    }
                }
            }
        }
        // Group keys come off each group's first row, not an index key:
        // the scan path surfaces Int/Float representations verbatim.
        Ok(groups
            .into_iter()
            .map(|(first, accs)| {
                let key = cells(&self.rows, first, &gcols).collect();
                (key, accs.into_iter().map(Acc::finish).collect())
            })
            .collect())
    }

    /// Iterate live rows, in storage order.
    pub fn iter(&self) -> impl Iterator<Item = RowRef<'_>> {
        self.rows.positions().map(|pos| self.row_at(pos))
    }

    fn maybe_compact(&mut self) {
        let dead = self.rows.slots - self.live;
        if dead < 64 || dead < self.live {
            return;
        }
        // Only the old rows stay: the old indexes go before the new fill.
        let Table { rows: old, .. } = std::mem::replace(self, self.empty_like());
        let mut row = Row::new();
        for pos in old.positions() {
            row.clear();
            row.extend(RowRef { rows: &old, pos }.iter());
            let hash = hash_key(picked(&row, self.schema.primary_key()));
            self.append(&row, hash).expect("fewer rows than before");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};

    fn cars_table() -> Table {
        let schema = Schema::builder()
            .column("xway", ValueType::Int)
            .column("seg", ValueType::Int)
            .column("dir", ValueType::Int)
            .column("cars", ValueType::Int)
            .column("lav", ValueType::Float)
            .primary_key(&["xway", "seg", "dir"])
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        t.create_index(&["seg"]).unwrap();
        t
    }

    fn row(xway: i64, seg: i64, dir: i64, cars: i64, lav: f64) -> Row {
        vec![xway.into(), seg.into(), dir.into(), cars.into(), lav.into()]
    }

    #[test]
    fn insert_get_and_pk_violation() {
        let mut t = cars_table();
        t.insert(row(0, 1, 0, 10, 50.0)).unwrap();
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        let got = t.get(&[0.into(), 1.into(), 0.into()]).unwrap();
        assert_eq!(got.cell(3), Token::Int(10));
        assert!(t.insert(row(0, 1, 0, 99, 1.0)).is_err(), "pk violation");
        assert!(t.get(&[9.into(), 9.into(), 9.into()]).is_none());
    }

    #[test]
    fn upsert_replaces_by_key() {
        let mut t = cars_table();
        assert!(!t.upsert(row(0, 1, 0, 10, 50.0)).unwrap());
        assert!(t.upsert(row(0, 1, 0, 60, 35.0)).unwrap());
        assert_eq!(t.len(), 1);
        let got = t.get(&[0.into(), 1.into(), 0.into()]).unwrap();
        assert_eq!(got.cell(3), Token::Int(60));
        // Secondary index follows the update.
        let by_seg = t.select(Some(&col("seg").eq(lit(1)))).unwrap();
        assert_eq!(by_seg.len(), 1);
        assert_eq!(by_seg[0][3], Token::Int(60));
    }

    #[test]
    fn select_uses_pk_and_secondary_paths() {
        let mut t = cars_table();
        for seg in 0..20 {
            t.insert(row(0, seg, 0, seg * 10, 40.0)).unwrap();
            t.insert(row(1, seg, 0, seg, 60.0)).unwrap();
        }
        // Fully-bound PK → point lookup.
        let hit = t
            .select(Some(
                &col("xway")
                    .eq(lit(1))
                    .and(col("seg").eq(lit(5)))
                    .and(col("dir").eq(lit(0))),
            ))
            .unwrap();
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0][3], Token::Int(5));
        // Secondary index on seg, extra predicate still applied.
        let seg5 = t
            .select(Some(&col("seg").eq(lit(5)).and(col("cars").gt(lit(10)))))
            .unwrap();
        assert_eq!(seg5.len(), 1);
        assert_eq!(seg5[0][0], Token::Int(0));
        // Range predicate → scan.
        let busy = t.select(Some(&col("cars").ge(lit(150)))).unwrap();
        assert_eq!(busy.len(), 5, "segs 15..19 on xway 0");
        // No predicate → everything.
        assert_eq!(t.select(None).unwrap().len(), 40);
    }

    #[test]
    fn scan_and_index_agree() {
        let mut t = cars_table();
        for seg in 0..10 {
            for dir in 0..2 {
                t.insert(row(0, seg, dir, seg + dir, 30.0)).unwrap();
            }
        }
        let pred = col("seg").eq(lit(3));
        let via_index = t.select(Some(&pred)).unwrap();
        // Force a scan by using an un-indexed equivalent predicate.
        let scan_pred = col("seg").ge(lit(3)).and(col("seg").le(lit(3)));
        let via_scan = t.select(Some(&scan_pred)).unwrap();
        assert_eq!(via_index, via_scan);
        assert_eq!(via_index.len(), 2);
    }

    #[test]
    fn delete_where_maintains_indexes() {
        let mut t = cars_table();
        for seg in 0..10 {
            t.insert(row(0, seg, 0, seg, 40.0)).unwrap();
        }
        let n = t.delete_where(&col("seg").lt(lit(5))).unwrap();
        assert_eq!(n, 5);
        assert_eq!(t.len(), 5);
        assert!(t.get(&[0.into(), 2.into(), 0.into()]).is_none());
        assert!(t.select(Some(&col("seg").eq(lit(2)))).unwrap().is_empty());
        // Re-insert a deleted key: allowed.
        t.insert(row(0, 2, 0, 99, 1.0)).unwrap();
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn update_where_rewrites_and_reindexes() {
        let mut t = cars_table();
        t.insert(row(0, 1, 0, 10, 50.0)).unwrap();
        t.insert(row(0, 2, 0, 20, 50.0)).unwrap();
        let n = t
            .update_where(&col("seg").eq(lit(2)), &[("cars", 77.into())])
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(
            t.get(&[0.into(), 2.into(), 0.into()]).unwrap().cell(3),
            Token::Int(77)
        );
        assert!(t
            .update_where(&col("seg").eq(lit(2)), &[("seg", 9.into())])
            .is_err());
    }

    #[test]
    fn aggregates() {
        let mut t = cars_table();
        for seg in 0..4 {
            t.insert(row(0, seg, 0, seg * 10, seg as f64)).unwrap();
        }
        assert_eq!(t.aggregate(None, &Agg::Count).unwrap(), Token::Int(4));
        assert_eq!(
            t.aggregate(None, &Agg::Sum("cars".into())).unwrap(),
            Token::Float(60.0)
        );
        assert_eq!(
            t.aggregate(None, &Agg::Avg("cars".into())).unwrap(),
            Token::Float(15.0)
        );
        assert_eq!(
            t.aggregate(None, &Agg::Min("lav".into())).unwrap(),
            Token::Float(0.0)
        );
        assert_eq!(
            t.aggregate(None, &Agg::Max("lav".into())).unwrap(),
            Token::Float(3.0)
        );
        let filtered = t
            .aggregate(Some(&col("seg").ge(lit(2))), &Agg::Count)
            .unwrap();
        assert_eq!(filtered, Token::Int(2));
        // Empty aggregates.
        let none = t.aggregate(Some(&col("seg").gt(lit(100))), &Agg::Avg("cars".into()));
        assert_eq!(none.unwrap(), Token::Unit);
    }

    #[test]
    fn group_by_aggregation() {
        let mut t = cars_table();
        t.insert(row(0, 1, 0, 10, 30.0)).unwrap();
        t.insert(row(0, 1, 1, 20, 40.0)).unwrap();
        t.insert(row(0, 2, 0, 30, 50.0)).unwrap();
        let groups = t
            .group_by(None, &["seg"], &[Agg::Count, Agg::Avg("cars".into())])
            .unwrap();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, vec![Token::Int(1)]);
        assert_eq!(groups[0].1, vec![Token::Int(2), Token::Float(15.0)]);
        assert_eq!(groups[1].0, vec![Token::Int(2)]);
        assert_eq!(groups[1].1, vec![Token::Int(1), Token::Float(30.0)]);
    }

    #[test]
    fn ordered_index_serves_eq_plus_range() {
        let mut t = cars_table();
        t.create_ordered_index(&["xway", "dir"], "seg").unwrap();
        for seg in 0..50 {
            t.insert(row(0, seg, 0, seg, 40.0)).unwrap();
            t.insert(row(1, seg, 0, seg + 100, 40.0)).unwrap();
        }
        let pred = col("xway")
            .eq(lit(0))
            .and(col("dir").eq(lit(0)))
            .and(col("seg").between(lit(10), lit(14)));
        let rows = t.select(Some(&pred)).unwrap();
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r[0] == Token::Int(0)));
        // Equality on the range column also uses the tree.
        let pred_eq = col("xway")
            .eq(lit(1))
            .and(col("dir").eq(lit(0)))
            .and(col("seg").eq(lit(7)));
        let rows = t.select(Some(&pred_eq)).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][3], Token::Int(107));
        // One-sided range.
        let pred_open = col("xway")
            .eq(lit(0))
            .and(col("dir").eq(lit(0)))
            .and(col("seg").ge(lit(45)));
        assert_eq!(t.select(Some(&pred_open)).unwrap().len(), 5);
        // Missing partition → empty, not scan.
        let pred_missing = col("xway")
            .eq(lit(9))
            .and(col("dir").eq(lit(0)))
            .and(col("seg").between(lit(0), lit(100)));
        assert!(t.select(Some(&pred_missing)).unwrap().is_empty());
    }

    #[test]
    fn ordered_index_tracks_upsert_and_delete() {
        let mut t = cars_table();
        t.create_ordered_index(&["xway", "dir"], "seg").unwrap();
        for seg in 0..10 {
            t.insert(row(0, seg, 0, seg, 40.0)).unwrap();
        }
        t.upsert(row(0, 5, 0, 500, 40.0)).unwrap();
        t.delete_where(&col("seg").lt(lit(3))).unwrap();
        let pred = col("xway")
            .eq(lit(0))
            .and(col("dir").eq(lit(0)))
            .and(col("seg").between(lit(0), lit(5)));
        let rows = t.select(Some(&pred)).unwrap();
        assert_eq!(rows.len(), 3, "segs 3, 4, 5 remain");
        assert!(rows.iter().any(|r| r[3] == Token::Int(500)));
    }

    #[test]
    fn compaction_preserves_content() {
        let mut t = cars_table();
        for seg in 0..200 {
            t.insert(row(0, seg, 0, seg, 40.0)).unwrap();
        }
        t.delete_where(&col("seg").lt(lit(150))).unwrap();
        assert_eq!(t.len(), 50);
        // Everything still reachable after internal compaction.
        for seg in 150..200i64 {
            assert!(t.get(&[0.into(), seg.into(), 0.into()]).is_some());
        }
        assert_eq!(t.iter().count(), 50);
        assert_eq!(t.select(Some(&col("seg").eq(lit(175)))).unwrap().len(), 1);
    }

    // ---- planner-era tests ----

    #[test]
    fn stats_track_mutations() {
        let mut t = cars_table();
        // PK is (xway, seg, dir); vary xway so seg can repeat.
        for i in 0..10 {
            t.insert(row(i, i % 5, 0, i, 40.0)).unwrap();
        }
        let s = t.stats();
        assert_eq!(s.rows, 10);
        assert_eq!(s.indexes.len(), 1);
        assert_eq!(s.indexes[0].label, "secondary(seg)");
        assert_eq!(s.indexes[0].stats.entries, 10);
        assert_eq!(s.indexes[0].stats.distinct_keys, 5);
        // Deleting both seg=0 rows empties that key bucket.
        assert_eq!(t.delete_where(&col("seg").eq(lit(0))).unwrap(), 2);
        let s = t.stats();
        assert_eq!(s.indexes[0].stats.entries, 8);
        assert_eq!(s.indexes[0].stats.distinct_keys, 4);
        // Index created after the fact backfills its statistics.
        t.create_ordered_index(&["dir"], "seg").unwrap();
        let s = t.stats();
        assert_eq!(s.indexes[1].label, "ordered(dir→seg)");
        assert_eq!(s.indexes[1].stats.entries, 8);
        assert_eq!(s.indexes[1].stats.distinct_keys, 4);
        assert_eq!(s.indexes[1].partitions, 1);
        t.clear();
        assert_eq!(t.stats().indexes[0].stats.entries, 0);
        assert_eq!(t.stats().indexes[1].stats.entries, 0);
    }

    #[test]
    fn planner_prefers_cheapest_index_not_first_declared() {
        // Two applicable secondary indexes; the first declared is nearly
        // useless (2 distinct keys), the second is selective.
        let schema = Schema::builder()
            .column("id", ValueType::Int)
            .column("coarse", ValueType::Int)
            .column("fine", ValueType::Int)
            .primary_key(&["id"])
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        t.create_index(&["coarse"]).unwrap();
        t.create_index(&["fine"]).unwrap();
        for i in 0..1000i64 {
            t.insert(vec![i.into(), (i % 2).into(), (i % 250).into()]).unwrap();
        }
        let pred = col("coarse").eq(lit(0)).and(col("fine").eq(lit(7)));
        let plan = t.plan(Some(&pred));
        assert_eq!(
            plan.node,
            PlanNode::IndexEq {
                index: IndexRef::Secondary(1),
                label: "secondary(fine)".into(),
                key: vec![Token::Int(7)],
            },
            "cost model must skip the first-declared coarse index"
        );
        // Result identical to the scan-equivalent predicate.
        let rows = t.select(Some(&pred)).unwrap();
        let scan = t
            .select(Some(&col("coarse").ge(lit(0)).and(col("coarse").le(lit(0))).and(
                col("fine").ge(lit(7)).and(col("fine").le(lit(7))),
            )))
            .unwrap();
        assert_eq!(rows, scan);
    }

    #[test]
    fn tiny_table_plans_a_scan() {
        let mut t = cars_table();
        t.insert(row(0, 1, 0, 10, 50.0)).unwrap();
        let plan = t.plan(Some(&col("seg").eq(lit(1))));
        assert!(matches!(plan.node, PlanNode::FullScan { .. }));
    }

    #[test]
    fn or_and_in_are_residuals_with_scan_identical_rows() {
        let mut t = cars_table();
        for seg in 0..40 {
            t.insert(row(0, seg, 0, seg, 40.0)).unwrap();
            t.insert(row(1, seg, 1, seg, 40.0)).unwrap();
        }
        let pred = col("seg").in_list(vec![lit(3), lit(5), lit(9)]);
        assert!(matches!(t.plan(Some(&pred)).node, PlanNode::FullScan { .. }));
        let rows = t.select(Some(&pred)).unwrap();
        assert_eq!(rows.len(), 6);
        // Matches the OR spelling and the unindexed spelling, byte for byte.
        let or_pred = col("seg")
            .eq(lit(3))
            .or(col("seg").eq(lit(5)))
            .or(col("seg").eq(lit(9)));
        assert_eq!(rows, t.select(Some(&or_pred)).unwrap());
        let scan_pred = col("cars").in_list(vec![lit(3), lit(5), lit(9)]);
        assert_eq!(rows, t.select(Some(&scan_pred)).unwrap());
        // A repeated value or arm matches a row once.
        let dup = col("seg").eq(lit(3)).or(col("seg").eq(lit(3)));
        assert_eq!(t.select(Some(&dup)).unwrap().len(), 2);
        let dup = col("seg").in_list(vec![lit(5), lit(5), lit(6)]);
        assert_eq!(t.update_where(&dup, &[("cars", 99.into())]).unwrap(), 4);
        assert!(t.select(Some(&col("seg").in_list(vec![]))).unwrap().is_empty());
        // A one-value IN probes like the equality it is; a disjunction
        // beside an equality is filtered on what the equality found.
        let one = col("seg").in_list(vec![lit(3)]);
        assert_eq!(t.plan(Some(&one)), t.plan(Some(&col("seg").eq(lit(3)))));
        assert!(matches!(t.plan(Some(&one)).node, PlanNode::IndexEq { .. }));
        let beside = col("seg").eq(lit(3)).and(col("xway").eq(lit(1)).or(col("cars").gt(lit(50))));
        assert!(matches!(t.plan(Some(&beside)).node, PlanNode::IndexEq { .. }));
        assert_eq!(t.select(Some(&beside)).unwrap().len(), 1);
    }

    #[test]
    fn strict_bounds_use_the_ordered_index() {
        let mut t = cars_table();
        t.create_ordered_index(&["xway", "dir"], "seg").unwrap();
        // Two partitions so a whole-partition scan is cheaper than a full
        // scan under the cost model.
        for seg in 0..50 {
            t.insert(row(0, seg, 0, seg, 40.0)).unwrap();
            t.insert(row(1, seg, 0, seg, 40.0)).unwrap();
        }
        let pred = col("xway")
            .eq(lit(0))
            .and(col("dir").eq(lit(0)))
            .and(col("seg").gt(lit(44)));
        let plan = t.plan(Some(&pred));
        assert!(
            matches!(&plan.node, PlanNode::IndexRange { lo: Bound::Excluded(v), .. } if *v == Token::Int(44)),
            "got {}",
            plan.node
        );
        assert_eq!(t.select(Some(&pred)).unwrap().len(), 5);
        // Whole-partition scan when only the equality columns are bound.
        let part = col("xway").eq(lit(0)).and(col("dir").eq(lit(0)));
        let plan = t.plan(Some(&part));
        assert!(
            matches!(
                &plan.node,
                PlanNode::IndexRange { lo: Bound::Unbounded, hi: Bound::Unbounded, .. }
            ),
            "got {}",
            plan.node
        );
        assert_eq!(t.select(Some(&part)).unwrap().len(), 50);
        // Contradictory bounds short-circuit to empty instead of panicking.
        let twisted = col("xway")
            .eq(lit(0))
            .and(col("dir").eq(lit(0)))
            .and(col("seg").ge(lit(10)))
            .and(col("seg").le(lit(5)));
        assert!(t.select(Some(&twisted)).unwrap().is_empty());
    }

    #[test]
    fn index_served_aggregates_match_scan_results() {
        let mut t = cars_table();
        t.create_ordered_index(&["xway", "dir"], "cars").unwrap();
        for seg in 0..60 {
            t.insert(row(0, seg, 0, seg % 7, seg as f64)).unwrap();
        }
        let pred = col("xway")
            .eq(lit(0))
            .and(col("dir").eq(lit(0)))
            .and(col("cars").between(lit(2), lit(5)));
        // Reference answers via an equivalent unindexable predicate.
        let scan_pred = col("seg")
            .ge(lit(0))
            .and(col("cars").ge(lit(2)))
            .and(col("cars").le(lit(5)));
        for agg in [
            Agg::Count,
            Agg::Sum("lav".into()),
            Agg::Avg("lav".into()),
            Agg::Min("cars".into()),
            Agg::Max("cars".into()),
            Agg::Min("lav".into()),
            Agg::Max("lav".into()),
        ] {
            assert_eq!(
                t.aggregate(Some(&pred), &agg).unwrap(),
                t.aggregate(Some(&scan_pred), &agg).unwrap(),
                "{agg:?}"
            );
        }
        assert_eq!(t.aggregate(None, &Agg::Count).unwrap(), Token::Int(60));
        // Empty range.
        assert_eq!(
            t.aggregate(
                Some(
                    &col("xway")
                        .eq(lit(0))
                        .and(col("dir").eq(lit(0)))
                        .and(col("cars").gt(lit(100)))
                ),
                &Agg::Min("cars".into())
            )
            .unwrap(),
            Token::Unit
        );
    }

    #[test]
    fn grouped_aggregates_use_covering_index() {
        let mut t = cars_table();
        for seg in 0..30 {
            t.insert(row(0, seg % 6, seg % 5, seg, seg as f64)).unwrap();
        }
        // secondary(seg) covers group_by(seg).
        let plan = t.plan_group_by(None, &["seg"]).unwrap();
        assert!(matches!(
            plan.node,
            PlanNode::GroupByIndex { index: IndexRef::Secondary(0), .. }
        ));
        let fast = t
            .group_by(None, &["seg"], &[Agg::Count, Agg::Sum("lav".into()), Agg::Max("cars".into())])
            .unwrap();
        // Reference: rebuild the same table without the index.
        let mut plain = Table::new(t.schema().clone());
        for r in t.iter() {
            plain.insert(r.to_vec()).unwrap();
        }
        let slow = plain
            .group_by(None, &["seg"], &[Agg::Count, Agg::Sum("lav".into()), Agg::Max("cars".into())])
            .unwrap();
        assert_eq!(fast, slow);
        // With a residual predicate the covering path still agrees.
        let pred = col("cars").ge(lit(7));
        let fast = t.group_by(Some(&pred), &["seg"], &[Agg::Count]).unwrap();
        let slow = plain.group_by(Some(&pred), &["seg"], &[Agg::Count]).unwrap();
        assert_eq!(fast, slow);
        // An indexed filter disables the covering path (the filter index
        // wins) but results still agree.
        let pred = col("seg").eq(lit(3));
        assert!(t.plan_group_by(Some(&pred), &["dir"]).is_none());
        assert_eq!(
            t.group_by(Some(&pred), &["dir"], &[Agg::Count]).unwrap(),
            plain.group_by(Some(&pred), &["dir"], &[Agg::Count]).unwrap()
        );
        // Ordered index covers (xway, dir) + cars? No — but (xway,dir)→seg
        // covers group set {xway, dir, seg}.
        t.create_ordered_index(&["xway", "dir"], "seg").unwrap();
        let plan = t.plan_group_by(None, &["seg", "xway", "dir"]).unwrap();
        assert!(matches!(
            plan.node,
            PlanNode::GroupByIndex { index: IndexRef::Ordered(0), .. }
        ));
        assert_eq!(
            t.group_by(None, &["seg", "xway", "dir"], &[Agg::Avg("lav".into())]).unwrap(),
            plain.group_by(None, &["seg", "xway", "dir"], &[Agg::Avg("lav".into())]).unwrap()
        );
    }

    // ---- position-only index tests ----

    fn kv_table() -> Table {
        let schema = Schema::builder()
            .column("k", ValueType::Int)
            .column("v", ValueType::Int)
            .primary_key(&["k"])
            .build()
            .unwrap();
        Table::new(schema)
    }

    #[test]
    fn rejected_update_changes_nothing() {
        let mut t = kv_table();
        t.insert(vec![1.into(), 10.into()]).unwrap();
        let pred = col("k").eq(lit(1));
        assert!(t.update_where(&pred, &[("v", Token::str("oops"))]).is_err());
        assert!(t.update_where(&pred, &[("v", Token::Unit)]).is_err());
        assert!(t.update_where(&pred, &[("v", 11.into()), ("nope", 1.into())]).is_err());
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&[1.into()]).unwrap().cell(1), Token::Int(10));
        assert_eq!(t.select(None).unwrap(), vec![vec![Token::Int(1), Token::Int(10)]]);
        assert!(t.upsert(vec![1.into(), 11.into()]).unwrap(), "the row is still there to replace");
    }

    #[test]
    fn int_and_float_keys_unify_across_every_index() {
        let schema = Schema::builder()
            .column("k", ValueType::Int)
            .column("g", ValueType::Float)
            .column("v", ValueType::Float)
            .primary_key(&["k"])
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        t.create_index(&["g"]).unwrap();
        t.create_ordered_index(&["g"], "v").unwrap();
        // Ints widen into float columns and are stored as written.
        for k in 0..40i64 {
            let g: Token = if k % 2 == 0 { (k % 4).into() } else { ((k % 4) as f64).into() };
            t.insert(vec![k.into(), g, (k / 4).into()]).unwrap();
        }
        assert_eq!(t.get(&[Token::Float(3.0)]).unwrap().cell(0), Token::Int(3));
        assert!(t.get(&[Token::Float(3.5)]).is_none());
        assert!(t.insert(vec![Token::Int(3), 0.into(), 0.into()]).is_err(), "pk 3 is taken");
        let s = t.stats();
        assert_eq!((s.indexes[0].stats.entries, s.indexes[0].stats.distinct_keys), (40, 4));
        assert_eq!((s.indexes[1].stats.distinct_keys, s.indexes[1].partitions), (40, 4));
        // Float bounds over int range values, int probe of a float partition.
        let pred = col("g").eq(lit(1)).and(col("v").between(lit(1.5), lit(4.0)));
        assert!(matches!(t.plan(Some(&pred)).node, PlanNode::IndexRange { .. }));
        let ks: Vec<Token> = t.select(Some(&pred)).unwrap().into_iter().map(|r| r[0].clone()).collect();
        assert_eq!(ks, vec![Token::Int(9), Token::Int(13), Token::Int(17)]);
        assert_eq!(
            t.aggregate(Some(&pred), &Agg::Min("v".into())).unwrap(),
            Token::Int(2),
            "the value as the row holds it"
        );
        assert_eq!(t.aggregate(Some(&col("g").eq(lit(2.0))), &Agg::Count).unwrap(), Token::Int(10));
    }

    /// The same rows in `indexed` and in a table without its indexes.
    fn with_plain(mut indexed: Table, rows: impl IntoIterator<Item = Row>) -> (Table, Table) {
        let mut plain = Table::new(indexed.schema().clone());
        for r in rows {
            indexed.insert(r.clone()).unwrap();
            plain.insert(r).unwrap();
        }
        (indexed, plain)
    }

    #[test]
    fn ordered_index_agrees_with_a_scan_near_two_to_the_53() {
        const P: i64 = 1 << 53;
        let schema = Schema::builder()
            .column("k", ValueType::Int)
            .column("g", ValueType::Int)
            .column("w", ValueType::Float)
            .primary_key(&["k"])
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        t.create_ordered_index(&["g"], "w").unwrap();
        let ws = [
            Token::Int(P + 1),
            Token::Float(P as f64),
            Token::Int(P),
            Token::Int(P - 1),
            Token::Float(P as f64 + 2.0),
            Token::Int(P + 2),
            Token::Int(P + 3),
        ];
        let rows = (0..70i64).map(|k| vec![k.into(), (k % 2).into(), ws[k as usize % 7].clone()]);
        let (t, plain) = with_plain(t, rows);
        let g0 = || col("g").eq(lit(0));
        for range in [
            col("w").eq(lit(P + 1)),
            col("w").eq(lit(P as f64)),
            col("w").between(lit(P), lit(P + 1)),
            col("w").gt(lit(P)),
            col("w").ge(lit(P as f64 + 2.0)),
            col("w").lt(lit(P + 2)),
            col("w").le(lit(P as f64)),
        ] {
            let pred = g0().and(range);
            assert!(matches!(t.plan(Some(&pred)).node, PlanNode::IndexRange { .. }));
            assert_eq!(t.select(Some(&pred)).unwrap(), plain.select(Some(&pred)).unwrap(), "{pred:?}");
        }
        let group = |t: &Table| t.group_by(None, &["g", "w"], &[Agg::Count]).unwrap();
        assert!(t.plan_group_by(None, &["g", "w"]).is_some());
        assert_eq!(group(&t), group(&plain));
        assert_eq!(group(&t).len(), 10, "five values a partition: P and P + 2 tie with their floats");
    }

    #[test]
    fn string_keys_serve_every_index_kind() {
        let schema = Schema::builder()
            .column("name", ValueType::Str)
            .column("city", ValueType::Str)
            .nullable_column("note", ValueType::Str)
            .primary_key(&["name"])
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        t.create_index(&["city"]).unwrap();
        t.create_ordered_index(&["city"], "note").unwrap();
        let names = ["ada", "bo", "cy", "di", "ed", "fay", "gus", "hal"];
        let rows = (0..64usize).map(|i| {
            let note = if i % 5 == 0 { Token::Unit } else { Token::str(names[i % 8]) };
            let city = Token::str(["oslo", "rome"][i % 2]);
            vec![Token::str(&format!("{}{i}", names[i % 8])), city, note]
        });
        let (mut t, mut plain) = with_plain(t, rows);
        assert_eq!(t.get(&[Token::str("cy10")]).unwrap().cell(1), Token::str("oslo"));
        assert!(t.get(&[Token::str("cy")]).is_none());
        assert!(t.insert(vec![Token::str("cy10"), Token::str("x"), Token::Unit]).is_err());
        let rome = col("city").eq(lit("rome"));
        let node = t.plan(Some(&rome)).node;
        assert!(matches!(node, PlanNode::IndexEq { index: IndexRef::Secondary(0), .. }));
        let ranged = col("city").eq(lit("oslo")).and(col("note").between(lit("bo"), lit("fay")));
        assert!(matches!(t.plan(Some(&ranged)).node, PlanNode::IndexRange { .. }));
        for t in [&mut t, &mut plain] {
            t.upsert(vec![Token::str("cy10"), Token::str("rome"), Token::str("zed")]).unwrap();
            t.delete_where(&col("note").eq(lit("ed"))).unwrap();
        }
        let open = col("city").eq(lit("oslo")).and(col("note").lt(lit("cy")));
        for pred in [rome, ranged, open] {
            assert_eq!(t.select(Some(&pred)).unwrap(), plain.select(Some(&pred)).unwrap(), "{pred:?}");
        }
        let aggs = [Agg::Count, Agg::Max("name".into())];
        let group = |t: &Table| t.group_by(None, &["city", "note"], &aggs);
        assert_eq!(group(&t).unwrap(), group(&plain).unwrap());
    }

    #[test]
    fn order_by_breaks_ties_in_storage_order_both_ways() {
        use crate::query::{Order, Query};
        let mut t = cars_table();
        t.create_ordered_index(&["xway"], "cars").unwrap();
        // cars 0,1,2 three times over; positions 0..9.
        for seg in 0..9 {
            t.insert(row(0, seg, 0, seg % 3, 0.0)).unwrap();
        }
        // Move seg 1 (cars 1) to cars 2: it keeps position 1, ahead of segs 2, 5, 8.
        t.upsert(row(0, 1, 0, 2, 0.0)).unwrap();
        let top = |order, n| {
            let q = Query::from("t").filter(col("xway").eq(lit(0))).order_by("cars", order).limit(n);
            let rows = q.execute_on(&t).unwrap();
            rows.iter().map(|r| r[1].as_int().unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(top(Order::Asc, 5), vec![0, 3, 6, 4, 7]);
        assert_eq!(top(Order::Desc, 6), vec![1, 2, 5, 8, 4, 7]);
        assert_eq!(top(Order::Desc, 0), Vec::<i64>::new());
    }

    #[test]
    fn ordered_insert_pushes_or_searches_and_both_agree_with_a_scan() {
        use std::ops::RangeBounds;
        let schema = Schema::builder()
            .column("k", ValueType::Int)
            .column("g", ValueType::Int)
            .column("v", ValueType::Float)
            .primary_key(&["k"])
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        t.create_index(&["g"]).unwrap();
        t.create_ordered_index(&["g"], "v").unwrap();
        // Every range answer is the scan's, and the statistics a recount.
        let check = |t: &Table| {
            let values: [Token; 7] = [(-2).into(), 0.into(), 1.into(), 2.5.into(), 3.into(), 3.0.into(), 10.into()];
            let bounds = || values.iter().flat_map(|v| [Bound::Included(v), Bound::Excluded(v)].map(|b| b.cloned()));
            let rows_of = |node: &PlanNode| -> Vec<Row> {
                t.access_positions(node).into_iter().map(|p| t.row_at(p).to_vec()).collect()
            };
            for g in 0..4i64 {
                let (label, key) = (t.secondary[0].label.clone(), vec![Token::Int(g)]);
                let node = PlanNode::IndexEq { index: IndexRef::Secondary(0), label, key };
                let in_g = |r: &RowRef| r.cell(1) == Token::Int(g);
                let scan: Vec<Row> = t.iter().filter(in_g).map(|r| r.to_vec()).collect();
                assert_eq!(rows_of(&node), scan, "{node}");
                for (lo, hi) in bounds().flat_map(|lo| bounds().map(move |hi| (lo.clone(), hi))) {
                    let hits = |r: &RowRef| {
                        r.cell(1) == Token::Int(g) && (lo.as_ref(), hi.as_ref()).contains(&r.cell(2))
                    };
                    let scan: Vec<Row> = t.iter().filter(hits).map(|r| r.to_vec()).collect();
                    let (label, eq_key) = (t.ordered[0].label.clone(), vec![Token::Int(g)]);
                    let node = PlanNode::IndexRange { index: 0, label, eq_key, lo, hi };
                    assert_eq!(rows_of(&node), scan, "{node}");
                }
            }
            let mut pairs: Vec<(Token, Token)> = t.iter().map(|r| (r.cell(1), r.cell(2))).collect();
            pairs.sort();
            pairs.dedup();
            let mut groups: Vec<Token> = pairs.iter().map(|(g, _)| g.clone()).collect();
            groups.dedup();
            let (s, n) = (t.stats(), t.iter().count());
            let [secondary, ordered] = [&s.indexes[0], &s.indexes[1]].map(|i| (i.stats.entries, i.stats.distinct_keys));
            assert_eq!((s.rows, secondary, ordered), (n, (n, groups.len()), (n, pairs.len())));
            assert_eq!(s.indexes[1].partitions, groups.len());
        };
        // Ascending appends: every row sorts last in its partition.
        for k in 0..8i64 {
            t.insert(vec![k.into(), (k % 2).into(), k.into()]).unwrap();
            check(&t);
        }
        // `Int 3` then `Float 3.0`: the second sorts last by position and
        // adds no distinct value.
        t.insert(vec![10.into(), 2.into(), Token::Int(3)]).unwrap();
        t.insert(vec![11.into(), 2.into(), Token::Float(3.0)]).unwrap();
        check(&t);
        assert_eq!(t.stats().indexes[1].stats.distinct_keys, 9);
        // A late row lands mid-partition; another ties a value mid-partition.
        t.insert(vec![12.into(), 0.into(), 1.into()]).unwrap();
        check(&t);
        t.insert(vec![13.into(), 1.into(), Token::Float(3.0)]).unwrap();
        check(&t);
        // An upsert moves a row to a smaller range value, and one to another partition.
        t.upsert(vec![4.into(), 0.into(), Token::Float(-1.0)]).unwrap();
        check(&t);
        t.upsert(vec![6.into(), 3.into(), 0.into()]).unwrap();
        check(&t);
        t.upsert(vec![2.into(), 3.into(), Token::Float(-0.5)]).unwrap();
        check(&t);
        // A row ties the last value of a partition from an earlier position,
        // then leaves again.
        t.upsert(vec![1.into(), 3.into(), 0.into()]).unwrap();
        check(&t);
        t.upsert(vec![1.into(), 1.into(), 9.into()]).unwrap();
        check(&t);
        let part = col("g").eq(lit(0));
        let ks: Vec<Token> = t.select(Some(&part)).unwrap().into_iter().map(|r| r[0].clone()).collect();
        assert_eq!(ks, vec![0.into(), 4.into(), 12.into()]);
    }

    #[test]
    fn upsert_inside_the_key_leaves_indexes_alone_and_outside_it_moves_the_row() {
        let mut t = cars_table();
        t.create_ordered_index(&["xway", "dir"], "cars").unwrap();
        for seg in 0..8 {
            t.insert(row(0, seg, 0, seg, 40.0)).unwrap();
        }
        let before = t.stats();
        t.upsert(row(0, 3, 0, 3, 55.0)).unwrap();
        assert_eq!(t.stats(), before, "lav is in no index");
        t.upsert(row(0, 3, 0, 5, 55.0)).unwrap();
        let s = t.stats();
        assert_eq!(s.indexes[0].stats, before.indexes[0].stats, "secondary(seg) untouched");
        assert_eq!(s.indexes[1].stats.entries, 8);
        assert_eq!(s.indexes[1].stats.distinct_keys, 7, "cars 3 is gone, cars 5 twice");
        let pred = col("xway").eq(lit(0)).and(col("dir").eq(lit(0))).and(col("cars").eq(lit(5)));
        let rows = t.select(Some(&pred)).unwrap();
        assert_eq!(rows.iter().map(|r| r[1].clone()).collect::<Vec<_>>(), vec![3.into(), 5.into()]);
    }

    // ---- integer cells at the narrowest width ----

    /// Bytes a cell of integer column `col` takes now.
    fn width(t: &Table, col: usize) -> usize {
        match &t.rows.columns[col].cells {
            Cells::I8(_) => 1,
            Cells::I16(_) => 2,
            Cells::I32(_) => 4,
            Cells::I64(_) => 8,
            _ => unreachable!("an integer column"),
        }
    }

    /// A key `k`, a partition `g` and a nullable `v`, ordered by `v` in `g`.
    fn narrow_table() -> Table {
        let schema = Schema::builder()
            .column("k", ValueType::Int)
            .column("g", ValueType::Int)
            .nullable_column("v", ValueType::Int)
            .primary_key(&["k"])
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        t.create_ordered_index(&["g"], "v").unwrap();
        t
    }

    /// Each width's edge values, in the order that widens a column a step
    /// at a time, with the width a column holding them all so far needs.
    const EDGES: [(i64, usize); 18] = [
        (127, 1),
        (-127, 1),
        (-128, 1),
        (128, 2),
        (-129, 2),
        (32_767, 2),
        (-32_767, 2),
        (-32_768, 2),
        (32_768, 4),
        (-32_769, 4),
        (i32::MAX as i64 - 1, 4),
        (i32::MAX as i64, 4),
        (i32::MIN as i64 + 1, 4),
        (i32::MIN as i64, 4),
        (i32::MAX as i64 + 1, 8),
        (i32::MIN as i64 - 1, 8),
        (i64::MAX, 8),
        (i64::MIN, 8),
    ];

    /// Every row of `t` reads back as `want[k]` in column `v`.
    fn assert_cells(t: &Table, want: &[Token]) {
        for (k, v) in want.iter().enumerate() {
            assert_eq!(t.get(&[(k as i64).into()]).unwrap().cell(2), *v, "k {k}");
        }
    }

    #[test]
    fn an_integer_column_widens_a_step_at_a_time_by_insert() {
        let mut t = narrow_table();
        let mut want = Vec::new();
        for (k, &(v, bytes)) in EDGES.iter().enumerate() {
            t.insert(vec![(k as i64).into(), 0.into(), v.into()]).unwrap();
            want.push(Token::Int(v));
            assert_eq!(width(&t, 2), bytes, "after {v}");
            assert_cells(&t, &want);
        }
        assert_eq!(width(&t, 0), 1, "keys 0..18 stay bytes");
        // A column goes straight to the width a value needs.
        let mut t = narrow_table();
        t.insert(vec![0.into(), 0.into(), (-5).into()]).unwrap();
        t.insert(vec![1.into(), 0.into(), i64::MIN.into()]).unwrap();
        assert_eq!(width(&t, 2), 8);
        assert_cells(&t, &[Token::Int(-5), Token::Int(i64::MIN)]);
    }

    #[test]
    fn an_integer_column_widens_in_place_by_update_and_upsert() {
        let mut t = narrow_table();
        for k in 0..4i64 {
            t.insert(vec![k.into(), 0.into(), k.into()]).unwrap();
        }
        let mut want: Vec<Token> = (0..4).map(Token::Int).collect();
        let steps = [(1, 128, 2), (2, -32_769, 4), (3, i32::MAX as i64 + 1, 8), (0, i64::MIN, 8)];
        for (i, &(k, v, bytes)) in steps.iter().enumerate() {
            if i % 2 == 0 {
                t.upsert(vec![k.into(), 0.into(), v.into()]).unwrap();
            } else {
                t.update_where(&col("k").eq(lit(k)), &[("v", v.into())]).unwrap();
            }
            want[k as usize] = Token::Int(v);
            assert_eq!(width(&t, 2), bytes, "after {v}");
            assert_cells(&t, &want);
        }
        // Both kinds of write widen from a byte column too.
        let mut t = narrow_table();
        t.insert(vec![0.into(), 0.into(), 1.into()]).unwrap();
        t.update_where(&col("k").eq(lit(0)), &[("v", 40_000.into())]).unwrap();
        assert_eq!(width(&t, 2), 4);
        t.upsert(vec![0.into(), 0.into(), i64::MAX.into()]).unwrap();
        assert_eq!((width(&t, 2), t.get(&[0.into()]).unwrap().cell(2)), (8, Token::Int(i64::MAX)));
    }

    #[test]
    fn null_in_a_narrow_column_survives_a_widening() {
        let mut t = narrow_table();
        t.insert(vec![0.into(), 0.into(), Token::Unit]).unwrap();
        t.insert(vec![1.into(), 0.into(), 0.into()]).unwrap();
        t.insert(vec![2.into(), 0.into(), (-1).into()]).unwrap();
        assert_eq!(width(&t, 2), 1);
        assert_cells(&t, &[Token::Unit, Token::Int(0), Token::Int(-1)]);
        t.update_where(&col("k").eq(lit(1)), &[("v", Token::Unit)]).unwrap();
        t.insert(vec![3.into(), 0.into(), 1_000.into()]).unwrap();
        assert_eq!(width(&t, 2), 2);
        assert_cells(&t, &[Token::Unit, Token::Unit, Token::Int(-1), Token::Int(1_000)]);
        // NULL sorts first, beside integers compared at the column's width.
        assert_eq!(t.aggregate(None, &Agg::Min("v".into())).unwrap(), Token::Int(-1));
        let ks = |t: &Table, pred: &Expr| -> Vec<Token> {
            t.select(Some(pred)).unwrap().into_iter().map(|r| r[0].clone()).collect()
        };
        assert_eq!(ks(&t, &col("g").eq(lit(0)).and(col("v").lt(lit(0)))), [Token::Int(2)]);
        t.upsert(vec![0.into(), 0.into(), 5.into()]).unwrap();
        assert_cells(&t, &[Token::Int(5), Token::Unit, Token::Int(-1), Token::Int(1_000)]);
    }

    #[test]
    fn an_ordered_range_scan_spans_a_widening() {
        let mut t = narrow_table();
        for k in 0..40i64 {
            t.insert(vec![k.into(), (k % 2).into(), (k - 20).into()]).unwrap();
        }
        let range = |lo: i64, hi: i64| col("g").eq(lit(0)).and(col("v").between(lit(lo), lit(hi)));
        let ks = |t: &Table, pred: &Expr| -> Vec<Token> {
            t.select(Some(pred)).unwrap().into_iter().map(|r| r[0].clone()).collect()
        };
        let before = ks(&t, &range(-5, 5));
        assert_eq!(before, [16, 18, 20, 22, 24].map(Token::Int));
        // Rows past each edge join the partition, sorted among the old ones.
        for (k, v) in [(40, -300), (42, 70_000), (44, i64::MIN), (46, 3)] {
            t.insert(vec![Token::Int(k), 0.into(), v.into()]).unwrap();
        }
        assert_eq!(width(&t, 2), 8);
        assert!(matches!(t.plan(Some(&range(-5, 5))).node, PlanNode::IndexRange { .. }));
        assert_eq!(ks(&t, &range(-5, 5)), [16, 18, 20, 22, 24, 46].map(Token::Int));
        assert_eq!(ks(&t, &range(i64::MIN, -20)), [0, 40, 44].map(Token::Int));
        assert_eq!(ks(&t, &range(10, i64::MAX)), [30, 32, 34, 36, 38, 42].map(Token::Int));
        let pred = col("g").eq(lit(0)).and(col("v").ge(lit(-300)));
        assert_eq!(t.aggregate(Some(&pred), &Agg::Min("v".into())).unwrap(), Token::Int(-300));
        assert_eq!(t.aggregate(Some(&pred), &Agg::Max("v".into())).unwrap(), Token::Int(70_000));
    }

    #[test]
    fn compaction_starts_an_integer_column_narrow_again() {
        let mut t = narrow_table();
        for k in 0..200i64 {
            t.insert(vec![k.into(), 0.into(), (k * 1_000_000).into()]).unwrap();
        }
        t.insert(vec![200.into(), 0.into(), i64::MAX.into()]).unwrap();
        assert_eq!((width(&t, 0), width(&t, 2)), (2, 8));
        // 101 dead rows beside 100 live ones: the rebuild holds keys under
        // 100 and values under 2^31, and starts from bytes.
        t.delete_where(&col("k").ge(lit(100))).unwrap();
        assert_eq!(t.rows.slots, 100, "compacted");
        assert_eq!((width(&t, 0), width(&t, 2)), (1, 4));
        t.delete_where(&col("k").ge(lit(1))).unwrap();
        assert_eq!(t.rows.slots, 1, "compacted");
        assert_eq!((width(&t, 0), width(&t, 2)), (1, 1), "the one row left holds zeros");
        assert_cells(&t, &[Token::Int(0)]);
        t.insert(vec![1.into(), 0.into(), (-200).into()]).unwrap();
        assert_eq!(width(&t, 2), 2);
        assert_cells(&t, &[Token::Int(0), Token::Int(-200)]);
    }
}
