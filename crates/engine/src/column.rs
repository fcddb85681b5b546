//! Columnar storage: typed columns and tables with *physical* row order.
//!
//! The storage layer deliberately exposes physical order operations,
//! because that is the paper's problem statement: logical content is
//! preserved while physical order changes (MVCC updates, compaction,
//! backup/restore), and any order-sensitive aggregate then violates data
//! independence (§I, Algorithm 1).

use crate::expr::Sel;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An owned, cheaply clonable column reference.
///
/// Queries used to name columns with `&'static str`, which ruled out
/// runtime-defined schemas (a SQL string cannot mint `'static` names).
/// `ColRef` is an interned `Arc<str>`: cloning one — expressions, plans
/// and group keys clone names freely — is a refcount bump, and equality
/// is by name, so the plan layer's structural-equality SUM-state
/// interning works across independently parsed expressions.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColRef(Arc<str>);

impl ColRef {
    pub fn new(name: impl AsRef<str>) -> Self {
        ColRef(Arc::from(name.as_ref()))
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::ops::Deref for ColRef {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl From<&str> for ColRef {
    fn from(s: &str) -> Self {
        ColRef::new(s)
    }
}

impl From<&String> for ColRef {
    fn from(s: &String) -> Self {
        ColRef::new(s)
    }
}

impl From<String> for ColRef {
    fn from(s: String) -> Self {
        ColRef(Arc::from(s))
    }
}

impl fmt::Display for ColRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl PartialEq<str> for ColRef {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for ColRef {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

/// A typed column (subset sufficient for the paper's workloads).
///
/// Storage is `Arc`-shared: building a [`Table`] view over existing column
/// vectors (e.g. a workload generator's output) is a refcount bump per
/// column, never a data copy — queries scan the owner's storage in place.
/// Mutating operations ([`Table::reorder`], [`Table::mvcc_update_i32`])
/// are copy-on-write: they replace or privatize the storage, so shared
/// owners never observe a mutation.
#[derive(Clone, Debug, PartialEq)]
pub enum Column {
    F64(Arc<Vec<f64>>),
    F32(Arc<Vec<f32>>),
    I32(Arc<Vec<i32>>),
    U32(Arc<Vec<u32>>),
    U8(Arc<Vec<u8>>),
    /// Dictionary encoding: row `i` holds `dict[codes[i]]`. `dict` must be
    /// a plain column with at most 256 entries (codes are `u8`). The
    /// executor scans the *codes* — interval predicates evaluate once per
    /// dictionary entry, never per row (see `expr::BoundFast`).
    Dict {
        codes: Arc<Vec<u8>>,
        dict: Box<Column>,
    },
    /// Wide dictionary encoding: like [`Column::Dict`] but with `u16`
    /// codes, lifting the 256-distinct ceiling to 65536 entries (e.g.
    /// TPC-H `l_suppkey` with 10 000 suppliers). Predicate pushdown uses a
    /// 1024-byte code bitset instead of `Dict`'s 256-entry keep table.
    Dict16 {
        codes: Arc<Vec<u16>>,
        dict: Box<Column>,
    },
    /// Run-length encoding: run `r` covers rows `run_ends[r-1]..run_ends[r]`
    /// (with `run_ends[-1] = 0`) and holds `values` row `r`. `run_ends`
    /// must be strictly increasing; the column's length is the last run
    /// end. The executor decides interval predicates once per *run* and
    /// reads values one run span at a time (see `Storage::read`).
    Rle {
        run_ends: Arc<Vec<u32>>,
        values: Box<Column>,
    },
}

/// Errors raised building or validating encoded ([`Column::Dict`] /
/// [`Column::Dict16`] / [`Column::Rle`]) columns. [`Table::add_column`]
/// refuses a malformed column with [`TableError::Encoding`] wrapping one
/// of these, so no query ever scans one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodingError {
    /// Dictionary entries / run values must be plain columns.
    Nested,
    /// More distinct values than the code width can address (`max` is 256
    /// for `u8` codes, 65536 for `u16`).
    DictTooLarge { distinct: usize, max: usize },
    /// A code indexes past the dictionary.
    CodeOutOfRange { code: u32, dict_len: usize },
    /// `run_ends` must be strictly increasing (every run non-empty).
    RunEndsNotIncreasing { index: usize },
    /// One run value per run end.
    RunCountMismatch { runs: usize, values: usize },
    /// Run ends are `u32`; longer columns cannot be RLE-encoded.
    LenOverflow { len: usize },
}

impl fmt::Display for EncodingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodingError::Nested => write!(f, "encoded columns cannot nest another encoding"),
            EncodingError::DictTooLarge { distinct, max } => write!(
                f,
                "dictionary would need {distinct} entries (codes allow at most {max})"
            ),
            EncodingError::CodeOutOfRange { code, dict_len } => write!(
                f,
                "dictionary code {code} out of range (dict has {dict_len} entries)"
            ),
            EncodingError::RunEndsNotIncreasing { index } => write!(
                f,
                "run_ends must be strictly increasing (violated at run {index})"
            ),
            EncodingError::RunCountMismatch { runs, values } => {
                write!(f, "{runs} run ends but {values} run values")
            }
            EncodingError::LenOverflow { len } => {
                write!(f, "column of {len} rows exceeds u32 run-end range")
            }
        }
    }
}

impl std::error::Error for EncodingError {}

impl Column {
    /// Builds an `F64` column from owned or already-shared storage.
    pub fn f64(data: impl Into<Arc<Vec<f64>>>) -> Column {
        Column::F64(data.into())
    }

    /// Builds an `F32` column from owned or already-shared storage.
    pub fn f32(data: impl Into<Arc<Vec<f32>>>) -> Column {
        Column::F32(data.into())
    }

    /// Builds an `I32` column from owned or already-shared storage.
    pub fn i32(data: impl Into<Arc<Vec<i32>>>) -> Column {
        Column::I32(data.into())
    }

    /// Builds a `U32` column from owned or already-shared storage.
    pub fn u32(data: impl Into<Arc<Vec<u32>>>) -> Column {
        Column::U32(data.into())
    }

    /// Builds a `U8` column from owned or already-shared storage.
    pub fn u8(data: impl Into<Arc<Vec<u8>>>) -> Column {
        Column::U8(data.into())
    }

    /// Builds a validated dictionary-encoded column: row `i` reads
    /// `dict[codes[i]]`. Fails (typed, no panic) if the dictionary is
    /// itself encoded, larger than 256 entries, or any code is out of
    /// range.
    pub fn dict(codes: impl Into<Arc<Vec<u8>>>, dict: Column) -> Result<Column, EncodingError> {
        let col = Column::Dict {
            codes: codes.into(),
            dict: Box::new(dict),
        };
        col.validate_encoding()?;
        Ok(col)
    }

    /// Builds a validated wide dictionary-encoded column (`u16` codes, up
    /// to 65536 entries); see [`Column::dict`].
    pub fn dict16(codes: impl Into<Arc<Vec<u16>>>, dict: Column) -> Result<Column, EncodingError> {
        let col = Column::Dict16 {
            codes: codes.into(),
            dict: Box::new(dict),
        };
        col.validate_encoding()?;
        Ok(col)
    }

    /// Builds a validated run-length-encoded column: run `r` covers rows
    /// `run_ends[r-1]..run_ends[r]` with value `values[r]`. Fails (typed,
    /// no panic) if the values column is encoded, the lengths disagree,
    /// or `run_ends` is not strictly increasing.
    pub fn rle(
        run_ends: impl Into<Arc<Vec<u32>>>,
        values: Column,
    ) -> Result<Column, EncodingError> {
        let col = Column::Rle {
            run_ends: run_ends.into(),
            values: Box::new(values),
        };
        col.validate_encoding()?;
        Ok(col)
    }

    /// Dictionary-encodes a plain column (first-seen dictionary order;
    /// float values are distinguished bitwise, so `-0.0` and NaN payloads
    /// survive the round-trip), auto-selecting the code width: up to 256
    /// distinct values take `u8` codes ([`Column::Dict`]), up to 65536
    /// take `u16` codes ([`Column::Dict16`]). Fails if the column is
    /// already encoded or has more than 65536 distinct values.
    pub fn dict_encode(&self) -> Result<Column, EncodingError> {
        fn build<T: Copy, K: std::hash::Hash + Eq>(
            data: &[T],
            key: impl Fn(T) -> K,
        ) -> Result<(Vec<u16>, Vec<T>), EncodingError> {
            let mut seen: HashMap<K, u16> = HashMap::new();
            let mut dict: Vec<T> = Vec::new();
            let mut codes: Vec<u16> = Vec::with_capacity(data.len());
            for &v in data {
                let code = match seen.entry(key(v)) {
                    std::collections::hash_map::Entry::Occupied(e) => *e.get(),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        if dict.len() == 65536 {
                            return Err(EncodingError::DictTooLarge {
                                distinct: dict.len() + 1,
                                max: 65536,
                            });
                        }
                        dict.push(v);
                        *e.insert((dict.len() - 1) as u16)
                    }
                };
                codes.push(code);
            }
            Ok((codes, dict))
        }
        let (codes, dict) = match self {
            Column::F64(v) => {
                let (c, d) = build(v, f64::to_bits)?;
                (c, Column::f64(d))
            }
            Column::F32(v) => {
                let (c, d) = build(v, f32::to_bits)?;
                (c, Column::f32(d))
            }
            Column::I32(v) => {
                let (c, d) = build(v, |x| x)?;
                (c, Column::i32(d))
            }
            Column::U32(v) => {
                let (c, d) = build(v, |x| x)?;
                (c, Column::u32(d))
            }
            Column::U8(v) => {
                let (c, d) = build(v, |x| x)?;
                (c, Column::u8(d))
            }
            Column::Dict { .. } | Column::Dict16 { .. } | Column::Rle { .. } => {
                return Err(EncodingError::Nested)
            }
        };
        if dict.len() <= 256 {
            let narrow: Vec<u8> = codes.iter().map(|&c| c as u8).collect();
            Ok(Column::Dict {
                codes: Arc::new(narrow),
                dict: Box::new(dict),
            })
        } else {
            Ok(Column::Dict16 {
                codes: Arc::new(codes),
                dict: Box::new(dict),
            })
        }
    }

    /// Run-length-encodes a plain column (runs of bitwise-equal values).
    /// Fails if the column is already encoded or longer than `u32` run
    /// ends can address.
    pub fn rle_encode(&self) -> Result<Column, EncodingError> {
        fn build<T: Copy>(
            data: &[T],
            eq: impl Fn(T, T) -> bool,
        ) -> Result<(Vec<u32>, Vec<T>), EncodingError> {
            if data.len() > u32::MAX as usize {
                return Err(EncodingError::LenOverflow { len: data.len() });
            }
            let mut ends: Vec<u32> = Vec::new();
            let mut vals: Vec<T> = Vec::new();
            for (i, &v) in data.iter().enumerate() {
                match vals.last() {
                    Some(&last) if eq(last, v) => {}
                    _ => {
                        if i > 0 {
                            ends.push(i as u32);
                        }
                        vals.push(v);
                    }
                }
            }
            if !data.is_empty() {
                ends.push(data.len() as u32);
            }
            Ok((ends, vals))
        }
        let (ends, values) = match self {
            Column::F64(v) => {
                let (e, r) = build(v, |a, b| a.to_bits() == b.to_bits())?;
                (e, Column::f64(r))
            }
            Column::F32(v) => {
                let (e, r) = build(v, |a, b| a.to_bits() == b.to_bits())?;
                (e, Column::f32(r))
            }
            Column::I32(v) => {
                let (e, r) = build(v, |a, b| a == b)?;
                (e, Column::i32(r))
            }
            Column::U32(v) => {
                let (e, r) = build(v, |a, b| a == b)?;
                (e, Column::u32(r))
            }
            Column::U8(v) => {
                let (e, r) = build(v, |a, b| a == b)?;
                (e, Column::u8(r))
            }
            Column::Dict { .. } | Column::Dict16 { .. } | Column::Rle { .. } => {
                return Err(EncodingError::Nested)
            }
        };
        Ok(Column::Rle {
            run_ends: Arc::new(ends),
            values: Box::new(values),
        })
    }

    /// Materializes a plain column with the same logical content, bit for
    /// bit. Plain columns clone (a refcount bump). Panics on an invalid
    /// encoding — run [`Column::validate_encoding`] first for a hand-built
    /// variant (a column inside a [`Table`] has passed it).
    pub fn decode(&self) -> Column {
        fn gather<T: Copy>(codes: &[u8], dict: &[T]) -> Vec<T> {
            codes.iter().map(|&c| dict[c as usize]).collect()
        }
        fn expand<T: Copy>(run_ends: &[u32], values: &[T]) -> Vec<T> {
            let mut out = Vec::with_capacity(run_ends.last().map_or(0, |&e| e as usize));
            let mut start = 0u32;
            for (&end, &v) in run_ends.iter().zip(values) {
                out.resize(out.len() + (end - start) as usize, v);
                start = end;
            }
            out
        }
        fn gather16<T: Copy>(codes: &[u16], dict: &[T]) -> Vec<T> {
            codes.iter().map(|&c| dict[c as usize]).collect()
        }
        match self {
            Column::Dict { codes, dict } => match &**dict {
                Column::F64(d) => Column::f64(gather(codes, d)),
                Column::F32(d) => Column::f32(gather(codes, d)),
                Column::I32(d) => Column::i32(gather(codes, d)),
                Column::U32(d) => Column::u32(gather(codes, d)),
                Column::U8(d) => Column::u8(gather(codes, d)),
                nested => panic!("cannot decode nested encoding {}", nested.storage_name()),
            },
            Column::Dict16 { codes, dict } => match &**dict {
                Column::F64(d) => Column::f64(gather16(codes, d)),
                Column::F32(d) => Column::f32(gather16(codes, d)),
                Column::I32(d) => Column::i32(gather16(codes, d)),
                Column::U32(d) => Column::u32(gather16(codes, d)),
                Column::U8(d) => Column::u8(gather16(codes, d)),
                nested => panic!("cannot decode nested encoding {}", nested.storage_name()),
            },
            Column::Rle { run_ends, values } => match &**values {
                Column::F64(v) => Column::f64(expand(run_ends, v)),
                Column::F32(v) => Column::f32(expand(run_ends, v)),
                Column::I32(v) => Column::i32(expand(run_ends, v)),
                Column::U32(v) => Column::u32(expand(run_ends, v)),
                Column::U8(v) => Column::u8(expand(run_ends, v)),
                nested => panic!("cannot decode nested encoding {}", nested.storage_name()),
            },
            plain => plain.clone(),
        }
    }

    /// Checks the structural invariants of an encoded column (hand-built
    /// `Dict`/`Rle` variants bypass the validating constructors). Plain
    /// columns always pass. [`Table::add_column`] runs this on every column
    /// it accepts and no table operation breaks what it checked, so the
    /// scan loops index codes and runs of a table's columns without
    /// per-row checks — and without a per-query pass.
    pub fn validate_encoding(&self) -> Result<(), EncodingError> {
        #[cfg(test)]
        crate::fused::count(|c| c.validations += 1);
        match self {
            Column::Dict { codes, dict } => {
                if dict.is_encoded() {
                    return Err(EncodingError::Nested);
                }
                let dict_len = dict.len();
                if dict_len > 256 {
                    return Err(EncodingError::DictTooLarge {
                        distinct: dict_len,
                        max: 256,
                    });
                }
                // Lane-parallel max so the whole-column check vectorizes
                // (a short-circuiting scan would run scalar and cost more
                // than a Q6 fill).
                let mut lanes = [0u8; 64];
                let mut tail = 0u8;
                let mut chunks = codes.chunks_exact(64);
                for chunk in &mut chunks {
                    for (lane, &c) in lanes.iter_mut().zip(chunk) {
                        *lane = (*lane).max(c);
                    }
                }
                for &c in chunks.remainder() {
                    tail = tail.max(c);
                }
                let max = lanes.iter().fold(tail, |a, &b| a.max(b));
                if !codes.is_empty() && max as usize >= dict_len {
                    return Err(EncodingError::CodeOutOfRange {
                        code: max as u32,
                        dict_len,
                    });
                }
                Ok(())
            }
            Column::Dict16 { codes, dict } => {
                if dict.is_encoded() {
                    return Err(EncodingError::Nested);
                }
                let dict_len = dict.len();
                if dict_len > 65536 {
                    return Err(EncodingError::DictTooLarge {
                        distinct: dict_len,
                        max: 65536,
                    });
                }
                // Same lane-parallel whole-column max as the u8 arm.
                let mut lanes = [0u16; 32];
                let mut tail = 0u16;
                let mut chunks = codes.chunks_exact(32);
                for chunk in &mut chunks {
                    for (lane, &c) in lanes.iter_mut().zip(chunk) {
                        *lane = (*lane).max(c);
                    }
                }
                for &c in chunks.remainder() {
                    tail = tail.max(c);
                }
                let max = lanes.iter().fold(tail, |a, &b| a.max(b));
                if !codes.is_empty() && max as usize >= dict_len {
                    return Err(EncodingError::CodeOutOfRange {
                        code: max as u32,
                        dict_len,
                    });
                }
                Ok(())
            }
            Column::Rle { run_ends, values } => {
                if values.is_encoded() {
                    return Err(EncodingError::Nested);
                }
                if values.len() != run_ends.len() {
                    return Err(EncodingError::RunCountMismatch {
                        runs: run_ends.len(),
                        values: values.len(),
                    });
                }
                let mut prev = 0u32;
                for (index, &end) in run_ends.iter().enumerate() {
                    if end <= prev {
                        return Err(EncodingError::RunEndsNotIncreasing { index });
                    }
                    prev = end;
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Whether this column is stored encoded
    /// ([`Column::Dict`]/[`Column::Dict16`]/[`Column::Rle`]).
    pub fn is_encoded(&self) -> bool {
        matches!(
            self,
            Column::Dict { .. } | Column::Dict16 { .. } | Column::Rle { .. }
        )
    }

    /// The column describing this column's *logical* type: the dictionary
    /// / run-values column for encoded variants, `self` for plain ones.
    pub(crate) fn logical(&self) -> &Column {
        match self {
            Column::Dict { dict, .. } | Column::Dict16 { dict, .. } => dict,
            Column::Rle { values, .. } => values,
            plain => plain,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Column::F64(v) => v.len(),
            Column::F32(v) => v.len(),
            Column::I32(v) => v.len(),
            Column::U32(v) => v.len(),
            Column::U8(v) => v.len(),
            Column::Dict { codes, .. } => codes.len(),
            Column::Dict16 { codes, .. } => codes.len(),
            Column::Rle { run_ends, .. } => run_ends.last().map_or(0, |&e| e as usize),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn as_f64(&self) -> &[f64] {
        match self {
            Column::F64(v) => v,
            other => panic!("expected F64 column, found {}", other.type_name()),
        }
    }

    pub fn as_i32(&self) -> &[i32] {
        match self {
            Column::I32(v) => v,
            other => panic!("expected I32 column, found {}", other.type_name()),
        }
    }

    pub fn as_u32(&self) -> &[u32] {
        match self {
            Column::U32(v) => v,
            other => panic!("expected U32 column, found {}", other.type_name()),
        }
    }

    pub fn as_u8(&self) -> &[u8] {
        match self {
            Column::U8(v) => v,
            other => panic!("expected U8 column, found {}", other.type_name()),
        }
    }

    /// Whether this column can be read by the scalar expression layer
    /// (widened exactly to `f64`). The single source of truth behind
    /// the resolver's checks and `expr::NUMERIC_EXPECTED`. Encoded
    /// columns answer for their *logical* type — the executor reads
    /// them without decompressing.
    pub fn is_numeric(&self) -> bool {
        matches!(
            self.logical(),
            Column::F64(_) | Column::I32(_) | Column::U32(_) | Column::U8(_)
        )
    }

    /// The *logical* type tag — what expressions and the SQL resolver see
    /// (used by [`TableError::TypeMismatch`] and [`Table::schema`]).
    /// Encoded columns report their dictionary / run-value type, so plans
    /// and SQL are encoding-agnostic; [`Column::storage_name`] exposes the
    /// physical layout.
    pub fn type_name(&self) -> &'static str {
        match self.logical() {
            Column::F64(_) => "F64",
            Column::F32(_) => "F32",
            Column::I32(_) => "I32",
            Column::U32(_) => "U32",
            Column::U8(_) => "U8",
            // One level of nesting is rejected by validate_encoding; a
            // hand-built nested variant still gets a stable name.
            Column::Dict { .. } | Column::Dict16 { .. } | Column::Rle { .. } => "<nested encoding>",
        }
    }

    /// The physical storage tag (`"F64"`, `"Dict<U8>"`, `"Rle<I32>"`, …)
    /// for diagnostics that care about layout, e.g. reorder errors.
    pub fn storage_name(&self) -> &'static str {
        fn plain(c: &Column) -> usize {
            match c {
                Column::F64(_) => 0,
                Column::F32(_) => 1,
                Column::I32(_) => 2,
                Column::U32(_) => 3,
                Column::U8(_) => 4,
                _ => 5,
            }
        }
        const DICT: [&str; 6] = [
            "Dict<F64>",
            "Dict<F32>",
            "Dict<I32>",
            "Dict<U32>",
            "Dict<U8>",
            "Dict<..>",
        ];
        const DICT16: [&str; 6] = [
            "Dict16<F64>",
            "Dict16<F32>",
            "Dict16<I32>",
            "Dict16<U32>",
            "Dict16<U8>",
            "Dict16<..>",
        ];
        const RLE: [&str; 6] = [
            "Rle<F64>", "Rle<F32>", "Rle<I32>", "Rle<U32>", "Rle<U8>", "Rle<..>",
        ];
        match self {
            Column::F64(_) => "F64",
            Column::F32(_) => "F32",
            Column::I32(_) => "I32",
            Column::U32(_) => "U32",
            Column::U8(_) => "U8",
            Column::Dict { dict, .. } => DICT[plain(dict)],
            Column::Dict16 { dict, .. } => DICT16[plain(dict)],
            Column::Rle { values, .. } => RLE[plain(values)],
        }
    }

    /// Applies a row permutation (`perm[i]` = source row of new row `i`).
    /// Builds fresh storage, so sharers of the old storage are unaffected.
    /// Dictionary columns permute their codes (the dictionary is
    /// row-order-independent); RLE columns cannot be permuted without
    /// decoding — [`Table::reorder`] rejects them with a typed error
    /// before this is reached.
    fn permute(&mut self, perm: &[u32]) {
        fn apply<T: Copy>(data: &mut Arc<Vec<T>>, perm: &[u32]) {
            let out: Vec<T> = perm.iter().map(|&i| data[i as usize]).collect();
            *data = Arc::new(out);
        }
        match self {
            Column::F64(v) => apply(v, perm),
            Column::F32(v) => apply(v, perm),
            Column::I32(v) => apply(v, perm),
            Column::U32(v) => apply(v, perm),
            Column::U8(v) => apply(v, perm),
            Column::Dict { codes, .. } => apply(codes, perm),
            Column::Dict16 { codes, .. } => apply(codes, perm),
            Column::Rle { .. } => {
                unreachable!("Table::reorder rejects RLE columns before permuting")
            }
        }
    }
}

/// An element type a plain column stores.
pub(crate) trait Element: Copy {
    /// The values of `col` if it is a plain column of this type.
    fn plain(col: &Column) -> Option<&[Self]>;
}

macro_rules! element {
    ($($t:ty => $variant:ident),*) => {$(
        impl Element for $t {
            fn plain(col: &Column) -> Option<&[$t]> {
                match col {
                    Column::$variant(v) => Some(v),
                    _ => None,
                }
            }
        }
    )*};
}

element!(f64 => F64, i32 => I32, u32 => U32, u8 => U8);

/// A column's storage borrowed for reading, typed by its element: the
/// plain values, or the codes / run ends and the value array they index.
/// The scan reads every column through [`Storage::read`], never
/// decompressing one.
#[derive(Clone, Copy)]
pub(crate) enum Storage<'t, T> {
    Plain(&'t [T]),
    Dict {
        codes: &'t [u8],
        dict: &'t [T],
    },
    Dict16 {
        codes: &'t [u16],
        dict: &'t [T],
    },
    Rle {
        run_ends: &'t [u32],
        values: &'t [T],
    },
}

impl Column {
    /// This column's storage, if its logical type is `T`.
    pub(crate) fn storage<T: Element>(&self) -> Option<Storage<'_, T>> {
        Some(match self {
            Column::Dict { codes, dict } => Storage::Dict {
                codes,
                dict: T::plain(dict)?,
            },
            Column::Dict16 { codes, dict } => Storage::Dict16 {
                codes,
                dict: T::plain(dict)?,
            },
            Column::Rle { run_ends, values } => Storage::Rle {
                run_ends,
                values: T::plain(values)?,
            },
            plain => Storage::Plain(T::plain(plain)?),
        })
    }
}

#[cfg(test)]
thread_local! {
    /// Runs [`advance_run`] has stepped over on this thread.
    pub(crate) static RUN_STEPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Index of the run containing `row`, stepping forward from `run`, or by
/// binary search if `row` lies before it (an unordered gather list).
#[inline]
fn advance_run(run_ends: &[u32], run: usize, row: u32) -> usize {
    if run > 0 && row < run_ends[run - 1] {
        return run_ends.partition_point(|&e| e <= row);
    }
    let mut next = run;
    while run_ends[next] <= row {
        next += 1;
    }
    #[cfg(test)]
    RUN_STEPS.with(|s| s.set(s.get() + next - run));
    next
}

impl<T: Copy> Storage<'_, T> {
    /// `out[i] = f(out[i], value of row i)` for the rows of one batch: the
    /// `out.len()` rows from `batch.dense_start()` when `batch` reads a
    /// range, the row ids `batch.rows` otherwise. Plain and dictionary storage take one
    /// loop per row, monomorphized per element type. An RLE read finds
    /// the run of its first row by binary search and steps forward from
    /// there, applying `f` once per run span — no position is carried
    /// between batches, and a batch's cost follows its rows, not its
    /// place in the column. A table's codes and runs index inside their
    /// values ([`Table::add_column`]).
    #[inline(always)]
    pub(crate) fn read<O: Copy>(&self, batch: Sel<'_>, out: &mut [O], f: impl Fn(O, T) -> O) {
        #[inline(always)]
        fn rows<V: Copy, O: Copy>(col: &[V], batch: Sel<'_>, out: &mut [O], f: impl Fn(O, V) -> O) {
            match batch.dense_start() {
                Some(lo) => {
                    let col = &col[lo..lo + out.len()];
                    for (o, &v) in out.iter_mut().zip(col) {
                        *o = f(*o, v);
                    }
                }
                None => {
                    for (o, &row) in out.iter_mut().zip(batch.rows) {
                        *o = f(*o, col[row as usize]);
                    }
                }
            }
        }
        match *self {
            Storage::Plain(col) => rows(col, batch, out, f),
            Storage::Dict { codes, dict } => rows(codes, batch, out, |o, c| f(o, dict[c as usize])),
            Storage::Dict16 { codes, dict } => {
                rows(codes, batch, out, |o, c| f(o, dict[c as usize]))
            }
            Storage::Rle { run_ends, values } => {
                let n = out.len();
                if n == 0 {
                    return;
                }
                let row = |i: usize| match batch.dense_start() {
                    Some(lo) => (lo + i) as u32,
                    None => batch.rows[i],
                };
                let (mut i, mut run) = (0, run_ends.partition_point(|&e| e <= row(0)));
                while i < n {
                    run = advance_run(run_ends, run, row(i));
                    let start = run.checked_sub(1).map_or(0, |r| run_ends[r]);
                    let end = run_ends[run];
                    let span = match batch.dense_start() {
                        Some(lo) => (end as usize - lo).min(n),
                        None => {
                            let more = batch.rows[i..n].iter();
                            i + more.take_while(|r| (start..end).contains(r)).count()
                        }
                    };
                    let v = values[run];
                    for o in &mut out[i..span] {
                        *o = f(*o, v);
                    }
                    i = span;
                }
            }
        }
    }
}

/// A named collection of equal-length columns.
pub struct Table {
    pub name: String,
    columns: Vec<(String, Column)>,
    rows: usize,
}

/// Heuristics steering [`Table::encode_auto`], the ingest-path
/// auto-encoder. The defaults reproduce the offline policy the TPC-H
/// loader used to hard-code: prefer RLE when runs average at least 4 rows
/// (the run-ends array then costs no more than the plain data), otherwise
/// dictionary-encode when the distinct count fits a code width, otherwise
/// stay plain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EncodePolicy {
    /// Columns with fewer rows stay plain (encoding overhead dominates).
    pub min_rows: usize,
    /// Take RLE only when `runs * min_avg_run <= rows` — i.e. runs span
    /// at least this many rows on average.
    pub min_avg_run: usize,
    /// Upper bound on dictionary entries. `dict_encode` picks `u8` codes
    /// at ≤ 256 entries and `u16` up to 65536; lowering this below 65536
    /// keeps wide dictionaries plain instead.
    pub max_dict: usize,
}

impl Default for EncodePolicy {
    fn default() -> Self {
        EncodePolicy {
            min_rows: 4,
            min_avg_run: 4,
            max_dict: 65536,
        }
    }
}

/// Errors raised by table operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    ColumnLengthMismatch {
        column: String,
        expected: usize,
        found: usize,
    },
    DuplicateColumn(String),
    NoSuchColumn(String),
    /// A query referenced an existing column at the wrong storage type
    /// (e.g. an arithmetic expression over an `I32` column).
    TypeMismatch {
        column: String,
        expected: &'static str,
        found: &'static str,
    },
    /// A physical reorder would have to decode an encoded column. The
    /// storage layer never decodes silently — decode (or re-encode) the
    /// column explicitly first.
    ReorderUnsupported {
        column: String,
        storage: &'static str,
    },
    /// [`Table::add_column`] was handed an encoded column that fails
    /// [`Column::validate_encoding`] (codes past the dictionary, run ends
    /// not strictly increasing, a nested encoding).
    Encoding {
        column: String,
        error: EncodingError,
    },
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::ColumnLengthMismatch {
                column,
                expected,
                found,
            } => write!(f, "column {column:?} has {found} rows, expected {expected}"),
            TableError::DuplicateColumn(c) => write!(f, "duplicate column {c:?}"),
            TableError::NoSuchColumn(c) => write!(f, "no such column {c:?}"),
            TableError::TypeMismatch {
                column,
                expected,
                found,
            } => write!(f, "column {column:?} is {found}, expected {expected}"),
            TableError::ReorderUnsupported { column, storage } => write!(
                f,
                "column {column:?} ({storage}) cannot be reordered without decoding"
            ),
            TableError::Encoding { column, error } => write!(f, "column {column:?}: {error}"),
        }
    }
}

impl std::error::Error for TableError {}

impl Table {
    pub fn new(name: impl Into<String>) -> Self {
        Table {
            name: name.into(),
            columns: Vec::new(),
            rows: 0,
        }
    }

    /// Adds a column; all columns must have equal length, and an encoded
    /// column must pass [`Column::validate_encoding`]. This is the only way
    /// a column enters a table, and [`Table::encode_auto`],
    /// [`Table::reorder`] and [`Table::mvcc_update_i32`] — the only other
    /// writers — keep a valid encoding valid (they produce encodings through
    /// the encoders, permute codes, and rewrite plain values), so every
    /// column of every table is well-formed: the guarantee the scan
    /// kernels index codes and runs under.
    pub fn add_column(
        &mut self,
        name: impl Into<String>,
        column: Column,
    ) -> Result<(), TableError> {
        let name = name.into();
        if self.columns.iter().any(|(n, _)| *n == name) {
            return Err(TableError::DuplicateColumn(name));
        }
        if let Err(error) = column.validate_encoding() {
            return Err(TableError::Encoding {
                column: name,
                error,
            });
        }
        if self.columns.is_empty() {
            self.rows = column.len();
        } else if column.len() != self.rows {
            return Err(TableError::ColumnLengthMismatch {
                column: name,
                expected: self.rows,
                found: column.len(),
            });
        }
        self.columns.push((name, column));
        Ok(())
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn column(&self, name: &str) -> Result<&Column, TableError> {
        self.columns
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c)
            .ok_or_else(|| TableError::NoSuchColumn(name.to_string()))
    }

    /// Schema introspection: `(column name, *logical* type tag)` pairs in
    /// insertion order. This is what the SQL resolver type-checks names
    /// against, and what "unknown column" diagnostics list. Encoded
    /// columns report their dictionary / run-value type — plans and
    /// prepared-statement cache keys are encoding-agnostic by
    /// construction.
    pub fn schema(&self) -> impl Iterator<Item = (&str, &'static str)> + '_ {
        self.columns
            .iter()
            .map(|(n, c)| (n.as_str(), c.type_name()))
    }

    /// Column names in insertion order (for diagnostics).
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Looks up an `F64` column, surfacing a [`TableError::TypeMismatch`]
    /// (not a panic) on a wrong storage type — the fallible lookups the
    /// plan layer validates queries with.
    pub fn f64s(&self, name: &str) -> Result<&[f64], TableError> {
        match self.column(name)? {
            Column::F64(v) => Ok(v),
            other => Err(type_mismatch(name, "F64", other)),
        }
    }

    /// Looks up an `I32` column (see [`Table::f64s`]).
    pub fn i32s(&self, name: &str) -> Result<&[i32], TableError> {
        match self.column(name)? {
            Column::I32(v) => Ok(v),
            other => Err(type_mismatch(name, "I32", other)),
        }
    }

    /// Looks up a `U32` column (see [`Table::f64s`]).
    pub fn u32s(&self, name: &str) -> Result<&[u32], TableError> {
        match self.column(name)? {
            Column::U32(v) => Ok(v),
            other => Err(type_mismatch(name, "U32", other)),
        }
    }

    /// Looks up a `U8` column (see [`Table::f64s`]).
    pub fn u8s(&self, name: &str) -> Result<&[u8], TableError> {
        match self.column(name)? {
            Column::U8(v) => Ok(v),
            other => Err(type_mismatch(name, "U8", other)),
        }
    }

    /// Physically reorders all rows (models compaction/placement changes).
    /// `perm` must be a permutation of `0..rows`. Dictionary columns
    /// permute their codes (copy-on-write, like plain columns); RLE
    /// columns are rejected with a typed error *before any column moves* —
    /// permuting runs would mean decoding, which the storage layer never
    /// does silently.
    pub fn reorder(&mut self, perm: &[u32]) -> Result<(), TableError> {
        assert_eq!(perm.len(), self.rows);
        debug_assert!({
            let mut seen = vec![false; self.rows];
            perm.iter().all(|&i| {
                let ok = !seen[i as usize];
                seen[i as usize] = true;
                ok
            })
        });
        if let Some((n, c)) = self
            .columns
            .iter()
            .find(|(_, c)| matches!(c, Column::Rle { .. }))
        {
            return Err(TableError::ReorderUnsupported {
                column: n.clone(),
                storage: c.storage_name(),
            });
        }
        for (_, c) in &mut self.columns {
            c.permute(perm);
        }
        Ok(())
    }

    /// Re-encodes every plain column in place according to `policy` —
    /// the ingest-path auto-encoder. Each column independently becomes
    /// [`Column::Rle`] (long runs), [`Column::Dict`]/[`Column::Dict16`]
    /// (few distinct values; `dict_encode` picks the code width), or
    /// stays plain when neither pays off. Already-encoded columns are
    /// left untouched. Logical content is preserved bit-for-bit, and the
    /// storage is copy-on-write: sharers of the original column vectors
    /// are unaffected.
    pub fn encode_auto(&mut self, policy: EncodePolicy) {
        for (_, c) in &mut self.columns {
            if c.is_encoded() || c.len() < policy.min_rows {
                continue;
            }
            if let Ok(rle) = c.rle_encode() {
                if let Column::Rle { run_ends, .. } = &rle {
                    if run_ends.len() * policy.min_avg_run <= c.len() {
                        *c = rle;
                        continue;
                    }
                }
            }
            if let Ok(dict) = c.dict_encode() {
                // A dictionary only pays when codes reference shared
                // entries; near-unique columns stay plain.
                let entries = dict.logical().len();
                if entries <= policy.max_dict && entries * 2 <= c.len() {
                    *c = dict;
                }
            }
        }
    }

    /// Models an MVCC-style UPDATE (the PostgreSQL behaviour behind the
    /// paper's Algorithm 1): rows matched by `predicate` on column
    /// `pred_col` are *re-inserted at the end* of the table (new row
    /// version), with `update` applied to their value in `set_col`. The
    /// logical content of all other columns is unchanged — only the
    /// physical order differs.
    pub fn mvcc_update_i32(
        &mut self,
        pred_col: &str,
        predicate: impl Fn(i32) -> bool,
        update: impl Fn(i32) -> i32,
    ) -> Result<usize, TableError> {
        let matches: Vec<bool> = self
            .column(pred_col)?
            .as_i32()
            .iter()
            .map(|&v| predicate(v))
            .collect();
        let updated = matches.iter().filter(|&&m| m).count();
        // New physical order: unmatched rows first (original order), then
        // the new versions of the updated rows.
        let perm: Vec<u32> = (0..self.rows as u32)
            .filter(|&i| !matches[i as usize])
            .chain((0..self.rows as u32).filter(|&i| matches[i as usize]))
            .collect();
        self.reorder(&perm)?;
        // Apply the update to the relocated rows (now at the tail).
        // `make_mut` is copy-on-write; `reorder` just rebuilt this storage,
        // so it is already private and no clone happens here.
        let tail = self.rows - updated;
        for (n, c) in &mut self.columns {
            if n == pred_col {
                if let Column::I32(v) = c {
                    for x in &mut Arc::make_mut(v)[tail..] {
                        *x = update(*x);
                    }
                }
            }
        }
        Ok(updated)
    }
}

/// `name` is `found`'s (logical) type where `expected` was needed.
pub(crate) fn type_mismatch(name: &str, expected: &'static str, found: &Column) -> TableError {
    TableError::TypeMismatch {
        column: name.to_string(),
        expected,
        found: found.type_name(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn algorithm1_table() -> Table {
        // CREATE TABLE R (i int, f float); INSERT 3 rows.
        let mut t = Table::new("R");
        t.add_column("i", Column::i32(vec![1, 2, 3])).unwrap();
        t.add_column(
            "f",
            Column::f64(vec![2.5e-16, 0.999_999_999_999_999, 2.5e-16]),
        )
        .unwrap();
        t
    }

    #[test]
    fn mvcc_update_reorders_rows() {
        let mut t = algorithm1_table();
        // UPDATE R SET i = i + 1 WHERE i = 2;
        let n = t.mvcc_update_i32("i", |i| i == 2, |i| i + 1).unwrap();
        assert_eq!(n, 1);
        assert_eq!(t.column("i").unwrap().as_i32(), &[1, 3, 3]);
        // 'f' content unchanged, physically reordered: updated row moved
        // to the end.
        assert_eq!(
            t.column("f").unwrap().as_f64(),
            &[2.5e-16, 2.5e-16, 0.999_999_999_999_999]
        );
    }

    #[test]
    fn algorithm_1_plain_sum_changes() {
        let mut t = algorithm1_table();
        let before: f64 = t.column("f").unwrap().as_f64().iter().sum();
        t.mvcc_update_i32("i", |i| i == 2, |i| i + 1).unwrap();
        let after: f64 = t.column("f").unwrap().as_f64().iter().sum();
        // The paper's headline bug: the same query returns different bits
        // before and after an unrelated UPDATE; at PostgreSQL's default
        // 15-digit float display the two results even *print* differently
        // ("0.999999999999999" vs "1").
        assert_ne!(before.to_bits(), after.to_bits());
        assert_eq!(format!("{before:.15}"), "0.999999999999999");
        assert_eq!(format!("{after:.15}"), "1.000000000000000");
    }

    #[test]
    fn column_length_mismatch_rejected() {
        let mut t = Table::new("t");
        t.add_column("a", Column::f64(vec![1.0, 2.0])).unwrap();
        let err = t.add_column("b", Column::i32(vec![1])).unwrap_err();
        assert!(matches!(err, TableError::ColumnLengthMismatch { .. }));
        let err = t.add_column("a", Column::i32(vec![1, 2])).unwrap_err();
        assert!(matches!(err, TableError::DuplicateColumn(_)));
    }

    #[test]
    fn typed_lookups_surface_errors_not_panics() {
        let mut t = Table::new("t");
        t.add_column("f", Column::f64(vec![1.0])).unwrap();
        t.add_column("k", Column::u32(vec![7u32])).unwrap();
        assert_eq!(t.f64s("f").unwrap(), &[1.0]);
        assert_eq!(t.u32s("k").unwrap(), &[7]);
        assert_eq!(
            t.f64s("nope").unwrap_err(),
            TableError::NoSuchColumn("nope".into())
        );
        assert_eq!(
            t.i32s("f").unwrap_err(),
            TableError::TypeMismatch {
                column: "f".into(),
                expected: "I32",
                found: "F64",
            }
        );
        assert!(matches!(
            t.f64s("k").unwrap_err(),
            TableError::TypeMismatch {
                expected: "F64",
                ..
            }
        ));
        assert!(matches!(
            t.u8s("f").unwrap_err(),
            TableError::TypeMismatch { expected: "U8", .. }
        ));
        assert!(matches!(
            t.u32s("f").unwrap_err(),
            TableError::TypeMismatch {
                expected: "U32",
                ..
            }
        ));
    }

    #[test]
    fn colref_construction_equality_and_display() {
        let a = ColRef::new("l_quantity");
        let b: ColRef = "l_quantity".into();
        let c: ColRef = String::from("l_quantity").into();
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a, "l_quantity");
        assert_eq!(a.as_str(), "l_quantity");
        assert_eq!(format!("{a}"), "l_quantity");
        assert_ne!(a, ColRef::new("l_discount"));
        // Deref lets a ColRef flow into &str positions.
        fn takes_str(_: &str) {}
        takes_str(&a);
    }

    #[test]
    fn schema_introspection_lists_names_and_types_in_order() {
        let mut t = Table::new("s");
        t.add_column("f", Column::f64(vec![1.0])).unwrap();
        t.add_column("k", Column::i32(vec![1])).unwrap();
        t.add_column("tag", Column::u8(vec![1])).unwrap();
        let schema: Vec<(&str, &str)> = t.schema().collect();
        assert_eq!(schema, vec![("f", "F64"), ("k", "I32"), ("tag", "U8")]);
        assert_eq!(t.column_names(), vec!["f", "k", "tag"]);
    }

    /// Satellite: diagnostics carry the column name and the expected vs
    /// actual storage type — pinned as exact strings so regressions in
    /// actionability are visible.
    #[test]
    fn error_messages_are_actionable() {
        assert_eq!(
            TableError::TypeMismatch {
                column: "l_shipdate".into(),
                expected: "F64",
                found: "I32",
            }
            .to_string(),
            "column \"l_shipdate\" is I32, expected F64"
        );
        assert_eq!(
            TableError::NoSuchColumn("l_comment".into()).to_string(),
            "no such column \"l_comment\""
        );
        assert_eq!(
            TableError::ColumnLengthMismatch {
                column: "v".into(),
                expected: 10,
                found: 7,
            }
            .to_string(),
            "column \"v\" has 7 rows, expected 10"
        );
        assert_eq!(
            TableError::DuplicateColumn("v".into()).to_string(),
            "duplicate column \"v\""
        );
    }

    #[test]
    fn reorder_applies_to_all_columns() {
        let mut t = Table::new("t");
        t.add_column("x", Column::i32(vec![10, 20, 30])).unwrap();
        t.add_column("y", Column::u8(b"abc".to_vec())).unwrap();
        t.add_column("z", Column::u32(vec![100u32, 200, 300]))
            .unwrap();
        t.reorder(&[2, 0, 1]).unwrap();
        assert_eq!(t.column("x").unwrap().as_i32(), &[30, 10, 20]);
        assert_eq!(t.column("y").unwrap().as_u8(), b"cab");
        assert_eq!(t.column("z").unwrap().as_u32(), &[300, 100, 200]);
    }

    #[test]
    fn dict_encode_round_trips_bitwise() {
        let vals = vec![0.05, 0.07, -0.0, 0.05, f64::NAN, 0.07, -0.0];
        let col = Column::f64(vals.clone());
        let enc = col.dict_encode().unwrap();
        let Column::Dict { ref dict, .. } = enc else {
            panic!("dict_encode must produce Dict");
        };
        assert_eq!(dict.len(), 4); // 0.05, 0.07, -0.0, NaN — bitwise distinct
        let dec = enc.decode();
        for (a, b) in dec.as_f64().iter().zip(&vals) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Logical transparency: type/len/numeric answer as the plain column.
        assert_eq!(enc.type_name(), "F64");
        assert_eq!(enc.storage_name(), "Dict<F64>");
        assert_eq!(enc.len(), vals.len());
        assert!(enc.is_numeric());
        assert!(enc.is_encoded());
    }

    #[test]
    fn rle_encode_round_trips_bitwise() {
        let vals: Vec<u8> = vec![1, 1, 1, 2, 2, 1, 3, 3, 3, 3];
        let enc = Column::u8(vals.clone()).rle_encode().unwrap();
        let Column::Rle {
            ref run_ends,
            ref values,
        } = enc
        else {
            panic!("rle_encode must produce Rle");
        };
        assert_eq!(run_ends.as_slice(), &[3, 5, 6, 10]);
        assert_eq!(values.as_u8(), &[1, 2, 1, 3]);
        assert_eq!(enc.len(), vals.len());
        assert_eq!(enc.type_name(), "U8");
        assert_eq!(enc.storage_name(), "Rle<U8>");
        assert_eq!(enc.decode().as_u8(), vals.as_slice());
        // Empty column: zero runs, zero length.
        let empty = Column::i32(Vec::<i32>::new()).rle_encode().unwrap();
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.decode().as_i32(), &[] as &[i32]);
    }

    #[test]
    fn encoding_validation_rejects_invalid_data() {
        // Code past the dictionary.
        let err = Column::dict(vec![0u8, 3], Column::f64(vec![1.0, 2.0])).unwrap_err();
        assert_eq!(
            err,
            EncodingError::CodeOutOfRange {
                code: 3,
                dict_len: 2
            }
        );
        // Non-increasing run ends (includes a zero-length first run).
        let err = Column::rle(vec![2u32, 2], Column::u8(vec![1, 2])).unwrap_err();
        assert_eq!(err, EncodingError::RunEndsNotIncreasing { index: 1 });
        let err = Column::rle(vec![0u32], Column::u8(vec![1])).unwrap_err();
        assert_eq!(err, EncodingError::RunEndsNotIncreasing { index: 0 });
        // Run-count mismatch.
        let err = Column::rle(vec![1u32, 2], Column::u8(vec![1])).unwrap_err();
        assert_eq!(err, EncodingError::RunCountMismatch { runs: 2, values: 1 });
        // Nested encodings.
        let dict = Column::dict(vec![0u8], Column::f64(vec![1.0])).unwrap();
        assert_eq!(
            Column::dict(vec![0u8], dict.clone()).unwrap_err(),
            EncodingError::Nested
        );
        assert_eq!(
            Column::rle(vec![1u32], dict.clone()).unwrap_err(),
            EncodingError::Nested
        );
        assert_eq!(dict.dict_encode().unwrap_err(), EncodingError::Nested);
        assert_eq!(dict.rle_encode().unwrap_err(), EncodingError::Nested);
        // >256 distinct values widen to u16 codes; >65536 cannot encode.
        let wide = Column::i32((0..300).collect::<Vec<i32>>());
        assert_eq!(wide.dict_encode().unwrap().storage_name(), "Dict16<I32>");
        let too_wide = Column::i32((0..70_000).collect::<Vec<i32>>());
        assert_eq!(
            too_wide.dict_encode().unwrap_err(),
            EncodingError::DictTooLarge {
                distinct: 65537,
                max: 65536
            }
        );
        // Hand-built Dict16 invariants: out-of-range code, oversized dict.
        let err = Column::dict16(vec![0u16, 9], Column::f64(vec![1.0, 2.0])).unwrap_err();
        assert_eq!(
            err,
            EncodingError::CodeOutOfRange {
                code: 9,
                dict_len: 2
            }
        );
        assert_eq!(
            Column::dict16(vec![0u16], dict.clone()).unwrap_err(),
            EncodingError::Nested
        );
        let err = Column::Dict16 {
            codes: Arc::new(vec![0u16]),
            dict: Box::new(Column::i32((0..70_000).collect::<Vec<i32>>())),
        }
        .validate_encoding()
        .unwrap_err();
        assert_eq!(
            err,
            EncodingError::DictTooLarge {
                distinct: 70_000,
                max: 65536
            }
        );
    }

    /// A malformed encoding built by hand around the validating
    /// constructors is refused where it would enter a table — typed, and
    /// before any query can see it.
    #[test]
    fn malformed_encodings_are_typed_errors() {
        // Codes pointing past the dictionary.
        let mut t = Table::new("t");
        let err = t
            .add_column(
                "x",
                Column::Dict {
                    codes: Arc::new(vec![0, 1, 9]),
                    dict: Box::new(Column::f64(vec![1.0, 2.0])),
                },
            )
            .unwrap_err();
        assert_eq!(
            err,
            TableError::Encoding {
                column: "x".into(),
                error: EncodingError::CodeOutOfRange {
                    code: 9,
                    dict_len: 2
                },
            }
        );
        let err = t
            .add_column(
                "x",
                Column::Dict16 {
                    codes: Arc::new(vec![0, 300]),
                    dict: Box::new(Column::i32((0..300).collect::<Vec<_>>())),
                },
            )
            .unwrap_err();
        assert_eq!(
            err,
            TableError::Encoding {
                column: "x".into(),
                error: EncodingError::CodeOutOfRange {
                    code: 300,
                    dict_len: 300
                },
            }
        );

        // Run ends that are not strictly increasing (the logical length
        // matches the table's; the *invariant* is broken).
        t.add_column("v", Column::f64(vec![1.0, 2.0, 3.0, 4.0]))
            .unwrap();
        let err = t
            .add_column(
                "g",
                Column::Rle {
                    run_ends: Arc::new(vec![2, 2, 4]),
                    values: Box::new(Column::u8(vec![0, 1, 0])),
                },
            )
            .unwrap_err();
        let want = TableError::Encoding {
            column: "g".into(),
            error: EncodingError::RunEndsNotIncreasing { index: 1 },
        };
        assert_eq!(err, want);
        // The pinned message names the column and the defect.
        assert_eq!(
            want.to_string(),
            "column \"g\": run_ends must be strictly increasing (violated at run 1)"
        );
        // A nested encoding, and nothing refused got in.
        let inner = Column::u8(vec![7; 4]).rle_encode().unwrap();
        let err = t
            .add_column(
                "n",
                Column::Dict {
                    codes: Arc::new(vec![0; 4]),
                    dict: Box::new(inner),
                },
            )
            .unwrap_err();
        assert_eq!(
            err,
            TableError::Encoding {
                column: "n".into(),
                error: EncodingError::Nested,
            }
        );
        assert_eq!(t.column_names(), ["v"]);
    }

    /// `add_column` is the only way in, and the other writers —
    /// `encode_auto` under every policy in use, `reorder`,
    /// `mvcc_update_i32` — keep every column valid.
    #[test]
    fn table_writers_keep_encodings_valid() {
        fn assert_valid(t: &Table, ctx: &str) {
            for (name, col) in &t.columns {
                assert_eq!(col.validate_encoding(), Ok(()), "{ctx}: {name}");
            }
        }
        let n = 4096usize;
        let table = |sorted: bool| {
            let mut t = Table::new("t");
            let col = |f: &dyn Fn(usize) -> i32| Column::i32((0..n).map(f).collect::<Vec<_>>());
            if sorted {
                t.add_column("runs", col(&|i| (i / 64) as i32)).unwrap();
            }
            t.add_column("id", col(&|i| i as i32)).unwrap();
            t.add_column("tag", col(&|i| (i % 7) as i32)).unwrap();
            t.add_column("key", col(&|i| (i * 7 % 1000) as i32))
                .unwrap();
            let pre = Column::dict(vec![1u8; n], Column::f64(vec![1.5, 2.5])).unwrap();
            t.add_column("pre", pre).unwrap();
            t
        };
        let policies = [
            EncodePolicy::default(),
            EncodePolicy {
                max_dict: 256,
                ..EncodePolicy::default()
            },
            EncodePolicy {
                min_avg_run: 8,
                ..EncodePolicy::default()
            },
        ];
        for policy in policies {
            let mut t = table(true);
            t.encode_auto(policy);
            assert_eq!(t.column("runs").unwrap().storage_name(), "Rle<I32>");
            assert_valid(&t, &format!("encode_auto {policy:?}"));

            // No RLE column: the table reorders, dictionary codes and all.
            let mut t = table(false);
            t.encode_auto(policy);
            assert_eq!(t.column("tag").unwrap().storage_name(), "Dict<I32>");
            let perm: Vec<u32> = (0..n as u32).map(|i| (i * 5 + 3) % n as u32).collect();
            t.reorder(&perm).unwrap();
            assert_valid(&t, &format!("reorder {policy:?}"));
            let updated = t.mvcc_update_i32("id", |v| v % 3 == 0, |v| -v).unwrap();
            assert_eq!(updated, n.div_ceil(3));
            assert_valid(&t, &format!("mvcc_update_i32 {policy:?}"));
        }
    }

    #[test]
    fn encoding_error_messages_are_actionable() {
        assert_eq!(
            EncodingError::CodeOutOfRange {
                code: 9,
                dict_len: 4
            }
            .to_string(),
            "dictionary code 9 out of range (dict has 4 entries)"
        );
        assert_eq!(
            EncodingError::DictTooLarge {
                distinct: 65537,
                max: 65536
            }
            .to_string(),
            "dictionary would need 65537 entries (codes allow at most 65536)"
        );
        assert_eq!(
            EncodingError::RunEndsNotIncreasing { index: 2 }.to_string(),
            "run_ends must be strictly increasing (violated at run 2)"
        );
        assert_eq!(
            EncodingError::Nested.to_string(),
            "encoded columns cannot nest another encoding"
        );
        assert_eq!(
            TableError::ReorderUnsupported {
                column: "l_shipdate".into(),
                storage: "Rle<I32>",
            }
            .to_string(),
            "column \"l_shipdate\" (Rle<I32>) cannot be reordered without decoding"
        );
    }

    #[test]
    fn schema_reports_logical_types_for_encoded_columns() {
        let mut t = Table::new("s");
        t.add_column("tag", Column::u8(vec![7, 7, 9]).dict_encode().unwrap())
            .unwrap();
        t.add_column("day", Column::i32(vec![1, 1, 2]).rle_encode().unwrap())
            .unwrap();
        let schema: Vec<(&str, &str)> = t.schema().collect();
        assert_eq!(schema, vec![("tag", "U8"), ("day", "I32")]);
    }

    #[test]
    fn reorder_permutes_dict_codes_and_rejects_rle() {
        // Dict path: the permutation lands on the codes; shared owners of
        // the original codes are unaffected (copy-on-write).
        let enc = Column::f64(vec![1.5, 2.5, 3.5]).dict_encode().unwrap();
        let shared = enc.clone();
        let mut t = Table::new("t");
        t.add_column("v", enc).unwrap();
        t.reorder(&[2, 1, 0]).unwrap();
        let reordered = t.column("v").unwrap();
        assert!(reordered.is_encoded(), "reorder must not decode Dict");
        assert_eq!(reordered.decode().as_f64(), &[3.5, 2.5, 1.5]);
        assert_eq!(shared.decode().as_f64(), &[1.5, 2.5, 3.5]);
        // Rle path: typed error, table untouched.
        let mut t = Table::new("t");
        t.add_column("x", Column::i32(vec![10, 20])).unwrap();
        t.add_column("r", Column::u8(vec![1, 1]).rle_encode().unwrap())
            .unwrap();
        let err = t.reorder(&[1, 0]).unwrap_err();
        assert_eq!(
            err,
            TableError::ReorderUnsupported {
                column: "r".into(),
                storage: "Rle<U8>",
            }
        );
        // The error fired before any column was permuted.
        assert_eq!(t.column("x").unwrap().as_i32(), &[10, 20]);
    }

    #[test]
    fn dict16_round_trips_bitwise_and_reorders() {
        // 300 distinct doubles force u16 codes.
        let vals: Vec<f64> = (0..1000).map(|i| (i % 300) as f64 * 0.25 - 30.0).collect();
        let enc = Column::f64(vals.clone()).dict_encode().unwrap();
        assert_eq!(enc.storage_name(), "Dict16<F64>");
        assert_eq!(enc.type_name(), "F64");
        assert_eq!(enc.len(), vals.len());
        assert!(enc.is_numeric());
        assert!(enc.is_encoded());
        for (a, b) in enc.decode().as_f64().iter().zip(&vals) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Reorder permutes the codes copy-on-write, like Dict.
        let shared = enc.clone();
        let mut t = Table::new("t");
        t.add_column("v", enc).unwrap();
        let perm: Vec<u32> = (0..1000).rev().collect();
        t.reorder(&perm).unwrap();
        let reordered = t.column("v").unwrap();
        assert!(reordered.is_encoded(), "reorder must not decode Dict16");
        let dec = reordered.decode();
        for (i, v) in dec.as_f64().iter().enumerate() {
            assert_eq!(v.to_bits(), vals[999 - i].to_bits());
        }
        for (a, b) in shared.decode().as_f64().iter().zip(&vals) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// An RLE read starts from a binary search for its first row: 64 rows
    /// of a long column's last batch step over the runs they span, not
    /// the runs before them — gathered and as their covering range — and
    /// read `Column::decode`'s bits.
    #[test]
    fn rle_reads_step_over_the_runs_they_span() {
        // 2^18 runs of 3 and 5 rows alternately: 2^20 rows.
        let mut run_ends = Vec::with_capacity(1 << 18);
        let mut end = 0u32;
        for r in 0..1u32 << 18 {
            end += 3 + 2 * (r % 2);
            run_ends.push(end);
        }
        let n = end as usize;
        assert_eq!(n, 1 << 20);
        let values: Vec<f64> = (0..1 << 18).map(|r| r as f64 * 0.5 - 1e5).collect();
        let col = Column::rle(run_ends.clone(), Column::f64(values)).unwrap();
        let decoded = col.decode();
        let plain = decoded.as_f64();
        let storage = col.storage::<f64>().unwrap();
        let last_batch = n - crate::fused::FUSED_BATCH_ROWS;
        let rows: Vec<u32> = (0..64).map(|k| (last_batch + 5 + k * 61) as u32).collect();
        let run_of = |row: u32| run_ends.partition_point(|&e| e <= row);
        let spans = run_of(rows[63]) - run_of(rows[0]) + 1;
        for sel in [Sel::unordered(&rows), Sel::covering(&rows)] {
            let mut out = vec![f64::NAN; sel.len()];
            let before = RUN_STEPS.get();
            storage.read(sel, &mut out, |_, v| v);
            let steps = RUN_STEPS.get() - before;
            assert!(steps <= spans + rows.len(), "{steps} steps, {spans} runs");
            let want: Vec<f64> = match sel.dense_start() {
                Some(lo) => plain[lo..lo + sel.len()].to_vec(),
                None => rows.iter().map(|&r| plain[r as usize]).collect(),
            };
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&want));
        }
    }

    #[test]
    fn encode_auto_selects_per_column_encodings() {
        let n = 4096usize;
        let mut t = Table::new("t");
        // Long runs -> RLE.
        t.add_column(
            "sorted",
            Column::i32((0..n).map(|i| (i / 64) as i32).collect::<Vec<_>>()),
        )
        .unwrap();
        // Few distinct, short runs -> Dict (u8 codes).
        t.add_column(
            "tag",
            Column::u8((0..n).map(|i| (i % 7) as u8).collect::<Vec<_>>()),
        )
        .unwrap();
        // 1000 distinct, short runs -> Dict16.
        t.add_column(
            "key",
            Column::u32((0..n).map(|i| (i % 1000) as u32).collect::<Vec<_>>()),
        )
        .unwrap();
        // All-distinct doubles -> stays plain.
        t.add_column(
            "price",
            Column::f64((0..n).map(|i| i as f64 * 1.0625).collect::<Vec<_>>()),
        )
        .unwrap();
        // Already encoded -> untouched.
        t.add_column(
            "pre",
            Column::dict(vec![0u8; n], Column::f64(vec![1.5])).unwrap(),
        )
        .unwrap();
        let before_pre = t.column("pre").unwrap().clone();
        t.encode_auto(EncodePolicy::default());
        assert_eq!(t.column("sorted").unwrap().storage_name(), "Rle<I32>");
        assert_eq!(t.column("tag").unwrap().storage_name(), "Dict<U8>");
        assert_eq!(t.column("key").unwrap().storage_name(), "Dict16<U32>");
        assert_eq!(t.column("price").unwrap().storage_name(), "F64");
        assert_eq!(t.column("pre").unwrap(), &before_pre);
        // Logical content survives bit-for-bit.
        assert_eq!(t.column("sorted").unwrap().decode().as_i32()[4095 - 64], 62);
        // A policy capping dictionaries below 1000 keeps "key" plain.
        let mut t2 = Table::new("t2");
        t2.add_column(
            "key",
            Column::u32((0..n).map(|i| (i % 1000) as u32).collect::<Vec<_>>()),
        )
        .unwrap();
        t2.encode_auto(EncodePolicy {
            max_dict: 256,
            ..EncodePolicy::default()
        });
        assert_eq!(t2.column("key").unwrap().storage_name(), "U32");
        // Tiny tables stay plain.
        let mut t3 = Table::new("t3");
        t3.add_column("x", Column::i32(vec![1, 1, 1])).unwrap();
        t3.encode_auto(EncodePolicy::default());
        assert_eq!(t3.column("x").unwrap().storage_name(), "I32");
    }
}
