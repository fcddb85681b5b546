//! The typed vectorized expression layer: scalar arithmetic *and* boolean
//! predicates over table columns, compiled to one batchwise register
//! program per query.
//!
//! The engine's queries evaluate arithmetic expressions like
//! `l_extendedprice * (1 - l_discount) * (1 + l_tax)` over the selected
//! rows before aggregation, and boolean predicates like
//! `l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24` to build the
//! selection vectors in the first place. Both are *compiled*
//! ([`CompiledExpr`] / [`CompiledPredicate`]) and evaluate
//! batch-at-a-time into reused scratch registers — the X100-style
//! vectorized model — so a scan never materializes one vector per AST
//! node, and constants are folded at compile time instead of being
//! broadcast into n-sized vectors.
//!
//! **One program, many outputs.** Any number of scalar expressions lower
//! into *one* program over a hash-consed dag
//! ([`CompiledExpr::compile_all`]; one expression is its one-output
//! case). Node identity is [`Expr`]'s bitwise equality after constant
//! folding, so a shared column is loaded (or decoded, or run-filled) once
//! per batch and a shared subtree — Q1's `price * (1 - discount)` — is
//! computed once. Nothing is commuted, reassociated or folded across
//! expressions (`a + b` and `b + a` are distinct nodes): every output
//! sees the IEEE operations it would see compiled alone. Registers are
//! assigned by liveness, and a plain `F64` column read over a row *range*
//! is not loaded: the column slice is the operand — or the result.
//!
//! **Types.** A scalar [`Expr`] references columns by [`ColRef`] (owned
//! names, so runtime-defined SQL schemas resolve) and may read any
//! numeric column — `F64`, `I32`, `U32` or `U8`. Non-F64 columns are
//! widened to `f64` at load time; every one of those integer types
//! converts *exactly* (f64 has 53 mantissa bits), so arithmetic and
//! comparisons over them are bit-deterministic regardless of the storage
//! type. The boolean subset ([`BoolExpr`]) wraps comparisons of scalar
//! expressions ([`CmpOp`], `BETWEEN`) composed with `AND`/`OR`/`NOT`;
//! comparisons read their scalar operands from the same dag evaluator and
//! produce *masks* (one byte per row) on a small mask stack.
//!
//! **Predicates stay branchless.** A compiled predicate filters a batch
//! by evaluating its mask and compacting the selection vector with the
//! X100 increment-by-predicate idiom (no per-row branch).
//!
//! **One closed interval per filtered column.** The common
//! single-comparison shapes — `col ⟨cmp⟩ const` for the five ordered
//! operators and `col BETWEEN const AND const` — have one normal form, a
//! closed interval `[lo, hi]` over the column's widened values: `<` /
//! `>` step the literal to its `f64` neighbour, one-sided tests use ±∞,
//! `=` is `[c, c]`, a NaN literal keeps nothing. Intervals over one column
//! intersect, so the scan filter binds *one* conjunct per filtered column
//! however many comparisons the query spelled (Q6's date window is two;
//! see `fused::ScanFilter`). Binding lowers the interval once into the
//! column's own domain — an `f64` or integer range tested directly
//! against the typed column (integer columns keep the integer domain
//! under any literal: `[ceil lo, floor hi]`, clamped), a keep-set over a
//! dictionary's codes, the row ranges of an RLE column's matching runs,
//! nothing at all for an empty interval — skipping mask materialization
//! entirely. `<>` is not an interval; it runs the mask program like any
//! other composition.
//!
//! Reproducibility note (paper footnote 3): an arithmetic expression
//! evaluated in its entirety per row is a fixed dag of roundings — itself
//! order-independent. Compilation preserves that dag exactly: constant
//! folding performs the same IEEE operation once at compile time that the
//! tree walk performed per row, and a constant operand fused into its
//! consumer keeps the operand order (addition and multiplication are
//! bitwise commutative in IEEE 754, so `c + x` is stored as `x + c`;
//! subtraction and division are not, so `c - x` and `c / x` stay
//! *flipped* forms), so compiled evaluation is bit-identical to the naïve
//! tree walk. Only the subsequent *aggregation* of the results needs the
//! reproducible accumulator; this module provides the deterministic
//! per-row part.

use crate::column::{type_mismatch, ColRef, Column, Storage, Table, TableError};
use crate::sum_op::NEAR_DENSE;

/// The `expected` tag of [`TableError::TypeMismatch`] raised when an
/// expression references a column whose storage type cannot be read as a
/// scalar (today only `F32` — every other column type widens exactly).
pub const NUMERIC_EXPECTED: &str = "F64, I32, U32 or U8";

/// An arithmetic expression over numeric columns and constants.
///
/// `PartialEq` is structural and *bitwise* on constants (`-0.0 ≠ 0.0`,
/// `NaN == NaN` — see the manual impl below): the plan layer uses it to
/// share one SUM state between `SUM(e)` and `AVG(e)` over the same
/// expression, and two expressions may only share a state when they
/// produce identical bits on every input. Column references compare by
/// name, so two independently parsed SQL strings intern states together.
#[derive(Clone, Debug)]
pub enum Expr {
    /// A named numeric column (`F64`, `I32`, `U32` or `U8`; integer
    /// storage widens exactly to `f64` at gather time).
    Col(ColRef),
    /// A constant.
    Const(f64),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Div(Box<Expr>, Box<Expr>),
    /// IEEE negation (sign-bit flip; *not* `0 - x`, which differs on
    /// zeros: `0.0 - 0.0 == +0.0` while `-(+0.0) == -0.0`).
    Neg(Box<Expr>),
}

/// Structural equality with *bit* comparison on constants. The derived
/// impl would use IEEE `==`, under which `lit(0.0) == lit(-0.0)` (they
/// produce different result bits under multiplication) and
/// `lit(NAN) != lit(NAN)` (defeating state sharing) — both wrong for the
/// plan layer's "identical bits on every input" interning contract.
impl PartialEq for Expr {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Expr::Col(a), Expr::Col(b)) => a == b,
            (Expr::Const(a), Expr::Const(b)) => a.to_bits() == b.to_bits(),
            (Expr::Add(a1, b1), Expr::Add(a2, b2))
            | (Expr::Sub(a1, b1), Expr::Sub(a2, b2))
            | (Expr::Mul(a1, b1), Expr::Mul(a2, b2))
            | (Expr::Div(a1, b1), Expr::Div(a2, b2)) => a1 == a2 && b1 == b2,
            (Expr::Neg(a), Expr::Neg(b)) => a == b,
            _ => false,
        }
    }
}

/// A comparison operator of the boolean expression layer. Comparisons
/// follow IEEE semantics on the widened `f64` values (`NaN` compares
/// false under everything except `Ne`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl CmpOp {
    /// Mirror image: `c ⟨op⟩ x ⇔ x ⟨op.flip()⟩ c` (used to normalize
    /// constant-on-the-left comparisons).
    pub(crate) fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
        }
    }

    #[inline]
    fn test(self, a: f64, b: f64) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        }
    }

    /// The operator's SQL spelling (`<>` for `Ne`).
    pub fn sql_token(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
        }
    }
}

/// A closed interval `[lo, hi]` of widened column values: the normal form
/// of every fast-path conjunct. `v` is inside iff `lo <= v && v <= hi` —
/// two ordered compares, so a NaN row is in no interval, exactly as it
/// fails every ordered comparison. Bounds are never NaN; the empty
/// interval is any with `lo > hi` ([`Interval::EMPTY`] canonically).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    const EMPTY: Interval = Interval {
        lo: f64::INFINITY,
        hi: f64::NEG_INFINITY,
    };

    /// `[lo, hi]`; empty when `lo > hi` or either bound is NaN (`x >= NaN`
    /// holds for no `x`).
    fn new(lo: f64, hi: f64) -> Interval {
        if lo <= hi {
            Interval { lo, hi }
        } else {
            Interval::EMPTY
        }
    }

    /// The values `v` with `v ⟨op⟩ c`, or `None` for `<>`, which keeps two
    /// intervals and every NaN. A strict bound steps to the literal's
    /// neighbour (`v < c ⇔ v <= c.next_down()`: no `f64` lies between),
    /// and has nothing left to keep at the infinity it steps away from.
    fn of_cmp(op: CmpOp, c: f64) -> Option<Interval> {
        const INF: f64 = f64::INFINITY;
        Some(match op {
            CmpOp::Lt if c > -INF => Interval::new(-INF, c.next_down()),
            CmpOp::Gt if c < INF => Interval::new(c.next_up(), INF),
            CmpOp::Lt | CmpOp::Gt => Interval::EMPTY,
            CmpOp::Le => Interval::new(-INF, c),
            CmpOp::Ge => Interval::new(c, INF),
            CmpOp::Eq => Interval::new(c, c),
            CmpOp::Ne => return None,
        })
    }

    pub(crate) fn intersect(self, other: Interval) -> Interval {
        Interval::new(self.lo.max(other.lo), self.hi.min(other.hi))
    }

    fn is_empty(self) -> bool {
        self.lo > self.hi
    }

    #[inline]
    fn contains(self, v: f64) -> bool {
        (v >= self.lo) & (v <= self.hi)
    }

    /// The integers of the interval that lie in `[min, max]` — `[ceil lo,
    /// floor hi]`, clamped — or `None` if there are none. (`as i64`
    /// saturates, so bounds at ±∞ or beyond `i64` clamp like any other.)
    fn integers(self, min: i64, max: i64) -> Option<(i64, i64)> {
        let lo = (self.lo.ceil() as i64).max(min);
        let hi = (self.hi.floor() as i64).min(max);
        (lo <= hi).then_some((lo, hi))
    }
}

/// A boolean expression over scalar [`Expr`]s: the composable predicate
/// language the scan filter runs. `BETWEEN` is inclusive on both ends
/// (SQL semantics). Equality is structural with bitwise constants,
/// inherited from [`Expr`].
#[derive(Clone, Debug, PartialEq)]
pub enum BoolExpr {
    /// `lhs ⟨op⟩ rhs`.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// `lo <= e <= hi` (both ends inclusive).
    Between(Box<Expr>, Box<Expr>, Box<Expr>),
    And(Box<BoolExpr>, Box<BoolExpr>),
    Or(Box<BoolExpr>, Box<BoolExpr>),
    Not(Box<BoolExpr>),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// One node of a program's scalar dag. Operands are earlier nodes;
/// constants are bit patterns, so node equality is [`Expr`]'s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Node {
    /// Column `cols[i]` (integer columns widen exactly to `f64`).
    Col(usize),
    /// An entirely constant expression: an output, or a comparison's
    /// constant operand (inside arithmetic, constants fuse: `BinConst`).
    Const(u64),
    /// `-a` (sign flip).
    Neg(usize),
    /// `a ⊕ b`.
    Bin(BinOp, usize, usize),
    /// `a ⊕ c` — `c ⊕ a` when `flipped`, which only `Sub` and `Div` ever
    /// are: `c + a` and `c * a` equal `a + c` and `a * c` bitwise.
    BinConst {
        op: BinOp,
        a: usize,
        c: u64,
        flipped: bool,
    },
}

impl Node {
    fn operands(self) -> impl Iterator<Item = usize> {
        let (a, b) = match self {
            Node::Col(_) | Node::Const(_) => (None, None),
            Node::Neg(a) | Node::BinConst { a, .. } => (Some(a), None),
            Node::Bin(_, a, b) => (Some(a), Some(b)),
        };
        a.into_iter().chain(b)
    }
}

/// One instruction of a predicate's mask program: comparisons read scalar
/// nodes and push a mask (one byte per row), `And` / `Or` pop two masks
/// and push one, `Not` flips the top.
#[derive(Clone, Copy, Debug)]
enum MaskInst {
    /// `a ⟨op⟩ b`; a constant operand is an interned [`Node::Const`].
    Cmp(CmpOp, usize, usize),
    /// A fully folded comparison.
    Const(bool),
    And,
    Or,
    Not,
}

/// A program under construction.
#[derive(Default)]
struct Builder {
    nodes: Vec<Node>,
    cols: Vec<ColRef>,
    outputs: Vec<usize>,
    masks: Vec<MaskInst>,
}

/// A compiled program: the scalar dag in dependency order, the nodes
/// handed out as results (expression outputs, or the scalar operands of a
/// predicate's comparisons) and a predicate's mask instructions.
#[derive(Clone, Debug)]
struct Prog {
    nodes: Vec<Node>,
    /// `regs[i]`: the register node `i` is written to.
    regs: Vec<usize>,
    n_regs: usize,
    cols: Vec<ColRef>,
    outputs: Vec<usize>,
    masks: Vec<MaskInst>,
}

impl Builder {
    /// The node computing `node`, created on first use.
    fn intern(&mut self, node: Node) -> usize {
        self.nodes
            .iter()
            .position(|n| *n == node)
            .unwrap_or_else(|| {
                self.nodes.push(node);
                self.nodes.len() - 1
            })
    }

    /// Assigns registers by liveness: a node takes over the register of
    /// an operand nobody reads after it (and then computes in place), else
    /// a free one. `outputs` stay live to the end of the program.
    fn finish(self) -> Prog {
        #[cfg(test)]
        crate::fused::count(|c| c.compiles += 1);
        let Builder {
            nodes,
            cols,
            outputs,
            masks,
        } = self;
        let mut last_use: Vec<usize> = (0..nodes.len()).collect();
        for (i, node) in nodes.iter().enumerate() {
            node.operands().for_each(|a| last_use[a] = i);
        }
        outputs.iter().for_each(|&o| last_use[o] = usize::MAX);
        let mut regs: Vec<usize> = Vec::with_capacity(nodes.len());
        let (mut free, mut n_regs) = (Vec::new(), 0);
        for (i, node) in nodes.iter().enumerate() {
            let dying = node.operands().filter(|&a| last_use[a] == i);
            let mut dying: Vec<usize> = dying.map(|a| regs[a]).collect();
            dying.dedup();
            free.extend(dying);
            regs.push(free.pop().unwrap_or(n_regs));
            n_regs = n_regs.max(regs[i] + 1);
        }
        Prog {
            nodes,
            regs,
            n_regs,
            cols,
            outputs,
            masks,
        }
    }
}

impl Prog {
    /// Resolves the referenced columns against a table. Missing columns
    /// and non-numeric storage surface as [`TableError`]s.
    fn bind<'t>(&'t self, table: &'t Table) -> Result<BoundProg<'t>, TableError> {
        let mut cols = Vec::with_capacity(self.cols.len());
        for name in &self.cols {
            cols.push(bind_numeric(table, name)?);
        }
        Ok(BoundProg { prog: self, cols })
    }
}

/// A numeric column bound for reading, by its logical type: integer
/// values widen exactly to `f64` (i32/u32/u8 all fit in the 53-bit
/// mantissa). Encoded columns are read *through* their encoding
/// ([`Storage::read`]), never materializing the plain column; widening
/// the dictionary entry or run value is the identical exact conversion the
/// plain column would perform per row, so results are bit-identical.
#[derive(Clone, Copy)]
enum ColData<'t> {
    F64(Storage<'t, f64>),
    I32(Storage<'t, i32>),
    U32(Storage<'t, u32>),
    U8(Storage<'t, u8>),
}

/// The rows one batch evaluates over: a contiguous row *range* — read as
/// column slices by every consumer that has a slice form — or a list of
/// row ids to gather. Decided once, when the filter is done.
#[derive(Clone, Copy, Debug)]
pub struct Sel<'a> {
    pub(crate) rows: &'a [u32],
    /// `(first row, length)` when evaluation reads a range.
    range: Option<(usize, usize)>,
}

impl<'a> Sel<'a> {
    /// A selection vector as the scan filter produces it: strictly
    /// increasing row ids, read as a range if they are one.
    pub fn new(rows: &'a [u32]) -> Sel<'a> {
        Sel::keeping(rows, 1.0)
    }

    /// [`Sel::new`] for a consumer that applies the selection itself
    /// ([`Self::selection`]): a *near-dense* one, keeping at least
    /// [`NEAR_DENSE`] of its covering range, is read as that range too.
    pub fn near_dense(rows: &'a [u32]) -> Sel<'a> {
        Sel::keeping(rows, NEAR_DENSE)
    }

    /// The covering range of `rows` if they keep at least `share` of it.
    fn keeping(rows: &'a [u32], share: f64) -> Sel<'a> {
        let covering = Sel::covering(rows);
        match covering.range {
            Some((_, span)) if rows.len() as f64 >= share * span as f64 => covering,
            _ => Sel::unordered(rows),
        }
    }

    /// The covering range `[first, last]` of a strictly increasing
    /// selection: evaluation computes every row of it, selected or not,
    /// and whoever reads the results applies [`Self::selection`].
    pub fn covering(rows: &'a [u32]) -> Sel<'a> {
        debug_assert!(
            rows.windows(2).all(|w| w[0] < w[1]),
            "selection vectors are strictly increasing"
        );
        let range = match (rows.first(), rows.last()) {
            (Some(&f), Some(&l)) => Some((f as usize, (l - f) as usize + 1)),
            _ => None,
        };
        Sel { rows, range }
    }

    /// Row ids in arbitrary order (the materializing wrappers accept any
    /// gather list): never treated as a range.
    pub fn unordered(rows: &'a [u32]) -> Sel<'a> {
        Sel { rows, range: None }
    }

    /// Rows evaluated: the range's length, or the gather list's.
    pub fn len(&self) -> usize {
        self.range.map_or(self.rows.len(), |(_, n)| n)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// First row of the range, if evaluation reads a range.
    pub fn dense_start(&self) -> Option<usize> {
        self.range.map(|(lo, _)| lo)
    }

    /// The selection still to be applied to values evaluated over these
    /// rows: `Some` exactly when they cover dropped rows too.
    pub fn selection(&self) -> Option<&'a [u32]> {
        (self.len() > self.rows.len()).then_some(self.rows)
    }
}

impl ColData<'_> {
    /// Loads the batch's rows, widened to `f64`, into `out`: a range or a
    /// gather, through the column's storage.
    #[inline]
    fn load(&self, sel: Sel<'_>, out: &mut [f64]) {
        match *self {
            ColData::F64(s) => s.read(sel, out, |_, v| v),
            ColData::I32(s) => s.read(sel, out, |_, v| v.into()),
            ColData::U32(s) => s.read(sel, out, |_, v| v.into()),
            ColData::U8(s) => s.read(sel, out, |_, v| v.into()),
        }
    }
}

fn bind_numeric<'t>(table: &'t Table, name: &ColRef) -> Result<ColData<'t>, TableError> {
    let col = table.column(name.as_str())?;
    let data = match col.logical() {
        Column::F64(_) => col.storage().map(ColData::F64),
        Column::I32(_) => col.storage().map(ColData::I32),
        Column::U32(_) => col.storage().map(ColData::U32),
        Column::U8(_) => col.storage().map(ColData::U8),
        _ => None,
    };
    data.ok_or_else(|| type_mismatch(name, NUMERIC_EXPECTED, col))
}

/// A compiled program bound to one table's column storage.
struct BoundProg<'t> {
    prog: &'t Prog,
    cols: Vec<ColData<'t>>,
}

/// One or more scalar expressions compiled into one program
/// ([`Expr::compile`], [`CompiledExpr::compile_all`]): compile once per
/// query, bind per table, evaluate per batch.
#[derive(Clone, Debug)]
pub struct CompiledExpr {
    prog: Prog,
}

/// A compiled expression program bound to one table's column storage.
pub struct BoundExpr<'t> {
    prog: BoundProg<'t>,
}

/// A compiled boolean predicate: the general mask program, and for a
/// single comparison of a column with constants its interval normal
/// form (see module docs), which binds to a typed range loop instead.
#[derive(Clone, Debug)]
pub struct CompiledPredicate {
    prog: Prog,
    fast: Option<FastShape>,
}

/// A predicate bound to one table's column storage.
pub struct BoundPredicate<'t>(Bound<'t>);

enum Bound<'t> {
    /// An interval over one column, lowered into the column's domain.
    Fast(BoundFast<'t>),
    /// Every other shape: the general mask program.
    Mask(BoundProg<'t>),
}

/// The fast-path shape recognized at compile time: `col` within `range`
/// (constant-on-the-left comparisons are normalized through
/// [`CmpOp::flip`]). Lowered to a concrete column type at bind time.
#[derive(Clone, Debug)]
struct FastShape {
    col: ColRef,
    range: Interval,
}

/// An interval lowered into its column's own domain.
enum BoundFast<'t> {
    F64Range {
        col: &'t [f64],
        lo: f64,
        hi: f64,
    },
    /// Integer columns test in the integer domain — identical to the
    /// widened f64 test (the conversion is exact and monotone) but
    /// without the per-row convert.
    I32Range {
        col: &'t [i32],
        lo: i32,
        hi: i32,
    },
    U32Range {
        col: &'t [u32],
        lo: u32,
        hi: u32,
    },
    /// A keep-set over byte codes: the interval was tested once per
    /// dictionary entry (on the identical widened `f64` values the plain
    /// column would produce per row) — or once per byte value of a plain
    /// `U8` column, which is its own code. Rows test `keep[code]` — no
    /// float compare, no gather. Entries are 0 / -1 so the SIMD kernels
    /// can gather and movemask them directly; codes past the dictionary
    /// stay 0 (no column of a table holds one).
    DictInSet {
        codes: &'t [u8],
        keep: Box<[i32; 256]>,
    },
    /// Wide-dictionary keep-set: same once-per-entry test as
    /// [`BoundFast::DictInSet`], held as a 65536-bit set indexed by the
    /// `u16` code ([`u16_in_set`]; 32-bit words, which the AVX2 fill
    /// gathers). Codes past the dictionary stay 0 (no column of a table
    /// holds one).
    Dict16InSet {
        codes: &'t [u16],
        keep: Box<[u32; 2048]>,
    },
    /// The predicate is *decided* at bind time: the rows it keeps, as
    /// coalesced, increasing `[start, end)` ranges. An RLE column tests
    /// the interval once per run and keeps its matching runs; an empty
    /// interval keeps nothing on any column. The fused scan takes these
    /// out of the conjunct list altogether
    /// ([`BoundPredicate::into_decided_ranges`]) and never visits a batch
    /// outside them; `fill` / `refine` serve every other caller.
    Decided {
        ranges: Vec<RowRange>,
    },
}

/// Bit `c` of a 65536-bit code set.
#[inline]
pub(crate) fn u16_in_set(keep: &[u32; 2048], c: u16) -> bool {
    keep[(c >> 5) as usize] >> (c & 31) & 1 != 0
}

/// A half-open `[start, end)` range of row ids.
pub(crate) type RowRange = (u32, u32);

/// Appends the rows of `ranges ∩ [lo, hi)` to `sel`, in increasing order
/// (`ranges` coalesced and increasing).
pub(crate) fn extend_clipped(ranges: &[RowRange], lo: usize, hi: usize, sel: &mut Vec<u32>) {
    let first = ranges.partition_point(|r| r.1 as usize <= lo);
    for &(s, e) in ranges[first..].iter().take_while(|r| (r.0 as usize) < hi) {
        sel.extend(s.max(lo as u32)..e.min(hi as u32));
    }
}

/// Intersection of two coalesced, increasing range lists.
pub(crate) fn intersect_ranges(a: &[RowRange], b: &[RowRange]) -> Vec<RowRange> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (s, e) = (a[i].0.max(b[j].0), a[i].1.min(b[j].1));
        if s < e {
            out.push((s, e));
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// Reusable batch-sized evaluation registers. One scratch serves any
/// number of programs and batches; registers grow to the widest batch
/// written to them and are then reused allocation-free.
#[derive(Default)]
pub struct EvalScratch {
    regs: Vec<Vec<f64>>,
    masks: Vec<Vec<u8>>,
    /// The row range the last evaluation read, if it read one.
    range: Option<(usize, usize)>,
    /// Rows the last evaluation produced per node.
    rows: usize,
}

impl EvalScratch {
    pub fn new() -> Self {
        EvalScratch::default()
    }

    /// Readies the scratch for one evaluation. Registers are sized when
    /// first written: one that a slice stands in for is never touched.
    fn begin(&mut self, prog: &Prog, sel: Sel<'_>) {
        let regs = self.regs.len().max(prog.n_regs);
        self.regs.resize_with(regs, Vec::new);
        let masks = self.masks.len().max(prog.masks.len());
        self.masks.resize_with(masks, Vec::new);
        (self.range, self.rows) = (sel.range, sel.len());
    }
}

// Builder methods intentionally mirror operator names (`add`/`sub`/...
// build AST nodes; they are not the std operator traits).
#[allow(clippy::should_implement_trait)]
impl Expr {
    pub fn col(name: impl Into<ColRef>) -> Expr {
        Expr::Col(name.into())
    }

    pub fn lit(v: f64) -> Expr {
        Expr::Const(v)
    }

    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }

    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }

    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }

    pub fn div(self, rhs: Expr) -> Expr {
        Expr::Div(Box::new(self), Box::new(rhs))
    }

    pub fn neg(self) -> Expr {
        Expr::Neg(Box::new(self))
    }

    /// `self < rhs`.
    pub fn lt(self, rhs: Expr) -> BoolExpr {
        BoolExpr::Cmp(CmpOp::Lt, Box::new(self), Box::new(rhs))
    }

    /// `self <= rhs`.
    pub fn le(self, rhs: Expr) -> BoolExpr {
        BoolExpr::Cmp(CmpOp::Le, Box::new(self), Box::new(rhs))
    }

    /// `self > rhs`.
    pub fn gt(self, rhs: Expr) -> BoolExpr {
        BoolExpr::Cmp(CmpOp::Gt, Box::new(self), Box::new(rhs))
    }

    /// `self >= rhs`.
    pub fn ge(self, rhs: Expr) -> BoolExpr {
        BoolExpr::Cmp(CmpOp::Ge, Box::new(self), Box::new(rhs))
    }

    /// `self = rhs` (IEEE equality on the widened values).
    pub fn eq(self, rhs: Expr) -> BoolExpr {
        BoolExpr::Cmp(CmpOp::Eq, Box::new(self), Box::new(rhs))
    }

    /// `self <> rhs`.
    pub fn ne(self, rhs: Expr) -> BoolExpr {
        BoolExpr::Cmp(CmpOp::Ne, Box::new(self), Box::new(rhs))
    }

    /// `lo <= self <= hi` (SQL `BETWEEN`, inclusive on both ends).
    pub fn between(self, lo: Expr, hi: Expr) -> BoolExpr {
        BoolExpr::Between(Box::new(self), Box::new(lo), Box::new(hi))
    }

    /// Value of a constant subtree, if the whole subtree is constant.
    fn const_value(&self) -> Option<f64> {
        match self {
            Expr::Const(v) => Some(*v),
            Expr::Col(_) => None,
            Expr::Add(a, b) => Some(a.const_value()? + b.const_value()?),
            Expr::Sub(a, b) => Some(a.const_value()? - b.const_value()?),
            Expr::Mul(a, b) => Some(a.const_value()? * b.const_value()?),
            Expr::Div(a, b) => Some(a.const_value()? / b.const_value()?),
            Expr::Neg(a) => Some(-a.const_value()?),
        }
    }

    /// Compiles the expression to a one-output program with constant
    /// subtrees folded and constant operands fused into their consumer.
    pub fn compile(&self) -> CompiledExpr {
        CompiledExpr::compile_all([self])
    }

    /// Evaluates over the rows of `sel` (a selection vector of row ids),
    /// returning one value per selected row.
    ///
    /// This is the materializing convenience wrapper around the compiled
    /// evaluator: it allocates only the output vector (plus batch-sized
    /// scratch), never a vector per AST node.
    pub fn eval(&self, table: &Table, sel: &[u32]) -> Result<Vec<f64>, TableError> {
        let compiled = self.compile();
        let bound = compiled.bind(table)?;
        let mut out = vec![0.0f64; sel.len()];
        let mut scratch = EvalScratch::new();
        for (schunk, ochunk) in sel
            .chunks(EVAL_BATCH_ROWS)
            .zip(out.chunks_mut(EVAL_BATCH_ROWS))
        {
            bound.eval_into(Sel::unordered(schunk), &mut scratch, ochunk);
        }
        Ok(out)
    }
}

impl BoolExpr {
    /// `self AND rhs`.
    pub fn and(self, rhs: BoolExpr) -> BoolExpr {
        BoolExpr::And(Box::new(self), Box::new(rhs))
    }

    /// `self OR rhs`.
    pub fn or(self, rhs: BoolExpr) -> BoolExpr {
        BoolExpr::Or(Box::new(self), Box::new(rhs))
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> BoolExpr {
        BoolExpr::Not(Box::new(self))
    }

    /// Compiles the predicate to a mask program, recognizing the
    /// single-comparison shapes that are an interval over a column.
    pub fn compile(&self) -> CompiledPredicate {
        let mut b = Builder::default();
        b.lower_bool(self);
        CompiledPredicate {
            prog: b.finish(),
            fast: self.fast_shape(),
        }
    }

    fn fast_shape(&self) -> Option<FastShape> {
        let (col, range) = match self {
            BoolExpr::Cmp(op, a, b) => match (&**a, &**b) {
                (Expr::Col(c), Expr::Const(v)) => (c, Interval::of_cmp(*op, *v)?),
                (Expr::Const(v), Expr::Col(c)) => (c, Interval::of_cmp(op.flip(), *v)?),
                _ => return None,
            },
            BoolExpr::Between(e, lo, hi) => match (&**e, &**lo, &**hi) {
                (Expr::Col(c), Expr::Const(l), Expr::Const(h)) => (c, Interval::new(*l, *h)),
                _ => return None,
            },
            _ => return None,
        };
        Some(FastShape {
            col: col.clone(),
            range,
        })
    }

    /// Evaluates the predicate over the rows of `sel`, returning one
    /// `bool` per selected row. The materializing convenience wrapper
    /// (and the differential-testing reference for the batchwise filter
    /// paths — it always runs the general mask program, never the fast
    /// path).
    pub fn eval(&self, table: &Table, sel: &[u32]) -> Result<Vec<bool>, TableError> {
        let compiled = self.compile();
        let bound = compiled.prog.bind(table)?;
        let mut out = vec![false; sel.len()];
        let mut scratch = EvalScratch::new();
        for (schunk, ochunk) in sel
            .chunks(EVAL_BATCH_ROWS)
            .zip(out.chunks_mut(EVAL_BATCH_ROWS))
        {
            bound.exec(Sel::unordered(schunk), &mut scratch);
            for (o, &m) in ochunk.iter_mut().zip(&scratch.masks[0][..schunk.len()]) {
                *o = m != 0;
            }
        }
        Ok(out)
    }
}

/// Batch width of the materializing [`Expr::eval`] / [`BoolExpr::eval`]
/// wrappers (the fused pipeline chooses its own batch size).
const EVAL_BATCH_ROWS: usize = 4096;

impl Builder {
    /// [`Self::lower`]s a result: an expression, or a comparison operand.
    fn output(&mut self, e: &Expr) -> usize {
        let node = self.lower(e);
        self.outputs.push(node);
        node
    }

    /// The node computing `e`: constant subtrees fold to one `Const`, a
    /// constant operand fuses into its consumer, and a subtree already
    /// lowered — by this expression or an earlier one — is reused.
    fn lower(&mut self, e: &Expr) -> usize {
        if let Some(v) = e.const_value() {
            return self.intern(Node::Const(v.to_bits()));
        }
        match e {
            Expr::Const(_) => unreachable!("handled by const_value"),
            Expr::Col(name) => {
                let col = self.cols.iter().position(|c| c == name).unwrap_or_else(|| {
                    self.cols.push(name.clone());
                    self.cols.len() - 1
                });
                self.intern(Node::Col(col))
            }
            Expr::Add(a, b) => self.lower_bin(a, b, BinOp::Add),
            Expr::Sub(a, b) => self.lower_bin(a, b, BinOp::Sub),
            Expr::Mul(a, b) => self.lower_bin(a, b, BinOp::Mul),
            Expr::Div(a, b) => self.lower_bin(a, b, BinOp::Div),
            Expr::Neg(a) => {
                let a = self.lower(a);
                self.intern(Node::Neg(a))
            }
        }
    }

    fn lower_bin(&mut self, a: &Expr, b: &Expr, op: BinOp) -> usize {
        // c + x == x + c and c * x == x * c bitwise (IEEE 754 addition and
        // multiplication are commutative); subtraction and division are
        // not, hence `flipped`. Both-const is folded one level up.
        let (x, c, flipped) = match (a.const_value(), b.const_value()) {
            (Some(c), None) => (b, c, matches!(op, BinOp::Sub | BinOp::Div)),
            (None, Some(c)) => (a, c, false),
            _ => {
                let node = Node::Bin(op, self.lower(a), self.lower(b));
                return self.intern(node);
            }
        };
        let (a, c) = (self.lower(x), c.to_bits());
        self.intern(Node::BinConst { op, a, c, flipped })
    }

    fn lower_bool(&mut self, e: &BoolExpr) {
        let inst = match e {
            BoolExpr::Cmp(op, a, b) => match (a.const_value(), b.const_value()) {
                (Some(x), Some(y)) => MaskInst::Const(op.test(x, y)),
                _ => MaskInst::Cmp(*op, self.output(a), self.output(b)),
            },
            // The two inclusive comparisons SQL defines BETWEEN as; the
            // subject is one interned node, computed once.
            BoolExpr::Between(e, lo, hi) => {
                let ge = BoolExpr::Cmp(CmpOp::Ge, e.clone(), lo.clone());
                let le = BoolExpr::Cmp(CmpOp::Le, e.clone(), hi.clone());
                return self.lower_bool(&ge.and(le));
            }
            BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
                self.lower_bool(a);
                self.lower_bool(b);
                if matches!(e, BoolExpr::And(..)) {
                    MaskInst::And
                } else {
                    MaskInst::Or
                }
            }
            BoolExpr::Not(a) => {
                self.lower_bool(a);
                MaskInst::Not
            }
        };
        self.masks.push(inst);
    }
}

impl CompiledExpr {
    /// Compiles `exprs` into one program with one output each, in order:
    /// bit-identical to each compiled alone (module docs).
    pub fn compile_all<'e>(exprs: impl IntoIterator<Item = &'e Expr>) -> CompiledExpr {
        let mut b = Builder::default();
        exprs.into_iter().for_each(|e| {
            b.output(e);
        });
        CompiledExpr { prog: b.finish() }
    }

    /// Resolves the referenced columns against a table. The borrowed view
    /// is cheap to build (once per query): binding copies no data.
    /// Missing *and* non-numeric columns surface as [`TableError`]s.
    pub fn bind<'t>(&'t self, table: &'t Table) -> Result<BoundExpr<'t>, TableError> {
        #[cfg(test)]
        crate::fused::count(|c| c.expr_binds += 1);
        Ok(BoundExpr {
            prog: self.prog.bind(table)?,
        })
    }
}

impl CompiledPredicate {
    /// Resolves the referenced columns against a table: an interval shape
    /// lowers into its column's domain, anything else binds the mask
    /// program. Missing and non-numeric columns surface as
    /// [`TableError`]s either way.
    pub fn bind<'t>(&'t self, table: &'t Table) -> Result<BoundPredicate<'t>, TableError> {
        match self.range() {
            Some((col, range)) => BoundPredicate::range(table, col, range),
            None => Ok(BoundPredicate(Bound::Mask(self.prog.bind(table)?))),
        }
    }

    /// The column and interval of a predicate that is one (the scan
    /// filter intersects those of the same column before binding).
    pub(crate) fn range(&self) -> Option<(&ColRef, Interval)> {
        self.fast.as_ref().map(|f| (&f.col, f.range))
    }
}

/// The coalesced row ranges of the runs whose value `keep` accepts.
/// Adjacent matching runs coalesce, so a sorted column under an interval
/// leaves one range however many runs it spans.
fn kept_runs(run_ends: &[u32], keep: impl Fn(usize) -> bool) -> Vec<RowRange> {
    let mut ranges: Vec<RowRange> = Vec::new();
    let mut start = 0u32;
    for (r, &end) in run_ends.iter().enumerate() {
        if keep(r) {
            match ranges.last_mut() {
                Some(last) if last.1 == start => last.1 = end,
                _ => ranges.push((start, end)),
            }
        }
        start = end;
    }
    ranges
}

impl<'t> BoundPredicate<'t> {
    /// Binds `col` within `range`, lowering the interval once into the
    /// column's own domain (see [`BoundFast`]). Testing a dictionary entry
    /// or a run value against the interval is the same pair of IEEE
    /// comparisons the general mask program performs per row, so the
    /// per-entry / per-run truth table is the exact per-row one.
    pub(crate) fn range(
        table: &'t Table,
        col: &ColRef,
        range: Interval,
    ) -> Result<BoundPredicate<'t>, TableError> {
        let nothing = || BoundFast::Decided { ranges: Vec::new() };
        let fast = match bind_numeric(table, col)? {
            _ if range.is_empty() => nothing(),
            ColData::F64(s) => lower(s, range, |col| BoundFast::F64Range {
                col,
                lo: range.lo,
                hi: range.hi,
            }),
            ColData::I32(s) => lower(s, range, |col| {
                range
                    .integers(i32::MIN.into(), i32::MAX.into())
                    .map_or_else(nothing, |(lo, hi)| BoundFast::I32Range {
                        col,
                        lo: lo as i32,
                        hi: hi as i32,
                    })
            }),
            ColData::U32(s) => lower(s, range, |col| {
                range
                    .integers(0, u32::MAX.into())
                    .map_or_else(nothing, |(lo, hi)| BoundFast::U32Range {
                        col,
                        lo: lo as u32,
                        hi: hi as u32,
                    })
            }),
            ColData::U8(s) => lower(s, range, |codes| BoundFast::DictInSet {
                codes,
                keep: byte_set(256, |c| range.contains(c as f64)),
            }),
        };
        Ok(BoundPredicate(Bound::Fast(fast)))
    }
}

/// `range` lowered onto a column's storage: by `plain` for a plain
/// column; for an encoded one, tested once per dictionary entry or run
/// value, widened to `f64`.
fn lower<'t, T: Copy + Into<f64>>(
    storage: Storage<'t, T>,
    range: Interval,
    plain: impl FnOnce(&'t [T]) -> BoundFast<'t>,
) -> BoundFast<'t> {
    let inside = |values: &[T], i: usize| range.contains(values[i].into());
    match storage {
        Storage::Plain(col) => plain(col),
        Storage::Dict { codes, dict } => BoundFast::DictInSet {
            codes,
            keep: byte_set(dict.len(), |c| inside(dict, c)),
        },
        Storage::Dict16 { codes, dict } => {
            let mut keep = Box::new([0u32; 2048]);
            for c in (0..dict.len().min(1 << 16)).filter(|&c| inside(dict, c)) {
                keep[c >> 5] |= 1 << (c & 31);
            }
            BoundFast::Dict16InSet { codes, keep }
        }
        Storage::Rle { run_ends, values } => BoundFast::Decided {
            ranges: kept_runs(run_ends, |r| inside(values, r)),
        },
    }
}

/// The 0 / -1 keep-set over the byte codes `< len` that `keep` accepts.
fn byte_set(len: usize, keep: impl Fn(usize) -> bool) -> Box<[i32; 256]> {
    let mut set = Box::new([0i32; 256]);
    for (c, k) in set.iter_mut().enumerate().take(len) {
        *k = -(keep(c) as i32);
    }
    set
}

/// Branchless selection-vector build: writes every candidate row id and
/// advances the length by the predicate bit (the X100 idiom — no
/// per-row branch misprediction at mid selectivities).
#[inline]
fn fill_with(lo: usize, hi: usize, sel: &mut Vec<u32>, keep: impl Fn(usize) -> bool) {
    sel.clear();
    sel.resize(hi - lo, 0);
    let mut k = 0usize;
    for row in lo..hi {
        sel[k] = row as u32;
        k += keep(row) as usize;
    }
    sel.truncate(k);
}

/// Branchless in-place compaction of an existing selection vector.
#[inline]
fn refine_with(sel: &mut Vec<u32>, keep: impl Fn(usize) -> bool) {
    let mut k = 0usize;
    for i in 0..sel.len() {
        let row = sel[i];
        sel[k] = row;
        k += keep(row as usize) as usize;
    }
    sel.truncate(k);
}

/// Range fill in the column's own domain (monomorphized per type).
#[inline]
fn fill_range<T: Copy + PartialOrd>(
    col: &[T],
    (l, h): (T, T),
    lo: usize,
    hi: usize,
    sel: &mut Vec<u32>,
) {
    fill_with(lo, hi, sel, |r| (col[r] >= l) & (col[r] <= h))
}

#[inline]
fn refine_range<T: Copy + PartialOrd>(col: &[T], (l, h): (T, T), sel: &mut Vec<u32>) {
    refine_with(sel, |r| (col[r] >= l) & (col[r] <= h))
}

impl BoundFast<'_> {
    /// The SIMD build of this predicate's selection vector, when the
    /// dispatch level allows it (`false` = run the scalar loop). On
    /// non-x86 targets there is no kernel and the scalar path is it.
    #[inline]
    fn fill_simd(&self, _lo: usize, _hi: usize, _sel: &mut Vec<u32>) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            use crate::simd_sel;
            match self {
                BoundFast::I32Range { col, lo, hi } => {
                    simd_sel::fill_i32_range(col, *lo, *hi, _lo, _hi, _sel)
                }
                BoundFast::DictInSet { codes, keep } => {
                    simd_sel::fill_u8_in_set(codes, keep, _lo, _hi, _sel)
                }
                BoundFast::Dict16InSet { codes, keep } => {
                    simd_sel::fill_u16_in_set(codes, keep, _lo, _hi, _sel)
                }
                // `F64` and `U32` columns have no fill kernel: no
                // workload's first conjunct is one (Q1, Q6 and Q15 lead
                // with the `I32` ship date). `Decided` emits ranges,
                // already O(selected rows).
                BoundFast::F64Range { .. }
                | BoundFast::U32Range { .. }
                | BoundFast::Decided { .. } => false,
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        false
    }

    #[inline]
    fn refine_simd(&self, _sel: &mut Vec<u32>) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            use crate::simd_sel;
            match self {
                BoundFast::F64Range { col, lo, hi } => {
                    simd_sel::refine_f64_range(col, *lo, *hi, _sel)
                }
                // Integer columns have no refine kernel: no workload
                // refines by one (the ship date is every query's first
                // conjunct). An i32 gather over u8 / u16 codes would read
                // past the column's end; the scalar loop is the refine
                // path for codes.
                BoundFast::I32Range { .. }
                | BoundFast::U32Range { .. }
                | BoundFast::DictInSet { .. }
                | BoundFast::Dict16InSet { .. }
                | BoundFast::Decided { .. } => false,
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        false
    }

    fn fill(&self, lo: usize, hi: usize, sel: &mut Vec<u32>) {
        if self.fill_simd(lo, hi, sel) {
            return;
        }
        match self {
            BoundFast::F64Range { col, lo: l, hi: h } => fill_range(col, (*l, *h), lo, hi, sel),
            BoundFast::I32Range { col, lo: l, hi: h } => fill_range(col, (*l, *h), lo, hi, sel),
            BoundFast::U32Range { col, lo: l, hi: h } => fill_range(col, (*l, *h), lo, hi, sel),
            BoundFast::DictInSet { codes, keep } => {
                fill_with(lo, hi, sel, |r| keep[codes[r] as usize] != 0)
            }
            BoundFast::Dict16InSet { codes, keep } => {
                fill_with(lo, hi, sel, |r| u16_in_set(keep, codes[r]))
            }
            BoundFast::Decided { ranges } => {
                sel.clear();
                extend_clipped(ranges, lo, hi, sel);
            }
        }
    }

    fn refine(&self, sel: &mut Vec<u32>) {
        if self.refine_simd(sel) {
            return;
        }
        match self {
            BoundFast::F64Range { col, lo, hi } => refine_range(col, (*lo, *hi), sel),
            BoundFast::I32Range { col, lo, hi } => refine_range(col, (*lo, *hi), sel),
            BoundFast::U32Range { col, lo, hi } => refine_range(col, (*lo, *hi), sel),
            BoundFast::DictInSet { codes, keep } => {
                refine_with(sel, |r| keep[codes[r] as usize] != 0)
            }
            BoundFast::Dict16InSet { codes, keep } => {
                refine_with(sel, |r| u16_in_set(keep, codes[r]))
            }
            BoundFast::Decided { ranges } => {
                sel.retain(|&row| {
                    let r = ranges.partition_point(|r| r.1 <= row);
                    ranges.get(r).is_some_and(|r| r.0 <= row)
                });
            }
        }
    }
}

impl BoundProg<'_> {
    /// Executes the program over one batch — the one scalar evaluator:
    /// every node once, in dependency order, then the mask instructions
    /// (if any), whose result lands in `scratch.masks[0][..n]`.
    fn exec(&self, sel: Sel<'_>, scratch: &mut EvalScratch) {
        scratch.begin(self.prog, sel);
        let (n, regs) = (sel.len(), &mut scratch.regs[..]);
        for (i, node) in self.prog.nodes.iter().enumerate() {
            match *node {
                Node::Col(_) if self.slice(i, sel.range).is_some() => {}
                Node::Col(c) => self.write(regs, i, n, |dst, _| self.cols[c].load(sel, dst)),
                Node::Const(c) => self.write(regs, i, n, |dst, _| dst.fill(f64::from_bits(c))),
                Node::Neg(a) => self.map(regs, i, a, sel, |x| -x),
                Node::BinConst { op, a, c, flipped } => {
                    let c = f64::from_bits(c);
                    match (op, flipped) {
                        (BinOp::Add, _) => self.map(regs, i, a, sel, |x| x + c),
                        (BinOp::Mul, _) => self.map(regs, i, a, sel, |x| x * c),
                        (BinOp::Sub, false) => self.map(regs, i, a, sel, |x| x - c),
                        (BinOp::Sub, true) => self.map(regs, i, a, sel, |x| c - x),
                        (BinOp::Div, false) => self.map(regs, i, a, sel, |x| x / c),
                        (BinOp::Div, true) => self.map(regs, i, a, sel, |x| c / x),
                    }
                }
                Node::Bin(op, a, b) => match op {
                    BinOp::Add => self.zip(regs, i, a, b, sel, |x, y| x + y),
                    BinOp::Sub => self.zip(regs, i, a, b, sel, |x, y| x - y),
                    BinOp::Mul => self.zip(regs, i, a, b, sel, |x, y| x * y),
                    BinOp::Div => self.zip(regs, i, a, b, sel, |x, y| x / y),
                },
            }
        }
        let EvalScratch { regs, masks, .. } = scratch;
        let mut msp = 0usize;
        for inst in &self.prog.masks {
            // A comparison pushes a mask over its scalar operand(s).
            let mut push = |a: &[f64], f: &dyn Fn(&mut [u8], &[f64])| {
                if masks[msp].len() < n {
                    masks[msp].resize(n, 0);
                }
                f(&mut masks[msp][..n], a);
                msp += 1;
            };
            let values = |a: usize| self.values(a, regs, sel.range, n);
            match *inst {
                MaskInst::Cmp(op, a, b) => push(values(a), &|m, a| match op {
                    CmpOp::Lt => cmp_loop(m, a, values(b), |x, y| x < y),
                    CmpOp::Le => cmp_loop(m, a, values(b), |x, y| x <= y),
                    CmpOp::Gt => cmp_loop(m, a, values(b), |x, y| x > y),
                    CmpOp::Ge => cmp_loop(m, a, values(b), |x, y| x >= y),
                    CmpOp::Eq => cmp_loop(m, a, values(b), |x, y| x == y),
                    CmpOp::Ne => cmp_loop(m, a, values(b), |x, y| x != y),
                }),
                MaskInst::Const(b) => push(&[], &|m, _| m.fill(b as u8)),
                MaskInst::And | MaskInst::Or => {
                    msp -= 1;
                    let (lo, hi) = masks.split_at_mut(msp);
                    let and = matches!(inst, MaskInst::And);
                    for (a, &b) in lo[msp - 1][..n].iter_mut().zip(&hi[0][..n]) {
                        *a = if and { *a & b } else { *a | b };
                    }
                }
                MaskInst::Not => masks[msp - 1][..n].iter_mut().for_each(|m| *m ^= 1),
            }
        }
        // A well-formed predicate leaves exactly one mask; a lowering bug
        // would otherwise silently hand out a stale one.
        debug_assert!(self.prog.masks.is_empty() || msp == 1, "unbalanced masks");
    }

    /// The column slice that stands in for node `i`: a plain-`F64` column
    /// read over a range is not loaded.
    fn slice(&self, i: usize, range: Option<(usize, usize)>) -> Option<&[f64]> {
        match (self.prog.nodes[i], range) {
            (Node::Col(c), Some((lo, n))) => match self.cols[c] {
                ColData::F64(Storage::Plain(col)) => Some(&col[lo..lo + n]),
                _ => None,
            },
            _ => None,
        }
    }

    /// Node `i`'s `n` values after evaluation: its slice or its register.
    fn values<'a>(
        &'a self,
        i: usize,
        regs: &'a [Vec<f64>],
        range: Option<(usize, usize)>,
        n: usize,
    ) -> &'a [f64] {
        let reg = &regs[self.prog.regs[i]];
        self.slice(i, range).unwrap_or_else(|| &reg[..n])
    }

    /// Runs `f` on the first `n` values of node `i`'s register, which is
    /// taken out meanwhile so that `f` may read the other registers.
    #[inline(always)]
    fn write(
        &self,
        regs: &mut [Vec<f64>],
        i: usize,
        n: usize,
        f: impl FnOnce(&mut [f64], &[Vec<f64>]),
    ) {
        let mut dst = std::mem::take(&mut regs[self.prog.regs[i]]);
        if dst.len() < n {
            dst.resize(n, 0.0);
        }
        f(&mut dst[..n], regs);
        regs[self.prog.regs[i]] = dst;
    }

    /// Operand `a` of node `i` while [`Self::write`] holds `i`'s register:
    /// `None` when `a` lives in that very register (`i` took it over).
    fn operand<'a>(
        &'a self,
        a: usize,
        i: usize,
        regs: &'a [Vec<f64>],
        sel: Sel<'_>,
    ) -> Option<&'a [f64]> {
        let own = self.prog.regs[a] == self.prog.regs[i] && self.slice(a, sel.range).is_none();
        (!own).then(|| self.values(a, regs, sel.range, sel.len()))
    }

    /// Node `i` = `f(a)`, row by row.
    #[inline(always)]
    fn map(&self, regs: &mut [Vec<f64>], i: usize, a: usize, sel: Sel<'_>, f: impl Fn(f64) -> f64) {
        self.write(regs, i, sel.len(), |out, regs| {
            match self.operand(a, i, regs, sel) {
                None => out.iter_mut().for_each(|x| *x = f(*x)),
                Some(a) => out.iter_mut().zip(a).for_each(|(o, &x)| *o = f(x)),
            }
        });
    }

    /// Node `i` = `f(a, b)`, row by row.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn zip(
        &self,
        regs: &mut [Vec<f64>],
        i: usize,
        a: usize,
        b: usize,
        sel: Sel<'_>,
        f: impl Fn(f64, f64) -> f64,
    ) {
        self.write(regs, i, sel.len(), |out, regs| {
            match (self.operand(a, i, regs, sel), self.operand(b, i, regs, sel)) {
                (None, None) => out.iter_mut().for_each(|x| *x = f(*x, *x)),
                (None, Some(b)) => out.iter_mut().zip(b).for_each(|(x, &y)| *x = f(*x, y)),
                (Some(a), None) => out.iter_mut().zip(a).for_each(|(y, &x)| *y = f(x, *y)),
                (Some(a), Some(b)) => {
                    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                        *o = f(x, y);
                    }
                }
            }
        });
    }
}

#[inline]
fn cmp_loop(m: &mut [u8], a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> bool) {
    for ((m, &x), &y) in m.iter_mut().zip(a).zip(b) {
        *m = f(x, y) as u8;
    }
}

impl BoundExpr<'_> {
    /// Evaluates one batch: every node once, every [`Self::output`] ready.
    /// All intermediates live in `scratch`; nothing is allocated once it
    /// has warmed up to this program and batch size.
    pub fn eval(&self, sel: Sel<'_>, scratch: &mut EvalScratch) {
        debug_assert!(self.prog.prog.masks.is_empty(), "scalar program");
        self.prog.exec(sel, scratch);
    }

    /// Number of outputs.
    pub fn outputs(&self) -> usize {
        self.prog.prog.outputs.len()
    }

    /// Output `k` of the last [`Self::eval`] into `scratch`, one value per
    /// row of its `sel`, borrowed from wherever it already is: a bare
    /// plain-`F64` column over a range *is* the answer, no copy.
    pub fn output<'a>(&'a self, k: usize, scratch: &'a EvalScratch) -> &'a [f64] {
        let node = self.prog.prog.outputs[k];
        self.prog
            .values(node, &scratch.regs, scratch.range, scratch.rows)
    }

    /// Evaluates one batch of a one-output program: `out[k] = expr(row
    /// sel[k])` for every selected row.
    pub fn eval_into(&self, sel: Sel<'_>, scratch: &mut EvalScratch, out: &mut [f64]) {
        debug_assert!(sel.selection().is_none(), "one value per selected row");
        self.eval(sel, scratch);
        out.copy_from_slice(self.output(0, scratch));
    }
}

impl BoundPredicate<'_> {
    /// The row ranges this predicate keeps, when binding already decided
    /// it for every row ([`BoundFast::Decided`]); the predicate itself
    /// otherwise.
    pub(crate) fn into_decided_ranges(self) -> Result<Vec<RowRange>, Self> {
        match self.0 {
            Bound::Fast(BoundFast::Decided { ranges }) => Ok(ranges),
            _ => Err(self),
        }
    }

    /// First conjunct of a batch: fills `sel` with the matching row ids
    /// of `[blo, bhi)`.
    pub fn fill(&self, blo: usize, bhi: usize, sel: &mut Vec<u32>, scratch: &mut EvalScratch) {
        match &self.0 {
            Bound::Fast(fast) => fast.fill(blo, bhi, sel),
            Bound::Mask(prog) => {
                sel.clear();
                sel.extend(blo as u32..bhi as u32);
                mask_filter(prog, sel, scratch);
            }
        }
    }

    /// Later conjuncts: compacts `sel` in place (order-preserving).
    pub fn refine(&self, sel: &mut Vec<u32>, scratch: &mut EvalScratch) {
        match &self.0 {
            Bound::Fast(fast) => fast.refine(sel),
            Bound::Mask(prog) => mask_filter(prog, sel, scratch),
        }
    }
}

/// General path: evaluate the mask program over the candidate rows, then
/// compact branchlessly by the mask bit.
fn mask_filter(prog: &BoundProg<'_>, sel: &mut Vec<u32>, scratch: &mut EvalScratch) {
    let n = sel.len();
    if n == 0 {
        return;
    }
    prog.exec(Sel::new(sel), scratch);
    let mut k = 0usize;
    for (i, &m) in scratch.masks[0][..n].iter().enumerate() {
        sel[k] = sel[i];
        k += (m != 0) as usize;
    }
    sel.truncate(k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    fn table() -> Table {
        let mut t = Table::new("t");
        t.add_column("price", Column::f64(vec![100.0, 200.0, 300.0]))
            .unwrap();
        t.add_column("disc", Column::f64(vec![0.1, 0.0, 0.5]))
            .unwrap();
        t
    }

    #[test]
    fn evaluates_q1_style_expression() {
        let t = table();
        // price * (1 - disc)
        let e = Expr::col("price").mul(Expr::lit(1.0).sub(Expr::col("disc")));
        let out = e.eval(&t, &[0, 1, 2]).unwrap();
        assert_eq!(out, vec![90.0, 200.0, 150.0]);
    }

    #[test]
    fn respects_selection_vector() {
        let t = table();
        let e = Expr::col("price").add(Expr::lit(1.0));
        assert_eq!(e.eval(&t, &[2, 0]).unwrap(), vec![301.0, 101.0]);
        assert_eq!(e.eval(&t, &[]).unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn missing_column_errors() {
        let t = table();
        let e = Expr::col("nope");
        assert!(e.eval(&t, &[0]).is_err());
    }

    #[test]
    fn integer_columns_widen_exactly() {
        let mut t = table();
        t.add_column("days", Column::i32(vec![1, -2, 3])).unwrap();
        t.add_column("tag", Column::u8(vec![7, 8, 9])).unwrap();
        t.add_column("key", Column::u32(vec![1 << 30, 5, 0]))
            .unwrap();
        let e = Expr::col("days").add(Expr::col("tag"));
        assert_eq!(e.eval(&t, &[0, 1, 2]).unwrap(), vec![8.0, 6.0, 12.0]);
        let k = Expr::col("key").mul(Expr::lit(1.0));
        assert_eq!(k.eval(&t, &[0]).unwrap(), vec![(1u32 << 30) as f64]);
    }

    #[test]
    fn non_numeric_column_errors_instead_of_panicking() {
        let mut t = table();
        t.add_column("half", Column::f32(vec![1.0, 2.0, 3.0]))
            .unwrap();
        let e = Expr::col("half").add(Expr::lit(1.0));
        assert_eq!(
            e.eval(&t, &[0]).unwrap_err(),
            TableError::TypeMismatch {
                column: "half".into(),
                expected: NUMERIC_EXPECTED,
                found: "F32",
            }
        );
    }

    #[test]
    fn structural_equality_for_state_sharing() {
        let a = || Expr::col("price").mul(Expr::lit(1.0).sub(Expr::col("disc")));
        assert_eq!(a(), a());
        assert_ne!(a(), Expr::col("price"));
        assert_ne!(Expr::lit(1.0), Expr::lit(2.0));
        assert_ne!(
            Expr::col("price").div(Expr::lit(2.0)),
            Expr::lit(2.0).div(Expr::col("price"))
        );
        assert_eq!(Expr::col("price").neg(), Expr::col("price").neg());
        // Bitwise on constants: ±0.0 differ (x * -0.0 and x * 0.0 round
        // to different bits for negative x), NaN literals match.
        assert_ne!(Expr::lit(0.0), Expr::lit(-0.0));
        assert_eq!(Expr::lit(f64::NAN), Expr::lit(f64::NAN));
    }

    #[test]
    fn evaluation_is_row_order_deterministic() {
        // Same row through different selection orders: identical bits
        // (footnote 3: whole-expression evaluation is reproducible).
        let t = table();
        let e = Expr::col("price")
            .mul(Expr::col("disc"))
            .add(Expr::lit(0.1));
        let a = e.eval(&t, &[0, 1, 2]).unwrap();
        let b = e.eval(&t, &[2, 1, 0]).unwrap();
        assert_eq!(a[0].to_bits(), b[2].to_bits());
        assert_eq!(a[2].to_bits(), b[0].to_bits());
    }

    #[test]
    fn constant_subtrees_fold_to_a_single_instruction() {
        // (2 + 3) * (10 - 4) / -(-2) is entirely constant: one Const
        // instruction, no per-node vectors anywhere.
        let e = Expr::lit(2.0)
            .add(Expr::lit(3.0))
            .mul(Expr::lit(10.0).sub(Expr::lit(4.0)))
            .div(Expr::lit(2.0).neg().neg());
        let c = e.compile();
        assert_eq!(c.prog.nodes, [Node::Const(15.0f64.to_bits())]);
        let t = table();
        assert_eq!(e.eval(&t, &[0, 1]).unwrap(), vec![15.0, 15.0]);
    }

    /// Whether the program holds a node `x ⊕ v` (`v ⊕ x` when `flipped`).
    fn has_fused(e: &CompiledExpr, op: BinOp, v: f64, flipped: bool) -> bool {
        let want = (op, v.to_bits(), flipped);
        e.prog.nodes.iter().any(
            |n| matches!(*n, Node::BinConst { op, c, flipped, .. } if (op, c, flipped) == want),
        )
    }

    #[test]
    fn constant_operands_fuse_without_extra_registers() {
        // price * (1 - disc) * (1 + 0.5): depth 2, and the constant
        // subexpression (1 + 0.5) folds into a MulConst.
        let e = Expr::col("price")
            .mul(Expr::lit(1.0).sub(Expr::col("disc")))
            .mul(Expr::lit(1.0).add(Expr::lit(0.5)));
        let c = e.compile();
        assert_eq!(c.prog.n_regs, 2);
        assert!(has_fused(&c, BinOp::Mul, 1.5, false));
        let out = e.eval(&table(), &[0, 1, 2]).unwrap();
        assert_eq!(out, vec![135.0, 300.0, 225.0]);
    }

    #[test]
    fn div_and_neg_fuse_constants_with_correct_operand_order() {
        let t = table();
        // price / 4 -> DivConst; 100 / price -> ConstDiv; -price -> Neg.
        let e = Expr::col("price").div(Expr::lit(4.0));
        let c = e.compile();
        assert!(has_fused(&c, BinOp::Div, 4.0, false));
        assert_eq!(e.eval(&t, &[0, 2]).unwrap(), vec![25.0, 75.0]);

        let e = Expr::lit(100.0).div(Expr::col("price"));
        let c = e.compile();
        assert!(has_fused(&c, BinOp::Div, 100.0, true));
        assert_eq!(e.eval(&t, &[0, 1]).unwrap(), vec![1.0, 0.5]);

        let e = Expr::col("price").neg();
        assert_eq!(e.eval(&t, &[1]).unwrap(), vec![-200.0]);
    }

    #[test]
    fn neg_is_sign_flip_not_zero_minus() {
        let mut t = Table::new("z");
        t.add_column("x", Column::f64(vec![0.0, -0.0, 1.5]))
            .unwrap();
        let out = Expr::col("x").neg().eval(&t, &[0, 1, 2]).unwrap();
        assert_eq!(out[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(out[1].to_bits(), 0.0f64.to_bits());
        assert_eq!(out[2], -1.5);
        // And the constant fold performs the same operation.
        assert_eq!(
            Expr::lit(0.0).neg().eval(&t, &[0]).unwrap()[0].to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    fn compiled_eval_is_bit_identical_to_tree_semantics() {
        // Hand-evaluate the Q1 charge expression (extended with Div/Neg)
        // per row and compare bits: the compiled program must perform the
        // identical rounding dag.
        let mut t = Table::new("l");
        let price = vec![1234.567, 9.25e4, 3.0e-3, 7777.125];
        let disc = vec![0.03, 0.1, 0.07, 0.0];
        let tax = vec![0.02, 0.08, 0.0, 0.05];
        t.add_column("p", Column::f64(price.clone())).unwrap();
        t.add_column("d", Column::f64(disc.clone())).unwrap();
        t.add_column("t", Column::f64(tax.clone())).unwrap();
        let e = Expr::col("p")
            .mul(Expr::lit(1.0).sub(Expr::col("d")))
            .mul(Expr::lit(1.0).add(Expr::col("t")))
            .div(Expr::col("p").neg());
        let out = e.eval(&t, &[0, 1, 2, 3]).unwrap();
        for i in 0..4 {
            let reference = price[i] * (1.0 - disc[i]) * (1.0 + tax[i]) / (-price[i]);
            assert_eq!(out[i].to_bits(), reference.to_bits(), "row {i}");
        }
    }

    #[test]
    fn scratch_is_reused_across_expressions_and_batches() {
        let t = table();
        let e1 = Expr::col("price").mul(Expr::col("disc")).compile();
        let e2 = Expr::col("price")
            .sub(Expr::col("disc").mul(Expr::lit(2.0)))
            .compile();
        let b1 = e1.bind(&t).unwrap();
        let b2 = e2.bind(&t).unwrap();
        let mut scratch = EvalScratch::new();
        let mut out = [0.0f64; 2];
        b1.eval_into(Sel::new(&[0, 2]), &mut scratch, &mut out);
        assert_eq!(out, [10.0, 150.0]);
        b2.eval_into(Sel::unordered(&[1, 0]), &mut scratch, &mut out);
        assert_eq!(out, [200.0, 99.8]);
        // Smaller batch after a larger one still evaluates correctly.
        let mut one = [0.0f64; 1];
        b1.eval_into(Sel::new(&[1]), &mut scratch, &mut one);
        assert_eq!(one, [0.0]);
    }

    // ---- boolean layer ---------------------------------------------------

    /// Per-row tree-walk reference for predicates.
    fn bool_reference(e: &BoolExpr, t: &Table, row: u32) -> bool {
        match e {
            BoolExpr::Cmp(op, a, b) => {
                let x = a.eval(t, &[row]).unwrap()[0];
                let y = b.eval(t, &[row]).unwrap()[0];
                op.test(x, y)
            }
            BoolExpr::Between(e, lo, hi) => {
                let x = e.eval(t, &[row]).unwrap()[0];
                let l = lo.eval(t, &[row]).unwrap()[0];
                let h = hi.eval(t, &[row]).unwrap()[0];
                (x >= l) & (x <= h)
            }
            BoolExpr::And(a, b) => bool_reference(a, t, row) && bool_reference(b, t, row),
            BoolExpr::Or(a, b) => bool_reference(a, t, row) || bool_reference(b, t, row),
            BoolExpr::Not(a) => !bool_reference(a, t, row),
        }
    }

    fn pred_table() -> Table {
        let mut t = Table::new("p");
        t.add_column(
            "x",
            Column::f64(
                (0..200)
                    .map(|i| (i % 23) as f64 * 0.5 - 3.0)
                    .collect::<Vec<_>>(),
            ),
        )
        .unwrap();
        t.add_column(
            "k",
            Column::i32((0..200).map(|i| (i % 17) - 5).collect::<Vec<_>>()),
        )
        .unwrap();
        t.add_column(
            "b",
            Column::u8((0..200).map(|i| (i % 7) as u8).collect::<Vec<_>>()),
        )
        .unwrap();
        t
    }

    fn check_pred(e: &BoolExpr, t: &Table) {
        let rows: Vec<u32> = (0..t.rows() as u32).collect();
        // Materializing mask == per-row tree walk.
        let mask = e.eval(t, &rows).unwrap();
        for &r in &rows {
            assert_eq!(mask[r as usize], bool_reference(e, t, r), "row {r}: {e:?}");
        }
        // fill == expected selection.
        let compiled = e.compile();
        let bound = compiled.bind(t).unwrap();
        let mut scratch = EvalScratch::new();
        let mut sel = Vec::new();
        bound.fill(0, t.rows(), &mut sel, &mut scratch);
        let expected: Vec<u32> = rows.iter().copied().filter(|&r| mask[r as usize]).collect();
        assert_eq!(sel, expected, "{e:?}");
        // refine from the full set reaches the same selection.
        let mut sel2: Vec<u32> = rows.clone();
        bound.refine(&mut sel2, &mut scratch);
        assert_eq!(sel2, expected, "{e:?}");
    }

    #[test]
    fn predicates_match_tree_reference() {
        let t = pred_table();
        let preds = [
            Expr::col("x").lt(Expr::lit(4.0)),
            Expr::col("k").le(Expr::lit(7.0)),
            Expr::lit(2.0).le(Expr::col("k")), // const-on-the-left flips
            Expr::col("x").between(Expr::lit(-1.0), Expr::lit(3.5)),
            Expr::col("k").between(Expr::lit(-2.0), Expr::lit(9.0)),
            Expr::col("b").eq(Expr::lit(3.0)),
            Expr::col("x")
                .mul(Expr::lit(2.0))
                .gt(Expr::col("k").add(Expr::lit(1.0))),
            Expr::col("x")
                .lt(Expr::lit(1.0))
                .and(Expr::col("k").ge(Expr::lit(0.0))),
            Expr::col("x")
                .lt(Expr::lit(0.0))
                .or(Expr::col("b").ne(Expr::lit(2.0))),
            Expr::col("x").lt(Expr::lit(2.0)).not(),
            Expr::col("k")
                .between(Expr::lit(0.0), Expr::lit(8.0))
                .not()
                .or(Expr::col("x").ge(Expr::col("b"))),
            // Between with non-constant bounds desugars.
            Expr::col("x").between(Expr::col("k"), Expr::col("b")),
            // Fully constant comparisons fold to a mask constant.
            Expr::lit(1.0)
                .lt(Expr::lit(2.0))
                .and(Expr::col("x").gt(Expr::lit(0.0))),
            Expr::lit(5.0)
                .lt(Expr::lit(2.0))
                .or(Expr::col("x").gt(Expr::lit(0.0))),
        ];
        for p in &preds {
            check_pred(p, &t);
        }
    }

    /// The fast path `e` binds on `t`, if it binds one.
    fn bound_fast<'t>(compiled: &'t CompiledPredicate, t: &'t Table) -> Option<BoundFast<'t>> {
        match compiled.bind(t).unwrap().0 {
            Bound::Fast(fast) => Some(fast),
            Bound::Mask(_) => None,
        }
    }

    #[test]
    fn comparisons_normalize_to_closed_intervals() {
        const INF: f64 = f64::INFINITY;
        let iv = |op, c| Interval::of_cmp(op, c).unwrap();
        assert_eq!(iv(CmpOp::Le, 3.5), Interval { lo: -INF, hi: 3.5 });
        assert_eq!(iv(CmpOp::Ge, 3.5), Interval { lo: 3.5, hi: INF });
        assert_eq!(iv(CmpOp::Eq, 3.5), Interval { lo: 3.5, hi: 3.5 });
        // Strict bounds step to the literal's neighbour, across zero too:
        // `x < 0.0` and `x < -0.0` both stop at the largest negative.
        assert_eq!(iv(CmpOp::Lt, 3.0).hi, 3.0f64.next_down());
        assert_eq!(iv(CmpOp::Gt, 3.0).lo, 3.0f64.next_up());
        for zero in [0.0, -0.0] {
            assert_eq!(iv(CmpOp::Lt, zero).hi, -f64::from_bits(1));
            assert_eq!(iv(CmpOp::Gt, zero).lo, f64::from_bits(1));
        }
        assert_eq!(Interval::of_cmp(CmpOp::Ne, 3.0), None);
        // Nothing is below -inf, above +inf, or ordered against NaN; but
        // `<= -inf` and `= inf` keep the infinity itself.
        for (op, c) in [
            (CmpOp::Lt, -INF),
            (CmpOp::Gt, INF),
            (CmpOp::Lt, f64::NAN),
            (CmpOp::Le, f64::NAN),
            (CmpOp::Gt, f64::NAN),
            (CmpOp::Ge, f64::NAN),
            (CmpOp::Eq, f64::NAN),
        ] {
            assert!(iv(op, c).is_empty(), "{op:?} {c}");
        }
        assert!(iv(CmpOp::Le, -INF).contains(-INF));
        assert!(iv(CmpOp::Eq, INF).contains(INF));
        assert!(Interval::new(1.0, f64::NAN).is_empty());
        assert!(Interval::new(2.0, 1.0).is_empty());
        // Every interval test agrees with the operator it came from, on
        // the literal, its neighbours and the special values.
        let probes = |c: f64| {
            [
                c,
                c.next_down(),
                c.next_up(),
                0.0,
                -0.0,
                INF,
                -INF,
                f64::NAN,
            ]
        };
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq] {
            for c in [3.0, -0.0, 0.0, 5e-324, f64::MAX, f64::MIN, INF, -INF] {
                for v in probes(c) {
                    assert_eq!(iv(op, c).contains(v), op.test(v, c), "{v} {op:?} {c}");
                }
            }
        }
        // Intersection is the conjunction.
        let window = iv(CmpOp::Ge, 730.0).intersect(iv(CmpOp::Lt, 1095.0));
        assert_eq!(window, Interval::new(730.0, 1095.0f64.next_down()));
        assert!(iv(CmpOp::Ge, 5.0).intersect(iv(CmpOp::Lt, 3.0)).is_empty());
        assert!(window.intersect(Interval::EMPTY).is_empty());
    }

    #[test]
    fn i32_fast_path_keeps_the_integer_domain() {
        let t = pred_table();
        let k = || Expr::col("k");
        let lit = Expr::lit;
        // Any finite literal lowers to integer bounds: [ceil lo, floor hi].
        for (p, want) in [
            (k().le(lit(3.5)), (i32::MIN, 3)),
            (k().le(lit(3.0)), (i32::MIN, 3)),
            (k().lt(lit(3.0)), (i32::MIN, 2)),
            (k().gt(lit(-0.5)), (0, i32::MAX)),
            (k().between(lit(2.5), lit(7.5)), (3, 7)),
            (k().eq(lit(4.0)), (4, 4)),
            // Bounds beyond the type clamp.
            (k().between(lit(-1e12), lit(1e300)), (i32::MIN, i32::MAX)),
            (k().ge(lit(i32::MIN as f64 - 0.5)), (i32::MIN, i32::MAX)),
            (k().le(lit(i32::MAX as f64 + 0.5)), (i32::MIN, i32::MAX)),
        ] {
            let compiled = p.compile();
            match bound_fast(&compiled, &t) {
                Some(BoundFast::I32Range { lo, hi, .. }) => assert_eq!((lo, hi), want, "{p:?}"),
                _ => panic!("{p:?} must bind an integer range"),
            }
            check_pred(&p, &t);
        }
        // No integer inside (or no i32): decided at bind, keeps no row.
        for p in [
            k().between(lit(2.25), lit(2.75)),
            k().eq(lit(3.5)),
            k().gt(lit(i32::MAX as f64)),
            k().lt(lit(-1e10)),
            k().ge(lit(f64::NAN)),
        ] {
            let compiled = p.compile();
            assert!(
                matches!(bound_fast(&compiled, &t), Some(BoundFast::Decided { ranges }) if ranges.is_empty()),
                "{p:?}"
            );
            check_pred(&p, &t);
        }
        // `<>` is not an interval: the mask program, as for any shape.
        let p = k().ne(lit(3.0));
        assert!(bound_fast(&p.compile(), &t).is_none());
        check_pred(&p, &t);
    }

    #[test]
    fn unsigned_columns_bind_range_loops() {
        let mut t = pred_table();
        t.add_column(
            "u",
            Column::u32((0..200u32).map(|i| i * 21_474_836).collect::<Vec<_>>()),
        )
        .unwrap();
        let (u, b, lit) = (|| Expr::col("u"), || Expr::col("b"), Expr::lit);
        for (p, want) in [
            (u().lt(lit(1e9)), (0, 999_999_999)),
            (u().between(lit(-3.0), lit(2.5e9)), (0, 2_500_000_000)),
            (u().gt(lit(4e9 + 0.5)), (4_000_000_001, u32::MAX)),
        ] {
            let compiled = p.compile();
            match bound_fast(&compiled, &t) {
                Some(BoundFast::U32Range { lo, hi, .. }) => assert_eq!((lo, hi), want, "{p:?}"),
                _ => panic!("{p:?} must bind an unsigned range"),
            }
            check_pred(&p, &t);
        }
        let compiled = u().lt(lit(0.0)).compile();
        assert!(matches!(
            bound_fast(&compiled, &t),
            Some(BoundFast::Decided { .. })
        ));
        // A byte column is its own code: the keep-set path of `Dict`.
        for p in [
            b().eq(lit(3.0)),
            b().between(lit(0.5), lit(4.5)),
            b().ge(lit(300.0)),
            b().lt(lit(-1.0)),
        ] {
            let compiled = p.compile();
            assert!(matches!(
                bound_fast(&compiled, &t),
                Some(BoundFast::DictInSet { .. })
            ));
            check_pred(&p, &t);
        }
    }

    /// `pred_table` with `x` dictionary-encoded and a sorted RLE copy of
    /// `k` (`kr`), plus the plain decoded columns for cross-checking.
    fn encoded_pred_table() -> Table {
        let mut t = Table::new("e");
        let x: Vec<f64> = (0..200).map(|i| (i % 23) as f64 * 0.5 - 3.0).collect();
        let kr: Vec<i32> = {
            let mut v: Vec<i32> = (0..200).map(|i| (i % 17) - 5).collect();
            v.sort_unstable();
            v
        };
        let b: Vec<u8> = (0..200).map(|i| (i % 7) as u8).collect();
        t.add_column("x", Column::f64(x.clone()).dict_encode().unwrap())
            .unwrap();
        t.add_column("x_plain", Column::f64(x)).unwrap();
        t.add_column("kr", Column::i32(kr.clone()).rle_encode().unwrap())
            .unwrap();
        t.add_column("kr_plain", Column::i32(kr)).unwrap();
        t.add_column("b", Column::u8(b).rle_encode().unwrap())
            .unwrap();
        t
    }

    #[test]
    fn encoded_predicates_match_tree_reference() {
        let t = encoded_pred_table();
        let preds = [
            Expr::col("x").lt(Expr::lit(4.0)),
            Expr::col("x").between(Expr::lit(-1.0), Expr::lit(3.5)),
            Expr::lit(2.0).le(Expr::col("kr")),
            Expr::col("kr").between(Expr::lit(-2.0), Expr::lit(9.0)),
            Expr::col("b").eq(Expr::lit(3.0)),
            Expr::col("b").ne(Expr::lit(2.0)),
            // Composite: general program gathers through the encodings.
            Expr::col("x")
                .mul(Expr::lit(2.0))
                .gt(Expr::col("kr").add(Expr::lit(1.0))),
            Expr::col("x")
                .lt(Expr::lit(1.0))
                .and(Expr::col("kr").ge(Expr::lit(0.0))),
        ];
        for p in &preds {
            check_pred(p, &t);
        }
    }

    #[test]
    fn encoded_fast_paths_engage_and_match_plain_columns() {
        let t = encoded_pred_table();
        let mut scratch = EvalScratch::new();
        // Dict comparison binds the code-membership fast path.
        let p = Expr::col("x").lt(Expr::lit(0.25)).compile();
        let bound = p.bind(&t).unwrap();
        assert!(matches!(bound.0, Bound::Fast(BoundFast::DictInSet { .. })));
        let q = Expr::col("x_plain").lt(Expr::lit(0.25)).compile();
        let plain = q.bind(&t).unwrap();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        bound.fill(3, 190, &mut a, &mut scratch);
        plain.fill(3, 190, &mut b, &mut scratch);
        assert_eq!(a, b);
        bound.refine(&mut a, &mut scratch);
        plain.refine(&mut b, &mut scratch);
        assert_eq!(a, b);
        // RLE between binds the per-run fast path.
        let p = Expr::col("kr")
            .between(Expr::lit(-2.0), Expr::lit(6.0))
            .compile();
        let bound = p.bind(&t).unwrap();
        assert!(matches!(bound.0, Bound::Fast(BoundFast::Decided { .. })));
        let q = Expr::col("kr_plain")
            .between(Expr::lit(-2.0), Expr::lit(6.0))
            .compile();
        let plain = q.bind(&t).unwrap();
        bound.fill(0, 200, &mut a, &mut scratch);
        plain.fill(0, 200, &mut b, &mut scratch);
        assert_eq!(a, b);
        // Refine over a sparse, partly out-of-order candidate set.
        let cand: Vec<u32> = (0..200).step_by(3).chain([7, 4, 180]).collect();
        let (mut a, mut b) = (cand.clone(), cand);
        bound.refine(&mut a, &mut scratch);
        plain.refine(&mut b, &mut scratch);
        assert_eq!(a, b);
    }

    #[test]
    fn encoded_gathers_are_bit_identical_to_plain() {
        let t = encoded_pred_table();
        let e_enc = Expr::col("x").mul(Expr::lit(1.0).add(Expr::col("kr")));
        let e_plain = Expr::col("x_plain").mul(Expr::lit(1.0).add(Expr::col("kr_plain")));
        let rows: Vec<u32> = (0..200).collect();
        let a = e_enc.eval(&t, &rows).unwrap();
        let b = e_plain.eval(&t, &rows).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // Arbitrary (non-increasing) selection order still gathers right.
        let rev: Vec<u32> = (0..200).rev().collect();
        let c = e_enc.eval(&t, &rev).unwrap();
        for (i, v) in c.iter().enumerate() {
            assert_eq!(v.to_bits(), a[199 - i].to_bits());
        }
    }

    #[test]
    fn dict16_pushdown_and_gathers_match_plain() {
        // 300 distinct values force u16 codes.
        let n = 2000usize;
        let vals: Vec<f64> = (0..n)
            .map(|i| ((i * 7) % 300) as f64 * 0.25 - 20.0)
            .collect();
        let mut t = Table::new("w");
        t.add_column("v", Column::f64(vals.clone()).dict_encode().unwrap())
            .unwrap();
        t.add_column("v_plain", Column::f64(vals)).unwrap();
        assert_eq!(t.column("v").unwrap().storage_name(), "Dict16<F64>");
        // The comparison binds the 65536-bit code-membership fast path.
        let p = Expr::col("v").lt(Expr::lit(11.5)).compile();
        let bound = p.bind(&t).unwrap();
        assert!(matches!(
            bound.0,
            Bound::Fast(BoundFast::Dict16InSet { .. })
        ));
        let q = Expr::col("v_plain").lt(Expr::lit(11.5)).compile();
        let plain = q.bind(&t).unwrap();
        let mut scratch = EvalScratch::new();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        bound.fill(5, n - 3, &mut a, &mut scratch);
        plain.fill(5, n - 3, &mut b, &mut scratch);
        assert_eq!(a, b);
        bound.refine(&mut a, &mut scratch);
        plain.refine(&mut b, &mut scratch);
        assert_eq!(a, b);
        // Composite predicates and gathers go through the codes too.
        check_pred(
            &Expr::col("v").between(Expr::lit(-5.0), Expr::lit(30.25)),
            &t,
        );
        let e = Expr::col("v").mul(Expr::lit(1.5));
        let f = Expr::col("v_plain").mul(Expr::lit(1.5));
        let rows: Vec<u32> = (0..n as u32).collect();
        for (x, y) in e
            .eval(&t, &rows)
            .unwrap()
            .iter()
            .zip(&f.eval(&t, &rows).unwrap())
        {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn encoded_f32_inner_errors_instead_of_panicking() {
        let mut t = Table::new("f");
        let codes: Vec<u8> = vec![0, 1, 0];
        t.add_column(
            "h",
            Column::dict(codes, Column::f32(vec![1.0, 2.0])).unwrap(),
        )
        .unwrap();
        assert_eq!(
            Expr::col("h")
                .add(Expr::lit(1.0))
                .eval(&t, &[0])
                .unwrap_err(),
            TableError::TypeMismatch {
                column: "h".into(),
                expected: NUMERIC_EXPECTED,
                found: "F32",
            }
        );
    }

    #[test]
    fn nan_comparisons_are_ieee() {
        let mut t = Table::new("n");
        t.add_column("x", Column::f64(vec![1.0, f64::NAN])).unwrap();
        let rows = [0u32, 1];
        assert_eq!(
            Expr::col("x").lt(Expr::lit(2.0)).eval(&t, &rows).unwrap(),
            vec![true, false]
        );
        assert_eq!(
            Expr::col("x").ne(Expr::lit(2.0)).eval(&t, &rows).unwrap(),
            vec![true, true]
        );
        assert_eq!(
            Expr::col("x")
                .between(Expr::lit(0.0), Expr::lit(2.0))
                .eval(&t, &rows)
                .unwrap(),
            vec![true, false]
        );
    }

    #[test]
    fn predicate_missing_or_non_numeric_column_errors() {
        let mut t = pred_table();
        t.add_column("half", Column::f32(vec![0.0; 200])).unwrap();
        assert!(matches!(
            Expr::col("nope").lt(Expr::lit(1.0)).eval(&t, &[0]),
            Err(TableError::NoSuchColumn(_))
        ));
        assert_eq!(
            Expr::col("half")
                .lt(Expr::lit(1.0))
                .eval(&t, &[0])
                .unwrap_err(),
            TableError::TypeMismatch {
                column: "half".into(),
                expected: NUMERIC_EXPECTED,
                found: "F32",
            }
        );
    }
}
