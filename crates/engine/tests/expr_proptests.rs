//! Property tests of the expression layer: compiled batchwise evaluation
//! (with constant folding and fused `*Const` instructions, including the
//! `Div`/`Neg` forms) must be **bit-identical** to a naïve per-row tree
//! walk, and compiled predicates must select exactly the rows the
//! per-row boolean tree walk selects.

use proptest::collection::vec;
use proptest::prelude::*;
use rfa_engine::{BoolExpr, CmpOp, Column, EvalScratch, Expr, Sel, Table};

/// Naïve per-row tree walk — the semantic reference the compiled
/// register program must match bitwise (paper footnote 3: the expression
/// dag's roundings are fixed, so any faithful evaluation agrees).
fn walk(e: &Expr, cols: &dyn Fn(&str, usize) -> f64, row: usize) -> f64 {
    match e {
        Expr::Col(name) => cols(name.as_str(), row),
        Expr::Const(v) => *v,
        Expr::Add(a, b) => walk(a, cols, row) + walk(b, cols, row),
        Expr::Sub(a, b) => walk(a, cols, row) - walk(b, cols, row),
        Expr::Mul(a, b) => walk(a, cols, row) * walk(b, cols, row),
        Expr::Div(a, b) => walk(a, cols, row) / walk(b, cols, row),
        Expr::Neg(a) => -walk(a, cols, row),
    }
}

fn walk_bool(e: &BoolExpr, cols: &dyn Fn(&str, usize) -> f64, row: usize) -> bool {
    match e {
        BoolExpr::Cmp(op, a, b) => {
            let (x, y) = (walk(a, cols, row), walk(b, cols, row));
            match op {
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
            }
        }
        BoolExpr::Between(e, lo, hi) => {
            let x = walk(e, cols, row);
            (x >= walk(lo, cols, row)) & (x <= walk(hi, cols, row))
        }
        BoolExpr::And(a, b) => walk_bool(a, cols, row) && walk_bool(b, cols, row),
        BoolExpr::Or(a, b) => walk_bool(a, cols, row) || walk_bool(b, cols, row),
        BoolExpr::Not(a) => !walk_bool(a, cols, row),
    }
}

/// Random expression tree from a seeded stream (the vendored proptest
/// shim has no recursive strategies). `x`/`y` are F64 columns, `k` is an
/// I32 column — integer storage widens exactly, so the reference fetch
/// converts the same way.
fn gen_expr(rng: &mut Xorshift, depth: u32) -> Expr {
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(4) {
            0 => Expr::col("x"),
            1 => Expr::col("y"),
            2 => Expr::col("k"),
            _ => Expr::lit(CONSTS[rng.below(CONSTS.len() as u64) as usize]),
        };
    }
    let a = gen_expr(rng, depth - 1);
    match rng.below(5) {
        0 => a.add(gen_expr(rng, depth - 1)),
        1 => a.sub(gen_expr(rng, depth - 1)),
        2 => a.mul(gen_expr(rng, depth - 1)),
        3 => a.div(gen_expr(rng, depth - 1)),
        _ => a.neg(),
    }
}

fn gen_pred(rng: &mut Xorshift, depth: u32) -> BoolExpr {
    if depth == 0 || rng.below(3) == 0 {
        let a = gen_expr(rng, 1);
        let b = gen_expr(rng, 1);
        return match rng.below(7) {
            0 => a.lt(b),
            1 => a.le(b),
            2 => a.gt(b),
            3 => a.ge(b),
            4 => a.eq(b),
            5 => a.ne(b),
            _ => a.between(b, gen_expr(rng, 1)),
        };
    }
    let a = gen_pred(rng, depth - 1);
    match rng.below(3) {
        0 => a.and(gen_pred(rng, depth - 1)),
        1 => a.or(gen_pred(rng, depth - 1)),
        _ => a.not(),
    }
}

/// Includes ±0.0 (sign-sensitive under Mul/Div/Neg), an exact i32 value
/// (exercises the typed predicate fast path), a non-integral bound, and
/// NaN and ±∞: a comparison's constant operand is a register of the mask
/// program, checked on special values inside OR / NOT / arithmetic too.
const CONSTS: [f64; 10] = [
    0.0,
    -0.0,
    1.0,
    -2.5,
    7.0,
    0.125,
    3.5,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn build_table(rows: &[(f64, f64, i32)]) -> Table {
    let mut t = Table::new("t");
    t.add_column(
        "x",
        Column::f64(rows.iter().map(|r| r.0).collect::<Vec<_>>()),
    )
    .unwrap();
    t.add_column(
        "y",
        Column::f64(rows.iter().map(|r| r.1).collect::<Vec<_>>()),
    )
    .unwrap();
    t.add_column(
        "k",
        Column::i32(rows.iter().map(|r| r.2).collect::<Vec<_>>()),
    )
    .unwrap();
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Compiled batchwise scalar evaluation == per-row tree walk, bitwise,
    /// for random trees over Add/Sub/Mul/Div/Neg, random data (spanning
    /// zeros and sign flips) and random batch sizes.
    #[test]
    fn compiled_scalar_eval_is_bit_identical_to_tree_walk(
        rows in vec(((-1.0e4..1.0e4f64), (-2.0..2.0f64), (-9i32..9)), 1..300),
        seed in any::<u64>(),
    ) {
        let t = build_table(&rows);
        let fetch = |name: &str, row: usize| -> f64 {
            match name {
                "x" => rows[row].0,
                "y" => rows[row].1,
                "k" => rows[row].2 as f64,
                _ => unreachable!(),
            }
        };
        let mut rng = Xorshift(seed | 1);
        for _ in 0..8 {
            let e = gen_expr(&mut rng, 3);
            let compiled = e.compile();
            let bound = compiled.bind(&t).unwrap();
            let mut scratch = EvalScratch::new();
            // Odd batch widths force partial final batches.
            let batch = 1 + (rng.below(64) as usize);
            let sel: Vec<u32> = (0..rows.len() as u32).collect();
            let mut out = vec![0.0f64; rows.len()];
            for (schunk, ochunk) in sel.chunks(batch).zip(out.chunks_mut(batch)) {
                bound.eval_into(Sel::new(schunk), &mut scratch, ochunk);
            }
            for (row, &got) in out.iter().enumerate() {
                let want = walk(&e, &fetch, row);
                prop_assert!(
                    got.to_bits() == want.to_bits()
                        || (got.is_nan() && want.is_nan()),
                    "row {}: got {:?} want {:?} for {:?}", row, got, want, e
                );
            }
        }
    }

    /// Compiled predicates (fast paths and mask programs alike) select
    /// exactly the rows the boolean tree walk selects, in row order.
    #[test]
    fn compiled_predicates_match_tree_walk(
        rows in vec(((-50.0..50.0f64), (-2.0..2.0f64), (-9i32..9)), 1..300),
        seed in any::<u64>(),
    ) {
        let t = build_table(&rows);
        let fetch = |name: &str, row: usize| -> f64 {
            match name {
                "x" => rows[row].0,
                "y" => rows[row].1,
                "k" => rows[row].2 as f64,
                _ => unreachable!(),
            }
        };
        let mut rng = Xorshift(seed | 1);
        for _ in 0..8 {
            let p = gen_pred(&mut rng, 2);
            let expected: Vec<u32> = (0..rows.len() as u32)
                .filter(|&i| walk_bool(&p, &fetch, i as usize))
                .collect();
            let compiled = p.compile();
            let bound = compiled.bind(&t).unwrap();
            let mut scratch = EvalScratch::new();
            let mut sel = Vec::new();
            bound.fill(0, rows.len(), &mut sel, &mut scratch);
            prop_assert_eq!(&sel, &expected, "fill: {:?}", p);
            let mut sel: Vec<u32> = (0..rows.len() as u32).collect();
            bound.refine(&mut sel, &mut scratch);
            prop_assert_eq!(&sel, &expected, "refine: {:?}", p);
        }
    }
}
