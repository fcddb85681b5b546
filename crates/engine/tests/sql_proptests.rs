//! Property tests of the SQL frontend.
//!
//! 1. The pinned TPC-H SQL texts (`q1_sql`/`q6_sql`/`q15_sql`) parse,
//!    resolve and lower to queries whose results are **bit-identical** to
//!    the builder plans (`q1_plan`/`q6_plan`/`q15_plan`) for every
//!    backend × thread count × batch width. Q1 additionally
//!    crosses grouping arms: the SQL text groups through the packed
//!    hash-pair arm while the builder uses the dense dictionary encoding,
//!    so agreement here certifies both lowering *and* arm equivalence.
//! 2. Printer→parser round-trip: a random well-formed AST pretty-printed
//!    and re-parsed is the identical AST (bitwise on literals).

use proptest::collection::vec;
use proptest::prelude::*;
use rfa_engine::sql::{parse_select, SelectItem, SelectStmt, SqlAgg, SqlBinOp, SqlExpr};
use rfa_engine::{
    lineitem_table, q15_plan, q15_sql, q1_plan, q1_sql, q6_plan, q6_sql, sql_query, ExecOptions,
    SqlColumn, SumBackend,
};
use rfa_workloads::Lineitem;

/// Fixes the thread budget at 8 so the parallel paths genuinely fork
/// scoped threads even on small CI boxes.
fn force_pool() {
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(8)
        .build_global();
}

/// All six SUM backends.
const BACKENDS: [SumBackend; 6] = [
    SumBackend::Double,
    SumBackend::SortedDouble,
    SumBackend::ReproUnbuffered,
    SumBackend::ReproBuffered { buffer_size: 64 },
    SumBackend::Rsum { levels: 2 },
    SumBackend::RsumBuffered {
        levels: 3,
        buffer_size: 48,
    },
];

fn shapes() -> [ExecOptions; 3] {
    [
        ExecOptions {
            threads: 1,
            batch_rows: 33,
            ..ExecOptions::default()
        },
        ExecOptions {
            threads: 2,
            batch_rows: 64,
            ..ExecOptions::default()
        },
        ExecOptions {
            threads: 8,
            batch_rows: 17,
            ..ExecOptions::default()
        },
    ]
}

fn lineitem_strategy(max_rows: usize) -> impl Strategy<Value = Lineitem> {
    let row = (
        (0.0..60.0f64),
        (-1.0e5..1.0e5f64),
        (0.0..0.12f64),
        (0.0..0.09f64),
        (600i32..2600),
        (0u8..3),
        (0u8..2),
        (1i32..40),
    );
    vec(row, 0..max_rows).prop_map(|rows| {
        let n = rows.len();
        let mut quantity = Vec::with_capacity(n);
        let mut extendedprice = Vec::with_capacity(n);
        let mut discount = Vec::with_capacity(n);
        let mut tax = Vec::with_capacity(n);
        let mut shipdate = Vec::with_capacity(n);
        let mut returnflag = Vec::with_capacity(n);
        let mut linestatus = Vec::with_capacity(n);
        let mut suppkey = Vec::with_capacity(n);
        for (q, p, d, t, s, rf, ls, sk) in rows {
            quantity.push(q);
            extendedprice.push(p);
            discount.push(d);
            tax.push(t);
            shipdate.push(s);
            returnflag.push([b'A', b'N', b'R'][rf as usize]);
            linestatus.push([b'F', b'O'][ls as usize]);
            suppkey.push(sk);
        }
        Lineitem::from_columns(
            quantity,
            extendedprice,
            discount,
            tax,
            shipdate,
            returnflag,
            linestatus,
            suppkey,
        )
    })
}

fn f64s(c: &SqlColumn) -> &[f64] {
    match c {
        SqlColumn::F64(v) => v,
        other => panic!("expected F64 column, got {other:?}"),
    }
}

fn u64s(c: &SqlColumn) -> &[u64] {
    match c {
        SqlColumn::U64(v) => v,
        other => panic!("expected U64 column, got {other:?}"),
    }
}

fn i64s(c: &SqlColumn) -> &[i64] {
    match c {
        SqlColumn::I64(v) => v,
        other => panic!("expected I64 column, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// SQL Q1 == builder Q1 (both group by the flag / status byte pair),
    /// bitwise, for every backend × thread count × batch
    /// width — all eight aggregate columns.
    #[test]
    fn q1_sql_matches_builder_plan_bitwise(t in lineitem_strategy(600)) {
        force_pool();
        let table = lineitem_table(&t);
        let sql = sql_query(&q1_sql(), &table).unwrap();
        let builder = q1_plan();
        for backend in BACKENDS {
            for opts in shapes() {
                let s = sql.execute(&table, backend, &opts).unwrap();
                let b = builder.execute(&table, backend, &opts).unwrap();
                prop_assert_eq!(s.rows, b.keys.len(), "{:?} {:?}", backend, opts);
                for i in 0..s.rows {
                    // Group identity: the SQL result carries the two raw
                    // bytes; the builder result their packed pair. Both
                    // orders ascend by (returnflag, linestatus).
                    prop_assert_eq!(i64s(&s.columns[0])[i], b.keys[i] >> 8);
                    prop_assert_eq!(i64s(&s.columns[1])[i], b.keys[i] & 0xff);
                    for (sc, bc) in [(2usize, 0usize), (3, 1), (4, 2), (5, 3), (6, 4), (7, 5), (8, 6)] {
                        prop_assert_eq!(
                            f64s(&s.columns[sc])[i].to_bits(),
                            b.columns[bc].f64s()[i].to_bits(),
                            "{:?} {:?} row {} sql col {}", backend, opts, i, sc
                        );
                    }
                    prop_assert_eq!(u64s(&s.columns[9])[i], b.columns[7].u64s()[i]);
                }
            }
        }
    }

    /// SQL Q6 == builder Q6, bitwise (single un-grouped SUM).
    #[test]
    fn q6_sql_matches_builder_plan_bitwise(t in lineitem_strategy(800)) {
        force_pool();
        let table = lineitem_table(&t);
        let sql = sql_query(&q6_sql(), &table).unwrap();
        let builder = q6_plan();
        for backend in BACKENDS {
            for opts in shapes() {
                let s = sql.execute(&table, backend, &opts).unwrap();
                let b = builder.execute(&table, backend, &opts).unwrap();
                prop_assert_eq!(
                    f64s(&s.columns[0])[0].to_bits(),
                    b.columns[0].f64s()[0].to_bits(),
                    "{:?} {:?}", backend, opts
                );
            }
        }
    }

    /// SQL Q15 == builder Q15, bitwise, including supplier keys and
    /// counts (both take the hash arm with identity hashing).
    #[test]
    fn q15_sql_matches_builder_plan_bitwise(t in lineitem_strategy(700)) {
        force_pool();
        let table = lineitem_table(&t);
        let sql = sql_query(&q15_sql(), &table).unwrap();
        let builder = q15_plan();
        for backend in BACKENDS {
            for opts in shapes() {
                let s = sql.execute(&table, backend, &opts).unwrap();
                let b = builder.execute(&table, backend, &opts).unwrap();
                prop_assert_eq!(s.rows, b.keys.len(), "{:?} {:?}", backend, opts);
                prop_assert_eq!(i64s(&s.columns[0]), &b.keys[..], "{:?} {:?}", backend, opts);
                for i in 0..s.rows {
                    prop_assert_eq!(
                        f64s(&s.columns[1])[i].to_bits(),
                        b.columns[0].f64s()[i].to_bits(),
                        "{:?} {:?} supplier {}", backend, opts, b.keys[i]
                    );
                }
                prop_assert_eq!(u64s(&s.columns[2]), b.columns[1].u64s(), "{:?} {:?}", backend, opts);
            }
        }
    }

    /// Printer→parser round-trip: print a random well-formed AST and
    /// re-parse; the ASTs must be identical (bitwise on literals).
    #[test]
    fn printed_ast_reparses_identically(seed in any::<u64>()) {
        let mut rng = Xorshift(seed | 1);
        let stmt = gen_stmt(&mut rng);
        let printed = stmt.to_string();
        let reparsed = parse_select(&printed)
            .unwrap_or_else(|e| panic!("printed SQL failed to parse: {e}\n  {printed}"));
        prop_assert_eq!(&reparsed, &stmt, "printed: {}", printed);
    }
}

/// SortedDouble answers through the SQL and builder paths alike, with the
/// serial builder plan's bits at 1, 2 and 8 threads.
#[test]
fn sorted_double_is_the_same_answer_on_every_path() {
    force_pool();
    let t = Lineitem::generate(20_000, 3);
    let table = lineitem_table(&t);
    let sql = sql_query(&q6_sql(), &table).unwrap();
    let serial = q6_plan().execute(&table, SumBackend::SortedDouble, &ExecOptions::serial());
    let want = serial.unwrap().columns[0].f64s()[0];
    for threads in [1, 2, 8] {
        let opts = ExecOptions {
            threads,
            ..ExecOptions::default()
        };
        let s = sql
            .execute(&table, SumBackend::SortedDouble, &opts)
            .unwrap();
        let b = q6_plan()
            .execute(&table, SumBackend::SortedDouble, &opts)
            .unwrap();
        assert_eq!(
            f64s(&s.columns[0])[0].to_bits(),
            want.to_bits(),
            "t{threads}"
        );
        assert_eq!(
            b.columns[0].f64s()[0].to_bits(),
            want.to_bits(),
            "t{threads}"
        );
    }
}

// ---------------------------------------------------------------------------
// Random AST generation (plain xorshift; the vendored proptest shim has no
// recursive strategies, so the tree is built from a seeded stream).
// ---------------------------------------------------------------------------

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

/// Identifier pool (none collide with keywords, in any case).
const NAMES: [&str; 6] = ["a", "b1", "col_x", "price", "tax_2", "flag"];

/// Literal pool: negatives exercise the unary-minus fold, `-0.0` the
/// bitwise equality, and the rest various printed shapes.
const NUMS: [f64; 8] = [0.0, -0.0, 1.0, -1.5, 2466.0, 0.05, 1e-3, 1.25e300];

fn gen_scalar(rng: &mut Xorshift, depth: u32) -> SqlExpr {
    if depth == 0 || rng.below(3) == 0 {
        return if rng.below(2) == 0 {
            SqlExpr::Col(NAMES[rng.below(NAMES.len() as u64) as usize].to_string())
        } else {
            SqlExpr::Num(NUMS[rng.below(NUMS.len() as u64) as usize])
        };
    }
    match rng.below(5) {
        0 => SqlExpr::Neg(Box::new(gen_scalar_non_literal(rng, depth - 1))),
        k => {
            let op = [SqlBinOp::Add, SqlBinOp::Sub, SqlBinOp::Mul, SqlBinOp::Div][(k - 1) as usize];
            SqlExpr::Bin(
                op,
                Box::new(gen_scalar(rng, depth - 1)),
                Box::new(gen_scalar(rng, depth - 1)),
            )
        }
    }
}

/// `Neg(Num)` never survives the parser (it folds into the literal), so
/// the generator never produces it either.
fn gen_scalar_non_literal(rng: &mut Xorshift, depth: u32) -> SqlExpr {
    loop {
        let e = gen_scalar(rng, depth);
        if !matches!(e, SqlExpr::Num(_)) {
            return e;
        }
    }
}

fn gen_bool(rng: &mut Xorshift, depth: u32) -> SqlExpr {
    if depth == 0 || rng.below(3) == 0 {
        let ops = [
            SqlBinOp::Lt,
            SqlBinOp::Le,
            SqlBinOp::Gt,
            SqlBinOp::Ge,
            SqlBinOp::Eq,
            SqlBinOp::Ne,
        ];
        return SqlExpr::Bin(
            ops[rng.below(6) as usize],
            Box::new(gen_scalar(rng, 1)),
            Box::new(gen_scalar(rng, 1)),
        );
    }
    match rng.below(4) {
        0 => SqlExpr::Bin(
            SqlBinOp::And,
            Box::new(gen_bool(rng, depth - 1)),
            Box::new(gen_bool(rng, depth - 1)),
        ),
        1 => SqlExpr::Bin(
            SqlBinOp::Or,
            Box::new(gen_bool(rng, depth - 1)),
            Box::new(gen_bool(rng, depth - 1)),
        ),
        2 => SqlExpr::Not(Box::new(gen_bool(rng, depth - 1))),
        _ => SqlExpr::Between {
            expr: Box::new(gen_scalar(rng, 1)),
            negated: rng.below(2) == 0,
            lo: Box::new(gen_scalar(rng, 1)),
            hi: Box::new(gen_scalar(rng, 1)),
        },
    }
}

fn gen_item(rng: &mut Xorshift) -> SelectItem {
    let expr = match rng.below(6) {
        0 => SqlExpr::CountStar,
        1 => SqlExpr::Col(NAMES[rng.below(NAMES.len() as u64) as usize].to_string()),
        k => {
            let kind = [SqlAgg::Sum, SqlAgg::Avg, SqlAgg::Min, SqlAgg::Max][(k - 2) as usize];
            SqlExpr::Agg(kind, Box::new(gen_scalar(rng, 2)))
        }
    };
    let alias = if rng.below(3) == 0 {
        Some(format!("out_{}", rng.below(100)))
    } else {
        None
    };
    SelectItem { expr, alias }
}

fn gen_stmt(rng: &mut Xorshift) -> SelectStmt {
    let items = (0..1 + rng.below(4)).map(|_| gen_item(rng)).collect();
    let where_clause = if rng.below(3) > 0 {
        Some(gen_bool(rng, 2))
    } else {
        None
    };
    let group_by = (0..rng.below(3))
        .map(|_| NAMES[rng.below(NAMES.len() as u64) as usize].to_string())
        .collect();
    SelectStmt {
        items,
        table: "lineitem".to_string(),
        where_clause,
        group_by,
    }
}
