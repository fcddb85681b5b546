//! Hostile queries never panic.
//!
//! A query is outside input. Random small tables — every column under a
//! random storage (plain, `Dict`, `Dict16`, `Rle`), inner types including
//! the `F64` no group key accepts and the `F32` nothing reads — meet random
//! queries that name missing columns, put mistyped ones in filter,
//! aggregate and group-key position, use every [`GroupKey`] kind, and ask
//! for every [`SumBackend`] including `SortedDouble` and `RSUM` at 0 and
//! 5+ levels. Whatever is drawn:
//!
//! * nothing unwinds out of [`run_fused`] or [`QueryPlan::execute`];
//! * a query that cannot bind fails with the error an oracle written from
//!   the documented precedence predicts (filter conjuncts in order, the
//!   group key, the aggregate inputs, `RSUM` levels) — the *same* typed
//!   error from both entry points;
//! * a query that binds either answers — the same bits at 1, 2 and 8
//!   threads, from both entry points — or fails on the data
//!   (`ReservedKey`), at every thread count alike.

use proptest::prelude::*;
use rfa_engine::expr::NUMERIC_EXPECTED;
use rfa_engine::{
    run_fused, AggCall, AggColumn, BoolExpr, Column, ExecOptions, Expr, FusedQuery, GroupKey,
    PlanError, QueryPlan, SumBackend, Table, TableError,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn force_pool() {
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(8)
        .build_global();
}

struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The names a query draws from: the table's columns by logical type, and
/// one it lacks.
const NAMES: [&str; 7] = ["f", "g", "i", "u", "b", "c", "nope"];

/// The logical type behind a name (`None`: no such column).
fn type_of(name: &str) -> Option<&'static str> {
    Some(match name {
        "f" => "F64",
        "g" => "F32",
        "i" => "I32",
        "u" => "U32",
        "b" | "c" => "U8",
        _ => return None,
    })
}

fn encoded(col: Column, choice: usize) -> Column {
    match choice {
        1 => col.dict_encode().unwrap_or(col),
        2 => col.rle_encode().unwrap_or(col),
        3 => match col.dict_encode() {
            Ok(Column::Dict { codes, dict }) => {
                let wide: Vec<u16> = codes.iter().map(|&c| c as u16).collect();
                Column::dict16(wide, *dict).expect("widened codes stay valid")
            }
            Ok(other) => other,
            Err(_) => col,
        },
        _ => col,
    }
}

/// Short runs over small domains, so every encoding applies; the `I32`
/// column sometimes holds the reserved key −1.
fn table(rng: &mut Xorshift) -> Table {
    let n = rng.below(300);
    let reserved = rng.below(4) == 0;
    let mut draws = Vec::with_capacity(n);
    let mut v = 0;
    for _ in 0..n {
        if rng.below(3) == 0 {
            v = rng.below(9);
        }
        draws.push(v);
    }
    let mut t = Table::new("t");
    let mut add = |name: &str, col: Column| {
        let col = encoded(col, rng.below(4));
        t.add_column(name, col).expect("fresh, well-formed column");
    };
    let col = |f: &dyn Fn(usize) -> f64| draws.iter().map(|&d| f(d)).collect::<Vec<_>>();
    add("f", Column::f64(col(&|d| d as f64 * 0.375 - 1.0)));
    let g: Vec<f32> = draws.iter().map(|&d| d as f32 * 0.5).collect();
    add("g", Column::f32(g));
    let i: Vec<i32> = draws
        .iter()
        .map(|&d| if reserved && d == 8 { -1 } else { d as i32 - 3 })
        .collect();
    add("i", Column::i32(i));
    let u: Vec<u32> = draws.iter().map(|&d| d as u32 * 1000).collect();
    add("u", Column::u32(u));
    let b: Vec<u8> = draws.iter().map(|&d| (d % 3) as u8).collect();
    add("b", Column::u8(b));
    let c: Vec<u8> = draws.iter().map(|&d| (d * 29) as u8).collect();
    add("c", Column::u8(c));
    t
}

fn name(rng: &mut Xorshift) -> &'static str {
    // Mostly well-typed numeric columns, so that many draws bind.
    match rng.below(10) {
        0 => NAMES[rng.below(NAMES.len())],
        k => ["f", "i", "u", "b", "c"][k % 5],
    }
}

/// A one-column conjunct in every shape the filter binds differently: an
/// interval, its flipped form, `<>`, a disjunction, arithmetic.
fn conjunct(rng: &mut Xorshift) -> (&'static str, BoolExpr) {
    let name = name(rng);
    let col = || Expr::col(name);
    let lit = Expr::lit(rng.below(9) as f64 - 2.0);
    let pred = match rng.below(6) {
        0 => col().ge(lit),
        1 => lit.gt(col()),
        2 => col().between(Expr::lit(-1.0), lit),
        3 => col().ne(lit),
        4 => col().lt(lit).or(col().gt(Expr::lit(5.0))),
        _ => col().mul(Expr::lit(2.0)).le(lit),
    };
    (name, pred)
}

/// A one-column aggregate input, bare or not.
fn input(rng: &mut Xorshift) -> (&'static str, Expr) {
    let name = name(rng);
    let expr = match rng.below(3) {
        0 => Expr::col(name).mul(Expr::lit(0.5)).add(Expr::lit(1.0)),
        _ => Expr::col(name),
    };
    (name, expr)
}

fn key_name(rng: &mut Xorshift) -> &'static str {
    match rng.below(8) {
        0 => NAMES[rng.below(NAMES.len())],
        k => ["i", "u", "b", "c"][k % 4],
    }
}

fn backend(rng: &mut Xorshift) -> SumBackend {
    let buffer_size = [0, 1, 64][rng.below(3)];
    match rng.below(12) {
        0 => SumBackend::SortedDouble,
        1 => SumBackend::Rsum { levels: 0 },
        2 => SumBackend::Rsum {
            levels: 5 + rng.below(251) as u8,
        },
        3 => SumBackend::RsumBuffered {
            levels: [0, 5, 255][rng.below(3)],
            buffer_size,
        },
        4 | 5 => SumBackend::Double,
        6 | 7 => SumBackend::ReproUnbuffered,
        8 => SumBackend::ReproBuffered { buffer_size },
        9 => SumBackend::Rsum {
            levels: 1 + rng.below(4) as u8,
        },
        _ => SumBackend::RsumBuffered {
            levels: 1 + rng.below(4) as u8,
            buffer_size,
        },
    }
}

fn mismatch(column: &str, expected: &'static str, found: &'static str) -> TableError {
    TableError::TypeMismatch {
        column: column.into(),
        expected,
        found,
    }
}

/// What an expression says about a column it cannot read.
fn unreadable(name: &str) -> Option<TableError> {
    match type_of(name) {
        None => Some(TableError::NoSuchColumn(name.into())),
        Some("F32") => Some(mismatch(name, NUMERIC_EXPECTED, "F32")),
        Some(_) => None,
    }
}

/// What the grouping says about a key column of the wrong logical type.
fn bad_key(name: &str, expected: &'static str, ok: &[&str]) -> Option<TableError> {
    match type_of(name) {
        None => Some(TableError::NoSuchColumn(name.into())),
        Some(ty) if !ok.contains(&ty) => Some(mismatch(name, expected, ty)),
        Some(_) => None,
    }
}

fn bits(v: &[Vec<f64>]) -> Vec<Vec<u64>> {
    v.iter()
        .map(|s| s.iter().map(|x| x.to_bits()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn hostile_queries_are_typed_errors_from_both_entry_points(seed in any::<u64>()) {
        force_pool();
        let mut rng = Xorshift(seed | 1);
        let table = table(&mut rng);
        let filter: Vec<_> = (0..rng.below(4)).map(|_| conjunct(&mut rng)).collect();
        let sums: Vec<_> = (0..rng.below(3)).map(|_| input(&mut rng)).collect();
        let mins: Vec<_> = (0..rng.below(2)).map(|_| input(&mut rng)).collect();
        let maxs: Vec<_> = (0..rng.below(2)).map(|_| input(&mut rng)).collect();
        let (group_by, key_error) = match rng.below(3) {
            0 => (GroupKey::None, None),
            1 => {
                let col = key_name(&mut rng);
                let error = bad_key(col, "I32, U32 or U8", &["I32", "U32", "U8"]);
                (GroupKey::Hash { col: col.into() }, error)
            }
            _ => {
                let (a, b) = (key_name(&mut rng), key_name(&mut rng));
                let error = bad_key(a, "U8", &["U8"]).or_else(|| bad_key(b, "U8", &["U8"]));
                (GroupKey::HashPair { a: a.into(), b: b.into() }, error)
            }
        };
        let backend = backend(&mut rng);

        // The documented precedence of the bind.
        let inputs = sums.iter().chain(&mins).chain(&maxs);
        let unbound = filter
            .iter()
            .find_map(|(name, _)| unreadable(name))
            .or(key_error)
            .or_else(|| inputs.clone().find_map(|(name, _)| unreadable(name)))
            .map(PlanError::Table)
            .or_else(|| {
                let levels = backend.check_levels().err()?;
                Some(PlanError::RsumLevels { levels })
            });

        let exprs = |inputs: &[(&str, Expr)]| inputs.iter().map(|(_, e)| e.clone()).collect();
        let query = FusedQuery {
            filter: filter.iter().map(|(_, p)| p.clone()).collect(),
            sums: exprs(&sums),
            mins: exprs(&mins),
            maxs: exprs(&maxs),
            group_by: group_by.clone(),
        };
        // The same query as a plan; COUNT keeps its aggregate list
        // non-empty, and the kinds arrive in the fused query's order.
        let mut plan = QueryPlan::scan("t").group_by(group_by).count();
        for (_, p) in &filter {
            plan = plan.filter(p.clone());
        }
        let calls = query.sums.iter().cloned().map(AggCall::Sum);
        let calls = calls.chain(query.mins.iter().cloned().map(AggCall::Min));
        for call in calls.chain(query.maxs.iter().cloned().map(AggCall::Max)) {
            plan = plan.agg(call);
        }

        let mut answers = Vec::new();
        for threads in [1usize, 2, 8] {
            let opts = ExecOptions {
                threads,
                batch_rows: 16,
                ..ExecOptions::default()
            };
            let ctx = format!("seed {seed:#x} threads {threads} {backend:?}");
            let fused = catch_unwind(AssertUnwindSafe(|| run_fused(&table, &query, backend, &opts)));
            let planned = catch_unwind(AssertUnwindSafe(|| plan.execute(&table, backend, &opts)));
            let (Ok(fused), Ok(planned)) = (fused, planned) else {
                panic!("an entry point unwound: {ctx}");
            };
            match (&unbound, fused, planned) {
                (Some(want), Err(f), Err(p)) => {
                    prop_assert_eq!(&f, want, "{}", ctx);
                    prop_assert_eq!(p, f, "{}", ctx);
                }
                (None, Err(f), Err(p)) => {
                    // Only the rows can refuse a query that binds.
                    let reserved = matches!(&f, PlanError::ReservedKey { col } if col == "i");
                    prop_assert!(reserved, "{}: {:?}", ctx, f);
                    prop_assert_eq!(p, f, "{}", ctx);
                    answers.push(None);
                }
                (None, Ok(f), Ok(p)) => {
                    let total: u64 = f.counts.iter().sum();
                    prop_assert_eq!(p.columns[0].u64s().iter().sum::<u64>(), total, "{}", ctx);
                    let planned: Vec<Vec<u64>> = p
                        .columns
                        .iter()
                        .map(|c| match c {
                            AggColumn::F64(v) => v.iter().map(|x| x.to_bits()).collect(),
                            AggColumn::U64(v) => v.clone(),
                        })
                        .collect();
                    let fused = (f.keys, f.counts, bits(&f.sums), bits(&f.mins), bits(&f.maxs));
                    answers.push(Some((fused, p.keys, planned)));
                }
                (want, f, p) => panic!("{ctx}: expected {want:?}, got {f:?} and {p:?}"),
            }
        }
        prop_assert!(answers.windows(2).all(|w| w[0] == w[1]), "seed {:#x}", seed);
    }
}
