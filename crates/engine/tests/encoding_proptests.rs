//! Property tests of the compressed-column scan paths: for arbitrary
//! (values, encoding) pairs, encode → decode must round-trip **exactly**
//! (same storage bits), and Q1/Q6/Q15-shaped plans over Dict/Dict16/Rle
//! columns must be bit-identical to the same plans over plain columns —
//! across every backend, thread count, and batch width.
//!
//! Why bit-identity holds: dictionary pushdown evaluates the predicate
//! once per dictionary *entry* over the same f64/i32 bits a plain scan
//! would load per row; a dictionary or RLE aggregate input is read per
//! row — a code lookup, a run walk — into the identical value sequence
//! the plain column holds, and RLE group keys fill the identical key
//! sequence. The encoded-input test also holds every reproducible SUM to
//! the exact oracle (`rfa-exact`) within the paper's bound — agreement
//! between paths is not yet agreement with the truth.

use proptest::collection::vec;
use proptest::prelude::*;
use rfa_core::analysis::reproducible_bound;
use rfa_engine::{
    lineitem_table, lineitem_table_encoded, q15_plan, q1_plan, q6_plan, AggColumn, Column,
    ExecOptions, Expr, PlanResult, QueryPlan, SumBackend, Table,
};
use rfa_exact::ExactSum;
use rfa_workloads::Lineitem;
use std::collections::BTreeMap;

/// Fixes the thread budget at 8 so multi-thread shapes genuinely fork.
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

/// Batch/thread shapes: serial tiny batches, serial default, and splits
/// into contiguous runs of batches at 2 and 8 threads.
fn shapes() -> [ExecOptions; 4] {
    [
        ExecOptions {
            threads: 1,
            batch_rows: 32,
            ..ExecOptions::default()
        },
        ExecOptions {
            threads: 1,
            batch_rows: 4096,
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

/// Lineitem rows with deliberately small domains (quantities and dates
/// from a few dozen values) so dictionary encoding always applies and
/// sorted orders produce long runs.
fn lineitem_strategy(max_rows: usize) -> impl Strategy<Value = Lineitem> {
    let row = (
        (0u8..50).prop_map(|q| q as f64 + 0.5), // quantity: 50 distinct
        (-1.0e5..1.0e5f64),                     // extendedprice: plain
        (0u8..11).prop_map(|d| d as f64 / 100.0), // discount: 11 distinct
        (0u8..9).prop_map(|t| t as f64 / 100.0), // tax: 9 distinct
        (700i32..1200),                         // shipdate straddles the Q6 window
        (0u8..3),                               // returnflag index
        (0u8..2),                               // linestatus index
        (1i32..20),                             // suppkey
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

/// Bitwise storage equality: f64 payloads compared as raw bits so that
/// `-0.0` vs `0.0` or NaN payload drift would fail the round-trip.
fn assert_columns_bitwise(a: &Column, b: &Column) {
    match (a, b) {
        (Column::F64(x), Column::F64(y)) => {
            prop_assert_eq!(x.len(), y.len());
            for (u, v) in x.iter().zip(y.iter()) {
                prop_assert_eq!(u.to_bits(), v.to_bits());
            }
        }
        (Column::I32(x), Column::I32(y)) => prop_assert_eq!(x, y),
        (Column::U32(x), Column::U32(y)) => prop_assert_eq!(x, y),
        (Column::U8(x), Column::U8(y)) => prop_assert_eq!(x, y),
        (x, y) => prop_assert!(false, "storage kind mismatch: {:?} vs {:?}", x, y),
    }
}

fn assert_results_bitwise(a: &PlanResult, b: &PlanResult, ctx: &str) {
    prop_assert_eq!(&a.keys, &b.keys, "{}", ctx);
    prop_assert_eq!(a.columns.len(), b.columns.len(), "{}", ctx);
    for (c, cols) in a.columns.iter().zip(&b.columns).enumerate() {
        match cols {
            (AggColumn::F64(x), AggColumn::F64(y)) => {
                prop_assert_eq!(x.len(), y.len(), "{} column {}", ctx, c);
                for (u, v) in x.iter().zip(y.iter()) {
                    prop_assert_eq!(u.to_bits(), v.to_bits(), "{} column {}", ctx, c);
                }
            }
            (AggColumn::U64(x), AggColumn::U64(y)) => {
                prop_assert_eq!(x, y, "{} column {}", ctx, c)
            }
            _ => prop_assert!(false, "{} column {}: kind mismatch", ctx, c),
        }
    }
}

/// Re-encodes each column of a plain lineitem table per the chosen
/// per-column encoding (0 = plain, 1 = dict, 2 = rle, 3 = dict16 with
/// codes force-widened to u16), falling back to plain when the encoding
/// does not apply (e.g. >65536 distinct values).
fn encoded_twin(plain: &Table, choices: &[u8]) -> Table {
    let names = [
        "l_quantity",
        "l_extendedprice",
        "l_discount",
        "l_tax",
        "l_shipdate",
        "l_returnflag",
        "l_linestatus",
        "l_suppkey",
    ];
    let mut table = Table::new("lineitem");
    for (i, name) in names.iter().enumerate() {
        let col = plain.column(name).expect("lineitem column").clone();
        let col = match choices[i % choices.len()] % 4 {
            1 => col.dict_encode().unwrap_or(col),
            2 => col.rle_encode().unwrap_or(col),
            // `dict_encode` only emits u16 codes past 256 entries; widen
            // small dictionaries by hand so Dict16 scan paths see the
            // same tiny domains as Dict.
            3 => match col.dict_encode() {
                Ok(Column::Dict { codes, dict }) => {
                    let wide: Vec<u16> = codes.iter().map(|&c| c as u16).collect();
                    Column::dict16(wide, *dict).expect("widened codes stay valid")
                }
                Ok(other) => other,
                Err(_) => col,
            },
            _ => col,
        };
        table.add_column(*name, col).expect("fresh table");
    }
    table
}

fn check_plans_over(plain: &Table, encoded: &Table, ctx: &str) {
    for (plan, which) in [(q1_plan(), "q1"), (q6_plan(), "q6"), (q15_plan(), "q15")] {
        let plan: QueryPlan = plan;
        for backend in BACKENDS {
            for opts in shapes() {
                let want = plan.execute(plain, backend, &opts).unwrap();
                let got = plan.execute(encoded, backend, &opts).unwrap();
                assert_results_bitwise(
                    &want,
                    &got,
                    &format!("{ctx} {which} {backend:?} t{}", opts.threads),
                );
            }
        }
    }
}

/// Levels of the reproducible state behind `backend` (`None`: `Double`
/// and `SortedDouble`).
fn levels(backend: SumBackend) -> Option<usize> {
    match backend {
        SumBackend::ReproUnbuffered | SumBackend::ReproBuffered { .. } => Some(4),
        SumBackend::Rsum { levels } | SumBackend::RsumBuffered { levels, .. } => {
            Some(levels as usize)
        }
        _ => None,
    }
}

/// The groupings of the dictionary-input test: the plan, and the output
/// key each row falls under.
type Grouping = (
    &'static str,
    fn(QueryPlan) -> QueryPlan,
    fn(u8, u8, i32, i32) -> i64,
);
const GROUPINGS: [Grouping; 6] = [
    ("ungrouped", |p| p, |_, _, _, _| 0),
    ("hash", |p| p.group_by_key("k"), |_, _, k, _| k as i64),
    (
        "hash on run key",
        |p| p.group_by_key("kr"),
        |_, _, _, kr| kr as i64,
    ),
    (
        "hash on u32 run key",
        |p| p.group_by_key("ku"),
        |_, _, _, kr| kr as i64,
    ),
    (
        "hash on u8 run key",
        |p| p.group_by_key("ga"),
        |a, _, _, _| a as i64,
    ),
    (
        "u8 pair",
        |p| p.group_by_u8_pair("ga", "gb"),
        |a, b, _, _| ((a as i64) << 8) | b as i64,
    ),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// SUM / AVG / MIN / MAX whose input is a `Dict` or `Dict16` column —
    /// bare, and inside an expression — and SUM / MIN / MAX of a bare
    /// `Rle<F64>` column, ungrouped and under every grouping (byte pair,
    /// hash, and with `rle_keys` the same over RLE keys: `U8` / `U8`
    /// pairs, `I32`, `U32` and `U8` hash keys): bitwise the decoded
    /// table's answer on every backend at 1, 2 and 8 threads, and for the
    /// reproducible ones within the paper's bound of the exact sum.
    #[test]
    fn aggregates_over_dictionary_inputs_match_decoded_and_oracle(
        key_runs in vec((0i32..6, 1usize..30), 1..30),
        rows in vec((0u16..40, 0u16..1000, 0i32..11, -50.0..50.0f64), 0..500),
        wide in any::<bool>(),
        rle_keys in any::<bool>(),
        cut in -50.0..50.0f64,
    ) {
        force_pool();
        let n = rows.len();
        let kr: Vec<i32> = key_runs
            .iter()
            .cycle()
            .flat_map(|&(v, len)| std::iter::repeat_n(v, len))
            .take(n)
            .collect();
        let ga: Vec<u8> = kr.iter().map(|&k| (k % 3) as u8).collect();
        let gb: Vec<u8> = kr.iter().map(|&k| (k / 3) as u8).collect();
        let k: Vec<i32> = rows.iter().map(|r| r.2).collect();
        // `v`: 40 distinct values (u8 codes, or force-widened to u16);
        // `w`: up to 1000 distinct (u16 codes once past 256).
        let v: Vec<f64> = rows.iter().map(|r| r.0 as f64 * 0.4375 - 4.0 + 2.5e-13).collect();
        let w: Vec<f64> = rows.iter().map(|r| r.1 as f64 * 0.09375 - 13.0).collect();
        let x: Vec<f64> = rows.iter().map(|r| r.3).collect();
        // `r`: one value per key run, always RLE-encoded.
        let r: Vec<f64> = kr.iter().map(|&k| k as f64 * 0.6875 - 1.5 + 2.5e-13).collect();

        let dict = |col: Column| {
            let encoded = col.dict_encode().unwrap_or(col);
            match encoded {
                Column::Dict { codes, dict } if wide => {
                    let codes: Vec<u16> = codes.iter().map(|&c| c as u16).collect();
                    Column::dict16(codes, *dict).expect("widened codes stay valid")
                }
                other => other,
            }
        };
        let key = |col: Column| if rle_keys { col.rle_encode().unwrap_or(col) } else { col };
        let mut encoded = Table::new("t");
        for (name, col) in [
            ("ga", key(Column::u8(ga.clone()))),
            ("gb", key(Column::u8(gb.clone()))),
            ("kr", key(Column::i32(kr.clone()))),
            ("ku", key(Column::u32(kr.iter().map(|&k| k as u32).collect::<Vec<_>>()))),
            ("k", Column::i32(k.clone())),
            ("v", dict(Column::f64(v.clone()))),
            ("w", dict(Column::f64(w.clone()))),
            ("x", Column::f64(x.clone())),
            ("r", Column::f64(r).rle_encode().expect("runs always encode")),
        ] {
            encoded.add_column(name, col).expect("fresh table");
        }
        let mut decoded = Table::new("t");
        for (name, _) in encoded.schema() {
            let col = encoded.column(name).expect("column").decode();
            decoded.add_column(name, col).expect("fresh table");
        }

        for (filtered, keep) in [(false, vec![true; n]), (true, x.iter().map(|&x| x < cut).collect())] {
            for (name, group, key_of) in GROUPINGS {
                let mut plan = group(QueryPlan::scan("t"))
                    .sum(Expr::col("v"))
                    .avg(Expr::col("v"))
                    .min(Expr::col("v"))
                    .max(Expr::col("v"))
                    .sum(Expr::col("w"))
                    .avg(Expr::col("w"))
                    .min(Expr::col("w"))
                    .max(Expr::col("w"))
                    .sum(Expr::col("v").mul(Expr::col("w")))
                    .count()
                    .sum(Expr::col("r"))
                    .min(Expr::col("r"))
                    .max(Expr::col("r"));
                if filtered {
                    plan = plan.filter(Expr::col("x").lt(Expr::lit(cut)));
                }
                // Per output key: exact SUM(v), SUM(w) with row count and
                // largest magnitude, and the exact MIN / MAX of v.
                let mut truth: BTreeMap<i64, [(ExactSum, usize, f64); 2]> = BTreeMap::new();
                let mut extrema: BTreeMap<i64, (f64, f64)> = BTreeMap::new();
                for r in (0..n).filter(|&r| keep[r]) {
                    let key = key_of(ga[r], gb[r], k[r], kr[r]);
                    let sums = truth.entry(key).or_insert_with(|| {
                        [(ExactSum::new(), 0, 0.0), (ExactSum::new(), 0, 0.0)]
                    });
                    for (slot, val) in sums.iter_mut().zip([v[r], w[r]]) {
                        slot.0.add(val);
                        slot.1 += 1;
                        slot.2 = slot.2.max(val.abs());
                    }
                    let e = extrema.entry(key).or_insert((f64::INFINITY, f64::NEG_INFINITY));
                    *e = (e.0.min(v[r]), e.1.max(v[r]));
                }
                for backend in BACKENDS {
                    let want = plan.execute(&decoded, backend, &ExecOptions::serial()).unwrap();
                    for opts in shapes() {
                        let ctx = format!(
                            "{name} filtered={filtered} wide={wide} rle_keys={rle_keys} {backend:?} t{} b{}",
                            opts.threads, opts.batch_rows
                        );
                        let got = plan.execute(&encoded, backend, &opts).unwrap();
                        assert_results_bitwise(&want, &got, &ctx);
                    }
                    // An ungrouped plan keeps its one row even when the
                    // filter leaves nothing; there is no sum to check then.
                    if truth.is_empty() {
                        continue;
                    }
                    prop_assert_eq!(
                        &want.keys,
                        &truth.keys().copied().collect::<Vec<_>>(),
                        "{} {:?}", name, backend
                    );
                    for (row, key) in want.keys.iter().enumerate() {
                        let (lo, hi) = extrema[key];
                        prop_assert_eq!(want.columns[2].f64s()[row].to_bits(), lo.to_bits());
                        prop_assert_eq!(want.columns[3].f64s()[row].to_bits(), hi.to_bits());
                        let Some(levels) = levels(backend) else { continue };
                        for (col, (exact, count, max_abs)) in [0, 4].into_iter().zip(&truth[key]) {
                            let sum = want.columns[col].f64s()[row];
                            let mut err = exact.clone();
                            err.sub(sum);
                            let bound = reproducible_bound::<f64>(*count, levels, *max_abs)
                                + sum.abs() * f64::EPSILON;
                            prop_assert!(
                                err.round_f64().abs() <= bound,
                                "{} {:?} key {} column {}: {} off the exact sum by {:e} > {:e}",
                                name, backend, key, col, sum, err.round_f64(), bound
                            );
                            // AVG is that SUM over the exact count.
                            let avg = want.columns[col + 1].f64s()[row];
                            prop_assert_eq!(avg.to_bits(), (sum / *count as f64).to_bits());
                        }
                    }
                }
            }
        }
    }

    /// encode → decode is the exact identity on the stored bits, for
    /// every (values, encoding) pair where the encoding applies.
    #[test]
    fn encode_decode_round_trips_exactly(
        f64s in vec((0u8..40).prop_map(|v| (v as f64 - 7.0) * 0.25), 0..300),
        i32s in vec(-50i32..50, 0..300),
        u8s in vec(0u8..6, 0..300),
        pick_rle in any::<bool>(),
    ) {
        let cols = [Column::f64(f64s), Column::i32(i32s), Column::u8(u8s)];
        for col in cols {
            let encoded = if pick_rle { col.rle_encode() } else { col.dict_encode() };
            let encoded = encoded.expect("small domains always encode");
            prop_assert!(encoded.validate_encoding().is_ok());
            prop_assert_eq!(encoded.len(), col.len());
            assert_columns_bitwise(&encoded.decode(), &col);
        }
    }

    /// Q1/Q6/Q15 plans over per-column (dict | dict16 | rle | plain)
    /// storage choices produce bitwise the results of the all-plain
    /// table, for every backend × thread count × batch
    /// width.
    #[test]
    fn plans_over_random_encodings_match_plain_bitwise(
        t in lineitem_strategy(400),
        choices in vec(0u8..4, 8..9),
    ) {
        force_pool();
        let plain = lineitem_table(&t);
        let encoded = encoded_twin(&plain, &choices);
        check_plans_over(&plain, &encoded, "random");
    }

    /// The production encoding policy (`lineitem_table_encoded`) over
    /// clustered physical orders — where RLE genuinely engages on the
    /// group keys and the shipdate band — is also bit-identical.
    #[test]
    fn plans_over_policy_encodings_match_plain_bitwise(t in lineitem_strategy(400)) {
        force_pool();
        for ordered in [t.sorted_by_q1_group(), t.sorted_by_shipdate()] {
            let plain = lineitem_table(&ordered);
            let encoded = lineitem_table_encoded(&ordered);
            check_plans_over(&plain, &encoded, "policy");
        }
    }
}
