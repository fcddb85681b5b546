//! Property tests of the scan filter's normal form: every conjunct that
//! compares one column with constants is a closed interval, and all the
//! intervals over one column intersect into a single bound conjunct.
//!
//! Random conjunct lists — all six comparison operators and `BETWEEN`,
//! constants on either side, columns repeated and distinct, literals drawn
//! from the values that break naive interval arithmetic (±0.0, ±∞, NaN,
//! subnormals, `i32::MIN` / `MAX` ± 0.5, values present in the data and
//! their `f64` neighbours) — run over plain `F64` / `I32` / `U32` / `U8`
//! columns and over `Dict`, `Dict16` and sorted and unsorted `Rle` twins
//! of the same data, at every SIMD tier and at batch shapes 1 / 7 / 4096:
//!
//! * the selected rows are exactly those the [`BoolExpr::eval`] tree
//!   reference keeps, conjunct by conjunct (it runs the general mask
//!   program and never sees an interval);
//! * every SUM is the same bits on every encoding, tier and batch shape.
//!
//! That the merged filter binds one per-batch conjunct per interval column
//! plus one per conjunct of any other shape is asserted where the count is
//! visible, in `fused.rs`'s unit tests
//! (`bound_conjuncts_are_distinct_interval_columns_plus_the_rest`).

use proptest::collection::vec;
use proptest::prelude::*;
use rfa_core::cpu::{self, SimdLevel};
use rfa_engine::{
    run_fused, BoolExpr, CmpOp, Column, ExecOptions, Expr, FusedQuery, GroupKey, SumBackend, Table,
};

/// The dispatch tiers this host can be forced to.
fn tiers() -> Vec<SimdLevel> {
    let mut tiers = vec![SimdLevel::Scalar];
    if cpu::avx2_supported() {
        tiers.push(SimdLevel::Avx2);
    }
    if cpu::avx512_supported() {
        tiers.push(SimdLevel::Avx512);
    }
    tiers
}

/// `batch_rows`.
const BATCH_ROWS: [usize; 3] = [1, 7, 4096];

const FILTER_COLS: [&str; 6] = ["f", "i", "u", "b", "s", "r"];

fn encode(col: Column, choice: u8) -> Column {
    match choice % 4 {
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

/// Expands `(value, length)` runs to exactly `n` rows (cycling the runs).
fn expand(runs: &[(i32, usize)], n: usize) -> Vec<i32> {
    runs.iter()
        .cycle()
        .flat_map(|&(v, len)| std::iter::repeat_n(v, len))
        .take(n)
        .collect()
}

/// Literals that sit on every edge of the interval normal form, plus the
/// values of `data` and their neighbours on the `f64` line.
fn literal_pool(data: &[f64]) -> Vec<f64> {
    let mut pool = vec![
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::MIN_POSITIVE / 2.0,
        i32::MIN as f64 - 0.5,
        i32::MIN as f64 + 0.5,
        i32::MAX as f64 - 0.5,
        i32::MAX as f64 + 0.5,
        u32::MAX as f64 + 1.0,
        2.5,
        -0.5,
    ];
    for &v in data.iter().take(24) {
        pool.extend([v, v.next_up(), v.next_down()]);
    }
    pool
}

/// One conjunct: `(column, shape, literal picks)`.
type ConjunctSpec = (usize, u8, usize, usize);

fn conjunct(spec: ConjunctSpec, pools: &[Vec<f64>]) -> BoolExpr {
    let (col, shape, a, b) = spec;
    let pool = &pools[col % FILTER_COLS.len()];
    let (a, b) = (pool[a % pool.len()], pool[b % pool.len()]);
    let col = || Box::new(Expr::col(FILTER_COLS[col % FILTER_COLS.len()]));
    let lit = |v| Box::new(Expr::lit(v));
    const OPS: [CmpOp; 6] = [
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Eq,
        CmpOp::Ne,
    ];
    match shape % 14 {
        s @ 0..=5 => BoolExpr::Cmp(OPS[s as usize], col(), lit(a)),
        // Constant on the left: normalized through the flipped operator.
        s @ 6..=11 => BoolExpr::Cmp(OPS[s as usize - 6], lit(a), col()),
        12 => BoolExpr::Between(col(), lit(a.min(b)), lit(a.max(b))),
        // Bounds as drawn: crossed, or NaN, about half the time.
        _ => BoolExpr::Between(col(), lit(a), lit(b)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merged_interval_filters_select_what_the_tree_reference_selects(
        rows in vec(
            (
                prop_oneof![
                    10 => (-6i32..7).prop_map(|k| k as f64 * 0.5),
                    1 => Just(f64::NAN),
                    1 => Just(0.0),
                    1 => Just(-0.0),
                    1 => Just(f64::INFINITY),
                    1 => Just(f64::NEG_INFINITY),
                    1 => Just(f64::from_bits(1)),
                    1 => Just(-f64::MIN_POSITIVE / 2.0),
                ],
                prop_oneof![10 => -6i32..7, 1 => Just(i32::MIN), 1 => Just(i32::MAX)],
                prop_oneof![10 => 0u32..12, 1 => Just(u32::MAX), 1 => Just(1u32 << 31)],
                prop_oneof![10 => 0u8..12, 1 => Just(255u8)],
                -1.0e3..1.0e3f64,
            ),
            0..300,
        ),
        s_runs in vec((-4i32..9, 1usize..30), 1..12),
        r_runs in vec((-4i32..9, 1usize..6), 1..40),
        choices in vec(0u8..4, 6..7),
        filters in vec(vec((0usize..6, 0u8..14, 0usize..1000, 0usize..1000), 0..6), 4..5),
    ) {
        let n = rows.len();
        let mut sorted = expand(&s_runs, n);
        sorted.sort_unstable();
        let plain_cols: Vec<(&str, Column)> = vec![
            ("f", Column::f64(rows.iter().map(|r| r.0).collect::<Vec<_>>())),
            ("i", Column::i32(rows.iter().map(|r| r.1).collect::<Vec<_>>())),
            ("u", Column::u32(rows.iter().map(|r| r.2).collect::<Vec<_>>())),
            ("b", Column::u8(rows.iter().map(|r| r.3).collect::<Vec<_>>())),
            ("s", Column::i32(sorted)),
            ("r", Column::i32(expand(&r_runs, n))),
        ];
        // Literal pools, from each filter column's values widened as the
        // engine widens them.
        let pools: Vec<Vec<f64>> = plain_cols
            .iter()
            .map(|(_, col)| {
                let data: Vec<f64> = match col {
                    Column::F64(v) => v.to_vec(),
                    Column::I32(v) => v.iter().map(|&x| x as f64).collect(),
                    Column::U32(v) => v.iter().map(|&x| x as f64).collect(),
                    Column::U8(v) => v.iter().map(|&x| x as f64).collect(),
                    _ => unreachable!("plain columns"),
                };
                literal_pool(&data)
            })
            .collect();

        // The same logical table twice: every column plain, and every
        // filter column under the encoding the case draws (`s` and `r`
        // lean RLE: the sorted and the unsorted twin).
        let (mut plain, mut encoded) = (Table::new("t"), Table::new("t"));
        for (c, (name, col)) in plain_cols.into_iter().enumerate() {
            let choice = match name {
                "s" | "r" => [2, 2, 1, 0][choices[c] as usize],
                _ => choices[c],
            };
            encoded.add_column(name, encode(col.clone(), choice)).expect("fresh table");
            plain.add_column(name, col).expect("fresh table");
        }
        for t in [&mut plain, &mut encoded] {
            t.add_column("v", Column::f64(rows.iter().map(|r| r.4).collect::<Vec<_>>()))
                .expect("fresh table");
            t.add_column("rid", Column::u32((0..n as u32).collect::<Vec<_>>()))
                .expect("fresh table");
        }

        let all: Vec<u32> = (0..n as u32).collect();
        for specs in &filters {
            let filter: Vec<BoolExpr> = specs.iter().map(|&s| conjunct(s, &pools)).collect();
            // Reference: each conjunct's tree evaluation, AND-ed per row.
            let masks: Vec<Vec<bool>> = filter
                .iter()
                .map(|p| p.eval(&plain, &all).expect("valid predicate"))
                .collect();
            let want_rows: Vec<u32> = all
                .iter()
                .copied()
                .filter(|&r| masks.iter().all(|m| m[r as usize]))
                .collect();

            let by_row = FusedQuery {
                filter: filter.clone(),
                sums: vec![Expr::col("v")],
                mins: vec![],
                maxs: vec![],
                group_by: GroupKey::Hash { col: "rid".into() },
            };
            let total = FusedQuery {
                filter: filter.clone(),
                sums: vec![Expr::col("v"), Expr::col("v").mul(Expr::col("v"))],
                mins: vec![],
                maxs: vec![],
                group_by: GroupKey::None,
            };
            let mut sums_seen: Vec<(SumBackend, Vec<u64>)> = Vec::new();
            for tier in tiers() {
                cpu::set_override(Some(tier));
                for batch_rows in BATCH_ROWS {
                    let opts = ExecOptions { batch_rows, ..ExecOptions::default() };
                    for (which, table) in [("plain", &plain), ("encoded", &encoded)] {
                        let ctx = format!("{filter:?} {tier:?} b{batch_rows} {which}");
                        // Group by row id: the keys *are* the selection.
                        let got = run_fused(table, &by_row, SumBackend::ReproUnbuffered, &opts)
                            .expect("fused run");
                        prop_assert_eq!(got.keys.as_ref(), Some(&want_rows), "{}", &ctx);
                        prop_assert!(got.counts.iter().all(|&c| c == 1), "{}", &ctx);
                        for backend in [
                            SumBackend::Double,
                            SumBackend::ReproBuffered { buffer_size: 64 },
                        ] {
                            let got = run_fused(table, &total, backend, &opts).expect("fused run");
                            prop_assert_eq!(got.counts[0], want_rows.len() as u64, "{}", &ctx);
                            let bits: Vec<u64> = got.sums.iter().map(|s| s[0].to_bits()).collect();
                            match sums_seen.iter().find(|(b, _)| *b == backend) {
                                Some((_, first)) => prop_assert_eq!(&bits, first, "{} {:?}", &ctx, backend),
                                None => sums_seen.push((backend, bits)),
                            }
                        }
                    }
                }
                cpu::set_override(None);
            }
        }
    }
}
