//! Property tests of bind-time range pruning: a fused query over random
//! tables with random per-column encodings returns **bitwise** what the
//! same query returns over the `decode()`d table — for every backend,
//! `Double` included, at every thread count and batch width.
//!
//! Why no bit can move: an interval conjunct over an RLE column, which
//! binding decides per run, keeps exactly the rows the per-row comparison
//! keeps, and the
//! pruned scan walks the same batch grid, merely skipping batches that
//! hold none of them and starting the others from `batch ∩ range`. Every
//! accumulator slot therefore sees the same values in the same order.
//! The visited / pruned batch counts are part of the contract too: they
//! add up to the grid, and they do not depend on the thread count.

use proptest::collection::vec;
use proptest::prelude::*;
use rfa_engine::{
    run_fused, BoolExpr, Column, ExecOptions, Expr, FusedQuery, FusedRun, GroupKey, SumBackend,
    Table,
};

/// Fixes the thread budget at 8 so multi-thread shapes genuinely fork.
fn force_pool() {
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(8)
        .build_global();
}

const BACKENDS: [SumBackend; 5] = [
    SumBackend::Double,
    SumBackend::ReproUnbuffered,
    SumBackend::ReproBuffered { buffer_size: 64 },
    SumBackend::Rsum { levels: 2 },
    SumBackend::RsumBuffered {
        levels: 3,
        buffer_size: 48,
    },
];

/// `batch_rows`: single-row batches, an odd width, a power of two, and
/// the default.
const BATCH_ROWS: [usize; 4] = [1, 7, 64, 4096];
const THREADS: [usize; 3] = [1, 2, 8];

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

fn assert_bitwise(got: &FusedRun, want: &FusedRun, ctx: &str) {
    prop_assert_eq!(&got.counts, &want.counts, "{}", ctx);
    // Hash groups: first-seen key order, not just the key set.
    prop_assert_eq!(&got.keys, &want.keys, "{}", ctx);
    for (which, (a, b)) in [
        (&got.sums, &want.sums),
        (&got.mins, &want.mins),
        (&got.maxs, &want.maxs),
    ]
    .into_iter()
    .enumerate()
    {
        prop_assert_eq!(a.len(), b.len(), "{}", ctx);
        for (xs, ys) in a.iter().zip(b) {
            let (xs, ys): (Vec<u64>, Vec<u64>) = (
                xs.iter().map(|v| v.to_bits()).collect(),
                ys.iter().map(|v| v.to_bits()).collect(),
            );
            prop_assert_eq!(xs, ys, "{} array kind {}", ctx, which);
        }
    }
}

/// One filter under test: its conjuncts, and the columns of those that
/// binding decides outright when the column is RLE (if none of them is,
/// nothing may be pruned).
struct Case {
    name: &'static str,
    filter: Vec<BoolExpr>,
    decidable: &'static [&'static str],
}

fn cases(lo: i32, hi: i32, e_cut: i32, x_cut: f64) -> Vec<Case> {
    let d = || Expr::col("d");
    let lit = |v: i32| Expr::lit(v as f64);
    let case = |name, filter, decidable: &'static [&'static str]| Case {
        name,
        filter,
        decidable,
    };
    vec![
        // Q6's shape: two conjuncts on one column.
        case(
            "d in [lo, hi)",
            vec![d().ge(lit(lo)), d().lt(lit(hi))],
            &["d"],
        ),
        case("d between", vec![d().between(lit(lo), lit(hi))], &["d"]),
        // Conjuncts on two columns: ranges intersect.
        case(
            "d >= lo, e <= cut",
            vec![d().ge(lit(lo)), Expr::col("e").le(lit(e_cut))],
            &["d", "e"],
        ),
        // Many disjoint ranges on unsorted runs.
        case("d = lo", vec![d().eq(lit(lo))], &["d"]),
        case("no run kept", vec![d().gt(lit(1000))], &["d"]),
        case("every run kept", vec![d().ge(lit(-1))], &["d"]),
        // Decided conjuncts around ones evaluated per batch.
        case(
            "x < cut, d < hi, q >= 0",
            vec![
                Expr::col("x").lt(Expr::lit(x_cut)),
                d().lt(lit(hi)),
                Expr::col("q").ge(Expr::lit(0.0)),
            ],
            &["d", "q"],
        ),
        case("no filter", vec![], &[]),
        // Shapes binding cannot decide: the unpruned path, unchanged.
        case("d <> lo", vec![d().ne(lit(lo))], &[]),
        case("or", vec![d().lt(lit(lo)).or(d().ge(lit(hi)))], &[]),
        case("not", vec![d().ge(lit(lo)).not()], &[]),
        case(
            "expression comparison",
            vec![d().add(Expr::lit(1.0)).le(lit(hi))],
            &[],
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pruned_scans_match_the_decoded_table_bitwise(
        d_runs in vec((0i32..12, 1usize..9), 1..40),
        e_runs in vec((0i32..5, 1usize..25), 1..20),
        sorted in any::<bool>(),
        rows in vec(((-1.0e3..1.0e3f64), 0u8..7, 0i32..9), 0..260),
        choices in vec(0u8..4, 5..6),
        bounds in (0i32..12, 0i32..12, 0i32..5, -1.0e3..1.0e3f64),
    ) {
        force_pool();
        let n = rows.len();
        let mut d = expand(&d_runs, n);
        if sorted {
            d.sort_unstable();
        }
        // `d` leans RLE (the encoding under test); the rest take whatever
        // the case draws.
        let d_choice = [2, 2, 0, 1, 3][choices[0] as usize % 5];
        let mut encoded = Table::new("t");
        for (name, col, choice) in [
            ("d", Column::i32(d), d_choice),
            ("e", Column::i32(expand(&e_runs, n)), choices[1]),
            ("x", Column::f64(rows.iter().map(|r| r.0 + 2.5e-13).collect::<Vec<_>>()), 0),
            ("q", Column::f64(rows.iter().map(|r| r.1 as f64 * 0.25 - 0.5).collect::<Vec<_>>()), choices[3]),
            ("k", Column::i32(rows.iter().map(|r| r.2).collect::<Vec<_>>()), choices[4]),
        ] {
            encoded.add_column(name, encode(col, choice)).expect("fresh table");
        }
        let mut decoded = Table::new("t");
        for (name, _) in encoded.schema() {
            let col = encoded.column(name).expect("column").decode();
            decoded.add_column(name, col).expect("fresh table");
        }
        let is_rle = |name: &str| matches!(encoded.column(name).unwrap(), Column::Rle { .. });

        let (lo, hi) = (bounds.0.min(bounds.1), bounds.0.max(bounds.1));
        for case in cases(lo, hi, bounds.2, bounds.3) {
            // An empty window is decided on any storage: no batch visited.
            let empty = case.name == "d in [lo, hi)" && lo == hi;
            for group_by in [
                GroupKey::None,
                GroupKey::Hash { col: "k".into() },
            ] {
                let grouped = !matches!(group_by, GroupKey::None);
                let query = FusedQuery {
                    filter: case.filter.clone(),
                    sums: vec![
                        Expr::col("x"),
                        Expr::col("q"),
                        Expr::col("x").mul(Expr::col("q")),
                        Expr::col("d"),
                    ],
                    mins: vec![Expr::col("q")],
                    maxs: vec![Expr::col("x")],
                    group_by,
                };
                for backend in BACKENDS {
                    let want = run_fused(&decoded, &query, backend, &ExecOptions::serial()).unwrap();
                    if empty {
                        prop_assert_eq!(want.batches_visited, 0);
                    } else {
                        prop_assert_eq!(want.batches_pruned, 0);
                    }
                    for batch_rows in BATCH_ROWS {
                        let mut visited = Vec::new();
                        for threads in THREADS {
                            let opts = ExecOptions { threads, batch_rows, ..ExecOptions::default() };
                            let ctx = format!(
                                "{} grouped={grouped} {backend:?} t{threads} b{batch_rows}",
                                case.name
                            );
                            let got = run_fused(&encoded, &query, backend, &opts).unwrap();
                            assert_bitwise(&got, &want, &ctx);
                            prop_assert_eq!(
                                got.batches_visited + got.batches_pruned,
                                n.div_ceil(batch_rows) as u64,
                                "{}", &ctx
                            );
                            if !case.decidable.iter().any(|c| is_rle(c)) && !empty {
                                prop_assert_eq!(got.batches_pruned, 0, "{}", &ctx);
                            }
                            visited.push(got.batches_visited);
                        }
                        prop_assert!(visited.windows(2).all(|w| w[0] == w[1]), "{:?}", visited);
                    }
                }
                if case.name == "no run kept" {
                    let got = run_fused(&encoded, &query, SumBackend::Double, &ExecOptions::serial()).unwrap();
                    if is_rle("d") {
                        prop_assert_eq!(got.batches_visited, 0);
                    }
                    match &got.keys {
                        Some(keys) => prop_assert!(keys.is_empty() && got.counts.is_empty()),
                        None => prop_assert_eq!(&got.counts, &vec![0u64]),
                    }
                }
            }
        }
    }
}
