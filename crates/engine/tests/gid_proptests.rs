//! Group ids by index ≡ group ids by hash.
//!
//! A group key whose *storage* is at most 16 bits wide — a byte, a byte
//! pair, a dictionary code — indexes a direct-mapped group-id table; a
//! 32-bit key value hashes. The two must be indistinguishable: the same
//! groups in the same first-seen order, the same counts and the same
//! SUM / MIN / MAX bits. These tests build one random key stream three
//! ways — a `(U8, U8)` pair, the pair packed into one `U8` column, and
//! packed into a plain `I32` column, which forces the hash path and is the
//! reference — put every narrow leg under a random encoding (plain, `Dict`,
//! `Dict16`, RLE, a dictionary that lists every value twice), filter with
//! a random selection shape, and compare across every backend,
//! 1 / 2 / 8 threads, 1- / 7- / 4096-row batches and every SIMD dispatch
//! level. The data-dependent error of group-id assignment keeps its
//! condition: it fires for a *selected* row only.

mod support;

use proptest::collection::vec;
use proptest::prelude::*;
use rfa_core::cpu::{self, SimdLevel};
use rfa_engine::{
    lineitem_table, q1_plan, q1_sql, run_fused, sql_query, BoolExpr, Column, ExecOptions, Expr,
    FusedQuery, GroupKey, PlanError, SqlColumn, SumBackend, Table,
};
use rfa_workloads::Lineitem;
use std::sync::{Mutex, MutexGuard};
use support::{assert_bitwise, q1_reference};

fn force_pool() {
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(8)
        .build_global();
}

/// Serializes the tests that flip the process-global dispatch override.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

fn override_guard() -> MutexGuard<'static, ()> {
    OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Calls `f` under every dispatch level the host supports, scalar first.
/// The caller holds [`override_guard`].
fn each_level(mut f: impl FnMut(SimdLevel)) {
    let levels = [
        (SimdLevel::Scalar, true),
        (SimdLevel::Avx2, cpu::avx2_supported()),
        (SimdLevel::Avx512, cpu::avx512_supported()),
    ];
    for (level, _) in levels.into_iter().filter(|l| l.1) {
        cpu::set_override(Some(level));
        f(level);
    }
    cpu::set_override(None);
}

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

/// Threads 1 / 2 / 8 × batches of 1 and 7 rows, plus 4096 serially and
/// 48 in parallel: a few hundred rows hold at least 8 batches of every
/// parallel width, so each parallel shape splits for real.
fn shapes() -> Vec<ExecOptions> {
    let mut out = Vec::new();
    for (threads, wide) in [(1, 4096), (2, 48), (8, 48)] {
        for batch_rows in [1, 7, wide] {
            out.push(ExecOptions {
                threads,
                batch_rows,
                ..ExecOptions::default()
            });
        }
    }
    out
}

/// The byte values of the two key legs: the pair packs as `(A << 8) | B`.
const A: [u8; 6] = [0, 1, 7, 128, 200, 255];
const B: [u8; 5] = [0, 3, 64, 254, 255];

/// `col` under encoding `choice`: 0 plain, 1 `Dict`, 2 `Dict16` (the
/// `u8` codes widened), 3 RLE, 4 a `Dict` whose dictionary holds every
/// value twice, the rows alternating between the two copies.
fn encoded(col: Column, choice: u8) -> Column {
    let dict = |col: &Column| match col.dict_encode() {
        Ok(Column::Dict { codes, dict }) => Some((codes, *dict)),
        _ => None,
    };
    match choice {
        1 => col.dict_encode().unwrap_or(col),
        2 => match dict(&col) {
            Some((codes, dict)) => {
                let wide: Vec<u16> = codes.iter().map(|&c| c as u16).collect();
                Column::dict16(wide, dict).unwrap()
            }
            None => col,
        },
        3 => col.rle_encode().unwrap_or(col),
        4 => match dict(&col) {
            Some((codes, dict)) => {
                let entries = match &dict {
                    Column::U8(v) => v.len(),
                    Column::I32(v) => v.len(),
                    other => panic!("unexpected dictionary {}", other.type_name()),
                };
                let twice = match &dict {
                    Column::U8(v) => Column::u8([&v[..], &v[..]].concat()),
                    Column::I32(v) => Column::i32([&v[..], &v[..]].concat()),
                    _ => unreachable!(),
                };
                let codes: Vec<u8> = codes
                    .iter()
                    .enumerate()
                    .map(|(row, &c)| c + (row % 2 * entries) as u8)
                    .collect();
                Column::dict(codes, twice).unwrap()
            }
            None => col,
        },
        _ => col,
    }
}

/// One row of the key stream: indices into [`A`] and [`B`], the value,
/// and the bit the sparse filter keeps.
type Row = (usize, usize, f64, bool);

/// The table of one case: the pair legs `a` / `b`, the packed byte `ab`
/// (`(ai << 4) | bi`), the packed `I32` key plain (`k`) and encoded
/// (`kd`), a row number and a mask for the filters, and the value.
fn key_table(rows: &[Row], enc: [u8; 3]) -> Table {
    let packed = |&(ai, bi, _, _): &Row| ((A[ai] as i32) << 8) | B[bi] as i32;
    let mut t = Table::new("t");
    let mut add = |name: &str, col: Column| t.add_column(name, col).unwrap();
    add(
        "a",
        encoded(
            Column::u8(rows.iter().map(|r| A[r.0]).collect::<Vec<_>>()),
            enc[0],
        ),
    );
    add(
        "b",
        encoded(
            Column::u8(rows.iter().map(|r| B[r.1]).collect::<Vec<_>>()),
            enc[1],
        ),
    );
    add(
        "ab",
        encoded(
            Column::u8(
                rows.iter()
                    .map(|r| ((r.0 << 4) | r.1) as u8)
                    .collect::<Vec<_>>(),
            ),
            enc[2],
        ),
    );
    add(
        "k",
        Column::i32(rows.iter().map(packed).collect::<Vec<_>>()),
    );
    add(
        "kd",
        encoded(
            Column::i32(rows.iter().map(packed).collect::<Vec<_>>()),
            enc[2],
        ),
    );
    add(
        "row",
        Column::i32((0..rows.len() as i32).collect::<Vec<_>>()),
    );
    add(
        "m",
        Column::i32(rows.iter().map(|r| r.3 as i32).collect::<Vec<_>>()),
    );
    add(
        "v",
        Column::f64(rows.iter().map(|r| r.2).collect::<Vec<_>>()),
    );
    t
}

/// Filter shapes: none, a dense prefix, a sparse mask, nothing at all.
fn filter(kind: u8, cut: usize) -> Vec<BoolExpr> {
    match kind {
        0 => vec![],
        1 => vec![Expr::col("row").lt(Expr::lit(cut as f64))],
        2 => vec![Expr::col("m").eq(Expr::lit(1.0))],
        _ => vec![Expr::col("row").lt(Expr::lit(0.0))],
    }
}

/// A grouped run reduced to what must not depend on how group ids were
/// found: per group in first-seen order, the `(A, B)` indices of its key,
/// its count and its SUM / SUM / MIN / MAX bits.
type Groups = Vec<((usize, usize), u64, [u64; 4])>;

/// Maps a reported group key back to its `(A, B)` indices.
type KeyIndices = fn(u32) -> (usize, usize);

fn run(
    table: &Table,
    filter: &[BoolExpr],
    group_by: GroupKey,
    key_indices: KeyIndices,
    backend: SumBackend,
    opts: &ExecOptions,
) -> Groups {
    let query = FusedQuery {
        filter: filter.to_vec(),
        sums: vec![
            Expr::col("v"),
            Expr::col("v").mul(Expr::lit(0.5)).add(Expr::lit(1.0)),
        ],
        mins: vec![Expr::col("v")],
        maxs: vec![Expr::col("v")],
        group_by,
    };
    let r = run_fused(table, &query, backend, opts).unwrap();
    let keys = r.keys.expect("first-seen grouping returns its keys");
    keys.iter()
        .enumerate()
        .map(|(g, &key)| {
            (
                key_indices(key),
                r.counts[g],
                [
                    r.sums[0][g].to_bits(),
                    r.sums[1][g].to_bits(),
                    r.mins[0][g].to_bits(),
                    r.maxs[0][g].to_bits(),
                ],
            )
        })
        .collect()
}

fn pair_indices(key: u32) -> (usize, usize) {
    let at = |set: &[u8], v: u32| set.iter().position(|&x| x as u32 == v).unwrap();
    (at(&A, key >> 8), at(&B, key & 0xFF))
}

fn nibble_indices(key: u32) -> (usize, usize) {
    ((key >> 4) as usize, (key & 0xF) as usize)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Pair, packed byte and encoded `I32` keys — all direct-mapped —
    /// against the plain `I32` key, which hashes.
    #[test]
    fn direct_mapped_gids_match_hashed_gids_bitwise(
        runs in vec(((0..A.len(), 0..B.len()), 1usize..9), 0..60),
        noise in vec((-1.0e4..1.0e4f64, any::<bool>()), 480..481),
        enc in (0u8..5, 0u8..5, 0u8..5),
        filter_kind in 0u8..4,
        cut in 0usize..500,
    ) {
        force_pool();
        let _guard = override_guard();
        // Keys arrive in short runs, so the RLE legs have runs to walk.
        let rows: Vec<Row> = runs
            .iter()
            .flat_map(|&((ai, bi), len)| std::iter::repeat_n((ai, bi), len))
            .zip(&noise)
            .map(|((ai, bi), &(v, keep))| (ai, bi, v, keep))
            .collect();
        let table = key_table(&rows, [enc.0, enc.1, enc.2]);
        let filter = filter(filter_kind, cut);
        let by_col = |col: &str| GroupKey::Hash { col: col.into() };
        for backend in BACKENDS {
            cpu::set_override(Some(SimdLevel::Scalar));
            let want = run(
                &table,
                &filter,
                by_col("k"),
                pair_indices,
                backend,
                &ExecOptions::serial(),
            );
            cpu::set_override(None);
            let selected: u64 = want.iter().map(|g| g.1).sum();
            prop_assert!(selected as usize <= rows.len());
            each_level(|level| {
                for opts in shapes() {
                    let forms: [(&str, GroupKey, KeyIndices); 4] = [
                        (
                            "pair",
                            GroupKey::HashPair {
                                a: "a".into(),
                                b: "b".into(),
                            },
                            pair_indices,
                        ),
                        ("byte", by_col("ab"), nibble_indices),
                        ("i32 plain", by_col("k"), pair_indices),
                        ("i32 encoded", by_col("kd"), pair_indices),
                    ];
                    for (form, group_by, indices) in forms {
                        let got = run(&table, &filter, group_by, indices, backend, &opts);
                        assert_eq!(
                            got, want,
                            "{form} {backend:?} {level:?} threads {} batch {} enc {enc:?} filter {filter_kind}",
                            opts.threads, opts.batch_rows
                        );
                    }
                }
            });
        }
    }

    /// `q1_plan()` and `q1_sql()` group by the flag / status pair and the
    /// per-row reference by its dense `encode_group` ids: same rows, same
    /// order, same bits, whatever the encoding of the two key columns.
    #[test]
    fn q1_dense_plan_matches_q1_sql_pair_bitwise(
        rows in vec(
            (0.0..60.0f64, -1.0e5..1.0e5f64, 0.0..0.12f64, 0.0..0.09f64, 600i32..2600, 0usize..3, 0usize..2),
            0..300,
        ),
        enc in (0u8..5, 0u8..5),
    ) {
        force_pool();
        let _guard = override_guard();
        let n = rows.len();
        let t = Lineitem::from_columns(
            rows.iter().map(|r| r.0).collect(),
            rows.iter().map(|r| r.1).collect(),
            rows.iter().map(|r| r.2).collect(),
            rows.iter().map(|r| r.3).collect(),
            rows.iter().map(|r| r.4).collect(),
            rows.iter().map(|r| [b'A', b'N', b'R'][r.5]).collect(),
            rows.iter().map(|r| [b'F', b'O'][r.6]).collect(),
            vec![1; n],
        );
        let plain = lineitem_table(&t);
        let mut table = Table::new("lineitem");
        for name in [
            "l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_shipdate",
            "l_returnflag", "l_linestatus", "l_suppkey",
        ] {
            let col = plain.column(name).unwrap().clone();
            let col = match name {
                "l_returnflag" => encoded(col, enc.0),
                "l_linestatus" => encoded(col, enc.1),
                _ => col,
            };
            table.add_column(name, col).unwrap();
        }
        let sql = sql_query(&q1_sql(), &table).unwrap();
        let plan = q1_plan();
        let f64s = |c: &SqlColumn| match c {
            SqlColumn::F64(v) => v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            other => panic!("expected an f64 column, got {other:?}"),
        };
        let i64s = |c: &SqlColumn| match c {
            SqlColumn::I64(v) => v.clone(),
            other => panic!("expected a key column, got {other:?}"),
        };
        for backend in BACKENDS {
            let reference = q1_reference(&t, backend).unwrap();
            each_level(|level| {
                for opts in shapes() {
                    let ctx = format!("{backend:?} {level:?} {opts:?} enc {enc:?}");
                    let s = sql.execute(&table, backend, &opts).unwrap();
                    let p = plan.execute(&table, backend, &opts).unwrap();
                    assert_eq!(s.rows, p.keys.len(), "{ctx}");
                    assert_bitwise(&reference, &p, &ctx);
                    // All three orders ascend by (returnflag, linestatus);
                    // the SQL result leads with the two key columns.
                    let (flags, statuses) = (i64s(&s.columns[0]), i64s(&s.columns[1]));
                    for (i, &key) in p.keys.iter().enumerate() {
                        assert_eq!((flags[i], statuses[i]), (key >> 8, key & 0xff), "{ctx}");
                    }
                    for c in 0..7 {
                        let want: Vec<u64> =
                            p.columns[c].f64s().iter().map(|x| x.to_bits()).collect();
                        assert_eq!(f64s(&s.columns[c + 2]), want, "{ctx} column {c}");
                    }
                    match &s.columns[9] {
                        SqlColumn::U64(v) => assert_eq!(&v[..], p.columns[7].u64s(), "{ctx}"),
                        other => panic!("expected the count column, got {other:?}"),
                    }
                }
            });
        }
    }
}

fn thread_shapes() -> [ExecOptions; 2] {
    [1, 8].map(|threads| ExecOptions {
        threads,
        batch_rows: 16,
        ..ExecOptions::default()
    })
}

/// `ReservedKey` for a dictionary-encoded `I32` key whose dictionary
/// holds −1 is raised iff a selected row carries that code.
#[test]
fn reserved_key_in_a_dictionary_needs_a_selected_row() {
    force_pool();
    let n = 400usize;
    // Dictionary [5, -1, 9, -1]: −1 twice; only row 300 carries it (code 3).
    let codes: Vec<u8> = (0..n)
        .map(|i| if i == 300 { 3 } else { (i % 2 * 2) as u8 })
        .collect();
    let with_offender = Column::dict(codes.clone(), Column::i32(vec![5, -1, 9, -1])).unwrap();
    let unused_entry: Vec<u8> = codes.iter().map(|&c| if c == 3 { 0 } else { c }).collect();
    let without = Column::dict(unused_entry, Column::i32(vec![5, -1, 9, -1])).unwrap();
    let table = |key: Column| {
        let mut t = Table::new("t");
        t.add_column("k", key).unwrap();
        t.add_column("row", Column::i32((0..n as i32).collect::<Vec<_>>()))
            .unwrap();
        t.add_column("v", Column::f64(vec![0.25; n])).unwrap();
        t
    };
    let query = |filter| FusedQuery {
        filter,
        sums: vec![Expr::col("v")],
        mins: vec![],
        maxs: vec![],
        group_by: GroupKey::Hash { col: "k".into() },
    };
    let reserved = PlanError::ReservedKey { col: "k".into() };
    let (offending, clean) = (table(with_offender), table(without));
    for opts in thread_shapes() {
        for backend in [SumBackend::ReproUnbuffered, SumBackend::Double] {
            let err = run_fused(&offending, &query(vec![]), backend, &opts).unwrap_err();
            assert_eq!(err, reserved);
            // The dictionary may hold −1 as long as no selected row does.
            let ok = run_fused(&clean, &query(vec![]), backend, &opts).unwrap();
            assert_eq!(ok.keys, Some(vec![5, 9]));
            assert_eq!(ok.counts, vec![200, 200]);
            let skip = vec![Expr::col("row").lt(Expr::lit(300.0))];
            let ok = run_fused(&offending, &query(skip), backend, &opts).unwrap();
            assert_eq!(ok.keys, Some(vec![5, 9]));
            assert_eq!(ok.counts.iter().sum::<u64>(), 300);
        }
    }
}
