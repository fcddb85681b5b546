//! Property tests of the fused scan pipeline: for arbitrary lineitem
//! contents, every backend, and every batch/thread shape, TPC-H
//! Q1 and Q6 must be **bit-identical** to the naive, materializing
//! per-row reference in `support` — the acceptance contract of the
//! zero-copy scan.
//!
//! Why this holds per backend (and is therefore assertable for *all* of
//! them, not just the reproducible ones):
//!
//! * repro backends — per-slot deposits commute and state merging is
//!   exact, so any batch/thread schedule finalizes identically;
//! * `SortedDouble` — each group keeps its value multiset, which merges
//!   exactly; the reference sorts each column's `(group, bits)` pairs
//!   itself, so the state is checked against its definition;
//! * plain `Double` — the fused executor deliberately scans it serially
//!   at any requested thread count (exact merging is impossible), and the
//!   serial fused scan performs the identical addition sequence.

mod support;

use proptest::collection::vec;
use proptest::prelude::*;
use rfa_engine::{
    lineitem_table, q1_plan, q6_plan, run_fused, sum_grouped, Column, ExecOptions, Expr,
    FusedQuery, GroupKey, GroupedSums, OverflowError, PlanError, PlanResult, SumBackend, Table,
    DOUBLE_MIN_SEG,
};
use rfa_workloads::Lineitem;
use support::{assert_bitwise, q1_reference, q6_reference};

/// Fixes this test binary's thread budget at 8 so the parallel paths
/// genuinely fork scoped threads even on small CI boxes (a pinned
/// `RFA_THREADS` still takes precedence inside the builder).
fn force_pool() {
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(8)
        .build_global();
}

/// All six SUM backends (Table IV's columns plus the §V-D RSUM forms).
const BACKENDS: [SumBackend; 6] = [
    SumBackend::Double,
    SumBackend::ReproUnbuffered,
    SumBackend::ReproBuffered { buffer_size: 64 },
    SumBackend::SortedDouble,
    SumBackend::Rsum { levels: 2 },
    SumBackend::RsumBuffered {
        levels: 3,
        buffer_size: 48,
    },
];

/// Arbitrary lineitem rows: quantities, prices, discounts and taxes over
/// (and beyond) the dbgen ranges, shipdates straddling both the Q6 window
/// and the Q1 cutoff, and all six flag/status combinations.
fn lineitem_strategy(max_rows: usize) -> impl Strategy<Value = Lineitem> {
    let row = (
        (0.0..60.0f64),     // quantity (crosses the Q6 < 24 predicate)
        (-1.0e5..1.0e5f64), // extendedprice (signs exercise cancellation)
        (0.0..0.12f64),     // discount (crosses the 0.05..=0.07 window)
        (0.0..0.09f64),     // tax
        (600i32..2600),     // shipdate: Q6 window is [730, 1095), Q1 cutoff 2437
        (0u8..3),           // returnflag index -> 'A' | 'N' | 'R'
        (0u8..2),           // linestatus index -> 'F' | 'O'
        (1i32..40),         // suppkey (small domain: every key repeats)
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

/// Small batches force many batches per input even at proptest input
/// sizes, so the 2- and 8-thread runs exercise real splits and merges.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn q1_fused_is_bit_identical_to_materializing(t in lineitem_strategy(700)) {
        force_pool();
        let table = lineitem_table(&t);
        for backend in BACKENDS {
            let reference = q1_reference(&t, backend).unwrap();
            for opts in shapes() {
                let fused = q1_plan().execute(&table, backend, &opts).unwrap();
                assert_bitwise(&reference, &fused, &format!("{backend:?} {opts:?}"));
            }
        }
    }

    #[test]
    fn q6_fused_is_bit_identical_to_materializing(t in lineitem_strategy(900)) {
        force_pool();
        let table = lineitem_table(&t);
        for backend in BACKENDS {
            let reference = q6_reference(&t, backend).unwrap();
            for opts in shapes() {
                let fused = q6_plan().execute(&table, backend, &opts).unwrap();
                assert_bitwise(&reference, &fused, &format!("{backend:?} {opts:?}"));
            }
        }
    }

    #[test]
    fn q1_fused_is_physical_order_invariant_for_repro(
        t in lineitem_strategy(400),
        seed in any::<u64>(),
    ) {
        force_pool();
        // Shuffle all columns with one permutation; the fused repro result
        // must not move a bit (the paper's data-independence claim, now on
        // the fused path).
        let n = t.len();
        let mut idx: Vec<usize> = (0..n).collect();
        let mut s = seed | 1;
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            idx.swap(i, (s >> 33) as usize % (i + 1));
        }
        let shuffled = Lineitem::from_columns(
            idx.iter().map(|&i| t.quantity[i]).collect(),
            idx.iter().map(|&i| t.extendedprice[i]).collect(),
            idx.iter().map(|&i| t.discount[i]).collect(),
            idx.iter().map(|&i| t.tax[i]).collect(),
            idx.iter().map(|&i| t.shipdate[i]).collect(),
            idx.iter().map(|&i| t.returnflag[i]).collect(),
            idx.iter().map(|&i| t.linestatus[i]).collect(),
            idx.iter().map(|&i| t.suppkey[i]).collect(),
        );
        let opts = ExecOptions {
            threads: 2,
            batch_rows: 128,
            ..ExecOptions::default()
        };
        for backend in [
            SumBackend::ReproUnbuffered,
            SumBackend::RsumBuffered { levels: 2, buffer_size: 32 },
            SumBackend::SortedDouble,
        ] {
            let run = |t: &Lineitem| q1_plan().execute(&lineitem_table(t), backend, &opts).unwrap();
            assert_bitwise(&run(&t), &run(&shuffled), &format!("{backend:?}"));
        }
    }
}

/// A Q1 input whose batches partition into segments longer than one
/// block-kernel chunk (`8 · 1 024` values): four (returnflag, linestatus)
/// groups of very unequal size, each at a magnitude of its own, with every
/// row's values spread over 40 binades. A segment deposited with another
/// segment's scan pair, or a level count taken from the wrong end of it,
/// moves the result.
fn long_segment_lineitem(n: usize, seed: u64) -> Lineitem {
    let mut s = seed | 1;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s >> 11
    };
    // (returnflag, linestatus, value scale), drawn at weights 8 : 4 : 2 : 1.
    let groups = [
        (b'N', b'O', 1e-9),
        (b'A', b'F', 1e6),
        (b'R', b'F', 1e-3),
        (b'N', b'F', 1e9),
    ];
    let mut cols = (
        vec![],
        vec![],
        vec![],
        vec![],
        vec![],
        vec![],
        vec![],
        vec![],
    );
    for _ in 0..n {
        let r = next();
        let g = match r % 15 {
            0..=7 => 0,
            8..=11 => 1,
            12..=13 => 2,
            _ => 3,
        };
        let (rf, ls, scale) = groups[g];
        let spread = scale * 2f64.powi(-(((r >> 8) % 40) as i32));
        let unit = (next() as f64) / (1u64 << 53) as f64;
        cols.0.push((1.0 + 49.0 * unit) * spread);
        cols.1.push((unit - 0.25) * 1e5 * spread);
        cols.2.push(0.1 * unit);
        cols.3.push(0.08 * unit);
        // One row in 64 falls past the Q1 cutoff: the batches keep a
        // selection, as Q1's do.
        cols.4.push(if r % 64 == 0 {
            2500
        } else {
            700 + (r % 1700) as i32
        });
        cols.5.push(rf);
        cols.6.push(ls);
        cols.7.push(1 + (r % 39) as i32);
    }
    let (q, p, d, t, sd, rf, ls, sk) = cols;
    Lineitem::from_columns(q, p, d, t, sd, rf, ls, sk)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Q1 at `batch_rows = 2^15` over at most four groups: every batch is
    /// partitioned, its segments span several block-kernel chunks, and
    /// each is deposited with the pair the gather scanned. Every repro
    /// backend matches the per-row reference bit for bit at 1, 2 and 8
    /// threads.
    #[test]
    fn q1_long_segments_match_the_per_row_reference(seed in any::<u64>()) {
        force_pool();
        let t = long_segment_lineitem(80_000, seed);
        let table = lineitem_table(&t);
        let repro = BACKENDS.into_iter().filter(|b| !matches!(b, SumBackend::Double | SumBackend::SortedDouble));
        for backend in repro {
            let reference = q1_reference(&t, backend).unwrap();
            for threads in [1, 2, 8] {
                let opts = ExecOptions {
                    threads,
                    batch_rows: 1 << 15,
                    ..ExecOptions::default()
                };
                let fused = q1_plan().execute(&table, backend, &opts).unwrap();
                assert_bitwise(&reference, &fused, &format!("{backend:?} t{threads}"));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The sort-first baseline: its definition, its pinned bits, its overflow.
// ---------------------------------------------------------------------------

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `SortedDouble` is, per group, the values ascending by bit pattern added
/// from `+0.0`: +0.0, 1, 2^53, then the negatives by magnitude (-0.0, -1).
/// 0 + 1 + 2^53 rounds the 1 away, so the order shows. An empty group and
/// a group of only -0.0 sum to +0.0.
#[test]
fn sorted_double_sums_by_bit_pattern_from_positive_zero() {
    let big = 2f64.powi(53);
    let values = [-1.0, big, -0.0, 1.0, 0.0, -0.0];
    let gids = [0, 0, 0, 0, 0, 2];
    let want = [0.0 + 1.0 + big + -0.0 + -1.0, 0.0, 0.0];
    for chunk in [1, 2, 6] {
        let mut state = GroupedSums::new(SumBackend::SortedDouble, 3);
        for (g, v) in gids.chunks(chunk).zip(values.chunks(chunk)) {
            state.update(g, v).unwrap();
        }
        assert_eq!(bits(&state.finalize()), bits(&want), "chunk {chunk}");
    }
}

/// The fused Q6 at 1 and 2 threads and the reference, all on the pinned
/// bits of one fixed input.
#[test]
fn q6_sorted_double_bits_are_pinned() {
    force_pool();
    let t = Lineitem::generate(100_000, 11);
    let reference = q6_reference(&t, SumBackend::SortedDouble).unwrap();
    assert_eq!(
        reference.columns[0].f64s()[0].to_bits(),
        0x4135_6df1_8d0e_5600
    );
    for threads in [1, 2] {
        let opts = ExecOptions {
            threads,
            ..ExecOptions::default()
        };
        let revenue = q6_plan().execute(&lineitem_table(&t), SumBackend::SortedDouble, &opts);
        assert_bitwise(&revenue.unwrap(), &reference, &format!("t{threads}"));
    }
}

/// As for Q6, per group: `[sum_qty, sum_base_price, sum_disc_price,
/// sum_charge, avg_disc]`.
#[test]
fn q1_sorted_double_bits_are_pinned() {
    force_pool();
    let want: [[u64; 5]; 4] = [
        [
            0x4126_f6d4_0000_0000,
            0x41c6_69a7_679c_28e3,
            0x41c5_4ce1_fdef_fcd6,
            0x41c6_2669_c2a1_f051,
            0x3fa9_7241_ea61_27a8,
        ],
        [
            0x40d3_5ac0_0000_0000,
            0x4172_fed6_b30a_3d71,
            0x4172_137d_ec60_aa63,
            0x4172_c87d_1d02_be89,
            0x3fa8_9842_7ac5_d49e,
        ],
        [
            0x4136_e114_0000_0000,
            0x41d6_57f3_0a01_478a,
            0x41d5_3afe_b4b5_b093,
            0x41d6_1475_8cc9_aec1,
            0x3fa9_8b3c_f70d_fea5,
        ],
        [
            0x4126_e7c0_0000_0000,
            0x41c6_5e16_03c5_1ea1,
            0x41c5_41dd_4f5e_24d7,
            0x41c6_1bb5_d43a_caa3,
            0x3fa9_75d6_5aa1_1251,
        ],
    ];
    let pinned = |r: &PlanResult| -> Vec<(char, char, Vec<u64>)> {
        let row = |(g, &key): (usize, &i64)| {
            let sums = [0, 1, 2, 3, 6].map(|c| r.columns[c].f64s()[g]);
            ((key >> 8) as u8 as char, key as u8 as char, bits(&sums))
        };
        r.keys.iter().enumerate().map(row).collect()
    };
    let groups = [('A', 'F'), ('N', 'F'), ('N', 'O'), ('R', 'F')];
    let want: Vec<_> = groups
        .iter()
        .zip(want)
        .map(|(&(f, s), w)| (f, s, w.to_vec()))
        .collect();
    let t = Lineitem::generate(120_000, 7);
    assert_eq!(
        pinned(&q1_reference(&t, SumBackend::SortedDouble).unwrap()),
        want
    );
    for threads in [1, 2] {
        let opts = ExecOptions {
            threads,
            ..ExecOptions::default()
        };
        let rows = q1_plan().execute(&lineitem_table(&t), SumBackend::SortedDouble, &opts);
        assert_eq!(pinned(&rows.unwrap()), want, "t{threads}");
    }
}

/// Overflow parity of the sort-first baseline: a `f64::MAX` pair, a `+∞`
/// or a NaN in the middle of a group makes `SortedDouble` return
/// `Overflow` — exactly when a check after every addition of its sorted
/// sum would, since a non-finite sum stays non-finite — at 1 / 2 / 8
/// threads, over a plain and an RLE value column, grouped and not, and
/// through `sum_grouped`.
#[test]
fn sorted_double_overflows_like_a_check_after_every_addition() {
    force_pool();
    let n = 1200;
    let g: Vec<i32> = (0..n).map(|i| i / 50 % 2).collect();
    let gids: Vec<u32> = g.iter().map(|&k| k as u32).collect();
    for poison in [&[f64::MAX, f64::MAX][..], &[f64::INFINITY], &[f64::NAN]] {
        // Runs of 20 equal values; rows 610.. sit mid-way through group 0.
        let mut v: Vec<f64> = (0..n).map(|i| (i / 20 % 5) as f64 + 0.5).collect();
        v[610..610 + poison.len()].copy_from_slice(poison);
        let mut t = Table::new("t");
        t.add_column("g", Column::i32(g.clone())).unwrap();
        t.add_column("v", Column::f64(v.clone())).unwrap();
        t.add_column("vr", Column::f64(v.clone()).rle_encode().unwrap())
            .unwrap();
        let keyed = GroupKey::Hash { col: "g".into() };
        for col in ["v", "vr"] {
            for group_by in [GroupKey::None, keyed.clone()] {
                let q = FusedQuery {
                    filter: vec![],
                    sums: vec![Expr::col(col)],
                    mins: vec![],
                    maxs: vec![],
                    group_by,
                };
                for threads in [1, 2, 8] {
                    let opts = ExecOptions {
                        threads,
                        batch_rows: 16,
                        ..ExecOptions::default()
                    };
                    let run = run_fused(&t, &q, SumBackend::SortedDouble, &opts);
                    assert_eq!(
                        run.map(|r| r.counts).unwrap_err(),
                        PlanError::Overflow(OverflowError),
                        "{poison:?} {col} {:?} t{threads}",
                        q.group_by
                    );
                }
            }
        }
        for backend in [SumBackend::SortedDouble, SumBackend::Double] {
            let sums = sum_grouped(backend, &gids, &v, 2);
            assert_eq!(sums, Err(OverflowError), "{poison:?} {backend:?}");
        }
    }
}

/// Overflow parity of `Double`'s block deposits: a partitioned batch adds
/// each group's segment in a register and an ungrouped batch its block,
/// checking every sum once. A `f64::MAX` pair, a `+∞` or a
/// NaN mid-way through one group's segment returns `Overflow`, exactly as
/// a check after every addition would, while `MAX` then `−MAX` — a sum
/// that stays finite — returns the per-row bits. Covers plain and RLE
/// value columns, plain and RLE group keys, ungrouped queries, threads
/// 1 / 2 / 8, batches that partition, and one batch shape with too few
/// rows per group to partition, which stays per row.
#[test]
fn double_overflows_like_a_check_after_every_addition() {
    force_pool();
    // Two groups alternating every 8 rows: a 4096-row batch holds 2 048
    // rows of each, and row 2 * 4096 + 1 003 lies mid-way through group 1's
    // segment and mid-way through an 8-row run.
    let n = 3 * 4096;
    let g: Vec<i32> = (0..n).map(|i| i / 8 % 2).collect();
    let keys = GroupKey::Hash { col: "g".into() };
    let run_keys = GroupKey::Hash { col: "gr".into() };
    let partitions = |batch_rows: usize| 2 * DOUBLE_MIN_SEG <= batch_rows;
    assert!(partitions(4096) && !partitions(1024));
    let cases = [
        (&[f64::MAX, f64::MAX][..], true),
        (&[f64::INFINITY], true),
        (&[f64::NAN], true),
        (&[f64::MAX, -f64::MAX], false),
    ];
    for (poison, overflows) in cases {
        // Runs of 4 equal values, so the RLE column has runs to keep.
        let mut v: Vec<f64> = (0..n).map(|i| (i / 4 % 5) as f64 + 0.5).collect();
        let at = 2 * 4096 + 1003;
        v[at..at + poison.len()].copy_from_slice(poison);
        assert!(g[at..at + poison.len()].iter().all(|&k| k == 1));
        let mut t = Table::new("t");
        t.add_column("g", Column::i32(g.clone())).unwrap();
        t.add_column("gr", Column::i32(g.clone()).rle_encode().unwrap())
            .unwrap();
        t.add_column("v", Column::f64(v.clone())).unwrap();
        t.add_column("vr", Column::f64(v.clone()).rle_encode().unwrap())
            .unwrap();
        // The per-row fold with a check after every addition.
        let per_row = |group: Option<i32>| {
            let rows = (0..n).filter(|&i| group.is_none_or(|k| g[i as usize] == k));
            rows.map(|i| v[i as usize])
                .try_fold(0.0, |sum: f64, x| Some(sum + x).filter(|s| s.is_finite()))
        };
        assert_eq!(per_row(None).is_none(), overflows, "{poison:?}");
        for col in ["v", "vr"] {
            for group_by in [GroupKey::None, keys.clone(), run_keys.clone()] {
                let q = FusedQuery {
                    filter: vec![],
                    sums: vec![Expr::col(col)],
                    mins: vec![],
                    maxs: vec![],
                    group_by,
                };
                let want: Option<Vec<u64>> = match &q.group_by {
                    GroupKey::None => per_row(None).map(|s| vec![s.to_bits()]),
                    _ => [0, 1]
                        .map(|k| per_row(Some(k)))
                        .into_iter()
                        .collect::<Option<_>>()
                        .map(|sums: Vec<f64>| bits(&sums)),
                };
                for (threads, batch_rows) in [(1, 4096), (2, 4096), (8, 4096), (1, 1024)] {
                    let opts = ExecOptions {
                        threads,
                        batch_rows,
                        ..ExecOptions::default()
                    };
                    let run = run_fused(&t, &q, SumBackend::Double, &opts);
                    let what =
                        format!("{poison:?} {col} {:?} t{threads} b{batch_rows}", q.group_by);
                    match &want {
                        Some(want) => assert_eq!(&bits(&run.unwrap().sums[0]), want, "{what}"),
                        None => assert_eq!(
                            run.map(|r| r.counts).unwrap_err(),
                            PlanError::Overflow(OverflowError),
                            "{what}"
                        ),
                    }
                }
            }
        }
    }
}
