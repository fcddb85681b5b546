//! Table II — maximum absolute error of conventional and reproducible
//! summation in double precision.
//!
//! Paper reports the *a-priori error bounds* (Eq. 5/6) for U[1,2) and
//! Exp(1) at n = 10^3 and 10^6: conventional ≈ 1.7e-10 / 1.1e-10 /
//! 1.7e-4 / 1.1e-4; RSUM L=1 ≈ 1e3…1.1e7 (uselessly loose), L=2
//! comparable to conventional, L=3 far tighter. We print those bounds
//! plus the *measured* errors against the exact Kulisch oracle —
//! demonstrating the paper's remark that the reproducible bounds are up
//! to 2^(W-1) more pessimistic than observed errors.

use rfa_bench::{sci, BenchConfig, ResultTable};
use rfa_core::analysis::{conventional_bound, reproducible_bound, reproducible_bound_anchored};
use rfa_core::reproducible_sum;
use rfa_exact::{abs_error_f64, exact_sum_f64};
use rfa_workloads::{values_only, ValueDist};

struct Config {
    n: usize,
    dist: ValueDist,
    label: &'static str,
}

/// Half an ulp of `x`: the error of a correctly rounded result.
fn half_ulp(x: f64) -> f64 {
    (f64::from_bits(x.abs().to_bits() + 1) - x.abs()) / 2.0
}

fn main() {
    let _ = BenchConfig::from_env(); // Table II sizes are fixed by the paper
    let configs = [
        Config {
            n: 1_000,
            dist: ValueDist::Uniform12,
            label: "n=10^3 U[1,2)",
        },
        Config {
            n: 1_000,
            dist: ValueDist::Exp1,
            label: "n=10^3 Exp(1)",
        },
        Config {
            n: 1_000_000,
            dist: ValueDist::Uniform12,
            label: "n=10^6 U[1,2)",
        },
        Config {
            n: 1_000_000,
            dist: ValueDist::Exp1,
            label: "n=10^6 Exp(1)",
        },
    ];

    let mut bounds = ResultTable::new(
        "Table II (bounds): max abs error bounds, double precision",
        &[
            "algorithm",
            configs[0].label,
            configs[1].label,
            configs[2].label,
            configs[3].label,
        ],
    );
    let mut measured = ResultTable::new(
        "Table II (measured): actual |error| vs exact oracle",
        &[
            "algorithm",
            configs[0].label,
            configs[1].label,
            configs[2].label,
            configs[3].label,
        ],
    );

    // Precompute per-config data and statistics.
    let data: Vec<Vec<f64>> = configs
        .iter()
        .enumerate()
        .map(|(i, c)| values_only(c.n, c.dist, 0xB0B5 + i as u64))
        .collect();
    let sum_abs: Vec<f64> = data
        .iter()
        .map(|d| d.iter().map(|v| v.abs()).sum())
        .collect();
    // The paper bounds Exp(1) by the 22 quantile argument; we use the
    // actual max, which is what the bound formula takes.
    let max_abs: Vec<f64> = data
        .iter()
        .map(|d| d.iter().fold(0.0f64, |m, &v| m.max(v.abs())))
        .collect();

    // Bounds rows.
    let mut conv_row = vec!["Conventional".to_string()];
    for (i, c) in configs.iter().enumerate() {
        conv_row.push(sci(conventional_bound::<f64>(c.n, sum_abs[i])));
    }
    bounds.row(conv_row);
    for l in 1..=3usize {
        let mut row = vec![format!("RSUM (L={l})")];
        for (i, c) in configs.iter().enumerate() {
            row.push(sci(reproducible_bound::<f64>(c.n, l, max_abs[i])));
        }
        bounds.row(row);
    }

    // Measured rows: per config, the conventional, RSUM L=1..3 and
    // exact-oracle sums, in row order.
    let sums: Vec<[f64; 5]> = data
        .iter()
        .map(|d| {
            [
                d.iter().sum(),
                reproducible_sum::<f64, 1>(d),
                reproducible_sum::<f64, 2>(d),
                reproducible_sum::<f64, 3>(d),
                exact_sum_f64(d),
            ]
        })
        .collect();
    let labels = [
        "Conventional",
        "RSUM (L=1)",
        "RSUM (L=2)",
        "RSUM (L=3)",
        "Exact (oracle)",
    ];
    for (k, label) in labels.into_iter().enumerate() {
        let mut row = vec![label.to_string()];
        for (d, s) in data.iter().zip(&sums) {
            row.push(sci(abs_error_f64(d, s[k])));
        }
        measured.row(row);
    }

    bounds.print();
    bounds.write_csv("table2_bounds");
    measured.print();
    measured.write_csv("table2_measured");
    println!(
        "  paper shape: conventional bound ~1e-10 (n=10^3) / ~1e-4 (n=10^6);\n  \
         RSUM L=1 bound uselessly large, L=2 comparable to conventional, L=3 ~1e-21/1e-18;\n  \
         measured errors far below bounds (the paper notes up to 2^(W-1) slack)."
    );

    // The tables, asserted: Eq. 5 within 10 % of the paper's figures, and
    // every measured error within its bound. An RSUM result is rounded
    // once more on the way out, so its bound gains half an ulp; at L = 3
    // that final rounding is all of the measured error.
    let paper_conventional = [1.7e-10, 1.1e-10, 1.7e-4, 1.1e-4];
    for (i, (c, d)) in configs.iter().zip(&data).enumerate() {
        let conv = conventional_bound::<f64>(c.n, sum_abs[i]);
        let paper = paper_conventional[i];
        assert!(
            (conv / paper - 1.0).abs() <= 0.1,
            "{}: Eq. 5 gives {conv:e}, the paper {paper:e}",
            c.label
        );
        let [plain, rsum @ .., exact] = sums[i];
        assert!(abs_error_f64(d, plain) <= conv, "{}: conventional", c.label);
        for (l, s) in (1..=3).zip(rsum) {
            let bound = reproducible_bound_anchored::<f64>(c.n, l, max_abs[i]) + half_ulp(s);
            assert!(abs_error_f64(d, s) <= bound, "{}: RSUM (L={l})", c.label);
        }
        assert!(
            abs_error_f64(d, exact) <= half_ulp(exact),
            "{}: oracle",
            c.label
        );
    }
}
