//! Synthetic TPC-H `lineitem` generator (paper §VI-E substitution).
//!
//! The paper runs "a modified TPC-H benchmark … where we replaced all
//! DECIMAL columns by DOUBLE" inside MonetDB and reports Query 1 CPU time.
//! Query 1 touches only `lineitem`; this module generates the columns Q1
//! needs with dbgen-faithful distributions (TPC-H specification v2.17 §4.2):
//!
//! * `l_quantity`   — uniform integer 1..=50, stored as DOUBLE;
//! * `l_extendedprice` — quantity × part retail price (retail price formula
//!   approximated by its uniform range 90 000–110 000 / 100);
//! * `l_discount`   — uniform 0.00..=0.10 in steps of 0.01;
//! * `l_tax`        — uniform 0.00..=0.08 in steps of 0.01;
//! * `l_shipdate`   — order date + uniform 1..=121 days over the 7-year
//!   window (represented as days since 1992-01-01);
//! * `l_returnflag` — 'R'/'A' for shipments received before the current
//!   date watermark, 'N' otherwise (dbgen ties this to receipt date);
//! * `l_linestatus` — 'O' if shipped after the watermark, 'F' otherwise;
//! * `l_suppkey`    — uniform 1..=10 000 (the scale-factor-1 supplier
//!   count), the high-cardinality group key of the Q15 revenue view.
//!
//! The official scale factor 1 has ~6 M lineitem rows; `scale` here scales
//! that row count.

use crate::rng::SplitMix64;
use std::sync::Arc;

/// Columns of `lineitem` needed by TPC-H Q1, in columnar layout.
///
/// Column storage is `Arc`-shared so downstream engines can build
/// zero-copy table views over the generated data (cloning a column handle
/// is a refcount bump, never a data copy). Reads go through `Deref`, so
/// `t.quantity[i]` works as with plain `Vec`s.
pub struct Lineitem {
    pub quantity: Arc<Vec<f64>>,
    pub extendedprice: Arc<Vec<f64>>,
    pub discount: Arc<Vec<f64>>,
    pub tax: Arc<Vec<f64>>,
    /// Days since 1992-01-01.
    pub shipdate: Arc<Vec<i32>>,
    /// b'R', b'A' or b'N'.
    pub returnflag: Arc<Vec<u8>>,
    /// b'O' or b'F'.
    pub linestatus: Arc<Vec<u8>>,
    /// Supplier key, 1..=[`SUPPLIERS`].
    pub suppkey: Arc<Vec<i32>>,
}

/// The dbgen "current date" watermark: 1995-06-17, as days since
/// 1992-01-01 (3 years, 168 days).
pub const CURRENT_DATE: i32 = 3 * 365 + 168;
/// Q1 ships-before cutoff: 1998-12-01 minus 90 days (spec default DELTA).
pub const Q1_SHIPDATE_CUTOFF: i32 = 7 * 365 - 90 - 28; // ≈ 1998-09-02
/// Supplier count at scale factor 1 (`S = 10 000 · SF`).
pub const SUPPLIERS: i32 = 10_000;

impl Lineitem {
    /// Generates `rows` lineitem rows deterministically from `seed`.
    pub fn generate(rows: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x7BC8_11E1_0001_D5E1);
        let mut t = LineitemBuilder {
            quantity: Vec::with_capacity(rows),
            extendedprice: Vec::with_capacity(rows),
            discount: Vec::with_capacity(rows),
            tax: Vec::with_capacity(rows),
            shipdate: Vec::with_capacity(rows),
            returnflag: Vec::with_capacity(rows),
            linestatus: Vec::with_capacity(rows),
            suppkey: Vec::with_capacity(rows),
        };
        for _ in 0..rows {
            let quantity = (rng.below(50) + 1) as f64;
            // Retail price in [900.00, 1100.00] (dbgen formula range).
            let retail = 900.0 + rng.below(20_001) as f64 / 100.0;
            let extendedprice = quantity * retail;
            let discount = rng.below(11) as f64 / 100.0;
            let tax = rng.below(9) as f64 / 100.0;
            // Order date uniform over the first 7 years minus max lead
            // times; ship = order + 1..=121, receipt = ship + 1..=30.
            let orderdate = rng.below((7 * 365 - 151) as u64) as i32;
            let shipdate = orderdate + 1 + rng.below(121) as i32;
            let receiptdate = shipdate + 1 + rng.below(30) as i32;
            let returnflag = if receiptdate <= CURRENT_DATE {
                if rng.below(2) == 0 {
                    b'R'
                } else {
                    b'A'
                }
            } else {
                b'N'
            };
            let linestatus = if shipdate > CURRENT_DATE { b'O' } else { b'F' };
            let suppkey = 1 + rng.below(SUPPLIERS as u64) as i32;
            t.quantity.push(quantity);
            t.extendedprice.push(extendedprice);
            t.discount.push(discount);
            t.tax.push(tax);
            t.shipdate.push(shipdate);
            t.returnflag.push(returnflag);
            t.linestatus.push(linestatus);
            t.suppkey.push(suppkey);
        }
        t.freeze()
    }

    /// Builds a table directly from column vectors (all equal length) —
    /// used by tests and property strategies that need hand-crafted data.
    #[allow(clippy::too_many_arguments)]
    pub fn from_columns(
        quantity: Vec<f64>,
        extendedprice: Vec<f64>,
        discount: Vec<f64>,
        tax: Vec<f64>,
        shipdate: Vec<i32>,
        returnflag: Vec<u8>,
        linestatus: Vec<u8>,
        suppkey: Vec<i32>,
    ) -> Self {
        let rows = quantity.len();
        assert!(
            [
                extendedprice.len(),
                discount.len(),
                tax.len(),
                shipdate.len(),
                returnflag.len(),
                linestatus.len(),
                suppkey.len(),
            ]
            .iter()
            .all(|&l| l == rows),
            "all lineitem columns must have equal length"
        );
        LineitemBuilder {
            quantity,
            extendedprice,
            discount,
            tax,
            shipdate,
            returnflag,
            linestatus,
            suppkey,
        }
        .freeze()
    }

    pub fn len(&self) -> usize {
        self.quantity.len()
    }

    pub fn is_empty(&self) -> bool {
        self.quantity.is_empty()
    }

    /// Q1 group id for a row: the (returnflag, linestatus) pair encoded
    /// densely (dictionary encoding, as a column store would).
    #[inline]
    pub fn q1_group(&self, row: usize) -> u32 {
        Self::encode_group(self.returnflag[row], self.linestatus[row])
    }

    /// The dense dictionary encoding behind [`Self::q1_group`], exposed
    /// so engines grouping on the raw byte columns use the identical
    /// mapping (inverse of [`Self::decode_group`]).
    #[inline]
    pub fn encode_group(returnflag: u8, linestatus: u8) -> u32 {
        let rf = match returnflag {
            b'A' => 0u32,
            b'N' => 1,
            b'R' => 2,
            other => unreachable!("invalid returnflag {other}"),
        };
        let ls = match linestatus {
            b'F' => 0u32,
            b'O' => 1,
            other => unreachable!("invalid linestatus {other}"),
        };
        rf * 2 + ls
    }

    /// Decodes a group id back to (returnflag, linestatus) characters.
    pub fn decode_group(group: u32) -> (char, char) {
        let rf = ['A', 'N', 'R'][(group / 2) as usize];
        let ls = ['F', 'O'][(group % 2) as usize];
        (rf, ls)
    }

    /// A physically reordered copy of the table (same logical content).
    fn reordered(&self, perm: &[usize]) -> Lineitem {
        Lineitem::from_columns(
            perm.iter().map(|&i| self.quantity[i]).collect(),
            perm.iter().map(|&i| self.extendedprice[i]).collect(),
            perm.iter().map(|&i| self.discount[i]).collect(),
            perm.iter().map(|&i| self.tax[i]).collect(),
            perm.iter().map(|&i| self.shipdate[i]).collect(),
            perm.iter().map(|&i| self.returnflag[i]).collect(),
            perm.iter().map(|&i| self.linestatus[i]).collect(),
            perm.iter().map(|&i| self.suppkey[i]).collect(),
        )
    }

    /// A copy physically clustered by the Q1 group pair
    /// `(l_returnflag, l_linestatus)` — the layout a table clustered on
    /// its grouping key would have. The flag columns collapse to a
    /// handful of runs, making them RLE-friendly. The sort is stable, so
    /// rows within a group keep their original relative order (and any
    /// order-sensitive aggregate over a group is unchanged).
    pub fn sorted_by_q1_group(&self) -> Lineitem {
        let mut perm: Vec<usize> = (0..self.len()).collect();
        perm.sort_by_key(|&i| (self.returnflag[i], self.linestatus[i]));
        self.reordered(&perm)
    }

    /// A copy physically sorted by `l_shipdate` (stable) — the natural
    /// layout of a date-partitioned fact table. Q6's shipdate band then
    /// selects one contiguous row range, and the column RLE-compresses to
    /// one run per distinct day.
    pub fn sorted_by_shipdate(&self) -> Lineitem {
        let mut perm: Vec<usize> = (0..self.len()).collect();
        perm.sort_by_key(|&i| self.shipdate[i]);
        self.reordered(&perm)
    }

    /// A copy physically sorted by `l_quantity` (stable; quantities are
    /// finite). With ~50 distinct quantities the column collapses to ~50
    /// long runs, so it RLE-encodes: an `Rle<F64>` aggregate input with
    /// as few runs as this column can have.
    pub fn sorted_by_quantity(&self) -> Lineitem {
        let mut perm: Vec<usize> = (0..self.len()).collect();
        perm.sort_by(|&a, &b| self.quantity[a].total_cmp(&self.quantity[b]));
        self.reordered(&perm)
    }
}

/// Mutable column staging used during generation; `freeze` wraps the
/// finished vectors in the shared handles queries hand out.
struct LineitemBuilder {
    quantity: Vec<f64>,
    extendedprice: Vec<f64>,
    discount: Vec<f64>,
    tax: Vec<f64>,
    shipdate: Vec<i32>,
    returnflag: Vec<u8>,
    linestatus: Vec<u8>,
    suppkey: Vec<i32>,
}

impl LineitemBuilder {
    fn freeze(self) -> Lineitem {
        Lineitem {
            quantity: Arc::new(self.quantity),
            extendedprice: Arc::new(self.extendedprice),
            discount: Arc::new(self.discount),
            tax: Arc::new(self.tax),
            shipdate: Arc::new(self.shipdate),
            returnflag: Arc::new(self.returnflag),
            linestatus: Arc::new(self.linestatus),
            suppkey: Arc::new(self.suppkey),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_have_spec_ranges() {
        let t = Lineitem::generate(50_000, 1);
        for i in 0..t.len() {
            assert!((1.0..=50.0).contains(&t.quantity[i]));
            assert!(t.quantity[i].fract() == 0.0);
            assert!((0.0..=0.10).contains(&t.discount[i]));
            assert!((0.0..=0.08).contains(&t.tax[i]));
            assert!(t.extendedprice[i] >= 900.0 && t.extendedprice[i] <= 50.0 * 1100.0);
            assert!(t.shipdate[i] >= 1);
            assert!(matches!(t.returnflag[i], b'R' | b'A' | b'N'));
            assert!(matches!(t.linestatus[i], b'O' | b'F'));
            assert!((1..=SUPPLIERS).contains(&t.suppkey[i]));
        }
        // The supplier domain is genuinely high-cardinality: nearly all
        // of the 10 000 keys occur in 50k rows.
        let mut seen = vec![false; SUPPLIERS as usize + 1];
        for &s in t.suppkey.iter() {
            seen[s as usize] = true;
        }
        let distinct = seen.iter().filter(|&&b| b).count();
        assert!(distinct > 9_500, "only {distinct} distinct suppliers");
    }

    #[test]
    fn flag_status_correlation_matches_dbgen() {
        let t = Lineitem::generate(100_000, 2);
        for i in 0..t.len() {
            // 'N' rows are those received after the watermark; rows shipped
            // after the watermark cannot have been received before it.
            if t.linestatus[i] == b'O' {
                assert_eq!(t.returnflag[i], b'N', "row {i}");
            }
        }
        // All four realistic groups occur (A/F, N/F, N/O, R/F).
        let mut seen = [false; 6];
        for i in 0..t.len() {
            seen[t.q1_group(i) as usize] = true;
        }
        assert!(seen[0] && seen[2] && seen[3] && seen[4], "{seen:?}");
    }

    #[test]
    fn q1_cutoff_selects_most_rows() {
        // TPC-H Q1 scans ~98% of lineitem; our cutoff must match that
        // order of magnitude for Table IV to be representative.
        let t = Lineitem::generate(100_000, 3);
        let selected = t
            .shipdate
            .iter()
            .filter(|&&d| d <= Q1_SHIPDATE_CUTOFF)
            .count();
        let frac = selected as f64 / t.len() as f64;
        assert!((0.9..1.0).contains(&frac), "selectivity {frac}");
    }

    #[test]
    fn deterministic() {
        let a = Lineitem::generate(1000, 42);
        let b = Lineitem::generate(1000, 42);
        assert_eq!(a.extendedprice, b.extendedprice);
        assert_eq!(a.shipdate, b.shipdate);
    }

    #[test]
    fn group_encoding_roundtrips() {
        assert_eq!(Lineitem::decode_group(0), ('A', 'F'));
        assert_eq!(Lineitem::decode_group(3), ('N', 'O'));
        assert_eq!(Lineitem::decode_group(4), ('R', 'F'));
    }
}
