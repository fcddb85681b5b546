//! The five workloads: inputs generated from the seed, tables, prepared
//! queries, per-arm reference results, and the verification ops that make
//! `failed / attempted` a correctness gate.

use crate::spec;
use rfa_core::analysis::reproducible_bound;
use rfa_engine::column::EncodePolicy;
use rfa_engine::{
    lineitem_table, q15_sql, q1_sql, sql_query, Column, ExecOptions, SqlColumn, SqlQuery,
    SumBackend, Table,
};
use rfa_exact::ExactSum;
use rfa_server::{Client, Server, ServerConfig};
use rfa_workloads::tpch::Q1_SHIPDATE_CUTOFF;
use rfa_workloads::{GroupedPairs, Lineitem, SplitMix64, ValueDist};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The three backend arms every op runs on. A is what the server, the
/// examples and the benches all default to.
pub const ARMS: [(&str, SumBackend); 3] = [
    ("buffered", SumBackend::ReproBuffered { buffer_size: 1024 }),
    ("unbuffered", SumBackend::ReproUnbuffered),
    ("double", SumBackend::Double),
];
pub const ARM_NAMES: [&str; 3] = [ARMS[0].0, ARMS[1].0, ARMS[2].0];

/// Client connections of `service_mix`; equals the cores the host must have.
pub const CONNECTIONS: usize = 2;
pub const Q6_VARIANTS: usize = 16;

/// Input sizes and repetition counts. `FULL` is what is measured; `SMOKE`
/// lets the tests drive every code path in seconds.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Rows of the in-process workloads.
    pub rows: usize,
    /// Key domain of `groupby_highcard`.
    pub groups: u32,
    /// Rows behind the server.
    pub service_rows: usize,
    /// Cycles per connection in one single-arm block of `service_mix`.
    pub block_cycles: usize,
    /// `Some(r)`: timed loops run `r` rounds instead of for a duration.
    pub rounds: Option<usize>,
    /// Timed calls per probe.
    pub probe_reps: usize,
    /// Cap on the group counts of the `engine.sum_op` probes (65 536
    /// buffered groups are 512 MiB of state).
    pub max_probe_groups: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        rows: 1 << 21,
        groups: 1 << 14,
        service_rows: 1 << 18,
        block_cycles: 25,
        rounds: None,
        probe_reps: 3,
        max_probe_groups: 1 << 16,
    };
    pub const SMOKE: Scale = Scale {
        rows: 1 << 13,
        groups: 1 << 8,
        service_rows: 1 << 11,
        block_cycles: 2,
        rounds: Some(3),
        probe_reps: 1,
        max_probe_groups: 1 << 8,
    };
}

/// `Table::encode_auto` policy of `encoded_mix` and the `engine.column`
/// probes. The default takes RLE from an average run of 4 rows, and
/// `l_returnflag` of a shipdate-sorted lineitem averages 4.08 (R/A coin
/// flips before the watermark, one run of N after): the seed would decide
/// between RLE and Dict, and with it between two engine paths 1.5x apart on
/// the unbuffered arm. At 8 it is a dictionary for every seed, while
/// `l_shipdate` (runs of ~800) and `l_linestatus` (2 runs) stay RLE.
pub const ENCODE_POLICY: EncodePolicy = EncodePolicy {
    min_rows: 4,
    min_avg_run: 8,
    max_dict: 65536,
};

/// TPC-H Q6 substitution parameters, as the numbers the SQL text carries.
#[derive(Clone, Copy, Debug)]
pub struct Q6Params {
    pub date_lo: i32,
    pub date_hi: i32,
    pub discount_lo: f64,
    pub discount_hi: f64,
    pub quantity: f64,
}

#[derive(Clone, Copy, Debug)]
pub enum Kind {
    Q1,
    Q6(Q6Params),
    Q15,
    GroupBy,
}

pub struct Query {
    pub kind: Kind,
    pub sql: String,
    pub prepared: SqlQuery,
}

pub enum Data {
    Lineitem(Lineitem),
    Pairs(GroupedPairs),
}

pub struct Service {
    // Declared before the server so the sessions close before it shuts down.
    pub clients: Vec<Mutex<Client>>,
    pub server: Server,
}

pub struct Prepared {
    pub name: &'static str,
    pub data: Data,
    /// The table the ops run on.
    pub table: Arc<Table>,
    /// One op runs every query once, in this order.
    pub queries: Vec<Query>,
    /// `refs[arm][query]`: result columns of a serial in-process run.
    pub refs: [Vec<Vec<SqlColumn>>; 3],
    pub service: Option<Service>,
    pub generate_s: f64,
}

impl Data {
    /// The un-encoded table over this data, columns shared with it.
    pub fn plain_table(&self) -> Table {
        match self {
            Data::Lineitem(li) => lineitem_table(li),
            Data::Pairs(p) => {
                let mut t = Table::new("g");
                t.add_column("key", Column::u32(p.keys.clone()))
                    .expect("fresh table");
                t.add_column("v", Column::f64(p.values.clone()))
                    .expect("fresh table");
                t
            }
        }
    }
}

/// The 16 Q6 variants of a seed: year 1993-1997, discount 0.02-0.09 +- 0.01,
/// quantity 24 or 25 (TPC-H 2.4.6.3), dates as days since 1992-01-01.
pub fn q6_variants(seed: u64) -> Vec<(Q6Params, String)> {
    let mut rng = SplitMix64::new(seed ^ 0x51C5_0006_0BAD_5EED);
    (0..Q6_VARIANTS)
        .map(|_| {
            let year = 1 + rng.below(5) as i32;
            let discount = (2 + rng.below(8)) as f64 / 100.0;
            let quantity = 24 + rng.below(2);
            // The parameters the oracle uses are read back from the same
            // two-decimal text the SQL parser sees.
            let lo = format!("{:.2}", discount - 0.01);
            let hi = format!("{:.2}", discount + 0.01);
            let p = Q6Params {
                date_lo: year * 365,
                date_hi: (year + 1) * 365,
                discount_lo: lo.parse().expect("two-decimal literal"),
                discount_hi: hi.parse().expect("two-decimal literal"),
                quantity: quantity as f64,
            };
            let sql = format!(
                "SELECT SUM(l_extendedprice * l_discount) FROM lineitem \
                 WHERE l_shipdate >= {} AND l_shipdate < {} \
                 AND l_discount BETWEEN {lo} AND {hi} AND l_quantity < {quantity}",
                p.date_lo, p.date_hi
            );
            (p, sql)
        })
        .collect()
}

/// `SELECT <group keys>, COUNT(*)` over the FROM / WHERE / GROUP BY of
/// `sql`: the scan without the aggregation.
pub fn scan_only_sql(sql: &str) -> String {
    let (_, tail) = sql.split_once(" FROM ").expect("SELECT ... FROM ...");
    match tail.split_once(" GROUP BY ") {
        Some((_, keys)) => format!("SELECT {keys}, COUNT(*) FROM {tail}"),
        None => format!("SELECT COUNT(*) FROM {tail}"),
    }
}

fn prepare(kind: Kind, sql: String, table: &Table) -> Result<Query, String> {
    let prepared = sql_query(&sql, table).map_err(|e| format!("{sql}: {e}"))?;
    Ok(Query {
        kind,
        sql,
        prepared,
    })
}

/// Generates the inputs of `name` from `seed`, builds its table, prepares
/// its queries, computes the per-arm references and, for `service_mix`,
/// starts the server and connects the clients.
pub fn setup(name: &str, seed: u64, scale: &Scale) -> Result<Prepared, String> {
    let name = spec::WORKLOADS
        .iter()
        .map(|w| w.0)
        .find(|w| *w == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let t = Instant::now();
    let data = match name {
        spec::GROUPBY_HIGHCARD => Data::Pairs(GroupedPairs::generate(
            scale.rows,
            scale.groups,
            ValueDist::Signed,
            seed,
        )),
        spec::SERVICE_MIX => Data::Lineitem(Lineitem::generate(scale.service_rows, seed)),
        _ => Data::Lineitem(Lineitem::generate(scale.rows, seed)),
    };
    let generate_s = t.elapsed().as_secs_f64();
    let data = match data {
        // Date-clustered is the layout that engages RLE and Dict in one table.
        Data::Lineitem(li) if name == spec::ENCODED_MIX => Data::Lineitem(li.sorted_by_shipdate()),
        other => other,
    };

    let mut table = data.plain_table();
    if name == spec::ENCODED_MIX {
        table.encode_auto(ENCODE_POLICY);
    }

    let q6s = || {
        q6_variants(seed)
            .into_iter()
            .map(|(p, sql)| (Kind::Q6(p), sql))
    };
    let texts: Vec<(Kind, String)> = match name {
        spec::Q1_LOWCARD => vec![(Kind::Q1, q1_sql())],
        spec::GROUPBY_HIGHCARD => {
            vec![(
                Kind::GroupBy,
                "SELECT key, SUM(v) FROM g GROUP BY key".to_string(),
            )]
        }
        spec::Q6_SCAN => q6s().collect(),
        spec::ENCODED_MIX => std::iter::once((Kind::Q1, q1_sql())).chain(q6s()).collect(),
        _ => {
            let q6 = rfa_engine::q6_sql();
            let p = Q6Params {
                date_lo: rfa_engine::q6::Q6_DATE_LO,
                date_hi: rfa_engine::q6::Q6_DATE_HI,
                discount_lo: 0.05,
                discount_hi: 0.07,
                quantity: 24.0,
            };
            vec![
                (Kind::Q1, q1_sql()),
                (Kind::Q6(p), q6),
                (Kind::Q15, q15_sql()),
            ]
        }
    };
    let queries = texts
        .into_iter()
        .map(|(kind, sql)| prepare(kind, sql, &table))
        .collect::<Result<Vec<_>, _>>()?;

    let mut refs: [Vec<Vec<SqlColumn>>; 3] = Default::default();
    for (arm, (_, backend)) in ARMS.iter().enumerate() {
        for q in &queries {
            let r = q
                .prepared
                .execute(&table, *backend, &ExecOptions::serial())
                .map_err(|e| format!("{}: {e}", q.sql))?;
            refs[arm].push(r.columns);
        }
    }

    let table = Arc::new(table);
    let service = if name == spec::SERVICE_MIX {
        let server = Server::spawn(Arc::clone(&table), ServerConfig::default())
            .map_err(|e| format!("server spawn: {e}"))?;
        let clients = (0..CONNECTIONS)
            .map(|_| {
                Client::connect(server.addr())
                    .map(Mutex::new)
                    .map_err(|e| format!("connect: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Some(Service { clients, server })
    } else {
        None
    };

    Ok(Prepared {
        name,
        data,
        table,
        queries,
        refs,
        service,
        generate_s,
    })
}

/// Bitwise equality of result columns (`==` on `f64` would call two NaNs
/// different and the two zeros equal).
pub fn bits_eq(a: &[SqlColumn], b: &[SqlColumn]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (SqlColumn::F64(p), SqlColumn::F64(q)) => {
                p.len() == q.len() && p.iter().zip(q).all(|(u, v)| u.to_bits() == v.to_bits())
            }
            _ => x == y,
        })
}

/// Ops attempted and failed, with a line for each failure.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            // The first few say what broke; the counts carry the rest.
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

fn f64s(c: &SqlColumn) -> &[f64] {
    match c {
        SqlColumn::F64(v) => v,
        _ => &[],
    }
}

fn i64s(c: &SqlColumn) -> &[i64] {
    match c {
        SqlColumn::I64(v) => v,
        _ => &[],
    }
}

/// An exact sum with what the paper's bound (Eq. 6) needs to know about
/// the values that went in.
#[derive(Clone)]
struct Oracle {
    sum: ExactSum,
    n: usize,
    max_abs: f64,
}

impl Oracle {
    fn new() -> Oracle {
        Oracle {
            sum: ExactSum::new(),
            n: 0,
            max_abs: 0.0,
        }
    }

    fn add(&mut self, v: f64) {
        self.sum.add(v);
        self.n += 1;
        self.max_abs = self.max_abs.max(v.abs());
    }

    /// `candidate` is within the reproducible bound of the exact sum, plus
    /// the one rounding that turns the four-level state into a double.
    fn admits(&self, candidate: f64) -> bool {
        let mut e = self.sum.clone();
        e.sub(candidate);
        let err = e.round_f64().abs();
        err <= reproducible_bound::<f64>(self.n, 4, self.max_abs) + candidate.abs() * f64::EPSILON
    }
}

/// Checks a reproducible result of `q` against the exact oracle where the
/// summed term is a column or a single product (whose per-row rounding
/// the harness can replay); `None` for queries without such a sum.
fn oracle_admits(q: &Query, data: &Data, result: &[SqlColumn]) -> Option<bool> {
    match (q.kind, data) {
        (Kind::GroupBy, Data::Pairs(p)) => {
            let mut groups = vec![Oracle::new(); p.key_domain as usize];
            for (k, v) in p.keys.iter().zip(&p.values) {
                groups[*k as usize].add(*v);
            }
            let keys = i64s(&result[0]);
            let sums = f64s(&result[1]);
            let present = groups.iter().filter(|g| g.n > 0).count();
            Some(
                keys.len() == present
                    && keys
                        .iter()
                        .zip(sums)
                        .all(|(k, s)| groups[*k as usize].admits(*s)),
            )
        }
        (Kind::Q1, Data::Lineitem(li)) => {
            // (returnflag, linestatus) -> (sum_qty, sum_base_price)
            let mut groups: BTreeMap<(i64, i64), (Oracle, Oracle)> = BTreeMap::new();
            for i in 0..li.len() {
                if li.shipdate[i] <= Q1_SHIPDATE_CUTOFF {
                    let key = (li.returnflag[i] as i64, li.linestatus[i] as i64);
                    let g = groups
                        .entry(key)
                        .or_insert_with(|| (Oracle::new(), Oracle::new()));
                    g.0.add(li.quantity[i]);
                    g.1.add(li.extendedprice[i]);
                }
            }
            let (rf, ls) = (i64s(&result[0]), i64s(&result[1]));
            let (qty, price) = (f64s(&result[2]), f64s(&result[3]));
            Some(
                rf.len() == groups.len()
                    && (0..rf.len()).all(|r| {
                        groups
                            .get(&(rf[r], ls[r]))
                            .is_some_and(|g| g.0.admits(qty[r]) && g.1.admits(price[r]))
                    }),
            )
        }
        (Kind::Q6(p), Data::Lineitem(li)) => {
            let mut revenue = Oracle::new();
            for i in 0..li.len() {
                let d = li.discount[i];
                if li.shipdate[i] >= p.date_lo
                    && li.shipdate[i] < p.date_hi
                    && d >= p.discount_lo
                    && d <= p.discount_hi
                    && li.quantity[i] < p.quantity
                {
                    revenue.add(li.extendedprice[i] * d);
                }
            }
            Some(f64s(&result[0]).first().is_some_and(|r| revenue.admits(*r)))
        }
        _ => None,
    }
}

/// The verification ops, run once per run and counted like any
/// other op: (a) the reproducible arms return the reference bits on a
/// physically permuted copy of the table — the paper's definition of
/// reproducible; (b) they agree with each other and with a two-thread
/// run; (c) their column and single-product sums lie within the paper's
/// bound of the exact oracle.
pub fn verify(p: &Prepared, seed: u64, tally: &mut Tally) {
    let repro_arms = [0, 1];
    let run = |table: &Table, arm: usize, opts: &ExecOptions| {
        p.queries.iter().zip(&p.refs[arm]).all(|(q, reference)| {
            q.prepared
                .execute(table, ARMS[arm].1, opts)
                .is_ok_and(|r| bits_eq(&r.columns, reference))
        })
    };

    // The permuted copy is always plain: `Table::reorder` refuses RLE, and
    // an encoded table returning the bits of a shuffled plain one checks
    // the encodings as well.
    let mut permuted = p.data.plain_table();
    let mut perm: Vec<u32> = (0..permuted.rows() as u32).collect();
    SplitMix64::new(seed ^ 0x0BAD_C0DE_5EED_0001).shuffle(&mut perm);
    let reordered = permuted.reorder(&perm).is_ok();
    for arm in repro_arms {
        tally.op(
            reordered && run(&permuted, arm, &ExecOptions::serial()),
            || {
                format!(
                    "{}: arm {} differs on a permuted table",
                    p.name, ARM_NAMES[arm]
                )
            },
        );
    }
    drop(permuted);

    let same = p.refs[0].iter().zip(&p.refs[1]).all(|(a, b)| bits_eq(a, b));
    tally.op(same, || {
        format!("{}: buffered and unbuffered results differ", p.name)
    });
    let two_threads = ExecOptions {
        threads: 2,
        ..ExecOptions::serial()
    };
    for arm in repro_arms {
        tally.op(run(&p.table, arm, &two_threads), || {
            format!(
                "{}: arm {} differs with two threads",
                p.name, ARM_NAMES[arm]
            )
        });
    }

    for (qi, q) in p.queries.iter().enumerate() {
        if let Some(ok) = oracle_admits(q, &p.data, &p.refs[0][qi]) {
            tally.op(ok, || {
                format!("{}: outside the bound of the exact sum: {}", p.name, q.sql)
            });
        }
    }
}
