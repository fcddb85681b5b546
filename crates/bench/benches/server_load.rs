//! Load generator for the query service (`rfa_server`): N concurrent
//! client sessions × mixed Q1/Q6/Q15 over the wire, with every
//! completed reply asserted **bit-identical** to an unfaulted serial
//! in-process run — across clients, thread counts and (on the chaos CI
//! leg, `RFA_FAULTS=...`) injected worker panics, stalls and deadline
//! expiries.
//!
//! The point is not raw throughput (the protocol is deliberately
//! simple): it is that concurrency and fault handling are *free of
//! result-bit consequences* — the paper's reproducibility claim
//! extended to a hardened service under load.

use rfa_bench::{BenchConfig, ResultTable};
use rfa_core::faults::{self, FaultSpec, INJECTED_PANIC};
use rfa_engine::{
    lineitem_table, q15_sql, q1_sql, q6_sql, ExecOptions, SqlColumn, SumBackend, Table,
};
use rfa_server::{Client, ClientError, ErrorCode, Server, ServerConfig};
use rfa_workloads::Lineitem;
use std::sync::Arc;
use std::time::Instant;

const BACKEND: SumBackend = SumBackend::ReproBuffered { buffer_size: 1024 };
const CLIENTS: usize = 8;
const THREAD_MIX: [u32; 3] = [1, 2, 8];

fn faults_label(spec: FaultSpec) -> &'static str {
    // The exact combination matters less than "which chaos leg was this".
    if !spec.any() {
        "none"
    } else if spec == FaultSpec::ALL {
        "all"
    } else {
        "partial"
    }
}

fn quiet_injected_panics() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s == INJECTED_PANIC)
            || info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| *s == INJECTED_PANIC);
        if !injected {
            previous(info);
        }
    }));
}

fn assert_bits_eq(got: &[SqlColumn], reference: &[SqlColumn], what: &str) {
    assert_eq!(got.len(), reference.len(), "{what}: column count");
    for (x, y) in got.iter().zip(reference) {
        match (x, y) {
            (SqlColumn::F64(p), SqlColumn::F64(q)) => {
                assert_eq!(p.len(), q.len(), "{what}: rows");
                for (u, v) in p.iter().zip(q) {
                    assert_eq!(u.to_bits(), v.to_bits(), "{what}: result bits diverged");
                }
            }
            _ => assert_eq!(x, y, "{what}: result bits diverged"),
        }
    }
}

/// Runs `per` queries on one session, round-robin over the query mix and
/// thread counts. Returns how many completed; every completed reply is
/// bit-checked against the references, every failure must be a typed
/// chaos code.
fn run_session(
    addr: std::net::SocketAddr,
    queries: &[String; 3],
    references: &[Vec<SqlColumn>; 3],
    per: usize,
    spec: FaultSpec,
) -> u64 {
    let mut client = Client::connect(addr).expect("connect");
    let mut completed = 0;
    for i in 0..per {
        let q = i % 3;
        let threads = THREAD_MIX[i % THREAD_MIX.len()];
        match client.query(&queries[q], BACKEND, threads, None) {
            Ok(result) => {
                assert_bits_eq(
                    &result.columns,
                    &references[q],
                    &queries[q][..32.min(queries[q].len())],
                );
                completed += 1;
            }
            Err(ClientError::Service(e)) => {
                let tolerated = matches!(e.code, ErrorCode::Overloaded)
                    || (spec.panic && e.code == ErrorCode::Internal)
                    || (spec.deadline && e.code == ErrorCode::DeadlineExceeded);
                assert!(tolerated, "untolerated service error: {e}");
            }
            Err(other) => panic!("transport failed under load: {other}"),
        }
    }
    completed
}

fn run_arm(
    addr: std::net::SocketAddr,
    clients: usize,
    queries: &Arc<[String; 3]>,
    references: &Arc<[Vec<SqlColumn>; 3]>,
    per: usize,
    spec: FaultSpec,
) -> (f64, u64) {
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let queries = Arc::clone(queries);
            let references = Arc::clone(references);
            std::thread::spawn(move || run_session(addr, &queries, &references, per, spec))
        })
        .collect();
    let completed: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("client session panicked"))
        .sum();
    let secs = start.elapsed().as_secs_f64();
    (completed as f64 / secs.max(1e-9), completed)
}

fn main() {
    let cfg = BenchConfig::from_env();
    let spec = faults::active();
    if spec.any() {
        quiet_injected_panics();
    }
    let per = if cfg.n <= 1 << 16 { 9 } else { 18 };

    println!(
        "server_load: n={}, {CLIENTS} clients x {per} queries, faults={}",
        cfg.n,
        faults_label(spec)
    );

    let table: Arc<Table> = Arc::new(lineitem_table(&Lineitem::generate(cfg.n, 42)));
    let queries: Arc<[String; 3]> = Arc::new([q1_sql(), q6_sql(), q15_sql()]);

    // Unfaulted serial in-process references — the bits every completed
    // reply must carry, whatever the concurrency or chaos.
    let references: Arc<[Vec<SqlColumn>; 3]> = {
        let was = spec
            .any()
            .then(|| faults::set_override(Some(FaultSpec::NONE)));
        let refs = Arc::new(std::array::from_fn(|q| {
            rfa_engine::sql_query(&queries[q], &table)
                .expect("reference query")
                .execute(&table, BACKEND, &ExecOptions::serial())
                .expect("reference execution")
                .columns
        }));
        if was.is_some() {
            faults::set_override(None); // back to the env-driven menu
        }
        refs
    };

    let server = Server::spawn(
        Arc::clone(&table),
        ServerConfig {
            workers: 8,
            queue_depth: 64,
        },
    )
    .expect("spawn server");
    let addr = server.addr();

    let (qps_1, done_1) = run_arm(addr, 1, &queries, &references, per, spec);
    let (qps_n, done_n) = run_arm(addr, CLIENTS, &queries, &references, per, spec);

    let stats = server.stats();
    let mut t = ResultTable::new(
        format!(
            "query service under load (n = {}, backend = repro<d,4> buffered)",
            cfg.n
        ),
        &["clients", "queries", "completed", "qps"],
    );
    t.row(vec![
        "1".into(),
        per.to_string(),
        done_1.to_string(),
        format!("{qps_1:.1}"),
    ]);
    t.row(vec![
        CLIENTS.to_string(),
        (CLIENTS * per).to_string(),
        done_n.to_string(),
        format!("{qps_n:.1}"),
    ]);
    t.print();
    println!(
        "  stats: accepted={} completed={} overloaded={} cancelled={} deadline={} panics={} protocol_errors={}",
        stats.accepted,
        stats.completed,
        stats.rejected_overload,
        stats.cancelled,
        stats.deadline_expired,
        stats.panics_isolated,
        stats.protocol_errors,
    );
    assert!(done_1 + done_n > 0, "no query survived the load run");
}
