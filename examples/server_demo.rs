//! The query service end to end: spawn a server on a TPC-H lineitem
//! table, run Q1 over the wire at several thread counts, probe the
//! hardening behaviours (deadline, cancellation, overload-safe retry),
//! run the sort-first baseline, and show that every completed answer
//! carries identical bits.
//!
//! ```text
//! cargo run --release --example server_demo
//! ```

use rfa::engine::{lineitem_table, q1_sql, q6_sql, SqlColumn, SumBackend};
use rfa::server::{Client, ErrorCode, Server, ServerConfig};
use rfa::workloads::Lineitem;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let table = Arc::new(lineitem_table(&Lineitem::generate(200_000, 42)));
    let server = Server::spawn(Arc::clone(&table), ServerConfig::default()).expect("spawn server");
    println!("query service listening on {}", server.addr());

    let mut client = Client::connect(server.addr()).expect("connect");
    client.ping().expect("ping");

    // The same Q1 at 1, 2 and 8 worker threads: the reproducible backend
    // makes every reply bit-identical.
    let mut first: Option<Vec<SqlColumn>> = None;
    for threads in [1u32, 2, 8] {
        let reply = client
            .query(
                &q1_sql(),
                SumBackend::ReproBuffered { buffer_size: 1024 },
                threads,
                None,
            )
            .expect("query");
        println!("q1 @ {threads} thread(s): {} group rows", reply.rows());
        match &first {
            None => first = Some(reply.columns),
            Some(reference) => assert_eq!(&reply.columns, reference, "bits diverged"),
        }
    }
    println!("q1 replies are bit-identical across thread counts");

    // A zero deadline is an immediate *typed* timeout, not a hang.
    let err = client
        .query(
            &q6_sql(),
            SumBackend::ReproUnbuffered,
            2,
            Some(Duration::ZERO),
        )
        .expect_err("zero deadline must expire");
    println!("zero deadline    -> {err}");

    // Cooperative cancellation: submit, cancel, observe the typed answer
    // (the race is real — a fast query may legitimately finish first).
    let id = client
        .send_query(&q1_sql(), SumBackend::ReproUnbuffered, 1, None)
        .expect("submit");
    client.cancel(id).expect("cancel");
    match client.wait(id) {
        Err(e) if e.code() == Some(ErrorCode::Cancelled) => println!("cancel mid-query -> {e}"),
        Ok(reply) => println!(
            "cancel lost the race; query finished with {} rows",
            reply.rows()
        ),
        Err(e) => panic!("unexpected error: {e}"),
    }

    // The paper's sort-first baseline is a backend like any other: it
    // answers over the wire, with the same bits at any thread count.
    let mut sorted = Vec::new();
    for threads in [1u32, 2] {
        let reply = client
            .query(&q1_sql(), SumBackend::SortedDouble, threads, None)
            .expect("sorted baseline");
        sorted.push(reply.columns);
    }
    assert_eq!(sorted[0], sorted[1], "sorted baseline bits diverged");
    println!(
        "sorted baseline  -> {} group rows, bit-identical at 1 and 2 threads",
        sorted[0][0].len()
    );
    client.ping().expect("still alive");

    let stats = server.stats();
    println!(
        "server stats: accepted={} completed={} cancelled={} deadline_expired={}",
        stats.accepted, stats.completed, stats.cancelled, stats.deadline_expired
    );
}
