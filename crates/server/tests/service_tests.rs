//! End-to-end service behaviour on a healthy network: bit-identity with
//! the in-process engine on every backend, typed errors for every failure
//! class (bad SQL, deadlines, cancellation, overload, broken framing), and
//! survival of all of them.
//!
//! These tests pin fault injection to `FaultSpec::NONE` so the CI chaos
//! leg (`RFA_FAULTS=...`) cannot destabilize them — chaos behaviour has
//! its own suites (`panic_isolation.rs`, `chaos_proptests.rs`), which
//! run in separate processes and own their process-global fault state.

use rfa_core::faults::{self, FaultSpec};
use rfa_core::wire::{Frame, MAX_FRAME_LEN};
use rfa_engine::{
    lineitem_table, q15_sql, q1_plan, q1_sql, q6_sql, AggColumn, ExecOptions, SqlColumn,
    SumBackend, Table,
};
use rfa_server::{Client, ClientError, ErrorCode, Response, Server, ServerConfig};
use rfa_workloads::Lineitem;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// All tests in this binary run unfaulted, whatever `RFA_FAULTS` says.
fn no_faults() {
    faults::set_override(Some(FaultSpec::NONE));
}

/// Shared mid-sized table (server + references).
fn table() -> Arc<Table> {
    static TABLE: OnceLock<Arc<Table>> = OnceLock::new();
    Arc::clone(TABLE.get_or_init(|| Arc::new(lineitem_table(&Lineitem::generate(60_000, 42)))))
}

/// Larger table whose Q1 takes ≫ milliseconds serially — room for a
/// cancel/overload race to resolve the intended way.
fn big_table() -> Arc<Table> {
    static TABLE: OnceLock<Arc<Table>> = OnceLock::new();
    Arc::clone(TABLE.get_or_init(|| Arc::new(lineitem_table(&Lineitem::generate(1_000_000, 7)))))
}

/// Strict equality: `F64` columns compare by bit pattern.
fn assert_bits_eq(a: &[SqlColumn], b: &[SqlColumn]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        match (x, y) {
            (SqlColumn::F64(p), SqlColumn::F64(q)) => {
                assert_eq!(p.len(), q.len());
                for (u, v) in p.iter().zip(q) {
                    assert_eq!(u.to_bits(), v.to_bits());
                }
            }
            _ => assert_eq!(x, y),
        }
    }
}

#[test]
fn queries_are_bit_identical_to_the_in_process_engine() {
    no_faults();
    let table = table();
    let server = Server::spawn(Arc::clone(&table), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.ping().unwrap();

    for sql in [q1_sql(), q6_sql(), q15_sql()] {
        let reference = rfa_engine::sql_query(&sql, &table)
            .unwrap()
            .execute(&table, SumBackend::ReproUnbuffered, &ExecOptions::serial())
            .unwrap();
        // Serve the same query at several thread counts: every reply
        // must carry the serial reference bits.
        for threads in [1, 2, 8] {
            let got = client
                .query(&sql, SumBackend::ReproUnbuffered, threads, None)
                .unwrap();
            assert_eq!(got.names, reference.names);
            assert_bits_eq(&got.columns, &reference.columns);
        }
    }

    let stats = server.stats();
    assert_eq!(stats.accepted, 9);
    assert_eq!(stats.completed, 9);
    assert_eq!(stats.rejected_overload, 0);
    assert_eq!(stats.panics_isolated, 0);
}

#[test]
fn buffer_size_over_the_wire_sizes_nothing() {
    // `buffer_size` is client-controlled and used to size an allocation
    // per group (0 tripped an assert, u32::MAX asked for 32 GiB each).
    // It is inert now: every value returns the reference bits.
    no_faults();
    let table = table();
    let server = Server::spawn(Arc::clone(&table), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for sql in [q1_sql(), q15_sql()] {
        let reference = rfa_engine::sql_query(&sql, &table)
            .unwrap()
            .execute(&table, SumBackend::ReproUnbuffered, &ExecOptions::serial())
            .unwrap();
        for buffer_size in [0, 1, u32::MAX as usize] {
            for backend in [
                SumBackend::ReproBuffered { buffer_size },
                SumBackend::RsumBuffered {
                    levels: 4,
                    buffer_size,
                },
            ] {
                let got = client.query(&sql, backend, 1, None).unwrap();
                assert_bits_eq(&got.columns, &reference.columns);
            }
        }
    }
    assert_eq!(server.stats().completed, 12);
}

#[test]
fn session_plan_cache_survives_repeated_queries() {
    no_faults();
    let server = Server::spawn(table(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    // Same SQL ten times on one session: the per-session PlanCache
    // resolves once; every answer is identical.
    let first = client
        .query(
            &q6_sql(),
            SumBackend::ReproBuffered { buffer_size: 256 },
            2,
            None,
        )
        .unwrap();
    for _ in 0..9 {
        let again = client
            .query(
                &q6_sql(),
                SumBackend::ReproBuffered { buffer_size: 256 },
                2,
                None,
            )
            .unwrap();
        assert_bits_eq(&again.columns, &first.columns);
    }
}

#[test]
fn bad_sql_is_a_typed_bad_request_and_the_server_survives() {
    no_faults();
    let server = Server::spawn(table(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let err = client
        .query("SELECT FROM WHERE", SumBackend::Double, 1, None)
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::BadRequest));

    let err = client
        .query(
            "SELECT SUM(no_such_col) FROM lineitem",
            SumBackend::Double,
            1,
            None,
        )
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::BadRequest));
    assert!(err.service().unwrap().message.contains("no_such_col"));

    // The session (and server) keep working.
    client.ping().unwrap();
    assert!(client.query(&q1_sql(), SumBackend::Double, 1, None).is_ok());
}

#[test]
fn too_deep_sql_is_a_typed_bad_request_and_the_server_survives() {
    // Each frame once overflowed a worker's stack, which aborts the whole
    // process: 2 000 parentheses (a 4 KB frame) and 5 000 conjuncts
    // (100 KB).
    no_faults();
    let table = table();
    let server = Server::spawn(Arc::clone(&table), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let frames = [
        format!(
            "SELECT SUM({}l_quantity{}) FROM lineitem",
            "(".repeat(2_000),
            ")".repeat(2_000)
        ),
        format!(
            "SELECT SUM(l_quantity) FROM lineitem WHERE {}",
            vec!["l_quantity < 30"; 5_000].join(" AND ")
        ),
    ];
    for sql in &frames {
        let err = client
            .query(sql, SumBackend::ReproUnbuffered, 1, None)
            .unwrap_err();
        assert_eq!(err.code(), Some(ErrorCode::BadRequest), "{err}");
    }

    client.ping().unwrap();
    let reference = rfa_engine::sql_query(&q1_sql(), &table)
        .unwrap()
        .execute(&table, SumBackend::ReproUnbuffered, &ExecOptions::serial())
        .unwrap();
    let got = client
        .query(&q1_sql(), SumBackend::ReproUnbuffered, 1, None)
        .unwrap();
    assert_bits_eq(&got.columns, &reference.columns);
}

#[test]
fn sorted_double_over_the_wire_matches_in_process() {
    no_faults();
    let server = Server::spawn(table(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    // The same table through the in-process Q1 plan, serially: the SQL
    // result leads with the two bytes of the plan's packed pair key.
    let plan = q1_plan()
        .execute(&table(), SumBackend::SortedDouble, &ExecOptions::serial())
        .unwrap();
    let mut want = vec![
        SqlColumn::I64(plan.keys.iter().map(|k| k >> 8).collect()),
        SqlColumn::I64(plan.keys.iter().map(|k| k & 0xff).collect()),
    ];
    want.extend(plan.columns.iter().map(|c| match c {
        AggColumn::F64(v) => SqlColumn::F64(v.clone()),
        AggColumn::U64(v) => SqlColumn::U64(v.clone()),
    }));
    for threads in [1, 2] {
        let got = client
            .query(&q1_sql(), SumBackend::SortedDouble, threads, None)
            .unwrap();
        assert_bits_eq(&got.columns, &want);
    }
    assert_eq!(server.stats().completed, 2);
}

#[test]
fn zero_deadline_is_an_immediate_typed_timeout() {
    no_faults();
    let server = Server::spawn(table(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let err = client
        .query(
            &q1_sql(),
            SumBackend::ReproUnbuffered,
            2,
            Some(Duration::ZERO),
        )
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::DeadlineExceeded));
    assert!(server.stats().deadline_expired >= 1);
    // A deadline big enough never fires and does not perturb bits.
    let table = table();
    let reference = rfa_engine::sql_query(&q1_sql(), &table)
        .unwrap()
        .execute(&table, SumBackend::ReproUnbuffered, &ExecOptions::serial())
        .unwrap();
    let got = client
        .query(
            &q1_sql(),
            SumBackend::ReproUnbuffered,
            2,
            Some(Duration::from_secs(3600)),
        )
        .unwrap();
    assert_bits_eq(&got.columns, &reference.columns);
}

#[test]
fn cancel_mid_query_is_typed_and_the_session_survives() {
    no_faults();
    let server = Server::spawn(big_table(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let id = client
        .send_query(&q1_sql(), SumBackend::ReproUnbuffered, 1, None)
        .unwrap();
    client.cancel(id).unwrap();
    let err = client.wait(id).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Cancelled));
    assert!(server.stats().cancelled >= 1);

    // Cancelling a finished (or unknown) id is a no-op, and the session
    // still answers real queries afterwards.
    client.cancel(id).unwrap();
    client.cancel(9_999).unwrap();
    assert!(client
        .query(&q6_sql(), SumBackend::ReproUnbuffered, 2, None)
        .is_ok());
}

#[test]
fn full_admission_queue_rejects_with_typed_overloaded() {
    no_faults();
    let server = Server::spawn(
        big_table(),
        ServerConfig {
            workers: 1,
            queue_depth: 1,
        },
    )
    .unwrap();
    let addr = server.addr();

    // Eight near-simultaneous single-query sessions against one worker
    // and a depth-1 queue: the running query completes, and the burst
    // overflows the queue for at least one of the rest.
    let handles: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.query(&q1_sql(), SumBackend::ReproUnbuffered, 1, None)
            })
        })
        .collect();
    let mut ok = 0u32;
    let mut overloaded = 0u32;
    for h in handles {
        match h.join().unwrap() {
            Ok(_) => ok += 1,
            Err(e) => {
                assert_eq!(
                    e.code(),
                    Some(ErrorCode::Overloaded),
                    "unexpected error: {e}"
                );
                overloaded += 1;
            }
        }
    }
    assert!(ok >= 1, "the admitted query must complete");
    assert!(overloaded >= 1, "the burst must overflow the queue");
    assert_eq!(server.stats().rejected_overload, u64::from(overloaded));

    // Rejection is pre-admission: a retry afterwards works and returns
    // the same bits as an in-process run.
    let table = big_table();
    let reference = rfa_engine::sql_query(&q1_sql(), &table)
        .unwrap()
        .execute(&table, SumBackend::ReproUnbuffered, &ExecOptions::serial())
        .unwrap();
    let mut client = Client::connect(addr).unwrap();
    let got = client
        .query(&q1_sql(), SumBackend::ReproUnbuffered, 1, None)
        .unwrap();
    assert_bits_eq(&got.columns, &reference.columns);
}

#[test]
fn broken_framing_drops_the_connection_not_the_server() {
    no_faults();
    let server = Server::spawn(table(), ServerConfig::default()).unwrap();

    // A length prefix far beyond MAX_FRAME_LEN: the server answers a
    // typed error and drops only this connection — without allocating
    // what the prefix claims.
    let mut evil = Client::connect(server.addr()).unwrap();
    evil.send_raw(&(MAX_FRAME_LEN * 2).to_le_bytes()).unwrap();
    evil.send_raw(&[0xAB; 64]).unwrap();
    match evil.ping() {
        Err(ClientError::Service(e)) => assert_eq!(e.code, ErrorCode::BadRequest),
        Err(ClientError::Io(_)) => {} // reply may already be unreadable
        other => panic!("expected the connection to die, got {other:?}"),
    }

    // A frame cut mid-payload, then EOF: same containment.
    let mut evil = Client::connect(server.addr()).unwrap();
    evil.send_raw(&100u32.to_le_bytes()).unwrap();
    evil.send_raw(&[0x01, 0x02, 0x03]).unwrap();
    drop(evil);

    std::thread::sleep(Duration::from_millis(100));
    assert!(server.stats().protocol_errors >= 1);

    // Fresh connections are unaffected.
    let mut client = Client::connect(server.addr()).unwrap();
    client.ping().unwrap();
    assert!(client.query(&q1_sql(), SumBackend::Double, 1, None).is_ok());
}

#[test]
fn malformed_payload_in_a_valid_frame_answers_typed_and_keeps_the_session() {
    no_faults();
    let server = Server::spawn(table(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Well-framed garbage: a REQ_QUERY payload that is too short. The
    // connection stays synchronized, so the server answers a typed
    // connection-level error (query_id 0) and keeps serving.
    client
        .send_raw(&Frame::new(0x01, vec![0xFF; 5]).encode())
        .unwrap();
    // An unknown frame kind gets the same treatment.
    client
        .send_raw(&Frame::new(0x77, Vec::new()).encode())
        .unwrap();

    // Read the two error replies off the raw stream via a ping exchange:
    // ping flushes pending responses into the client's queue until Pong.
    for _ in 0..2 {
        let err = match read_next_error(&mut client) {
            Response::Error { query_id, code, .. } => (query_id, code),
            other => panic!("expected error, got {other:?}"),
        };
        assert_eq!(err, (0, ErrorCode::BadRequest));
    }
    assert!(server.stats().protocol_errors >= 2);

    // Session still usable.
    assert!(client.query(&q1_sql(), SumBackend::Double, 1, None).is_ok());
}

/// Reads frames until a `Response::Error` arrives (helper for the
/// malformed-payload test, which expects connection-level errors the
/// normal correlation machinery never surfaces).
fn read_next_error(client: &mut Client) -> Response {
    // The wait-for-id machinery parks non-matching responses; easiest is
    // to wait on an id we know errors immediately: a bad query. Its
    // reply necessarily arrives after the two pending error frames, so
    // waiting on it forces them into the pending queue... but pending is
    // private. Instead, exploit that errors for id 0 arrive *before* the
    // bad query's reply and wait on id 0 directly.
    match client.wait(0) {
        Err(ClientError::Service(e)) => Response::Error {
            query_id: 0,
            code: e.code,
            message: e.message,
        },
        other => panic!("expected service error for id 0, got {other:?}"),
    }
}

#[test]
fn disconnect_cancels_in_flight_queries() {
    no_faults();
    let server = Server::spawn(big_table(), ServerConfig::default()).unwrap();
    {
        let mut client = Client::connect(server.addr()).unwrap();
        client
            .send_query(&q1_sql(), SumBackend::ReproUnbuffered, 1, None)
            .unwrap();
        // Drop the session with the query still running.
    }
    // The reader notices the disconnect and trips the token; the worker
    // observes it at the next batch boundary.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let stats = server.stats();
        if stats.cancelled >= 1 || stats.completed >= 1 {
            // `completed` covers the (unlikely) race where the query
            // finished before the disconnect was seen; either way the
            // server is healthy.
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "query neither finished nor cancelled"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut client = Client::connect(server.addr()).unwrap();
    client.ping().unwrap();
}

#[test]
fn shutdown_is_idempotent_and_drops_cleanly() {
    no_faults();
    let mut server = Server::spawn(table(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.ping().unwrap();
    server.shutdown();
    server.shutdown();
    drop(server);
}
