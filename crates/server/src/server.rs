//! The query service: acceptor, sessions, bounded admission, workers.
//!
//! ## Threading model
//!
//! One *acceptor* thread accepts TCP connections; each connection gets a
//! *reader* thread (the session); a fixed pool of *worker* threads drains
//! a bounded admission queue. Readers never execute queries — they
//! decode, admit, answer pings and route cancellations, so a session
//! stays responsive (in particular to `Cancel`) while its queries run.
//!
//! ## Hardening invariants
//!
//! * **Bounded admission**: the job queue is a `sync_channel` of
//!   configurable depth; when it is full the query is rejected with a
//!   typed [`ErrorCode::Overloaded`] *before* any work starts. Nothing
//!   ever blocks the reader on a full queue.
//! * **Deadlines + cancellation are cooperative and typed**: both ride
//!   the engine's `ExecOptions` and surface as
//!   [`ErrorCode::DeadlineExceeded`] / [`ErrorCode::Cancelled`] — never
//!   a panic, never a killed thread.
//! * **Panic isolation**: each query runs under
//!   `catch_unwind(AssertUnwindSafe(..))`. A poisoned query (including
//!   injected faults from `rfa_core::faults`) answers
//!   [`ErrorCode::Internal`] with the payload text; the worker thread,
//!   the session and the server all survive.
//! * **Protocol errors cannot kill the server**: malformed payloads on
//!   an intact connection answer a typed error; broken framing drops
//!   only that connection (after a best-effort error reply).
//!
//! Because every aggregation backend except `Double` merges exactly, a
//! cancelled or rejected query that is retried returns *bit-identical*
//! results — robustness machinery cannot perturb result bits (see
//! DESIGN.md).

use crate::protocol::{ErrorCode, Request, Response, ResultSet};
use rfa_core::wire::{Frame, MAX_FRAME_LEN};
use rfa_core::CancelToken;
use rfa_engine::{ExecOptions, PlanCache, PlanError, SqlError, SumBackend, Table};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Sizing of the service, env-tunable like every other knob in the
/// workspace (same typed-error contract — see `rfa_core::knob`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads draining the admission queue.
    pub workers: usize,
    /// Depth of the bounded admission queue; queries beyond
    /// `workers + queue_depth` in flight are rejected as `Overloaded`.
    pub queue_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_depth: 16,
        }
    }
}

impl ServerConfig {
    /// Reads `RFA_SERVER_WORKERS` / `RFA_SERVER_QUEUE` (integers ≥ 1;
    /// unset or empty keeps the default). Garbage is a typed
    /// [`rfa_core::KnobError`], never a silent fallback.
    pub fn from_env() -> Result<Self, rfa_core::KnobError> {
        let mut cfg = ServerConfig::default();
        let expected = "an integer >= 1 (or empty/unset for the default)";
        let positive = |s: &str| s.parse::<usize>().ok().filter(|&n| n >= 1);
        if let Some(n) = rfa_core::knob::env_knob("RFA_SERVER_WORKERS", expected, positive)? {
            cfg.workers = n;
        }
        if let Some(n) = rfa_core::knob::env_knob("RFA_SERVER_QUEUE", expected, positive)? {
            cfg.queue_depth = n;
        }
        Ok(cfg)
    }
}

/// Monotonic counters, snapshotted by [`Server::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Queries admitted to the queue.
    pub accepted: u64,
    /// Queries that completed with a result.
    pub completed: u64,
    /// Queries rejected because the admission queue was full.
    pub rejected_overload: u64,
    /// Queries that ended via cooperative cancellation.
    pub cancelled: u64,
    /// Queries that ran past their deadline budget.
    pub deadline_expired: u64,
    /// Worker panics caught and converted to `Internal` errors.
    pub panics_isolated: u64,
    /// Malformed frames or payloads received.
    pub protocol_errors: u64,
}

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    completed: AtomicU64,
    rejected_overload: AtomicU64,
    cancelled: AtomicU64,
    deadline_expired: AtomicU64,
    panics_isolated: AtomicU64,
    protocol_errors: AtomicU64,
}

impl Counters {
    fn bump(c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> ServerStats {
        ServerStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected_overload: self.rejected_overload.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            panics_isolated: self.panics_isolated.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
        }
    }
}

/// Per-connection state shared between the reader and the workers.
struct Session {
    /// Write half (a `try_clone` of the stream); one response at a time.
    writer: Mutex<TcpStream>,
    /// Prepared-plan cache — per session, like a real connection's
    /// prepared statements.
    cache: PlanCache,
    /// Cancellation tokens of queries admitted but not yet answered.
    /// Disconnect cancels them all.
    active: Mutex<HashMap<u64, CancelToken>>,
}

impl Session {
    /// Best-effort response write; a vanished client is not an error.
    fn send(&self, resp: &Response) {
        let frame = resp.encode();
        let mut w = self.writer.lock().unwrap();
        let _ = frame.write_to(&mut *w);
    }

    fn send_error(&self, query_id: u64, code: ErrorCode, message: impl Into<String>) {
        self.send(&Response::Error {
            query_id,
            code,
            message: message.into(),
        });
    }
}

/// One admitted query.
struct Job {
    query_id: u64,
    sql: String,
    backend: SumBackend,
    deadline: Option<Duration>,
    threads: u32,
    cancel: CancelToken,
    session: Arc<Session>,
}

/// A running query service bound to one table. Dropping the handle shuts
/// the service down (idempotent; [`Server::shutdown`] does it eagerly).
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    counters: Arc<Counters>,
    acceptor: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
    // Kept so sessions can clone it; dropped on shutdown.
    job_tx: Option<SyncSender<Job>>,
}

impl Server {
    /// Binds `127.0.0.1:<ephemeral>` and starts the acceptor and worker
    /// threads. The served table is fixed for the server's lifetime.
    pub fn spawn(table: Arc<Table>, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());

        let (job_tx, job_rx) = mpsc::sync_channel::<Job>(config.queue_depth.max(1));
        let job_rx = Arc::new(Mutex::new(job_rx));

        let workers = (0..config.workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&job_rx);
                let table = Arc::clone(&table);
                let counters = Arc::clone(&counters);
                let shutdown = Arc::clone(&shutdown);
                thread::Builder::new()
                    .name(format!("rfa-server-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &table, &counters, &shutdown))
                    .expect("spawn worker thread")
            })
            .collect();

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let counters = Arc::clone(&counters);
            let tx = job_tx.clone();
            thread::Builder::new()
                .name("rfa-server-accept".into())
                .spawn(move || accept_loop(&listener, &tx, &counters, &shutdown))
                .expect("spawn acceptor thread")
        };

        Ok(Server {
            addr,
            shutdown,
            counters,
            acceptor: Some(acceptor),
            workers,
            job_tx: Some(job_tx),
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> ServerStats {
        self.counters.snapshot()
    }

    /// Stops accepting, drains the workers and joins them. Reader
    /// threads of still-open sessions exit when their client disconnects.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor's blocking `accept`.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        self.job_tx = None;
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    job_tx: &SyncSender<Job>,
    counters: &Arc<Counters>,
    shutdown: &Arc<AtomicBool>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(writer) = stream.try_clone() else {
            continue;
        };
        let session = Arc::new(Session {
            writer: Mutex::new(writer),
            cache: PlanCache::new(),
            active: Mutex::new(HashMap::new()),
        });
        let tx = job_tx.clone();
        let counters = Arc::clone(counters);
        // Detached on purpose: the reader exits when its client
        // disconnects (or its framing breaks), and holds nothing the
        // server needs back.
        let _ = thread::Builder::new()
            .name("rfa-server-session".into())
            .spawn(move || session_loop(stream, &session, &tx, &counters));
    }
}

fn session_loop(
    mut stream: TcpStream,
    session: &Arc<Session>,
    job_tx: &SyncSender<Job>,
    counters: &Arc<Counters>,
) {
    loop {
        let frame = match Frame::read_from(&mut stream) {
            Ok(Some(frame)) => frame,
            // Clean disconnect at a frame boundary.
            Ok(None) => break,
            // Broken framing (truncated mid-frame, hostile length, raw
            // IO failure): best-effort typed error, then drop only this
            // connection.
            Err(e) => {
                Counters::bump(&counters.protocol_errors);
                session.send_error(0, ErrorCode::BadRequest, format!("broken framing: {e}"));
                break;
            }
        };
        match Request::decode(&frame) {
            Ok(Request::Ping) => session.send(&Response::Pong),
            Ok(Request::Cancel { query_id }) => {
                // No reply: the cancelled query itself answers
                // `Cancelled`. Unknown/finished ids are a no-op.
                if let Some(token) = session.active.lock().unwrap().get(&query_id) {
                    token.cancel();
                }
            }
            Ok(Request::Query {
                query_id,
                sql,
                backend,
                deadline,
                threads,
            }) => {
                let cancel = CancelToken::new();
                session
                    .active
                    .lock()
                    .unwrap()
                    .insert(query_id, cancel.clone());
                let job = Job {
                    query_id,
                    sql,
                    backend,
                    deadline,
                    threads,
                    cancel,
                    session: Arc::clone(session),
                };
                match job_tx.try_send(job) {
                    Ok(()) => Counters::bump(&counters.accepted),
                    // Queue full: typed rejection before any work. The
                    // query never ran, so retrying it cannot change any
                    // result bits.
                    Err(TrySendError::Full(job)) | Err(TrySendError::Disconnected(job)) => {
                        session.active.lock().unwrap().remove(&query_id);
                        Counters::bump(&counters.rejected_overload);
                        job.session.send_error(
                            query_id,
                            ErrorCode::Overloaded,
                            "admission queue full; retry later",
                        );
                    }
                }
            }
            // A malformed payload inside an intact frame: the connection
            // is still synchronized, so answer and keep serving it.
            Err(e) => {
                Counters::bump(&counters.protocol_errors);
                session.send_error(0, ErrorCode::BadRequest, format!("malformed request: {e}"));
            }
        }
    }
    // Disconnect cancels everything the session still has in flight.
    for token in session.active.lock().unwrap().values() {
        token.cancel();
    }
}

fn worker_loop(
    job_rx: &Mutex<Receiver<Job>>,
    table: &Arc<Table>,
    counters: &Counters,
    shutdown: &AtomicBool,
) {
    loop {
        // Hold the lock only for the dequeue, never during execution.
        let polled = {
            let rx = job_rx.lock().unwrap();
            rx.recv_timeout(Duration::from_millis(50))
        };
        match polled {
            Ok(job) => run_job(job, table, counters),
            Err(RecvTimeoutError::Timeout) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn run_job(job: Job, table: &Arc<Table>, counters: &Counters) {
    let mut opts = if job.threads == 0 {
        ExecOptions::parallel()
    } else {
        ExecOptions {
            threads: job.threads as usize,
            ..ExecOptions::default()
        }
    };
    opts.deadline = job.deadline;
    opts.cancel = Some(job.cancel.clone());

    // The *only* unwinding boundary: a panic anywhere in resolution or
    // execution (including injected faults) poisons this query alone.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let query = job.session.cache.get_or_resolve(&job.sql, table)?;
        query.execute(table, job.backend, &opts)
    }));

    job.session.active.lock().unwrap().remove(&job.query_id);

    match outcome {
        Ok(Ok(result)) => {
            let set = ResultSet {
                names: result.names,
                columns: result.columns,
            };
            if set.wire_size() >= MAX_FRAME_LEN as usize {
                job.session.send_error(
                    job.query_id,
                    ErrorCode::Unsupported,
                    format!(
                        "result set of {} rows exceeds the {} byte frame cap",
                        set.rows(),
                        MAX_FRAME_LEN
                    ),
                );
                return;
            }
            Counters::bump(&counters.completed);
            job.session.send(&Response::Result {
                query_id: job.query_id,
                result: set,
            });
        }
        Ok(Err(err)) => {
            let code = classify(&err);
            match code {
                ErrorCode::Cancelled => Counters::bump(&counters.cancelled),
                ErrorCode::DeadlineExceeded => Counters::bump(&counters.deadline_expired),
                _ => {}
            }
            job.session.send_error(job.query_id, code, err.to_string());
        }
        Err(payload) => {
            Counters::bump(&counters.panics_isolated);
            // `&*` matters: `&payload` would coerce the *Box* itself to
            // `&dyn Any` and every downcast would miss.
            job.session
                .send_error(job.query_id, ErrorCode::Internal, panic_text(&*payload));
        }
    }
}

/// Maps engine errors onto wire error codes.
fn classify(err: &SqlError) -> ErrorCode {
    match err {
        SqlError::Plan(PlanError::Cancelled) => ErrorCode::Cancelled,
        SqlError::Plan(PlanError::DeadlineExceeded { .. }) => ErrorCode::DeadlineExceeded,
        SqlError::Plan(PlanError::Unsupported(_)) | SqlError::Unsupported(_) => {
            ErrorCode::Unsupported
        }
        _ => ErrorCode::BadRequest,
    }
}

/// Extracts a panic payload's text. Both shapes occur: `&str` from
/// literal-only `panic!`s (const-folded format args) and `String` from
/// runtime-formatted ones.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked (non-string payload)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_and_env_errors_are_typed() {
        let cfg = ServerConfig::default();
        assert!(cfg.workers >= 1 && cfg.queue_depth >= 1);

        let err =
            rfa_core::knob::parse_knob("RFA_SERVER_WORKERS", "an integer >= 1", "zero", |s| {
                s.parse::<usize>().ok().filter(|&n| n >= 1)
            })
            .unwrap_err();
        assert_eq!(err.var, "RFA_SERVER_WORKERS");
        assert_eq!(err.value, "zero");
    }

    #[test]
    fn classify_maps_plan_errors_to_wire_codes() {
        assert_eq!(
            classify(&SqlError::Plan(PlanError::Cancelled)),
            ErrorCode::Cancelled
        );
        assert_eq!(
            classify(&SqlError::Plan(PlanError::DeadlineExceeded {
                deadline: Duration::ZERO
            })),
            ErrorCode::DeadlineExceeded
        );
        assert_eq!(
            classify(&SqlError::Plan(PlanError::Unsupported(
                "plan has no aggregates"
            ))),
            ErrorCode::Unsupported
        );
        assert_eq!(
            classify(&SqlError::Unsupported("no HAVING".into())),
            ErrorCode::Unsupported
        );
        assert_eq!(
            classify(&SqlError::Parse {
                pos: 0,
                message: "x".into()
            }),
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn panic_text_handles_both_payload_shapes() {
        let s: Box<dyn std::any::Any + Send> = Box::new("static payload");
        assert_eq!(panic_text(s.as_ref()), "static payload");
        let s: Box<dyn std::any::Any + Send> = Box::new(String::from("runtime payload"));
        assert_eq!(panic_text(s.as_ref()), "runtime payload");
        let s: Box<dyn std::any::Any + Send> = Box::new(17u32);
        assert!(panic_text(s.as_ref()).contains("non-string"));
    }
}
