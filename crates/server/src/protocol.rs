//! Wire protocol of the query service.
//!
//! Messages ride inside [`Frame`]s (`[u32 LE length][kind u8][payload]`,
//! length-capped at [`rfa_core::wire::MAX_FRAME_LEN`] — see
//! `rfa_core::wire`). The frame `kind` selects the message; the payload
//! is a fixed little-endian layout with length-prefixed strings. Every
//! decoder is *total*: arbitrary bytes produce a typed [`WireError`],
//! never a panic, and no length field is trusted before it is checked
//! against the bytes actually present (so a hostile header cannot make
//! the server over-allocate).
//!
//! `F64` result columns travel as raw IEEE-754 bit patterns
//! ([`f64::to_bits`]), so a result round-tripped through the wire is
//! *bit-identical* to the in-process value — the whole point of the
//! reproducible backends is preserved end to end.

use rfa_core::wire::{Frame, WireError};
use rfa_engine::{SqlColumn, SumBackend};
use std::fmt;
use std::time::Duration;

/// Frame kinds — requests (client → server).
pub const REQ_QUERY: u8 = 0x01;
pub const REQ_CANCEL: u8 = 0x02;
pub const REQ_PING: u8 = 0x03;
/// Frame kinds — responses (server → client).
pub const RESP_RESULT: u8 = 0x81;
pub const RESP_ERROR: u8 = 0x82;
pub const RESP_PONG: u8 = 0x83;

/// Typed failure class of a [`Response::Error`]. The numeric value is
/// the wire encoding; [`ErrorCode::from_u8`] is its total inverse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request was malformed or referenced unknown columns/tables
    /// (parse, resolution and type errors; also malformed payloads on an
    /// otherwise intact connection).
    BadRequest = 1,
    /// Well-formed but outside what the engine executes (e.g. SQL beyond
    /// the supported subset, or a plan with no aggregates).
    Unsupported = 2,
    /// The admission queue was full; the query was never started. Safe
    /// to retry — for reproducible backends a retry returns the same
    /// bits.
    Overloaded = 3,
    /// The query's cancellation token tripped (client `Cancel` frame or
    /// session disconnect).
    Cancelled = 4,
    /// The query ran past its deadline budget.
    DeadlineExceeded = 5,
    /// The worker panicked; the panic was isolated to this query and the
    /// message carries the payload text.
    Internal = 6,
}

impl ErrorCode {
    /// Total decoder: unknown discriminants are a typed wire error.
    pub fn from_u8(v: u8) -> Result<ErrorCode, WireError> {
        Ok(match v {
            1 => ErrorCode::BadRequest,
            2 => ErrorCode::Unsupported,
            3 => ErrorCode::Overloaded,
            4 => ErrorCode::Cancelled,
            5 => ErrorCode::DeadlineExceeded,
            6 => ErrorCode::Internal,
            _ => return Err(WireError::Malformed),
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::BadRequest => "bad request",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::DeadlineExceeded => "deadline exceeded",
            ErrorCode::Internal => "internal",
        };
        f.write_str(s)
    }
}

/// A client → server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Run `sql` against the server's table.
    Query {
        /// Client-chosen correlation id; echoed on the response.
        query_id: u64,
        /// The SQL text (UTF-8).
        sql: String,
        /// Aggregation backend to execute with.
        backend: SumBackend,
        /// Wall-clock budget. `Some(Duration::ZERO)` is an immediate
        /// typed timeout (useful for probing); `None` never expires.
        deadline: Option<Duration>,
        /// Worker budget inside the engine (0 = server default).
        threads: u32,
    },
    /// Cooperatively cancel a previously submitted query. The *query*
    /// answers with [`ErrorCode::Cancelled`]; `Cancel` itself has no
    /// reply and is a no-op for unknown/finished ids.
    Cancel { query_id: u64 },
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
}

/// A server → client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Successful query result.
    Result { query_id: u64, result: ResultSet },
    /// Typed failure. `query_id` 0 marks connection-level errors that
    /// correlate with no particular query (e.g. a malformed payload).
    Error {
        query_id: u64,
        code: ErrorCode,
        message: String,
    },
    /// Liveness reply.
    Pong,
}

/// Named result columns in `SELECT` order, one row per group. Column
/// payloads reuse the engine's [`SqlColumn`] so a decoded result compares
/// directly (and bit-exactly) against an in-process run.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultSet {
    pub names: Vec<String>,
    pub columns: Vec<SqlColumn>,
}

impl ResultSet {
    /// Row count (0 for a result with no columns).
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, SqlColumn::len)
    }

    /// Exact encoded payload size of a [`Response::Result`] carrying this
    /// set. The server checks this against the frame cap *before*
    /// encoding, so an oversized result is a typed error — never a panic
    /// in [`Frame::new`].
    pub fn wire_size(&self) -> usize {
        let mut size = 8 + 4; // query_id + column count
        for (name, col) in self.names.iter().zip(&self.columns) {
            size += 4 + name.len() + 1 + 4 + 8 * col.len();
        }
        size
    }
}

// ---------------------------------------------------------------------
// Encoding primitives
// ---------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Bounds-checked reader over a payload; every `take_*` is total.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn take_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn take_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn take_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Length-prefixed UTF-8 string. The claimed length is validated
    /// against the bytes present *before* any allocation.
    fn take_str(&mut self) -> Result<String, WireError> {
        let len = self.take_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed)
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Malformed);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Backend encoding: tag u8 + levels u8 + buffer u32
// ---------------------------------------------------------------------

fn put_backend(buf: &mut Vec<u8>, b: SumBackend) {
    let (tag, levels, buffer) = match b {
        SumBackend::Double => (0u8, 0u8, 0u32),
        SumBackend::ReproUnbuffered => (1, 0, 0),
        SumBackend::ReproBuffered { buffer_size } => (2, 0, buffer_size as u32),
        SumBackend::Rsum { levels } => (3, levels, 0),
        SumBackend::RsumBuffered {
            levels,
            buffer_size,
        } => (4, levels, buffer_size as u32),
        SumBackend::SortedDouble => (5, 0, 0),
    };
    buf.push(tag);
    buf.push(levels);
    put_u32(buf, buffer);
}

fn take_backend(c: &mut Cursor<'_>) -> Result<SumBackend, WireError> {
    let tag = c.take_u8()?;
    let levels = c.take_u8()?;
    let buffer = c.take_u32()? as usize;
    let backend = match tag {
        0 => SumBackend::Double,
        1 => SumBackend::ReproUnbuffered,
        2 => SumBackend::ReproBuffered {
            buffer_size: buffer,
        },
        3 => SumBackend::Rsum { levels },
        4 => SumBackend::RsumBuffered {
            levels,
            buffer_size: buffer,
        },
        5 => SumBackend::SortedDouble,
        _ => return Err(WireError::Malformed),
    };
    // `levels` is the one backend parameter with invalid values; the
    // engine would only find out by asserting. (`buffer_size` sizes
    // nothing — every value is the same backend.)
    backend.check_levels().map_err(|_| WireError::Malformed)?;
    Ok(backend)
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

impl Request {
    /// Encodes into a [`Frame`] ready for [`Frame::write_to`].
    pub fn encode(&self) -> Frame {
        match self {
            Request::Query {
                query_id,
                sql,
                backend,
                deadline,
                threads,
            } => {
                let mut p = Vec::with_capacity(32 + sql.len());
                put_u64(&mut p, *query_id);
                put_backend(&mut p, *backend);
                // A present flag byte keeps `Some(0)` — the immediate
                // typed timeout — representable and distinct from `None`.
                match deadline {
                    None => {
                        p.push(0);
                        put_u64(&mut p, 0);
                    }
                    Some(d) => {
                        p.push(1);
                        put_u64(&mut p, d.as_millis().min(u128::from(u64::MAX)) as u64);
                    }
                }
                put_u32(&mut p, *threads);
                put_str(&mut p, sql);
                Frame::new(REQ_QUERY, p)
            }
            Request::Cancel { query_id } => {
                let mut p = Vec::with_capacity(8);
                put_u64(&mut p, *query_id);
                Frame::new(REQ_CANCEL, p)
            }
            Request::Ping => Frame::new(REQ_PING, Vec::new()),
        }
    }

    /// Total decoder for a request frame.
    pub fn decode(frame: &Frame) -> Result<Request, WireError> {
        let mut c = Cursor::new(&frame.payload);
        let req = match frame.kind {
            REQ_QUERY => {
                let query_id = c.take_u64()?;
                let backend = take_backend(&mut c)?;
                let flag = c.take_u8()?;
                let ms = c.take_u64()?;
                let deadline = match flag {
                    0 => None,
                    1 => Some(Duration::from_millis(ms)),
                    _ => return Err(WireError::Malformed),
                };
                let threads = c.take_u32()?;
                let sql = c.take_str()?;
                Request::Query {
                    query_id,
                    sql,
                    backend,
                    deadline,
                    threads,
                }
            }
            REQ_CANCEL => Request::Cancel {
                query_id: c.take_u64()?,
            },
            REQ_PING => Request::Ping,
            _ => return Err(WireError::Malformed),
        };
        c.finish()?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

/// Column tags on the wire.
const COL_I64: u8 = 0;
const COL_U64: u8 = 1;
const COL_F64: u8 = 2;

fn put_column(buf: &mut Vec<u8>, name: &str, col: &SqlColumn) {
    put_str(buf, name);
    match col {
        SqlColumn::I64(v) => {
            buf.push(COL_I64);
            put_u32(buf, v.len() as u32);
            for &x in v {
                put_u64(buf, x as u64);
            }
        }
        SqlColumn::U64(v) => {
            buf.push(COL_U64);
            put_u32(buf, v.len() as u32);
            for &x in v {
                put_u64(buf, x);
            }
        }
        SqlColumn::F64(v) => {
            buf.push(COL_F64);
            put_u32(buf, v.len() as u32);
            for &x in v {
                // Bit pattern, not a textual round-trip: reproducibility
                // survives the wire.
                put_u64(buf, x.to_bits());
            }
        }
    }
}

fn take_column(c: &mut Cursor<'_>) -> Result<(String, SqlColumn), WireError> {
    let name = c.take_str()?;
    let tag = c.take_u8()?;
    let rows = c.take_u32()? as usize;
    // Every row is 8 bytes: validate the claimed count against the bytes
    // actually present before allocating.
    if c.remaining() / 8 < rows {
        return Err(WireError::Truncated);
    }
    let col = match tag {
        COL_I64 => {
            let mut v = Vec::with_capacity(rows);
            for _ in 0..rows {
                v.push(c.take_u64()? as i64);
            }
            SqlColumn::I64(v)
        }
        COL_U64 => {
            let mut v = Vec::with_capacity(rows);
            for _ in 0..rows {
                v.push(c.take_u64()?);
            }
            SqlColumn::U64(v)
        }
        COL_F64 => {
            let mut v = Vec::with_capacity(rows);
            for _ in 0..rows {
                v.push(f64::from_bits(c.take_u64()?));
            }
            SqlColumn::F64(v)
        }
        _ => return Err(WireError::Malformed),
    };
    Ok((name, col))
}

impl Response {
    /// Encodes into a [`Frame`] ready for [`Frame::write_to`].
    pub fn encode(&self) -> Frame {
        match self {
            Response::Result { query_id, result } => {
                let mut p = Vec::with_capacity(64);
                put_u64(&mut p, *query_id);
                put_u32(&mut p, result.columns.len() as u32);
                for (name, col) in result.names.iter().zip(&result.columns) {
                    put_column(&mut p, name, col);
                }
                Frame::new(RESP_RESULT, p)
            }
            Response::Error {
                query_id,
                code,
                message,
            } => {
                let mut p = Vec::with_capacity(16 + message.len());
                put_u64(&mut p, *query_id);
                p.push(*code as u8);
                put_str(&mut p, message);
                Frame::new(RESP_ERROR, p)
            }
            Response::Pong => Frame::new(RESP_PONG, Vec::new()),
        }
    }

    /// Total decoder for a response frame.
    pub fn decode(frame: &Frame) -> Result<Response, WireError> {
        let mut c = Cursor::new(&frame.payload);
        let resp = match frame.kind {
            RESP_RESULT => {
                let query_id = c.take_u64()?;
                let ncols = c.take_u32()? as usize;
                // Each column costs at least 9 bytes (empty name, tag,
                // row count): cap the claimed count before allocating.
                if c.remaining() / 9 < ncols {
                    return Err(WireError::Truncated);
                }
                let mut names = Vec::with_capacity(ncols);
                let mut columns = Vec::with_capacity(ncols);
                for _ in 0..ncols {
                    let (name, col) = take_column(&mut c)?;
                    names.push(name);
                    columns.push(col);
                }
                Response::Result {
                    query_id,
                    result: ResultSet { names, columns },
                }
            }
            RESP_ERROR => {
                let query_id = c.take_u64()?;
                let code = ErrorCode::from_u8(c.take_u8()?)?;
                let message = c.take_str()?;
                Response::Error {
                    query_id,
                    code,
                    message,
                }
            }
            RESP_PONG => Response::Pong,
            _ => return Err(WireError::Malformed),
        };
        c.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let frame = req.encode();
        assert_eq!(Request::decode(&frame).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let frame = resp.encode();
        assert_eq!(Response::decode(&frame).unwrap(), resp);
    }

    #[test]
    fn request_roundtrips() {
        for backend in [
            SumBackend::Double,
            SumBackend::ReproUnbuffered,
            SumBackend::ReproBuffered { buffer_size: 1024 },
            SumBackend::Rsum { levels: 3 },
            SumBackend::RsumBuffered {
                levels: 4,
                buffer_size: 64,
            },
            SumBackend::SortedDouble,
        ] {
            for deadline in [None, Some(Duration::ZERO), Some(Duration::from_millis(250))] {
                roundtrip_req(Request::Query {
                    query_id: 7,
                    sql: "SELECT SUM(l_quantity) FROM lineitem".into(),
                    backend,
                    deadline,
                    threads: 8,
                });
            }
        }
        roundtrip_req(Request::Cancel { query_id: 42 });
        roundtrip_req(Request::Ping);
    }

    #[test]
    fn zero_deadline_stays_distinct_from_none() {
        let some = Request::Query {
            query_id: 1,
            sql: "SELECT COUNT(*) FROM t".into(),
            backend: SumBackend::ReproUnbuffered,
            deadline: Some(Duration::ZERO),
            threads: 0,
        };
        let frame = some.encode();
        match Request::decode(&frame).unwrap() {
            Request::Query { deadline, .. } => assert_eq!(deadline, Some(Duration::ZERO)),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn response_roundtrips_bit_exact_f64() {
        let tricky = vec![0.1 + 0.2, -0.0, f64::MIN_POSITIVE, 1e308];
        roundtrip_resp(Response::Result {
            query_id: 9,
            result: ResultSet {
                names: vec!["k".into(), "s".into(), "c".into()],
                columns: vec![
                    SqlColumn::I64(vec![-1, 0, 7]),
                    SqlColumn::F64(tricky),
                    SqlColumn::U64(vec![u64::MAX, 0, 1]),
                ],
            },
        });
        roundtrip_resp(Response::Error {
            query_id: 3,
            code: ErrorCode::DeadlineExceeded,
            message: "query exceeded its 10ms deadline".into(),
        });
        roundtrip_resp(Response::Pong);
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A result frame claiming 2^31 columns in a 16-byte payload must
        // be rejected by the remaining-bytes check, not by attempting a
        // multi-gigabyte Vec::with_capacity.
        let mut p = Vec::new();
        put_u64(&mut p, 1);
        put_u32(&mut p, u32::MAX);
        let frame = Frame::new(RESP_RESULT, p);
        assert_eq!(Response::decode(&frame), Err(WireError::Truncated));

        // Same for a column claiming more rows than bytes present.
        let mut p = Vec::new();
        put_u64(&mut p, 1);
        put_u32(&mut p, 1);
        put_str(&mut p, "s");
        p.push(COL_F64);
        put_u32(&mut p, u32::MAX);
        let frame = Frame::new(RESP_RESULT, p);
        assert_eq!(Response::decode(&frame), Err(WireError::Truncated));
    }

    #[test]
    fn every_backend_byte_pair_decodes_to_a_runnable_backend_or_is_malformed() {
        use rfa_engine::{sql_query, Column, ExecOptions, SqlColumn, Table};

        let mut table = Table::new("t");
        table
            .add_column("x", Column::F64(vec![0.5, 1.25, -3.0].into()))
            .unwrap();
        let query = sql_query("SELECT SUM(x) FROM t", &table).unwrap();
        let mut decoded = 0;
        for tag in 0..=u8::MAX {
            for levels in 0..=u8::MAX {
                let mut p = Vec::new();
                put_u64(&mut p, 1);
                p.extend([tag, levels]);
                put_u32(&mut p, u32::MAX); // buffer_size: sizes nothing
                p.push(0);
                put_u64(&mut p, 0);
                put_u32(&mut p, 1);
                put_str(&mut p, "SELECT SUM(x) FROM t");
                let backend = match Request::decode(&Frame::new(REQ_QUERY, p)) {
                    Ok(Request::Query { backend, .. }) => backend,
                    Ok(other) => panic!("decoded a query frame to {other:?}"),
                    Err(e) => {
                        assert_eq!(e, WireError::Malformed, "tag {tag} levels {levels}");
                        continue;
                    }
                };
                decoded += 1;
                // Whatever decodes must execute — never reach the state
                // constructor's `levels` assert — and every backend adds
                // these three values exactly.
                match query.execute(&table, backend, &ExecOptions::serial()) {
                    Ok(r) => assert_eq!(r.columns, [SqlColumn::F64(vec![-1.25])], "{backend:?}"),
                    Err(e) => panic!("tag {tag} levels {levels}: {e}"),
                }
            }
        }
        // Tags 0, 1, 2, 5 ignore the levels byte; 3 and 4 take 1..=4.
        assert_eq!(decoded, 4 * 256 + 2 * 4);
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut frame = Request::Ping.encode();
        frame.payload.push(0);
        assert_eq!(Request::decode(&frame), Err(WireError::Malformed));
    }
}
