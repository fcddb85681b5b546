//! A minimal SQL shell over the engine: pass a query on the command
//! line, get a result table — every aggregate running on the
//! reproducible SUM backend, so the answer is a function of the data's
//! *logical* content, never its physical row order.
//!
//! ```text
//! cargo run --release --example sql_cli -- \
//!     "SELECT l_returnflag, l_linestatus, SUM(l_quantity), COUNT(*) \
//!      FROM lineitem GROUP BY l_returnflag, l_linestatus"
//! ```
//!
//! With no argument it runs the pinned TPC-H Q1, Q6 and Q15 texts.
//! Knobs: `RFA_ROWS` (table size, default 200 000), `RFA_THREADS`
//! (worker pool). Errors — parse, unknown column, type mismatch — print
//! as one-line diagnostics, never panics.

use rfa::engine::{lineitem_table, q15_sql, q1_sql, q6_sql, sql_query, ExecOptions, SumBackend};
use rfa::workloads::Lineitem;

fn main() {
    let rows = rfa::core::knob::env_knob("RFA_ROWS", "an integer >= 1", |v| {
        v.parse::<usize>().ok().filter(|&n| n >= 1)
    })
    .unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
    .unwrap_or(200_000);
    let lineitem = Lineitem::generate(rows, 42);
    let table = lineitem_table(&lineitem);
    println!(
        "table \"lineitem\" ({} rows); schema: {}",
        rows,
        table
            .schema()
            .map(|(n, ty)| format!("{n} {ty}"))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let args: Vec<String> = std::env::args().skip(1).collect();
    let queries: Vec<String> = if args.is_empty() {
        vec![q1_sql(), q6_sql(), q15_sql()]
    } else {
        vec![args.join(" ")]
    };

    let backend = SumBackend::RsumBuffered {
        levels: 2,
        buffer_size: 1024,
    };
    let mut failed = false;
    for sql in &queries {
        println!("\nsql> {sql}");
        match run_one(sql, &table, backend) {
            Ok(()) => {}
            Err(msg) => {
                failed = true;
                println!("error: {msg}");
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn run_one(sql: &str, table: &rfa::engine::Table, backend: SumBackend) -> Result<(), String> {
    let query = sql_query(sql, table).map_err(|e| e.to_string())?;
    let result = query
        .execute(table, backend, &ExecOptions::parallel())
        .map_err(|e| e.to_string())?;

    // Render an aligned table: header = output column names.
    let headers = query.column_names();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    let mut cells: Vec<Vec<String>> = Vec::with_capacity(result.rows);
    let shown = result.rows.min(20);
    for row in 0..shown {
        let line: Vec<String> = result.columns.iter().map(|c| c.render(row)).collect();
        for (w, c) in widths.iter_mut().zip(&line) {
            *w = (*w).max(c.len());
        }
        cells.push(line);
    }
    let fmt_row = |cells: &[String], widths: &[usize]| {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header: Vec<String> = headers.to_vec();
    println!("  {}", fmt_row(&header, &widths));
    println!(
        "  {}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for line in &cells {
        println!("  {}", fmt_row(line, &widths));
    }
    if result.rows > shown {
        println!("  ... ({} rows total)", result.rows);
    }
    println!(
        "  [{} rows in {:.2} ms: scan {:.2} ms, aggregation {:.2} ms, other {:.2} ms]",
        result.rows,
        result.timing.total().as_secs_f64() * 1e3,
        result.timing.scan.as_secs_f64() * 1e3,
        result.timing.aggregation.as_secs_f64() * 1e3,
        result.timing.other.as_secs_f64() * 1e3,
    );
    Ok(())
}
