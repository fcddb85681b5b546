//! Figure 9 — HASHAGGREGATION variants with different amounts of
//! partitioning (d = 0, 1, 2) on `repro<float, 2>` with summation buffers.
//!
//! Paper shape: each extra partitioning level costs a constant; it pays
//! off once the group count makes the unpartitioned working set fall out
//! of cache — crossovers at ~2^10 groups (d0→d1) and ~2^18 (d1→d2),
//! i.e. 2^10 groups per partition either way.

use rfa_agg::BufferedReproAgg;
use rfa_bench::{f2, runner::groupby_ns, BenchConfig, ResultTable};
use rfa_core::CacheModel;
use rfa_workloads::{GroupedPairs, ValueDist};

fn main() {
    let cfg = BenchConfig::from_env();
    let model = CacheModel::default();
    let max_exp = cfg.max_group_exp();

    let mut table = ResultTable::new(
        format!(
            "Figure 9: repro<float,2> buffered, ns/elem by partition depth, n = 2^{}",
            cfg.n.trailing_zeros()
        ),
        &[
            "log2(groups)",
            "d=0",
            "d=1",
            "d=2",
            "Eq4 bsz(d=0)",
            "model depth",
        ],
    );

    for ge in (0..=max_exp).step_by(2) {
        let groups = 1u32 << ge;
        let g = groups as usize;
        let w = GroupedPairs::generate(cfg.n, groups, ValueDist::Uniform01, 10 + ge as u64);
        let v32 = w.values_f32();
        let mut row = vec![ge.to_string()];
        for d in 0..=2u32 {
            // Buffer size per Eq. 4 for this depth.
            let bsz = model.buffer_size(g, 4, d);
            let f = BufferedReproAgg::<f32, 2>::new(bsz);
            row.push(f2(groupby_ns(&f, &w.keys, &v32, d, g, cfg.reps)));
        }
        row.push(model.buffer_size(g, 4, 0).to_string());
        row.push(model.partition_depth(g, 4).to_string());
        table.row(row);
    }
    table.print();
    table.write_csv("fig9_partition_depth");
    println!(
        "  paper shape: d=0 fastest for few groups; d=1 wins beyond ~2^10 groups;\n  \
         d=2 wins beyond ~2^18 (same 2^10-per-partition threshold); the 'model depth'\n  \
         column shows the Eq. 4 cache model's offline choice."
    );
}
