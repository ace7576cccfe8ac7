//! Plan-optimizer bench: every registered builder, raw vs optimized,
//! written to `results/BENCH_opt.json` (`target/bench-smoke/` under
//! `--smoke`, so CI leaves the tree clean).
//!
//! Per builder over the seeded bench tensor:
//!
//! * **op budget** — lowered op count raw vs default-optimized (the
//!   coalescer and dead-op eliminator only remove or merge ops);
//! * **modelled time** — dry-run makespan raw, under the default
//!   pipeline, and under the cost-model orderer's chosen pipeline
//!   (which may pick the cross-stream batcher where it wins);
//! * **peak memory** — raw vs chosen (the passes must never grow it on
//!   these plans);
//! * **bit identity** — the chosen plan's functional output compared
//!   bit-for-bit against the raw plan's.
//!
//! `opt_bench --smoke` (CI) asserts the acceptance gate: a nonzero
//! op-count reduction with bit-identical output on the pipelined
//! builder, and a modelled-time speedup > 1 on both the pipelined and
//! the out-of-core streaming builders.

use scalfrag_bench::save_bench_json;
use scalfrag_conformance::all_plan_builders;
use scalfrag_exec::{run_plan, ExecMode, Plan};
use scalfrag_kernels::FactorSet;
use scalfrag_opt::{choose_pipeline, optimize_default};
use scalfrag_tensor::gen;

struct Row {
    builder: &'static str,
    raw_ops: usize,
    opt_ops: usize,
    raw_s: f64,
    default_s: f64,
    chosen_s: f64,
    chosen_pipeline: &'static str,
    raw_peak: u64,
    chosen_peak: u64,
    bit_identical: bool,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.raw_s / self.chosen_s
    }
}

fn bits(plan: &Plan) -> Vec<u32> {
    run_plan(plan, ExecMode::Functional).output.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn peak(plan: &Plan) -> u64 {
    run_plan(plan, ExecMode::Dry).mem.iter().map(|m| m.peak_bytes).max().unwrap_or(0)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let dims = [80u32, 56, 40];
    let tensor = gen::zipf_slices(&dims, 6_000, 1.1, 61);
    let factors = FactorSet::random(&dims, 8, 62);
    println!("seed tensor: {:?}, {} nnz, rank {}\n", tensor.dims(), tensor.nnz(), factors.rank());

    let mut rows = Vec::new();
    println!(
        "{:<22} {:>9} {:>12} {:>12} {:>12} {:>8}  {:<8} bit-id",
        "builder", "ops", "raw s", "default s", "chosen s", "speedup", "pipeline"
    );
    for b in all_plan_builders() {
        let plan = (b.build)(&tensor, &factors, 0);
        let default = optimize_default(&plan);
        let choice = choose_pipeline(&plan);
        let chosen = choice.pipeline.apply(&plan);
        let row = Row {
            builder: b.name,
            raw_ops: plan.total_ops(),
            opt_ops: default.total_ops(),
            raw_s: choice.raw_s,
            default_s: run_plan(&default, ExecMode::Dry).makespan(),
            chosen_s: choice.est_s,
            chosen_pipeline: choice.pipeline.name(),
            raw_peak: peak(&plan),
            chosen_peak: peak(&chosen),
            bit_identical: bits(&plan) == bits(&chosen),
        };
        println!(
            "{:<22} {:>4}→{:<4} {:>12.6e} {:>12.6e} {:>12.6e} {:>7.3}x  {:<8} {}",
            row.builder,
            row.raw_ops,
            row.opt_ops,
            row.raw_s,
            row.default_s,
            row.chosen_s,
            row.speedup(),
            row.chosen_pipeline,
            if row.bit_identical { "yes" } else { "NO" }
        );
        rows.push(row);
    }

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"tensor\": {{\"dims\": [{}, {}, {}], \"nnz\": {}, \"rank\": {}}},\n",
        dims[0],
        dims[1],
        dims[2],
        tensor.nnz(),
        factors.rank()
    ));
    json.push_str("  \"builders\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"builder\": \"{}\", \"raw_ops\": {}, \"opt_ops\": {}, \"op_reduction\": {}, \
             \"raw_s\": {:.9e}, \"default_s\": {:.9e}, \"chosen_s\": {:.9e}, \
             \"chosen_pipeline\": \"{}\", \"speedup\": {:.4}, \"raw_peak_bytes\": {}, \
             \"chosen_peak_bytes\": {}, \"bit_identical\": {}}}{}\n",
            r.builder,
            r.raw_ops,
            r.opt_ops,
            r.raw_ops - r.opt_ops,
            r.raw_s,
            r.default_s,
            r.chosen_s,
            r.chosen_pipeline,
            r.speedup(),
            r.raw_peak,
            r.chosen_peak,
            r.bit_identical,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = save_bench_json("opt", smoke, &json).expect("write bench json");
    println!("\nwrote {path}");

    // The acceptance gate, asserted in smoke and full runs alike.
    let mut ok = true;
    let mut gate = |cond: bool, what: &str| {
        if !cond {
            println!("opt_bench: FAIL — {what}");
            ok = false;
        }
    };
    for r in &rows {
        gate(r.bit_identical, &format!("{}: chosen plan output not bit-identical", r.builder));
        gate(
            r.opt_ops <= r.raw_ops,
            &format!("{}: the default pipeline grew the op count", r.builder),
        );
        gate(
            r.chosen_s <= r.raw_s,
            &format!("{}: the orderer chose a slower schedule than raw", r.builder),
        );
    }
    let by_name = |name: &str| rows.iter().find(|r| r.builder == name).expect("builder present");
    let pipelined = by_name("scalfrag-pipelined");
    gate(pipelined.raw_ops > pipelined.opt_ops, "pipelined: no op-count reduction");
    gate(pipelined.speedup() > 1.0, "pipelined: no modelled speedup");
    let oom = by_name("oom-stream");
    gate(oom.speedup() > 1.0, "oom-stream: no modelled speedup");

    if ok {
        println!(
            "opt_bench: PASS (op reduction on pipelined, speedup on pipelined + oom-stream, all \
             bit-identical){}",
            if smoke { " [smoke]" } else { "" }
        );
    } else {
        std::process::exit(1);
    }
}
