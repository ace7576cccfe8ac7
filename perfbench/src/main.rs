//! The ScalFrag benchmark: runs one named workload through the program's
//! public entry points, checks its outputs, and prints every metric by
//! name with unit and clock. The last line of standard output is the
//! result object `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-skewed --seed 1 --seconds 10 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with tracing off.
//! `--trace 1` runs the same workload and then traced passes, and prints
//! the per-layer metrics. See `README.md` for every metric's meaning.

mod cpd;
mod metrics;
mod serve;

use metrics::{Metrics, Spec, END_TO_END, PER_LAYER};
use scalfrag_linalg::Mat;
use std::process::ExitCode;

/// MTTKRP output tolerance: the tiled-kernel tests' absolute `1e-3`.
pub const MTTKRP_TOL: f32 = 1e-3;

/// `out` matches `expect` within [`MTTKRP_TOL`], scaled by the output's
/// largest magnitude where that exceeds 1.
pub fn outputs_match(out: &Mat, expect: &Mat) -> bool {
    let scale = expect.as_slice().iter().fold(1.0f32, |m, v| m.max(v.abs()));
    out.rows() == expect.rows() && out.max_abs_diff(expect) <= MTTKRP_TOL * scale
}

/// How far the traced accounting may drift: layer busy times plus self
/// times must lie within the range of the untraced repetitions' wall
/// times widened by this share, and no self time may be below minus this
/// share of the median wall time.
pub const ACCOUNT_TOL: f64 = 0.25;
/// How far one facade call's replayed layer calls may be from the call's
/// own wall time in the self-test.
pub const FACADE_TOL: f64 = 0.15;

pub const WORKLOADS: [&str; 3] = ["serve-skewed", "serve-fused", "cpd-nell2"];

/// Host pool threads every workload runs with. On a shared two-core
/// machine a second worker makes no workload faster, and a join then
/// waits on whichever core a neighbour slows, which swings wall times by a
/// third between runs; one thread keeps them steady.
pub const HOST_THREADS: usize = 1;

pub struct RunOpts {
    pub seconds: f64,
    pub trace: bool,
    /// Apply the traced time-accounting check (off for the self-test's
    /// tiny inputs, whose calls take microseconds and sit in cache).
    pub check_accounting: bool,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Timed samples behind the medians and percentiles (repetitions for
    /// serving, facade calls for CPD).
    pub samples: usize,
}

/// 1 when the traced time accounting is outside [`ACCOUNT_TOL`] of the
/// untraced repetitions' wall times `walls`.
pub fn accounting_failures(
    opts: &RunOpts,
    self_times: &[f64],
    accounted: f64,
    walls: &[f64],
) -> u64 {
    if !opts.check_accounting {
        return 0;
    }
    let lo = walls.iter().copied().fold(f64::INFINITY, f64::min) * (1.0 - ACCOUNT_TOL);
    let hi = walls.iter().copied().fold(0.0, f64::max) * (1.0 + ACCOUNT_TOL);
    let floor = -ACCOUNT_TOL * metrics::median(walls);
    let bad = !(lo..=hi).contains(&accounted) || self_times.iter().any(|&s| s < floor);
    if bad {
        eprintln!("time accounting off: {accounted:.3}s outside [{lo:.3}, {hi:.3}] or self times {self_times:?} below {floor:.3}");
    }
    u64::from(bad)
}

fn run_workload(name: &str, seed: u64, tiny: bool, opts: &RunOpts) -> Outcome {
    match name {
        "serve-skewed" => serve::run(&serve::skewed(seed, tiny), opts),
        "serve-fused" => serve::run(&serve::fused(seed, tiny), opts),
        "cpd-nell2" => cpd::run(&cpd::nell2(seed, tiny), opts),
        _ => unreachable!("workload names are checked when parsing"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, self_test: false };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            a.self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !a.self_test && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(a.seconds.is_finite() && a.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(a)
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Prints the metric table, the run metadata and, last, the result object.
fn report(args: &Args, out: Outcome, table: &'static [Spec]) {
    let values = out.metrics.finish(table);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = scalfrag_host::current_num_threads();
    println!(
        "workload {} | seed {} | trace {} | {} timed samples",
        args.workload,
        args.seed,
        u8::from(args.trace),
        out.samples
    );
    println!("{:<36} {:>16} {:<8} clock", "metric", "value", "unit");
    for (s, v) in &values {
        println!("{:<36} {:>16.6} {:<8} {}", s.name, v, s.unit, s.clock.name());
    }
    let clocks: Vec<String> = values
        .iter()
        .map(|(s, _)| format!("{}: {}", json_str(s.name), json_str(s.clock.name())))
        .collect();
    println!(
        "meta {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"mode\": \"full\", \
         \"cores\": {cores}, \"host_threads\": {threads}, \"git_commit\": {}, \"samples\": {}, \
         \"clocks\": {{{}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&git_commit()),
        out.samples,
        clocks.join(", ")
    );
    println!("{}", result_line(&values, out.attempted, out.failed));
}

/// The result object the benchmark prints last.
fn result_line(values: &[(&Spec, f64)], attempted: u64, failed: u64) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(s, v)| {
            format!("{}: {{\"value\": {v:?}, \"unit\": {}}}", json_str(s.name), json_str(s.unit))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

/// Whether `line` holds `spec` exactly once, with a finite value and a
/// non-empty unit.
fn printed_once(line: &str, spec: &Spec) -> bool {
    let key = format!("{}: {{\"value\": ", json_str(spec.name));
    let value = line.split(&key).nth(1).and_then(|rest| rest.split(',').next());
    line.matches(&key).count() == 1
        && value.and_then(|v| v.parse::<f64>().ok()).is_some_and(f64::is_finite)
        && !spec.unit.is_empty()
}

/// Metric names listed in `BENCHMARK.json` under `section`.
fn benchmark_json_names(text: &str, section: &str) -> Vec<String> {
    let Some(start) = text.find(&format!("\"{section}\"")) else { return Vec::new() };
    let body = &text[start..];
    let end = body.find(']').unwrap_or(body.len());
    body[..end]
        .split("\"name\"")
        .skip(1)
        .filter_map(|s| s.split('"').nth(1).map(str::to_string))
        .collect()
}

/// The tiny mode: every workload at self-test size with and without
/// tracing must set each metric of its table exactly once to a finite
/// value with a unit and pass its checks; one facade call's replayed layer
/// calls must add up to the call's wall time within [`FACADE_TOL`] (the
/// median share over paired calls and replays); and
/// `BENCHMARK.json`, when present, must list the same metrics.
fn self_test() -> bool {
    let mut ok = true;
    for name in WORKLOADS {
        for trace in [false, true] {
            let out = run_workload(
                name,
                3,
                true,
                &RunOpts { seconds: 0.0, trace, check_accounting: false },
            );
            let table = if trace { PER_LAYER } else { END_TO_END };
            let (failed, attempted) = (out.failed, out.attempted);
            let line = result_line(&out.metrics.finish(table), attempted, failed);
            let printed = table.iter().filter(|s| printed_once(&line, s)).count();
            let pass = failed == 0 && attempted > 0 && printed == table.len();
            println!(
                "self-test {name} trace={}: {printed}/{} metrics printed once with unit and \
                 finite value, {attempted} attempted, {failed} failed: {}",
                u8::from(trace),
                table.len(),
                if pass { "ok" } else { "FAIL" }
            );
            ok &= pass;
        }
    }
    let (call, replayed, share) = cpd::facade_replay_medians(15);
    let pass = (share - 1.0).abs() <= FACADE_TOL;
    println!(
        "self-test facade replay: call {:.2} ms, replayed layers {:.2} ms ({share:.3}): {}",
        call * 1e3,
        replayed * 1e3,
        if pass { "ok" } else { "FAIL" }
    );
    ok &= pass;
    if let Ok(text) = std::fs::read_to_string("BENCHMARK.json") {
        for (section, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = benchmark_json_names(&text, section);
            let declared: Vec<String> = table.iter().map(|s| s.name.to_string()).collect();
            let pass = listed == declared;
            println!("self-test BENCHMARK.json {section}: {}", if pass { "ok" } else { "FAIL" });
            ok &= pass;
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: --workload <{}> --seed N --seconds S --trace 0|1 | --self-test",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    scalfrag_host::with_threads(HOST_THREADS, || {
        if args.self_test {
            return if self_test() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
        }
        let opts = RunOpts { seconds: args.seconds, trace: args.trace, check_accounting: true };
        let out = run_workload(&args.workload, args.seed, false, &opts);
        let table = if args.trace { PER_LAYER } else { END_TO_END };
        report(&args, out, table);
        ExitCode::SUCCESS
    })
}
