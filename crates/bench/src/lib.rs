//! # scalfrag-bench
//!
//! Benchmark harnesses regenerating every table and figure of the ScalFrag
//! paper's evaluation (§V). One binary per exhibit:
//!
//! | Exhibit  | Binary                  | What it prints                          |
//! |----------|-------------------------|-----------------------------------------|
//! | Table II | `table2`                | simulated hardware specification        |
//! | Table III| `table3`                | dataset inventory (original + scaled)   |
//! | Fig. 4   | `fig4_heatmap`          | GFLOPs heatmaps over grid × block       |
//! | Fig. 5   | `fig5_breakdown`        | H2D / kernel / D2H time breakdown       |
//! | Fig. 9   | `fig9_kernel`           | kernel GFLOPs, ScalFrag vs ParTI        |
//! | Fig. 10  | `fig10_e2e`             | end-to-end time, ScalFrag vs ParTI      |
//! | Fig. 11  | `fig11_segments_streams`| segment/stream count sensitivity        |
//! | §IV-B    | `model_eval`            | model zoo MAPE / train / infer times    |
//! | Fig. 12  | `fig12_multi_gpu`       | multi-GPU scaling + scheduling (ext.)   |
//!
//! Criterion benches (`cargo bench`) measure the wall-clock hot paths of
//! the implementation itself (kernels, models, tensor ops, scheduling).

pub mod svg;

use scalfrag_kernels::FactorSet;
use scalfrag_tensor::{frostt, CooTensor};

/// The CPD rank every harness uses (the paper's kernels run at a small
/// fixed rank; 16 is the conventional choice in the MTTKRP literature).
pub const RANK: usize = 16;

/// Down-scaling divisor applied to the FROSTT presets so the whole suite
/// regenerates in minutes on a laptop. See `DatasetPreset::materialize`.
pub const SCALE: u64 = 64;

/// Minimum scaled nnz. Below this, fixed per-operation costs (PCIe
/// latency, kernel launch) dominate in a way they never do at paper scale,
/// so the smallest datasets get a gentler divisor than [`SCALE`].
pub const MIN_SCALED_NNZ: u64 = 250_000;

/// The scale divisor actually applied to one preset.
pub fn effective_scale(p: &frostt::DatasetPreset) -> u64 {
    (p.nnz / MIN_SCALED_NNZ).clamp(1, SCALE)
}

/// Materialises the full ten-dataset suite of Table III.
pub fn scaled_suite() -> Vec<(String, CooTensor)> {
    frostt::all_presets()
        .into_iter()
        .map(|p| {
            let s = effective_scale(&p);
            (p.name.to_string(), p.materialize(s))
        })
        .collect()
}

/// Materialises the fast four-dataset subset.
pub fn scaled_small_suite() -> Vec<(String, CooTensor)> {
    frostt::small_suite()
        .into_iter()
        .map(|p| {
            let s = effective_scale(&p);
            (p.name.to_string(), p.materialize(s))
        })
        .collect()
}

/// Deterministic rank-[`RANK`] factors for a tensor.
pub fn factors_for(tensor: &CooTensor) -> FactorSet {
    FactorSet::random(tensor.dims(), RANK, 0xFAC70)
}

/// Renders an aligned plain-text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        out.push('\n');
    };
    line(&mut out, &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&mut out, &widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// Writes an SVG document under `results/` (created if needed), returning
/// the path written. Harness binaries call this so every figure also
/// exists as an image.
pub fn write_svg(name: &str, svg: &str) -> std::io::Result<String> {
    std::fs::create_dir_all("results")?;
    let path = format!("results/{name}.svg");
    std::fs::write(&path, svg)?;
    Ok(path)
}

/// Writes a `BENCH_{name}.json` record, returning the path written. A full
/// run updates the checked-in copy under `results/`; a `--smoke` run's
/// short, noisy wall-clock numbers go under `target/bench-smoke/` instead,
/// so CI leaves the tree clean.
pub fn save_bench_json(name: &str, smoke: bool, json: &str) -> std::io::Result<String> {
    let dir = if smoke { "target/bench-smoke" } else { "results" };
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/BENCH_{name}.json");
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Formats seconds adaptively (`µs` / `ms` / `s`).
pub fn fmt_time(seconds: f64) -> String {
    let seconds = seconds + 0.0; // normalise -0.0 so it never prints a sign
    if seconds < 1e-3 {
        format!("{:.1}µs", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.3}ms", seconds * 1e3)
    } else {
        format!("{seconds:.3}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_suite_materialises() {
        let suite = scaled_small_suite();
        assert_eq!(suite.len(), 4);
        for (name, t) in &suite {
            assert!(t.nnz() >= 64, "{name} too small");
            assert!(t.validate().is_ok());
        }
    }

    #[test]
    fn table_rendering_aligns() {
        let s = render_table(
            &["name", "value"],
            &[vec!["a".into(), "1".into()], vec!["long-name".into(), "22".into()]],
        );
        assert!(s.contains("long-name"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn time_formatting() {
        assert_eq!(fmt_time(5e-6), "5.0µs");
        assert_eq!(fmt_time(0.0123), "12.300ms");
        assert_eq!(fmt_time(2.5), "2.500s");
    }
}
