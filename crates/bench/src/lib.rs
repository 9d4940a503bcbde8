//! Shared harness utilities for the experiment binaries and the perf
//! benches.
//!
//! Every table and figure of the paper's evaluation has a dedicated binary
//! in `src/bin/`; this table is the index:
//!
//! | binary | regenerates |
//! |--------|-------------|
//! | `fig2` | Fig. 2 — 3-D synthetic walkthrough |
//! | `fig3_pairplot` | Fig. 3 — X̂₅ pairplot |
//! | `fig4_table1` | Fig. 4 + Table I — X̂₅ ICA iterations & scores |
//! | `fig5` | Fig. 5 — adversarial convergence curves |
//! | `fig6` | Fig. 6 — whitened X̂₅ pairplots per stage |
//! | `table2` | Table II — OPTIM / ICA runtime grid, plus the equivalence-class and Sherman–Morrison ablations (`BENCH_paper.json`) |
//! | `bnc_use_case` | Figs. 7–8 — BNC exploration (simulated corpus) |
//! | `segmentation_use_case` | Fig. 9 — segmentation exploration |
//!
//! Performance has one measurement system: the `scaling` and `serve`
//! benches in `benches/` and the `table2` binary read `SIDER_BENCH_SMOKE`
//! through `sider_loadgen::smoke_mode` and write one `BENCH_*.json` each
//! through [`write_artifact`]; `check_bench_artifacts` gates those
//! artifacts.

use sider_json::Json;
use std::time::{Duration, Instant};

/// Time a closure, returning its result and the wall-clock duration.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Median of a slice of durations (empty ⇒ zero).
pub fn median_duration(durations: &mut [Duration]) -> Duration {
    if durations.is_empty() {
        return Duration::ZERO;
    }
    durations.sort();
    durations[durations.len() / 2]
}

/// Format seconds with one decimal, like the paper's Table II cells.
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64())
}

/// The workspace root, where the `BENCH_*.json` perf artifacts live.
pub fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Write `doc` pretty-printed to `BENCH_{name}.json` at the workspace root.
/// A failed write exits with status 1: swallowing it would let the CI
/// schema check pass green on a stale committed artifact.
pub fn write_artifact(name: &str, doc: &Json) {
    let path = workspace_root().join(format!("BENCH_{name}.json"));
    if let Err(e) = std::fs::write(&path, doc.dump_pretty()) {
        eprintln!("{name}: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("{name}: wrote {}", path.display());
}

/// Output directory for experiment artifacts (`out/` by default,
/// override with `SIDER_OUT`).
pub fn out_dir() -> std::path::PathBuf {
    std::env::var_os("SIDER_OUT")
        .map(Into::into)
        .unwrap_or_else(|| "out".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_measures_something() {
        let (v, d) = time(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d < Duration::from_secs(1));
    }

    #[test]
    fn median_of_durations() {
        let mut ds = vec![
            Duration::from_millis(30),
            Duration::from_millis(10),
            Duration::from_millis(20),
        ];
        assert_eq!(median_duration(&mut ds), Duration::from_millis(20));
        assert_eq!(median_duration(&mut []), Duration::ZERO);
    }

    #[test]
    fn fmt_secs_one_decimal() {
        assert_eq!(fmt_secs(Duration::from_millis(1234)), "1.2");
        assert_eq!(fmt_secs(Duration::ZERO), "0.0");
    }
}
