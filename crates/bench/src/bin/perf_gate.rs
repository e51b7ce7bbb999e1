//! CI performance-regression gate: re-runs the quick grid and compares its
//! wall time against the `perf` section of the committed `BENCH_ccdp.json`.
//! Fails (exit 1) when the fresh run is more than the allowed factor slower
//! than the committed baseline; passes with a notice when no baseline is
//! present (first run, or a report regenerated without timing).
//!
//! ```text
//! cargo run -p ccdp-bench --release --bin perf_gate
//! CCDP_PERF_GATE_FACTOR=1.5 cargo run -p ccdp-bench --release --bin perf_gate
//! ```
//!
//! Wall-clock on shared CI runners is noisy, so the default threshold is a
//! generous +25% and the fresh measurement takes the best of two runs.
//!
//! Diagnostics instead of surprises: a baseline written by a *newer*
//! schema than this binary understands is a hard error (exit 2, with the
//! command to regenerate), a missing/absent `perf` section — normal for a
//! resumed or failing report run — passes with a loud notice naming
//! exactly what is missing.

use ccdp_bench::report::{perf_baseline, Baseline, SCHEMA_VERSION};
use ccdp_bench::{paper_kernels, run_grid_timed, Scale, GRID_SCHEMES, PAPER_PES};
use ccdp_core::EnvOverrides;

const BASELINE: &str = "BENCH_ccdp.json";
const DEFAULT_FACTOR: f64 = 1.25;

fn main() {
    let env = EnvOverrides::from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let factor = env.perf_gate_factor.unwrap_or(DEFAULT_FACTOR);
    let baseline = committed_baseline();
    report_baseline_scheme_cycles();
    let kernels = paper_kernels(Scale::Quick);
    // Best of two: the first run also warms the file cache / frequency
    // governor, which is exactly the noise the gate must not alarm on.
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        let (_, timing) = run_grid_timed(&kernels, &PAPER_PES, &GRID_SCHEMES).unwrap_or_else(|e| {
            eprintln!("PERF GATE: pipeline failed: {e}");
            std::process::exit(1);
        });
        best = best.min(timing.wall_seconds);
    }
    match baseline {
        None => {
            eprintln!(
                "PERF GATE: SKIPPED — no usable baseline ({BASELINE}: perf.wall_seconds \
                 missing or non-positive; a resumed or failing report run writes no perf \
                 section). Fresh quick grid took {best:.3}s. Regenerate the baseline with \
                 `cargo run -p ccdp-bench --release --bin report` (fresh, no --resume) to \
                 re-arm the gate."
            );
        }
        Some(base) => {
            let limit = base * factor;
            eprintln!(
                "PERF GATE: fresh quick grid {best:.3}s vs committed {base:.3}s \
                 (limit {limit:.3}s = {factor:.2}x)"
            );
            if best > limit {
                eprintln!("PERF GATE: FAIL — quick grid regressed more than {factor:.2}x");
                std::process::exit(1);
            }
            eprintln!("PERF GATE: ok");
        }
    }
}

/// `perf.wall_seconds` from the committed report, when present and valid.
/// The classification itself lives in `report::perf_baseline` (additive
/// sections such as v7's `service` are ignored; only a genuinely newer
/// schema is rejected) — this wrapper just turns it into IO + exit codes.
fn committed_baseline() -> Option<f64> {
    let text = match std::fs::read_to_string(BASELINE) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("PERF GATE: cannot read {BASELINE} ({e})");
            return None;
        }
    };
    let doc = match ccdp_json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("PERF GATE: {BASELINE} is not valid JSON ({e})");
            return None;
        }
    };
    match perf_baseline(&doc) {
        Baseline::Wall { wall_seconds } => Some(wall_seconds),
        Baseline::Missing => None,
        Baseline::NewerSchema(v) => {
            eprintln!(
                "PERF GATE: {BASELINE} has schema_version {v}, newer than this binary \
                 understands ({SCHEMA_VERSION}). Rebuild the gate from the same commit, or \
                 regenerate the baseline with \
                 `cargo run -p ccdp-bench --release --bin report`."
            );
            std::process::exit(2);
        }
    }
}

/// Schema-v6 baselines break the perf cells down per scheme; surface the
/// per-scheme simulated-cycle totals so a regression can be localized to
/// one backend without rerunning anything.
fn report_baseline_scheme_cycles() {
    let Some(doc) =
        std::fs::read_to_string(BASELINE).ok().and_then(|t| ccdp_json::parse(&t).ok())
    else {
        return;
    };
    let Some(cells) = doc.get("perf").and_then(|p| p.get("cells")) else { return };
    let Some(schemes) = doc.get("schemes") else { return };
    let mut line = String::from("PERF GATE: baseline simulated cycles by scheme:");
    let mut any = false;
    for s in schemes.items() {
        let Some(key) = s.as_str() else { continue };
        let total: u64 = cells
            .items()
            .iter()
            .filter_map(|c| c.get("sim_cycles_by_scheme")?.get(key)?.as_u64())
            .sum();
        if total > 0 {
            line.push_str(&format!(" {key}={total}"));
            any = true;
        }
    }
    if any {
        eprintln!("{line}");
    }
}
