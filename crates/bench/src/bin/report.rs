//! Machine-readable benchmark report: runs the full evaluation grid and
//! writes `BENCH_ccdp.json` — the paper's Tables 1 and 2 plus per-PE and
//! per-epoch cycle breakdowns, prefetch quality metrics, and a `perf`
//! section with the run's host-side throughput (consumed by the CI
//! performance-regression gate).
//!
//! Every cell runs isolated (panic containment + classification), each
//! completed cell is checkpointed to a journal, and `--resume` replays the
//! journal after a crash, re-simulating only the missing cells — the
//! resumed document is byte-identical to an uninterrupted run, minus the
//! host-timing `perf` section.
//!
//! ```text
//! cargo run -p ccdp-bench --release --bin report            # quick scale
//! CCDP_SCALE=paper cargo run -p ccdp-bench --release --bin report
//! cargo run -p ccdp-bench --release --bin report -- --seed 7
//! cargo run -p ccdp-bench --release --bin report -- --resume
//! cargo run -p ccdp-bench --release --bin report -- \
//!     --cycle-budget 20000000000 --step-budget 2000000000 --cell-timeout 600
//! ```
//!
//! Exits 0 when every cell is ok, 1 when any cell failed (the document and
//! journal are still written), 2 on bad invocation.

use std::path::PathBuf;
use std::time::Duration;

use ccdp_bench::journal::{header_line, run_journaled_grid, GRID_JOURNAL};
use ccdp_bench::report::report_json_cells;
use ccdp_bench::resilience::GridOptions;
use ccdp_bench::{flag_value, has_flag, paper_kernels, seed_from, Scale, GRID_SCHEMES, PAPER_PES};

const OUT: &str = "BENCH_ccdp.json";

fn parse_u64_flag(args: &[String], name: &str) -> Option<u64> {
    flag_value(args, name).map(|v| {
        v.parse::<u64>().unwrap_or_else(|_| {
            eprintln!("unparseable {name} value {v:?} (expected a u64)");
            std::process::exit(2);
        })
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let seed = seed_from(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let resume = has_flag(&args, "--resume");
    let journal_path = PathBuf::from(
        flag_value(&args, "--journal").unwrap_or_else(|| GRID_JOURNAL.to_string()),
    );
    let opts = GridOptions {
        cycle_budget: parse_u64_flag(&args, "--cycle-budget"),
        step_budget: parse_u64_flag(&args, "--step-budget"),
        cell_timeout: parse_u64_flag(&args, "--cell-timeout").map(Duration::from_secs),
        faults: None,
    };
    eprintln!(
        "running report grid at {scale:?} scale (seed {seed}){} ...",
        if resume { " [resume]" } else { "" }
    );
    let kernels = paper_kernels(scale);
    let header = header_line("report", scale, seed, &PAPER_PES, &GRID_SCHEMES, &opts);
    let run = run_journaled_grid(
        &kernels,
        &PAPER_PES,
        &GRID_SCHEMES,
        &opts,
        &journal_path,
        &header,
        resume,
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot journal to {}: {e}", journal_path.display());
        std::process::exit(1);
    });
    if run.reused > 0 {
        eprintln!("resumed {} journaled cell(s) from {}", run.reused, journal_path.display());
    }
    match &run.timing {
        Some(t) => eprintln!(
            "grid: {:.3}s wall on {} thread(s), {:.2}M simulated cycles/s",
            t.wall_seconds,
            t.threads,
            t.cycles_per_second() / 1e6
        ),
        None => eprintln!("grid finished (no perf baseline: resumed or failing run)"),
    }
    let names: Vec<&str> = kernels.iter().map(|k| k.name).collect();
    let doc = report_json_cells(
        scale,
        seed,
        &PAPER_PES,
        &GRID_SCHEMES,
        &names,
        &run.cells,
        run.timing.as_ref(),
    );
    ccdp_json::write_atomic(std::path::Path::new(OUT), &doc.to_pretty()).unwrap_or_else(|e| {
        eprintln!("cannot write {OUT}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {OUT}");
    if !run.failures.is_empty() {
        eprintln!("{} cell(s) failed:", run.failures.len());
        for (kernel, n_pes, class, msg) in &run.failures {
            eprintln!("  {kernel} P={n_pes}: [{class}] {msg}");
        }
        std::process::exit(1);
    }
}
