//! Static coherence-soundness gate: run the `ccdp-lint` verifier over the
//! paper's four kernels at every PE count plus a synthetic-program sweep,
//! merge the verdicts into `BENCH_ccdp.json` as a `lint` section (schema
//! v5), and exit non-zero on any error-severity finding.
//!
//! ```text
//! cargo run -p ccdp-bench --release --bin lint                # env scale
//! cargo run -p ccdp-bench --release --bin lint -- --quick
//! cargo run -p ccdp-bench --release --bin lint -- --synth 60 --seed 7
//! cargo run -p ccdp-bench --release --bin lint -- --mutate 3  # demo: seed a
//!     # plan corruption into TOMCATV and show the verifier catching it
//! ```
//!
//! The kernel grid and the synth sweep are *expected clean*: the planner's
//! output must verify. `--mutate` inverts the expectation — it corrupts a
//! compiled plan and exits zero only if the verifier reports the defect.

use ccdp_bench::synth::{mutate_plan, random_program, SynthConfig};
use ccdp_bench::report::SCHEMA_VERSION;
use ccdp_bench::{
    cell_config, flag_value, has_flag, paper_kernels, seed_from, Scale, PAPER_PES,
};
use ccdp_core::compile_ccdp;
use ccdp_json::{Json, ToJson};
use ccdp_lint::{verify, LintOptions, LintReport};

const OUT: &str = "BENCH_ccdp.json";

fn cell_json(kernel: &str, n_pes: usize, rep: &LintReport) -> Json {
    Json::obj([
        ("kernel", kernel.to_json()),
        ("n_pes", n_pes.to_json()),
        ("report", rep.to_json()),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if has_flag(&args, "--quick") {
        Scale::Quick
    } else {
        Scale::from_env().unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    };
    let seed = seed_from(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let n_synth: usize = flag_value(&args, "--synth")
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("unparseable --synth value {v:?} (expected a count)");
                std::process::exit(2);
            })
        })
        .unwrap_or(40);

    if let Some(mseed) = flag_value(&args, "--mutate") {
        let mseed: u64 = mseed.parse().unwrap_or_else(|_| {
            eprintln!("unparseable --mutate value (expected a seed)");
            std::process::exit(2);
        });
        demo_mutation(scale, mseed);
        return;
    }

    eprintln!("linting kernel grid at {scale:?} scale, P={PAPER_PES:?} ...");
    let kernels = paper_kernels(scale);
    let mut cells = Vec::new();
    let (mut errors, mut warnings) = (0usize, 0usize);
    for k in &kernels {
        for &n in PAPER_PES.iter() {
            let cfg = cell_config(k, n);
            let art = compile_ccdp(&k.program, &cfg);
            let layout = cfg.layout_for(&k.program);
            let rep = verify(
                &art.transformed,
                &art.plan,
                &layout,
                &LintOptions::from_schedule(&cfg.schedule),
            );
            if !rep.findings.is_empty() {
                eprintln!("-- {} P={n}:\n{}", k.name, rep.render());
            }
            errors += rep.errors();
            warnings += rep.warnings();
            cells.push(cell_json(k.name, n, &rep));
        }
    }

    eprintln!("linting {n_synth} synthetic programs (seed {seed}) ...");
    let synth_cfg = SynthConfig::default();
    let mut synth_errors = 0usize;
    let mut synth_warnings = 0usize;
    for s in 0..n_synth as u64 {
        let p = random_program(seed.wrapping_add(s), &synth_cfg);
        for n in [2usize, 4, 8] {
            let cfg = ccdp_core::PipelineConfig::t3d(n);
            let art = compile_ccdp(&p, &cfg);
            let layout = cfg.layout_for(&p);
            let rep = verify(
                &art.transformed,
                &art.plan,
                &layout,
                &LintOptions::from_schedule(&cfg.schedule),
            );
            if !rep.is_sound() {
                eprintln!("-- synth seed {} P={n}:\n{}", seed.wrapping_add(s), rep.render());
            }
            synth_errors += rep.errors();
            synth_warnings += rep.warnings();
        }
    }

    let section = Json::obj([
        ("scale", scale.name().to_json()),
        ("seed", seed.to_json()),
        ("pes", Json::arr(PAPER_PES.iter().map(|p| p.to_json()))),
        ("kernel_cells", Json::arr(cells)),
        (
            "synth",
            Json::obj([
                ("programs", n_synth.to_json()),
                ("errors", synth_errors.to_json()),
                ("warnings", synth_warnings.to_json()),
            ]),
        ),
        ("errors", (errors + synth_errors).to_json()),
        ("warnings", (warnings + synth_warnings).to_json()),
        ("sound", (errors + synth_errors == 0).to_json()),
    ]);
    merge_into_report(section);

    if errors + synth_errors > 0 {
        eprintln!("lint: {} error finding(s)", errors + synth_errors);
        std::process::exit(1);
    }
    eprintln!(
        "lint: clean ({} kernel cells, {n_synth} synth programs, {} warning(s))",
        kernels.len() * PAPER_PES.len(),
        warnings + synth_warnings
    );
}

/// Corrupt a compiled TOMCATV plan with one seeded mutation and show the
/// verifier catching it statically (the EXPERIMENTS.md walk-through).
fn demo_mutation(scale: Scale, mseed: u64) {
    let kernels = paper_kernels(scale);
    let k = kernels.iter().find(|k| k.name == "TOMCATV").expect("TOMCATV in grid");
    let n = 8;
    let cfg = cell_config(k, n);
    let mut art = compile_ccdp(&k.program, &cfg);
    let layout = cfg.layout_for(&k.program);
    let Some(m) = mutate_plan(mseed, &mut art.transformed, &mut art.plan) else {
        eprintln!("plan has no mutable site");
        std::process::exit(2);
    };
    println!("seeded mutation (seed {mseed}): {m}");
    let rep = verify(
        &art.transformed,
        &art.plan,
        &layout,
        &LintOptions::from_schedule(&cfg.schedule),
    );
    println!("{}", rep.render());
    if rep.is_sound() {
        eprintln!("MISSED: verifier reported no error for this mutation");
        std::process::exit(1);
    }
    println!("caught: {} error finding(s) on TOMCATV P={n}", rep.errors());
}

/// Merge the `lint` section into `BENCH_ccdp.json` (atomically), preserving
/// an existing report document when one is present.
fn merge_into_report(section: Json) {
    let mut doc = std::fs::read_to_string(OUT)
        .ok()
        .and_then(|s| ccdp_json::parse(&s).ok())
        .unwrap_or_else(|| {
            Json::obj([
                ("schema_version", SCHEMA_VERSION.to_json()),
                (
                    "paper",
                    "A Compiler-Directed Cache Coherence Scheme Using Data Prefetching"
                        .to_json(),
                ),
            ])
        });
    if let Json::Obj(pairs) = &mut doc {
        pairs.retain(|(k, _)| k != "lint");
        pairs.push(("lint".to_string(), section));
    }
    match ccdp_json::write_atomic(std::path::Path::new(OUT), &doc.to_pretty()) {
        Ok(()) => eprintln!("merged lint section into {OUT}"),
        Err(e) => {
            eprintln!("cannot write {OUT}: {e}");
            std::process::exit(1);
        }
    }
}
