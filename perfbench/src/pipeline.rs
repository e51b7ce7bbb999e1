//! The traced replay of one compile-and-simulate unit.
//!
//! `ccdp_core::compare_with_seq` and `ccdp_serve::api::run_job` call the
//! layer crates in a fixed order; the replay makes the same public calls
//! in the same order, each inside a span named after its crate, so the
//! trace attributes a unit's time to layers. The calls and their inputs
//! match the pipeline's, so the results match it bit for bit (checked
//! against the pinned values and the service's answers).

use ccdp_analysis::analyze_stale;
use ccdp_core::{PipelineConfig, Scheme};
use ccdp_dist::Layout;
use ccdp_ir::Program;
use ccdp_prefetch::plan_prefetches;
use t3d_sim::{Scheme as SimScheme, SimResult, Simulator};

use crate::trace::Tracer;

/// Span name of the simulation of one scheme (`"seq"` for the sequential
/// reference run).
pub fn sim_span(scheme: &str) -> &'static str {
    match scheme {
        "seq" => "t3d.seq.sim",
        "base" => "t3d.base.sim",
        "ccdp" => "t3d.ccdp.sim",
        "mesi" => "t3d.mesi.sim",
        "dragon" => "t3d.dragon.sim",
        other => panic!("no span for scheme {other}"),
    }
}

/// `ccdp_core::run_seq`: validate, 1-PE layout, sequential simulation.
pub fn seq(t: &mut Tracer, program: &Program, cfg: &PipelineConfig) -> Result<SimResult, String> {
    t.span("ir.validate", |_| ccdp_ir::validate(program))
        .map_err(|e| e.to_string())?;
    let layout = t.span("dist.layout", |_| Layout::new(program, 1));
    let mut machine = cfg.machine.clone();
    machine.n_pes = 1;
    t.span(sim_span("seq"), |_| {
        Simulator::new(program, layout, machine, SimScheme::Sequential, cfg.sim).try_run()
    })
    .map_err(|e| format!("seq: {e:?}"))
}

/// `PipelineConfig::run` for each scheme in order, then the analysis-only
/// compile `compare_with_seq` does when CCDP was not among them. With
/// `cfg.verify` (ccdpd's `with_verify`) the CCDP plan is also linted.
pub fn schemes(
    t: &mut Tracer,
    program: &Program,
    cfg: &PipelineConfig,
    schemes: &[Scheme],
) -> Result<Vec<(Scheme, SimResult)>, String> {
    let mut out = Vec::with_capacity(schemes.len());
    for &s in schemes {
        t.span("ir.validate", |_| ccdp_ir::validate(program))
            .map_err(|e| e.to_string())?;
        let layout = t.span("dist.layout", |_| cfg.layout_for(program));
        let machine = cfg.machine.clone();
        let run = match s {
            Scheme::Ccdp => {
                let stale = t.span("analysis.stale", |_| analyze_stale(program, &layout));
                let (transformed, plan) = t.span("prefetch.plan", |_| {
                    plan_prefetches(program, &layout, &stale, &cfg.target, &cfg.schedule)
                });
                if cfg.verify {
                    let opt = ccdp_lint::LintOptions::from_schedule(&cfg.schedule);
                    let report = t.span("lint.verify", |_| {
                        ccdp_lint::verify(&transformed, &plan, &layout, &opt)
                    });
                    if !report.is_sound() {
                        return Err(format!("lint: {}", report.render()));
                    }
                }
                t.span(sim_span(s.key()), |_| {
                    Simulator::new(
                        &transformed,
                        layout,
                        machine,
                        SimScheme::Ccdp { plan },
                        cfg.sim,
                    )
                    .try_run()
                })
            }
            Scheme::Base | Scheme::Mesi | Scheme::Dragon => {
                let sim_scheme = match s {
                    Scheme::Base => SimScheme::Base,
                    Scheme::Mesi => SimScheme::Mesi,
                    _ => SimScheme::Dragon,
                };
                t.span(sim_span(s.key()), |_| {
                    Simulator::new(program, layout, machine, sim_scheme, cfg.sim).try_run()
                })
            }
            Scheme::InvalidateOnly => return Err("INV is not benchmarked".to_string()),
        };
        out.push((s, run.map_err(|e| format!("{}: {e:?}", s.key()))?));
    }
    if !schemes.contains(&Scheme::Ccdp) {
        let layout = t.span("dist.layout", |_| cfg.layout_for(program));
        let stale = t.span("analysis.stale", |_| analyze_stale(program, &layout));
        t.span("prefetch.plan", |_| {
            std::hint::black_box(plan_prefetches(
                program,
                &layout,
                &stale,
                &cfg.target,
                &cfg.schedule,
            ));
        });
    }
    Ok(out)
}
