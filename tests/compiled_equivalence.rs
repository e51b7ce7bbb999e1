//! Equivalence of the two execution paths: the compiled trace (default)
//! must be **cycle-for-cycle and byte-for-byte identical** to the reference
//! tree walker (`SimOptions::force_treewalk`) — cycles, per-PE totals,
//! epoch attribution, prefetch quality, oracle verdicts, fault stats, event
//! traces, the final memory image, and where a run budget aborts.
//!
//! Coverage: every scheme on all four paper kernels at every PE count of
//! the paper's tables (seed 0), property-style sweeps over synthesized
//! programs × schemes × fault plans, and hand-written private-array
//! programs swept across cycle and step budgets.

use ccdp_bench::synth::{random_program, SynthConfig};
use ccdp_bench::{cell_config, paper_kernels, Scale, PAPER_PES};
use ccdp_core::{run_seq, PipelineConfig, PipelineError, Scheme};
use ccdp_ir::{Program, ProgramBuilder};
use ccdp_json::ToJson;
use t3d_sim::{FaultPlan, SimResult};

fn with_treewalk(cfg: &PipelineConfig) -> PipelineConfig {
    let mut c = cfg.clone();
    c.sim.force_treewalk = true;
    c
}

/// Full-result identity: the serialized report (which covers cycles,
/// per-PE/per-epoch breakdowns, prefetch quality, oracle, fault stats, and
/// the event trace) plus the bit pattern of every shared array.
fn assert_identical(program: &Program, fast: &SimResult, slow: &SimResult, what: &str) {
    assert_eq!(
        fast.to_json().to_pretty(),
        slow.to_json().to_pretty(),
        "compiled vs treewalk result mismatch: {what}"
    );
    assert_eq!(shared_bits(program, fast), shared_bits(program, slow), "memory mismatch ({what})");
}

/// The bit pattern of every shared array, by name.
fn shared_bits(program: &Program, r: &SimResult) -> Vec<(String, Vec<u64>)> {
    program
        .arrays
        .iter()
        .filter(|a| r.memory.is_shared(a.id))
        .map(|a| {
            let bits = r.memory.array_values(program, a.id).iter().map(|v| v.to_bits()).collect();
            (a.name.clone(), bits)
        })
        .collect()
}

/// Run each of `schemes` through both paths and compare. CCDP and INV
/// transform the program, so memory is compared through the program the
/// run actually executed.
fn check_schemes(program: &Program, cfg: &PipelineConfig, schemes: &[Scheme], what: &str) {
    let tw = with_treewalk(cfg);
    for &scheme in schemes {
        let f = cfg.run(program, scheme).expect("compiled run");
        let s = tw.run(program, scheme).expect("treewalk run");
        let prog = f.artifacts.as_ref().map_or(program, |a| &a.transformed);
        assert_identical(prog, &f.result, &s.result, &format!("{what} {}", scheme.name()));
    }
}

fn check_seq(program: &Program, cfg: &PipelineConfig, what: &str) {
    let tw = with_treewalk(cfg);
    let f = run_seq(program, cfg).expect("seq (compiled)");
    let s = run_seq(program, &tw).expect("seq (treewalk)");
    assert_identical(program, &f, &s, &format!("{what} SEQ"));
}

/// The acceptance sweep: every scheme on all four paper kernels × every PE
/// count of the tables, at seed 0 (no faults). The sequential scheme is checked once per
/// kernel — it is independent of the PE count.
#[test]
fn paper_kernels_identical_at_every_pe_count() {
    for k in &paper_kernels(Scale::Quick) {
        check_seq(&k.program, &cell_config(k, PAPER_PES[0]), k.name);
        for &n in &PAPER_PES {
            let cfg = cell_config(k, n);
            check_schemes(&k.program, &cfg, &Scheme::ALL, &format!("{} pes={n}", k.name));
        }
    }
}

/// Synthesized programs across seeds: random epoch/loop/subscript shapes,
/// including ones the strength reducer must reject (guarded edge accesses).
#[test]
fn synthesized_programs_identical() {
    let cfg = SynthConfig::default();
    for seed in 0..8u64 {
        let p = random_program(seed, &cfg);
        for n in [1, 3, 8] {
            let pc = PipelineConfig::t3d(n);
            check_seq(&p, &pc, &format!("synth seed={seed}"));
            let what = format!("synth seed={seed} pes={n}");
            check_schemes(&p, &pc, &[Scheme::Base, Scheme::Ccdp], &what);
        }
    }
}

/// Fault injection perturbs latencies, prefetch drops, and queue capacity —
/// the two paths must agree on every fault decision and its accounting.
#[test]
fn faulted_runs_identical() {
    const FAULTED: [Scheme; 3] = [Scheme::Base, Scheme::Ccdp, Scheme::InvalidateOnly];
    let plans = [
        FaultPlan { seed: 7, drop_rate: 0.3, delay_rate: 0.2, delay_mult: 4, ..FaultPlan::none() },
        FaultPlan { seed: 11, queue_cap: Some(4), storm_rate: 0.2, storm_len: 3, evict_rate: 0.25, ..FaultPlan::none() },
    ];
    let kernels = paper_kernels(Scale::Quick);
    for plan in plans {
        for (k, n) in [(&kernels[0], 8usize), (&kernels[2], 4)] {
            let mut cfg = cell_config(k, n);
            cfg.sim.faults = plan;
            let what = format!("{} pes={n} faults seed={}", k.name, plan.seed);
            check_schemes(&k.program, &cfg, &FAULTED, &what);
        }
        let p = random_program(3, &SynthConfig::default());
        let mut pc = PipelineConfig::t3d(6);
        pc.sim.faults = plan;
        check_schemes(&p, &pc, &FAULTED, &format!("synth faults seed={}", plan.seed));
    }
}

/// Event traces are part of the identity contract: with tracing enabled,
/// both paths must record the same events at the same cycles.
#[test]
fn traced_runs_identical() {
    let kernels = paper_kernels(Scale::Quick);
    let k = &kernels[1]; // VPENTA: serial + DOALL mix.
    let mut cfg = cell_config(k, 8);
    cfg.sim.trace_capacity = 4096;
    check_schemes(&k.program, &cfg, &Scheme::ALL, "VPENTA pes=8 traced");
}

/// A finished run in comparable form (its cycles, serialized report and
/// shared memory bits), or the `(pe, cycles, steps)` of its budget abort.
type Outcome = Result<(u64, String, Vec<(String, Vec<u64>)>), (usize, u64, u64)>;

/// Run `scheme` (`None` = SEQ) and reduce the result to an [`Outcome`].
fn outcome(program: &Program, cfg: &PipelineConfig, scheme: Option<Scheme>) -> Outcome {
    let run = match scheme {
        None => run_seq(program, cfg).map(|r| (r, None)),
        Some(s) => cfg.run(program, s).map(|r| (r.result, r.artifacts.map(|a| a.transformed))),
    };
    match run {
        Ok((r, transformed)) => {
            let prog = transformed.as_ref().unwrap_or(program);
            Ok((r.cycles, r.to_json().to_pretty(), shared_bits(prog, &r)))
        }
        Err(PipelineError::BudgetExceeded { pe, cycles, steps }) => Err((pe, cycles, steps)),
        Err(e) => panic!("unexpected pipeline error: {e}"),
    }
}

/// Both paths must finish identically or abort with equal fields.
fn assert_same_outcome(program: &Program, cfg: &PipelineConfig, scheme: Option<Scheme>, what: &str) {
    let fast = outcome(program, cfg, scheme);
    let slow = outcome(program, &with_treewalk(cfg), scheme);
    assert_eq!(fast, slow, "compiled vs treewalk outcome: {what}");
}

/// Budgets from 0 past `total` in about 32 strides, plus both edges.
fn budget_sweep(total: u64) -> Vec<u64> {
    let mut bs: Vec<u64> = (0..=total).step_by((total / 32).max(1) as usize).collect();
    bs.extend([total.saturating_sub(1), total, total + 1]);
    bs
}

/// Hand-written programs whose loop bodies touch private arrays — a shape
/// no paper kernel and no synthesized program has.
fn private_array_programs() -> Vec<(&'static str, Program)> {
    let serial = {
        let mut pb = ProgramBuilder::new("private_serial");
        let a = pb.shared("A", &[8]);
        let t = pb.private("T", &[64]);
        let u = pb.private("U", &[64]);
        pb.serial_epoch("sweep", |e| {
            e.serial("r", 0, 3, |e, _| {
                e.serial("i", 0, 63, |e, i| {
                    e.assign(t.at1(i), t.at1(i).rd() * 1.5 + u.at1(i).rd());
                    e.assign(u.at1(i), u.at1(i).rd() + 1.0);
                });
            });
            e.assign(a.at1(0), t.at1(63).rd());
        });
        pb.finish().expect("valid private serial program")
    };
    let doall = {
        let mut pb = ProgramBuilder::new("private_doall");
        let a = pb.shared("A", &[64]);
        let t = pb.private("T", &[64]);
        pb.parallel_epoch("private", |e| {
            e.doall("i", 0, 63, |e, i| e.assign(t.at1(i), t.at1(i).rd() * 2.0 + 1.0));
        });
        pb.parallel_epoch("publish", |e| {
            e.doall("i", 0, 63, |e, i| e.assign(a.at1(i), a.at1(i).rd() + t.at1(i).rd()));
        });
        pb.finish().expect("valid private DOALL program")
    };
    let mixed = {
        let mut pb = ProgramBuilder::new("mixed");
        let a = pb.shared("A", &[64]);
        let t = pb.private("T", &[64]);
        pb.serial_epoch("serial", |e| {
            e.serial("i", 0, 63, |e, i| {
                e.assign(t.at1(i), a.at1(i).rd() * 0.5 + 1.0);
                e.assign(a.at1(i), t.at1(i).rd() + 2.0);
            });
        });
        pb.parallel_epoch("parallel", |e| {
            e.doall("i", 0, 63, |e, i| {
                e.assign(t.at1(i), a.at1(i).rd() - t.at1(i).rd());
                e.assign(a.at1(i), t.at1(i).rd() * 3.0);
            });
        });
        pb.finish().expect("valid mixed program")
    };
    let loop_var = {
        let mut pb = ProgramBuilder::new("private_loop_var");
        let a = pb.shared("A", &[8]);
        let t = pb.private("T", &[64]);
        pb.serial_epoch("serial", |e| {
            e.serial("i", 0, 63, |e, i| e.assign(t.at1(i), t.at1(i).rd() + i.val()));
            e.assign(a.at1(0), t.at1(63).rd());
        });
        pb.parallel_epoch("parallel", |e| {
            e.doall("i", 0, 63, |e, i| e.assign(t.at1(i), i.val() * 0.25));
        });
        pb.serial_epoch("publish", |e| e.assign(a.at1(1), t.at1(0).rd()));
        pb.finish().expect("valid loop-variable program")
    };
    vec![("private serial", serial), ("private DOALL", doall), ("mixed", mixed), ("loop var", loop_var)]
}

/// Private-array loop bodies run the same per-iteration path on both
/// engines: byte-identical results without budgets, and the same `Ok`/`Err`
/// outcome with equal abort fields at every cycle and step budget across
/// each program's total cost, for every scheme.
#[test]
fn private_array_bodies_identical_under_budgets() {
    let schemes: Vec<Option<Scheme>> =
        std::iter::once(None).chain(Scheme::ALL.map(Some)).collect();
    for (name, p) in private_array_programs() {
        for n in [2usize, 3] {
            let cfg = PipelineConfig::t3d(n);
            for &scheme in &schemes {
                let sname = scheme.map_or("SEQ", |s| s.name());
                let what = format!("{name} pes={n} {sname}");
                assert_same_outcome(&p, &cfg, scheme, &what);
                let cycles = outcome(&p, &cfg, scheme).expect("unbudgeted run").0;
                for b in budget_sweep(cycles) {
                    let mut c = cfg.clone();
                    c.sim.cycle_budget = Some(b);
                    assert_same_outcome(&p, &c, scheme, &format!("{what} cycle_budget={b}"));
                }
                // Total steps: the least step budget the reference walker
                // finishes under (a run aborts once `steps > budget`).
                let finishes = |b: u64| {
                    let mut c = with_treewalk(&cfg);
                    c.sim.step_budget = Some(b);
                    outcome(&p, &c, scheme).is_ok()
                };
                let mut hi = 1u64;
                while !finishes(hi) {
                    hi *= 2;
                }
                let mut lo = 0u64;
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    if finishes(mid) {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                for b in budget_sweep(hi) {
                    let mut c = cfg.clone();
                    c.sim.step_budget = Some(b);
                    assert_same_outcome(&p, &c, scheme, &format!("{what} step_budget={b}"));
                }
            }
        }
    }
}
