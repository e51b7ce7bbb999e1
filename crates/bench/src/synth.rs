//! Random program synthesis for end-to-end property testing.
//!
//! Generates small, *valid* programs (DOALL independence guaranteed by
//! construction) with a mix of the structures the CCDP pipeline must handle:
//! serial and parallel epochs, aligned and unaligned DOALLs, dynamic
//! scheduling, multi-phase (wrapper) epochs, branches, repeats, and stencil
//! reads with random offsets.
//!
//! Test invariants (see `tests/synth_pipeline.rs`):
//! * SEQ, BASE, and CCDP compute identical results;
//! * the CCDP run reports zero stale-read violations;
//! * every potentially-stale reference ends up `Fresh` or `Bypass`.

use ccdp_ir::{
    Affine, CondB, PrefetchKind, Program, ProgramBuilder, ProgramItem, RefId, Stmt, Var, VExpr,
};
use ccdp_prefetch::{Handling, PrefetchPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Synthesis knobs.
#[derive(Clone, Copy, Debug)]
pub struct SynthConfig {
    pub max_arrays: usize,
    pub max_epochs: usize,
    pub extent: usize,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig { max_arrays: 4, max_epochs: 6, extent: 20 }
    }
}

/// Generate a random valid program from a seed.
pub fn random_program(seed: u64, cfg: &SynthConfig) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = cfg.extent as i64;
    let n_arrays = rng.gen_range(2..=cfg.max_arrays);
    let mut pb = ProgramBuilder::new("synth");
    let arrays: Vec<_> = (0..n_arrays)
        .map(|k| pb.shared(&format!("A{k}"), &[cfg.extent, cfg.extent]))
        .collect();

    // Initialisation epoch: every array gets index-dependent values,
    // column-aligned writes.
    pb.parallel_epoch("init", |e| {
        e.doall_aligned("j0", 0, n - 1, &arrays[0], |e, j| {
            e.serial("i0", 0, n - 1, |e, i| {
                for (k, a) in arrays.iter().enumerate() {
                    e.assign(
                        a.at2(i, j),
                        i.val() * 0.01 + j.val() * (0.001 * (k + 1) as f64) + 1.0,
                    );
                }
            });
        });
    });

    let n_epochs = rng.gen_range(2..=cfg.max_epochs);
    for ei in 0..n_epochs {
        // Output array written this epoch; inputs read from the others.
        let out = rng.gen_range(0..n_arrays);
        let shape = rng.gen_range(0..6);
        let label = format!("e{ei}");
        let off = |rng: &mut StdRng| rng.gen_range(-2i64..=2);
        let margin = 2i64;

        // Build one statement: out(i,j) = f(inputs at offset positions).
        // Reading `out` itself only at exactly (i,j) keeps the DOALL
        // independent.
        let stmt = |e: &mut ccdp_ir::BlockCtx,
                    rng: &mut StdRng,
                    i: Var,
                    j: Var| {
            let mut expr: VExpr = arrays[out].at2(i, j).rd() * 0.5;
            let n_reads = rng.gen_range(1..=3);
            for _ in 0..n_reads {
                let src = rng.gen_range(0..n_arrays);
                if src == out {
                    expr = expr + arrays[out].at2(i, j).rd() * 0.125;
                } else {
                    let (di, dj) = (off(rng), off(rng));
                    let transpose = rng.gen_bool(0.2);
                    let term = if transpose {
                        arrays[src].at2(j + di, i + dj).rd()
                    } else {
                        arrays[src].at2(i + di, j + dj).rd()
                    };
                    expr = expr + term * 0.25;
                }
            }
            e.assign(arrays[out].at2(i, j), expr);
        };

        match shape {
            // Plain aligned parallel epoch.
            0 => {
                let mut r = StdRng::seed_from_u64(rng.gen());
                pb.parallel_epoch(&label, |e| {
                    e.doall_aligned("j", margin, n - 1 - margin, &arrays[out], |e, j| {
                        e.serial("i", margin, n - 1 - margin, |e, i| {
                            stmt(e, &mut r, i, j);
                        });
                    });
                });
            }
            // Unaligned (count-block) parallel epoch.
            1 => {
                let mut r = StdRng::seed_from_u64(rng.gen());
                pb.parallel_epoch(&label, |e| {
                    e.doall("j", margin, n - 1 - margin, |e, j| {
                        e.serial("i", margin, n - 1 - margin, |e, i| {
                            stmt(e, &mut r, i, j);
                        });
                    });
                });
            }
            // Dynamically scheduled epoch.
            2 => {
                let mut r = StdRng::seed_from_u64(rng.gen());
                let chunk = rng.gen_range(1..=4);
                pb.parallel_epoch(&label, |e| {
                    e.doall_dynamic("j", margin, n - 1 - margin, chunk, |e, j| {
                        e.serial("i", margin, n - 1 - margin, |e, i| {
                            stmt(e, &mut r, i, j);
                        });
                    });
                });
            }
            // Multi-phase epoch: serial wrapper over a DOALL (sweep).
            3 => {
                let mut r = StdRng::seed_from_u64(rng.gen());
                pb.parallel_epoch(&label, |e| {
                    e.serial("w", margin, n - 1 - margin, |e, w| {
                        e.doall("i", margin, n - 1 - margin, |e, i| {
                            stmt(e, &mut r, i, w);
                        });
                    });
                });
            }
            // Serial epoch.
            4 => {
                let mut r = StdRng::seed_from_u64(rng.gen());
                pb.serial_epoch(&label, |e| {
                    e.serial("j", margin, n - 1 - margin, |e, j| {
                        e.serial("i", margin, n - 1 - margin, |e, i| {
                            stmt(e, &mut r, i, j);
                        });
                    });
                });
            }
            // Parallel epoch with a branch around the statement (Fig. 2
            // cases 5/6).
            _ => {
                let mut r = StdRng::seed_from_u64(rng.gen());
                pb.parallel_epoch(&label, |e| {
                    e.doall_aligned("j", margin, n - 1 - margin, &arrays[out], |e, j| {
                        e.serial("i", margin, n - 1 - margin, |e, i| {
                            e.if_else(
                                CondB::gt(i, margin + 1),
                                |e| stmt(e, &mut r, i, j),
                                |e| {
                                    e.assign(
                                        arrays[out].at2(i, j),
                                        arrays[out].at2(i, j).rd() * 0.75,
                                    );
                                },
                            );
                        });
                    });
                });
            }
        }
    }

    // Occasionally wrap a trailing pair of epochs in a repeat.
    if rng.gen_bool(0.5) {
        let reps = rng.gen_range(2..=3);
        let out = rng.gen_range(0..n_arrays);
        let src = (out + 1) % n_arrays;
        pb.repeat(reps, |rep| {
            rep.parallel_epoch("rep_r", |e| {
                e.doall_aligned("j", 2, n - 3, &arrays[out], |e, j| {
                    e.serial("i", 2, n - 3, |e, i| {
                        e.assign(
                            arrays[out].at2(i, j),
                            arrays[out].at2(i, j).rd() * 0.5
                                + arrays[src].at2(i + 1, j - 1).rd() * 0.25,
                        );
                    });
                });
            });
            rep.parallel_epoch("rep_w", |e| {
                e.doall_aligned("j", 2, n - 3, &arrays[src], |e, j| {
                    e.serial("i", 2, n - 3, |e, i| {
                        e.assign(
                            arrays[src].at2(i, j),
                            arrays[src].at2(i, j).rd() * 0.5
                                + arrays[out].at2(i, j).rd() * 0.25,
                        );
                    });
                });
            });
        });
    }

    pb.finish().expect("synthesized program must validate")
}

/// One seeded corruption of a compiled (transformed program, plan) pair.
///
/// These are the defect classes the static verifier and the dynamic oracle
/// are cross-validated against: each mutation either silently removes
/// coherence protection (`FlipHandling`) or removes/invalidates the prefetch
/// coverage a `Fresh` read depends on (the rest).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanMutation {
    /// A `Fresh`/`Bypass` read demoted to a plain cached read.
    FlipHandling { rid: RefId, from: Handling },
    /// A materialized line/vector prefetch statement deleted.
    DropPrefetchStmt { covers: RefId },
    /// A pipelined-prefetch loop annotation deleted.
    DropPipelined { covers: RefId },
    /// A vector prefetch replaced by a single constant-index line prefetch
    /// (the transfer shrinks from the whole section to one line).
    ShrinkVector { covers: RefId },
    /// A line prefetch's leading subscript shifted off its read's cache
    /// line.
    WeakenLine { covers: RefId, shift: i64 },
}

impl PlanMutation {
    /// Does this mutation change how the *use* of the read is handled (as
    /// opposed to only degrading prefetch coverage)? Coverage-only
    /// mutations are dynamically coherent — `Fresh`/`Bypass` re-fetch at
    /// use — so they must never perturb simulated numerics, only timing.
    pub fn changes_handling(&self) -> bool {
        matches!(self, PlanMutation::FlipHandling { .. })
    }
}

impl std::fmt::Display for PlanMutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanMutation::FlipHandling { rid, from } => {
                write!(f, "flip ref #{} from {from:?} to Normal", rid.index())
            }
            PlanMutation::DropPrefetchStmt { covers } => {
                write!(f, "drop prefetch statement covering ref #{}", covers.index())
            }
            PlanMutation::DropPipelined { covers } => {
                write!(f, "drop pipelined prefetch covering ref #{}", covers.index())
            }
            PlanMutation::ShrinkVector { covers } => {
                write!(f, "shrink vector prefetch covering ref #{} to one line", covers.index())
            }
            PlanMutation::WeakenLine { covers, shift } => {
                write!(f, "shift line prefetch covering ref #{} by {shift}", covers.index())
            }
        }
    }
}

/// Walker state shared by the site-counting and site-applying passes; both
/// traverse in the same order, so site index `k` always lands on the same
/// construct.
struct MutState {
    target: usize,
    next: usize,
    applied: Option<PlanMutation>,
    array_ranks: Vec<usize>,
}

impl MutState {
    fn hit(&mut self) -> bool {
        let h = self.applied.is_none() && self.next == self.target;
        self.next += 1;
        h
    }
}

// Shift that moves a word prefetch at least one full line away regardless of
// which word of the line the read touches (default line is 4 words).
const WEAKEN_SHIFT: i64 = 8;

fn mutate_stmts(stmts: &mut Vec<Stmt>, st: &mut MutState) {
    let mut k = 0;
    while k < stmts.len() {
        if st.applied.is_some() {
            return;
        }
        let mut remove = false;
        match &mut stmts[k] {
            Stmt::Prefetch(pf) => {
                let covers = match &pf.kind {
                    PrefetchKind::Line { covers, .. } | PrefetchKind::Vector { covers, .. } => {
                        *covers
                    }
                };
                if st.hit() {
                    st.applied = Some(PlanMutation::DropPrefetchStmt { covers });
                    remove = true;
                } else if st.hit() {
                    match &mut pf.kind {
                        PrefetchKind::Line { index, .. } => {
                            index[0] = index[0].add_const(WEAKEN_SHIFT);
                            st.applied =
                                Some(PlanMutation::WeakenLine { covers, shift: WEAKEN_SHIFT });
                        }
                        PrefetchKind::Vector { covers, array, .. } => {
                            let (c, a) = (*covers, *array);
                            let rank = st.array_ranks[a.index()];
                            pf.kind = PrefetchKind::Line {
                                covers: c,
                                array: a,
                                index: vec![Affine::constant(0); rank],
                            };
                            st.applied = Some(PlanMutation::ShrinkVector { covers: c });
                        }
                    }
                }
            }
            Stmt::Loop(l) => {
                let mut pi = 0;
                while pi < l.pipeline.len() {
                    if st.hit() {
                        let covers = l.pipeline[pi].covers;
                        l.pipeline.remove(pi);
                        st.applied = Some(PlanMutation::DropPipelined { covers });
                        break;
                    }
                    pi += 1;
                }
                if st.applied.is_none() {
                    mutate_stmts(&mut l.body, st);
                }
            }
            Stmt::If(i) => {
                mutate_stmts(&mut i.then_branch, st);
                if st.applied.is_none() {
                    mutate_stmts(&mut i.else_branch, st);
                }
            }
            Stmt::Assign(_) => {}
        }
        if remove {
            stmts.remove(k);
            return;
        }
        k += 1;
    }
}

fn mutate_items(items: &mut [ProgramItem], st: &mut MutState) {
    for item in items {
        if st.applied.is_some() {
            return;
        }
        match item {
            ProgramItem::Epoch(e) => mutate_stmts(&mut e.stmts, st),
            ProgramItem::Repeat { body, .. } => mutate_items(body, st),
            ProgramItem::Call(_) => {} // routine bodies handled once below
        }
    }
}

fn count_construct_sites(program: &Program) -> usize {
    // Line and vector prefetch statements contribute two sites (drop +
    // weaken/shrink), pipelined annotations one.
    fn stmts(ss: &[Stmt]) -> usize {
        ss.iter()
            .map(|s| match s {
                Stmt::Prefetch(_) => 2,
                Stmt::Loop(l) => l.pipeline.len() + stmts(&l.body),
                Stmt::If(i) => stmts(&i.then_branch) + stmts(&i.else_branch),
                Stmt::Assign(_) => 0,
            })
            .sum()
    }
    fn items(is: &[ProgramItem]) -> usize {
        is.iter()
            .map(|it| match it {
                ProgramItem::Epoch(e) => stmts(&e.stmts),
                ProgramItem::Repeat { body, .. } => items(body),
                ProgramItem::Call(_) => 0,
            })
            .sum()
    }
    items(&program.items) + program.routines.iter().map(|r| items(&r.items)).sum::<usize>()
}

/// Seed a single deterministic corruption into a compiled `(transformed,
/// plan)` pair. Sites are enumerated in a fixed order (handling flips
/// first, then constructs in program order) and `seed` indexes into them,
/// so a sweep over seeds exercises every mutable site. Returns `None` only
/// when the plan protects nothing (no non-`Normal` handling and no
/// materialized prefetch) — nothing to corrupt.
pub fn mutate_plan(
    seed: u64,
    program: &mut Program,
    plan: &mut PrefetchPlan,
) -> Option<PlanMutation> {
    let flips: Vec<usize> = (0..plan.handling.len())
        .filter(|&i| plan.handling[i] != Handling::Normal)
        .collect();
    let construct_sites = count_construct_sites(program);
    let total = flips.len() + construct_sites;
    if total == 0 {
        return None;
    }
    let idx = (seed % total as u64) as usize;
    if idx < flips.len() {
        let i = flips[idx];
        let from = plan.handling[i];
        plan.handling[i] = Handling::Normal;
        return Some(PlanMutation::FlipHandling { rid: RefId(i as u32), from });
    }
    let mut st = MutState {
        target: idx - flips.len(),
        next: 0,
        applied: None,
        array_ranks: program.arrays.iter().map(|a| a.rank()).collect(),
    };
    mutate_items(&mut program.items, &mut st);
    if st.applied.is_none() {
        for r in &mut program.routines {
            mutate_items(&mut r.items, &mut st);
            if st.applied.is_some() {
                break;
            }
        }
    }
    debug_assert!(st.applied.is_some(), "site count and walk order disagree");
    st.applied
}

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn synthesis_is_deterministic() {
        let cfg = SynthConfig::default();
        let a = random_program(42, &cfg);
        let b = random_program(42, &cfg);
        assert_eq!(ccdp_ir::print_program(&a), ccdp_ir::print_program(&b));
    }

    #[test]
    fn many_seeds_validate() {
        let cfg = SynthConfig::default();
        for seed in 0..40 {
            let p = random_program(seed, &cfg);
            assert!(ccdp_ir::validate(&p).is_ok(), "seed {seed}");
            assert!(!p.epochs().is_empty());
        }
    }
}
