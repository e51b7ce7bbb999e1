//! Cross-backend equivalence: every coherence backend — software (BASE,
//! CCDP, invalidate-only) and hardware (snooping MESI, update-based Dragon)
//! — must produce final shared-array contents bit-identical to the
//! sequential golden run, with a clean staleness oracle, on every paper
//! kernel × PE count and on synthesized programs. Performance differs per
//! scheme; semantics never do.
//!
//! (The per-transition MESI/Dragon state-machine unit tests live next to
//! the implementation in `t3d-sim`'s `coherence` module.)

use ccdp_bench::synth::{random_program, SynthConfig};
use ccdp_core::{compare, PipelineConfig, Scheme};
use ccdp_kernels::{small_suite, values_equal};
use proptest::prelude::*;

const PES: [usize; 4] = [1, 2, 4, 8];

#[test]
fn every_backend_matches_golden_on_every_paper_kernel() {
    for spec in small_suite() {
        let aid = spec.program.array_by_name(spec.check_array).unwrap().id;
        for n in PES {
            let m = compare(&spec.program, &PipelineConfig::t3d(n), &Scheme::ALL)
                .unwrap_or_else(|e| panic!("{} P={n}: {e}", spec.name));
            for run in &m.runs {
                let name = run.scheme.name();
                assert!(
                    run.result.oracle.is_coherent(),
                    "{} P={n} {name}: {:?}",
                    spec.name,
                    run.result.oracle.examples
                );
                assert!(
                    values_equal(&run.result.array_values(&spec.program, aid), &spec.golden),
                    "{} P={n} {name}: numerics diverged from golden",
                    spec.name
                );
            }
            // The hardware backends must actually be exercising the bus
            // once there is more than one PE — a zero count would mean the
            // scheme silently fell back to something else.
            if n > 1 {
                for s in [Scheme::Mesi, Scheme::Dragon] {
                    let txns = m.get(s).unwrap().result.total_stats().bus_txns;
                    assert!(txns > 0, "{} P={n} {}: no bus traffic", spec.name, s.name());
                }
            }
        }
    }
}

#[test]
fn hardware_backends_need_no_prefetch_plan() {
    // A hardware run reports zero compiler-inserted prefetches: coherence
    // comes from the protocol, not the plan.
    let spec = &small_suite()[0];
    let m = compare(&spec.program, &PipelineConfig::t3d(4), &Scheme::ALL).expect("coherent");
    for s in [Scheme::Mesi, Scheme::Dragon] {
        let t = m.get(s).unwrap().result.total_stats();
        assert_eq!(
            t.line_prefetches_issued + t.vector_prefetches_issued,
            0,
            "{}: hardware scheme issued compiler prefetches",
            s.name()
        );
    }
    // While the CCDP run does prefetch.
    let ccdp = m.get(Scheme::Ccdp).unwrap().result.total_stats();
    assert!(ccdp.line_prefetches_issued + ccdp.vector_prefetches_issued > 0);
}

fn check_synth(seed: u64, n_pes: usize) -> Result<(), TestCaseError> {
    let program = random_program(seed, &SynthConfig::default());
    let m = compare(&program, &PipelineConfig::t3d(n_pes), &Scheme::ALL)
        .unwrap_or_else(|e| panic!("seed {seed} P={n_pes}: {e}"));
    for run in &m.runs {
        let name = run.scheme.name();
        prop_assert!(
            run.result.oracle.is_coherent(),
            "seed {} P={} {}: {:?}",
            seed,
            n_pes,
            name,
            run.result.oracle.examples
        );
        for a in &program.arrays {
            prop_assert_eq!(
                run.result.array_values(&program, a.id),
                m.seq.array_values(&program, a.id),
                "seed {} P={} {} array {}: diverged from SEQ",
                seed,
                n_pes,
                name,
                &a.name
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_backend_matches_seq_on_synthesized_programs(
        seed in 0u64..10_000,
        n_pes in prop::sample::select(vec![1usize, 2, 3, 5, 8]),
    ) {
        check_synth(seed, n_pes)?;
    }
}

/// Fixed regression sweep (deterministic, no shrinking).
#[test]
fn fixed_seed_backend_sweep() {
    for seed in [0u64, 3, 17, 256, 4071] {
        for n_pes in [2usize, 6] {
            check_synth(seed, n_pes).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}

/// One hardware-backend count pin: scheme, kernel, P, then cycles,
/// cache_hits, local_fills, remote_fills, writes_local, writes_remote,
/// bus_txns, bus_invalidations, bus_updates.
type CountPin = (&'static str, &'static str, usize, [u64; 9]);

/// Counts recorded from the MESI/Dragon backends on `small_suite()`. The
/// value checks above pass for any protocol that keeps copies current;
/// these pin *what the protocol did* — a change to the snoop bookkeeping
/// that alters one transaction, invalidation or update shows up here.
const HARDWARE_COUNT_PINS: &[CountPin] = &[
    ("MESI", "MXM", 2, [31880, 9120, 176, 96, 3776, 0, 272, 0, 0]),
    ("DRAGON", "MXM", 2, [31880, 9120, 176, 96, 3776, 0, 272, 0, 0]),
    ("MESI", "MXM", 8, [22586, 8544, 176, 672, 3776, 0, 848, 0, 0]),
    ("DRAGON", "MXM", 8, [22586, 8544, 176, 672, 3776, 0, 848, 0, 0]),
    ("MESI", "VPENTA", 2, [74213, 5498, 1952, 0, 5088, 0, 1952, 0, 0]),
    ("DRAGON", "VPENTA", 2, [74213, 5498, 1952, 0, 5088, 0, 1952, 0, 0]),
    ("MESI", "VPENTA", 8, [18030, 6336, 1008, 0, 5088, 0, 1008, 0, 0]),
    ("DRAGON", "VPENTA", 8, [18030, 6336, 1008, 0, 5088, 0, 1008, 0, 0]),
    ("MESI", "TOMCATV", 2, [217337, 16521, 2386, 718, 7548, 1440, 3511, 562, 0]),
    ("DRAGON", "TOMCATV", 2, [179073, 17013, 2145, 434, 7548, 1440, 3949, 0, 1265]),
    ("MESI", "TOMCATV", 8, [177932, 14308, 1702, 3716, 6468, 2520, 7120, 3087, 0]),
    ("DRAGON", "TOMCATV", 8, [129995, 16975, 1124, 1367, 6468, 2520, 6809, 0, 7645]),
    ("MESI", "SWIM", 2, [446841, 51300, 6625, 132, 16284, 153, 6801, 85, 0]),
    ("DRAGON", "SWIM", 2, [447270, 51345, 6584, 126, 16284, 153, 6958, 0, 231]),
    ("MESI", "SWIM", 8, [162334, 53910, 2462, 675, 15672, 765, 3480, 573, 0]),
    ("DRAGON", "SWIM", 8, [165997, 54234, 2243, 543, 15672, 765, 4710, 0, 1839]),
];

fn hardware_counts(kernel: &str, n_pes: usize, scheme: Scheme) -> [u64; 9] {
    let spec = small_suite().into_iter().find(|s| s.name == kernel).expect("kernel");
    let r = PipelineConfig::t3d(n_pes).run(&spec.program, scheme).expect("coherent").result;
    let t = r.total_stats();
    [
        r.cycles,
        t.cache_hits,
        t.local_fills,
        t.remote_fills,
        t.writes_local,
        t.writes_remote,
        t.bus_txns,
        t.bus_invalidations,
        t.bus_updates,
    ]
}

#[test]
fn hardware_backend_counts_match_pins() {
    assert_eq!(HARDWARE_COUNT_PINS.len(), small_suite().len() * 2 * 2);
    for &(scheme, kernel, n_pes, want) in HARDWARE_COUNT_PINS {
        let s = if scheme == "MESI" { Scheme::Mesi } else { Scheme::Dragon };
        assert_eq!(
            hardware_counts(kernel, n_pes, s),
            want,
            "{scheme} {kernel} P={n_pes}: [cycles, hits, local_fills, remote_fills, \
             writes_local, writes_remote, bus_txns, bus_invalidations, bus_updates]"
        );
    }
}
