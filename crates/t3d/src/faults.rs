//! Deterministic fault injection for the T3D simulator.
//!
//! In CCDP the prefetch is the coherence *enforcement* mechanism, so a
//! dropped, late, or evicted prefetch is a correctness hazard unless
//! stale-marked reads degrade gracefully to a coherent demand fetch. This
//! module makes that guarantee machine-checkable: a seeded [`FaultPlan`]
//! injects faults at the simulator's existing charge points, and the
//! invariant under test (see `tests/faults.rs` and the `stress` bin) is that
//! **faults may only move cycles, never values** — under any fault mix the
//! CCDP numerics still equal the sequential golden results and the
//! coherence oracle stays clean.
//!
//! # Fault kinds
//!
//! * **Drop** — a line or vector prefetch is issued (and its issue cycles
//!   are charged) but the data never arrives. Probabilistic
//!   ([`FaultPlan::drop_rate`]) or targeted at one PE / one epoch.
//! * **Delay** — a network latency spike multiplies the remote-fill latency
//!   for a burst of consecutive remote transfers on one PE
//!   ([`FaultPlan::delay_rate`] / `delay_mult` / `delay_burst`).
//! * **Queue storm / shrink** — the prefetch queue's effective capacity is
//!   statically capped ([`FaultPlan::queue_cap`]) or collapses to zero for
//!   a burst of issues ([`FaultPlan::storm_rate`] / `storm_len`), dropping
//!   every in-flight reservation attempt (overflow storm).
//! * **Early evict** — a prefetched line is evicted from the cache before
//!   its first use ([`FaultPlan::evict_rate`]).
//!
//! # Determinism
//!
//! Every decision draws from a per-(PE, fault-kind) xoshiro256++ stream
//! seeded from [`FaultPlan::seed`] (via the vendored `rand` shim — there is
//! no wall-clock nondeterminism anywhere). Streams are independent per
//! kind, and a decision always consumes exactly one draw whenever its
//! knob is active, so the set of prefetches dropped at rate `p` is a
//! subset of those dropped at rate `q > p` under an identical issue
//! sequence — which is what makes the stress sweep's demand-fallback
//! counts monotone in the drop rate.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::ConfigError;

/// A deterministic, seeded fault-injection plan. Carried by value in
/// `SimOptions`; [`FaultPlan::none`] (the default) injects nothing and the
/// simulator's behaviour is then byte-identical to a build without the
/// fault subsystem.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for all fault-decision streams.
    pub seed: u64,
    /// Probability an issued prefetch (line or vector) is dropped.
    pub drop_rate: f64,
    /// Drop *every* prefetch issued by this PE (targeted injector).
    pub drop_pe: Option<usize>,
    /// Drop *every* prefetch issued while this source epoch is executing.
    pub drop_epoch: Option<u32>,
    /// Probability a remote transfer starts a latency-spike burst.
    pub delay_rate: f64,
    /// Latency multiplier applied to remote transfers during a spike.
    pub delay_mult: u64,
    /// Consecutive remote transfers affected once a spike triggers.
    pub delay_burst: u32,
    /// Static shrink of the effective prefetch-queue capacity (words).
    pub queue_cap: Option<usize>,
    /// Probability a prefetch issue begins a queue overflow storm.
    pub storm_rate: f64,
    /// Prefetch issues for which the queue stays fully blocked per storm.
    pub storm_len: u32,
    /// Probability a freshly prefetched line is evicted before first use.
    pub evict_rate: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The no-fault plan: every injector disabled.
    pub const fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            drop_rate: 0.0,
            drop_pe: None,
            drop_epoch: None,
            delay_rate: 0.0,
            delay_mult: 1,
            delay_burst: 1,
            queue_cap: None,
            storm_rate: 0.0,
            storm_len: 1,
            evict_rate: 0.0,
        }
    }

    /// Does this plan inject anything at all?
    pub fn is_none(&self) -> bool {
        self.drop_rate == 0.0
            && self.drop_pe.is_none()
            && self.drop_epoch.is_none()
            && self.delay_rate == 0.0
            && self.queue_cap.is_none()
            && self.storm_rate == 0.0
            && self.evict_rate == 0.0
    }

    /// Set the decision-stream seed.
    pub fn with_seed(mut self, seed: u64) -> FaultPlan {
        self.seed = seed;
        self
    }

    /// Probabilistic prefetch drop.
    pub fn with_drop_rate(mut self, rate: f64) -> FaultPlan {
        self.drop_rate = rate;
        self
    }

    /// Targeted drop: every prefetch issued by `pe` is lost.
    pub fn with_drop_pe(mut self, pe: usize) -> FaultPlan {
        self.drop_pe = Some(pe);
        self
    }

    /// Targeted drop: every prefetch issued inside epoch `id` is lost.
    pub fn with_drop_epoch(mut self, id: u32) -> FaultPlan {
        self.drop_epoch = Some(id);
        self
    }

    /// Remote-latency spike bursts: with probability `rate` per remote
    /// transfer, multiply latency by `mult` for `burst` transfers.
    pub fn with_delay(mut self, rate: f64, mult: u64, burst: u32) -> FaultPlan {
        self.delay_rate = rate;
        self.delay_mult = mult;
        self.delay_burst = burst;
        self
    }

    /// Statically shrink the effective prefetch-queue capacity.
    pub fn with_queue_cap(mut self, words: usize) -> FaultPlan {
        self.queue_cap = Some(words);
        self
    }

    /// Queue overflow storms: with probability `rate` per issue, block the
    /// queue entirely for `len` issues.
    pub fn with_storms(mut self, rate: f64, len: u32) -> FaultPlan {
        self.storm_rate = rate;
        self.storm_len = len;
        self
    }

    /// Early eviction of prefetched lines before first use.
    pub fn with_evict_rate(mut self, rate: f64) -> FaultPlan {
        self.evict_rate = rate;
        self
    }

    /// Check the plan is well-formed: rates are probabilities, and burst /
    /// multiplier parameters are sane whenever their injector is active.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (field, v) in [
            ("drop_rate", self.drop_rate),
            ("delay_rate", self.delay_rate),
            ("storm_rate", self.storm_rate),
            ("evict_rate", self.evict_rate),
        ] {
            if !(0.0..=1.0).contains(&v) || v.is_nan() {
                return Err(ConfigError::BadFaultRate { field, value: v });
            }
        }
        if self.delay_rate > 0.0 && self.delay_mult < 2 {
            return Err(ConfigError::BadFaultParam {
                field: "delay_mult",
                value: self.delay_mult,
                need: "must be >= 2 when delay_rate > 0",
            });
        }
        if self.delay_rate > 0.0 && self.delay_burst == 0 {
            return Err(ConfigError::BadFaultParam {
                field: "delay_burst",
                value: self.delay_burst as u64,
                need: "must be >= 1 when delay_rate > 0",
            });
        }
        if self.storm_rate > 0.0 && self.storm_len == 0 {
            return Err(ConfigError::BadFaultParam {
                field: "storm_len",
                value: self.storm_len as u64,
                need: "must be >= 1 when storm_rate > 0",
            });
        }
        Ok(())
    }
}

/// Per-PE fault accounting: what was injected, and how often a faulted line
/// was recovered by a coherent demand fetch (the graceful-degradation
/// fallback). Summed machine-wide by `SimResult::fault_stats`.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct FaultStats {
    /// Prefetch operations (line or vector) dropped by injection.
    pub prefetches_dropped: u64,
    /// Remote transfers hit by an injected latency spike.
    pub fills_delayed: u64,
    /// Extra latency cycles added by spikes (arrival delay on prefetches,
    /// charged stall on demand fills).
    pub delay_extra_cycles: u64,
    /// Queue overflow storms begun.
    pub queue_storms: u64,
    /// Prefetches lost to a storm or to injected capacity shrink.
    pub storm_drops: u64,
    /// Prefetched lines evicted before their first use.
    pub early_evictions: u64,
    /// Demand fetches that re-fetched a line whose prefetch was faulted —
    /// the coherent fallback every fault must degrade to.
    pub demand_fallbacks: u64,
}

impl FaultStats {
    pub fn add(&mut self, o: &FaultStats) {
        self.prefetches_dropped += o.prefetches_dropped;
        self.fills_delayed += o.fills_delayed;
        self.delay_extra_cycles += o.delay_extra_cycles;
        self.queue_storms += o.queue_storms;
        self.storm_drops += o.storm_drops;
        self.early_evictions += o.early_evictions;
        self.demand_fallbacks += o.demand_fallbacks;
    }

    /// Total faults injected (fallbacks are recoveries, not injections).
    pub fn injected(&self) -> u64 {
        self.prefetches_dropped
            + self.fills_delayed
            + self.queue_storms
            + self.storm_drops
            + self.early_evictions
    }

    pub fn is_zero(&self) -> bool {
        *self == FaultStats::default()
    }
}

/// Index of a decision stream within a PE's bank.
#[derive(Clone, Copy)]
enum Stream {
    Drop = 0,
    Delay = 1,
    Storm = 2,
    Evict = 3,
}

const N_STREAMS: usize = 4;

/// Runtime state of the injectors: per-(PE, kind) RNG streams, burst
/// counters, and the set of lines whose prefetch was faulted (consulted to
/// attribute subsequent demand fills as fallbacks).
pub(crate) struct FaultEngine {
    plan: FaultPlan,
    streams: Vec<StdRng>,
    delay_left: Vec<u32>,
    storm_left: Vec<u32>,
    faulted_lines: Vec<HashSet<u64>>,
}

/// SplitMix64-style mix so each (seed, pe, kind) stream is decorrelated.
fn stream_seed(seed: u64, pe: usize, kind: usize) -> u64 {
    let mut z = seed
        ^ (pe as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (kind as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultEngine {
    pub fn new(plan: FaultPlan, n_pes: usize) -> FaultEngine {
        let streams = (0..n_pes * N_STREAMS)
            .map(|i| StdRng::seed_from_u64(stream_seed(plan.seed, i / N_STREAMS, i % N_STREAMS)))
            .collect();
        FaultEngine {
            plan,
            streams,
            delay_left: vec![0; n_pes],
            storm_left: vec![0; n_pes],
            faulted_lines: vec![HashSet::new(); n_pes],
        }
    }

    fn draw(&mut self, pe: usize, s: Stream, rate: f64) -> bool {
        self.streams[pe * N_STREAMS + s as usize].gen_bool(rate)
    }

    /// Should the prefetch a PE is issuing right now be dropped?
    /// Consumes exactly one draw from the drop stream whenever
    /// `drop_rate > 0`, regardless of targeted outcomes, so drop decisions
    /// at different rates stay aligned (and nested).
    pub fn should_drop(&mut self, pe: usize, epoch: Option<u32>) -> bool {
        let random = self.plan.drop_rate > 0.0 && self.draw(pe, Stream::Drop, self.plan.drop_rate);
        let targeted = self.plan.drop_pe == Some(pe)
            || (self.plan.drop_epoch.is_some() && self.plan.drop_epoch == epoch);
        random || targeted
    }

    /// Effective queue capacity for this issue, and whether a new storm just
    /// began. A storm blocks the queue entirely for `storm_len` issues.
    pub fn effective_queue(&mut self, pe: usize, base: usize) -> (usize, bool) {
        let mut cap = base;
        if let Some(c) = self.plan.queue_cap {
            cap = cap.min(c);
        }
        let mut began = false;
        if self.storm_left[pe] > 0 {
            self.storm_left[pe] -= 1;
            return (0, began);
        }
        if self.plan.storm_rate > 0.0 && self.draw(pe, Stream::Storm, self.plan.storm_rate) {
            self.storm_left[pe] = self.plan.storm_len.saturating_sub(1);
            began = true;
            return (0, began);
        }
        (cap, began)
    }

    /// Latency multiplier for a remote transfer (1 = no spike). Burst state
    /// is per PE: once a spike triggers, the next `delay_burst - 1`
    /// transfers on that PE are also multiplied.
    pub fn fill_multiplier(&mut self, pe: usize) -> u64 {
        if self.delay_left[pe] > 0 {
            self.delay_left[pe] -= 1;
            return self.plan.delay_mult;
        }
        if self.plan.delay_rate > 0.0 && self.draw(pe, Stream::Delay, self.plan.delay_rate) {
            self.delay_left[pe] = self.plan.delay_burst.saturating_sub(1);
            return self.plan.delay_mult;
        }
        1
    }

    /// Should the line just installed by a prefetch be evicted before use?
    pub fn should_evict(&mut self, pe: usize) -> bool {
        self.plan.evict_rate > 0.0 && self.draw(pe, Stream::Evict, self.plan.evict_rate)
    }

    /// Record that a line's prefetch was faulted on `pe`; a later demand
    /// fetch of it counts as a graceful-degradation fallback.
    pub fn note_faulted(&mut self, pe: usize, line_addr: u64) {
        self.faulted_lines[pe].insert(line_addr);
    }

    /// A successful prefetch install of the line masks any earlier fault.
    pub fn clear_faulted(&mut self, pe: usize, line_addr: u64) {
        self.faulted_lines[pe].remove(&line_addr);
    }

    /// Was this demand fill recovering a faulted line? Consumes the mark.
    pub fn take_fallback(&mut self, pe: usize, line_addr: u64) -> bool {
        self.faulted_lines[pe].remove(&line_addr)
    }
}

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn none_plan_is_inert_and_valid() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        assert!(p.validate().is_ok());
        assert_eq!(p, FaultPlan::default());
    }

    #[test]
    fn builders_compose_and_validate() {
        let p = FaultPlan::none()
            .with_seed(7)
            .with_drop_rate(0.25)
            .with_delay(0.1, 4, 3)
            .with_storms(0.05, 4)
            .with_evict_rate(0.1)
            .with_queue_cap(8);
        assert!(!p.is_none());
        assert_eq!(p.seed, 7);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_rates_and_params() {
        assert!(FaultPlan::none().with_drop_rate(1.5).validate().is_err());
        assert!(FaultPlan::none().with_drop_rate(-0.1).validate().is_err());
        assert!(FaultPlan::none().with_evict_rate(f64::NAN).validate().is_err());
        let mut p = FaultPlan::none().with_delay(0.1, 4, 3);
        p.delay_mult = 1;
        assert!(p.validate().is_err());
        p.delay_mult = 4;
        p.delay_burst = 0;
        assert!(p.validate().is_err());
        let mut s = FaultPlan::none().with_storms(0.1, 2);
        s.storm_len = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn drop_decisions_are_nested_across_rates() {
        // Same seed, aligned draws: every drop at rate 0.05 also drops at
        // rate 0.4 — the property the stress sweep's monotonicity rests on.
        let mut lo = FaultEngine::new(FaultPlan::none().with_seed(11).with_drop_rate(0.05), 2);
        let mut hi = FaultEngine::new(FaultPlan::none().with_seed(11).with_drop_rate(0.4), 2);
        for i in 0..4000 {
            let pe = (i % 2) as usize;
            let a = lo.should_drop(pe, None);
            let b = hi.should_drop(pe, None);
            assert!(!a || b, "draw {i}: dropped at low rate but not high");
        }
    }

    #[test]
    fn targeted_drop_hits_only_its_target() {
        let mut f = FaultEngine::new(FaultPlan::none().with_drop_pe(1), 4);
        assert!(!f.should_drop(0, None));
        assert!(f.should_drop(1, None));
        let mut g = FaultEngine::new(FaultPlan::none().with_drop_epoch(3), 2);
        assert!(!g.should_drop(0, Some(2)));
        assert!(g.should_drop(0, Some(3)));
        assert!(!g.should_drop(0, None));
    }

    #[test]
    fn storms_block_queue_for_their_length() {
        let mut f = FaultEngine::new(FaultPlan::none().with_storms(1.0, 3), 1);
        let (cap, began) = f.effective_queue(0, 16);
        assert_eq!((cap, began), (0, true));
        // Two more blocked issues, no new storm counted.
        assert_eq!(f.effective_queue(0, 16), (0, false));
        assert_eq!(f.effective_queue(0, 16), (0, false));
        // rate 1.0: the next issue starts the next storm.
        assert_eq!(f.effective_queue(0, 16), (0, true));
    }

    #[test]
    fn static_queue_cap_applies_without_storms() {
        let mut f = FaultEngine::new(FaultPlan::none().with_queue_cap(4), 1);
        assert_eq!(f.effective_queue(0, 16), (4, false));
        // The machine's own capacity is never *raised*.
        let mut g = FaultEngine::new(FaultPlan::none().with_queue_cap(64), 1);
        assert_eq!(g.effective_queue(0, 16), (16, false));
    }

    #[test]
    fn delay_bursts_cover_consecutive_transfers() {
        let mut f = FaultEngine::new(FaultPlan::none().with_delay(1.0, 5, 3), 1);
        assert_eq!(f.fill_multiplier(0), 5);
        assert_eq!(f.fill_multiplier(0), 5);
        assert_eq!(f.fill_multiplier(0), 5);
        // Burst over; rate 1.0 immediately starts the next one.
        assert_eq!(f.fill_multiplier(0), 5);
    }

    #[test]
    fn fallback_marks_are_consumed_once() {
        let mut f = FaultEngine::new(FaultPlan::none().with_drop_rate(0.5), 2);
        f.note_faulted(0, 42);
        assert!(f.take_fallback(0, 42));
        assert!(!f.take_fallback(0, 42), "mark must be consumed");
        f.note_faulted(1, 7);
        f.clear_faulted(1, 7);
        assert!(!f.take_fallback(1, 7), "successful install masks the fault");
    }

    #[test]
    fn same_seed_same_decisions() {
        let plan = FaultPlan::none().with_seed(99).with_drop_rate(0.3).with_delay(0.2, 4, 2);
        let mut a = FaultEngine::new(plan, 3);
        let mut b = FaultEngine::new(plan, 3);
        for i in 0..1000 {
            let pe = i % 3;
            assert_eq!(a.should_drop(pe, None), b.should_drop(pe, None));
            assert_eq!(a.fill_multiplier(pe), b.fill_multiplier(pe));
        }
    }
}
