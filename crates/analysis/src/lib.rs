//! Compiler analyses for the CCDP scheme (paper §4.1):
//!
//! * **Per-PE access sections** ([`access`]): which elements of an array a
//!   given PE may read/write through a reference over a whole epoch, derived
//!   from the data distribution and the DOALL iteration schedule.
//! * **Stale reference analysis** ([`stale`]): the Choi–Yew style epoch
//!   data-flow that classifies every shared read reference as *clean* or
//!   *potentially stale*.
//! * **Locality analysis** ([`locality`]): uniformly generated reference
//!   groups and group-spatial locality with leading-reference selection
//!   (consumed by prefetch target analysis, paper Fig. 1).
//! * **Interprocedural summaries** ([`summary`]): per-routine read/write
//!   section summaries (SWIM's CALC1..CALC3).
//! * **Coverage obligations** ([`verify`]): an independent re-derivation of
//!   what a prefetch plan must protect, consumed by the `ccdp-lint` static
//!   soundness verifier and cross-checked against [`stale`].
//!
//! Everything is conservative in the direction that is safe for coherence:
//! when in doubt a reference is *potentially stale* (costs a prefetch, never
//! correctness).

pub mod access;
pub mod locality;
pub mod parallelize;
pub mod stale;
pub mod summary;
pub mod verify;

pub use access::{epoch_access_sections, ref_section_for_pe, EpochAccess, PeSections};
pub use locality::{find_uniform_groups, group_spatial, GroupSpatial, UniformGroup};
pub use parallelize::{auto_parallelize, LoopDecision, ParallelizeReport};
pub use stale::{analyze_stale, StaleAnalysis, StaleReason};
pub use summary::{summarize_routine, RoutineSummary};
pub use verify::{
    coverage_obligations, EpochObligations, Obligations, RaceObligation, ReadObligation,
};
