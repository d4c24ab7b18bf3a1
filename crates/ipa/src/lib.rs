//! Interprocedural analysis (the paper's IPL + IPA phases).
//!
//! "Interprocedural analysis consists of two phases: an information
//! gathering phase (IPL) and the main optimization phase (IPA)."
//!
//! - [`callgraph`] — nodes = procedures, edges = call sites; pre-order and
//!   bottom-up traversals, DOT export for the Dragon view (Fig. 11);
//! - [`local`] — IPL: per-procedure array-access summaries built from the
//!   H-level WHIRL tree (`DEF`/`USE`/`FORMAL`/`PASSED` records with triplet
//!   and convex regions);
//! - [`propagate`] — IPA: bottom-up summary propagation with formal→actual
//!   translation;
//! - [`sideeffect`] — call-site effect sets and the Fig. 1 parallelization
//!   independence test;
//! - [`isolate`] — budget-bounded, panic-contained IPL, fanned out over
//!   `support::par` workers (one failure degrades one procedure, not the
//!   run);
//! - [`rebase`] — rewrites cached summaries onto a re-parsed program (the
//!   incremental session's cache-hit path).

pub mod callgraph;
pub mod index_facts;
pub mod interval_ai;
pub mod isolate;
pub mod local;
pub mod loop_parallel;
pub mod persist;
pub mod propagate;
pub mod rebase;
pub mod sideeffect;

pub use callgraph::{CallGraph, CallSite};
pub use index_facts::IndexArrayFact;
pub use interval_ai::RecoveredBounds;
pub use isolate::{IplFailure, IplOutcome};
pub use local::{AccessRecord, ProcSummary, Revision};
pub use loop_parallel::{analyze_proc_loops, analyze_proc_loops_with_facts, LoopVerdict, ScalarUse};
pub use propagate::{analyze, validated_index_facts, IpaResult};
pub use sideeffect::{find_parallel_pairs, independent, CallEffects, ParallelPair};
