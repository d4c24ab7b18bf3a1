//! `araa` — the paper's core contribution: interprocedural array-region
//! analysis extraction (Algorithm 1) and the `.rgn`/`.dgn`/`.cfg` exports.
//!
//! "OpenUH IPA optimization phase was extended in a way that merges the
//! array region analysis module with the WHIRL-Tree in order to extract the
//! array information interprocedurally and store them in a plain file."
//!
//! Pipeline (see [`driver::Analysis::analyze`] for one-shot runs and
//! [`session::AnalysisSession`] for incremental re-analysis):
//!
//! 1. [`frontend`] compiles Fortran/C sources to H WHIRL with a static data
//!    layout;
//! 2. [`ipa`] builds the call graph, gathers per-procedure summaries (IPL)
//!    and propagates them (IPA);
//! 3. [`extract`] walks the call graph pre-order (Algorithm 1), converting
//!    each summarized region into a [`row::RgnRow`] with source-language
//!    bounds, reference counts, array attributes and the access density
//!    `AD(array, mode) = references / size_bytes` (displayed as a truncated
//!    percentage);
//! 4. [`rgn`]/[`dgn`]/[`cfg`](mod@cfg) serialize the artifacts the Dragon tool loads.

pub mod cfg;
pub mod dgn;
pub mod driver;
pub mod dynamic;
pub mod extract;
pub mod rgn;
pub mod row;
pub mod session;

pub use driver::{Analysis, AnalysisOptions, AnalysisOptionsBuilder, Degradation};
pub use extract::{extract_rows, ExtractOptions};
pub use row::RgnRow;
pub use session::{AnalysisDelta, AnalysisSession, CacheStats, SessionStore, VerifyReport};
