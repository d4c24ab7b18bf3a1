//! End-to-end driver: sources → compiled program → IPA → `.rgn`/`.dgn`/`.cfg`.
//!
//! Mirrors the paper's usage recipe: "Modify the Makefile of the application
//! to use the OpenUH compiler with interprocedural array analysis
//! (-IPA:array_section:array_summary) ... as well as the (-dragon) flag.
//! Compile the application. A bunch of files will be generated that includes
//! .dgn, .cfg and .rgn files."

use crate::cfg::Cfg;
use crate::dgn::DgnProject;
use crate::row::RgnRow;
use crate::session::AnalysisSession;
use frontend::{SourceFile, DEFAULT_LAYOUT_BASE};
use ipa::{CallGraph, IpaResult};
use support::budget::BudgetConfig;
use support::{Error, Result};
use whirl::Program;

/// Analysis knobs — the `-IPA:array_section` / `-dragon` flag family.
///
/// Construct via [`AnalysisOptions::builder`] (or [`Default`]); the struct
/// is `#[non_exhaustive]` so new knobs can be added without breaking
/// downstream construction sites.
///
/// ```
/// use araa::AnalysisOptions;
///
/// let opts = AnalysisOptions::builder()
///     .threads(4)
///     .include_propagated(false)
///     .build();
/// assert_eq!(opts.threads, 4);
/// assert!(!opts.include_propagated);
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, Copy)]
pub struct AnalysisOptions {
    /// Base address for the static data layout (`Mem_Loc` column).
    pub layout_base: u64,
    /// Include interprocedurally-propagated rows.
    pub include_propagated: bool,
    /// Worker threads for the IPL phase (1 = serial).
    pub threads: usize,
    /// Resource budgets bounding each per-procedure analysis. Exhaustion
    /// widens regions conservatively instead of failing.
    pub budget: BudgetConfig,
    /// Allocation ceiling for one update, in mebibytes (`None` =
    /// unlimited). Charged at the same checkpoints as `budget`; exhaustion
    /// widens the remaining regions conservatively and records a
    /// `memory`-stage [`Degradation`]. Accounting only moves when a
    /// counting global allocator is installed (the `dragon` binary does).
    pub mem_budget_mb: Option<u64>,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            layout_base: DEFAULT_LAYOUT_BASE,
            include_propagated: true,
            threads: 1,
            budget: BudgetConfig::default(),
            mem_budget_mb: None,
        }
    }
}

impl AnalysisOptions {
    /// Starts a builder seeded with the defaults.
    pub fn builder() -> AnalysisOptionsBuilder {
        AnalysisOptionsBuilder { opts: AnalysisOptions::default() }
    }
}

/// Builder for [`AnalysisOptions`]. Every knob defaults to
/// [`AnalysisOptions::default`]; set only what you need and [`build`](Self::build).
#[derive(Debug, Clone, Default)]
pub struct AnalysisOptionsBuilder {
    opts: AnalysisOptions,
}

impl AnalysisOptionsBuilder {
    /// Worker threads for the IPL phase (1 = serial).
    pub fn threads(mut self, n: usize) -> Self {
        self.opts.threads = n;
        self
    }

    /// Base address for the static data layout (`Mem_Loc` column).
    pub fn layout_base(mut self, base: u64) -> Self {
        self.opts.layout_base = base;
        self
    }

    /// Whether interprocedurally-propagated rows are extracted.
    pub fn include_propagated(mut self, yes: bool) -> Self {
        self.opts.include_propagated = yes;
        self
    }

    /// Resource budgets bounding each per-procedure analysis.
    pub fn budget(mut self, budget: BudgetConfig) -> Self {
        self.opts.budget = budget;
        self
    }

    /// Allocation ceiling for one update, in mebibytes (`None` = unlimited).
    pub fn mem_budget_mb(mut self, mb: Option<u64>) -> Self {
        self.opts.mem_budget_mb = mb;
        self
    }

    /// Finalizes the options.
    pub fn build(self) -> AnalysisOptions {
        self.opts
    }
}

/// One contained failure: a pipeline stage could not complete for one
/// procedure (or one cross-cutting pass) and a conservative substitute was
/// used instead. The analysis result is still sound — just less precise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// The affected procedure's display name, or a `(...)`-wrapped pass
    /// name for failures not attributable to one procedure.
    pub proc: String,
    /// The stage that degraded: `parse`, `sema`, `ipl`, `budget`,
    /// `memory`, `ipa`, `extract`, or `lint`.
    pub stage: String,
    /// Human-readable cause.
    pub detail: String,
}

impl std::fmt::Display for Degradation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.stage, self.proc, self.detail)
    }
}

impl Degradation {
    pub(crate) fn from_frontend(e: &Error) -> Degradation {
        match e {
            Error::Degraded { proc, stage, detail } => Degradation {
                proc: proc.clone(),
                stage: stage.clone(),
                detail: detail.clone(),
            },
            Error::Lex { .. } | Error::Parse { .. } => Degradation {
                proc: "(frontend)".to_string(),
                stage: "parse".to_string(),
                detail: e.to_string(),
            },
            _ => Degradation {
                proc: "(frontend)".to_string(),
                stage: "sema".to_string(),
                detail: e.to_string(),
            },
        }
    }
}

/// Everything the compiler side produces for Dragon.
///
/// ```
/// use araa::{Analysis, AnalysisOptions};
///
/// // Analyze the paper's matrix.c and check a Fig. 9 row.
/// let analysis = Analysis::analyze(
///     &[workloads::fig10::source()],
///     AnalysisOptions::default(),
/// )
/// .unwrap();
/// let strided = analysis
///     .rows
///     .iter()
///     .find(|r| r.stride == "2")
///     .expect("the strided USE row");
/// assert_eq!((strided.lb.as_str(), strided.ub.as_str()), ("2", "6"));
/// assert_eq!(strided.acc_density, 3);
/// ```
#[derive(Debug)]
pub struct Analysis {
    /// The compiled program (H WHIRL, laid out).
    pub program: Program,
    /// The call graph.
    pub callgraph: CallGraph,
    /// Per-procedure summaries after propagation.
    pub ipa: IpaResult,
    /// The extracted `.rgn` rows.
    pub rows: Vec<RgnRow>,
    /// Every failure contained during the run, in pipeline order. Empty for
    /// a clean run; non-empty means some results are conservative
    /// approximations (see each entry's stage and detail).
    pub degradations: Vec<Degradation>,
}

impl Analysis {
    /// Runs the whole pipeline on any iterable of sources — owned or
    /// borrowed [`SourceFile`]s, or generated workload sources
    /// ([`workloads::GenSource`]).
    ///
    /// Every stage is fault-isolated per procedure: a parse error drops one
    /// statement or unit, a panic or budget exhaustion in IPL degrades one
    /// procedure's summary to a conservative whole-array approximation, a
    /// propagation failure falls back to unpropagated local summaries, and
    /// an extraction failure drops one procedure's rows. Each incident is
    /// recorded in [`Analysis::degradations`]. `Err` is reserved for total
    /// failures (nothing parseable at all).
    ///
    /// This is a one-shot cold start of an [`AnalysisSession`]; keep the
    /// session itself when you expect to re-analyze edited sources.
    pub fn analyze<I>(sources: I, opts: AnalysisOptions) -> Result<Analysis>
    where
        I: IntoIterator,
        I::Item: Into<SourceFile>,
    {
        let mut session = AnalysisSession::new(opts);
        session.update(sources)?;
        session
            .into_analysis()
            .ok_or_else(|| Error::Analysis("analysis session kept no result".to_string()))
    }

    /// True when any stage degraded during the run.
    pub fn degraded(&self) -> bool {
        !self.degradations.is_empty()
    }

    /// A human-readable degradation report, one line per incident
    /// (`[stage] proc: detail`). Empty string for a clean run.
    pub fn degradation_report(&self) -> String {
        let mut out = String::new();
        for d in &self.degradations {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out
    }

    /// The `.rgn` document.
    pub fn rgn_document(&self) -> String {
        crate::rgn::write_rgn(&self.rows)
    }

    /// The `.dgn` project document.
    pub fn dgn_document(&self) -> String {
        DgnProject::from_program(&self.program, &self.callgraph).write()
    }

    /// The `.cfg` document: concatenated DOT CFGs, one per procedure,
    /// finished with a `#checksum` trailer (`#` is a DOT comment).
    pub fn cfg_document(&self) -> String {
        let mut out = String::new();
        for proc in self.program.procedures.iter() {
            let name = self.program.name_of(proc.name);
            out.push_str(&Cfg::build(proc).to_dot(name));
            out.push('\n');
        }
        support::persist::append_text_checksum(&mut out);
        out
    }

    /// Writes `<stem>.rgn`, `<stem>.dgn` and `<stem>.cfg` under `dir`.
    ///
    /// Each file is written atomically (temp file + fsync + rename): a crash
    /// or full disk mid-write leaves either the previous artifact or the new
    /// one, never a truncated hybrid that a later Dragon load would choke on.
    pub fn write_project(&self, dir: &std::path::Path, stem: &str) -> Result<()> {
        let _span = support::obs::span("write.project");
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::io(format!("creating {}", dir.display()), e))?;
        for (ext, doc) in [
            ("rgn", self.rgn_document()),
            ("dgn", self.dgn_document()),
            ("cfg", self.cfg_document()),
        ] {
            let path = dir.join(format!("{stem}.{ext}"));
            support::persist::atomic_write(&path, doc.as_bytes())?;
        }
        Ok(())
    }

    /// Rows for one procedure scope (by display name).
    pub fn rows_for_proc(&self, display: &str) -> Vec<&RgnRow> {
        self.rows.iter().filter(|r| r.proc == display).collect()
    }

    /// Rows for the `@` global scope.
    pub fn global_rows(&self) -> Vec<&RgnRow> {
        self.rows.iter().filter(|r| r.is_global).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regions::access::AccessMode;

    fn analyze_mini_lu() -> Analysis {
        Analysis::analyze(&workloads::mini_lu::sources(), AnalysisOptions::default())
            .unwrap()
    }

    #[test]
    fn mini_lu_compiles_and_has_24_procedures() {
        let a = analyze_mini_lu();
        assert_eq!(a.program.procedure_count(), 24);
        assert_eq!(a.callgraph.size(), 24);
    }

    #[test]
    fn table2_xcr_rows() {
        let a = analyze_mini_lu();
        let verify_rows = a.rows_for_proc("verify");
        let xcr_use: Vec<_> = verify_rows
            .iter()
            .filter(|r| r.array == "xcr" && r.mode == AccessMode::Use)
            .collect();
        // Fig. 12: four USE rows, refs 4, region 1:5, 40 bytes, AD 10.
        assert_eq!(xcr_use.len(), 4, "{xcr_use:#?}");
        for r in &xcr_use {
            assert_eq!(r.refs, 4);
            assert_eq!((r.lb.as_str(), r.ub.as_str(), r.stride.as_str()), ("1", "5", "1"));
            assert_eq!(r.elem_size, 8);
            assert_eq!(r.data_type, "double");
            assert_eq!(r.dim_size, "5");
            assert_eq!(r.tot_size, 5);
            assert_eq!(r.size_bytes, 40);
            assert_eq!(r.acc_density, 10);
            assert_eq!(r.file, "verify.o");
        }
        // Table II: the FORMAL row with AD 2.
        let formal = verify_rows
            .iter()
            .find(|r| r.array == "xcr" && r.mode == AccessMode::Formal)
            .unwrap();
        assert_eq!(formal.refs, 1);
        assert_eq!(formal.acc_density, 2);
        assert_eq!((formal.lb.as_str(), formal.ub.as_str()), ("1", "5"));
        // Both xcr and xce resolve to caller addresses; distinct arrays get
        // distinct locations (b79edfa0 vs b79ef7e0 in the paper).
        let xce_use = verify_rows
            .iter()
            .find(|r| r.array == "xce" && r.mode == AccessMode::Use)
            .unwrap();
        assert_ne!(xcr_use[0].mem_loc, "0");
        assert_ne!(xce_use.mem_loc, "0");
        assert_ne!(xcr_use[0].mem_loc, xce_use.mem_loc);
    }

    #[test]
    fn table3_u_rows() {
        let a = analyze_mini_lu();
        let rhs_rows = a.rows_for_proc("rhs");
        let u_use: Vec<_> = rhs_rows
            .iter()
            .filter(|r| r.array == "u" && r.mode == AccessMode::Use)
            .collect();
        assert_eq!(u_use.len(), workloads::mini_lu::U_USE_REFS);
        for r in &u_use {
            // Fig. 14 / Table III constants.
            assert_eq!(r.refs, 110);
            assert_eq!(r.dims, 4);
            assert_eq!(r.elem_size, 8);
            assert_eq!(r.data_type, "double");
            assert_eq!(r.dim_size, "64|65|65|5");
            assert_eq!(r.tot_size, 1_352_000);
            assert_eq!(r.size_bytes, 10_816_000);
            assert_eq!(r.acc_density, 0);
            assert_eq!(r.file, "rhs.o");
            assert!(r.is_global);
            // Every row covers (1:3, 1:5, 1:10, c:c) with c in 1..=4.
            assert!(r.lb.starts_with("1|1|1|"), "{r:?}");
            assert!(r.ub.starts_with("3|5|10|"), "{r:?}");
        }
        // The separately-accessed last dimension spans 1..=4 overall.
        let mut last_dims: Vec<&str> =
            u_use.iter().map(|r| r.ub.rsplit('|').next().unwrap()).collect();
        last_dims.sort_unstable();
        last_dims.dedup();
        assert_eq!(last_dims, ["1", "2", "3", "4"]);
    }

    #[test]
    fn class_hotspot_row() {
        let a = analyze_mini_lu();
        let class_def = a
            .rows
            .iter()
            .find(|r| r.array == "class" && r.mode == AccessMode::Def)
            .unwrap();
        // Fig. 12 row 9: char, elem 1, dims 1, 1:1, refs 9, AD 900.
        assert_eq!(class_def.refs, 9);
        assert_eq!(class_def.data_type, "char");
        assert_eq!(class_def.elem_size, 1);
        assert_eq!(class_def.size_bytes, 1);
        assert_eq!(class_def.acc_density, 900);
        assert_eq!((class_def.lb.as_str(), class_def.ub.as_str()), ("1", "1"));
    }

    #[test]
    fn project_files_round_trip_on_disk() {
        let a = Analysis::analyze(
            &[workloads::fig10::source()],
            AnalysisOptions::default(),
        )
        .unwrap();
        let dir = support::testdir::TestDir::new("project");
        a.write_project(dir.path(), "matrix").unwrap();
        let rgn = std::fs::read_to_string(dir.join("matrix.rgn")).unwrap();
        let rows = crate::rgn::read_rgn(&rgn).unwrap();
        assert_eq!(rows.len(), a.rows.len());
        let dgn = std::fs::read_to_string(dir.join("matrix.dgn")).unwrap();
        assert!(DgnProject::read(&dgn).is_ok());
        let cfg = std::fs::read_to_string(dir.join("matrix.cfg")).unwrap();
        assert!(cfg.contains("digraph"));
        // No temp-file litter: atomic writes cleaned up after themselves.
        let names: Vec<_> = std::fs::read_dir(dir.path())
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.len(), 3, "{names:?}");
    }

    #[test]
    fn parallel_threads_match_serial() {
        let srcs = workloads::mini_lu::sources();
        let serial = Analysis::analyze(&srcs, AnalysisOptions::default()).unwrap();
        let parallel = Analysis::analyze(
            &srcs,
            AnalysisOptions::builder().threads(4).build(),
        )
        .unwrap();
        assert_eq!(serial.rows.len(), parallel.rows.len());
        assert_eq!(serial.rows, parallel.rows);
    }

    #[test]
    fn clean_run_has_no_degradations() {
        let a = analyze_mini_lu();
        assert!(!a.degraded(), "{}", a.degradation_report());
        assert!(a.degradation_report().is_empty());
    }

    #[test]
    fn broken_procedure_degrades_not_fails() {
        // One unit has a syntax error; the other two must still produce
        // rows, and the incident must be reported.
        let src = "\
program main
  real a(10)
  common /c/ a
  call fill
end
subroutine fill
  real a(10)
  common /c/ a
  integer i
  do i = 1, 10
    a(i) = 0.0
  end do
end
subroutine broken
  integer i
  i = = 1
end
";
        let a = Analysis::analyze(
            &[SourceFile::new("mix.f", src, whirl::Lang::Fortran)],
            AnalysisOptions::default(),
        )
        .unwrap();
        assert!(a.degraded());
        assert!(a.degradations.iter().any(|d| d.stage == "parse"), "{:?}", a.degradations);
        assert!(a.rows.iter().any(|r| r.proc == "fill"), "fill still has rows");
    }

    #[test]
    fn tiny_budget_degrades_not_fails() {
        let a = Analysis::analyze(
            &workloads::mini_lu::sources(),
            AnalysisOptions::builder()
                .budget(support::budget::BudgetConfig::tiny())
                .build(),
        )
        .unwrap();
        // Every procedure still has a summary and the run completes; any
        // exhaustion shows up as budget degradations, never as an error.
        assert_eq!(a.program.procedure_count(), 24);
        assert!(a.degradations.iter().all(|d| d.stage == "budget"), "{:?}", a.degradations);
    }

    #[test]
    fn totally_bad_source_still_fails() {
        let err = Analysis::analyze(
            &[SourceFile::new("bad.f", "subroutine\n", whirl::Lang::Fortran)],
            AnalysisOptions::default(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn degradation_report_format() {
        let d = Degradation {
            proc: "lu_factor".to_string(),
            stage: "ipl".to_string(),
            detail: "worker panicked".to_string(),
        };
        assert_eq!(d.to_string(), "[ipl] lu_factor: worker panicked");
    }

    #[test]
    fn write_project_reports_dir_creation_context() {
        // Satellite: dir-creation failure surfaces the path in the error.
        let a = Analysis::analyze(
            &[workloads::fig10::source()],
            AnalysisOptions::default(),
        )
        .unwrap();
        let dir = support::testdir::TestDir::new("not-a-dir");
        let file = dir.join("blocker");
        std::fs::write(&file, b"x").unwrap();
        let err = a.write_project(&file.join("sub"), "matrix").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("creating"), "{msg}");
        assert!(msg.contains("blocker"), "{msg}");
    }

    #[test]
    fn global_scope_filter() {
        let a = analyze_mini_lu();
        let globals = a.global_rows();
        assert!(globals.iter().all(|r| r.is_global));
        assert!(globals.iter().any(|r| r.array == "u"));
        assert!(!globals.iter().any(|r| r.array == "xcr"), "xcr is a formal/local");
    }
}
