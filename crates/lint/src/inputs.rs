//! What one procedure's lint reads, and nothing more.
//!
//! The per-procedure rules see a procedure only through [`ProcInputs`]:
//! its propagated summary, its call sites with each callee's formals and
//! propagated summary, the symbol and type entries of the arrays those
//! name, and procedure display names, source files and languages. The
//! summaries carry [`Revision`]s and the rest is the environment a
//! revision is read in, so a procedure whose own revision and whose
//! callees' revisions are unchanged lints to the same findings (see
//! [`LintCache`](crate::LintCache)).

use araa::Analysis;
use ipa::callgraph::display_name;
use ipa::{CallSite, ProcSummary, Revision};
use whirl::{Lang, ProcId, StClass, StIdx, TyIdx, TypeTable};

/// One procedure's lint inputs, borrowed from an [`Analysis`].
pub struct ProcInputs<'a> {
    analysis: &'a Analysis,
    id: ProcId,
    name: &'a str,
    file: &'a str,
}

/// One call site as the caller's lint reads it.
pub struct Site<'a> {
    /// Source line of the call.
    pub line: u32,
    /// The called procedure.
    pub callee: ProcId,
    /// Per parameter position, the whole-array actual, if any.
    pub array_actuals: &'a [Option<StIdx>],
    /// The callee's formals, in declaration order.
    pub callee_formals: &'a [StIdx],
    /// The callee's propagated summary.
    pub callee_summary: &'a ProcSummary,
}

impl<'a> ProcInputs<'a> {
    /// The inputs of procedure `id` of `analysis`.
    pub fn new(analysis: &'a Analysis, id: ProcId) -> Self {
        let program = &analysis.program;
        let proc = program.procedure(id);
        ProcInputs {
            analysis,
            id,
            name: display_name(program, proc),
            file: program.name_of(proc.file),
        }
    }

    /// The procedure's display name (`MAIN__` for an entry point).
    pub fn name(&self) -> &'a str {
        self.name
    }

    /// The procedure's source file.
    pub fn file(&self) -> &'a str {
        self.file
    }

    /// The procedure's propagated summary.
    pub fn summary(&self) -> &'a ProcSummary {
        self.analysis.ipa.summary(self.id)
    }

    /// The procedure's call sites, in source order.
    pub fn sites(&self) -> impl Iterator<Item = Site<'a>> + '_ {
        self.calls().iter().map(|site| Site {
            line: site.line,
            callee: site.callee,
            array_actuals: &site.array_actuals,
            callee_formals: &self.analysis.program.procedure(site.callee).formals,
            callee_summary: self.analysis.ipa.summary(site.callee),
        })
    }

    /// The revision of each call site's callee summary, in site order.
    pub fn callee_revisions(&self) -> impl Iterator<Item = Revision> + '_ {
        self.calls()
            .iter()
            .map(|site| self.analysis.ipa.summary(site.callee).revision())
    }

    fn calls(&self) -> &'a [CallSite] {
        self.analysis.callgraph.calls(self.id)
    }

    /// Display name of any procedure (a callee, or the callee a propagated
    /// record came through).
    pub fn proc_name(&self, id: ProcId) -> &'a str {
        let program = &self.analysis.program;
        display_name(program, program.procedure(id))
    }

    /// Source language of any procedure; `None` names this one.
    pub fn lang(&self, id: Option<ProcId>) -> Lang {
        self.analysis.program.procedure(id.unwrap_or(self.id)).lang
    }

    /// An array's name.
    pub fn array_name(&self, st: StIdx) -> &'a str {
        let program = &self.analysis.program;
        program.name_of(program.symbols.get(st).name)
    }

    /// An array's storage class.
    pub fn class(&self, st: StIdx) -> StClass {
        self.analysis.program.symbols.get(st).class
    }

    /// An array's type.
    pub fn ty(&self, st: StIdx) -> TyIdx {
        self.analysis.program.symbols.get(st).ty
    }

    /// The type table.
    pub fn types(&self) -> &'a TypeTable {
        &self.analysis.program.types
    }
}
