//! Front ends: Fortran and C subsets → VH WHIRL.
//!
//! "OpenUH front ends (FE) are based on GNU technology ... These front ends
//! parse C/C++/Fortran programs ... and translate them into VHL WHIRL." This
//! crate is our from-scratch substitute: a shared lexer ([`lex`]), the two
//! parsers ([`fortran`], [`cparse`]) meeting at one AST ([`ast`]), semantic
//! analysis ([`sema`]), and AST→WHIRL lowering ([`lower`]).
//!
//! The one-call entry point is [`compile`]:
//!
//! ```
//! use frontend::{compile, SourceFile};
//! use whirl::Lang;
//!
//! let program = compile(&[SourceFile {
//!     name: "matrix.c".into(),
//!     text: "int a[20];\nvoid main() { int i; for (i = 0; i <= 7; i++) a[i] = i; }\n".into(),
//!     lang: Lang::C,
//! }])
//! .unwrap();
//! assert_eq!(program.procedure_count(), 1);
//! ```

pub mod ast;
pub mod cparse;
pub mod diag;
pub mod fortran;
pub mod lex;
pub mod lower;
pub mod parse;
pub mod sema;
pub mod units;

use ast::{Module, ProcDecl, Stmt};
use std::borrow::{Borrow, Cow};
use std::collections::BTreeSet;
use support::{Error, Result};
pub use units::{assemble_units, Assembly, UnitInput, UnitTable};
use whirl::{Lang, Program};

/// One input source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// File name (drives the Dragon `File` column, e.g. `verify.f`).
    pub name: String,
    /// Full source text.
    pub text: String,
    /// Language.
    pub lang: Lang,
}

impl SourceFile {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, text: impl Into<String>, lang: Lang) -> Self {
        SourceFile { name: name.into(), text: text.into(), lang }
    }
}

impl From<&SourceFile> for SourceFile {
    fn from(s: &SourceFile) -> Self {
        s.clone()
    }
}

impl support::persist::Persist for SourceFile {
    fn save(&self, w: &mut support::persist::ByteWriter) {
        w.str(&self.name);
        w.u8(match self.lang {
            Lang::C => 0,
            Lang::Fortran => 1,
        });
        w.str(&self.text);
    }
    fn load(r: &mut support::persist::ByteReader<'_>) -> Result<Self> {
        let name = r.str()?;
        let lang = match r.u8()? {
            0 => Lang::C,
            1 => Lang::Fortran,
            t => return Err(Error::Format(format!("invalid Lang tag {t}"))),
        };
        let text = r.str()?;
        Ok(SourceFile { name, text, lang })
    }
}

/// One source file after recovering parsing but before cross-file assembly
/// (stubbing, semantic analysis, lowering). This is the unit the incremental
/// session caches per file: parsing depends only on the file itself, while
/// everything downstream mixes files together. Assembly borrows it, so a
/// cached parse is never copied to be reused.
#[derive(Debug, Clone)]
pub struct ParsedSource {
    /// The (possibly partially recovered) module.
    pub module: Module,
    /// The language the file was parsed as.
    pub lang: Lang,
    /// Diagnostics describing anything the parser had to drop.
    pub diags: Vec<Error>,
}

/// Parses one source file with recovery. Never fails: an unparseable file
/// yields an empty module plus the diagnostics explaining what was lost.
/// The module is shrunk to fit: the session keeps every parse for reuse.
pub fn parse_source_with_recovery(s: &SourceFile) -> ParsedSource {
    let _span = support::obs::span_arg("frontend.parse", || s.name.clone());
    let (mut module, diags) = match s.lang {
        Lang::Fortran => fortran::parse_with_recovery(&s.name, &s.text),
        Lang::C => cparse::parse_with_recovery(&s.name, &s.text),
    };
    module.shrink_to_fit();
    ParsedSource { module, lang: s.lang, diags }
}

/// Assembles pre-parsed modules into a program with the recovery semantics
/// of [`compile_with_recovery`]: undefined callees are stubbed, procedures
/// that fail semantic checking are gutted, and every incident is reported.
/// Fails only when no procedure at all survived parsing, or on a structural
/// error that cannot be pinned to one procedure.
///
/// Takes the parses owned or borrowed (`Vec<ParsedSource>`, `&[ParsedSource]`,
/// an iterator of `&ParsedSource`) and never consumes a module: recovery
/// copies only the modules it stubs a callee into or guts a unit of, so a
/// caller that keeps its parses (the session's parse cache) pays no copy.
/// This is [`assemble_units`] with nothing to reuse, stopped before VH→H
/// lowering.
pub fn assemble_with_recovery<I>(parsed: I) -> Result<(Program, Vec<Error>)>
where
    I: IntoIterator,
    I::Item: Borrow<ParsedSource>,
{
    let parsed: Vec<I::Item> = parsed.into_iter().collect();
    let assembly = units::lower_units(&cold_inputs(&parsed), None)?;
    Ok((assembly.program, assembly.diags))
}

/// Like [`assemble_with_recovery`] but also lowers to H WHIRL and assigns
/// the static data layout: [`assemble_units`] with nothing to reuse.
pub fn assemble_to_h_with_recovery<I>(
    parsed: I,
    layout_base: u64,
) -> Result<(Program, Vec<Error>)>
where
    I: IntoIterator,
    I::Item: Borrow<ParsedSource>,
{
    let parsed: Vec<I::Item> = parsed.into_iter().collect();
    let assembly = assemble_units(&cold_inputs(&parsed), None, layout_base)?;
    Ok((assembly.program, assembly.diags))
}

/// Inputs of a cold assembly: fresh parses, never matched to a previous
/// unit.
fn cold_inputs<P: Borrow<ParsedSource>>(parsed: &[P]) -> Vec<UnitInput<'_>> {
    parsed.iter().map(|p| UnitInput { parse: p.borrow(), key: 0, cached: false }).collect()
}

/// Parses, checks, and lowers a set of source files into one VH-level
/// [`Program`]. Call [`whirl::lower::lower_program`] afterwards to reach the
/// H level where the IPA-based analysis operates.
pub fn compile(sources: &[SourceFile]) -> Result<Program> {
    let mut modules = Vec::with_capacity(sources.len());
    let mut langs = Vec::with_capacity(sources.len());
    for s in sources {
        let module = match s.lang {
            Lang::Fortran => fortran::parse(&s.name, &s.text)?,
            Lang::C => cparse::parse(&s.name, &s.text)?,
        };
        modules.push(module);
        langs.push(s.lang);
    }
    let env = sema::analyze(&modules)?;
    lower::lower_modules(&modules, &env, &langs)
}

/// Like [`compile`] but also lowers to H WHIRL and assigns the static data
/// layout — the state the paper's IPA extension sees. `layout_base` seeds
/// the `Mem_Loc` addresses (Fig. 9 shows `0x55599870`).
pub fn compile_to_h(sources: &[SourceFile], layout_base: u64) -> Result<Program> {
    let mut program = compile(sources)?;
    whirl::lower::lower_program(&mut program);
    program.assign_layout(layout_base);
    Ok(program)
}

/// Like [`compile`], but degrades instead of failing wherever a failure can
/// be contained: parser diagnostics drop only the offending statements or
/// units, calls to procedures that did not survive parsing are satisfied by
/// empty stub definitions, and a procedure whose body fails semantic
/// checking is gutted to an empty shell. Returns the program plus every
/// diagnostic describing what was lost. Fails only when no procedure at all
/// survives, or on a structural error that cannot be pinned to one
/// procedure.
pub fn compile_with_recovery(sources: &[SourceFile]) -> Result<(Program, Vec<Error>)> {
    assemble_with_recovery(sources.iter().map(parse_source_with_recovery))
}

/// Like [`compile_to_h`] with the recovery semantics of
/// [`compile_with_recovery`].
pub fn compile_to_h_with_recovery(
    sources: &[SourceFile],
    layout_base: u64,
) -> Result<(Program, Vec<Error>)> {
    let (mut program, diags) = compile_with_recovery(sources)?;
    whirl::lower::lower_program(&mut program);
    program.assign_layout(layout_base);
    Ok((program, diags))
}

/// Satisfies calls to procedures lost during recovery (or simply never
/// defined) with empty stub definitions, so one unparseable unit doesn't
/// take every caller down with it. Stubs have no formals and no effects —
/// [`ipa`] propagation treats them as pure no-ops.
pub(crate) fn stub_undefined_callees(modules: &mut [Cow<'_, Module>], diags: &mut Vec<Error>) {
    // Defined procedures plus the stubs added so far, so a callee missing
    // from several modules is stubbed once.
    let mut defined: BTreeSet<String> = modules
        .iter()
        .flat_map(|m| m.procs.iter().map(|p| p.name.clone()))
        .collect();
    for m in modules.iter_mut() {
        let mut missing: Vec<(String, support::Pos)> = Vec::new();
        for p in &m.procs {
            collect_missing_callees(&p.body, &defined, &mut missing);
        }
        for (name, pos) in missing {
            defined.insert(name.clone());
            diags.push(Error::semantic_at(
                pos,
                format!("call to undefined procedure `{name}`; replaced by an empty stub"),
            ));
            m.to_mut().procs.push(ProcDecl {
                name,
                formals: Vec::new(),
                decls: Vec::new(),
                body: Vec::new(),
                pos,
                is_entry: false,
            });
        }
    }
}

fn collect_missing_callees(
    body: &[Stmt],
    defined: &BTreeSet<String>,
    missing: &mut Vec<(String, support::Pos)>,
) {
    for s in body {
        match s {
            Stmt::Call(name, _, pos) => {
                if !defined.contains(name) && !missing.iter().any(|(n, _)| n == name) {
                    missing.push((name.clone(), *pos));
                }
            }
            Stmt::Do { body, .. } => collect_missing_callees(body, defined, missing),
            Stmt::If { then_body, else_body, .. } => {
                collect_missing_callees(then_body, defined, missing);
                collect_missing_callees(else_body, defined, missing);
            }
            Stmt::Assign(..) | Stmt::Return(_) => {}
        }
    }
}

/// The first backtick-quoted name in a diagnostic message.
fn quoted_name(msg: &str) -> Option<&str> {
    let start = msg.find('`')? + 1;
    let end = msg[start..].find('`')? + start;
    Some(&msg[start..end])
}

/// Degrades whatever construct a semantic error in module `m` points at:
/// the second definition of a duplicated procedure is removed, a
/// conflicting global redeclaration is dropped, and any other attributable
/// error guts the enclosing procedure to an empty shell (kept so callers
/// still resolve). The error is attributed within `m` alone: positions
/// repeat across files. Returns `false` when the error cannot be attributed
/// — the caller then fails hard rather than looping.
pub(crate) fn degrade_offender(m: &mut Cow<'_, Module>, e: &Error, diags: &mut Vec<Error>) -> bool {
    let Some(pos) = e.pos() else { return false };
    let msg = e.to_string();
    let name = quoted_name(&msg).map(str::to_string);

    // A duplicated procedure: remove the definition the error points at.
    if msg.contains("more than once") {
        let Some(name) = name else { return false };
        let Some(i) = m.procs.iter().position(|p| p.name == name && p.pos == pos) else {
            return false;
        };
        m.to_mut().procs.remove(i);
        diags.push(Error::degraded(name, "sema", format!("duplicate definition at {pos} dropped")));
        return true;
    }

    // A conflicting global redeclaration: drop the redeclaration.
    if msg.contains("conflicting dimensions") {
        if let Some(name) = &name {
            if let Some(i) = m.globals.iter().position(|g| &g.name == name && g.pos == pos) {
                m.to_mut().globals.remove(i);
                diags.push(Error::degraded(
                    name.clone(),
                    "sema",
                    format!("conflicting redeclaration at {pos} dropped"),
                ));
                return true;
            }
        }
        // The conflict may come from a unit-level declaration instead; fall
        // through to gutting the enclosing procedure.
    }

    // Otherwise: gut the procedure enclosing the error position, the
    // closest non-empty one starting at or before the error line.
    let best = m
        .procs
        .iter()
        .enumerate()
        .filter(|(_, p)| p.pos.line <= pos.line && !(p.body.is_empty() && p.decls.is_empty()))
        .min_by_key(|(_, p)| pos.line - p.pos.line)
        .map(|(i, _)| i);
    match best {
        Some(i) => {
            let p = &mut m.to_mut().procs[i];
            diags.push(Error::degraded(
                p.name.clone(),
                "sema",
                format!("procedure emptied: {msg}"),
            ));
            p.body.clear();
            p.decls.clear();
            true
        }
        None => false,
    }
}

/// The layout base used throughout the examples/tests, matching the hex
/// address shown for `aarr` in Fig. 9 of the paper.
pub const DEFAULT_LAYOUT_BASE: u64 = 0x5559_9870;

#[cfg(test)]
mod tests {
    use super::*;
    use whirl::{Level, Opr};

    #[test]
    fn compile_mixed_language_program() {
        let program = compile(&[
            SourceFile::new(
                "driver.f",
                "program main\n  real a(10)\n  common /c/ a\n  call fill\nend\n",
                Lang::Fortran,
            ),
            SourceFile::new(
                "fill.f",
                "subroutine fill\n  real a(10)\n  common /c/ a\n  integer i\n  do i = 1, 10\n    a(i) = 0.0\n  end do\nend\n",
                Lang::Fortran,
            ),
        ])
        .unwrap();
        assert_eq!(program.procedure_count(), 2);
        assert!(program.find_procedure("main").is_some());
        assert!(program.find_procedure("fill").is_some());
    }

    #[test]
    fn compile_to_h_lowers_and_lays_out() {
        let program = compile_to_h(
            &[SourceFile::new(
                "t.f",
                "subroutine s\n  real a(5)\n  common /c/ a\n  a(3) = 1.0\nend\n",
                Lang::Fortran,
            )],
            DEFAULT_LAYOUT_BASE,
        )
        .unwrap();
        let id = program.find_procedure("s").unwrap();
        let proc = program.procedure(id);
        assert_eq!(proc.level, Level::High);
        // Index shifted to zero-based: a(3) → 2.
        let tree = &proc.tree;
        let arr = tree
            .iter()
            .find(|&n| tree.node(n).operator == Opr::Array)
            .unwrap();
        assert_eq!(tree.eval_const(tree.node(arr).array_index_kid(0)), Some(2));
        // The global got an address.
        let sym = program.interner.get("a").unwrap();
        let st = program.symbols.find(sym).unwrap();
        assert_eq!(program.symbols.get(st).address, DEFAULT_LAYOUT_BASE);
    }

    #[test]
    fn recovery_compiles_healthy_units_past_a_broken_one() {
        let (program, diags) = compile_with_recovery(&[SourceFile::new(
            "mix.f",
            "\
program main
  call good
  call broken
end
subroutine good
  real a(10)
  common /c/ a
  a(1) = 0.0
end
subroutine broken
  integer i
  i = = 1
end
",
            Lang::Fortran,
        )])
        .unwrap();
        assert_eq!(program.procedure_count(), 3);
        assert!(program.find_procedure("good").is_some());
        assert!(program.find_procedure("broken").is_some());
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn recovery_stubs_callees_lost_to_parse_errors() {
        // `helper` fails to parse entirely (bad header) — the call in main
        // must still resolve via a stub.
        let (program, diags) = compile_with_recovery(&[SourceFile::new(
            "stub.f",
            "\
program main
  call helper
end
subroutine 5helper
  integer i
end
",
            Lang::Fortran,
        )])
        .unwrap();
        assert!(program.find_procedure("helper").is_some());
        assert!(diags.iter().any(|d| d.to_string().contains("empty stub")), "{diags:?}");
    }

    #[test]
    fn recovery_stubs_a_callee_missing_from_two_files_once() {
        let (program, diags) = compile_with_recovery(&[
            SourceFile::new("a.f", "program main\n  call gone\n  call b\nend\n", Lang::Fortran),
            SourceFile::new("b.f", "subroutine b\n  call gone\nend\n", Lang::Fortran),
        ])
        .unwrap();
        assert_eq!(program.procedure_count(), 3, "main, b and one stub");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].to_string().contains("empty stub"), "{diags:?}");
    }

    #[test]
    fn recovery_guts_a_semantically_broken_procedure() {
        let (program, diags) = compile_with_recovery(&[SourceFile::new(
            "sema.f",
            "\
subroutine fine
  real a(10)
  a(1) = 0.0
end
subroutine wrong
  integer x
  x(3) = 1
end
",
            Lang::Fortran,
        )])
        .unwrap();
        assert_eq!(program.procedure_count(), 2);
        assert!(
            diags.iter().any(|d| d.to_string().contains("wrong")),
            "gutting must be reported: {diags:?}"
        );
    }

    #[test]
    fn recovery_with_nothing_salvageable_fails() {
        let err = compile_with_recovery(&[SourceFile::new(
            "bad.f",
            "subroutine\n",
            Lang::Fortran,
        )]);
        assert!(err.is_err());
    }

    #[test]
    fn recovery_on_clean_input_matches_strict_compile() {
        let src = "subroutine s\n  real a(5)\n  common /c/ a\n  a(3) = 1.0\nend\n";
        let strict =
            compile_to_h(&[SourceFile::new("t.f", src, Lang::Fortran)], DEFAULT_LAYOUT_BASE)
                .unwrap();
        let (recovered, diags) = compile_to_h_with_recovery(
            &[SourceFile::new("t.f", src, Lang::Fortran)],
            DEFAULT_LAYOUT_BASE,
        )
        .unwrap();
        assert!(diags.is_empty());
        assert_eq!(strict.procedure_count(), recovered.procedure_count());
    }

    #[test]
    fn split_parse_then_assemble_matches_one_shot_recovery() {
        let files = [
            SourceFile::new(
                "driver.f",
                "program main\n  real a(10)\n  common /c/ a\n  call fill\nend\n",
                Lang::Fortran,
            ),
            SourceFile::new(
                "broken.f",
                "subroutine fill\n  real a(10)\n  common /c/ a\n  a(1) = = 0.0\nend\n",
                Lang::Fortran,
            ),
        ];
        let (one_shot, d1) = compile_with_recovery(&files).unwrap();
        let parsed: Vec<ParsedSource> =
            files.iter().map(parse_source_with_recovery).collect();
        assert!(parsed[1].diags.iter().any(|d| d.pos().is_some()));
        let (split, d2) = assemble_with_recovery(parsed).unwrap();
        assert_eq!(one_shot.procedure_count(), split.procedure_count());
        assert_eq!(d1.len(), d2.len());
    }

    #[test]
    fn parse_error_propagates() {
        let err = compile(&[SourceFile::new("bad.f", "subroutine\n", Lang::Fortran)]);
        assert!(err.is_err());
    }

    #[test]
    fn sema_error_propagates() {
        let err = compile(&[SourceFile::new(
            "bad.f",
            "subroutine s\n  call nowhere\nend\n",
            Lang::Fortran,
        )]);
        assert!(err.is_err());
    }
}
