//! Semantic analysis: name resolution and subset checks.
//!
//! Merges COMMON/file-scope globals across modules, builds per-procedure
//! environments of each unit's own declarations and formals (every other
//! name resolves through [`ProgramEnv::lookup`]), applies the Fortran
//! implicit-typing rule for undeclared scalars, and rejects the
//! constructs the analysis subset cannot express (expression-position calls,
//! indexing non-arrays, subscript-count mismatches, unknown callees).

use crate::ast::{AstDim, Expr, LValue, Module, ProcDecl, Stmt, TypeName};
use std::collections::{BTreeMap, BTreeSet};
use support::{Error, Result};

/// Where a resolved variable lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarScope {
    /// Module-level (COMMON / file scope).
    Global,
    /// Procedure-local.
    Local,
    /// Formal parameter.
    Formal,
}

/// One resolved variable.
#[derive(Debug, Clone, PartialEq)]
pub struct VarInfo {
    /// Element type.
    pub ty: TypeName,
    /// Source-order dimensions (empty ⇒ scalar).
    pub dims: Vec<AstDim>,
    /// Scope.
    pub scope: VarScope,
    /// True for coarrays (remotely addressable, CAF `[*]`).
    pub coarray: bool,
}

impl VarInfo {
    /// True when the variable is an array.
    pub fn is_array(&self) -> bool {
        !self.dims.is_empty()
    }
}

/// Per-procedure environment: the unit's own declarations and formals only.
/// Globals the unit does not redeclare live once, in
/// [`ProgramEnv::globals`]; resolve names with [`ProgramEnv::lookup`].
#[derive(Debug, Default)]
pub struct ProcEnv {
    vars: BTreeMap<String, VarInfo>,
}

impl ProcEnv {
    /// Iterates the unit's own entries in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &VarInfo)> {
        self.vars.iter()
    }
}

/// Whole-program resolution result.
#[derive(Debug, Default)]
pub struct ProgramEnv {
    /// Canonical merged globals, name → info.
    pub globals: BTreeMap<String, VarInfo>,
    /// Every defined procedure name.
    pub proc_names: BTreeSet<String>,
    /// Per-procedure environments, keyed by procedure name.
    pub proc_envs: BTreeMap<String, ProcEnv>,
}

impl ProgramEnv {
    /// Resolves `name` inside a procedure: its own declarations and formals
    /// first, then the shared globals. `None` leaves the name to implicit
    /// typing.
    pub fn lookup<'a>(&'a self, penv: &'a ProcEnv, name: &str) -> Option<&'a VarInfo> {
        penv.vars.get(name).or_else(|| self.globals.get(name))
    }
}

/// Fortran implicit typing: names starting `i`–`n` are integer, others real.
pub fn implicit_type(name: &str) -> TypeName {
    match name.chars().next() {
        Some(c @ ('i' | 'j' | 'k' | 'l' | 'm' | 'n')) => {
            let _ = c;
            TypeName::Integer
        }
        _ => TypeName::Real,
    }
}

/// Runs semantic analysis over all modules of a program.
pub fn analyze(modules: &[Module]) -> Result<ProgramEnv> {
    let mut env = ProgramEnv::default();

    // Pass 1: merge globals. A placeholder from a COMMON statement (no dims)
    // is upgraded by any declaration with dims/type information.
    for m in modules {
        for g in &m.globals {
            let info = VarInfo { ty: g.ty, dims: g.dims.clone(), scope: VarScope::Global, coarray: g.coarray };
            match env.globals.get(&g.name) {
                Some(existing) if existing.is_array() => {
                    if info.is_array() && existing.dims != info.dims {
                        return Err(Error::semantic_at(
                            g.pos,
                            format!(
                                "global array `{}` redeclared with conflicting dimensions",
                                g.name
                            ),
                        ));
                    }
                }
                _ => {
                    env.globals.insert(g.name.clone(), info);
                }
            }
        }
        for p in &m.procs {
            if !env.proc_names.insert(p.name.clone()) {
                return Err(Error::semantic_at(
                    p.pos,
                    format!("procedure `{}` defined more than once", p.name),
                ));
            }
        }
    }

    // Patch COMMON placeholders whose declaration lives inside a unit: any
    // later unit declaring the same name with dims supplies the real shape.
    for m in modules {
        for p in &m.procs {
            for d in &p.decls {
                if let Some(g) = env.globals.get_mut(&d.name) {
                    if !g.is_array() && !d.dims.is_empty() {
                        g.ty = d.ty;
                        g.dims = d.dims.clone();
                    } else if g.is_array()
                        && !d.dims.is_empty()
                        && g.dims != d.dims
                    {
                        return Err(Error::semantic_at(
                            d.pos,
                            format!(
                                "global array `{}` redeclared with conflicting dimensions",
                                d.name
                            ),
                        ));
                    }
                }
            }
        }
    }

    // Pass 2: build per-procedure environments and check bodies.
    for m in modules {
        for p in &m.procs {
            let penv = build_proc_env(p, &env)?;
            check_body(p, &penv, &env)?;
            env.proc_envs.insert(p.name.clone(), penv);
        }
    }
    Ok(env)
}

fn build_proc_env(p: &ProcDecl, env: &ProgramEnv) -> Result<ProcEnv> {
    let mut vars: BTreeMap<String, VarInfo> = BTreeMap::new();
    // Declarations (locals and formals).
    for d in &p.decls {
        let scope = if p.formals.contains(&d.name) {
            VarScope::Formal
        } else if env.globals.contains_key(&d.name) {
            // A unit-level declaration of a COMMON member re-describes the
            // global; keep the global scope.
            VarScope::Global
        } else {
            VarScope::Local
        };
        let info = VarInfo { ty: d.ty, dims: d.dims.clone(), scope, coarray: d.coarray };
        if vars.insert(d.name.clone(), info).is_some() {
            return Err(Error::semantic_at(
                d.pos,
                format!("`{}` declared twice in `{}`", d.name, p.name),
            ));
        }
    }
    // Undeclared formals get implicit scalar types (F77), even when a
    // global has the same name: a dummy argument shadows it.
    for f in &p.formals {
        vars.entry(f.clone()).or_insert_with(|| VarInfo {
            ty: implicit_type(f),
            dims: Vec::new(),
            scope: VarScope::Formal,
            coarray: false,
        });
    }
    Ok(ProcEnv { vars })
}

fn check_body(p: &ProcDecl, penv: &ProcEnv, env: &ProgramEnv) -> Result<()> {
    let mut implicit: BTreeMap<String, VarInfo> = BTreeMap::new();
    for s in &p.body {
        check_stmt(p, s, penv, env, &mut implicit)?;
    }
    Ok(())
}

fn check_stmt(
    p: &ProcDecl,
    s: &Stmt,
    penv: &ProcEnv,
    env: &ProgramEnv,
    implicit: &mut BTreeMap<String, VarInfo>,
) -> Result<()> {
    match s {
        Stmt::Assign(lv, rhs, _) => {
            match lv {
                LValue::Var(name, pos) => {
                    ensure_scalar(p, name, *pos, penv, env, implicit)?;
                }
                LValue::Elem(name, subs, pos) => {
                    ensure_array(p, name, subs.len(), *pos, penv, env)?;
                    for sub in subs {
                        check_expr(p, sub, penv, env, implicit)?;
                    }
                }
                LValue::CoElem(name, subs, image, pos) => {
                    ensure_array(p, name, subs.len(), *pos, penv, env)?;
                    ensure_coarray(p, name, *pos, penv, env)?;
                    for sub in subs {
                        check_expr(p, sub, penv, env, implicit)?;
                    }
                    check_expr(p, image, penv, env, implicit)?;
                }
            }
            check_expr(p, rhs, penv, env, implicit)
        }
        Stmt::Call(name, args, pos) => {
            if !env.proc_names.contains(name) {
                return Err(Error::semantic_at(
                    *pos,
                    format!("call to undefined procedure `{name}` in `{}`", p.name),
                ));
            }
            for a in args {
                check_expr(p, a, penv, env, implicit)?;
            }
            Ok(())
        }
        Stmt::Do { var, lo, hi, body, pos, .. } => {
            ensure_scalar(p, var, *pos, penv, env, implicit)?;
            check_expr(p, lo, penv, env, implicit)?;
            check_expr(p, hi, penv, env, implicit)?;
            for s in body {
                check_stmt(p, s, penv, env, implicit)?;
            }
            Ok(())
        }
        Stmt::If { cond, then_body, else_body, .. } => {
            check_expr(p, cond, penv, env, implicit)?;
            for s in then_body.iter().chain(else_body) {
                check_stmt(p, s, penv, env, implicit)?;
            }
            Ok(())
        }
        Stmt::Return(_) => Ok(()),
    }
}

fn check_expr(
    p: &ProcDecl,
    e: &Expr,
    penv: &ProcEnv,
    env: &ProgramEnv,
    implicit: &mut BTreeMap<String, VarInfo>,
) -> Result<()> {
    match e {
        Expr::Int(..) | Expr::Real(..) => Ok(()),
        Expr::Var(name, pos) => {
            // Scalars and whole-array references are both fine here; an
            // unknown name becomes an implicit scalar.
            if env.lookup(penv, name).is_none() && !implicit.contains_key(name) {
                if env.proc_names.contains(name) {
                    return Err(Error::semantic_at(
                        *pos,
                        format!("procedure `{name}` used as a variable in `{}`", p.name),
                    ));
                }
                implicit.insert(
                    name.clone(),
                    VarInfo {
                        ty: implicit_type(name),
                        dims: Vec::new(),
                        scope: VarScope::Local,
                        coarray: false,
                    },
                );
            }
            Ok(())
        }
        Expr::Index(name, subs, pos) => {
            ensure_array(p, name, subs.len(), *pos, penv, env)?;
            for s in subs {
                check_expr(p, s, penv, env, implicit)?;
            }
            Ok(())
        }
        Expr::CoIndex(name, subs, image, pos) => {
            ensure_array(p, name, subs.len(), *pos, penv, env)?;
            ensure_coarray(p, name, *pos, penv, env)?;
            for s in subs {
                check_expr(p, s, penv, env, implicit)?;
            }
            check_expr(p, image, penv, env, implicit)
        }
        Expr::Call(name, _, pos) => Err(Error::semantic_at(
            *pos,
            format!("function call `{name}(...)` in expression position is outside the analyzed subset"),
        )),
        Expr::Bin(_, a, b, _) => {
            check_expr(p, a, penv, env, implicit)?;
            check_expr(p, b, penv, env, implicit)
        }
        Expr::Neg(a, _) => check_expr(p, a, penv, env, implicit),
    }
}

fn ensure_scalar(
    p: &ProcDecl,
    name: &str,
    pos: support::Pos,
    penv: &ProcEnv,
    env: &ProgramEnv,
    implicit: &mut BTreeMap<String, VarInfo>,
) -> Result<()> {
    if let Some(info) = env.lookup(penv, name) {
        if info.is_array() {
            return Err(Error::semantic_at(
                pos,
                format!("array `{name}` used without subscripts as a scalar in `{}`", p.name),
            ));
        }
        return Ok(());
    }
    implicit.entry(name.to_string()).or_insert_with(|| VarInfo {
        ty: implicit_type(name),
        dims: Vec::new(),
        scope: VarScope::Local,
        coarray: false,
    });
    Ok(())
}

fn ensure_coarray(
    p: &ProcDecl,
    name: &str,
    pos: support::Pos,
    penv: &ProcEnv,
    env: &ProgramEnv,
) -> Result<()> {
    match env.lookup(penv, name) {
        Some(info) if info.coarray => Ok(()),
        _ => Err(Error::semantic_at(
            pos,
            format!("`{name}` is coindexed but not declared as a coarray in `{}`", p.name),
        )),
    }
}

fn ensure_array(
    p: &ProcDecl,
    name: &str,
    nsubs: usize,
    pos: support::Pos,
    penv: &ProcEnv,
    env: &ProgramEnv,
) -> Result<()> {
    match env.lookup(penv, name) {
        Some(info) if info.is_array() => {
            if info.dims.len() != nsubs {
                return Err(Error::semantic_at(
                    pos,
                    format!(
                        "`{name}` has {} dimension(s) but is subscripted with {} in `{}`",
                        info.dims.len(),
                        nsubs,
                        p.name
                    ),
                ));
            }
            Ok(())
        }
        Some(_) => Err(Error::semantic_at(
            pos,
            format!("`{name}` is scalar but subscripted in `{}`", p.name),
        )),
        None => {
            if env.proc_names.contains(name) {
                Err(Error::semantic_at(
                    pos,
                    format!(
                        "function call `{name}(...)` in expression position is outside the analyzed subset"
                    ),
                ))
            } else {
                Err(Error::semantic_at(
                    pos,
                    format!("`{name}` subscripted but never declared in `{}`", p.name),
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fortran;

    fn f(src: &str) -> Result<ProgramEnv> {
        analyze(&[fortran::parse("t.f", src).unwrap()])
    }

    #[test]
    fn resolves_fig1_environment() {
        let env = f("\
subroutine add
  integer, dimension(1:200, 1:200) :: a
  integer :: m, j
  do j = 1, m
    call p1(a, j)
  end do
end
subroutine p1(x, k)
  integer, dimension(1:200, 1:200) :: x
  integer k
  x(1, k) = 0
end
")
        .unwrap();
        let add = &env.proc_envs["add"];
        assert!(env.lookup(add, "a").unwrap().is_array());
        assert_eq!(env.lookup(add, "a").unwrap().scope, VarScope::Local);
        let p1 = &env.proc_envs["p1"];
        assert_eq!(env.lookup(p1, "x").unwrap().scope, VarScope::Formal);
        assert_eq!(env.lookup(p1, "k").unwrap().scope, VarScope::Formal);
    }

    #[test]
    fn common_globals_visible_everywhere() {
        let env = f("\
subroutine a
  double precision u(5, 64)
  common /cvar/ u
  u(1, 1) = 0.0
end
subroutine b
  double precision u(5, 64)
  common /cvar/ u
  u(2, 2) = 1.0
end
")
        .unwrap();
        assert_eq!(env.globals["u"].dims.len(), 2);
        assert_eq!(env.lookup(&env.proc_envs["b"], "u").unwrap().scope, VarScope::Global);
    }

    #[test]
    fn proc_envs_do_not_grow_with_global_count() {
        for g in [3, 64] {
            let mut src = String::from("subroutine a\n");
            for i in 0..g {
                src += &format!("  real g{i}(4)\n  common /c{i}/ g{i}\n");
            }
            src += "  g0(1) = 0.0\nend\n";
            src += "\
subroutine b(f)
  real f(4)
  integer k
  k = 1
  f(k) = 0.0
end
subroutine c(g1, g2)
  real g1
  real g0(4)
  common /c0/ g0
  g0(1) = g1 + g2
end
";
            let env = f(&src).unwrap();
            let b = &env.proc_envs["b"];
            assert_eq!(b.iter().count(), 2, "g = {g}");
            for i in 0..g {
                assert_eq!(env.lookup(b, &format!("g{i}")).unwrap().scope, VarScope::Global);
            }
            let c = &env.proc_envs["c"];
            let scope = |name| env.lookup(c, name).unwrap().scope;
            assert_eq!(scope("g0"), VarScope::Global, "COMMON redeclaration");
            assert_eq!(scope("g1"), VarScope::Formal, "declared formal");
            assert_eq!(scope("g2"), VarScope::Formal, "undeclared formal");
            assert!(env.lookup(c, "x").is_none(), "unknown names are left to implicit typing");
        }
    }

    #[test]
    fn implicit_typing_rule() {
        assert_eq!(implicit_type("i"), TypeName::Integer);
        assert_eq!(implicit_type("n"), TypeName::Integer);
        assert_eq!(implicit_type("x"), TypeName::Real);
    }

    #[test]
    fn rejects_unknown_callee() {
        let err = f("subroutine s\n  call nowhere\nend\n").unwrap_err();
        assert!(err.to_string().contains("undefined procedure"), "{err}");
    }

    #[test]
    fn rejects_subscripting_a_scalar() {
        let err = f("subroutine s\n  integer x\n  x(1) = 0\nend\n").unwrap_err();
        assert!(err.to_string().contains("scalar but subscripted"), "{err}");
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let err = f("subroutine s\n  integer a(5, 5)\n  a(1) = 0\nend\n").unwrap_err();
        assert!(err.to_string().contains("2 dimension(s)"), "{err}");
    }

    #[test]
    fn rejects_duplicate_procedure() {
        let err = f("subroutine s\n  return\nend\nsubroutine s\n  return\nend\n").unwrap_err();
        assert!(err.to_string().contains("more than once"), "{err}");
    }

    #[test]
    fn rejects_duplicate_local() {
        let err = f("subroutine s\n  integer x\n  integer x\n  x = 1\nend\n").unwrap_err();
        assert!(err.to_string().contains("declared twice"), "{err}");
    }

    #[test]
    fn rejects_expression_call() {
        let err =
            f("subroutine s\n  integer x\n  x = foo(1)\nend\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("never declared") || msg.contains("expression position"), "{msg}");
    }

    #[test]
    fn rejects_conflicting_global_shapes() {
        let err = f("\
subroutine a
  double precision u(5)
  common /c/ u
  u(1) = 0.0
end
subroutine b
  double precision u(7)
  common /c/ u
  u(1) = 0.0
end
")
        .unwrap_err();
        assert!(err.to_string().contains("conflicting dimensions"), "{err}");
    }

    #[test]
    fn undeclared_loop_variable_gets_implicit_type() {
        let env = f("subroutine s\n  real a(10)\n  do i = 1, 10\n    a(i) = 0.0\n  end do\nend\n");
        assert!(env.is_ok());
    }
}
