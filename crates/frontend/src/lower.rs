//! AST → VH WHIRL lowering.
//!
//! Mirrors what OpenUH's front ends do: each procedure becomes a
//! `FuncEntry`-rooted [`WhirlTree`](whirl::WhirlTree), array references
//! become `ARRAY` operators (still in *source order* with declared lower
//! bounds — the VH convention), scalars become `LDID`/`STID`, loops become
//! `DO_LOOP` nodes carrying their exact step, and calls become `CALL` nodes
//! whose array arguments are `PARM(LDA array)`.

use crate::ast::{AstDim, BinOp, Expr, LValue, Module, ProcDecl, Stmt, TypeName};
use crate::sema::{ProgramEnv, VarInfo, VarScope};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use support::{Error, Result};
use whirl::builder::TreeBuilder;
use whirl::symtab::{DataType, DimBound, StClass, StIdx, TyKind};
use whirl::{Lang, Level, Procedure, Program};

/// Maps a source type name to the WHIRL scalar type.
pub fn data_type(t: TypeName) -> DataType {
    match t {
        TypeName::Integer => DataType::I4,
        TypeName::Integer8 => DataType::I8,
        TypeName::Real => DataType::F4,
        TypeName::Double => DataType::F8,
        TypeName::Character => DataType::Char,
    }
}

fn dim_bound(d: AstDim) -> DimBound {
    match d {
        AstDim::Range(lb, ub) => DimBound::Const { lb, ub },
        AstDim::Unknown => DimBound::Runtime,
    }
}

/// Lowers a set of analyzed modules into one [`Program`] at VH level.
/// Takes owned or borrowed modules alike, as [`crate::sema::analyze`] does.
pub fn lower_modules<M: Borrow<Module>>(
    modules: &[M],
    env: &ProgramEnv,
    langs: &[Lang],
) -> Result<Program> {
    assert_eq!(modules.len(), langs.len(), "one language tag per module");
    let mut program = Program::new();
    let names = modules.iter().flat_map(|m| m.borrow().procs.iter().map(|p| p.name.as_str()));
    let segment = lower_segment(&mut program, env, names);
    for (m, &lang) in modules.iter().zip(langs) {
        lower_unit(&mut program, m.borrow(), lang, env, &segment)?;
    }
    Ok(program)
}

/// The symbols of the global segment, as every unit's lowering resolves
/// them.
pub(crate) struct SegmentSymbols {
    /// Merged globals: name → (symbol, shape).
    globals: BTreeMap<String, (StIdx, VarInfo)>,
    /// Procedure name → its symbol, so calls resolve in any order.
    procs: BTreeMap<String, StIdx>,
}

/// Adds the global segment to an empty `program`: the merged globals in
/// name order, then one symbol per procedure name in `proc_names` order.
/// Every unit's entries follow it.
pub(crate) fn lower_segment<'a>(
    program: &mut Program,
    env: &ProgramEnv,
    proc_names: impl IntoIterator<Item = &'a str>,
) -> SegmentSymbols {
    let mut globals: BTreeMap<String, (StIdx, VarInfo)> = BTreeMap::new();
    for (name, info) in &env.globals {
        let st = add_symbol(program, name, info, StClass::Global);
        globals.insert(name.clone(), (st, info.clone()));
    }
    let mut procs: BTreeMap<String, StIdx> = BTreeMap::new();
    for name in proc_names {
        let ty = program.types.add(TyKind::Proc(DataType::Void));
        let sym = program.interner.intern(name);
        let st = program.symbols.add(sym, ty, StClass::Proc);
        procs.insert(name.to_string(), st);
    }
    SegmentSymbols { globals, procs }
}

/// Lowers one module's procedures to VH and adds them to `program`. Each
/// procedure's own symbols, types and names are appended to the tables as
/// it is lowered, so the module's entries form one contiguous run after
/// those of the modules lowered before it. `env` must hold the module's
/// procedure environments ([`crate::sema::check_module`]).
pub(crate) fn lower_unit(
    program: &mut Program,
    m: &Module,
    lang: Lang,
    env: &ProgramEnv,
    segment: &SegmentSymbols,
) -> Result<()> {
    for p in &m.procs {
        let proc = lower_proc(program, m, p, env, lang, &segment.globals, &segment.procs)?;
        program.add_procedure(proc);
    }
    Ok(())
}

/// The type-table entry a variable of shape `info` lowers to.
pub(crate) fn var_type(info: &VarInfo) -> TyKind {
    let elem = data_type(info.ty);
    if info.dims.is_empty() {
        TyKind::Scalar(elem)
    } else {
        let dims = info.dims.iter().map(|&d| dim_bound(d)).collect();
        TyKind::Array { elem, dims, contiguous: true }
    }
}

fn add_symbol(
    program: &mut Program,
    name: &str,
    info: &VarInfo,
    class: StClass,
) -> StIdx {
    let ty = program.types.add(var_type(info));
    let sym = program.interner.intern(name);
    program.symbols.add(sym, ty, class)
}

struct LowerCtx<'a> {
    program: &'a mut Program,
    b: TreeBuilder,
    /// name → (StIdx, VarInfo) for this procedure's own declarations,
    /// formals and implicit scalars.
    vars: BTreeMap<String, (StIdx, VarInfo)>,
    /// The shared global symbols, consulted after `vars`.
    globals: &'a BTreeMap<String, (StIdx, VarInfo)>,
    proc_sts: &'a BTreeMap<String, StIdx>,
    proc_name: String,
}

fn lower_proc(
    program: &mut Program,
    module: &Module,
    p: &ProcDecl,
    env: &ProgramEnv,
    lang: Lang,
    globals: &BTreeMap<String, (StIdx, VarInfo)>,
    proc_sts: &BTreeMap<String, StIdx>,
) -> Result<Procedure> {
    let penv = env
        .proc_envs
        .get(&p.name)
        .ok_or_else(|| Error::Lower(format!("no environment for `{}`", p.name)))?;

    // A unit-level COMMON redeclaration resolves to the shared global
    // symbol with the unit's own shape; locals and formals get fresh
    // symbols, in name order.
    let mut vars: BTreeMap<String, (StIdx, VarInfo)> = BTreeMap::new();
    for (name, info) in penv.iter() {
        let st = match info.scope {
            VarScope::Global => globals
                .get(name)
                .map(|&(st, _)| st)
                .ok_or_else(|| Error::Lower(format!("no global symbol for `{name}`")))?,
            VarScope::Formal => add_symbol(program, name, info, StClass::Formal),
            VarScope::Local => add_symbol(program, name, info, StClass::Local),
        };
        vars.insert(name.clone(), (st, info.clone()));
    }

    let proc_st = proc_sts[&p.name];
    let mut ctx = LowerCtx {
        program,
        b: TreeBuilder::new(),
        vars,
        globals,
        proc_sts,
        proc_name: p.name.clone(),
    };

    let body = ctx.b.block();
    for s in &p.body {
        let stmt = ctx.stmt(s)?;
        ctx.b.append(body, stmt);
    }
    let mut formal_ids = Vec::new();
    let mut formal_sts = Vec::new();
    for f in &p.formals {
        let (st, _) = ctx
            .vars
            .get(f)
            .copied_pair()
            .ok_or_else(|| Error::Lower(format!("formal `{f}` missing in `{}`", p.name)))?;
        formal_ids.push(ctx.b.idname(st));
        formal_sts.push(st);
    }
    ctx.b.func_entry(proc_st, formal_ids, body);

    let name = ctx.program.interner.intern(&p.name);
    let file = ctx.program.interner.intern(&module.file);
    Ok(Procedure {
        name,
        st: proc_st,
        file,
        linenum: p.pos.line,
        lang,
        formals: formal_sts,
        tree: ctx.b.finish(),
        level: Level::VeryHigh,
    })
}

/// Small helper trait: `Option<&(StIdx, VarInfo)>` → `Option<(StIdx, &VarInfo)>`.
trait CopiedPair {
    fn copied_pair(self) -> Option<(StIdx, VarInfo)>;
}

impl CopiedPair for Option<&(StIdx, VarInfo)> {
    fn copied_pair(self) -> Option<(StIdx, VarInfo)> {
        self.map(|(st, info)| (*st, info.clone()))
    }
}

impl<'a> LowerCtx<'a> {
    fn lookup(&mut self, name: &str) -> Result<(StIdx, VarInfo)> {
        if let Some(pair) = self.vars.get(name).or_else(|| self.globals.get(name)).copied_pair() {
            return Ok(pair);
        }
        // Sema allowed it ⇒ implicit scalar: materialize lazily.
        let info = VarInfo {
            ty: crate::sema::implicit_type(name),
            dims: Vec::new(),
            scope: VarScope::Local,
            coarray: false,
        };
        let st = add_symbol(self.program, name, &info, StClass::Local);
        self.vars.insert(name.to_string(), (st, info.clone()));
        Ok((st, info))
    }

    fn stmt(&mut self, s: &Stmt) -> Result<whirl::WnId> {
        match s {
            Stmt::Assign(lv, rhs, pos) => {
                let value = self.expr(rhs)?;
                match lv {
                    LValue::Var(name, _) => {
                        let (st, _) = self.lookup(name)?;
                        Ok(self.b.stid(st, value, pos.line))
                    }
                    LValue::Elem(name, subs, _) => {
                        let addr = self.array_ref(name, subs, pos.line)?;
                        Ok(self.b.istore(addr, value, pos.line))
                    }
                    LValue::CoElem(name, subs, image, _) => {
                        let addr = self.array_ref(name, subs, pos.line)?;
                        let img = self.expr(image)?;
                        let remote = self.remote_array(addr, img, pos.line);
                        Ok(self.b.istore(remote, value, pos.line))
                    }
                }
            }
            Stmt::Call(name, args, pos) => {
                let callee = *self.proc_sts.get(name).ok_or_else(|| {
                    Error::Lower(format!("unresolved callee `{name}` in `{}`", self.proc_name))
                })?;
                let mut parms = Vec::with_capacity(args.len());
                for a in args {
                    let v = match a {
                        // A bare array name as an argument passes the array:
                        // PARM(LDA array) — the PASSED access mode.
                        Expr::Var(n, p) => {
                            let (st, info) = self.lookup(n)?;
                            if info.is_array() {
                                self.b.lda(st, p.line)
                            } else {
                                self.expr(a)?
                            }
                        }
                        other => self.expr(other)?,
                    };
                    parms.push(self.b.parm(v));
                }
                Ok(self.b.call(callee, parms, pos.line))
            }
            Stmt::Do { var, lo, hi, step, body, pos } => {
                let (ivar, _) = self.lookup(var)?;
                let start = self.expr(lo)?;
                let end = self.expr(hi)?;
                let blk = self.b.block();
                for s in body {
                    let st = self.stmt(s)?;
                    self.b.append(blk, st);
                }
                Ok(self.b.do_loop(ivar, start, end, *step, blk, pos.line))
            }
            Stmt::If { cond, then_body, else_body, pos } => {
                let c = self.expr(cond)?;
                let t = self.b.block();
                for s in then_body {
                    let st = self.stmt(s)?;
                    self.b.append(t, st);
                }
                let e = self.b.block();
                for s in else_body {
                    let st = self.stmt(s)?;
                    self.b.append(e, st);
                }
                Ok(self.b.if_stmt(c, t, e, pos.line))
            }
            Stmt::Return(pos) => Ok(self.b.ret(None, pos.line)),
        }
    }

    fn expr(&mut self, e: &Expr) -> Result<whirl::WnId> {
        match e {
            Expr::Int(v, _) => Ok(self.b.intconst(*v)),
            Expr::Real(v, _) => Ok(self.b.fconst(*v)),
            Expr::Var(name, pos) => {
                let (st, info) = self.lookup(name)?;
                if info.is_array() {
                    // Whole-array rvalue (outside call arguments): its
                    // address.
                    Ok(self.b.lda(st, pos.line))
                } else {
                    Ok(self.b.ldid(st, data_type(info.ty), pos.line))
                }
            }
            Expr::Index(name, subs, pos) => {
                let addr = self.array_ref(name, subs, pos.line)?;
                let (_, info) = self.lookup(name)?;
                Ok(self.b.iload(addr, data_type(info.ty), pos.line))
            }
            Expr::CoIndex(name, subs, image, pos) => {
                let addr = self.array_ref(name, subs, pos.line)?;
                let img = self.expr(image)?;
                let remote = self.remote_array(addr, img, pos.line);
                let (_, info) = self.lookup(name)?;
                Ok(self.b.iload(remote, data_type(info.ty), pos.line))
            }
            Expr::Call(name, _, pos) => Err(Error::semantic_at(
                *pos,
                format!("expression call `{name}` survived sema"),
            )),
            Expr::Bin(op, a, b, _) => {
                let a = self.expr(a)?;
                let bb = self.expr(b)?;
                let opr = match op {
                    BinOp::Add => whirl::Opr::Add,
                    BinOp::Sub => whirl::Opr::Sub,
                    BinOp::Mul => whirl::Opr::Mpy,
                    BinOp::Div => whirl::Opr::Div,
                    BinOp::Lt => whirl::Opr::Lt,
                    BinOp::Le => whirl::Opr::Le,
                    BinOp::Gt => whirl::Opr::Gt,
                    BinOp::Ge => whirl::Opr::Ge,
                    BinOp::Eq => whirl::Opr::Eq,
                    BinOp::Ne => whirl::Opr::Ne,
                    BinOp::And => whirl::Opr::Land,
                    BinOp::Or => whirl::Opr::Lior,
                };
                Ok(self.b.binary(opr, a, bb))
            }
            Expr::Neg(a, _) => {
                let a = self.expr(a)?;
                Ok(self.b.neg(a))
            }
        }
    }

    /// Wraps an `ARRAY` address in a `REMOTE_ARRAY` coindex node.
    fn remote_array(&mut self, addr: whirl::WnId, image: whirl::WnId, line: u32) -> whirl::WnId {
        let id = self.b.tree_mut().alloc(whirl::Opr::RemoteArray);
        let n = self.b.tree_mut().node_mut(id);
        n.kids = vec![addr, image];
        n.linenum = line;
        id
    }

    /// Builds the `ARRAY` node for `name(subs)` — VH level: dims and
    /// subscripts in source order, subscripts unadjusted.
    fn array_ref(&mut self, name: &str, subs: &[Expr], line: u32) -> Result<whirl::WnId> {
        let (st, info) = self.lookup(name)?;
        let base = self.b.lda(st, line);
        let mut dim_kids = Vec::with_capacity(info.dims.len());
        for d in &info.dims {
            let extent = match d {
                AstDim::Range(lb, ub) => ub - lb + 1,
                AstDim::Unknown => 0,
            };
            dim_kids.push(self.b.intconst(extent));
        }
        let mut index_kids = Vec::with_capacity(subs.len());
        for s in subs {
            index_kids.push(self.expr(s)?);
        }
        let elem = data_type(info.ty).size_bytes();
        Ok(self.b.array(base, dim_kids, index_kids, elem, line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cparse, fortran, sema};
    use whirl::Opr;

    fn compile_f(src: &str) -> Program {
        let m = fortran::parse("t.f", src).unwrap();
        let env = sema::analyze(std::slice::from_ref(&m)).unwrap();
        lower_modules(&[m], &env, &[Lang::Fortran]).unwrap()
    }

    fn compile_c(src: &str) -> Program {
        let m = cparse::parse("t.c", src).unwrap();
        let env = sema::analyze(std::slice::from_ref(&m)).unwrap();
        lower_modules(&[m], &env, &[Lang::C]).unwrap()
    }

    fn count_ops(p: &Program, proc: &str, op: Opr) -> usize {
        let id = p.find_procedure(proc).unwrap();
        let tree = &p.procedure(id).tree;
        tree.iter().filter(|&n| tree.node(n).operator == op).count()
    }

    #[test]
    fn lowers_simple_fortran_assign() {
        let p = compile_f("subroutine s\n  real a(10)\n  integer i\n  do i = 1, 10\n    a(i) = 0.0\n  end do\nend\n");
        assert_eq!(count_ops(&p, "s", Opr::DoLoop), 1);
        assert_eq!(count_ops(&p, "s", Opr::Istore), 1);
        assert_eq!(count_ops(&p, "s", Opr::Array), 1);
    }

    #[test]
    fn array_node_carries_vh_source_order() {
        let p = compile_f("subroutine s\n  real a(4, 9)\n  a(2, 5) = 1.0\nend\n");
        let id = p.find_procedure("s").unwrap();
        let tree = &p.procedure(id).tree;
        let arr = tree
            .iter()
            .find(|&n| tree.node(n).operator == Opr::Array)
            .unwrap();
        let n = tree.node(arr);
        assert_eq!(n.num_dim(), 2);
        assert_eq!(tree.eval_const(n.array_dim_kid(0)), Some(4));
        assert_eq!(tree.eval_const(n.array_dim_kid(1)), Some(9));
        assert_eq!(tree.eval_const(n.array_index_kid(0)), Some(2), "VH keeps source index");
        assert_eq!(n.elem_size, 4, "REAL is 4 bytes");
    }

    #[test]
    fn call_with_array_arg_passes_lda() {
        let p = compile_f("\
subroutine main
  real a(10)
  call q(a, 3)
end
subroutine q(x, n)
  real x(10)
  integer n
  x(1) = 0.0
end
");
        let id = p.find_procedure("main").unwrap();
        let tree = &p.procedure(id).tree;
        let call = tree
            .iter()
            .find(|&n| tree.node(n).operator == Opr::Call)
            .unwrap();
        let parms = &tree.node(call).kids;
        assert_eq!(parms.len(), 2);
        let first = tree.node(tree.node(parms[0]).kids[0]);
        assert_eq!(first.operator, Opr::Lda, "array argument is an LDA");
        let second = tree.node(tree.node(parms[1]).kids[0]);
        assert_eq!(second.operator, Opr::Intconst);
    }

    #[test]
    fn formals_become_idnames() {
        let p = compile_f("subroutine q(x, n)\n  real x(10)\n  integer n\n  x(n) = 0.0\nend\n");
        let id = p.find_procedure("q").unwrap();
        let proc = p.procedure(id);
        assert_eq!(proc.formals.len(), 2);
        let root = proc.tree.root().unwrap();
        let kids = &proc.tree.node(root).kids;
        assert_eq!(kids.len(), 3); // two Idnames + body Block
        assert_eq!(proc.tree.node(kids[0]).operator, Opr::Idname);
    }

    #[test]
    fn globals_share_one_symbol() {
        let p = compile_f("\
subroutine a
  double precision u(8)
  common /c/ u
  u(1) = 0.0
end
subroutine b
  double precision u(8)
  common /c/ u
  u(2) = 0.0
end
");
        let sts: Vec<_> = [p.find_procedure("a").unwrap(), p.find_procedure("b").unwrap()]
            .iter()
            .map(|&id| {
                let tree = &p.procedure(id).tree;
                let arr = tree
                    .iter()
                    .find(|&n| tree.node(n).operator == Opr::Array)
                    .unwrap();
                let base = tree.node(arr).array_base_kid();
                tree.node(base).st_idx.unwrap()
            })
            .collect();
        assert_eq!(sts[0], sts[1], "COMMON array must resolve to one symbol");
    }

    #[test]
    fn undeclared_formal_is_not_aliased_to_a_global() {
        let p = compile_f("\
program main
  integer n
  common /c/ n
  real a(10)
  call s(a, 3)
end
subroutine s(x, n)
  real x(10)
  x(n) = 0.0
end
");
        let proc = p.procedure(p.find_procedure("s").unwrap());
        let n = proc.formals[1];
        assert_eq!(p.symbols.get(n).class, StClass::Formal);
        let global_n = p.symbols.find(p.interner.get("n").unwrap()).unwrap();
        assert_eq!(p.symbols.get(global_n).class, StClass::Global);
        assert_ne!(n, global_n, "the dummy argument must not alias COMMON `n`");
    }

    #[test]
    fn c_module_lowers() {
        let p = compile_c("\
int aarr[20];
void main() {
    int i;
    for (i = 0; i <= 7; i++)
        aarr[i] = i;
}
");
        assert_eq!(count_ops(&p, "main", Opr::DoLoop), 1);
        assert_eq!(count_ops(&p, "main", Opr::Istore), 1);
        let id = p.find_procedure("main").unwrap();
        let tree = &p.procedure(id).tree;
        let arr = tree
            .iter()
            .find(|&n| tree.node(n).operator == Opr::Array)
            .unwrap();
        assert_eq!(tree.eval_const(tree.node(arr).array_dim_kid(0)), Some(20));
    }

    #[test]
    fn if_lowering_produces_two_blocks() {
        let p = compile_f("subroutine s\n  integer i\n  if (i .le. 5) then\n    i = 1\n  else\n    i = 2\n  end if\nend\n");
        assert_eq!(count_ops(&p, "s", Opr::If), 1);
        assert_eq!(count_ops(&p, "s", Opr::Land), 0);
    }

    #[test]
    fn logical_ops_lower() {
        let p = compile_f("subroutine s\n  integer i, j\n  if (i .le. 5 .and. j .ge. 1) then\n    i = 1\n  end if\nend\n");
        assert_eq!(count_ops(&p, "s", Opr::Land), 1);
    }

    #[test]
    fn linenum_propagates() {
        let p = compile_f("subroutine s\n  real a(10)\n  a(1) = 0.0\nend\n");
        let id = p.find_procedure("s").unwrap();
        let tree = &p.procedure(id).tree;
        let st = tree
            .iter()
            .find(|&n| tree.node(n).operator == Opr::Istore)
            .unwrap();
        assert_eq!(tree.node(st).linenum, 3);
    }
}
