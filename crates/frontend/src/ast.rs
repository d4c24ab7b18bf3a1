//! Language-neutral AST.
//!
//! Both front ends (the Fortran and C subsets) parse into this one AST,
//! mirroring how OpenUH's GNU-derived front ends meet at VH WHIRL. The AST
//! keeps source-level array semantics — declared bounds per dimension in
//! *source order*, 1-based or 0-based as written — and lowering to WHIRL
//! performs the row-major zero-based normalization.

use support::Pos;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==` / `.eq.`
    Eq,
    /// `!=` / `.ne.`
    Ne,
    /// `&&` / `.and.`
    And,
    /// `||` / `.or.`
    Or,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64, Pos),
    /// Floating literal.
    Real(f64, Pos),
    /// Scalar variable reference, or a whole-array reference when the name
    /// resolves to an array (e.g. an array passed as a call argument).
    Var(String, Pos),
    /// `name(args)` in Fortran / `name[i][j]` in C before resolution:
    /// becomes an array element reference when `name` is a declared array.
    Index(String, Vec<Expr>, Pos),
    /// Coindexed (remote) coarray reference `name(subs)[image]` — the CAF
    /// extension of the paper's future work ("a programmer can easily
    /// express remote data accesses based on a one-sided communication
    /// model").
    CoIndex(String, Vec<Expr>, Box<Expr>, Pos),
    /// A function call in expression position (parsed, rejected by sema —
    /// the analysis subset has no expression calls).
    Call(String, Vec<Expr>, Pos),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>, Pos),
    /// Unary minus.
    Neg(Box<Expr>, Pos),
}

impl Expr {
    /// The source position of the expression's head token.
    pub fn pos(&self) -> Pos {
        match self {
            Expr::Int(_, p)
            | Expr::Real(_, p)
            | Expr::Var(_, p)
            | Expr::Index(_, _, p)
            | Expr::CoIndex(_, _, _, p)
            | Expr::Call(_, _, p)
            | Expr::Bin(_, _, _, p)
            | Expr::Neg(_, p) => *p,
        }
    }
}

/// Assignment targets.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// Scalar variable.
    Var(String, Pos),
    /// Array element `name(subs)` / `name[subs]`.
    Elem(String, Vec<Expr>, Pos),
    /// Remote coarray element `name(subs)[image]`.
    CoElem(String, Vec<Expr>, Box<Expr>, Pos),
}

impl LValue {
    /// The target's name.
    pub fn name(&self) -> &str {
        match self {
            LValue::Var(n, _) | LValue::Elem(n, _, _) | LValue::CoElem(n, _, _, _) => n,
        }
    }

    /// Source position.
    pub fn pos(&self) -> Pos {
        match self {
            LValue::Var(_, p) | LValue::Elem(_, _, p) | LValue::CoElem(_, _, _, p) => *p,
        }
    }
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `lhs = rhs`.
    Assign(LValue, Expr, Pos),
    /// Procedure call statement (`call p(...)` / `p(...);`).
    Call(String, Vec<Expr>, Pos),
    /// Counted loop `do v = lo, hi [, step]` / `for (v = lo; v <= hi; v += step)`.
    Do {
        /// Induction variable name.
        var: String,
        /// Lower bound.
        lo: Expr,
        /// Upper bound (inclusive).
        hi: Expr,
        /// Constant step (defaults to 1).
        step: i64,
        /// Loop body.
        body: Vec<Stmt>,
        /// Header position.
        pos: Pos,
    },
    /// Conditional.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_body: Vec<Stmt>,
        /// Else branch (possibly empty).
        else_body: Vec<Stmt>,
        /// Header position.
        pos: Pos,
    },
    /// `return`.
    Return(Pos),
}

/// Element type names as written in source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeName {
    /// `integer` / `int`.
    Integer,
    /// `integer*8` / `long`.
    Integer8,
    /// `real` / `float`.
    Real,
    /// `double precision` / `double`.
    Double,
    /// `character` / `char`.
    Character,
}

/// One declared dimension `lb:ub` (Fortran defaults `lb = 1`; C is `0:n-1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AstDim {
    /// Constant bounds, inclusive.
    Range(i64, i64),
    /// Assumed-size / runtime dimension (`*` or `:`).
    Unknown,
}

/// A variable declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    /// The variable name.
    pub name: String,
    /// Element type.
    pub ty: TypeName,
    /// Dimensions in source order (empty ⇒ scalar).
    pub dims: Vec<AstDim>,
    /// True for coarrays (`x(10)[*]`): remotely addressable across images.
    pub coarray: bool,
    /// Declaration position.
    pub pos: Pos,
}

/// A procedure (subroutine / void function).
#[derive(Debug, Clone, PartialEq)]
pub struct ProcDecl {
    /// Procedure name.
    pub name: String,
    /// Formal parameter names, in order.
    pub formals: Vec<String>,
    /// Local + formal declarations.
    pub decls: Vec<VarDecl>,
    /// The body.
    pub body: Vec<Stmt>,
    /// Header position.
    pub pos: Pos,
    /// True for the program entry (`program` / `main`).
    pub is_entry: bool,
}

/// One parsed source file.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// Source file name (e.g. `verify.f`, `matrix.c`).
    pub file: String,
    /// Global (file-scope / COMMON) declarations.
    pub globals: Vec<VarDecl>,
    /// Procedures, in source order.
    pub procs: Vec<ProcDecl>,
}

impl Module {
    /// Creates an empty module for `file`.
    pub fn new(file: impl Into<String>) -> Self {
        Module { file: file.into(), globals: Vec::new(), procs: Vec::new() }
    }

    /// Finds a procedure by (case-sensitive) name.
    pub fn find_proc(&self, name: &str) -> Option<&ProcDecl> {
        self.procs.iter().find(|p| p.name == name)
    }

    /// Releases the spare capacity parsing leaves in every vector of the
    /// tree, so a module kept for reuse holds no more memory than a copy of
    /// it would, without the copy.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.globals.shrink_to_fit();
        for g in &mut self.globals {
            g.dims.shrink_to_fit();
        }
        self.procs.shrink_to_fit();
        for p in &mut self.procs {
            p.formals.shrink_to_fit();
            p.decls.shrink_to_fit();
            for d in &mut p.decls {
                d.dims.shrink_to_fit();
            }
            shrink_body(&mut p.body);
        }
    }
}

fn shrink_body(body: &mut Vec<Stmt>) {
    body.shrink_to_fit();
    for s in body {
        match s {
            Stmt::Assign(lhs, rhs, _) => {
                match lhs {
                    LValue::Var(..) => {}
                    LValue::Elem(_, subs, _) => shrink_exprs(subs),
                    LValue::CoElem(_, subs, image, _) => {
                        shrink_exprs(subs);
                        shrink_expr(image);
                    }
                }
                shrink_expr(rhs);
            }
            Stmt::Call(_, args, _) => shrink_exprs(args),
            Stmt::Do { lo, hi, body, .. } => {
                shrink_expr(lo);
                shrink_expr(hi);
                shrink_body(body);
            }
            Stmt::If { cond, then_body, else_body, .. } => {
                shrink_expr(cond);
                shrink_body(then_body);
                shrink_body(else_body);
            }
            Stmt::Return(_) => {}
        }
    }
}

fn shrink_exprs(exprs: &mut Vec<Expr>) {
    exprs.shrink_to_fit();
    for e in exprs {
        shrink_expr(e);
    }
}

fn shrink_expr(e: &mut Expr) {
    match e {
        Expr::Index(_, args, _) | Expr::Call(_, args, _) => shrink_exprs(args),
        Expr::CoIndex(_, subs, image, _) => {
            shrink_exprs(subs);
            shrink_expr(image);
        }
        Expr::Bin(_, l, r, _) => {
            shrink_expr(l);
            shrink_expr(r);
        }
        Expr::Neg(x, _) => shrink_expr(x),
        Expr::Int(..) | Expr::Real(..) | Expr::Var(..) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_pos_extraction() {
        let p = Pos::new(3, 9);
        let e = Expr::Bin(
            BinOp::Add,
            Box::new(Expr::Int(1, Pos::START)),
            Box::new(Expr::Int(2, Pos::START)),
            p,
        );
        assert_eq!(e.pos(), p);
        assert_eq!(Expr::Var("x".into(), p).pos(), p);
    }

    #[test]
    fn lvalue_name_and_pos() {
        let p = Pos::new(1, 5);
        let lv = LValue::Elem("aarr".into(), vec![Expr::Int(0, p)], p);
        assert_eq!(lv.name(), "aarr");
        assert_eq!(lv.pos(), p);
    }

    #[test]
    fn module_find_proc() {
        let mut m = Module::new("t.f");
        m.procs.push(ProcDecl {
            name: "verify".into(),
            formals: vec![],
            decls: vec![],
            body: vec![],
            pos: Pos::START,
            is_entry: false,
        });
        assert!(m.find_proc("verify").is_some());
        assert!(m.find_proc("other").is_none());
    }
}
