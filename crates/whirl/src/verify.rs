//! Structural verification of WHIRL trees.
//!
//! Real compiler IRs ship an invariant checker; ours validates everything
//! later phases assume, so a frontend or lowering bug surfaces at the
//! boundary instead of as a wrong region three crates later:
//!
//! - operator-specific kid counts (`ARRAY` has `2n+1`, `ISTORE` 2,
//!   `DO_LOOP` 4, `IF` 3, ...);
//! - required `st_idx` on symbol-bearing operators, resolvable in the
//!   symbol table;
//! - `Block` kids are statements, expression operators appear only in
//!   expression positions;
//! - `DO_LOOP` shape: init/increment are `STID` of the induction variable,
//!   the test is a comparison;
//! - `prev`/`next` sibling links are consistent with `Block` kid order;
//! - `ARRAY` subscript count matches the base symbol's declared rank.

use crate::node::{Opr, WhirlTree, WnId};
use crate::program::{Procedure, Program};
use crate::symtab::TyKind;

/// One verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// The offending node.
    pub node: WnId,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.node, self.msg)
    }
}

/// Verifies one procedure; returns every violation found.
pub fn verify_procedure(program: &Program, proc: &Procedure) -> Vec<VerifyError> {
    let mut v = Verifier { program, tree: &proc.tree, errors: Vec::new() };
    let Some(root) = proc.tree.root() else {
        return vec![VerifyError { node: WnId(0), msg: "tree has no root".into() }];
    };
    if proc.tree.node(root).operator != Opr::FuncEntry {
        v.err(root, "root is not FUNC_ENTRY");
    }
    let kids = &proc.tree.node(root).kids;
    match kids.split_last() {
        None => v.err(root, "FUNC_ENTRY has no body"),
        Some((&body, formals)) => {
            for &formal in formals {
                if proc.tree.node(formal).operator != Opr::Idname {
                    v.err(formal, "FUNC_ENTRY leading kids must be IDNAMEs");
                }
            }
            v.check_block(body);
        }
    }
    v.errors
}

/// Verifies every procedure of a program.
pub fn verify_program(program: &Program) -> Vec<(String, VerifyError)> {
    let mut out = Vec::new();
    for proc in program.procedures.iter() {
        for e in verify_procedure(program, proc) {
            out.push((program.name_of(proc.name).to_string(), e));
        }
    }
    out
}

struct Verifier<'a> {
    program: &'a Program,
    tree: &'a WhirlTree,
    errors: Vec<VerifyError>,
}

impl<'a> Verifier<'a> {
    fn err(&mut self, node: WnId, msg: impl Into<String>) {
        self.errors.push(VerifyError { node, msg: msg.into() });
    }

    fn require_kids(&mut self, id: WnId, n: usize) -> bool {
        let have = self.tree.node(id).kid_count();
        if have != n {
            let op = self.tree.node(id).operator;
            self.err(id, format!("{op:?} expects {n} kids, has {have}"));
            false
        } else {
            true
        }
    }

    fn require_symbol(&mut self, id: WnId) {
        let node = self.tree.node(id);
        match node.st_idx {
            None => {
                let op = node.operator;
                self.err(id, format!("{op:?} requires st_idx"));
            }
            Some(st) => {
                use support::idx::Idx;
                if st.as_usize() >= self.program.symbols.len() {
                    self.err(id, "st_idx out of symbol-table range");
                }
            }
        }
    }

    fn check_block(&mut self, block: WnId) {
        if self.tree.node(block).operator != Opr::Block {
            self.err(block, "expected a BLOCK");
            return;
        }
        let kids = self.tree.node(block).kids.clone();
        // prev/next chain must mirror kid order.
        for (i, &k) in kids.iter().enumerate() {
            let n = self.tree.node(k);
            let expected_prev = if i == 0 { None } else { Some(kids[i - 1]) };
            let expected_next = kids.get(i + 1).copied();
            if n.prev != expected_prev || n.next != expected_next {
                self.err(k, "prev/next links inconsistent with BLOCK order");
            }
            if !n.operator.is_statement() {
                self.err(k, format!("{:?} is not a statement", n.operator));
            }
            self.check_stmt(k);
        }
    }

    fn check_stmt(&mut self, id: WnId) {
        let op = self.tree.node(id).operator;
        match op {
            Opr::Stid => {
                if self.require_kids(id, 1) {
                    self.require_symbol(id);
                    self.check_expr(self.tree.node(id).kids[0]);
                }
            }
            Opr::Istore => {
                if self.require_kids(id, 2) {
                    let kids = self.tree.node(id).kids.clone();
                    self.check_expr(kids[0]);
                    self.check_address(kids[1]);
                }
            }
            Opr::Call => {
                self.require_symbol(id);
                for &parm in &self.tree.node(id).kids.clone() {
                    if self.tree.node(parm).operator != Opr::Parm {
                        self.err(parm, "CALL kids must be PARMs");
                    } else if self.require_kids(parm, 1) {
                        self.check_expr(self.tree.node(parm).kids[0]);
                    }
                }
            }
            Opr::DoLoop => {
                if self.require_kids(id, 4) {
                    self.require_symbol(id);
                    let kids = self.tree.node(id).kids.clone();
                    let ivar = self.tree.node(id).st_idx;
                    for &slot in &[kids[0], kids[2]] {
                        let n = self.tree.node(slot);
                        if n.operator != Opr::Stid || n.st_idx != ivar {
                            self.err(slot, "DO_LOOP init/incr must STID the induction var");
                        } else {
                            self.check_expr(n.kids[0]);
                        }
                    }
                    let test = self.tree.node(kids[1]);
                    if !matches!(test.operator, Opr::Le | Opr::Lt | Opr::Ge | Opr::Gt) {
                        self.err(kids[1], "DO_LOOP test must be a comparison");
                    } else {
                        self.check_expr(kids[1]);
                    }
                    self.check_block(kids[3]);
                }
            }
            Opr::If => {
                if self.require_kids(id, 3) {
                    let kids = self.tree.node(id).kids.clone();
                    self.check_expr(kids[0]);
                    self.check_block(kids[1]);
                    self.check_block(kids[2]);
                }
            }
            Opr::Return => {
                if let Some(&v) = self.tree.node(id).kids.first() {
                    self.check_expr(v);
                }
            }
            other => self.err(id, format!("{other:?} is not a statement operator")),
        }
    }

    /// An indirect-access address: `ARRAY` or `REMOTE_ARRAY(ARRAY, expr)`.
    fn check_address(&mut self, id: WnId) {
        match self.tree.node(id).operator {
            Opr::Array => self.check_array(id),
            Opr::RemoteArray => {
                if self.require_kids(id, 2) {
                    let kids = self.tree.node(id).kids.clone();
                    if self.tree.node(kids[0]).operator != Opr::Array {
                        self.err(kids[0], "REMOTE_ARRAY kid 0 must be ARRAY");
                    } else {
                        self.check_array(kids[0]);
                    }
                    self.check_expr(kids[1]);
                }
            }
            other => self.err(id, format!("{other:?} cannot be an address")),
        }
    }

    fn check_array(&mut self, id: WnId) {
        let node = self.tree.node(id);
        if node.kid_count() < 3 || node.kid_count().is_multiple_of(2) {
            self.err(id, format!("ARRAY kid_count {} is not 2n+1", node.kid_count()));
            return;
        }
        let n = node.num_dim();
        let base = node.array_base_kid();
        let base_node = self.tree.node(base);
        if !matches!(base_node.operator, Opr::Lda | Opr::Ldid) {
            self.err(base, "ARRAY base must be LDA/LDID");
        } else if let Some(st) = base_node.st_idx {
            // Rank check against the declared type.
            let ty = self.program.symbols.get(st).ty;
            if let TyKind::Array { dims, .. } = &self.program.types.get(ty).kind {
                if dims.len() != n {
                    self.err(
                        id,
                        format!(
                            "ARRAY has {n} subscripts but `{}` has rank {}",
                            self.program.name_of(self.program.symbols.get(st).name),
                            dims.len()
                        ),
                    );
                }
            } else {
                self.err(base, "ARRAY base symbol is not an array");
            }
        } else {
            self.err(base, "ARRAY base carries no symbol");
        }
        let kids = node.kids.clone();
        for &k in &kids[1..] {
            self.check_expr(k);
        }
    }

    fn check_expr(&mut self, id: WnId) {
        let op = self.tree.node(id).operator;
        match op {
            Opr::Intconst | Opr::Fconst => {
                if !self.tree.node(id).kids.is_empty() {
                    self.err(id, "constants have no kids");
                }
            }
            Opr::Ldid | Opr::Lda => {
                self.require_symbol(id);
            }
            Opr::Iload => {
                if self.require_kids(id, 1) {
                    self.check_address(self.tree.node(id).kids[0]);
                }
            }
            Opr::Add
            | Opr::Sub
            | Opr::Mpy
            | Opr::Div
            | Opr::Le
            | Opr::Lt
            | Opr::Ge
            | Opr::Gt
            | Opr::Eq
            | Opr::Ne
            | Opr::Land
            | Opr::Lior => {
                if self.require_kids(id, 2) {
                    let kids = self.tree.node(id).kids.clone();
                    self.check_expr(kids[0]);
                    self.check_expr(kids[1]);
                }
            }
            Opr::Neg => {
                if self.require_kids(id, 1) {
                    self.check_expr(self.tree.node(id).kids[0]);
                }
            }
            Opr::Array | Opr::RemoteArray => self.check_address(id),
            other => self.err(id, format!("{other:?} is not an expression operator")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TreeBuilder;
    use crate::program::{Lang, Level};
    use crate::symtab::{DataType, DimBound, StClass};

    fn valid_program() -> Program {
        let mut p = Program::new();
        let aty = p.types.array(DataType::F8, vec![DimBound::Const { lb: 1, ub: 9 }]);
        let ity = p.types.scalar(DataType::I4);
        let vty = p.types.scalar(DataType::Void);
        let a = p.symbols.add(p.interner.intern("a"), aty, StClass::Global);
        let i = p.symbols.add(p.interner.intern("i"), ity, StClass::Local);
        let s = p.symbols.add(p.interner.intern("s"), vty, StClass::Proc);

        let mut b = TreeBuilder::new();
        let inner = b.block();
        let base = b.lda(a, 2);
        let h = b.intconst(9);
        let y = b.ldid(i, DataType::I4, 2);
        let arr = b.array(base, vec![h], vec![y], 8, 2);
        let val = b.fconst(1.0);
        let st = b.istore(arr, val, 2);
        b.append(inner, st);
        let lo = b.intconst(1);
        let hi = b.intconst(9);
        let lp = b.do_loop(i, lo, hi, 1, inner, 1);
        let body = b.block();
        b.append(body, lp);
        b.func_entry(s, vec![], body);

        let name = p.interner.intern("s");
        let file = p.interner.intern("s.f");
        p.add_procedure(Procedure {
            name,
            st: s,
            file,
            linenum: 1,
            lang: Lang::Fortran,
            formals: vec![],
            tree: b.finish(),
            level: Level::VeryHigh,
        });
        p
    }

    #[test]
    fn valid_tree_passes() {
        let p = valid_program();
        assert_eq!(verify_program(&p), vec![]);
    }

    #[test]
    fn broken_prev_next_detected() {
        let mut p = valid_program();
        // Corrupt a sibling link.
        let proc = p.procedure_mut(crate::program::ProcId(0));
        let root = proc.tree.root().unwrap();
        let body = *proc.tree.node(root).kids.last().unwrap();
        let first = proc.tree.node(body).kids[0];
        proc.tree.node_mut(first).next = Some(first);
        let errors = verify_program(&p);
        assert!(errors.iter().any(|(_, e)| e.msg.contains("prev/next")), "{errors:?}");
    }

    #[test]
    fn rank_mismatch_detected() {
        let mut p = valid_program();
        // Give the ARRAY node an extra fake dimension pair.
        let proc = p.procedure_mut(crate::program::ProcId(0));
        let arr = proc
            .tree
            .iter()
            .find(|&n| proc.tree.node(n).operator == Opr::Array)
            .unwrap();
        let extra_dim = proc.tree.alloc(Opr::Intconst);
        let extra_idx = proc.tree.alloc(Opr::Intconst);
        let node = proc.tree.node_mut(arr);
        node.kids.insert(2, extra_dim); // base, h1, EXTRA, y1 → wrong layout
        node.kids.push(extra_idx);
        let errors = verify_program(&p);
        assert!(
            errors.iter().any(|(_, e)| e.msg.contains("rank") || e.msg.contains("2n+1")),
            "{errors:?}"
        );
    }

    #[test]
    fn missing_symbol_detected() {
        let mut p = valid_program();
        let proc = p.procedure_mut(crate::program::ProcId(0));
        let ld = proc
            .tree
            .iter()
            .find(|&n| proc.tree.node(n).operator == Opr::Ldid)
            .unwrap();
        proc.tree.node_mut(ld).st_idx = None;
        let errors = verify_program(&p);
        assert!(errors.iter().any(|(_, e)| e.msg.contains("requires st_idx")), "{errors:?}");
    }

    #[test]
    fn expression_in_statement_position_detected() {
        let mut p = valid_program();
        let proc = p.procedure_mut(crate::program::ProcId(0));
        let root = proc.tree.root().unwrap();
        let body = *proc.tree.node(root).kids.last().unwrap();
        let stray = proc.tree.alloc(Opr::Intconst);
        proc.tree.append_to_block(body, stray);
        let errors = verify_program(&p);
        assert!(
            errors.iter().any(|(_, e)| e.msg.contains("not a statement")),
            "{errors:?}"
        );
    }

    #[test]
    fn do_loop_shape_enforced() {
        let mut p = valid_program();
        let proc = p.procedure_mut(crate::program::ProcId(0));
        let lp = proc
            .tree
            .iter()
            .find(|&n| proc.tree.node(n).operator == Opr::DoLoop)
            .unwrap();
        // Replace the test with a non-comparison.
        let bogus = proc.tree.alloc(Opr::Intconst);
        proc.tree.node_mut(lp).kids[1] = bogus;
        let errors = verify_program(&p);
        assert!(
            errors.iter().any(|(_, e)| e.msg.contains("comparison")),
            "{errors:?}"
        );
    }
}
