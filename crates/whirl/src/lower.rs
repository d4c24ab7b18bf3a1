//! VH → H lowering of `ARRAY` operators.
//!
//! "Once the application's source code gets lowered to VH WHIRL by the front
//! ends, the compiler will next translate it to H WHIRL IR level where the
//! IPA phase operates." The observable effect on `ARRAY` nodes is the
//! normalization the paper has to undo in Dragon: "OpenUH uses (row major,
//! zero indexing) for all languages because of the structure of its ARRAY
//! operator."
//!
//! Lowering therefore rewrites every `ARRAY` node so that
//! - dimensions appear in row-major order (reversed for Fortran sources,
//!   unchanged for C), and
//! - every index expression is shifted to a zero lower bound
//!   ("adjusted so that the array index has a zero lower bound").

use crate::node::{Opr, WhirlTree, WnId};
use crate::program::{Lang, Level, Procedure, Program};
use crate::symtab::{DimBound, SymbolTable, TypeTable};

/// Lowers one procedure's tree from VH to H in place. Idempotent: a tree
/// already at [`Level::High`] is left untouched.
pub fn lower_procedure(
    proc: &mut Procedure,
    symbols: &SymbolTable,
    types: &TypeTable,
) {
    if proc.level == Level::High {
        return;
    }
    let arrays: Vec<WnId> = proc
        .tree
        .iter()
        .filter(|&id| proc.tree.node(id).operator == Opr::Array)
        .collect();
    for id in arrays {
        lower_array(&mut proc.tree, id, proc.lang, symbols, types);
    }
    proc.level = Level::High;
}

/// Lowers every procedure of a program still at [`Level::VeryHigh`].
pub fn lower_program(program: &mut Program) {
    let _span = support::obs::span("whirl.lower");
    let Program { symbols, types, procedures, .. } = program;
    for proc in procedures.iter_mut() {
        lower_procedure(proc, symbols, types);
    }
}

fn lower_array(
    tree: &mut WhirlTree,
    id: WnId,
    lang: Lang,
    symbols: &SymbolTable,
    types: &TypeTable,
) {
    let (n, base_kid, line) = {
        let node = tree.node(id);
        (node.num_dim(), node.array_base_kid(), node.linenum)
    };
    // Resolve the declared bounds through the base symbol.
    let bounds: &[DimBound] = match tree.node(base_kid).st_idx {
        Some(st) => types.dim_bounds(symbols.get(st).ty),
        None => &[],
    };

    let mut dims: Vec<WnId> =
        (0..n).map(|d| tree.node(id).array_dim_kid(d)).collect();
    let mut indices: Vec<WnId> =
        (0..n).map(|d| tree.node(id).array_index_kid(d)).collect();

    // Shift each index to a zero lower bound (in source-dimension order).
    for (d, idx) in indices.iter_mut().enumerate() {
        let lb = bounds.get(d).map(|b| b.lower_in(lang)).unwrap_or(0);
        if lb != 0 {
            *idx = shift_index(tree, *idx, lb, line);
        }
    }

    // Fortran sources are column-major: reverse to row-major.
    if lang == Lang::Fortran {
        dims.reverse();
        indices.reverse();
    }

    let node = tree.node_mut(id);
    node.kids.clear();
    node.kids.push(base_kid);
    node.kids.extend(dims);
    node.kids.extend(indices);
}

/// Builds `idx - lb`, constant-folding when possible.
fn shift_index(tree: &mut WhirlTree, idx: WnId, lb: i64, line: u32) -> WnId {
    if tree.node(idx).operator == Opr::Intconst {
        let folded = tree.alloc(Opr::Intconst);
        let v = tree.node(idx).const_val - lb;
        let n = tree.node_mut(folded);
        n.const_val = v;
        n.linenum = line;
        return folded;
    }
    let c = tree.alloc(Opr::Intconst);
    tree.node_mut(c).const_val = lb;
    let sub = tree.alloc(Opr::Sub);
    let n = tree.node_mut(sub);
    n.kids = vec![idx, c];
    n.linenum = line;
    sub
}

/// Given a zero-based row-major (H-level) dimension index, returns the
/// source dimension it came from — the inverse mapping Dragon applies "to
/// fulfill our goal of showing the actual bounds".
pub fn source_dim(lang: Lang, ndims: usize, h_dim: usize) -> usize {
    match lang {
        Lang::C => h_dim,
        Lang::Fortran => ndims - 1 - h_dim,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TreeBuilder;
    use crate::symtab::{DataType, StClass, StIdx};
    use support::Interner;

    struct Fixture {
        symbols: SymbolTable,
        types: TypeTable,
        arr_st: StIdx,
        proc_st: StIdx,
    }

    fn fixture(lb: i64, ub: i64, second: Option<(i64, i64)>) -> Fixture {
        let mut it = Interner::new();
        let mut types = TypeTable::new();
        let mut dims = vec![DimBound::Const { lb, ub }];
        if let Some((l2, u2)) = second {
            dims.push(DimBound::Const { lb: l2, ub: u2 });
        }
        let aty = types.array(DataType::F8, dims);
        let pty = types.scalar(DataType::Void);
        let mut symbols = SymbolTable::new();
        let arr_st = symbols.add(it.intern("a"), aty, StClass::Global);
        let proc_st = symbols.add(it.intern("p"), pty, StClass::Proc);
        Fixture { symbols, types, arr_st, proc_st }
    }

    fn make_proc(fx: &Fixture, lang: Lang, build: impl FnOnce(&mut TreeBuilder, StIdx) -> WnId) -> Procedure {
        let mut b = TreeBuilder::new();
        let arr = build(&mut b, fx.arr_st);
        let body = b.block();
        let val = b.fconst(0.0);
        let st = b.istore(arr, val, 1);
        b.append(body, st);
        b.func_entry(fx.proc_st, vec![], body);
        Procedure {
            name: support::Interner::new().intern("p"),
            st: fx.proc_st,
            file: support::Interner::new().intern("t.f"),
            linenum: 1,
            lang,
            formals: vec![],
            tree: b.finish(),
            level: Level::VeryHigh,
        }
    }

    fn find_array(tree: &WhirlTree) -> WnId {
        tree.iter()
            .find(|&id| tree.node(id).operator == Opr::Array)
            .unwrap()
    }

    #[test]
    fn c_array_zero_based_is_untouched() {
        let fx = fixture(0, 19, None);
        let mut proc = make_proc(&fx, Lang::C, |b, st| {
            let base = b.lda(st, 1);
            let h = b.intconst(20);
            let y = b.intconst(7);
            b.array(base, vec![h], vec![y], 8, 1)
        });
        lower_procedure(&mut proc, &fx.symbols, &fx.types);
        let arr = find_array(&proc.tree);
        let idx = proc.tree.node(arr).array_index_kid(0);
        assert_eq!(proc.tree.eval_const(idx), Some(7));
        assert_eq!(proc.level, Level::High);
    }

    #[test]
    fn fortran_one_based_index_is_shifted() {
        // A(1:5): A(3) lowers to zero-based index 2.
        let fx = fixture(1, 5, None);
        let mut proc = make_proc(&fx, Lang::Fortran, |b, st| {
            let base = b.lda(st, 1);
            let h = b.intconst(5);
            let y = b.intconst(3);
            b.array(base, vec![h], vec![y], 8, 1)
        });
        lower_procedure(&mut proc, &fx.symbols, &fx.types);
        let arr = find_array(&proc.tree);
        let idx = proc.tree.node(arr).array_index_kid(0);
        assert_eq!(proc.tree.eval_const(idx), Some(2));
    }

    #[test]
    fn fortran_dimensions_reverse_to_row_major() {
        // A(1:10, 1:20), access A(i=3, j=7): H level must be
        // dims [20, 10], indices [6, 2].
        let fx = fixture(1, 10, Some((1, 20)));
        let mut proc = make_proc(&fx, Lang::Fortran, |b, st| {
            let base = b.lda(st, 1);
            let h1 = b.intconst(10);
            let h2 = b.intconst(20);
            let y1 = b.intconst(3);
            let y2 = b.intconst(7);
            b.array(base, vec![h1, h2], vec![y1, y2], 8, 1)
        });
        lower_procedure(&mut proc, &fx.symbols, &fx.types);
        let arr = find_array(&proc.tree);
        let n = proc.tree.node(arr);
        assert_eq!(proc.tree.eval_const(n.array_dim_kid(0)), Some(20));
        assert_eq!(proc.tree.eval_const(n.array_dim_kid(1)), Some(10));
        assert_eq!(proc.tree.eval_const(n.array_index_kid(0)), Some(6));
        assert_eq!(proc.tree.eval_const(n.array_index_kid(1)), Some(2));
    }

    #[test]
    fn lowering_is_idempotent() {
        let fx = fixture(1, 5, None);
        let mut proc = make_proc(&fx, Lang::Fortran, |b, st| {
            let base = b.lda(st, 1);
            let h = b.intconst(5);
            let y = b.intconst(3);
            b.array(base, vec![h], vec![y], 8, 1)
        });
        lower_procedure(&mut proc, &fx.symbols, &fx.types);
        let before = proc.tree.len();
        lower_procedure(&mut proc, &fx.symbols, &fx.types);
        assert_eq!(proc.tree.len(), before, "second lowering must be a no-op");
    }

    #[test]
    fn non_constant_index_gets_sub_node() {
        // A(1:5), access A(i) with i a variable: index becomes i - 1.
        let fx = fixture(1, 5, None);
        let mut it = Interner::new();
        let mut types = fx.types.clone();
        let ity = types.scalar(DataType::I4);
        let mut symbols = fx.symbols.clone();
        let i_st = symbols.add(it.intern("i"), ity, StClass::Local);
        let fx = Fixture { symbols, types, arr_st: fx.arr_st, proc_st: fx.proc_st };
        let mut proc = make_proc(&fx, Lang::Fortran, |b, st| {
            let base = b.lda(st, 1);
            let h = b.intconst(5);
            let y = b.ldid(i_st, DataType::I4, 1);
            b.array(base, vec![h], vec![y], 8, 1)
        });
        lower_procedure(&mut proc, &fx.symbols, &fx.types);
        let arr = find_array(&proc.tree);
        let idx = proc.tree.node(arr).array_index_kid(0);
        let idx_node = proc.tree.node(idx);
        assert_eq!(idx_node.operator, Opr::Sub);
        assert_eq!(proc.tree.node(idx_node.kids[0]).operator, Opr::Ldid);
        assert_eq!(proc.tree.eval_const(idx_node.kids[1]), Some(1));
    }

    #[test]
    fn source_dim_mapping() {
        assert_eq!(source_dim(Lang::C, 4, 0), 0);
        assert_eq!(source_dim(Lang::C, 4, 3), 3);
        assert_eq!(source_dim(Lang::Fortran, 4, 0), 3);
        assert_eq!(source_dim(Lang::Fortran, 4, 3), 0);
    }
}
