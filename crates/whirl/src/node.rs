//! WHIRL nodes (`WN`) and trees.
//!
//! Table I of the paper lists the WN fields the tool consumes: `prev`,
//! `next`, `linenum`, `offset`, `elem_size`, `operator`, `res`, `kid_count`,
//! `num_dim`, `array_dim`, `array_index`, `array_base`, `const_val`,
//! `st_idx`. All of them exist here with the same meaning.
//!
//! The `ARRAY` operator follows the Open64 layout exactly: it is an "N-ary
//! expression operator" whose number of dimensions `n` "is inferred from
//! kid-count shifted right by 1" (`kid_count = 2n + 1`); kid 0 is the base
//! address, "Kids 1 to n give the size of each dimension ... Kids n+1 to 2n
//! give the index expressions for dimensions 0 to n-1 respectively (adjusted
//! so that the array index has a zero lower bound)", and the address is
//! `base + z·Σᵢ(yᵢ·Πⱼ₌ᵢ₊₁..n hⱼ)` with `z` the element size.

use crate::symtab::{DataType, StIdx};
use support::define_idx;
use support::idx::IndexVec;

define_idx! {
    /// Handle to a node inside a [`WhirlTree`].
    pub struct WnId;
}

/// WHIRL operators — the subset a high-level (VH/H) tree needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opr {
    /// Procedure entry; kid 0 is the body `Block`, preceding kids are
    /// `Idname` formals.
    FuncEntry,
    /// Statement sequence.
    Block,
    /// Formal parameter name slot under `FuncEntry`.
    Idname,
    /// Counted loop: kids `[start (Stid), end (comparison expr), step
    /// (Stid), body (Block)]`; `st_idx` is the induction variable.
    DoLoop,
    /// Conditional: kids `[cond, then-Block, else-Block]`.
    If,
    /// Direct call; kids are `Parm` nodes; `st_idx` names the callee.
    Call,
    /// Store to a scalar (`st_idx`); kid 0 is the value.
    Stid,
    /// Load of a scalar (`st_idx`).
    Ldid,
    /// Indirect store: kid 0 value, kid 1 address (an `Array` node).
    Istore,
    /// Indirect load: kid 0 address (an `Array` node).
    Iload,
    /// The n-ary array address operator (row-major, zero-based).
    Array,
    /// Remote (coindexed) coarray address: kids `[Array, image-expr]` — the
    /// PGAS extension ("a programmer can easily express remote data
    /// accesses based on a one-sided communication model").
    RemoteArray,
    /// Address of a symbol (`st_idx`) — array bases.
    Lda,
    /// Integer constant (`const_val`).
    Intconst,
    /// Floating constant (bit pattern in `const_val`).
    Fconst,
    /// Addition, kids `[a, b]`.
    Add,
    /// Subtraction, kids `[a, b]`.
    Sub,
    /// Multiplication, kids `[a, b]`.
    Mpy,
    /// Integer division, kids `[a, b]`.
    Div,
    /// Negation, kid `[a]`.
    Neg,
    /// Comparison `a ≤ b` (loop end tests).
    Le,
    /// Comparison `a < b`.
    Lt,
    /// Comparison `a ≥ b`.
    Ge,
    /// Comparison `a > b`.
    Gt,
    /// Comparison `a = b`.
    Eq,
    /// Comparison `a ≠ b`.
    Ne,
    /// Logical and.
    Land,
    /// Logical or.
    Lior,
    /// Call argument wrapper; kid 0 is the value or array base.
    Parm,
    /// Procedure return; optional kid 0 value.
    Return,
}

impl Opr {
    /// True for statement-level operators (members of a `Block`).
    pub fn is_statement(self) -> bool {
        matches!(
            self,
            Opr::DoLoop | Opr::If | Opr::Call | Opr::Stid | Opr::Istore | Opr::Return
        )
    }

    /// True for expression operators.
    pub fn is_expression(self) -> bool {
        !self.is_statement() && !matches!(self, Opr::FuncEntry | Opr::Block | Opr::Idname)
    }
}

/// One WHIRL node. Field names follow Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct WhirlNode {
    /// Previous statement in the enclosing `Block` (paper: "previous
    /// pointer").
    pub prev: Option<WnId>,
    /// Next statement in the enclosing `Block` (paper: "next pointer").
    pub next: Option<WnId>,
    /// "source position information".
    pub linenum: u32,
    /// "offset for loads, stores, LDA, IDNAME."
    pub offset: i64,
    /// "element size for array" — set on `Array` nodes; negative marks a
    /// non-contiguous Fortran-90 array.
    pub elem_size: i64,
    /// "WHIRL operator".
    pub operator: Opr,
    /// "result type".
    pub res: DataType,
    /// Children, in operator-specific order. `kid_count` is `kids.len()`.
    pub kids: Vec<WnId>,
    /// "64-bit integer constant." (also carries float bit patterns).
    pub const_val: i64,
    /// "symbol table index." — the accessed/called/declared symbol.
    pub st_idx: Option<StIdx>,
}

impl WhirlNode {
    fn new(operator: Opr) -> Self {
        WhirlNode {
            prev: None,
            next: None,
            linenum: 0,
            offset: 0,
            elem_size: 0,
            operator,
            res: DataType::Void,
            kids: Vec::new(),
            const_val: 0,
            st_idx: None,
        }
    }

    /// "number of kids for n-ary operators."
    pub fn kid_count(&self) -> usize {
        self.kids.len()
    }

    /// "Number of dimensions in array": `kid_count >> 1` on `Array` nodes.
    pub fn num_dim(&self) -> usize {
        debug_assert_eq!(self.operator, Opr::Array);
        self.kid_count() >> 1
    }

    /// Kid 0 of an `Array` node: the base address.
    pub fn array_base_kid(&self) -> WnId {
        debug_assert_eq!(self.operator, Opr::Array);
        self.kids[0]
    }

    /// Kid `1 + d`: "size of array dimension" `d` (`array_dim`).
    pub fn array_dim_kid(&self, d: usize) -> WnId {
        debug_assert_eq!(self.operator, Opr::Array);
        debug_assert!(d < self.num_dim());
        self.kids[1 + d]
    }

    /// Kid `n + 1 + d`: "index of array" for dimension `d` (`array_index`).
    pub fn array_index_kid(&self, d: usize) -> WnId {
        debug_assert_eq!(self.operator, Opr::Array);
        let n = self.num_dim();
        debug_assert!(d < n);
        self.kids[1 + n + d]
    }
}

/// A WHIRL tree for one procedure: an arena of nodes plus the `FuncEntry`
/// root.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WhirlTree {
    nodes: IndexVec<WnId, WhirlNode>,
    root: Option<WnId>,
}

impl WhirlTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a node with operator `op`; all other fields default.
    pub fn alloc(&mut self, op: Opr) -> WnId {
        self.nodes.push(WhirlNode::new(op))
    }

    /// Borrow a node.
    pub fn node(&self, id: WnId) -> &WhirlNode {
        &self.nodes[id]
    }

    /// Mutably borrow a node.
    pub fn node_mut(&mut self, id: WnId) -> &mut WhirlNode {
        &mut self.nodes[id]
    }

    /// Number of nodes allocated.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes exist.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Sets the `FuncEntry` root.
    pub fn set_root(&mut self, id: WnId) {
        debug_assert_eq!(self.node(id).operator, Opr::FuncEntry);
        self.root = Some(id);
    }

    /// The `FuncEntry` root.
    pub fn root(&self) -> Option<WnId> {
        self.root
    }

    /// Appends `stmt` to `block`, maintaining the Table I `prev`/`next`
    /// sibling links.
    pub fn append_to_block(&mut self, block: WnId, stmt: WnId) {
        debug_assert_eq!(self.node(block).operator, Opr::Block);
        if let Some(&last) = self.node(block).kids.last() {
            self.node_mut(last).next = Some(stmt);
            self.node_mut(stmt).prev = Some(last);
        }
        self.node_mut(block).kids.push(stmt);
    }

    /// Pre-order traversal from `start` — the paper's "iterate the WHIRL
    /// tree in which each vertex is represented by wn".
    pub fn pre_order(&self, start: WnId) -> PreOrder<'_> {
        PreOrder { tree: self, stack: vec![start] }
    }

    /// Pre-order traversal from the root.
    pub fn iter(&self) -> PreOrder<'_> {
        PreOrder { tree: self, stack: self.root.into_iter().collect() }
    }

    /// Evaluates a constant-foldable expression subtree, `None` when any
    /// leaf is non-constant.
    pub fn eval_const(&self, id: WnId) -> Option<i64> {
        let n = self.node(id);
        match n.operator {
            Opr::Intconst => Some(n.const_val),
            Opr::Add => Some(self.eval_const(n.kids[0])? + self.eval_const(n.kids[1])?),
            Opr::Sub => Some(self.eval_const(n.kids[0])? - self.eval_const(n.kids[1])?),
            Opr::Mpy => Some(self.eval_const(n.kids[0])? * self.eval_const(n.kids[1])?),
            Opr::Div => {
                let d = self.eval_const(n.kids[1])?;
                (d != 0).then(|| self.eval_const(n.kids[0]).map(|x| x / d))?
            }
            Opr::Neg => Some(-self.eval_const(n.kids[0])?),
            _ => None,
        }
    }

    /// The paper's address formula for an `Array` node: with kids 1..n named
    /// `h₁..hₙ`, index expressions `y₁..yₙ`, and element size `z`, the
    /// address is `base + z·Σᵢ(yᵢ·Πⱼ₌ᵢ₊₁..n hⱼ)`. `eval` supplies the value
    /// of each kid expression (dimension sizes and indices); `base` is the
    /// resolved base address.
    pub fn array_address(
        &self,
        array: WnId,
        base: u64,
        eval: &dyn Fn(WnId) -> Option<i64>,
    ) -> Option<u64> {
        let n_node = self.node(array);
        debug_assert_eq!(n_node.operator, Opr::Array);
        let n = n_node.num_dim();
        let z = n_node.elem_size.unsigned_abs();
        let mut flat: i64 = 0;
        for i in 0..n {
            let y = eval(n_node.array_index_kid(i))?;
            let mut mult: i64 = 1;
            for j in (i + 1)..n {
                mult = mult.checked_mul(eval(n_node.array_dim_kid(j))?)?;
            }
            flat = flat.checked_add(y.checked_mul(mult)?)?;
        }
        Some(base.wrapping_add((z as i64).checked_mul(flat)? as u64))
    }
}

/// Pre-order iterator over a WHIRL tree.
pub struct PreOrder<'a> {
    tree: &'a WhirlTree,
    stack: Vec<WnId>,
}

impl<'a> Iterator for PreOrder<'a> {
    type Item = WnId;

    fn next(&mut self) -> Option<WnId> {
        let id = self.stack.pop()?;
        let node = self.tree.node(id);
        // Push kids in reverse so kid 0 is visited first.
        for &k in node.kids.iter().rev() {
            self.stack.push(k);
        }
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn intconst(tree: &mut WhirlTree, v: i64) -> WnId {
        let id = tree.alloc(Opr::Intconst);
        tree.node_mut(id).const_val = v;
        tree.node_mut(id).res = DataType::I8;
        id
    }

    /// Builds `ARRAY` for a 2-D access with dims (h1, h2) and indices
    /// (y1, y2), element size z.
    fn array2(tree: &mut WhirlTree, h: [i64; 2], y: [i64; 2], z: i64) -> WnId {
        let base = tree.alloc(Opr::Lda);
        let h1 = intconst(tree, h[0]);
        let h2 = intconst(tree, h[1]);
        let y1 = intconst(tree, y[0]);
        let y2 = intconst(tree, y[1]);
        let arr = tree.alloc(Opr::Array);
        tree.node_mut(arr).kids = vec![base, h1, h2, y1, y2];
        tree.node_mut(arr).elem_size = z;
        arr
    }

    #[test]
    fn kid_count_encodes_dimensions() {
        let mut tree = WhirlTree::new();
        let arr = array2(&mut tree, [10, 20], [3, 4], 8);
        let n = tree.node(arr);
        assert_eq!(n.kid_count(), 5);
        assert_eq!(n.num_dim(), 2);
        assert_eq!(n.array_base_kid(), n.kids[0]);
        assert_eq!(n.array_dim_kid(0), n.kids[1]);
        assert_eq!(n.array_dim_kid(1), n.kids[2]);
        assert_eq!(n.array_index_kid(0), n.kids[3]);
        assert_eq!(n.array_index_kid(1), n.kids[4]);
    }

    #[test]
    fn address_formula_row_major() {
        // base + z*(y1*h2 + y2): 1000 + 8*(3*20 + 4) = 1000 + 512 = 1512.
        let mut tree = WhirlTree::new();
        let arr = array2(&mut tree, [10, 20], [3, 4], 8);
        let t = &tree;
        let addr = tree.array_address(arr, 1000, &|id| t.eval_const(id));
        assert_eq!(addr, Some(1512));
    }

    #[test]
    fn address_formula_one_dim() {
        let mut tree = WhirlTree::new();
        let base = tree.alloc(Opr::Lda);
        let h = intconst(&mut tree, 20);
        let y = intconst(&mut tree, 7);
        let arr = tree.alloc(Opr::Array);
        tree.node_mut(arr).kids = vec![base, h, y];
        tree.node_mut(arr).elem_size = 4;
        let t = &tree;
        assert_eq!(tree.array_address(arr, 0, &|id| t.eval_const(id)), Some(28));
    }

    #[test]
    fn block_links_prev_next() {
        let mut tree = WhirlTree::new();
        let block = tree.alloc(Opr::Block);
        let s1 = tree.alloc(Opr::Stid);
        let s2 = tree.alloc(Opr::Stid);
        let s3 = tree.alloc(Opr::Return);
        tree.append_to_block(block, s1);
        tree.append_to_block(block, s2);
        tree.append_to_block(block, s3);
        assert_eq!(tree.node(s1).prev, None);
        assert_eq!(tree.node(s1).next, Some(s2));
        assert_eq!(tree.node(s2).prev, Some(s1));
        assert_eq!(tree.node(s2).next, Some(s3));
        assert_eq!(tree.node(s3).next, None);
    }

    #[test]
    fn pre_order_visits_parent_before_kids_left_to_right() {
        let mut tree = WhirlTree::new();
        let a = intconst(&mut tree, 1);
        let b = intconst(&mut tree, 2);
        let add = tree.alloc(Opr::Add);
        tree.node_mut(add).kids = vec![a, b];
        let order: Vec<WnId> = tree.pre_order(add).collect();
        assert_eq!(order, vec![add, a, b]);
    }

    #[test]
    fn eval_const_folds_arithmetic() {
        let mut tree = WhirlTree::new();
        let a = intconst(&mut tree, 6);
        let b = intconst(&mut tree, 2);
        for (op, expect) in [
            (Opr::Add, 8),
            (Opr::Sub, 4),
            (Opr::Mpy, 12),
            (Opr::Div, 3),
        ] {
            let n = tree.alloc(op);
            tree.node_mut(n).kids = vec![a, b];
            assert_eq!(tree.eval_const(n), Some(expect));
        }
        let n = tree.alloc(Opr::Neg);
        tree.node_mut(n).kids = vec![a];
        assert_eq!(tree.eval_const(n), Some(-6));
        let ld = tree.alloc(Opr::Ldid);
        assert_eq!(tree.eval_const(ld), None);
    }

    #[test]
    fn eval_const_division_by_zero_is_none() {
        let mut tree = WhirlTree::new();
        let a = intconst(&mut tree, 6);
        let z = intconst(&mut tree, 0);
        let n = tree.alloc(Opr::Div);
        tree.node_mut(n).kids = vec![a, z];
        assert_eq!(tree.eval_const(n), None);
    }

    #[test]
    fn statement_expression_classification() {
        assert!(Opr::Stid.is_statement());
        assert!(Opr::Istore.is_statement());
        assert!(!Opr::Array.is_statement());
        assert!(Opr::Array.is_expression());
        assert!(!Opr::Block.is_expression());
        assert!(!Opr::FuncEntry.is_expression());
    }

    #[test]
    fn iter_from_root() {
        let mut tree = WhirlTree::new();
        let block = tree.alloc(Opr::Block);
        let fe = tree.alloc(Opr::FuncEntry);
        tree.node_mut(fe).kids = vec![block];
        tree.set_root(fe);
        let seen: Vec<Opr> = tree.iter().map(|id| tree.node(id).operator).collect();
        assert_eq!(seen, vec![Opr::FuncEntry, Opr::Block]);
    }

    #[test]
    fn negative_elem_size_marks_noncontiguous() {
        let mut tree = WhirlTree::new();
        let arr = array2(&mut tree, [10, 20], [0, 0], -8);
        assert!(tree.node(arr).elem_size < 0);
        // Address math uses the magnitude.
        let t = &tree;
        assert_eq!(tree.array_address(arr, 100, &|id| t.eval_const(id)), Some(100));
    }
}
