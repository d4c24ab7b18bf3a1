//! Triplet-notation regions `[LB : UB : Stride]` per dimension.
//!
//! This is the representation the paper's tool actually *displays*: "We have
//! extended the array region analysis module inside OpenUH to extract the
//! bounds information for the array regions that have been accessed in a
//! triplet notation format [LB : UB : Stride]". Each bound is classified on
//! the paper's lattice — `CONST`, `IVAR` (symbolic parameter), `LINDEX`
//! (loop index), `SUBSCR` (depends on another subscript) — and bounds "that
//! have expressions which cannot be linearized are marked as MESSY or
//! UNPROJECTED".
//!
//! Unlike the earlier Dragon version, strides are exact (loops are not
//! normalized) and negative bounds are representable.

use crate::linexpr::{gcd, LinExpr};
use crate::space::{Space, VarKind};

/// Classification of a bound expression on the paper's lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundClass {
    /// Compile-time integer constant.
    Const,
    /// Affine in symbolic parameters only (formal argument, global scalar).
    IVar,
    /// Mentions a loop induction variable.
    LIndex,
    /// Mentions another dimension's subscript variable.
    Subscr,
    /// Could not be linearized.
    Messy,
    /// A projection step could not be completed.
    Unprojected,
}

impl std::fmt::Display for BoundClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BoundClass::Const => "CONST",
            BoundClass::IVar => "IVAR",
            BoundClass::LIndex => "LINDEX",
            BoundClass::Subscr => "SUBSCR",
            BoundClass::Messy => "MESSY",
            BoundClass::Unprojected => "UNPROJECTED",
        };
        f.write_str(s)
    }
}

/// One bound (lower, upper, or stride) of a triplet.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Bound {
    /// Known integer.
    Const(i64),
    /// Affine expression over the region's space (symbolic/loop variables).
    Expr(LinExpr),
    /// Not linearizable.
    Messy,
    /// Projection failed.
    Unprojected,
}

impl Bound {
    /// Classifies against the variable kinds of `space`.
    pub fn classify(&self, space: &Space) -> BoundClass {
        match self {
            Bound::Const(_) => BoundClass::Const,
            Bound::Messy => BoundClass::Messy,
            Bound::Unprojected => BoundClass::Unprojected,
            Bound::Expr(e) => {
                if e.as_constant().is_some() {
                    return BoundClass::Const;
                }
                let mut class = BoundClass::IVar;
                for v in e.vars() {
                    match space.kind(v) {
                        VarKind::Dim(_) => return BoundClass::Subscr,
                        VarKind::Loop(_) => class = BoundClass::LIndex,
                        VarKind::Sym(_) => {}
                    }
                }
                class
            }
        }
    }

    /// The constant value, if any (folding constant expressions).
    pub fn as_const(&self) -> Option<i64> {
        match self {
            Bound::Const(c) => Some(*c),
            Bound::Expr(e) => e.as_constant(),
            _ => None,
        }
    }

    /// True when the bound is exactly known.
    pub fn is_const(&self) -> bool {
        self.as_const().is_some()
    }

    /// Renders for display; variable-bearing bounds use `name`.
    pub fn render(&self, name: &dyn Fn(crate::space::VarId) -> String) -> String {
        match self {
            Bound::Const(c) => c.to_string(),
            Bound::Expr(e) => e.render(name),
            Bound::Messy => "MESSY".into(),
            Bound::Unprojected => "UNPROJECTED".into(),
        }
    }

    /// Pointwise minimum when both bounds are constant; `Messy` otherwise
    /// unless the bounds are equal.
    pub fn min_with(&self, other: &Bound) -> Bound {
        match (self.as_const(), other.as_const()) {
            (Some(a), Some(b)) => Bound::Const(a.min(b)),
            _ if self == other => self.clone(),
            _ => Bound::Messy,
        }
    }

    /// Pointwise maximum (same rules as [`Bound::min_with`]).
    pub fn max_with(&self, other: &Bound) -> Bound {
        match (self.as_const(), other.as_const()) {
            (Some(a), Some(b)) => Bound::Const(a.max(b)),
            _ if self == other => self.clone(),
            _ => Bound::Messy,
        }
    }
}

impl std::fmt::Display for Bound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bound::Const(c) => write!(f, "{c}"),
            Bound::Expr(e) => f.write_str(&e.render_default()),
            Bound::Messy => f.write_str("MESSY"),
            Bound::Unprojected => f.write_str("UNPROJECTED"),
        }
    }
}

/// The error of the exact triplet operations: an operand has a symbolic
/// bound or stride.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Symbolic;

/// One dimension's accessed section: `lb : ub : stride`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Triplet {
    /// Lower bound (first accessed index).
    pub lb: Bound,
    /// Upper bound (last accessed index, inclusive).
    pub ub: Bound,
    /// Step between consecutive accessed indices; always rendered positive.
    pub stride: Bound,
}

impl Triplet {
    /// A fully-constant triplet, normalized so `lb ≤ ub`, `stride ≥ 1`, and
    /// `ub` lands exactly on the last accessed element.
    pub fn constant(lb: i64, ub: i64, stride: i64) -> Self {
        let (mut lb, mut ub) = (lb, ub);
        let mut stride = stride.abs().max(1);
        if lb > ub {
            std::mem::swap(&mut lb, &mut ub);
        }
        // Snap ub down to the last element actually hit from lb.
        ub = lb + ((ub - lb) / stride) * stride;
        if lb == ub {
            stride = 1;
        }
        Triplet {
            lb: Bound::Const(lb),
            ub: Bound::Const(ub),
            stride: Bound::Const(stride),
        }
    }

    /// The degenerate single-element triplet `i:i:1`.
    pub fn point(i: i64) -> Self {
        Self::constant(i, i, 1)
    }

    /// A triplet with symbolic parts, un-normalized.
    pub fn new(lb: Bound, ub: Bound, stride: Bound) -> Self {
        Triplet { lb, ub, stride }
    }

    /// The fully-unknown triplet.
    pub fn messy() -> Self {
        Triplet { lb: Bound::Messy, ub: Bound::Messy, stride: Bound::Messy }
    }

    /// True when all three parts are compile-time constants.
    pub fn is_const(&self) -> bool {
        self.lb.is_const() && self.ub.is_const() && self.stride.is_const()
    }

    /// `(lb, ub, stride)` when constant.
    pub fn as_const(&self) -> Option<(i64, i64, i64)> {
        Some((self.lb.as_const()?, self.ub.as_const()?, self.stride.as_const()?))
    }

    /// Number of elements accessed along this dimension, when constant.
    pub fn count(&self) -> Option<u64> {
        let (lb, ub, s) = self.as_const()?;
        if s <= 0 || ub < lb {
            return None;
        }
        Some(((ub - lb) / s) as u64 + 1)
    }

    /// True when index `i` is accessed (constant triplets only: `None`
    /// otherwise).
    pub fn contains(&self, i: i64) -> Option<bool> {
        let (lb, ub, s) = self.as_const()?;
        Some(i >= lb && i <= ub && (i - lb) % s == 0)
    }

    /// Iterates all accessed indices of a constant triplet.
    pub fn iter(&self) -> Option<impl Iterator<Item = i64>> {
        let (lb, ub, s) = self.as_const()?;
        if s <= 0 {
            return None;
        }
        Some((lb..=ub).step_by(s as usize))
    }

    /// True when two constant triplets share no index. `None` when either is
    /// symbolic (unknown ⇒ must be assumed overlapping by callers).
    pub fn disjoint_from(&self, other: &Triplet) -> Option<bool> {
        let (alb, aub, astep) = self.as_const()?;
        let (blb, bub, bstep) = other.as_const()?;
        if aub < blb || bub < alb {
            return Some(true);
        }
        // Overlapping hulls: check arithmetic-progression intersection.
        // x ≡ alb (mod astep), x ≡ blb (mod bstep), max(alb,blb) ≤ x ≤ min(aub,bub)
        let g = gcd(astep, bstep);
        if (blb - alb) % g != 0 {
            return Some(true);
        }
        // Solve CRT for the smallest common element ≥ max(alb, blb).
        let (lo, hi) = (alb.max(blb), aub.min(bub));
        // Walk the sparser progression within the window (windows in this
        // tool are small; fall back is fine).
        let (base, step, olb, ostep) = if astep >= bstep {
            (alb, astep, blb, bstep)
        } else {
            (blb, bstep, alb, astep)
        };
        let mut x = if base >= lo { base } else { base + ((lo - base + step - 1) / step) * step };
        while x <= hi {
            if (x - olb) % ostep == 0 && x >= olb {
                return Some(false);
            }
            x += step;
        }
        Some(true)
    }

    /// Exact intersection of two constant triplets — the meet of two
    /// arithmetic progressions, solved with the extended Euclid / CRT
    /// construction. Returns `Ok(None)` when provably empty and
    /// `Err(Symbolic)` when either operand is symbolic.
    pub fn intersect(&self, other: &Triplet) -> Result<Option<Triplet>, Symbolic> {
        let (alb, aub, astep) = self.as_const().ok_or(Symbolic)?;
        let (blb, bub, bstep) = other.as_const().ok_or(Symbolic)?;
        let (lo, hi) = (alb.max(blb), aub.min(bub));
        if lo > hi {
            return Ok(None);
        }
        // Solve x ≡ alb (mod astep), x ≡ blb (mod bstep).
        let (g, p, _q) = ext_gcd(astep, bstep);
        if (blb - alb) % g != 0 {
            return Ok(None);
        }
        let l = lcm_i64(astep, bstep);
        // One solution: alb + astep * p * ((blb - alb) / g), then reduce
        // modulo l into the window.
        let mult = (blb - alb) / g;
        let x0 = alb as i128 + astep as i128 * p as i128 * mult as i128;
        let l128 = l as i128;
        let lo128 = lo as i128;
        // Smallest solution ≥ lo.
        let mut first = x0 + ((lo128 - x0).div_euclid(l128)) * l128;
        if first < lo128 {
            first += l128;
        }
        if first > hi as i128 {
            return Ok(None);
        }
        Ok(Some(Triplet::constant_with_stride(first as i64, hi, l)))
    }

    /// Smallest triplet containing both operands (conservative hull: bounds
    /// are min/max, stride is the gcd of both strides and the offset between
    /// the lower bounds). Symbolic inputs degrade to `Messy` parts.
    pub fn hull(&self, other: &Triplet) -> Triplet {
        match (self.as_const(), other.as_const()) {
            (Some((alb, aub, astep)), Some((blb, bub, bstep))) => {
                let lb = alb.min(blb);
                let ub = aub.max(bub);
                let mut s = gcd(astep, bstep);
                s = gcd(s, (alb - blb).abs());
                if s == 0 {
                    s = 1;
                }
                Triplet::constant(lb, ub, s)
            }
            _ => {
                if self == other {
                    self.clone()
                } else {
                    Triplet::new(
                        self.lb.min_with(&other.lb),
                        self.ub.max_with(&other.ub),
                        Bound::Messy,
                    )
                }
            }
        }
    }

    /// Renders as `lb:ub:stride`.
    pub fn render(&self, name: &dyn Fn(crate::space::VarId) -> String) -> String {
        format!(
            "{}:{}:{}",
            self.lb.render(name),
            self.ub.render(name),
            self.stride.render(name)
        )
    }
}

/// Extended Euclid: returns `(g, p, q)` with `a·p + b·q = g = gcd(a, b)`.
fn ext_gcd(a: i64, b: i64) -> (i64, i64, i64) {
    if b == 0 {
        (a, 1, 0)
    } else {
        let (g, p, q) = ext_gcd(b, a % b);
        (g, q, p - (a / b) * q)
    }
}

fn lcm_i64(a: i64, b: i64) -> i64 {
    (a / gcd(a, b)) * b
}

impl std::fmt::Display for Triplet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}:{}", self.lb, self.ub, self.stride)
    }
}

/// A multi-dimensional triplet region: the cartesian product of per-dimension
/// triplets, e.g. the paper's `(1:100:1, 1:100:1)`.
///
/// ```
/// use regions::{Triplet, TripletRegion};
///
/// // The paper's Fig. 1 regions:
/// let def = TripletRegion::new(vec![Triplet::constant(1, 100, 1); 2]);
/// let use_ = TripletRegion::new(vec![Triplet::constant(101, 200, 1); 2]);
/// assert_eq!(def.to_string(), "(1:100:1, 1:100:1)");
/// assert_eq!(def.disjoint_from(&use_), Some(true)); // ⇒ parallelizable
/// assert_eq!(def.element_count(), Some(10_000));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TripletRegion {
    /// One triplet per array dimension, in source order (dimension 0 first).
    pub dims: Vec<Triplet>,
}

impl TripletRegion {
    /// Builds from per-dimension triplets.
    pub fn new(dims: Vec<Triplet>) -> Self {
        TripletRegion { dims }
    }

    /// A fully-messy region of `n` dimensions.
    pub fn messy(n: usize) -> Self {
        TripletRegion { dims: vec![Triplet::messy(); n] }
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// Total accessed elements (product over dimensions), when constant.
    pub fn element_count(&self) -> Option<u64> {
        self.dims.iter().map(Triplet::count).try_fold(1u64, |acc, c| {
            c.map(|c| acc.saturating_mul(c))
        })
    }

    /// True when the point is accessed; `None` if any dimension is symbolic.
    pub fn contains(&self, point: &[i64]) -> Option<bool> {
        if point.len() != self.dims.len() {
            return Some(false);
        }
        let mut all = true;
        for (t, &i) in self.dims.iter().zip(point) {
            all &= t.contains(i)?;
        }
        Some(all)
    }

    /// Regions are disjoint when they are provably disjoint along *any*
    /// dimension (rectangular decomposition). `None` when unknowable.
    pub fn disjoint_from(&self, other: &TripletRegion) -> Option<bool> {
        if self.dims.len() != other.dims.len() {
            return Some(true);
        }
        let mut any_unknown = false;
        for (a, b) in self.dims.iter().zip(&other.dims) {
            match a.disjoint_from(b) {
                Some(true) => return Some(true),
                Some(false) => {}
                None => any_unknown = true,
            }
        }
        if any_unknown {
            None
        } else {
            Some(false)
        }
    }

    /// Exact per-dimension intersection of constant regions. `Ok(None)` when
    /// empty in any dimension, `Err(Symbolic)` when symbolic.
    pub fn intersect(&self, other: &TripletRegion) -> Result<Option<TripletRegion>, Symbolic> {
        if self.dims.len() != other.dims.len() {
            return Ok(None);
        }
        let mut dims = Vec::with_capacity(self.dims.len());
        for (a, b) in self.dims.iter().zip(&other.dims) {
            match a.intersect(b)? {
                Some(t) => dims.push(t),
                None => return Ok(None),
            }
        }
        Ok(Some(TripletRegion::new(dims)))
    }

    /// Per-dimension hull of both regions.
    pub fn hull(&self, other: &TripletRegion) -> TripletRegion {
        if self.dims.len() != other.dims.len() {
            // Shape mismatch (e.g. linearized vs not): give up precisely.
            return TripletRegion::messy(self.dims.len().max(other.dims.len()));
        }
        TripletRegion {
            dims: self
                .dims
                .iter()
                .zip(&other.dims)
                .map(|(a, b)| a.hull(b))
                .collect(),
        }
    }

    /// True when every dimension is constant.
    pub fn is_const(&self) -> bool {
        self.dims.iter().all(Triplet::is_const)
    }

    /// Renders like `(1:100:1, 1:100:1)`.
    pub fn render(&self, name: &dyn Fn(crate::space::VarId) -> String) -> String {
        let inner: Vec<String> = self.dims.iter().map(|t| t.render(name)).collect();
        format!("({})", inner.join(", "))
    }
}

impl std::fmt::Display for TripletRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner: Vec<String> = self.dims.iter().map(|t| t.to_string()).collect();
        write!(f, "({})", inner.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Space;
    use support::Interner;

    #[test]
    fn constant_triplet_normalizes() {
        let t = Triplet::constant(8, 1, -1);
        assert_eq!(t.as_const(), Some((1, 8, 1)));
        // ub snaps to the last hit element: 2..=6 step 2 hits 2,4,6.
        let t = Triplet::constant(2, 7, 2);
        assert_eq!(t.as_const(), Some((2, 6, 2)));
    }

    #[test]
    fn count_and_contains() {
        let t = Triplet::constant(2, 6, 2);
        assert_eq!(t.count(), Some(3));
        assert_eq!(t.contains(4), Some(true));
        assert_eq!(t.contains(5), Some(false));
        assert_eq!(t.contains(8), Some(false));
        assert_eq!(t.iter().unwrap().collect::<Vec<_>>(), vec![2, 4, 6]);
    }

    #[test]
    fn point_triplet() {
        let p = Triplet::point(5);
        assert_eq!(p.count(), Some(1));
        assert_eq!(p.contains(5), Some(true));
    }

    #[test]
    fn disjoint_separated_hulls() {
        // Fig. 1: (1:100) vs (101:200) are disjoint.
        let a = Triplet::constant(1, 100, 1);
        let b = Triplet::constant(101, 200, 1);
        assert_eq!(a.disjoint_from(&b), Some(true));
    }

    #[test]
    fn disjoint_interleaved_strides() {
        let evens = Triplet::constant(0, 10, 2);
        let odds = Triplet::constant(1, 11, 2);
        assert_eq!(evens.disjoint_from(&odds), Some(true));
        let all = Triplet::constant(0, 10, 1);
        assert_eq!(evens.disjoint_from(&all), Some(false));
    }

    #[test]
    fn disjoint_same_stride_different_phase_overlapping_window() {
        let a = Triplet::constant(0, 12, 3); // 0 3 6 9 12
        let b = Triplet::constant(1, 13, 3); // 1 4 7 10 13
        assert_eq!(a.disjoint_from(&b), Some(true));
        let c = Triplet::constant(3, 9, 3);
        assert_eq!(a.disjoint_from(&c), Some(false));
    }

    #[test]
    fn symbolic_disjointness_is_unknown() {
        let a = Triplet::messy();
        let b = Triplet::constant(1, 5, 1);
        assert_eq!(a.disjoint_from(&b), None);
    }

    #[test]
    fn hull_merges_bounds_and_strides() {
        let a = Triplet::constant(0, 7, 1);
        let b = Triplet::constant(1, 8, 1);
        assert_eq!(a.hull(&b).as_const(), Some((0, 8, 1)));
        // gcd of strides and phase offset.
        let a = Triplet::constant(0, 12, 4);
        let b = Triplet::constant(2, 14, 4);
        assert_eq!(a.hull(&b).as_const(), Some((0, 14, 2)));
    }

    #[test]
    fn region_element_count_and_contains() {
        let r = TripletRegion::new(vec![
            Triplet::constant(1, 3, 1),
            Triplet::constant(1, 5, 1),
        ]);
        assert_eq!(r.element_count(), Some(15));
        assert_eq!(r.contains(&[2, 4]), Some(true));
        assert_eq!(r.contains(&[4, 4]), Some(false));
        assert_eq!(r.contains(&[2]), Some(false));
    }

    #[test]
    fn region_disjointness_needs_only_one_dimension() {
        // Fig. 1: (1:100,1:100) vs (101:200,101:200).
        let a = TripletRegion::new(vec![
            Triplet::constant(1, 100, 1),
            Triplet::constant(1, 100, 1),
        ]);
        let b = TripletRegion::new(vec![
            Triplet::constant(101, 200, 1),
            Triplet::constant(101, 200, 1),
        ]);
        assert_eq!(a.disjoint_from(&b), Some(true));
        // Overlap in both dims ⇒ not disjoint.
        let c = TripletRegion::new(vec![
            Triplet::constant(50, 150, 1),
            Triplet::constant(50, 150, 1),
        ]);
        assert_eq!(a.disjoint_from(&c), Some(false));
    }

    #[test]
    fn region_hull() {
        let a = TripletRegion::new(vec![Triplet::constant(0, 7, 1)]);
        let b = TripletRegion::new(vec![Triplet::constant(2, 6, 2)]);
        let h = a.hull(&b);
        assert_eq!(h.dims[0].as_const(), Some((0, 7, 1)));
    }

    #[test]
    fn display_matches_paper_notation() {
        let r = TripletRegion::new(vec![
            Triplet::constant(1, 100, 1),
            Triplet::constant(1, 100, 1),
        ]);
        assert_eq!(r.to_string(), "(1:100:1, 1:100:1)");
    }

    #[test]
    fn intersect_same_stride_progressions() {
        let a = Triplet::constant(0, 20, 4); // 0 4 8 12 16 20
        let b = Triplet::constant(8, 28, 4); // 8 12 ... 28
        let i = a.intersect(&b).unwrap().unwrap();
        assert_eq!(i.as_const(), Some((8, 20, 4)));
    }

    #[test]
    fn intersect_coprime_strides_via_crt() {
        let a = Triplet::constant(0, 30, 3); // multiples of 3
        let b = Triplet::constant(1, 31, 5); // 1 mod 5
        // x ≡ 0 (mod 3), x ≡ 1 (mod 5) ⇒ x ≡ 6 (mod 15); window [1, 30].
        let i = a.intersect(&b).unwrap().unwrap();
        assert_eq!(i.as_const(), Some((6, 21, 15)));
    }

    #[test]
    fn intersect_incompatible_phases_is_empty() {
        let evens = Triplet::constant(0, 100, 2);
        let odds = Triplet::constant(1, 99, 2);
        assert_eq!(evens.intersect(&odds).unwrap(), None);
    }

    #[test]
    fn intersect_disjoint_windows_is_empty() {
        let a = Triplet::constant(0, 10, 1);
        let b = Triplet::constant(20, 30, 1);
        assert_eq!(a.intersect(&b).unwrap(), None);
    }

    #[test]
    fn intersect_symbolic_is_err() {
        let a = Triplet::messy();
        let b = Triplet::constant(0, 10, 1);
        assert!(a.intersect(&b).is_err());
    }

    #[test]
    fn intersect_agrees_with_disjointness() {
        let a = Triplet::constant(0, 12, 3);
        let b = Triplet::constant(1, 13, 3);
        assert_eq!(a.disjoint_from(&b), Some(true));
        assert_eq!(a.intersect(&b).unwrap(), None);
    }

    #[test]
    fn region_intersection_per_dimension() {
        let a = TripletRegion::new(vec![
            Triplet::constant(0, 10, 1),
            Triplet::constant(0, 10, 2),
        ]);
        let b = TripletRegion::new(vec![
            Triplet::constant(5, 15, 1),
            Triplet::constant(0, 10, 1),
        ]);
        let i = a.intersect(&b).unwrap().unwrap();
        assert_eq!(i.to_string(), "(5:10:1, 0:10:2)");
        // Empty in one dimension ⇒ empty overall.
        let c = TripletRegion::new(vec![
            Triplet::constant(20, 30, 1),
            Triplet::constant(0, 10, 1),
        ]);
        assert_eq!(a.intersect(&c).unwrap(), None);
    }

    #[test]
    fn bound_classification() {
        let mut it = Interner::new();
        let mut space = Space::with_dims(2);
        let i = space.add_loop(it.intern("i"));
        let m = space.add_sym(it.intern("m"));

        assert_eq!(Bound::Const(3).classify(&space), BoundClass::Const);
        assert_eq!(
            Bound::Expr(LinExpr::var(m)).classify(&space),
            BoundClass::IVar
        );
        assert_eq!(
            Bound::Expr(LinExpr::var(i).add(&LinExpr::var(m))).classify(&space),
            BoundClass::LIndex
        );
        assert_eq!(
            Bound::Expr(LinExpr::var(space.dim_var(0).unwrap())).classify(&space),
            BoundClass::Subscr
        );
        assert_eq!(Bound::Messy.classify(&space), BoundClass::Messy);
        assert_eq!(Bound::Unprojected.classify(&space), BoundClass::Unprojected);
        assert_eq!(
            Bound::Expr(LinExpr::constant(4)).classify(&space),
            BoundClass::Const
        );
    }

    #[test]
    fn bound_class_display() {
        assert_eq!(BoundClass::LIndex.to_string(), "LINDEX");
        assert_eq!(BoundClass::Unprojected.to_string(), "UNPROJECTED");
    }

    #[test]
    fn messy_region_stays_messy() {
        let m = TripletRegion::messy(2);
        assert!(!m.is_const());
        assert_eq!(m.element_count(), None);
    }
}
