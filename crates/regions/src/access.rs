//! Access modes and per-access region summaries.
//!
//! "Access mode can be one of USE, DEF, FORMAL or PASSED. A statement S is a
//! definition of v iff S is an assignment statement with left-hand side v.
//! S is a use of v iff during execution of S, right-hand side v is read. The
//! term FORMAL parameter ... refers to the array as found in the function
//! definition (parameter), while PASSED refers to the actual value passed
//! (argument)."

use crate::convex::ConvexRegion;
use crate::triplet::TripletRegion;

/// The four access modes of the paper.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord,
)]
pub enum AccessMode {
    /// Array variable read on a right-hand side.
    #[default]
    Use,
    /// Assignment of values to array elements (left-hand side).
    Def,
    /// Array used as a formal parameter in a procedure definition.
    Formal,
    /// Array passed as an actual argument at a call site.
    Passed,
}

impl AccessMode {
    /// All modes, in the paper's enumeration order.
    pub const ALL: [AccessMode; 4] =
        [AccessMode::Use, AccessMode::Def, AccessMode::Formal, AccessMode::Passed];

    /// The `.rgn`-file spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            AccessMode::Use => "USE",
            AccessMode::Def => "DEF",
            AccessMode::Formal => "FORMAL",
            AccessMode::Passed => "PASSED",
        }
    }

    /// Parses the `.rgn`-file spelling.
    pub fn parse(s: &str) -> Option<AccessMode> {
        match s {
            "USE" => Some(AccessMode::Use),
            "DEF" => Some(AccessMode::Def),
            "FORMAL" => Some(AccessMode::Formal),
            "PASSED" => Some(AccessMode::Passed),
            _ => None,
        }
    }

    /// True for the modes that represent actual element traffic (the
    /// independence test in Fig. 1 cares about DEF/USE overlap, not about
    /// parameter-passing bookkeeping).
    pub fn moves_data(self) -> bool {
        matches!(self, AccessMode::Use | AccessMode::Def)
    }
}

impl std::fmt::Display for AccessMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How trustworthy a summarized region is — the `.rgn` `precision` column.
///
/// Ordered best-to-worst: `Exact < AffineApprox < Interval < Unbounded`,
/// so `max` combines precisions pessimistically. The lint engine keys its
/// severity discipline off this: only affine-derived regions may prove a
/// `definite` finding; `Interval` regions cap at `possible`; `Unbounded`
/// regions trip `NAF-06`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Precision {
    /// The affine machinery summarized the access without loss (constant
    /// or symbolic bounds, no widening).
    #[default]
    Exact,
    /// Affine but approximated: a translation or projection budget forced
    /// a widening, or the record degraded while crossing a call boundary.
    AffineApprox,
    /// The affine machinery bailed; the interval fallback recovered
    /// constant bounds (an over-approximation — sound for disjointness
    /// and refutation, never for proof).
    Interval,
    /// Non-affine and unrecovered: the region still has unknown bounds.
    Unbounded,
}

impl Precision {
    /// All precisions, best first.
    pub const ALL: [Precision; 4] =
        [Precision::Exact, Precision::AffineApprox, Precision::Interval, Precision::Unbounded];

    /// The `.rgn`-file spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Precision::Exact => "exact",
            Precision::AffineApprox => "affine-approx",
            Precision::Interval => "interval",
            Precision::Unbounded => "unbounded",
        }
    }

    /// Parses the `.rgn`-file spelling.
    pub fn parse(s: &str) -> Option<Precision> {
        match s {
            "exact" => Some(Precision::Exact),
            "affine-approx" => Some(Precision::AffineApprox),
            "interval" => Some(Precision::Interval),
            "unbounded" => Some(Precision::Unbounded),
            _ => None,
        }
    }

    /// Pessimistic combination: the worse of the two.
    pub fn worst(self, other: Precision) -> Precision {
        self.max(other)
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One summarized region access: the unit that becomes a `.rgn` row.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionSummary {
    /// How the region was touched.
    pub mode: AccessMode,
    /// Number of references merged into this summary.
    pub refs: u64,
    /// The displayed triplet region (exact strides, symbolic bounds allowed).
    pub triplets: TripletRegion,
    /// The convex region used for comparisons, when linearizable.
    pub convex: Option<ConvexRegion>,
}

impl RegionSummary {
    /// Builds a one-reference summary.
    pub fn new(mode: AccessMode, triplets: TripletRegion, convex: Option<ConvexRegion>) -> Self {
        RegionSummary { mode, refs: 1, triplets, convex }
    }

    /// True when this summary and `other` can never touch a common element
    /// *and conflict*: two USE regions never conflict; any pair involving a
    /// DEF conflicts unless the regions are provably disjoint. Parameter
    /// modes (FORMAL/PASSED) are bookkeeping and never conflict.
    pub fn independent_of(&self, other: &RegionSummary) -> bool {
        if !self.mode.moves_data() || !other.mode.moves_data() {
            return true;
        }
        if self.mode == AccessMode::Use && other.mode == AccessMode::Use {
            return true;
        }
        // Prefer the convex test (handles symbolic bounds); fall back to
        // constant triplets; unknown means "not provably independent".
        if let (Some(a), Some(b)) = (&self.convex, &other.convex) {
            return a.disjoint_from(b);
        }
        self.triplets.disjoint_from(&other.triplets) == Some(true)
    }

    /// Merges another summary of the *same region shape* into this one,
    /// bumping the reference count (used when the identical region is
    /// accessed repeatedly, like XCR's four USEs in `verify`).
    pub fn absorb(&mut self, other: &RegionSummary) {
        debug_assert_eq!(self.mode, other.mode);
        self.refs += other.refs;
    }

    /// True when the displayed regions are identical (same triplets).
    pub fn same_region(&self, other: &RegionSummary) -> bool {
        self.mode == other.mode && self.triplets == other.triplets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convex::box_region;
    use crate::triplet::{Triplet, TripletRegion};

    fn region(lo: i64, hi: i64) -> TripletRegion {
        TripletRegion::new(vec![Triplet::constant(lo, hi, 1)])
    }

    #[test]
    fn precision_round_trips_and_orders() {
        for p in Precision::ALL {
            assert_eq!(Precision::parse(p.as_str()), Some(p));
        }
        assert_eq!(Precision::parse("fuzzy"), None);
        assert!(Precision::Exact < Precision::AffineApprox);
        assert!(Precision::Interval < Precision::Unbounded);
        assert_eq!(Precision::Exact.worst(Precision::Interval), Precision::Interval);
        assert_eq!(Precision::Unbounded.to_string(), "unbounded");
    }

    #[test]
    fn mode_round_trips_through_strings() {
        for m in AccessMode::ALL {
            assert_eq!(AccessMode::parse(m.as_str()), Some(m));
        }
        assert_eq!(AccessMode::parse("WRITE"), None);
    }

    #[test]
    fn mode_display_matches_paper_spelling() {
        assert_eq!(AccessMode::Use.to_string(), "USE");
        assert_eq!(AccessMode::Def.to_string(), "DEF");
        assert_eq!(AccessMode::Formal.to_string(), "FORMAL");
        assert_eq!(AccessMode::Passed.to_string(), "PASSED");
    }

    #[test]
    fn use_use_pairs_are_always_independent() {
        let a = RegionSummary::new(AccessMode::Use, region(1, 10), None);
        let b = RegionSummary::new(AccessMode::Use, region(5, 15), None);
        assert!(a.independent_of(&b));
    }

    #[test]
    fn def_use_overlap_is_a_conflict() {
        let d = RegionSummary::new(AccessMode::Def, region(1, 10), None);
        let u = RegionSummary::new(AccessMode::Use, region(5, 15), None);
        assert!(!d.independent_of(&u));
    }

    #[test]
    fn def_use_disjoint_is_independent() {
        // Fig. 1: DEF (1:100) vs USE (101:200).
        let d = RegionSummary::new(
            AccessMode::Def,
            region(1, 100),
            Some(box_region(&[(1, 100)])),
        );
        let u = RegionSummary::new(
            AccessMode::Use,
            region(101, 200),
            Some(box_region(&[(101, 200)])),
        );
        assert!(d.independent_of(&u));
        assert!(u.independent_of(&d));
    }

    #[test]
    fn formal_and_passed_never_conflict() {
        let f = RegionSummary::new(AccessMode::Formal, region(1, 5), None);
        let d = RegionSummary::new(AccessMode::Def, region(1, 5), None);
        assert!(f.independent_of(&d));
        assert!(d.independent_of(&f));
    }

    #[test]
    fn absorb_accumulates_refs() {
        let mut a = RegionSummary::new(AccessMode::Use, region(1, 5), None);
        let b = RegionSummary::new(AccessMode::Use, region(1, 5), None);
        assert!(a.same_region(&b));
        a.absorb(&b);
        assert_eq!(a.refs, 2);
    }

    #[test]
    fn unknown_disjointness_is_not_independent() {
        let d = RegionSummary::new(AccessMode::Def, TripletRegion::messy(1), None);
        let u = RegionSummary::new(AccessMode::Use, region(1, 5), None);
        assert!(!d.independent_of(&u));
    }
}
