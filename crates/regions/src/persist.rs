//! Persistence codec ([`Persist`]) implementations for region types.
//!
//! The session cache (see `core::session`) stores per-procedure summaries
//! on disk; those summaries bottom out in the types here. Encodings are
//! exact round-trips: a reloaded region compares `==` to the one that was
//! saved, which the byte-identical warm-vs-cold tests depend on.
//!
//! Decoding is total on hostile input — every malformed byte stream comes
//! back as [`support::Error::Format`], never a panic — because corrupt
//! cache files reach these decoders after container-level checksums only
//! in fault-injection scenarios that deliberately bypass them.

use crate::constraint::{Constraint, ConstraintSystem, Rel};
use crate::convex::ConvexRegion;
use crate::linexpr::LinExpr;
use crate::space::{Space, VarId, VarKind};
use crate::triplet::{Bound, Triplet, TripletRegion};
use crate::access::{AccessMode, Precision};
use support::error::{Error, Result};
use support::intern::Symbol;
use support::persist::{ByteReader, ByteWriter, Persist};

impl Persist for AccessMode {
    fn save(&self, w: &mut ByteWriter) {
        w.str(self.as_str());
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self> {
        let s = r.str_ref()?;
        AccessMode::parse(s).ok_or_else(|| Error::Format(format!("unknown access mode `{s}`")))
    }
}

impl Persist for Precision {
    fn save(&self, w: &mut ByteWriter) {
        w.str(self.as_str());
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self> {
        let s = r.str_ref()?;
        Precision::parse(s).ok_or_else(|| Error::Format(format!("unknown precision `{s}`")))
    }
}

impl Persist for VarId {
    fn save(&self, w: &mut ByteWriter) {
        w.u32(self.0);
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(VarId(r.u32()?))
    }
}

impl Persist for VarKind {
    fn save(&self, w: &mut ByteWriter) {
        match self {
            VarKind::Dim(d) => {
                w.u8(0);
                w.u8(*d);
            }
            VarKind::Loop(s) => {
                w.u8(1);
                w.usize(s.index());
            }
            VarKind::Sym(s) => {
                w.u8(2);
                w.usize(s.index());
            }
        }
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self> {
        match r.u8()? {
            0 => Ok(VarKind::Dim(r.u8()?)),
            1 => Ok(VarKind::Loop(Symbol::from_index(r.usize()?)?)),
            2 => Ok(VarKind::Sym(Symbol::from_index(r.usize()?)?)),
            t => Err(Error::Format(format!("invalid VarKind tag {t}"))),
        }
    }
}

impl Persist for Space {
    fn save(&self, w: &mut ByteWriter) {
        w.usize(self.len());
        for (_, kind) in self.iter() {
            kind.save(w);
        }
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self> {
        let len = r.usize()?;
        let mut space = Space::new();
        for _ in 0..len {
            space.add(VarKind::load(r)?);
        }
        Ok(space)
    }
}

impl Persist for LinExpr {
    fn save(&self, w: &mut ByteWriter) {
        w.i64(self.constant_term());
        w.usize(self.terms().len());
        for (v, c) in self.terms() {
            v.save(w);
            w.i64(c);
        }
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self> {
        let mut e = LinExpr::constant(r.i64()?);
        let n = r.usize()?;
        for _ in 0..n {
            let v = VarId::load(r)?;
            let c = r.i64()?;
            e.add_term(v, c);
        }
        Ok(e)
    }
}

impl Persist for Rel {
    fn save(&self, w: &mut ByteWriter) {
        w.u8(match self {
            Rel::Ge => 0,
            Rel::Eq => 1,
        });
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self> {
        match r.u8()? {
            0 => Ok(Rel::Ge),
            1 => Ok(Rel::Eq),
            t => Err(Error::Format(format!("invalid Rel tag {t}"))),
        }
    }
}

impl Persist for Constraint {
    fn save(&self, w: &mut ByteWriter) {
        self.expr.save(w);
        self.rel.save(w);
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(Constraint { expr: LinExpr::load(r)?, rel: Rel::load(r)? })
    }
}

impl Persist for ConstraintSystem {
    fn save(&self, w: &mut ByteWriter) {
        w.usize(self.constraints().len());
        for c in self.constraints() {
            c.save(w);
        }
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self> {
        // `push` dedups and drops trivially-true constraints; a system that
        // was built through `push` (every saved one was) round-trips exactly.
        let n = r.usize()?;
        let mut sys = ConstraintSystem::new();
        for _ in 0..n {
            sys.push(Constraint::load(r)?);
        }
        Ok(sys)
    }
}

impl Persist for ConvexRegion {
    fn save(&self, w: &mut ByteWriter) {
        self.space().save(w);
        self.system().save(w);
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self> {
        let space = Space::load(r)?;
        let system = ConstraintSystem::load(r)?;
        Ok(ConvexRegion::new(space, system))
    }
}

impl Persist for Bound {
    fn save(&self, w: &mut ByteWriter) {
        match self {
            Bound::Const(c) => {
                w.u8(0);
                w.i64(*c);
            }
            Bound::Expr(e) => {
                w.u8(1);
                e.save(w);
            }
            Bound::Messy => w.u8(2),
            Bound::Unprojected => w.u8(3),
        }
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self> {
        match r.u8()? {
            0 => Ok(Bound::Const(r.i64()?)),
            1 => Ok(Bound::Expr(LinExpr::load(r)?)),
            2 => Ok(Bound::Messy),
            3 => Ok(Bound::Unprojected),
            t => Err(Error::Format(format!("invalid Bound tag {t}"))),
        }
    }
}

impl Persist for Triplet {
    fn save(&self, w: &mut ByteWriter) {
        self.lb.save(w);
        self.ub.save(w);
        self.stride.save(w);
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(Triplet { lb: Bound::load(r)?, ub: Bound::load(r)?, stride: Bound::load(r)? })
    }
}

impl Persist for TripletRegion {
    fn save(&self, w: &mut ByteWriter) {
        self.dims.save(w);
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(TripletRegion { dims: Vec::load(r)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Persist + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = ByteWriter::new();
        v.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = T::load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(&back, v);
    }

    #[test]
    fn region_types_round_trip() {
        let mut space = Space::with_dims(2);
        let i = space.add(VarKind::Loop(Symbol::from_index(3).unwrap()));
        let m = space.add(VarKind::Sym(Symbol::from_index(9).unwrap()));
        round_trip(&space);

        let e = LinExpr::term(i, 2).add(&LinExpr::term(m, -1)).add(&LinExpr::constant(7));
        round_trip(&e);

        let mut sys = ConstraintSystem::new();
        sys.push(Constraint::ge0(e.clone()));
        sys.push(Constraint::eq0(LinExpr::var(i).sub(&LinExpr::constant(1))));
        round_trip(&sys);

        round_trip(&ConvexRegion::new(space, sys));

        let region = TripletRegion {
            dims: vec![
                Triplet { lb: Bound::Const(1), ub: Bound::Expr(e), stride: Bound::Const(2) },
                Triplet { lb: Bound::Messy, ub: Bound::Unprojected, stride: Bound::Const(1) },
            ],
        };
        round_trip(&region);

        for mode in [AccessMode::Use, AccessMode::Def, AccessMode::Formal, AccessMode::Passed] {
            round_trip(&mode);
        }
    }

    #[test]
    fn truncated_region_bytes_error_cleanly() {
        let region = TripletRegion {
            dims: vec![Triplet {
                lb: Bound::Const(1),
                ub: Bound::Const(8),
                stride: Bound::Const(1),
            }],
        };
        let mut w = ByteWriter::new();
        region.save(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(
                TripletRegion::load(&mut r).is_err() || r.finish().is_err() || cut == bytes.len()
            );
        }
    }

    #[test]
    fn bad_tags_are_format_errors() {
        let mut w = ByteWriter::new();
        w.u8(9);
        let bytes = w.into_bytes();
        assert!(Bound::load(&mut ByteReader::new(&bytes)).is_err());
        assert!(Rel::load(&mut ByteReader::new(&bytes)).is_err());
        assert!(VarKind::load(&mut ByteReader::new(&bytes)).is_err());
    }
}
