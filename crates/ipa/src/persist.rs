//! Persistence codec implementations for interprocedural summaries.
//!
//! Together with `regions::persist` these let the session cache write
//! [`ProcSummary`] values to disk and reload them exactly — the
//! byte-identical warm-vs-cold guarantee rides on these round-trips being
//! lossless. Decoders return typed errors on any malformed input; they
//! never panic.

use crate::index_facts::IndexArrayFact;
use crate::local::{AccessRecord, IndirectIndex, ProcSummary};
use support::error::Result;
use support::persist::{ByteReader, ByteWriter, Persist};
use whirl::{ProcId, StIdx};

impl Persist for IndirectIndex {
    fn save(&self, w: &mut ByteWriter) {
        w.u32(self.index_array.0);
        self.domain.save(w);
        w.i64(self.offset);
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(IndirectIndex {
            index_array: StIdx(r.u32()?),
            domain: Persist::load(r)?,
            offset: r.i64()?,
        })
    }
}

impl Persist for IndexArrayFact {
    fn save(&self, w: &mut ByteWriter) {
        w.bool(self.constant_after_init);
        w.bool(self.monotone_nondecreasing);
        w.bool(self.injective);
        self.value_range.save(w);
        self.init_region.save(w);
        w.u32(self.init_end_pos);
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(IndexArrayFact {
            constant_after_init: r.bool()?,
            monotone_nondecreasing: r.bool()?,
            injective: r.bool()?,
            value_range: Option::<(i64, i64)>::load(r)?,
            init_region: Persist::load(r)?,
            init_end_pos: r.u32()?,
        })
    }
}

impl Persist for AccessRecord {
    fn save(&self, w: &mut ByteWriter) {
        w.u32(self.array.0);
        self.mode.save(w);
        self.region.save(w);
        self.convex.save(w);
        self.space.save(w);
        w.u32(self.line);
        self.from_call.as_ref().map(|p| p.0).save(w);
        w.bool(self.remote);
        w.bool(self.approx);
        self.precision.save(w);
        self.via_index.save(w);
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(AccessRecord {
            array: StIdx(r.u32()?),
            mode: Persist::load(r)?,
            region: Persist::load(r)?,
            convex: Persist::load(r)?,
            space: Persist::load(r)?,
            line: r.u32()?,
            from_call: Option::<u32>::load(r)?.map(ProcId),
            remote: r.bool()?,
            approx: r.bool()?,
            precision: Persist::load(r)?,
            via_index: Persist::load(r)?,
        })
    }
}

impl Persist for ProcSummary {
    fn save(&self, w: &mut ByteWriter) {
        self.accesses.save(w);
        // BTreeMap iteration is sorted: the encoding is deterministic.
        let facts: Vec<(u32, &IndexArrayFact)> =
            self.index_facts.iter().map(|(st, f)| (st.0, f)).collect();
        w.u32(facts.len() as u32);
        for (st, f) in facts {
            w.u32(st);
            f.save(w);
        }
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self> {
        let accesses = Vec::load(r)?;
        let n = r.u32()?;
        let mut index_facts = std::collections::BTreeMap::new();
        for _ in 0..n {
            let st = StIdx(r.u32()?);
            index_facts.insert(st, IndexArrayFact::load(r)?);
        }
        Ok(ProcSummary::new(accesses, index_facts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regions::access::{AccessMode, Precision};
    use regions::space::Space;
    use regions::triplet::{Bound, Triplet, TripletRegion};

    fn record(line: u32) -> AccessRecord {
        AccessRecord {
            array: StIdx(4),
            mode: AccessMode::Def,
            region: TripletRegion {
                dims: vec![Triplet {
                    lb: Bound::Const(1),
                    ub: Bound::Const(line as i64),
                    stride: Bound::Const(1),
                }],
            },
            convex: None,
            space: Space::with_dims(1),
            line,
            from_call: Some(ProcId(2)),
            remote: false,
            approx: line % 2 == 0,
            precision: if line % 2 == 0 { Precision::Interval } else { Precision::Exact },
            via_index: (line % 2 == 0).then(|| IndirectIndex {
                index_array: StIdx(9),
                domain: TripletRegion::new(vec![Triplet::constant(0, 9, 1)]),
                offset: -1,
            }),
        }
    }

    fn summary() -> ProcSummary {
        let mut index_facts = std::collections::BTreeMap::new();
        index_facts.insert(
            StIdx(9),
            IndexArrayFact {
                constant_after_init: true,
                monotone_nondecreasing: false,
                injective: true,
                value_range: Some((1, 10)),
                init_region: Some(TripletRegion::new(vec![Triplet::constant(0, 9, 1)])),
                init_end_pos: 42,
            },
        );
        ProcSummary::new(vec![record(10), record(11)], index_facts)
    }

    #[test]
    fn proc_summary_round_trips() {
        let s = summary();
        let mut w = ByteWriter::new();
        s.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = ProcSummary::load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.accesses.len(), 2);
        assert_eq!(back.accesses[0].array, StIdx(4));
        assert_eq!(back.accesses[0].mode, AccessMode::Def);
        assert_eq!(back.accesses[0].region, s.accesses[0].region);
        assert_eq!(back.accesses[1].from_call, Some(ProcId(2)));
        assert!(back.accesses[0].approx);
        assert_eq!(back.accesses[0].precision, Precision::Interval);
        assert_eq!(back.accesses[0].via_index, s.accesses[0].via_index);
        assert_eq!(back.accesses[1].precision, Precision::Exact);
        assert_eq!(back.accesses[1].via_index, None);
        assert_eq!(back.index_facts, s.index_facts);
    }

    #[test]
    fn truncation_never_panics() {
        let s = summary();
        let mut w = ByteWriter::new();
        s.save(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(ProcSummary::load(&mut r).is_err());
        }
    }
}
