//! `.rgn` rows: the tabular unit of the paper's tool.
//!
//! "We output these information to a comma separated plain file .rgn, where
//! each row maintains information about each region per access mode." One
//! [`RgnRow`] holds every column the Dragon array-analysis graph displays
//! (Tables II/III, Figs. 9/12/14): array, file, mode, references,
//! dimensions, LB/UB/Stride (source bounds, `|`-joined across dimensions),
//! element size, data type, dim sizes, total size, allocated bytes, memory
//! location (hex) and access density.

use regions::access::{AccessMode, Precision};
use support::csv::CsvWriter;
use support::Error;

/// One row of the array analysis graph. The default row is empty: the
/// incremental session leaves one where it moved a row out.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RgnRow {
    /// Scope: the procedure display name this row belongs to.
    pub proc: String,
    /// Array name.
    pub array: String,
    /// Object file ("the source file where this array has been accessed",
    /// shown as `verify.o`).
    pub file: String,
    /// Access mode (`USE`/`DEF`/`FORMAL`/`PASSED`).
    pub mode: AccessMode,
    /// "The number of region accesses for the selected array based on the
    /// access mode."
    pub refs: u64,
    /// Number of dimensions.
    pub dims: u8,
    /// Lower bounds per source dimension, `|`-joined.
    pub lb: String,
    /// Upper bounds per source dimension, `|`-joined.
    pub ub: String,
    /// Strides per source dimension, `|`-joined.
    pub stride: String,
    /// Element size in bytes (negative ⇒ non-contiguous F90 array).
    pub elem_size: i64,
    /// Data type display name (`int`, `double`, ...).
    pub data_type: String,
    /// Declared extent of each source dimension, `|`-joined (`64|65|65|5`).
    pub dim_size: String,
    /// Total number of elements (0 for variable-length arrays).
    pub tot_size: i64,
    /// Allocated bytes.
    pub size_bytes: i64,
    /// Static address in hex (no `0x` prefix, like the paper's `b79edfa0`).
    pub mem_loc: String,
    /// Access density: `⌊100·refs / size_bytes⌋` (the percentage the paper
    /// reports: 2 and 3 for `aarr`, 10 for `xcr` USE, 900 for `class`, 0
    /// for `u`).
    pub acc_density: i64,
    /// For interprocedurally-propagated rows: the callee whose side effect
    /// this is (rendered as `IDEF`/`IUSE` by Dragon, per Fig. 1).
    pub via: Option<String>,
    /// Source line of the (first) reference.
    pub line: u32,
    /// Smallest source line among the references folded into this row — the
    /// anchor lint findings and `dragon browse` jump to.
    pub first_line: u32,
    /// Largest source line among the references folded into this row.
    pub last_line: u32,
    /// True when the array is a global (the `@` scope in Dragon).
    pub is_global: bool,
    /// True for coindexed (remote, PGAS) accesses — the CAF extension.
    pub remote: bool,
    /// How trustworthy the bounds columns are: `exact`, `affine-approx`,
    /// `interval` (recovered by the abstract-interpretation fallback) or
    /// `unbounded`.
    pub precision: Precision,
}

impl RgnRow {
    /// Computes the access-density column. Validated against every density
    /// the paper prints: `aarr` 2 (DEF) / 3 (USE), `xcr` 10 (USE) / 2
    /// (FORMAL), `class` 900, `u` 0.
    pub fn density(refs: u64, size_bytes: i64) -> i64 {
        if size_bytes <= 0 {
            return 0;
        }
        (refs as i64 * 100) / size_bytes
    }

    /// The mode string Dragon displays: propagated rows render as
    /// `IDEF`/`IUSE` (Fig. 1's interprocedural annotations).
    pub fn display_mode(&self) -> String {
        match (&self.via, self.mode) {
            (Some(_), AccessMode::Def) => "IDEF".to_string(),
            (Some(_), AccessMode::Use) => "IUSE".to_string(),
            (_, m) => m.as_str().to_string(),
        }
    }

    /// The CSV header of a version-3 `.rgn` file.
    pub const HEADER: [&'static str; 22] = [
        "proc", "array", "file", "mode", "refs", "dims", "lb", "ub", "stride",
        "elem_size", "data_type", "dim_size", "tot_size", "size_bytes", "mem_loc",
        "acc_density", "via", "line", "first_line", "last_line", "remote",
        "precision",
    ];

    /// Serializes to one CSV row. The `is_global` flag rides on the proc
    /// column as an `@` prefix — the same symbol Dragon uses for the global
    /// scope ("The @ symbol at the top of this column indicates global
    /// arrays").
    pub fn write_csv(&self, w: &mut CsvWriter) {
        w.prefixed_field(if self.is_global { "@" } else { "" }, &self.proc);
        w.field(&self.array);
        w.field(&self.file);
        w.field(self.mode.as_str());
        w.uint_field(self.refs);
        w.uint_field(u64::from(self.dims));
        w.field(&self.lb);
        w.field(&self.ub);
        w.field(&self.stride);
        w.int_field(self.elem_size);
        w.field(&self.data_type);
        w.field(&self.dim_size);
        w.int_field(self.tot_size);
        w.int_field(self.size_bytes);
        w.field(&self.mem_loc);
        w.int_field(self.acc_density);
        w.field(self.via.as_deref().unwrap_or(""));
        w.uint_field(u64::from(self.line));
        w.uint_field(u64::from(self.first_line));
        w.uint_field(u64::from(self.last_line));
        w.field(if self.remote { "1" } else { "0" });
        w.field(self.precision.as_str());
        w.end_row();
    }

    /// The bytes [`write_csv`](Self::write_csv) writes for this row when no
    /// field needs quoting; a quoted field adds its quotes to that.
    pub(crate) fn csv_len(&self) -> usize {
        let uint = |n: u64| n.checked_ilog10().map_or(1, |d| d as usize + 1);
        let int = |n: i64| uint(n.unsigned_abs()) + usize::from(n < 0);
        let text = [
            &self.proc, &self.array, &self.file, self.mode.as_str(), &self.lb, &self.ub,
            &self.stride, &self.data_type, &self.dim_size, &self.mem_loc,
            self.via.as_deref().unwrap_or(""), "0" /* remote */, self.precision.as_str(),
        ];
        let uints = [
            self.refs, u64::from(self.dims), u64::from(self.line),
            u64::from(self.first_line), u64::from(self.last_line),
        ];
        let ints = [self.elem_size, self.tot_size, self.size_bytes, self.acc_density];
        usize::from(self.is_global)
            + text.iter().map(|s| s.len()).sum::<usize>()
            + uints.into_iter().map(uint).sum::<usize>()
            + ints.into_iter().map(int).sum::<usize>()
            + Self::HEADER.len() // 21 commas and the newline
    }

    /// Parses one CSV record (without the `is_global` flag, which the
    /// reader reconstructs from the `@`-prefixed proc convention).
    pub fn parse_csv(fields: &[String]) -> Result<RgnRow, Error> {
        let expected = Self::HEADER.len();
        if fields.len() != expected {
            return Err(Error::Format(format!(
                ".rgn row has {} fields, expected {}",
                fields.len(),
                expected
            )));
        }
        let int = |i: usize| -> Result<i64, Error> {
            fields[i]
                .parse()
                .map_err(|_| Error::Format(format!("bad integer `{}` in .rgn", fields[i])))
        };
        let (proc, is_global) = match fields[0].strip_prefix('@') {
            Some(rest) => (rest.to_string(), true),
            None => (fields[0].clone(), false),
        };
        let line = int(17)? as u32;
        Ok(RgnRow {
            proc,
            array: fields[1].clone(),
            file: fields[2].clone(),
            mode: AccessMode::parse(&fields[3])
                .ok_or_else(|| Error::Format(format!("bad mode `{}`", fields[3])))?,
            refs: int(4)? as u64,
            dims: int(5)? as u8,
            lb: fields[6].clone(),
            ub: fields[7].clone(),
            stride: fields[8].clone(),
            elem_size: int(9)?,
            data_type: fields[10].clone(),
            dim_size: fields[11].clone(),
            tot_size: int(12)?,
            size_bytes: int(13)?,
            mem_loc: fields[14].clone(),
            acc_density: int(15)?,
            via: (!fields[16].is_empty()).then(|| fields[16].clone()),
            line,
            first_line: int(18)? as u32,
            last_line: int(19)? as u32,
            is_global,
            remote: fields[20] == "1",
            precision: Precision::parse(&fields[21])
                .ok_or_else(|| Error::Format(format!("bad precision `{}`", fields[21])))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RgnRow {
        RgnRow {
            proc: "verify".into(),
            array: "xcr".into(),
            file: "verify.o".into(),
            mode: AccessMode::Use,
            refs: 4,
            dims: 1,
            lb: "1".into(),
            ub: "5".into(),
            stride: "1".into(),
            elem_size: 8,
            data_type: "double".into(),
            dim_size: "5".into(),
            tot_size: 5,
            size_bytes: 40,
            mem_loc: "b79edfa0".into(),
            acc_density: 10,
            via: None,
            line: 12,
            first_line: 12,
            last_line: 17,
            is_global: false,
            remote: false,
            precision: Precision::Exact,
        }
    }

    #[test]
    fn density_matches_every_paper_value() {
        assert_eq!(RgnRow::density(2, 80), 2); // aarr DEF
        assert_eq!(RgnRow::density(3, 80), 3); // aarr USE
        assert_eq!(RgnRow::density(4, 40), 10); // xcr USE
        assert_eq!(RgnRow::density(1, 40), 2); // xcr FORMAL
        assert_eq!(RgnRow::density(9, 1), 900); // class DEF
        assert_eq!(RgnRow::density(110, 10_816_000), 0); // u USE
        assert_eq!(RgnRow::density(5, 0), 0); // VLA rule
    }

    #[test]
    fn csv_round_trip() {
        let row = sample();
        let mut w = CsvWriter::new();
        row.write_csv(&mut w);
        let parsed = support::csv::parse(w.as_str()).unwrap();
        let back = RgnRow::parse_csv(&parsed[0]).unwrap();
        assert_eq!(back, row);
        assert_eq!((back.first_line, back.last_line), (12, 17));
    }

    #[test]
    fn pre_precision_rows_are_rejected_cleanly() {
        // A version-2 record is the version-3 record minus the trailing
        // precision column; the parser must reject it with a typed error.
        let row = sample();
        let mut w = CsvWriter::new();
        row.write_csv(&mut w);
        let mut fields = support::csv::parse(w.as_str()).unwrap().remove(0);
        fields.pop();
        let err = RgnRow::parse_csv(&fields).unwrap_err().to_string();
        assert!(err.contains("fields"), "{err}");
    }

    #[test]
    fn precision_column_round_trips_every_level() {
        for p in Precision::ALL {
            let mut row = sample();
            row.precision = p;
            let mut w = CsvWriter::new();
            row.write_csv(&mut w);
            let parsed = support::csv::parse(w.as_str()).unwrap();
            let back = RgnRow::parse_csv(&parsed[0]).unwrap();
            assert_eq!(back.precision, p);
        }
        let mut w = CsvWriter::new();
        sample().write_csv(&mut w);
        let mut fields = support::csv::parse(w.as_str()).unwrap().remove(0);
        fields[21] = "mystery".into();
        assert!(RgnRow::parse_csv(&fields).is_err());
    }

    #[test]
    fn display_mode_interprocedural() {
        let mut row = sample();
        assert_eq!(row.display_mode(), "USE");
        row.via = Some("p2".into());
        assert_eq!(row.display_mode(), "IUSE");
        row.mode = AccessMode::Def;
        assert_eq!(row.display_mode(), "IDEF");
        row.via = None;
        assert_eq!(row.display_mode(), "DEF");
    }

    #[test]
    fn parse_rejects_malformed_rows() {
        assert!(RgnRow::parse_csv(&["short".to_string()]).is_err());
        let mut w = CsvWriter::new();
        let mut row = sample();
        row.mode = AccessMode::Formal;
        row.write_csv(&mut w);
        let mut fields = support::csv::parse(w.as_str()).unwrap().remove(0);
        fields[3] = "BOGUS".into();
        assert!(RgnRow::parse_csv(&fields).is_err());
        fields[3] = "FORMAL".into();
        fields[4] = "not-a-number".into();
        assert!(RgnRow::parse_csv(&fields).is_err());
    }

    #[test]
    fn via_round_trips() {
        let mut row = sample();
        row.via = Some("p1".into());
        let mut w = CsvWriter::new();
        row.write_csv(&mut w);
        let parsed = support::csv::parse(w.as_str()).unwrap();
        let back = RgnRow::parse_csv(&parsed[0]).unwrap();
        assert_eq!(back.via.as_deref(), Some("p1"));
    }
}
