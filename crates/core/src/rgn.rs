//! `.rgn` file writing and parsing.
//!
//! The compiler side writes the comma-separated `.rgn` file; the Dragon side
//! "will later [process it] by our array analysis graph". Files start with a
//! header row so they are self-describing.

use crate::row::RgnRow;
use support::csv::{parse, CsvWriter};
use support::persist::{append_text_checksum, verify_text_checksum, TEXT_CHECKSUM_PREFIX};
use support::Error;

/// The `.rgn` format version this writer emits, recorded as a leading
/// `#version` record. Version 2 added the `first_line`/`last_line` columns;
/// version 3 added the `precision` column. Pre-3 documents are rejected
/// with a typed error (the session cache quarantines them and recomputes)
/// rather than being misread as having exact bounds.
pub const RGN_VERSION: u32 = 3;

/// Serializes rows into a `.rgn` document (version record + header + one row
/// per region per access mode), finished with a `#checksum` trailer line so
/// truncation and in-place corruption are detectable on read. The buffer is
/// sized for the whole document up front; it grows only if a field needs
/// quoting.
pub fn write_rgn(rows: &[RgnRow]) -> String {
    let version = RGN_VERSION.to_string();
    let head = "#version,\n".len()
        + version.len()
        + RgnRow::HEADER.iter().map(|h| h.len() + 1).sum::<usize>();
    let trailer = TEXT_CHECKSUM_PREFIX.len() + 17; // 16 hex digits and a newline
    let body: usize = rows.iter().map(RgnRow::csv_len).sum();
    let mut w = CsvWriter::with_capacity(head + body + trailer);
    w.write_row(["#version", &version]);
    w.write_row(RgnRow::HEADER);
    for row in rows {
        row.write_csv(&mut w);
    }
    let mut doc = w.finish();
    append_text_checksum(&mut doc);
    doc
}

/// Parses a `.rgn` document back into rows, verifying the version record,
/// the header and (when present) the `#checksum` trailer. Documents from
/// other schema versions — older files without the `precision` column as
/// well as unknown future versions — are rejected with a typed error, never
/// misread: a pre-3 row would otherwise silently parse as exact bounds.
pub fn read_rgn(doc: &str) -> Result<Vec<RgnRow>, Error> {
    let doc = verify_text_checksum(doc)?;
    let records = parse(doc)?;
    let mut it = records.into_iter().peekable();
    let version = match it.peek() {
        Some(rec) if rec.first().is_some_and(|f| f == "#version") => {
            let rec = it.next().unwrap_or_default();
            let v: u32 = rec
                .get(1)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| Error::Format("malformed .rgn #version record".into()))?;
            v
        }
        _ => 1, // legacy files predate the version record
    };
    if version > RGN_VERSION {
        return Err(Error::Format(format!(
            ".rgn version {version} is newer than supported version {RGN_VERSION}"
        )));
    }
    if version < RGN_VERSION {
        return Err(Error::Format(format!(
            ".rgn version {version} predates the `precision` column (version \
             {RGN_VERSION}); regenerate the analysis"
        )));
    }
    let header = it
        .next()
        .ok_or_else(|| Error::Format("empty .rgn file".to_string()))?;
    if header != RgnRow::HEADER {
        return Err(Error::Format(format!(
            "unexpected .rgn header: {header:?}"
        )));
    }
    let mut rows = Vec::new();
    for record in it {
        if record.iter().all(String::is_empty) {
            continue;
        }
        rows.push(RgnRow::parse_csv(&record)?);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use regions::access::{AccessMode, Precision};

    fn sample_rows() -> Vec<RgnRow> {
        vec![
            RgnRow {
                proc: "MAIN__".into(),
                array: "aarr".into(),
                file: "matrix.o".into(),
                mode: AccessMode::Def,
                refs: 2,
                dims: 1,
                lb: "0".into(),
                ub: "7".into(),
                stride: "1".into(),
                elem_size: 4,
                data_type: "int".into(),
                dim_size: "20".into(),
                tot_size: 20,
                size_bytes: 80,
                mem_loc: "55599870".into(),
                acc_density: 2,
                via: None,
                line: 5,
                first_line: 5,
                last_line: 8,
                is_global: true,
                remote: false,
                precision: Precision::Exact,
            },
            RgnRow {
                proc: "add".into(),
                array: "a".into(),
                file: "fig1.o".into(),
                mode: AccessMode::Use,
                refs: 1,
                dims: 2,
                lb: "101|101".into(),
                ub: "200|200".into(),
                stride: "1|1".into(),
                elem_size: 4,
                data_type: "int".into(),
                dim_size: "200|200".into(),
                tot_size: 40_000,
                size_bytes: 160_000,
                mem_loc: "55599900".into(),
                acc_density: 0,
                via: Some("p2".into()),
                line: 6,
                first_line: 6,
                last_line: 6,
                is_global: true,
                remote: false,
                precision: Precision::Interval,
            },
        ]
    }

    #[test]
    fn round_trip() {
        let rows = sample_rows();
        let doc = write_rgn(&rows);
        let back = read_rgn(&doc).unwrap();
        assert_eq!(back, rows);
        // Global rows carry the Dragon `@` marker in the serialized form.
        assert!(doc.contains("@MAIN__"));
        // The document is self-describing: a version record leads.
        assert!(doc.starts_with("#version,3\n"), "{doc}");
    }

    #[test]
    fn buffer_is_sized_for_the_whole_document() {
        // No field needs quoting, so the up-front size is exact.
        let doc = write_rgn(&sample_rows());
        assert_eq!(doc.capacity(), doc.len());
        let doc = write_rgn(&[]);
        assert_eq!(doc.capacity(), doc.len());
    }

    #[test]
    fn header_is_checked() {
        assert!(read_rgn("not,a,header\n1,2,3\n").is_err());
        assert!(read_rgn("").is_err());
    }

    #[test]
    fn pre_precision_versions_are_quarantined() {
        // A v1 file (no version record) and a v2 file (versioned, no
        // precision column) must both come back as typed schema errors.
        let mut w = CsvWriter::new();
        w.write_row([
            "proc", "array", "file", "mode", "refs", "dims", "lb", "ub", "stride",
            "elem_size", "data_type", "dim_size", "tot_size", "size_bytes",
            "mem_loc", "acc_density", "via", "line", "remote",
        ]);
        w.write_row([
            "@MAIN__", "aarr", "matrix.o", "DEF", "2", "1", "0", "7", "1", "4",
            "int", "20", "20", "80", "55599870", "2", "", "5", "0",
        ]);
        let err = read_rgn(&w.finish()).unwrap_err().to_string();
        assert!(err.contains("predates"), "{err}");

        let mut w = CsvWriter::new();
        w.write_row(["#version", "2"]);
        w.write_row([
            "proc", "array", "file", "mode", "refs", "dims", "lb", "ub", "stride",
            "elem_size", "data_type", "dim_size", "tot_size", "size_bytes",
            "mem_loc", "acc_density", "via", "line", "first_line", "last_line",
            "remote",
        ]);
        let err = read_rgn(&w.finish()).unwrap_err().to_string();
        assert!(err.contains("predates"), "{err}");
    }

    #[test]
    fn future_versions_are_rejected() {
        let doc = "#version,99\nanything\n";
        let err = read_rgn(doc).unwrap_err().to_string();
        assert!(err.contains("newer than supported"), "{err}");
        assert!(read_rgn("#version,abc\n").is_err());
    }

    #[test]
    fn header_only_file_is_empty() {
        let doc = write_rgn(&[]);
        assert_eq!(read_rgn(&doc).unwrap(), Vec::<RgnRow>::new());
    }
}
