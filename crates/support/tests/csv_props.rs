//! Property tests for the CSV layer: arbitrary field content must survive a
//! write→parse round trip (the `.rgn` files depend on it).

use proptest::prelude::*;
use support::csv::{parse, CsvWriter};

/// The quoting rule one char at a time: the reference the run-based writer
/// must match byte for byte.
fn reference_row(fields: &[String]) -> String {
    let mut out = String::new();
    for (i, field) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if field.contains([',', '"', '\n', '\r']) {
            out.push('"');
            for ch in field.chars() {
                if ch == '"' {
                    out.push('"');
                }
                out.push(ch);
            }
            out.push('"');
        } else {
            out.push_str(field);
        }
    }
    out.push('\n');
    out
}

proptest! {
    #[test]
    fn round_trip_arbitrary_fields(rows in proptest::collection::vec(
        proptest::collection::vec("[ -~\\n\"]*", 1..6), 1..8)
    ) {
        let mut w = CsvWriter::new();
        for row in &rows {
            w.write_row(row.iter().map(String::as_str));
        }
        let doc = w.finish();
        let parsed = parse(&doc).unwrap();
        prop_assert_eq!(parsed, rows);
    }

    #[test]
    fn writer_matches_per_char_reference(rows in proptest::collection::vec(
        proptest::collection::vec("[a-z,\"\n\r|@é中🚀]*", 0..6), 1..8)
    ) {
        let mut w = CsvWriter::new();
        for row in &rows {
            w.write_row(row.iter().map(String::as_str));
        }
        let expected: String = rows.iter().map(|r| reference_row(r)).collect();
        prop_assert_eq!(w.finish(), expected);
    }

    #[test]
    fn parse_never_panics(doc in "\\PC*") {
        let _ = parse(&doc);
    }

    #[test]
    fn unicode_fields_round_trip(rows in proptest::collection::vec(
        proptest::collection::vec("\\PC*", 1..4), 1..4)
    ) {
        let mut w = CsvWriter::new();
        for row in &rows {
            w.write_row(row.iter().map(String::as_str));
        }
        let parsed = parse(w.as_str()).unwrap();
        prop_assert_eq!(parsed, rows);
    }
}
