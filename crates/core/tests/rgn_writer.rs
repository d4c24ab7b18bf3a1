//! The `.rgn` writer against a reference: the row writer the format was
//! defined by, which formats each of the 22 fields as a string and hands
//! them to `CsvWriter::write_row`. Rows carry the awkward cases: commas,
//! quotes, newlines, `|`, a leading `@` and non-ASCII text in string fields,
//! negative and extreme integers.

use araa::rgn::{read_rgn, write_rgn, RGN_VERSION};
use araa::RgnRow;
use proptest::prelude::*;
use regions::access::{AccessMode, Precision};
use support::csv::CsvWriter;
use support::persist::append_text_checksum;

const TEXT: &str = "[a-z0-9,\"\n\r| .@é中🚀]*";

fn reference_row(row: &RgnRow, w: &mut CsvWriter) {
    let proc = if row.is_global { format!("@{}", row.proc) } else { row.proc.clone() };
    w.write_row([
        proc.as_str(),
        row.array.as_str(),
        row.file.as_str(),
        row.mode.as_str(),
        &row.refs.to_string(),
        &row.dims.to_string(),
        row.lb.as_str(),
        row.ub.as_str(),
        row.stride.as_str(),
        &row.elem_size.to_string(),
        row.data_type.as_str(),
        row.dim_size.as_str(),
        &row.tot_size.to_string(),
        &row.size_bytes.to_string(),
        row.mem_loc.as_str(),
        &row.acc_density.to_string(),
        row.via.as_deref().unwrap_or(""),
        &row.line.to_string(),
        &row.first_line.to_string(),
        &row.last_line.to_string(),
        if row.remote { "1" } else { "0" },
        row.precision.as_str(),
    ]);
}

fn reference_rgn(rows: &[RgnRow]) -> String {
    let mut w = CsvWriter::new();
    w.write_row(["#version", &RGN_VERSION.to_string()]);
    w.write_row(RgnRow::HEADER);
    for row in rows {
        reference_row(row, &mut w);
    }
    let mut doc = w.finish();
    append_text_checksum(&mut doc);
    doc
}

/// A string field; one in three starts with the `@` of the global scope.
fn text() -> impl Strategy<Value = String> {
    (0usize..3, TEXT).prop_map(|(lead, s)| if lead == 0 { format!("@{s}") } else { s })
}

fn int() -> impl Strategy<Value = i64> {
    (0usize..6, -100_000i64..100_000).prop_map(|(k, r)| [i64::MIN, i64::MAX, -1, 0, r, r][k])
}

fn count() -> impl Strategy<Value = u64> {
    (0usize..4, 0u64..100_000).prop_map(|(k, r)| [0, r, i64::MAX as u64, u64::MAX][k])
}

fn line() -> impl Strategy<Value = u32> {
    (0usize..3, 0u32..100_000).prop_map(|(k, r)| [0, r, u32::MAX][k])
}

fn row() -> impl Strategy<Value = RgnRow> {
    let names = (text(), text(), text(), text(), text(), text());
    let shape = (text(), text(), text(), (0usize..2, text()), 0usize..4, 0usize..4);
    let ints = (int(), int(), int(), int(), count(), 0u8..=u8::MAX);
    let lines = (line(), line(), line(), 0u8..2, 0u8..2);
    (names, shape, ints, lines).prop_map(
        |(
            (proc, array, file, lb, ub, stride),
            (data_type, dim_size, mem_loc, (has_via, via), mode, precision),
            (elem_size, tot_size, size_bytes, acc_density, refs, dims),
            (line, first_line, last_line, global, remote),
        )| RgnRow {
            proc,
            array,
            file,
            mode: AccessMode::ALL[mode],
            refs,
            dims,
            lb,
            ub,
            stride,
            elem_size,
            data_type,
            dim_size,
            tot_size,
            size_bytes,
            mem_loc,
            acc_density,
            via: (has_via == 1).then_some(via),
            line,
            first_line,
            last_line,
            is_global: global == 1,
            remote: remote == 1,
            precision: Precision::ALL[precision],
        },
    )
}

/// What `read_rgn` gives back for `row`. The format cannot tell a global
/// row from a local one whose name starts with `@`, nor an empty `via`
/// from none, and the reader parses counts as `i64`.
fn as_read_back(mut row: RgnRow) -> RgnRow {
    if !row.is_global {
        if let Some(name) = row.proc.strip_prefix('@') {
            row.proc = name.to_string();
            row.is_global = true;
        }
    }
    row.via = row.via.filter(|v| !v.is_empty());
    row
}

proptest! {
    #[test]
    fn write_rgn_matches_the_reference(rows in proptest::collection::vec(row(), 0..8)) {
        prop_assert_eq!(write_rgn(&rows), reference_rgn(&rows));
    }

    #[test]
    fn write_rgn_round_trips(rows in proptest::collection::vec(row(), 0..8)) {
        let rows: Vec<RgnRow> = rows
            .into_iter()
            .map(|mut r| {
                r.refs = r.refs.min(i64::MAX as u64);
                r
            })
            .collect();
        let back = read_rgn(&write_rgn(&rows)).unwrap();
        let expected: Vec<RgnRow> = rows.into_iter().map(as_read_back).collect();
        prop_assert_eq!(back, expected);
    }
}
