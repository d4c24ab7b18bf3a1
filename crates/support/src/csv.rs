//! Minimal CSV reader/writer for the `.rgn` exchange format.
//!
//! The paper's extended IPA phase writes "a comma separated plain file
//! `.rgn`, where each row maintains information about each region per access
//! mode", later consumed by the Dragon tool. This module implements the
//! subset of RFC-4180 we need: comma separation, double-quote quoting when a
//! field contains a comma/quote/newline, and `""` escaping inside quoted
//! fields.

use crate::error::Error;

/// Writes rows of fields into an in-memory CSV document. A row is written
/// whole with [`write_row`](Self::write_row), or field by field and closed
/// with [`end_row`](Self::end_row).
#[derive(Debug, Default)]
pub struct CsvWriter {
    buf: String,
    /// The current row has a field, so the next one needs a comma first.
    in_row: bool,
}

impl CsvWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer whose buffer takes `bytes` without growing.
    pub fn with_capacity(bytes: usize) -> Self {
        CsvWriter { buf: String::with_capacity(bytes), in_row: false }
    }

    /// Appends one row, quoting fields as needed.
    pub fn write_row<I, S>(&mut self, fields: I)
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        for field in fields {
            self.field(field.as_ref());
        }
        self.end_row();
    }

    /// Appends one field to the current row, quoting it as needed.
    pub fn field(&mut self, field: &str) {
        self.prefixed_field("", field);
    }

    /// Appends `prefix` followed by `field` as one field, exactly as
    /// [`field`](Self::field) writes their concatenation.
    pub fn prefixed_field(&mut self, prefix: &str, field: &str) {
        self.separate();
        if needs_quote(prefix) || needs_quote(field) {
            self.buf.push('"');
            self.buf.push_str(&prefix.replace('"', "\"\""));
            self.buf.push_str(&field.replace('"', "\"\""));
            self.buf.push('"');
        } else {
            self.buf.push_str(prefix);
            self.buf.push_str(field);
        }
    }

    /// Appends an unsigned integer field in decimal.
    pub fn uint_field(&mut self, n: u64) {
        self.separate();
        push_decimal(&mut self.buf, n);
    }

    /// Appends a signed integer field in decimal.
    pub fn int_field(&mut self, n: i64) {
        self.separate();
        if n < 0 {
            self.buf.push('-');
        }
        push_decimal(&mut self.buf, n.unsigned_abs());
    }

    /// Ends the current row.
    pub fn end_row(&mut self) {
        self.buf.push('\n');
        self.in_row = false;
    }

    /// Consumes the writer and returns the document.
    pub fn finish(self) -> String {
        self.buf
    }

    /// Borrows the document built so far.
    pub fn as_str(&self) -> &str {
        &self.buf
    }

    /// Writes the comma before every field but a row's first.
    fn separate(&mut self) {
        if self.in_row {
            self.buf.push(',');
        }
        self.in_row = true;
    }
}

fn needs_quote(field: &str) -> bool {
    field.bytes().any(|b| matches!(b, b',' | b'"' | b'\n' | b'\r'))
}

/// Appends `n` in decimal, digits formed in a stack buffer.
fn push_decimal(buf: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for &d in &digits[start..] {
        buf.push(char::from(d));
    }
}

/// Parses a CSV document into rows of fields.
///
/// Handles quoted fields, escaped quotes, and both `\n` and `\r\n` line
/// endings. Returns an error for an unterminated quoted field.
pub fn parse(input: &str) -> Result<Vec<Vec<String>>, Error> {
    let mut rows = Vec::new();
    let mut row: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = input.chars().peekable();
    let mut in_quotes = false;
    let mut saw_any = false;

    while let Some(ch) = chars.next() {
        saw_any = true;
        if in_quotes {
            match ch {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                other => field.push(other),
            }
            continue;
        }
        match ch {
            '"' => in_quotes = true,
            ',' => {
                row.push(std::mem::take(&mut field));
            }
            '\r' => {
                // Swallow the `\n` of a CRLF pair; bare `\r` also ends a row.
                if chars.peek() == Some(&'\n') {
                    chars.next();
                }
                row.push(std::mem::take(&mut field));
                rows.push(std::mem::take(&mut row));
            }
            '\n' => {
                row.push(std::mem::take(&mut field));
                rows.push(std::mem::take(&mut row));
            }
            other => field.push(other),
        }
    }

    if in_quotes {
        return Err(Error::Format("unterminated quoted CSV field".into()));
    }
    // A final row without a trailing newline.
    if saw_any && (!field.is_empty() || !row.is_empty()) {
        row.push(field);
        rows.push(row);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_simple_rows() {
        let mut w = CsvWriter::new();
        w.write_row(["aarr", "matrix.o", "DEF", "2"]);
        w.write_row(["u", "rhs.o", "USE", "110"]);
        assert_eq!(w.finish(), "aarr,matrix.o,DEF,2\nu,rhs.o,USE,110\n");
    }

    #[test]
    fn quotes_fields_with_commas_and_quotes() {
        let mut w = CsvWriter::new();
        w.write_row(["64|65|65|5", "say \"hi\"", "a,b"]);
        assert_eq!(w.finish(), "64|65|65|5,\"say \"\"hi\"\"\",\"a,b\"\n");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let mut w = CsvWriter::new();
        w.write_row(["x", "with,comma", "with\"quote", "multi\nline"]);
        let doc = w.finish();
        let rows = parse(&doc).unwrap();
        assert_eq!(
            rows,
            vec![vec![
                "x".to_string(),
                "with,comma".to_string(),
                "with\"quote".to_string(),
                "multi\nline".to_string()
            ]]
        );
    }

    #[test]
    fn parse_handles_crlf_and_missing_final_newline() {
        let rows = parse("a,b\r\nc,d").unwrap();
        assert_eq!(rows, vec![vec!["a".to_string(), "b".to_string()], vec![
            "c".to_string(),
            "d".to_string()
        ]]);
    }

    #[test]
    fn parse_rejects_unterminated_quote() {
        assert!(parse("\"oops").is_err());
    }

    #[test]
    fn parse_empty_document_yields_no_rows() {
        assert!(parse("").unwrap().is_empty());
    }

    #[test]
    fn empty_fields_survive() {
        let mut w = CsvWriter::new();
        w.write_row(["", "x", ""]);
        let rows = parse(w.as_str()).unwrap();
        assert_eq!(rows, vec![vec!["".to_string(), "x".to_string(), "".to_string()]]);
    }
}
