//! Adversarial-input tests for `support::json`: the parser sits on the
//! serve daemon's untrusted socket boundary, so it must be *total* —
//! arbitrary input may be rejected but must never panic, recurse
//! unboundedly, or allocate past its caps.
//!
//! (Invalid UTF-8 *bytes* cannot reach `Value::parse`, which takes `&str`;
//! the serve frame reader lossy-decodes first, and the byte-level protocol
//! fuzzer in `dragon` covers that path. Here "invalid UTF-8" means what
//! survives decoding: replacement characters, lone-surrogate escapes,
//! truncated multi-byte tails.)

use proptest::prelude::*;
use support::json::{obj, ParseLimits, Value, MAX_BYTES, MAX_DEPTH};
use support::obs::json_escape;

/// Text with no byte that JSON escapes: ASCII, DEL and multi-byte chars.
/// It holds the neighbours of `"` and `\` (`!`, `#`, `[`, `]`) and chars
/// with bytes that are `"`, `\`, a neighbour or a control byte with the
/// top bit set (`¢` C2 A2, `£` C2 A3, `Ü` C3 9C, `ܜ` DC 9C), so a
/// word-at-a-time scanner that tests one bit too many or too few fails.
const PLAIN: &str = "[a-zA-Z0-9 ,.:/|@!#\\[\\]é中¢£Üܜ\u{7f}\u{a0}🚀]*";
/// Only bytes that JSON escapes: quote, backslash and control characters.
const SPECIAL: &str = "[\"\\\\\n\t\r\u{0}\u{1}\u{8}\u{c}\u{1b}\u{1f}]*";

/// A long string: plain pieces repeated many times, each followed by a
/// few special characters, so runs span many bytes and escapes and
/// multi-byte characters sit at their edges.
fn long_text() -> impl Strategy<Value = String> {
    proptest::collection::vec((PLAIN, 1usize..64, SPECIAL), 1..24).prop_map(|pieces| {
        pieces.into_iter().map(|(plain, reps, special)| plain.repeat(reps) + &special).collect()
    })
}

/// A long string with no byte that JSON escapes.
fn long_plain() -> impl Strategy<Value = String> {
    proptest::collection::vec((PLAIN, 1usize..64), 1..24)
        .prop_map(|pieces| pieces.into_iter().map(|(plain, reps)| plain.repeat(reps)).collect())
}

/// The escaping rules one char at a time: the reference the run-based
/// escaper must match byte for byte.
fn reference_escape(s: &str) -> String {
    let mut out = String::new();
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn parse_error(doc: &str) -> String {
    Value::parse(doc).expect_err("must reject").to_string()
}

proptest! {
    #[test]
    fn parse_never_panics(doc in "\\PC*") {
        let _ = Value::parse(&doc);
    }

    #[test]
    fn parse_with_tight_limits_never_panics(doc in "[\\[\\]{}\":,0-9a-z\\\\ ]*") {
        let limits = ParseLimits { max_depth: 8, max_bytes: 256 };
        let _ = Value::parse_with_limits(&doc, limits);
    }

    #[test]
    fn constructed_values_round_trip(
        keys in proptest::collection::vec("[a-z_]*", 1..6),
        nums in proptest::collection::vec(0u64..1_000_000, 1..6),
        text in "\\PC*",
    ) {
        // Build a nested value from the generated leaves: an object holding
        // a string, an array of integers, and a nested object per key.
        let arr = Value::Arr(nums.iter().copied().map(Value::int).collect());
        let mut v = obj([("text", Value::str(text.clone())), ("nums", arr)]);
        for key in &keys {
            v = Value::Obj([(key.clone(), v)].into_iter().collect());
        }
        let rendered = v.render();
        let back = Value::parse(&rendered).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn long_strings_round_trip(text in long_text(), key in long_text()) {
        let v = Value::Arr(vec![
            Value::str(text.clone()),
            Value::Obj([(key.clone(), Value::str(text.clone()))].into_iter().collect()),
        ]);
        let rendered = v.render();
        prop_assert_eq!(Value::parse(&rendered).unwrap(), v);
        prop_assert_eq!(
            rendered,
            format!(
                "[\"{t}\",{{\"{k}\":\"{t}\"}}]",
                t = reference_escape(&text),
                k = reference_escape(&key)
            )
        );
    }

    #[test]
    fn escaper_matches_per_char_reference(text in long_text()) {
        prop_assert_eq!(json_escape(&text), reference_escape(&text));
    }

    #[test]
    fn raw_control_byte_in_a_long_run_is_rejected_where_it_sits(
        head in long_plain(),
        ctrl in 0u32..0x20,
        tail in long_plain(),
    ) {
        let ctrl = char::from_u32(ctrl).unwrap();
        let doc = format!("\"{head}{ctrl}{tail}\"");
        prop_assert_eq!(
            parse_error(&doc),
            format!("format error: json: raw control character in string at byte {}", 1 + head.len())
        );
        let doc = format!("{{\"k\":[\"{head}\",\"{head}{ctrl}{tail}\"]}}");
        prop_assert_eq!(
            parse_error(&doc),
            format!(
                "format error: json: raw control character in string at byte {}",
                10 + 2 * head.len()
            )
        );
    }

    #[test]
    fn long_run_errors_keep_their_offsets(head in long_plain()) {
        let at = |msg: &str, pos: usize| format!("format error: json: {msg} at byte {pos}");
        let n = head.len();
        prop_assert_eq!(parse_error(&format!("\"{head}")), at("unterminated string", 1 + n));
        prop_assert_eq!(parse_error(&format!("\"{head}\\")), at("unterminated escape", 2 + n));
        prop_assert_eq!(parse_error(&format!("\"{head}\\q\"")), at("invalid escape", 3 + n));
        prop_assert_eq!(
            parse_error(&format!("\"{head}\\u12x4\"")),
            at("invalid hex digit in \\u escape", 5 + n)
        );
        prop_assert_eq!(
            parse_error(&format!("\"{head}\\ud83d{head}\"")),
            at("lone high surrogate", 7 + n)
        );
        prop_assert_eq!(parse_error(&format!("\"{head}\"x")), at("trailing characters after JSON value", 2 + n));
    }

    #[test]
    fn numbers_round_trip_or_reject(
        mantissa in 0u64..u64::MAX,
        digit_reps in 1usize..80,
        exp in 0u32..6000,
        neg in proptest::collection::vec(0u64..2, 2..3),
    ) {
        // Huge numbers (hundreds of digits, 4-digit exponents) must parse
        // to an f64 or reject — never panic, never hang.
        let sign = if neg[0] == 1 { "-" } else { "" };
        let esign = if neg[1] == 1 { "-" } else { "+" };
        let digits = mantissa.to_string().repeat(digit_reps);
        let num = format!("{sign}{digits}e{esign}{exp}");
        if let Ok(v) = Value::parse(&num) {
            let rendered = v.render();
            prop_assert!(Value::parse(&rendered).is_ok(), "render must reparse: {}", rendered);
        }
    }
}

/// Plain text of exactly `len` bytes, cycling through ASCII and
/// multi-byte chars so that chars straddle the scanner's 8-byte words.
fn plain_of_len(len: usize) -> String {
    let mut out = String::new();
    for c in "ab£Ü中!#[]🚀ܜ¢".chars().cycle() {
        if out.len() + c.len_utf8() > len {
            break;
        }
        out.push(c);
    }
    while out.len() < len {
        out.push('z');
    }
    out
}

/// Every byte JSON escapes and every byte next to one (space, `!`, `#`,
/// `[`, `]`), at every offset 0..=16 and again after a plain run of
/// 1..=24 bytes, with and without plain text after it: the escaper
/// matches the per-char reference and the parser reads the escaped text
/// back, wherever the byte falls in the scanner's 8-byte words. The
/// escaper is checked on every text first: a scanner that flags a plain
/// byte fails there, where the parser would never get past that byte.
#[test]
fn each_special_and_neighbour_byte_at_each_offset_round_trips() {
    let probes = (0u8..0x20).chain([b' ', b'!', b'"', b'#', b'[', b'\\', b']']);
    let mut texts = Vec::new();
    for probe in probes.map(char::from) {
        for offset in 0..=16 {
            for run in 1..=24 {
                let head = format!("{}{probe}{}{probe}", plain_of_len(offset), plain_of_len(run));
                texts.push(head.clone() + &plain_of_len(offset));
                texts.push(head);
            }
        }
    }
    for text in &texts {
        let mut escaped = String::new();
        support::json::escape_into(text, &mut escaped);
        assert_eq!(escaped, reference_escape(text), "{text:?}");
    }
    for text in texts {
        let v = Value::str(text);
        assert_eq!(Value::parse(&v.render()).unwrap(), v);
    }
}

/// Hand-picked malformed corpus: every entry must be *rejected* (not
/// panicked on), and the error must be a clean `Error::Format`.
#[test]
fn malformed_corpus_rejects_cleanly() {
    let deep_open = "[".repeat(10_000);
    let deep_mixed = "[{\"a\":".repeat(5_000);
    let corpus: Vec<String> = vec![
        // Truncated escapes.
        r#""\"#.to_string(),
        r#""\u"#.to_string(),
        r#""\u12"#.to_string(),
        r#""\ud83d"#.to_string(),
        r#""\ud83dA""#.to_string(),
        r#""\x41""#.to_string(),
        // Deep nesting far beyond the cap (would overflow the stack if the
        // depth counter failed).
        deep_open,
        deep_mixed,
        // Raw control characters and replacement-character abuse.
        "\"\u{0}\"".to_string(),
        "\"\u{1b}[31m\"".to_string(),
        // Structural garbage.
        "{\"a\":1".to_string(),
        "[1,2,,3]".to_string(),
        "{\"a\" 1}".to_string(),
        "\u{FEFF}{}".to_string(), // BOM is not whitespace
        "{},{}".to_string(),
        "+1".to_string(),
        ".5".to_string(),
        "0x10".to_string(),
        "Infinity".to_string(),
        "NaN".to_string(),
    ];
    for bad in &corpus {
        let got = Value::parse(bad);
        assert!(got.is_err(), "must reject {:?}, got {:?}", &bad[..bad.len().min(40)], got);
    }
}

/// Inputs that stress the caps specifically: each must trip the cap with a
/// descriptive error rather than allocating or recursing.
#[test]
fn caps_trip_cleanly() {
    // Depth cap: opening k arrays parses the innermost at depth k-1, so
    // the boundary sits at MAX_DEPTH + 1 opens.
    let at_cap = "[".repeat(MAX_DEPTH as usize + 1) + &"]".repeat(MAX_DEPTH as usize + 1);
    assert!(Value::parse(&at_cap).is_ok());
    let past_cap = "[".repeat(MAX_DEPTH as usize + 2) + &"]".repeat(MAX_DEPTH as usize + 2);
    let err = Value::parse(&past_cap).expect_err("depth cap");
    assert!(err.to_string().contains("nesting too deep"), "got: {err}");

    // Size cap: checked before any parsing work happens.
    let huge = format!("\"{}\"", "x".repeat(MAX_BYTES));
    let err = Value::parse(&huge).expect_err("size cap");
    assert!(err.to_string().contains("exceeds"), "got: {err}");

    // Tightened caps bind before the defaults.
    let limits = ParseLimits { max_depth: 2, max_bytes: 64 };
    assert!(Value::parse_with_limits("[[[1]]]", limits).is_err());
    assert!(Value::parse_with_limits("[[1]]", limits).is_ok());
}

/// Valid-but-nasty inputs must *succeed* and round-trip: the hardening
/// must not reject legitimate protocol traffic.
#[test]
fn nasty_but_valid_round_trips() {
    for good in [
        r#"{"a":"😀","b":[1e3,-0.0,2.5e-3],"c":{"":null}}"#,
        "  [\t1,\n2\r]  ",
        r#""Aé中""#,
        "1e308",
        "{\"dup\":1,\"dup\":2}",
    ] {
        let v = Value::parse(good).unwrap_or_else(|e| panic!("must accept {good:?}: {e}"));
        let back = Value::parse(&v.render()).expect("round trip");
        assert_eq!(v, back);
    }
}
