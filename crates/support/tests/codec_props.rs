//! Properties of the persistence codec and of the stable hasher: varints
//! round-trip at every width, a malformed or truncated varint is a format
//! error and never a panic, and flipping any one byte changes a hash.
//!
//! Tier-1 runs 64 random cases per property; set `PROPTEST_CASES` to run
//! more.

use proptest::prelude::*;
use support::hash::StableHasher;
use support::persist::{ByteReader, ByteWriter};
use support::Error;

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

const U64_EDGES: &[u64] = &[
    0,
    1,
    127,
    128,
    255,
    16_383,
    16_384,
    u32::MAX as u64,
    1 << 63,
    u64::MAX - 1,
    u64::MAX,
];
const I64_EDGES: &[i64] = &[
    0,
    1,
    -1,
    63,
    -64,
    64,
    -65,
    127,
    128,
    i64::MIN,
    i64::MIN + 1,
    i64::MAX - 1,
    i64::MAX,
];

fn encoded(write: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write(&mut w);
    w.into_bytes()
}

/// Writes `v` as every integer type it fits, reads each back and checks
/// that nothing is left over.
fn assert_round_trips(v: u64) {
    let bytes = encoded(|w| w.u64(v));
    let mut r = ByteReader::new(&bytes);
    assert_eq!(r.u64().unwrap(), v);
    r.finish().unwrap();
    let bytes = encoded(|w| w.usize(v as usize));
    let mut r = ByteReader::new(&bytes);
    assert_eq!(r.usize().unwrap(), v as usize);
    r.finish().unwrap();
    if let Ok(small) = u32::try_from(v) {
        let bytes = encoded(|w| w.u32(small));
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u32().unwrap(), small);
        r.finish().unwrap();
    }
    let signed = v as i64;
    let bytes = encoded(|w| w.i64(signed));
    let mut r = ByteReader::new(&bytes);
    assert_eq!(r.i64().unwrap(), signed);
    r.finish().unwrap();
}

fn is_format_error<T: std::fmt::Debug>(res: support::Result<T>) -> bool {
    matches!(res, Err(Error::Format(_)))
}

fn hash(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write_bytes(bytes);
    h.finish()
}

#[test]
fn edge_values_round_trip() {
    for &v in U64_EDGES {
        assert_round_trips(v);
    }
    for &v in I64_EDGES {
        assert_round_trips(v as u64);
    }
}

#[test]
fn varints_are_short_for_small_magnitudes() {
    let len = |write: &dyn Fn(&mut ByteWriter)| encoded(|w| write(w)).len();
    assert_eq!(len(&|w| w.u64(0)), 1);
    assert_eq!(len(&|w| w.u64(127)), 1);
    assert_eq!(len(&|w| w.u64(128)), 2);
    assert_eq!(len(&|w| w.u64(1 << 63)), 10);
    assert_eq!(len(&|w| w.u64(u64::MAX)), 10);
    assert_eq!(len(&|w| w.i64(-1)), 1);
    assert_eq!(len(&|w| w.i64(-64)), 1);
    assert_eq!(len(&|w| w.i64(-65)), 2);
    assert_eq!(len(&|w| w.i64(i64::MIN)), 10);
    assert_eq!(len(&|w| w.i64(i64::MAX)), 10);
    assert_eq!(len(&|w| w.fixed_u64(0)), 8);
    assert_eq!(len(&|w| w.fixed_u32(0)), 4);
}

#[test]
fn overlong_and_overflowing_varints_are_format_errors() {
    // Eleven bytes: ten with the continuation bit set, then a terminator.
    let mut overlong = vec![0x80u8; 10];
    overlong.push(0x00);
    assert!(is_format_error(ByteReader::new(&overlong).u64()));
    // Ten bytes whose last holds more than the top bit of a u64.
    let mut overflow = vec![0xffu8; 9];
    overflow.push(0x02);
    assert!(is_format_error(ByteReader::new(&overflow).u64()));
    assert!(is_format_error(ByteReader::new(&overflow).i64()));
    assert!(is_format_error(ByteReader::new(&overflow).usize()));
    // The largest ten-byte varint is u64::MAX.
    overflow[9] = 0x01;
    assert_eq!(ByteReader::new(&overflow).u64().unwrap(), u64::MAX);
    // A u32 read rejects what only fits a u64.
    let wide = encoded(|w| w.u64(u64::from(u32::MAX) + 1));
    assert!(is_format_error(ByteReader::new(&wide).u32()));
}

#[test]
fn every_truncation_is_a_format_error() {
    for &v in U64_EDGES {
        let bytes = encoded(|w| w.u64(v));
        for cut in 0..bytes.len() {
            assert!(
                is_format_error(ByteReader::new(&bytes[..cut]).u64()),
                "{v} cut at {cut}"
            );
        }
    }
    for &v in I64_EDGES {
        let bytes = encoded(|w| w.i64(v));
        for cut in 0..bytes.len() {
            assert!(
                is_format_error(ByteReader::new(&bytes[..cut]).i64()),
                "{v} cut at {cut}"
            );
        }
    }
    let bytes = encoded(|w| {
        w.str("héllo");
        w.fixed_u64(7);
        w.fixed_u32(9);
    });
    for cut in 0..bytes.len() {
        let mut r = ByteReader::new(&bytes[..cut]);
        let read = r
            .str_ref()
            .map(drop)
            .and_then(|()| r.fixed_u64())
            .and_then(|_| r.fixed_u32());
        assert!(is_format_error(read), "cut at {cut}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn random_values_round_trip(raw in 0u64..u64::MAX, shift in 0u32..64) {
        // Shifting spreads the values over every varint width.
        assert_round_trips(raw >> shift);
    }

    #[test]
    fn truncated_sequences_never_decode(
        values in proptest::collection::vec((0u64..u64::MAX, 0u32..64), 1..12),
    ) {
        let values: Vec<u64> = values.into_iter().map(|(raw, shift)| raw >> shift).collect();
        let bytes = encoded(|w| {
            for &v in &values {
                w.u64(v);
                w.i64(v as i64);
            }
        });
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            let read = values.iter().try_for_each(|_| {
                r.u64()?;
                r.i64().map(drop)
            });
            prop_assert!(is_format_error(read), "cut at {}", cut);
        }
    }

    #[test]
    fn one_flipped_byte_changes_the_hash(
        bytes in proptest::collection::vec(0u8..=255, 1..300),
        at in 0usize..usize::MAX,
        mask in 1u8..=255,
    ) {
        let mut flipped = bytes.clone();
        flipped[at % bytes.len()] ^= mask;
        prop_assert_ne!(hash(&bytes), hash(&flipped));
    }
}
