//! Corruption corpus for everything the tool writes: `.rgn` and `.dgn`
//! artifacts and the binary session-cache containers. Exhaustive single-byte
//! flips and truncations, garbage appends, and arbitrary byte soup — nothing
//! may panic, detectable damage must be rejected, and a session pointed at a
//! mangled cache must degrade (quarantine + recompute), never produce wrong
//! rows.

use araa::dgn::DgnProject;
use araa::rgn::read_rgn;
use araa::{Analysis, AnalysisOptions, AnalysisSession};
use proptest::prelude::*;
use support::testdir::TestDir;
use workloads::GenSource;

const PROG_F: &str = "\
program main
  real a(20)
  common /g/ a
  integer i
  do i = 1, 10
    a(i) = 0.0
  end do
  call leaf
end
";
const LEAF_F: &str = "\
subroutine leaf
  real a(20)
  common /g/ a
  a(11) = 1.0
end
";

fn sources() -> Vec<GenSource> {
    vec![GenSource::fortran("main.f", PROG_F), GenSource::fortran("leaf.f", LEAF_F)]
}

fn analysis() -> Analysis {
    Analysis::analyze(&sources(), AnalysisOptions::default()).expect("analyze")
}

// ---------------------------------------------------------------------------
// Text artifacts (.rgn / .dgn)
// ---------------------------------------------------------------------------

#[test]
fn rgn_every_single_byte_flip_is_rejected() {
    let doc = analysis().rgn_document();
    let bytes = doc.as_bytes();
    for at in 0..bytes.len() {
        for mask in [0x01u8, 0x20, 0x80] {
            let mut mutated = bytes.to_vec();
            mutated[at] ^= mask;
            // A flip that breaks UTF-8 can't even become a document —
            // that counts as detected.
            let Ok(text) = std::str::from_utf8(&mutated) else { continue };
            assert!(
                read_rgn(text).is_err(),
                "flip {mask:#04x} at byte {at} was silently accepted"
            );
        }
    }
}

#[test]
fn dgn_every_single_byte_flip_is_rejected() {
    let a = analysis();
    let doc = DgnProject::from_program(&a.program, &a.callgraph).write();
    let bytes = doc.as_bytes();
    for at in 0..bytes.len() {
        for mask in [0x01u8, 0x20, 0x80] {
            let mut mutated = bytes.to_vec();
            mutated[at] ^= mask;
            let Ok(text) = std::str::from_utf8(&mutated) else { continue };
            assert!(
                DgnProject::read(text).is_err(),
                "flip {mask:#04x} at byte {at} was silently accepted"
            );
        }
    }
}

#[test]
fn rgn_and_dgn_truncations_never_panic() {
    let a = analysis();
    let rgn = a.rgn_document();
    let dgn = DgnProject::from_program(&a.program, &a.callgraph).write();
    for doc in [&rgn, &dgn] {
        for cut in 0..doc.len() {
            if !doc.is_char_boundary(cut) {
                continue;
            }
            // Truncated documents either fail or (when the cut removed the
            // whole trailer line cleanly) parse a prefix — never panic.
            let _ = read_rgn(&doc[..cut]);
            let _ = DgnProject::read(&doc[..cut]);
        }
    }
}

#[test]
fn garbage_appended_to_artifacts_is_rejected() {
    let a = analysis();
    let rgn = a.rgn_document();
    let dgn = DgnProject::from_program(&a.program, &a.callgraph).write();
    for junk in ["x", "a,b,c\n", "#checksum,0000000000000000\n", "\n\n\n"] {
        assert!(read_rgn(&format!("{rgn}{junk}")).is_err(), "append {junk:?}");
        assert!(DgnProject::read(&format!("{dgn}{junk}")).is_err(), "append {junk:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rgn_reader_never_panics_on_soup(doc in "\\PC*") {
        let _ = read_rgn(&doc);
    }

    #[test]
    fn dgn_reader_never_panics_on_soup(doc in "\\PC*") {
        let _ = DgnProject::read(&doc);
    }
}

// ---------------------------------------------------------------------------
// Binary cache containers
// ---------------------------------------------------------------------------

/// Seeds one cache dir and returns (manifest bytes, one entry's bytes and
/// name, cold-oracle rows).
fn seeded_cache_bytes() -> (Vec<u8>, Vec<u8>, String, Vec<araa::RgnRow>) {
    let dir = TestDir::new("corrupt-seed");
    let mut s = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    s.update(&sources()).expect("update");
    assert!(s.persist());
    let oracle = s.into_analysis().expect("analysis").rows;
    let manifest = std::fs::read(dir.join("manifest.araa")).expect("manifest");
    let entry = std::fs::read_dir(dir.path())
        .expect("dir")
        .flatten()
        .find(|e| {
            let n = e.file_name();
            let n = n.to_string_lossy();
            n.starts_with('e') && n.ends_with(".araa")
        })
        .expect("an entry file");
    let name = entry.file_name().to_string_lossy().into_owned();
    let bytes = std::fs::read(entry.path()).expect("entry");
    (manifest, bytes, name, oracle)
}

/// Loads a session over a cache dir holding `manifest` and `entry`, checks
/// the loaded rows (when the load installed a state), then updates and
/// checks the rows again. The cache may be arbitrarily mangled; the
/// *analysis* must come out right regardless.
fn load_update_and_check(
    manifest: &[u8],
    entry: &[u8],
    entry_name: &str,
    oracle: &[araa::RgnRow],
) {
    let dir = TestDir::new("corrupt-case");
    std::fs::write(dir.join("manifest.araa"), manifest).expect("write manifest");
    std::fs::write(dir.join(entry_name), entry).expect("write entry");
    let mut s = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    if s.load() {
        assert_eq!(s.analysis().expect("loaded").rows, oracle);
    }
    s.update(&sources()).expect("update");
    assert_eq!(s.analysis().expect("analysis").rows, oracle);
}

#[test]
fn manifest_byte_flips_degrade_never_lie() {
    let (manifest, entry, name, oracle) = seeded_cache_bytes();
    // Every 7th position covers header, kind, fingerprint, payload and
    // footer regions without an O(n·analysis) blowup.
    for at in (0..manifest.len()).step_by(7) {
        let mut m = manifest.clone();
        m[at] ^= 0x10;
        load_update_and_check(&m, &entry, &name, &oracle);
    }
}

#[test]
fn entry_byte_flips_degrade_never_lie() {
    let (manifest, entry, name, oracle) = seeded_cache_bytes();
    for at in (0..entry.len()).step_by(7) {
        let mut e = entry.clone();
        e[at] ^= 0x10;
        load_update_and_check(&manifest, &e, &name, &oracle);
    }
}

#[test]
fn cache_truncations_and_appends_degrade_never_lie() {
    let (manifest, entry, name, oracle) = seeded_cache_bytes();
    for frac in [0, 1, 2, 3] {
        let cut = manifest.len() * frac / 4;
        load_update_and_check(&manifest[..cut], &entry, &name, &oracle);
        let cut = entry.len() * frac / 4;
        load_update_and_check(&manifest, &entry[..cut], &name, &oracle);
    }
    let mut appended = manifest.clone();
    appended.extend_from_slice(b"junk");
    load_update_and_check(&appended, &entry, &name, &oracle);
    let mut appended = entry.clone();
    appended.extend_from_slice(&[0u8; 16]);
    load_update_and_check(&manifest, &appended, &name, &oracle);
}

// ---------------------------------------------------------------------------
// Pre-`precision` schema fixtures (version skew, not corruption)
// ---------------------------------------------------------------------------

#[test]
fn rgn_pre_precision_schema_is_rejected_with_version_error() {
    // A well-formed version-2 document — old header without the trailing
    // `precision` column, valid checksum trailer. Nothing about it is
    // corrupt; it is merely from before the interval pass existed. Reading
    // it as if every row were exact would be a silent precision lie, so the
    // reader must reject it on the version record alone.
    let mut w = support::csv::CsvWriter::new();
    w.write_row(["#version", "2"]);
    let old_header: Vec<&str> =
        araa::RgnRow::HEADER.iter().copied().filter(|c| *c != "precision").collect();
    w.write_row(old_header.iter().copied());
    let mut doc = w.finish();
    support::persist::append_text_checksum(&mut doc);

    let err = read_rgn(&doc).expect_err("pre-precision schema must be rejected");
    let msg = err.to_string();
    assert!(msg.contains("version 2"), "{msg}");
    assert!(msg.contains("precision"), "{msg}");

    // Unknown *future* versions are refused symmetrically.
    let future = doc.replace("#version,2", "#version,99");
    assert!(read_rgn(&future).is_err(), "future versions must not parse");
}

/// `container` with its format version set to `version` and its footer
/// re-sealed the way that version sealed it — byte-serial FNV-1a up to
/// version 5, the current container checksum after — so the container is
/// structurally pristine: the *only* thing wrong with it is its age.
fn reseal_at_version(container: &[u8], version: u32) -> Vec<u8> {
    let mut old = container.to_vec();
    old[8..12].copy_from_slice(&version.to_le_bytes());
    let body_len = old.len() - 8;
    let sum = if version <= 5 {
        support::hash::fnv1a(&old[..body_len])
    } else {
        support::persist::container_sums(&old).0
    };
    old[body_len..].copy_from_slice(&sum.to_le_bytes());
    old
}

/// Names of the files in `dir`'s quarantine.
fn quarantined(dir: &TestDir) -> Vec<String> {
    std::fs::read_dir(dir.join("quarantine"))
        .expect("quarantine dir must exist")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect()
}

#[test]
fn old_version_cache_container_quarantines_and_recomputes() {
    let (manifest, entry, name, oracle) = seeded_cache_bytes();

    // Rewind the manifest's format version to 2 (pre-`precision` payload
    // layout). This is what a cache directory written by an old release
    // looks like.
    let old = reseal_at_version(&manifest, 2);
    assert!(
        matches!(
            support::persist::read_container_loose(&old),
            Err(support::persist::ContainerError::BadVersion(2))
        ),
        "the re-sealed fixture must classify as version skew, not corruption"
    );

    // A session over the stale cache must quarantine the manifest
    // (classified as a version reject, never deleted blind) and recompute
    // the right rows.
    let dir = TestDir::new("corrupt-old-version");
    std::fs::write(dir.join("manifest.araa"), &old).expect("write manifest");
    std::fs::write(dir.join(&name), &entry).expect("write entry");
    let mut s = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    s.load();
    s.update(&sources()).expect("update");
    assert_eq!(s.analysis().expect("analysis").rows, oracle);
    let quarantined = quarantined(&dir);
    assert!(
        quarantined.iter().any(|n| n.contains("version")),
        "stale entry must be quarantined with the version suffix: {quarantined:?}"
    );
}

#[test]
fn previous_format_version_manifest_and_entry_quarantine_as_version() {
    let (manifest, entry, name, oracle) = seeded_cache_bytes();
    let previous = support::persist::FORMAT_VERSION - 1;

    // A manifest written by the previous format version.
    let old_manifest = reseal_at_version(&manifest, previous);
    assert_eq!(
        support::persist::read_container_loose(&old_manifest).err(),
        Some(support::persist::ContainerError::BadVersion(previous))
    );
    let dir = TestDir::new("corrupt-previous-manifest");
    std::fs::write(dir.join("manifest.araa"), &old_manifest).expect("write manifest");
    std::fs::write(dir.join(&name), &entry).expect("write entry");
    let mut s = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(!s.load(), "an old manifest is never loaded");
    s.update(&sources()).expect("update");
    assert_eq!(s.analysis().expect("analysis").rows, oracle);
    let q = quarantined(&dir);
    assert_eq!(q, ["manifest.araa.version"], "{q:?}");

    // An entry written by the previous format version, under a current
    // manifest that records its content address as this version computes
    // one (so the address check passes and the version check is what
    // rejects it).
    let old_entry = reseal_at_version(&entry, previous);
    let sum = u64::from_str_radix(&name[1..17], 16).expect("entry name is its address");
    let old_sum = support::persist::container_sums(&old_entry).1;
    let mut m = manifest.clone();
    let at: Vec<usize> = (0..m.len() - 8)
        .filter(|&i| m[i..i + 8] == sum.to_le_bytes())
        .collect();
    assert_eq!(at.len(), 1, "the manifest records the entry's address once");
    m[at[0]..at[0] + 8].copy_from_slice(&old_sum.to_le_bytes());
    let m = reseal_at_version(&m, support::persist::FORMAT_VERSION);
    let old_name = format!("e{old_sum:016x}.araa");
    let dir = TestDir::new("corrupt-previous-entry");
    std::fs::write(dir.join("manifest.araa"), &m).expect("write manifest");
    std::fs::write(dir.join(&old_name), &old_entry).expect("write entry");
    let mut s = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(s.load(), "the current manifest loads");
    s.update(&sources()).expect("update");
    assert_eq!(s.analysis().expect("analysis").rows, oracle);
    let q = quarantined(&dir);
    assert_eq!(q, [format!("{old_name}.version")], "{q:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cache_loader_never_breaks_on_soup(
        mbytes in proptest::collection::vec(0u8..=255u8, 0..256),
        ebytes in proptest::collection::vec(0u8..=255u8, 0..256),
    ) {
        let dir = TestDir::new("corrupt-soup");
        std::fs::write(dir.join("manifest.araa"), &mbytes).expect("write");
        std::fs::write(dir.join("e0123456789abcdef.araa"), &ebytes).expect("write");
        let mut s = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
        s.load();
        s.update(&sources()).expect("update");
        let oracle = Analysis::analyze(&sources(), AnalysisOptions::default())
            .expect("cold")
            .rows;
        prop_assert_eq!(&s.analysis().expect("analysis").rows, &oracle);
    }
}
