//! Pinned output bytes: FNV-1a digests of the `.rgn`, `.dgn` and `.cfg`
//! documents, of the lint SARIF, and of a cold-seeded cache directory, for
//! every workload source in the repo and every corpus file.
//!
//! The region kernel (`regions`), IPL (`ipa`) and row extraction are free
//! to change how they compute, never what they print or persist. A change
//! that is *meant* to alter an artifact or a cache byte must update the
//! constants below; the failure message prints the whole table as it now
//! reads, ready to paste.

use araa::{Analysis, AnalysisOptions, AnalysisSession};
use lint::LintOptions;
use std::path::{Path, PathBuf};
use support::hash::fnv1a;
use support::testdir::TestDir;
use workloads::synthetic::SynthConfig;
use workloads::GenSource;

/// `(label, digest)`, one line per artifact, in the order `digests` builds
/// them.
const PINNED: &[(&str, u64)] = &[
    ("mini_lu.rgn", 0xa61c6e484700839a),
    ("mini_lu.dgn", 0xab3b05557baf255e),
    ("mini_lu.cfg", 0xc3061f387660d622),
    ("mini_lu.sarif", 0x4d58b0a769c70f3a),
    ("fig1.rgn", 0xc9eb29ef0d303e2f),
    ("fig1.dgn", 0x18abd5a97b02ae73),
    ("fig1.cfg", 0x948e5e011db5f7f5),
    ("fig1.sarif", 0x57b82ecda6b99bea),
    ("fig10.rgn", 0x6571f6a5eb27c4ea),
    ("fig10.dgn", 0xa761cc11a2433524),
    ("fig10.cfg", 0x5279975823ad49cb),
    ("fig10.sarif", 0x19ca51b4f2d62433),
    ("caf.rgn", 0xc0a99f478bedb4a3),
    ("caf.dgn", 0xf70b0cc0da07f690),
    ("caf.cfg", 0xdc09df3fcd150a9e),
    ("caf.sarif", 0xa928ba4eaf6c6e8c),
    ("stencil.rgn", 0xd71658682aae4342),
    ("stencil.dgn", 0xf2e36fe43843a5c9),
    ("stencil.cfg", 0x54a289a0fa46947d),
    ("stencil.sarif", 0x57b82ecda6b99bea),
    ("synthetic_24.rgn", 0x2989ef696aa2876d),
    ("synthetic_24.dgn", 0xee180ebccc5042ce),
    ("synthetic_24.cfg", 0xdf76b1d114a67a97),
    ("synthetic_24.sarif", 0x7817c64dae6891c8),
    ("lint_corpus/ali_dup.f.rgn", 0x99f1ceb2971b1fba),
    ("lint_corpus/ali_dup.f.dgn", 0x7b0653f1d050653f),
    ("lint_corpus/ali_dup.f.cfg", 0x068f190dac84d5f4),
    ("lint_corpus/ali_dup.f.sarif", 0xc812e2e6502a763b),
    ("lint_corpus/ali_dup_clean.f.rgn", 0x19e786761f98b77a),
    ("lint_corpus/ali_dup_clean.f.dgn", 0xe0d4c795cde3fe72),
    ("lint_corpus/ali_dup_clean.f.cfg", 0xae80d0cd1874637d),
    ("lint_corpus/ali_dup_clean.f.sarif", 0xc7864261cb4a0fca),
    ("lint_corpus/ali_global.f.rgn", 0x290548864bf6e743),
    ("lint_corpus/ali_global.f.dgn", 0x0b9a450ec62c7c91),
    ("lint_corpus/ali_global.f.cfg", 0xb8c71838c1a50987),
    ("lint_corpus/ali_global.f.sarif", 0x7bd85bae5b7251be),
    ("lint_corpus/ali_global_clean.f.rgn", 0xd6e88c56e186eafe),
    ("lint_corpus/ali_global_clean.f.dgn", 0x1075836924104b8d),
    ("lint_corpus/ali_global_clean.f.cfg", 0x4fa174f83ffbd625),
    ("lint_corpus/ali_global_clean.f.sarif", 0x911728c3a0046687),
    ("lint_corpus/dst_local.f.rgn", 0xa357c12fa1c8b1f3),
    ("lint_corpus/dst_local.f.dgn", 0x00fb466f7a5cdcb6),
    ("lint_corpus/dst_local.f.cfg", 0x9212bc1faa8e98b3),
    ("lint_corpus/dst_local.f.sarif", 0xb91d89741189eae7),
    ("lint_corpus/dst_local_clean.f.rgn", 0xb26b4bb336be68d8),
    ("lint_corpus/dst_local_clean.f.dgn", 0x35f9c3d45ab67a2f),
    ("lint_corpus/dst_local_clean.f.cfg", 0x771070a579633238),
    ("lint_corpus/dst_local_clean.f.sarif", 0x06b03b88be16f541),
    ("lint_corpus/dst_tail.c.rgn", 0xb23353c34e2c98c5),
    ("lint_corpus/dst_tail.c.dgn", 0x55f39060fd3f94c3),
    ("lint_corpus/dst_tail.c.cfg", 0xa58e87f922decf72),
    ("lint_corpus/dst_tail.c.sarif", 0x1d7d3167a5570a26),
    ("lint_corpus/dst_tail_clean.c.rgn", 0xfb81cfa30ed6dc55),
    ("lint_corpus/dst_tail_clean.c.dgn", 0xd4c7723341b4c5ae),
    ("lint_corpus/dst_tail_clean.c.cfg", 0xa58e87f922decf72),
    ("lint_corpus/dst_tail_clean.c.sarif", 0x06b03b88be16f541),
    ("lint_corpus/oob_basic.f.rgn", 0xd3299a6277f33ece),
    ("lint_corpus/oob_basic.f.dgn", 0xbb5f0f6c2770d319),
    ("lint_corpus/oob_basic.f.cfg", 0x43cd9c850dcbedfe),
    ("lint_corpus/oob_basic.f.sarif", 0x01a6ab3325df2800),
    ("lint_corpus/oob_basic_clean.f.rgn", 0x338fab0b2bb17218),
    ("lint_corpus/oob_basic_clean.f.dgn", 0x61ec4e4221e5c189),
    ("lint_corpus/oob_basic_clean.f.cfg", 0x43cd9c850dcbedfe),
    ("lint_corpus/oob_basic_clean.f.sarif", 0x06b03b88be16f541),
    ("lint_corpus/oob_chain.f.rgn", 0x52b0439e1d7f2e00),
    ("lint_corpus/oob_chain.f.dgn", 0x202e2090b2cde7ce),
    ("lint_corpus/oob_chain.f.cfg", 0x85c5d9360ff85ca1),
    ("lint_corpus/oob_chain.f.sarif", 0x3a5f3e064f94e855),
    ("lint_corpus/oob_chain_clean.f.rgn", 0xb14520787e32555f),
    ("lint_corpus/oob_chain_clean.f.dgn", 0xc85be60da1ef6ebf),
    ("lint_corpus/oob_chain_clean.f.cfg", 0x85c5d9360ff85ca1),
    ("lint_corpus/oob_chain_clean.f.sarif", 0xe44f0bcb80576d30),
    ("lint_corpus/oob_tail.c.rgn", 0xb0fbc8482b81c9bd),
    ("lint_corpus/oob_tail.c.dgn", 0xdd4a4f962f6be8e3),
    ("lint_corpus/oob_tail.c.cfg", 0x43cd9c850dcbedfe),
    ("lint_corpus/oob_tail.c.sarif", 0x639df50eb472a976),
    ("lint_corpus/oob_tail_clean.c.rgn", 0xb11aee4894a23ddc),
    ("lint_corpus/oob_tail_clean.c.dgn", 0x7aa6f5b0f4399f80),
    ("lint_corpus/oob_tail_clean.c.cfg", 0x43cd9c850dcbedfe),
    ("lint_corpus/oob_tail_clean.c.sarif", 0x06b03b88be16f541),
    ("lint_corpus/shp_small.f.rgn", 0xbe472970d12bd3a2),
    ("lint_corpus/shp_small.f.dgn", 0x668fb76b6d93d3ca),
    ("lint_corpus/shp_small.f.cfg", 0xf865d9fd64fef040),
    ("lint_corpus/shp_small.f.sarif", 0xd74c6c03153c6d89),
    ("lint_corpus/shp_small_clean.f.rgn", 0x7f743e2623ec19e6),
    ("lint_corpus/shp_small_clean.f.dgn", 0xba728a8e575da4c2),
    ("lint_corpus/shp_small_clean.f.cfg", 0xf865d9fd64fef040),
    ("lint_corpus/shp_small_clean.f.sarif", 0x017a04beb347a075),
    ("lint_corpus/ubd_call.f.rgn", 0x5ce346d03416b6f4),
    ("lint_corpus/ubd_call.f.dgn", 0x73194d090b55fd3c),
    ("lint_corpus/ubd_call.f.cfg", 0xf83457c9cf69d6bf),
    ("lint_corpus/ubd_call.f.sarif", 0x7739a1d0d8b7653e),
    ("lint_corpus/ubd_call_clean.f.rgn", 0x95f91a72e1a9af8c),
    ("lint_corpus/ubd_call_clean.f.dgn", 0x5548d6ab6b160074),
    ("lint_corpus/ubd_call_clean.f.cfg", 0x7aa4397a84a75600),
    ("lint_corpus/ubd_call_clean.f.sarif", 0xe44f0bcb80576d30),
    ("lint_corpus/ubd_gap.f.rgn", 0x4ca815dedf716d40),
    ("lint_corpus/ubd_gap.f.dgn", 0xa6feaec08e37b86b),
    ("lint_corpus/ubd_gap.f.cfg", 0x771070a579633238),
    ("lint_corpus/ubd_gap.f.sarif", 0xacb4c20c5b291afe),
    ("lint_corpus/ubd_gap_clean.f.rgn", 0x7fb7e8e4ad39667b),
    ("lint_corpus/ubd_gap_clean.f.dgn", 0x6f050d1fce1a62f5),
    ("lint_corpus/ubd_gap_clean.f.cfg", 0x771070a579633238),
    ("lint_corpus/ubd_gap_clean.f.sarif", 0x06b03b88be16f541),
    ("lint_corpus/ubd_local.f.rgn", 0x4226c75033bf39d0),
    ("lint_corpus/ubd_local.f.dgn", 0x80e6b6af2935b56e),
    ("lint_corpus/ubd_local.f.cfg", 0x0d4ef3c8e3da8aac),
    ("lint_corpus/ubd_local.f.sarif", 0xf2f0250153be4907),
    ("lint_corpus/ubd_local_clean.f.rgn", 0x4951f980e40f80b3),
    ("lint_corpus/ubd_local_clean.f.dgn", 0xf161094a03badc75),
    ("lint_corpus/ubd_local_clean.f.cfg", 0x771070a579633238),
    ("lint_corpus/ubd_local_clean.f.sarif", 0x06b03b88be16f541),
    ("irregular_corpus/accum_stride.f.rgn", 0x77e664ce70aaf869),
    ("irregular_corpus/accum_stride.f.dgn", 0xa33f6c382d1d3fc0),
    ("irregular_corpus/accum_stride.f.cfg", 0x2d9b3353f3b24e1a),
    ("irregular_corpus/accum_stride.f.sarif", 0x06b03b88be16f541),
    ("irregular_corpus/accum_unbounded.f.rgn", 0x7696e887f4eae7f4),
    ("irregular_corpus/accum_unbounded.f.dgn", 0x4af287c46e9ece7a),
    ("irregular_corpus/accum_unbounded.f.cfg", 0x6aae9bc6a69a7814),
    ("irregular_corpus/accum_unbounded.f.sarif", 0x05bde917e06df621),
    ("irregular_corpus/dst_interval.f.rgn", 0xb03dec5c2d286c0b),
    ("irregular_corpus/dst_interval.f.dgn", 0x3acf3786375ebe20),
    ("irregular_corpus/dst_interval.f.cfg", 0x5279975823ad49cb),
    ("irregular_corpus/dst_interval.f.sarif", 0xd14409d9516d214b),
    ("irregular_corpus/naf_opaque.f.rgn", 0xb57d1402b138a315),
    ("irregular_corpus/naf_opaque.f.dgn", 0x24372f2de6121585),
    ("irregular_corpus/naf_opaque.f.cfg", 0x01ef5ef529186fea),
    ("irregular_corpus/naf_opaque.f.sarif", 0x9517b7f004afe79b),
    ("irregular_corpus/poly_square.f.rgn", 0xd9c3fbcb2d3a9ea0),
    ("irregular_corpus/poly_square.f.dgn", 0x01eb94756d08563f),
    ("irregular_corpus/poly_square.f.cfg", 0x771070a579633238),
    ("irregular_corpus/poly_square.f.sarif", 0x576fa9bc3d71a2f6),
    ("irregular_corpus/poly_square_oob.f.rgn", 0xd85f96ef343bf785),
    ("irregular_corpus/poly_square_oob.f.dgn", 0x8d90b6f1ea434214),
    ("irregular_corpus/poly_square_oob.f.cfg", 0x43cd9c850dcbedfe),
    ("irregular_corpus/poly_square_oob.f.sarif", 0x123fb2707f611787),
    ("irregular_corpus/ss_gather.f.rgn", 0x67f377cb9f4aeb20),
    ("irregular_corpus/ss_gather.f.dgn", 0x21de58a3fc0bf8d4),
    ("irregular_corpus/ss_gather.f.cfg", 0x771070a579633238),
    ("irregular_corpus/ss_gather.f.sarif", 0x576fa9bc3d71a2f6),
    ("irregular_corpus/ss_inj_ok.f.rgn", 0x2129300c7ac4dcda),
    ("irregular_corpus/ss_inj_ok.f.dgn", 0xf8346de7bc7ecc4f),
    ("irregular_corpus/ss_inj_ok.f.cfg", 0x5279975823ad49cb),
    ("irregular_corpus/ss_inj_ok.f.sarif", 0x0fc813739bb177f8),
    ("irregular_corpus/ss_inj_oob.f.rgn", 0x173b7f052037ae46),
    ("irregular_corpus/ss_inj_oob.f.dgn", 0x9b4de07a70938012),
    ("irregular_corpus/ss_inj_oob.f.cfg", 0x64129d240be9e397),
    ("irregular_corpus/ss_inj_oob.f.sarif", 0x8156e3c3a477531d),
    ("cache/mini_lu", 0x7558701ea3a0f617),
    ("cache/irregular_corpus", 0x0179d60d53c7f72d),
];

fn corpus(dir: &str) -> Vec<(String, Vec<GenSource>)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../workloads").join(dir);
    let mut names: Vec<String> = std::fs::read_dir(&root)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", root.display()))
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let text = std::fs::read_to_string(root.join(&name)).expect("corpus file");
            let fortran = !name.ends_with(".c");
            let label = format!("{dir}/{name}");
            (label, vec![GenSource { name, text, fortran }])
        })
        .collect()
}

/// Every input the digests cover, labelled.
fn inputs() -> Vec<(String, Vec<GenSource>)> {
    let synth = SynthConfig { procedures: 24, ..SynthConfig::default() };
    let mut out = vec![
        ("mini_lu".to_string(), workloads::mini_lu::sources()),
        ("fig1".to_string(), vec![workloads::fig1::source()]),
        ("fig10".to_string(), vec![workloads::fig10::source()]),
        ("caf".to_string(), vec![workloads::caf::source()]),
        ("stencil".to_string(), vec![workloads::stencil::source()]),
        ("synthetic_24".to_string(), vec![workloads::synthetic::generate(&synth)]),
    ];
    out.extend(corpus("lint_corpus"));
    out.extend(corpus("irregular_corpus"));
    out
}

/// One digest over every file under `dir` except `LOCK`: relative name,
/// length and bytes, in sorted name order.
fn dir_digest(dir: &Path) -> u64 {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, PathBuf)>) {
        for entry in std::fs::read_dir(dir).expect("cache dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).expect("under root");
                out.push((rel.to_string_lossy().into_owned(), path));
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, dir, &mut files);
    files.sort();
    let mut h = support::hash::StableHasher::new();
    for (rel, path) in files {
        if rel == "LOCK" {
            continue;
        }
        let bytes = std::fs::read(&path).expect("cache file");
        h.write_str(&rel);
        h.write_usize(bytes.len());
        h.write_bytes(&bytes);
    }
    h.finish()
}

/// The cache a cold `update` + `persist` leaves for `sources`.
fn seeded_cache_digest(sources: &[GenSource]) -> u64 {
    let dir = TestDir::new("artifact-digest");
    let mut s = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    s.update(sources.to_vec()).expect("seed update");
    assert!(s.persist(), "seed persist: {:?}", s.cache_incidents());
    drop(s);
    dir_digest(dir.path())
}

fn digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (label, sources) in inputs() {
        let a = Analysis::analyze(&sources, AnalysisOptions::default())
            .unwrap_or_else(|e| panic!("{label} must analyze: {e}"));
        out.push((format!("{label}.rgn"), fnv1a(a.rgn_document().as_bytes())));
        out.push((format!("{label}.dgn"), fnv1a(a.dgn_document().as_bytes())));
        out.push((format!("{label}.cfg"), fnv1a(a.cfg_document().as_bytes())));
        let report = lint::run(&a, &LintOptions::default());
        let sarif = lint::sarif::to_sarif(&report, "pinned");
        out.push((format!("{label}.sarif"), fnv1a(sarif.as_bytes())));
    }
    out.push(("cache/mini_lu".to_string(), seeded_cache_digest(&workloads::mini_lu::sources())));
    let mut h = support::hash::StableHasher::new();
    for (label, sources) in corpus("irregular_corpus") {
        h.write_str(&label);
        h.write_u64(seeded_cache_digest(&sources));
    }
    out.push(("cache/irregular_corpus".to_string(), h.finish()));
    out
}

#[test]
fn artifacts_and_cache_bytes_match_the_pinned_digests() {
    let got = digests();
    let pinned: Vec<(String, u64)> =
        PINNED.iter().map(|&(label, d)| (label.to_string(), d)).collect();
    if got != pinned {
        let table: String = got
            .iter()
            .map(|(label, d)| format!("    (\"{label}\", 0x{d:016x}),\n"))
            .collect();
        let changed: Vec<&str> = got
            .iter()
            .filter(|(label, d)| !pinned.iter().any(|(l, p)| l == label && p == d))
            .map(|(label, _)| label.as_str())
            .collect();
        panic!(
            "{} of {} digests differ from the pinned table: {changed:?}\n\
             If the output change is intended, replace PINNED with:\n{table}",
            changed.len(),
            got.len()
        );
    }
}
