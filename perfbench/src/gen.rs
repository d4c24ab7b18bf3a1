//! Seeded input generators: the three workloads' source sets and the
//! one-line loop-bound edit rotation the edit ops replay.
//!
//! Every generator is a pure function of its seed. The seed varies
//! constants and ordering, never the program's shape, so the procedure
//! count, IR size and row count stay put from seed to seed and a metric's
//! spread across seeds measures the machine, not the input.

use workloads::synthetic::{self, SynthConfig};
use workloads::GenSource;

/// SplitMix64: a tiny seeded generator, so the benchmark's inputs do not
/// depend on any RNG crate's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// `lu_paper`: the paper's case study, 24 procedures. The sources are
/// fixed; the seed only drives the edit rotation.
pub fn lu_paper() -> Vec<GenSource> {
    workloads::mini_lu::sources()
}

/// Worker procedures of `synth_1k` (plus `main`: 1000 procedures).
pub const SYNTH_WORKERS: usize = 999;

/// `synth_1k`: the synthetic affine family at 1000 procedures, split one
/// program unit per file.
pub fn synth_1k(seed: u64) -> Vec<GenSource> {
    let cfg = SynthConfig {
        procedures: SYNTH_WORKERS,
        seed,
        ..SynthConfig::default()
    };
    split_units(&synthetic::generate(&cfg))
}

/// Splits a single-file Fortran program into one file per program unit.
/// A unit runs from its header line to its `end program`/`end subroutine`
/// line; blank lines between units are dropped.
pub fn split_units(src: &GenSource) -> Vec<GenSource> {
    let mut out = Vec::new();
    let mut cur: Option<(String, String)> = None;
    for line in src.text.lines() {
        let t = line.trim_start();
        if cur.is_none() {
            let name = t
                .strip_prefix("program ")
                .or_else(|| t.strip_prefix("subroutine "))
                .map(|rest| rest.split(['(', ' ']).next().unwrap_or(rest).to_string());
            match name {
                Some(name) => cur = Some((name, String::new())),
                None => continue,
            }
        }
        let (name, text) = cur.as_mut().expect("inside a unit");
        text.push_str(line);
        text.push('\n');
        if t.starts_with("end program") || t.starts_with("end subroutine") {
            let name = std::mem::take(name);
            let text = std::mem::take(text);
            out.push(GenSource::fortran(format!("{name}.f"), text));
            cur = None;
        }
    }
    out
}

/// Replicas of each irregular shape in `irregular_600`.
pub const IRREGULAR_REPLICAS: usize = 66;

/// A seeded defect: the rule id that must fire, its file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Defect {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub array: String,
}

/// One shape of `workloads/irregular_corpus/`, rewritten as a subroutine
/// with its own COMMON block and array names so replicas never alias.
/// `{N}` is the replica number; `{n}`, `{n1}`, `{n2}`, `{half}`, `{m}`,
/// `{m2}` and `{k}` are size constants derived from the seeded size.
struct Shape {
    name: &'static str,
    text: &'static str,
    /// The seeded defect: rule, 1-based template line, array prefix.
    defect: Option<(&'static str, u32, &'static str)>,
}

const SHAPES: [Shape; 9] = [
    Shape {
        name: "ss_inj_ok",
        text: "subroutine irr{N}
  integer idx({n})
  double precision a{N}({n})
  common /ga{N}/ a{N}
  double precision s
  integer i
  do i = 1, {n}
    idx(i) = {n1} - i
  end do
  do i = 1, {n}
    a{N}(idx(i)) = 1.0
  end do
  s = 0.0
  do i = 1, {n}
    s = s + a{N}(idx(i))
  end do
end subroutine irr{N}
",
        defect: None,
    },
    Shape {
        name: "ss_inj_oob",
        text: "subroutine irr{N}
  integer idx({n})
  double precision a{N}({n})
  common /ga{N}/ a{N}
  integer i
  do i = 1, {n}
    idx(i) = {n2} + i
  end do
  do i = 1, {n}
    a{N}(idx(i)) = 1.0
  end do
end subroutine irr{N}
",
        defect: Some(("OOB-01", 10, "a")),
    },
    Shape {
        name: "ss_gather",
        text: "subroutine irr{N}
  integer idx({n})
  double precision a{N}({n})
  common /ga{N}/ a{N}
  double precision s
  integer i
  do i = 1, {n}
    idx(i) = {n1} - i
  end do
  s = 0.0
  do i = 1, {n}
    s = s + a{N}(idx(i))
  end do
end subroutine irr{N}
",
        defect: None,
    },
    Shape {
        name: "naf_opaque",
        text: "subroutine irr{N}
  integer idx({n})
  double precision a{N}({n})
  common /ga{N}/ a{N}
  integer i
  call scr{N}(idx)
  do i = 1, {n}
    a{N}(idx(i)) = 1.0
  end do
end subroutine irr{N}

subroutine scr{N}(v)
  integer v({n})
  integer i
  do i = 1, {n}
    v(i) = {n1} - i
  end do
end subroutine scr{N}
",
        defect: Some(("NAF-06", 8, "a")),
    },
    Shape {
        name: "poly_square",
        text: "subroutine irr{N}
  double precision a{N}({m2})
  common /ga{N}/ a{N}
  double precision s
  integer i
  do i = 1, {m}
    a{N}(i*i) = 1.0
  end do
  s = 0.0
  do i = 1, {m}
    s = s + a{N}(i*i)
  end do
end subroutine irr{N}
",
        defect: None,
    },
    Shape {
        name: "poly_square_oob",
        text: "subroutine irr{N}
  double precision a{N}({k})
  common /ga{N}/ a{N}
  integer i
  do i = 1, {m}
    a{N}(i*i) = 1.0
  end do
end subroutine irr{N}
",
        defect: Some(("OOB-01", 6, "a")),
    },
    Shape {
        name: "accum_stride",
        text: "subroutine irr{N}
  double precision b{N}({n})
  common /gb{N}/ b{N}
  double precision s
  integer i, k
  k = 0
  do i = 1, 20
    k = k + 2
    b{N}(k) = 1.0
  end do
  s = 0.0
  do i = 1, {n}
    s = s + b{N}(i)
  end do
end subroutine irr{N}
",
        defect: None,
    },
    Shape {
        name: "accum_unbounded",
        text: "subroutine irr{N}
  double precision b{N}({n})
  common /gb{N}/ b{N}
  integer m{N}
  common /gm{N}/ m{N}
  integer i, k
  k = 1
  do i = 1, 10
    b{N}(k) = 1.0
    k = k + m{N}
  end do
end subroutine irr{N}
",
        defect: Some(("NAF-06", 9, "b")),
    },
    Shape {
        name: "dst_interval",
        text: "subroutine irr{N}
  integer idx({n})
  double precision a{N}({n})
  common /ga{N}/ a{N}
  double precision s
  integer i
  do i = 1, {n}
    idx(i) = {n1} - i
  end do
  do i = 1, {n}
    a{N}(idx(i)) = 1.0
  end do
  s = 0.0
  do i = 1, {half}
    s = s + a{N}(i)
  end do
end subroutine irr{N}
",
        defect: Some(("DST-03", 11, "a")),
    },
];

/// Number of distinct irregular shapes.
pub const SHAPE_COUNT: usize = SHAPES.len();

/// Seeded array extents. Every (shape, size) pair is checked by the
/// generator self-tests, so any seed yields a program with exactly the
/// seeded defects. Sizes stay ≥ 40 so `accum_stride`'s 20 stride-2 writes
/// fit; `poly` sides stay ≥ 8.
const SIZES: [i64; 4] = [40, 50, 64, 100];
const POLY_SIDES: [i64; 3] = [8, 10, 12];

/// Instantiates shape `shape` as replica `n` with size choice `size`.
pub fn irregular_replica(shape: usize, n: usize, size: usize) -> (GenSource, Option<Defect>) {
    let s = &SHAPES[shape];
    let ext = SIZES[size % SIZES.len()];
    let m = POLY_SIDES[size % POLY_SIDES.len()];
    let text = s
        .text
        .replace("{N}", &n.to_string())
        .replace("{n1}", &(ext + 1).to_string())
        .replace("{n2}", &(2 * ext).to_string())
        .replace("{n}", &ext.to_string())
        .replace("{half}", &(ext / 2).to_string())
        .replace("{m2}", &(m * m).to_string())
        .replace("{m}", &m.to_string())
        .replace("{k}", &(m * m * 6 / 10).to_string());
    let file = format!("irr{n}.f");
    let defect = s.defect.map(|(rule, line, array)| Defect {
        rule,
        file: file.clone(),
        line,
        array: format!("{array}{n}"),
    });
    (GenSource::fortran(file, text), defect)
}

/// Name of irregular shape `shape` (for reports and test messages).
pub fn shape_name(shape: usize) -> &'static str {
    SHAPES[shape].name
}

/// Size choices per irregular replica.
pub const SIZE_CHOICES: usize = 12; // lcm(|SIZES|, |POLY_SIDES|)

/// `irregular_600`: 66 seeded replicas of each of the nine irregular
/// shapes (594 subroutines, plus `main` and the 66 opaque callees), one
/// replica per file, in a seeded order. Returns the sources and every
/// seeded defect. An out-of-bounds region also reaches `main` through
/// propagation, so each OOB defect is reported a second time at its
/// `call` line there.
pub fn irregular_600(seed: u64) -> (Vec<GenSource>, Vec<Defect>) {
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..SHAPE_COUNT)
        .flat_map(|s| std::iter::repeat_n(s, IRREGULAR_REPLICAS))
        .collect();
    rng.shuffle(&mut order);
    let mut sources = Vec::with_capacity(order.len() + 1);
    let mut defects = Vec::new();
    let mut main = String::from("program main\n");
    for (n, &shape) in order.iter().enumerate() {
        let (src, defect) = irregular_replica(shape, n, rng.below(SIZE_CHOICES));
        main.push_str(&format!("  call irr{n}\n"));
        sources.push(src);
        if let Some(d) = defect {
            if d.rule == "OOB-01" {
                // `program main` is line 1, so `call irr<n>` is line n + 2.
                let line = n as u32 + 2;
                defects.push(Defect {
                    file: "main.f".to_string(),
                    line,
                    ..d.clone()
                });
            }
            defects.push(d);
        }
    }
    main.push_str("end program main\n");
    sources.insert(0, GenSource::fortran("main.f", main));
    (sources, defects)
}

/// One editable loop header: `do <v> = <lo>, <hi>` with literal bounds.
#[derive(Debug, Clone)]
struct EditSite {
    file: usize,
    line: usize,
    hi: i64,
}

/// The seeded one-line edit rotation. Each step toggles one loop's upper
/// bound between its original value and one less, in a seeded file
/// order that visits every editable file before repeating, so edits land
/// at every depth of the call graph. Only ascending loops with
/// `hi - 1 > lo` are edited: shrinking such a loop keeps every access in
/// bounds and the program well-formed.
#[derive(Debug, Clone)]
pub struct EditRotation {
    sources: Vec<GenSource>,
    sites: Vec<Vec<EditSite>>,
    /// Per site (flattened by file), whether it currently holds `hi - 1`.
    toggled: Vec<Vec<bool>>,
    files: Vec<usize>,
    next: usize,
    rng: Rng,
}

/// Parses `do <v> = <lo>, <hi>` (exactly two integer literals).
fn loop_bounds(line: &str) -> Option<(i64, i64)> {
    let rest = line.trim_start().strip_prefix("do ")?;
    let (_, bounds) = rest.split_once('=')?;
    let mut it = bounds.split(',').map(|b| b.trim().parse::<i64>());
    let lo = it.next()?.ok()?;
    let hi = it.next()?.ok()?;
    it.next().is_none().then_some((lo, hi))
}

impl EditRotation {
    pub fn new(sources: &[GenSource], seed: u64) -> EditRotation {
        let sites: Vec<Vec<EditSite>> = sources
            .iter()
            .enumerate()
            .map(|(file, s)| {
                s.text
                    .lines()
                    .enumerate()
                    .filter_map(|(line, text)| {
                        let (lo, hi) = loop_bounds(text)?;
                        (hi - 1 > lo).then_some(EditSite { file, line, hi })
                    })
                    .collect()
            })
            .collect();
        let files: Vec<usize> = (0..sources.len())
            .filter(|&f| !sites[f].is_empty())
            .collect();
        assert!(!files.is_empty(), "no editable loop in the source set");
        let toggled = sites.iter().map(|s| vec![false; s.len()]).collect();
        let mut rot = EditRotation {
            sources: sources.to_vec(),
            sites,
            toggled,
            files,
            next: 0,
            rng: Rng::new(seed ^ 0xed17),
        };
        let mut files = std::mem::take(&mut rot.files);
        rot.rng.shuffle(&mut files);
        rot.files = files;
        rot
    }

    /// Number of files holding at least one editable loop.
    pub fn editable_files(&self) -> usize {
        self.files.len()
    }

    /// The current source set.
    pub fn sources(&self) -> &[GenSource] {
        &self.sources
    }

    /// Applies the next edit and returns the index of the edited file.
    pub fn step(&mut self) -> usize {
        if self.next == self.files.len() {
            self.next = 0;
            let mut files = std::mem::take(&mut self.files);
            self.rng.shuffle(&mut files);
            self.files = files;
        }
        let file = self.files[self.next];
        self.next += 1;
        let k = self.rng.below(self.sites[file].len());
        let site = &self.sites[file][k];
        let on = !self.toggled[file][k];
        self.toggled[file][k] = on;
        let hi = if on { site.hi - 1 } else { site.hi };
        let src = &mut self.sources[site.file];
        let mut text = String::with_capacity(src.text.len());
        for (i, line) in src.text.lines().enumerate() {
            if i == site.line {
                let (head, _) = line.rsplit_once(',').expect("edit site has two bounds");
                text.push_str(&format!("{head}, {hi}"));
            } else {
                text.push_str(line);
            }
            text.push('\n');
        }
        src.text = text;
        file
    }
}
