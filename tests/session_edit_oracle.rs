//! Seeded incremental oracle: a long-lived [`AnalysisSession`] driven
//! through a seeded edit script over a generated multi-file program must,
//! after every step, equal a cold [`Analysis::analyze`] of the same
//! sources in rows, `.rgn`/`.dgn`/`.cfg` and degradations, and hold a
//! `Program` equal to a cold assembly, at one, four and eight worker
//! threads. Each session carries one [`LintCache`] across every step,
//! reloads included: lint through it equals a cold lint of the cold run
//! in findings, `suppressed` and degradations, and counts every procedure
//! once, relinted, reused or degraded.
//!
//! The programs are shaped to stress call-site reuse: `main` and a
//! mid-level caller `mid` call the workers one to three times each, so
//! one callee's records reach a caller through several call sites and
//! through two levels; the workers share a COMMON block; one worker takes
//! a formal array and a constant scalar, so translation substitutes; one
//! worker alone declares the COMMON array `r`, which the others name
//! through `common` only. The script edits a worker's loop bound, edits a
//! worker called at two sites of one caller, adds or removes a call, adds
//! a global, reorders the files, renames a worker, splits a file in two,
//! merges two files, deletes a worker with its calls, adds a local (which
//! renumbers every later file), reshapes `r`, toggles a seeded defect in
//! a worker (an out-of-bounds store to a shared array, which its callers
//! report too, and a dead store to a local array), and persists the
//! session and reloads it into a fresh one, with one entry file flipped or
//! deleted in between or none. Every save encodes or carries each procedure once
//! and leaves a directory that verifies clean.
//!
//! The case count defaults to a few seconds' worth; set `PROPTEST_CASES`
//! to run more.

use araa::{Analysis, AnalysisOptions, AnalysisSession};
use lint::{LintCache, LintOptions, LintReport};
use proptest::prelude::*;
use support::obs::{self, ClockKind, Collector, Counter};
use support::testdir::TestDir;
use whirl::Program;
use workloads::GenSource;

/// SplitMix64: every choice of one case derives from its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[derive(Debug, Clone)]
struct Worker {
    name: String,
    /// Loop bounds over the shared arrays (the formal worker's upper bound
    /// is its scalar formal instead).
    lo: i64,
    hi: i64,
    /// Takes `(x, n)`: a formal array and a scalar bound.
    formal: bool,
    /// Whether the loop writes `a` (else `b`) and reads the other array.
    writes_a: bool,
    /// Extra COMMON arrays this worker declares and writes, by number.
    globals: Vec<usize>,
    /// Local arrays this worker declares and writes, by number.
    locals: Vec<usize>,
    /// Carries the seeded defects: `dst(101)` written past the shared
    /// arrays' 100 elements, and the local `dz` written but never read.
    /// Every worker declares `dz`, so a toggle leaves the symbol table,
    /// and with it every revision the edit does not reach, as it was.
    defect: bool,
    /// False once the worker and its calls are deleted.
    live: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Call {
    Mid,
    /// A worker by index; the formal worker gets `(array a?, constant)`.
    Worker(usize, bool, i64),
}

/// A program unit of the model: `main`, `mid`, or a worker by index.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Unit {
    Main,
    Mid,
    Worker(usize),
}

#[derive(Debug, Clone)]
struct Model {
    workers: Vec<Worker>,
    main_calls: Vec<Call>,
    mid_calls: Vec<Call>,
    /// The source files in order: a name and the units it holds.
    files: Vec<(String, Vec<Unit>)>,
    next_global: usize,
    next_local: usize,
    /// Worker `r_owner` alone declares the COMMON array `r(r_extent)`;
    /// every other worker names it through `common /rsh/ r` and reads it.
    r_owner: usize,
    r_extent: i64,
}

const SHARED: &str = "  real a(100)\n  real b(100)\n  common /shr/ a, b\n";

impl Model {
    fn generate(rng: &mut Rng) -> Model {
        let n = 3 + rng.below(3);
        let formal = rng.below(n);
        let workers: Vec<Worker> = (0..n)
            .map(|w| Worker {
                name: format!("w{w}"),
                lo: 2 + rng.below(4) as i64,
                hi: 90 + rng.below(10) as i64,
                formal: w == formal,
                writes_a: rng.below(2) == 0,
                globals: Vec::new(),
                locals: Vec::new(),
                defect: false,
                live: true,
            })
            .collect();
        let mut main_calls = vec![Call::Mid];
        let mut mid_calls = Vec::new();
        // One worker is called twice by the same caller, so an edit of it
        // goes stale at two sites of one caller at once.
        let twice = rng.below(n);
        let twice_in_mid = rng.below(2) == 0;
        for w in 0..n {
            let calls = if w == twice { 2 } else { 1 + rng.below(3) };
            for _ in 0..calls {
                let call = Call::Worker(w, rng.below(2) == 0, 10 + rng.below(80) as i64);
                let in_mid = if w == twice { twice_in_mid } else { rng.below(2) == 0 };
                if in_mid {
                    mid_calls.push(call);
                } else {
                    main_calls.push(call);
                }
            }
        }
        rng.shuffle(&mut main_calls);
        rng.shuffle(&mut mid_calls);
        // One file per unit, except that the last two workers share one,
        // so there is a file to split from the start.
        let mut files = vec![
            ("main.f".to_string(), vec![Unit::Main]),
            ("mid.f".to_string(), vec![Unit::Mid]),
        ];
        for w in 0..n - 1 {
            files.push((format!("w{w}.f"), vec![Unit::Worker(w)]));
        }
        files[n].1.push(Unit::Worker(n - 1));
        Model {
            workers,
            main_calls,
            mid_calls,
            files,
            next_global: 0,
            next_local: 0,
            r_owner: rng.below(n),
            r_extent: 40,
        }
    }

    /// Indices of the workers not deleted.
    fn live(&self) -> Vec<usize> {
        (0..self.workers.len()).filter(|&w| self.workers[w].live).collect()
    }

    fn pick_live(&self, rng: &mut Rng) -> usize {
        let live = self.live();
        live[rng.below(live.len())]
    }

    fn render_calls(&self, calls: &[Call]) -> String {
        let mut s = String::new();
        for c in calls {
            match *c {
                Call::Mid => s.push_str("  call mid\n"),
                Call::Worker(w, on_a, n) => {
                    let wk = &self.workers[w];
                    if wk.formal {
                        let arr = if on_a { "a" } else { "b" };
                        s.push_str(&format!("  call {}({arr}, {n})\n", wk.name));
                    } else {
                        s.push_str(&format!("  call {}\n", wk.name));
                    }
                }
            }
        }
        s
    }

    fn render_worker(&self, wi: usize) -> String {
        let w = &self.workers[wi];
        let (dst, src) = if w.writes_a { ("a", "b") } else { ("b", "a") };
        let mut s = String::new();
        if w.formal {
            s.push_str(&format!("subroutine {}(x, n)\n  real x(100)\n  integer n\n", w.name));
        } else {
            s.push_str(&format!("subroutine {}\n", w.name));
        }
        s.push_str(SHARED);
        for g in &w.globals {
            s.push_str(&format!("  real e{g}(50)\n  common /ext{g}/ e{g}\n"));
        }
        if wi == self.r_owner {
            s.push_str(&format!("  real r({})\n", self.r_extent));
        }
        s.push_str("  common /rsh/ r\n");
        for l in &w.locals {
            s.push_str(&format!("  real t{l}(10)\n"));
        }
        s.push_str("  real dz(10)\n  integer i\n");
        if w.formal {
            s.push_str(&format!("  do i = {}, n\n    x(i) = {src}(i) + 1.0\n  end do\n", w.lo));
        } else {
            s.push_str(&format!(
                "  do i = {}, {}\n    {dst}(i) = {src}(i - 1) + 1.0\n  end do\n",
                w.lo, w.hi
            ));
        }
        for g in &w.globals {
            s.push_str(&format!("  e{g}(1) = {dst}(1)\n"));
        }
        if wi == self.r_owner {
            s.push_str(&format!("  r(1) = {src}(1)\n"));
        } else {
            s.push_str(&format!("  {dst}(2) = r(2)\n"));
        }
        for l in &w.locals {
            s.push_str(&format!("  t{l}(1) = {src}(1)\n"));
        }
        if w.defect {
            s.push_str(&format!("  {dst}(101) = 0.0\n  dz(1) = 1.0\n"));
        }
        s.push_str("end\n");
        s
    }

    fn render(&self, unit: Unit) -> String {
        match unit {
            Unit::Main => format!(
                "program main\n{SHARED}  integer i\n  do i = 1, 5\n    a(i) = 0.0\n  end do\n{}end\n",
                self.render_calls(&self.main_calls)
            ),
            Unit::Mid => format!(
                "subroutine mid\n{SHARED}  b(1) = 1.0\n{}end\n",
                self.render_calls(&self.mid_calls)
            ),
            Unit::Worker(w) => self.render_worker(w),
        }
    }

    fn sources(&self) -> Vec<GenSource> {
        self.files
            .iter()
            .map(|(name, units)| {
                GenSource::fortran(name.clone(), units.iter().map(|&u| self.render(u)).collect::<String>())
            })
            .collect()
    }

    /// Toggles worker `w`'s loop bound (the formal worker's lower bound).
    fn edit_bound(&mut self, w: usize) {
        let wk = &mut self.workers[w];
        if wk.formal {
            wk.lo = if wk.lo == 2 { 3 } else { 2 };
        } else {
            wk.hi = if wk.hi == 100 { 99 } else { wk.hi + 1 };
        }
    }

    /// A worker some caller calls at two or more sites.
    fn twice_called(&self) -> usize {
        (0..self.workers.len())
            .find(|&w| {
                [&self.main_calls, &self.mid_calls]
                    .iter()
                    .any(|calls| calls.iter().filter(|c| is_worker(c, w)).count() >= 2)
            })
            .expect("the generator calls one worker twice from one caller")
    }

    /// Merges two files into the first of them; returns a label.
    fn merge(&mut self, rng: &mut Rng) -> String {
        let i = rng.below(self.files.len());
        let mut j = rng.below(self.files.len() - 1);
        if j >= i {
            j += 1;
        }
        let (gone, units) = self.files.remove(j);
        let into = if j < i { i - 1 } else { i };
        self.files[into].1.extend(units);
        format!("{gone} merged into {}", self.files[into].0)
    }
}

fn is_worker(c: &Call, w: usize) -> bool {
    matches!(c, Call::Worker(x, ..) if *x == w)
}

#[derive(Debug, Clone, Copy)]
enum Step {
    Bound,
    TwiceCalled,
    AddOrRemoveCall,
    AddGlobal,
    Reorder,
    Rename,
    Split,
    Merge,
    Delete,
    AddLocal,
    Reshape,
    Defect,
    PersistAndLoad,
}

/// Applies `step` to the model; returns a label for failure messages.
fn apply(step: Step, m: &mut Model, rng: &mut Rng, round: usize) -> String {
    match step {
        Step::Bound => {
            let w = m.pick_live(rng);
            m.edit_bound(w);
            format!("bound edit of {}", m.workers[w].name)
        }
        Step::TwiceCalled => {
            let w = m.twice_called();
            m.edit_bound(w);
            format!("bound edit of twice-called {}", m.workers[w].name)
        }
        Step::AddOrRemoveCall => {
            let in_mid = rng.below(2) == 0;
            let w = m.pick_live(rng);
            let calls = if in_mid { &mut m.mid_calls } else { &mut m.main_calls };
            // Never remove the last call of the twice-called worker's pair.
            let removable: Vec<usize> = (0..calls.len())
                .filter(|&i| match calls[i] {
                    Call::Worker(w, ..) => calls.iter().filter(|c| is_worker(c, w)).count() != 2,
                    Call::Mid => false,
                })
                .collect();
            if !removable.is_empty() && rng.below(2) == 0 {
                let at = removable[rng.below(removable.len())];
                calls.remove(at);
                format!("call removed from {}", if in_mid { "mid" } else { "main" })
            } else {
                let at = rng.below(calls.len() + 1);
                let call = Call::Worker(w, rng.below(2) == 0, 10 + rng.below(80) as i64);
                calls.insert(at, call);
                format!("call added to {}", if in_mid { "mid" } else { "main" })
            }
        }
        Step::AddGlobal => {
            let w = m.pick_live(rng);
            let g = m.next_global;
            m.next_global += 1;
            m.workers[w].globals.push(g);
            format!("global e{g} added to {}", m.workers[w].name)
        }
        Step::Reorder => {
            rng.shuffle(&mut m.files);
            "file reorder".to_string()
        }
        Step::Rename => {
            let w = m.pick_live(rng);
            m.workers[w].name = format!("w{w}r{round}");
            format!("rename to {}", m.workers[w].name)
        }
        Step::Split => {
            let multi: Vec<usize> = (0..m.files.len()).filter(|&f| m.files[f].1.len() > 1).collect();
            if multi.is_empty() {
                return format!("{} (nothing to split)", m.merge(rng));
            }
            let f = multi[rng.below(multi.len())];
            let at = 1 + rng.below(m.files[f].1.len() - 1);
            let moved = m.files[f].1.split_off(at);
            let name = format!("s{round}.f");
            m.files.insert(f + 1, (name.clone(), moved));
            format!("{} split, tail into {name}", m.files[f].0)
        }
        Step::Merge => m.merge(rng),
        Step::Delete => {
            // Keep the twice-called worker (the step above needs it) and
            // the one declaring `r` (the others read it).
            let keep = [m.twice_called(), m.r_owner];
            let candidates: Vec<usize> = m.live().into_iter().filter(|w| !keep.contains(w)).collect();
            let w = candidates[rng.below(candidates.len())];
            m.workers[w].live = false;
            m.main_calls.retain(|c| !is_worker(c, w));
            m.mid_calls.retain(|c| !is_worker(c, w));
            for (_, units) in &mut m.files {
                units.retain(|&u| u != Unit::Worker(w));
            }
            m.files.retain(|(_, units)| !units.is_empty());
            format!("{} deleted with its calls", m.workers[w].name)
        }
        Step::AddLocal => {
            let w = m.pick_live(rng);
            let l = m.next_local;
            m.next_local += 1;
            m.workers[w].locals.push(l);
            format!("local t{l} added to {}", m.workers[w].name)
        }
        Step::Reshape => {
            m.r_extent = if m.r_extent == 40 { 60 } else { 40 };
            format!("r reshaped to {} by {}", m.r_extent, m.workers[m.r_owner].name)
        }
        Step::Defect => {
            let w = m.pick_live(rng);
            let wk = &mut m.workers[w];
            wk.defect = !wk.defect;
            format!("defect {} in {}", if wk.defect { "seeded" } else { "removed" }, wk.name)
        }
        Step::PersistAndLoad => "persist and load".to_string(),
    }
}

fn opts(threads: usize) -> AnalysisOptions {
    AnalysisOptions::builder().threads(threads).build()
}

/// Asserts the session's analysis equals a cold run in every artifact, and
/// its program equals a cold assembly of the same sources; returns the
/// lint report through `cache`.
fn assert_matches_cold(
    session: &AnalysisSession,
    cache: &mut LintCache,
    sources: &[GenSource],
    threads: usize,
    at: &str,
) -> LintReport {
    let cold = Analysis::analyze(sources, opts(threads)).expect("cold run");
    assert!(cold.degradations.is_empty(), "{at}: program degrades: {:?}", cold.degradations);
    let warm = session.analysis().expect("session keeps its analysis");
    assert_eq!(warm.rows, cold.rows, "{at} (threads {threads}): rows diverge");
    let rgn = cold.rgn_document();
    assert_eq!(warm.rgn_document(), rgn, "{at}: .rgn diverges");
    // Twice, so the second read comes from the session's memo.
    for read in 1..=2 {
        let memo = session.rgn_document();
        assert_eq!(memo, Some(rgn.as_str()), "{at}: session .rgn, read {read}");
    }
    assert_eq!(warm.dgn_document(), cold.dgn_document(), "{at}: .dgn diverges");
    assert_eq!(warm.cfg_document(), cold.cfg_document(), "{at}: .cfg diverges");
    assert_eq!(warm.degradations, cold.degradations, "{at}: degradations diverge");
    let lint_opts = LintOptions { threads };
    let report = lint::run_with_cache(warm, &lint_opts, cache);
    let oracle = lint::run(&cold, &lint_opts);
    assert_eq!(report.findings, oracle.findings, "{at}: lint findings diverge");
    assert_eq!(report.suppressed, oracle.suppressed, "{at}: lint suppressed diverges");
    assert_eq!(report.degradations, oracle.degradations, "{at}: lint degradations diverge");
    assert_eq!(
        report.procs_linted + report.procs_cached + report.degradations.len(),
        warm.program.procedure_count(),
        "{at}: lint counts every procedure once"
    );
    assert_program_matches_cold(&warm.program, sources, at);
    report
}

/// Asserts `program` equals a cold assembly of `sources`, table by table.
fn assert_program_matches_cold(program: &Program, sources: &[GenSource], at: &str) {
    let parsed: Vec<_> = sources
        .iter()
        .map(|s| frontend::parse_source_with_recovery(&s.into()))
        .collect();
    let (cold, _) = frontend::assemble_to_h_with_recovery(&parsed, opts(1).layout_base)
        .expect("cold assembly");
    assert!(program.interner == cold.interner, "{at}: interners diverge");
    assert!(program.symbols == cold.symbols, "{at}: symbol tables diverge");
    assert!(program.types == cold.types, "{at}: type tables diverge");
    assert_eq!(program.procedure_count(), cold.procedure_count(), "{at}: procedure counts");
    for (id, p) in cold.procedures.iter_enumerated() {
        assert!(
            program.procedure(id) == p,
            "{at}: procedure `{}` diverges",
            cold.name_of(p.name)
        );
    }
}

/// Saves the session and checks the save: every procedure encoded or
/// carried once, and a directory that verifies clean with no orphans.
fn persist_checked(s: &mut AnalysisSession, at: &str) {
    let c = Collector::new(ClockKind::Logical);
    {
        let _g = obs::attach(c.clone());
        assert!(s.persist(), "{at}: persist failed: {:?}", s.cache_incidents());
    }
    let procs = s.analysis().expect("analysis").program.procedure_count() as u64;
    let saved = c.counter(Counter::StoreEncoded) + c.counter(Counter::StoreCarried);
    assert_eq!(saved, procs, "{at}: a save encodes or carries each procedure once");
    let report = s.store().expect("store").verify().expect("verify");
    assert!(report.clean(), "{at}: {:?}", report.problems);
    assert_eq!(report.orphans, 0, "{at}: orphan entries after a save");
}

/// Entry files of a cache directory, by name.
fn entry_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .expect("cache dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            let n = p.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            n.len() == 22 && n.starts_with('e') && n.ends_with(".araa")
        })
        .collect();
    out.sort();
    out
}

/// What happens to the cache between a persist and the reload.
#[derive(Debug, Clone, Copy)]
enum Damage {
    None,
    /// One byte of the `n`th entry file (mod their count) flipped.
    Flip(usize),
    /// The `n`th entry file deleted.
    Delete(usize),
}

/// Persists `s`, applies `damage` to its cache, and replaces `s` with a
/// fresh session loaded from it. The load reports no incident, or exactly
/// one naming the damaged entry's procedure, which the next update alone
/// recomputes (`sources` is what the session was last updated with).
fn persist_and_reload(
    s: &mut AnalysisSession,
    cache: &mut LintCache,
    dir: &TestDir,
    threads: usize,
    damage: Damage,
    sources: &[GenSource],
    at: &str,
) {
    persist_checked(s, at);
    let entries = entry_files(dir.path());
    match damage {
        Damage::None => {}
        Damage::Flip(n) => {
            let path = &entries[n % entries.len()];
            let mut bytes = std::fs::read(path).expect("entry");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x20;
            std::fs::write(path, bytes).expect("entry");
        }
        Damage::Delete(n) => std::fs::remove_file(&entries[n % entries.len()]).expect("entry"),
    }
    let mut fresh = AnalysisSession::with_cache_dir(opts(threads), dir.path());
    assert!(fresh.load(), "{at}: load failed: {:?}", fresh.cache_incidents());
    let incidents = fresh.cache_incidents().to_vec();
    let delta = fresh.update(sources).unwrap_or_else(|e| panic!("{at}: update failed: {e}"));
    if let Damage::None = damage {
        assert!(incidents.is_empty(), "{at}: {incidents:?}");
        assert!(delta.summaries_recomputed.is_empty(), "{at}: {delta:?}");
    } else {
        let word = if let Damage::Flip(_) = damage { "rejected" } else { "missing" };
        assert_eq!(incidents.len(), 1, "{at}: one damaged entry, one incident: {incidents:?}");
        let proc = incidents[0]
            .detail
            .strip_prefix("cache entry for `")
            .and_then(|rest| rest.split_once('`'))
            .filter(|(_, rest)| rest.contains(word))
            .map(|(proc, _)| proc.to_string())
            .unwrap_or_else(|| panic!("{at}: not an entry incident: {incidents:?}"));
        assert_eq!(delta.summaries_recomputed, vec![proc], "{at}: {delta:?}");
    }
    // Revisions are never persisted: the loaded session shares none with
    // the carried cache.
    let report = assert_matches_cold(&fresh, cache, sources, threads, at);
    assert_eq!(report.procs_cached, 0, "{at}: a reloaded session relints everything");
    *s = fresh;
}

fn run_script(seed: u64) {
    let mut rng = Rng(seed);
    let mut model = Model::generate(&mut rng);
    let mut steps = [
        Step::Bound,
        Step::TwiceCalled,
        Step::AddOrRemoveCall,
        Step::AddGlobal,
        Step::Reorder,
        Step::Rename,
        Step::Split,
        Step::Merge,
        Step::Delete,
        Step::AddLocal,
        Step::Reshape,
        Step::Defect,
        Step::PersistAndLoad,
    ];
    rng.shuffle(&mut steps);
    const THREADS: [usize; 3] = [1, 4, 8];
    let dirs = THREADS.map(|t| TestDir::new(&format!("edit-oracle-t{t}")));
    let mut sessions: Vec<(usize, AnalysisSession, LintCache)> = THREADS
        .iter()
        .zip(&dirs)
        .map(|(&t, d)| (t, AnalysisSession::with_cache_dir(opts(t), d.path()), LintCache::empty()))
        .collect();
    let mut sources = model.sources();
    for (t, s, cache) in &mut sessions {
        s.update(&sources).expect("cold update");
        assert_matches_cold(s, cache, &sources, *t, "cold start");
    }
    // Every kind of step once, in seeded order, then one more bound edit
    // so the step after a reload is always an edit.
    for (round, step) in steps.into_iter().chain([Step::Bound]).enumerate() {
        let label = apply(step, &mut model, &mut rng, round);
        let damage = match rng.below(3) {
            0 => Damage::None,
            1 => Damage::Flip(rng.below(64)),
            _ => Damage::Delete(rng.below(64)),
        };
        let at = format!("seed {seed}, step {round} ({label})");
        for ((t, s, cache), dir) in sessions.iter_mut().zip(&dirs) {
            if let Step::PersistAndLoad = step {
                let at = format!("{at}, {damage:?}");
                persist_and_reload(s, cache, dir, *t, damage, &sources, &at);
                continue;
            }
            let next = model.sources();
            s.update(&next).unwrap_or_else(|e| panic!("{at}: update failed: {e}"));
            let report = assert_matches_cold(s, cache, &next, *t, &at);
            // A bound edit leaves the workers it does not reach cached.
            if let Step::Bound = step {
                assert!(report.procs_cached > 0, "{at}: nothing reused: {}", report.render());
            }
            // A reshape is checked again through the cache: the save must
            // carry fingerprints of the reshaped program.
            if let Step::Reshape = step {
                let at = format!("{at}, reloaded");
                persist_and_reload(s, cache, dir, *t, Damage::None, &next, &at);
            }
        }
        sources = model.sources();
    }
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// A seeded edit script: after every step the session equals a cold
    /// run at one and at four threads.
    #[test]
    fn seeded_edit_scripts_match_cold_runs(seed in 0u64..u64::MAX) {
        run_script(seed);
    }
}
