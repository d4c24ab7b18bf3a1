//! Seeded incremental oracle: a long-lived [`AnalysisSession`] driven
//! through a seeded edit script over a generated multi-file program must,
//! after every step, equal a cold [`Analysis::analyze`] of the same
//! sources in rows, `.rgn`/`.dgn`/`.cfg`, degradations and lint findings,
//! at one and at four worker threads.
//!
//! The programs are shaped to stress call-site reuse: `main` and a
//! mid-level caller `mid` call the workers one to three times each, so
//! one callee's records reach a caller through several call sites and
//! through two levels; the workers share a COMMON block; one worker takes
//! a formal array and a constant scalar, so translation substitutes. The
//! script edits a worker's loop bound, edits a worker called at two sites
//! of one caller, adds or removes a call, adds a global, reorders the
//! files, renames a worker, and persists the session and reloads it into
//! a fresh one.
//!
//! The case count defaults to a few seconds' worth; set `PROPTEST_CASES`
//! to run more.

use araa::{Analysis, AnalysisOptions, AnalysisSession};
use lint::LintOptions;
use proptest::prelude::*;
use support::testdir::TestDir;
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
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Call {
    Mid,
    /// A worker by index; the formal worker gets `(array a?, constant)`.
    Worker(usize, bool, i64),
}

#[derive(Debug, Clone)]
struct Model {
    workers: Vec<Worker>,
    main_calls: Vec<Call>,
    mid_calls: Vec<Call>,
    /// File order, as indices into `files()` before reordering: 0 is
    /// `main.f`, 1 is `mid.f`, `2 + w` is worker `w`'s file.
    order: Vec<usize>,
    next_global: usize,
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
        Model { workers, main_calls, mid_calls, order: (0..n + 2).collect(), next_global: 0 }
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

    fn render_worker(&self, w: &Worker) -> String {
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
        s.push_str("  integer i\n");
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
        s.push_str("end\n");
        s
    }

    fn sources(&self) -> Vec<GenSource> {
        let main = format!(
            "program main\n{SHARED}  integer i\n  do i = 1, 5\n    a(i) = 0.0\n  end do\n{}end\n",
            self.render_calls(&self.main_calls)
        );
        let mid = format!(
            "subroutine mid\n{SHARED}  b(1) = 1.0\n{}end\n",
            self.render_calls(&self.mid_calls)
        );
        let mut files = vec![GenSource::fortran("main.f", main), GenSource::fortran("mid.f", mid)];
        for (w, wk) in self.workers.iter().enumerate() {
            files.push(GenSource::fortran(format!("w{w}.f"), self.render_worker(wk)));
        }
        self.order.iter().map(|&i| files[i].clone()).collect()
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
    PersistAndLoad,
}

/// Applies `step` to the model; returns a label for failure messages.
fn apply(step: Step, m: &mut Model, rng: &mut Rng, round: usize) -> String {
    match step {
        Step::Bound => {
            let w = rng.below(m.workers.len());
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
            let nw = m.workers.len();
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
                let (w, on_a) = (rng.below(nw), rng.below(2) == 0);
                let call = Call::Worker(w, on_a, 10 + rng.below(80) as i64);
                calls.insert(at, call);
                format!("call added to {}", if in_mid { "mid" } else { "main" })
            }
        }
        Step::AddGlobal => {
            let w = rng.below(m.workers.len());
            let g = m.next_global;
            m.next_global += 1;
            m.workers[w].globals.push(g);
            format!("global e{g} added to {}", m.workers[w].name)
        }
        Step::Reorder => {
            rng.shuffle(&mut m.order);
            "file reorder".to_string()
        }
        Step::Rename => {
            let w = rng.below(m.workers.len());
            m.workers[w].name = format!("w{w}r{round}");
            format!("rename to {}", m.workers[w].name)
        }
        Step::PersistAndLoad => "persist and load".to_string(),
    }
}

fn opts(threads: usize) -> AnalysisOptions {
    AnalysisOptions::builder().threads(threads).build()
}

/// Asserts the session's analysis equals a cold run in every artifact.
fn assert_matches_cold(session: &AnalysisSession, sources: &[GenSource], threads: usize, at: &str) {
    let cold = Analysis::analyze(sources, opts(threads)).expect("cold run");
    assert!(cold.degradations.is_empty(), "{at}: program degrades: {:?}", cold.degradations);
    let warm = session.analysis().expect("session keeps its analysis");
    assert_eq!(warm.rows, cold.rows, "{at} (threads {threads}): rows diverge");
    assert_eq!(warm.rgn_document(), cold.rgn_document(), "{at}: .rgn diverges");
    assert_eq!(warm.dgn_document(), cold.dgn_document(), "{at}: .dgn diverges");
    assert_eq!(warm.cfg_document(), cold.cfg_document(), "{at}: .cfg diverges");
    assert_eq!(warm.degradations, cold.degradations, "{at}: degradations diverge");
    let lint_opts = LintOptions::default();
    assert_eq!(
        lint::run(warm, &lint_opts).findings,
        lint::run(&cold, &lint_opts).findings,
        "{at}: lint findings diverge"
    );
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
        Step::PersistAndLoad,
    ];
    rng.shuffle(&mut steps);
    let dirs = [TestDir::new("edit-oracle-t1"), TestDir::new("edit-oracle-t4")];
    let mut sessions: Vec<(usize, AnalysisSession)> = [1, 4]
        .iter()
        .zip(&dirs)
        .map(|(&t, d)| (t, AnalysisSession::with_cache_dir(opts(t), d.path())))
        .collect();
    let sources = model.sources();
    for (t, s) in &mut sessions {
        s.update(&sources).expect("cold update");
        assert_matches_cold(s, &sources, *t, "cold start");
    }
    // Every kind of step once, in seeded order, then one more bound edit
    // so the step after a reload is always an edit.
    for (round, step) in steps.into_iter().chain([Step::Bound]).enumerate() {
        let label = apply(step, &mut model, &mut rng, round);
        let at = format!("seed {seed}, step {round} ({label})");
        let sources = model.sources();
        for ((t, s), dir) in sessions.iter_mut().zip(&dirs) {
            if let Step::PersistAndLoad = step {
                assert!(s.persist(), "{at}: persist failed: {:?}", s.cache_incidents());
                let mut fresh = AnalysisSession::with_cache_dir(opts(*t), dir.path());
                assert!(fresh.load(), "{at}: load failed: {:?}", fresh.cache_incidents());
                assert!(fresh.cache_incidents().is_empty(), "{at}: {:?}", fresh.cache_incidents());
                *s = fresh;
            }
            s.update(&sources).unwrap_or_else(|e| panic!("{at}: update failed: {e}"));
            assert_matches_cold(s, &sources, *t, &at);
        }
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
