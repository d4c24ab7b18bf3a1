//! `perfbench --workload <lu_paper|synth_1k|irregular_600> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Builds the workload's sources from the seed, sets up (timed, several
//! times), then runs a closed loop that interleaves every op kind round
//! by round until `--seconds` have passed, checking outputs outside the
//! timers. The last stdout line is one JSON object: end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`.

mod alloc;
mod serve;
mod staged;

use araa::{Analysis, AnalysisDelta, AnalysisOptions, AnalysisSession};
use lint::{LintCache, LintOptions};
use perfbench::calib::{self, Pinning};
use perfbench::gen::{self, Defect, EditRotation, Rng};
use perfbench::{checks, trace::Tracer};
use serve::Daemon;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use support::json::Value;
use support::obs::{self, ClockKind, Collector, Counter};
use workloads::GenSource;

#[global_allocator]
static GLOBAL: alloc::Tracking = alloc::Tracking;

/// Timed set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// One in this many edit, warm-start and serve ops gets the deep output
/// check (a cold re-analysis to compare against), chosen by the seed.
const DEEP_CHECK_EVERY: usize = 16;
const MIB: f64 = (1u64 << 20) as f64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    LuPaper,
    Synth1k,
    Irregular600,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "lu_paper" => Some(Workload::LuPaper),
            "synth_1k" => Some(Workload::Synth1k),
            "irregular_600" => Some(Workload::Irregular600),
            _ => None,
        }
    }

    /// Serve projects kept warm in the daemon.
    fn projects(self) -> usize {
        match self {
            Workload::LuPaper => 3,
            _ => 1,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(k, v);
    }
    let get = |k: &str| kv.get(k).cloned().ok_or_else(|| format!("missing {k}"));
    let w = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(&w).ok_or_else(|| format!("unknown workload {w}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    })
}

fn main() {
    // Before any thread exists, so every thread inherits the pinning.
    let pinning = calib::pin_process();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".perfbench_work").join(format!("run-{}", std::process::id()));
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("creating {}: {e}", work.display()))
        .and_then(|()| run(&args, pinning, &work));
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn opts() -> AnalysisOptions {
    AnalysisOptions::builder().threads(1).build()
}

fn lint_opts() -> LintOptions {
    LintOptions { threads: 1 }
}

fn inputs(w: Workload, seed: u64) -> (Vec<GenSource>, Vec<Defect>) {
    match w {
        Workload::LuPaper => (gen::lu_paper(), Vec::new()),
        Workload::Synth1k => (gen::synth_1k(seed), Vec::new()),
        Workload::Irregular600 => gen::irregular_600(seed),
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Gives `to` the files of `from` (but its lock) as hard links. The cache
/// never rewrites a file in place: a save writes a new file and renames it
/// over the old name, and GC unlinks. So a link is as good as a copy for a
/// second session, and it costs no data I/O.
fn link_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for e in std::fs::read_dir(from)
        .map_err(|e| e.to_string())?
        .flatten()
    {
        let is_file = e.metadata().is_ok_and(|m| m.is_file());
        if is_file && e.file_name() != "LOCK" {
            std::fs::hard_link(e.path(), to.join(e.file_name())).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// A serve project: its name and its own edit rotation.
struct Project {
    name: String,
    rotation: EditRotation,
}

/// Everything set-up builds and the loop runs against.
struct Fixture {
    base: Vec<GenSource>,
    defects: Vec<Defect>,
    session: AnalysisSession,
    edit_dir: PathBuf,
    lint_cache: LintCache,
    rotation: EditRotation,
    warm_dir: PathBuf,
    projects: Vec<Project>,
    daemon: Daemon,
}

/// One set-up: generate sources, cold-seed the edit session, its lint
/// cache and the warm-start cache dir, then start the daemon and warm
/// every serve project. Each step is a root span of `tr`.
fn setup(args: &Args, dir: &Path, tr: &mut Tracer) -> Result<Fixture, String> {
    let (base, defects) = tr.time("setup.inputs", || inputs(args.workload, args.seed));
    let edit_dir = dir.join("edit");
    let mut session = tr.time("setup.session", || {
        let mut session = AnalysisSession::with_cache_dir(opts(), &edit_dir);
        session
            .update(&base)
            .map(|_| session)
            .map_err(|e| format!("seed update: {e}"))
    })?;
    if !tr.time_io("setup.persist", || session.persist()) {
        return Err(format!(
            "seed persist failed: {:?}",
            session.cache_incidents()
        ));
    }
    let analysis = session.analysis().ok_or("no analysis after seeding")?;
    let lint_cache = tr.time("setup.lint", || {
        let mut cache = LintCache::empty();
        lint::run_with_cache(analysis, &lint_opts(), &mut cache);
        cache
    });
    let warm_dir = dir.join("warm");
    tr.time_io("setup.link", || link_dir(&edit_dir, &warm_dir))?;
    let daemon = tr.time("setup.daemon", || Daemon::start(&dir.join("s.sock")))?;
    let mut projects = Vec::new();
    for p in 0..args.workload.projects() {
        let name = format!("p{p}");
        tr.time("setup.project", || {
            daemon.call(&serve::analyze_req("analyze", &name, &base))?;
            daemon.call(&serve::plain_req("query-rgn", &name))
        })?;
        let rotation = EditRotation::new(&base, args.seed.wrapping_add(p as u64 + 1));
        projects.push(Project { name, rotation });
    }
    let rotation = EditRotation::new(&base, args.seed);
    Ok(Fixture {
        base,
        defects,
        session,
        edit_dir,
        lint_cache,
        rotation,
        warm_dir,
        projects,
        daemon,
    })
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Cold,
    /// An edit, then `persist()`.
    Edit,
    Warm,
    Read,
    Write,
}

/// One round: every op kind, interleaved so a burst of neighbour load
/// spreads over all metrics instead of landing on one. The expensive
/// kinds come once or twice, so the heavy workloads still get a median
/// over a dozen or more ops of each kind in a 30 s run.
const ROUND: [Op; 8] = [
    Op::Cold,
    Op::Read,
    Op::Edit,
    Op::Write,
    Op::Warm,
    Op::Read,
    Op::Edit,
    Op::Read,
];

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank-interpolated quantile; NaN for no samples.
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The run's state beyond the fixture: samples, failures, references.
struct Run {
    tr: Tracer,
    rng: Rng,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    /// The cold `.rgn` of the unedited sources (set by the first cold op).
    base_rgn: Option<String>,
    /// Per serve project: its current sources' cold `.rgn`, if computed.
    project_rgn: Vec<Option<String>>,
    seen: BTreeMap<&'static str, usize>,
    deltas: Vec<AnalysisDelta>,
    lint_reports: Vec<(usize, usize)>,
}

impl Run {
    fn outcome(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            if self.first_error.is_none() {
                eprintln!("perfbench: check failed: {e}");
                self.first_error = Some(e);
            }
        }
    }

    /// Whether this op gets the deep check: the first of its kind always,
    /// then a seeded one in `DEEP_CHECK_EVERY`.
    fn deep(&mut self, kind: &'static str) -> bool {
        let n = self.seen.entry(kind).or_default();
        *n += 1;
        *n == 1 || self.rng.below(DEEP_CHECK_EVERY) == 0
    }
}

fn cold_rgn(sources: &[GenSource]) -> Result<String, String> {
    Analysis::analyze(sources, opts())
        .map(|a| a.rgn_document())
        .map_err(|e| e.to_string())
}

/// The content checks of one workload on a cold analysis of its unedited
/// sources.
fn check_cold_content(w: Workload, a: &Analysis, defects: &[Defect]) -> Result<(), String> {
    checks::clean_analysis(a)?;
    let report = lint::run(a, &lint_opts());
    match w {
        Workload::LuPaper => {
            checks::lu_tables(a)?;
            checks::clean_lint(&report)
        }
        Workload::Synth1k => match report.findings.first() {
            Some(f) => Err(format!("synth_1k must be finding-free: {f}")),
            None => checks::clean_lint(&report),
        },
        Workload::Irregular600 => checks::seeded_defects(&report, defects),
    }
}

fn op_cold(run: &mut Run, fx: &Fixture, w: Workload) -> Result<(), String> {
    let root = run.tr.enter("op.cold");
    let a = Analysis::analyze(&fx.base, opts()).map(|a| {
        let docs = [a.rgn_document(), a.dgn_document(), a.cfg_document()];
        (a, docs)
    });
    run.tr.exit(root);
    let (a, docs) = a.map_err(|e| e.to_string())?;
    match &run.base_rgn {
        None => {
            check_cold_content(w, &a, &fx.defects)?;
            run.base_rgn = Some(docs[0].clone());
        }
        Some(r) if *r != docs[0] => return Err("cold .rgn differs between runs".to_string()),
        Some(_) => checks::clean_analysis(&a)?,
    }
    Ok(())
}

fn op_edit(run: &mut Run, fx: &mut Fixture) -> Result<usize, String> {
    let file = fx.rotation.step();
    let root = run.tr.enter("op.edit");
    let u = run.tr.enter("araa.session.update");
    let delta = fx.session.update(fx.rotation.sources());
    run.tr.exit(u);
    let report = fx.session.analysis().map(|a| {
        let l = run.tr.enter("lint.warm");
        let r = lint::run_with_cache(a, &lint_opts(), &mut fx.lint_cache);
        run.tr.exit(l);
        r
    });
    run.tr.exit(root);
    let delta = delta.map_err(|e| e.to_string())?;
    let report = report.ok_or("no analysis after the edit")?;
    if let Some(d) = delta.degradations.first() {
        return Err(format!("edit degraded: {d}"));
    }
    checks::clean_lint(&report)?;
    if !run.tr.time_io("op.persist", || fx.session.persist()) {
        return Err(format!(
            "persist failed: {:?}",
            fx.session.cache_incidents()
        ));
    }
    run.lint_reports
        .push((report.procs_cached, report.procs_linted));
    if run.deep("edit") {
        let cold = Analysis::analyze(fx.rotation.sources(), opts()).map_err(|e| e.to_string())?;
        let warm = fx.session.analysis().ok_or("no analysis")?;
        if warm.rgn_document() != cold.rgn_document() {
            return Err("incremental .rgn differs from a cold analysis".to_string());
        }
        let cold_findings = lint::run(&cold, &lint_opts()).findings;
        if report.findings != cold_findings {
            return Err("cached lint findings differ from a cold lint".to_string());
        }
    }
    run.deltas.push(delta);
    Ok(file)
}

fn op_warm(run: &mut Run, fx: &Fixture, observe: bool) -> Result<(u64, u64), String> {
    let collector = observe.then(|| Collector::new(ClockKind::Monotonic));
    let guard = collector.clone().map(obs::attach);
    // `load` takes the cache dir's lock, which fsyncs the lock file.
    let root = run.tr.enter_io(if observe {
        "op.warm_start_obs"
    } else {
        "op.warm_start"
    });
    let mut s = run.tr.time("araa.session.new", || {
        AnalysisSession::with_cache_dir(opts(), &fx.warm_dir)
    });
    let loaded = run.tr.time("araa.store.load", || s.load());
    let delta = run.tr.time("araa.session.update", || s.update(&fx.base));
    run.tr.exit(root);
    drop(guard);
    if !loaded {
        return Err(format!(
            "warm start did not load: {:?}",
            s.cache_incidents()
        ));
    }
    let delta = delta.map_err(|e| e.to_string())?;
    if delta.summary_cache_misses != 0 {
        return Err(format!(
            "warm start recomputed {} procedures",
            delta.summary_cache_misses
        ));
    }
    if run.deep("warm") {
        let rgn = s.analysis().ok_or("no analysis")?.rgn_document();
        if Some(&rgn) != run.base_rgn.as_ref() {
            return Err("warm-start .rgn differs from a cold analysis".to_string());
        }
    }
    Ok(collector.map_or((0, 0), |c| {
        (
            c.counter(Counter::StorePrimed),
            c.counter(Counter::StoreRejected),
        )
    }))
}

fn op_read(run: &mut Run, fx: &Fixture, p: usize) -> Result<(), String> {
    let req = serve::plain_req("query-rgn", &fx.projects[p].name);
    let root = run.tr.enter("op.serve_read");
    let resp = fx.daemon.call(&req);
    run.tr.exit(root);
    let resp = resp?;
    if run.deep("read") {
        if run.project_rgn[p].is_none() {
            run.project_rgn[p] = Some(cold_rgn(fx.projects[p].rotation.sources())?);
        }
        if resp.get("rgn").and_then(Value::as_str) != run.project_rgn[p].as_deref() {
            return Err("served .rgn differs from a cold analysis".to_string());
        }
    }
    Ok(())
}

fn op_write(run: &mut Run, fx: &mut Fixture, p: usize) -> Result<(), String> {
    let project = &mut fx.projects[p];
    project.rotation.step();
    run.project_rgn[p] = None;
    let req = serve::analyze_req("reanalyze", &project.name, project.rotation.sources());
    let root = run.tr.enter("op.serve_write");
    let resp = fx.daemon.call(&req);
    run.tr.exit(root);
    let resp = resp?;
    if resp.get("degraded").and_then(Value::as_bool) != Some(false) {
        return Err(format!("reanalyze degraded: {}", resp.render()));
    }
    Ok(())
}

/// Extra state of the traced run.
struct Traced {
    edit: staged::EditState,
    counters: BTreeMap<&'static str, f64>,
    primed: (u64, u64),
    findings: usize,
    lines: usize,
    procedures: usize,
    nodes: usize,
    rows: usize,
    staged_edits: u64,
}

/// The traced extras that follow a cold op: an observed cold op (with a
/// `support::obs` collector attached, for counters and trace overhead),
/// the staged cold replay, the IPL breakdown, and a cold lint plus SARIF.
fn traced_after_cold(run: &mut Run, fx: &Fixture, t: &mut Traced) -> Result<(), String> {
    let c = Collector::new(ClockKind::Monotonic);
    let guard = obs::attach(c.clone());
    let root = run.tr.enter("op.cold_obs");
    let a = Analysis::analyze(&fx.base, opts()).map(|a| {
        let docs = [a.rgn_document(), a.dgn_document(), a.cfg_document()];
        (a, docs)
    });
    run.tr.exit(root);
    drop(guard);
    let (a, docs) = a.map_err(|e| e.to_string())?;
    for ctr in [
        Counter::FmEliminations,
        Counter::RegionsFmBailouts,
        Counter::RegionsIntervalRecovered,
        Counter::IpaIndexFacts,
    ] {
        t.counters.insert(ctr.name(), c.counter(ctr) as f64);
    }
    let cold = staged::cold(&mut run.tr, &fx.base, opts())?;
    if cold.docs != docs {
        return Err("staged replay output differs from Analysis::analyze".to_string());
    }
    staged::ipl_parts(&mut run.tr, &cold.analysis.program, &cold.locals);
    let root = run.tr.enter("op.lint_cold");
    let report = run.tr.time("lint.cold", || lint::run(&a, &lint_opts()));
    let sarif = run
        .tr
        .time("lint.sarif", || lint::sarif::to_sarif(&report, "perfbench"));
    run.tr.exit(root);
    std::hint::black_box(sarif);
    t.findings = report.findings.len();
    t.procedures = a.program.procedure_count();
    t.nodes = a.program.procedures.iter().map(|p| p.tree.len()).sum();
    t.rows = a.rows.len();
    t.lines = fx.base.iter().map(|s| s.text.lines().count()).sum();
    Ok(())
}

fn traced_after_edit(
    run: &mut Run,
    fx: &Fixture,
    t: &mut Traced,
    file: usize,
) -> Result<(), String> {
    t.edit.edit(&mut run.tr, fx.rotation.sources(), file)?;
    t.staged_edits += 1;
    if run.deep("staged_edit") {
        let rows = t.edit.rows();
        if fx.session.analysis().map(|a| &a.rows) != Some(&rows) {
            return Err("staged edit replay diverged from the session".to_string());
        }
    }
    Ok(())
}

fn run(args: &Args, pinning: Pinning, work: &Path) -> Result<String, String> {
    let w = args.workload;
    let mut run = Run {
        tr: Tracer::calibrated(),
        rng: Rng::new(args.seed ^ 0xc4ec),
        attempted: 0,
        failed: 0,
        first_error: None,
        base_rgn: None,
        project_rgn: vec![None; w.projects()],
        seen: BTreeMap::new(),
        deltas: Vec::new(),
        lint_reports: Vec::new(),
    };

    run.tr.set_io_probe(calib::IoProbe::new(work.to_path_buf()));

    // Set-up, timed several times; the last fixture is kept.
    let mut setup_s = Vec::new();
    let mut setup_raw_s = Vec::new();
    let mut fixture = None;
    for rep in 0..SETUP_REPS {
        drop(fixture.take());
        let fx = setup(args, &work.join(format!("setup{rep}")), &mut run.tr)?;
        let (scaled, raw) = run.tr.total_root_ms();
        setup_s.push(scaled / 1e3);
        setup_raw_s.push(raw / 1e3);
        run.tr.clear();
        fixture = Some(fx);
    }
    let mut fx = fixture.expect("at least one set-up");
    pinning.move_droppers();

    // Peak live heap of one cold op, on this thread only.
    let (cold, peak) = alloc::peak_during(|| {
        let a = Analysis::analyze(&fx.base, opts()).map(|a| {
            std::hint::black_box([a.rgn_document(), a.dgn_document(), a.cfg_document()]);
        });
        a.map_err(|e| e.to_string())
    });
    cold?;
    let cache_bytes = dir_bytes(&fx.warm_dir);

    let mut traced = if args.trace {
        Some(Traced {
            edit: staged::EditState::new(&fx.base, opts())?,
            counters: BTreeMap::new(),
            primed: (0, 0),
            findings: 0,
            lines: 0,
            procedures: 0,
            nodes: 0,
            rows: 0,
            staged_edits: 0,
        })
    } else {
        None
    };
    let metrics_req = serve::plain_req("metrics", "bench");
    let hist_before = if args.trace {
        let m = fx.daemon.call(&metrics_req)?;
        Some((
            serve::op_hist(&m, "query-rgn"),
            serve::op_hist(&m, "reanalyze"),
        ))
    } else {
        None
    };
    run.tr.clear();

    let start = Instant::now();
    let mut serve_turn = 0usize;
    while run.attempted == 0 || start.elapsed().as_secs_f64() < args.seconds {
        for op in ROUND {
            let p = serve_turn % fx.projects.len();
            let r = match op {
                Op::Cold => op_cold(&mut run, &fx, w).and_then(|()| match traced.as_mut() {
                    Some(t) => traced_after_cold(&mut run, &fx, t),
                    None => Ok(()),
                }),
                Op::Edit => op_edit(&mut run, &mut fx).and_then(|file| match traced.as_mut() {
                    Some(t) => traced_after_edit(&mut run, &fx, t, file),
                    None => Ok(()),
                }),
                Op::Warm => {
                    op_warm(&mut run, &fx, false)
                        .map(|_| ())
                        .and_then(|()| match traced.as_mut() {
                            Some(t) => op_warm(&mut run, &fx, true).map(|c| t.primed = c),
                            None => Ok(()),
                        })
                }
                Op::Read => {
                    serve_turn += 1;
                    op_read(&mut run, &fx, p)
                }
                Op::Write => {
                    serve_turn += 1;
                    op_write(&mut run, &mut fx, p)
                }
            };
            run.outcome(r);
        }
        pinning.move_droppers();
    }

    let tr = &run.tr;
    let cold = tr.root_ms("op.cold");
    let edit = tr.root_ms("op.edit");
    let warm = tr.root_ms("op.warm_start");
    let persist = tr.root_ms("op.persist");
    let read = tr.root_ms("op.serve_read");
    let write = tr.root_ms("op.serve_write");
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let mut put =
        |name: &str, v: f64, unit: &'static str| metrics.push((name.to_string(), v, unit));
    let raw = |root: &str| median(&tr.root_raw_ms(root));
    eprintln!(
        "perfbench: raw wall-clock medians: setup {:.4} s, cold {:.4} ms, edit {:.4} ms, \
         warm start {:.4} ms, persist {:.4} ms, serve read {:.4} ms, serve write {:.4} ms",
        median(&setup_raw_s),
        raw("op.cold"),
        raw("op.edit"),
        raw("op.warm_start"),
        raw("op.persist"),
        raw("op.serve_read"),
        raw("op.serve_write"),
    );
    eprintln!(
        "perfbench: samples: {SETUP_REPS} set-ups, {} cold, {} edit, {} warm start, {} persist, \
         {} serve read, {} serve write",
        cold.len(),
        edit.len(),
        warm.len(),
        persist.len(),
        read.len(),
        write.len(),
    );

    match traced {
        None => {
            put("setup_s", median(&setup_s), "s");
            put("cold_ms_p50", median(&cold), "ms");
            put("edit_ms_p50", median(&edit), "ms");
            put("warm_start_ms_p50", median(&warm), "ms");
            put("persist_ms_p50", median(&persist), "ms");
            put("cache_mb", cache_bytes as f64 / MIB, "MiB");
            put("peak_heap_mb", peak as f64 / MIB, "MiB");
            put("serve_read_ms_p50", median(&read), "ms");
            put("serve_write_ms_p50", median(&write), "ms");
        }
        Some(t) => {
            let m = fx.daemon.call(&metrics_req)?;
            let (read_before, write_before) = hist_before.expect("traced run");
            let server_read = serve::hist_p50_ms(&read_before, &serve::op_hist(&m, "query-rgn"));
            let server_write = serve::hist_p50_ms(&write_before, &serve::op_hist(&m, "reanalyze"));
            let med = |layers: &BTreeMap<&'static str, Vec<f64>>, name: &str| {
                layers.get(name).map_or(0.0, |v| median(v))
            };
            let cold_l = tr.layer_self_ms("staged.cold");
            let edit_l = tr.layer_self_ms("staged.edit");
            let parts = tr.layer_self_ms("staged.ipl_parts");
            let edit_op = tr.layer_self_ms("op.edit");
            let warm_op = tr.layer_self_ms("op.warm_start");
            let lint_op = tr.layer_self_ms("op.lint_cold");
            let cold_stages = [
                "frontend.parse",
                "frontend.assemble",
                "whirl.lower",
                "whirl.fingerprint",
                "ipa.callgraph",
                "ipa.ipl",
                "ipa.propagate",
                "araa.extract",
                "araa.emit",
            ];
            let edit_stages = [
                "frontend.parse",
                "frontend.assemble",
                "whirl.lower",
                "whirl.fingerprint",
                "ipa.callgraph",
                "ipa.ipl_edit",
                "ipa.propagate_edit",
            ];
            for s in cold_stages {
                put(&format!("{s}_ms"), med(&cold_l, s), "ms");
            }
            let front = med(&cold_l, "frontend.parse") + med(&cold_l, "frontend.assemble");
            put(
                "frontend.lines_per_s",
                t.lines as f64 / (front / 1e3),
                "lines/s",
            );
            put("whirl.procedures", t.procedures as f64, "count");
            put("whirl.nodes", t.nodes as f64, "count");
            put("ipa.ipl_edit_ms", med(&edit_l, "ipa.ipl_edit"), "ms");
            put(
                "ipa.propagate_edit_ms",
                med(&edit_l, "ipa.propagate_edit"),
                "ms",
            );
            put("ipa.interval_ms", med(&parts, "ipa.interval"), "ms");
            put("ipa.index_facts_ms", med(&parts, "ipa.index_facts"), "ms");
            let bail = t.counters["regions.fm_bailouts"];
            let recovered = t.counters["regions.interval_recovered"];
            put(
                "regions.fm_eliminations",
                t.counters["fm.eliminations"],
                "count",
            );
            put("regions.fm_bailouts", bail, "count");
            put("regions.interval_recovered", recovered, "count");
            put(
                "regions.interval_recovered_ratio",
                if bail > 0.0 { recovered / bail } else { 0.0 },
                "ratio",
            );
            put("araa.rows", t.rows as f64, "count");
            let hits: Vec<f64> = run
                .deltas
                .iter()
                .map(|d| {
                    ratio(
                        d.summary_cache_hits as u64,
                        (d.summary_cache_hits + d.summary_cache_misses) as u64,
                    )
                })
                .collect();
            let reused: Vec<f64> = run
                .deltas
                .iter()
                .map(|d| {
                    ratio(
                        d.rows_reused as u64,
                        (d.rows_reused + d.rows_recomputed) as u64,
                    )
                })
                .collect();
            put("araa.cache_hit_ratio", median(&hits), "ratio");
            put("araa.rows_reused_ratio", median(&reused), "ratio");
            let load = med(&warm_op, "araa.store.load");
            put("araa.store.load_ms", load, "ms");
            let frontend_share = (front + med(&cold_l, "whirl.lower")) / load;
            put("araa.store.load_frontend_share", frontend_share, "ratio");
            put(
                "araa.store.primed_ratio",
                ratio(t.primed.0, t.primed.0 + t.primed.1),
                "ratio",
            );
            put("araa.store.persist_ms", median(&persist), "ms");
            put("araa.store.bytes", dir_bytes(&fx.edit_dir) as f64, "bytes");
            put("lint.cold_ms", med(&lint_op, "lint.cold"), "ms");
            let lint_warm = med(&edit_op, "lint.warm");
            put("lint.warm_ms", lint_warm, "ms");
            put("lint.sarif_ms", med(&lint_op, "lint.sarif"), "ms");
            let cached: Vec<f64> = run
                .lint_reports
                .iter()
                .map(|&(c, l)| ratio(c as u64, (c + l) as u64))
                .collect();
            put("lint.cached_ratio", median(&cached), "ratio");
            put("lint.findings", t.findings as f64, "count");
            let (rtt_read, rtt_write) = (median(&read), median(&write));
            // The daemon's histograms hold raw times: scale them like the
            // round trips they sit in.
            let server_read = server_read * rtt_read / raw("op.serve_read");
            let server_write = server_write * rtt_write / raw("op.serve_write");
            put("dragon.serve.rtt_read_ms", rtt_read, "ms");
            put("dragon.serve.rtt_write_ms", rtt_write, "ms");
            put("dragon.serve.server_read_ms", server_read, "ms");
            put("dragon.serve.server_write_ms", server_write, "ms");
            put("dragon.serve.transport_ms", rtt_read - server_read, "ms");
            let gap = |e2e: f64, staged: f64| 100.0 * (e2e - staged) / e2e;
            let cold_sum: f64 = cold_stages.iter().map(|s| med(&cold_l, s)).sum();
            let edit_sum: f64 =
                edit_stages.iter().map(|s| med(&edit_l, s)).sum::<f64>() + lint_warm;
            let warm_sum: f64 = ["araa.session.new", "araa.store.load", "araa.session.update"]
                .iter()
                .map(|s| med(&warm_op, s))
                .sum();
            put("cold.gap_pct", gap(median(&cold), cold_sum), "%");
            put("edit.gap_pct", gap(median(&edit), edit_sum), "%");
            put("warm_start.gap_pct", gap(median(&warm), warm_sum), "%");
            put("edit_ms_p90", quantile(&edit, 0.9), "ms");
            put("cold_ms_p90", quantile(&cold, 0.9), "ms");
            put("serve_write_ms_p90", quantile(&write, 0.9), "ms");
            put("raw.cold_ms_p50", raw("op.cold"), "ms");
            put("raw.edit_ms_p50", raw("op.edit"), "ms");
            put("raw.warm_start_ms_p50", raw("op.warm_start"), "ms");
            put("raw.serve_write_ms_p50", raw("op.serve_write"), "ms");
            let cold_obs = tr.root_ms("op.cold_obs");
            put(
                "trace.overhead_pct",
                gap(median(&cold_obs), median(&cold)),
                "%",
            );
            let path = PathBuf::from(".perfbench_work").join(format!(
                "trace-{}-{}.json",
                args_name(w),
                args.seed
            ));
            std::fs::write(&path, tr.chrome_trace_json())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            eprintln!(
                "perfbench: trace of {} spans ({} staged edits) in {}",
                tr.span_count(),
                t.staged_edits,
                path.display()
            );
        }
    }
    drop(fx);

    let mut out = String::from("{");
    out.push_str(&format!(
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.failed == 0,
        run.attempted,
        run.failed
    ));
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        if !v.is_finite() {
            return Err(format!("metric {name} is not a number"));
        }
        let sep = if i == 0 { "" } else { ", " };
        out.push_str(&format!(
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    out.push_str("}}");
    Ok(out)
}

fn args_name(w: Workload) -> &'static str {
    match w {
        Workload::LuPaper => "lu_paper",
        Workload::Synth1k => "synth_1k",
        Workload::Irregular600 => "irregular_600",
    }
}
