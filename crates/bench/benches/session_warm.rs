//! Incremental-session payoff: warm `AnalysisSession::update` after a
//! one-procedure edit versus a full cold `Analysis::analyze`, on the LU
//! workload and a larger synthetic family. The warm path re-parses one
//! file, recomputes one IPL summary, re-propagates one ancestor chain, and
//! re-extracts only the affected procedures — everything else is verified
//! cache reuse.

use araa::{Analysis, AnalysisOptions, AnalysisSession};
use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use workloads::synthetic::{generate, SynthConfig};
use workloads::GenSource;

/// Two variants of the same source set differing in one loop bound of one
/// procedure, so alternating updates always dirty exactly that procedure.
fn variants(base: Vec<GenSource>, file: &str, from: &str, to: &str) -> [Vec<GenSource>; 2] {
    let mut edited = base.clone();
    let s = edited.iter_mut().find(|s| s.name == file).expect("edit target exists");
    assert!(s.text.contains(from), "{file} must contain {from:?}");
    s.text = s.text.replace(from, to);
    [base, edited]
}

fn bench_session(c: &mut Criterion, label: &str, vars: &[Vec<GenSource>; 2]) {
    let mut group = c.benchmark_group(label);
    group.bench_function("cold", |b| {
        b.iter(|| {
            black_box(Analysis::analyze(black_box(&vars[0]), AnalysisOptions::default()).unwrap())
        })
    });
    group.bench_function("warm_one_proc_edit", |b| {
        let mut session = AnalysisSession::new(AnalysisOptions::default());
        session.update(&vars[0]).unwrap();
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            black_box(session.update(&vars[i % 2]).unwrap())
        })
    });
    group.bench_function("warm_noop", |b| {
        let mut session = AnalysisSession::new(AnalysisOptions::default());
        session.update(&vars[0]).unwrap();
        b.iter(|| black_box(session.update(&vars[0]).unwrap()))
    });
    group.finish();
}

fn bench_lu(c: &mut Criterion) {
    // `erhs` is called straight from the entry procedure, so the edit
    // invalidates one summary and one ancestor (`applu`) — the typical
    // leaf-edit shape. `rhs` is the adversarial case: the single heaviest
    // procedure, whose own re-summarization dominates even a cold run's
    // parallel IPL wall time, so warm ~= cold there by construction.
    let vars = variants(workloads::mini_lu::sources(), "erhs.f", "do i = 1, 33", "do i = 1, 32");
    bench_session(c, "session/mini_lu", &vars);
    let heavy = variants(workloads::mini_lu::sources(), "rhs.f", "do k = 1, 10", "do k = 1, 9");
    let mut group = c.benchmark_group("session/mini_lu_heaviest_proc");
    group.bench_function("warm_edit_rhs", |b| {
        let mut session = AnalysisSession::new(AnalysisOptions::default());
        session.update(&heavy[0]).unwrap();
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            black_box(session.update(&heavy[i % 2]).unwrap())
        })
    });
    group.finish();
}

fn bench_synthetic(c: &mut Criterion) {
    let cfg = SynthConfig {
        procedures: 48,
        arrays: 6,
        loop_depth: 3,
        stmts_per_loop: 8,
        ..Default::default()
    };
    let src = generate(&cfg);
    // The generator emits one file, so the edit re-parses everything — but
    // the summary cache is procedure-grained, so only `work47` recomputes.
    let vars = variants(
        vec![src],
        "synth_p48.f",
        "end subroutine work47",
        "  g0(1, 1, 1) = g0(1, 1, 1) + 2.0\nend subroutine work47",
    );
    bench_session(c, "session/synthetic_48procs", &vars);
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500))
        .sample_size(10);
    targets = bench_lu, bench_synthetic
}

/// `ARAA_BENCH_JSON` manual mode: fixed timing loops whose results merge
/// into `BENCH_session.json` (see `bench::report`). Includes the
/// observability overhead pair — `warm_one_proc_edit` with and without an
/// attached collector — backing the <5% overhead budget in EXPERIMENTS.md.
fn manual_report(path: &std::path::Path) {
    use bench::report::{merge_section, time};
    use support::obs::{self, ClockKind, Collector};
    let vars = variants(workloads::mini_lu::sources(), "erhs.f", "do i = 1, 33", "do i = 1, 32");
    let iters = 9;
    let cold = time("cold", iters, || {
        black_box(Analysis::analyze(&vars[0], AnalysisOptions::default()).unwrap());
    });
    let warm_edit = {
        let mut session = AnalysisSession::new(AnalysisOptions::default());
        session.update(&vars[0]).unwrap();
        let mut i = 0usize;
        time("warm_one_proc_edit", iters, || {
            i += 1;
            black_box(session.update(&vars[i % 2]).unwrap());
        })
    };
    let warm_edit_obs = {
        let mut session = AnalysisSession::new(AnalysisOptions::default());
        session.update(&vars[0]).unwrap();
        let collector = Collector::new(ClockKind::Monotonic);
        let mut i = 0usize;
        time("warm_one_proc_edit_obs", iters, || {
            let _g = obs::attach(collector.clone());
            i += 1;
            black_box(session.update(&vars[i % 2]).unwrap());
        })
    };
    let warm_noop = {
        let mut session = AnalysisSession::new(AnalysisOptions::default());
        session.update(&vars[0]).unwrap();
        time("warm_noop", iters, || {
            black_box(session.update(&vars[0]).unwrap());
        })
    };
    merge_section(
        path,
        "session_warm/mini_lu",
        &[cold, warm_edit, warm_edit_obs, warm_noop],
    );
}

fn main() {
    match bench::report::manual_mode() {
        Some(path) => manual_report(&path),
        None => benches(),
    }
}
