//! End-to-end memory-budget tests: this test binary installs the counting
//! global allocator (like the `dragon` binary does), so `support::memory`
//! accounting actually moves and exhaustion can be driven by real
//! allocations rather than `force_exhaust`.

use araa::{Analysis, AnalysisOptions, AnalysisSession};
use std::alloc::System;
use std::sync::{Mutex, MutexGuard};
use support::memory::{self, MemoryBudget};
use support::obs::alloc::CountingAllocator;
use workloads::fig10;

#[global_allocator]
static ALLOC: CountingAllocator<System> = CountingAllocator::new(System);

/// The allocation counter is process-global, so an analysis on another
/// test thread would charge its churn to a budget this test set up; the
/// tests take turns on this lock.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

#[test]
fn allocator_accounting_moves() {
    let _serial = serial();
    let before = support::obs::alloc::allocated_bytes();
    let v: Vec<u8> = vec![7; 1 << 20];
    let after = support::obs::alloc::allocated_bytes();
    assert!(after - before >= 1 << 20, "1 MiB allocation must be counted");
    drop(v);
}

#[test]
fn unlimited_analysis_is_unaffected() {
    let _serial = serial();
    let opts = AnalysisOptions::builder().mem_budget_mb(None).build();
    let analysis = Analysis::analyze(&[fig10::source()], opts).expect("analyze");
    assert!(
        !analysis.degradations.iter().any(|d| d.stage == "memory"),
        "no memory degradation without a budget: {:?}",
        analysis.degradations
    );
}

#[test]
fn generous_budget_never_trips() {
    let _serial = serial();
    // 4 GiB of churn headroom: a few-procedure analysis stays far below.
    let opts = AnalysisOptions::builder().mem_budget_mb(Some(4096)).build();
    let analysis = Analysis::analyze(&[fig10::source()], opts).expect("analyze");
    assert!(
        !analysis.degradations.iter().any(|d| d.stage == "memory"),
        "generous budget must not trip: {:?}",
        analysis.degradations
    );
}

#[test]
fn zero_budget_degrades_but_still_answers() {
    let _serial = serial();
    // A 0 MiB ceiling exhausts at the first checkpoint. The analysis must
    // still return a (heavily widened) result with a structured
    // memory-stage degradation — degrade, don't die.
    let opts = AnalysisOptions::builder().mem_budget_mb(Some(0)).build();
    let mut session = AnalysisSession::new(opts);
    let delta = session.update([fig10::source()]).expect("update must succeed");
    let mem_degr: Vec<_> =
        delta.degradations.iter().filter(|d| d.stage == "memory").collect();
    assert!(
        !mem_degr.is_empty(),
        "0 MiB budget must record a memory degradation: {:?}",
        delta.degradations
    );
    assert!(
        mem_degr[0].detail.contains("memory budget"),
        "detail names the cause: {}",
        mem_degr[0].detail
    );
    let analysis = session.analysis().expect("state retained");
    assert!(
        analysis.program.procedure_count() > 0,
        "program survives exhaustion"
    );
}

#[test]
fn ambient_exhaustion_degrades_and_is_never_reused() {
    let _serial = serial();
    // The budget comes from an *ambient* scope (the way `dragon serve`
    // bounds a request), not from the session's own options. Exhaustion
    // must still surface as a memory-stage degradation — and the poisoned
    // state must not satisfy the identical-input fast path afterwards.
    let mut session = AnalysisSession::new(AnalysisOptions::default());
    {
        let _scope = memory::enter(MemoryBudget::mb(0));
        let delta = session.update([fig10::source()]).expect("update must succeed");
        assert!(
            delta.degradations.iter().any(|d| d.stage == "memory"),
            "ambient exhaustion must be recorded: {:?}",
            delta.degradations
        );
    }
    // Same sources, sane budget: the widened state is discarded and the
    // recomputation comes back clean.
    let delta = session.update([fig10::source()]).expect("update must succeed");
    assert_eq!(
        delta.summary_cache_hits, 0,
        "tainted state must not serve the fast path"
    );
    assert!(
        !delta.degradations.iter().any(|d| d.stage == "memory"),
        "recomputed without a budget, no memory degradation: {:?}",
        delta.degradations
    );
}

#[test]
fn exhausted_failure_does_not_poison_the_parse_cache() {
    let _serial = serial();
    // A single-unit program whose parse is truncated by a 0 MiB budget can
    // fail assembly outright (recovery keeps no units, so there is no
    // degraded result to taint). That hard failure must not keep the
    // truncated parse in the file cache, or the identical retry with
    // headroom replays the budget-starved error forever.
    let src = workloads::GenSource::fortran(
        "single.f",
        "subroutine one(n)\n  double precision a(50)\n  integer i, n\n  \
         do i = 1, n\n    a(i) = i * 1.0\n  end do\nend subroutine one\n",
    );
    let mut session = AnalysisSession::new(AnalysisOptions::default());
    let failed = {
        let _scope = memory::enter(MemoryBudget::mb(0));
        session.update([src.clone()])
    };
    if failed.is_ok() {
        // If recovery managed to keep the unit the taint path covers reuse;
        // this test only pins the hard-failure path.
        return;
    }
    let delta = session.update([src]).expect("retry with headroom must succeed");
    assert_eq!(delta.files_reparsed, 1, "truncated parse must not be cached");
    assert!(
        !delta.degradations.iter().any(|d| d.stage == "memory"),
        "clean recomputation: {:?}",
        delta.degradations
    );
}

#[test]
fn scope_charges_are_observed_by_checkpoints() {
    let _serial = serial();
    let budget = MemoryBudget::mb(1);
    let scope = memory::enter(budget.clone());
    assert!(memory::checkpoint(), "fresh budget has headroom");
    let hog: Vec<u8> = vec![0u8; 2 << 20];
    assert!(!memory::checkpoint(), "2 MiB of churn crosses a 1 MiB ceiling");
    assert!(budget.exhausted());
    assert!(budget.charged_bytes() >= 2 << 20, "delta was charged");
    drop(hog);
    drop(scope);
    assert!(memory::checkpoint(), "no scope → unlimited");
}

#[test]
fn step_budget_checkpoints_consult_memory() {
    let _serial = serial();
    use support::budget;

    let mem = MemoryBudget::bytes(64 * 1024);
    let _mem_scope = memory::enter(mem.clone());
    let _budget_scope = budget::enter(Default::default());
    assert!(budget::charge_steps(1), "headroom at first");
    let hog: Vec<u8> = vec![0u8; 256 * 1024];
    assert!(
        !budget::charge_steps(1),
        "memory exhaustion denies step charges at the shared checkpoint"
    );
    assert_eq!(budget::exhaustion(), Some("memory"), "labelled as memory");
    drop(hog);
}
