//! Self-healing for the serve daemon: worker heartbeats and per-project
//! circuit breakers.
//!
//! The deadline checkpoints make *cooperative* overruns impossible — any
//! phase that charges budgets degrades once its deadline expires. This
//! module covers the uncooperative rest:
//!
//! - **Heartbeats**: every worker [`beat`](Supervisor::beat)s each loop
//!   iteration and marks jobs with [`begin_job`](Supervisor::begin_job) /
//!   [`end_job`](Supervisor::end_job). A worker busy past its job's
//!   deadline plus the grace window is *wedged* — stuck somewhere no
//!   checkpoint runs. The supervisor thread bumps the worker's generation
//!   (telling the stale thread to exit without persisting, if it ever
//!   returns) and spawns a replacement on the same queue. The stale
//!   thread's sessions are orphaned — evicted in effect — and rewarm from
//!   their last persisted state on the project's next request.
//! - **Circuit breaker**: repeated failures (contained panics, memory
//!   exhaustions, wedges) attributed to one project open its circuit for a
//!   cool-down; requests during the cool-down get a structured
//!   `circuit-open` error with `retry_after_ms` instead of burning a
//!   worker. After the cool-down one half-open probe is admitted: success
//!   closes the circuit, failure reopens it for a fresh cool-down.
//! - **Memory high-water**: the largest per-request memory-budget charge
//!   seen so far, surfaced through the `health` and `metrics` ops — the
//!   number the serve bench asserts against its configured budget.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use support::json::{obj, Value};

/// Per-worker liveness state, updated lock-free from the worker thread.
#[derive(Debug, Default)]
struct WorkerState {
    /// Generation of the thread currently owning this slot. A worker
    /// compares its own generation after every job; a mismatch means it
    /// was declared wedged and replaced, and must exit without persisting.
    generation: AtomicU64,
    /// Last heartbeat, in ms since supervisor start.
    heartbeat_ms: AtomicU64,
    /// `job start in ms since supervisor start + 1` while busy; 0 = idle.
    busy_since_ms: AtomicU64,
    /// The in-flight job's effective deadline, ms.
    job_deadline_ms: AtomicU64,
    /// The in-flight job's project (for failure attribution on a wedge).
    project: Mutex<String>,
}

/// One project's breaker state.
#[derive(Debug, Default, Clone)]
struct Circuit {
    /// Consecutive failures since the last success.
    failures: u32,
    /// Set while open: when the circuit opened, ms since supervisor start.
    opened_at_ms: Option<u64>,
    /// Set while a half-open probe is in flight: when it was admitted. A
    /// probe older than one cool-down is presumed abandoned (shed before
    /// reaching a worker, or its client vanished) and a fresh one is
    /// admitted — otherwise an unlucky probe would reject forever.
    probe_started_ms: Option<u64>,
}

/// Shared supervision state; one per daemon, `Arc`ed to every thread.
#[derive(Debug)]
pub struct Supervisor {
    start: Instant,
    grace_ms: u64,
    circuit_threshold: u32,
    circuit_cooldown_ms: u64,
    workers: Vec<WorkerState>,
    circuits: Mutex<BTreeMap<String, Circuit>>,
    mem_high_water: AtomicU64,
    replacements: AtomicU64,
}

/// Verdict of [`Supervisor::circuit_check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitDecision {
    /// Closed (or admitted half-open probe): serve the request.
    Admit,
    /// Open: reject with `circuit-open` and this retry hint.
    Reject { retry_after_ms: u64 },
}

impl Supervisor {
    pub fn new(
        workers: usize,
        grace_ms: u64,
        circuit_threshold: u32,
        circuit_cooldown_ms: u64,
    ) -> Self {
        Supervisor {
            start: Instant::now(),
            grace_ms: grace_ms.max(1),
            circuit_threshold: circuit_threshold.max(1),
            circuit_cooldown_ms: circuit_cooldown_ms.max(1),
            workers: (0..workers).map(|_| WorkerState::default()).collect(),
            circuits: Mutex::new(BTreeMap::new()),
            mem_high_water: AtomicU64::new(0),
            replacements: AtomicU64::new(0),
        }
    }

    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn circuits_locked(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Circuit>> {
        self.circuits.lock().unwrap_or_else(|p| p.into_inner())
    }

    // --- worker liveness ---

    /// Records a heartbeat for `worker`, but only when the beating thread
    /// still owns the slot (a stale replaced thread must not look alive).
    pub fn beat(&self, worker: usize, generation: u64) {
        let w = &self.workers[worker];
        if w.generation.load(Ordering::Relaxed) == generation {
            w.heartbeat_ms.store(self.now_ms(), Ordering::Relaxed);
        }
    }

    /// Marks `worker` busy on `project` with an effective deadline.
    pub fn begin_job(&self, worker: usize, generation: u64, project: &str, deadline_ms: u64) {
        let w = &self.workers[worker];
        if w.generation.load(Ordering::Relaxed) != generation {
            return;
        }
        let now = self.now_ms();
        w.heartbeat_ms.store(now, Ordering::Relaxed);
        w.job_deadline_ms.store(deadline_ms, Ordering::Relaxed);
        if let Ok(mut p) = w.project.lock() {
            *p = project.to_string();
        }
        // +1 so "busy since tick 0" is distinguishable from idle (0).
        w.busy_since_ms.store(now + 1, Ordering::Relaxed);
    }

    /// Marks `worker` idle again.
    pub fn end_job(&self, worker: usize, generation: u64) {
        let w = &self.workers[worker];
        if w.generation.load(Ordering::Relaxed) != generation {
            return;
        }
        w.busy_since_ms.store(0, Ordering::Relaxed);
        w.heartbeat_ms.store(self.now_ms(), Ordering::Relaxed);
    }

    /// The generation currently owning `worker`'s slot.
    pub fn generation(&self, worker: usize) -> u64 {
        self.workers[worker].generation.load(Ordering::Relaxed)
    }

    /// True when `worker` has been busy on one job past its deadline plus
    /// the grace window — wedged somewhere no checkpoint runs.
    pub fn wedged(&self, worker: usize) -> bool {
        let w = &self.workers[worker];
        let busy = w.busy_since_ms.load(Ordering::Relaxed);
        if busy == 0 {
            return false;
        }
        let elapsed = self.now_ms().saturating_sub(busy - 1);
        elapsed > w.job_deadline_ms.load(Ordering::Relaxed).saturating_add(self.grace_ms)
    }

    /// Declares `worker` wedged: bumps the generation (the stale thread
    /// exits without persisting if it ever returns), attributes a failure
    /// to the in-flight project, and returns the new generation for the
    /// replacement thread. The slot starts idle.
    pub fn declare_wedged(&self, worker: usize) -> u64 {
        let w = &self.workers[worker];
        let next = w.generation.fetch_add(1, Ordering::Relaxed) + 1;
        w.busy_since_ms.store(0, Ordering::Relaxed);
        w.heartbeat_ms.store(self.now_ms(), Ordering::Relaxed);
        let project = w
            .project
            .lock()
            .map(|p| p.clone())
            .unwrap_or_default();
        if !project.is_empty() {
            self.record_failure(&project);
        }
        self.replacements.fetch_add(1, Ordering::Relaxed);
        next
    }

    /// Total workers replaced so far.
    pub fn replacements(&self) -> u64 {
        self.replacements.load(Ordering::Relaxed)
    }

    // --- circuit breaker ---

    /// Admission decision for `project`. An open circuit rejects with the
    /// remaining cool-down as the retry hint; once the cool-down elapses a
    /// single half-open probe is admitted (concurrent requests keep being
    /// rejected until the probe settles).
    pub fn circuit_check(&self, project: &str) -> CircuitDecision {
        let now = self.now_ms();
        let mut circuits = self.circuits_locked();
        let Some(c) = circuits.get_mut(project) else { return CircuitDecision::Admit };
        let Some(opened) = c.opened_at_ms else { return CircuitDecision::Admit };
        let elapsed = now.saturating_sub(opened);
        if elapsed < self.circuit_cooldown_ms {
            return CircuitDecision::Reject {
                retry_after_ms: self.circuit_cooldown_ms - elapsed,
            };
        }
        match c.probe_started_ms {
            Some(t) if now.saturating_sub(t) < self.circuit_cooldown_ms => {
                // A probe is already in flight; tell others to come back soon.
                CircuitDecision::Reject {
                    retry_after_ms: (self.circuit_cooldown_ms / 4).max(1),
                }
            }
            _ => {
                // No probe, or the previous one was abandoned: admit one.
                c.probe_started_ms = Some(now);
                CircuitDecision::Admit
            }
        }
    }

    /// Attributes one failure (panic, memory exhaustion, wedge) to
    /// `project`; enough consecutive failures open its circuit, and a
    /// failed half-open probe reopens it.
    pub fn record_failure(&self, project: &str) {
        let now = self.now_ms();
        let mut circuits = self.circuits_locked();
        let c = circuits.entry(project.to_string()).or_default();
        c.failures = c.failures.saturating_add(1);
        if c.probe_started_ms.is_some() || c.failures >= self.circuit_threshold {
            c.opened_at_ms = Some(now);
            c.probe_started_ms = None;
        }
    }

    /// Records a served-to-completion request for `project`: closes its
    /// circuit (half-open probe succeeded) and forgets its failures.
    pub fn record_success(&self, project: &str) {
        self.circuits_locked().remove(project);
    }

    /// Projects whose circuits are currently open.
    pub fn open_circuits(&self) -> Vec<String> {
        self.circuits_locked()
            .iter()
            .filter(|(_, c)| c.opened_at_ms.is_some())
            .map(|(p, _)| p.clone())
            .collect()
    }

    // --- memory high-water ---

    /// Folds one request's memory-budget charge into the daemon-wide
    /// high-water mark.
    pub fn note_request_mem(&self, charged_bytes: u64) {
        self.mem_high_water.fetch_max(charged_bytes, Ordering::Relaxed);
    }

    /// The largest per-request memory-budget charge seen so far, bytes.
    pub fn mem_high_water_bytes(&self) -> u64 {
        self.mem_high_water.load(Ordering::Relaxed)
    }

    // --- health ---

    /// The `health` op's result object.
    pub fn health_json(&self, mem_budget_mb: Option<u64>) -> Value {
        let now = self.now_ms();
        let workers: Vec<Value> = self
            .workers
            .iter()
            .map(|w| {
                let busy = w.busy_since_ms.load(Ordering::Relaxed);
                obj([
                    (
                        "heartbeat_age_ms",
                        Value::int(now.saturating_sub(w.heartbeat_ms.load(Ordering::Relaxed))),
                    ),
                    ("busy", Value::Bool(busy != 0)),
                    (
                        "busy_ms",
                        Value::int(if busy == 0 { 0 } else { now.saturating_sub(busy - 1) }),
                    ),
                    ("generation", Value::int(w.generation.load(Ordering::Relaxed))),
                ])
            })
            .collect();
        obj([
            ("uptime_ms", Value::int(now)),
            ("workers", Value::Arr(workers)),
            (
                "open_circuits",
                Value::Arr(self.open_circuits().into_iter().map(Value::str).collect()),
            ),
            ("mem_high_water_bytes", Value::int(self.mem_high_water_bytes())),
            (
                "mem_budget_mb",
                mem_budget_mb.map(Value::int).unwrap_or(Value::Null),
            ),
            ("worker_replacements", Value::int(self.replacements())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sup() -> Supervisor {
        Supervisor::new(2, 50, 3, 100)
    }

    #[test]
    fn idle_workers_are_never_wedged() {
        let s = sup();
        assert!(!s.wedged(0));
        s.beat(0, 0);
        assert!(!s.wedged(0));
    }

    #[test]
    fn busy_past_deadline_plus_grace_is_wedged() {
        let s = Supervisor::new(1, 10, 3, 100);
        s.begin_job(0, 0, "p", 20);
        assert!(!s.wedged(0), "fresh job not wedged");
        std::thread::sleep(Duration::from_millis(45));
        assert!(s.wedged(0), "20ms deadline + 10ms grace exceeded");
        s.end_job(0, 0);
        assert!(!s.wedged(0), "idle again");
    }

    #[test]
    fn declare_wedged_bumps_generation_and_records_failure() {
        let s = Supervisor::new(1, 10, 1, 10_000);
        s.begin_job(0, 0, "toxic", 20);
        let next = s.declare_wedged(0);
        assert_eq!(next, 1);
        assert_eq!(s.generation(0), 1);
        assert_eq!(s.replacements(), 1);
        // threshold 1: the wedge's failure opened the circuit.
        assert!(matches!(s.circuit_check("toxic"), CircuitDecision::Reject { .. }));
        // Stale thread's updates are ignored.
        s.begin_job(0, 0, "other", 20);
        assert!(!s.wedged(0), "stale begin_job ignored");
    }

    #[test]
    fn circuit_opens_after_threshold_and_closes_on_probe_success() {
        let s = Supervisor::new(1, 10, 3, 30);
        assert_eq!(s.circuit_check("p"), CircuitDecision::Admit);
        s.record_failure("p");
        s.record_failure("p");
        assert_eq!(s.circuit_check("p"), CircuitDecision::Admit, "below threshold");
        s.record_failure("p");
        let d = s.circuit_check("p");
        assert!(matches!(d, CircuitDecision::Reject { retry_after_ms } if retry_after_ms <= 30));
        assert_eq!(s.open_circuits(), vec!["p".to_string()]);
        std::thread::sleep(Duration::from_millis(35));
        assert_eq!(s.circuit_check("p"), CircuitDecision::Admit, "half-open probe");
        assert!(
            matches!(s.circuit_check("p"), CircuitDecision::Reject { .. }),
            "only one probe at a time"
        );
        s.record_success("p");
        assert_eq!(s.circuit_check("p"), CircuitDecision::Admit, "closed");
        assert!(s.open_circuits().is_empty());
    }

    #[test]
    fn failed_probe_reopens() {
        let s = Supervisor::new(1, 10, 1, 30);
        s.record_failure("p");
        std::thread::sleep(Duration::from_millis(35));
        assert_eq!(s.circuit_check("p"), CircuitDecision::Admit, "probe admitted");
        s.record_failure("p");
        assert!(
            matches!(s.circuit_check("p"), CircuitDecision::Reject { .. }),
            "failed probe reopens for a fresh cool-down"
        );
    }

    /// A probe that never reports (shed before it reached a worker, or its
    /// client vanished) must not hold the circuit shut for good: after one
    /// more cool-down a fresh probe replaces it.
    #[test]
    fn an_abandoned_probe_is_replaced_after_one_cooldown() {
        let s = Supervisor::new(1, 10, 1, 200);
        s.record_failure("p");
        std::thread::sleep(Duration::from_millis(210));
        assert_eq!(s.circuit_check("p"), CircuitDecision::Admit, "probe admitted");
        assert!(matches!(s.circuit_check("p"), CircuitDecision::Reject { .. }), "probe in flight");
        std::thread::sleep(Duration::from_millis(210));
        assert_eq!(s.circuit_check("p"), CircuitDecision::Admit, "the abandoned probe is replaced");
    }

    #[test]
    fn circuits_are_per_project() {
        let s = Supervisor::new(1, 10, 1, 10_000);
        s.record_failure("toxic");
        assert!(matches!(s.circuit_check("toxic"), CircuitDecision::Reject { .. }));
        assert_eq!(s.circuit_check("healthy"), CircuitDecision::Admit);
    }

    #[test]
    fn mem_high_water_is_monotone_max() {
        let s = sup();
        s.note_request_mem(100);
        s.note_request_mem(50);
        s.note_request_mem(200);
        assert_eq!(s.mem_high_water_bytes(), 200);
    }

    #[test]
    fn health_json_has_the_advertised_shape() {
        let s = sup();
        s.record_failure("a");
        s.record_failure("a");
        s.record_failure("a");
        s.note_request_mem(4096);
        let h = s.health_json(Some(64));
        assert!(h.get("uptime_ms").and_then(Value::as_u64).is_some());
        assert_eq!(h.get("workers").and_then(Value::as_arr).map(<[Value]>::len), Some(2));
        assert_eq!(
            h.get("open_circuits").and_then(Value::as_arr).map(<[Value]>::len),
            Some(1)
        );
        assert_eq!(h.get("mem_high_water_bytes").and_then(Value::as_u64), Some(4096));
        assert_eq!(h.get("mem_budget_mb").and_then(Value::as_u64), Some(64));
        let h = s.health_json(None);
        assert!(matches!(h.get("mem_budget_mb"), Some(Value::Null)));
    }
}
