//! The `dragon serve` daemon: warm analysis sessions behind a Unix socket.
//!
//! # Architecture
//!
//! ```text
//!            accept loop (nonblocking, polls the stop flag)
//!                 │ one thread per connection (capped; excess shed)
//!                 ▼
//!   connection threads ──try_send──▶ worker 0..N (bounded queues)
//!     │ bounded frame reads            │ each owns its shard of
//!     │ stats/health/shutdown inline   │ project → AnalysisSession
//!     │ full queue ⇒ `overloaded`      ▼
//!     ▼ open circuit ⇒ `circuit-open`  deadline + memory-budget scope
//!   one response line per request      + catch_unwind per request
//!                 ▲
//!                 │ supervisor thread: heartbeats, wedged-worker
//!                 └ replacement, per-project circuit breaker
//! ```
//!
//! Sessions are sharded by project-name hash, so a project's requests are
//! serialized on one worker — no session locking, no cross-request races —
//! while distinct projects proceed in parallel.
//!
//! # Robustness invariants
//!
//! - **Bounded worst case**: every request runs under a deadline token
//!   *and* (when configured) a memory budget, both observed by the budget
//!   checkpoints; stuck or allocation-hungry work degrades, it never
//!   wedges a worker past its deadline or the process past its memory.
//! - **Bounded input**: a request frame larger than `max_frame_bytes`
//!   is discarded as it streams in (never fully buffered) and answered
//!   with `frame-too-large`; the connection stays usable. A partial frame
//!   that stalls longer than `io_timeout_ms` (slow-loris) is answered and
//!   the connection closed. Parsed JSON is further capped by
//!   [`support::json::ParseLimits`] on depth and size.
//! - **Blast-radius one project**: a panicking handler is contained by
//!   `catch_unwind`; the poisoned session is dropped (rewarmed from disk on
//!   the project's next request) and every other session is untouched.
//!   Repeated failures from one project open its circuit breaker, so it
//!   cannot monopolize workers — requests get `circuit-open` with a retry
//!   hint until a half-open probe succeeds.
//! - **Overload is a response, not a drop**: a full worker queue yields a
//!   structured `overloaded` error with a retry hint, and a connection
//!   beyond `max_connections` gets the same one-line answer before the
//!   socket closes; connections are never silently dropped as
//!   back-pressure.
//! - **Self-healing workers**: a supervisor thread watches per-worker
//!   heartbeats. A worker busy past its job's deadline plus the grace
//!   window is declared wedged: its generation is bumped (if the stale
//!   thread ever returns it exits without persisting) and a replacement
//!   thread takes over the same queue. The abandoned request's client
//!   gets a structured `deadline-expired` error.
//! - **Durable with a bounded window**: writes persist through the
//!   store's atomic commit path under a group-commit policy — inline on a
//!   project's first commit and then at most once per debounce window on
//!   the request path, with idle workers flushing early and drain
//!   flushing everything. A crash loses at most the last window's delta.
//! - **Recovery is the startup path**: the daemon scans its cache root,
//!   takes over stale `DirLock`s, skips quarantined entries, and warms
//!   every discoverable session before accepting connections.
//! - **Counted once**: [`ServeMetrics`] is the daemon's only counter
//!   registry, and the connection thread that writes a request's response
//!   records it there, once. A worker hands its answer back instead of
//!   recording it, so a request the dispatcher abandoned, or one a
//!   replaced worker answered late, still counts exactly once.
//!
//! In a `fault-injection` build, `ARAA_SERVE_CHAOS_ABORT=1` makes an
//! injected-fault panic abort the process *before unwinding* — a faithful
//! crash at exactly the armed faultpoint, used by the chaos tests to prove
//! the recovery path. Other builds contain neither the hook nor the
//! per-request chaos faultpoints.

use super::metrics::{LogEntry, Outcome, ServeMetrics, SnapshotCtx, Tally};
use super::proto::{self, ErrorKind, Op, Request};
use super::supervisor::{CircuitDecision, Supervisor};
use araa::{AnalysisOptions, AnalysisSession};
use frontend::SourceFile;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use support::deadline::{self, DeadlineToken};
use support::hash::fnv1a;
use support::json::{obj, Value};
use support::memory::{self, MemoryBudget};
use support::obs::{self, ClockKind, Counter, SpanEvent};
use whirl::Lang;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Unix socket path to listen on.
    pub socket: PathBuf,
    /// Root directory for per-project session stores; `None` serves from
    /// memory only (no persistence, no recovery).
    pub cache_root: Option<PathBuf>,
    /// Worker threads (session shards).
    pub workers: usize,
    /// Bounded queue depth per worker; beyond it requests are shed.
    pub queue_depth: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline_ms: u64,
    /// Per-request memory budget (mebibytes of allocation churn) applied
    /// to requests that do not carry their own `mem_budget_mb`; `None`
    /// means unlimited. Exhaustion degrades the request's analysis
    /// conservatively — it never kills the request or the daemon.
    pub mem_budget_mb: Option<u64>,
    /// Largest accepted request frame, bytes. Oversized frames are
    /// discarded as they stream in and answered with `frame-too-large`.
    pub max_frame_bytes: usize,
    /// Concurrent-connection cap; a connection beyond it receives one
    /// `overloaded` response line and is closed.
    pub max_connections: usize,
    /// How long a *partial* request frame may stall before the connection
    /// is treated as a slow-loris and closed. Idle connections between
    /// frames are unaffected.
    pub io_timeout_ms: u64,
    /// Heartbeat grace: a worker busy past `deadline + grace` is declared
    /// wedged and replaced by the supervisor.
    pub heartbeat_grace_ms: u64,
    /// Consecutive failures (panics, memory exhaustions, wedges) that open
    /// a project's circuit breaker.
    pub circuit_threshold: u32,
    /// How long an open circuit rejects before admitting a half-open probe.
    pub circuit_cooldown_ms: u64,
    /// Period of the metrics snapshot thread, milliseconds; `0` disables
    /// it. Takes effect only together with `metrics_snapshot` — the
    /// daemon never invents an output path (no working-tree litter).
    pub metrics_interval_ms: u64,
    /// File the periodic metrics snapshot is atomically written to,
    /// sealed with the canonical `#checksum` trailer.
    pub metrics_snapshot: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            socket: PathBuf::from("dragon.sock"),
            cache_root: None,
            workers: 2,
            queue_depth: 64,
            default_deadline_ms: 30_000,
            mem_budget_mb: None,
            max_frame_bytes: 4 << 20,
            max_connections: 256,
            io_timeout_ms: 10_000,
            heartbeat_grace_ms: 2_000,
            circuit_threshold: 3,
            circuit_cooldown_ms: 2_000,
            metrics_interval_ms: 0,
            metrics_snapshot: None,
        }
    }
}

/// Retry hint attached to `overloaded` responses.
const RETRY_AFTER_MS: u64 = 100;
/// Hard ceiling on client-requested deadlines (a zero or huge deadline is
/// clamped into sanity).
const MAX_DEADLINE_MS: u64 = 10 * 60 * 1000;
/// How long the drain phase waits for in-flight connections.
const DRAIN_WAIT: Duration = Duration::from_secs(20);
/// Group-commit window: after a write, a session persists on the request
/// path at most once per this window (an idle worker flushes sooner, and
/// drain always flushes everything).
const PERSIST_DEBOUNCE: Duration = Duration::from_millis(500);
/// How long an idle worker waits for a job before flushing dirty
/// sessions to disk. Bounds the crash-loss window of a quiescent daemon
/// to roughly `PERSIST_DEBOUNCE + IDLE_FLUSH`.
const IDLE_FLUSH: Duration = Duration::from_millis(200);
/// Requests at least this slow (milliseconds; raw clock ticks under
/// `ARAA_OBS_CLOCK=logical`) have their full span tree captured for
/// `profile format:"collapsed"`.
const SLOW_THRESHOLD_MS: u64 = 500;
/// Ring-buffer request-log capacity (the `query-log` window).
const LOG_CAPACITY: usize = 1024;
/// Supervisor poll tick: the detection latency floor for wedged workers.
const SUPERVISOR_POLL: Duration = Duration::from_millis(100);
/// Response writes slower than this mean the peer stopped reading; the
/// connection is abandoned rather than blocking its thread forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);
/// Slack the dispatcher adds on top of `deadline + 2 * grace` before
/// abandoning a queued request as `deadline-expired` — covers queue wait
/// and supervisor detection latency for typical configurations.
const DISPATCH_SLACK_MS: u64 = 1_000;

/// Bumped by SIGTERM/SIGINT. Signal handlers can reach only statics, so
/// this is the one piece of stop state shared by every daemon in the
/// process: each remembers the count it started at and drains once the
/// count moves.
static SIGNALS: AtomicU64 = AtomicU64::new(0);

fn install_signal_handlers() {
    // std links libc; `signal` is sufficient for a single counter-bump
    // handler (async-signal-safe: one relaxed atomic add).
    extern "C" fn on_signal(_sig: std::os::raw::c_int) {
        SIGNALS.fetch_add(1, Ordering::Relaxed);
    }
    unsafe extern "C" {
        fn signal(
            signum: std::os::raw::c_int,
            handler: extern "C" fn(std::os::raw::c_int),
        ) -> usize;
    }
    const SIGINT: std::os::raw::c_int = 2;
    const SIGTERM: std::os::raw::c_int = 15;
    // SAFETY: `signal` is libc's, declared with its C signature above, and
    // the handler it installs touches nothing but an atomic.
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
}

/// Under `ARAA_SERVE_CHAOS_ABORT=1`, die *at* an injected fault instead of
/// unwinding into the worker's `catch_unwind` — no `Drop`s run, so lock
/// files and temp litter survive exactly as in a real crash.
#[cfg(feature = "fault-injection")]
fn install_chaos_abort_hook() {
    if std::env::var("ARAA_SERVE_CHAOS_ABORT").as_deref() != Ok("1") {
        return;
    }
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if msg.starts_with("fault injected:") {
            std::process::abort();
        }
        prev(info);
    }));
}

/// The state one daemon's threads share: its options, supervisor, metrics
/// registry and stop flag. One per [`run`], behind an `Arc`.
struct Daemon {
    /// The options, with `workers`, `queue_depth`, `max_connections` and
    /// `io_timeout_ms` floored at 1 and `max_frame_bytes` at 1 KiB.
    opts: ServeOptions,
    started: Instant,
    sup: Supervisor,
    /// The only counter registry: `stats`, `health`, `metrics`,
    /// `query-log` and `profile` all read it.
    metrics: ServeMetrics,
    /// Open connections, held against `max_connections`.
    conns: AtomicUsize,
    /// Set by the `shutdown` op; the accept loop, every connection thread
    /// and every new request observe it (with [`SIGNALS`]).
    stop: AtomicBool,
    /// [`SIGNALS`] when this daemon started.
    signals_at_start: u64,
    /// Set once the workers have exited: stops the supervisor and the
    /// snapshot thread.
    halt: AtomicBool,
}

impl Daemon {
    fn new(mut opts: ServeOptions) -> Daemon {
        opts.workers = opts.workers.max(1);
        opts.queue_depth = opts.queue_depth.max(1);
        opts.max_connections = opts.max_connections.max(1);
        opts.max_frame_bytes = opts.max_frame_bytes.max(1024);
        opts.io_timeout_ms = opts.io_timeout_ms.max(1);
        // The registry reads the same clock switch as `support::obs`, so
        // `ARAA_OBS_CLOCK=logical` makes serve metrics byte-deterministic
        // too.
        let clock = if std::env::var("ARAA_OBS_CLOCK").as_deref() == Ok("logical") {
            ClockKind::Logical
        } else {
            ClockKind::Monotonic
        };
        Daemon {
            sup: Supervisor::new(
                opts.workers,
                opts.heartbeat_grace_ms,
                opts.circuit_threshold,
                opts.circuit_cooldown_ms,
            ),
            opts,
            started: Instant::now(),
            metrics: ServeMetrics::new(clock, LOG_CAPACITY, SLOW_THRESHOLD_MS),
            conns: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            signals_at_start: SIGNALS.load(Ordering::Relaxed),
            halt: AtomicBool::new(false),
        }
    }

    /// True once a `shutdown` op or a signal asked this daemon to drain.
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
            || SIGNALS.load(Ordering::Relaxed) != self.signals_at_start
    }

    /// Daemon-level gauges for metrics renders, read wherever a snapshot
    /// is taken (dispatch or the periodic snapshot thread).
    fn snapshot_ctx(&self) -> SnapshotCtx {
        SnapshotCtx {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            workers: self.opts.workers as u64,
            open_circuits: self.sup.open_circuits().len() as u64,
            mem_high_water_bytes: self.sup.mem_high_water_bytes(),
        }
    }

    /// Renders the JSON snapshot, seals it with the `#checksum` trailer,
    /// and atomically replaces `path` (readers never observe a torn file).
    fn write_metrics_snapshot(&self, path: &Path) -> support::Result<()> {
        let mut doc = self.metrics.snapshot_json(&self.snapshot_ctx()).render();
        doc.push('\n');
        support::persist::append_text_checksum(&mut doc);
        support::persist::atomic_write(path, doc.as_bytes())
    }
}

/// One queued unit of work: the request plus the channel its answer goes
/// back on. The worker *always* sends exactly one answer (panics are
/// converted), so the connection thread can block on `recv_timeout` with a
/// generous allowance — the timeout only fires for wedged workers.
struct Job {
    req: Request,
    /// Trace id minted (or accepted) at dispatch, echoed in the response.
    trace: String,
    resp_tx: SyncSender<Served>,
}

fn shard_of(project: &str, workers: usize) -> usize {
    (fnv1a(project.as_bytes()) % workers as u64) as usize
}

/// The deadline a request actually runs under.
fn effective_deadline_ms(req: &Request, opts: &ServeOptions) -> u64 {
    req.deadline_ms.unwrap_or(opts.default_deadline_ms).clamp(1, MAX_DEADLINE_MS)
}

/// Stable on-disk directory for a project under the cache root. The hash
/// keeps arbitrary project names filesystem-safe; `project.name` inside
/// records the original for recovery scans.
fn project_dir(root: &Path, project: &str) -> PathBuf {
    root.join(format!("p{:016x}", fnv1a(project.as_bytes())))
}

/// Discovers projects persisted under `root` (directories carrying a
/// `project.name` marker) for startup recovery.
fn scan_projects(root: &Path) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(root) else { return Vec::new() };
    let mut found = Vec::new();
    for entry in entries.flatten() {
        let marker = entry.path().join("project.name");
        if let Ok(name) = std::fs::read_to_string(&marker) {
            let name = name.trim().to_string();
            if !name.is_empty() {
                found.push(name);
            }
        }
    }
    found.sort();
    found
}

/// Shared handles to the current worker thread of every slot. The
/// supervisor swaps a slot's handle when it replaces a wedged worker; the
/// old handle is dropped (detaching the stale thread — it may never
/// return, and nothing must ever wait on it).
type WorkerHandles = Arc<Mutex<Vec<Option<JoinHandle<()>>>>>;

fn lock_handles(handles: &WorkerHandles) -> std::sync::MutexGuard<'_, Vec<Option<JoinHandle<()>>>> {
    handles.lock().unwrap_or_else(|p| p.into_inner())
}

/// Runs the daemon until a graceful shutdown completes. Blocks the calling
/// thread; returns once every session has drained and persisted.
pub fn run(opts: ServeOptions) -> support::Result<()> {
    install_signal_handlers();
    #[cfg(feature = "fault-injection")]
    install_chaos_abort_hook();
    let ctx = Arc::new(Daemon::new(opts));
    let workers = ctx.opts.workers;

    // Recovery scan: every persisted project warms before we listen, so
    // the first post-crash request is already served from recovered state.
    let mut initial: Vec<Vec<String>> = vec![Vec::new(); workers];
    if let Some(root) = &ctx.opts.cache_root {
        std::fs::create_dir_all(root)
            .map_err(|e| support::Error::io(format!("creating {}", root.display()), e))?;
        for project in scan_projects(root) {
            let shard = shard_of(&project, workers);
            initial[shard].push(project);
        }
    }

    let listener = bind_socket(&ctx.opts.socket)?;
    listener
        .set_nonblocking(true)
        .map_err(|e| support::Error::io("socket set_nonblocking".to_string(), e))?;

    // Workers: each owns its shard's sessions. The queue receiver is
    // shared through a mutex so a replacement worker can take over a
    // wedged predecessor's queue without losing queued jobs.
    let mut senders: Vec<SyncSender<Job>> = Vec::with_capacity(workers);
    let mut shared_rxs: Vec<Arc<Mutex<Receiver<Job>>>> = Vec::with_capacity(workers);
    let handles: WorkerHandles = Arc::new(Mutex::new(Vec::with_capacity(workers)));
    let obs_ctx = obs::current();
    for (idx, projects) in initial.into_iter().enumerate() {
        let (tx, rx) = sync_channel::<Job>(ctx.opts.queue_depth);
        senders.push(tx);
        let rx = Arc::new(Mutex::new(rx));
        shared_rxs.push(Arc::clone(&rx));
        let ctx = Arc::clone(&ctx);
        let obs_ctx = obs_ctx.clone();
        let handle = std::thread::Builder::new()
            .name(format!("serve-worker-{idx}"))
            .spawn(move || {
                let _obs = obs_ctx.map(obs::attach);
                worker_main(&ctx, &rx, idx, 0, projects);
            })
            .map_err(|e| support::Error::io("spawning worker".to_string(), e))?;
        lock_handles(&handles).push(Some(handle));
    }

    // Supervisor: replaces wedged workers until halted (after the final
    // worker join, so a worker that wedges during drain still gets
    // replaced — its replacement drains the closed queue and exits).
    let sup_handle = {
        let ctx = Arc::clone(&ctx);
        let handles = Arc::clone(&handles);
        let shared_rxs = shared_rxs.clone();
        let obs_ctx = obs::current();
        std::thread::Builder::new()
            .name("serve-supervisor".to_string())
            .spawn(move || {
                let _obs = obs_ctx.map(obs::attach);
                while !ctx.halt.load(Ordering::Relaxed) {
                    std::thread::sleep(SUPERVISOR_POLL);
                    for (idx, worker_rx) in shared_rxs.iter().enumerate() {
                        if !ctx.sup.wedged(idx) {
                            continue;
                        }
                        let generation = ctx.sup.declare_wedged(idx);
                        let rx = Arc::clone(worker_rx);
                        let worker_ctx = Arc::clone(&ctx);
                        let obs_ctx = obs::current();
                        let spawned = std::thread::Builder::new()
                            .name(format!("serve-worker-{idx}-g{generation}"))
                            .spawn(move || {
                                let _obs = obs_ctx.map(obs::attach);
                                worker_main(&worker_ctx, &rx, idx, generation, Vec::new());
                            });
                        if let Ok(handle) = spawned {
                            // Dropping the old handle detaches the wedged
                            // thread; its sessions are orphaned (evicted in
                            // effect) and rewarm from disk on next use.
                            lock_handles(&handles)[idx] = Some(handle);
                        }
                    }
                }
            })
            .map_err(|e| support::Error::io("spawning supervisor".to_string(), e))?
    };

    // Periodic metrics snapshots: an off-request-path thread writing the
    // sealed JSON snapshot atomically. Requires both the interval and the
    // path — the daemon never invents an output location.
    let snap_handle = match (&ctx.opts.metrics_snapshot, ctx.opts.metrics_interval_ms) {
        (Some(path), interval) if interval > 0 => {
            let path = path.clone();
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name("serve-metrics-snapshot".to_string())
                .spawn(move || {
                    let tick = Duration::from_millis(50);
                    let mut elapsed = Duration::ZERO;
                    let period = Duration::from_millis(interval);
                    while !ctx.halt.load(Ordering::Relaxed) {
                        std::thread::sleep(tick);
                        elapsed += tick;
                        if elapsed >= period {
                            elapsed = Duration::ZERO;
                            let _ = ctx.write_metrics_snapshot(&path);
                        }
                    }
                })
                .ok()
        }
        _ => None,
    };

    // Accept loop: nonblocking so a stop is observed within one poll tick.
    while !ctx.stopping() {
        match listener.accept() {
            Ok((stream, _)) => {
                if ctx.conns.load(Ordering::Relaxed) >= ctx.opts.max_connections {
                    ctx.metrics.incr(Tally::ConnShed);
                    shed_connection(stream);
                    continue;
                }
                let senders = senders.clone();
                let conn_ctx = Arc::clone(&ctx);
                let obs_ctx = obs::current();
                ctx.conns.fetch_add(1, Ordering::Relaxed);
                let spawned = std::thread::Builder::new()
                    .name("serve-conn".to_string())
                    .spawn(move || {
                        let _obs = obs_ctx.map(obs::attach);
                        handle_connection(stream, &conn_ctx, &senders);
                        conn_ctx.conns.fetch_sub(1, Ordering::Relaxed);
                    });
                if spawned.is_err() {
                    ctx.conns.fetch_sub(1, Ordering::Relaxed);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // The poll tick is the latency floor for fresh connections
                // (one-shot CLI clients pay it on every request), so it is
                // kept short; a few kHz of empty accept() is negligible CPU.
                std::thread::sleep(Duration::from_micros(250));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }

    // Drain: let in-flight connections finish (their requests are deadline
    // bounded), then close the queues so workers persist and exit.
    let drain_deadline = Instant::now() + DRAIN_WAIT;
    while ctx.conns.load(Ordering::Relaxed) > 0 && Instant::now() < drain_deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(senders);
    // Wait for the *current* worker of every slot; a worker wedged at this
    // point is replaced by the still-running supervisor, and its
    // replacement exits promptly on the closed queue. Never block on a
    // thread that may not return: join only finished handles.
    while Instant::now() < drain_deadline {
        let all_done =
            lock_handles(&handles).iter().all(|h| h.as_ref().is_none_or(JoinHandle::is_finished));
        if all_done {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    {
        let mut slots = lock_handles(&handles);
        for slot in slots.iter_mut() {
            if slot.as_ref().is_some_and(JoinHandle::is_finished) {
                if let Some(handle) = slot.take() {
                    let _ = handle.join();
                }
            }
        }
    }
    ctx.halt.store(true, Ordering::Relaxed);
    let _ = sup_handle.join();
    if let Some(h) = snap_handle {
        let _ = h.join();
    }
    // Final snapshot: the drained daemon's last word, covering requests
    // that landed after the last periodic write.
    if let Some(path) = &ctx.opts.metrics_snapshot {
        if ctx.opts.metrics_interval_ms > 0 {
            let _ = ctx.write_metrics_snapshot(path);
        }
    }
    let _ = std::fs::remove_file(&ctx.opts.socket);
    Ok(())
}

/// Binds the listening socket, reclaiming a dead daemon's stale socket
/// file (connect refused ⇒ no live listener behind it).
fn bind_socket(path: &Path) -> support::Result<UnixListener> {
    if path.exists() {
        match UnixStream::connect(path) {
            Ok(_) => {
                return Err(support::Error::Analysis(format!(
                    "{} already has a live daemon listening",
                    path.display()
                )));
            }
            Err(_) => {
                let _ = std::fs::remove_file(path);
            }
        }
    }
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|e| support::Error::io(format!("creating {}", parent.display()), e))?;
    }
    UnixListener::bind(path)
        .map_err(|e| support::Error::io(format!("binding {}", path.display()), e))
}

/// Answers a connection shed by the concurrency cap: one `overloaded`
/// line, best effort, then close. The client sees admission control, not
/// a mystery hangup.
fn shed_connection(stream: UnixStream) {
    let mut stream = stream;
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let resp = proto::err_response(
        0,
        None,
        "",
        ErrorKind::Overloaded,
        "connection limit reached",
        Some(RETRY_AFTER_MS),
    );
    let _ = stream.write_all(resp.as_bytes()).and_then(|()| stream.write_all(b"\n"));
}

/// How often an idle connection wakes up to observe the stop flag.
const CONN_POLL: Duration = Duration::from_millis(200);

/// One framing outcome from [`read_frame`].
enum Frame {
    /// A complete line (newline stripped); the flag is true when EOF
    /// followed it (a final unterminated line is still served).
    Line(String, bool),
    /// The frame exceeded the cap and was discarded up to its newline (or
    /// EOF); the connection is still usable.
    TooLarge,
    /// A partial frame stalled past the io timeout: slow-loris suspect.
    Stalled,
    /// EOF with nothing buffered, an unrecoverable read error, or
    /// shutdown observed.
    Closed,
}

/// Reads one newline-delimited frame with a hard size cap. Bytes beyond
/// the cap are consumed and dropped (never buffered), so an adversarial
/// client cannot balloon daemon memory past `max_frame_bytes` + one
/// `BufReader` block per connection, and the stream stays in sync for the
/// next frame.
fn read_frame(reader: &mut BufReader<UnixStream>, ctx: &Daemon) -> Frame {
    let max_bytes = ctx.opts.max_frame_bytes;
    let io_timeout = Duration::from_millis(ctx.opts.io_timeout_ms);
    let mut buf: Vec<u8> = Vec::new();
    let mut discarding = false;
    let mut partial_since: Option<Instant> = None;
    loop {
        let mut consumed = 0usize;
        let mut complete = false;
        match reader.fill_buf() {
            Ok([]) => {
                // EOF: serve a final unterminated line if there is one.
                return if discarding {
                    Frame::TooLarge
                } else if buf.is_empty() {
                    Frame::Closed
                } else {
                    Frame::Line(String::from_utf8_lossy(&buf).into_owned(), true)
                };
            }
            Ok(chunk) => {
                if partial_since.is_none() {
                    partial_since = Some(Instant::now());
                }
                match chunk.iter().position(|&b| b == b'\n') {
                    Some(nl) => {
                        if !discarding {
                            if buf.len() + nl <= max_bytes {
                                buf.extend_from_slice(&chunk[..nl]);
                            } else {
                                discarding = true;
                                buf = Vec::new();
                            }
                        }
                        consumed = nl + 1;
                        complete = true;
                    }
                    None => {
                        if !discarding {
                            if buf.len() + chunk.len() <= max_bytes {
                                buf.extend_from_slice(chunk);
                            } else {
                                discarding = true;
                                buf = Vec::new();
                            }
                        }
                        consumed = chunk.len();
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if ctx.stopping() {
                    return Frame::Closed;
                }
                if let Some(t) = partial_since {
                    if t.elapsed() >= io_timeout {
                        return Frame::Stalled;
                    }
                }
            }
            Err(_) => return Frame::Closed,
        }
        reader.consume(consumed);
        if complete {
            return if discarding {
                Frame::TooLarge
            } else {
                Frame::Line(String::from_utf8_lossy(&buf).into_owned(), false)
            };
        }
    }
}

/// Serves one connection: one response line per request line, in order.
/// Each request is recorded here, once, right before its line is written
/// (so `query-log` never lags a response); its span tree drops after the
/// write.
///
/// Reads poll with a short timeout so a connection a client holds open but
/// idle still observes the stop flag and exits — otherwise its clone of
/// the worker senders would keep the worker queues alive and block the
/// drain forever. Frame reads are size-capped and stall-bounded; see
/// [`read_frame`].
fn handle_connection(stream: UnixStream, ctx: &Daemon, senders: &[SyncSender<Job>]) {
    if stream.set_read_timeout(Some(CONN_POLL)).is_err() {
        return;
    }
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let Ok(reader_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(reader_half);
    let mut writer = stream;
    let respond = |writer: &mut UnixStream, response: &str| {
        writer
            .write_all(response.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .is_ok()
    };
    loop {
        match read_frame(&mut reader, ctx) {
            Frame::Line(line, at_eof) => {
                let trimmed = line.trim();
                if !trimmed.is_empty() {
                    let start_units = ctx.metrics.now_units();
                    let mut served = ctx.dispatch(trimmed, senders);
                    ctx.record(start_units, &mut served);
                    if !respond(&mut writer, &served.response) {
                        return;
                    }
                }
                if at_eof {
                    return;
                }
            }
            Frame::TooLarge => {
                ctx.metrics.incr(Tally::FrameTooLarge);
                ctx.metrics.incr(Tally::Invalid);
                let response = proto::err_response(
                    0,
                    None,
                    "",
                    ErrorKind::FrameTooLarge,
                    &format!(
                        "request frame exceeds the {}-byte cap; frame discarded",
                        ctx.opts.max_frame_bytes
                    ),
                    None,
                );
                if !respond(&mut writer, &response) {
                    return;
                }
            }
            Frame::Stalled => {
                let response = proto::err_response(
                    0,
                    None,
                    "",
                    ErrorKind::BadRequest,
                    &format!(
                        "partial request frame stalled past {}ms; closing connection",
                        ctx.opts.io_timeout_ms
                    ),
                    None,
                );
                let _ = respond(&mut writer, &response);
                return;
            }
            Frame::Closed => return,
        }
    }
}

/// What answering one request produced: the response line, and what the
/// observability plane records about the request.
struct Served {
    /// `None` for a frame that did not parse.
    op: Option<Op>,
    project: String,
    trace: String,
    response: String,
    outcome: Outcome,
    /// Worker index and generation that served it; `None` when the
    /// connection thread answered without a worker.
    worker: Option<(usize, u64)>,
    degradations: Vec<String>,
    mem_bytes: u64,
    cache_hits: u64,
    cache_recomputes: u64,
    /// The request's span tree, recorded by a per-request collector.
    events: Vec<SpanEvent>,
}

impl Served {
    /// An answer the connection thread gives without a worker.
    fn inline(
        op: Option<Op>,
        project: String,
        trace: String,
        outcome: Outcome,
        response: String,
    ) -> Served {
        Served {
            op,
            project,
            trace,
            response,
            outcome,
            worker: None,
            degradations: Vec::new(),
            mem_bytes: 0,
            cache_hits: 0,
            cache_recomputes: 0,
            events: Vec::new(),
        }
    }
}

impl Daemon {
    /// Routes one request line to its answer. Control-plane ops and
    /// rejections are answered here; the rest queue on their project's
    /// worker.
    fn dispatch(&self, line: &str, senders: &[SyncSender<Job>]) -> Served {
        let req = match proto::parse_request(line) {
            Ok(r) => r,
            Err((id, msg)) => {
                // Best-effort trace echo: a structurally-valid line that
                // fails request validation still carries the client's
                // trace id, and the client deserves it back on the error.
                let salvaged = Value::parse(line)
                    .ok()
                    .and_then(|v| {
                        v.get("trace").and_then(Value::as_str).map(str::to_string)
                    })
                    .filter(|t| {
                        !t.is_empty() && t.len() <= 64 && !t.chars().any(|c| (c as u32) < 0x20)
                    });
                let trace = self.metrics.mint_trace(salvaged.as_deref());
                let response =
                    proto::err_response(id, None, &trace, ErrorKind::BadRequest, &msg, None);
                return Served::inline(None, String::new(), trace, Outcome::BadRequest, response);
            }
        };
        self.metrics.incr(Tally::Accepted);
        let trace = self.metrics.mint_trace(req.trace.as_deref());
        match self.answer_inline(&req, &trace) {
            Some((outcome, response)) => {
                Served::inline(Some(req.op), req.project, trace, outcome, response)
            }
            None => self.queue(req, trace, senders),
        }
    }

    /// The answer the connection thread gives itself — control-plane ops
    /// must keep working even when every worker queue is full or every
    /// worker is wedged — or `None` for a request a worker must serve.
    fn answer_inline(&self, req: &Request, trace: &str) -> Option<(Outcome, String)> {
        let ok = |result: Value| (Outcome::Ok, proto::ok_response(req.id, req.op, trace, result));
        let reject = |outcome: Outcome, kind: ErrorKind, msg: &str, retry_after_ms: Option<u64>| {
            let response =
                proto::err_response(req.id, Some(req.op), trace, kind, msg, retry_after_ms);
            (outcome, response)
        };
        let only_project = req.project_given.then_some(req.project.as_str());
        Some(match req.op {
            Op::Stats => ok(self
                .metrics
                .stats_json(self.opts.workers as u64, self.opts.queue_depth as u64)),
            Op::Health => {
                let mut health = self.sup.health_json(self.opts.mem_budget_mb);
                if let Value::Obj(map) = &mut health {
                    map.insert(
                        "sessions".to_string(),
                        Value::int(self.metrics.tally(Tally::Sessions)),
                    );
                    map.insert(
                        "requests".to_string(),
                        Value::int(self.metrics.tally(Tally::Accepted)),
                    );
                }
                ok(health)
            }
            Op::Metrics => match req.format.as_deref() {
                None | Some("json") => ok(self.metrics.snapshot_json(&self.snapshot_ctx())),
                Some("prometheus") => ok(obj([
                    ("format", Value::str("prometheus")),
                    ("body", Value::str(self.metrics.prometheus(&self.snapshot_ctx()))),
                ])),
                Some(other) => reject(
                    Outcome::BadRequest,
                    ErrorKind::BadRequest,
                    &format!("unknown metrics format `{other}` (json|prometheus)"),
                    None,
                ),
            },
            Op::QueryLog => {
                let mut result = self.metrics.query_log(only_project, req.limit.unwrap_or(100));
                if let Value::Obj(map) = &mut result {
                    map.insert("slow".to_string(), self.metrics.slow_traces_json());
                }
                ok(result)
            }
            Op::Profile => match req.format.as_deref() {
                None | Some("json") => {
                    ok(self.metrics.profile_json(only_project, req.top.unwrap_or(10)))
                }
                Some("collapsed") => ok(obj([
                    ("format", Value::str("collapsed")),
                    ("body", Value::str(self.metrics.collapsed_stacks())),
                ])),
                Some(other) => reject(
                    Outcome::BadRequest,
                    ErrorKind::BadRequest,
                    &format!("unknown profile format `{other}` (json|collapsed)"),
                    None,
                ),
            },
            Op::Shutdown => {
                self.stop.store(true, Ordering::Relaxed);
                ok(obj([("draining", Value::Bool(true))]))
            }
            _ if self.stopping() => reject(
                Outcome::ShuttingDown,
                ErrorKind::ShuttingDown,
                "daemon is draining",
                Some(RETRY_AFTER_MS),
            ),
            _ => match self.sup.circuit_check(&req.project) {
                CircuitDecision::Reject { retry_after_ms } => reject(
                    Outcome::CircuitOpen,
                    ErrorKind::CircuitOpen,
                    &format!(
                        "project `{}` circuit is open after repeated failures",
                        req.project
                    ),
                    Some(retry_after_ms),
                ),
                CircuitDecision::Admit => return None,
            },
        })
    }

    /// Queues a request on its project's worker and waits for the answer,
    /// or answers for the worker when its queue is full or it never
    /// replies.
    fn queue(&self, req: Request, trace: String, senders: &[SyncSender<Job>]) -> Served {
        // Generous allowance over the request deadline: it only fires when
        // the worker wedged somewhere no checkpoint runs (the supervisor
        // is replacing it) — a cooperative worker always answers within
        // its deadline.
        let allowance = effective_deadline_ms(&req, &self.opts)
            .saturating_add(2 * self.opts.heartbeat_grace_ms)
            .saturating_add(DISPATCH_SLACK_MS);
        let shard = shard_of(&req.project, senders.len());
        let (id, op, project) = (req.id, req.op, req.project.clone());
        let (resp_tx, resp_rx) = sync_channel::<Served>(1);
        // Counted before the send, so the worker's decrement never runs
        // ahead of it.
        self.metrics.incr(Tally::Queued);
        let (outcome, kind, msg, retry_after_ms) =
            match senders[shard].try_send(Job { req, trace: trace.clone(), resp_tx }) {
                Ok(()) => match resp_rx.recv_timeout(Duration::from_millis(allowance)) {
                    Ok(served) => return served,
                    Err(RecvTimeoutError::Timeout) => (
                        Outcome::Deadline,
                        ErrorKind::DeadlineExpired,
                        "request abandoned: worker exceeded the deadline and is being replaced",
                        Some(self.opts.heartbeat_grace_ms),
                    ),
                    // Worker died (chaos abort in flight): the process is
                    // going down; answer what we can.
                    Err(RecvTimeoutError::Disconnected) => (
                        Outcome::Internal,
                        ErrorKind::Internal,
                        "worker terminated mid-request",
                        None,
                    ),
                },
                Err(e) => {
                    self.metrics.decr(Tally::Queued);
                    match e {
                        TrySendError::Full(_) => (
                            Outcome::Shed,
                            ErrorKind::Overloaded,
                            "worker queue full",
                            Some(RETRY_AFTER_MS),
                        ),
                        TrySendError::Disconnected(_) => (
                            Outcome::Internal,
                            ErrorKind::Internal,
                            "worker unavailable",
                            None,
                        ),
                    }
                }
            };
        let response = proto::err_response(id, Some(op), &trace, kind, msg, retry_after_ms);
        Served::inline(Some(op), project, trace, outcome, response)
    }

    /// Records one request that reached [`dispatch`](Self::dispatch),
    /// exactly once: its outcome and latency, and for a worker's answer
    /// the project's cache traffic, profile sample and slow trace; then
    /// its log entry. Latency runs from `start_units`, stamped before
    /// dispatch, so it covers queue wait as well as service time.
    fn record(&self, start_units: u64, served: &mut Served) {
        let m = &self.metrics;
        let end = m.now_units();
        let latency = end.saturating_sub(start_units).max(1);
        match served.op {
            Some(op) => m.record_outcome(op, served.outcome, latency),
            None => m.incr(Tally::Invalid),
        }
        if let (Some(op), Some(_)) = (served.op, served.worker) {
            if matches!(op, Op::Analyze | Op::Reanalyze)
                && matches!(served.outcome, Outcome::Ok | Outcome::Degraded)
            {
                m.note_analysis(
                    &served.project,
                    served.cache_hits,
                    served.cache_recomputes,
                    served.mem_bytes,
                );
            }
            let sample = m.should_sample(&served.project);
            let slow = m.is_slow(latency);
            if (sample || slow) && !served.events.is_empty() {
                m.record_profile(&served.project, &served.events);
            }
            if slow {
                let events = std::mem::take(&mut served.events);
                m.record_slow(&served.trace, op, &served.project, latency, events);
            }
        }
        m.push_log(LogEntry {
            seq: 0,
            trace: served.trace.clone(),
            op: served.op.map_or("?", Op::name),
            project: served.project.clone(),
            worker: served.worker,
            latency_units: latency,
            outcome: served.outcome,
            degradations: std::mem::take(&mut served.degradations),
            mem_bytes: served.mem_bytes,
            end_units: end,
        });
    }
}

/// One shard's session map, warmed from disk where possible.
struct Shard<'a> {
    sessions: BTreeMap<String, AnalysisSession>,
    /// Projects with committed-but-unpersisted work (group commit).
    dirty: std::collections::BTreeSet<String>,
    /// Wall time of each project's last successful persist.
    last_persist: BTreeMap<String, std::time::Instant>,
    ctx: &'a Daemon,
}

impl Shard<'_> {
    /// Fetches (or creates, warming from disk) the project's session.
    fn session(&mut self, project: &str) -> &mut AnalysisSession {
        if !self.sessions.contains_key(project) {
            let session = match &self.ctx.opts.cache_root {
                Some(root) => {
                    let dir = project_dir(root, project);
                    let _ = std::fs::create_dir_all(&dir);
                    let _ = std::fs::write(dir.join("project.name"), project);
                    let mut s =
                        AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir);
                    s.load();
                    s
                }
                None => AnalysisSession::new(AnalysisOptions::default()),
            };
            self.sessions.insert(project.to_string(), session);
            self.ctx.metrics.incr(Tally::Sessions);
        }
        self.sessions
            .get_mut(project)
            .unwrap_or_else(|| unreachable!("inserted above"))
    }

    /// Drops a poisoned session; the next request rewarms it from its last
    /// persisted (pre-poison) state.
    fn evict(&mut self, project: &str) {
        self.dirty.remove(project);
        self.last_persist.remove(project);
        if self.sessions.remove(project).is_some() {
            self.ctx.metrics.decr(Tally::Sessions);
        }
    }

    /// Group commit, request path: the write marks the project dirty and
    /// persists inline only when its debounce window has elapsed (always,
    /// for a never-persisted project — the first commit is the one that
    /// turns an in-memory session into recoverable state). Persist panics
    /// propagate to the caller's `catch_unwind`, exactly like a panic in
    /// the analysis itself.
    fn note_write(&mut self, project: &str) {
        self.dirty.insert(project.to_string());
        let due = self
            .last_persist
            .get(project)
            .is_none_or(|t| t.elapsed() >= PERSIST_DEBOUNCE);
        if due {
            if let Some(session) = self.sessions.get_mut(project) {
                session.persist();
                self.dirty.remove(project);
                self.last_persist
                    .insert(project.to_string(), std::time::Instant::now());
            }
        }
    }

    /// Flushes off the request path (idle tick, drain): persists every
    /// dirty session regardless of its window. There is no request to
    /// answer here, so a persist panic is contained locally — counted,
    /// the session evicted — and the remaining sessions still flush.
    fn flush_dirty(&mut self) {
        let pending: Vec<String> = self.dirty.iter().cloned().collect();
        for project in pending {
            let Some(session) = self.sessions.get_mut(&project) else {
                self.dirty.remove(&project);
                continue;
            };
            if catch_unwind(AssertUnwindSafe(|| session.persist())).is_ok() {
                self.dirty.remove(&project);
                self.last_persist
                    .insert(project.clone(), std::time::Instant::now());
            } else {
                self.ctx.metrics.incr(Tally::FlushPanics);
                self.evict(&project);
            }
        }
    }
}

/// One worker's life: drain the shared queue, one job at a time, under
/// supervisor heartbeats. `generation` identifies this thread's tenure of
/// the slot; if the supervisor bumps the slot's generation (declaring this
/// thread wedged), the thread exits at its next opportunity *without
/// persisting* — the replacement owns the shard's on-disk state now.
fn worker_main(
    ctx: &Daemon,
    rx: &Mutex<Receiver<Job>>,
    widx: usize,
    generation: u64,
    initial_projects: Vec<String>,
) {
    let mut shard = Shard {
        sessions: BTreeMap::new(),
        dirty: std::collections::BTreeSet::new(),
        last_persist: BTreeMap::new(),
        ctx,
    };
    // Startup recovery: warm every project persisted by a previous
    // incarnation. `session()` takes over stale locks and skips
    // quarantined entries on the way.
    for project in initial_projects {
        let _ = shard.session(&project);
    }
    loop {
        if ctx.sup.generation(widx) != generation {
            return;
        }
        ctx.sup.beat(widx, generation);
        // The queue lock is held only while *waiting*, never while
        // serving, so a replacement can take the queue the moment this
        // thread is declared wedged mid-request.
        let job = {
            let guard = rx.lock().unwrap_or_else(|p| p.into_inner());
            guard.recv_timeout(IDLE_FLUSH)
        };
        match job {
            Ok(job) => {
                ctx.metrics.decr(Tally::Queued);
                let deadline_ms = effective_deadline_ms(&job.req, &ctx.opts);
                ctx.sup.begin_job(widx, generation, &job.req.project, deadline_ms);
                let (served, failed) =
                    serve_one(&mut shard, &job.req, job.trace, (widx, generation));
                if ctx.sup.generation(widx) != generation {
                    // Declared wedged while serving: a replacement owns
                    // the slot. Hand the answer back in case the
                    // connection thread still waits (it records whichever
                    // answer it writes), then vanish without persisting.
                    let _ = job.resp_tx.send(served);
                    return;
                }
                ctx.sup.end_job(widx, generation);
                if failed {
                    ctx.sup.record_failure(&job.req.project);
                } else {
                    ctx.sup.record_success(&job.req.project);
                }
                // A dropped receiver means the connection thread gave up
                // on the request and recorded it; the work is done.
                let _ = job.resp_tx.send(served);
            }
            // Idle: nobody is waiting on latency, so close the group-commit
            // window early.
            Err(RecvTimeoutError::Timeout) => shard.flush_dirty(),
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Channel closed: graceful drain. Persist every session with
    // uncommitted work through the store's atomic commit path.
    shard.flush_dirty();
}

/// Executes one request under its deadline and memory budget, with panic
/// containment. The flag is true when the request counts as a failure of
/// its project (a panic or an exhausted memory budget), for the circuit
/// breaker.
fn serve_one(
    shard: &mut Shard<'_>,
    req: &Request,
    trace: String,
    worker: (usize, u64),
) -> (Served, bool) {
    let ctx = shard.ctx;
    let deadline_ms = effective_deadline_ms(req, &ctx.opts);
    let token = DeadlineToken::after(Duration::from_millis(deadline_ms));
    let _scope = deadline::enter(Arc::clone(&token));
    // Request budget overrides the server default; either bounds this
    // request's allocation churn at the shared budget checkpoints.
    let mem = req.mem_budget_mb.or(ctx.opts.mem_budget_mb).map(MemoryBudget::mb);
    let mem_scope = mem.clone().map(memory::enter);
    // Per-request span collector, attached innermost so analysis spans
    // land here; counters fold back into any outer collector afterwards.
    let child = obs::Collector::new(ctx.metrics.clock());
    let result = {
        let child = Arc::clone(&child);
        catch_unwind(AssertUnwindSafe(|| {
            let _obs = obs::attach(child);
            let _root = obs::span("serve.request");
            handle_request(shard, req)
        }))
    };
    if let Some(parent) = obs::current() {
        child.fold_into(&parent);
    }
    let events = child.events();
    // Leaving the scope flushes the tail allocation delta into the budget,
    // so `charged_bytes` below is the request's full bill.
    drop(mem_scope);
    let expired = token.expired_now();
    let (mem_exhausted, mem_bytes) = match &mem {
        Some(budget) => {
            ctx.sup.note_request_mem(budget.charged_bytes());
            obs::add(Counter::MemBytesCharged, budget.charged_bytes());
            (budget.exhausted(), budget.charged_bytes())
        }
        None => (false, 0),
    };
    let mut served = Served {
        worker: Some(worker),
        mem_bytes,
        events,
        ..Served::inline(
            Some(req.op),
            req.project.clone(),
            trace,
            Outcome::Ok,
            String::new(),
        )
    };
    let failed = match result {
        Ok(Ok(mut result)) => {
            served.degradations = result
                .get("degradations")
                .and_then(Value::as_arr)
                .map(|a| {
                    a.iter()
                        .filter_map(|d| d.as_str().map(str::to_string))
                        .take(8)
                        .collect()
                })
                .unwrap_or_default();
            served.cache_hits =
                result.get("summary_cache_hits").and_then(Value::as_u64).unwrap_or(0);
            served.cache_recomputes =
                result.get("summaries_recomputed").and_then(Value::as_u64).unwrap_or(0);
            let degraded =
                result.get("degraded").and_then(Value::as_bool).unwrap_or(false);
            if let Value::Obj(map) = &mut result {
                map.insert("deadline_expired".to_string(), Value::Bool(expired));
                map.insert("mem_exhausted".to_string(), Value::Bool(mem_exhausted));
            }
            served.outcome = if expired {
                Outcome::Deadline
            } else if mem_exhausted {
                Outcome::MemExhausted
            } else if degraded {
                Outcome::Degraded
            } else {
                Outcome::Ok
            };
            served.response = proto::ok_response(req.id, req.op, &served.trace, result);
            mem_exhausted
        }
        Ok(Err((kind, msg))) => {
            // Client errors (bad request etc.) are not project failures.
            served.outcome = if kind == ErrorKind::BadRequest {
                Outcome::BadRequest
            } else {
                Outcome::Internal
            };
            served.response =
                proto::err_response(req.id, Some(req.op), &served.trace, kind, &msg, None);
            mem_exhausted
        }
        Err(payload) => {
            // Contained panic: reset this project only; all other sessions
            // (and this worker) keep serving.
            shard.evict(&req.project);
            let msg = ipa::isolate::panic_message(payload.as_ref());
            served.outcome = Outcome::Panic;
            served.response = proto::err_response(
                req.id,
                Some(req.op),
                &served.trace,
                ErrorKind::Panic,
                &format!("request handler panicked (session reset): {msg}"),
                None,
            );
            true
        }
    };
    (served, failed)
}

type HandlerResult = Result<Value, (ErrorKind, String)>;

fn handle_request(shard: &mut Shard<'_>, req: &Request) -> HandlerResult {
    // Chaos instrumentation: a per-project panic point (arm
    // `serve::project::<name>:always` to make one project toxic while
    // others stay healthy) and a wedge point that sticks this worker
    // somewhere no checkpoint runs, exercising supervisor replacement.
    #[cfg(feature = "fault-injection")]
    {
        support::faultpoint::hit(&format!("serve::project::{}", req.project));
        if support::faultpoint::fires("serve::wedge") {
            loop {
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
    match req.op {
        Op::Analyze | Op::Reanalyze => {
            if req.op == Op::Reanalyze && !shard.sessions.contains_key(&req.project) {
                return Err((
                    ErrorKind::BadRequest,
                    format!("reanalyze: unknown project `{}`", req.project),
                ));
            }
            let sources: Vec<SourceFile> = req
                .sources
                .iter()
                .map(|s| {
                    SourceFile::new(
                        &s.name,
                        &s.text,
                        if s.fortran { Lang::Fortran } else { Lang::C },
                    )
                })
                .collect();
            let session = shard.session(&req.project);
            let delta = session
                .update(sources)
                .map_err(|e| (ErrorKind::BadRequest, format!("analysis failed: {e}")))?;
            let analysis = session
                .analysis()
                .ok_or_else(|| (ErrorKind::Internal, "no analysis state".to_string()))?;
            let result = obj([
                ("procedures", Value::int(analysis.program.procedure_count() as u64)),
                ("rows", Value::int(analysis.rows.len() as u64)),
                ("degraded", Value::Bool(!analysis.degradations.is_empty())),
                (
                    "degradations",
                    Value::Arr(
                        analysis
                            .degradations
                            .iter()
                            .map(|d| Value::str(d.to_string()))
                            .collect(),
                    ),
                ),
                ("summaries_recomputed", Value::int(delta.summaries_recomputed.len() as u64)),
                ("summary_cache_hits", Value::int(delta.summary_cache_hits as u64)),
                ("files_reparsed", Value::int(delta.files_reparsed as u64)),
                ("rows_changed", Value::int(delta.rows_changed as u64)),
            ]);
            // Group commit: durable now (first commit, or window elapsed)
            // or within one debounce window via the idle flush / drain.
            shard.note_write(&req.project);
            Ok(result)
        }
        Op::Lint => {
            let Some(session) = shard.sessions.get(&req.project) else {
                return Err((
                    ErrorKind::BadRequest,
                    format!("lint: unknown project `{}` (analyze first)", req.project),
                ));
            };
            let analysis = session
                .analysis()
                .ok_or_else(|| {
                    (
                        ErrorKind::BadRequest,
                        format!("lint: project `{}` has no analysis yet", req.project),
                    )
                })?;
            let report = lint::run(analysis, &lint::LintOptions { threads: 1 });
            Ok(obj([
                ("definite", Value::int(report.definite_count() as u64)),
                ("possible", Value::int(report.possible_count() as u64)),
                ("degraded", Value::Bool(!report.degradations.is_empty())),
                (
                    "findings",
                    Value::Arr(
                        report
                            .findings
                            .iter()
                            .map(|f| {
                                obj([
                                    ("rule", Value::str(f.rule.id())),
                                    ("severity", Value::str(f.severity.name())),
                                    ("file", Value::str(&f.file)),
                                    ("line", Value::int(u64::from(f.line))),
                                    ("proc", Value::str(&f.proc)),
                                    ("array", Value::str(&f.array)),
                                    ("message", Value::str(&f.message)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]))
        }
        Op::QueryRgn => {
            let Some(session) = shard.sessions.get(&req.project) else {
                return Err((
                    ErrorKind::BadRequest,
                    format!("query-rgn: unknown project `{}`", req.project),
                ));
            };
            let rgn = session.rgn_document().ok_or_else(|| {
                (
                    ErrorKind::BadRequest,
                    format!("query-rgn: project `{}` has no analysis yet", req.project),
                )
            })?;
            Ok(obj([("rgn", Value::str(rgn))]))
        }
        // Handled inline by the connection thread; reaching a worker is a
        // routing bug.
        Op::Stats | Op::Health | Op::Shutdown | Op::Metrics | Op::QueryLog | Op::Profile => {
            Err((ErrorKind::Internal, "control op routed to worker".to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharding_is_stable_and_in_range() {
        for w in 1..8 {
            for p in ["default", "alpha", "a/b/c", "x"] {
                let s = shard_of(p, w);
                assert!(s < w);
                assert_eq!(s, shard_of(p, w), "deterministic");
            }
        }
    }

    #[test]
    fn project_dirs_are_filesystem_safe() {
        let root = Path::new("/tmp/araa");
        let d = project_dir(root, "weird/../name with spaces");
        let leaf = d.file_name().unwrap_or_default().to_string_lossy().into_owned();
        assert!(leaf.starts_with('p') && leaf.len() == 17, "got {leaf}");
        assert!(!leaf.contains('/') && !leaf.contains(' '));
    }

    #[test]
    fn scan_recovers_marker_dirs_only() {
        let root = std::env::temp_dir().join(format!("araa_scan_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let a = project_dir(&root, "proj-a");
        std::fs::create_dir_all(&a).unwrap();
        std::fs::write(a.join("project.name"), "proj-a\n").unwrap();
        std::fs::create_dir_all(root.join("unrelated")).unwrap();
        assert_eq!(scan_projects(&root), vec!["proj-a".to_string()]);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn effective_deadline_clamps() {
        let opts = ServeOptions::default();
        let mut req = proto::parse_request(r#"{"op":"stats"}"#).expect("parse");
        assert_eq!(effective_deadline_ms(&req, &opts), opts.default_deadline_ms);
        req.deadline_ms = Some(0);
        assert_eq!(effective_deadline_ms(&req, &opts), 1, "zero clamps up");
        req.deadline_ms = Some(u64::MAX);
        assert_eq!(effective_deadline_ms(&req, &opts), MAX_DEADLINE_MS, "huge clamps down");
    }
}
