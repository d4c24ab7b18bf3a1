//! The in-process `dragon serve` daemon and its one closed-loop client.
//!
//! The daemon runs on a thread through [`dragon::serve::run`]; requests
//! still cross the real Unix socket, the real wire protocol and the real
//! [`dragon::serve::client`] code, one connection per request.

use dragon::serve::{self, ClientOptions, ServeOptions};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use support::json::{obj, Value};
use workloads::GenSource;

pub struct Daemon {
    client: ClientOptions,
    thread: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts a daemon on `socket` with the default options, and waits
    /// until it accepts. By default the daemon keeps its sessions in
    /// memory only: persistence is measured in-process, by the edit ops.
    pub fn start(socket: &Path) -> Result<Daemon, String> {
        let opts = ServeOptions {
            socket: socket.to_path_buf(),
            ..ServeOptions::default()
        };
        let thread = std::thread::spawn(move || {
            if let Err(e) = serve::run(opts) {
                eprintln!("perfbench: daemon failed: {e}");
            }
        });
        let client = ClientOptions {
            socket: socket.to_path_buf(),
            timeout: Duration::from_secs(60),
            // No retries: a shed must reach the benchmark as a failure.
            retries: 0,
            ..ClientOptions::default()
        };
        let mut daemon = Daemon {
            client,
            thread: Some(thread),
        };
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(30) {
            if UnixStream::connect(socket).is_ok() {
                return Ok(daemon);
            }
            if daemon.thread.as_ref().is_some_and(JoinHandle::is_finished) {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        daemon.shutdown();
        Err(format!("daemon did not come up on {}", socket.display()))
    }

    /// One request; `Err` on transport failure, on `"ok": false` (which
    /// includes sheds) and on a deadline-expired result.
    pub fn call(&self, req: &Value) -> Result<Value, String> {
        let resp = serve::client::call(&self.client, req).map_err(|e| e.to_string())?;
        if resp.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err(format!("daemon refused: {}", resp.render()));
        }
        let result = resp.get("result").cloned().unwrap_or(Value::Null);
        if result.get("deadline_expired").and_then(Value::as_bool) == Some(true) {
            return Err("deadline expired".to_string());
        }
        Ok(result)
    }

    /// Drains the daemon over the wire and joins its thread.
    pub fn shutdown(&mut self) {
        if let Some(t) = self.thread.take() {
            let o = ClientOptions {
                retries: 2,
                ..self.client.clone()
            };
            let _ = serve::client::call(&o, &plain_req("shutdown", "bench"));
            if t.join().is_err() {
                eprintln!("perfbench: daemon thread panicked");
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

pub fn plain_req(op: &str, project: &str) -> Value {
    obj([
        ("id", Value::int(1)),
        ("op", Value::str(op)),
        ("project", Value::str(project)),
    ])
}

pub fn analyze_req(op: &str, project: &str, sources: &[GenSource]) -> Value {
    let srcs = sources
        .iter()
        .map(|s| {
            obj([
                ("name", Value::str(s.name.as_str())),
                ("text", Value::str(s.text.as_str())),
                ("fortran", Value::Bool(s.fortran)),
            ])
        })
        .collect();
    obj([
        ("id", Value::int(1)),
        ("op", Value::str(op)),
        ("project", Value::str(project)),
        ("sources", Value::Arr(srcs)),
    ])
}

/// The per-op latency histogram (`bounds`, `counts`, in nanoseconds under
/// the daemon's default monotonic clock) from a `metrics` snapshot.
pub fn op_hist(metrics: &Value, op: &str) -> (Vec<u64>, Vec<u64>) {
    let lat = metrics
        .get("ops")
        .and_then(|o| o.get(op))
        .and_then(|o| o.get("latency"));
    let nums = |key: &str| -> Vec<u64> {
        lat.and_then(|l| l.get(key))
            .and_then(Value::as_arr)
            .map(|a| a.iter().filter_map(Value::as_u64).collect())
            .unwrap_or_default()
    };
    (nums("bounds"), nums("counts"))
}

/// Median (ms) of the requests recorded between two histogram snapshots,
/// interpolated linearly inside its bucket. The buckets are about 19 %
/// wide, so the bucket bound alone would read the same on most runs.
pub fn hist_p50_ms(before: &(Vec<u64>, Vec<u64>), after: &(Vec<u64>, Vec<u64>)) -> f64 {
    let (bounds, counts) = after;
    let delta: Vec<u64> = counts
        .iter()
        .enumerate()
        .map(|(i, &c)| c - before.1.get(i).copied().unwrap_or(0))
        .collect();
    let total: u64 = delta.iter().sum();
    if total == 0 {
        return f64::NAN;
    }
    let half = total as f64 / 2.0;
    let mut seen = 0.0;
    for (i, &c) in delta.iter().enumerate() {
        let c = c as f64;
        if c > 0.0 && seen + c >= half {
            let lo = if i == 0 { 0.0 } else { bounds[i - 1] as f64 };
            let hi = bounds[i] as f64;
            return (lo + (hi - lo) * (half - seen) / c) / 1e6;
        }
        seen += c;
    }
    f64::NAN
}
