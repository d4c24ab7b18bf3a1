//! Shared helpers for the serve integration tests: a three-procedure
//! fixture program, a self-cleaning daemon process handle, and request
//! builders for the wire protocol.

#![allow(dead_code)] // each test binary uses its own subset

use std::io::{BufRead, BufReader, Write};
use std::os::unix::fs::FileTypeExt;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dragon::serve::ClientOptions;
use support::json::{obj, Value};

// The three-procedure program the session tests use: one entry file per
// procedure in the cache, interprocedural flow through the common block.
pub const MAIN_F: &str = "\
program main
  real a(20)
  common /g/ a
  integer i
  do i = 1, 10
    a(i) = 0.0
  end do
  call mid
end
";
pub const MID_F: &str = "\
subroutine mid
  real a(20)
  common /g/ a
  a(11) = 1.0
  call leaf
end
";
pub const LEAF_F: &str = "\
subroutine leaf
  real a(20)
  common /g/ a
  integer i
  do i = 12, 20
    a(i) = 2.0
  end do
end
";
pub const LEAF_F_EDITED: &str = "\
subroutine leaf
  real a(20)
  common /g/ a
  integer i
  do i = 12, 18
    a(i) = 2.0
  end do
end
";

pub fn sources_v1() -> Vec<(&'static str, &'static str)> {
    vec![("main.f", MAIN_F), ("mid.f", MID_F), ("leaf.f", LEAF_F)]
}

pub fn sources_v2() -> Vec<(&'static str, &'static str)> {
    vec![("main.f", MAIN_F), ("mid.f", MID_F), ("leaf.f", LEAF_F_EDITED)]
}

pub fn dragon() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dragon"))
}

/// A running daemon process bound to a socket inside a test dir. Killed on
/// drop so a failing assertion never leaks a process.
pub struct Daemon {
    pub child: Child,
    pub socket: PathBuf,
}

impl Daemon {
    pub fn start(socket: PathBuf, extra: &[&str], envs: &[(&str, String)]) -> Daemon {
        let mut cmd = dragon();
        cmd.arg("serve")
            .args(["--socket", socket.to_str().expect("utf8 socket path")])
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let child = cmd.spawn().expect("spawn dragon serve");
        let mut d = Daemon { child, socket };
        // Ready once a socket sits at the path (not litter a test planted):
        // the daemon binds it before serving, and connections queue in the
        // backlog until the accept loop runs. A probing connection would
        // hold a `--max-connections` slot until the daemon saw it close.
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(30) {
            if std::fs::metadata(&d.socket).is_ok_and(|m| m.file_type().is_socket()) {
                return d;
            }
            if let Ok(Some(status)) = d.child.try_wait() {
                panic!("daemon exited before becoming ready: {status}");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = d.child.kill();
        panic!("daemon did not become ready on {}", d.socket.display());
    }

    /// Waits for the process to exit on its own (after a shutdown op or a
    /// chaos abort).
    pub fn wait_exit(&mut self, timeout: Duration) -> std::process::ExitStatus {
        let start = Instant::now();
        loop {
            if let Ok(Some(status)) = self.child.try_wait() {
                return status;
            }
            if start.elapsed() > timeout {
                let _ = self.child.kill();
                panic!("daemon did not exit within {timeout:?}");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Whether the process has exited, without blocking.
    pub fn exited(&mut self) -> Option<std::process::ExitStatus> {
        self.child.try_wait().ok().flatten()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

pub fn copts(socket: &Path) -> ClientOptions {
    ClientOptions {
        socket: socket.to_path_buf(),
        timeout: Duration::from_secs(60),
        retries: 2,
        backoff_base: Duration::from_millis(20),
        ..ClientOptions::default()
    }
}

pub fn analyze_req(
    id: u64,
    op: &str,
    project: &str,
    sources: &[(&str, &str)],
    deadline_ms: Option<u64>,
) -> Value {
    let srcs: Vec<Value> = sources
        .iter()
        .map(|(name, text)| {
            obj([
                ("name", Value::str(*name)),
                ("text", Value::str(*text)),
                ("fortran", Value::Bool(true)),
            ])
        })
        .collect();
    let mut fields = vec![
        ("id", Value::int(id)),
        ("op", Value::str(op)),
        ("project", Value::str(project)),
        ("sources", Value::Arr(srcs)),
    ];
    if let Some(ms) = deadline_ms {
        fields.push(("deadline_ms", Value::int(ms)));
    }
    obj(fields)
}

pub fn plain_req(id: u64, op: &str, project: &str) -> Value {
    obj([
        ("id", Value::int(id)),
        ("op", Value::str(op)),
        ("project", Value::str(project)),
    ])
}

/// Calls and asserts `ok:true`, returning the `result` object.
pub fn call_ok(o: &ClientOptions, req: &Value) -> Value {
    let resp = dragon::serve::client::call(o, req).expect("call succeeds");
    assert_eq!(
        resp.get("ok").and_then(Value::as_bool),
        Some(true),
        "expected ok response, got {}",
        resp.render()
    );
    resp.get("result").cloned().expect("ok response carries result")
}

pub fn result_u64(result: &Value, key: &str) -> u64 {
    result
        .get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing integer `{key}` in {}", result.render()))
}

pub fn error_kind(resp: &Value) -> String {
    resp.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Value::as_str)
        .unwrap_or("?")
        .to_string()
}

/// One raw request/response exchange on an existing connection.
pub fn raw_roundtrip(stream: &mut UnixStream, line: &str) -> Value {
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .expect("send");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read response");
    Value::parse(resp.trim()).expect("response parses")
}
