//! The `dragon` command line as one table: [`COMMANDS`] has a row per
//! command with its positionals, its own flags and the [`GLOBAL`] flags it
//! reads. [`parse`] checks an argv against it, so a flag a command neither
//! declares nor reads is an error, never ignored or taken for a source
//! path; [`usage`] renders it. Global flags go before or after the command.

use dragon::serve::ServeOptions;
use std::str::FromStr;
use std::time::Duration;
use support::json::Value;

/// How a flag's value is read.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// Takes no value.
    Switch,
    /// Any text: a path, a name, an id.
    Text,
    /// A whole number from the first bound to the second.
    Int(u64, u64),
    /// A positive number of seconds; fractions allowed.
    Secs,
}

use Kind::{Secs, Switch, Text};
const INT: Kind = Kind::Int(0, u64::MAX);
const POS: Kind = Kind::Int(1, u64::MAX);
const INT32: Kind = Kind::Int(0, u32::MAX as u64);
const POS32: Kind = Kind::Int(1, u32::MAX as u64);

impl Kind {
    /// Why `raw` is no value of this kind, if it is not one.
    fn check(self, raw: &str) -> Result<(), String> {
        match self {
            Kind::Int(min, max) if !raw.parse().is_ok_and(|n| (min..=max).contains(&n)) => {
                Err(format!("`{raw}` is not a whole number from {min} to {max}"))
            }
            Secs if secs(raw).is_none() => {
                Err(format!("`{raw}` is not a positive number of seconds"))
            }
            _ => Ok(()),
        }
    }
}

fn secs(raw: &str) -> Option<Duration> {
    raw.parse().ok().filter(|s: &f64| *s > 0.0).and_then(|s| Duration::try_from_secs_f64(s).ok())
}

/// A checked value in its reader's type. The table's bounds keep every
/// checked value in range of that type (`usize` on a 64-bit target).
fn num<T: FromStr + Default>(raw: &str) -> T {
    let n = raw.parse();
    debug_assert!(n.is_ok(), "`{raw}` passed a check wider than its reader's type");
    n.unwrap_or_default()
}

/// Where a flag's value goes.
#[derive(Clone, Copy)]
enum To {
    /// The command reads it through a getter of [`Args`].
    Cmd,
    /// The `client` request field of this name.
    Wire(&'static str),
    /// A field of the daemon's [`ServeOptions`].
    Serve(fn(&mut ServeOptions, &str)),
}

/// One flag of the table.
#[derive(Clone, Copy)]
struct Flag {
    name: &'static str,
    kind: Kind,
    /// The value's placeholder in the usage text; empty for a switch.
    meta: &'static str,
    help: &'static str,
    /// Leaving it out is a usage error.
    required: bool,
    to: To,
}

const fn flag(name: &'static str, kind: Kind, meta: &'static str, help: &'static str) -> Flag {
    Flag { name, kind, meta, help, required: false, to: To::Cmd }
}

impl Flag {
    const fn wire(self, field: &'static str) -> Flag {
        Flag { to: To::Wire(field), ..self }
    }

    const fn serve(self, set: fn(&mut ServeOptions, &str)) -> Flag {
        Flag { to: To::Serve(set), ..self }
    }

    const fn required(self) -> Flag {
        Flag { required: true, ..self }
    }
}

/// One row of the table.
pub struct Command {
    pub name: &'static str,
    /// Positionals as the usage shows them: `<one>`, `<one or more...>`,
    /// or a last `[zero or more...]`.
    args: &'static [&'static str],
    help: &'static str,
    /// The global flags it reads; it rejects the others.
    globals: &'static [&'static str],
    flags: &'static [Flag],
}

const fn cmd(
    name: &'static str,
    args: &'static [&'static str],
    help: &'static str,
    globals: &'static [&'static str],
    flags: &'static [Flag],
) -> Command {
    Command { name, args, help, globals, flags }
}

impl Command {
    fn takes(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f.name == name) || self.globals.contains(&name)
    }

    fn synopsis(&self) -> String {
        std::iter::once(self.name).chain(self.args.iter().copied()).collect::<Vec<_>>().join(" ")
    }
}

#[rustfmt::skip]
const GLOBAL: &[Flag] = &[
    flag("--strict", Switch, "", "treat degraded results as failure (exit 2)"),
    flag("--cache-dir", Text, "DIR", "persistent analysis cache (serve: a store per project)"),
    flag("--no-cache", Switch, "", "ignore --cache-dir for this run"),
    flag("--timeout", Secs, "SECS", "wall-clock deadline; the analysis degrades (exit 1) past it"),
    flag("--mem-budget-mb", INT, "MB", "allocation budget; the analysis degrades (exit 1) past it; \
                                        serve and client: per request").wire("mem_budget_mb"),
    flag("--trace-out", Text, "DIR", "write trace.json (Chrome trace) and metrics.jsonl"),
    flag("--metrics", Text, "FILE", "write the JSONL metrics stream to FILE"),
];

/// The global flags of every command that analyses sources.
#[rustfmt::skip]
const ANALYSIS: &[&str] = &["--strict", "--cache-dir", "--no-cache", "--timeout", "--mem-budget-mb",
                            "--trace-out", "--metrics"];
const SOCKET: Flag = flag("--socket", Text, "PATH", "the daemon's socket").required();
const TOP: Flag = flag("--top", INT, "N", "rows to show");

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    cmd("analyze", &["<src...>"], "compile and write .rgn/.dgn/.cfg", ANALYSIS, &[
        flag("--out", Text, "DIR", "output directory"),
        flag("--stem", Text, "NAME", "output file stem"),
    ]),
    cmd("view", &["<scope>", "<src...>"], "render the array analysis graph", ANALYSIS, &[
        flag("--find", Text, "ARRAY", "highlight the rows of ARRAY"),
        flag("--expand-dims", Switch, "", "one row per dimension"),
    ]),
    cmd("callgraph", &["<src...>"], "DOT call graph (Fig. 11)", ANALYSIS, &[]),
    cmd("advise", &["<src...>"], "optimization advice", ANALYSIS, &[]),
    cmd("demo", &["<fig1|matrix|lu>"], "run a built-in paper workload", ANALYSIS, &[]),
    cmd("dynamic", &["<entry>", "<src...>"], "execute + dynamic region report", ANALYSIS, &[]),
    cmd("hotspots", &["<src...>"], "highest access densities", ANALYSIS, &[TOP]),
    cmd("lint", &["<src...>"], "array-safety findings", ANALYSIS, &[
        flag("--sarif", Text, "FILE", "also write a sealed SARIF log"),
        flag("--threads", INT, "N", "lint threads"),
    ]),
    cmd("profile", &["<src...>"], "self-profiling report", ANALYSIS, &[TOP]),
    cmd("cache", &["<stats|verify|clear>"], "inspect, check or scrub the --cache-dir store",
        &["--strict", "--cache-dir", "--trace-out", "--metrics"], &[]),
    cmd("serve", &[], "run the analysis daemon",
        &["--strict", "--cache-dir", "--no-cache", "--mem-budget-mb", "--trace-out", "--metrics"], &[
        flag("--socket", Text, "PATH", "socket to listen on").required().serve(|o, v| o.socket = v.into()),
        flag("--workers", POS, "N", "worker threads").serve(|o, v| o.workers = num(v)),
        flag("--queue-depth", POS, "N", "queued requests per worker").serve(|o, v| o.queue_depth = num(v)),
        flag("--deadline-ms", POS, "MS", "default deadline").serve(|o, v| o.default_deadline_ms = num(v)),
        flag("--max-connections", POS, "N", "open connections").serve(|o, v| o.max_connections = num(v)),
        flag("--max-frame-bytes", POS, "N", "longest request line").serve(|o, v| o.max_frame_bytes = num(v)),
        flag("--io-timeout-ms", POS, "MS", "stall allowed inside a request line")
            .serve(|o, v| o.io_timeout_ms = num(v)),
        flag("--heartbeat-grace-ms", POS, "MS", "grace past a deadline before a worker is replaced")
            .serve(|o, v| o.heartbeat_grace_ms = num(v)),
        flag("--circuit-threshold", POS32, "N", "failures in a row that open a project's circuit")
            .serve(|o, v| o.circuit_threshold = num(v)),
        flag("--circuit-cooldown-ms", POS, "MS", "how long an open circuit rejects")
            .serve(|o, v| o.circuit_cooldown_ms = num(v)),
        flag("--metrics-interval-ms", POS, "MS", "snapshot period (with --metrics-snapshot)")
            .serve(|o, v| o.metrics_interval_ms = num(v)),
        flag("--metrics-snapshot", Text, "FILE", "snapshot file (with --metrics-interval-ms)")
            .serve(|o, v| o.metrics_snapshot = Some(v.into())),
    ]),
    cmd("client", &["<op>", "[src...]"],
        "one request; op: ping or analyze, reanalyze, lint, query-rgn, stats, health, shutdown, \
         metrics, query-log, profile",
        &["--strict", "--mem-budget-mb", "--trace-out", "--metrics"], &[
        SOCKET,
        flag("--project", Text, "NAME", "the project").wire("project"),
        flag("--deadline-ms", INT, "MS", "the request's deadline").wire("deadline_ms"),
        flag("--retries", INT32, "N", "attempts after the first"),
        flag("--timeout-ms", POS, "MS", "response timeout of one attempt"),
        flag("--trace", Text, "ID", "trace id to tag the request with").wire("trace"),
        flag("--format", Text, "F", "metrics: prometheus; profile: collapsed").wire("format"),
        flag("--limit", INT, "N", "query-log: entries to return").wire("limit"),
        flag("--top", INT, "N", "profile: procedures per project").wire("top"),
    ]),
    cmd("top", &[], "live daemon dashboard: rps, per-op latency, heartbeats, hot procedures",
        &["--strict", "--trace-out", "--metrics"], &[
        SOCKET,
        flag("--interval-ms", POS, "MS", "refresh period"),
        flag("--iterations", POS, "N", "refreshes before exiting"),
        flag("--once", Switch, "", "same as --iterations 1"),
        flag("--top", INT, "N", "hottest procedures to show"),
    ]),
];

/// A command line checked against the table.
pub struct Args {
    pub cmd: &'static Command,
    /// The positionals; their count fits the command's row.
    pub pos: Vec<String>,
    /// Every flag given with its checked value (empty for a switch), in
    /// argv order.
    flags: Vec<(&'static Flag, String)>,
}

impl Args {
    /// The value of whichever of `names` came last, if any was given.
    pub fn last(&self, names: &[&str]) -> Option<&str> {
        debug_assert!(
            names.iter().all(|n| self.cmd.flags.iter().chain(GLOBAL).any(|f| f.name == *n)),
            "`{}` reads a flag the table does not declare: {names:?}",
            self.cmd.name
        );
        self.flags.iter().rev().find(|(f, _)| names.contains(&f.name)).map(|(_, v)| v.as_str())
    }

    pub fn on(&self, name: &str) -> bool {
        self.last(&[name]).is_some()
    }

    pub fn text(&self, name: &str) -> Option<&str> {
        self.last(&[name])
    }

    /// A numeric flag's value, in the type the caller reads it as.
    pub fn num<T: FromStr + Default>(&self, name: &str) -> Option<T> {
        self.last(&[name]).map(num)
    }

    pub fn secs(&self, name: &str) -> Option<Duration> {
        self.last(&[name]).and_then(secs)
    }

    /// The `client` request fields the given flags fill.
    pub fn wire(&self) -> impl Iterator<Item = (&'static str, Value)> + '_ {
        self.flags.iter().filter_map(|(f, v)| match (f.to, f.kind) {
            (To::Wire(field), Kind::Int(..)) => Some((field, Value::int(num(v)))),
            (To::Wire(field), _) => Some((field, Value::str(v.as_str()))),
            _ => None,
        })
    }

    /// Sets the [`ServeOptions`] fields the given flags map to.
    pub fn apply(&self, opts: &mut ServeOptions) {
        for (f, v) in &self.flags {
            if let To::Serve(set) = f.to {
                set(opts, v);
            }
        }
    }
}

/// Checks `argv` (without the program name) against the table. A flag's
/// value is the next argument, which may not start with `--`; a repeated
/// flag's last value wins.
pub fn parse(argv: &[String]) -> Result<Args, String> {
    let mut cmd: Option<&'static Command> = None;
    let (mut pos, mut flags) = (Vec::new(), Vec::new());
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            match cmd {
                Some(_) => pos.push(arg.clone()),
                None => {
                    let row = COMMANDS.iter().find(|c| c.name == arg);
                    cmd = Some(row.ok_or_else(|| format!("unknown command `{arg}`"))?);
                }
            }
            continue;
        }
        let own = cmd.map_or(&[][..], |c| c.flags);
        let flag = own.iter().chain(GLOBAL).find(|f| f.name == arg).ok_or_else(|| match cmd {
            Some(c) => format!("`{}` does not take {arg}", c.name),
            None => format!("{arg} is not a global flag"),
        })?;
        let mut val = String::new();
        if flag.kind != Switch {
            let raw = it.next().filter(|v| !v.starts_with("--"));
            val = raw.ok_or_else(|| format!("{arg} needs a value ({})", flag.meta))?.clone();
            flag.kind.check(&val).map_err(|e| format!("{arg}: {e}"))?;
        }
        flags.push((flag, val));
    }
    let cmd = cmd.ok_or("no command given")?;
    if let Some((f, _)) = flags.iter().find(|(f, _)| !cmd.takes(f.name)) {
        return Err(format!("`{}` does not take {}", cmd.name, f.name));
    }
    let given = |name: &str| flags.iter().any(|(f, _)| f.name == name);
    if let Some(f) = cmd.flags.iter().find(|f| f.required && !given(f.name)) {
        return Err(format!("`{}` needs {} {}", cmd.name, f.name, f.meta));
    }
    let min = cmd.args.iter().filter(|a| a.starts_with('<')).count();
    let max = if cmd.args.iter().any(|a| a.contains("...")) { usize::MAX } else { cmd.args.len() };
    if pos.len() < min {
        return Err(format!("missing arguments: {}", cmd.synopsis()));
    }
    if let Some(extra) = pos.get(max) {
        return Err(format!("unexpected argument `{extra}`: {}", cmd.synopsis()));
    }
    Ok(Args { cmd, pos, flags })
}

/// The usage text, rendered from the table.
pub fn usage() -> String {
    let mut out =
        String::from("usage: dragon [global flags] <command> [args] [flags] [global flags]\n");
    for c in COMMANDS {
        out.push_str(&format!("  {:<28} {}\n", c.synopsis(), c.help));
        for f in c.flags {
            let required = if f.required { " (required)" } else { "" };
            let flag = format!("{} {}", f.name, f.meta);
            out.push_str(&format!("      {:<24} {}{required}\n", flag.trim_end(), f.help));
        }
    }
    out.push_str("global flags (a command rejects those it does not read):\n");
    for g in GLOBAL {
        let flag = format!("{} {}", g.name, g.meta);
        out.push_str(&format!("  {:<28} {}\n", flag.trim_end(), g.help));
        let skip: Vec<&str> =
            COMMANDS.iter().filter(|c| !c.globals.contains(&g.name)).map(|c| c.name).collect();
        if !skip.is_empty() {
            out.push_str(&format!("{:31}not read by {}\n", "", skip.join(", ")));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A value `kind` accepts.
    fn good(kind: Kind) -> &'static str {
        match kind {
            Kind::Int(..) => "7",
            Secs => "0.5",
            Switch | Text => "x",
        }
    }

    /// `c`'s shortest valid command line, then `extra`.
    fn line(c: &Command, extra: &[&str]) -> Vec<String> {
        let mut argv = vec![c.name.to_string()];
        argv.extend(c.args.iter().filter(|a| a.starts_with('<')).map(|_| "a".to_string()));
        for f in c.flags.iter().filter(|f| f.required) {
            argv.extend([f.name.to_string(), good(f.kind).to_string()]);
        }
        argv.extend(extra.iter().map(|w| w.to_string()));
        argv
    }

    fn rejects(argv: &[String], flag: &str) {
        match parse(argv) {
            Ok(_) => panic!("{argv:?} parsed"),
            Err(e) => assert!(e.contains(flag), "{argv:?}: `{e}` does not name {flag}"),
        }
    }

    fn accepts(argv: &[String]) -> Args {
        parse(argv).unwrap_or_else(|e| panic!("{argv:?}: {e}"))
    }

    #[test]
    fn the_table_declares_35_flags_once_each() {
        let mut names: Vec<&str> = GLOBAL.iter().map(|f| f.name).collect();
        for c in COMMANDS {
            for (i, f) in c.flags.iter().enumerate() {
                assert!(!GLOBAL.iter().any(|g| g.name == f.name), "{} shadows a global", f.name);
                assert!(!c.flags[..i].iter().any(|g| g.name == f.name), "{} twice", f.name);
                assert_eq!(f.kind == Switch, f.meta.is_empty(), "{}", f.name);
                names.push(f.name);
            }
            assert!(c.globals.iter().all(|g| GLOBAL.iter().any(|f| f.name == *g)), "{}", c.name);
            assert!(c.globals.contains(&"--strict"), "{} ends in the exit-code mapping", c.name);
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 35, "{names:?}");
        assert!(!names.contains(&"--cache-root"));
    }

    #[test]
    fn every_flag_of_every_command_is_checked() {
        for c in COMMANDS {
            accepts(&line(c, &[]));
            let read = GLOBAL.iter().filter(|g| c.globals.contains(&g.name));
            for f in c.flags.iter().chain(read) {
                if f.kind == Switch {
                    assert!(accepts(&line(c, &[f.name])).on(f.name), "{} {}", c.name, f.name);
                    continue;
                }
                let args = accepts(&line(c, &[f.name, good(f.kind)]));
                assert_eq!(args.text(f.name), Some(good(f.kind)), "{} {}", c.name, f.name);
                rejects(&line(c, &[f.name]), f.name);
                rejects(&line(c, &[f.name, "--strict"]), f.name);
                let mut bad = vec!["abc", "-1", ""];
                let above;
                match f.kind {
                    Kind::Int(min, max) => {
                        above = (u128::from(max) + 1).to_string();
                        bad.extend(["1.5", above.as_str()]);
                        if min > 0 {
                            bad.push("0");
                        }
                    }
                    Secs => bad.extend(["0", "nan", "inf", "1e300"]),
                    _ => bad.clear(),
                }
                for v in bad {
                    rejects(&line(c, &[f.name, v]), f.name);
                }
            }
            rejects(&line(c, &["--no-such-flag"]), "--no-such-flag");
            for other in COMMANDS.iter().flat_map(|o| o.flags).filter(|f| !c.takes(f.name)) {
                rejects(&line(c, &[other.name, good(other.kind)]), other.name);
            }
            for g in GLOBAL.iter().filter(|g| !c.globals.contains(&g.name)) {
                let value = if g.kind == Switch { None } else { Some(good(g.kind).to_string()) };
                let before: Vec<String> = std::iter::once(g.name.to_string())
                    .chain(value.clone())
                    .chain(line(c, &[]))
                    .collect();
                rejects(&before, g.name);
                rejects(&line(c, &[g.name, value.as_deref().unwrap_or("a")]), g.name);
            }
            if c.args.iter().any(|a| a.starts_with('<')) {
                let mut short = line(c, &[]);
                short.remove(1);
                rejects(&short, "missing arguments");
            }
            if !c.args.iter().any(|a| a.contains("...")) {
                rejects(&line(c, &["extra"]), "unexpected argument `extra`");
            }
        }
    }

    #[test]
    fn global_flags_go_before_or_after_the_command() {
        let words = |ws: &[&str]| ws.iter().map(|w| w.to_string()).collect::<Vec<_>>();
        for argv in [
            words(&["--strict", "--timeout", "2", "demo", "lu"]),
            words(&["demo", "--timeout", "2", "lu", "--strict"]),
        ] {
            let args = accepts(&argv);
            assert!(args.on("--strict"));
            assert_eq!(args.secs("--timeout"), Some(Duration::from_secs(2)));
            assert_eq!(args.pos, ["lu"]);
        }
        rejects(&words(&["--out", "d", "analyze", "a.f"]), "--out");
        rejects(&words(&[]), "no command");
        rejects(&words(&["frobnicate"]), "frobnicate");
        rejects(&words(&["serve"]), "--socket");
    }

    #[test]
    fn flags_reach_their_targets() {
        let words = |ws: &[&str]| ws.iter().map(|w| w.to_string()).collect::<Vec<_>>();
        let client = accepts(&words(&[
            "--mem-budget-mb",
            "5",
            "client",
            "stats",
            "--socket",
            "s",
            "--project",
            "p",
            "--limit",
            "3",
            "--retries",
            "1",
            "--project",
            "q",
        ]));
        let fields: Vec<(&str, Value)> = client.wire().collect();
        assert_eq!(
            fields,
            [
                ("mem_budget_mb", Value::int(5)),
                ("project", Value::str("p")),
                ("limit", Value::int(3)),
                ("project", Value::str("q")),
            ]
        );
        assert_eq!(client.num::<u32>("--retries"), Some(1));

        let serve = COMMANDS.iter().find(|c| c.name == "serve").expect("a serve row");
        for f in serve.flags {
            let mut opts = ServeOptions::default();
            accepts(&line(serve, &[f.name, good(f.kind)])).apply(&mut opts);
            let mut socket_only = ServeOptions::default();
            accepts(&line(serve, &[])).apply(&mut socket_only);
            if f.name != "--socket" {
                assert_ne!(
                    format!("{opts:?}"),
                    format!("{socket_only:?}"),
                    "{} sets nothing",
                    f.name
                );
            }
        }
        let mut opts = ServeOptions::default();
        accepts(&line(serve, &["--circuit-threshold", "4294967295"])).apply(&mut opts);
        assert_eq!(opts.circuit_threshold, u32::MAX);

        let top = accepts(&words(&["top", "--socket", "s", "--iterations", "3", "--once"]));
        assert_eq!(top.last(&["--once", "--iterations"]), Some(""));
        let top = accepts(&words(&["top", "--socket", "s", "--once", "--iterations", "3"]));
        assert_eq!(top.last(&["--once", "--iterations"]), Some("3"));
    }

    #[test]
    fn usage_names_every_command_and_flag() {
        let text = usage();
        for c in COMMANDS {
            assert!(text.contains(&format!("  {} ", c.name)), "{}", c.name);
            for f in c.flags.iter().chain(GLOBAL) {
                assert!(text.contains(f.name), "{}", f.name);
            }
        }
    }
}
