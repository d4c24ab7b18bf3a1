//! Benchmark-side spans: name, start, end, parent and op id, kept in
//! memory and written once at the end in the Chrome `trace_event` shape
//! the repository's own `support::obs` exports use.
//!
//! A calibrated tracer samples the calibration kernel (`calib`) right
//! before and right after every op's root span, outside the span, and
//! scales every span of the op by the factor they give. A root that waits
//! on the disk also samples the disk probe and splits its time into on-CPU
//! and off-CPU parts, scaled by the kernel and the probe. Durations the
//! tracer reports are scaled; the Chrome trace keeps the raw timeline.

use crate::calib;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The op's calibration factor (see [`calib::scale`]); 1 for spans of
    /// an uncalibrated tracer.
    pub scale: f64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Scaled duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.dur_ns() as f64 * self.scale / 1e6
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_op: u64,
    kernel: Option<calib::Kernel>,
    probe: Option<calib::IoProbe>,
    /// The kernel sample taken before the open root span.
    before: f64,
    /// For a root opened with [`enter_io`](Self::enter_io): the disk probe
    /// sample taken before it and the thread's CPU time at its start.
    io_before: Option<(f64, u64)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
            kernel: None,
            probe: None,
            before: 0.0,
            io_before: None,
        }
    }
}

impl Tracer {
    /// A tracer that calibrates every op.
    pub fn calibrated() -> Tracer {
        Tracer {
            kernel: Some(calib::Kernel::default()),
            ..Tracer::default()
        }
    }

    /// Sets the disk probe that [`enter_io`](Self::enter_io) roots use.
    pub fn set_io_probe(&mut self, probe: calib::IoProbe) {
        self.probe = Some(probe);
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span. A span opened with no span open starts a new op.
    pub fn enter(&mut self, name: &'static str) -> usize {
        self.open(name, false)
    }

    /// Opens the root span of an op that waits on the disk. Its on-CPU
    /// time is scaled by the kernel and its off-CPU time by the disk probe.
    pub fn enter_io(&mut self, name: &'static str) -> usize {
        self.open(name, true)
    }

    fn open(&mut self, name: &'static str, io: bool) -> usize {
        let parent = self.stack.last().copied();
        let op = match parent {
            Some(p) => self.spans[p].op,
            None => {
                if let Some(k) = self.kernel.as_mut() {
                    self.before = k.sample();
                    self.io_before = match &self.probe {
                        Some(p) if io => Some((p.sample(), calib::thread_cpu_ns())),
                        _ => None,
                    };
                }
                self.next_op += 1;
                self.next_op
            }
        };
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
            scale: 1.0,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id` (the innermost open one). Closing a root span of
    /// a calibrated tracer sets the scale of every span of its op.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now();
        if !self.stack.is_empty() {
            return;
        }
        let Some(k) = self.kernel.as_mut() else {
            return;
        };
        let cpu_end = calib::thread_cpu_ns();
        let cpu_scale = calib::scale(self.before, k.sample());
        let scale = match (self.io_before.take(), &self.probe) {
            (Some((io_before, cpu_start)), Some(p)) => {
                let wall = self.spans[id].dur_ns().max(1) as f64;
                let cpu = (cpu_end.saturating_sub(cpu_start) as f64).min(wall);
                let io_scale = calib::io_scale(io_before, p.sample());
                (cpu * cpu_scale + (wall - cpu) * io_scale) / wall
            }
            _ => cpu_scale,
        };
        let op = self.spans[id].op;
        for s in self.spans[id..].iter_mut().filter(|s| s.op == op) {
            s.scale = scale;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Runs `f` inside a root span opened with [`enter_io`](Self::enter_io).
    pub fn time_io<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter_io(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Number of spans recorded.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Drops every recorded span: used after set-up so the trace holds the
    /// measured run only.
    pub fn clear(&mut self) {
        assert!(self.stack.is_empty(), "cannot clear with spans open");
        self.spans.clear();
    }

    /// Scaled self time (ms) of every span: its duration minus what its
    /// children cover.
    fn self_times(&self) -> Vec<f64> {
        let mut child: Vec<f64> = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.ms();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.ms() - c).max(0.0))
            .collect()
    }

    /// For every op whose root span is `root`, the summed scaled self time
    /// (ms) of each span name inside it, in op order.
    pub fn layer_self_ms(&self, root: &str) -> BTreeMap<&'static str, Vec<f64>> {
        let selfs = self.self_times();
        let mut per_op: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
        let roots: std::collections::BTreeSet<u64> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .map(|s| s.op)
            .collect();
        for (s, &st) in self.spans.iter().zip(&selfs) {
            if roots.contains(&s.op) {
                *per_op.entry(s.op).or_default().entry(s.name).or_default() += st;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for layers in per_op.values() {
            for (&name, &ms) in layers {
                out.entry(name).or_default().push(ms);
            }
        }
        out
    }

    /// Scaled durations (ms) of every root span named `root`.
    pub fn root_ms(&self, root: &str) -> Vec<f64> {
        self.roots(root).map(Span::ms).collect()
    }

    /// Scaled and raw sums (ms) of every root span's duration.
    pub fn total_root_ms(&self) -> (f64, f64) {
        let roots = self.spans.iter().filter(|s| s.parent.is_none());
        roots.fold((0.0, 0.0), |(sc, raw), s| {
            (sc + s.ms(), raw + s.dur_ns() as f64 / 1e6)
        })
    }

    /// Raw wall-clock durations (ms) of every root span named `root`.
    pub fn root_raw_ms(&self, root: &str) -> Vec<f64> {
        self.roots(root).map(|s| s.dur_ns() as f64 / 1e6).collect()
    }

    fn roots<'a>(&'a self, root: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.parent.is_none() && s.name == root)
    }

    /// The Chrome `trace_event` document (`X` complete events, microsecond
    /// timestamps), sealed with the repository's `#checksum` trailer.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"perfbench\"}}",
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\
                 \"name\":\"{}\",\"cat\":\"perfbench\",\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"op\":{},\"scale\":{:.4}}}}}",
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.name,
                s.op,
                s.scale,
            ));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"tool\":\"perfbench\"}}\n");
        support::persist::append_text_checksum(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut t = Tracer::calibrated();
        let root = t.enter("op");
        let a = t.enter("a");
        let b = t.enter("b");
        t.exit(b);
        t.exit(a);
        t.exit(root);
        let layers = t.layer_self_ms("op");
        let sum: f64 = layers.values().map(|v| v[0]).sum();
        let total = t.root_ms("op")[0];
        assert!((sum - total).abs() < 1e-9, "{sum} vs {total}");
    }

    #[test]
    fn scaled_time_is_raw_time_times_the_op_scale() {
        let dir = std::path::PathBuf::from(".perfbench_work")
            .join(format!("trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut t = Tracer::calibrated();
        t.set_io_probe(calib::IoProbe::new(dir.clone()));
        t.time_io("io", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.time("cpu", || std::hint::black_box((0..100_000u64).sum::<u64>()));
        std::fs::remove_dir_all(&dir).unwrap();
        for name in ["io", "cpu"] {
            let s = t.roots(name).next().unwrap();
            assert!(
                s.scale.is_finite() && s.scale > 0.0,
                "{name}: scale {}",
                s.scale
            );
            let (raw, scaled) = (t.root_raw_ms(name)[0], t.root_ms(name)[0]);
            assert!(
                (scaled - raw * s.scale).abs() < 1e-9,
                "{name}: {scaled} vs {raw}"
            );
        }
    }
}
