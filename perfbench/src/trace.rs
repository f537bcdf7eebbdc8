//! Benchmark-side spans around each call into a layer's public
//! functions (traced runs only). One operation is a root `harness`
//! span plus one child span per program call; all spans of an
//! operation share its id. A layer's self time is its spans' time minus
//! their children's.

use std::fmt::Write as _;
use std::time::Instant;

pub const LAYERS: [&str; 4] = ["harness", "tree", "store", "live"];

#[derive(Clone)]
struct Span {
    op: u64,
    layer: &'static str,
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
}

/// The spans of one operation while it runs.
pub struct Op {
    spans: Vec<Span>,
}

impl Op {
    /// Records a child of the root span that ran from `start` to `end`.
    pub fn call(&mut self, layer: &'static str, name: &'static str, start: Instant, end: Instant) {
        let op = self.spans[0].op;
        self.spans.push(Span {
            op,
            layer,
            name,
            start,
            end,
            parent: Some(0),
        });
    }
}

/// One thread's tracer. Off, every method is a branch.
pub struct Tracer {
    on: bool,
    thread: u64,
    /// Operations offered to `op`, which traces alternate pairs.
    ops: u64,
    /// Traced operations started, numbering their ids.
    ids: u64,
    epoch: Instant,
    /// Self time per layer (ns), over operations finished with
    /// `measured = true`.
    self_ns: [u64; LAYERS.len()],
    measured_ops: u64,
    keep: Vec<Span>,
    keep_cap: usize,
}

impl Tracer {
    pub fn new(on: bool, thread: u64, epoch: Instant) -> Self {
        Tracer {
            on,
            thread,
            ops: 0,
            ids: 0,
            epoch,
            self_ns: [0; LAYERS.len()],
            measured_ops: 0,
            keep: Vec::new(),
            keep_cap: 20_000,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts an operation. In a traced run operations are traced in
    /// alternate pairs (pairs, so that workloads alternating two kinds
    /// of operation trace both), and the latency difference between
    /// traced and untraced operations is the cost of tracing.
    pub fn op(&mut self, name: &'static str) -> Option<Op> {
        if !self.on {
            return None;
        }
        self.ops += 1;
        if ((self.ops - 1) / 2).is_multiple_of(2) {
            return None;
        }
        self.always(name)
    }

    /// Starts an operation that is traced whenever the run is traced
    /// (set-up and recovery steps, which have no untraced twin).
    pub fn always(&mut self, name: &'static str) -> Option<Op> {
        if !self.on {
            return None;
        }
        self.ids += 1;
        let now = Instant::now();
        Some(Op {
            spans: vec![Span {
                op: (self.thread << 40) | self.ids,
                layer: "harness",
                name,
                start: now,
                end: now,
                parent: None,
            }],
        })
    }

    /// Ends an operation's root span now and folds its self times in.
    pub fn finish(&mut self, op: Option<Op>, measured: bool) {
        let Some(mut op) = op else { return };
        op.spans[0].end = Instant::now();
        if measured {
            self.measured_ops += 1;
            for (i, s) in op.spans.iter().enumerate() {
                let children: u64 = op
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(|c| ns(c.start, c.end))
                    .sum();
                let layer = LAYERS.iter().position(|l| *l == s.layer).unwrap_or(0);
                self.self_ns[layer] += ns(s.start, s.end).saturating_sub(children);
            }
        }
        if self.keep.len() < self.keep_cap {
            self.keep.extend(op.spans);
        }
    }

    pub fn merge(&mut self, other: Tracer) {
        for (a, b) in self.self_ns.iter_mut().zip(other.self_ns) {
            *a += b;
        }
        self.measured_ops += other.measured_ops;
        let room = self.keep_cap.saturating_sub(self.keep.len());
        self.keep.extend(other.keep.into_iter().take(room));
    }

    /// Mean self time per measured traced operation, per layer (µs).
    pub fn self_us_per_op(&self) -> [(&'static str, f64); LAYERS.len()] {
        let mut out = [("", 0.0); LAYERS.len()];
        for (i, l) in LAYERS.iter().enumerate() {
            let per = if self.measured_ops == 0 {
                0.0
            } else {
                self.self_ns[i] as f64 / self.measured_ops as f64 / 1e3
            };
            out[i] = (l, per);
        }
        out
    }

    /// The kept spans as JSON lines: op id, layer, name, start and end
    /// (µs since the run began) and parent index within the op.
    pub fn dump(&self) -> String {
        let mut s = String::new();
        for sp in &self.keep {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"op\": {}, \"layer\": \"{}\", \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}}}",
                sp.op,
                sp.layer,
                sp.name,
                us(self.epoch, sp.start),
                us(self.epoch, sp.end),
            );
        }
        s
    }
}

fn ns(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

fn us(epoch: Instant, t: Instant) -> f64 {
    t.saturating_duration_since(epoch).as_nanos() as f64 / 1e3
}

/// Mean duration (µs) per trace of the program's own sampled spans
/// named `name` inside traces of `kind` (from `pr_obs::trace`'s
/// collector), 0 when none were sampled.
pub fn sampled_span_us(traces: &[pr_obs::Trace], kind: &str, name: &str) -> f64 {
    let of_kind: Vec<&pr_obs::Trace> = traces.iter().filter(|t| t.kind == kind).collect();
    if of_kind.is_empty() {
        return 0.0;
    }
    let total: u64 = of_kind
        .iter()
        .flat_map(|t| t.spans.iter())
        .filter(|s| s.name == name)
        .map(|s| s.dur_us)
        .sum();
    total as f64 / of_kind.len() as f64
}
