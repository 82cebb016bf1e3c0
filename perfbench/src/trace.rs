//! In-memory spans recorded by the benchmark around its own calls into
//! the program's crates, and the self-time partition computed from them.
//!
//! A span names the layer (workspace crate) whose public function the
//! benchmark called. Spans on the driving thread nest strictly, so a
//! layer's self time is its spans' durations minus their direct
//! children's, and the gaps between top-level spans are `unattributed`:
//! together they add up to the timed wall time exactly. Spans recorded
//! on client threads (one per `/match` request, carrying its request id)
//! overlap the driving thread's spans and are kept out of the partition.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Request id (0 outside request-scoped spans).
    pub req: u64,
    /// 0 for the driving thread; client threads use their own ids.
    pub thread: u32,
}

/// Span recorder; when off, `enter`/`exit` record nothing.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    window: Option<(u64, u64)>,
}

/// Handle returned by [`Tracer::enter`].
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            window: None,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// The tracer's time origin (client threads stamp spans against it).
    pub fn origin(&self) -> Instant {
        self.t0
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span on the driving thread, nested in the innermost open one.
    pub fn enter(&mut self, layer: &'static str, name: &str) -> Open {
        if !self.on {
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            req: 0,
            thread: 0,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(layer, name);
        let v = f();
        self.exit(open);
        v
    }

    /// Attach spans recorded on another thread under the innermost open
    /// span (they keep their own thread id and request ids).
    pub fn adopt(&mut self, spans: Vec<Span>) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied();
        for mut s in spans {
            s.parent = parent;
            self.spans.push(s);
        }
    }

    /// Mark the start of the timed window the partition covers.
    pub fn start_window(&mut self) {
        let now = self.now_ns();
        self.window = Some((now, now));
    }

    /// Mark the end of the timed window.
    pub fn end_window(&mut self) {
        let now = self.now_ns();
        if let Some(w) = &mut self.window {
            w.1 = now;
        }
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Self time per layer inside the timed window, plus the window's
    /// wall time and the unattributed remainder, in seconds.
    pub fn partition(&self) -> Partition {
        let (w0, w1) = self.window.unwrap_or((0, 0));
        let inside = |s: &Span| s.thread == 0 && s.start_ns >= w0 && s.end_ns <= w1;
        let mut child_ns = vec![0i128; self.spans.len()];
        for s in self.spans.iter().filter(|s| inside(s)) {
            if let Some(p) = s.parent {
                child_ns[p] += i128::from(s.end_ns - s.start_ns);
            }
        }
        let mut self_ns: BTreeMap<&'static str, i128> = BTreeMap::new();
        let mut covered: i128 = 0;
        for (i, s) in self.spans.iter().enumerate() {
            if !inside(s) {
                continue;
            }
            let dur = i128::from(s.end_ns - s.start_ns);
            *self_ns.entry(s.layer).or_default() += dur - child_ns[i];
            if s.parent.is_none_or(|p| !inside(&self.spans[p])) {
                covered += dur;
            }
        }
        let wall = i128::from(w1 - w0);
        Partition {
            wall_s: wall as f64 * 1e-9,
            unattributed_s: (wall - covered) as f64 * 1e-9,
            self_s: self_ns
                .into_iter()
                .map(|(k, v)| (k, v as f64 * 1e-9))
                .collect(),
        }
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut o = obs::json::Obj::new();
            o.u64("id", i as u64)
                .str("layer", s.layer)
                .str("name", &s.name)
                .u64("start_ns", s.start_ns)
                .u64("end_ns", s.end_ns)
                .u64("req", s.req)
                .u64("thread", u64::from(s.thread));
            if let Some(p) = s.parent {
                o.u64("parent", p as u64);
            }
            out.push_str(&o.finish());
            out.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Self-time partition of the timed window.
pub struct Partition {
    pub wall_s: f64,
    pub unattributed_s: f64,
    pub self_s: BTreeMap<&'static str, f64>,
}

/// Measured cost of one `enter`/`exit` pair on this machine, seconds.
pub fn span_cost_s() -> f64 {
    let mut t = Tracer::new(true);
    let n = 20_000;
    let t0 = Instant::now();
    for _ in 0..n {
        let o = t.enter("bench", "calibrate");
        t.exit(o);
    }
    t0.elapsed().as_secs_f64() / f64::from(n)
}
