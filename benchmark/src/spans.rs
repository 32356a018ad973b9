//! In-memory spans around calls into the stack's public API.
//!
//! The benchmark times every layer from outside (scoped timers inside the
//! crates are a later change). A span is `{name, start, end, parent,
//! request}`; spans live in one `Vec` until the run ends and are then
//! written as Chrome trace-event JSON, which Perfetto loads.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// `request` value of a span that belongs to no single request.
pub const NO_REQUEST: u64 = u64::MAX;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Static span name, `layer.operation`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Index of the request this span served, or [`NO_REQUEST`].
    pub request: u64,
    /// Calls the span covers (sub-microsecond operations are timed in
    /// batches; per-call cost is `duration / calls`).
    pub calls: u32,
}

impl Span {
    /// Span length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder: a flat `Vec` plus the stack of open spans.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records `calls` sub-microsecond calls that were timed one by one
    /// as a single span: it starts where the first call started and lasts
    /// `busy_ns`, the sum of the calls' own durations, so per-call cost is
    /// exact and the span still fits inside the one that is open.
    pub fn record_batch(&mut self, name: &'static str, start_ns: u64, busy_ns: u64, calls: u32) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + busy_ns,
            parent: self.open.last().copied(),
            request: NO_REQUEST,
            calls,
        });
    }

    /// Times `f` as one span covering `calls` calls and returns its result
    /// together with the span's duration in nanoseconds. Spans opened by
    /// `f` through the recorder it is handed become children.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        request: u64,
        calls: u32,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> (R, u64) {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            calls,
        });
        self.open.push(id);
        let out = f(self);
        let end_ns = self.now_ns();
        self.open.pop();
        self.spans[id as usize].end_ns = end_ns;
        (out, end_ns - start_ns)
    }

    /// [`Spans::scope`] for a leaf call that opens no child spans.
    pub fn time<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        self.scope(name, request, 1, |_| f()).0
    }

    /// Every recorded span, in recording order (a parent precedes its
    /// children).
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Per-call cost in nanoseconds of every span called `name`.
    pub fn per_call_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / f64::from(s.calls.max(1)))
            .collect()
    }

    /// Total seconds covered by spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .sum::<f64>()
            / 1e9
    }

    /// Self time of each span: its duration minus the part its direct
    /// children cover. Children are sequential, so the cover is their sum.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Writes the spans as Chrome trace-event JSON (complete events,
    /// microsecond timestamps with nanosecond decimals).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let own = self.self_ns();
        out.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{\"id\":{},\"parent\":{},\
                 \"request\":{},\"calls\":{},\"self_ns\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns / 1000,
                s.start_ns % 1000,
                s.duration_ns() / 1000,
                s.duration_ns() % 1000,
                i,
                s.parent.map_or(-1, i64::from),
                if s.request == NO_REQUEST {
                    -1
                } else {
                    s.request as i64
                },
                s.calls,
                own[i],
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}
