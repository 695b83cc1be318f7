//! Span recording for the traced phase.
//!
//! A span is recorded around each call the benchmark makes into a layer:
//! its name, start, end, parent span, and a request id shared by every
//! span of one operation. Spans stay in memory (one [`SpanLog`] per
//! thread, merged at the end) and are written out once the phase is over.
//! A layer's self time is its span minus the time its child spans cover;
//! children of one span run on the span's own thread, one after another,
//! so the covered time is the sum of their durations.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its log.
pub type SpanId = usize;

/// One recorded span. Times are nanoseconds since the log's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span covers, e.g. `kernel.build`.
    pub name: &'static str,
    /// Operation the span belongs to (shared by every span of it).
    pub req: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (equal to `start_ns` while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log. A disabled log records nothing and costs one
/// branch per call.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log whose times count from `epoch`; `on == false` disables it.
    #[must_use]
    pub fn new(epoch: Instant, on: bool) -> Self {
        Self {
            epoch,
            on,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, req: u64, parent: Option<SpanId>) -> SpanId {
        if !self.on {
            return 0;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: SpanId) {
        if self.on {
            let now = self.now_ns();
            self.spans[id].end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, req, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Moves every span of `other` (another thread's log on the same
    /// epoch) into this one, re-indexing its parent links.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in nanoseconds, grouped by span name.
    #[must_use]
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            out.entry(s.name)
                .or_default()
                .push(s.dur_ns().saturating_sub(c) as f64);
        }
        out
    }

    /// Total duration of every span, in nanoseconds, grouped by name.
    #[must_use]
    pub fn dur_ns_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            out.entry(s.name).or_default().push(s.dur_ns() as f64);
        }
        out
    }

    /// Writes the spans as CSV (`id,name,req,parent,start_ns,end_ns`) to
    /// `path`, at most `cap` of them; the header line states how many were
    /// recorded.
    ///
    /// # Errors
    ///
    /// The file's I/O error.
    pub fn write_csv(&self, path: &Path, cap: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "# {} spans recorded, {} written",
            self.spans.len(),
            self.spans.len().min(cap)
        )?;
        writeln!(w, "id,name,req,parent,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().take(cap).enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                w,
                "{i},{},{},{parent},{},{}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new(Instant::now(), true);
        let root = log.begin("root", 1, None);
        log.time("child", 1, Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        log.end(root);
        let selfs = log.self_ns_by_name();
        let durs = log.dur_ns_by_name();
        let root_self = selfs["root"][0];
        let child = durs["child"][0];
        assert!((root_self + child - durs["root"][0]).abs() < 1.0);
        assert!(child >= 2e6);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(Instant::now(), false);
        let v = log.time("x", 0, None, || 5);
        assert_eq!(v, 5);
        assert!(log.spans().is_empty());
    }

    #[test]
    fn absorb_reindexes_parents() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch, true);
        a.time("a", 0, None, || ());
        let mut b = SpanLog::new(epoch, true);
        let p = b.begin("p", 1, None);
        b.time("c", 1, Some(p), || ());
        b.end(p);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
