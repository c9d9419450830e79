//! Spans recorded by the benchmark's own code around calls into each
//! layer's public functions. They stay in memory while the run measures and
//! are written to `benchmark/out/trace-<workload>.json` when it ends. A
//! span's self time is its duration minus the part its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    /// Shared by every span of one request.
    pub trace: u64,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Records a finished span and returns its id.
    pub fn push(
        &mut self,
        trace: u64,
        parent: Option<u32>,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            trace,
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns,
        });
        id
    }

    /// Widens span `id` to end at `end_ns` (a parent closed after its
    /// children were pushed).
    pub fn close(&mut self, id: u32, end_ns: u64) {
        self.spans[id as usize - 1].end_ns = end_ns;
    }

    /// Calls `f` and records it as a span under `parent`.
    pub fn span<T>(
        &mut self,
        trace: u64,
        parent: Option<u32>,
        name: &str,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = self.now();
        let out = std::hint::black_box(f());
        let end = self.now();
        self.push(trace, parent, name, start, end);
        (out, end - start)
    }

    /// `name → (spans, total self time in ns)`, shard spans folded into one
    /// name.
    pub fn self_times(&self) -> BTreeMap<String, (u64, u64)> {
        let mut covered: BTreeMap<u32, u64> = BTreeMap::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                *covered.entry(parent).or_default() += span.end_ns - span.start_ns;
            }
        }
        let mut table: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for span in &self.spans {
            let duration = span.end_ns - span.start_ns;
            let own = duration.saturating_sub(covered.get(&span.id).copied().unwrap_or(0));
            let name = match span.name.split_once('.') {
                Some((head, tail)) if head.starts_with("shard") => format!("shard*.{tail}"),
                _ => span.name.clone(),
            };
            let row = table.entry(name).or_default();
            row.0 += 1;
            row.1 += own;
        }
        table
    }

    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"workload\": \"{workload}\", \"unit\": \"ns\", \"spans\": ["
        )?;
        let mut line = String::new();
        for (i, span) in self.spans.iter().enumerate() {
            line.clear();
            let _ = write!(
                line,
                "{{\"trace\": {}, \"span\": {}, \"parent\": ",
                span.trace, span.id
            );
            match span.parent {
                Some(parent) => {
                    let _ = write!(line, "{parent}");
                }
                None => line.push_str("null"),
            }
            let _ = write!(
                line,
                ", \"name\": \"{}\", \"start\": {}, \"end\": {}}}",
                span.name, span.start_ns, span.end_ns
            );
            if i + 1 < self.spans.len() {
                line.push(',');
            }
            writeln!(out, "{line}")?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}
