//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed from the benchmark's own code, around
//! the calls into each layer; nothing inside the program is
//! instrumented. They stay in memory until the run ends and are then
//! written out once, each with its self time (duration minus the part
//! its children cover).

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Handle of an open (or closed) span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

#[derive(Debug)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    /// The op this span belongs to; every span of one op shares it.
    op: Option<u32>,
    start_us: f64,
    end_us: f64,
}

/// The recorder.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder; span times count from now.
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under `parent`, tagged with the op it serves.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op: Option<u32>) -> SpanId {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            parent: parent.map(|p| p.0),
            op,
            start_us,
            end_us: start_us,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes a span and returns its duration in microseconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let end_us = self.now_us();
        let span = &mut self.spans[id.0];
        span.end_us = end_us;
        end_us - span.start_us
    }

    /// `(op, duration µs)` of every op-tagged span called `name`, in
    /// recording order.
    pub fn durations_by_op(&self, name: &str) -> Vec<(u32, f64)> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.op.map(|op| (op, s.end_us - s.start_us)))
            .collect()
    }

    /// Writes every span as one JSON document: a `spans` array whose
    /// entries carry `id`, `name`, `parent`, `op`, `start_us`, `end_us`
    /// and `self_us`.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        let mut covered = vec![0.0f64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.end_us - span.start_us;
            }
        }
        let mut out = String::with_capacity(self.spans.len() * 128 + 128);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"us\",\"spans\":["
        );
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let op = span.op.map_or_else(|| "null".to_owned(), |o| o.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"op\":{op},\
                 \"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
                span.name,
                span.start_us,
                span.end_us,
                (span.end_us - span.start_us - covered[id]).max(0.0),
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
