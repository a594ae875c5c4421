//! In-memory spans recorded from the benchmark's own files, written out
//! as JSON lines when the run ends.
//!
//! A span is `(conn, parent, name, start_ns, end_ns)`. `conn` is the
//! connection's [`Source::key`] — the client stamps it on the link as its
//! source address, so the server-side decorators in `stack.rs` can name
//! the connection they are serving without any cooperation from the
//! program. Store operations run on callgate threads that carry no link,
//! so their spans have `conn == 0`.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use parking_lot::Mutex;

/// Nanoseconds since the run's origin; every span shares one origin so
/// client-side and server-side stamps compare directly.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// The client address one generated connection arrives from. The host
/// octets carry the simulated host (placement and rate limiting key on
/// them); the port carries the connection's ordinal so `(host, port)`
/// names one connection of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Source {
    pub host: [u8; 4],
    pub port: u16,
}

impl Source {
    /// Host `host` of client thread `thread`, connection ordinal `ordinal`.
    pub fn new(thread: u8, host: u32, ordinal: u64) -> Source {
        Source {
            host: [11, thread, (host >> 8) as u8, host as u8],
            port: ordinal as u16,
        }
    }

    /// The connection id spans carry (never 0: the first octet is 11).
    pub fn key(&self) -> u64 {
        (u64::from(u32::from_be_bytes(self.host)) << 16) | u64::from(self.port)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub conn: u64,
    /// Name of the enclosing span ("" for a root).
    pub parent: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Where a traced run's spans accumulate. Producers push a handful of
/// spans per connection, so one mutex is not a bottleneck at the rates
/// this stack reaches; the cost is part of the reported tracing overhead.
#[derive(Debug)]
pub struct SpanSink {
    pub clock: Clock,
    spans: Mutex<Vec<Span>>,
}

impl SpanSink {
    pub fn new(clock: Clock) -> SpanSink {
        SpanSink {
            clock,
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    pub fn push(&self, span: Span) {
        self.spans.lock().push(span);
    }

    pub fn extend(&self, spans: impl IntoIterator<Item = Span>) {
        self.spans.lock().extend(spans);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock())
    }
}

/// Write `spans` of `workload` to `path` as JSON lines.
pub fn write_jsonl(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"conn\":{},\"parent\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            span.conn, span.parent, span.name, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}
