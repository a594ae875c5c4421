//! [`TelemetrySnapshot`] — the point-in-time aggregation of every
//! registered metric and collector into one sorted tree, renderable as
//! JSON (for CI artifacts) or human-readable text (for examples and
//! operator consoles).

use std::collections::BTreeMap;

use crate::export::JsonWriter;
use crate::metrics::{format_nanos, HistogramSummary};

/// One aggregated metric value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricValue {
    /// A monotonic count.
    Counter(u64),
    /// An instantaneous value.
    Gauge(u64),
    /// A latency distribution summary.
    Histogram(HistogramSummary),
}

/// A point-in-time aggregation of the whole registry, sorted by metric
/// name. Dots in names form the tree: `listener.accept`,
/// `shard.serve`, `cachenet.lookup.remote`, ...
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    pub(crate) values: BTreeMap<String, MetricValue>,
}

impl TelemetrySnapshot {
    /// The value registered under `name`, if any.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.values.get(name)
    }

    /// The scalar (counter or gauge) under `name`. Every collector emits
    /// all its names on every snapshot, zeros included, so an absent name
    /// is a typo or a component that was never instrumented — use
    /// [`Self::get`] for an optional read.
    ///
    /// # Panics
    /// If `name` is absent or is a histogram.
    pub fn counter(&self, name: &str) -> u64 {
        match self.values.get(name) {
            Some(MetricValue::Counter(v)) | Some(MetricValue::Gauge(v)) => *v,
            Some(MetricValue::Histogram(_)) => panic!("telemetry metric {name:?} is a histogram"),
            None => panic!("no telemetry metric {name:?} in this snapshot"),
        }
    }

    /// The histogram summary under `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        match self.values.get(name) {
            Some(MetricValue::Histogram(summary)) => Some(summary),
            _ => None,
        }
    }

    /// Iterate `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of metrics in the snapshot.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the snapshot holds no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Render as one flat JSON object keyed by full metric name. Flat
    /// (rather than nested by dot-segment) because a name may be both a
    /// leaf and a prefix — `cachenet.lookup` is a histogram *and* the
    /// parent of `cachenet.lookup.remote`.
    pub fn to_json(&self) -> String {
        let mut root = JsonWriter::object();
        root.nested("telemetry", |w| {
            for (name, value) in &self.values {
                match value {
                    MetricValue::Counter(v) | MetricValue::Gauge(v) => w.field_u64(name, *v),
                    MetricValue::Histogram(s) => w.nested(name, |w| {
                        w.field_u64("count", s.count);
                        w.field_u64("p50_ns", s.p50_nanos);
                        w.field_u64("p99_ns", s.p99_nanos);
                        w.field_u64("p999_ns", s.p999_nanos);
                        w.field_u64("max_ns", s.max_nanos);
                        w.field_u64("mean_ns", s.mean_nanos());
                    }),
                }
            }
        });
        root.finish()
    }

    /// Render as indented text, grouped by the first dot-segment:
    ///
    /// ```text
    /// listener
    ///   accept                    60
    ///   refused                    2
    /// shard
    ///   serve                     count=60 p50=1.2ms p99=3.4ms p999=3.9ms max=4.1ms
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let mut group = "";
        for (name, value) in &self.values {
            let (head, rest) = name
                .split_once('.')
                .unwrap_or((name.as_str(), name.as_str()));
            if head != group {
                group = head;
                out.push_str(head);
                out.push('\n');
            }
            let rendered = match value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => v.to_string(),
                MetricValue::Histogram(s) => format!(
                    "count={} p50={} p99={} p999={} max={}",
                    s.count,
                    format_nanos(s.p50_nanos),
                    format_nanos(s.p99_nanos),
                    format_nanos(s.p999_nanos),
                    format_nanos(s.max_nanos),
                ),
            };
            out.push_str(&format!("  {:<28} {}\n", rest, rendered));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Telemetry;

    fn sample_snapshot() -> TelemetrySnapshot {
        let telemetry = Telemetry::new();
        telemetry.counter("listener.accept").add(60);
        telemetry.counter("listener.refused").add(2);
        telemetry.gauge("shard.queue_depth").set(3);
        let h = telemetry.histogram("cachenet.lookup");
        for i in 1..=100u64 {
            h.record(i * 10_000);
        }
        telemetry
            .histogram("cachenet.lookup.remote")
            .record(123_456);
        telemetry.snapshot()
    }

    #[test]
    fn json_is_flat_well_formed_and_complete() {
        let json = sample_snapshot().to_json();
        assert!(json.starts_with(r#"{"telemetry":{"#));
        assert!(json.contains(r#""listener.accept":60"#));
        assert!(json.contains(r#""cachenet.lookup":{"count":100,"#));
        assert!(json.contains(r#""cachenet.lookup.remote":{"count":1,"#));
        assert!(json.contains(r#""p999_ns":"#));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn text_groups_by_first_segment() {
        let text = sample_snapshot().to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "cachenet");
        assert!(lines[1].trim_start().starts_with("lookup"));
        assert!(text.contains("listener\n"));
        assert!(text.contains("p999="));
    }

    #[test]
    fn accessors_read_by_kind() {
        let snapshot = sample_snapshot();
        assert_eq!(snapshot.counter("listener.accept"), 60);
        assert_eq!(snapshot.counter("shard.queue_depth"), 3, "gauges too");
        assert!(snapshot.get("no.such.metric").is_none());
        assert!(snapshot.histogram("listener.accept").is_none());
        assert_eq!(snapshot.histogram("cachenet.lookup").unwrap().count, 100);
        assert!(!snapshot.is_empty());
        assert_eq!(snapshot.len(), 5);
    }

    #[test]
    #[should_panic(expected = "\"sched.rejectd\"")]
    fn counter_panics_on_an_absent_name() {
        sample_snapshot().counter("sched.rejectd");
    }
}
