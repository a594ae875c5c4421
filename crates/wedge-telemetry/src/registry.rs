//! [`Telemetry`]: the cloneable handle tying the registry, the sink gate
//! and the snapshot collectors together.
//!
//! Two ways for a layer to publish metrics:
//!
//! 1. **Live handles** — `telemetry.counter("tls.handshake.full")` /
//!    `.histogram("shard.serve")` hand out cheap `Arc`-backed handles that
//!    the hot path bumps directly. Registration takes the registry lock
//!    once; recording never does.
//! 2. **Collectors** — a collector is where a layer names its counters.
//!    The layer bumps plain atomic cells on its data path (listener,
//!    scheduler, supervisor, reactor, cachenet, kernel) and registers one
//!    closure that *pulls* those cells into a [`Sample`], under their
//!    telemetry names, when a snapshot is taken — the only code that turns
//!    them into values. It emits every name on every snapshot, zeros
//!    included. Samples from multiple collectors merge additively
//!    (counters/gauges add, peaks take max), so e.g. every shard kernel
//!    contributes to one `kernel.read` total.
//!
//! Collectors should capture `Weak` references to the component they read:
//! the component holds the `Telemetry` handle, and a strong capture would
//! cycle.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::metrics::{Counter, Gauge, Histogram};
use crate::sink::{TelemetryEvent, TelemetrySink};
use crate::snapshot::{MetricValue, TelemetrySnapshot};
use crate::trace::Tracer;

/// A live registered metric.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

type Collector = Box<dyn Fn(&mut Sample) + Send + Sync>;

struct Inner {
    metrics: Mutex<BTreeMap<String, Metric>>,
    collectors: Mutex<Vec<Collector>>,
    sink: RwLock<Option<Arc<dyn TelemetrySink>>>,
    sink_on: AtomicBool,
    tracer: RwLock<Option<Arc<Tracer>>>,
    tracer_on: AtomicBool,
}

/// The shared telemetry handle. Cloning is an `Arc` bump; every layer of a
/// serving stack holds a clone of the same handle so one
/// [`Telemetry::snapshot`] sees them all.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("metrics", &self.inner.metrics.lock().len())
            .field("collectors", &self.inner.collectors.lock().len())
            .field("sink_on", &self.inner.sink_on.load(Ordering::Relaxed))
            .finish()
    }
}

impl Telemetry {
    /// A fresh registry with no metrics, collectors or sink.
    pub fn new() -> Telemetry {
        Telemetry {
            inner: Arc::new(Inner {
                metrics: Mutex::new(BTreeMap::new()),
                collectors: Mutex::new(Vec::new()),
                sink: RwLock::new(None),
                sink_on: AtomicBool::new(false),
                tracer: RwLock::new(None),
                tracer_on: AtomicBool::new(false),
            }),
        }
    }

    /// The counter registered under `name`, creating it on first use.
    /// Repeated calls return handles to the same underlying atomic.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.inner.metrics.lock();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(counter) => counter.clone(),
            _ => panic!("telemetry metric {name:?} already registered with another kind"),
        }
    }

    /// The gauge registered under `name`, creating it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = self.inner.metrics.lock();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(gauge) => gauge.clone(),
            _ => panic!("telemetry metric {name:?} already registered with another kind"),
        }
    }

    /// The histogram registered under `name`, creating it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut metrics = self.inner.metrics.lock();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(histogram) => histogram.clone(),
            _ => panic!("telemetry metric {name:?} already registered with another kind"),
        }
    }

    /// Register a pull collector, run (in registration order) each time a
    /// snapshot is taken. Capture the observed component weakly.
    pub fn register_collector(&self, collector: impl Fn(&mut Sample) + Send + Sync + 'static) {
        self.inner.collectors.lock().push(Box::new(collector));
    }

    /// Install `sink` and enable event emission. Replaces any prior sink.
    pub fn install_sink(&self, sink: Arc<dyn TelemetrySink>) {
        *self.inner.sink.write() = Some(sink);
        self.inner.sink_on.store(true, Ordering::SeqCst);
    }

    /// Whether a sink is installed (one relaxed load — the gate the hot
    /// paths use).
    #[inline]
    pub(crate) fn sink_enabled(&self) -> bool {
        self.inner.sink_on.load(Ordering::Relaxed)
    }

    /// Install `tracer` and enable request tracing: its counters and
    /// per-kind `trace.*` histograms are registered here, and layers that
    /// ask via [`Telemetry::tracer`] start minting contexts. Replaces any
    /// prior tracer (metrics stay bound to the first registry a tracer
    /// was installed on).
    pub fn install_tracer(&self, tracer: Arc<Tracer>) {
        tracer.bind(self);
        *self.inner.tracer.write() = Some(tracer);
        self.inner.tracer_on.store(true, Ordering::SeqCst);
    }

    /// The installed tracer, if any. The untraced path is a single
    /// relaxed load — the same contract as [`Telemetry::emit_with`].
    #[inline]
    pub fn tracer(&self) -> Option<Arc<Tracer>> {
        if !self.inner.tracer_on.load(Ordering::Relaxed) {
            return None;
        }
        self.inner.tracer.read().clone()
    }

    /// Emit an already-built event. Prefer [`Telemetry::emit_with`] on hot
    /// paths so the payload is only built when a sink is listening.
    pub fn emit(&self, event: &TelemetryEvent) {
        if !self.sink_enabled() {
            return;
        }
        if let Some(sink) = self.inner.sink.read().as_ref() {
            sink.on_event(event);
        }
    }

    /// Emit the event built by `make` — but only construct it if a sink is
    /// installed. The disabled path is a single relaxed load.
    #[inline]
    pub fn emit_with(&self, make: impl FnOnce() -> TelemetryEvent) {
        if !self.sink_enabled() {
            return;
        }
        self.emit(&make());
    }

    /// Aggregate every live metric and every collector's pulled counters
    /// into one point-in-time snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut sample = Sample::default();
        // Collectors run without the metrics lock held: they are allowed
        // to create metrics (rarely useful, but not a deadlock).
        let collectors = self.inner.collectors.lock();
        for collector in collectors.iter() {
            collector(&mut sample);
        }
        drop(collectors);
        let mut values = sample.values;
        for (name, metric) in self.inner.metrics.lock().iter() {
            let value = match metric {
                Metric::Counter(counter) => MetricValue::Counter(counter.get()),
                Metric::Gauge(gauge) => MetricValue::Gauge(gauge.get()),
                Metric::Histogram(histogram) => MetricValue::Histogram(histogram.summary()),
            };
            merge(&mut values, name.clone(), value);
        }
        TelemetrySnapshot { values }
    }
}

/// Merge `value` into `values` under `name`: counters and gauges add (two
/// layers may legitimately report into the same total), anything else is
/// replaced by the later writer.
fn merge(values: &mut BTreeMap<String, MetricValue>, name: String, value: MetricValue) {
    let merged = match (values.get(&name), value) {
        (Some(MetricValue::Counter(a)), MetricValue::Counter(b)) => MetricValue::Counter(a + b),
        (Some(MetricValue::Gauge(a)), MetricValue::Gauge(b)) => MetricValue::Gauge(a + b),
        (_, value) => value,
    };
    values.insert(name, merged);
}

/// The accumulation a collector writes into. Values merge additively
/// across collectors so independent instances (shards, kernels, nodes)
/// report into shared totals.
#[derive(Debug, Default)]
pub struct Sample {
    values: BTreeMap<String, MetricValue>,
}

impl Sample {
    /// Add `v` to the counter `name`.
    pub fn counter(&mut self, name: &str, v: u64) {
        merge(&mut self.values, name.to_string(), MetricValue::Counter(v));
    }

    /// Add `v` to the gauge `name` (instantaneous values sum across
    /// instances: total queue depth, total resident sessions, ...).
    pub fn gauge(&mut self, name: &str, v: u64) {
        merge(&mut self.values, name.to_string(), MetricValue::Gauge(v));
    }

    /// Raise the gauge `name` to `v` if higher (peaks take the max across
    /// instances rather than summing).
    pub fn gauge_max(&mut self, name: &str, v: u64) {
        let peak = match self.values.get(name) {
            Some(MetricValue::Gauge(current)) => (*current).max(v),
            _ => v,
        };
        self.values
            .insert(name.to_string(), MetricValue::Gauge(peak));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CountingTelemetrySink, RecordingSink};

    #[test]
    fn handles_are_shared_and_snapshot_sees_them() {
        let telemetry = Telemetry::new();
        telemetry.counter("listener.accept").add(3);
        telemetry.counter("listener.accept").add(4);
        telemetry.gauge("shard.queue_depth").set(5);
        telemetry.histogram("shard.serve").record(1_000);
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("listener.accept"), 7);
        assert_eq!(snapshot.counter("shard.queue_depth"), 5);
        assert_eq!(snapshot.histogram("shard.serve").unwrap().count, 1);
    }

    #[test]
    #[should_panic(expected = "another kind")]
    fn kind_mismatch_panics() {
        let telemetry = Telemetry::new();
        telemetry.counter("x");
        telemetry.gauge("x");
    }

    #[test]
    fn collectors_merge_additively() {
        let telemetry = Telemetry::new();
        for shard in 0..3u64 {
            telemetry.register_collector(move |sample| {
                sample.counter("kernel.read", 10 + shard);
                sample.gauge_max("shard.queue_depth.peak", shard);
            });
        }
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("kernel.read"), 33);
        assert_eq!(
            snapshot.counter("shard.queue_depth.peak"),
            2,
            "peak takes the max, not the sum"
        );
    }

    #[test]
    fn live_metric_and_collector_share_a_total() {
        let telemetry = Telemetry::new();
        telemetry.counter("tls.handshake.full").add(2);
        telemetry.register_collector(|sample| sample.counter("tls.handshake.full", 5));
        assert_eq!(telemetry.snapshot().counter("tls.handshake.full"), 7);
    }

    #[test]
    fn disabled_sink_never_builds_the_event() {
        let telemetry = Telemetry::new();
        let built = std::sync::atomic::AtomicU64::new(0);
        telemetry.emit_with(|| {
            built.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            TelemetryEvent::PlacementRejected
        });
        assert_eq!(built.load(std::sync::atomic::Ordering::Relaxed), 0);

        let sink = Arc::new(CountingTelemetrySink::default());
        telemetry.install_sink(sink.clone());
        telemetry.emit_with(|| {
            built.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            TelemetryEvent::PlacementRejected
        });
        assert_eq!(built.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(sink.total(), 1);
    }

    #[test]
    fn recording_sink_retains_events() {
        let telemetry = Telemetry::new();
        let sink = Arc::new(RecordingSink::default());
        telemetry.install_sink(sink.clone());
        telemetry.emit(&TelemetryEvent::ShardRestarted { shard: 2 });
        assert_eq!(
            sink.events(),
            vec![TelemetryEvent::ShardRestarted { shard: 2 }]
        );
        assert!(sink.events()[0].is_audit());
    }
}
