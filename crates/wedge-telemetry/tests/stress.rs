//! Snapshot-while-recording stress: raw writer threads hammer one
//! histogram, one peak gauge and one counter while snapshotter threads
//! continuously summarise — every observed summary must be internally
//! coherent (`p50 ≤ p99 ≤ p999 ≤ max`, count and peak monotone), which
//! is exactly the freeze-the-buckets contract `Histogram::summary`
//! documents (see the "Concurrency and ordering" section of the crate
//! README).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use wedge_telemetry::{Telemetry, TelemetrySnapshot};

const WRITERS: usize = 4;
const SNAPSHOTTERS: usize = 2;
const ITERS: u64 = 20_000;

fn coherent(snapshot: &TelemetrySnapshot, prev_count: u64, prev_peak: u64) -> (u64, u64) {
    let peak = snapshot.counter("stress.peak"); // gauges surface via get()
    let summary = match snapshot.histogram("stress.latency") {
        Some(summary) => *summary,
        None => return (prev_count, prev_peak.max(peak)),
    };
    assert!(
        summary.p50_nanos <= summary.p99_nanos
            && summary.p99_nanos <= summary.p999_nanos
            && summary.p999_nanos <= summary.max_nanos,
        "incoherent percentiles under concurrent recording: {summary:?}"
    );
    assert!(
        summary.count >= prev_count,
        "histogram count went backwards: {} then {}",
        prev_count,
        summary.count
    );
    assert!(
        peak >= prev_peak,
        "set_max peak went backwards: {prev_peak} then {peak}"
    );
    // The mean lies within the recorded range whenever anything was
    // recorded (sum and count are cut at slightly different instants,
    // so only the max bound is safe to assert).
    if summary.count > 0 {
        assert!(summary.mean_nanos() <= summary.max_nanos);
    }
    (summary.count, peak)
}

#[test]
fn summaries_stay_coherent_while_writers_hammer() {
    let telemetry = Telemetry::new();
    let histogram = telemetry.histogram("stress.latency");
    let gauge = telemetry.gauge("stress.peak");
    let counter = telemetry.counter("stress.ops");
    let done = Arc::new(AtomicBool::new(false));

    thread::scope(|scope| {
        for w in 0..WRITERS {
            let histogram = histogram.clone();
            let gauge = gauge.clone();
            let counter = counter.clone();
            scope.spawn(move || {
                for i in 0..ITERS {
                    // A spread of magnitudes so every percentile moves,
                    // deterministic per writer (no wall clock involved).
                    let v = 1 + (i % 1_000) * (w as u64 + 1);
                    histogram.record(v);
                    gauge.set_max(w as u64 * ITERS + i);
                    counter.incr();
                }
            });
        }
        for _ in 0..SNAPSHOTTERS {
            let telemetry = &telemetry;
            let done = done.clone();
            scope.spawn(move || {
                let (mut count, mut peak) = (0u64, 0u64);
                // At least one cut, even when the writers finish before
                // this thread is first scheduled (2 cores, 4+ threads).
                loop {
                    (count, peak) = coherent(&telemetry.snapshot(), count, peak);
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                }
            });
        }
        // Writers finish first; flag the snapshotters down. (Scope exit
        // joins everything, and a panicking assert in any thread fails
        // the test through the scope.)
        while counter.get() < (WRITERS as u64) * ITERS {
            thread::yield_now();
        }
        done.store(true, Ordering::Relaxed);
    });

    // Quiescent totals are exact: nothing was lost to the races.
    let snapshot = telemetry.snapshot();
    let summary = snapshot.histogram("stress.latency").expect("histogram");
    assert_eq!(summary.count, (WRITERS as u64) * ITERS);
    assert_eq!(snapshot.counter("stress.ops"), (WRITERS as u64) * ITERS);
    assert_eq!(
        snapshot.counter("stress.peak"),
        (WRITERS as u64 - 1) * ITERS + (ITERS - 1),
        "the peak gauge holds the largest value any writer offered"
    );
    assert_eq!(summary.max_nanos, 1 + 999 * (WRITERS as u64));
}
