//! The metrics by name: their definitions, and how a run's raw output
//! becomes their values.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units,
//! directions and bounds; a test keeps the two in step.

use std::collections::HashMap;

use crate::json::Json;
use crate::runner::{RunOutput, FAILED_LATENCY_NS};
use crate::spans::Span;
use crate::stack::summed;
use crate::stats::{median, percentile_us};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    /// End-to-end metrics only.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

pub const END_TO_END: [MetricDef; 7] = [
    gated("conn_per_s", "1/s", Higher, 0.20),
    gated("conn_p50_us", "us", Lower, 0.20),
    gated("conn_p90_us", "us", Lower, 0.20),
    gated("goodput_mb_s", "MB/s", Higher, 0.20),
    gated("ok_share", "ratio", Higher, 0.005),
    gated("rss_peak_mib", "MiB", Lower, 0.10),
    gated("setup_s", "s", Lower, 0.25),
];

pub const PER_LAYER: [MetricDef; 65] = [
    // An end-to-end cost, but not a gate: on `mixed_open` its median moved
    // 10 % between two sets of ten runs of one build.
    layer("cpu_ms_per_conn", "ms", Lower),
    layer("wedge-core.sthread_create_us", "us", Lower),
    layer("wedge-core.callgate_us", "us", Lower),
    layer("wedge-core.recycled_callgate_us", "us", Lower),
    layer("wedge-core.mem_read_ns", "ns", Lower),
    layer("wedge-core.mem_copy_mb_s", "MB/s", Higher),
    layer("wedge-core.grant_revoke_us", "us", Lower),
    layer("wedge-core.sthreads_per_conn", "count", Lower),
    layer("wedge-core.callgates_per_conn", "count", Lower),
    layer("wedge-core.oplog_ops_per_conn", "count", Lower),
    layer("wedge-alloc.smalloc_free_ns", "ns", Lower),
    layer("wedge-alloc.tag_new_us", "us", Lower),
    layer("wedge-alloc.allocs_per_conn", "count", Lower),
    layer("wedge-crypto.stream_mb_s", "MB/s", Higher),
    layer("wedge-crypto.hmac_mb_s", "MB/s", Higher),
    layer("wedge-crypto.sha256_mb_s", "MB/s", Higher),
    layer("wedge-crypto.rsa_decrypt_us", "us", Lower),
    layer("wedge-tls.seal_mb_s", "MB/s", Higher),
    layer("wedge-tls.open_mb_s", "MB/s", Higher),
    layer("wedge-tls.handshake_full_us", "us", Lower),
    layer("wedge-tls.handshake_resumed_us", "us", Lower),
    layer("wedge-tls.resumed_share", "ratio", Higher),
    layer("wedge-net.connect_us", "us", Lower),
    layer("wedge-net.accept_p50_us", "us", Lower),
    layer("wedge-net.duplex_rtt_us", "us", Lower),
    layer("wedge-net.duplex_mb_s", "MB/s", Higher),
    layer("wedge-net.park_wake_us", "us", Lower),
    layer("wedge-net.rate_limited", "count", Lower),
    layer("wedge-net.refused", "count", Lower),
    layer("wedge-sched.queue_wait_p50_us", "us", Lower),
    layer("wedge-sched.queue_wait_p90_us", "us", Lower),
    layer("wedge-sched.serve_p50_us", "us", Lower),
    layer("wedge-sched.serve_p90_us", "us", Lower),
    layer("wedge-sched.unattributed_p50_us", "us", Lower),
    layer("wedge-sched.submit_join_us", "us", Lower),
    layer("wedge-sched.restart_ms", "ms", Lower),
    layer("wedge-sched.boot_ms", "ms", Lower),
    layer("wedge-sched.threads_peak", "count", Lower),
    layer("wedge-sched.submitted", "count", Lower),
    layer("wedge-sched.completed", "count", Higher),
    layer("wedge-sched.rejected", "count", Lower),
    layer("wedge-cachenet.lookup_p50_us", "us", Lower),
    layer("wedge-cachenet.insert_p50_us", "us", Lower),
    layer("wedge-cachenet.lookups", "count", Lower),
    layer("wedge-cachenet.inserts", "count", Lower),
    layer("wedge-cachenet.hit_share", "ratio", Higher),
    layer("wedge-cachenet.remote_share", "ratio", Lower),
    layer("wedge-cachenet.breaker_opens", "count", Lower),
    layer("wedge-apache.conn_p50_us", "us", Lower),
    layer("wedge-ssh.conn_p50_us", "us", Lower),
    layer("wedge-pop3.conn_p50_us", "us", Lower),
    layer("wedge-apache.request_us", "us", Lower),
    layer("wedge-apache.partition_overhead_x", "x", Lower),
    layer("wedge-ssh.login_overhead_x", "x", Lower),
    layer("wedge-pop3.soak_fail_share", "ratio", Lower),
    layer("wedge-telemetry.trace_overhead_share", "ratio", Lower),
    layer("wedge-telemetry.snapshot_ms", "ms", Lower),
    layer("wedge-chaos.faults_injected", "count", Lower),
    layer("wedge-chaos.faults_audited", "count", Lower),
    layer("gen.late_p90_us", "us", Lower),
    layer("gen.calib_spread", "ratio", Lower),
    layer("e2e.conn_p99_us", "us", Lower),
    layer("e2e.conn_max_us", "us", Lower),
    layer("e2e.samples", "count", Higher),
    layer("e2e.fail_share", "ratio", Lower),
];

/// One metric's reading. `value` is `None` when the run cannot support
/// it: too few samples for the percentile, or a layer the workload never
/// enters.
#[derive(Debug, Clone, Default)]
pub struct Reading {
    pub value: Option<f64>,
    /// How many raw samples stand behind the value, when it has any.
    pub samples: Option<u64>,
    /// Per-slice readings behind a median-of-slices value.
    pub slices: Vec<f64>,
    /// Read from one of the program's own log-bucketed histograms.
    pub quantised: bool,
}

impl Reading {
    fn of(value: Option<f64>) -> Reading {
        Reading {
            value,
            ..Reading::default()
        }
    }

    fn sampled(value: Option<f64>, samples: usize) -> Reading {
        Reading {
            value,
            samples: Some(samples as u64),
            ..Reading::default()
        }
    }

    pub fn to_json(&self, def: &MetricDef) -> Json {
        let mut out = Json::obj();
        out.set("value", self.value).set("unit", def.unit);
        if let Some(samples) = self.samples {
            out.set("samples", samples);
        }
        if !self.slices.is_empty() {
            out.set(
                "slices",
                self.slices
                    .iter()
                    .map(|v| Json::Num(*v))
                    .collect::<Vec<_>>(),
            );
        }
        if self.quantised {
            out.set("quantised", true);
        }
        out
    }
}

pub type Readings = Vec<(&'static MetricDef, Reading)>;

/// Latencies with every failure appended at [`FAILED_LATENCY_NS`].
fn with_failures(run: &RunOutput) -> Vec<u64> {
    let mut all = run.latency_ns.clone();
    all.extend(std::iter::repeat_n(FAILED_LATENCY_NS, run.failed as usize));
    all
}

/// The `q`-quantile of the completion latency, µs: the median slice's, so
/// that a burst of interference on the shared box moves one slice's reading
/// and not the run's. A run whose slices are too thin for the quantile (the
/// bulk loop completes 80 connections in a slice) takes it over the whole
/// window.
fn latency_quantile(run: &RunOutput, whole: &[u64], q: f64) -> Reading {
    let slices: Option<Vec<f64>> = run
        .slice_latency_ns
        .iter()
        .map(|slice| percentile_us(slice, q))
        .collect();
    match slices {
        Some(slices) if slices.len() > 1 => Reading {
            value: median(&slices),
            samples: Some(whole.len() as u64),
            slices,
            ..Reading::default()
        },
        _ => Reading::sampled(percentile_us(whole, q), whole.len()),
    }
}

/// The gated end-to-end metrics of a measured run. `setup_s` is the
/// median over every boot the invocation made.
pub fn end_to_end(run: &RunOutput, setup_s: f64) -> Readings {
    let latencies = with_failures(run);
    let share = |part: u64, whole: u64| (whole > 0).then(|| part as f64 / whole as f64);
    let values = [
        Reading {
            value: median(&run.slice_conn_per_s),
            slices: run.slice_conn_per_s.clone(),
            ..Reading::default()
        },
        latency_quantile(run, &latencies, 0.5),
        latency_quantile(run, &latencies, 0.9),
        Reading {
            value: median(&run.slice_mb_s),
            slices: run.slice_mb_s.clone(),
            ..Reading::default()
        },
        Reading::sampled(
            share(run.attempted - run.failed, run.attempted),
            run.attempted as usize,
        ),
        Reading::of(Some(run.rss_peak_mib)),
        Reading::of(Some(setup_s)),
    ];
    END_TO_END.iter().zip(values).collect()
}

/// What the spans of one traced window say, as sorted nanosecond samples.
#[derive(Debug, Default)]
pub struct Budget {
    pub total: Vec<u64>,
    pub late: Vec<u64>,
    pub connect: Vec<u64>,
    pub first_byte_delay: Vec<u64>,
    pub queue_wait: Vec<u64>,
    /// Full `serve_link` durations.
    pub serve: Vec<u64>,
    pub unattributed: Vec<u64>,
    pub handshake_full: Vec<u64>,
    pub handshake_resumed: Vec<u64>,
    pub http_request: Vec<u64>,
    pub lookup: Vec<u64>,
    pub insert: Vec<u64>,
    pub lookup_hits: u64,
    /// Largest |total − (late + connect + first-byte delay + queue wait +
    /// serve + unattributed)|
    /// over the connections: 0 by construction.
    pub sum_error_ns: u64,
}

impl Budget {
    /// Decompose every connection that started inside `window`.
    ///
    /// Per connection, on one clock: `late` is due → dispatched (open loop
    /// only), `connect` the `Listener::connect` call plus the modelled
    /// round trip before the first byte, `queue_wait` that first byte →
    /// the decorated `serve_link` entered, `serve` the part of `serve_link`
    /// inside the client's own window, and `unattributed` whatever of the
    /// total is left — time no span measured from outside covers.
    pub fn from_spans(spans: &[Span], window: (u64, u64)) -> Budget {
        #[derive(Default, Clone, Copy)]
        struct Conn {
            root: Option<(u64, u64)>,
            late: u64,
            connect: Option<(u64, u64)>,
            /// End of `first_byte_delay`: when the client's first byte left.
            first_byte: u64,
            serve: Option<(u64, u64)>,
        }
        let inside = |span: &Span| span.start_ns >= window.0 && span.start_ns < window.1;
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut budget = Budget::default();
        for span in spans {
            if span.conn == 0 {
                if inside(span) {
                    match span.name {
                        "store.insert" => budget.insert.push(span.nanos()),
                        "store.lookup.hit" => {
                            budget.lookup_hits += 1;
                            budget.lookup.push(span.nanos());
                        }
                        "store.lookup.miss" => budget.lookup.push(span.nanos()),
                        _ => {}
                    }
                }
                continue;
            }
            let conn = conns.entry(span.conn).or_default();
            let range = Some((span.start_ns, span.end_ns));
            match span.name {
                "conn" => conn.root = range,
                "late" => conn.late = span.nanos(),
                "connect" => conn.connect = range,
                "first_byte_delay" => conn.first_byte = span.end_ns,
                "serve" => conn.serve = range,
                "handshake.full" if inside(span) => budget.handshake_full.push(span.nanos()),
                "handshake.resumed" if inside(span) => budget.handshake_resumed.push(span.nanos()),
                "http.request" if inside(span) => budget.http_request.push(span.nanos()),
                _ => {}
            }
        }
        for conn in conns.values() {
            let (Some(root), Some(connect), Some(serve)) = (conn.root, conn.connect, conn.serve)
            else {
                continue;
            };
            if root.0 < window.0 || root.0 >= window.1 {
                continue;
            }
            let total = root.1 - root.0;
            // The client's own spans before its first byte: the connect
            // call and the modelled round trip.
            let first_byte = conn.first_byte.max(connect.1);
            let connect_ns = connect.1 - connect.0;
            let delay_ns = first_byte - connect.1;
            let queue_wait = serve.0.saturating_sub(first_byte);
            let serve_inside = serve.1.min(root.1).saturating_sub(serve.0.max(first_byte));
            let measured = conn.late + connect_ns + delay_ns + queue_wait + serve_inside;
            let unattributed = total.saturating_sub(measured);
            budget.sum_error_ns = budget
                .sum_error_ns
                .max((measured + unattributed).abs_diff(total));
            budget.total.push(total);
            budget.late.push(conn.late);
            budget.connect.push(connect_ns);
            budget.first_byte_delay.push(delay_ns);
            budget.queue_wait.push(queue_wait);
            budget.serve.push(serve.1 - serve.0);
            budget.unattributed.push(unattributed);
        }
        for samples in [
            &mut budget.total,
            &mut budget.late,
            &mut budget.connect,
            &mut budget.first_byte_delay,
            &mut budget.queue_wait,
            &mut budget.serve,
            &mut budget.unattributed,
            &mut budget.handshake_full,
            &mut budget.handshake_resumed,
            &mut budget.http_request,
            &mut budget.lookup,
            &mut budget.insert,
        ] {
            samples.sort_unstable();
        }
        budget
    }

    /// The p50 of every component beside the p50 of the total, µs.
    pub fn to_json(&self) -> Json {
        let mut out = Json::obj();
        for (name, samples) in [
            ("total_p50_us", &self.total),
            ("late_p50_us", &self.late),
            ("connect_p50_us", &self.connect),
            ("first_byte_delay_p50_us", &self.first_byte_delay),
            ("queue_wait_p50_us", &self.queue_wait),
            ("serve_p50_us", &self.serve),
            ("unattributed_p50_us", &self.unattributed),
        ] {
            out.set(name, percentile_us(samples, 0.5));
        }
        out.set("connections", self.total.len() as u64)
            .set("sum_error_ns", self.sum_error_ns);
        out
    }
}

/// Every per-layer metric for one workload: the traced run's spans and
/// counters, the probes, and what only an untraced run of the same
/// workload can say — the CPU cost of a connection, and the latency the
/// tracing overhead is taken against.
pub fn per_layer(
    traced: &RunOutput,
    untraced: &RunOutput,
    probes: &[(&'static str, f64)],
) -> Readings {
    let budget = Budget::from_spans(&traced.spans, traced.window_ns);
    let latencies = with_failures(traced);
    let p = |samples: &[u64], q: f64| Reading::sampled(percentile_us(samples, q), samples.len());
    let count = |value: u64| Reading::of(Some(value as f64));
    let share = |part: u64, whole: u64| {
        Reading::sampled(
            (whole > 0).then(|| part as f64 / whole as f64),
            whole as usize,
        )
    };
    let window = |name: &str| summed(&traced.counters, name);
    let per_conn = |name: &str| match &traced.counted {
        Some((counters, conns)) if *conns > 0 => Reading::sampled(
            Some(summed(counters, name) as f64 / *conns as f64),
            *conns as usize,
        ),
        _ => Reading::default(),
    };
    // An open loop's rate is offered, not achieved, so what tracing costs
    // is read off the latency: the share of the traced median the untraced
    // run does without. On a closed loop (rate = clients / latency) that is
    // the share of the throughput tracing takes.
    let traced_p50 = percentile_us(&latencies, 0.5);
    let untraced_p50 = percentile_us(&with_failures(untraced), 0.5);

    let mut readings: HashMap<&'static str, Reading> = probes
        .iter()
        .map(|(name, value)| (*name, Reading::of(Some(*value))))
        .collect();
    let mut put = |name: &'static str, reading: Reading| {
        readings.insert(name, reading);
    };
    put(
        "cpu_ms_per_conn",
        Reading::sampled(
            (untraced.completions > 0).then(|| untraced.cpu_ms / untraced.completions as f64),
            untraced.completions as usize,
        ),
    );
    put("wedge-core.sthreads_per_conn", per_conn("kernel.sthreads"));
    put(
        "wedge-core.callgates_per_conn",
        per_conn("kernel.callgates"),
    );
    put(
        "wedge-core.oplog_ops_per_conn",
        per_conn("kernel.oplog.appended"),
    );
    put("wedge-alloc.allocs_per_conn", per_conn("alloc.allocs"));
    put(
        "wedge-tls.handshake_full_us",
        p(&budget.handshake_full, 0.5),
    );
    put(
        "wedge-tls.handshake_resumed_us",
        p(&budget.handshake_resumed, 0.5),
    );
    put(
        "wedge-tls.resumed_share",
        share(traced.resumed, traced.https_completions),
    );
    put("wedge-net.connect_us", p(&budget.connect, 0.5));
    put(
        "wedge-net.accept_p50_us",
        Reading {
            value: traced.accept_p50_us,
            quantised: true,
            ..Reading::default()
        },
    );
    put(
        "wedge-net.rate_limited",
        count(window("listener.rate_limited")),
    );
    put("wedge-net.refused", count(window("listener.refused")));
    put("wedge-sched.queue_wait_p50_us", p(&budget.queue_wait, 0.5));
    put("wedge-sched.queue_wait_p90_us", p(&budget.queue_wait, 0.9));
    put("wedge-sched.serve_p50_us", p(&budget.serve, 0.5));
    put("wedge-sched.serve_p90_us", p(&budget.serve, 0.9));
    put(
        "wedge-sched.unattributed_p50_us",
        p(&budget.unattributed, 0.5),
    );
    put(
        "wedge-sched.restart_ms",
        Reading::sampled(median(&traced.restart_ms), traced.restart_ms.len()),
    );
    put("wedge-sched.boot_ms", Reading::of(Some(traced.boot_ms)));
    put("wedge-sched.threads_peak", count(traced.threads_peak));
    put("wedge-sched.submitted", count(window("sched.submitted")));
    put("wedge-sched.completed", count(window("sched.completed")));
    put("wedge-sched.rejected", count(window("sched.rejected")));
    put("wedge-cachenet.lookup_p50_us", p(&budget.lookup, 0.5));
    put("wedge-cachenet.insert_p50_us", p(&budget.insert, 0.5));
    put("wedge-cachenet.lookups", count(budget.lookup.len() as u64));
    put("wedge-cachenet.inserts", count(budget.insert.len() as u64));
    put(
        "wedge-cachenet.hit_share",
        share(budget.lookup_hits, budget.lookup.len() as u64),
    );
    let (remote, local) = (
        window("cachenet.remote_hits"),
        window("cachenet.local_hits"),
    );
    put("wedge-cachenet.remote_share", share(remote, remote + local));
    put(
        "wedge-cachenet.breaker_opens",
        count(window("cachenet.circuit_opens")),
    );
    put(
        "wedge-apache.conn_p50_us",
        p(&traced.proto_latency_ns[0], 0.5),
    );
    put("wedge-ssh.conn_p50_us", p(&traced.proto_latency_ns[1], 0.5));
    put(
        "wedge-pop3.conn_p50_us",
        p(&traced.proto_latency_ns[2], 0.5),
    );
    put("wedge-apache.request_us", p(&budget.http_request, 0.5));
    put(
        "wedge-telemetry.trace_overhead_share",
        Reading::of(match (traced_p50, untraced_p50) {
            (Some(traced), Some(untraced)) if traced > 0.0 => Some(1.0 - untraced / traced),
            _ => None,
        }),
    );
    put(
        "wedge-telemetry.snapshot_ms",
        Reading::of(Some(traced.snapshot_ms)),
    );
    put("wedge-chaos.faults_injected", count(traced.faults_injected));
    put(
        "wedge-chaos.faults_audited",
        count(
            traced
                .counters
                .get("chaos.faults_audited")
                .copied()
                .unwrap_or(0),
        ),
    );
    put(
        "gen.late_p90_us",
        Reading::sampled(traced.late_p90_us(), traced.late_ns.len()),
    );
    put(
        "gen.calib_spread",
        Reading::sampled(traced.calib_spread(), traced.calib_ms.len()),
    );
    put("e2e.conn_p99_us", p(&latencies, 0.99));
    put(
        "e2e.conn_max_us",
        Reading::sampled(latencies.last().map(|ns| *ns as f64 / 1e3), latencies.len()),
    );
    put("e2e.samples", count(latencies.len() as u64));
    put("e2e.fail_share", share(traced.failed, traced.attempted));

    PER_LAYER
        .iter()
        .map(|def| (def, readings.remove(def.name).unwrap_or_default()))
        .collect()
}

/// `{name: reading}` for a result file.
pub fn readings_json(readings: &Readings) -> Json {
    let mut out = Json::obj();
    for (def, reading) in readings {
        out.set(def.name, reading.to_json(def));
    }
    out
}

/// The metric definitions, as `BENCHMARK.json` spells them.
pub fn definitions_json(defs: &[MetricDef]) -> Json {
    Json::Arr(
        defs.iter()
            .map(|def| {
                let mut out = Json::obj();
                out.set("name", def.name)
                    .set("unit", def.unit)
                    .set("better", def.better.as_str());
                if let Some(bound) = def.bound {
                    out.set("bound", bound);
                }
                out
            })
            .collect(),
    )
}

/// One line per reading: `name  value unit  (n samples)`.
pub fn print_readings(readings: &Readings) {
    for (def, reading) in readings {
        let value = reading
            .value
            .map_or_else(|| "null".to_string(), |v| format!("{v:.4}"));
        let samples = reading
            .samples
            .map_or_else(String::new, |n| format!("  (n={n})"));
        let flag = if reading.quantised { "  quantised" } else { "" };
        println!(
            "  {:<40} {value:>14} {:<6}{samples}{flag}",
            def.name, def.unit
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(def.name), "{} is listed twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|def| def.bound.is_some_and(|b| b <= 0.25)));
    }

    #[test]
    fn budget_sums_to_the_total_by_construction() {
        let span = |conn, name, start_ns, end_ns| Span {
            conn,
            parent: "conn",
            name,
            start_ns,
            end_ns,
        };
        let spans = [
            span(7, "conn", 100, 1_000),
            span(7, "late", 100, 150),
            span(7, "connect", 160, 200),
            span(7, "first_byte_delay", 200, 230),
            span(7, "serve", 500, 1_100),
            span(7, "handshake.full", 200, 700),
            span(0, "store.lookup.miss", 550, 560),
            // Started before the window: not counted.
            span(9, "conn", 10, 90),
            span(9, "connect", 10, 20),
            span(9, "serve", 30, 95),
        ];
        let budget = Budget::from_spans(&spans, (100, 2_000));
        assert_eq!(budget.total, [900]);
        assert_eq!(budget.late, [50]);
        assert_eq!(budget.connect, [40]);
        assert_eq!(budget.first_byte_delay, [30]);
        assert_eq!(budget.queue_wait, [270]);
        assert_eq!(budget.serve, [600]);
        // 900 − 50 − 40 − 30 − 270 − (1000 − 500) = 10: the gap before connect.
        assert_eq!(budget.unattributed, [10]);
        assert_eq!(budget.sum_error_ns, 0);
        assert_eq!(budget.handshake_full, [500]);
        assert_eq!((budget.lookup.len(), budget.lookup_hits), (1, 0));
    }
}
