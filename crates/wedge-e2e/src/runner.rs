//! One run of one workload against a freshly booted stack.
//!
//! A run is: boot (timed: `setup_s`), warm up (discarded), then the
//! measured window cut into slices. Closed loops pause their clients at
//! every slice boundary so a fixed single-thread hash can be timed on an
//! otherwise idle box (`gen.calib_spread` tells machine drift from
//! change); open loops keep their arrival timeline, and how late it was
//! dispatched is their validity check. Every latency is a raw `u64`;
//! nothing is bucketed.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::spans::{Clock, Source, Span, SpanSink};
use crate::stack::{probes, Failure, FailureKind, HttpsClient, Reply, Stack};
use crate::sys;
use crate::workload::{self, ClosedDraws, Draw, Page, Proto, Shape, Workload, CLIENTS};

#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub workload: &'static Workload,
    pub seed: u64,
    pub warm: Duration,
    pub measure: Duration,
    pub slice: Duration,
    pub traced: bool,
    /// Caps on the hosts a closed-loop client owns (an open loop draws
    /// over) and on the counting window per client thread. `--smoke` lowers
    /// both so a debug build finishes; every real run uses [`Scale::FULL`].
    pub scale: Scale,
}

#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub max_hosts_per_client: usize,
    pub max_count_window: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        max_hosts_per_client: usize::MAX,
        max_count_window: usize::MAX,
    };
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warm,
    /// In the measured window, in this slice of it.
    Measure(usize),
}

/// A failed connection misses every percentile: it counts as a latency
/// longer than any timeout in the stack.
pub const FAILED_LATENCY_NS: u64 = 60_000_000_000;

#[derive(Debug, Clone, Copy)]
struct Sample {
    proto: Proto,
    phase: Phase,
    ok: bool,
    resumed: bool,
    bytes: u64,
    /// Open loop: the due time; closed loop: when the connection started.
    start_ns: u64,
    end_ns: u64,
    /// Open loop: how long after its due time the connection was dispatched.
    late_ns: u64,
}

impl Sample {
    /// A connection outside every timed window.
    fn warm(proto: Proto) -> Sample {
        Sample {
            proto,
            phase: Phase::Warm,
            ok: false,
            resumed: false,
            bytes: 0,
            start_ns: 0,
            end_ns: 0,
            late_ns: 0,
        }
    }
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    errors: Vec<Failure>,
    /// Closed loop: when this client's last connection of each slice ended.
    slice_finish_ns: Vec<u64>,
}

impl ClientLog {
    fn new() -> ClientLog {
        ClientLog {
            samples: Vec::with_capacity(1 << 17),
            ..ClientLog::default()
        }
    }

    fn record(&mut self, mut sample: Sample, outcome: Result<Reply, Failure>) {
        match outcome {
            Ok(reply) => {
                sample.ok = true;
                sample.bytes = reply.bytes;
                sample.resumed = reply.resumed;
            }
            Err(failure) => self.errors.push(failure),
        }
        self.samples.push(sample);
    }
}

/// Everything a run measured, before it is turned into named metrics.
#[derive(Debug, Default)]
pub struct RunOutput {
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Completed connections whose reply was not the generated one.
    pub wrong: u64,
    /// First three distinct failure strings.
    pub errors: Vec<String>,
    /// Sorted latencies of the measured window's completions, ns.
    pub latency_ns: Vec<u64>,
    /// The same per slice, each failure in its slice at
    /// [`FAILED_LATENCY_NS`].
    pub slice_latency_ns: Vec<Vec<u64>>,
    /// The same, per protocol (HTTPS, SSH, POP3).
    pub proto_latency_ns: [Vec<u64>; 3],
    pub late_ns: Vec<u64>,
    pub slice_conn_per_s: Vec<f64>,
    pub slice_mb_s: Vec<f64>,
    pub completions: u64,
    pub https_completions: u64,
    pub resumed: u64,
    pub cpu_ms: f64,
    pub rss_peak_mib: f64,
    pub calib_ms: Vec<f64>,
    /// Counter deltas over the measured window, by `<front>.<name>`.
    pub counters: BTreeMap<String, u64>,
    /// Counter deltas over the counting window and the connections in it
    /// (fault-free runs only): the `*_per_conn` base.
    pub counted: Option<(BTreeMap<String, u64>, u64)>,
    pub spans: Vec<Span>,
    /// The measured window on the spans' clock.
    pub window_ns: (u64, u64),
    pub faults_injected: u64,
    pub restart_ms: Vec<f64>,
    pub boot_ms: f64,
    pub snapshot_ms: f64,
    pub accept_p50_us: Option<f64>,
    pub threads_peak: u64,
    /// The front whose books do not balance, if any.
    pub unbalanced: Option<String>,
}

impl RunOutput {
    /// A wrong reply or unbalanced books is a benchmark error, not a
    /// measurement.
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.unbalanced.is_none()
    }

    pub fn calib_spread(&self) -> Option<f64> {
        crate::stats::spread(&self.calib_ms)
    }

    pub fn late_p90_us(&self) -> Option<f64> {
        crate::stats::percentile_us(&self.late_ns, 0.9)
    }

    /// The machine moved under the run: its numbers are not comparable.
    pub fn noisy(&self) -> bool {
        self.late_p90_us().is_some_and(|us| us > 1_000.0)
            || self.calib_spread().is_some_and(|spread| spread > 0.10)
    }
}

fn delta(after: &BTreeMap<String, u64>, before: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    after
        .iter()
        .map(|(name, value)| {
            let base = before.get(name).copied().unwrap_or(0);
            (name.clone(), value.saturating_sub(base))
        })
        .collect()
}

/// Wait until every accepted link has been served, so a counter snapshot
/// sees whole connections only (a server finishes a connection a moment
/// after its client does).
fn quiesce(stack: &Stack) -> BTreeMap<String, u64> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let counters = stack.counters();
        let read = |name: &str| counters.get(name).copied().unwrap_or(0);
        let settled = crate::stack::FRONT_NAMES.iter().all(|front| {
            let resolved = read(&format!("{front}.sched.completed"))
                + read(&format!("{front}.sched.rejected"));
            // A re-offered link is submitted (and rejected) more than once,
            // so `resolved` may exceed the accepts; it may not trail them.
            resolved >= read(&format!("{front}.listener.accept"))
                && resolved == read(&format!("{front}.sched.submitted"))
                && read(&format!("{front}.listener.pending")) == 0
        });
        if settled || Instant::now() > deadline {
            return counters;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Samples `Threads:` while a run is in flight.
struct ThreadWatch {
    stop: Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<u64>,
}

impl ThreadWatch {
    fn start() -> ThreadWatch {
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut peak = 0;
            while !flag.load(Ordering::Relaxed) {
                peak = peak.max(sys::threads());
                std::thread::sleep(Duration::from_millis(20));
            }
            peak
        });
        ThreadWatch { stop, handle }
    }

    fn finish(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().unwrap_or(0)
    }
}

pub fn run(config: &RunConfig) -> Result<RunOutput, String> {
    let clock = Clock::start();
    let sink = config.traced.then(|| Arc::new(SpanSink::new(clock)));
    let (stack, setup_s) = Stack::boot(config.seed, sink.clone())
        .map_err(|failure| format!("stack boot: {}", failure.detail))?;
    let watch = config.traced.then(ThreadWatch::start);
    let mut output = match config.workload.shape {
        Shape::Closed {
            page,
            hosts_per_client,
            count_window,
        } => closed_loop(
            config,
            &stack,
            clock,
            sink.as_deref(),
            ClosedShape {
                page,
                hosts_per_client: hosts_per_client.min(config.scale.max_hosts_per_client),
                count_window: count_window.min(config.scale.max_count_window),
            },
        ),
        Shape::Open {
            streams,
            hosts,
            dispatchers,
            primed,
            chaos,
        } => {
            let hosts = hosts.min(config.scale.max_hosts_per_client);
            let horizon = config.warm + config.measure;
            // The counting window draws over fewer hosts; see its constants.
            let mut counting = Vec::new();
            if primed {
                let hosts = hosts.min(OPEN_COUNT_HOSTS);
                counting = workload::timeline(config.seed, horizon, streams, hosts);
                let per_dispatcher = config.scale.max_count_window.min(OPEN_COUNT_WINDOW);
                counting.truncate(OPEN_COUNT_WINDOW.min(per_dispatcher * dispatchers));
            }
            open_loop(
                config,
                &stack,
                clock,
                sink.as_deref(),
                OpenShape {
                    timeline: workload::timeline(config.seed, horizon, streams, hosts),
                    counting,
                    hosts,
                    dispatchers,
                    primed,
                    chaos,
                },
            )
        }
    };
    output.setup_s = setup_s;
    if config.traced {
        output.snapshot_ms = stack.snapshot_ms();
        output.accept_p50_us = stack.program_p50_us("trace.accept");
    }
    output.boot_ms = stack.boot_ms();
    output.restart_ms = stack.restart_ms();
    output.threads_peak = watch.map_or(0, ThreadWatch::finish);
    output.unbalanced = stack
        .shutdown()
        .err()
        .or_else(|| fault_books(&output).err());
    output.spans = sink.map_or_else(Vec::new, |sink| sink.take());
    Ok(output)
}

/// The fault books: every injected fault was audited, and the listeners
/// refused exactly what the flood was refused (nothing, without one).
fn fault_books(output: &RunOutput) -> Result<(), String> {
    let read = |name: &str| output.counters.get(name).copied().unwrap_or(0);
    let audited = read("chaos.faults_audited");
    if output.faults_injected != audited {
        return Err(format!(
            "{} faults injected, {audited} audited",
            output.faults_injected
        ));
    }
    let rate_limited = crate::stack::summed(&output.counters, "listener.rate_limited");
    let flood_refused = read("chaos.flood_refused");
    if rate_limited != flood_refused {
        return Err(format!(
            "listeners rate-limited {rate_limited}, the flood was refused {flood_refused}"
        ));
    }
    Ok(())
}

/// Fold the client logs' measured-window samples into `output`.
fn fold(output: &mut RunOutput, logs: Vec<ClientLog>) {
    let mut seen = Vec::new();
    for log in logs {
        for failure in log.errors {
            if failure.kind == FailureKind::Wrong {
                output.wrong += 1;
            }
            if seen.len() < 3 && !seen.contains(&failure.detail) {
                seen.push(failure.detail);
            }
        }
        for sample in log.samples {
            let Phase::Measure(slice) = sample.phase else {
                continue;
            };
            if output.slice_latency_ns.len() <= slice {
                output.slice_latency_ns.resize(slice + 1, Vec::new());
            }
            output.attempted += 1;
            if !sample.ok {
                output.failed += 1;
                output.slice_latency_ns[slice].push(FAILED_LATENCY_NS);
                continue;
            }
            let latency = sample.end_ns.saturating_sub(sample.start_ns);
            output.slice_latency_ns[slice].push(latency);
            output.latency_ns.push(latency);
            output.proto_latency_ns[sample.proto as usize].push(latency);
            output.late_ns.push(sample.late_ns);
            output.completions += 1;
            if sample.proto == Proto::Https {
                output.https_completions += 1;
                output.resumed += u64::from(sample.resumed);
            }
        }
    }
    output.errors = seen;
    output.latency_ns.sort_unstable();
    output.late_ns.sort_unstable();
    for latencies in output
        .proto_latency_ns
        .iter_mut()
        .chain(&mut output.slice_latency_ns)
    {
        latencies.sort_unstable();
    }
}

/// The root span of one connection, and the generator's lateness when it
/// had any.
fn root_spans(sink: &SpanSink, source: Source, start_ns: u64, dispatch_ns: u64, end_ns: u64) {
    let conn = source.key();
    let mut spans = vec![Span {
        conn,
        parent: "",
        name: "conn",
        start_ns,
        end_ns,
    }];
    if dispatch_ns > start_ns {
        spans.push(Span {
            conn,
            parent: "conn",
            name: "late",
            start_ns,
            end_ns: dispatch_ns,
        });
    }
    sink.extend(spans);
}

struct ClosedClient<'a> {
    id: usize,
    stack: &'a Stack,
    clock: Clock,
    sink: Option<&'a SpanSink>,
    page: Page,
    hosts: Vec<HttpsClient>,
    ordinal: u64,
    log: ClientLog,
}

impl ClosedClient<'_> {
    fn connect(&mut self, host: u32, page: Page, phase: Phase) {
        let source = Source::new(self.id as u8, host, self.ordinal);
        self.ordinal += 1;
        let client = &mut self.hosts[host as usize];
        let start_ns = self.clock.now_ns();
        let outcome = self.stack.https(client, source, page);
        let end_ns = self.clock.now_ns();
        if let Some(sink) = self.sink {
            root_spans(sink, source, start_ns, start_ns, end_ns);
        }
        self.log.record(
            Sample {
                proto: Proto::Https,
                phase,
                ok: false,
                resumed: false,
                bytes: 0,
                start_ns,
                end_ns,
                late_ns: 0,
            },
            outcome,
        );
    }
}

#[derive(Debug, Clone, Copy)]
struct ClosedShape {
    page: Page,
    hosts_per_client: usize,
    count_window: usize,
}

fn closed_loop(
    config: &RunConfig,
    stack: &Arc<Stack>,
    clock: Clock,
    sink: Option<&SpanSink>,
    shape: ClosedShape,
) -> RunOutput {
    let ClosedShape {
        page,
        hosts_per_client,
        count_window,
    } = shape;
    let slices = (config.measure.as_nanos() / config.slice.as_nanos().max(1)).max(1) as usize;
    // The coordinator and the clients meet here at every phase change.
    let gate = Barrier::new(CLIENTS + 1);
    // Deadline of the phase the clients are in, on `clock`.
    let deadline_ns = AtomicU64::new(0);
    let mut output = RunOutput::default();

    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let (gate, deadline_ns) = (&gate, &deadline_ns);
                let stack: &Stack = stack;
                scope.spawn(move || {
                    let mut client = ClosedClient {
                        id,
                        stack,
                        clock,
                        sink,
                        page,
                        hosts: (0..hosts_per_client)
                            .map(|host| {
                                stack.https_client(config.seed ^ ((id as u64) << 32 | host as u64))
                            })
                            .collect(),
                        ordinal: 0,
                        log: ClientLog::new(),
                    };
                    let mut draws = ClosedDraws::new(config.seed, id, hosts_per_client);
                    // Prime: every host handshakes once, with the small
                    // page, so the measured window starts from the
                    // workload's steady state of held sessions.
                    for host in 0..hosts_per_client as u32 {
                        client.connect(host, Page::Index, Phase::Warm);
                    }
                    gate.wait();
                    // Counting window: a fixed number of draws per client,
                    // bracketed by counter snapshots.
                    gate.wait();
                    for draw in draws.by_ref().take(count_window) {
                        client.connect(draw.host, client.page, Phase::Warm);
                    }
                    gate.wait();
                    gate.wait();
                    // Slice 0 is the warm-up's remainder.
                    for slice in 0..=slices {
                        let phase = slice.checked_sub(1).map_or(Phase::Warm, Phase::Measure);
                        gate.wait();
                        let until = deadline_ns.load(Ordering::SeqCst);
                        while clock.now_ns() < until {
                            let draw = draws.next().expect("endless");
                            client.connect(draw.host, client.page, phase);
                        }
                        if phase != Phase::Warm {
                            let finished = client.log.samples.last().map_or(until, |s| s.end_ns);
                            client.log.slice_finish_ns.push(finished);
                        }
                        gate.wait();
                    }
                    client.log
                })
            })
            .collect();

        // Coordinator.
        gate.wait();
        let counted_from = quiesce(stack);
        gate.wait();
        gate.wait();
        let counted = delta(&quiesce(stack), &counted_from);
        output.counted = Some((counted, (CLIENTS * count_window) as u64));
        // Read here, after a number of connections the seed fixes: the
        // accept loop keeps a handle per connection, so a peak read at the
        // end of a timed window would grow with the throughput it measures.
        output.rss_peak_mib = sys::rss_peak_mib();
        gate.wait();

        let mut slice_start_ns = Vec::new();
        let mut before = BTreeMap::new();
        let mut cpu_ms = 0.0;
        for slice in 0..=slices {
            // Slice 0 is the warm-up's remainder.
            let length = if slice == 0 {
                config.warm
            } else {
                config.slice
            };
            if slice == 1 {
                before = quiesce(stack);
            }
            if slice > 0 {
                output.calib_ms.push(probes::calibrate_ms());
            }
            let start_ns = clock.now_ns();
            slice_start_ns.push(start_ns);
            deadline_ns.store(start_ns + length.as_nanos() as u64, Ordering::SeqCst);
            let cpu_start = sys::cpu_ms();
            gate.wait();
            gate.wait();
            if slice > 0 {
                cpu_ms += sys::cpu_ms() - cpu_start;
            }
        }
        output.counters = delta(&quiesce(stack), &before);
        output.cpu_ms = cpu_ms;
        output.window_ns = (slice_start_ns[1], clock.now_ns());

        let logs: Vec<ClientLog> = handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread"))
            .collect();
        // A slice's rate is the sum of each client's own rate over the
        // time it actually worked (its last connection overruns the
        // deadline), so no connection is cut in half at a boundary.
        for (slice, &from) in slice_start_ns[1..].iter().enumerate() {
            let (mut conn_per_s, mut mb_s) = (0.0, 0.0);
            for log in &logs {
                let to = log.slice_finish_ns[slice];
                let seconds = (to.saturating_sub(from)).max(1) as f64 / 1e9;
                let in_slice = log.samples.iter().filter(|s| {
                    s.phase != Phase::Warm && s.ok && s.start_ns >= from && s.end_ns <= to
                });
                let (count, bytes) = in_slice.fold((0u64, 0u64), |(n, b), s| (n + 1, b + s.bytes));
                conn_per_s += count as f64 / seconds;
                mb_s += bytes as f64 / 1e6 / seconds;
            }
            output.slice_conn_per_s.push(conn_per_s);
            output.slice_mb_s.push(mb_s);
        }
        logs
    });
    fold(&mut output, logs);
    output
}

/// Draws in a primed open loop's counting window, and the hosts they are
/// drawn over. The server draws its session ids from OS entropy and every
/// cache node keeps them in 16 LRU buckets of 64, so which session a full
/// bucket evicts differs from run to run; 256 hosts and 200 cold draws
/// fill no bucket, every lookup hits, and the counts follow from the draws.
const OPEN_COUNT_WINDOW: usize = 1_000;
const OPEN_COUNT_HOSTS: usize = 256;

/// Run `work(log, thread, index)` for every index below `count`, on
/// `threads` threads that each take the next index as they come free.
fn share_out<F>(threads: usize, count: usize, work: F) -> Vec<ClientLog>
where
    F: Fn(&mut ClientLog, usize, usize) + Sync,
{
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|id| {
                let (next, work) = (&next, &work);
                scope.spawn(move || {
                    let mut log = ClientLog::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        if index >= count {
                            return log;
                        }
                        work(&mut log, id, index);
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread"))
            .collect()
    })
}

struct OpenShape {
    timeline: Vec<Draw>,
    /// The counting window's draws, when the loop is primed.
    counting: Vec<Draw>,
    /// HTTPS hosts the timeline draws over.
    hosts: usize,
    dispatchers: usize,
    primed: bool,
    chaos: bool,
}

fn open_loop(
    config: &RunConfig,
    stack: &Arc<Stack>,
    clock: Clock,
    sink: Option<&SpanSink>,
    shape: OpenShape,
) -> RunOutput {
    let OpenShape {
        timeline,
        counting,
        hosts,
        dispatchers,
        primed,
        chaos,
    } = shape;
    let slices = (config.measure.as_nanos() / config.slice.as_nanos().max(1)).max(1) as usize;
    let hosts: Vec<Mutex<HttpsClient>> = (0..hosts as u64)
        .map(|host| Mutex::new(stack.https_client(config.seed ^ host)))
        .collect();
    let mut output = RunOutput::default();
    let mut prelude = Vec::new();
    if primed {
        // Every host handshakes once, the hosts of the counting window
        // before it and the rest after.
        let prime = |hosts: &[Mutex<HttpsClient>], first: usize| {
            share_out(dispatchers, hosts.len(), |log, id, index| {
                // No arrival's ordinal reaches the last port.
                let source = Source::new(id as u8, (first + index) as u32, u64::from(u16::MAX));
                let outcome = stack.https(&mut hosts[index].lock(), source, Page::Index);
                log.record(Sample::warm(Proto::Https), outcome);
            })
        };
        let (counted_hosts, other_hosts) = hosts.split_at(OPEN_COUNT_HOSTS.min(hosts.len()));
        prelude.extend(prime(counted_hosts, 0));
        // Counting window: a fixed number of draws as fast as the
        // dispatchers take them, bracketed by quiesced snapshots (the timed
        // timeline never pauses, so it has no connection boundary to
        // snapshot at).
        let counted_from = quiesce(stack);
        prelude.extend(share_out(dispatchers, counting.len(), |log, id, index| {
            let draw = &counting[index];
            let source = Source::new(id as u8, draw.host, u64::from(u16::MAX) - 1);
            let outcome = drive(stack, counted_hosts, draw, source);
            log.record(Sample::warm(draw.proto), outcome);
        }));
        output.counted = Some((delta(&quiesce(stack), &counted_from), counting.len() as u64));
        prelude.extend(prime(other_hosts, counted_hosts.len()));
    }
    let next = AtomicUsize::new(0);
    let warm_ns = config.warm.as_nanos() as u64;
    let slice_ns = config.slice.as_nanos().max(1) as u64;
    let counted_from = quiesce(stack);
    let origin_ns = clock.now_ns();

    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..dispatchers)
            .map(|id| {
                let (timeline, hosts, next) = (&timeline, &hosts, &next);
                let stack: &Stack = stack;
                scope.spawn(move || {
                    let mut log = ClientLog::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        let Some(draw) = timeline.get(index) else {
                            return log;
                        };
                        let due_ns = origin_ns + draw.due_ns;
                        std::thread::sleep(Duration::from_nanos(
                            due_ns.saturating_sub(clock.now_ns()),
                        ));
                        let source = Source::new(id as u8, draw.host, index as u64);
                        let dispatch_ns = clock.now_ns();
                        let outcome = drive(stack, hosts, draw, source);
                        let end_ns = clock.now_ns();
                        if let Some(sink) = sink {
                            root_spans(sink, source, due_ns, dispatch_ns, end_ns);
                        }
                        log.record(
                            Sample {
                                proto: draw.proto,
                                phase: match draw.due_ns.checked_sub(warm_ns) {
                                    None => Phase::Warm,
                                    Some(into) => Phase::Measure((into / slice_ns) as usize),
                                },
                                ok: false,
                                resumed: false,
                                bytes: 0,
                                start_ns: due_ns,
                                end_ns,
                                late_ns: dispatch_ns.saturating_sub(due_ns),
                            },
                            outcome,
                        );
                    }
                })
            })
            .collect();

        // Coordinator: the arrival timeline never pauses, so it only
        // brackets the measured window. It does not calibrate: on the one
        // CPU the run is pinned to, a hash beside the traffic would time
        // the traffic and stall it.
        let sleep_until = |offset: Duration| {
            let at_ns = origin_ns + offset.as_nanos() as u64;
            std::thread::sleep(Duration::from_nanos(at_ns.saturating_sub(clock.now_ns())));
        };
        sleep_until(config.warm);
        let window_from = origin_ns + warm_ns;
        output.window_ns = (window_from, window_from + config.measure.as_nanos() as u64);
        let before = stack.counters();
        let cpu_start = sys::cpu_ms();
        let injector =
            chaos.then(|| stack.inject(&workload::fault_plan(config.seed, config.measure)));
        sleep_until(config.warm + config.measure);
        output.cpu_ms = sys::cpu_ms() - cpu_start;
        let logs: Vec<ClientLog> = handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread"))
            .collect();
        if let Some(injector) = injector {
            output.faults_injected = injector.join().expect("fault injector");
        }
        let after = quiesce(stack);
        output.counters = delta(&after, &before);
        // The timeline fixes the connection count, so the end is a fixed
        // amount of work.
        output.rss_peak_mib = sys::rss_peak_mib();
        if !chaos && !primed {
            // Every arrival of the timeline, warm-up included: the whole
            // run's connection count is fixed by the seed.
            output.counted = Some((delta(&after, &counted_from), timeline.len() as u64));
        }
        logs
    });

    // The offered rate is fixed, so a slice's rate is its completions over
    // the time they took: from the slice's start to its last completion.
    for slice in 0..slices {
        let from = origin_ns + warm_ns + (config.slice * slice as u32).as_nanos() as u64;
        let to = from + config.slice.as_nanos() as u64;
        let in_slice = logs
            .iter()
            .flat_map(|log| &log.samples)
            .filter(|s| s.ok && s.start_ns >= from && s.start_ns < to);
        let (count, bytes, last_ns) = in_slice.fold((0u64, 0u64, from), |(n, b, last), s| {
            (n + 1, b + s.bytes, last.max(s.end_ns))
        });
        let seconds = (last_ns - from).max(1) as f64 / 1e9;
        output.slice_conn_per_s.push(count as f64 / seconds);
        output.slice_mb_s.push(bytes as f64 / 1e6 / seconds);
    }
    fold(&mut output, prelude.into_iter().chain(logs).collect());
    output
}

/// Drive one open-loop arrival through its protocol's front door.
fn drive(
    stack: &Stack,
    hosts: &[Mutex<HttpsClient>],
    draw: &Draw,
    source: Source,
) -> Result<Reply, Failure> {
    match draw.proto {
        Proto::Https => {
            // Per-host lock: a host's reconnects are serial, like one
            // browser's.
            let mut client = hosts[draw.host as usize].lock();
            if draw.cold {
                client.forget();
            }
            stack.https(&mut client, source, Page::Index)
        }
        Proto::Ssh => stack.ssh(source),
        Proto::Pop3 => stack.pop3(source),
    }
}
