//! Release gate for the connection path (`cargo test --release -p
//! wedge-bench -q conn_path`): what a recycled sthread saves a connection,
//! as ratios of per-connection sthreads measured in the same run.
//!
//! Both sides run under `WedgeApache`'s handshake policy (four callgate
//! grants to instantiate per `sthread_create`) with an empty body, so the
//! ratio is the compartment's cost alone: `RecycledSthread::run` — job
//! hand-off, body, scrub — against `sthread_create` + `join` — register,
//! `clone`, exit, retire. Twice: back to back, and the case an open loop at
//! 400 conn/s actually serves, each operation the first after a 2.5 ms idle
//! gap, where a cold thread spawn costs several times its hot reading and
//! a wake-up of a parked thread does not. The callgate half of the same
//! trade (§3.3, Figure 7): a recycled gate's invocation is cheaper than a
//! standard one, which creates and retires an activation compartment per
//! call. The same binary holds the allocation half: `trace_fn` with no
//! Crowbar tracer installed (eight calls per connection) allocates nothing.
//!
//! The file holds one `#[test]`: nothing else runs while it times or
//! counts.

#![cfg(not(debug_assertions))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use wedge_apache::{ApacheConfig, PageStore, WedgeApache};
use wedge_core::callgate::typed_entry;
use wedge_core::{RecycledSthread, SecurityPolicy, Wedge};
use wedge_crypto::{RsaKeyPair, WedgeRng};

const ROUNDS: usize = 21;
const ATTEMPTS: usize = 5;
const HOT_OPS: usize = 200;
const IDLE_OPS: usize = 8;
const IDLE_GAP: Duration = Duration::from_micros(2_500);
const GATE_OPS: usize = 100;

static TRACKING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates directly to the system allocator; the counter update
// performs no allocation itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Median of each column over `ROUNDS` interleaved rounds (after one
/// discarded warm-up round), so a load spike on the runner lands on every
/// column of the round it hits.
fn median_us<const N: usize>(mut round: impl FnMut() -> [f64; N]) -> [f64; N] {
    round();
    let rounds: Vec<[f64; N]> = (0..ROUNDS).map(|_| round()).collect();
    std::array::from_fn(|column| {
        let mut samples: Vec<f64> = rounds.iter().map(|r| r[column]).collect();
        samples.sort_by(f64::total_cmp);
        samples[ROUNDS / 2]
    })
}

/// Mean µs of `ops` operations, each preceded by `gap` of idleness that is
/// not timed.
fn mean_us(ops: usize, gap: Duration, mut op: impl FnMut()) -> f64 {
    let mut busy = Duration::ZERO;
    for _ in 0..ops {
        if !gap.is_zero() {
            std::thread::sleep(gap);
        }
        let start = Instant::now();
        op();
        busy += start.elapsed();
    }
    busy.as_secs_f64() * 1e6 / ops as f64
}

/// Take a `measure`ment until it meets its ceiling. A neighbour's burst on
/// a shared runner can outlast all 21 rounds (seen: both sides 10x slower
/// for seconds), so a measurement that misses is taken again a second
/// later, at most four times; every attempt is printed. A real regression
/// misses all five.
fn within_attempts(mut measure: impl FnMut() -> (bool, String)) {
    for attempt in 1..=ATTEMPTS {
        let (met, reading) = measure();
        println!("{reading}");
        if met {
            return;
        }
        assert!(
            attempt < ATTEMPTS,
            "{ATTEMPTS} attempts, the last: {reading}"
        );
        std::thread::sleep(Duration::from_secs(1));
    }
}

#[test]
fn conn_path_recycled_sthread_beats_a_spawn_per_connection() {
    let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(22));
    let server = WedgeApache::new(
        Wedge::init(),
        keypair,
        PageStore::sample(),
        ApacheConfig { recycled: true },
    )
    .expect("server");
    let root = server.wedge().root();
    let policy = server.handshake_policy();
    let empty_body = server
        .wedge()
        .kernel()
        .cgate_register("empty-body", typed_entry(|_ctx, _t, job: u64| Ok(job)));
    let recycled = RecycledSthread::new(&root, empty_body, &policy, None);

    let run = || {
        black_box(recycled.run(Box::new(black_box(7u64))).expect("run"));
    };
    let spawn = || {
        let handle = root
            .sthread_create("empty-body", &policy, |_ctx| black_box(7u64))
            .expect("spawn");
        black_box(handle.join().expect("join"));
    };
    within_attempts(|| {
        let [hot_run, hot_spawn, idle_run, idle_spawn] = median_us(|| {
            [
                mean_us(HOT_OPS, Duration::ZERO, run),
                mean_us(HOT_OPS, Duration::ZERO, spawn),
                mean_us(IDLE_OPS, IDLE_GAP, run),
                mean_us(IDLE_OPS, IDLE_GAP, spawn),
            ]
        });
        let (hot, idle) = (hot_run / hot_spawn, idle_run / idle_spawn);
        let reading = format!(
            "recycled run / sthread_create+join, median of {ROUNDS} rounds: \
             back to back {hot_run:.1} / {hot_spawn:.1} us ({hot:.2}x, ceiling 1.0x), \
             after a {IDLE_GAP:?} gap {idle_run:.1} / {idle_spawn:.1} us ({idle:.2}x, ceiling 0.5x)"
        );
        (hot <= 1.0 && idle <= 0.5, reading)
    });

    // A caller holding one gate grant calls it both ways, interleaved.
    let noop = server
        .wedge()
        .kernel()
        .cgate_register("noop", typed_entry(|_ctx, _t, n: u64| Ok(n)));
    let mut caller_policy = SecurityPolicy::deny_all();
    caller_policy.sc_cgate_add(noop, SecurityPolicy::deny_all(), None);
    root.sthread_create("gate-caller", &caller_policy, move |ctx| {
        let extra = SecurityPolicy::deny_all();
        let standard = || {
            black_box(
                ctx.cgate_expect::<u64>(noop, &extra, Box::new(black_box(1u64)))
                    .expect("standard call"),
            );
        };
        let recycled = || {
            black_box(
                ctx.cgate_recycled_expect::<u64>(noop, &extra, Box::new(black_box(1u64)))
                    .expect("recycled call"),
            );
        };
        within_attempts(|| {
            let [standard_us, recycled_us] = median_us(|| {
                [
                    mean_us(GATE_OPS, Duration::ZERO, standard),
                    mean_us(GATE_OPS, Duration::ZERO, recycled),
                ]
            });
            let reading = format!(
                "recycled / standard callgate, median of {ROUNDS} rounds: \
                 {recycled_us:.1} / {standard_us:.1} us (recycled must be cheaper)"
            );
            (recycled_us < standard_us, reading)
        });
    })
    .expect("gate caller")
    .join()
    .expect("callgate ordering");

    // One connection calls `trace_fn` eight times (two sthread bodies, six
    // gates); with no tracer installed none of them may touch the heap.
    let frames = |count: usize| {
        ALLOCS.store(0, Ordering::SeqCst);
        TRACKING.store(true, Ordering::SeqCst);
        for _ in 0..count {
            let _frame = black_box(root.trace_fn(black_box("ssl_handshake")));
        }
        TRACKING.store(false, Ordering::SeqCst);
        ALLOCS.load(Ordering::SeqCst)
    };
    assert_eq!(frames(1_000), 0, "untraced trace_fn allocated");
    // Control: with a tracer the frame is kept (and the event built), so
    // the counter does see this path.
    let sink = std::sync::Arc::new(wedge_core::trace::CountingSink::default());
    server.wedge().kernel().set_tracer(Some(sink));
    assert!(frames(1) > 0, "tracer-on control should allocate");
}
