//! Quick-run evaluation harness: regenerate the *shape* of every figure and
//! table in the paper's evaluation (§6) in a single command, without waiting
//! for the full Criterion suite.
//!
//! ```text
//! cargo run --release --example figures            # everything
//! cargo run --release --example figures -- fig7    # one section
//! cargo run --release --example figures -- fig8 table2
//! ```
//!
//! Sections: `fig7` (primitive latency), `fig8` (memory calls), `fig9`
//! (Crowbar overhead), `table2` (Apache throughput + SSH latency),
//! `metrics` (partitioning metrics of §5.1/§5.2).
//!
//! The numbers printed here are indicative (a few hundred iterations with
//! `std::time::Instant`); `cargo bench --workspace` runs the longer
//! versions. The paper's absolute numbers come from 2008-era hardware and
//! a patched kernel, so only the orderings and rough ratios are expected
//! to carry over.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::unbounded;

use crowbar::{CbLog, PinSim};
use wedge::apache::metrics::{measured_apache, PartitioningMetrics};
use wedge::core::callgate::typed_entry;
use wedge::core::procsim::{ForkSim, PthreadSim};
use wedge::core::{AccessSink, SecurityPolicy, Wedge};
use wedge_alloc::{Arena, Segment, SegmentId, TagCache, TagCacheConfig};
use wedge_bench::spec::{run_spec, spec_workloads};
use wedge_bench::{ssh_login, ssh_scp, ApacheBed, ApacheVariant, SshBed};

fn main() {
    let requested: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let want = |name: &str| requested.is_empty() || requested.iter().any(|r| r == name);

    println!("wedge-rs quick evaluation harness\n");
    if want("fig7") {
        fig7();
    }
    if want("fig8") {
        fig8();
    }
    if want("fig9") {
        fig9();
    }
    if want("table2") {
        table2_apache();
        table2_ssh();
    }
    if want("metrics") {
        metrics();
    }
}

/// Time `iters` runs of `f` and return the mean per-iteration duration.
fn time_mean<F: FnMut()>(iters: u32, mut f: F) -> Duration {
    // One warm-up iteration so lazy initialisation is not billed.
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed() / iters
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn nanos(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

// ---------------------------------------------------------------------------
// Figure 7 — primitive creation/invocation latency
// ---------------------------------------------------------------------------

fn fig7() {
    println!("== Figure 7: sthread calls (µs per create/invoke + join) ==");
    println!(
        "   paper: pthread ≈ recycled (cheapest) ≪ sthread ≈ callgate ≈ fork (~8× recycled)\n"
    );
    const ITERS: u32 = 200;

    let pthread = time_mean(ITERS, || {
        PthreadSim::spawn_and_join(|| std::hint::black_box(1 + 1));
    });

    let fork_parent = ForkSim::new(4 * 1024 * 1024, 32);
    let fork = time_mean(ITERS, || {
        fork_parent.fork_and_wait(|image, fds| std::hint::black_box(image.len() + fds.len()));
    });

    let wedge = Wedge::init();
    let root = wedge.root();
    let sthread = time_mean(ITERS, || {
        let handle = root
            .sthread_create("fig7-sthread", &SecurityPolicy::deny_all(), |_ctx| 1u32)
            .expect("sthread");
        handle.join().expect("join");
    });

    // Callgate and recycled callgate, invoked from a persistent caller
    // sthread so only the invocation round trip is measured.
    let entry = wedge
        .kernel()
        .cgate_register("fig7_noop", typed_entry(|_ctx, _t, n: u64| Ok(n + 1)));
    let mut caller_policy = SecurityPolicy::deny_all();
    caller_policy.sc_cgate_add(entry, SecurityPolicy::deny_all(), None);

    let measure_gate = |recycled: bool| -> Duration {
        let (cmd_tx, cmd_rx) = unbounded::<()>();
        let (done_tx, done_rx) = unbounded::<u64>();
        let _caller = root
            .sthread_create("fig7-caller", &caller_policy, move |ctx| {
                while cmd_rx.recv().is_ok() {
                    let result = if recycled {
                        ctx.cgate_recycled_expect::<u64>(
                            entry,
                            &SecurityPolicy::deny_all(),
                            Box::new(1u64),
                        )
                    } else {
                        ctx.cgate_expect::<u64>(entry, &SecurityPolicy::deny_all(), Box::new(1u64))
                    }
                    .unwrap_or(0);
                    if done_tx.send(result).is_err() {
                        break;
                    }
                }
            })
            .expect("caller sthread");
        time_mean(ITERS, || {
            cmd_tx.send(()).expect("command");
            done_rx.recv().expect("reply");
        })
    };
    let callgate = measure_gate(false);
    let recycled = measure_gate(true);

    println!("   {:<20} {:>10}", "primitive", "µs");
    for (label, d) in [
        ("pthread", pthread),
        ("recycled callgate", recycled),
        ("sthread", sthread),
        ("callgate", callgate),
        ("fork", fork),
    ] {
        println!("   {:<20} {:>10.2}", label, micros(d));
    }
    println!(
        "   shape: recycled/callgate ratio = {:.1}x, sthread/pthread ratio = {:.1}x\n",
        micros(callgate) / micros(recycled).max(0.01),
        micros(sthread) / micros(pthread).max(0.01),
    );
}

// ---------------------------------------------------------------------------
// Figure 8 — memory call latency
// ---------------------------------------------------------------------------

fn fig8() {
    println!("== Figure 8: memory calls (ns per op) ==");
    println!("   paper: malloc ≪ tag_new(reuse) ≈ 4× malloc ≪ mmap ≈ 22× malloc\n");
    const ITERS: u32 = 20_000;

    let mut arena = Arena::new(256 * 1024).expect("arena");
    let malloc = time_mean(ITERS, || {
        let p = arena.alloc(64).expect("alloc");
        arena.free(p).expect("free");
    });

    let wedge = Wedge::init();
    let root = wedge.root();
    let tag = root.tag_new().expect("tag");
    let smalloc = time_mean(ITERS, || {
        let buf = root.smalloc(64, tag).expect("smalloc");
        root.sfree(&buf).expect("sfree");
    });

    let mut cache = TagCache::new(TagCacheConfig::default());
    let warm = cache.acquire(64 * 1024).expect("segment");
    cache.release(warm);
    let tag_new_reuse = time_mean(ITERS, || {
        let segment = cache.acquire(64 * 1024).expect("segment");
        cache.release(segment);
    });

    let mut fresh_id = 0u64;
    let mmap_fresh = time_mean(2_000, || {
        fresh_id += 1;
        std::hint::black_box(Segment::new(SegmentId(fresh_id), 64 * 1024).expect("segment"));
    });

    println!("   {:<20} {:>12}", "call", "ns");
    for (label, d) in [
        ("malloc", malloc),
        ("smalloc", smalloc),
        ("tag_new (reuse)", tag_new_reuse),
        ("mmap (fresh seg)", mmap_fresh),
    ] {
        println!("   {:<20} {:>12.1}", label, nanos(d));
    }
    println!(
        "   shape: tag_new(reuse)/malloc = {:.1}x, mmap/malloc = {:.1}x\n",
        nanos(tag_new_reuse) / nanos(malloc).max(0.01),
        nanos(mmap_fresh) / nanos(malloc).max(0.01),
    );
}

// ---------------------------------------------------------------------------
// Figure 9 — Crowbar (cb-log) overhead
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Native,
    Pin,
    Crowbar,
}

fn install_on_kernel(kernel: &wedge::core::Kernel, mode: Mode) {
    match mode {
        Mode::Native => kernel.set_tracer(None),
        Mode::Pin => kernel.set_tracer(Some(Arc::new(PinSim::new()))),
        Mode::Crowbar => {
            let log = CbLog::new();
            kernel.set_tracer(Some(log as Arc<dyn AccessSink>));
        }
    }
}

fn fig9() {
    println!("== Figure 9: cb-log overhead (completion time, ratios vs native) ==");
    println!("   paper: crowbar ≈ 96× native / ≈ 27× pin on average; ssh and apache show the\n   smallest ratios because they re-execute basic blocks least\n");
    println!(
        "   {:<12} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "workload", "native µs", "pin µs", "crowbar µs", "pin/nat", "cb/nat"
    );

    // Synthetic SPEC-like kernels.
    for workload in spec_workloads() {
        let mut results = [Duration::ZERO; 3];
        for (i, mode) in [Mode::Native, Mode::Pin, Mode::Crowbar]
            .into_iter()
            .enumerate()
        {
            let wedge = Wedge::init();
            install_on_kernel(wedge.kernel(), mode);
            let root = wedge.root();
            results[i] = time_mean(5, || {
                run_spec(&root, workload).expect("workload");
            });
        }
        print_fig9_row(workload.name, results);
    }

    // The two end-to-end applications, instrumented server-side.
    let mut ssh_results = [Duration::ZERO; 3];
    for (i, mode) in [Mode::Native, Mode::Pin, Mode::Crowbar]
        .into_iter()
        .enumerate()
    {
        let bed = SshBed::new(21);
        install_on_kernel(&bed.kernel(), mode);
        ssh_results[i] = time_mean(10, || {
            bed.login();
        });
    }
    print_fig9_row("ssh", ssh_results);

    let mut apache_results = [Duration::ZERO; 3];
    for (i, mode) in [Mode::Native, Mode::Pin, Mode::Crowbar]
        .into_iter()
        .enumerate()
    {
        let mut bed = ApacheBed::new(ApacheVariant::Wedge, 22);
        install_on_kernel(&bed.kernel(), mode);
        apache_results[i] = time_mean(10, || {
            bed.forget_session();
            bed.request("/index.html");
        });
    }
    print_fig9_row("apache", apache_results);
    println!();
}

fn print_fig9_row(name: &str, [native, pin, crowbar]: [Duration; 3]) {
    println!(
        "   {:<12} {:>12.1} {:>12.1} {:>12.1} {:>9.1}x {:>9.1}x",
        name,
        micros(native),
        micros(pin),
        micros(crowbar),
        micros(pin) / micros(native).max(0.01),
        micros(crowbar) / micros(native).max(0.01),
    );
}

// ---------------------------------------------------------------------------
// Table 2 — Apache throughput and OpenSSH latency
// ---------------------------------------------------------------------------

fn table2_apache() {
    println!("== Table 2 (top): Apache throughput (requests/s) ==");
    println!("   paper: cached  — vanilla 1238 / wedge 238 / recycled 339");
    println!("          uncached — vanilla 247 / wedge 132 / recycled 170\n");
    const REQUESTS: u32 = 40;

    println!(
        "   {:<12} {:>16} {:>18}",
        "variant", "cached req/s", "not-cached req/s"
    );
    for (label, variant) in [
        ("vanilla", ApacheVariant::Vanilla),
        ("simple", ApacheVariant::Simple),
        ("wedge", ApacheVariant::Wedge),
        ("recycled", ApacheVariant::Recycled),
    ] {
        // Sessions cached: resume the same session on every request.
        let mut bed = ApacheBed::new(variant, 31);
        bed.warm();
        let mut cached_total = Duration::ZERO;
        for _ in 0..REQUESTS {
            cached_total += bed.request("/index.html");
        }
        let cached_rps = REQUESTS as f64 / cached_total.as_secs_f64().max(1e-9);

        // Sessions not cached: full handshake every time.
        let mut bed = ApacheBed::new(variant, 32);
        let mut uncached_total = Duration::ZERO;
        for _ in 0..REQUESTS {
            bed.forget_session();
            uncached_total += bed.request("/index.html");
        }
        let uncached_rps = REQUESTS as f64 / uncached_total.as_secs_f64().max(1e-9);

        println!("   {label:<12} {cached_rps:>16.0} {uncached_rps:>18.0}");
    }
    println!();
}

fn table2_ssh() {
    println!("== Table 2 (bottom): OpenSSH latency ==");
    println!("   paper: login 0.145 s vs 0.148 s; 10 MB scp 0.376 s vs 0.370 s (negligible)\n");
    const SCP_BYTES: usize = 10 * 1024 * 1024;
    println!(
        "   {:<12} {:>16} {:>16}",
        "variant", "login ms", "scp 10MB ms"
    );
    for (label, wedged) in [("vanilla", false), ("wedge", true)] {
        let login = time_mean(3, || {
            ssh_login(wedged);
        });
        let scp = time_mean(2, || {
            ssh_scp(wedged, SCP_BYTES);
        });
        println!(
            "   {label:<12} {:>16.2} {:>16.2}",
            login.as_secs_f64() * 1e3,
            scp.as_secs_f64() * 1e3
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// §5.1 / §5.2 partitioning metrics
// ---------------------------------------------------------------------------

fn metrics() {
    println!("== Partitioning metrics (§5.1 / §5.2) ==\n");
    println!(
        "   {:<28} {:>9} {:>9} {:>9} {:>8} {:>8}",
        "partitioning", "callgate", "sthread", "changed", "trusted%", "changed%"
    );
    let row = |label: &str, m: &PartitioningMetrics| {
        println!(
            "   {label:<28} {:>9} {:>9} {:>9} {:>7.1}% {:>7.1}%",
            m.callgate_loc,
            m.sthread_loc,
            m.changed_loc,
            m.trusted_fraction() * 100.0,
            m.change_fraction() * 100.0,
        );
    };
    row(
        "paper: Apache/OpenSSL",
        &PartitioningMetrics::paper_apache(),
    );
    row("paper: OpenSSH", &PartitioningMetrics::paper_openssh());
    row("this repo: wedge-apache", &measured_apache());
    println!();
}
