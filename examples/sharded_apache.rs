//! 96 simulated HTTPS connections served through a 4-shard
//! front-end, with per-shard **and** aggregate counters printed at the
//! end — including a cross-shard session-resumption demonstration.
//!
//! Run with `cargo run --release --example sharded_apache`.

use std::time::{Duration, Instant};

use wedge::apache::{ConcurrentApache, ConcurrentApacheConfig, PageStore};
use wedge::crypto::{RsaKeyPair, WedgeRng};
use wedge::net::duplex_pair;
use wedge::sched::AcceptPolicy;
use wedge::telemetry::Telemetry;
use wedge::tls::TlsClient;

const CONNECTIONS: usize = 96;
const SHARDS: usize = 4;
const THINK_TIME: Duration = Duration::from_millis(3);

fn main() {
    let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(2026));
    let server = ConcurrentApache::new(
        keypair,
        PageStore::sample(),
        ConcurrentApacheConfig {
            shards: SHARDS,
            queue_capacity: 32,
            recycled: true,
            policy: AcceptPolicy::RoundRobin,
            supervisor: None,
        },
    )
    .expect("build sharded server");
    let telemetry = Telemetry::new();
    server.instrument(&telemetry);

    println!(
        "serving {CONNECTIONS} connections through {SHARDS} shards \
         ({THINK_TIME:?} client think time)..."
    );

    let mut clients = Vec::with_capacity(CONNECTIONS);
    let mut server_links = Vec::with_capacity(CONNECTIONS);
    let started = Instant::now();
    for i in 0..CONNECTIONS {
        let (client_link, server_link) = duplex_pair("client", "server");
        let public_key = server.public_key();
        clients.push(std::thread::spawn(move || {
            let mut client = TlsClient::new(public_key, WedgeRng::from_seed(3000 + i as u64));
            let mut conn = client.connect(&client_link).expect("handshake");
            std::thread::sleep(THINK_TIME);
            conn.send(&client_link, b"GET /index.html HTTP/1.0\r\n\r\n")
                .expect("send request");
            let response = conn.recv(&client_link).expect("response");
            assert!(response.starts_with(b"HTTP/1.0 200 OK"));
        }));
        server_links.push(server_link);
    }

    let mut served = 0usize;
    for report in server.serve_all(server_links) {
        let report = report.expect("connection served");
        assert!(report.handshake_ok);
        served += report.requests as usize;
    }
    let elapsed = started.elapsed();
    for client in clients {
        client.join().expect("client thread");
    }

    println!(
        "served {served} requests in {elapsed:?} ({:.0} connections/sec)",
        CONNECTIONS as f64 / elapsed.as_secs_f64()
    );

    // One client that handshakes on one shard and resumes on another: the
    // shared session cache makes the abbreviated handshake work anywhere.
    let mut roaming = TlsClient::new(server.public_key(), WedgeRng::from_seed(77));
    let mut shards_seen = Vec::new();
    let mut resumed_count = 0usize;
    for round in 0..2 {
        let (client_link, server_link) = duplex_pair("roaming-client", "server");
        let handle = server.serve(server_link).expect("submit");
        let conn = roaming.connect(&client_link).expect("handshake");
        drop(client_link);
        let report = handle.join().expect("serve");
        shards_seen.push(report.shard);
        resumed_count += usize::from(report.resumed);
        assert_eq!(conn.resumed, round > 0, "second round must resume");
    }
    println!(
        "\ncross-shard resumption: handshake on shard {}, resumed on shard {} \
         ({resumed_count} abbreviated handshake)",
        shards_seen[0], shards_seen[1]
    );
    assert_ne!(shards_seen[0], shards_seen[1], "round-robin must roam");
    assert_eq!(resumed_count, 1);

    println!("\nper-shard counters:");
    println!("  shard  healthy  boot-cost  sthreads  faults");
    for stats in server.shard_stats() {
        println!(
            "  {:>5}  {:>7}  {:>9.1?}  {:>8}  {:>6}",
            stats.shard,
            stats.healthy,
            stats.boot_cost,
            stats.kernel.sthreads_created,
            stats.kernel.faults
        );
    }

    let snapshot = telemetry.snapshot();
    let sched = |name: &str| snapshot.counter(&format!("sched.{name}"));
    println!("\naggregate front-end counters:");
    println!("  submitted        {}", sched("submitted"));
    println!("  completed        {}", sched("completed"));
    println!("  rejected         {}", sched("rejected"));
    println!("  re-routed        {}", sched("stolen"));
    let peak = snapshot.counter("shard.queue_depth.peak");
    println!("  peak queue depth {peak}");

    let hits = snapshot.counter("tls.session_cache.hits");
    let misses = snapshot.counter("tls.session_cache.misses");
    println!("\nshared session cache: {hits} hits / {misses} misses");

    let kernel = server.kernel_stats();
    println!("\nkernel counters (summed over {SHARDS} shard kernels):");
    println!("  sthreads created      {}", kernel.sthreads_created);
    println!("  callgate invocations  {}", kernel.callgate_invocations);
    println!("  recycled invocations  {}", kernel.recycled_invocations);
    println!(
        "  tagged reads/writes   {}/{}",
        kernel.mem_reads, kernel.mem_writes
    );
    println!("  faults                {}", kernel.faults);

    assert_eq!(served, CONNECTIONS);
    assert_eq!(sched("completed"), CONNECTIONS as u64 + 2);
    assert!(hits >= 1, "the roaming client must hit the shared cache");
}
