//! 100 simulated HTTPS connections served through an 8-worker pooled
//! scheduler, with every scheduler/pool/kernel counter printed at the end.
//!
//! Run with `cargo run --release --example concurrent_apache`.

use std::time::{Duration, Instant};

use wedge::apache::{ConcurrentApache, ConcurrentApacheConfig, PageStore};
use wedge::crypto::{RsaKeyPair, WedgeRng};
use wedge::net::duplex_pair;
use wedge::tls::TlsClient;

const CONNECTIONS: usize = 100;
const WORKERS: usize = 8;
const THINK_TIME: Duration = Duration::from_millis(3);

fn main() {
    let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(2026));
    let server = ConcurrentApache::new(
        keypair,
        PageStore::sample(),
        ConcurrentApacheConfig {
            shards: WORKERS,
            queue_capacity: 32,
            recycled: true,
            policy: wedge::sched::AcceptPolicy::RoundRobin,
            supervisor: None,
        },
    )
    .expect("build pooled server");
    let telemetry = wedge::telemetry::Telemetry::new();
    server.instrument(&telemetry);

    println!(
        "serving {CONNECTIONS} connections through {WORKERS} pooled instances \
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
    let mut resumed = 0usize;
    for report in server.serve_all(server_links) {
        let report = report.expect("connection served");
        assert!(report.handshake_ok);
        served += report.requests as usize;
        resumed += usize::from(report.resumed);
    }
    let elapsed = started.elapsed();
    for client in clients {
        client.join().expect("client thread");
    }

    println!(
        "served {served} requests in {elapsed:?} \
         ({:.0} connections/sec, {resumed} resumed)",
        CONNECTIONS as f64 / elapsed.as_secs_f64()
    );

    let snapshot = telemetry.snapshot();
    println!("\nscheduler counters:");
    for name in ["submitted", "completed", "rejected", "stolen"] {
        println!(
            "  {name:<16} {}",
            snapshot.counter(&format!("sched.{name}"))
        );
    }
    let peak = snapshot.counter("shard.queue_depth.peak");
    println!("  peak queue depth {peak}");

    let kernel = server.kernel_stats();
    println!("\nkernel counters (summed over {WORKERS} instances):");
    println!("  sthreads created      {}", kernel.sthreads_created);
    println!("  callgate invocations  {}", kernel.callgate_invocations);
    println!("  recycled invocations  {}", kernel.recycled_invocations);
    println!(
        "  tagged reads/writes   {}/{}",
        kernel.mem_reads, kernel.mem_writes
    );
    println!("  faults                {}", kernel.faults);

    assert_eq!(served, CONNECTIONS);
    assert_eq!(snapshot.counter("sched.completed"), CONNECTIONS as u64);
}
