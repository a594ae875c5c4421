//! The unified serving stack end to end: a network-facing listener
//! feeding a supervised, sharded POP3 front-end — with a shard killed and
//! auto-restarted mid-traffic.
//!
//! 60 clients connect through the `Listener` (each with its own source
//! address, so session-affinity placement needs no protocol cooperation),
//! shard 1 is killed once traffic is flowing, the supervisor respawns it
//! (fresh kernel, old ring index), and every connection still serves —
//! nothing is silently dropped.
//!
//! Run with `cargo run --release --example listener_supervisor`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use wedge::net::{Duplex, Listener, RecvTimeout, SourceAddr};
use wedge::pop3::{MailDb, ShardedPop3, ShardedPop3Config};
use wedge::sched::{AcceptPolicy, SupervisorConfig};

const CONNECTIONS: usize = 60;
const SHARDS: usize = 4;
const KILLED: usize = 1;
const THINK_TIME: Duration = Duration::from_millis(3);

fn send_cmd(client: &Duplex, cmd: &str) -> Vec<u8> {
    client.send(cmd.as_bytes()).expect("send");
    client
        .recv(RecvTimeout::After(Duration::from_secs(10)))
        .expect("reply")
}

fn run_session(client: &Duplex) {
    let greeting = client
        .recv(RecvTimeout::After(Duration::from_secs(10)))
        .expect("greeting");
    assert!(greeting.starts_with(b"+OK"));
    assert!(send_cmd(client, "USER alice").starts_with(b"+OK"));
    assert!(send_cmd(client, "PASS wonderland").starts_with(b"+OK"));
    std::thread::sleep(THINK_TIME);
    assert!(send_cmd(client, "STAT").starts_with(b"+OK"));
    assert!(send_cmd(client, "QUIT").starts_with(b"+OK"));
}

fn main() {
    let server = Arc::new(
        ShardedPop3::new(
            &MailDb::sample(),
            ShardedPop3Config {
                shards: SHARDS,
                queue_capacity: CONNECTIONS,
                policy: AcceptPolicy::SessionAffinity,
                supervisor: Some(SupervisorConfig::default()),
                ..ShardedPop3Config::default()
            },
        )
        .expect("build sharded pop3"),
    );
    let listener = Listener::bind("pop3", CONNECTIONS);
    // One registry observes the whole stack: listener accept counters,
    // shard placement/queue depth, serve latency, supervisor restarts.
    let telemetry = wedge::telemetry::Telemetry::new();
    server.instrument(&telemetry);
    listener.instrument(&telemetry);
    println!(
        "serving {CONNECTIONS} POP3 connections through a listener into \
         {SHARDS} supervised shards (killing shard {KILLED} mid-traffic)..."
    );

    let serve = {
        let server = server.clone();
        let listener = listener.clone();
        std::thread::spawn(move || {
            let mut outcomes = Vec::new();
            server.serve_listener_with(&listener, 8, |_arrival, outcome| outcomes.push(outcome));
            outcomes
        })
    };

    let started = Instant::now();
    let mut clients = Vec::with_capacity(CONNECTIONS);
    for n in 0..CONNECTIONS {
        let source = SourceAddr::new([172, 16, 0, n as u8], 40_000 + n as u16);
        let link = listener.connect(source).expect("connect");
        clients.push(std::thread::spawn(move || run_session(&link)));
        if n == CONNECTIONS / 3 {
            let report = server.kill_shard(KILLED);
            println!(
                "killed shard {KILLED} mid-traffic: {} queued links re-routed, {} failed",
                report.rerouted, report.failed
            );
        }
    }
    assert!(
        server.await_healthy(KILLED, Duration::from_secs(30)),
        "supervisor must revive shard {KILLED}"
    );
    // A homing wave: hosts whose source-affinity key hashes to the
    // revived shard, proving it rejoined the ring at its old index.
    let homing_hosts = (0..u16::MAX as usize)
        .map(|n| SourceAddr::new([192, 168, (n >> 8) as u8, (n & 0xFF) as u8], 45_000))
        .filter(|s| wedge::sched::shard_for_key(s.affinity_key(), SHARDS) == KILLED)
        .take(5);
    for source in homing_hosts {
        let link = listener.connect(source).expect("connect");
        clients.push(std::thread::spawn(move || run_session(&link)));
    }
    for client in clients {
        client.join().expect("client session");
    }
    listener.close();
    let outcomes = serve.join().expect("accept loop");
    let elapsed = started.elapsed();

    let mut per_shard = [0u64; SHARDS];
    for outcome in &outcomes {
        let report = outcome.as_ref().expect("connection served");
        assert!(report.stats.logged_in, "every session logs in");
        per_shard[report.shard] += 1;
    }
    assert_eq!(outcomes.len(), CONNECTIONS + 5);
    assert!(
        per_shard[KILLED] >= 5,
        "the revived shard must serve the homing wave"
    );

    let total = outcomes.len();
    println!(
        "\nserved {total} connections in {elapsed:?} \
         ({:.0} connections/sec aggregate)",
        total as f64 / elapsed.as_secs_f64()
    );

    // The whole stack in one unified snapshot — no per-struct dumps.
    let snapshot = telemetry.snapshot();
    println!("\ntelemetry snapshot:\n{}", snapshot.to_text());

    assert_eq!(snapshot.counter("listener.accept"), total as u64);
    assert_eq!(
        snapshot.counter("sched.submitted"),
        snapshot.counter("sched.completed") + snapshot.counter("sched.rejected")
    );
    assert!(
        snapshot.counter("supervisor.restarts") >= 1,
        "the kill must have been supervised"
    );
    let serve = snapshot.histogram("shard.serve").expect("serve latency");
    assert_eq!(serve.count, total as u64);
    println!("every connection served through the crash — nothing dropped.");
}
