//! Engine throughput: events/sec of the serial vs the sharded parallel
//! engine on the `kv_replication` healthy cell.
//!
//! The cell is the replicated-KV healthy configuration — 3 λ-NIC
//! workers hosting a raft group, a closed-loop Zipf KV mix through the
//! gateway — the heaviest steady-state workload in the suite and the
//! one the equivalence harness pins. Arms:
//!
//! - `serial`: the classic single-heap event loop.
//! - `sharded:1/2/4/8`: the conservative-window engine (hub, switch,
//!   memcached, and one shard per worker) on 1..8 executor threads.
//!
//! Events/sec is `events_processed / wall`, measured over the drive
//! phase only (testbed construction excluded). The serial and sharded
//! universes differ slightly in event count (cross-shard zero-delay
//! control messages are floored to the lookahead), so the rate — not
//! the raw wall time — is the comparable number. Sharded arms all
//! process the *identical* schedule, so their ratio is pure executor
//! speedup. The invariant checker is detached here (its merge-side
//! scan is serial by construction and would measure the checker, not
//! the engine); the equivalence suite runs the same cell with the
//! checker on.
//!
//! Emits `results/BENCH_engine.json`, tracked PR-over-PR. Run with:
//! `cargo run --release -p lnic-bench --bin engine_throughput`
//! (`--smoke` shrinks the load and skips the 8-thread arm for CI).

use std::fmt::Write as _;
use std::time::Instant;

use lnic::prelude::*;
use lnic_raft::RaftConfig;
use lnic_sim::prelude::*;
use lnic_workloads::kv::{KvMix, REPKV_WORKLOAD_ID};

/// Raft timers matching the `kv_replication` bench cell.
fn raft_cfg() -> RaftConfig {
    RaftConfig {
        election_timeout_min: SimDuration::from_millis(20),
        election_timeout_max: SimDuration::from_millis(40),
        heartbeat_interval: SimDuration::from_millis(5),
        read_lease: Some(SimDuration::from_millis(15)),
    }
}

struct Load {
    client_threads: usize,
    requests_per_thread: u64,
    think: SimDuration,
}

struct Arm {
    label: String,
    threads: Option<usize>,
    events: u64,
    wall_s: f64,
    events_per_sec: f64,
    end_ms: f64,
}

/// Builds the healthy replicated-KV cell on `engine` and drives it to
/// completion, timing only the drive phase.
fn run_arm(label: &str, engine: EngineMode, seed: u64, load: &Load) -> Arm {
    let config = TestbedConfig::new(BackendKind::Nic)
        .seed(seed)
        .workers(3)
        .engine(engine)
        .without_invariant_checks();
    let mut config = config;
    config.gateway.rpc_timeout = SimDuration::from_millis(50);
    config.gateway.rpc_attempts = 5;
    config.gateway = config.gateway.resilient();
    let mut bed = build_testbed(config);
    bed.enable_replicated_kv(raft_cfg());
    let jobs = vec![JobSpec {
        workload_id: REPKV_WORKLOAD_ID,
        payload: PayloadSpec::RepKv(KvMix::new(8, 800, 990)),
    }];
    let driver = bed.sim.add(ClosedLoopDriver::new(
        bed.gateway,
        jobs,
        load.client_threads,
        load.think,
        Some(load.requests_per_thread),
    ));
    bed.sim
        .post(driver, SimDuration::from_millis(100), StartDriver);

    let start = Instant::now();
    // Raft timers tick forever; advance in 1 s horizons until the
    // driver drains its budget.
    let mut horizon = SimDuration::from_secs(1);
    while !bed.sim.get::<ClosedLoopDriver>(driver).unwrap().is_done() {
        bed.sim.run_until(SimTime::ZERO + horizon);
        horizon += SimDuration::from_secs(1);
        assert!(
            horizon <= SimDuration::from_secs(120),
            "drive phase exceeded 120 simulated seconds"
        );
    }
    let wall_s = start.elapsed().as_secs_f64();

    let events = bed.sim.events_processed();
    Arm {
        label: label.to_owned(),
        threads: match engine {
            EngineMode::Serial => None,
            EngineMode::Sharded { threads } => Some(threads),
        },
        events,
        wall_s,
        events_per_sec: events as f64 / wall_s,
        end_ms: bed.sim.now().as_millis_f64(),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let seed = 42 + seed_offset();
    let load = if smoke {
        Load {
            client_threads: 4,
            requests_per_thread: 100,
            think: SimDuration::from_micros(100),
        }
    } else {
        Load {
            client_threads: 16,
            requests_per_thread: 1_500,
            think: SimDuration::from_micros(100),
        }
    };
    let thread_counts: &[usize] = if smoke { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!(
        "engine throughput: kv_replication healthy cell, {} client threads x {} requests, seed {seed}{}",
        load.client_threads,
        load.requests_per_thread,
        if smoke { " (smoke)" } else { "" }
    );
    if cores < 4 {
        println!(
            "  NOTE: {cores} core(s) available — multi-thread arms are oversubscribed and \
             measure parking overhead, not parallel speedup"
        );
    }
    println!("  arm         threads   events      wall(s)   events/sec");

    let mut arms = Vec::new();
    let serial = run_arm("serial", EngineMode::Serial, seed, &load);
    for arm in std::iter::once(serial).chain(thread_counts.iter().map(|&t| {
        run_arm(
            &format!("sharded:{t}"),
            EngineMode::Sharded { threads: t },
            seed,
            &load,
        )
    })) {
        println!(
            "  {:<10}  {:>7}  {:>9}  {:>8.3}  {:>11.0}",
            arm.label,
            arm.threads.map_or("-".to_owned(), |t| t.to_string()),
            arm.events,
            arm.wall_s,
            arm.events_per_sec
        );
        arms.push(arm);
    }

    // Sharded arms replay the identical schedule: event counts must
    // agree exactly or the run measured two different workloads.
    let sharded: Vec<&Arm> = arms.iter().filter(|a| a.threads.is_some()).collect();
    for pair in sharded.windows(2) {
        assert_eq!(
            pair[0].events, pair[1].events,
            "sharded arms diverged: {} vs {}",
            pair[0].label, pair[1].label
        );
    }

    let serial_rate = arms[0].events_per_sec;
    let speedup_4t = sharded
        .iter()
        .find(|a| a.threads == Some(4))
        .map(|a| a.events_per_sec / serial_rate);
    if let Some(s) = speedup_4t {
        println!("  speedup at 4 threads vs serial: {s:.2}x");
    }

    let mut json = String::new();
    json.push_str("{\n  \"experiment\": \"engine_throughput\",\n");
    let _ = writeln!(
        json,
        "  \"seed\": {seed}, \"commit\": \"{}\", \"smoke\": {smoke},",
        lnic_bench::commit_id()
    );
    let _ = writeln!(
        json,
        "  \"cell\": \"kv_replication-healthy\", \"client_threads\": {}, \"requests_per_thread\": {},",
        load.client_threads, load.requests_per_thread
    );
    let _ = writeln!(json, "  \"available_parallelism\": {cores},");
    let _ = writeln!(
        json,
        "  \"speedup_4t_vs_serial\": {},",
        speedup_4t.map_or("null".to_owned(), |s| format!("{s:.3}"))
    );
    json.push_str("  \"arms\": [\n");
    for (i, a) in arms.iter().enumerate() {
        let comma = if i + 1 == arms.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"arm\": \"{}\", \"threads\": {}, \"events\": {}, \"wall_s\": {:.4}, \
             \"events_per_sec\": {:.0}, \"sim_end_ms\": {:.3}}}{comma}",
            a.label,
            a.threads.map_or("null".to_owned(), |t| t.to_string()),
            a.events,
            a.wall_s,
            a.events_per_sec,
            a.end_ms
        );
    }
    json.push_str("  ]\n}\n");

    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_engine.json", json).expect("write bench json");
    println!("wrote results/BENCH_engine.json");
}
