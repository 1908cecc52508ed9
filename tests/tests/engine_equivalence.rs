//! Determinism-equivalence harness for the sharded parallel engine.
//!
//! The sharded engine's contract is that results are a function of the
//! *shard layout*, never of the *thread count*: per-shard `SmallRng`
//! streams are derived from the master seed, cross-shard arrivals are
//! floored to the lookahead, and the merged trace stream is ordered by
//! `(time, shard, intra-shard order)` — all properties of the plan, not
//! of the executor. This suite pins that contract on the two heaviest
//! golden scenarios:
//!
//! - `kv_replication` healthy cell: a 3-replica raft group serving a
//!   Zipf KV mix, with the Wing–Gong linearizability checker (invariant
//!   rule 10) attached and panicking online.
//! - `web3-ctrl-chaos`: lease-fenced failover with snapshots under a
//!   partition + controller crash/restore/rejoin timeline.
//!
//! For each scenario the sharded engine at 2/4/8 threads must reproduce
//! the exact FNV-1a trace hash and final metrics of the 1-thread
//! sharded reference, and that hash is itself pinned in
//! `goldens/engine_sharded_hashes.txt` (`UPDATE_GOLDENS=1` re-pins).
//! On a mismatch the harness re-runs the diverging pair with JSONL
//! sinks attached and writes both streams under
//! [`lnic_integration::divergence_dir`] so CI can upload them as
//! artifacts.
//!
//! The sharded hashes are pinned separately from the serial goldens
//! (`trace_hashes.txt`): flooring zero-delay cross-shard control
//! messages to the lookahead legitimately shifts timings, so the
//! sharded universe has its own stable fingerprint.

use std::path::PathBuf;
use std::sync::Arc;

use lnic::failover::FailoverConfig;
use lnic::prelude::*;
use lnic_integration::{
    divergence_dir, goldens, page_jobs, resilient_nic_config, spawn_closed_loop,
};
use lnic_raft::RaftConfig;
use lnic_sim::prelude::*;
use lnic_sim::trace::JsonlSink;
use lnic_workloads::kv::{KvMix, REPKV_WORKLOAD_ID};
use lnic_workloads::three_web_servers;

const GOLDENS_FILE: &str = "engine_sharded_hashes.txt";
const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

/// Everything a run must reproduce exactly: the trace fingerprint plus
/// the end-of-run metrics a paper figure would be built from.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    hash: u64,
    records: u64,
    events: u64,
    end_ns: u64,
    completed: usize,
    failed: usize,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Scenario {
    RepKvHealthy,
    Web3CtrlChaos,
}

impl Scenario {
    fn name(self) -> &'static str {
        match self {
            Scenario::RepKvHealthy => "repkv-healthy-seed42",
            Scenario::Web3CtrlChaos => "web3-ctrl-chaos-seed42",
        }
    }
}

fn sharded(threads: usize) -> EngineMode {
    EngineMode::Sharded { threads }
}

/// Runs `scenario` on the given engine; when `jsonl` is set, streams
/// the full trace there for divergence artifacts.
fn run_scenario(scenario: Scenario, engine: EngineMode, jsonl: Option<PathBuf>) -> Outcome {
    match scenario {
        Scenario::RepKvHealthy => repkv_healthy(engine, jsonl),
        Scenario::Web3CtrlChaos => web3_ctrl_chaos(engine, jsonl),
    }
}

/// The `kv_replication` healthy cell: 3 λ-NIC workers, a 3-replica
/// raft-backed KV group, closed-loop Zipf mix, linearizability checker
/// attached.
fn repkv_healthy(engine: EngineMode, jsonl: Option<PathBuf>) -> Outcome {
    let config = resilient_nic_config(42, 3).engine(engine);
    let mut bed = build_testbed(config);
    bed.sim.add_trace_sink(Box::new(HashSink::new()));
    if let Some(path) = jsonl {
        bed.sim
            .add_trace_sink(Box::new(JsonlSink::create(path).expect("jsonl artifact")));
    }
    bed.enable_replicated_kv(RaftConfig::default());
    let jobs = vec![JobSpec {
        workload_id: REPKV_WORKLOAD_ID,
        payload: PayloadSpec::RepKv(KvMix::new(8, 800, 990)),
    }];
    let driver = spawn_closed_loop(
        &mut bed,
        jobs,
        3,
        SimDuration::from_micros(200),
        Some(50),
        SimDuration::from_millis(100),
    );
    bed.sim.run_until(SimTime::ZERO + SimDuration::from_secs(3));
    assert!(
        bed.sim.get::<ClosedLoopDriver>(driver).unwrap().is_done(),
        "all budgeted requests must terminate"
    );
    bed.finish_tracing();
    outcome(&mut bed, driver)
}

/// The `web3-ctrl-chaos` golden: partition worker 0, crash the fenced
/// controller mid-partition, restore from snapshot, heal, rejoin.
fn web3_ctrl_chaos(engine: EngineMode, jsonl: Option<PathBuf>) -> Outcome {
    let mut config = TestbedConfig::new(BackendKind::Nic)
        .seed(42)
        .workers(2)
        .engine(engine);
    config.gateway.rpc_timeout = SimDuration::from_millis(50);
    config.gateway.rpc_attempts = 5;
    config.gateway = config.gateway.resilient();
    config.nic.firmware_swap_time = SimDuration::from_millis(100);
    let mut bed = build_testbed(config);
    bed.sim.add_trace_sink(Box::new(HashSink::new()));
    if let Some(path) = jsonl {
        bed.sim
            .add_trace_sink(Box::new(JsonlSink::create(path).expect("jsonl artifact")));
    }
    let program = Arc::new(three_web_servers());
    bed.preload(&program);
    bed.enable_failover(
        FailoverConfig {
            heartbeat_interval: SimDuration::from_millis(10),
            missed_beats: 3,
            ..FailoverConfig::default()
        }
        .fenced()
        .with_snapshots(SimDuration::from_millis(40)),
    );
    bed.inject_faults(
        &FaultPlan::new()
            .partition(
                &[0],
                SimTime::ZERO + SimDuration::from_millis(20),
                SimDuration::from_millis(250),
            )
            .controller_crash(SimTime::ZERO + SimDuration::from_millis(90))
            .controller_restart(SimTime::ZERO + SimDuration::from_millis(130)),
    );
    let driver = spawn_closed_loop(
        &mut bed,
        page_jobs(&program),
        4,
        SimDuration::from_micros(200),
        Some(150),
        SimDuration::ZERO,
    );
    bed.sim.run_until(SimTime::ZERO + SimDuration::from_secs(2));
    assert!(
        bed.sim.get::<ClosedLoopDriver>(driver).unwrap().is_done(),
        "all budgeted requests must terminate"
    );
    bed.finish_tracing();
    outcome(&mut bed, driver)
}

fn outcome(bed: &mut Testbed, driver: ComponentId) -> Outcome {
    let hash_sink = bed.sim.trace_sink::<HashSink>().expect("hash sink");
    assert!(hash_sink.count() > 0, "trace stream must not be empty");
    let d = bed.sim.get::<ClosedLoopDriver>(driver).unwrap();
    let failed = d.completed().iter().filter(|c| c.failed).count();
    Outcome {
        hash: hash_sink.hash(),
        records: hash_sink.count(),
        events: bed.sim.events_processed(),
        end_ns: bed.sim.now().as_nanos(),
        completed: d.completed().len(),
        failed,
    }
}

/// On hash divergence, re-runs the two configurations with JSONL sinks
/// and panics with the artifact paths.
fn dump_divergence_and_panic(scenario: Scenario, threads_a: usize, threads_b: usize) -> ! {
    let dir = divergence_dir();
    std::fs::create_dir_all(&dir).expect("divergence dir");
    let a = dir.join(format!("{}-t{}.jsonl", scenario.name(), threads_a));
    let b = dir.join(format!("{}-t{}.jsonl", scenario.name(), threads_b));
    run_scenario(scenario, sharded(threads_a), Some(a.clone()));
    run_scenario(scenario, sharded(threads_b), Some(b.clone()));
    panic!(
        "`{}` diverged between {} and {} threads; diverging traces at {} and {}",
        scenario.name(),
        threads_a,
        threads_b,
        a.display(),
        b.display(),
    );
}

fn assert_thread_count_invariant(scenario: Scenario) {
    let reference = run_scenario(scenario, sharded(1), None);
    for &threads in &THREAD_COUNTS {
        let got = run_scenario(scenario, sharded(threads), None);
        if got.hash != reference.hash {
            dump_divergence_and_panic(scenario, 1, threads);
        }
        assert_eq!(
            got,
            reference,
            "`{}` final metrics diverged at {} threads despite equal hashes",
            scenario.name(),
            threads,
        );
    }
}

/// A light web-serving cell for the seed sweep: 2 λ-NIC workers, three
/// web lambdas, closed-loop driver, no chaos.
fn web3_plain_hash(seed: u64, engine: EngineMode) -> u64 {
    let config = TestbedConfig::new(BackendKind::Nic)
        .seed(seed)
        .workers(2)
        .engine(engine);
    let mut bed = build_testbed(config);
    bed.sim.add_trace_sink(Box::new(HashSink::new()));
    let program = Arc::new(three_web_servers());
    bed.preload(&program);
    let driver = spawn_closed_loop(
        &mut bed,
        page_jobs(&program),
        4,
        SimDuration::from_micros(200),
        Some(60),
        SimDuration::ZERO,
    );
    bed.sim.run();
    assert!(
        bed.sim.get::<ClosedLoopDriver>(driver).unwrap().is_done(),
        "all budgeted requests must terminate"
    );
    bed.finish_tracing();
    let sink = bed.sim.trace_sink::<HashSink>().expect("hash sink");
    assert!(sink.count() > 0, "trace stream must not be empty");
    sink.hash()
}

/// Seed sweep: for every seed, the hash is identical across thread
/// counts *and* across repeated runs at the same thread count — the
/// test that catches nondeterministic merge order and RNG-stream leaks.
#[test]
fn seed_sweep_is_deterministic_across_threads_and_repeats() {
    for seed in [1u64, 7, 42, 20260808] {
        let reference = web3_plain_hash(seed, sharded(1));
        for &threads in &THREAD_COUNTS {
            let first = web3_plain_hash(seed, sharded(threads));
            assert_eq!(
                first, reference,
                "seed {seed}: hash at {threads} threads diverged from 1-thread reference"
            );
            let second = web3_plain_hash(seed, sharded(threads));
            assert_eq!(
                second, first,
                "seed {seed}: repeated run at {threads} threads was not reproducible"
            );
        }
        // Different seeds must land elsewhere, or the sweep proves
        // nothing.
        assert_ne!(
            reference,
            web3_plain_hash(seed.wrapping_add(1), sharded(1)),
            "seed {seed}: neighbouring seed produced the same hash"
        );
    }
}

#[test]
fn repkv_healthy_is_thread_count_invariant() {
    assert_thread_count_invariant(Scenario::RepKvHealthy);
}

#[test]
fn web3_ctrl_chaos_is_thread_count_invariant() {
    assert_thread_count_invariant(Scenario::Web3CtrlChaos);
}

/// The 1-thread sharded hash of each scenario is pinned: together with
/// the thread-count-invariance tests above, this freezes the parallel
/// engine's full output at *every* thread count.
///
/// ```text
/// UPDATE_GOLDENS=1 cargo test -p lnic-integration --test engine_equivalence
/// ```
#[test]
fn sharded_trace_hashes_match_pinned_goldens() {
    // The pinned values are tied to the configured seeds.
    if seed_offset() != 0 {
        eprintln!("skipping pinned sharded-golden check under LNIC_SEED_OFFSET");
        return;
    }
    let cases = [Scenario::RepKvHealthy, Scenario::Web3CtrlChaos];
    if goldens::update_requested() {
        let pinned: Vec<(String, u64)> = cases
            .iter()
            .map(|&s| (s.name().to_owned(), run_scenario(s, sharded(1), None).hash))
            .collect();
        goldens::write(
            GOLDENS_FILE,
            "Pinned FNV-1a trace hashes of the sharded engine (1-thread\n\
             reference; the equivalence suite proves thread-count\n\
             invariance). Regenerate with UPDATE_GOLDENS=1\n\
             cargo test -p lnic-integration --test engine_equivalence",
            &pinned,
        );
        return;
    }
    let pinned = goldens::read(GOLDENS_FILE);
    for scenario in cases {
        let expect = *pinned
            .get(scenario.name())
            .unwrap_or_else(|| panic!("golden `{}` missing from {GOLDENS_FILE}", scenario.name()));
        let got = run_scenario(scenario, sharded(1), None).hash;
        assert_eq!(
            got,
            expect,
            "sharded golden `{}` drifted: got {got:#018x}, pinned {expect:#018x} \
             (if intentional, re-pin with UPDATE_GOLDENS=1)",
            scenario.name(),
        );
    }
}
