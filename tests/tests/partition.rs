//! Partition tolerance: lease-based membership with epoch fencing.
//!
//! These tests pin the split-brain story end to end. A network
//! partition (or a long stall) makes a worker *look* dead; a
//! heartbeat-only controller re-places its lambdas immediately, and
//! when the worker comes back it executes its stale backlog — work the
//! rest of the cluster already re-ran, i.e. duplicate side effects.
//! With bounded leases and epoch fencing, the controller waits until
//! the worker's lease has provably expired before re-placing, the
//! worker self-fences the moment its lease lapses, and the gateway
//! discards late replies from fenced epochs — so the same fault
//! timeline yields zero stale executions. The default panicking
//! [`InvariantChecker`] stays attached to every fenced run, so the
//! fencing invariants (7–9) are enforced online, not just asserted
//! here.

use std::sync::Arc;

use lnic::failover::{FailoverConfig, FailoverController, FailoverEventKind};
use lnic::prelude::*;
use lnic_host::HostBackend;
use lnic_integration::{page_jobs, resilient_config, resilient_nic_config};
use lnic_nic::Nic;
use lnic_sim::check::InvariantChecker;
use lnic_sim::prelude::*;
use lnic_sim::trace::{TraceEvent, TraceRecord, TraceSink};
use lnic_workloads::three_web_servers;

const WORKERS: usize = 4;
const THREADS: usize = 6;
const HB: SimDuration = SimDuration::from_millis(50);

/// Collects execution and membership events so tests can reason about
/// *when* and *where* jobs started relative to fences and rejoins.
#[derive(Default)]
struct ExecLog {
    /// `(at, component index, request id)` of every `ExecStart`.
    starts: Vec<(SimTime, usize, u64)>,
    fenced_at: Option<SimTime>,
    rejoined_at: Option<SimTime>,
    snapshots_taken: u64,
    restores: Vec<(u64, u64)>,
}

impl TraceSink for ExecLog {
    fn on_record(&mut self, rec: &TraceRecord) {
        match rec.event {
            TraceEvent::ExecStart { request_id, .. } => {
                self.starts.push((rec.at, rec.src.index(), request_id));
            }
            TraceEvent::WorkerFenced { .. } => {
                self.fenced_at.get_or_insert(rec.at);
            }
            TraceEvent::WorkerRejoin { .. } => {
                self.rejoined_at.get_or_insert(rec.at);
            }
            TraceEvent::SnapshotTaken { .. } => self.snapshots_taken += 1,
            TraceEvent::SnapshotRestored { seq, reconciled } => {
                self.restores.push((seq, reconciled));
            }
            _ => {}
        }
    }
}

struct RunOutcome {
    issued: u64,
    completed: usize,
    failed: usize,
    deaths: u64,
    recoveries: u64,
    /// `ExecStart`s on the faulted worker inside the stale window
    /// (after the controller declared it dead, through the stall's
    /// backlog replay).
    stale_execs: usize,
    /// Of those, requests that were *also* executed on another worker —
    /// duplicate side effects, the split-brain signature.
    duplicate_execs: usize,
    stale_replies: u64,
    fenced_replies: u64,
    /// Work worker 0 itself refused with `RC_FENCED`.
    fenced_rejects: u64,
    worker0_epoch: u64,
}

/// Drives traffic through a worker that stalls long enough to be given
/// up on, with fencing on or off, and measures stale executions.
fn stall_run(seed: u64, fenced: bool, backend: BackendKind) -> RunOutcome {
    let config = resilient_config(backend, seed, WORKERS);

    let mut bed = build_testbed(config);
    bed.sim.add_trace_sink(Box::new(ExecLog::default()));
    let program = Arc::new(three_web_servers());
    bed.preload(&program);
    let fo = FailoverConfig {
        heartbeat_interval: HB,
        missed_beats: 3,
        ..FailoverConfig::default()
    };
    let fo = if fenced { fo.fenced() } else { fo };
    bed.enable_failover(fo);

    // Worker 0 goes dark at 500 ms for 400 ms: long enough to be
    // declared dead (and, fenced, for its lease to lapse), short enough
    // that its deferred backlog replays mid-run.
    let stall_at = SimTime::ZERO + SimDuration::from_millis(500);
    let stall_for = SimDuration::from_millis(400);
    let plan = FaultPlan::new().backend_stall(0, stall_at, stall_for);
    bed.inject_faults(&plan);

    let jobs = page_jobs(&program);
    let driver = bed.sim.add(ClosedLoopDriver::new(
        bed.gateway,
        jobs,
        THREADS,
        SimDuration::from_millis(1),
        Some(3_000),
    ));
    bed.sim.post(driver, SimDuration::ZERO, StartDriver);
    bed.sim
        .run_until(SimTime::ZERO + SimDuration::from_secs(60));
    bed.finish_tracing();

    let d = bed.sim.get::<ClosedLoopDriver>(driver).unwrap();
    assert!(d.is_done(), "all budgeted requests must terminate");
    let issued = d.issued();
    let completed = d.completed().len();
    let failed = d.completed().iter().filter(|c| c.failed).count();

    let ctl = bed
        .sim
        .get::<FailoverController>(bed.failover.unwrap())
        .unwrap();
    let death_at = ctl
        .events()
        .iter()
        .find(|e| matches!(e.kind, FailoverEventKind::WorkerDead { worker: 0 }))
        .expect("worker 0 given up on")
        .at;
    let deaths = ctl.counters().deaths;
    let recoveries = ctl.counters().recoveries;
    let worker0_epoch = ctl.worker_epoch(0);

    let gw = bed.sim.get::<Gateway>(bed.gateway).unwrap();
    let stale_replies = gw.counters().stale_replies;
    let fenced_replies = gw.counters().fenced_replies;
    let worker0_id = bed.workers[0].component;
    let fenced_rejects = match backend {
        BackendKind::Nic => {
            bed.sim
                .get::<Nic>(worker0_id)
                .unwrap()
                .counters()
                .fenced_rejects
        }
        BackendKind::BareMetal | BackendKind::Container => {
            bed.sim
                .get::<HostBackend>(worker0_id)
                .unwrap()
                .counters()
                .fenced_rejects
        }
    };

    let worker0 = worker0_id.index();
    let log = bed.sim.trace_sink::<ExecLog>().unwrap();
    // The stale window. Fenced: the fenced span itself — any execution
    // between WorkerFenced and WorkerRejoin is a protocol violation
    // (the attached checker would have panicked already). Legacy: from
    // the death declaration through the backlog replay at the stall's
    // end — the controller has re-placed the worker's lambdas, so
    // whatever the woken worker runs in there is work it no longer
    // owns. (The legacy "recovery" lands at the replay instant itself,
    // a zero-delay pong ahead of the queued executions, which is
    // exactly why a timestamp-only membership signal is not a fence.)
    let (window_start, window_end) = if fenced {
        (
            log.fenced_at.expect("fence recorded"),
            log.rejoined_at.expect("rejoin recorded"),
        )
    } else {
        (
            death_at,
            stall_at + stall_for + SimDuration::from_millis(20),
        )
    };
    let stale: Vec<(SimTime, u64)> = log
        .starts
        .iter()
        .filter(|&&(at, src, _)| src == worker0 && at > window_start && at < window_end)
        .map(|&(at, _, rid)| (at, rid))
        .collect();
    // The split-brain signature: a request the rest of the cluster
    // already executed (after the re-placement) running *again* on the
    // zombie worker.
    let duplicate_execs = stale
        .iter()
        .filter(|&&(at, rid)| {
            log.starts
                .iter()
                .any(|&(other_at, src, r)| r == rid && src != worker0 && other_at < at)
        })
        .count();

    RunOutcome {
        issued,
        completed,
        failed,
        deaths,
        recoveries,
        stale_execs: stale.len(),
        duplicate_execs,
        stale_replies,
        fenced_replies,
        fenced_rejects,
        worker0_epoch,
    }
}

/// The split-brain A/B: the same seed and the same fault timeline, with
/// and without fencing, on both the λ-NIC and the bare-metal backend.
/// Heartbeat-only failover lets the stalled worker replay its backlog
/// after the controller re-placed its lambdas (duplicate side effects);
/// lease fencing reduces that to zero.
#[test]
fn fencing_eliminates_stale_executions_after_stall() {
    for backend in [BackendKind::Nic, BackendKind::BareMetal] {
        let legacy = stall_run(42, false, backend);
        let fenced = stall_run(42, true, backend);
        let kind = backend.name();

        // Both runs conserve requests and see exactly one death+recovery.
        for (name, out) in [("legacy", &legacy), ("fenced", &fenced)] {
            assert_eq!(out.issued, THREADS as u64 * 3_000, "{kind} {name}");
            assert_eq!(out.completed as u64, out.issued, "{kind} {name}");
            assert_eq!(out.deaths, 1, "{kind} {name}");
            assert_eq!(out.recoveries, 1, "{kind} {name}");
            let bound = out.issued / 8;
            assert!(
                (out.failed as u64) <= bound,
                "{kind} {name}: failed {} of {} (bound {})",
                out.failed,
                out.issued,
                bound
            );
        }

        // Without fencing: the woken worker executes work the controller
        // already re-placed — and at least some of it also ran elsewhere.
        assert!(
            legacy.stale_execs > 0,
            "{kind}: legacy run must demonstrate stale executions"
        );
        assert!(
            legacy.duplicate_execs > 0,
            "{kind}: legacy run must demonstrate duplicate side effects"
        );

        // With fencing: zero. (The attached InvariantChecker would have
        // panicked on any ExecStart inside a fenced span; this asserts
        // the same thing from the raw event log.)
        assert_eq!(
            fenced.stale_execs, 0,
            "{kind}: fenced run leaked a stale execution"
        );
        assert_eq!(fenced.duplicate_execs, 0, "{kind}");
        // The backlog was refused with RC_FENCED instead, and the
        // gateway discarded the sub-floor replies.
        assert!(
            fenced.fenced_rejects > 0,
            "{kind}: the lapsed worker must refuse its backlog with RC_FENCED"
        );
        assert!(
            fenced.stale_replies + fenced.fenced_replies > 0,
            "{kind}: fenced run should have exercised the reject/discard path"
        );
        // The rejoin handshake bumped the fencing token past the
        // initial 1.
        assert!(
            fenced.worker0_epoch >= 2,
            "{kind}: rejoin must bump the epoch"
        );
    }
}

#[test]
fn stall_runs_are_deterministic_for_a_seed() {
    let a = stall_run(11, true, BackendKind::Nic);
    let b = stall_run(11, true, BackendKind::Nic);
    assert_eq!(a.issued, b.issued);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.failed, b.failed);
    assert_eq!(a.stale_execs, b.stale_execs);
    assert_eq!(a.stale_replies, b.stale_replies);
    assert_eq!(a.worker0_epoch, b.worker0_epoch);
}

/// A symmetric partition: worker 0 is cut off (data links *and* the
/// control channel) long enough to be fenced, then the partition heals
/// and the worker rejoins at a bumped epoch. The run must stay clean
/// under the panicking checker: no stale executions, conservation
/// intact, exactly one fence and one rejoin.
#[test]
fn partition_heal_cycle_fences_and_rejoins() {
    let config = resilient_nic_config(7, WORKERS);

    let mut bed = build_testbed(config);
    bed.sim.add_trace_sink(Box::new(ExecLog::default()));
    let program = Arc::new(three_web_servers());
    bed.preload(&program);
    bed.enable_failover(
        FailoverConfig {
            heartbeat_interval: HB,
            missed_beats: 3,
            ..FailoverConfig::default()
        }
        .fenced()
        .with_snapshots(SimDuration::from_millis(200)),
    );

    let plan = FaultPlan::new().partition(
        &[0],
        SimTime::ZERO + SimDuration::from_millis(500),
        SimDuration::from_millis(600),
    );
    bed.inject_faults(&plan);

    let jobs = page_jobs(&program);
    let driver = bed.sim.add(ClosedLoopDriver::new(
        bed.gateway,
        jobs,
        THREADS,
        SimDuration::from_millis(1),
        Some(3_000),
    ));
    bed.sim.post(driver, SimDuration::ZERO, StartDriver);
    bed.sim
        .run_until(SimTime::ZERO + SimDuration::from_secs(60));
    bed.finish_tracing();

    let d = bed.sim.get::<ClosedLoopDriver>(driver).unwrap();
    assert!(d.is_done());
    assert_eq!(d.completed().len() as u64, d.issued());

    let ctl = bed
        .sim
        .get::<FailoverController>(bed.failover.unwrap())
        .unwrap();
    assert_eq!(ctl.counters().deaths, 1);
    assert_eq!(ctl.counters().recoveries, 1);
    assert!(!ctl.is_fenced(0));
    assert!(ctl.worker_epoch(0) >= 2);

    let log = bed.sim.trace_sink::<ExecLog>().unwrap();
    let fenced_at = log.fenced_at.expect("worker 0 fenced");
    let rejoined_at = log.rejoined_at.expect("worker 0 rejoined");
    // Fencing must wait out the lease: strictly after the partition
    // started plus the lease bound would begin, and before the heal
    // completes the rejoin.
    assert!(fenced_at > SimTime::ZERO + SimDuration::from_millis(500));
    assert!(rejoined_at > fenced_at);
    // No execution on the fenced component between fence and rejoin.
    let worker0 = bed.workers[0].component.index();
    let stale = log
        .starts
        .iter()
        .filter(|&&(at, src, _)| src == worker0 && at > fenced_at && at < rejoined_at)
        .count();
    assert_eq!(stale, 0, "execution inside the fenced span");
}

/// An asymmetric cut: worker 0's frames toward the control plane are
/// lost while the reverse direction keeps working. The controller hears
/// nothing, waits out the lease, fences; the worker keeps *receiving*
/// rejoin probes but its acks are blackholed, so it must NOT resume
/// serving (a probe carries no lease time) until the cut heals and an
/// ack finally round-trips.
#[test]
fn asymmetric_cut_fences_without_split_brain() {
    let config = resilient_nic_config(13, WORKERS);

    let mut bed = build_testbed(config);
    bed.sim.add_trace_sink(Box::new(ExecLog::default()));
    let program = Arc::new(three_web_servers());
    bed.preload(&program);
    bed.enable_failover(
        FailoverConfig {
            heartbeat_interval: HB,
            missed_beats: 3,
            ..FailoverConfig::default()
        }
        .fenced(),
    );

    // Node 1 (worker 0) -> node 0 (control plane), one way only.
    let plan = FaultPlan::new().asym_link(
        1,
        0,
        SimTime::ZERO + SimDuration::from_millis(500),
        SimDuration::from_millis(500),
    );
    bed.inject_faults(&plan);

    let jobs = page_jobs(&program);
    let driver = bed.sim.add(ClosedLoopDriver::new(
        bed.gateway,
        jobs,
        THREADS,
        SimDuration::from_millis(1),
        Some(3_000),
    ));
    bed.sim.post(driver, SimDuration::ZERO, StartDriver);
    bed.sim
        .run_until(SimTime::ZERO + SimDuration::from_secs(60));
    bed.finish_tracing();

    let d = bed.sim.get::<ClosedLoopDriver>(driver).unwrap();
    assert!(d.is_done());

    let ctl = bed
        .sim
        .get::<FailoverController>(bed.failover.unwrap())
        .unwrap();
    assert_eq!(ctl.counters().deaths, 1, "silent worker must be fenced");
    assert_eq!(ctl.counters().recoveries, 1, "heal must rejoin it");
    assert!(ctl.worker_epoch(0) >= 2);

    let log = bed.sim.trace_sink::<ExecLog>().unwrap();
    let fenced_at = log.fenced_at.expect("fence recorded");
    let rejoined_at = log.rejoined_at.expect("rejoin recorded");
    let worker0 = bed.workers[0].component.index();
    let stale = log
        .starts
        .iter()
        .filter(|&&(at, src, _)| src == worker0 && at > fenced_at && at < rejoined_at)
        .count();
    assert_eq!(
        stale, 0,
        "worker served inside the fenced span despite unacked probes"
    );
}

/// Controller crash + restore: the control plane loses its in-memory
/// state mid-partition and restarts from the last stable snapshot,
/// reconciling against worker-reported epochs — without re-placing
/// anything (conservation) and without regressing any fencing token
/// (the attached checker enforces both).
#[test]
fn controller_restart_restores_from_snapshot() {
    let config = resilient_nic_config(21, WORKERS);

    let mut bed = build_testbed(config);
    bed.sim.add_trace_sink(Box::new(ExecLog::default()));
    let program = Arc::new(three_web_servers());
    bed.preload(&program);
    bed.enable_failover(
        FailoverConfig {
            heartbeat_interval: HB,
            missed_beats: 3,
            ..FailoverConfig::default()
        }
        .fenced()
        .with_snapshots(SimDuration::from_millis(200)),
    );

    // Partition worker 0; while it is fenced, crash the controller and
    // bring it back 150 ms later (shorter than the lease, so the other
    // workers' leases are renewed before they would self-fence).
    let plan = FaultPlan::new()
        .partition(
            &[0],
            SimTime::ZERO + SimDuration::from_millis(500),
            SimDuration::from_millis(700),
        )
        .controller_crash(SimTime::ZERO + SimDuration::from_millis(800))
        .controller_restart(SimTime::ZERO + SimDuration::from_millis(900));
    bed.inject_faults(&plan);

    let jobs = page_jobs(&program);
    let driver = bed.sim.add(ClosedLoopDriver::new(
        bed.gateway,
        jobs,
        THREADS,
        SimDuration::from_millis(1),
        Some(3_000),
    ));
    bed.sim.post(driver, SimDuration::ZERO, StartDriver);
    bed.sim
        .run_until(SimTime::ZERO + SimDuration::from_secs(60));
    bed.finish_tracing();

    let d = bed.sim.get::<ClosedLoopDriver>(driver).unwrap();
    assert!(d.is_done());
    assert_eq!(d.completed().len() as u64, d.issued());

    let ctl = bed
        .sim
        .get::<FailoverController>(bed.failover.unwrap())
        .unwrap();
    assert!(!ctl.is_crashed());
    assert!(ctl.snapshot_seq() > 0);
    // The fence happened before the crash; the restored controller must
    // still know it (write-through snapshot) and complete the rejoin
    // after the heal.
    assert_eq!(ctl.counters().deaths, 1);
    assert_eq!(ctl.counters().recoveries, 1);
    assert!(ctl.worker_epoch(0) >= 2);

    let log = bed.sim.trace_sink::<ExecLog>().unwrap();
    assert!(
        log.snapshots_taken >= 2,
        "cadence + write-through snapshots"
    );
    assert_eq!(log.restores.len(), 1, "exactly one restore");
    let (seq, _reconciled) = log.restores[0];
    assert!(seq > 0);
    let fenced_at = log.fenced_at.expect("fence recorded");
    let rejoined_at = log.rejoined_at.expect("rejoin recorded");
    assert!(fenced_at < SimTime::ZERO + SimDuration::from_millis(800));
    // The heal lands at exactly partition-start + duration; a probe on
    // that beat can complete the rejoin at that very instant.
    assert!(rejoined_at >= SimTime::ZERO + SimDuration::from_millis(1200));
}

/// Satellite: inter-worker RPC tables chase re-placement. A workload
/// registered as a service is re-homed when its worker dies; every
/// other worker's service table must be re-pointed at the survivor, and
/// handed back when the origin recovers.
#[test]
fn service_routes_chase_replacement() {
    let mut config = TestbedConfig::new(BackendKind::Nic)
        .seed(5)
        .workers(WORKERS);
    config.nic.firmware_swap_time = SimDuration::from_millis(100);
    let mut bed = build_testbed(config);
    let program = Arc::new(three_web_servers());
    bed.preload(&program);
    let ctl_id = bed.enable_failover(FailoverConfig {
        heartbeat_interval: HB,
        missed_beats: 3,
        ..FailoverConfig::default()
    });
    // The first web lambda (homed on worker 0) doubles as service 7.
    const SERVICE: u16 = 7;
    let wid = program.lambdas[0].id.0;
    bed.sim
        .get_mut::<FailoverController>(ctl_id)
        .unwrap()
        .track_service(wid, SERVICE);

    let plan = FaultPlan::new()
        .nic_crash(0, SimTime::ZERO + SimDuration::from_secs(1))
        .nic_restart(0, SimTime::ZERO + SimDuration::from_secs(2));
    bed.inject_faults(&plan);

    // Run until the death is declared and the orphan re-placed.
    bed.sim
        .run_until(SimTime::ZERO + SimDuration::from_millis(1500));
    let ctl = bed.sim.get::<FailoverController>(ctl_id).unwrap();
    let target = ctl
        .events()
        .iter()
        .find_map(|e| match e.kind {
            FailoverEventKind::Replaced {
                workload_id, to, ..
            } if workload_id == wid => Some(to),
            _ => None,
        })
        .expect("service workload re-placed");
    let expect = bed.workers[target].endpoint();
    for (i, w) in bed.workers.iter().enumerate().skip(1) {
        let ep = bed
            .sim
            .get::<Nic>(w.component)
            .unwrap()
            .service(SERVICE)
            .unwrap_or_else(|| panic!("worker {i} has no route for service {SERVICE}"));
        assert_eq!(ep.mac, expect.mac, "worker {i} routes to the wrong MAC");
        assert_eq!(ep.addr, expect.addr, "worker {i} routes to the wrong addr");
    }

    // After restart + recovery, the handback re-points everyone (the
    // crashed worker missed the first broadcast while down).
    bed.sim.run_until(SimTime::ZERO + SimDuration::from_secs(4));
    let home = bed.workers[0].endpoint();
    for (i, w) in bed.workers.iter().enumerate() {
        let ep = bed
            .sim
            .get::<Nic>(w.component)
            .unwrap()
            .service(SERVICE)
            .unwrap_or_else(|| panic!("worker {i} lost the route after handback"));
        assert_eq!(ep.mac, home.mac, "worker {i}: route not handed back");
    }
    bed.finish_tracing();
}

/// With fencing *off*, a collecting checker on a replayed fenced-run
/// timeline shows what invariants 7–8 exist to catch — fabricate the
/// forbidden interleaving and assert the checker flags it.
#[test]
fn checker_catches_fabricated_split_brain() {
    let mut c = InvariantChecker::collecting();
    let mk = |at: u64, src: usize, event: TraceEvent| TraceRecord {
        at: SimTime::from_nanos(at),
        seq: 0,
        src: lnic_sim::engine::ComponentId::from_index_for_tests(src),
        event,
    };
    c.on_record(&mk(
        0,
        9,
        TraceEvent::WorkerFenced {
            worker: 0,
            component: 4,
            epoch: 1,
        },
    ));
    c.on_record(&mk(
        10,
        4,
        TraceEvent::ExecStart {
            core: 0,
            lambda_id: 0,
            request_id: 77,
            tenant_id: 0,
        },
    ));
    assert!(
        c.violations()
            .iter()
            .any(|v| v.contains("stale-epoch execution")),
        "{:?}",
        c.violations()
    );
}
