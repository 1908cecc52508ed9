//! Deployment-pipeline integration: the workload manager compiles,
//! distributes, and activates programs with Table 4's startup shape, and
//! records placements in the Raft (etcd) control plane.

use std::sync::Arc;

use lnic::manager::{DeployDone, DeployWorkload, ManagerConfig, WorkloadManager};
use lnic::prelude::*;
use lnic_raft::{ClientOp, ClientRequest, RaftNode, Role};
use lnic_sim::prelude::*;
use lnic_workloads::{image_program, SuiteConfig, IMAGE_ID};

struct DeployWatcher {
    done: Option<DeployDone>,
}

impl Component for DeployWatcher {
    fn handle(&mut self, _ctx: &mut Ctx<'_>, msg: AnyMessage) {
        if let Ok(d) = msg.downcast::<DeployDone>() {
            self.done = Some(*d);
        }
    }
}

/// Runs a full manager-driven deployment; returns (startup, testbed,
/// manager id).
fn deploy(backend: BackendKind) -> (SimDuration, Testbed, ComponentId) {
    let cfg = SuiteConfig::default();
    let mut bed = build_testbed(TestbedConfig::new(backend).seed(5).with_control_plane());
    // Let the control plane elect a leader first.
    bed.sim.run_for(SimDuration::from_secs(2));

    let manager = bed.sim.add(WorkloadManager::new(
        ManagerConfig::default(),
        backend,
        bed.gateway,
        bed.workers.clone(),
        bed.raft_nodes.clone(),
    ));
    let watcher = bed.sim.add(DeployWatcher { done: None });
    bed.sim.post(
        manager,
        SimDuration::ZERO,
        DeployWorkload {
            program: Arc::new(image_program(&cfg)),
            reply_to: watcher,
            token: 1,
        },
    );
    bed.sim.run_for(SimDuration::from_secs(120));
    let done = bed
        .sim
        .get::<DeployWatcher>(watcher)
        .unwrap()
        .done
        .clone()
        .expect("deployment completes");
    let report = done.result.expect("deployment succeeds");
    (report.startup_time, bed, manager)
}

#[test]
fn startup_times_follow_table4_ordering() {
    let (bm, _, _) = deploy(BackendKind::BareMetal);
    let (nic, _, _) = deploy(BackendKind::Nic);
    let (ct, _, _) = deploy(BackendKind::Container);
    assert!(bm < nic, "bm {bm} < nic {nic}");
    assert!(nic < ct, "nic {nic} < container {ct}");
    // λ-NIC's extra startup over bare metal is less than the container's
    // (§6.4: "2x less than the container overhead").
    let nic_extra = (nic - bm).as_secs_f64();
    let ct_extra = (ct - bm).as_secs_f64();
    assert!(nic_extra * 1.5 < ct_extra, "{nic_extra} vs {ct_extra}");
    // Rough absolute bands (Table 4: 5.0 / 19.8 / 31.7 s).
    assert!((3.0..8.0).contains(&bm.as_secs_f64()), "bm {bm}");
    assert!((15.0..25.0).contains(&nic.as_secs_f64()), "nic {nic}");
    assert!((25.0..40.0).contains(&ct.as_secs_f64()), "ct {ct}");
}

#[test]
fn deployed_workload_serves_requests_after_ready() {
    let (_, mut bed, _) = deploy(BackendKind::Nic);
    let img = lnic_workloads::image::RgbaImage::synthetic(16, 16);
    let gateway = bed.gateway;
    let driver = bed.sim.add(ClosedLoopDriver::new(
        gateway,
        vec![JobSpec {
            workload_id: IMAGE_ID.0,
            payload: PayloadSpec::Fixed(bytes::Bytes::from(img.data)),
        }],
        1,
        SimDuration::from_micros(50),
        Some(3),
    ));
    bed.sim.post(driver, SimDuration::ZERO, StartDriver);
    bed.sim.run_for(SimDuration::from_secs(5));
    let d = bed.sim.get::<ClosedLoopDriver>(driver).unwrap();
    assert_eq!(d.completed().len(), 3);
    assert!(d.completed().iter().all(|c| !c.failed));
}

#[test]
fn placements_are_committed_to_the_control_plane() {
    let (_, mut bed, manager) = deploy(BackendKind::Nic);
    bed.sim.run_for(SimDuration::from_secs(2));
    let confirmed = bed
        .sim
        .get::<WorkloadManager>(manager)
        .unwrap()
        .raft_confirmed();
    assert!(confirmed >= 1, "etcd write confirmed");

    // Read the placement back from the Raft leader.
    struct ReadClient {
        value: Option<Vec<u8>>,
    }
    impl Component for ReadClient {
        fn handle(&mut self, _ctx: &mut Ctx<'_>, msg: AnyMessage) {
            if let Ok(r) = msg.downcast::<lnic_raft::ClientReply>() {
                if let Ok(Some(v)) = r.result {
                    self.value = Some(v);
                }
            }
        }
    }
    let leader = bed
        .raft_nodes
        .iter()
        .copied()
        .find(|&n| bed.sim.get::<RaftNode>(n).unwrap().role() == Role::Leader)
        .expect("control plane has a leader");
    let client = bed.sim.add(ReadClient { value: None });
    bed.sim.post(
        leader,
        SimDuration::ZERO,
        ClientRequest {
            token: 1,
            reply_to: client,
            op: ClientOp::Read {
                key: format!("placement/w{}", IMAGE_ID.0),
            },
        },
    );
    bed.sim.run_for(SimDuration::from_millis(100));
    let value = bed
        .sim
        .get::<ReadClient>(client)
        .unwrap()
        .value
        .clone()
        .expect("placement stored in etcd");
    let text = String::from_utf8(value).unwrap();
    assert!(text.contains("8000"), "placement records the port: {text}");
}

#[test]
fn manager_reports_compile_failures() {
    use lnic_mlambda::ir::{Function, Instr};
    use lnic_mlambda::program::{Lambda, Program, WorkloadId};

    let mut bed = build_testbed(TestbedConfig::new(BackendKind::Nic).seed(6));
    let manager = bed.sim.add(WorkloadManager::new(
        ManagerConfig::default(),
        BackendKind::Nic,
        bed.gateway,
        bed.workers.clone(),
        Vec::new(),
    ));
    let watcher = bed.sim.add(DeployWatcher { done: None });
    // Invalid program: the entry function lacks a terminator.
    let mut bad = Program::new();
    bad.add_lambda(
        Lambda::new(
            "broken",
            WorkloadId(1),
            Function::new("entry", vec![Instr::Const { dst: 0, value: 0 }]),
        ),
        vec![],
    );
    bed.sim.post(
        manager,
        SimDuration::ZERO,
        DeployWorkload {
            program: Arc::new(bad),
            reply_to: watcher,
            token: 9,
        },
    );
    bed.sim.run_for(SimDuration::from_secs(1));
    let done = bed
        .sim
        .get::<DeployWatcher>(watcher)
        .unwrap()
        .done
        .clone()
        .expect("compile failure reported immediately");
    assert_eq!(done.token, 9);
    assert!(done.result.is_err(), "deployment must fail");
    // Nothing was registered or placed.
    let m = bed.sim.get::<WorkloadManager>(manager).unwrap();
    assert!(m.blob_store().is_empty());
}

#[test]
fn manager_registers_artifacts_in_blob_store() {
    let (_, bed, manager) = deploy(BackendKind::Container);
    let m = bed.sim.get::<WorkloadManager>(manager).unwrap();
    assert_eq!(m.blob_store().len(), 1);
    let (name, &size) = m.blob_store().iter().next().unwrap();
    assert!(name.contains("image_transformer"));
    assert!(size > 153 << 20, "container artifact includes the image");
}

/// The program each worker runs, checked to be one shared allocation:
/// every worker of an image executes the same `Arc<Program>`.
fn one_shared_program(bed: &Testbed) -> Arc<lnic_mlambda::program::Program> {
    let programs: Vec<_> = bed
        .workers
        .iter()
        .map(|w| {
            let program = match bed.backend {
                BackendKind::Nic => bed.sim.get::<lnic_nic::Nic>(w.component).unwrap().program(),
                BackendKind::BareMetal | BackendKind::Container => bed
                    .sim
                    .get::<lnic_host::HostBackend>(w.component)
                    .unwrap()
                    .program(),
            };
            Arc::clone(program.expect("worker has a program installed"))
        })
        .collect();
    assert!(programs.len() > 1, "sharing needs several workers");
    for (i, p) in programs.iter().enumerate() {
        assert!(
            Arc::ptr_eq(p, &programs[0]),
            "worker {i} holds its own copy"
        );
    }
    Arc::clone(&programs[0])
}

#[test]
fn preload_and_restart_keep_one_shared_program() {
    use lnic_sim::fault::{Crash, Restart};

    for backend in [BackendKind::Nic, BackendKind::BareMetal] {
        let mut bed = build_testbed(TestbedConfig::new(backend).seed(7).workers(3));
        bed.preload(&Arc::new(image_program(&SuiteConfig::default())));
        // Host backends take their program as a DeployProgram message.
        bed.sim.run_for(SimDuration::from_millis(1));
        let shared = one_shared_program(&bed);

        // A crash wipes the worker's running image; the restart
        // re-installs the image of record (through the firmware swap on
        // a NIC), which must be the same shared program.
        let worker = bed.workers[1].component;
        bed.sim.post(worker, SimDuration::ZERO, Crash);
        bed.sim.post(worker, SimDuration::from_millis(1), Restart);
        bed.sim.run_for(SimDuration::from_secs(10));
        assert!(
            Arc::ptr_eq(&one_shared_program(&bed), &shared),
            "{backend:?}: restart re-installed a copy"
        );
    }
}

#[test]
fn manager_deploys_one_shared_program() {
    for backend in [BackendKind::Nic, BackendKind::BareMetal] {
        let (_, bed, _) = deploy(backend);
        one_shared_program(&bed);
    }
}
