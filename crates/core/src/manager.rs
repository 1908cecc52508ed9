//! The workload manager (Figure 2): compiles users' workloads, stores
//! artifacts, deploys them to worker backends through the timed pipeline
//! of Table 4, updates the gateway's placements, and records placement
//! state in the etcd control plane (§6.1.1: the framework "relies on a
//! Raft-based distributed key-value store, called etcd, to sync
//! lambda-related states … with the gateway").

use std::collections::HashMap;
use std::sync::Arc;

use lnic_mlambda::compile::{compile, CompileError, CompileOptions, Image, OptReport};
use lnic_mlambda::program::Program;
use lnic_raft::{ClientOp, ClientReply, ClientRequest, Command};
use lnic_sim::prelude::*;

use crate::cluster::Worker;
use crate::deploy::{BackendKind, DeployParams};
use crate::gateway::{SetPlacement, WorkerEndpoint};

/// Manager configuration.
#[derive(Clone, Debug)]
pub struct ManagerConfig {
    /// Deployment pipeline constants.
    pub deploy: DeployParams,
    /// Compiler options used for every deployment.
    pub compile: CompileOptions,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            deploy: DeployParams::default(),
            compile: CompileOptions::optimized(),
        }
    }
}

/// Ask the manager to deploy a program to every worker.
#[derive(Debug)]
pub struct DeployWorkload {
    /// The program (one or more lambdas).
    pub program: Arc<Program>,
    /// Who receives [`DeployDone`].
    pub reply_to: ComponentId,
    /// Opaque token echoed back.
    pub token: u64,
}

/// Deployment completion report.
#[derive(Clone, Debug)]
pub struct DeployDone {
    /// The request's token.
    pub token: u64,
    /// Whether compilation and rollout succeeded.
    pub result: Result<DeployReport, CompileError>,
}

/// Details of a successful deployment.
#[derive(Clone, Debug)]
pub struct DeployReport {
    /// Deployable artifact size (Table 4's "workload size").
    pub artifact_bytes: u64,
    /// Lowered per-core instruction words.
    pub firmware_words: usize,
    /// The compiler's per-pass report (Figure 9).
    pub opt_report: OptReport,
    /// When every worker was serving, relative to the deploy request.
    pub startup_time: SimDuration,
}

#[derive(Debug)]
struct InstallOnWorker {
    deployment: u64,
    worker: usize,
}

#[derive(Debug)]
struct DeploymentReady {
    deployment: u64,
}

struct PendingDeployment {
    firmware: Arc<Image>,
    reply_to: ComponentId,
    token: u64,
    started_at: SimTime,
    artifact_bytes: u64,
    installs_remaining: usize,
}

/// The workload manager component.
pub struct WorkloadManager {
    cfg: ManagerConfig,
    backend: BackendKind,
    gateway: ComponentId,
    workers: Vec<Worker>,
    /// Raft nodes of the control plane (empty = no etcd).
    raft_nodes: Vec<ComponentId>,
    /// Artifact registry: name -> bytes (the "global storage" of Fig 2).
    blob_store: HashMap<String, u64>,
    deployments: HashMap<u64, PendingDeployment>,
    next_deployment: u64,
    next_raft_token: u64,
    /// Outstanding etcd writes, for redirect/retry.
    raft_writes: HashMap<u64, Command>,
    raft_confirmed: u64,
}

impl WorkloadManager {
    /// Creates a manager for the given testbed wiring.
    pub fn new(
        cfg: ManagerConfig,
        backend: BackendKind,
        gateway: ComponentId,
        workers: Vec<Worker>,
        raft_nodes: Vec<ComponentId>,
    ) -> Self {
        WorkloadManager {
            cfg,
            backend,
            gateway,
            workers,
            raft_nodes,
            blob_store: HashMap::new(),
            deployments: HashMap::new(),
            next_deployment: 1,
            next_raft_token: 1,
            raft_writes: HashMap::new(),
            raft_confirmed: 0,
        }
    }

    /// Artifacts registered in the blob store.
    pub fn blob_store(&self) -> &HashMap<String, u64> {
        &self.blob_store
    }

    /// Confirmed etcd placement writes.
    pub fn raft_confirmed(&self) -> u64 {
        self.raft_confirmed
    }

    fn on_deploy(&mut self, ctx: &mut Ctx<'_>, req: DeployWorkload) {
        let firmware = match compile(&req.program, &self.cfg.compile) {
            Ok(fw) => Arc::new(fw.into_image()),
            Err(e) => {
                ctx.send(
                    req.reply_to,
                    SimDuration::ZERO,
                    DeployDone {
                        token: req.token,
                        result: Err(e),
                    },
                );
                return;
            }
        };
        let artifact_bytes = self.cfg.deploy.artifact_bytes(self.backend, &firmware);
        let names: Vec<String> = firmware
            .program
            .lambdas
            .iter()
            .map(|l| l.name.clone())
            .collect();
        self.blob_store.insert(names.join("+"), artifact_bytes);

        let id = self.next_deployment;
        self.next_deployment += 1;
        let transfer = self.cfg.deploy.transfer_time(artifact_bytes);
        let install = self.cfg.deploy.install_time(self.backend, artifact_bytes);
        for w in 0..self.workers.len() {
            ctx.send_self(
                transfer + install,
                InstallOnWorker {
                    deployment: id,
                    worker: w,
                },
            );
        }
        self.deployments.insert(
            id,
            PendingDeployment {
                firmware,
                reply_to: req.reply_to,
                token: req.token,
                started_at: ctx.now(),
                artifact_bytes,
                installs_remaining: self.workers.len(),
            },
        );
    }

    fn on_install(&mut self, ctx: &mut Ctx<'_>, deployment: u64, worker: usize) {
        let Some(pending) = self.deployments.get_mut(&deployment) else {
            return;
        };
        let firmware = Arc::clone(&pending.firmware);
        let target = self.workers[worker].component;
        let ready_in = match self.backend {
            BackendKind::Nic => {
                ctx.send(
                    target,
                    SimDuration::ZERO,
                    lnic_nic::LoadFirmware::unfenced(firmware),
                );
                // The NIC swap runs inside the NIC model.
                lnic_nic::NicParams::agilio_cx().firmware_swap_time
            }
            BackendKind::BareMetal | BackendKind::Container => {
                ctx.send(
                    target,
                    SimDuration::ZERO,
                    lnic_host::DeployProgram::unfenced(Arc::clone(&firmware.program)),
                );
                SimDuration::ZERO
            }
        };
        pending.installs_remaining -= 1;
        if pending.installs_remaining == 0 {
            ctx.send_self(ready_in, DeploymentReady { deployment });
        }
    }

    fn on_ready(&mut self, ctx: &mut Ctx<'_>, deployment: u64) {
        let Some(pending) = self.deployments.remove(&deployment) else {
            return;
        };
        // Register placements (round robin across workers) with the
        // gateway and the control plane.
        for (i, lambda) in pending.firmware.program.lambdas.iter().enumerate() {
            let worker = &self.workers[i % self.workers.len()];
            let endpoint = worker.endpoint();
            ctx.send(
                self.gateway,
                SimDuration::ZERO,
                SetPlacement {
                    workload_id: lambda.id.0,
                    endpoint,
                },
            );
            self.write_placement(ctx, lambda.id.0, endpoint);
        }
        ctx.send(
            pending.reply_to,
            SimDuration::ZERO,
            DeployDone {
                token: pending.token,
                result: Ok(DeployReport {
                    artifact_bytes: pending.artifact_bytes,
                    firmware_words: pending.firmware.instruction_words(),
                    opt_report: pending.firmware.report,
                    startup_time: ctx.now() - pending.started_at,
                }),
            },
        );
    }

    fn write_placement(&mut self, ctx: &mut Ctx<'_>, workload_id: u32, endpoint: WorkerEndpoint) {
        if self.raft_nodes.is_empty() {
            return;
        }
        let command = Command::Put {
            key: format!("placement/w{workload_id}"),
            value: format!("{}:{}", endpoint.addr, endpoint.mac).into_bytes(),
        };
        let token = self.next_raft_token;
        self.next_raft_token += 1;
        self.raft_writes.insert(token, command.clone());
        let self_id = ctx.self_id();
        ctx.send(
            self.raft_nodes[0],
            SimDuration::ZERO,
            ClientRequest {
                token,
                reply_to: self_id,
                op: ClientOp::Write(command),
            },
        );
    }

    fn on_raft_reply(&mut self, ctx: &mut Ctx<'_>, reply: ClientReply) {
        match reply.result {
            Ok(_) => {
                self.raft_writes.remove(&reply.token);
                self.raft_confirmed += 1;
            }
            Err(not_leader) => {
                // Redirect to the hinted leader, or retry the first node
                // after a beat (an election may be in progress).
                let Some(command) = self.raft_writes.get(&reply.token).cloned() else {
                    return;
                };
                let target = not_leader
                    .hint
                    .map(|id| self.raft_nodes[id.0 as usize])
                    .unwrap_or(self.raft_nodes[0]);
                let delay = if not_leader.hint.is_some() {
                    SimDuration::ZERO
                } else {
                    SimDuration::from_millis(100)
                };
                let self_id = ctx.self_id();
                ctx.send(
                    target,
                    delay,
                    ClientRequest {
                        token: reply.token,
                        reply_to: self_id,
                        op: ClientOp::Write(command),
                    },
                );
            }
        }
    }
}

impl Component for WorkloadManager {
    fn name(&self) -> &str {
        "workload-manager"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        let msg = match msg.downcast::<DeployWorkload>() {
            Ok(d) => {
                self.on_deploy(ctx, *d);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<InstallOnWorker>() {
            Ok(i) => {
                self.on_install(ctx, i.deployment, i.worker);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<DeploymentReady>() {
            Ok(r) => {
                self.on_ready(ctx, r.deployment);
                return;
            }
            Err(other) => other,
        };
        match msg.downcast::<ClientReply>() {
            Ok(r) => self.on_raft_reply(ctx, *r),
            Err(other) => panic!("manager received unknown message {other:?}"),
        }
    }
}
