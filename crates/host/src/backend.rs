//! The host serverless backend component: an OS + runtime model serving
//! lambda requests on server CPUs.
//!
//! One component instance models one worker node's serving stack in
//! either bare-metal or container form (§6.1.1). Requests traverse the
//! kernel receive path (plus the overlay/NAT path for containers), wait
//! for a worker thread, serialize on the interpreter lock (the paper's
//! backends are Python services), pay a context switch whenever the
//! executor changes lambdas (§6.3.2), execute on the same Match+Lambda
//! interpreter as the NIC (with host cycle costs), and leave through the
//! kernel transmit path.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use bytes::Bytes;

use lnic_mlambda::cost::{charges, exec_cycles};
use lnic_mlambda::interp::{Execution, ObjectMemory, Phase, RequestCtx};
use lnic_mlambda::ir::retcode;
use lnic_mlambda::memory::MemLevel;
use lnic_mlambda::program::{Invocation, Program};
use lnic_net::frag::Reassembler;
use lnic_net::packet::{LambdaHdr, LambdaKind, Packet, RC_FENCED};
pub use lnic_net::transport::UpdateService;
pub use lnic_net::worker::ServiceEndpoint;
use lnic_net::worker::{self, Control, Expiry, Rpc, RpcTimeout, WorkerPlane};
use lnic_net::{Ipv4Addr, MacAddr, SocketAddr};
use lnic_sim::prelude::*;
use rand::Rng;

use crate::params::HostParams;

/// Control message: deploy a program onto this backend. The deployment
/// *pipeline* (image pull, extraction, runtime start) is modeled by the
/// framework layer; once this message arrives the backend serves.
#[derive(Debug)]
pub struct DeployProgram {
    /// The lambdas to serve.
    pub program: Arc<Program>,
    /// Fencing token of the deploy (0 = fencing disabled). A worker
    /// holding a higher epoch refuses the program: it was cut for a
    /// placement decision that has since been superseded.
    pub epoch: u64,
}

impl DeployProgram {
    /// A deploy outside any fencing regime (epoch 0).
    pub fn unfenced(program: Arc<Program>) -> Self {
        DeployProgram { program, epoch: 0 }
    }
}

/// Experiment counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostCounters {
    /// Requests accepted.
    pub requests: u64,
    /// Responses sent.
    pub responses: u64,
    /// Context switches performed.
    pub context_switches: u64,
    /// Executions that faulted.
    pub faults: u64,
    /// Requests that waited for a worker.
    pub queued: u64,
    /// Requests dropped (no program deployed).
    pub dropped: u64,
    /// Crashes injected into this backend.
    pub crashes: u64,
    /// Packets blackholed because the backend was crashed or restarting.
    pub dropped_crashed: u64,
    /// Accepted requests lost mid-flight to a crash.
    pub jobs_lost: u64,
    /// Requests refused at dequeue because their propagated deadline had
    /// already expired (answered with `RC_EXPIRED`, not executed).
    pub deadline_drops: u64,
    /// Requests refused because the worker's lease lapsed or the work
    /// carried a stale fencing token (answered with `RC_FENCED`, not
    /// executed).
    pub fenced_rejects: u64,
}

struct Job {
    lambda_idx: usize,
    exec: Execution,
    reply_template: Packet,
    req_hdr: LambdaHdr,
    charged_cycles: u64,
    phase: Option<Phase>,
    rpc: Rpc,
    /// Extra fixed time to charge in the next compute segment.
    pending_overhead: SimDuration,
}

enum WorkerState {
    Idle,
    /// Holds (or will hold) the GIL; `WorkerPhase` fires at segment end.
    Executing(Job),
    /// Waiting for the GIL before (re)entering execution.
    WaitingGil(Job),
    /// Blocked on a lambda RPC (GIL released).
    AwaitingRpc(Job),
}

struct Worker {
    state: WorkerState,
    epoch: u64,
}

#[derive(Debug)]
struct PendingRequest {
    lambda_idx: usize,
    ctx: RequestCtx,
    reply_template: Packet,
    req_hdr: LambdaHdr,
}

/// A request that has traversed the receive path and is ready for a
/// worker.
#[derive(Debug)]
struct RequestReady {
    pending: PendingRequest,
}

#[derive(Debug)]
struct WorkerPhase {
    worker: usize,
    epoch: u64,
}

/// Fires when a restarting runtime finishes re-provisioning.
#[derive(Debug)]
struct RestartDone {
    restart_epoch: u64,
}

/// The host backend component.
pub struct HostBackend {
    params: HostParams,
    mac: MacAddr,
    ip: Ipv4Addr,
    uplink: ComponentId,
    /// Services, lease, partition cuts, and crash, stall and slowdown.
    plane: WorkerPlane,

    program: Option<Arc<Program>>,
    deployed_mem: Vec<ObjectMemory>,

    workers: Vec<Worker>,
    idle: Vec<usize>,
    runq: VecDeque<PendingRequest>,
    gil_holder: Option<usize>,
    gil_waiters: VecDeque<usize>,
    executor_last_lambda: Option<usize>,
    reassembler: Reassembler,

    counters: HostCounters,
    cpu_busy: SimDuration,
    service_time: Series,
    arrivals: HashMap<(usize, u64), SimTime>,
    in_flight: usize,

    restart_epoch: u64,
    last_program: Option<Arc<Program>>,
}

impl HostBackend {
    /// Creates a backend with the given identity and uplink.
    pub fn new(params: HostParams, mac: MacAddr, ip: Ipv4Addr, uplink: ComponentId) -> Self {
        let workers = (0..params.worker_threads)
            .map(|_| Worker {
                state: WorkerState::Idle,
                epoch: 0,
            })
            .collect::<Vec<_>>();
        let idle = (0..params.worker_threads).rev().collect();
        HostBackend {
            params,
            mac,
            ip,
            uplink,
            plane: WorkerPlane::default(),
            program: None,
            deployed_mem: Vec::new(),
            workers,
            idle,
            runq: VecDeque::new(),
            gil_holder: None,
            gil_waiters: VecDeque::new(),
            executor_last_lambda: None,
            reassembler: Reassembler::new(),
            counters: HostCounters::default(),
            cpu_busy: SimDuration::ZERO,
            service_time: Series::new("host_service_time"),
            arrivals: HashMap::new(),
            in_flight: 0,
            restart_epoch: 0,
            last_program: None,
        }
    }

    /// Registers a callable service endpoint.
    pub fn with_service(mut self, id: u16, endpoint: ServiceEndpoint) -> Self {
        self.plane.add_service(id, endpoint);
        self
    }

    /// The endpoint this worker currently resolves `service` to.
    pub fn service(&self, id: u16) -> Option<ServiceEndpoint> {
        self.plane.service(id)
    }

    /// Deploys a program immediately (experiment setup).
    pub fn preload(mut self, program: Arc<Program>) -> Self {
        self.install(program);
        self
    }

    /// The deployed program (`None` before a deploy and while crashed).
    pub fn program(&self) -> Option<&Arc<Program>> {
        self.program.as_ref()
    }

    /// The backend's MAC address.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// The backend's IP address.
    pub fn ip(&self) -> Ipv4Addr {
        self.ip
    }

    /// Experiment counters (the request gate counts the refusals).
    pub fn counters(&self) -> HostCounters {
        HostCounters {
            deadline_drops: self.plane.deadline_drops(),
            fenced_rejects: self.plane.fenced_rejects(),
            ..self.counters
        }
    }

    /// Whether the backend is currently crashed (blackholing traffic).
    pub fn is_crashed(&self) -> bool {
        self.plane.is_crashed()
    }

    /// Answers work the request gate refused with the typed `code`
    /// (`RC_FENCED` or `RC_EXPIRED`), so the sender resolves it promptly
    /// instead of waiting out its timer.
    fn refuse(&mut self, ctx: &mut Ctx<'_>, pending: &PendingRequest, code: u16) {
        let hdr = pending.req_hdr;
        let packet = worker::reply(
            &pending.reply_template,
            &hdr,
            code,
            self.runq.len(),
            self.plane.epoch(),
            Bytes::new(),
        );
        let tx = self.tx_latency(ctx);
        ctx.send(self.uplink, tx, packet);
        self.in_flight = self.in_flight.saturating_sub(1);
        self.arrivals.remove(&(pending.lambda_idx, hdr.request_id));
    }

    /// The request gate (see [`WorkerPlane::gate`]); a refused request
    /// is answered at once. Returns whether the request may run.
    fn pass_gate(&mut self, ctx: &mut Ctx<'_>, pending: &PendingRequest) -> bool {
        let refused = self.plane.gate(ctx, &pending.req_hdr);
        if let Some(code) = refused {
            self.refuse(ctx, pending, code);
        }
        refused.is_none()
    }

    /// Host-side service-time samples.
    pub fn service_time(&self) -> &Series {
        &self.service_time
    }

    /// Accumulated CPU busy time (incl. container engine overhead).
    pub fn cpu_busy(&self) -> SimDuration {
        self.cpu_busy
    }

    /// Average CPU utilization (%) of this backend over `window`.
    pub fn cpu_percent(&self, window: SimDuration) -> f64 {
        if window.is_zero() {
            return 0.0;
        }
        self.cpu_busy.as_secs_f64() / (window.as_secs_f64() * self.params.cores as f64) * 100.0
    }

    /// Resident memory of the backend right now (Table 3).
    pub fn memory_in_use_bytes(&self) -> u64 {
        if self.program.is_none() {
            return 0;
        }
        let objects: u64 = self
            .deployed_mem
            .iter()
            .map(|m| m.total_bytes() as u64)
            .sum();
        self.params.instance_memory_bytes
            + objects
            + self.in_flight as u64 * self.params.per_request_memory_bytes
    }

    fn install(&mut self, program: Arc<Program>) {
        self.deployed_mem = program
            .lambdas
            .iter()
            .map(ObjectMemory::for_lambda)
            .collect();
        self.last_program = Some(Arc::clone(&program));
        self.program = Some(program);
    }

    /// Fails the runtime: every in-flight and queued request is lost and
    /// all arrivals are blackholed until a [`Restart`] completes.
    fn crash(&mut self, ctx: &mut Ctx<'_>) {
        self.counters.crashes += 1;
        let busy = self
            .workers
            .iter()
            .filter(|w| !matches!(w.state, WorkerState::Idle))
            .count() as u64;
        let lost = busy + self.runq.len() as u64;
        self.counters.jobs_lost += lost;
        ctx.emit(|| TraceEvent::Fault {
            kind: "crash",
            detail: lost,
        });
        for w in &mut self.workers {
            w.epoch += 1;
            w.state = WorkerState::Idle;
        }
        self.idle = (0..self.params.worker_threads).rev().collect();
        self.runq.clear();
        self.gil_holder = None;
        self.gil_waiters.clear();
        self.executor_last_lambda = None;
        self.reassembler = Reassembler::new();
        self.arrivals.clear();
        self.in_flight = 0;
        // The process image is gone; remember what was deployed so a
        // restart can re-provision it.
        self.program = None;
        self.deployed_mem.clear();
        self.restart_epoch += 1;
    }

    /// Begins recovery: the runtime pays `restart_time` before the
    /// remembered program serves again. Per-lambda object memory is
    /// rebuilt from scratch (a restarted process has no warm state).
    fn restart(&mut self, ctx: &mut Ctx<'_>) {
        if self.last_program.is_some() {
            ctx.send_self(
                self.params.restart_time,
                RestartDone {
                    restart_epoch: self.restart_epoch,
                },
            );
        }
    }

    fn on_restart_done(&mut self, ctx: &mut Ctx<'_>, restart_epoch: u64) {
        if restart_epoch != self.restart_epoch || self.plane.is_crashed() {
            return;
        }
        if let Some(program) = self.last_program.clone() {
            self.install(program);
            ctx.emit(|| TraceEvent::ProgramInstall {});
        }
    }

    fn charge_cpu(&mut self, t: SimDuration) {
        let factor = 1.0 + self.params.container.map_or(0.0, |c| c.engine_cpu_factor);
        self.cpu_busy += t.mul_f64(factor);
    }

    /// Samples the OS-noise multiplier for one software-path cost.
    fn noise(&self, ctx: &mut Ctx<'_>) -> f64 {
        if self.params.jitter <= 0.0 {
            return 1.0;
        }
        let rng = ctx.rng();
        if rng.gen_bool(0.01) {
            self.params.hiccup_factor
        } else {
            1.0 + rng.gen_range(-self.params.jitter..=self.params.jitter)
        }
    }

    fn rx_latency(&self, ctx: &mut Ctx<'_>, extra_packets: u64) -> SimDuration {
        let mut d = self.params.rx_stack + self.params.per_packet_kernel * extra_packets;
        if let Some(c) = self.params.container {
            d += c.overlay_rx;
        }
        d.mul_f64(self.noise(ctx))
    }

    fn tx_latency(&self, ctx: &mut Ctx<'_>) -> SimDuration {
        let mut d = self.params.tx_stack;
        if let Some(c) = self.params.container {
            d += c.overlay_tx;
        }
        d.mul_f64(self.noise(ctx))
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        if self.plane.is_crashed() {
            self.counters.dropped_crashed += 1;
            return;
        }
        if packet.lambda.is_none() {
            let port = packet.udp.dst_port;
            let base = self.params.rpc_port_base;
            if let Some(w) = worker::rpc_slot(port, base, self.params.worker_threads) {
                self.on_rpc_response(ctx, w, packet.payload);
            }
            // Other plain traffic is outside the model.
            return;
        }
        if self.program.is_none() {
            self.counters.dropped += 1;
            return;
        }
        let hdr = packet.lambda.expect("checked above");
        match hdr.kind {
            LambdaKind::Request if hdr.frag_count <= 1 => {
                let rx = self.rx_latency(ctx, 0);
                self.charge_cpu(self.params.rx_stack);
                self.admit(ctx, packet, hdr, Bytes::new(), rx);
            }
            LambdaKind::Request | LambdaKind::RdmaWrite => {
                let payload = packet.payload.clone();
                self.charge_cpu(self.params.per_packet_kernel);
                if let Some(done) = self.reassembler.accept(hdr, payload) {
                    let frags = hdr.frag_count as u64;
                    let rx = self.rx_latency(ctx, frags.saturating_sub(1));
                    self.charge_cpu(self.params.rx_stack);
                    let hdr_full = LambdaHdr {
                        frag_index: 0,
                        frag_count: 1,
                        ..hdr
                    };
                    self.admit(ctx, packet, hdr_full, done.payload, rx);
                }
            }
            LambdaKind::Response | LambdaKind::RdmaComplete => {}
        }
    }

    /// Builds the pending request and schedules it past the receive path.
    fn admit(
        &mut self,
        ctx: &mut Ctx<'_>,
        packet: Packet,
        hdr: LambdaHdr,
        assembled: Bytes,
        rx_delay: SimDuration,
    ) {
        let program = self.program.as_ref().expect("deployed");
        let Ok(Invocation {
            lambda,
            ctx: req,
            reply_template,
        }) = program.dispatch_request(packet, &hdr, assembled)
        else {
            self.counters.dropped += 1;
            return;
        };
        self.counters.requests += 1;
        self.in_flight += 1;
        self.arrivals.insert((lambda, hdr.request_id), ctx.now());
        let pending = PendingRequest {
            lambda_idx: lambda,
            ctx: req,
            reply_template,
            req_hdr: hdr,
        };
        ctx.send_self(rx_delay, RequestReady { pending });
    }

    fn on_request_ready(&mut self, ctx: &mut Ctx<'_>, pending: PendingRequest) {
        // A request admitted before a crash may clear the receive path
        // after it; the process that accepted it no longer exists.
        if self.plane.is_crashed() || self.program.is_none() {
            self.counters.jobs_lost += 1;
            self.counters.dropped_crashed += 1;
            return;
        }
        if !self.pass_gate(ctx, &pending) {
            return;
        }
        if let Some(w) = self.idle.pop() {
            self.start_worker(ctx, w, pending);
        } else {
            self.counters.queued += 1;
            self.runq.push_back(pending);
        }
    }

    fn start_worker(&mut self, ctx: &mut Ctx<'_>, worker: usize, pending: PendingRequest) {
        ctx.emit(|| TraceEvent::ExecStart {
            core: worker as u32,
            lambda_id: pending.lambda_idx as u32,
            request_id: pending.req_hdr.request_id,
            tenant_id: pending.req_hdr.tenant_id,
        });
        let program = self.program.as_ref().expect("deployed").clone();
        let exec = Execution::start(
            Arc::clone(&program),
            pending.lambda_idx,
            pending.ctx,
            self.params.lambda_fuel,
        );
        let job = Job {
            lambda_idx: pending.lambda_idx,
            exec,
            reply_template: pending.reply_template,
            req_hdr: pending.req_hdr,
            charged_cycles: 0,
            phase: None,
            rpc: Rpc::default(),
            pending_overhead: self.params.dispatch_cost + self.params.runtime_per_request,
        };
        self.request_gil(ctx, worker, job, true);
    }

    /// Acquire the GIL (immediately if free or disabled) and run a
    /// compute segment; otherwise park the worker in the GIL queue. A
    /// `fresh` job first runs its execution; a resumed one has already
    /// advanced and only charges the remaining cycles.
    fn request_gil(&mut self, ctx: &mut Ctx<'_>, worker: usize, job: Job, fresh: bool) {
        if !self.params.gil || self.gil_holder.is_none() {
            if self.params.gil {
                self.gil_holder = Some(worker);
            }
            self.run_segment(ctx, worker, job, fresh);
        } else {
            self.workers[worker].state = WorkerState::WaitingGil(job);
            self.gil_waiters.push_back(worker);
        }
    }

    /// The host's placement of a lambda's objects: all in (the host
    /// spec's) EMEM level.
    fn placements(&self, lambda_idx: usize) -> Vec<MemLevel> {
        let program = self.program.as_ref().expect("deployed");
        vec![MemLevel::Emem; program.lambdas[lambda_idx].objects.len()]
    }

    /// Runs a fresh execution until it finishes or suspends, then
    /// schedules the phase transition after the segment's compute time.
    fn run_segment(&mut self, ctx: &mut Ctx<'_>, worker: usize, mut job: Job, fresh: bool) {
        if fresh {
            let mem = &mut self.deployed_mem[job.lambda_idx];
            let outcome = job.exec.run(mem);
            job.phase = Some(Phase::after(outcome, &mut self.counters.faults));
        }
        // Context switch when the executor changes lambdas (with a GIL
        // the executor is effectively global; without one the workers
        // are homogeneous, so the global tracker still approximates the
        // per-core cache pollution).
        let mut overhead = std::mem::replace(&mut job.pending_overhead, SimDuration::ZERO);
        if self.executor_last_lambda != Some(job.lambda_idx) {
            if self.executor_last_lambda.is_some() {
                overhead += self.params.context_switch;
                self.counters.context_switches += 1;
            }
            self.executor_last_lambda = Some(job.lambda_idx);
        }
        let placements = self.placements(job.lambda_idx);
        let total = exec_cycles(job.exec.stats(), &placements, &self.params.memory);
        let delta = total.saturating_sub(job.charged_cycles);
        job.charged_cycles = total;
        let scale = self.noise(ctx) * self.plane.slow_scale(ctx.now());
        let segment = (self.params.cycles_to_time(delta) + overhead).mul_f64(scale);
        self.charge_cpu(segment);
        let epoch = self.workers[worker].epoch;
        self.workers[worker].state = WorkerState::Executing(job);
        ctx.send_self(segment, WorkerPhase { worker, epoch });
    }

    fn on_worker_phase(&mut self, ctx: &mut Ctx<'_>, worker: usize, epoch: u64) {
        if self.workers[worker].epoch != epoch {
            return;
        }
        let state = std::mem::replace(&mut self.workers[worker].state, WorkerState::Idle);
        let WorkerState::Executing(mut job) = state else {
            self.workers[worker].state = state;
            return;
        };
        match job.phase.take().expect("executing job has a phase") {
            Phase::Finish { response, code } => {
                self.release_gil(ctx, worker);
                self.emit_exec_finish(ctx, worker, &job);
                self.emit_response(ctx, &job, response, code);
                self.free_worker(ctx, worker);
            }
            Phase::SendRpc { service, payload } => {
                // Socket send + release the GIL while blocked.
                self.charge_cpu(self.params.tx_stack);
                self.release_gil(ctx, worker);
                job.rpc.begin(service, payload);
                ctx.emit(|| TraceEvent::ExecSuspend {
                    core: worker as u32,
                    lambda_id: job.lambda_idx as u32,
                    request_id: job.req_hdr.request_id,
                });
                self.send_rpc(ctx, worker, &job.rpc);
                job.rpc.arm(ctx, worker, epoch, self.params.rpc_timeout);
                self.workers[worker].state = WorkerState::AwaitingRpc(job);
            }
        }
    }

    fn release_gil(&mut self, ctx: &mut Ctx<'_>, worker: usize) {
        if !self.params.gil {
            return;
        }
        if self.gil_holder == Some(worker) {
            self.gil_holder = None;
            if let Some(next) = self.gil_waiters.pop_front() {
                let state = std::mem::replace(&mut self.workers[next].state, WorkerState::Idle);
                let WorkerState::WaitingGil(job) = state else {
                    self.workers[next].state = state;
                    return;
                };
                self.gil_holder = Some(next);
                let fresh = job.charged_cycles == 0 && !job.exec.is_awaiting();
                self.run_segment(ctx, next, job, fresh);
            }
        }
    }

    /// Sends the current attempt of the worker's lambda RPC; the kernel
    /// tx path delays the packet without blocking the worker further.
    fn send_rpc(&self, ctx: &mut Ctx<'_>, worker: usize, rpc: &Rpc) {
        let (service, payload) = rpc.call();
        let src = SocketAddr::new(self.ip, self.params.rpc_port_base + worker as u16);
        if let Some(packet) = self.plane.rpc_packet(service, self.mac, src, payload) {
            let tx = self.tx_latency(ctx);
            ctx.send(self.uplink, tx, packet);
        }
    }

    fn on_rpc_response(&mut self, ctx: &mut Ctx<'_>, worker: usize, payload: Bytes) {
        let state = std::mem::replace(&mut self.workers[worker].state, WorkerState::Idle);
        let WorkerState::AwaitingRpc(mut job) = state else {
            self.workers[worker].state = state;
            return;
        };
        job.rpc.answered();
        ctx.emit(|| TraceEvent::ExecResume {
            core: worker as u32,
            lambda_id: job.lambda_idx as u32,
            request_id: job.req_hdr.request_id,
        });
        let mem = &mut self.deployed_mem[job.lambda_idx];
        let outcome = job.exec.resume(mem, &payload);
        job.phase = Some(Phase::after(outcome, &mut self.counters.faults));
        // Socket read cost.
        job.pending_overhead += self.params.rx_stack;
        self.charge_cpu(self.params.rx_stack);
        self.request_gil(ctx, worker, job, false);
    }

    fn on_rpc_timeout(&mut self, ctx: &mut Ctx<'_>, t: RpcTimeout) {
        let worker = t.slot;
        if self.workers[worker].epoch != t.epoch {
            return;
        }
        let state = std::mem::replace(&mut self.workers[worker].state, WorkerState::Idle);
        let WorkerState::AwaitingRpc(mut job) = state else {
            self.workers[worker].state = state;
            return;
        };
        match job.rpc.expire(t.seq, self.params.rpc_attempts) {
            Expiry::Stale => {}
            Expiry::GiveUp => {
                self.counters.faults += 1;
                ctx.emit(|| TraceEvent::ExecResume {
                    core: worker as u32,
                    lambda_id: job.lambda_idx as u32,
                    request_id: job.req_hdr.request_id,
                });
                self.emit_exec_finish(ctx, worker, &job);
                self.emit_response(ctx, &job, Bytes::new(), retcode::ERROR as u16);
                self.free_worker(ctx, worker);
                return;
            }
            Expiry::Resend => {
                self.send_rpc(ctx, worker, &job.rpc);
                job.rpc.arm(ctx, worker, t.epoch, self.params.rpc_timeout);
            }
        }
        self.workers[worker].state = WorkerState::AwaitingRpc(job);
    }

    fn emit_response(&mut self, ctx: &mut Ctx<'_>, job: &Job, response: Bytes, code: u16) {
        self.charge_cpu(self.params.tx_stack);
        let packet = worker::reply(
            &job.reply_template,
            &job.req_hdr,
            code,
            self.runq.len(),
            self.plane.epoch(),
            response,
        );
        let tx = self.tx_latency(ctx);
        ctx.send(self.uplink, tx, packet);
        self.counters.responses += 1;
        self.in_flight = self.in_flight.saturating_sub(1);
        if let Some(arrived) = self
            .arrivals
            .remove(&(job.lambda_idx, job.req_hdr.request_id))
        {
            self.service_time.record(ctx.now() + tx - arrived);
        }
    }

    fn free_worker(&mut self, ctx: &mut Ctx<'_>, worker: usize) {
        self.workers[worker].epoch += 1;
        self.workers[worker].state = WorkerState::Idle;
        // Skip requests fenced or expired while they waited.
        while let Some(pending) = self.runq.pop_front() {
            if self.pass_gate(ctx, &pending) {
                self.start_worker(ctx, worker, pending);
                return;
            }
        }
        self.idle.push(worker);
    }

    /// Emits the per-object memory [`charges`] at the host's all-EMEM
    /// placement and the finish record, so the online checker can
    /// recompute the charged total. Host overheads (kernel stacks, GIL
    /// waits, context switches) are charged as wall time, not cycles, so
    /// `overhead_cycles` is zero here.
    fn emit_exec_finish(&self, ctx: &mut Ctx<'_>, worker: usize, job: &Job) {
        if self.program.is_none() {
            return;
        }
        let stats = job.exec.stats();
        let core = worker as u32;
        let lambda_id = job.lambda_idx as u32;
        let request_id = job.req_hdr.request_id;
        // Host workers serve the single tenant that deployed to them.
        let owner_tenant = job.req_hdr.tenant_id;
        let placements = self.placements(job.lambda_idx);
        for c in charges(stats, &placements, &self.params.memory) {
            ctx.emit(|| TraceEvent::MemCharge {
                core,
                lambda_id,
                request_id,
                level: c.level,
                latency_cycles: c.latency_cycles,
                scalar: c.scalar,
                bulk_ops: c.bulk_ops,
                bulk_bytes: c.bulk_bytes,
                cycles: c.cycles,
                owner_tenant,
            });
        }
        ctx.emit(|| TraceEvent::ExecFinish {
            core,
            lambda_id,
            request_id,
            total_cycles: job.charged_cycles,
            overhead_cycles: 0,
            instr_cycles: stats.instrs,
        });
    }
}

impl Component for HostBackend {
    fn name(&self) -> &str {
        "host-backend"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        let msg = match self.plane.filter(ctx, msg) {
            None | Some(Control::ServiceMoved(_)) => return,
            Some(Control::Crashed) => return self.crash(ctx),
            Some(Control::Restarted) => return self.restart(ctx),
            Some(Control::Adopted {
                adoption,
                controller,
            }) => {
                if adoption.rejoined {
                    // Drop pre-partition placements: everything still
                    // queued was stamped with an older epoch. Refuse it
                    // now so senders re-resolve immediately.
                    while let Some(pending) = self.runq.pop_front() {
                        self.plane
                            .refuse_fenced(ctx, &pending.req_hdr, adoption.epoch);
                        self.refuse(ctx, &pending, RC_FENCED);
                    }
                    self.reassembler = Reassembler::new();
                }
                // The restart epoch bumps exactly once per crash.
                adoption.ack(ctx, controller, self.restart_epoch);
                return;
            }
            Some(Control::MissedUpdate) => {
                self.counters.dropped_crashed += 1;
                return;
            }
            Some(Control::Message(msg)) => msg,
        };
        let msg = match msg.downcast::<RestartDone>() {
            Ok(done) => {
                self.on_restart_done(ctx, done.restart_epoch);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<Packet>() {
            Ok(p) => {
                self.on_packet(ctx, *p);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<RequestReady>() {
            Ok(r) => {
                self.on_request_ready(ctx, r.pending);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<WorkerPhase>() {
            Ok(wp) => {
                self.on_worker_phase(ctx, wp.worker, wp.epoch);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<RpcTimeout>() {
            Ok(t) => {
                self.on_rpc_timeout(ctx, *t);
                return;
            }
            Err(other) => other,
        };
        match msg.downcast::<DeployProgram>() {
            Ok(d) => {
                if self.plane.is_crashed() {
                    // A crashed runtime cannot take a program; the
                    // controller re-deploys after restart.
                    self.counters.dropped_crashed += 1;
                    return;
                }
                if self.plane.refuse_stale_deploy(ctx, d.epoch) {
                    return;
                }
                self.install(d.program);
                ctx.emit(|| TraceEvent::ProgramInstall {});
            }
            Err(other) => panic!("host backend received unknown message {other:?}"),
        }
    }
}
