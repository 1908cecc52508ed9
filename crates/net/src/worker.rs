//! The worker request plane: what every worker backend does around
//! *executing* a lambda.
//!
//! The paper's bare-metal, container and λ-NIC workers differ only in
//! how they run a lambda; all three sit behind the same gateway and the
//! same weakly-consistent request/response transport (§4.2-D3, §6). This
//! module is that common part, so the NIC and host models keep only
//! their execution policy:
//!
//! - [`WorkerPlane`] holds the service table lambdas call through, the
//!   worker's lease ([`WorkerView`]), its partition cuts, and its crash,
//!   stall and slowdown state. [`WorkerPlane::filter`] handles every
//!   control message alike and hands the backend only what it must
//!   decide: its crash and restart policy, and what an adopted lease
//!   grant means for its queue.
//! - [`WorkerPlane::gate`] is the per-request gate: lease fencing, then
//!   the propagated deadline.
//! - [`reply`] stamps every reply the same way: return code, queue
//!   depth, then the epoch the work was served under.
//! - [`Rpc`] is the retry state of one lambda RPC: the call, the copies
//!   sent, and the sequence number that tells the live timeout from
//!   stale ones.

use std::collections::HashMap;

use bytes::Bytes;
use lnic_sim::fault::{
    Crash, EpochQuery, GrantLease, HealthPing, HealthPong, NetCutFrom, PartitionCut, Restart,
    Slowdown, StallFor,
};
use lnic_sim::lease::{Adoption, Grant, WorkerView};
use lnic_sim::prelude::*;

use crate::addr::{MacAddr, SocketAddr};
use crate::packet::{LambdaHdr, Packet, RC_EXPIRED, RC_FENCED};
use crate::transport::{retries_exhausted, UpdateService};

/// A remote service a lambda can call with `NetRpc`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceEndpoint {
    /// L2 address of (the NIC in front of) the service.
    pub mac: MacAddr,
    /// UDP endpoint of the service.
    pub addr: SocketAddr,
}

/// Builds the reply to the request `req` arrived in `template`: the
/// header answers `req` with `code`, advertises `queue_depth` (so the
/// gateway can route and shed against backpressure) and stamps `epoch`,
/// the epoch the work was served under (so the gateway can discard late
/// replies from fenced epochs).
pub fn reply(
    template: &Packet,
    req: &LambdaHdr,
    code: u16,
    queue_depth: usize,
    epoch: u64,
    payload: Bytes,
) -> Packet {
    let mut hdr = req.response_to(code);
    hdr.queue_depth = queue_depth.min(u16::MAX as usize) as u16;
    hdr.epoch = epoch;
    template.reply_to().lambda(hdr).payload(payload).build()
}

/// The execution slot whose lambda-RPC port is `port`, if it is one:
/// slot `i` of `slots` sends its RPCs from, and hears answers on,
/// `base + i`.
pub fn rpc_slot(port: u16, base: u16, slots: usize) -> Option<usize> {
    let slot = usize::from(port.checked_sub(base)?);
    (slot < slots).then_some(slot)
}

/// What a backend must act on after its [`WorkerPlane`] filtered a
/// message (see [`WorkerPlane::filter`]).
#[derive(Debug)]
pub enum Control {
    /// The worker just crashed and its lease lapsed: run the crash
    /// policy (what the crash loses).
    Crashed,
    /// The crashed worker just powered back on: run the restart policy.
    Restarted,
    /// A lease grant was adopted: apply the rejoin and epoch-rise policy,
    /// then ack it to `controller`.
    Adopted {
        /// What the grant changed.
        adoption: Adoption,
        /// The controller that granted it.
        controller: ComponentId,
    },
    /// A service moved; the table already follows it.
    ServiceMoved(UpdateService),
    /// A service update reached a crashed worker and was dropped.
    MissedUpdate,
    /// Any other message, for the backend.
    Message(AnyMessage),
}

/// The state every worker backend keeps around execution: the service
/// table, the lease, partition cuts, and crash, stall and slowdown.
#[derive(Debug, Default)]
pub struct WorkerPlane {
    services: HashMap<u16, ServiceEndpoint>,
    /// Membership: the lease this worker serves under. Unleased until
    /// the first grant (legacy heartbeat-free testbeds keep working);
    /// once leased, the worker self-fences when it lapses.
    lease: WorkerView,
    /// Partition windows on direct control messages.
    cut: PartitionCut,
    /// A crashed worker blackholes everything until it restarts.
    crashed: bool,
    /// The worker defers all work until this instant.
    stalled_until: SimTime,
    /// Gray failure: compute runs `slow_factor`× slower until
    /// `slow_until`, while health pings are still answered (only
    /// latency-based fail-slow detection can see this). The factor is
    /// read only inside a slowdown window.
    slow_until: SimTime,
    slow_factor: f64,
    fenced_rejects: u64,
    deadline_drops: u64,
}

impl WorkerPlane {
    /// Registers a callable service endpoint.
    pub fn add_service(&mut self, id: u16, endpoint: ServiceEndpoint) {
        self.services.insert(id, endpoint);
    }

    /// The endpoint this worker currently resolves `service` to.
    pub fn service(&self, id: u16) -> Option<ServiceEndpoint> {
        self.services.get(&id).copied()
    }

    /// The lambda-RPC packet carrying `payload` from `mac`/`src` to
    /// `service`, or `None` when the service is unknown (the call can
    /// never complete; it times out and the job fails).
    pub fn rpc_packet(
        &self,
        service: u16,
        mac: MacAddr,
        src: SocketAddr,
        payload: &Bytes,
    ) -> Option<Packet> {
        let endpoint = self.service(service)?;
        Some(
            Packet::builder()
                .eth(mac, endpoint.mac)
                .udp(src, endpoint.addr)
                .payload(payload.clone())
                .build(),
        )
    }

    /// Whether the worker is crashed.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// The epoch the worker serves under (0 before any grant).
    pub fn epoch(&self) -> u64 {
        self.lease.epoch()
    }

    /// The gray-failure multiplier on compute time at `now`.
    pub fn slow_scale(&self, now: SimTime) -> f64 {
        if now < self.slow_until {
            self.slow_factor
        } else {
            1.0
        }
    }

    /// Handles what every worker treats alike. Crash and restart flip
    /// the crash state (a crash also lapses the lease) and act even
    /// mid-stall, as do stalls, partition cuts and slowdowns. A stalled
    /// worker defers everything else to the stall's end, which replays
    /// it in arrival order. Health pings, lease grants and epoch queries
    /// are answered unless the worker is crashed or the sender is cut
    /// off, and service updates are applied unless it is crashed.
    /// Returns what the backend must still act on, if anything.
    pub fn filter(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) -> Option<Control> {
        let now = ctx.now();
        if msg.is::<Crash>() {
            if std::mem::replace(&mut self.crashed, true) {
                return None;
            }
            // A lease does not survive a crash: the restarted worker
            // must not serve until the controller renews it.
            self.lease.lapse();
            return Some(Control::Crashed);
        }
        if msg.is::<Restart>() {
            if !std::mem::replace(&mut self.crashed, false) {
                return None;
            }
            ctx.emit(|| TraceEvent::Fault {
                kind: "restart",
                detail: 0,
            });
            return Some(Control::Restarted);
        }
        let msg = match msg.downcast::<StallFor>() {
            Ok(stall) => {
                self.stalled_until = self.stalled_until.max(now + stall.0);
                return None;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<NetCutFrom>() {
            Ok(cut) => {
                self.cut.apply(now, &cut);
                return None;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<Slowdown>() {
            Ok(slow) => {
                self.slow_until = self.slow_until.max(now + slow.duration);
                self.slow_factor = slow.factor.max(1.0);
                ctx.emit(|| TraceEvent::Fault {
                    kind: "slowdown",
                    detail: (slow.factor * 1000.0) as u64,
                });
                return None;
            }
            Err(other) => other,
        };
        // A stalled worker makes no progress: defer everything (health
        // probes included — a long stall looks dead, as it should).
        // Replaying at the stall's end preserves arrival order (engine
        // FIFO ties).
        if now < self.stalled_until {
            ctx.send_boxed(ctx.self_id(), self.stalled_until - now, msg);
            return None;
        }
        let msg = match msg.downcast::<HealthPing>() {
            Ok(ping) => {
                // The management endpoint answers as long as the worker
                // has power, but a crashed worker is silent, which is
                // the failure signal.
                if !self.crashed && !self.cut.blocks(ping.reply_to, now) {
                    let from = ctx.self_id();
                    ctx.send(ping.reply_to, SimDuration::ZERO, HealthPong { from });
                }
                return None;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<GrantLease>() {
            Ok(grant) => {
                // A crashed worker is silent; a partitioned one never
                // saw the grant.
                if self.crashed || self.cut.blocks(grant.reply_to, now) {
                    return None;
                }
                let adoption = self.lease.deliver(Grant::from(*grant))?;
                return Some(Control::Adopted {
                    adoption,
                    controller: grant.reply_to,
                });
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<EpochQuery>() {
            Ok(q) => {
                if !self.crashed && !self.cut.blocks(q.reply_to, now) {
                    let report = self.lease.report(ctx.self_id());
                    ctx.send(q.reply_to, SimDuration::ZERO, report);
                }
                return None;
            }
            Err(other) => other,
        };
        match msg.downcast::<UpdateService>() {
            // Missed updates are re-broadcast when the worker's
            // workloads are handed back after recovery.
            Ok(_) if self.crashed => Some(Control::MissedUpdate),
            Ok(up) => {
                self.add_service(
                    up.service,
                    ServiceEndpoint {
                        mac: up.mac,
                        addr: up.addr,
                    },
                );
                Some(Control::ServiceMoved(*up))
            }
            Err(other) => Some(Control::Message(other)),
        }
    }

    /// The gate every request passes before it may run: refused with
    /// `RC_FENCED` when the lease lapsed or the request carries a stale
    /// fencing token, else with `RC_EXPIRED` when its propagated
    /// deadline has passed. A refusal is counted and recorded
    /// (`FencedReject` or `DeadlineDrop`), and the return code the
    /// caller must answer with is returned. A refused request spends no
    /// execution time: the sender resolves it promptly instead of
    /// waiting out its retransmission timer.
    pub fn gate(&mut self, ctx: &mut Ctx<'_>, hdr: &LambdaHdr) -> Option<u16> {
        let now = ctx.now();
        if let Some(worker_epoch) = self.lease.fence_check(hdr.epoch, now) {
            self.refuse_fenced(ctx, hdr, worker_epoch);
            return Some(RC_FENCED);
        }
        if hdr.expired_at(now.as_nanos()) {
            self.deadline_drops += 1;
            let overdue_ns = now.as_nanos().saturating_sub(hdr.deadline_ns);
            ctx.emit(|| TraceEvent::DeadlineDrop {
                request_id: hdr.request_id,
                workload_id: hdr.workload_id,
                overdue_ns,
            });
            return Some(RC_EXPIRED);
        }
        None
    }

    /// Counts and records the refusal of fenced work (`hdr`) at
    /// `worker_epoch`; the caller answers it with `RC_FENCED`.
    pub fn refuse_fenced(&mut self, ctx: &mut Ctx<'_>, hdr: &LambdaHdr, worker_epoch: u64) {
        self.fenced_rejects += 1;
        ctx.emit(|| TraceEvent::FencedReject {
            request_id: hdr.request_id,
            workload_id: hdr.workload_id,
            hdr_epoch: hdr.epoch,
            worker_epoch,
        });
    }

    /// Whether a deploy stamped `epoch` must be refused because it
    /// predates this worker's last rejoin: the placement decision behind
    /// it has been fenced. A refusal is counted and recorded.
    pub fn refuse_stale_deploy(&mut self, ctx: &mut Ctx<'_>, epoch: u64) -> bool {
        if !self.lease.is_stale(epoch) {
            return false;
        }
        // A deploy is no request: it is recorded as request 0 of
        // workload 0.
        let deploy = LambdaHdr {
            epoch,
            ..LambdaHdr::default()
        };
        self.refuse_fenced(ctx, &deploy, self.epoch());
        true
    }

    /// Work refused for a stale fencing token or a lapsed lease.
    pub fn fenced_rejects(&self) -> u64 {
        self.fenced_rejects
    }

    /// Requests refused because their propagated deadline had passed.
    pub fn deadline_drops(&self) -> u64 {
        self.deadline_drops
    }
}

/// Self-timer for one attempt of the lambda RPC of the job on `slot`.
#[derive(Debug)]
pub struct RpcTimeout {
    /// The execution slot (NPU thread or host worker).
    pub slot: usize,
    /// The slot's job epoch when the timer was armed.
    pub epoch: u64,
    /// The call's sequence number when the timer was armed.
    pub seq: u64,
}

/// What a fired [`RpcTimeout`] means (see [`Rpc::expire`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expiry {
    /// The attempt was answered or superseded: ignore the timer.
    Stale,
    /// The attempt budget is spent: fail the lambda (the weakly
    /// consistent transport reports the failure to the sender, §4.2-D3).
    GiveUp,
    /// Send the next attempt, then re-arm.
    Resend,
}

/// The retry state of a job's lambda RPCs: the outstanding call, how
/// many copies of it were sent, and a sequence number that keeps rising
/// across the job's calls, so a timer from an answered attempt can never
/// pass for the live one.
#[derive(Debug, Default)]
pub struct Rpc {
    call: Option<(u16, Bytes)>,
    attempt: u32,
    seq: u64,
}

impl Rpc {
    /// Starts a call to `service`: its first attempt.
    pub fn begin(&mut self, service: u16, payload: Bytes) {
        self.call = Some((service, payload));
        self.attempt = 1;
        self.seq += 1;
    }

    /// The outstanding call's service and payload.
    ///
    /// # Panics
    ///
    /// Panics when no call is outstanding.
    pub fn call(&self) -> (u16, &Bytes) {
        let (service, payload) = self.call.as_ref().expect("an rpc is outstanding");
        (*service, payload)
    }

    /// The answer arrived: the armed timer goes stale.
    pub fn answered(&mut self) {
        self.call = None;
        self.seq += 1;
    }

    /// A timer armed at `seq` fired; with `max_attempts` in total, says
    /// whether it is stale, spends the budget, or asks for a resend.
    pub fn expire(&mut self, seq: u64, max_attempts: u32) -> Expiry {
        if seq != self.seq {
            return Expiry::Stale;
        }
        if retries_exhausted(self.attempt, max_attempts) {
            self.call = None;
            return Expiry::GiveUp;
        }
        self.attempt += 1;
        self.seq += 1;
        Expiry::Resend
    }

    /// Arms the timer of the current attempt of the job on `slot`.
    pub fn arm(&self, ctx: &mut Ctx<'_>, slot: usize, epoch: u64, after: SimDuration) {
        let seq = self.seq;
        ctx.send_self(after, RpcTimeout { slot, epoch, seq });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Ipv4Addr;
    use lnic_sim::fault::{EpochReport, LeaseAck};

    /// An application message the plane must pass through untouched.
    #[derive(Debug)]
    struct Tag(&'static str);

    /// A worker that is nothing but its plane; it acks adopted grants
    /// and logs what reaches it.
    #[derive(Default)]
    struct Worker {
        plane: WorkerPlane,
        log: Vec<(u64, String)>,
    }

    impl Component for Worker {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
            let seen = match self.plane.filter(ctx, msg) {
                None => return,
                Some(Control::Adopted {
                    adoption,
                    controller,
                }) => {
                    adoption.ack(ctx, controller, 0);
                    "adopted".to_owned()
                }
                Some(Control::Message(m)) => m.downcast::<Tag>().expect("a tag").0.to_owned(),
                Some(other) => format!("{other:?}"),
            };
            self.log.push((ctx.now().as_nanos(), seen));
        }
    }

    /// Logs every answer a worker sends back.
    #[derive(Default)]
    struct Probe {
        got: Vec<(u64, &'static str)>,
    }

    impl Component for Probe {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
            let kind = if msg.is::<HealthPong>() {
                "pong"
            } else if msg.is::<LeaseAck>() {
                "ack"
            } else if msg.is::<EpochReport>() {
                "report"
            } else {
                panic!("unexpected answer {msg:?}")
            };
            self.got.push((ctx.now().as_nanos(), kind));
        }
    }

    fn bed(probes: usize) -> (Simulation, ComponentId, Vec<ComponentId>) {
        let mut sim = Simulation::new(1);
        let worker = sim.add(Worker::default());
        let probes = (0..probes).map(|_| sim.add(Probe::default())).collect();
        (sim, worker, probes)
    }

    fn at(ns: u64) -> SimDuration {
        SimDuration::from_nanos(ns)
    }

    fn grant(reply_to: ComponentId) -> GrantLease {
        GrantLease {
            epoch: 1,
            until_ns: 1_000_000,
            rejoin: false,
            reply_to,
        }
    }

    fn got(sim: &Simulation, probe: ComponentId) -> Vec<(u64, &'static str)> {
        sim.get::<Probe>(probe).unwrap().got.clone()
    }

    #[test]
    fn stall_defers_control_messages_and_replays_them_in_arrival_order() {
        let (mut sim, w, p) = bed(1);
        sim.post(w, at(0), StallFor(at(100)));
        sim.post(w, at(10), EpochQuery { reply_to: p[0] });
        sim.post(w, at(20), HealthPing { reply_to: p[0] });
        sim.post(w, at(30), Tag("work"));
        sim.post(w, at(40), grant(p[0]));
        sim.run();
        assert_eq!(
            got(&sim, p[0]),
            [(100, "report"), (100, "pong"), (100, "ack")]
        );
        let log = &sim.get::<Worker>(w).unwrap().log;
        assert_eq!(
            log,
            &[(100, "work".to_owned()), (100, "adopted".to_owned())]
        );
    }

    #[test]
    fn crashed_worker_answers_no_ping_grant_or_query() {
        let (mut sim, w, p) = bed(1);
        sim.post(w, at(0), Crash);
        sim.post(w, at(10), HealthPing { reply_to: p[0] });
        sim.post(w, at(20), grant(p[0]));
        sim.post(w, at(30), EpochQuery { reply_to: p[0] });
        sim.post(w, at(40), Restart);
        sim.post(w, at(50), HealthPing { reply_to: p[0] });
        sim.run();
        assert_eq!(got(&sim, p[0]), [(50, "pong")]);
        let worker = sim.get::<Worker>(w).unwrap();
        assert_eq!(
            worker.log,
            [(0, "Crashed".to_owned()), (40, "Restarted".to_owned())]
        );
        assert!(!worker.plane.is_crashed());
        assert_eq!(worker.plane.epoch(), 0, "the grant was never adopted");
    }

    #[test]
    fn cut_silences_only_the_cut_sender() {
        let (mut sim, w, p) = bed(2);
        let cut = NetCutFrom {
            peers: vec![p[0]],
            duration: at(100),
        };
        sim.post(w, at(0), cut);
        for &probe in &p {
            sim.post(w, at(10), HealthPing { reply_to: probe });
            sim.post(w, at(20), EpochQuery { reply_to: probe });
            sim.post(w, at(150), HealthPing { reply_to: probe });
        }
        sim.run();
        assert_eq!(got(&sim, p[0]), [(150, "pong")]);
        assert_eq!(
            got(&sim, p[1]),
            [(10, "pong"), (20, "report"), (150, "pong")]
        );
    }

    #[test]
    fn reply_carries_the_queue_depth_and_epoch_it_is_given() {
        let gw = SocketAddr::new(Ipv4Addr::new(10, 0, 0, 1), 7000);
        let nic = SocketAddr::new(Ipv4Addr::new(10, 0, 0, 2), 8000);
        let req = LambdaHdr::request(3, 9).with_deadline_ns(500);
        let request = Packet::builder()
            .eth(MacAddr::from_index(1), MacAddr::from_index(2))
            .udp(gw, nic)
            .lambda(req)
            .build();
        let payload = Bytes::from_static(b"ok");
        let out = reply(&request, &req, 7, 12, 42, payload.clone());
        let hdr = out.lambda.expect("a lambda reply");
        assert_eq!(
            hdr,
            LambdaHdr {
                queue_depth: 12,
                epoch: 42,
                ..req.response_to(7)
            }
        );
        assert_eq!((out.udp.src_port, out.udp.dst_port), (8000, 7000));
        assert_eq!(out.payload, payload);
        // A depth beyond the header field saturates.
        let deep = reply(&request, &req, 7, 1 << 20, 42, Bytes::new());
        assert_eq!(deep.lambda.unwrap().queue_depth, u16::MAX);
    }

    #[test]
    fn rpc_retries_until_the_budget_is_spent_and_ignores_stale_timers() {
        let mut rpc = Rpc::default();
        rpc.begin(4, Bytes::from_static(b"get"));
        let first = rpc.seq;
        assert_eq!(rpc.expire(first, 3), Expiry::Resend);
        assert_eq!(rpc.expire(first, 3), Expiry::Stale, "superseded timer");
        assert_eq!(rpc.expire(rpc.seq, 3), Expiry::Resend);
        assert_eq!(rpc.expire(rpc.seq, 3), Expiry::GiveUp);
        // An answered call's timer is stale, and the next call's
        // sequence numbers never repeat an earlier one.
        rpc.begin(4, Bytes::new());
        let armed = rpc.seq;
        rpc.answered();
        assert_eq!(rpc.expire(armed, 3), Expiry::Stale);
        assert!(armed > first);
    }

    #[test]
    fn rpc_slot_maps_the_port_range() {
        assert_eq!(rpc_slot(9000, 9000, 4), Some(0));
        assert_eq!(rpc_slot(9003, 9000, 4), Some(3));
        assert_eq!(rpc_slot(9004, 9000, 4), None);
        assert_eq!(rpc_slot(8999, 9000, 4), None);
    }
}
