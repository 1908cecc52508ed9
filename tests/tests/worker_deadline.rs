//! A request whose propagated deadline passes while it waits in a
//! worker's queue is refused at dequeue with `RC_EXPIRED` and never
//! executes — on the λ-NIC and on both host backends, which share one
//! request gate.
//!
//! The one execution slot is held by a lambda suspended on an RPC to a
//! service nobody answers, so the second request queues behind it until
//! the RPC's retry budget is spent, long after its deadline.

use std::sync::Arc;

use bytes::Bytes;
use lnic::deploy::BackendKind;
use lnic_host::{HostBackend, HostParams};
use lnic_mlambda::builder::FnBuilder;
use lnic_mlambda::compile::{compile, CompileOptions};
use lnic_mlambda::ir::{retcode, ObjId};
use lnic_mlambda::program::{Lambda, MemObject, Program, WorkloadId};
use lnic_net::packet::{LambdaHdr, Packet, RC_EXPIRED};
use lnic_net::{Ipv4Addr, MacAddr, SocketAddr};
use lnic_nic::{Nic, NicParams};
use lnic_sim::prelude::*;

const GW_MAC: MacAddr = MacAddr::new([2, 0, 0, 0, 0, 1]);
const WORKER_MAC: MacAddr = MacAddr::new([2, 0, 0, 0, 0, 2]);
const GW_ADDR: SocketAddr = SocketAddr::new(Ipv4Addr::new(10, 0, 0, 1), 7000);
const WORKER_ADDR: SocketAddr = SocketAddr::new(Ipv4Addr::new(10, 0, 0, 2), 8000);
const WORKLOAD: u32 = 2;

/// The gateway side: records every reply.
#[derive(Default)]
struct Replies(Vec<LambdaHdr>);

impl Component for Replies {
    fn handle(&mut self, _ctx: &mut Ctx<'_>, msg: AnyMessage) {
        let packet = msg.downcast::<Packet>().expect("replies are packets");
        self.0.push(packet.lambda.expect("a lambda reply"));
    }
}

/// A lambda that calls service 1 and echoes the answer.
fn rpc_program() -> Program {
    let entry = FnBuilder::new("kv_client")
        .constant(1, 0)
        .constant(2, 4)
        .constant(3, 8)
        .constant(4, 32)
        .net_rpc(1, ObjId(0), 1, 2, ObjId(0), 3, 4, 5)
        .emit_obj(ObjId(0), 3, 5)
        .ret_const(0)
        .build();
    let mut lambda = Lambda::new("kv", WorkloadId(WORKLOAD), entry);
    lambda.add_object(MemObject::with_data("buf", vec![0; 40]));
    let mut program = Program::new();
    program.add_lambda(lambda, vec![]);
    program
}

fn request(request_id: u64, deadline_ns: u64) -> Packet {
    Packet::builder()
        .eth(GW_MAC, WORKER_MAC)
        .udp(GW_ADDR, WORKER_ADDR)
        .lambda(LambdaHdr::request(WORKLOAD, request_id).with_deadline_ns(deadline_ns))
        .payload(Bytes::from_static(b"get k"))
        .build()
}

/// Runs the scenario on one single-slot worker of `backend`; returns the
/// replies, the worker's `deadline_drops`, and the trace.
fn expire_in_queue(backend: BackendKind) -> (Vec<LambdaHdr>, u64, Vec<TraceRecord>) {
    let mut sim = Simulation::new(3);
    sim.add_trace_sink(Box::new(RingSink::new(1 << 12)));
    let gw = sim.add(Replies::default());
    let program = Arc::new(rpc_program());
    // Host noise off, so the receive path cannot reorder the requests.
    let host = |params: HostParams| {
        let params = HostParams {
            jitter: 0.0,
            ..params
        };
        HostBackend::new(params, WORKER_MAC, WORKER_ADDR.ip, gw).preload(Arc::clone(&program))
    };
    let worker = match backend {
        BackendKind::Nic => {
            let params = NicParams {
                islands: 1,
                cores_per_island: 1,
                threads_per_core: 1,
                ..NicParams::agilio_cx()
            };
            let image = compile(&program, &CompileOptions::optimized())
                .expect("compiles")
                .into_image();
            sim.add(Nic::new(params, WORKER_MAC, WORKER_ADDR.ip, gw).preload(Arc::new(image)))
        }
        BackendKind::BareMetal => sim.add(host(HostParams::bare_metal(1))),
        BackendKind::Container => sim.add(host(HostParams::container(1))),
    };
    // The first request takes the only slot and waits out three 10 ms
    // (NIC) or 20 ms (host) RPC timeouts; the second queues behind it
    // with a deadline 5 ms out, well past its receive path.
    sim.post(worker, SimDuration::ZERO, request(1, 0));
    let sent = SimDuration::from_micros(1);
    let deadline = (SimTime::ZERO + sent + SimDuration::from_millis(5)).as_nanos();
    sim.post(worker, sent, request(2, deadline));
    sim.run();
    sim.finish_tracing();

    let deadline_drops = match backend {
        BackendKind::Nic => sim.get::<Nic>(worker).unwrap().counters().deadline_drops,
        _ => {
            sim.get::<HostBackend>(worker)
                .unwrap()
                .counters()
                .deadline_drops
        }
    };
    let trace = sim
        .trace_sink::<RingSink>()
        .unwrap()
        .records()
        .cloned()
        .collect();
    (
        sim.get::<Replies>(gw).unwrap().0.clone(),
        deadline_drops,
        trace,
    )
}

#[test]
fn request_expired_in_queue_is_refused_unexecuted_on_every_backend() {
    for backend in [
        BackendKind::Nic,
        BackendKind::BareMetal,
        BackendKind::Container,
    ] {
        let (replies, deadline_drops, trace) = expire_in_queue(backend);
        let code = |id: u64| {
            replies
                .iter()
                .find(|h| h.request_id == id)
                .map(|h| h.return_code)
        };
        // The slot holder fails its RPC; only then is the queue served.
        assert_eq!(code(1), Some(retcode::ERROR as u16), "{backend:?}");
        assert_eq!(code(2), Some(RC_EXPIRED), "{backend:?}");
        assert_eq!(deadline_drops, 1, "{backend:?}");
        let drops: Vec<u64> = trace
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::DeadlineDrop { request_id, .. } => Some(request_id),
                _ => None,
            })
            .collect();
        assert_eq!(drops, [2], "{backend:?}");
        let started: Vec<u64> = trace
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::ExecStart { request_id, .. } => Some(request_id),
                _ => None,
            })
            .collect();
        assert_eq!(started, [1], "{backend:?}: the expired request never runs");
    }
}
