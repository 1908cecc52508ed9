//! Criterion micro-benchmarks for the substrate hot paths: the
//! discrete-event engine, packet codecs, fragmentation/reordering
//! (footnote 3), the Match+Lambda interpreter and compiler, the WFQ,
//! the memcached protocol, and Raft leader election.

use std::sync::Arc;

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

use lnic_mlambda::compile::{compile, CompileOptions};
use lnic_mlambda::interp::{run_to_completion, ObjectMemory, RequestCtx};
use lnic_mlambda::program::DispatchCtx;
use lnic_net::addr::{Ipv4Addr, MacAddr, SocketAddr};
use lnic_net::frag::{fragment, Reassembler};
use lnic_net::packet::{LambdaHdr, LambdaKind, Packet};
use lnic_sim::prelude::*;
use lnic_workloads::image::RgbaImage;
use lnic_workloads::{benchmark_program, tenant_fleet_program, web_program, SuiteConfig};

fn bench_event_queue(c: &mut Criterion) {
    #[derive(Debug)]
    struct Tick(u32);
    struct Counter {
        n: u64,
    }
    impl Component for Counter {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
            let t = msg.downcast::<Tick>().unwrap();
            self.n += 1;
            if t.0 > 0 {
                ctx.send_self(SimDuration::from_nanos(10), Tick(t.0 - 1));
            }
        }
    }
    c.bench_function("sim/10k_chained_events", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(1);
            let id = sim.add(Counter { n: 0 });
            sim.post(id, SimDuration::ZERO, Tick(10_000));
            sim.run();
            black_box(sim.events_processed())
        })
    });
}

fn bench_packet_codec(c: &mut Criterion) {
    let packet = Packet::builder()
        .eth(MacAddr::from_index(1), MacAddr::from_index(2))
        .udp(
            SocketAddr::new(Ipv4Addr::node(1), 7000),
            SocketAddr::new(Ipv4Addr::node(2), 8000),
        )
        .lambda(LambdaHdr::request(3, 99))
        .payload(Bytes::from(vec![7u8; 1400]))
        .build();
    c.bench_function("net/encode_1400B", |b| {
        b.iter(|| black_box(packet.encode()))
    });
    let wire = packet.encode();
    c.bench_function("net/decode_1400B", |b| {
        b.iter(|| black_box(Packet::decode(&wire).unwrap()))
    });
}

fn bench_reorder(c: &mut Criterion) {
    // Footnote 3: reordering four 100 B packets.
    c.bench_function("net/reorder_4x100B", |b| {
        let frags = fragment(Bytes::from(vec![7u8; 400]), 100);
        b.iter(|| {
            let mut r = Reassembler::new();
            let mut out = None;
            for (i, f) in frags.iter().enumerate().rev() {
                let hdr = LambdaHdr {
                    workload_id: 1,
                    request_id: 1,
                    frag_index: i as u16,
                    frag_count: 4,
                    kind: LambdaKind::RdmaWrite,
                    return_code: 0,
                    ..Default::default()
                };
                out = r.accept(hdr, f.clone());
            }
            black_box(out.unwrap().reorder_instrs)
        })
    });
    c.bench_function("net/reassemble_64KiB", |b| {
        let frags = fragment(Bytes::from(vec![7u8; 64 * 1024]), 1400);
        let n = frags.len() as u16;
        b.iter(|| {
            let mut r = Reassembler::new();
            let mut out = None;
            for (i, f) in frags.iter().enumerate() {
                let hdr = LambdaHdr {
                    workload_id: 1,
                    request_id: 1,
                    frag_index: i as u16,
                    frag_count: n,
                    kind: LambdaKind::RdmaWrite,
                    return_code: 0,
                    ..Default::default()
                };
                out = r.accept(hdr, f.clone());
            }
            black_box(out.unwrap().payload.len())
        })
    });
}

fn bench_interpreter(c: &mut Criterion) {
    let cfg = SuiteConfig::default();
    let web = Arc::new(web_program(&cfg));
    c.bench_function("mlambda/web_server_exec", |b| {
        let mut mem = ObjectMemory::for_lambda(&web.lambdas[0]);
        b.iter(|| {
            let ctx = RequestCtx {
                payload: Bytes::copy_from_slice(&3u16.to_be_bytes()),
                ..Default::default()
            };
            black_box(
                run_to_completion(&web, 0, ctx, &mut mem, 10_000_000, |_, _| Bytes::new())
                    .unwrap()
                    .stats
                    .instrs,
            )
        })
    });

    let image = Arc::new(lnic_workloads::image_program(&cfg));
    let rgba = Bytes::from(RgbaImage::synthetic(32, 32).data);
    c.bench_function("mlambda/image_32x32_exec", |b| {
        let mut mem = ObjectMemory::for_lambda(&image.lambdas[0]);
        b.iter(|| {
            let ctx = RequestCtx {
                payload: rgba.clone(),
                ..Default::default()
            };
            black_box(
                run_to_completion(&image, 0, ctx, &mut mem, 100_000_000, |_, _| Bytes::new())
                    .unwrap()
                    .response
                    .len(),
            )
        })
    });
}

fn bench_compiler(c: &mut Criterion) {
    let program = benchmark_program(&SuiteConfig::default());
    c.bench_function("mlambda/compile_naive", |b| {
        b.iter(|| {
            black_box(
                compile(&program, &CompileOptions::naive())
                    .unwrap()
                    .binary
                    .len(),
            )
        })
    });
    c.bench_function("mlambda/compile_optimized", |b| {
        b.iter(|| {
            black_box(
                compile(&program, &CompileOptions::optimized())
                    .unwrap()
                    .binary
                    .len(),
            )
        })
    });
    c.bench_function("workloads/benchmark_program", |b| {
        b.iter(|| black_box(benchmark_program(&SuiteConfig::default()).lambdas.len()))
    });
    // The wide multi-tenant catalog (~60k words): its pages fault in
    // from external memory, so it compiles against an unbounded store.
    let fleet = tenant_fleet_program(100, 600);
    let unbounded = CompileOptions {
        instruction_store_words: 1 << 20,
        ..CompileOptions::optimized()
    };
    c.bench_function("mlambda/compile_tenant_fleet_100x600", |b| {
        b.iter(|| black_box(compile(&fleet, &unbounded).unwrap().binary.len()))
    });
    let fw = compile(&program, &CompileOptions::optimized()).unwrap();
    c.bench_function("mlambda/match_dispatch", |b| {
        let ctx = DispatchCtx {
            workload_id: 4,
            has_lambda_hdr: true,
            ..Default::default()
        };
        b.iter(|| black_box(fw.program.dispatch(&ctx)))
    });
}

fn bench_wfq(c: &mut Criterion) {
    use lnic_nic::WeightedFairQueue;
    c.bench_function("nic/wfq_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = WeightedFairQueue::new();
            q.set_weight(0, 2.0);
            q.set_weight(1, 1.0);
            q.set_weight(2, 4.0);
            for i in 0..1_000 {
                q.push(i % 3, i);
            }
            let mut sum = 0usize;
            while let Some((l, _)) = q.pop() {
                sum += l;
            }
            black_box(sum)
        })
    });
}

fn bench_kv_protocol(c: &mut Criterion) {
    use lnic_kv::protocol::{Request, Response};
    use lnic_kv::server::{KvServer, KvServerParams};
    let set = Request::Set {
        key: "user:12345".into(),
        flags: 0,
        value: Bytes::from(vec![9u8; 512]),
    };
    let wire = set.encode();
    c.bench_function("kv/parse_set_512B", |b| {
        b.iter(|| black_box(Request::decode(&wire).unwrap()))
    });
    let value = Response::Value {
        key: "user:12345".into(),
        flags: 0,
        value: Bytes::from(vec![9u8; 512]),
    }
    .encode();
    c.bench_function("kv/parse_value_512B", |b| {
        b.iter(|| black_box(Response::decode(&value).unwrap()))
    });
    // The testbeds' store pre-population; the server never replies here,
    // so its uplink is a placeholder id.
    let uplink = ComponentId::from_index_for_tests(0);
    c.bench_function("kv/populate_1000", |b| {
        b.iter(|| {
            let mut kv = KvServer::new(KvServerParams::default(), uplink);
            for id in 0..1_000 {
                kv.insert(
                    format!("user:{id}"),
                    0,
                    Bytes::from(format!("profile-record-{id:08}")),
                );
            }
            black_box(kv.stored_bytes())
        })
    });
}

fn bench_raft_election(c: &mut Criterion) {
    use lnic_raft::{NodeId, RaftConfig, RaftNet, RaftNode, Role, StartNode};
    c.bench_function("raft/3node_election", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(9);
            let net = sim.add(RaftNet::new(
                Vec::new(),
                SimDuration::from_micros(50),
                SimDuration::from_micros(200),
                0.0,
            ));
            let nodes: Vec<ComponentId> = (0..3)
                .map(|i| sim.add(RaftNode::new(NodeId(i), 3, net, RaftConfig::default())))
                .collect();
            *sim.get_mut::<RaftNet>(net).unwrap() = RaftNet::new(
                nodes.clone(),
                SimDuration::from_micros(50),
                SimDuration::from_micros(200),
                0.0,
            );
            for &n in &nodes {
                sim.post(n, SimDuration::ZERO, StartNode);
            }
            sim.run_for(SimDuration::from_secs(1));
            let leaders = nodes
                .iter()
                .filter(|&&n| sim.get::<RaftNode>(n).unwrap().role() == Role::Leader)
                .count();
            black_box(leaders)
        })
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    use lnic::prelude::*;
    c.bench_function("e2e/nic_web_request_sim", |b| {
        b.iter(|| {
            let mut bed = build_testbed(TestbedConfig::new(BackendKind::Nic).seed(1).workers(1));
            bed.preload(&Arc::new(web_program(&SuiteConfig::default())));
            let gateway = bed.gateway;
            let driver = bed.sim.add(ClosedLoopDriver::new(
                gateway,
                vec![JobSpec {
                    workload_id: lnic_workloads::WEB_ID.0,
                    payload: PayloadSpec::Page(0),
                }],
                1,
                SimDuration::from_micros(10),
                Some(10),
            ));
            bed.sim.post(driver, SimDuration::ZERO, StartDriver);
            bed.sim.run();
            black_box(
                bed.sim
                    .get::<ClosedLoopDriver>(driver)
                    .unwrap()
                    .completed()
                    .len(),
            )
        })
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_packet_codec,
    bench_reorder,
    bench_interpreter,
    bench_compiler,
    bench_wfq,
    bench_kv_protocol,
    bench_raft_election,
    bench_end_to_end,
);
criterion_main!(benches);
