//! Per-layer micro-timings on the workloads' own inputs. Each one checks
//! its output against a reference before it times anything, so a broken
//! fast path fails the run instead of reading as a speed-up.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use lnic_mlambda::compile::{compile, CompileOptions};
use lnic_mlambda::interp::{run_to_completion, HeaderValues, ObjectMemory, RequestCtx};
use lnic_mlambda::program::{DispatchCtx, DispatchResult, Program};
use lnic_net::frag::{fragment, Reassembler};
use lnic_net::packet::{LambdaHdr, LambdaKind};
use lnic_net::params::MTU_PAYLOAD_BYTES;
use lnic_placer::{pack, pack_with_tenants, static_costs, LambdaProfile, NicCapacity, PackOptions};
use lnic_raft::codec;
use lnic_raft::types::{Command, LogEntry};
use lnic_raft::{NodeId, RaftMsg, Rpc};
use lnic_tenant::{TenantDirectory, TenantSpec};
use lnic_workloads::image::reference_response;
use lnic_workloads::{
    benchmark_program, tenant_fleet_program, tenant_workload_id, SuiteConfig, IMAGE_ID,
};

/// Host time each micro-timing spends in its timed loop.
const BUDGET: Duration = Duration::from_millis(250);
/// Entries per AppendEntries batch (the raft node's batch cap).
const APPEND_BATCH: usize = 64;
/// Interpreter fuel: far above what one image request needs.
const FUEL: u64 = 100_000_000;

/// Runs `op` repeatedly for [`BUDGET`] (at least `min_iters` times) and
/// returns the mean host seconds per call.
fn time_per_call(min_iters: u32, mut op: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut iters = 0u32;
    while iters < min_iters || t.elapsed() < BUDGET {
        op();
        iters += 1;
    }
    t.elapsed().as_secs_f64() / f64::from(iters)
}

/// Interpreter: the compiled image lambda on `image`.
pub struct Interp {
    /// Instructions one request executes.
    pub instrs: u64,
    /// Host nanoseconds per interpreted instruction.
    pub host_ns_per_instr: f64,
}

/// Compiler: the benchmark program, optimized.
pub struct Compile {
    /// Instruction-store words of the firmware.
    pub instr_words: usize,
    /// Host milliseconds per compile.
    pub host_ms: f64,
}

/// Times `compile(benchmark_program, optimized)` after checking the
/// image fits the instruction store.
///
/// # Errors
///
/// Fails when the program does not compile or overflows the store.
pub fn compile_suite() -> Result<(Compile, Arc<Program>), String> {
    let program = benchmark_program(&SuiteConfig::default());
    let opts = CompileOptions::optimized();
    let fw = compile(&program, &opts).map_err(|e| format!("compile: {e:?}"))?;
    let words = fw.instruction_words();
    if words > opts.instruction_store_words {
        return Err(format!(
            "compile: {words} words overflow the {}-word store",
            opts.instruction_store_words
        ));
    }
    let secs = time_per_call(3, || {
        black_box(
            compile(black_box(&program), &opts)
                .map(|f| f.instruction_words())
                .ok(),
        );
    });
    Ok((
        Compile {
            instr_words: words,
            host_ms: secs * 1e3,
        },
        Arc::new(fw.program),
    ))
}

/// Times `run_to_completion` of the compiled image lambda on `image`
/// after checking its reply against `reference_response`.
///
/// # Errors
///
/// Fails when dispatch, execution or the reply is wrong.
pub fn interp_image(program: &Arc<Program>, image: &Bytes) -> Result<Interp, String> {
    let dispatch = program.dispatch(&DispatchCtx {
        workload_id: IMAGE_ID.0,
        has_lambda_hdr: true,
        ..DispatchCtx::default()
    });
    let DispatchResult::Invoke { lambda, params } = dispatch else {
        return Err("interp: image workload does not dispatch to a lambda".into());
    };
    let ctx = RequestCtx {
        headers: HeaderValues {
            workload_id: IMAGE_ID.0,
            ..HeaderValues::default()
        },
        payload: image.clone(),
        match_data: params,
    };
    let mut mem = ObjectMemory::for_lambda(&program.lambdas[lambda]);
    let run = |mem: &mut ObjectMemory| {
        run_to_completion(program, lambda, ctx.clone(), mem, FUEL, |_, _| Bytes::new())
    };
    let done = run(&mut mem).map_err(|e| format!("interp: {e:?}"))?;
    if done.return_code != 0 || done.response[..] != reference_response(image)[..] {
        return Err("interp: image reply differs from reference_response".into());
    }
    let instrs = done.stats.instrs;
    let secs = time_per_call(3, || {
        black_box(run(&mut mem).map(|d| d.stats.instrs).ok());
    });
    Ok(Interp {
        instrs,
        host_ns_per_instr: secs * 1e9 / instrs as f64,
    })
}

/// Times fragmenting `payload` at the testbed MTU and reassembling it,
/// scaled to a 64 KiB message, after checking the bytes round-trip.
///
/// # Errors
///
/// Fails when reassembly does not return the original bytes.
pub fn frag_round_trip(payload: &Bytes) -> Result<f64, String> {
    let round_trip = |request_id: u64| {
        let frags = fragment(payload.clone(), MTU_PAYLOAD_BYTES);
        let count = frags.len() as u16;
        let mut r = Reassembler::new();
        let mut out = None;
        // Deliver in reverse so reassembly also reorders.
        for (i, f) in frags.into_iter().enumerate().rev() {
            let hdr = LambdaHdr {
                workload_id: IMAGE_ID.0,
                request_id,
                frag_index: i as u16,
                frag_count: count,
                kind: LambdaKind::RdmaWrite,
                ..LambdaHdr::default()
            };
            out = out.or(r.accept(hdr, f));
        }
        out.map(|m| m.payload)
    };
    if round_trip(1).as_ref() != Some(payload) {
        return Err("frag: reassembled bytes differ from the payload".into());
    }
    let mut id = 1;
    let secs = time_per_call(10, || {
        id += 1;
        black_box(round_trip(black_box(id)).map(|p| p.len()));
    });
    Ok(secs * 1e6 * 65_536.0 / payload.len() as f64)
}

/// Times `codec::encode` + `codec::decode` of a full AppendEntries batch
/// of replicated-KV writes after checking the round trip.
///
/// # Errors
///
/// Fails when decoding does not return the encoded message.
pub fn raft_append(values: &[u64]) -> Result<f64, String> {
    let entries = values
        .iter()
        .cycle()
        .take(APPEND_BATCH)
        .enumerate()
        .map(|(i, &v)| LogEntry {
            term: 3,
            command: Command::PutOnce {
                key: (i % 8).to_string(),
                value: v.to_be_bytes().to_vec(),
                uid: v,
            },
        })
        .collect();
    let msg = RaftMsg {
        from: NodeId(0),
        to: NodeId(1),
        rpc: Rpc::AppendEntries {
            term: 3,
            prev_log_index: 1_000,
            prev_log_term: 3,
            entries,
            leader_commit: 990,
        },
    };
    let decoded = codec::decode(&codec::encode(&msg)).map_err(|e| format!("raft codec: {e:?}"))?;
    if decoded != msg {
        return Err("raft codec: decode(encode(m)) != m".into());
    }
    let secs = time_per_call(10, || {
        black_box(codec::decode(&codec::encode(black_box(&msg))).is_ok());
    });
    Ok(secs * 1e6)
}

/// Times `pack_with_tenants` on the tenant catalog after checking the
/// plan: every lambda placed or rejected once, the store not overfilled,
/// and unlimited tenant quotas giving the same plan as `pack`.
///
/// # Errors
///
/// Fails when the plan breaks any of those checks.
pub fn pack_tenants(tenants: u32, pad_words: usize) -> Result<f64, String> {
    let catalog = tenant_fleet_program(tenants, pad_words);
    let opts = CompileOptions::optimized();
    let profiles: Vec<LambdaProfile> = static_costs(&catalog, &opts)
        .into_iter()
        .map(|cost| LambdaProfile {
            workload_id: cost.workload_id,
            cost,
            rate_rps: 0.0,
            nic_service_ns: 0.0,
            host_service_ns: 0.0,
        })
        .collect();
    let cap = NicCapacity::from_params(&lnic_nic::NicParams::default(), &opts);
    let pack_opts = PackOptions {
        profile_guided: false,
        has_host: false,
        ..PackOptions::default()
    };
    let mut dir = TenantDirectory::new();
    for i in 0..tenants {
        dir.register(i + 1, TenantSpec::weighted(1.0));
        dir.assign(tenant_workload_id(i).0, i + 1);
    }
    let plan = pack_with_tenants(&profiles, &cap, &pack_opts, &dir);
    let mut seen: Vec<u32> = plan
        .nic
        .iter()
        .copied()
        .chain(plan.rejected.iter().map(|&(w, _)| w))
        .collect();
    seen.sort_unstable();
    let mut want: Vec<u32> = profiles.iter().map(|p| p.workload_id).collect();
    want.sort_unstable();
    let words: u64 = profiles
        .iter()
        .filter(|p| plan.nic.contains(&p.workload_id))
        .map(|p| p.cost.instr_words)
        .sum();
    let reference = pack(&profiles, &cap, &pack_opts);
    if seen != want
        || words != plan.nic_instr_words
        || words > cap.instr_words
        || plan.nic != reference.nic
        || plan.nic.is_empty()
    {
        return Err("placer: tenant plan fails its checks".into());
    }
    let secs = time_per_call(10, || {
        black_box(pack_with_tenants(black_box(&profiles), &cap, &pack_opts, &dir).nic_instr_words);
    });
    Ok(secs * 1e3)
}
