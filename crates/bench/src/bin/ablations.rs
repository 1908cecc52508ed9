//! Ablation studies beyond the paper's tables: design choices DESIGN.md
//! calls out, isolated one at a time.
//!
//! 1. **NIC class** (Table 1 quantified): the same web workload on
//!    FPGA-, ASIC-, and SoC-class NIC parameters.
//! 2. **Memory stratification off**: latency impact of leaving every
//!    object in external memory.
//! 3. **Dispatch policy**: uniform-random (Netronome hardware) vs
//!    round-robin thread selection.
//! 4. **Gateway-on-NIC** (§7 "accelerating other forms of workloads"):
//!    throughput with the gateway's proxy cost reduced to NIC speeds.
//! 5. **WFQ weights**: per-lambda service shares under overload.
//! 6. **Run-to-completion vs pipelined stages** (the paper's footnote 4
//!    future work): dedicating an island to parse/match vs running all
//!    stages on every core.
//! 7. **Native host runtime**: how much of the paper's gap is Python?
//!    A hypothetical compiled, GIL-free bare-metal backend vs λ-NIC.
//! 8. **Constant folding**: a fourth compiler pass beyond the paper's
//!    three, validated by the semantics-preservation property tests.
//!
//! Run with: `cargo run --release -p lnic-bench --bin ablations`

use std::sync::Arc;

use lnic::prelude::*;
use lnic_bench::{attach_trace, finish_trace, fmt_ms, THINK_TIME};
use lnic_mlambda::compile::CompileOptions;
use lnic_nic::{DispatchPolicy, Nic, NicClass, NicParams};
use lnic_sim::prelude::*;
use lnic_workloads::{web_program, SuiteConfig, WEB_ID};

fn web_jobs() -> Vec<JobSpec> {
    vec![JobSpec {
        workload_id: WEB_ID.0,
        payload: PayloadSpec::RandomPage { count: 64 },
    }]
}

fn drive(bed: &mut Testbed, concurrency: usize, per_thread: u64) -> (Series, f64) {
    attach_trace(bed, "ablation");
    let gateway = bed.gateway;
    let driver = bed.sim.add(ClosedLoopDriver::new(
        gateway,
        web_jobs(),
        concurrency,
        THINK_TIME,
        Some(per_thread),
    ));
    bed.sim.post(driver, SimDuration::ZERO, StartDriver);
    bed.sim.run();
    finish_trace(bed, "ablation");
    let d = bed.sim.get::<ClosedLoopDriver>(driver).unwrap();
    (d.latency_series(20), d.throughput_rps())
}

fn nic_class_study() {
    // The image transformer exposes the class differences: its compute
    // saturates the FPGA's few cores and the SoC's slower ones, while
    // the ASIC's 448 threads absorb the burst.
    println!("## 1. NIC class (image transformer, 8 concurrent clients)\n");
    println!(
        "{:<14} {:>10} {:>12} {:>12}",
        "class", "mean", "p99", "req/s"
    );
    let image = PayloadSpec::Fixed(bytes::Bytes::from(
        lnic_workloads::image::RgbaImage::synthetic(128, 128).data,
    ));
    for class in [NicClass::Fpga, NicClass::Asic, NicClass::Soc] {
        let mut config = TestbedConfig::new(BackendKind::Nic).seed(51).workers(1);
        config.nic = class.params();
        let mut bed = build_testbed(config);
        attach_trace(&mut bed, &format!("ablation-nic-class-{}", class.name()));
        bed.preload(&Arc::new(lnic_workloads::image_program(
            &SuiteConfig::default(),
        )));
        let gateway = bed.gateway;
        let driver = bed.sim.add(ClosedLoopDriver::new(
            gateway,
            vec![JobSpec {
                workload_id: lnic_workloads::IMAGE_ID.0,
                payload: image.clone(),
            }],
            8,
            SimDuration::from_millis(1),
            Some(8),
        ));
        bed.sim.post(driver, SimDuration::ZERO, StartDriver);
        bed.sim.run();
        finish_trace(&mut bed, &format!("ablation-nic-class-{}", class.name()));
        let d = bed.sim.get::<ClosedLoopDriver>(driver).unwrap();
        let s = d.latency_series(8).summary();
        println!(
            "{:<14} {:>8} ms {:>10} ms {:>12.0}",
            class.name(),
            fmt_ms(s.mean_ns),
            fmt_ms(s.p99_ns as f64),
            d.throughput_rps()
        );
    }
    println!();
}

fn stratification_study() {
    println!("## 2. Memory stratification (web server, 8 clients)\n");
    let mut rows = Vec::new();
    for (label, opts) in [
        ("stratified (paper)", CompileOptions::optimized()),
        ("all objects in EMEM", {
            let mut o = CompileOptions::optimized();
            o.stratify = false;
            o
        }),
    ] {
        let mut bed = build_testbed(TestbedConfig::new(BackendKind::Nic).seed(52));
        bed.preload_with(&Arc::new(web_program(&SuiteConfig::default())), &opts);
        let (lat, _) = drive(&mut bed, 8, 50);
        rows.push((label, lat.summary()));
    }
    println!("{:<24} {:>10} {:>12}", "placement", "mean", "p99");
    for (label, s) in &rows {
        println!(
            "{:<24} {:>8} ms {:>10} ms",
            label,
            fmt_ms(s.mean_ns),
            fmt_ms(s.p99_ns as f64)
        );
    }
    let slowdown = rows[1].1.mean_ns / rows[0].1.mean_ns;
    println!(
        "=> naive placement costs {:.2}x in mean latency\n",
        slowdown
    );
    assert!(slowdown > 1.0, "stratification must help");
}

fn dispatch_policy_study() {
    println!("## 3. Dispatch policy (web server, 32 clients)\n");
    for policy in [DispatchPolicy::UniformRandom, DispatchPolicy::RoundRobin] {
        let mut bed = build_testbed(TestbedConfig::new(BackendKind::Nic).seed(53));
        bed.preload(&Arc::new(web_program(&SuiteConfig::default())));
        for w in &bed.workers {
            let component = w.component;
            bed.sim
                .get_mut::<Nic>(component)
                .unwrap()
                .set_dispatch_policy(policy);
        }
        let (lat, rps) = drive(&mut bed, 32, 30);
        let s = lat.summary();
        println!(
            "{:<16?} mean={} ms p99={} ms {:.0} req/s",
            policy,
            fmt_ms(s.mean_ns),
            fmt_ms(s.p99_ns as f64),
            rps
        );
    }
    println!("=> with 448 threads and short lambdas, both policies are equivalent\n");
}

fn gateway_on_nic_study() {
    println!("## 4. Gateway-on-NIC (§7; web server, 56 clients)\n");
    for (label, proxy_us) in [
        ("host gateway (paper)", 15u64),
        ("gateway on a SmartNIC", 1),
    ] {
        let mut config = TestbedConfig::new(BackendKind::Nic).seed(54);
        config.gateway.proxy_cost = SimDuration::from_micros(proxy_us);
        config.gateway.response_cost = SimDuration::from_nanos(proxy_us * 100);
        let mut bed = build_testbed(config);
        bed.preload(&Arc::new(web_program(&SuiteConfig::default())));
        let (_, rps) = drive(&mut bed, 56, 30);
        println!("{label:<26} {rps:>10.0} req/s");
    }
    println!("=> the host gateway is the aggregate-throughput ceiling (Table 2)\n");
}

fn wfq_study() {
    println!("## 5. WFQ weights under overload (two lambdas, tiny NIC)\n");
    // A 2-thread NIC under 32-way load: the WFQ arbitrates the backlog.
    let mut config = TestbedConfig::new(BackendKind::Nic).seed(55).workers(1);
    config.nic = NicParams {
        islands: 1,
        cores_per_island: 1,
        threads_per_core: 2,
        ..NicParams::agilio_cx()
    };
    let mut bed = build_testbed(config);
    attach_trace(&mut bed, "ablation-wfq");
    let program = Arc::new(lnic_workloads::three_web_servers());
    bed.preload(&program);
    for lambda in &program.lambdas {
        bed.place(lambda.id.0, 0);
    }
    // Favor the first lambda 4:1:1.
    {
        let component = bed.workers[0].component;
        let nic = bed.sim.get_mut::<Nic>(component).unwrap();
        nic.set_weight(0, 4.0);
        nic.set_weight(1, 1.0);
        nic.set_weight(2, 1.0);
    }
    let jobs: Vec<JobSpec> = program
        .lambdas
        .iter()
        .map(|l| JobSpec {
            workload_id: l.id.0,
            payload: PayloadSpec::Page(0),
        })
        .collect();
    let gateway = bed.gateway;
    let driver = bed.sim.add(ClosedLoopDriver::new(
        gateway,
        jobs,
        32,
        SimDuration::from_nanos(100),
        Some(60),
    ));
    bed.sim.post(driver, SimDuration::ZERO, StartDriver);
    bed.sim.run();
    finish_trace(&mut bed, "ablation-wfq");
    let d = bed.sim.get::<ClosedLoopDriver>(driver).unwrap();
    for lambda in &program.lambdas {
        let mut s = Series::new("l");
        for c in d
            .completed()
            .iter()
            .filter(|c| c.workload_id == lambda.id.0)
        {
            s.record(c.latency);
        }
        println!(
            "  {:<12} weight={} mean latency {} ms (n={})",
            lambda.name,
            if lambda.id.0 == program.lambdas[0].id.0 {
                4
            } else {
                1
            },
            fmt_ms(s.summary().mean_ns),
            s.len()
        );
    }
    println!("=> the heavier-weighted lambda sees shorter queueing under overload\n");
}

fn rtc_vs_pipelined_study() {
    println!("## 6. Run-to-completion vs pipelined stages (web server, 32 clients)\n");
    for (label, params) in [
        ("run-to-completion (paper)", NicParams::agilio_cx()),
        ("pipelined (footnote 4)", NicParams::agilio_cx_pipelined()),
    ] {
        let mut config = TestbedConfig::new(BackendKind::Nic).seed(56);
        config.nic = params;
        let mut bed = build_testbed(config);
        bed.preload(&Arc::new(web_program(&SuiteConfig::default())));
        let (lat, rps) = drive(&mut bed, 32, 40);
        let s = lat.summary();
        println!(
            "{:<28} mean={} ms p99={} ms {:.0} req/s",
            label,
            fmt_ms(s.mean_ns),
            fmt_ms(s.p99_ns as f64),
            rps
        );
    }
    println!("=> pipelining pays a handoff penalty with no benefit for short lambdas,");
    println!("   validating the paper's run-to-completion choice (§4.2-D1)\n");
}

fn native_runtime_study() {
    use lnic_host::{HostBackend, HostParams};
    use lnic_mlambda::compile::{compile, CompileOptions};
    use lnic_net::link::Link;
    use lnic_net::params::LinkParams;
    use lnic_net::switch::Switch;

    println!("## 7. Native host runtime vs lambda-NIC (web server, 8 clients)\n");
    let mut results = Vec::new();

    // lambda-NIC and the paper's Python bare metal: standard testbeds.
    for (label, backend) in [
        ("lambda-NIC", BackendKind::Nic),
        ("bare metal (Python, paper)", BackendKind::BareMetal),
    ] {
        let mut bed = build_testbed(TestbedConfig::new(backend).seed(57));
        bed.preload(&Arc::new(web_program(&SuiteConfig::default())));
        let (lat, _) = drive(&mut bed, 8, 50);
        results.push((label, lat.summary()));
    }

    // Hypothetical native runtime: replace the worker with a
    // HostParams::native backend on the same switch port.
    {
        let mut bed = build_testbed(
            TestbedConfig::new(BackendKind::BareMetal)
                .seed(57)
                .workers(1),
        );
        let w = bed.workers[0];
        let uplink = bed.sim.add(Link::new(bed.switch, LinkParams::ten_gbps()));
        let program = web_program(&SuiteConfig::default());
        let fw = compile(&program, &CompileOptions::optimized()).unwrap();
        let native = HostBackend::new(HostParams::native(56), w.mac, w.addr.ip, uplink)
            .preload(Arc::new(fw.program));
        let id = bed.sim.add(native);
        let port = bed.sim.add(Link::new(id, LinkParams::ten_gbps()));
        bed.sim
            .get_mut::<Switch>(bed.switch)
            .unwrap()
            .connect(w.mac, port);
        bed.place(lnic_workloads::WEB_ID.0, 0);
        let (lat, _) = drive(&mut bed, 8, 50);
        results.push(("bare metal (native, no GIL)", lat.summary()));
    }

    println!("{:<30} {:>10} {:>12}", "runtime", "mean", "p99");
    for (label, s) in &results {
        println!(
            "{:<30} {:>8} ms {:>10} ms",
            label,
            fmt_ms(s.mean_ns),
            fmt_ms(s.p99_ns as f64)
        );
    }
    let nic = results[0].1.mean_ns;
    let python = results[1].1.mean_ns;
    let native = results[2].1.mean_ns;
    println!(
        "=> a native runtime closes {:.0}% of Python's gap, but lambda-NIC keeps a {:.0}x lead",
        100.0 * (python - native) / (python - nic),
        native / nic
    );
    println!("   (the kernel network path remains, as the paper argues in S3)\n");
}

fn const_fold_study() {
    use lnic_mlambda::builder::FnBuilder;
    use lnic_mlambda::compile::{compile, CompileOptions};
    use lnic_mlambda::ir::{AluOp, Cmp, ObjId, Width};
    use lnic_mlambda::program::{Lambda, MemObject, Program, WorkloadId};
    use lnic_workloads::benchmark_program;

    println!("## 8. Constant folding (extension pass beyond the paper)\n");

    // On the hand-written benchmark lambdas the pass finds nothing —
    // they are already constant-minimal.
    let program = benchmark_program(&SuiteConfig::default());
    let base = compile(&program, &CompileOptions::optimized()).unwrap();
    let mut fold_opts = CompileOptions::optimized();
    fold_opts.fold = true;
    let folded = compile(&program, &fold_opts).unwrap();
    println!(
        "hand-written S6.4 program:   {} -> {} words (nothing to fold)",
        base.instruction_words(),
        folded.instruction_words()
    );

    // Its value shows on *template-specialized* code: a generic lambda
    // instantiated with configuration constants (offsets, sizes, limits)
    // computed at runtime in the generic form.
    let mut b = FnBuilder::new("specialized")
        // Header geometry computed from constants (a template would
        // inline these as expressions).
        .constant(1, 14)
        .alu_imm(AluOp::Add, 1, 1, 20)
        .alu_imm(AluOp::Add, 1, 1, 8) // r1 = 42: header bytes
        .constant(2, 4)
        .alu(AluOp::Mul, 3, 1, 2) // r3 = 168: ring stride
        .alu_imm(AluOp::Shr, 4, 3, 3) // r4 = 21
        .constant(5, 0)
        .alu_imm(AluOp::Add, 5, 5, 0); // no-op
    let skip = b.label();
    b = b
        .branch(Cmp::Lt, 1, 3, skip) // always taken: 42 < 168
        .constant(9, 99) // dead
        .place(skip)
        .mov(6, 4)
        .load(7, ObjId(0), 6, Width::B8)
        .emit(7, Width::B8);
    let f = b.ret_const(0).build();
    let mut l = Lambda::new("specialized", WorkloadId(1), f);
    l.add_object(MemObject::zeroed("ring", 256));
    let mut p2 = Program::new();
    p2.add_lambda(l, vec![]);
    let spec_base = compile(&p2, &CompileOptions::optimized()).unwrap();
    let spec_fold = compile(&p2, &fold_opts).unwrap();
    println!(
        "template-specialized lambda: {} -> {} words ({:?})",
        spec_base.instruction_words(),
        spec_fold.instruction_words(),
        spec_fold.pass_info.fold
    );
    println!("=> folding pays on generated/specialized code; correctness is");
    println!("   guaranteed by the semantics-preservation property tests\n");
}

fn main() {
    println!("=== lambda-NIC design ablations ===\n");
    nic_class_study();
    stratification_study();
    dispatch_policy_study();
    gateway_on_nic_study();
    wfq_study();
    rtc_vs_pipelined_study();
    native_runtime_study();
    const_fold_study();
}
