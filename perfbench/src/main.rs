//! The repository benchmark: drives one λ-NIC workload through the
//! library's public API, checks every reply, and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload nic_web_kv_open --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: simulated sojourn
//! percentiles, goodput and SLO rate of the modelled system, and the
//! host cost of simulating it (requests per host second, set-up time,
//! peak memory). `--trace 1` is the per-layer run: it attaches the
//! benchmark's trace sinks, proves they leave the simulated results
//! byte-identical, and times each layer. The last line of standard
//! output is one JSON object; the line before it is the full report.
//! `BENCHMARK.json` at the repository root documents the design.

mod driver;
mod measure;
mod micro;
mod report;
mod sinks;
mod stats;
mod workload;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use lnic::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use measure::{checker_stats, slo_rate, SimResult};
use report::Json;
use sinks::{LayerSink, Timed};
use stats::{median, quantile, ratio};
use workload::{drive, setup, Inputs, Probe, Workload};

/// Fewest measured drives per run, whatever `--seconds` says.
const MIN_DRIVES: usize = 3;
/// Fewest set-ups timed per run; set-ups beyond the drives' own are
/// timed alone after the drives.
const MIN_SETUPS: usize = 51;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(15),
        trace: trace.unwrap_or(false),
    })
}

/// What a run found, beyond its metrics.
struct Verdict {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Verdict {
    fn new(r: &SimResult) -> Self {
        let mut v = Verdict {
            attempted: r.attempted,
            failed: r.failed + r.wrong,
            problems: Vec::new(),
        };
        v.check(r);
        v
    }

    fn check(&mut self, r: &SimResult) {
        if r.wrong > 0 {
            self.problems.push(format!("{} wrong replies", r.wrong));
        }
        if r.lost_writes > 0 {
            self.problems
                .push(format!("{} acknowledged writes lost", r.lost_writes));
        }
    }

    fn require(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.problems.push(what.into());
        }
    }
}

/// A run's verdict, its metrics, and the details for the report line.
type Run = (
    Verdict,
    Vec<(&'static str, Json)>,
    Vec<(&'static str, Json)>,
);

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.into())),
    ])
}

/// The end-to-end run: repeated set-up + drive until `--seconds` pass,
/// then the SLO ladder.
fn end_to_end(args: &Args) -> Run {
    let w = args.workload;
    let parts: Vec<Inputs> = (0..w.parts())
        .map(|p| Inputs::generate(w, args.seed, p))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut setups, mut rates) = (Vec::new(), Vec::new());
    let mut first: Vec<SimResult> = Vec::new();
    let mut checked_records = 0;
    let mut repeats_differ = false;
    while setups.len() < parts.len().max(MIN_DRIVES) || Instant::now() < deadline {
        let inputs = &parts[setups.len() % parts.len()];
        let t = Instant::now();
        let mut bed = setup(inputs, Probe::Plain);
        setups.push(t.elapsed().as_secs_f64());
        let wall = drive(&mut bed);
        let r = SimResult::collect(&bed, inputs.warmup);
        rates.push(r.attempted as f64 / wall);
        checked_records += checker_stats(&bed).0;
        match first.get((setups.len() - 1) % parts.len()) {
            Some(f) => repeats_differ |= *f != r,
            None => first.push(r),
        }
    }
    let drives = setups.len();
    while setups.len() < MIN_SETUPS {
        let t = Instant::now();
        let bed = setup(&parts[setups.len() % parts.len()], Probe::Plain);
        setups.push(t.elapsed().as_secs_f64());
        drop(bed);
    }
    let r = SimResult::pool(first);
    let mut verdict = Verdict::new(&r);
    verdict.require(
        !repeats_differ,
        "a repeated drive of the same seed gave different simulated results",
    );
    // Read before the ladder, whose own drives would otherwise set the
    // peak of the lighter workloads.
    let rss = report::peak_rss_mib().unwrap_or(0.0);
    let (slo, rungs) = slo_rate(args.seed);
    verdict.require(slo > 0.0, "no rung of the SLO ladder meets the SLO");

    let metrics = vec![
        ("sim_p50_us", metric(r.sojourn_us(0.50), "us")),
        ("sim_p99_us", metric(r.sojourn_us(0.99), "us")),
        ("sim_p999_us", metric(r.sojourn_us(0.999), "us")),
        ("sim_goodput_rps", metric(r.goodput_rps(), "req/s")),
        ("sim_slo_rate_rps", metric(slo, "req/s")),
        ("success_frac", metric(1.0 - r.failed_frac(), "ratio")),
        ("setup_s", metric(median(&setups), "s")),
        ("peak_rss_mb", metric(rss, "MiB")),
    ];
    let n = r.sojourn_ns.len();
    let details = vec![
        ("latency_samples", Json::Int(n as u64)),
        (
            "p999_quantile_used",
            Json::Num(stats::supported_quantile(n, 0.999)),
        ),
        ("failed_frac", Json::Num(r.failed_frac())),
        ("failed", Json::Int(r.failed as u64)),
        ("wrong", Json::Int(r.wrong as u64)),
        ("acked_writes", Json::Int(r.acked_writes as u64)),
        ("lost_acked_writes", Json::Int(r.lost_writes as u64)),
        ("invariant_records_checked", Json::Int(checked_records)),
        ("events_per_drive", Json::Int(r.events)),
        ("drives", Json::Int(drives as u64)),
        ("host_req_per_s", Json::Num(median(&rates))),
        ("parts_pooled", Json::Int(parts.len() as u64)),
        (
            "host_req_per_s_samples",
            Json::Arr(rates.iter().map(|&v| Json::Num(v)).collect()),
        ),
        (
            "setup_s_samples",
            Json::Arr(setups.iter().map(|&v| Json::Num(v)).collect()),
        ),
        (
            "slo_ladder",
            Json::obj([
                ("p99_limit_us", Json::Num(measure::SLO_P99_US)),
                ("goodput_share", Json::Num(measure::SLO_GOODPUT_SHARE)),
                (
                    "rungs_tried",
                    Json::Arr(
                        rungs
                            .iter()
                            .map(|g| {
                                Json::obj([
                                    ("rate_rps", Json::Num(g.rate_rps)),
                                    ("p99_us", Json::Num(g.p99_us)),
                                    ("goodput_rps", Json::Num(g.goodput_rps)),
                                    ("pass", Json::Bool(g.pass)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
    ];
    (verdict, metrics, details)
}

/// Nearest-rank percentile of nanosecond samples, in µs (0 for none).
fn pct_us(samples: &mut [u64], q: f64) -> f64 {
    samples.sort_unstable();
    if samples.is_empty() {
        0.0
    } else {
        quantile(samples, q) as f64 / 1e3
    }
}

/// The per-layer run: untraced and traced drives in pairs (their
/// simulated results must match exactly), a held-out seed, the layer
/// micro-timings, and on the replicated KV the sharded engine.
fn per_layer(args: &Args) -> Run {
    let w = args.workload;
    let inputs = Inputs::generate(w, args.seed, 0);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut pairs = 0;
    let (mut overheads, mut ns_per_event, mut check_share, mut check_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut rates = Vec::new();
    let mut verdict = None::<Verdict>;
    let mut traced = None;
    while pairs < 1 || Instant::now() < deadline {
        let mut plain = setup(&inputs, Probe::Plain);
        let wall_plain = drive(&mut plain);
        let a = SimResult::collect(&plain, inputs.warmup);
        rates.push(a.attempted as f64 / wall_plain);
        drop(plain);
        let mut bed = setup(&inputs, Probe::Traced);
        let wall = drive(&mut bed);
        let b = SimResult::collect(&bed, inputs.warmup);
        let v = verdict.get_or_insert_with(|| Verdict::new(&a));
        v.require(
            a == b,
            "tracing changed the simulated results or the event count",
        );
        let (records, checker_ns) = checker_stats(&bed);
        let layer_ns = bed
            .testbed
            .sim
            .trace_sink::<Timed<LayerSink>>()
            .expect("layer sink attached")
            .ns;
        overheads.push(wall / wall_plain - 1.0);
        ns_per_event.push((wall * 1e9 - (checker_ns + layer_ns) as f64) / b.events as f64);
        check_share.push(checker_ns as f64 / (wall * 1e9));
        check_ns.push(ratio(checker_ns as f64, records as f64));
        traced = Some((bed, b));
        pairs += 1;
    }
    let mut verdict = verdict.expect("at least one pair");
    let (bed, r) = traced.expect("at least one pair");

    let held_out = Inputs::generate(w, args.seed.wrapping_add(1), 0);
    let mut other = setup(&held_out, Probe::Plain);
    drive(&mut other);
    let o = SimResult::collect(&other, held_out.warmup);
    verdict.check(&o);
    verdict.require(o != r, "a held-out seed gave the same simulated results");
    drop(other);

    // Layer micro-timings on this seed's inputs.
    let mut rng = SmallRng::seed_from_u64(args.seed);
    let image = workload::random_image(&mut rng, workload::IMAGE_DIM, workload::IMAGE_DIM);
    let values: Vec<u64> = (0..64).map(|_| rand::Rng::gen(&mut rng)).collect();
    let micro = (|| -> Result<_, String> {
        let (compile, program) = micro::compile_suite()?;
        let interp = micro::interp_image(&program, &image)?;
        let frag_us = micro::frag_round_trip(&image)?;
        let raft_us = micro::raft_append(&values)?;
        let pack_ms = micro::pack_tenants(workload::TENANTS, workload::TENANT_PAD_WORDS)?;
        Ok((compile, interp, frag_us, raft_us, pack_ms))
    })();
    let (compile, interp, frag_us, raft_us, pack_ms) = match micro {
        Ok(m) => m,
        Err(e) => {
            verdict.problems.push(e);
            return (verdict, Vec::new(), Vec::new());
        }
    };

    let sharded2 = if w == Workload::RepKvClosed {
        let rate = |engine| {
            let mut bed = setup(&inputs, Probe::Bare(engine));
            let wall = drive(&mut bed);
            bed.testbed.sim.events_processed() as f64 / wall
        };
        rate(EngineMode::Sharded { threads: 2 }) / rate(EngineMode::Serial)
    } else {
        0.0
    };

    let sink = &bed
        .testbed
        .sim
        .trace_sink::<Timed<LayerSink>>()
        .expect("layer sink attached")
        .inner;
    let reqs = r.attempted as f64;
    let per_req = |v: u64| ratio(v as f64, reqs);
    let mut queue = r.queue_ns.clone();
    let (mut ingress, mut egress) = (sink.ingress_ns.clone(), sink.egress_ns.clone());
    let (mut exec, mut suspend) = (sink.exec_ns.clone(), sink.suspend_ns.clone());
    let (mut reads, mut writes) = (sink.kv_read_ns.clone(), sink.kv_write_ns.clone());
    let busy_ns = bed.nic.cycles_to_time(sink.total_cycles).as_nanos() as f64;
    let threads = (bed.nic.threads() * bed.testbed.workers.len()) as f64;
    let window_ns = r.window_s * 1e9;
    let records = bed.testbed.sim.trace_records();

    let mut metrics = vec![
        ("host_req_per_s", metric(median(&rates), "req/s")),
        (
            "sim.engine.events_per_req",
            metric(per_req(r.events), "count"),
        ),
        (
            "sim.engine.host_ns_per_event",
            metric(median(&ns_per_event), "ns"),
        ),
        ("sim.engine.sharded2_speedup", metric(sharded2, "x")),
        (
            "sim.check.host_share",
            metric(median(&check_share), "ratio"),
        ),
        ("sim.check.ns_per_record", metric(median(&check_ns), "ns")),
        (
            "sim.trace.records_per_req",
            metric(per_req(records), "count"),
        ),
        (
            "sim.trace.overhead_frac",
            metric(median(&overheads), "ratio"),
        ),
        (
            "gateway.queue_us_p50",
            metric(pct_us(&mut queue, 0.50), "us"),
        ),
        (
            "gateway.queue_us_p99",
            metric(pct_us(&mut queue, 0.99), "us"),
        ),
        (
            "gateway.retransmits_per_req",
            metric(per_req(sink.retransmits), "count"),
        ),
        (
            "path.ingress_us_p50",
            metric(pct_us(&mut ingress, 0.50), "us"),
        ),
        (
            "path.ingress_us_p99",
            metric(pct_us(&mut ingress, 0.99), "us"),
        ),
        (
            "path.egress_us_p50",
            metric(pct_us(&mut egress, 0.50), "us"),
        ),
        (
            "path.egress_us_p99",
            metric(pct_us(&mut egress, 0.99), "us"),
        ),
        (
            "path.unattributed_us_max",
            metric(sink.unattributed_max_ns as f64 / 1e3, "us"),
        ),
        ("nic.exec_us_p50", metric(pct_us(&mut exec, 0.50), "us")),
        ("nic.exec_us_p99", metric(pct_us(&mut exec, 0.99), "us")),
        (
            "nic.rpc_suspend_us_p50",
            metric(pct_us(&mut suspend, 0.50), "us"),
        ),
        (
            "nic.rpc_suspend_us_p99",
            metric(pct_us(&mut suspend, 0.99), "us"),
        ),
        (
            "nic.overhead_cycles_per_req",
            metric(per_req(sink.overhead_cycles), "cycles"),
        ),
        (
            "nic.instr_cycles_per_req",
            metric(per_req(sink.instr_cycles), "cycles"),
        ),
    ];
    // In `MEM_LEVELS` order.
    let mem_names = [
        "nic.mem_cycles_per_req.LMEM",
        "nic.mem_cycles_per_req.CTM",
        "nic.mem_cycles_per_req.IMEM",
        "nic.mem_cycles_per_req.EMEM",
    ];
    for (name, &cycles) in mem_names.into_iter().zip(&sink.mem_cycles) {
        metrics.push((name, metric(per_req(cycles), "cycles")));
    }
    metrics.extend([
        (
            "nic.thread_busy_frac",
            metric(ratio(busy_ns, threads * window_ns), "ratio"),
        ),
        (
            "nic.wfq.enqueues_per_req",
            metric(per_req(sink.wfq_enqueues), "count"),
        ),
        (
            "nic.wfq.depth_max",
            metric(sink.wfq_depth_max as f64, "count"),
        ),
        ("net.frames_per_req", metric(per_req(sink.frames), "count")),
        ("net.bytes_per_req", metric(per_req(sink.bytes), "B")),
        ("net.drops", metric(sink.drops as f64, "count")),
        ("net.frag.host_us_per_64KiB", metric(frag_us, "us")),
        (
            "mlambda.interp.instr_per_req",
            metric(per_req(sink.instr_cycles), "count"),
        ),
        (
            "mlambda.interp.host_ns_per_instr",
            metric(interp.host_ns_per_instr, "ns"),
        ),
        ("mlambda.compile.host_ms", metric(compile.host_ms, "ms")),
        (
            "mlambda.compile.instr_words",
            metric(compile.instr_words as f64, "count"),
        ),
        ("repkv.read_p99_us", metric(pct_us(&mut reads, 0.99), "us")),
        (
            "repkv.write_p99_us",
            metric(pct_us(&mut writes, 0.99), "us"),
        ),
        ("raft.codec.host_us_per_append", metric(raft_us, "us")),
        (
            "tenant.fault_rate",
            metric(per_req(sink.firmware_faults), "ratio"),
        ),
        (
            "tenant.evictions_per_req",
            metric(per_req(sink.firmware_evictions), "count"),
        ),
        ("placer.pack_host_ms", metric(pack_ms, "ms")),
    ]);
    let details = vec![
        ("traced_pairs", Json::Int(pairs as u64)),
        ("events_per_drive", Json::Int(r.events)),
        ("trace_records_per_drive", Json::Int(records)),
        ("image_lambda_instrs", Json::Int(interp.instrs)),
        ("held_out_seed", Json::Int(args.seed.wrapping_add(1))),
        ("executions", Json::Int(sink.execs)),
        (
            "overhead_frac_samples",
            Json::Arr(overheads.iter().map(|&v| Json::Num(v)).collect()),
        ),
        (
            "not_measured_here",
            Json::Arr(
                (w != Workload::RepKvClosed)
                    .then(|| Json::Str("sim.engine.sharded2_speedup".into()))
                    .into_iter()
                    .collect(),
            ),
        ),
    ];
    (verdict, metrics, details)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let (verdict, metrics, details) = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    let correct = verdict.problems.is_empty();
    for p in &verdict.problems {
        eprintln!("error: {p}");
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut report = vec![
        ("workload", Json::Str(args.workload.name().into())),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Int(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        (
            "commit",
            report::commit_id().map_or(Json::Str("unknown".into()), Json::Str),
        ),
        (
            "source_fnv64",
            report::source_digest(Path::new("crates")).map_or(Json::Str("unknown".into()), |h| {
                Json::Str(format!("{h:016x}"))
            }),
        ),
        ("available_parallelism", Json::Int(cores as u64)),
        ("engine", Json::Str("serial".into())),
        (
            "problems",
            Json::Arr(verdict.problems.iter().cloned().map(Json::Str).collect()),
        ),
    ];
    report.extend(details);
    println!("{}", Json::obj([("report", Json::obj(report))]).render());
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(verdict.attempted.max(1) as u64)),
            ("failed", Json::Int(verdict.failed as u64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
