//! The four benchmark workloads: inputs generated from the seed, testbed
//! set-up, and one drive to completion.

use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use lnic::prelude::*;
use lnic_kv::KvServer;
use lnic_mlambda::compile::CompileOptions;
use lnic_raft::RaftConfig;
use lnic_sim::prelude::*;
use lnic_tenant::{TenancyConfig, TenantDirectory, TenantSpec};
use lnic_workloads::image::reference_response;
use lnic_workloads::kv::REPKV_WORKLOAD_ID;
use lnic_workloads::kv::{get_request_payload, repkv_get_payload, repkv_put_payload, KvMix};
use lnic_workloads::{
    benchmark_program, default_web_content, tenant_fleet_program, tenant_tag, tenant_workload_id,
    zipf_weights, SuiteConfig, IMAGE_ID, KV_GET_ID, WEB_ID,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::driver::{BenchDriver, Expect, Request, Shape};
use crate::sinks::{LayerSink, Timed};

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop Poisson web + KV-GET mix on the 4-worker λ-NIC testbed.
    WebKvOpen,
    /// Closed-loop 128×128 RGBA image transformer, 8 clients.
    ImageClosed,
    /// Closed-loop 80/20 read/write mix on the 3-replica raft KV.
    RepKvClosed,
    /// Closed-loop Zipf traffic over 100 paged tenant lambdas.
    TenantsPaging,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::WebKvOpen,
        Workload::ImageClosed,
        Workload::RepKvClosed,
        Workload::TenantsPaging,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WebKvOpen => "nic_web_kv_open",
            Workload::ImageClosed => "nic_image_closed",
            Workload::RepKvClosed => "repkv_rw_closed",
            Workload::TenantsPaging => "nic_tenants_paging",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Independent drives whose simulated results a run pools: enough
    /// latency samples per run, in drives short enough that a run times
    /// many of them.
    pub fn parts(self) -> usize {
        match self {
            Workload::WebKvOpen => 4,
            Workload::ImageClosed => 4,
            Workload::RepKvClosed | Workload::TenantsPaging => 1,
        }
    }

    /// The size of one drive: requests generated and leading requests
    /// excluded from latency percentiles.
    fn size(self) -> (usize, usize) {
        match self {
            Workload::WebKvOpen => (48_000, 1_000),
            Workload::ImageClosed => (280, 30),
            Workload::RepKvClosed => (24_000, 1_000),
            Workload::TenantsPaging => (14_000, 2_000),
        }
    }
}

/// Open-loop offered rate of `nic_web_kv_open` (the gateway proxy
/// serializes at most 58,824 req/s).
const WEB_KV_RATE_RPS: f64 = 40_000.0;
/// Pages served by the web lambda.
const WEB_PAGES: u16 = 64;
/// Keys pre-populated in memcached.
const KV_KEYS: u32 = 1_000;

/// Closed-loop clients of `nic_image_closed`.
const IMAGE_CLIENTS: usize = 8;
/// Side of the 64 KiB reference image the layer micro-timings use.
pub const IMAGE_DIM: usize = 128;
/// Distinct images generated per seed; each side is drawn from
/// `IMAGE_SIDES`, so the drive's images average about 64 KiB.
const IMAGE_VARIANTS: usize = 64;
const IMAGE_SIDES: std::ops::RangeInclusive<usize> = 112..=144;
/// Mean client think time (the closed-loop sender preparing a request).
const IMAGE_THINK: SimDuration = SimDuration::from_micros(80);

/// Closed-loop clients of `repkv_rw_closed`.
const REPKV_CLIENTS: usize = 16;
const REPKV_THINK: SimDuration = SimDuration::from_micros(100);
/// Driver start: after the first election, so the drive sees a leader.
const REPKV_START: SimDuration = SimDuration::from_millis(100);

/// Closed-loop clients of `nic_tenants_paging`.
const TENANT_CLIENTS: usize = 8;
const TENANT_THINK: SimDuration = SimDuration::from_micros(10);
/// Tenants in the catalog, one lambda each.
pub const TENANTS: u32 = 100;
/// Padding per tenant lambda: ~60k catalog words against a 16k store.
pub const TENANT_PAD_WORDS: usize = 600;
const TENANT_ZIPF_S: f64 = 1.0;
/// Resident instruction-store words per worker under paging.
const TENANT_CACHE_WORDS: u64 = 8_192;

/// Simulated time advanced per step while waiting for the driver.
const STEP: SimDuration = SimDuration::from_millis(5);
/// A drive that needs more simulated time than this is stuck.
const HORIZON: SimDuration = SimDuration::from_secs(60);

/// Keeps the input stream independent of the simulation's own RNG.
const INPUT_SALT: u64 = 0x1a4b_da1c_0ffe_e5ed;

/// Everything generated from the seed: the request list and its shape.
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// The seed the inputs and the simulation were made from.
    pub seed: u64,
    /// Requests in submission order.
    pub requests: Arc<Vec<Request>>,
    /// Open or closed loop.
    pub shape: Shape,
    /// Leading requests excluded from latency percentiles.
    pub warmup: usize,
}

impl Inputs {
    /// Drive `part` of the workload's runs for `seed`; each part has its
    /// own inputs and simulation seed.
    pub fn generate(workload: Workload, seed: u64, part: usize) -> Self {
        let (n, warmup) = workload.size();
        let seed = seed.wrapping_add(part as u64 * 0x9e37_79b9_7f4a_7c15);
        let mut rng = SmallRng::seed_from_u64(seed ^ INPUT_SALT);
        let requests = Arc::new(match workload {
            Workload::WebKvOpen => web_kv_requests(&mut rng, n),
            Workload::ImageClosed => image_requests(&mut rng, n),
            Workload::RepKvClosed => repkv_requests(&mut rng, n),
            Workload::TenantsPaging => tenant_requests(&mut rng, n),
        });
        let shape = match workload {
            Workload::WebKvOpen => poisson(&mut rng, WEB_KV_RATE_RPS, n),
            Workload::ImageClosed => closed(&mut rng, IMAGE_CLIENTS, IMAGE_THINK, n),
            Workload::RepKvClosed => closed(&mut rng, REPKV_CLIENTS, REPKV_THINK, n),
            Workload::TenantsPaging => closed(&mut rng, TENANT_CLIENTS, TENANT_THINK, n),
        };
        Inputs {
            workload,
            seed,
            requests,
            shape,
            warmup,
        }
    }

    /// The web + KV mix offered open loop at `rate_rps`: one rung of the
    /// SLO ladder. Every rung of a seed draws the same requests and the
    /// same arrival pattern, only scaled to its rate, so the sojourn
    /// percentiles grow with the rate along one sample path.
    pub fn web_kv_at(seed: u64, rate_rps: f64, n: usize, warmup: usize) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ INPUT_SALT);
        let requests = Arc::new(web_kv_requests(&mut rng, n));
        let shape = poisson(&mut rng, rate_rps, n);
        Inputs {
            workload: Workload::WebKvOpen,
            seed,
            requests,
            shape,
            warmup,
        }
    }
}

/// `n` exponentially distributed durations with the given mean.
fn exponential(rng: &mut SmallRng, mean_s: f64, n: usize) -> Arc<Vec<SimDuration>> {
    Arc::new(
        (0..n)
            .map(|_| {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                SimDuration::from_secs_f64(-u.ln() * mean_s)
            })
            .collect(),
    )
}

/// Poisson arrivals at `rate_rps`.
fn poisson(rng: &mut SmallRng, rate_rps: f64, n: usize) -> Shape {
    Shape::Open {
        gaps: exponential(rng, 1.0 / rate_rps, n),
    }
}

/// `clients` closed-loop callers with exponential think times of mean
/// `think`, one drawn before each request.
fn closed(rng: &mut SmallRng, clients: usize, think: SimDuration, n: usize) -> Shape {
    Shape::Closed {
        clients,
        think: exponential(rng, think.as_secs_f64(), n + clients),
    }
}

/// Alternating web page / KV GET requests.
fn web_kv_requests(rng: &mut SmallRng, n: usize) -> Vec<Request> {
    let content = default_web_content(&SuiteConfig::default());
    let pages: Vec<(Bytes, Bytes)> = (0..WEB_PAGES)
        .map(|page| {
            let payload = Bytes::copy_from_slice(&page.to_be_bytes());
            let want = Bytes::from(content.reference_response(&payload));
            (payload, want)
        })
        .collect();
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                let (payload, want) = &pages[rng.gen_range(0..WEB_PAGES) as usize];
                Request {
                    workload_id: WEB_ID.0,
                    payload: payload.clone(),
                    expect: Expect::Exact(want.clone()),
                }
            } else {
                let id = rng.gen_range(0..KV_KEYS);
                Request {
                    workload_id: KV_GET_ID.0,
                    payload: get_request_payload(id),
                    expect: Expect::Exact(Bytes::from(format!("profile-record-{id:08}"))),
                }
            }
        })
        .collect()
}

/// A random `width` × `height` RGBA image, 4 bytes per pixel.
pub fn random_image(rng: &mut SmallRng, width: usize, height: usize) -> Bytes {
    Bytes::from(
        (0..width * height * 4)
            .map(|_| rng.gen::<u8>())
            .collect::<Vec<u8>>(),
    )
}

fn image_requests(rng: &mut SmallRng, n: usize) -> Vec<Request> {
    let variants: Vec<(Bytes, Bytes)> = (0..IMAGE_VARIANTS)
        .map(|_| {
            let (w, h) = (rng.gen_range(IMAGE_SIDES), rng.gen_range(IMAGE_SIDES));
            let img = random_image(rng, w, h);
            let want = Bytes::from(reference_response(&img));
            (img, want)
        })
        .collect();
    (0..n)
        .map(|i| {
            let (img, want) = &variants[i % IMAGE_VARIANTS];
            Request {
                workload_id: IMAGE_ID.0,
                payload: img.clone(),
                expect: Expect::Exact(want.clone()),
            }
        })
        .collect()
}

fn repkv_requests(rng: &mut SmallRng, n: usize) -> Vec<Request> {
    // Eight keys, 80% reads, Zipf(0.99) popularity.
    let mix = KvMix::new(8, 800, 990);
    (0..n)
        .map(|_| {
            let key = mix.sample_key(rng);
            let (payload, expect) = if mix.sample_read(rng) {
                (repkv_get_payload(key), Expect::RepKvGet { key })
            } else {
                let value = rng.gen::<u64>();
                (
                    repkv_put_payload(key, value),
                    Expect::RepKvPut { key, value },
                )
            };
            Request {
                workload_id: REPKV_WORKLOAD_ID,
                payload,
                expect,
            }
        })
        .collect()
}

fn tenant_requests(rng: &mut SmallRng, n: usize) -> Vec<Request> {
    let weights = zipf_weights(TENANTS as usize, TENANT_ZIPF_S);
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w;
            Some(*acc)
        })
        .collect();
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0..1.0);
            let i = cdf.partition_point(|&c| c <= u).min(cdf.len() - 1) as u32;
            Request {
                workload_id: tenant_workload_id(i).0,
                payload: Bytes::new(),
                expect: Expect::Exact(Bytes::copy_from_slice(&tenant_tag(i))),
            }
        })
        .collect()
}

/// How a testbed is observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// As users run it: the testbed's own invariant checker, nothing else.
    Plain,
    /// The checker behind a timing wrapper, plus the per-layer fold.
    Traced,
    /// No checker and no sinks, on the given engine.
    Bare(EngineMode),
}

/// Raft timers of the replicated-KV cell: the 15 ms read lease lapses
/// before the 20 ms election floor.
fn raft_cfg() -> RaftConfig {
    RaftConfig {
        election_timeout_min: SimDuration::from_millis(20),
        election_timeout_max: SimDuration::from_millis(40),
        heartbeat_interval: SimDuration::from_millis(5),
        read_lease: Some(SimDuration::from_millis(15)),
    }
}

/// Tenant `i` is tenant id `i + 1`; id 0 stays the untenanted default.
fn tenant_directory() -> TenantDirectory {
    let mut dir = TenantDirectory::new();
    for i in 0..TENANTS {
        dir.register(i + 1, TenantSpec::weighted(1.0));
        dir.assign(tenant_workload_id(i).0, i + 1);
    }
    dir
}

/// A testbed with its driver, ready to run.
pub struct Bed {
    /// The testbed.
    pub testbed: Testbed,
    /// The benchmark driver.
    pub driver: ComponentId,
    /// NPU parameters of the workers.
    pub nic: lnic_nic::NicParams,
}

/// Builds the workload's testbed: compile and preload the program,
/// populate the KV store, enable raft or tenancy, attach the driver.
pub fn setup(inputs: &Inputs, probe: Probe) -> Bed {
    let workload = inputs.workload;
    let mut config = TestbedConfig::new(BackendKind::Nic).seed(inputs.seed);
    if workload == Workload::RepKvClosed {
        config = config.workers(3);
        config.gateway.rpc_timeout = SimDuration::from_millis(50);
        config.gateway.rpc_attempts = 5;
        config.gateway = config.gateway.resilient();
    }
    if probe != Probe::Plain {
        config = config.without_invariant_checks();
    }
    if let Probe::Bare(engine) = probe {
        config = config.engine(engine);
    }
    let nic = config.nic.clone();
    let mut bed = build_testbed(config);
    if probe == Probe::Traced {
        bed.sim
            .add_trace_sink(Box::new(Timed::new(InvariantChecker::new())));
        bed.sim
            .add_trace_sink(Box::new(Timed::new(LayerSink::default())));
    }
    match workload {
        Workload::WebKvOpen | Workload::ImageClosed => {
            bed.preload(&Arc::new(benchmark_program(&SuiteConfig::default())));
            let kv = bed
                .sim
                .get_mut::<KvServer>(bed.kv_server)
                .expect("testbed has a memcached server");
            for id in 0..KV_KEYS {
                kv.insert(
                    format!("user:{id}"),
                    0,
                    Bytes::from(format!("profile-record-{id:08}")),
                );
            }
        }
        Workload::RepKvClosed => {
            bed.enable_replicated_kv(raft_cfg());
        }
        Workload::TenantsPaging => {
            // Pages live in EMEM and fault into the physical store on
            // demand, so the catalog compiles against an unbounded image.
            let opts = CompileOptions {
                instruction_store_words: 1 << 20,
                ..CompileOptions::optimized()
            };
            bed.preload_with(
                &Arc::new(tenant_fleet_program(TENANTS, TENANT_PAD_WORDS)),
                &opts,
            );
            bed.enable_tenancy(
                Arc::new(tenant_directory()),
                TenancyConfig {
                    cache_words: TENANT_CACHE_WORDS,
                    ..TenancyConfig::default()
                },
            );
        }
    }
    let driver = bed.sim.add(BenchDriver::new(
        bed.gateway,
        Arc::clone(&inputs.requests),
        inputs.shape.clone(),
    ));
    let start = if workload == Workload::RepKvClosed {
        REPKV_START
    } else {
        SimDuration::ZERO
    };
    bed.sim.post(driver, start, StartDriver);
    Bed {
        testbed: bed,
        driver,
        nic,
    }
}

/// Runs the simulation until every request has its reply and returns the
/// host seconds it took.
///
/// # Panics
///
/// Panics if the drive has not finished after a minute of simulated time.
pub fn drive(bed: &mut Bed) -> f64 {
    let t = Instant::now();
    let mut until = SimTime::ZERO;
    while !driver(bed).is_done() {
        until += STEP;
        assert!(
            until <= SimTime::ZERO + HORIZON,
            "drive still unfinished after {HORIZON:?} of simulated time"
        );
        bed.testbed.sim.run_until(until);
    }
    let wall = t.elapsed().as_secs_f64();
    bed.testbed.sim.finish_tracing();
    wall
}

/// The bed's driver.
pub fn driver(bed: &Bed) -> &BenchDriver {
    bed.testbed
        .sim
        .get::<BenchDriver>(bed.driver)
        .expect("driver attached")
}
