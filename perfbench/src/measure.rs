//! What one drive measured in simulated time, and the SLO-rate ladder.

use lnic::repkv::RepKvReplica;
use lnic_raft::Role;
use lnic_sim::prelude::*;

use crate::driver::Shape;
use crate::sinks::Timed;
use crate::stats::{quantile, ratio, supported_quantile};
use crate::workload::{drive, driver, setup, Bed, Inputs, Probe};

/// The simulated outcome of one drive: deterministic for a seed.
#[derive(Clone, Debug, PartialEq)]
pub struct SimResult {
    /// Requests generated.
    pub attempted: usize,
    /// Requests that failed or were shed.
    pub failed: usize,
    /// Requests answered with a wrong reply.
    pub wrong: usize,
    /// Sojourns of successful post-warmup requests, ascending (ns).
    pub sojourn_ns: Vec<u64>,
    /// Gateway queueing (`sojourn − latency`) of the same requests (ns).
    pub queue_ns: Vec<u64>,
    /// Successful requests.
    pub ok: usize,
    /// Driver start to last reply, in simulated seconds.
    pub window_s: f64,
    /// Engine events processed.
    pub events: u64,
    /// Acknowledged replicated-KV writes missing from the leader's store.
    pub lost_writes: usize,
    /// Acknowledged replicated-KV writes.
    pub acked_writes: usize,
    /// Digest of every reply: differs whenever the outputs do.
    pub reply_digest: u64,
}

impl SimResult {
    /// Reads a finished drive.
    pub fn collect(bed: &Bed, warmup: usize) -> Self {
        let d = driver(bed);
        let outcomes = d.outcomes();
        let mut sojourn_ns = Vec::new();
        let mut queue_ns = Vec::new();
        let (mut failed, mut wrong, mut ok) = (0, 0, 0);
        for o in outcomes {
            if o.failed {
                failed += 1;
            } else if o.wrong {
                wrong += 1;
            } else {
                ok += 1;
                if o.index >= warmup {
                    sojourn_ns.push(o.sojourn.as_nanos());
                    queue_ns.push(o.sojourn.as_nanos() - o.latency.as_nanos());
                }
            }
        }
        sojourn_ns.sort_unstable();
        queue_ns.sort_unstable();
        let start = d.started_at().expect("driver started");
        let end = outcomes.iter().map(|o| o.at).max().unwrap_or(start);
        let window_s = end.saturating_duration_since(start).as_secs_f64();
        let acked = d.acked_writes();
        SimResult {
            attempted: outcomes.len(),
            failed,
            wrong,
            sojourn_ns,
            queue_ns,
            ok,
            window_s,
            events: bed.testbed.sim.events_processed(),
            lost_writes: lost_writes(bed, acked),
            acked_writes: acked.len(),
            reply_digest: d.reply_digest(),
        }
    }

    /// Pools the results of independent drives into one.
    pub fn pool(parts: Vec<SimResult>) -> SimResult {
        let mut all = parts.into_iter();
        let mut p = all.next().expect("at least one part");
        for r in all {
            p.attempted += r.attempted;
            p.failed += r.failed;
            p.wrong += r.wrong;
            p.sojourn_ns.extend(r.sojourn_ns);
            p.queue_ns.extend(r.queue_ns);
            p.ok += r.ok;
            p.window_s += r.window_s;
            p.events += r.events;
            p.lost_writes += r.lost_writes;
            p.acked_writes += r.acked_writes;
            p.reply_digest = p.reply_digest.rotate_left(5) ^ r.reply_digest;
        }
        p.sojourn_ns.sort_unstable();
        p.queue_ns.sort_unstable();
        p
    }

    /// Successful completions per simulated second over the active window.
    pub fn goodput_rps(&self) -> f64 {
        ratio(self.ok as f64, self.window_s)
    }

    /// Sojourn percentile in microseconds; `q` is lowered until ten
    /// samples lie beyond it.
    pub fn sojourn_us(&self, q: f64) -> f64 {
        if self.sojourn_ns.is_empty() {
            return 0.0;
        }
        let q = supported_quantile(self.sojourn_ns.len(), q);
        quantile(&self.sojourn_ns, q) as f64 / 1e3
    }

    /// Failed, shed and wrong requests over requests attempted.
    pub fn failed_frac(&self) -> f64 {
        ratio((self.failed + self.wrong) as f64, self.attempted as f64)
    }
}

/// Acknowledged writes absent from the current leader's replicated store
/// (0 outside the replicated-KV workload).
fn lost_writes(bed: &Bed, acked: &[u64]) -> usize {
    if acked.is_empty() {
        return 0;
    }
    let leader = bed.testbed.repkv_replicas.iter().find_map(|&id| {
        let raft = bed.testbed.sim.get::<RepKvReplica>(id)?.raft()?;
        (raft.role() == Role::Leader && !raft.is_crashed()).then_some(raft)
    });
    match leader {
        Some(raft) => acked.iter().filter(|&&uid| !raft.kv().has_uid(uid)).count(),
        None => acked.len(),
    }
}

/// Invariant-checker records and host nanoseconds, from whichever checker
/// the probe attached.
pub fn checker_stats(bed: &Bed) -> (u64, u64) {
    let sim = &bed.testbed.sim;
    if let Some(c) = sim.trace_sink::<Timed<InvariantChecker>>() {
        (c.inner.records(), c.ns)
    } else if let Some(c) = sim.trace_sink::<InvariantChecker>() {
        (c.records(), 0)
    } else {
        (0, 0)
    }
}

/// The p99 sojourn limit of the SLO ladder: about the bare-metal
/// backend's median in the paper's Fig 6.
pub const SLO_P99_US: f64 = 250.0;
/// A rung passes only while goodput keeps up with this share of the
/// rate its arrivals offered (no growing backlog).
pub const SLO_GOODPUT_SHARE: f64 = 0.98;
/// Lowest rung of the ladder (req/s).
const LADDER_BASE_RPS: f64 = 20_000.0;
/// Ratio between neighbouring rungs.
const LADDER_STEP: f64 = 1.025;
/// Rungs: 20k up to the 58,824 req/s proxy ceiling.
const LADDER_RUNGS: u32 = 44;
/// Requests per rung and the warmup excluded from its p99.
const RUNG_REQUESTS: usize = 32_000;
const RUNG_WARMUP: usize = 1_000;

/// One evaluated rung.
#[derive(Clone, Copy, Debug)]
pub struct Rung {
    /// Offered rate (req/s).
    pub rate_rps: f64,
    /// p99 sojourn (µs).
    pub p99_us: f64,
    /// Goodput (req/s).
    pub goodput_rps: f64,
    /// Whether the rung meets the SLO.
    pub pass: bool,
}

/// Offered rate of rung `k`.
fn rung_rate(k: u32) -> f64 {
    (LADDER_BASE_RPS * LADDER_STEP.powi(k as i32)).round()
}

fn eval_rung(seed: u64, k: u32) -> Rung {
    let rate_rps = rung_rate(k);
    let inputs = Inputs::web_kv_at(seed, rate_rps, RUNG_REQUESTS, RUNG_WARMUP);
    let mut bed = setup(&inputs, Probe::Plain);
    drive(&mut bed);
    let r = SimResult::collect(&bed, RUNG_WARMUP);
    let p99_us = r.sojourn_us(0.99);
    let goodput_rps = r.goodput_rps();
    // Backlog is judged against the rate this sample path offered, which
    // differs from the rung's nominal rate by the Poisson draw.
    let Shape::Open { gaps } = &inputs.shape else {
        unreachable!("ladder rungs are open loop")
    };
    let offered_s: f64 = gaps.iter().map(|g| g.as_secs_f64()).sum();
    let offered_rps = gaps.len() as f64 / offered_s;
    let pass = r.failed == 0
        && r.wrong == 0
        && p99_us <= SLO_P99_US
        && goodput_rps >= SLO_GOODPUT_SHARE * offered_rps;
    Rung {
        rate_rps,
        p99_us,
        goodput_rps,
        pass,
    }
}

/// The highest rung of the fixed web + KV ladder that meets the SLO,
/// found by bisection (p99 grows with offered load), and every rung it
/// evaluated. 0 when even the lowest rung fails.
pub fn slo_rate(seed: u64) -> (f64, Vec<Rung>) {
    let mut tried = Vec::new();
    let (mut lo, mut hi) = (None::<u32>, LADDER_RUNGS);
    let mut below = 0;
    while below < hi {
        let mid = (below + hi) / 2;
        let rung = eval_rung(seed, mid);
        tried.push(rung);
        if rung.pass {
            lo = Some(mid);
            below = mid + 1;
        } else {
            hi = mid;
        }
    }
    (lo.map_or(0.0, rung_rate), tried)
}
