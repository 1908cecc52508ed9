//! The benchmark's load generator: replays a request list generated from
//! the seed, open or closed loop, and checks every response it receives.
//!
//! The program's own drivers drop `RequestDone::response`; this one keeps
//! the client's view of each request: sojourn from the moment it was due,
//! the gateway-measured wire latency, and whether the reply was correct.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use bytes::Bytes;
use lnic::prelude::*;
use lnic_sim::prelude::*;
use lnic_workloads::kv::decode_repkv_get_response;

/// What a correct reply to a request is.
#[derive(Clone, Debug)]
pub enum Expect {
    /// Exactly these bytes.
    Exact(Bytes),
    /// A replicated-KV read of `key`: a value some client wrote to `key`,
    /// or "not found" while no write to `key` has been acknowledged.
    RepKvGet {
        /// The key read.
        key: u32,
    },
    /// A replicated-KV write of `value` to `key`: an empty reply.
    RepKvPut {
        /// The key written.
        key: u32,
        /// The value written; it doubles as the write's unique id.
        value: u64,
    },
}

/// One generated request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Target workload.
    pub workload_id: u32,
    /// Request payload.
    pub payload: Bytes,
    /// The reply that counts as correct.
    pub expect: Expect,
}

/// How requests are offered to the gateway.
#[derive(Clone, Debug)]
pub enum Shape {
    /// Open loop: request `i` is due `gaps[0] + … + gaps[i]` after the
    /// start, whether or not earlier requests have finished.
    Open {
        /// Inter-arrival gaps, one per request.
        gaps: Arc<Vec<SimDuration>>,
    },
    /// Closed loop: each client thinks, sends the next request of the
    /// shared list, and waits for its reply before thinking again.
    Closed {
        /// Concurrent clients.
        clients: usize,
        /// Think times, drawn in the order clients start thinking.
        think: Arc<Vec<SimDuration>>,
    },
}

/// One finished request as its client saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Index into the request list.
    pub index: usize,
    /// Due (open loop) or submitted (closed loop) to reply.
    pub sojourn: SimDuration,
    /// Gateway-measured wire-to-wire latency.
    pub latency: SimDuration,
    /// Simulated time the reply reached the client.
    pub at: SimTime,
    /// The transport gave up, the request was shed, or the lambda failed.
    pub failed: bool,
    /// A reply arrived but its content is not the correct one.
    pub wrong: bool,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

#[derive(Debug)]
struct Arrival;

#[derive(Debug)]
struct NextSubmit;

/// The benchmark driver component.
pub struct BenchDriver {
    gateway: ComponentId,
    requests: Arc<Vec<Request>>,
    shape: Shape,
    next: usize,
    submitted_at: Vec<SimTime>,
    started_at: Option<SimTime>,
    /// Closed loop: think times handed out so far.
    thinks: usize,
    outcomes: Vec<Outcome>,
    /// Replicated KV: every value submitted for a key, acknowledged or not.
    written: HashMap<u32, HashSet<u64>>,
    /// Replicated KV: when the first write to a key was acknowledged.
    first_ack: HashMap<u32, SimTime>,
    acked_writes: Vec<u64>,
    /// FNV-1a 64 over every reply, in completion order.
    reply_digest: u64,
}

impl BenchDriver {
    /// A driver replaying `requests` through `gateway`.
    pub fn new(gateway: ComponentId, requests: Arc<Vec<Request>>, shape: Shape) -> Self {
        let n = requests.len();
        BenchDriver {
            gateway,
            requests,
            shape,
            next: 0,
            submitted_at: vec![SimTime::ZERO; n],
            started_at: None,
            thinks: 0,
            outcomes: Vec::with_capacity(n),
            written: HashMap::new(),
            first_ack: HashMap::new(),
            acked_writes: Vec::new(),
            reply_digest: FNV_OFFSET,
        }
    }

    /// Whether every request has its reply.
    pub fn is_done(&self) -> bool {
        self.outcomes.len() == self.requests.len()
    }

    /// Finished requests in completion order.
    pub fn outcomes(&self) -> &[Outcome] {
        &self.outcomes
    }

    /// When the driver started.
    pub fn started_at(&self) -> Option<SimTime> {
        self.started_at
    }

    /// FNV-1a 64 over every reply received, in completion order.
    pub fn reply_digest(&self) -> u64 {
        self.reply_digest
    }

    /// Values of replicated-KV writes the gateway acknowledged.
    pub fn acked_writes(&self) -> &[u64] {
        &self.acked_writes
    }

    fn submit(&mut self, ctx: &mut Ctx<'_>) {
        let index = self.next;
        self.next += 1;
        let req = &self.requests[index];
        if let Expect::RepKvPut { key, value } = req.expect {
            self.written.entry(key).or_default().insert(value);
        }
        self.submitted_at[index] = ctx.now();
        let self_id = ctx.self_id();
        ctx.send(
            self.gateway,
            SimDuration::ZERO,
            SubmitRequest {
                workload_id: req.workload_id,
                payload: req.payload.clone(),
                reply_to: self_id,
                token: index as u64,
            },
        );
    }

    fn schedule_arrival(&self, ctx: &mut Ctx<'_>) {
        if let Shape::Open { gaps } = &self.shape {
            if self.next < gaps.len() {
                ctx.send_self(gaps[self.next], Arrival);
            }
        }
    }

    /// Closed loop: one client starts thinking before its next request.
    fn think(&mut self, ctx: &mut Ctx<'_>) {
        if let Shape::Closed { think, .. } = &self.shape {
            let pause = think[self.thinks % think.len()];
            self.thinks += 1;
            ctx.send_self(pause, NextSubmit);
        }
    }

    /// Whether `response` is the correct reply to request `index`.
    fn is_correct(&self, index: usize, response: &Bytes) -> bool {
        match self.requests[index].expect {
            Expect::Exact(ref want) => response == want,
            Expect::RepKvPut { .. } => response.is_empty(),
            Expect::RepKvGet { key } => match decode_repkv_get_response(response) {
                None => false,
                Some((true, value)) => self.written.get(&key).is_some_and(|w| w.contains(&value)),
                Some((false, _)) => self
                    .first_ack
                    .get(&key)
                    .is_none_or(|&acked| acked >= self.submitted_at[index]),
            },
        }
    }

    fn on_done(&mut self, ctx: &mut Ctx<'_>, done: RequestDone) {
        let index = done.token as usize;
        let failed = done.failed || done.return_code != Some(0);
        let wrong = !failed && !self.is_correct(index, &done.response);
        for &b in done.token.to_le_bytes().iter().chain(&done.response[..]) {
            self.reply_digest = (self.reply_digest ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        if let Expect::RepKvPut { key, value } = self.requests[index].expect {
            if !failed && !wrong {
                self.acked_writes.push(value);
                self.first_ack.entry(key).or_insert(ctx.now());
            }
        }
        self.outcomes.push(Outcome {
            index,
            sojourn: ctx.now() - self.submitted_at[index],
            latency: done.latency,
            at: ctx.now(),
            failed,
            wrong,
        });
        self.think(ctx);
    }
}

impl Component for BenchDriver {
    fn name(&self) -> &str {
        "bench-driver"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        if msg.is::<StartDriver>() {
            self.started_at = Some(ctx.now());
            match self.shape {
                Shape::Open { .. } => self.schedule_arrival(ctx),
                Shape::Closed { clients, .. } => {
                    for _ in 0..clients {
                        self.think(ctx);
                    }
                }
            }
            return;
        }
        if msg.is::<Arrival>() {
            self.submit(ctx);
            self.schedule_arrival(ctx);
            return;
        }
        if msg.is::<NextSubmit>() {
            if self.next < self.requests.len() {
                self.submit(ctx);
            }
            return;
        }
        match msg.downcast::<RequestDone>() {
            Ok(done) => self.on_done(ctx, *done),
            Err(other) => panic!("bench driver received unknown message {other:?}"),
        }
    }
}
