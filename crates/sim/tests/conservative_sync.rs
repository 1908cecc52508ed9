//! Property tests for the sharded engine's conservative synchronization.
//!
//! Random shard topologies, link delays, and event schedules are thrown
//! at the engine, and three properties must hold for every one of them:
//!
//! 1. **Causality** — no cross-shard event is ever delivered below the
//!    sender's clock plus the lookahead, and every delivery lands at
//!    exactly the time the sender computed under the flooring rule
//!    (cross-shard delays below the lookahead are raised to it).
//! 2. **Per-component monotonicity** — each component observes a
//!    non-decreasing clock across its deliveries.
//! 3. **Thread-count invariance** — the same topology and seed produce
//!    byte-identical trace records, delivery logs, and final clocks at
//!    1, 2, and 4 executor threads, and the shard-buffered records merge
//!    in time order, as a serial run emits them.
//!
//! The engine additionally self-checks (`conservative sync violated`
//! assertions at both merge points); any violation panics the run and
//! fails the property.

use lnic_sim::prelude::*;
use proptest::prelude::*;
use rand::Rng;

/// A hop through the random relay mesh. The sender pre-computes the
/// exact delivery time the engine's flooring rule implies; the receiver
/// asserts it.
#[derive(Debug)]
struct Hop {
    expected_at: SimTime,
    ttl: u32,
}

/// Relay node on a random mesh: verifies its delivery times, then
/// forwards to an RNG-chosen peer.
struct Node {
    shard: usize,
    lookahead: SimDuration,
    /// `(peer, peer's shard, requested delay)` — delays may be below the
    /// lookahead on purpose; the engine must floor cross-shard ones.
    peers: Vec<(ComponentId, usize, SimDuration)>,
    seen: Vec<(u64, u32)>,
    last_now: SimTime,
}

impl Component for Node {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        let hop = msg.downcast::<Hop>().expect("mesh only carries Hop");
        let now = ctx.now();
        assert!(
            now >= self.last_now,
            "component clock went backwards: {now:?} after {:?}",
            self.last_now
        );
        self.last_now = now;
        assert_eq!(
            now, hop.expected_at,
            "delivery at {now:?}, sender computed {:?}",
            hop.expected_at
        );
        assert_eq!(ctx.shard(), self.shard, "component ran on a foreign shard");
        self.seen.push((now.as_nanos(), hop.ttl));
        let (ttl, shard) = (u64::from(hop.ttl), self.shard as u64);
        ctx.emit(|| TraceEvent::Mark {
            label: "hop",
            a: ttl,
            b: shard,
        });
        if hop.ttl == 0 || self.peers.is_empty() {
            return;
        }
        let pick = ctx.rng().gen_range(0..self.peers.len());
        let (peer, peer_shard, delay) = self.peers[pick];
        let effective = if peer_shard != self.shard && delay < self.lookahead {
            self.lookahead
        } else {
            delay
        };
        ctx.send(
            peer,
            delay,
            Hop {
                expected_at: now + effective,
                ttl: hop.ttl - 1,
            },
        );
    }
}

/// Cheap deterministic mixer for deriving topology choices from the
/// proptest-drawn topology seed.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Collects the hop marks in the order the tracer received them:
/// `(at, component index, ttl, shard)`.
#[derive(Default)]
struct Marks(Vec<(SimTime, usize, u64, u64)>);

impl TraceSink for Marks {
    fn on_record(&mut self, rec: &TraceRecord) {
        if let TraceEvent::Mark { a, b, .. } = rec.event {
            self.0.push((rec.at, rec.src.index(), a, b));
        }
    }
}

struct RunLog {
    trace: Vec<(SimTime, usize, u64, u64)>,
    seen: Vec<Vec<(u64, u32)>>,
    processed: u64,
    end: SimTime,
}

/// Builds the random mesh drawn from the scalar inputs and runs it on
/// `threads` executor threads.
#[allow(clippy::too_many_arguments)]
fn run_mesh(
    seed: u64,
    topo_seed: u64,
    shards: usize,
    nodes_per_shard: usize,
    lookahead_ns: u64,
    fanout: usize,
    starts: usize,
    ttl: u32,
    threads: usize,
) -> RunLog {
    let lookahead = SimDuration::from_nanos(lookahead_ns);
    let mut sim = Simulation::new(seed);
    sim.add_trace_sink(Box::new(Marks::default()));
    sim.set_threads(threads);

    let mut plan = ShardPlan::new(shards, lookahead);
    let mut ids = Vec::new();
    let mut shard_of = Vec::new();
    for shard in 0..shards {
        for _ in 0..nodes_per_shard {
            let id = sim.add(Node {
                shard,
                lookahead,
                peers: Vec::new(),
                seen: Vec::new(),
                last_now: SimTime::ZERO,
            });
            plan.assign(id, shard);
            ids.push(id);
            shard_of.push(shard);
        }
    }

    // Random peer lists: `fanout` edges per node, random targets and
    // delays (0..2·lookahead, so roughly half the cross-shard edges
    // exercise the flooring rule).
    let mut state = topo_seed;
    for i in 0..ids.len() {
        let mut peers = Vec::with_capacity(fanout);
        for _ in 0..fanout {
            let j = (mix(&mut state) as usize) % ids.len();
            let delay = SimDuration::from_nanos(mix(&mut state) % (2 * lookahead_ns));
            peers.push((ids[j], shard_of[j], delay));
        }
        sim.get_mut::<Node>(ids[i]).expect("node").peers = peers;
    }
    sim.set_shard_plan(plan);

    // Random initial schedule: `starts` seed events at random times on
    // random nodes.
    for _ in 0..starts {
        let i = (mix(&mut state) as usize) % ids.len();
        let at = SimDuration::from_nanos(mix(&mut state) % (4 * lookahead_ns));
        sim.post(
            ids[i],
            at,
            Hop {
                expected_at: SimTime::ZERO + at,
                ttl,
            },
        );
    }
    sim.run();

    RunLog {
        trace: sim.trace_sink::<Marks>().expect("marks sink").0.clone(),
        seen: ids
            .iter()
            .map(|&id| sim.get::<Node>(id).expect("node").seen.clone())
            .collect(),
        processed: sim.events_processed(),
        end: sim.now(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_topologies_never_violate_conservative_sync(
        seed in 0u64..1_000,
        topo_seed in 0u64..1_000,
        shards in 2usize..6,
        nodes_per_shard in 1usize..4,
        lookahead_ns in 50u64..800,
        fanout in 1usize..4,
        starts in 1usize..6,
        ttl in 1u32..12,
    ) {
        // Causality and monotonicity are asserted inside every handler
        // (plus the engine's own merge-point assertions); the run
        // completing is the property.
        let base = run_mesh(seed, topo_seed, shards, nodes_per_shard,
                            lookahead_ns, fanout, starts, ttl, 1);
        prop_assert!(base.processed > 0, "mesh must actually run");
        prop_assert_eq!(base.trace.len() as u64, base.processed, "one mark per delivery");
        prop_assert!(
            base.trace.windows(2).all(|w| w[0].0 <= w[1].0),
            "shard-buffered marks merge in time order, as a serial run emits them"
        );

        // The identical schedule must replay bit-for-bit on parallel
        // executors.
        for threads in [2usize, 4] {
            let run = run_mesh(seed, topo_seed, shards, nodes_per_shard,
                               lookahead_ns, fanout, starts, ttl, threads);
            prop_assert_eq!(run.processed, base.processed, "event count at {} threads", threads);
            prop_assert_eq!(run.end, base.end, "final clock at {} threads", threads);
            prop_assert_eq!(&run.trace, &base.trace, "trace records at {} threads", threads);
            prop_assert_eq!(&run.seen, &base.seen, "delivery logs at {} threads", threads);
        }
    }
}
