//! The memcached-style server component running on the master node
//! (§6.1.2: "M1 [runs the] memcached server").
//!
//! The server is a single-threaded event loop (like memcached's UDP
//! path): requests serialize through it with a per-operation service
//! time plus a per-byte cost for large values.

use bytes::Bytes;
use lnic_net::packet::Packet;
use lnic_sim::hash::FastHashMap;
use lnic_sim::prelude::*;

use crate::protocol::{Request, Response};

/// Service-time parameters.
#[derive(Clone, Copy, Debug)]
pub struct KvServerParams {
    /// Fixed per-operation service time (hash lookup, bookkeeping).
    pub per_op: SimDuration,
    /// Additional cost per KiB of value moved.
    pub per_kb: SimDuration,
    /// Memory cap for stored values; memcached-style LRU eviction keeps
    /// the store under it.
    pub max_bytes: usize,
}

impl Default for KvServerParams {
    fn default() -> Self {
        KvServerParams {
            per_op: SimDuration::from_micros(2),
            per_kb: SimDuration::from_nanos(300),
            max_bytes: 64 << 20,
        }
    }
}

/// Operation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KvCounters {
    /// GET requests served.
    pub gets: u64,
    /// GET hits.
    pub hits: u64,
    /// GET misses.
    pub misses: u64,
    /// SET requests served.
    pub sets: u64,
    /// DELETE requests served.
    pub deletes: u64,
    /// Unparseable requests.
    pub errors: u64,
    /// Values evicted by the LRU to stay under the memory cap.
    pub evictions: u64,
}

/// The key-value server component. Send it plain UDP [`Packet`]s whose
/// payloads carry the [`crate::protocol`] text protocol; it replies via
/// its uplink.
pub struct KvServer {
    params: KvServerParams,
    uplink: ComponentId,
    /// key -> (flags, value, last-use stamp); a higher stamp is more
    /// recent and no two entries share one.
    data: FastHashMap<String, (u32, Bytes, u64)>,
    clock: u64,
    stored_bytes: usize,
    counters: KvCounters,
    /// Single-threaded event loop occupancy.
    busy_until: SimTime,
}

impl KvServer {
    /// Creates a server replying through `uplink`.
    pub fn new(params: KvServerParams, uplink: ComponentId) -> Self {
        KvServer {
            params,
            uplink,
            data: FastHashMap::default(),
            clock: 0,
            stored_bytes: 0,
            counters: KvCounters::default(),
            busy_until: SimTime::ZERO,
        }
    }

    /// Pre-populates a key (experiment setup).
    pub fn insert(&mut self, key: impl Into<String>, flags: u32, value: Bytes) {
        self.store(key.into(), flags, value);
    }

    /// Bytes of value data currently resident.
    pub fn stored_bytes(&self) -> usize {
        self.stored_bytes
    }

    fn store(&mut self, key: String, flags: u32, value: Bytes) {
        self.stored_bytes += value.len();
        self.clock += 1;
        if let Some((_, old, _)) = self.data.insert(key, (flags, value, self.clock)) {
            self.stored_bytes -= old.len();
        }
        // Evict least-recently-used entries until under the cap.
        while self.stored_bytes > self.params.max_bytes && self.data.len() > 1 {
            let (victim, _) = self.data.iter().min_by_key(|(_, e)| e.2).expect("2+ keys");
            let (_, v, _) = self.data.remove(&victim.clone()).expect("victim is stored");
            self.stored_bytes -= v.len();
            self.counters.evictions += 1;
        }
    }

    /// Operation counters.
    pub fn counters(&self) -> KvCounters {
        self.counters
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    fn serve(
        &mut self,
        request: Result<Request, crate::protocol::ParseError>,
    ) -> (Response, usize) {
        match request {
            Ok(Request::Get { key }) => {
                self.counters.gets += 1;
                match self.data.get_mut(&key) {
                    Some((flags, value, stamp)) => {
                        self.counters.hits += 1;
                        self.clock += 1;
                        *stamp = self.clock;
                        let (flags, value) = (*flags, value.clone());
                        let len = value.len();
                        (Response::Value { key, flags, value }, len)
                    }
                    None => {
                        self.counters.misses += 1;
                        (Response::Miss, 0)
                    }
                }
            }
            Ok(Request::Set { key, flags, value }) => {
                self.counters.sets += 1;
                let len = value.len();
                self.store(key, flags, value);
                (Response::Stored, len)
            }
            Ok(Request::Delete { key }) => {
                self.counters.deletes += 1;
                match self.data.remove(&key) {
                    Some((_, v, _)) => {
                        self.stored_bytes -= v.len();
                        (Response::Deleted, 0)
                    }
                    None => (Response::NotFound, 0),
                }
            }
            Err(_) => {
                self.counters.errors += 1;
                (Response::Error, 0)
            }
        }
    }
}

impl Component for KvServer {
    fn name(&self) -> &str {
        "kv-server"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        let packet = msg.downcast::<Packet>().expect("kv server takes packets");
        let (response, value_bytes) = self.serve(Request::decode(&packet.payload));
        let service = self.params.per_op + self.params.per_kb.mul_f64(value_bytes as f64 / 1024.0);
        let start = self.busy_until.max(ctx.now());
        let done = start + service;
        self.busy_until = done;
        let reply = packet.reply_to().payload(response.encode()).build();
        ctx.send(self.uplink, done - ctx.now(), reply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnic_net::addr::{Ipv4Addr, MacAddr, SocketAddr};

    struct Sink {
        got: Vec<(SimTime, Packet)>,
    }
    impl Component for Sink {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
            self.got
                .push((ctx.now(), *msg.downcast::<Packet>().unwrap()));
        }
    }

    fn request_packet(req: &Request) -> Packet {
        Packet::builder()
            .eth(MacAddr::from_index(1), MacAddr::from_index(2))
            .udp(
                SocketAddr::new(Ipv4Addr::node(1), 9999),
                SocketAddr::new(Ipv4Addr::node(2), 11211),
            )
            .payload(req.encode())
            .build()
    }

    fn setup() -> (Simulation, ComponentId, ComponentId) {
        let mut sim = Simulation::new(5);
        let sink = sim.add(Sink { got: vec![] });
        let server = sim.add(KvServer::new(KvServerParams::default(), sink));
        (sim, server, sink)
    }

    #[test]
    fn set_then_get_round_trip() {
        let (mut sim, server, sink) = setup();
        sim.post(
            server,
            SimDuration::ZERO,
            request_packet(&Request::Set {
                key: "k".into(),
                flags: 3,
                value: Bytes::from_static(b"vvv"),
            }),
        );
        sim.post(
            server,
            SimDuration::from_micros(50),
            request_packet(&Request::Get { key: "k".into() }),
        );
        sim.run();
        let got = &sim.get::<Sink>(sink).unwrap().got;
        assert_eq!(got.len(), 2);
        assert_eq!(
            Response::decode(&got[0].1.payload).unwrap(),
            Response::Stored
        );
        assert_eq!(
            Response::decode(&got[1].1.payload).unwrap(),
            Response::Value {
                key: "k".into(),
                flags: 3,
                value: Bytes::from_static(b"vvv")
            }
        );
        let c = sim.get::<KvServer>(server).unwrap().counters();
        assert_eq!((c.sets, c.gets, c.hits, c.misses), (1, 1, 1, 0));
    }

    #[test]
    fn get_miss_and_delete_not_found() {
        let (mut sim, server, sink) = setup();
        sim.post(
            server,
            SimDuration::ZERO,
            request_packet(&Request::Get { key: "nope".into() }),
        );
        sim.post(
            server,
            SimDuration::ZERO,
            request_packet(&Request::Delete { key: "nope".into() }),
        );
        sim.run();
        let got = &sim.get::<Sink>(sink).unwrap().got;
        assert_eq!(Response::decode(&got[0].1.payload).unwrap(), Response::Miss);
        assert_eq!(
            Response::decode(&got[1].1.payload).unwrap(),
            Response::NotFound
        );
    }

    #[test]
    fn malformed_request_yields_error() {
        let (mut sim, server, sink) = setup();
        let mut pkt = request_packet(&Request::Get { key: "k".into() });
        pkt.payload = Bytes::from_static(b"bogus\r\n");
        sim.post(server, SimDuration::ZERO, pkt);
        sim.run();
        let got = &sim.get::<Sink>(sink).unwrap().got;
        assert_eq!(
            Response::decode(&got[0].1.payload).unwrap(),
            Response::Error
        );
        assert_eq!(sim.get::<KvServer>(server).unwrap().counters().errors, 1);
    }

    #[test]
    fn concurrent_requests_serialize_on_the_event_loop() {
        let (mut sim, server, sink) = setup();
        for _ in 0..4 {
            sim.post(
                server,
                SimDuration::ZERO,
                request_packet(&Request::Get { key: "x".into() }),
            );
        }
        sim.run();
        let times: Vec<u64> = sim
            .get::<Sink>(sink)
            .unwrap()
            .got
            .iter()
            .map(|(t, _)| t.as_nanos())
            .collect();
        // 2 us per op, serialized.
        assert_eq!(times, vec![2_000, 4_000, 6_000, 8_000]);
    }

    #[test]
    fn large_values_cost_more() {
        let (mut sim, server, sink) = setup();
        sim.get_mut::<KvServer>(server).unwrap().insert(
            "big",
            0,
            Bytes::from(vec![0u8; 100 * 1024]),
        );
        sim.post(
            server,
            SimDuration::ZERO,
            request_packet(&Request::Get { key: "big".into() }),
        );
        sim.run();
        let t = sim.get::<Sink>(sink).unwrap().got[0].0.as_nanos();
        // 2 us + 100 KiB * 300 ns/KiB = 32 us.
        assert_eq!(t, 32_000);
    }

    #[test]
    fn lru_evicts_least_recently_used_under_cap() {
        let mut sim = Simulation::new(5);
        let sink = sim.add(Sink { got: vec![] });
        let params = KvServerParams {
            max_bytes: 250,
            ..Default::default()
        };
        let server = sim.add(KvServer::new(params, sink));
        let srv = sim.get_mut::<KvServer>(server).unwrap();
        srv.insert("a", 0, Bytes::from(vec![0u8; 100]));
        srv.insert("b", 0, Bytes::from(vec![0u8; 100]));
        // Touch "a" so "b" is the LRU victim.
        sim.post(
            server,
            SimDuration::ZERO,
            request_packet(&Request::Get { key: "a".into() }),
        );
        sim.run();
        let srv = sim.get_mut::<KvServer>(server).unwrap();
        srv.insert("c", 0, Bytes::from(vec![0u8; 100]));
        assert_eq!(srv.counters().evictions, 1);
        assert_eq!(srv.len(), 2);
        assert!(srv.stored_bytes() <= 250);

        // "b" was evicted; "a" survived.
        sim.post(
            server,
            SimDuration::ZERO,
            request_packet(&Request::Get { key: "b".into() }),
        );
        sim.post(
            server,
            SimDuration::ZERO,
            request_packet(&Request::Get { key: "a".into() }),
        );
        sim.run();
        let got = &sim.get::<Sink>(sink).unwrap().got;
        let responses: Vec<Response> = got[1..]
            .iter()
            .map(|(_, p)| Response::decode(&p.payload).unwrap())
            .collect();
        assert_eq!(responses[0], Response::Miss);
        assert!(matches!(responses[1], Response::Value { .. }));
    }

    /// A server capped at three 100-byte values holding `a`, `b`, `c`
    /// stored in that order.
    fn capped_abc() -> (Simulation, ComponentId) {
        let mut sim = Simulation::new(5);
        let sink = sim.add(Sink { got: vec![] });
        let params = KvServerParams {
            max_bytes: 300,
            ..Default::default()
        };
        let server = sim.add(KvServer::new(params, sink));
        let srv = sim.get_mut::<KvServer>(server).unwrap();
        for key in ["a", "b", "c"] {
            srv.insert(key, 0, Bytes::from(vec![0u8; 100]));
        }
        (sim, server)
    }

    fn keys(srv: &KvServer) -> Vec<&str> {
        let mut keys: Vec<&str> = srv.data.keys().map(String::as_str).collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn miss_and_delete_keep_the_others_eviction_order() {
        let (mut sim, server) = capped_abc();
        for req in [
            Request::Get { key: "zz".into() },
            Request::Delete { key: "b".into() },
        ] {
            sim.post(server, SimDuration::ZERO, request_packet(&req));
        }
        sim.run();
        let srv = sim.get_mut::<KvServer>(server).unwrap();
        assert_eq!(keys(srv), ["a", "c"]);
        srv.insert("d", 0, Bytes::from(vec![0u8; 100]));
        assert_eq!(srv.counters().evictions, 0);
        // `a` is the oldest left, then `c`.
        srv.insert("e", 0, Bytes::from(vec![0u8; 100]));
        assert_eq!(keys(srv), ["c", "d", "e"]);
        srv.insert("f", 0, Bytes::from(vec![0u8; 100]));
        assert_eq!(keys(srv), ["d", "e", "f"]);
        assert_eq!(srv.counters().evictions, 2);
        assert_eq!(srv.stored_bytes(), 300);
    }

    #[test]
    fn reset_refreshes_recency_and_keeps_stored_bytes_exact() {
        let (mut sim, server) = capped_abc();
        sim.post(
            server,
            SimDuration::ZERO,
            request_packet(&Request::Set {
                key: "a".into(),
                flags: 7,
                value: Bytes::from(vec![1u8; 50]),
            }),
        );
        sim.run();
        let srv = sim.get_mut::<KvServer>(server).unwrap();
        assert_eq!((srv.len(), srv.stored_bytes()), (3, 250));
        // `b` is now the least recently used.
        srv.insert("d", 0, Bytes::from(vec![0u8; 100]));
        assert_eq!(keys(srv), ["a", "c", "d"]);
        assert_eq!(srv.stored_bytes(), 250);
        assert_eq!(srv.data["a"].0, 7);
        srv.insert("e", 0, Bytes::from(vec![0u8; 100]));
        assert_eq!(keys(srv), ["a", "d", "e"]);
        assert_eq!(srv.stored_bytes(), 250);
    }

    #[test]
    fn overwrite_and_delete_track_stored_bytes() {
        let mut sim = Simulation::new(5);
        let sink = sim.add(Sink { got: vec![] });
        let server = sim.add(KvServer::new(KvServerParams::default(), sink));
        let srv = sim.get_mut::<KvServer>(server).unwrap();
        srv.insert("k", 0, Bytes::from(vec![0u8; 100]));
        srv.insert("k", 0, Bytes::from(vec![0u8; 40]));
        assert_eq!(srv.stored_bytes(), 40);
        sim.post(
            server,
            SimDuration::ZERO,
            request_packet(&Request::Delete { key: "k".into() }),
        );
        sim.run();
        assert_eq!(sim.get::<KvServer>(server).unwrap().stored_bytes(), 0);
    }

    #[test]
    fn preload_reports_length() {
        let (mut sim, server, _) = setup();
        assert!(sim.get::<KvServer>(server).unwrap().is_empty());
        sim.get_mut::<KvServer>(server)
            .unwrap()
            .insert("a", 0, Bytes::new());
        assert_eq!(sim.get::<KvServer>(server).unwrap().len(), 1);
    }
}
