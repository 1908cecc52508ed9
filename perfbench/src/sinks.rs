//! Trace sinks that live in the benchmark: a timing wrapper for any sink,
//! and a fold of the program's structured events into per-layer counts
//! and spans.

use std::collections::HashMap;
use std::time::Instant;

use lnic_sim::prelude::*;

/// Wraps a sink and accumulates the host time spent inside it.
pub struct Timed<S> {
    /// The wrapped sink.
    pub inner: S,
    /// Host nanoseconds spent in `on_record` and `on_finish`.
    pub ns: u64,
}

impl<S> Timed<S> {
    /// Wraps `inner` with a zeroed clock.
    pub fn new(inner: S) -> Self {
        Timed { inner, ns: 0 }
    }
}

impl<S: TraceSink> TraceSink for Timed<S> {
    fn on_record(&mut self, rec: &TraceRecord) {
        let t = Instant::now();
        self.inner.on_record(rec);
        self.ns += t.elapsed().as_nanos() as u64;
    }

    fn on_finish(&mut self, now: SimTime) {
        let t = Instant::now();
        self.inner.on_finish(now);
        self.ns += t.elapsed().as_nanos() as u64;
    }
}

/// Memory levels in `MemCharge` order of the report.
pub const MEM_LEVELS: [&str; 4] = ["LMEM", "CTM", "IMEM", "EMEM"];

/// One gateway request's NIC-side spans, joined on its request id.
#[derive(Default)]
struct Span {
    first_start: Option<SimTime>,
    last_finish: Option<SimTime>,
    running_since: Option<SimTime>,
    suspended_since: Option<SimTime>,
    busy_ns: u64,
    suspended_ns: u64,
}

/// Folds the trace into per-layer counts and span durations.
#[derive(Default)]
pub struct LayerSink {
    spans: HashMap<u64, Span>,
    kv_invokes: HashMap<u64, (SimTime, bool)>,
    /// `RequestRetransmit` events.
    pub retransmits: u64,
    /// Wire send to first `ExecStart`, per request.
    pub ingress_ns: Vec<u64>,
    /// Last `ExecFinish` to the gateway's completion, per request.
    pub egress_ns: Vec<u64>,
    /// Largest `|latency − (ingress + busy + suspended + egress)|`.
    pub unattributed_max_ns: u64,
    /// A request's first `ExecStart` to each of its `ExecFinish` events.
    pub exec_ns: Vec<u64>,
    /// `ExecSuspend` to `ExecResume`, per suspension.
    pub suspend_ns: Vec<u64>,
    /// Executions finished.
    pub execs: u64,
    /// Sum of `ExecFinish.total_cycles`.
    pub total_cycles: u64,
    /// Sum of `ExecFinish.overhead_cycles`.
    pub overhead_cycles: u64,
    /// Sum of `ExecFinish.instr_cycles`.
    pub instr_cycles: u64,
    /// Memory cycles charged per level of [`MEM_LEVELS`].
    pub mem_cycles: [u64; 4],
    /// `WfqEnqueue` events.
    pub wfq_enqueues: u64,
    /// Deepest per-lambda queue seen at an enqueue.
    pub wfq_depth_max: u64,
    /// `LinkTx` frames.
    pub frames: u64,
    /// `LinkTx` bytes.
    pub bytes: u64,
    /// `LinkDrop` plus `SwitchDrop` events.
    pub drops: u64,
    /// `FirmwareFault` events.
    pub firmware_faults: u64,
    /// `FirmwareEvict` events.
    pub firmware_evictions: u64,
    /// Successful replicated-KV reads, `KvInvoke` to `KvResponse`.
    pub kv_read_ns: Vec<u64>,
    /// Successful replicated-KV writes, `KvInvoke` to `KvResponse`.
    pub kv_write_ns: Vec<u64>,
}

impl LayerSink {
    fn complete(&mut self, at: SimTime, request_id: u64, latency_ns: u64) {
        let span = self.spans.remove(&request_id).unwrap_or_default();
        let wire = at.as_nanos() - latency_ns;
        let mut attributed = 0;
        if let (Some(start), Some(finish)) = (span.first_start, span.last_finish) {
            let ingress = start.as_nanos().saturating_sub(wire);
            let egress = at.as_nanos().saturating_sub(finish.as_nanos());
            self.ingress_ns.push(ingress);
            self.egress_ns.push(egress);
            attributed = ingress + span.busy_ns + span.suspended_ns + egress;
        }
        self.unattributed_max_ns = self
            .unattributed_max_ns
            .max(latency_ns.abs_diff(attributed));
    }
}

impl TraceSink for LayerSink {
    fn on_record(&mut self, rec: &TraceRecord) {
        let at = rec.at;
        match rec.event {
            TraceEvent::RequestSubmitted { request_id, .. } => {
                self.spans.insert(request_id, Span::default());
            }
            TraceEvent::RequestRetransmit { .. } => self.retransmits += 1,
            TraceEvent::RequestCompleted {
                request_id,
                latency_ns,
                failed,
                ..
            } => {
                if failed {
                    self.spans.remove(&request_id);
                } else {
                    self.complete(at, request_id, latency_ns);
                }
            }
            TraceEvent::ExecStart { request_id, .. } => {
                if let Some(s) = self.spans.get_mut(&request_id) {
                    s.first_start.get_or_insert(at);
                    s.running_since = Some(at);
                }
            }
            TraceEvent::ExecSuspend { request_id, .. } => {
                if let Some(s) = self.spans.get_mut(&request_id) {
                    if let Some(run) = s.running_since.take() {
                        s.busy_ns += at.as_nanos() - run.as_nanos();
                    }
                    s.suspended_since = Some(at);
                }
            }
            TraceEvent::ExecResume { request_id, .. } => {
                if let Some(s) = self.spans.get_mut(&request_id) {
                    if let Some(sus) = s.suspended_since.take() {
                        let d = at.as_nanos() - sus.as_nanos();
                        s.suspended_ns += d;
                        self.suspend_ns.push(d);
                    }
                    s.running_since = Some(at);
                }
            }
            TraceEvent::ExecFinish {
                request_id,
                total_cycles,
                overhead_cycles,
                instr_cycles,
                ..
            } => {
                self.execs += 1;
                self.total_cycles += total_cycles;
                self.overhead_cycles += overhead_cycles;
                self.instr_cycles += instr_cycles;
                if let Some(s) = self.spans.get_mut(&request_id) {
                    if let Some(run) = s.running_since.take() {
                        s.busy_ns += at.as_nanos() - run.as_nanos();
                    }
                    if let Some(start) = s.first_start {
                        self.exec_ns.push(at.as_nanos() - start.as_nanos());
                    }
                    s.last_finish = Some(at);
                }
            }
            TraceEvent::MemCharge { level, cycles, .. } => {
                if let Some(i) = MEM_LEVELS.iter().position(|&l| l == level) {
                    self.mem_cycles[i] += cycles;
                }
            }
            TraceEvent::WfqEnqueue { depth, .. } => {
                self.wfq_enqueues += 1;
                self.wfq_depth_max = self.wfq_depth_max.max(depth);
            }
            TraceEvent::LinkTx { bytes } => {
                self.frames += 1;
                self.bytes += bytes;
            }
            TraceEvent::LinkDrop { .. } | TraceEvent::SwitchDrop { .. } => self.drops += 1,
            TraceEvent::FirmwareFault { .. } => self.firmware_faults += 1,
            TraceEvent::FirmwareEvict { .. } => self.firmware_evictions += 1,
            TraceEvent::KvInvoke {
                request_id, write, ..
            } => {
                self.kv_invokes.insert(request_id, (at, write));
            }
            TraceEvent::KvResponse { request_id, ok, .. } => {
                if let Some((t0, write)) = self.kv_invokes.remove(&request_id) {
                    if ok {
                        let d = at.as_nanos() - t0.as_nanos();
                        if write {
                            self.kv_write_ns.push(d);
                        } else {
                            self.kv_read_ns.push(d);
                        }
                    }
                }
            }
            _ => {}
        }
    }
}
