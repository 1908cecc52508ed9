//! The reference interpreter for Match+Lambda programs.
//!
//! The interpreter gives lambdas real semantics: the same IR both produces
//! functional results (web pages, key-value responses, transformed images)
//! and yields the execution statistics ([`ExecStats`]) that the NIC and
//! host models convert into virtual time. Execution is resumable across
//! [`Instr::NetRpc`] suspension points so the discrete-event simulation
//! can park an NPU thread while a dependent RPC is in flight.

use std::sync::Arc;

use bytes::{Bytes, BytesMut};

use crate::ir::{FuncRef, Instr, Width, RET_REG};
use crate::program::{Lambda, Program};

/// Maximum call depth (NPUs have a tiny fixed call stack).
pub const MAX_CALL_DEPTH: usize = 16;

/// The header values visible to a lambda for one request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeaderValues {
    /// λ-NIC workload id.
    pub workload_id: u32,
    /// λ-NIC request id.
    pub request_id: u64,
    /// Fragment index.
    pub frag_index: u16,
    /// Fragment count.
    pub frag_count: u16,
    /// Return code (responses only).
    pub return_code: u16,
    /// IPv4 source.
    pub src_ip: u32,
    /// IPv4 destination.
    pub dst_ip: u32,
    /// UDP source port.
    pub src_port: u16,
    /// UDP destination port.
    pub dst_port: u16,
}

impl HeaderValues {
    /// Reads one field (payload length comes from the request context).
    fn field(&self, field: crate::ir::HeaderField, payload_len: usize) -> u64 {
        use crate::ir::HeaderField as F;
        match field {
            F::WorkloadId => self.workload_id as u64,
            F::RequestId => self.request_id,
            F::FragIndex => self.frag_index as u64,
            F::FragCount => self.frag_count as u64,
            F::ReturnCode => self.return_code as u64,
            F::SrcIp => self.src_ip as u64,
            F::DstIp => self.dst_ip as u64,
            F::SrcPort => self.src_port as u64,
            F::DstPort => self.dst_port as u64,
            F::PayloadLen => payload_len as u64,
        }
    }
}

/// One request as seen by a lambda: parsed headers, payload, and the
/// match-data parameters attached by the match stage.
#[derive(Clone, Debug, Default)]
pub struct RequestCtx {
    /// Parsed header fields.
    pub headers: HeaderValues,
    /// Request payload bytes.
    pub payload: Bytes,
    /// `MATCH_DATA_T` parameters from the matched entry.
    pub match_data: Vec<u64>,
}

/// Persistent object storage for one deployed lambda instance. Global
/// objects keep their contents across requests (§4.1, "global objects
/// that persist state across runs").
#[derive(Clone, Debug)]
pub struct ObjectMemory {
    storage: Vec<Vec<u8>>,
}

impl ObjectMemory {
    /// Allocates and initializes storage for `lambda`'s declared objects.
    pub fn for_lambda(lambda: &Lambda) -> Self {
        let storage = lambda
            .objects
            .iter()
            .map(|o| {
                let mut v = o.init.clone();
                v.resize(o.size as usize, 0);
                v
            })
            .collect();
        ObjectMemory { storage }
    }

    /// Borrows an object's bytes.
    pub fn object(&self, idx: usize) -> &[u8] {
        &self.storage[idx]
    }

    /// Mutably borrows an object's bytes.
    pub fn object_mut(&mut self, idx: usize) -> &mut [u8] {
        &mut self.storage[idx]
    }

    /// Total bytes held.
    pub fn total_bytes(&self) -> usize {
        self.storage.iter().map(|s| s.len()).sum()
    }
}

/// Counters describing one lambda execution; the timing models translate
/// these into NPU or CPU cycles.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions executed.
    pub instrs: u64,
    /// Scalar accesses per object.
    pub obj_scalar: Vec<u64>,
    /// Bulk bytes moved per object.
    pub obj_bulk_bytes: Vec<u64>,
    /// Bulk operations (copies/RPC reads) per object.
    pub obj_bulk_ops: Vec<u64>,
    /// Scalar reads of the request payload.
    pub payload_scalar: u64,
    /// Bulk bytes read from the request payload.
    pub payload_bulk_bytes: u64,
    /// Bytes appended to the response.
    pub emitted_bytes: u64,
    /// Network RPCs issued.
    pub net_rpcs: u64,
    /// Deepest call nesting observed.
    pub max_call_depth: usize,
}

impl ExecStats {
    fn for_lambda(lambda: &Lambda) -> Self {
        ExecStats {
            obj_scalar: vec![0; lambda.objects.len()],
            obj_bulk_bytes: vec![0; lambda.objects.len()],
            obj_bulk_ops: vec![0; lambda.objects.len()],
            ..Default::default()
        }
    }
}

/// A finished execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Completion {
    /// The lambda's return code (`r0` at entry `Ret`).
    pub return_code: u64,
    /// The response payload built with `Emit*` instructions.
    pub response: Bytes,
    /// Execution counters.
    pub stats: ExecStats,
}

/// Why an execution step returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The lambda finished.
    Done(Completion),
    /// The lambda issued a [`Instr::NetRpc`] and is suspended until
    /// [`Execution::resume`] provides the response.
    NetCall {
        /// Logical service id.
        service: u16,
        /// Request payload.
        payload: Bytes,
    },
}

/// What a worker does next with an execution that stopped.
#[derive(Debug)]
pub enum Phase {
    /// Emit the response and free the execution slot.
    Finish {
        /// Response payload.
        response: Bytes,
        /// Response return code.
        code: u16,
    },
    /// Send the lambda RPC the execution suspended on.
    SendRpc {
        /// Logical service id.
        service: u16,
        /// Request payload.
        payload: Bytes,
    },
}

impl Phase {
    /// The phase after an execution step's `outcome`. A fault finishes
    /// with `retcode::ERROR` and an empty response, and bumps `faults`.
    pub fn after(outcome: Result<StepOutcome, ExecError>, faults: &mut u64) -> Phase {
        match outcome {
            Ok(StepOutcome::Done(done)) => Phase::Finish {
                response: done.response,
                code: done.return_code as u16,
            },
            Ok(StepOutcome::NetCall { service, payload }) => Phase::SendRpc { service, payload },
            Err(_) => {
                *faults += 1;
                Phase::Finish {
                    response: Bytes::new(),
                    code: crate::ir::retcode::ERROR as u16,
                }
            }
        }
    }
}

/// Runtime faults. The compiler's isolation story (§4.2-D2) maps memory
/// violations to a fault instead of letting a lambda escape its objects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// An object access fell outside the object's bounds.
    ObjOutOfBounds {
        /// The object index.
        obj: u16,
        /// Attempted offset.
        offset: u64,
        /// Attempted length.
        len: u64,
    },
    /// A payload access fell outside the request payload.
    PayloadOutOfBounds {
        /// Attempted offset.
        offset: u64,
        /// Attempted length.
        len: u64,
    },
    /// The per-invocation instruction budget was exhausted (the serverless
    /// compute-time limit, §2.1).
    FuelExhausted,
    /// Call nesting exceeded [`MAX_CALL_DEPTH`].
    CallDepthExceeded,
    /// `resume` was called while the lambda was not awaiting a response.
    NotAwaitingResponse,
    /// `run` was called while the lambda *was* awaiting a response.
    AwaitingResponse,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::ObjOutOfBounds { obj, offset, len } => {
                write!(f, "object {obj} access out of bounds at {offset}+{len}")
            }
            ExecError::PayloadOutOfBounds { offset, len } => {
                write!(f, "payload access out of bounds at {offset}+{len}")
            }
            ExecError::FuelExhausted => write!(f, "instruction budget exhausted"),
            ExecError::CallDepthExceeded => write!(f, "call depth exceeded"),
            ExecError::NotAwaitingResponse => write!(f, "resume without pending rpc"),
            ExecError::AwaitingResponse => write!(f, "run while awaiting rpc response"),
        }
    }
}

impl std::error::Error for ExecError {}

#[derive(Clone, Copy, Debug)]
struct Frame {
    func: FuncRef,
    pc: u32,
}

#[derive(Clone, Debug)]
struct PendingNet {
    resp_obj: u16,
    resp_off: u64,
    resp_cap: u64,
    resp_len_dst: u8,
}

/// A (possibly suspended) execution of one lambda over one request.
///
/// # Examples
///
/// ```
/// use lnic_mlambda::interp::{Execution, ObjectMemory, RequestCtx, StepOutcome};
/// use lnic_mlambda::ir::{Function, Instr};
/// use lnic_mlambda::program::{Lambda, Program, WorkloadId};
///
/// let entry = Function::new(
///     "entry",
///     vec![
///         Instr::Const { dst: 1, value: 0xAB },
///         Instr::Emit { src: 1, width: lnic_mlambda::ir::Width::B1 },
///         Instr::Const { dst: 0, value: 0 },
///         Instr::Ret,
///     ],
/// );
/// let mut p = Program::new();
/// let idx = p.add_lambda(Lambda::new("one", WorkloadId(1), entry), vec![]);
/// let mut mem = ObjectMemory::for_lambda(&p.lambdas[idx]);
/// let p = std::sync::Arc::new(p);
/// let mut exec = Execution::start(std::sync::Arc::clone(&p), idx, RequestCtx::default(), 1_000);
/// match exec.run(&mut mem).expect("executes") {
///     StepOutcome::Done(done) => assert_eq!(&done.response[..], &[0xAB]),
///     other => panic!("unexpected {other:?}"),
/// }
/// ```
#[derive(Debug)]
pub struct Execution {
    program: Arc<Program>,
    lambda_idx: usize,
    ctx: RequestCtx,
    regs: [u64; crate::ir::NUM_REGISTERS],
    frames: Vec<Frame>,
    emitted: BytesMut,
    stats: ExecStats,
    fuel: u64,
    pending: Option<PendingNet>,
    finished: bool,
}

impl Execution {
    /// Begins executing `program.lambdas[lambda_idx]` over `ctx` with an
    /// instruction budget of `fuel`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda_idx` is out of range.
    pub fn start(program: Arc<Program>, lambda_idx: usize, ctx: RequestCtx, fuel: u64) -> Self {
        let lambda = &program.lambdas[lambda_idx];
        let stats = ExecStats::for_lambda(lambda);
        Execution {
            program,
            lambda_idx,
            ctx,
            regs: [0; crate::ir::NUM_REGISTERS],
            frames: vec![Frame {
                func: FuncRef::Local(0),
                pc: 0,
            }],
            emitted: BytesMut::new(),
            stats,
            fuel,
            pending: None,
            finished: false,
        }
    }

    /// Runs until completion or the next suspension point.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] on a memory fault, exhausted fuel, call
    /// overflow, or when the execution is currently awaiting a response.
    pub fn run(&mut self, mem: &mut ObjectMemory) -> Result<StepOutcome, ExecError> {
        if self.pending.is_some() {
            return Err(ExecError::AwaitingResponse);
        }
        self.step_loop(mem)
    }

    /// Delivers the response of the pending [`Instr::NetRpc`] and
    /// continues execution.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::NotAwaitingResponse`] when no RPC is pending,
    /// plus any error [`Execution::run`] can produce.
    pub fn resume(
        &mut self,
        mem: &mut ObjectMemory,
        response: &[u8],
    ) -> Result<StepOutcome, ExecError> {
        let pending = self.pending.take().ok_or(ExecError::NotAwaitingResponse)?;
        let n = (response.len() as u64).min(pending.resp_cap);
        self.write_obj_bulk(
            mem,
            pending.resp_obj,
            pending.resp_off,
            &response[..n as usize],
        )?;
        self.regs[pending.resp_len_dst as usize] = n;
        self.step_loop(mem)
    }

    /// Whether the execution is suspended on a network RPC.
    pub fn is_awaiting(&self) -> bool {
        self.pending.is_some()
    }

    /// Execution statistics accumulated so far.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    fn step_loop(&mut self, mem: &mut ObjectMemory) -> Result<StepOutcome, ExecError> {
        debug_assert!(!self.finished, "execution already finished");
        let program = Arc::clone(&self.program);
        loop {
            let frame = *self.frames.last().expect("at least the entry frame");
            let body: &[Instr] = match frame.func {
                FuncRef::Local(i) => &program.lambdas[self.lambda_idx].functions[i as usize].body,
                FuncRef::Shared(i) => &program.shared[i as usize].body,
            };
            if frame.pc as usize >= body.len() {
                // Falling off the end is prevented by validation
                // (MissingTerminator), but degrade gracefully.
                if let Some(done) = self.pop_frame() {
                    return Ok(StepOutcome::Done(done));
                }
                continue;
            }
            let instr = &body[frame.pc as usize];
            if self.fuel == 0 {
                return Err(ExecError::FuelExhausted);
            }
            self.fuel -= 1;
            self.stats.instrs += 1;

            let mut next_pc = frame.pc + 1;
            match *instr {
                Instr::Const { dst, value } => self.regs[dst as usize] = value,
                Instr::Mov { dst, src } => self.regs[dst as usize] = self.regs[src as usize],
                Instr::Alu { op, dst, a, b } => {
                    self.regs[dst as usize] =
                        op.apply(self.regs[a as usize], self.regs[b as usize]);
                }
                Instr::AluImm { op, dst, a, imm } => {
                    self.regs[dst as usize] = op.apply(self.regs[a as usize], imm);
                }
                Instr::LoadHdr { dst, field } => {
                    self.regs[dst as usize] = self.ctx.headers.field(field, self.ctx.payload.len());
                }
                Instr::LoadMatchData { dst, idx } => {
                    self.regs[dst as usize] =
                        self.ctx.match_data.get(idx as usize).copied().unwrap_or(0);
                }
                Instr::Load {
                    dst,
                    obj,
                    addr,
                    width,
                } => {
                    let off = self.regs[addr as usize];
                    let v = self.read_obj_scalar(mem, obj.0, off, width)?;
                    self.regs[dst as usize] = v;
                }
                Instr::Store {
                    obj,
                    addr,
                    src,
                    width,
                } => {
                    let off = self.regs[addr as usize];
                    let v = self.regs[src as usize];
                    self.write_obj_scalar(mem, obj.0, off, v, width)?;
                }
                Instr::LoadPayload { dst, addr, width } => {
                    let off = self.regs[addr as usize];
                    let v = self.read_payload_scalar(off, width)?;
                    self.regs[dst as usize] = v;
                }
                Instr::Emit { src, width } => {
                    let v = self.regs[src as usize];
                    let bytes = v.to_be_bytes();
                    self.emitted.extend_from_slice(&bytes[8 - width.bytes()..]);
                    self.stats.emitted_bytes += width.bytes() as u64;
                }
                Instr::EmitObj { obj, off, len } => {
                    let off = self.regs[off as usize];
                    let len = self.regs[len as usize];
                    self.check_obj_range(mem, obj.0, off, len)?;
                    let data = &mem.object(obj.0 as usize)[off as usize..(off + len) as usize];
                    self.emitted.extend_from_slice(data);
                    self.stats.obj_bulk_bytes[obj.0 as usize] += len;
                    self.stats.obj_bulk_ops[obj.0 as usize] += 1;
                    self.stats.emitted_bytes += len;
                }
                Instr::PayloadToObj {
                    obj,
                    src_off,
                    dst_off,
                    len,
                } => {
                    let src = self.regs[src_off as usize];
                    let dst = self.regs[dst_off as usize];
                    let len = self.regs[len as usize];
                    if src
                        .checked_add(len)
                        .map(|e| e as usize > self.ctx.payload.len())
                        != Some(false)
                    {
                        return Err(ExecError::PayloadOutOfBounds { offset: src, len });
                    }
                    let data = self.ctx.payload.slice(src as usize..(src + len) as usize);
                    self.write_obj_bulk(mem, obj.0, dst, &data)?;
                    self.stats.payload_bulk_bytes += len;
                }
                Instr::Branch { cmp, a, b, target } => {
                    if cmp.test(self.regs[a as usize], self.regs[b as usize]) {
                        next_pc = target;
                    }
                }
                Instr::Jump { target } => next_pc = target,
                Instr::Call { func } => {
                    if self.frames.len() >= MAX_CALL_DEPTH {
                        return Err(ExecError::CallDepthExceeded);
                    }
                    self.frames.last_mut().expect("frame").pc = next_pc;
                    self.frames.push(Frame { func, pc: 0 });
                    self.stats.max_call_depth = self.stats.max_call_depth.max(self.frames.len());
                    continue;
                }
                Instr::Ret => {
                    if let Some(done) = self.pop_frame() {
                        return Ok(StepOutcome::Done(done));
                    }
                    continue;
                }
                Instr::NetRpc {
                    service,
                    req_obj,
                    req_off,
                    req_len,
                    resp_obj,
                    resp_off,
                    resp_cap,
                    resp_len_dst,
                } => {
                    let off = self.regs[req_off as usize];
                    let len = self.regs[req_len as usize];
                    self.check_obj_range(mem, req_obj.0, off, len)?;
                    let payload = Bytes::copy_from_slice(
                        &mem.object(req_obj.0 as usize)[off as usize..(off + len) as usize],
                    );
                    self.stats.obj_bulk_bytes[req_obj.0 as usize] += len;
                    self.stats.obj_bulk_ops[req_obj.0 as usize] += 1;
                    self.stats.net_rpcs += 1;
                    self.pending = Some(PendingNet {
                        resp_obj: resp_obj.0,
                        resp_off: self.regs[resp_off as usize],
                        resp_cap: self.regs[resp_cap as usize],
                        resp_len_dst,
                    });
                    self.frames.last_mut().expect("frame").pc = next_pc;
                    return Ok(StepOutcome::NetCall { service, payload });
                }
            }
            self.frames.last_mut().expect("frame").pc = next_pc;
        }
    }

    /// Pops the current frame. Returns `Some(completion)` when the entry
    /// frame returned (execution finished); `None` when a callee returned
    /// into its caller (whose pc was advanced at call time).
    fn pop_frame(&mut self) -> Option<Completion> {
        self.frames.pop();
        if self.frames.is_empty() {
            self.finished = true;
            Some(Completion {
                return_code: self.regs[RET_REG as usize],
                response: std::mem::take(&mut self.emitted).freeze(),
                stats: self.stats.clone(),
            })
        } else {
            None
        }
    }

    fn check_obj_range(
        &self,
        mem: &ObjectMemory,
        obj: u16,
        off: u64,
        len: u64,
    ) -> Result<(), ExecError> {
        let size = mem.object(obj as usize).len() as u64;
        match off.checked_add(len) {
            Some(end) if end <= size => Ok(()),
            _ => Err(ExecError::ObjOutOfBounds {
                obj,
                offset: off,
                len,
            }),
        }
    }

    fn read_obj_scalar(
        &mut self,
        mem: &ObjectMemory,
        obj: u16,
        off: u64,
        width: Width,
    ) -> Result<u64, ExecError> {
        self.check_obj_range(mem, obj, off, width.bytes() as u64)?;
        self.stats.obj_scalar[obj as usize] += 1;
        let data = &mem.object(obj as usize)[off as usize..off as usize + width.bytes()];
        Ok(be_read(data))
    }

    fn write_obj_scalar(
        &mut self,
        mem: &mut ObjectMemory,
        obj: u16,
        off: u64,
        value: u64,
        width: Width,
    ) -> Result<(), ExecError> {
        self.check_obj_range(mem, obj, off, width.bytes() as u64)?;
        self.stats.obj_scalar[obj as usize] += 1;
        let bytes = value.to_be_bytes();
        mem.object_mut(obj as usize)[off as usize..off as usize + width.bytes()]
            .copy_from_slice(&bytes[8 - width.bytes()..]);
        Ok(())
    }

    fn write_obj_bulk(
        &mut self,
        mem: &mut ObjectMemory,
        obj: u16,
        off: u64,
        data: &[u8],
    ) -> Result<(), ExecError> {
        self.check_obj_range(mem, obj, off, data.len() as u64)?;
        self.stats.obj_bulk_bytes[obj as usize] += data.len() as u64;
        self.stats.obj_bulk_ops[obj as usize] += 1;
        mem.object_mut(obj as usize)[off as usize..off as usize + data.len()].copy_from_slice(data);
        Ok(())
    }

    fn read_payload_scalar(&mut self, off: u64, width: Width) -> Result<u64, ExecError> {
        let end = off
            .checked_add(width.bytes() as u64)
            .filter(|&e| e as usize <= self.ctx.payload.len())
            .ok_or(ExecError::PayloadOutOfBounds {
                offset: off,
                len: width.bytes() as u64,
            })?;
        let _ = end;
        self.stats.payload_scalar += 1;
        let data = &self.ctx.payload[off as usize..off as usize + width.bytes()];
        Ok(be_read(data))
    }
}

fn be_read(data: &[u8]) -> u64 {
    let mut v = 0u64;
    for &b in data {
        v = (v << 8) | b as u64;
    }
    v
}

/// Runs a lambda to completion, answering network RPCs with `serve`.
///
/// # Errors
///
/// Propagates any [`ExecError`] from the execution.
pub fn run_to_completion(
    program: &Arc<Program>,
    lambda_idx: usize,
    ctx: RequestCtx,
    mem: &mut ObjectMemory,
    fuel: u64,
    mut serve: impl FnMut(u16, Bytes) -> Bytes,
) -> Result<Completion, ExecError> {
    let mut exec = Execution::start(Arc::clone(program), lambda_idx, ctx, fuel);
    let mut outcome = exec.run(mem)?;
    loop {
        match outcome {
            StepOutcome::Done(done) => return Ok(done),
            StepOutcome::NetCall { service, payload } => {
                let response = serve(service, payload);
                outcome = exec.resume(mem, &response)?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{AluOp, Cmp, Function, HeaderField, ObjId, Width};
    use crate::program::{Lambda, MemObject, Program, WorkloadId};

    fn one_lambda(entry: Function, objects: Vec<MemObject>) -> Arc<Program> {
        let mut l = Lambda::new("test", WorkloadId(1), entry);
        for o in objects {
            l.add_object(o);
        }
        let mut p = Program::new();
        p.add_lambda(l, vec![]);
        p.validate().expect("test programs are well-formed");
        Arc::new(p)
    }

    fn p_with(l: Lambda) -> Program {
        let mut p = Program::new();
        p.add_lambda(l, vec![]);
        p.validate().unwrap();
        p
    }

    fn run(p: &Arc<Program>, ctx: RequestCtx) -> Completion {
        let mut mem = ObjectMemory::for_lambda(&p.lambdas[0]);
        run_to_completion(p, 0, ctx, &mut mem, 100_000, |_, _| Bytes::new())
            .expect("runs to completion")
    }

    #[test]
    fn arithmetic_and_emit() {
        let entry = Function::new(
            "entry",
            vec![
                Instr::Const { dst: 1, value: 6 },
                Instr::Const { dst: 2, value: 7 },
                Instr::Alu {
                    op: AluOp::Mul,
                    dst: 3,
                    a: 1,
                    b: 2,
                },
                Instr::Emit {
                    src: 3,
                    width: Width::B2,
                },
                Instr::Const { dst: 0, value: 0 },
                Instr::Ret,
            ],
        );
        let done = run(&one_lambda(entry, vec![]), RequestCtx::default());
        assert_eq!(&done.response[..], &42u16.to_be_bytes());
        assert_eq!(done.return_code, 0);
        assert_eq!(done.stats.instrs, 6);
    }

    #[test]
    fn header_and_match_data_reads() {
        let entry = Function::new(
            "entry",
            vec![
                Instr::LoadHdr {
                    dst: 1,
                    field: HeaderField::SrcPort,
                },
                Instr::LoadMatchData { dst: 2, idx: 0 },
                Instr::Alu {
                    op: AluOp::Add,
                    dst: 3,
                    a: 1,
                    b: 2,
                },
                Instr::Emit {
                    src: 3,
                    width: Width::B4,
                },
                Instr::Const { dst: 0, value: 0 },
                Instr::Ret,
            ],
        );
        let ctx = RequestCtx {
            headers: HeaderValues {
                src_port: 1000,
                ..Default::default()
            },
            match_data: vec![234],
            ..Default::default()
        };
        let done = run(&one_lambda(entry, vec![]), ctx);
        assert_eq!(&done.response[..], &1234u32.to_be_bytes());
    }

    #[test]
    fn loops_branches_and_object_memory() {
        // Sum payload bytes into obj[0..8], then emit it.
        let entry = Function::new(
            "entry",
            vec![
                // r1 = i = 0, r2 = len, r3 = acc
                Instr::Const { dst: 1, value: 0 },
                Instr::LoadHdr {
                    dst: 2,
                    field: HeaderField::PayloadLen,
                },
                Instr::Const { dst: 3, value: 0 },
                // loop: if i >= len -> done(6)
                Instr::Branch {
                    cmp: Cmp::Ge,
                    a: 1,
                    b: 2,
                    target: 7,
                },
                Instr::LoadPayload {
                    dst: 4,
                    addr: 1,
                    width: Width::B1,
                },
                Instr::Alu {
                    op: AluOp::Add,
                    dst: 3,
                    a: 3,
                    b: 4,
                },
                Instr::AluImm {
                    op: AluOp::Add,
                    dst: 1,
                    a: 1,
                    imm: 1,
                },
                // (target adjusted below)
                Instr::Jump { target: 3 },
                // done: store acc and emit
                Instr::Const { dst: 5, value: 0 },
                Instr::Store {
                    obj: ObjId(0),
                    addr: 5,
                    src: 3,
                    width: Width::B8,
                },
                Instr::Load {
                    dst: 6,
                    obj: ObjId(0),
                    addr: 5,
                    width: Width::B8,
                },
                Instr::Emit {
                    src: 6,
                    width: Width::B8,
                },
                Instr::Const { dst: 0, value: 0 },
                Instr::Ret,
            ],
        );
        // Fix branch targets: loop head at 3, exit at 8.
        let mut entry = entry;
        entry.body[3] = Instr::Branch {
            cmp: Cmp::Ge,
            a: 1,
            b: 2,
            target: 8,
        };
        entry.body[7] = Instr::Jump { target: 3 };
        let p = one_lambda(entry, vec![MemObject::zeroed("acc", 8)]);
        let ctx = RequestCtx {
            payload: Bytes::from_static(&[1, 2, 3, 4, 5]),
            ..Default::default()
        };
        let done = run(&p, ctx);
        assert_eq!(&done.response[..], &15u64.to_be_bytes());
        assert_eq!(done.stats.payload_scalar, 5);
        assert_eq!(done.stats.obj_scalar[0], 2);
    }

    #[test]
    fn emit_obj_bulk_copies_web_content() {
        // Listing 2's web server: copy object bytes into the response.
        let content = b"<html>hello lambda</html>".to_vec();
        let len = content.len() as u64;
        let entry = Function::new(
            "web",
            vec![
                Instr::Const { dst: 1, value: 0 },
                Instr::Const { dst: 2, value: len },
                Instr::EmitObj {
                    obj: ObjId(0),
                    off: 1,
                    len: 2,
                },
                Instr::Const { dst: 0, value: 0 },
                Instr::Ret,
            ],
        );
        let p = one_lambda(
            entry,
            vec![MemObject::with_data("content", content.clone())],
        );
        let done = run(&p, RequestCtx::default());
        assert_eq!(&done.response[..], &content[..]);
        assert_eq!(done.stats.obj_bulk_bytes[0], len);
        assert_eq!(done.stats.emitted_bytes, len);
    }

    #[test]
    fn payload_to_obj_and_state_persists_across_requests() {
        // Store request payload into the object; next request reads it.
        let entry = Function::new(
            "entry",
            vec![
                Instr::Const { dst: 1, value: 0 },
                Instr::LoadHdr {
                    dst: 2,
                    field: HeaderField::PayloadLen,
                },
                // If empty payload, emit stored byte instead.
                Instr::Branch {
                    cmp: Cmp::Eq,
                    a: 2,
                    b: 1,
                    target: 6,
                },
                Instr::PayloadToObj {
                    obj: ObjId(0),
                    src_off: 1,
                    dst_off: 1,
                    len: 2,
                },
                Instr::Const { dst: 0, value: 0 },
                Instr::Ret,
                Instr::Const { dst: 3, value: 4 },
                Instr::EmitObj {
                    obj: ObjId(0),
                    off: 1,
                    len: 3,
                },
                Instr::Const { dst: 0, value: 0 },
                Instr::Ret,
            ],
        );
        let p = one_lambda(entry, vec![MemObject::zeroed("store", 16)]);
        let mut mem = ObjectMemory::for_lambda(&p.lambdas[0]);
        let write_ctx = RequestCtx {
            payload: Bytes::from_static(b"wxyz"),
            ..Default::default()
        };
        let d1 = run_to_completion(&p, 0, write_ctx, &mut mem, 1_000, |_, _| Bytes::new()).unwrap();
        assert!(d1.response.is_empty());
        let read_ctx = RequestCtx::default();
        let d2 = run_to_completion(&p, 0, read_ctx, &mut mem, 1_000, |_, _| Bytes::new()).unwrap();
        assert_eq!(&d2.response[..], b"wxyz");
    }

    #[test]
    fn calls_nest_and_return() {
        let mut l = Lambda::new(
            "nested",
            WorkloadId(1),
            Function::new(
                "entry",
                vec![
                    Instr::Call {
                        func: FuncRef::Local(1),
                    },
                    Instr::Emit {
                        src: 5,
                        width: Width::B1,
                    },
                    Instr::Const { dst: 0, value: 0 },
                    Instr::Ret,
                ],
            ),
        );
        l.add_function(Function::new(
            "helper",
            vec![
                Instr::Const {
                    dst: 5,
                    value: 0x7f,
                },
                Instr::Ret,
            ],
        ));
        let p = Arc::new(p_with(l));
        let done = run(&p, RequestCtx::default());
        assert_eq!(&done.response[..], &[0x7f]);
        assert_eq!(done.stats.max_call_depth, 2);
    }

    #[test]
    fn net_rpc_suspends_and_resumes() {
        let entry = Function::new(
            "kv",
            vec![
                // request bytes = obj[0..3]
                Instr::Const { dst: 1, value: 0 },
                Instr::Const { dst: 2, value: 3 },
                Instr::Const { dst: 3, value: 8 }, // resp off
                Instr::Const { dst: 4, value: 8 }, // resp cap
                Instr::NetRpc {
                    service: 9,
                    req_obj: ObjId(0),
                    req_off: 1,
                    req_len: 2,
                    resp_obj: ObjId(0),
                    resp_off: 3,
                    resp_cap: 4,
                    resp_len_dst: 5,
                },
                Instr::EmitObj {
                    obj: ObjId(0),
                    off: 3,
                    len: 5,
                },
                Instr::Const { dst: 0, value: 0 },
                Instr::Ret,
            ],
        );
        let p = one_lambda(
            entry,
            vec![MemObject::with_data("buf", b"get into the buffer".to_vec())],
        );
        let mut mem = ObjectMemory::for_lambda(&p.lambdas[0]);
        let mut exec = Execution::start(Arc::clone(&p), 0, RequestCtx::default(), 1_000);
        match exec.run(&mut mem).unwrap() {
            StepOutcome::NetCall { service, payload } => {
                assert_eq!(service, 9);
                assert_eq!(&payload[..], b"get");
            }
            other => panic!("expected NetCall, got {other:?}"),
        }
        assert!(exec.is_awaiting());
        // Running while suspended is an error.
        assert_eq!(exec.run(&mut mem), Err(ExecError::AwaitingResponse));
        match exec.resume(&mut mem, b"VALUE").unwrap() {
            StepOutcome::Done(done) => {
                assert_eq!(&done.response[..], b"VALUE");
                assert_eq!(done.stats.net_rpcs, 1);
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn rpc_response_truncated_to_capacity() {
        let entry = Function::new(
            "kv",
            vec![
                Instr::Const { dst: 1, value: 0 },
                Instr::Const { dst: 2, value: 1 },
                Instr::Const { dst: 3, value: 0 },
                Instr::Const { dst: 4, value: 2 }, // cap = 2
                Instr::NetRpc {
                    service: 1,
                    req_obj: ObjId(0),
                    req_off: 1,
                    req_len: 2,
                    resp_obj: ObjId(0),
                    resp_off: 3,
                    resp_cap: 4,
                    resp_len_dst: 5,
                },
                Instr::EmitObj {
                    obj: ObjId(0),
                    off: 3,
                    len: 5,
                },
                Instr::Const { dst: 0, value: 0 },
                Instr::Ret,
            ],
        );
        let p = one_lambda(entry, vec![MemObject::zeroed("buf", 8)]);
        let mut mem = ObjectMemory::for_lambda(&p.lambdas[0]);
        let done = run_to_completion(&p, 0, RequestCtx::default(), &mut mem, 1_000, |_, _| {
            Bytes::from_static(b"LONG RESPONSE")
        })
        .unwrap();
        assert_eq!(&done.response[..], b"LO");
    }

    #[test]
    fn out_of_bounds_object_access_faults() {
        let entry = Function::new(
            "bad",
            vec![
                Instr::Const { dst: 1, value: 100 },
                Instr::Load {
                    dst: 2,
                    obj: ObjId(0),
                    addr: 1,
                    width: Width::B8,
                },
                Instr::Ret,
            ],
        );
        let p = one_lambda(entry, vec![MemObject::zeroed("small", 16)]);
        let mut mem = ObjectMemory::for_lambda(&p.lambdas[0]);
        let err = run_to_completion(&p, 0, RequestCtx::default(), &mut mem, 1_000, |_, _| {
            Bytes::new()
        })
        .unwrap_err();
        assert!(matches!(err, ExecError::ObjOutOfBounds { obj: 0, .. }));
    }

    #[test]
    fn payload_out_of_bounds_faults() {
        let entry = Function::new(
            "bad",
            vec![
                Instr::Const { dst: 1, value: 0 },
                Instr::LoadPayload {
                    dst: 2,
                    addr: 1,
                    width: Width::B4,
                },
                Instr::Ret,
            ],
        );
        let p = one_lambda(entry, vec![]);
        let mut mem = ObjectMemory::for_lambda(&p.lambdas[0]);
        let ctx = RequestCtx {
            payload: Bytes::from_static(b"ab"),
            ..Default::default()
        };
        let err = run_to_completion(&p, 0, ctx, &mut mem, 1_000, |_, _| Bytes::new()).unwrap_err();
        assert!(matches!(err, ExecError::PayloadOutOfBounds { .. }));
    }

    #[test]
    fn fuel_exhaustion_faults() {
        let entry = Function::new("spin", vec![Instr::Jump { target: 0 }]);
        let p = one_lambda(entry, vec![]);
        let mut mem = ObjectMemory::for_lambda(&p.lambdas[0]);
        let err = run_to_completion(&p, 0, RequestCtx::default(), &mut mem, 100, |_, _| {
            Bytes::new()
        })
        .unwrap_err();
        assert_eq!(err, ExecError::FuelExhausted);
    }

    #[test]
    fn object_memory_initialization() {
        let mut l = Lambda::new("m", WorkloadId(1), Function::new("e", vec![Instr::Ret]));
        l.add_object(MemObject::with_data("d", vec![1, 2, 3]));
        let mut padded = MemObject::with_data("p", vec![9]);
        padded.size = 4;
        l.add_object(padded);
        let mem = ObjectMemory::for_lambda(&l);
        assert_eq!(mem.object(0), &[1, 2, 3]);
        assert_eq!(mem.object(1), &[9, 0, 0, 0]);
        assert_eq!(mem.total_bytes(), 7);
    }

    #[test]
    fn call_depth_exceeded_faults() {
        // A linear chain of MAX_CALL_DEPTH+1 calls (no recursion, so
        // validation accepts it) overflows the call stack at runtime.
        let mut l = Lambda::new(
            "deep",
            WorkloadId(1),
            Function::new(
                "entry",
                vec![
                    Instr::Call {
                        func: FuncRef::Local(1),
                    },
                    Instr::Ret,
                ],
            ),
        );
        for i in 1..=MAX_CALL_DEPTH as u16 {
            l.add_function(Function::new(
                format!("f{i}"),
                vec![
                    Instr::Call {
                        func: FuncRef::Local(i + 1),
                    },
                    Instr::Ret,
                ],
            ));
        }
        l.add_function(Function::new("leaf", vec![Instr::Ret]));
        let mut p = Program::new();
        p.add_lambda(l, vec![]);
        p.validate().expect("linear chains are not recursion");
        let p = Arc::new(p);
        let mut mem = ObjectMemory::for_lambda(&p.lambdas[0]);
        let err = run_to_completion(&p, 0, RequestCtx::default(), &mut mem, 10_000, |_, _| {
            Bytes::new()
        })
        .unwrap_err();
        assert_eq!(err, ExecError::CallDepthExceeded);
    }

    #[test]
    fn resume_without_pending_is_error() {
        let p = one_lambda(
            Function::new("e", vec![Instr::Const { dst: 0, value: 0 }, Instr::Ret]),
            vec![],
        );
        let mut mem = ObjectMemory::for_lambda(&p.lambdas[0]);
        let mut exec = Execution::start(Arc::clone(&p), 0, RequestCtx::default(), 10);
        assert_eq!(
            exec.resume(&mut mem, b"x"),
            Err(ExecError::NotAwaitingResponse)
        );
    }
}
