//! # lnic-mlambda: the Match+Lambda abstraction
//!
//! The paper's programming model (§4): users author lambdas against an
//! abstract machine — parse, match, lambda — and the workload manager
//! compiles them into a single per-core image for the SmartNIC.
//!
//! This crate provides:
//!
//! - the [`ir`] a lambda is written in (standing in for Micro-C), with
//!   exactly the restrictions NPUs impose: integers only, no dynamic
//!   allocation, no recursion;
//! - [`program`]: lambdas + memory objects + P4-style match tables;
//! - [`interp`]: a resumable reference interpreter giving lambdas real
//!   semantics and producing the counters the timing models consume;
//! - [`mod@compile`]: validation, the three optimization passes of §5.1
//!   (lambda coalescing, match reduction, memory stratification), and
//!   lowering to a per-core binary whose word count reproduces Figure 9;
//! - [`memory`]/[`cost`]: the NIC memory hierarchy and cycle model;
//! - [`builder`]: an assembler with symbolic labels for authoring
//!   lambdas;
//! - [`disasm`]: human-readable disassembly of programs and lowered
//!   binaries;
//! - [`compile::fold`]: an optional constant-folding / dead-write
//!   elimination pass beyond the paper's pipeline (off by default so
//!   Figure 9 uses exactly the paper's passes).
//!
//! ## Example: compile and run a web-server lambda
//!
//! ```
//! use lnic_mlambda::builder::FnBuilder;
//! use lnic_mlambda::compile::{compile, CompileOptions};
//! use lnic_mlambda::interp::{run_to_completion, ObjectMemory, RequestCtx};
//! use lnic_mlambda::program::{Lambda, MemObject, Program, WorkloadId};
//!
//! // Listing 2: copy web content from memory into the response.
//! let content = b"<html>hello</html>".to_vec();
//! let entry = FnBuilder::new("web_server")
//!     .constant(1, 0)
//!     .constant(2, content.len() as u64)
//!     .emit_obj(lnic_mlambda::ir::ObjId(0), 1, 2)
//!     .ret_const(0)
//!     .build();
//! let mut lambda = Lambda::new("web", WorkloadId(1), entry);
//! lambda.add_object(MemObject::with_data("content", content.clone()));
//! let mut program = Program::new();
//! let idx = program.add_lambda(lambda, vec![]);
//!
//! // Every worker running the image shares its one program.
//! let image = compile(&program, &CompileOptions::optimized())?.into_image();
//! let prog = &image.program;
//! let mut mem = ObjectMemory::for_lambda(&prog.lambdas[idx]);
//! let done = run_to_completion(
//!     prog,
//!     idx,
//!     RequestCtx::default(),
//!     &mut mem,
//!     10_000,
//!     |_, _| bytes::Bytes::new(),
//! )?;
//! assert_eq!(&done.response[..], &content[..]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod compile;
pub mod cost;
pub mod disasm;
pub mod interp;
pub mod ir;
pub mod memory;
pub mod program;

pub use compile::{compile, CompileError, CompileOptions, Firmware, Image};
pub use interp::{run_to_completion, Completion, ExecError, Execution, ObjectMemory, RequestCtx};
pub use memory::{MemLevel, MemorySpec};
pub use program::{DispatchCtx, DispatchResult, Lambda, MemObject, Program, WorkloadId};
