//! The Match+Lambda compiler (§5): validation, the three target-specific
//! optimization passes of §5.1, and lowering to a per-core binary.
//!
//! The pass pipeline matches the order the paper evaluates in §6.4 /
//! Figure 9: **lambda coalescing**, then **match reduction**, then
//! **memory stratification** — and [`Firmware::report`] records the
//! instruction count after each stage so the figure can be regenerated.

pub mod coalesce;
pub mod fold;
pub mod lower;
pub mod match_reduce;
pub mod stratify;

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

use crate::memory::{MemLevel, MemorySpec};
use crate::program::{Program, ValidateError};

pub use coalesce::{coalesce, CoalesceReport};
pub use fold::{fold_constants, FoldReport};
pub use lower::{count_words, CoreBinary, LowerOptions, Sections, Word};
pub use match_reduce::{match_reduce, MatchReduceReport};
pub use stratify::{naive_placements, stratify, Placements, StratifyReport};

/// Per-core instruction-store capacity of the evaluation NICs
/// (§6.1.2: "16 K instructions per core").
pub const CORE_INSTRUCTION_STORE: usize = 16 * 1024;

/// Compiler configuration.
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// Run constant folding / peephole simplification (an extension
    /// beyond the paper's pipeline; off by default so Figure 9 uses
    /// exactly the paper's passes).
    pub fold: bool,
    /// Run lambda coalescing (DCE + shared-library dedup).
    pub coalesce: bool,
    /// Run match reduction (merge tables; lower as if-else).
    pub match_reduce: bool,
    /// Run memory stratification (place objects by heat/size).
    pub stratify: bool,
    /// Target memory hierarchy.
    pub memory: MemorySpec,
    /// Instruction-store words available per core.
    pub instruction_store_words: usize,
    /// Words reserved for basic NIC operations (§3.1c).
    pub reserved_words: usize,
}

impl CompileOptions {
    /// No optimization: the naive build of §6.4.
    pub fn naive() -> Self {
        CompileOptions {
            fold: false,
            coalesce: false,
            match_reduce: false,
            stratify: false,
            memory: MemorySpec::agilio_cx(),
            instruction_store_words: CORE_INSTRUCTION_STORE,
            reserved_words: 1024,
        }
    }

    /// All three passes enabled.
    pub fn optimized() -> Self {
        CompileOptions {
            coalesce: true,
            match_reduce: true,
            stratify: true,
            ..CompileOptions::naive()
        }
    }
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions::optimized()
    }
}

/// Instruction counts after each optimization stage (Figure 9's bars).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptReport {
    /// Unoptimized word count.
    pub unoptimized: usize,
    /// After lambda coalescing.
    pub after_coalescing: usize,
    /// After match reduction (cumulative).
    pub after_match_reduction: usize,
    /// After memory stratification (cumulative).
    pub after_stratification: usize,
}

impl OptReport {
    /// Total reduction as a fraction of the unoptimized count.
    pub fn total_reduction(&self) -> f64 {
        if self.unoptimized == 0 {
            0.0
        } else {
            1.0 - self.after_stratification as f64 / self.unoptimized as f64
        }
    }
}

/// A compiled firmware image ready to load onto a (simulated) SmartNIC.
///
/// `P` is how the image holds its program: [`compile`] returns it by
/// value, and [`Firmware::into_image`] moves it into the one shared
/// allocation that every worker running the image executes.
#[derive(Clone, Debug)]
pub struct Firmware<P = Program> {
    /// The post-pass program the NIC runtime executes.
    pub program: P,
    /// Object placements: `placements[lambda][object]`.
    pub placements: Placements,
    /// The per-core binary.
    pub binary: CoreBinary,
    /// Per-stage instruction counts (Figure 9).
    pub report: OptReport,
    /// Pass diagnostics.
    pub pass_info: PassInfo,
}

/// Detailed pass reports.
#[derive(Clone, Debug, Default)]
pub struct PassInfo {
    /// Constant-folding report (zeroed when the pass is disabled).
    pub fold: FoldReport,
    /// Coalescing report (zeroed when the pass is disabled).
    pub coalesce: CoalesceReport,
    /// Match-reduction report (zeroed when the pass is disabled).
    pub match_reduce: MatchReduceReport,
    /// Stratification report (zeroed when the pass is disabled).
    pub stratify: StratifyReport,
}

/// A firmware image as workers hold it. Every worker that runs one image
/// shares its single `Arc<Program>`: installing, re-installing after a
/// restart and swapping in an image never copy the program.
pub type Image = Firmware<Arc<Program>>;

impl Firmware {
    /// Moves the program into a shared allocation, without copying it.
    pub fn into_image(self) -> Image {
        Firmware {
            program: Arc::new(self.program),
            placements: self.placements,
            binary: self.binary,
            report: self.report,
            pass_info: self.pass_info,
        }
    }
}

impl<P: Borrow<Program>> Firmware<P> {
    /// Total instruction-store words of the per-core binary.
    pub fn instruction_words(&self) -> usize {
        self.binary.len()
    }

    /// Size of the deployable image in bytes: 8-byte instruction words
    /// plus initialized object data.
    pub fn size_bytes(&self) -> u64 {
        let data: u64 = self
            .program
            .borrow()
            .lambdas
            .iter()
            .flat_map(|l| l.objects.iter())
            .map(|o| o.size as u64)
            .sum();
        self.binary.len() as u64 * 8 + data
    }

    /// The memory level assigned to `obj` of `lambda_idx`.
    pub fn placement(&self, lambda_idx: usize, obj: usize) -> MemLevel {
        self.placements[lambda_idx][obj]
    }

    /// Cycles the parse+match stages cost per packet: one per word on the
    /// parser path plus the match path.
    pub fn parse_match_cycles(&self) -> u64 {
        (self.binary.sections.parser + self.binary.sections.match_stage) as u64
    }
}

/// Compilation failures.
#[derive(Clone, Debug, PartialEq)]
pub enum CompileError {
    /// The program failed structural validation.
    Invalid(ValidateError),
    /// The lowered image exceeds the per-core instruction store.
    ProgramTooLarge {
        /// Words the image needs.
        words: usize,
        /// Words available.
        available: usize,
    },
    /// An object exceeds even external memory.
    ObjectTooLarge {
        /// Lambda name.
        lambda: String,
        /// Object name.
        object: String,
        /// Requested size.
        size: u64,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Invalid(e) => write!(f, "invalid program: {e}"),
            CompileError::ProgramTooLarge { words, available } => write!(
                f,
                "program needs {words} instruction words but only {available} are available"
            ),
            CompileError::ObjectTooLarge {
                lambda,
                object,
                size,
            } => write!(
                f,
                "object {object} of lambda {lambda} ({size} bytes) exceeds external memory"
            ),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ValidateError> for CompileError {
    fn from(e: ValidateError) -> Self {
        CompileError::Invalid(e)
    }
}

/// Compiles `program` with `opts`.
///
/// # Errors
///
/// Returns a [`CompileError`] when validation fails, an object exceeds
/// external memory, or the lowered image does not fit the per-core
/// instruction store.
pub fn compile(program: &Program, opts: &CompileOptions) -> Result<Firmware, CompileError> {
    program.validate()?;
    for lambda in &program.lambdas {
        for obj in &lambda.objects {
            if obj.size as u64 > opts.memory.emem.capacity_bytes {
                return Err(CompileError::ObjectTooLarge {
                    lambda: lambda.name.clone(),
                    object: obj.name.clone(),
                    size: obj.size as u64,
                });
            }
        }
    }

    let mut pass_info = PassInfo::default();

    // The per-stage Figure 9 counts come from the counting sink of the
    // emit path; only the final stage is lowered into an image.
    let naive_opts = LowerOptions {
        per_lambda_stages: true,
    };
    let count = |p: &Program, lower_opts| {
        lower::count_words(p, &naive_placements(p), &opts.memory, lower_opts)
    };

    // Stage 0: unoptimized measurement (of the program as authored).
    let unoptimized = count(program, naive_opts);

    // Extension stage: constant folding (before coalescing so folded
    // helper bodies still dedup byte-identically).
    let folded;
    let input: &Program = if opts.fold {
        let (p, rep) = fold::fold_constants(program);
        pass_info.fold = rep;
        folded = p;
        &folded
    } else {
        program
    };

    // Stage 1: lambda coalescing.
    let p1 = if opts.coalesce {
        let (p, rep) = coalesce(input);
        pass_info.coalesce = rep;
        p
    } else {
        input.clone()
    };
    let after_coalescing = count(&p1, naive_opts);

    // Stage 2: match reduction.
    let (p2, lower_opts) = if opts.match_reduce {
        let (p, rep) = match_reduce(p1);
        pass_info.match_reduce = rep;
        (
            p,
            LowerOptions {
                per_lambda_stages: false,
            },
        )
    } else {
        (p1, naive_opts)
    };
    let after_match_reduction = count(&p2, lower_opts);

    // Stage 3: memory stratification.
    let placements = if opts.stratify {
        let (pl, rep) = stratify(&p2, &opts.memory);
        pass_info.stratify = rep;
        pl
    } else {
        naive_placements(&p2)
    };
    let binary = lower::lower(&p2, &placements, &opts.memory, lower_opts);
    let after_stratification = binary.len();

    let available = opts
        .instruction_store_words
        .saturating_sub(opts.reserved_words);
    if binary.len() > available {
        return Err(CompileError::ProgramTooLarge {
            words: binary.len(),
            available,
        });
    }

    p2.validate()?;

    Ok(Firmware {
        program: p2,
        placements,
        binary,
        report: OptReport {
            unoptimized,
            after_coalescing,
            after_match_reduction,
            after_stratification,
        },
        pass_info,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{FuncRef, Function, Instr, ObjId, Width};
    use crate::program::{Lambda, MemObject, Program, WorkloadId};

    /// A program shaped like §6.4's benchmark: lambdas with a duplicated
    /// helper and memory objects.
    fn benchmark_like_program() -> Program {
        let helper = Function::new(
            "gen_packet",
            vec![
                Instr::Const { dst: 10, value: 1 },
                Instr::Const { dst: 11, value: 2 },
                Instr::Alu {
                    op: crate::ir::AluOp::Add,
                    dst: 12,
                    a: 10,
                    b: 11,
                },
                Instr::Ret,
            ],
        );
        let mut p = Program::new();
        for (name, id) in [("kv1", 1u32), ("kv2", 2)] {
            let mut l = Lambda::new(
                name,
                WorkloadId(id),
                Function::new(
                    "entry",
                    vec![
                        Instr::Call {
                            func: FuncRef::Local(1),
                        },
                        Instr::Const { dst: 1, value: 0 },
                        Instr::Load {
                            dst: 2,
                            obj: ObjId(0),
                            addr: 1,
                            width: Width::B8,
                        },
                        Instr::Const { dst: 0, value: 0 },
                        Instr::Ret,
                    ],
                ),
            );
            l.add_object(MemObject::zeroed("buf", 128));
            l.add_function(helper.clone());
            p.add_lambda(l, vec![id as u64]);
        }
        p
    }

    #[test]
    fn optimized_compile_shrinks_monotonically() {
        let p = benchmark_like_program();
        let fw = compile(&p, &CompileOptions::optimized()).expect("compiles");
        let r = fw.report;
        assert!(r.unoptimized > r.after_coalescing, "{r:?}");
        assert!(r.after_coalescing > r.after_match_reduction, "{r:?}");
        assert!(r.after_match_reduction > r.after_stratification, "{r:?}");
        assert!(r.total_reduction() > 0.0);
        assert_eq!(fw.instruction_words(), r.after_stratification);
    }

    #[test]
    fn naive_compile_reports_flat_counts() {
        let p = benchmark_like_program();
        let fw = compile(&p, &CompileOptions::naive()).expect("compiles");
        let r = fw.report;
        assert_eq!(r.unoptimized, r.after_coalescing);
        assert_eq!(r.after_coalescing, r.after_match_reduction);
        assert_eq!(r.after_match_reduction, r.after_stratification);
        assert!(fw.program.shared.is_empty());
    }

    #[test]
    fn instruction_store_limit_enforced() {
        let p = benchmark_like_program();
        let mut opts = CompileOptions::optimized();
        opts.instruction_store_words = 16;
        opts.reserved_words = 0;
        assert!(matches!(
            compile(&p, &opts),
            Err(CompileError::ProgramTooLarge { .. })
        ));
    }

    #[test]
    fn invalid_program_rejected() {
        let mut p = Program::new();
        p.add_lambda(
            Lambda::new(
                "bad",
                WorkloadId(1),
                Function::new("entry", vec![Instr::Const { dst: 0, value: 0 }]),
            ),
            vec![],
        );
        assert!(matches!(
            compile(&p, &CompileOptions::naive()),
            Err(CompileError::Invalid(_))
        ));
    }

    #[test]
    fn oversized_object_rejected() {
        let mut p = Program::new();
        let mut l = Lambda::new(
            "big",
            WorkloadId(1),
            Function::new("entry", vec![Instr::Const { dst: 0, value: 0 }, Instr::Ret]),
        );
        l.add_object(MemObject::zeroed("huge", u32::MAX));
        p.add_lambda(l, vec![]);
        assert!(matches!(
            compile(&p, &CompileOptions::naive()),
            Err(CompileError::ObjectTooLarge { .. })
        ));
    }

    #[test]
    fn firmware_size_includes_object_data() {
        let p = benchmark_like_program();
        let fw = compile(&p, &CompileOptions::optimized()).unwrap();
        assert_eq!(fw.size_bytes(), fw.binary.len() as u64 * 8 + 2 * 128);
        assert!(fw.parse_match_cycles() > 0);
    }

    #[test]
    fn stratified_placement_recorded() {
        let p = benchmark_like_program();
        let fw = compile(&p, &CompileOptions::optimized()).unwrap();
        // The small read-only buffers are replicated into core-local
        // memory instead of staying in naive EMEM.
        assert_eq!(fw.placement(0, 0), MemLevel::Lmem);
        assert_eq!(fw.placement(1, 0), MemLevel::Lmem);
    }

    #[test]
    fn optimized_semantics_match_naive() {
        use crate::interp::{run_to_completion, ObjectMemory, RequestCtx};
        use bytes::Bytes;

        let p = benchmark_like_program();
        let naive = compile(&p, &CompileOptions::naive()).unwrap();
        let opt = compile(&p, &CompileOptions::optimized()).unwrap();
        let naive_prog = std::sync::Arc::new(naive.program.clone());
        let opt_prog = std::sync::Arc::new(opt.program.clone());
        for li in 0..p.lambdas.len() {
            let mut m1 = ObjectMemory::for_lambda(&naive_prog.lambdas[li]);
            let mut m2 = ObjectMemory::for_lambda(&opt_prog.lambdas[li]);
            let d1 = run_to_completion(
                &naive_prog,
                li,
                RequestCtx::default(),
                &mut m1,
                10_000,
                |_, _| Bytes::new(),
            )
            .unwrap();
            let d2 = run_to_completion(
                &opt_prog,
                li,
                RequestCtx::default(),
                &mut m2,
                10_000,
                |_, _| Bytes::new(),
            )
            .unwrap();
            assert_eq!(d1.response, d2.response);
            assert_eq!(d1.return_code, d2.return_code);
        }
    }
}
