//! Lambda coalescing (§5.1): dead-code elimination plus cross-lambda
//! deduplication of helper functions into a program-level shared library.
//!
//! "As multiple lambdas run on a single core, the workload manager runs
//! program analysis (i.e., dead-code elimination and code motion) to
//! remove duplicate logic (e.g., for modifying similar headers or
//! generating packets) and move it into shared libraries as helper
//! functions."

use lnic_sim::hash::FastHashMap;

use crate::ir::{FuncRef, Function, Instr};
use crate::program::Program;

/// Statistics reported by the coalescing pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoalesceReport {
    /// Functions moved into the shared library.
    pub functions_shared: usize,
    /// Call sites rewritten to shared functions.
    pub calls_rewritten: usize,
    /// Unreachable functions removed.
    pub functions_removed: usize,
    /// Unreachable instructions removed.
    pub instrs_removed: usize,
}

/// Runs dead-code elimination followed by cross-lambda deduplication.
/// Returns the transformed program and a report.
pub fn coalesce(program: &Program) -> (Program, CoalesceReport) {
    let mut report = CoalesceReport::default();
    let mut p = program.clone();

    for lambda in &mut p.lambdas {
        for f in &mut lambda.functions {
            report.instrs_removed += eliminate_unreachable(f);
        }
    }

    dedup_into_shared(&mut p, &mut report);

    for li in 0..p.lambdas.len() {
        report.functions_removed += remove_unreachable_functions(&mut p, li);
    }

    (p, report)
}

/// Removes instructions that can never execute (not reachable from index
/// 0 via fallthrough/branches). Returns the number removed.
fn eliminate_unreachable(f: &mut Function) -> usize {
    let n = f.body.len();
    if n == 0 {
        return 0;
    }
    let mut reachable = vec![false; n];
    let mut stack = vec![0usize];
    while let Some(pc) = stack.pop() {
        if pc >= n || reachable[pc] {
            continue;
        }
        reachable[pc] = true;
        match f.body[pc] {
            Instr::Jump { target } => stack.push(target as usize),
            Instr::Branch { target, .. } => {
                stack.push(target as usize);
                stack.push(pc + 1);
            }
            Instr::Ret => {}
            _ => stack.push(pc + 1),
        }
    }
    let removed = reachable.iter().filter(|&&r| !r).count();
    if removed == 0 {
        return 0;
    }
    // Build the index remap and rewrite targets.
    let mut remap = vec![u32::MAX; n];
    let mut next = 0u32;
    for (i, &r) in reachable.iter().enumerate() {
        if r {
            remap[i] = next;
            next += 1;
        }
    }
    let mut new_body = Vec::with_capacity(next as usize);
    for (i, instr) in f.body.drain(..).enumerate() {
        if !reachable[i] {
            continue;
        }
        let rewritten = match instr {
            Instr::Jump { target } => Instr::Jump {
                target: remap[target as usize],
            },
            Instr::Branch { cmp, a, b, target } => Instr::Branch {
                cmp,
                a,
                b,
                target: remap[target as usize],
            },
            other => other,
        };
        new_body.push(rewritten);
    }
    f.body = new_body;
    removed
}

/// A function is *shareable* when it calls no lambda-local functions.
/// Object references are allowed: they resolve against the calling
/// lambda, and identical bodies imply identical object indices, which
/// validation checks against every caller's object table.
fn is_shareable(f: &Function) -> bool {
    f.body.iter().all(|i| {
        !matches!(
            i,
            Instr::Call {
                func: FuncRef::Local(_)
            }
        )
    })
}

/// Moves identical shareable helper bodies (appearing in two or more
/// places) into `program.shared` and rewrites call sites.
fn dedup_into_shared(p: &mut Program, report: &mut CoalesceReport) {
    // One entry per distinct shareable body across all lambdas (entries
    // stay local as dispatch anchors): its occurrence count and, once
    // assigned, its shared index. `first` keeps first-occurrence order,
    // which fixes the shared numbering and names.
    let mut bodies: FastHashMap<&[Instr], (usize, Option<u16>)> = FastHashMap::default();
    let mut first: Vec<(&[Instr], &str)> = Vec::new();
    for lambda in &p.lambdas {
        for f in lambda.functions.iter().skip(1) {
            if is_shareable(f) {
                bodies
                    .entry(&f.body)
                    .or_insert_with(|| {
                        first.push((&f.body, &f.name));
                        (0, None)
                    })
                    .0 += 1;
            }
        }
    }
    let mut shared = Vec::new();
    for (body, name) in first {
        let entry = bodies.get_mut(body).expect("counted above");
        if entry.0 >= 2 {
            entry.1 = Some((p.shared.len() + shared.len()) as u16);
            shared.push(Function::new(format!("shared_{name}"), body.to_vec()));
        }
    }
    if shared.is_empty() {
        return;
    }
    let targets: Vec<Vec<Option<u16>>> = p
        .lambdas
        .iter()
        .map(|lambda| {
            let helpers = lambda.functions.iter().skip(1);
            std::iter::once(None)
                .chain(helpers.map(|f| bodies.get(f.body.as_slice()).and_then(|e| e.1)))
                .collect()
        })
        .collect();
    report.functions_shared += shared.len();
    p.shared.extend(shared);

    // Rewrite every call whose local callee's body is now shared.
    for (lambda, targets) in p.lambdas.iter_mut().zip(targets) {
        for f in &mut lambda.functions {
            for instr in &mut f.body {
                if let Instr::Call {
                    func: FuncRef::Local(callee),
                } = instr
                {
                    if let Some(shared) = targets[*callee as usize] {
                        *instr = Instr::Call {
                            func: FuncRef::Shared(shared),
                        };
                        report.calls_rewritten += 1;
                    }
                }
            }
        }
    }
}

/// Drops local functions unreachable from the entry (index 0), remapping
/// local call indices. Returns the number removed.
fn remove_unreachable_functions(p: &mut Program, li: usize) -> usize {
    let lambda = &p.lambdas[li];
    let n = lambda.functions.len();
    let mut live = vec![false; n];
    let mut stack = vec![0usize];
    while let Some(fi) = stack.pop() {
        if live[fi] {
            continue;
        }
        live[fi] = true;
        for instr in &lambda.functions[fi].body {
            if let Instr::Call {
                func: FuncRef::Local(callee),
            } = *instr
            {
                stack.push(callee as usize);
            }
        }
    }
    let removed = live.iter().filter(|&&l| !l).count();
    if removed == 0 {
        return 0;
    }
    let mut remap = vec![u16::MAX; n];
    let mut next = 0u16;
    for (i, &l) in live.iter().enumerate() {
        if l {
            remap[i] = next;
            next += 1;
        }
    }
    let lambda = &mut p.lambdas[li];
    let old = std::mem::take(&mut lambda.functions);
    for (i, f) in old.into_iter().enumerate() {
        if live[i] {
            lambda.functions.push(f);
        }
    }
    for f in &mut lambda.functions {
        for instr in &mut f.body {
            if let Instr::Call {
                func: FuncRef::Local(callee),
            } = instr
            {
                *callee = remap[*callee as usize];
            }
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{AluOp, Cmp, ObjId, Width};
    use crate::program::{Lambda, MemObject, Program, WorkloadId};

    fn helper_body() -> Vec<Instr> {
        vec![
            Instr::Const { dst: 5, value: 1 },
            Instr::AluImm {
                op: AluOp::Add,
                dst: 5,
                a: 5,
                imm: 2,
            },
            Instr::Ret,
        ]
    }

    fn lambda_with_helper(name: &str, id: u32) -> Lambda {
        let mut l = Lambda::new(
            name,
            WorkloadId(id),
            Function::new(
                "entry",
                vec![
                    Instr::Call {
                        func: FuncRef::Local(1),
                    },
                    Instr::Const { dst: 0, value: 0 },
                    Instr::Ret,
                ],
            ),
        );
        l.add_function(Function::new("gen_packet", helper_body()));
        l
    }

    #[test]
    fn identical_helpers_move_to_shared() {
        let mut p = Program::new();
        p.add_lambda(lambda_with_helper("kv1", 1), vec![]);
        p.add_lambda(lambda_with_helper("kv2", 2), vec![]);
        p.validate().unwrap();

        let (out, report) = coalesce(&p);
        out.validate().expect("coalesced program validates");
        assert_eq!(report.functions_shared, 1);
        assert_eq!(report.calls_rewritten, 2);
        assert_eq!(report.functions_removed, 2);
        assert_eq!(out.shared.len(), 1);
        // The duplicated local helpers are gone.
        assert_eq!(out.lambdas[0].functions.len(), 1);
        assert_eq!(out.lambdas[1].functions.len(), 1);
        assert!(matches!(
            out.lambdas[0].functions[0].body[0],
            Instr::Call {
                func: FuncRef::Shared(0)
            }
        ));
    }

    #[test]
    fn unique_helpers_stay_local() {
        let mut p = Program::new();
        p.add_lambda(lambda_with_helper("kv1", 1), vec![]);
        // Second lambda has a *different* helper.
        let mut l2 = lambda_with_helper("other", 2);
        l2.functions[1].body[0] = Instr::Const { dst: 5, value: 99 };
        p.add_lambda(l2, vec![]);

        let (out, report) = coalesce(&p);
        assert_eq!(report.functions_shared, 0);
        assert!(out.shared.is_empty());
        assert_eq!(out.lambdas[0].functions.len(), 2);
    }

    #[test]
    fn object_touching_helpers_shared_when_callers_compatible() {
        let obj_body = vec![
            Instr::Store {
                obj: ObjId(0),
                addr: 1,
                src: 2,
                width: Width::B1,
            },
            Instr::Ret,
        ];
        let mut p = Program::new();
        for (name, id) in [("a", 1), ("b", 2)] {
            let mut l = Lambda::new(
                name,
                WorkloadId(id),
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
            l.add_object(MemObject::zeroed("buf", 8));
            l.add_function(Function::new("touches", obj_body.clone()));
            p.add_lambda(l, vec![]);
        }
        let (out, report) = coalesce(&p);
        assert_eq!(report.functions_shared, 1);
        assert_eq!(out.shared.len(), 1);
        out.validate().expect("both callers declare obj 0");
    }

    #[test]
    fn unreachable_instructions_removed_and_targets_remapped() {
        // 0: jump 3 ; 1..2 dead ; 3: branch->5; 4: const; 5: ret
        let f = Function::new(
            "entry",
            vec![
                Instr::Jump { target: 3 },
                Instr::Const { dst: 9, value: 9 },
                Instr::Const { dst: 9, value: 9 },
                Instr::Branch {
                    cmp: Cmp::Eq,
                    a: 0,
                    b: 0,
                    target: 5,
                },
                Instr::Const { dst: 1, value: 1 },
                Instr::Ret,
            ],
        );
        let mut p = Program::new();
        p.add_lambda(Lambda::new("w", WorkloadId(1), f), vec![]);
        let (out, report) = coalesce(&p);
        out.validate().unwrap();
        assert_eq!(report.instrs_removed, 2);
        let body = &out.lambdas[0].functions[0].body;
        assert_eq!(body.len(), 4);
        assert_eq!(body[0], Instr::Jump { target: 1 });
        assert!(matches!(body[1], Instr::Branch { target: 3, .. }));
    }

    #[test]
    fn uncalled_functions_removed() {
        let mut l = Lambda::new("w", WorkloadId(1), Function::new("entry", vec![Instr::Ret]));
        l.add_function(Function::new("dead", vec![Instr::Ret]));
        let mut p = Program::new();
        p.add_lambda(l, vec![]);
        let (out, report) = coalesce(&p);
        assert_eq!(report.functions_removed, 1);
        assert_eq!(out.lambdas[0].functions.len(), 1);
    }

    #[test]
    fn semantics_preserved_after_coalescing() {
        use crate::interp::{run_to_completion, ObjectMemory, RequestCtx};
        use bytes::Bytes;

        // Entry calls helper then emits r5 (set by helper).
        let build = |id: u32| {
            let mut l = Lambda::new(
                format!("l{id}"),
                WorkloadId(id),
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
            l.add_function(Function::new("helper", helper_body()));
            l
        };
        let mut p = Program::new();
        p.add_lambda(build(1), vec![]);
        p.add_lambda(build(2), vec![]);
        let (out, _) = coalesce(&p);

        for prog in [std::sync::Arc::new(p), std::sync::Arc::new(out)] {
            for li in 0..2 {
                let mut mem = ObjectMemory::for_lambda(&prog.lambdas[li]);
                let done =
                    run_to_completion(&prog, li, RequestCtx::default(), &mut mem, 1_000, |_, _| {
                        Bytes::new()
                    })
                    .unwrap();
                assert_eq!(&done.response[..], &[3]);
            }
        }
    }
}
