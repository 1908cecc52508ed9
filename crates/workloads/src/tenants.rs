//! Multi-tenant fleet workloads: many tiny per-tenant lambdas plus
//! Zipf popularity helpers for the `tenant_ablation` experiment.
//!
//! A serverless platform's catalog is wide and skewed: hundreds of
//! tenants each deploy a small lambda, and request popularity follows a
//! Zipf law — a handful of tenants dominate traffic while a long tail
//! stays cold. The fleet builder makes one distinct lambda per tenant
//! (distinct tag, tunable instruction-store footprint so firmware-cache
//! pressure is controllable), and the Zipf helpers turn a skew exponent
//! into deterministic job-spec multiplicities for the closed-loop
//! driver's round-robin — no runtime sampling, so traces stay
//! reproducible.

use lnic_mlambda::builder::FnBuilder;
use lnic_mlambda::ir::{AluOp, Instr, Width};
use lnic_mlambda::program::{Lambda, MemObject, Program, WorkloadId};

/// Workload ids `TENANT_BASE_ID + i` are reserved for tenant-fleet
/// lambdas, far above the benchmark suite's ids.
pub const TENANT_BASE_ID: u32 = 1000;

/// The workload id of tenant-fleet lambda `i`.
pub fn tenant_workload_id(i: u32) -> WorkloadId {
    WorkloadId(TENANT_BASE_ID + i)
}

/// A tiny per-tenant lambda: emits an 8-byte tag derived from the
/// tenant index, padded with `pad_words` arithmetic instructions so its
/// instruction-store footprint (and thus firmware-cache pressure) is
/// tunable. Every tenant's lambda is distinct — distinct tag, distinct
/// response — so cross-tenant mixups are observable.
pub fn tenant_lambda(i: u32, pad_words: usize) -> Lambda {
    let tag = 0x7e00_0000u64 | u64::from(i);
    let pad = Instr::AluImm {
        op: AluOp::Add,
        dst: 1,
        a: 1,
        imm: 0,
    };
    let entry = FnBuilder::new("tenant_entry")
        .constant(1, tag)
        .instrs(std::iter::repeat_n(pad, pad_words))
        .emit(1, Width::B8)
        .ret_const(0)
        .build();
    let mut l = Lambda::new(format!("tenant-{i}"), tenant_workload_id(i), entry);
    // A small writable object so the lambda has a non-zero memory
    // footprint for placement quota accounting.
    l.add_object(MemObject::zeroed("tenant-scratch", 64));
    l
}

/// The expected response bytes of [`tenant_lambda`]`(i, _)`.
pub fn tenant_tag(i: u32) -> [u8; 8] {
    (0x7e00_0000u64 | u64::from(i)).to_be_bytes()
}

/// A program holding one [`tenant_lambda`] per tenant `0..n`.
pub fn tenant_fleet_program(n: u32, pad_words: usize) -> Program {
    let mut p = Program::new();
    for i in 0..n {
        p.add_lambda(
            tenant_lambda(i, pad_words),
            vec![0x0a00_1000 + u64::from(i), 9000 + u64::from(i), 1],
        );
    }
    p
}

/// Normalized Zipf popularity weights: `w_i ∝ 1/(i+1)^s`, summing
/// to 1. `s = 0` is uniform; larger `s` is more skewed.
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    assert!(n > 0, "zipf over an empty population");
    assert!(
        s >= 0.0 && s.is_finite(),
        "zipf exponent must be finite and >= 0"
    );
    let raw: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
    let sum: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / sum).collect()
}

/// Apportions `total` job-spec slots across `n` tenants by Zipf
/// popularity using largest-remainder rounding, guaranteeing every
/// tenant at least one slot when `total >= n`. Duplicating each
/// tenant's `JobSpec` by its multiplicity makes the closed-loop
/// driver's round-robin a deterministic Zipf mixture.
pub fn zipf_multiplicities(n: usize, s: f64, total: usize) -> Vec<usize> {
    assert!(total >= n, "need at least one slot per tenant");
    let weights = zipf_weights(n, s);
    let spare = (total - n) as f64;
    let mut counts: Vec<usize> = Vec::with_capacity(n);
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(n);
    for (i, w) in weights.iter().enumerate() {
        let exact = w * spare;
        counts.push(1 + exact.floor() as usize);
        remainders.push((i, exact - exact.floor()));
    }
    let assigned: usize = counts.iter().sum();
    // Hand the leftover slots to the largest remainders; break ties by
    // tenant index so the apportionment is deterministic.
    remainders.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    for &(i, _) in remainders.iter().take(total - assigned) {
        counts[i] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use lnic_mlambda::interp::{run_to_completion, ObjectMemory, RequestCtx};
    use std::sync::Arc;

    #[test]
    fn fleet_program_validates_and_lambdas_are_distinct() {
        let p = tenant_fleet_program(8, 4);
        p.validate().expect("valid");
        assert_eq!(p.lambdas.len(), 8);
        for (i, l) in p.lambdas.iter().enumerate() {
            assert_eq!(l.id, tenant_workload_id(i as u32));
        }
    }

    #[test]
    fn tenant_lambda_emits_its_own_tag() {
        let p = Arc::new(tenant_fleet_program(3, 2));
        for i in 0..3u32 {
            let mut mem = ObjectMemory::for_lambda(&p.lambdas[i as usize]);
            let done = run_to_completion(
                &p,
                i as usize,
                RequestCtx {
                    payload: Bytes::new(),
                    ..Default::default()
                },
                &mut mem,
                100_000,
                |_, _| Bytes::new(),
            )
            .expect("completes");
            assert_eq!(done.return_code, 0);
            assert_eq!(done.response.to_vec(), tenant_tag(i).to_vec(), "tenant {i}");
        }
    }

    #[test]
    fn pad_words_grow_the_instruction_footprint() {
        let small = tenant_lambda(0, 0).instrs().count();
        let big = tenant_lambda(0, 32).instrs().count();
        assert_eq!(big, small + 32);
    }

    #[test]
    fn zipf_weights_normalize_and_decay() {
        let w = zipf_weights(10, 1.0);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for pair in w.windows(2) {
            assert!(pair[0] > pair[1]);
        }
        let uniform = zipf_weights(4, 0.0);
        for w in uniform {
            assert!((w - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_multiplicities_apportion_exactly() {
        for (n, s, total) in [(10, 1.0, 100), (7, 0.8, 7), (100, 1.2, 400)] {
            let m = zipf_multiplicities(n, s, total);
            assert_eq!(m.len(), n);
            assert_eq!(m.iter().sum::<usize>(), total, "n={n} total={total}");
            assert!(m.iter().all(|&c| c >= 1));
            // Popularity order is preserved.
            for pair in m.windows(2) {
                assert!(pair[0] >= pair[1]);
            }
        }
    }

    #[test]
    fn zipf_multiplicities_are_deterministic() {
        assert_eq!(
            zipf_multiplicities(50, 1.1, 300),
            zipf_multiplicities(50, 1.1, 300)
        );
    }
}
