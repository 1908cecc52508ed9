//! The shared cycle-cost model.
//!
//! Both the NIC model (NPU cores at 633 MHz) and the host model (x86 at
//! 2 GHz) convert an execution's [`ExecStats`] into cycles with this
//! module; only the cycle *duration* and memory latencies differ per
//! target.

use crate::interp::ExecStats;
use crate::memory::{MemLevel, MemorySpec};

/// Bytes moved per cycle during a bulk (DMA-style) copy once the access
/// has been issued.
pub const BULK_BYTES_PER_CYCLE: u64 = 8;

/// Burst factor for scalar accesses: NPU transfer registers fetch and
/// write-combine memory in bursts, so sequential scalar accesses
/// amortize the level latency over this many accesses (plus one issue
/// cycle each).
pub const SCALAR_BURST: u64 = 8;

/// Converts execution statistics into NPU cycles given each object's
/// placement and the memory hierarchy spec: one cycle per instruction
/// plus every memory [`charges`] entry.
///
/// # Panics
///
/// Panics if `placement` is shorter than the per-object stat vectors.
///
/// # Examples
///
/// ```
/// use lnic_mlambda::cost::exec_cycles;
/// use lnic_mlambda::interp::ExecStats;
/// use lnic_mlambda::memory::{MemLevel, MemorySpec};
///
/// let stats = ExecStats { instrs: 100, ..Default::default() };
/// let cycles = exec_cycles(&stats, &[], &MemorySpec::agilio_cx());
/// assert_eq!(cycles, 100);
/// ```
pub fn exec_cycles(stats: &ExecStats, placement: &[MemLevel], spec: &MemorySpec) -> u64 {
    stats.instrs
        + charges(stats, placement, spec)
            .map(|c| c.cycles)
            .sum::<u64>()
}

/// One memory charge of an execution: the accesses to one object (or to
/// one packet byte stream) at one level of the hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Charge {
    /// The level the accesses went to ([`MemLevel::name`]).
    pub level: &'static str,
    /// That level's access latency.
    pub latency_cycles: u64,
    /// Scalar accesses.
    pub scalar: u64,
    /// Bulk operations.
    pub bulk_ops: u64,
    /// Bulk bytes moved.
    pub bulk_bytes: u64,
    /// Cycles charged ([`mem_charge_cycles`]).
    pub cycles: u64,
}

/// The memory charges of an execution, one per object that was touched
/// and one per non-empty packet byte stream, in that order; untouched
/// objects and empty streams charge nothing and are skipped.
///
/// Scalar accesses cost one issue cycle plus the placement level's
/// latency amortized over [`SCALAR_BURST`] (transfer-register bursts and
/// write combining, which NPU firmware relies on for sequential access
/// patterns); bulk copies cost the level latency once per operation plus
/// [`BULK_BYTES_PER_CYCLE`] streaming throughput. Packet (payload and
/// response) bytes live in CTM, where the NIC's DMA engine deposits
/// frames; the payload's scalar reads, its bulk bytes and the emitted
/// bytes are charged separately because each rounds up to whole cycles
/// on its own.
///
/// # Panics
///
/// Panics if `placement` is shorter than the per-object stat vectors.
pub fn charges<'a>(
    stats: &'a ExecStats,
    placement: &'a [MemLevel],
    spec: &'a MemorySpec,
) -> impl Iterator<Item = Charge> + 'a {
    let charge = |level: &'static str, latency_cycles, scalar, bulk_ops, bulk_bytes| Charge {
        level,
        latency_cycles,
        scalar,
        bulk_ops,
        bulk_bytes,
        cycles: mem_charge_cycles(scalar, bulk_ops, bulk_bytes, latency_cycles),
    };
    let objects = stats
        .obj_scalar
        .iter()
        .enumerate()
        .map(move |(i, &scalar)| {
            let level = placement[i];
            charge(
                level.name(),
                spec.level(level).latency_cycles,
                scalar,
                stats.obj_bulk_ops[i],
                stats.obj_bulk_bytes[i],
            )
        });
    let ctm = spec.ctm.latency_cycles;
    let packet = [
        charge("CTM", ctm, stats.payload_scalar, 0, 0),
        charge("CTM", ctm, 0, 0, stats.payload_bulk_bytes),
        charge("CTM", ctm, 0, 0, stats.emitted_bytes),
    ];
    objects
        .chain(packet)
        .filter(|c| c.scalar != 0 || c.bulk_ops != 0 || c.bulk_bytes != 0)
}

/// Cycles charged for one object's accesses at a level with latency
/// `latency_cycles`: the single source of truth shared by [`charges`]
/// (and so [`exec_cycles`] and the NIC/host trace instrumentation) and,
/// mirrored independently, `lnic_sim::check::InvariantChecker`.
pub fn mem_charge_cycles(scalar: u64, bulk_ops: u64, bulk_bytes: u64, latency_cycles: u64) -> u64 {
    scalar * (1 + latency_cycles.div_ceil(SCALAR_BURST))
        + bulk_ops * latency_cycles
        + bulk_bytes.div_ceil(BULK_BYTES_PER_CYCLE)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> MemorySpec {
        MemorySpec::agilio_cx()
    }

    #[test]
    fn scalar_access_cost_depends_on_level() {
        let stats = ExecStats {
            instrs: 10,
            obj_scalar: vec![4],
            obj_bulk_bytes: vec![0],
            obj_bulk_ops: vec![0],
            ..Default::default()
        };
        let near = exec_cycles(&stats, &[MemLevel::Lmem], &spec());
        let far = exec_cycles(&stats, &[MemLevel::Emem], &spec());
        let cost = |lat: u64| 1 + lat.div_ceil(SCALAR_BURST);
        assert_eq!(near, 10 + 4 * cost(spec().lmem.latency_cycles));
        assert_eq!(far, 10 + 4 * cost(spec().emem.latency_cycles));
        assert!(far > near);
    }

    #[test]
    fn bulk_cost_charges_latency_once_plus_streaming() {
        let stats = ExecStats {
            instrs: 1,
            obj_scalar: vec![0],
            obj_bulk_bytes: vec![64],
            obj_bulk_ops: vec![1],
            ..Default::default()
        };
        let c = exec_cycles(&stats, &[MemLevel::Ctm], &spec());
        assert_eq!(c, 1 + spec().ctm.latency_cycles + 64 / BULK_BYTES_PER_CYCLE);
    }

    #[test]
    fn payload_and_emit_bytes_stream_from_ctm() {
        let stats = ExecStats {
            instrs: 0,
            payload_scalar: 2,
            payload_bulk_bytes: 16,
            emitted_bytes: 24,
            ..Default::default()
        };
        let c = exec_cycles(&stats, &[], &spec());
        let scalar = 1 + spec().ctm.latency_cycles.div_ceil(SCALAR_BURST);
        assert_eq!(c, 2 * scalar + 2 + 3);
    }

    /// Per-op spot checks against the calibration table in DESIGN.md
    /// ("LMEM/CTM/IMEM/EMEM ≈ 1/50/150/300 cycles"). A drift in either
    /// the latency parameters or the charge formula fails here.
    #[test]
    fn mem_charge_spot_checks_match_design_doc() {
        let s = spec();
        assert_eq!(
            (
                s.lmem.latency_cycles,
                s.ctm.latency_cycles,
                s.imem.latency_cycles,
                s.emem.latency_cycles
            ),
            (1, 50, 150, 300)
        );
        // One scalar access: issue cycle + latency/8 rounded up.
        assert_eq!(mem_charge_cycles(1, 0, 0, 1), 2); // LMEM
        assert_eq!(mem_charge_cycles(1, 0, 0, 50), 8); // CTM
        assert_eq!(mem_charge_cycles(1, 0, 0, 150), 20); // IMEM
        assert_eq!(mem_charge_cycles(1, 0, 0, 300), 39); // EMEM
                                                         // One 64-byte bulk copy: full latency once + 8 B/cycle stream.
        assert_eq!(mem_charge_cycles(0, 1, 64, 300), 308); // EMEM
        assert_eq!(mem_charge_cycles(0, 1, 64, 50), 58); // CTM
                                                         // Nothing accessed, nothing charged.
        assert_eq!(mem_charge_cycles(0, 0, 0, 300), 0);
    }

    /// The per-object and CTM packet charges computed directly with
    /// `mem_charge_cycles` — an independent fold of the decomposition the
    /// trace instrumentation and `InvariantChecker` rely on when they
    /// re-derive `ExecFinish.total_cycles` from `MemCharge` events.
    fn fold(stats: &ExecStats, placement: &[MemLevel], s: &MemorySpec) -> u64 {
        let mut cycles = stats.instrs;
        for (i, &level) in placement.iter().enumerate() {
            cycles += mem_charge_cycles(
                stats.obj_scalar[i],
                stats.obj_bulk_ops[i],
                stats.obj_bulk_bytes[i],
                s.level(level).latency_cycles,
            );
        }
        cycles += mem_charge_cycles(stats.payload_scalar, 0, 0, s.ctm.latency_cycles);
        cycles += mem_charge_cycles(0, 0, stats.payload_bulk_bytes, s.ctm.latency_cycles);
        cycles + mem_charge_cycles(0, 0, stats.emitted_bytes, s.ctm.latency_cycles)
    }

    proptest::proptest! {
        /// `instrs + Σ charges == exec_cycles` for any stats and
        /// placements, both equal the independent fold, and no charge
        /// is empty.
        #[test]
        fn exec_cycles_decomposes_into_mem_charges(
            instrs in 0u64..100_000,
            objects in proptest::collection::vec(
                (0usize..4, 0u64..500, 0u64..20, 0u64..5_000),
                0..6,
            ),
            payload_scalar in 0u64..300,
            payload_bulk_bytes in 0u64..3_000,
            emitted_bytes in 0u64..3_000,
        ) {
            let s = spec();
            let placement: Vec<MemLevel> = objects.iter().map(|o| MemLevel::ALL[o.0]).collect();
            let stats = ExecStats {
                instrs,
                obj_scalar: objects.iter().map(|o| o.1).collect(),
                obj_bulk_ops: objects.iter().map(|o| o.2).collect(),
                obj_bulk_bytes: objects.iter().map(|o| o.3).collect(),
                payload_scalar,
                payload_bulk_bytes,
                emitted_bytes,
                ..Default::default()
            };
            let charged: Vec<Charge> = charges(&stats, &placement, &s).collect();
            let total = exec_cycles(&stats, &placement, &s);
            proptest::prop_assert_eq!(
                stats.instrs + charged.iter().map(|c| c.cycles).sum::<u64>(),
                total
            );
            proptest::prop_assert_eq!(total, fold(&stats, &placement, &s));
            proptest::prop_assert!(charged
                .iter()
                .all(|c| c.scalar + c.bulk_ops + c.bulk_bytes > 0));
        }
    }

    /// The three CTM byte streams are charged separately because each
    /// rounds up to whole cycles on its own; merging them would
    /// under-charge. This pins that rounding behaviour.
    #[test]
    fn byte_streams_round_up_independently() {
        let stats = ExecStats {
            payload_bulk_bytes: 4,
            emitted_bytes: 4,
            ..Default::default()
        };
        // 4 B + 4 B is two partial cycles, not one merged full cycle.
        assert_eq!(exec_cycles(&stats, &[], &spec()), 2);
    }
}
