//! Seeded workload inputs: defective chiplets that compile.

use dqec_chiplet::defect_model::DefectModel;
use dqec_chiplet::runner::default_rounds;
use dqec_core::adapt::AdaptedPatch;
use dqec_core::circuit_gen::memory_z;
use dqec_core::defect::DefectSet;
use dqec_core::layout::PatchLayout;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The fabrication lot the logical-error-rate workloads and the serving
/// workload's warm keys draw their defective chiplets from. One
/// chiplet's decode cost varies about 3x with its defect geometry, so a
/// lot drawn per workload seed made wall time spread ±20% across seeds;
/// a fixed lot keeps the measured work the same and leaves the workload
/// seed every shot stream, request stream and never-seen chiplet.
pub const LOT_SEED: u64 = 0x10_7a_b5;

/// Fabrication rate (LinkAndQubit) of every defective chiplet a
/// logical-error-rate or serving workload compiles.
const DEFECT_RATE: f64 = 0.01;

/// Decorrelates a base seed per stream index (splitmix64 finalizer).
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The defect-free `d x d` memory patch.
pub fn clean_patch(d: u32) -> AdaptedPatch {
    AdaptedPatch::new(PatchLayout::memory(d), &DefectSet::new())
}

/// The first `LinkAndQubit` chiplet of width `l` at [`DEFECT_RATE`],
/// drawn from the stream `seed`, that has at least one defect and whose
/// memory circuit generates — so every experiment built on it compiles
/// and the workload has no failing operation by construction. Returns
/// the defect set (what a request names) and the adapted patch.
pub fn defective_chiplet(l: u32, seed: u64) -> (DefectSet, AdaptedPatch) {
    let layout = PatchLayout::memory(l);
    for attempt in 0.. {
        let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, attempt));
        let defects = DefectModel::LinkAndQubit.sample(&layout, DEFECT_RATE, &mut rng);
        if defects.is_empty() {
            continue;
        }
        let patch = AdaptedPatch::new(layout.clone(), &defects);
        if patch.is_valid() && memory_z(&patch, default_rounds(&patch)).is_ok() {
            return (defects, patch);
        }
    }
    unreachable!("the attempt stream is unbounded")
}
