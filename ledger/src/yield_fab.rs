//! `yield_fab`: the paper's §5 overhead loop. Chiplet populations are
//! fabricated with [`sample_indicators`] for two widths at two
//! fabrication rates, with orientation freedom, and feed
//! [`yield_from_indicators`], [`overhead_factor`] and the optimal
//! chiplet size. No circuit, sim or matching code runs, so this is the
//! no-change control for decode and sampling work, and the only
//! workload a `dqec_core` adaptation change moves.
//!
//! The traced run replays every chiplet through `DefectModel::sample`,
//! `AdaptedPatch::new` and `PatchIndicators::of` with the library's
//! per-chiplet seeding and checks the replayed population equals
//! `sample_indicators`' bit for bit.

use crate::chiplets::mix;
use crate::layers::{TraceFile, Tracer};
use crate::measure::{median, repeat_for, timed, Checks};
use crate::{Ctx, EndToEnd, LayerValues};
use dqec_chiplet::criteria::QualityTarget;
use dqec_chiplet::defect_model::DefectModel;
use dqec_chiplet::runner::Fnv;
use dqec_chiplet::yields::{
    optimal_chiplet_size, overhead_factor, sample_indicators, yield_from_indicators, SampleConfig,
};
use dqec_core::adapt::AdaptedPatch;
use dqec_core::indicators::PatchIndicators;
use dqec_core::layout::PatchLayout;
use dqec_obs::trace::span;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

const MODEL: DefectModel = DefectModel::LinkAndQubit;
const RATES: [f64; 2] = [0.005, 0.01];

struct Size {
    widths: [u32; 2],
    /// Target distances the yield is measured against (Fig. 18's axis).
    d_targets: &'static [u32],
    samples: usize,
}

fn size(tiny: bool) -> Size {
    if tiny {
        Size {
            widths: [5, 7],
            d_targets: &[3],
            samples: 40,
        }
    } else {
        Size {
            widths: [13, 17],
            d_targets: &[5, 7, 9, 11],
            samples: 150,
        }
    }
}

/// One population per (rate, width). Both widths of a rate share its
/// seed, as `optimal_chiplet_size` draws them.
fn configs(size: &Size, seed: u64) -> Vec<SampleConfig> {
    RATES
        .iter()
        .enumerate()
        .flat_map(|(r, &rate)| {
            size.widths.iter().map(move |&l| SampleConfig {
                samples: size.samples,
                seed: mix(seed, r as u64),
                orientation_freedom: true,
                ..SampleConfig::new(l, MODEL, rate)
            })
        })
        .collect()
}

/// One quality target: its defect-free reference and, per rate, the
/// closed-form yield of the defect-intolerant `l = d` baseline.
struct Target {
    quality: QualityTarget,
    baseline: Vec<f64>,
}

/// Set-up: every target of the sweep.
fn setup(size: &Size) -> Vec<Target> {
    size.d_targets
        .iter()
        .map(|&d| {
            let layout = PatchLayout::memory(d);
            Target {
                quality: QualityTarget::defect_free(d),
                baseline: RATES
                    .iter()
                    .map(|&rate| MODEL.defect_free_probability(&layout, rate))
                    .collect(),
            }
        })
        .collect()
}

/// FNV digest of a population's indicators.
fn digest(inds: &[PatchIndicators]) -> u64 {
    let mut h = Fnv::new();
    for i in inds {
        for w in [
            u64::from(i.valid),
            u64::from(i.dist_x),
            i.count_x.to_bits(),
            u64::from(i.dist_z),
            i.count_z.to_bits(),
            i.num_faulty as u64,
            i.num_disabled_data as u64,
            i.num_disabled_faces as u64,
            i.largest_cluster_diameter.to_bits(),
        ] {
            h.word(w);
        }
    }
    h.finish()
}

/// Per target, per rate: the optimum `(l, overhead)` over the baseline
/// and the fabricated widths, as `optimal_chiplet_size` computes it.
type Optima = Vec<Vec<(u32, f64)>>;

/// One measured unit: fabricate every population and reduce it to
/// yields, overheads and optima for every target.
fn unit(
    size: &Size,
    configs: &[SampleConfig],
    targets: &[Target],
    checks: &mut Checks,
) -> (Vec<u64>, Optima) {
    let mut optima: Optima = size
        .d_targets
        .iter()
        .zip(targets)
        .map(|(&d, t)| {
            t.baseline
                .iter()
                .map(|&y| (d, overhead_factor(d, y, d)))
                .collect()
        })
        .collect();
    let mut digests = Vec::with_capacity(configs.len());
    for (c, config) in configs.iter().enumerate() {
        let inds = sample_indicators(config);
        let ok = inds.len() == config.samples && inds.iter().all(|i| i.distance() <= config.l);
        checks.check(ok, || {
            format!("population {c}: {} chiplets, distances above l", inds.len())
        });
        for ((&d, target), best) in size.d_targets.iter().zip(targets).zip(&mut optima) {
            let y = yield_from_indicators(&inds, &target.quality).fraction();
            checks.check((0.0..=1.0).contains(&y), || {
                format!("population {c}: yield {y} at d={d}")
            });
            let f = overhead_factor(config.l, y, d);
            let best = &mut best[c / size.widths.len()];
            if f < best.1 {
                *best = (config.l, f);
            }
        }
        digests.push(digest(&inds));
    }
    (digests, optima)
}

pub fn measure(ctx: &Ctx, checks: &mut Checks) -> EndToEnd {
    let size = size(ctx.tiny);
    let configs = configs(&size, ctx.seed);
    let mut inputs = setup(&size);
    let setup_walls: Vec<f64> = (0..15)
        .map(|_| {
            let (out, s) = timed(|| setup(&size));
            inputs = out;
            s
        })
        .collect();
    let mut first: Option<(Vec<u64>, Optima)> = None;
    let walls = repeat_for(ctx.seconds, 3, |_| {
        let out = unit(&size, &configs, &inputs, checks);
        match &first {
            None => first = Some(out),
            Some(f) => checks.check(*f == out, || {
                "population digest changed for the same seed".into()
            }),
        }
    });
    // The library's own sweep must pick the same optimum; it re-samples
    // both widths, so check the largest target only.
    if let (Some((_, optima)), Some(&d)) = (&first, size.d_targets.last()) {
        for (r, &rate) in RATES.iter().enumerate() {
            let mut ls = vec![d];
            ls.extend(size.widths);
            let lib = optimal_chiplet_size(
                MODEL,
                rate,
                d,
                &ls,
                size.samples,
                mix(ctx.seed, r as u64),
                true,
            );
            let ours = optima[optima.len() - 1][r];
            checks.check(lib == ours, || {
                format!("optimal_chiplet_size {lib:?} != populations' optimum {ours:?}")
            });
        }
    }
    let wall_s = median(&walls);
    EndToEnd {
        wall_s,
        setup_s: median(&setup_walls),
        throughput_per_s: (configs.len() * size.samples) as f64 / wall_s,
        samples: walls.len(),
    }
}

/// Chiplets per trace flush: six spans each, well under a ring.
const CHUNK: usize = 256;

/// `sample_indicators`' per-chiplet evaluation, one span per layer call.
fn replay_chiplet(layout: &PatchLayout, config: &SampleConfig, i: usize) -> PatchIndicators {
    let _c = span("ledger.chiplet");
    let mut rng =
        ChaCha8Rng::seed_from_u64(config.seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let defects = {
        let _s = span("chiplet.defect_sample");
        config.model.sample(layout, config.rate, &mut rng)
    };
    let evaluate = |defects| {
        let patch = {
            let _s = span("core.adapt");
            AdaptedPatch::new(layout.clone(), defects)
        };
        let _s = span("core.indicators");
        PatchIndicators::of(&patch)
    };
    let primary = evaluate(&defects);
    let secondary = evaluate(&defects.swapped_orientation(config.l));
    // The better orientation: larger distance, then fewer shortest
    // logicals; ties keep the primary.
    let key = |p: &PatchIndicators| (p.distance(), -p.shortest_logical_count());
    if key(&secondary).partial_cmp(&key(&primary)) == Some(std::cmp::Ordering::Greater) {
        secondary
    } else {
        primary
    }
}

pub fn traced(ctx: &Ctx, checks: &mut Checks) -> (LayerValues, TraceFile) {
    let size = size(ctx.tiny);
    let configs = configs(&size, ctx.seed);
    let targets = setup(&size);
    let steals = dqec_obs::registry().counter("rayon.steals").get();
    let ((digests, _), untraced_s) = timed(|| unit(&size, &configs, &targets, checks));
    let steals = dqec_obs::registry().counter("rayon.steals").get() - steals;

    let mut tracer = Tracer::start();
    let (replayed, traced_s) = timed(|| {
        let _w = span("ledger.workload");
        configs
            .iter()
            .map(|config| {
                let _s = span("ledger.spec");
                let layout = PatchLayout::memory(config.l);
                let mut inds = Vec::with_capacity(config.samples);
                for lo in (0..config.samples).step_by(CHUNK) {
                    let _k = span("ledger.chunk");
                    let hi = (lo + CHUNK).min(config.samples);
                    inds.extend(
                        (lo..hi)
                            .into_par_iter()
                            .map(|i| replay_chiplet(&layout, config, i))
                            .collect::<Vec<_>>(),
                    );
                    tracer.flush();
                }
                digest(&inds)
            })
            .collect::<Vec<_>>()
    });
    checks.check(replayed == digests, || {
        "layer replay population != sample_indicators".into()
    });
    let (summary, file) = tracer.finish();
    let us = |n: &str| summary.layer(n).mean(1e3);
    let mut values = LayerValues::new();
    values.insert("chiplet.defect_sample.us", us("chiplet.defect_sample"));
    values.insert("core.adapt.us", us("core.adapt"));
    values.insert("core.indicators.us", us("core.indicators"));
    values.insert("pool.steals", steals as f64);
    values.insert("trace.overhead_ratio", traced_s / untraced_s);
    values.insert("trace.coverage", summary.coverage);
    (values, file)
}
