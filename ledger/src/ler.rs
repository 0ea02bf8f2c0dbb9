//! The two logical-error-rate workloads.
//!
//! * `ler_mwpm_adaptive` — one [`SweepEngine::run`] with adaptive
//!   Wilson-CI allocation, MWPM, over a clean patch and seeded
//!   defective chiplets (the path of Figs. 5/6/11).
//! * `ler_uf_d17` — the [`CompiledExperiment`] seam at d = 17 with
//!   union-find and uniform shots: decoder construction dominates
//!   set-up, and sampling rivals decoding per shot.
//!
//! The traced run replays the same work one public layer call at a time
//! (circuit generation, noise, DEM, graph and decoder build, reweight,
//! frame sampling, event extraction, batch decode) with the seam's own
//! seeding, and checks that the replay's tallies equal the engine's and
//! the seam's bit for bit — which also proves it measured the same work.

use crate::chiplets::{clean_patch, defective_chiplet, mix, LOT_SEED};
use crate::layers::{TraceFile, Tracer};
use crate::measure::{median, peak_rss_mb, repeat_for, rss_mb, timed, Checks};
use crate::{Ctx, EndToEnd, LayerValues};
use dqec_chiplet::record::NullSink;
use dqec_chiplet::runner::{batch_seed, CompiledExperiment, DecoderChoice, ExperimentSpec};
use dqec_core::circuit_gen::memory_z;
use dqec_matching::{DecodeStats, Decoder, MwpmDecoder, UfDecoder};
use dqec_obs::trace::span;
use dqec_sim::circuit::Circuit;
use dqec_sim::dem::ParametricDem;
use dqec_sim::frame::FrameSampler;
use dqec_sim::noise::NoiseModel;
use dqec_sweep::{EngineConfig, Precision, SweepEngine, SweepPlan};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

struct AdaptiveSize {
    clean_d: u32,
    chiplet_l: u32,
    chiplets: usize,
    /// Per-point shot cap.
    cap: usize,
    batch: usize,
    rel_width: f64,
}

fn adaptive_size(tiny: bool) -> AdaptiveSize {
    if tiny {
        AdaptiveSize {
            clean_d: 3,
            chiplet_l: 5,
            chiplets: 1,
            cap: 2048,
            batch: 512,
            rel_width: 0.5,
        }
    } else {
        AdaptiveSize {
            clean_d: 9,
            chiplet_l: 13,
            chiplets: 2,
            cap: 512,
            batch: 256,
            rel_width: 0.5,
        }
    }
}

const ADAPTIVE_PS: [f64; 3] = [2e-3, 3e-3, 5e-3];

fn engine(size: &AdaptiveSize) -> SweepEngine {
    SweepEngine::new(EngineConfig {
        batch: size.batch,
        precision: Some(Precision::new(size.rel_width)),
        ..EngineConfig::default()
    })
}

/// The sweep plan: the clean patch plus seeded defective chiplets.
fn adaptive_plan(size: &AdaptiveSize, seed: u64) -> SweepPlan {
    let mut patches = vec![(
        format!("clean d={}", size.clean_d),
        clean_patch(size.clean_d),
    )];
    for i in 0..size.chiplets {
        let (_, patch) = defective_chiplet(size.chiplet_l, mix(LOT_SEED, i as u64));
        patches.push((format!("chiplet {i} l={}", size.chiplet_l), patch));
    }
    patches
        .into_iter()
        .enumerate()
        .map(|(s, (label, patch))| {
            ExperimentSpec::memory(patch)
                .ps(&ADAPTIVE_PS)
                .shots(size.cap)
                .seed(mix(seed, s as u64))
                .label(label)
                .decoder(DecoderChoice::Mwpm.builder())
        })
        .collect()
}

/// Per spec, per point: `(shots, failures)`.
type Tallies = Vec<Vec<(usize, usize)>>;

fn run_engine(size: &AdaptiveSize, plan: &SweepPlan, checks: &mut Checks) -> Tallies {
    match engine(size).run(plan, &mut NullSink) {
        Ok(outcomes) => outcomes
            .iter()
            .map(|o| o.points.iter().map(|p| (p.shots, p.failures)).collect())
            .collect(),
        Err(e) => {
            checks.check(false, || format!("sweep engine failed: {e}"));
            Vec::new()
        }
    }
}

fn check_tallies(size: &AdaptiveSize, tallies: &Tallies, plan: &SweepPlan, checks: &mut Checks) {
    let shaped =
        tallies.len() == plan.len() && tallies.iter().all(|t| t.len() == ADAPTIVE_PS.len());
    let sane = tallies
        .iter()
        .flatten()
        .all(|&(shots, failures)| shots > 0 && shots <= size.cap && failures <= shots);
    checks.check(shaped && sane, || {
        format!("implausible sweep tallies {tallies:?}")
    });
}

pub fn adaptive_measure(ctx: &Ctx, checks: &mut Checks) -> EndToEnd {
    let size = adaptive_size(ctx.tiny);
    let mut plan = SweepPlan::new();
    // Set-up: build the plan and compile every spec once, so a sweep
    // never starts on a chiplet that does not compile.
    let setups: Vec<f64> = (0..3)
        .map(|_| {
            let (p, s) = timed(|| {
                let p = adaptive_plan(&size, ctx.seed);
                for spec in p.specs() {
                    let compiled = CompiledExperiment::new(spec);
                    checks.check(compiled.is_ok(), || format!("compile failed: {compiled:?}"));
                }
                p
            });
            plan = p;
            s
        })
        .collect();
    let mut first: Option<Tallies> = None;
    let mut shots = 0usize;
    let walls = repeat_for(ctx.seconds, 3, |_| {
        let tallies = run_engine(&size, &plan, checks);
        check_tallies(&size, &tallies, &plan, checks);
        shots = tallies.iter().flatten().map(|t| t.0).sum();
        match &first {
            None => first = Some(tallies),
            Some(f) => checks.check(*f == tallies, || {
                "sweep tallies differ between repeats".into()
            }),
        }
    });
    let wall_s = median(&walls);
    EndToEnd {
        wall_s,
        setup_s: median(&setups),
        throughput_per_s: shots as f64 / wall_s,
        samples: walls.len(),
    }
}

fn counter(name: &str) -> u64 {
    dqec_obs::registry().counter(name).get()
}

pub fn adaptive_traced(ctx: &Ctx, checks: &mut Checks) -> (LayerValues, TraceFile) {
    let size = adaptive_size(ctx.tiny);
    let plan = adaptive_plan(&size, ctx.seed);
    let before: Vec<u64> = [
        "sweep.rounds",
        "sweep.batches",
        "sweep.shots",
        "rayon.steals",
    ]
    .iter()
    .map(|n| counter(n))
    .collect();
    let (tallies, untraced_s) = timed(|| run_engine(&size, &plan, checks));
    check_tallies(&size, &tallies, &plan, checks);
    let delta = |i: usize, n: &str| (counter(n) - before[i]) as f64;
    let mut values = LayerValues::new();
    values.insert("sweep.rounds", delta(0, "sweep.rounds"));
    values.insert("sweep.batches", delta(1, "sweep.batches"));
    values.insert("sweep.shots", delta(2, "sweep.shots"));
    values.insert("pool.steals", delta(3, "rayon.steals"));

    let mut tracer = Tracer::start();
    let mut work = ReplayWork::default();
    let (replayed, traced_s) = timed(|| {
        let _w = span("ledger.workload");
        plan.specs()
            .iter()
            .zip(&tallies)
            .map(|(spec, points)| {
                let _s = span("ledger.spec");
                let mut exp = ReplayExperiment::compile_mwpm(spec);
                points
                    .iter()
                    .enumerate()
                    .map(|(j, &(shots, _))| {
                        let batches = shots.div_ceil(size.batch) as u64;
                        let stats = exp.sample_point(
                            j,
                            0..batches,
                            size.batch,
                            spec.target_shots(),
                            &mut work,
                        );
                        tracer.flush();
                        (stats.shots, stats.failures.first().copied().unwrap_or(0))
                    })
                    .collect::<Vec<_>>()
            })
            .collect::<Tallies>()
    });
    checks.check(replayed == tallies, || {
        format!("layer replay {replayed:?} != engine tallies {tallies:?}")
    });
    let (summary, file) = tracer.finish();
    work.report(&summary, &mut values);
    values.insert("trace.overhead_ratio", traced_s / untraced_s);
    values.insert("trace.coverage", summary.coverage);
    (values, file)
}

struct D17Size {
    clean_d: u32,
    chiplet_l: u32,
    /// Batches per experiment in one measured unit.
    unit_batches: u64,
    batch: usize,
}

fn d17_size(tiny: bool) -> D17Size {
    if tiny {
        D17Size {
            clean_d: 5,
            chiplet_l: 5,
            unit_batches: 1,
            batch: 512,
        }
    } else {
        D17Size {
            clean_d: 17,
            chiplet_l: 17,
            unit_batches: 4,
            batch: 4096,
        }
    }
}

const D17_P: f64 = 1e-3;

fn d17_specs(size: &D17Size, seed: u64) -> Vec<ExperimentSpec> {
    let (_, chiplet) = defective_chiplet(size.chiplet_l, mix(LOT_SEED, 100));
    [clean_patch(size.clean_d), chiplet]
        .into_iter()
        .enumerate()
        .map(|(s, patch)| {
            ExperimentSpec::memory(patch)
                .p(D17_P)
                .seed(mix(seed, 300 + s as u64))
                .decoder(DecoderChoice::Uf.builder())
        })
        .collect()
}

/// Compiles and selects every spec: the seam's whole set-up.
fn d17_compile(specs: &[ExperimentSpec], checks: &mut Checks) -> Vec<CompiledExperiment> {
    specs
        .iter()
        .filter_map(|spec| match CompiledExperiment::new(spec) {
            Ok(mut exp) => {
                checks.check(true, String::new);
                exp.select_point(0);
                Some(exp)
            }
            Err(e) => {
                checks.check(false, || format!("compile failed: {e}"));
                None
            }
        })
        .collect()
}

/// One measured unit: the next `unit_batches` full batches of every
/// experiment's shot stream (fresh batches each repetition, so the
/// decoders' syndrome caches see new shots).
fn d17_unit(
    size: &D17Size,
    exps: &[CompiledExperiment],
    rep: u64,
    checks: &mut Checks,
) -> Vec<DecodeStats> {
    let range = rep * size.unit_batches..(rep + 1) * size.unit_batches;
    exps.iter()
        .map(|exp| {
            let stats = exp.sample_batches(range.clone(), size.batch, usize::MAX);
            let want = size.unit_batches as usize * size.batch;
            let ok = stats.shots == want && stats.failures.iter().all(|&f| f <= want);
            checks.check(ok, || format!("unit {rep}: {stats:?} for {want} shots"));
            stats
        })
        .collect()
}

pub fn d17_measure(ctx: &Ctx, checks: &mut Checks) -> EndToEnd {
    let size = d17_size(ctx.tiny);
    let specs = d17_specs(&size, ctx.seed);
    let mut exps = Vec::new();
    let setups: Vec<f64> = (0..3)
        .map(|_| {
            drop(std::mem::take(&mut exps));
            let (e, s) = timed(|| d17_compile(&specs, checks));
            exps = e;
            s
        })
        .collect();
    let mut first = Vec::new();
    let walls = repeat_for(ctx.seconds, 3, |rep| {
        let stats = d17_unit(&size, &exps, rep as u64, checks);
        if rep == 0 {
            first = stats;
        }
    });
    // The seam is a pure function of (experiment, seed, batch range):
    // re-sampling the first unit after the run must tally identically.
    let again = d17_unit(&size, &exps, 0, checks);
    checks.check(again == first, || {
        "re-sampled unit 0 tallied differently".into()
    });
    let wall_s = median(&walls);
    EndToEnd {
        wall_s,
        setup_s: median(&setups),
        throughput_per_s: (exps.len() * size.unit_batches as usize * size.batch) as f64 / wall_s,
        samples: walls.len(),
    }
}

pub fn d17_traced(ctx: &Ctx, checks: &mut Checks) -> (LayerValues, TraceFile) {
    let size = d17_size(ctx.tiny);
    let specs = d17_specs(&size, ctx.seed);
    let mut values = LayerValues::new();

    // The replay runs first, in a fresh process, so the decoder-build
    // high-water marks are not hidden by an earlier build.
    let mut tracer = Tracer::start();
    let mut work = ReplayWork::default();
    let (replayed, traced_s) = timed(|| {
        let _w = span("ledger.workload");
        let mut exps: Vec<ReplayExperiment> = specs
            .iter()
            .map(|spec| {
                let _s = span("ledger.spec");
                ReplayExperiment::compile_uf_split(spec, &mut work)
            })
            .collect();
        exps.iter_mut()
            .map(|exp| {
                let _s = span("ledger.spec");
                let stats =
                    exp.sample_point(0, 0..size.unit_batches, size.batch, usize::MAX, &mut work);
                tracer.flush();
                stats
            })
            .collect::<Vec<_>>()
    });
    let (summary, file) = tracer.finish();

    let steals = counter("rayon.steals");
    let ((exps, unit), untraced_s) = timed(|| {
        let exps = d17_compile(&specs, checks);
        let unit = d17_unit(&size, &exps, 0, checks);
        (exps, unit)
    });
    drop(exps);
    values.insert("pool.steals", (counter("rayon.steals") - steals) as f64);
    checks.check(replayed == unit, || {
        format!("layer replay {replayed:?} != seam tallies {unit:?}")
    });
    work.report(&summary, &mut values);
    values.insert("trace.overhead_ratio", traced_s / untraced_s);
    values.insert("trace.coverage", summary.coverage);
    (values, file)
}

/// Work counters of a replay, for per-shot and per-call layer figures.
#[derive(Debug, Default)]
struct ReplayWork {
    shots: usize,
    events: usize,
    cache_hits: u64,
    cache_misses: u64,
    build_rss_mb: Vec<f64>,
}

impl ReplayWork {
    fn report(&self, summary: &crate::layers::TraceSummary, values: &mut LayerValues) {
        let ms = |n: &str| summary.layer(n).mean(1e6);
        let per_shot = |n: &str| summary.layer(n).total_ns as f64 / self.shots.max(1) as f64;
        values.insert("core.circuit_gen.ms", ms("core.circuit_gen"));
        values.insert("chiplet.compile.ms", ms("chiplet.compile"));
        values.insert("chiplet.select_point.ms", ms("chiplet.select_point"));
        values.insert("sim.noise.ms", ms("sim.noise"));
        values.insert("sim.dem.ms", ms("sim.dem"));
        values.insert("matching.graph.build_ms", ms("matching.graph.build"));
        values.insert("matching.decoder.build_ms", ms("matching.decoder.build"));
        values.insert("matching.reweight.ms", ms("matching.reweight"));
        values.insert("sim.sample.ns_per_shot", per_shot("sim.sample"));
        values.insert("sim.extract.ns_per_shot", per_shot("sim.extract"));
        values.insert("matching.decode.ns_per_shot", per_shot("matching.decode"));
        values.insert(
            "sim.events_per_shot",
            self.events as f64 / self.shots.max(1) as f64,
        );
        let lookups = self.cache_hits + self.cache_misses;
        values.insert(
            "matching.syndrome_cache.hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                self.cache_hits as f64 / lookups as f64
            },
        );
        values.insert("matching.decoder.build_rss_mb", median(&self.build_rss_mb));
    }
}

/// One experiment rebuilt from public layer calls: what
/// [`CompiledExperiment::new`] and [`CompiledExperiment::select_point`]
/// do, one span per call.
struct ReplayExperiment {
    ps: Vec<f64>,
    circuit: Circuit,
    decoder: Box<dyn Decoder>,
    /// The `p` the decoder's weights currently carry.
    weights_p: f64,
    seed: u64,
}

impl ReplayExperiment {
    /// Circuit generation plus the reweightable MWPM build at the sweep's
    /// largest `p` (as [`CompiledExperiment::new`]).
    fn compile_mwpm(spec: &ExperimentSpec) -> Self {
        let _c = span("chiplet.compile");
        let circuit = Self::circuit(spec);
        let template = spec.sweep_ps().iter().fold(0.0f64, |a, &b| a.max(b));
        let noise = NoiseModel::new(template);
        let decoder: Box<dyn Decoder> = {
            let _b = span("matching.decoder.build");
            Box::new(MwpmDecoder::from_clean(&circuit, &noise))
        };
        Self::assemble(spec, circuit, decoder, template)
    }

    /// Single-`p` union-find compile split into its layer calls — noise,
    /// DEM, graph and decoder — with the build's resident-memory
    /// high-water mark. Bit-identical to `from_clean` at the template
    /// `p`, where the seam's reweight is a no-op.
    fn compile_uf_split(spec: &ExperimentSpec, work: &mut ReplayWork) -> Self {
        let _c = span("chiplet.compile");
        let circuit = Self::circuit(spec);
        let p = spec.sweep_ps()[0];
        let rss_before = rss_mb();
        let decoder: Box<dyn Decoder> = {
            let _b = span("matching.decoder.build");
            let (noisy, params) = {
                let _s = span("sim.noise");
                NoiseModel::new(p).apply_with_params(&circuit)
            };
            let dem = {
                let _s = span("sim.dem");
                ParametricDem::from_noisy(&noisy, &params).concretize(p)
            };
            let _g = span("matching.graph.build");
            Box::new(UfDecoder::with_dem(&noisy, &dem))
        };
        work.build_rss_mb.push(peak_rss_mb() - rss_before);
        Self::assemble(spec, circuit, decoder, p)
    }

    fn circuit(spec: &ExperimentSpec) -> Circuit {
        let _g = span("core.circuit_gen");
        memory_z(spec.patch(), spec.effective_rounds())
            .expect("workload chiplets are screened to generate")
            .circuit
    }

    fn assemble(
        spec: &ExperimentSpec,
        circuit: Circuit,
        decoder: Box<dyn Decoder>,
        weights_p: f64,
    ) -> Self {
        ReplayExperiment {
            ps: spec.sweep_ps().to_vec(),
            circuit,
            decoder,
            weights_p,
            seed: spec.base_seed(),
        }
    }

    /// Selects `point` (reweight, noisy circuit) and samples and decodes
    /// `batches` of its stream in parallel, as `sample_batches`.
    fn sample_point(
        &mut self,
        point: usize,
        batches: std::ops::Range<u64>,
        batch: usize,
        shots_bound: usize,
        work: &mut ReplayWork,
    ) -> DecodeStats {
        let _p = span("ledger.point");
        let p = self.ps[point];
        let noisy = {
            let _s = span("chiplet.select_point");
            let noise = NoiseModel::new(p);
            if p != self.weights_p {
                let _r = span("matching.reweight");
                assert!(
                    self.decoder.reweight(&noise),
                    "from_clean decoders reweight"
                );
                self.weights_p = p;
            }
            let _n = span("sim.noise");
            noise.apply_with_params(&self.circuit).0
        };
        // `CompiledExperiment::point_seed`: the spec seed perturbed by
        // the point index.
        let seed = self.seed.wrapping_add(point as u64);
        let decoder = self.decoder.as_ref();
        let results: Vec<(DecodeStats, usize)> = batches
            .into_par_iter()
            .map(|b| {
                let _b = span("ledger.batch");
                let lo = (b as usize).saturating_mul(batch);
                let n = batch.min(shots_bound.saturating_sub(lo));
                if n == 0 {
                    return (DecodeStats::new(decoder.num_observables()), 0);
                }
                let mut rng = ChaCha8Rng::seed_from_u64(batch_seed(seed, b));
                let shots = {
                    let _s = span("sim.sample");
                    FrameSampler::new(&noisy).sample(n, &mut rng)
                };
                let events = {
                    let _s = span("sim.extract");
                    shots.shot_events().total_events()
                };
                let _d = span("matching.decode");
                (decoder.decode_batch(&shots), events)
            })
            .collect();
        let mut stats = DecodeStats::new(self.decoder.num_observables());
        for (s, events) in &results {
            stats.merge(s);
            work.events += events;
        }
        work.shots += stats.shots;
        work.cache_hits += stats.cache_hits;
        work.cache_misses += stats.cache_misses;
        stats
    }
}
