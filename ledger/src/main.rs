//! The dqec performance ledger.
//!
//! ```text
//! dqec_ledger --workload NAME --seed N --seconds S --trace 0|1
//!             [--tiny] [--break-check] [--trace-out FILE]
//! ```
//!
//! Runs one named workload against the public library APIs, checks its
//! outputs, and prints as the last stdout line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, measured with tracing off; with
//! `--trace 1` a separate traced run replays the same work one layer
//! call at a time and reports the per-layer ones, writing its spans as
//! Chrome trace JSON. The exit code is non-zero when any output check
//! fails. `--tiny` shrinks every input for smoke tests; `--break-check`
//! forces the first check to fail.

mod chiplets;
mod layers;
mod ler;
mod measure;
mod serve_mixed;
mod yield_fab;

use measure::Checks;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// A second seed, never used while the benchmark was tuned, kept for
/// checking a claimed gain on inputs nobody optimised against.
const CLAIM_CHECK_SEED: u64 = 7_340_923;

const WORKLOADS: [&str; 4] = [
    "ler_mwpm_adaptive",
    "ler_uf_d17",
    "yield_fab",
    "serve_mixed",
];

/// End-to-end metrics, measured with tracing off.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run; a layer a workload never calls
/// reads 0 there.
const PER_LAYER: [(&str, &str); 34] = [
    ("core.circuit_gen.ms", "ms"),
    ("core.adapt.us", "us"),
    ("core.indicators.us", "us"),
    ("chiplet.defect_sample.us", "us"),
    ("chiplet.compile.ms", "ms"),
    ("chiplet.select_point.ms", "ms"),
    ("sim.noise.ms", "ms"),
    ("sim.dem.ms", "ms"),
    ("sim.sample.ns_per_shot", "ns/shot"),
    ("sim.extract.ns_per_shot", "ns/shot"),
    ("sim.events_per_shot", "count"),
    ("matching.graph.build_ms", "ms"),
    ("matching.decoder.build_ms", "ms"),
    ("matching.decoder.build_rss_mb", "MB"),
    ("matching.reweight.ms", "ms"),
    ("matching.decode.ns_per_shot", "ns/shot"),
    ("matching.syndrome_cache.hit_ratio", "ratio"),
    ("sweep.rounds", "count"),
    ("sweep.batches", "count"),
    ("sweep.shots", "count"),
    ("serve.request.p50_ms", "ms"),
    ("serve.request.p99_ms", "ms"),
    ("serve.request.samples", "count"),
    ("serve.queue_wait.p50_us", "us"),
    ("serve.compile.p50_ms", "ms"),
    ("serve.decode.p50_us", "us"),
    ("serve.serialize.p50_us", "us"),
    ("serve.write.p50_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.coalesce_hits", "count"),
    ("serve.client.unaccounted_us", "us"),
    ("pool.steals", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
];

/// What every workload receives.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tiny: bool,
    /// Host cores: the worker cap and the client-connection count.
    pub cores: usize,
}

/// A workload's end-to-end figures (peak memory is read by `main`).
pub struct EndToEnd {
    /// Median wall time of one measured unit of work.
    pub wall_s: f64,
    /// Median set-up time.
    pub setup_s: f64,
    /// Decoded shots, fabricated chiplets or served requests per second.
    pub throughput_per_s: f64,
    /// Samples behind the medians (units, or requests for serving).
    pub samples: usize,
}

pub type LayerValues = BTreeMap<&'static str, f64>;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    break_check: bool,
    trace_out: Option<PathBuf>,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: dqec_ledger --workload {{{}}} --seed N --seconds S --trace 0|1 \
         [--tiny] [--break-check] [--trace-out FILE]",
        WORKLOADS.join(",")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        tiny: false,
        break_check: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    let mut seen = (false, false, false, false);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload = value();
                seen.0 = true;
            }
            "--seed" => {
                args.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an integer"));
                seen.1 = true;
            }
            "--seconds" => {
                args.seconds = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds takes a number"));
                seen.2 = true;
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
                seen.3 = true;
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value())),
            "--tiny" => args.tiny = true,
            "--break-check" => args.break_check = true,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if seen != (true, true, true, true) {
        usage("--workload, --seed, --seconds and --trace are required");
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload {:?}", args.workload));
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        usage("--seconds must be a non-negative number");
    }
    args
}

/// The checked-out commit, read from `.git` in the working directory
/// ("unknown" outside a git checkout).
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => read(r)
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read("packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
            .unwrap_or_else(|| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn main() {
    let args = parse_args();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tiny: args.tiny,
        cores,
    };
    let mut checks = Checks {
        sabotage: args.break_check,
        ..Checks::default()
    };
    let workload = args.workload.as_str();
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let mut meta = vec![
        ("workload", format!("{workload:?}")),
        ("seed", args.seed.to_string()),
        ("claim_check_seed", CLAIM_CHECK_SEED.to_string()),
        ("host_cores", cores.to_string()),
        ("worker_cap", cores.to_string()),
        ("commit", format!("{:?}", commit())),
    ];
    if workload == "serve_mixed" {
        meta.push(("client_connections", cores.to_string()));
    }
    rayon::with_worker_cap(cores, || {
        if args.trace {
            let (values, file) = match workload {
                "ler_mwpm_adaptive" => ler::adaptive_traced(&ctx, &mut checks),
                "ler_uf_d17" => ler::d17_traced(&ctx, &mut checks),
                "yield_fab" => yield_fab::traced(&ctx, &mut checks),
                _ => serve_mixed::traced(&ctx, &mut checks),
            };
            for name in values.keys() {
                checks.check(PER_LAYER.iter().any(|(n, _)| n == name), || {
                    format!("undeclared layer metric {name}")
                });
            }
            for (name, unit) in PER_LAYER {
                metrics.push((name, values.get(name).copied().unwrap_or(0.0), unit));
            }
            let path = args.trace_out.clone().unwrap_or_else(|| {
                PathBuf::from(format!("ledger/out/trace-{workload}-{}.json", args.seed))
            });
            let written = path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(&path, file.chrome_json()));
            checks.check(written.is_ok(), || {
                format!("cannot write {}: {written:?}", path.display())
            });
            meta.push(("trace_file", format!("{:?}", path.display().to_string())));
        } else {
            let e2e = match workload {
                "ler_mwpm_adaptive" => ler::adaptive_measure(&ctx, &mut checks),
                "ler_uf_d17" => ler::d17_measure(&ctx, &mut checks),
                "yield_fab" => yield_fab::measure(&ctx, &mut checks),
                _ => serve_mixed::measure(&ctx, &mut checks),
            };
            let values = [
                e2e.wall_s,
                e2e.setup_s,
                e2e.throughput_per_s,
                measure::peak_rss_mb(),
            ];
            for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
                metrics.push((name, value, unit));
            }
            meta.push(("samples", e2e.samples.to_string()));
        }
    });

    for (name, value, _) in &metrics {
        checks.check(value.is_finite(), || format!("{name} is {value}"));
    }
    let render = |pairs: Vec<String>| format!("{{{}}}", pairs.join(", "));
    let meta = render(meta.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect());
    println!("{{\"meta\": {meta}}}");
    let metrics = render(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect(),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed
    );
    if checks.failed > 0 {
        std::process::exit(1);
    }
}
