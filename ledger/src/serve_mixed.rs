//! `serve_mixed`: an in-process `dqec_serve` over loopback, driven in a
//! closed loop (each client waits for its reply before sending again)
//! by at most `nproc` client connections.
//!
//! Requests cover defective chiplets under both decoders, each with a
//! fresh seed. Seven in eight name a pre-warmed (chiplet, decoder) key
//! from the fixed lot; one in eight, at a seeded position in every block
//! of eight, names a never-seen chiplet drawn from the workload seed and
//! so compiles on the request path. The median request therefore measures the warm path and
//! the tail the compile-on-miss path. This is the only workload through
//! the protocol, the admission queues and the compiled-experiment cache.

use crate::chiplets::{defective_chiplet, mix, LOT_SEED};
use crate::layers::{TraceFile, Tracer};
use crate::measure::{median, quantile, secs_since, timed, Checks};
use crate::{Ctx, EndToEnd, LayerValues};
use dqec_chiplet::runner::{CompiledExperiment, DecoderChoice};
use dqec_core::defect::DefectSet;
use dqec_obs::Clock;
use dqec_serve::cache::{normalized_spec, BATCH_SHOTS};
use dqec_serve::protocol::{
    parse_response, DecodeRequest, LerResponse, MetricsResponse, Request, Response, StatsResponse,
};
use dqec_serve::{start, ServerConfig, ServerHandle};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

const P: f64 = 1e-3;
/// One request in every block of this many compiles on the request path.
const MISS_EVERY: usize = 8;
/// Responses re-derived locally after the timed windows.
const CONFORMANCE_SAMPLES: usize = 8;

struct Size {
    l: u32,
    /// Warm chiplets; each is pre-warmed under both decoders.
    warm_chiplets: usize,
    /// Requests per timed window.
    window: usize,
    min_windows: usize,
    shots: usize,
}

fn size(tiny: bool) -> Size {
    if tiny {
        Size {
            l: 5,
            warm_chiplets: 2,
            window: 32,
            min_windows: 1,
            shots: 128,
        }
    } else {
        Size {
            l: 9,
            warm_chiplets: 8,
            window: 200,
            min_windows: 5,
            shots: 4096,
        }
    }
}

/// The seeded request stream.
struct Stream {
    seed: u64,
    rng: ChaCha8Rng,
    keys: Vec<(DefectSet, DecoderChoice)>,
    next_id: u64,
    misses: u64,
    l: u32,
    shots: usize,
}

impl Stream {
    fn new(size: &Size, seed: u64) -> Stream {
        let keys = (0..size.warm_chiplets)
            .flat_map(|i| {
                let (defects, _) = defective_chiplet(size.l, mix(LOT_SEED, 1000 + i as u64));
                DecoderChoice::ALL
                    .iter()
                    .map(move |&d| (defects.clone(), d))
            })
            .collect();
        Stream {
            seed,
            rng: ChaCha8Rng::seed_from_u64(mix(seed, 999)),
            keys,
            next_id: 0,
            misses: 0,
            l: size.l,
            shots: size.shots,
        }
    }

    fn request(&mut self, defects: DefectSet, decoder: DecoderChoice) -> DecodeRequest {
        self.next_id += 1;
        DecodeRequest {
            id: self.next_id,
            d: self.l,
            p: P,
            rounds: None,
            shots: self.shots,
            // The wire carries integers as JSON numbers: keep seeds
            // exactly representable (below 2^53).
            seed: self.rng.gen::<u64>() >> 11,
            decoder,
            defects,
        }
    }

    /// One request per warm key.
    fn warm_up(&mut self) -> Vec<DecodeRequest> {
        let keys = self.keys.clone();
        keys.into_iter()
            .map(|(defects, d)| self.request(defects, d))
            .collect()
    }

    /// The next `n` requests (a multiple of [`MISS_EVERY`]) and whether
    /// each names a never-seen chiplet.
    fn window(&mut self, n: usize) -> Vec<(DecodeRequest, bool)> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let miss_at = self.rng.gen_range(0..MISS_EVERY);
            for j in 0..MISS_EVERY {
                let (defects, decoder, miss) = if j == miss_at {
                    self.misses += 1;
                    let (defects, _) =
                        defective_chiplet(self.l, mix(self.seed, 1 << 40 | self.misses));
                    let decoder =
                        DecoderChoice::ALL[self.rng.gen_range(0..DecoderChoice::ALL.len())];
                    (defects, decoder, true)
                } else {
                    let k = self.rng.gen_range(0..self.keys.len());
                    (self.keys[k].0.clone(), self.keys[k].1, false)
                };
                out.push((self.request(defects, decoder), miss));
            }
        }
        out
    }
}

struct Client {
    write: TcpStream,
    read: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &ServerHandle) -> std::io::Result<Client> {
        let stream = TcpStream::connect(server.addr())?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            write: stream.try_clone()?,
            read: BufReader::new(stream),
        })
    }

    fn call(&mut self, req: &Request) -> Result<Response, String> {
        writeln!(self.write, "{}", req.render_line()).map_err(|e| e.to_string())?;
        self.write.flush().map_err(|e| e.to_string())?;
        let mut line = String::new();
        match self.read.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => parse_response(line.trim_end()),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// A served request: its window index, client, timing and reply.
struct Served {
    idx: usize,
    client: usize,
    start_ns: u64,
    end_ns: u64,
    reply: Result<Response, String>,
}

impl Served {
    fn latency_ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

fn check_reply(
    req: &DecodeRequest,
    reply: &Result<Response, String>,
    checks: &mut Checks,
) -> Option<LerResponse> {
    match reply {
        Ok(Response::Ler(r))
            if r.id == req.id && r.shots == req.shots && r.failures <= r.shots as u64 =>
        {
            checks.check(true, String::new);
            Some(r.clone())
        }
        other => {
            checks.check(false, || {
                format!("request {}: unexpected reply {other:?}", req.id)
            });
            None
        }
    }
}

/// A running server with one connection per client, pre-warmed.
struct Service {
    server: ServerHandle,
    clients: Vec<Client>,
}

impl Service {
    /// Set-up: server start plus cache warm-up over one connection.
    fn start(stream: &mut Stream, clients: usize, checks: &mut Checks) -> Service {
        let server = start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            // Room for every warm key plus a run of one-off miss keys
            // long enough (~256 requests) that LRU eviction practically
            // never turns a warm key cold.
            cache_capacity: stream.keys.len() + 32,
            ..ServerConfig::default()
        })
        .unwrap_or_else(|e| fail(&format!("cannot start the server: {e}")));
        let mut clients: Vec<Client> = (0..clients)
            .map(|_| {
                Client::connect(&server).unwrap_or_else(|e| fail(&format!("cannot connect: {e}")))
            })
            .collect();
        for req in stream.warm_up() {
            let reply = clients[0].call(&Request::Decode(req.clone()));
            check_reply(&req, &reply, checks);
        }
        Service { server, clients }
    }

    fn stop(self) {
        drop(self.clients);
        self.server.stop();
    }

    /// Serves one window closed-loop: each client takes the next unsent
    /// request, waits for its reply, and repeats.
    fn window(&mut self, reqs: &[(DecodeRequest, bool)]) -> (Vec<Served>, f64) {
        let next = AtomicUsize::new(0);
        timed(|| {
            std::thread::scope(|s| {
                let workers: Vec<_> = self
                    .clients
                    .iter_mut()
                    .enumerate()
                    .map(|(c, client)| {
                        let next = &next;
                        s.spawn(move || {
                            let mut done = Vec::new();
                            loop {
                                let idx = next.fetch_add(1, Ordering::Relaxed);
                                let Some((req, _)) = reqs.get(idx) else { break };
                                let start_ns = Clock::now_ns();
                                let reply = client.call(&Request::Decode(req.clone()));
                                done.push(Served {
                                    idx,
                                    client: c,
                                    start_ns,
                                    end_ns: Clock::now_ns(),
                                    reply,
                                });
                            }
                            done
                        })
                    })
                    .collect();
                let mut all: Vec<Served> = workers
                    .into_iter()
                    .flat_map(|w| w.join().unwrap_or_default())
                    .collect();
                all.sort_by_key(|s| s.idx);
                all
            })
        })
    }

    fn stats(&mut self, checks: &mut Checks) -> Option<StatsResponse> {
        match self.clients[0].call(&Request::Stats { id: 0 }) {
            Ok(Response::Stats(s)) => Some(s),
            other => {
                checks.check(false, || format!("stats op answered {other:?}"));
                None
            }
        }
    }

    fn metrics(&mut self, checks: &mut Checks) -> Option<MetricsResponse> {
        match self.clients[0].call(&Request::Metrics { id: 0 }) {
            Ok(Response::Metrics(m)) => Some(m),
            other => {
                checks.check(false, || format!("metrics op answered {other:?}"));
                None
            }
        }
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}

/// Checks every reply and keeps `(request, response, miss)` for the
/// conformance sample.
fn check_window(
    reqs: &[(DecodeRequest, bool)],
    served: &[Served],
    checks: &mut Checks,
    kept: &mut Vec<(DecodeRequest, LerResponse, bool)>,
) {
    checks.check(served.len() == reqs.len(), || {
        format!("{} of {} requests answered", served.len(), reqs.len())
    });
    for s in served {
        let (req, miss) = &reqs[s.idx];
        if let Some(r) = check_reply(req, &s.reply, checks) {
            kept.push((req.clone(), r, *miss));
        }
    }
}

/// Outside the timed windows: a seeded sample of replies (misses
/// first) must equal `CompiledExperiment::sample_batches_with_seed` for
/// the same request.
fn check_conformance(seed: u64, kept: &[(DecodeRequest, LerResponse, bool)], checks: &mut Checks) {
    let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, 77));
    let misses: Vec<usize> = (0..kept.len()).filter(|&i| kept[i].2).collect();
    let mut picks: Vec<usize> = misses.iter().copied().take(1).collect();
    while picks.len() < CONFORMANCE_SAMPLES.min(kept.len()) {
        picks.push(rng.gen_range(0..kept.len()));
    }
    for i in picks {
        let (req, resp, _) = &kept[i];
        let local = CompiledExperiment::new(&normalized_spec(req)).map(|mut exp| {
            exp.select_point(0);
            let batches = req.shots.div_ceil(BATCH_SHOTS) as u64;
            exp.sample_batches_with_seed(0..batches, BATCH_SHOTS, req.shots, req.seed)
        });
        let ok = local.as_ref().is_ok_and(|s| {
            s.shots == resp.shots
                && s.failures.first().copied().unwrap_or(0) as u64 == resp.failures
        });
        checks.check(ok, || {
            format!("request {}: served {resp:?}, local {local:?}", req.id)
        });
    }
}

pub fn measure(ctx: &Ctx, checks: &mut Checks) -> EndToEnd {
    let size = size(ctx.tiny);
    let mut stream = Stream::new(&size, ctx.seed);
    let mut setups = Vec::new();
    let mut service = None;
    for _ in 0..3 {
        if let Some(s) = service.take() {
            Service::stop(s);
        }
        let (s, wall) = timed(|| Service::start(&mut stream, ctx.cores, checks));
        setups.push(wall);
        service = Some(s);
    }
    let mut service = service.unwrap_or_else(|| fail("no server"));
    let t0 = Clock::now_ns();
    let mut walls = Vec::new();
    let mut latencies = Vec::new();
    let mut kept = Vec::new();
    while walls.len() < size.min_windows || secs_since(t0) < ctx.seconds {
        let reqs = stream.window(size.window);
        let (served, wall) = service.window(&reqs);
        walls.push(wall);
        latencies.extend(served.iter().map(Served::latency_ms));
        check_window(&reqs, &served, checks, &mut kept);
    }
    service.stop();
    check_conformance(ctx.seed, &kept, checks);
    eprintln!(
        "serve_mixed: {} requests, p50 {:.3} ms, p99 {:.3} ms",
        latencies.len(),
        quantile(&latencies, 0.5),
        quantile(&latencies, 0.99)
    );
    let wall_s = median(&walls);
    EndToEnd {
        wall_s,
        setup_s: median(&setups),
        throughput_per_s: size.window as f64 / wall_s,
        samples: latencies.len(),
    }
}

pub fn traced(ctx: &Ctx, checks: &mut Checks) -> (LayerValues, TraceFile) {
    let size = size(ctx.tiny);
    let mut stream = Stream::new(&size, ctx.seed);
    let mut service = Service::start(&mut stream, ctx.cores, checks);
    let before = service.stats(checks);
    let steals = dqec_obs::registry().counter("rayon.steals");

    // Untraced and traced windows alternate, so both see the same cache
    // and pool state on average. The untraced ones give the request
    // latencies: at least 1000, so p99 has 10 samples beyond it.
    let windows = size.min_windows;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut latencies = Vec::new();
    let mut kept = Vec::new();
    let mut stolen = 0;
    let mut tracer = Tracer::start();
    dqec_obs::trace::set_enabled(false);
    for _ in 0..windows {
        let reqs = stream.window(size.window);
        let s0 = steals.get();
        let (served, wall) = service.window(&reqs);
        stolen += steals.get() - s0;
        untraced.push(wall);
        latencies.extend(served.iter().map(Served::latency_ms));
        check_window(&reqs, &served, checks, &mut kept);

        let reqs = stream.window(size.window);
        dqec_obs::trace::set_enabled(true);
        let (served, wall) = service.window(&reqs);
        dqec_obs::trace::set_enabled(false);
        traced.push(wall);
        tracer.flush();
        for s in &served {
            tracer.request(
                reqs[s.idx].0.id,
                1_000_000 + s.client as u64,
                s.start_ns,
                s.end_ns,
            );
        }
        check_window(&reqs, &served, checks, &mut kept);
    }
    let after = service.stats(checks);
    let metrics = service.metrics(checks);
    service.stop();
    check_conformance(ctx.seed, &kept, checks);
    let (summary, file) = tracer.finish();

    let stage_us = |name: &str| {
        metrics
            .as_ref()
            .and_then(|m| m.stages.iter().find(|s| s.name == name))
            .map_or(0.0, |s| s.p50_us)
    };
    let mut values = LayerValues::new();
    let p50_ms = quantile(&latencies, 0.5);
    values.insert("serve.request.p50_ms", p50_ms);
    values.insert("serve.request.p99_ms", quantile(&latencies, 0.99));
    values.insert("serve.request.samples", latencies.len() as f64);
    let stages = ["queue_wait", "decode", "serialize", "write"]
        .map(|s| stage_us(&format!("serve.stage.{s}")));
    values.insert("serve.queue_wait.p50_us", stages[0]);
    values.insert("serve.decode.p50_us", stages[1]);
    values.insert("serve.serialize.p50_us", stages[2]);
    values.insert("serve.write.p50_us", stages[3]);
    values.insert(
        "serve.compile.p50_ms",
        stage_us("serve.stage.compile") / 1e3,
    );
    values.insert(
        "serve.client.unaccounted_us",
        p50_ms * 1e3 - stages.iter().sum::<f64>(),
    );
    if let (Some(b), Some(a)) = (before, after) {
        let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
        let hits = a.cache_hits - b.cache_hits;
        values.insert(
            "serve.cache.hit_ratio",
            ratio(hits, a.cache_misses - b.cache_misses),
        );
        let hits = a.syndrome_hits - b.syndrome_hits;
        values.insert(
            "matching.syndrome_cache.hit_ratio",
            ratio(hits, a.syndrome_misses - b.syndrome_misses),
        );
        values.insert(
            "serve.coalesce_hits",
            (a.coalesce_hits - b.coalesce_hits) as f64,
        );
    }
    values.insert(
        "chiplet.compile.ms",
        summary.layer("chiplet.compile").mean(1e6),
    );
    values.insert("pool.steals", stolen as f64);
    values.insert("trace.overhead_ratio", median(&traced) / median(&untraced));
    values.insert("trace.coverage", summary.coverage);
    (values, file)
}
