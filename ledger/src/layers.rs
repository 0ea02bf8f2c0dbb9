//! The traced run: `dqec_obs` spans around every public call the
//! benchmark makes into a layer, kept in memory, reduced to per-layer
//! self times, and exported as one Chrome trace-event file (loadable in
//! Perfetto).
//!
//! Spans are opened from the benchmark's own code with
//! [`dqec_obs::trace::span`]; the per-thread rings are drained into
//! this process's memory at batch and chunk boundaries ([`Tracer::flush`])
//! so no ring ever wraps. Nesting is by time containment on a thread:
//! `ledger.workload › ledger.spec/point › ledger.batch/chiplet › layer
//! call`.

use dqec_obs::trace;
use dqec_sweep::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Spans that structure the replay (workload › spec/point › batch, and
/// one per served request); a span with no enclosing structural span on
/// its thread is a root, and roots are the time the layers must explain.
const STRUCTURAL: [&str; 7] = [
    "ledger.workload",
    "ledger.spec",
    "ledger.point",
    "ledger.batch",
    "ledger.chunk",
    "ledger.chiplet",
    "ledger.request",
];

/// Spans that time one public call into a layer. The `serve.*` and
/// `chiplet.sample` names are the library's own spans inside the
/// in-process server; the rest wrap calls made from this benchmark.
const LAYERS: [&str; 17] = [
    "core.circuit_gen",
    "core.adapt",
    "core.indicators",
    "chiplet.defect_sample",
    "chiplet.compile",
    "chiplet.select_point",
    "chiplet.sample",
    "sim.noise",
    "sim.dem",
    "sim.sample",
    "sim.extract",
    "matching.graph.build",
    "matching.decoder.build",
    "matching.reweight",
    "matching.decode",
    "serve.compile",
    "serve.decode",
];

#[derive(Debug, Clone)]
struct Event {
    name: String,
    tid: u64,
    start_ns: u64,
    dur_ns: u64,
    instant: bool,
    request_id: Option<u64>,
}

/// Calls, inclusive time and self time of one layer over a traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean inclusive time per call in `unit_ns` units (0 when never
    /// called).
    pub fn mean(&self, unit_ns: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / unit_ns
        }
    }
}

/// What a traced run reduces to.
#[derive(Debug, Default)]
pub struct TraceSummary {
    pub layers: BTreeMap<String, LayerTime>,
    /// Layer self time over root time (see [`STRUCTURAL`]).
    pub coverage: f64,
}

impl TraceSummary {
    pub fn layer(&self, name: &str) -> LayerTime {
        self.layers.get(name).copied().unwrap_or_default()
    }
}

/// In-memory collector of a traced run.
#[derive(Debug, Default)]
pub struct Tracer {
    events: Vec<Event>,
}

impl Tracer {
    /// Clears any earlier spans and turns tracing on.
    pub fn start() -> Tracer {
        trace::clear();
        trace::set_enabled(true);
        Tracer::default()
    }

    /// Drains every thread's span ring into memory. Call at batch or
    /// chunk boundaries, often enough that no ring (8192 spans) wraps.
    pub fn flush(&mut self) {
        let exported = trace::export_chrome_trace();
        trace::clear();
        let Ok(doc) = json::parse(&exported) else {
            eprintln!("warning: unparseable trace export dropped");
            return;
        };
        let Some(evs) = doc.get("traceEvents").and_then(Json::as_arr) else {
            return;
        };
        for ev in evs {
            let num = |k: &str| ev.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            self.events.push(Event {
                name: ev
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                tid: num("tid") as u64,
                start_ns: (num("ts") * 1e3).round() as u64,
                dur_ns: (num("dur") * 1e3).round() as u64,
                instant: ev.get("ph").and_then(Json::as_str) == Some("i"),
                request_id: None,
            });
        }
    }

    /// Records one client request of the serving workload as a root span
    /// carrying its request id (`dqec_obs` spans have no arguments).
    /// `tid` is any id distinct per client connection.
    pub fn request(&mut self, id: u64, tid: u64, start_ns: u64, end_ns: u64) {
        self.events.push(Event {
            name: "ledger.request".to_string(),
            tid,
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
            instant: false,
            request_id: Some(id),
        });
    }

    /// Stops tracing, drains the rings and reduces the run.
    pub fn finish(mut self) -> (TraceSummary, TraceFile) {
        self.flush();
        trace::set_enabled(false);
        let summary = summarize(&self.events);
        (summary, TraceFile(self.events))
    }
}

/// Self time = duration minus the direct children's durations, where
/// only structural and layer spans count as nodes (other library spans
/// and instants are transparent).
fn summarize(events: &[Event]) -> TraceSummary {
    let known = |n: &str| STRUCTURAL.contains(&n) || LAYERS.contains(&n);
    let mut by_tid: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    for ev in events.iter().filter(|e| !e.instant && known(&e.name)) {
        by_tid.entry(ev.tid).or_default().push(ev);
    }
    let mut layers: BTreeMap<String, LayerTime> = BTreeMap::new();
    let mut root_ns = 0u64;
    for evs in by_tid.values_mut() {
        evs.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns)));
        let mut child_ns = vec![0u64; evs.len()];
        let mut root_below = vec![false; evs.len()];
        // Open spans as (end, index); a span's parent is the innermost
        // open span that still covers its start.
        let mut open: Vec<(u64, usize)> = Vec::new();
        for (i, ev) in evs.iter().enumerate() {
            while open.last().is_some_and(|&(end, _)| end <= ev.start_ns) {
                open.pop();
            }
            match open.last() {
                Some(&(_, parent)) => {
                    child_ns[parent] += ev.dur_ns;
                    root_below[i] = root_below[parent] || STRUCTURAL.contains(&&*evs[parent].name);
                }
                None => root_below[i] = false,
            }
            open.push((ev.start_ns + ev.dur_ns, i));
        }
        for (i, ev) in evs.iter().enumerate() {
            if STRUCTURAL.contains(&&*ev.name) {
                if !root_below[i] {
                    root_ns += ev.dur_ns;
                }
                continue;
            }
            let lt = layers.entry(ev.name.clone()).or_default();
            lt.calls += 1;
            lt.total_ns += ev.dur_ns;
            lt.self_ns += ev.dur_ns.saturating_sub(child_ns[i]);
        }
    }
    let self_ns: u64 = layers.values().map(|l| l.self_ns).sum();
    TraceSummary {
        layers,
        coverage: if root_ns == 0 {
            0.0
        } else {
            self_ns as f64 / root_ns as f64
        },
    }
}

/// A traced run's spans, renderable as Chrome trace-event JSON.
#[derive(Debug)]
pub struct TraceFile(Vec<Event>);

impl TraceFile {
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, ev) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ts = ev.start_ns as f64 / 1e3;
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":\"dqec\",\"pid\":1,\"tid\":{},\"ts\":{ts:.3}",
                Json::Str(ev.name.clone()).render(),
                ev.tid
            );
            if ev.instant {
                out.push_str(",\"ph\":\"i\",\"s\":\"t\"}");
            } else {
                let _ = write!(out, ",\"ph\":\"X\",\"dur\":{:.3}", ev.dur_ns as f64 / 1e3);
                if let Some(id) = ev.request_id {
                    let _ = write!(out, ",\"args\":{{\"id\":{id}}}");
                }
                out.push('}');
            }
        }
        out.push_str("]}");
        out
    }
}
