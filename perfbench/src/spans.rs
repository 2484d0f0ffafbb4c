//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span carries its name, start, end, parent span and one id per request
//! or sample. Spans stay in memory (an `ft_trace::TraceSink` that is never
//! installed on a program or engine) and are written once, at the end, as
//! a Chrome trace. Per-layer numbers are then read back out of that trace
//! as self time per span name: a span's duration minus its children's.

use ft_trace::{JsonVal, SpanEvent, TraceSink};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const CAT: &str = "perfbench";

/// The span recorder; disabled (every span a no-op) in untraced runs.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

struct Inner {
    sink: TraceSink,
    epoch: Instant,
    next_id: AtomicU64,
}

/// An open span; recorded when dropped.
pub struct Span {
    open: Option<Open>,
}

struct Open {
    inner: Arc<Inner>,
    name: String,
    track: u64,
    req: u64,
    id: u64,
    parent: u64,
    start: Instant,
}

impl Span {
    /// A parent for top-level spans.
    pub const ROOT: Span = Span { open: None };

    fn id(&self) -> u64 {
        self.open.as_ref().map_or(0, |o| o.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(o) = self.open.take() {
            let end = Instant::now();
            o.inner.push(
                o.name,
                o.track,
                o.req,
                o.id,
                o.parent,
                o.start.duration_since(o.inner.epoch).as_nanos() as u64,
                end.duration_since(o.start).as_nanos() as u64,
            );
        }
    }
}

impl Inner {
    #[allow(clippy::too_many_arguments)]
    fn push(
        &self,
        name: String,
        track: u64,
        req: u64,
        id: u64,
        parent: u64,
        start_ns: u64,
        dur_ns: u64,
    ) {
        // Chrome traces count whole microseconds; flooring both ends keeps
        // children inside their parents. The exact duration rides in `ns`.
        let ts_us = start_ns / 1000;
        let end_us = (start_ns + dur_ns) / 1000;
        self.sink.push_event(SpanEvent {
            name,
            cat: CAT.to_string(),
            ts_us,
            dur_us: end_us - ts_us,
            track,
            args: vec![
                ("req".to_string(), req.to_string()),
                ("span".to_string(), id.to_string()),
                ("parent".to_string(), parent.to_string()),
                ("ns".to_string(), dur_ns.to_string()),
                ("start_ns".to_string(), start_ns.to_string()),
            ],
        });
    }
}

/// A span recorded in another process, relative to that process's tracer
/// epoch (see [`Tracer::export`] and [`Tracer::import`]).
pub struct Foreign {
    pub name: String,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub id: u64,
    pub parent: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            inner: enabled.then(|| {
                Arc::new(Inner {
                    sink: TraceSink::new(),
                    epoch: Instant::now(),
                    next_id: AtomicU64::new(1),
                })
            }),
        }
    }

    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// This tracer when `keep`, a disabled one otherwise: spans of a
    /// sampled request or call. Sampling keeps traces small, because
    /// `ft_trace`'s JSON parser (used by `validate_chrome_trace`) takes
    /// time quadratic in the document size.
    pub fn sample(&self, keep: bool) -> &Tracer {
        static OFF: Tracer = Tracer { inner: None };
        if keep {
            self
        } else {
            &OFF
        }
    }

    /// Open a span on `track` (one per thread) for request or sample `req`.
    pub fn span(&self, name: impl Into<String>, track: u64, req: u64, parent: &Span) -> Span {
        Span {
            open: self.inner.as_ref().map(|inner| Open {
                inner: Arc::clone(inner),
                name: name.into(),
                track,
                req,
                id: inner.next_id.fetch_add(1, Ordering::Relaxed),
                parent: parent.id(),
                start: Instant::now(),
            }),
        }
    }

    /// This tracer's spans, for a parent process to [`import`](Tracer::import).
    pub fn export(&self) -> Vec<Foreign> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        inner
            .sink
            .events()
            .iter()
            .map(|e| Foreign {
                name: e.name.clone(),
                start_ns: arg(e, "start_ns"),
                dur_ns: arg(e, "ns"),
                id: arg(e, "span"),
                parent: arg(e, "parent"),
            })
            .collect()
    }

    /// Record another process's spans under `parent`, shifted so that the
    /// other process's epoch falls at `at` (when it was started).
    pub fn import(&self, spans: &[Foreign], at: Instant, track: u64, req: u64, parent: &Span) {
        let Some(inner) = &self.inner else { return };
        let base = at.duration_since(inner.epoch).as_nanos() as u64;
        let ids: HashMap<u64, u64> = spans
            .iter()
            .map(|s| (s.id, inner.next_id.fetch_add(1, Ordering::Relaxed)))
            .collect();
        for s in spans {
            let p = ids.get(&s.parent).copied().unwrap_or(parent.id());
            inner.push(
                s.name.clone(),
                track,
                req,
                ids[&s.id],
                p,
                base + s.start_ns,
                s.dur_ns,
            );
        }
    }

    /// The Chrome trace of every span recorded so far, checked by
    /// `ft_trace::validate_chrome_trace`.
    pub fn chrome_trace(&self) -> Result<String, String> {
        let Some(inner) = &self.inner else {
            return Err("tracing is off".to_string());
        };
        let json = ft_trace::chrome_trace(&inner.sink);
        ft_trace::validate_chrome_trace(&json).map_err(|e| format!("invalid Chrome trace: {e}"))?;
        Ok(json)
    }
}

fn arg(e: &SpanEvent, key: &str) -> u64 {
    e.args
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0)
}

/// Self time in nanoseconds of every benchmark span in a Chrome trace,
/// grouped by span name.
pub fn self_times(chrome_json: &str) -> Result<BTreeMap<String, Vec<f64>>, String> {
    let root = JsonVal::parse(chrome_json)?;
    let events = root
        .get("traceEvents")
        .and_then(JsonVal::as_arr)
        .ok_or("trace has no traceEvents")?;
    let num = |e: &JsonVal, key: &str| -> u64 {
        e.get("args")
            .and_then(|a| a.get(key))
            .and_then(JsonVal::as_str)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    let spans: Vec<(&str, u64, u64, u64)> = events
        .iter()
        .filter(|e| e.get("cat").and_then(JsonVal::as_str) == Some(CAT))
        .map(|e| {
            let name = e.get("name").and_then(JsonVal::as_str).unwrap_or("");
            (name, num(e, "span"), num(e, "parent"), num(e, "ns"))
        })
        .collect();
    let mut in_children: HashMap<u64, u64> = HashMap::new();
    for &(_, _, parent, ns) in &spans {
        *in_children.entry(parent).or_default() += ns;
    }
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for &(name, id, _, ns) in &spans {
        let own = ns.saturating_sub(in_children.get(&id).copied().unwrap_or(0));
        out.entry(name.to_string()).or_default().push(own as f64);
    }
    Ok(out)
}
