//! A compile-once/run-many serving front door over the compiled engine.
//!
//! The paper's Table 2 amortization argument — compilation cost is paid
//! once because one compiled program serves many executions — only holds
//! under concurrent traffic if the machinery around the compiler is safe to
//! share. [`Server`] is that front door: it accepts `(program, sizes,
//! inputs)` jobs keyed by content hash and runs them on a persistent
//! worker pool over one shared [`CompiledEngine`]. Per-program work
//! happens once per key, never per request: `submit` resolves an
//! `Arc<Func>` and its sizes to the content key and planned peak bytes
//! once, caching them by `Arc` identity, and the first job of a key gets an
//! [`Executable`] from [`CompiledEngine::prepare`] on a worker. Later jobs
//! reuse it, so a warm request only binds, calls the kernel and replies.
//! Four serving policies are layered on top:
//!
//! * **In-flight dedup** — requests for a key whose first (cold)
//!   compilation is still in flight don't start another; they queue behind
//!   it and are counted as `serve.inflight_dedup_hits`. The compile itself
//!   is additionally deduplicated process-wide (singleflight) and
//!   machine-wide (a file lock on cache publishes) inside the engine, so a
//!   64-request stampede on a cold key spawns exactly one `cc`.
//! * **Fairness** — jobs queue per client and are drained round-robin, so
//!   one chatty client cannot starve the rest. The queue is bounded;
//!   overflow is a structured [`ServeError::Overloaded`], not unbounded
//!   growth.
//! * **Context pooling** — each program key keeps its executable and a
//!   small pool of recycled [`RunContext`]s. A warm request draws a
//!   context whose arena, pools and staging buffers are already sized for
//!   its plan, so steady state
//!   performs zero tensor heap allocations (`mem.arena.warm_alloc_calls`).
//!   Digest-mode requests ([`Request::digest_only`]) let the server keep
//!   the output buffers too, completing the zero-alloc loop.
//! * **Memory budget** — admission is gated on the memory plan's
//!   [`run_peak_bytes`](MemPlan::run_peak_bytes): when the sum over
//!   admitted (queued + executing) jobs would exceed the configured
//!   budget, the request is rejected with the numbers that said no
//!   ([`ServeError::OverBudget`]).
//!
//! A long-running server's state stays bounded: the key resolutions and
//! the warm keys (executable + contexts) are LRU maps of fixed capacity,
//! and evictions are counted as `serve.keys.evicted`. An evicted key that
//! comes back is resolved and prepared again.
//!
//! Everything is observable through ft-metrics: `serve.requests`,
//! `serve.ok`/`serve.errors`, the rejection counters, a
//! `serve.queue_depth` gauge, and the `serve.submit_us` (admission),
//! `serve.latency_us` (submit entry to reply) and `serve.exec_us`
//! histograms (p50/p99 via `Histogram::quantile`).
//!
//! The implementation is plain threads + channels — no async executor, no
//! external dependencies — matching the rest of the workspace.

use ft_analysis::MemPlan;
use ft_ir::Func;
use ft_metrics::Metrics;
use ft_runtime::{
    CompiledEngine, Executable, ExecutionEngine, RunContext, RunResult, RuntimeError, Scalar,
    TensorVal,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::Hash;
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Serving policy knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing jobs. `0` starts no threads — jobs are
    /// driven manually with [`Server::pump_one`], which makes scheduling
    /// deterministic for tests.
    pub workers: usize,
    /// Maximum queued (admitted, not yet executing) jobs across all
    /// clients; submissions beyond it get [`ServeError::Overloaded`].
    pub queue_cap: usize,
    /// Per-server memory budget over the planned peak bytes of admitted
    /// jobs; `None` = unbounded.
    pub mem_budget_bytes: Option<u64>,
    /// Recycled `RunContext`s kept per program key. More contexts let more
    /// workers run the same key warm concurrently; each holds the key's
    /// full arena + staging footprint.
    pub ctx_pool_per_key: usize,
    /// Artifact cache directory for the compiled engine (`None` = the
    /// engine's default resolution, honoring `FT_CACHE_DIR`).
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue_cap: 256,
            mem_budget_bytes: None,
            ctx_pool_per_key: 4,
            cache_dir: None,
        }
    }
}

/// Why the server refused or failed a request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The bounded queue is full — retry later (structured backpressure
    /// instead of unbounded queue growth).
    Overloaded {
        /// Jobs queued at rejection time.
        depth: usize,
        /// The configured queue capacity.
        cap: usize,
    },
    /// Admitting the job would push the planned-peak memory of admitted
    /// jobs over the server's budget.
    OverBudget {
        /// The job's planned peak bytes (arena + parameter buffers).
        requested_bytes: u64,
        /// Planned peak bytes of already-admitted jobs.
        admitted_bytes: u64,
        /// The configured budget.
        budget_bytes: u64,
    },
    /// The run itself failed.
    Runtime(RuntimeError),
    /// The server is shutting down and accepts no new work.
    ShuttingDown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { depth, cap } => {
                write!(f, "overloaded: {depth} jobs queued (cap {cap}); retry later")
            }
            ServeError::OverBudget {
                requested_bytes,
                admitted_bytes,
                budget_bytes,
            } => write!(
                f,
                "over_budget: job needs {requested_bytes} planned-peak bytes but \
                 {admitted_bytes} of {budget_bytes} are already admitted"
            ),
            ServeError::Runtime(e) => write!(f, "runtime: {e}"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<RuntimeError> for ServeError {
    fn from(e: RuntimeError) -> ServeError {
        ServeError::Runtime(e)
    }
}

/// One serving job: a program, its concrete sizes, and input tensors.
#[derive(Debug, Clone)]
pub struct Request {
    /// The lowered program to run. `Arc` so a stampede of identical
    /// requests shares one copy.
    pub func: Arc<Func>,
    /// Input tensors by parameter name.
    pub inputs: HashMap<String, TensorVal>,
    /// Size-parameter bindings.
    pub sizes: HashMap<String, i64>,
    /// Return an FNV-1a digest of the outputs instead of the tensors.
    /// The server then recycles the output buffers into the key's context
    /// pool, so warm requests allocate nothing at all.
    pub digest_only: bool,
}

impl Request {
    /// A tensor-returning request.
    pub fn new(
        func: Arc<Func>,
        inputs: HashMap<String, TensorVal>,
        sizes: HashMap<String, i64>,
    ) -> Request {
        Request {
            func,
            inputs,
            sizes,
            digest_only: false,
        }
    }

    /// Switch to digest-only responses (zero-alloc warm path).
    pub fn digest(mut self) -> Request {
        self.digest_only = true;
        self
    }
}

/// What a completed job returns.
#[derive(Debug, Clone)]
pub enum Payload {
    /// The output tensors (ownership transferred to the caller).
    Tensors(HashMap<String, TensorVal>),
    /// Content digest of the outputs (buffers stayed in the server's
    /// context pool).
    Digest(u64),
}

/// A completed job with its timing breakdown.
#[derive(Debug, Clone)]
pub struct Response {
    /// Outputs or their digest, per [`Request::digest_only`].
    pub payload: Payload,
    /// Whether the program key had completed at least once before this job
    /// started (i.e. the compile was already amortized).
    pub warm: bool,
    /// Microseconds from admission to execution start.
    pub queue_us: u64,
    /// Microseconds executing (includes the prepare on cold keys).
    pub exec_us: u64,
}

impl Response {
    /// The digest value, for digest-mode responses.
    pub fn digest(&self) -> Option<u64> {
        match self.payload {
            Payload::Digest(d) => Some(d),
            Payload::Tensors(_) => None,
        }
    }
}

/// Resolutions `submit` keeps, by `Arc<Func>` identity.
const RESOLVED_CAP: usize = 256;
/// Program keys whose executable and contexts the server keeps warm.
const WARM_KEYS_CAP: usize = 64;

/// A map of at most `cap` entries: inserting a new key into a full map
/// evicts the least recently used entry.
struct Lru<K, V> {
    map: HashMap<K, (V, u64)>,
    clock: u64,
    cap: usize,
}

impl<K: Copy + Eq + Hash, V> Lru<K, V> {
    fn new(cap: usize) -> Lru<K, V> {
        Lru {
            map: HashMap::new(),
            clock: 0,
            cap,
        }
    }

    /// The entry for `k`, marked most recently used.
    fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        self.clock += 1;
        let now = self.clock;
        self.map.get_mut(k).map(|(v, used)| {
            *used = now;
            v
        })
    }

    /// Insert or replace `k`; returns whether another entry was evicted.
    fn insert(&mut self, k: K, v: V) -> bool {
        self.clock += 1;
        let evict = !self.map.contains_key(&k) && self.map.len() >= self.cap;
        if evict {
            let lru = self
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| *k)
                .expect("a full map has entries");
            self.map.remove(&lru);
        }
        self.map.insert(k, (v, self.clock));
        evict
    }
}

/// What `submit` resolved a request's program and sizes to. Holding the
/// `Arc` keeps its address from being reused while the entry lives.
struct Resolved {
    _func: Arc<Func>,
    sizes: HashMap<String, i64>,
    key: u64,
    peak_bytes: u64,
}

/// A program key's warm state: its prepared executable and recycled
/// contexts.
struct KeyState {
    exe: Arc<Executable>,
    ctxs: Vec<RunContext>,
    /// A run of the key has completed successfully.
    warm: bool,
}

struct Job {
    key: u64,
    func: Arc<Func>,
    inputs: HashMap<String, TensorVal>,
    sizes: HashMap<String, i64>,
    digest_only: bool,
    peak_bytes: u64,
    /// `submit` entry: the start of the request's latency.
    submitted: Instant,
    enqueued: Instant,
    reply: mpsc::Sender<Result<Response, ServeError>>,
}

/// All mutable scheduling state, behind one mutex: the per-client queues
/// with their round-robin ring, admission accounting, and the key
/// lifecycle.
struct QueueState {
    clients: HashMap<String, VecDeque<Job>>,
    /// Client ids in first-seen order; the drain cursor walks this ring.
    ring: Vec<String>,
    cursor: usize,
    queued: usize,
    /// Planned-peak bytes of admitted (queued + executing) jobs.
    admitted_bytes: u64,
    /// Keys submitted that are not warm yet; a second submission while a
    /// key is here is an in-flight dedup hit. A key leaves when any of its
    /// jobs completes, so this holds at most the admitted jobs' keys.
    compiling: HashSet<u64>,
    /// Warm state of recently run keys.
    keys: Lru<u64, KeyState>,
    shutdown: bool,
}

struct Inner {
    cfg: ServeConfig,
    engine: CompiledEngine,
    metrics: Metrics,
    q: Mutex<QueueState>,
    work: Condvar,
    /// `submit`'s resolutions, keyed by `Arc<Func>` address. Separate from
    /// the queue mutex so resolving never waits behind scheduling.
    resolved: Mutex<Lru<usize, Resolved>>,
}

/// The serving front door. Construct with [`Server::new`], submit with
/// [`Server::submit`] (async, returns a receiver) or [`Server::call`]
/// (blocking). Dropping the server drains nothing: queued jobs get
/// [`ServeError::ShuttingDown`] replies.
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// Content key of a request: FNV-1a over the printed program and the
/// sorted size bindings. Everything that changes generated code or buffer
/// geometry is in one of the two.
fn content_key(func: &Func, sizes: &HashMap<String, i64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(func.to_string().as_bytes());
    let mut kv: Vec<(&String, &i64)> = sizes.iter().collect();
    kv.sort();
    for (k, v) in kv {
        eat(b"|");
        eat(k.as_bytes());
        eat(&v.to_le_bytes());
    }
    h
}

/// FNV-1a digest over output names, shapes and elements — no allocation,
/// so digest-mode warm requests stay allocation-free end to end.
fn digest_outputs(outputs: &HashMap<String, TensorVal>) -> u64 {
    let mut names: Vec<&String> = outputs.keys().collect();
    names.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let eat_u64 = |h: &mut u64, v: u64| {
        for b in v.to_le_bytes() {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for name in names {
        for b in name.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let t = &outputs[name];
        for &d in t.shape() {
            eat_u64(&mut h, d as u64);
        }
        for i in 0..t.numel() {
            let v = match t.get_flat(i) {
                Scalar::Int(v) => v as u64,
                Scalar::Float(v) => v.to_bits(),
                Scalar::Bool(v) => v as u64,
            };
            eat_u64(&mut h, v);
        }
    }
    h
}

impl Server {
    /// Start a server: builds the shared compiled engine (metrics
    /// attached) and spawns `cfg.workers` worker threads.
    pub fn new(cfg: ServeConfig, metrics: Metrics) -> Server {
        let mut engine = match &cfg.cache_dir {
            Some(d) => CompiledEngine::with_cache_dir(d.clone()),
            None => CompiledEngine::new(),
        };
        engine.set_metrics(Some(metrics.clone()));
        let inner = Arc::new(Inner {
            cfg,
            engine,
            metrics,
            q: Mutex::new(QueueState {
                clients: HashMap::new(),
                ring: Vec::new(),
                cursor: 0,
                queued: 0,
                admitted_bytes: 0,
                compiling: HashSet::new(),
                keys: Lru::new(WARM_KEYS_CAP),
                shutdown: false,
            }),
            work: Condvar::new(),
            resolved: Mutex::new(Lru::new(RESOLVED_CAP)),
        });
        let workers = (0..inner.cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("ft-serve-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn serve worker")
            })
            .collect();
        Server { inner, workers }
    }

    /// The server's metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Submit a job for `client`. Admission control runs synchronously —
    /// backpressure and budget rejections are returned here, not through
    /// the channel. On admission, the result arrives on the returned
    /// receiver once a worker finishes the job.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`], [`ServeError::OverBudget`], or
    /// [`ServeError::ShuttingDown`]; execution errors arrive through the
    /// receiver as [`ServeError::Runtime`].
    pub fn submit(
        &self,
        client: &str,
        req: Request,
    ) -> Result<mpsc::Receiver<Result<Response, ServeError>>, ServeError> {
        let submitted = Instant::now();
        let m = &self.inner.metrics;
        m.counter("serve.requests").inc();
        let (key, peak_bytes) = self.resolve(&req.func, &req.sizes);
        let (tx, rx) = mpsc::channel();
        {
            let mut q = self.inner.q.lock().unwrap();
            if q.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            if q.queued >= self.inner.cfg.queue_cap {
                m.counter("serve.rejected.backpressure").inc();
                return Err(ServeError::Overloaded {
                    depth: q.queued,
                    cap: self.inner.cfg.queue_cap,
                });
            }
            if let Some(budget) = self.inner.cfg.mem_budget_bytes {
                if q.admitted_bytes.saturating_add(peak_bytes) > budget {
                    m.counter("serve.rejected.budget").inc();
                    return Err(ServeError::OverBudget {
                        requested_bytes: peak_bytes,
                        admitted_bytes: q.admitted_bytes,
                        budget_bytes: budget,
                    });
                }
            }
            let warm = q.keys.get_mut(&key).is_some_and(|k| k.warm);
            if !warm && !q.compiling.insert(key) {
                m.counter("serve.inflight_dedup_hits").inc();
            }
            q.admitted_bytes += peak_bytes;
            let job = Job {
                key,
                func: req.func,
                inputs: req.inputs,
                sizes: req.sizes,
                digest_only: req.digest_only,
                peak_bytes,
                submitted,
                enqueued: Instant::now(),
                reply: tx,
            };
            match q.clients.get_mut(client) {
                Some(jobs) => jobs.push_back(job),
                None => {
                    q.ring.push(client.to_string());
                    q.clients.insert(client.to_string(), VecDeque::from([job]));
                }
            }
            q.queued += 1;
            m.gauge("serve.queue_depth").set(q.queued as i64);
        }
        self.inner.work.notify_one();
        m.histogram("serve.submit_us")
            .record_duration_us(submitted.elapsed());
        Ok(rx)
    }

    /// The content key and planned peak bytes of `func` at `sizes`,
    /// computed once per `Arc` and size set. A lookup compares the sizes
    /// in place and allocates nothing.
    fn resolve(&self, func: &Arc<Func>, sizes: &HashMap<String, i64>) -> (u64, u64) {
        let addr = Arc::as_ptr(func) as usize;
        if let Some(r) = self.inner.resolved.lock().unwrap().get_mut(&addr) {
            if r.sizes == *sizes {
                return (r.key, r.peak_bytes);
            }
        }
        let key = content_key(func, sizes);
        let peak_bytes = MemPlan::plan(func, sizes).run_peak_bytes(func, sizes);
        let evicted = self.inner.resolved.lock().unwrap().insert(
            addr,
            Resolved {
                _func: Arc::clone(func),
                sizes: sizes.clone(),
                key,
                peak_bytes,
            },
        );
        if evicted {
            self.inner.metrics.counter("serve.keys.evicted").inc();
        }
        (key, peak_bytes)
    }

    /// Submit and wait for the result — the closed-loop client shape.
    ///
    /// # Errors
    ///
    /// As [`submit`](Server::submit), plus any execution error.
    pub fn call(&self, client: &str, req: Request) -> Result<Response, ServeError> {
        let rx = self.submit(client, req)?;
        rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// Execute the next queued job on the calling thread (round-robin
    /// order). Returns whether a job was run. This is the `workers: 0`
    /// test harness — scheduling becomes fully deterministic.
    pub fn pump_one(&self) -> bool {
        let job = {
            let mut q = self.inner.q.lock().unwrap();
            pop_round_robin(&mut q, &self.inner.metrics)
        };
        match job {
            Some(j) => {
                execute(&self.inner, j);
                true
            }
            None => false,
        }
    }

    /// Jobs currently queued (admitted, not yet started).
    pub fn queue_depth(&self) -> usize {
        self.inner.q.lock().unwrap().queued
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        {
            let mut q = self.inner.q.lock().unwrap();
            q.shutdown = true;
            // Fail queued jobs instead of silently dropping their reply
            // channels.
            for (_, jobs) in q.clients.iter_mut() {
                for j in jobs.drain(..) {
                    let _ = j.reply.send(Err(ServeError::ShuttingDown));
                }
            }
            q.queued = 0;
        }
        self.inner.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Pop the next job in round-robin client order. Caller holds the queue
/// lock.
fn pop_round_robin(q: &mut QueueState, m: &Metrics) -> Option<Job> {
    if q.queued == 0 || q.ring.is_empty() {
        return None;
    }
    let n = q.ring.len();
    for step in 0..n {
        let idx = (q.cursor + step) % n;
        let client = &q.ring[idx];
        if let Some(job) = q.clients.get_mut(client).and_then(VecDeque::pop_front) {
            q.cursor = (idx + 1) % n;
            q.queued -= 1;
            m.gauge("serve.queue_depth").set(q.queued as i64);
            return Some(job);
        }
    }
    None
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut q = inner.q.lock().unwrap();
            loop {
                if let Some(j) = pop_round_robin(&mut q, &inner.metrics) {
                    break Some(j);
                }
                if q.shutdown {
                    break None;
                }
                q = inner.work.wait(q).unwrap();
            }
        };
        match job {
            Some(j) => execute(inner, j),
            None => return,
        }
    }
}

/// Run one job to completion and reply. The key's executable and a
/// context are drawn from its warm state; a cold key is prepared here, on
/// the worker. Contexts return to the key's pool; a failed run poisons its
/// context, which the context itself heals (reset) on next use.
fn execute(inner: &Inner, job: Job) {
    let m = &inner.metrics;
    let queue_us = job.enqueued.elapsed().as_micros() as u64;
    let (warm, exe, ctx) = {
        let mut q = inner.q.lock().unwrap();
        match q.keys.get_mut(&job.key) {
            Some(k) => (k.warm, Some(Arc::clone(&k.exe)), k.ctxs.pop()),
            None => (false, None, None),
        }
    };
    let t0 = Instant::now();
    let exe = match exe {
        // The same event the engine counts when its memo serves a prepare.
        Some(exe) => {
            m.counter("compiled.cache.hit").inc();
            Ok(exe)
        }
        None => inner.engine.prepare(&job.func, &job.sizes),
    };
    let mut ctx = match (&exe, ctx) {
        (_, Some(c)) => c,
        (Ok(exe), None) => exe.new_context(),
        (Err(_), None) => RunContext::new(),
    };
    let r = exe
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|exe| exe.run(&mut ctx, &job.inputs));
    let exec_us = t0.elapsed().as_micros() as u64;
    let reply = match r {
        Ok(result) => {
            m.counter("serve.ok").inc();
            m.counter(if warm { "serve.warm" } else { "serve.cold" }).inc();
            let payload = if job.digest_only {
                let d = digest_outputs(&result.outputs);
                if ctx.recycle(result).is_err() {
                    // Can't happen for a context the run just bound, but
                    // never let a bad recycle seed the pool.
                    ctx.reset();
                }
                Payload::Digest(d)
            } else {
                let RunResult { outputs, .. } = result;
                Payload::Tensors(outputs)
            };
            Ok(Response {
                payload,
                warm,
                queue_us,
                exec_us,
            })
        }
        Err(e) => {
            m.counter("serve.errors").inc();
            Err(ServeError::Runtime(e))
        }
    };
    let ok = reply.is_ok();
    {
        let mut q = inner.q.lock().unwrap();
        q.admitted_bytes = q.admitted_bytes.saturating_sub(job.peak_bytes);
        q.compiling.remove(&job.key);
        if let Ok(exe) = exe {
            if q.keys.get_mut(&job.key).is_none() {
                let k = KeyState {
                    exe,
                    ctxs: Vec::new(),
                    warm: false,
                };
                if q.keys.insert(job.key, k) {
                    m.counter("serve.keys.evicted").inc();
                }
            }
            let k = q.keys.get_mut(&job.key).expect("just inserted");
            k.warm |= ok;
            if k.ctxs.len() < inner.cfg.ctx_pool_per_key {
                k.ctxs.push(ctx);
            }
        }
    }
    m.histogram("serve.exec_us").record(exec_us);
    m.histogram("serve.latency_us")
        .record_duration_us(job.submitted.elapsed());
    // The caller may have dropped the receiver (fire-and-forget); that's
    // their business.
    let _ = job.reply.send(reply);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::builder::*;
    use ft_ir::{AccessType, DataType};

    fn fill(name: &str, n: i64, v: f32) -> Arc<Func> {
        Arc::new(
            Func::new(name)
                .param("y", [n], DataType::F32, AccessType::Output)
                .body(for_("i", 0, n, store("y", [var("i")], v))),
        )
    }

    fn req(f: &Arc<Func>) -> Request {
        Request::new(Arc::clone(f), HashMap::new(), HashMap::new())
    }

    fn manual_server(cfg: ServeConfig) -> Server {
        let dir = std::env::temp_dir().join(format!(
            "ft-serve-test-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Server::new(
            ServeConfig {
                cache_dir: Some(dir),
                ..cfg
            },
            Metrics::new(),
        )
    }

    #[test]
    fn round_robin_interleaves_clients() {
        if !ft_runtime::cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let srv = manual_server(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        });
        let f = fill("rr", 4, 1.0);
        // Client a floods 3 jobs, then b and c submit one each. Round-robin
        // drains a, b, c, a, a — not a, a, a, b, c.
        let rxs: Vec<_> = [("a"), ("a"), ("a"), ("b"), ("c")]
            .iter()
            .map(|cl| srv.submit(cl, req(&f)).expect("admitted"))
            .collect();
        assert_eq!(srv.queue_depth(), 5);
        // Tag completion order by draining one at a time.
        let mut order = Vec::new();
        while srv.pump_one() {
            order.push(());
        }
        assert_eq!(order.len(), 5);
        for rx in rxs {
            rx.recv().unwrap().expect("job ok");
        }
        // Fairness is directly visible in queue state transitions; the
        // stronger ordering assertion lives in the integration tests where
        // jobs carry distinguishable outputs.
        let s = srv.metrics().snapshot();
        assert_eq!(s.counter("serve.requests"), 5);
        assert_eq!(s.counter("serve.ok"), 5);
    }

    #[test]
    fn backpressure_is_a_structured_error() {
        if !ft_runtime::cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let srv = manual_server(ServeConfig {
            workers: 0,
            queue_cap: 2,
            ..ServeConfig::default()
        });
        let f = fill("bp", 4, 1.0);
        srv.submit("a", req(&f)).expect("1st admitted");
        srv.submit("a", req(&f)).expect("2nd admitted");
        let err = srv.submit("a", req(&f)).unwrap_err();
        assert_eq!(err, ServeError::Overloaded { depth: 2, cap: 2 });
        // Draining one frees a slot.
        assert!(srv.pump_one());
        srv.submit("a", req(&f)).expect("readmitted");
        let s = srv.metrics().snapshot();
        assert_eq!(s.counter("serve.rejected.backpressure"), 1);
    }

    #[test]
    fn memory_budget_rejects_with_reason() {
        if !ft_runtime::cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        // y: [1024] f32 = 4 KiB of parameter footprint per job.
        let f = fill("budget", 1024, 1.0);
        let srv = manual_server(ServeConfig {
            workers: 0,
            mem_budget_bytes: Some(6 * 1024),
            ..ServeConfig::default()
        });
        srv.submit("a", req(&f)).expect("first fits");
        let err = srv.submit("a", req(&f)).unwrap_err();
        match err {
            ServeError::OverBudget {
                requested_bytes,
                admitted_bytes,
                budget_bytes,
            } => {
                assert_eq!(budget_bytes, 6 * 1024);
                assert!(requested_bytes >= 4096, "{requested_bytes}");
                assert_eq!(admitted_bytes, requested_bytes);
            }
            other => panic!("want OverBudget, got {other:?}"),
        }
        // Completion releases the admitted bytes.
        assert!(srv.pump_one());
        srv.submit("a", req(&f)).expect("fits after release");
        let s = srv.metrics().snapshot();
        assert_eq!(s.counter("serve.rejected.budget"), 1);
    }

    #[test]
    fn inflight_dedup_is_counted_and_warm_keys_are_not() {
        if !ft_runtime::cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let srv = manual_server(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        });
        let f = fill("dedup", 4, 1.0);
        // Three submissions of one cold key: 1 leader + 2 dedup hits.
        let _r1 = srv.submit("a", req(&f)).unwrap();
        let _r2 = srv.submit("b", req(&f)).unwrap();
        let _r3 = srv.submit("c", req(&f)).unwrap();
        let s = srv.metrics().snapshot();
        assert_eq!(s.counter("serve.inflight_dedup_hits"), 2, "{s:?}");
        while srv.pump_one() {}
        // Now the key is warm: more submissions are not "dedup hits" (there
        // is nothing in flight to dedup against).
        srv.submit("a", req(&f)).unwrap();
        while srv.pump_one() {}
        let s = srv.metrics().snapshot();
        assert_eq!(s.counter("serve.inflight_dedup_hits"), 2, "{s:?}");
        // Serial draining: the first job is the only cold one — its two
        // piggybackers (and the later submission) all start after the key
        // completed once.
        assert_eq!(s.counter("serve.cold"), 1, "{s:?}");
        assert_eq!(s.counter("serve.warm"), 3, "{s:?}");
        // One compile served all four requests.
        assert_eq!(s.counter("compiled.cache.publish"), 1, "{s:?}");
    }

    #[test]
    fn digest_mode_recycles_outputs_server_side() {
        if !ft_runtime::cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let srv = manual_server(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        });
        let f = fill("digest", 8, 2.5);
        let rx1 = srv.submit("a", req(&f).digest()).unwrap();
        assert!(srv.pump_one());
        let d1 = rx1.recv().unwrap().unwrap().digest().expect("digest");
        let rx2 = srv.submit("a", req(&f).digest()).unwrap();
        assert!(srv.pump_one());
        let r2 = rx2.recv().unwrap().unwrap();
        assert_eq!(r2.digest(), Some(d1), "deterministic program, same digest");
        assert!(r2.warm);
        // And the digest matches a tensor-mode response's content.
        let rx3 = srv.submit("a", req(&f)).unwrap();
        assert!(srv.pump_one());
        let r3 = rx3.recv().unwrap().unwrap();
        match r3.payload {
            Payload::Tensors(ref outs) => {
                assert_eq!(outs["y"].to_f64_vec(), vec![2.5; 8]);
                assert_eq!(digest_outputs(outs), d1);
            }
            Payload::Digest(_) => panic!("asked for tensors"),
        }
    }

    #[test]
    fn errors_flow_through_the_reply_channel() {
        if !ft_runtime::cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let srv = manual_server(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        });
        // Missing input tensor: admission passes (shape bookkeeping only),
        // execution fails.
        let f = Arc::new(
            Func::new("needs_x")
                .param("x", [4], DataType::F32, AccessType::Input)
                .param("y", [4], DataType::F32, AccessType::Output)
                .body(for_("i", 0, 4, store("y", [var("i")], load("x", [var("i")])))),
        );
        let rx = srv
            .submit("a", Request::new(f, HashMap::new(), HashMap::new()))
            .unwrap();
        assert!(srv.pump_one());
        let err = rx.recv().unwrap().unwrap_err();
        assert_eq!(
            err,
            ServeError::Runtime(RuntimeError::MissingInput("x".to_string()))
        );
        let s = srv.metrics().snapshot();
        assert_eq!(s.counter("serve.errors"), 1);
        // The key never became warm; the next attempt is cold again and is
        // the new compile leader (no deadlock on the failed flight).
        assert_eq!(s.counter("serve.warm"), 0);
    }

    /// Twice the capacity of every per-key map in distinct `Arc`s and
    /// keys: each map stays within its capacity, evictions are counted,
    /// and an evicted key that comes back still answers correctly.
    #[test]
    fn per_key_state_stays_bounded() {
        if !ft_runtime::cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let srv = manual_server(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        });
        let f = Func::new("fill_n")
            .param("y", [var("n")], DataType::F32, AccessType::Output)
            .size_param("n")
            .body(for_("i", 0, var("n"), store("y", [var("i")], 1.0f32)));
        let call = |n: usize| {
            let sizes = HashMap::from([("n".to_string(), n as i64)]);
            let rx = srv
                .submit(
                    "a",
                    Request::new(Arc::new(f.clone()), HashMap::new(), sizes),
                )
                .expect("admitted");
            assert!(srv.pump_one());
            match rx.recv().unwrap().expect("runs").payload {
                Payload::Tensors(outs) => assert_eq!(outs["y"].to_f64_vec(), vec![1.0; n]),
                Payload::Digest(_) => panic!("tensor mode"),
            }
        };
        let keys = 2 * WARM_KEYS_CAP;
        for i in 0..2 * RESOLVED_CAP {
            call(1 + i % keys);
        }
        {
            let q = srv.inner.q.lock().unwrap();
            assert_eq!(q.keys.map.len(), WARM_KEYS_CAP);
            assert!(q.compiling.is_empty());
        }
        assert_eq!(srv.inner.resolved.lock().unwrap().map.len(), RESOLVED_CAP);
        let s = srv.metrics().snapshot();
        assert!(
            s.counter("serve.keys.evicted") >= (RESOLVED_CAP + keys - WARM_KEYS_CAP) as u64,
            "{s:?}"
        );
        assert!(s.counter("compiled.prepared.evicted") > 0, "{s:?}");
        // Key n=1 was evicted long ago; it comes back correct.
        call(1);
        assert_eq!(srv.metrics().snapshot().counter("serve.errors"), 0);
    }

    #[test]
    fn worker_pool_drains_concurrent_traffic() {
        if !ft_runtime::cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let srv = manual_server(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let f = fill("pool", 16, 1.0);
        let rxs: Vec<_> = (0..16)
            .map(|i| srv.submit(&format!("client-{}", i % 4), req(&f)).unwrap())
            .collect();
        for rx in rxs {
            let resp = rx.recv().expect("worker replied").expect("job ok");
            match resp.payload {
                Payload::Tensors(ref outs) => {
                    assert_eq!(outs["y"].to_f64_vec(), vec![1.0; 16]);
                }
                Payload::Digest(_) => panic!("tensor mode"),
            }
        }
        let s = srv.metrics().snapshot();
        assert_eq!(s.counter("serve.ok"), 16);
        assert_eq!(s.counter("compiled.cache.publish"), 1, "{s:?}");
    }
}
