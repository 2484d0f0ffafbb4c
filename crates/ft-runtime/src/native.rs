//! The native compiled execution engine.
//!
//! This is the paper's actual execution model (§4.3): emit C for the
//! lowered function with `ft-codegen`, compile it with the host `cc` into a
//! shared object, `dlopen` it, and call it in-process on the caller's
//! tensor buffers — no interpreter dispatch, no child-process
//! stdout-parsing protocol. Compilation cost is paid once per distinct
//! (source, flags) pair: artifacts live in a content-addressed on-disk
//! cache (`target/ft-cache/<hash>.{c,so}`), so repeat traffic — autoschedule
//! search loops, conformance sweeps, warm benchmarks — spawns zero
//! compiler processes.
//!
//! Prepare once, run many: [`CompiledEngine::prepare`] does all of a
//! program's per-`(program, sizes)` work once — memory planning, C
//! emission, hashing, the cache-aware build and `dlopen` — and returns an
//! [`Executable`] whose [`run`](Executable::run) only binds parameters,
//! calls the kernel and collects outputs. Engines keep a bounded memo of
//! prepared executables keyed by the program (structural equality) and its
//! size bindings, so [`ExecutionEngine::run`]/`run_with` are a memo lookup
//! followed by that same run.
//!
//! Cache key: FNV-1a over the complete emitted translation unit (which
//! already embodies the program *and* its schedule — scheduling rewrites
//! the IR that `emit_c` prints), the compiler flag string, and an ABI
//! version bumped whenever the entry-point convention changes.
//!
//! Numerics: generated C computes `float` expressions in single precision,
//! while the interpreter widens to `f64` and rounds on store, so results
//! agree to rounding error, not bit-for-bit — the conformance harness
//! compares this backend under its usual tolerances. `-ffp-contract=off`
//! keeps the compiler from fusing multiply-adds so the difference stays
//! bounded by that rounding story.

use crate::arena::{CtxBinding, RunContext};
use crate::counters::PerfCounters;
use crate::engine::ExecutionEngine;
use crate::error::RuntimeError;
use crate::interp::RunResult;
use crate::process::output_with_timeout;
use crate::value::TensorVal;
use ft_analysis::MemPlan;
use ft_codegen::{c_symbols, emit_c_planned, ProfSite};
use ft_ir::{AccessType, BinaryOp, DataType, Expr, Func};
use ft_metrics::Metrics;
use ft_trace::{Decision, ProfileNode, RunProfile, StmtCounters, TraceSink, Verdict, TRACK_RUNTIME};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::ffi::c_void;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Bump when the generated entry-point convention changes, so stale cached
/// `.so` files from older layouts can never be loaded. v2: `ft_entry` gained
/// a trailing `uint64_t *prof` parameter (NULL when profiling is off).
/// v3: an `unsigned char *arena` parameter between `sizes` and `prof` — the
/// preallocated backing block for memory-planned `VarDef`s (NULL makes the
/// kernel malloc/free its own).
const ABI_VERSION: u32 = 3;

/// Entry-point signature of every generated shared object:
/// `void ft_entry(void **params, const int64_t *sizes, unsigned char *arena,
/// uint64_t *prof)` with tensor parameters in declaration order followed by
/// size parameters in declaration order. `arena` backs planned local defs
/// (NULL = kernel-owned). `prof` is only read by profiled builds (slot `k`
/// accumulates wall nanoseconds for outermost loop nest `k`); unprofiled
/// builds ignore it and callers pass NULL.
type EntryFn = unsafe extern "C" fn(*mut *mut c_void, *const i64, *mut c_void, *mut u64);

/// Whether a host C compiler is available (memoized per process).
pub fn cc_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        Command::new("cc")
            .arg("--version")
            .output()
            .map(|o| o.status.success())
            .unwrap_or(false)
    })
}

/// Prepared executables an engine (and its clones) keeps. Past this the
/// least recently used one leaves the memo, counted as
/// `compiled.prepared.evicted`; handles callers still hold stay valid.
const PREPARED_CAP: usize = 64;

/// Everything about one `(program, sizes)` pair that stays the same from
/// run to run: the loaded kernel, the size values and parameter shapes,
/// the arena geometry and the context binding. The emitted C source is not
/// kept. The library handle lives as long as the entry point may be called.
struct PreparedKernel {
    func_name: String,
    entry: EntryFn,
    /// Profiling site table of a profiled build (slot `k` of the prof array
    /// maps to `sites[k]`); empty for unprofiled builds.
    sites: Vec<ProfSite>,
    /// The artifact cache key.
    hash: u64,
    /// Size-parameter values in declaration order, as `ft_entry` takes them.
    size_vals: Vec<i64>,
    params: Vec<ParamSlot>,
    plan_hash: u64,
    arena_bytes: u64,
    run_peak_bytes: u64,
    binding: CtxBinding,
    _lib: libloading::Library,
}

/// A tensor parameter with its shape resolved at the prepared sizes.
struct ParamSlot {
    name: String,
    dtype: DataType,
    atype: AccessType,
    shape: Vec<usize>,
}

/// A program prepared for repeated execution by [`CompiledEngine::prepare`]:
/// planned, emitted, compiled and loaded once. [`run`](Executable::run)
/// only binds parameters, calls the kernel and collects outputs. It reports
/// into the trace sink and metrics of the engine that prepared it.
pub struct Executable {
    kernel: Arc<PreparedKernel>,
    sink: Option<TraceSink>,
    metrics: Option<Metrics>,
}

impl std::fmt::Debug for Executable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executable")
            .field("func", &self.kernel.func_name)
            .field("hash", &format_args!("{:016x}", self.kernel.hash))
            .finish_non_exhaustive()
    }
}

impl Executable {
    /// A fresh [`RunContext`] already bound to this executable.
    pub fn new_context(&self) -> RunContext {
        RunContext::bound_to(&self.kernel.binding)
    }

    /// Run on `inputs`, drawing arena and staging buffers from `ctx`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ContextMismatch`] when `ctx` is bound to another
    /// program; missing or mis-shaped inputs.
    pub fn run(
        &self,
        ctx: &mut RunContext,
        inputs: &HashMap<String, TensorVal>,
    ) -> Result<RunResult, RuntimeError> {
        let t0 = self.metrics.as_ref().map(|_| Instant::now());
        let r = self.kernel.run(
            Some(&mut *ctx),
            inputs,
            self.sink.as_ref(),
            self.metrics.as_ref(),
        );
        if let Err(e) = &r {
            ctx.poison_on(e);
        }
        observe_run(self.metrics.as_ref(), t0, &r);
        r
    }

    /// The name of the prepared function.
    pub fn name(&self) -> &str {
        &self.kernel.func_name
    }

    /// Planned peak bytes of one run: arena plus parameter buffers (see
    /// [`MemPlan::run_peak_bytes`]).
    pub fn run_peak_bytes(&self) -> u64 {
        self.kernel.run_peak_bytes
    }
}

/// Record one run's `engine.compiled.run_us` (and `errors`) in `metrics`.
fn observe_run<T>(metrics: Option<&Metrics>, t0: Option<Instant>, r: &Result<T, RuntimeError>) {
    if let (Some(m), Some(t0)) = (metrics, t0) {
        m.histogram("engine.compiled.run_us")
            .record_duration_us(t0.elapsed());
        if r.is_err() {
            m.counter("engine.compiled.errors").inc();
        }
    }
}

/// The outcome of preparing one memo key, filled exactly once; concurrent
/// preparers of the same key wait on it.
type PrepareCell = Arc<OnceLock<Result<Arc<PreparedKernel>, RuntimeError>>>;

/// One memo entry: the key (program, size bindings, profiling) it was
/// prepared for.
struct MemoSlot {
    func: Func,
    sizes: HashMap<String, i64>,
    profile: bool,
    cell: PrepareCell,
    last_use: u64,
}

/// The bounded memo of prepared executables that [`CompiledEngine`] clones
/// share, least recently used first out.
#[derive(Default)]
struct Memo {
    slots: Vec<MemoSlot>,
    clock: u64,
}

/// The compiled execution engine. Cheap to clone (clones share the memo of
/// prepared executables); construction does not touch the filesystem —
/// everything is lazy until the first [`prepare`](CompiledEngine::prepare)
/// or [`ExecutionEngine::run`].
#[derive(Clone)]
pub struct CompiledEngine {
    cache_dir: PathBuf,
    cc_timeout: Duration,
    sink: Option<TraceSink>,
    metrics: Option<Metrics>,
    /// Emit per-loop-nest timing hooks into generated C and publish a
    /// [`RunProfile`] per run. Defaults from the `FT_PROFILE` env var.
    profile: bool,
    memo: Arc<Mutex<Memo>>,
}

impl std::fmt::Debug for CompiledEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledEngine")
            .field("cache_dir", &self.cache_dir)
            .finish_non_exhaustive()
    }
}

impl Default for CompiledEngine {
    fn default() -> CompiledEngine {
        CompiledEngine::new()
    }
}

/// Resolve the artifact cache directory: `FT_CACHE_DIR` wins, otherwise
/// the nearest ancestor `target/` directory (so unit tests running from
/// crate subdirectories share the workspace cache), otherwise a temp-dir
/// fallback.
fn default_cache_dir() -> PathBuf {
    if let Ok(d) = std::env::var("FT_CACHE_DIR") {
        if !d.is_empty() {
            return PathBuf::from(d);
        }
    }
    if let Ok(mut dir) = std::env::current_dir() {
        loop {
            let t = dir.join("target");
            if t.is_dir() {
                return t.join("ft-cache");
            }
            if !dir.pop() {
                break;
            }
        }
    }
    std::env::temp_dir().join("ft-cache")
}

/// Whether the `FT_PROFILE` env var asks for per-loop-nest profiling
/// (set, non-empty, and not `"0"`).
fn profile_env_enabled() -> bool {
    std::env::var("FT_PROFILE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Total bytes of all regular files in the artifact cache directory.
fn cache_size_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// 64-bit FNV-1a over the concatenation of `parts` — stable across
/// processes and Rust versions, unlike `DefaultHasher`, so on-disk keys
/// survive toolchain bumps.
fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in parts.iter().flat_map(|p| p.iter()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One in-flight compilation of a cache key. The first requester (the
/// *leader*) compiles; everyone else parks on the condvar and re-checks the
/// on-disk artifact once the leader finishes.
#[derive(Default)]
struct Flight {
    done: std::sync::Mutex<bool>,
    cv: std::sync::Condvar,
}

/// Process-wide singleflight table: at most one thread per cache key is
/// compiling at any moment, regardless of how many `CompiledEngine` values
/// (each with its own memo) exist. Entries live only while a
/// compile is in flight.
fn flights() -> &'static Mutex<HashMap<u64, Arc<Flight>>> {
    static FLIGHTS: OnceLock<Mutex<HashMap<u64, Arc<Flight>>>> = OnceLock::new();
    FLIGHTS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Take an exclusive advisory lock on `file`, blocking until granted. The
/// lock is released when the file handle is dropped (and by the kernel if
/// the process dies — unlike a lock *file*, it cannot leak and wedge the
/// cache). This is the cross-process leg of compile deduplication; the
/// in-process leg is [`flights`].
#[cfg(unix)]
fn lock_exclusive(file: &std::fs::File) -> std::io::Result<()> {
    use std::os::unix::io::AsRawFd;
    extern "C" {
        fn flock(fd: i32, operation: i32) -> i32;
    }
    const LOCK_EX: i32 = 2;
    loop {
        if unsafe { flock(file.as_raw_fd(), LOCK_EX) } == 0 {
            return Ok(());
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

#[cfg(not(unix))]
fn lock_exclusive(_file: &std::fs::File) -> std::io::Result<()> {
    // No advisory locking: in-process singleflight still dedups, and the
    // tmp+rename publish keeps concurrent processes correct (they may
    // redundantly compile, never corrupt).
    Ok(())
}

fn ctype(dt: DataType) -> &'static str {
    match dt {
        DataType::F32 => "float",
        DataType::F64 => "double",
        DataType::I32 => "int32_t",
        DataType::I64 => "int64_t",
        DataType::Bool => "bool",
    }
}

/// Evaluate a parameter-shape extent over the supplied size parameters.
fn eval_extent(e: &Expr, sizes: &HashMap<String, i64>) -> Result<i64, RuntimeError> {
    match e {
        Expr::IntConst(v) => Ok(*v),
        Expr::Var(n) => sizes
            .get(n)
            .copied()
            .ok_or_else(|| RuntimeError::UnresolvedSize(n.clone())),
        Expr::Binary { op, a, b } => {
            let x = eval_extent(a, sizes)?;
            let y = eval_extent(b, sizes)?;
            match op {
                BinaryOp::Add => Ok(x + y),
                BinaryOp::Sub => Ok(x - y),
                BinaryOp::Mul => Ok(x * y),
                BinaryOp::Div => {
                    if y == 0 {
                        Err(RuntimeError::DivisionByZero)
                    } else {
                        Ok(x.div_euclid(y))
                    }
                }
                BinaryOp::Mod => {
                    if y == 0 {
                        Err(RuntimeError::DivisionByZero)
                    } else {
                        Ok(x.rem_euclid(y))
                    }
                }
                BinaryOp::Min => Ok(x.min(y)),
                BinaryOp::Max => Ok(x.max(y)),
                _ => Err(RuntimeError::Native(format!(
                    "unsupported extent operator {op:?}"
                ))),
            }
        }
        _ => Err(RuntimeError::Native(format!(
            "unsupported extent expression {e:?}"
        ))),
    }
}

/// Copy `t` into a tensor of `dtype` (element-wise converting).
fn convert(t: &TensorVal, dtype: DataType) -> TensorVal {
    let mut out = TensorVal::zeros(dtype, t.shape());
    for i in 0..t.numel() {
        out.set_flat(i, t.get_flat(i));
    }
    out
}

impl CompiledEngine {
    /// An engine using the default cache directory (see module docs) and a
    /// 60 s compiler deadline.
    pub fn new() -> CompiledEngine {
        CompiledEngine {
            cache_dir: default_cache_dir(),
            cc_timeout: Duration::from_secs(60),
            sink: None,
            metrics: None,
            profile: profile_env_enabled(),
            memo: Arc::default(),
        }
    }

    /// An engine with an explicit artifact cache directory.
    pub fn with_cache_dir(dir: impl Into<PathBuf>) -> CompiledEngine {
        CompiledEngine {
            cache_dir: dir.into(),
            ..CompiledEngine::new()
        }
    }

    /// Enable or disable per-loop-nest profiling (overrides `FT_PROFILE`).
    /// Profiled and unprofiled builds emit different sources, so they cache
    /// under different keys and never collide.
    pub fn with_profiling(mut self, on: bool) -> CompiledEngine {
        self.profile = on;
        self
    }

    /// Whether this engine emits profiled kernels.
    pub fn profiling(&self) -> bool {
        self.profile
    }

    /// The artifact cache directory this engine reads and writes.
    pub fn cache_dir(&self) -> &Path {
        &self.cache_dir
    }

    /// The complete translation unit handed to `cc`: the memory-planned
    /// emitted function plus the fixed-ABI `ft_entry` wrapper that unpacks
    /// the untyped parameter array and calls it. The plan is computed with
    /// the run's concrete sizes, so arena offsets are compile-time constants
    /// — distinct size bindings emit (and cache) distinct kernels. Profiled
    /// units thread the prof array through to the emitted function;
    /// unprofiled units discard it, so the entry signature is the same
    /// across both.
    fn source_for(&self, func: &Func, plan: &MemPlan) -> (String, Vec<ProfSite>) {
        let (mut src, sites) = emit_c_planned(func, plan, self.profile);
        let syms = c_symbols(func);
        src.push_str(
            "\nvoid ft_entry(void **params, const int64_t *sizes, \
             unsigned char *arena, uint64_t *prof) {\n",
        );
        let mut call_args: Vec<String> = Vec::new();
        for (i, p) in func.params.iter().enumerate() {
            let c = ctype(p.dtype);
            let qual = if p.atype == AccessType::Input { "const " } else { "" };
            call_args.push(format!("({qual}{c}*)params[{i}]"));
        }
        for i in 0..func.size_params.len() {
            call_args.push(format!("sizes[{i}]"));
        }
        call_args.push("arena".to_string());
        if self.profile {
            call_args.push("prof".to_string());
        } else {
            src.push_str("    (void)prof;\n");
        }
        src.push_str(&format!("    {}({});\n}}\n", syms.func, call_args.join(", ")));
        (src, sites)
    }

    fn note_cache(&self, hash: u64, hit: bool) {
        if let Some(m) = &self.metrics {
            m.counter(if hit {
                "compiled.cache.hit"
            } else {
                "compiled.cache.miss"
            })
            .inc();
        }
        if let Some(sink) = &self.sink {
            sink.decision(Decision {
                pass: None,
                primitive: "compiled.cache".to_string(),
                args: format!("({hash:016x})"),
                verdict: Verdict::Applied,
                reason: Some(if hit { "hit" } else { "miss" }.to_string()),
                deps: Vec::new(),
                ts_us: sink.now_us(),
            });
        }
    }

    /// Leader-side build: take the cross-process file lock for `hash`,
    /// re-check whether another process published the artifact while we
    /// waited, and compile only if not. Returns whether a compile actually
    /// ran (false = lost the cross-process race, which is a cache hit).
    fn build_locked(&self, src: &str, hash: u64, so_path: &Path) -> Result<bool, RuntimeError> {
        std::fs::create_dir_all(&self.cache_dir).map_err(|e| {
            RuntimeError::Native(format!("create {}: {e}", self.cache_dir.display()))
        })?;
        let lock_path = self.cache_dir.join(format!("{hash:016x}.lock"));
        let lock = std::fs::File::create(&lock_path)
            .map_err(|e| RuntimeError::Native(format!("create {}: {e}", lock_path.display())))?;
        lock_exclusive(&lock)
            .map_err(|e| RuntimeError::Native(format!("lock {}: {e}", lock_path.display())))?;
        if so_path.is_file() {
            return Ok(false);
        }
        self.compile(src, hash, so_path)?;
        Ok(true)
        // `lock` drops here, releasing the flock.
    }

    /// Compile `src` into `so_path`, writing the source next to it for
    /// inspection. Tries OpenMP first (the emitter's pragmas are only
    /// honored with `-fopenmp`); falls back to a serial build on
    /// toolchains without libgomp.
    fn compile(&self, src: &str, hash: u64, so_path: &Path) -> Result<(), RuntimeError> {
        let t0 = Instant::now();
        std::fs::create_dir_all(&self.cache_dir)
            .map_err(|e| RuntimeError::Native(format!("create {}: {e}", self.cache_dir.display())))?;
        let c_path = self.cache_dir.join(format!("{hash:016x}.c"));
        std::fs::write(&c_path, src)
            .map_err(|e| RuntimeError::Native(format!("write {}: {e}", c_path.display())))?;
        // Build into a process-unique temp name and rename into place so a
        // concurrent builder of the same key never observes a partial .so.
        let tmp = self
            .cache_dir
            .join(format!("{hash:016x}.so.tmp.{}", std::process::id()));
        let mut last_err = String::new();
        for flags in [CC_FLAGS, CC_FLAGS_SERIAL] {
            let mut cmd = Command::new("cc");
            cmd.args(flags.split_whitespace())
                .arg(&c_path)
                .arg("-o")
                .arg(&tmp)
                .arg("-lm");
            let mut span = self.sink.as_ref().map(|s| {
                let mut sp = s.span("compiled.cc", "compiled.cc");
                sp.arg("hash", format!("{hash:016x}"));
                sp.arg("flags", flags);
                sp
            });
            if let Some(m) = &self.metrics {
                m.counter("compiled.cc.spawned").inc();
            }
            let out = output_with_timeout(&mut cmd, self.cc_timeout)
                .map_err(|e| RuntimeError::Native(format!("spawn cc: {e}")))?;
            if let Some(sp) = span.as_mut() {
                sp.arg("ok", out.success());
            }
            if out.timed_out {
                let _ = std::fs::remove_file(&tmp);
                return Err(RuntimeError::ChildTimeout {
                    what: "cc".to_string(),
                    timeout_ms: self.cc_timeout.as_millis() as u64,
                });
            }
            if out.success() {
                std::fs::rename(&tmp, so_path)
                    .map_err(|e| RuntimeError::Native(format!("rename artifact: {e}")))?;
                if let Some(m) = &self.metrics {
                    m.histogram("compiled.compile_us")
                        .record_duration_us(t0.elapsed());
                    m.counter("compiled.cache.publish").inc();
                    m.gauge("compiled.cache.size_bytes")
                        .set(cache_size_bytes(&self.cache_dir) as i64);
                }
                return Ok(());
            }
            last_err = String::from_utf8_lossy(&out.stderr).into_owned();
        }
        let _ = std::fs::remove_file(&tmp);
        Err(RuntimeError::Native(format!("cc failed:\n{last_err}")))
    }

    /// The prepared executable for `func` at `sizes`, from the memo or
    /// built (once, however many threads ask at the same time).
    fn prepared(
        &self,
        func: &Func,
        sizes: &HashMap<String, i64>,
    ) -> Result<Arc<PreparedKernel>, RuntimeError> {
        let cell = {
            let mut memo = self.memo.lock();
            memo.clock += 1;
            let now = memo.clock;
            let hit = memo
                .slots
                .iter()
                .position(|s| s.profile == self.profile && s.sizes == *sizes && s.func == *func);
            match hit {
                Some(i) => {
                    memo.slots[i].last_use = now;
                    Arc::clone(&memo.slots[i].cell)
                }
                None => {
                    if memo.slots.len() >= PREPARED_CAP {
                        let lru = (0..memo.slots.len())
                            .min_by_key(|&i| memo.slots[i].last_use)
                            .expect("a full memo has slots");
                        memo.slots.swap_remove(lru);
                        if let Some(m) = &self.metrics {
                            m.counter("compiled.prepared.evicted").inc();
                        }
                    }
                    let cell = PrepareCell::default();
                    memo.slots.push(MemoSlot {
                        func: func.clone(),
                        sizes: sizes.clone(),
                        profile: self.profile,
                        cell: Arc::clone(&cell),
                        last_use: now,
                    });
                    cell
                }
            }
        };
        let mut built = false;
        match cell.get_or_init(|| {
            built = true;
            self.build(func, sizes)
        }) {
            Ok(k) => {
                if !built {
                    self.note_cache(k.hash, true);
                }
                Ok(Arc::clone(k))
            }
            Err(e) => {
                // Forget the failure so the next request retries.
                if built {
                    self.memo
                        .lock()
                        .slots
                        .retain(|s| !Arc::ptr_eq(&s.cell, &cell));
                }
                Err(e.clone())
            }
        }
    }

    /// Prepare `func` at `sizes` from scratch: resolve sizes and shapes,
    /// plan memory, emit and hash the C source, build (or find) and load
    /// the artifact. Counted as `compiled.prepare`.
    fn build(
        &self,
        func: &Func,
        sizes: &HashMap<String, i64>,
    ) -> Result<Arc<PreparedKernel>, RuntimeError> {
        if let Some(m) = &self.metrics {
            m.counter("compiled.prepare").inc();
        }
        let size_vals = func
            .size_params
            .iter()
            .map(|sp| {
                sizes
                    .get(sp)
                    .copied()
                    .ok_or_else(|| RuntimeError::UnresolvedSize(sp.clone()))
            })
            .collect::<Result<_, _>>()?;
        let params = func
            .params
            .iter()
            .map(|p| {
                let shape = p
                    .shape
                    .iter()
                    .map(|e| {
                        let v = eval_extent(e, sizes)?;
                        usize::try_from(v).map_err(|_| RuntimeError::UnresolvedSize(p.name.clone()))
                    })
                    .collect::<Result<_, _>>()?;
                Ok(ParamSlot {
                    name: p.name.clone(),
                    dtype: p.dtype,
                    atype: p.atype,
                    shape,
                })
            })
            .collect::<Result<_, RuntimeError>>()?;
        let plan = MemPlan::plan(func, sizes);
        crate::arena::publish_plan(self.sink.as_ref(), self.metrics.as_ref(), &func.name, &plan);
        let (src, sites) = self.source_for(func, &plan);
        // The plan hash participates in the key (belt and braces — planned
        // offsets are already baked into the source).
        let hash = fnv1a(&[
            src.as_bytes(),
            b"\0",
            CC_FLAGS.as_bytes(),
            b"\0",
            &ABI_VERSION.to_le_bytes(),
            &plan.plan_hash().to_le_bytes(),
        ]);
        let lib = self.load_artifact(&src, hash)?;
        // SAFETY: ft_entry's type is fixed by ABI_VERSION, which
        // participates in the key.
        let entry = *unsafe { lib.get::<EntryFn>(b"ft_entry\0") }
            .map_err(|e| RuntimeError::Native(format!("resolve ft_entry: {e}")))?;
        Ok(Arc::new(PreparedKernel {
            func_name: func.name.clone(),
            entry,
            sites,
            hash,
            size_vals,
            params,
            plan_hash: plan.plan_hash(),
            arena_bytes: plan.planned_peak_bytes,
            run_peak_bytes: plan.run_peak_bytes(func, sizes),
            binding: CtxBinding::new(func, sizes, &plan),
            _lib: lib,
        }))
    }

    /// Find or build the artifact for `src` (cache key `hash`) and load it.
    fn load_artifact(&self, src: &str, hash: u64) -> Result<libloading::Library, RuntimeError> {
        let so_path = self.cache_dir.join(format!("{hash:016x}.so"));
        // Settle who compiles. Any number of engines/threads/processes may
        // want this key at once; exactly one `cc` must be spawned (the
        // thundering-herd bug this replaces spawned one per engine). Leaders compile under a per-key singleflight entry
        // plus a cross-process file lock; followers park, then re-check the
        // published artifact — and take over as leader if their leader failed.
        loop {
            if so_path.is_file() {
                self.note_cache(hash, true);
                break;
            }
            let (flight, leader) = {
                let mut map = flights().lock();
                match map.get(&hash) {
                    Some(f) => (Arc::clone(f), false),
                    None => {
                        let f = Arc::new(Flight::default());
                        map.insert(hash, Arc::clone(&f));
                        (f, true)
                    }
                }
            };
            if leader {
                let r = self.build_locked(src, hash, &so_path);
                *flight.done.lock().unwrap() = true;
                flight.cv.notify_all();
                flights().lock().remove(&hash);
                match r {
                    Ok(compiled) => {
                        self.note_cache(hash, !compiled);
                        break;
                    }
                    Err(e) => return Err(e),
                }
            } else {
                if let Some(m) = &self.metrics {
                    m.counter("compiled.singleflight.wait").inc();
                }
                let mut done = flight.done.lock().unwrap();
                while !*done {
                    done = flight.cv.wait(done).unwrap();
                }
                // Loop: the artifact is normally on disk now; if the leader
                // errored instead, the next iteration elects a new leader
                // (each waiter leads at most once before erroring itself).
            }
        }
        pin_openmp_runtime();
        // SAFETY: the object was produced by our own emitter + cc (or is a
        // cache entry keyed by the full source).
        unsafe { libloading::Library::new(&so_path) }
            .map_err(|e| RuntimeError::Native(format!("load {}: {e}", so_path.display())))
    }
}

const CC_FLAGS: &str = "-O2 -fPIC -shared -ffp-contract=off -fopenmp";
const CC_FLAGS_SERIAL: &str = "-O2 -fPIC -shared -ffp-contract=off";

/// Keep the OpenMP runtime loaded for the rest of the process. Kernels
/// built with `-fopenmp` pull in `libgomp`; if `dlclose` of the last such
/// kernel unloaded it, its worker threads — still spinning after the last
/// parallel region — would run unmapped code and crash the process.
/// Loading it once with `RTLD_NODELETE` before the first kernel makes every
/// later unload a no-op. Does nothing where the library is absent (the
/// serial-fallback toolchain) or off Linux.
fn pin_openmp_runtime() {
    static PINNED: OnceLock<()> = OnceLock::new();
    PINNED.get_or_init(|| {
        #[cfg(target_os = "linux")]
        {
            extern "C" {
                fn dlopen(filename: *const std::ffi::c_char, flags: i32) -> *mut c_void;
            }
            const RTLD_NOW: i32 = 2;
            const RTLD_NODELETE: i32 = 0x1000;
            // SAFETY: loading the system OpenMP runtime runs only its own
            // initializers; the handle is deliberately never closed.
            unsafe { dlopen(c"libgomp.so.1".as_ptr(), RTLD_NOW | RTLD_NODELETE) };
        }
    });
}

impl CompiledEngine {
    /// Prepare `func` at `sizes` for repeated execution: memory planning,
    /// C emission, hashing, the cache-aware build and `dlopen`, done once
    /// per `(func, sizes)` and memoized. The returned [`Executable`]
    /// reports into this engine's sink and metrics.
    ///
    /// # Errors
    ///
    /// Unresolvable sizes, toolchain failures ([`RuntimeError::Native`],
    /// [`RuntimeError::ChildTimeout`]).
    pub fn prepare(
        &self,
        func: &Func,
        sizes: &HashMap<String, i64>,
    ) -> Result<Arc<Executable>, RuntimeError> {
        Ok(Arc::new(Executable {
            kernel: self.prepared(func, sizes)?,
            sink: self.sink.clone(),
            metrics: self.metrics.clone(),
        }))
    }

    fn run_inner(
        &self,
        func: &Func,
        inputs: &HashMap<String, TensorVal>,
        sizes: &HashMap<String, i64>,
        ctx: Option<&mut RunContext>,
    ) -> Result<RunResult, RuntimeError> {
        let t0 = self.metrics.as_ref().map(|_| Instant::now());
        let r = self
            .prepared(func, sizes)
            .and_then(|k| k.run(ctx, inputs, self.sink.as_ref(), self.metrics.as_ref()));
        observe_run(self.metrics.as_ref(), t0, &r);
        r
    }
}

impl ExecutionEngine for CompiledEngine {
    fn name(&self) -> &'static str {
        "compiled"
    }

    fn run(
        &self,
        func: &Func,
        inputs: &HashMap<String, TensorVal>,
        sizes: &HashMap<String, i64>,
    ) -> Result<RunResult, RuntimeError> {
        self.run_inner(func, inputs, sizes, None)
    }

    fn run_with(
        &self,
        func: &Func,
        inputs: &HashMap<String, TensorVal>,
        sizes: &HashMap<String, i64>,
        ctx: &mut RunContext,
    ) -> Result<RunResult, RuntimeError> {
        let r = self.run_inner(func, inputs, sizes, Some(&mut *ctx));
        if let Err(e) = &r {
            ctx.poison_on(e);
        }
        r
    }

    fn set_sink(&mut self, sink: Option<TraceSink>) {
        self.sink = sink;
    }

    fn sink(&self) -> Option<&TraceSink> {
        self.sink.as_ref()
    }

    fn set_metrics(&mut self, metrics: Option<Metrics>) {
        self.metrics = metrics;
    }

    fn metrics(&self) -> Option<&Metrics> {
        self.metrics.as_ref()
    }
}

impl PreparedKernel {
    /// Bind, call, collect: the whole per-run work of a prepared kernel.
    fn run(
        &self,
        mut rctx: Option<&mut RunContext>,
        inputs: &HashMap<String, TensorVal>,
        sink: Option<&TraceSink>,
        metrics: Option<&Metrics>,
    ) -> Result<RunResult, RuntimeError> {
        if let Some(c) = rctx.as_deref_mut() {
            c.bind(&self.binding)?;
        }
        let mut span = sink.map(|s| {
            s.span_on(
                TRACK_RUNTIME,
                "runtime",
                &format!("compiled {}", self.func_name),
            )
        });
        // Bind parameters with the interpreter's semantics: Input borrowed
        // read-only, InOut copied in (and returned), Output zeroed. The
        // kernel reads Input buffers through const pointers; owned InOut/
        // Output tensors keep their storage alive across the call.
        enum Bound<'a> {
            Borrowed(&'a TensorVal),
            Owned(TensorVal),
        }
        let mut bound: Vec<Bound<'_>> = Vec::with_capacity(self.params.len());
        for p in &self.params {
            let b = match p.atype {
                AccessType::Input | AccessType::InOut => {
                    let t = inputs
                        .get(&p.name)
                        .ok_or_else(|| RuntimeError::MissingInput(p.name.clone()))?;
                    if t.shape() != p.shape.as_slice() {
                        return Err(RuntimeError::ShapeMismatch {
                            name: p.name.clone(),
                            expected: p.shape.clone(),
                            actual: t.shape().to_vec(),
                        });
                    }
                    if p.atype == AccessType::InOut || t.dtype() != p.dtype {
                        // Owned copy, converting when the caller's dtype
                        // differs from the declaration (the kernel indexes
                        // with the declared element size). A RunContext
                        // serves the copy from its staging buffers.
                        let owned = match rctx.as_deref_mut() {
                            Some(c) if t.dtype() == p.dtype => c.staged_copy(&p.name, t),
                            Some(c) => {
                                let mut out =
                                    c.staged_zeros(&p.name, p.dtype, t.shape(), false);
                                for i in 0..t.numel() {
                                    out.set_flat(i, t.get_flat(i));
                                }
                                out
                            }
                            None => convert(t, p.dtype),
                        };
                        Bound::Owned(owned)
                    } else {
                        Bound::Borrowed(t)
                    }
                }
                // Output and Cache params are zero-initialized scratch; only
                // Output (and InOut) are returned.
                AccessType::Output | AccessType::Cache => {
                    let owned = match rctx.as_deref_mut() {
                        Some(c) => c.staged_zeros(&p.name, p.dtype, &p.shape, true),
                        None => TensorVal::zeros(p.dtype, &p.shape),
                    };
                    Bound::Owned(owned)
                }
            };
            bound.push(b);
        }
        let mut ptrs: Vec<*mut c_void> = bound
            .iter_mut()
            .map(|b| match b {
                // The generated signature takes `const T*` for Input
                // params, so handing out a mut-cast of a shared borrow is
                // never written through.
                Bound::Borrowed(t) => t.as_ptr_untyped() as *mut c_void,
                Bound::Owned(t) => t.as_mut_ptr_untyped(),
            })
            .collect();
        let mut prof_buf: Vec<u64> = vec![0; self.sites.len()];
        let prof_ptr = if prof_buf.is_empty() {
            std::ptr::null_mut()
        } else {
            prof_buf.as_mut_ptr()
        };
        // A RunContext preallocates the plan's arena once and hands the
        // same block to every call; without one the kernel mallocs its own.
        let arena_ptr: *mut c_void = match rctx.as_deref_mut() {
            Some(c) => c.native_arena_for(self.plan_hash, self.arena_bytes).ptr() as *mut c_void,
            None => std::ptr::null_mut(),
        };
        let call_t0 = Instant::now();
        // SAFETY: pointer array length and element types match the
        // generated ft_entry (same Func produced both); buffers outlive
        // the call; size values are passed by const pointer; arena_ptr is
        // NULL or points at planned_peak_bytes of storage for the plan the
        // kernel was emitted from; prof_ptr is NULL or points at
        // sites.len() slots, matching the profiled build.
        unsafe {
            (self.entry)(
                ptrs.as_mut_ptr(),
                self.size_vals.as_ptr(),
                arena_ptr,
                prof_ptr,
            )
        };
        let call_ns = call_t0.elapsed().as_nanos() as u64;
        if let Some(m) = metrics {
            m.histogram("engine.compiled.kernel_us").record(call_ns / 1000);
        }
        if !self.sites.is_empty() {
            self.publish_profile(sink, metrics, &prof_buf, call_ns);
        }
        let mut outputs = HashMap::new();
        for (p, b) in self.params.iter().zip(bound) {
            if !matches!(p.atype, AccessType::Output | AccessType::InOut) {
                continue;
            }
            let t = match b {
                Bound::Owned(t) => t,
                Bound::Borrowed(_) => unreachable!("outputs are always owned"),
            };
            // The interpreter preserves the *caller's* dtype for InOut
            // tensors (it binds by clone); convert back when they differ.
            let t = match inputs.get(&p.name) {
                Some(orig) if p.atype == AccessType::InOut && orig.dtype() != t.dtype() => {
                    convert(&t, orig.dtype())
                }
                _ => t,
            };
            outputs.insert(p.name.clone(), t);
        }
        if let Some(sp) = span.as_mut() {
            sp.arg("params", self.params.len());
        }
        if let (Some(m), Some(c)) = (metrics, rctx) {
            crate::arena::flush_stats(m, &mut c.stats);
        }
        Ok(RunResult {
            outputs,
            counters: PerfCounters::default(),
        })
    }

    /// Publish the per-loop-nest timings of a profiled run as a
    /// [`RunProfile`], mirroring the interpreter's attribution shape: node 0
    /// is the function root, one child per outermost loop nest, wall
    /// nanoseconds carried in the (exclusive) `cycles` field. The root gets
    /// the out-of-loop remainder, so `totals()` equals the entry-call wall
    /// time. Site times are also summed into the `compiled.prof.site_ns`
    /// counter for metrics-only consumers.
    fn publish_profile(
        &self,
        sink: Option<&TraceSink>,
        metrics: Option<&Metrics>,
        times_ns: &[u64],
        call_ns: u64,
    ) {
        let in_loops: u64 = times_ns.iter().sum();
        if let Some(m) = metrics {
            m.counter("compiled.prof.site_ns").add(in_loops);
            m.counter("compiled.prof.call_ns").add(call_ns);
        }
        let Some(sink) = sink else { return };
        let mut nodes = vec![ProfileNode {
            stmt: None,
            desc: self.func_name.clone(),
            parent: None,
            counters: StmtCounters {
                cycles: call_ns.saturating_sub(in_loops) as f64,
                ..StmtCounters::default()
            },
        }];
        for (site, &ns) in self.sites.iter().zip(times_ns) {
            nodes.push(ProfileNode {
                stmt: Some(site.stmt),
                desc: site.desc.clone(),
                parent: Some(0),
                counters: StmtCounters {
                    trips: 1,
                    cycles: ns as f64,
                    ..StmtCounters::default()
                },
            });
        }
        sink.profile(RunProfile {
            func: self.func_name.clone(),
            nodes,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::prelude::*;

    fn tmp_cache(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "ft-native-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn axpy() -> Func {
        Func::new("axpy")
            .param("x", [var("n")], DataType::F32, AccessType::Input)
            .param("y", [var("n")], DataType::F32, AccessType::InOut)
            .size_param("n")
            .body(for_(
                "i",
                0,
                var("n"),
                store(
                    "y",
                    [var("i")],
                    load("y", [var("i")]) + load("x", [var("i")]) * 2.0f32,
                ),
            ))
    }

    #[test]
    fn compiles_and_runs_in_process() {
        if !cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let eng = CompiledEngine::with_cache_dir(tmp_cache("run"));
        let mut inputs = HashMap::new();
        inputs.insert("x".to_string(), TensorVal::from_f32(&[5], vec![1.0; 5]));
        inputs.insert("y".to_string(), TensorVal::from_f32(&[5], vec![0.5; 5]));
        let sizes = HashMap::from([("n".to_string(), 5i64)]);
        let r = eng.run(&axpy(), &inputs, &sizes).expect("runs");
        assert_eq!(r.output("y").to_f64_vec(), vec![2.5; 5]);
        // Input buffer untouched.
        assert_eq!(inputs["x"].to_f64_vec(), vec![1.0; 5]);
    }

    #[test]
    fn second_run_hits_the_cache() {
        if !cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let dir = tmp_cache("hit");
        let sink = TraceSink::new();
        let mut eng = CompiledEngine::with_cache_dir(&dir);
        eng.set_sink(Some(sink.clone()));
        let mut inputs = HashMap::new();
        inputs.insert("x".to_string(), TensorVal::from_f32(&[3], vec![1.0; 3]));
        inputs.insert("y".to_string(), TensorVal::from_f32(&[3], vec![0.0; 3]));
        let sizes = HashMap::from([("n".to_string(), 3i64)]);
        eng.run(&axpy(), &inputs, &sizes).expect("cold run");
        eng.run(&axpy(), &inputs, &sizes).expect("warm run");
        // A *fresh* engine (empty in-memory memo) against the same dir
        // must also hit via the on-disk artifact.
        let mut eng2 = CompiledEngine::with_cache_dir(&dir);
        eng2.set_sink(Some(sink.clone()));
        eng2.run(&axpy(), &inputs, &sizes).expect("disk-warm run");
        let reasons: Vec<String> = sink
            .decisions()
            .iter()
            .filter(|d| d.primitive == "compiled.cache")
            .map(|d| d.reason.clone().unwrap_or_default())
            .collect();
        assert_eq!(reasons, ["miss", "hit", "hit"], "{reasons:?}");
    }

    #[test]
    fn cache_traffic_is_counted_in_metrics() {
        if !cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let dir = tmp_cache("metrics");
        let m = Metrics::new();
        let mut eng = CompiledEngine::with_cache_dir(&dir);
        eng.set_metrics(Some(m.clone()));
        let mut inputs = HashMap::new();
        inputs.insert("x".to_string(), TensorVal::from_f32(&[3], vec![1.0; 3]));
        inputs.insert("y".to_string(), TensorVal::from_f32(&[3], vec![0.0; 3]));
        let sizes = HashMap::from([("n".to_string(), 3i64)]);
        eng.run(&axpy(), &inputs, &sizes).expect("cold run");
        eng.run(&axpy(), &inputs, &sizes).expect("warm run");
        let s = m.snapshot();
        assert_eq!(s.counter("compiled.cache.miss"), 1, "{s:?}");
        assert_eq!(s.counter("compiled.cache.hit"), 1, "{s:?}");
        assert_eq!(s.counter("compiled.cache.publish"), 1, "{s:?}");
        // One cc invocation compiled the artifact (a serial-fallback retry
        // would make it 2; either way the warm run adds none).
        let spawned = s.counter("compiled.cc.spawned");
        assert!((1..=2).contains(&spawned), "{s:?}");
        assert!(s.gauge("compiled.cache.size_bytes") > 0, "{s:?}");
        assert_eq!(
            s.histograms.get("engine.compiled.run_us").map(|h| h.count),
            Some(2),
            "{s:?}"
        );
        // Warm runs through a fresh engine spawn no compiler.
        let mut eng2 = CompiledEngine::with_cache_dir(&dir);
        eng2.set_metrics(Some(m.clone()));
        eng2.run(&axpy(), &inputs, &sizes).expect("disk-warm run");
        let s2 = m.snapshot();
        assert_eq!(s2.counter("compiled.cc.spawned"), spawned, "{s2:?}");
        assert_eq!(s2.counter("compiled.cache.hit"), 2, "{s2:?}");
    }

    #[test]
    fn profiled_run_attributes_wall_time_to_loop_nests() {
        if !cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let sink = TraceSink::new();
        let m = Metrics::new();
        let mut eng =
            CompiledEngine::with_cache_dir(tmp_cache("prof")).with_profiling(true);
        eng.set_sink(Some(sink.clone()));
        eng.set_metrics(Some(m.clone()));
        let n = 1i64 << 16;
        let mut inputs = HashMap::new();
        inputs.insert(
            "x".to_string(),
            TensorVal::from_f32(&[n as usize], vec![1.0; n as usize]),
        );
        inputs.insert(
            "y".to_string(),
            TensorVal::from_f32(&[n as usize], vec![0.0; n as usize]),
        );
        let sizes = HashMap::from([("n".to_string(), n)]);
        let r = eng.run(&axpy(), &inputs, &sizes).expect("profiled run");
        assert_eq!(r.output("y").to_f64_vec()[0], 2.0);
        let profiles = sink.profiles();
        assert_eq!(profiles.len(), 1, "{profiles:?}");
        let p = &profiles[0];
        assert_eq!(p.func, "axpy");
        assert_eq!(p.nodes.len(), 2, "{:?}", p.nodes);
        assert_eq!(p.nodes[1].desc, "for i");
        assert_eq!(p.nodes[1].parent, Some(0));
        assert!(p.nodes[1].stmt.is_some());
        // The loop did real work, so its measured time is non-zero and the
        // attribution sums to the entry-call wall time recorded in metrics.
        assert!(p.nodes[1].counters.cycles > 0.0, "{:?}", p.nodes);
        let s = m.snapshot();
        assert!(s.counter("compiled.prof.site_ns") > 0, "{s:?}");
        assert!(
            s.counter("compiled.prof.site_ns") <= s.counter("compiled.prof.call_ns"),
            "{s:?}"
        );
        assert_eq!(
            p.totals().cycles as u64,
            s.counter("compiled.prof.call_ns"),
            "{s:?}"
        );
    }

    #[test]
    fn profiled_and_unprofiled_builds_cache_separately() {
        let plain = CompiledEngine::with_cache_dir(tmp_cache("keys"));
        let prof = plain.clone().with_profiling(true);
        let f = axpy();
        let plan = MemPlan::plan(&f, &HashMap::from([("n".to_string(), 8i64)]));
        let (src_plain, sites_plain) = plain.source_for(&f, &plan);
        let (src_prof, sites_prof) = prof.source_for(&f, &plan);
        assert_ne!(src_plain, src_prof);
        assert!(sites_plain.is_empty());
        assert_eq!(sites_prof.len(), 1);
        assert!(src_prof.contains("__ft_prof"), "{src_prof}");
        assert!(!src_plain.contains("__ft_prof"), "{src_plain}");
    }

    /// A compile-once/run-many loop with a [`RunContext`]: after the first
    /// iteration primes the arena and staging buffers, re-runs perform zero
    /// tensor heap allocations — the `mem.arena.alloc_calls` counter stays
    /// flat while `mem.arena.reuse_hits` climbs — and results stay correct.
    #[test]
    fn warm_run_context_reaches_zero_allocations() {
        if !cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let f = Func::new("smooth")
            .param("x", [var("n")], DataType::F32, AccessType::Input)
            .param("y", [var("n")], DataType::F32, AccessType::Output)
            .size_param("n")
            .body(var_def(
                "t",
                [var("n")],
                DataType::F32,
                MemType::CpuHeap,
                block([
                    for_(
                        "i",
                        0,
                        var("n"),
                        store("t", [var("i")], load("x", [var("i")]) * 2.0f32),
                    ),
                    for_(
                        "i",
                        0,
                        var("n"),
                        store("y", [var("i")], load("t", [var("i")]) + 1.0f32),
                    ),
                ]),
            ));
        let m = Metrics::new();
        let mut eng = CompiledEngine::with_cache_dir(tmp_cache("warm"));
        eng.set_metrics(Some(m.clone()));
        let n = 256usize;
        let inputs = HashMap::from([(
            "x".to_string(),
            TensorVal::from_f32(&[n], vec![1.0; n]),
        )]);
        let sizes = HashMap::from([("n".to_string(), n as i64)]);
        let mut ctx = crate::arena::RunContext::new();
        let r1 = eng.run_with(&f, &inputs, &sizes, &mut ctx).expect("cold");
        assert_eq!(r1.output("y").to_f64_vec(), vec![3.0; n]);
        ctx.recycle(r1).unwrap();
        let cold = m.snapshot();
        assert!(cold.counter("mem.arena.alloc_calls") > 0, "{cold:?}");
        for _ in 0..3 {
            let r = eng.run_with(&f, &inputs, &sizes, &mut ctx).expect("warm");
            assert_eq!(r.output("y").to_f64_vec(), vec![3.0; n]);
            ctx.recycle(r).unwrap();
        }
        let warm = m.snapshot();
        assert_eq!(
            warm.counter("mem.arena.alloc_calls"),
            cold.counter("mem.arena.alloc_calls"),
            "warm iterations must not allocate: {warm:?}"
        );
        assert!(
            warm.counter("mem.arena.reuse_hits") > cold.counter("mem.arena.reuse_hits"),
            "{warm:?}"
        );
    }

    #[test]
    fn zero_size_divisor_is_an_error_not_a_panic() {
        let e = eval_extent(
            &(var("n") / var("z")),
            &HashMap::from([("n".to_string(), 4i64), ("z".to_string(), 0i64)]),
        );
        assert_eq!(e, Err(RuntimeError::DivisionByZero));
    }

    #[test]
    fn output_params_are_zero_initialized() {
        if !cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let f = Func::new("fill_one")
            .param("o", [4], DataType::F64, AccessType::Output)
            .body(store("o", [1], 7.0f64));
        let eng = CompiledEngine::with_cache_dir(tmp_cache("zero"));
        let r = eng.run(&f, &HashMap::new(), &HashMap::new()).expect("runs");
        assert_eq!(r.output("o").to_f64_vec(), vec![0.0, 7.0, 0.0, 0.0]);
    }

    /// Prepare once, run many: repeated runs, a structurally equal clone
    /// of the program and a handle from `prepare` all share one prepared
    /// executable; other sizes prepare anew. Every path returns the same
    /// bits.
    #[test]
    fn runs_share_one_prepare_per_program_and_sizes() {
        if !cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let m = Metrics::new();
        let mut eng = CompiledEngine::with_cache_dir(tmp_cache("prepare"));
        eng.set_metrics(Some(m.clone()));
        let inputs = |n: usize| {
            HashMap::from([
                ("x".to_string(), TensorVal::from_f32(&[n], vec![1.5; n])),
                ("y".to_string(), TensorVal::from_f32(&[n], vec![0.25; n])),
            ])
        };
        let sizes = HashMap::from([("n".to_string(), 8i64)]);
        let f = axpy();
        let mut ctx = RunContext::new();
        let first = eng
            .run_with(&f, &inputs(8), &sizes, &mut ctx)
            .expect("cold");
        for _ in 0..20 {
            let r = eng
                .run_with(&f, &inputs(8), &sizes, &mut ctx)
                .expect("warm");
            assert_eq!(r.output("y").to_f64_vec(), first.output("y").to_f64_vec());
        }
        let exe = eng.prepare(&f.clone(), &sizes).expect("prepare");
        let mut own = exe.new_context();
        let r = exe.run(&mut own, &inputs(8)).expect("executable run");
        assert_eq!(r.output("y").to_f64_vec(), first.output("y").to_f64_vec());
        assert_eq!(exe.name(), "axpy");
        assert_eq!(m.snapshot().counter("compiled.prepare"), 1);
        let other = HashMap::from([("n".to_string(), 5i64)]);
        eng.run(&f, &inputs(5), &other).expect("other sizes");
        assert_eq!(m.snapshot().counter("compiled.prepare"), 2);
        // A context bound by one executable refuses another's run.
        exe.run(&mut own, &inputs(8)).expect("own context");
        let exe5 = eng.prepare(&f, &other).expect("prepare n=5");
        assert!(matches!(
            exe5.run(&mut own, &inputs(5)),
            Err(RuntimeError::ContextMismatch { .. })
        ));
    }

    /// The memo holds at most `PREPARED_CAP` executables. Twice as many
    /// keys (one program at distinct sizes, sharing one artifact) evict the
    /// oldest, and an evicted key that comes back prepares again and still
    /// answers correctly.
    #[test]
    fn prepared_memo_is_bounded() {
        if !cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let m = Metrics::new();
        let mut eng = CompiledEngine::with_cache_dir(tmp_cache("bounded"));
        eng.set_metrics(Some(m.clone()));
        let f = axpy();
        let run = |n: usize| {
            let inputs = HashMap::from([
                ("x".to_string(), TensorVal::from_f32(&[n], vec![1.0; n])),
                ("y".to_string(), TensorVal::from_f32(&[n], vec![0.5; n])),
            ]);
            let sizes = HashMap::from([("n".to_string(), n as i64)]);
            let r = eng.run(&f, &inputs, &sizes).expect("runs");
            assert_eq!(r.output("y").to_f64_vec(), vec![2.5; n]);
        };
        for n in 1..=2 * PREPARED_CAP {
            run(n);
        }
        assert_eq!(eng.memo.lock().slots.len(), PREPARED_CAP);
        let s = m.snapshot();
        assert_eq!(s.counter("compiled.prepare"), 2 * PREPARED_CAP as u64);
        assert_eq!(s.counter("compiled.prepared.evicted"), PREPARED_CAP as u64);
        run(1);
        assert_eq!(
            m.snapshot().counter("compiled.prepare"),
            2 * PREPARED_CAP as u64 + 1
        );
        assert_eq!(eng.memo.lock().slots.len(), PREPARED_CAP);
    }

    /// Environment variable that turns [`openmp_teardown_child`] into the
    /// child half of [`openmp_teardown_exits_cleanly`].
    const TEARDOWN_CHILD: &str = "FT_NATIVE_TEARDOWN_CHILD";

    fn omp_scale() -> Func {
        Func::new("omp_scale")
            .param("x", [var("n")], DataType::F32, AccessType::Input)
            .param("y", [var("n")], DataType::F32, AccessType::Output)
            .size_param("n")
            .body(for_with(
                "i",
                0,
                var("n"),
                ForProperty::parallel(ParallelScope::OpenMp),
                store("y", [var("i")], load("x", [var("i")]) * 3.0f32),
            ))
    }

    /// Child half: run an OpenMP kernel at the default thread count, drop
    /// the engine (closing the kernel) and return, ending the process.
    #[test]
    fn openmp_teardown_child() {
        let Ok(dir) = std::env::var(TEARDOWN_CHILD) else {
            return;
        };
        let n = 1usize << 16;
        let eng = CompiledEngine::with_cache_dir(dir);
        let inputs = HashMap::from([("x".to_string(), TensorVal::from_f32(&[n], vec![1.0; n]))]);
        let sizes = HashMap::from([("n".to_string(), n as i64)]);
        let r = eng.run(&omp_scale(), &inputs, &sizes).expect("omp run");
        assert_eq!(r.output("y").to_f64_vec()[n - 1], 3.0);
        drop(eng);
    }

    /// Closing the last OpenMP kernel right after it ran must not take the
    /// OpenMP runtime down under its still-spinning worker threads: ten
    /// child processes that do exactly that all exit with status 0.
    #[test]
    fn openmp_teardown_exits_cleanly() {
        if !cc_available() || std::env::var(TEARDOWN_CHILD).is_ok() {
            return;
        }
        let dir = tmp_cache("teardown");
        // Build the kernel once so the children only load it.
        let eng = CompiledEngine::with_cache_dir(&dir);
        let sizes = HashMap::from([("n".to_string(), 1i64 << 16)]);
        eng.prepare(&omp_scale(), &sizes).expect("prepare");
        let exe = std::env::current_exe().expect("test binary path");
        for i in 0..10 {
            let out = Command::new(&exe)
                .args([
                    "--exact",
                    "native::tests::openmp_teardown_child",
                    "--test-threads=1",
                ])
                .env(TEARDOWN_CHILD, &dir)
                .output()
                .expect("spawn child");
            assert!(
                out.status.success(),
                "child {i} exited with {}:\n{}",
                out.status,
                String::from_utf8_lossy(&out.stdout)
            );
        }
    }

    #[test]
    fn concurrent_identical_requests_compile_once() {
        // The thundering-herd regression: 8 engines (each with an empty
        // in-memory memo, as 8 serving threads would have) racing the same
        // kernel against a fresh cache dir must spawn `cc` for exactly one
        // build, not eight. First measure how many spawns *one* cold build
        // takes on this toolchain (1, or 2 when OpenMP is unavailable and
        // the serial fallback kicks in), then require the stampede to match.
        if !cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let mut inputs = HashMap::new();
        inputs.insert("x".to_string(), TensorVal::from_f32(&[16], vec![1.0; 16]));
        inputs.insert("y".to_string(), TensorVal::from_f32(&[16], vec![0.0; 16]));
        let sizes = HashMap::from([("n".to_string(), 16i64)]);

        let m1 = Metrics::new();
        let mut solo = CompiledEngine::with_cache_dir(tmp_cache("herd-solo"));
        solo.set_metrics(Some(m1.clone()));
        solo.run(&axpy(), &inputs, &sizes).expect("solo cold run");
        let per_build = m1.snapshot().counter("compiled.cc.spawned");
        assert!((1..=2).contains(&per_build), "{per_build}");

        let dir = tmp_cache("herd");
        let m = Metrics::new();
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let mut eng = CompiledEngine::with_cache_dir(&dir);
                    eng.set_metrics(Some(m.clone()));
                    let (inputs, sizes, barrier) = (&inputs, &sizes, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        eng.run(&axpy(), inputs, sizes).expect("stampede run")
                    })
                })
                .collect();
            let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            for r in &results {
                assert_eq!(r.output("y").to_f64_vec(), vec![2.0; 16]);
            }
        });
        let s = m.snapshot();
        assert_eq!(s.counter("compiled.cc.spawned"), per_build, "{s:?}");
        assert_eq!(s.counter("compiled.cache.publish"), 1, "{s:?}");
        assert_eq!(s.counter("compiled.cache.miss"), 1, "{s:?}");
        assert_eq!(s.counter("compiled.cache.hit"), 7, "{s:?}");
    }
}
