//! Arena-backed buffer reuse driven by [`ft_analysis::MemPlan`].
//!
//! A memory plan assigns every statically-sized `VarDef` of a lowered
//! function to an interference class; defs in one class never overlap in
//! program pre-order (loop-carried defs widened to their enclosing loop), so
//! they can share one backing buffer. This module realizes those classes as
//! per-engine free-lists and a cross-run [`RunContext`]:
//!
//! * [`TensorPool`] — [`TensorVal`] buffers for the interpreter's executor
//!   (`crate::compiled::ExecCtx`);
//! * [`ThreadedBufPool`] — widened `f64` storage for the threaded engine,
//!   shared behind a mutex so the coordinator reclaims scope-exit buffers;
//! * [`NativeArena`] — the single flat allocation handed to generated C
//!   (`unsigned char* __ft_arena`) by the compiled engine;
//! * [`RunContext`] — owns all of the above plus converted input/output
//!   staging buffers, keyed by the plan hash, so compile-once/run-many
//!   steady state performs zero tensor heap allocations.
//!
//! Reuse is observable, not asserted: every pool counts fresh heap
//! allocations (`mem.arena.alloc_calls`) and free-list hits
//! (`mem.arena.reuse_hits`), and the planner's verdict is published as a
//! `mem.plan` runtime span plus a decision-log entry with the
//! planned-vs-naive peak bytes.

use crate::error::RuntimeError;
use crate::interp::RunResult;
use crate::value::TensorVal;
use ft_analysis::{MemPlan, ARENA_ALIGN};
use ft_ir::{AccessType, DataType, Func, StmtId};
use ft_metrics::Metrics;
use ft_trace::{Decision, TraceSink, Verdict, TRACK_RUNTIME};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Allocation-behavior counters of one pool (or of the staging layer).
///
/// `alloc_calls` counts genuine heap allocations performed while the pool
/// was active — the quantity a warm [`RunContext`] loop drives to zero.
/// `reuse_hits` counts requests served from a free-list without touching
/// the allocator. Byte fields track the high-water mark of pooled storage.
#[derive(Debug, Default, Clone, Copy)]
pub struct ArenaStats {
    /// Fresh heap allocations (pool misses, growth reallocations, staging
    /// misses).
    pub alloc_calls: u64,
    /// Requests served entirely from pooled storage.
    pub reuse_hits: u64,
    /// Bytes currently held by pooled storage.
    pub bytes_held: u64,
    /// High-water mark of `bytes_held`.
    pub bytes_peak: u64,
    /// Times a poisoned context (a run errored mid-way) was reset to a
    /// clean slate before its next run.
    pub poison_resets: u64,
}

impl ArenaStats {
    pub(crate) fn hit(&mut self) {
        self.reuse_hits += 1;
    }

    pub(crate) fn miss(&mut self, bytes: u64) {
        self.alloc_calls += 1;
        self.bytes_held += bytes;
        self.bytes_peak = self.bytes_peak.max(self.bytes_held);
    }

    /// Fold another stats block into this one.
    pub fn absorb(&mut self, other: ArenaStats) {
        self.alloc_calls += other.alloc_calls;
        self.reuse_hits += other.reuse_hits;
        self.bytes_peak = self.bytes_peak.max(other.bytes_peak);
        self.poison_resets += other.poison_resets;
    }
}

/// Flush `stats` into the `mem.arena.*` metrics family and reset the
/// per-run counters (byte high-water marks are monotone and survive).
pub(crate) fn flush_stats(m: &Metrics, stats: &mut ArenaStats) {
    m.counter("mem.arena.alloc_calls").add(stats.alloc_calls);
    m.counter("mem.arena.reuse_hits").add(stats.reuse_hits);
    m.counter("mem.arena.poison_resets").add(stats.poison_resets);
    m.gauge("mem.arena.bytes_peak").fetch_max(stats.bytes_peak as i64);
    stats.alloc_calls = 0;
    stats.reuse_hits = 0;
    stats.poison_resets = 0;
}

/// Record the planner's verdict: a `mem.plan` span on the runtime track,
/// a decision-log entry with planned-vs-naive peak bytes, and the
/// `mem.arena.bytes_planned` gauge.
pub(crate) fn publish_plan(
    sink: Option<&TraceSink>,
    metrics: Option<&Metrics>,
    func: &str,
    plan: &MemPlan,
) {
    if let Some(s) = sink {
        let mut sp = s.span_on(TRACK_RUNTIME, "mem", "mem.plan");
        sp.arg("target", func);
        sp.arg("planned_peak_bytes", plan.planned_peak_bytes);
        sp.arg("naive_peak_bytes", plan.naive_peak_bytes);
        sp.arg("classes", plan.classes.len());
        sp.arg("defs_planned", plan.n_planned());
        sp.arg("zero_elided", plan.n_zero_elided());
        s.decision(Decision {
            pass: Some("memplan".to_string()),
            primitive: "mem.plan".to_string(),
            args: format!("({func})"),
            verdict: Verdict::Applied,
            reason: Some(format!(
                "planned_peak={}B naive_peak={}B classes={} defs={} zero_elided={}",
                plan.planned_peak_bytes,
                plan.naive_peak_bytes,
                plan.classes.len(),
                plan.n_planned(),
                plan.n_zero_elided(),
            )),
            deps: Vec::new(),
            ts_us: s.now_us(),
        });
    }
    if let Some(m) = metrics {
        m.gauge("mem.arena.bytes_planned")
            .fetch_max(plan.planned_peak_bytes as i64);
    }
}

/// True when the plan's pre-order def list lines up name-for-name with the
/// slot-lowered `tensor_names` table (params first, then defs). Both are
/// produced by a pre-order DFS over the same tree, so a mismatch means the
/// caller planned a different function than it compiled — pooling is then
/// disabled rather than risking a class collision.
pub(crate) fn plan_matches_names(plan: &MemPlan, tensor_names: &[String]) -> bool {
    plan.entries.iter().all(|e| {
        tensor_names
            .get(plan.n_params + e.def_idx)
            .is_some_and(|n| *n == e.name)
    })
}

/// Per-def facts extracted from a plan, indexed by slot (params offset
/// already applied).
#[derive(Debug)]
struct DefLookup {
    n_params: usize,
    /// Per def index: `(class, class_bytes, must_zero)` for planned defs.
    defs: Vec<Option<(usize, u64, bool)>>,
    n_classes: usize,
}

impl DefLookup {
    fn new(plan: &MemPlan) -> DefLookup {
        let defs = plan
            .entries
            .iter()
            .map(|e| e.class.map(|c| (c, plan.classes[c].bytes, e.must_zero)))
            .collect();
        DefLookup {
            n_params: plan.n_params,
            defs,
            n_classes: plan.classes.len(),
        }
    }

    fn slot(&self, slot: usize) -> Option<(usize, u64, bool)> {
        self.defs.get(slot.checked_sub(self.n_params)?).copied()?
    }
}

/// Class-keyed free-lists of [`TensorVal`] buffers for the interpreter.
#[derive(Debug)]
pub(crate) struct TensorPool {
    plan_hash: u64,
    lookup: DefLookup,
    free: Vec<Vec<TensorVal>>,
    pub(crate) stats: ArenaStats,
}

impl TensorPool {
    pub(crate) fn new(plan: &MemPlan) -> TensorPool {
        let lookup = DefLookup::new(plan);
        TensorPool {
            plan_hash: plan.plan_hash(),
            free: (0..lookup.n_classes).map(|_| Vec::new()).collect(),
            lookup,
            stats: ArenaStats::default(),
        }
    }

    pub(crate) fn plan_hash(&self) -> u64 {
        self.plan_hash
    }

    /// A buffer for the `VarDef` occupying tensor slot `slot`. Pool hits
    /// skip the zero-fill when the plan proved every element is written
    /// before it is read; misses (and unplanned defs) allocate fresh
    /// zeroed storage.
    pub(crate) fn take_slot(
        &mut self,
        slot: usize,
        dtype: DataType,
        shape: &[usize],
    ) -> TensorVal {
        if let Some((class, class_bytes, must_zero)) = self.lookup.slot(slot) {
            while let Some(mut t) = self.free[class].pop() {
                match t.reuse_for(dtype, shape) {
                    Some(grew) => {
                        if must_zero {
                            t.fill_zero();
                        }
                        if grew {
                            self.stats.miss(0);
                        } else {
                            self.stats.hit();
                        }
                        return t;
                    }
                    // dtype mismatch within the class: this buffer cannot
                    // serve the request; drop it and try the next.
                    None => {
                        self.stats.bytes_held =
                            self.stats.bytes_held.saturating_sub(class_bytes);
                    }
                }
            }
            self.stats.miss(class_bytes);
        } else {
            self.stats.miss(0);
        }
        TensorVal::zeros(dtype, shape)
    }

    /// Return a scope-exited def's buffer to its class free-list.
    pub(crate) fn put_slot(&mut self, slot: usize, t: TensorVal) {
        if let Some((class, _, _)) = self.lookup.slot(slot) {
            self.free[class].push(t);
        }
    }
}

/// Class-keyed free-lists of widened `f64` buffers for the threaded
/// engine, addressed by the `VarDef`'s [`StmtId`] (the threaded engine
/// walks the raw IR tree, so pre-order slot numbering is unavailable).
#[derive(Debug)]
pub(crate) struct ThreadedBufPool {
    plan_hash: u64,
    by_stmt: HashMap<StmtId, (usize, bool)>,
    free: Vec<Vec<Vec<f64>>>,
    pub(crate) stats: ArenaStats,
}

impl ThreadedBufPool {
    pub(crate) fn new(plan: &MemPlan) -> ThreadedBufPool {
        let by_stmt = plan
            .entries
            .iter()
            .filter_map(|e| e.class.map(|c| (e.stmt, (c, e.must_zero))))
            .collect();
        ThreadedBufPool {
            plan_hash: plan.plan_hash(),
            by_stmt,
            free: (0..plan.classes.len()).map(|_| Vec::new()).collect(),
            stats: ArenaStats::default(),
        }
    }

    pub(crate) fn plan_hash(&self) -> u64 {
        self.plan_hash
    }

    /// A zero-semantics `f64` buffer of `numel` elements for def `id`.
    /// Pooled storage skips the fill when write-before-read is proven.
    pub(crate) fn take(&mut self, id: StmtId, numel: usize) -> Vec<f64> {
        if let Some(&(class, must_zero)) = self.by_stmt.get(&id) {
            if let Some(mut v) = self.free[class].pop() {
                let grew = numel > v.capacity();
                if must_zero {
                    v.clear();
                    v.resize(numel, 0.0);
                } else {
                    v.resize(numel, 0.0);
                }
                if grew {
                    self.stats.miss(0);
                } else {
                    self.stats.hit();
                }
                return v;
            }
            self.stats.miss((numel * 8) as u64);
        } else {
            self.stats.miss(0);
        }
        vec![0.0; numel]
    }

    /// Return a scope-exited def's storage to its class free-list.
    pub(crate) fn put(&mut self, id: StmtId, v: Vec<f64>) {
        if let Some(&(class, _)) = self.by_stmt.get(&id) {
            self.free[class].push(v);
        }
    }
}

/// The flat backing allocation handed to generated C as
/// `unsigned char* __ft_arena`. Offsets inside are the plan's class
/// offsets; the base pointer is aligned to [`ARENA_ALIGN`].
#[derive(Debug)]
pub(crate) struct NativeArena {
    plan_hash: u64,
    buf: Vec<u8>,
    pad: usize,
}

impl NativeArena {
    /// An arena of `planned_peak_bytes` for the plan hashing to `plan_hash`.
    pub(crate) fn new(plan_hash: u64, planned_peak_bytes: u64) -> NativeArena {
        let buf = vec![0u8; planned_peak_bytes as usize + ARENA_ALIGN as usize];
        let pad = buf.as_ptr().align_offset(ARENA_ALIGN as usize);
        NativeArena {
            plan_hash,
            buf,
            pad,
        }
    }

    pub(crate) fn plan_hash(&self) -> u64 {
        self.plan_hash
    }

    pub(crate) fn bytes(&self) -> u64 {
        self.buf.len() as u64
    }

    pub(crate) fn ptr(&mut self) -> *mut u8 {
        // SAFETY: `pad` was computed by `align_offset` on this buffer and
        // the buffer over-allocates by ARENA_ALIGN, so the offset pointer
        // stays in bounds.
        unsafe { self.buf.as_mut_ptr().add(self.pad) }
    }
}

/// What a [`RunContext`] is committed to after its first planned run: the
/// memory-plan hash, a signature of the parameter shapes/sizes, and the
/// expected output set — the facts every later run and recycle must match.
#[derive(Debug, Clone)]
pub(crate) struct CtxBinding {
    func_name: String,
    plan_hash: u64,
    shape_sig: u64,
    /// Output/InOut parameter names with their resolved shapes, for the
    /// recycle-time signature check. `None` shape = unresolvable extent
    /// (symbolic with a missing size), which skips the shape comparison.
    outputs: Vec<(String, Option<Vec<usize>>)>,
}

/// FNV-1a signature of a run's parameter/shape binding: function name,
/// every parameter's (name, dtype, access, resolved shape) and every size
/// parameter's value. Two runs with equal signatures bind buffers of
/// identical names and byte sizes.
fn shape_sig(func: &Func, sizes: &HashMap<String, i64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(func.name.as_bytes());
    for p in &func.params {
        eat(b"|p");
        eat(p.name.as_bytes());
        eat(&[p.dtype as u8, p.atype as u8]);
        for e in &p.shape {
            match ft_analysis::eval_extent(e, sizes) {
                Some(v) => eat(&v.to_le_bytes()),
                None => eat(format!("{e:?}").as_bytes()),
            }
        }
    }
    let mut sp: Vec<&String> = func.size_params.iter().collect();
    sp.sort();
    for s in sp {
        eat(b"|s");
        eat(s.as_bytes());
        if let Some(v) = sizes.get(s) {
            eat(&v.to_le_bytes());
        }
    }
    h
}

impl CtxBinding {
    /// The binding a run of `func` at `sizes` under `plan` commits a
    /// context to.
    pub(crate) fn new(func: &Func, sizes: &HashMap<String, i64>, plan: &MemPlan) -> CtxBinding {
        CtxBinding {
            func_name: func.name.clone(),
            plan_hash: plan.plan_hash(),
            shape_sig: shape_sig(func, sizes),
            outputs: output_sig(func, sizes),
        }
    }
}

/// The bound program's output signature: every Output/InOut parameter with
/// its resolved shape.
fn output_sig(func: &Func, sizes: &HashMap<String, i64>) -> Vec<(String, Option<Vec<usize>>)> {
    func.params
        .iter()
        .filter(|p| matches!(p.atype, AccessType::Output | AccessType::InOut))
        .map(|p| {
            let shape: Option<Vec<usize>> = p
                .shape
                .iter()
                .map(|e| {
                    ft_analysis::eval_extent(e, sizes).and_then(|v| usize::try_from(v).ok())
                })
                .collect();
            (p.name.clone(), shape)
        })
        .collect()
}

/// Reusable cross-run state for [`ExecutionEngine::run_with`]
/// (`crate::engine::ExecutionEngine::run_with`): per-engine buffer pools
/// keyed by the memory-plan hash, plus named staging buffers that keep
/// converted inputs and returned outputs alive between runs.
///
/// A context is engine-agnostic — the same value may be threaded through
/// the interpreter, the VM, the threaded engine and the compiled engine;
/// each keeps its own pool slot. Feed finished results back with
/// [`recycle`](RunContext::recycle) so output buffers return to the
/// staging area instead of being dropped.
///
/// A context *binds* to the first program it runs (memory-plan hash +
/// parameter shape signature). Running it against a different program or
/// different shapes is a [`RuntimeError::ContextMismatch`], and recycling
/// a result whose outputs do not match the bound program's output set is a
/// [`RuntimeError::RecycleMismatch`] — both guard the serving path, where
/// contexts are pooled per program key and a crossed wire would seed one
/// program's staging buffers with another's. [`reset`](RunContext::reset)
/// repurposes a context intentionally. A run that fails mid-way *poisons*
/// the context (pools may have lost or half-written buffers); the next
/// `run_with` detects the poison and resets to a clean slate instead of
/// reusing suspect storage, counted as `mem.arena.poison_resets`.
#[derive(Debug, Default)]
pub struct RunContext {
    pub(crate) tensor_pool: Option<TensorPool>,
    pub(crate) vm_pool: Option<crate::bytecode::VmPool>,
    pub(crate) threaded_pool: Option<Arc<Mutex<ThreadedBufPool>>>,
    pub(crate) native_arena: Option<NativeArena>,
    pub(crate) staging: HashMap<String, TensorVal>,
    /// Staging-layer stats (pools carry their own).
    pub(crate) stats: ArenaStats,
    binding: Option<CtxBinding>,
    poisoned: bool,
}

impl RunContext {
    /// An empty context; pools materialize lazily on first planned run.
    pub fn new() -> RunContext {
        RunContext::default()
    }

    /// Hand a finished run's outputs back to the context so their buffers
    /// are reused by the next run instead of freed.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::RecycleMismatch`] when the outputs do not belong to
    /// the program this context is bound to (nothing is recycled then).
    pub fn recycle(&mut self, result: RunResult) -> Result<(), RuntimeError> {
        self.recycle_outputs(result.outputs)
    }

    /// As [`recycle`](RunContext::recycle), for a bare output map.
    ///
    /// # Errors
    ///
    /// As [`recycle`](RunContext::recycle).
    pub fn recycle_outputs(
        &mut self,
        outputs: HashMap<String, TensorVal>,
    ) -> Result<(), RuntimeError> {
        if let Some(b) = &self.binding {
            for (name, t) in &outputs {
                let expected = b.outputs.iter().find(|(n, _)| n == name);
                match expected {
                    Some((_, Some(shape))) if shape == t.shape() => {}
                    // Unresolvable declared shape: accept (the run-time
                    // binding guard already vouched for the size set).
                    Some((_, None)) => {}
                    Some((_, Some(shape))) => {
                        return Err(RuntimeError::RecycleMismatch {
                            bound_func: b.func_name.clone(),
                            output: name.clone(),
                            expected_shape: Some(shape.clone()),
                            actual_shape: t.shape().to_vec(),
                        });
                    }
                    None => {
                        return Err(RuntimeError::RecycleMismatch {
                            bound_func: b.func_name.clone(),
                            output: name.clone(),
                            expected_shape: None,
                            actual_shape: t.shape().to_vec(),
                        });
                    }
                }
            }
        }
        for (name, t) in outputs {
            self.stats.bytes_held += t.size_bytes() as u64;
            self.staging.insert(name, t);
        }
        self.stats.bytes_peak = self.stats.bytes_peak.max(self.stats.bytes_held);
        Ok(())
    }

    /// Drop all pooled storage, staging buffers, and the program binding,
    /// returning the context to its freshly-constructed state (stats
    /// survive — they are observability, not state).
    pub fn reset(&mut self) {
        self.tensor_pool = None;
        self.vm_pool = None;
        self.threaded_pool = None;
        self.native_arena = None;
        self.staging.clear();
        self.stats.bytes_held = 0;
        self.binding = None;
        self.poisoned = false;
    }

    /// Mark the context suspect: a run using it failed mid-way, so pooled
    /// buffers may be lost or half-written. The next `run_with` resets it
    /// to a clean slate before reuse.
    pub fn poison(&mut self) {
        self.poisoned = true;
    }

    /// Whether the context is awaiting a poison reset.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The function name this context is bound to, if any.
    pub fn bound_func(&self) -> Option<&str> {
        self.binding.as_ref().map(|b| b.func_name.as_str())
    }

    /// Poison the context for errors that indict the run, not the binding
    /// handshake (a `ContextMismatch` leaves the context perfectly good
    /// for its own program).
    pub(crate) fn poison_on(&mut self, e: &RuntimeError) {
        if !matches!(e, RuntimeError::ContextMismatch { .. }) {
            self.poison();
        }
    }

    /// Admission check run by every engine before drawing on the context:
    /// heal a poisoned context (full reset, counted), then bind to
    /// `(func, sizes, plan)` or verify the existing binding matches.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ContextMismatch`] when bound to a different
    /// program/plan/shape set.
    pub(crate) fn ensure_bound(
        &mut self,
        func: &Func,
        sizes: &HashMap<String, i64>,
        plan: &MemPlan,
    ) -> Result<(), RuntimeError> {
        self.bind(&CtxBinding::new(func, sizes, plan))
    }

    /// [`ensure_bound`](RunContext::ensure_bound) against a precomputed
    /// binding. Checking an existing binding compares two hashes and
    /// allocates nothing.
    pub(crate) fn bind(&mut self, want: &CtxBinding) -> Result<(), RuntimeError> {
        if self.poisoned {
            self.reset();
            self.stats.poison_resets += 1;
        }
        match &self.binding {
            None => {
                self.binding = Some(want.clone());
                Ok(())
            }
            Some(b) if b.plan_hash == want.plan_hash && b.shape_sig == want.shape_sig => Ok(()),
            Some(b) => Err(RuntimeError::ContextMismatch {
                bound_func: b.func_name.clone(),
                bound_plan_hash: b.plan_hash,
                requested_func: want.func_name.clone(),
                requested_plan_hash: want.plan_hash,
            }),
        }
    }

    /// A fresh context already bound to `binding`.
    pub(crate) fn bound_to(binding: &CtxBinding) -> RunContext {
        RunContext {
            binding: Some(binding.clone()),
            ..RunContext::default()
        }
    }

    /// The interpreter's pool for `plan`, rebuilt when the plan hash
    /// changed since the previous run.
    pub(crate) fn tensor_pool_for(&mut self, plan: &MemPlan) -> &mut TensorPool {
        let hash = plan.plan_hash();
        if self.tensor_pool.as_ref().is_none_or(|p| p.plan_hash() != hash) {
            self.tensor_pool = Some(TensorPool::new(plan));
        }
        self.tensor_pool.as_mut().expect("just filled")
    }

    /// The threaded engine's pool for `plan`, rebuilt on plan change.
    pub(crate) fn threaded_pool_for(&mut self, plan: &MemPlan) -> Arc<Mutex<ThreadedBufPool>> {
        let hash = plan.plan_hash();
        if self
            .threaded_pool
            .as_ref()
            .is_none_or(|p| p.lock().plan_hash() != hash)
        {
            self.threaded_pool = Some(Arc::new(Mutex::new(ThreadedBufPool::new(plan))));
        }
        self.threaded_pool.as_ref().expect("just filled").clone()
    }

    /// The compiled engine's flat arena of `planned_peak_bytes` for the
    /// plan hashing to `plan_hash`, rebuilt on plan change. Counts a fresh
    /// allocation (vs a reuse hit) in the staging stats.
    pub(crate) fn native_arena_for(
        &mut self,
        plan_hash: u64,
        planned_peak_bytes: u64,
    ) -> &mut NativeArena {
        match &self.native_arena {
            Some(a) if a.plan_hash() == plan_hash => self.stats.hit(),
            prev => {
                let freed = prev.as_ref().map_or(0, NativeArena::bytes);
                self.stats.bytes_held = self.stats.bytes_held.saturating_sub(freed);
                let a = NativeArena::new(plan_hash, planned_peak_bytes);
                self.stats.miss(a.bytes());
                self.native_arena = Some(a);
            }
        }
        self.native_arena.as_mut().expect("just filled")
    }

    /// A staged owned buffer named `name`, retargeted at `(dtype, shape)`.
    /// Zero-fills on reuse when `zeroed` (fresh allocations are already
    /// zeroed). A staging hit with matching dtype performs no heap
    /// allocation.
    pub(crate) fn staged_zeros(
        &mut self,
        name: &str,
        dtype: DataType,
        shape: &[usize],
        zeroed: bool,
    ) -> TensorVal {
        if let Some(mut t) = self.staging.remove(name) {
            self.stats.bytes_held = self.stats.bytes_held.saturating_sub(t.size_bytes() as u64);
            if let Some(grew) = t.reuse_for(dtype, shape) {
                if zeroed {
                    t.fill_zero();
                }
                if grew {
                    self.stats.miss(0);
                } else {
                    self.stats.hit();
                }
                return t;
            }
        }
        self.stats.miss((shape.iter().product::<usize>() * dtype.size_bytes()) as u64);
        TensorVal::zeros(dtype, shape)
    }

    /// A staged owned copy of `src` named `name` (used for dtype-converted
    /// or in/out params). Reuses the staged buffer when dtypes match.
    pub(crate) fn staged_copy(&mut self, name: &str, src: &TensorVal) -> TensorVal {
        if let Some(mut t) = self.staging.remove(name) {
            self.stats.bytes_held = self.stats.bytes_held.saturating_sub(t.size_bytes() as u64);
            if let Some(grew) = t.copy_from(src) {
                if grew {
                    self.stats.miss(0);
                } else {
                    self.stats.hit();
                }
                return t;
            }
        }
        self.stats.miss(src.size_bytes() as u64);
        src.clone()
    }
}
