//! # ft-runtime — the instrumented tensor runtime
//!
//! The FreeTensor paper evaluates generated OpenMP/CUDA code on a 24-core
//! Xeon and a V100. This repository substitutes that testbed (per the
//! substitution rule documented in `DESIGN.md`) with an *instrumented
//! interpreter* over the lowered IR that measures exactly the quantities the
//! paper's analysis (Fig. 17) attributes the speedups to:
//!
//! * **kernel launches** — entries into outermost GPU-parallel loop nests;
//! * **DRAM and L2 traffic** — every heap/global access is routed through a
//!   set-associative cache simulator ([`counters::CacheSim`]);
//! * **FLOPs** — floating-point operations actually evaluated;
//! * **memory footprint** — live bytes per device, with out-of-memory errors
//!   when a device's capacity is exceeded (reproducing the OOM entries of
//!   Figs. 16(b)/18);
//! * **modeled time** — an analytic cost in cycle units where parallel loop
//!   bodies are divided by the mapped hardware width, so CPU/GPU schedules
//!   can be compared on a single-core host.
//!
//! Four execution engines are provided behind the common
//! [`ExecutionEngine`] trait: the deterministic instrumented interpreter
//! ([`Runtime::run`]) — the *specification* all others are diffed against;
//! a flat bytecode VM ([`VmRuntime`], [`bytecode`]) whose uninstrumented
//! fast mode is a wall-clock execution path and whose instrumented mode
//! reproduces the interpreter's counters bit-for-bit; a genuinely
//! thread-parallel mode ([`run_threaded`], [`ThreadedEngine`]) that
//! executes `OpenMp` loops on real threads (the persistent [`pool`]
//! workers) with mutex-protected atomic reductions, demonstrating that
//! legality-checked parallel schedules are actually data-race free; and
//! the native compiled engine ([`CompiledEngine`], [`native`]) that emits
//! C with `ft-codegen`, compiles it with the host `cc` into a
//! content-addressed shared-object cache, and calls it in-process —
//! the paper's actual execution model (§4.3).

pub mod arena;
pub mod bytecode;
pub(crate) mod compiled;
pub mod counters;
pub mod device;
pub mod engine;
pub mod error;
pub mod interp;
pub mod libkernel;
pub mod native;
pub mod pool;
pub mod process;
pub mod threaded;
pub mod value;

pub use arena::{ArenaStats, RunContext};
pub use bytecode::{run_vm, VmMode, VmRuntime};
pub use counters::{CacheGeometryError, CacheSim, PerfCounters, ScheduleScore, SCORE_REL_EPS};
pub use device::DeviceConfig;
pub use engine::{ExecutionEngine, ThreadedEngine};
pub use error::RuntimeError;
pub use interp::{RunResult, Runtime};
pub use native::{cc_available, CompiledEngine, Executable};
pub use pool::{PoolStatsSnapshot, WorkerPool};
pub use process::{output_with_timeout, TimedOutput};
pub use threaded::{run_threaded, run_threaded_traced};
pub use value::{Scalar, TensorVal};
