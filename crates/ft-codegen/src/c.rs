//! C99 + OpenMP emission for CPU schedules.

use ft_ir::visit::{walk_expr, walk_stmt, Visitor};
use ft_ir::{
    AccessType, BinaryOp, DataType, Expr, Func, MemType, ReduceOp, Stmt, StmtKind, UnaryOp,
};
use std::collections::{HashMap, HashSet};
use std::fmt::{self, Write as _};

/// Static preamble: headers and the tiny support library every generated
/// translation unit relies on.
pub const PREAMBLE: &str = r#"#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <stdbool.h>
#include <math.h>

static inline int64_t ft_fdiv(int64_t a, int64_t b) {
    int64_t q = a / b, r = a % b;
    return (r != 0 && ((r < 0) != (b < 0))) ? q - 1 : q;
}
static inline int64_t ft_fmod(int64_t a, int64_t b) {
    int64_t r = a % b;
    return (r != 0 && ((r < 0) != (b < 0))) ? r + b : r;
}
static inline double ft_sigmoid(double x) { return 1.0 / (1.0 + exp(-x)); }
static inline void ft_lib_matmul(const float* restrict A, const float* restrict B,
                                 float* restrict C, int64_t m, int64_t k, int64_t n) {
    for (int64_t i = 0; i < m; ++i)
        for (int64_t p = 0; p < k; ++p)
            for (int64_t j = 0; j < n; ++j)
                C[i * n + j] += A[i * k + p] * B[p * n + j];
}
"#;

/// Extra headers a *profiled* translation unit needs (`clock_gettime`).
/// Appended to [`PREAMBLE`] by [`emit_c_profiled`] only, so the unprofiled
/// source — and therefore its artifact-cache key — is byte-identical to
/// what [`emit_c`] always produced.
pub const PROF_PREAMBLE: &str = "#include <time.h>\n";

/// The OpenMP queries a unit with privatized reductions calls, with
/// one-thread stand-ins for serial (non-`-fopenmp`) builds. Appended to
/// [`PREAMBLE`] only by units that privatize, so every other unit is
/// byte-identical to one emitted without privatization support.
pub const OMP_PREAMBLE: &str = "#ifdef _OPENMP
#include <omp.h>
#else
static inline int omp_get_max_threads(void) { return 1; }
static inline int omp_get_thread_num(void) { return 0; }
static inline int omp_get_num_threads(void) { return 1; }
#endif
";

fn ctype(dt: DataType) -> &'static str {
    match dt {
        DataType::F32 => "float",
        DataType::F64 => "double",
        DataType::I32 => "int32_t",
        DataType::I64 => "int64_t",
        DataType::Bool => "bool",
    }
}

/// Coarse C-side type of an expression (for operator selection).
#[derive(Debug, Clone, Copy, PartialEq)]
enum CTy {
    Int,
    Float,
    Bool,
}

/// C identifiers every generated translation unit already uses (the
/// preamble's support library) plus the C99 keywords — IR names must never
/// mangle onto these.
#[rustfmt::skip]
const RESERVED: &[&str] = &[
    "ft_fdiv", "ft_fmod", "ft_sigmoid", "ft_lib_matmul", "ft_entry", "ft_max_threads",
    "__ft_prof", "__ft_t0", "__ft_t1", "__ft_arena", "__ft_arena_len", "__ft_arena_base",
    "__ft_arena_owned", "__ft_t", "__ft_k", "__ft_s", "__ft_tid", "omp_get_max_threads",
    "omp_get_thread_num", "omp_get_num_threads", "auto", "break", "case", "char",
    "const", "continue", "default", "do", "double", "else", "enum", "extern", "float", "for",
    "goto", "if", "inline", "int", "long", "register", "restrict", "return", "short", "signed",
    "sizeof", "static", "struct", "switch", "typedef", "union", "unsigned", "void", "volatile",
    "while", "bool", "true", "false", "int32_t", "int64_t", "main",
];

/// Scope-aware mapping from IR names to *distinct* C identifiers.
///
/// `sanitize` alone maps every non-alphanumeric character to `_`, so
/// distinct IR names like `x.y` and `x_y` collapse onto one C identifier
/// and silently shadow each other (the same bug class as the
/// `{var}.cache` def collision fixed in the schedule layer). The mangler
/// keeps a used-set per translation unit and disambiguates collisions with
/// a numeric suffix, while a scope stack resolves IR shadowing (nested
/// `VarDef`s reusing a name) to whichever binding is innermost.
#[derive(Debug, Default)]
pub struct Mangler {
    used: HashSet<String>,
    scopes: HashMap<String, Vec<String>>,
}

impl Mangler {
    /// A mangler with the preamble's support identifiers and C keywords
    /// pre-reserved.
    pub fn new() -> Mangler {
        Mangler {
            used: RESERVED.iter().map(|s| s.to_string()).collect(),
            scopes: HashMap::new(),
        }
    }

    /// Bind an IR name in the current scope, returning its unique C
    /// identifier (stable for the lifetime of the translation unit).
    pub fn bind(&mut self, name: &str) -> String {
        let ident = self.fresh(&sanitize(name));
        self.scopes
            .entry(name.to_string())
            .or_default()
            .push(ident.clone());
        ident
    }

    /// Reserve a unique identifier for an emitter temporary that no IR name
    /// refers to (so, unlike [`Mangler::bind`], it shadows nothing).
    fn fresh(&mut self, base: &str) -> String {
        let mut ident = base.to_string();
        let mut n = 1usize;
        while self.used.contains(&ident) {
            n += 1;
            ident = format!("{base}_{n}");
        }
        self.used.insert(ident.clone());
        ident
    }

    /// Leave the innermost binding of `name` (its identifier stays
    /// reserved, so a later re-binding of a colliding name cannot reuse it).
    pub fn unbind(&mut self, name: &str) {
        if let Some(stack) = self.scopes.get_mut(name) {
            stack.pop();
        }
    }

    /// The C identifier of the innermost binding of `name`. Falls back to
    /// plain sanitization for names never bound (callers emitting
    /// references to externally-declared identifiers).
    pub fn resolve(&self, name: &str) -> String {
        self.scopes
            .get(name)
            .and_then(|v| v.last().cloned())
            .unwrap_or_else(|| sanitize(name))
    }
}

/// The C identifiers a generated translation unit exposes at its ABI
/// boundary, in declaration order — what a driver needs to call the emitted
/// function (or wrap it in a `main`/`dlsym` entry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CSymbols {
    /// Identifier of the emitted function.
    pub func: String,
    /// One identifier per tensor parameter, in declaration order.
    pub params: Vec<String>,
    /// One identifier per size parameter, in declaration order.
    pub size_params: Vec<String>,
}

/// The ABI identifiers [`emit_c`] will choose for `func` — computed by the
/// same mangler in the same order, so drivers stay in sync with the emitted
/// signature even when parameter names collide after sanitization.
pub fn c_symbols(func: &Func) -> CSymbols {
    let mut m = Mangler::new();
    bind_signature(&mut m, func)
}

/// Bind the function name and parameters in signature order (shared between
/// [`emit_c`] and [`c_symbols`] so both sides of the ABI agree).
fn bind_signature(m: &mut Mangler, func: &Func) -> CSymbols {
    CSymbols {
        func: m.bind(&func.name),
        params: func.params.iter().map(|p| m.bind(&p.name)).collect(),
        size_params: func.size_params.iter().map(|sp| m.bind(sp)).collect(),
    }
}

/// One per-loop-nest timing slot in a profiled translation unit.
///
/// Slot `k` of the `uint64_t *__ft_prof` array passed to the profiled
/// function accumulates the wall nanoseconds spent in this outermost loop
/// nest. `stmt`/`desc` use the same identity and label scheme as the
/// interpreter's profile nodes (`for {iter}` with the For's [`ft_ir::StmtId`]),
/// so compiled attribution is directly comparable to interpreted attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfSite {
    /// Stable id of the profiled (outermost) For statement.
    pub stmt: ft_ir::StmtId,
    /// Interpreter-compatible label, e.g. `for i`.
    pub desc: String,
}

/// Arena placement of one planned `VarDef`, precomputed from a
/// [`ft_analysis::MemPlan`] and consumed by the emitter in def pre-order.
#[derive(Debug, Clone)]
struct ArenaSlot {
    /// IR name of the def this slot was planned for; a mismatch (emitter
    /// and planner walking different trees) falls back to `calloc`.
    name: String,
    /// Byte offset inside the arena.
    offset: u64,
    /// Class size in bytes — the `memset` extent when zeroing is required.
    bytes: u64,
    /// Whether liveness failed to prove write-before-read, so the buffer
    /// must be zero-filled on (re-)entry.
    must_zero: bool,
}

/// Largest per-thread partial footprint a parallel loop may privatize; a
/// loop whose float reduction targets need more runs serially instead.
/// Longformer's gradient, the largest benchmark program, privatizes
/// 256 KiB per thread at full shapes.
pub const PRIVATE_BYTES_CAP: u64 = 1 << 20;

/// How the emitter lowered the float reductions one OpenMP loop carries.
///
/// Float `+`/`*`/`min`/`max` accumulated through `omp atomic` land in a
/// different order on every run, so no float reduction shared by a
/// parallel loop is ever lowered to an atomic: it is either privatized
/// (thread 0 reduces into the target, every other thread into its own
/// partial slice, iterations split by `schedule(static)`, slices merged in
/// ascending thread order after the region; see [`PartialPlacement`]) or
/// the loop runs serially. Either way the same program, inputs and thread count
/// give bit-identical output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReduceDecision {
    /// The loop, labelled like [`ProfSite::desc`] (`for i`).
    pub desc: String,
    /// What the emitter did with it.
    pub lowering: ReduceLowering,
}

/// See [`ReduceDecision`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReduceLowering {
    /// Per-thread partials for these targets, in first-reduced order.
    Privatize(Vec<String>),
    /// The loop runs serially: `reason` is `target_read_in_loop` (the loop
    /// also loads, stores or library-calls `target`), `mixed_reduce_ops`,
    /// `symbolic_extent` (the target's size is not a constant) or
    /// `private_bytes_over_cap` ([`PRIVATE_BYTES_CAP`]).
    Serialize {
        reason: &'static str,
        target: String,
    },
}

impl fmt::Display for ReduceDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.lowering {
            ReduceLowering::Privatize(vars) => {
                write!(f, "{}: privatize {}", self.desc, vars.join(", "))
            }
            ReduceLowering::Serialize { reason, target } => {
                write!(f, "{}: serialize {reason} ({target})", self.desc)
            }
        }
    }
}

/// How the emitter passed one OpenMP loop body, outlined into a static
/// function, the tensors it touches.
///
/// Every tensor defined outside the body is a pointer parameter, qualified
/// `restrict` (no other parameter of the call reaches the same bytes)
/// unless its arena slot overlaps another passed tensor's; every free
/// iterator or size variable is an `int64_t` parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutlineDecision {
    /// The loop, labelled like [`ProfSite::desc`] (`for i`).
    pub desc: String,
    /// Tensor parameters of the outlined body.
    pub tensors: usize,
    /// The tensors passed without `restrict`: their arena slots overlap.
    pub shared: Vec<String>,
}

impl fmt::Display for OutlineDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} tensors restrict", self.desc, self.tensors)?;
        if !self.shared.is_empty() {
            write!(f, " except {} (arena overlap)", self.shared.join(", "))?;
        }
        Ok(())
    }
}

/// Where a unit's privatized regions keep their per-thread partials.
///
/// Thread 0 of a region reduces into the targets themselves; every other
/// thread has a block holding its slice of every target of the region,
/// 64-byte aligned. Regions never nest, so one area of `(team - 1) ×
/// bytes_per_thread` serves every region of the unit in turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartialPlacement {
    /// In the caller's arena, after the planned defs. A region whose team
    /// needs more than the arena's length (or gets a NULL arena) `calloc`s
    /// its partials instead.
    Arena { offset: u64, bytes_per_thread: u64 },
    /// `calloc`ed on every region entry: the unit has no memory plan.
    Calloc { bytes_per_thread: u64 },
}

impl fmt::Display for PartialPlacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartialPlacement::Arena {
                offset,
                bytes_per_thread,
            } => write!(
                f,
                "arena: {bytes_per_thread} B per thread at offset {offset} \
                 (calloc if the arena is NULL or too short for the team)"
            ),
            PartialPlacement::Calloc { bytes_per_thread } => {
                write!(f, "calloc: {bytes_per_thread} B per thread, no memory plan")
            }
        }
    }
}

/// One privatized reduction target of a parallel loop.
struct Partial {
    var: String,
    dtype: DataType,
    op: ReduceOp,
    numel: u64,
    /// Byte offset of the target's slice inside a thread's block.
    offset: u64,
}

/// How a loop marked parallel is emitted.
enum Region {
    /// As a plain `for`: nested in another region, or serialized.
    Serial,
    /// `omp parallel for`: it shares no float reduction.
    Plain,
    /// `omp parallel` + `omp for schedule(static)` over per-thread partials
    /// in blocks of the given bytes.
    Private(Vec<Partial>, u64),
}

/// The emitter temporaries of an open privatized region.
struct PrivateRegion {
    /// Base of the partial area.
    base: String,
    /// The team size the region ran with.
    team: String,
    /// Set when the partials were `calloc`ed (and must be freed).
    owned: Option<String>,
    block: u64,
}

/// Round `b` up to a whole number of 64-byte lines.
fn align64(b: u64) -> u64 {
    b.div_ceil(64) * 64
}

/// What a parallel loop body does with the tensors and variables defined
/// outside it.
#[derive(Default)]
struct RegionScan {
    /// Defs opened inside the body around the current point.
    local: Vec<String>,
    /// Iterators of loops inside the body around the current point.
    bound: Vec<String>,
    /// Target, operator and atomic mark of every reduction into an outer
    /// tensor; the atomic-marked ones are those the loop (or a loop nested
    /// in it) carries.
    reduced: Vec<(String, ReduceOp, bool)>,
    /// Outer tensors the body loads, stores or passes to a library call.
    touched: HashSet<String>,
    /// Every outer tensor the body uses, in first-use order.
    tensors: Vec<String>,
    /// Every free iterator or size variable, in first-use order.
    vars: Vec<String>,
}

impl RegionScan {
    fn outer(&self, var: &str) -> bool {
        !self.local.iter().any(|l| l == var)
    }

    fn use_tensor(&mut self, var: &str) {
        if self.outer(var) && !self.tensors.iter().any(|t| t == var) {
            self.tensors.push(var.to_string());
        }
    }

    fn touch(&mut self, var: &str) {
        if self.outer(var) {
            self.touched.insert(var.to_string());
            self.use_tensor(var);
        }
    }
}

impl Visitor for RegionScan {
    fn visit_stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::VarDef {
                name, shape, body, ..
            } => {
                for e in shape {
                    self.visit_expr(e);
                }
                self.local.push(name.clone());
                self.visit_stmt(body);
                self.local.pop();
                return;
            }
            StmtKind::For {
                iter,
                begin,
                end,
                body,
                ..
            } => {
                self.visit_expr(begin);
                self.visit_expr(end);
                self.bound.push(iter.clone());
                self.visit_stmt(body);
                self.bound.pop();
                return;
            }
            StmtKind::Store { var, .. } => self.touch(var),
            StmtKind::ReduceTo {
                var, op, atomic, ..
            } if self.outer(var) => {
                self.reduced.push((var.clone(), *op, *atomic));
                self.use_tensor(var);
            }
            StmtKind::LibCall {
                inputs, outputs, ..
            } => {
                for v in inputs.iter().chain(outputs) {
                    self.touch(v);
                }
            }
            _ => {}
        }
        walk_stmt(self, s);
    }

    fn visit_expr(&mut self, e: &Expr) {
        match e {
            Expr::Load { var, .. } => self.touch(var),
            Expr::Var(n) if !self.bound.contains(n) && !self.vars.contains(n) => {
                self.vars.push(n.clone());
            }
            _ => {}
        }
        walk_expr(self, e);
    }
}

struct Emitter {
    dtypes: HashMap<String, DataType>,
    shapes: HashMap<String, Vec<Expr>>,
    names: Mangler,
    out: String,
    indent: usize,
    tmp: usize,
    /// `Some` when emitting a profiled unit: the sites allocated so far.
    prof: Option<Vec<ProfSite>>,
    /// For-nesting depth; only depth-0 loops get a profiling site.
    loop_depth: usize,
    /// Arena placements indexed by def pre-order number (the planner's
    /// `def_idx`); empty when emitting without a memory plan.
    arena: Vec<Option<ArenaSlot>>,
    /// Pre-order counter of `VarDef`s encountered so far.
    def_idx: usize,
    /// Inside an OpenMP parallel region. Defs there must stay
    /// thread-private (`calloc` per iteration) — a shared arena offset
    /// would race across the team — and loops marked parallel there run
    /// as plain `for`s (no nested regions).
    in_parallel: bool,
    /// Reduction lowering of every parallel loop that shares a float
    /// reduction, in emission order.
    reductions: Vec<ReduceDecision>,
    /// C identifier of the emitted function (outlined bodies are named
    /// after it).
    func_ident: String,
    /// C identifiers of the `Input` params, which outlined bodies take as
    /// `const` pointers.
    const_idents: HashSet<String>,
    /// Arena byte range `(offset, bytes)` of every arena-placed def, by C
    /// identifier.
    arena_ranges: HashMap<String, (u64, u64)>,
    /// The outlined loop bodies, emitted ahead of the function.
    outlined: String,
    /// How each outlined body was passed its tensors, in emission order.
    outlines: Vec<OutlineDecision>,
    /// Arena offset of the partial area: `Some` in a planned unit.
    partial_offset: Option<u64>,
    /// Largest per-thread partial block of any privatized region.
    partial_bytes: u64,
}

impl Emitter {
    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }

    fn ty(&self, e: &Expr) -> CTy {
        match e {
            Expr::IntConst(_) | Expr::Var(_) => CTy::Int,
            Expr::FloatConst(_) => CTy::Float,
            Expr::BoolConst(_) => CTy::Bool,
            Expr::Load { var, .. } => match self.dtypes.get(var) {
                Some(d) if d.is_float() => CTy::Float,
                Some(DataType::Bool) => CTy::Bool,
                _ => CTy::Int,
            },
            Expr::Unary { op, a } => match op {
                UnaryOp::Not => CTy::Bool,
                UnaryOp::Neg | UnaryOp::Abs | UnaryOp::Sign => self.ty(a),
                _ => CTy::Float,
            },
            Expr::Binary { op, a, b } => {
                if op.is_comparison() {
                    CTy::Bool
                } else if self.ty(a) == CTy::Float || self.ty(b) == CTy::Float {
                    CTy::Float
                } else {
                    CTy::Int
                }
            }
            Expr::Select { then, .. } => self.ty(then),
            Expr::Cast { dtype, .. } => {
                if dtype.is_float() {
                    CTy::Float
                } else if *dtype == DataType::Bool {
                    CTy::Bool
                } else {
                    CTy::Int
                }
            }
        }
    }

    fn index_expr(&self, var: &str, indices: &[Expr]) -> String {
        let shape = self.shapes.get(var).cloned().unwrap_or_default();
        if indices.is_empty() {
            return format!("{}[0]", self.names.resolve(var));
        }
        let mut s = String::new();
        for (d, idx) in indices.iter().enumerate() {
            if d == 0 {
                s = self.expr(idx);
            } else {
                let extent = self.expr(&shape[d]);
                s = format!("({s}) * ({extent}) + ({})", self.expr(idx));
            }
        }
        format!("{}[{s}]", self.names.resolve(var))
    }

    fn expr(&self, e: &Expr) -> String {
        match e {
            Expr::IntConst(v) => format!("{v}"),
            Expr::FloatConst(v) => {
                if *v == f64::INFINITY {
                    "INFINITY".to_string()
                } else if *v == f64::NEG_INFINITY {
                    "-INFINITY".to_string()
                } else {
                    format!("{v:?}")
                }
            }
            Expr::BoolConst(v) => format!("{v}"),
            Expr::Var(n) => self.names.resolve(n),
            Expr::Load { var, indices } => self.index_expr(var, indices),
            Expr::Unary { op, a } => {
                let x = self.expr(a);
                match op {
                    UnaryOp::Neg => format!("(-{x})"),
                    UnaryOp::Not => format!("(!{x})"),
                    UnaryOp::Abs => {
                        if self.ty(a) == CTy::Float {
                            format!("fabs({x})")
                        } else {
                            format!("llabs({x})")
                        }
                    }
                    UnaryOp::Sqrt => format!("sqrt({x})"),
                    UnaryOp::Exp => format!("exp({x})"),
                    UnaryOp::Ln => format!("log({x})"),
                    UnaryOp::Sigmoid => format!("ft_sigmoid({x})"),
                    UnaryOp::Tanh => format!("tanh({x})"),
                    UnaryOp::Sign => format!("(({x} > 0) - ({x} < 0))"),
                }
            }
            Expr::Binary { op, a, b } => {
                let x = self.expr(a);
                let y = self.expr(b);
                let float = self.ty(a) == CTy::Float || self.ty(b) == CTy::Float;
                match op {
                    BinaryOp::Add => format!("({x} + {y})"),
                    BinaryOp::Sub => format!("({x} - {y})"),
                    BinaryOp::Mul => format!("({x} * {y})"),
                    BinaryOp::Div => {
                        if float {
                            format!("({x} / {y})")
                        } else {
                            format!("ft_fdiv({x}, {y})")
                        }
                    }
                    BinaryOp::Mod => {
                        if float {
                            format!("fmod({x}, {y})")
                        } else {
                            format!("ft_fmod({x}, {y})")
                        }
                    }
                    BinaryOp::Min => {
                        if float {
                            format!("fmin({x}, {y})")
                        } else {
                            format!("(({x}) < ({y}) ? ({x}) : ({y}))")
                        }
                    }
                    BinaryOp::Max => {
                        if float {
                            format!("fmax({x}, {y})")
                        } else {
                            format!("(({x}) > ({y}) ? ({x}) : ({y}))")
                        }
                    }
                    BinaryOp::Pow => format!("pow({x}, {y})"),
                    BinaryOp::Eq => format!("({x} == {y})"),
                    BinaryOp::Ne => format!("({x} != {y})"),
                    BinaryOp::Lt => format!("({x} < {y})"),
                    BinaryOp::Le => format!("({x} <= {y})"),
                    BinaryOp::Gt => format!("({x} > {y})"),
                    BinaryOp::Ge => format!("({x} >= {y})"),
                    BinaryOp::And => format!("({x} && {y})"),
                    BinaryOp::Or => format!("({x} || {y})"),
                }
            }
            Expr::Select {
                cond,
                then,
                otherwise,
            } => format!(
                "({} ? {} : {})",
                self.expr(cond),
                self.expr(then),
                self.expr(otherwise)
            ),
            Expr::Cast { dtype, a } => format!("(({}){})", ctype(*dtype), self.expr(a)),
        }
    }

    fn numel(&self, shape: &[Expr]) -> String {
        if shape.is_empty() {
            return "1".to_string();
        }
        shape
            .iter()
            .map(|e| format!("({})", self.expr(e)))
            .collect::<Vec<_>>()
            .join(" * ")
    }

    /// Decide how a loop marked parallel is emitted (see [`ReduceDecision`]),
    /// recording the decision when it shares a float reduction.
    fn plan_region(&mut self, iter: &str, body: &Stmt) -> Region {
        if self.in_parallel {
            return Region::Serial;
        }
        let mut scan = RegionScan::default();
        scan.visit_stmt(body);
        let mut partials: Vec<Partial> = Vec::new();
        let mut serialize = None;
        for (var, op, _) in scan.reduced.iter().filter(|r| r.2) {
            let Some(&dtype) = self.dtypes.get(var).filter(|d| d.is_float()) else {
                continue; // integer atomics are deterministic
            };
            if partials.iter().any(|p| p.var == *var) {
                continue;
            }
            // Every reduction into a privatized target lands in the slice,
            // so they must all share the slice's operator.
            let (var, op) = (var.clone(), *op);
            if scan.reduced.iter().any(|r| r.0 == var && r.1 != op) {
                serialize = Some(("mixed_reduce_ops", var));
                break;
            }
            if scan.touched.contains(&var) {
                serialize = Some(("target_read_in_loop", var));
                break;
            }
            let numel = self.shapes[&var]
                .iter()
                .map(|e| ft_passes::const_fold_expr(e.clone()).as_int())
                .try_fold(1u64, |a, b| {
                    b.and_then(|v| u64::try_from(v).ok()).map(|v| a * v)
                });
            let Some(numel) = numel else {
                serialize = Some(("symbolic_extent", var));
                break;
            };
            partials.push(Partial {
                var,
                dtype,
                op,
                numel,
                offset: 0,
            });
        }
        let bytes: u64 = partials
            .iter()
            .map(|p| p.numel * p.dtype.size_bytes() as u64)
            .sum();
        if serialize.is_none() && bytes > PRIVATE_BYTES_CAP {
            let all: Vec<&str> = partials.iter().map(|p| p.var.as_str()).collect();
            serialize = Some(("private_bytes_over_cap", all.join(", ")));
        }
        let desc = format!("for {iter}");
        let (region, lowering) = match serialize {
            Some((reason, target)) => {
                (Region::Serial, ReduceLowering::Serialize { reason, target })
            }
            None if partials.is_empty() => return Region::Plain,
            None => {
                let vars = partials.iter().map(|p| p.var.clone()).collect();
                let mut block = 0;
                for p in &mut partials {
                    p.offset = block;
                    block += align64(p.numel * p.dtype.size_bytes() as u64);
                }
                (
                    Region::Private(partials, block),
                    ReduceLowering::Privatize(vars),
                )
            }
        };
        let decision = ReduceDecision { desc, lowering };
        self.line(&format!("/* {decision} */"));
        self.reductions.push(decision);
        region
    }

    /// Open a privatized region: the `omp parallel` block, in which thread
    /// 0 reduces into the targets themselves and every other thread binds
    /// the targets' IR names to its own identity-filled slices, so the
    /// body's reductions land there. The slices of threads `1..` sit in
    /// `omp_get_max_threads() - 1` blocks of `block` bytes — in the arena
    /// when it is long enough, else `calloc`ed.
    fn open_private(&mut self, partials: &[Partial], block: u64) -> PrivateRegion {
        let nthr = self.names.fresh("__ft_nthr");
        let base = self.names.fresh("__ft_part");
        let team = self.names.fresh("__ft_team");
        self.partial_bytes = self.partial_bytes.max(block);
        self.line("{");
        self.indent += 1;
        self.line(&format!("const int {nthr} = omp_get_max_threads();"));
        let alloc = format!("(unsigned char*)calloc((size_t){nthr} - 1, {block})");
        let owned = match self.partial_offset {
            Some(off) => {
                let owned = self.names.fresh("__ft_part_owned");
                self.line(&format!(
                    "const int {owned} = !__ft_arena || \
                     __ft_arena_len < {off} + (uint64_t)({nthr} - 1) * {block};"
                ));
                self.line(&format!(
                    "unsigned char* {base} = {owned} ? {alloc} : __ft_arena + {off};"
                ));
                Some(owned)
            }
            None => {
                self.line(&format!("unsigned char* {base} = {alloc};"));
                None
            }
        };
        self.line(&format!("int {team} = 1;"));
        self.line("#pragma omp parallel");
        self.line("{");
        self.indent += 1;
        self.line("const int __ft_tid = omp_get_thread_num();");
        let mut fills = Vec::new();
        for p in partials {
            let ty = ctype(p.dtype);
            let target = self.names.resolve(&p.var);
            let slice = self.names.bind(&p.var);
            // Thread 0's slice is the target, with the target's storage.
            if let Some(&r) = self.arena_ranges.get(&target) {
                self.arena_ranges.insert(slice.clone(), r);
            }
            let identity = match p.op {
                ReduceOp::Add => "0.0",
                ReduceOp::Mul => "1.0",
                ReduceOp::Min => "INFINITY",
                ReduceOp::Max => "-INFINITY",
            };
            self.line(&format!(
                "{ty}* {slice} = __ft_tid == 0 ? {target} : \
                 ({ty}*)({base} + (size_t)(__ft_tid - 1) * {block} + {});",
                p.offset
            ));
            fills.push(format!(
                "    for (size_t __ft_k = 0; __ft_k < {}; ++__ft_k) {slice}[__ft_k] = {identity};",
                p.numel
            ));
        }
        self.line("if (__ft_tid == 0) {");
        self.line(&format!("    {team} = omp_get_num_threads();"));
        self.line("} else {");
        for f in &fills {
            self.line(f);
        }
        self.line("}");
        self.line("#pragma omp for schedule(static)");
        PrivateRegion {
            base,
            team,
            owned,
            block,
        }
    }

    /// Close a privatized region: fold the slices of threads `1..` into
    /// their targets in ascending thread order, then free `calloc`ed
    /// partials.
    fn close_private(&mut self, partials: &[Partial], r: PrivateRegion) {
        self.indent -= 1;
        self.line("}");
        let PrivateRegion {
            base,
            team,
            owned,
            block,
        } = r;
        for p in partials {
            self.names.unbind(&p.var);
            let dst = self.names.resolve(&p.var);
            let ty = ctype(p.dtype);
            let merge = match p.op {
                ReduceOp::Add => format!("{dst}[__ft_k] += __ft_s[__ft_k];"),
                ReduceOp::Mul => format!("{dst}[__ft_k] *= __ft_s[__ft_k];"),
                ReduceOp::Min => format!("{dst}[__ft_k] = fmin({dst}[__ft_k], __ft_s[__ft_k]);"),
                ReduceOp::Max => format!("{dst}[__ft_k] = fmax({dst}[__ft_k], __ft_s[__ft_k]);"),
            };
            self.line(&format!("for (int __ft_t = 1; __ft_t < {team}; ++__ft_t) {{"));
            self.line(&format!(
                "    const {ty}* __ft_s = \
                 (const {ty}*)({base} + (size_t)(__ft_t - 1) * {block} + {});",
                p.offset
            ));
            self.line(&format!(
                "    for (size_t __ft_k = 0; __ft_k < {}; ++__ft_k) {merge}",
                p.numel
            ));
            self.line("}");
        }
        match owned {
            Some(owned) => self.line(&format!("if ({owned}) free({base});")),
            None => self.line(&format!("free({base});")),
        }
        self.indent -= 1;
        self.line("}");
    }

    /// Emit the body of a loop that opens an OpenMP region as a static
    /// function of its free tensors and variables (see
    /// [`OutlineDecision`]) and return the call for one iteration. `cc`
    /// inlines the single call and keeps the `restrict` qualifiers, so it
    /// may vectorize and hoist inside the region as in serial code.
    fn outline(&mut self, iter: &str, body: &Stmt) -> String {
        let mut scan = RegionScan::default();
        scan.visit_stmt(body);
        let mut vars = scan.vars;
        // Index linearization reads the extents of the passed tensors.
        for t in &scan.tensors {
            let mut extents = RegionScan::default();
            for e in self.shapes[t].iter().skip(1) {
                extents.visit_expr(e);
            }
            for v in extents.vars {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
        }
        let idents: Vec<String> = scan.tensors.iter().map(|t| self.names.resolve(t)).collect();
        let range = |i: usize| self.arena_ranges.get(&idents[i]);
        let shared: Vec<bool> = (0..idents.len())
            .map(|a| {
                (0..idents.len()).any(|b| match (range(a), range(b)) {
                    (Some(x), Some(y)) => a != b && x.0 < y.0 + y.1 && y.0 < x.0 + x.1,
                    _ => false,
                })
            })
            .collect();
        let name = self
            .names
            .fresh(&format!("{}_par{}", self.func_ident, self.outlines.len()));
        let mut params = Vec::new();
        let mut args = Vec::new();
        for ((t, ident), &shared) in scan.tensors.iter().zip(&idents).zip(&shared) {
            let c = if self.const_idents.contains(ident) {
                "const "
            } else {
                ""
            };
            let r = if shared { "" } else { " restrict" };
            params.push(format!("{c}{}*{r} {ident}", ctype(self.dtypes[t])));
            args.push(ident.clone());
        }
        for v in &vars {
            let ident = self.names.resolve(v);
            params.push(format!("int64_t {ident}"));
            args.push(ident);
        }
        if params.is_empty() {
            params.push("void".to_string());
        }
        let (out, indent) = (std::mem::take(&mut self.out), self.indent);
        self.indent = 1;
        self.stmt(body);
        let src = std::mem::replace(&mut self.out, out);
        self.indent = indent;
        let _ = write!(
            self.outlined,
            "\nstatic void {name}({}) {{\n{src}}}\n",
            params.join(", ")
        );
        self.outlines.push(OutlineDecision {
            desc: format!("for {iter}"),
            tensors: idents.len(),
            shared: scan
                .tensors
                .iter()
                .zip(&shared)
                .filter(|(_, &s)| s)
                .map(|(t, _)| t.clone())
                .collect(),
        });
        format!("{name}({});", args.join(", "))
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Empty => {}
            StmtKind::Block(v) => {
                for st in v {
                    self.stmt(st);
                }
            }
            StmtKind::VarDef {
                name,
                shape,
                dtype,
                mtype,
                body,
                ..
            } => {
                self.dtypes.insert(name.clone(), *dtype);
                self.shapes.insert(name.clone(), shape.clone());
                let ty = ctype(*dtype);
                // Extents are evaluated in the enclosing scope, before the
                // new name is bound.
                let n = self.numel(shape);
                let const_n: Option<i64> = shape
                    .iter()
                    .map(|e| ft_passes::const_fold_expr(e.clone()).as_int())
                    .try_fold(1i64, |a, b| b.map(|v| a * v));
                let slot = self.arena.get(self.def_idx).cloned().flatten();
                self.def_idx += 1;
                let ident = self.names.bind(name);
                self.line("{");
                self.indent += 1;
                let heap = match (mtype, const_n) {
                    // Small constant-extent stack defs beat any arena: no
                    // pointer chase, no shared cache lines.
                    (MemType::CpuStack, Some(n)) if n <= 4096 => {
                        self.line(&format!("{ty} {ident}[{n}] = {{0}};"));
                        false
                    }
                    _ => match slot {
                        Some(a) if a.name == *name && !self.in_parallel => {
                            self.line(&format!(
                                "{ty}* {ident} = ({ty}*)(__ft_arena_base + {});",
                                a.offset
                            ));
                            self.arena_ranges.insert(ident.clone(), (a.offset, a.bytes));
                            if a.must_zero {
                                self.line(&format!("memset({ident}, 0, {});", a.bytes));
                            }
                            false
                        }
                        _ => {
                            self.line(&format!(
                                "{ty}* {ident} = ({ty}*)calloc({n}, sizeof({ty}));"
                            ));
                            true
                        }
                    },
                };
                self.stmt(body);
                if heap {
                    self.line(&format!("free({ident});"));
                }
                self.indent -= 1;
                self.line("}");
                self.names.unbind(name);
            }
            StmtKind::For {
                iter,
                begin,
                end,
                property,
                body,
            } => {
                // Outermost loop nests in a profiled unit are bracketed with
                // clock_gettime pairs accumulating into their __ft_prof slot.
                let site = if self.loop_depth == 0 {
                    if let Some(sites) = &mut self.prof {
                        let k = sites.len();
                        sites.push(ProfSite {
                            stmt: s.id,
                            desc: format!("for {iter}"),
                        });
                        self.line("{");
                        self.indent += 1;
                        self.line("struct timespec __ft_t0, __ft_t1;");
                        self.line("clock_gettime(CLOCK_MONOTONIC, &__ft_t0);");
                        Some(k)
                    } else {
                        None
                    }
                } else {
                    None
                };
                // Bounds are evaluated in the enclosing scope (before any
                // target is rebound to its private slice); the iterator is
                // only in scope inside the loop.
                let begin = self.expr(begin);
                let end = self.expr(end);
                let region = if property.parallel.is_parallel() {
                    self.plan_region(iter, body)
                } else {
                    Region::Serial
                };
                let private = match &region {
                    Region::Serial if property.vectorize => {
                        self.line("#pragma omp simd");
                        None
                    }
                    Region::Serial => None,
                    Region::Plain => {
                        self.line("#pragma omp parallel for");
                        None
                    }
                    Region::Private(partials, block) => Some(self.open_private(partials, *block)),
                };
                let i = self.names.bind(iter);
                self.line(&format!("for (int64_t {i} = {begin}; {i} < {end}; ++{i}) {{"));
                self.indent += 1;
                self.loop_depth += 1;
                if matches!(region, Region::Serial) {
                    self.stmt(body);
                } else {
                    self.in_parallel = true;
                    let call = self.outline(iter, body);
                    self.line(&call);
                    self.in_parallel = false;
                }
                self.loop_depth -= 1;
                self.indent -= 1;
                self.line("}");
                self.names.unbind(iter);
                if let (Region::Private(partials, _), Some(r)) = (&region, private) {
                    self.close_private(partials, r);
                }
                if let Some(k) = site {
                    self.line("clock_gettime(CLOCK_MONOTONIC, &__ft_t1);");
                    self.line(&format!(
                        "if (__ft_prof) __ft_prof[{k}] += \
                         (uint64_t)(__ft_t1.tv_sec - __ft_t0.tv_sec) * 1000000000u \
                         + (uint64_t)__ft_t1.tv_nsec - (uint64_t)__ft_t0.tv_nsec;"
                    ));
                    self.indent -= 1;
                    self.line("}");
                }
            }
            StmtKind::If {
                cond,
                then,
                otherwise,
            } => {
                self.line(&format!("if ({}) {{", self.expr(cond)));
                self.indent += 1;
                self.stmt(then);
                self.indent -= 1;
                if let Some(o) = otherwise {
                    self.line("} else {");
                    self.indent += 1;
                    self.stmt(o);
                    self.indent -= 1;
                }
                self.line("}");
            }
            StmtKind::Store {
                var,
                indices,
                value,
            } => {
                let lhs = self.index_expr(var, indices);
                let rhs = self.expr(value);
                self.line(&format!("{lhs} = {rhs};"));
            }
            StmtKind::ReduceTo {
                var,
                indices,
                op,
                value,
                atomic,
            } => {
                let lhs = self.index_expr(var, indices);
                let rhs = self.expr(value);
                // Only integer reductions stay atomic: a float reduction
                // shared across a region was privatized or serialized by
                // `plan_region`, and one into a def local to the region is
                // only carried by a nested loop, which runs serially.
                let sync = *atomic
                    && self.in_parallel
                    && !self.dtypes.get(var).is_some_and(|d| d.is_float());
                match op {
                    ReduceOp::Add | ReduceOp::Mul => {
                        if sync {
                            self.line("#pragma omp atomic");
                        }
                        let o = if *op == ReduceOp::Add { "+" } else { "*" };
                        self.line(&format!("{lhs} {o}= {rhs};"));
                    }
                    ReduceOp::Min | ReduceOp::Max => {
                        if sync {
                            self.line("#pragma omp critical");
                        }
                        self.tmp += 1;
                        let raw = format!("ft_r{}", self.tmp);
                        let t = self.names.bind(&raw);
                        let f = if *op == ReduceOp::Min { "fmin" } else { "fmax" };
                        self.line("{");
                        self.indent += 1;
                        self.line(&format!("double {t} = {rhs};"));
                        self.line(&format!("{lhs} = {f}({lhs}, {t});"));
                        self.indent -= 1;
                        self.line("}");
                        self.names.unbind(&raw);
                    }
                }
            }
            StmtKind::LibCall {
                kernel,
                inputs,
                outputs,
                attrs,
            } => {
                if kernel == "matmul" {
                    self.line(&format!(
                        "ft_lib_matmul({}, {}, {}, {}, {}, {});",
                        self.names.resolve(&inputs[0]),
                        self.names.resolve(&inputs[1]),
                        self.names.resolve(&outputs[0]),
                        attrs[0],
                        attrs[1],
                        attrs[2]
                    ));
                } else {
                    self.line(&format!("/* unknown library kernel: {kernel} */"));
                }
            }
        }
    }
}

/// Make a tensor/iterator name a valid C identifier.
fn sanitize(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        s.insert(0, '_');
    }
    s
}

/// Emit a complete C translation unit (preamble + one function) for a
/// CPU-scheduled function.
pub fn emit_c(func: &Func) -> String {
    emit_unit(func, None, false).src
}

/// [`emit_c`] with everything the emitter decided on the way.
pub fn emit_c_unit(func: &Func) -> CUnit {
    emit_unit(func, None, false)
}

/// Emit a *profiled* translation unit: the function gains a trailing
/// `uint64_t *__ft_prof` parameter and every outermost loop nest is
/// bracketed with `clock_gettime(CLOCK_MONOTONIC)` pairs accumulating wall
/// nanoseconds into its slot. Passing a NULL `__ft_prof` skips recording,
/// so one profiled artifact serves both timed and untimed calls. Returns
/// the source and the site table (slot `k` ↔ `sites[k]`).
pub fn emit_c_profiled(func: &Func) -> (String, Vec<ProfSite>) {
    let unit = emit_unit(func, None, true);
    (unit.src, unit.sites)
}

/// Emit a translation unit with *planned* `VarDef` storage: the function
/// gains trailing `unsigned char* __ft_arena, uint64_t __ft_arena_len`
/// parameters (before `__ft_prof` when `profile` is set) and every def the
/// plan placed becomes a pointer at a static offset into that arena — one
/// allocation for the whole call instead of one `calloc` per def entry,
/// zero-filled via `memset` only where the plan's liveness analysis could
/// not prove write-before-read. Callers passing a NULL arena get a
/// function-local `malloc`/`free` of the planned peak, so the kernel stays
/// self-contained. Small constant-extent `CpuStack` defs keep their
/// stack-array emission; defs the plan could not size fall back to
/// `calloc` as before.
///
/// Privatized regions keep their per-thread partials in the arena after
/// the planned peak ([`PartialPlacement::Arena`]): a caller that wants
/// them there passes an arena of at least `offset + (team - 1) ×
/// bytes_per_thread` bytes. A shorter (or NULL) arena makes each region
/// `calloc` its partials; the kernel never writes past `__ft_arena_len`.
///
/// The plan must have been computed for this exact `func` (same `VarDef`
/// pre-order); a per-def name mismatch degrades that def to `calloc` rather
/// than aliasing the wrong storage.
pub fn emit_c_planned(func: &Func, plan: &ft_analysis::MemPlan, profile: bool) -> CUnit {
    emit_unit(func, Some(plan), profile)
}

/// An emitted translation unit and what the emitter decided on the way.
#[derive(Debug, Clone)]
pub struct CUnit {
    /// The C source.
    pub src: String,
    /// Profiling sites of a profiled unit (slot `k` ↔ `sites[k]`).
    pub sites: Vec<ProfSite>,
    /// The reduction lowering of each parallel loop that shares a float
    /// reduction.
    pub reductions: Vec<ReduceDecision>,
    /// How each outlined region body was passed its tensors.
    pub outlines: Vec<OutlineDecision>,
    /// Where the partials of privatized regions live; `None` when no region
    /// privatizes.
    pub partials: Option<PartialPlacement>,
}

fn emit_unit(func: &Func, plan: Option<&ft_analysis::MemPlan>, profile: bool) -> CUnit {
    let mut names = Mangler::new();
    let syms = bind_signature(&mut names, func);
    let arena: Vec<Option<ArenaSlot>> = plan.map_or_else(Vec::new, |pl| {
        let n_defs = pl.entries.iter().map(|e| e.def_idx + 1).max().unwrap_or(0);
        let mut v = vec![None; n_defs];
        for e in &pl.entries {
            if let (Some(offset), Some(bytes)) = (e.offset, e.bytes) {
                v[e.def_idx] = Some(ArenaSlot {
                    name: e.name.clone(),
                    offset,
                    bytes,
                    must_zero: e.must_zero,
                });
            }
        }
        v
    });
    let any_planned = arena.iter().any(Option::is_some);
    let const_idents = func
        .params
        .iter()
        .zip(&syms.params)
        .filter(|(p, _)| p.atype == AccessType::Input)
        .map(|(_, ident)| ident.clone())
        .collect();
    let mut em = Emitter {
        dtypes: HashMap::new(),
        shapes: HashMap::new(),
        names,
        out: String::new(),
        indent: 0,
        tmp: 0,
        prof: profile.then(Vec::new),
        loop_depth: 0,
        arena,
        def_idx: 0,
        in_parallel: false,
        reductions: Vec::new(),
        func_ident: syms.func.clone(),
        const_idents,
        arena_ranges: HashMap::new(),
        outlined: String::new(),
        outlines: Vec::new(),
        partial_offset: plan.map(|pl| align64(pl.planned_peak_bytes)),
        partial_bytes: 0,
    };
    for p in &func.params {
        em.dtypes.insert(p.name.clone(), p.dtype);
        em.shapes.insert(p.name.clone(), p.shape.clone());
    }
    let mut sig: Vec<String> = Vec::new();
    for (p, ident) in func.params.iter().zip(&syms.params) {
        let c = ctype(p.dtype);
        let qual = if p.atype == AccessType::Input {
            "const "
        } else {
            ""
        };
        sig.push(format!("{qual}{c}* restrict {ident}"));
    }
    for ident in &syms.size_params {
        sig.push(format!("int64_t {ident}"));
    }
    if plan.is_some() {
        sig.push("unsigned char* __ft_arena".to_string());
        sig.push("uint64_t __ft_arena_len".to_string());
    }
    if profile {
        sig.push("uint64_t *__ft_prof".to_string());
    }
    em.indent = 1;
    em.stmt(&func.body);
    let mut out = String::from(PREAMBLE);
    if profile {
        out.push_str(PROF_PREAMBLE);
    }
    let partials = (em.partial_bytes > 0).then_some(match em.partial_offset {
        Some(offset) => PartialPlacement::Arena {
            offset,
            bytes_per_thread: em.partial_bytes,
        },
        None => PartialPlacement::Calloc {
            bytes_per_thread: em.partial_bytes,
        },
    });
    if partials.is_some() {
        out.push_str(OMP_PREAMBLE);
    }
    out.push_str(&em.outlined);
    let _ = writeln!(out, "\nvoid {}({}) {{", syms.func, sig.join(", "));
    if any_planned {
        // A NULL arena means the caller did not preallocate: own a
        // planned-peak-sized block for the duration of the call.
        let peak = plan.map_or(0, |pl| pl.planned_peak_bytes);
        out.push_str("    unsigned char* __ft_arena_base = __ft_arena;\n");
        out.push_str("    int __ft_arena_owned = 0;\n");
        let _ = writeln!(
            out,
            "    if (!__ft_arena_base) {{ __ft_arena_base = \
             (unsigned char*)malloc({peak}); __ft_arena_owned = 1; }}"
        );
    } else if plan.is_some() && partials.is_none() {
        out.push_str("    (void)__ft_arena;\n");
    }
    if plan.is_some() && partials.is_none() {
        out.push_str("    (void)__ft_arena_len;\n");
    }
    out.push_str(&em.out);
    if any_planned {
        out.push_str("    if (__ft_arena_owned) free(__ft_arena_base);\n");
    }
    out.push_str("}\n");
    CUnit {
        src: out,
        sites: em.prof.unwrap_or_default(),
        reductions: em.reductions,
        outlines: em.outlines,
        partials,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::prelude::*;
    use ft_ir::ForProperty;

    fn sample() -> Func {
        Func::new("axpy")
            .param("x", [var("n")], DataType::F32, AccessType::Input)
            .param("y", [var("n")], DataType::F32, AccessType::InOut)
            .size_param("n")
            .body(for_with(
                "i",
                0,
                var("n"),
                ForProperty::parallel(ParallelScope::OpenMp),
                store(
                    "y",
                    [var("i")],
                    load("y", [var("i")]) + load("x", [var("i")]) * 2.0f32,
                ),
            ))
    }

    #[test]
    fn emits_signature_and_pragma() {
        let c = emit_c(&sample());
        assert!(
            c.contains("void axpy(const float* restrict x, float* restrict y, int64_t n)"),
            "{c}"
        );
        assert!(c.contains("#pragma omp parallel for"), "{c}");
        assert!(c.contains("y[i] = (y[i] + (x[i] * 2.0))"), "{c}");
        // Only units that privatize carry the OpenMP shim.
        assert!(!c.contains(OMP_PREAMBLE), "{c}");
    }

    /// `h[idx[i]] op= 1` under a parallel `i` loop (the scatter reduction
    /// `parallelize` marks atomic), with `extra` appended to the body.
    fn scatter(dtype: DataType, op: ReduceOp, h_shape: Expr, extra: Vec<Stmt>) -> Func {
        let reduce = Stmt::new(StmtKind::ReduceTo {
            var: "h".to_string(),
            indices: vec![Expr::cast(DataType::I64, load("idx", [var("i")]))],
            op,
            value: Expr::FloatConst(1.0),
            atomic: true,
        });
        Func::new("f")
            .param("h", [h_shape], dtype, AccessType::InOut)
            .param("idx", [64], DataType::I32, AccessType::Input)
            .param("y", [64], DataType::F32, AccessType::Output)
            .size_param("n")
            .body(for_with(
                "i",
                0,
                64,
                ForProperty::parallel(ParallelScope::OpenMp),
                block(std::iter::once(reduce).chain(extra)),
            ))
    }

    fn lowering(f: &Func) -> Vec<ReduceLowering> {
        emit_c_unit(f)
            .reductions
            .into_iter()
            .map(|d| d.lowering)
            .collect()
    }

    #[test]
    fn emits_locals_and_privatized_reductions() {
        // A float reduction the parallel loop carries gets a private slice
        // per thread, a static schedule and an ascending-thread-order
        // merge after the region — never an atomic.
        let f = scatter(DataType::F32, ReduceOp::Add, Expr::IntConst(4), vec![]);
        let c = emit_c(&f);
        assert!(c.contains(OMP_PREAMBLE), "{c}");
        assert!(
            c.contains("const int __ft_nthr = omp_get_max_threads();"),
            "{c}"
        );
        // One 64-byte block per thread but the first; unplanned, so
        // `calloc`ed.
        assert!(
            c.contains(
                "unsigned char* __ft_part = (unsigned char*)calloc((size_t)__ft_nthr - 1, 64);"
            ),
            "{c}"
        );
        // In the region, thread 0 reduces into `h` itself; every other
        // thread binds and identity-fills its own slice.
        let slice = "float* h_2 = __ft_tid == 0 ? h : \
                     (float*)(__ft_part + (size_t)(__ft_tid - 1) * 64 + 0);";
        let at_slice = c.find(slice).unwrap_or_else(|| panic!("no slice in:\n{c}"));
        assert!(at_slice > c.find("#pragma omp parallel\n").unwrap(), "{c}");
        assert!(
            c.contains(
                "} else {\n                \
                 for (size_t __ft_k = 0; __ft_k < 4; ++__ft_k) h_2[__ft_k] = 0.0;\n            }"
            ),
            "{c}"
        );
        assert!(c.contains("h_2[((int64_t)idx[i])] += 1.0;"), "{c}");
        assert!(c.contains("#pragma omp for schedule(static)"), "{c}");
        // Thread-major over the team that ran, so every element folds its
        // slices in thread order.
        let merge = "for (int __ft_t = 1; __ft_t < __ft_team; ++__ft_t) {\n            \
                     const float* __ft_s = \
                     (const float*)(__ft_part + (size_t)(__ft_t - 1) * 64 + 0);\n            \
                     for (size_t __ft_k = 0; __ft_k < 4; ++__ft_k) h[__ft_k] += __ft_s[__ft_k];";
        let at = c.find(merge).unwrap_or_else(|| panic!("no merge in:\n{c}"));
        assert!(
            at > c.find("f_par0(h_2, idx, i);").unwrap(),
            "merge must follow the region:\n{c}"
        );
        assert!(c.contains("free(__ft_part);"), "{c}");
        assert!(
            !c.contains("omp atomic") && !c.contains("omp critical"),
            "{c}"
        );
        assert!(!c.contains("parallel for"), "{c}");
        assert_eq!(lowering(&f), [ReduceLowering::Privatize(vec!["h".into()])]);
        // Other operators start their slices at the identity and merge with
        // the operator.
        let c = emit_c(&scatter(
            DataType::F64,
            ReduceOp::Max,
            Expr::IntConst(4),
            vec![],
        ));
        assert!(c.contains("h_2[__ft_k] = -INFINITY;"), "{c}");
        assert!(c.contains("h[__ft_k] = fmax(h[__ft_k], __ft_s[__ft_k]);"), "{c}");
        assert!(!c.contains("omp critical"), "{c}");
        // Integer atomics are deterministic and stay.
        let c = emit_c(&scatter(
            DataType::I32,
            ReduceOp::Add,
            Expr::IntConst(4),
            vec![],
        ));
        assert!(c.contains("#pragma omp parallel for"), "{c}");
        assert!(c.contains("#pragma omp atomic"), "{c}");
        let f2 = Func::new("g")
            .param("y", [8], DataType::F32, AccessType::Output)
            .body(var_def(
                "t",
                [8],
                DataType::F32,
                MemType::CpuStack,
                store("y", [0], load("t", [0])),
            ));
        let c2 = emit_c(&f2);
        assert!(c2.contains("float t[8] = {0};"), "{c2}");
    }

    #[test]
    fn float_reductions_that_cannot_privatize_serialize() {
        let serial = |f: &Func, reason: &'static str| {
            let c = emit_c(f);
            assert!(!c.contains("omp parallel"), "{c}");
            assert!(
                !c.contains("omp atomic") && !c.contains("omp critical"),
                "{c}"
            );
            assert_eq!(
                lowering(f),
                [ReduceLowering::Serialize {
                    reason,
                    target: "h".into(),
                }]
            );
            assert!(
                c.contains(&format!("/* for i: serialize {reason} (h) */")),
                "{c}"
            );
        };
        // The loop also loads the target, so partials would hide updates.
        let read = store("y", [var("i")], load("h", [0]));
        serial(
            &scatter(DataType::F32, ReduceOp::Add, Expr::IntConst(4), vec![read]),
            "target_read_in_loop",
        );
        serial(
            &scatter(DataType::F32, ReduceOp::Add, var("n"), vec![]),
            "symbolic_extent",
        );
        // An iteration-private `max=` would land in the `+=` slice.
        let max = Stmt::new(StmtKind::ReduceTo {
            var: "h".to_string(),
            indices: vec![Expr::IntConst(0)],
            op: ReduceOp::Max,
            value: load("y", [var("i")]),
            atomic: false,
        });
        serial(
            &scatter(DataType::F32, ReduceOp::Add, Expr::IntConst(4), vec![max]),
            "mixed_reduce_ops",
        );
        let over = (PRIVATE_BYTES_CAP / 4 + 1) as i64;
        serial(
            &scatter(DataType::F32, ReduceOp::Add, Expr::IntConst(over), vec![]),
            "private_bytes_over_cap",
        );
    }

    #[test]
    fn nested_parallel_loops_emit_one_region() {
        // The inner loop is marked parallel too (and carries the reduction
        // itself); it runs as a plain `for` inside the outer region, which
        // privatizes the target.
        let reduce = Stmt::new(StmtKind::ReduceTo {
            var: "h".to_string(),
            indices: vec![Expr::cast(DataType::I64, load("idx", [var("j")]))],
            op: ReduceOp::Add,
            value: load("x", [var("i")]),
            atomic: true,
        });
        let par = || ForProperty::parallel(ParallelScope::OpenMp);
        let f = Func::new("f")
            .param("h", [4], DataType::F32, AccessType::InOut)
            .param("idx", [8], DataType::I32, AccessType::Input)
            .param("x", [8], DataType::F32, AccessType::Input)
            .body(for_with(
                "i",
                0,
                8,
                par(),
                for_with("j", 0, 8, par(), reduce),
            ));
        let c = emit_c(&f);
        assert_eq!(c.matches("#pragma omp parallel").count(), 1, "{c}");
        assert!(c.contains("#pragma omp for schedule(static)"), "{c}");
        assert!(c.contains("for (int64_t j = 0; j < 8; ++j)"), "{c}");
        assert!(!c.contains("omp atomic"), "{c}");
        assert_eq!(lowering(&f), [ReduceLowering::Privatize(vec!["h".into()])]);
    }

    #[test]
    fn outlined_body_takes_free_iterators_and_sizes() {
        // A parallel `i` loop inside a serial `j` loop over a symbolic
        // extent: the body reads `j` and linearizes with `m`, so both are
        // arguments of the outlined function, next to `i`.
        let f = Func::new("f")
            .param("x", [var("n"), var("m")], DataType::F32, AccessType::Input)
            .param("y", [var("n"), var("m")], DataType::F32, AccessType::Output)
            .size_param("n")
            .size_param("m")
            .body(for_(
                "j",
                0,
                var("n"),
                for_with(
                    "i",
                    0,
                    var("m"),
                    ForProperty::parallel(ParallelScope::OpenMp),
                    store(
                        "y",
                        ft_ir::idx![var("j"), var("i")],
                        load("x", ft_ir::idx![var("j"), var("i")]),
                    ),
                ),
            ));
        let unit = emit_c_unit(&f);
        let c = &unit.src;
        assert!(
            c.contains(
                "static void f_par0(float* restrict y, const float* restrict x, \
                 int64_t j, int64_t i, int64_t m) {\n    \
                 y[(j) * (m) + (i)] = x[(j) * (m) + (i)];\n}"
            ),
            "{c}"
        );
        assert!(
            c.contains(
                "#pragma omp parallel for\n        for (int64_t i = 0; i < m; ++i) {\n            \
                 f_par0(y, x, j, i, m);\n        }"
            ),
            "{c}"
        );
        assert_eq!(unit.outlines.len(), 1);
        assert_eq!(unit.outlines[0].to_string(), "for i: 2 tensors restrict");
        cc_accepts(c, true);
    }

    #[test]
    fn privatized_body_is_called_with_the_thread_slice() {
        // Planned: the partials sit in the arena after the planned peak,
        // unless the arena is NULL or too short for the team.
        let f = scatter(DataType::F32, ReduceOp::Add, Expr::IntConst(20), vec![]);
        let plan = ft_analysis::MemPlan::plan(&f, &HashMap::new());
        assert_eq!(plan.planned_peak_bytes, 0);
        let unit = emit_c_planned(&f, &plan, false);
        let c = &unit.src;
        assert_eq!(
            unit.partials,
            Some(PartialPlacement::Arena {
                offset: 0,
                bytes_per_thread: 128
            })
        );
        assert!(
            c.contains(
                "const int __ft_part_owned = !__ft_arena || \
                 __ft_arena_len < 0 + (uint64_t)(__ft_nthr - 1) * 128;\n        \
                 unsigned char* __ft_part = __ft_part_owned ? \
                 (unsigned char*)calloc((size_t)__ft_nthr - 1, 128) : __ft_arena + 0;"
            ),
            "{c}"
        );
        assert!(c.contains("if (__ft_part_owned) free(__ft_part);"), "{c}");
        // The body reduces into its `h` parameter, which is the slice.
        assert!(
            c.contains(
                "static void f_par0(float* restrict h_2, const int32_t* restrict idx, \
                 int64_t i) {\n    h_2[((int64_t)idx[i])] += 1.0;\n}"
            ),
            "{c}"
        );
        assert!(
            c.contains(
                "#pragma omp for schedule(static)\n            \
                 for (int64_t i = 0; i < 64; ++i) {\n                f_par0(h_2, idx, i);"
            ),
            "{c}"
        );
        assert_eq!(c.matches("calloc").count(), 1, "{c}");
        if cc_accepts(c, true) {
            cc_accepts(c, false);
        }
    }

    #[test]
    fn overlapping_arena_slots_lose_restrict() {
        // `a` and `b` are both live across the parallel loop; a plan that
        // packs them onto the same bytes (built by hand here) must not
        // promise `cc` that they never alias.
        let n = 16;
        let f = Func::new("f")
            .param("x", [n], DataType::F32, AccessType::Input)
            .param("y", [n], DataType::F32, AccessType::Output)
            .body(var_def(
                "a",
                [n],
                DataType::F32,
                MemType::CpuHeap,
                var_def(
                    "b",
                    [n],
                    DataType::F32,
                    MemType::CpuHeap,
                    for_with(
                        "i",
                        0,
                        n,
                        ForProperty::parallel(ParallelScope::OpenMp),
                        block([
                            store("a", [var("i")], load("x", [var("i")])),
                            store("b", [var("i")], load("a", [var("i")])),
                            store("y", [var("i")], load("b", [var("i")])),
                        ]),
                    ),
                ),
            ));
        let mut plan = ft_analysis::MemPlan::plan(&f, &HashMap::new());
        let disjoint = emit_c_planned(&f, &plan, false);
        assert_eq!(disjoint.outlines[0].to_string(), "for i: 4 tensors restrict");
        assert!(disjoint.src.contains("float* restrict a, "), "{}", disjoint.src);
        for e in &mut plan.entries {
            e.offset = Some(0);
        }
        let unit = emit_c_planned(&f, &plan, false);
        let c = &unit.src;
        assert!(
            c.contains(
                "static void f_par0(float* a, const float* restrict x, float* b, \
                 float* restrict y, int64_t i)"
            ),
            "{c}"
        );
        assert_eq!(
            unit.outlines[0].to_string(),
            "for i: 4 tensors restrict except a, b (arena overlap)"
        );
    }

    #[test]
    fn profiled_region_is_bracketed_around_the_whole_nest() {
        // The outermost loop opens the region: its site brackets the
        // region (and the merge) in the caller, not the outlined body.
        let f = scatter(DataType::F32, ReduceOp::Add, Expr::IntConst(4), vec![]);
        let (c, sites) = emit_c_profiled(&f);
        assert_eq!(sites.len(), 1, "{sites:?}");
        assert_eq!(sites[0].desc, "for i");
        let start = c.find("clock_gettime(CLOCK_MONOTONIC, &__ft_t0);").expect("start");
        let stop = c.find("clock_gettime(CLOCK_MONOTONIC, &__ft_t1);").expect("stop");
        let region = c.find("#pragma omp parallel\n").expect("region");
        let merge = c.find("free(__ft_part);").expect("merge");
        assert!(start < region && merge < stop, "{c}");
        let body = &c[c.find("static void f_par0(").unwrap()..c.find("\nvoid f(").unwrap()];
        assert!(!body.contains("clock_gettime"), "{body}");
        cc_accepts(&c, true);
    }

    #[test]
    fn multi_dim_indexing_linearizes() {
        let f = Func::new("f")
            .param("a", [var("n"), var("m")], DataType::F64, AccessType::Output)
            .size_param("n")
            .size_param("m")
            .body(store("a", ft_ir::idx![var("n") - 1, 0], 1.0f64));
        let c = emit_c(&f);
        assert!(c.contains("a[((n - 1)) * (m) + (0)] = 1.0;"), "{c}");
    }

    #[test]
    fn names_are_sanitized() {
        let f = Func::new("f")
            .param("y", [1], DataType::F32, AccessType::Output)
            .body(var_def(
                "t.cache",
                [2],
                DataType::F32,
                MemType::CpuStack,
                store("y", [0], load("t.cache", [0])),
            ));
        let c = emit_c(&f);
        assert!(c.contains("t_cache"), "{c}");
        assert!(!c.contains("t.cache["), "{c}");
    }

    #[test]
    fn colliding_param_names_get_distinct_identifiers() {
        // `x.y` and `x_y` both sanitize to `x_y`; the mangler must keep
        // them apart and `c_symbols` must agree with the emitted signature.
        let f = Func::new("f")
            .param("x.y", [1], DataType::F32, AccessType::Input)
            .param("x_y", [1], DataType::F32, AccessType::Output)
            .body(store("x_y", [0], load("x.y", [0]) + 1.0f32));
        let syms = c_symbols(&f);
        assert_eq!(syms.params.len(), 2);
        assert_ne!(syms.params[0], syms.params[1], "{syms:?}");
        let c = emit_c(&f);
        let sig = format!(
            "void {}(const float* restrict {}, float* restrict {})",
            syms.func, syms.params[0], syms.params[1]
        );
        assert!(c.contains(&sig), "expected `{sig}` in:\n{c}");
        // The store targets the second param, the load reads the first.
        assert!(
            c.contains(&format!(
                "{}[0] = ({}[0] + 1.0);",
                syms.params[1], syms.params[0]
            )),
            "{c}"
        );
    }

    #[test]
    fn local_colliding_with_param_is_suffixed() {
        // A local IR name `t.` sanitizes to `t_`; so does a sibling `t_`
        // param — and a local literally named `t` shadows the param. Both
        // cases must produce distinct identifiers with stores still routed
        // to the right buffer.
        let f = Func::new("f")
            .param("t", [1], DataType::F32, AccessType::Output)
            .body(var_def(
                "t",
                [2],
                DataType::F32,
                MemType::CpuStack,
                store("t", [0], load("t", [1])),
            ));
        let c = emit_c(&f);
        assert!(c.contains("float t_2[2] = {0};"), "{c}");
        // Inside the VarDef, `t` resolves to the inner binding.
        assert!(c.contains("t_2[0] = t_2[1];"), "{c}");
    }

    #[test]
    fn reserved_names_are_avoided() {
        // A function literally named `main` must not clash with a driver's
        // `main`, and a param named like a preamble helper must be renamed.
        let f = Func::new("main")
            .param("ft_fdiv", [1], DataType::F32, AccessType::Output)
            .body(store("ft_fdiv", [0], 1.0f32));
        let syms = c_symbols(&f);
        assert_ne!(syms.func, "main");
        assert_ne!(syms.params[0], "ft_fdiv");
        let c = emit_c(&f);
        assert!(c.contains(&format!("void {}(", syms.func)), "{c}");
    }

    #[test]
    fn profiled_unit_brackets_outermost_loops_only() {
        // Two top-level nests, one with an inner loop: exactly two sites,
        // labelled like the interpreter's profile nodes, and the inner loop
        // is not bracketed.
        let inner = for_("j", 0, var("n"), store("y", [var("j")], 1.0f32));
        let f = Func::new("two_nests")
            .param("y", [var("n")], DataType::F32, AccessType::Output)
            .size_param("n")
            .body(Stmt::new(StmtKind::Block(vec![
                for_("i", 0, var("n"), inner),
                for_("k", 0, var("n"), store("y", [var("k")], 2.0f32)),
            ])));
        let (c, sites) = emit_c_profiled(&f);
        assert_eq!(sites.len(), 2, "{sites:?}");
        assert_eq!(sites[0].desc, "for i");
        assert_eq!(sites[1].desc, "for k");
        assert!(c.contains("uint64_t *__ft_prof"), "{c}");
        assert!(c.contains("#include <time.h>"), "{c}");
        assert!(c.contains("if (__ft_prof) __ft_prof[0] +="), "{c}");
        assert!(c.contains("if (__ft_prof) __ft_prof[1] +="), "{c}");
        assert_eq!(c.matches("clock_gettime").count(), 4, "{c}");
        // The unprofiled emission is untouched by the profiling machinery.
        let plain = emit_c(&f);
        assert!(!plain.contains("__ft_prof"), "{plain}");
        assert!(!plain.contains("clock_gettime"), "{plain}");
    }

    #[test]
    fn planned_unit_places_defs_in_the_arena() {
        // A heap-sized local (CpuHeap, so the stack path does not claim it)
        // written before read: the planned unit must address it at a static
        // arena offset with no memset, no calloc, and a NULL-arena malloc
        // fallback sized to the planned peak.
        let f = Func::new("f")
            .param("x", [var("n")], DataType::F32, AccessType::Input)
            .param("y", [var("n")], DataType::F32, AccessType::Output)
            .size_param("n")
            .body(var_def(
                "t",
                [var("n")],
                DataType::F32,
                MemType::CpuHeap,
                block([
                    for_("i", 0, var("n"), store("t", [var("i")], load("x", [var("i")]))),
                    for_("i", 0, var("n"), store("y", [var("i")], load("t", [var("i")]))),
                ]),
            ));
        let sizes = HashMap::from([("n".to_string(), 256i64)]);
        let plan = ft_analysis::MemPlan::plan(&f, &sizes);
        assert!(plan.planned_peak_bytes > 0, "{plan:?}");
        let CUnit { src: c, sites, .. } = emit_c_planned(&f, &plan, false);
        assert!(sites.is_empty());
        assert!(c.contains("unsigned char* __ft_arena"), "{c}");
        assert!(c.contains("float* t = (float*)(__ft_arena_base + 0);"), "{c}");
        assert!(!c.contains("calloc"), "{c}");
        assert!(
            c.contains(&format!("malloc({})", plan.planned_peak_bytes)),
            "{c}"
        );
        assert!(c.contains("if (__ft_arena_owned) free(__ft_arena_base);"), "{c}");
        // Write-before-read was proven, so no memset for `t`.
        assert!(!c.contains("memset(t"), "{c}");
        // The unplanned emission is byte-identical to what emit_c always
        // produced: no arena symbols anywhere.
        assert!(!emit_c(&f).contains("__ft_arena"));
    }

    /// Syntax-check `src` with the host `cc`, with or without `-fopenmp`;
    /// `false` when no `cc` is installed.
    fn cc_accepts(src: &str, openmp: bool) -> bool {
        use std::io::Write as _;
        use std::process::{Command, Stdio};
        let mut args = vec!["-fsyntax-only", "-Werror=implicit-function-declaration"];
        if openmp {
            args.push("-fopenmp");
        }
        let Ok(mut child) = Command::new("cc")
            .args(args)
            .args(["-xc", "-"])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
        else {
            eprintln!("cc unavailable; skipping compile check");
            return false;
        };
        child
            .stdin
            .as_mut()
            .expect("piped stdin")
            .write_all(src.as_bytes())
            .expect("write source");
        let out = child.wait_with_output().expect("cc runs");
        assert!(
            out.status.success(),
            "cc (openmp: {openmp}) rejected the C:\n{}\n--- source ---\n{src}",
            String::from_utf8_lossy(&out.stderr)
        );
        true
    }

    #[test]
    fn profiled_c_compiles_if_cc_available() {
        cc_accepts(&emit_c_profiled(&sample()).0, true);
    }

    #[test]
    fn generated_c_compiles_if_cc_available() {
        cc_accepts(&emit_c(&sample()), true);
    }

    #[test]
    fn privatized_c_compiles_with_and_without_openmp() {
        // The serial build relies on the preamble's omp_* shim.
        let c = emit_c(&scatter(
            DataType::F32,
            ReduceOp::Mul,
            Expr::IntConst(4),
            vec![],
        ));
        assert!(c.contains("omp_get_thread_num()"), "{c}");
        if cc_accepts(&c, true) {
            cc_accepts(&c, false);
        }
    }
}
