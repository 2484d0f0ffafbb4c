//! # ft-codegen — source emission for native backends
//!
//! FreeTensor "generates OpenMP or CUDA code from the AST and invokes
//! dedicated backend compilers like gcc or nvcc" (paper §4.3). This crate
//! reproduces the source-emission half:
//!
//! * [`c::emit_c`] — C99 with OpenMP pragmas (`parallel for`, `simd`, and
//!   `atomic` for integer reductions only — float reductions a parallel
//!   loop shares are privatized per thread or serialized, see
//!   [`c::ReduceDecision`]) for CPU schedules. The body of every loop that
//!   opens an OpenMP region is outlined into a static function taking its
//!   tensors as `restrict` pointers ([`c::OutlineDecision`]), so `cc` can
//!   vectorize and hoist inside the region. Compile-checked against the
//!   host C compiler in the test suite;
//! * [`cuda::emit_cuda`] — CUDA-flavoured source: one `__global__` kernel per
//!   outermost GPU-parallel nest plus a host launcher.
//!
//! In this repository the measured substrate is the instrumented interpreter
//! (`ft-runtime`), per the substitution rules in `DESIGN.md`; the emitters
//! exist to close the pipeline the way the paper describes and are validated
//! for syntactic well-formedness.

pub mod c;
pub mod cuda;

pub use c::{
    c_symbols, emit_c, emit_c_planned, emit_c_profiled, emit_c_unit, CSymbols, CUnit, Mangler,
    OutlineDecision, PartialPlacement, ProfSite, ReduceDecision, ReduceLowering,
};
pub use cuda::emit_cuda;

use ft_analysis::MemPlan;
use ft_ir::Func;
use ft_trace::{Span, TraceSink};

/// [`emit_c`] with a provenance span on the compile track of `sink`. The
/// span records each parallel loop's float-reduction lowering as
/// `reduce.<k>` = `for i: privatize y` or
/// `for i: serialize <reason> (<target>)` ([`c::ReduceDecision`]), each
/// outlined region body as `outline.<k>` = `for i: 6 tensors restrict`
/// ([`c::OutlineDecision`]), and where the partials of privatized regions
/// live as `partials` ([`c::PartialPlacement`]).
pub fn emit_c_traced(func: &Func, sink: Option<&TraceSink>) -> String {
    let mut span = sink.map(|s| s.span("codegen", "emit_c"));
    let unit = emit_c_unit(func);
    if let Some(sp) = span.as_mut() {
        record_unit(sp, func, &unit);
    }
    unit.src
}

/// [`emit_c_planned`] with the same span as [`emit_c_traced`].
pub fn emit_c_planned_traced(
    func: &Func,
    plan: &MemPlan,
    profile: bool,
    sink: Option<&TraceSink>,
) -> CUnit {
    let mut span = sink.map(|s| s.span("codegen", "emit_c"));
    let unit = emit_c_planned(func, plan, profile);
    if let Some(sp) = span.as_mut() {
        record_unit(sp, func, &unit);
    }
    unit
}

fn record_unit(sp: &mut Span, func: &Func, unit: &CUnit) {
    sp.arg("func", &func.name);
    sp.arg("bytes", unit.src.len());
    for (k, d) in unit.reductions.iter().enumerate() {
        sp.arg(&format!("reduce.{k}"), d);
    }
    for (k, d) in unit.outlines.iter().enumerate() {
        sp.arg(&format!("outline.{k}"), d);
    }
    if let Some(p) = &unit.partials {
        sp.arg("partials", p);
    }
}

/// [`emit_cuda`] with a provenance span on the compile track of `sink`.
pub fn emit_cuda_traced(func: &Func, sink: Option<&TraceSink>) -> String {
    let mut span = sink.map(|s| s.span("codegen", "emit_cuda"));
    let src = emit_cuda(func);
    if let Some(sp) = span.as_mut() {
        sp.arg("func", &func.name);
        sp.arg("bytes", src.len());
    }
    src
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::prelude::*;
    use ft_ir::{ForProperty, ReduceOp, Stmt, StmtKind};

    #[test]
    fn emit_c_span_records_reduction_decisions() {
        // `acc` is reduced and read in the same parallel loop: the span
        // must say the loop was serialized, and why.
        let reduce = Stmt::new(StmtKind::ReduceTo {
            var: "acc".to_string(),
            indices: vec![Expr::IntConst(0)],
            op: ReduceOp::Add,
            value: load("x", [var("i")]),
            atomic: true,
        });
        let f = Func::new("f")
            .param("x", [16], DataType::F32, AccessType::Input)
            .param("acc", [1], DataType::F32, AccessType::InOut)
            .param("y", [16], DataType::F32, AccessType::Output)
            .body(for_with(
                "i",
                0,
                16,
                ForProperty::parallel(ParallelScope::OpenMp),
                block([reduce, store("y", [var("i")], load("acc", [0]))]),
            ));
        let sink = TraceSink::new();
        emit_c_traced(&f, Some(&sink));
        let events = sink.events();
        let span = events
            .iter()
            .find(|e| e.cat == "codegen" && e.name == "emit_c")
            .expect("emit_c span");
        assert!(
            span.args
                .iter()
                .any(|(k, v)| k == "reduce.0" && v == "for i: serialize target_read_in_loop (acc)"),
            "{:?}",
            span.args
        );
    }

    #[test]
    fn emit_c_span_records_outlines_and_partial_placement() {
        // `h` is privatized: the region's body is outlined with its two
        // tensors `restrict`, and the partials go to the arena in a
        // planned unit, to `calloc` without a plan.
        let reduce = Stmt::new(StmtKind::ReduceTo {
            var: "h".to_string(),
            indices: vec![Expr::cast(DataType::I64, load("idx", [var("i")]))],
            op: ReduceOp::Add,
            value: Expr::FloatConst(1.0),
            atomic: true,
        });
        let f = Func::new("f")
            .param("h", [4], DataType::F32, AccessType::InOut)
            .param("idx", [64], DataType::I32, AccessType::Input)
            .body(for_with(
                "i",
                0,
                64,
                ForProperty::parallel(ParallelScope::OpenMp),
                reduce,
            ));
        let args = |sink: &TraceSink| {
            let events = sink.events();
            let span = events
                .iter()
                .find(|e| e.cat == "codegen" && e.name == "emit_c")
                .expect("emit_c span");
            span.args.clone()
        };
        let has = |args: &[(String, String)], k: &str, v: &str| {
            args.iter().any(|(a, b)| a == k && b == v)
        };
        let sink = TraceSink::new();
        emit_c_traced(&f, Some(&sink));
        let unplanned = args(&sink);
        assert!(has(&unplanned, "outline.0", "for i: 2 tensors restrict"), "{unplanned:?}");
        assert!(
            has(&unplanned, "partials", "calloc: 64 B per thread, no memory plan"),
            "{unplanned:?}"
        );
        let sink = TraceSink::new();
        let plan = MemPlan::plan(&f, &std::collections::HashMap::new());
        emit_c_planned_traced(&f, &plan, false, Some(&sink));
        let planned = args(&sink);
        assert!(has(&planned, "outline.0", "for i: 2 tensors restrict"), "{planned:?}");
        assert!(
            has(
                &planned,
                "partials",
                "arena: 64 B per thread at offset 0 \
                 (calloc if the arena is NULL or too short for the team)"
            ),
            "{planned:?}"
        );
        assert!(has(&planned, "reduce.0", "for i: privatize h"), "{planned:?}");
    }
}
