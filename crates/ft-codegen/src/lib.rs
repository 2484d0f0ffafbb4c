//! # ft-codegen — source emission for native backends
//!
//! FreeTensor "generates OpenMP or CUDA code from the AST and invokes
//! dedicated backend compilers like gcc or nvcc" (paper §4.3). This crate
//! reproduces the source-emission half:
//!
//! * [`c::emit_c`] — C99 with OpenMP pragmas (`parallel for`, `simd`, and
//!   `atomic` for integer reductions only — float reductions a parallel
//!   loop shares are privatized per thread or serialized, see
//!   [`c::ReduceDecision`]) for CPU schedules; compile-checked against the
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
    c_symbols, emit_c, emit_c_planned, emit_c_profiled, emit_c_with_decisions, CSymbols, Mangler,
    ProfSite, ReduceDecision, ReduceLowering,
};
pub use cuda::emit_cuda;

use ft_ir::Func;
use ft_trace::TraceSink;

/// [`emit_c`] with a provenance span on the compile track of `sink`. The
/// span also records each parallel loop's float-reduction lowering as
/// `reduce.<k>` = `for i: privatize y` or
/// `for i: serialize <reason> (<target>)` ([`c::ReduceDecision`]).
pub fn emit_c_traced(func: &Func, sink: Option<&TraceSink>) -> String {
    let mut span = sink.map(|s| s.span("codegen", "emit_c"));
    let (src, reductions) = c::emit_c_with_decisions(func);
    if let Some(sp) = span.as_mut() {
        sp.arg("func", &func.name);
        sp.arg("bytes", src.len());
        for (k, d) in reductions.iter().enumerate() {
            sp.arg(&format!("reduce.{k}"), d);
        }
    }
    src
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
}
