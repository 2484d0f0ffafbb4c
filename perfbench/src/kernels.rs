//! `kernels-full`: the seven programs at full shapes, compiled during
//! set-up, then called back to back on one thread through
//! `CompiledEngine::run_with` with a reused `RunContext` and recycled
//! outputs. The kernel is most of each call, so generated-code changes
//! show here.

use crate::cases::{self, Case, Expected, Instance, Scale};
use crate::spans::{Span, Tracer};
use crate::{deadline, fresh_cache, peak_rss_mib, Opts, Phase, Workload, MAIN_TRACK};
use freetensor_core::Program;
use ft_metrics::Metrics;
use ft_runtime::{CompiledEngine, ExecutionEngine, RunContext};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::time::Instant;

/// Every program's output is checked against its reference on this
/// call and every `CHECK_EVERY`-th call after it.
const CHECK_EVERY: u64 = 16;
/// A traced run records the spans of every `TRACE_EVERY`-th call.
const TRACE_EVERY: u64 = 4;

pub struct Kernels {
    seed: u64,
    expected: Vec<Expected>,
    run_dir: PathBuf,
}

struct Prog {
    inst: Instance,
    program: Program,
    /// A clone of the set-up's engine (sharing its loaded kernels) with a
    /// metrics registry of its own, for per-program kernel time.
    engine: CompiledEngine,
    metrics: Metrics,
    ctx: RunContext,
    calls: u64,
    digests: HashSet<u64>,
}

pub struct State {
    progs: Vec<Prog>,
    cc_spawned: u64,
}

impl Kernels {
    pub fn new(o: &Opts) -> Kernels {
        let expected = cases::ALL
            .iter()
            .map(|c| c.instance(Scale::Full, o.seed).reference())
            .collect();
        Kernels {
            seed: o.seed,
            expected,
            run_dir: o.run_dir.clone(),
        }
    }
}

impl Workload for Kernels {
    type State = State;
    const WINDOWED: bool = true;

    fn setup(&self, tracer: &Tracer) -> Result<State, String> {
        let engine = CompiledEngine::with_cache_dir(fresh_cache(&self.run_dir));
        let sizes = HashMap::new();
        let mut progs = Vec::new();
        for (i, case) in cases::ALL.iter().enumerate() {
            let root = tracer.span("setup", MAIN_TRACK, i as u64, &Span::ROOT);
            let inst = case.instance(Scale::Full, self.seed);
            let program = inst.build(tracer, MAIN_TRACK, i as u64, &root)?;
            let metrics = Metrics::new();
            let mut engine = engine.clone();
            engine.set_metrics(Some(metrics.clone()));
            let mut ctx = RunContext::new();
            let first = {
                let _s = tracer.span("compiled.first_run", MAIN_TRACK, i as u64, &root);
                engine.run_with(program.func(), &inst.inputs, &sizes, &mut ctx)
            }
            .map_err(|e| format!("{}: first run: {e}", case.name))?;
            inst.check(&self.expected[i], &first.outputs)?;
            ctx.recycle(first)
                .map_err(|e| format!("{}: recycle: {e}", case.name))?;
            progs.push(Prog {
                inst,
                program,
                engine,
                metrics,
                ctx,
                calls: 1,
                digests: HashSet::new(),
            });
        }
        let cc_spawned = progs
            .iter()
            .map(|p| p.metrics.snapshot().counter("compiled.cc.spawned"))
            .sum();
        Ok(State { progs, cc_spawned })
    }

    fn programs(&self, state: &State, _tracer: &Tracer) -> Result<Vec<(Case, Program)>, String> {
        Ok(state
            .progs
            .iter()
            .map(|p| (p.inst.case, p.program.clone()))
            .collect())
    }

    fn measure(&self, state: &mut State, seconds: f64, tracer: &Tracer) -> Result<Phase, String> {
        let sizes = HashMap::new();
        let before: Vec<_> = state
            .progs
            .iter()
            .map(|p| {
                p.metrics
                    .snapshot()
                    .histograms
                    .get("engine.compiled.kernel_us")
                    .cloned()
            })
            .collect();
        let span_names: Vec<String> = cases::ALL
            .iter()
            .map(|c| format!("compiled.call.{}", c.name))
            .collect();
        let mut phase = Phase::default();
        let start = Instant::now();
        let end = deadline(seconds);
        'run: loop {
            for (i, p) in state.progs.iter_mut().enumerate() {
                let t0 = Instant::now();
                let r = {
                    let _s = tracer.sample(p.calls.is_multiple_of(TRACE_EVERY)).span(
                        span_names[i].clone(),
                        MAIN_TRACK,
                        p.calls,
                        &Span::ROOT,
                    );
                    p.engine
                        .run_with(p.program.func(), &p.inst.inputs, &sizes, &mut p.ctx)
                };
                let ns = t0.elapsed().as_nanos() as f64;
                phase.attempted += 1;
                match r {
                    Ok(res) => {
                        phase.record(i, ns, start);
                        p.digests.insert(cases::digest(&res.outputs));
                        if p.calls.is_multiple_of(CHECK_EVERY) {
                            if let Err(e) = p.inst.check(&self.expected[i], &res.outputs) {
                                eprintln!("perfbench: {e}");
                                phase.failed += 1;
                            }
                        }
                        p.ctx
                            .recycle(res)
                            .map_err(|e| format!("{}: recycle: {e}", p.inst.case.name))?;
                    }
                    Err(e) => {
                        eprintln!("perfbench: {}: {e}", p.inst.case.name);
                        phase.failed += 1;
                    }
                }
                p.calls += 1;
                if Instant::now() >= end {
                    break 'run;
                }
            }
        }
        phase.secs = start.elapsed().as_secs_f64();
        phase.peak_rss_mib = peak_rss_mib();
        phase.layers.push((
            "compiled.cc_spawned".to_string(),
            state.cc_spawned as f64 / state.progs.len() as f64,
        ));
        for (i, ((p, b), c)) in state.progs.iter().zip(before).zip(cases::ALL).enumerate() {
            let after = p
                .metrics
                .snapshot()
                .histograms
                .get("engine.compiled.kernel_us")
                .cloned();
            let d = match (after, b) {
                (Some(a), Some(b)) => a.diff(&b),
                (Some(a), None) => a,
                _ => continue,
            };
            // Call minus kernel, as means over the same calls.
            let calls: Vec<f64> = phase
                .ops
                .items()
                .iter()
                .filter(|o| o.case as usize == i)
                .map(|o| o.ms() * 1e3)
                .collect();
            let call_mean = calls.iter().sum::<f64>() / calls.len().max(1) as f64;
            phase
                .layers
                .push((format!("compiled.kernel_us.{}", c.name), d.mean()));
            phase.layers.push((
                format!("compiled.overhead_us.{}", c.name),
                call_mean - d.mean(),
            ));
            phase.layers.push((
                format!("compiled.distinct_outputs.{}", c.name),
                p.digests.len() as f64,
            ));
        }
        Ok(phase)
    }
}
