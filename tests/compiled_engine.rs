//! Native compiled engine integration tests.
//!
//! * `compiled_matches_interpreter_*` — pins [`CompiledEngine`] against the
//!   instrumented interpreter on all four paper workloads under sampled,
//!   legality-checked schedule traces, forward and gradient (the same
//!   differential discipline as the conformance sweep, focused on the
//!   newest backend).
//! * `warm_artifact_cache_spawns_no_compiler` — the compile-once/run-many
//!   contract: a second engine over the same artifact-cache directory must
//!   serve the kernel from disk with *zero* `cc` spawns, verified through
//!   the `compiled.cc.spawned` / `compiled.cache.{hit,miss}` metrics
//!   counters (structurally, through the METRICS.json snapshot format —
//!   the same counters `bench_check --expect-warm` gates on in CI).
//! * `gradients_are_bit_identical_across_runs_and_thread_counts` — the
//!   determinism contract of the generated C's parallel reductions: the
//!   three gradient programs at full shapes, 20 runs each through one
//!   `Executable` at 4 OpenMP threads, give the same bits every run, and
//!   agree with a 1-thread run within the gradient tolerance.

use freetensor::autodiff::{GradOptions, TapePolicy};
use freetensor::autoschedule::Target;
use freetensor::core::Program;
use freetensor::workloads::{data, longformer, softras, subdivnet, Inputs};
use ft_conformance::diff::reduction_depth;
use ft_conformance::grad::{build_grad_func, grad_run_inputs, ones_seed, GradSpec};
use ft_conformance::ops::{apply_trace, sample_trace};
use ft_conformance::{check_grad_variant, check_variant, Backend, GradTol, Workload};
use ft_metrics::{Metrics, MetricsSnapshot};
use ft_runtime::{cc_available, CompiledEngine, ExecutionEngine};
use proptest::test_runner::TestRng;
use std::collections::HashMap;
use std::process::Command;

/// Forward tolerance — same contract as `Config::default().tol`.
const TOL: f64 = 5e-4;

fn variant_seed(w: Workload, k: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in w.name().as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[test]
fn compiled_matches_interpreter_on_all_workloads_under_sampled_traces() {
    if !cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    let backends = [Backend::Interp, Backend::Compiled];
    for w in Workload::ALL {
        for k in 0..4u64 {
            let seed = variant_seed(w, k);
            let case = w.build(seed & 0xFFFF);
            let mut rng = TestRng::from_seed_u64(seed);
            let raw = sample_trace(&mut rng, 5);
            let (func, trace) = apply_trace(&case.func, &raw);
            if let Some(d) = check_variant(&case, &func, &backends, TOL) {
                panic!(
                    "{} sample {k} under trace {trace:?}: {}",
                    w.name(),
                    d.message
                );
            }
        }
    }
}

#[test]
fn compiled_grad_matches_interpreter_under_sampled_traces() {
    if !cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    let backends = [Backend::Interp, Backend::Compiled];
    let tol = GradTol::default();
    let mut checked = 0usize;
    for w in Workload::ALL {
        for k in 0..2u64 {
            let seed = variant_seed(w, 0x6AD ^ k);
            let case = w.build(seed & 0xFFFF);
            let mut rng = TestRng::from_seed_u64(seed);
            let raw = sample_trace(&mut rng, 4);
            // Outside the differentiable fragment = structured skip, same
            // as the grad conformance sweep.
            let Ok((gfunc, trace)) = build_grad_func(&case.func, &raw, &GradSpec::default())
            else {
                continue;
            };
            let seed_grad = ones_seed(&case);
            let inputs = grad_run_inputs(&case, &seed_grad);
            let oracle_grads = w.oracle_grad(&case.inputs, &seed_grad);
            if let Some(d) = check_grad_variant(&gfunc, &inputs, &oracle_grads, &backends, &tol)
            {
                panic!(
                    "{} grad sample {k} under trace {trace:?}: {}",
                    w.name(),
                    d.message
                );
            }
            checked += 1;
        }
    }
    assert!(
        checked >= 4,
        "grad differential is vacuous: only {checked} variants were differentiable"
    );
}

#[test]
fn warm_artifact_cache_spawns_no_compiler() {
    if !cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    let dir = std::env::temp_dir().join(format!("ft-warm-cache-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let case = Workload::Subdivnet.build(3);
    // Both runs are judged through the METRICS.json snapshot format — the
    // same structural path `bench_check --expect-warm` gates on in CI —
    // so this test pins the counters *and* their export.
    let frozen = |m: &Metrics| {
        MetricsSnapshot::from_json(&m.snapshot().to_json()).expect("snapshot roundtrips")
    };

    // Cold start: fresh directory, fresh engine — must compile exactly here.
    let cold_metrics = Metrics::new();
    let mut cold = CompiledEngine::with_cache_dir(&dir);
    cold.set_metrics(Some(cold_metrics.clone()));
    cold.run(&case.func, &case.inputs, &HashMap::new())
        .expect("cold run");
    let snap = frozen(&cold_metrics);
    assert!(
        snap.counter("compiled.cc.spawned") >= 1,
        "cold run never invoked cc"
    );
    assert!(
        snap.counter("compiled.cache.miss") >= 1,
        "cold run recorded no cache miss"
    );
    assert_eq!(
        snap.counter("compiled.cache.publish"),
        snap.counter("compiled.cache.miss"),
        "every miss must publish an artifact"
    );
    assert!(
        snap.gauge("compiled.cache.size_bytes") > 0,
        "published artifact cache reports zero size"
    );

    // Warm start: a *new* engine (empty in-memory memo) over the same
    // directory — the on-disk artifact must satisfy it without cc.
    let warm_metrics = Metrics::new();
    let mut warm = CompiledEngine::with_cache_dir(&dir);
    warm.set_metrics(Some(warm_metrics.clone()));
    let r = warm
        .run(&case.func, &case.inputs, &HashMap::new())
        .expect("warm run");
    let snap = frozen(&warm_metrics);
    assert_eq!(
        snap.counter("compiled.cc.spawned"),
        0,
        "warm run spawned the compiler despite a populated artifact cache"
    );
    assert!(
        snap.counter("compiled.cache.hit") >= 1,
        "warm run recorded no cache lookup"
    );
    assert_eq!(
        snap.counter("compiled.cache.miss"),
        0,
        "warm run was not a pure cache hit"
    );
    assert_eq!(
        snap.histograms
            .get("engine.compiled.run_us")
            .map_or(0, |h| h.count),
        1,
        "warm run recorded no run-wall sample"
    );
    // The disk-served kernel still computes the right answer.
    let diff = r.output(&case.oracle_output).max_abs_diff(&case.oracle);
    assert!(diff < TOL, "warm kernel diverged from oracle by {diff}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Set (to an output file path) in the child half of
/// [`gradients_are_bit_identical_across_runs_and_thread_counts`].
const DETERMINISM_CHILD: &str = "FT_DETERMINISM_CHILD";

/// The benchmark's three gradient programs at full shapes, as a user
/// builds them (`compile` → `grad` with `Selective` taping → `optimize`),
/// with seeded inputs and an output-gradient seed.
fn full_shape_gradients() -> Vec<(&'static str, Program, Inputs)> {
    let sd = subdivnet::Params {
        n_faces: 1024,
        in_feats: 32,
    };
    let lf = longformer::Params {
        seq_len: 512,
        w: 32,
        feat_len: 64,
    };
    let sr = softras::Params::default();
    let cases = [
        (
            "subdivnet",
            subdivnet::source(&sd),
            subdivnet::inputs(&sd, 7),
            "y",
            vec![sd.n_faces, sd.in_feats],
        ),
        (
            "longformer",
            longformer::source(&lf),
            longformer::inputs(&lf, 7),
            "y",
            vec![lf.seq_len, lf.feat_len],
        ),
        (
            "softras",
            softras::source(&sr),
            softras::inputs(&sr, 7),
            "img",
            vec![sr.pixels(), sr.channels],
        ),
    ];
    let opts = GradOptions {
        policy: TapePolicy::Selective,
        ..GradOptions::default()
    };
    cases
        .into_iter()
        .map(|(name, src, mut inputs, out, shape)| {
            let prog = Program::compile(&src, name)
                .expect("workload compiles")
                .grad(&opts)
                .expect("workload differentiates")
                .optimize(&Target::cpu());
            inputs.insert(format!("{out}.grad"), data::features(&shape, 0x5EED));
            (name, prog, inputs)
        })
        .collect()
}

/// Child half: run every gradient program 20 times through one prepared
/// `Executable` (and one reused context) at the inherited
/// `OMP_NUM_THREADS`, require identical bits on every run, and write the
/// outputs as `<program> <output> <f64 bits in hex>...` lines.
#[test]
fn determinism_child() {
    let Ok(path) = std::env::var(DETERMINISM_CHILD) else {
        return;
    };
    let engine = CompiledEngine::new();
    let mut lines = String::new();
    for (name, prog, inputs) in full_shape_gradients() {
        let exe = prog.prepare_compiled(&engine, &[]).expect("prepare");
        let mut ctx = exe.new_context();
        let mut first: Option<Vec<(String, Vec<u64>)>> = None;
        for run in 0..20 {
            let r = exe.run(&mut ctx, &inputs).expect("run");
            let mut outs: Vec<(String, Vec<u64>)> = r
                .outputs
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v.to_f64_vec().iter().map(|x| x.to_bits()).collect(),
                    )
                })
                .collect();
            outs.sort();
            match &first {
                None => first = Some(outs),
                Some(f) => assert!(
                    *f == outs,
                    "{name}: run {run} differs from run 0 at OMP_NUM_THREADS={:?}",
                    std::env::var("OMP_NUM_THREADS")
                ),
            }
        }
        for (out, bits) in first.expect("20 runs") {
            lines.push_str(&format!("{name} {out}"));
            for b in bits {
                lines.push_str(&format!(" {b:x}"));
            }
            lines.push('\n');
        }
    }
    std::fs::write(&path, lines).expect("write child outputs");
}

#[test]
fn gradients_are_bit_identical_across_runs_and_thread_counts() {
    if !cc_available() || std::env::var(DETERMINISM_CHILD).is_ok() {
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let at_threads = |threads: &str| -> HashMap<String, Vec<f64>> {
        let path = std::env::temp_dir().join(format!(
            "ft-determinism-{}-{threads}.txt",
            std::process::id()
        ));
        let out = Command::new(&exe)
            .args(["--exact", "determinism_child", "--test-threads=1"])
            .env(DETERMINISM_CHILD, &path)
            .env("OMP_NUM_THREADS", threads)
            .output()
            .expect("spawn child");
        assert!(
            out.status.success(),
            "child at OMP_NUM_THREADS={threads} exited with {}:\n{}{}",
            out.status,
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(&path).expect("child outputs");
        let _ = std::fs::remove_file(&path);
        text.lines()
            .map(|l| {
                let mut it = l.split(' ');
                let key = format!("{} {}", it.next().unwrap(), it.next().unwrap());
                let vals = it
                    .map(|h| f64::from_bits(u64::from_str_radix(h, 16).expect("hex bits")))
                    .collect();
                (key, vals)
            })
            .collect()
    };
    let four = at_threads("4");
    let one = at_threads("1");
    assert_eq!(four.len(), one.len());
    assert!(
        four.len() >= 6,
        "too few outputs compared: {:?}",
        four.keys()
    );
    // Across thread counts the partials are summed in a different grouping,
    // so the results may differ by rounding — within the gradient contract
    // |a - b| <= scale * (abs + rel * |b|), scale = 1 + reduction depth.
    let tol = GradTol::default();
    let depth: HashMap<&str, usize> = full_shape_gradients()
        .iter()
        .map(|(name, prog, _)| (*name, reduction_depth(prog.func())))
        .collect();
    for (key, a) in &four {
        let b = &one[key];
        assert_eq!(a.len(), b.len(), "{key}");
        let scale = (1 + depth[key.split(' ').next().unwrap()]) as f64;
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= scale * (tol.abs + tol.rel * y.abs()),
                "{key}[{i}]: {x} at 4 threads vs {y} at 1 thread"
            );
        }
    }
}
