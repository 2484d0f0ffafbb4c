//! Concurrency smoke tests for the serving path (see `EXPERIMENTS.md`,
//! "Serving"): a shared [`CompiledEngine`] must be safe to hammer from
//! multiple threads, and a recycled [`RunContext`] must refuse — with a
//! structured error, not a corrupt run — to be reused across programs.
//!
//! * `four_thread_replay_is_bit_identical_to_sequential` — sampled
//!   schedule variants of two conformance workloads are executed once
//!   sequentially (the reference bits), then replayed by 4 threads at once
//!   through the *same* engine instance. Every concurrent result must be
//!   bit-identical to the sequential one: the kernel memo, artifact cache,
//!   and singleflight are shared mutable state, and this is the test that
//!   they never bleed between concurrent runs.
//! * `subdivnet_context_is_rejected_on_longformer` — the regression the
//!   serving front door exposed: a context warmed on one program being
//!   handed a different program. Must fail with
//!   [`RuntimeError::ContextMismatch`] *before* touching the arena, and
//!   [`RunContext::reset`] must make the context reusable.
//! * `server_keys_contexts_per_program` — the same two workloads served
//!   concurrently through one `ft-serve` server: per-key context pools
//!   mean no mismatch ever escapes to a client.
//! * `warm_requests_prepare_once` — prepare once, run many: 200 warm
//!   requests of one program cost exactly one prepare (the
//!   `compiled.prepare` counter), a structurally equal program in a new
//!   `Arc` reuses it, other sizes prepare anew, and the prepared
//!   executable's outputs are bit-identical to the engine's `run_with` and
//!   `run` at the default OpenMP thread count.

use ft_conformance::ops::{apply_trace, sample_trace};
use ft_conformance::Workload;
use ft_metrics::Metrics;
use freetensor::autoschedule::Target;
use freetensor::ir::prelude::*;
use freetensor::runtime::{
    cc_available, CompiledEngine, ExecutionEngine, RunContext, Runtime, RuntimeError, Scalar,
    TensorVal,
};
use freetensor::serve::{Payload, Request, ServeConfig, Server};
use freetensor::workloads::{longformer, subdivnet};
use proptest::test_runner::TestRng;
use std::collections::HashMap;
use std::sync::Arc;

/// Exact bit pattern of a run's outputs: sorted names, shapes, and every
/// element's raw bits. Two runs are "bit-identical" iff these are equal.
fn output_bits(outputs: &HashMap<String, TensorVal>) -> Vec<(String, Vec<usize>, Vec<u64>)> {
    let mut names: Vec<&String> = outputs.keys().collect();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let t = &outputs[name];
            let bits = (0..t.numel())
                .map(|i| match t.get_flat(i) {
                    Scalar::Float(f) => f.to_bits(),
                    Scalar::Int(v) => v as u64,
                    Scalar::Bool(b) => b as u64,
                })
                .collect();
            (name.clone(), t.shape().to_vec(), bits)
        })
        .collect()
}

fn fresh_cache(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ft-serve-smoke-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn four_thread_replay_is_bit_identical_to_sequential() {
    if !cc_available() {
        eprintln!("skipping: no C compiler");
        return;
    }
    // Sampled schedule variants of two workloads (seeded — deterministic).
    let mut variants = Vec::new();
    for (w, seed) in [(Workload::Subdivnet, 11u64), (Workload::Gat, 12u64)] {
        let case = w.build(seed);
        let mut rng = TestRng::from_seed_u64(seed);
        for _ in 0..3 {
            let raw = sample_trace(&mut rng, 5);
            let (func, _accepted) = apply_trace(&case.func, &raw);
            variants.push((func, case.inputs.clone()));
        }
    }

    let cache = fresh_cache("replay");
    let engine = Arc::new(CompiledEngine::with_cache_dir(&cache));
    let none: HashMap<String, i64> = HashMap::new();

    // Sequential reference pass (pays every compile through the cache).
    let reference: Vec<_> = variants
        .iter()
        .map(|(func, inputs)| {
            let r = engine.run(func, inputs, &none).expect("sequential run");
            output_bits(&r.outputs)
        })
        .collect();

    // 4 threads replay the full variant list through the same engine.
    std::thread::scope(|s| {
        for t in 0..4 {
            let engine = Arc::clone(&engine);
            let variants = &variants;
            let reference = &reference;
            let none = &none;
            s.spawn(move || {
                for (i, (func, inputs)) in variants.iter().enumerate() {
                    let r = engine
                        .run(func, inputs, none)
                        .unwrap_or_else(|e| panic!("thread {t} variant {i}: {e}"));
                    assert_eq!(
                        output_bits(&r.outputs),
                        reference[i],
                        "thread {t} variant {i} diverged from the sequential bits"
                    );
                }
            });
        }
    });
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn subdivnet_context_is_rejected_on_longformer() {
    let sub_p = subdivnet::Params {
        n_faces: 64,
        in_feats: 8,
    };
    let lf_p = longformer::Params {
        seq_len: 48,
        w: 4,
        feat_len: 8,
    };
    let sub = subdivnet::program(&sub_p);
    let lf = longformer::program(&lf_p);
    let sub_in = subdivnet::inputs(&sub_p, 7);
    let lf_in = longformer::inputs(&lf_p, 7);
    let none: HashMap<String, i64> = HashMap::new();

    let engine = Runtime::new();
    let mut ctx = RunContext::new();
    let warm = engine
        .run_with(sub.func(), &sub_in, &none, &mut ctx)
        .expect("subdivnet run");
    ctx.recycle(warm).expect("recycle subdivnet outputs");
    assert_eq!(ctx.bound_func(), Some("subdivnet"));

    // A SubdivNet-warmed context handed the Longformer program: structured
    // refusal, and the context is *not* poisoned (nothing ran).
    let err = engine
        .run_with(lf.func(), &lf_in, &none, &mut ctx)
        .expect_err("a foreign program must be rejected");
    match err {
        RuntimeError::ContextMismatch {
            bound_func,
            requested_func,
            ..
        } => {
            assert_eq!(bound_func, "subdivnet");
            assert_eq!(requested_func, "longformer");
        }
        other => panic!("expected ContextMismatch, got {other}"),
    }
    assert!(!ctx.is_poisoned());

    // reset() repurposes the same context for the new program.
    ctx.reset();
    engine
        .run_with(lf.func(), &lf_in, &none, &mut ctx)
        .expect("longformer runs in the reset context");
    assert_eq!(ctx.bound_func(), Some("longformer"));
}

#[test]
fn server_keys_contexts_per_program() {
    if !cc_available() {
        eprintln!("skipping: no C compiler");
        return;
    }
    let sub_p = subdivnet::Params {
        n_faces: 64,
        in_feats: 8,
    };
    let lf_p = longformer::Params {
        seq_len: 48,
        w: 4,
        feat_len: 8,
    };
    let sub = Arc::new(subdivnet::program(&sub_p).func().clone());
    let lf = Arc::new(longformer::program(&lf_p).func().clone());
    let sub_in = subdivnet::inputs(&sub_p, 7);
    let lf_in = longformer::inputs(&lf_p, 7);
    let none: HashMap<String, i64> = HashMap::new();

    let cache = fresh_cache("server-keys");
    let metrics = Metrics::new();
    let server = Server::new(
        ServeConfig {
            workers: 2,
            cache_dir: Some(cache.clone()),
            ..ServeConfig::default()
        },
        metrics.clone(),
    );

    // Interleave the two programs from two clients, twice around: every
    // request must succeed — contexts are pooled per program key, so a
    // SubdivNet context can never be handed the Longformer job.
    for round in 0..2 {
        let mut replies = Vec::new();
        for _ in 0..2 {
            replies.push(
                server
                    .submit("a", Request::new(sub.clone(), sub_in.clone(), none.clone()).digest())
                    .expect("submit subdivnet"),
            );
            replies.push(
                server
                    .submit("b", Request::new(lf.clone(), lf_in.clone(), none.clone()).digest())
                    .expect("submit longformer"),
            );
        }
        for (i, rx) in replies.into_iter().enumerate() {
            let resp = rx.recv().expect("reply").unwrap_or_else(|e| {
                panic!("round {round} request {i} failed: {e}");
            });
            assert!(resp.digest().is_some());
        }
    }
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("serve.ok"), 8);
    assert_eq!(snap.counter("serve.errors"), 0);
    assert_eq!(snap.counter("compiled.cache.publish"), 2, "{snap:?}");
    drop(server);
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn warm_requests_prepare_once() {
    if !cc_available() {
        eprintln!("skipping: no C compiler");
        return;
    }
    let p = subdivnet::Params {
        n_faces: 64,
        in_feats: 8,
    };
    // The CPU schedule: OpenMP loops, run at the default thread count.
    let func = Arc::new(
        subdivnet::program(&p)
            .optimize(&Target::cpu())
            .func()
            .clone(),
    );
    let inputs = subdivnet::inputs(&p, 7);
    let none: HashMap<String, i64> = HashMap::new();

    let cache = fresh_cache("prepare-once");
    let metrics = Metrics::new();
    let server = Server::new(
        ServeConfig {
            workers: 2,
            cache_dir: Some(cache.clone()),
            ..ServeConfig::default()
        },
        metrics.clone(),
    );
    let tensors = |func: &Arc<Func>| {
        let resp = server
            .call(
                "a",
                Request::new(Arc::clone(func), inputs.clone(), none.clone()),
            )
            .expect("tensor request");
        match resp.payload {
            Payload::Tensors(outs) => output_bits(&outs),
            Payload::Digest(_) => panic!("asked for tensors"),
        }
    };
    let reference = tensors(&func);
    let digest = server
        .call(
            "a",
            Request::new(Arc::clone(&func), inputs.clone(), none.clone()).digest(),
        )
        .expect("digest request")
        .digest();
    for i in 0..200 {
        if i % 8 == 0 {
            assert_eq!(tensors(&func), reference, "warm request {i}");
        } else {
            let d = server
                .call(
                    "b",
                    Request::new(Arc::clone(&func), inputs.clone(), none.clone()).digest(),
                )
                .expect("warm digest request")
                .digest();
            assert_eq!(d, digest, "warm request {i}");
        }
    }
    assert_eq!(metrics.snapshot().counter("compiled.prepare"), 1);
    // A structurally equal program in a new Arc is the same key.
    assert_eq!(tensors(&Arc::new(Func::clone(&func))), reference);
    assert_eq!(metrics.snapshot().counter("compiled.prepare"), 1);
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("serve.errors"), 0, "{snap:?}");
    drop(server);

    // The same program through the engine: the prepared executable and
    // the per-call entry points give the same bits as the server did.
    let m = Metrics::new();
    let mut engine = CompiledEngine::with_cache_dir(&cache);
    engine.set_metrics(Some(m.clone()));
    let exe = engine.prepare(&func, &none).expect("prepare");
    let mut ctx = exe.new_context();
    for _ in 0..3 {
        let r = exe.run(&mut ctx, &inputs).expect("executable run");
        assert_eq!(output_bits(&r.outputs), reference);
        ctx.recycle(r).expect("recycle");
    }
    let mut fresh = RunContext::new();
    let r = engine
        .run_with(&func, &inputs, &none, &mut fresh)
        .expect("run_with");
    assert_eq!(output_bits(&r.outputs), reference);
    let r = engine
        .run(&Func::clone(&func), &inputs, &none)
        .expect("run");
    assert_eq!(output_bits(&r.outputs), reference);
    assert_eq!(m.snapshot().counter("compiled.prepare"), 1);

    // Other sizes are another key: one more prepare.
    let f = Func::new("scale_n")
        .param("x", [var("n")], DataType::F32, AccessType::Input)
        .param("y", [var("n")], DataType::F32, AccessType::Output)
        .size_param("n")
        .body(for_(
            "i",
            0,
            var("n"),
            store("y", [var("i")], load("x", [var("i")]) * 2.0f32),
        ));
    for n in [4usize, 4, 6, 6] {
        let x = HashMap::from([("x".to_string(), TensorVal::from_f32(&[n], vec![1.0; n]))]);
        let sizes = HashMap::from([("n".to_string(), n as i64)]);
        let r = engine.run(&f, &x, &sizes).expect("sized run");
        assert_eq!(r.output("y").to_f64_vec(), vec![2.0; n]);
    }
    assert_eq!(m.snapshot().counter("compiled.prepare"), 3);
    let _ = std::fs::remove_dir_all(&cache);
}
