//! The emitted C must be accepted by the host C compiler for every
//! workload, CPU-scheduled (skipped gracefully when no `cc` is installed).

use freetensor::autodiff::{GradOptions, TapePolicy};
use freetensor::autoschedule::Target;
use freetensor::codegen::{emit_c_planned, PartialPlacement, ReduceLowering};
use freetensor::core::Program;
use freetensor::runtime::native::{CC_FLAGS, CC_FLAGS_SERIAL};
use freetensor::workloads::{gat, longformer, softras, subdivnet};
use ft_analysis::MemPlan;
use std::collections::HashMap;
use std::io::Write as _;
use std::process::{Command, Stdio};

fn compiles(source: &str) -> Result<(), String> {
    cc(&["-fsyntax-only", "-fopenmp"], source)
}

/// Run `cc` with `args` on `source` from stdin.
fn cc(args: &[&str], source: &str) -> Result<(), String> {
    let mut child = Command::new("cc")
        .args(args)
        .args(["-xc", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|_| "no-cc".to_string())?;
    child
        .stdin
        .as_mut()
        .expect("piped")
        .write_all(source.as_bytes())
        .expect("write");
    let out = child.wait_with_output().expect("cc runs");
    if out.status.success() {
        Ok(())
    } else {
        Err(String::from_utf8_lossy(&out.stderr).to_string())
    }
}

#[test]
fn emitted_c_compiles_for_all_workloads() {
    let programs = vec![
        (
            "subdivnet",
            subdivnet::program(&subdivnet::Params {
                n_faces: 16,
                in_feats: 4,
            }),
        ),
        (
            "longformer",
            longformer::program(&longformer::Params {
                seq_len: 16,
                w: 2,
                feat_len: 4,
            }),
        ),
        ("softras", softras::program(&softras::Params::small())),
        ("gat", gat::program(&gat::Params::small())),
    ];
    for (name, prog) in programs {
        let c = prog.optimize(&Target::cpu()).emit_c();
        match compiles(&c) {
            Ok(()) => {}
            Err(e) if e == "no-cc" => {
                eprintln!("cc unavailable; skipping");
                return;
            }
            Err(e) => panic!("{name}: generated C rejected:\n{e}\n--- source ---\n{c}"),
        }
    }
}

#[test]
fn cuda_emission_covers_all_workloads() {
    // No nvcc in CI: assert structural properties instead.
    for (name, cu) in [
        (
            "subdivnet",
            subdivnet::program(&subdivnet::Params {
                n_faces: 16,
                in_feats: 4,
            })
            .optimize(&Target::gpu())
            .emit_cuda(),
        ),
        (
            "gat",
            gat::program(&gat::Params::small())
                .optimize(&Target::gpu())
                .emit_cuda(),
        ),
    ] {
        assert!(cu.contains("__global__"), "{name}: no kernel:\n{cu}");
        assert!(cu.contains("<<<"), "{name}: no launch:\n{cu}");
    }
}

/// Lines of `c` that open an OpenMP parallel region inside another one
/// (the emitter indents consistently, so a region ends at the first `}` at
/// its pragma's indentation).
fn nested_regions(c: &str) -> Vec<String> {
    let lines: Vec<&str> = c.lines().collect();
    let mut nested = Vec::new();
    for (i, l) in lines.iter().enumerate() {
        if !l.trim_start().starts_with("#pragma omp parallel") {
            continue;
        }
        let close = format!("{}}}", &l[..l.len() - l.trim_start().len()]);
        for inner in lines[i + 2..].iter().take_while(|m| **m != close) {
            if inner.trim_start().starts_with("#pragma omp parallel") {
                nested.push(inner.trim().to_string());
            }
        }
    }
    nested
}

/// The outlined functions that the OpenMP loops of `c` call: every
/// `omp parallel for` / `omp for` loop body must be exactly one call.
fn outlined_calls(c: &str) -> Vec<String> {
    let lines: Vec<&str> = c.lines().map(str::trim).collect();
    let mut calls = Vec::new();
    for (i, l) in lines.iter().enumerate() {
        if !(l.starts_with("#pragma omp parallel for") || l.starts_with("#pragma omp for")) {
            continue;
        }
        let body = &lines[i + 1..i + 4];
        assert!(body[0].starts_with("for ("), "loop after `{l}`:\n{c}");
        assert_eq!(body[2], "}", "one statement in the loop after `{l}`:\n{c}");
        let name = body[1].split('(').next().unwrap_or_default();
        assert!(body[1].ends_with(");"), "a call after `{l}`, got `{}`", body[1]);
        calls.push(name.to_string());
    }
    calls
}

/// The parameter list of `static void name(...)` in `c`.
fn outlined_params(c: &str, name: &str) -> Vec<String> {
    let head = format!("static void {name}(");
    let line = c
        .lines()
        .find(|l| l.starts_with(&head))
        .unwrap_or_else(|| panic!("no `{head}` in:\n{c}"));
    let params = &line[head.len()..line.rfind(')').expect("closing paren")];
    params.split(", ").map(str::to_string).collect()
}

#[test]
fn benchmark_programs_emit_no_float_atomics_or_nested_regions() {
    // The seven benchmark programs at full shapes, built the way a user
    // builds them and planned the way the compiled engine plans them:
    // every float reduction a parallel loop shares is privatized (none
    // serializes) with its partials in the arena, none is atomic, no region
    // nests, every OpenMP loop body is one call to an outlined function
    // that takes its tensors `restrict`, and each unit compiles under
    // `-Werror` with both of the engine's flag sets.
    let sources = [
        (
            "subdivnet",
            subdivnet::source(&subdivnet::Params {
                n_faces: 1024,
                in_feats: 32,
            }),
        ),
        (
            "longformer",
            longformer::source(&longformer::Params {
                seq_len: 512,
                w: 32,
                feat_len: 64,
            }),
        ),
        ("softras", softras::source(&softras::Params::default())),
        ("gat", gat::source(&gat::Params::default())),
    ];
    let opts = GradOptions {
        policy: TapePolicy::Selective,
        ..GradOptions::default()
    };
    let mut privatized = 0;
    for (name, src) in sources {
        let fwd = Program::compile(&src, name).expect("compiles");
        let mut progs = vec![(format!("{name}-fwd"), fwd.clone())];
        if name != "gat" {
            progs.push((format!("{name}-grad"), fwd.grad(&opts).expect("grad")));
        }
        for (label, prog) in progs {
            let func = prog.optimize(&Target::cpu()).func().clone();
            let unit = emit_c_planned(&func, &MemPlan::plan(&func, &HashMap::new()), false);
            let c = &unit.src;
            assert!(!c.contains("omp atomic"), "{label}: atomic in\n{c}");
            assert!(!c.contains("omp critical"), "{label}: critical in\n{c}");
            assert_eq!(nested_regions(c), Vec::<String>::new(), "{label}:\n{c}");
            for d in &unit.reductions {
                assert!(
                    matches!(d.lowering, ReduceLowering::Privatize(_)),
                    "{label}: {d}"
                );
            }
            privatized += unit.reductions.len();
            if !unit.reductions.is_empty() {
                assert!(
                    matches!(unit.partials, Some(PartialPlacement::Arena { .. })),
                    "{label}: {:?}",
                    unit.partials
                );
            }
            // Partials are calloc'ed only when the arena cannot hold them.
            for l in c.lines().filter(|l| l.contains("calloc") && l.contains("__ft_part")) {
                assert!(l.contains("_owned ? (unsigned char*)calloc("), "{label}: {l}");
            }
            let calls = outlined_calls(c);
            assert_eq!(calls.len(), unit.outlines.len(), "{label}:\n{c}");
            assert!(!calls.is_empty(), "{label}: no OpenMP loop");
            for name in &calls {
                for p in outlined_params(c, name) {
                    assert!(
                        p.starts_with("int64_t ") || p.contains("* restrict "),
                        "{label}: `{p}` of {name}"
                    );
                }
            }
            for d in &unit.outlines {
                assert!(d.shared.is_empty(), "{label}: {d}");
            }
            for flags in [CC_FLAGS, CC_FLAGS_SERIAL] {
                let mut args: Vec<&str> = flags.split_whitespace().collect();
                args.extend(["-Werror", "-o", "/dev/null"]);
                match cc(&args, c) {
                    Ok(()) => {}
                    Err(e) if e == "no-cc" => {
                        eprintln!("cc unavailable; skipping");
                        return;
                    }
                    Err(e) => panic!("{label} ({flags}): rejected:\n{e}\n--- source ---\n{c}"),
                }
            }
        }
    }
    // One privatized loop in each gradient program.
    assert_eq!(privatized, 3);
}
