//! The emitted C must be accepted by the host C compiler for every
//! workload, CPU-scheduled (skipped gracefully when no `cc` is installed).

use freetensor::autodiff::{GradOptions, TapePolicy};
use freetensor::autoschedule::Target;
use freetensor::codegen::{emit_c_with_decisions, ReduceLowering};
use freetensor::core::Program;
use freetensor::workloads::{gat, longformer, softras, subdivnet};
use std::io::Write as _;
use std::process::{Command, Stdio};

fn compiles(source: &str) -> Result<(), String> {
    let mut child = Command::new("cc")
        .args(["-fsyntax-only", "-fopenmp", "-xc", "-"])
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

#[test]
fn benchmark_programs_emit_no_float_atomics_or_nested_regions() {
    // The seven benchmark programs at full shapes, built the way a user
    // builds them: every float reduction a parallel loop shares is
    // privatized (none serializes), none is atomic, and no region nests.
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
            let (c, decisions) = emit_c_with_decisions(prog.optimize(&Target::cpu()).func());
            assert!(!c.contains("omp atomic"), "{label}: atomic in\n{c}");
            assert!(!c.contains("omp critical"), "{label}: critical in\n{c}");
            assert_eq!(nested_regions(&c), Vec::<String>::new(), "{label}:\n{c}");
            for d in &decisions {
                assert!(
                    matches!(d.lowering, ReduceLowering::Privatize(_)),
                    "{label}: {d}"
                );
            }
            privatized += decisions.len();
        }
    }
    // One privatized loop in each gradient program.
    assert_eq!(privatized, 3);
}
