//! The seven benchmark programs: the paper's four forward programs and
//! three of their gradients, with seeded inputs and the independent
//! plain-Rust references from `ft-workloads` that every timed output is
//! checked against.

use crate::spans::{Span, Tracer};
use freetensor_core::Program;
use ft_autodiff::{GradOptions, TapePolicy};
use ft_autoschedule::Target;
use ft_runtime::TensorVal;
use ft_workloads::{data, gat, longformer, softras, subdivnet};
use std::collections::HashMap;

/// The one output tolerance: an element passes when
/// `|out - ref| <= TOL * (1 + |ref|)`.
pub const TOL: f64 = 1e-3;

/// Problem shapes. They equal the `bench` crate's `Scale` shapes, fixed
/// here so that the benchmark's inputs do not move with that crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Small,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    SubdivNet,
    Longformer,
    SoftRas,
    Gat,
}

/// One of the seven programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Case {
    pub name: &'static str,
    kind: Kind,
    grad: bool,
}

const fn case(name: &'static str, kind: Kind, grad: bool) -> Case {
    Case { name, kind, grad }
}

/// All seven programs; the four forward programs come first.
pub const ALL: [Case; 7] = [
    case("subdivnet-fwd", Kind::SubdivNet, false),
    case("longformer-fwd", Kind::Longformer, false),
    case("softras-fwd", Kind::SoftRas, false),
    case("gat-fwd", Kind::Gat, false),
    case("subdivnet-grad", Kind::SubdivNet, true),
    case("longformer-grad", Kind::Longformer, true),
    case("softras-grad", Kind::SoftRas, true),
];

/// The forward programs.
pub const FORWARD: &[Case] = ALL.split_at(4).0;

impl Case {
    pub fn by_name(name: &str) -> Option<Case> {
        ALL.into_iter().find(|c| c.name == name)
    }

    /// DSL source, entry point and inputs (with the `y.grad` seed for a
    /// gradient program), all from `seed`.
    pub fn instance(self, scale: Scale, seed: u64) -> Instance {
        let small = scale == Scale::Small;
        let (source, entry, mut inputs, out, params) = match self.kind {
            Kind::SubdivNet => {
                let p = if small {
                    subdivnet::Params {
                        n_faces: 128,
                        in_feats: 8,
                    }
                } else {
                    subdivnet::Params {
                        n_faces: 1024,
                        in_feats: 32,
                    }
                };
                let shape = [p.n_faces, p.in_feats];
                (
                    subdivnet::source(&p),
                    "subdivnet",
                    subdivnet::inputs(&p, seed),
                    "y",
                    (Params::SubdivNet(p), shape),
                )
            }
            Kind::Longformer => {
                let p = if small {
                    longformer::Params {
                        seq_len: 96,
                        w: 8,
                        feat_len: 16,
                    }
                } else {
                    longformer::Params {
                        seq_len: 512,
                        w: 32,
                        feat_len: 64,
                    }
                };
                let shape = [p.seq_len, p.feat_len];
                (
                    longformer::source(&p),
                    "longformer",
                    longformer::inputs(&p, seed),
                    "y",
                    (Params::Longformer(p), shape),
                )
            }
            Kind::SoftRas => {
                let p = if small {
                    softras::Params {
                        h: 12,
                        w: 12,
                        n_faces: 12,
                        channels: 3,
                        ..Default::default()
                    }
                } else {
                    softras::Params::default()
                };
                let shape = [p.pixels(), p.channels];
                (
                    softras::source(&p),
                    "softras",
                    softras::inputs(&p, seed),
                    "img",
                    (Params::SoftRas(p), shape),
                )
            }
            Kind::Gat => {
                let p = if small {
                    gat::Params {
                        n_nodes: 64,
                        degree: 4,
                        feat_len: 8,
                    }
                } else {
                    gat::Params::default()
                };
                let shape = [p.n_nodes, p.feat_len];
                (
                    gat::source(&p),
                    "gat",
                    gat::inputs(&p, seed),
                    "y",
                    (Params::Gat(p), shape),
                )
            }
        };
        let (params, out_shape) = params;
        if self.grad {
            inputs.insert(
                format!("{out}.grad"),
                data::features(&out_shape, seed ^ 0x5EED),
            );
        }
        Instance {
            case: self,
            source,
            entry,
            out,
            params,
            inputs,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Params {
    SubdivNet(subdivnet::Params),
    Longformer(longformer::Params),
    SoftRas(softras::Params),
    Gat(gat::Params),
}

/// A program with its inputs.
pub struct Instance {
    pub case: Case,
    pub source: String,
    entry: &'static str,
    out: &'static str,
    params: Params,
    pub inputs: HashMap<String, TensorVal>,
}

/// Reference outputs by name, from the `ft-workloads` oracles.
pub struct Expected(Vec<(String, TensorVal)>);

impl Instance {
    /// The independent reference for this instance's outputs.
    pub fn reference(&self) -> Expected {
        let ins = &self.inputs;
        let mut e: Vec<(String, TensorVal)> = if self.case.grad {
            let seed = &ins[&format!("{}.grad", self.out)];
            let grads = match self.params {
                Params::SubdivNet(p) => subdivnet::reference_grad(&p, ins, seed),
                Params::Longformer(p) => longformer::reference_grad(&p, ins, seed),
                Params::SoftRas(p) => softras::reference_grad(&p, ins, seed),
                Params::Gat(p) => gat::reference_grad(&p, ins, seed),
            };
            grads.into_iter().collect()
        } else {
            let y = match self.params {
                Params::SubdivNet(p) => subdivnet::reference(&p, ins),
                Params::Longformer(p) => longformer::reference(&p, ins),
                Params::SoftRas(p) => softras::reference(&p, ins),
                Params::Gat(p) => gat::reference(&p, ins),
            };
            vec![(self.out.to_string(), y)]
        };
        e.sort_by(|a, b| a.0.cmp(&b.0));
        Expected(e)
    }

    /// What a user does to get a runnable program: `Program::compile`,
    /// `Program::grad` with `TapePolicy::Selective` for a gradient program,
    /// then `Program::optimize(&Target::cpu())`. Each call is a span under
    /// `parent`.
    pub fn build(
        &self,
        tracer: &Tracer,
        track: u64,
        req: u64,
        parent: &Span,
    ) -> Result<Program, String> {
        let prog = {
            let _s = tracer.span("frontend.compile", track, req, parent);
            Program::compile(&self.source, self.entry)?
        };
        let prog = if self.case.grad {
            let _s = tracer.span("autodiff.grad", track, req, parent);
            let opts = GradOptions {
                policy: TapePolicy::Selective,
                ..GradOptions::default()
            };
            prog.grad(&opts).map_err(|e| format!("grad: {e}"))?
        } else {
            prog
        };
        let _s = tracer.span("autoschedule.optimize", track, req, parent);
        Ok(prog.optimize(&Target::cpu()))
    }

    /// Compare every reference output with the program's output.
    pub fn check(
        &self,
        expected: &Expected,
        outputs: &HashMap<String, TensorVal>,
    ) -> Result<(), String> {
        for (name, want) in &expected.0 {
            let got = outputs
                .get(name)
                .ok_or_else(|| format!("{}: output `{name}` missing", self.case.name))?;
            if got.shape() != want.shape() {
                return Err(format!(
                    "{}: `{name}` has shape {:?}, reference {:?}",
                    self.case.name,
                    got.shape(),
                    want.shape()
                ));
            }
            for i in 0..want.numel() {
                let (g, w) = (got.get_flat(i).as_f64(), want.get_flat(i).as_f64());
                let within = (g - w).abs() <= TOL * (1.0 + w.abs());
                if !within {
                    return Err(format!(
                        "{}: `{name}`[{i}] = {g}, reference {w} (tolerance {TOL})",
                        self.case.name
                    ));
                }
            }
        }
        Ok(())
    }
}

/// FNV-1a over the output names and element bit patterns, in name order.
pub fn digest(outputs: &HashMap<String, TensorVal>) -> u64 {
    let mut names: Vec<&String> = outputs.keys().collect();
    names.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for name in names {
        name.bytes().for_each(|b| eat(u64::from(b)));
        let t = &outputs[name];
        match t.f32_data() {
            Some(xs) => xs.iter().for_each(|x| eat(u64::from(x.to_bits()))),
            None => (0..t.numel()).for_each(|i| eat(t.get_flat(i).as_f64().to_bits())),
        }
    }
    h
}
