//! `serve-warm`: an `ft_serve::Server` with one worker per core and the
//! four forward programs at small shapes, warmed during set-up. Closed-loop
//! client threads (at most one per core) each pick the next program from a
//! seeded draw and wait for its reply. Every 8th request of a client asks
//! for tensors, which are checked against the reference; the rest ask for
//! a digest, compared with the key's set-up digest. The kernel is a small
//! part of a request here, so per-request overhead shows.

use crate::cases::{self, Case, Expected, Instance, Scale};
use crate::spans::{Span, Tracer};
use crate::stats::{quantile, Reservoir, Rng};
use crate::{deadline, fresh_cache, peak_rss_mib, Opts, Phase, Workload, SAMPLE_CAP};
use freetensor_core::Program;
use ft_ir::Func;
use ft_metrics::Metrics;
use ft_serve::{Payload, Request, ServeConfig, Server};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Every `TENSOR_EVERY`-th request of a client returns tensors.
const TENSOR_EVERY: u64 = 8;
/// Closed-loop clients, capped at the core count.
const CLIENTS: usize = 2;
/// A traced run records the spans of every `TRACE_EVERY`-th request.
const TRACE_EVERY: u64 = 32;

pub struct Serve {
    seed: u64,
    expected: Vec<Expected>,
    run_dir: PathBuf,
    /// Measurement windows so far; each draws from its own stream.
    phases: AtomicU64,
}

struct Prog {
    inst: Instance,
    program: Program,
    func: Arc<Func>,
    /// The digest of the key's set-up run.
    digest: u64,
}

pub struct State {
    server: Server,
    progs: Vec<Prog>,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Serve {
    pub fn new(o: &Opts) -> Serve {
        let expected = cases::FORWARD
            .iter()
            .map(|c| c.instance(Scale::Small, o.seed).reference())
            .collect();
        Serve {
            seed: o.seed,
            expected,
            run_dir: o.run_dir.clone(),
            phases: AtomicU64::new(0),
        }
    }
}

/// What one client thread saw.
struct Client {
    phase: Phase,
    mismatches: u64,
    /// `Response::queue_us` and `exec_us` of a sample of the responses.
    timing: Reservoir<(u32, u32)>,
    digests: Vec<HashSet<u64>>,
}

impl Workload for Serve {
    type State = State;
    const WINDOWED: bool = true;

    fn setup(&self, tracer: &Tracer) -> Result<State, String> {
        let cfg = ServeConfig {
            workers: nproc(),
            cache_dir: Some(fresh_cache(&self.run_dir)),
            ..ServeConfig::default()
        };
        let server = Server::new(cfg, Metrics::new());
        let mut progs = Vec::new();
        for (i, case) in cases::FORWARD.iter().enumerate() {
            let root = tracer.span("setup", crate::MAIN_TRACK, i as u64, &Span::ROOT);
            let inst = case.instance(Scale::Small, self.seed);
            let program = inst.build(tracer, crate::MAIN_TRACK, i as u64, &root)?;
            let func = Arc::new(program.func().clone());
            let first = {
                let _s = tracer.span("compiled.first_run", crate::MAIN_TRACK, i as u64, &root);
                server.call(
                    "setup",
                    Request::new(Arc::clone(&func), inst.inputs.clone(), HashMap::new()),
                )
            }
            .map_err(|e| format!("{}: first request: {e}", case.name))?;
            match &first.payload {
                Payload::Tensors(t) => inst.check(&self.expected[i], t)?,
                Payload::Digest(_) => {
                    return Err("tensor request answered with a digest".to_string())
                }
            }
            let digest = server
                .call(
                    "setup",
                    Request::new(Arc::clone(&func), inst.inputs.clone(), HashMap::new()).digest(),
                )
                .map_err(|e| format!("{}: digest request: {e}", case.name))?
                .digest()
                .ok_or("digest request answered with tensors")?;
            progs.push(Prog {
                inst,
                program,
                func,
                digest,
            });
        }
        Ok(State { server, progs })
    }

    fn programs(&self, state: &State, _tracer: &Tracer) -> Result<Vec<(Case, Program)>, String> {
        Ok(state
            .progs
            .iter()
            .map(|p| (p.inst.case, p.program.clone()))
            .collect())
    }

    fn measure(&self, state: &mut State, seconds: f64, tracer: &Tracer) -> Result<Phase, String> {
        let phase_no = self.phases.fetch_add(1, Ordering::Relaxed);
        let clients = CLIENTS.min(nproc());
        let before = state.server.metrics().snapshot();
        let start = Instant::now();
        let end = deadline(seconds);
        let state = &*state;
        let outs: Vec<Client> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let rng = Rng::new(
                        self.seed ^ (phase_no << 32) ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9),
                    );
                    s.spawn(move || self.client(state, c, rng, (start, end), tracer))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let secs = start.elapsed().as_secs_f64();
        let delta = state.server.metrics().snapshot().diff(&before);

        let mut phase = Phase {
            secs,
            peak_rss_mib: peak_rss_mib(),
            ..Phase::default()
        };
        let (mut queue, mut exec, mut mismatches) = (Vec::new(), Vec::new(), 0);
        let mut digests: Vec<HashSet<u64>> = state
            .progs
            .iter()
            .map(|p| HashSet::from([p.digest]))
            .collect();
        for c in outs {
            phase.merge(c.phase);
            mismatches += c.mismatches;
            queue.extend(c.timing.items().iter().map(|t| f64::from(t.0)));
            exec.extend(c.timing.items().iter().map(|t| f64::from(t.1)));
            for (all, mine) in digests.iter_mut().zip(c.digests) {
                all.extend(mine);
            }
        }
        let hits = delta.counter("compiled.cache.hit") as f64;
        let misses = delta.counter("compiled.cache.miss") as f64;
        let requests = phase.attempted.max(1) as f64;
        let l = &mut phase.layers;
        let latency_us: Vec<f64> = phase.ops.items().iter().map(|o| o.ms() * 1e3).collect();
        l.push(("serve.latency_us.p99".into(), quantile(&latency_us, 0.99)));
        l.push(("serve.queue_us.p50".into(), quantile(&queue, 0.5)));
        l.push(("serve.queue_us.p99".into(), quantile(&queue, 0.99)));
        l.push(("serve.exec_us.p50".into(), quantile(&exec, 0.5)));
        l.push(("serve.exec_us.p99".into(), quantile(&exec, 0.99)));
        l.push((
            "serve.cache_hit_rate".into(),
            hits / (hits + misses).max(1.0),
        ));
        l.push((
            "serve.warm_alloc_calls".into(),
            delta.counter("mem.arena.alloc_calls") as f64 / requests,
        ));
        l.push(("serve.digest_mismatch".into(), mismatches as f64));
        l.push((
            "compiled.cc_spawned".into(),
            state
                .server
                .metrics()
                .snapshot()
                .counter("compiled.cc.spawned") as f64
                / state.progs.len() as f64,
        ));
        for (p, d) in state.progs.iter().zip(&digests) {
            l.push((
                format!("compiled.distinct_outputs.{}", p.inst.case.name),
                d.len() as f64,
            ));
        }
        Ok(phase)
    }
}

impl Serve {
    fn client(
        &self,
        state: &State,
        c: usize,
        mut rng: Rng,
        (start, end): (Instant, Instant),
        tracer: &Tracer,
    ) -> Client {
        let name = format!("client-{c}");
        let track = 10 + c as u64;
        let mut out = Client {
            phase: Phase::default(),
            mismatches: 0,
            timing: Reservoir::new(SAMPLE_CAP, c as u64),
            digests: vec![HashSet::new(); state.progs.len()],
        };
        let mut k: u64 = 0;
        while Instant::now() < end {
            k += 1;
            let i = rng.below(state.progs.len());
            let p = &state.progs[i];
            let tensors = k.is_multiple_of(TENSOR_EVERY);
            let mut req = Request::new(Arc::clone(&p.func), p.inst.inputs.clone(), HashMap::new());
            if !tensors {
                req = req.digest();
            }
            let tracer = tracer.sample(k.is_multiple_of(TRACE_EVERY));
            let t0 = Instant::now();
            let resp = {
                let root = tracer.span("serve.request", track, k, &Span::ROOT);
                let rx = {
                    let _s = tracer.span("serve.submit", track, k, &root);
                    state.server.submit(&name, req)
                };
                let _s = tracer.span("serve.wait", track, k, &root);
                rx.map_err(|e| e.to_string())
                    .and_then(|rx| rx.recv().map_err(|e| e.to_string()))
                    .and_then(|r| r.map_err(|e| e.to_string()))
            };
            let ns = t0.elapsed().as_nanos() as f64;
            out.phase.attempted += 1;
            match resp {
                Ok(r) => {
                    out.phase.record(i, ns, start);
                    out.timing.push((
                        r.queue_us.try_into().unwrap_or(u32::MAX),
                        r.exec_us.try_into().unwrap_or(u32::MAX),
                    ));
                    match &r.payload {
                        Payload::Tensors(t) => {
                            if let Err(e) = p.inst.check(&self.expected[i], t) {
                                eprintln!("perfbench: {e}");
                                out.phase.failed += 1;
                            }
                        }
                        Payload::Digest(d) => {
                            out.digests[i].insert(*d);
                            if *d != p.digest {
                                out.mismatches += 1;
                            }
                        }
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: {}: {e}", p.inst.case.name);
                    out.phase.failed += 1;
                }
            }
        }
        out
    }
}
