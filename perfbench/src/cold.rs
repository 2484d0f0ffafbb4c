//! `cold-start`: every sample is a fresh child process with a fresh
//! artifact cache. The child takes one program at small shapes from DSL
//! source through `compile` → `grad` → `optimize` → its first `run_with`
//! (MemPlan, emit, `cc`, `dlopen`, kernel), checks the result against the
//! reference, reports, and returns from `main` like any program. Children
//! run one at a time, in a seeded order; nothing is reused between them.

use crate::cases::{self, Case, Scale};
use crate::spans::{Foreign, Span, Tracer};
use crate::stats::Rng;
use crate::{deadline, fresh_cache, Opts, Phase, Workload, MAIN_TRACK};
use freetensor_core::Program;
use ft_metrics::Metrics;
use ft_runtime::{output_with_timeout, CompiledEngine, ExecutionEngine, RunContext};
use ft_trace::JsonVal;
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A cold sample takes well under a second; this only bounds a hang.
const CHILD_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Cold {
    seed: u64,
    exe: PathBuf,
    run_dir: PathBuf,
    phases: AtomicU64,
}

/// Samples taken so far (set-up warm-ups included).
pub struct State {
    samples: u64,
}

/// One child's report.
struct Sample {
    ok: bool,
    ns: f64,
    rss_kib: f64,
    cc_spawned: f64,
    /// Whether the process ended by returning from `main` with success.
    normal_exit: bool,
    spans: Vec<Foreign>,
}

impl Cold {
    pub fn new(o: &Opts) -> Result<Cold, String> {
        Ok(Cold {
            seed: o.seed,
            exe: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
            run_dir: o.run_dir.clone(),
            phases: AtomicU64::new(0),
        })
    }

    fn sample(&self, case: Case, trace: bool) -> Result<Sample, String> {
        let cache = fresh_cache(&self.run_dir);
        let mut cmd = Command::new(&self.exe);
        cmd.args([
            "--child",
            case.name,
            "--seed",
            &self.seed.to_string(),
            "--trace",
        ])
        .arg(if trace { "1" } else { "0" })
        .arg("--cache-dir")
        .arg(&cache)
        .stdin(Stdio::null());
        let out = output_with_timeout(&mut cmd, CHILD_TIMEOUT)
            .map_err(|e| format!("spawn child: {e}"))?;
        let _ = std::fs::remove_dir_all(&cache);
        let _ = std::io::stderr().write_all(&out.stderr);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().unwrap_or("");
        let v = JsonVal::parse(line).map_err(|e| {
            format!(
                "{}: child ({}) printed no report: {e}",
                case.name, out.status
            )
        })?;
        let num = |k: &str| v.get(k).and_then(JsonVal::as_f64).unwrap_or(0.0);
        if let Some(e) = v.get("error").and_then(JsonVal::as_str) {
            eprintln!("perfbench: {}: {e}", case.name);
        }
        let spans = v
            .get("spans")
            .and_then(JsonVal::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|s| {
                let f = |i: usize| {
                    s.as_arr()
                        .and_then(|a| a.get(i))
                        .and_then(JsonVal::as_f64)
                        .unwrap_or(0.0) as u64
                };
                Some(Foreign {
                    name: s.as_arr()?.first()?.as_str()?.to_string(),
                    start_ns: f(1),
                    dur_ns: f(2),
                    id: f(3),
                    parent: f(4),
                })
            })
            .collect();
        Ok(Sample {
            ok: v.get("ok") == Some(&JsonVal::Bool(true)),
            ns: num("ns"),
            rss_kib: num("rss_kib"),
            cc_spawned: num("cc_spawned"),
            normal_exit: out.status.success(),
            spans,
        })
    }
}

impl Workload for Cold {
    type State = State;
    const WINDOWED: bool = false;

    /// One untimed sample of the first program warms the page cache (`cc`,
    /// headers, this binary) the way any earlier compile on the host would.
    fn setup(&self, _tracer: &Tracer) -> Result<State, String> {
        let first = cases::ALL[0];
        let s = self.sample(first, false)?;
        if !s.ok {
            return Err(format!("{}: warm-up sample failed", first.name));
        }
        Ok(State { samples: 1 })
    }

    fn programs(&self, _state: &State, tracer: &Tracer) -> Result<Vec<(Case, Program)>, String> {
        cases::ALL
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let inst = c.instance(Scale::Small, self.seed);
                Ok((*c, inst.build(tracer, MAIN_TRACK, i as u64, &Span::ROOT)?))
            })
            .collect()
    }

    fn measure(&self, state: &mut State, seconds: f64, tracer: &Tracer) -> Result<Phase, String> {
        let phase_no = self.phases.fetch_add(1, Ordering::Relaxed);
        let mut rng = Rng::new(self.seed ^ (phase_no + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut phase = Phase::default();
        let (mut abnormal, mut cc, mut rss) = (0u64, Vec::new(), 0.0f64);
        let start = Instant::now();
        let end = deadline(seconds);
        'run: loop {
            for i in rng.permutation(cases::ALL.len()) {
                let case = cases::ALL[i];
                state.samples += 1;
                let root = tracer.span("cold.sample", MAIN_TRACK, state.samples, &Span::ROOT);
                let at = Instant::now();
                let s = self.sample(case, tracer.enabled())?;
                tracer.import(&s.spans, at, MAIN_TRACK, state.samples, &root);
                drop(root);
                phase.attempted += 1;
                if s.ok {
                    phase.record(i, s.ns, start);
                } else {
                    phase.failed += 1;
                }
                abnormal += u64::from(!s.normal_exit);
                cc.push(s.cc_spawned);
                rss = rss.max(s.rss_kib / 1024.0);
                if Instant::now() >= end {
                    break 'run;
                }
            }
        }
        phase.secs = start.elapsed().as_secs_f64();
        phase.peak_rss_mib = rss;
        phase
            .layers
            .push(("cold.abnormal_exits".into(), abnormal as f64));
        phase
            .layers
            .push(("compiled.cc_spawned".into(), crate::stats::median(&cc)));
        Ok(phase)
    }
}

/// The child side of a sample: `--child <program> --seed <n> --trace <0|1>
/// --cache-dir <dir>`. Prints one JSON line and returns from `main`.
pub fn child_main(args: &[String]) -> ExitCode {
    let get = |k: &str| {
        args.iter()
            .position(|a| a == k)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let (Some(case), Some(seed), Some(dir)) = (
        args.first().and_then(|n| Case::by_name(n)),
        get("--seed").and_then(|s| s.parse::<u64>().ok()),
        get("--cache-dir"),
    ) else {
        eprintln!("perfbench --child: bad arguments {args:?}");
        return ExitCode::from(2);
    };
    let tracer = Tracer::new(get("--trace").as_deref() == Some("1"));
    let inst = case.instance(Scale::Small, seed);
    let expected = inst.reference();
    let metrics = Metrics::new();
    let mut engine = CompiledEngine::with_cache_dir(dir);
    engine.set_metrics(Some(metrics.clone()));

    let t0 = Instant::now();
    let result = (|| -> Result<(), String> {
        let program = inst.build(&tracer, MAIN_TRACK, 0, &Span::ROOT)?;
        let mut ctx = RunContext::new();
        let r = {
            let _s = tracer.span("compiled.first_run", MAIN_TRACK, 0, &Span::ROOT);
            engine.run_with(program.func(), &inst.inputs, &HashMap::new(), &mut ctx)
        }
        .map_err(|e| format!("first run: {e}"))?;
        let _s = tracer.span("check", MAIN_TRACK, 0, &Span::ROOT);
        inst.check(&expected, &r.outputs)
    })();
    let ns = t0.elapsed().as_nanos() as f64;

    let spans = tracer
        .export()
        .into_iter()
        .map(|s| {
            JsonVal::Arr(vec![
                JsonVal::Str(s.name),
                JsonVal::Num(s.start_ns as f64),
                JsonVal::Num(s.dur_ns as f64),
                JsonVal::Num(s.id as f64),
                JsonVal::Num(s.parent as f64),
            ])
        })
        .collect();
    let mut report = vec![
        ("ok".to_string(), JsonVal::Bool(result.is_ok())),
        ("ns".to_string(), JsonVal::Num(ns)),
        (
            "rss_kib".to_string(),
            JsonVal::Num(crate::peak_rss_mib() * 1024.0),
        ),
        (
            "cc_spawned".to_string(),
            JsonVal::Num(metrics.snapshot().counter("compiled.cc.spawned") as f64),
        ),
        ("spans".to_string(), JsonVal::Arr(spans)),
    ];
    if let Err(e) = &result {
        report.push(("error".to_string(), JsonVal::Str(e.clone())));
    }
    println!("{}", JsonVal::Obj(report));
    let _ = std::io::stdout().flush();
    if result.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
