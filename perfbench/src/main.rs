//! perfbench — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kernels-full|serve-warm|cold-start> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each run sets the workload up several
//! times (the median is `setup_s`), measures for `--seconds`, checks the
//! outputs it times against the `ft-workloads` references, and prints one
//! JSON object as its last line. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` measures half the time untraced and half traced,
//! writes the spans as a Chrome trace under `.perfbench/`, and reports the
//! per-layer metrics and the tracing overhead. See `perfbench/NOTES.md`.

mod cases;
mod cold;
mod kernels;
mod serve;
mod spans;
mod stats;

use cases::Case;
use freetensor_core::Program;
use ft_analysis::MemPlan;
use ft_runtime::output_with_timeout;
use spans::{Span, Tracer};
use stats::{geomean, median, quantile, Reservoir};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The tail quantile reported as `op_tail_ms`. p99 of a serve-warm run
/// spreads by a third between runs on a shared 2-core host; p90 holds
/// within several percent. The client-side p99 is a per-layer metric.
const TAIL: f64 = 0.90;
/// `MemPlan::plan` / `Program::emit_c` calls per program in a traced run.
const PROBE_ROUNDS: usize = 16;

/// The end-to-end metrics, with units, in report order.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("op_geomean_ms", "ms"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// The per-layer metrics, with units, in report order. Every traced run
/// reports all of them; a layer a workload does not exercise reads 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("fail_rate", "ratio"),
        ("frontend.compile_ms", "ms"),
        ("autodiff.grad_ms", "ms"),
        ("autoschedule.optimize_ms", "ms"),
        ("memplan.plan_us", "us"),
        ("codegen.emit_us", "us"),
        ("codegen.c_bytes", "bytes"),
        ("compiled.first_run_ms", "ms"),
        ("compiled.cc_spawned", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for (prefix, unit) in [
        ("compiled.call_us", "us"),
        ("compiled.kernel_us", "us"),
        ("compiled.overhead_us", "us"),
        ("compiled.distinct_outputs", "count"),
    ] {
        v.extend(
            cases::ALL
                .iter()
                .map(|c| (format!("{prefix}.{}", c.name), unit)),
        );
    }
    v.extend(
        [
            ("serve.latency_us.p99", "us"),
            ("serve.submit_us", "us"),
            ("serve.queue_us.p50", "us"),
            ("serve.queue_us.p99", "us"),
            ("serve.exec_us.p50", "us"),
            ("serve.exec_us.p99", "us"),
            ("serve.cache_hit_rate", "ratio"),
            ("serve.warm_alloc_calls", "count"),
            ("serve.digest_mismatch", "count"),
            ("cold.abnormal_exits", "count"),
            (WORKER_EXITS, "count"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    v.extend(
        END_TO_END
            .iter()
            .map(|&(n, u)| (format!("trace_overhead.{n}"), u)),
    );
    v
}

/// Command-line options and the run's private directories.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Run-private scratch (artifact caches), removed at the end.
    pub run_dir: PathBuf,
}

/// A fresh artifact cache directory under the run-private directory.
pub fn fresh_cache(run_dir: &Path) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    run_dir.join(format!("cache-{}", NEXT.fetch_add(1, Ordering::Relaxed)))
}

/// One timed operation: a warm call, a request, or a cold sample.
pub struct Op {
    pub case: u32,
    pub ns: f32,
    /// Seconds from the start of the window to its completion.
    pub at: f32,
}

impl Op {
    pub fn ms(&self) -> f64 {
        f64::from(self.ns) / 1e6
    }
}

/// Operations kept per measurement window (per client in `serve-warm`).
/// A fixed cap keeps the benchmark's own memory, which counts into
/// `peak_rss_mib`, from growing with the throughput it measures.
const SAMPLE_CAP: usize = 1 << 15;

/// What one measurement window observed.
pub struct Phase {
    /// A uniform sample of the completed operations: all of them while
    /// there are at most `SAMPLE_CAP`.
    pub ops: Reservoir<Op>,
    /// Completed operations per 1-second window, all counted.
    pub per_second: Vec<u64>,
    pub secs: f64,
    pub attempted: u64,
    pub failed: u64,
    pub peak_rss_mib: f64,
    /// Per-layer values the workload measures itself (counters, response
    /// fields), by metric name.
    pub layers: Vec<(String, f64)>,
}

impl Default for Phase {
    fn default() -> Phase {
        Phase {
            ops: Reservoir::new(SAMPLE_CAP, 0x5A3B),
            per_second: Vec::new(),
            secs: 0.0,
            attempted: 0,
            failed: 0,
            peak_rss_mib: 0.0,
            layers: Vec::new(),
        }
    }
}

impl Phase {
    /// Record a completed operation of program `case` that took `ns`, in
    /// a window that began at `start`.
    pub fn record(&mut self, case: usize, ns: f64, start: Instant) {
        let at = start.elapsed().as_secs_f64();
        let second = at as usize;
        if self.per_second.len() <= second {
            self.per_second.resize(second + 1, 0);
        }
        self.per_second[second] += 1;
        self.ops.push(Op {
            case: case as u32,
            ns: ns as f32,
            at: at as f32,
        });
    }

    /// Fold in another client's observations of the same window.
    pub fn merge(&mut self, other: Phase) {
        self.ops.extend(other.ops);
        if self.per_second.len() < other.per_second.len() {
            self.per_second.resize(other.per_second.len(), 0);
        }
        for (a, b) in self.per_second.iter_mut().zip(other.per_second) {
            *a += b;
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// The end-to-end metrics of this window. With `windowed`,
    /// `op_tail_ms` and `ops_per_s` are the medians of their values over
    /// the window's whole seconds, so a burst of load from outside the
    /// benchmark moves a few seconds, not the result.
    fn end_to_end(&self, setup_s: f64, windowed: bool) -> BTreeMap<&'static str, f64> {
        let ops = self.ops.items();
        let ms: Vec<f64> = ops.iter().map(Op::ms).collect();
        let mut by_case: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for o in ops {
            by_case.entry(o.case).or_default().push(o.ms());
        }
        let medians: Vec<f64> = by_case.values().map(|v| median(v)).collect();
        let whole = (self.secs as usize).min(self.per_second.len());
        let (tail, rate) = if windowed && whole > 0 {
            let mut seconds: Vec<Vec<f64>> = vec![Vec::new(); whole];
            for o in ops {
                if let Some(v) = seconds.get_mut(o.at as usize) {
                    v.push(o.ms());
                }
            }
            let tails: Vec<f64> = seconds.iter().map(|v| quantile(v, TAIL)).collect();
            let rates: Vec<f64> = self.per_second[..whole].iter().map(|&n| n as f64).collect();
            (median(&tails), median(&rates))
        } else {
            let completed: u64 = self.per_second.iter().sum();
            (quantile(&ms, TAIL), completed as f64 / self.secs)
        };
        BTreeMap::from([
            ("setup_s", setup_s),
            ("peak_rss_mib", self.peak_rss_mib),
            ("op_geomean_ms", geomean(&medians)),
            ("op_p50_ms", median(&ms)),
            ("op_tail_ms", tail),
            ("ops_per_s", rate),
        ])
    }
}

/// A workload: how to set it up and how to measure it.
pub trait Workload {
    type State;
    /// Whether `op_tail_ms` and `ops_per_s` are per-second medians (see
    /// [`Phase::end_to_end`]); not when a second holds too few operations
    /// for a p90.
    const WINDOWED: bool;

    fn setup(&self, tracer: &Tracer) -> Result<Self::State, String>;

    /// The optimized programs the workload runs, for the `MemPlan::plan`
    /// and `Program::emit_c` probes of a traced run.
    fn programs(
        &self,
        state: &Self::State,
        tracer: &Tracer,
    ) -> Result<Vec<(Case, Program)>, String>;

    fn measure(
        &self,
        state: &mut Self::State,
        seconds: f64,
        tracer: &Tracer,
    ) -> Result<Phase, String>;
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Track (Chrome trace thread) of the benchmark's main thread.
pub const MAIN_TRACK: u64 = 1;

struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// The worker's machine-readable lines, read back by the parent.
    fn print(&self) {
        for (name, value, unit) in &self.metrics {
            let value = if value.is_finite() { *value } else { 0.0 };
            println!("metric {name} = {value} {unit}");
        }
        println!("result attempted={} failed={}", self.attempted, self.failed);
        let _ = std::io::stdout().flush();
    }
}

fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let t0 = Instant::now();
    let v = f()?;
    Ok((v, t0.elapsed().as_secs_f64()))
}

/// Set up, measure and print the report. The report is printed before the
/// workload state (and with it the last compiled engine) is dropped.
fn run<W: Workload>(w: &W, o: &Opts) -> Result<(), String> {
    let off = Tracer::new(false);
    if !o.trace {
        let mut states = Vec::new();
        let mut setup_s = Vec::new();
        for _ in 0..SETUPS {
            let (s, secs) = timed(|| w.setup(&off))?;
            states.push(s);
            setup_s.push(secs);
        }
        // Measure on the last set-up; the others are dropped now, while
        // the kept one still holds its kernels.
        let mut state = states.pop().expect("SETUPS > 0");
        drop(states);
        let phase = w.measure(&mut state, o.seconds, &off)?;
        let e2e = phase.end_to_end(median(&setup_s), W::WINDOWED);
        Report {
            attempted: phase.attempted,
            failed: phase.failed,
            metrics: END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), e2e[n], u))
                .collect(),
        }
        .print();
        drop(state);
        return Ok(());
    }

    let on = Tracer::new(true);
    let (untraced, setup_u) = timed(|| w.setup(&off))?;
    let (mut state, setup_t) = timed(|| w.setup(&on))?;
    drop(untraced);
    let c_bytes = probe(&w.programs(&state, &on)?, &on);
    let pu = w.measure(&mut state, o.seconds / 2.0, &off)?;
    let pt = w.measure(&mut state, o.seconds / 2.0, &on)?;

    let json = on.chrome_trace()?;
    let trace_path =
        Path::new(".perfbench").join(format!("trace-{}-seed{}.json", o.workload, o.seed));
    std::fs::write(&trace_path, &json)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    let self_ns = spans::self_times(&json)?;
    println!(
        "trace: {} ({} spans)",
        trace_path.display(),
        self_ns.values().map(Vec::len).sum::<usize>()
    );
    for (name, v) in &self_ns {
        println!(
            "self-time {name}: n={} median_us={:.3} total_ms={:.3}",
            v.len(),
            median(v) / 1e3,
            v.iter().sum::<f64>() / 1e6
        );
    }

    let mut layers: BTreeMap<String, f64> =
        per_layer().into_iter().map(|(n, _)| (n, 0.0)).collect();
    let span_metric = |span: &str| self_ns.get(span).map_or(0.0, |v| median(v));
    let mut set = |name: &str, v: f64| {
        *layers
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}")) = v;
    };
    let eu = pu.end_to_end(setup_u, W::WINDOWED);
    let et = pt.end_to_end(setup_t, W::WINDOWED);
    set("frontend.compile_ms", span_metric("frontend.compile") / 1e6);
    set("autodiff.grad_ms", span_metric("autodiff.grad") / 1e6);
    set(
        "autoschedule.optimize_ms",
        span_metric("autoschedule.optimize") / 1e6,
    );
    set("memplan.plan_us", span_metric("memplan.plan") / 1e3);
    set("codegen.emit_us", span_metric("codegen.emit_c") / 1e3);
    set("codegen.c_bytes", c_bytes);
    set(
        "compiled.first_run_ms",
        span_metric("compiled.first_run") / 1e6,
    );
    set("serve.submit_us", span_metric("serve.submit") / 1e3);
    for c in &cases::ALL {
        set(
            &format!("compiled.call_us.{}", c.name),
            span_metric(&format!("compiled.call.{}", c.name)) / 1e3,
        );
    }
    let attempted = pu.attempted + pt.attempted;
    let failed = pu.failed + pt.failed;
    set("fail_rate", failed as f64 / attempted.max(1) as f64);
    for (name, v) in &pt.layers {
        set(name, *v);
    }
    let overhead: Vec<String> = END_TO_END
        .iter()
        .map(|&(n, u)| {
            set(&format!("trace_overhead.{n}"), et[n] - eu[n]);
            format!(
                "{n} {:.4} -> {:.4} {u} ({:+.4})",
                eu[n],
                et[n],
                et[n] - eu[n]
            )
        })
        .collect();
    println!(
        "tracing overhead (untraced -> traced): {}",
        overhead.join("; ")
    );
    Report {
        attempted,
        failed,
        metrics: per_layer()
            .into_iter()
            .filter(|(n, _)| n != WORKER_EXITS)
            .map(|(n, u)| {
                let v = layers[&n];
                (n, v, u)
            })
            .collect(),
    }
    .print();
    drop(state);
    Ok(())
}

/// Time `MemPlan::plan` and `Program::emit_c` on each program, as the
/// compiled engine calls them per run. Returns the total emitted C bytes.
fn probe(programs: &[(Case, Program)], tracer: &Tracer) -> f64 {
    let sizes = HashMap::new();
    let mut bytes = 0;
    for (i, (_, p)) in programs.iter().enumerate() {
        let mut c = String::new();
        for _ in 0..PROBE_ROUNDS {
            {
                let _s = tracer.span("memplan.plan", MAIN_TRACK, i as u64, &Span::ROOT);
                std::hint::black_box(MemPlan::plan(p.func(), &sizes));
            }
            let _s = tracer.span("codegen.emit_c", MAIN_TRACK, i as u64, &Span::ROOT);
            c = p.emit_c();
        }
        bytes += c.len();
    }
    bytes as f64
}

/// FNV-1a over every Rust source and manifest under `crates/` and
/// `perfbench/src`, in path order: identifies the code when the checkout
/// has no git metadata.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs") || p.ends_with("Cargo.toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x} ({} files)", files.len())
}

/// nproc, the compiler, the OpenMP thread setting and the code version.
fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cc = Command::new("cc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "none".to_string());
    let omp = std::env::var("OMP_NUM_THREADS").unwrap_or_else(|_| "unset".to_string());
    let cwd = std::env::current_dir().unwrap_or_default();
    let commit = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none (not a git checkout)".to_string());
    format!(
        "host: nproc={nproc} cc=\"{cc}\" OMP_NUM_THREADS={omp} commit={commit} source_fnv={}",
        source_digest()
    )
}

fn arg<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}"))
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let workload = arg(args, "--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seed = arg(args, "--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = arg(args, "--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match arg(args, "--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let run_dir = match arg(args, "--run-dir") {
        Ok(d) => PathBuf::from(d),
        Err(_) => Path::new(".perfbench").join(format!("run-{}", std::process::id())),
    };
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
        run_dir,
    })
}

const WORKLOADS: [&str; 3] = ["kernels-full", "serve-warm", "cold-start"];

/// Time a worker may take beyond `--seconds` (set-ups, references, trace).
const WORKER_GRACE: Duration = Duration::from_secs(120);

/// The per-layer count of measuring workers that did not exit normally.
const WORKER_EXITS: &str = "bench.abnormal_exits";

/// The measuring process: `--worker <the parent's arguments> --run-dir
/// <dir>`. Prints its report, then returns from `main`, dropping the
/// engines it compiled on the way out.
fn worker_main(args: &[String]) -> ExitCode {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.run_dir) {
        eprintln!("perfbench: create {}: {e}", opts.run_dir.display());
        return ExitCode::FAILURE;
    }
    let r = match opts.workload.as_str() {
        "kernels-full" => run(&kernels::Kernels::new(&opts), &opts),
        "serve-warm" => run(&serve::Serve::new(&opts), &opts),
        _ => cold::Cold::new(&opts).and_then(|w| run(&w, &opts)),
    };
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The benchmark command: runs one measuring worker process, relays its
/// output, counts an abnormal worker exit, removes the run-private
/// directory and prints the result object as the last line.
fn parent_main(args: &[String]) -> ExitCode {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", fingerprint());
    let out = std::env::current_exe().and_then(|exe| {
        let mut cmd = Command::new(exe);
        cmd.arg("--worker")
            .args(args)
            .arg("--run-dir")
            .arg(&opts.run_dir)
            .stdin(std::process::Stdio::null());
        output_with_timeout(
            &mut cmd,
            Duration::from_secs_f64(opts.seconds) + WORKER_GRACE,
        )
    });
    let _ = std::fs::remove_dir_all(&opts.run_dir);
    let out = match out {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: spawn worker: {e}");
            return ExitCode::FAILURE;
        }
    };
    let _ = std::io::stderr().write_all(&out.stderr);
    if out.timed_out {
        eprintln!("perfbench: the worker did not finish in time and was killed");
        return ExitCode::FAILURE;
    }
    let mut metrics = Vec::new();
    let mut result = None;
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        println!("{line}");
        if let Some(m) = line.strip_prefix("metric ") {
            let f: Vec<&str> = m.split_whitespace().collect();
            if let [name, "=", value, unit] = f[..] {
                metrics.push(format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                ));
            }
        } else if let Some(r) = line.strip_prefix("result ") {
            let n = |k: &str| -> Option<u64> {
                r.split_whitespace()
                    .find_map(|kv| kv.strip_prefix(k)?.strip_prefix('=')?.parse().ok())
            };
            result = n("attempted").zip(n("failed"));
        }
    }
    let abnormal = !out.status.success();
    println!(
        "worker exit: {}{}",
        out.status,
        if abnormal { " (abnormal)" } else { "" }
    );
    let Some((attempted, failed)) = result else {
        eprintln!("perfbench: the worker reported no result ({})", out.status);
        return ExitCode::FAILURE;
    };
    if opts.trace {
        metrics.push(format!(
            "\"{WORKER_EXITS}\": {{\"value\": {}, \"unit\": \"count\"}}",
            u8::from(abnormal)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--child") => cold::child_main(&args[1..]),
        Some("--worker") => worker_main(&args[1..]),
        _ => parent_main(&args),
    }
}

/// The instant `seconds` from now.
pub fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}
