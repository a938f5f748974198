//! `perfbench`: the repository's layered benchmark.
//!
//! ```text
//! perfbench gen --workload <name> --seed <n> --seconds <s> --dir <inputs>
//! perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1> --dir <inputs>
//!               [--trace-file <spans.json>]
//! ```
//!
//! `gen` writes a workload's seeded inputs; `run` sets the system up on
//! them, measures it for `--seconds`, checks every result it can, and
//! prints one JSON result line last. `run.py` next to this crate builds
//! it and runs both steps. Workloads, metrics, and the layer each
//! metric belongs to are described in `BENCHMARK.json`.

mod batch;
mod ceilings;
mod check;
mod dist;
mod host;
mod layers;
mod plan;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use gpsa_graph::preprocess::{binary_to_csr, PreprocessOptions, PreprocessStats};

use crate::host::HostTicks;
use crate::plan::Workload;
use crate::report::{Metrics, END_TO_END, PER_LAYER};
use crate::stats::{mean, median, tail_percentile};
use crate::trace::{Trace, NO_JOB};

/// One `run` invocation's settings.
pub struct Ctx {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Directory holding the generated inputs; scratch goes under it.
    pub dir: PathBuf,
    /// Origin of every span.
    pub origin: Instant,
}

impl Ctx {
    /// The generated binary edge file.
    pub fn edges(&self) -> PathBuf {
        self.dir.join("edges.bin")
    }
}

/// What a workload hands back.
pub struct Outcome {
    /// End-to-end and per-layer metrics (the printer picks the list).
    pub metrics: Metrics,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong result.
    pub failed: u64,
    /// Wrong results, described.
    pub wrong: Vec<String>,
    /// Spans of the traced window.
    pub trace: Trace,
}

/// Closed-loop timings of one window.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Per-job latency, ms.
    pub lat_ms: Vec<f64>,
    /// Summed job time, s: the window minus the benchmark's own checks.
    pub busy_s: f64,
    /// Process CPU consumed over the window, s.
    pub cpu_s: f64,
    /// Share of host CPU stolen during the window.
    pub steal_frac: f64,
    /// Median resident set over the window, MiB.
    pub rss_mb: f64,
}

impl Window {
    /// Jobs completed per second of job time.
    pub fn jobs_per_s(&self) -> f64 {
        stats::ratio(self.lat_ms.len() as f64, self.busy_s)
    }

    /// The end-to-end metrics a closed-loop window yields.
    pub fn record(&self, m: &mut Metrics) {
        m.set("jobs_per_s", self.jobs_per_s());
        m.set("job_mean_ms", mean(&self.lat_ms));
        m.set("e2e.job_p50_ms", median(&self.lat_ms).unwrap_or(0.0));
        m.set(
            "cpu_s_per_job",
            stats::ratio(self.cpu_s, self.lat_ms.len() as f64),
        );
        m.set(
            "e2e.job_p90_ms",
            tail_percentile(&self.lat_ms, 90.0).unwrap_or(0.0),
        );
        m.set("host.rss_mb", self.rss_mb);
        m.set("host.steal_frac", self.steal_frac);
        m.set("host.cpu_s", self.cpu_s);
    }
}

/// Record the end-to-end figures of an untraced run's window, or of a
/// traced run's traced window with its overhead against the untraced
/// one. A traced run quotes its p90 over both windows, which together
/// hold enough jobs for ten to lie beyond it.
pub fn record_windows(plain: &Window, traced: Option<&Window>, m: &mut Metrics) {
    let Some(traced) = traced else {
        plain.record(m);
        return;
    };
    traced.record(m);
    m.set(
        "trace.overhead_frac",
        stats::ratio(mean(&traced.lat_ms), mean(&plain.lat_ms)) - 1.0,
    );
    let both: Vec<f64> = plain.lat_ms.iter().chain(&traced.lat_ms).copied().collect();
    m.set(
        "e2e.job_p90_ms",
        tail_percentile(&both, 90.0).unwrap_or(0.0),
    );
}

/// Run jobs back to back, one in flight, until `seconds` of job time
/// have passed. `job(i)` is timed as span `name`; `after(i, result)`
/// (checks, bookkeeping) runs outside the timed part.
pub fn closed_loop<R>(
    seconds: f64,
    first_id: u64,
    trace: &mut Trace,
    name: &'static str,
    mut job: impl FnMut(u64) -> R,
    mut after: impl FnMut(u64, R),
) -> Window {
    let (cpu0, host0) = (host::process_cpu_s(), HostTicks::now());
    let rss = trace.on().then(host::RssSampler::start);
    let mut w = Window::default();
    let mut id = first_id;
    while w.busy_s < seconds {
        let start = Instant::now();
        let out = job(id);
        let end = Instant::now();
        trace.record(name, id, None, start, end);
        let secs = end.duration_since(start).as_secs_f64();
        w.busy_s += secs;
        w.lat_ms.push(secs * 1e3);
        after(id, out);
        id += 1;
    }
    w.cpu_s = host::process_cpu_s() - cpu0;
    w.steal_frac = HostTicks::now().steal_frac_since(&host0);
    w.rss_mb = rss.map_or(0.0, host::RssSampler::finish);
    w
}

/// Preprocess the edge file `repeats` times into fresh directories and
/// keep the last CSR. Returns its path, its stats, and every repeat's
/// time in seconds.
pub fn preprocess_repeats(
    ctx: &Ctx,
    repeats: usize,
    trace: &mut Trace,
) -> std::io::Result<(PathBuf, PreprocessStats, Vec<f64>)> {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for k in 0..repeats {
        let dir = ctx.dir.join(format!("csr{k}"));
        std::fs::create_dir_all(&dir)?;
        let out = dir.join("graph.gcsr");
        let start = Instant::now();
        let stats = binary_to_csr(ctx.edges(), &out, &PreprocessOptions::default())?;
        let end = Instant::now();
        trace.record("preprocess.binary_to_csr", NO_JOB, None, start, end);
        times.push(end.duration_since(start).as_secs_f64());
        if let Some((prev, _)) = last.replace((dir, stats)) {
            std::fs::remove_dir_all::<PathBuf>(prev)?;
        }
    }
    let (dir, stats) = last.expect("at least one repeat");
    Ok((dir.join("graph.gcsr"), stats, times))
}

/// Setup figures shared by every workload that preprocesses.
pub fn record_preprocess(m: &mut Metrics, stats: &PreprocessStats, times: &[f64]) {
    let s = median(times).unwrap_or(0.0);
    m.set("preprocess.s", s);
    m.set("preprocess.compression_ratio", stats.compression_ratio());
}

struct Args {
    cmd: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: PathBuf,
    trace_file: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = argv
        .first()
        .cloned()
        .ok_or("missing subcommand (gen|run)")?;
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| get(flag).ok_or(format!("missing {flag}"));
    let workload = need("--workload")?;
    Ok(Args {
        cmd,
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: need("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: need("--seconds")?
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be a positive number")?,
        trace: match get("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
        },
        dir: PathBuf::from(need("--dir")?),
        trace_file: get("--trace-file").map(PathBuf::from),
    })
}

fn run(args: &Args) -> Result<bool, String> {
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        dir: args.dir.clone(),
        origin: Instant::now(),
    };
    let host0 = HostTicks::now();
    let out = match ctx.workload {
        Workload::BatchDense | Workload::BatchDeep => batch::run(&ctx),
        Workload::ServeLive => serve::run(&ctx),
    }
    .map_err(|e| format!("{}: {e}", ctx.workload.name()))?;
    for w in &out.wrong {
        eprintln!("perfbench: wrong result: {w}");
    }
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"host\": {{\"nproc\": {}, \
         \"llc\": \"{}\", \"git_sha\": \"{}\", \"steal_frac\": {:?}, \"process_cpu_s\": {:?}}}}}",
        ctx.workload.name(),
        ctx.seed,
        ctx.traced,
        host::nproc(),
        host::llc_size(),
        host::git_sha(),
        HostTicks::now().steal_frac_since(&host0),
        host::process_cpu_s(),
    );
    if let Some(path) = &args.trace_file {
        write_trace(path, &out.trace).map_err(|e| format!("writing spans: {e}"))?;
    }
    let names = if ctx.traced { PER_LAYER } else { END_TO_END };
    let correct = out.wrong.is_empty();
    println!(
        "{}",
        report::result_line(
            correct,
            out.attempted.max(1),
            out.failed,
            &out.metrics.render(names)
        )
    );
    Ok(correct)
}

fn write_trace(path: &Path, trace: &Trace) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, trace.to_json())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.cmd.as_str() {
        "gen" => plan::generate(args.workload, args.seed, args.seconds, &args.dir)
            .map(|()| true)
            .map_err(|e| format!("gen: {e}")),
        "run" => run(&args),
        other => Err(format!("unknown subcommand {other:?} (gen|run)")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
