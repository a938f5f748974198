//! `batch-dense` and `batch-deep`: closed-loop `Engine::run` jobs, one in
//! flight, on a preprocessed CSR.
//!
//! `batch-dense` (PageRank, 5 supersteps, twitter-2010 1/256) streams every
//! edge every superstep: decode, run emission, slab transport and the
//! f32-sum fold carry the time. `batch-deep` (BFS on a 700×700 grid) runs
//! ~1,200 supersteps of ~2 k edges each, so fixed per-superstep cost
//! carries it: actor wake-up, the barrier, the frontier swap and the
//! commit.

use std::io;
use std::path::Path;

use gpsa::programs::{Bfs, PageRank};
use gpsa::{Engine, EngineConfig, Termination};
use gpsa_baselines::seq;
use gpsa_graph::{Csr, EdgeList};

use crate::layers::{engine_metrics, EngineRun};
use crate::plan::{self, Workload, GRID_SIDE};
use crate::report::Metrics;
use crate::stats::{median, ratio};
use crate::trace::Trace;
use crate::{ceilings, check, closed_loop, dist, host, preprocess_repeats, record_preprocess};
use crate::{record_windows, Ctx, Outcome, Window};

/// PageRank supersteps per job, the paper's timing methodology.
pub const PR_SUPERSTEPS: u64 = 5;
/// PageRank damping factor of the batch jobs.
pub const DAMPING: f32 = 0.85;

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    wrong: Vec<String>,
    runs: Vec<EngineRun>,
    ranks: Vec<Vec<f32>>,
}

impl Tally {
    fn wrong(&mut self, msg: String) {
        self.failed += 1;
        self.wrong.push(msg);
    }
}

/// Set-up repeats: `batch-dense` preprocessing takes about 0.6 s, the
/// grid's about 0.2 s, and either varies ±15 % between repeats of one run.
fn setup_repeats(w: Workload) -> usize {
    match w {
        Workload::BatchDense => 9,
        _ => 15,
    }
}

/// Run one closed-loop window of the workload's jobs.
fn window(
    ctx: &Ctx,
    engine: &Engine,
    csr: &Path,
    roots: &[u32],
    trace: &mut Trace,
    first_id: u64,
    t: &mut Tally,
) -> Window {
    let keep_runs = trace.on();
    if ctx.workload == Workload::BatchDense {
        closed_loop(
            ctx.seconds,
            first_id,
            trace,
            "engine.run",
            |_| engine.run(csr, PageRank { damping: DAMPING }),
            |id, r| {
                t.attempted += 1;
                match r {
                    Ok(r) => {
                        if keep_runs {
                            t.runs.push(EngineRun::from_report(&r));
                        }
                        t.ranks.push(r.values);
                    }
                    Err(e) => {
                        t.failed += 1;
                        eprintln!("perfbench: job {id} failed: {e}");
                    }
                }
            },
        )
    } else {
        let root = |id: u64| roots[id as usize % roots.len()];
        closed_loop(
            ctx.seconds,
            first_id,
            trace,
            "engine.run",
            |id| engine.run(csr, Bfs { root: root(id) }),
            |id, r| {
                t.attempted += 1;
                match r {
                    Ok(r) => {
                        if let Err(e) = check::manhattan(&r.values, GRID_SIDE, root(id)) {
                            t.wrong(format!("job {id} (BFS from {}): {e}", root(id)));
                        }
                        if keep_runs {
                            t.runs.push(EngineRun::from_report(&r));
                        }
                    }
                    Err(e) => {
                        t.failed += 1;
                        eprintln!("perfbench: job {id} failed: {e}");
                    }
                }
            },
        )
    }
}

/// Set up, measure, and check a batch workload.
pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let plan = plan::load(&ctx.dir)?;
    if ctx.workload == Workload::BatchDeep && plan.roots.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "plan has no roots",
        ));
    }
    let mut trace = Trace::new(ctx.traced, ctx.origin);
    let mut m = Metrics::default();
    let (csr, stats, times) = preprocess_repeats(ctx, setup_repeats(ctx.workload), &mut trace)?;
    m.set("setup_s", median(&times).unwrap_or(0.0));
    record_preprocess(&mut m, &stats, &times);

    let mut config = EngineConfig::new(ctx.dir.join("work"));
    if ctx.workload == Workload::BatchDense {
        config = config.with_termination(Termination::Supersteps(PR_SUPERSTEPS));
    }
    let engine = Engine::new(config);
    let mut t = Tally::default();
    let mut off = Trace::new(false, ctx.origin);
    let plain = window(ctx, &engine, &csr, &plan.roots, &mut off, 0, &mut t);
    let traced = ctx
        .traced
        .then(|| window(ctx, &engine, &csr, &plan.roots, &mut trace, 1 << 20, &mut t));
    record_windows(&plain, traced.as_ref(), &mut m);
    m.set("host.peak_rss_mb", host::peak_rss_mb());

    // The oracle: the tuned single thread on the same graph. Its run
    // time is the COST denominator.
    let el = trace.time("check.load_edges", crate::trace::NO_JOB, || {
        EdgeList::read_binary_file(ctx.edges())
    })?;
    let oracle = Csr::from_edge_list(&el);
    let seq_ms = if ctx.workload == Workload::BatchDense {
        let mut want = Vec::new();
        let ms = ceilings::median_ms(1, || {
            want = seq::pagerank(&oracle, DAMPING, PR_SUPERSTEPS).0;
        });
        for (i, got) in std::mem::take(&mut t.ranks).iter().enumerate() {
            if let Err(e) = check::pagerank(got, &want) {
                t.wrong(format!("PageRank job {i}: {e}"));
            }
        }
        if ctx.traced {
            let core_ms = m.get("e2e.job_p50_ms").unwrap_or(0.0);
            let c = dist::record(ctx, &el, &want, core_ms, &mut trace, &mut m);
            t.attempted += c.attempted;
            t.failed += c.failed;
            t.wrong.extend(c.wrong);
        }
        ms
    } else {
        ceilings::median_ms(3, || {
            std::hint::black_box(seq::bfs(&oracle, plan.roots[0]));
        })
    };

    if ctx.traced {
        engine_metrics(&t.runs, &mut m);
        m.set("seq.ms_per_job", seq_ms);
        m.set(
            "engine.cost_ratio",
            ratio(m.get("e2e.job_p50_ms").unwrap_or(0.0), seq_ms),
        );
        ceilings::record(&csr, &mut m)?;
    }
    m.set(
        "e2e.failed_frac",
        ratio(t.failed as f64, t.attempted as f64),
    );
    Ok(Outcome {
        metrics: m,
        attempted: t.attempted,
        failed: t.failed,
        wrong: t.wrong,
        trace,
    })
}
