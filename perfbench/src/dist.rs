//! The cluster layer, measured inside `batch-dense`'s traced run: the
//! same PageRank job (5 supersteps) through `gpsa_dist::Cluster::run` on
//! a simulated 2-node cluster (1 dispatcher, 1 computer, 1 worker per
//! node), over the same edge list as the workload's `Engine::run` jobs.
//! It is the only place the cluster's own copy of the superstep protocol
//! runs. It is a diagnostic rather than a workload: its jobs are bimodal
//! by where the kernel places the per-node workers, and their medians
//! spread between runs by more than an end-to-end bound allows.

use std::time::Instant;

use gpsa::programs::PageRank;
use gpsa::Termination;
use gpsa_dist::{Cluster, ClusterConfig};
use gpsa_graph::EdgeList;

use crate::batch::{DAMPING, PR_SUPERSTEPS};
use crate::check;
use crate::report::Metrics;
use crate::stats::{mean, median, ratio};
use crate::trace::Trace;
use crate::Ctx;

/// Simulated nodes.
const NODES: usize = 2;
/// Cluster jobs per traced run.
const JOBS: u64 = 5;
/// Job ids of the cluster jobs start here, clear of the windows' ids.
const FIRST_ID: u64 = 1 << 30;

/// Operations the cluster jobs came to.
#[derive(Debug, Default)]
pub struct Checked {
    /// Cluster jobs attempted.
    pub attempted: u64,
    /// Jobs that failed or returned a wrong result.
    pub failed: u64,
    /// Wrong results, described.
    pub wrong: Vec<String>,
}

fn config(ctx: &Ctx, job: u64) -> ClusterConfig {
    let mut c = ClusterConfig::new(NODES, ctx.dir.join(format!("cluster{job}")))
        .with_termination(Termination::Supersteps(PR_SUPERSTEPS));
    c.dispatchers_per_node = 1;
    c.computers_per_node = 1;
    c.workers_per_node = 1;
    c
}

/// Run the cluster jobs on `el`, check each against `want`, and record
/// the `cluster.*` metrics. `core_ms` is the median `Engine::run` time of
/// the same job, the denominator of `cluster.core_ratio`.
pub fn record(
    ctx: &Ctx,
    el: &EdgeList,
    want: &[f32],
    core_ms: f64,
    trace: &mut Trace,
    m: &mut Metrics,
) -> Checked {
    let mut c = Checked::default();
    let (mut ms, mut commit_us) = (Vec::new(), Vec::new());
    let (mut remote, mut total) = (0u64, 0u64);
    for id in FIRST_ID..FIRST_ID + JOBS {
        c.attempted += 1;
        let start = Instant::now();
        let r = Cluster::new(config(ctx, id)).run(el, PageRank { damping: DAMPING });
        let end = Instant::now();
        trace.record("cluster.run", id, None, start, end);
        let _ = std::fs::remove_dir_all(ctx.dir.join(format!("cluster{id}")));
        match r {
            Ok(r) => {
                ms.push(end.duration_since(start).as_secs_f64() * 1e3);
                commit_us.extend(r.commit_times.iter().map(|d| d.as_secs_f64() * 1e6));
                remote += r.traffic.remote();
                total += r.traffic.total();
                if let Err(e) = check::pagerank(&r.values, want) {
                    c.failed += 1;
                    c.wrong.push(format!("distributed PageRank job {id}: {e}"));
                }
            }
            Err(e) => {
                c.failed += 1;
                eprintln!("perfbench: cluster job {id} failed: {e}");
            }
        }
    }
    m.set("cluster.commit_us_per_step", mean(&commit_us));
    m.set(
        "cluster.cross_node_msg_frac",
        ratio(remote as f64, total as f64),
    );
    m.set(
        "cluster.core_ratio",
        ratio(median(&ms).unwrap_or(0.0), core_ms),
    );
    c
}
