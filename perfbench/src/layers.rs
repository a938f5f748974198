//! Per-layer figures computed from the reports the system returns.

use gpsa::{PhaseBreakdown, RunReport};
use gpsa_serve::JobResponse;

use crate::report::Metrics;
use crate::stats::{mean, ratio};

/// One engine run's counters, from a [`RunReport`] (batch jobs) or a
/// served [`JobResponse`] (which carries fewer of them).
#[derive(Debug, Clone, Default)]
pub struct EngineRun {
    /// Engine run time, µs.
    pub run_us: f64,
    /// Per-superstep wall time, µs (empty for served jobs).
    pub step_us: Vec<f64>,
    /// Per-superstep phase split.
    pub phases: Vec<PhaseBreakdown>,
    /// Supersteps executed.
    pub supersteps: u64,
    /// Messages folded.
    pub messages: u64,
    /// CSR body words dispatchers read.
    pub edges_streamed: u64,
    /// CSR body words sparse dispatch skipped.
    pub edges_skipped: u64,
    /// CSR body bytes read (batch jobs only).
    pub edge_bytes: u64,
    /// Slab bytes served from / missing in the pool (batch jobs only).
    pub pool_hit_bytes: u64,
    /// See [`EngineRun::pool_hit_bytes`].
    pub pool_miss_bytes: u64,
    /// Mean frontier density over the run's supersteps.
    pub density: f64,
}

impl EngineRun {
    /// Counters of a batch run.
    pub fn from_report<V>(r: &RunReport<V>) -> EngineRun {
        EngineRun {
            run_us: r.elapsed.as_secs_f64() * 1e6,
            step_us: r.step_times.iter().map(|d| d.as_secs_f64() * 1e6).collect(),
            phases: r.phases.clone(),
            supersteps: r.supersteps,
            messages: r.messages,
            edges_streamed: r.edges_streamed,
            edges_skipped: r.edges_skipped,
            edge_bytes: r.edge_bytes_streamed,
            pool_hit_bytes: r.pool_hit_bytes,
            pool_miss_bytes: r.pool_miss_bytes,
            density: r.mean_frontier_density(),
        }
    }

    /// Counters of a served job that ran the engine (not a cache hit).
    pub fn from_response(r: &JobResponse) -> EngineRun {
        let o = &r.outcome;
        EngineRun {
            run_us: r.run_time.as_secs_f64() * 1e6,
            phases: o.phases.clone(),
            supersteps: o.supersteps,
            messages: o.messages,
            edges_streamed: o.edges_streamed,
            edges_skipped: o.edges_skipped,
            density: o.mean_frontier_density,
            ..EngineRun::default()
        }
    }
}

/// Barrier idle of one superstep: wall time not covered by the longer of
/// dispatch and fold (both summed over their actors), floored at 0.
pub fn idle_us(step_us: f64, p: &PhaseBreakdown) -> f64 {
    (step_us - p.dispatch_us.max(p.fold_us) as f64).max(0.0)
}

/// Set the engine-layer metrics from `runs`.
pub fn engine_metrics(runs: &[EngineRun], m: &mut Metrics) {
    if runs.is_empty() {
        return;
    }
    let jobs = runs.len() as f64;
    let sum = |f: &dyn Fn(&EngineRun) -> f64| runs.iter().map(f).sum::<f64>();
    let phase = |f: fn(&PhaseBreakdown) -> u64| {
        sum(&|r: &EngineRun| r.phases.iter().map(|p| f(p) as f64).sum())
    };
    let streamed = sum(&|r| r.edges_streamed as f64);
    let skipped = sum(&|r| r.edges_skipped as f64);
    let messages = sum(&|r| r.messages as f64);
    m.set(
        "dispatcher.ns_per_edge",
        ratio(phase(|p| p.dispatch_us) * 1e3, streamed),
    );
    m.set(
        "computer.fold_ns_per_msg",
        ratio(phase(|p| p.fold_us) * 1e3, messages),
    );
    m.set("slab.wait_us_per_job", phase(|p| p.slab_wait_us) / jobs);
    let hit = sum(&|r| r.pool_hit_bytes as f64);
    m.set(
        "slab.pool_hit_frac",
        ratio(hit, hit + sum(&|r| r.pool_miss_bytes as f64)),
    );
    m.set(
        "engine.edge_bytes_per_job",
        sum(&|r| r.edge_bytes as f64) / jobs,
    );
    let steps: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.step_us.iter().copied())
        .collect();
    m.set("manager.step_wall_us", mean(&steps));
    let idle: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.step_us.iter().zip(&r.phases).map(|(s, p)| idle_us(*s, p)))
        .collect();
    m.set("manager.idle_us_per_step", mean(&idle));
    let n_phases: usize = runs.iter().map(|r| r.phases.len()).sum();
    m.set(
        "manager.commit_us_per_step",
        ratio(phase(|p| p.commit_us), n_phases as f64),
    );
    m.set(
        "engine.supersteps_per_job",
        sum(&|r| r.supersteps as f64) / jobs,
    );
    m.set(
        "actor.msgs_per_s",
        ratio(messages, sum(&|r| r.run_us) / 1e6),
    );
    m.set("frontier.density_mean", sum(&|r| r.density) / jobs);
    m.set(
        "dispatcher.skipped_frac",
        ratio(skipped, streamed + skipped),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(dispatch_us: u64, fold_us: u64) -> PhaseBreakdown {
        PhaseBreakdown {
            dispatch_us,
            fold_us,
            commit_us: 4,
            slab_wait_us: 1,
        }
    }

    #[test]
    fn idle_is_wall_minus_the_longer_phase() {
        assert_eq!(idle_us(100.0, &phase(60, 30)), 40.0);
        assert_eq!(idle_us(100.0, &phase(20, 70)), 30.0);
        assert_eq!(idle_us(50.0, &phase(80, 0)), 0.0);
    }

    #[test]
    fn engine_metrics_average_per_job_and_per_step() {
        let run = EngineRun {
            run_us: 1000.0,
            step_us: vec![300.0, 500.0],
            phases: vec![phase(200, 100), phase(400, 450)],
            supersteps: 2,
            messages: 100,
            edges_streamed: 300,
            edges_skipped: 100,
            edge_bytes: 800,
            pool_hit_bytes: 3,
            pool_miss_bytes: 1,
            density: 0.5,
        };
        let mut m = Metrics::default();
        engine_metrics(&[run.clone(), run], &mut m);
        assert_eq!(m.get("dispatcher.ns_per_edge"), Some(2000.0));
        assert_eq!(m.get("computer.fold_ns_per_msg"), Some(5500.0));
        assert_eq!(m.get("manager.idle_us_per_step"), Some(75.0));
        assert_eq!(m.get("manager.commit_us_per_step"), Some(4.0));
        assert_eq!(m.get("slab.wait_us_per_job"), Some(2.0));
        assert_eq!(m.get("slab.pool_hit_frac"), Some(0.75));
        assert_eq!(m.get("dispatcher.skipped_frac"), Some(0.25));
        assert_eq!(m.get("actor.msgs_per_s"), Some(100_000.0));
    }
}
