//! `serve-live`: an in-process `gpsa_serve` server with the
//! soc-LiveJournal 1/64 stand-in resident, driven open loop at a fixed
//! rate from two sender connections (one per tenant).
//!
//! Tenant `writer` (connection 0) sends fresh BFS/SSSP point queries,
//! repeats of its previous query (cache hits, since only this connection
//! writes), and `add_edges` batches of 64 edges. Tenant `analyst`
//! (connection 1) sends fresh point queries and streamed PageRank jobs.
//! Every minority class stays under a tenth of the reads, so the read
//! p50 and p90 both fall inside the point-query mode. A request is timed
//! from when it was due, so a stall also delays the requests queued
//! behind it.

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use gpsa_algorithms::reference;
use gpsa_baselines::seq;
use gpsa_graph::preprocess::{binary_to_csr, PreprocessOptions};
use gpsa_graph::{Csr, EdgeList, VertexId};
use gpsa_serve::{
    start, AlgorithmSpec, Client, ClientError, JobResponse, ServeConfig, ServeError, ServerHandle,
    SubmitRequest,
};

use crate::layers::{engine_metrics, EngineRun};
use crate::plan::{self, Op, OpKind, Plan, Rng};
use crate::report::Metrics;
use crate::stats::{mean, median, ratio, tail_percentile};
use crate::trace::{Trace, NO_JOB};
use crate::{ceilings, check, host, record_preprocess, Ctx, Outcome};

/// A read answered later than this after it was due misses the SLO.
pub const SLO_MS: f64 = 250.0;
/// Set-up repeats (preprocess + server start + register, ~0.1 s each,
/// varying ±15 % between repeats of one run).
const SETUP_REPEATS: usize = 15;
/// Window replies whose values are kept and checked against the oracle:
/// this many PageRank jobs, and this many point queries.
const CHECKED_REPLIES: (usize, usize) = (2, 6);
/// Replies kept per window to size the reply frame and time its encoding.
const SIZED_REPLIES: usize = 12;
const GRAPH: &str = "live";
const PR_SUPERSTEPS: u64 = 5;
const TENANTS: [&str; 2] = ["writer", "analyst"];

/// Open-loop clock: every operation has a due time, and its latency is
/// counted from then, not from when the sender got round to it.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    origin: Instant,
}

/// When one operation was due, sent, and answered.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Scheduled send time.
    pub due: Instant,
    /// Actual send time (later than `due` when the connection was busy).
    pub sent: Instant,
    /// Reply received.
    pub done: Instant,
}

impl OpenLoop {
    /// A schedule whose offsets count from `origin`.
    pub fn new(origin: Instant) -> OpenLoop {
        OpenLoop { origin }
    }

    /// The instant `due_us` after the origin.
    pub fn due(&self, due_us: u64) -> Instant {
        self.origin + Duration::from_micros(due_us)
    }

    /// Sleep until `due_us` if it is still ahead; returns the send time.
    pub fn wait(&self, due_us: u64) -> Instant {
        let due = self.due(due_us);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        Instant::now()
    }
}

impl Timing {
    /// Latency as the user sees it: due to answered, ms.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent it, ms.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }

    /// Round trip on the connection: sent to answered.
    pub fn rtt(&self) -> Duration {
        self.done.saturating_duration_since(self.sent)
    }
}

/// Client round trip not spent queued or running on the server: wire,
/// framing and JSON on both sides, µs.
pub fn wire_us(rtt: Duration, queue_wait: Duration, run_time: Duration) -> f64 {
    rtt.saturating_sub(queue_wait)
        .saturating_sub(run_time)
        .as_secs_f64()
        * 1e6
}

/// Class of a recorded operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Point,
    Repeat,
    PageRank,
    Write,
}

/// One executed operation.
struct Record {
    conn: usize,
    idx: usize,
    op: Op,
    class: Class,
    t: Timing,
    /// `None` on success; otherwise whether the server shed it.
    error: Option<bool>,
    resp: Option<Summary>,
}

/// What is kept of a successful read.
struct Summary {
    cache_hit: bool,
    queue_wait: Duration,
    run_time: Duration,
    engine: Option<EngineRun>,
    kept: Option<JobResponse>,
}

impl Summary {
    fn of(resp: JobResponse, traced: bool, keep: bool) -> Summary {
        Summary {
            cache_hit: resp.cache_hit,
            queue_wait: resp.queue_wait,
            run_time: resp.run_time,
            engine: (traced && !resp.cache_hit).then(|| EngineRun::from_response(&resp)),
            kept: keep.then_some(resp),
        }
    }
}

fn class(op: &Op) -> Class {
    match op.kind {
        OpKind::AddEdges(_) => Class::Write,
        OpKind::PageRank(_) => Class::PageRank,
        _ if op.repeat => Class::Repeat,
        _ => Class::Point,
    }
}

fn request(kind: OpKind, tenant: &str) -> SubmitRequest {
    let spec = match kind {
        OpKind::Bfs(root) => AlgorithmSpec::Bfs { root },
        OpKind::Sssp(root) => AlgorithmSpec::Sssp { root },
        OpKind::PageRank(damping) => AlgorithmSpec::PageRank {
            damping,
            supersteps: PR_SUPERSTEPS,
        },
        OpKind::AddEdges(_) => unreachable!("writes are not submits"),
    };
    let req = SubmitRequest::new(GRAPH, spec).with_tenant(tenant);
    if matches!(kind, OpKind::PageRank(_)) {
        req.with_stream()
    } else {
        req
    }
}

fn is_shed(e: &ClientError) -> bool {
    matches!(
        e,
        ClientError::Server(
            ServeError::ServerBusy(_) | ServeError::QuotaExceeded(_) | ServeError::SlowClient(_)
        )
    )
}

/// Replies of these operations (by connection and index) keep their
/// values for the oracle check.
fn checked_ops(plan: &Plan, seed: u64) -> Vec<(usize, usize)> {
    let mut reads: Vec<(usize, usize)> = (0..2)
        .flat_map(|c| (0..plan.ops[c].len()).map(move |i| (c, i)))
        .filter(|&(c, i)| !matches!(plan.ops[c][i].kind, OpKind::AddEdges(_)))
        .collect();
    Rng::new(seed, 0xC4EC).shuffle(&mut reads);
    let is_pr = |&(c, i): &(usize, usize)| matches!(plan.ops[c][i].kind, OpKind::PageRank(_));
    let (pr, point): (Vec<_>, Vec<_>) = reads.into_iter().partition(is_pr);
    pr.into_iter()
        .take(CHECKED_REPLIES.0)
        .chain(point.into_iter().take(CHECKED_REPLIES.1))
        .collect()
}

/// One sender connection's share of a window.
struct Sender<'a> {
    addr: SocketAddr,
    conn: usize,
    plan: &'a Plan,
    clock: OpenLoop,
    deadline: Instant,
    /// Operations whose reply values are kept for the oracle check.
    checked: &'a [(usize, usize)],
    job_base: u64,
}

impl Sender<'_> {
    /// Send every operation of this connection due before the deadline,
    /// each at its due time or as soon as the previous one is answered.
    fn drive(&self, trace: &mut Trace) -> io::Result<Vec<Record>> {
        let (conn, plan) = (self.conn, self.plan);
        let ops = &plan.ops[conn];
        let mut client = Client::connect(self.addr)?;
        let mut out = Vec::with_capacity(ops.len());
        let mut sized = 0;
        for (i, op) in ops.iter().enumerate() {
            let due = self.clock.due(op.due_us);
            if due >= self.deadline {
                break;
            }
            let sent = self.clock.wait(op.due_us);
            let (result, summary) = match op.kind {
                OpKind::AddEdges(b) => {
                    (client.add_edges(GRAPH, &plan.batches[b]).map(|_| ()), None)
                }
                kind => match client.submit(&request(kind, TENANTS[conn])) {
                    Ok(resp) => {
                        let size_it = trace.on() && sized < SIZED_REPLIES;
                        sized += usize::from(size_it);
                        let keep = size_it || self.checked.contains(&(conn, i));
                        (Ok(()), Some(Summary::of(resp, trace.on(), keep)))
                    }
                    Err(e) => (Err(e), None),
                },
            };
            let t = Timing {
                due,
                sent,
                done: Instant::now(),
            };
            let job = self.job_base + ((conn as u64) << 32 | i as u64);
            let span = trace.record("serve.op", job, None, t.due, t.done);
            trace.record("gen.late", job, span, t.due, t.sent);
            let name = match op.kind {
                OpKind::AddEdges(_) => "client.add_edges",
                _ => "client.submit",
            };
            let call = trace.record(name, job, span, t.sent, t.done);
            if let Some(s) = &summary {
                let qw = s.queue_wait.as_secs_f64() * 1e6;
                trace.record_reported("scheduler.queue_wait", call, 0.0, qw);
                trace.record_reported("engine.run", call, qw, s.run_time.as_secs_f64() * 1e6);
            }
            let error = match result {
                Ok(()) => None,
                Err(e) => {
                    eprintln!("perfbench: conn {conn} op {i} failed: {e}");
                    let shed = is_shed(&e);
                    if matches!(e, ClientError::Io(_)) {
                        client = Client::connect(self.addr)?;
                    }
                    Some(shed)
                }
            };
            out.push(Record {
                conn,
                idx: i,
                op: *op,
                class: class(op),
                t,
                error,
                resp: summary,
            });
        }
        Ok(out)
    }
}

/// Process and host figures of one window.
struct Usage {
    cpu_s: f64,
    steal_frac: f64,
    rss_mb: f64,
}

/// One open-loop window over the whole schedule.
fn window(
    ctx: &Ctx,
    addr: SocketAddr,
    plan: &Plan,
    trace: &mut Trace,
    job_base: u64,
) -> io::Result<(Vec<Record>, Usage)> {
    let checked = checked_ops(plan, ctx.seed);
    let (cpu0, host0) = (host::process_cpu_s(), host::HostTicks::now());
    let rss = trace.on().then(host::RssSampler::start);
    // Let both senders connect before the clock starts.
    let clock = OpenLoop::new(Instant::now() + Duration::from_millis(20));
    let deadline = clock.due((ctx.seconds * 1e6) as u64);
    let results: Vec<io::Result<(Vec<Record>, Trace)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|conn| {
                let sender = Sender {
                    addr,
                    conn,
                    plan,
                    clock,
                    deadline,
                    checked: &checked,
                    job_base,
                };
                let mut local = Trace::new(trace.on(), ctx.origin);
                s.spawn(move || Ok((sender.drive(&mut local)?, local)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    let mut all = Vec::new();
    for r in results {
        let (recs, local) = r?;
        all.extend(recs);
        trace.absorb(local);
    }
    let usage = Usage {
        cpu_s: host::process_cpu_s() - cpu0,
        steal_frac: host::HostTicks::now().steal_frac_since(&host0),
        rss_mb: rss.map_or(0.0, host::RssSampler::finish),
    };
    Ok((all, usage))
}

/// End-to-end and serving-layer figures of one window.
fn record(recs: &[Record], usage: &Usage, m: &mut Metrics) {
    let cpu_s = usage.cpu_s;
    m.set("host.rss_mb", usage.rss_mb);
    m.set("host.cpu_s", cpu_s);
    m.set("host.steal_frac", usage.steal_frac);
    let reads: Vec<&Record> = recs.iter().filter(|r| r.class != Class::Write).collect();
    let ok: Vec<&Record> = reads
        .iter()
        .copied()
        .filter(|r| r.error.is_none())
        .collect();
    let lat: Vec<f64> = ok.iter().map(|r| r.t.latency_ms()).collect();
    let first = recs.iter().map(|r| r.t.due).min();
    let last = recs.iter().map(|r| r.t.done).max();
    let span_s = match (first, last) {
        (Some(a), Some(b)) => b.saturating_duration_since(a).as_secs_f64(),
        _ => 0.0,
    };
    m.set("jobs_per_s", ratio(ok.len() as f64, span_s));
    m.set("job_mean_ms", mean(&lat));
    m.set("e2e.job_p50_ms", median(&lat).unwrap_or(0.0));
    m.set("cpu_s_per_job", ratio(cpu_s, ok.len() as f64));
    m.set("e2e.job_p90_ms", tail_percentile(&lat, 90.0).unwrap_or(0.0));
    let writes: Vec<f64> = recs
        .iter()
        .filter(|r| r.class == Class::Write && r.error.is_none())
        .map(|r| r.t.latency_ms())
        .collect();
    m.set("e2e.write_p50_ms", median(&writes).unwrap_or(0.0));
    let met = lat.iter().filter(|&&l| l <= SLO_MS).count();
    m.set("e2e.slo_met_frac", ratio(met as f64, reads.len() as f64));
    let late: Vec<f64> = recs.iter().map(|r| r.t.late_ms()).collect();
    m.set(
        "gen.late_ms_p90",
        tail_percentile(&late, 90.0).unwrap_or(0.0),
    );
    let shed = reads.iter().filter(|r| r.error == Some(true)).count();
    m.set(
        "scheduler.shed_frac",
        ratio(shed as f64, reads.len() as f64),
    );
    let sums: Vec<&Summary> = ok.iter().filter_map(|r| r.resp.as_ref()).collect();
    let qw: Vec<f64> = sums
        .iter()
        .map(|s| s.queue_wait.as_secs_f64() * 1e6)
        .collect();
    m.set(
        "scheduler.queue_wait_us_p90",
        tail_percentile(&qw, 90.0).unwrap_or(0.0),
    );
    let run: Vec<f64> = sums
        .iter()
        .filter(|s| !s.cache_hit)
        .map(|s| s.run_time.as_secs_f64() * 1e6)
        .collect();
    m.set("engine.run_us_p50", median(&run).unwrap_or(0.0));
    let wire: Vec<f64> = ok
        .iter()
        .filter_map(|r| {
            let s = r.resp.as_ref()?;
            Some(wire_us(r.t.rtt(), s.queue_wait, s.run_time))
        })
        .collect();
    m.set("wire.us_p50", median(&wire).unwrap_or(0.0));
    let hits = sums.iter().filter(|s| s.cache_hit).count();
    m.set("cache.hit_frac", ratio(hits as f64, sums.len() as f64));
    let engine: Vec<EngineRun> = sums.iter().filter_map(|s| s.engine.clone()).collect();
    engine_metrics(&engine, m);
}

/// Oracle graphs: the base graph plus the first `k` applied batches.
struct Oracle {
    base: EdgeList,
    batches: Vec<Vec<(VertexId, VertexId)>>,
    graphs: BTreeMap<usize, (EdgeList, Csr)>,
}

impl Oracle {
    fn graph(&mut self, k: usize) -> &(EdgeList, Csr) {
        let (base, batches) = (&self.base, &self.batches);
        self.graphs.entry(k).or_insert_with(|| {
            let prefix: Vec<&[(VertexId, VertexId)]> =
                batches[..k].iter().map(Vec::as_slice).collect();
            let el = plan::apply_adds(base, &prefix);
            let csr = Csr::from_edge_list(&el);
            (el, csr)
        })
    }

    /// Check `values` of `kind` against the oracle on some prefix in `ks`.
    fn check(
        &mut self,
        kind: OpKind,
        values: &[u32],
        ks: std::ops::RangeInclusive<usize>,
    ) -> Result<(), String> {
        let mut last = Err("no candidate graph".to_string());
        for k in ks {
            let (el, csr) = self.graph(k);
            last = match kind {
                OpKind::Bfs(root) => check::exact(values, &seq::bfs(csr, root).0),
                OpKind::Sssp(root) => check::exact(values, &reference::sssp(el, root)),
                OpKind::PageRank(d) => {
                    let got: Vec<f32> = values.iter().map(|b| f32::from_bits(*b)).collect();
                    check::pagerank(&got, &seq::pagerank(csr, d, PR_SUPERSTEPS).0)
                }
                OpKind::AddEdges(_) => Ok(()),
            };
            if last.is_ok() {
                break;
            }
        }
        last
    }
}

/// What the post-window check found.
struct Checked {
    wrong: Vec<String>,
    oracle: Oracle,
    /// Queries resubmitted after the window.
    resubmitted: u64,
    /// Edges the overlay added to the base graph.
    overlay_edges: u64,
}

/// Check the kept window replies (against the graph with whichever
/// batches could have been applied when each ran) and a resubmission of
/// the same queries after the window (against every applied batch).
fn check_replies(
    ctx: &Ctx,
    addr: SocketAddr,
    plan: &Plan,
    windows: &[&[Record]],
    trace: &mut Trace,
) -> io::Result<Checked> {
    // Batches in the order the server applied them: connection 0's
    // acknowledged writes, window by window.
    let mut applied: Vec<(Instant, Instant)> = Vec::new();
    let mut batches = Vec::new();
    for recs in windows {
        for r in recs
            .iter()
            .filter(|r| r.conn == 0 && r.class == Class::Write && r.error.is_none())
        {
            if let OpKind::AddEdges(b) = r.op.kind {
                applied.push((r.t.sent, r.t.done));
                batches.push(plan.batches[b].clone());
            }
        }
    }
    let base = trace.time("check.load_edges", NO_JOB, || {
        EdgeList::read_binary_file(ctx.edges())
    })?;
    let mut oracle = Oracle {
        base,
        batches,
        graphs: BTreeMap::new(),
    };
    let checked = checked_ops(plan, ctx.seed);
    let mut wrong = Vec::new();
    let mut queries = Vec::new();
    for recs in windows {
        for r in recs.iter().filter(|r| checked.contains(&(r.conn, r.idx))) {
            let Some(resp) = r.resp.as_ref().and_then(|s| s.kept.as_ref()) else {
                continue;
            };
            // Writes acknowledged before the read was sent were applied;
            // writes sent after its reply arrived were not.
            let lo = applied.iter().filter(|(_, done)| *done < r.t.sent).count();
            let hi = applied.iter().filter(|(sent, _)| *sent < r.t.done).count();
            if let Err(e) = oracle.check(r.op.kind, &resp.outcome.values_u32, lo..=hi) {
                wrong.push(format!("{:?} reply (batches {lo}..={hi}): {e}", r.op.kind));
            }
            queries.push(r.op.kind);
        }
    }
    let all = oracle.batches.len();
    let mut client = Client::connect(addr)?;
    let resubmitted = queries.len() as u64;
    for kind in queries {
        let resp = client
            .submit(&request(kind, "checker"))
            .map_err(|e| io::Error::other(e.to_string()))?;
        if let Err(e) = oracle.check(kind, &resp.outcome.values_u32, all..=all) {
            wrong.push(format!("{kind:?} after the window: {e}"));
        }
    }
    let info = client
        .list_graphs()
        .map_err(|e| io::Error::other(e.to_string()))?;
    let edges_end = info
        .iter()
        .find(|g| g.graph_id == GRAPH)
        .map_or(0, |g| g.n_edges);
    let overlay_edges = edges_end.saturating_sub(oracle.base.edges.len()) as u64;
    Ok(Checked {
        wrong,
        oracle,
        resubmitted,
        overlay_edges,
    })
}

/// Set up, measure, and check `serve-live`.
pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let plan = plan::load(&ctx.dir)?;
    let mut trace = Trace::new(ctx.traced, ctx.origin);
    let mut m = Metrics::default();

    // Set-up: preprocess, boot a server with machine-sized defaults, make
    // the graph resident. Repeated; the last server stays up.
    let mut setup = Vec::new();
    let mut pre = Vec::new();
    let mut server: Option<ServerHandle> = None;
    let mut stats = None;
    for k in 0..SETUP_REPEATS {
        if let Some(mut old) = server.take() {
            old.shutdown();
        }
        let dir = ctx.dir.join(format!("setup{k}"));
        std::fs::create_dir_all(&dir)?;
        let csr = dir.join("graph.gcsr");
        let t0 = Instant::now();
        stats = Some(binary_to_csr(
            ctx.edges(),
            &csr,
            &PreprocessOptions::default(),
        )?);
        let t1 = Instant::now();
        let handle = start(ServeConfig::new(dir.join("serve")))?;
        let t2 = Instant::now();
        Client::connect(handle.addr())?
            .register_graph(GRAPH, &csr.to_string_lossy())
            .map_err(|e| io::Error::other(e.to_string()))?;
        let t3 = Instant::now();
        trace.record("preprocess.binary_to_csr", NO_JOB, None, t0, t1);
        trace.record("serve.start", NO_JOB, None, t1, t2);
        trace.record("client.register_graph", NO_JOB, None, t2, t3);
        pre.push(t1.duration_since(t0).as_secs_f64());
        setup.push(t3.duration_since(t0).as_secs_f64());
        server = Some(handle);
    }
    let mut server = server.expect("at least one set-up");
    let addr = server.addr();
    m.set("setup_s", median(&setup).unwrap_or(0.0));
    record_preprocess(&mut m, &stats.expect("preprocessed"), &pre);

    let mut off = Trace::new(false, ctx.origin);
    let (plain, usage) = window(ctx, addr, &plan, &mut off, 0)?;
    let mut windows = vec![plain];
    if ctx.traced {
        let (traced, traced_usage) = window(ctx, addr, &plan, &mut trace, 1 << 40)?;
        let mut plain_m = Metrics::default();
        record(&windows[0], &usage, &mut plain_m);
        record(&traced, &traced_usage, &mut m);
        m.set(
            "trace.overhead_frac",
            ratio(
                m.get("job_mean_ms").unwrap_or(0.0),
                plain_m.get("job_mean_ms").unwrap_or(0.0),
            ) - 1.0,
        );
        windows.push(traced);
    } else {
        record(&windows[0], &usage, &mut m);
    }
    m.set("host.peak_rss_mb", host::peak_rss_mb());

    let measured = windows.last().expect("a window");
    if ctx.traced {
        let kept: Vec<&JobResponse> = measured
            .iter()
            .filter_map(|r| r.resp.as_ref().and_then(|s| s.kept.as_ref()))
            .collect();
        let encoded: Vec<f64> = kept
            .iter()
            .map(|r| r.to_json().encode().len() as f64)
            .collect();
        m.set("wire.reply_bytes_mean", mean(&encoded));
        if let Some(r) = kept
            .iter()
            .find(|r| r.outcome.value_type == gpsa_serve::ValueType::U32)
        {
            let frame = r.to_json();
            let ms = ceilings::median_ms(5, || {
                std::hint::black_box(frame.encode());
            });
            m.set("json.encode_us_per_reply", ms * 1e3);
        }
    }
    let mut attempted: u64 = windows.iter().map(|w| w.len() as u64).sum();
    let mut failed: u64 = windows
        .iter()
        .flatten()
        .filter(|r| r.error.is_some())
        .count() as u64;
    let refs: Vec<&[Record]> = windows.iter().map(Vec::as_slice).collect();
    let Checked {
        wrong,
        mut oracle,
        resubmitted,
        overlay_edges,
    } = check_replies(ctx, addr, &plan, &refs, &mut trace)?;
    attempted += resubmitted;
    failed += wrong.len() as u64;
    m.set("delta.overlay_edges_end", overlay_edges as f64);
    m.set("e2e.failed_frac", ratio(failed as f64, attempted as f64));
    if ctx.traced {
        let (_, csr) = oracle.graph(0);
        let root = plan.ops[0]
            .iter()
            .find_map(|o| match o.kind {
                OpKind::Bfs(r) => Some(r),
                _ => None,
            })
            .unwrap_or(0);
        let seq_ms = ceilings::median_ms(5, || {
            std::hint::black_box(seq::bfs(csr, root));
        });
        m.set("seq.ms_per_job", seq_ms);
        m.set(
            "engine.cost_ratio",
            ratio(m.get("engine.run_us_p50").unwrap_or(0.0) / 1e3, seq_ms),
        );
        let csr_path = ctx
            .dir
            .join(format!("setup{}", SETUP_REPEATS - 1))
            .join("graph.gcsr");
        ceilings::record(&csr_path, &mut m)?;
    }
    server.shutdown();
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        wrong,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_times_from_the_due_time_and_counts_lateness() {
        let clock = OpenLoop::new(Instant::now());
        // Due in the future: the sender waits, and is not late.
        let sent = clock.wait(30_000);
        assert!(sent >= clock.due(30_000));
        let on_time = Timing {
            due: clock.due(30_000),
            sent,
            done: sent + Duration::from_millis(5),
        };
        assert!(on_time.late_ms() < 20.0);
        // Due long ago (the connection was stalled): sent at once, and
        // the stall counts in its latency.
        let sent = clock.wait(0);
        assert!(sent.duration_since(clock.due(0)) >= Duration::from_millis(30));
        let stalled = Timing {
            due: clock.due(0),
            sent,
            done: sent + Duration::from_millis(5),
        };
        assert!(stalled.late_ms() >= 30.0);
        assert!((stalled.latency_ms() - stalled.late_ms() - 5.0).abs() < 1e-6);
        assert_eq!(stalled.rtt(), Duration::from_millis(5));
    }

    #[test]
    fn wire_time_is_what_the_server_did_not_account_for() {
        let ms = Duration::from_millis;
        assert_eq!(wire_us(ms(50), ms(10), ms(25)), 15_000.0);
        // A server clock that over-reports never yields negative wire time.
        assert_eq!(wire_us(ms(10), ms(8), ms(5)), 0.0);
    }
}
