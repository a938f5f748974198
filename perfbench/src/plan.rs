//! Seeded inputs for each workload.
//!
//! `perfbench gen` runs in its own process before the measured one, so
//! neither its time nor its memory lands in a measurement. From the seed
//! alone it writes the binary edge file the system preprocesses
//! (`edges.bin`, little-endian `u32` pairs) and a line-based plan
//! (`plan.txt`) holding the BFS roots, the mutation batches and the
//! open-loop schedule of the serving workload.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use gpsa_graph::datasets::Dataset;
use gpsa_graph::generate::{grid, rmat, RmatParams};
use gpsa_graph::{Csr, Edge, EdgeList, VertexId};

/// Side of the `batch-deep` grid: 490 k vertices, 1.96 M edges.
pub const GRID_SIDE: usize = 700;
/// `batch-deep` roots have an eccentricity (BFS depth) in this band, so
/// every job runs within a few percent of the same number of supersteps.
pub const GRID_ECC_BAND: (usize, usize) = (1180, 1240);
/// Scale divisor of the soc-LiveJournal stand-in (1/64).
pub const SCALE: u64 = 64;
/// Scale divisor of the `batch-dense` twitter-2010 stand-in (1/256: 5.7 M
/// edges, so a job takes about 0.3 s and a window holds some 60 jobs; at
/// 1/64 one job took 1.1–1.5 s and a window's median moved with the host).
pub const DENSE_SCALE: u64 = 256;
/// `serve-live` offered load: operations per second, split evenly over
/// the two sender connections.
pub const SERVE_OPS_PER_S: f64 = 8.0;
/// Edges per `add_edges` batch.
pub const BATCH_EDGES: usize = 64;
/// Connection 0 (tenant `writer`) mix: share of writes and of repeated
/// queries; the rest are fresh point queries.
pub const CONN0_WRITE_SHARE: f64 = 0.2;
/// See [`CONN0_WRITE_SHARE`].
pub const CONN0_REPEAT_SHARE: f64 = 0.1;
/// Connection 1 (tenant `analyst`) mix: share of streamed PageRank jobs;
/// the rest are fresh point queries.
pub const CONN1_PAGERANK_SHARE: f64 = 0.1;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// PageRank, 5 supersteps, on the twitter-2010 1/256 stand-in.
    BatchDense,
    /// BFS on a 700×700 grid: ~1,200 small supersteps per job.
    BatchDeep,
    /// Open-loop mixed reads and writes against an in-process server.
    ServeLive,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::BatchDense,
        Workload::BatchDeep,
        Workload::ServeLive,
    ];

    /// Name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchDense => "batch-dense",
            Workload::BatchDeep => "batch-deep",
            Workload::ServeLive => "serve-live",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What a serving operation does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpKind {
    /// BFS point query.
    Bfs(VertexId),
    /// SSSP point query.
    Sssp(VertexId),
    /// PageRank (5 supersteps) with a per-job damping, streamed.
    PageRank(f32),
    /// `add_edges` with the batch at this index.
    AddEdges(usize),
}

/// One scheduled serving operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// When it is due, µs after the window opens.
    pub due_us: u64,
    /// What it does.
    pub kind: OpKind,
    /// A repeat of the connection's previous query (a cache hit unless a
    /// write intervened).
    pub repeat: bool,
}

/// Everything the measured process needs besides the edge file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Plan {
    /// `batch-deep` BFS roots, used in order and then cycled.
    pub roots: Vec<VertexId>,
    /// `serve-live` schedules, one per sender connection.
    pub ops: [Vec<Op>; 2],
    /// `serve-live` mutation batches.
    pub batches: Vec<Vec<(VertexId, VertexId)>>,
}

/// splitmix64: small, seedable, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seed a stream; `salt` separates the streams of one seed.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// BFS depth of grid vertex `v` on a `side`×`side` grid: the Manhattan
/// distance to the farthest corner.
pub fn grid_eccentricity(v: usize, side: usize) -> usize {
    let (r, c) = (v / side, v % side);
    r.max(side - 1 - r) + c.max(side - 1 - c)
}

/// The generated graph of `workload` for `seed`.
pub fn graph(workload: Workload, seed: u64) -> EdgeList {
    let rmat_of = |d: Dataset, scale: u64| {
        let el = rmat(
            d.scaled_nodes(scale),
            d.scaled_edges(scale),
            RmatParams::default(),
            Rng::new(seed, d.seed()).next_u64(),
        );
        // Preprocessing sizes the graph by its largest id; match it.
        EdgeList::from_edges(el.edges)
    };
    match workload {
        Workload::BatchDense => rmat_of(Dataset::Twitter, DENSE_SCALE),
        Workload::BatchDeep => grid(GRID_SIDE, GRID_SIDE),
        Workload::ServeLive => rmat_of(Dataset::LiveJournal, SCALE),
    }
}

/// Vertices of the giant strongly connected component that have
/// out-edges: the strongly connected set around the highest-degree hub.
/// Every root drawn from it reaches the same vertex set, so BFS and SSSP
/// jobs from them do comparable work.
pub fn giant_component_roots(csr: &Csr) -> Vec<VertexId> {
    let n = csr.n_vertices();
    let hub = (0..n as VertexId)
        .max_by_key(|&v| csr.out_degree(v))
        .unwrap_or(0);
    let fwd = reach(csr, hub);
    let bwd = reach(&csr.transpose(), hub);
    (0..n)
        .filter(|&v| fwd[v] && bwd[v] && csr.out_degree(v as VertexId) > 0)
        .map(|v| v as VertexId)
        .collect()
}

fn reach(csr: &Csr, root: VertexId) -> Vec<bool> {
    let mut seen = vec![false; csr.n_vertices()];
    let mut stack = vec![root];
    seen[root as usize] = true;
    while let Some(u) = stack.pop() {
        for &v in csr.neighbors(u) {
            if !seen[v as usize] {
                seen[v as usize] = true;
                stack.push(v);
            }
        }
    }
    seen
}

/// Build the plan of `workload` over `el` for a window of `seconds`.
pub fn make_plan(workload: Workload, el: &EdgeList, seed: u64, seconds: f64) -> Plan {
    let mut plan = Plan::default();
    let mut rng = Rng::new(seed, 0x5EED);
    match workload {
        Workload::BatchDense => {}
        Workload::BatchDeep => {
            let (lo, hi) = GRID_ECC_BAND;
            let mut band: Vec<VertexId> = (0..GRID_SIDE * GRID_SIDE)
                .filter(|&v| (lo..=hi).contains(&grid_eccentricity(v, GRID_SIDE)))
                .map(|v| v as VertexId)
                .collect();
            rng.shuffle(&mut band);
            band.truncate(1000);
            plan.roots = band;
        }
        Workload::ServeLive => {
            let mut roots = giant_component_roots(&Csr::from_edge_list(el));
            rng.shuffle(&mut roots);
            let mut fresh = roots.into_iter().cycle();
            let period_us = 2.0 * 1e6 / SERVE_OPS_PER_S;
            let per_conn = (seconds * SERVE_OPS_PER_S / 2.0).ceil() as usize;
            let count = |share: f64| (share * per_conn as f64).round() as usize;
            // Each class gets its exact share of every window, in seeded
            // order: a repeat is paired with the point query it repeats.
            let writes = count(CONN0_WRITE_SHARE);
            let pairs = count(CONN0_REPEAT_SHARE);
            let mut units: [Vec<Unit>; 2] = [
                [Unit::Write]
                    .repeat(writes)
                    .into_iter()
                    .chain([Unit::Pair].repeat(pairs))
                    .chain([Unit::Point].repeat(per_conn - writes - 2 * pairs))
                    .collect(),
                [Unit::PageRank]
                    .repeat(count(CONN1_PAGERANK_SHARE))
                    .into_iter()
                    .chain([Unit::Point].repeat(per_conn - count(CONN1_PAGERANK_SHARE)))
                    .collect(),
            ];
            for (conn, units) in units.iter_mut().enumerate() {
                rng.shuffle(units);
                let mut kinds = Vec::with_capacity(per_conn);
                let mut points = 0usize;
                for unit in units.iter() {
                    let mut point = || {
                        let root = fresh.next().expect("giant component is non-empty");
                        points += 1;
                        // Alternate so BFS and SSSP split the queries evenly.
                        if points % 2 == 1 {
                            OpKind::Bfs(root)
                        } else {
                            OpKind::Sssp(root)
                        }
                    };
                    match unit {
                        Unit::Point => kinds.push((point(), false)),
                        Unit::Pair => {
                            let q = point();
                            kinds.push((q, false));
                            kinds.push((q, true));
                        }
                        Unit::Write => {
                            plan.batches.push(random_batch(&mut rng, el.n_vertices));
                            kinds.push((OpKind::AddEdges(plan.batches.len() - 1), false));
                        }
                        Unit::PageRank => {
                            let damping = 0.80 + 0.1 * rng.unit() as f32;
                            kinds.push((OpKind::PageRank(damping), false));
                        }
                    }
                }
                let offset = conn as f64 * period_us / 2.0;
                plan.ops[conn] = kinds
                    .into_iter()
                    .enumerate()
                    .map(|(k, (kind, repeat))| Op {
                        due_us: (offset + k as f64 * period_us) as u64,
                        kind,
                        repeat,
                    })
                    .collect();
            }
        }
    }
    plan
}

/// A slot group of a serving schedule.
#[derive(Debug, Clone, Copy)]
enum Unit {
    Point,
    /// A point query and its repeat, back to back.
    Pair,
    Write,
    PageRank,
}

fn random_batch(rng: &mut Rng, n: usize) -> Vec<(VertexId, VertexId)> {
    (0..BATCH_EDGES)
        .map(|_| {
            let u = rng.below(n);
            let v = (u + 1 + rng.below(n - 1)) % n;
            (u as VertexId, v as VertexId)
        })
        .collect()
}

/// Generate and write the inputs of `workload` into `dir`.
pub fn generate(workload: Workload, seed: u64, seconds: f64, dir: &Path) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let el = graph(workload, seed);
    el.write_binary_file(dir.join("edges.bin"))?;
    let plan = make_plan(workload, &el, seed, seconds);
    fs::write(dir.join("plan.txt"), render(&plan))
}

fn render(plan: &Plan) -> String {
    let mut s = String::new();
    for r in &plan.roots {
        let _ = writeln!(s, "root {r}");
    }
    for (i, b) in plan.batches.iter().enumerate() {
        let _ = write!(s, "batch {i}");
        for (u, v) in b {
            let _ = write!(s, " {u}:{v}");
        }
        s.push('\n');
    }
    for (conn, ops) in plan.ops.iter().enumerate() {
        for op in ops {
            let kind = match op.kind {
                OpKind::Bfs(r) => format!("bfs {r}"),
                OpKind::Sssp(r) => format!("sssp {r}"),
                OpKind::PageRank(d) => format!("pagerank {}", d.to_bits()),
                OpKind::AddEdges(b) => format!("add {b}"),
            };
            let rep = if op.repeat { " repeat" } else { "" };
            let _ = writeln!(s, "op {conn} {} {kind}{rep}", op.due_us);
        }
    }
    s
}

/// Read the plan written by [`generate`].
pub fn load(dir: &Path) -> io::Result<Plan> {
    parse(&fs::read_to_string(dir.join("plan.txt"))?)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("plan.txt: {e}")))
}

fn parse(text: &str) -> Result<Plan, String> {
    let mut plan = Plan::default();
    for (no, line) in text.lines().enumerate() {
        let bad = || format!("line {}: {line:?}", no + 1);
        let f: Vec<&str> = line.split_whitespace().collect();
        let num = |i: usize| f.get(i).and_then(|x| x.parse::<u64>().ok()).ok_or_else(bad);
        match f.first().copied() {
            Some("root") => plan.roots.push(num(1)? as VertexId),
            Some("batch") => {
                let edges = f[2..]
                    .iter()
                    .map(|e| {
                        let (u, v) = e.split_once(':')?;
                        Some((u.parse().ok()?, v.parse().ok()?))
                    })
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(bad)?;
                plan.batches.push(edges);
            }
            Some("op") => {
                let conn = num(1)? as usize;
                let arg = num(4)?;
                let kind = match f.get(3).copied() {
                    Some("bfs") => OpKind::Bfs(arg as VertexId),
                    Some("sssp") => OpKind::Sssp(arg as VertexId),
                    Some("pagerank") => OpKind::PageRank(f32::from_bits(arg as u32)),
                    Some("add") => OpKind::AddEdges(arg as usize),
                    _ => return Err(bad()),
                };
                plan.ops.get_mut(conn).ok_or_else(bad)?.push(Op {
                    due_us: num(2)?,
                    kind,
                    repeat: f.get(5) == Some(&"repeat"),
                });
            }
            _ => return Err(bad()),
        }
    }
    Ok(plan)
}

/// The base graph's edges plus every batch in `applied`, with the
/// overlay's add rule: a pair is inserted once, and only if absent.
pub fn apply_adds(base: &EdgeList, applied: &[&[(VertexId, VertexId)]]) -> EdgeList {
    let mut present: std::collections::HashSet<(VertexId, VertexId)> =
        base.edges.iter().map(|e| (e.src, e.dst)).collect();
    let mut edges = base.edges.clone();
    for batch in applied {
        for &(u, v) in *batch {
            if present.insert((u, v)) {
                edges.push(Edge::new(u, v));
            }
        }
    }
    let n = edges
        .iter()
        .map(|e| e.src.max(e.dst) as usize + 1)
        .max()
        .unwrap_or(0)
        .max(base.n_vertices);
    EdgeList::with_vertices(edges, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_plan_round_trips_and_keeps_mix_shares() {
        let el = graph(Workload::ServeLive, 3);
        let plan = make_plan(Workload::ServeLive, &el, 3, 60.0);
        assert_eq!(parse(&render(&plan)).unwrap(), plan);
        let all: Vec<&Op> = plan.ops.iter().flatten().collect();
        let reads = all
            .iter()
            .filter(|o| !matches!(o.kind, OpKind::AddEdges(_)))
            .count() as f64;
        let share = |f: &dyn Fn(&Op) -> bool| all.iter().filter(|o| f(o)).count() as f64 / reads;
        assert!(share(&|o| o.repeat) < 0.1);
        assert!(share(&|o| matches!(o.kind, OpKind::PageRank(_))) < 0.1);
        // Repeats only follow a fresh point query on the same connection.
        for w in plan.ops[0].windows(2) {
            if w[1].repeat {
                assert!(!w[0].repeat && w[0].kind == w[1].kind);
            }
        }
        assert!(plan.ops[1].iter().all(|o| !o.repeat));
    }

    #[test]
    fn deep_roots_sit_in_the_eccentricity_band() {
        let el = graph(Workload::BatchDeep, 1);
        let plan = make_plan(Workload::BatchDeep, &el, 1, 10.0);
        assert!(plan.roots.len() >= 100);
        for &r in &plan.roots {
            let e = grid_eccentricity(r as usize, GRID_SIDE);
            assert!((GRID_ECC_BAND.0..=GRID_ECC_BAND.1).contains(&e));
        }
        assert_eq!(grid_eccentricity(0, GRID_SIDE), 2 * (GRID_SIDE - 1));
    }

    #[test]
    fn adds_follow_the_overlay_rule() {
        let base = EdgeList::from_edges(vec![Edge::new(0, 1), Edge::new(0, 1)]);
        let b1: &[(u32, u32)] = &[(0, 1), (1, 2), (1, 2)];
        let out = apply_adds(&base, &[b1]);
        assert_eq!(out.edges.len(), 3);
        assert_eq!(out.n_vertices, 3);
    }
}
