//! Layer ceilings for the traced run, through public APIs only: how fast
//! the storage can be streamed and decoded by one thread, and how fast
//! the actor runtime passes a message compared with a bare channel.

use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use actor::{Actor, Addr, Ctx, System};
use crossbeam_channel::{bounded, Sender};
use gpsa_graph::DiskCsr;
use gpsa_mmap::Mmap;

use crate::report::Metrics;
use crate::stats::median;

/// Each ceiling repeats its pass until at least this much time is spent.
const MIN_SPAN: Duration = Duration::from_millis(200);
/// Hops per ping-pong measurement.
const PING_HOPS: u64 = 100_000;

/// Repeat `pass` until [`MIN_SPAN`] has elapsed (at least 3 passes);
/// returns the summed work units and the elapsed seconds.
fn repeat(mut pass: impl FnMut() -> u64) -> (u64, f64) {
    let start = Instant::now();
    let (mut units, mut passes) = (0, 0);
    while passes < 3 || start.elapsed() < MIN_SPAN {
        units += pass();
        passes += 1;
    }
    (units, start.elapsed().as_secs_f64())
}

/// Every ceiling that does not depend on the workload: storage streamed
/// and decoded over `csr`, and actor vs channel message passing.
pub fn record(csr: &Path, m: &mut Metrics) -> io::Result<()> {
    m.set("mmap.seq_gbps", mmap_seq_gbps(csr)?);
    m.set("disk_csr.decode_ns_per_edge", decode_ns_per_edge(csr)?);
    ping(m);
    Ok(())
}

/// Sequential read bandwidth over the mapped CSR file, GB/s.
fn mmap_seq_gbps(csr: &Path) -> io::Result<f64> {
    let map = Mmap::open(csr).map_err(|e| io::Error::other(e.to_string()))?;
    let bytes = map.as_bytes();
    let (total, secs) = repeat(|| {
        let sum = bytes.chunks_exact(8).fold(0u64, |acc, w| {
            acc.wrapping_add(u64::from_le_bytes(w.try_into().unwrap()))
        });
        black_box(sum);
        bytes.len() as u64
    });
    Ok(total as f64 / secs / 1e9)
}

/// One thread sweeping every record with an `EdgeCursor`, ns per edge.
fn decode_ns_per_edge(csr: &Path) -> io::Result<f64> {
    let graph = DiskCsr::open(csr)?;
    let mut buf = Vec::with_capacity(1 << 16);
    let (edges, secs) = repeat(|| {
        let mut cursor = graph.cursor(0..graph.n_vertices() as u32);
        let mut edges = 0u64;
        while cursor.peek_vid().is_some() {
            buf.clear();
            cursor.take_rec_into(&mut buf);
            edges += buf.len() as u64;
            black_box(&buf);
        }
        edges
    });
    Ok(secs * 1e9 / edges.max(1) as f64)
}

/// Median wall time of `reps` calls of `f`, ms.
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times).unwrap_or(0.0)
}

enum Ball {
    Partner(Addr<Bouncer>),
    Hop(u64),
}

struct Bouncer {
    partner: Option<Addr<Bouncer>>,
    done: Sender<()>,
}

impl Actor for Bouncer {
    type Msg = Ball;

    fn handle(&mut self, msg: Ball, _ctx: &mut Ctx<'_, Self>) {
        match msg {
            Ball::Partner(p) => self.partner = Some(p),
            Ball::Hop(0) => {
                let _ = self.done.send(());
            }
            Ball::Hop(n) => {
                if let Some(p) = &self.partner {
                    let _ = p.send(Ball::Hop(n - 1));
                }
            }
        }
    }
}

/// Messages per second between two actors bouncing one message on the
/// engine's runtime (2 workers), next to two threads doing the same over
/// bare channels.
fn ping(m: &mut Metrics) {
    let (done_tx, done_rx) = bounded(1);
    let system = System::builder().workers(2).name("perfbench-ping").build();
    let a = system.spawn(Bouncer {
        partner: None,
        done: done_tx.clone(),
    });
    let b = system.spawn(Bouncer {
        partner: None,
        done: done_tx,
    });
    let wired =
        a.send(Ball::Partner(b.clone())).is_ok() && b.send(Ball::Partner(a.clone())).is_ok();
    let start = Instant::now();
    if wired && a.send(Ball::Hop(PING_HOPS)).is_ok() && done_rx.recv().is_ok() {
        m.set(
            "actor.ping_msgs_per_s",
            PING_HOPS as f64 / start.elapsed().as_secs_f64(),
        );
    }
    drop((a, b));
    system.shutdown();

    let (to_peer, peer_rx) = bounded::<u64>(1);
    let (to_main, main_rx) = bounded::<u64>(1);
    let start = Instant::now();
    std::thread::scope(|s| {
        s.spawn(move || {
            while let Ok(n) = peer_rx.recv() {
                if n == 0 || to_main.send(n - 1).is_err() {
                    break;
                }
            }
        });
        // Each send is one hop; the value carried is the hops left.
        let mut left = PING_HOPS;
        while left > 0 && to_peer.send(left - 1).is_ok() && left > 1 {
            match main_rx.recv() {
                Ok(k) => left = k,
                Err(_) => break,
            }
        }
        drop(to_peer);
    });
    m.set(
        "actor.channel_msgs_per_s",
        PING_HOPS as f64 / start.elapsed().as_secs_f64(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_reports_both_rates() {
        let mut m = Metrics::default();
        ping(&mut m);
        assert!(m.get("actor.ping_msgs_per_s").unwrap() > 0.0);
        assert!(m.get("actor.channel_msgs_per_s").unwrap() > 0.0);
    }
}
