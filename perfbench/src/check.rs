//! Output checks. A failed check is a wrong result: it counts as a
//! failed operation and makes the run exit non-zero.

use gpsa_algorithms::reference::max_abs_diff;

/// PageRank tolerance, the one the repository's cross-engine tests use.
pub const PAGERANK_TOL: f32 = 1e-5;

/// BFS levels on a `side`×`side` grid (edges both ways between 4-neighbours)
/// are the Manhattan distances from the root: no oracle run needed.
pub fn manhattan(levels: &[u32], side: usize, root: u32) -> Result<(), String> {
    if levels.len() != side * side {
        return Err(format!("{} levels for a {side}x{side} grid", levels.len()));
    }
    let (r0, c0) = (root as usize / side, root as usize % side);
    for (v, &got) in levels.iter().enumerate() {
        let want = (v / side).abs_diff(r0) + (v % side).abs_diff(c0);
        if got as usize != want {
            return Err(format!(
                "vertex {v}: level {got}, Manhattan distance {want}"
            ));
        }
    }
    Ok(())
}

/// PageRank values within [`PAGERANK_TOL`] of the oracle's.
pub fn pagerank(got: &[f32], want: &[f32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} ranks, oracle has {}", got.len(), want.len()));
    }
    let diff = max_abs_diff(got, want);
    if diff < PAGERANK_TOL {
        Ok(())
    } else {
        Err(format!("PageRank max |diff| {diff} over {PAGERANK_TOL}"))
    }
}

/// Integer results equal to the oracle's.
pub fn exact(got: &[u32], want: &[u32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} values, oracle has {}", got.len(), want.len()));
    }
    match got.iter().zip(want).position(|(g, w)| g != w) {
        None => Ok(()),
        Some(v) => Err(format!("vertex {v}: {} vs oracle {}", got[v], want[v])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpsa_graph::{generate, Csr};

    #[test]
    fn manhattan_agrees_with_seq_bfs_on_a_small_grid() {
        let side = 9;
        let csr = Csr::from_edge_list(&generate::grid(side, side));
        for root in [0u32, 4, 40, 80] {
            let (levels, _) = gpsa_baselines::seq::bfs(&csr, root);
            assert_eq!(manhattan(&levels, side, root), Ok(()));
        }
        let (mut levels, _) = gpsa_baselines::seq::bfs(&csr, 40);
        levels[7] += 1;
        assert!(manhattan(&levels, side, 40).is_err());
        assert!(manhattan(&levels[1..], side, 40).is_err());
    }

    #[test]
    fn pagerank_tolerance_and_exact_match() {
        assert!(pagerank(&[0.5, 0.25], &[0.500001, 0.25]).is_ok());
        assert!(pagerank(&[0.5, 0.25], &[0.5001, 0.25]).is_err());
        assert!(exact(&[1, 2], &[1, 2]).is_ok());
        assert!(exact(&[1, 3], &[1, 2]).is_err());
    }
}
