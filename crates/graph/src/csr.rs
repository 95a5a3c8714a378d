//! CSR (compressed sparse row) kernel for random walks with restart.
//!
//! [`crate::rwr::try_random_walk_with_restart`] rebuilds a
//! `Vec<Vec<(usize, f64)>>` of normalized transitions for every walk —
//! one heap allocation per node per walk, scattered across the heap, on
//! the hottest loop of resolution. [`CsrGraph`] re-lays the adjacency
//! structure once into three flat arrays (row offsets, column indices,
//! weights) so every power iteration is one cache-friendly sparse
//! matvec over contiguous memory, and the per-walk scratch
//! ([`CsrScratch`]) is reused across walks with zero steady-state
//! allocation.
//!
//! # Bit-equality contract
//!
//! [`CsrGraph::walk_into`] is **bit-identical** to the dense walk on the
//! same graph, including after edge deletions, because every floating
//! point expression is evaluated in the same shape and order:
//!
//! * neighbor order: [`CsrGraph::from_graph`] copies each adjacency list
//!   in order, so per-row summation and spreading visit neighbors in
//!   exactly the dense sequence;
//! * edge deletion: [`CsrGraph::zero_edge`] sets the weight to `0.0`
//!   instead of compacting the row. Row totals are unchanged bit-for-bit
//!   (`w1 + 0.0 + w3` performs `(w1 + 0.0) + w3 = w1 + w3` exactly for
//!   the non-negative weights the graph admits), and a zeroed slot
//!   contributes `spread * (0.0 / total) = 0.0` to a non-negative
//!   accumulator, which is the identity;
//! * normalization: transition probabilities are `w / total` with
//!   `total` summed left to right — the exact expressions of
//!   [`crate::graph::Graph::transitions`] /
//!   [`crate::graph::Graph::weight_sum`]. They are computed once at
//!   build time and kept current by [`CsrGraph::zero_edge`], which
//!   renormalizes exactly the two affected rows with the same
//!   left-to-right loop (zeroed slots contribute `+ 0.0`, the f64
//!   identity on the non-negative totals the graph admits), so a walk
//!   pays no per-walk normalization at all;
//! * the power iteration itself (mass skip, dangling teleport,
//!   `next[start] += c + dangling`, L∞ residual, buffer swap) is copied
//!   from `rwr.rs` line for line.
//!
//! `crates/graph/tests/csr_equivalence.rs` proves the contract by
//! proptest over random graphs, disconnected components, isolated start
//! nodes, and interleaved edge-deletion sequences.

use crate::error::GraphError;
use crate::graph::Graph;
use crate::rwr::{ConvergenceReport, RwrConfig};

/// A [`Graph`] frozen into compressed-sparse-row form for walk kernels.
///
/// Rows are nodes; `row_offsets[v]..row_offsets[v + 1]` indexes the
/// neighbors of `v` in `col_idx` / `weights`, in the graph's adjacency
/// order. The structure is immutable after construction except for
/// [`CsrGraph::zero_edge`], which models Algorithm 1's edge deletion by
/// weight-zeroing (the structural slot stays, its mass goes to zero).
#[derive(Debug, Clone)]
pub struct CsrGraph {
    row_offsets: Vec<usize>,
    col_idx: Vec<u32>,
    weights: Vec<f64>,
    /// Interleaved kernel slots `(column, transition probability)` —
    /// probability is `w / row total`, maintained eagerly so walks never
    /// renormalize. One contiguous stream for the whole matrix, so the
    /// matvec reads a single prefetch-friendly sequence (the dense walk
    /// chases one heap allocation per node). Slots of a zero-total row
    /// are stale-but-unread: the walk treats such rows as dangling.
    slots: Vec<(u32, f64)>,
    /// Per-row weight totals (`<= 0.0` = dangling row).
    row_total: Vec<f64>,
}

impl CsrGraph {
    /// Freeze `graph` into CSR form, preserving adjacency order.
    pub fn from_graph(graph: &Graph) -> CsrGraph {
        let n = graph.len();
        let mut row_offsets = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut weights = Vec::new();
        row_offsets.push(0);
        for v in 0..n {
            for &(u, w) in graph.neighbors(v) {
                debug_assert!(u <= u32::MAX as usize, "node id exceeds the u32 layout");
                col_idx.push(u as u32);
                weights.push(w);
            }
            row_offsets.push(col_idx.len());
        }
        let nnz = col_idx.len();
        let mut csr = CsrGraph {
            row_offsets,
            col_idx,
            weights,
            slots: vec![(0, 0.0); nnz],
            row_total: vec![0.0; n],
        };
        for v in 0..n {
            csr.renormalize_row(v);
        }
        csr
    }

    /// Recompute one row's total and transition probabilities — the CSR
    /// image of [`crate::graph::Graph::transitions`]: total summed left
    /// to right over every structural slot (zeroed slots add `+ 0.0`,
    /// exact on non-negative weights), probabilities as `w / total`. A
    /// zero-total row keeps its stale `prob` slots; the walk never reads
    /// them (the row is dangling).
    fn renormalize_row(&mut self, v: usize) {
        let (s, e) = (self.row_offsets[v], self.row_offsets[v + 1]);
        let mut total = 0.0f64;
        for i in s..e {
            total += self.weights[i];
        }
        self.row_total[v] = total;
        if total > 0.0 {
            for i in s..e {
                self.slots[i] = (self.col_idx[i], self.weights[i] / total);
            }
        }
    }

    /// Number of nodes (rows).
    pub fn len(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Structural non-zero slots (directed half-edges at build time;
    /// zeroed slots still count — they occupy layout, not mass). Feeds
    /// the `csr_nnz` observability counter.
    pub fn nnz(&self) -> usize {
        self.weights.len()
    }

    /// Delete the undirected edge `a – b` by zeroing its weight in both
    /// rows. Returns true when at least one slot held non-zero mass.
    /// Out-of-range endpoints are a no-op, matching
    /// [`Graph::remove_edge`]'s tolerance.
    pub fn zero_edge(&mut self, a: usize, b: usize) -> bool {
        let mut removed = false;
        for (from, to) in [(a, b), (b, a)] {
            if from >= self.len() {
                continue;
            }
            let (s, e) = (self.row_offsets[from], self.row_offsets[from + 1]);
            let mut touched = false;
            for i in s..e {
                if self.col_idx[i] as usize == to && self.weights[i] != 0.0 {
                    self.weights[i] = 0.0;
                    touched = true;
                }
            }
            if touched {
                self.renormalize_row(from);
                removed = true;
            }
        }
        removed
    }

    /// Current weight of edge `a – b` (`None` when absent or zeroed).
    pub fn edge_weight(&self, a: usize, b: usize) -> Option<f64> {
        if a >= self.len() {
            return None;
        }
        let (s, e) = (self.row_offsets[a], self.row_offsets[a + 1]);
        (s..e)
            .find(|&i| self.col_idx[i] as usize == b && self.weights[i] != 0.0)
            .map(|i| self.weights[i])
    }

    /// Random walk with restart on the CSR layout, writing the
    /// stationary distribution into `scratch` (read it back through
    /// [`CsrScratch::distribution`]). Bit-identical to
    /// [`crate::rwr::try_random_walk_with_restart`] on the equivalent
    /// [`Graph`] — see the module docs for the argument. Steady-state
    /// allocation-free: `scratch` buffers are resized once and reused.
    pub fn walk_into(
        &self,
        start: usize,
        cfg: &RwrConfig,
        scratch: &mut CsrScratch,
    ) -> Result<ConvergenceReport, GraphError> {
        let n = self.len();
        if start >= n {
            return Err(GraphError::NodeOutOfRange {
                node: start,
                len: n,
            });
        }
        let c = cfg.restart.clamp(1e-6, 1.0);

        scratch.p.clear();
        scratch.p.resize(n, 0.0);
        scratch.next.clear();
        scratch.next.resize(n, 0.0);
        scratch.p[start] = 1.0;
        let mut report = ConvergenceReport {
            iterations: 0,
            residual: f64::INFINITY,
            converged: false,
        };

        let CsrScratch { p, next } = scratch;
        for it in 0..cfg.max_iterations {
            next.iter_mut().for_each(|x| *x = 0.0);
            let mut dangling = 0.0;
            // The sparse matvec: next += (1 - c) · Pᵀ · p, with dangling
            // mass routed back to the start below. Rows come off the
            // offset windows and slots off zipped column/probability
            // slices, so the hot loop carries no bounds checks.
            for ((&mass, &total), w) in p
                .iter()
                .zip(&self.row_total)
                .zip(self.row_offsets.windows(2))
            {
                if mass <= 0.0 {
                    continue;
                }
                let spread = mass * (1.0 - c);
                if total <= 0.0 {
                    dangling += spread;
                } else {
                    for &(u, pr) in &self.slots[w[0]..w[1]] {
                        next[u as usize] += spread * pr;
                    }
                }
            }
            next[start] += c + dangling;

            let diff = p
                .iter()
                .zip(next.iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            std::mem::swap(p, next);
            report.iterations = it + 1;
            report.residual = diff;
            if diff < cfg.tolerance {
                report.converged = true;
                break;
            }
        }
        Ok(report)
    }
}

/// Reusable per-walk buffers for [`CsrGraph::walk_into`]. Construct once
/// per document and reuse: after the first walk on a given graph shape
/// no further heap allocation happens.
#[derive(Debug, Default)]
pub struct CsrScratch {
    /// Probability vector (the walk's result after `walk_into` returns).
    p: Vec<f64>,
    /// Double buffer for the power iteration.
    next: Vec<f64>,
}

impl CsrScratch {
    /// The stationary distribution computed by the last
    /// [`CsrGraph::walk_into`] call.
    pub fn distribution(&self) -> &[f64] {
        &self.p
    }
}

/// Allocating convenience wrapper: CSR walk returning a fresh
/// distribution vector, for callers without a long-lived scratch.
/// Bit-identical to [`crate::rwr::try_random_walk_with_restart`] on the
/// source graph.
pub fn random_walk_with_restart_csr(
    graph: &CsrGraph,
    start: usize,
    cfg: &RwrConfig,
) -> Result<(Vec<f64>, ConvergenceReport), GraphError> {
    let mut scratch = CsrScratch::default();
    let report = graph.walk_into(start, cfg, &mut scratch)?;
    Ok((scratch.p, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rwr::try_random_walk_with_restart;

    fn demo_graph() -> Graph {
        let mut g = Graph::new(5);
        g.add_edge(0, 1, 2.0);
        g.add_edge(0, 2, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 3, 4.0);
        g.add_edge(3, 4, 1.0);
        g.add_edge(1, 4, 0.5);
        g
    }

    fn assert_bit_equal(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn csr_walk_is_bit_identical_to_dense() {
        let g = demo_graph();
        let csr = CsrGraph::from_graph(&g);
        let cfg = RwrConfig::default();
        for start in 0..g.len() {
            let (dense, dr) = try_random_walk_with_restart(&g, start, &cfg).unwrap();
            let (sparse, sr) = random_walk_with_restart_csr(&csr, start, &cfg).unwrap();
            assert_bit_equal(&dense, &sparse);
            assert_eq!(dr, sr);
        }
    }

    #[test]
    fn zero_edge_matches_dense_removal() {
        let mut g = demo_graph();
        let mut csr = CsrGraph::from_graph(&g);
        assert!(csr.zero_edge(2, 3));
        assert!(g.remove_edge(2, 3));
        assert!(!csr.zero_edge(2, 3), "already zeroed");
        assert_eq!(csr.edge_weight(2, 3), None);
        assert_eq!(csr.edge_weight(3, 2), None);
        let cfg = RwrConfig::default();
        for start in 0..g.len() {
            let (dense, _) = try_random_walk_with_restart(&g, start, &cfg).unwrap();
            let (sparse, _) = random_walk_with_restart_csr(&csr, start, &cfg).unwrap();
            assert_bit_equal(&dense, &sparse);
        }
    }

    #[test]
    fn scratch_reuse_across_walks_matches_fresh() {
        let csr = CsrGraph::from_graph(&demo_graph());
        let cfg = RwrConfig::default();
        let mut scratch = CsrScratch::default();
        for start in 0..csr.len() {
            csr.walk_into(start, &cfg, &mut scratch).unwrap();
            let (fresh, _) = random_walk_with_restart_csr(&csr, start, &cfg).unwrap();
            assert_bit_equal(scratch.distribution(), &fresh);
        }
    }

    #[test]
    fn out_of_range_start_is_rejected() {
        let csr = CsrGraph::from_graph(&demo_graph());
        let mut scratch = CsrScratch::default();
        assert!(matches!(
            csr.walk_into(99, &RwrConfig::default(), &mut scratch),
            Err(GraphError::NodeOutOfRange { node: 99, len: 5 })
        ));
    }

    #[test]
    fn nnz_counts_structural_slots() {
        let g = demo_graph();
        let mut csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.nnz(), 2 * g.edge_count());
        csr.zero_edge(0, 1);
        // Zeroing keeps the slot: nnz is structural, not mass-based.
        assert_eq!(csr.nnz(), 2 * g.edge_count());
    }

    #[test]
    fn empty_graph_handles() {
        let csr = CsrGraph::from_graph(&Graph::new(0));
        assert!(csr.is_empty());
        assert_eq!(csr.nnz(), 0);
    }
}
