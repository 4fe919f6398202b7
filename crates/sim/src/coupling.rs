//! Device coupling maps (qubit connectivity graphs) and shortest-path
//! queries used by the SWAP-routing transpiler.

use std::collections::VecDeque;

/// The qubit-connectivity graph of a device: two-qubit gates may only act
/// on adjacent physical qubits, everything else needs SWAP routing.
///
/// # Example
///
/// ```
/// use hammer_sim::CouplingMap;
///
/// let line = CouplingMap::linear(5);
/// assert!(line.is_edge(1, 2));
/// assert!(!line.is_edge(0, 4));
/// assert_eq!(line.distance(0, 4), Some(4));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CouplingMap {
    num_qubits: usize,
    /// Adjacency list, both directions stored.
    adj: Vec<Vec<usize>>,
}

impl CouplingMap {
    /// Builds a map from an undirected edge list.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` is zero, an endpoint is out of range, or an
    /// edge is a self-loop.
    #[must_use]
    pub fn from_edges(num_qubits: usize, edges: &[(usize, usize)]) -> Self {
        assert!(num_qubits > 0, "coupling map needs at least one qubit");
        let mut adj = vec![Vec::new(); num_qubits];
        for &(a, b) in edges {
            assert!(
                a < num_qubits && b < num_qubits,
                "edge ({a},{b}) out of range"
            );
            assert!(a != b, "self-loop on qubit {a}");
            if !adj[a].contains(&b) {
                adj[a].push(b);
                adj[b].push(a);
            }
        }
        for list in &mut adj {
            list.sort_unstable();
        }
        Self { num_qubits, adj }
    }

    /// A linear chain `0 — 1 — … — n−1`, the dominant sub-structure of
    /// IBM's heavy-hex devices.
    #[must_use]
    pub fn linear(n: usize) -> Self {
        let edges: Vec<_> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        Self::from_edges(n, &edges)
    }

    /// A ring of `n` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    #[must_use]
    pub fn ring(n: usize) -> Self {
        assert!(n >= 3, "ring needs at least 3 qubits");
        let mut edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        edges.push((n - 1, 0));
        Self::from_edges(n, &edges)
    }

    /// A `rows × cols` 2-D grid — the Sycamore-style topology. Qubit
    /// `r·cols + c` sits at row `r`, column `c`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn grid(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let q = r * cols + c;
                if c + 1 < cols {
                    edges.push((q, q + 1));
                }
                if r + 1 < rows {
                    edges.push((q, q + cols));
                }
            }
        }
        Self::from_edges(rows * cols, &edges)
    }

    /// Fully connected (all-to-all) — the "no routing needed" reference.
    #[must_use]
    pub fn full(n: usize) -> Self {
        let mut edges = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                edges.push((a, b));
            }
        }
        Self::from_edges(n, &edges)
    }

    /// The 27-qubit IBM Falcon heavy-hex lattice (the topology of
    /// Paris/Manhattan-class devices the paper runs on), using IBM's
    /// published edge list.
    #[must_use]
    pub fn heavy_hex_falcon() -> Self {
        // ibmq_paris / ibm_hanoi 27-qubit coupling list.
        let edges = [
            (0, 1),
            (1, 2),
            (1, 4),
            (2, 3),
            (3, 5),
            (4, 7),
            (5, 8),
            (6, 7),
            (7, 10),
            (8, 9),
            (8, 11),
            (10, 12),
            (11, 14),
            (12, 13),
            (12, 15),
            (13, 14),
            (14, 16),
            (15, 18),
            (16, 19),
            (17, 18),
            (18, 21),
            (19, 20),
            (19, 22),
            (21, 23),
            (22, 25),
            (23, 24),
            (24, 25),
            (25, 26),
        ];
        Self::from_edges(27, &edges)
    }

    /// Number of physical qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Neighbors of `q`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn neighbors(&self, q: usize) -> &[usize] {
        &self.adj[q]
    }

    /// Undirected edge list with `a < b`.
    #[must_use]
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (a, list) in self.adj.iter().enumerate() {
            for &b in list {
                if a < b {
                    out.push((a, b));
                }
            }
        }
        out
    }

    /// True if `a` and `b` are adjacent.
    #[must_use]
    pub fn is_edge(&self, a: usize, b: usize) -> bool {
        a < self.num_qubits && self.adj[a].contains(&b)
    }

    /// BFS distances from `src` to every qubit (`None` = unreachable).
    #[must_use]
    pub fn distances_from(&self, src: usize) -> Vec<Option<usize>> {
        assert!(src < self.num_qubits, "qubit {src} out of range");
        let mut dist = vec![None; self.num_qubits];
        dist[src] = Some(0);
        let mut queue = VecDeque::from([src]);
        while let Some(u) = queue.pop_front() {
            let du = dist[u].expect("visited");
            for &v in &self.adj[u] {
                if dist[v].is_none() {
                    dist[v] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Shortest-path distance between two qubits, or `None` if
    /// disconnected.
    #[must_use]
    pub fn distance(&self, a: usize, b: usize) -> Option<usize> {
        self.distances_from(a)[b]
    }

    /// All-pairs shortest-path matrix; `usize::MAX` marks unreachable
    /// pairs. Precomputed once by the transpiler.
    #[must_use]
    pub fn distance_matrix(&self) -> Vec<Vec<usize>> {
        (0..self.num_qubits)
            .map(|src| {
                self.distances_from(src)
                    .into_iter()
                    .map(|d| d.unwrap_or(usize::MAX))
                    .collect()
            })
            .collect()
    }

    /// True when every qubit can reach every other.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.distances_from(0).iter().all(Option::is_some)
    }

    /// The induced subgraph on the first `n` qubits of a BFS order from
    /// qubit 0, relabeled `0..n`. Because BFS prefixes of a connected
    /// graph are connected, this gives a realistic connected `n`-qubit
    /// slice of a larger device (how one allocates a sub-lattice of a
    /// 27-qubit Falcon for a 10-qubit benchmark).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, exceeds the device size, or the device is
    /// disconnected.
    #[must_use]
    pub fn bfs_prefix(&self, n: usize) -> CouplingMap {
        assert!(
            n >= 1 && n <= self.num_qubits,
            "prefix size {n} out of range"
        );
        assert!(self.is_connected(), "bfs_prefix requires a connected map");
        // BFS order from qubit 0.
        let mut order = Vec::with_capacity(self.num_qubits);
        let mut seen = vec![false; self.num_qubits];
        let mut queue = VecDeque::from([0usize]);
        seen[0] = true;
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for &v in &self.adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    queue.push_back(v);
                }
            }
        }
        let keep: Vec<usize> = order.into_iter().take(n).collect();
        let mut relabel = vec![usize::MAX; self.num_qubits];
        for (new, &old) in keep.iter().enumerate() {
            relabel[old] = new;
        }
        let mut edges = Vec::new();
        for &old in &keep {
            for &nb in &self.adj[old] {
                if relabel[nb] != usize::MAX && old < nb {
                    edges.push((relabel[old], relabel[nb]));
                }
            }
        }
        CouplingMap::from_edges(n, &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_distances() {
        let m = CouplingMap::linear(6);
        assert_eq!(m.distance(0, 5), Some(5));
        assert_eq!(m.distance(2, 2), Some(0));
        assert!(m.is_edge(3, 4));
        assert!(!m.is_edge(0, 2));
        assert!(m.is_connected());
    }

    #[test]
    fn ring_wraps_around() {
        let m = CouplingMap::ring(6);
        assert_eq!(m.distance(0, 5), Some(1));
        assert_eq!(m.distance(0, 3), Some(3));
    }

    #[test]
    fn grid_structure() {
        let m = CouplingMap::grid(3, 4);
        assert_eq!(m.num_qubits(), 12);
        assert!(m.is_edge(0, 1));
        assert!(m.is_edge(0, 4));
        assert!(!m.is_edge(3, 4)); // row boundary
        assert_eq!(m.distance(0, 11), Some(5)); // manhattan distance
        assert!(m.is_connected());
    }

    #[test]
    fn full_map_distance_one() {
        let m = CouplingMap::full(5);
        for a in 0..5 {
            for b in 0..5 {
                if a != b {
                    assert_eq!(m.distance(a, b), Some(1));
                }
            }
        }
    }

    #[test]
    fn falcon_has_27_connected_qubits() {
        let m = CouplingMap::heavy_hex_falcon();
        assert_eq!(m.num_qubits(), 27);
        assert!(m.is_connected());
        assert_eq!(m.edges().len(), 28);
        // Heavy-hex degree never exceeds 3.
        for q in 0..27 {
            assert!(m.neighbors(q).len() <= 3, "degree of {q} too high");
        }
    }

    #[test]
    fn bfs_prefix_is_connected_any_size() {
        let m = CouplingMap::heavy_hex_falcon();
        for n in 1..=27 {
            let sub = m.bfs_prefix(n);
            assert_eq!(sub.num_qubits(), n);
            assert!(sub.is_connected(), "prefix of size {n} disconnected");
        }
    }

    #[test]
    fn disconnected_map_detected() {
        let m = CouplingMap::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!m.is_connected());
        assert_eq!(m.distance(0, 3), None);
    }

    #[test]
    fn distance_matrix_matches_point_queries() {
        let m = CouplingMap::grid(2, 3);
        let dm = m.distance_matrix();
        for (a, row) in dm.iter().enumerate() {
            for (b, &d) in row.iter().enumerate() {
                assert_eq!(d, m.distance(a, b).unwrap());
            }
        }
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_rejected() {
        let _ = CouplingMap::from_edges(2, &[(1, 1)]);
    }

    #[test]
    fn duplicate_edges_deduplicated() {
        let m = CouplingMap::from_edges(3, &[(0, 1), (1, 0), (0, 1)]);
        assert_eq!(m.edges(), vec![(0, 1)]);
    }
}
