//! The reference oracle: a plain augmenting-path max-flow, written
//! apart from the program, that certifies every value it returns with a
//! cut of equal capacity.
//!
//! It shares no code with the `maxflow` or `swgraph` crates: it parses
//! edge-list text itself, keeps its own paired-arc residual graph, and
//! augments along shortest residual paths in breadth-first phases
//! (Dinic's schedule). After the last augmentation the vertices still
//! reachable from the source in the residual graph form a cut; a value
//! is returned only if that cut's capacity equals the flow value and
//! the flow is conserved at every inner vertex.

use std::collections::VecDeque;

/// Capacity of the super-terminal arcs; matches the program's
/// "effectively infinite" convention without depending on it.
pub const INFINITE: i64 = i64::MAX / 4;

/// A directed graph with paired arcs: arc `2k` is an input edge, arc
/// `2k + 1` its zero-capacity reverse.
#[derive(Debug, Clone)]
pub struct Graph {
    n: usize,
    tail: Vec<u32>,
    head: Vec<u32>,
    cap: Vec<i64>,
    /// CSR offsets into `adj` per vertex.
    start: Vec<u32>,
    adj: Vec<u32>,
}

impl Graph {
    /// Builds a graph on `n` vertices from directed `(u, v, cap)` arcs.
    /// Self-loops and non-positive capacities are dropped.
    #[must_use]
    pub fn from_arcs(n: usize, arcs: &[(u32, u32, i64)]) -> Self {
        let mut tail = Vec::with_capacity(arcs.len() * 2);
        let mut head = Vec::with_capacity(arcs.len() * 2);
        let mut cap = Vec::with_capacity(arcs.len() * 2);
        for &(u, v, c) in arcs {
            if u == v || c <= 0 {
                continue;
            }
            assert!(
                (u as usize) < n && (v as usize) < n,
                "arc outside the graph"
            );
            tail.extend([u, v]);
            head.extend([v, u]);
            cap.extend([c, 0]);
        }
        let mut start = vec![0u32; n + 1];
        for &u in &tail {
            start[u as usize + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut adj = vec![0u32; tail.len()];
        for (a, &u) in tail.iter().enumerate() {
            adj[fill[u as usize] as usize] = a as u32;
            fill[u as usize] += 1;
        }
        Self {
            n,
            tail,
            head,
            cap,
            start,
            adj,
        }
    }

    /// Parses `u v [cap]` lines (default capacity 1; `#` comments and
    /// blank lines skipped). The vertex count is the largest id plus one.
    ///
    /// # Errors
    /// A message naming the first malformed line.
    pub fn parse_edge_list(text: &str) -> Result<Self, String> {
        let mut arcs = Vec::new();
        let mut n = 0usize;
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("edge list line {}: '{line}'", i + 1);
            let mut it = line.split_whitespace();
            let u: u32 = it.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
            let v: u32 = it.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
            let c: i64 = match it.next() {
                Some(t) => t.parse().map_err(|_| bad())?,
                None => 1,
            };
            if it.next().is_some() {
                return Err(bad());
            }
            n = n.max(u as usize + 1).max(v as usize + 1);
            arcs.push((u, v, c));
        }
        Ok(Self::from_arcs(n, &arcs))
    }

    /// Vertex count.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// A copy with a super source `n` and super sink `n + 1` joined by
    /// infinite arcs to `sources` and from `sinks`.
    #[must_use]
    pub fn with_super_terminals(&self, sources: &[u32], sinks: &[u32]) -> Self {
        let n = self.n;
        let mut arcs: Vec<(u32, u32, i64)> = (0..self.tail.len())
            .step_by(2)
            .map(|a| (self.tail[a], self.head[a], self.cap[a]))
            .collect();
        arcs.extend(sources.iter().map(|&v| (n as u32, v, INFINITE)));
        arcs.extend(sinks.iter().map(|&v| (v, n as u32 + 1, INFINITE)));
        Self::from_arcs(n + 2, &arcs)
    }

    /// Maximum `s`–`t` flow value, certified by an equal cut.
    ///
    /// # Errors
    /// A message when the certificate does not hold (a bug in this
    /// oracle, never an expected outcome).
    pub fn max_flow(&self, s: u32, t: u32) -> Result<i64, String> {
        Solver::new(self).solve(s, t)
    }
}

/// Reusable scratch for many solves on one graph.
pub struct Solver<'g> {
    g: &'g Graph,
    res: Vec<i64>,
    pred: Vec<u32>,
    level: Vec<u32>,
    cursor: Vec<u32>,
    queue: VecDeque<u32>,
}

const NONE: u32 = u32::MAX;

impl<'g> Solver<'g> {
    /// Scratch sized for `g`.
    #[must_use]
    pub fn new(g: &'g Graph) -> Self {
        Self {
            g,
            res: g.cap.clone(),
            pred: vec![NONE; g.n],
            level: vec![u32::MAX; g.n],
            cursor: vec![0; g.n],
            queue: VecDeque::new(),
        }
    }

    /// Breadth-first search over residual arcs from `s`; marks every
    /// reached vertex in `pred` (used by the certificate).
    fn reach(&mut self, s: u32) {
        let g = self.g;
        self.pred.fill(NONE);
        self.queue.clear();
        self.queue.push_back(s);
        // Mark the source with a self-sentinel so it is never re-entered.
        self.pred[s as usize] = u32::MAX - 1;
        while let Some(u) = self.queue.pop_front() {
            let range = g.start[u as usize] as usize..g.start[u as usize + 1] as usize;
            for &a in &g.adj[range] {
                let v = g.head[a as usize];
                if self.res[a as usize] > 0 && self.pred[v as usize] == NONE {
                    self.pred[v as usize] = a;
                    self.queue.push_back(v);
                }
            }
        }
    }

    /// Shortest-augmenting-path max-flow from `s` to `t` in phases
    /// (Dinic): each phase labels vertices by BFS distance and then
    /// augments along level-increasing paths until none is left.
    /// Finishes with the cut certificate.
    ///
    /// # Errors
    /// When the final flow is not conserved or its cut differs from it.
    pub fn solve(&mut self, s: u32, t: u32) -> Result<i64, String> {
        let g = self.g;
        if s == t || s as usize >= g.n || t as usize >= g.n {
            return Err(format!("invalid terminals {s} -> {t}"));
        }
        self.res.copy_from_slice(&g.cap);
        let mut value: i64 = 0;
        while self.label(s, t) {
            value += self.augment_phase(s, t);
        }
        self.certify(s, t, value)?;
        Ok(value)
    }

    /// BFS distances from `s` over residual arcs; returns whether `t`
    /// is reachable. Vertices beyond `t`'s distance stay unlabelled.
    fn label(&mut self, s: u32, t: u32) -> bool {
        let g = self.g;
        self.level.fill(u32::MAX);
        self.queue.clear();
        self.level[s as usize] = 0;
        self.queue.push_back(s);
        while let Some(u) = self.queue.pop_front() {
            let du = self.level[u as usize];
            if du >= self.level[t as usize] {
                break;
            }
            for &a in &g.adj[g.start[u as usize] as usize..g.start[u as usize + 1] as usize] {
                let v = g.head[a as usize] as usize;
                if self.res[a as usize] > 0 && self.level[v] == u32::MAX {
                    self.level[v] = du + 1;
                    self.queue.push_back(v as u32);
                }
            }
        }
        self.level[t as usize] != u32::MAX
    }

    /// Augments along level-increasing residual paths until the level
    /// graph has none left (an iterative depth-first search with
    /// per-vertex arc cursors). Returns the flow added.
    fn augment_phase(&mut self, s: u32, t: u32) -> i64 {
        let g = self.g;
        for v in 0..g.n {
            self.cursor[v] = g.start[v];
        }
        let mut added = 0;
        let mut path: Vec<u32> = Vec::new();
        loop {
            let u = path.last().map_or(s, |&a| g.head[a as usize]);
            if u == t {
                let bottleneck = path
                    .iter()
                    .map(|&a| self.res[a as usize])
                    .min()
                    .unwrap_or(0);
                for &a in &path {
                    self.res[a as usize] -= bottleneck;
                    self.res[a as usize ^ 1] += bottleneck;
                }
                added += bottleneck;
                // Retreat to the tail of the first saturated arc.
                let first = path
                    .iter()
                    .position(|&a| self.res[a as usize] == 0)
                    .unwrap_or(0);
                path.truncate(first);
                continue;
            }
            let end = g.start[u as usize + 1];
            let mut advanced = false;
            while self.cursor[u as usize] < end {
                let a = g.adj[self.cursor[u as usize] as usize];
                let v = g.head[a as usize] as usize;
                if self.res[a as usize] > 0 && self.level[v] == self.level[u as usize] + 1 {
                    path.push(a);
                    advanced = true;
                    break;
                }
                self.cursor[u as usize] += 1;
            }
            if !advanced {
                // Dead end: no path to `t` leaves `u` in this phase.
                self.level[u as usize] = u32::MAX;
                match path.pop() {
                    Some(a) => self.cursor[g.tail[a as usize] as usize] += 1,
                    None => return added,
                }
            }
        }
    }

    /// Checks conservation and that the residual-reachable set from `s`
    /// is a cut of capacity exactly `value` that excludes `t`.
    fn certify(&mut self, s: u32, t: u32, value: i64) -> Result<(), String> {
        let g = self.g;
        let mut net = vec![0i64; g.n];
        for a in (0..g.cap.len()).step_by(2) {
            let flow = g.cap[a] - self.res[a];
            if flow < 0 || flow > g.cap[a] {
                return Err(format!("arc {a} carries infeasible flow {flow}"));
            }
            net[g.tail[a] as usize] -= flow;
            net[g.head[a] as usize] += flow;
        }
        for (v, &excess) in net.iter().enumerate() {
            let expected = if v == s as usize {
                -value
            } else if v == t as usize {
                value
            } else {
                0
            };
            if excess != expected {
                return Err(format!(
                    "vertex {v} has excess {excess}, expected {expected}"
                ));
            }
        }
        self.reach(s);
        if self.pred[t as usize] != NONE {
            return Err("sink still reachable after the last augmentation".into());
        }
        let mut cut: i64 = 0;
        for a in (0..g.cap.len()).step_by(2) {
            let (u, v) = (g.tail[a] as usize, g.head[a] as usize);
            if self.pred[u] != NONE && self.pred[v] == NONE {
                cut = cut.saturating_add(g.cap[a]);
            }
        }
        if cut != value {
            return Err(format!(
                "cut capacity {cut} differs from flow value {value}"
            ));
        }
        Ok(())
    }
}

/// Certified values for many `(s, t)` pairs on one graph, split over
/// `threads` scoped threads.
///
/// # Errors
/// The first certificate failure.
pub fn max_flows(g: &Graph, pairs: &[(u32, u32)], threads: usize) -> Result<Vec<i64>, String> {
    let threads = threads.clamp(1, pairs.len().max(1));
    let chunk = pairs.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = pairs
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut solver = Solver::new(g);
                    part.iter()
                        .map(|&(s, t)| solver.solve(s, t))
                        .collect::<Result<Vec<_>, _>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(pairs.len());
        for h in handles {
            out.extend(h.join().expect("oracle thread panicked")?);
        }
        Ok(out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn undirected(n: usize, edges: &[(u32, u32)], cap: i64) -> Graph {
        let arcs: Vec<_> = edges
            .iter()
            .flat_map(|&(u, v)| [(u, v, cap), (v, u, cap)])
            .collect();
        Graph::from_arcs(n, &arcs)
    }

    #[test]
    fn complete_graph_flow_is_n_minus_one() {
        for n in [2u32, 3, 5, 9, 16] {
            let edges: Vec<_> = (0..n)
                .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
                .collect();
            let g = undirected(n as usize, &edges, 1);
            assert_eq!(g.max_flow(0, n - 1).unwrap(), i64::from(n) - 1, "K_{n}");
            assert_eq!(g.max_flow(n / 2, 0).unwrap(), i64::from(n) - 1, "K_{n}");
        }
    }

    #[test]
    fn cycle_carries_two_and_path_carries_its_capacity() {
        let n = 11u32;
        let cycle: Vec<_> = (0..n).map(|u| (u, (u + 1) % n)).collect();
        let g = undirected(n as usize, &cycle, 1);
        assert_eq!(g.max_flow(0, 5).unwrap(), 2);
        let path: Vec<_> = (0..n - 1).map(|u| (u, u + 1)).collect();
        let g = undirected(n as usize, &path, 7);
        assert_eq!(g.max_flow(0, n - 1).unwrap(), 7);
        assert_eq!(g.max_flow(n - 1, 3).unwrap(), 7);
    }

    #[test]
    fn complete_bipartite_same_side_flow_is_other_side_size() {
        // K_{a,b}: two vertices on the a-side are joined by b disjoint
        // two-hop paths, and each has degree b.
        let (a, b) = (4u32, 6u32);
        let edges: Vec<_> = (0..a)
            .flat_map(|u| (a..a + b).map(move |v| (u, v)))
            .collect();
        let g = undirected((a + b) as usize, &edges, 1);
        assert_eq!(g.max_flow(0, 1).unwrap(), i64::from(b));
        assert_eq!(g.max_flow(a, a + 1).unwrap(), i64::from(a));
    }

    #[test]
    fn disconnected_terminals_have_zero_flow() {
        let g = undirected(4, &[(0, 1), (2, 3)], 1);
        assert_eq!(g.max_flow(0, 3).unwrap(), 0);
    }

    #[test]
    fn directed_arcs_are_one_way() {
        let g = Graph::from_arcs(3, &[(0, 1, 3), (1, 2, 2)]);
        assert_eq!(g.max_flow(0, 2).unwrap(), 2);
        assert_eq!(g.max_flow(2, 0).unwrap(), 0);
    }

    #[test]
    fn super_terminals_sum_disjoint_capacities() {
        // k disjoint unit paths s_i -> m_i -> t_i joined by super
        // terminals carry exactly k.
        let k = 5u32;
        let edges: Vec<_> = (0..k)
            .flat_map(|i| [(3 * i, 3 * i + 1), (3 * i + 1, 3 * i + 2)])
            .collect();
        let g = undirected((3 * k) as usize, &edges, 1);
        let sources: Vec<_> = (0..k).map(|i| 3 * i).collect();
        let sinks: Vec<_> = (0..k).map(|i| 3 * i + 2).collect();
        let st = g.with_super_terminals(&sources, &sinks);
        let n = g.num_vertices() as u32;
        assert_eq!(st.max_flow(n, n + 1).unwrap(), i64::from(k));
    }

    #[test]
    fn parsed_edge_list_matches_built_graph_and_batches_agree() {
        let text = "# 4 vertices\n0 1 2\n1 3\n0 2 1\n\n2 3 5\n";
        let g = Graph::parse_edge_list(text).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.max_flow(0, 3).unwrap(), 2);
        let pairs = [(0, 3), (0, 2), (2, 3), (1, 3)];
        let values = max_flows(&g, &pairs, 2).unwrap();
        assert_eq!(values, vec![2, 1, 5, 1]);
        assert!(Graph::parse_edge_list("0 x 1\n").is_err());
        assert!(Graph::parse_edge_list("0 1 1 9\n").is_err());
    }
}
