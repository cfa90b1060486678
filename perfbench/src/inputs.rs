//! Benchmark inputs: the two graphs, generated from `swgraph` at fixed
//! seeds, and the seeded query streams.
//!
//! The graphs do not depend on `--seed`, so every run measures the same
//! graphs; the query streams do.

use std::collections::HashSet;
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;

use ffmr_prng::SplitMix64;
use swgraph::gen::{induced_prefix, rmat_graph500, social_crawl, FB_CHECKPOINTS};
use swgraph::FlowNetwork;

/// Social-crawl generator seed of the FB family (the `small` preset).
pub const FB_SEED: u64 = 42;
/// Divisor on the paper-/1000 FB checkpoint sizes (the `small` preset).
pub const FB_DENOMINATOR: u64 = 50;
/// Degree cap of the social-crawl generator.
pub const FB_MAX_DEGREE: u64 = 5_000;
/// FB4' is the fourth checkpoint of the crawl.
pub const FB_SUBSET: usize = 3;
/// R-MAT (Graph500 parameters, edge factor 16) scale and seed.
pub const RMAT_SCALE: u32 = 13;
/// Seed of the R-MAT generator.
pub const RMAT_SEED: u64 = 500;
/// Super-terminal fan-out of the FF5 job.
pub const MR_W: usize = 64;
/// Minimum terminal degree, as `ffmr maxflow --w` uses it.
pub const MR_MIN_DEGREE: usize = 3;
/// Terminal selection seed, as `ffmr maxflow --w` uses it.
pub const MR_TERMINAL_SEED: u64 = 42;

/// The graphs the workloads run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// FB4' of the social-crawl family at the `small` scale.
    Fb4,
    /// R-MAT graph500 at scale 13.
    Rmat13,
}

impl Dataset {
    /// Name used for files and the daemon's `--graph NAME=FILE`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Fb4 => "fb4",
            Dataset::Rmat13 => "rmat13",
        }
    }

    /// Generates the graph as a unit-capacity undirected network.
    #[must_use]
    pub fn generate(self) -> FlowNetwork {
        match self {
            Dataset::Fb4 => {
                let checkpoints = &FB_CHECKPOINTS[..=FB_SUBSET];
                let edges = social_crawl(checkpoints, FB_DENOMINATOR, FB_MAX_DEGREE, FB_SEED);
                let n = (FB_CHECKPOINTS[FB_SUBSET].vertices / FB_DENOMINATOR).max(2);
                FlowNetwork::from_undirected_unit(n, &induced_prefix(&edges, n))
            }
            Dataset::Rmat13 => {
                let edges = rmat_graph500(RMAT_SCALE, RMAT_SEED);
                FlowNetwork::from_undirected_unit(1 << RMAT_SCALE, &edges)
            }
        }
    }

    /// Generates the graph and writes it as an edge list to `path`.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn write(self, path: &Path) -> std::io::Result<()> {
        let net = self.generate();
        let file = File::create(path)?;
        let mut out = BufWriter::new(file);
        swgraph::io::write_edge_list(&net, &mut out)?;
        std::io::Write::flush(&mut out)
    }
}

/// An endless stream of distinct unordered `s`–`t` pairs, uniform over
/// `0..n`.
pub struct UniquePairs {
    rng: SplitMix64,
    n: u64,
    seen: HashSet<(u64, u64)>,
}

impl UniquePairs {
    /// The stream for `seed` over `n` vertices.
    #[must_use]
    pub fn new(seed: u64, n: u64) -> Self {
        Self {
            rng: SplitMix64::seed_from_u64(seed ^ 0x756e_6971_7565),
            n,
            seen: HashSet::new(),
        }
    }
}

impl Iterator for UniquePairs {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        loop {
            let s = self.rng.next_u64() % self.n;
            let t = self.rng.next_u64() % self.n;
            if s != t && self.seen.insert((s.min(t), s.max(t))) {
                return Some((s, t));
            }
        }
    }
}

/// A bounded pool of seeded pairs drawn by Zipf-distributed rank.
#[derive(Debug, Clone)]
pub struct ZipfPool {
    pairs: Vec<(u64, u64)>,
    /// Cumulative rank probabilities.
    cdf: Vec<f64>,
}

impl ZipfPool {
    /// `size` distinct pairs over `0..n`, rank `r` drawn with weight
    /// `1 / (r + 1)^exponent`.
    #[must_use]
    pub fn new(seed: u64, n: u64, size: usize, exponent: f64) -> Self {
        let pairs: Vec<_> = UniquePairs::new(seed ^ 0x706f_6f6c, n).take(size).collect();
        let mut cdf = Vec::with_capacity(size);
        let mut total = 0.0;
        for r in 0..size {
            total += 1.0 / ((r + 1) as f64).powf(exponent);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Self { pairs, cdf }
    }

    /// Draws one pair.
    pub fn draw(&self, rng: &mut SplitMix64) -> (u64, u64) {
        let u = rng.next_f64();
        let rank = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.pairs.len() - 1);
        self.pairs[rank]
    }
}
