//! # ftbfs-bench
//!
//! Shared experiment harness for the FT-BFS reproduction: workload sweeps,
//! aligned table printing, log–log exponent fitting, and the serving
//! experiments' deterministic choices ([`splitmix64`]), latency percentiles
//! and request mix ([`build_requests`]).  The experiment
//! binaries in `src/bin/` (E1–E9, see `DESIGN.md` and `EXPERIMENTS.md`) use
//! these helpers to regenerate the quantities behind every theorem and
//! figure of the paper; the Criterion benches in `benches/` measure wall
//! clock costs (B1–B4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use ftbfs_graph::{EdgeId, FaultSpec, Graph, VertexId};
use ftbfs_serve::ServeRequest;

/// A simple aligned text table for experiment output.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (cells are stringified by the caller).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match the header"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to standard output.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// The result of a least-squares fit `y ≈ c · x^alpha` on log–log scale.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerFit {
    /// The fitted exponent `alpha`.
    pub exponent: f64,
    /// The fitted coefficient `c`.
    pub coefficient: f64,
}

/// Fits `y ≈ c · x^alpha` by linear regression on `(ln x, ln y)`.
///
/// # Panics
///
/// Panics if fewer than two points are given or any value is non-positive.
pub fn fit_power_law(xs: &[f64], ys: &[f64]) -> PowerFit {
    assert!(
        xs.len() == ys.len() && xs.len() >= 2,
        "need at least two points"
    );
    assert!(
        xs.iter().chain(ys.iter()).all(|&v| v > 0.0),
        "power-law fit requires positive values"
    );
    let lx: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
    let n = lx.len() as f64;
    let mx = lx.iter().sum::<f64>() / n;
    let my = ly.iter().sum::<f64>() / n;
    let sxx: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    let sxy: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let exponent = if sxx.abs() < 1e-12 { 0.0 } else { sxy / sxx };
    let coefficient = (my - exponent * mx).exp();
    PowerFit {
        exponent,
        coefficient,
    }
}

/// A named workload graph together with the seed it was generated from.
pub struct Workload {
    /// Human-readable name used in experiment tables.
    pub name: String,
    /// The generated graph.
    pub graph: Graph,
    /// The generation seed (for reproducibility notes).
    pub seed: u64,
}

/// The Erdős–Rényi sweep shared by E1/E5/E8: connected `G(n, p)` graphs with
/// expected average degree `avg_degree`.
pub fn er_sweep(ns: &[usize], avg_degree: f64, seed: u64) -> Vec<Workload> {
    ns.iter()
        .map(|&n| {
            let p = (avg_degree / (n as f64 - 1.0)).min(1.0);
            Workload {
                name: format!("gnp(n={n}, deg≈{avg_degree})"),
                graph: ftbfs_graph::generators::connected_gnp(n, p, seed + n as u64),
                seed: seed + n as u64,
            }
        })
        .collect()
}

/// Formats an optional count for table cells.
pub fn fmt_opt(v: Option<u32>) -> String {
    match v {
        Some(x) => x.to_string(),
        None => "∞".to_string(),
    }
}

/// One splitmix64 step: the experiments' deterministic stream of choices,
/// so workloads need no RNG dependency.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `p`-th percentile of ascending nanosecond samples, in µs (nearest
/// rank; 0 for no samples).
pub fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * (sorted_ns.len() - 1) as f64).round() as usize;
    sorted_ns[rank.min(sorted_ns.len() - 1)] as f64 / 1e3
}

/// The E10 serving mix phrased as requests (used by E11 and E12): 25%
/// fault-free, 25% single-fault, 50% dual-fault, with faults drawn from a
/// small pool of "active" pairs so the engines' fault LRU sees realistic
/// locality.  The list is a function of its arguments alone.
pub fn build_requests(
    g: &Graph,
    structure_edges: &[EdgeId],
    count: usize,
    seed: u64,
) -> Vec<ServeRequest> {
    let mut state = seed;
    let mut active: Vec<(EdgeId, EdgeId)> = Vec::new();
    let mut requests = Vec::with_capacity(count);
    for i in 0..count {
        if active.len() < 12 || splitmix64(&mut state) % 64 == 0 {
            let a = structure_edges[splitmix64(&mut state) as usize % structure_edges.len()];
            let b = structure_edges[splitmix64(&mut state) as usize % structure_edges.len()];
            active.push((a, b));
            if active.len() > 24 {
                active.remove(0);
            }
        }
        let target = VertexId((splitmix64(&mut state) as usize % g.vertex_count()) as u32);
        let (a, b) = active[splitmix64(&mut state) as usize % active.len()];
        requests.push(match i % 4 {
            0 => ServeRequest::distance(target, FaultSpec::None),
            1 => ServeRequest::distance(target, a),
            _ => ServeRequest::distance(target, (a, b)),
        });
    }
    requests
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_render_alignment() {
        let mut t = Table::new("demo", &["n", "edges"]);
        t.row(vec!["10".into(), "45".into()]);
        t.row(vec!["100".into(), "4950".into()]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("4950"));
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines.len() >= 5);
    }

    #[test]
    #[should_panic]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn power_fit_recovers_exact_exponent() {
        let xs: Vec<f64> = vec![10.0, 20.0, 40.0, 80.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x.powf(1.5)).collect();
        let fit = fit_power_law(&xs, &ys);
        assert!((fit.exponent - 1.5).abs() < 1e-9);
        assert!((fit.coefficient - 3.0).abs() < 1e-6);
    }

    #[test]
    fn power_fit_handles_noisy_data() {
        let xs: Vec<f64> = vec![10.0, 30.0, 90.0, 270.0];
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 2.0 * x.powf(1.2) * (1.0 + 0.05 * (i as f64 - 1.5)))
            .collect();
        let fit = fit_power_law(&xs, &ys);
        assert!((fit.exponent - 1.2).abs() < 0.1);
    }

    #[test]
    fn er_sweep_produces_connected_graphs_of_requested_sizes() {
        let ws = er_sweep(&[20, 40], 4.0, 7);
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].graph.vertex_count(), 20);
        assert_eq!(ws[1].graph.vertex_count(), 40);
        for w in &ws {
            assert!(ftbfs_graph::properties::is_connected(&w.graph));
            assert!(w.name.contains("gnp"));
        }
    }

    #[test]
    fn fmt_opt_formats_infinity() {
        assert_eq!(fmt_opt(Some(3)), "3");
        assert_eq!(fmt_opt(None), "∞");
    }

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        let mut state = 0;
        assert_eq!(splitmix64(&mut state), 0xE220_A839_7B1D_CDAF);
        assert_eq!(state, 0x9E37_79B9_7F4A_7C15);
    }

    #[test]
    fn percentiles_use_the_nearest_rank() {
        assert_eq!(percentile_us(&[], 50.0), 0.0);
        let ns = [1_000, 2_000, 3_000, 4_000, 5_000];
        assert_eq!(percentile_us(&ns, 50.0), 3.0);
        assert_eq!(percentile_us(&ns, 99.0), 5.0);
    }

    #[test]
    fn serving_mix_is_deterministic_and_one_quarter_fault_free() {
        let g = ftbfs_graph::generators::grid(4, 4);
        let edges: Vec<EdgeId> = g.edges().collect();
        let requests = build_requests(&g, &edges, 64, 7);
        assert_eq!(requests, build_requests(&g, &edges, 64, 7));
        assert_ne!(requests, build_requests(&g, &edges, 64, 8));
        for (i, r) in requests.iter().enumerate() {
            assert_eq!(r.faults.is_empty(), i % 4 == 0);
            assert!(r.faults.len() <= 2);
        }
    }
}
