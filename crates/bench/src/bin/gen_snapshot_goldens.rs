//! Regenerates (or checks) the golden snapshot fixtures under
//! `crates/oracle/testdata/` — the byte-exact corpus behind the CI
//! `snapshot-compat` job.
//!
//! The fixtures are built from *explicit* edge sets over seeded generator
//! graphs, so they are pinned by the graph generators and the snapshot
//! encoders alone — a change in the construction algorithm's path
//! selection cannot move them; only a change to the snapshot byte format
//! (or the generators) can.  That is exactly what the compat gate wants:
//! if an encoder change alters any golden byte without a format version
//! bump, `--check` fails.  There is one fixture per contract kind: exact
//! single-slab, approximate single-slab, and multi-source.
//!
//! Usage:
//!
//! ```text
//! gen_snapshot_goldens            # rewrite the fixtures in place
//! gen_snapshot_goldens --check    # regenerate in memory, diff against
//!                                 # the checked-in files, exit 1 on drift
//! ```
//!
//! When a deliberate format change lands (with a version bump), rerun
//! without `--check`, update the fingerprint constants in
//! `crates/oracle/tests/snapshot_goldens.rs` from the printed table, and
//! commit the new fixtures alongside the bump.

use ftbfs_core::{ApproxBuildStats, ApproxFtBfs, ApproxParams, FtBfsStructure, APPROX_RESILIENCE};
use ftbfs_graph::{generators, EdgeId, Graph, VertexId};
use ftbfs_oracle::{FrozenMultiStructure, FrozenStructure};
use std::path::PathBuf;

/// The deterministic single-source fixture: an explicit full-edge-set
/// freeze over a seeded G(n, p) draw, with two sources so the tree
/// section has `k > 1`.
fn golden_single() -> (Graph, FrozenStructure) {
    let g = generators::connected_gnp(20, 0.2, 2015);
    let sources = [VertexId(0), VertexId(9)];
    let frozen = FrozenStructure::from_edges(&g, &sources, 2, g.edges());
    (g, frozen)
}

/// The deterministic multi-source fixture: per-source explicit edge
/// subsets (a fixed residue rule) over a seeded chordal tree.
fn golden_multi() -> (Graph, FrozenMultiStructure) {
    let g = generators::tree_plus_chords(12, 5, 7);
    let sources = [VertexId(0), VertexId(7)];
    let parts: Vec<FtBfsStructure> = sources
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let edges = g.edges().filter(|e: &EdgeId| (e.0 as usize + i) % 4 != 1);
            FtBfsStructure::from_edges(vec![s], 2, edges)
        })
        .collect();
    let frozen = FrozenMultiStructure::freeze(&g, &parts);
    (g, frozen)
}

/// The deterministic approximate fixture: the whole edge set of a seeded
/// G(n, p) draw under the default `(α, β, θ)` contract.  Like the other
/// fixtures it bypasses the construction algorithm — the explicit edge
/// set pins the bytes to the generators and the encoder alone.
fn golden_approx() -> (Graph, FrozenStructure) {
    let g = generators::connected_gnp(18, 0.22, 1504);
    let built = ApproxFtBfs {
        structure: FtBfsStructure::from_edges(vec![VertexId(0)], APPROX_RESILIENCE, g.edges()),
        params: ApproxParams::DEFAULT,
        stats: ApproxBuildStats::default(),
    };
    let frozen = FrozenStructure::freeze_approx(&g, &built);
    (g, frozen)
}

fn testdata_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("oracle")
        .join("testdata")
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let (_, single) = golden_single();
    let (_, multi) = golden_multi();
    let (_, approx) = golden_approx();
    let goldens: Vec<(&str, u64, Vec<u8>)> = vec![
        ("golden_single_v2.ftbo", single.fingerprint(), single.save()),
        ("golden_approx_v2.ftbo", approx.fingerprint(), approx.save()),
        ("golden_multi_v2.ftbm", multi.fingerprint(), multi.save()),
    ];

    let dir = testdata_dir();
    println!("{:<22} {:>8} {:>20}", "fixture", "bytes", "fingerprint");
    let mut drifted = Vec::new();
    for (name, fingerprint, bytes) in &goldens {
        println!("{name:<22} {:>8} {fingerprint:#018x}", bytes.len());
        let path = dir.join(name);
        if check {
            match std::fs::read(&path) {
                Ok(on_disk) if &on_disk == bytes => {}
                Ok(_) => drifted.push(format!("{name}: bytes differ from the checked-in golden")),
                Err(e) => drifted.push(format!("{name}: unreadable ({e})")),
            }
        } else {
            std::fs::create_dir_all(&dir).expect("create testdata dir");
            std::fs::write(&path, bytes).expect("write golden fixture");
        }
    }
    if check {
        if drifted.is_empty() {
            println!("snapshot-compat ok: all goldens are byte-identical");
        } else {
            for d in &drifted {
                eprintln!("SNAPSHOT FORMAT DRIFT: {d}");
            }
            eprintln!(
                "the snapshot byte format changed without a version bump; \
                 if the change is deliberate, bump the format version, rerun \
                 gen_snapshot_goldens, and update snapshot_goldens.rs"
            );
            std::process::exit(1);
        }
    } else {
        println!("wrote {} fixtures to {}", goldens.len(), dir.display());
    }
}
