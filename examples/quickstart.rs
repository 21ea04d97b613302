//! Quickstart: build a graph, construct a dual-failure FT-BFS structure,
//! check it, and query it after two edge failures.
//!
//! Run with `cargo run --release --example quickstart`.

use ftbfs_core::dual::DualFtBfsBuilder;
use ftbfs_graph::{generators, FaultSpec, TieBreak, VertexId};
use ftbfs_verify::{verify_exhaustive, StructureOracle};

fn main() {
    // A small random connected network.
    let graph = generators::connected_gnp(30, 0.12, 2015);
    let source = VertexId(0);
    println!(
        "graph: {} vertices, {} edges, source {}",
        graph.vertex_count(),
        graph.edge_count(),
        source
    );

    // The tie-breaking weight assignment W makes shortest paths unique and
    // the whole construction reproducible from the seed.
    let w = TieBreak::new(&graph, 2015);

    // Algorithm Cons2FTBFS (Section 3 of the paper).
    let result = DualFtBfsBuilder::new(&graph, &w, source).build();
    let structure = &result.structure;
    println!(
        "dual-failure FT-BFS structure: {} edges ({}% of the graph)",
        structure.edge_count(),
        100 * structure.edge_count() / graph.edge_count()
    );

    // Exhaustively verify the defining property over every fault pair.
    let report = verify_exhaustive(&graph, structure.edges(), &[source], 2);
    println!("verification: {report}");
    assert!(report.is_valid());

    // Query the structure after two concrete failures.
    let oracle = StructureOracle::new(&graph, source, structure.edges());
    let faults = FaultSpec::from((ftbfs_graph::EdgeId(0), ftbfs_graph::EdgeId(7)));
    let target = VertexId(29);
    match oracle.route(target, &faults) {
        Some(route) => println!(
            "after failing edges {:?}: route to {} has {} hops: {:?}",
            faults,
            target,
            route.len(),
            route
        ),
        None => println!("after failing edges {faults:?}: {target} is disconnected"),
    }
    assert!(oracle.matches_ground_truth(target, &faults));
    println!("the structure answers the post-failure query exactly like the full graph would.");
}
