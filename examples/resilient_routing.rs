//! Resilient routing: operate a dual-failure FT-BFS structure as the routing
//! substrate while random pairs of links keep failing.
//!
//! For each simulated failure event the example routes from the source to a
//! random target twice — once inside the sparse structure, once in the full
//! graph — and checks the two routes have identical lengths (objective (2)
//! of the paper: exact shortest paths, not approximations).
//!
//! Run with `cargo run --release --example resilient_routing`.

use ftbfs_core::dual::DualFtBfsBuilder;
use ftbfs_graph::{bfs, generators, FaultSpec, GraphView, TieBreak, VertexId};
use ftbfs_verify::StructureOracle;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn main() {
    let graph = generators::connected_gnp(80, 0.07, 99);
    let source = VertexId(0);
    let w = TieBreak::new(&graph, 99);
    let structure = DualFtBfsBuilder::new(&graph, &w, source).build().structure;
    let oracle = StructureOracle::new(&graph, source, structure.edges());

    println!(
        "routing substrate: {} of {} edges ({}%)\n",
        structure.edge_count(),
        graph.edge_count(),
        100 * structure.edge_count() / graph.edge_count()
    );

    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut events = 0usize;
    let mut disconnections = 0usize;
    for round in 0..200 {
        let e1 = ftbfs_graph::EdgeId(rng.gen_range(0..graph.edge_count()) as u32);
        let e2 = ftbfs_graph::EdgeId(rng.gen_range(0..graph.edge_count()) as u32);
        let faults = FaultSpec::from((e1, e2));
        let target = VertexId(rng.gen_range(1..graph.vertex_count()) as u32);

        let in_structure = oracle.distance(target, &faults);
        let in_graph =
            bfs(&GraphView::new(&graph).without_faults(&faults), source).distance(target);
        assert_eq!(
            in_structure, in_graph,
            "round {round}: structure and graph disagree for {target} under {faults:?}"
        );
        events += 1;
        if in_graph.is_none() {
            disconnections += 1;
        } else if round < 5 {
            let route = oracle
                .route(target, &faults)
                .expect("reachable target has a route");
            println!(
                "event {round}: links {faults:?} down, route to {target} = {} hops {:?}",
                route.len(),
                route
            );
        }
    }
    println!(
        "\nsimulated {events} dual-failure events: every reachable target was routed at the exact shortest distance; {disconnections} events disconnected the chosen target in the real graph too."
    );
}
