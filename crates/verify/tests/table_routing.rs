//! The route-table transition system against the reference tracer.
//!
//! [`TableRouting`] presents a degraded route table to the certifier. Its
//! dependency graph must be exactly the edges of the routes the table
//! describes: every `(source endpoint, destination endpoint)` table path
//! traced end to end by [`trace_table_hops`], plus the on-node endpoint
//! pairs. Nothing more (the certificate would reject installable tables)
//! and nothing less (it would certify tables it never looked at).

use std::collections::HashSet;

use anton_core::chip::ChanId;
use anton_core::config::MachineConfig;
use anton_core::net::{DepEdge, TorusTopology};
use anton_core::route_table::{DownLinkSet, RouteTable, TableMethod};
use anton_core::table_routing::TableRouting;
use anton_core::topology::{Dim, NodeCoord, NodeId, Sign, Slice, TorusDir, TorusShape};
use anton_core::trace::trace_table_hops;
use anton_verify::{build_degraded_tables, build_routing_graph, certify_tables};

fn x_chan(sign: Sign) -> ChanId {
    ChanId {
        dir: TorusDir::new(Dim::X, sign),
        slice: Slice(0),
    }
}

/// The edges of every endpoint-to-endpoint route `table` carries.
fn traced_edges(cfg: &MachineConfig, table: &RouteTable) -> HashSet<DepEdge> {
    let shape = cfg.shape;
    let mut edges = HashSet::new();
    for src in shape.nodes() {
        for dst in shape.nodes() {
            let hops = table
                .path(shape.id(src), shape.id(dst))
                .expect("installed tables reach every pair");
            for sep in cfg.chip.endpoints() {
                for dep in cfg.chip.endpoints() {
                    let steps = trace_table_hops(
                        cfg,
                        src,
                        Some(sep),
                        &hops,
                        table.slice(),
                        Some(dep),
                        &mut |n, d| shape.hop_crosses_dateline(n, d),
                    );
                    edges.extend(steps.windows(2).map(|w| (w[0], w[1])));
                }
            }
        }
    }
    edges
}

fn assert_graph_is_traced_routes(cfg: &MachineConfig, downs: &DownLinkSet, method: TableMethod) {
    let (tables, diags) = build_degraded_tables(cfg, downs);
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(tables.len(), Slice::ALL.len());
    assert_eq!(tables[0].method(), method, "{}", cfg.shape);
    let topo = TorusTopology::new(cfg);
    for table in tables {
        let rf = TableRouting::new(cfg.clone(), table.clone());
        let mut diags = Vec::new();
        let g = build_routing_graph(&topo, &[&rf], &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
        let graph: HashSet<DepEdge> = g.edges().collect();
        let want = traced_edges(cfg, &table);
        assert_eq!(graph.len(), g.num_edges(), "graph edges are unique");
        if let Some(e) = want.difference(&graph).next() {
            panic!(
                "{} {}: traced edge {}@{} -> {}@{} missing from the graph",
                cfg.shape,
                table.slice(),
                e.0 .0,
                e.0 .1,
                e.1 .0,
                e.1 .1
            );
        }
        if let Some(e) = graph.difference(&want).next() {
            panic!(
                "{} {}: graph edge {}@{} -> {}@{} lies on no traced route",
                cfg.shape,
                table.slice(),
                e.0 .0,
                e.0 .1,
                e.1 .0,
                e.1 .1
            );
        }
    }
}

#[test]
fn table_graph_is_the_union_of_traced_routes() {
    for shape in [TorusShape::cube(3), TorusShape::new(4, 3, 2)] {
        let cfg = MachineConfig::new(shape);
        // One Down link: the ring is still whole the other way round, so
        // the table stays direction-ordered.
        let one = DownLinkSet::from_links(
            shape,
            [(shape.id(NodeCoord::new(1, 0, 0)), x_chan(Sign::Plus))],
        );
        assert_graph_is_traced_routes(&cfg, &one, TableMethod::DirectionOrdered);
        // A severed ring: (0,0,0) -> (2,0,0) is cut both ways round the
        // y = z = 0 X ring (+X out of x = 1, and -X out of x = 0 on a
        // 3-ring or out of x = 3 on a 4-ring), so generation falls back
        // to BFS detours.
        let minus_from = if shape.k(Dim::X) == 3 { 0 } else { 3 };
        let severed = DownLinkSet::from_links(
            shape,
            [
                (shape.id(NodeCoord::new(1, 0, 0)), x_chan(Sign::Plus)),
                (
                    shape.id(NodeCoord::new(minus_from, 0, 0)),
                    x_chan(Sign::Minus),
                ),
            ],
        );
        assert_graph_is_traced_routes(&cfg, &severed, TableMethod::Bfs);
    }
}

/// The 8×8×8 fault benchmark's degradation: one Down link leaving node 0
/// on the first channel. Its certificate overlays the tables on the
/// healthy graph's 198,912 channel-VC pairs and 431,232 edges and adds
/// the long-way routes' 12 edges.
#[test]
fn fault_k8_tables_certify_at_pinned_size() {
    let cfg = MachineConfig::new(TorusShape::cube(8));
    let downs = DownLinkSet::from_links(cfg.shape, [(NodeId(0), ChanId::from_index(0))]);
    let (tables, diags) = build_degraded_tables(&cfg, &downs);
    assert!(diags.is_empty(), "{diags:?}");
    let cert = certify_tables(&cfg, &tables);
    assert!(cert.acyclic, "{cert}");
    assert_eq!(cert.nodes, 198_912, "{cert}");
    assert_eq!(cert.edges, 431_244, "{cert}");
}
