//! Explicit [`RouteTable`] routes as a [`RoutingFunction`].
//!
//! A degraded-torus route table pins down one next hop per `(node, dst)`
//! pair on one slice. This adapter walks the table the way the simulator
//! runs it — [`RouteTable::next_hop`] at every node, a dimension run ending
//! where the next hop leaves the arrival dimension — and writes every step
//! through the reference tracer's per-hop emitters. A packet's abstract
//! state is its destination and its VC ladder, at one of three places:
//!
//! * an **injection** buffer (`EpToRouter`), destination not yet fixed:
//!   deliver to an endpoint of the same node, or leave on any first hop the
//!   node's routes take;
//! * the **first arrival** adapter, one hop from the source, destination not
//!   yet fixed: fix it in place to every destination whose route starts with
//!   that hop — so the source's endpoints share one walk per destination;
//! * an arrival adapter **en route** to a fixed destination: continue the
//!   run, end it and depart on the next one, or deliver to every endpoint
//!   of the destination.
//!
//! Reachable states are exactly the prefixes of real table routes, so the
//! dependency graph is the union of the traced routes between every pair
//! of endpoints (pinned by the `table_routing` suite of `anton-verify`).

use crate::chip::{ChanId, LinkGroup, LocalEndpointId, LocalLink, MeshCoord};
use crate::config::{GlobalEndpoint, MachineConfig};
use crate::net::{
    Arrival, ConcreteRoute, DepEdge, Progress, RoutePath, RouteState, RoutingFunction,
};
use crate::route_table::RouteTable;
use crate::topology::{NodeId, TorusDir};
use crate::trace::{
    push_delivery, push_departure, push_mesh, push_through, trace_table_hops, GlobalLink, TraceStep,
};
use crate::vc::VcState;

/// Destination field of a state whose destination is not fixed yet.
const ANY_DST: u32 = u32::MAX;

/// One route table's routes, exposed as a [`RoutingFunction`] over the
/// torus topology it was built for.
#[derive(Debug, Clone)]
pub struct TableRouting {
    cfg: MachineConfig,
    table: RouteTable,
}

impl TableRouting {
    /// Wraps `table` (built for `cfg.shape`, every pair reachable) as a
    /// routing function.
    pub fn new(cfg: MachineConfig, table: RouteTable) -> TableRouting {
        TableRouting { cfg, table }
    }

    /// The wrapped table.
    pub fn table(&self) -> &RouteTable {
        &self.table
    }

    fn state(dst: Option<NodeId>, vc: VcState) -> RouteState {
        RouteState(u64::from(vc.to_word()) << 32 | u64::from(dst.map_or(ANY_DST, |d| d.0)))
    }

    fn decode(&self, state: RouteState) -> (Option<NodeId>, VcState) {
        let dst = state.0 as u32;
        (
            (dst != ANY_DST).then_some(NodeId(dst)),
            VcState::from_word(self.cfg.vc_policy, (state.0 >> 32) as u32),
        )
    }

    /// Destinations (other than `node`) whose table route leaves `node`
    /// through `dir`.
    fn dsts_via(&self, node: NodeId, dir: TorusDir) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.cfg.shape.num_nodes() as u32)
            .map(NodeId)
            .filter(move |&d| {
                self.table.reachable(node, d) && self.table.next_hop(node, d) == Some(dir)
            })
    }

    /// Starts a dimension run at `node`: the mesh hops from router `from`
    /// to the departure adapter of `dir`, then [`TableRouting::leave`].
    fn depart(
        &self,
        node: NodeId,
        from: MeshCoord,
        dir: TorusDir,
        mut vc: VcState,
        dst: Option<NodeId>,
    ) -> Progress {
        let chan = ChanId {
            dir,
            slice: self.table.slice(),
        };
        vc.begin_dim();
        let mut steps = Vec::new();
        push_mesh(
            &self.cfg,
            &mut steps,
            node,
            from,
            self.cfg.chip.chan_router(chan),
            &vc,
        );
        self.leave(node, steps, dir, vc, dst)
    }

    /// Leaves `node` toward `dir` after the on-chip `steps`: the departure,
    /// and the packet's state in the neighbour's arrival adapter.
    fn leave(
        &self,
        node: NodeId,
        mut steps: Vec<TraceStep>,
        dir: TorusDir,
        mut vc: VcState,
        dst: Option<NodeId>,
    ) -> Progress {
        let shape = &self.cfg.shape;
        let at = shape.coord(node);
        let chan = ChanId {
            dir,
            slice: self.table.slice(),
        };
        let crosses = shape.hop_crosses_dateline(at, dir);
        let next = push_departure(&self.cfg, &mut steps, at, chan, &mut vc, crosses);
        Progress {
            steps,
            next: Some((shape.id(next), Self::state(dst, vc))),
        }
    }

    /// Delivery from router `from` of `node` to each of its endpoints.
    fn deliveries(&self, node: NodeId, from: MeshCoord, vc: &VcState) -> Vec<Progress> {
        self.cfg
            .chip
            .endpoints()
            .map(|ep| {
                let mut steps = Vec::new();
                push_delivery(&self.cfg, &mut steps, node, from, ep, vc);
                Progress { steps, next: None }
            })
            .collect()
    }
}

impl RoutingFunction for TableRouting {
    fn describe(&self) -> String {
        format!(
            "explicit {} route table, {}",
            self.table.method(),
            self.table.slice()
        )
    }

    fn num_vcs(&self) -> usize {
        let p = self.cfg.vc_policy;
        usize::from(p.num_vcs(LinkGroup::M).max(p.num_vcs(LinkGroup::T)))
    }

    fn roots(&self) -> Vec<Arrival> {
        let start = self.cfg.vc_policy.start();
        let mut out = Vec::new();
        for node in (0..self.cfg.shape.num_nodes() as u32).map(NodeId) {
            for ep in self.cfg.chip.endpoints() {
                out.push(Arrival {
                    node,
                    link: GlobalLink::Local {
                        node,
                        link: LocalLink::EpToRouter(ep),
                    },
                    vc: start.vc_for(LinkGroup::M),
                    state: Self::state(None, start),
                });
            }
        }
        out
    }

    fn transitions(&self, arrival: &Arrival) -> Vec<Progress> {
        let cfg = &self.cfg;
        let node = arrival.node;
        let (dst, mut vc) = self.decode(arrival.state);
        let GlobalLink::Local { link, .. } = arrival.link else {
            return Vec::new();
        };
        match (link, dst) {
            (LocalLink::EpToRouter(ep), _) => {
                let from = cfg.chip.endpoint_router(ep);
                let mut out = self.deliveries(node, from, &vc);
                for dir in TorusDir::ALL {
                    if self.dsts_via(node, dir).next().is_some() {
                        out.push(self.depart(node, from, dir, vc, None));
                    }
                }
                out
            }
            (LocalLink::ChanToRouter(arrive), None) => {
                let src = cfg
                    .shape
                    .id(cfg.shape.neighbor(cfg.shape.coord(node), arrive.dir));
                self.dsts_via(src, arrive.dir.opposite())
                    .map(|d| Progress {
                        steps: Vec::new(),
                        next: Some((node, Self::state(Some(d), vc))),
                    })
                    .collect()
            }
            (LocalLink::ChanToRouter(arrive), Some(dst)) => {
                let run = arrive.dir.opposite();
                match self.table.next_hop(node, dst) {
                    Some(dir) if dir.dim == run.dim => {
                        debug_assert_eq!(dir, run, "a run keeps its direction");
                        let mut steps = Vec::new();
                        push_through(cfg, &mut steps, node, arrive, &vc);
                        vec![self.leave(node, steps, dir, vc, Some(dst))]
                    }
                    hop => {
                        vc.end_dim();
                        let from = cfg.chip.chan_router(arrive);
                        match hop {
                            Some(dir) => vec![self.depart(node, from, dir, vc, Some(dst))],
                            None => self.deliveries(node, from, &vc),
                        }
                    }
                }
            }
            _ => Vec::new(),
        }
    }

    fn witnesses(&self, wanted: &[DepEdge], max: usize) -> Vec<Option<ConcreteRoute>> {
        let mut out: Vec<Option<ConcreteRoute>> = vec![None; wanted.len()];
        if wanted.is_empty() || max == 0 {
            return out;
        }
        let shape = self.cfg.shape;
        let ep0 = LocalEndpointId(0);
        let mut found = 0usize;
        let budget = max.min(wanted.len());
        'pairs: for src in shape.nodes() {
            for dst in shape.nodes() {
                if src == dst {
                    continue;
                }
                let (s, d) = (shape.id(src), shape.id(dst));
                let Some(hops) = self.table.path(s, d) else {
                    continue;
                };
                let steps = trace_table_hops(
                    &self.cfg,
                    src,
                    Some(ep0),
                    &hops,
                    self.table.slice(),
                    Some(ep0),
                    &mut |c, h| shape.hop_crosses_dateline(c, h),
                );
                for w in steps.windows(2) {
                    let edge = (w[0], w[1]);
                    for (i, want) in wanted.iter().enumerate() {
                        if out[i].is_none() && *want == edge {
                            out[i] = Some(ConcreteRoute {
                                src: GlobalEndpoint { node: s, ep: ep0 },
                                dst: GlobalEndpoint { node: d, ep: ep0 },
                                path: RoutePath::Torus {
                                    hops: hops.clone(),
                                    slice: self.table.slice(),
                                },
                                holds: edge.0,
                                waits_for: edge.1,
                            });
                            found += 1;
                            if found >= budget {
                                break 'pairs;
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route_table::{build_route_table, DownLinkSet};
    use crate::topology::{Slice, TorusShape};

    #[test]
    fn healthy_table_walk_reaches_every_destination() {
        let cfg = MachineConfig::new(TorusShape::cube(2));
        let shape = cfg.shape;
        let table =
            build_route_table(&shape, Slice(0), &DownLinkSet::empty(shape)).expect("healthy");
        let rf = TableRouting::new(cfg.clone(), table);
        let roots = rf.roots();
        assert_eq!(roots.len(), shape.num_nodes() * cfg.endpoints_per_node());
        // Every injection delivers on its node and leaves on the first
        // hops of its routes; one hop out, the walk fans out to every
        // destination behind that hop.
        let n = shape.num_nodes();
        let mut fixed = 0;
        for prog in rf.transitions(&roots[0]) {
            let Some((node, state)) = prog.next else {
                continue;
            };
            assert!(!prog.steps.is_empty());
            let (link, vc) = *prog.steps.last().unwrap();
            let first = Arrival {
                node,
                link,
                vc,
                state,
            };
            for fan in rf.transitions(&first) {
                assert!(fan.steps.is_empty(), "destinations are fixed in place");
                fixed += 1;
            }
        }
        assert_eq!(fixed, n - 1, "every other node is some hop's destination");
    }
}
