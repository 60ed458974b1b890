//! Integration coverage for fault-aware routing: a single external link
//! going Down must be survived via the pre-certified degraded route
//! tables — every unicast packet still delivers exactly once, packet
//! conservation and credit balance hold, and the deadlock watchdog stays
//! silent. The sweep also cross-checks that the table set the simulator
//! installs is exactly the one the standalone certifier approves.

use anton_core::chip::ChanId;
use anton_core::config::MachineConfig;
use anton_core::route_table::DownLinkSet;
use anton_core::topology::{NodeId, TorusShape};
use anton_core::trace::{trace_table_hops, GlobalLink};
use anton_fault::{FaultKind, FaultSchedule};
use anton_sim::driver::BatchDriver;
use anton_sim::params::SimParams;
use anton_sim::shard::ShardedSim;
use anton_sim::sim::{Delivery, Driver, PacketDelivery, RunOutcome, Sim};
use anton_traffic::patterns::UniformRandom;
use anton_verify::{build_degraded_tables, verify_degraded};

/// A schedule where exactly one link is dead for the whole run.
fn down_forever(node: NodeId, chan: ChanId) -> FaultSchedule {
    FaultSchedule::uniform(3, 0.0).with_fault(
        node,
        chan,
        FaultKind::Down {
            from_cycle: 0,
            until_cycle: u64::MAX,
        },
    )
}

/// Runs a uniform-random unicast batch with one link Down forever and
/// asserts the survival contract: completion, silent watchdog, exact
/// packet conservation, and clean invariants at quiesce. Returns the
/// number of packets that took the degraded tables.
fn assert_survives_single_down(
    shape: TorusShape,
    node: NodeId,
    chan: ChanId,
    packets_per_endpoint: u64,
) -> u64 {
    let cfg = MachineConfig::new(shape);
    let params = SimParams {
        fault: Some(down_forever(node, chan)),
        watchdog_cycles: 20_000,
        ..SimParams::default()
    };
    let mut sim = Sim::builder().config(cfg).params(params).build();
    let mut drv = BatchDriver::builder(&sim)
        .pattern(Box::new(UniformRandom))
        .packets_per_endpoint(packets_per_endpoint)
        .seed(11)
        .build();
    let outcome = sim.run(&mut drv, 50_000_000);
    assert_eq!(
        outcome,
        RunOutcome::Completed,
        "single down link {chan:?} at {node:?} on {shape} must not hang the run"
    );
    assert!(
        sim.deadlock_report().is_none(),
        "watchdog must stay silent for a survivable single-link failure"
    );
    assert_eq!(sim.live_packets(), 0);
    assert_eq!(
        sim.stats().injected_packets,
        sim.stats().delivered_packets,
        "every unicast must deliver exactly once around the dead link"
    );
    sim.check_invariants()
        .expect("conservation and credit balance at quiesce");
    sim.stats().rerouted_packets
}

#[test]
fn any_single_down_link_on_cube4_delivers_everything() {
    // Sweep every channel direction at a corner node and an interior
    // node of the 4x4x4 torus. For each position the run must complete
    // with the watchdog silent, and the degraded table set the simulator
    // installed must be exactly one the standalone certifier approves.
    let shape = TorusShape::cube(4);
    let cfg = MachineConfig::new(shape);
    let mut total_rerouted = 0;
    for node in [NodeId(0), NodeId(21)] {
        for chan in ChanId::all() {
            let mut downs = DownLinkSet::empty(shape);
            downs.insert(node, chan);
            let verdict = verify_degraded(&cfg, &downs);
            assert!(
                verdict.certified(),
                "single down link {chan:?} at {node:?} must certify: {:?}",
                verdict.diagnostics
            );
            total_rerouted += assert_survives_single_down(shape, node, chan, 1);
        }
    }
    assert!(
        total_rerouted > 0,
        "uniform traffic must exercise the degraded tables somewhere in the sweep"
    );
}

#[test]
fn single_down_link_on_paper_scale_torus_delivers_everything() {
    // The paper's 8x8x8 machine: one dead external link, all-to-all
    // uniform traffic from all 8192 endpoints. One position suffices at
    // this scale — the cube-4 sweep covers the direction/dateline cases.
    let shape = TorusShape::cube(8);
    let node = NodeId(0);
    let chan = ChanId::from_index(0);
    let cfg = MachineConfig::new(shape);
    let mut downs = DownLinkSet::empty(shape);
    downs.insert(node, chan);
    assert!(
        verify_degraded(&cfg, &downs).certified(),
        "8x8x8 single-link degraded tables must certify"
    );
    let rerouted = assert_survives_single_down(shape, node, chan, 1);
    assert!(
        rerouted > 0,
        "8192 uniform packets must route some traffic across the dead link"
    );
}

#[test]
fn sharded_kernel_matches_serial_under_permanent_outage() {
    // The sharded kernel builds its degraded state independently per
    // replica; it must agree with the serial kernel cycle-for-cycle even
    // when the whole run executes on the degraded tables.
    let shape = TorusShape::cube(2);
    let cfg = MachineConfig::new(shape);
    let schedule = down_forever(NodeId(0), ChanId::from_index(0));
    let params = SimParams {
        fault: Some(schedule),
        watchdog_cycles: 20_000,
        ..SimParams::default()
    };

    let mut serial = Sim::builder()
        .config(cfg.clone())
        .params(params.clone())
        .build();
    let mut drv = BatchDriver::builder(&serial)
        .pattern(Box::new(UniformRandom))
        .packets_per_endpoint(20)
        .seed(11)
        .build();
    let serial_out = serial.run(&mut drv, 10_000_000);
    assert_eq!(serial_out, RunOutcome::Completed);
    serial.check_invariants().unwrap();

    for shards in [2usize, 4] {
        let mut sharded = ShardedSim::new(
            cfg.clone(),
            SimParams {
                shards,
                ..params.clone()
            },
        );
        let mut sdrv = BatchDriver::builder_for(&cfg)
            .pattern(Box::new(UniformRandom))
            .packets_per_endpoint(20)
            .seed(11)
            .build();
        let sharded_out = sharded.run(&mut sdrv, 10_000_000);
        assert_eq!(sharded_out, RunOutcome::Completed);
        sharded.check_invariants().unwrap();
        assert_eq!(
            sharded.now(),
            serial.now(),
            "{shards}-shard run must finish on the same cycle as serial"
        );
        let (ss, ds) = (serial.stats(), sharded.stats());
        assert_eq!(ss.delivered_packets, ds.delivered_packets);
        assert_eq!(ss.injected_packets, ds.injected_packets);
        assert_eq!(ss.rerouted_packets, ds.rerouted_packets);
        assert_eq!(ss.flit_hops, ds.flit_hops);
    }
}

/// Wraps a batch driver, keeping every delivery that rode a degraded table.
struct TableDeliveries {
    inner: BatchDriver,
    table_routed: Vec<PacketDelivery>,
}

impl Driver for TableDeliveries {
    fn pre_cycle(&mut self, sim: &mut Sim) {
        self.inner.pre_cycle(sim);
    }
    fn on_delivery(&mut self, sim: &mut Sim, d: &Delivery) {
        if let Delivery::Packet(p) = d {
            if p.rerouted {
                self.table_routed.push(p.clone());
            }
        }
        self.inner.on_delivery(sim, d);
    }
    fn done(&self, sim: &Sim) -> bool {
        self.inner.done(sim)
    }
}

#[test]
fn table_routed_packets_take_the_traced_table_path() {
    // The simulator's route log is the independent oracle for table
    // routes: every packet the down-link check steers onto the degraded
    // table at injection must cross exactly the links, on exactly the
    // VCs, that the reference tracer gives its table path. With the link
    // Down from cycle 0 nothing is ever drained off it, so every rerouted
    // delivery was steered at injection.
    let shape = TorusShape::cube(4);
    let cfg = MachineConfig::new(shape);
    let (node, chan) = (NodeId(0), ChanId::from_index(0));
    let params = SimParams {
        fault: Some(down_forever(node, chan)),
        ..SimParams::default()
    };
    let mut sim = Sim::builder().config(cfg.clone()).params(params).build();
    sim.record_routes = true;
    let mut drv = TableDeliveries {
        inner: BatchDriver::builder(&sim)
            .pattern(Box::new(UniformRandom))
            .packets_per_endpoint(4)
            .seed(11)
            .build(),
        table_routed: Vec::new(),
    };
    assert_eq!(sim.run(&mut drv, 10_000_000), RunOutcome::Completed);
    assert!(!drv.table_routed.is_empty(), "no packet took the tables");
    assert_eq!(drv.table_routed.len() as u64, sim.stats().rerouted_packets);
    let (tables, diags) =
        build_degraded_tables(&cfg, &DownLinkSet::from_links(shape, [(node, chan)]));
    assert!(diags.is_empty(), "{diags:?}");
    for p in &drv.table_routed {
        let log = p.route_log.as_ref().expect("route recorded");
        let slice = log
            .iter()
            .find_map(|(l, _)| match l {
                GlobalLink::Torus { slice, .. } => Some(*slice),
                _ => None,
            })
            .expect("a steered packet leaves its node");
        let hops = tables[slice.0 as usize]
            .path(p.src.node, p.dst.node)
            .expect("installed tables reach every pair");
        let expected = trace_table_hops(
            &cfg,
            shape.coord(p.src.node),
            Some(p.src.ep),
            &hops,
            slice,
            Some(p.dst.ep),
            &mut |c, d| shape.hop_crosses_dateline(c, d),
        );
        assert_eq!(
            *log, expected,
            "table route mismatch {} -> {} on {slice}",
            p.src.node, p.dst.node
        );
    }
}
