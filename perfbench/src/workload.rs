//! The four benchmark workloads: one sample = set up, run and check one
//! simulation, in the calling process.
//!
//! Every layer is measured from outside: set-up layers by timing calls
//! into their public functions, the run by reading instruments the
//! simulator already has (`TraceConfig::profile`, `TraceConfig::stalls`,
//! `Sim::metrics`, `ShardedSim::phase_ns`), and the driver by a timing
//! wrapper around its callbacks.

use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::time::Instant;

use anton_analysis::load::LoadAnalysis;
use anton_analysis::weights::ArbiterWeightSet;
use anton_arbiter::ArbiterKind;
use anton_bench::{apply_weights, torus_capacity};
use anton_core::chip::{ChanId, LocalEndpointId};
use anton_core::config::{GlobalEndpoint, MachineConfig};
use anton_core::packet::{Packet, Payload};
use anton_core::pattern::TrafficPattern;
use anton_core::route_table::DownLinkSet;
use anton_core::topology::{Dim, NodeCoord, NodeId, TorusShape};
use anton_fault::{FaultKind, FaultSchedule};
use anton_obs::{StallCause, SHARD_PHASE_NAMES};
use anton_sim::driver::{BatchDriver, PingPongDriver};
use anton_sim::metrics::Metrics;
use anton_sim::params::{SimParams, TraceConfig, CYCLE_NS};
use anton_sim::sim::{Delivery, Driver, RunOutcome, Sim, SimStats, PHASE_NS};
use anton_sim::{ShardableDriver, ShardedSim};
use anton_traffic::patterns::UniformRandom;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Names of the serial kernel's five cycle-loop phases, in `PHASE_NS`
/// order.
const KERNEL_PHASES: [&str; 5] = [
    "wires",
    "endpoints_inject",
    "adapters",
    "routers",
    "endpoints_recv",
];

/// Packets per endpoint of the Figure 9 batch on the 4×4×4 machine.
const FIG9_BATCH: u64 = 128;
/// Packets per endpoint of the sharded 8×8×8 uniform batch.
const K8_BATCH: u64 = 12;
/// Ping-pong pairs and legs per pair of the one-way-latency workload.
const PINGPONG_LEGS: u32 = 1024;
/// Inter-node offset of each ping-pong pair: three at 2 torus hops, one
/// at the 12-hop diameter. The seed places the pairs; the offsets fix
/// their distances, so the workload's work is the same for every seed,
/// and the median latency falls inside the 2-hop group rather than on a
/// boundary between distances.
const PINGPONG_OFFSETS: [[u8; 3]; 4] = [[1, 1, 0], [0, 1, 1], [1, 0, 1], [4, 4, 4]];
/// Open-loop fault workload: packets per endpoint, offered load as a
/// fraction of uniform saturation, per-link bit error rate, and the cycle
/// window during which node 0's x+ slice-0 link (the link
/// `fig_fault_sweep` takes down) is Down.
const FAULT_PACKETS: u64 = 6;
const FAULT_LOAD: f64 = 0.15;
const FAULT_BER: f64 = 1e-4;
const FAULT_DOWN: (u64, u64) = (200, 600);
/// Arbiter weight precision of the inverse-weighted workload (Figure 9).
const IW_M_BITS: u32 = 5;
/// Shards of the sharded workload: one per CPU of a 2-CPU host.
const K8_SHARDS: usize = 2;
/// Cycle budget of every run; a run that needs more counts as failed.
const MAX_CYCLES: u64 = 50_000_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 4×4×4 inverse-weighted Figure 9 point, serial kernel.
    Fig9IwK4,
    /// 8×8×8 round-robin uniform batch on the sharded kernel.
    UniformK8Sharded,
    /// Idle 8×8×8 machine with four closed-loop ping-pong pairs.
    PingpongK8,
    /// 8×8×8 open-loop load over lossy links with one link Down.
    FaultK8,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fig9IwK4,
        Workload::UniformK8Sharded,
        Workload::PingpongK8,
        Workload::FaultK8,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig9IwK4 => "fig9_iw_k4",
            Workload::UniformK8Sharded => "uniform_k8_sharded",
            Workload::PingpongK8 => "pingpong_k8",
            Workload::FaultK8 => "fault_k8",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn k(self) -> u8 {
        match self {
            Workload::Fig9IwK4 => 4,
            _ => 8,
        }
    }

    /// Shards of the workload's own kernel (1 = serial).
    pub fn shards(self) -> usize {
        match self {
            Workload::UniformK8Sharded => K8_SHARDS,
            _ => 1,
        }
    }
}

/// How one sample runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Tracing off: the end-to-end sample.
    Untraced,
    /// Phase profiler and stall attribution on, plus the set-up layers
    /// timed by calling them one by one.
    Traced,
    /// The workload on the serial kernel, untraced: the reference the
    /// sharded kernel's statistics must match.
    SerialReference,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Untraced => "untraced",
            Mode::Traced => "traced",
            Mode::SerialReference => "serial",
        }
    }

    pub fn parse(name: &str) -> Option<Mode> {
        [Mode::Untraced, Mode::Traced, Mode::SerialReference]
            .into_iter()
            .find(|m| m.name() == name)
    }
}

/// What one sample measured. `layers` holds `(per-layer metric, value)`
/// rows and is empty unless the sample was traced.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    pub setup_s: f64,
    pub run_s: f64,
    pub wall_s: f64,
    /// Peak resident set of the sample's process, filled in by the caller.
    pub peak_rss_mb: f64,
    pub cycles: u64,
    /// Hash of the delivery stream and the final statistics: equal for
    /// equal simulated behaviour.
    pub fingerprint: u64,
    pub sim_throughput: f64,
    pub latency_p50: u64,
    pub latency_p99: u64,
    /// The highest latency percentile with ten packets beyond it.
    pub tail_pct: f64,
    pub tail_cycles: u64,
    pub one_way_ns: f64,
    pub layers: Vec<(String, f64)>,
}

/// SplitMix64 step: the benchmark's seed-derived input generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Folds one value into a running FNV-1a-style hash.
fn mix(h: &mut u64, v: u64) {
    *h = (*h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
}

/// Saturation injection rate of uniform random traffic, in packets per
/// cycle per endpoint. Routing spreads uniform traffic evenly over every
/// torus channel of a cube, so the busiest channel carries the mean load:
/// endpoints × mean torus hops / channels. The 4×4×4 workload checks this
/// against `LoadAnalysis` on every run; at 8×8×8 the analysis costs tens
/// of seconds.
fn uniform_saturation(cfg: &MachineConfig) -> f64 {
    let k = u64::from(cfg.shape.k(Dim::X));
    let ring: u64 = (0..k).map(|d| d.min(k - d)).sum();
    let nodes = k * k * k;
    // Sum of hop distances from one node to every node, over nodes ≠ self.
    let mean_hops = (3 * ring * k * k) as f64 / (nodes - 1) as f64;
    let load = cfg.num_endpoints() as f64 * mean_hops / cfg.num_torus_links() as f64;
    torus_capacity() / load
}

/// The driver wrapper: records every delivery into the fingerprint and
/// latency list and, when `timed`, the host time spent in the wrapped
/// driver's callbacks.
struct Observed<D> {
    inner: D,
    timed: bool,
    driver_ns: Cell<u64>,
    hash: u64,
    latencies: Vec<u64>,
    last_delivery: u64,
}

impl<D> Observed<D> {
    fn new(inner: D, timed: bool) -> Observed<D> {
        Observed {
            inner,
            timed,
            driver_ns: Cell::new(0),
            hash: 0xcbf2_9ce4_8422_2325,
            latencies: Vec::new(),
            last_delivery: 0,
        }
    }

    /// Charges the time since `t` (a timed wrapper's callback start) to
    /// the driver.
    fn charge(&self, t: Option<Instant>) {
        if let Some(t) = t {
            self.driver_ns
                .set(self.driver_ns.get() + t.elapsed().as_nanos() as u64);
        }
    }
}

impl<D: Driver> Driver for Observed<D> {
    fn pre_cycle(&mut self, sim: &mut Sim) {
        let t = self.timed.then(Instant::now);
        self.inner.pre_cycle(sim);
        self.charge(t);
    }

    fn on_delivery(&mut self, sim: &mut Sim, delivery: &Delivery) {
        match delivery {
            Delivery::Packet(p) => {
                for v in [
                    sim.cfg.endpoint_index(p.src) as u64,
                    sim.cfg.endpoint_index(p.dst) as u64,
                    p.injected_at,
                    p.delivered_at,
                    u64::from(p.torus_hops),
                    u64::from(p.rerouted),
                ] {
                    mix(&mut self.hash, v);
                }
                self.latencies.push(p.delivered_at - p.injected_at);
                self.last_delivery = self.last_delivery.max(p.delivered_at);
            }
            Delivery::Handler { ep, counter } => {
                for v in [
                    sim.cfg.endpoint_index(*ep) as u64,
                    u64::from(counter.0),
                    sim.now(),
                ] {
                    mix(&mut self.hash, v);
                }
            }
        }
        let t = self.timed.then(Instant::now);
        self.inner.on_delivery(sim, delivery);
        self.charge(t);
    }

    fn done(&self, sim: &Sim) -> bool {
        let t = self.timed.then(Instant::now);
        let done = self.inner.done(sim);
        self.charge(t);
        done
    }
}

impl<D: ShardableDriver> ShardableDriver for Observed<D> {
    fn split(
        &self,
        cfg: &MachineConfig,
        ranges: &[std::ops::Range<usize>],
    ) -> Vec<Box<dyn Driver + Send>> {
        self.inner.split(cfg, ranges)
    }

    fn done_implies_quiescent(&self) -> bool {
        self.inner.done_implies_quiescent()
    }
}

/// The simulator under either kernel.
enum Kernel {
    Serial(Box<Sim>),
    Sharded(Box<ShardedSim>),
}

impl Kernel {
    fn run<D: ShardableDriver>(&mut self, driver: &mut Observed<D>) -> RunOutcome {
        match self {
            Kernel::Serial(sim) => sim.run(driver, MAX_CYCLES),
            Kernel::Sharded(sim) => sim.run(driver, MAX_CYCLES),
        }
    }

    fn now(&self) -> u64 {
        match self {
            Kernel::Serial(sim) => sim.now(),
            Kernel::Sharded(sim) => sim.now(),
        }
    }

    fn check_invariants(&self) -> Result<(), String> {
        match self {
            Kernel::Serial(sim) => sim.check_invariants(),
            Kernel::Sharded(sim) => sim.check_invariants(),
        }
    }

    fn stats(&self) -> SimStats {
        match self {
            Kernel::Serial(sim) => sim.stats().clone(),
            Kernel::Sharded(sim) => sim.stats(),
        }
    }

    fn metrics(&self) -> Metrics {
        match self {
            Kernel::Serial(sim) => sim.metrics(),
            Kernel::Sharded(sim) => sim.metrics(),
        }
    }

    /// Stall cycles per cause, summed over every wire.
    fn stall_cycles(&mut self) -> [u64; anton_obs::stall::NUM_CAUSES] {
        let table = match self {
            Kernel::Serial(sim) => {
                sim.flush_stalls();
                sim.stall_table().cloned()
            }
            Kernel::Sharded(sim) => sim.merged_stalls(),
        };
        let mut total = [0; anton_obs::stall::NUM_CAUSES];
        if let Some(t) = table {
            for w in 0..t.num_wires() as u32 {
                for (acc, c) in total.iter_mut().zip(t.wire_cause_cycles(w)) {
                    *acc += c;
                }
            }
        }
        total
    }

    /// Shard worker phase nanoseconds summed over shards (zero on the
    /// serial kernel).
    fn shard_phase_ns(&self) -> [u64; anton_obs::NUM_SHARD_PHASES] {
        let mut total = [0; anton_obs::NUM_SHARD_PHASES];
        if let Kernel::Sharded(sim) = self {
            for per in sim.phase_ns().unwrap_or(&[]) {
                for (acc, v) in total.iter_mut().zip(per) {
                    *acc += v;
                }
            }
        }
        total
    }
}

/// Per-workload inputs, generated from the seed.
struct Inputs {
    cfg: MachineConfig,
    params: SimParams,
    /// Packets the run must deliver.
    expected: u64,
}

fn inputs(w: Workload, seed: u64, traced: bool) -> Inputs {
    let cfg = MachineConfig::new(TorusShape::cube(w.k()));
    let mut params = SimParams::default();
    if traced {
        params.trace = TraceConfig {
            profile: true,
            stalls: true,
            ..TraceConfig::default()
        };
    }
    let eps = cfg.num_endpoints() as u64;
    let expected = match w {
        Workload::Fig9IwK4 => {
            params.arbiter = ArbiterKind::InverseWeighted { m_bits: IW_M_BITS };
            FIG9_BATCH * eps
        }
        Workload::UniformK8Sharded => K8_BATCH * eps,
        Workload::PingpongK8 => u64::from(PINGPONG_LEGS) * PINGPONG_OFFSETS.len() as u64,
        Workload::FaultK8 => {
            params.fault = Some(fault_schedule(seed));
            params.watchdog_cycles = 200_000;
            FAULT_PACKETS * eps
        }
    };
    Inputs {
        cfg,
        params,
        expected,
    }
}

fn fault_schedule(seed: u64) -> FaultSchedule {
    FaultSchedule::uniform(seed, FAULT_BER).with_fault(
        NodeId(0),
        ChanId::from_index(0),
        FaultKind::Down {
            from_cycle: FAULT_DOWN.0,
            until_cycle: FAULT_DOWN.1,
        },
    )
}

/// Four ping-pong pairs at [`PINGPONG_OFFSETS`], placed by the seed on
/// distinct endpoints.
fn pingpong_pairs(cfg: &MachineConfig, seed: u64) -> Vec<(GlobalEndpoint, GlobalEndpoint)> {
    let mut rng = seed;
    let nodes = cfg.shape.num_nodes() as u64;
    let eps = cfg.endpoints_per_node() as u64;
    let mut used: Vec<GlobalEndpoint> = Vec::new();
    let mut pairs = Vec::new();
    for off in PINGPONG_OFFSETS {
        loop {
            let node = NodeId((splitmix64(&mut rng) % nodes) as u32);
            let c = cfg.shape.coord(node);
            let k = cfg.shape.k(Dim::X);
            let dst = NodeCoord::new((c.x + off[0]) % k, (c.y + off[1]) % k, (c.z + off[2]) % k);
            let a = GlobalEndpoint {
                node,
                ep: LocalEndpointId((splitmix64(&mut rng) % eps) as u8),
            };
            let b = GlobalEndpoint {
                node: cfg.shape.id(dst),
                ep: LocalEndpointId((splitmix64(&mut rng) % eps) as u8),
            };
            if !used.contains(&a) && !used.contains(&b) {
                used.extend([a, b]);
                pairs.push((a, b));
                break;
            }
        }
    }
    pairs
}

/// Set-up layer timings (seconds) and certificate sizes of a sample.
#[derive(Default)]
struct SetupLayers {
    load_s: f64,
    weights_s: f64,
    build_s: f64,
    preflight_s: f64,
    route_tables_s: f64,
    certify_tables_s: f64,
    certified_pairs: usize,
    certified_edges: usize,
    degraded_edges: usize,
}

/// Times, outside the simulator, the verification calls that building it
/// makes internally: the pre-flight certification and, under a Down
/// window, the degraded route tables and their certification.
fn time_verify_layers(inputs: &Inputs, layers: &mut SetupLayers) {
    let t = Instant::now();
    let report = anton_verify::preflight(&inputs.cfg, &inputs.params.verify_view());
    layers.preflight_s = t.elapsed().as_secs_f64();
    if let Some(cert) = &report.certificate {
        layers.certified_pairs = cert.nodes;
        layers.certified_edges = cert.edges;
    }
    let Some(schedule) = &inputs.params.fault else {
        return;
    };
    let mut downs = DownLinkSet::empty(inputs.cfg.shape);
    for f in &schedule.faults {
        if matches!(f.kind, FaultKind::Down { .. }) {
            downs.insert(f.from, f.chan);
        }
    }
    if downs.is_empty() {
        return;
    }
    let t = Instant::now();
    let (tables, _) = anton_verify::build_degraded_tables(&inputs.cfg, &downs);
    layers.route_tables_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let cert = anton_verify::certify_tables(&inputs.cfg, &tables);
    layers.certify_tables_s = t.elapsed().as_secs_f64();
    layers.degraded_edges = cert.edges;
}

/// Builds the simulator for the workload's kernel (or the serial one).
fn build(inputs: &Inputs, shards: usize, layers: &mut SetupLayers) -> Kernel {
    let weights = match inputs.params.arbiter {
        ArbiterKind::InverseWeighted { m_bits } => {
            let t = Instant::now();
            let analysis = LoadAnalysis::compute(&inputs.cfg, &UniformRandom);
            layers.load_s = t.elapsed().as_secs_f64();
            let sat = analysis.saturation_injection_rate(torus_capacity());
            let closed = uniform_saturation(&inputs.cfg);
            assert!(
                (sat - closed).abs() <= 1e-9 * sat,
                "closed-form uniform saturation {closed} disagrees with LoadAnalysis {sat}"
            );
            let t = Instant::now();
            let set = ArbiterWeightSet::compute(&inputs.cfg, &[&analysis], m_bits);
            layers.weights_s = t.elapsed().as_secs_f64();
            let diags = anton_verify::lint_weights(&set);
            assert!(diags.is_empty(), "weight set failed lint: {diags:?}");
            Some(set)
        }
        _ => None,
    };
    let builder = Sim::builder()
        .config(inputs.cfg.clone())
        .params(inputs.params.clone());
    let t = Instant::now();
    let mut kernel = if shards > 1 {
        Kernel::Sharded(Box::new(builder.shards(shards).build_sharded()))
    } else {
        Kernel::Serial(Box::new(builder.build()))
    };
    layers.build_s = t.elapsed().as_secs_f64();
    if let Some(set) = &weights {
        match &mut kernel {
            Kernel::Serial(sim) => apply_weights(sim, set),
            Kernel::Sharded(sim) => sim.configure(|s| apply_weights(s, set)),
        }
    }
    kernel
}

/// Open-loop uniform random traffic on a fixed schedule: endpoint `i`
/// offers a packet every `period` cycles from a seeded phase in
/// `[0, period)`, whatever the network's state. A Bernoulli source (the
/// `LoadDriver` of `fig_fault_sweep`) ends its injection at the slowest of
/// 8192 endpoints, which moves the run's length by about 10% from seed to
/// seed; a fixed schedule keeps the simulated work the same for every
/// seed, so the host time per run measures the simulator, not the draw.
struct PeriodicLoad {
    /// `(due cycle, source endpoint index)`, ascending.
    schedule: Vec<(u64, usize)>,
    next: usize,
    delivered: usize,
    rng: StdRng,
}

impl PeriodicLoad {
    fn new(cfg: &MachineConfig, rate: f64, packets: u64, seed: u64) -> PeriodicLoad {
        let period = (1.0 / rate).round() as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut schedule: Vec<(u64, usize)> = (0..cfg.num_endpoints())
            .flat_map(|i| {
                let phase = rng.gen_range(0..period);
                (0..packets).map(move |j| (phase + j * period, i))
            })
            .collect();
        schedule.sort_unstable();
        PeriodicLoad {
            schedule,
            next: 0,
            delivered: 0,
            rng,
        }
    }
}

impl Driver for PeriodicLoad {
    fn pre_cycle(&mut self, sim: &mut Sim) {
        while let Some(&(due, i)) = self.schedule.get(self.next) {
            if due > sim.now() {
                break;
            }
            let src = sim.cfg.endpoint_at(i);
            let dst = UniformRandom.sample_dst(&sim.cfg, src, &mut self.rng);
            sim.inject(src, Packet::write(src, dst, Payload::zeros(16)));
            self.next += 1;
        }
    }

    fn on_delivery(&mut self, _: &mut Sim, delivery: &Delivery) {
        if matches!(delivery, Delivery::Packet(_)) {
            self.delivered += 1;
        }
    }

    fn done(&self, _: &Sim) -> bool {
        self.delivered == self.schedule.len()
    }
}

/// Drivers that run on the serial kernel only (ping-pong injects in
/// response to deliveries, so it cannot be split); the wrapper lets them
/// share the run path of shardable ones.
struct SerialOnly<D>(D);

impl<D: Driver> Driver for SerialOnly<D> {
    fn pre_cycle(&mut self, sim: &mut Sim) {
        self.0.pre_cycle(sim);
    }
    fn on_delivery(&mut self, sim: &mut Sim, delivery: &Delivery) {
        self.0.on_delivery(sim, delivery);
    }
    fn done(&self, sim: &Sim) -> bool {
        self.0.done(sim)
    }
}

impl<D: Driver> ShardableDriver for SerialOnly<D> {
    fn split(
        &self,
        _: &MachineConfig,
        _: &[std::ops::Range<usize>],
    ) -> Vec<Box<dyn Driver + Send>> {
        unreachable!("serial-only drivers never run on the sharded kernel")
    }
}

/// A simulator built and ready to run, with what its set-up measured.
struct Prepared {
    kernel: Kernel,
    expected: u64,
    saturation: f64,
    endpoints: usize,
    setup_start: Instant,
    layers: SetupLayers,
    traced: bool,
    corrupt: bool,
}

/// Runs one sample of `w` in `mode`. `corrupt` drops one delivery from
/// the output before the check, to show that a wrong output is caught.
pub fn sample(w: Workload, seed: u64, mode: Mode, corrupt: bool) -> Result<Sample, String> {
    let traced = mode == Mode::Traced;
    let inputs = inputs(w, seed, traced);
    let mut layers = SetupLayers::default();
    if traced {
        time_verify_layers(&inputs, &mut layers);
    }
    // Set-up starts after the external verification calls: they repeat
    // work the build does and are not part of it.
    let setup_start = Instant::now();
    let shards = if mode == Mode::SerialReference {
        1
    } else {
        w.shards()
    };
    let kernel = build(&inputs, shards, &mut layers);
    let saturation = uniform_saturation(&inputs.cfg);
    let prepared = Prepared {
        kernel,
        expected: inputs.expected,
        saturation,
        endpoints: inputs.cfg.num_endpoints(),
        setup_start,
        layers,
        traced,
        corrupt,
    };
    match w {
        Workload::PingpongK8 => {
            let pairs = pingpong_pairs(&inputs.cfg, seed);
            let drv = Observed::new(
                SerialOnly(PingPongDriver::new(pairs, PINGPONG_LEGS)),
                traced,
            );
            measure(prepared, drv, |d| {
                let pp = &d.inner.0;
                let n = pp.num_pairs();
                (0..n).map(|i| pp.mean_one_way_ns(i)).sum::<f64>() / n as f64
            })
        }
        Workload::FaultK8 => {
            let drv = PeriodicLoad::new(&inputs.cfg, FAULT_LOAD * saturation, FAULT_PACKETS, seed);
            measure(
                prepared,
                Observed::new(SerialOnly(drv), traced),
                mean_latency_ns,
            )
        }
        Workload::Fig9IwK4 | Workload::UniformK8Sharded => {
            let batch = if w == Workload::Fig9IwK4 {
                FIG9_BATCH
            } else {
                K8_BATCH
            };
            let drv = BatchDriver::builder_for(&inputs.cfg)
                .pattern(Box::new(UniformRandom))
                .packets_per_endpoint(batch)
                .seed(seed)
                .build();
            measure(prepared, Observed::new(drv, traced), mean_latency_ns)
        }
    }
}

/// Mean injection-to-delivery packet latency in simulated nanoseconds.
fn mean_latency_ns<D>(d: &Observed<D>) -> f64 {
    let n = d.latencies.len().max(1) as f64;
    d.latencies.iter().sum::<u64>() as f64 / n * CYCLE_NS
}

fn phase_ns() -> [u64; 5] {
    std::array::from_fn(|i| PHASE_NS[i].load(Ordering::Relaxed))
}

/// Runs a prepared simulator to completion, checks its output, and
/// collects the sample (with its per-layer rows when traced).
fn measure<D: ShardableDriver>(
    mut p: Prepared,
    mut drv: Observed<D>,
    one_way_ns: impl Fn(&Observed<D>) -> f64,
) -> Result<Sample, String> {
    let setup_s = p.setup_start.elapsed().as_secs_f64();
    let phases_before = phase_ns();
    let t = Instant::now();
    let outcome = p.kernel.run(&mut drv);
    let run_s = t.elapsed().as_secs_f64();
    let phases_after = phase_ns();

    // The output check.
    if outcome != RunOutcome::Completed {
        return Err(format!("run ended {outcome:?} at cycle {}", p.kernel.now()));
    }
    p.kernel.check_invariants()?;
    if p.corrupt {
        drv.latencies.pop();
    }
    let stats = p.kernel.stats();
    let delivered = drv.latencies.len() as u64;
    if [delivered, stats.delivered_packets, stats.injected_packets] != [p.expected; 3] {
        return Err(format!(
            "expected {} packets injected and delivered; the driver saw {delivered}, \
             the simulator injected {} and delivered {}",
            p.expected, stats.injected_packets, stats.delivered_packets
        ));
    }
    let metrics = p.kernel.metrics();
    let fault = metrics.fault.map(|f| f.totals).unwrap_or_default();
    let mut fingerprint = drv.hash;
    for v in [
        p.kernel.now(),
        stats.injected_packets,
        stats.delivered_packets,
        stats.flit_hops,
        stats.torus_flits,
        stats.last_delivery_cycle,
        stats.rerouted_packets,
        metrics.grants.sa1,
        metrics.grants.output,
        metrics.grants.serializer,
        fault.frames_sent,
        fault.retransmissions,
        fault.data_frames_dropped,
        fault.ack_frames_dropped,
    ] {
        mix(&mut fingerprint, v);
    }
    drv.latencies.sort_unstable();
    let sorted = &drv.latencies;
    let n = sorted.len();
    if n < 1000 {
        return Err(format!("{n} packets are too few for a p99 latency"));
    }
    let rank = |q: f64| sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
    let mut s = Sample {
        setup_s,
        run_s,
        wall_s: p.setup_start.elapsed().as_secs_f64(),
        peak_rss_mb: 0.0,
        cycles: p.kernel.now(),
        fingerprint,
        sim_throughput: n as f64 / p.endpoints as f64 / drv.last_delivery as f64 / p.saturation,
        latency_p50: rank(0.50),
        latency_p99: rank(0.99),
        tail_pct: 100.0 * (n - 10) as f64 / n as f64,
        tail_cycles: sorted[n - 11],
        one_way_ns: one_way_ns(&drv),
        layers: Vec::new(),
    };
    if !p.traced {
        return Ok(s);
    }

    let l = &p.layers;
    let secs = |ns: u64| ns as f64 * 1e-9;
    let mut rows: Vec<(String, f64)> = vec![
        ("setup.total_s".into(), setup_s),
        ("analysis.load_s".into(), l.load_s),
        ("analysis.weights_s".into(), l.weights_s),
        ("verify.preflight_s".into(), l.preflight_s),
        ("verify.certified_pairs".into(), l.certified_pairs as f64),
        ("verify.certified_edges".into(), l.certified_edges as f64),
        ("core.route_tables_s".into(), l.route_tables_s),
        ("verify.certify_tables_s".into(), l.certify_tables_s),
        ("verify.degraded_edges".into(), l.degraded_edges as f64),
        (
            "sim.construct_s".into(),
            l.build_s - l.preflight_s - l.route_tables_s - l.certify_tables_s,
        ),
        (
            "setup.untimed_s".into(),
            setup_s - l.load_s - l.weights_s - l.build_s,
        ),
        ("sim.run_s".into(), run_s),
        ("sim.driver_s".into(), secs(drv.driver_ns.get())),
    ];
    for (i, name) in KERNEL_PHASES.iter().enumerate() {
        rows.push((
            format!("sim.phase.{name}_s"),
            secs(phases_after[i] - phases_before[i]),
        ));
    }
    let shard = p.kernel.shard_phase_ns();
    for (name, ns) in SHARD_PHASE_NAMES.iter().zip(shard) {
        rows.push((format!("shard.{name}_s"), secs(ns)));
    }
    let barrier_ratio = if shard[0] == 0 {
        0.0
    } else {
        shard[1] as f64 / shard[0] as f64
    };
    rows.push(("shard.barrier_ratio".into(), barrier_ratio));
    for (name, v) in [
        ("sim.cycles", p.kernel.now()),
        ("sim.flit_hops", stats.flit_hops),
        ("sim.torus_flits", stats.torus_flits),
        ("sim.delivered_packets", stats.delivered_packets),
        ("sim.rerouted_packets", stats.rerouted_packets),
        ("arbiter.grants_sa1", metrics.grants.sa1),
        ("arbiter.grants_output", metrics.grants.output),
        ("arbiter.grants_serializer", metrics.grants.serializer),
        ("fault.retransmissions", fault.retransmissions),
    ] {
        rows.push((name.into(), v as f64));
    }
    rows.push((
        "fault.retransmission_overhead".into(),
        fault.retransmission_overhead(),
    ));
    for (cause, cycles) in StallCause::ALL.iter().zip(p.kernel.stall_cycles()) {
        rows.push((format!("stall.{}_cycles", cause.name()), cycles as f64));
    }
    s.layers = rows;
    Ok(s)
}
