//! The traced deployment: the `Engine` wiring rebuilt on the benchmark side
//! around a peer wrapper that charges every callback to a layer.
//!
//! [`Traced`] wraps each `MortarPeer` and times its `on_timer` /
//! `on_message` calls from outside, charging them by message kind. The
//! accumulators (count, busy nanoseconds, log2 histogram of nanoseconds per
//! call) live in memory for the whole run and are read once at the end.
//! [`Wired`] repeats what `Engine::new` / `Engine::install` do — topology,
//! planning with the engine's seeds, `Fleet::build`, install inject — so a
//! traced run must reproduce the untraced `Engine` run counter for counter.

use mortar_core::msg::MortarMsg;
use mortar_core::peer::{MortarPeer, PeerConfig};
use mortar_core::query::{build_records, QuerySpec};
use mortar_core::store::ObjectStore;
use mortar_core::OpRegistry;
use mortar_net::{App, ChaosConfig, ClockModel, Ctx, Fleet, NodeId, SimBuilder, Topology};
use mortar_overlay::{plan_tree_set, PlannerConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The layers a peer callback is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `on_timer` that ran a tick: sensor pump, window close, TS-list
    /// eviction, routing, envelope flush, heartbeat send.
    Tick,
    /// `on_timer` that found a superseded timer tag and did nothing.
    StaleTimer,
    /// Summary frames and envelopes arriving.
    Summary,
    /// Heartbeats arriving (including the reconcile trigger they carry).
    Heartbeat,
    /// The reconciliation phases.
    Reconcile,
    /// Install, remove and topology service.
    Control,
}

pub const LAYERS: [Layer; 6] = [
    Layer::Tick,
    Layer::StaleTimer,
    Layer::Summary,
    Layer::Heartbeat,
    Layer::Reconcile,
    Layer::Control,
];

const BUCKETS: usize = 40;

/// One layer's accumulated callback cost.
#[derive(Debug, Clone, Copy)]
pub struct Acc {
    pub calls: u64,
    pub busy_ns: u64,
    /// `hist[b]` counts calls whose duration had bit length `b` in ns.
    pub hist: [u64; BUCKETS],
}

impl Default for Acc {
    fn default() -> Self {
        Self { calls: 0, busy_ns: 0, hist: [0; BUCKETS] }
    }
}

impl Acc {
    fn add(&mut self, d: Duration) {
        let ns = d.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.calls += 1;
        self.busy_ns += ns;
        self.hist[((u64::BITS - ns.leading_zeros()) as usize).min(BUCKETS - 1)] += 1;
    }

    /// `self - earlier`, for a region between two snapshots.
    pub fn since(&self, earlier: &Acc) -> Acc {
        let mut hist = [0; BUCKETS];
        for (b, h) in hist.iter_mut().enumerate() {
            *h = self.hist[b] - earlier.hist[b];
        }
        Acc { calls: self.calls - earlier.calls, busy_ns: self.busy_ns - earlier.busy_ns, hist }
    }

    /// Upper edge (ns) of the histogram bucket holding the `q` quantile.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let want = (self.calls as f64 * q).ceil() as u64;
        let mut seen = 0;
        for (b, &h) in self.hist.iter().enumerate() {
            seen += h;
            if seen >= want.max(1) {
                return 1u64 << b;
            }
        }
        0
    }
}

thread_local! {
    static ACC: RefCell<[Acc; LAYERS.len()]> = RefCell::new([Acc::default(); LAYERS.len()]);
}

fn charge(layer: Layer, d: Duration) {
    ACC.with(|a| a.borrow_mut()[layer as usize].add(d));
}

/// The accumulators so far (the simulator runs every callback on the
/// calling thread with `shards = 1`).
pub fn snapshot() -> [Acc; LAYERS.len()] {
    ACC.with(|a| *a.borrow())
}

pub fn reset() {
    ACC.with(|a| *a.borrow_mut() = [Acc::default(); LAYERS.len()]);
}

fn layer_of(msg: &MortarMsg) -> Layer {
    match msg {
        MortarMsg::SummaryBatch(_) | MortarMsg::Envelope { .. } => Layer::Summary,
        MortarMsg::Heartbeat { .. } => Layer::Heartbeat,
        MortarMsg::Reconcile { .. }
        | MortarMsg::ReconcileDigest { .. }
        | MortarMsg::ReconcilePlan { .. }
        | MortarMsg::ReconcileTransfer { .. } => Layer::Reconcile,
        MortarMsg::Install { .. }
        | MortarMsg::Remove { .. }
        | MortarMsg::TopoRequest { .. }
        | MortarMsg::TopoReply { .. } => Layer::Control,
    }
}

/// A peer whose callbacks are timed and charged to layers.
pub struct Traced {
    pub peer: MortarPeer,
    /// Local instant of the query-issue reference the peer adopted at its
    /// latest install (`local_now - issue_age`), when that install came
    /// from an install or topology message; `None` when a later install
    /// came through reconciliation, whose age is per entry.
    pub base_us: Option<i64>,
}

impl App for Traced {
    type Msg = MortarMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, MortarMsg>) {
        self.peer.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, MortarMsg>, from: NodeId, msg: MortarMsg, b: u32) {
        let layer = layer_of(&msg);
        let age = match &msg {
            MortarMsg::Install { issue_age_us, .. } | MortarMsg::TopoReply { issue_age_us, .. } => {
                Some(*issue_age_us)
            }
            _ => None,
        };
        let installs = self.peer.stats.installs;
        let start = Instant::now();
        self.peer.on_message(ctx, from, msg, b);
        charge(layer, start.elapsed());
        if self.peer.stats.installs != installs {
            self.base_us = age.map(|a| ctx.local_now_us() - a);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, MortarMsg>, tag: u64) {
        let ticks = self.peer.stats.ticks;
        let start = Instant::now();
        self.peer.on_timer(ctx, tag);
        let d = start.elapsed();
        charge(if self.peer.stats.ticks != ticks { Layer::Tick } else { Layer::StaleTimer }, d);
    }
}

/// Wall time of each set-up stage of a [`Wired`] deployment.
#[derive(Debug, Clone, Copy, Default)]
pub struct WiredSetup {
    pub topology_s: f64,
    pub fleet_s: f64,
}

/// The engine's wiring, rebuilt from the crates' public pieces.
pub struct Wired {
    pub fleet: Fleet<Traced>,
    coords: Vec<Vec<f64>>,
    planner: PlannerConfig,
    rng: SmallRng,
    store: ObjectStore,
    pub plan_calls: u64,
    pub plan_ns: u64,
}

impl Wired {
    /// What `Engine::new` builds from the configuration
    /// `workload::engine` gives it.
    pub fn new(hosts: usize, seed: u64, peer: PeerConfig) -> (Self, WiredSetup) {
        let t = Instant::now();
        let topo = Topology::paper_inet(hosts, crate::workload::TOPOLOGY_SEED);
        // Planning on true latency: latency rows are the coordinates.
        let coords = topo.latency_matrix_ms();
        let topology_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let builder = SimBuilder::new(topo, seed)
            .clock_model(ClockModel::perfect())
            .chaos(ChaosConfig::none());
        let registry = OpRegistry::new();
        let fleet = Fleet::build(builder, 1, move |id| Traced {
            peer: MortarPeer::new(id, peer, registry.clone()),
            base_us: None,
        });
        let fleet_s = t.elapsed().as_secs_f64();
        let wired = Self {
            fleet,
            coords,
            planner: PlannerConfig::default(),
            rng: SmallRng::seed_from_u64(seed ^ 0x9e37),
            store: ObjectStore::new(),
            plan_calls: 0,
            plan_ns: 0,
        };
        (wired, WiredSetup { topology_s, fleet_s })
    }

    /// `Engine::install`: plan on the member coordinates, then inject the
    /// install at the root.
    pub fn install(&mut self, spec: QuerySpec) {
        let start = Instant::now();
        let member_coords: Vec<Vec<f64>> =
            spec.members.iter().map(|&p| self.coords[p as usize].clone()).collect();
        let root = spec.member_of(spec.root).expect("generated specs include their root") as usize;
        let trees = plan_tree_set(&member_coords, root, &self.planner, &mut self.rng);
        self.plan_ns += start.elapsed().as_nanos() as u64;
        self.plan_calls += 1;
        let records = build_records(&spec.members, &trees);
        let id = self.store.intern(&spec.name);
        let seq = self.store.issue_install(&spec.name);
        let root = spec.root;
        let msg = MortarMsg::Install { spec: Arc::new(spec), id, seq, records, issue_age_us: 0 };
        let bytes = msg.wire_bytes();
        self.fleet.inject(root, root, msg, bytes);
    }

    /// `Engine::remove`.
    pub fn remove(&mut self, name: &str, root: NodeId) {
        let id = self.store.query_id(name).expect("removals follow their install");
        let seq = self.store.issue_remove(name);
        let msg = MortarMsg::Remove { id, seq };
        let bytes = msg.wire_bytes();
        self.fleet.inject(root, root, msg, bytes);
    }
}
