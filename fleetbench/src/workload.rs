//! The three workloads and the one runner that drives them, untraced
//! through `Engine` or traced through the benchmark-side wiring.

use crate::gen::{self, Action, ChurnShape, Gen, ReplayInput};
use crate::quiet::Quiet;
use crate::trace::Wired;
use mortar_core::engine::{Engine, EngineConfig};
use mortar_core::feed::{FeedConnector, FeedSpec, IntakePolicy};
use mortar_core::op::{KeyField, OpKind};
use mortar_core::peer::{MortarPeer, PeerConfig};
use mortar_core::query::{QuerySpec, SensorSpec};
use mortar_core::window::WindowSpec;
use mortar_core::AggState;
use mortar_net::{
    ChaosConfig, ClockModel, NodeId, SimStats, TimeUs, Topology, TrafficClass, MS, SEC,
};
use mortar_overlay::PlannerConfig;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Key classes and group cap of the keyed workload.
const KEY_CLASSES: u64 = 16;
const KEY_CAP: usize = 32;
/// Replay input is handed to the peers this many slides at a time.
const CHUNK_SLIDES: u64 = 400;
/// Set-up polls activation at this simulated step.
const ACTIVE_STEP: TimeUs = 20 * MS;
/// Results are read off the root logs at least this often (the logs are
/// bounded rings).
const DRAIN_EVERY: TimeUs = 5 * SEC;

/// Every workload runs on one fixed Inet-like network per fleet size; the
/// workload seed varies the inputs, the plans and the simulator's
/// randomness. A network drawn per seed would make hop counts, and so wire
/// bytes and throughput, differ by more between seeds than a change under
/// test should be allowed to move them.
pub const TOPOLOGY_SEED: u64 = 2008;

/// The peer configuration every workload runs: the production settings the
/// hotpath harness uses (no ground-truth tracking).
pub fn peer_config() -> PeerConfig {
    PeerConfig { track_truth: false, ..PeerConfig::default() }
}

/// One seeded workload instance.
#[derive(Debug, Clone)]
pub struct Plan {
    pub hosts: usize,
    pub seed: u64,
    /// Installed during set-up; set-up ends when all their members are
    /// active.
    pub initial: Vec<QuerySpec>,
    /// Control actions, in simulated time after set-up ends.
    pub schedule: Vec<(TimeUs, Action)>,
    pub replay: Option<ReplayInput>,
    pub warmup: TimeUs,
    pub timed: TimeUs,
    /// Wall seconds one untraced pass (set-up and measurement) takes on the
    /// reference machine (2 cores). A run makes `--seconds / pass_s`
    /// passes whatever the speed of the code under test, so a statistic
    /// over passes does not move with their number.
    pub pass_s: f64,
    /// Fewest set-ups a run times for the median set-up time.
    pub min_setups: usize,
    /// Equal parts of the timed region, each timed separately so the rate
    /// can keep each part's fastest pass.
    pub segments: usize,
    /// A window that has not reached its root this long after it was due,
    /// or whose query was removed within this long of it, is not expected.
    pub late: TimeUs,
}

pub const WORKLOADS: [&str; 3] = ["keyed100", "fleet1000", "churn200"];

fn count_spec(name: String, root: NodeId, members: Vec<NodeId>, slide_us: u64) -> QuerySpec {
    QuerySpec {
        name,
        root,
        members,
        op: OpKind::Sum { field: 0 },
        window: WindowSpec::time_tumbling_us(slide_us),
        filter: None,
        sensor: SensorSpec::Periodic { period_us: slide_us, value: 1.0 },
        post: None,
    }
}

/// Builds workload `name` from `seed`. `scale` shrinks every simulated
/// length (1.0 = the benchmark; self-tests run smaller).
pub fn plan(name: &str, seed: u64, scale: f64) -> Option<Plan> {
    let mut g = Gen::new(seed);
    let len = |s: f64| ((s * scale * 1e6) as TimeUs).max(SEC);
    // Not scaled: it bounds the program's result latency, not the run.
    let late = 15 * SEC;
    Some(match name {
        "keyed100" => {
            let hosts = 100;
            let slide = 25 * MS;
            let replay = ReplayInput::new(hosts, slide, KEY_CLASSES, &mut g);
            let spec = QuerySpec {
                name: "keyed".into(),
                root: 0,
                members: (0..hosts as NodeId).collect(),
                op: OpKind::Keyed {
                    key_field: KeyField::TupleKey,
                    cap: KEY_CAP,
                    inner: Box::new(OpKind::Sum { field: 0 }),
                },
                window: WindowSpec::time_tumbling_us(slide),
                filter: None,
                sensor: SensorSpec::Replay,
                post: None,
            };
            Plan {
                hosts,
                seed,
                initial: vec![spec],
                schedule: Vec::new(),
                replay: Some(replay),
                warmup: len(10.0),
                timed: len(60.0),
                late,
                pass_s: 0.5,
                min_setups: 5,
                segments: 30,
            }
        }
        "fleet1000" => {
            let hosts = 1000;
            let all: Vec<NodeId> = (0..hosts as NodeId).collect();
            let warmup = len(5.0);
            let timed = len(30.0);
            let mut initial = vec![count_spec("fast".into(), 0, all.clone(), 25 * MS)];
            let policies = [
                IntakePolicy::Backpressure { credits: 64 },
                IntakePolicy::Shed { watermark: 64 },
                IntakePolicy::Sample { keep_1_in_n: 4 },
                IntakePolicy::Spill { cap_bytes: 4096 },
            ];
            for (i, policy) in policies.into_iter().enumerate() {
                // 20 tuples/s per host against a drain of 40/s, so only the
                // 10x burst overloads intake; its 1600 excess tuples per
                // host overflow Spill's 1024-tuple queue into the spill
                // ring. The burst lands inside the timed region (frame time
                // runs from the install, a few seconds before warm-up ends).
                let burst = gen::burst_profile(
                    50 * MS,
                    warmup + 2 * SEC,
                    warmup + timed,
                    timed / 3,
                    &mut g,
                );
                let mut feed = FeedSpec::new(FeedConnector::Bursty(burst), policy);
                feed.drain_max = 8;
                let mut spec = count_spec(format!("feed{i}"), 0, all.clone(), SEC);
                spec.sensor = SensorSpec::Feed(feed);
                initial.push(spec);
            }
            for i in 0..8 {
                initial.push(count_spec(format!("slow{i}"), 0, all.clone(), 10 * SEC));
            }
            Plan {
                hosts,
                seed,
                initial,
                schedule: Vec::new(),
                replay: None,
                warmup,
                timed,
                late,
                pass_s: 7.5,
                min_setups: 3,
                segments: 300,
            }
        }
        "churn200" => {
            let hosts = 200;
            let shape = ChurnShape {
                hosts,
                install_every: 500 * MS,
                max_live: 64,
                fail_every: 5 * SEC,
                fail_for: 15 * SEC,
                fail_frac: 0.02,
            };
            // Set-up installs the steady-state population, so warm-up only
            // has to reach the failure schedule's steady state: from 15 s on,
            // three sets of hosts are down at any time.
            let warmup = len(15.0);
            let timed = len(120.0);
            let (first, schedule) = gen::churn_schedule(shape, warmup + timed + late, &mut g);
            let initial = first
                .into_iter()
                .map(|a| match a {
                    Action::Install { name, root, members, slide_us } => {
                        count_spec(name, root, members, slide_us)
                    }
                    _ => unreachable!("set-up is installs only"),
                })
                .collect();
            Plan {
                hosts,
                seed,
                initial,
                schedule,
                replay: None,
                warmup,
                timed,
                late,
                pass_s: 15.0,
                min_setups: 5,
                segments: 2400,
            }
        }
        _ => return None,
    })
}

/// What the runner needs from a deployment; `Engine` and the traced
/// benchmark-side wiring both provide it.
pub trait Deployment {
    fn now(&self) -> TimeUs;
    fn run_until(&mut self, t: TimeUs);
    fn install(&mut self, spec: QuerySpec);
    fn remove(&mut self, name: &str, root: NodeId);
    fn set_host_up(&mut self, node: NodeId, up: bool);
    fn peer(&self, n: NodeId) -> &MortarPeer;
    fn peer_mut(&mut self, n: NodeId) -> &mut MortarPeer;
    fn sim_stats(&self) -> SimStats;
    /// Cumulative (bytes, messages) per traffic class: data, heartbeat,
    /// control.
    fn wire(&self) -> [(u64, u64); 3];
    /// Cumulative planning (calls, wall ns); zero when not traced.
    fn planning(&self) -> (u64, u64) {
        (0, 0)
    }
}

const CLASSES: [TrafficClass; 3] =
    [TrafficClass::Data, TrafficClass::Heartbeat, TrafficClass::Control];

impl Deployment for Engine {
    fn now(&self) -> TimeUs {
        self.sim.now()
    }
    fn run_until(&mut self, t: TimeUs) {
        self.sim.run_until(t);
    }
    fn install(&mut self, spec: QuerySpec) {
        Engine::install(self, spec).expect("generated specs are valid");
    }
    fn remove(&mut self, name: &str, root: NodeId) {
        Engine::remove(self, name, root).expect("removals follow their install");
    }
    fn set_host_up(&mut self, node: NodeId, up: bool) {
        Engine::set_host_up(self, node, up);
    }
    fn peer(&self, n: NodeId) -> &MortarPeer {
        self.sim.app(n)
    }
    fn peer_mut(&mut self, n: NodeId) -> &mut MortarPeer {
        self.sim.app_mut(n)
    }
    fn sim_stats(&self) -> SimStats {
        self.sim.stats()
    }
    fn wire(&self) -> [(u64, u64); 3] {
        let bw = self.sim.bandwidth();
        CLASSES.map(|c| (bw.bytes_total(c), bw.msgs_total(c)))
    }
}

impl Deployment for Wired {
    fn now(&self) -> TimeUs {
        self.fleet.now()
    }
    fn run_until(&mut self, t: TimeUs) {
        self.fleet.run_until(t);
    }
    fn install(&mut self, spec: QuerySpec) {
        Wired::install(self, spec);
    }
    fn remove(&mut self, name: &str, root: NodeId) {
        Wired::remove(self, name, root);
    }
    fn set_host_up(&mut self, node: NodeId, up: bool) {
        self.fleet.set_host_up(node, up);
    }
    fn peer(&self, n: NodeId) -> &MortarPeer {
        &self.fleet.app(n).peer
    }
    fn peer_mut(&mut self, n: NodeId) -> &mut MortarPeer {
        &mut self.fleet.app_mut(n).peer
    }
    fn sim_stats(&self) -> SimStats {
        self.fleet.stats()
    }
    fn wire(&self) -> [(u64, u64); 3] {
        let bw = self.fleet.bandwidth();
        CLASSES.map(|c| (bw.bytes_total(c), bw.msgs_total(c)))
    }
    fn planning(&self) -> (u64, u64) {
        (self.plan_calls, self.plan_ns)
    }
}

/// The untraced deployment's build: the paper's evaluation setup, as
/// `EngineConfig::paper` gives it, planned on true latency, through
/// `Engine::new`.
pub fn engine(plan: &Plan) -> Engine {
    let cfg = EngineConfig {
        topology: Topology::paper_inet(plan.hosts, TOPOLOGY_SEED),
        seed: plan.seed,
        peer: peer_config(),
        clock_model: ClockModel::perfect(),
        planner: PlannerConfig::default(),
        vivaldi_rounds: 10,
        vivaldi_dim: 3,
        plan_on_true_latency: true,
        chaos: ChaosConfig::none(),
        shards: 1,
    };
    Engine::new(cfg).expect("valid config")
}

/// Fleet-wide peer counters summed (or peak-merged) at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerTotals {
    pub ticks: u64,
    pub idle_ticks: u64,
    pub query_wakeups: u64,
    pub frames_in: u64,
    pub summaries_in: u64,
    pub summaries_out: u64,
    pub frames_out: u64,
    pub envelopes_out: u64,
    pub route_drops: u64,
    pub evictions: u64,
    pub ts_peak_entries: u64,
    pub reconciles: u64,
    pub reconcile_bytes_out: u64,
    pub installs: u64,
    pub removals: u64,
    pub outbox_peak_bytes: u64,
    pub budget_cuts: u64,
    pub rlog_records: u64,
    pub results_emitted: u64,
}

impl PeerTotals {
    pub fn of(d: &dyn Deployment, hosts: usize) -> Self {
        let mut t = Self::default();
        for n in 0..hosts as NodeId {
            let p = d.peer(n);
            let s = &p.stats;
            t.ticks += s.ticks;
            t.idle_ticks += s.idle_ticks;
            t.query_wakeups += s.query_wakeups;
            t.frames_in += s.frames_in;
            t.summaries_in += s.summaries_in;
            t.summaries_out += s.summaries_out;
            t.frames_out += s.frames_out;
            t.envelopes_out += s.envelopes_out;
            t.route_drops += s.route_drops;
            t.evictions += s.evictions;
            t.ts_peak_entries = t.ts_peak_entries.max(s.ts_peak_entries);
            t.reconciles += s.reconciles;
            t.reconcile_bytes_out += s.reconcile_bytes_out;
            t.installs += s.installs;
            t.removals += s.removals;
            t.outbox_peak_bytes = t.outbox_peak_bytes.max(s.outbox_peak_bytes);
            t.budget_cuts += s.envelope_budget_cuts;
            t.rlog_records += p.results.len() as u64;
            t.results_emitted += p.results.next_seq();
        }
        t
    }
}

/// Deterministic state of a deployment at one instant: what the traced run
/// must reproduce exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub at: TimeUs,
    pub peers: PeerTotals,
    pub sim: SimStats,
    pub wire: [(u64, u64); 3],
}

impl Snapshot {
    fn take(d: &dyn Deployment, hosts: usize) -> Self {
        Self { at: d.now(), peers: PeerTotals::of(d, hosts), sim: d.sim_stats(), wire: d.wire() }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Check {
    Count,
    Keyed,
    Feed,
}

struct QueryInfo {
    root: NodeId,
    members: u64,
    slide: TimeUs,
    check: Check,
    /// Most tuples one host's leaf window can hold, and their granularity:
    /// sensors and replay input are pumped at 200 ms ticks, so a 25 ms
    /// cadence lands 8 tuples at once in the window holding the tick; a
    /// feed delivers at most `drain_max` per tick.
    per_tick: u64,
    inject: TimeUs,
    removed: Option<TimeUs>,
    first_result: Option<TimeUs>,
}

#[derive(Default)]
struct Window {
    participants: u64,
    scalar: f64,
    keyed: BTreeMap<u64, f64>,
}

fn register(
    spec: &QuerySpec,
    at: TimeUs,
    queries: &mut Vec<QueryInfo>,
    by_name: &mut HashMap<String, usize>,
) {
    let check = match (&spec.op, &spec.sensor) {
        (OpKind::Keyed { .. }, _) => Check::Keyed,
        (_, SensorSpec::Feed(_)) => Check::Feed,
        _ => Check::Count,
    };
    let tick = peer_config().tick_us;
    let per_tick = match &spec.sensor {
        SensorSpec::Periodic { period_us, .. } => (tick / period_us).max(1),
        SensorSpec::Feed(f) => f.drain_max as u64 * (spec.window.slide / tick).max(1),
        _ => (tick / spec.window.slide).max(1),
    };
    by_name.insert(spec.name.clone(), queries.len());
    queries.push(QueryInfo {
        per_tick,
        root: spec.root,
        members: spec.members.len() as u64,
        slide: spec.window.slide,
        check,
        inject: at,
        removed: None,
        first_result: None,
    });
}

/// Everything one run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub setup_wall_s: f64,
    pub setup_sim_s: f64,
    pub plan_setup: (u64, u64),
    pub timed_sim_s: f64,
    /// Wall time of the program calls in the timed region, and in each of
    /// its `Plan::segments` equal parts.
    pub timed_wall_s: f64,
    pub segment_walls: Vec<f64>,
    pub start: Snapshot,
    pub end: Snapshot,
    pub plan_timed: (u64, u64),
    pub lags_ms: Vec<f64>,
    /// Overlay hops of each root report's longest constituent path.
    pub path_len: Vec<f64>,
    /// (emission minute, due-lag ms) per root report in the timed region.
    pub lag_trend: Vec<(f64, f64)>,
    pub first_result_ms: Vec<f64>,
    pub windows_due: u64,
    pub windows_missing: u64,
    pub windows_bad: u64,
    /// Per due window, in percent; 0 for a window missing at the root.
    pub completeness: Vec<f64>,
    pub feed: mortar_core::FeedStats,
    pub feed_conserved: bool,
    /// Root reports read (all windows).
    pub reports: u64,
    /// Layer accumulators at the start and end of the timed region.
    pub acc_start: [crate::trace::Acc; crate::trace::LAYERS.len()],
    pub acc_end: [crate::trace::Acc; crate::trace::LAYERS.len()],
}

impl Outcome {
    /// The simulated-time results, which repeat exactly for a seed.
    pub fn fingerprint(&self) -> (Snapshot, Snapshot, Vec<u64>, Vec<u64>, [u64; 4]) {
        (
            self.start,
            self.end,
            self.lags_ms.iter().map(|v| v.to_bits()).collect(),
            self.completeness.iter().map(|v| v.to_bits()).collect(),
            [self.windows_due, self.windows_missing, self.windows_bad, self.reports],
        )
    }
}

/// A run after set-up: the queries installed so far and their windows.
pub struct Run {
    queries: Vec<QueryInfo>,
    by_name: HashMap<String, usize>,
    pub out: Outcome,
}

/// Set-up: installs the initial queries (and the first replay chunk) and
/// runs until every initial member is active. `start` is when the caller
/// began building the deployment, so the reported set-up time covers
/// topology, fleet build, planning and install, but not the benchmark's
/// own generation of the replay chunk.
pub fn setup<D: Deployment>(plan: &Plan, d: &mut D, start: Instant) -> Run {
    let mut run = Run { queries: Vec::new(), by_name: HashMap::new(), out: Outcome::default() };
    let mut generating = 0.0;
    if let Some(r) = &plan.replay {
        for h in 0..plan.hosts {
            let g = Instant::now();
            let chunk = r.chunk(h, 0, CHUNK_SLIDES);
            generating += g.elapsed().as_secs_f64();
            d.peer_mut(h as NodeId).set_replay(chunk);
        }
    }
    for spec in &plan.initial {
        register(spec, d.now(), &mut run.queries, &mut run.by_name);
        d.install(spec.clone());
    }
    let mut pending: Vec<(NodeId, &str)> = plan
        .initial
        .iter()
        .flat_map(|s| s.members.iter().map(move |&m| (m, s.name.as_str())))
        .collect();
    while !pending.is_empty() {
        let t = d.now() + ACTIVE_STEP;
        d.run_until(t);
        pending.retain(|(m, name)| !d.peer(*m).is_active(name));
        assert!(d.now() < 120 * SEC, "set-up never activated every member");
    }
    run.out.setup_wall_s = start.elapsed().as_secs_f64() - generating;
    run.out.setup_sim_s = d.now() as f64 / 1e6;
    run.out.plan_setup = d.planning();
    run
}

/// Runs `plan` on `d` after [`setup`]: warm-up, the timed region, and —
/// when `drain` — `plan.late` more so late windows can still arrive before
/// the output checks. `bases` (per host) is required for replay input, to
/// hand each peer exactly the tuples it has not consumed yet. Each timed
/// stretch waits on `quiet` first.
pub fn measure<D: Deployment>(
    plan: &Plan,
    d: &mut D,
    bases: Option<&[i64]>,
    run: Run,
    drain: bool,
    quiet: &mut Quiet,
) -> Outcome {
    let hosts = plan.hosts;
    let Run { mut queries, mut by_name, mut out } = run;
    let t_setup = d.now();
    let t0 = t_setup + plan.warmup;
    let segments = plan.segments as TimeUs;
    let t1 = t0 + plan.timed / segments * segments;
    let t_end = if drain { t1 + plan.late } else { t1 };
    let mut actions = plan.schedule.iter().map(|(at, a)| (t_setup + at, a)).peekable();
    // Replay hand-over instants sit mid-way between 200 ms ticks so which
    // tuples a peer consumed is a function of its activation base alone.
    let tick = peer_config().tick_us;
    let swap_every = CHUNK_SLIDES * plan.replay.as_ref().map_or(0, |r| r.slide_us) / 2;
    let mut next_swap =
        if plan.replay.is_some() { (t_setup / tick) * tick + tick / 2 } else { TimeUs::MAX };
    // The timed region is cut into equal segments, each timed on its own.
    let seg = plan.timed / segments;
    let mut marks = (0..=segments).map(|i| t0 + i * seg).peekable();
    let mut seg_wall = 0.0;
    let mut next_drain = t_setup + DRAIN_EVERY;
    let mut cursors: BTreeMap<NodeId, u64> = BTreeMap::new();
    let mut windows: BTreeMap<(usize, i64), Window> = BTreeMap::new();
    let mut plan_t0 = (0, 0);

    loop {
        let next_action = actions.peek().map_or(TimeUs::MAX, |(t, _)| *t);
        let next_mark = marks.peek().copied().unwrap_or(TimeUs::MAX);
        let stop = next_action.min(next_swap).min(next_mark).min(next_drain).min(t_end);
        let timed = stop > t0 && stop <= t1;
        if timed {
            quiet.wait();
        }
        // Only calls into the program are timed, not the benchmark's own
        // bookkeeping.
        let w = Instant::now();
        d.run_until(stop);
        let mut busy = w.elapsed().as_secs_f64();
        while let Some((_, a)) = actions.next_if(|(t, _)| *t <= stop) {
            let now = d.now();
            match a {
                Action::Install { name, root, members, slide_us } => {
                    let spec = count_spec(name.clone(), *root, members.clone(), *slide_us);
                    register(&spec, now, &mut queries, &mut by_name);
                    let w = Instant::now();
                    d.install(spec);
                    busy += w.elapsed().as_secs_f64();
                }
                Action::Remove { name, root } => {
                    queries[by_name[name.as_str()]].removed = Some(now);
                    let w = Instant::now();
                    d.remove(name, *root);
                    busy += w.elapsed().as_secs_f64();
                }
                Action::Down(h) | Action::Up(h) => {
                    let up = matches!(a, Action::Up(_));
                    let w = Instant::now();
                    h.iter().for_each(|&n| d.set_host_up(n, up));
                    busy += w.elapsed().as_secs_f64();
                }
            }
        }
        if stop == next_swap {
            let r = plan.replay.as_ref().expect("swaps only with replay input");
            let bases = bases.expect("replay input needs activation bases");
            let last_tick = next_swap - tick / 2;
            for (h, &base) in bases.iter().enumerate() {
                // Tuple j is consumed at the first tick at or after
                // `base + offset(j)`: hand over from the first one due
                // after the last tick.
                let x = last_tick as i64 - base - r.offset(h, 0) as i64;
                let from = if x < 0 { 0 } else { x as u64 / r.slide_us + 1 };
                let chunk = r.chunk(h, from, from + CHUNK_SLIDES);
                let w = Instant::now();
                d.peer_mut(h as NodeId).set_replay(chunk);
                busy += w.elapsed().as_secs_f64();
            }
            next_swap += swap_every;
        }
        if timed {
            seg_wall += busy;
        }
        if stop == next_mark || stop == t_end || stop >= next_drain {
            read_reports(d, &mut queries, &by_name, &mut cursors, &mut windows, t0, t1, &mut out);
            next_drain = stop + DRAIN_EVERY;
        }
        if stop == t0 {
            out.start = Snapshot::take(d, hosts);
            out.acc_start = crate::trace::snapshot();
            plan_t0 = d.planning();
        }
        if stop == t1 {
            out.end = Snapshot::take(d, hosts);
            out.acc_end = crate::trace::snapshot();
            let p = d.planning();
            out.plan_timed = (p.0 - plan_t0.0, p.1 - plan_t0.1);
        }
        if stop == next_mark {
            marks.next();
            if stop > t0 {
                out.segment_walls.push(seg_wall);
                seg_wall = 0.0;
            }
        }
        if stop == t_end {
            break;
        }
    }
    out.timed_sim_s = (t1 - t0) as f64 / 1e6;
    out.timed_wall_s = out.segment_walls.iter().sum();

    judge(plan, &queries, &windows, t0, t1, &mut out);
    let mut feed_conserved = true;
    for n in 0..hosts as NodeId {
        let (t, c, _) = d.peer(n).feed_totals();
        out.feed.absorb(&t);
        feed_conserved &= c;
    }
    out.feed_conserved = feed_conserved;
    out
}

/// Expected windows and output checks: every window of every query due in
/// `[t0, t1)` while the query was live is counted, judged, and added to
/// the completeness sample.
fn judge(
    plan: &Plan,
    queries: &[QueryInfo],
    windows: &BTreeMap<(usize, i64), Window>,
    t0: TimeUs,
    t1: TimeUs,
    out: &mut Outcome,
) {
    for (qi, q) in queries.iter().enumerate() {
        if let Some(f) = q.first_result {
            // Measured past the first window's end, which bounds it below.
            out.first_result_ms.push((f - q.inject) as f64 / 1e3 - q.slide as f64 / 1e3);
        }
        let live_until = q.removed.map_or(TimeUs::MAX, |r| r.saturating_sub(plan.late));
        // Window k is due `(k + 1) * slide` after the root's install.
        let mut k = 0;
        loop {
            let due = q.inject + (k + 1) * q.slide;
            if due >= t1 || due >= live_until {
                break;
            }
            k += 1;
            if due < t0 {
                continue;
            }
            out.windows_due += 1;
            let tb = ((k - 1) * q.slide) as i64;
            let Some(w) = windows.get(&(qi, tb)) else {
                // A window that never reached the root had no participants
                // there.
                out.windows_missing += 1;
                out.completeness.push(0.0);
                continue;
            };
            let m = q.per_tick as f64;
            let ok = match q.check {
                // Every leaf window carries whole ticks of input, and no
                // tuple reaches the root without its participant.
                Check::Count => w.scalar % m == 0.0 && w.scalar <= m * w.participants as f64,
                // Intake delivers at most `drain_max` tuples per tick.
                Check::Feed => w.scalar <= m * w.participants as f64,
                Check::Keyed => {
                    let r = plan.replay.as_ref().expect("keyed workloads replay");
                    w.keyed.iter().all(|(&k, &v)| k < r.classes && v % m == 0.0)
                        && w.keyed.values().sum::<f64>() <= m * w.participants as f64
                }
            };
            if !ok {
                out.windows_bad += 1;
            }
            out.completeness.push(100.0 * w.participants.min(q.members) as f64 / q.members as f64);
        }
    }
}

/// Reads new root reports into their windows.
#[allow(clippy::too_many_arguments)]
fn read_reports<D: Deployment>(
    d: &D,
    queries: &mut [QueryInfo],
    by_name: &HashMap<String, usize>,
    cursors: &mut BTreeMap<NodeId, u64>,
    windows: &mut BTreeMap<(usize, i64), Window>,
    t0: TimeUs,
    t1: TimeUs,
    out: &mut Outcome,
) {
    let mut roots: Vec<NodeId> = queries.iter().map(|q| q.root).collect();
    roots.sort_unstable();
    roots.dedup();
    for root in roots {
        let log = &d.peer(root).results;
        let cursor = cursors.entry(root).or_insert(0);
        assert!(*cursor >= log.first_seq(), "root {root} evicted results before they were read");
        for r in log.read_from(*cursor) {
            out.reports += 1;
            let Some(&qi) = by_name.get(&*r.query) else { continue };
            let q = &mut queries[qi];
            let emit = r.emit_true_us;
            if q.first_result.is_none() {
                q.first_result = Some(emit);
            }
            let due = emit as i64 - r.due_lag_us;
            if due < t0 as i64 || due >= t1 as i64 {
                continue;
            }
            out.lags_ms.push(r.due_lag_us as f64 / 1e3);
            out.lag_trend.push((emit as f64 / 60e6, r.due_lag_us as f64 / 1e3));
            out.path_len.push(f64::from(r.path_len));
            let w = windows.entry((qi, r.tb)).or_default();
            w.participants += u64::from(r.participants);
            match &r.state {
                AggState::Keyed { groups, .. } => {
                    for (&k, v) in groups {
                        *w.keyed.entry(k).or_insert(0.0) += v.scalar().unwrap_or(0.0);
                    }
                }
                _ => w.scalar += r.scalar.unwrap_or(0.0),
            }
        }
        *cursor = log.next_seq();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_window_missing_at_the_root_counts_and_has_no_participants() {
        let plan = plan("churn200", 1, 0.05).expect("known workload");
        let spec = count_spec("q".into(), 3, (0..10).collect(), SEC);
        let (mut queries, mut by_name) = (Vec::new(), HashMap::new());
        register(&spec, 0, &mut queries, &mut by_name);
        // Windows 0..10 are due at 1..=10 s; 2 and 5 never arrive, 7 has
        // one tuple more than its participants can carry.
        let mut windows = BTreeMap::new();
        for k in (0..10).filter(|k| ![2, 5].contains(k)) {
            let scalar = if k == 7 { 11.0 } else { 10.0 };
            windows.insert(
                (0, k * SEC as i64),
                Window { participants: 10, scalar, ..Default::default() },
            );
        }
        let mut out = Outcome::default();
        judge(&plan, &queries, &windows, 0, 11 * SEC, &mut out);
        assert_eq!((out.windows_due, out.windows_missing, out.windows_bad), (10, 2, 1));
        let mean = out.completeness.iter().sum::<f64>() / out.completeness.len() as f64;
        assert_eq!(mean, 80.0);
    }
}
