//! The benchmark's own seeded input generator.
//!
//! Everything a workload feeds the program — replay traces, feed burst
//! profiles, the churn schedule and host failures — is drawn here from the
//! `--seed` argument, so the same seed always gives the same inputs and the
//! program under test only ever sees the generated values.

use mortar_core::feed::BurstProfile;
use mortar_core::tuple::RawTuple;
use mortar_net::{NodeId, TimeUs, MS, SEC};

/// SplitMix64: a tiny, dependency-free generator whose stream is fixed by
/// its seed on every platform.
#[derive(Debug, Clone)]
pub struct Gen(u64);

impl Gen {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo).max(1)
    }

    /// `k` distinct values of `0..n` in ascending order.
    pub fn subset(&mut self, n: usize, k: usize) -> Vec<NodeId> {
        let mut all = self.draw(n, k);
        all.sort_unstable();
        all
    }

    /// `0..n` in a random order.
    pub fn shuffle(&mut self, n: usize) -> Vec<NodeId> {
        self.draw(n, n)
    }

    /// `k` distinct values of `0..n` in the order drawn.
    fn draw(&mut self, n: usize, k: usize) -> Vec<NodeId> {
        let mut all: Vec<NodeId> = (0..n as NodeId).collect();
        for i in 0..k.min(n) {
            let j = i + (self.next_u64() % (n - i) as u64) as usize;
            all.swap(i, j);
        }
        all.truncate(k.min(n));
        all
    }
}

/// Per-host replay input for the keyed workload: one tuple per slide, keyed
/// by `host % classes`, at a seeded per-host phase inside the slide.
#[derive(Debug, Clone)]
pub struct ReplayInput {
    pub slide_us: u64,
    pub classes: u64,
    phases: Vec<u64>,
}

impl ReplayInput {
    pub fn new(hosts: usize, slide_us: u64, classes: u64, g: &mut Gen) -> Self {
        // Keep a millisecond clear of both slide edges so a tuple's window
        // never depends on rounding.
        let phases = (0..hosts).map(|_| g.range(MS, slide_us - MS)).collect();
        Self { slide_us, classes, phases }
    }

    /// Activation-relative offset of `host`'s `j`-th tuple.
    pub fn offset(&self, host: usize, j: u64) -> u64 {
        j * self.slide_us + self.phases[host]
    }

    /// `host`'s tuples `from..to`, generated on demand so the benchmark
    /// never holds more than one chunk per host.
    pub fn chunk(&self, host: usize, from: u64, to: u64) -> Vec<(u64, RawTuple)> {
        let key = host as u64 % self.classes;
        (from..to).map(|j| (self.offset(host, j), RawTuple { key, vals: vec![1.0] })).collect()
    }
}

/// A bursty feed profile: base `period_us`, a 10x burst of `burst_s`
/// seconds starting at a seeded instant inside `[from, to)` (query frame).
pub fn burst_profile(
    period_us: u64,
    from: TimeUs,
    to: TimeUs,
    burst: TimeUs,
    g: &mut Gen,
) -> BurstProfile {
    let start = g.range(from, to.saturating_sub(burst).max(from + 1));
    BurstProfile::steady(period_us, 1.0).with_burst(start, start + burst, 10)
}

/// One scheduled control action of the churn workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Install a fleet-subset count query.
    Install { name: String, root: NodeId, members: Vec<NodeId>, slide_us: u64 },
    /// Remove an earlier install (by name, injected at its root).
    Remove { name: String, root: NodeId },
    /// Take hosts down.
    Down(Vec<NodeId>),
    /// Bring hosts back up.
    Up(Vec<NodeId>),
}

/// The churn workload's shape: `max_live` queries installed up front, then
/// one install per `install_every` with the oldest query removed so
/// `max_live` stay live, and every `fail_every` a `fail_frac` share of
/// hosts down for `fail_for`.
#[derive(Debug, Clone, Copy)]
pub struct ChurnShape {
    pub hosts: usize,
    pub install_every: TimeUs,
    pub max_live: usize,
    pub fail_every: TimeUs,
    pub fail_for: TimeUs,
    pub fail_frac: f64,
}

/// Per-schedule draws that spread the churn queries' sizes and slides
/// evenly over every run of consecutive queries, so the live mix, and with
/// it the load, varies little from seed to seed.
struct Strata {
    /// Start of the member-share sequence, in `[0, 1)`.
    share: f64,
    /// Which query in four slides at 10 s.
    slow: usize,
}

impl Strata {
    fn new(g: &mut Gen) -> Self {
        Strata {
            share: (g.next_u64() >> 11) as f64 / (1u64 << 53) as f64,
            slow: g.range(0, 4) as usize,
        }
    }
}

/// One churn query: a random root, 25–100% of the hosts as members (a
/// random subset, its size stepping through the range by the golden ratio
/// from a seeded start), and a 1 s or 10 s slide.
fn churn_query(i: usize, hosts: usize, strata: &Strata, g: &mut Gen) -> Action {
    let lo = hosts.div_ceil(4);
    let share = (strata.share + i as f64 * 0.618_033_988_749_895).fract();
    let k = lo + (share * (hosts - lo + 1) as f64) as usize;
    let members = g.subset(hosts, k);
    let root = members[g.range(0, members.len() as u64) as usize];
    // Three in four queries slide at 1 s, so the install-to-result
    // percentiles sit inside one mode rather than between two.
    let slide_us = if i % 4 == strata.slow { 10 * SEC } else { SEC };
    Action::Install { name: format!("churn{i}"), root, members, slide_us }
}

/// The churn workload's inputs: the installs for set-up, and the open-loop
/// schedule that follows, in simulated time after set-up.
pub fn churn_schedule(
    shape: ChurnShape,
    until: TimeUs,
    g: &mut Gen,
) -> (Vec<Action>, Vec<(TimeUs, Action)>) {
    let strata = Strata::new(g);
    let initial: Vec<Action> =
        (0..shape.max_live).map(|i| churn_query(i, shape.hosts, &strata, g)).collect();
    let root_of = |a: &Action| match a {
        Action::Install { name, root, .. } => (name.clone(), *root),
        _ => unreachable!("churn queries are installs"),
    };
    let mut live: std::collections::VecDeque<(String, NodeId)> =
        initial.iter().map(root_of).collect();
    let mut out = Vec::new();
    let mut slot = shape.install_every;
    let mut i = shape.max_live;
    while slot < until {
        // One install per `install_every`, at a seeded instant inside its
        // slot: independent users keep no common clock, and an install on
        // the tick grid would put every due-lag on that grid too.
        let t = slot + g.range(0, shape.install_every);
        let install = churn_query(i, shape.hosts, &strata, g);
        live.push_back(root_of(&install));
        out.push((t, install));
        let (name, root) = live.pop_front().expect("max_live queries are live");
        out.push((t, Action::Remove { name, root }));
        i += 1;
        slot += shape.install_every;
    }
    // Failure waves take consecutive blocks of one seeded host order, so
    // waves down at the same time never share a host and every host fails
    // once before any fails twice.
    let down = ((shape.hosts as f64) * shape.fail_frac).round().max(1.0) as usize;
    let order = g.shuffle(shape.hosts);
    let mut next = (0..).flat_map(|_| order.iter().copied());
    let mut t = shape.fail_every;
    while t < until {
        let mut hosts: Vec<NodeId> = next.by_ref().take(down).collect();
        hosts.sort_unstable();
        out.push((t, Action::Down(hosts.clone())));
        out.push((t + shape.fail_for, Action::Up(hosts)));
        t += shape.fail_every;
    }
    // Stable: same-instant actions keep generation order.
    out.sort_by_key(|(t, _)| *t);
    (initial, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> ChurnShape {
        ChurnShape {
            hosts: 200,
            install_every: 500 * MS,
            max_live: 64,
            fail_every: 5 * SEC,
            fail_for: 15 * SEC,
            fail_frac: 0.02,
        }
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let a = churn_schedule(shape(), 60 * SEC, &mut Gen::new(1));
        let b = churn_schedule(shape(), 60 * SEC, &mut Gen::new(1));
        let c = churn_schedule(shape(), 60 * SEC, &mut Gen::new(2));
        assert_ne!(a.0, c.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn churn_keeps_the_live_cap_and_member_bounds() {
        let (initial, s) = churn_schedule(shape(), 120 * SEC, &mut Gen::new(5));
        let mut live: Vec<String> = Vec::new();
        let check = |a: &Action, live: &mut Vec<String>| match a {
            Action::Install { name, members, root, .. } => {
                live.push(name.clone());
                assert!(members.len() >= 50 && members.len() <= 200);
                assert!(members.contains(root));
                assert!(members.windows(2).all(|w| w[0] < w[1]));
            }
            Action::Remove { name, .. } => {
                // Always the oldest live query.
                assert_eq!(live.remove(0), *name);
            }
            Action::Down(h) | Action::Up(h) => assert_eq!(h.len(), 4),
        };
        // Waves down at the same time never share a host.
        let mut down = std::collections::BTreeSet::new();
        for (_, a) in &s {
            match a {
                Action::Down(h) => assert!(h.iter().all(|n| down.insert(*n))),
                Action::Up(h) => assert!(h.iter().all(|n| down.remove(n))),
                _ => {}
            }
        }
        initial.iter().for_each(|a| check(a, &mut live));
        assert_eq!(live.len(), 64);
        for (i, (t, a)) in s.iter().enumerate() {
            check(a, &mut live);
            // The removal lands at the same instant as the install that
            // pushed the count over the cap.
            if s.get(i + 1).is_none_or(|(next, _)| next != t) {
                assert_eq!(live.len(), 64);
            }
        }
    }

    #[test]
    fn replay_chunks_tile_the_trace() {
        let r = ReplayInput::new(20, 25 * MS, 16, &mut Gen::new(3));
        let whole = r.chunk(7, 0, 100);
        let mut parts = r.chunk(7, 0, 37);
        parts.extend(r.chunk(7, 37, 100));
        assert_eq!(whole, parts);
        assert!(whole.windows(2).all(|w| w[1].0 - w[0].0 == 25 * MS));
    }
}
