use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sleepscale_sim::{ClassId, Job, StreamSplit};

/// An incrementally maintained routing index over the fleet: each
/// server's `free_time` (the instant its committed work drains) in a
/// flat tournament tree, so dispatchers answer their queries in
/// O(log N) without rebuilding any per-job snapshot.
///
/// The engine updates exactly one entry per dispatched job (the routed
/// server's), so the index is the only cluster state a dispatcher
/// observes — deliberately queue-level, not power-level: front-end load
/// balancers see backlogs, not C-states. Backlog ordering at any
/// routing instant equals `free_time` ordering (`backlog =
/// max(free_time − now, 0)`), which is what lets shortest-backlog
/// routing ride a min-tree instead of a linear scan.
///
/// All queries break ties toward the *lowest server index*, matching a
/// first-minimum linear scan over per-server backlogs exactly (the
/// property suite pins this equivalence down).
#[derive(Debug, Clone)]
pub struct DispatchIndex {
    n: usize,
    /// Leaf count, `n` rounded up to a power of two; leaf `i` lives at
    /// `tree[size + i]`, padding leaves hold `+∞`.
    size: usize,
    /// 1-based binary min-tree over free times (`tree[0]` unused).
    tree: Vec<f64>,
}

impl DispatchIndex {
    /// An index for `n` servers (clamped to ≥ 1), all initially idle
    /// since t = 0.
    pub fn new(n: usize) -> DispatchIndex {
        let n = n.max(1);
        let size = n.next_power_of_two();
        let mut tree = vec![f64::INFINITY; 2 * size];
        for leaf in &mut tree[size..size + n] {
            *leaf = 0.0;
        }
        for k in (1..size).rev() {
            tree[k] = tree[2 * k].min(tree[2 * k + 1]);
        }
        DispatchIndex { n, size, tree }
    }

    /// Fleet size.
    pub fn n_servers(&self) -> usize {
        self.n
    }

    /// Server `i`'s committed-work completion instant.
    pub fn free_time(&self, i: usize) -> f64 {
        self.tree[self.size + i]
    }

    /// Every server's `free_time`, by server index (the raw leaf view —
    /// handy for linear-scan reference implementations and tests).
    pub fn free_times(&self) -> &[f64] {
        &self.tree[self.size..self.size + self.n]
    }

    /// Server `i`'s backlog at instant `now`, seconds (0 means idle,
    /// possibly asleep).
    pub fn backlog(&self, i: usize, now: f64) -> f64 {
        (self.free_time(i) - now).max(0.0)
    }

    /// Re-keys server `i` after work was committed to (or drained from)
    /// it — the engine's one O(log N) write per dispatched job.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `free_time` is not finite.
    pub fn update(&mut self, i: usize, free_time: f64) {
        assert!(free_time.is_finite(), "free_time must be finite, got {free_time}");
        self.set_leaf(i, free_time);
    }

    /// Stores leaf `i` and re-derives the minima on its path to the
    /// root: the one leaf write behind `update` and `set_unavailable`.
    fn set_leaf(&mut self, i: usize, value: f64) {
        assert!(i < self.n, "server {i} out of range for {} servers", self.n);
        let mut k = self.size + i;
        self.tree[k] = value;
        k /= 2;
        while k >= 1 {
            self.tree[k] = self.tree[2 * k].min(self.tree[2 * k + 1]);
            k /= 2;
        }
    }

    /// The lowest-indexed server whose `free_time` is minimal.
    pub fn min_free_server(&self) -> usize {
        let mut k = 1;
        while k < self.size {
            // `<=` prefers the left child on ties, which is the lower
            // server index.
            k = if self.tree[2 * k] <= self.tree[2 * k + 1] { 2 * k } else { 2 * k + 1 };
        }
        k - self.size
    }

    /// The lowest-indexed server with `free_time <= bound` (servers
    /// already idle at instant `bound`), if any.
    pub fn first_free_at_most(&self, bound: f64) -> Option<usize> {
        self.descend_first(|v| v <= bound)
    }

    /// The lowest-indexed server with `free_time < bound` (strict —
    /// the form threshold dispatchers use: backlog `< θ` at instant
    /// `now` is `free_time < now + θ`), if any.
    pub fn first_free_below(&self, bound: f64) -> Option<usize> {
        self.descend_first(|v| v < bound)
    }

    /// The server a shortest-backlog scan at instant `now` would pick:
    /// the lowest-indexed idle server if one exists (they all tie at
    /// backlog 0), else the lowest-indexed server with minimal
    /// `free_time`.
    pub fn shortest_backlog_server(&self, now: f64) -> usize {
        self.first_free_at_most(now).unwrap_or_else(|| self.min_free_server())
    }

    /// Leftmost leaf satisfying `sat`, by descending into the first
    /// subtree whose minimum satisfies it.
    fn descend_first(&self, sat: impl Fn(f64) -> bool) -> Option<usize> {
        if !sat(self.tree[1]) {
            return None;
        }
        let mut k = 1;
        while k < self.size {
            k = if sat(self.tree[2 * k]) { 2 * k } else { 2 * k + 1 };
        }
        Some(k - self.size)
    }

    /// Marks server `i` unavailable for routing: its leaf becomes `+∞`,
    /// exactly like a padding leaf, so no query ever returns it. The
    /// autoscaler parks drained servers this way; [`DispatchIndex::update`]
    /// with a finite free time makes the server routable again.
    pub fn set_unavailable(&mut self, i: usize) {
        self.set_leaf(i, f64::INFINITY);
    }

    /// Whether server `i` is routable (not marked unavailable).
    pub fn is_available(&self, i: usize) -> bool {
        self.tree[self.size + i].is_finite()
    }

    /// The lowest-indexed server in `[lo, hi)` with `free_time < bound`
    /// (the range-restricted form of [`DispatchIndex::first_free_below`]
    /// that class-affinity routing runs per preferred group), if any.
    pub fn first_free_below_in(&self, lo: usize, hi: usize, bound: f64) -> Option<usize> {
        self.descend_first_in(1, 0, self.size, lo, hi.min(self.n), &|v| v < bound)
    }

    /// The lowest-indexed server in `[lo, hi)` whose `free_time` is
    /// minimal (ties to the lowest index), or `None` when the range is
    /// empty or entirely unavailable.
    pub fn min_free_server_in(&self, lo: usize, hi: usize) -> Option<usize> {
        let (v, i) = self.min_in(1, 0, self.size, lo, hi.min(self.n));
        v.is_finite().then_some(i)
    }

    /// Leftmost leaf in `[lo, hi)` satisfying `sat`, recursing only into
    /// subtrees that overlap the range and whose minimum satisfies it —
    /// O(log N) like the unrestricted descent.
    #[allow(clippy::too_many_arguments)]
    fn descend_first_in(
        &self,
        k: usize,
        node_lo: usize,
        node_hi: usize,
        lo: usize,
        hi: usize,
        sat: &impl Fn(f64) -> bool,
    ) -> Option<usize> {
        if node_hi <= lo || hi <= node_lo || !sat(self.tree[k]) {
            return None;
        }
        if k >= self.size {
            return Some(k - self.size);
        }
        let mid = (node_lo + node_hi) / 2;
        self.descend_first_in(2 * k, node_lo, mid, lo, hi, sat)
            .or_else(|| self.descend_first_in(2 * k + 1, mid, node_hi, lo, hi, sat))
    }

    /// `(min free_time, leftmost index)` over leaves in `[lo, hi)`;
    /// `(+∞, lo)` for an empty intersection.
    fn min_in(
        &self,
        k: usize,
        node_lo: usize,
        node_hi: usize,
        lo: usize,
        hi: usize,
    ) -> (f64, usize) {
        if node_hi <= lo || hi <= node_lo {
            return (f64::INFINITY, lo);
        }
        if lo <= node_lo && node_hi <= hi {
            // Whole node in range: descend to its leftmost minimal leaf.
            let mut j = k;
            while j < self.size {
                j = if self.tree[2 * j] <= self.tree[2 * j + 1] { 2 * j } else { 2 * j + 1 };
            }
            return (self.tree[k], j - self.size);
        }
        let mid = (node_lo + node_hi) / 2;
        let left = self.min_in(2 * k, node_lo, mid, lo, hi);
        let right = self.min_in(2 * k + 1, mid, node_hi, lo, hi);
        // `<=` keeps the leftmost index on ties.
        if left.0 <= right.0 {
            left
        } else {
            right
        }
    }
}

/// The routable subset of the fleet, as one `(first slot, active
/// count)` prefix per server group. The autoscaler parks from each
/// group's tail and wakes the lowest parked slot, so a group's active
/// servers are always a contiguous prefix of its slot range; the set
/// stores only those prefixes and derives the ascending active-slot
/// order from them.
///
/// The cluster engine routes every job through an `ActiveSet`
/// ([`Dispatcher::route_active`]) and rejects a route to a slot outside
/// it. Without an autoscaler, or while it has nothing parked, the set
/// is the whole fleet.
#[derive(Debug, Clone, Copy)]
pub struct ActiveSet<'a> {
    /// Per group, in slot order: `(first slot, active count)`.
    groups: &'a [(usize, usize)],
    /// The active count summed over the groups.
    len: usize,
}

impl<'a> ActiveSet<'a> {
    /// A view over per-group active prefixes `(first slot, active
    /// count)` in ascending slot order; a count may be zero.
    pub fn new(groups: &'a [(usize, usize)]) -> ActiveSet<'a> {
        ActiveSet { groups, len: groups.iter().map(|&(_, active)| active).sum() }
    }

    /// Number of active servers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no server is active (the engine never lets this happen —
    /// the controller keeps a minimum active floor per group).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th active server's slot index, counting in ascending
    /// slot order. O(groups): it walks the prefixes.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn slot(&self, i: usize) -> usize {
        let mut rest = i;
        for &(start, active) in self.groups {
            if rest < active {
                return start + rest;
            }
            rest -= active;
        }
        panic!("active index {i} out of range for {} active servers", self.len)
    }

    /// Whether `slot` is an active server's slot index. O(groups).
    pub fn contains(&self, slot: usize) -> bool {
        self.groups.iter().any(|&(start, active)| (start..start + active).contains(&slot))
    }
}

/// How the most recent route related to the job's preferred placement —
/// the telemetry-facing classification of a dispatch decision. Only
/// routing policies with a notion of preference (today: class affinity)
/// ever report anything but `Preferred`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouteDecision {
    /// The job landed where its routing policy preferred it.
    #[default]
    Preferred,
    /// The preferred group was saturated; the job spilled to an
    /// under-threshold server elsewhere in the fleet.
    Spill {
        /// The group the job's class preferred.
        preferred_group: u32,
    },
    /// Every server was saturated; the job fell back to the fleet-wide
    /// shortest backlog.
    Fallback {
        /// The group the job's class preferred.
        preferred_group: u32,
    },
}

/// Routes each arriving job to one of the fleet's servers, observing
/// only the [`DispatchIndex`] and the [`ActiveSet`].
///
/// A dispatcher writes one routing rule, [`Dispatcher::route_active`];
/// [`Dispatcher::route`] is that rule over the whole fleet.
pub trait Dispatcher: std::fmt::Debug {
    /// Display name for reports.
    fn name(&self) -> String;

    /// Classifies the most recent route (taken through
    /// [`Dispatcher::route_active`], or [`Dispatcher::route`], which
    /// calls it). Dispatchers without a preference structure keep the
    /// default (always `Preferred`).
    fn last_route(&self) -> RouteDecision {
        RouteDecision::Preferred
    }

    /// Picks the destination server for `job` over the whole fleet:
    /// [`Dispatcher::route_active`] with the single prefix
    /// `[(0, index.n_servers())]` as the active set.
    fn route(&mut self, job: &Job, index: &DispatchIndex) -> usize {
        self.route_active(job, index, &ActiveSet::new(&[(0, index.n_servers())]))
    }

    /// Picks the destination server for `job` among the servers in
    /// `active` — the cluster engine's routing call for every job. The
    /// result must be a slot of `active`; the engine rejects any other
    /// route as a dispatcher bug rather than clamping it.
    ///
    /// Dispatchers that enumerate servers positionally (round-robin,
    /// random, seeded-hash) draw from `active`. Dispatchers that query
    /// the index (shortest backlog, packing, class affinity) may ignore
    /// it: the engine keeps every parked server's leaf at `+∞`, so no
    /// backlog or threshold query ever selects one.
    fn route_active(&mut self, job: &Job, index: &DispatchIndex, active: &ActiveSet<'_>) -> usize;

    /// Serializes this dispatcher's mutable routing state for
    /// checkpointing. Stateless dispatchers (shortest-backlog, packing,
    /// seeded-hash) keep the default no-op; anything whose route depends
    /// on dispatch history (a round-robin pointer, an RNG) must
    /// override both hooks or resumed runs will diverge.
    fn snapshot_state(&self, w: &mut sleepscale_journal::ByteWriter) {
        let _ = w;
    }

    /// Restores state written by [`Dispatcher::snapshot_state`] into a
    /// freshly constructed dispatcher.
    ///
    /// # Errors
    ///
    /// Returns [`sleepscale_journal::CodecError`] on truncated or
    /// malformed bytes.
    fn restore_state(
        &mut self,
        r: &mut sleepscale_journal::ByteReader<'_>,
    ) -> Result<(), sleepscale_journal::CodecError> {
        let _ = r;
        Ok(())
    }
}

/// Cycles through servers in order — the classic spreading baseline.
/// O(G) per job for G server groups (the active-set walk).
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// A fresh round-robin pointer.
    pub fn new() -> RoundRobin {
        RoundRobin::default()
    }
}

impl Dispatcher for RoundRobin {
    fn name(&self) -> String {
        "round-robin".into()
    }

    fn route_active(&mut self, _: &Job, _: &DispatchIndex, active: &ActiveSet<'_>) -> usize {
        let i = active.slot(self.next % active.len());
        self.next = self.next.wrapping_add(1);
        i
    }

    fn snapshot_state(&self, w: &mut sleepscale_journal::ByteWriter) {
        w.put_usize(self.next);
    }

    fn restore_state(
        &mut self,
        r: &mut sleepscale_journal::ByteReader<'_>,
    ) -> Result<(), sleepscale_journal::CodecError> {
        self.next = r.get_usize()?;
        Ok(())
    }
}

/// Uniform random routing (seeded, reproducible). O(G) per job for G
/// server groups (the active-set walk).
#[derive(Debug)]
pub struct RandomUniform {
    rng: StdRng,
}

impl RandomUniform {
    /// Seeded uniform router.
    pub fn new(seed: u64) -> RandomUniform {
        RandomUniform { rng: StdRng::seed_from_u64(seed) }
    }
}

impl Dispatcher for RandomUniform {
    fn name(&self) -> String {
        "random".into()
    }

    fn route_active(&mut self, _: &Job, _: &DispatchIndex, active: &ActiveSet<'_>) -> usize {
        active.slot(self.rng.gen_range(0..active.len()))
    }

    fn snapshot_state(&self, w: &mut sleepscale_journal::ByteWriter) {
        use sleepscale_journal::Snapshot;
        self.rng.snapshot(w);
    }

    fn restore_state(
        &mut self,
        r: &mut sleepscale_journal::ByteReader<'_>,
    ) -> Result<(), sleepscale_journal::CodecError> {
        use sleepscale_journal::Snapshot;
        self.rng = StdRng::restore(r)?;
        Ok(())
    }
}

/// Sends each job to the server with the least committed work — the
/// latency-optimal spreading policy. O(log N) per job via the index's
/// min-tree (previously an O(N) scan over a per-job snapshot).
#[derive(Debug, Clone, Default)]
pub struct JoinShortestBacklog;

impl JoinShortestBacklog {
    /// The JSQ-style router.
    pub fn new() -> JoinShortestBacklog {
        JoinShortestBacklog
    }
}

impl Dispatcher for JoinShortestBacklog {
    fn name(&self) -> String {
        "join-shortest-backlog".into()
    }

    fn route_active(&mut self, job: &Job, index: &DispatchIndex, _: &ActiveSet<'_>) -> usize {
        index.shortest_backlog_server(job.arrival)
    }
}

/// Packing: route to the lowest-indexed server whose backlog is under
/// `threshold_seconds`; if all are saturated, fall back to the least
/// backlog. Concentrating load leaves the tail of the fleet idle long
/// enough to reach deep sleep — energy proportionality through
/// consolidation. O(log N) per job off the same index.
#[derive(Debug, Clone)]
pub struct PackFirstFit {
    threshold_seconds: f64,
}

impl PackFirstFit {
    /// Packs up to `threshold_seconds` of backlog per server.
    pub fn new(threshold_seconds: f64) -> PackFirstFit {
        PackFirstFit { threshold_seconds: threshold_seconds.max(0.0) }
    }
}

impl Dispatcher for PackFirstFit {
    fn name(&self) -> String {
        format!("pack-first-fit({}s)", self.threshold_seconds)
    }

    fn route_active(&mut self, job: &Job, index: &DispatchIndex, _: &ActiveSet<'_>) -> usize {
        index
            .first_free_below(job.arrival + self.threshold_seconds)
            .unwrap_or_else(|| index.shortest_backlog_server(job.arrival))
    }
}

/// Stateless seeded-hash routing: each job goes to the server its
/// sequence number hashes to under a [`StreamSplit`]. Load spreads
/// uniformly like [`RandomUniform`], but the route is a pure function
/// of `(seed, sequence)` and the active set ([`SplitUniform::slot_of`])
/// — independent of arrival order, class tags and backlogs — which is
/// exactly the property the sharded engine needs. [`crate::Cluster::run_sharded`] with the same seed produces
/// a byte-identical report to [`crate::Cluster::run`] with this
/// dispatcher. O(G) per job for G server groups (the active-set walk).
#[derive(Debug, Clone, Copy)]
pub struct SplitUniform {
    split: StreamSplit,
}

impl SplitUniform {
    /// Seeded-hash router over the fleet.
    pub fn new(seed: u64) -> SplitUniform {
        SplitUniform { split: StreamSplit::new(seed) }
    }

    /// The underlying splitter (for handing to the sharded engine).
    pub fn split(&self) -> StreamSplit {
        self.split
    }

    /// The active server `job` hashes to: the split draws a lane among
    /// `active.len()` servers and the lane maps through the active set.
    /// A pure function of (seed, sequence, active set) — the one rule
    /// behind both this dispatcher's [`Dispatcher::route_active`] and
    /// [`crate::Cluster::run_sharded`]'s segment walk, which is what
    /// keeps the two engines' reports byte-identical.
    pub fn slot_of(&self, job: &Job, active: &ActiveSet<'_>) -> usize {
        active.slot(self.split.lane_of(job, active.len()))
    }
}

impl Dispatcher for SplitUniform {
    fn name(&self) -> String {
        format!("split-uniform({})", self.split.seed())
    }

    fn route_active(&mut self, job: &Job, _: &DispatchIndex, active: &ActiveSet<'_>) -> usize {
        self.slot_of(job, active)
    }
}

/// Class-aware routing: each job class has a preferred [`ServerGroup`]
/// (interactive classes to fast groups, batch to efficient ones); a job
/// joins the shortest backlog *within its preferred group* while that
/// group has a server under the spill threshold, spills to the
/// lowest-indexed under-threshold server anywhere in the fleet when the
/// preferred group saturates, and falls back to the fleet-wide shortest
/// backlog when every server is saturated. All three steps tie-break
/// toward the lowest server index (the property suite pins the whole
/// decision against a naive linear scan). O(G log N) per job.
///
/// The steps query the configured group ranges and never read the
/// [`ActiveSet`]: the engine holds every parked server's
/// [`DispatchIndex`] leaf at `+∞`, which no threshold or minimum query
/// returns — the same exclusion [`JoinShortestBacklog`] and
/// [`PackFirstFit`] rely on.
///
/// [`ServerGroup`]: crate::ServerGroup
#[derive(Debug, Clone)]
pub struct ClassAffinity {
    /// Per group: `(first slot, slot count)` in fleet slot order.
    groups: Vec<(usize, usize)>,
    /// Class `c` prefers group `class_groups[min(c, len - 1)]`.
    class_groups: Vec<usize>,
    threshold_seconds: f64,
    last: RouteDecision,
}

impl ClassAffinity {
    /// A class-affinity router over a fleet whose groups have
    /// `group_sizes` servers (in fleet slot order). `class_groups[c]`
    /// is class `c`'s preferred group; classes beyond the table reuse
    /// its last entry. `threshold_seconds` is the per-server backlog
    /// above which a group counts as saturated.
    ///
    /// # Panics
    ///
    /// Panics on an empty fleet or class table, or a class mapped to a
    /// group that does not exist.
    pub fn new(
        group_sizes: &[usize],
        class_groups: Vec<usize>,
        threshold_seconds: f64,
    ) -> ClassAffinity {
        assert!(!group_sizes.is_empty(), "class affinity needs at least one group");
        assert!(!class_groups.is_empty(), "class affinity needs at least one class mapping");
        assert!(
            class_groups.iter().all(|&g| g < group_sizes.len()),
            "class mapped to a group beyond the fleet's {} groups",
            group_sizes.len()
        );
        let mut groups = Vec::with_capacity(group_sizes.len());
        let mut start = 0;
        for &count in group_sizes {
            groups.push((start, count));
            start += count;
        }
        ClassAffinity {
            groups,
            class_groups,
            threshold_seconds: threshold_seconds.max(0.0),
            last: RouteDecision::Preferred,
        }
    }

    /// Class `c`'s preferred group.
    pub fn preferred_group(&self, class: ClassId) -> usize {
        let c = (class.0 as usize).min(self.class_groups.len() - 1);
        self.class_groups[c]
    }

    /// The three-step decision over the configured group ranges.
    fn pick(&self, job: &Job, index: &DispatchIndex) -> (usize, RouteDecision) {
        let g = self.preferred_group(job.class());
        let bound = job.arrival + self.threshold_seconds;
        let below =
            |&(start, len): &(usize, usize)| index.first_free_below_in(start, start + len, bound);
        if let Some(i) = below(&self.groups[g]) {
            return (i, RouteDecision::Preferred);
        }
        // Preferred group saturated: spill to the lowest-indexed
        // under-threshold server anywhere (groups scan in ascending
        // slot order, so the first hit is the fleet-wide lowest index).
        if let Some(i) = self.groups.iter().find_map(below) {
            return (i, RouteDecision::Spill { preferred_group: g as u32 });
        }
        // Everything saturated: fleet-wide shortest backlog, lowest
        // index on ties (ranges ascend, so strictly-less keeps the
        // leftmost of equals).
        let mut best: Option<(f64, usize)> = None;
        for &(start, len) in &self.groups {
            if let Some(i) = index.min_free_server_in(start, start + len) {
                let backlog = index.backlog(i, job.arrival);
                if best.is_none_or(|(b, _)| backlog < b) {
                    best = Some((backlog, i));
                }
            }
        }
        let i = best.expect("class affinity requires a routable server").1;
        (i, RouteDecision::Fallback { preferred_group: g as u32 })
    }
}

impl Dispatcher for ClassAffinity {
    fn name(&self) -> String {
        format!("class-affinity({}g,{}s)", self.groups.len(), self.threshold_seconds)
    }

    fn last_route(&self) -> RouteDecision {
        self.last
    }

    fn route_active(&mut self, job: &Job, index: &DispatchIndex, _: &ActiveSet<'_>) -> usize {
        let (i, decision) = self.pick(job, index);
        self.last = decision;
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An index whose servers carry the given free times.
    fn index(free_times: &[f64]) -> DispatchIndex {
        let mut idx = DispatchIndex::new(free_times.len());
        for (i, &t) in free_times.iter().enumerate() {
            idx.update(i, t);
        }
        idx
    }

    fn job(arrival: f64) -> Job {
        Job { id: 0, arrival, size: 0.1 }
    }

    /// The O(N) reference: first index among minimal clamped backlogs —
    /// the scan the PR-2 engine ran per job.
    fn linear_shortest_backlog(free_times: &[f64], now: f64) -> usize {
        free_times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, (t - now).max(0.0)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("backlogs are finite"))
            .map(|(i, _)| i)
            .expect("clusters are non-empty")
    }

    #[test]
    fn round_robin_cycles() {
        let mut d = RoundRobin::new();
        let idx = index(&[0.0, 0.0, 0.0]);
        let picks: Vec<usize> = (0..6).map(|_| d.route(&job(0.0), &idx)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn random_is_seeded_and_in_range() {
        let idx = index(&[0.0; 4]);
        let picks = |seed| {
            let mut d = RandomUniform::new(seed);
            (0..32).map(|_| d.route(&job(0.0), &idx)).collect::<Vec<_>>()
        };
        assert_eq!(picks(1), picks(1));
        assert_ne!(picks(1), picks(2));
        assert!(picks(1).iter().all(|&i| i < 4));
    }

    #[test]
    fn shortest_backlog_picks_minimum() {
        let mut d = JoinShortestBacklog::new();
        assert_eq!(d.route(&job(0.0), &index(&[3.0, 0.5, 2.0])), 1);
        // Idle servers (free_time <= arrival) all tie at backlog 0; the
        // lowest index wins, exactly like the linear scan.
        assert_eq!(d.route(&job(4.0), &index(&[3.0, 0.5, 2.0])), 0);
    }

    #[test]
    fn pack_first_fit_fills_then_overflows() {
        let mut d = PackFirstFit::new(1.0);
        assert_eq!(d.route(&job(0.0), &index(&[0.2, 0.0, 0.0])), 0);
        assert_eq!(d.route(&job(0.0), &index(&[1.5, 0.4, 0.0])), 1);
        // All saturated: least backlog wins.
        assert_eq!(d.route(&job(0.0), &index(&[3.0, 2.0, 2.5])), 1);
    }

    #[test]
    fn split_uniform_is_the_pure_hash_and_ignores_state() {
        let mut d = SplitUniform::new(7);
        let split = d.split();
        for n in [1usize, 2, 5, 64] {
            let idle = index(&vec![0.0; n]);
            let busy = index(&(0..n).map(|i| i as f64 * 3.0).collect::<Vec<_>>());
            for seq in 0..200u64 {
                let j = Job { id: seq, arrival: 0.0, size: 0.1 };
                let pick = d.route(&j, &idle);
                assert!(pick < n);
                assert_eq!(pick, split.lane_of(&j, n), "route is the split hash");
                assert_eq!(pick, d.route(&j, &busy), "fleet state is invisible");
            }
        }
        assert_eq!(d.name(), "split-uniform(7)");
    }

    #[test]
    fn index_updates_rekey_one_server() {
        let mut idx = DispatchIndex::new(5);
        assert_eq!(idx.min_free_server(), 0);
        for i in 0..5 {
            idx.update(i, 10.0 - i as f64);
        }
        assert_eq!(idx.min_free_server(), 4);
        assert_eq!(idx.free_time(4), 6.0);
        idx.update(4, 99.0);
        assert_eq!(idx.min_free_server(), 3);
        assert_eq!(idx.first_free_below(7.5), Some(3));
        assert_eq!(idx.first_free_at_most(7.0), Some(3));
        assert_eq!(idx.first_free_below(6.9), None);
        assert_eq!(idx.backlog(0, 4.0), 6.0);
        assert_eq!(idx.backlog(0, 12.0), 0.0);
        assert_eq!(idx.free_times(), &[10.0, 9.0, 8.0, 7.0, 99.0]);
    }

    #[test]
    fn non_power_of_two_fleets_ignore_padding() {
        // 5 servers pad to 8 leaves of +inf; padding must never route.
        let mut idx = DispatchIndex::new(5);
        for i in 0..5 {
            idx.update(i, 50.0 + i as f64);
        }
        assert_eq!(idx.min_free_server(), 0);
        assert_eq!(idx.first_free_at_most(1e12), Some(0));
        assert_eq!(idx.shortest_backlog_server(0.0), 0);
    }

    #[test]
    fn unavailable_servers_never_route() {
        let mut idx = index(&[5.0, 1.0, 3.0, 2.0]);
        idx.set_unavailable(1);
        assert!(!idx.is_available(1));
        assert!(idx.is_available(0));
        assert_eq!(idx.min_free_server(), 3);
        assert_eq!(idx.first_free_below(10.0), Some(0));
        assert_eq!(idx.shortest_backlog_server(2.5), 3);
        // Re-keying with a finite time makes the server routable again.
        idx.update(1, 0.0);
        assert!(idx.is_available(1));
        assert_eq!(idx.min_free_server(), 1);
    }

    #[test]
    fn range_queries_match_linear_scans() {
        let mut rng = StdRng::seed_from_u64(41);
        for &n in &[1usize, 2, 5, 8, 13] {
            let mut idx = DispatchIndex::new(n);
            let mut free = vec![0.0f64; n];
            for step in 0..300 {
                let i = rng.gen_range(0..n);
                free[i] = rng.gen_range(0.0..8.0);
                idx.update(i, free[i]);
                if rng.gen_range(0..4) == 0 {
                    free[i] = f64::INFINITY;
                    idx.set_unavailable(i);
                }
                let lo = rng.gen_range(0..n);
                let hi = rng.gen_range(lo..n + 1);
                let bound = rng.gen_range(0.0..9.0);
                let linear_below = (lo..hi).find(|&j| free[j] < bound);
                assert_eq!(
                    idx.first_free_below_in(lo, hi, bound),
                    linear_below,
                    "step {step} n={n} lo={lo} hi={hi} bound={bound} free={free:?}"
                );
                let linear_min = (lo..hi)
                    .filter(|&j| free[j].is_finite())
                    .min_by(|&a, &b| free[a].partial_cmp(&free[b]).unwrap());
                assert_eq!(
                    idx.min_free_server_in(lo, hi),
                    linear_min,
                    "step {step} n={n} lo={lo} hi={hi} free={free:?}"
                );
            }
        }
    }

    #[test]
    fn class_affinity_prefers_then_spills() {
        // Two groups of 2: class 0 -> group 0, class 1 -> group 1.
        let mut d = ClassAffinity::new(&[2, 2], vec![0, 1], 1.0);
        let tagged = |class: u16, arrival: f64| Job {
            id: sleepscale_sim::pack_id(0, ClassId(class)),
            arrival,
            size: 0.1,
        };
        // Preferred group has headroom: lowest under-threshold index wins.
        assert_eq!(d.route(&tagged(0, 0.0), &index(&[0.2, 0.0, 0.0, 0.0])), 0);
        assert_eq!(d.route(&tagged(1, 0.0), &index(&[0.0, 0.0, 0.2, 0.0])), 2);
        // Preferred group saturated: spill to the lowest-indexed
        // under-threshold server fleet-wide.
        assert_eq!(d.route(&tagged(1, 0.0), &index(&[0.3, 0.0, 2.0, 1.5])), 0);
        // Everything saturated: fleet-wide shortest backlog.
        assert_eq!(d.route(&tagged(0, 0.0), &index(&[3.0, 2.0, 1.5, 2.5])), 2);
        // Classes beyond the table reuse its last entry.
        assert_eq!(d.route(&tagged(9, 0.0), &index(&[0.0, 0.0, 0.0, 0.0])), 2);
    }

    #[test]
    fn class_affinity_route_active_uses_group_prefixes() {
        let mut d = ClassAffinity::new(&[2, 2], vec![0, 1], 1.0);
        // Group 1's second server (slot 3) is parked: its active prefix
        // is just slot 2, and its leaf sits at +∞ as the engine keeps
        // it, so a saturated slot 2 spills to group 0 even though slot 3
        // was idle when it parked.
        let mut idx = index(&[0.5, 0.0, 2.0, 0.0]);
        idx.set_unavailable(3);
        let groups = [(0usize, 2usize), (2, 1)];
        let active = ActiveSet::new(&groups);
        let j = Job { id: sleepscale_sim::pack_id(0, ClassId(1)), arrival: 0.0, size: 0.1 };
        assert_eq!(d.route_active(&j, &idx, &active), 0);
    }

    #[test]
    fn positional_dispatchers_draw_from_the_active_set() {
        // Groups of 3 and 2 servers with slots 2 and 4 parked: the
        // active prefixes are slots 0–1 and slot 3.
        let mut idx = index(&[0.0; 5]);
        idx.set_unavailable(2);
        idx.set_unavailable(4);
        let slots = [0usize, 1, 3];
        let groups = [(0usize, 2usize), (3, 1)];
        let active = ActiveSet::new(&groups);
        let j = job(0.0);
        let mut rr = RoundRobin::new();
        let picks: Vec<usize> = (0..6).map(|_| rr.route_active(&j, &idx, &active)).collect();
        assert_eq!(picks, vec![0, 1, 3, 0, 1, 3]);
        let mut rnd = RandomUniform::new(5);
        for _ in 0..64 {
            assert!(slots.contains(&rnd.route_active(&j, &idx, &active)));
        }
        let mut split = SplitUniform::new(9);
        for seq in 0..64u64 {
            let j = Job { id: seq, arrival: 0.0, size: 0.1 };
            let pick = split.route_active(&j, &idx, &active);
            assert_eq!(pick, slots[split.split().lane_of(&j, slots.len())]);
        }
    }

    #[test]
    fn tree_matches_linear_scan_on_a_random_walk() {
        let mut rng = StdRng::seed_from_u64(99);
        for &n in &[1usize, 2, 3, 7, 8, 13, 64] {
            let mut idx = DispatchIndex::new(n);
            let mut free = vec![0.0f64; n];
            let mut now = 0.0;
            for _ in 0..400 {
                now += rng.gen_range(0.0..1.0);
                let tree_pick = idx.shortest_backlog_server(now);
                let linear_pick = linear_shortest_backlog(&free, now);
                assert_eq!(tree_pick, linear_pick, "n={n} now={now} free={free:?}");
                let commit = rng.gen_range(0.0..3.0);
                free[tree_pick] = free[tree_pick].max(now) + commit;
                idx.update(tree_pick, free[tree_pick]);
            }
        }
    }

    /// Routes 200 tagged jobs through `d` over an evolving index of 12
    /// servers in groups of 5, 4 and 3, and spells the targets one
    /// base-12 digit per job. `prefixes: None` routes through `route`
    /// over the whole fleet; otherwise through `route_active` over
    /// those prefixes, with every other slot's leaf at `+∞` as the
    /// engine keeps parked servers.
    fn route_sequence(d: &mut dyn Dispatcher, prefixes: Option<&[(usize, usize)]>) -> String {
        const DIGITS: &[u8] = b"0123456789ab";
        let mut index = DispatchIndex::new(12);
        let active = ActiveSet::new(prefixes.unwrap_or(&[(0, 12)]));
        for i in (0..12).filter(|&i| !active.contains(i)) {
            index.set_unavailable(i);
        }
        let mut rng = StdRng::seed_from_u64(20);
        let mut now = 0.0;
        let mut out = String::new();
        for seq in 0..200u64 {
            now += rng.gen_range(0.0..0.3);
            let class = ClassId(rng.gen_range(0..4u16));
            let job = Job { id: sleepscale_sim::pack_id(seq, class), arrival: now, size: 0.1 };
            let target = match prefixes {
                None => d.route(&job, &index),
                Some(_) => d.route_active(&job, &index, &active),
            };
            index.update(target, index.free_time(target).max(now) + rng.gen_range(0.0..1.2));
            out.push(DIGITS[target] as char);
        }
        out
    }

    /// Every shipped dispatcher's routes on a fixed evolving index are
    /// pinned to literals, over the whole fleet and over the prefixes
    /// `[(0, 3), (5, 0), (9, 2)]` (group 1 wholly parked). `route` is
    /// `route_active` over one whole-fleet prefix, so no parity check
    /// between the two can see a change to their shared rule; this
    /// test does, as it does a change to the active set's slot order.
    #[test]
    fn route_sequences_are_pinned() {
        let build = |kind: usize| -> Box<dyn Dispatcher> {
            match kind {
                0 => Box::new(RoundRobin::new()),
                1 => Box::new(RandomUniform::new(7)),
                2 => Box::new(JoinShortestBacklog::new()),
                3 => Box::new(PackFirstFit::new(0.4)),
                4 => Box::new(SplitUniform::new(7)),
                _ => Box::new(ClassAffinity::new(&[5, 4, 3], vec![0, 1, 2], 0.4)),
            }
        };
        let pins: [(&str, &str, &str); 6] = [
            (
                "round-robin",
                concat!(
                    "0123456789ab0123456789ab0123456789ab0123456789ab01",
                    "23456789ab0123456789ab0123456789ab0123456789ab0123",
                    "456789ab0123456789ab0123456789ab0123456789ab012345",
                    "6789ab0123456789ab0123456789ab0123456789ab01234567",
                ),
                concat!(
                    "0129a0129a0129a0129a0129a0129a0129a0129a0129a0129a",
                    "0129a0129a0129a0129a0129a0129a0129a0129a0129a0129a",
                    "0129a0129a0129a0129a0129a0129a0129a0129a0129a0129a",
                    "0129a0129a0129a0129a0129a0129a0129a0129a0129a0129a",
                ),
            ),
            (
                "random",
                concat!(
                    "9942a382582aaa6654565093819b5b843558811405106983a8",
                    "0935502531736aa9284014307a8287a5576ab6879848626323",
                    "6a0b76b5399b3475972a0bb184855b73863b911a9509a2a337",
                    "4325382b8ab852a0b97ba982a8860a52a8954a958a338a92b1",
                ),
                concat!(
                    "910a9209aa2290a0099a922aa1aaa0a1909990a1002111a901",
                    "202a1192aa90a290922299a9022129101a992229a0900a2190",
                    "a221a101a1992299000a11010901922200122a0121290a92a9",
                    "aa29999a991111990a019902a9990290020022901222219099",
                ),
            ),
            (
                "join-shortest-backlog",
                concat!(
                    "01230203412320314024103567285200120102324134013204",
                    "50112012102301425140367021003453621012102341020131",
                    "03022456013241024035614278101234565102012103131230",
                    "00123102312201023435201213021123410252013450110112",
                ),
                concat!(
                    "01290209a1292091a02a10922a0201919a101292a09a10921a",
                    "10212012102901a2a10992aa10229a9a1010121029a1020191",
                    "09022a1a0192a102a091a29a022210a9121019190219290290",
                    "00129102912201029a92001219021129a10229012a10990112",
                ),
            ),
            (
                "pack-first-fit(0.4s)",
                concat!(
                    "01000012203112032412034155631200010012203233120413",
                    "10201011102012323401553120113332440011012320110221",
                    "00233412102300121345061234001234510021010112220120",
                    "00212012023120123213101120122020123430122341500112",
                ),
                concat!(
                    "01000012209112092a1209a19192a090010012209219210929",
                    "20101011102012929a0191a2a0112292aa0011012920110221",
                    "02099a1201210901029a1092a000129a110022100112220201",
                    "10111029109290129219001102011112901a291020a1912001",
                ),
            ),
            (
                "split-uniform(7)",
                concat!(
                    "0b8a521a33a79ab56419518553a2559708aa4459236b872399",
                    "1594b427864a29474a0691045a51198635ab2936248a976443",
                    "a537380590b42b101b05481830417574494512b82bb77041b6",
                    "a26333a8719b762b3a5947981347a8394144224923a1262554",
                ),
                concat!(
                    "0a9a200a11a9aaa22209209221a1229209aa112a012a9901a9",
                    "0291a112922a19291a0290012a200a9212aa1912019a922111",
                    "a219190290a11a000a02190910109291291201a90aa29010a2",
                    "a12111a9909a921a1a2912a90119a9191011001911a0021221",
                ),
            ),
            (
                "class-affinity(3g,0.4s)",
                concat!(
                    "95960990a0b1a905969ab05191902911995a95a01519a5b019",
                    "019005909550965ab9012abb590a05b0095599905a1059ab50",
                    "119a56679aa0909b90a192ba129596ab9099500590ab0909a5",
                    "a01909a09b5055906a90a50995a0559019aba569096a1a95ab",
                ),
                concat!(
                    "90911990a011a901929a01291a919200a90a01912029a0912a",
                    "109010919012901a09122a10190a0020191099901a1109a000",
                    "119a02129aa0909192a190a2099091a29901000090a00909a0",
                    "a01909a0901110912a91a01990a0109019a2a019291aaa90a0",
                ),
            ),
        ];
        let partial: &[(usize, usize)] = &[(0, 3), (5, 0), (9, 2)];
        for (kind, &(name, full, part)) in pins.iter().enumerate() {
            assert_eq!(build(kind).name(), name);
            assert_eq!(route_sequence(&mut *build(kind), None), full, "{name}: whole fleet");
            assert_eq!(route_sequence(&mut *build(kind), Some(partial)), part, "{name}: prefixes");
        }
    }
}
