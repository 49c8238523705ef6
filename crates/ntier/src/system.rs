//! The n-tier system: tiers, servers, in-flight requests, scaling state.
//!
//! [`System`] is pure state — servers, balancers, request table, counters.
//! The event-driven behaviour (request flow, VM boots, completion events)
//! lives in [`crate::flow`], as free functions over
//! ([`World`](crate::world::World), engine).

use dcm_sim::time::{SimDuration, SimTime};

use crate::balancer::{Balancer, BalancerPolicy};
use crate::ids::{FlightId, IdAllocator, RequestId, ServerId, TierId};
use crate::law::ServiceLaw;
use crate::metrics::ServerSample;
use crate::request::{Completion, Frame, RequestProfile};
use crate::server::{Server, ServerSpec, ServerState, VmType};

/// How a tier picks the VM flavor for its next server launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmSelection {
    /// Always launch the catalog entry at this index.
    Fixed(usize),
    /// Launch the catalog entry with the lowest price per unit capacity
    /// (first entry wins ties) — the cost-aware heterogeneous policy.
    CheapestPerCapacity,
    /// Cycle through the catalog by launch ordinal (`i % len`), giving a
    /// deterministically mixed fleet within one tier.
    Cycle,
}

/// A tier's VM purchasing policy: the catalog of flavors it may launch and
/// the selection rule choosing among them.
#[derive(Debug, Clone, PartialEq)]
pub struct VmPolicy {
    /// Launchable flavors (non-empty).
    pub types: Vec<VmType>,
    /// Selection rule.
    pub selection: VmSelection,
}

impl Default for VmPolicy {
    /// The homogeneous baseline: every launch is an [`VmType::SMALL`].
    fn default() -> Self {
        VmPolicy {
            types: vec![VmType::SMALL],
            selection: VmSelection::Fixed(0),
        }
    }
}

impl VmPolicy {
    /// A fixed single-flavor policy.
    pub fn fixed(vm: VmType) -> Self {
        VmPolicy {
            types: vec![vm],
            selection: VmSelection::Fixed(0),
        }
    }

    /// A policy cycling through `types` by launch ordinal.
    ///
    /// # Panics
    ///
    /// Panics if `types` is empty.
    pub fn cycle(types: Vec<VmType>) -> Self {
        assert!(!types.is_empty(), "VM catalog must be non-empty");
        VmPolicy {
            types,
            selection: VmSelection::Cycle,
        }
    }

    /// The flavor the tier's `ordinal`-th launch (0-based) uses.
    ///
    /// # Panics
    ///
    /// Panics if the catalog is empty or a fixed index is out of range.
    pub fn choose_at(&self, ordinal: u64) -> VmType {
        assert!(!self.types.is_empty(), "VM catalog must be non-empty");
        match self.selection {
            VmSelection::Fixed(i) => self.types[i],
            VmSelection::CheapestPerCapacity => {
                let mut best = self.types[0];
                for t in &self.types {
                    if t.price_per_capacity() < best.price_per_capacity() {
                        best = *t;
                    }
                }
                best
            }
            VmSelection::Cycle => {
                let idx = usize::try_from(ordinal % self.types.len() as u64)
                    .expect("catalog index fits usize");
                self.types[idx]
            }
        }
    }

    /// The flavor a first launch uses (see [`VmPolicy::choose_at`]).
    ///
    /// # Panics
    ///
    /// Panics if the catalog is empty or a fixed index is out of range.
    pub fn choose(&self) -> VmType {
        self.choose_at(0)
    }
}

/// Static description of one tier.
#[derive(Debug, Clone, PartialEq)]
pub struct TierSpec {
    /// Tier name used in server names, e.g. `web`, `app`, `db`.
    pub name: String,
    /// Ground-truth concurrency law for servers of this tier.
    pub law: ServiceLaw,
    /// Default thread-pool size for new servers.
    pub default_threads: u32,
    /// Default downstream connection-pool size (toward the next tier), if
    /// this tier makes downstream calls through a pool.
    pub default_conns: Option<u32>,
    /// Load-balancing policy in front of this tier.
    pub balancer: BalancerPolicy,
    /// VM preparation period before a new server becomes routable (the
    /// paper uses 15 s).
    pub boot_delay: SimDuration,
    /// The VM flavors this tier launches and how it chooses among them.
    pub vm_policy: VmPolicy,
}

impl TierSpec {
    fn server_spec(&self, name: String, launch_ordinal: u64) -> ServerSpec {
        ServerSpec {
            name,
            law: self.law,
            threads: self.default_threads,
            conns: self.default_conns,
            vm: self.vm_policy.choose_at(launch_ordinal),
        }
    }
}

/// Live state of one tier.
#[derive(Debug)]
pub struct Tier {
    spec: TierSpec,
    /// Non-stopped servers, in launch order.
    members: Vec<ServerId>,
    /// Routable (`Running`) members in launch order — the balancer's
    /// candidate list. Maintained incrementally on every lifecycle
    /// transition (boots, drains, crashes are control-plane-rare) so the
    /// per-request hot path never rescans `members` nor allocates a
    /// candidate `Vec`; at fleet scale that scan was O(servers) per request.
    routable: Vec<ServerId>,
    balancer: Balancer,
    launched_count: u64,
    /// VM-seconds already paid by stopped servers of this tier.
    retired_vm_seconds: f64,
    /// Dollars already paid by stopped servers of this tier.
    retired_vm_cost: f64,
}

impl Tier {
    /// The tier's static spec.
    pub fn spec(&self) -> &TierSpec {
        &self.spec
    }

    /// Current (non-stopped) member servers in launch order.
    pub fn members(&self) -> &[ServerId] {
        &self.members
    }

    /// Routable (`Running`) members in launch order, from the maintained
    /// cache.
    pub fn routable_members(&self) -> &[ServerId] {
        &self.routable
    }

    /// Read access to the balancer (policy inspection on the hot path).
    pub fn balancer(&self) -> &Balancer {
        &self.balancer
    }

    /// Mutable balancer access.
    pub(crate) fn balancer_mut(&mut self) -> &mut Balancer {
        &mut self.balancer
    }
}

/// Conservation counters maintained by the flow layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SystemCounters {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests fully processed.
    pub completed: u64,
    /// Requests rejected for lack of a routable server.
    pub rejected: u64,
    /// Requests abandoned by their client at the deadline.
    pub timed_out: u64,
    /// Requests lost to a crash or transient fault.
    pub failed: u64,
    /// Tier-entry attempts that found no routable server and were parked
    /// for an inter-tier retry instead of being rejected outright.
    pub retried: u64,
}

impl SystemCounters {
    /// Requests currently inside the system.
    pub fn in_flight(&self) -> u64 {
        self.submitted - self.completed - self.rejected - self.timed_out - self.failed
    }
}

/// A completion callback: runs as `f(world, engine, completion, payload)`
/// with the payload the request was submitted with
/// ([`crate::flow::submit`]). A plain function and a `u64` need no
/// allocation, which suits clients that submit on every think cycle; the
/// payload typically indexes the client in
/// [`World::clients`](crate::world::World).
pub type CompletionFn = fn(&mut crate::world::World, &mut crate::world::SimEngine, Completion, u64);

/// How a finished request reports back to its submitter: the callback and
/// its payload.
pub(crate) type OnComplete = (CompletionFn, u64);

/// Inter-tier retry configuration: when a tier momentarily has no routable
/// server (e.g. its only VM just crashed and the replacement is booting),
/// the caller parks the request and re-attempts entry after an exponential
/// backoff instead of rejecting it outright.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterTierRetry {
    /// Maximum entry attempts per tier visit (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before the first re-attempt.
    pub base_backoff: SimDuration,
    /// Multiplier applied to the backoff after each failed attempt.
    pub multiplier: f64,
}

impl Default for InterTierRetry {
    fn default() -> Self {
        InterTierRetry {
            max_attempts: 4,
            base_backoff: SimDuration::from_millis(500),
            multiplier: 2.0,
        }
    }
}

/// An in-flight request: execution plan, call stack, bookkeeping.
#[derive(Debug)]
pub struct RequestInFlight {
    /// The request's public monotonic identity (spans, completions, trace
    /// export) — distinct from the recycled [`FlightId`] slab handle.
    pub id: RequestId,
    /// The sampled execution plan.
    pub profile: RequestProfile,
    /// Call-stack frames, innermost last.
    pub frames: Vec<Frame>,
    /// Submission time.
    pub submitted: SimTime,
    /// Completion callback and its payload, called when the request leaves.
    pub(crate) on_complete: OnComplete,
    /// The client-abandonment timer, if a deadline was set.
    pub(crate) timeout_event: Option<dcm_sim::engine::EventId>,
    /// Inter-tier entry attempts consumed so far (for retry backoff).
    pub(crate) entry_attempts: u32,
    /// A pending inter-tier retry timer, if the request is parked waiting
    /// for capacity to come back.
    pub(crate) retry_event: Option<dcm_sim::engine::EventId>,
    /// Per-tier count of frames this request has pushed so far — the global
    /// visit index (in call order) each new frame is stamped with. Indexing
    /// per-visit demands this way generalizes from chains to DAGs; on a
    /// chain it equals the old parent-`calls_done` product fold because
    /// same-tier visits are strictly sequential.
    pub(crate) visit_counts: Vec<u32>,
}

/// Generation-checked slab holding every in-flight request.
///
/// Requests are the per-event allocation hot spot at fleet scale: the seed
/// kept them in a `BTreeMap<RequestId, RequestInFlight>`, paying a tree walk
/// per lookup and node churn per insert/remove. The slab stores entries in a
/// dense `Vec` addressed by [`FlightId`] slot, recycles slots (and their
/// `frames` buffers, capacity retained) through a free list, and stamps each
/// slot with a generation so handles captured by cancelled timeout/retry
/// timers dereference to `None` instead of aliasing a later request.
#[derive(Debug, Default)]
pub(crate) struct RequestSlab {
    entries: Vec<Option<RequestInFlight>>,
    gens: Vec<u32>,
    free: Vec<u32>,
    live: usize,
    allocated: u64,
    reused: u64,
    /// Emptied `frames` buffers awaiting reuse.
    spare_frames: Vec<Vec<Frame>>,
    /// Retired `visit_counts` buffers awaiting reuse.
    spare_counts: Vec<Vec<u32>>,
}

impl RequestSlab {
    pub(crate) fn insert(&mut self, mut req: RequestInFlight) -> FlightId {
        if req.frames.is_empty() {
            if let Some(spare) = self.spare_frames.pop() {
                req.frames = spare;
            }
        }
        // Stamp the request with a zeroed per-tier visit counter, reusing a
        // retired buffer's capacity when one is available.
        if req.visit_counts.is_empty() {
            if let Some(mut spare) = self.spare_counts.pop() {
                spare.clear();
                req.visit_counts = spare;
            }
        }
        req.visit_counts.resize(req.profile.tiers(), 0);
        self.live += 1;
        match self.free.pop() {
            Some(slot) => {
                self.reused += 1;
                self.entries[slot as usize] = Some(req);
                FlightId::pack(slot, self.gens[slot as usize])
            }
            None => {
                let slot =
                    u32::try_from(self.entries.len()).expect("more than 2^32 in-flight requests");
                self.allocated += 1;
                self.entries.push(Some(req));
                self.gens.push(0);
                FlightId::pack(slot, 0)
            }
        }
    }

    pub(crate) fn get(&self, id: FlightId) -> Option<&RequestInFlight> {
        let slot = id.slot() as usize;
        if self.gens.get(slot).copied() != Some(id.gen()) {
            return None;
        }
        self.entries[slot].as_ref()
    }

    pub(crate) fn get_mut(&mut self, id: FlightId) -> Option<&mut RequestInFlight> {
        let slot = id.slot() as usize;
        if self.gens.get(slot).copied() != Some(id.gen()) {
            return None;
        }
        self.entries[slot].as_mut()
    }

    pub(crate) fn remove(&mut self, id: FlightId) -> Option<RequestInFlight> {
        let slot = id.slot() as usize;
        if self.gens.get(slot).copied() != Some(id.gen()) {
            return None;
        }
        let mut req = self.entries[slot].take()?;
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        self.free.push(id.slot());
        self.live -= 1;
        // Requests leave with their call stack fully popped; keep the
        // buffer's capacity for the next request through this slab.
        if req.frames.is_empty() && req.frames.capacity() > 0 {
            self.spare_frames.push(std::mem::take(&mut req.frames));
        }
        if req.visit_counts.capacity() > 0 {
            let mut counts = std::mem::take(&mut req.visit_counts);
            counts.clear();
            self.spare_counts.push(counts);
        }
        Some(req)
    }

    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Slots ever created: the peak number of requests in flight at once.
    pub(crate) fn peak(&self) -> usize {
        self.entries.len()
    }

    /// Live entries in slot order (NOT public-id order; sort by
    /// [`RequestInFlight::id`] where accumulation order matters).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (FlightId, &RequestInFlight)> {
        self.entries.iter().enumerate().filter_map(|(slot, e)| {
            e.as_ref()
                .map(|req| (FlightId::pack(slot as u32, self.gens[slot]), req))
        })
    }

    /// `(fresh slot allocations, free-list reuses)` since construction.
    pub(crate) fn stats(&self) -> (u64, u64) {
        (self.allocated, self.reused)
    }
}

/// Per-tier and per-edge traffic ledger maintained by the flow layer.
///
/// Every frame push is booked twice — once against its tier, once against
/// the `(parent tier → tier)` edge it arrived over (the client counts as
/// the virtual parent of tier 0) — and every frame that is unwound while
/// still waiting for a thread (and therefore records no span) is booked as
/// abandoned. The [`ConservationAuditor`](crate::audit::ConservationAuditor)
/// closes the loop: per tier, entries over a window must equal spans plus
/// abandoned waits plus the change in live frames, and the edge ledger must
/// re-sum to the tier ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowLedger {
    tiers: usize,
    tier_entries: Vec<u64>,
    tier_abandoned: Vec<u64>,
    /// Dense `(parent + 1) × tiers + child` matrix; row 0 is the client.
    edge_entries: Vec<u64>,
}

impl FlowLedger {
    fn new(tiers: usize) -> Self {
        FlowLedger {
            tiers,
            tier_entries: vec![0; tiers],
            tier_abandoned: vec![0; tiers],
            edge_entries: vec![0; (tiers + 1) * tiers],
        }
    }

    fn note_entry(&mut self, parent: Option<usize>, child: usize) {
        self.tier_entries[child] += 1;
        let row = parent.map_or(0, |p| p + 1);
        let idx = row * self.tiers + child;
        self.edge_entries[idx] += 1;
    }

    fn note_abandoned(&mut self, tier: usize) {
        self.tier_abandoned[tier] += 1;
    }

    /// Frames pushed per tier since system start.
    pub fn tier_entries(&self) -> &[u64] {
        &self.tier_entries
    }

    /// Frames unwound per tier while still awaiting a thread (no span).
    pub fn tier_abandoned(&self) -> &[u64] {
        &self.tier_abandoned
    }

    /// Frames pushed into `child` over the edge from `parent` (`None` =
    /// the client).
    pub fn edge_entries(&self, parent: Option<usize>, child: usize) -> u64 {
        let row = parent.map_or(0, |p| p + 1);
        let idx = row * self.tiers + child;
        self.edge_entries[idx]
    }

    /// Re-sums the edge matrix per child tier — must equal
    /// [`FlowLedger::tier_entries`] exactly.
    pub fn edge_entry_sums(&self) -> Vec<u64> {
        let mut sums = vec![0u64; self.tiers];
        for (idx, &n) in self.edge_entries.iter().enumerate() {
            sums[idx % self.tiers] += n;
        }
        sums
    }
}

/// The complete n-tier system state.
#[derive(Debug)]
pub struct System {
    tiers: Vec<Tier>,
    /// Every server ever launched, indexed densely by `ServerId::raw`.
    /// Servers are never removed from storage (retirement only drops tier
    /// membership), so the Vec is append-only and lookups are O(1).
    servers: Vec<Server>,
    pub(crate) requests: RequestSlab,
    request_ids: IdAllocator,
    pub(crate) counters: SystemCounters,
    /// Probability that a VM boot fails (failure injection; default 0).
    pub boot_failure_prob: f64,
    /// Probability that an individual request admission fails transiently
    /// at the moment a thread is granted (fault injection; default 0, in
    /// which case no RNG draw is made at all).
    pub transient_failure_prob: f64,
    /// Inter-tier retry policy; `None` rejects immediately when a tier has
    /// no routable server (the seed behaviour).
    pub inter_tier_retry: Option<InterTierRetry>,
    pub(crate) span_log: Option<Vec<crate::spans::Span>>,
    pub(crate) event_log: Option<Vec<crate::spans::ServerEvent>>,
    /// Per-tier / per-edge traffic counts for the flow-balance audit.
    flow_ledger: FlowLedger,
    /// Profiles of finished requests, for workload factories to refill in
    /// place; never longer than the request slab's peak occupancy.
    spare_profiles: Vec<RequestProfile>,
    /// The profile of the request whose completion callback is running,
    /// until the callback takes it or it is recycled.
    pub(crate) finished_profile: Option<RequestProfile>,
    /// Servers whose CPU completion timer awaits a re-arm (see the
    /// `crate::flow` module docs).
    pub(crate) rearm_dirty: Vec<ServerId>,
}

impl System {
    /// Builds a system with `initial[m]` running servers in tier `m`.
    ///
    /// # Panics
    ///
    /// Panics if `tiers` is empty or has more tiers than a `u16` indexes
    /// (a request [`Outcome`](crate::request::Outcome) names its tier in
    /// 16 bits), counts don't match, or any initial count is zero (every
    /// tier needs at least one server).
    pub fn new(tiers: Vec<TierSpec>, initial: &[u32], now: SimTime) -> Self {
        assert!(!tiers.is_empty(), "system needs at least one tier");
        assert!(tiers.len() <= usize::from(u16::MAX), "too many tiers");
        assert_eq!(tiers.len(), initial.len(), "one count per tier");
        assert!(
            initial.iter().all(|&c| c > 0),
            "every tier needs at least one initial server"
        );
        let tier_count = tiers.len();
        let mut system = System {
            tiers: tiers
                .into_iter()
                .map(|spec| Tier {
                    balancer: Balancer::new(spec.balancer),
                    spec,
                    members: Vec::new(),
                    routable: Vec::new(),
                    launched_count: 0,
                    retired_vm_seconds: 0.0,
                    retired_vm_cost: 0.0,
                })
                .collect(),
            servers: Vec::new(),
            requests: RequestSlab::default(),
            request_ids: IdAllocator::new(),
            counters: SystemCounters::default(),
            boot_failure_prob: 0.0,
            transient_failure_prob: 0.0,
            inter_tier_retry: None,
            span_log: None,
            event_log: None,
            flow_ledger: FlowLedger::new(tier_count),
            spare_profiles: Vec::new(),
            finished_profile: None,
            rearm_dirty: Vec::new(),
        };
        for (m, &count) in initial.iter().enumerate() {
            for _ in 0..count {
                system.add_server(TierId(m), now, ServerState::Running);
            }
        }
        system
    }

    /// Number of tiers.
    pub fn tier_count(&self) -> usize {
        self.tiers.len()
    }

    /// The tier at index `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn tier(&self, m: usize) -> &Tier {
        &self.tiers[m]
    }

    pub(crate) fn tier_mut(&mut self, m: usize) -> &mut Tier {
        &mut self.tiers[m]
    }

    /// The server with the given id, if it exists.
    pub fn server(&self, id: ServerId) -> Option<&Server> {
        self.servers.get(id.raw() as usize)
    }

    pub(crate) fn server_mut(&mut self, id: ServerId) -> Option<&mut Server> {
        self.servers.get_mut(id.raw() as usize)
    }

    /// All servers (including stopped), in id order.
    pub fn servers(&self) -> impl Iterator<Item = &Server> {
        self.servers.iter()
    }

    /// Marks a server `Running` (boot finished) and refreshes its tier's
    /// routable cache. Lifecycle transitions go through the [`System`] so
    /// the cache can never drift from server state.
    pub(crate) fn mark_server_running(&mut self, id: ServerId) {
        if let Some(s) = self.server_mut(id) {
            let tier = s.tier();
            s.mark_running();
            self.rebuild_routable(tier);
        }
    }

    /// Marks a server `Draining` and refreshes its tier's routable cache.
    pub(crate) fn mark_server_draining(&mut self, id: ServerId) {
        if let Some(s) = self.server_mut(id) {
            let tier = s.tier();
            s.mark_draining();
            self.rebuild_routable(tier);
        }
    }

    /// Marks a server `Stopped` at `now` and refreshes its tier's routable
    /// cache.
    pub(crate) fn mark_server_stopped(&mut self, id: ServerId, now: SimTime) {
        if let Some(s) = self.server_mut(id) {
            let tier = s.tier();
            s.mark_stopped(now);
            self.rebuild_routable(tier);
        }
    }

    /// Rebuilds one tier's routable-member cache from its member list.
    /// O(members), called only on lifecycle transitions.
    fn rebuild_routable(&mut self, tier: usize) {
        let t = &mut self.tiers[tier];
        let mut routable = std::mem::take(&mut t.routable);
        routable.clear();
        routable.extend(
            t.members
                .iter()
                .copied()
                .filter(|id| self.servers[id.raw() as usize].is_routable()),
        );
        self.tiers[tier].routable = routable;
    }

    /// Requests currently inside the system, counted from the live request
    /// slab (the independent side of the flow-balance audit).
    pub fn live_requests(&self) -> usize {
        self.requests.len()
    }

    /// The per-tier / per-edge traffic ledger.
    pub fn flow_ledger(&self) -> &FlowLedger {
        &self.flow_ledger
    }

    /// Books a frame push into `child` arriving over the edge from
    /// `parent` (`None` = the client).
    pub(crate) fn note_tier_entry(&mut self, parent: Option<usize>, child: usize) {
        self.flow_ledger.note_entry(parent, child);
    }

    /// Books a frame unwound while still awaiting a thread (records no
    /// span, so the flow-balance audit must not expect one).
    pub(crate) fn note_abandoned_wait(&mut self, tier: usize) {
        self.flow_ledger.note_abandoned(tier);
    }

    /// Live call-stack frames per tier across all in-flight requests — the
    /// instantaneous side of the per-tier flow-balance identity.
    pub fn live_frames_per_tier(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.tiers.len()];
        for (_, req) in self.requests.iter() {
            for f in &req.frames {
                counts[f.tier] += 1;
            }
        }
        counts
    }

    /// In-flight requests sorted by public id — a stable iteration order
    /// for auditors accumulating floats, independent of slab slot reuse.
    pub(crate) fn requests_by_id(&self) -> Vec<&RequestInFlight> {
        let mut reqs: Vec<&RequestInFlight> = self.requests.iter().map(|(_, r)| r).collect();
        reqs.sort_by_key(|r| r.id);
        reqs
    }

    /// `(fresh slot allocations, free-list reuses)` of the request slab —
    /// the slab hit-rate counters surfaced in perf artifacts.
    pub fn request_slab_stats(&self) -> (u64, u64) {
        self.requests.stats()
    }

    /// A finished request's profile for a workload factory to rebuild in
    /// place (see `RequestProfile::on_route_reusing`), or `None` when no spare
    /// is left. Profiles come back when their request completes, so a
    /// client that draws each new profile here allocates none once the
    /// system has reached its peak number of requests in flight.
    pub fn recycled_profile(&mut self) -> Option<RequestProfile> {
        self.spare_profiles.pop()
    }

    /// The profile of the request whose completion callback is running.
    /// A callback that resubmits the same plan (a client retry) takes it
    /// here instead of keeping a copy; a profile left untaken is recycled
    /// when the callback returns. `None` outside a completion callback or
    /// once taken. A callback whose own submission completes re-entrantly
    /// (an immediate rejection) still finds its profile here afterwards.
    pub fn take_finished_profile(&mut self) -> Option<RequestProfile> {
        self.finished_profile.take()
    }

    /// Returns a finished request's profile to the spare list, unless the
    /// list already holds one per slot of the request slab.
    pub(crate) fn recycle_profile(&mut self, profile: RequestProfile) {
        if self.spare_profiles.len() < self.requests.peak() {
            self.spare_profiles.push(profile);
        }
    }

    /// The outcome counters.
    pub fn counters(&self) -> SystemCounters {
        self.counters
    }

    /// Starts recording a [`Span`](crate::spans::Span) for every tier visit
    /// (off by default; spans accumulate unboundedly, so enable only for
    /// bounded analysis runs).
    pub fn enable_tracing(&mut self) {
        self.span_log.get_or_insert_with(Vec::new);
    }

    /// True when span recording is on.
    pub fn tracing_enabled(&self) -> bool {
        self.span_log.is_some()
    }

    /// Takes the recorded spans, leaving recording enabled.
    pub fn take_spans(&mut self) -> Vec<crate::spans::Span> {
        self.span_log
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Hands back a buffer [`System::take_spans`] returned, so the span log
    /// reuses its capacity instead of regrowing from empty. The buffer is
    /// cleared; it is dropped instead when recording is off or spans were
    /// recorded since the take.
    pub fn recycle_spans(&mut self, mut spans: Vec<crate::spans::Span>) {
        if let Some(log) = self.span_log.as_mut().filter(|log| log.is_empty()) {
            spans.clear();
            *log = spans;
        }
    }

    pub(crate) fn record_span(&mut self, span: crate::spans::Span) {
        if let Some(log) = self.span_log.as_mut() {
            log.push(span);
        }
    }

    /// Starts recording a [`ServerEvent`](crate::spans::ServerEvent) for
    /// every VM-lifecycle change (boots, drains, crashes, slowdowns). Off by
    /// default; the stream is tiny (one entry per scaling/fault action).
    pub fn enable_event_log(&mut self) {
        self.event_log.get_or_insert_with(Vec::new);
    }

    /// Takes the recorded server events, leaving recording enabled.
    pub fn take_server_events(&mut self) -> Vec<crate::spans::ServerEvent> {
        self.event_log
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    pub(crate) fn record_server_event(&mut self, event: crate::spans::ServerEvent) {
        if let Some(log) = self.event_log.as_mut() {
            log.push(event);
        }
    }

    /// Allocates a request id.
    pub(crate) fn next_request_id(&mut self) -> RequestId {
        RequestId::new(self.request_ids.next_raw())
    }

    /// Creates and registers a server in `tier` with the tier's default
    /// spec, in the given lifecycle state. Returns its id.
    pub(crate) fn add_server(
        &mut self,
        tier: TierId,
        now: SimTime,
        state: ServerState,
    ) -> ServerId {
        let id = ServerId::new(self.servers.len() as u64);
        let t = &mut self.tiers[tier.index()];
        t.launched_count += 1;
        let name = format!("{}-{}", t.spec.name, t.launched_count);
        let spec = t.spec.server_spec(name, t.launched_count - 1);
        let server = Server::new(id, tier.index(), &spec, now, state);
        t.members.push(id);
        if server.is_routable() {
            t.routable.push(id);
        }
        self.servers.push(server);
        id
    }

    /// Updates the default soft resources newly launched servers of `tier`
    /// will boot with (the DCM APP-agent updates these alongside the live
    /// pools so a VM joining mid-burst starts with the right allocation).
    ///
    /// # Panics
    ///
    /// Panics if `tier` is out of range or `threads` is zero.
    pub fn set_tier_defaults(&mut self, tier: usize, threads: u32, conns: Option<u32>) {
        assert!(threads > 0, "default threads must be positive");
        let spec = &mut self.tiers[tier].spec;
        spec.default_threads = threads;
        if let Some(c) = conns {
            assert!(c > 0, "default conns must be positive");
            spec.default_conns = Some(c);
        }
    }

    /// Routable servers of a tier with their current load, for balancing
    /// policies that weigh load (and for control-plane callers). Built from
    /// the maintained routable cache; policies that ignore load should index
    /// [`Tier::routable_members`] directly instead of materializing this.
    pub fn routable(&self, tier: usize) -> Vec<(ServerId, u32)> {
        self.tiers[tier]
            .routable
            .iter()
            .map(|&id| (id, self.servers[id.raw() as usize].threads_in_use()))
            .collect()
    }

    /// Count of routable servers in a tier. O(1) from the routable cache.
    pub fn running_count(&self, tier: usize) -> usize {
        self.tiers[tier].routable.len()
    }

    /// Count of servers still booting in a tier.
    pub fn booting_count(&self, tier: usize) -> usize {
        self.tiers[tier]
            .members
            .iter()
            .filter(|id| {
                matches!(
                    self.servers[id.raw() as usize].state(),
                    ServerState::Starting { .. }
                )
            })
            .count()
    }

    /// Removes a stopped server from its tier's member list, accruing its
    /// VM-seconds into the tier's retired total.
    pub(crate) fn retire_server(&mut self, id: ServerId, now: SimTime) {
        if let Some(server) = self.server(id) {
            let tier = server.tier();
            let vm_secs = server.vm_seconds(now);
            let vm_cost = server.vm_cost(now);
            let t = &mut self.tiers[tier];
            t.members.retain(|&m| m != id);
            t.routable.retain(|&m| m != id);
            t.retired_vm_seconds += vm_secs;
            t.retired_vm_cost += vm_cost;
        }
    }

    /// Total VM-seconds consumed by a tier so far (running + retired) — the
    /// resource-cost metric for the efficiency comparison.
    pub fn vm_seconds(&self, tier: usize, now: SimTime) -> f64 {
        let live: f64 = self.tiers[tier]
            .members
            .iter()
            .map(|id| self.servers[id.raw() as usize].vm_seconds(now))
            .sum();
        live + self.tiers[tier].retired_vm_seconds
    }

    /// Total dollars consumed by a tier so far (running + retired) — the
    /// heterogeneous-fleet cost metric: with mixed VM flavors, equal
    /// VM-seconds no longer imply equal spend.
    pub fn vm_cost(&self, tier: usize, now: SimTime) -> f64 {
        let live: f64 = self.tiers[tier]
            .members
            .iter()
            .map(|id| self.servers[id.raw() as usize].vm_cost(now))
            .sum();
        live + self.tiers[tier].retired_vm_cost
    }

    /// Takes a monitoring sample from every non-stopped server.
    pub fn sample_all(&mut self, now: SimTime) -> Vec<ServerSample> {
        let member_ids: Vec<ServerId> = self
            .tiers
            .iter()
            .flat_map(|t| t.members.iter().copied())
            .collect();
        member_ids
            .into_iter()
            .filter_map(|id| {
                let server = self.servers.get_mut(id.raw() as usize)?;
                (!server.is_stopped()).then(|| server.sample(now))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::law::reference;

    fn specs() -> Vec<TierSpec> {
        vec![
            TierSpec {
                name: "web".into(),
                law: reference::apache(),
                default_threads: 1000,
                default_conns: None,
                balancer: BalancerPolicy::RoundRobin,
                boot_delay: SimDuration::from_secs(15),
                vm_policy: VmPolicy::default(),
            },
            TierSpec {
                name: "app".into(),
                law: reference::tomcat(),
                default_threads: 100,
                default_conns: Some(80),
                balancer: BalancerPolicy::RoundRobin,
                boot_delay: SimDuration::from_secs(15),
                vm_policy: VmPolicy::default(),
            },
            TierSpec {
                name: "db".into(),
                law: reference::mysql(),
                default_threads: 800,
                default_conns: None,
                balancer: BalancerPolicy::RoundRobin,
                boot_delay: SimDuration::from_secs(15),
                vm_policy: VmPolicy::default(),
            },
        ]
    }

    #[test]
    fn initial_topology_matches_counts() {
        let sys = System::new(specs(), &[1, 2, 1], SimTime::ZERO);
        assert_eq!(sys.tier_count(), 3);
        assert_eq!(sys.running_count(0), 1);
        assert_eq!(sys.running_count(1), 2);
        assert_eq!(sys.running_count(2), 1);
        assert_eq!(sys.servers().count(), 4);
    }

    #[test]
    fn server_names_follow_tier_and_order() {
        let sys = System::new(specs(), &[1, 2, 1], SimTime::ZERO);
        let names: Vec<&str> = sys.servers().map(|s| s.name()).collect();
        assert!(names.contains(&"web-1"));
        assert!(names.contains(&"app-1"));
        assert!(names.contains(&"app-2"));
        assert!(names.contains(&"db-1"));
    }

    #[test]
    fn booting_servers_are_not_routable() {
        let mut sys = System::new(specs(), &[1, 1, 1], SimTime::ZERO);
        let id = sys.add_server(
            TierId(1),
            SimTime::ZERO,
            ServerState::Starting {
                ready_at: SimTime::from_secs(15),
            },
        );
        assert_eq!(sys.running_count(1), 1);
        assert_eq!(sys.booting_count(1), 1);
        sys.mark_server_running(id);
        assert_eq!(sys.running_count(1), 2);
        // Launch order is preserved in the routable cache: the original
        // member still precedes the newly booted one.
        assert_eq!(sys.tier(1).routable_members().last(), Some(&id));
    }

    #[test]
    fn retire_accrues_vm_seconds() {
        let mut sys = System::new(specs(), &[1, 2, 1], SimTime::ZERO);
        let victim = sys.tier(1).members()[1];
        let now = SimTime::from_secs(100);
        sys.mark_server_stopped(victim, now);
        sys.retire_server(victim, now);
        assert_eq!(sys.running_count(1), 1);
        // Tier 1 cost: survivor 150 s + retired 100 s.
        let later = SimTime::from_secs(150);
        assert!((sys.vm_seconds(1, later) - 250.0).abs() < 1e-9);
    }

    #[test]
    fn sample_all_covers_live_servers() {
        let mut sys = System::new(specs(), &[1, 2, 1], SimTime::ZERO);
        let samples = sys.sample_all(SimTime::from_secs(1));
        assert_eq!(samples.len(), 4);
        assert!(samples.iter().all(|s| s.cpu_util == 0.0));
    }

    #[test]
    fn counters_start_clean() {
        let sys = System::new(specs(), &[1, 1, 1], SimTime::ZERO);
        assert_eq!(sys.counters(), SystemCounters::default());
        assert_eq!(sys.counters().in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one initial server")]
    fn zero_initial_servers_rejected() {
        let _ = System::new(specs(), &[1, 0, 1], SimTime::ZERO);
    }

    fn in_flight(id: u64) -> RequestInFlight {
        RequestInFlight {
            id: RequestId::new(id),
            profile: RequestProfile::new(
                vec![crate::request::StageDemand::pre_only(0.01)],
                vec![1],
                0,
            ),
            frames: Vec::new(),
            submitted: SimTime::ZERO,
            on_complete: (|_, _, _, _| {}, 0),
            timeout_event: None,
            entry_attempts: 0,
            retry_event: None,
            visit_counts: Vec::new(),
        }
    }

    #[test]
    fn request_slab_recycles_slots_and_stales_old_handles() {
        let mut slab = RequestSlab::default();
        let a = slab.insert(in_flight(0));
        let b = slab.insert(in_flight(1));
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a).unwrap().id, RequestId::new(0));

        let removed = slab.remove(a).unwrap();
        assert_eq!(removed.id, RequestId::new(0));
        assert!(slab.get(a).is_none(), "stale handle goes dead");
        assert!(slab.remove(a).is_none(), "double remove is a no-op");
        assert_eq!(slab.len(), 1);

        // The freed slot is recycled under a bumped generation.
        let c = slab.insert(in_flight(2));
        assert_eq!(c.slot(), a.slot());
        assert_ne!(c.gen(), a.gen());
        assert!(slab.get(a).is_none(), "old handle cannot alias new request");
        assert_eq!(slab.get(c).unwrap().id, RequestId::new(2));
        assert_eq!(slab.get(b).unwrap().id, RequestId::new(1));
        assert_eq!(slab.stats(), (2, 1), "two fresh slots, one reuse");
    }

    #[test]
    fn request_slab_iterates_live_entries_in_slot_order() {
        let mut slab = RequestSlab::default();
        let a = slab.insert(in_flight(0));
        let _b = slab.insert(in_flight(1));
        let _c = slab.insert(in_flight(2));
        slab.remove(a);
        let ids: Vec<u64> = slab.iter().map(|(_, r)| r.id.raw()).collect();
        assert_eq!(ids, vec![1, 2]);
    }
}
