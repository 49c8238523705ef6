//! Request representation and the per-request execution state machine.
//!
//! An HTTP request travels its route recursively: at tier *m* it holds a
//! server thread, runs a **pre** CPU burst, makes the sequential calls of
//! tier *m*'s out-edges in the route into the downstream tiers (holding a
//! downstream connection for each call), runs a **post** burst, and
//! replies. The route is a [`TopologyGraph`] shared by every request of the
//! same shape. The [`Frame`] stack records where in that recursion the
//! request currently is; `dcm-ntier`'s flow module drives the transitions.
//!
//! A finished request leaves one [`Completion`] behind, and a trace run
//! logs one per logical request (about 770 k on a long chaos run), so the
//! record is kept to 32 bytes: the [`Outcome`]'s tier is a `u16`, which
//! every system fits because [`System::new`](crate::system::System::new)
//! refuses more tiers than a `u16` indexes.

use std::rc::Rc;

use dcm_sim::time::{SimDuration, SimTime};

use crate::graph::TopologyGraph;
use crate::ids::{RequestId, ServerId};

/// CPU demand at one tier, split around the downstream calls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageDemand {
    /// Work-seconds before the first downstream call.
    pub pre: f64,
    /// Work-seconds after the last downstream call returns.
    pub post: f64,
}

impl StageDemand {
    /// Demand entirely before the downstream calls.
    pub fn pre_only(pre: f64) -> Self {
        StageDemand { pre, post: 0.0 }
    }

    /// Demand split evenly around the downstream calls.
    pub fn split(total: f64) -> Self {
        StageDemand {
            pre: total / 2.0,
            post: total / 2.0,
        }
    }

    /// Total work-seconds at this tier.
    pub fn total(&self) -> f64 {
        self.pre + self.post
    }
}

/// The fully-sampled execution plan of one request: per-tier CPU demands and
/// the route (call graph) of its downstream calls.
///
/// Built by workload generators (which own the service-demand
/// distributions); consumed by the system simulator. A route is shared, not
/// copied: [`RequestProfile::new`] builds the chain for a per-hop visits
/// vector, and [`RequestProfile::on_route_reusing`] installs a route its
/// generator built once for every request of the same shape. A generator
/// on the per-request path rebuilds a finished request's profile in place
/// (`on_route_reusing`, then [`RequestProfile::set_per_visit_demands`])
/// rather than allocating a new one.
///
/// # Examples
///
/// ```
/// use dcm_ntier::request::{RequestProfile, StageDemand};
///
/// // A RUBBoS-style browse interaction: cheap Apache pass-through, a Tomcat
/// // burst split around two MySQL queries.
/// let profile = RequestProfile::new(
///     vec![
///         StageDemand::pre_only(0.0006),
///         StageDemand::split(0.0284),
///         StageDemand::pre_only(0.00719),
///     ],
///     vec![1, 1, 2],
///     0,
/// );
/// assert_eq!(profile.tiers(), 3);
/// assert_eq!(profile.visits_to(2), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RequestProfile {
    demands: Vec<StageDemand>,
    class: u16,
    /// Per-visit demand overrides of every tier, concatenated in tier
    /// order: tier `m`'s overrides, indexed by global visit index, are the
    /// `per_visit_spans[m] = (start, len)` slice of this vector. A tier
    /// without a span, or with an empty one, uses `demands[tier]` for
    /// every visit. Workload generators fill this when per-visit demands
    /// must be sampled independently (e.g. i.i.d. exponential DB queries —
    /// reusing one sample across a request's visits correlates service
    /// times and breaks the product-form model the MVA oracle checks
    /// against). One flat buffer, so a recycled profile keeps its capacity.
    per_visit: Vec<StageDemand>,
    per_visit_spans: Vec<(u32, u32)>,
    /// The call graph: a frame at tier `from` makes each out-edge's calls
    /// into its `to` tier, in edge order. Shared by every request of the
    /// same shape.
    route: Rc<TopologyGraph>,
}

fn assert_valid_demand(d: &StageDemand) {
    assert!(
        d.pre.is_finite() && d.pre >= 0.0 && d.post.is_finite() && d.post >= 0.0,
        "demands must be finite and non-negative"
    );
}

impl RequestProfile {
    /// Creates a chain profile.
    ///
    /// `demands[m]` is the per-call CPU demand at tier `m`; `visits[m]` is
    /// the number of calls tier `m−1` makes into tier `m` per request
    /// (`visits[0]` is conventionally 1: the client calls the front tier
    /// once).
    ///
    /// # Panics
    ///
    /// Panics if the vectors are empty, have different lengths, any demand
    /// is negative/non-finite, or `visits[0] != 1`.
    pub fn new(demands: Vec<StageDemand>, visits: Vec<u32>, class: u16) -> Self {
        let route = Rc::new(TopologyGraph::chain(&visits));
        Self::on_route_reusing(None, demands, &route, class)
    }

    /// A profile routing its downstream calls through `route`, built in
    /// `spare`'s buffers when one is given. Every field is overwritten
    /// (per-visit overrides cleared) and only buffer capacity survives, so
    /// the result is the same whatever `spare` held. Installing the route
    /// shares it: nothing is copied.
    ///
    /// # Panics
    ///
    /// Panics if `demands` does not cover exactly the route's nodes or
    /// holds a negative/non-finite demand.
    pub fn on_route_reusing(
        spare: Option<RequestProfile>,
        demands: impl IntoIterator<Item = StageDemand>,
        route: &Rc<TopologyGraph>,
        class: u16,
    ) -> Self {
        let route = Rc::clone(route);
        let mut profile = match spare {
            Some(spare) => RequestProfile { route, ..spare },
            None => RequestProfile {
                demands: Vec::new(),
                class: 0,
                per_visit: Vec::new(),
                per_visit_spans: Vec::new(),
                route,
            },
        };
        profile.demands.clear();
        profile.demands.extend(demands);
        profile.class = class;
        profile.per_visit.clear();
        profile.per_visit_spans.clear();
        assert_eq!(
            profile.route.tiers(),
            profile.demands.len(),
            "demands and the call graph must cover the same tiers"
        );
        profile.demands.iter().for_each(assert_valid_demand);
        profile
    }

    /// The call graph.
    pub fn graph(&self) -> &TopologyGraph {
        &self.route
    }

    /// Total downstream calls a frame at tier `m` makes: the sum of its
    /// out-edges' call counts (0 at a leaf).
    pub fn total_calls_from(&self, m: usize) -> u32 {
        self.route.total_calls(m)
    }

    /// The tier receiving call number `k` (0-based, in call order) from a
    /// frame at tier `m`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not less than [`RequestProfile::total_calls_from`].
    pub fn call_target(&self, m: usize, k: u32) -> usize {
        self.route.call_target(m, k)
    }

    /// Installs independent per-visit demands for tier `m`: visit `k` of
    /// the request at tier `m` (counting every visit across the whole
    /// request, in call order) uses the `k`-th demand instead of the shared
    /// per-call demand. Each tier's demands are installed at most once,
    /// in increasing tier order, on a freshly built profile.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range, not above every tier installed so
    /// far, `demands` does not cover exactly the request's
    /// [`RequestProfile::cumulative_visits`] to tier `m`, or any demand is
    /// negative/non-finite.
    pub fn set_per_visit_demands(
        &mut self,
        m: usize,
        demands: impl IntoIterator<Item = StageDemand>,
    ) {
        assert!(m < self.demands.len(), "tier {m} out of range");
        assert!(
            m >= self.per_visit_spans.len(),
            "per-visit demands are installed once per tier, in increasing tier order"
        );
        self.per_visit_spans.resize(m + 1, (0, 0));
        let start = self.per_visit.len();
        self.per_visit.extend(demands);
        let installed = &self.per_visit[start..];
        assert_eq!(
            installed.len() as u64,
            self.cumulative_visits(m),
            "per-visit demands must cover every visit to tier {m}"
        );
        installed.iter().for_each(assert_valid_demand);
        let start = u32::try_from(start).expect("per-visit demands fit u32");
        let len = u32::try_from(installed.len()).expect("per-visit demands fit u32");
        self.per_visit_spans[m] = (start, len);
    }

    /// Tier `m`'s per-visit overrides (empty when it has none).
    fn per_visit_of(&self, m: usize) -> &[StageDemand] {
        match self.per_visit_spans.get(m) {
            Some(&(start, len)) => &self.per_visit[start as usize..][..len as usize],
            None => &[],
        }
    }

    /// Number of tiers this request traverses.
    pub fn tiers(&self) -> usize {
        self.demands.len()
    }

    /// Per-call demand at tier `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn demand(&self, m: usize) -> StageDemand {
        self.demands[m]
    }

    /// Demand of the `visit`-th visit (global, in call order) to tier `m`;
    /// falls back to the shared per-call demand when no per-visit override
    /// is installed.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn demand_for_visit(&self, m: usize, visit: u64) -> StageDemand {
        usize::try_from(visit)
            .ok()
            .and_then(|k| self.per_visit_of(m).get(k))
            .copied()
            .unwrap_or(self.demands[m])
    }

    /// Calls made into tier `m` per visit of its parent tier(s): the sum
    /// of its in-edges' call counts (1 for the front tier).
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn visits_to(&self, m: usize) -> u32 {
        self.route.in_calls(m)
    }

    /// The workload class (servlet index) for bookkeeping.
    pub fn class(&self) -> u16 {
        self.class
    }

    /// The end-to-end visit ratio `V_m` from the client to tier `m` (the
    /// product of per-hop visits on a chain, the DAG visit-ratio sum in
    /// general).
    pub fn cumulative_visits(&self, m: usize) -> u64 {
        self.route.visit_ratios()[m]
    }
}

/// Where a frame is in its tier-local lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Parked in the server's thread-pool queue.
    AwaitThread,
    /// Running the pre-call CPU burst.
    PreBurst,
    /// Parked in this server's downstream connection-pool queue.
    AwaitConn,
    /// A child call is in flight at the next tier.
    InCall,
    /// Running the post-call CPU burst.
    PostBurst,
}

/// One level of the request's call stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Tier index of this frame.
    pub tier: usize,
    /// Server processing this frame.
    pub server: ServerId,
    /// Current phase.
    pub phase: Phase,
    /// Downstream calls completed so far.
    pub calls_done: u32,
    /// Which global visit (in call order, per tier) of the request this
    /// frame is — the index into per-visit demand overrides.
    pub visit: u64,
    /// Whether this frame currently holds a downstream connection.
    pub holds_conn: bool,
    /// When this frame's thread was granted (for dwell-time accounting;
    /// meaningful once past [`Phase::AwaitThread`]).
    pub thread_since: SimTime,
    /// When the request arrived at this tier (thread requested).
    pub arrived_at: SimTime,
}

impl Frame {
    /// A frame newly arrived at `server` in `tier` at time `now` as the
    /// request's `visit`-th visit to that tier, not yet holding a thread.
    pub fn arriving(tier: usize, server: ServerId, now: SimTime, visit: u64) -> Self {
        Frame {
            tier,
            server,
            phase: Phase::AwaitThread,
            calls_done: 0,
            visit,
            holds_conn: false,
            thread_since: SimTime::ZERO,
            arrived_at: now,
        }
    }
}

/// Why a request left the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Fully processed.
    Completed,
    /// Dropped because a tier had no routable server.
    Rejected {
        /// The tier that could not accept the request.
        at_tier: u16,
    },
    /// Abandoned by the client after its deadline elapsed.
    TimedOut,
    /// Lost to a fault: the server processing it crashed mid-flight, or
    /// the request was dropped by a transient (injected) failure.
    Failed {
        /// The tier at which the fault struck.
        at_tier: u16,
    },
}

/// Completion record delivered to the submitter's callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The request.
    pub id: RequestId,
    /// Workload class (servlet index).
    pub class: u16,
    /// Submission time.
    pub submitted: SimTime,
    /// Completion (or rejection) time.
    pub finished: SimTime,
    /// How the request ended.
    pub outcome: Outcome,
}

// The completion log holds one record per logical request: keep it at
// 32 bytes.
const _: () = assert!(std::mem::size_of::<Completion>() == 32);

impl Completion {
    /// End-to-end response time.
    pub fn response_time(&self) -> SimDuration {
        self.finished.saturating_since(self.submitted)
    }

    /// True if the request completed successfully.
    pub fn is_success(&self) -> bool {
        self.outcome == Outcome::Completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> RequestProfile {
        RequestProfile::new(
            vec![
                StageDemand::pre_only(0.001),
                StageDemand::split(0.028),
                StageDemand::pre_only(0.007),
            ],
            vec![1, 1, 2],
            3,
        )
    }

    #[test]
    fn profile_accessors() {
        let p = profile();
        assert_eq!(p.tiers(), 3);
        assert_eq!(p.class(), 3);
        assert_eq!(p.demand(1).pre, 0.014);
        assert_eq!(p.demand(1).post, 0.014);
        assert_eq!(p.visits_to(2), 2);
    }

    #[test]
    fn cumulative_visits_multiply_along_chain() {
        let p = RequestProfile::new(
            vec![
                StageDemand::pre_only(0.0),
                StageDemand::pre_only(0.0),
                StageDemand::pre_only(0.0),
            ],
            vec![1, 3, 2],
            0,
        );
        assert_eq!(p.cumulative_visits(0), 1);
        assert_eq!(p.cumulative_visits(1), 3);
        assert_eq!(p.cumulative_visits(2), 6);
    }

    #[test]
    fn per_visit_demands_override_by_global_visit() {
        let d = |x: f64| StageDemand::pre_only(x);
        let mut p = RequestProfile::new(
            vec![d(0.001), StageDemand::split(0.02), d(0.005)],
            vec![1, 2, 2],
            0,
        );
        p.set_per_visit_demands(1, [d(0.1), d(0.2)]);
        p.set_per_visit_demands(2, [d(1.0), d(2.0), d(3.0), d(4.0)]);
        assert_eq!(p.demand_for_visit(0, 0), d(0.001));
        assert_eq!(p.demand_for_visit(1, 1), d(0.2));
        assert_eq!(p.demand_for_visit(2, 3), d(4.0));
    }

    #[test]
    #[should_panic(expected = "increasing tier order")]
    fn per_visit_demands_out_of_tier_order_panic() {
        let d = StageDemand::pre_only(0.1);
        let mut p = RequestProfile::new(vec![d; 3], vec![1, 2, 2], 0);
        p.set_per_visit_demands(2, [d; 4]);
        p.set_per_visit_demands(1, [d; 2]);
    }

    #[test]
    #[should_panic(expected = "once per tier")]
    fn per_visit_demands_twice_for_one_tier_panic() {
        let d = StageDemand::pre_only(0.1);
        let mut p = RequestProfile::new(vec![d; 3], vec![1, 2, 2], 0);
        p.set_per_visit_demands(1, [d; 2]);
        p.set_per_visit_demands(1, [d; 2]);
    }

    #[test]
    fn new_reusing_overwrites_every_field() {
        // The in-place constructor keeps nothing of its spare: neither its
        // route nor its per-visit demands.
        let graph = Rc::new(TopologyGraph::from_edges(
            3,
            &[(0, 1, 1), (0, 2, 2), (1, 2, 1)],
        ));
        let mut spare =
            RequestProfile::on_route_reusing(None, [StageDemand::pre_only(0.1); 3], &graph, 9);
        spare.set_per_visit_demands(2, vec![StageDemand::pre_only(0.3); 3]);
        let demands = [StageDemand::pre_only(0.001), StageDemand::split(0.02)];
        let chain = Rc::new(TopologyGraph::chain(&[1, 3]));
        let reused = RequestProfile::on_route_reusing(Some(spare), demands, &chain, 4);
        let fresh = RequestProfile::new(demands.to_vec(), vec![1, 3], 4);
        assert_eq!(reused, fresh);
        assert_eq!(format!("{reused:?}"), format!("{fresh:?}"));
        assert!(std::ptr::eq(reused.graph(), &*chain), "the route is shared");
        assert_eq!(
            Rc::strong_count(&graph),
            1,
            "the spare's old route is dropped"
        );
        assert_eq!(reused.cumulative_visits(1), 3);
    }

    #[test]
    #[should_panic(expected = "exactly one front-tier call")]
    fn front_tier_visits_must_be_one() {
        let _ = RequestProfile::new(vec![StageDemand::pre_only(0.0)], vec![2], 0);
    }

    #[test]
    #[should_panic(expected = "same tiers")]
    fn mismatched_lengths_rejected() {
        let _ = RequestProfile::new(vec![StageDemand::pre_only(0.0)], vec![1, 1], 0);
    }

    #[test]
    fn completion_response_time() {
        let c = Completion {
            id: RequestId::new(1),
            class: 0,
            submitted: SimTime::from_secs(1),
            finished: SimTime::from_secs(3),
            outcome: Outcome::Completed,
        };
        assert_eq!(c.response_time(), SimDuration::from_secs(2));
        assert!(c.is_success());
        let r = Completion {
            outcome: Outcome::Rejected { at_tier: 1 },
            ..c
        };
        assert!(!r.is_success());
    }

    #[test]
    fn arriving_frame_defaults() {
        let f = Frame::arriving(2, ServerId::new(5), SimTime::from_secs(3), 1);
        assert_eq!(f.phase, Phase::AwaitThread);
        assert_eq!(f.calls_done, 0);
        assert_eq!(f.visit, 1);
        assert!(!f.holds_conn);
        assert_eq!(f.arrived_at, SimTime::from_secs(3));
    }
}
