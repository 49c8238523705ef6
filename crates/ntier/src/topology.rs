//! World construction. [`MeshBuilder`] builds any microservice DAG, one
//! [`MeshNode`] per tier; [`ThreeTierBuilder`] is its preset for the
//! paper's RUBBoS-style three-tier chain (`#W/#A/#D` hardware notation,
//! `#W_T/#A_T/#A_C` soft-resource notation), with the optional four-tier
//! DB load balancer.

use dcm_sim::time::SimDuration;

use crate::balancer::BalancerPolicy;
use crate::law::{reference, ServiceLaw};
use crate::system::{System, TierSpec, VmPolicy};
use crate::world::{SimEngine, World};

/// The paper's soft-resource triple: Apache thread pool, Tomcat thread
/// pool, Tomcat→MySQL connection pool (e.g. the default `1000-100-80`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftConfig {
    /// Apache (web tier) thread-pool size, `#W_T`.
    pub web_threads: u32,
    /// Tomcat (app tier) thread-pool size per server, `#A_T`.
    pub app_threads: u32,
    /// Tomcat DB connection-pool size per server, `#A_C`.
    pub db_conns: u32,
}

impl SoftConfig {
    /// The paper's default allocation `1000-100-80`.
    pub const DEFAULT: SoftConfig = SoftConfig {
        web_threads: 1000,
        app_threads: 100,
        db_conns: 80,
    };

    /// Creates a triple.
    ///
    /// # Panics
    ///
    /// Panics if any pool size is zero.
    pub fn new(web_threads: u32, app_threads: u32, db_conns: u32) -> Self {
        assert!(
            web_threads > 0 && app_threads > 0 && db_conns > 0,
            "pool sizes must be positive"
        );
        SoftConfig {
            web_threads,
            app_threads,
            db_conns,
        }
    }
}

impl Default for SoftConfig {
    fn default() -> Self {
        SoftConfig::DEFAULT
    }
}

/// Builder for a three-tier (web/app/db) world.
///
/// # Examples
///
/// ```
/// use dcm_ntier::topology::{SoftConfig, ThreeTierBuilder};
///
/// // The paper's 1/2/1 scale-out with the default soft allocation.
/// let (world, engine) = ThreeTierBuilder::new()
///     .counts(1, 2, 1)
///     .soft(SoftConfig::DEFAULT)
///     .seed(42)
///     .build();
/// assert_eq!(world.system.running_count(1), 2);
/// drop((world, engine));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ThreeTierBuilder {
    web: u32,
    app: u32,
    db: u32,
    soft: SoftConfig,
    balancer: BalancerPolicy,
    seed: u64,
    db_load_balancer: bool,
}

impl Default for ThreeTierBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ThreeTierBuilder {
    /// Starts from the paper's baseline: `1/1/1` hardware, `1000-100-80`
    /// soft resources, Table I ground-truth laws, round-robin balancing,
    /// 15-second VM preparation.
    pub fn new() -> Self {
        ThreeTierBuilder {
            web: 1,
            app: 1,
            db: 1,
            soft: SoftConfig::DEFAULT,
            balancer: BalancerPolicy::RoundRobin,
            seed: 1,
            db_load_balancer: false,
        }
    }

    /// Sets the `#W/#A/#D` server counts.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero.
    pub fn counts(mut self, web: u32, app: u32, db: u32) -> Self {
        assert!(web > 0 && app > 0 && db > 0, "tier counts must be positive");
        self.web = web;
        self.app = app;
        self.db = db;
        self
    }

    /// Sets the soft-resource triple.
    pub fn soft(mut self, soft: SoftConfig) -> Self {
        self.soft = soft;
        self
    }

    /// Sets the balancing policy for the scalable tiers.
    pub fn balancer(mut self, policy: BalancerPolicy) -> Self {
        self.balancer = policy;
        self
    }

    /// Sets the world RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Inserts the paper's optional fourth tier: an HAProxy load-balancer
    /// tier in front of the databases (the "four-tier" RUBBoS deployment
    /// of Fig. 1). The LB is a cheap pass-through; queries still fan out
    /// over the DB servers, and the app tier's connection pool still caps
    /// DB concurrency. Workloads must then use four-tier request profiles
    /// (e.g. `ProfileFactory::rubbos_four_tier`).
    pub fn with_db_load_balancer(mut self) -> Self {
        self.db_load_balancer = true;
        self
    }

    /// The chain's nodes in tier order: web, app (with its downstream
    /// connection pool), the optional lb node, and db.
    pub fn nodes(&self) -> Vec<MeshNode> {
        let mut nodes = vec![
            MeshNode::new("web", reference::apache(), self.soft.web_threads).count(self.web),
            MeshNode::new("app", reference::tomcat(), self.soft.app_threads)
                .conns(self.soft.db_conns)
                .count(self.app),
        ];
        if self.db_load_balancer {
            // HAProxy forwards in O(100 µs) with negligible contention.
            let law = ServiceLaw::new(1.0e-4, 1.0e-6, 1.0e-10);
            nodes.push(MeshNode::new("lb", law, 4096));
        }
        // MySQL max_connections: high enough that the *upstream* connection
        // pool is what actually caps DB concurrency, as in the paper's
        // deployment.
        nodes.push(MeshNode::new("db", reference::mysql(), 800).count(self.db));
        nodes
    }

    /// Builds the world and a fresh engine: the [`MeshBuilder`] over
    /// [`ThreeTierBuilder::nodes`], with the mesh's 15-second VM
    /// preparation.
    pub fn build(&self) -> (World, SimEngine) {
        self.nodes()
            .into_iter()
            .fold(MeshBuilder::new(), MeshBuilder::node)
            .balancer(self.balancer)
            .seed(self.seed)
            .build()
    }
}

/// One tier of a [`MeshBuilder`] deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshNode {
    /// Display name (e.g. `"svc-a"`, `"cache"`).
    pub name: String,
    /// Multi-threading law for the node's servers.
    pub law: ServiceLaw,
    /// Thread-pool size per server.
    pub threads: u32,
    /// Downstream connection-pool size per server, if the node pools its
    /// outbound calls.
    pub conns: Option<u32>,
    /// Initial server count.
    pub count: u32,
    /// VM catalogue and selection rule for servers of this tier.
    pub vm_policy: VmPolicy,
}

impl MeshNode {
    /// A node with the given name, law, thread pool, and one server on the
    /// default (homogeneous `m1.small`) VM policy.
    pub fn new(name: impl Into<String>, law: ServiceLaw, threads: u32) -> Self {
        assert!(threads > 0, "pool sizes must be positive");
        MeshNode {
            name: name.into(),
            law,
            threads,
            conns: None,
            count: 1,
            vm_policy: VmPolicy::default(),
        }
    }

    /// Sets the outbound connection-pool size.
    pub fn conns(mut self, conns: u32) -> Self {
        assert!(conns > 0, "pool sizes must be positive");
        self.conns = Some(conns);
        self
    }

    /// Sets the initial server count.
    pub fn count(mut self, count: u32) -> Self {
        assert!(count > 0, "tier counts must be positive");
        self.count = count;
        self
    }

    /// Sets the VM policy (catalogue + selection rule) for this tier.
    pub fn vm_policy(mut self, policy: VmPolicy) -> Self {
        self.vm_policy = policy;
        self
    }
}

/// Builder for an arbitrary microservice-DAG world: one [`MeshNode`] per
/// tier, with the call structure supplied per request by its profile's
/// [`TopologyGraph`](crate::graph::TopologyGraph). Every world is built
/// here: [`ThreeTierBuilder`] is the chain preset, and the `repro mesh`
/// scenarios add fan-out services, cache tiers and heterogeneous VM types.
///
/// # Examples
///
/// ```
/// use dcm_ntier::law::reference;
/// use dcm_ntier::topology::{MeshBuilder, MeshNode};
///
/// let (world, engine) = MeshBuilder::new()
///     .node(MeshNode::new("web", reference::apache(), 1000))
///     .node(MeshNode::new("app", reference::tomcat(), 100).conns(80).count(2))
///     .node(MeshNode::new("db", reference::mysql(), 800))
///     .seed(42)
///     .build();
/// assert_eq!(world.system.tier_count(), 3);
/// assert_eq!(world.system.running_count(1), 2);
/// drop((world, engine));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MeshBuilder {
    nodes: Vec<MeshNode>,
    balancer: BalancerPolicy,
    boot_delay: SimDuration,
    seed: u64,
}

impl Default for MeshBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl MeshBuilder {
    /// Starts an empty mesh with round-robin balancing and the 15-second
    /// VM preparation delay.
    pub fn new() -> Self {
        MeshBuilder {
            nodes: Vec::new(),
            balancer: BalancerPolicy::RoundRobin,
            boot_delay: SimDuration::from_secs(15),
            seed: 1,
        }
    }

    /// Appends a tier. Tier indices follow insertion order; the entry tier
    /// is the first node added.
    pub fn node(mut self, node: MeshNode) -> Self {
        self.nodes.push(node);
        self
    }

    /// Sets the balancing policy for every tier.
    pub fn balancer(mut self, policy: BalancerPolicy) -> Self {
        self.balancer = policy;
        self
    }

    /// Sets the VM preparation period.
    pub fn boot_delay(mut self, delay: SimDuration) -> Self {
        self.boot_delay = delay;
        self
    }

    /// Sets the world RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The tier specs this builder would install.
    pub fn tier_specs(&self) -> Vec<TierSpec> {
        let mut specs = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            specs.push(TierSpec {
                name: node.name.clone(),
                law: node.law,
                default_threads: node.threads,
                default_conns: node.conns,
                balancer: self.balancer,
                boot_delay: self.boot_delay,
                vm_policy: node.vm_policy.clone(),
            });
        }
        specs
    }

    /// Builds the world and a fresh engine.
    ///
    /// # Panics
    ///
    /// Panics if no nodes were added.
    pub fn build(&self) -> (World, SimEngine) {
        assert!(!self.nodes.is_empty(), "mesh needs at least one node");
        let counts: Vec<u32> = self.nodes.iter().map(|n| n.count).collect();
        let system = System::new(self.tier_specs(), &counts, dcm_sim::time::SimTime::ZERO);
        (World::new(system, self.seed), SimEngine::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_baseline() {
        let (world, _engine) = ThreeTierBuilder::new().build();
        assert_eq!(world.system.tier_count(), 3);
        assert_eq!(world.system.running_count(0), 1);
        assert_eq!(world.system.running_count(1), 1);
        assert_eq!(world.system.running_count(2), 1);
        let app = world.system.tier(1);
        assert_eq!(app.spec().default_threads, 100);
        assert_eq!(app.spec().default_conns, Some(80));
    }

    #[test]
    fn soft_config_applies_to_servers() {
        let (world, _engine) = ThreeTierBuilder::new()
            .soft(SoftConfig::new(500, 20, 18))
            .counts(1, 2, 1)
            .build();
        for &sid in world.system.tier(1).members() {
            let s = world.system.server(sid).unwrap();
            assert_eq!(s.thread_pool().capacity(), 20);
            assert_eq!(s.conn_pool().unwrap().capacity(), 18);
        }
        let web = world.system.tier(0).members()[0];
        assert_eq!(
            world.system.server(web).unwrap().thread_pool().capacity(),
            500
        );
    }

    #[test]
    fn four_tier_inserts_lb() {
        let (world, _engine) = ThreeTierBuilder::new()
            .counts(1, 2, 2)
            .with_db_load_balancer()
            .build();
        assert_eq!(world.system.tier_count(), 4);
        assert_eq!(world.system.tier(2).spec().name, "lb");
        assert_eq!(world.system.running_count(2), 1);
        assert_eq!(world.system.running_count(3), 2);
    }

    #[test]
    #[should_panic(expected = "pool sizes must be positive")]
    fn zero_soft_config_rejected() {
        let _ = SoftConfig::new(0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "tier counts must be positive")]
    fn zero_counts_rejected() {
        let _ = ThreeTierBuilder::new().counts(1, 0, 1);
    }

    fn chain_mesh(three: &ThreeTierBuilder) -> MeshBuilder {
        MeshBuilder::new()
            .node(MeshNode::new("web", reference::apache(), 1000))
            .node(
                MeshNode::new("app", reference::tomcat(), 100)
                    .conns(80)
                    .count(2),
            )
            .node(MeshNode::new("db", reference::mysql(), 800))
            .seed(7)
            .balancer(three.balancer)
    }

    #[test]
    fn chain_shaped_mesh_specs_match_three_tier_builder() {
        // The chain preset must install the *same* tier specs as a mesh
        // configured by hand as the paper's chain.
        let three = ThreeTierBuilder::new().counts(1, 2, 1).seed(7);
        let mesh = chain_mesh(&three);
        let (mw, _me) = mesh.build();
        let (tw, _te) = three.build();
        assert_eq!(mw.system.tier_count(), tw.system.tier_count());
        for (m, spec) in mesh.tier_specs().iter().enumerate() {
            assert_eq!(tw.system.tier(m).spec(), spec);
            assert_eq!(mw.system.running_count(m), tw.system.running_count(m));
        }
    }

    #[test]
    fn mesh_heterogeneous_vm_policies_take_effect() {
        use crate::server::VmType;
        let (world, _engine) = MeshBuilder::new()
            .node(MeshNode::new("web", reference::apache(), 1000))
            .node(
                MeshNode::new("db", reference::mysql(), 800)
                    .count(2)
                    .vm_policy(VmPolicy::fixed(VmType::LARGE)),
            )
            .build();
        for &sid in world.system.tier(1).members() {
            let s = world.system.server(sid).unwrap();
            assert_eq!(s.vm_type(), VmType::LARGE);
        }
        let web = world.system.tier(0).members()[0];
        assert_eq!(world.system.server(web).unwrap().vm_type(), VmType::SMALL);
    }

    #[test]
    #[should_panic(expected = "mesh needs at least one node")]
    fn empty_mesh_rejected() {
        let _ = MeshBuilder::new().build();
    }
}
