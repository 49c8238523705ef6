//! The two-level actuator (paper §IV-A/§IV-B): VM-agent for hardware
//! scaling, APP-agent for runtime soft-resource re-allocation.

use dcm_ntier::flow;
use dcm_ntier::ids::ServerId;
use dcm_ntier::world::{SimEngine, World};
use dcm_sim::time::SimTime;

/// One actuation, for the experiment timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// A VM was launched in `tier`.
    ScaleOut {
        /// Tier index.
        tier: usize,
    },
    /// A VM began draining in `tier`.
    ScaleIn {
        /// Tier index.
        tier: usize,
    },
    /// Every server in `tier` had its thread pool set to `size`.
    SetThreadPools {
        /// Tier index.
        tier: usize,
        /// New per-server pool size.
        size: u32,
    },
    /// Every server in `tier` had its downstream connection pool set to
    /// `size`.
    SetConnPools {
        /// Tier index.
        tier: usize,
        /// New per-server pool size.
        size: u32,
    },
}

/// A timestamped actuation record.
#[derive(Debug, Clone, PartialEq)]
pub struct ActionRecord {
    /// When the action was taken.
    pub at: SimTime,
    /// What was done.
    pub action: Action,
}

/// VM-agent: boots and drains VMs through the hypervisor API
/// ([`flow::provision_server`] / [`flow::decommission_one`]).
#[derive(Debug, Default)]
pub struct VmAgent {
    log: Vec<ActionRecord>,
}

impl VmAgent {
    /// Creates an agent with an empty action log.
    pub fn new() -> Self {
        VmAgent { log: Vec::new() }
    }

    /// Launches one VM in `tier` (15-second preparation applies). Returns
    /// the new server id, or `None` if the tier does not exist.
    pub fn scale_out(
        &mut self,
        world: &mut World,
        engine: &mut SimEngine,
        tier: usize,
    ) -> Option<ServerId> {
        match flow::provision_server(world, engine, tier) {
            Ok(sid) => {
                self.log.push(ActionRecord {
                    at: engine.now(),
                    action: Action::ScaleOut { tier },
                });
                Some(sid)
            }
            Err(_) => None,
        }
    }

    /// Drains one VM from `tier`. Returns the draining server id, or
    /// `None` if the tier is already at its last server.
    pub fn scale_in(
        &mut self,
        world: &mut World,
        engine: &mut SimEngine,
        tier: usize,
    ) -> Option<ServerId> {
        match flow::decommission_one(world, engine, tier) {
            Ok(sid) => {
                self.log.push(ActionRecord {
                    at: engine.now(),
                    action: Action::ScaleIn { tier },
                });
                Some(sid)
            }
            Err(_) => None,
        }
    }

    /// The actuation timeline.
    pub fn log(&self) -> &[ActionRecord] {
        &self.log
    }
}

/// APP-agent: adjusts thread/connection pools of a whole tier at runtime.
/// Re-applying an unchanged size is a no-op (not logged), so the controller
/// can call it idempotently every period.
#[derive(Debug, Default)]
pub struct AppAgent {
    log: Vec<ActionRecord>,
    current_threads: std::collections::BTreeMap<usize, u32>,
    current_conns: std::collections::BTreeMap<usize, u32>,
}

impl AppAgent {
    /// Creates an agent with an empty action log.
    pub fn new() -> Self {
        AppAgent::default()
    }

    /// Sets every server of `tier` to `size` threads (and makes `size` the
    /// default for future servers of the tier). No-op if `size` is already
    /// in effect. Returns whether the pools changed.
    pub fn set_tier_threads(
        &mut self,
        world: &mut World,
        engine: &mut SimEngine,
        tier: usize,
        size: u32,
    ) -> bool {
        if self.current_threads.get(&tier) == Some(&size)
            || flow::set_tier_thread_pools(world, engine, tier, size).is_err()
        {
            return false;
        }
        world.system.set_tier_defaults(tier, size, None);
        self.current_threads.insert(tier, size);
        self.log.push(ActionRecord {
            at: engine.now(),
            action: Action::SetThreadPools { tier, size },
        });
        true
    }

    /// Sets every server of `tier` to `size` downstream connections (and
    /// updates the tier default). No-op if already in effect. Returns
    /// whether the pools changed.
    pub fn set_tier_conns(
        &mut self,
        world: &mut World,
        engine: &mut SimEngine,
        tier: usize,
        size: u32,
    ) -> bool {
        if self.current_conns.get(&tier) == Some(&size)
            || flow::set_tier_conn_pools(world, engine, tier, size).is_err()
        {
            return false;
        }
        let threads = world.system.tier(tier).spec().default_threads;
        world.system.set_tier_defaults(tier, threads, Some(size));
        self.current_conns.insert(tier, size);
        self.log.push(ActionRecord {
            at: engine.now(),
            action: Action::SetConnPools { tier, size },
        });
        true
    }

    /// The actuation timeline.
    pub fn log(&self) -> &[ActionRecord] {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcm_ntier::topology::ThreeTierBuilder;
    use dcm_sim::time::SimTime;

    #[test]
    fn vm_agent_logs_scaling() {
        let (mut world, mut engine) = ThreeTierBuilder::new().build();
        let mut agent = VmAgent::new();
        let sid = agent.scale_out(&mut world, &mut engine, 1);
        assert!(sid.is_some());
        assert_eq!(agent.log().len(), 1);
        // Scale-in of the last routable server is refused and not logged.
        assert!(agent.scale_in(&mut world, &mut engine, 2).is_none());
        assert_eq!(agent.log().len(), 1);
        engine.run_until(&mut world, SimTime::from_secs(16));
        assert!(agent.scale_in(&mut world, &mut engine, 1).is_some());
        assert_eq!(agent.log().len(), 2);
    }

    #[test]
    fn app_agent_is_idempotent_and_updates_defaults() {
        let (mut world, mut engine) = ThreeTierBuilder::new().build();
        let mut agent = AppAgent::new();
        agent.set_tier_threads(&mut world, &mut engine, 1, 20);
        agent.set_tier_threads(&mut world, &mut engine, 1, 20);
        agent.set_tier_conns(&mut world, &mut engine, 1, 36);
        agent.set_tier_conns(&mut world, &mut engine, 1, 36);
        assert_eq!(agent.log().len(), 2, "repeats are no-ops");
        let spec = world.system.tier(1).spec();
        assert_eq!(spec.default_threads, 20);
        assert_eq!(spec.default_conns, Some(36));
        // Live server resized too.
        let sid = world.system.tier(1).members()[0];
        let server = world.system.server(sid).unwrap();
        assert_eq!(server.thread_pool().capacity(), 20);
        assert_eq!(server.conn_pool().unwrap().capacity(), 36);
    }

    #[test]
    fn app_agent_ignores_bad_tier() {
        let (mut world, mut engine) = ThreeTierBuilder::new().build();
        let mut agent = AppAgent::new();
        agent.set_tier_threads(&mut world, &mut engine, 9, 20);
        assert!(agent.log().is_empty());
    }
}
