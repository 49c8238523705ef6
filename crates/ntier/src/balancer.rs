//! Load balancing across the servers of a scalable tier (the HAProxy role
//! in the paper's deployment).

use rand::Rng;

use dcm_sim::rng::SimRng;

use crate::ids::ServerId;

/// Balancing policy for one tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalancerPolicy {
    /// Cycle through servers in order (HAProxy `roundrobin`, the paper's
    /// configuration).
    RoundRobin,
    /// Send to the server with the fewest in-use threads (HAProxy
    /// `leastconn`).
    LeastConnections,
    /// Uniform random choice.
    Random,
}

/// Stateful balancer for one tier.
///
/// # Examples
///
/// ```
/// use dcm_ntier::balancer::{Balancer, BalancerPolicy};
/// use dcm_ntier::ids::ServerId;
/// use dcm_sim::rng::SimRng;
///
/// let mut lb = Balancer::new(BalancerPolicy::RoundRobin);
/// let mut rng = SimRng::seed_from(1);
/// let candidates = [(ServerId::new(0), 5), (ServerId::new(1), 0)];
/// let a = lb.choose(&candidates, &mut rng).unwrap();
/// let b = lb.choose(&candidates, &mut rng).unwrap();
/// assert_ne!(a, b); // round-robin alternates
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Balancer {
    policy: BalancerPolicy,
    cursor: usize,
}

impl Balancer {
    /// Creates a balancer with the given policy.
    pub fn new(policy: BalancerPolicy) -> Self {
        Balancer { policy, cursor: 0 }
    }

    /// The active policy.
    pub fn policy(&self) -> BalancerPolicy {
        self.policy
    }

    /// Picks a server among `candidates`, given as `(id, current load)`
    /// pairs of **routable** (running) servers. Returns `None` when the
    /// slice is empty.
    pub fn choose(&mut self, candidates: &[(ServerId, u32)], rng: &mut SimRng) -> Option<ServerId> {
        if candidates.is_empty() {
            return None;
        }
        let idx = match self.policy {
            BalancerPolicy::RoundRobin => {
                let i = self.cursor % candidates.len();
                self.cursor = self.cursor.wrapping_add(1);
                i
            }
            BalancerPolicy::LeastConnections => {
                // Stable tie-break on lowest index keeps runs deterministic.
                candidates
                    .iter()
                    .enumerate()
                    .min_by_key(|&(i, &(_, load))| (load, i))
                    .map(|(i, _)| i)
                    .expect("non-empty checked above")
            }
            BalancerPolicy::Random => rng.gen_range(0..candidates.len()),
        };
        Some(candidates[idx].0)
    }

    /// Picks an index into a routable list of `len` candidates without
    /// materializing the `(id, load)` slice — the fleet-scale fast path for
    /// policies that never look at per-server load. Draws from `rng` (and
    /// advances the round-robin cursor) exactly as [`Balancer::choose`]
    /// would over a slice of the same length, so the two are
    /// pick-for-pick identical.
    ///
    /// # Panics
    ///
    /// Panics for [`BalancerPolicy::LeastConnections`], which needs the
    /// per-server loads of [`Balancer::choose`].
    pub fn choose_index(&mut self, len: usize, rng: &mut SimRng) -> Option<usize> {
        if len == 0 {
            return None;
        }
        Some(match self.policy {
            BalancerPolicy::RoundRobin => {
                let i = self.cursor % len;
                self.cursor = self.cursor.wrapping_add(1);
                i
            }
            BalancerPolicy::Random => rng.gen_range(0..len),
            BalancerPolicy::LeastConnections => {
                panic!("LeastConnections needs per-server loads; use Balancer::choose")
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u64) -> ServerId {
        ServerId::new(n)
    }

    fn rng() -> SimRng {
        SimRng::seed_from(7)
    }

    #[test]
    fn round_robin_cycles_evenly() {
        let mut lb = Balancer::new(BalancerPolicy::RoundRobin);
        let mut rng = rng();
        let c = [(s(0), 0), (s(1), 0), (s(2), 0)];
        let picks: Vec<ServerId> = (0..6).map(|_| lb.choose(&c, &mut rng).unwrap()).collect();
        assert_eq!(picks, vec![s(0), s(1), s(2), s(0), s(1), s(2)]);
    }

    #[test]
    fn round_robin_adapts_to_membership_changes() {
        let mut lb = Balancer::new(BalancerPolicy::RoundRobin);
        let mut rng = rng();
        let three = [(s(0), 0), (s(1), 0), (s(2), 0)];
        lb.choose(&three, &mut rng);
        lb.choose(&three, &mut rng);
        // Shrink to two servers; cursor keeps cycling without panic.
        let two = [(s(0), 0), (s(1), 0)];
        let picks: Vec<ServerId> = (0..4).map(|_| lb.choose(&two, &mut rng).unwrap()).collect();
        assert!(picks.iter().all(|p| *p == s(0) || *p == s(1)));
        assert!(picks.windows(2).all(|w| w[0] != w[1]), "still alternates");
    }

    #[test]
    fn least_connections_prefers_idle() {
        let mut lb = Balancer::new(BalancerPolicy::LeastConnections);
        let mut rng = rng();
        let c = [(s(0), 10), (s(1), 2), (s(2), 7)];
        assert_eq!(lb.choose(&c, &mut rng), Some(s(1)));
        // Ties break on first.
        let tied = [(s(5), 3), (s(6), 3)];
        assert_eq!(lb.choose(&tied, &mut rng), Some(s(5)));
    }

    #[test]
    fn random_covers_all_candidates() {
        let mut lb = Balancer::new(BalancerPolicy::Random);
        let mut rng = rng();
        let c = [(s(0), 0), (s(1), 0), (s(2), 0)];
        let mut seen = [false; 3];
        for _ in 0..100 {
            let pick = lb.choose(&c, &mut rng).unwrap();
            seen[pick.raw() as usize] = true;
        }
        assert_eq!(seen, [true, true, true]);
    }

    #[test]
    fn empty_candidates_yield_none() {
        let mut lb = Balancer::new(BalancerPolicy::RoundRobin);
        assert_eq!(lb.choose(&[], &mut rng()), None);
        assert_eq!(lb.choose_index(0, &mut rng()), None);
    }

    #[test]
    fn choose_index_matches_choose_pick_for_pick() {
        for policy in [BalancerPolicy::RoundRobin, BalancerPolicy::Random] {
            let candidates: Vec<(ServerId, u32)> = (0..7).map(|i| (s(i), 0)).collect();
            let mut slow = Balancer::new(policy);
            let mut fast = Balancer::new(policy);
            let mut rng_slow = rng();
            let mut rng_fast = rng();
            for _ in 0..100 {
                let a = slow.choose(&candidates, &mut rng_slow).unwrap();
                let i = fast.choose_index(candidates.len(), &mut rng_fast).unwrap();
                assert_eq!(a, candidates[i].0, "{policy:?} diverged");
            }
        }
    }
}
