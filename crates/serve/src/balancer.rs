//! Pluggable load balancers for the multi-replica frontend.

use serde::{Deserialize, Serialize};

/// Which policy the frontend uses to route an arriving request to a replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BalancerPolicy {
    /// Cycle through replicas in arrival order.
    RoundRobin,
    /// Route to the replica with the fewest requests (queued + running).
    JoinShortestQueue,
    /// Route to the replica with the fewest outstanding tokens (prompt tokens still
    /// to prefill plus output tokens still to decode).
    LeastOutstandingTokens,
}

impl BalancerPolicy {
    /// All policies, in presentation order.
    pub fn all() -> [BalancerPolicy; 3] {
        [
            BalancerPolicy::RoundRobin,
            BalancerPolicy::JoinShortestQueue,
            BalancerPolicy::LeastOutstandingTokens,
        ]
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            BalancerPolicy::RoundRobin => "round-robin",
            BalancerPolicy::JoinShortestQueue => "join-shortest-queue",
            BalancerPolicy::LeastOutstandingTokens => "least-outstanding-tokens",
        }
    }
}

/// A replica's load as observed by the balancer at dispatch time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct ReplicaLoad {
    /// Requests waiting in the admission queue.
    pub queued: usize,
    /// Requests currently running (prefilled or prefilling).
    pub running: usize,
    /// Prompt tokens still to prefill plus output tokens still to decode.
    pub outstanding_tokens: u64,
}

impl ReplicaLoad {
    /// Total requests on the replica.
    pub fn total_requests(&self) -> usize {
        self.queued + self.running
    }
}

/// Stateful dispatcher implementing a [`BalancerPolicy`].
#[derive(Debug, Clone)]
pub struct LoadBalancer {
    policy: BalancerPolicy,
    rr_next: usize,
}

impl LoadBalancer {
    /// Creates a balancer with the given policy.
    pub fn new(policy: BalancerPolicy) -> Self {
        LoadBalancer { policy, rr_next: 0 }
    }

    /// The policy in use.
    pub fn policy(&self) -> BalancerPolicy {
        self.policy
    }

    /// Picks the replica index for the next request. Ties are broken by the lowest
    /// index so routing is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `loads` is empty.
    pub fn pick(&mut self, loads: &[ReplicaLoad]) -> usize {
        self.pick_among(loads.len(), loads.iter().copied().enumerate())
            .expect("need at least one replica")
    }

    /// Picks among the eligible replicas only, given as `(index, load)` pairs
    /// in ascending index order out of a fleet of `replicas`: a replica that is
    /// not listed (crashed, draining, still warming up) is invisible to this
    /// dispatch. Round-robin advances past unlisted slots (and keeps its cursor
    /// moving, so routing stays deterministic across crash/restart sequences);
    /// the load-based policies take their minimum over the listed pairs, ties
    /// to the lowest index. `None` when nothing is eligible (the cursor stays
    /// where it was).
    pub fn pick_among(
        &mut self,
        replicas: usize,
        eligible: impl IntoIterator<Item = (usize, ReplicaLoad)>,
    ) -> Option<usize> {
        let eligible = eligible.into_iter();
        match self.policy {
            BalancerPolicy::RoundRobin => {
                // The first listed slot at or after the cursor, else (wrapping
                // around) the first listed slot of all.
                let cursor = self.rr_next % replicas.max(1);
                let mut first = None;
                let mut at_or_after = None;
                for (i, _) in eligible {
                    first.get_or_insert(i);
                    if i >= cursor {
                        at_or_after = Some(i);
                        break;
                    }
                }
                let idx = at_or_after.or(first)?;
                self.rr_next = (idx + 1) % replicas;
                Some(idx)
            }
            BalancerPolicy::JoinShortestQueue => eligible
                .min_by_key(|(i, l)| (l.total_requests(), *i))
                .map(|(i, _)| i),
            BalancerPolicy::LeastOutstandingTokens => eligible
                .min_by_key(|(i, l)| (l.outstanding_tokens, *i))
                .map(|(i, _)| i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(queued: usize, running: usize, tokens: u64) -> ReplicaLoad {
        ReplicaLoad {
            queued,
            running,
            outstanding_tokens: tokens,
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut lb = LoadBalancer::new(BalancerPolicy::RoundRobin);
        let loads = vec![ReplicaLoad::default(); 3];
        assert_eq!(
            (0..6).map(|_| lb.pick(&loads)).collect::<Vec<_>>(),
            vec![0, 1, 2, 0, 1, 2]
        );
    }

    #[test]
    fn jsq_picks_fewest_requests_with_low_index_ties() {
        let mut lb = LoadBalancer::new(BalancerPolicy::JoinShortestQueue);
        assert_eq!(lb.pick(&[load(2, 2, 0), load(0, 3, 0), load(4, 0, 0)]), 1);
        // Tie between 0 and 2 resolves to 0.
        assert_eq!(lb.pick(&[load(1, 1, 0), load(2, 1, 0), load(0, 2, 0)]), 0);
    }

    #[test]
    fn least_outstanding_tokens_ignores_request_counts() {
        let mut lb = LoadBalancer::new(BalancerPolicy::LeastOutstandingTokens);
        // Replica 1 has many small requests; replica 0 one huge request.
        assert_eq!(lb.pick(&[load(0, 1, 50_000), load(5, 5, 2_000)]), 1);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn empty_loads_panic() {
        LoadBalancer::new(BalancerPolicy::RoundRobin).pick(&[]);
    }

    #[test]
    fn pick_among_skips_ineligible_replicas() {
        let loads = vec![ReplicaLoad::default(); 3];
        // Round-robin keeps cycling but never lands on the down replica, and
        // resumes including it once it is back.
        let mut rr = LoadBalancer::new(BalancerPolicy::RoundRobin);
        let up = [(0, loads[0]), (2, loads[2])];
        let picks: Vec<Option<usize>> = (0..4).map(|_| rr.pick_among(3, up)).collect();
        assert_eq!(picks, vec![Some(0), Some(2), Some(0), Some(2)]);
        let resumed: Vec<usize> = (0..3).map(|_| rr.pick(&loads)).collect();
        assert_eq!(resumed, vec![0, 1, 2], "restart rejoins the rotation");

        // Load-based policies take their minimum over the listed pairs only.
        let mut jsq = LoadBalancer::new(BalancerPolicy::JoinShortestQueue);
        assert_eq!(
            jsq.pick_among(3, [(1, load(5, 5, 0)), (2, load(1, 1, 0))]),
            Some(2)
        );
        let mut lot = LoadBalancer::new(BalancerPolicy::LeastOutstandingTokens);
        assert_eq!(
            lot.pick_among(3, [(1, load(0, 0, 50)), (2, load(0, 0, 90))]),
            Some(1)
        );
    }

    /// The single-pass round-robin against the slot-by-slot cursor walk it
    /// replaced, over every eligibility mask of a five-replica fleet.
    #[test]
    fn round_robin_matches_the_slot_by_slot_cursor_walk() {
        let n = 5;
        let mut lb = LoadBalancer::new(BalancerPolicy::RoundRobin);
        let mut cursor = 0usize;
        for step in 0..200usize {
            let mask = (step * 7 + 3) % (1 << n);
            let listed = (0..n)
                .filter(|i| mask >> i & 1 == 1)
                .map(|i| (i, ReplicaLoad::default()));
            let mut expected = None;
            for _ in 0..n {
                let idx = cursor;
                if mask >> idx & 1 == 1 {
                    cursor = (cursor + 1) % n;
                    expected = Some(idx);
                    break;
                }
                cursor = (cursor + 1) % n;
            }
            assert_eq!(lb.pick_among(n, listed), expected, "mask {mask:05b}");
        }
    }

    #[test]
    fn nothing_eligible_picks_nothing_and_keeps_the_cursor() {
        let mut rr = LoadBalancer::new(BalancerPolicy::RoundRobin);
        assert_eq!(rr.pick(&[ReplicaLoad::default(); 2]), 0);
        assert_eq!(rr.pick_among(2, []), None);
        assert_eq!(rr.pick(&[ReplicaLoad::default(); 2]), 1);
        for policy in BalancerPolicy::all() {
            assert_eq!(LoadBalancer::new(policy).pick_among(4, []), None);
        }
    }
}
