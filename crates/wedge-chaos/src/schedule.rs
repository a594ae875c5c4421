//! Seeded fault schedules: what breaks, when, and whom it hits.
//!
//! A [`ChaosSchedule`] is a plain, inspectable list of [`ScheduledFault`]s
//! — offsets from run start plus a [`Fault`] — generated deterministically
//! from a [`ChaosPlan`] by a [`crate::ChaosRng`] seeded with
//! [`ChaosPlan::seed`]. The replay contract: the same plan (seed
//! included) always generates the identical schedule, so a latency cliff
//! found in run N is reproduced exactly by re-running with run N's seed.

use std::time::Duration;

use crate::rng::ChaosRng;

/// One injectable fault. Victim indices are interpreted by the
/// [`crate::ChaosTarget`] the schedule runs against (shard indices span
/// every front-end the target aggregates, node indices its cache ring).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Kill one shard (queued links re-route; a supervisor revives it).
    KillShard {
        /// Victim shard index.
        shard: usize,
    },
    /// Kill one cache node (its keys re-route; lookups brown out until
    /// the breaker opens).
    CacheKill {
        /// Victim node index.
        node: usize,
    },
    /// Restart one cache node — a no-op if it is up, an epoch bump if a
    /// prior [`Fault::CacheKill`] left it down.
    CacheRestart {
        /// Victim node index.
        node: usize,
    },
    /// Kill one shard every time it comes back, `kills` times or until
    /// the supervisor's storm detector trips and abandons it.
    RestartStorm {
        /// Victim shard index.
        shard: usize,
        /// Upper bound on kills before the storm is called off.
        kills: u32,
    },
    /// A hostile source hammers a listener with `connections` connect
    /// attempts as fast as it can — the token-bucket rate limiter must
    /// absorb it.
    Flood {
        /// Hostile-source ordinal (the target maps it to an address).
        source: usize,
        /// Connect attempts in the burst.
        connections: u32,
    },
    /// Cachenet brownout: kill a node, hold it down for `hold`, then
    /// restart it (epoch bump) — long enough under load to trip the
    /// ring's circuit breaker and exercise the half-open probe path.
    Brownout {
        /// Victim node index.
        node: usize,
        /// How long the node stays down.
        hold: Duration,
    },
}

impl Fault {
    /// Short stable name, used in telemetry audit events and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Fault::KillShard { .. } => "kill_shard",
            Fault::CacheKill { .. } => "cache_kill",
            Fault::CacheRestart { .. } => "cache_restart",
            Fault::RestartStorm { .. } => "restart_storm",
            Fault::Flood { .. } => "flood",
            Fault::Brownout { .. } => "brownout",
        }
    }

    /// The victim index this fault targets.
    pub fn victim(&self) -> usize {
        match self {
            Fault::KillShard { shard } | Fault::RestartStorm { shard, .. } => *shard,
            Fault::CacheKill { node }
            | Fault::CacheRestart { node }
            | Fault::Brownout { node, .. } => *node,
            Fault::Flood { source, .. } => *source,
        }
    }
}

/// A fault plus when (offset from run start) to inject it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Offset from schedule start.
    pub at: Duration,
    /// What breaks.
    pub fault: Fault,
}

/// The generator recipe for a [`ChaosSchedule`]: how many of each fault
/// over what horizon, against how many victims — plus the seed that
/// makes the draw replayable.
#[derive(Debug, Clone, Copy)]
pub struct ChaosPlan {
    /// The replay seed. Same plan + same seed = same schedule, always.
    pub seed: u64,
    /// Schedule horizon; every fault lands inside `[10%, 90%]` of it so
    /// the run has clean warm-up and drain windows.
    pub horizon: Duration,
    /// Shard-victim space (across every front-end the target serves).
    pub shards: usize,
    /// Cache-node-victim space.
    pub cache_nodes: usize,
    /// Hostile-source ordinal space for floods.
    pub flood_sources: usize,
    /// Plain shard kills to schedule.
    pub shard_kills: usize,
    /// Cache-node kill→restart pairs to schedule (each kill is followed
    /// by its restart ~10% of the horizon later: a guaranteed epoch bump).
    pub cache_restarts: usize,
    /// Rate-limit floods to schedule.
    pub floods: usize,
    /// Connect attempts per flood burst.
    pub flood_connections: u32,
    /// Restart storms to schedule.
    pub storms: usize,
    /// Kill budget per storm (must exceed the supervisor's
    /// `storm_threshold` to actually trip the detector).
    pub storm_kills: u32,
    /// Cachenet brownouts to schedule.
    pub brownouts: usize,
    /// How long each brownout holds its node down.
    pub brownout_hold: Duration,
}

impl Default for ChaosPlan {
    fn default() -> Self {
        ChaosPlan {
            seed: 0xC4A05,
            horizon: Duration::from_secs(10),
            shards: 2,
            cache_nodes: 3,
            flood_sources: 4,
            shard_kills: 1,
            cache_restarts: 1,
            floods: 1,
            flood_connections: 64,
            storms: 0,
            storm_kills: 8,
            brownouts: 0,
            brownout_hold: Duration::from_millis(300),
        }
    }
}

/// A deterministic, seeded timeline of fault injections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosSchedule {
    /// The seed the schedule was generated from (recorded for replay).
    pub seed: u64,
    /// The faults, sorted by offset.
    pub entries: Vec<ScheduledFault>,
}

impl ChaosSchedule {
    /// Generate the schedule `plan` describes. Pure function of `plan`:
    /// calling this twice with equal plans yields equal schedules.
    pub fn generate(plan: &ChaosPlan) -> ChaosSchedule {
        let mut rng = ChaosRng::new(plan.seed);
        let horizon_ms = plan.horizon.as_millis().max(10) as u64;
        let (lo, hi) = (horizon_ms / 10, horizon_ms * 9 / 10);
        let at = |rng: &mut ChaosRng| Duration::from_millis(rng.range_u64(lo, hi.max(lo + 1)));
        let mut entries = Vec::new();
        for _ in 0..plan.shard_kills {
            entries.push(ScheduledFault {
                at: at(&mut rng),
                fault: Fault::KillShard {
                    shard: rng.pick(plan.shards),
                },
            });
        }
        for _ in 0..plan.cache_restarts {
            let node = rng.pick(plan.cache_nodes);
            let kill_at = at(&mut rng);
            entries.push(ScheduledFault {
                at: kill_at,
                fault: Fault::CacheKill { node },
            });
            entries.push(ScheduledFault {
                at: kill_at + Duration::from_millis(horizon_ms / 10),
                fault: Fault::CacheRestart { node },
            });
        }
        for _ in 0..plan.floods {
            entries.push(ScheduledFault {
                at: at(&mut rng),
                fault: Fault::Flood {
                    source: rng.pick(plan.flood_sources),
                    connections: plan.flood_connections,
                },
            });
        }
        for _ in 0..plan.storms {
            entries.push(ScheduledFault {
                at: at(&mut rng),
                fault: Fault::RestartStorm {
                    shard: rng.pick(plan.shards),
                    kills: plan.storm_kills,
                },
            });
        }
        for _ in 0..plan.brownouts {
            entries.push(ScheduledFault {
                at: at(&mut rng),
                fault: Fault::Brownout {
                    node: rng.pick(plan.cache_nodes),
                    hold: plan.brownout_hold,
                },
            });
        }
        // Stable order: by offset, ties broken by insertion order.
        entries.sort_by_key(|entry| entry.at);
        ChaosSchedule {
            seed: plan.seed,
            entries,
        }
    }

    /// A hand-written schedule (tests, targeted repros).
    pub fn explicit(seed: u64, mut entries: Vec<ScheduledFault>) -> ChaosSchedule {
        entries.sort_by_key(|entry| entry.at);
        ChaosSchedule { seed, entries }
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How many scheduled faults carry this [`Fault::name`].
    fn count_of(schedule: &ChaosSchedule, name: &str) -> usize {
        schedule
            .entries
            .iter()
            .filter(|entry| entry.fault.name() == name)
            .count()
    }

    fn plan() -> ChaosPlan {
        ChaosPlan {
            seed: 7,
            horizon: Duration::from_secs(4),
            shards: 6,
            cache_nodes: 3,
            flood_sources: 8,
            shard_kills: 2,
            cache_restarts: 2,
            floods: 2,
            storms: 1,
            brownouts: 1,
            ..ChaosPlan::default()
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let a = ChaosSchedule::generate(&plan());
        let b = ChaosSchedule::generate(&plan());
        assert_eq!(a, b, "same plan, same schedule — bit for bit");
        let c = ChaosSchedule::generate(&ChaosPlan { seed: 8, ..plan() });
        assert_ne!(a.entries, c.entries, "a different seed reshuffles");
    }

    #[test]
    fn schedule_is_sorted_inside_the_horizon_and_counts_add_up() {
        let schedule = ChaosSchedule::generate(&plan());
        assert_eq!(schedule.len(), 2 + 2 * 2 + 2 + 1 + 1);
        assert_eq!(count_of(&schedule, "kill_shard"), 2);
        assert_eq!(count_of(&schedule, "cache_kill"), 2);
        assert_eq!(count_of(&schedule, "cache_restart"), 2);
        assert_eq!(count_of(&schedule, "flood"), 2);
        assert_eq!(count_of(&schedule, "restart_storm"), 1);
        assert_eq!(count_of(&schedule, "brownout"), 1);
        let horizon = Duration::from_secs(4);
        let mut last = Duration::ZERO;
        for entry in &schedule.entries {
            assert!(entry.at >= last, "sorted by offset");
            assert!(entry.at <= horizon, "inside the horizon");
            last = entry.at;
        }
    }

    #[test]
    fn every_cache_kill_gets_a_later_restart_of_the_same_node() {
        let schedule = ChaosSchedule::generate(&plan());
        for entry in &schedule.entries {
            if let Fault::CacheKill { node } = entry.fault {
                assert!(
                    schedule.entries.iter().any(|other| other.at > entry.at
                        && other.fault == (Fault::CacheRestart { node })),
                    "kill of node {node} must be paired with a restart"
                );
            }
        }
    }

    #[test]
    fn victims_stay_in_range() {
        let schedule = ChaosSchedule::generate(&ChaosPlan {
            shard_kills: 50,
            cache_restarts: 50,
            floods: 50,
            ..plan()
        });
        for entry in &schedule.entries {
            let bound = match entry.fault {
                Fault::KillShard { .. } | Fault::RestartStorm { .. } => 6,
                Fault::CacheKill { .. } | Fault::CacheRestart { .. } | Fault::Brownout { .. } => 3,
                Fault::Flood { .. } => 8,
            };
            assert!(entry.fault.victim() < bound, "victim in range: {entry:?}");
        }
    }
}
