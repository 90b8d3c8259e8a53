//! Fleet-wide tuning memory: what the server learned from tenants that
//! already finished.
//!
//! Every completed tuned job reports the configuration its tuner
//! committed (and the measured cost that won). New tenants in the same
//! *deck class* — grid shape and particles-per-cell bucket — get their
//! arm list reordered so fleet-proven configurations are explored
//! first. The tuner still measures everything itself (a warm start is a
//! hint, not a verdict), but short jobs commit to a good arm epochs
//! sooner, which is exactly where a thousand-tenant fleet spends its
//! time.

use std::collections::BTreeMap;
use tuner::Config;
use vpic_core::Deck;

/// Aggregate over every commit of one configuration within a class.
#[derive(Debug, Clone)]
struct ArmStat {
    config: Config,
    commits: u64,
    total_cost: f64,
}

impl ArmStat {
    fn mean_cost(&self) -> f64 {
        self.total_cost / self.commits.max(1) as f64
    }
}

/// Per-deck-class record of fleet-committed tuner configurations.
#[derive(Debug, Default)]
pub struct FleetPrior {
    classes: BTreeMap<String, Vec<ArmStat>>,
}

impl FleetPrior {
    /// An empty prior (no tenant has finished yet).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The class key for a deck: shape plus a power-of-two ppc bucket.
    /// Decks in one class share a cache-behavior regime, so their tuned
    /// optima transfer; ppc is bucketed because 4 vs 5 particles per
    /// cell tune alike while 4 vs 64 do not.
    pub fn class_of(deck: &Deck) -> String {
        let (nx, ny, nz) = deck.shape;
        format!("{nx}x{ny}x{nz}/ppc{}", deck.ppc.next_power_of_two())
    }

    /// Fold one finished tenant's committed arm into the class record.
    pub(crate) fn record_commit(&mut self, class: &str, config: Config, cost_per_particle: f64) {
        let stats = self.classes.entry(class.to_string()).or_default();
        match stats.iter_mut().find(|s| s.config == config) {
            Some(s) => {
                s.commits += 1;
                s.total_cost += cost_per_particle;
            }
            None => stats.push(ArmStat { config, commits: 1, total_cost: cost_per_particle }),
        }
    }

    /// Commits recorded for a class (0 for an unseen class).
    pub fn commits(&self, class: &str) -> u64 {
        self.classes.get(class).map_or(0, |s| s.iter().map(|a| a.commits).sum())
    }

    /// Reorder `arms` in place so fleet-committed configurations for
    /// `class` come first — most-committed first, mean cost as the tie
    /// break — with the relative order of the rest preserved. Returns
    /// how many arms were promoted (0 means cold start).
    pub fn reorder(&self, class: &str, arms: &mut Vec<Config>) -> usize {
        let Some(stats) = self.classes.get(class) else { return 0 };
        // rank each known arm; unknown arms keep rank None
        let rank = |c: &Config| -> Option<(u64, f64)> {
            stats.iter().find(|s| s.config == *c).map(|s| (s.commits, s.mean_cost()))
        };
        let mut promoted: Vec<Config> =
            arms.iter().copied().filter(|c| rank(c).is_some()).collect();
        if promoted.is_empty() {
            return 0;
        }
        promoted.sort_by(|a, b| {
            let (ca, costa) = rank(a).expect("filtered to known arms");
            let (cb, costb) = rank(b).expect("filtered to known arms");
            cb.cmp(&ca).then(costa.total_cmp(&costb))
        });
        let rest: Vec<Config> = arms.iter().copied().filter(|c| rank(c).is_none()).collect();
        let n = promoted.len();
        promoted.extend(rest);
        *arms = promoted;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pk::atomic::ScatterMode;
    use psort::SortOrder;
    use vsimd::Strategy;

    fn arm(order: Option<SortOrder>, interval: usize) -> Config {
        Config { order, interval, strategy: Strategy::Auto, scatter: ScatterMode::Atomic, tile: None }
    }

    #[test]
    fn class_buckets_ppc() {
        let a = Deck::uniform(6, 6, 6, 4);
        let b = Deck::uniform(6, 6, 6, 3);
        let c = Deck::uniform(6, 6, 6, 64);
        assert_eq!(FleetPrior::class_of(&a), FleetPrior::class_of(&b));
        assert_ne!(FleetPrior::class_of(&a), FleetPrior::class_of(&c));
    }

    #[test]
    fn cold_start_reorders_nothing() {
        let prior = FleetPrior::new();
        let mut arms = vec![arm(None, 0), arm(Some(SortOrder::Standard), 20)];
        let orig = arms.clone();
        assert_eq!(prior.reorder("6x6x6/ppc4", &mut arms), 0);
        assert_eq!(arms, orig);
    }

    #[test]
    fn committed_arms_are_promoted_most_committed_first() {
        let mut prior = FleetPrior::new();
        let hot = arm(Some(SortOrder::Standard), 20);
        let warm = arm(Some(SortOrder::Strided), 20);
        prior.record_commit("c", warm, 3.0);
        prior.record_commit("c", hot, 2.0);
        prior.record_commit("c", hot, 2.5);
        let mut arms = vec![arm(None, 0), warm, arm(Some(SortOrder::Standard), 5), hot];
        let n = prior.reorder("c", &mut arms);
        assert_eq!(n, 2);
        assert_eq!(arms[0], hot, "two commits beat one");
        assert_eq!(arms[1], warm);
        // the unknown arms keep their relative order behind the prior
        assert_eq!(arms[2], arm(None, 0));
        assert_eq!(arms[3], arm(Some(SortOrder::Standard), 5));
        assert_eq!(prior.commits("c"), 3);
        assert_eq!(prior.commits("elsewhere"), 0);
    }

    #[test]
    fn tie_break_is_mean_cost() {
        let mut prior = FleetPrior::new();
        let cheap = arm(Some(SortOrder::Standard), 20);
        let dear = arm(Some(SortOrder::Strided), 20);
        prior.record_commit("c", dear, 9.0);
        prior.record_commit("c", cheap, 1.0);
        let mut arms = vec![dear, cheap];
        prior.reorder("c", &mut arms);
        assert_eq!(arms, vec![cheap, dear]);
    }
}
