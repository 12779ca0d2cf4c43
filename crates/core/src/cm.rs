//! Contention managers (conflict arbitration policy).
//!
//! FlexTM deliberately leaves arbitration to software: on a conflict the
//! processor traps to the handler named by `CMPC` (eager mode) or the
//! `Commit()` routine settles things (lazy mode). The managers here are
//! the classic ones from Scherer & Scott, with **Polka** (Karma
//! priorities + randomized exponential backoff) as the paper's default
//! across every evaluated system.
//!
//! Managers are deterministic: the "randomized" backoff uses a
//! per-thread SplitMix64 stream seeded from the thread id.

/// What the conflict handler decides to do about one conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmDecision {
    /// Spin for the given number of cycles, then re-examine.
    Stall(u64),
    /// Abort the enemy transaction (CAS its TSW to `ABORTED`).
    AbortEnemy,
    /// Abort the local transaction.
    AbortSelf,
}

/// Facts available to the manager at a conflict.
#[derive(Debug, Clone, Copy)]
pub struct CmContext {
    /// Local priority (Karma: lines opened, accumulated across
    /// attempts).
    pub my_priority: u64,
    /// The enemy's published priority.
    pub enemy_priority: u64,
    /// Stable arbitration identity of the local transaction (core id
    /// for the FlexTM eager handler, thread id for the STM baselines).
    /// Used only to break exact priority ties deterministically.
    pub my_id: usize,
    /// The enemy's arbitration identity (same namespace as `my_id`).
    pub enemy_id: usize,
    /// How many times this same conflict has already stalled.
    pub stalls_so_far: u32,
}

impl CmContext {
    /// True when both sides published the same priority — the case
    /// where symmetric `AbortEnemy` decisions would make the two
    /// transactions kill each other (the Bobba et al. "FriendlyFire"
    /// mutual-abort pathology). Tie-broken by id: the lower id wins.
    pub fn priority_tie(&self) -> bool {
        self.my_priority == self.enemy_priority
    }

    /// Whether this side wins a priority tie (lower id wins).
    pub fn wins_tie(&self) -> bool {
        self.my_id < self.enemy_id
    }
}

/// A contention-management policy. One instance per thread; no shared
/// state (priorities are published through simulated memory).
pub trait ContentionManager: Send {
    /// Policy name for reports.
    fn name(&self) -> &'static str;
    /// Called when a transaction (re)starts an attempt.
    fn on_begin(&mut self) {}
    /// Called for every newly opened location (Karma currency).
    fn on_open(&mut self) {}
    /// Decides what to do about a conflict.
    fn on_conflict(&mut self, ctx: CmContext) -> CmDecision;
    /// Called after a commit; returns nothing, resets priority.
    fn on_commit(&mut self) {}
    /// Called after an abort; returns backoff cycles before retry.
    fn on_abort(&mut self) -> u64;
    /// Current priority to publish (Karma-style managers).
    fn priority(&self) -> u64 {
        0
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Polka: Karma priorities with randomized exponential backoff
/// (Scherer & Scott, PODC'05). Stall (with growing backoff) while the
/// enemy out-prioritizes us, up to a bounded number of tries, then
/// abort the enemy.
#[derive(Debug, Clone)]
pub struct Polka {
    karma: u64,
    consecutive_aborts: u32,
    rng: u64,
    max_stalls: u32,
    base_backoff: u64,
}

impl Polka {
    /// Standard parameters: up to 4 stalls per conflict, 32-cycle base
    /// backoff doubling per stall/abort.
    pub fn new(thread_id: usize) -> Self {
        Polka {
            karma: 0,
            consecutive_aborts: 0,
            rng: 0x9E37 ^ (thread_id as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
            max_stalls: 4,
            base_backoff: 32,
        }
    }

    fn jitter(&mut self, cycles: u64) -> u64 {
        let r = splitmix(&mut self.rng);
        cycles / 2 + r % cycles.max(1)
    }
}

impl ContentionManager for Polka {
    fn name(&self) -> &'static str {
        "Polka"
    }
    fn on_open(&mut self) {
        self.karma += 1;
    }
    fn on_conflict(&mut self, ctx: CmContext) -> CmDecision {
        // Equal Karma used to fall into the `>=` arm on *both* sides,
        // so two equal-priority transactions in a symmetric eager
        // conflict aborted each other. Tie-break deterministically:
        // the lower id wins immediately, the loser stalls (its enemy's
        // kill usually lands during the stall); `max_stalls` still
        // bounds the wait so a stuck winner cannot block the loser
        // forever.
        if ctx.priority_tie() {
            if ctx.wins_tie() || ctx.stalls_so_far >= self.max_stalls {
                return CmDecision::AbortEnemy;
            }
            let exp = ctx.stalls_so_far.min(10);
            return CmDecision::Stall(self.jitter(self.base_backoff << exp));
        }
        if ctx.my_priority > ctx.enemy_priority || ctx.stalls_so_far >= self.max_stalls {
            CmDecision::AbortEnemy
        } else {
            let exp = ctx.stalls_so_far.min(10);
            CmDecision::Stall(self.jitter(self.base_backoff << exp))
        }
    }
    fn on_commit(&mut self) {
        self.karma = 0;
        self.consecutive_aborts = 0;
    }
    fn on_abort(&mut self) -> u64 {
        self.consecutive_aborts += 1;
        let exp = self.consecutive_aborts.min(10);
        self.jitter(self.base_backoff << exp)
    }
    fn priority(&self) -> u64 {
        self.karma
    }
}

/// Aggressive: abort the enemy, no backoff. Kept as the pathological
/// reference point for the "FriendlyFire" mutual-abort discussion of
/// Bobba et al. (paper §7.4) — but since it publishes no priorities,
/// *every* Aggressive-vs-Aggressive conflict is a priority tie, so the
/// deterministic id tie-break applies: the lower id kills immediately
/// and the higher id concedes one short fixed stall first (enough for
/// the winner's kill to land), bounding the pathology instead of
/// livelocking outright. Benchmarks use Polka.
#[derive(Debug, Clone, Default)]
pub struct Aggressive;

impl ContentionManager for Aggressive {
    fn name(&self) -> &'static str {
        "Aggressive"
    }
    fn on_conflict(&mut self, ctx: CmContext) -> CmDecision {
        if ctx.priority_tie() && !ctx.wins_tie() && ctx.stalls_so_far == 0 {
            return CmDecision::Stall(64);
        }
        CmDecision::AbortEnemy
    }
    fn on_abort(&mut self) -> u64 {
        0
    }
}

/// Timid: always abort self, with jittered backoff (the jitter is what
/// keeps two timid transactions from re-colliding forever).
#[derive(Debug, Clone)]
pub struct Timid {
    rng: u64,
    consecutive_aborts: u32,
}

impl Timid {
    /// Per-thread deterministic jitter stream.
    pub fn new(thread_id: usize) -> Self {
        Timid {
            rng: 0x71_41D ^ (thread_id as u64).wrapping_mul(0xA24B_AED4_963E_E407),
            consecutive_aborts: 0,
        }
    }
}

impl ContentionManager for Timid {
    fn name(&self) -> &'static str {
        "Timid"
    }
    fn on_conflict(&mut self, _ctx: CmContext) -> CmDecision {
        CmDecision::AbortSelf
    }
    fn on_abort(&mut self) -> u64 {
        self.consecutive_aborts += 1;
        let r = splitmix(&mut self.rng);
        32 + (r % (64u64 << self.consecutive_aborts.min(8)))
    }
    fn on_commit(&mut self) {
        self.consecutive_aborts = 0;
    }
}

/// Polite: exponential backoff a fixed number of times, then abort the
/// enemy — Polka without the Karma priorities.
#[derive(Debug)]
pub struct Polite {
    rng: u64,
    max_stalls: u32,
    consecutive_aborts: u32,
}

impl Polite {
    /// Default: 6 stalls before aborting the enemy.
    pub fn new(thread_id: usize) -> Self {
        Polite {
            rng: 0x7E57 ^ (thread_id as u64).wrapping_mul(0x0FF1_CE15_BAD5_EED5),
            max_stalls: 6,
            consecutive_aborts: 0,
        }
    }
}

impl ContentionManager for Polite {
    fn name(&self) -> &'static str {
        "Polite"
    }
    fn on_conflict(&mut self, ctx: CmContext) -> CmDecision {
        if ctx.stalls_so_far >= self.max_stalls {
            CmDecision::AbortEnemy
        } else {
            let exp = ctx.stalls_so_far.min(10);
            let r = splitmix(&mut self.rng);
            CmDecision::Stall(16 + (r % (32u64 << exp)))
        }
    }
    fn on_abort(&mut self) -> u64 {
        self.consecutive_aborts += 1;
        let r = splitmix(&mut self.rng);
        16 + (r % (32u64 << self.consecutive_aborts.min(10)))
    }
    fn on_commit(&mut self) {
        self.consecutive_aborts = 0;
    }
}

/// Which manager to instantiate per thread (runtimes take this instead
/// of a factory closure so configurations stay `Copy` and printable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CmKind {
    /// Polka (paper default).
    #[default]
    Polka,
    /// Always abort the enemy.
    Aggressive,
    /// Always abort self.
    Timid,
    /// Backoff then abort the enemy.
    Polite,
}

impl CmKind {
    /// Builds the per-thread manager.
    pub fn build(self, thread_id: usize) -> Box<dyn ContentionManager> {
        match self {
            CmKind::Polka => Box::new(Polka::new(thread_id)),
            CmKind::Aggressive => Box::new(Aggressive),
            CmKind::Timid => Box::new(Timid::new(thread_id)),
            CmKind::Polite => Box::new(Polite::new(thread_id)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polka_priority_tracks_opens_and_resets_on_commit() {
        let mut p = Polka::new(0);
        assert_eq!(p.priority(), 0);
        p.on_open();
        p.on_open();
        assert_eq!(p.priority(), 2);
        p.on_commit();
        assert_eq!(p.priority(), 0);
    }

    #[test]
    fn polka_defers_to_higher_priority_then_aborts_enemy() {
        let mut p = Polka::new(0);
        let ctx = |stalls| CmContext {
            my_priority: 1,
            enemy_priority: 5,
            my_id: 0,
            enemy_id: 1,
            stalls_so_far: stalls,
        };
        assert!(matches!(p.on_conflict(ctx(0)), CmDecision::Stall(_)));
        assert!(matches!(p.on_conflict(ctx(3)), CmDecision::Stall(_)));
        assert_eq!(p.on_conflict(ctx(4)), CmDecision::AbortEnemy);
    }

    #[test]
    fn polka_wins_with_higher_priority() {
        let mut p = Polka::new(0);
        let ctx = CmContext {
            my_priority: 9,
            enemy_priority: 2,
            my_id: 1,
            enemy_id: 0,
            stalls_so_far: 0,
        };
        assert_eq!(p.on_conflict(ctx), CmDecision::AbortEnemy);
    }

    #[test]
    fn polka_backoff_grows_with_aborts() {
        let mut p = Polka::new(1);
        let b1 = p.on_abort();
        let mut later = 0;
        for _ in 0..5 {
            later = p.on_abort();
        }
        // Randomized, but the expected envelope grows 32x; compare
        // against a loose bound.
        assert!(later > b1 / 2, "backoff did not grow: {b1} -> {later}");
    }

    #[test]
    fn backoff_is_deterministic_per_thread() {
        let mut a = Polka::new(7);
        let mut b = Polka::new(7);
        for _ in 0..10 {
            assert_eq!(a.on_abort(), b.on_abort());
        }
        let mut c = Polka::new(8);
        let diverges = (0..10).any(|_| Polka::new(7).on_abort() != c.on_abort());
        assert!(diverges, "seeds 7 and 8 produced identical backoff");
    }

    #[test]
    fn aggressive_and_timid_are_constant() {
        let ctx = CmContext {
            my_priority: 0,
            enemy_priority: 100,
            my_id: 1,
            enemy_id: 0,
            stalls_so_far: 0,
        };
        assert_eq!(Aggressive.on_conflict(ctx), CmDecision::AbortEnemy);
        assert_eq!(Timid::new(0).on_conflict(ctx), CmDecision::AbortSelf);
    }

    #[test]
    fn polite_eventually_aborts_enemy() {
        let mut p = Polite::new(0);
        let ctx = |stalls| CmContext {
            my_priority: 0,
            enemy_priority: 9,
            my_id: 0,
            enemy_id: 1,
            stalls_so_far: stalls,
        };
        assert!(matches!(p.on_conflict(ctx(0)), CmDecision::Stall(_)));
        assert_eq!(p.on_conflict(ctx(6)), CmDecision::AbortEnemy);
    }

    #[test]
    fn equal_priority_tie_break_is_asymmetric() {
        // Regression: with the old `>=` arbitration both sides of an
        // equal-Karma conflict chose AbortEnemy and killed each other.
        // Now the lower id wins and the higher id stalls.
        let mut low = Polka::new(0);
        let mut high = Polka::new(1);
        let ctx = |my_id: usize, enemy_id: usize, stalls: u32| CmContext {
            my_priority: 3,
            enemy_priority: 3,
            my_id,
            enemy_id,
            stalls_so_far: stalls,
        };
        assert_eq!(low.on_conflict(ctx(0, 1, 0)), CmDecision::AbortEnemy);
        assert!(matches!(
            high.on_conflict(ctx(1, 0, 0)),
            CmDecision::Stall(_)
        ));
        // The loser's wait is bounded: after max_stalls it may fire.
        assert_eq!(high.on_conflict(ctx(1, 0, 4)), CmDecision::AbortEnemy);
    }

    #[test]
    fn aggressive_tie_break_is_asymmetric() {
        // Aggressive publishes no priorities, so every symmetric
        // conflict is a tie; the higher id concedes exactly one stall.
        let ctx = |my_id: usize, enemy_id: usize, stalls: u32| CmContext {
            my_priority: 0,
            enemy_priority: 0,
            my_id,
            enemy_id,
            stalls_so_far: stalls,
        };
        assert_eq!(Aggressive.on_conflict(ctx(0, 1, 0)), CmDecision::AbortEnemy);
        assert_eq!(Aggressive.on_conflict(ctx(1, 0, 0)), CmDecision::Stall(64));
        assert_eq!(Aggressive.on_conflict(ctx(1, 0, 1)), CmDecision::AbortEnemy);
    }

    #[test]
    fn kind_builds_named_managers() {
        assert_eq!(CmKind::Polka.build(0).name(), "Polka");
        assert_eq!(CmKind::Aggressive.build(0).name(), "Aggressive");
        assert_eq!(CmKind::Timid.build(0).name(), "Timid");
        assert_eq!(CmKind::Polite.build(0).name(), "Polite");
    }
}
