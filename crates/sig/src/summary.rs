//! Summary signatures: the directory-resident union of all descheduled
//! transactions' access signatures (paper §5).
//!
//! When the OS suspends a thread mid-transaction it ORs the thread's
//! `Rsig`/`Wsig` into the directory's `RSsig`/`WSsig`. The L2 controller
//! then consults the summary on every **L1 miss** (not on every L1
//! access — the key improvement over LogTM-SE) and traps to software on
//! a hit. Because summaries are unions, removing one contributor
//! requires recomputation from the surviving contributors; the OS does
//! exactly that when rescheduling a thread, so [`SummarySignature`]
//! keeps the per-contributor signatures around.

use crate::hasher::SigKey;
use crate::{LineAddr, ProcSet, Signature, SignatureConfig, MAX_CORES};
use std::collections::BTreeMap;

/// A recomputable union of per-thread signatures, keyed by an opaque
/// contributor id (the simulator uses thread ids).
///
/// # Example
///
/// ```
/// use flextm_sig::{LineAddr, Signature, SignatureConfig, SummarySignature};
///
/// let cfg = SignatureConfig::paper_default();
/// let mut rssig = SummarySignature::new(cfg.clone());
/// let mut rsig = Signature::new(cfg);
/// rsig.insert(LineAddr(7));
///
/// rssig.install(3, rsig);                 // thread 3 descheduled
/// assert!(rssig.contains(LineAddr(7)));
/// assert_eq!(rssig.hit_contributors(LineAddr(7)), vec![3]);
///
/// rssig.remove(3);                        // thread 3 rescheduled
/// assert!(!rssig.contains(LineAddr(7)));
/// ```
#[derive(Debug, Clone)]
pub struct SummarySignature {
    config: SignatureConfig,
    union: Signature,
    contributors: BTreeMap<usize, Signature>,
}

impl SummarySignature {
    /// Creates an empty summary for signatures of configuration `config`.
    pub fn new(config: SignatureConfig) -> Self {
        SummarySignature {
            union: Signature::new(config.clone()),
            contributors: BTreeMap::new(),
            config,
        }
    }

    /// Installs (or replaces) contributor `id`'s signature and re-forms
    /// the union. Mirrors the OS unioning a suspended thread's signature
    /// into the directory.
    ///
    /// # Panics
    ///
    /// Panics if `sig`'s configuration differs from the summary's.
    pub fn install(&mut self, id: usize, sig: Signature) {
        assert_eq!(
            *sig.config(),
            self.config,
            "contributor signature configuration mismatch"
        );
        // Contributor ids are software thread ids; the allocation-free
        // hit-set path packs them into a ProcSet, so they must fit.
        debug_assert!(
            id < MAX_CORES,
            "contributor id {id} exceeds ProcSet width {MAX_CORES}"
        );
        self.contributors.insert(id, sig);
        self.recompute();
    }

    /// Removes contributor `id` (thread rescheduled) and recomputes the
    /// union from the survivors, exactly as the paper's OS does.
    /// Removing an unknown id is a no-op.
    pub fn remove(&mut self, id: usize) {
        if self.contributors.remove(&id).is_some() {
            self.recompute();
        }
    }

    fn recompute(&mut self) {
        self.union.clear();
        for sig in self.contributors.values() {
            self.union.union_with(sig);
        }
    }

    /// Conservative membership test against the union (what the L2
    /// controller does on each L1 miss).
    pub fn contains(&self, line: LineAddr) -> bool {
        !self.contributors.is_empty() && self.union.contains(line)
    }

    /// Ids of contributors whose individual signature hits `line`. The
    /// software handler uses this to find which descheduled transactions
    /// to test/update (via the conflict management table).
    pub fn hit_contributors(&self, line: LineAddr) -> Vec<usize> {
        self.contributors
            .iter()
            .filter(|(_, sig)| sig.contains(line))
            .map(|(&id, _)| id)
            .collect()
    }

    /// [`SummarySignature::contains`] with a pre-hashed key.
    pub fn contains_key(&self, key: SigKey) -> bool {
        !self.contributors.is_empty() && self.union.contains_key(key)
    }

    /// [`SummarySignature::hit_contributors`] with a pre-hashed key.
    pub fn hit_contributors_key(&self, key: SigKey) -> Vec<usize> {
        self.contributors
            .iter()
            .filter(|(_, sig)| sig.contains_key(key))
            .map(|(&id, _)| id)
            .collect()
    }

    /// [`SummarySignature::hit_contributors`] as a [`ProcSet`] — the
    /// allocation-free form the L2's miss-path summary check uses.
    /// `ProcSet` iteration is ascending, matching the sorted `Vec`.
    pub fn hit_set(&self, line: LineAddr) -> ProcSet {
        let mut hits = ProcSet::empty();
        for (&id, sig) in &self.contributors {
            if sig.contains(line) {
                hits.insert(id);
            }
        }
        hits
    }

    /// [`SummarySignature::hit_set`] with a pre-hashed key.
    pub fn hit_set_key(&self, key: SigKey) -> ProcSet {
        let mut hits = ProcSet::empty();
        for (&id, sig) in &self.contributors {
            if sig.contains_key(key) {
                hits.insert(id);
            }
        }
        hits
    }

    /// True if no transactions are currently descheduled.
    pub fn is_empty(&self) -> bool {
        self.contributors.is_empty()
    }

    /// Number of descheduled contributors.
    pub fn len(&self) -> usize {
        self.contributors.len()
    }

    /// Read access to the combined union signature.
    pub fn union(&self) -> &Signature {
        &self.union
    }

    /// Makes `self` a copy of `src` in place, keeping the union's word
    /// buffer (see [`Signature::assign_for_check`]; exhaustive for the
    /// same reason). The contributor map is cloned whole: the model
    /// checker deschedules nothing, and an empty map clones for free.
    pub fn assign_for_check(&mut self, src: &SummarySignature) {
        let SummarySignature {
            config,
            union,
            contributors,
        } = src;
        self.config.clone_from(config);
        self.union.assign_for_check(union);
        self.contributors.clone_from(contributors);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SignatureConfig {
        SignatureConfig::paper_default()
    }

    fn sig_with(lines: &[u64]) -> Signature {
        let mut s = Signature::new(cfg());
        for &l in lines {
            s.insert(LineAddr(l));
        }
        s
    }

    #[test]
    fn union_covers_all_contributors() {
        let mut ss = SummarySignature::new(cfg());
        ss.install(0, sig_with(&[1, 2, 3]));
        ss.install(1, sig_with(&[100, 200]));
        for l in [1u64, 2, 3, 100, 200] {
            assert!(ss.contains(LineAddr(l)));
        }
    }

    #[test]
    fn remove_recomputes_union() {
        let mut ss = SummarySignature::new(cfg());
        ss.install(0, sig_with(&[1]));
        ss.install(1, sig_with(&[2]));
        ss.remove(0);
        assert!(!ss.contains(LineAddr(1)), "stale bit survived recompute");
        assert!(ss.contains(LineAddr(2)));
        ss.remove(1);
        assert!(ss.is_empty());
        assert!(!ss.contains(LineAddr(2)));
    }

    #[test]
    fn hit_contributors_identifies_owners() {
        let mut ss = SummarySignature::new(cfg());
        ss.install(4, sig_with(&[10, 11]));
        ss.install(9, sig_with(&[11, 12]));
        assert_eq!(ss.hit_contributors(LineAddr(10)), vec![4]);
        assert_eq!(ss.hit_contributors(LineAddr(11)), vec![4, 9]);
        assert_eq!(ss.hit_contributors(LineAddr(12)), vec![9]);
        assert!(ss.hit_contributors(LineAddr(13)).is_empty());
    }

    #[test]
    fn hit_set_matches_hit_contributors() {
        let mut ss = SummarySignature::new(cfg());
        ss.install(4, sig_with(&[10, 11]));
        ss.install(90, sig_with(&[11, 12])); // above the word seam
        for l in [10u64, 11, 12, 13] {
            let vec_hits = ss.hit_contributors(LineAddr(l));
            let set_hits: Vec<usize> = ss.hit_set(LineAddr(l)).iter().collect();
            assert_eq!(vec_hits, set_hits, "line {l}");
        }
        assert_eq!(ss.hit_set(LineAddr(11)), ProcSet::bit(4) | ProcSet::bit(90));
    }

    #[test]
    fn reinstall_replaces_previous_signature() {
        let mut ss = SummarySignature::new(cfg());
        ss.install(0, sig_with(&[1]));
        ss.install(0, sig_with(&[2]));
        assert!(!ss.contains(LineAddr(1)));
        assert!(ss.contains(LineAddr(2)));
        assert_eq!(ss.len(), 1);
    }

    #[test]
    fn remove_unknown_is_noop() {
        let mut ss = SummarySignature::new(cfg());
        ss.install(0, sig_with(&[1]));
        ss.remove(42);
        assert!(ss.contains(LineAddr(1)));
    }
}
