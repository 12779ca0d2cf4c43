//! The shared L2 cache and its embedded directory (paper §3.3, Fig. 2).
//!
//! The base protocol is an SGI-Origin-style directory MESI held at the
//! L2 tags, with FlexTM's one directory extension: **multiple owners**.
//! A line may simultaneously be speculatively owned (TMI) by several
//! processors; the directory tracks them like sharers and pings all of
//! them on other requests.
//!
//! Directory information is imprecise by design: E/S/TI lines are
//! evicted silently from L1s, so the sharer list only over-approximates
//! (that over-approximation is what guarantees signatures keep seeing
//! the coherence requests they need for conflict detection). When an L2
//! eviction discards directory state, a later miss recreates the sharer
//! list by querying all L1 signatures — the analogue of LogTM's sticky
//! bits (§4.1).

use crate::bankdir::BankedDir;
use flextm_sig::{LineAddr, ProcSet, SigKey, Signature, SignatureConfig, SummarySignature};

/// Directory state for one line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirEntry {
    /// Processors that may hold the line in S, E or TI.
    pub sharers: ProcSet,
    /// Processors that may hold the line in M or TMI.
    /// Conventional MESI has at most one; TMI allows several.
    pub owners: ProcSet,
}

impl DirEntry {
    /// True if no processor is recorded as caching the line.
    pub fn is_idle(&self) -> bool {
        self.sharers.is_empty() && self.owners.is_empty()
    }
}

/// The shared L2: a set-associative tag array (for hit/miss timing and
/// directory-info lifetime) plus the directory map and the
/// context-switch summary state (§5).
#[derive(Debug)]
pub struct L2 {
    /// Tag array, set-major: `nsets * ways` slots of `(line, lru)`.
    /// One contiguous allocation — a 16K-set L2 as one `Vec` of tiny
    /// `Vec`s costs a TLB walk per set visit.
    slots: Vec<Option<(LineAddr, u64)>>,
    nsets: usize,
    ways: usize,
    tick: u64,
    /// Directory map, bank-partitioned and cache-line-packed (see
    /// [`crate::bankdir`]); same presence semantics as a `HashMap`.
    dir: BankedDir,
    /// Summary of descheduled transactions' read sets, keyed by
    /// software thread id.
    pub read_summary: SummarySignature,
    /// Summary of descheduled transactions' write sets.
    pub write_summary: SummarySignature,
    /// "Cores Summary" register: processors on which transactions are
    /// currently descheduled.
    pub cores_summary: ProcSet,
}

/// Result of an L2 reference: hit, or miss with an indication of
/// whether directory info was lost and had to be recreated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2Ref {
    /// Tag hit; directory entry intact.
    Hit,
    /// Tag miss; memory must be consulted and, if the line had live
    /// directory state evicted earlier, the machine must rebuild the
    /// sharer list from L1 signatures.
    Miss,
}

impl L2 {
    /// Creates the L2 with `sets` sets of `ways`.
    pub fn new(sets: usize, ways: usize, sig_config: SignatureConfig) -> Self {
        assert!(
            sets.is_power_of_two(),
            "L2 set count must be a power of two"
        );
        L2 {
            slots: vec![None; sets * ways],
            nsets: sets,
            ways,
            tick: 0,
            dir: BankedDir::new(),
            read_summary: SummarySignature::new(sig_config.clone()),
            write_summary: SummarySignature::new(sig_config),
            cores_summary: ProcSet::empty(),
        }
    }

    fn set_range(&self, line: LineAddr) -> std::ops::Range<usize> {
        let si = (line.index() as usize) & (self.nsets - 1);
        si * self.ways..(si + 1) * self.ways
    }

    /// References `line` in the tag array, allocating on miss and
    /// evicting LRU (which discards that victim's directory entry).
    pub fn reference(&mut self, line: LineAddr) -> L2Ref {
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(line);
        let base = range.start;
        let set = &mut self.slots[range];
        if let Some(e) = set.iter_mut().flatten().find(|(l, _)| *l == line) {
            e.1 = tick;
            return L2Ref::Hit;
        }
        let slot = match set.iter().position(Option::is_none) {
            Some(free) => free,
            None => {
                let pos = set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.expect("full set").1)
                    .map(|(i, _)| i)
                    .expect("set non-empty");
                let (victim, _) = set[pos].take().expect("chosen victim");
                // Processor sharer information is lost on L2 eviction
                // (paper §4.1); it will be recreated from signatures.
                self.dir.remove(victim);
                pos
            }
        };
        self.slots[base + slot] = Some((line, tick));
        L2Ref::Miss
    }

    /// The directory entry for `line`, creating an idle one on demand.
    pub fn dir_mut(&mut self, line: LineAddr) -> &mut DirEntry {
        self.dir.entry_or_default(line)
    }

    /// Read-only directory view (idle default if absent).
    pub fn dir(&self, line: LineAddr) -> DirEntry {
        self.dir.get(line).copied().unwrap_or_default()
    }

    /// True if the directory currently has (possibly stale) info for
    /// `line` — i.e. no signature-based recreation is needed.
    pub fn has_dir_info(&self, line: LineAddr) -> bool {
        self.dir.contains(line)
    }

    /// Installs a recreated directory entry (after querying L1
    /// signatures on an L2 miss).
    pub fn install_dir(&mut self, line: LineAddr, entry: DirEntry) {
        self.dir.insert(line, entry);
    }

    /// The §5 retention rule: if `proc` is in the Cores Summary and the
    /// line hits the read or write summary signature, the directory
    /// keeps `proc`'s bits, so the L1 keeps receiving coherence traffic
    /// for lines accessed by its descheduled transactions.
    fn retained(&self, key: SigKey, proc: usize) -> bool {
        self.cores_summary.contains(proc)
            && (self.read_summary.contains_key(key) || self.write_summary.contains_key(key))
    }

    /// Removes processor `proc` from the sharers of the line behind
    /// `key`, unless the §5 retention rule applies.
    pub fn drop_sharer_key(&mut self, key: SigKey, proc: usize) {
        if self.retained(key, proc) {
            return;
        }
        if let Some(e) = self.dir.get_mut(key.line()) {
            e.sharers.remove(proc);
        }
    }

    /// Removes `proc` from the line's owners (same retention rule).
    pub fn drop_owner_key(&mut self, key: SigKey, proc: usize) {
        if self.retained(key, proc) {
            return;
        }
        if let Some(e) = self.dir.get_mut(key.line()) {
            e.owners.remove(proc);
        }
    }

    /// True if any thread currently contributes to either summary.
    /// Derived (never cached) so direct installs through the public
    /// summary fields cannot make it stale; both sides are O(1).
    pub fn any_summary(&self) -> bool {
        !(self.read_summary.is_empty() && self.write_summary.is_empty())
    }

    /// Tests an L1 miss against the summary signatures; returns the
    /// descheduled thread ids whose saved read or write signature hits
    /// (the requesting processor traps to software when non-empty).
    /// Returned as a [`ProcSet`] — the miss path runs this on every
    /// request while anything is descheduled, so it must not allocate;
    /// set union gives the old sort+dedup for free (`ProcSet` iteration
    /// is ascending).
    pub fn summary_check_key(&self, key: SigKey, is_write: bool) -> ProcSet {
        let mut hits = self.write_summary.hit_set_key(key);
        if is_write {
            // A write conflicts with suspended readers too.
            hits |= self.read_summary.hit_set_key(key);
        }
        hits
    }

    /// Makes `self` a copy of `src` in place, reusing the tag array,
    /// every directory bank and the summaries' word buffers (the model
    /// checker's refilled scratch state; see
    /// [`crate::SimState::assign_for_check`]).
    pub fn assign_for_check(&mut self, src: &L2) {
        let L2 {
            slots,
            nsets,
            ways,
            tick,
            dir,
            read_summary,
            write_summary,
            cores_summary,
        } = src;
        self.slots.clone_from(slots);
        self.nsets = *nsets;
        self.ways = *ways;
        self.tick = *tick;
        self.dir.assign_for_check(dir);
        self.read_summary.assign_for_check(read_summary);
        self.write_summary.assign_for_check(write_summary);
        self.cores_summary = *cores_summary;
    }

    /// The record a kept model-checker state stores for the L2: its
    /// occupied tag slots, clock, live directory entries and summaries.
    /// Exhaustive destructuring, as in [`L2::assign_for_check`].
    pub(crate) fn save(&self) -> L2Record {
        let L2 {
            slots,
            nsets: _,
            ways: _,
            tick,
            dir,
            read_summary,
            write_summary,
            cores_summary,
        } = self;
        L2Record {
            slots: slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| Some((i as u32, (*s)?)))
                .collect(),
            tick: *tick,
            dir: dir.save(),
            read_summary: read_summary.clone(),
            write_summary: write_summary.clone(),
            cores_summary: *cores_summary,
        }
    }

    /// Makes `self` the L2 `rec` was saved from, in place, reusing the
    /// tag array, the directory banks and the summaries' word buffers.
    pub(crate) fn restore(&mut self, rec: &L2Record) {
        let L2Record {
            slots,
            tick,
            dir,
            read_summary,
            write_summary,
            cores_summary,
        } = rec;
        self.slots.fill(None);
        for &(i, s) in slots.iter() {
            self.slots[i as usize] = Some(s);
        }
        self.tick = *tick;
        self.dir.restore(dir);
        self.read_summary.assign_for_check(read_summary);
        self.write_summary.assign_for_check(write_summary);
        self.cores_summary = *cores_summary;
    }
}

/// An [`L2`] as a kept model-checker state stores it ([`L2::save`]).
/// Geometry is configuration and is not kept.
#[derive(Debug)]
pub(crate) struct L2Record {
    /// `(slot, (line, lru))` for each occupied tag slot.
    slots: Box<[(u32, (LineAddr, u64))]>,
    tick: u64,
    dir: Box<[(LineAddr, DirEntry)]>,
    read_summary: SummarySignature,
    write_summary: SummarySignature,
    cores_summary: ProcSet,
}

impl L2Record {
    /// Bytes the record owns on the heap (B-tree node slack in the
    /// summaries' contributor maps not counted).
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        let summary = |s: &SummarySignature| {
            let words = size_of_val(s.union().words());
            words + s.len() * (size_of::<(usize, Signature)>() + words)
        };
        size_of_val(&*self.slots)
            + size_of_val(&*self.dir)
            + summary(&self.read_summary)
            + summary(&self.write_summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l2() -> L2 {
        L2::new(4, 2, SignatureConfig::paper_default())
    }

    #[test]
    fn reference_hit_after_miss() {
        let mut c = l2();
        assert_eq!(c.reference(LineAddr(1)), L2Ref::Miss);
        assert_eq!(c.reference(LineAddr(1)), L2Ref::Hit);
    }

    #[test]
    fn eviction_discards_directory_entry() {
        let mut c = L2::new(1, 1, SignatureConfig::paper_default());
        c.reference(LineAddr(1));
        c.dir_mut(LineAddr(1)).sharers = ProcSet::from_mask(0b11);
        c.reference(LineAddr(2)); // evicts line 1
        assert!(!c.has_dir_info(LineAddr(1)));
        assert_eq!(c.dir(LineAddr(1)), DirEntry::default());
    }

    #[test]
    fn drop_sharer_respects_cores_summary() {
        let mut c = l2();
        c.reference(LineAddr(7));
        c.dir_mut(LineAddr(7)).sharers = ProcSet::from_mask(0b10);
        // Thread 9 descheduled on proc 1 with line 7 in its read set.
        let mut rsig = Signature::new(SignatureConfig::paper_default());
        rsig.insert(LineAddr(7));
        let (key7, key8) = (rsig.key(LineAddr(7)), rsig.key(LineAddr(8)));
        c.read_summary.install(9, rsig);
        c.cores_summary = ProcSet::from_mask(0b10);
        c.drop_sharer_key(key7, 1);
        assert_eq!(c.dir(LineAddr(7)).sharers, 0b10, "sticky sharer dropped");
        // Without the summary hit the sharer is dropped normally.
        c.drop_sharer_key(key8, 1); // no dir info: no-op
        c.cores_summary = ProcSet::empty();
        c.drop_sharer_key(key7, 1);
        assert_eq!(c.dir(LineAddr(7)).sharers, 0);
    }

    #[test]
    fn summary_check_reports_writers_to_readers_and_both_to_writers() {
        let mut c = l2();
        let cfg = SignatureConfig::paper_default();
        let mut rsig = Signature::new(cfg.clone());
        rsig.insert(LineAddr(5));
        let mut wsig = Signature::new(cfg);
        wsig.insert(LineAddr(6));
        let (key5, key6) = (rsig.key(LineAddr(5)), rsig.key(LineAddr(6)));
        c.read_summary.install(1, rsig);
        c.write_summary.install(2, wsig);

        // Read miss: conflicts only with suspended writers.
        assert_eq!(c.summary_check_key(key5, false), ProcSet::empty());
        assert_eq!(c.summary_check_key(key6, false), ProcSet::bit(2));
        // Write miss: conflicts with readers and writers.
        assert_eq!(c.summary_check_key(key5, true), ProcSet::bit(1));
        assert_eq!(c.summary_check_key(key6, true), ProcSet::bit(2));
    }

    #[test]
    fn dir_entry_idle() {
        assert!(DirEntry::default().is_idle());
        assert!(!DirEntry {
            sharers: ProcSet::bit(0),
            owners: ProcSet::empty()
        }
        .is_idle());
    }
}
