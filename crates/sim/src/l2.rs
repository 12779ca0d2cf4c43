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
use crate::core_state::{write_into, written};
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

/// The tag of a free L2 slot. Line addresses are byte addresses shifted
/// right by [`flextm_sig::LINE_SHIFT`], so `line + 1` never wraps to it.
const EMPTY: u64 = 0;

/// The tag array's encoding of `line`.
fn tag(line: LineAddr) -> u64 {
    line.0 + 1
}

/// The shared L2: a set-associative tag array (for hit/miss timing and
/// directory-info lifetime) plus the directory map and the
/// context-switch summary state (§5).
#[derive(Debug)]
pub struct L2 {
    /// Tag array, set-major: `nsets * ways` slots of `(tag, lru)`, a
    /// tag being the line address plus one and [`EMPTY`] a free slot.
    /// A free slot is all zero bits, so the array is allocated zeroed
    /// and a fresh machine neither writes nor faults in its pages. One
    /// contiguous allocation — a 16K-set L2 as one `Vec` of tiny
    /// `Vec`s costs a TLB walk per set visit.
    slots: Vec<(u64, u64)>,
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
            slots: vec![(EMPTY, 0); sets * ways],
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
        let tag = tag(line);
        if let Some(e) = set.iter_mut().find(|(t, _)| *t == tag) {
            e.1 = tick;
            return L2Ref::Hit;
        }
        let slot = match set.iter().position(|(t, _)| *t == EMPTY) {
            Some(free) => free,
            None => {
                let pos = set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (_, lru))| *lru)
                    .map(|(i, _)| i)
                    .expect("set non-empty");
                // Processor sharer information is lost on L2 eviction
                // (paper §4.1); it will be recreated from signatures.
                self.dir.remove(LineAddr(set[pos].0 - 1));
                pos
            }
        };
        self.slots[base + slot] = (tag, tick);
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

    /// The directory's (possibly stale) info for `line`, if it has any.
    pub(crate) fn dir_info(&self, line: LineAddr) -> Option<DirEntry> {
        self.dir.get(line).copied()
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

    /// Writes the L2's record into `rec` in place: its occupied tag
    /// slots, clock, live directory entries and summaries. Exhaustive
    /// destructuring, as in [`crate::SimState::record`].
    pub(crate) fn record(&self, rec: &mut L2Record) {
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
        rec.slots.clear();
        rec.slots.extend(
            (slots.iter().enumerate())
                .filter(|(_, (t, _))| *t != EMPTY)
                .map(|(i, &(t, lru))| (i as u32, (LineAddr(t - 1), lru))),
        );
        rec.tick = *tick;
        dir.record(&mut rec.dir);
        write_into(&mut rec.read_summary, read_summary);
        write_into(&mut rec.write_summary, write_summary);
        rec.cores_summary = *cores_summary;
    }

    /// Makes `self` the L2 `rec` was written from, in place, reusing
    /// the tag array, the directory banks and the summaries' word
    /// buffers.
    pub(crate) fn restore(&mut self, rec: &L2Record) {
        let L2Record {
            slots,
            tick,
            dir,
            read_summary,
            write_summary,
            cores_summary,
        } = rec;
        self.slots.fill((EMPTY, 0));
        for &(i, (line, lru)) in slots.iter() {
            self.slots[i as usize] = (tag(line), lru);
        }
        self.tick = *tick;
        self.dir.restore(dir);
        self.read_summary.clone_from(written(read_summary));
        self.write_summary.clone_from(written(write_summary));
        self.cores_summary = *cores_summary;
    }
}

/// An [`L2`] as a kept model-checker state stores it ([`L2::record`]).
/// Geometry is configuration and is not kept.
#[derive(Debug, Clone, Default)]
pub(crate) struct L2Record {
    /// `(slot, (line, lru))` for each occupied tag slot.
    slots: Vec<(u32, (LineAddr, u64))>,
    tick: u64,
    dir: Vec<(LineAddr, DirEntry)>,
    read_summary: Option<SummarySignature>,
    write_summary: Option<SummarySignature>,
    cores_summary: ProcSet,
}

impl L2Record {
    /// Bytes the record owns on the heap (B-tree node slack in the
    /// summaries' contributor maps not counted).
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        let summary = |s: &Option<SummarySignature>| {
            s.as_ref().map_or(0, |s| {
                let words = size_of_val(s.union().words());
                words + s.len() * (size_of::<(usize, Signature)>() + words)
            })
        };
        self.slots.capacity() * size_of::<(u32, (LineAddr, u64))>()
            + self.dir.capacity() * size_of::<(LineAddr, DirEntry)>()
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
