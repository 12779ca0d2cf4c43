//! Context-switch virtualization (paper §5): saving a live
//! transaction's hardware state to software, summary-signature
//! maintenance at the directory, and page-remap support (§4.1).

use crate::machine::SimState;
use crate::ot::OverflowTable;
use flextm_sig::{LineAddr, ProcSet, Signature};

/// A descheduled transaction's hardware state, held in (simulated)
/// virtual memory by the OS. Mirrors the paper's list: TMI lines (moved
/// into the OT), the OT registers, the signatures, and the CSTs.
#[derive(Debug)]
pub struct SavedTx {
    /// Raw words of the saved read signature.
    pub rsig: Vec<u64>,
    /// Raw words of the saved write signature.
    pub wsig: Vec<u64>,
    /// `(R-W, W-R, W-W)` snapshot.
    pub csts: (ProcSet, ProcSet, ProcSet),
    /// The overflow table, now holding every TMI line the transaction
    /// had buffered.
    pub ot: Option<OverflowTable>,
}

impl SavedTx {
    /// Rebuilds the saved read signature as a first-class object (the
    /// OS handler tests membership against saved signatures when a
    /// running transaction conflicts with a descheduled one).
    pub fn read_signature(&self, config: &flextm_sig::SignatureConfig) -> Signature {
        let mut s = Signature::new(config.clone());
        s.load_words(&self.rsig);
        s
    }

    /// Rebuilds the saved write signature.
    pub fn write_signature(&self, config: &flextm_sig::SignatureConfig) -> Signature {
        let mut s = Signature::new(config.clone());
        s.load_words(&self.wsig);
        s
    }
}

impl SimState {
    /// Deschedule: merge hardware transaction state into software (§5).
    /// TMI lines (cache + victim buffer) move into the OT; TI lines
    /// drop; signatures and CSTs are saved then flash-cleared. The next
    /// conflicting access by anyone will miss and be caught by the
    /// summary signatures.
    pub fn save_tx_state(&mut self, me: usize) -> SavedTx {
        self.cores.mark(me);
        let tmi_lines = self.cores.unmarked(me).l1.drain_tmi();
        let mut latency = self.config.l1_latency * (2 + tmi_lines.len() as u64);
        if !tmi_lines.is_empty() {
            latency += self.ensure_ot(me);
            let ot = self
                .cores
                .unmarked(me)
                .ot
                .as_mut()
                .expect("allocated above");
            for (line, data) in tmi_lines {
                ot.insert(line, data);
                latency += self.config.l2_latency;
            }
        }
        // Drop TI snapshots; nothing else is speculative now.
        let core = self.cores.unmarked(me);
        core.l1.flash_abort();

        let saved = SavedTx {
            rsig: core.rsig.words().to_vec(),
            wsig: core.wsig.words().to_vec(),
            csts: core.csts.snapshot(),
            ot: core.ot.take(),
        };
        core.rsig.clear();
        core.wsig.clear();
        core.csts.clear_all();
        self.clear_aou(me);
        self.sync_core_masks(me);
        self.charge_mem(me, latency);
        saved
    }

    /// Reschedule on the *same* processor: restore signatures, CSTs and
    /// OT registers. (Migration to a different processor is
    /// abort-and-restart in FlexTM, so there is no cross-core restore.)
    pub fn restore_tx_state(&mut self, me: usize, saved: SavedTx) {
        self.cores.mark(me);
        let core = self.cores.unmarked(me);
        core.rsig.load_words(&saved.rsig);
        core.wsig.load_words(&saved.wsig);
        core.csts.restore(saved.csts);
        core.ot = saved.ot;
        self.sync_core_masks(me);
        let latency = self.config.l1_latency * 4;
        self.charge_mem(me, latency);
    }

    /// Installs a descheduled thread's signatures into the directory
    /// summaries (the `Sig` message: request network out, ACK back).
    pub fn install_summary(&mut self, me: usize, thread_id: usize, saved: &SavedTx) {
        self.cores.mark(me);
        let rsig = saved.read_signature(&self.config.signature);
        let wsig = saved.write_signature(&self.config.signature);
        self.l2.read_summary.install(thread_id, rsig);
        self.l2.write_summary.install(thread_id, wsig);
        self.charge_mem(me, self.config.l2_round_trip());
    }

    /// Removes a rescheduled thread from the directory summaries; the
    /// OS recomputes the union from the survivors.
    pub fn remove_summary(&mut self, me: usize, thread_id: usize) {
        self.cores.mark(me);
        self.l2.read_summary.remove(thread_id);
        self.l2.write_summary.remove(thread_id);
        self.charge_mem(me, self.config.l2_round_trip());
    }

    /// §4.1 page remap: the OS moved logical page `old → new`. Every
    /// core's signatures gain the new lines (no deletion from Bloom
    /// filters — old bits only cause false positives, as the paper
    /// notes), and OT tags are rewritten.
    pub fn remap_page(&mut self, old_first_line: LineAddr, new_first_line: LineAddr, lines: u64) {
        for core in self.cores.iter_mut() {
            for i in 0..lines {
                let old = LineAddr(old_first_line.index() + i);
                let new = LineAddr(new_first_line.index() + i);
                if core.rsig.contains(old) {
                    core.rsig.insert(new);
                }
                if core.wsig.contains(old) {
                    core.wsig.insert(new);
                }
            }
            if let Some(ot) = core.ot.as_mut() {
                ot.remap_page(old_first_line, new_first_line, lines);
            }
        }
        for c in 0..self.cores.len() {
            self.sync_core_masks(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::mem::Addr;
    use crate::proto::AccessKind;

    fn state() -> SimState {
        SimState::for_tests(MachineConfig::small_test())
    }

    #[test]
    fn save_moves_tmi_to_ot_and_clears_hardware() {
        let mut st = state();
        let a = Addr::new(0x2000);
        st.access(0, a, AccessKind::TStore, 9);
        st.access(0, Addr::new(0x3000), AccessKind::TLoad, 0);
        let saved = st.save_tx_state(0);
        assert!(st.cores[0].rsig.is_empty());
        assert!(st.cores[0].wsig.is_empty());
        assert!(st.cores[0].ot.is_none());
        let ot = saved.ot.as_ref().expect("TMI line went to OT");
        assert_eq!(ot.len(), 1);
        assert_eq!(ot.peek(a.line()).unwrap().data[0], 9);
        // Saved signatures still know the footprint.
        let cfg = st.config.signature.clone();
        assert!(saved.write_signature(&cfg).contains(a.line()));
        assert!(saved
            .read_signature(&cfg)
            .contains(Addr::new(0x3000).line()));
    }

    #[test]
    fn restore_brings_footprint_back() {
        let mut st = state();
        let a = Addr::new(0x2000);
        st.access(0, a, AccessKind::TStore, 9);
        let saved = st.save_tx_state(0);
        st.restore_tx_state(0, saved);
        assert!(st.cores[0].wsig.contains(a.line()));
        // The speculative value is reachable again through the OT.
        let r = st.access(0, a, AccessKind::TLoad, 0);
        assert_eq!(r.value, 9);
    }

    #[test]
    fn summary_catches_conflicts_with_descheduled_tx() {
        let mut st = state();
        let a = Addr::new(0x2000);
        st.access(0, a, AccessKind::TStore, 9);
        let saved = st.save_tx_state(0);
        st.install_summary(0, 77, &saved);
        st.l2.cores_summary = ProcSet::bit(0);
        // A running transaction on core 1 touches the same line: the L1
        // miss must report a summary hit for thread 77.
        let r = st.access(1, a, AccessKind::TLoad, 0);
        assert_eq!(r.summary_hits, ProcSet::bit(77));
        // After removal, no more traps.
        st.remove_summary(0, 77);
        let r = st.access(1, Addr::new(0x2008), AccessKind::TLoad, 0);
        assert!(r.summary_hits.is_empty());
    }

    #[test]
    fn summary_read_set_only_traps_writers() {
        let mut st = state();
        let a = Addr::new(0x4000);
        st.access(0, a, AccessKind::TLoad, 0);
        let saved = st.save_tx_state(0);
        st.install_summary(0, 5, &saved);
        // Remote reader: read-read is no conflict.
        let r = st.access(1, a, AccessKind::TLoad, 0);
        assert!(r.summary_hits.is_empty());
        // Remote writer: conflicts with the suspended reader.
        let r = st.access(2, a, AccessKind::TStore, 1);
        assert_eq!(r.summary_hits, ProcSet::bit(5));
    }

    #[test]
    fn remap_page_keeps_conflict_detection_alive() {
        let mut st = state();
        let old = Addr::new(0x10000);
        st.access(0, old, AccessKind::TStore, 3);
        // Spill to OT via save (simplest path to an OT-resident line).
        let saved = st.save_tx_state(0);
        st.restore_tx_state(0, saved);
        // OS remaps the 4 KiB page containing `old` to a new frame.
        st.remap_page(old.line(), LineAddr(old.line().index() + 4096), 64);
        let new_line = LineAddr(old.line().index() + 4096);
        assert!(st.cores[0].wsig.contains(new_line));
        let ot = st.cores[0].ot.as_ref().expect("OT present");
        assert!(ot.peek(new_line).is_some());
        assert_eq!(ot.peek(new_line).unwrap().logical, old.line());
    }
}
