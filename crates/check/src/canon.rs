//! Canonical state projection and hashing.
//!
//! Everything protocol-visible goes into the hash; clocks, cycle
//! stats, LRU and the (disabled) event log stay out — see the crate
//! docs for the soundness argument. Hashing is two independent 64-bit
//! FNV-style folds combined into a `u128`, so accidental collisions
//! across the ≤10⁸ states of a checker run are negligible.

use crate::driver::Driver;
use flextm_sim::{AlertCause, L1State};

/// Accumulates words into a 128-bit hash (two decorrelated 64-bit
/// lanes).
struct Hash128 {
    a: u64,
    b: u64,
}

impl Hash128 {
    fn new() -> Self {
        // FNV-1a offset basis for one lane; an arbitrary odd constant
        // for the other.
        Hash128 {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn word(&mut self, w: u64) {
        self.a = (self.a ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        self.b = self.b.wrapping_add(w ^ 0xff51_afd7_ed55_8ccd);
        self.b ^= self.b >> 33;
        self.b = self.b.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    }

    fn finish(&self) -> u128 {
        ((self.a as u128) << 64) | self.b as u128
    }
}

fn l1_state_code(s: L1State) -> u64 {
    match s {
        L1State::M => 1,
        L1State::E => 2,
        L1State::S => 3,
        L1State::Tmi => 4,
        L1State::Ti => 5,
    }
}

fn alert_code(a: &Option<AlertCause>) -> u64 {
    match a {
        None => 0,
        Some(AlertCause::AouInvalidated(l)) => (1 << 56) | l.index(),
        Some(AlertCause::StrongIsolation(l)) => (2 << 56) | l.index(),
        Some(AlertCause::WatchRead(addr)) => (3 << 56) | addr.raw(),
        Some(AlertCause::WatchWrite(addr)) => (4 << 56) | addr.raw(),
    }
}

/// Hashes the canonical projection of a driver state.
pub fn canon(d: &Driver) -> u128 {
    let cfg = d.config();
    let mut h = Hash128::new();

    // Only mapped cores: unmapped cores of a wide machine never run an
    // op and stay in their initial state, so hashing them would only
    // slow every fork down. Identity maps cover every core.
    for (i, &id) in cfg.core_ids.iter().enumerate() {
        let core = &d.st.cores[id];
        h.word(0xC0DE_0000 | i as u64);

        // L1 residency, sorted by line so fill order (way choice) does
        // not split equivalent states.
        let mut entries: Vec<_> = core
            .l1
            .iter_all()
            .map(|e| {
                (
                    e.line.index(),
                    l1_state_code(e.state),
                    e.a_bit as u64,
                    core.l1.peek_data(e.line).map_or(u64::MAX, |dw| dw[0]),
                )
            })
            .collect();
        entries.sort_unstable();
        h.word(entries.len() as u64);
        for (line, state, a_bit, w0) in entries {
            h.word(line);
            h.word(state);
            h.word(a_bit);
            h.word(w0);
        }

        for w in core.rsig.words() {
            h.word(*w);
        }
        for w in core.wsig.words() {
            h.word(*w);
        }
        let (rw, wr, ww) = core.csts.snapshot();
        for set in [rw, wr, ww] {
            for &w in set.words() {
                h.word(w);
            }
        }
        h.word(core.aloaded.map_or(u64::MAX, |l| l.index()));
        h.word(alert_code(&core.alert_pending));

        match &core.ot {
            None => h.word(0),
            Some(ot) => {
                h.word(1 + ot.is_committed() as u64);
                let mut lines: Vec<_> = ot
                    .iter()
                    .map(|(l, e)| (l.index(), e.logical.index(), e.data[0]))
                    .collect();
                lines.sort_unstable();
                h.word(lines.len() as u64);
                for (l, logical, w0) in lines {
                    h.word(l);
                    h.word(logical);
                    h.word(w0);
                }
                for w in ot.osig_words() {
                    h.word(w);
                }
            }
        }
    }

    // Directory entries for every line the alphabet can touch.
    let mut dir_lines = Vec::new();
    for l in 0..cfg.lines {
        dir_lines.push(cfg.data_line(l));
    }
    for c in 0..cfg.cores {
        dir_lines.push(cfg.tsw_line(c));
    }
    for line in dir_lines {
        if d.st.l2.has_dir_info(line) {
            let e = d.st.l2.dir(line);
            h.word(1);
            for set in [e.sharers, e.owners] {
                for &w in set.words() {
                    h.word(w);
                }
            }
        } else {
            h.word(0);
        }
    }

    // Committed memory (the shadow equals it — asserted every op).
    for &w in &d.shadow_mem {
        h.word(w);
    }

    // Shadow bookkeeping: it gates enabled ops and future assertions.
    for sh in &d.shadow {
        h.word(sh.active as u64);
        h.word(sh.doomed as u64);
        h.word(sh.tsw);
        for set in [&sh.reads, &sh.writes] {
            h.word(set.len() as u64);
            for (l, v) in set.iter() {
                h.word(l as u64);
                h.word(v);
            }
        }
        for set in [sh.rw, sh.wr, sh.ww] {
            for &w in set.words() {
                h.word(w);
            }
        }
    }

    h.finish()
}
