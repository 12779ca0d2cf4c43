//! Property suite for the scheduler's grant queue: random
//! post/grant/deregister sequences are replayed against a naive oracle
//! that keeps one optional key per core and finds the minimum and the
//! strict second minimum by scanning all of them — the rescan the queue
//! exists to avoid. Widths cover one core, the paper's 16, and both
//! sides of the `ProcSet` word seam. Hand-rolled deterministic RNG,
//! like the other property suites — the offline build has no
//! `proptest`.

use flextm_sim::GrantQueue;

/// xorshift64* — any deterministic stream works here.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The full-scan reference: `Some(None)` is a live core that is
/// computing, `Some(Some(clock))` one that has posted, `None` one that
/// has deregistered.
struct Oracle(Vec<Option<Option<u64>>>);

impl Oracle {
    fn grant(&mut self) -> Option<(usize, (u64, usize))> {
        let mut keys = Vec::new();
        for (core, slot) in self.0.iter().enumerate() {
            match slot {
                Some(Some(clock)) => keys.push((*clock, core)),
                Some(None) => return None, // someone is still computing
                None => {}
            }
        }
        let &min = keys.iter().min()?;
        let second = keys.iter().filter(|&&k| k != min).min();
        self.0[min.1] = Some(None);
        Some((min.1, second.copied().unwrap_or((u64::MAX, usize::MAX))))
    }
}

fn run(cores: usize, seed: u64, steps: usize) {
    let mut rng = Rng(seed);
    let mut queue = GrantQueue::with_capacity(cores);
    queue.start(cores);
    let mut oracle = Oracle(vec![Some(None); cores]);
    // Each core's clock only moves forward, and a core reposts a little
    // above where it was granted — ties across cores are common, so the
    // core-id tie-break is exercised.
    let mut clocks = vec![0u64; cores];
    let mut grants = 0;
    for step in 0..steps {
        let core = rng.below(cores);
        match (oracle.0[core], rng.below(64)) {
            (None, _) => {}
            // Rarely: a core leaves, posted or not.
            (Some(_), 0) if queue.live() > 1 => {
                queue.deregister(core);
                oracle.0[core] = None;
            }
            (Some(None), _) => {
                clocks[core] += rng.below(4) as u64;
                queue.post(clocks[core], core);
                oracle.0[core] = Some(Some(clocks[core]));
            }
            (Some(Some(_)), _) => {}
        }
        // Offer a grant after every transition, as the machine does.
        let expected = oracle.grant();
        assert_eq!(
            queue.grant(),
            expected,
            "{cores} cores, seed {seed:#x}, step {step}: grant diverged"
        );
        assert_eq!(queue.live(), oracle.0.iter().flatten().count());
        grants += usize::from(expected.is_some());
    }
    assert!(grants > steps / (4 * cores), "too few grants to mean much");
}

#[test]
fn random_sequences_match_full_scan_oracle() {
    for cores in [1, 16, 65, 128] {
        for seed in [0x9e37_79b9_7f4a_7c15, 0xf1e7, 0xdead_beef_cafe] {
            run(cores, seed, 20_000);
        }
    }
}

#[test]
fn grant_waits_for_every_live_core_and_drains_in_key_order() {
    let mut queue = GrantQueue::with_capacity(4);
    queue.start(3);
    queue.post(7, 2);
    queue.post(7, 0);
    assert_eq!(queue.grant(), None, "core 1 has not posted");
    queue.post(3, 1);
    assert_eq!(queue.grant(), Some((1, (7, 0))));
    assert_eq!(queue.grant(), None, "core 1 is computing again");
    queue.deregister(1);
    assert_eq!(queue.grant(), Some((0, (7, 2))));
    queue.deregister(0);
    assert_eq!(queue.grant(), Some((2, (u64::MAX, usize::MAX))));
    queue.deregister(2);
    assert_eq!(queue.grant(), None, "no core is live");
}
