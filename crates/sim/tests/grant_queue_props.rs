//! Property suite for the scheduler's grant queue: random
//! post-and-grant/deregister sequences are replayed against a naive
//! oracle that keeps one optional key per core and finds the minimum
//! and the strict second minimum by scanning all of them — the rescan
//! the queue exists to avoid. Widths cover one core, the paper's 16, and both
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

/// What one sequence exercised, so the suite can insist each width met
/// every branch of the fused post-and-grant it is able to meet.
#[derive(Default)]
struct Coverage {
    grants: usize,
    /// Posts that left some live core computing (`None`, key queued).
    queued: usize,
    /// Granting posts whose key sorted below the heap root.
    self_grants: usize,
    /// Granting posts with no rival left in the queue.
    sole: usize,
    /// Grants made by an exit rather than a post.
    exit_grants: usize,
}

fn run(cores: usize, seed: u64, steps: usize) -> Coverage {
    let mut rng = Rng(seed);
    let mut queue = GrantQueue::with_capacity(cores);
    queue.start(cores);
    let mut oracle = Oracle(vec![Some(None); cores]);
    // Each core's clock only moves forward, and a core reposts a little
    // above where it was granted — ties across cores are common, so the
    // core-id tie-break is exercised.
    let mut clocks = vec![0u64; cores];
    let mut seen = Coverage::default();
    for step in 0..steps {
        let core = rng.below(cores);
        // Every transition offers a grant, as the machine does: a post
        // through the fused operation, an exit through `grant`.
        let (got, posted) = match (oracle.0[core], rng.below(64)) {
            // Rarely: a core leaves, posted or not — and all but one
            // do before the sequence ends, so that every width also
            // runs with a sole live core.
            (Some(_), rare) if queue.live() > 1 && (rare == 0 || step + 16 * cores > steps) => {
                queue.deregister(core);
                oracle.0[core] = None;
                (queue.grant(), false)
            }
            (Some(None), _) => {
                clocks[core] += rng.below(4) as u64;
                oracle.0[core] = Some(Some(clocks[core]));
                (queue.post_and_grant(clocks[core], core), true)
            }
            // Dead, or parked on a key already queued: nothing moves.
            _ => (queue.grant(), false),
        };
        let expected = oracle.grant();
        assert_eq!(
            got, expected,
            "{cores} cores, seed {seed:#x}, step {step}: grant diverged"
        );
        assert_eq!(queue.live(), oracle.0.iter().flatten().count());
        match expected {
            None => seen.queued += usize::from(posted),
            Some((next, horizon)) => {
                seen.grants += 1;
                seen.exit_grants += usize::from(!posted);
                seen.self_grants += usize::from(posted && next == core);
                seen.sole += usize::from(posted && horizon == (u64::MAX, usize::MAX));
            }
        }
    }
    assert!(
        seen.grants > steps / (4 * cores),
        "too few grants to mean much"
    );
    seen
}

#[test]
fn random_sequences_match_full_scan_oracle() {
    for cores in [1, 16, 65, 128] {
        for seed in [0x9e37_79b9_7f4a_7c15, 0xf1e7, 0xdead_beef_cafe] {
            let seen = run(cores, seed, 20_000);
            assert!(seen.sole > 0, "{cores} cores: no sole-live-core grant");
            if cores > 1 {
                assert!(seen.queued > 0, "{cores} cores: no post was queued");
                assert!(seen.self_grants > 0, "{cores} cores: no self-grant");
                assert!(
                    seen.self_grants < seen.grants,
                    "{cores} cores: no grant replaced the heap root"
                );
                assert!(seen.exit_grants > 0, "{cores} cores: no exit granted");
            }
        }
    }
}

#[test]
fn grant_waits_for_every_live_core_and_drains_in_key_order() {
    let mut queue = GrantQueue::with_capacity(4);
    queue.start(3);
    assert_eq!(queue.post_and_grant(7, 2), None, "cores 0 and 1 compute");
    assert_eq!(queue.post_and_grant(7, 0), None, "core 1 has not posted");
    // Below the root: a self-grant, the heap untouched.
    assert_eq!(queue.post_and_grant(3, 1), Some((1, (7, 0))));
    assert_eq!(queue.grant(), None, "core 1 is computing again");
    // Above the root: core 0 is granted, core 1's key takes its place
    // and sinks below core 2's.
    assert_eq!(queue.post_and_grant(9, 1), Some((0, (7, 2))));
    queue.deregister(0);
    assert_eq!(queue.grant(), Some((2, (9, 1))));
    // A parked core bails out and takes its key with it.
    queue.deregister(1);
    assert_eq!(queue.grant(), None, "core 2 is computing");
    assert_eq!(
        queue.post_and_grant(8, 2),
        Some((2, (u64::MAX, usize::MAX))),
        "the sole live core has no rival"
    );
    queue.deregister(2);
    assert_eq!(queue.grant(), None, "no core is live");
}
