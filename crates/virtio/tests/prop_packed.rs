//! Property tests for the packed-virtqueue **wrap-around machinery**:
//! the AVAIL/USED ownership bits must agree with both sides' wrap
//! counters across arbitrarily many ring wraps, and slot accounting
//! must survive partial drains that stop at any point in the ring.
//!
//! The split-ring properties live in `prop_ring.rs`; this file is the
//! packed layout's §2.8.1 state machine exercised adversarially.

use proptest::collection::vec;
use proptest::prelude::*;

use vf_virtio::packed::{
    PackedDesc, PackedDeviceQueue, PackedDriverQueue, PACKED_F_AVAIL, PACKED_F_USED,
};
use vf_virtio::{BufferSpec, VecMemory};

const RING: u64 = 0x1000;

fn bufs(chain_len: usize, tag: usize) -> Vec<BufferSpec> {
    (0..chain_len)
        .map(|i| BufferSpec {
            addr: 0x10_000 + (tag * 8 + i) as u64 * 64,
            len: 64,
            writable: i + 1 == chain_len,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Serial round trips through a tiny ring: after every transfer the
    /// head descriptor's raw flag word must encode exactly the ownership
    /// state both wrap counters imply — available to the device before
    /// completion, used from the driver's view after, never both.
    #[test]
    fn ownership_bits_track_wrap_counters(
        transfers in 8usize..64,
        size_pow in 1u32..4, // sizes 2..8: many wraps
        chain_len in 1usize..3,
    ) {
        let size = 1u16 << size_pow;
        prop_assume!(chain_len as u16 <= size);
        let mut mem = VecMemory::new(1 << 20);
        let mut drv = PackedDriverQueue::new(RING, size);
        let mut dev = PackedDeviceQueue::new(RING, size);

        // Both sides start at slot 0 with wrap = true; track our own
        // reference copy of the device's expected position.
        let mut slot = 0u16;
        let mut wrap = true;
        for t in 0..transfers {
            let id = drv.add(&mut mem, &bufs(chain_len, t)).unwrap();
            // The head descriptor is available under the current wrap…
            let head = PackedDesc::read_at(&mem, RING, slot);
            prop_assert!(head.is_avail(wrap), "t{} head flags {:#06x} wrap {}", t, head.flags, wrap);
            prop_assert!(!head.is_used(wrap), "avail and used are exclusive");
            // …and its raw bits match the §2.8.1 encoding:
            // AVAIL = wrap, USED = !wrap.
            prop_assert_eq!(head.flags & PACKED_F_AVAIL != 0, wrap);
            prop_assert_eq!(head.flags & PACKED_F_USED != 0, !wrap);

            let chain = dev.try_take(&mem).unwrap();
            prop_assert_eq!(chain.id, id);
            prop_assert_eq!(chain.start_slot, slot);
            prop_assert_eq!(chain.wrap, wrap);
            dev.complete(&mut mem, &chain, t as u32);

            // After completion the same slot reads as used for the
            // driver's wrap — AVAIL == USED == wrap.
            let done = PackedDesc::read_at(&mem, RING, slot);
            prop_assert!(done.is_used(wrap));
            prop_assert!(!done.is_avail(wrap));
            prop_assert_eq!(done.flags & PACKED_F_AVAIL != 0, wrap);
            prop_assert_eq!(done.flags & PACKED_F_USED != 0, wrap);

            let used = drv.pop_used(&mem).unwrap();
            prop_assert_eq!(used.id, id);
            prop_assert_eq!(used.len, t as u32);
            prop_assert_eq!(drv.num_free(), size);

            // Advance the reference position by the chain length,
            // flipping the reference wrap counter at the ring boundary.
            for _ in 0..chain_len {
                slot += 1;
                if slot == size {
                    slot = 0;
                    wrap = !wrap;
                }
            }
        }
        // Nothing is pending once the ledger is square.
        prop_assert!(dev.try_take(&mem).is_none());
        prop_assert!(drv.pop_used(&mem).is_none());
    }

    /// A descriptor from the *previous* lap must never look available or
    /// used again once the counters have flipped: for every (flags,
    /// wrap) combination, at most one of is_avail/is_used holds, and
    /// flipping the wrap swaps which one.
    #[test]
    fn flag_predicates_are_exclusive_and_wrap_sensitive(flags in any::<u16>()) {
        let d = PackedDesc { addr: 0, len: 0, id: 0, flags };
        for wrap in [false, true] {
            prop_assert!(
                !(d.is_avail(wrap) && d.is_used(wrap)),
                "flags {:#06x} wrap {}: avail and used both set",
                flags, wrap
            );
        }
        // AVAIL != USED (a fresh avail descriptor) is visible under
        // exactly one wrap value; AVAIL == USED (a completed one) is
        // used under exactly one wrap value.
        let avail = flags & PACKED_F_AVAIL != 0;
        let used = flags & PACKED_F_USED != 0;
        if avail != used {
            prop_assert!(d.is_avail(avail) && !d.is_avail(!avail));
            prop_assert!(!d.is_used(avail) && !d.is_used(!avail));
        } else {
            prop_assert!(d.is_used(avail) && !d.is_used(!avail));
            prop_assert!(!d.is_avail(avail) && !d.is_avail(!avail));
        }
    }

    /// Pipelined workload with arbitrary interleaving: the driver's
    /// used-side wrap counter must stay in lockstep with the device's
    /// take-side counter even when completions are harvested lazily, in
    /// batches, across ring wraps.
    #[test]
    fn lazy_harvest_survives_wraps(
        ops in vec((1usize..4, 0usize..5), 4..60),
        size_pow in 2u32..5, // sizes 4..16
    ) {
        let size = 1u16 << size_pow;
        let mut mem = VecMemory::new(1 << 20);
        let mut drv = PackedDriverQueue::new(RING, size);
        let mut dev = PackedDeviceQueue::new(RING, size);

        // In-flight ledger: (id, chain_len) in publish order.
        let mut inflight: std::collections::VecDeque<(u16, usize)> = Default::default();
        let mut completed: std::collections::VecDeque<(u16, u32)> = Default::default();
        let mut seq = 0u32;

        for (k, &(chain_len, harvest)) in ops.iter().enumerate() {
            let chain_len = chain_len.min(size as usize);
            // Add if there is room; otherwise force a full drain first
            // (the adversarial case: drain begins mid-ring, mid-wrap).
            if drv.add(&mut mem, &bufs(chain_len, k)).is_none() {
                while let Some(chain) = dev.try_take(&mem) {
                    dev.complete(&mut mem, &chain, seq);
                    completed.push_back((chain.id, seq));
                    seq += 1;
                }
                while let Some(u) = drv.pop_used(&mem) {
                    let (id, want) = completed.pop_front().unwrap();
                    prop_assert_eq!(u.id, id);
                    prop_assert_eq!(u.len, want);
                    let (qid, _) = inflight.pop_front().unwrap();
                    prop_assert_eq!(id, qid);
                }
                prop_assert_eq!(drv.num_free(), size);
                let id = drv.add(&mut mem, &bufs(chain_len, k)).unwrap();
                inflight.push_back((id, chain_len));
            } else {
                // The id the driver handed out is deterministic; re-read
                // it from the device side below.
                let chain = dev.try_take(&mem).unwrap();
                prop_assert_eq!(chain.bufs.len(), chain_len);
                inflight.push_back((chain.id, chain_len));
                dev.complete(&mut mem, &chain, seq);
                completed.push_back((chain.id, seq));
                seq += 1;
            }
            // Device keeps consuming anything else pending.
            while let Some(chain) = dev.try_take(&mem) {
                dev.complete(&mut mem, &chain, seq);
                completed.push_back((chain.id, seq));
                seq += 1;
            }
            // Driver harvests at most `harvest` completions — possibly
            // zero, leaving used entries to be found a lap later.
            for _ in 0..harvest {
                match drv.pop_used(&mem) {
                    None => break,
                    Some(u) => {
                        let (id, want) = completed.pop_front().unwrap();
                        prop_assert_eq!(u.id, id);
                        prop_assert_eq!(u.len, want);
                        let (qid, _) = inflight.pop_front().unwrap();
                        prop_assert_eq!(id, qid);
                    }
                }
            }
        }

        // Final drain: everything still in flight comes back in order.
        while let Some(chain) = dev.try_take(&mem) {
            dev.complete(&mut mem, &chain, seq);
            completed.push_back((chain.id, seq));
            seq += 1;
        }
        while let Some(u) = drv.pop_used(&mem) {
            let (id, want) = completed.pop_front().unwrap();
            prop_assert_eq!(u.id, id);
            prop_assert_eq!(u.len, want);
            let (qid, _) = inflight.pop_front().unwrap();
            prop_assert_eq!(id, qid);
        }
        prop_assert!(inflight.is_empty(), "every chain must complete");
        prop_assert!(completed.is_empty());
        prop_assert_eq!(drv.num_free(), size, "slots conserved across wraps");
    }

    /// The free-slot ledger is exact at every step: adds debit by chain
    /// length, harvests credit by chain length, and a full ring rejects
    /// the next add without corrupting state.
    #[test]
    fn num_free_is_an_exact_ledger(
        chain_lens in vec(1usize..4, 1..40),
        size_pow in 2u32..5,
    ) {
        let size = 1u16 << size_pow;
        let mut mem = VecMemory::new(1 << 20);
        let mut drv = PackedDriverQueue::new(RING, size);
        let mut dev = PackedDeviceQueue::new(RING, size);
        let mut outstanding: u16 = 0;
        let mut pending: std::collections::VecDeque<usize> = Default::default();

        for (k, &n) in chain_lens.iter().enumerate() {
            let n16 = n as u16;
            match drv.add(&mut mem, &bufs(n, k)) {
                Some(_) => {
                    outstanding += n16;
                    pending.push_back(n);
                }
                None => {
                    // Must be a genuine capacity failure…
                    prop_assert!(n16 > size - outstanding);
                    // …and rejection must not have consumed anything.
                    prop_assert_eq!(drv.num_free(), size - outstanding);
                    // Recover one chain end-to-end and retry: now it fits
                    // iff the ledger says so.
                    let chain = dev.try_take(&mem).expect("outstanding work");
                    dev.complete(&mut mem, &chain, 0);
                    drv.pop_used(&mem).unwrap();
                    outstanding -= pending.pop_front().unwrap() as u16;
                    if n16 <= size - outstanding {
                        prop_assert!(drv.add(&mut mem, &bufs(n, k)).is_some());
                        outstanding += n16;
                        pending.push_back(n);
                    }
                }
            }
            prop_assert_eq!(drv.num_free(), size - outstanding);
        }
    }
}
