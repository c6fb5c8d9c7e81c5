//! Property tests on the virtqueue protocol: for arbitrary operation
//! sequences, the ring must conserve descriptors, deliver every chain
//! exactly once, in order, with intact buffer lists.

use proptest::collection::vec;
use proptest::prelude::*;

use vf_virtio::device_queue::DeviceQueue;
use vf_virtio::driver_queue::{BufferSpec, DriverQueue, QueueError};
use vf_virtio::ring::{vring_need_event, VirtqueueLayout};
use vf_virtio::VecMemory;

/// A workload step: add a chain of `readable`/`writable` buffer counts,
/// or let the device complete up to `n` pending chains.
#[derive(Clone, Debug)]
enum Step {
    Add { readable: u8, writable: u8 },
    Complete { n: u8 },
    DriverHarvest,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..4, 0u8..4).prop_map(|(readable, writable)| Step::Add { readable, writable }),
        (1u8..6).prop_map(|n| Step::Complete { n }),
        Just(Step::DriverHarvest),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ring_conserves_descriptors(
        steps in vec(step_strategy(), 1..120),
        size_pow in 2u32..7, // queue sizes 4..64
        event_idx in any::<bool>(),
    ) {
        let size = 1u16 << size_pow;
        let mut mem = VecMemory::new(1 << 20);
        let layout = VirtqueueLayout::contiguous(0x1000, size);
        let mut drv = DriverQueue::new(&mut mem, layout, event_idx);
        let mut dev = DeviceQueue::new(layout, event_idx, false);

        let mut published: Vec<(u16, usize)> = Vec::new(); // (head, len), order log
        let mut dev_seen: Vec<(u16, usize)> = Vec::new();
        let mut inflight: std::collections::HashMap<u16, usize> = Default::default();
        let mut outstanding = 0u16;

        for step in steps {
            match step {
                Step::Add { readable, writable } => {
                    let total = readable as u16 + writable as u16;
                    if total == 0 {
                        prop_assert_eq!(
                            drv.add_chain(&mut mem, &[]).unwrap_err(),
                            QueueError::EmptyChain
                        );
                        continue;
                    }
                    let mut bufs = Vec::new();
                    for i in 0..readable {
                        bufs.push(BufferSpec::readable(0x10_000 + i as u64 * 64, 64));
                    }
                    for i in 0..writable {
                        bufs.push(BufferSpec::writable(0x20_000 + i as u64 * 64, 64));
                    }
                    match drv.add_and_publish(&mut mem, &bufs) {
                        Ok(head) => {
                            published.push((head, bufs.len()));
                            inflight.insert(head, bufs.len());
                            outstanding += total;
                        }
                        Err(QueueError::NoSpace { needed, free }) => {
                            prop_assert!(needed > free);
                            prop_assert_eq!(free, size - outstanding);
                        }
                        Err(e) => prop_assert!(false, "unexpected error {:?}", e),
                    }
                }
                Step::Complete { n } => {
                    for _ in 0..n {
                        match dev.pop_chain(&mem).unwrap() {
                            None => break,
                            Some(chain) => {
                                dev_seen.push((chain.head, chain.bufs.len()));
                                let old = dev.complete(&mut mem, chain.head, 0);
                                let _ = dev.should_interrupt(&mem, old);
                            }
                        }
                    }
                }
                Step::DriverHarvest => {
                    while let Some(used) = drv.pop_used(&mut mem) {
                        // Chain returns its descriptors.
                        let len = inflight
                            .remove(&(used.id as u16))
                            .expect("used id was in flight");
                        outstanding -= len as u16;
                    }
                    prop_assert_eq!(drv.num_free(), size - outstanding);
                }
            }
        }

        // Drain: complete everything, harvest everything.
        while let Some(chain) = dev.pop_chain(&mem).unwrap() {
            dev_seen.push((chain.head, chain.bufs.len()));
            dev.complete(&mut mem, chain.head, 0);
        }
        while drv.pop_used(&mut mem).is_some() {}
        prop_assert_eq!(drv.num_free(), size, "all descriptors must return");

        // The device saw every published chain exactly once, in order,
        // with the right length.
        prop_assert_eq!(dev_seen, published);
    }

    #[test]
    fn chain_buffers_survive_round_trip(
        lens in vec(1u32..2000, 1..8),
        n_writable in 0usize..8,
    ) {
        let mut mem = VecMemory::new(1 << 20);
        let layout = VirtqueueLayout::contiguous(0x1000, 16);
        let mut drv = DriverQueue::new(&mut mem, layout, false);
        let dev = DeviceQueue::new(layout, false, false);
        let n_writable = n_writable.min(lens.len());
        let n_readable = lens.len() - n_writable;
        let bufs: Vec<BufferSpec> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                let addr = 0x40_000 + i as u64 * 0x1000;
                if i < n_readable {
                    BufferSpec::readable(addr, len)
                } else {
                    BufferSpec::writable(addr, len)
                }
            })
            .collect();
        drv.add_and_publish(&mut mem, &bufs).unwrap();
        let (chain, fetches) = dev.resolve_at(&mem, 0).unwrap();
        prop_assert_eq!(fetches, lens.len());
        prop_assert_eq!(chain.bufs.len(), lens.len());
        for (spec, got) in bufs.iter().zip(&chain.bufs) {
            prop_assert_eq!(spec.addr, got.addr);
            prop_assert_eq!(spec.len, got.len);
            prop_assert_eq!(spec.writable, got.writable);
        }
        prop_assert_eq!(
            chain.readable_len() + chain.writable_len(),
            lens.iter().sum::<u32>()
        );
    }

    #[test]
    fn need_event_matches_reference(event in any::<u16>(), new in any::<u16>(), old in any::<u16>()) {
        // Reference: the notification fires iff `event` lies in the
        // half-open wrap-aware interval [old, new).
        let fired = vring_need_event(event, new, old);
        let crossed = {
            let dist_new = new.wrapping_sub(old);
            let dist_event = event.wrapping_sub(old);
            dist_event < dist_new
        };
        prop_assert_eq!(fired, crossed);
    }

    #[test]
    fn layout_structures_never_overlap(size_pow in 0u32..15, base_pages in 0u64..64) {
        let size = 1u16 << size_pow;
        let base = base_pages * 4096;
        let l = VirtqueueLayout::contiguous(base, size);
        let desc_end = l.desc + size as u64 * 16;
        let avail_end = l.avail + VirtqueueLayout::avail_bytes(size);
        let used_end = l.used + VirtqueueLayout::used_bytes(size);
        prop_assert!(l.desc >= base);
        prop_assert!(l.avail >= desc_end);
        prop_assert!(l.used >= avail_end);
        prop_assert_eq!(l.total_bytes(), used_end - l.desc);
        prop_assert_eq!(l.desc % 16, 0);
        prop_assert_eq!(l.avail % 2, 0);
        prop_assert_eq!(l.used % 4, 0);
    }
}

mod packed_props {
    use proptest::collection::vec;
    use proptest::prelude::*;
    use vf_virtio::packed::{PackedDeviceQueue, PackedDriverQueue};
    use vf_virtio::{BufferSpec, VecMemory};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// For arbitrary chain-length sequences, the packed ring delivers
        /// every chain once, in order, and conserves slots — including
        /// across many wrap-counter flips.
        #[test]
        fn packed_ring_conserves_slots(
            chains in vec(1usize..5, 1..80),
            size_pow in 2u32..6,
        ) {
            let size = 1u16 << size_pow;
            let mut mem = VecMemory::new(1 << 20);
            let mut drv = PackedDriverQueue::new(0x1000, size);
            let mut dev = PackedDeviceQueue::new(0x1000, size);
            let mut queued: std::collections::VecDeque<(u16, usize)> = Default::default();
            for (k, &n) in chains.iter().enumerate() {
                let bufs: Vec<BufferSpec> = (0..n)
                    .map(|i| BufferSpec {
                        addr: 0x10_000 + (k * 8 + i) as u64 * 64,
                        len: 64,
                        writable: i == n - 1,
                    })
                    .collect();
                match drv.add(&mut mem, &bufs) {
                    Some(id) => queued.push_back((id, n)),
                    None => {
                        // Ring full: drain chains end-to-end until the
                        // add fits.
                        loop {
                            let chain =
                                dev.try_take(&mem).expect("full ring has pending work");
                            dev.complete(&mut mem, &chain, 7);
                            let used = drv.pop_used(&mem).unwrap();
                            let (id, len) = queued.pop_front().unwrap();
                            prop_assert_eq!(used.id, id);
                            prop_assert_eq!(chain.bufs.len(), len);
                            if let Some(id2) = drv.add(&mut mem, &bufs) {
                                queued.push_back((id2, n));
                                break;
                            }
                        }
                    }
                }
            }
            // Drain the rest in order.
            while let Some((id, len)) = queued.pop_front() {
                let chain = dev.try_take(&mem).expect("pending chain");
                prop_assert_eq!(chain.id, id);
                prop_assert_eq!(chain.bufs.len(), len);
                prop_assert!(chain.bufs.last().unwrap().writable, "last buffer writable");
                dev.complete(&mut mem, &chain, 1);
                prop_assert_eq!(drv.pop_used(&mem).unwrap().id, id);
            }
            prop_assert_eq!(drv.num_free(), size);
            prop_assert!(dev.try_take(&mem).is_none());
        }
    }
}

mod layout_equivalence {
    use proptest::collection::vec;
    use proptest::prelude::*;
    use vf_virtio::device_queue::DeviceQueue;
    use vf_virtio::driver_queue::{BufferSpec, DriverQueue};
    use vf_virtio::packed::{PackedDeviceQueue, PackedDriverQueue};
    use vf_virtio::ring::VirtqueueLayout;
    use vf_virtio::VecMemory;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Split and packed layouts are behaviourally equivalent for any
        /// in-window workload: the same sequence of chains comes out in
        /// the same order with the same buffer lists on both.
        #[test]
        fn split_and_packed_deliver_identically(
            chains in vec((1usize..4, 0usize..3), 1..40),
        ) {
            let size = 64u16;
            // Split setup.
            let mut smem = VecMemory::new(1 << 20);
            let layout = VirtqueueLayout::contiguous(0x1000, size);
            let mut sdrv = DriverQueue::new(&mut smem, layout, false);
            let mut sdev = DeviceQueue::new(layout, false, false);
            // Packed setup.
            let mut pmem = VecMemory::new(1 << 20);
            let mut pdrv = PackedDriverQueue::new(0x1000, size);
            let mut pdev = PackedDeviceQueue::new(0x1000, size);

            for (k, &(readable, writable)) in chains.iter().enumerate() {
                let mut sbufs = Vec::new();
                for i in 0..readable + writable {
                    let addr = 0x10_000 + (k * 8 + i) as u64 * 256;
                    let len = 32 + i as u32;
                    let w = i >= readable;
                    sbufs.push(BufferSpec {
                        addr,
                        len,
                        writable: w,
                    });
                }
                sdrv.add_and_publish(&mut smem, &sbufs).unwrap();
                pdrv.add(&mut pmem, &sbufs).unwrap();

                let schain = sdev.pop_chain(&smem).unwrap().unwrap();
                let pchain = pdev.try_take(&pmem).unwrap();
                // Identical buffer lists, element by element.
                prop_assert_eq!(&schain.bufs, &pchain.bufs);
                // Complete on both; both drivers observe it.
                sdev.complete(&mut smem, schain.head, 5);
                pdev.complete(&mut pmem, &pchain, 5);
                prop_assert_eq!(sdrv.pop_used(&mut smem).unwrap().len, 5);
                prop_assert_eq!(pdrv.pop_used(&pmem).unwrap().len, 5);
            }
        }
    }
}
