//! Property tests on the virtio-blk request model: header encode/parse
//! must round-trip for every request shape, and the chain walk +
//! `MemDisk` execution must hold its invariants — status byte always
//! written, `written` count consistent, guest-controlled sectors and
//! segment lists never panicking — for arbitrary inputs.

use proptest::collection::vec;
use proptest::prelude::*;

use vf_virtio::block::{blk_status, BlkReqType, BlkRequest, MemDisk, SECTOR_SIZE};
use vf_virtio::device_queue::ChainBuf;
use vf_virtio::{GuestMemory, VecMemory};

fn chain_of(bufs: &[(u64, u32, bool)]) -> Vec<ChainBuf> {
    bufs.iter()
        .map(|&(addr, len, writable)| ChainBuf {
            addr,
            len,
            writable,
        })
        .collect()
}

fn req_type_strategy() -> impl Strategy<Value = BlkReqType> {
    prop_oneof![
        Just(BlkReqType::In),
        Just(BlkReqType::Out),
        Just(BlkReqType::Flush),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `write_header` → `parse` round-trips the type and sector for any
    /// chain shape: the data segment list comes back exactly as built
    /// (order, lengths, directions), framed by header and status.
    #[test]
    fn header_and_chain_round_trip(
        ty in req_type_strategy(),
        sector in any::<u64>(),
        segs in vec((1u32..4096, any::<bool>()), 0..5),
    ) {
        let mut mem = VecMemory::new(1 << 16);
        BlkRequest::write_header(&mut mem, 0x80, ty, sector);
        let mut bufs = vec![(0x80u64, 16u32, false)];
        for (i, &(len, writable)) in segs.iter().enumerate() {
            bufs.push((0x1000 + i as u64 * 0x1000, len, writable));
        }
        bufs.push((0xF000, 1, true));
        let req = BlkRequest::parse(&mem, &chain_of(&bufs)).unwrap();
        prop_assert_eq!(req.req_type, ty);
        prop_assert_eq!(req.sector, sector);
        prop_assert_eq!(req.status_addr, 0xF000);
        prop_assert_eq!(req.data.len(), segs.len());
        for (got, (want, &(len, writable))) in req.data.iter().zip(bufs[1..].iter().zip(&segs)) {
            prop_assert_eq!(*got, (want.0, len, writable));
        }
    }

    /// Write an arbitrary payload through one segmentation, read it back
    /// through a different one: the bytes must survive, and the used-ring
    /// length must count exactly the data written to guest memory plus
    /// the status byte.
    #[test]
    fn split_write_read_round_trip(
        payload in vec(any::<u8>(), 1..2048),
        sector in 0u64..8,
        write_cut in any::<u16>(),
        read_cut in any::<u16>(),
    ) {
        let mut mem = VecMemory::new(1 << 16);
        let mut disk = MemDisk::new(16, false);
        let n = payload.len() as u32;

        // Write via up to two readable segments split at write_cut.
        let wcut = write_cut as u32 % n;
        mem.write(0x1000, &payload);
        BlkRequest::write_header(&mut mem, 0, BlkReqType::Out, sector);
        let mut bufs = vec![(0u64, 16u32, false)];
        if wcut == 0 {
            bufs.push((0x1000, n, false));
        } else {
            bufs.push((0x1000, wcut, false));
            bufs.push((0x1000 + wcut as u64, n - wcut, false));
        }
        bufs.push((0xF000, 1, true));
        let req = BlkRequest::parse(&mem, &chain_of(&bufs)).unwrap();
        let (status, written) = disk.execute(&mut mem, &req);
        prop_assert_eq!(status, blk_status::OK);
        prop_assert_eq!(written, 1, "writes move no bytes into guest memory");

        // Read back via a differently-placed split at read_cut.
        let rcut = read_cut as u32 % n;
        BlkRequest::write_header(&mut mem, 0x40, BlkReqType::In, sector);
        let mut bufs = vec![(0x40u64, 16u32, false)];
        if rcut == 0 {
            bufs.push((0x8000, n, true));
        } else {
            bufs.push((0x8000, rcut, true));
            bufs.push((0x8000 + rcut as u64, n - rcut, true));
        }
        bufs.push((0xF001, 1, true));
        let req = BlkRequest::parse(&mem, &chain_of(&bufs)).unwrap();
        let (status, written) = disk.execute(&mut mem, &req);
        prop_assert_eq!(status, blk_status::OK);
        prop_assert_eq!(written, n + 1);
        prop_assert_eq!(mem.read_vec(0x8000, payload.len()), payload);
        prop_assert_eq!(mem.read_vec(0xF001, 1), vec![blk_status::OK]);
    }

    /// Guest-controlled chaos: any request type, any sector (including
    /// the overflow range near `u64::MAX`), any segment list (including
    /// wrong-direction and out-of-range segments, and the empty
    /// status-only chain). Execution must never panic, must always write
    /// the status byte, and must only report OK when every segment was
    /// serviceable.
    #[test]
    fn arbitrary_requests_uphold_invariants(
        ty in req_type_strategy(),
        sector in any::<u64>(),
        segs in vec((1u32..0x2_0000, any::<bool>()), 0..5),
        read_only in any::<bool>(),
    ) {
        let mut mem = VecMemory::new(1 << 16);
        let mut disk = MemDisk::new(16, read_only);
        let disk_bytes = 16 * SECTOR_SIZE as u64;
        BlkRequest::write_header(&mut mem, 0, ty, sector);
        let mut bufs = vec![(0u64, 16u32, false)];
        for (i, &(len, writable)) in segs.iter().enumerate() {
            bufs.push((0x1000 + i as u64 * 0x2000, len, writable));
        }
        bufs.push((0xF000, 1, true));
        let req = BlkRequest::parse(&mem, &chain_of(&bufs)).unwrap();
        let (status, written) = disk.execute(&mut mem, &req);

        // The status byte always lands in guest memory and matches.
        prop_assert_eq!(mem.read_vec(0xF000, 1), vec![status]);
        let total: u64 = segs.iter().map(|&(len, _)| len as u64).sum();
        match ty {
            BlkReqType::Flush => {
                prop_assert_eq!(status, blk_status::OK);
                prop_assert_eq!(disk.flushes, 1);
            }
            BlkReqType::In => {
                // A status-only chain walks no segments, so it succeeds
                // without ever evaluating the sector.
                let in_range = sector
                    .checked_mul(SECTOR_SIZE as u64)
                    .and_then(|s| s.checked_add(total))
                    .is_some_and(|end| end <= disk_bytes);
                let all_writable = segs.iter().all(|&(_, w)| w);
                if status == blk_status::OK {
                    prop_assert!(segs.is_empty() || (in_range && all_writable));
                    prop_assert_eq!(written as u64, total + 1);
                } else {
                    prop_assert!(!in_range || !all_writable);
                    prop_assert!((written as u64) < total + 1);
                }
            }
            BlkReqType::Out => {
                if read_only {
                    prop_assert_eq!(status, blk_status::IOERR);
                    prop_assert!(disk.capacity() == 16, "disk shape untouched");
                } else if status == blk_status::OK {
                    let in_range = sector
                        .checked_mul(SECTOR_SIZE as u64)
                        .and_then(|s| s.checked_add(total))
                        .is_some_and(|end| end <= disk_bytes);
                    prop_assert!(
                        segs.is_empty() || (in_range && segs.iter().all(|&(_, w)| !w))
                    );
                }
                // Writes never move data into guest memory.
                prop_assert_eq!(written, 1);
            }
        }
    }
}
