//! Property tests on the virtio-blk request model: header encode/parse
//! must round-trip for every request shape, the chain walk + `MemDisk`
//! execution must hold its invariants — status byte always written,
//! `written` count consistent, guest-controlled sectors and segment
//! lists never panicking — for arbitrary inputs, and a disk over a
//! backing image must behave like a flat copy of the image.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use vf_pcie::ZeroedBuf;
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

/// One request of a copy-on-write script: type, sector, and each data
/// segment's `(len, wrong direction)`.
type ScriptOp = (BlkReqType, u64, Vec<(u32, bool)>);

fn script_op_strategy() -> impl Strategy<Value = ScriptOp> {
    let sector = prop_oneof![0u64..20, 0u64..20, 0u64..20, Just(u64::MAX / 512 + 1)];
    let len = prop_oneof![
        0u32..1300,
        Just(0u32),
        Just(SECTOR_SIZE as u32),
        Just(1024u32)
    ];
    let wrong_dir = (0u8..10).prop_map(|x| x == 0);
    (req_type_strategy(), sector, vec((len, wrong_dir), 0..4))
}

/// Deterministic filler bytes (SplitMix64 over `seed`).
fn bytes(seed: u64, n: usize) -> Vec<u8> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

/// The flat-disk reference: `execute` as it was before the disk grew a
/// backing image, over one plain buffer holding the whole disk.
fn flat_execute(
    flat: &mut [u8],
    read_only: bool,
    mem: &mut VecMemory,
    req: &BlkRequest,
) -> (u8, u32) {
    let cap = flat.len();
    let span = |off: Option<usize>, len: u32| {
        let s = off?;
        let e = s.checked_add(len as usize)?;
        (e <= cap).then_some((s, e))
    };
    let start = usize::try_from(req.sector)
        .ok()
        .and_then(|s| s.checked_mul(SECTOR_SIZE));
    let mut written = 0u32;
    let mut status = blk_status::OK;
    match req.req_type {
        BlkReqType::Flush => {}
        BlkReqType::In => {
            let mut off = start;
            for &(addr, len, writable) in &req.data {
                let Some((s, e)) = span(off, len).filter(|_| writable) else {
                    status = blk_status::IOERR;
                    break;
                };
                mem.write(addr, &flat[s..e]);
                written += len;
                off = Some(e);
            }
        }
        BlkReqType::Out if read_only => status = blk_status::IOERR,
        BlkReqType::Out => {
            let mut off = start;
            for &(addr, len, writable) in &req.data {
                let Some((s, e)) = span(off, len).filter(|_| !writable) else {
                    status = blk_status::IOERR;
                    break;
                };
                flat[s..e].copy_from_slice(&mem.read_vec(addr, len as usize));
                off = Some(e);
            }
        }
    }
    mem.write(req.status_addr, &[status]);
    (status, written + 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A disk over a shared backing image behaves exactly like a flat
    /// copy of that image, request by request: unaligned, zero-length,
    /// wrong-direction and out-of-range segments, read-only disks, and
    /// images longer than the disk included. The image itself is never
    /// written, and the private layer the dropped disk returns to the
    /// thread's buffer pool is all-zero again.
    #[test]
    fn copy_on_write_disk_matches_flat_disk(
        capacity in 1u64..17,
        extra_sectors in 0usize..3,
        seed in any::<u64>(),
        read_only in any::<bool>(),
        script in vec(script_op_strategy(), 1..24),
    ) {
        let disk_len = capacity as usize * SECTOR_SIZE;
        let image: Arc<[u8]> = bytes(seed, disk_len + extra_sectors * SECTOR_SIZE).into();
        let pristine = image.to_vec();
        // The disk's private layer will be this pooled buffer.
        let layer_ptr = ZeroedBuf::new(disk_len).as_ptr();
        let mut disk = MemDisk::with_image(capacity, image.clone(), read_only);
        let mut flat = image[..disk_len].to_vec();
        let mut mem = VecMemory::new(1 << 15);
        let mut flat_mem = VecMemory::new(1 << 15);

        for (step, (ty, sector, segs)) in script.iter().enumerate() {
            let mut bufs = vec![(0u64, 16u32, false)];
            for (i, &(len, wrong_dir)) in segs.iter().enumerate() {
                let addr = 0x1000 + i as u64 * 0x1000;
                // The guest buffer a write sends (or a read overwrites).
                let fill = bytes(seed ^ (step * 4 + i) as u64, len as usize);
                mem.write(addr, &fill);
                flat_mem.write(addr, &fill);
                bufs.push((addr, len, (*ty == BlkReqType::In) != wrong_dir));
            }
            bufs.push((0x7000, 1, true));
            BlkRequest::write_header(&mut mem, 0, *ty, *sector);
            BlkRequest::write_header(&mut flat_mem, 0, *ty, *sector);
            let req = BlkRequest::parse(&mem, &chain_of(&bufs)).unwrap();

            let got = disk.execute(&mut mem, &req);
            let want = flat_execute(&mut flat, read_only, &mut flat_mem, &req);
            prop_assert_eq!(got, want, "status and length at step {}", step);
            prop_assert!(mem.raw() == flat_mem.raw(), "guest memory differs at step {}", step);
        }

        // A final whole-disk read sees the flat disk's bytes.
        let mut bufs = vec![(0u64, 16u32, false)];
        bufs.push((0x1000, disk_len as u32, true));
        bufs.push((0x7000, 1, true));
        BlkRequest::write_header(&mut mem, 0, BlkReqType::In, 0);
        let req = BlkRequest::parse(&mem, &chain_of(&bufs)).unwrap();
        prop_assert_eq!(disk.execute(&mut mem, &req).0, blk_status::OK);
        prop_assert!(mem.read_vec(0x1000, disk_len) == flat, "final disk contents differ");
        prop_assert!(image[..] == pristine[..], "the backing image was written");

        drop(disk);
        let layer = ZeroedBuf::new(disk_len);
        prop_assert_eq!(layer.as_ptr(), layer_ptr, "disk layer was not recycled");
        prop_assert!(layer.iter().all(|&b| b == 0), "recycled disk layer not zero");
    }
}
