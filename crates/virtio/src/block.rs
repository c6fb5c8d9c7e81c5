//! virtio-blk device type — the "more VirtIO device types" contribution
//! bullet. A request queue carries 3-part chains: a 16-byte readable
//! header, the data buffers, and a 1-byte writable status footer
//! (VirtIO 1.2 §5.2.6).

use std::sync::Arc;

use vf_pcie::ZeroedBuf;

use crate::device_queue::ChainBuf;
use crate::mem::GuestMemory;

/// Queue index of the request queue.
pub const REQUEST_QUEUE: u16 = 0;

/// Sector size the spec fixes for request addressing.
pub const SECTOR_SIZE: usize = 512;

/// virtio-blk feature bits.
pub mod feature {
    /// Maximum segment count in `seg_max` is valid.
    pub const SEG_MAX: u64 = 1 << 2;
    /// Device is read-only.
    pub const RO: u64 = 1 << 5;
    /// Flush command supported.
    pub const FLUSH: u64 = 1 << 9;
}

/// Request types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum BlkReqType {
    /// Read sectors.
    In = 0,
    /// Write sectors.
    Out = 1,
    /// Flush the write cache.
    Flush = 4,
}

/// Request status byte values.
pub mod blk_status {
    /// Success.
    pub const OK: u8 = 0;
    /// I/O error.
    pub const IOERR: u8 = 1;
    /// Unsupported request.
    pub const UNSUPP: u8 = 2;
}

/// `struct virtio_blk_config` (abridged to the fields the testbed uses).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VirtioBlkConfig {
    /// Device capacity in 512-byte sectors.
    pub capacity: u64,
    /// Maximum segments per request.
    pub seg_max: u32,
}

impl VirtioBlkConfig {
    /// Encoded size of the exposed fields.
    pub const LEN: usize = 16;

    /// Serialize to config-space layout (capacity at 0, seg_max at 12 per
    /// the spec's field order with size_max at 8 left zero).
    pub fn to_bytes(self) -> [u8; Self::LEN] {
        let mut b = [0u8; Self::LEN];
        b[0..8].copy_from_slice(&self.capacity.to_le_bytes());
        b[12..16].copy_from_slice(&self.seg_max.to_le_bytes());
        b
    }

    /// MMIO read of `len` bytes at `off`.
    pub fn read(&self, off: u64, len: usize) -> u64 {
        let bytes = self.to_bytes();
        let mut v = 0u64;
        for i in 0..len.min(8) {
            let idx = off as usize + i;
            let byte = if idx < Self::LEN { bytes[idx] } else { 0 };
            v |= (byte as u64) << (8 * i);
        }
        v
    }
}

/// A parsed block request (header + data placement + status slot).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlkRequest {
    /// Request type.
    pub req_type: BlkReqType,
    /// Starting sector.
    pub sector: u64,
    /// `(addr, len, writable)` of each data buffer.
    pub data: Vec<(u64, u32, bool)>,
    /// Address of the 1-byte status footer.
    pub status_addr: u64,
}

/// Request-parsing failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlkParseError {
    /// Chain has fewer than header + status descriptors.
    TooShort,
    /// Header descriptor is not 16 readable bytes.
    BadHeader,
    /// Status descriptor is not 1 writable byte.
    BadStatus,
    /// Unknown request type.
    UnknownType(u32),
}

impl BlkRequest {
    /// Parse a request chain's buffers: readable 16-byte header, data
    /// descriptors, writable 1-byte status.
    pub fn parse<M: GuestMemory>(mem: &M, bufs: &[ChainBuf]) -> Result<BlkRequest, BlkParseError> {
        if bufs.len() < 2 {
            return Err(BlkParseError::TooShort);
        }
        let hdr = bufs[0];
        if hdr.writable || hdr.len != 16 {
            return Err(BlkParseError::BadHeader);
        }
        let status = *bufs.last().unwrap();
        if !status.writable || status.len != 1 {
            return Err(BlkParseError::BadStatus);
        }
        let raw_type = mem.read_u32(hdr.addr);
        let req_type = match raw_type {
            0 => BlkReqType::In,
            1 => BlkReqType::Out,
            4 => BlkReqType::Flush,
            other => return Err(BlkParseError::UnknownType(other)),
        };
        let sector = mem.read_u64(hdr.addr + 8);
        let data = bufs[1..bufs.len() - 1]
            .iter()
            .map(|b| (b.addr, b.len, b.writable))
            .collect();
        Ok(BlkRequest {
            req_type,
            sector,
            data,
            status_addr: status.addr,
        })
    }

    /// Encode a request header into guest memory (driver-side helper).
    pub fn write_header<M: GuestMemory>(mem: &mut M, addr: u64, req_type: BlkReqType, sector: u64) {
        mem.write_u32(addr, req_type as u32);
        mem.write_u32(addr + 4, 0); // reserved
        mem.write_u64(addr + 8, sector);
    }
}

/// An in-memory disk backend executing parsed requests — the functional
/// model behind the virtio-blk demo.
///
/// The disk has two layers, as a qcow2 image over a backing file does: a
/// shared read-only backing image, and a private layer that holds every
/// sector the guest has written. A per-sector dirty bit picks the layer
/// a read comes from. The private layer is one all-zero [`ZeroedBuf`] of
/// the full capacity, recycled through the thread's buffer pool: a disk
/// pays only for the pages its writes touch, which are re-zeroed when
/// it drops, instead of a fresh 16 MiB allocation that the allocator
/// may serve from the heap and clear in full. Any number of disks can
/// share one image without copying it. A disk built with
/// [`MemDisk::new`] sits over an all-zero image.
#[derive(Debug)]
pub struct MemDisk {
    /// Private layer, indexed by disk offset.
    sectors: ZeroedBuf,
    /// Backing image, at least as long as the disk.
    image: Arc<[u8]>,
    /// Per-sector dirty bit: set once the sector lives in `sectors`.
    dirty: Vec<bool>,
    read_only: bool,
    /// Completed flush commands (for tests/reports).
    pub flushes: u64,
}

impl MemDisk {
    /// A zeroed disk of `capacity` sectors.
    pub fn new(capacity: u64, read_only: bool) -> Self {
        let image = vec![0; capacity as usize * SECTOR_SIZE].into();
        MemDisk::with_image(capacity, image, read_only)
    }

    /// A disk of `capacity` sectors that reads `image` until a sector is
    /// written. The image is shared, not copied, and may be longer than
    /// the disk; a read-only disk still ships with its content. Panics
    /// when the image is shorter than the disk: the image is testbed
    /// setup, not a guest-controlled path.
    pub fn with_image(capacity: u64, image: Arc<[u8]>, read_only: bool) -> Self {
        let len = capacity as usize * SECTOR_SIZE;
        assert!(image.len() >= len, "backing image shorter than the disk");
        MemDisk {
            sectors: ZeroedBuf::new(len),
            image,
            dirty: vec![false; capacity as usize],
            read_only,
            flushes: 0,
        }
    }

    /// Capacity in sectors.
    pub fn capacity(&self) -> u64 {
        (self.sectors.len() / SECTOR_SIZE) as u64
    }

    /// Copy disk bytes `[s, e)` to guest memory at `addr`, one write per
    /// run of sectors that come from the same layer.
    fn read_span<M: GuestMemory>(&self, mem: &mut M, addr: u64, s: usize, e: usize) {
        let mut pos = s;
        while pos < e {
            let dirty = self.dirty[pos / SECTOR_SIZE];
            let mut end = (pos / SECTOR_SIZE + 1) * SECTOR_SIZE;
            while end < e && self.dirty[end / SECTOR_SIZE] == dirty {
                end += SECTOR_SIZE;
            }
            let end = end.min(e);
            let layer: &[u8] = if dirty { &self.sectors } else { &self.image };
            mem.write(addr + (pos - s) as u64, &layer[pos..end]);
            pos = end;
        }
    }

    /// Copy guest memory at `addr` into disk bytes `[s, e)`. A clean
    /// sector the span covers only in part first takes its image bytes,
    /// so the rest of it reads as before.
    fn write_span<M: GuestMemory>(&mut self, mem: &M, addr: u64, s: usize, e: usize) {
        for sector in s / SECTOR_SIZE..e.div_ceil(SECTOR_SIZE) {
            if self.dirty[sector] {
                continue;
            }
            let (a, b) = (sector * SECTOR_SIZE, (sector + 1) * SECTOR_SIZE);
            if a < s || b > e {
                self.sectors
                    .range_mut(a..b)
                    .copy_from_slice(&self.image[a..b]);
            }
            self.dirty[sector] = true;
        }
        mem.read(addr, self.sectors.range_mut(s..e));
    }

    /// Byte range `[start, start+len)` of a request segment, or `None`
    /// when the arithmetic overflows or the range leaves the disk. The
    /// sector is guest-controlled: `sector * 512` near `u64::MAX` must
    /// wrap into an IOERR, never into a bounds-check bypass.
    fn span(&self, off: Option<usize>, len: u32) -> Option<(usize, usize)> {
        let start = off?;
        let end = start.checked_add(len as usize)?;
        if end > self.sectors.len() {
            return None;
        }
        Some((start, end))
    }

    /// Execute `req` against guest memory. Returns `(status, bytes
    /// written into guest memory)` — the status byte is *also* written to
    /// `req.status_addr`, and the total includes it, matching what goes
    /// into the used-ring `len` field.
    pub fn execute<M: GuestMemory>(&mut self, mem: &mut M, req: &BlkRequest) -> (u8, u32) {
        let mut written = 0u32;
        let start = usize::try_from(req.sector)
            .ok()
            .and_then(|s| s.checked_mul(SECTOR_SIZE));
        let status = match req.req_type {
            BlkReqType::Flush => {
                self.flushes += 1;
                blk_status::OK
            }
            BlkReqType::In => {
                let mut off = start;
                let mut ok = blk_status::OK;
                for &(addr, len, writable) in &req.data {
                    let Some((s, e)) = self.span(off, len).filter(|_| writable) else {
                        ok = blk_status::IOERR;
                        break;
                    };
                    self.read_span(mem, addr, s, e);
                    written += len;
                    off = Some(e);
                }
                ok
            }
            BlkReqType::Out => {
                if self.read_only {
                    blk_status::IOERR
                } else {
                    let mut off = start;
                    let mut ok = blk_status::OK;
                    for &(addr, len, writable) in &req.data {
                        let Some((s, e)) = self.span(off, len).filter(|_| !writable) else {
                            ok = blk_status::IOERR;
                            break;
                        };
                        self.write_span(mem, addr, s, e);
                        off = Some(e);
                    }
                    ok
                }
            }
        };
        mem.write(req.status_addr, &[status]);
        (status, written + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device_queue::ChainBuf;
    use crate::mem::VecMemory;

    fn chain_of(bufs: &[(u64, u32, bool)]) -> Vec<ChainBuf> {
        bufs.iter()
            .map(|&(addr, len, writable)| ChainBuf {
                addr,
                len,
                writable,
            })
            .collect()
    }

    #[test]
    fn write_then_read_round_trip() {
        let mut mem = VecMemory::new(1 << 16);
        let mut disk = MemDisk::new(8, false);
        // Write request: header @0, data @0x100 (1 sector), status @0x400.
        BlkRequest::write_header(&mut mem, 0, BlkReqType::Out, 2);
        let payload: Vec<u8> = (0..SECTOR_SIZE).map(|i| i as u8).collect();
        mem.write(0x100, &payload);
        let chain = chain_of(&[(0, 16, false), (0x100, 512, false), (0x400, 1, true)]);
        let req = BlkRequest::parse(&mem, &chain).unwrap();
        assert_eq!(req.req_type, BlkReqType::Out);
        assert_eq!(req.sector, 2);
        let (status, _) = disk.execute(&mut mem, &req);
        assert_eq!(status, blk_status::OK);

        // Read it back into 0x1000.
        BlkRequest::write_header(&mut mem, 0x40, BlkReqType::In, 2);
        let chain = chain_of(&[(0x40, 16, false), (0x1000, 512, true), (0x401, 1, true)]);
        let req = BlkRequest::parse(&mem, &chain).unwrap();
        let (status, written) = disk.execute(&mut mem, &req);
        assert_eq!(status, blk_status::OK);
        assert_eq!(written, 513);
        assert_eq!(mem.read_vec(0x1000, 512), payload);
        assert_eq!(mem.read_vec(0x401, 1), vec![blk_status::OK]);
    }

    #[test]
    fn image_backed_disk_copies_on_write() {
        let image: Arc<[u8]> = (0..4 * SECTOR_SIZE).map(|i| (i / 7) as u8).collect();
        let mut mem = VecMemory::new(1 << 16);
        let mut disk = MemDisk::with_image(3, image.clone(), false);
        // Write all of sector 1 and the first 100 bytes of sector 2.
        BlkRequest::write_header(&mut mem, 0, BlkReqType::Out, 1);
        mem.write(0x100, &[0xEE; 612]);
        let chain = chain_of(&[(0, 16, false), (0x100, 612, false), (0x400, 1, true)]);
        let req = BlkRequest::parse(&mem, &chain).unwrap();
        assert_eq!(disk.execute(&mut mem, &req).0, blk_status::OK);

        // Read all three sectors: image, image + write, write + image.
        BlkRequest::write_header(&mut mem, 0x40, BlkReqType::In, 0);
        let chain = chain_of(&[(0x40, 16, false), (0x1000, 1536, true), (0x401, 1, true)]);
        let req = BlkRequest::parse(&mem, &chain).unwrap();
        assert_eq!(disk.execute(&mut mem, &req), (blk_status::OK, 1537));
        let mut want = image[..1536].to_vec();
        want[512..1124].fill(0xEE);
        assert_eq!(mem.read_vec(0x1000, 1536), want);
        // The shared image itself never changes.
        assert_eq!(image[1000], (1000 / 7) as u8);
    }

    #[test]
    fn read_only_disk_rejects_writes() {
        let mut mem = VecMemory::new(1 << 16);
        let mut disk = MemDisk::new(4, true);
        BlkRequest::write_header(&mut mem, 0, BlkReqType::Out, 0);
        let chain = chain_of(&[(0, 16, false), (0x100, 512, false), (0x400, 1, true)]);
        let req = BlkRequest::parse(&mem, &chain).unwrap();
        let (status, _) = disk.execute(&mut mem, &req);
        assert_eq!(status, blk_status::IOERR);
    }

    #[test]
    fn out_of_range_read_errors() {
        let mut mem = VecMemory::new(1 << 16);
        let mut disk = MemDisk::new(2, false);
        BlkRequest::write_header(&mut mem, 0, BlkReqType::In, 5);
        let chain = chain_of(&[(0, 16, false), (0x100, 512, true), (0x400, 1, true)]);
        let req = BlkRequest::parse(&mem, &chain).unwrap();
        let (status, _) = disk.execute(&mut mem, &req);
        assert_eq!(status, blk_status::IOERR);
    }

    #[test]
    fn huge_sector_read_is_ioerr_not_overflow() {
        // Regression: `sector * SECTOR_SIZE` used to be unchecked; a
        // guest-controlled sector near u64::MAX panicked in debug builds
        // and wrapped past the bounds check in release builds.
        let mut mem = VecMemory::new(1 << 16);
        let mut disk = MemDisk::new(4, false);
        BlkRequest::write_header(&mut mem, 0, BlkReqType::In, u64::MAX - 1);
        let chain = chain_of(&[(0, 16, false), (0x100, 512, true), (0x400, 1, true)]);
        let req = BlkRequest::parse(&mem, &chain).unwrap();
        let (status, written) = disk.execute(&mut mem, &req);
        assert_eq!(status, blk_status::IOERR);
        assert_eq!(written, 1, "no data bytes on a failed read");
        assert_eq!(mem.read_vec(0x400, 1), vec![blk_status::IOERR]);
    }

    #[test]
    fn huge_sector_write_is_ioerr_not_overflow() {
        let mut mem = VecMemory::new(1 << 16);
        let mut disk = MemDisk::new(4, false);
        BlkRequest::write_header(&mut mem, 0, BlkReqType::Out, u64::MAX / 512 + 1);
        let chain = chain_of(&[(0, 16, false), (0x100, 512, false), (0x400, 1, true)]);
        let req = BlkRequest::parse(&mem, &chain).unwrap();
        let (status, _) = disk.execute(&mut mem, &req);
        assert_eq!(status, blk_status::IOERR);
        assert_eq!(mem.read_vec(0x400, 1), vec![blk_status::IOERR]);
        // Disk contents untouched.
        assert!(disk.sectors.iter().all(|&b| b == 0));
    }

    #[test]
    fn segment_end_overflow_is_ioerr() {
        // A valid start offset whose segment end overflows usize must
        // also fail cleanly.
        let mut mem = VecMemory::new(1 << 16);
        let mut disk = MemDisk::new(4, false);
        BlkRequest::write_header(&mut mem, 0, BlkReqType::In, 3);
        let chain = chain_of(&[(0, 16, false), (0x100, u32::MAX, true), (0x400, 1, true)]);
        let req = BlkRequest::parse(&mem, &chain).unwrap();
        let (status, _) = disk.execute(&mut mem, &req);
        assert_eq!(status, blk_status::IOERR);
    }

    #[test]
    fn flush_counts() {
        let mut mem = VecMemory::new(4096);
        let mut disk = MemDisk::new(2, false);
        BlkRequest::write_header(&mut mem, 0, BlkReqType::Flush, 0);
        let chain = chain_of(&[(0, 16, false), (0x400, 1, true)]);
        let req = BlkRequest::parse(&mem, &chain).unwrap();
        let (status, written) = disk.execute(&mut mem, &req);
        assert_eq!(status, blk_status::OK);
        assert_eq!(written, 1);
        assert_eq!(disk.flushes, 1);
    }

    #[test]
    fn parse_errors() {
        let mem = VecMemory::new(4096);
        assert_eq!(
            BlkRequest::parse(&mem, &chain_of(&[(0, 16, false)])).unwrap_err(),
            BlkParseError::TooShort
        );
        assert_eq!(
            BlkRequest::parse(&mem, &chain_of(&[(0, 8, false), (0x400, 1, true)])).unwrap_err(),
            BlkParseError::BadHeader
        );
        assert_eq!(
            BlkRequest::parse(&mem, &chain_of(&[(0, 16, false), (0x400, 2, true)])).unwrap_err(),
            BlkParseError::BadStatus
        );
        let mut mem = VecMemory::new(4096);
        mem.write_u32(0, 99);
        assert_eq!(
            BlkRequest::parse(&mem, &chain_of(&[(0, 16, false), (0x400, 1, true)])).unwrap_err(),
            BlkParseError::UnknownType(99)
        );
    }

    #[test]
    fn config_encoding() {
        let c = VirtioBlkConfig {
            capacity: 0x1_0000,
            seg_max: 4,
        };
        assert_eq!(c.read(0, 8), 0x1_0000);
        assert_eq!(c.read(12, 4), 4);
    }
}
