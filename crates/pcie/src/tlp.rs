//! Transaction Layer Packet (TLP) accounting.
//!
//! The link model does not move TLP structs around at runtime — data
//! movement is functional and timing is computed analytically — but every
//! timing computation is expressed in terms of *which* TLPs a transaction
//! emits and how many bytes each occupies on the wire. This module encodes
//! the TLP taxonomy used by the testbed and the wire-size arithmetic from
//! the PCIe Base Specification:
//!
//! * a memory **write** (posted) carries a 3-DW or 4-DW header plus payload;
//! * a memory **read request** (non-posted) is header-only;
//! * a **completion with data** (CplD) carries a 3-DW header plus up to
//!   one Read Completion Boundary worth of payload per TLP;
//! * every TLP additionally pays data-link/physical framing: sequence
//!   number (2 B), LCRC (4 B), and STP/END symbols (2 B at Gen1/2).
//!
//! Max Payload Size (MPS) and Max Read Request Size (MRRS) come from the
//! link configuration and determine how transfers split into TLPs.

/// TLP categories used by the model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TlpKind {
    /// Posted memory write (MWr) — data downstream or upstream.
    MemWrite,
    /// Non-posted memory read request (MRd) — header only.
    MemRead,
    /// Completion with data (CplD) returning read data.
    CplD,
    /// Completion without data (Cpl) — e.g. a zero-length read response.
    Cpl,
    /// Message TLP (interrupt emulation, power management). MSI-X is *not*
    /// a message — it is a MemWrite — but legacy INTx would be.
    Msg,
}

/// Per-TLP wire overhead in bytes (3-DW header case).
///
/// 12 B header + 2 B sequence + 4 B LCRC + 2 B framing symbols = 20 B. The
/// testbed uses 32-bit addressing throughout (all BARs and DMA buffers sit
/// below 4 GiB), so the 3-DW header applies.
pub const TLP_OVERHEAD_3DW: usize = 20;

/// Per-TLP wire overhead for 4-DW (64-bit address) headers.
pub const TLP_OVERHEAD_4DW: usize = 24;

/// Wire bytes for one TLP of `kind` carrying `payload` data bytes.
pub fn wire_bytes(kind: TlpKind, payload: usize) -> usize {
    match kind {
        TlpKind::MemWrite | TlpKind::CplD => TLP_OVERHEAD_3DW + payload,
        TlpKind::MemRead | TlpKind::Cpl | TlpKind::Msg => {
            debug_assert!(payload == 0, "{kind:?} TLP carries no payload");
            TLP_OVERHEAD_3DW
        }
    }
}

/// Split a transfer of `total` bytes starting at `addr` into chunk sizes no
/// larger than `max_chunk`, honoring the rule that a chunk may not cross a
/// `max_chunk`-aligned boundary (the spec's MPS / RCB alignment rule; both
/// MPS and RCB are powers of two).
///
/// Yields the byte length of every chunk in order, without allocating.
pub fn split_aligned(addr: u64, total: usize, max_chunk: usize) -> impl Iterator<Item = usize> {
    assert!(max_chunk.is_power_of_two(), "chunk size must be 2^n");
    let mut addr = addr;
    let mut left = total;
    std::iter::from_fn(move || {
        if left == 0 {
            return None;
        }
        let to_boundary = max_chunk - (addr as usize & (max_chunk - 1));
        let take = to_boundary.min(left);
        addr += take as u64;
        left -= take;
        Some(take)
    })
}

/// Number of TLPs a `total`-byte transfer at `addr` becomes under
/// `max_chunk` splitting. Cheaper than walking [`split_aligned`] when
/// only the count matters.
pub fn chunk_count(addr: u64, total: usize, max_chunk: usize) -> usize {
    if total == 0 {
        return 0;
    }
    let start = addr as usize & (max_chunk - 1);
    (start + total).div_ceil(max_chunk)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_by_kind() {
        assert_eq!(wire_bytes(TlpKind::MemWrite, 128), 148);
        assert_eq!(wire_bytes(TlpKind::CplD, 64), 84);
        assert_eq!(wire_bytes(TlpKind::MemRead, 0), 20);
        assert_eq!(wire_bytes(TlpKind::Cpl, 0), 20);
        assert_eq!(wire_bytes(TlpKind::Msg, 0), 20);
    }

    #[test]
    fn split_aligned_basic() {
        let split = |addr, total, chunk| split_aligned(addr, total, chunk).collect::<Vec<_>>();
        assert_eq!(split(0, 256, 128), vec![128, 128]);
        assert_eq!(split(0, 300, 128), vec![128, 128, 44]);
        assert_eq!(split(0, 64, 128), vec![64]);
        assert!(split(0, 0, 128).is_empty());
    }

    #[test]
    fn split_respects_alignment_boundary() {
        // Starting 0x20 into a 128 B window: first chunk only reaches the
        // boundary.
        assert_eq!(
            split_aligned(0x20, 256, 128).collect::<Vec<_>>(),
            vec![96, 128, 32]
        );
        // Unaligned tiny transfer that crosses one boundary.
        assert_eq!(split_aligned(0x7C, 8, 128).collect::<Vec<_>>(), vec![4, 4]);
    }

    #[test]
    fn chunk_count_matches_split() {
        for &(addr, total, chunk) in &[
            (0u64, 256usize, 128usize),
            (0x20, 256, 128),
            (0x7C, 8, 128),
            (0, 1, 64),
            (63, 2, 64),
            (0, 4096, 256),
            (1, 4096, 256),
        ] {
            assert_eq!(
                chunk_count(addr, total, chunk),
                split_aligned(addr, total, chunk).count(),
                "addr={addr:#x} total={total} chunk={chunk}"
            );
        }
        assert_eq!(chunk_count(0x1000, 0, 128), 0);
    }

    #[test]
    fn split_conserves_bytes() {
        for addr in [0u64, 1, 17, 127, 128, 300] {
            for total in [1usize, 8, 64, 127, 128, 129, 1000] {
                let chunks = split_aligned(addr, total, 128).collect::<Vec<_>>();
                assert_eq!(chunks.iter().sum::<usize>(), total);
                assert!(chunks.iter().all(|&c| c > 0 && c <= 128));
            }
        }
    }
}
