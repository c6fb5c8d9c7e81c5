//! Multi-queue ctrl-vq commands: the `MQ_VQ_PAIRS_SET` /
//! `MQ_RSS_CONFIG` serialization (VirtIO 1.2 §5.1.6.5.5) the MQ front
//! end ([`crate::virtio_mq`]) sends over either ring layout, and the
//! probe outcome it reports.

use vf_pcie::HostMemory;
use vf_virtio::{net, GuestMemory};

/// Ring size of the control virtqueue — commands are rare and serial,
/// so it stays small regardless of the data-queue depth.
pub const CTRL_QUEUE_SIZE: u16 = 64;

/// Bytes a serialized `MQ_RSS_CONFIG` command can occupy at most:
/// class + cmd + le16 table length, the 128-entry le16 indirection
/// table, a key-length byte, and the 40-byte Toeplitz key.
pub const RSS_CMD_MAX: usize = 4 + 2 * net::RSS_TABLE_LEN + 1 + net::RSS_KEY_LEN;

/// Result of the MQ probe sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MqProbeOutcome {
    /// Negotiated feature bits.
    pub features: u64,
    /// Station MAC from device config.
    pub mac: [u8; 6],
    /// Device MTU from device config.
    pub mtu: u16,
    /// `max_virtqueue_pairs` from device config.
    pub max_pairs: u16,
}

/// Serialize a `MQ_VQ_PAIRS_SET` command into `cmd_buf` and poison the
/// ack byte at `ack_buf` (so a device that never writes it is caught).
/// The command bytes land exactly as the split front end historically
/// wrote them: class/cmd at `cmd_buf`, le16 pair count at `cmd_buf+2`.
pub fn write_pairs_cmd(mem: &mut HostMemory, cmd_buf: u64, ack_buf: u64, pairs: u16) {
    GuestMemory::write(
        mem,
        cmd_buf,
        &[net::ctrl::CLASS_MQ, net::ctrl::MQ_VQ_PAIRS_SET],
    );
    GuestMemory::write(mem, cmd_buf + 2, &pairs.to_le_bytes());
    GuestMemory::write(mem, ack_buf, &[0xAA]);
}

/// Serialize a `MQ_RSS_CONFIG` command: class + cmd, le16 indirection
/// table length, the le16 table entries, a key-length byte, and the
/// Toeplitz key bytes.
pub fn build_rss_cmd(table: &[u16], key: &[u8]) -> Vec<u8> {
    let mut cmd = Vec::with_capacity(RSS_CMD_MAX);
    cmd.extend_from_slice(&[net::ctrl::CLASS_MQ, net::ctrl::MQ_RSS_CONFIG]);
    cmd.extend_from_slice(&(table.len() as u16).to_le_bytes());
    for entry in table {
        cmd.extend_from_slice(&entry.to_le_bytes());
    }
    cmd.push(key.len() as u8);
    cmd.extend_from_slice(key);
    assert!(cmd.len() <= RSS_CMD_MAX, "RSS command overflows its buffer");
    cmd
}

/// Serialize an `MQ_RSS_CONFIG` command into `rss_buf`, poison the ack
/// at `ack_buf`, and return the command length for the ring publish.
pub fn write_rss_cmd(
    mem: &mut HostMemory,
    rss_buf: u64,
    ack_buf: u64,
    table: &[u16],
    key: &[u8],
) -> u32 {
    let cmd = build_rss_cmd(table, key);
    GuestMemory::write(mem, rss_buf, &cmd);
    GuestMemory::write(mem, ack_buf, &[0xAA]);
    cmd.len() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_cmd_layout_is_exact() {
        let table: Vec<u16> = (0..4u16).collect();
        let key = [7u8; net::RSS_KEY_LEN];
        let cmd = build_rss_cmd(&table, &key);
        assert_eq!(&cmd[..2], &[net::ctrl::CLASS_MQ, net::ctrl::MQ_RSS_CONFIG]);
        assert_eq!(u16::from_le_bytes([cmd[2], cmd[3]]), 4);
        assert_eq!(&cmd[4..12], &[0, 0, 1, 0, 2, 0, 3, 0]);
        assert_eq!(cmd[12] as usize, net::RSS_KEY_LEN);
        assert_eq!(&cmd[13..], &key);
    }

    #[test]
    fn pairs_cmd_poisons_ack() {
        let mut mem = HostMemory::testbed_default();
        let cmd_buf = mem.alloc(16, 16);
        let ack_buf = mem.alloc(1, 1);
        write_pairs_cmd(&mut mem, cmd_buf, ack_buf, 0x0304);
        assert_eq!(
            mem.slice(cmd_buf, 4),
            &[net::ctrl::CLASS_MQ, net::ctrl::MQ_VQ_PAIRS_SET, 0x04, 0x03]
        );
        assert_eq!(mem.slice(ack_buf, 1), &[0xAA]);
    }
}
