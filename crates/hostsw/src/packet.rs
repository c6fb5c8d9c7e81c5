//! Ethernet / IPv4 / UDP framing.
//!
//! The paper's VirtIO test application "uses the C socket programming API
//! to send packets to the FPGA" — so every payload travels through real
//! protocol encapsulation: a UDP datagram in an IPv4 packet in an
//! Ethernet II frame, with real header checksums. The same code builds
//! the frames the host transmits and parses the frames the FPGA user
//! logic receives and echoes; the checksum routines are also what the
//! FPGA's offload engine runs when `VIRTIO_NET_F_CSUM` is negotiated.

use vf_virtio::net::internet_checksum;

/// Ethernet header length (no VLAN).
pub const ETH_HDR_LEN: usize = 14;
/// IPv4 header length (no options).
pub const IPV4_HDR_LEN: usize = 20;
/// UDP header length.
pub const UDP_HDR_LEN: usize = 8;
/// Total encapsulation overhead added to a UDP payload.
pub const UDP_OVERHEAD: usize = ETH_HDR_LEN + IPV4_HDR_LEN + UDP_HDR_LEN;

/// EtherType for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;
/// IP protocol number for UDP.
pub const IPPROTO_UDP: u8 = 17;

/// A MAC address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address.
    pub const BROADCAST: MacAddr = MacAddr([0xFF; 6]);
}

impl std::fmt::Display for MacAddr {
    /// Renders as `aa:bb:cc:dd:ee:ff`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let o = &self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

/// An IPv4 address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4Addr(pub u32);

impl Ipv4Addr {
    /// From dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr(u32::from_be_bytes([a, b, c, d]))
    }

    /// Octets in network order.
    pub fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// Apply a prefix mask of `len` bits.
    pub fn network(self, prefix_len: u8) -> u32 {
        if prefix_len == 0 {
            0
        } else {
            self.0 & (!0u32 << (32 - prefix_len as u32))
        }
    }
}

impl std::fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

/// Addressing for one UDP flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UdpFlow {
    /// Source MAC.
    pub src_mac: MacAddr,
    /// Destination MAC.
    pub dst_mac: MacAddr,
    /// Source IP.
    pub src_ip: Ipv4Addr,
    /// Destination IP.
    pub dst_ip: Ipv4Addr,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
}

impl UdpFlow {
    /// The reverse flow (what an echo responder transmits).
    pub fn reversed(self) -> UdpFlow {
        UdpFlow {
            src_mac: self.dst_mac,
            dst_mac: self.src_mac,
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
        }
    }
}

/// Build a complete Ethernet frame carrying `payload` over UDP/IPv4.
/// When `fill_udp_csum` is false the UDP checksum field is left zero with
/// the expectation that a checksum-offload engine fills it (the
/// `VIRTIO_NET_F_CSUM` path).
pub fn build_udp_frame(flow: &UdpFlow, ip_id: u16, payload: &[u8], fill_udp_csum: bool) -> Vec<u8> {
    let mut f = Vec::new();
    build_udp_frame_into(&mut f, flow, ip_id, payload, fill_udp_csum);
    f
}

/// [`build_udp_frame`] into `f`, replacing its contents, so a sender
/// can reuse one frame buffer.
pub fn build_udp_frame_into(
    f: &mut Vec<u8>,
    flow: &UdpFlow,
    ip_id: u16,
    payload: &[u8],
    fill_udp_csum: bool,
) {
    let udp_len = UDP_HDR_LEN + payload.len();
    let ip_len = IPV4_HDR_LEN + udp_len;
    f.clear();
    f.reserve(ETH_HDR_LEN + ip_len);

    // Ethernet II.
    f.extend_from_slice(&flow.dst_mac.0);
    f.extend_from_slice(&flow.src_mac.0);
    f.extend_from_slice(&ETHERTYPE_IPV4.to_be_bytes());

    // IPv4 header.
    let ip_start = f.len();
    f.push(0x45); // version 4, IHL 5
    f.push(0); // DSCP/ECN
    f.extend_from_slice(&(ip_len as u16).to_be_bytes());
    f.extend_from_slice(&ip_id.to_be_bytes());
    f.extend_from_slice(&[0x40, 0]); // DF, no fragment offset
    f.push(64); // TTL
    f.push(IPPROTO_UDP);
    f.extend_from_slice(&[0, 0]); // checksum placeholder
    f.extend_from_slice(&flow.src_ip.octets());
    f.extend_from_slice(&flow.dst_ip.octets());
    let ip_csum = internet_checksum(&f[ip_start..ip_start + IPV4_HDR_LEN], 0);
    f[ip_start + 10..ip_start + 12].copy_from_slice(&ip_csum.to_be_bytes());

    // UDP header + payload.
    let udp_start = f.len();
    f.extend_from_slice(&flow.src_port.to_be_bytes());
    f.extend_from_slice(&flow.dst_port.to_be_bytes());
    f.extend_from_slice(&(udp_len as u16).to_be_bytes());
    f.extend_from_slice(&[0, 0]); // checksum placeholder
    f.extend_from_slice(payload);

    if fill_udp_csum {
        let csum = udp_checksum(flow.src_ip, flow.dst_ip, &f[udp_start..]);
        f[udp_start + 6..udp_start + 8].copy_from_slice(&csum.to_be_bytes());
    }
}

/// Compute the UDP checksum (with IPv4 pseudo-header) over a UDP header +
/// payload slice whose checksum field is zero. Returns `0xFFFF` instead
/// of `0` per RFC 768.
pub fn udp_checksum(src: Ipv4Addr, dst: Ipv4Addr, udp: &[u8]) -> u16 {
    udp_checksum_from(src, dst, udp.len(), 0, udp)
}

/// The UDP checksum of a `len`-byte datagram whose leading 16-bit words
/// sum to `head` and whose remaining bytes are `rest` (starting at an
/// even offset).
fn udp_checksum_from(src: Ipv4Addr, dst: Ipv4Addr, len: usize, head: u32, rest: &[u8]) -> u16 {
    let mut pseudo = 0u32;
    for chunk in src.octets().chunks(2).chain(dst.octets().chunks(2)) {
        pseudo += u16::from_be_bytes([chunk[0], chunk[1]]) as u32;
    }
    pseudo += IPPROTO_UDP as u32;
    pseudo += len as u32;
    let c = internet_checksum(rest, pseudo + head);
    if c == 0 {
        0xFFFF
    } else {
        c
    }
}

/// Parsed view of a received UDP/IPv4 frame, borrowing its payload
/// from the frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsedUdp<'a> {
    /// Flow addressing extracted from the headers.
    pub flow: UdpFlow,
    /// IP identification field.
    pub ip_id: u16,
    /// UDP payload bytes.
    pub payload: &'a [u8],
    /// Whether the UDP checksum was present and valid (or absent = true,
    /// since UDP checksums are optional over IPv4).
    pub udp_csum_ok: bool,
}

/// Frame-parsing failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Frame shorter than its headers claim.
    Truncated,
    /// Not IPv4.
    NotIpv4,
    /// Not UDP.
    NotUdp,
    /// IPv4 header checksum mismatch.
    BadIpChecksum,
}

/// Parse an Ethernet frame expected to carry UDP/IPv4.
pub fn parse_udp_frame(frame: &[u8]) -> Result<ParsedUdp<'_>, ParseError> {
    if frame.len() < UDP_OVERHEAD {
        return Err(ParseError::Truncated);
    }
    let dst_mac = MacAddr(frame[0..6].try_into().unwrap());
    let src_mac = MacAddr(frame[6..12].try_into().unwrap());
    if u16::from_be_bytes([frame[12], frame[13]]) != ETHERTYPE_IPV4 {
        return Err(ParseError::NotIpv4);
    }
    let ip = &frame[ETH_HDR_LEN..];
    if ip[0] != 0x45 {
        return Err(ParseError::NotIpv4);
    }
    if internet_checksum(&ip[..IPV4_HDR_LEN], 0) != 0 {
        return Err(ParseError::BadIpChecksum);
    }
    if ip[9] != IPPROTO_UDP {
        return Err(ParseError::NotUdp);
    }
    let ip_len = u16::from_be_bytes([ip[2], ip[3]]) as usize;
    if ip.len() < ip_len || ip_len < IPV4_HDR_LEN + UDP_HDR_LEN {
        return Err(ParseError::Truncated);
    }
    let src_ip = Ipv4Addr(u32::from_be_bytes(ip[12..16].try_into().unwrap()));
    let dst_ip = Ipv4Addr(u32::from_be_bytes(ip[16..20].try_into().unwrap()));
    let udp = &ip[IPV4_HDR_LEN..ip_len];
    let udp_len = u16::from_be_bytes([udp[4], udp[5]]) as usize;
    if udp_len < UDP_HDR_LEN || udp_len > udp.len() {
        return Err(ParseError::Truncated);
    }
    let wire_csum = u16::from_be_bytes([udp[6], udp[7]]);
    let udp_csum_ok = if wire_csum == 0 {
        true // checksum not used
    } else {
        // Checksum the datagram with its checksum field as zero: the
        // field's word is left out of the sum.
        let head: u32 = udp[..6]
            .chunks(2)
            .map(|c| u16::from_be_bytes([c[0], c[1]]) as u32)
            .sum();
        let expect = udp_checksum_from(src_ip, dst_ip, udp_len, head, &udp[8..udp_len]);
        expect == wire_csum
    };
    Ok(ParsedUdp {
        flow: UdpFlow {
            src_mac,
            dst_mac,
            src_ip,
            dst_ip,
            src_port: u16::from_be_bytes([udp[0], udp[1]]),
            dst_port: u16::from_be_bytes([udp[2], udp[3]]),
        },
        ip_id: u16::from_be_bytes([ip[4], ip[5]]),
        payload: &udp[UDP_HDR_LEN..udp_len],
        udp_csum_ok,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> UdpFlow {
        UdpFlow {
            src_mac: MacAddr([0x02, 0, 0, 0, 0, 1]),
            dst_mac: MacAddr([0x02, 0xFB, 0x0A, 0, 0, 1]),
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            src_port: 40000,
            dst_port: 7,
        }
    }

    #[test]
    fn frame_size_is_payload_plus_overhead() {
        let f = build_udp_frame(&flow(), 1, &[0xAB; 64], true);
        assert_eq!(f.len(), 64 + UDP_OVERHEAD);
        assert_eq!(UDP_OVERHEAD, 42);
    }

    #[test]
    fn build_parse_round_trip() {
        let payload: Vec<u8> = (0..100).collect();
        let f = build_udp_frame(&flow(), 7, &payload, true);
        let p = parse_udp_frame(&f).unwrap();
        assert_eq!(p.flow, flow());
        assert_eq!(p.ip_id, 7);
        assert_eq!(p.payload, payload);
        assert!(p.udp_csum_ok);
    }

    #[test]
    fn zero_udp_checksum_is_accepted() {
        let f = build_udp_frame(&flow(), 1, &[1, 2, 3], false);
        let p = parse_udp_frame(&f).unwrap();
        assert!(p.udp_csum_ok);
        assert_eq!(p.payload, vec![1, 2, 3]);
    }

    #[test]
    fn corrupted_payload_fails_udp_checksum() {
        let mut f = build_udp_frame(&flow(), 1, &[9u8; 32], true);
        let n = f.len();
        f[n - 1] ^= 0xFF;
        let p = parse_udp_frame(&f).unwrap();
        assert!(!p.udp_csum_ok);
    }

    #[test]
    fn corrupted_ip_header_detected() {
        let mut f = build_udp_frame(&flow(), 1, &[0u8; 8], true);
        f[ETH_HDR_LEN + 8] = 1; // change TTL without fixing the checksum
        assert_eq!(parse_udp_frame(&f).unwrap_err(), ParseError::BadIpChecksum);
    }

    #[test]
    fn non_ipv4_rejected() {
        let mut f = build_udp_frame(&flow(), 1, &[0u8; 8], true);
        f[12] = 0x86; // EtherType → not IPv4
        f[13] = 0xDD;
        assert_eq!(parse_udp_frame(&f).unwrap_err(), ParseError::NotIpv4);
    }

    #[test]
    fn truncated_rejected() {
        let f = build_udp_frame(&flow(), 1, &[0u8; 8], true);
        assert_eq!(
            parse_udp_frame(&f[..30]).unwrap_err(),
            ParseError::Truncated
        );
    }

    #[test]
    fn reversed_flow_swaps_endpoints() {
        let r = flow().reversed();
        assert_eq!(r.src_ip, flow().dst_ip);
        assert_eq!(r.dst_port, flow().src_port);
        assert_eq!(r.reversed(), flow());
    }

    #[test]
    fn udp_checksum_never_zero_on_wire() {
        // Find nothing: just verify the 0→0xFFFF rule directly.
        let c = udp_checksum(
            Ipv4Addr::new(0, 0, 0, 0),
            Ipv4Addr::new(0, 0, 0, 0),
            &[0, 0, 0, 0, 0, 0, 0xFF, 0xEE],
        );
        assert_ne!(c, 0);
    }

    #[test]
    fn network_prefix() {
        let ip = Ipv4Addr::new(10, 1, 2, 3);
        assert_eq!(ip.network(24), Ipv4Addr::new(10, 1, 2, 0).0);
        assert_eq!(ip.network(8), Ipv4Addr::new(10, 0, 0, 0).0);
        assert_eq!(ip.network(0), 0);
        assert_eq!(ip.network(32), ip.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Ipv4Addr::new(192, 168, 1, 9).to_string(), "192.168.1.9");
        assert_eq!(
            MacAddr([1, 2, 3, 0xAA, 0xBB, 0xCC]).to_string(),
            "01:02:03:aa:bb:cc"
        );
    }
}
