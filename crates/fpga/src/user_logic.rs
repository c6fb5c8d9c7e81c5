//! User logic blocks behind the VirtIO controller's queue interface.
//!
//! Everything here works at raw byte level on Ethernet frames, as RTL
//! would: the UDP echo responder swaps addresses in place (which
//! preserves IP and UDP checksums — swapping source/destination within
//! the summed regions leaves the one's-complement sums unchanged), and
//! the firewall matches the 5-tuple at fixed header offsets. Each block
//! reports its processing time in fabric cycles; the controller's
//! `processing` counter measures it so the harness can deduct it, as the
//! paper's §IV-B prescribes.

/// Outcome of user logic processing one ingress frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogicOutcome {
    /// Whether the (rewritten) frame goes back to the host.
    pub respond: bool,
    /// Fabric cycles consumed (at 125 MHz, 8 ns each).
    pub cycles: u64,
}

/// A block of user logic attached to the controller's RX/TX queue
/// interface.
pub trait UserLogic {
    /// Process one ingress frame (from the host) in its staging buffer.
    /// A responding block rewrites the frame into its response there,
    /// as the streaming datapath does.
    fn on_frame(&mut self, frame: &mut [u8]) -> LogicOutcome;

    /// Name for reports.
    fn name(&self) -> &'static str;
}

/// The paper's test workload: respond to each UDP packet with a UDP
/// packet of the same size (§IV-B) — implemented as an in-place
/// MAC/IP/port swap at line rate.
#[derive(Clone, Debug, Default)]
pub struct UdpEcho {
    /// Frames echoed.
    pub echoed: u64,
    /// Frames too short to be UDP/IPv4 (dropped).
    pub dropped: u64,
}

/// Byte offsets in an Ethernet+IPv4+UDP frame.
mod off {
    pub const ETH_DST: usize = 0;
    pub const ETH_SRC: usize = 6;
    pub const ETHERTYPE: usize = 12;
    pub const IP_PROTO: usize = 23;
    pub const IP_SRC: usize = 26;
    pub const IP_DST: usize = 30;
    pub const UDP_SRC: usize = 34;
    pub const UDP_DST: usize = 36;
    pub const MIN_LEN: usize = 42;
}

fn swap_range(frame: &mut [u8], a: usize, b: usize, len: usize) {
    for i in 0..len {
        frame.swap(a + i, b + i);
    }
}

impl UserLogic for UdpEcho {
    fn on_frame(&mut self, frame: &mut [u8]) -> LogicOutcome {
        // Header parse: ~4 cycles as the first beats stream through.
        let mut cycles = 4;
        if frame.len() < off::MIN_LEN
            || frame[off::ETHERTYPE] != 0x08
            || frame[off::ETHERTYPE + 1] != 0x00
            || frame[off::IP_PROTO] != 17
        {
            self.dropped += 1;
            return LogicOutcome {
                respond: false,
                cycles,
            };
        }
        swap_range(frame, off::ETH_DST, off::ETH_SRC, 6);
        swap_range(frame, off::IP_SRC, off::IP_DST, 4);
        swap_range(frame, off::UDP_SRC, off::UDP_DST, 2);
        // Streaming the frame through the swap datapath: 8 bytes/cycle.
        cycles += frame.len().div_ceil(8) as u64;
        self.echoed += 1;
        LogicOutcome {
            respond: true,
            cycles,
        }
    }

    fn name(&self) -> &'static str {
        "udp-echo"
    }
}

/// Console echo: the prior work's demo — every byte written to the
/// console port is reflected back verbatim (no headers to touch).
#[derive(Clone, Debug, Default)]
pub struct ConsoleEcho {
    /// Bytes echoed.
    pub bytes: u64,
}

impl UserLogic for ConsoleEcho {
    fn on_frame(&mut self, frame: &mut [u8]) -> LogicOutcome {
        self.bytes += frame.len() as u64;
        LogicOutcome {
            respond: true,
            cycles: 2 + frame.len().div_ceil(8) as u64,
        }
    }

    fn name(&self) -> &'static str {
        "console-echo"
    }
}

/// Firewall action for a matched rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FwAction {
    /// Pass the frame to the inner logic.
    Accept,
    /// Drop the frame.
    Drop,
}

/// One firewall rule: optional prefix matches on addresses, optional
/// port ranges, optional protocol.
#[derive(Clone, Copy, Debug)]
pub struct FwRule {
    /// Source prefix `(addr_be, prefix_len)`.
    pub src: Option<(u32, u8)>,
    /// Destination prefix.
    pub dst: Option<(u32, u8)>,
    /// Source port range (inclusive).
    pub src_ports: Option<(u16, u16)>,
    /// Destination port range (inclusive).
    pub dst_ports: Option<(u16, u16)>,
    /// IP protocol number.
    pub proto: Option<u8>,
    /// Action on match.
    pub action: FwAction,
}

impl FwRule {
    /// A rule matching everything (useful as a default action).
    pub fn any(action: FwAction) -> Self {
        FwRule {
            src: None,
            dst: None,
            src_ports: None,
            dst_ports: None,
            proto: None,
            action,
        }
    }

    fn prefix_match(addr: u32, pat: Option<(u32, u8)>) -> bool {
        match pat {
            None => true,
            Some((net, len)) => {
                let mask = if len == 0 {
                    0
                } else {
                    !0u32 << (32 - len as u32)
                };
                addr & mask == net & mask
            }
        }
    }

    fn range_match(v: u16, pat: Option<(u16, u16)>) -> bool {
        pat.is_none_or(|(lo, hi)| (lo..=hi).contains(&v))
    }

    fn matches(&self, t: &FiveTuple) -> bool {
        Self::prefix_match(t.src_ip, self.src)
            && Self::prefix_match(t.dst_ip, self.dst)
            && Self::range_match(t.src_port, self.src_ports)
            && Self::range_match(t.dst_port, self.dst_ports)
            && self.proto.is_none_or(|p| p == t.proto)
    }
}

/// The 5-tuple extracted at line rate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FiveTuple {
    /// Source IPv4 address (big-endian u32).
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// IP protocol.
    pub proto: u8,
}

impl FiveTuple {
    /// Extract from a frame; `None` for non-IPv4 frames.
    pub fn extract(frame: &[u8]) -> Option<FiveTuple> {
        if frame.len() < off::MIN_LEN || frame[12] != 0x08 || frame[13] != 0x00 {
            return None;
        }
        Some(FiveTuple {
            src_ip: u32::from_be_bytes(frame[26..30].try_into().unwrap()),
            dst_ip: u32::from_be_bytes(frame[30..34].try_into().unwrap()),
            src_port: u16::from_be_bytes([frame[34], frame[35]]),
            dst_port: u16::from_be_bytes([frame[36], frame[37]]),
            proto: frame[23],
        })
    }
}

/// A multi-rule, multi-engine SmartNIC firewall in front of inner user
/// logic — the use case of the paper's reference \[30\] (VeBPF firewall on
/// FPGA IoT deployments). `engines` parallel match units evaluate the
/// rule list; first match wins, default drop.
pub struct Firewall<L: UserLogic> {
    rules: Vec<FwRule>,
    engines: usize,
    inner: L,
    /// Frames passed to the inner logic.
    pub accepted: u64,
    /// Frames dropped (matched a Drop rule or no rule).
    pub dropped: u64,
}

impl<L: UserLogic> Firewall<L> {
    /// Build with a rule list and `engines` parallel match units.
    pub fn new(rules: Vec<FwRule>, engines: usize, inner: L) -> Self {
        assert!(engines >= 1);
        Firewall {
            rules,
            engines,
            inner,
            accepted: 0,
            dropped: 0,
        }
    }

    /// The inner logic (for its stats).
    pub fn inner(&self) -> &L {
        &self.inner
    }
}

impl<L: UserLogic> UserLogic for Firewall<L> {
    fn on_frame(&mut self, frame: &mut [u8]) -> LogicOutcome {
        // Tuple extraction: 4 cycles; each engine checks one rule per 2
        // cycles, engines run in parallel over the rule list.
        let match_cycles = 4 + 2 * self.rules.len().div_ceil(self.engines) as u64;
        let action = match FiveTuple::extract(frame) {
            None => FwAction::Drop,
            Some(t) => self
                .rules
                .iter()
                .find(|r| r.matches(&t))
                .map_or(FwAction::Drop, |r| r.action),
        };
        match action {
            FwAction::Drop => {
                self.dropped += 1;
                LogicOutcome {
                    respond: false,
                    cycles: match_cycles,
                }
            }
            FwAction::Accept => {
                self.accepted += 1;
                let mut out = self.inner.on_frame(frame);
                out.cycles += match_cycles;
                out
            }
        }
    }

    fn name(&self) -> &'static str {
        "firewall"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal valid UDP/IPv4 frame for logic tests.
    fn udp_frame(src_port: u16, dst_port: u16, payload_len: usize) -> Vec<u8> {
        let mut f = vec![0u8; off::MIN_LEN + payload_len];
        f[0..6].copy_from_slice(&[2, 0, 0, 0, 0, 2]); // dst mac
        f[6..12].copy_from_slice(&[2, 0, 0, 0, 0, 1]); // src mac
        f[12] = 0x08; // IPv4
        f[14] = 0x45;
        f[23] = 17; // UDP
        f[26..30].copy_from_slice(&[10, 0, 0, 1]); // src ip
        f[30..34].copy_from_slice(&[10, 0, 0, 2]); // dst ip
        f[34..36].copy_from_slice(&src_port.to_be_bytes());
        f[36..38].copy_from_slice(&dst_port.to_be_bytes());
        f
    }

    #[test]
    fn echo_swaps_addresses() {
        let mut echo = UdpEcho::default();
        let frame = udp_frame(40000, 7, 8);
        let mut resp = frame.clone();
        let out = echo.on_frame(&mut resp);
        assert!(out.respond);
        assert_eq!(&resp[0..6], &frame[6..12]); // dst mac = old src
        assert_eq!(&resp[6..12], &frame[0..6]);
        assert_eq!(&resp[26..30], &frame[30..34]); // src ip = old dst
        assert_eq!(&resp[34..36], &frame[36..38]); // ports swapped
        assert_eq!(resp.len(), frame.len());
        assert_eq!(echo.echoed, 1);
        assert!(out.cycles > 4);
    }

    #[test]
    fn echo_swap_preserves_checksums() {
        // Build a frame with real checksums via the host stack and make
        // sure the echoed frame still verifies.
        use vf_virtio::net::internet_checksum;
        let mut f = udp_frame(1234, 7, 4);
        // Fill a real IP header checksum.
        f[24] = 0;
        f[25] = 0;
        let c = internet_checksum(&f[14..34], 0);
        f[24..26].copy_from_slice(&c.to_be_bytes());
        let mut echo = UdpEcho::default();
        assert!(echo.on_frame(&mut f).respond);
        assert_eq!(internet_checksum(&f[14..34], 0), 0, "IP csum survives swap");
    }

    #[test]
    fn echo_drops_non_udp() {
        let mut echo = UdpEcho::default();
        let mut f = udp_frame(1, 2, 0);
        f[23] = 6; // TCP
        assert!(!echo.on_frame(&mut f).respond);
        assert!(!echo.on_frame(&mut [0u8; 10]).respond);
        assert_eq!(echo.dropped, 2);
    }

    #[test]
    fn echo_cycles_scale_with_length() {
        let mut echo = UdpEcho::default();
        let small = echo.on_frame(&mut udp_frame(1, 2, 22)).cycles;
        let large = echo.on_frame(&mut udp_frame(1, 2, 982)).cycles;
        assert_eq!(large - small, 120); // 960 extra bytes / 8 per cycle
    }

    #[test]
    fn firewall_first_match_wins() {
        let rules = vec![
            FwRule {
                dst_ports: Some((7, 7)),
                proto: Some(17),
                ..FwRule::any(FwAction::Accept)
            },
            FwRule::any(FwAction::Drop),
        ];
        let mut fw = Firewall::new(rules, 2, UdpEcho::default());
        assert!(fw.on_frame(&mut udp_frame(9, 7, 16)).respond);
        assert!(!fw.on_frame(&mut udp_frame(9, 8, 16)).respond);
        assert_eq!(fw.accepted, 1);
        assert_eq!(fw.dropped, 1);
        assert_eq!(fw.inner().echoed, 1);
    }

    #[test]
    fn firewall_default_drop() {
        let mut fw = Firewall::new(vec![], 1, UdpEcho::default());
        assert!(!fw.on_frame(&mut udp_frame(1, 2, 0)).respond);
        assert_eq!(fw.dropped, 1);
    }

    #[test]
    fn firewall_prefix_and_range_matching() {
        let rules = vec![FwRule {
            src: Some((u32::from_be_bytes([10, 0, 0, 0]), 24)),
            src_ports: Some((1000, 2000)),
            ..FwRule::any(FwAction::Accept)
        }];
        let mut fw = Firewall::new(rules, 1, UdpEcho::default());
        assert!(fw.on_frame(&mut udp_frame(1500, 7, 0)).respond);
        assert!(!fw.on_frame(&mut udp_frame(999, 7, 0)).respond);
        let mut other_net = udp_frame(1500, 7, 0);
        other_net[26] = 11; // 11.0.0.1
        assert!(!fw.on_frame(&mut other_net).respond);
    }

    #[test]
    fn more_engines_fewer_cycles() {
        let rules: Vec<FwRule> = (0..64).map(|_| FwRule::any(FwAction::Drop)).collect();
        let mut fw1 = Firewall::new(rules.clone(), 1, UdpEcho::default());
        let mut fw8 = Firewall::new(rules, 8, UdpEcho::default());
        let mut f = udp_frame(1, 2, 0);
        let c1 = fw1.on_frame(&mut f).cycles;
        let c8 = fw8.on_frame(&mut f).cycles;
        assert_eq!(c1, 4 + 128);
        assert_eq!(c8, 4 + 16);
    }

    #[test]
    fn console_echo_reflects_bytes() {
        let mut c = ConsoleEcho::default();
        let mut bytes = *b"hello fpga";
        assert!(c.on_frame(&mut bytes).respond);
        assert_eq!(&bytes, b"hello fpga");
        assert_eq!(c.bytes, 10);
    }
}
