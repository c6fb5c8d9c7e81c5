//! The UDP socket send/receive paths.
//!
//! Composes the framing, configuration-lookup, and cost models into the
//! two kernel paths the paper's VirtIO test application exercises through
//! the C socket API: `sendto()` down to the netdevice, and netdevice up
//! through `recvfrom()`.

use vf_sim::Time;

use crate::cost::CostEngine;
use crate::netcfg::{ArpCache, RoutingTable};
use crate::packet::{
    build_udp_frame_into, parse_udp_frame, Ipv4Addr, MacAddr, ParseError, ParsedUdp, UdpFlow,
};

/// Errors surfaced by the socket paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SockError {
    /// No route to the destination (`sendto` returns -ENETUNREACH).
    NoRoute,
    /// ARP resolution failed (would stall for resolution; the paper's
    /// setup pre-populates the cache so this is an experiment bug).
    ArpMiss,
    /// Received frame failed parsing.
    Parse(ParseError),
    /// Received UDP datagram failed checksum verification (dropped).
    BadChecksum,
    /// Datagram not addressed to the bound port (dropped).
    PortMismatch,
}

/// The host's UDP stack state for one interface.
#[derive(Clone, Debug)]
pub struct UdpStack {
    /// Routing table (paper §III-B1: manually populated).
    pub routes: RoutingTable,
    /// ARP cache (likewise).
    pub arp: ArpCache,
    /// Local interface IP.
    pub local_ip: Ipv4Addr,
    /// Local interface MAC.
    pub local_mac: MacAddr,
    /// IP identification counter.
    ip_id: u16,
    /// Datagrams sent/received (for reports).
    pub tx_count: u64,
    /// Datagrams delivered to sockets.
    pub rx_count: u64,
}

impl UdpStack {
    /// A stack bound to `(local_ip, local_mac)`.
    pub fn new(local_ip: Ipv4Addr, local_mac: MacAddr) -> Self {
        UdpStack {
            routes: RoutingTable::new(),
            arp: ArpCache::new(),
            local_ip,
            local_mac,
            ip_id: 1,
            tx_count: 0,
            rx_count: 0,
        }
    }

    /// The `sendto()` kernel path up to the netdevice: syscall entry,
    /// route + ARP lookup, skb allocation and header construction,
    /// payload copy-in, and — when checksum offload is off — the software
    /// UDP checksum. Returns the wire frame and the CPU time consumed.
    pub fn sendto(
        &mut self,
        dst_ip: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: &[u8],
        csum_offload: bool,
        cost: &mut CostEngine,
    ) -> Result<(Vec<u8>, Time), SockError> {
        let mut frame = Vec::new();
        let cpu = self.sendto_into(
            &mut frame,
            dst_ip,
            src_port,
            dst_port,
            payload,
            csum_offload,
            cost,
        )?;
        Ok((frame, cpu))
    }

    /// [`UdpStack::sendto`] into `frame`, replacing its contents, so a
    /// sender can reuse one frame buffer. Returns the CPU time.
    #[allow(clippy::too_many_arguments)]
    pub fn sendto_into(
        &mut self,
        frame: &mut Vec<u8>,
        dst_ip: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: &[u8],
        csum_offload: bool,
        cost: &mut CostEngine,
    ) -> Result<Time, SockError> {
        let mut cpu = cost.step(cost.costs.syscall_entry);
        let route = self.routes.lookup(dst_ip).ok_or(SockError::NoRoute)?;
        let next_hop = route.gateway.unwrap_or(dst_ip);
        let dst_mac = self.arp.resolve(next_hop).ok_or(SockError::ArpMiss)?;
        cpu += cost.copy_user(payload.len());
        cpu += cost.step(cost.costs.udp_tx_path);
        let flow = UdpFlow {
            src_mac: self.local_mac,
            dst_mac,
            src_ip: self.local_ip,
            dst_ip,
            src_port,
            dst_port,
        };
        let id = self.ip_id;
        self.ip_id = self.ip_id.wrapping_add(1);
        // IP header checksum is always software (20 bytes, cheap); the
        // UDP checksum over the payload is the offloadable part.
        cpu += cost.sw_checksum(crate::packet::IPV4_HDR_LEN);
        if !csum_offload {
            cpu += cost.sw_checksum(crate::packet::UDP_HDR_LEN + payload.len());
        }
        build_udp_frame_into(frame, &flow, id, payload, !csum_offload);
        self.tx_count += 1;
        Ok(cpu)
    }

    /// The receive path from the netdevice to a socket bound to
    /// `bound_port`: frame parse, checksum verification (software unless
    /// the device validated it), and UDP demux. The final
    /// `copy_to_user` + syscall exit belong to the `recvfrom()` return
    /// and are charged separately by [`Self::recvfrom_return`].
    pub fn netif_receive<'f>(
        &mut self,
        frame: &'f [u8],
        bound_port: u16,
        device_validated_csum: bool,
        cost: &mut CostEngine,
    ) -> Result<(ParsedUdp<'f>, Time), SockError> {
        let mut cpu = cost.step(cost.costs.udp_rx_path);
        let parsed = parse_udp_frame(frame).map_err(SockError::Parse)?;
        if !device_validated_csum {
            cpu += cost.sw_checksum(frame.len() - crate::packet::ETH_HDR_LEN);
            if !parsed.udp_csum_ok {
                return Err(SockError::BadChecksum);
            }
        }
        if parsed.flow.dst_port != bound_port {
            return Err(SockError::PortMismatch);
        }
        self.rx_count += 1;
        Ok((parsed, cpu))
    }

    /// The tail of a blocking `recvfrom()`: copy the payload out and
    /// return to user space.
    pub fn recvfrom_return(&mut self, payload_len: usize, cost: &mut CostEngine) -> Time {
        cost.copy_user(payload_len) + cost.step(cost.costs.syscall_exit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::HostCosts;
    use vf_sim::{NoiseModel, SimRng};

    fn fixture() -> (UdpStack, CostEngine) {
        let mut stack = UdpStack::new(
            Ipv4Addr::new(10, 0, 0, 1),
            MacAddr([0x02, 0, 0, 0, 0, 0x01]),
        );
        let fpga_ip = Ipv4Addr::new(10, 0, 0, 2);
        let fpga_mac = MacAddr([0x02, 0xFB, 0x0A, 0, 0, 0x01]);
        stack.routes.add(Ipv4Addr::new(10, 0, 0, 0), 24, None, 2);
        stack.arp.add_static(fpga_ip, fpga_mac);
        let cost = CostEngine::new(
            HostCosts::fedora37(),
            NoiseModel::noiseless(),
            SimRng::new(9),
        );
        (stack, cost)
    }

    #[test]
    fn sendto_builds_wire_frame() {
        let (mut stack, mut cost) = fixture();
        let payload = vec![7u8; 64];
        let (frame, cpu) = stack
            .sendto(
                Ipv4Addr::new(10, 0, 0, 2),
                40000,
                7,
                &payload,
                false,
                &mut cost,
            )
            .unwrap();
        assert_eq!(frame.len(), 64 + crate::packet::UDP_OVERHEAD);
        assert!(cpu > Time::ZERO);
        let parsed = parse_udp_frame(&frame).unwrap();
        assert_eq!(parsed.payload, payload);
        assert!(parsed.udp_csum_ok);
        assert_eq!(stack.tx_count, 1);
    }

    #[test]
    fn sendto_without_route_fails() {
        let (mut stack, mut cost) = fixture();
        let err = stack
            .sendto(Ipv4Addr::new(192, 168, 5, 1), 1, 2, &[0], false, &mut cost)
            .unwrap_err();
        assert_eq!(err, SockError::NoRoute);
    }

    #[test]
    fn sendto_without_arp_fails() {
        let (mut stack, mut cost) = fixture();
        let err = stack
            .sendto(Ipv4Addr::new(10, 0, 0, 99), 1, 2, &[0], false, &mut cost)
            .unwrap_err();
        assert_eq!(err, SockError::ArpMiss);
        assert_eq!(stack.arp.misses, 1);
    }

    #[test]
    fn offload_skips_sw_udp_checksum_cost() {
        let (mut stack, mut cost) = fixture();
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let payload = vec![1u8; 1024];
        let (_, cpu_sw) = stack.sendto(dst, 1, 2, &payload, false, &mut cost).unwrap();
        let (frame_off, cpu_off) = stack.sendto(dst, 1, 2, &payload, true, &mut cost).unwrap();
        assert!(cpu_off < cpu_sw);
        // Offloaded frame leaves the checksum zero for the device.
        let parsed = parse_udp_frame(&frame_off).unwrap();
        assert!(parsed.udp_csum_ok); // zero = "not used" is acceptable
    }

    #[test]
    fn receive_path_round_trip() {
        let (mut stack, mut cost) = fixture();
        let (frame, _) = stack
            .sendto(
                Ipv4Addr::new(10, 0, 0, 2),
                40000,
                7,
                &[9u8; 32],
                false,
                &mut cost,
            )
            .unwrap();
        // Echoed back: swap direction (our stack receives its own echo
        // with ports swapped by the responder).
        let echoed = {
            let parsed = parse_udp_frame(&frame).unwrap();
            crate::packet::build_udp_frame(&parsed.flow.reversed(), 77, parsed.payload, true)
        };
        let (delivered, cpu) = stack
            .netif_receive(&echoed, 40000, false, &mut cost)
            .unwrap();
        assert_eq!(delivered.payload, vec![9u8; 32]);
        assert!(cpu > Time::ZERO);
        let tail = stack.recvfrom_return(delivered.payload.len(), &mut cost);
        assert!(tail > Time::ZERO);
        assert_eq!(stack.rx_count, 1);
    }

    #[test]
    fn wrong_port_dropped() {
        let (mut stack, mut cost) = fixture();
        let (frame, _) = stack
            .sendto(Ipv4Addr::new(10, 0, 0, 2), 40000, 7, &[1], false, &mut cost)
            .unwrap();
        let parsed = parse_udp_frame(&frame).unwrap();
        let echoed =
            crate::packet::build_udp_frame(&parsed.flow.reversed(), 1, parsed.payload, true);
        let err = stack
            .netif_receive(&echoed, 9999, false, &mut cost)
            .unwrap_err();
        assert_eq!(err, SockError::PortMismatch);
    }

    #[test]
    fn corrupted_echo_dropped_by_checksum() {
        let (mut stack, mut cost) = fixture();
        let (frame, _) = stack
            .sendto(
                Ipv4Addr::new(10, 0, 0, 2),
                40000,
                7,
                &[5u8; 16],
                false,
                &mut cost,
            )
            .unwrap();
        let parsed = parse_udp_frame(&frame).unwrap();
        let mut echoed =
            crate::packet::build_udp_frame(&parsed.flow.reversed(), 1, parsed.payload, true);
        let n = echoed.len();
        echoed[n - 1] ^= 0x01;
        let err = stack
            .netif_receive(&echoed, 40000, false, &mut cost)
            .unwrap_err();
        assert_eq!(err, SockError::BadChecksum);
        // With device-validated checksums the corrupt datagram would slip
        // through parsing (the device lied) — the stack trusts it.
        assert!(stack.netif_receive(&echoed, 40000, true, &mut cost).is_ok());
    }
}
