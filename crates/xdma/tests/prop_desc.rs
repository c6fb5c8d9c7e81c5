//! Property tests on the XDMA substrate: descriptor encode/decode,
//! list building, and engine data-movement integrity for arbitrary
//! transfer geometries.

use proptest::collection::vec;
use proptest::prelude::*;

use vf_pcie::{HostMemory, LinkConfig, PcieLink};
use vf_sim::Time;
use vf_xdma::desc::{build_list, XdmaDesc, CTRL_STOP};
use vf_xdma::{CardMemory, ChannelDir, VecCardMemory, XdmaEngine};

fn arb_desc() -> impl Strategy<Value = XdmaDesc> {
    (
        any::<u8>(),
        0u8..64,
        0u32..XdmaDesc::MAX_LEN,
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(control, nxt_adj, len, src, dst, next)| XdmaDesc {
            control,
            nxt_adj,
            len,
            src,
            dst,
            next,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn descriptor_encode_decode(desc in arb_desc()) {
        let bytes = desc.to_bytes();
        prop_assert_eq!(XdmaDesc::from_bytes(&bytes), Some(desc));
    }

    #[test]
    fn corrupted_magic_never_decodes(desc in arb_desc(), flip in 0u8..8) {
        let mut bytes = desc.to_bytes();
        // Flip a bit inside the magic halfword (bytes 2-3 of word 0).
        bytes[2 + (flip as usize) / 8] ^= 1 << (flip % 8);
        prop_assert_eq!(XdmaDesc::from_bytes(&bytes), None);
    }

    #[test]
    fn build_list_partitions_exactly(
        src in 0u64..0x10_000,
        dst in 0u64..0x10_000,
        len in 1u32..100_000,
        chunk_pow in 6u32..13,
    ) {
        let chunk = 1u32 << chunk_pow;
        let mut mem = HostMemory::new(0, 1 << 21);
        let count = build_list(&mut mem, 0x8_0000, src, dst, len, chunk);
        // Walk the list as the engine does: from the base, along `next`.
        let mut descs = Vec::new();
        let mut at = 0x8_0000;
        loop {
            let desc = XdmaDesc::read_from(&mem, at).unwrap();
            descs.push(desc);
            if desc.is_last() {
                break;
            }
            prop_assert_eq!(desc.next, at + XdmaDesc::SIZE);
            at = desc.next;
        }
        prop_assert_eq!(descs.len(), count as usize);
        prop_assert_eq!(descs.iter().map(|d| d.len).sum::<u32>(), len);
        prop_assert!(descs.iter().all(|d| d.len <= chunk));
        // Exactly the last descriptor stops.
        prop_assert_eq!(
            descs.iter().filter(|d| d.control & CTRL_STOP != 0).count(),
            1
        );
        prop_assert!(descs.last().unwrap().is_last());
        // Addresses tile the source/destination ranges contiguously.
        let mut s = src;
        let mut d = dst;
        for desc in &descs {
            prop_assert_eq!(desc.src, s);
            prop_assert_eq!(desc.dst, d);
            s += desc.len as u64;
            d += desc.len as u64;
        }
    }

    #[test]
    fn engine_moves_exact_bytes_h2c(
        payload in vec(any::<u8>(), 1..6000),
        card_dst in (0u64..1024).prop_map(|x| x * 8),
    ) {
        let mut link = PcieLink::new(LinkConfig::gen2_x2());
        let mut host = HostMemory::new(0, 1 << 21);
        let mut card = VecCardMemory::new(1 << 16);
        HostMemory::write(&mut host, 0x10_000, &payload);
        let count =
            build_list(&mut host, 0x8_0000, 0x10_000, card_dst, payload.len() as u32, 4096);
        let mut eng = XdmaEngine::new(ChannelDir::H2C);
        let out = eng
            .run(Time::ZERO, 0x8_0000, &mut link, &mut host, &mut card)
            .unwrap();
        prop_assert_eq!(out.descriptors, count);
        prop_assert_eq!(out.bytes, payload.len() as u64);
        let mut back = vec![0u8; payload.len()];
        card.read(card_dst, &mut back);
        prop_assert_eq!(back, payload);
    }

    #[test]
    fn engine_round_trip_h2c_then_c2h(payload in vec(any::<u8>(), 1..4000)) {
        let mut link = PcieLink::new(LinkConfig::gen2_x2());
        let mut host = HostMemory::new(0, 1 << 21);
        let mut card = VecCardMemory::new(1 << 16);
        HostMemory::write(&mut host, 0x10_000, &payload);
        build_list(&mut host, 0x8_0000, 0x10_000, 0x100, payload.len() as u32, 4096);
        let mut h2c = XdmaEngine::new(ChannelDir::H2C);
        let t1 = h2c
            .run(Time::ZERO, 0x8_0000, &mut link, &mut host, &mut card)
            .unwrap()
            .completed_at;
        build_list(&mut host, 0x9_0000, 0x100, 0x20_000, payload.len() as u32, 4096);
        let mut c2h = XdmaEngine::new(ChannelDir::C2H);
        let t2 = c2h
            .run(t1, 0x9_0000, &mut link, &mut host, &mut card)
            .unwrap()
            .completed_at;
        prop_assert!(t2 > t1);
        prop_assert_eq!(host.slice(0x20_000, payload.len()), &payload[..]);
    }
}
