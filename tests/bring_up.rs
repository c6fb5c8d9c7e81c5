//! Bring-up goldens: the guest memory each front end leaves behind after
//! its `init`, pinned as the FNV-1a digest of every allocated byte in
//! `tests/golden/bring_up.txt`. Rings, free lists and posted RX buffers
//! are plain bytes the device later reads, so however `init` writes
//! them, the bytes must come out the same. A failing test prints the
//! rows that moved; `golden/mod.rs` says how to re-pin.

mod golden;

use golden::{fnv1a, Row};
use vf_hostsw::{VirtioBlkDriver, VirtioNetDriver, VirtioNetMqDriver};
use vf_pcie::HostMemory;
use vf_virtio::{block, feature, net};

const TABLE: &str = "bring_up";

/// The testbed's queue size.
const QUEUE_SIZE: u16 = 256;

/// The features a net front end requests: split or packed rings, with
/// or without EVENT_IDX.
fn net_features(packed: bool, event_idx: bool) -> u64 {
    let mut want = feature::VERSION_1 | net::feature::MAC;
    if packed {
        want |= feature::RING_PACKED;
    }
    if event_idx {
        want |= feature::RING_EVENT_IDX;
    }
    want
}

/// The row of guest memory after `init` ran on a fresh testbed memory:
/// the bytes allocated and their digest.
fn memory_row(name: &str, init: impl FnOnce(&mut HostMemory)) -> Row {
    let mut mem = HostMemory::testbed_default();
    init(&mut mem);
    let allocated = mem.allocated() as usize;
    let bytes = mem.slice(mem.base(), allocated).iter().copied();
    Row(name.to_string())
        .field("allocated", allocated)
        .hex("digest", fnv1a(bytes))
}

fn rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for (layout, packed) in [("split", false), ("packed", true)] {
        for (events, event_idx) in [("event_idx", true), ("no_event_idx", false)] {
            let want = net_features(packed, event_idx);
            rows.push(memory_row(&format!("net_{layout}_{events}"), |mem| {
                VirtioNetDriver::init(mem, QUEUE_SIZE, want);
            }));
        }
        let want = net_features(packed, true);
        rows.push(memory_row(&format!("net_mq4_{layout}"), |mem| {
            VirtioNetMqDriver::init(mem, QUEUE_SIZE, 4, want);
        }));
    }
    let want = feature::VERSION_1 | feature::RING_EVENT_IDX | block::feature::SEG_MAX;
    rows.push(memory_row("blk", |mem| {
        VirtioBlkDriver::init(mem, QUEUE_SIZE, want, 4, 8, 128 << 10);
    }));
    rows
}

#[test]
fn bring_up_memory_matches_golden() {
    let rows = rows();
    golden::check(TABLE, &rows);
    let names: Vec<&str> = rows.iter().map(Row::name).collect();
    golden::no_orphans(TABLE, &names);
}
