//! The virtio-pci transport driver: the VirtIO 1.2 §3.1.1 device
//! initialization every front end runs, written once.
//!
//! A probe is reset, ACKNOWLEDGE, DRIVER, feature negotiation through
//! the select windows, FEATURES_OK with read-back verification, queue
//! programming (every ring address shared with the device exactly
//! once), then DRIVER_OK. The front ends differ only in which queues
//! they program and which device-config fields they read afterwards:
//! [`probe`](crate::virtio_net::probe) and
//! [`probe_net`](crate::virtio_net::probe_net),
//! [`probe_mq`](crate::virtio_mq::probe_mq),
//! [`probe_blk`](crate::virtio_blk::probe_blk) and
//! [`probe_console`](crate::virtio_console::probe_console) are each a
//! few lines over [`negotiate`], [`require_queues`], [`program_queue`]
//! and [`set_driver_ok`]. The `vf-pmd` poll-mode driver's probe is the
//! net probe with `RING_EVENT_IDX` required.

use vf_virtio::pci::{common, VirtioTransport};
use vf_virtio::{feature as core_feature, status, VirtqueueLayout};

/// Errors during device probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeError {
    /// Device rejected our feature selection (FEATURES_OK read back 0).
    FeaturesRejected,
    /// Device does not offer these feature bits, without which the
    /// driver cannot run (`RING_PACKED` for a packed front end,
    /// `RING_EVENT_IDX` for the PMD). The driver set FAILED before
    /// FEATURES_OK.
    MissingFeature(u64),
    /// Device reports fewer queues than the device type needs.
    NotEnoughQueues {
        /// Queues the device exposes.
        have: u16,
        /// Queues required.
        need: u16,
    },
}

/// Reset, ACKNOWLEDGE, DRIVER, then feature negotiation through the
/// select windows up to a verified FEATURES_OK. Accepts the offered
/// subset of `want | required`, plus `VERSION_1`, and returns it.
///
/// If the device does not offer every `required` bit, the driver gives
/// up with FAILED before any driver-feature write: a packed front end
/// cannot fall back to split rings, nor the PMD to interrupts.
pub fn negotiate<T: VirtioTransport>(
    transport: &mut T,
    want: u64,
    required: u64,
) -> Result<u64, ProbeError> {
    use common as c;
    transport.common_write(c::DEVICE_STATUS, 1, 0);
    transport.common_write(c::DEVICE_STATUS, 1, status::ACKNOWLEDGE as u64);
    transport.common_write(
        c::DEVICE_STATUS,
        1,
        (status::ACKNOWLEDGE | status::DRIVER) as u64,
    );

    transport.common_write(c::DEVICE_FEATURE_SELECT, 4, 0);
    let lo = transport.common_read(c::DEVICE_FEATURE, 4);
    transport.common_write(c::DEVICE_FEATURE_SELECT, 4, 1);
    let hi = transport.common_read(c::DEVICE_FEATURE, 4);
    let offered = lo | (hi << 32);
    let accept = (offered & (want | required)) | core_feature::VERSION_1;
    let missing = required & !accept;
    if missing != 0 {
        // Status bits can only be added, so FAILED goes on top of the
        // bits already set; a bare FAILED write would be rejected.
        transport.common_write(
            c::DEVICE_STATUS,
            1,
            (status::ACKNOWLEDGE | status::DRIVER | status::FAILED) as u64,
        );
        return Err(ProbeError::MissingFeature(missing));
    }

    transport.common_write(c::DRIVER_FEATURE_SELECT, 4, 0);
    transport.common_write(c::DRIVER_FEATURE, 4, accept & 0xFFFF_FFFF);
    transport.common_write(c::DRIVER_FEATURE_SELECT, 4, 1);
    transport.common_write(c::DRIVER_FEATURE, 4, accept >> 32);
    transport.common_write(
        c::DEVICE_STATUS,
        1,
        (status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK) as u64,
    );
    if transport.common_read(c::DEVICE_STATUS, 1) as u8 & status::FEATURES_OK == 0 {
        return Err(give_up(transport));
    }
    Ok(accept)
}

/// Abort a probe after FEATURES_OK was written (§3.1.1 step 4 failure):
/// the raw status still carries the FEATURES_OK the driver wrote (the
/// device only masks it on read), so FAILED goes *on top of* all of it
/// to survive the bits-only-added rule.
pub(crate) fn give_up<T: VirtioTransport>(transport: &mut T) -> ProbeError {
    transport.common_write(
        common::DEVICE_STATUS,
        1,
        (status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK | status::FAILED) as u64,
    );
    ProbeError::FeaturesRejected
}

/// Read `NUM_QUEUES` and fail unless the device exposes at least
/// `need` queues.
pub fn require_queues<T: VirtioTransport>(transport: &mut T, need: u16) -> Result<(), ProbeError> {
    let have = transport.common_read(common::NUM_QUEUES, 2) as u16;
    if have < need {
        return Err(ProbeError::NotEnoughQueues { have, need });
    }
    Ok(())
}

/// Program and enable `queue` at `layout`, with MSI-X vector = queue
/// index. A packed queue is one ring: its driver/device areas are zero.
pub fn program_queue<T: VirtioTransport>(transport: &mut T, queue: u16, layout: VirtqueueLayout) {
    use common as c;
    transport.common_write(c::QUEUE_SELECT, 2, queue as u64);
    transport.common_write(c::QUEUE_SIZE, 2, layout.size as u64);
    transport.common_write(c::QUEUE_MSIX_VECTOR, 2, queue as u64);
    transport.common_write(c::QUEUE_DESC_LO, 4, layout.desc & 0xFFFF_FFFF);
    transport.common_write(c::QUEUE_DESC_HI, 4, layout.desc >> 32);
    transport.common_write(c::QUEUE_DRIVER_LO, 4, layout.avail & 0xFFFF_FFFF);
    transport.common_write(c::QUEUE_DRIVER_HI, 4, layout.avail >> 32);
    transport.common_write(c::QUEUE_DEVICE_LO, 4, layout.used & 0xFFFF_FFFF);
    transport.common_write(c::QUEUE_DEVICE_HI, 4, layout.used >> 32);
    transport.common_write(c::QUEUE_ENABLE, 2, 1);
}

/// Set DRIVER_OK: the device is live.
pub fn set_driver_ok<T: VirtioTransport>(transport: &mut T) {
    transport.common_write(
        common::DEVICE_STATUS,
        1,
        (status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK | status::DRIVER_OK) as u64,
    );
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use vf_virtio::CommonCfg;

    /// A transport over a bare `CommonCfg` register file, to exercise
    /// the probe sequences end to end without the FPGA model.
    pub(crate) struct Loopback {
        pub(crate) cfg: CommonCfg,
        device_cfg: Box<dyn Fn(u64, usize) -> u64>,
        /// Feature bits the low feature window advertises although the
        /// register file never offered them: a lying device, which
        /// then rejects them at FEATURES_OK.
        pub(crate) bogus: u64,
    }

    impl Loopback {
        /// A device offering `offered` with `queue_sizes`, answering
        /// device-config reads with `device_cfg`.
        pub(crate) fn new(
            offered: u64,
            queue_sizes: &[u16],
            device_cfg: impl Fn(u64, usize) -> u64 + 'static,
        ) -> Self {
            Loopback {
                cfg: CommonCfg::new(offered, queue_sizes),
                device_cfg: Box::new(device_cfg),
                bogus: 0,
            }
        }

        /// The device status byte as the driver reads it back.
        pub(crate) fn status(&self) -> u8 {
            self.cfg.read(common::DEVICE_STATUS, 1) as u8
        }
    }

    impl VirtioTransport for Loopback {
        fn common_read(&mut self, off: u64, len: usize) -> u64 {
            let v = self.cfg.read(off, len);
            if off == common::DEVICE_FEATURE && self.cfg.read(common::DEVICE_FEATURE_SELECT, 4) == 0
            {
                v | self.bogus
            } else {
                v
            }
        }
        fn common_write(&mut self, off: u64, len: usize, val: u64) {
            let _ = self.cfg.write(off, len, val);
        }
        fn device_cfg_read(&mut self, off: u64, len: usize) -> u64 {
            (self.device_cfg)(off, len)
        }
    }

    #[test]
    fn required_bits_are_requested_even_when_not_wanted() {
        let offered = core_feature::VERSION_1 | core_feature::RING_EVENT_IDX;
        let mut t = Loopback::new(offered, &[16, 16], |_, _| 0);
        let got = negotiate(
            &mut t,
            core_feature::VERSION_1,
            core_feature::RING_EVENT_IDX,
        );
        assert_eq!(got, Ok(offered));
        assert!(t.status() & status::FEATURES_OK != 0);
    }
}
