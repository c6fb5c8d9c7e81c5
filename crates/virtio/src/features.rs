//! Feature negotiation and the device status state machine.
//!
//! VirtIO's forward/backward compatibility story — one of the paper's
//! motivations for replacing per-device drivers — rests on feature bits:
//! the device offers a set, the driver accepts a subset, and the device
//! validates the result at `FEATURES_OK`. The status byte walks
//! `ACKNOWLEDGE → DRIVER → FEATURES_OK → DRIVER_OK`, with `FAILED` /
//! `NEEDS_RESET` escape hatches (VirtIO 1.2 §2.1–2.2, §3.1).

/// Device status bits (VirtIO 1.2 §2.1).
pub mod status {
    /// Guest OS noticed the device.
    pub const ACKNOWLEDGE: u8 = 1;
    /// Guest OS knows how to drive it.
    pub const DRIVER: u8 = 2;
    /// Driver is ready to operate the device.
    pub const DRIVER_OK: u8 = 4;
    /// Feature negotiation finished.
    pub const FEATURES_OK: u8 = 8;
    /// Device hit an unrecoverable error.
    pub const NEEDS_RESET: u8 = 64;
    /// Driver gave up on the device.
    pub const FAILED: u8 = 128;
}

/// Device-independent feature bits (VirtIO 1.2 §6).
pub mod feature {
    /// Indirect descriptor tables supported.
    pub const RING_INDIRECT_DESC: u64 = 1 << 28;
    /// `used_event`/`avail_event` notification suppression.
    pub const RING_EVENT_IDX: u64 = 1 << 29;
    /// Modern (non-transitional) device — mandatory for VirtIO 1.x.
    pub const VERSION_1: u64 = 1 << 32;
    /// Device can be used from a restricted-access context.
    pub const ACCESS_PLATFORM: u64 = 1 << 33;
    /// Packed ring layout (VirtIO 1.2 §2.8). The paper's framework
    /// implements split rings; the testbed's `VirtioPacked` driver kind
    /// negotiates this bit to drive the one-ring layout instead (E17).
    pub const RING_PACKED: u64 = 1 << 34;
}

/// Outcome of the driver's feature write at `FEATURES_OK` time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NegotiationError {
    /// Driver accepted a bit the device never offered.
    NotOffered {
        /// The offending bits.
        bits: u64,
    },
    /// Driver did not accept `VERSION_1` (legacy drivers are rejected by
    /// the modern-only interface the paper's framework implements).
    MissingVersion1,
    /// Status written out of order.
    BadTransition {
        /// Status before the write.
        from: u8,
        /// Status the driver attempted to set.
        to: u8,
    },
}

/// The device-side negotiation state machine.
#[derive(Clone, Debug)]
pub struct Negotiation {
    /// Features the device offers.
    offered: u64,
    /// Features the driver has written so far.
    driver_features: u64,
    /// Current device status byte.
    status: u8,
    /// Whether the device rejected the feature set (drives FEATURES_OK
    /// read-back).
    features_rejected: bool,
}

impl Negotiation {
    /// A device offering `offered` (must include `VERSION_1`).
    pub fn new(offered: u64) -> Self {
        assert!(
            offered & feature::VERSION_1 != 0,
            "modern devices must offer VERSION_1"
        );
        Negotiation {
            offered,
            driver_features: 0,
            status: 0,
            features_rejected: false,
        }
    }

    /// Features the device offers (driver reads these via
    /// `device_feature_select`/`device_feature`).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Current status byte (driver reads back after every write, per
    /// spec).
    pub fn status(&self) -> u8 {
        if self.features_rejected {
            // FEATURES_OK reads back clear if the device rejected the set.
            self.status & !status::FEATURES_OK
        } else {
            self.status
        }
    }

    /// Negotiated feature set — only meaningful once `DRIVER_OK`.
    pub fn negotiated(&self) -> u64 {
        self.driver_features & self.offered
    }

    /// True once the driver has completed initialization.
    pub fn is_live(&self) -> bool {
        self.status() & status::DRIVER_OK != 0 && !self.features_rejected
    }

    /// Driver writes its accepted feature bits (must happen before
    /// FEATURES_OK).
    pub fn write_driver_features(&mut self, bits: u64) {
        self.driver_features = bits;
    }

    /// Driver writes the status byte. Writing 0 resets the device.
    pub fn write_status(&mut self, new: u8) -> Result<(), NegotiationError> {
        if new == 0 {
            *self = Negotiation::new(self.offered);
            return Ok(());
        }
        let old = self.status;
        // Bits may only be added, never removed (except by reset).
        if old & !new != 0 {
            return Err(NegotiationError::BadTransition { from: old, to: new });
        }
        if new & status::FEATURES_OK != 0 && old & status::FEATURES_OK == 0 {
            // Validate the driver's feature set now.
            let bogus = self.driver_features & !self.offered;
            if bogus != 0 {
                self.features_rejected = true;
                self.status = new;
                return Err(NegotiationError::NotOffered { bits: bogus });
            }
            if self.driver_features & feature::VERSION_1 == 0 {
                self.features_rejected = true;
                self.status = new;
                return Err(NegotiationError::MissingVersion1);
            }
        }
        if new & status::DRIVER_OK != 0 && old & status::FEATURES_OK == 0 {
            return Err(NegotiationError::BadTransition { from: old, to: new });
        }
        self.status = new;
        Ok(())
    }

    /// Device-side fault: force NEEDS_RESET.
    pub fn need_reset(&mut self) {
        self.status |= status::NEEDS_RESET;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The driver half of VirtIO 1.2 §3.1.1 reduced to this state
    /// machine: reset, ACKNOWLEDGE, DRIVER, the offered subset of
    /// `want`, FEATURES_OK (verified by read-back). Returns the
    /// negotiated set. The sequence drivers run over the register file
    /// is `vf_hostsw::virtio_pci::negotiate`.
    fn driver_init(dev: &mut Negotiation, want: u64) -> Result<u64, NegotiationError> {
        dev.write_status(0)?;
        dev.write_status(status::ACKNOWLEDGE)?;
        dev.write_status(status::ACKNOWLEDGE | status::DRIVER)?;
        let accept = dev.offered() & want | feature::VERSION_1;
        dev.write_driver_features(accept);
        dev.write_status(status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK)?;
        if dev.status() & status::FEATURES_OK == 0 {
            return Err(NegotiationError::NotOffered { bits: 0 });
        }
        Ok(dev.negotiated())
    }

    const NET_OFFER: u64 =
        feature::VERSION_1 | feature::RING_EVENT_IDX | feature::RING_INDIRECT_DESC | 0x23;

    #[test]
    fn happy_path() {
        let mut dev = Negotiation::new(NET_OFFER);
        let got =
            driver_init(&mut dev, feature::VERSION_1 | feature::RING_EVENT_IDX | 0x3).unwrap();
        assert_eq!(got, feature::VERSION_1 | feature::RING_EVENT_IDX | 0x3);
        dev.write_status(
            status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK | status::DRIVER_OK,
        )
        .unwrap();
        assert!(dev.is_live());
        assert_eq!(dev.negotiated(), got);
    }

    #[test]
    fn subset_negotiation() {
        // Driver wanting an un-offered bit only gets the intersection when
        // using the standard helper (it masks with offered()).
        let mut dev = Negotiation::new(NET_OFFER);
        let got = driver_init(&mut dev, u64::MAX).unwrap();
        assert_eq!(got, NET_OFFER);
    }

    #[test]
    fn rejects_unoffered_bits() {
        let mut dev = Negotiation::new(NET_OFFER);
        dev.write_status(status::ACKNOWLEDGE).unwrap();
        dev.write_status(status::ACKNOWLEDGE | status::DRIVER)
            .unwrap();
        dev.write_driver_features(feature::VERSION_1 | (1 << 7)); // not offered
        let err = dev
            .write_status(status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK)
            .unwrap_err();
        assert_eq!(err, NegotiationError::NotOffered { bits: 1 << 7 });
        // Spec: FEATURES_OK reads back clear → driver knows to bail.
        assert_eq!(dev.status() & status::FEATURES_OK, 0);
        assert!(!dev.is_live());
    }

    #[test]
    fn rejects_legacy_driver() {
        let mut dev = Negotiation::new(NET_OFFER);
        dev.write_status(status::ACKNOWLEDGE).unwrap();
        dev.write_status(status::ACKNOWLEDGE | status::DRIVER)
            .unwrap();
        dev.write_driver_features(0x3); // no VERSION_1
        let err = dev
            .write_status(status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK)
            .unwrap_err();
        assert_eq!(err, NegotiationError::MissingVersion1);
    }

    /// The failure path of VirtIO 1.2 §3.1.1 step 5: the device clears
    /// FEATURES_OK on read-back and the driver gives up by *adding* the
    /// FAILED bit to the status it already set.
    #[test]
    fn driver_sets_failed_after_rejection() {
        let mut dev = Negotiation::new(NET_OFFER);
        dev.write_status(status::ACKNOWLEDGE).unwrap();
        dev.write_status(status::ACKNOWLEDGE | status::DRIVER)
            .unwrap();
        dev.write_driver_features(feature::VERSION_1 | (1 << 7)); // not offered
        assert!(dev
            .write_status(status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK)
            .is_err());
        assert_eq!(dev.status() & status::FEATURES_OK, 0);
        // Driver bails: status bits may only be added, so FAILED lands
        // on top of ACKNOWLEDGE|DRIVER|FEATURES_OK.
        dev.write_status(
            status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK | status::FAILED,
        )
        .unwrap();
        assert!(dev.status() & status::FAILED != 0);
        assert_eq!(
            dev.status() & status::FEATURES_OK,
            0,
            "rejection keeps masking FEATURES_OK"
        );
        assert!(!dev.is_live());
    }

    /// A FAILED device is not bricked: reset clears the rejection and a
    /// corrected feature set negotiates cleanly.
    #[test]
    fn reset_recovers_from_failed_negotiation() {
        let mut dev = Negotiation::new(NET_OFFER);
        dev.write_status(status::ACKNOWLEDGE).unwrap();
        dev.write_status(status::ACKNOWLEDGE | status::DRIVER)
            .unwrap();
        dev.write_driver_features(feature::VERSION_1 | feature::RING_PACKED); // not offered
        assert_eq!(
            dev.write_status(status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK)
                .unwrap_err(),
            NegotiationError::NotOffered {
                bits: feature::RING_PACKED
            }
        );
        dev.write_status(
            status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK | status::FAILED,
        )
        .unwrap();
        // Second attempt after reset, this time within the offer.
        let got = driver_init(&mut dev, feature::VERSION_1 | feature::RING_EVENT_IDX).unwrap();
        assert_eq!(got, feature::VERSION_1 | feature::RING_EVENT_IDX);
        dev.write_status(
            status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK | status::DRIVER_OK,
        )
        .unwrap();
        assert!(dev.is_live());
    }

    /// DRIVER_OK written while the device is still rejecting the feature
    /// set must not bring the device live.
    #[test]
    fn driver_ok_after_rejection_stays_dead() {
        let mut dev = Negotiation::new(NET_OFFER);
        dev.write_status(status::ACKNOWLEDGE).unwrap();
        dev.write_status(status::ACKNOWLEDGE | status::DRIVER)
            .unwrap();
        dev.write_driver_features(feature::VERSION_1 | (1 << 9));
        assert!(dev
            .write_status(status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK)
            .is_err());
        // A buggy driver barrels on to DRIVER_OK anyway.
        let _ = dev.write_status(
            status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK | status::DRIVER_OK,
        );
        assert!(!dev.is_live(), "rejected negotiation must never go live");
    }

    #[test]
    fn driver_ok_requires_features_ok() {
        let mut dev = Negotiation::new(NET_OFFER);
        dev.write_status(status::ACKNOWLEDGE).unwrap();
        let err = dev
            .write_status(status::ACKNOWLEDGE | status::DRIVER_OK)
            .unwrap_err();
        assert!(matches!(err, NegotiationError::BadTransition { .. }));
    }

    #[test]
    fn status_bits_cannot_be_removed() {
        let mut dev = Negotiation::new(NET_OFFER);
        dev.write_status(status::ACKNOWLEDGE | status::DRIVER)
            .unwrap();
        let err = dev.write_status(status::ACKNOWLEDGE).unwrap_err();
        assert!(matches!(err, NegotiationError::BadTransition { .. }));
    }

    #[test]
    fn reset_clears_everything() {
        let mut dev = Negotiation::new(NET_OFFER);
        driver_init(&mut dev, u64::MAX).unwrap();
        dev.write_status(0).unwrap();
        assert_eq!(dev.status(), 0);
        assert_eq!(dev.negotiated() & feature::VERSION_1, 0);
        // Renegotiation works after reset.
        driver_init(&mut dev, feature::VERSION_1).unwrap();
        assert_eq!(dev.negotiated(), feature::VERSION_1);
    }

    #[test]
    fn needs_reset_flag_visible() {
        let mut dev = Negotiation::new(NET_OFFER);
        driver_init(&mut dev, u64::MAX).unwrap();
        dev.need_reset();
        assert!(dev.status() & status::NEEDS_RESET != 0);
    }

    #[test]
    #[should_panic(expected = "VERSION_1")]
    fn device_must_offer_version_1() {
        let _ = Negotiation::new(0x3);
    }
}
