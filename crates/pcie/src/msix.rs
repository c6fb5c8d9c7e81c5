//! MSI-X interrupt machinery (device side).
//!
//! An MSI-X interrupt is just a 4-byte posted write to a per-vector
//! address programmed by the host (on x86, the LAPIC window at
//! `0xFEE0_0000`). The device model keeps the vector table and the
//! pending-bit array; when user logic or a DMA engine asserts a vector,
//! [`MsixTable::fire`] either yields the `(address, data)` pair to put on
//! the wire or latches the pending bit if the vector is masked or the
//! table disabled — exactly the masking semantics drivers rely on
//! while servicing interrupts.

/// Base of the x86 LAPIC MSI address window; writes here are interrupts,
/// not memory traffic.
pub const MSI_ADDR_BASE: u64 = 0xFEE0_0000;

/// One MSI-X vector table entry.
#[derive(Clone, Copy, Debug, Default)]
pub struct MsixEntry {
    /// Message address (host-programmed).
    pub addr: u64,
    /// Message data (host-programmed; carries the vector number).
    pub data: u32,
    /// Per-vector mask bit.
    pub masked: bool,
}

/// The device-side MSI-X state: vector table + pending bits + enables.
#[derive(Clone, Debug)]
pub struct MsixTable {
    entries: Vec<MsixEntry>,
    pending: Vec<bool>,
    /// MSI-X enable bit from the capability's message control word.
    pub enabled: bool,
    /// Count of messages actually put on the wire (for reports).
    pub fired: u64,
}

impl MsixTable {
    /// A table with `n` vectors, all masked per the spec's reset state.
    pub fn new(n: usize) -> Self {
        assert!((1..=2048).contains(&n));
        MsixTable {
            entries: vec![
                MsixEntry {
                    masked: true,
                    ..Default::default()
                };
                n
            ],
            pending: vec![false; n],
            enabled: false,
            fired: 0,
        }
    }

    /// Number of vectors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table has no vectors (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Host programs a vector (unmasking it in the same operation, as the
    /// kernel's `request_irq` path does).
    pub fn program(&mut self, vec: usize, addr: u64, data: u32) {
        let e = &mut self.entries[vec];
        e.addr = addr;
        e.data = data;
        e.masked = false;
    }

    /// Host sets/clears a vector's mask bit. Unmasking with the pending
    /// bit set releases the latched interrupt (returned as the message to
    /// send).
    pub fn set_mask(&mut self, vec: usize, masked: bool) -> Option<(u64, u32)> {
        self.entries[vec].masked = masked;
        if !masked {
            self.release(vec)
        } else {
            None
        }
    }

    fn deliverable(&self, vec: usize) -> bool {
        self.enabled && !self.entries[vec].masked
    }

    fn release(&mut self, vec: usize) -> Option<(u64, u32)> {
        if self.pending[vec] && self.deliverable(vec) {
            self.pending[vec] = false;
            self.fired += 1;
            let e = self.entries[vec];
            Some((e.addr, e.data))
        } else {
            None
        }
    }

    /// Device asserts vector `vec`. Returns the message to write upstream,
    /// or `None` if it was latched as pending (masked/disabled).
    pub fn fire(&mut self, vec: usize) -> Option<(u64, u32)> {
        if self.deliverable(vec) {
            self.fired += 1;
            let e = self.entries[vec];
            Some((e.addr, e.data))
        } else {
            self.pending[vec] = true;
            None
        }
    }

    /// Pending-bit array view (the PBA the host can read).
    pub fn pending(&self) -> &[bool] {
        &self.pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn armed() -> MsixTable {
        let mut t = MsixTable::new(4);
        t.enabled = true;
        for v in 0..4 {
            t.program(v, MSI_ADDR_BASE, 0x40 + v as u32);
        }
        t
    }

    #[test]
    fn fire_when_armed() {
        let mut t = armed();
        assert_eq!(t.fire(2), Some((MSI_ADDR_BASE, 0x42)));
        assert_eq!(t.fired, 1);
        assert!(!t.pending()[2]);
    }

    #[test]
    fn reset_state_is_masked() {
        let mut t = MsixTable::new(2);
        t.enabled = true;
        assert_eq!(t.fire(0), None);
        assert!(t.pending()[0]);
    }

    #[test]
    fn disabled_table_latches() {
        let mut t = armed();
        t.enabled = false;
        assert_eq!(t.fire(1), None);
        assert!(t.pending()[1]);
        // Enabling alone does not replay; unmask (a control write) does.
        t.enabled = true;
        assert_eq!(t.set_mask(1, false), Some((MSI_ADDR_BASE, 0x41)));
        assert!(!t.pending()[1]);
    }

    #[test]
    fn per_vector_mask_and_release() {
        let mut t = armed();
        assert_eq!(t.set_mask(3, true), None);
        assert_eq!(t.fire(3), None);
        assert!(t.pending()[3]);
        let released = t.set_mask(3, false);
        assert_eq!(released, Some((MSI_ADDR_BASE, 0x43)));
        // Releasing consumed the pending bit; nothing further.
        assert_eq!(t.set_mask(3, false), None);
    }

    #[test]
    fn duplicate_fire_latches_once() {
        let mut t = armed();
        t.set_mask(0, true);
        t.fire(0);
        t.fire(0);
        t.fire(0);
        // One latched interrupt regardless of how many times asserted —
        // MSI-X pending bits are level-ish, not a queue.
        assert_eq!(t.set_mask(0, false), Some((MSI_ADDR_BASE, 0x40)));
        assert_eq!(t.set_mask(0, false), None);
    }
}
