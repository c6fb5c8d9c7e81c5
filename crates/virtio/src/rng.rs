//! virtio-rng (entropy) device type — the fourth device type of the
//! framework, and the simplest possible demonstration of the paper's
//! "minimal modifications per device type" claim: an entropy device has
//! **no device-specific configuration structure at all** and a single
//! request queue of device-writable buffers (VirtIO 1.2 §5.4). On the
//! FPGA, the natural backing is a true-RNG primitive (ring-oscillator
//! jitter); here a deterministic generator stands in so tests are
//! reproducible.

/// Queue index of the request queue.
pub const REQUEST_QUEUE: u16 = 0;

/// A deterministic entropy source standing in for a fabric TRNG.
///
/// xorshift64* — tiny, passes casual statistical checks, and (being
/// seeded) keeps the simulation reproducible. A real device would gate
/// this behind a hardware entropy conditioner.
#[derive(Clone, Debug)]
pub struct EntropySource {
    state: u64,
    /// Bytes produced (for reports).
    pub produced: u64,
}

impl EntropySource {
    /// Seeded source (seed must be non-zero; 0 is mapped away).
    pub fn new(seed: u64) -> Self {
        EntropySource {
            state: seed | 1,
            produced: 0,
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Fill `buf` with entropy.
    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
        self.produced += buf.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver_queue::{BufferSpec, DriverQueue};
    use crate::layout::DeviceRing;
    use crate::mem::{GuestMemory, VecMemory};
    use crate::ring::VirtqueueLayout;

    #[test]
    fn deterministic_for_seed() {
        let mut a = EntropySource::new(7);
        let mut b = EntropySource::new(7);
        let mut ba = [0u8; 32];
        let mut bb = [0u8; 32];
        a.fill(&mut ba);
        b.fill(&mut bb);
        assert_eq!(ba, bb);
        let mut c = EntropySource::new(8);
        let mut bc = [0u8; 32];
        c.fill(&mut bc);
        assert_ne!(ba, bc);
    }

    #[test]
    fn output_is_not_degenerate() {
        let mut src = EntropySource::new(99);
        let mut buf = vec![0u8; 4096];
        src.fill(&mut buf);
        // Crude sanity: byte histogram reasonably flat, no long runs.
        let mut hist = [0u32; 256];
        for &b in &buf {
            hist[b as usize] += 1;
        }
        assert!(hist.iter().all(|&c| c < 64), "histogram too peaked");
        assert!(!buf.windows(8).any(|w| w.iter().all(|&b| b == w[0])));
        assert_eq!(src.produced, 4096);
    }

    #[test]
    fn serves_requests_through_the_ring() {
        let mut mem = VecMemory::new(1 << 16);
        let layout = VirtqueueLayout::contiguous(0x1000, 8);
        let mut drv = DriverQueue::new(&mut mem, layout, false);
        let mut dev = DeviceRing::split(layout, false, false, REQUEST_QUEUE);
        let mut src = EntropySource::new(3);
        // The guest asks for 48 bytes of entropy.
        drv.add_and_publish(&mut mem, &[BufferSpec::writable(0x8000, 48)])
            .unwrap();
        dev.prologue(&mem, false);
        let chain = dev.next_chain(&mem).unwrap().unwrap();
        let buf = chain.bufs[0];
        assert!(buf.writable);
        let mut data = vec![0u8; buf.len as usize];
        src.fill(&mut data);
        mem.write(buf.addr, &data);
        dev.complete(&mut mem, &chain, buf.len);
        let used = drv.pop_used(&mut mem).unwrap();
        assert_eq!(used.len, 48);
        let got = mem.read_vec(0x8000, 48);
        assert!(!got.iter().all(|&b| b == 0), "entropy delivered");
    }
}
