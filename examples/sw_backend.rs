//! A software back-end device on a real thread — the *left side* of the
//! paper's Fig. 1, running live.
//!
//! In classic paravirtualization the VirtIO driver talks to a back-end
//! emulated in host software (a vhost-style worker). This example runs
//! that worker on an actual OS thread, consuming the very same split
//! rings — over shared memory with the spec's fence discipline — that
//! the simulated FPGA consumes over PCIe. It is the symmetry the paper
//! exploits: the driver cannot tell a software device from the FPGA, so
//! replacing the worker with silicon requires no driver change at all.
//!
//! ```sh
//! cargo run --release --example sw_backend
//! ```

use std::thread;
use std::time::Instant;

use vf_virtio::driver_queue::BufferSpec;
use vf_virtio::{GuestMemory, LoopbackPair};

fn main() {
    const REQUESTS: u32 = 50_000;
    let LoopbackPair {
        mut driver,
        mut device,
        data_base,
    } = LoopbackPair::new(128, 1 << 22);

    // The back-end worker: echo each request chain into its response
    // buffer, uppercasing it (a "device" that does visible work).
    let worker = thread::spawn(move || {
        let mut served = 0u32;
        while served < REQUESTS {
            if let Some(chain) = device.next_chain() {
                let req = &chain.bufs[0];
                let resp = &chain.bufs[1];
                let mut data = device.mem.read_vec(req.addr, req.len as usize);
                data.iter_mut().for_each(|b| *b = b.to_ascii_uppercase());
                device.mem.write(resp.addr, &data);
                let written = resp.len;
                device.complete(chain, written);
                served += 1;
            } else {
                // Give the producer the core when the queue is dry (the
                // sandboxed CI runners this demo targets may pin both
                // threads to one CPU).
                thread::yield_now();
            }
        }
        served
    });

    // The driver side: pump a window of requests, verify every response.
    let t0 = Instant::now();
    let window = 32u64;
    let slot_bytes = 128u64;
    let mut sent = 0u32;
    let mut done = 0u32;
    let mut in_flight: std::collections::HashMap<u16, u32> = Default::default();
    while done < REQUESTS {
        while sent < REQUESTS && (in_flight.len() as u64) < window {
            let slot = data_base + (sent as u64 % window) * slot_bytes * 2;
            let msg = format!("msg-{sent:06}");
            driver.mem.write(slot, msg.as_bytes());
            let head = driver
                .send(&[
                    BufferSpec::readable(slot, msg.len() as u32),
                    BufferSpec::writable(slot + slot_bytes, msg.len() as u32),
                ])
                .expect("window < ring");
            in_flight.insert(head, sent);
            sent += 1;
        }
        if let Some(used) = driver.try_recv() {
            let n = in_flight.remove(&(used.id as u16)).expect("known head");
            let slot = data_base + (n as u64 % window) * slot_bytes * 2;
            let got = driver.mem.read_vec(slot + slot_bytes, used.len as usize);
            assert_eq!(got, format!("MSG-{n:06}").into_bytes(), "echo corrupted");
            done += 1;
        } else {
            thread::yield_now();
        }
    }
    let elapsed = t0.elapsed();
    assert_eq!(worker.join().unwrap(), REQUESTS);

    println!(
        "software back-end served {REQUESTS} requests across two threads in {elapsed:.2?}\n\
         ({:.0} req/s through the same split-ring code the FPGA model walks\n\
         over PCIe — swap the worker for the VirtIO controller and the driver\n\
         side does not change a line)",
        REQUESTS as f64 / elapsed.as_secs_f64()
    );
}
