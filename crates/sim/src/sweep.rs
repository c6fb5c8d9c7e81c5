//! Parallel parameter sweeps.
//!
//! Every experiment in the reproduction is a sweep over independent
//! configurations (payload size × driver × seed). Each configuration runs
//! its own `Simulation` — there is no shared mutable state between runs —
//! so the sweep is embarrassingly parallel and is spread across OS threads
//! with scoped threads. Results come back **in input order** regardless of
//! completion order, so reports are deterministic.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Run `f` over every item of `inputs` on up to `max_threads` worker
/// threads, returning outputs in input order.
///
/// Work is distributed by atomic work-stealing over an index counter, which
/// balances sweeps whose per-item cost varies by orders of magnitude (a
/// 64 B run finishes long before a 1 KiB run).
///
/// A panic in `f` is re-raised on the caller with its original payload,
/// so the caller sees the failing point's own message.
pub fn parallel_map<I, O, F>(inputs: Vec<I>, max_threads: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    assert!(max_threads > 0);
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = max_threads.min(n);
    if threads == 1 {
        return inputs.iter().map(&f).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<O>> = (0..n).map(|_| None).collect();
    // Hand each worker a disjoint view of the output slots via raw parts is
    // unnecessary: collect (index, value) pairs per worker and merge after
    // the scope instead — simpler and still allocation-light.
    let results: Vec<Vec<(usize, O)>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let inputs = &inputs;
                let f = &f;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= n {
                            break;
                        }
                        mine.push((idx, f(&inputs[idx])));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });

    for chunk in results {
        for (idx, out) in chunk {
            debug_assert!(slots[idx].is_none());
            slots[idx] = Some(out);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("sweep slot unfilled"))
        .collect()
}

/// Default thread count for sweeps: the `VF_THREADS` environment
/// variable when set to a positive integer (clamped to
/// [`MAX_THREADS`]), otherwise the machine's parallelism, leaving the
/// result at least 1.
///
/// The override lets CI pin parallelism for reproducible wall-clock
/// smokes and lets laptops throttle a sweep without touching code;
/// an unparsable or zero value falls back to the hardware count.
pub fn default_threads() -> usize {
    if let Ok(raw) = std::env::var("VF_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n.min(MAX_THREADS);
            }
        }
    }
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Upper clamp for the `VF_THREADS` override: far above any real core
/// count, low enough that a typo ("1000000") cannot ask the OS for a
/// million scoped threads.
pub const MAX_THREADS: usize = 256;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let inputs: Vec<u64> = (0..257).collect();
        let outputs = parallel_map(inputs.clone(), 8, |&x| x * x);
        assert_eq!(outputs, inputs.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_path() {
        let outputs = parallel_map(vec![1, 2, 3], 1, |&x| x + 1);
        assert_eq!(outputs, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let outputs: Vec<u32> = parallel_map(Vec::<u32>::new(), 4, |&x| x);
        assert!(outputs.is_empty());
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items with wildly different costs must all complete.
        let inputs: Vec<u64> = (0..64).collect();
        let outputs = parallel_map(inputs, 4, |&x| {
            let spin = if x % 7 == 0 { 200_000 } else { 10 };
            (0..spin).fold(x, |acc, _| acc.wrapping_mul(6364136223846793005))
        });
        assert_eq!(outputs.len(), 64);
    }

    #[test]
    fn more_threads_than_items() {
        let outputs = parallel_map(vec![5, 6], 32, |&x| x * 10);
        assert_eq!(outputs, vec![50, 60]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let _ = parallel_map(vec![0u32, 1, 2], 2, |&x| {
            assert_ne!(x, 1, "boom");
            x
        });
    }

    /// All `VF_THREADS` scenarios in one test: the test harness runs
    /// `#[test]` functions concurrently, and the environment is process
    /// global, so splitting these into separate tests would race.
    #[test]
    fn vf_threads_override() {
        let hw = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let with_env = |val: Option<&str>, f: &dyn Fn()| {
            match val {
                Some(v) => std::env::set_var("VF_THREADS", v),
                None => std::env::remove_var("VF_THREADS"),
            }
            f();
            std::env::remove_var("VF_THREADS");
        };
        with_env(None, &|| assert_eq!(default_threads(), hw));
        with_env(Some("3"), &|| assert_eq!(default_threads(), 3));
        with_env(Some(" 12 "), &|| assert_eq!(default_threads(), 12));
        // Clamped, not rejected: a huge ask caps at MAX_THREADS.
        with_env(Some("1000000"), &|| {
            assert_eq!(default_threads(), MAX_THREADS)
        });
        // Invalid or zero values fall back to the hardware count.
        with_env(Some("0"), &|| assert_eq!(default_threads(), hw));
        with_env(Some("lots"), &|| assert_eq!(default_threads(), hw));
        with_env(Some(""), &|| assert_eq!(default_threads(), hw));
        with_env(Some("-2"), &|| assert_eq!(default_threads(), hw));
    }
}
