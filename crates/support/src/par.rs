//! The workspace's one worker pool for per-item fan-out (per-procedure IPL,
//! per-procedure lint rules).
//!
//! Observability collectors, deadlines and memory budgets are
//! thread-scoped, so each worker re-enters the calling thread's three
//! contexts: worker spans land in the caller's trace, and every worker
//! observes the same request deadline and charges the same allocation
//! pool. Step budgets ([`crate::budget`]) are not carried over; callers
//! that want one enter it per item inside `f`.

use crate::{deadline, memory, obs};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Applies `f` to every item on up to `threads` scoped workers and returns
/// the results in input order. Runs inline on the calling thread when
/// `threads <= 1` or there are fewer than two items. A panic that escapes
/// `f` is re-raised on the calling thread once every worker has stopped.
pub fn map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() < 2 {
        return items.iter().map(f).collect();
    }
    // The counter only hands out indices; results travel through `join`.
    let next = AtomicUsize::new(0);
    let (obs_ctx, deadline_ctx, memory_ctx) =
        (obs::current(), deadline::current(), memory::current());
    let worker = || {
        let _obs = obs_ctx.clone().map(obs::attach);
        let _deadline = deadline_ctx.clone().map(deadline::enter);
        let _memory = memory_ctx.clone().map(memory::enter);
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { return done };
            done.push((i, f(item)));
        }
    };
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> =
            (0..threads.min(items.len())).map(|_| scope.spawn(worker)).collect();
        let mut all = Vec::with_capacity(items.len());
        for w in workers {
            match w.join() {
                Ok(done) => all.extend(done),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        all
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline::DeadlineToken;
    use crate::memory::MemoryBudget;
    use crate::obs::{ClockKind, Collector, Counter};
    use std::time::{Duration, Instant};

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..37).collect();
        let want: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 4, 8, 64] {
            assert_eq!(map(&items, threads, |x| x * x), want, "{threads} threads");
        }
        assert_eq!(map(&[3u8, 4], 16, |x| *x), [3, 4], "more threads than items");
        assert!(map(&[] as &[u8], 4, |x| *x).is_empty());
    }

    #[test]
    fn counters_land_in_the_callers_collector() {
        let collector = Collector::new(ClockKind::Logical);
        let _attached = obs::attach(collector.clone());
        let items: Vec<u32> = (0..64).collect();
        map(&items, 4, |_| obs::incr(Counter::CacheHits));
        assert_eq!(collector.counter(Counter::CacheHits), 64);
    }

    #[test]
    fn every_worker_sees_the_callers_deadline_and_memory_budget() {
        let threads = 4;
        let _deadline = deadline::enter(DeadlineToken::after(Duration::ZERO));
        let budget = MemoryBudget::bytes(1);
        budget.force_exhaust();
        let _memory = memory::enter(budget);
        // A spin barrier holds each item until all `threads` have started,
        // so the items run on `threads` distinct workers.
        let arrived = AtomicUsize::new(0);
        let items: Vec<usize> = (0..threads).collect();
        let seen = map(&items, threads, |_| {
            arrived.fetch_add(1, Ordering::SeqCst);
            let start = Instant::now();
            while arrived.load(Ordering::SeqCst) < threads
                && start.elapsed() < Duration::from_secs(10)
            {
                std::thread::yield_now();
            }
            (std::thread::current().id(), deadline::expired(), memory::exhausted())
        });
        let workers: std::collections::HashSet<_> = seen.iter().map(|s| s.0).collect();
        assert_eq!(workers.len(), threads, "each item on its own worker");
        assert!(seen.iter().all(|&(_, expired, exhausted)| expired && exhausted), "{seen:?}");
    }

    #[test]
    fn a_panic_in_one_item_reaches_the_caller() {
        let items: Vec<u32> = (0..16).collect();
        let err = std::panic::catch_unwind(|| {
            map(&items, 4, |&x| if x == 11 { panic!("item {x} failed") } else { x })
        })
        .unwrap_err();
        assert_eq!(err.downcast_ref::<String>().map(String::as_str), Some("item 11 failed"));
    }
}
