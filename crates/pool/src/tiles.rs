//! The workspace's one compute executor: dynamic tile scheduling over
//! `std::thread::scope`.
//!
//! A static split of the outer loop (one contiguous chunk per thread)
//! balances only when every unit of work costs the same, which the
//! kernel's π filter and popcount-dependent weight gather do not
//! guarantee — a thread whose chunk is dense in low-distance,
//! filter-passing neighbors finishes last while the rest idle. Here
//! every worker instead claims the next tile off a shared atomic
//! cursor, so load imbalance is bounded by a single tile rather than by
//! `n_tiles / threads`.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::cancel::{CancelToken, Cancelled};

/// Runs `work(tile_index)` for every tile in `0..n_tiles` on at most
/// `threads` workers and returns the results in tile order.
///
/// Workers self-schedule by `fetch_add`-ing a shared cursor (the
/// work-stealing discipline: idle threads immediately pull the next
/// unclaimed tile instead of waiting on a static partition). `work`
/// must be pure per tile — results are collected per worker and
/// stitched back into tile order after the scope joins, so no worker
/// ever writes shared state, and the output is identical at every
/// thread count.
///
/// Never spawns more workers than tiles; one worker runs the tiles in
/// order on the calling thread, with no spawn.
///
/// The token is checked before every tile claim. A fired token makes
/// every worker stop claiming; tiles already in flight finish (bounding
/// cancellation latency to one tile of work per worker) and the whole
/// call returns `Err(Cancelled)`. `None` never fires, and an uncancelled
/// run takes exactly the same path as a run without a token.
///
/// # Errors
///
/// Returns [`Cancelled`] when the token fires before every tile ran.
///
/// # Panics
///
/// Panics if `threads` is zero. A panicking tile re-raises its own
/// payload on the calling thread once the scope has joined.
///
/// # Example
///
/// ```
/// let squares = hammer_pool::run_tiles(8, 4, None, |t| t * t).unwrap();
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub fn run_tiles<T, F>(
    n_tiles: usize,
    threads: usize,
    cancel: Option<&CancelToken>,
    work: F,
) -> Result<Vec<T>, Cancelled>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(threads >= 1, "need at least one worker");
    let checkpoint = || cancel.map_or(Ok(()), CancelToken::check);
    let threads = threads.min(n_tiles);
    if threads <= 1 {
        return (0..n_tiles)
            .map(|t| {
                checkpoint()?;
                Ok(work(t))
            })
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let claimed = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut claimed: Vec<(usize, T)> = Vec::new();
                    loop {
                        checkpoint()?;
                        let t = cursor.fetch_add(1, Ordering::Relaxed);
                        if t >= n_tiles {
                            return Ok(claimed);
                        }
                        claimed.push((t, work(t)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect::<Vec<Result<Vec<(usize, T)>, Cancelled>>>()
    });
    let mut slots: Vec<Option<T>> = (0..n_tiles).map(|_| None).collect();
    for worker in claimed {
        for (t, result) in worker? {
            slots[t] = Some(result);
        }
    }
    Ok(slots
        .into_iter()
        .map(|slot| slot.expect("every tile is claimed exactly once"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_tile_in_order() {
        for threads in [1, 2, 7] {
            let got = run_tiles(23, threads, None, |t| t * 10).unwrap();
            let want: Vec<usize> = (0..23).map(|t| t * 10).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn zero_tiles_is_empty() {
        let got: Vec<usize> = run_tiles(0, 4, None, |t| t).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn an_unfired_token_matches_no_token() {
        let token = CancelToken::new();
        for threads in [1, 3] {
            let got = run_tiles(17, threads, Some(&token), |t| t * 7).unwrap();
            assert_eq!(got, run_tiles(17, threads, None, |t| t * 7).unwrap());
        }
    }

    #[test]
    fn more_threads_than_tiles_spawns_no_idle_workers() {
        let got = run_tiles(3, 16, None, |t| t + 1).unwrap();
        assert_eq!(got, vec![1, 2, 3]);
        // One tile never leaves the calling thread, however many
        // threads are offered.
        let caller = std::thread::current().id();
        let on = run_tiles(1, 16, None, |_| std::thread::current().id()).unwrap();
        assert_eq!(on, vec![caller]);
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_tile_runs() {
        let token = CancelToken::new();
        token.cancel();
        let ran = AtomicUsize::new(0);
        let got = run_tiles(100, 4, Some(&token), |t| {
            ran.fetch_add(1, Ordering::Relaxed);
            t
        });
        assert_eq!(got, Err(Cancelled));
        assert_eq!(ran.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn mid_run_cancel_skips_remaining_tiles() {
        let token = CancelToken::new();
        let ran = AtomicUsize::new(0);
        let got = run_tiles(1000, 2, Some(&token), |t| {
            // Trip the token early; later claims must be refused.
            if t == 3 {
                token.cancel();
            }
            ran.fetch_add(1, Ordering::Relaxed);
            t
        });
        assert_eq!(got, Err(Cancelled));
        let executed = ran.load(Ordering::Relaxed);
        assert!(executed < 1000, "ran all {executed} tiles despite cancel");
    }

    #[test]
    fn imbalanced_tiles_all_complete() {
        // Tile cost varies by three orders of magnitude; the dynamic
        // cursor must still cover everything exactly once.
        let got = run_tiles(40, 7, None, |t| {
            let spins = if t % 13 == 0 { 200_000 } else { 100 };
            let mut acc = t as u64;
            for i in 0..spins {
                acc = acc.wrapping_mul(31).wrapping_add(i);
            }
            std::hint::black_box(acc);
            t
        })
        .unwrap();
        assert_eq!(got, (0..40).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "tile 5 panicked")]
    fn a_panicking_tile_keeps_its_message() {
        let _ = run_tiles(8, 2, None, |t| {
            assert!(t != 5, "tile 5 panicked");
            t
        });
    }
}
