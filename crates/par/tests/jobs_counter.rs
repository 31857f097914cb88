//! `par_jobs_total` counts every job exactly once, at any thread count.
//!
//! A test binary of its own, so no other test moves the process-wide
//! counter while this one reads it.

use env2vec_par::{par_map, scope, with_thread_limit};

fn jobs_total() -> u64 {
    env2vec_obs::metrics().counter("par_jobs_total").get()
}

#[test]
fn par_jobs_total_rises_by_the_number_of_jobs_run() {
    for threads in [1, 4] {
        with_thread_limit(threads, || {
            let before = jobs_total();
            let out = par_map((0..16).collect(), |_, x: u64| x * 2);
            assert_eq!(out.len(), 16);
            assert_eq!(jobs_total() - before, 16, "par_map at {threads} threads");

            let before = jobs_total();
            scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        std::hint::black_box(threads);
                    });
                }
            });
            assert_eq!(jobs_total() - before, 8, "scope at {threads} threads");
        });
    }
}
