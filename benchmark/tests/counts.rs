//! Server-side counts are the exact-repeat evidence a later claim may
//! name: two rounds of one seed must read the same.

use srj_benchmark::report::counts_repeat;
use srj_benchmark::round::run_round;
use srj_benchmark::workload::{find, Scale};

#[test]
fn two_rounds_of_one_seed_count_the_same() {
    // One test, so the servers it starts never overlap:
    // `Server::start` applies its tracing settings process-wide.
    for name in ["mixed_updates", "cold_windows"] {
        let w = find(name, Scale::Smoke).unwrap();
        // Dropping the server a round hands back shuts it down.
        let (first, _) = run_round(&w, 5, false).unwrap();
        let (second, _) = run_round(&w, 5, false).unwrap();
        assert_eq!(first.failed + second.failed, 0, "{name}");
        assert_eq!(first.op_hash, second.op_hash, "{name}");
        for count in [
            "server.iterations_per_sample",
            "server.patch_swaps",
            "server.cells_patched",
            "server.cache_misses",
        ] {
            assert_eq!(
                first.metric(count).to_bits(),
                second.metric(count).to_bits(),
                "{name}: {count}"
            );
        }
        assert!(counts_repeat(&[first.clone(), second]));
        if name == "cold_windows" {
            let requests = w.timed_ops as f64;
            assert_eq!(
                first.metric("server.cache_misses"),
                requests,
                "every request a miss"
            );
        }
    }
}
