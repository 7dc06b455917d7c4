//! The operation sequence is a pure function of `(seed, workload)`.

use srj_benchmark::workload::{op_hash, workloads, Op, Scale};

#[test]
fn same_seed_same_operations_other_seed_other_operations() {
    for w in workloads(Scale::Smoke) {
        let digest = |seed: u64| op_hash(&w.ops(seed, &w.dataset().r));
        assert_eq!(digest(7), digest(7), "{}: seed 7 twice", w.name);
        assert_ne!(digest(7), digest(8), "{}: seeds 7 and 8", w.name);
    }
}

#[test]
fn sequences_have_the_advertised_shape() {
    for scale in [Scale::Smoke, Scale::Full] {
        for w in workloads(scale) {
            assert_eq!(w.timed_ops % w.segment_ops, 0, "{}: whole segments", w.name);
            assert_eq!(
                w.segment_ops % w.pattern_ops(),
                0,
                "{}: segments of whole patterns",
                w.name
            );
        }
    }
    for w in workloads(Scale::Smoke) {
        let ops = w.ops(3, &w.dataset().r);
        assert_eq!(ops.len(), w.warm_ops + w.timed_ops);
        let mutations = ops
            .iter()
            .filter(|op| !matches!(op, Op::Sample { .. }))
            .count();
        let expected = ops.len().checked_div(w.mutate_every).unwrap_or(0);
        assert_eq!(mutations, expected, "{}: 0 if read-only", w.name);
        for op in &ops {
            if let Op::Sample { seed, t, .. } = op {
                assert_ne!(*seed, 0, "seed 0 means unseeded to the server");
                assert_eq!(*t, w.t);
            }
        }
    }
}
