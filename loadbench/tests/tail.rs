//! The tail rule: a reported percentile has at least ten samples beyond it.

use loadbench::stats::{beyond, percentile, supports, MIN_BEYOND};

#[test]
fn p90_needs_a_hundred_samples_and_p99_a_thousand() {
    assert!(supports(100, 0.90));
    assert!(!supports(99, 0.90));
    assert!(supports(1000, 0.99));
    assert!(!supports(999, 0.99));
    assert!(!supports(0, 0.5));
}

#[test]
fn a_supported_percentile_has_ten_larger_samples() {
    for n in 1..1500 {
        for p in [0.5, 0.85, 0.9, 0.99] {
            let mut v: Vec<f64> = (0..n).map(|x| x as f64).collect();
            let at = percentile(&mut v, p).expect("non-empty");
            let larger = v.iter().filter(|&&x| x > at).count();
            assert_eq!(larger, beyond(n, p), "n={n} p={p}");
            if supports(n, p) {
                assert!(larger >= MIN_BEYOND, "n={n} p={p}");
            }
        }
    }
}
