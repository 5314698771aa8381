//! Property tests: probe-campaign rates and the PRR inference pipeline
//! hold their invariants on random spaces.

use decay_core::DecaySpace;
use decay_netsim::{infer_decay_from_prr, run_probe_campaign, ReceptionModel};
use decay_sinr::SinrParams;
use proptest::prelude::*;

fn arb_space(n: usize) -> impl Strategy<Value = DecaySpace> {
    prop::collection::vec(0.5f64..20.0, n * n).prop_map(move |mut vals| {
        for i in 0..n {
            vals[i * n + i] = 0.0;
        }
        DecaySpace::from_matrix(n, vals).expect("positive off-diagonal")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(25))]

    #[test]
    fn rayleigh_prr_rates_are_probabilities_and_monotone_in_decay(
        space in arb_space(5),
        seed in 0u64..100,
    ) {
        let params = SinrParams::new(1.0, 0.3).unwrap();
        let prr = run_probe_campaign(&space, &params, ReceptionModel::Rayleigh, 120, 1.0, seed);
        for a in space.nodes() {
            for b in space.nodes() {
                if a == b { continue; }
                let r = prr.rate(a, b);
                prop_assert!((0.0..=1.0).contains(&r));
            }
        }
    }

    #[test]
    fn inference_roundtrip_preserves_decay_order_in_expectation(
        space in arb_space(4),
    ) {
        // With plenty of probes, larger true decay must not produce a
        // *much* smaller inferred decay (strict order can flip for close
        // pairs; a factor-2 inversion cannot).
        let params = SinrParams::new(1.0, 0.3).unwrap();
        let prr = run_probe_campaign(&space, &params, ReceptionModel::Rayleigh, 3000, 1.0, 7);
        let outcome = infer_decay_from_prr(&prr, 1.0, &params).unwrap();
        for (a, b, f_ab) in space.ordered_pairs() {
            for (c, d, f_cd) in space.ordered_pairs() {
                if f_ab >= 4.0 * f_cd {
                    let inf_ab = outcome.space.decay(a, b);
                    let inf_cd = outcome.space.decay(c, d);
                    prop_assert!(
                        inf_ab > inf_cd,
                        "truth {f_ab} vs {f_cd}, inferred {inf_ab} vs {inf_cd}"
                    );
                }
            }
        }
    }
}
