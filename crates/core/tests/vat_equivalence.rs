//! The fused, column-paired VAT step and the fused GDT step against the
//! straightforward per-step sweeps they replaced, compared weight by
//! weight with `f64::to_bits`.
//!
//! The oracles below are the six-sweep VAT loop (`dot`, `hadamard`,
//! `norm2`, `scale`, `axpy`, penalty loop) and the three-sweep GDT loop,
//! kept verbatim as the definition of the trainers' results. Any change
//! in accumulation order, operation order or per-column RNG stream shows
//! up here as a flipped bit.

use vortex_core::tuning::{GammaPoint, SelfTuner};
use vortex_core::vat::{inject_variation, VatTrainer};
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_linalg::{vector, Matrix};
use vortex_nn::dataset::{Dataset, DatasetConfig, SynthDigits};
use vortex_nn::executor::{run_trials, Parallelism};
use vortex_nn::gdt::GdtTrainer;
use vortex_nn::metrics::accuracy_of_weights;
use vortex_nn::split::tuning_split;

fn data() -> Dataset {
    SynthDigits::generate(&DatasetConfig::tiny(), 404).unwrap()
}

/// One VAT column, one sweep per kernel call.
fn vat_oracle_column(t: &VatTrainer, data: &Dataset, class: u8) -> Vec<f64> {
    let n = data.num_features();
    let coeff = t.penalty_coefficient(n).unwrap();
    let mut w = vec![0.0_f64; n];
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(t.seed ^ ((class as u64) << 32));
    let mut step_count = 0usize;
    for _epoch in 0..t.epochs {
        rng.shuffle(&mut order);
        for &i in &order {
            step_count += 1;
            let alpha = t.learning_rate / (1.0 + step_count as f64 * t.l2.max(1e-6));
            let x = data.image(i);
            let target = if data.label(i) == class { 1.0 } else { -1.0 };
            let score = vector::dot(x, &w);
            let xw = vector::hadamard(x, &w);
            let penalty_norm = vector::norm2(&xw);
            let violated = t.alpha0 * target * score - coeff * penalty_norm < t.margin;
            if t.l2 > 0.0 {
                vector::scale(1.0 - alpha * t.l2, &mut w);
            }
            if violated {
                vector::axpy(alpha * t.alpha0 * target, x, &mut w);
                if coeff > 0.0 && penalty_norm > 1e-12 {
                    let scale = alpha * coeff / penalty_norm;
                    for ((wq, &xq), &xwq) in w.iter_mut().zip(x).zip(&xw) {
                        *wq -= scale * xq * xwq;
                    }
                }
            }
        }
    }
    w
}

fn vat_oracle(t: &VatTrainer, data: &Dataset) -> Matrix {
    let mut w = Matrix::zeros(data.num_features(), data.num_classes());
    for c in 0..data.num_classes() {
        w.set_col(c, &vat_oracle_column(t, data, c as u8));
    }
    w
}

/// One GDT column: score sweep, shrink sweep, hinge sweep.
fn gdt_oracle_column(t: &GdtTrainer, data: &Dataset, class: u8) -> Vec<f64> {
    let mut w = vec![0.0_f64; data.num_features()];
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(t.seed ^ ((class as u64) << 32));
    let mut step_count = 0usize;
    for _epoch in 0..t.epochs {
        rng.shuffle(&mut order);
        for &i in &order {
            step_count += 1;
            let alpha = t.learning_rate / (1.0 + step_count as f64 * t.l2.max(1e-6));
            let x = data.image(i);
            let target = if data.label(i) == class { 1.0 } else { -1.0 };
            let score = vector::dot(x, &w);
            if t.l2 > 0.0 {
                vector::scale(1.0 - alpha * t.l2, &mut w);
            }
            if target * score < t.margin {
                vector::axpy(alpha * target, x, &mut w);
            }
        }
    }
    w
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_bits_eq(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for c in 0..want.cols() {
        assert_eq!(bits(&got.col(c)), bits(&want.col(c)), "{what}: column {c}");
    }
}

#[test]
fn vat_train_and_train_column_match_the_oracle_bit_for_bit() {
    let d = data();
    for gamma in [0.0, 0.35, 1.0] {
        for l2 in [0.0, 1e-4] {
            for sigma in [0.0, 0.6] {
                let t = VatTrainer {
                    epochs: 4,
                    gamma,
                    l2,
                    sigma,
                    ..VatTrainer::default()
                };
                let what = format!("γ {gamma} l2 {l2} σ {sigma}");
                let w = t.train(&d).unwrap();
                assert_bits_eq(&w, &vat_oracle(&t, &d), &what);
                // Both halves of a pair, trained alone.
                for c in [0u8, 5, 9] {
                    let col = t.train_column(&d, c).unwrap();
                    assert_eq!(bits(&col), bits(&w.col(c as usize)), "{what}: column {c}");
                }
            }
        }
    }
}

#[test]
fn gdt_matches_its_oracle_bit_for_bit() {
    let d = data();
    for l2 in [0.0, 1e-4] {
        let t = GdtTrainer {
            epochs: 5,
            l2,
            ..GdtTrainer::default()
        };
        let w = t.train(&d).unwrap();
        for c in 0..d.num_classes() {
            let want = gdt_oracle_column(&t, &d, c as u8);
            assert_eq!(bits(&w.col(c)), bits(&want), "l2 {l2}: column {c}");
            assert_eq!(
                bits(&t.train_column(&d, c as u8).unwrap()),
                bits(&want),
                "l2 {l2}: train_column {c}"
            );
        }
    }
}

#[test]
fn self_tuner_matches_an_oracle_driven_scan() {
    let d = data();
    let tuner = SelfTuner {
        parallelism: Parallelism::Serial,
        ..SelfTuner::coarse()
    };
    let base = VatTrainer {
        epochs: 3,
        sigma: 0.6,
        ..VatTrainer::default()
    };
    let out = tuner.tune(&base, &d).unwrap();

    // The scan of `SelfTuner::tune`, with the oracle as the trainer.
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(tuner.seed);
    let split = tuning_split(&d, tuner.validation_fraction, &mut rng).unwrap();
    let curve: Vec<GammaPoint> = run_trials(
        &mut rng,
        tuner.gamma_grid.len(),
        Parallelism::Serial,
        |k, gamma_rng| {
            let gamma = tuner.gamma_grid[k];
            let w = vat_oracle(&base.with_gamma(gamma), &split.train);
            let mut acc = 0.0;
            for _ in 0..tuner.mc_draws {
                let mut draw_rng = gamma_rng.split();
                let wv = inject_variation(&w, base.sigma, &mut draw_rng);
                acc += accuracy_of_weights(&wv, &split.test);
            }
            GammaPoint {
                gamma,
                training_rate: accuracy_of_weights(&w, &split.train),
                validation_with_variation: acc / tuner.mc_draws as f64,
                validation_without_variation: accuracy_of_weights(&w, &split.test),
            }
        },
    );
    assert_eq!(out.curve.len(), curve.len());
    for (got, want) in out.curve.iter().zip(&curve) {
        assert_eq!(
            got.validation_with_variation.to_bits(),
            want.validation_with_variation.to_bits(),
            "γ {}",
            want.gamma
        );
        assert_eq!(got, want);
    }
    // The winner is a function of the curve; its final pass must match.
    let final_w = vat_oracle(&base.with_gamma(out.best_gamma), &d);
    assert_bits_eq(&out.weights, &final_w, "final pass");
}
