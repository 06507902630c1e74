//! The fused, column-paired VAT step, the γ-lane scan and the fused GDT
//! step against the straightforward per-step sweeps they replaced,
//! compared weight by weight with `f64::to_bits`.
//!
//! The oracles below are the six-sweep VAT loop (`dot`, `hadamard`,
//! `norm2`, `scale`, `axpy`, penalty loop) and the three-sweep GDT loop,
//! kept verbatim as the definition of the trainers' results. Any change
//! in accumulation order, operation order, per-column RNG stream or the
//! sign of a zero weight shows up here as a flipped bit.

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

/// A hand-built set with exact zeros (both signs) and negative pixels:
/// zero products and negative hinge terms reach every update mode and
/// the sign of zero sums. Pixels 0 and 1 are always `+0.0` and `−0.0`,
/// so their weights stay zeros whose sign the updates decide, and class 9
/// has no samples, so its column only ever sees negative hinges.
fn signed_data() -> Dataset {
    let side = 4;
    let samples = 60;
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x5167);
    let images = Matrix::from_fn(samples, side * side, |i, q| {
        match (q, (i * 7 + q * 3) % 6) {
            (0, _) | (_, 0) => 0.0,
            (1, _) | (_, 1) => -0.0,
            (_, 2) => -(rng.next_below(1000) as f64) / 997.0,
            _ => rng.next_below(1000) as f64 / 991.0,
        }
    });
    let labels = (0..samples).map(|i| (i % 9) as u8).collect();
    Dataset::from_parts(images, labels, side).unwrap()
}

fn assert_grid_matches_oracle(t: &VatTrainer, d: &Dataset, grid: &[f64], what: &str) {
    let serial = t.train_gamma_grid(d, grid, Parallelism::Serial).unwrap();
    assert_eq!(serial.len(), grid.len(), "{what}: one matrix per γ");
    for (w, &gamma) in serial.iter().zip(grid) {
        let want = vat_oracle(&t.with_gamma(gamma), d);
        assert_bits_eq(w, &want, &format!("{what}: γ {gamma}"));
    }
    for threads in [2, 8] {
        let par = t
            .train_gamma_grid(d, grid, Parallelism::Fixed(threads))
            .unwrap();
        for (k, (a, b)) in par.iter().zip(&serial).enumerate() {
            assert_bits_eq(a, b, &format!("{what}: γ #{k} at {threads} threads"));
        }
    }
}

#[test]
fn lane_scan_matches_the_per_gamma_oracle_bit_for_bit() {
    let d = data();
    let eleven: Vec<f64> = (0..=10).map(|k| k as f64 / 10.0).collect();
    // Lengths 1, 3, 4, 5 and 11: a lone lane, padded chunks, an exact
    // chunk and a chunk plus one. γ = 0 shares a chunk with penalised
    // lanes in all but the first.
    let grids: [&[f64]; 5] = [
        &[0.35],
        &[0.0, 0.5, 1.0],
        &[0.0, 0.2, 0.6, 1.0],
        &[0.9, 0.0, 0.3, 0.7, 0.1],
        &eleven,
    ];
    for grid in grids {
        for l2 in [0.0, 1e-4] {
            for sigma in [0.0, 0.6] {
                let t = VatTrainer {
                    epochs: 3,
                    l2,
                    sigma,
                    ..VatTrainer::default()
                };
                let what = format!("grid of {} l2 {l2} σ {sigma}", grid.len());
                assert_grid_matches_oracle(&t, &d, grid, &what);
            }
        }
    }
}

#[test]
fn lane_scan_matches_the_oracle_on_zeros_and_negative_pixels() {
    let d = signed_data();
    let grid = [0.0, 0.4, 1.0, 0.0, 0.7];
    for l2 in [0.0, 1e-4] {
        for sigma in [0.0, 0.6] {
            let t = VatTrainer {
                epochs: 6,
                l2,
                sigma,
                ..VatTrainer::default()
            };
            let what = format!("signed data l2 {l2} σ {sigma}");
            assert_grid_matches_oracle(&t, &d, &grid, &what);
        }
    }
    // A first step with α·l2 > 1 shrinks by a negative factor, which
    // turns untouched +0.0 weights into −0.0; without a penalty, class
    // 9's stay so. An update that added a masked-out `+0.0` term instead
    // of selecting one would flip them back.
    let t = VatTrainer {
        epochs: 2,
        learning_rate: 3.0,
        l2: 1.0,
        sigma: 0.6,
        ..VatTrainer::default()
    };
    let negative_zeros = vat_oracle(&t.with_gamma(0.0), &d)
        .as_slice()
        .iter()
        .filter(|w| w.to_bits() == (-0.0_f64).to_bits())
        .count();
    assert!(negative_zeros > 0, "the case must reach −0.0 weights");
    assert_grid_matches_oracle(&t, &d, &grid, "negative shrink");
}

#[test]
fn lane_scan_rejects_what_train_rejects() {
    let d = data();
    let t = VatTrainer::default();
    assert!(t
        .train_gamma_grid(&d, &[0.2, 1.5], Parallelism::Serial)
        .is_err());
    assert!(t
        .train_gamma_grid(&d, &[], Parallelism::Serial)
        .unwrap()
        .is_empty());
    let empty = Dataset::from_parts(Matrix::zeros(0, 16), Vec::new(), 4).unwrap();
    assert!(t
        .train_gamma_grid(&empty, &[0.2], Parallelism::Serial)
        .is_err());
}

/// The scan of `SelfTuner::tune`, with the oracle as the trainer.
fn oracle_curve(tuner: &SelfTuner, base: &VatTrainer, d: &Dataset) -> Vec<GammaPoint> {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(tuner.seed);
    let split = tuning_split(d, tuner.validation_fraction, &mut rng).unwrap();
    run_trials(
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
    )
}

#[test]
fn self_tuner_matches_an_oracle_driven_scan() {
    let d = data();
    let base = VatTrainer {
        epochs: 3,
        sigma: 0.6,
        ..VatTrainer::default()
    };
    for grid in [SelfTuner::coarse(), SelfTuner::default()] {
        let curve = oracle_curve(&grid, &base, &d);
        for parallelism in [
            Parallelism::Serial,
            Parallelism::Fixed(2),
            Parallelism::Fixed(8),
        ] {
            let tuner = SelfTuner {
                parallelism,
                ..grid.clone()
            };
            let what = format!("{} γ at {parallelism:?}", grid.gamma_grid.len());
            let out = tuner.tune(&base, &d).unwrap();
            assert_eq!(out.curve.len(), curve.len(), "{what}");
            for (got, want) in out.curve.iter().zip(&curve) {
                assert_eq!(
                    got.validation_with_variation.to_bits(),
                    want.validation_with_variation.to_bits(),
                    "{what}: γ {}",
                    want.gamma
                );
                assert_eq!(got, want, "{what}");
            }
            // The winner is a function of the curve; its final pass must
            // match.
            let final_w = vat_oracle(&base.with_gamma(out.best_gamma), &d);
            assert_bits_eq(&out.weights, &final_w, &format!("{what}: final pass"));
        }
    }
}
