//! Gradient-descent training (GDT) of the linear classifier.
//!
//! Eq. (3) of the paper: each column `W_r` is trained independently to
//! satisfy the soft margin constraints
//! `ŷ_r⁽ⁱ⁾ · (x⁽ⁱ⁾·W_r) ≥ 1 − ε⁽ⁱ⁾` with `ŷ ∈ {−1, +1}` ("1 vs. all"),
//! minimizing `Σ ε⁽ⁱ⁾` — i.e. per-column hinge loss, optimized here with
//! epoch-shuffled subgradient descent and an inverse-time step decay.

use serde::{Deserialize, Serialize};
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_linalg::{vector, Matrix};

use crate::dataset::Dataset;
use crate::{NnError, Result};

/// Hinge-loss subgradient trainer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GdtTrainer {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Initial learning rate.
    pub learning_rate: f64,
    /// L2 regularization coefficient (0 disables).
    pub l2: f64,
    /// Target margin (the paper's constraints use 1).
    pub margin: f64,
    /// Shuffle seed, so training is deterministic.
    pub seed: u64,
}

impl Default for GdtTrainer {
    fn default() -> Self {
        Self {
            epochs: 30,
            learning_rate: 0.05,
            l2: 1e-4,
            margin: 1.0,
            seed: 0x5EED,
        }
    }
}

impl GdtTrainer {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidParameter`] on non-positive epochs,
    /// learning rate or margin, or a negative `l2`.
    pub fn validate(&self) -> Result<()> {
        if self.epochs == 0 {
            return Err(NnError::InvalidParameter {
                name: "epochs",
                requirement: "must be positive",
            });
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(NnError::InvalidParameter {
                name: "learning_rate",
                requirement: "must be finite and positive",
            });
        }
        if !(self.l2.is_finite() && self.l2 >= 0.0) {
            return Err(NnError::InvalidParameter {
                name: "l2",
                requirement: "must be finite and non-negative",
            });
        }
        if !(self.margin.is_finite() && self.margin > 0.0) {
            return Err(NnError::InvalidParameter {
                name: "margin",
                requirement: "must be finite and positive",
            });
        }
        Ok(())
    }

    /// Trains all 10 columns on `data`, returning the
    /// `features × classes` weight matrix.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidParameter`] for an invalid configuration
    /// or empty dataset.
    pub fn train(&self, data: &Dataset) -> Result<Matrix> {
        self.validate()?;
        if data.is_empty() {
            return Err(NnError::InvalidParameter {
                name: "data",
                requirement: "must be non-empty",
            });
        }
        let n = data.num_features();
        let m = data.num_classes();
        let mut w = Matrix::zeros(n, m);
        for class in 0..m {
            let col = self.train_column(data, class as u8)?;
            w.set_col(class, &col);
        }
        Ok(w)
    }

    /// Trains the single column for `class` ("1 vs. all" targets).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::train`].
    pub fn train_column(&self, data: &Dataset, class: u8) -> Result<Vec<f64>> {
        self.validate()?;
        if data.is_empty() {
            return Err(NnError::InvalidParameter {
                name: "data",
                requirement: "must be non-empty",
            });
        }
        let n = data.num_features();
        let mut w = vec![0.0_f64; n];
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(self.seed ^ (class as u64) << 32);
        let mut step_count = 0usize;
        for _epoch in 0..self.epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                step_count += 1;
                let alpha = self.learning_rate / (1.0 + step_count as f64 * self.l2.max(1e-6));
                let x = data.image(i);
                let target = if data.label(i) == class { 1.0 } else { -1.0 };
                let score = vector::dot(x, &w);
                // L2 shrink (applied regardless of margin violation),
                // then the hinge, fused into one pass: `w·1.0 == w` bit
                // for bit, so a disabled shrink shares the hinge loop.
                let shrink = if self.l2 > 0.0 {
                    1.0 - alpha * self.l2
                } else {
                    1.0
                };
                if target * score < self.margin {
                    let hinge = alpha * target;
                    for (wq, &xq) in w.iter_mut().zip(x) {
                        *wq = *wq * shrink + hinge * xq;
                    }
                } else if self.l2 > 0.0 {
                    vector::scale(shrink, &mut w);
                }
            }
        }
        Ok(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::LinearClassifier;
    use crate::dataset::{DatasetConfig, SynthDigits};

    fn data() -> Dataset {
        SynthDigits::generate(&DatasetConfig::tiny(), 33).unwrap()
    }

    #[test]
    fn config_validation() {
        let t = GdtTrainer {
            epochs: 0,
            ..Default::default()
        };
        assert!(t.validate().is_err());
        let t = GdtTrainer {
            learning_rate: 0.0,
            ..Default::default()
        };
        assert!(t.validate().is_err());
        let t = GdtTrainer {
            l2: -1.0,
            ..Default::default()
        };
        assert!(t.validate().is_err());
        let t = GdtTrainer {
            margin: 0.0,
            ..Default::default()
        };
        assert!(t.validate().is_err());
        assert!(GdtTrainer::default().validate().is_ok());
    }

    #[test]
    fn training_beats_chance_significantly() {
        let d = data();
        let w = GdtTrainer::default().train(&d).unwrap();
        let c = LinearClassifier::new(w).unwrap();
        let acc = c.accuracy(&d).unwrap();
        assert!(acc > 0.6, "training accuracy {acc}");
    }

    #[test]
    fn training_is_deterministic() {
        let d = data();
        let t = GdtTrainer::default();
        let w1 = t.train(&d).unwrap();
        let w2 = t.train(&d).unwrap();
        assert_eq!(w1, w2);
    }

    #[test]
    fn more_epochs_do_not_hurt_much() {
        let d = data();
        let short = GdtTrainer {
            epochs: 2,
            ..Default::default()
        };
        let long = GdtTrainer {
            epochs: 40,
            ..Default::default()
        };
        let acc = |t: &GdtTrainer| {
            LinearClassifier::new(t.train(&d).unwrap())
                .unwrap()
                .accuracy(&d)
                .unwrap()
        };
        let a_short = acc(&short);
        let a_long = acc(&long);
        assert!(a_long >= a_short - 0.05, "short {a_short} long {a_long}");
    }

    #[test]
    fn column_targets_its_own_class() {
        let d = data();
        let t = GdtTrainer::default();
        let col3 = t.train_column(&d, 3).unwrap();
        // Mean score of class-3 samples must exceed mean score of others.
        let mut pos = 0.0;
        let mut npos = 0;
        let mut negv = 0.0;
        let mut nneg = 0;
        for i in 0..d.len() {
            let s = vortex_linalg::vector::dot(d.image(i), &col3);
            if d.label(i) == 3 {
                pos += s;
                npos += 1;
            } else {
                negv += s;
                nneg += 1;
            }
        }
        assert!(pos / npos as f64 > negv / nneg as f64 + 0.5);
    }

    #[test]
    fn full_train_matches_per_column() {
        let d = data();
        let t = GdtTrainer::default();
        let w = t.train(&d).unwrap();
        let col5 = t.train_column(&d, 5).unwrap();
        assert_eq!(w.col(5), col5);
    }

    #[test]
    fn empty_dataset_rejected() {
        let d = data().subset(&[]);
        assert!(GdtTrainer::default().train(&d).is_err());
    }
}
