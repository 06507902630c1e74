//! Output checks, kept apart from the metrics: a run whose answers are
//! wrong fails, however fast it was.

use vortex_nn::dataset::Dataset;
use vortex_runtime::CompiledModel;

/// The label each replica must serve for each held-out input, computed
/// offline with [`CompiledModel::infer`] before any traffic is sent.
#[derive(Debug, Clone)]
pub struct LabelOracle {
    labels: Vec<Vec<u8>>,
}

impl LabelOracle {
    /// Labels every input of `inputs` with every reference model.
    ///
    /// # Panics
    ///
    /// Panics when a reference read fails (inputs always match the model
    /// shape here).
    pub fn new<'a>(
        references: impl IntoIterator<Item = &'a CompiledModel>,
        inputs: &Dataset,
    ) -> Self {
        let labels = references
            .into_iter()
            .map(|m| {
                (0..inputs.len())
                    .map(|i| m.infer(inputs.image(i)).expect("reference read"))
                    .collect()
            })
            .collect();
        Self { labels }
    }

    /// The label `replica` must serve for input `input`.
    pub fn label(&self, replica: usize, input: usize) -> u8 {
        self.labels[replica][input]
    }

    /// The majority of the reference labels of `replicas` for `input`:
    /// most votes wins, ties go to the smallest label.
    pub fn vote(&self, replicas: impl IntoIterator<Item = usize>, input: usize) -> Option<u8> {
        let mut counts = [0u32; 256];
        for r in replicas {
            counts[self.label(r, input) as usize] += 1;
        }
        let best = *counts.iter().max()?;
        (best > 0).then(|| counts.iter().position(|&c| c == best).expect("max exists") as u8)
    }
}

/// Counts label mismatches and keeps the first few for the report.
#[derive(Debug, Default)]
pub struct Mismatches {
    /// Mismatches seen.
    pub count: u64,
    /// Descriptions of the first mismatches.
    pub examples: Vec<String>,
}

impl Mismatches {
    /// Records one comparison.
    pub fn compare(&mut self, what: &str, served: u8, expected: u8) {
        if served != expected {
            self.count += 1;
            if self.examples.len() < 3 {
                self.examples
                    .push(format!("{what}: served {served}, expected {expected}"));
            }
        }
    }

    /// The failed check as one report line, if any mismatch was seen.
    pub fn problem(&self, check: &str) -> Option<String> {
        (self.count > 0).then(|| {
            format!(
                "{check}: {} mismatches (e.g. {})",
                self.count,
                self.examples.join("; ")
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vote_ties_go_to_the_smallest_label() {
        let oracle = LabelOracle {
            labels: vec![vec![3], vec![1], vec![3], vec![1]],
        };
        assert_eq!(oracle.vote([0, 1, 2], 0), Some(3));
        assert_eq!(oracle.vote([0, 1, 2, 3], 0), Some(1));
        assert_eq!(oracle.vote([], 0), None);
    }
}
