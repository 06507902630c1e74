//! Behaviour tests for the [`CompileRequest`] builder, the one compile
//! entry point. Equivalences are pinned at the strongest available
//! granularity — byte equality of the serialized artifact.

use vortex_core::amp::greedy::RowMapping;
use vortex_core::pipeline::{CompileOptions, HardwareEnv};
use vortex_core::CoreError;
use vortex_device::cell::CellKind;
use vortex_linalg::Matrix;
use vortex_nn::dataset::{Dataset, DatasetConfig, SynthDigits};
use vortex_nn::executor::Parallelism;
use vortex_nn::gdt::GdtTrainer;
use vortex_xbar::encoding::{EncodingScheme, EncodingSpec};

fn small_setup() -> (Dataset, Matrix) {
    let data = SynthDigits::generate(&DatasetConfig::tiny(), 7).unwrap();
    let w = GdtTrainer {
        epochs: 10,
        ..Default::default()
    }
    .train(&data)
    .unwrap();
    (data, w)
}

#[test]
fn replica_compilation_is_parallelism_invariant() {
    let (data, w) = small_setup();
    let mapping = RowMapping::identity(w.rows());
    let env = HardwareEnv::with_sigma(0.3).unwrap();
    let compiler = env.compiler().with_calibration(&data.mean_input());

    let serial = compiler
        .request(&w, &mapping)
        .seed(9)
        .parallelism(Parallelism::Serial)
        .compile_replicas(4)
        .unwrap();
    let parallel = compiler
        .request(&w, &mapping)
        .seed(9)
        .parallelism(Parallelism::Fixed(4))
        .compile_replicas(4)
        .unwrap();
    assert_eq!(serial.len(), parallel.len());
    for ((sa, ma), (sb, mb)) in serial.iter().zip(&parallel) {
        assert_eq!(sa, sb);
        assert_eq!(ma.to_bytes(), mb.to_bytes());
    }
}

#[test]
fn with_options_equals_the_fluent_setters() {
    let (data, w) = small_setup();
    let mapping = RowMapping::identity(w.rows());
    let env = HardwareEnv::with_sigma(0.2).unwrap();
    let compiler = env.compiler().with_calibration(&data.mean_input());

    let mut options = CompileOptions::new();
    options.encoding = EncodingSpec::MultiLevelCell { bits: 4 };
    options.seed = Some(5);
    let a = compiler
        .request(&w, &mapping)
        .with_options(options.clone())
        .compile()
        .unwrap();
    let b = compiler
        .request(&w, &mapping)
        .encoding(EncodingSpec::MultiLevelCell { bits: 4 })
        .seed(5)
        .compile()
        .unwrap();
    assert_eq!(
        compiler
            .request(&w, &mapping)
            .with_options(options)
            .options()
            .seed,
        Some(5)
    );
    assert_eq!(a.to_bytes(), b.to_bytes());
}

#[test]
fn mlc_encoding_records_a_uniform_level_table() {
    let (data, w) = small_setup();
    let mapping = RowMapping::identity(w.rows());
    let env = HardwareEnv::with_sigma(0.2).unwrap();
    let compiler = env.compiler().with_calibration(&data.mean_input());

    let model = compiler
        .request(&w, &mapping)
        .encoding(EncodingSpec::MultiLevelCell { bits: 4 })
        .seed(3)
        .compile()
        .unwrap();
    let table = model.encoding();
    assert_eq!(table.scheme(), EncodingScheme::MultiLevel);
    assert_eq!(table.rows(), mapping.physical_rows());
    assert!(table.levels().iter().all(|&l| l == 16));
    assert!((table.effective_bits() - 4.0).abs() < 1e-12);
}

#[test]
fn adaptive_encoding_splits_rows_between_the_two_budgets() {
    let (data, w) = small_setup();
    let mapping = RowMapping::identity(w.rows());
    let env = HardwareEnv::with_sigma(0.2).unwrap();
    let compiler = env.compiler().with_calibration(&data.mean_input());

    let model = compiler
        .request(&w, &mapping)
        .encoding(EncodingSpec::AdaptiveRowQuant {
            low_bits: 2,
            high_bits: 6,
            fine_fraction: 0.5,
        })
        .seed(3)
        .compile()
        .unwrap();
    let table = model.encoding();
    assert_eq!(table.scheme(), EncodingScheme::AdaptiveRow);
    let fine = table.levels().iter().filter(|&&l| l == 64).count();
    let coarse = table.levels().iter().filter(|&&l| l == 4).count();
    assert_eq!(fine + coarse, table.rows());
    let expected_fine = (0.5 * table.rows() as f64).round() as usize;
    assert_eq!(fine, expected_fine);
}

#[test]
fn one_t1r_cell_compiles_and_differs_from_the_passive_array() {
    let (data, w) = small_setup();
    let mapping = RowMapping::identity(w.rows());
    let mut env = HardwareEnv::with_sigma(0.2).unwrap();
    let one_r = env
        .compiler()
        .with_calibration(&data.mean_input())
        .request(&w, &mapping)
        .seed(11)
        .compile()
        .unwrap();
    env.cell = CellKind::one_t1r(3.0e3).unwrap();
    let one_t1r = env
        .compiler()
        .with_calibration(&data.mean_input())
        .request(&w, &mapping)
        .seed(11)
        .compile()
        .unwrap();
    // The access transistor reshapes the frozen conductances …
    assert_ne!(one_r.to_bytes(), one_t1r.to_bytes());
    // … but NEAT pre-distortion keeps the classifier serviceable.
    let acc = one_t1r.accuracy(&data).unwrap();
    assert!(acc > 0.5, "1T-1R accuracy collapsed to {acc}");
}

#[test]
fn canary_inputs_ride_the_request() {
    let (data, w) = small_setup();
    let mapping = RowMapping::identity(w.rows());
    let env = HardwareEnv::with_sigma(0.2).unwrap();
    let probes: Vec<Vec<f64>> = (0..3).map(|k| data.image(k).to_vec()).collect();
    let model = env
        .compiler()
        .with_calibration(&data.mean_input())
        .request(&w, &mapping)
        .seed(21)
        .canary_inputs(probes)
        .compile()
        .unwrap();
    let canary = model.canary().expect("request should freeze a canary set");
    assert_eq!(canary.len(), 3);
    assert!((model.canary_accuracy().unwrap() - 1.0).abs() < 1e-12);
}

#[test]
fn missing_seed_is_a_typed_error() {
    let (_, w) = small_setup();
    let mapping = RowMapping::identity(w.rows());
    let env = HardwareEnv::ideal();
    let compiler = env.compiler();
    let err = compiler.request(&w, &mapping).compile().unwrap_err();
    assert!(matches!(
        err,
        CoreError::InvalidParameter { name: "seed", .. }
    ));
}
