//! Property-based tests for the crossbar simulator.

use proptest::prelude::*;
use vortex_device::DeviceParams;
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_linalg::{lu, LinalgError, Matrix};
use vortex_xbar::circuit::{ColTermination, NodalAnalysis, RowDrive};
use vortex_xbar::pair::WeightMapping;
use vortex_xbar::sensing::{Adc, Dac};
use vortex_xbar::{ideal, XbarError};

fn conductances(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(1e-6..1e-4f64, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ideal_read_is_permutation_invariant(g in conductances(6, 3),
                                           x in proptest::collection::vec(0.0..1.0f64, 6),
                                           seed in proptest::num::u64::ANY) {
        // The AMP remapping identity (Fig. 6): permuting rows together
        // with inputs leaves the output unchanged.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let mut perm: Vec<usize> = (0..6).collect();
        rng.shuffle(&mut perm);
        let gp = g.permute_rows(&perm);
        let xp: Vec<f64> = perm.iter().map(|&p| x[p]).collect();
        let y0 = ideal::compute(&g, &x);
        let y1 = ideal::compute(&gp, &xp);
        for (a, b) in y0.iter().zip(&y1) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn nodal_solve_respects_superposition(g in conductances(5, 3),
                                          x1 in proptest::collection::vec(0.0..1.0f64, 5),
                                          x2 in proptest::collection::vec(0.0..1.0f64, 5)) {
        let na = NodalAnalysis::new(5, 3, 2.5).unwrap();
        let xs: Vec<f64> = x1.iter().zip(&x2).map(|(a, b)| a + b).collect();
        let y1 = na.compute(&g, &x1).unwrap().column_currents;
        let y2 = na.compute(&g, &x2).unwrap().column_currents;
        let ys = na.compute(&g, &xs).unwrap().column_currents;
        for j in 0..3 {
            prop_assert!((ys[j] - (y1[j] + y2[j])).abs() < 1e-8);
        }
    }

    #[test]
    fn nodal_output_never_exceeds_ideal(g in conductances(5, 3),
                                        x in proptest::collection::vec(0.0..1.0f64, 5)) {
        // Wire resistance can only lose voltage: each column current is
        // bounded by the ideal one (for non-negative inputs).
        let na = NodalAnalysis::new(5, 3, 5.0).unwrap();
        let exact = na.compute(&g, &x).unwrap().column_currents;
        let ideal_y = ideal::compute(&g, &x);
        for j in 0..3 {
            prop_assert!(exact[j] <= ideal_y[j] + 1e-9);
            prop_assert!(exact[j] >= -1e-9);
        }
    }

    #[test]
    fn adc_quantization_error_bounded(bits in 2u32..12, value in 0.0..1.0f64) {
        let adc = Adc::new(bits, 1.0).unwrap();
        let q = adc.quantize(value);
        // Inside the range (excluding the top rail) error ≤ LSB/2.
        if value < 1.0 - adc.step() {
            prop_assert!((q - value).abs() <= adc.step() / 2.0 + 1e-15);
        }
        // Quantization is idempotent.
        prop_assert_eq!(adc.quantize(q), q);
    }

    #[test]
    fn dac_is_monotone(bits in 2u32..10, v1 in 0.0..1.0f64, dv in 0.0..0.5f64) {
        let dac = Dac::new(bits, 1.0).unwrap();
        prop_assert!(dac.convert(v1 + dv) >= dac.convert(v1));
    }

    #[test]
    fn weight_mapping_roundtrip(w in -2.0..2.0f64) {
        let device = DeviceParams::default();
        let m = WeightMapping::new(&device, 2.0).unwrap();
        let (gp, gn) = m.to_conductance_pair(w);
        prop_assert!(gp >= device.g_off() && gp <= device.g_on());
        prop_assert!(gn >= device.g_off() && gn <= device.g_on());
        let back = (gp - gn) / m.scale();
        prop_assert!((back - w).abs() < 1e-12);
        // At most one side deviates from the baseline.
        prop_assert!(gp == device.g_off() || gn == device.g_off());
    }

    #[test]
    fn weight_mapping_is_monotone(w1 in -2.0..2.0f64, dw in 0.0..1.0f64) {
        let device = DeviceParams::default();
        let m = WeightMapping::new(&device, 3.5).unwrap();
        let (gp1, gn1) = m.to_conductance_pair(w1);
        let (gp2, gn2) = m.to_conductance_pair(w1 + dw);
        // Differential conductance is monotone in the weight.
        prop_assert!(gp2 - gn2 >= gp1 - gn1 - 1e-15);
    }

    #[test]
    fn device_voltages_bounded_by_drive(g in conductances(4, 2),
                                        x in proptest::collection::vec(0.0..1.0f64, 4)) {
        let na = NodalAnalysis::new(4, 2, 3.0).unwrap();
        let sol = na.compute(&g, &x).unwrap();
        let x_max = x.iter().cloned().fold(0.0_f64, f64::max);
        for i in 0..4 {
            for j in 0..2 {
                let vd = sol.device_voltages[(i, j)];
                prop_assert!(vd >= -1e-9 && vd <= x_max + 1e-9,
                    "device ({i},{j}) voltage {vd} outside [0, {x_max}]");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cost_ledger_merge_is_commutative(p1 in 0u64..1000, p2 in 0u64..1000,
                                        a1 in 0u64..1000, a2 in 0u64..1000,
                                        w1 in 0.0..1e-3f64, w2 in 0.0..1e-3f64) {
        use vortex_xbar::cost::CostLedger;
        let mk = |p: u64, a: u64, w: f64| {
            let mut l = CostLedger::new();
            for _ in 0..p.min(5) {
                l.record_pulse(2.8, w, 1e-4);
            }
            l.record_adc(a);
            l.pulse_count = p; // force counts for the algebraic check
            l
        };
        let (la, lb) = (mk(p1, a1, w1), mk(p2, a2, w2));
        let mut ab = la;
        ab.merge(&lb);
        let mut ba = lb;
        ba.merge(&la);
        prop_assert_eq!(ab.pulse_count, ba.pulse_count);
        prop_assert_eq!(ab.adc_conversions, ba.adc_conversions);
        prop_assert!((ab.program_time_s - ba.program_time_s).abs() < 1e-12);
    }

    #[test]
    fn analytic_map_factors_in_unit_interval(gvals in proptest::collection::vec(1e-6..1e-4f64, 6 * 4),
                                             r_wire in 0.0..50.0f64) {
        let g = Matrix::from_vec(6, 4, gvals).unwrap();
        let map = vortex_xbar::irdrop::ProgramVoltageMap::analytic(&g, r_wire, 2.8).unwrap();
        for i in 0..6 {
            for j in 0..4 {
                let f = map.factor(i, j);
                prop_assert!((0.0..=1.0).contains(&f));
            }
        }
    }

    #[test]
    fn quantizer_is_idempotent(g in 0.0..2e-4f64, bits in 1u32..9) {
        let (g_min, g_max) = (1e-6, 1e-4);
        let levels = 1u16 << bits;
        let q = vortex_xbar::encoding::quantize_to_levels(g, g_min, g_max, levels);
        prop_assert_eq!(
            vortex_xbar::encoding::quantize_to_levels(q, g_min, g_max, levels),
            q
        );
    }

    #[test]
    fn quantizer_is_monotone(g1 in 0.0..2e-4f64, dg in 0.0..1e-4f64, bits in 1u32..9) {
        let (g_min, g_max) = (1e-6, 1e-4);
        let levels = 1u16 << bits;
        let a = vortex_xbar::encoding::quantize_to_levels(g1, g_min, g_max, levels);
        let b = vortex_xbar::encoding::quantize_to_levels(g1 + dg, g_min, g_max, levels);
        prop_assert!(b >= a);
    }

    #[test]
    fn quantizer_respects_level_count_bounds(gvals in proptest::collection::vec(0.0..2e-4f64, 64),
                                             bits in 1u32..7) {
        // The output set has at most 2^bits distinct values, all inside
        // the window, endpoints representable.
        let (g_min, g_max) = (1e-6, 1e-4);
        let levels = 1u16 << bits;
        let mut distinct: Vec<u64> = gvals
            .iter()
            .map(|&g| vortex_xbar::encoding::quantize_to_levels(g, g_min, g_max, levels).to_bits())
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert!(distinct.len() <= usize::from(levels));
        for bitsq in distinct {
            let q = f64::from_bits(bitsq);
            prop_assert!((g_min..=g_max).contains(&q));
        }
        let lo = vortex_xbar::encoding::quantize_to_levels(g_min, g_min, g_max, levels);
        let hi = vortex_xbar::encoding::quantize_to_levels(g_max, g_min, g_max, levels);
        prop_assert_eq!(lo, g_min);
        prop_assert_eq!(hi, g_max);
    }

    #[test]
    fn one_t1r_program_target_round_trips(g in 1e-6..1e-4f64, r_access in 100.0..2e4f64) {
        // Anything inside the programmable window survives the
        // pre-distort → compress round trip.
        let cell = vortex_device::cell::CellKind::one_t1r(r_access).unwrap();
        let desired = cell.effective_conductance(g);
        let target = cell.program_target(desired, 1e-6, 1e-4);
        prop_assert!((cell.effective_conductance(target) - desired).abs() / desired < 1e-9);
    }

    #[test]
    fn analytic_map_corner_ordering_for_uniform_arrays(gval in 1e-6..1e-4f64,
                                                       r_wire in 0.0..50.0f64) {
        // For *uniform* conductances the near corner (bottom-left) is at
        // least as healthy as the far corner (top-right). (Heterogeneous
        // arrays can invert this: a high-conductance near-corner device
        // loses more voltage in its own series divider than a
        // low-conductance far-corner one — a counterexample this suite's
        // earlier version discovered.)
        let g = Matrix::filled(6, 4, gval);
        let map = vortex_xbar::irdrop::ProgramVoltageMap::analytic(&g, r_wire, 2.8).unwrap();
        prop_assert!(map.factor(5, 0) + 1e-9 >= map.factor(0, 3));
    }
}

/// The mesh of [`NodalAnalysis`] stamped densely in the natural
/// row-wire-then-column-wire order (`T(i,j)` at `i·n + j`, `B(i,j)` at
/// `m·n + i·n + j`) and solved by dense LU: an independent reference for
/// the band-ordered Cholesky path.
fn dense_mesh_solve(
    g: &Matrix,
    r_wire: f64,
    rows: &[RowDrive],
    cols: &[ColTermination],
) -> Vec<f64> {
    let (m, n) = g.shape();
    let gw = 1.0 / r_wire;
    let t = |i: usize, j: usize| i * n + j;
    let b = |i: usize, j: usize| m * n + i * n + j;
    let mut a = Matrix::zeros(2 * m * n, 2 * m * n);
    let mut rhs = vec![0.0; 2 * m * n];
    let stamp = |a: &mut Matrix, u: usize, v: usize, c: f64| {
        a[(u, u)] += c;
        a[(v, v)] += c;
        a[(u, v)] -= c;
        a[(v, u)] -= c;
    };
    for i in 0..m {
        for j in 0..n {
            stamp(&mut a, t(i, j), b(i, j), g[(i, j)]);
            if j > 0 {
                stamp(&mut a, t(i, j), t(i, j - 1), gw);
            }
            if i + 1 < m {
                stamp(&mut a, b(i, j), b(i + 1, j), gw);
            }
        }
    }
    for (i, d) in rows.iter().enumerate() {
        if let RowDrive::Voltage(v) = *d {
            a[(t(i, 0), t(i, 0))] += gw;
            rhs[t(i, 0)] += gw * v;
        }
    }
    for (j, c) in cols.iter().enumerate() {
        if let ColTermination::Voltage(v) = *c {
            a[(b(m - 1, j), b(m - 1, j))] += gw;
            rhs[b(m - 1, j)] += gw * v;
        }
    }
    lu::solve(&a, &rhs).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn nodal_band_solve_matches_dense_lu(seed in proptest::num::u64::ANY) {
        // Random shapes on both sides of rows == cols (the two band
        // orderings), random conductances over the device window, and
        // about a third of the wires floating — at least one wire stays
        // driven so the mesh has a reference potential.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let m = 1 + rng.next_below(7);
        let n = 1 + rng.next_below(7);
        let r_wire = rng.range_f64(0.5, 20.0);
        let g = Matrix::from_fn(m, n, |_, _| 10f64.powf(rng.range_f64(-6.0, -4.0)));
        let mut rows: Vec<RowDrive> = (0..m)
            .map(|_| {
                if rng.bool_with_probability(0.35) {
                    RowDrive::Floating
                } else {
                    RowDrive::Voltage(rng.range_f64(-1.0, 1.0))
                }
            })
            .collect();
        let cols: Vec<ColTermination> = (0..n)
            .map(|_| {
                if rng.bool_with_probability(0.35) {
                    ColTermination::Floating
                } else {
                    ColTermination::Voltage(rng.range_f64(-0.5, 0.5))
                }
            })
            .collect();
        if rows.iter().all(|d| *d == RowDrive::Floating)
            && cols.iter().all(|c| *c == ColTermination::Floating)
        {
            rows[0] = RowDrive::Voltage(1.0);
        }
        let na = NodalAnalysis::new(m, n, r_wire).unwrap();
        let sol = na.compute_general(&g, &rows, &cols).unwrap();
        let reference = dense_mesh_solve(&g, r_wire, &rows, &cols);
        let scale = reference.iter().fold(0.0_f64, |s, v| s.max(v.abs())).max(1e-300);
        prop_assert_eq!(sol.node_voltages.len(), reference.len());
        for (k, (u, v)) in sol.node_voltages.iter().zip(&reference).enumerate() {
            prop_assert!((u - v).abs() <= 1e-10 * scale, "{m}x{n} node {k}: {u} vs {v}");
        }
    }

    #[test]
    fn all_floating_mesh_is_a_typed_singular_error(m in 1usize..7, n in 1usize..7,
                                                   gval in 1e-6..1e-4f64) {
        // No wire is driven or terminated: the node voltages are defined
        // only up to a constant, which the factorization must report
        // instead of returning garbage or panicking.
        let na = NodalAnalysis::new(m, n, 2.5).unwrap();
        let g = Matrix::filled(m, n, gval);
        let result = na.compute_general(
            &g,
            &vec![RowDrive::Floating; m],
            &vec![ColTermination::Floating; n],
        );
        prop_assert!(
            matches!(result, Err(XbarError::Numeric(LinalgError::Singular { .. }))),
            "{m}x{n}: {result:?}"
        );
    }
}
