//! Correctness checks.  Each compares a program output against a value
//! computed apart from the program's serving path, or against a property the
//! method must have.  Every check has a negative test below that feeds it a
//! perturbed answer and sees it fail.

use dla_core::blas::flops::is_empty_call;
use dla_core::blas::Call;
use dla_core::machine::{Locality, MachineConfig};
use dla_core::mat::stats::Summary;
use dla_core::model::ModelRepository;
use dla_core::predict::EfficiencyPrediction;

/// Relative tolerance of a served trace prediction against the sum of the
/// uncompiled reference model estimates (different summation order and the
/// compiled evaluator's fused arithmetic only).
pub const TRACE_SUM_TOLERANCE: f64 = 1e-9;

/// The four whole-trace tick quantities the efficiency metric is built from,
/// summed over the trace with the uncompiled `RoutineModel::estimate`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TicksRef {
    pub min: f64,
    pub mean: f64,
    pub median: f64,
    pub max: f64,
}

/// Sums the reference estimates of every non-degenerate call of `trace`.
pub fn reference_ticks(
    repository: &ModelRepository,
    machine: &MachineConfig,
    locality: Locality,
    trace: &[Call],
) -> Result<TicksRef, String> {
    let id = machine.id();
    let mut sum = TicksRef {
        min: 0.0,
        mean: 0.0,
        median: 0.0,
        max: 0.0,
    };
    for call in trace.iter().filter(|c| !is_empty_call(c)) {
        let model = repository
            .get(call.routine(), &id, locality)
            .ok_or_else(|| format!("reference: no model for {}", call.routine()))?;
        let s = model
            .estimate(call)
            .map_err(|e| format!("reference estimate failed: {e}"))?;
        sum.min += s.min;
        sum.mean += s.mean;
        sum.median += s.median;
        sum.max += s.max;
    }
    Ok(sum)
}

fn relative_gap(a: f64, b: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    (a - b).abs() / a.abs().max(b.abs())
}

/// A served efficiency prediction must be the reference tick sums turned
/// into efficiency (`useful / (ticks · peak)`; the minimum efficiency comes
/// from the maximum ticks and vice versa).
pub fn check_trace_sum(
    label: &str,
    served: &EfficiencyPrediction,
    reference: &TicksRef,
    machine: &MachineConfig,
    useful_flops: f64,
) -> Result<(), String> {
    let peak = machine.peak_flops_per_cycle();
    let eff = |ticks: f64| useful_flops / (ticks * peak);
    let pairs = [
        ("median", served.median, eff(reference.median)),
        ("mean", served.mean, eff(reference.mean)),
        ("min", served.min, eff(reference.max)),
        ("max", served.max, eff(reference.min)),
    ];
    for (name, got, want) in pairs {
        let gap = relative_gap(got, want);
        if gap.is_nan() || gap > TRACE_SUM_TOLERANCE {
            return Err(format!(
                "{label}: served {name} efficiency {got} differs from the reference sum's {want}"
            ));
        }
    }
    Ok(())
}

/// The predicted-best choice must reach `fraction` of the best efficiency
/// measured by simulated execution over the same candidates.
pub fn check_choice(
    label: &str,
    predicted_best: usize,
    measured: &[(usize, f64)],
    fraction: f64,
) -> Result<f64, String> {
    let best = measured
        .iter()
        .map(|&(_, e)| e)
        .fold(f64::NEG_INFINITY, f64::max);
    let chosen = measured
        .iter()
        .find(|&&(k, _)| k == predicted_best)
        .map(|&(_, e)| e)
        .ok_or_else(|| format!("{label}: predicted choice {predicted_best} was not measured"))?;
    let reached = chosen / best;
    if !(best > 0.0 && reached >= fraction) {
        return Err(format!(
            "{label}: predicted choice {predicted_best} reaches {reached:.3} of the best measured \
             efficiency, below {fraction}"
        ));
    }
    Ok(reached)
}

/// Bitwise equality of two summaries' quantities.
pub fn check_same(label: &str, got: &Summary, want: &Summary) -> Result<(), String> {
    let same = got
        .to_quantities()
        .iter()
        .zip(want.to_quantities())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    if same {
        Ok(())
    } else {
        Err(format!(
            "{label}: served {got:?} differs from reference {want:?}"
        ))
    }
}

/// A proxied median must stay within `bound` (relative) of the target
/// machine's own model.
pub fn check_proxied(label: &str, proxied: f64, truth: f64, bound: f64) -> Result<f64, String> {
    let error = (proxied - truth).abs() / truth.abs();
    if error <= bound {
        Ok(error)
    } else {
        Err(format!(
            "{label}: proxied median {proxied} is {error:.3} away from the target model's {truth}, \
             beyond the transfer bound {bound}"
        ))
    }
}

/// A refinement round must lower the refined cells' mean relative error
/// against fresh measurements of the drifted machine.
pub fn check_refinement(label: &str, before: f64, after: f64) -> Result<(), String> {
    if after.is_finite() && after < before {
        Ok(())
    } else {
        Err(format!(
            "{label}: refined cells' error {after:.4} did not drop below {before:.4}"
        ))
    }
}

/// encode → decode → encode must reproduce the bytes exactly.
pub fn check_roundtrip(label: &str, first: &[u8], second: &[u8]) -> Result<(), String> {
    if first == second {
        Ok(())
    } else {
        Err(format!(
            "{label}: re-encoding the decoded repository changed the bytes ({} vs {})",
            first.len(),
            second.len()
        ))
    }
}

/// A built model's held-out median relative error must stay within the
/// strategy's error bound.
pub fn check_fit(label: &str, median_error: f64, bound: f64) -> Result<(), String> {
    if median_error <= bound {
        Ok(())
    } else {
        Err(format!(
            "{label}: held-out median relative error {median_error:.4} exceeds the bound {bound}"
        ))
    }
}

/// The failure kind of an answer that breaks `0 < min <= median <= max`, if
/// it does.
pub fn answer_fault(s: &Summary) -> Option<&'static str> {
    let finite = s.min.is_finite() && s.median.is_finite() && s.max.is_finite();
    if !finite || s.min <= 0.0 || s.median <= 0.0 || s.max <= 0.0 {
        Some("non-positive")
    } else if !(s.min <= s.median && s.median <= s.max) {
        Some("crossing")
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dla_core::machine::presets::harpertown_openblas;

    fn summary(min: f64, median: f64, max: f64) -> Summary {
        Summary {
            min,
            mean: median,
            median,
            max,
            std_dev: 1.0,
            count: 1,
        }
    }

    #[test]
    fn trace_sum_accepts_the_reference_and_rejects_a_perturbation() {
        let machine = harpertown_openblas();
        let reference = TicksRef {
            min: 900.0,
            mean: 1000.0,
            median: 1000.0,
            max: 1200.0,
        };
        let useful = 1e6;
        let peak = machine.peak_flops_per_cycle();
        let eff = |t: f64| useful / (t * peak);
        let good = EfficiencyPrediction {
            median: eff(1000.0),
            mean: eff(1000.0),
            min: eff(1200.0),
            max: eff(900.0),
        };
        assert!(check_trace_sum("ok", &good, &reference, &machine, useful).is_ok());
        let mut bad = good;
        bad.median *= 1.0 + 1e-7;
        assert!(check_trace_sum("bad", &bad, &reference, &machine, useful).is_err());
        // Swapping min and max (an inverted range) is caught too.
        let swapped = EfficiencyPrediction {
            min: good.max,
            max: good.min,
            ..good
        };
        assert!(check_trace_sum("swap", &swapped, &reference, &machine, useful).is_err());
    }

    #[test]
    fn choice_check_rejects_a_poor_pick() {
        let measured = [(1, 0.50), (2, 0.40), (3, 0.20)];
        assert!(check_choice("ok", 2, &measured, 0.75).is_ok());
        assert!(check_choice("bad", 3, &measured, 0.75).is_err());
        assert!(check_choice("missing", 9, &measured, 0.75).is_err());
    }

    #[test]
    fn fresh_check_is_bitwise() {
        let s = summary(1.0, 2.0, 3.0);
        assert!(check_same("ok", &s, &s).is_ok());
        let mut t = s;
        t.median = f64::from_bits(t.median.to_bits() + 1);
        assert!(check_same("bad", &t, &s).is_err());
    }

    #[test]
    fn proxied_check_rejects_an_answer_beyond_the_bound() {
        assert!(check_proxied("ok", 110.0, 100.0, 0.15).is_ok());
        assert!(check_proxied("bad", 120.0, 100.0, 0.15).is_err());
    }

    #[test]
    fn refinement_check_rejects_no_improvement() {
        assert!(check_refinement("ok", 0.4, 0.05).is_ok());
        assert!(check_refinement("bad", 0.4, 0.4).is_err());
        assert!(check_refinement("nan", 0.4, f64::NAN).is_err());
    }

    #[test]
    fn roundtrip_check_rejects_a_changed_byte() {
        let a = vec![1u8, 2, 3];
        let mut b = a.clone();
        assert!(check_roundtrip("ok", &a, &b).is_ok());
        b[1] ^= 1;
        assert!(check_roundtrip("bad", &a, &b).is_err());
    }

    #[test]
    fn fit_check_rejects_an_error_beyond_the_bound() {
        assert!(check_fit("ok", 0.04, 0.10).is_ok());
        assert!(check_fit("bad", 0.12, 0.10).is_err());
    }

    #[test]
    fn answer_faults_are_classified() {
        assert_eq!(answer_fault(&summary(1.0, 2.0, 3.0)), None);
        assert_eq!(answer_fault(&summary(2.5, 2.0, 3.0)), Some("crossing"));
        assert_eq!(answer_fault(&summary(1.0, 4.0, 3.0)), Some("crossing"));
        assert_eq!(answer_fault(&summary(1.0, 0.0, 3.0)), Some("non-positive"));
        assert_eq!(answer_fault(&summary(-1.0, 2.0, 3.0)), Some("non-positive"));
        assert_eq!(
            answer_fault(&summary(1.0, f64::NAN, 3.0)),
            Some("non-positive")
        );
    }
}
