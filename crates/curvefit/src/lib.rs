//! Curve fitting for the paper's extrapolation study (Section 4.3.2).
//!
//! The paper feeds half of its resource-consumption data points to a curve
//! fitter, asks for the two best non-polynomial fits plus linear regression,
//! scores all three by RMSE over *all* points, and extrapolates with the
//! winner. The two non-polynomial shapes it ends up with are the
//! Morgan-Mercer-Flodin (MMF) and Hoerl curves:
//!
//! * MMF:   `f(x) = (a·b + c·x^d) / (b + x^d)`
//! * Hoerl: `f(x) = a · b^x · x^c`
//!
//! Linear least squares is closed-form; the nonlinear fits minimize sum of
//! squared residuals with Nelder–Mead from several deterministic starting
//! simplexes. The selection itself (train on half, score on all) is the
//! extrapolation experiment's `fit_and_score` in `squirrel-bench`.

mod nelder;

pub use nelder::{nelder_mead, NelderMeadOptions};

/// A fitted model that can predict and report its parameters.
#[derive(Clone, Debug)]
pub enum FittedCurve {
    Linear { intercept: f64, slope: f64 },
    Mmf { a: f64, b: f64, c: f64, d: f64 },
    Hoerl { a: f64, b: f64, c: f64 },
}

impl FittedCurve {
    /// Evaluate the curve at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        match *self {
            FittedCurve::Linear { intercept, slope } => intercept + slope * x,
            FittedCurve::Mmf { a, b, c, d } => {
                let xd = x.max(0.0).powf(d);
                (a * b + c * xd) / (b + xd)
            }
            FittedCurve::Hoerl { a, b, c } => a * b.powf(x) * x.max(1e-12).powf(c),
        }
    }

    /// Name used in figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            FittedCurve::Linear { .. } => "linear",
            FittedCurve::Mmf { .. } => "MMF",
            FittedCurve::Hoerl { .. } => "hoerl",
        }
    }
}

/// Root-mean-square error of `curve` on `(xs, ys)`.
pub fn rmse(curve: &FittedCurve, xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    assert!(!xs.is_empty());
    let sse: f64 = xs
        .iter()
        .zip(ys)
        .map(|(&x, &y)| {
            let e = curve.predict(x) - y;
            e * e
        })
        .sum();
    (sse / xs.len() as f64).sqrt()
}

/// Ordinary least squares line fit.
pub fn fit_linear(xs: &[f64], ys: &[f64]) -> FittedCurve {
    assert_eq!(xs.len(), ys.len());
    assert!(xs.len() >= 2, "need at least two points");
    let n = xs.len() as f64;
    let sx: f64 = xs.iter().sum();
    let sy: f64 = ys.iter().sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    let slope = if denom.abs() < 1e-12 {
        0.0
    } else {
        (n * sxy - sx * sy) / denom
    };
    let intercept = (sy - slope * sx) / n;
    FittedCurve::Linear { intercept, slope }
}

fn sse_of(
    params_to_curve: impl Fn(&[f64]) -> FittedCurve,
    xs: &[f64],
    ys: &[f64],
    p: &[f64],
) -> f64 {
    let curve = params_to_curve(p);
    xs.iter()
        .zip(ys)
        .map(|(&x, &y)| {
            let v = curve.predict(x);
            if v.is_finite() {
                let e = v - y;
                e * e
            } else {
                1e30
            }
        })
        .sum()
}

/// Fit the MMF curve by Nelder–Mead from several deterministic starts.
pub fn fit_mmf(xs: &[f64], ys: &[f64]) -> FittedCurve {
    assert!(xs.len() >= 4, "MMF has four parameters");
    let y0 = ys.first().copied().unwrap_or(0.0);
    let ymax = ys.iter().copied().fold(f64::MIN, f64::max);
    let xmax = xs.iter().copied().fold(f64::MIN, f64::max).max(1.0);
    let to_curve = |p: &[f64]| FittedCurve::Mmf {
        a: p[0],
        b: p[1].abs().max(1e-9),
        c: p[2],
        d: p[3],
    };
    let mut best: Option<(f64, Vec<f64>)> = None;
    for &(c_mult, d0) in &[(1.5, 1.0), (2.0, 0.8), (1.2, 1.2), (3.0, 0.5)] {
        let start = vec![y0, xmax.powf(d0), ymax * c_mult, d0];
        let (p, sse) = nelder_mead(
            |p| sse_of(to_curve, xs, ys, p),
            &start,
            NelderMeadOptions::default(),
        );
        if best.as_ref().is_none_or(|(s, _)| sse < *s) {
            best = Some((sse, p));
        }
    }
    to_curve(&best.expect("at least one start").1)
}

/// Fit the Hoerl curve. With `y = a·b^x·x^c` and positive data, fitting
/// `ln y = ln a + x·ln b + c·ln x` is linear least squares in three
/// unknowns; refine the log-domain solution with Nelder–Mead on the real
/// residuals.
pub fn fit_hoerl(xs: &[f64], ys: &[f64]) -> FittedCurve {
    assert!(xs.len() >= 3, "Hoerl has three parameters");
    assert!(
        xs.iter().all(|&x| x > 0.0) && ys.iter().all(|&y| y > 0.0),
        "Hoerl fit needs positive data"
    );
    // Log-domain normal equations for [ln a, ln b, c].
    let rows: Vec<[f64; 3]> = xs.iter().map(|&x| [1.0, x, x.ln()]).collect();
    let rhs: Vec<f64> = ys.iter().map(|&y| y.ln()).collect();
    let mut ata = [[0.0f64; 3]; 3];
    let mut atb = [0.0f64; 3];
    for (r, &b) in rows.iter().zip(&rhs) {
        for i in 0..3 {
            for j in 0..3 {
                ata[i][j] += r[i] * r[j];
            }
            atb[i] += r[i] * b;
        }
    }
    let sol = solve3(ata, atb).unwrap_or([0.0, 0.0, 0.0]);
    let start = vec![sol[0].exp(), sol[1].exp(), sol[2]];
    let to_curve = |p: &[f64]| FittedCurve::Hoerl {
        a: p[0],
        b: p[1].abs().max(1e-12),
        c: p[2],
    };
    let (p, _) = nelder_mead(
        |p| sse_of(to_curve, xs, ys, p),
        &start,
        NelderMeadOptions::default(),
    );
    to_curve(&p)
}

/// Solve a 3x3 linear system by Gaussian elimination with partial pivoting.
fn solve3(mut a: [[f64; 3]; 3], mut b: [f64; 3]) -> Option<[f64; 3]> {
    for col in 0..3 {
        let pivot = (col..3).max_by(|&i, &j| {
            a[i][col]
                .abs()
                .partial_cmp(&a[j][col].abs())
                .expect("no NaN")
        })?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..3 {
            let f = a[row][col] / a[col][col];
            let pivot_row = a[col];
            for (x, p) in a[row][col..].iter_mut().zip(&pivot_row[col..]) {
                *x -= f * p;
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = [0.0f64; 3];
    for row in (0..3).rev() {
        let mut v = b[row];
        for k in row + 1..3 {
            v -= a[row][k] * x[k];
        }
        x[row] = v / a[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_fit_recovers_exact_line() {
        let xs: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x).collect();
        let c = fit_linear(&xs, &ys);
        if let FittedCurve::Linear { intercept, slope } = c {
            assert!((intercept - 3.0).abs() < 1e-9);
            assert!((slope - 2.0).abs() < 1e-9);
        } else {
            panic!("wrong variant");
        }
        assert!(rmse(&c, &xs, &ys) < 1e-9);
    }

    #[test]
    fn hoerl_fit_recovers_parameters() {
        let (a, b, c): (f64, f64, f64) = (2.5, 1.001, 0.7);
        let xs: Vec<f64> = (1..=40).map(|i| i as f64 * 10.0).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| a * b.powf(x) * x.powf(c)).collect();
        let fit = fit_hoerl(&xs, &ys);
        assert!(
            rmse(&fit, &xs, &ys) < 0.05 * ys.last().expect("nonempty"),
            "{fit:?}"
        );
    }

    #[test]
    fn mmf_fit_tracks_saturating_data() {
        // MMF saturates toward c; generate such data and require a close fit.
        let (a, b, c, d) = (1.0, 500.0, 80.0, 1.1);
        let xs: Vec<f64> = (1..=50).map(|i| i as f64 * 12.0).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| {
                let xd = x.powf(d);
                (a * b + c * xd) / (b + xd)
            })
            .collect();
        let fit = fit_mmf(&xs, &ys);
        let e = rmse(&fit, &xs, &ys);
        assert!(e < 2.0, "rmse {e} fit {fit:?}");
    }

    #[test]
    fn rmse_zero_for_perfect_prediction() {
        let c = FittedCurve::Linear {
            intercept: 0.0,
            slope: 1.0,
        };
        assert_eq!(rmse(&c, &[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((rmse(&c, &[1.0], &[3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn extrapolation_is_finite_and_monotone_for_linear() {
        let c = fit_linear(&[0.0, 100.0], &[1.0, 11.0]);
        let far = c.predict(3000.0);
        assert!(far.is_finite());
        assert!(far > c.predict(1000.0));
    }

    #[test]
    fn curve_names() {
        assert_eq!(
            FittedCurve::Linear {
                intercept: 0.0,
                slope: 0.0
            }
            .name(),
            "linear"
        );
        assert_eq!(
            FittedCurve::Mmf {
                a: 0.0,
                b: 1.0,
                c: 0.0,
                d: 1.0
            }
            .name(),
            "MMF"
        );
        assert_eq!(
            FittedCurve::Hoerl {
                a: 1.0,
                b: 1.0,
                c: 1.0
            }
            .name(),
            "hoerl"
        );
    }

    #[test]
    fn solve3_known_system() {
        // x + y + z = 6; 2y + 5z = -4; 2x + 5y - z = 27.
        let a = [[1.0, 1.0, 1.0], [0.0, 2.0, 5.0], [2.0, 5.0, -1.0]];
        let b = [6.0, -4.0, 27.0];
        let x = solve3(a, b).expect("solvable");
        assert!((x[0] - 5.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
        assert!((x[2] + 2.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn linear_fit_never_panics_and_rmse_finite(
            pts in proptest::collection::vec((-1e6f64..1e6, -1e6f64..1e6), 2..50)
        ) {
            let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
            let c = fit_linear(&xs, &ys);
            prop_assert!(rmse(&c, &xs, &ys).is_finite());
        }

        #[test]
        fn linear_fit_is_optimal_among_slope_perturbations(
            pts in proptest::collection::vec((0f64..1e3, 0f64..1e3), 3..30)
        ) {
            let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
            let c = fit_linear(&xs, &ys);
            let base = rmse(&c, &xs, &ys);
            if let FittedCurve::Linear { intercept, slope } = c {
                for d in [-0.1, 0.1, -0.01, 0.01] {
                    let alt = FittedCurve::Linear { intercept, slope: slope + d };
                    prop_assert!(rmse(&alt, &xs, &ys) + 1e-9 >= base);
                }
            }
        }
    }
}
