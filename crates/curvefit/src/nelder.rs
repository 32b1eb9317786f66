//! Nelder–Mead downhill simplex minimizer (derivative-free), used for the
//! nonlinear MMF and Hoerl fits.

/// Termination and step controls.
#[derive(Clone, Copy, Debug)]
pub struct NelderMeadOptions {
    pub max_iters: usize,
    /// Stop when the simplex's value spread falls below this.
    pub tolerance: f64,
    /// Initial simplex edge as a fraction of each coordinate (absolute step
    /// for near-zero coordinates).
    pub initial_step: f64,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        NelderMeadOptions {
            max_iters: 2000,
            tolerance: 1e-10,
            initial_step: 0.25,
        }
    }
}

/// Minimize `f` from `start`; returns the best point and its value.
pub fn nelder_mead(
    f: impl Fn(&[f64]) -> f64,
    start: &[f64],
    opts: NelderMeadOptions,
) -> (Vec<f64>, f64) {
    let n = start.len();
    assert!(n >= 1);
    // Standard coefficients.
    const ALPHA: f64 = 1.0; // reflection
    const GAMMA: f64 = 2.0; // expansion
    const RHO: f64 = 0.5; // contraction
    const SIGMA: f64 = 0.5; // shrink

    let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
    simplex.push(start.to_vec());
    for i in 0..n {
        let mut p = start.to_vec();
        let step = if p[i].abs() > 1e-9 {
            p[i] * opts.initial_step
        } else {
            opts.initial_step
        };
        p[i] += step;
        simplex.push(p);
    }
    let mut values: Vec<f64> = simplex.iter().map(|p| f(p)).collect();

    for _ in 0..opts.max_iters {
        // Order simplex by value.
        let mut order: Vec<usize> = (0..=n).collect();
        order.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("no NaN objective"));
        let best = order[0];
        let worst = order[n];
        let second_worst = order[n - 1];

        if (values[worst] - values[best]).abs() <= opts.tolerance * (1.0 + values[best].abs()) {
            // Value spread converged; stop only if the simplex is also
            // geometrically small, otherwise shrink and keep going (a
            // simplex straddling the minimum symmetrically has equal values
            // at every vertex while being arbitrarily wide).
            let diameter: f64 = simplex
                .iter()
                .flat_map(|p| p.iter().zip(&simplex[best]).map(|(&a, &b)| (a - b).abs()))
                .fold(0.0, f64::max);
            let scale = simplex[best].iter().fold(1.0f64, |m, &x| m.max(x.abs()));
            if diameter <= 1e-8 * scale {
                break;
            }
            let best_point = simplex[best].clone();
            for i in 0..=n {
                if i == best {
                    continue;
                }
                for (x, &b) in simplex[i].iter_mut().zip(&best_point) {
                    *x = b + SIGMA * (*x - b);
                }
                values[i] = f(&simplex[i]);
            }
            continue;
        }

        // Centroid of all but the worst.
        let mut centroid = vec![0.0; n];
        for &i in order.iter().take(n) {
            for (c, &x) in centroid.iter_mut().zip(&simplex[i]) {
                *c += x;
            }
        }
        for c in centroid.iter_mut() {
            *c /= n as f64;
        }

        let point = |coef: f64| -> Vec<f64> {
            centroid
                .iter()
                .zip(&simplex[worst])
                .map(|(&c, &w)| c + coef * (c - w))
                .collect()
        };

        let reflected = point(ALPHA);
        let fr = f(&reflected);
        if fr < values[best] {
            let expanded = point(GAMMA);
            let fe = f(&expanded);
            if fe < fr {
                simplex[worst] = expanded;
                values[worst] = fe;
            } else {
                simplex[worst] = reflected;
                values[worst] = fr;
            }
        } else if fr < values[second_worst] {
            simplex[worst] = reflected;
            values[worst] = fr;
        } else {
            let contracted = point(-RHO);
            let fc = f(&contracted);
            if fc < values[worst] {
                simplex[worst] = contracted;
                values[worst] = fc;
            } else {
                // Shrink toward the best vertex.
                let best_point = simplex[best].clone();
                for i in 0..=n {
                    if i == best {
                        continue;
                    }
                    for (x, &b) in simplex[i].iter_mut().zip(&best_point) {
                        *x = b + SIGMA * (*x - b);
                    }
                    values[i] = f(&simplex[i]);
                }
            }
        }
    }

    let (best_idx, _) = values
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN objective"))
        .expect("nonempty simplex");
    (simplex[best_idx].clone(), values[best_idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic_bowl() {
        let f = |p: &[f64]| (p[0] - 3.0).powi(2) + (p[1] + 1.0).powi(2);
        let (p, v) = nelder_mead(f, &[0.0, 0.0], NelderMeadOptions::default());
        assert!((p[0] - 3.0).abs() < 1e-4, "{p:?}");
        assert!((p[1] + 1.0).abs() < 1e-4, "{p:?}");
        assert!(v < 1e-7);
    }

    #[test]
    fn minimizes_rosenbrock_reasonably() {
        let f = |p: &[f64]| (1.0 - p[0]).powi(2) + 100.0 * (p[1] - p[0] * p[0]).powi(2);
        let (p, v) = nelder_mead(
            f,
            &[-1.2, 1.0],
            NelderMeadOptions {
                max_iters: 20_000,
                ..Default::default()
            },
        );
        assert!(v < 1e-6, "value {v} at {p:?}");
    }

    #[test]
    fn one_dimensional_works() {
        let f = |p: &[f64]| (p[0] - 42.0).powi(2);
        let (p, _) = nelder_mead(f, &[0.0], NelderMeadOptions::default());
        assert!((p[0] - 42.0).abs() < 1e-3);
    }

    #[test]
    fn respects_iteration_budget() {
        let f = |p: &[f64]| p[0].powi(2);
        let opts = NelderMeadOptions {
            max_iters: 1,
            tolerance: 0.0,
            initial_step: 0.25,
        };
        let (_, v) = nelder_mead(f, &[100.0], opts);
        assert!(v > 0.0, "cannot converge in one iteration");
    }

    #[test]
    fn deterministic() {
        let f = |p: &[f64]| (p[0] - 1.0).powi(2) + (p[1] - 2.0).powi(2) + (p[2] + 3.0).powi(2);
        let a = nelder_mead(f, &[0.0, 0.0, 0.0], NelderMeadOptions::default());
        let b = nelder_mead(f, &[0.0, 0.0, 0.0], NelderMeadOptions::default());
        assert_eq!(a.0, b.0);
    }
}
