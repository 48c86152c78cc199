//! One-dimensional maximizers for the availability function.
//!
//! §4.1 of the paper: the read quorum `q_r` ranges over the integers
//! `1..=⌊T/2⌋`, so a naive exhaustive scan is already polynomial. The paper
//! notes two accelerations: (a) `A(α, q_r)` is frequently maximized at the
//! *endpoints* of the range, suggesting an endpoint-first check, and (b)
//! numeric techniques — golden-section search, and Brent's method on a
//! continuous relaxation — converge quickly when the function is unimodal.
//!
//! All searches return the argmax and the maximum value. Exhaustive search
//! is the ground truth the others are validated against in tests and in the
//! `optimizer` bench.

/// Result of a 1-D integer maximization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntMax {
    /// Argmax.
    pub x: usize,
    /// Maximum value.
    pub value: f64,
    /// Number of function evaluations performed.
    pub evals: usize,
}

/// Exhaustive argmax of `f` over `lo..=hi`. Ties break toward smaller `x`
/// (smaller read quorums are never worse operationally: they admit more
/// reads at equal availability).
///
/// # Panics
/// Panics if `lo > hi`.
pub fn exhaustive_max(lo: usize, hi: usize, mut f: impl FnMut(usize) -> f64) -> IntMax {
    assert!(lo <= hi, "empty domain {lo}..={hi}");
    let mut best = IntMax {
        x: lo,
        value: f(lo),
        evals: 1,
    };
    for x in lo + 1..=hi {
        let v = f(x);
        best.evals += 1;
        if v > best.value {
            best.x = x;
            best.value = v;
        }
    }
    best
}

/// Golden-section search for a maximum of `f` over the integers `lo..=hi`,
/// with the paper's endpoint-first refinement: both endpoints are always
/// evaluated (§5.3 shows maxima land there for most topologies/ratios), and
/// the interior is narrowed by golden-ratio subdivision.
///
/// Exact for unimodal `f` (including monotone `f`); for multimodal `f` it
/// returns a local maximum, which is why callers validate against
/// [`exhaustive_max`] where correctness matters more than speed.
pub fn golden_section_max(lo: usize, hi: usize, mut f: impl FnMut(usize) -> f64) -> IntMax {
    assert!(lo <= hi, "empty domain {lo}..={hi}");
    let mut evals = 0usize;
    let mut eval = |x: usize, evals: &mut usize| {
        *evals += 1;
        f(x)
    };

    // Endpoint-first check.
    let flo = eval(lo, &mut evals);
    if hi == lo {
        return IntMax {
            x: lo,
            value: flo,
            evals,
        };
    }
    let fhi = eval(hi, &mut evals);
    let mut best = if flo >= fhi {
        IntMax {
            x: lo,
            value: flo,
            evals,
        }
    } else {
        IntMax {
            x: hi,
            value: fhi,
            evals,
        }
    };

    // Interior golden-section narrowing on [a, b].
    const INV_PHI: f64 = 0.618_033_988_749_894_9;
    let (mut a, mut b) = (lo as f64, hi as f64);
    let mut c = b - INV_PHI * (b - a);
    let mut d = a + INV_PHI * (b - a);
    let (mut xc, mut xd) = (c.round() as usize, d.round() as usize);
    let mut fc = eval(xc, &mut evals);
    let mut fd = eval(xd, &mut evals);

    while (b - a) > 2.0 {
        if fc >= fd {
            b = d;
            d = c;
            xd = xc;
            fd = fc;
            c = b - INV_PHI * (b - a);
            xc = c.round() as usize;
            fc = eval(xc, &mut evals);
        } else {
            a = c;
            c = d;
            xc = xd;
            fc = fd;
            d = a + INV_PHI * (b - a);
            xd = d.round() as usize;
            fd = eval(xd, &mut evals);
        }
    }

    // Sweep the final integer bracket.
    let ia = a.floor().max(lo as f64) as usize;
    let ib = b.ceil().min(hi as f64) as usize;
    for x in ia..=ib {
        let v = eval(x, &mut evals);
        #[expect(
            clippy::float_cmp,
            reason = "exact tie-break keeps the first of equal values; an epsilon could move optimizer picks"
        )]
        if v > best.value || (v == best.value && x < best.x) {
            best = IntMax { x, value: v, evals };
        }
    }
    if fc > best.value {
        best = IntMax {
            x: xc,
            value: fc,
            evals,
        };
    }
    if fd > best.value {
        best = IntMax {
            x: xd,
            value: fd,
            evals,
        };
    }
    best.evals = evals;
    best
}

/// Result of a continuous 1-D maximization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloatMax {
    /// Argmax.
    pub x: f64,
    /// Maximum value.
    pub(crate) value: f64,
    /// Function evaluations performed.
    pub evals: usize,
}

/// Brent's method (golden section + successive parabolic interpolation) for
/// maximizing a continuous function on `[a, b]`, as the paper suggests for
/// the continuous relaxation of `A` (§4.1, citing Numerical Recipes).
///
/// `tol` is the absolute x-tolerance.
///
/// # Panics
/// Panics if `a >= b` or `tol <= 0`.
pub fn brent_max(a: f64, b: f64, tol: f64, mut f: impl FnMut(f64) -> f64) -> FloatMax {
    assert!(a < b, "invalid bracket [{a}, {b}]");
    assert!(tol > 0.0, "tolerance must be positive");
    // Standard Brent minimization applied to -f.
    const CGOLD: f64 = 0.381_966_011_250_105;
    let mut evals = 0usize;
    let mut g = |x: f64, evals: &mut usize| {
        *evals += 1;
        -f(x)
    };

    let (mut lo, mut hi) = (a, b);
    let mut x = lo + CGOLD * (hi - lo);
    let mut w = x;
    let mut v = x;
    let mut fx = g(x, &mut evals);
    let mut fw = fx;
    let mut fv = fx;
    let mut d: f64 = 0.0;
    let mut e: f64 = 0.0;

    for _ in 0..200 {
        let xm = 0.5 * (lo + hi);
        let tol1 = tol * x.abs() + 1e-12;
        let tol2 = 2.0 * tol1;
        if (x - xm).abs() <= tol2 - 0.5 * (hi - lo) {
            break;
        }
        let mut use_golden = true;
        if e.abs() > tol1 {
            // Parabolic fit through x, v, w.
            let r = (x - w) * (fx - fv);
            let q0 = (x - v) * (fx - fw);
            let mut p = (x - v) * q0 - (x - w) * r;
            let mut q = 2.0 * (q0 - r);
            if q > 0.0 {
                p = -p;
            }
            q = q.abs();
            let etemp = e;
            e = d;
            if p.abs() < (0.5 * q * etemp).abs() && p > q * (lo - x) && p < q * (hi - x) {
                d = p / q;
                let u = x + d;
                if u - lo < tol2 || hi - u < tol2 {
                    d = if xm > x { tol1 } else { -tol1 };
                }
                use_golden = false;
            }
        }
        if use_golden {
            e = if x >= xm { lo - x } else { hi - x };
            d = CGOLD * e;
        }
        let u = if d.abs() >= tol1 {
            x + d
        } else if d > 0.0 {
            x + tol1
        } else {
            x - tol1
        };
        let fu = g(u, &mut evals);
        if fu <= fx {
            if u >= x {
                lo = x;
            } else {
                hi = x;
            }
            v = w;
            fv = fw;
            w = x;
            fw = fx;
            x = u;
            fx = fu;
        } else {
            if u < x {
                lo = u;
            } else {
                hi = u;
            }
            #[expect(
                clippy::float_cmp,
                reason = "Brent bookkeeping: v, w and x are assigned from one another, so == tests whether two trackers hold the same point"
            )]
            if fu <= fw || w == x {
                v = w;
                fv = fw;
                w = u;
                fw = fu;
            } else if fu <= fv || v == x || v == w {
                v = u;
                fv = fu;
            }
        }
    }
    FloatMax {
        x,
        value: -fx,
        evals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_finds_interior_max() {
        let r = exhaustive_max(0, 10, |x| -((x as f64 - 6.3).powi(2)));
        assert_eq!(r.x, 6);
        assert_eq!(r.evals, 11);
    }

    #[test]
    fn exhaustive_tie_breaks_low() {
        let r = exhaustive_max(1, 5, |_| 1.0);
        assert_eq!(r.x, 1);
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn exhaustive_rejects_empty_domain() {
        exhaustive_max(5, 4, |_| 0.0);
    }

    #[test]
    fn golden_matches_exhaustive_on_unimodal() {
        for peak in [0usize, 1, 7, 25, 49, 50] {
            let f = |x: usize| -((x as f64 - peak as f64).powi(2));
            let e = exhaustive_max(0, 50, f);
            let g = golden_section_max(0, 50, f);
            assert_eq!(g.x, e.x, "peak {peak}");
            assert!(g.evals <= 51, "golden should not exceed exhaustive count");
        }
    }

    #[test]
    fn golden_handles_monotone_functions() {
        let inc = golden_section_max(1, 50, |x| x as f64);
        assert_eq!(inc.x, 50);
        let dec = golden_section_max(1, 50, |x| -(x as f64));
        assert_eq!(dec.x, 1);
    }

    #[test]
    fn golden_single_point_domain() {
        let r = golden_section_max(7, 7, |x| x as f64);
        assert_eq!(r.x, 7);
        assert_eq!(r.value, 7.0);
    }

    #[test]
    fn golden_finds_endpoint_max_of_bathtub() {
        // Paper §5.3: maxima frequently at endpoints; a bathtub (convex)
        // shape must return one of the endpoints, not an interior point.
        let f = |x: usize| (x as f64 - 25.0).powi(2);
        let r = golden_section_max(1, 50, f);
        assert!(r.x == 1 || r.x == 50);
        assert_eq!(r.value, f(1).max(f(50)));
    }

    #[test]
    fn brent_quadratic_peak() {
        let r = brent_max(0.0, 10.0, 1e-8, |x| -(x - 3.7) * (x - 3.7) + 2.0);
        assert!((r.x - 3.7).abs() < 1e-6, "got {}", r.x);
        assert!((r.value - 2.0).abs() < 1e-10);
    }

    #[test]
    fn brent_asymmetric_function() {
        // max of x * exp(-x) at x = 1.
        let r = brent_max(0.0, 5.0, 1e-9, |x| x * (-x).exp());
        assert!((r.x - 1.0).abs() < 1e-6, "got {}", r.x);
    }

    #[test]
    fn brent_uses_fewer_evals_than_fine_grid() {
        let r = brent_max(0.0, 100.0, 1e-6, |x| -(x - 42.0).powi(2));
        assert!((r.x - 42.0).abs() < 1e-3);
        assert!(r.evals < 100, "evals = {}", r.evals);
    }

    #[test]
    #[should_panic(expected = "invalid bracket")]
    fn brent_rejects_bad_bracket() {
        brent_max(1.0, 1.0, 1e-6, |x| x);
    }
}
