//! Correlation measures.
//!
//! Figure 7 of the paper reports the Pearson correlation between example
//! similarity and example helpfulness across five datasets (weak, 0.04 to
//! 0.22), which motivates the two-stage selector. `fig07_correlation`
//! regenerates that figure with [`pearson`].

/// Pearson product-moment correlation coefficient of two equal-length
/// slices. Returns `None` if lengths differ, fewer than 2 points are
/// supplied, or either side has zero variance.
///
/// # Examples
///
/// ```
/// use ic_stats::pearson;
///
/// let x = [1.0, 2.0, 3.0];
/// let y = [2.0, 4.0, 6.0];
/// assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
/// ```
pub fn pearson(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&xi, &yi) in x.iter().zip(y) {
        let dx = xi - mx;
        let dy = yi - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx.sqrt() * syy.sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_positive_and_negative() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let up = [10.0, 20.0, 30.0, 40.0];
        let down = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &up).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &down).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn independent_data_is_near_zero() {
        // Deterministic pseudo-random pairs.
        let x: Vec<f64> = (0..2000).map(|i| ((i * 7919) % 104729) as f64).collect();
        let y: Vec<f64> = (0..2000).map(|i| ((i * 6007) % 99991) as f64).collect();
        let r = pearson(&x, &y).unwrap();
        assert!(r.abs() < 0.1, "expected weak correlation, got {r}");
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert_eq!(pearson(&[1.0], &[2.0]), None);
        assert_eq!(pearson(&[1.0, 2.0], &[3.0]), None);
        assert_eq!(pearson(&[1.0, 1.0], &[1.0, 2.0]), None);
    }

    #[test]
    fn bounded_in_unit_interval() {
        let x = [0.2, 0.5, 0.1, 0.9, 0.3, 0.8];
        let y = [1.2, 0.5, 2.1, 0.8, 1.3, 0.1];
        let r = pearson(&x, &y).unwrap();
        assert!((-1.0..=1.0).contains(&r));
    }
}
