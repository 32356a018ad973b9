//! The Box–Muller kernel behind [`Embedding::gaussian`]: a chunk of
//! Gaussian components estimated a lane at a time, each one either
//! certified to carry the bits of the per-component libm expression or
//! recomputed with it.
//!
//! [`Embedding::gaussian`]: crate::Embedding::gaussian
//!
//! # The contract
//!
//! Component `i` of `Embedding::gaussian(dim, σ, rng)` is [`exact`]:
//!
//! ```text
//! u1 = rng.random::<f64>().max(f64::MIN_POSITIVE)   // draw 2i
//! u2 = rng.random::<f64>()                          // draw 2i + 1
//! E  = (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos() * σ     // f64, host libm
//! component = E as f32
//! ```
//!
//! That was the whole implementation until the libm `ln` and `cos`
//! (≈24 ns a component together) became most of what set-up spends:
//! two 64-component vectors per generated request. They are scalar
//! calls, so nothing around them could use a vector register.
//!
//! # Why an estimate can give the exact bits
//!
//! The result is an `f32` cast of an `f64`, and rounding is monotone. For
//! an estimate `est` and a margin `M` with `|E − est| ≤ M`, we have
//! `fl(est − M) ≤ E ≤ fl(est + M)`, because `E` is itself an `f64` and
//! `fl` is monotone. Casting keeps the order. So when both ends of the
//! interval cast to the same `f32` **bits**, `E` casts to those bits too.
//! The check compares `to_bits`, not `==`: `−0.0 == +0.0`, and an interval
//! around a zero (σ = 0) has ends of both signs. A NaN end never
//! certifies. Every other component (≈10⁻⁵ of them) is recomputed with
//! [`exact`]. So the bytes are the parent's on every host, and they still
//! come from the host's own libm.
//!
//! # The estimate
//!
//! Branch-free `f64` arithmetic, so a chunk's loop vectorizes:
//!
//! - **`ln u1`** ([`ln`]): `u1 = 2^e · m` with `m ∈ [√½, √2)`. Offsetting
//!   the bit pattern by `√½`'s moves the exponent boundary from 1 to √2,
//!   so `e` and `m` are integer operations on the bits. Then
//!   `ln m = 2 atanh s` with `s = (m − 1)/(m + 1)`, `|s| ≤ 0.1716`, by
//!   the series `2s Σ s^{2j}/(2j + 1)` through `s^19`. The result is
//!   `e · ln 2 + ln m`.
//! - **`cos x`** ([`cos`]), `x = fl(τ·u2) ∈ [0, 2π)`, the same `f64` the
//!   exact expression passes to libm: `k = round(x · 2/π)` by the
//!   1.5·2⁵² trick (the sum's last mantissa bits are `k`), then
//!   `r = (x − k·P1) − k·P2` with two Cody–Waite constants, `P1` (π/2 to
//!   33 bits, so `k·P1` is exact) and `P2` (the next 53), `|r| ≤ 0.786`.
//!   Then Taylor `cos r` through `r^16` and `sin r` through `r^17`, and
//!   the quadrant select `cos x = (cos r, −sin r, −cos r, sin r)[k mod 4]`
//!   as bit masks.
//! - `est = (√(−2·ln u1) · cos x) · σ`, in the exact expression's order.
//!
//! # The margin
//!
//! `u = 2⁻⁵³`, `g = √(−2 ln u1) · cos x` (real numbers), `S'` the
//! kernel's square root. The one assumption is that the host libm's
//! `ln` and `cos` are within 1 ulp, a relative error of `2u`. glibc,
//! musl, Apple's libm and the MSVC CRT all document better.
//!
//! 1. **Exact expression.** `√` halves `ln`'s error and adds `u`, `cos`
//!    adds `2u`, and the two products add `u` each, so
//!    `|E − gσ| ≤ 6u·|gσ|`.
//! 2. **Kernel `ln`.** `m − 1` is exact (Sterbenz). `m + 1` and the
//!    division put `2u` on `s`, and `s²` puts `5u` on `w`, which moves
//!    the series by under `0.1u`: every term is positive and the
//!    `w`-slope is below 1 %. Horner over ten positive coefficients adds
//!    at most `19u`, the product with `s` adds `u`, and the truncation
//!    (`s^21/21` against `s`) is below `0.3u`. That is `23u` on `ln m`.
//!    `e · ln 2` carries `1.3u`. For `e ≠ 0`, `|e ln 2| + |ln m|` is at
//!    most three times `|ln u1|`, since `|ln m| ≤ ½ ln 2`. With the
//!    final add that is `70u` on `ln u1`, and `36u` on `S'`.
//! 3. **Kernel `cos`.** `x − k·P1` is exact (Sterbenz, `k ≥ 1`).
//!    `π/2 − P1 − P2` is 3.6·10⁻²⁷, and `k ≤ 4`. With the rounding of
//!    `k·P2` this makes `r` off by at most `u·|r| + 2⁻⁸⁴`. Through the
//!    polynomials that is `1.2u` relative plus `2⁻⁸⁴` absolute. Horner
//!    over the alternating series costs `16u · cosh 0.8 / cos 0.8 ≤ 31u`
//!    for `cos` and `16u · (sinh 0.8/0.8) / (sin 0.8/0.8) + u ≤ 21u` for
//!    `sin`. Rounding `r²` adds under `0.5u`, and the truncations are
//!    below `0.1u`. So `cos x` is within `33u` relative plus `2⁻⁸⁴`
//!    absolute.
//! 4. **Together.** The two products add `2u`, so
//!    `|est − gσ| ≤ 71u·|gσ| + 2⁻⁸⁴·√(−2 ln u1)·|σ|`. With step 1 and
//!    `|gσ|`, `√(−2 ln u1)` traded for `|est|`, `S'` (second-order
//!    terms), this gives `|E − est| ≤ 78u·|est| + 2^-83.9·|S'σ|`.
//!
//! `M = 2⁻⁴⁰·|est| + 2⁻⁸⁰·|S'σ| + MIN_POSITIVE` covers that a hundred
//! times over in the first term and fourteen times over in the second.
//! That slack also absorbs `M`'s own three roundings and a libm many
//! ulp worse than documented. `MIN_POSITIVE` covers subnormal products,
//! where relative bounds stop holding, and makes σ = 0 fall back
//! always: there `E` is a zero whose sign is `cos x`'s, and the interval
//! `[−M, M]` around it casts to ±0. The absolute term only matters near
//! the zeros of `cos`, which no `f64` in `[0, 2π)` comes within 6·10⁻¹⁷
//! of. The oracle tests measure the slack. The largest `|est − E| / M`
//! is 8·10⁻⁴ over a million random pairs at four σ, and 4·10⁻³ at the
//! adversarial inputs, against a test bound of 10⁻². The fallback rate
//! is about `2·2⁻⁴⁰ / 2⁻²⁴ ≈ 3·10⁻⁵`. The tests measured 2.3·10⁻⁵ over
//! 8.4 M components, well under their 10⁻³ bound.
//!
//! # Why the body is compiled twice
//!
//! This follows `ic_vecindex`'s lane scan. One body is instantiated as
//! compiled for the build's baseline (SSE2 on x86-64: two lanes) and
//! under `#[target_feature(enable = "avx2,fma")]` (four lanes). It is
//! picked per call by `is_x86_feature_detected!`, a cached flag; the call
//! is the crate's one `unsafe`. Rust never contracts `a * b + c` into a
//! fused multiply-add, so both instantiations compute the same estimate,
//! and the certificate makes the output the exact expression's either
//! way.

use std::f64::consts::{FRAC_1_SQRT_2, FRAC_2_PI, LN_2, TAU};

use rand::{Rng, RngExt};

/// Components drawn, estimated and emitted per pass: the draws of one
/// chunk come first (in the exact expression's order), then its
/// vectorized estimate.
const CHUNK: usize = 64;

/// `2^e` for a normal exponent.
const fn two_to(e: i32) -> f64 {
    f64::from_bits(((1023 + e) as u64) << 52)
}

/// Relative part of the margin: 2⁻⁴⁰ against a bound of ≈2^-46.7.
const REL: f64 = two_to(-40);

/// Absolute part of the margin, per unit of `|√(−2 ln u1) · σ|`: 2⁻⁸⁰
/// against a bound of 2^-83.9.
const ABS: f64 = two_to(-80);

/// Bits of `√½`, the lower edge of the mantissa range `[√½, √2)`.
const SQRT_HALF_BITS: u64 = FRAC_1_SQRT_2.to_bits();

/// Low 52 bits of an `f64`: the stored mantissa.
const MANTISSA: u64 = (1 << 52) - 1;

/// `2^52`: OR-ing a small integer `n` into its bits gives `2^52 + n`.
const TWO_52: f64 = two_to(52);

/// `1.5 · 2^52`: adding it to `|y| < 2^51` rounds `y` to the nearest
/// integer, which the sum's low mantissa bits then hold.
const ROUND_MAGIC: f64 = 1.5 * two_to(52);

/// π/2 to 33 bits (fdlibm's `pio2_1`), so `k · P1` is exact for `k ≤ 4`.
const PIO2_HI: f64 = f64::from_bits(0x3FF9_21FB_5440_0000);

/// `π/2 − PIO2_HI` to 53 bits (fdlibm's `pio2_1t`); the pair is within
/// 3.6·10⁻²⁷ of π/2.
const PIO2_LO: f64 = f64::from_bits(0x3DD0_B461_1A62_6331);

/// `atanh(s)/s = Σ w^j / (2j + 1)`, `w = s²`, through `s^19`.
const ATANH: [f64; 10] = [
    1.0,
    1.0 / 3.0,
    1.0 / 5.0,
    1.0 / 7.0,
    1.0 / 9.0,
    1.0 / 11.0,
    1.0 / 13.0,
    1.0 / 15.0,
    1.0 / 17.0,
    1.0 / 19.0,
];

/// `cos r = Σ (−1)^j w^j / (2j)!`, `w = r²`, through `r^16`.
const COS: [f64; 9] = [
    1.0,
    -1.0 / 2.0,
    1.0 / 24.0,
    -1.0 / 720.0,
    1.0 / 40_320.0,
    -1.0 / 3_628_800.0,
    1.0 / 479_001_600.0,
    -1.0 / 87_178_291_200.0,
    1.0 / 20_922_789_888_000.0,
];

/// `sin r / r = Σ (−1)^j w^j / (2j + 1)!`, `w = r²`, through `r^17`.
const SIN: [f64; 9] = [
    1.0,
    -1.0 / 6.0,
    1.0 / 120.0,
    -1.0 / 5_040.0,
    1.0 / 362_880.0,
    -1.0 / 39_916_800.0,
    1.0 / 6_227_020_800.0,
    -1.0 / 1_307_674_368_000.0,
    1.0 / 355_687_428_096_000.0,
];

/// Fills `out` with Gaussian components of standard deviation `sigma`,
/// drawing from `rng` exactly as the per-component [`exact`] loop does,
/// and returns how many components fell back to [`exact`].
pub(crate) fn fill(out: &mut [f32], sigma: f64, rng: &mut impl Rng) -> usize {
    fill_with(out, sigma, rng, emit)
}

/// [`fill`] with the chunk kernel as a parameter, so the tests can run
/// each instantiation through the real draw loop.
fn fill_with(
    out: &mut [f32],
    sigma: f64,
    rng: &mut impl Rng,
    kernel: impl Fn(&mut [f32], &[f64], &[f64], f64) -> usize,
) -> usize {
    let mut u1 = [0.0; CHUNK];
    let mut u2 = [0.0; CHUNK];
    let mut fallbacks = 0;
    for chunk in out.chunks_mut(CHUNK) {
        let n = chunk.len();
        for (a, b) in u1[..n].iter_mut().zip(&mut u2[..n]) {
            *a = rng.random::<f64>().max(f64::MIN_POSITIVE);
            *b = rng.random();
        }
        fallbacks += kernel(chunk, &u1[..n], &u2[..n], sigma);
    }
    fallbacks
}

/// The chunk kernel as the host runs it fastest: four lanes where the
/// CPU has AVX2 and FMA, the build's baseline everywhere else.
fn emit(out: &mut [f32], u1: &[f64], u2: &[f64], sigma: f64) -> usize {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: `emit_avx2` is safe code whose only requirement is that
        // the CPU executes AVX2 and FMA, which was just detected.
        return unsafe { emit_avx2(out, u1, u2, sigma) };
    }
    emit_body(out, u1, u2, sigma)
}

/// [`emit_body`] compiled with AVX2 and FMA on.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn emit_avx2(out: &mut [f32], u1: &[f64], u2: &[f64], sigma: f64) -> usize {
    emit_body(out, u1, u2, sigma)
}

/// Estimates every component of the chunk, then keeps each one whose
/// margin certifies it and recomputes the rest with [`exact`]. Returns
/// the number recomputed.
#[inline(always)]
fn emit_body(out: &mut [f32], u1: &[f64], u2: &[f64], sigma: f64) -> usize {
    let mut upper = [0.0f32; CHUNK];
    for (((lo, hi), &a), &b) in out.iter_mut().zip(&mut upper).zip(u1).zip(u2) {
        let (est, margin) = estimate(a, b, sigma);
        *lo = (est - margin) as f32;
        *hi = (est + margin) as f32;
    }
    let mut fallbacks = 0;
    for (i, (lo, &hi)) in out.iter_mut().zip(&upper).enumerate() {
        if !certified(*lo, hi) {
            *lo = exact(u1[i], u2[i], sigma);
            fallbacks += 1;
        }
    }
    fallbacks
}

/// Whether an interval whose ends cast to `lo` and `hi` pins the cast of
/// every `f64` inside it: the same bits (so not `−0.0` against `+0.0`),
/// and not a NaN.
#[inline(always)]
fn certified(lo: f32, hi: f32) -> bool {
    lo.to_bits() == hi.to_bits() && !lo.is_nan()
}

/// The per-component expression the kernel reproduces, evaluated with
/// the host's libm: the fallback, and the definition of the output.
#[inline(never)]
fn exact(u1: f64, u2: f64, sigma: f64) -> f32 {
    let z = (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos();
    (z * sigma) as f32
}

/// `(est, M)`: the estimate of [`exact`]'s `f64` before the cast, and a
/// margin with `|E − est| ≤ M` (module docs, "The margin"). `u1` must be
/// a normal number in `(0, 1)`, and `u2` must lie in `[0, 1)`.
#[inline(always)]
fn estimate(u1: f64, u2: f64, sigma: f64) -> (f64, f64) {
    let s = (-2.0 * ln(u1)).sqrt();
    let est = s * cos(TAU * u2) * sigma;
    let margin = REL * est.abs() + ABS * (s * sigma).abs() + f64::MIN_POSITIVE;
    (est, margin)
}

/// `ln u` for a normal `u` in `(0, 1)`, to within `70u` relative.
#[inline(always)]
fn ln(u: f64) -> f64 {
    // `t = bits(u) − bits(√½) + (1024 << 52)`: the exponent field is then
    // `e + 1024 > 0` with `u = 2^e · m`, `m ∈ [√½, √2)`, and the low 52
    // bits plus `bits(√½)` are `bits(m)`.
    let t = u
        .to_bits()
        .wrapping_sub(SQRT_HALF_BITS)
        .wrapping_add(1024 << 52);
    let m = f64::from_bits((t & MANTISSA) + SQRT_HALF_BITS);
    let e = f64::from_bits(TWO_52.to_bits() | (t >> 52)) - (TWO_52 + 1024.0);
    let s = (m - 1.0) / (m + 1.0);
    e * LN_2 + 2.0 * (s * horner(&ATANH, s * s))
}

/// `cos x` for `x ∈ [0, 2π)`, to within `33u` relative plus `2⁻⁸⁴`.
#[inline(always)]
fn cos(x: f64) -> f64 {
    let shifted = x * FRAC_2_PI + ROUND_MAGIC;
    let k = shifted - ROUND_MAGIC;
    let quadrant = shifted.to_bits() & 3;
    let r = (x - k * PIO2_HI) - k * PIO2_LO;
    let w = r * r;
    let c = horner(&COS, w);
    let s = r * horner(&SIN, w);
    // cos(r + qπ/2): cos r for even q, sin r for odd q, negated for q = 1, 2.
    let odd = (quadrant & 1).wrapping_neg();
    let picked = (c.to_bits() & !odd) | (s.to_bits() & odd);
    let negate = ((quadrant + 1) & 2) << 62;
    f64::from_bits(picked ^ negate)
}

/// `Σ coeffs[j] · w^j` by Horner's rule.
#[inline(always)]
fn horner<const N: usize>(coeffs: &[f64; N], w: f64) -> f64 {
    coeffs[..N - 1]
        .iter()
        .rev()
        .fold(coeffs[N - 1], |acc, &c| acc * w + c)
}

#[cfg(test)]
mod tests {
    //! Oracle tests: the parent's per-component libm loop, written out
    //! here, against the kernel.
    //!
    //! Mutations that fail them (each was run):
    //! - emit `lo` without the fallback (`emit_body` keeps `lo` where it
    //!   should call `exact`): `gaussian_matches_the_libm_loop` and
    //!   `the_margin_holds_at_the_edges_of_both_reductions` see wrong
    //!   bits (so does `ic-workloads`' `generation_digest`);
    //! - `lo == hi` instead of `certified`'s `to_bits`: the σ = 0 rows of
    //!   the same two tests get `−0.0` where the loop gives `+0.0`;
    //! - `COS` cut off after `r⁸`: all three tests that compare with libm
    //!   fail (and `generation_digest`).
    use super::*;
    use ic_stats::rng::rng_from_seed;
    use rand::rngs::StdRng;

    /// The parent's `Embedding::gaussian` body.
    fn libm_loop(dim: usize, sigma: f64, rng: &mut impl Rng) -> Vec<f32> {
        (0..dim)
            .map(|_| {
                let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
                let u2: f64 = rng.random();
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (z * sigma) as f32
            })
            .collect()
    }

    /// `E`, the exact expression's `f64` before the cast.
    fn exact_f64(u1: f64, u2: f64, sigma: f64) -> f64 {
        (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos() * sigma
    }

    type Kernel = fn(&mut [f32], &[f64], &[f64], f64) -> usize;

    /// Every instantiation the host can run, by name: the portable body
    /// always, the AVX2 + FMA one where the CPU has both.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut out: Vec<(&'static str, Kernel)> = vec![("portable", emit_body)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: the host executes AVX2 and FMA, checked above.
            out.push(("avx2", |o, a, b, s| unsafe { emit_avx2(o, a, b, s) }));
        } else {
            println!("avx2/fma not detected: only the portable body is compared");
        }
        out
    }

    const SIGMAS: [f64; 5] = [0.0, 0.025, 0.0475, 1.0, 1.3];

    #[test]
    fn gaussian_matches_the_libm_loop() {
        // ≈10.5 M components per instantiation, over every dimension and
        // σ: the same bits and the same RNG state after each vector. σ = 0
        // must fall back on every component (its interval straddles ±0);
        // the others at most 10⁻³ of the time.
        const DIMS: [usize; 7] = [1, 5, 16, 33, 64, 65, 10_000];
        const PER_CELL: usize = 300_000;
        for (name, kernel) in kernels() {
            let mut compared = 0usize;
            for (s, &sigma) in SIGMAS.iter().enumerate() {
                let (mut drawn, mut fallbacks) = (0usize, 0usize);
                for (d, &dim) in DIMS.iter().enumerate() {
                    let mut rng: StdRng = rng_from_seed((s * 100 + d) as u64);
                    let mut oracle = rng.clone();
                    let mut out = vec![0.0f32; dim];
                    for _ in 0..PER_CELL.div_ceil(dim) {
                        fallbacks += fill_with(&mut out, sigma, &mut rng, kernel);
                        let want = libm_loop(dim, sigma, &mut oracle);
                        for (j, (g, w)) in out.iter().zip(&want).enumerate() {
                            assert_eq!(
                                g.to_bits(),
                                w.to_bits(),
                                "{name} dim={dim} σ={sigma} component {j}: {g} vs {w}"
                            );
                        }
                        assert_eq!(rng.next_u64(), oracle.next_u64(), "{name} dim={dim}");
                        drawn += dim;
                    }
                }
                compared += drawn;
                if sigma == 0.0 {
                    assert_eq!(fallbacks, drawn, "{name}: σ = 0 must always fall back");
                } else {
                    let rate = fallbacks as f64 / drawn as f64;
                    println!("{name} σ={sigma}: {fallbacks} fallbacks in {drawn} components");
                    assert!(rate <= 1e-3, "{name} σ={sigma}: fallback rate {rate}");
                }
            }
            assert!(compared >= 10_000_000, "{name}: {compared} components");
        }
    }

    /// The largest `|est − E| / M` over `(u1, u2)` pairs at every σ > 0.
    fn worst_slack(pairs: impl Iterator<Item = (f64, f64)> + Clone) -> f64 {
        let mut worst = 0.0f64;
        for sigma in SIGMAS.into_iter().filter(|&s| s > 0.0) {
            for (u1, u2) in pairs.clone() {
                let (est, margin) = estimate(u1, u2, sigma);
                let e = exact_f64(u1, u2, sigma);
                worst = worst.max((est - e).abs() / margin);
            }
        }
        worst
    }

    #[test]
    fn the_margin_has_a_hundredfold_slack_on_random_draws() {
        let mut rng = rng_from_seed(77);
        let pairs: Vec<(f64, f64)> = (0..1_000_000)
            .map(|_| (rng.random::<f64>().max(f64::MIN_POSITIVE), rng.random()))
            .collect();
        let worst = worst_slack(pairs.iter().copied());
        println!("random draws: max |est − E| / M = {worst:e}");
        assert!(worst <= 0.01, "max |est − E| / M = {worst}");
    }

    /// `n` doubles either side of `x`, and `x`.
    fn around(x: f64, n: u64) -> impl Iterator<Item = f64> + Clone {
        let b = x.to_bits();
        (b - n..=b + n).map(f64::from_bits)
    }

    #[test]
    fn the_margin_holds_at_the_edges_of_both_reductions() {
        // u1 at the bottom of the draw range, the clamp, both sides of the
        // mantissa split at 1/√2, the exponent step at 0.5, and the top.
        // u2 at every eighth (k/4: quadrant edges of `cos x`, and the
        // zeros of cos at 1/4 and 3/4; odd k/8: where `round(x·2/π)`
        // switches), a few ulp either side, plus 0 and 1 − 2⁻⁵³.
        let eps = two_to(-53);
        let u1s: Vec<f64> = [eps, f64::MIN_POSITIVE, 1.0 - eps]
            .into_iter()
            .chain(around(FRAC_1_SQRT_2, 3))
            .chain(around(0.5, 3))
            .collect();
        let u2s: Vec<f64> = (0..=8)
            .flat_map(|k| (-4..=4).map(move |j| f64::from(k) / 8.0 + f64::from(j) * eps))
            .chain((1..8).flat_map(|k| around(f64::from(k) / 8.0, 2)))
            .filter(|u2| (0.0..1.0).contains(u2))
            .collect();
        let pairs = u1s.iter().flat_map(|&a| u2s.iter().map(move |&b| (a, b)));
        let worst = worst_slack(pairs.clone());
        println!("edges: max |est − E| / M = {worst:e}");
        assert!(worst <= 0.01, "max |est − E| / M = {worst}");
        // Through every instantiation: certified components carry the
        // exact bits and the rest fall back to them.
        let (a, b): (Vec<f64>, Vec<f64>) = pairs.unzip();
        for (name, kernel) in kernels() {
            for sigma in SIGMAS {
                for (a, b) in a.chunks(CHUNK).zip(b.chunks(CHUNK)) {
                    let mut out = vec![0.0f32; a.len()];
                    kernel(&mut out, a, b, sigma);
                    for ((&g, &u1), &u2) in out.iter().zip(a).zip(b) {
                        let want = exact(u1, u2, sigma);
                        assert_eq!(
                            g.to_bits(),
                            want.to_bits(),
                            "{name} u1={u1} u2={u2} σ={sigma}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn the_constants_are_what_the_docs_say() {
        assert_eq!(SQRT_HALF_BITS, 0x3FE6_A09E_667F_3BCD);
        assert_eq!(
            PIO2_HI.to_bits() & ((1 << 20) - 1),
            0,
            "k · P1 must be exact"
        );
        assert_eq!(PIO2_HI + PIO2_LO, std::f64::consts::FRAC_PI_2);
        assert_eq!(REL, 1.0 / (1u64 << 40) as f64);
        assert_eq!(ROUND_MAGIC, 6_755_399_441_055_744.0);
    }
}
