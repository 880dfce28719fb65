//! Structural similarity index (SSIM), Wang et al. 2004 — the QoR metric of
//! the paper.
//!
//! Implemented with the standard parameters: an 11×11 Gaussian window with
//! σ = 1.5, K1 = 0.01, K2 = 0.03, dynamic range L = 255. The windowed
//! statistics are computed with separable Gaussian filtering over float
//! planes, so a full 384×256 comparison costs a few milliseconds.
//!
//! QoR evaluation compares many approximate outputs against one fixed
//! golden image, so the golden side's statistics are computed once: an
//! [`SsimReference`] holds the golden image with its filtered mean and
//! E\[b²\], and [`SsimReference::ssim`] filters only the three planes that
//! involve the compared image. The free [`ssim`] builds a reference for
//! its second argument and runs the same comparison: there is one SSIM
//! implementation.

use crate::image::GrayImage;
use std::cell::RefCell;

const K1: f64 = 0.01;
const K2: f64 = 0.03;
const L: f64 = 255.0;
const WINDOW_RADIUS: usize = 5;
const TAPS: usize = 2 * WINDOW_RADIUS + 1;

/// The 11-tap Gaussian window (σ = 1.5), normalized to sum 1.
fn gaussian_taps() -> [f64; TAPS] {
    let sigma = 1.5f64;
    let mut taps = [0.0; TAPS];
    let mut sum = 0.0;
    for (i, t) in taps.iter_mut().enumerate() {
        let d = i as f64 - WINDOW_RADIUS as f64;
        *t = (-d * d / (2.0 * sigma * sigma)).exp();
        sum += *t;
    }
    for t in taps.iter_mut() {
        *t /= sum;
    }
    taps
}

/// The replicated-edge window sum centred on column `x` of `row`.
fn clamped_row_sum(taps: &[f64; TAPS], row: &[f64], x: usize) -> f64 {
    let mut acc = 0.0;
    for (k, &t) in taps.iter().enumerate() {
        acc += t * row[(x + k).saturating_sub(WINDOW_RADIUS).min(row.len() - 1)];
    }
    acc
}

/// Separable Gaussian filter with replicated edges of the
/// `width`×`height` plane whose row `y` is written by `fill(y, row)`,
/// into `out`. `row` (one row) and `tmp` (one plane, the horizontal
/// pass) are working space.
///
/// Every output pixel is the ordered sum `0 + t₀·v₀ + t₁·v₁ + … + t₁₀·v₁₀`
/// over its edge-clamped window: the same f64 operations in the same
/// order as a per-pixel accumulator loop. The loops below run taps-outer
/// over whole rows, which only interleaves the sums of *different*
/// pixels, so the result is bit-identical to the per-pixel form while
/// the inner loops are clamp-free and vectorize. Only the first and last
/// [`WINDOW_RADIUS`] columns of the horizontal pass (a whole row when it
/// is narrower than the window) keep the per-pixel clamped loop; the
/// vertical pass clamps whole source rows, once per tap.
fn gauss_filter_into(
    width: usize,
    height: usize,
    taps: &[f64; TAPS],
    fill: impl Fn(usize, &mut [f64]),
    row: &mut [f64],
    tmp: &mut [f64],
    out: &mut [f64],
) {
    let r = WINDOW_RADIUS;
    for (y, trow) in tmp.chunks_exact_mut(width).enumerate() {
        fill(y, row);
        if width > 2 * r {
            let interior = &mut trow[r..width - r];
            interior.fill(0.0);
            for (k, &t) in taps.iter().enumerate() {
                for (o, &v) in interior.iter_mut().zip(&row[k..k + width - 2 * r]) {
                    *o += t * v;
                }
            }
            for x in (0..r).chain(width - r..width) {
                trow[x] = clamped_row_sum(taps, row, x);
            }
        } else {
            for (x, o) in trow.iter_mut().enumerate() {
                *o = clamped_row_sum(taps, row, x);
            }
        }
    }
    for (y, orow) in out.chunks_exact_mut(width).enumerate() {
        orow.fill(0.0);
        for (k, &t) in taps.iter().enumerate() {
            let yy = (y + k).saturating_sub(r).min(height - 1);
            for (o, &v) in orow.iter_mut().zip(&tmp[yy * width..(yy + 1) * width]) {
                *o += t * v;
            }
        }
    }
}

/// Row `y` of `img`.
fn pixels(img: &GrayImage, y: usize) -> &[u8] {
    &img.data()[y * img.width()..(y + 1) * img.width()]
}

/// Row source for [`gauss_filter_into`]: the pixels of `img`.
fn values(img: &GrayImage) -> impl Fn(usize, &mut [f64]) + '_ {
    move |y, row| {
        for (d, &p) in row.iter_mut().zip(pixels(img, y)) {
            *d = p as f64;
        }
    }
}

/// Row source for [`gauss_filter_into`]: the pixel-wise products of `p`
/// and `q` (the squares of `p` when both are the same image).
fn products<'i>(p: &'i GrayImage, q: &'i GrayImage) -> impl Fn(usize, &mut [f64]) + 'i {
    move |y, row| {
        for ((d, &x), &z) in row.iter_mut().zip(pixels(p, y)).zip(pixels(q, y)) {
            *d = x as f64 * z as f64;
        }
    }
}

/// Per-thread working space of [`SsimReference`], reused across calls
/// (each buffer is resized to the current image; its allocation only
/// grows).
#[derive(Default)]
struct Buffers {
    /// The filter's input row.
    row: Vec<f64>,
    /// Horizontal-pass output.
    tmp: Vec<f64>,
    /// Filtered a.
    mu_a: Vec<f64>,
    /// Filtered a².
    m_a2: Vec<f64>,
    /// Filtered a·b.
    m_ab: Vec<f64>,
}

thread_local! {
    static BUFFERS: RefCell<Buffers> = RefCell::new(Buffers::default());
}

/// The golden side of an SSIM comparison with its windowed statistics
/// precomputed: the image, its Gaussian-filtered mean μ and its filtered
/// E\[b²\].
///
/// Comparing against a reference filters three planes (a, a², a·b)
/// instead of the five of a two-image SSIM, and `reference.ssim(a)` is
/// bit-identical to [`ssim`]`(a, b)` for the image `b` the reference was
/// built from.
#[derive(Debug, Clone)]
pub struct SsimReference {
    image: GrayImage,
    mu: Vec<f64>,
    m2: Vec<f64>,
}

impl SsimReference {
    /// Precomputes the statistics of the golden image `b`.
    pub fn new(b: &GrayImage) -> SsimReference {
        let (w, h) = (b.width(), b.height());
        let n = w * h;
        let taps = gaussian_taps();
        let mut mu = vec![0.0; n];
        let mut m2 = vec![0.0; n];
        BUFFERS.with(|s| {
            let Buffers { row, tmp, .. } = &mut *s.borrow_mut();
            row.resize(w, 0.0);
            tmp.resize(n, 0.0);
            gauss_filter_into(w, h, &taps, values(b), row, tmp, &mut mu);
            gauss_filter_into(w, h, &taps, products(b, b), row, tmp, &mut m2);
        });
        SsimReference {
            image: b.clone(),
            mu,
            m2,
        }
    }

    /// Mean SSIM of `a` against the reference image.
    ///
    /// Returns a value in `(-1, 1]`; `1.0` iff `a` equals the reference.
    ///
    /// # Panics
    /// Panics if `a` and the reference have different dimensions.
    pub fn ssim(&self, a: &GrayImage) -> f64 {
        let b = &self.image;
        assert_eq!(a.width(), b.width(), "SSIM requires equal widths");
        assert_eq!(a.height(), b.height(), "SSIM requires equal heights");
        let (w, h) = (b.width(), b.height());
        let n = w * h;
        let taps = gaussian_taps();
        BUFFERS.with(|s| {
            let mut bufs = s.borrow_mut();
            let Buffers {
                row,
                tmp,
                mu_a,
                m_a2,
                m_ab,
            } = &mut *bufs;
            row.resize(w, 0.0);
            for plane in [&mut *tmp, &mut *mu_a, &mut *m_a2, &mut *m_ab] {
                plane.resize(n, 0.0);
            }
            gauss_filter_into(w, h, &taps, values(a), row, tmp, mu_a);
            gauss_filter_into(w, h, &taps, products(a, a), row, tmp, m_a2);
            gauss_filter_into(w, h, &taps, products(a, b), row, tmp, m_ab);

            let c1 = (K1 * L) * (K1 * L);
            let c2 = (K2 * L) * (K2 * L);
            let mut total = 0.0;
            for i in 0..n {
                let (ma, mb) = (mu_a[i], self.mu[i]);
                let va = (m_a2[i] - ma * ma).max(0.0);
                let vb = (self.m2[i] - mb * mb).max(0.0);
                let cov = m_ab[i] - ma * mb;
                let s = ((2.0 * ma * mb + c1) * (2.0 * cov + c2))
                    / ((ma * ma + mb * mb + c1) * (va + vb + c2));
                total += s;
            }
            total / n as f64
        })
    }
}

/// Mean SSIM between two images of identical dimensions, with `b` as the
/// reference side (see [`SsimReference`]).
///
/// Returns a value in `(-1, 1]`; `1.0` iff the images are identical.
///
/// # Panics
/// Panics if the images have different dimensions.
pub fn ssim(a: &GrayImage, b: &GrayImage) -> f64 {
    SsimReference::new(b).ssim(a)
}

/// Mean SSIM of a processed image suite against golden outputs:
/// `mean(ssim(approx[i], golden[i]))`.
///
/// # Panics
/// Panics if the slices have different lengths or are empty.
pub fn mean_ssim(approx: &[GrayImage], golden: &[GrayImage]) -> f64 {
    assert_eq!(approx.len(), golden.len());
    assert!(!approx.is_empty());
    approx
        .iter()
        .zip(golden.iter())
        .map(|(a, g)| ssim(a, g))
        .sum::<f64>()
        / approx.len() as f64
}

/// Tiny deterministic signed-noise helper for tests (kept out of the public
/// API surface).
#[doc(hidden)]
pub fn synthetic_test_noise(state: &mut u64, amount: i32) -> i32 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let r = (*state >> 33) as i32;
    (r % (2 * amount + 1)) - amount
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic;
    use proptest::prelude::*;

    /// The two-image formula as it stood before [`SsimReference`]:
    /// per-pixel clamped filter loops and five filtered planes per call.
    /// The bitwise oracle of the reference path.
    fn two_image_ssim_oracle(a: &GrayImage, b: &GrayImage) -> f64 {
        fn gauss_filter(plane: &[f64], width: usize, height: usize) -> Vec<f64> {
            let taps = gaussian_taps();
            let r = WINDOW_RADIUS as isize;
            let mut tmp = vec![0.0f64; width * height];
            for y in 0..height {
                let row = &plane[y * width..(y + 1) * width];
                for x in 0..width {
                    let mut acc = 0.0;
                    for (k, &t) in taps.iter().enumerate() {
                        let xx =
                            (x as isize + k as isize - r).clamp(0, width as isize - 1) as usize;
                        acc += t * row[xx];
                    }
                    tmp[y * width + x] = acc;
                }
            }
            let mut out = vec![0.0f64; width * height];
            for y in 0..height {
                for x in 0..width {
                    let mut acc = 0.0;
                    for (k, &t) in taps.iter().enumerate() {
                        let yy =
                            (y as isize + k as isize - r).clamp(0, height as isize - 1) as usize;
                        acc += t * tmp[yy * width + x];
                    }
                    out[y * width + x] = acc;
                }
            }
            out
        }
        let (w, h) = (a.width(), a.height());
        let n = w * h;
        let ap: Vec<f64> = a.data().iter().map(|&p| p as f64).collect();
        let bp: Vec<f64> = b.data().iter().map(|&p| p as f64).collect();
        let a2: Vec<f64> = ap.iter().map(|v| v * v).collect();
        let b2: Vec<f64> = bp.iter().map(|v| v * v).collect();
        let ab: Vec<f64> = ap.iter().zip(bp.iter()).map(|(x, y)| x * y).collect();
        let mu_a = gauss_filter(&ap, w, h);
        let mu_b = gauss_filter(&bp, w, h);
        let m_a2 = gauss_filter(&a2, w, h);
        let m_b2 = gauss_filter(&b2, w, h);
        let m_ab = gauss_filter(&ab, w, h);
        let c1 = (K1 * L) * (K1 * L);
        let c2 = (K2 * L) * (K2 * L);
        let mut total = 0.0;
        for i in 0..n {
            let (ma, mb) = (mu_a[i], mu_b[i]);
            let va = (m_a2[i] - ma * ma).max(0.0);
            let vb = (m_b2[i] - mb * mb).max(0.0);
            let cov = m_ab[i] - ma * mb;
            let s = ((2.0 * ma * mb + c1) * (2.0 * cov + c2))
                / ((ma * ma + mb * mb + c1) * (va + vb + c2));
            total += s;
        }
        total / n as f64
    }

    /// A `w`×`h` image: flat at `level` when `flat`, otherwise noise
    /// drawn from `seed`.
    fn test_image(w: usize, h: usize, flat: bool, level: u8, seed: u64) -> GrayImage {
        let mut st = seed;
        GrayImage::from_fn(w, h, |_, _| {
            if flat {
                level
            } else {
                (synthetic_test_noise(&mut st, 127) + 128) as u8
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]
        #[test]
        fn reference_ssim_is_bitwise_the_two_image_formula(
            (w, h) in prop_oneof![
                (1usize..=40, 1usize..=40),
                // border-only: no interior column or no interior row
                (1usize..=10, 1usize..=40),
                (1usize..=40, 1usize..=10),
                // the first widths/heights with an interior
                (11usize..=12, 11usize..=12),
                (11usize..=12, 1usize..=40),
            ],
            (flat_a, flat_b) in (any::<bool>(), any::<bool>()),
            (level_a, level_b) in (any::<u8>(), any::<u8>()),
            (seed_a, seed_b) in (any::<u64>(), any::<u64>()),
        ) {
            let a = test_image(w, h, flat_a, level_a, seed_a);
            let b = test_image(w, h, flat_b, level_b, seed_b);
            let reference = SsimReference::new(&b);
            let want = two_image_ssim_oracle(&a, &b).to_bits();
            prop_assert_eq!(reference.ssim(&a).to_bits(), want, "{}x{}", w, h);
            prop_assert_eq!(ssim(&a, &b).to_bits(), want, "{}x{}", w, h);
            // the reference is reusable: a second image, same bits as the oracle
            prop_assert_eq!(
                reference.ssim(&b).to_bits(),
                two_image_ssim_oracle(&b, &b).to_bits()
            );
        }
    }

    #[test]
    fn reference_ssim_matches_the_oracle_at_workload_sizes() {
        for (w, h) in [(96, 64), (48, 32), (64, 48)] {
            let golden = synthetic::natural_proxy(w, h, 3);
            let reference = SsimReference::new(&golden);
            for seed in 0..4 {
                let other = synthetic::value_noise(w, h, seed, 3);
                assert_eq!(
                    reference.ssim(&other).to_bits(),
                    two_image_ssim_oracle(&other, &golden).to_bits(),
                    "{w}x{h} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn identical_images_score_one() {
        let img = synthetic::natural_proxy(64, 48, 5);
        assert!((ssim(&img, &img) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ssim_is_symmetric() {
        let a = synthetic::natural_proxy(64, 48, 5);
        let b = synthetic::value_noise(64, 48, 6, 4);
        assert!((ssim(&a, &b) - ssim(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn small_noise_scores_high_heavy_noise_scores_lower() {
        let img = synthetic::natural_proxy(96, 64, 7);
        let perturb = |amount: i32, seed: u64| {
            let mut st = seed;
            GrayImage::from_fn(img.width(), img.height(), |x, y| {
                let r = synthetic_test_noise(&mut st, amount);
                (img.get(x, y) as i32 + r).clamp(0, 255) as u8
            })
        };
        let light = perturb(2, 1);
        let heavy = perturb(60, 2);
        let s_light = ssim(&img, &light);
        let s_heavy = ssim(&img, &heavy);
        assert!(s_light > 0.95, "light noise: {s_light}");
        assert!(s_heavy < s_light, "heavy {s_heavy} !< light {s_light}");
        assert!(s_heavy < 0.8, "heavy noise should hurt: {s_heavy}");
    }

    #[test]
    fn constant_shift_scores_below_one() {
        let img = synthetic::natural_proxy(64, 48, 8);
        let shifted = GrayImage::from_fn(img.width(), img.height(), |x, y| {
            img.get(x, y).saturating_add(40)
        });
        let s = ssim(&img, &shifted);
        assert!(s < 0.999 && s > 0.0);
    }

    #[test]
    fn mean_ssim_averages() {
        let a = synthetic::natural_proxy(32, 24, 1);
        let b = synthetic::value_noise(32, 24, 2, 3);
        let m = mean_ssim(&[a.clone(), a.clone()], &[a.clone(), b.clone()]);
        let expected = (1.0 + ssim(&a, &b)) / 2.0;
        assert!((m - expected).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal widths")]
    fn dimension_mismatch_panics() {
        let a = GrayImage::new(4, 4);
        let b = GrayImage::new(5, 4);
        let _ = ssim(&a, &b);
    }
}
