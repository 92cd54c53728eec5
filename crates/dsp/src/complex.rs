//! Double-precision complex numbers.
//!
//! A minimal, allocation-free complex type tailored to baseband DSP. It
//! implements the arithmetic operators, the usual transcendental helpers
//! (`exp`, `from_polar`, …) and the common std traits per C-COMMON-TRAITS.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// # Example
///
/// ```
/// use ofdm_dsp::Complex64;
///
/// let a = Complex64::new(1.0, 2.0);
/// let b = Complex64::from_polar(1.0, std::f64::consts::FRAC_PI_2);
/// assert!((b.re).abs() < 1e-15);
/// assert!(((a * b).re + 2.0).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Default, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity, `0 + 0i`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity, `1 + 0i`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit, `0 + 1i`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular coordinates.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a complex number from polar coordinates `r * e^{i theta}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Complex64::new(r * c, r * s)
    }

    /// Returns `e^{i theta}` — a unit phasor at angle `theta` radians.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::from_polar(1.0, theta)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex64::new(self.re, -self.im)
    }

    /// Squared magnitude `re² + im²` (cheaper than [`Complex64::abs`]).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude (Euclidean norm).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument (phase angle) in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex exponential `e^self`.
    #[inline]
    pub fn exp(self) -> Self {
        Self::from_polar(self.re.exp(), self.im)
    }

    /// Multiplicative inverse `1/self`.
    ///
    /// Returns non-finite components when `self` is zero, mirroring `f64`
    /// division semantics.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Complex64::new(self.re / d, -self.im / d)
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex64::new(self.re * k, self.im * k)
    }

    /// Returns `true` if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:+}i", self.re, self.im)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:+}i", self.re, self.im)
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Complex64::new(re, 0.0)
    }
}

impl From<(f64, f64)> for Complex64 {
    #[inline]
    fn from((re, im): (f64, f64)) -> Self {
        Complex64::new(re, im)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    // Division by reciprocal is the intended implementation, not a typo.
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Complex64::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Self {
        Complex64::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl MulAssign<f64> for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        *self = self.scale(rhs);
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Self {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Complex64> for Complex64 {
    fn sum<I: Iterator<Item = &'a Complex64>>(iter: I) -> Self {
        iter.fold(Complex64::ZERO, |a, b| a + *b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn close(a: Complex64, b: Complex64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn construction_and_constants() {
        assert_eq!(Complex64::ZERO + Complex64::ONE, Complex64::new(1.0, 0.0));
        assert_eq!(Complex64::I * Complex64::I, Complex64::new(-1.0, 0.0));
        assert_eq!(Complex64::from(3.5), Complex64::new(3.5, 0.0));
        assert_eq!(Complex64::from((1.0, 2.0)), Complex64::new(1.0, 2.0));
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex64::from_polar(2.0, PI / 3.0);
        assert!((z.abs() - 2.0).abs() < 1e-12);
        assert!((z.arg() - PI / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cis_is_unit_phasor() {
        for k in 0..16 {
            let theta = 2.0 * PI * k as f64 / 16.0;
            assert!((Complex64::cis(theta).abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn arithmetic() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(3.0, -4.0);
        assert!(close(a + b, Complex64::new(4.0, -2.0)));
        assert!(close(a - b, Complex64::new(-2.0, 6.0)));
        assert!(close(a * b, Complex64::new(11.0, 2.0)));
        assert!(close((a / b) * b, a));
        assert!(close(-a, Complex64::new(-1.0, -2.0)));
        assert!(close(a * 2.0, Complex64::new(2.0, 4.0)));
        assert!(close(2.0 * a, a * 2.0));
        assert!(close(a / 2.0, Complex64::new(0.5, 1.0)));
    }

    #[test]
    fn assign_ops() {
        let mut z = Complex64::new(1.0, 1.0);
        z += Complex64::ONE;
        z -= Complex64::I;
        z *= Complex64::new(0.0, 2.0);
        z /= Complex64::new(0.0, 2.0);
        z *= 3.0;
        assert!(close(z, Complex64::new(6.0, 0.0)));
    }

    #[test]
    fn conj_and_norm() {
        let z = Complex64::new(3.0, 4.0);
        assert_eq!(z.conj(), Complex64::new(3.0, -4.0));
        assert!((z.norm_sqr() - 25.0).abs() < 1e-12);
        assert!((z.abs() - 5.0).abs() < 1e-12);
        assert!(close(z * z.conj(), Complex64::new(25.0, 0.0)));
    }

    #[test]
    fn inv_is_reciprocal() {
        let z = Complex64::new(0.5, -1.5);
        assert!(close(z * z.inv(), Complex64::ONE));
    }

    #[test]
    fn exp_matches_euler() {
        let z = Complex64::new(0.0, PI);
        assert!(close(z.exp(), Complex64::new(-1.0, 0.0)));
        let w = Complex64::new(1.0, 0.0);
        assert!(close(w.exp(), Complex64::new(std::f64::consts::E, 0.0)));
    }

    #[test]
    fn sum_iterator() {
        let v = vec![Complex64::ONE; 5];
        let s: Complex64 = v.iter().sum();
        assert!(close(s, Complex64::new(5.0, 0.0)));
        let s2: Complex64 = v.into_iter().sum();
        assert!(close(s2, Complex64::new(5.0, 0.0)));
    }

    #[test]
    fn display_and_debug_nonempty() {
        let z = Complex64::new(1.0, -2.0);
        assert_eq!(format!("{z}"), "1-2i");
        assert!(!format!("{z:?}").is_empty());
    }

    #[test]
    fn finite_check() {
        assert!(Complex64::ONE.is_finite());
        assert!(!Complex64::new(f64::NAN, 0.0).is_finite());
        assert!(!Complex64::new(0.0, f64::INFINITY).is_finite());
    }
}
