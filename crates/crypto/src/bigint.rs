//! Arbitrary-precision unsigned integers.
//!
//! A little-endian `Vec<u64>` limb representation with the operations
//! Paillier needs: schoolbook multiplication, word-level long division
//! (Knuth's Algorithm D), binary extended GCD (modular inverses),
//! modular exponentiation and Miller–Rabin primality testing.
//!
//! Modular exponentiation runs in Montgomery form when the modulus is
//! odd, which every Paillier modulus is (`n²` and the prime candidates):
//! each step is a CIOS Montgomery product that reduces with one
//! multiply-add pass per limb instead of a division. Even moduli fall
//! back to square-and-multiply over [`BigUint::mul_mod`]. Schoolbook
//! arithmetic is deliberate — the workloads use 512–1024-bit moduli,
//! below the sizes where Karatsuba pays off.

use crate::{CryptoError, Result};
use rand::Rng;
use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer (little-endian u64 limbs,
/// no trailing zero limbs — the canonical form all ops maintain).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// Zero.
    pub fn zero() -> Self {
        Self { limbs: Vec::new() }
    }

    /// One.
    pub fn one() -> Self {
        Self::from_u64(1)
    }

    /// From a machine word.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            Self { limbs: vec![v] }
        }
    }

    /// From a u128.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut out = Self {
            limbs: vec![lo, hi],
        };
        out.normalize();
        out
    }

    /// From little-endian limbs (normalized).
    pub fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut out = Self { limbs };
        out.normalize();
        out
    }

    /// The value as u64 if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// The value as u128 if it fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some((self.limbs[1] as u128) << 64 | self.limbs[0] as u128),
            _ => None,
        }
    }

    /// `true` iff zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// `true` iff one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// `true` iff even.
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits.
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => 64 * (self.limbs.len() - 1) + (64 - top.leading_zeros() as usize),
        }
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Comparison.
    pub fn cmp_big(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// `self + other`.
    pub fn add(&self, other: &Self) -> Self {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &a) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry > 0 {
            out.push(carry);
        }
        Self::from_limbs(out)
    }

    /// `self - other`; `None` when the result would be negative.
    pub fn checked_sub(&self, other: &Self) -> Option<Self> {
        if self.cmp_big(other) == Ordering::Less {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = u64::from(b1) + u64::from(b2);
        }
        debug_assert_eq!(borrow, 0);
        Some(Self::from_limbs(out))
    }

    /// `self * other` (schoolbook).
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + a as u128 * b as u128 + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        Self::from_limbs(out)
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> Self {
        if self.is_zero() {
            return Self::zero();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; self.limbs.len() + limb_shift + 1];
        for (i, &l) in self.limbs.iter().enumerate() {
            out[i + limb_shift] |= if bit_shift == 0 { l } else { l << bit_shift };
            if bit_shift > 0 {
                out[i + limb_shift + 1] |= l >> (64 - bit_shift);
            }
        }
        Self::from_limbs(out)
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: usize) -> Self {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return Self::zero();
        }
        let bit_shift = bits % 64;
        let mut out = Vec::with_capacity(self.limbs.len() - limb_shift);
        for i in limb_shift..self.limbs.len() {
            let mut l = self.limbs[i] >> bit_shift;
            if bit_shift > 0 && i + 1 < self.limbs.len() {
                l |= self.limbs[i + 1] << (64 - bit_shift);
            }
            out.push(l);
        }
        Self::from_limbs(out)
    }

    /// Bit `i` (little-endian).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        self.limbs
            .get(limb)
            .is_some_and(|l| (l >> (i % 64)) & 1 == 1)
    }

    /// `(self / divisor, self % divisor)` via word-level long division.
    ///
    /// A one-limb divisor takes a single pass of 128-by-64-bit divisions.
    /// Longer divisors use Knuth's Algorithm D (TAOCP vol. 2, §4.3.1):
    /// both operands are shifted so the divisor's top bit is set, each
    /// quotient limb is estimated from the top two limbs of the running
    /// remainder (the estimate is then at most one too large after the
    /// second-limb correction), the estimate times the divisor is
    /// subtracted, and the divisor is added back in the rare case the
    /// subtraction went negative.
    ///
    /// # Errors
    /// [`CryptoError::DivisionByZero`].
    pub fn div_rem(&self, divisor: &Self) -> Result<(Self, Self)> {
        if divisor.is_zero() {
            return Err(CryptoError::DivisionByZero);
        }
        match self.cmp_big(divisor) {
            Ordering::Less => return Ok((Self::zero(), self.clone())),
            Ordering::Equal => return Ok((Self::one(), Self::zero())),
            Ordering::Greater => {}
        }
        // Fast path: single-limb divisor.
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0] as u128;
            let mut rem = 0u128;
            let mut q = vec![0u64; self.limbs.len()];
            for i in (0..self.limbs.len()).rev() {
                let cur = (rem << 64) | self.limbs[i] as u128;
                q[i] = (cur / d) as u64;
                rem = cur % d;
            }
            return Ok((Self::from_limbs(q), Self::from_u64(rem as u64)));
        }
        let (q, r) = knuth_div(&self.limbs, &divisor.limbs);
        Ok((Self::from_limbs(q), Self::from_limbs(r)))
    }

    /// `self mod modulus`.
    ///
    /// # Errors
    /// [`CryptoError::DivisionByZero`].
    pub fn rem(&self, modulus: &Self) -> Result<Self> {
        Ok(self.div_rem(modulus)?.1)
    }

    /// `(self * other) mod modulus`.
    ///
    /// # Errors
    /// [`CryptoError::DivisionByZero`].
    pub fn mul_mod(&self, other: &Self, modulus: &Self) -> Result<Self> {
        self.mul(other).rem(modulus)
    }

    /// `self^exponent mod modulus` (square-and-multiply; in Montgomery
    /// form when the modulus is odd, see the module docs).
    ///
    /// # Errors
    /// [`CryptoError::DivisionByZero`] for a zero modulus.
    pub fn mod_pow(&self, exponent: &Self, modulus: &Self) -> Result<Self> {
        if modulus.is_zero() {
            return Err(CryptoError::DivisionByZero);
        }
        if modulus.is_one() {
            return Ok(Self::zero());
        }
        if modulus.is_even() {
            self.pow_by_division(exponent, modulus)
        } else {
            mont_pow(self, exponent, modulus)
        }
    }

    /// `self^exponent mod modulus` for `modulus > 1` by right-to-left
    /// square-and-multiply over [`Self::mul_mod`]: the path for even
    /// moduli, which have no Montgomery form.
    fn pow_by_division(&self, exponent: &Self, modulus: &Self) -> Result<Self> {
        let mut base = self.rem(modulus)?;
        let mut result = Self::one();
        let nbits = exponent.bits();
        for i in 0..nbits {
            if exponent.bit(i) {
                result = result.mul_mod(&base, modulus)?;
            }
            if i + 1 < nbits {
                base = base.mul_mod(&base, modulus)?;
            }
        }
        Ok(result)
    }

    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &Self) -> Self {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let mut shift = 0usize;
        while a.is_even() && b.is_even() {
            a = a.shr(1);
            b = b.shr(1);
            shift += 1;
        }
        while a.is_even() {
            a = a.shr(1);
        }
        loop {
            while b.is_even() {
                b = b.shr(1);
            }
            if a.cmp_big(&b) == Ordering::Greater {
                std::mem::swap(&mut a, &mut b);
            }
            // `a <= b` after the swap, so the subtraction cannot underflow;
            // the zero fallback would terminate the loop with `a` intact.
            b = b.checked_sub(&a).unwrap_or_else(Self::zero);
            if b.is_zero() {
                return a.shl(shift);
            }
        }
    }

    /// Modular inverse `self⁻¹ mod modulus` (extended Euclid over
    /// signed intermediate values emulated with the modulus offset).
    ///
    /// # Errors
    /// [`CryptoError::NotInvertible`] when `gcd(self, modulus) ≠ 1`.
    pub fn mod_inverse(&self, modulus: &Self) -> Result<Self> {
        if modulus.is_zero() {
            return Err(CryptoError::DivisionByZero);
        }
        // Extended Euclid maintaining only the coefficient of `self`,
        // tracked as (value, negative?) to stay in unsigned arithmetic.
        let mut r0 = modulus.clone();
        let mut r1 = self.rem(modulus)?;
        let mut t0: (Self, bool) = (Self::zero(), false);
        let mut t1: (Self, bool) = (Self::one(), false);
        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1)?;
            // t2 = t0 - q*t1
            let qt1 = (q.mul(&t1.0), t1.1);
            let t2 = signed_sub(&t0, &qt1);
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if !r0.is_one() {
            return Err(CryptoError::NotInvertible);
        }
        let (mag, neg) = t0;
        let mag = mag.rem(modulus)?;
        if neg && !mag.is_zero() {
            // `mag` was just reduced mod `modulus` and is non-zero, so the
            // complement cannot underflow.
            Ok(modulus.checked_sub(&mag).unwrap_or_else(Self::zero))
        } else {
            Ok(mag)
        }
    }

    /// Uniformly random value in `[0, bound)`.
    ///
    /// # Panics
    /// Panics when `bound` is zero.
    pub fn random_below<R: Rng + ?Sized>(bound: &Self, rng: &mut R) -> Self {
        assert!(!bound.is_zero(), "random_below: zero bound");
        let nbits = bound.bits();
        loop {
            let mut limbs = vec![0u64; bound.limbs.len()];
            for l in &mut limbs {
                *l = rng.gen();
            }
            // Mask the top limb to the bound's bit length.
            let top_bits = nbits % 64;
            if top_bits > 0 {
                let last = limbs.len() - 1;
                limbs[last] &= (1u64 << top_bits) - 1;
            }
            let candidate = Self::from_limbs(limbs);
            if candidate.cmp_big(bound) == Ordering::Less {
                return candidate;
            }
        }
    }

    /// Random integer with exactly `bits` bits (top bit set).
    pub fn random_bits<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> Self {
        assert!(bits > 0, "random_bits: zero width");
        let limbs = bits.div_ceil(64);
        let mut v = vec![0u64; limbs];
        for l in &mut v {
            *l = rng.gen();
        }
        let top_bits = bits % 64;
        let last = limbs - 1;
        if top_bits > 0 {
            v[last] &= (1u64 << top_bits) - 1;
            v[last] |= 1u64 << (top_bits - 1);
        } else {
            v[last] |= 1u64 << 63;
        }
        Self::from_limbs(v)
    }

    /// Miller–Rabin probabilistic primality test with `rounds` random
    /// witnesses.
    pub fn is_probable_prime<R: Rng + ?Sized>(&self, rounds: usize, rng: &mut R) -> bool {
        if self.is_zero() || self.is_one() {
            return false;
        }
        for small in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
            let p = Self::from_u64(small);
            if self == &p {
                return true;
            }
            if self.rem(&p).is_ok_and(|r| r.is_zero()) {
                return false;
            }
        }
        if self.is_even() {
            return false;
        }
        // self - 1 = d · 2^s
        let Some(n_minus_1) = self.checked_sub(&Self::one()) else {
            return false;
        };
        let mut d = n_minus_1.clone();
        let mut s = 0usize;
        while d.is_even() {
            d = d.shr(1);
            s += 1;
        }
        let two = Self::from_u64(2);
        // `self > 3` here: everything <= 37 was handled by the sieve above.
        let Some(bound) = self.checked_sub(&Self::from_u64(3)) else {
            return false;
        };
        'witness: for _ in 0..rounds {
            let a = Self::random_below(&bound, rng).add(&two); // in [2, self-1)
                                                               // `self` is odd and > 3, so the modular ops cannot fail;
                                                               // treating a failure as composite is the conservative answer.
            let Ok(mut x) = a.mod_pow(&d, self) else {
                return false;
            };
            if x.is_one() || x == n_minus_1 {
                continue 'witness;
            }
            for _ in 0..s.saturating_sub(1) {
                let Ok(sq) = x.mul_mod(&x, self) else {
                    return false;
                };
                x = sq;
                if x == n_minus_1 {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }

    /// Generates a random prime with exactly `bits` bits.
    pub fn gen_prime<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> Self {
        assert!(bits >= 2, "primes need at least 2 bits");
        loop {
            let mut candidate = Self::random_bits(bits, rng);
            // Force odd.
            if candidate.is_even() {
                candidate = candidate.add(&Self::one());
            }
            if candidate.bits() == bits && candidate.is_probable_prime(20, rng) {
                return candidate;
            }
        }
    }

    /// Least common multiple.
    pub fn lcm(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let g = self.gcd(other);
        // gcd of two non-zero values is non-zero, so division cannot fail.
        self.div_rem(&g)
            .map(|(q, _)| q.mul(other))
            .unwrap_or_else(|_| Self::zero())
    }

    /// The lowest 64 bits of the value.
    pub(crate) fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }
}

/// `a - b` over (magnitude, negative?) pairs.
fn signed_sub(a: &(BigUint, bool), b: &(BigUint, bool)) -> (BigUint, bool) {
    match (a.1, b.1) {
        // a - b with both positive. When the forward subtraction fails,
        // the reverse one cannot (strictly b > a).
        (false, false) => match a.0.checked_sub(&b.0) {
            Some(d) => (d, false),
            None => (b.0.checked_sub(&a.0).unwrap_or_else(BigUint::zero), true),
        },
        // a - (-b) = a + b
        (false, true) => (a.0.add(&b.0), false),
        // -a - b = -(a + b)
        (true, false) => (a.0.add(&b.0), true),
        // -a - (-b) = b - a
        (true, true) => match b.0.checked_sub(&a.0) {
            Some(d) => (d, false),
            None => (a.0.checked_sub(&b.0).unwrap_or_else(BigUint::zero), true),
        },
    }
}

/// Bits 64..128 of `(hi:lo) << s`, i.e. limb `hi` shifted left by
/// `s < 64` with the bits carried in from `lo`.
fn shl_limb(hi: u64, lo: u64, s: u32) -> u64 {
    (((u128::from(hi) << 64) | u128::from(lo)) << s >> 64) as u64
}

/// Knuth's Algorithm D: `(u / v, u % v)` as limb vectors, for a divisor
/// of at least two limbs with a non-zero top limb and `u ≥ v`.
fn knuth_div(u: &[u64], v: &[u64]) -> (Vec<u64>, Vec<u64>) {
    const B: u128 = 1 << 64;
    let n = v.len();
    let m = u.len() - n;
    // D1: normalize. Shifting by the divisor's leading zeros sets its top
    // bit, which bounds the quotient-limb estimate's error; the dividend
    // gains one limb to hold the bits shifted out of its top.
    let s = v[n - 1].leading_zeros();
    let vn: Vec<u64> = (0..n)
        .map(|i| shl_limb(v[i], if i == 0 { 0 } else { v[i - 1] }, s))
        .collect();
    let mut un: Vec<u64> = (0..=u.len())
        .map(|i| {
            let hi = u.get(i).copied().unwrap_or(0);
            shl_limb(hi, if i == 0 { 0 } else { u[i - 1] }, s)
        })
        .collect();
    let (v1, v2) = (u128::from(vn[n - 1]), u128::from(vn[n - 2]));
    let mut q = vec![0u64; m + 1];
    for j in (0..=m).rev() {
        // D3: estimate q̂ = ⌊(un[j+n]·B + un[j+n-1]) / v1⌋ and correct it
        // with the second divisor limb; q̂ is then exact or one too large.
        let top = (u128::from(un[j + n]) << 64) | u128::from(un[j + n - 1]);
        let mut qhat = top / v1;
        let mut rhat = top % v1;
        while qhat >= B || qhat * v2 > ((rhat << 64) | u128::from(un[j + n - 2])) {
            qhat -= 1;
            rhat += v1;
            if rhat >= B {
                break;
            }
        }
        // D4: un[j..=j+n] -= q̂ · vn.
        let mut carry = 0u128;
        let mut borrow = false;
        for (w, &d) in un[j..j + n].iter_mut().zip(&vn) {
            let p = qhat * u128::from(d) + carry;
            carry = p >> 64;
            let (d1, b1) = w.overflowing_sub(p as u64);
            let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
            *w = d2;
            borrow = b1 || b2;
        }
        let (d1, b1) = un[j + n].overflowing_sub(carry as u64);
        let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
        un[j + n] = d2;
        // `qhat < B` after the correction loop.
        q[j] = qhat as u64;
        if b1 || b2 {
            // D6: q̂ was one too large; add one divisor back.
            q[j] -= 1;
            let mut c = false;
            for (w, &d) in un[j..j + n].iter_mut().zip(&vn) {
                let (s1, c1) = w.overflowing_add(d);
                let (s2, c2) = s1.overflowing_add(u64::from(c));
                *w = s2;
                c = c1 || c2;
            }
            un[j + n] = un[j + n].wrapping_add(u64::from(c));
        }
    }
    // D8: the remainder is un[..n] shifted back down.
    let r = (0..n)
        .map(|i| (((u128::from(un[i + 1]) << 64) | u128::from(un[i])) >> s) as u64)
        .collect();
    (q, r)
}

/// `-m0⁻¹ mod 2⁶⁴` for odd `m0`. An odd `m0` is its own inverse mod 8
/// (3 correct bits); each Newton step `x ← x·(2 − m0·x)` doubles that.
fn neg_inv_u64(m0: u64) -> u64 {
    let mut inv = m0;
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
    }
    inv.wrapping_neg()
}

/// Montgomery product `out = a·b·R⁻¹ mod m` with `R = 2^(64·n)`,
/// `n = m.len()`, by coarsely integrated operand scanning (CIOS): per
/// limb of `a`, add `aᵢ·b` into the accumulator, then add the multiple
/// of `m` that zeroes its low limb and drop that limb. `a`, `b` and `out`
/// have `n` limbs with `a, b < m`; `m_inv = -m⁻¹ mod 2⁶⁴`; `t` is `n + 2`
/// limbs of scratch.
fn mont_mul_into(out: &mut [u64], a: &[u64], b: &[u64], m: &[u64], m_inv: u64, t: &mut [u64]) {
    let n = m.len();
    // Fixing every length up front lets the compiler drop bounds checks.
    let (a, b, out, t) = (&a[..n], &b[..n], &mut out[..n], &mut t[..n + 2]);
    t.fill(0);
    for &ai in a {
        let mut c = 0u128;
        for (tj, &bj) in t[..n].iter_mut().zip(b) {
            let s = u128::from(*tj) + u128::from(ai) * u128::from(bj) + c;
            *tj = s as u64;
            c = s >> 64;
        }
        let s = u128::from(t[n]) + c;
        t[n] = s as u64;
        t[n + 1] = (s >> 64) as u64;
        let k = t[0].wrapping_mul(m_inv);
        let mut c = (u128::from(t[0]) + u128::from(k) * u128::from(m[0])) >> 64;
        for j in 1..n {
            let s = u128::from(t[j]) + u128::from(k) * u128::from(m[j]) + c;
            t[j - 1] = s as u64;
            c = s >> 64;
        }
        let s = u128::from(t[n]) + c;
        t[n - 1] = s as u64;
        t[n] = t[n + 1] + (s >> 64) as u64;
    }
    // The accumulator is below 2m: subtract m once unless it is below m.
    let mut borrow = false;
    for ((o, &tj), &mj) in out.iter_mut().zip(&t[..n]).zip(m) {
        let (d1, b1) = tj.overflowing_sub(mj);
        let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
        *o = d2;
        borrow = b1 || b2;
    }
    if borrow && t[n] == 0 {
        out.copy_from_slice(&t[..n]);
    }
}

/// `base^exponent mod m` for an odd `m > 1`: left-to-right
/// square-and-multiply over Montgomery products. All buffers are
/// allocated before the exponent loop, which is allocation-free.
fn mont_pow(base: &BigUint, exponent: &BigUint, m: &BigUint) -> Result<BigUint> {
    let Some(top) = exponent.bits().checked_sub(1) else {
        return Ok(BigUint::one());
    };
    let n = m.limbs.len();
    let m_inv = neg_inv_u64(m.limbs[0]);
    // Into Montgomery form: base·R mod m.
    let mut b = base.shl(64 * n).rem(m)?.limbs;
    b.resize(n, 0);
    let mut acc = b.clone();
    let mut tmp = vec![0u64; n];
    let mut t = vec![0u64; n + 2];
    for i in (0..top).rev() {
        mont_mul_into(&mut tmp, &acc, &acc, &m.limbs, m_inv, &mut t);
        std::mem::swap(&mut acc, &mut tmp);
        if exponent.bit(i) {
            mont_mul_into(&mut tmp, &acc, &b, &m.limbs, m_inv, &mut t);
            std::mem::swap(&mut acc, &mut tmp);
        }
    }
    // Out of Montgomery form: a product with 1 strips the factor R.
    b.fill(0);
    b[0] = 1;
    mont_mul_into(&mut tmp, &acc, &b, &m.limbs, m_inv, &mut t);
    Ok(BigUint::from_limbs(tmp))
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "BigUint(0x0)");
        }
        write!(f, "BigUint(0x")?;
        for (i, l) in self.limbs.iter().rev().enumerate() {
            if i == 0 {
                write!(f, "{l:x}")?;
            } else {
                write!(f, "{l:016x}")?;
            }
        }
        write!(f, ")")
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_big(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{prop_assert, prop_assert_eq, proptest};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn big(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    /// The bit-serial shift-and-subtract division that preceded
    /// Algorithm D, kept as the reference `div_rem` is checked against.
    fn div_rem_bitwise(a: &BigUint, d: &BigUint) -> (BigUint, BigUint) {
        let mut quotient = BigUint::zero();
        let mut remainder = a.clone();
        let Some(shift) = a.bits().checked_sub(d.bits()) else {
            return (quotient, remainder);
        };
        let mut shifted = d.shl(shift);
        for s in (0..=shift).rev() {
            if let Some(r) = remainder.checked_sub(&shifted) {
                remainder = r;
                quotient = quotient.add(&BigUint::one().shl(s));
            }
            shifted = shifted.shr(1);
        }
        (quotient, remainder)
    }

    /// A `len`-limb value (top limb non-zero) mixing random limbs with
    /// the extremes that stress quotient estimation and carries: 0, 1,
    /// 2⁶³ and all-ones.
    fn mixed_limbs(rng: &mut StdRng, len: usize) -> BigUint {
        let mut limbs: Vec<u64> = (0..len)
            .map(|_| match rng.gen_range(0..6u32) {
                0 => 0,
                1 => 1,
                2 => 1 << 63,
                3 => u64::MAX,
                _ => rng.gen(),
            })
            .collect();
        if limbs[len - 1] == 0 {
            limbs[len - 1] = rng.gen::<u64>() | 1;
        }
        BigUint::from_limbs(limbs)
    }

    /// A random value of at most `bits` bits (zero for `bits == 0`).
    fn random_upto(rng: &mut StdRng, bits: usize) -> BigUint {
        if bits == 0 {
            BigUint::zero()
        } else {
            BigUint::random_bits(bits, rng)
        }
    }

    #[test]
    fn construction_and_conversion() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::from_u64(42).to_u64(), Some(42));
        assert_eq!(big(u128::MAX).to_u128(), Some(u128::MAX));
        assert_eq!(big(1 << 80).to_u64(), None);
        assert_eq!(BigUint::from_limbs(vec![5, 0, 0]).to_u64(), Some(5));
    }

    #[test]
    fn bits_counting() {
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::one().bits(), 1);
        assert_eq!(BigUint::from_u64(255).bits(), 8);
        assert_eq!(big(1u128 << 100).bits(), 101);
    }

    #[test]
    fn addition_with_carries() {
        let a = BigUint::from_u64(u64::MAX);
        let sum = a.add(&BigUint::one());
        assert_eq!(sum.to_u128(), Some(1u128 << 64));
        assert_eq!(big(u128::MAX).add(&BigUint::one()).bits(), 129);
    }

    #[test]
    fn subtraction() {
        assert_eq!(
            big(1u128 << 64)
                .checked_sub(&BigUint::one())
                .unwrap()
                .to_u128(),
            Some((1u128 << 64) - 1)
        );
        assert!(BigUint::one().checked_sub(&big(2)).is_none());
        assert!(big(5).checked_sub(&big(5)).unwrap().is_zero());
    }

    #[test]
    fn multiplication() {
        assert_eq!(
            big(u64::MAX as u128).mul(&big(u64::MAX as u128)).to_u128(),
            Some(u64::MAX as u128 * u64::MAX as u128)
        );
        assert!(big(0).mul(&big(123)).is_zero());
    }

    #[test]
    fn shifts() {
        assert_eq!(big(1).shl(64).to_u128(), Some(1u128 << 64));
        assert_eq!(big(1 << 64).shr(64).to_u64(), Some(1));
        assert_eq!(big(0b1011).shl(3).to_u64(), Some(0b1011000));
        assert_eq!(big(0b1011000).shr(3).to_u64(), Some(0b1011));
        assert!(big(7).shr(100).is_zero());
    }

    #[test]
    fn division() {
        let (q, r) = big(1000).div_rem(&big(7)).unwrap();
        assert_eq!(q.to_u64(), Some(142));
        assert_eq!(r.to_u64(), Some(6));
        assert!(big(3).div_rem(&BigUint::zero()).is_err());
        let (q, r) = big(5).div_rem(&big(10)).unwrap();
        assert!(q.is_zero());
        assert_eq!(r.to_u64(), Some(5));
        // Multi-limb divisor.
        let a = big(u128::MAX);
        let b = big(1u128 << 70);
        let (q, r) = a.div_rem(&b).unwrap();
        assert_eq!(q.to_u128(), Some(u128::MAX >> 70));
        assert_eq!(r.to_u128(), Some(u128::MAX - (u128::MAX >> 70 << 70)));
    }

    #[test]
    fn division_add_back_vector() {
        // Normalized (shift 2), the first quotient-limb estimate is 4, the
        // true limb is 3, and the second-limb test cannot catch it (the
        // divisor's middle limb is 0): Algorithm D must add back.
        let a = BigUint::from_limbs(vec![3, 0, 1 << 63]);
        let d = BigUint::from_limbs(vec![1, 0, 1 << 61]);
        let (q, r) = a.div_rem(&d).unwrap();
        assert_eq!(q.to_u64(), Some(3));
        assert_eq!(r, BigUint::from_limbs(vec![0, 0, 1 << 61]));
        assert_eq!((q, r), div_rem_bitwise(&a, &d));
    }

    #[test]
    fn mod_pow_edge_cases() {
        let m = BigUint::from_limbs(vec![u64::MAX - 14, 7, 1 << 40]);
        let b = big(0xdead_beef_0123_4567_89ab);
        let e = big(0x1_2345_6789_abcd_ef01);
        let expected = b.pow_by_division(&e, &m).unwrap();
        assert_eq!(b.mod_pow(&e, &m).unwrap(), expected);
        // Exponent 0 and base 0.
        assert!(b.mod_pow(&BigUint::zero(), &m).unwrap().is_one());
        assert!(BigUint::zero().mod_pow(&e, &m).unwrap().is_zero());
        // A base at or above the modulus is reduced first.
        assert!(m.mod_pow(&e, &m).unwrap().is_zero());
        let above = m.mul(&big(3)).add(&b);
        assert_eq!(above.mod_pow(&e, &m).unwrap(), expected);
        // One-limb odd modulus.
        let p = big(1_000_000_007);
        assert_eq!(
            b.mod_pow(&e, &p).unwrap(),
            b.pow_by_division(&e, &p).unwrap()
        );
        // (Modulus 1 is covered by `mod_pow_known_values`.)
        // An even modulus has no Montgomery inverse: `mod_pow` must take
        // the division path, where the Montgomery routine goes wrong.
        let even = m.add(&BigUint::one());
        let expected = b.pow_by_division(&e, &even).unwrap();
        assert_eq!(b.mod_pow(&e, &even).unwrap(), expected);
        assert_ne!(mont_pow(&b, &e, &even).unwrap(), expected);
    }

    #[test]
    fn mod_pow_known_values() {
        // 3^7 mod 10 = 7 (2187 mod 10)
        assert_eq!(big(3).mod_pow(&big(7), &big(10)).unwrap().to_u64(), Some(7));
        // Fermat: 2^(p-1) ≡ 1 mod p for prime p.
        let p = big(1_000_000_007);
        assert!(big(2).mod_pow(&big(1_000_000_006), &p).unwrap().is_one());
        assert!(big(5).mod_pow(&big(0), &big(7)).unwrap().is_one());
        assert!(big(5).mod_pow(&big(3), &BigUint::one()).unwrap().is_zero());
    }

    #[test]
    fn gcd_lcm() {
        assert_eq!(big(48).gcd(&big(18)).to_u64(), Some(6));
        assert_eq!(big(17).gcd(&big(13)).to_u64(), Some(1));
        assert_eq!(big(0).gcd(&big(5)).to_u64(), Some(5));
        assert_eq!(big(4).lcm(&big(6)).to_u64(), Some(12));
        assert!(big(0).lcm(&big(6)).is_zero());
    }

    #[test]
    fn mod_inverse_known() {
        // 3·5 = 15 ≡ 1 mod 7 → 3⁻¹ = 5
        assert_eq!(big(3).mod_inverse(&big(7)).unwrap().to_u64(), Some(5));
        // Not coprime → error.
        assert!(matches!(
            big(4).mod_inverse(&big(8)).unwrap_err(),
            CryptoError::NotInvertible
        ));
    }

    #[test]
    fn primality_known_values() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for p in [2u64, 3, 5, 7, 31, 101, 65537, 1_000_000_007] {
            assert!(BigUint::from_u64(p).is_probable_prime(20, &mut rng), "{p}");
        }
        for c in [1u64, 4, 100, 65535, 1_000_000_006] {
            assert!(!BigUint::from_u64(c).is_probable_prime(20, &mut rng), "{c}");
        }
        // Carmichael number 561 = 3·11·17 must be rejected.
        assert!(!BigUint::from_u64(561).is_probable_prime(20, &mut rng));
    }

    #[test]
    fn prime_generation() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let p = BigUint::gen_prime(64, &mut rng);
        assert_eq!(p.bits(), 64);
        assert!(p.is_probable_prime(20, &mut rng));
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let bound = big(1000);
        for _ in 0..100 {
            let v = BigUint::random_below(&bound, &mut rng);
            assert!(v < bound);
        }
    }

    proptest! {
        #[test]
        fn prop_add_sub_roundtrip(a in 0u128..u128::MAX / 2, b in 0u128..u128::MAX / 2) {
            let sum = big(a).add(&big(b));
            prop_assert_eq!(sum.checked_sub(&big(b)).unwrap(), big(a));
        }

        #[test]
        fn prop_div_rem_identity(a in 0u128..u128::MAX, b in 1u128..u128::MAX) {
            let (q, r) = big(a).div_rem(&big(b)).unwrap();
            prop_assert_eq!(q.mul(&big(b)).add(&r), big(a));
            prop_assert!(r < big(b));
        }

        #[test]
        fn prop_div_rem_matches_bitwise(seed in 0u64..u64::MAX, x in 2usize..41, y in 2usize..41) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = mixed_limbs(&mut rng, x.max(y));
            let d = mixed_limbs(&mut rng, x.min(y));
            let (q, r) = a.div_rem(&d).unwrap();
            prop_assert_eq!(q.mul(&d).add(&r), a.clone());
            prop_assert!(r < d);
            prop_assert_eq!((q, r), div_rem_bitwise(&a, &d));
        }

        #[test]
        fn prop_mod_pow_montgomery_matches_division(
            seed in 0u64..u64::MAX,
            m_len in 1usize..21,
            base_bits in 0usize..1301,
            exp_bits in 0usize..301,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut m = mixed_limbs(&mut rng, m_len);
            if m.is_even() {
                m = m.add(&BigUint::one());
            }
            let base = random_upto(&mut rng, base_bits);
            let exponent = random_upto(&mut rng, exp_bits);
            let got = base.mod_pow(&exponent, &m).unwrap();
            if m.is_one() {
                prop_assert!(got.is_zero());
            } else {
                prop_assert_eq!(got, base.pow_by_division(&exponent, &m).unwrap());
            }
        }

        #[test]
        fn prop_mod_pow_matches_u128(base in 0u64..1000, exp in 0u64..16, m in 2u64..10_000) {
            let expected = {
                let mut acc: u128 = 1;
                for _ in 0..exp {
                    acc = acc * base as u128 % m as u128;
                }
                acc as u64
            };
            let got = BigUint::from_u64(base)
                .mod_pow(&BigUint::from_u64(exp), &BigUint::from_u64(m))
                .unwrap();
            prop_assert_eq!(got.to_u64(), Some(expected));
        }

        #[test]
        fn prop_mod_inverse(a in 1u64..10_000) {
            // Prime modulus → every non-multiple is invertible.
            let p = 10_007u64;
            if a % p != 0 {
                let inv = BigUint::from_u64(a).mod_inverse(&BigUint::from_u64(p)).unwrap();
                let prod = BigUint::from_u64(a).mul_mod(&inv, &BigUint::from_u64(p)).unwrap();
                prop_assert!(prod.is_one());
            }
        }

        #[test]
        fn prop_gcd_divides(a in 1u128..u128::MAX, b in 1u128..u128::MAX) {
            let g = big(a).gcd(&big(b));
            prop_assert!(big(a).rem(&g).unwrap().is_zero());
            prop_assert!(big(b).rem(&g).unwrap().is_zero());
        }
    }
}
