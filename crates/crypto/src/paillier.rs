//! The Paillier additively homomorphic cryptosystem.
//!
//! Cited by the paper (§V-B, reference \[67\]) as the homomorphic
//! encryption substrate of vertical federated learning: parties exchange
//! `Enc(uᵢ)` values that the orchestrator can *add* without decrypting.
//!
//! This implementation uses the standard `g = n + 1` simplification:
//! `Enc(m) = (1 + m·n) · rⁿ mod n²` and
//! `Dec(c) = L(c^λ mod n²) · λ⁻¹ mod n` with `L(x) = (x − 1) / n`.
//!
//! Real numbers are carried via fixed-point encoding (`scale` bits of
//! fraction) with negatives represented in the upper half of `Z_n`.

use crate::{BigUint, CryptoError, Result};
use rand::Rng;

/// Paillier public key (`n`, with `n²` cached).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublicKey {
    n: BigUint,
    n_squared: BigUint,
    /// Fixed-point fractional bits for f64 encoding.
    scale_bits: u32,
}

/// Paillier private key (`λ = lcm(p−1, q−1)` and `μ = λ⁻¹ mod n`).
#[derive(Debug, Clone)]
pub struct PrivateKey {
    lambda: BigUint,
    mu: BigUint,
    public: PublicKey,
}

/// A Paillier key pair.
#[derive(Debug, Clone)]
pub struct KeyPair {
    /// The shareable public key.
    pub public: PublicKey,
    /// The secret decryption key.
    pub private: PrivateKey,
}

/// A Paillier ciphertext (an element of `Z_{n²}`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ciphertext {
    value: BigUint,
    /// `n` fingerprint to catch cross-key operations.
    key_bits: usize,
}

impl KeyPair {
    /// Generates a key pair with an ~`modulus_bits`-bit `n`.
    ///
    /// # Errors
    /// [`CryptoError::InvalidParameter`] for moduli under 16 bits (the
    /// fixed-point encoding needs headroom).
    pub fn generate<R: Rng + ?Sized>(modulus_bits: usize, rng: &mut R) -> Result<KeyPair> {
        Self::generate_with_scale(modulus_bits, 24, rng)
    }

    /// Generates a key pair with an explicit fixed-point scale.
    ///
    /// # Errors
    /// [`CryptoError::InvalidParameter`] on inadequate sizes.
    pub fn generate_with_scale<R: Rng + ?Sized>(
        modulus_bits: usize,
        scale_bits: u32,
        rng: &mut R,
    ) -> Result<KeyPair> {
        if modulus_bits < 16 {
            return Err(CryptoError::InvalidParameter(format!(
                "modulus of {modulus_bits} bits is too small"
            )));
        }
        let half = modulus_bits / 2;
        let (n, lambda) = loop {
            let p = BigUint::gen_prime(half, rng);
            let q = BigUint::gen_prime(modulus_bits - half, rng);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            // gen_prime yields values >= 2, so p-1 / q-1 cannot underflow;
            // re-draw on the impossible branch rather than panic.
            let (Some(p1), Some(q1)) = (
                p.checked_sub(&BigUint::one()),
                q.checked_sub(&BigUint::one()),
            ) else {
                continue;
            };
            let lambda = p1.lcm(&q1);
            // g = n+1 requires gcd(n, λ) = 1, true for distinct primes.
            if !n.gcd(&lambda).is_one() {
                continue;
            }
            break (n, lambda);
        };
        let mu = lambda.mod_inverse(&n)?;
        let n_squared = n.mul(&n);
        let public = PublicKey {
            n,
            n_squared,
            scale_bits,
        };
        Ok(KeyPair {
            private: PrivateKey {
                lambda,
                mu,
                public: public.clone(),
            },
            public,
        })
    }
}

impl PublicKey {
    /// The modulus `n`.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// Bits of the modulus.
    pub fn modulus_bits(&self) -> usize {
        self.n.bits()
    }

    /// Encrypts an integer plaintext `m ∈ Z_n`.
    ///
    /// # Errors
    /// [`CryptoError::PlaintextOutOfRange`] when `m ≥ n`.
    pub fn encrypt_int<R: Rng + ?Sized>(&self, m: &BigUint, rng: &mut R) -> Result<Ciphertext> {
        if m.cmp_big(&self.n) != std::cmp::Ordering::Less {
            return Err(CryptoError::PlaintextOutOfRange(format!(
                "{} bits >= modulus {} bits",
                m.bits(),
                self.n.bits()
            )));
        }
        // r uniform in [1, n) with gcd(r, n) = 1 (true w.h.p.).
        let r = loop {
            let candidate = BigUint::random_below(&self.n, rng);
            if !candidate.is_zero() && candidate.gcd(&self.n).is_one() {
                break candidate;
            }
        };
        // (1 + m·n) · rⁿ mod n²
        let gm = BigUint::one().add(&m.mul(&self.n)).rem(&self.n_squared)?;
        let rn = r.mod_pow(&self.n, &self.n_squared)?;
        Ok(Ciphertext {
            value: gm.mul_mod(&rn, &self.n_squared)?,
            key_bits: self.n.bits(),
        })
    }

    /// Encrypts a float via fixed-point encoding; negatives map to the
    /// upper half of `Z_n`.
    ///
    /// # Errors
    /// [`CryptoError::PlaintextOutOfRange`] for non-finite or oversized
    /// values.
    pub fn encrypt_f64<R: Rng + ?Sized>(&self, x: f64, rng: &mut R) -> Result<Ciphertext> {
        self.encrypt_int(&self.encode_f64(x)?, rng)
    }

    /// Fixed-point encoding of `x` into `Z_n`.
    ///
    /// # Errors
    /// [`CryptoError::PlaintextOutOfRange`] for NaN/Inf or magnitudes
    /// that do not fit in a quarter of the modulus (headroom for sums).
    pub fn encode_f64(&self, x: f64) -> Result<BigUint> {
        if !x.is_finite() {
            return Err(CryptoError::PlaintextOutOfRange("non-finite".into()));
        }
        let scaled = x * (1u64 << self.scale_bits) as f64;
        let magnitude = scaled.abs();
        if magnitude >= 2f64.powi((self.modulus_bits() as i32 / 2).min(120)) {
            return Err(CryptoError::PlaintextOutOfRange(format!(
                "|{x}| too large for fixed-point range"
            )));
        }
        let int = BigUint::from_u128(magnitude.round() as u128);
        if scaled < 0.0 {
            // n − |v|
            Ok(self
                .n
                .checked_sub(&int)
                .ok_or_else(|| CryptoError::PlaintextOutOfRange("negative overflow".into()))?)
        } else {
            Ok(int)
        }
    }

    /// Decodes a fixed-point value from `Z_n` back to `f64`.
    pub fn decode_f64(&self, v: &BigUint) -> f64 {
        let half = self.n.shr(1);
        let scale = (1u64 << self.scale_bits) as f64;
        if v.cmp_big(&half) == std::cmp::Ordering::Greater {
            // Negative value. `v < n` for any decrypted residue; fall back
            // to the positive reading for out-of-range inputs.
            match self.n.checked_sub(v) {
                Some(mag) => -(biguint_to_f64(&mag) / scale),
                None => biguint_to_f64(v) / scale,
            }
        } else {
            biguint_to_f64(v) / scale
        }
    }

    /// Homomorphic addition `Enc(a) ⊕ Enc(b) = Enc(a + b)`.
    ///
    /// # Errors
    /// [`CryptoError::KeyMismatch`] across keys.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext> {
        if a.key_bits != b.key_bits || a.key_bits != self.n.bits() {
            return Err(CryptoError::KeyMismatch);
        }
        Ok(Ciphertext {
            value: a.value.mul_mod(&b.value, &self.n_squared)?,
            key_bits: a.key_bits,
        })
    }

    /// Homomorphic plaintext multiplication `Enc(a)^k = Enc(a · k)` for a
    /// non-negative integer `k`.
    ///
    /// # Errors
    /// [`CryptoError::KeyMismatch`] for foreign ciphertexts.
    pub fn mul_plain(&self, a: &Ciphertext, k: &BigUint) -> Result<Ciphertext> {
        if a.key_bits != self.n.bits() {
            return Err(CryptoError::KeyMismatch);
        }
        Ok(Ciphertext {
            value: a.value.mod_pow(k, &self.n_squared)?,
            key_bits: a.key_bits,
        })
    }
}

impl PrivateKey {
    /// Decrypts to the integer plaintext in `Z_n`.
    ///
    /// # Errors
    /// [`CryptoError::KeyMismatch`] for foreign ciphertexts.
    pub fn decrypt_int(&self, c: &Ciphertext) -> Result<BigUint> {
        let pk = &self.public;
        if c.key_bits != pk.n.bits() {
            return Err(CryptoError::KeyMismatch);
        }
        let x = c.value.mod_pow(&self.lambda, &pk.n_squared)?;
        // L(x) = (x − 1) / n. A well-formed ciphertext satisfies x ≥ 1;
        // x = 0 means the ciphertext was not produced by this key's
        // encryption map (e.g. a hand-built zero value).
        let l = x
            .checked_sub(&BigUint::one())
            .ok_or(CryptoError::KeyMismatch)?
            .div_rem(&pk.n)?
            .0;
        l.mul_mod(&self.mu, &pk.n)
    }

    /// Decrypts a fixed-point float.
    ///
    /// # Errors
    /// Same as [`Self::decrypt_int`].
    pub fn decrypt_f64(&self, c: &Ciphertext) -> Result<f64> {
        Ok(self.public.decode_f64(&self.decrypt_int(c)?))
    }

    /// The associated public key.
    pub fn public_key(&self) -> &PublicKey {
        &self.public
    }
}

/// Lossy conversion for decoding (values decoded are ≪ 2^120 by the
/// encoding bound, well within f64's exponent range).
fn biguint_to_f64(v: &BigUint) -> f64 {
    let mut out = 0.0f64;
    let mut shift = 0i32;
    let mut cur = v.clone();
    while !cur.is_zero() {
        out += cur.low_u64() as f64 * 2f64.powi(shift);
        cur = cur.shr(64);
        shift += 64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn keys(bits: usize) -> KeyPair {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        KeyPair::generate(bits, &mut rng).unwrap()
    }

    #[test]
    fn roundtrip_int() {
        let kp = keys(128);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for v in [0u64, 1, 42, 1_000_000] {
            let c = kp
                .public
                .encrypt_int(&BigUint::from_u64(v), &mut rng)
                .unwrap();
            assert_eq!(kp.private.decrypt_int(&c).unwrap().to_u64(), Some(v));
        }
    }

    #[test]
    fn encryption_is_randomized() {
        let kp = keys(128);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let m = BigUint::from_u64(5);
        let c1 = kp.public.encrypt_int(&m, &mut rng).unwrap();
        let c2 = kp.public.encrypt_int(&m, &mut rng).unwrap();
        assert_ne!(c1, c2, "probabilistic encryption must differ");
        assert_eq!(
            kp.private.decrypt_int(&c1).unwrap(),
            kp.private.decrypt_int(&c2).unwrap()
        );
    }

    #[test]
    fn homomorphic_addition() {
        let kp = keys(128);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a = kp
            .public
            .encrypt_int(&BigUint::from_u64(30), &mut rng)
            .unwrap();
        let b = kp
            .public
            .encrypt_int(&BigUint::from_u64(12), &mut rng)
            .unwrap();
        let sum = kp.public.add(&a, &b).unwrap();
        assert_eq!(kp.private.decrypt_int(&sum).unwrap().to_u64(), Some(42));
    }

    #[test]
    fn homomorphic_plaintext_multiplication() {
        let kp = keys(128);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let a = kp
            .public
            .encrypt_int(&BigUint::from_u64(7), &mut rng)
            .unwrap();
        let c = kp.public.mul_plain(&a, &BigUint::from_u64(6)).unwrap();
        assert_eq!(kp.private.decrypt_int(&c).unwrap().to_u64(), Some(42));
    }

    #[test]
    fn float_roundtrip_including_negatives() {
        let kp = keys(128);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for x in [0.0, 1.5, -2.75, 1234.5678, -0.001] {
            let c = kp.public.encrypt_f64(x, &mut rng).unwrap();
            let back = kp.private.decrypt_f64(&c).unwrap();
            assert!((back - x).abs() < 1e-4, "{x} → {back}");
        }
    }

    #[test]
    fn float_homomorphic_sum_with_negatives() {
        let kp = keys(128);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let a = kp.public.encrypt_f64(3.5, &mut rng).unwrap();
        let b = kp.public.encrypt_f64(-1.25, &mut rng).unwrap();
        let sum = kp.public.add(&a, &b).unwrap();
        assert!((kp.private.decrypt_f64(&sum).unwrap() - 2.25).abs() < 1e-4);
    }

    #[test]
    fn rejects_out_of_range() {
        let kp = keys(64);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let too_big = kp.public.modulus().clone();
        assert!(kp.public.encrypt_int(&too_big, &mut rng).is_err());
        assert!(kp.public.encrypt_f64(f64::NAN, &mut rng).is_err());
        assert!(kp.public.encrypt_f64(f64::INFINITY, &mut rng).is_err());
    }

    #[test]
    fn rejects_cross_key_operations() {
        let kp1 = keys(128);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let kp2 = KeyPair::generate(96, &mut rng).unwrap();
        let c1 = kp1
            .public
            .encrypt_int(&BigUint::from_u64(1), &mut rng)
            .unwrap();
        let c2 = kp2
            .public
            .encrypt_int(&BigUint::from_u64(2), &mut rng)
            .unwrap();
        assert!(matches!(
            kp1.public.add(&c1, &c2).unwrap_err(),
            CryptoError::KeyMismatch
        ));
        assert!(kp2.private.decrypt_int(&c1).is_err());
    }

    #[test]
    fn tiny_modulus_rejected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        assert!(KeyPair::generate(8, &mut rng).is_err());
    }

    /// FNV-1a over a value's `Debug` rendering.
    fn fingerprint(v: &impl std::fmt::Debug) -> u64 {
        format!("{v:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
            })
    }

    #[test]
    fn seeded_keys_and_ciphertexts_are_pinned() {
        // Values recorded with the bit-serial division and plain
        // square-and-multiply that preceded Algorithm D and Montgomery
        // exponentiation: a faster `BigUint` must draw the same
        // randomness and produce the same key, ciphertexts and plaintext.
        // Seed and size are those of the pipeline benchmark's Paillier VFL.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x9A11);
        let kp = KeyPair::generate(512, &mut rng).unwrap();
        let n = kp.public.modulus();
        assert_eq!(
            format!("{n:?}"),
            concat!(
                "BigUint(0x939758416e61c8758c2291a07a3b50409f33be5cbfa90e74b87bfac8a80348c6",
                "a86890400c5ca2d413fa7b34f82d7f348b288b0070c8275aa2d4f2d0ee6d9d01)"
            )
        );
        let c1 = kp
            .public
            .encrypt_int(&BigUint::from_u64(123_456_789), &mut rng)
            .unwrap();
        assert_eq!(fingerprint(&c1), 0x9dfe_dbc3_9f77_58b3);
        let c2 = kp.public.encrypt_f64(-2.5, &mut rng).unwrap();
        let tripled = kp.public.mul_plain(&c2, &BigUint::from_u64(3)).unwrap();
        let sum = kp.public.add(&c1, &tripled).unwrap();
        assert_eq!(fingerprint(&sum), 0x3a6e_61a3_9b6a_3e98);
        // 123456789 + 3·(−2.5·2²⁴) = −2372331, i.e. n − 2372331 in Z_n.
        let expected = n.checked_sub(&BigUint::from_u64(2_372_331)).unwrap();
        assert_eq!(kp.private.decrypt_int(&sum).unwrap(), expected);
        assert_eq!(fingerprint(&expected), 0x11c4_0ea0_fb7a_999b);
    }

    #[test]
    fn larger_key_roundtrip() {
        // 512-bit keys (the benchmark default) still round-trip.
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let kp = KeyPair::generate(512, &mut rng).unwrap();
        let c = kp.public.encrypt_f64(-98.6, &mut rng).unwrap();
        assert!((kp.private.decrypt_f64(&c).unwrap() + 98.6).abs() < 1e-4);
    }
}
