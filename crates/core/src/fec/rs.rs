//! Reed–Solomon coding over GF(2⁸).
//!
//! Systematic RS(n, k) encoding with support for the shortened RS(204, 188)
//! outer code of DVB-T (a shortened RS(255, 239), t = 8). The decoder —
//! syndromes, Berlekamp–Massey, Chien search, Forney algorithm — lives here
//! too so the reference receiver and the transmitter share one codec.
//!
//! The encoder divides by the generator one message byte at a time, with
//! the generator-times-byte products read from a 256-row table (one per
//! parity length, built once and shared process-wide) in place of 2t
//! GF(2⁸) multiplies per byte. The remainder and the table rows are held
//! as big-endian `u128` words, so a division step is a one-byte shift and
//! an XOR per 16 parity bytes. The decoder still multiplies through
//! [`Gf256`].

use crate::fec::gf256::Gf256;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Errors from Reed–Solomon decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsError {
    /// More errors than the code can correct.
    TooManyErrors,
    /// Input block length does not match the code.
    WrongLength {
        /// Bytes supplied.
        got: usize,
        /// Bytes the code expects.
        expected: usize,
    },
}

impl std::fmt::Display for RsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsError::TooManyErrors => write!(f, "uncorrectable block: too many symbol errors"),
            RsError::WrongLength { got, expected } => {
                write!(
                    f,
                    "block of {got} bytes does not match code length {expected}"
                )
            }
        }
    }
}

impl std::error::Error for RsError {}

/// A systematic Reed–Solomon code over GF(2⁸), optionally shortened.
///
/// # Example
///
/// ```
/// use ofdm_core::fec::ReedSolomon;
///
/// let rs = ReedSolomon::dvb_t204(); // RS(204, 188), t = 8
/// let msg: Vec<u8> = (0..188).map(|i| i as u8).collect();
/// let mut code = rs.encode(&msg);
/// code[10] ^= 0xff; // inject an error
/// code[100] ^= 0x55;
/// let decoded = rs.decode(&code).expect("2 errors are correctable");
/// assert_eq!(&decoded[..], &msg[..]);
/// ```
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    gf: Gf256,
    n: usize,
    k: usize,
    /// Row `c` (`words` words from `c·words`) holds generator
    /// coefficients `1..=2t` × `c`, big-endian and zero-padded: the
    /// remainder update of one division step with quotient byte `c`.
    products: Arc<[u128]>,
    /// `u128` words per remainder: ⌈2t / 16⌉.
    words: usize,
}

/// The generator-product table for `two_t` parity bytes, built on first
/// use and shared by every code with that parity length (the generator
/// Π (x − αⁱ), i < 2t, depends on nothing else).
fn generator_products(gf: &Gf256, two_t: usize) -> Arc<[u128]> {
    static TABLES: OnceLock<Mutex<HashMap<usize, Arc<[u128]>>>> = OnceLock::new();
    // Entries are inserted whole, so a poisoned map is still valid.
    let mut tables = TABLES
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    Arc::clone(tables.entry(two_t).or_insert_with(|| {
        let mut generator = vec![1u8];
        for i in 0..two_t {
            generator = gf.poly_mul(&generator, &[1, gf.alpha_pow(i)]);
        }
        // generator[0] is always 1 (monic); the division never reads it.
        (0..=255u8)
            .flat_map(|c| {
                let mut row: Vec<u8> = generator[1..].iter().map(|&g| gf.mul(g, c)).collect();
                row.resize(two_t.div_ceil(16) * 16, 0);
                pack_words(&row)
            })
            .collect()
    }))
}

/// Big-endian `u128` words of `bytes` (a multiple of 16 long).
fn pack_words(bytes: &[u8]) -> Vec<u128> {
    bytes
        .chunks_exact(16)
        .map(|c| {
            let mut word = [0u8; 16];
            word.copy_from_slice(c);
            u128::from_be_bytes(word)
        })
        .collect()
}

impl ReedSolomon {
    /// Creates an RS(n, k) code (shortened from the native RS(255,
    /// 255−(n−k)) if `n < 255`) with first consecutive root α⁰.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < k < n ≤ 255` and `n − k` is even.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(k > 0 && k < n && n <= 255, "need 0 < k < n <= 255");
        assert!(
            (n - k).is_multiple_of(2),
            "n - k must be even (2t parity symbols)"
        );
        let gf = Gf256::new();
        let products = generator_products(&gf, n - k);
        ReedSolomon {
            gf,
            n,
            k,
            products,
            words: (n - k).div_ceil(16),
        }
    }

    /// The DVB-T outer code: RS(204, 188), t = 8.
    pub fn dvb_t204() -> Self {
        ReedSolomon::new(204, 188)
    }

    /// Code length n in bytes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Message length k in bytes.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Correctable symbol errors t = (n − k)/2.
    pub fn t(&self) -> usize {
        (self.n - self.k) / 2
    }

    /// Systematically encodes a `k`-byte message into an `n`-byte codeword
    /// (message first, parity appended).
    ///
    /// # Panics
    ///
    /// Panics if `msg.len() != k`.
    pub fn encode(&self, msg: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.n);
        self.encode_into(msg, &mut out);
        out
    }

    /// [`ReedSolomon::encode`] appending the `n`-byte codeword to `out`.
    ///
    /// # Panics
    ///
    /// Panics if `msg.len() != k`.
    pub(crate) fn encode_into(&self, msg: &[u8], out: &mut Vec<u8>) {
        assert_eq!(msg.len(), self.k, "message must be exactly k bytes");
        // Polynomial long division of msg·x^{2t} by the generator. The
        // remainder's bytes run big-endian through `rem`'s words, zero
        // padded after byte 2t; shifting one byte left drops the leading
        // coefficient and pulls a padding zero into place 2t − 1.
        let words = self.words;
        let mut rem = [0u128; 16];
        let rem = &mut rem[..words];
        for &m in msg {
            let coef = usize::from(m ^ (rem[0] >> 120) as u8);
            let row = &self.products[coef * words..(coef + 1) * words];
            for i in 0..words {
                let next = rem.get(i + 1).map_or(0, |w| w >> 120);
                rem[i] = (rem[i] << 8 | next) ^ row[i];
            }
        }
        out.extend_from_slice(msg);
        for (i, word) in rem.iter().enumerate() {
            let bytes = word.to_be_bytes();
            out.extend_from_slice(&bytes[..(self.n - self.k - 16 * i).min(16)]);
        }
    }

    /// Decodes an `n`-byte received block, correcting up to t symbol
    /// errors; returns the `k`-byte message.
    ///
    /// # Errors
    ///
    /// * [`RsError::WrongLength`] if `recv.len() != n`.
    /// * [`RsError::TooManyErrors`] if the block is uncorrectable.
    pub fn decode(&self, recv: &[u8]) -> Result<Vec<u8>, RsError> {
        if recv.len() != self.n {
            return Err(RsError::WrongLength {
                got: recv.len(),
                expected: self.n,
            });
        }
        let gf = &self.gf;
        let two_t = self.n - self.k;
        // Work on the full-length codeword (virtual leading zeros).
        // Syndromes S_i = r(α^i).
        let syndromes: Vec<u8> = (0..two_t)
            .map(|i| gf.poly_eval(recv, gf.alpha_pow(i)))
            .collect();
        if syndromes.iter().all(|&s| s == 0) {
            return Ok(recv[..self.k].to_vec());
        }

        // Berlekamp–Massey: find the error locator Λ(x), lowest-degree-first.
        let mut lambda = vec![1u8]; // Λ(x)
        let mut b = vec![1u8]; // previous Λ
        let mut l = 0usize;
        let mut m = 1usize;
        let mut bb = 1u8; // discrepancy at last length change
        for n_iter in 0..two_t {
            // Discrepancy δ = Σ Λ_i · S_{n−i}.
            let mut delta = syndromes[n_iter];
            for i in 1..=l.min(lambda.len() - 1) {
                delta ^= gf.mul(lambda[i], syndromes[n_iter - i]);
            }
            if delta == 0 {
                m += 1;
            } else if 2 * l <= n_iter {
                let t_poly = lambda.clone();
                let scale = gf.div(delta, bb);
                // Λ(x) ← Λ(x) − (δ/b)·x^m·B(x)
                let needed = b.len() + m;
                if lambda.len() < needed {
                    lambda.resize(needed, 0);
                }
                for (i, &c) in b.iter().enumerate() {
                    lambda[i + m] ^= gf.mul(scale, c);
                }
                l = n_iter + 1 - l;
                b = t_poly;
                bb = delta;
                m = 1;
            } else {
                let scale = gf.div(delta, bb);
                let needed = b.len() + m;
                if lambda.len() < needed {
                    lambda.resize(needed, 0);
                }
                for (i, &c) in b.iter().enumerate() {
                    lambda[i + m] ^= gf.mul(scale, c);
                }
                m += 1;
            }
        }
        while lambda.last() == Some(&0) {
            lambda.pop();
        }
        let nu = lambda.len() - 1; // number of errors
        if nu > self.t() {
            return Err(RsError::TooManyErrors);
        }

        // Chien search over valid positions of the (possibly shortened)
        // codeword: position j (0-based from block start) corresponds to
        // full-code position p = n−1−j, i.e. locator root X^{-1} = α^{−p}.
        let mut error_positions = Vec::new();
        for j in 0..self.n {
            let p = self.n - 1 - j; // power of α for this position
            let x_inv = gf.alpha_pow((255 - p % 255) % 255);
            // Evaluate Λ(x_inv) (lambda is lowest-degree-first).
            let mut acc = 0u8;
            for (i, &c) in lambda.iter().enumerate() {
                acc ^= gf.mul(c, gf.pow(x_inv, i));
            }
            if acc == 0 {
                error_positions.push(j);
            }
        }
        if error_positions.len() != nu {
            return Err(RsError::TooManyErrors);
        }

        // Forney: error magnitudes e_j = X_j·Ω(X_j^{-1}) / Λ'(X_j^{-1})
        // with Ω(x) = [S(x)·Λ(x)] mod x^{2t} (S lowest-degree-first).
        let mut omega = vec![0u8; two_t];
        for (i, &s) in syndromes.iter().enumerate() {
            for (j, &c) in lambda.iter().enumerate() {
                if i + j < two_t {
                    omega[i + j] ^= gf.mul(s, c);
                }
            }
        }
        let mut corrected = recv.to_vec();
        for &j in &error_positions {
            let p = self.n - 1 - j;
            let x = gf.alpha_pow(p % 255);
            let x_inv = gf.inv(x);
            let mut om = 0u8;
            for (i, &c) in omega.iter().enumerate() {
                om ^= gf.mul(c, gf.pow(x_inv, i));
            }
            // Λ'(x) keeps only odd-power terms of Λ.
            let mut lp = 0u8;
            for (i, &c) in lambda.iter().enumerate() {
                if i % 2 == 1 {
                    lp ^= gf.mul(c, gf.pow(x_inv, i - 1));
                }
            }
            if lp == 0 {
                return Err(RsError::TooManyErrors);
            }
            // With fcr = 0 the Forney magnitude carries an extra X_j factor:
            // e_j = X_j · Ω(X_j⁻¹) / Λ'(X_j⁻¹).
            let magnitude = gf.mul(x, gf.div(om, lp));
            corrected[j] ^= magnitude;
        }
        // Verify: all syndromes must vanish after correction.
        for i in 0..two_t {
            if gf.poly_eval(&corrected, gf.alpha_pow(i)) != 0 {
                return Err(RsError::TooManyErrors);
            }
        }
        // Shortening needs no special handling here: virtual leading zeros
        // occupy degrees ≥ n and never contribute to syndromes or positions.
        Ok(corrected[..self.k].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(k: usize) -> Vec<u8> {
        (0..k).map(|i| ((i * 37 + 11) % 256) as u8).collect()
    }

    #[test]
    fn encode_is_systematic() {
        let rs = ReedSolomon::new(20, 12);
        let m = msg(12);
        let c = rs.encode(&m);
        assert_eq!(c.len(), 20);
        assert_eq!(&c[..12], &m[..]);
    }

    #[test]
    fn codeword_roots_at_alpha_powers() {
        // A valid codeword evaluates to zero at every generator root.
        let rs = ReedSolomon::new(32, 24);
        let gf = Gf256::new();
        let c = rs.encode(&msg(24));
        for i in 0..8 {
            assert_eq!(gf.poly_eval(&c, gf.alpha_pow(i)), 0, "root α^{i}");
        }
    }

    #[test]
    fn clean_block_decodes() {
        let rs = ReedSolomon::dvb_t204();
        let m = msg(188);
        let c = rs.encode(&m);
        assert_eq!(rs.decode(&c).unwrap(), m);
    }

    #[test]
    fn corrects_up_to_t_errors() {
        let rs = ReedSolomon::dvb_t204();
        assert_eq!(rs.t(), 8);
        let m = msg(188);
        let clean = rs.encode(&m);
        for n_err in 1..=8usize {
            let mut c = clean.clone();
            for e in 0..n_err {
                c[e * 23 + 5] ^= (0x11 * (e + 1)) as u8;
            }
            assert_eq!(rs.decode(&c).unwrap(), m, "{n_err} errors");
        }
    }

    #[test]
    fn detects_more_than_t_errors() {
        let rs = ReedSolomon::new(20, 12); // t = 4
        let m = msg(12);
        let mut c = rs.encode(&m);
        for e in 0..6 {
            c[e * 3] ^= 0xa5;
        }
        // 6 > t = 4: must not silently "correct" to a wrong message.
        match rs.decode(&c) {
            Err(RsError::TooManyErrors) => {}
            Ok(decoded) => assert_ne!(decoded, m, "wrong decode must at least not match"),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn corrects_parity_byte_errors() {
        let rs = ReedSolomon::new(255, 239);
        let m = msg(239);
        let mut c = rs.encode(&m);
        c[250] ^= 0x3c; // error in the parity region
        c[254] ^= 0x01;
        assert_eq!(rs.decode(&c).unwrap(), m);
    }

    #[test]
    fn full_length_code_all_positions() {
        let rs = ReedSolomon::new(255, 251); // t = 2
        let m = msg(251);
        let clean = rs.encode(&m);
        for pos in [0usize, 1, 127, 253, 254] {
            let mut c = clean.clone();
            c[pos] ^= 0x80;
            assert_eq!(rs.decode(&c).unwrap(), m, "error at {pos}");
        }
    }

    #[test]
    fn wrong_length_rejected() {
        let rs = ReedSolomon::new(20, 12);
        assert_eq!(
            rs.decode(&[0u8; 19]).unwrap_err(),
            RsError::WrongLength {
                got: 19,
                expected: 20
            }
        );
    }

    #[test]
    fn accessors() {
        let rs = ReedSolomon::dvb_t204();
        assert_eq!(rs.n(), 204);
        assert_eq!(rs.k(), 188);
        assert_eq!(rs.t(), 8);
    }

    #[test]
    #[should_panic(expected = "k bytes")]
    fn encode_wrong_len_panics() {
        let rs = ReedSolomon::new(20, 12);
        let _ = rs.encode(&[0u8; 11]);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_parity_count_panics() {
        let _ = ReedSolomon::new(20, 13);
    }

    #[test]
    fn error_display() {
        assert!(!RsError::TooManyErrors.to_string().is_empty());
        let e = RsError::WrongLength {
            got: 1,
            expected: 2,
        };
        assert!(e.to_string().contains('1'));
    }
}
