//! SHA-256 and SHA-512, implemented from scratch (FIPS 180-4).
//!
//! The round constants and initial hash values are *computed* at first use
//! from the fractional parts of the square/cube roots of the first primes,
//! exactly as the standard defines them, rather than being transcribed as
//! magic tables. This removes an entire class of transcription errors; the
//! implementation is validated against the well-known digest test vectors
//! in this module's tests.

use std::sync::OnceLock;

/// Returns the first `n` prime numbers.
fn first_primes(n: usize) -> Vec<u64> {
    let mut primes = Vec::with_capacity(n);
    let mut candidate: u64 = 2;
    while primes.len() < n {
        if primes.iter().all(|p| !candidate.is_multiple_of(*p)) {
            primes.push(candidate);
        }
        candidate += 1;
    }
    primes
}

/// 128x128 -> 256-bit multiplication, returning `(hi, lo)`.
fn mul_128(a: u128, b: u128) -> (u128, u128) {
    const M64: u128 = (1u128 << 64) - 1;
    let (a0, a1) = (a & M64, a >> 64);
    let (b0, b1) = (b & M64, b >> 64);
    let ll = a0 * b0;
    let lh = a0 * b1;
    let hl = a1 * b0;
    let hh = a1 * b1;
    let mid = (ll >> 64) + (lh & M64) + (hl & M64);
    let lo = (ll & M64) | (mid << 64);
    let hi = hh + (lh >> 64) + (hl >> 64) + (mid >> 64);
    (hi, lo)
}

/// Minimal 256-bit unsigned integer used only for constant generation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct U256 {
    hi: u128,
    lo: u128,
}

impl U256 {
    /// `self * m`, truncated to 256 bits (callers guarantee no overflow).
    fn mul_u128(self, m: u128) -> Self {
        let (lo_hi, lo_lo) = mul_128(self.lo, m);
        let (_, hi_lo) = mul_128(self.hi, m);
        U256 {
            hi: lo_hi.wrapping_add(hi_lo),
            lo: lo_lo,
        }
    }
}

/// The fractional parts, to 64 bits, of the `e`-th roots (`e` of 2 or 3)
/// of the first `N` primes: for each prime `p`, the low 64 bits of the
/// largest `x` with `x^e <= p << 64e`, found by binary search.
fn root_frac_bits<const N: usize>(e: u32) -> [u64; N] {
    let mut bits = [0; N];
    for (slot, p) in bits.iter_mut().zip(first_primes(N)) {
        let target = U256 {
            hi: (p as u128) << (64 * (e - 2)),
            lo: 0,
        };
        let (mut lo, mut hi) = (0u128, 1u128 << 70);
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            let (h, l) = mul_128(mid, mid);
            let square = U256 { hi: h, lo: l };
            let power = if e == 3 { square.mul_u128(mid) } else { square };
            if power <= target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        *slot = lo as u64;
    }
    bits
}

fn sha256_h() -> &'static [u32; 8] {
    static H: OnceLock<[u32; 8]> = OnceLock::new();
    H.get_or_init(|| root_frac_bits(2).map(|bits| (bits >> 32) as u32))
}

fn sha256_k() -> &'static [u32; 64] {
    static K: OnceLock<[u32; 64]> = OnceLock::new();
    K.get_or_init(|| root_frac_bits(3).map(|bits| (bits >> 32) as u32))
}

fn sha512_h() -> &'static [u64; 8] {
    static H: OnceLock<[u64; 8]> = OnceLock::new();
    H.get_or_init(|| root_frac_bits(2))
}

fn sha512_k() -> &'static [u64; 80] {
    static K: OnceLock<[u64; 80]> = OnceLock::new();
    K.get_or_init(|| root_frac_bits(3))
}

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use spire_crypto::sha2::Sha256;
/// let digest = Sha256::digest(b"abc");
/// assert_eq!(digest[0], 0xba);
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: *sha256_h(),
            buffer: [0u8; 64],
            buffered: 0,
            length: 0,
        }
    }

    /// One-shot convenience: hash `data` and return the 32-byte digest.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buffered > 0 {
            let need = 64 - self.buffered;
            let take = need.min(rest.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        while rest.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&rest[..64]);
            self.compress(&block);
            rest = &rest[64..];
        }
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffered = rest.len();
        }
    }

    /// Finishes the computation, returning the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.length.wrapping_mul(8);
        self.update_padding();
        let mut last = [0u8; 64];
        last[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        // update_padding guarantees buffered <= 56 here.
        last[56..64].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&last);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn update_padding(&mut self) {
        // Append the 0x80 terminator; if fewer than 8 bytes remain in the
        // block for the length field, flush a full zero-padded block first.
        let mut pad = [0u8; 64];
        pad[0] = 0x80;
        let used = self.buffered;
        if used >= 56 {
            self.buffer[used..].copy_from_slice(&pad[..64 - used]);
            let block = self.buffer;
            self.compress(&block);
            self.buffer = [0u8; 64];
            self.buffered = 0;
        } else {
            self.buffer[used..56].copy_from_slice(&pad[..56 - used]);
            self.buffered = 56;
        }
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let k = sha256_k();
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes([
                block[i * 4],
                block[i * 4 + 1],
                block[i * 4 + 2],
                block[i * 4 + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(k[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// Incremental SHA-512 hasher.
///
/// # Examples
///
/// ```
/// use spire_crypto::sha2::Sha512;
/// let digest = Sha512::digest(b"abc");
/// assert_eq!(digest.len(), 64);
/// ```
#[derive(Clone, Debug)]
pub struct Sha512 {
    state: [u64; 8],
    buffer: [u8; 128],
    buffered: usize,
    length: u128,
}

impl Default for Sha512 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha512 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha512 {
            state: *sha512_h(),
            buffer: [0u8; 128],
            buffered: 0,
            length: 0,
        }
    }

    /// One-shot convenience: hash `data` and return the 64-byte digest.
    pub fn digest(data: &[u8]) -> [u8; 64] {
        let mut h = Sha512::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u128);
        let mut rest = data;
        if self.buffered > 0 {
            let need = 128 - self.buffered;
            let take = need.min(rest.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered == 128 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        while rest.len() >= 128 {
            let mut block = [0u8; 128];
            block.copy_from_slice(&rest[..128]);
            self.compress(&block);
            rest = &rest[128..];
        }
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffered = rest.len();
        }
    }

    /// Finishes the computation, returning the 64-byte digest.
    pub fn finalize(mut self) -> [u8; 64] {
        let bit_len = self.length.wrapping_mul(8);
        let used = self.buffered;
        let mut pad = [0u8; 128];
        pad[0] = 0x80;
        if used >= 112 {
            self.buffer[used..].copy_from_slice(&pad[..128 - used]);
            let block = self.buffer;
            self.compress(&block);
            self.buffer = [0u8; 128];
            self.buffered = 0;
        } else {
            self.buffer[used..112].copy_from_slice(&pad[..112 - used]);
            self.buffered = 112;
        }
        let mut last = [0u8; 128];
        last[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        last[112..128].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&last);
        let mut out = [0u8; 64];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 8..i * 8 + 8].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 128]) {
        let k = sha512_k();
        let mut w = [0u64; 80];
        for i in 0..16 {
            let mut word = [0u8; 8];
            word.copy_from_slice(&block[i * 8..i * 8 + 8]);
            w[i] = u64::from_be_bytes(word);
        }
        for i in 16..80 {
            let s0 = w[i - 15].rotate_right(1) ^ w[i - 15].rotate_right(8) ^ (w[i - 15] >> 7);
            let s1 = w[i - 2].rotate_right(19) ^ w[i - 2].rotate_right(61) ^ (w[i - 2] >> 6);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..80 {
            let s1 = e.rotate_right(14) ^ e.rotate_right(18) ^ e.rotate_right(41);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(k[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(28) ^ a.rotate_right(34) ^ a.rotate_right(39);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Parses a hexadecimal string into bytes.
///
/// # Panics
///
/// Panics if the string has odd length or contains non-hex characters; it is
/// intended for test vectors and fixed constants.
pub fn from_hex(s: &str) -> Vec<u8> {
    assert!(
        s.len().is_multiple_of(2),
        "hex string must have even length"
    );
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(&s[i * 2..i * 2 + 2], 16).expect("invalid hex"))
        .collect()
}

/// Formats bytes as a lowercase hexadecimal string.
pub fn to_hex(bytes: &[u8]) -> String {
    hex(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_fips() {
        // Spot checks against the universally known FIPS 180-4 constants.
        assert_eq!(sha256_h()[0], 0x6a09e667);
        assert_eq!(sha256_k()[0], 0x428a2f98);
        assert_eq!(sha512_h()[0], 0x6a09e667f3bcc908);
    }

    #[test]
    fn sha256_empty() {
        assert_eq!(
            to_hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn sha256_abc() {
        assert_eq!(
            to_hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn sha256_two_blocks() {
        assert_eq!(
            to_hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha512_abc() {
        assert_eq!(
            to_hex(&Sha512::digest(b"abc")),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a\
             2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
        );
    }

    #[test]
    fn sha512_empty() {
        assert_eq!(
            to_hex(&Sha512::digest(b"")),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce\
             47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let one_shot = Sha256::digest(&data);
        for chunk in [1usize, 3, 17, 63, 64, 65, 100] {
            let mut h = Sha256::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(h.finalize(), one_shot, "chunk size {chunk}");
        }
    }

    #[test]
    fn incremental_sha512_matches_one_shot() {
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 241) as u8).collect();
        let one_shot = Sha512::digest(&data);
        for chunk in [1usize, 7, 127, 128, 129, 500] {
            let mut h = Sha512::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(h.finalize(), one_shot, "chunk size {chunk}");
        }
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths straddling the padding boundaries must all hash without
        // panicking and produce distinct digests.
        let mut seen = std::collections::HashSet::new();
        for len in 0..=130usize {
            let data = vec![0xabu8; len];
            assert!(seen.insert(Sha256::digest(&data)), "collision at {len}");
        }
    }
}
