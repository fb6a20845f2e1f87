//! MD5 (RFC 1321).
//!
//! MD5 is cryptographically broken, but the exfiltration pipeline is not
//! using it for security: trackers hash identifiers with MD5 before putting
//! them in URLs, so the detector must compute the same digest.

const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// Computes the MD5 digest of `data`.
pub fn md5(data: &[u8]) -> [u8; 16] {
    let mut state: [u32; 4] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476];
    let mut blocks = data.chunks_exact(64);
    for block in &mut blocks {
        compress(&mut state, block);
    }
    // Padding: 0x80, zeros, then the 64-bit little-endian bit length —
    // built on the stack (one block, or two when the tail is ≥ 56 bytes).
    let bit_len = (data.len() as u64).wrapping_mul(8);
    let mut tail = [0u8; 128];
    let n = pad_tail(blocks.remainder(), &mut tail);
    tail[n - 8..n].copy_from_slice(&bit_len.to_le_bytes());
    for block in tail[..n].chunks_exact(64) {
        compress(&mut state, block);
    }

    let mut out = [0u8; 16];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// Copies the final partial block into `tail` and appends the 0x80
/// marker. Returns the padded length (64 or 128); its last eight bytes
/// are left zero for the caller's length field.
pub(crate) fn pad_tail(rest: &[u8], tail: &mut [u8; 128]) -> usize {
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    if rest.len() < 56 {
        64
    } else {
        128
    }
}

fn compress(state: &mut [u32; 4], block: &[u8]) {
    let mut m = [0u32; 16];
    for (i, w) in block.chunks_exact(4).enumerate() {
        m[i] = u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    }
    let [mut a, mut b, mut c, mut d] = *state;
    // One loop per round function, so each unrolls with its message
    // schedule and shift amounts folded to constants.
    for (i, &word) in m.iter().enumerate() {
        let f = (b & c) | (!b & d);
        (a, b, c, d) = (d, step(a, b, f, i, word), b, c);
    }
    for i in 16..32 {
        let f = (d & b) | (!d & c);
        (a, b, c, d) = (d, step(a, b, f, i, m[(5 * i + 1) % 16]), b, c);
    }
    for i in 32..48 {
        let f = b ^ c ^ d;
        (a, b, c, d) = (d, step(a, b, f, i, m[(3 * i + 5) % 16]), b, c);
    }
    for i in 48..64 {
        let f = c ^ (b | !d);
        (a, b, c, d) = (d, step(a, b, f, i, m[(7 * i) % 16]), b, c);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d]) {
        *s = s.wrapping_add(v);
    }
}

#[inline(always)]
fn step(a: u32, b: u32, f: u32, i: usize, word: u32) -> u32 {
    let f = f.wrapping_add(a).wrapping_add(K[i]).wrapping_add(word);
    b.wrapping_add(f.rotate_left(S[i]))
}

/// Lowercase hex MD5 digest.
pub fn md5_hex(data: &[u8]) -> String {
    to_hex(&md5(data))
}

pub(crate) fn to_hex(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(char::from(HEX[usize::from(b >> 4)]));
        s.push(char::from(HEX[usize::from(b & 0xf)]));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        let cases = [
            ("", "d41d8cd98f00b204e9800998ecf8427e"),
            ("a", "0cc175b9c0f1b6a831c399e269772661"),
            ("abc", "900150983cd24fb0d6963f7d28e17f72"),
            ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                "abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(md5_hex(input.as_bytes()), want, "md5({input:?})");
        }
    }

    #[test]
    fn block_boundary_lengths() {
        // Lengths straddling the 56-byte padding boundary and the 64-byte block.
        for len in [55, 56, 57, 63, 64, 65, 127, 128] {
            let data = vec![b'x'; len];
            let d = md5(&data);
            assert_eq!(d.len(), 16);
            // Digest must differ from the digest of one fewer byte.
            let d2 = md5(&data[..len - 1]);
            assert_ne!(d, d2, "len {len}");
        }
    }
}
