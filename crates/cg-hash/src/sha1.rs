//! SHA-1 (RFC 3174 / FIPS 180-1).

/// Computes the SHA-1 digest of `data`.
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut h: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];
    let mut blocks = data.chunks_exact(64);
    for block in &mut blocks {
        compress(&mut h, block);
    }
    // Padding: 0x80, zeros, then the 64-bit big-endian bit length.
    let bit_len = (data.len() as u64).wrapping_mul(8);
    let mut tail = [0u8; 128];
    let n = crate::md5::pad_tail(blocks.remainder(), &mut tail);
    tail[n - 8..n].copy_from_slice(&bit_len.to_be_bytes());
    for block in tail[..n].chunks_exact(64) {
        compress(&mut h, block);
    }

    let mut out = [0u8; 20];
    for (i, word) in h.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

fn compress(h: &mut [u32; 5], block: &[u8]) {
    let mut w = [0u32; 80];
    for (i, word) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }
    let [mut a, mut b, mut c, mut d, mut e] = *h;
    // One loop per round function, each unrolled with its constant.
    for &wi in &w[..20] {
        let f = (b & c) | (!b & d);
        (a, b, c, d, e) = (step(a, e, f, 0x5A827999, wi), a, b.rotate_left(30), c, d);
    }
    for &wi in &w[20..40] {
        let f = b ^ c ^ d;
        (a, b, c, d, e) = (step(a, e, f, 0x6ED9EBA1, wi), a, b.rotate_left(30), c, d);
    }
    for &wi in &w[40..60] {
        let f = (b & c) | (b & d) | (c & d);
        (a, b, c, d, e) = (step(a, e, f, 0x8F1BBCDC, wi), a, b.rotate_left(30), c, d);
    }
    for &wi in &w[60..] {
        let f = b ^ c ^ d;
        (a, b, c, d, e) = (step(a, e, f, 0xCA62C1D6, wi), a, b.rotate_left(30), c, d);
    }
    for (s, v) in h.iter_mut().zip([a, b, c, d, e]) {
        *s = s.wrapping_add(v);
    }
}

#[inline(always)]
fn step(a: u32, e: u32, f: u32, k: u32, word: u32) -> u32 {
    a.rotate_left(5)
        .wrapping_add(f)
        .wrapping_add(e)
        .wrapping_add(k)
        .wrapping_add(word)
}

/// Lowercase hex SHA-1 digest.
pub fn sha1_hex(data: &[u8]) -> String {
    crate::md5::to_hex(&sha1(data))
}

#[cfg(test)]
mod tests {
    use super::*;

    // FIPS 180-1 / RFC 3174 test vectors.
    #[test]
    fn fips_vectors() {
        let cases = [
            ("abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
            (
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            ),
            ("", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            (
                "The quick brown fox jumps over the lazy dog",
                "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(sha1_hex(input.as_bytes()), want, "sha1({input:?})");
        }
    }

    #[test]
    fn million_a() {
        // The classic 1,000,000 x 'a' vector.
        let data = vec![b'a'; 1_000_000];
        assert_eq!(sha1_hex(&data), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn block_boundary_lengths() {
        for len in [55, 56, 57, 63, 64, 65] {
            let data = vec![b'q'; len];
            assert_ne!(sha1(&data), sha1(&data[..len - 1]), "len {len}");
        }
    }
}
