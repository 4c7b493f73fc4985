//! Seeded input generation: PRNG, zipf sampler, word text, edits and
//! block bodies. Everything here is a pure function of the seed, so the
//! same seed gives the same inputs on every host and every commit.

/// xoshiro256** seeded through splitmix64.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so independent
    /// input streams (setup, loop, values) do not share draws.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut st = seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03);
        Rng {
            s: [
                splitmix(&mut st),
                splitmix(&mut st),
                splitmix(&mut st),
                splitmix(&mut st),
            ],
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

/// Zipf sampler over ranks `[0, n)` (rank 0 most popular), by the
/// Gray et al. method YCSB uses: O(n) set-up, O(1) per draw.
#[derive(Clone, Debug)]
pub struct Zipf {
    n: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    half_pow_theta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(
            n >= 2 && theta > 0.0 && theta < 1.0,
            "zipf needs n >= 2, 0 < theta < 1"
        );
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(2);
        let nf = n as f64;
        Zipf {
            n: nf,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / nf).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
            half_pow_theta: 0.5f64.powf(theta),
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1;
        }
        let r = (self.n * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n as u64 - 1)
    }
}

/// Spreads zipf ranks over `[0, n)` so the hot items are not adjacent
/// keys: `rank * step mod n` with `step` coprime to `n`.
#[derive(Clone, Copy, Debug)]
pub struct Scatter {
    n: u64,
    step: u64,
}

impl Scatter {
    pub fn new(n: u64) -> Scatter {
        let mut step = (0x9E37_79B9u64 % n).max(1);
        while gcd(step, n) != 1 {
            step += 1;
        }
        Scatter { n, step }
    }

    pub fn map(&self, rank: u64) -> u64 {
        (rank as u128 * self.step as u128 % self.n as u128) as u64
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// A fixed vocabulary of lower-case pseudo-words drawn from the seed.
pub struct Words {
    words: Vec<Vec<u8>>,
}

impl Words {
    pub fn new(seed: u64) -> Words {
        let mut rng = Rng::new(seed, 0x57_4F_52_44);
        let words = (0..2048)
            .map(|_| {
                let len = 2 + rng.below(8) as usize;
                (0..len).map(|_| b'a' + rng.below(26) as u8).collect()
            })
            .collect();
        Words { words }
    }

    /// Exactly `len` bytes of space-separated words.
    pub fn text(&self, rng: &mut Rng, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 16);
        while out.len() < len {
            // Skewed word choice, as in natural text.
            let w = &self.words[(rng.below(2048) * rng.below(2048) / 2048) as usize];
            out.extend_from_slice(w);
            out.push(if rng.below(12) == 0 { b'\n' } else { b' ' });
        }
        out.truncate(len);
        out
    }
}

/// 64-bit digest for the shadow models (FNV-1a over 8-byte words, then
/// a splitmix finalizer).
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ bytes.len() as u64;
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h = (h ^ u64::from_le_bytes(w)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    splitmix(&mut h)
}

/// Body of block number `id`: 3.5–4.5 KB of pseudo-random bytes
/// determined by `(seed, id)`, prefixed with the id so no two bodies
/// share a leaf.
pub fn block_body(seed: u64, id: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed, 0xB10C ^ id.rotate_left(17));
    let len = 3584 + rng.below(1024) as usize;
    let mut out = vec![0u8; len];
    out[..8].copy_from_slice(&id.to_be_bytes());
    rng.fill(&mut out[8..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        let mut c = Rng::new(7, 2);
        let xa: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let xb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let xc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = Rng::new(1, 1);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[500]);
    }

    #[test]
    fn scatter_is_a_permutation() {
        let n = 1000;
        let scatter = Scatter::new(n);
        let mut seen = vec![false; n as usize];
        for r in 0..n {
            seen[scatter.map(r) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
