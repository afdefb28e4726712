//! Seeded input generators.
//!
//! The ledger owns its generators (rather than borrowing the repo's
//! simulation RNG) so that the inputs of a given seed stay byte-identical
//! across commits of the program under test. The seed reaches only this
//! module; the stack sees payload bytes, keys and values.

/// splitmix64: tiny, fast, and good enough to drive Zipf sampling.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeds the stream.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The splitmix64 output function, also used as a stateless hash.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Length of the random tape echo payloads are cut from.
const TAPE_BYTES: usize = 64 * 1024;

/// Echo payloads: request `seq` carries a `len`-byte window of a
/// seed-derived random tape, so consecutive requests differ and a reply
/// delivered to the wrong call cannot compare equal.
#[derive(Clone, Debug)]
pub struct EchoGen {
    tape: Vec<u8>,
    len: usize,
}

impl EchoGen {
    /// Payloads of `len` bytes (at most half the tape) from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds half the tape; the ledger's sizes are 24
    /// and 2040.
    pub fn new(seed: u64, len: usize) -> Self {
        assert!(len <= TAPE_BYTES / 2, "echo payload {len} too large");
        let mut rng = SplitMix64::new(seed ^ 0xEC40);
        let mut tape = Vec::with_capacity(TAPE_BYTES);
        while tape.len() < TAPE_BYTES {
            tape.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        EchoGen { tape, len }
    }

    /// The blob request `seq` carries (and its reply must echo).
    pub fn blob(&self, seq: u32) -> &[u8] {
        // An odd stride walks every offset before repeating.
        let span = self.tape.len() - self.len;
        let off = (seq as usize).wrapping_mul(97) % span;
        &self.tape[off..off + self.len]
    }
}

/// Zipf sampler over `n` ranks by inverse-CDF lookup. Rank 0 is the most
/// popular.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Zipf with exponent `s` over `n >= 1` ranks.
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n.max(1));
        let mut acc = 0.0;
        for rank in 1..=n.max(1) {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws a rank in `0..n`.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Key size of the KVS workloads (the paper's *small* dataset).
pub const KEY_BYTES: usize = 16;
/// Value size of the KVS workloads.
pub const VALUE_BYTES: usize = 32;

/// One generated KVS operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KvOp {
    /// Index of the key in the key space.
    pub key_id: u32,
    /// GET when true, SET otherwise.
    pub is_get: bool,
    /// For a SET: the version the value carries. For a GET: the version
    /// the reply must carry (the model's current one).
    pub version: u64,
}

/// The KVS op stream plus the model map the correctness gate checks
/// replies against: each SET stamps the key's next version into the value,
/// so a GET that returns anything but the latest acknowledged version is
/// detectably stale.
#[derive(Clone, Debug)]
pub struct KvGen {
    seed: u64,
    rng: SplitMix64,
    zipf: Zipf,
    /// Popularity rank -> key id, so hot keys are scattered over the id
    /// space (and over hash buckets) rather than being ids 0, 1, 2.
    perm: Vec<u32>,
    get_permille: u32,
    versions: Vec<u64>,
}

impl KvGen {
    /// `keys` keys with Zipf exponent `skew`, `get_permille` GETs per
    /// thousand operations.
    pub fn new(seed: u64, keys: usize, skew: f64, get_permille: u32) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x6B76);
        let mut perm: Vec<u32> = (0..keys as u32).collect();
        for i in (1..perm.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        KvGen {
            seed,
            rng,
            zipf: Zipf::new(keys, skew),
            perm,
            get_permille,
            versions: vec![0; keys],
        }
    }

    /// Number of keys.
    pub fn keys(&self) -> usize {
        self.versions.len()
    }

    /// Draws the next operation and, for a SET, advances the model.
    pub fn next_op(&mut self) -> KvOp {
        let key_id = self.perm[self.zipf.sample(&mut self.rng)];
        let is_get = self.rng.next_u64() % 1000 < u64::from(self.get_permille);
        let slot = &mut self.versions[key_id as usize];
        if !is_get {
            *slot += 1;
        }
        KvOp {
            key_id,
            is_get,
            version: *slot,
        }
    }

    /// Key bytes of `key_id`: the id, then seed-derived filler.
    pub fn key(&self, key_id: u32) -> [u8; KEY_BYTES] {
        let mut key = [0u8; KEY_BYTES];
        key[..8].copy_from_slice(&u64::from(key_id).to_le_bytes());
        key[8..].copy_from_slice(&mix(self.seed ^ u64::from(key_id)).to_le_bytes());
        key
    }

    /// Value bytes of `key_id` at `version`: the version stamp, the key
    /// id, then filler that depends on seed, key and version.
    pub fn value(&self, key_id: u32, version: u64) -> [u8; VALUE_BYTES] {
        let mut value = [0u8; VALUE_BYTES];
        value[..8].copy_from_slice(&version.to_le_bytes());
        value[8..12].copy_from_slice(&key_id.to_le_bytes());
        let mut fill = SplitMix64::new(self.seed ^ (u64::from(key_id) << 32) ^ version);
        for chunk in value[12..].chunks_mut(8) {
            let word = fill.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
        value
    }

    /// The version stamp a value carries.
    pub fn version_of(value: &[u8]) -> Option<u64> {
        Some(u64::from_le_bytes(value.get(..8)?.try_into().ok()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(seed: u64, n: usize) -> Vec<KvOp> {
        let mut g = KvGen::new(seed, 1000, 0.99, 500);
        (0..n).map(|_| g.next_op()).collect()
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        assert_eq!(ops(7, 5000), ops(7, 5000));
        assert_ne!(ops(7, 5000), ops(8, 5000));
        let (a, b) = (EchoGen::new(7, 24), EchoGen::new(8, 24));
        assert_eq!(a.blob(3), EchoGen::new(7, 24).blob(3));
        assert_ne!(a.blob(3), b.blob(3));
        assert_ne!(a.blob(3), a.blob(4));
        assert_eq!(a.blob(3).len(), 24);
    }

    #[test]
    fn keys_and_values_depend_on_seed_id_and_version() {
        let g = KvGen::new(1, 100, 0.99, 950);
        let h = KvGen::new(2, 100, 0.99, 950);
        assert_ne!(g.key(5), g.key(6));
        assert_ne!(g.key(5), h.key(5));
        assert_ne!(g.value(5, 1), g.value(5, 2));
        assert_ne!(g.value(5, 1), g.value(6, 1));
        assert_eq!(KvGen::version_of(&g.value(5, 42)), Some(42));
        assert_eq!(KvGen::version_of(&[1, 2, 3]), None);
    }

    #[test]
    fn model_versions_follow_the_sets() {
        let mut g = KvGen::new(3, 50, 0.99, 500);
        let mut model = vec![0u64; 50];
        for _ in 0..2000 {
            let op = g.next_op();
            if !op.is_get {
                model[op.key_id as usize] += 1;
            }
            assert_eq!(op.version, model[op.key_id as usize]);
        }
    }

    #[test]
    fn mix_respects_get_share_and_zipf_is_skewed() {
        let all = ops(11, 20_000);
        let gets = all.iter().filter(|o| o.is_get).count();
        assert!((9_000..11_000).contains(&gets), "gets = {gets}");
        let mut counts = vec![0u32; 1000];
        for o in &all {
            counts[o.key_id as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u32 = counts[..10].iter().sum();
        // Zipf 0.99 over 1000 keys puts ~39% of draws on the top ten.
        assert!(top10 > 6_000, "top-10 share too flat: {top10}");
        let z = Zipf::new(1, 0.99);
        assert_eq!(z.sample(&mut SplitMix64::new(1)), 0);
    }
}
