//! KVS workloads (§5.6).
//!
//! "We generate two types of datasets similar to the ones used to evaluate
//! MICA: tiny (8 B keys and 8 B values) and small (16 B keys and 32 B
//! values). We populate both memcached and MICA KVS with 10 M and 200 M
//! unique key-value pairs respectively, and access them following a Zipfian
//! distribution with skewness of 0.99" — plus the 0.9999 high-locality
//! variant, and write-intensive (50/50) vs read-intensive (95/5) mixes.

use dagger_sim::dist::Zipf;
use dagger_sim::Rng;

/// One generated operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvOp {
    /// Read `key`.
    Get {
        /// Key bytes.
        key: Vec<u8>,
    },
    /// Write `key` = `value`.
    Set {
        /// Key bytes.
        key: Vec<u8>,
        /// Value bytes.
        value: Vec<u8>,
    },
}

impl KvOp {
    /// The operation's key.
    pub fn key(&self) -> &[u8] {
        match self {
            KvOp::Get { key } | KvOp::Set { key, .. } => key,
        }
    }

    /// `true` for GETs.
    pub fn is_get(&self) -> bool {
        matches!(self, KvOp::Get { .. })
    }
}

/// Dataset and mix parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Number of unique keys.
    pub keys: u64,
    /// Key size in bytes (≥ 8; keys embed a little-endian id).
    pub key_len: usize,
    /// Value size in bytes.
    pub val_len: usize,
    /// Fraction of GET operations (0.95 = read-intensive, 0.5 =
    /// write-intensive).
    pub get_fraction: f64,
    /// Zipf skew of key popularity.
    pub zipf_skew: f64,
}

impl WorkloadSpec {
    /// The paper's *tiny* dataset: 8 B keys, 8 B values, 10 M keys.
    pub fn tiny() -> Self {
        WorkloadSpec {
            keys: 10_000_000,
            key_len: 8,
            val_len: 8,
            get_fraction: 0.5,
            zipf_skew: 0.99,
        }
    }

    /// The paper's *small* dataset: 16 B keys, 32 B values, 200 M keys.
    pub fn small() -> Self {
        WorkloadSpec {
            keys: 200_000_000,
            key_len: 16,
            val_len: 32,
            get_fraction: 0.5,
            zipf_skew: 0.99,
        }
    }

    /// Switches to the read-intensive 95/5 mix.
    pub fn read_intensive(mut self) -> Self {
        self.get_fraction = 0.95;
        self
    }

    /// Switches to the write-intensive 50/50 mix.
    pub fn write_intensive(mut self) -> Self {
        self.get_fraction = 0.5;
        self
    }

    /// Scales the key count down (functional tests cannot hold 200 M keys).
    pub fn with_keys(mut self, keys: u64) -> Self {
        self.keys = keys;
        self
    }

    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics if sizes or fractions are out of range.
    fn check(&self) {
        assert!(self.keys > 0, "need at least one key");
        assert!(self.key_len >= 8, "keys embed an 8-byte id");
        assert!((0.0..=1.0).contains(&self.get_fraction));
    }
}

/// A deterministic operation generator.
#[derive(Debug)]
pub struct KvWorkload {
    spec: WorkloadSpec,
    zipf: Zipf,
    rng: Rng,
}

impl KvWorkload {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid.
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        spec.check();
        KvWorkload {
            spec,
            zipf: Zipf::new(spec.keys, spec.zipf_skew),
            rng: Rng::new(seed),
        }
    }

    /// The spec this generator follows.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Materializes the key bytes for key id `id`.
    pub fn key_bytes(&self, id: u64) -> Vec<u8> {
        let mut key = vec![0u8; self.spec.key_len];
        key[..8].copy_from_slice(&id.to_le_bytes());
        // Fill the tail deterministically so longer keys are not mostly
        // zeroes (affects hashing realism).
        for (i, b) in key[8..].iter_mut().enumerate() {
            *b = (id.rotate_left(i as u32 + 1) & 0xFF) as u8;
        }
        key
    }

    /// Materializes the value bytes for key id `id`.
    pub fn value_bytes(&self, id: u64) -> Vec<u8> {
        let mut val = vec![0u8; self.spec.val_len];
        let tag = id.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes();
        for (i, b) in val.iter_mut().enumerate() {
            *b = tag[i % 8];
        }
        val
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> KvOp {
        let id = self.zipf.sample(&mut self.rng);
        let key = self.key_bytes(id);
        if self.rng.chance(self.spec.get_fraction) {
            KvOp::Get { key }
        } else {
            let value = self.value_bytes(id);
            KvOp::Set { key, value }
        }
    }

    /// Pre-populates a store via `set` for the first `n` key ids (the
    /// paper populates all keys; tests use a prefix).
    pub fn populate<F: FnMut(&[u8], &[u8])>(&self, n: u64, mut set: F) {
        for id in 0..n.min(self.spec.keys) {
            set(&self.key_bytes(id), &self.value_bytes(id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_paper() {
        let tiny = WorkloadSpec::tiny();
        assert_eq!((tiny.key_len, tiny.val_len, tiny.keys), (8, 8, 10_000_000));
        let small = WorkloadSpec::small();
        assert_eq!(
            (small.key_len, small.val_len, small.keys),
            (16, 32, 200_000_000)
        );
        assert_eq!(tiny.zipf_skew, 0.99);
    }

    #[test]
    fn mix_fractions_converge() {
        let mut w = KvWorkload::new(WorkloadSpec::tiny().with_keys(1000).read_intensive(), 1);
        let n = 20_000;
        let gets = (0..n).filter(|_| w.next_op().is_get()).count();
        let frac = gets as f64 / n as f64;
        assert!((frac - 0.95).abs() < 0.01, "get fraction {frac}");
    }

    #[test]
    fn deterministic_for_seed() {
        let mut a = KvWorkload::new(WorkloadSpec::tiny().with_keys(1000), 7);
        let mut b = KvWorkload::new(WorkloadSpec::tiny().with_keys(1000), 7);
        for _ in 0..100 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn keys_have_spec_length_and_unique_ids() {
        let w = KvWorkload::new(WorkloadSpec::small().with_keys(100), 1);
        let k1 = w.key_bytes(1);
        let k2 = w.key_bytes(2);
        assert_eq!(k1.len(), 16);
        assert_ne!(k1, k2);
    }

    #[test]
    fn zipf_popularity_is_skewed() {
        let mut w = KvWorkload::new(WorkloadSpec::tiny().with_keys(100_000), 3);
        let n = 50_000;
        let top = (0..n)
            .filter(|_| {
                let op = w.next_op();
                u64::from_le_bytes(op.key()[..8].try_into().unwrap()) < 10
            })
            .count();
        assert!(
            top as f64 / n as f64 > 0.15,
            "top-10 keys got only {top}/{n}"
        );
    }

    #[test]
    fn populate_visits_prefix() {
        let w = KvWorkload::new(WorkloadSpec::tiny().with_keys(50), 1);
        let mut count = 0;
        w.populate(10, |_, _| count += 1);
        assert_eq!(count, 10);
        let mut all = 0;
        w.populate(500, |_, _| all += 1);
        assert_eq!(all, 50, "clamped at key count");
    }
}
