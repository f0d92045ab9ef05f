//! Paged KV-cache geometry.
//!
//! vLLM's PagedAttention allocates KV cache in fixed-size token blocks;
//! admission and growth decisions in the simulator are made in block units.
//! [`KvGeometry`] converts between tokens, blocks and bytes.

/// Block geometry of a paged KV cache.
///
/// # Examples
///
/// ```
/// use pascal_model::KvGeometry;
///
/// let geo = KvGeometry::new(16, 262_144);
/// assert_eq!(geo.blocks_for_tokens(1), 1);   // rounds up
/// assert_eq!(geo.blocks_for_tokens(16), 1);
/// assert_eq!(geo.blocks_for_tokens(17), 2);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct KvGeometry {
    /// Tokens per block (vLLM default: 16).
    pub block_tokens: u32,
    /// KV bytes per token (from [`crate::LlmSpec::kv_bytes_per_token`]).
    pub bytes_per_token: u64,
}

impl KvGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(block_tokens: u32, bytes_per_token: u64) -> Self {
        assert!(block_tokens > 0, "block_tokens must be non-zero");
        assert!(bytes_per_token > 0, "bytes_per_token must be non-zero");
        KvGeometry {
            block_tokens,
            bytes_per_token,
        }
    }

    /// Bytes occupied by one block.
    #[must_use]
    pub fn block_bytes(&self) -> u64 {
        u64::from(self.block_tokens) * self.bytes_per_token
    }

    /// Blocks needed to hold `tokens` tokens (rounded up).
    #[must_use]
    pub fn blocks_for_tokens(&self, tokens: u64) -> u64 {
        tokens.div_ceil(u64::from(self.block_tokens))
    }

    /// Bytes needed to hold `tokens` tokens after block rounding.
    #[must_use]
    pub fn bytes_for_tokens(&self, tokens: u64) -> u64 {
        self.blocks_for_tokens(tokens) * self.block_bytes()
    }

    /// How many whole blocks fit in `capacity_bytes`.
    #[must_use]
    pub fn blocks_in(&self, capacity_bytes: u64) -> u64 {
        capacity_bytes / self.block_bytes()
    }

    /// How many tokens fit in `capacity_bytes` after block quantization.
    #[must_use]
    pub fn tokens_in(&self, capacity_bytes: u64) -> u64 {
        self.blocks_in(capacity_bytes) * u64::from(self.block_tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn geo() -> KvGeometry {
        KvGeometry::new(16, 262_144)
    }

    #[test]
    fn zero_tokens_need_zero_blocks() {
        assert_eq!(geo().blocks_for_tokens(0), 0);
        assert_eq!(geo().bytes_for_tokens(0), 0);
    }

    #[test]
    fn block_bytes_is_product() {
        assert_eq!(geo().block_bytes(), 16 * 262_144);
    }

    #[test]
    fn capacity_quantizes_down() {
        let g = geo();
        let cap = g.block_bytes() * 10 + 1; // one byte over 10 blocks
        assert_eq!(g.blocks_in(cap), 10);
        assert_eq!(g.tokens_in(cap), 160);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_block_rejected() {
        let _ = KvGeometry::new(0, 1);
    }

    proptest! {
        /// Round-trip: bytes_for_tokens always covers the tokens, and never
        /// overshoots by more than one block.
        #[test]
        fn prop_rounding_tight(tokens in 0u64..10_000_000) {
            let g = geo();
            let bytes = g.bytes_for_tokens(tokens);
            prop_assert!(bytes >= tokens * g.bytes_per_token);
            prop_assert!(bytes < tokens * g.bytes_per_token + g.block_bytes());
        }

        /// blocks_for_tokens is monotone.
        #[test]
        fn prop_blocks_monotone(a in 0u64..1_000_000, b in 0u64..1_000_000) {
            let g = geo();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(g.blocks_for_tokens(lo) <= g.blocks_for_tokens(hi));
        }
    }
}
