//! Cost-relevant architecture description of a served LLM.
//!
//! The scheduler never needs real weights: every decision in the paper is a
//! function of per-token KV-cache bytes, total weight bytes, and FLOP counts.
//! [`LlmSpec`] captures exactly those quantities, derived from the public
//! architecture of each model.

/// Architecture parameters of a transformer LLM, reduced to what the serving
/// simulator needs: memory footprints and FLOP counts.
///
/// # Examples
///
/// ```
/// use pascal_model::LlmSpec;
///
/// let llm = LlmSpec::deepseek_r1_distill_qwen_32b();
/// // GQA: 2 (K and V) x 64 layers x 8 KV heads x 128 head dim x 2 bytes.
/// assert_eq!(llm.kv_bytes_per_token(), 262_144);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct LlmSpec {
    /// Human-readable model name.
    pub name: String,
    /// Total parameter count.
    pub params: u64,
    /// Number of transformer layers.
    pub num_layers: u32,
    /// Model (embedding) dimension.
    pub hidden_dim: u32,
    /// Number of query heads.
    pub num_query_heads: u32,
    /// Number of key/value heads (< query heads under GQA).
    pub num_kv_heads: u32,
    /// Dimension of each attention head.
    pub head_dim: u32,
    /// Bytes per weight element (2 for FP16/BF16).
    pub weight_bytes_per_param: u32,
    /// Bytes per KV-cache element (2 for FP16 KV).
    pub kv_bytes_per_elem: u32,
}

impl LlmSpec {
    /// DeepSeek-R1-Distill-Qwen-32B, the model evaluated throughout the
    /// paper (§III-A, §V-A). Qwen2.5-32B architecture: 64 layers, hidden
    /// 5120, 40 query heads, 8 KV heads (GQA), head dim 128, BF16.
    #[must_use]
    pub fn deepseek_r1_distill_qwen_32b() -> Self {
        LlmSpec {
            name: "DeepSeek-R1-Distill-Qwen-32B".to_owned(),
            params: 32_760_000_000,
            num_layers: 64,
            hidden_dim: 5_120,
            num_query_heads: 40,
            num_kv_heads: 8,
            head_dim: 128,
            weight_bytes_per_param: 2,
            kv_bytes_per_elem: 2,
        }
    }

    /// DeepSeek-R1-Distill-Qwen-14B: a smaller reasoning model, useful for
    /// sensitivity studies (48 layers, hidden 5120, 8 KV heads).
    #[must_use]
    pub fn deepseek_r1_distill_qwen_14b() -> Self {
        LlmSpec {
            name: "DeepSeek-R1-Distill-Qwen-14B".to_owned(),
            params: 14_770_000_000,
            num_layers: 48,
            hidden_dim: 5_120,
            num_query_heads: 40,
            num_kv_heads: 8,
            head_dim: 128,
            weight_bytes_per_param: 2,
            kv_bytes_per_elem: 2,
        }
    }

    /// DeepSeek-R1-Distill-Qwen-7B (28 layers, hidden 3584, 4 KV heads).
    #[must_use]
    pub fn deepseek_r1_distill_qwen_7b() -> Self {
        LlmSpec {
            name: "DeepSeek-R1-Distill-Qwen-7B".to_owned(),
            params: 7_620_000_000,
            num_layers: 28,
            hidden_dim: 3_584,
            num_query_heads: 28,
            num_kv_heads: 4,
            head_dim: 128,
            weight_bytes_per_param: 2,
            kv_bytes_per_elem: 2,
        }
    }

    /// KV-cache bytes appended per generated (or prefilled) token:
    /// `2 * layers * kv_heads * head_dim * bytes_per_elem`.
    #[must_use]
    pub fn kv_bytes_per_token(&self) -> u64 {
        2 * u64::from(self.num_layers)
            * u64::from(self.num_kv_heads)
            * u64::from(self.head_dim)
            * u64::from(self.kv_bytes_per_elem)
    }

    /// Total bytes of model weights resident on each serving instance.
    #[must_use]
    pub fn weight_bytes(&self) -> u64 {
        self.params * u64::from(self.weight_bytes_per_param)
    }

    /// Dense FLOPs to process one token through the model (the classic
    /// `2 * params` estimate for matmul-dominated transformers).
    #[must_use]
    pub fn flops_per_token(&self) -> f64 {
        2.0 * self.params as f64
    }

    /// Additional attention FLOPs for one token attending over `context`
    /// previous tokens: `4 * hidden * layers * context` (QKᵀ plus AV).
    #[must_use]
    pub fn attention_flops_per_token(&self, context: u64) -> f64 {
        4.0 * f64::from(self.hidden_dim) * f64::from(self.num_layers) * context as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qwen32b_kv_footprint_is_256_kib() {
        let llm = LlmSpec::deepseek_r1_distill_qwen_32b();
        assert_eq!(llm.kv_bytes_per_token(), 256 * 1024);
    }

    #[test]
    fn qwen32b_weights_are_about_65_gb() {
        let llm = LlmSpec::deepseek_r1_distill_qwen_32b();
        let gb = llm.weight_bytes() as f64 / 1e9;
        assert!((64.0..68.0).contains(&gb), "weights {gb} GB out of range");
    }

    #[test]
    fn smaller_models_cost_less() {
        let big = LlmSpec::deepseek_r1_distill_qwen_32b();
        let mid = LlmSpec::deepseek_r1_distill_qwen_14b();
        let small = LlmSpec::deepseek_r1_distill_qwen_7b();
        assert!(big.kv_bytes_per_token() > mid.kv_bytes_per_token());
        assert!(mid.kv_bytes_per_token() > small.kv_bytes_per_token());
        assert!(big.weight_bytes() > mid.weight_bytes());
        assert!(big.flops_per_token() > small.flops_per_token());
    }

    #[test]
    fn attention_flops_grow_with_context() {
        let llm = LlmSpec::deepseek_r1_distill_qwen_32b();
        assert!(llm.attention_flops_per_token(2048) > llm.attention_flops_per_token(128));
        assert_eq!(llm.attention_flops_per_token(0), 0.0);
    }
}
