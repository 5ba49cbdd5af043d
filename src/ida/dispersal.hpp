// Rabin information dispersal (the Schuster 1987 memory scheme's coding
// substrate, as described in the paper's §1):
//
//   a block of b field elements is recoded into d >= b elements such that
//   ANY b of the d recoded elements recover the block exactly.
//
// Encoding evaluates the degree-(b-1) polynomial whose coefficients are
// the block at d distinct nonzero points alpha^0..alpha^(d-1); recovery is
// Lagrange interpolation from any b (point, value) pairs. Storage grows by
// the constant factor d/b while tolerating d-b erasures.
//
// P-RAM words are dispersed lane-wise: each of the 8 bytes of a 64-bit
// word is an independent GF(256) stream, so a "share" is itself a word.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ida/gf256.hpp"
#include "pram/types.hpp"

namespace pramsim::ida {

struct IdaParams {
  std::uint32_t b = 4;  ///< block length (elements needed to recover)
  std::uint32_t d = 8;  ///< shares produced (d - b erasures tolerated)
};

class Disperser {
 public:
  explicit Disperser(IdaParams params);

  [[nodiscard]] std::uint32_t b() const { return params_.b; }
  [[nodiscard]] std::uint32_t d() const { return params_.d; }
  /// Storage expansion factor d/b (the paper's "constant factor").
  [[nodiscard]] double storage_factor() const {
    return static_cast<double>(params_.d) / params_.b;
  }

  // ---- byte-level primitives ----

  /// Encode b bytes into d shares.
  [[nodiscard]] std::vector<GF256::Elem> encode_bytes(
      std::span<const GF256::Elem> block) const;

  /// Recover the b block bytes from any b (share_index, value) pairs.
  /// Indices must be distinct and < d.
  [[nodiscard]] std::vector<GF256::Elem> recover_bytes(
      std::span<const std::uint32_t> indices,
      std::span<const GF256::Elem> values) const;

  // ---- word-level (lane-wise) API used by the memory scheme ----

  /// Encode b words into d share-words (8 independent byte lanes).
  [[nodiscard]] std::vector<pram::Word> encode_words(
      std::span<const pram::Word> block) const;

  /// Recover b words from any b (share_index, share_word) pairs.
  [[nodiscard]] std::vector<pram::Word> recover_words(
      std::span<const std::uint32_t> indices,
      std::span<const pram::Word> shares) const;

  // ---- bulk region codec (spans of blocks) ----
  //
  // The per-word API above re-derives the evaluation geometry on every
  // call (and allocates its results); the region codec instead applies a
  // precomputed GF(256) matrix to whole spans with
  // GF256::mul_span_accum, so the setup is amortized over `count`
  // blocks and each span multiply streams count * 8 bytes through the
  // vector kernel. IdaMemory::serve calls it twice per step: one decode
  // of every plan group's gathered shares, one encode of every written
  // block. Bit-identical to calling encode_words / recover_words once
  // per block: both sides are exact field arithmetic evaluating the same
  // polynomials.
  //
  // Layouts: `blocks` is block-major (word j of the t-th block at
  // blocks[t*b + j], matching IdaMemory's decoded-store layout);
  // share spans are strided (the span for position s starts at
  // shares[s * stride], its t-th word belonging to the t-th block), so
  // the codec reads a single block straight from IdaMemory's
  // share-major region rows (stride = region_blocks) as well as the
  // dense spans serve() gathers (stride = count).

  /// Bulk encode: recode `count` consecutive blocks into the d share
  /// spans at shares[i * stride .. i * stride + count).
  void encode_regions(const pram::Word* blocks, std::uint32_t count,
                      pram::Word* shares, std::size_t stride) const;

  /// Bulk decode from b share spans: position j's span (at
  /// shares[j * stride]) holds the words of share index indices[j].
  /// Indices must be distinct and < d.
  void decode_regions(std::span<const std::uint32_t> indices,
                      const pram::Word* shares, std::size_t stride,
                      std::uint32_t count, pram::Word* blocks_out) const;

 private:
  /// The b x b recovery matrix M for a survivor index set: block word k
  /// is sum_j M[k*b + j] * share_value[j] (the Lagrange interpolation of
  /// recover_bytes with the value-independent factors folded together).
  void recovery_matrix_into(std::span<const std::uint32_t> indices,
                            std::vector<GF256::Elem>& out) const;

  IdaParams params_;
  /// Generator matrix: share i draws coefficient gen_[i*b + j] from block
  /// word j (polynomial evaluation at alpha^i, written as a dot product).
  std::vector<GF256::Elem> gen_;
  /// Cached recovery matrix for the healthy survivor set {0..b-1} (the
  /// only set the healthy serve path ever uses), built on first use.
  mutable std::vector<GF256::Elem> healthy_matrix_;
  // Scratch reused across bulk calls (transpose buffers and the matrix
  // for arbitrary survivor sets); mutable because the codec is logically
  // const and IdaMemory decodes from const paths (peek).
  mutable std::vector<GF256::Elem> matrix_scratch_;
  mutable std::vector<pram::Word> span_scratch_;
};

}  // namespace pramsim::ida
