// IdaMemory: the Schuster (1987) shared-memory organization the paper
// contrasts with its own (§1): the m variables are grouped into m/b
// blocks; each block is recoded into d = Theta(b) shares stored on d
// distinct modules. Storage grows by the constant factor d/b — like the
// paper's scheme, constant redundancy — but every access must decode a
// whole block, so Theta(b) = Theta(log n) variables are *processed* per
// variable accessed. The bench contrasts exactly this trade.
//
// Cost model: modules serve one share per round. Reads fetch the b shares
// of the block whose modules are least loaded this step (the slack d - b
// is the scheme's congestion-dodging trick); writes are read-modify-write
// and must update all d shares. Reads of a step are served first (they
// see pre-step state), then writes commit.
//
// Share storage is sparse (same trick as the sparse majority::CopyStore):
// a region's share row is materialized on the first write into it;
// untouched blocks read as all-zero shares, which is exactly the
// encoding of the all-zero block (the code is linear), so full-scale
// memories (m = n^k) are cheap to build.
//
// Under pram::FaultHooks the scheme runs degraded: shares on dead modules
// are erasures, reconstruction interpolates from ANY b surviving share
// indices (the erasure-code guarantee, exercised for real), and a block
// with fewer than b survivors is uncorrectable. Silently corrupted or
// stuck shares poison the Lagrange interpolation — IDA is an erasure
// code, not an error-correcting one, which is exactly the reliability
// contrast with majority voting.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ida/dispersal.hpp"
#include "memmap/memory_map.hpp"
#include "pram/memory_system.hpp"
#include "pram/relocation.hpp"
#include "util/paged_rows.hpp"
#include "util/stats.hpp"

namespace pramsim::ida {

struct IdaMemoryConfig {
  std::uint32_t b = 4;          ///< block size (variables per block)
  std::uint32_t d = 8;          ///< shares per block
  std::uint32_t n_modules = 64; ///< modules shares are spread over (>= d)
  std::uint64_t seed = 1;       ///< share-placement seed
  /// Store a per-share checksum word alongside every share and verify it
  /// on decode: a share whose value no longer matches its checksum
  /// (stuck cell, silently corrupted store) is DETECTED and excluded
  /// from the interpolation like an erasure — silent block poisoning
  /// becomes a masked fault (enough survivors) or a flagged outage (too
  /// few), never a lie. Costs one extra word per share (storage factor
  /// 2d/b instead of d/b); bench_faults quantifies the trade.
  bool check_shares = false;
  /// Storage region granularity in BLOCKS: each region row stores the
  /// shares of this many consecutive blocks contiguously per share index
  /// (share-major). 1 (the default) reproduces the classic
  /// one-row-per-block layout bit for bit. serve() recodes a whole step
  /// in bulk codec calls at any width; the width only changes how many
  /// blocks share a row. Fault and checksum granularity stay per share
  /// WORD at any width.
  std::uint32_t region_blocks = 1;
};

class IdaMemory final : public pram::MemorySystem {
 public:
  IdaMemory(std::uint64_t m_vars, IdaMemoryConfig config);

  /// The plan's groups ARE this scheme's blocks
  /// (plan_group_of = block index). The groups' share placements are
  /// computed once per step by one HashedMap::copies_batch call, with
  /// the scrub relocations applied per group; phase 1 charges read
  /// groups, phase 2 write groups, both in ascending block order. The
  /// coding is step-batched:
  ///   * healthy: every group is read or written (writes are
  ///     read-modify-write), so the b stored shares of EVERY group are
  ///     gathered into share-major spans and decoded by one
  ///     Disperser::decode_regions call;
  ///   * under fault hooks: each block decodes alone from its own
  ///     survivor set, read groups in phase 1 and write-only groups in
  ///     phase 2, so journal events and counters keep their order;
  ///   * both: after the writes are applied, one encode_regions call
  ///     recodes every written block, and store_block stores them in
  ///     ascending block order.
  /// Exact field arithmetic makes the batched codec bit-identical to
  /// per-block coding. Reads of an under-threshold block are flagged in
  /// `ctx`. Every non-empty plan must be grouped (plans built for this
  /// memory are). Serial under every backend: the least-loaded share
  /// pick makes groups interdependent, so this scheme does not advertise
  /// kGroupParallel.
  pram::MemStepCost serve(const pram::AccessPlan& plan,
                          pram::ServeContext& ctx) override;

  /// Plans group by block: requests in one group share one decode.
  [[nodiscard]] std::uint64_t plan_group_of(VarId var) const override {
    return block_of(var);
  }
  [[nodiscard]] bool wants_plan_groups() const override { return true; }

  [[nodiscard]] std::uint64_t size() const override { return m_vars_; }
  [[nodiscard]] pram::Word peek(VarId var) const override;
  void poke(VarId var, pram::Word value) override;
  [[nodiscard]] double storage_redundancy() const override {
    return disperser_.storage_factor() * (config_.check_shares ? 2.0 : 1.0);
  }
  [[nodiscard]] std::uint32_t num_modules() const override {
    return config_.n_modules;
  }
  bool set_fault_hooks(const pram::FaultHooks* hooks) override {
    hooks_ = hooks;
    return true;
  }

  /// Native scrub: walk the block space from a persistent cursor; every
  /// block with shares on dead modules that is still reconstructible
  /// (>= b survivors) is decoded, its lost shares RELOCATED to
  /// deterministically-chosen healthy modules, and the block re-dispersed
  /// onto the repaired placement. One budget unit = one block scanned.
  /// Blocks below threshold stay lost (nothing to re-disperse from); a
  /// pass over a healthy block writes nothing.
  pram::ScrubResult scrub(std::uint64_t budget) override;
  [[nodiscard]] pram::ReliabilityStats reliability() const override {
    return reliability_;
  }

  // ----- scheme accounting -----
  [[nodiscard]] double storage_factor() const {
    return disperser_.storage_factor();
  }
  [[nodiscard]] std::uint64_t num_blocks() const { return n_blocks_; }
  [[nodiscard]] std::uint32_t region_blocks() const {
    return config_.region_blocks;
  }
  /// Regions with at least one written share (sparse-storage accounting;
  /// with region_blocks == 1 this is exactly "blocks with >= 1 written
  /// share", the classic meaning).
  [[nodiscard]] std::uint64_t touched_blocks() const {
    return rows_.count();
  }
  /// Variables processed (decoded) per variable accessed so far.
  [[nodiscard]] double work_amplification() const;

 protected:
  /// Native snapshot: the packed share region rows (shares, checksums,
  /// written-block flag bits) in ascending region order, the scrub
  /// relocation overlay, the encode counter (corruption re-roll
  /// namespace), and the scrub cursor. The peek/poke default would
  /// re-encode every block and lose relocations; this path restores the
  /// exact stored share words.
  void snapshot_body(pram::SnapshotSink& sink) override;
  [[nodiscard]] bool restore_body(pram::SnapshotSource& source) override;

 private:
  [[nodiscard]] std::uint64_t block_of(VarId var) const {
    return var.index() / config_.b;
  }
  // ----- region-row geometry -----
  //
  // A region row packs R = region_blocks consecutive blocks share-major:
  //   share s of the region's t-th block        at row[s*R + t]
  //   its checksum word (check_shares only)     at row[d*R + s*R + t]
  //   written-block flag bits (one per block)   at row[flag_base_ + t/64]
  // so share s's words for a run of blocks are one contiguous span
  // (stride R between shares). R = 1 collapses to the classic
  // one-row-per-block layout: d shares, then d checksums, byte-for-byte
  // as before (plus the one trailing flag word that used to be implied
  // by the row's existence).
  //
  // Rows live in a util::PagedRows table keyed by region, materialized
  // by the first store into them: all zero, i.e. every block slot holds
  // the zero block's shares, checksums 0, flags clear. A region no store
  // reached has no row (rows_.find returns nullptr).
  [[nodiscard]] std::uint64_t region_of_block(std::uint64_t block) const {
    return block / config_.region_blocks;
  }
  /// True when encode_block has ever run for `block` (the classic
  /// "row exists" signal, kept per block inside the region row).
  [[nodiscard]] bool block_written(std::uint64_t block) const;
  /// Share j of `block` as stored (0, the zero block's share, if
  /// untouched).
  [[nodiscard]] pram::Word share_at(std::uint64_t block,
                                    std::uint32_t j) const;
  /// Stored checksum word of share j; unwritten blocks fall back to the
  /// checksum the zero encoding's writer would have stored.
  [[nodiscard]] pram::Word checksum_at(std::uint64_t block,
                                       std::uint32_t j) const;
  /// The checksum a share word SHOULD carry: a seeded hash of
  /// (block, share index, value), computed by the writer from the true
  /// encoded word — so a stuck cell or a store-time corruption leaves a
  /// mismatched pair behind.
  [[nodiscard]] static pram::Word share_checksum(std::uint64_t block,
                                                 std::uint32_t j,
                                                 pram::Word value);
  /// Outcome of one block decode under fault hooks.
  enum class DecodeStatus : std::uint8_t { kOk, kDegraded, kFailed };
  /// Decode a block into out[0, b) and account erasures/threshold misses
  /// into reliability_ and the journal when running under fault hooks.
  DecodeStatus decode_block(std::uint64_t block, pram::Word* out);
  /// The recovery rule itself (shared by decode_block, peek and scrub):
  /// healthy path reads shares 0..b-1; under fault hooks it
  /// interpolates from the first b SURVIVING share indices. Reports dead
  /// shares in `erased` and stuck shares that silently joined the
  /// interpolation in `faulty`; returns false (leaving the zero block in
  /// `out`) when fewer than b shares survive.
  [[nodiscard]] bool recover_block(std::uint64_t block, pram::Word* out,
                                   std::uint32_t* erased,
                                   std::uint32_t* faulty) const;
  /// Healthy decode of every plan group into decoded_store_: gather the
  /// b stored shares of each group share-major, then one bulk decode.
  void decode_groups_healthy(const pram::AccessPlan& plan);
  /// Encode one block and store it (poke, scrub).
  void encode_block(std::uint64_t block, std::span<const pram::Word> values);
  /// Store `block`'s d encoded shares (share j at shares[j * stride]) and
  /// set its written flag. Under fault hooks each store counts one
  /// store_ops_ stamp: shares on dead modules (per `modules`, the
  /// block's current placement) are dropped and stores may corrupt.
  void store_block(std::uint64_t block, const pram::Word* shares,
                   std::size_t stride, std::span<const ModuleId> modules);
  /// The block's CURRENT share placement: the hashed placement with
  /// scrub relocations applied on top.
  void placement_into_current(std::uint64_t block,
                              std::span<ModuleId> out) const;

  std::uint64_t m_vars_;
  IdaMemoryConfig config_;
  Disperser disperser_;
  std::uint64_t n_blocks_;
  std::uint64_t n_regions_;
  std::size_t flag_base_ = 0;  ///< row offset of the written-block bits
  /// Share region rows (layout above), keyed by region.
  util::PagedRows<pram::Word> rows_;
  std::vector<std::uint32_t> identity_indices_;  ///< {0..b-1} (healthy set)
  std::vector<pram::Word> encode_scratch_;       ///< d share words
  std::vector<ModuleId> block_placement_;        ///< encode_block's d modules
  /// Placement of each block's d shares over the modules.
  memmap::HashedMap placement_;
  std::uint64_t share_accesses_ = 0;
  std::uint64_t vars_accessed_ = 0;
  std::uint64_t vars_processed_ = 0;
  std::uint64_t store_ops_ = 0;  ///< encode counter (corruption stamp)
  /// Shares scrub moved off dead modules (entity = block, unit = share).
  pram::RelocationOverlay relocations_;
  std::uint64_t scrub_cursor_ = 0;  ///< next block a scrub pass scans
  const pram::FaultHooks* hooks_ = nullptr;  ///< non-owning; null = healthy
  pram::ReliabilityStats reliability_;

  // ----- serve() scratch (reused across steps; meaningless between) -----
  std::vector<std::uint32_t> module_load_;     ///< dense, reset via touched
  std::vector<std::uint32_t> touched_modules_;
  std::vector<std::uint64_t> pick_keys_;       ///< (load << 8 | share) keys
  std::vector<VarId> group_blocks_;            ///< the groups' block keys
  std::vector<ModuleId> placements_;           ///< group g at [g*d,(g+1)*d)
  std::vector<std::uint8_t> group_ops_;        ///< kGroupRead | kGroupWrite
  std::vector<DecodeStatus> group_status_;
  std::vector<pram::Word> decoded_store_;      ///< group g at [g*b,(g+1)*b)
  std::vector<std::uint32_t> written_groups_;  ///< ascending
  std::vector<pram::Word> write_blocks_;       ///< written blocks, in order
  /// Share-major spans: the gathered shares for the bulk decode, then
  /// the written blocks' d encoded shares.
  std::vector<pram::Word> share_spans_;
};

}  // namespace pramsim::ida
