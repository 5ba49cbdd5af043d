// Timestamped copy storage for the majority-rule scheme (Upfal-Wigderson
// 1987, reviewed in the paper's §1).
//
// Each variable owns r = 2c-1 copies; each copy carries the value and the
// P-RAM step number of its last update. Reads retrieve >= c copies and
// take the freshest; writes stamp >= c copies. Because any two c-subsets
// of 2c-1 copies intersect, the freshest copy in any read set carries the
// latest committed write.
//
// Region granularity: the store keeps copies of W = region_words
// consecutive variables contiguously (copy-major: copy i of the whole
// region, then copy i+1, ...), so a copy's slice of a region is one flat
// span. W = 1 reproduces the classic per-variable rows byte for byte;
// W > 1 lets vote_region() compare whole copy regions with memcmp (the
// bulk healthy path) while every per-word method below keeps its exact
// word-at-a-time semantics.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "pram/faults.hpp"
#include "pram/types.hpp"
#include "util/assert.hpp"
#include "util/strong_id.hpp"

namespace pramsim::majority {

struct Copy {
  pram::Word value = 0;
  std::uint64_t stamp = 0;  ///< step number of last write (0 = initial)
};

static_assert(sizeof(Copy) == 2 * sizeof(std::uint64_t),
              "Copy must be padding-free so region memcmp compares exactly "
              "the (value, stamp) pairs");

/// Paged (region, copy-index) -> Copy storage. Region rows (r copy
/// slices of region_words() copies each) live in fixed pages of as many
/// whole rows as fit in kPageBytes (at least one, a power of two so a
/// shift finds the page). A page is allocated zero-filled on the first
/// write to any of its rows, so every row never written reads the
/// initial {0, 0} copy. Row storage is proportional to the pages a run
/// writes, and the page directory and per-region touched bits grow only
/// as far as the highest region written — nothing is sized by m*r, which
/// keeps full-scale memories (m up to n^2 for n in the thousands) cheap
/// to construct.
///
/// Pages never move once allocated, so references and row pointers stay
/// valid until clear_rows(). The directory and the touched bits change
/// only in the materializing calls (write, corrupt, store_all,
/// ensure_row, restore_row) — never in reads or write_prepared.
class CopyStore {
 public:
  CopyStore(std::uint64_t m_vars, std::uint32_t redundancy,
            std::uint32_t region_words = 1);

  [[nodiscard]] std::uint64_t num_vars() const { return m_vars_; }
  [[nodiscard]] std::uint32_t redundancy() const { return r_; }
  [[nodiscard]] std::uint32_t region_words() const { return w_; }
  [[nodiscard]] std::uint64_t num_regions() const { return n_regions_; }
  [[nodiscard]] std::uint64_t region_of(VarId var) const {
    return var.index() / w_;
  }
  /// Regions with at least one written copy (live-set accounting; with
  /// region_words == 1 this is exactly "variables with >= 1 written
  /// copy", the classic meaning).
  [[nodiscard]] std::uint64_t touched_vars() const { return touched_rows_; }
  /// True when `var`'s region row was materialized (>= 1 copy of some
  /// variable in the region ever written). Untouched variables read as
  /// the initial {0, 0} copy everywhere, so repair passes can restore
  /// their redundancy by relocation alone. A row sharing a page with
  /// written neighbours stays untouched until it is written itself.
  [[nodiscard]] bool touched(VarId var) const {
    return region_touched(region_of(var));
  }

  [[nodiscard]] const Copy& at(VarId var, std::uint32_t copy) const {
    PRAMSIM_DASSERT(var.index() < m_vars_ && copy < r_);
    const Copy* col = column(var);
    if (col == nullptr) {
      static const Copy kInitial{};
      return kInitial;
    }
    return col[static_cast<std::size_t>(copy) * w_];
  }

  void write(VarId var, std::uint32_t copy, pram::Word value,
             std::uint64_t stamp) {
    PRAMSIM_DASSERT(var.index() < m_vars_ && copy < r_);
    row(region_of(var))[static_cast<std::size_t>(copy) * w_ +
                        var.index() % w_] = Copy{value, stamp};
  }

  // ----- group-parallel serve surface -----
  //
  // The page directory and touched bits must not change while group
  // workers write concurrently, so the parallel value phase is two-phase:
  // the serving thread materializes every written variable's region row
  // up front (ensure_row: allocates the page, grows the directory, sets
  // the touched bit), then workers update DISTINCT variables' slots in
  // place (write_prepared) — pure lookups, no allocation, no growth.
  // Distinct variables of a SHARED row or page touch disjoint Copy slots,
  // so the frozen-structure rule carries over to any region width.

  /// Materialize `var`'s region row (serving thread only, before fan-out).
  void ensure_row(VarId var) { (void)row(region_of(var)); }

  /// In-place write for a row ensure_row already materialized. Safe to
  /// call concurrently with other write_prepared/reads on DIFFERENT
  /// variables (and different copies of the same variable).
  void write_prepared(VarId var, std::uint32_t copy, pram::Word value,
                      std::uint64_t stamp) {
    PRAMSIM_DASSERT(var.index() < m_vars_ && copy < r_);
    PRAMSIM_DASSERT(region_touched(region_of(var)));
    find_row(region_of(var))[static_cast<std::size_t>(copy) * w_ +
                             var.index() % w_] = Copy{value, stamp};
  }

  /// The freshest value among the copies selected by `mask` (bit i =>
  /// copy i participates). Requires a non-empty mask.
  [[nodiscard]] Copy freshest(VarId var, std::uint64_t mask) const;

  /// The globally freshest copy (over all r copies) — the ground truth a
  /// correct majority read must match. Verification only.
  [[nodiscard]] Copy ground_truth(VarId var) const;

  /// Failure injection (tests): overwrite a copy's value *without*
  /// advancing its stamp, emulating a stale/corrupted replica.
  void corrupt(VarId var, std::uint32_t copy, pram::Word bogus_value);

  // ----- copy-level fault surface (degraded-mode protocol) -----

  /// Outcome of a majority vote over a variable's surviving copies.
  struct VoteOutcome {
    Copy winner;                  ///< elected (value, stamp); {0,0} if none
    std::uint32_t survivors = 0;  ///< copies that cast a vote
    std::uint32_t erased = 0;     ///< copies skipped (dead module)
    std::uint32_t dissenting = 0; ///< survivors disagreeing with the winner
  };

  /// Majority vote over all r copies of `var` under fault injection:
  /// copies on modules dead by `step` are erasures; stuck-at copies vote
  /// their stuck value. The winner is the (value, stamp) pair with the
  /// largest multiplicity (ties: fresher stamp, then smaller value — both
  /// deterministic). `modules` is the variable's copy placement (size r).
  /// With write-through stores (store_all) every healthy copy agrees, so
  /// the vote recovers the committed value as long as healthy copies
  /// outnumber every colluding faulty subset — in particular it survives
  /// floor((r-1)/2) arbitrary bad copies with no erasures.
  [[nodiscard]] VoteOutcome vote(VarId var,
                                 std::span<const ModuleId> modules,
                                 std::uint64_t step,
                                 const pram::FaultHooks& hooks) const;

  /// Degraded-mode write-through: store (value, stamp) into every copy of
  /// `var` whose module is alive at `step` (the caller's P-RAM step
  /// clock), letting `hooks` corrupt individual stores. `reroll` is the
  /// corruption re-roll key passed to corrupt_write — protocol writes use
  /// the stamp itself; scrub repair passes use a dedicated counter so a
  /// repair never replays the corruption roll of a same-step write.
  /// Returns the number of copies lost to dead modules; the count of
  /// silently corrupted stores is added to `corrupt_stores`.
  std::uint32_t store_all(VarId var, std::span<const ModuleId> modules,
                          pram::Word value, std::uint64_t stamp,
                          std::uint64_t reroll, std::uint64_t step,
                          const pram::FaultHooks& hooks,
                          std::uint64_t& corrupt_stores);

  /// store_all for the group-parallel degraded path: identical effects,
  /// but writes through write_prepared — the caller must have
  /// ensure_row'd `var` on the serving thread first.
  std::uint32_t store_all_prepared(VarId var,
                                   std::span<const ModuleId> modules,
                                   pram::Word value, std::uint64_t stamp,
                                   std::uint64_t reroll, std::uint64_t step,
                                   const pram::FaultHooks& hooks,
                                   std::uint64_t& corrupt_stores);

  // ----- bulk region surface (the hailburst vote_memory idiom) -----

  /// vote_region found no copy whose whole region a strict majority of
  /// the live copies matches bytewise.
  static constexpr std::int32_t kNoRegionMajority = -1;

  /// Region-wise majority vote: compare whole per-copy regions with
  /// memcmp, skipping copies masked out of `live_mask` (erased replicas),
  /// and return the index of a live copy whose region a strict majority
  /// of the live copies matches bytewise — or kNoRegionMajority when no
  /// bytewise majority exists, in which case callers fall back to the
  /// word-granular vote() per variable to localize the dissent.
  ///
  /// With `dissenting` == nullptr the scan early-exits as soon as some
  /// candidate reaches a strict majority (the fast healthy path);
  /// otherwise all live copies are compared and *dissenting receives the
  /// exact count of live copies whose region differs from the winner's
  /// (0 == the whole region is bytewise unanimous).
  ///
  /// Byte comparison of Copy spans compares exactly the (value, stamp)
  /// pairs (Copy is padding-free by the static_assert above), so a
  /// unanimous region certifies per-word agreement on values AND stamps.
  [[nodiscard]] std::int32_t vote_region(
      std::uint64_t region, std::uint64_t live_mask,
      std::uint32_t* dissenting = nullptr) const;

  /// Copy `copy`'s contiguous slice of `region` (region_words() entries);
  /// empty for untouched regions (every copy reads the initial {0, 0}).
  [[nodiscard]] std::span<const Copy> region_span(std::uint64_t region,
                                                  std::uint32_t copy) const {
    PRAMSIM_DASSERT(region < n_regions_ && copy < r_);
    if (!region_touched(region)) {
      return {};
    }
    return {find_row(region) + static_cast<std::size_t>(copy) * w_, w_};
  }

  /// Bulk repair: memcpy copy `from`'s whole region slice over copy
  /// `to`'s — values AND stamps — after a region-wise vote elected
  /// `from`. No-op on untouched regions (all copies already agree).
  void copy_region(std::uint64_t region, std::uint32_t from,
                   std::uint32_t to);

  // ----- snapshot surface (durability checkpoints) -----

  /// Visit every materialized region row in ascending region order as
  /// fn(region, row), where row holds redundancy() * region_words()
  /// copies, copy-major. The order is canonical, so a serializer's byte
  /// stream depends only on the stored state.
  template <typename Fn>
  void for_each_row(Fn&& fn) const {
    for (std::size_t word = 0; word < touched_.size(); ++word) {
      for (std::uint64_t bits = touched_[word]; bits != 0;
           bits &= bits - 1) {
        const std::uint64_t region =
            word * 64 + static_cast<std::uint64_t>(std::countr_zero(bits));
        fn(region, std::span<const Copy>(find_row(region), row_len_));
      }
    }
  }

  /// Install one serialized region row — values AND stamps — replacing
  /// any existing row. Restore-only: `copies` must hold exactly
  /// redundancy() * region_words() entries.
  void restore_row(std::uint64_t region, std::span<const Copy> copies);

  /// Drop every materialized row (restore resets to this blank state
  /// before installing the snapshot's rows, so a second restore onto the
  /// same instance is exact, not additive).
  void clear_rows();

 private:
  /// Upper bound on one page's row bytes.
  static constexpr std::size_t kPageBytes = 4096;

  [[nodiscard]] bool region_touched(std::uint64_t region) const {
    const std::uint64_t word = region >> 6;
    return word < touched_.size() && ((touched_[word] >> (region & 63)) & 1);
  }
  /// The region's row in its page, or nullptr when the page is absent. A
  /// row in an allocated page that was never written reads all {0, 0}.
  /// Never allocates, so it is safe during a group-parallel fan-out.
  [[nodiscard]] Copy* find_row(std::uint64_t region) const {
    const std::uint64_t page = region >> shift_;
    if (page >= pages_.size() || pages_[page] == nullptr) {
      return nullptr;
    }
    return pages_[page].get() + (region & row_mask_) * row_len_;
  }
  /// The region's row, materialized (page allocated, touched bit set).
  [[nodiscard]] Copy* row(std::uint64_t region) {
    return region_touched(region) ? find_row(region) : materialize(region);
  }
  /// Allocate the region's page if absent and set its (clear) touched
  /// bit. Serving thread only: may grow the directory and the bits.
  [[nodiscard]] Copy* materialize(std::uint64_t region);
  /// Pointer to `var`'s Copy for copy 0, or nullptr when its page is
  /// absent; copy i lives at base[i * region_words()].
  [[nodiscard]] const Copy* column(VarId var) const {
    const Copy* base = find_row(region_of(var));
    return base == nullptr ? nullptr : base + var.index() % w_;
  }

  std::uint64_t m_vars_;
  std::uint32_t r_;
  std::uint32_t w_;
  std::uint64_t n_regions_;
  std::size_t row_len_;     ///< copies per region row: r * region_words
  unsigned shift_;          ///< log2(rows per page)
  std::uint64_t row_mask_;  ///< rows per page - 1
  /// Page directory, indexed by region >> shift_; null = no row written.
  std::vector<std::unique_ptr<Copy[]>> pages_;
  std::vector<std::uint64_t> touched_;  ///< one bit per materialized region
  std::uint64_t touched_rows_ = 0;      ///< set bits in touched_
};

}  // namespace pramsim::majority
