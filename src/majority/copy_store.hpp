// Timestamped copy storage for the majority-rule scheme (Upfal-Wigderson
// 1987, reviewed in the paper's §1).
//
// Each variable owns r = 2c-1 copies; each copy carries the value and the
// P-RAM step number of its last update. Reads retrieve >= c copies and
// take the freshest; writes stamp >= c copies. Because any two c-subsets
// of 2c-1 copies intersect, the freshest copy in any read set carries the
// latest committed write.
#pragma once

#include <cstdint>
#include <span>

#include "pram/faults.hpp"
#include "pram/types.hpp"
#include "util/assert.hpp"
#include "util/paged_rows.hpp"
#include "util/strong_id.hpp"

namespace pramsim::majority {

struct Copy {
  pram::Word value = 0;
  std::uint64_t stamp = 0;  ///< step number of last write (0 = initial)
};

static_assert(sizeof(Copy) == 2 * sizeof(std::uint64_t),
              "Copy must be padding-free so a row serializes as exactly "
              "its (value, stamp) pairs");

/// Paged (variable, copy-index) -> Copy storage. Each variable's r copies
/// are one row of a util::PagedRows table keyed by the variable: a row is
/// materialized (its page allocated zero-filled, its touched bit set) on
/// the first write into it, so every row never written reads the initial
/// {0, 0} copy. Nothing is sized by m*r, which keeps full-scale memories
/// (m up to n^2 for n in the thousands) cheap to construct.
///
/// Rows never move once materialized, so references and row pointers
/// stay valid until the table is cleared through rows(). The table
/// changes only in the materializing calls (write, corrupt, store_all,
/// ensure_row) and in a snapshot restore through rows() — never in
/// reads or write_prepared.
class CopyStore {
 public:
  CopyStore(std::uint64_t m_vars, std::uint32_t redundancy);

  [[nodiscard]] std::uint64_t num_vars() const { return m_vars_; }
  [[nodiscard]] std::uint32_t redundancy() const { return r_; }
  /// Variables with at least one written copy (live-set accounting).
  [[nodiscard]] std::uint64_t touched_vars() const { return rows_.count(); }
  /// True when `var`'s row was materialized (>= 1 copy ever written).
  /// Untouched variables read as the initial {0, 0} copy everywhere, so
  /// repair passes can restore their redundancy by relocation alone. A
  /// row sharing a page with written neighbours stays untouched until it
  /// is written itself.
  [[nodiscard]] bool touched(VarId var) const {
    return rows_.contains(var.index());
  }

  [[nodiscard]] const Copy& at(VarId var, std::uint32_t copy) const {
    PRAMSIM_DASSERT(var.index() < m_vars_ && copy < r_);
    const Copy* copies = rows_.find(var.index());
    if (copies == nullptr) {
      static const Copy kInitial{};
      return kInitial;
    }
    return copies[copy];
  }

  void write(VarId var, std::uint32_t copy, pram::Word value,
             std::uint64_t stamp) {
    PRAMSIM_DASSERT(var.index() < m_vars_ && copy < r_);
    row(var)[copy] = Copy{value, stamp};
  }

  // ----- value-phase serve surface -----
  //
  // The row table must not change while value-phase workers write
  // concurrently, so the value phase is two-phase: the serving thread
  // materializes every written variable's row up front (ensure_row),
  // then workers update DISTINCT variables' rows in place
  // (write_prepared) — pure lookups, no allocation, no growth. Distinct
  // variables sharing a page touch disjoint rows.

  /// Materialize `var`'s row (serving thread only, before fan-out).
  void ensure_row(VarId var) { (void)row(var); }

  /// In-place write for a row ensure_row already materialized. Safe to
  /// call concurrently with other write_prepared/reads on DIFFERENT
  /// variables (and different copies of the same variable).
  void write_prepared(VarId var, std::uint32_t copy, pram::Word value,
                      std::uint64_t stamp) {
    PRAMSIM_DASSERT(var.index() < m_vars_ && copy < r_);
    PRAMSIM_DASSERT(rows_.contains(var.index()));
    rows_.find(var.index())[copy] = Copy{value, stamp};
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

  /// store_all for the value phase's degraded path: identical effects,
  /// but writes through write_prepared — the caller must have
  /// ensure_row'd `var` on the serving thread first.
  std::uint32_t store_all_prepared(VarId var,
                                   std::span<const ModuleId> modules,
                                   pram::Word value, std::uint64_t stamp,
                                   std::uint64_t reroll, std::uint64_t step,
                                   const pram::FaultHooks& hooks,
                                   std::uint64_t& corrupt_stores);

  // ----- snapshot surface (durability checkpoints) -----

  /// The rows themselves, keyed by variable, each holding redundancy()
  /// copies: the table the native snapshot body frames with
  /// pram::put_rows / pram::get_rows.
  [[nodiscard]] const util::PagedRows<Copy>& rows() const { return rows_; }
  [[nodiscard]] util::PagedRows<Copy>& rows() { return rows_; }

 private:
  /// The variable's row, materialized (serving thread only).
  [[nodiscard]] Copy* row(VarId var) {
    PRAMSIM_ASSERT(var.index() < m_vars_);
    return rows_.insert(var.index());
  }

  std::uint64_t m_vars_;
  std::uint32_t r_;
  /// One row of r copies per written variable.
  util::PagedRows<Copy> rows_;
};

}  // namespace pramsim::majority
