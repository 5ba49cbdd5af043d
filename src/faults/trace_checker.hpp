// Trace-consistency oracle, after Wei et al. ("Verifying PRAM
// Consistency over Read/Write Traces of Data Replicas"): replay the
// committed write trace on an ideal single-copy replica and validate
// every observed read against it. A faulty memory can drop replicas and
// still answer correctly (masked fault); what the checker catches is the
// SILENT failure — a read that returned a value no correct replica ever
// held. Storage is a paged table of one word per variable (untouched
// cells read 0, like FlatMemory after construction), so wrapping
// full-scale memories stays cheap.
#pragma once

#include <cstdint>

#include "pram/snapshot.hpp"
#include "pram/types.hpp"
#include "util/paged_rows.hpp"

namespace pramsim::faults {

class TraceChecker {
 public:
  /// Record a committed write (the IDEAL value, before any corruption).
  void record_write(VarId var, pram::Word value) {
    *ideal_.insert(var.index()) = value;
  }

  /// The value a correct memory must return for `var` right now.
  [[nodiscard]] pram::Word expected(VarId var) const {
    const pram::Word* value = ideal_.find(var.index());
    return value == nullptr ? 0 : *value;
  }

  /// Validate an observed read; returns true when consistent.
  bool check_read(VarId var, pram::Word observed) {
    if (observed == expected(var)) {
      return true;
    }
    ++mismatches_;
    return false;
  }

  [[nodiscard]] std::uint64_t mismatches() const { return mismatches_; }

  /// The ideal replica (the committed-write image): one word per
  /// variable, present once the variable was ever written (a write of 0
  /// stays in the image).
  [[nodiscard]] const util::PagedRows<pram::Word>& ideal() const {
    return ideal_;
  }

  /// Snapshot framing (pram::put_rows): the written-variable count, then
  /// (variable u64, value) per written variable in ascending order.
  void snapshot(pram::SnapshotSink& sink) const {
    pram::put_rows(sink, ideal_);
  }
  /// Replace the image with a snapshot's over `m` variables and zero the
  /// mismatch count. False on frames no snapshot writes.
  [[nodiscard]] bool restore(pram::SnapshotSource& source, std::uint64_t m) {
    mismatches_ = 0;
    return pram::get_rows(source, ideal_, m);
  }

 private:
  util::PagedRows<pram::Word> ideal_;
  std::uint64_t mismatches_ = 0;
};

}  // namespace pramsim::faults
