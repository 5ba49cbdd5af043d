// CRC-32 (IEEE 802.3: reflected, polynomial 0xEDB88320) — the frame
// check sealing every WAL record payload and checkpoint payload, so a
// torn write (partial fwrite at the crash) or bit rot is DETECTED at
// recovery instead of replayed as garbage. Stdlib-only.
//
// Two paths, one value. On x86-64 hosts with PCLMULQDQ
// (util::have_pclmul), update() folds the whole 16-byte chunks of any
// span of at least 64 bytes with carry-less multiplies: four 128-bit
// lanes advance 512 bits per step, fold into one lane, and a Barrett
// reduction brings the remainder to 32 bits (Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
// Intel, 2009). The tail, short spans and every other host go through
// slicing-by-8: eight 256-entry tables, built at compile time, fold
// eight input bytes per iteration with independent lookups; it
// assembles input words from single bytes, so it does not depend on host
// endianness or alignment. Both paths are bit-identical to the classic
// byte-at-a-time loop. update_sliced() is the table loop alone, kept
// callable as the reference the kernel is tested against.
//
// Crc32 is the streaming form: update() any number of times over
// consecutive pieces, then value() equals crc32() of their concatenation
// — the checkpoint writer seals a payload it never holds in memory whole.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pramsim::durability {

class Crc32 {
 public:
  /// Fold `size` bytes at `data` into the running CRC.
  void update(const void* data, std::size_t size);

  /// The same fold through the slicing-by-8 tables only, on every host.
  void update_sliced(const void* data, std::size_t size);

  /// CRC-32 of every byte passed to update() so far.
  [[nodiscard]] std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

[[nodiscard]] inline std::uint32_t crc32(const void* data,
                                         std::size_t size) {
  Crc32 crc;
  crc.update(data, size);
  return crc.value();
}

}  // namespace pramsim::durability
