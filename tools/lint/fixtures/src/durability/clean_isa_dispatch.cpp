// pramlint fixture: a PCLMULQDQ kernel behind util::have_pclmul(), with
// the portable loop for hosts that answer false.
// expect: none
#include <cstddef>
#include <cstdint>

#include "util/isa.hpp"

namespace pramsim::durability {

namespace {

__attribute__((target("pclmul"))) std::uint32_t fold_kernel(
    std::uint32_t state, const unsigned char* p, std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    state ^= p[i];
  }
  return state;
}

std::uint32_t fold_portable(std::uint32_t state, const unsigned char* p,
                            std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    state ^= p[i];
  }
  return state;
}

}  // namespace

std::uint32_t fold(std::uint32_t state, const unsigned char* p,
                   std::size_t size) {
  return util::have_pclmul() ? fold_kernel(state, p, size)
                             : fold_portable(state, p, size);
}

}  // namespace pramsim::durability
