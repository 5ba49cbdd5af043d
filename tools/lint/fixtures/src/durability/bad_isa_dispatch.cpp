// pramlint fixture: a PCLMULQDQ kernel called with no probe in its file.
// On a host without the extension the first call is an illegal
// instruction. Naming util::have_pclmul() in a comment does not count,
// and neither does a string "util::have_pclmul()".
// expect: isa-dispatch
#include <cstddef>
#include <cstdint>

namespace pramsim::durability {

namespace {

__attribute__((target("pclmul"))) std::uint32_t fold_kernel(
    std::uint32_t state, const unsigned char* p, std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    state ^= p[i];
  }
  return state;
}

[[gnu::target("pclmul")]] std::uint32_t other_kernel(std::uint32_t state) {
  return state;
}

}  // namespace

const char* probe_name() { return "util::have_pclmul()"; }

std::uint32_t fold(std::uint32_t state, const unsigned char* p,
                   std::size_t size) {
  return other_kernel(fold_kernel(state, p, size));
}

}  // namespace pramsim::durability
