// pramlint fixture: a storage organization probing the CPU itself
// instead of through util::have_avx2 (src/util/isa.hpp). A mention of
// __builtin_cpu_supports in a comment does not fire.
// expect: isa-probe, isa-probe, isa-probe, isa-probe, isa-probe, isa-probe
#include <cpuid.h>

namespace pramsim::ida {

bool private_avx2_probe() {
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) {
    return false;
  }
  unsigned lo = 0;
  unsigned hi = 0;
  __asm__("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  __builtin_cpu_init();
  return __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0 &&
         __builtin_cpu_supports("avx2") && (lo & 0x6u) == 0x6u;
}

}  // namespace pramsim::ida
