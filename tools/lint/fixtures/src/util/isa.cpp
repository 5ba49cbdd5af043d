// pramlint fixture: the isa-probe escape hatch — src/util/isa.* is the
// one home of the CPUID/XGETBV probe every vector kernel dispatches on.
// expect: none
#include <cpuid.h>

namespace pramsim::util {

bool probe_avx2() {
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
  return __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0 &&
         (lo & 0x6u) == 0x6u;
}

}  // namespace pramsim::util
