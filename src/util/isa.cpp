#include "util/isa.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace pramsim::util {

namespace {

bool probe_avx2() {
#if defined(__x86_64__)
  // CPUID.1:ECX.OSXSAVE, then XCR0 bits 1-2 (the OS saves the XMM and
  // YMM state), then CPUID.7.0:EBX.AVX2.
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 ||
      (ecx & bit_OSXSAVE) == 0) {
    return false;
  }
  unsigned xcr0_lo = 0;
  unsigned xcr0_hi = 0;
  __asm__("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
  if ((xcr0_lo & 0x6u) != 0x6u) {
    return false;
  }
  return __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0 &&
         (ebx & bit_AVX2) != 0;
#else
  return false;
#endif
}

bool probe_pclmul() {
#if defined(__x86_64__)
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  return __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 &&
         (ecx & bit_PCLMUL) != 0;
#else
  return false;
#endif
}

}  // namespace

bool have_avx2() {
  static const bool kHaveAvx2 = probe_avx2();
  return kHaveAvx2;
}

bool have_pclmul() {
  static const bool kHavePclmul = probe_pclmul();
  return kHavePclmul;
}

}  // namespace pramsim::util
