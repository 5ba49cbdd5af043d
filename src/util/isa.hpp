// Instruction-set probe: the one place the library asks the host CPU
// what it can run. It has two answers: AVX2 (GF(256) span coding,
// HashedMap's batch placement, the 2DMOT route writer and the router's
// run-ahead search) and PCLMULQDQ (the CRC-32 folding kernel). Vector
// kernels are compiled with a per-function target attribute and chosen
// at run time through this probe, so one binary runs everywhere and no
// build flag selects a kernel.
//
// The probe reads CPUID and XGETBV through <cpuid.h>, not
// __builtin_cpu_supports: the builtin links libgcc's CPU-model
// constructor into every program that links the library. pramlint's
// isa-probe rule keeps every other file in src/ off those primitives.
#pragma once

namespace pramsim::util {

/// True when the host runs AVX2 code: the CPU has AVX2 and the OS saves
/// the YMM registers. Probed once per process, on first use; false on
/// builds for other architectures.
[[nodiscard]] bool have_avx2();

/// True when the host runs PCLMULQDQ (carry-less multiply) on XMM
/// registers: CPUID.1:ECX.PCLMULQDQ. Kernels behind it use SSE2 beside
/// the multiply, which every x86-64 host has. Probed once per process,
/// on first use; false on builds for other architectures.
[[nodiscard]] bool have_pclmul();

}  // namespace pramsim::util
