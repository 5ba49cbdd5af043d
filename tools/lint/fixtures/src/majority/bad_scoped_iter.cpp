// pramlint fixture: the scoping that keeps same-named vectors clean must
// still catch a function-local unordered map iterated in its own body
// and an unordered member iterated through an object.
// expect: unordered-iter, unordered-iter
#include <cstdint>
#include <unordered_map>

namespace pramsim::majority {

struct ModuleLoad {
  std::unordered_map<std::uint32_t, std::uint32_t> load;
};

std::uint64_t first_loaded(const std::uint32_t* modules, std::uint32_t n) {
  std::unordered_map<std::uint32_t, std::uint32_t> seen;
  for (std::uint32_t i = 0; i < n; ++i) {
    ++seen[modules[i]];
  }
  for (const auto& [module, count] : seen) {
    return module + count;
  }
  return 0;
}

std::uint64_t total_load(const ModuleLoad* loads) {
  std::uint64_t sum = 0;
  for (const auto& [module, count] : loads->load) {
    sum += module * count;
  }
  return sum;
}

}  // namespace pramsim::majority
