// pramlint fixture: a vector reached through an object, and a vector
// local of another function, share their name with an unordered local.
// Neither is an unordered iteration: function-local names are scoped to
// their function body, and `obj.name` targets match members only.
// expect: none
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace pramsim::majority {

struct ClaimList {
  std::vector<std::uint32_t> claims;
};

std::uint64_t distinct_modules(const std::vector<std::uint32_t>& modules) {
  std::unordered_map<std::uint32_t, std::uint32_t> claims;
  for (const auto module : modules) {
    ++claims[module];
  }
  return claims.size();
}

std::uint64_t sum_listed(const ClaimList& s) {
  std::uint64_t sum = 0;
  for (const auto module : s.claims) {
    sum += module;
  }
  return sum;
}

std::uint64_t sum_local(const ClaimList* s) {
  std::vector<std::uint32_t> claims = s->claims;
  std::uint64_t sum = 0;
  for (const auto module : claims) {
    sum += module;
  }
  return sum + (claims.begin() == claims.end() ? 0 : 1);
}

}  // namespace pramsim::majority
